"""Scenario runner: JSON configs in, JSON/CSV reports out.

Exit codes: 0 success, 1 experiment assertion failed, 2 config/schema
violation (including an --nmax-override on a config without a `model`
block, which has no lattice to override), 3 memory-budget refusal.

Reports are deterministic for a fixed config and seed; the run timestamp is
isolated in a sidecar `<report>.meta.json` so the report files themselves
are byte-identical across repeated runs.  Columns and report keys are
documented in docs/formats.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

import jsonschema

from . import analysis, dirichlet, kernels, models
from .fock import LatticeConfig, TruncationReport
from .models import ModelSpec, build_model, verify_algebra

SCHEMA_VERSION = 1
DEFAULT_BUDGET_MB = 2048
BUDGET_ENV = "FOCKDIRICHLET_BUDGET_MB"

LATTICE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["dims", "extent", "geometry", "n_max"],
    "properties": {
        "dims": {"type": "integer", "minimum": 1},
        "extent": {"anyOf": [{"type": "integer", "minimum": 1},
                             {"type": "array", "items": {"type": "integer", "minimum": 1}}]},
        "geometry": {"enum": ["chain", "cycle", "box"]},
        "neighbor_radius": {"type": "number", "exclusiveMinimum": 0},
        "n_max": {"type": "integer", "minimum": 1},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "experiment"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "experiment": {"enum": ["verify", "gap", "scaling", "heat", "decay",
                                "lieb-robinson", "bogolubov"]},
        "model": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "lattice"],
            "properties": {
                "kind": {"enum": list(models.MODEL_KINDS)},
                "lattice": LATTICE_SCHEMA,
                "beta": {"type": "number", "exclusiveMinimum": 0},
                "nu": {"type": "number", "minimum": 0},
                "mu": {"type": "number", "minimum": 0},
                "params": {"type": "object"},
            },
        },
        "kernel": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kappa": {"type": "number"},
                "n": {"type": "integer", "minimum": 1},
                "sigma": {"type": "number", "minimum": 0},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
        "params": {"type": "object"},
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "json": {"type": "string"},
                "csv": {"type": "string"},
            },
        },
    },
}


class BudgetError(RuntimeError):
    pass


class ConfigError(ValueError):
    """A valid config that the requested run cannot apply to."""


def _bump_nmax(spec: ModelSpec) -> ModelSpec:
    """Same model one level deeper, for truncation-sensitivity reruns."""
    lat = spec.lattice
    bumped = LatticeConfig(lat.dims, lat.extent, lat.geometry,
                           lat.neighbor_radius, lat.n_max + 1)
    return ModelSpec(kind=spec.kind, lattice=bumped, beta=spec.beta,
                     nu=spec.nu, mu=spec.mu, params=spec.params)


def load_config(path: str) -> dict:
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        loc = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ValueError(f"{path}: field {loc}: {exc.message}") from exc
    return cfg


def _lattice_from(cfg: dict) -> LatticeConfig:
    ext = cfg["extent"]
    return LatticeConfig(dims=cfg["dims"],
                         extent=tuple(ext) if isinstance(ext, list) else ext,
                         geometry=cfg["geometry"],
                         neighbor_radius=cfg.get("neighbor_radius", 1.0),
                         n_max=cfg["n_max"])


def _kernel_from(cfg: dict | None) -> kernels.AdmissibleKernel:
    cfg = cfg or {}
    return kernels.AdmissibleKernel(kappa=cfg.get("kappa", 0.0),
                                    n=cfg.get("n", 1),
                                    sigma=cfg.get("sigma", 0.0))


def _check_budget(need: int, budget_mb: int, what: str):
    if need > budget_mb * 2 ** 20:
        raise BudgetError(f"estimated {need / 2**20:.0f} MiB exceeds budget "
                          f"{budget_mb} MiB ({what})")


def _check_superoperator_budget(lattice: LatticeConfig, budget_mb: int):
    _check_budget(lattice.estimate_bytes(superoperator=True), budget_mb,
                  f"D = {lattice.dim}, superoperator")


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    return x


def run_scenario(cfg: dict, out_dir: str = ".", seed: int | None = None,
                 nmax_override: int | None = None,
                 budget_mb: int | None = None) -> tuple[int, dict]:
    """Run one scenario; returns (exit_status, report)."""
    budget_mb = budget_mb or int(os.environ.get(BUDGET_ENV, DEFAULT_BUDGET_MB))
    seed = cfg.get("seed", 0) if seed is None else seed
    kernel = _kernel_from(cfg.get("kernel"))
    experiment = cfg["experiment"]
    params = cfg.get("params", {})

    mcfg = cfg.get("model")
    lattice = spec = None
    if mcfg is None and nmax_override is not None:
        raise ConfigError(f"--nmax-override does not apply to the {experiment!r} "
                          "config: it has no model block")
    if mcfg is not None:
        lat = dict(mcfg["lattice"])
        if nmax_override is not None:
            lat["n_max"] = nmax_override
        lattice = _lattice_from(lat)
        spec = ModelSpec(kind=mcfg["kind"], lattice=lattice,
                         beta=mcfg.get("beta", 1.0), nu=mcfg.get("nu", 1.0),
                         mu=mcfg.get("mu", 1.0), params=mcfg.get("params", {}))

    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "seed": seed,
        "kernel": {"kappa": kernel.kappa, "n": kernel.n, "sigma": kernel.sigma},
        "sign_convention": "assembled generator is -L (PSD); P_t = exp(-t(-L))",
    }
    csv_rows = None
    meta: dict = {}   # run facts for the sidecar, kept out of the report
    passed = True

    if experiment == "verify":
        _check_superoperator_budget(lattice, budget_mb)

        def verify_at(sp):
            rep = verify_algebra(sp)
            built = build_model(sp)
            Ke = dirichlet.assemble_generator(built.directions, built.metric,
                                              kernel, path="eigen", seed=seed)
            Kq = dirichlet.assemble_generator(built.directions, built.metric,
                                              kernel, path="quadrature", seed=seed)
            dev = float(abs(Ke.matrix - Kq.matrix).max())
            checks = [{"name": c.name, "residual": c.residual, "tol": c.tol,
                       "margin": c.margin, "note": c.note, "passed": c.passed}
                      for c in rep.checks]
            checks.append({"name": "eigen_vs_quadrature", "residual": dev,
                           "tol": 1e-6, "margin": 0, "note": "",
                           "passed": dev <= 1e-6})
            checks.append({"name": "kms_symmetry", "residual": Ke.sym_residual,
                           "tol": 1e-9, "margin": 0, "note": "",
                           "passed": Ke.symmetric_in_metric})
            return checks

        checks = verify_at(spec)
        report["checks"] = checks
        report["truncation"] = _jsonable(vars(TruncationReport.measure(lattice.n_max)))
        rerun = verify_at(_bump_nmax(spec))
        report["truncation_sensitivity"] = {
            "n_max": lattice.n_max + 1,
            "worst_residual": max(c["residual"] for c in rerun),
            "all_passed": all(c["passed"] for c in rerun)}
        passed = all(c["passed"] for c in checks)
    elif experiment == "gap":
        _check_superoperator_budget(lattice, budget_mb)

        def gap_at(sp):
            built = build_model(sp)
            K = dirichlet.assemble_generator(built.directions, built.metric,
                                             kernel, seed=seed)
            return analysis.spectral_gap(K, built.metric, k=params.get("k", 8))

        # the ladder span carries the bottom of the spectrum only for the
        # one-site mean-field mode; elsewhere its eigenvalues bound the gap
        role = ("gap" if spec.kind == "mean_field" and lattice.n_sites == 1
                else "upper_bound")

        def clean_fields(rep):
            return {"clean_gap": rep.clean_gap, "clean_gap_role": role,
                    "clean_eigenvalues": rep.clean_eigenvalues,
                    "clean_span_residual": rep.clean_span_residual}

        gap = gap_at(spec)
        rerun = gap_at(_bump_nmax(spec))
        report["gap"] = _jsonable({
            "eigenvalues": gap.eigenvalues, "gap": gap.gap,
            "kernel_dim": gap.kernel_dim,
            "unit_kernel_residual": gap.unit_kernel_residual,
            **clean_fields(gap),
            "metadata": {**gap.metadata, "model": spec.kind,
                         "n_sites": lattice.n_sites, "n_max": lattice.n_max}})
        report["truncation_sensitivity"] = _jsonable({
            "n_max": lattice.n_max + 1, "gap": rerun.gap,
            "kernel_dim": rerun.kernel_dim, **clean_fields(rerun)})
        passed = gap.gap >= 0 and gap.unit_kernel_residual <= 1e-10
    elif experiment == "scaling":
        sizes = params.get("sizes", [3, 4, 5, 6, 7, 8])

        def scaling_at(n_max):
            return analysis.rayleigh_scaling(
                params.get("kind", "z_power"), params.get("test", "sum_adag"),
                sizes, n_max=n_max, beta=params.get("beta", 1.0),
                kernel=kernel, params=params.get("model_params",
                                                 {"n": 1, "m": 1, "half": True}),
                pad=params.get("pad", 1))

        rep = scaling_at(params.get("n_max", 1))
        rerun = scaling_at(params.get("n_max", 1) + 1)
        report["scaling"] = _jsonable(vars(rep))
        report["truncation_sensitivity"] = {
            "n_max": params.get("n_max", 1) + 1, "exponent": rerun.exponent}
        csv_rows = [("size", "energy", "variance", "ratio")] + [
            (s, e, v, r) for s, e, v, r in
            zip(rep.sizes, rep.energies, rep.variances, rep.ratios)]
        lo, hi = params.get("exponent_range", (-1.1, -0.9))
        passed = lo <= rep.exponent <= hi and rep.e_over_boundary_spread < 0.10
    elif experiment == "heat":
        _check_superoperator_budget(lattice, budget_mb)
        rep = analysis.heat_comparison(lattice, beta=spec.beta if spec else 1.0,
                                       kernel=kernel,
                                       edges=params.get("edges", "ordered"),
                                       t_grid=tuple(params.get("t_grid",
                                                               (0.2, 0.5, 1.0, 2.0))),
                                       seed=seed)
        report["heat"] = _jsonable({
            "span_residual": rep.span_residual,
            "C_predicted": rep.C_predicted,
            "restriction_deviation": rep.restriction_deviation,
            "restriction_eigenvalues": rep.restriction_eigenvalues,
            "trajectory_deviation": rep.trajectory_deviation,
            "full_semigroup_deviation": rep.full_semigroup_deviation,
            "raw_span_residual": rep.raw_span_residual,
            "metadata": rep.metadata})
        # the clean quantities are cutoff-exact by construction; the raw
        # deviations above are the truncation-sensitivity signal
        report["truncation_sensitivity"] = {
            "note": "clean quantities are cutoff-exact; see "
                    "full_semigroup_deviation / raw_span_residual"}
        passed = (rep.span_residual <= 1e-9
                  and rep.restriction_deviation <= 1e-8
                  and rep.trajectory_deviation <= 1e-6)
    elif experiment == "decay":
        rep = analysis.polynomial_decay_probe(
            tuple(params.get("lengths", [16])),
            beta=params.get("beta", 1.0), kernel=kernel,
            cross_check_length=params.get("cross_check_length", 4),
            cross_check_n_max=params.get("cross_check_n_max", 2), seed=seed)
        report["decay"] = _jsonable({
            "lengths": rep.lengths, "slopes": rep.slopes,
            "windows": rep.windows, "t0_check": rep.t0_check,
            "cross_check_trajectory_deviation":
                rep.cross_check.trajectory_deviation if rep.cross_check else None,
            "cross_check_full_semigroup_deviation":
                rep.cross_check.full_semigroup_deviation if rep.cross_check else None,
            "metadata": rep.metadata})
        csv_rows = [("length", "slope", "window_lo", "window_hi")] + [
            (L, s, w[0], w[1]) for L, s, w in
            zip(rep.lengths, rep.slopes, rep.windows)]
        report["truncation_sensitivity"] = {
            "note": "ring slopes run in cutoff-free coefficient space; the "
                    "cross-check's clean quantities are cutoff-exact"}
        passed = all(abs(s + 0.5) <= 0.15 for s in rep.slopes)
        if rep.cross_check is not None:
            passed = passed and rep.cross_check.trajectory_deviation <= 1e-6
    elif experiment == "lieb-robinson":
        length, n_max = params.get("chain_length", 5), params.get("n_max", 2)
        _check_budget(max(analysis.lieb_robinson_bytes(length, n)
                          for n in (n_max, n_max + 1)), budget_mb,
                      f"sector blocks, chain {length}, n_max {n_max} and "
                      f"{n_max + 1}")

        def lr_at(n_max):
            return analysis.lieb_robinson_probe(
                chain_length=length,
                n_max=n_max, lam=params.get("lambda", 0.5),
                epsilon=params.get("epsilon", 1.0), beta=params.get("beta", 1.0),
                t_grid=tuple(params.get("t_grid", (0.25, 0.5, 0.75, 1.0, 1.5))))

        rep = lr_at(n_max)
        rerun = lr_at(n_max + 1)
        meta["lieb_robinson_sectors"] = [rep.sectors, rerun.sectors]
        report["truncation_sensitivity"] = {
            "n_max": n_max + 1,
            "fit": {"D": rerun.fit_D, "C": rerun.fit_C, "m": rerun.fit_m}}
        report["lieb_robinson"] = _jsonable({
            "t_grid": rep.t_grid, "distances": rep.distances, "B": rep.B,
            "fit": {"D": rep.fit_D, "C": rep.fit_C, "m": rep.fit_m},
            "bound_ok": rep.bound_ok, "t0_max": rep.t0_max,
            "short_time_ratio": rep.short_time_ratio, "c_phi": rep.c_phi,
            "metadata": rep.metadata})
        csv_rows = [("t", "distance", "commutator_norm")] + [
            (float(t), int(d), float(rep.B[it, d]))
            for it, t in enumerate(rep.t_grid) for d in rep.distances]
        passed = rep.fit_m > 0 and rep.bound_ok and rep.t0_max <= 1e-12
    elif experiment == "bogolubov":
        from .bogolubov import (BogolubovParams, number_polynomial,
                                quasi_invariance_rep)
        s = params.get("s", 0.1)
        nmax_list = params.get("n_max_list", [4, 6, 8])
        residuals = []
        for nm in nmax_list:
            rep = quasi_invariance_rep(number_polynomial(), BogolubovParams.boost,
                                       number_polynomial(), s, nm, seed=seed)
            residuals.append(rep.unitarity_residual)
        report["bogolubov"] = _jsonable({
            "s": s, "n_max_list": nmax_list, "unitarity_residuals": residuals,
            "monotone": all(residuals[i] >= residuals[i + 1] - 1e-12
                            for i in range(len(residuals) - 1))})
        csv_rows = [("n_max", "unitarity_residual")] + list(zip(nmax_list, residuals))
        passed = report["bogolubov"]["monotone"]
    else:  # pragma: no cover
        raise ValueError(experiment)

    report["passed"] = bool(passed)
    _write_outputs(cfg, report, csv_rows, out_dir, meta)
    return (0 if passed else 1), report


def _write_outputs(cfg: dict, report: dict, csv_rows, out_dir: str,
                   meta: dict):
    out = cfg.get("output", {})
    outp = Path(out_dir)
    outp.mkdir(parents=True, exist_ok=True)
    json_name = out.get("json", "report.json")
    path = outp / json_name
    path.write_text(json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n")
    meta = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"), **meta}
    (outp / (json_name + ".meta.json")).write_text(json.dumps(meta) + "\n")
    if csv_rows and "csv" in out:
        with open(outp / out["csv"], "w", newline="") as fh:
            csv.writer(fh).writerows(csv_rows)


def _run_one(args):
    cfg_path, out_dir, seed, nmax, budget = args
    try:
        cfg = load_config(cfg_path)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        status, _ = run_scenario(cfg, out_dir=out_dir, seed=seed,
                                 nmax_override=nmax, budget_mb=budget)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 3
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fockdirichlet",
        description="Run Dirichlet-form lattice scenarios from JSON configs.")
    parser.add_argument("--config", help="scenario config file")
    parser.add_argument("--manifest", help="JSON list of config paths")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--nmax-override", type=int, default=None)
    parser.add_argument("--budget-mb", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for manifest runs")
    args = parser.parse_args(argv)

    if bool(args.config) == bool(args.manifest):
        parser.error("exactly one of --config / --manifest is required")

    if args.config:
        return _run_one((args.config, args.out, args.seed,
                         args.nmax_override, args.budget_mb))

    try:
        manifest = json.loads(Path(args.manifest).read_text())
        if not isinstance(manifest, list):
            raise ValueError("manifest must be a JSON list of config paths")
    except (OSError, ValueError) as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return 2
    base = Path(args.manifest).parent
    jobs = [(str((base / p) if not Path(p).is_absolute() else Path(p)),
             args.out, args.seed, args.nmax_override, args.budget_mb)
            for p in manifest]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            statuses = list(pool.map(_run_one, jobs))
    else:
        statuses = [_run_one(j) for j in jobs]
    return max(statuses, default=0)


if __name__ == "__main__":
    sys.exit(main())
