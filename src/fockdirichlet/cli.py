"""Scenario runner: JSON configs in, JSON/CSV reports out.

Each experiment is one entry of `EXPERIMENTS`: its params with their
defaults, whether it reads the `model` block, its memory-budget estimate, its
runner at a given cutoff `n_max` and, for the experiments rerun at
`n_max + 1`, the rerun's summary for `truncation_sensitivity`.
`run_scenario` does the shared steps once.

Exit codes: 0 success, 1 experiment assertion failed, 2 config violation
(schema, where each param has its default's type; unknown params; an input
that an analysis routine refuses with a ValueError other than LinAlgError;
a missing or invalid `model` block, or one the experiment cannot use: one
with no direction on its lattice, or one whose directions split into more
modular components than the eigen path takes; an --nmax-override on an
experiment that reads no `model` block, which has no lattice to override;
a memory budget that is not a positive integer; a negative --seed or a
--jobs below 1), 3 memory-budget refusal, 4 numerical failure (Krylov
non-convergence, a failed linear-algebra routine, or a generator that fails
its KMS-symmetry check).  Exits 2, 3 and 4 write no report.

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
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import jsonschema

from . import analysis, bogolubov, dirichlet, kernels, models
from .fock import LatticeConfig, TruncationReport
from .models import ModelSpec

SCHEMA_VERSION = 1
DEFAULT_BUDGET_MB = 2048
BUDGET_ENV = "FOCKDIRICHLET_BUDGET_MB"


class BudgetError(RuntimeError):
    pass


class ConfigError(ValueError):
    """A valid config that the requested run cannot apply to."""


class Run(NamedTuple):
    """One run's report sections, pass flag, CSV rows and sidecar facts."""
    sections: dict
    passed: bool
    csv_rows: list | None = None
    meta: dict | None = None


@dataclass(frozen=True)
class Experiment:
    """`params` maps each allowed param to its default.  `run(n_max, spec,
    params, kernel, seed) -> Run`; `budget(n_max, spec, params) -> (bytes,
    what)`; `rerun(sections)` summarises the n_max + 1 rerun, if there is one.
    Runners look analysis functions up at call time, so that tracing and
    monkeypatching the modules reaches them."""
    params: dict
    run: Callable
    model: bool = False
    budget: Callable | None = None
    rerun: Callable | None = None


def _spec(lattice: dict, **model) -> ModelSpec:
    """ModelSpec from config fields; its validation errors are config errors."""
    ext = lattice["extent"]
    try:
        return ModelSpec(lattice=LatticeConfig(
            **{**lattice, "extent": tuple(ext) if isinstance(ext, list) else ext}),
            **model)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def _directed(spec: ModelSpec) -> models.BuiltModel:
    """The built model, refused unless it has a direction on its lattice."""
    built, lat = models.build_model(spec), spec.lattice
    if not built.directions:
        raise ConfigError(f"model {spec.kind!r} has no direction on a "
                          f"{lat.geometry} of extent {lat.extent}")
    return built


def _superoperator_bytes(n_max, spec, p):
    D = spec.lattice.dim
    return 16 * D ** 4, f"D = {D}, superoperator"   # dense D^2 x D^2 complex


def _verify(n_max, spec, p, kernel, seed):
    built = _directed(spec)
    rep = models.verify_algebra(built)
    Ke = dirichlet.assemble_generator(built.directions, built.metric, kernel,
                                      path="eigen", seed=seed)
    Kq = dirichlet.assemble_generator(built.directions, built.metric, kernel,
                                      path="quadrature", seed=seed)
    dev = float(abs(Ke.matrix - Kq.matrix).max())
    checks = [{**vars(c), "passed": c.passed} for c in rep.checks]
    checks += [{"name": "eigen_vs_quadrature", "residual": dev, "tol": 1e-6,
                "margin": 0, "note": "", "passed": dev <= 1e-6},
               {"name": "kms_symmetry", "residual": Ke.sym_residual,
                "tol": dirichlet.SYMMETRY_TOL, "margin": 0, "note": "",
                "passed": Ke.symmetric_in_metric}]
    return Run({"checks": checks,
                "truncation": vars(TruncationReport.measure(n_max))},
               all(c["passed"] for c in checks))


def _gap(n_max, spec, p, kernel, seed):
    built = _directed(spec)
    K = dirichlet.assemble_generator(built.directions, built.metric, kernel,
                                     seed=seed)
    rep = analysis.spectral_gap(K, k=p["k"])
    n_sites = spec.lattice.n_sites
    # the ladder span carries the bottom of the spectrum only for the
    # one-site mean-field mode; elsewhere its eigenvalues bound the gap
    role = "gap" if spec.kind == "mean_field" and n_sites == 1 else "upper_bound"
    return Run({"gap": {**vars(rep), "clean_gap_role": role, "metadata": {
        **rep.metadata, "model": spec.kind, "n_sites": n_sites, "n_max": n_max}}},
        rep.gap >= 0 and rep.unit_kernel_residual <= 1e-10)


def _scaling(n_max, spec, p, kernel, seed):
    rep = analysis.rayleigh_scaling(p["kind"], p["test"], p["sizes"],
                                    n_max=n_max, beta=p["beta"], kernel=kernel,
                                    params=p["model_params"], pad=p["pad"])
    lo, hi = p["exponent_range"]
    return Run({"scaling": vars(rep)},
               lo <= rep.exponent <= hi and rep.e_over_boundary_spread < 0.10,
               [("size", "energy", "variance", "ratio"),
                *zip(rep.sizes, rep.energies, rep.variances, rep.ratios)])


def _heat(n_max, spec, p, kernel, seed):
    rep = analysis.heat_comparison(_directed(spec), kernel=kernel,
                                   t_grid=tuple(p["t_grid"]), seed=seed)
    return Run({
        "heat": {k: v for k, v in vars(rep).items()
                 if k not in ("restriction", "semigroup")},
        # the clean quantities are cutoff-exact by construction; the raw
        # deviations above are the truncation-sensitivity signal
        "truncation_sensitivity": {
            "note": "clean quantities are cutoff-exact; see "
                    "full_semigroup_deviation / raw_span_residual"}},
        rep.span_residual <= 1e-9 and rep.restriction_deviation <= 1e-8
        and rep.trajectory_deviation <= 1e-6,
        meta={"semigroup": rep.semigroup})


def _decay(n_max, spec, p, kernel, seed):
    rep = analysis.polynomial_decay_probe(
        tuple(p["lengths"]), beta=p["beta"], kernel=kernel,
        cross_check_length=p["cross_check_length"],
        cross_check_n_max=p["cross_check_n_max"], seed=seed)
    cc = rep.cross_check
    return Run({
        "decay": {"lengths": rep.lengths, "slopes": rep.slopes,
                  "windows": rep.windows, "t0_check": rep.t0_check,
                  "cross_check_trajectory_deviation":
                      cc.trajectory_deviation if cc else None,
                  "cross_check_full_semigroup_deviation":
                      cc.full_semigroup_deviation if cc else None,
                  "metadata": rep.metadata},
        "truncation_sensitivity": {
            "note": "ring slopes run in cutoff-free coefficient space; the "
                    "cross-check's clean quantities are cutoff-exact"}},
        all(abs(s + 0.5) <= 0.15 for s in rep.slopes)
        and (cc is None or cc.trajectory_deviation <= 1e-6),
        [("length", "slope", "window_lo", "window_hi"),
         *((L, s, w[0], w[1]) for L, s, w in
           zip(rep.lengths, rep.slopes, rep.windows))],
        {"semigroup": cc.semigroup if cc else None})


def _light_cone_bytes(n_max, spec, p):
    length = p["chain_length"]
    return (max(analysis.lieb_robinson_bytes(length, n)
                for n in (n_max, n_max + 1)),
            f"sector blocks, chain {length}, n_max {n_max} and {n_max + 1}")


def _light_cone(n_max, spec, p, kernel, seed):
    rep = analysis.lieb_robinson_probe(
        chain_length=p["chain_length"], n_max=n_max, lam=p["lambda"],
        epsilon=p["epsilon"], beta=p["beta"], t_grid=tuple(p["t_grid"]))
    fit = {"D": rep.fit_D, "C": rep.fit_C, "m": rep.fit_m}
    return Run({"lieb_robinson": {
        "fit": fit, **{k: v for k, v in vars(rep).items()
                       if k not in ("fit_D", "fit_C", "fit_m", "sectors")}}},
        rep.fit_m > 0 and rep.bound_ok and rep.t0_max <= 1e-12,
        [("t", "distance", "commutator_norm"),
         *((float(t), int(d), float(rep.B[it, d]))
           for it, t in enumerate(rep.t_grid) for d in rep.distances)],
        {"lieb_robinson_sectors": rep.sectors})


def _bogolubov(n_max, spec, p, kernel, seed):
    poly, nmax_list = bogolubov.number_polynomial, p["n_max_list"]
    residuals = [bogolubov.quasi_invariance_rep(
        poly(), bogolubov.BogolubovParams.boost, poly(), p["s"], nm,
        seed=seed).unitarity_residual for nm in nmax_list]
    monotone = all(a >= b - 1e-12 for a, b in zip(residuals, residuals[1:]))
    return Run({"bogolubov": {"s": p["s"], "n_max_list": nmax_list,
                              "unitarity_residuals": residuals,
                              "monotone": monotone}},
               monotone,
               [("n_max", "unitarity_residual"), *zip(nmax_list, residuals)])


EXPERIMENTS = {
    "verify": Experiment(
        {}, _verify, model=True, budget=_superoperator_bytes,
        rerun=lambda s: {"worst_residual": max(c["residual"] for c in s["checks"]),
                         "all_passed": all(c["passed"] for c in s["checks"])}),
    "gap": Experiment(
        {"k": 8}, _gap, model=True, budget=_superoperator_bytes,
        rerun=lambda s: {k: s["gap"][k] for k in (
            "gap", "kernel_dim", "clean_gap", "clean_gap_role",
            "clean_eigenvalues", "clean_span_residual")}),
    "scaling": Experiment(
        {"sizes": [3, 4, 5, 6, 7, 8], "kind": "z_power", "test": "sum_adag",
         "n_max": 1, "beta": 1.0, "model_params": {"n": 1, "m": 1, "half": True},
         "pad": 1, "exponent_range": [-1.1, -0.9]},
        _scaling, rerun=lambda s: {"exponent": s["scaling"]["exponent"]}),
    "heat": Experiment({"t_grid": [0.2, 0.5, 1.0, 2.0]}, _heat, model=True,
                       budget=_superoperator_bytes),
    "decay": Experiment({"lengths": [16], "beta": 1.0, "cross_check_length": 4,
                         "cross_check_n_max": 2}, _decay),
    "lieb-robinson": Experiment(
        {"chain_length": 5, "n_max": 2, "lambda": 0.5, "epsilon": 1.0,
         "beta": 1.0, "t_grid": [0.25, 0.5, 0.75, 1.0, 1.5]},
        _light_cone, budget=_light_cone_bytes,
        rerun=lambda s: {"fit": s["lieb_robinson"]["fit"]}),
    "bogolubov": Experiment({"s": 0.1, "n_max_list": [4, 6, 8]}, _bogolubov),
}

_JSON_TYPES = ((bool, "boolean"), (int, "integer"), (float, "number"),
               (str, "string"), (list, "array"), (dict, "object"))


def _param_schema(default, nullable: bool = False) -> dict:
    """The JSON-schema type of an experiment param, from its default's; an
    array param must be nonempty."""
    kind = next(name for cls, name in _JSON_TYPES if isinstance(default, cls))
    schema = {"type": [kind, "null"] if nullable else kind}
    if kind == "array":
        schema.update(items=_param_schema(default[0]), minItems=1)
    return schema


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
        "experiment": {"enum": list(EXPERIMENTS)},
        "model": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "lattice"],
            "properties": {
                "kind": {"enum": list(models.KINDS)},
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
    # each experiment admits exactly the params of its table entry, each
    # typed like its default; a null cross_check_length skips the check
    "allOf": [{"if": {"properties": {"experiment": {"const": name}}},
               "then": {"properties": {"params": {
                   "additionalProperties": False,
                   "properties": {key: _param_schema(
                       default, nullable=key == "cross_check_length")
                       for key, default in exp.params.items()}}}}}
              for name, exp in EXPERIMENTS.items()],
}

# built once: jsonschema.validate would check the schema on every call.
# The draft's "integer" admits integral floats such as 4.0, which the runs
# cannot use as counts or sizes; here it admits Python ints only.
_DRAFT = jsonschema.validators.validator_for(CONFIG_SCHEMA)
_VALIDATOR = jsonschema.validators.extend(_DRAFT, type_checker=(
    _DRAFT.TYPE_CHECKER.redefine("integer", lambda _, x: isinstance(x, int)
                                 and not isinstance(x, bool))))(CONFIG_SCHEMA)


def load_config(path: str) -> dict:
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    err = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(cfg))
    if err is not None:
        loc = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ValueError(f"{path}: field {loc}: {err.message}") from err
    return cfg


def _model_from(cfg: dict, nmax_override: int | None) -> ModelSpec | None:
    """The spec of the `model` block, or None if the experiment reads none;
    a block the experiment does not read is still validated."""
    name, mcfg = cfg["experiment"], cfg.get("model")
    reads_model = EXPERIMENTS[name].model
    if reads_model and mcfg is None:
        raise ConfigError(f"the {name!r} experiment needs a model block")
    if nmax_override is not None and not reads_model:
        raise ConfigError(f"--nmax-override does not apply to the {name!r} "
                          "experiment: it reads no model block")
    if mcfg is None:
        return None
    lattice = dict(mcfg["lattice"])
    if nmax_override is not None:
        lattice["n_max"] = nmax_override
    spec = _spec(**{**mcfg, "lattice": lattice})
    return spec if reads_model else None


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
    budget_mb = _budget_mb(budget_mb)
    seed = cfg.get("seed", 0) if seed is None else seed
    kernel = kernels.AdmissibleKernel(**cfg.get("kernel", {}))
    exp = EXPERIMENTS[cfg["experiment"]]
    spec = _model_from(cfg, nmax_override)
    p = {**exp.params, **cfg.get("params", {})}
    n_max = spec.lattice.n_max if spec else p.get("n_max")

    if exp.budget:
        need, what = exp.budget(n_max, spec, p)
        if need > budget_mb * 2 ** 20:
            raise BudgetError(f"estimated {need / 2**20:.0f} MiB exceeds budget "
                              f"{budget_mb} MiB ({what})")
    runs = [exp.run(n_max, spec, p, kernel, seed)]
    sections = dict(runs[0].sections)
    if exp.rerun:
        deeper = spec and replace(spec, lattice=replace(spec.lattice,
                                                        n_max=n_max + 1))
        runs.append(exp.run(n_max + 1, deeper, p, kernel, seed))
        sections["truncation_sensitivity"] = {
            "n_max": n_max + 1, **exp.rerun(runs[1].sections)}

    report = _jsonable({
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg["experiment"],
        "seed": seed,
        "kernel": asdict(kernel),
        "sign_convention": "assembled generator is -L (PSD); P_t = exp(-t(-L))",
        **sections,
        "passed": runs[0].passed})
    # sidecar facts, kept out of the report: one value per run
    meta = {k: [r.meta[k] for r in runs] for k in runs[0].meta or {}}
    _write_outputs(cfg, report, runs[0].csv_rows, out_dir, meta)
    return (0 if report["passed"] else 1), report


def _budget_mb(budget_mb) -> int:
    """The memory budget in MiB: `budget_mb` (--budget-mb), else BUDGET_ENV,
    else DEFAULT_BUDGET_MB; anything but a positive integer is a ConfigError."""
    source = "--budget-mb"
    if budget_mb is None:
        source, budget_mb = BUDGET_ENV, os.environ.get(BUDGET_ENV,
                                                       str(DEFAULT_BUDGET_MB))
    if not str(budget_mb).isdecimal() or int(budget_mb) < 1:
        raise ConfigError(f"{source} must be a positive integer (MiB), "
                          f"got {budget_mb!r}")
    return int(budget_mb)


def _write_outputs(cfg: dict, report: dict, csv_rows, out_dir: str,
                   meta: dict):
    out = cfg.get("output", {})
    outp = Path(out_dir)
    outp.mkdir(parents=True, exist_ok=True)
    json_name = out.get("json", "report.json")
    path = outp / json_name
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
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
    # LinAlgError is a ValueError: numerical failures are caught first, and
    # every other ValueError is an input the run refused
    except (dirichlet.KrylovError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
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
    for flag, value, low in (("--seed", args.seed, 0), ("--jobs", args.jobs, 1)):
        if value is not None and value < low:
            print(f"config error: {flag} must be an integer >= {low}, got "
                  f"{value}", file=sys.stderr)
            return 2

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
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            statuses = list(pool.map(_run_one, jobs))
    else:
        statuses = [_run_one(j) for j in jobs]
    return max(statuses, default=0)


if __name__ == "__main__":
    sys.exit(main())
