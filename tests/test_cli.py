import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from fockdirichlet import (AdmissibleKernel, LatticeConfig, ModelSpec,
                           assemble_generator, build_model, models,
                           spectral_gap)
from fockdirichlet.cli import (CONFIG_SCHEMA, EXPERIMENTS, load_config, main,
                               run_scenario)
from fockdirichlet.dirichlet import KrylovError

SCENARIOS = Path(__file__).parents[1] / "scenarios"


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "schema_version": 1,
        "experiment": "verify",
        "model": {
            "kind": "mean_field",
            "lattice": {"dims": 1, "extent": 1, "geometry": "chain",
                        "n_max": 3},
            "beta": 1.0,
        },
        "kernel": {"kappa": 0.0, "n": 1, "sigma": 0.0},
        "seed": 7,
        "output": {"json": "report.json"},
    }
    cfg.update(overrides)
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def read_report(path):
    """A report as JSON; NaN and +-Infinity, which JSON does not admit, fail."""
    def refuse(name):
        raise ValueError(f"{path} holds {name}, which is not valid JSON")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


def test_read_report_refuses_non_json_numbers(tmp_path):
    for text in ('{"residual": NaN}', '{"x": [Infinity]}', '{"x": -Infinity}'):
        (tmp_path / "r.json").write_text(text)
        with pytest.raises(ValueError, match="not valid JSON"):
            read_report(tmp_path / "r.json")
    (tmp_path / "r.json").write_text('{"residual": 1e-300}')
    assert read_report(tmp_path / "r.json") == {"residual": 1e-300}


def test_verify_scenario_passes(tmp_path):
    cfg = load_config(str(write_config(tmp_path)))
    status, report = run_scenario(cfg, out_dir=str(tmp_path / "out"))
    assert status == 0
    assert report["passed"]
    data = read_report(tmp_path / "out" / "report.json")
    assert data["experiment"] == "verify"
    assert all(c["passed"] for c in data["checks"])
    # timestamp lives in the sidecar, not the report
    assert "timestamp" not in data
    assert (tmp_path / "out" / "report.json.meta.json").exists()


def test_schema_rejects_unknown_fields(tmp_path):
    p = write_config(tmp_path, name="bad.json")
    cfg = json.loads(p.read_text())
    cfg["unexpected"] = 1
    p.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match="unexpected"):
        load_config(str(p))


def test_schema_reports_field_path(tmp_path):
    p = write_config(tmp_path, name="bad2.json")
    cfg = json.loads(p.read_text())
    cfg["model"]["lattice"]["n_max"] = 0
    p.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match="n_max"):
        load_config(str(p))


def test_malformed_json_exit_code(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["--config", str(p), "--out", str(tmp_path)]) == 2


def test_budget_refusal(tmp_path):
    p = write_config(tmp_path, name="big.json")
    cfg = json.loads(p.read_text())
    cfg["model"]["lattice"] = {"dims": 1, "extent": 8, "geometry": "chain",
                               "n_max": 4}
    p.write_text(json.dumps(cfg))
    assert main(["--config", str(p), "--out", str(tmp_path),
                 "--budget-mb", "64"]) == 3


def test_lieb_robinson_budget_refusal(tmp_path, monkeypatch):
    from fockdirichlet import analysis

    def probe(*args, **kwargs):
        raise AssertionError("the probe ran on an over-budget config")

    monkeypatch.setattr(analysis, "lieb_robinson_probe", probe)
    p = tmp_path / "lr6.json"
    p.write_text(json.dumps({"schema_version": 1, "experiment": "lieb-robinson",
                             "params": {"chain_length": 6, "n_max": 3}}))
    assert main(["--config", str(p), "--out", str(tmp_path),
                 "--budget-mb", "1"]) == 3


def test_shipped_lieb_robinson_scenario(tmp_path):
    cfg = load_config(str(Path(__file__).parents[1] / "scenarios"
                          / "lieb_robinson_chain5.json"))
    status, report = run_scenario(cfg, out_dir=str(tmp_path))
    assert status == 0
    assert report["passed"]
    assert report["truncation_sensitivity"]["n_max"] == 3
    # the probe's block structure goes to the sidecar, not the report
    meta = json.loads((tmp_path / "lieb_robinson_report.json.meta.json")
                      .read_text())
    assert meta["lieb_robinson_sectors"] == [
        {"n_max": 2, "count": 11, "largest": 51, "dim": 243},
        {"n_max": 3, "count": 16, "largest": 155, "dim": 1024}]
    assert "sectors" not in json.dumps(report)


def test_nmax_override(tmp_path):
    cfg = load_config(str(write_config(tmp_path)))
    status, report = run_scenario(cfg, out_dir=str(tmp_path / "o"),
                                  nmax_override=2)
    assert status == 0
    assert report["truncation"]["n_max"] == 2


@pytest.mark.parametrize("stem", ["scaling_z", "decay_ring16",
                                  "lieb_robinson_chain5", "bogolubov_boost"])
def test_nmax_override_without_model_block_exits_2(tmp_path, stem, capsys):
    out = tmp_path / "out"
    assert main(["--config", str(SCENARIOS / f"{stem}.json"), "--out",
                 str(out), "--nmax-override", "2"]) == 2
    assert "--nmax-override" in capsys.readouterr().err
    assert not out.exists()


def test_scaling_cutoff_comes_from_params_not_model_block(tmp_path):
    cfg = load_config(str(write_config(
        tmp_path, experiment="scaling", params={"sizes": [3, 4]})))
    status, report = run_scenario(cfg, out_dir=str(tmp_path / "out"))
    assert status == 0
    assert cfg["model"]["lattice"]["n_max"] == 3
    assert report["scaling"]["metadata"]["n_max"] == 1
    assert report["truncation_sensitivity"]["n_max"] == 2


def test_nmax_override_on_unread_model_block_exits_2(tmp_path, capsys):
    # decay carries its cutoffs in params; its model block is not read
    p = write_config(tmp_path, experiment="decay", params={"lengths": [8]})
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out),
                 "--nmax-override", "2"]) == 2
    assert "--nmax-override" in capsys.readouterr().err
    assert not out.exists()


def test_nmax_override_through_main(tmp_path):
    assert main(["--config", str(write_config(tmp_path)), "--out",
                 str(tmp_path / "o"), "--nmax-override", "2"]) == 0
    data = read_report(tmp_path / "o" / "report.json")
    assert data["truncation"]["n_max"] == 2
    assert data["truncation_sensitivity"]["n_max"] == 3


def test_shipped_scaling_decade_scenario(tmp_path):
    assert main(["--config", str(SCENARIOS / "scaling_z_decade.json"),
                 "--out", str(tmp_path)]) == 0
    data = read_report(tmp_path / "scaling_z_decade_report.json")
    assert data["scaling"]["sizes"] == [8, 16, 32, 64, 128]
    assert abs(data["scaling"]["exponent"] + 1) <= 1e-10
    assert abs(data["truncation_sensitivity"]["exponent"] + 1) <= 1e-10


def test_gap_clean_gap_role(tmp_path):
    # on the 3-site z_power cycle at n_max 2 the clean gap lies far above
    # the raw gap; the report's n_max 3 rerun there is a 34 s dense eigh,
    # so the report is read on the 2-site chain of the same model
    lat = LatticeConfig(1, 3, "cycle", 1.0, 2)
    built = build_model(ModelSpec("z_power", lat))
    rep = spectral_gap(assemble_generator(built.directions, built.metric,
                                          AdmissibleKernel()))
    assert rep.clean_gap > 3 * rep.gap
    model = {"kind": "z_power", "beta": 1.0,
             "lattice": {"dims": 1, "extent": 2, "geometry": "chain",
                         "n_max": 2}}
    cfg = load_config(str(write_config(tmp_path, experiment="gap",
                                       model=model)))
    status, report = run_scenario(cfg, out_dir=str(tmp_path / "z"))
    assert status == 0
    assert report["gap"]["clean_gap"] > report["gap"]["gap"]
    assert report["gap"]["clean_gap_role"] == "upper_bound"
    assert report["truncation_sensitivity"]["clean_gap_role"] == "upper_bound"
    cfg = load_config(str(SCENARIOS / "gap_mean_field.json"))
    status, report = run_scenario(cfg, out_dir=str(tmp_path / "mf"))
    assert status == 0
    assert report["gap"]["clean_gap_role"] == "gap"
    assert report["truncation_sensitivity"]["clean_gap_role"] == "gap"


def test_scaling_scenario_csv(tmp_path):
    p = write_config(
        tmp_path, name="scal.json", experiment="scaling",
        params={"sizes": [3, 4, 5], "kind": "z_power", "test": "sum_adag",
                "model_params": {"n": 1, "m": 1, "half": True}},
        output={"json": "scal.json", "csv": "scal.csv"})
    del_cfg = json.loads(p.read_text())
    del del_cfg["model"]
    p.write_text(json.dumps(del_cfg))
    cfg = load_config(str(p))
    status, report = run_scenario(cfg, out_dir=str(tmp_path / "out"))
    assert status == 0
    lines = (tmp_path / "out" / "scal.csv").read_text().strip().splitlines()
    assert lines[0] == "size,energy,variance,ratio"
    assert len(lines) == 4


def test_determinism_byte_identical(tmp_path):
    # the gap run's n_max + 1 rerun (D^2 = 256) takes the shift-invert path
    gap = {"experiment": "gap", "params": {"k": 8}, "model": {
        "kind": "z_power", "beta": 1.0,
        "lattice": {"dims": 1, "extent": 2, "geometry": "chain", "n_max": 2}}}
    for name, overrides in (("verify", {}), ("gap", gap)):
        p = write_config(tmp_path, name=f"{name}.json", **overrides)
        for d in ("r1", "r2"):
            assert main(["--config", str(p), "--out", str(tmp_path / name / d),
                         "--seed", "99"]) == 0
        b1 = (tmp_path / name / "r1" / "report.json").read_bytes()
        b2 = (tmp_path / name / "r2" / "report.json").read_bytes()
        assert b1 == b2, name


def test_manifest_jobs(tmp_path):
    c1 = write_config(tmp_path, name="c1.json",
                      output={"json": "r1.json"})
    c2 = write_config(tmp_path, name="c2.json",
                      output={"json": "r2.json"})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(["c1.json", "c2.json"]))
    assert main(["--manifest", str(manifest), "--out", str(tmp_path / "m"),
                 "--jobs", "2"]) == 0
    assert (tmp_path / "m" / "r1.json").exists()
    assert (tmp_path / "m" / "r2.json").exists()


def _child_env():
    """Environment for a child interpreter that imports the package this
    test imported."""
    import fockdirichlet
    src = str(Path(fockdirichlet.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_console_entry_point(tmp_path):
    p = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "fockdirichlet.cli", "--config", str(p),
         "--out", str(tmp_path / "cli_out")],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr


HEAVY_MODULES = ("scipy.integrate", "scipy.optimize", "scipy.special",
                 "scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph",
                 "concurrent.futures.process")

IMPORT_PROBE = """\
import json, sys
from fockdirichlet import cli
heavy = sys.argv[1].split(",")
after_import = [m for m in heavy if m in sys.modules]
scaling, *others = (cli.load_config(p) for p in sys.argv[3:])
scaling["params"]["sizes"] = [3, 4]
for cfg in (scaling, *others):
    assert cli.run_scenario(cfg, out_dir=sys.argv[2])[0] == 0
print(json.dumps([after_import, [m for m in heavy if m in sys.modules]]))
"""


def test_import_loads_only_what_every_run_calls(tmp_path):
    # module level holds numpy, scipy.sparse and jsonschema; the heavier
    # scipy modules and the process pool load at their call sites, which
    # the scaling, lieb-robinson and benchmark `assembly` runs (verify, gap
    # and bogolubov) never reach (test_manifest_jobs covers the pool)
    stems = ("scaling_aij", "lieb_robinson_chain5", "verify_mean_field",
             "gap_mean_field", "bogolubov_boost")
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, ",".join(HEAVY_MODULES),
         str(tmp_path), *(str(SCENARIOS / f"{s}.json") for s in stems)],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    after_import, after_runs = json.loads(proc.stdout.splitlines()[-1])
    assert after_import == []
    assert after_runs == []


def test_assertion_failure_exit_code(tmp_path):
    # an exponent band the flat-ratio model cannot satisfy
    p = write_config(
        tmp_path, name="fail.json", experiment="scaling",
        params={"sizes": [3, 4, 5], "kind": "z_power", "test": "sum_adag",
                "model_params": {"n": 1, "m": 1, "half": True},
                "exponent_range": [0.5, 1.0]},
        output={"json": "fail.json"})
    cfg = json.loads(p.read_text())
    del cfg["model"]
    p.write_text(json.dumps(cfg))
    assert main(["--config", str(p), "--out", str(tmp_path / "f")]) == 1
    data = read_report(tmp_path / "f" / "fail.json")
    assert data["passed"] is False


def test_budget_env_var(tmp_path, monkeypatch):
    p = write_config(tmp_path, name="env.json")
    cfg = json.loads(p.read_text())
    cfg["model"]["lattice"] = {"dims": 1, "extent": 8, "geometry": "chain",
                               "n_max": 4}
    p.write_text(json.dumps(cfg))
    monkeypatch.setenv("FOCKDIRICHLET_BUDGET_MB", "64")
    assert main(["--config", str(p), "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("env, flag", [
    ("abc", None), ("0", None), ("1.5", None), (None, "0"), (None, "-5"),
    ("64", "0")], ids=["env-abc", "env-0", "env-float", "flag-0", "flag-neg",
                       "flag-0-over-env"])
def test_budget_not_a_positive_integer_exits_2(tmp_path, capsys, monkeypatch,
                                               env, flag):
    p = write_config(tmp_path)
    if env is None:
        monkeypatch.delenv("FOCKDIRICHLET_BUDGET_MB", raising=False)
    else:
        monkeypatch.setenv("FOCKDIRICHLET_BUDGET_MB", env)
    out = tmp_path / "out"
    argv = ["--config", str(p), "--out", str(out)]
    assert main(argv + (["--budget-mb", flag] if flag else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "budget" in err.lower()
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--seed", "-1"), ("--jobs", "0"), ("--jobs", "-3")],
    ids=["seed-neg", "jobs-0", "jobs-neg"])
def test_seed_or_jobs_out_of_range_exits_2(tmp_path, capsys, flag, value):
    p = write_config(tmp_path)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([p.name]))
    out = tmp_path / "out"
    for source in (["--config", str(p)], ["--manifest", str(manifest)]):
        assert main(source + ["--out", str(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and flag in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()


def test_remaining_experiments_smoke(tmp_path):
    scenarios = {
        "gap": {"model": {"kind": "mean_field",
                          "lattice": {"dims": 1, "extent": 1,
                                      "geometry": "chain", "n_max": 4}}},
        "heat": {"model": {"kind": "z_power",
                           "lattice": {"dims": 1, "extent": 2,
                                       "geometry": "chain", "n_max": 2}},
                 "params": {"t_grid": [0.3, 1.0]}},
        "decay": {"params": {"lengths": [12], "cross_check_length": None}},
        "lieb-robinson": {"params": {"chain_length": 4, "n_max": 2,
                                     "t_grid": [0.3, 0.8]}},
        "bogolubov": {"params": {"s": 0.1, "n_max_list": [4, 6]}},
    }
    for name, extra in scenarios.items():
        cfg = {"schema_version": 1, "experiment": name, "seed": 3,
               "output": {"json": f"{name}.json", "csv": f"{name}.csv"}}
        cfg.update(extra)
        p = tmp_path / f"{name}.cfg.json"
        p.write_text(json.dumps(cfg))
        status = main(["--config", str(p), "--out", str(tmp_path / "smoke")])
        assert status == 0, name
        data = read_report(tmp_path / "smoke" / f"{name}.json")
        assert data["passed"], name
    data = read_report(tmp_path / "smoke" / "gap.json")
    for section in (data["gap"], data["truncation_sensitivity"]):
        assert section["clean_span_residual"] <= 1e-9
        assert len(section["clean_eigenvalues"]) == 3
        assert section["clean_gap"] == pytest.approx(
            2.0 * np.sinh(0.5) * AdmissibleKernel().fourier(0.0).real, abs=1e-10)


@pytest.mark.parametrize("experiment", ["heat", "decay"])
def test_heat_and_decay_assemble_with_the_run_seed(tmp_path, monkeypatch,
                                                   experiment):
    from fockdirichlet import analysis
    seeds = []
    real = analysis.assemble_generator

    def recording(*args, **kwargs):
        seeds.append(kwargs.get("seed"))
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "assemble_generator", recording)
    if experiment == "heat":
        model = {"kind": "z_power", "beta": 1.0,
                 "lattice": {"dims": 1, "extent": 2, "geometry": "chain",
                             "n_max": 2}}
        cfg = load_config(str(write_config(tmp_path, experiment="heat",
                                           model=model)))
    else:
        cfg = load_config(str(write_config(
            tmp_path, experiment="decay",
            params={"lengths": [8], "cross_check_length": 3})))
    status, report = run_scenario(cfg, out_dir=str(tmp_path / "out"), seed=5)
    assert status == 0
    assert report["seed"] == 5
    assert seeds == [5]


@pytest.mark.parametrize("experiment, params", [
    ("heat", {}), ("decay", {"lengths": [8], "cross_check_length": 3}),
    ("decay", {"lengths": [8], "cross_check_length": None})])
def test_heat_and_decay_sidecars_record_the_semigroup(tmp_path, experiment,
                                                      params):
    model = {"kind": "z_power", "beta": 1.0,
             "lattice": {"dims": 1, "extent": 2, "geometry": "chain",
                         "n_max": 2}}
    cfg = load_config(str(write_config(tmp_path, experiment=experiment,
                                       model=model, params=params)))
    status, report = run_scenario(cfg, out_dir=str(tmp_path / "out"))
    assert status == 0
    meta = json.loads((tmp_path / "out" / "report.json.meta.json").read_text())
    assert "krylov_steps" not in json.dumps(report)
    [facts] = meta["semigroup"]
    if params.get("cross_check_length", 1) is None:
        assert facts is None
        return
    assert set(facts) == {"block", "dim", "krylov_steps", "last_correction"}
    assert 0 < facts["block"] < facts["dim"]
    assert facts["krylov_steps"] > 1 and facts["last_correction"] <= 1e-10


# one misspelled param per experiment
MISSPELLED = {"verify": {"nmax": 3}, "gap": {"kk": 8},
              "scaling": {"size": [3, 4]}, "heat": {"tgrid": [0.3]},
              "decay": {"lenghts": [8]}, "lieb-robinson": {"chain_lenght": 4},
              "bogolubov": {"n_max_lst": [4, 6]}}


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_misspelled_param_exits_2(tmp_path, capsys, experiment):
    p = write_config(tmp_path, experiment=experiment,
                     params=MISSPELLED[experiment])
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "field params" in err and repr(next(iter(MISSPELLED[experiment]))) in err
    assert not out.exists()


@pytest.mark.parametrize("experiment, param", [
    (name, key) for name, exp in EXPERIMENTS.items()
    for key, default in exp.params.items() if isinstance(default, list)],
    ids=lambda x: x)
def test_empty_array_param_exits_2(tmp_path, capsys, experiment, param):
    # an empty list leaves the run nothing to check or fit: the schema
    # refuses it and names the field
    p = write_config(tmp_path, experiment=experiment, params={param: []})
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"field params/{param}:" in err
    assert not out.exists()


def _model(kind="z_power", n_max=2, **params):
    return {"kind": kind, "params": params,
            "lattice": {"dims": 1, "extent": 2, "geometry": "chain",
                        "n_max": n_max}}


@pytest.mark.parametrize("overrides", [
    {"experiment": "verify", "model": None},
    {"experiment": "gap", "model": None},
    {"experiment": "heat", "model": None},
    {"experiment": "verify", "model": _model("mean_field_n", n=1)},
    {"experiment": "scaling", "model": None, "params": {"kind": "z_powr"}},
    {"experiment": "heat", "model": _model("mean_field")},
    {"experiment": "heat", "model": _model(n_max=1)},
    {"experiment": "scaling", "model": None, "params": {"test": "sum_adg"}},
    {"experiment": "heat", "model": _model(), "params": {"edges": "ordred"}},
    {"experiment": "verify", "model": _model(mm=2)},
    {"experiment": "verify", "model": _model(edges="ordred")},
    {"experiment": "scaling", "model": None,
     "params": {"model_params": {"halff": True}}},
    {"experiment": "heat", "model": _model(n=2, m=2)},
    {"experiment": "heat", "model": {**_model(), "nu": 0.5}},
    {"experiment": "verify", "model": _model("z_field", kappa=1.0)},
    {"experiment": "verify", "model": _model(n=1.5)},
    {"experiment": "verify", "model": _model("zjk_quadratic", kappa=[1, 1, 1])},
    # models with no direction on the 2-site chain
    {"experiment": "gap", "model": _model("z_field", kappa=[1, 1, 1])},
    {"experiment": "verify", "model": _model("z_field", kappa=[1, 1, 1])},
    {"experiment": "verify",
     "model": _model("invariant_aij", sites_i=[5], sites_j=[1])},
    {"experiment": "gap",
     "model": _model("invariant_aij", sites_i=[-1], sites_j=[0])},
    {"experiment": "heat", "model": {**_model(), "lattice": {
        "dims": 1, "extent": 1, "geometry": "chain", "n_max": 2}}},
    {"experiment": "verify", "model": {
        **_model("invariant_aij", sites_i=[0], sites_j=[1]), "lattice": {
            "dims": 2, "extent": 2, "geometry": "box", "n_max": 2}}},
    {"experiment": "heat", "model": {**_model(), "lattice": {
        "dims": 1, "extent": [2, 2], "geometry": "chain", "n_max": 2}}},
    {"experiment": "gap", "model": {**_model("mean_field"), "nu": 0, "mu": 0}},
    # inputs the analysis routines refuse with a ValueError
    {"experiment": "lieb-robinson", "model": None,
     "params": {"chain_length": 3}},
    {"experiment": "lieb-robinson", "model": None, "params": {"n_max": 0}},
    {"experiment": "decay", "model": None, "params": {"lengths": [2]}},
    {"experiment": "decay", "model": None,
     "params": {"cross_check_n_max": 1}},
    {"experiment": "heat", "model": _model(), "params": {"t_grid": [-1.0]}},
    {"experiment": "scaling", "model": None, "params": {"sizes": [0, 3, 4]}},
    # a fit through fewer than two distinct sizes, and no eigenvalue asked
    {"experiment": "scaling", "model": None, "params": {"sizes": [3, 3]}},
    {"experiment": "scaling", "model": None, "params": {"sizes": [3]}},
    {"experiment": "gap", "params": {"k": 0}},
    {"experiment": "scaling", "model": None, "params": {
        "kind": "invariant_aij", "sizes": [3, 4],
        "model_params": {"sites_i": [0], "sites_j": [9]}}},
    {"experiment": "verify", "model": {**_model("zjk_quadratic"), "lattice": {
        "dims": 1, "extent": 1, "geometry": "chain", "n_max": 2}}},
    {"experiment": "verify", "model": _model("z_field", kappa=[1.0], xi=[0.0])},
    {"experiment": "verify", "model": _model("w_ops", ergodic_fix=True)},
    # a check whose margin 4 leaves no clean level at n_max 3
    {"experiment": "verify", "model": _model("g_model", n_max=3)},
    # experiment params of the wrong type
    {"experiment": "bogolubov", "model": None, "params": {"s": "x"}},
    {"experiment": "scaling", "model": None, "params": {"sizes": "abc"}},
    # integral floats in integer fields
    {"experiment": "lieb-robinson", "model": None,
     "params": {"chain_length": 4.0}},
    {"experiment": "scaling", "model": None, "params": {"sizes": [3.0, 4, 5]}},
    {"experiment": "heat", "model": _model(n_max=3.0)},
], ids=["verify-no-model", "gap-no-model", "heat-no-model",
        "mean_field_n-n1", "scaling-unknown-kind", "heat-mean_field",
        "heat-nmax1", "scaling-unknown-test", "heat-unknown-edges",
        "verify-unknown-model-param", "verify-unknown-model-edges",
        "scaling-unknown-model-param", "heat-model-params", "heat-model-nu",
        "z_field-scalar-kappa", "z_power-float-n", "zjk-kappa-length",
        "gap-z_field-no-direction", "verify-z_field-no-direction",
        "verify-aij-no-direction", "gap-aij-negative-site",
        "heat-one-site", "verify-aij-box", "heat-extent-length-not-dims",
        "gap-zero-weights", "lieb-robinson-chain3", "lieb-robinson-nmax0",
        "decay-length2", "decay-cross-check-nmax1", "heat-negative-time",
        "scaling-size0", "scaling-repeated-size", "scaling-one-size",
        "gap-k0", "scaling-aij-no-direction", "verify-zjk-one-site",
        "verify-z_field-zero-xi", "verify-w_ops-ergodic_fix",
        "verify-g_model-no-clean-level",
        "bogolubov-string-s", "scaling-string-sizes",
        "lieb-robinson-float-chain-length", "scaling-float-sizes",
        "heat-float-lattice-nmax"])
def test_config_the_run_cannot_use_exits_2(tmp_path, capsys, overrides):
    p = write_config(tmp_path, **overrides)
    cfg = json.loads(p.read_text())
    p.write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}))
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("model", [
    _model(half=True), _model(n=2), {**_model(), "nu": 2.0},
    _model("mean_field"), _model(n_max=1)],
    ids=["half", "n2", "nu2", "mean_field", "nmax1"])
def test_heat_refuses_a_model_outside_its_oracle(tmp_path, capsys,
                                                 monkeypatch, model):
    def no_assembly(*args, **kwargs):
        raise AssertionError("heat assembled a generator before refusing")
    monkeypatch.setattr("fockdirichlet.analysis.assemble_generator", no_assembly)
    p = write_config(tmp_path, experiment="heat", model=model)
    assert main(["--config", str(p), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: heat needs a z_power model")


def test_heat_reads_its_edges_from_the_model(tmp_path, capsys):
    model = _model(edges="unordered")
    p = write_config(tmp_path, experiment="heat", model=model,
                     params={"t_grid": [0.3, 1.0]})
    assert main(["--config", str(p), "--out", str(tmp_path / "out")]) == 0
    heat = read_report(tmp_path / "out" / "report.json")["heat"]
    # eta_hat(0) of write_config's kernel
    eta0 = AdmissibleKernel(kappa=0.0, n=1, sigma=0.0).fourier(0.0).real
    assert heat["C_predicted"] == pytest.approx(2 * eta0 * np.sinh(0.5),
                                                rel=1e-14)
    assert heat["metadata"]["edges"] == "unordered"
    # the experiment has no `edges` param of its own
    p = write_config(tmp_path, experiment="heat", model=_model(),
                     params={"edges": "unordered"})
    assert main(["--config", str(p), "--out", str(tmp_path / "out2")]) == 2
    err = capsys.readouterr().err
    assert "field params" in err and "'edges'" in err


@pytest.mark.parametrize("model", [
    _model("zjk_quadratic", kappa=1.0, eps=0.5),
    {**_model("invariant_aij", sites_i=[0], sites_j=[1]),
     "lattice": {"dims": 1, "extent": 3, "geometry": "chain", "n_max": 2}},
    _model("w_ops", selfadjoint=True)], ids=lambda m: m["kind"])
def test_verify_builds_each_model_once(tmp_path, monkeypatch, model):
    # the identity suite reads the model the run built: one build_model and
    # one gibbs_state call for the run and one for its n_max + 1 rerun
    counts = {"build_model": 0, "gibbs_state": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    for name in counts:
        monkeypatch.setattr(models, name, counted(name, getattr(models, name)))
    cfg = load_config(str(write_config(tmp_path, model=model)))
    status, report = run_scenario(cfg, out_dir=str(tmp_path / "out"))
    assert status == 0 and report["passed"]
    assert counts == {"build_model": 2, "gibbs_state": 2}


def test_component_limit_exits_2(tmp_path, capsys):
    # every zjk_quadratic direction splits into more modular components than
    # the scaling forms take
    p = write_config(tmp_path, experiment="scaling", model=None, params={
        "kind": "zjk_quadratic", "sizes": [2, 3], "n_max": 1,
        "model_params": {}})
    cfg = json.loads(p.read_text())
    p.write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}))
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "modular components" in err
    assert not out.exists()


def _failing(error):
    def failing(*args, **kwargs):
        raise error("did not converge")
    return failing


@pytest.mark.parametrize("experiment, model, patch, message", [
    ("heat", _model(), ("fockdirichlet.analysis.heat_comparison",
                        _failing(KrylovError)),
     "KrylovError: did not converge"),
    ("gap", _model(), ("fockdirichlet.analysis.spectral_gap",
                       _failing(np.linalg.LinAlgError)),
     "LinAlgError: did not converge"),
    # no patch: the n_max + 1 rerun's generator (max|K| 3e10) misses
    # SYMMETRY_TOL, so spectral_gap refuses it. The case relies on that
    # fixed bound (an open defect: it does not grow with the generator's
    # conditioning) and must be rewritten with another unflagged generator
    # once the bound does.
    ("gap", {**_model("zjk_quadratic", n_max=4), "beta": 2.0}, None,
     "LinAlgError: generator is not flagged KMS-symmetric (residual "),
    # a zero tolerance leaves the heat generator unflagged, and
    # semigroup_apply refuses it
    ("heat", _model(), ("fockdirichlet.dirichlet.SYMMETRY_TOL", 0.0),
     "LinAlgError: generator is not flagged KMS-symmetric (residual ")],
    ids=["heat-heat_comparison-KrylovError", "gap-spectral_gap-LinAlgError",
         "gap-zjk_quadratic-unflagged_rerun", "heat-unflagged"])
def test_numerical_failure_exits_4(tmp_path, capsys, monkeypatch, experiment,
                                   model, patch, message):
    if patch:
        monkeypatch.setattr(*patch)
    p = write_config(tmp_path, experiment=experiment, model=model)
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    if message.endswith("(residual "):
        # the residual in the message differs from run to run
        assert err.startswith(f"numerical failure: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == f"numerical failure: {message}\n"
    assert not out.exists()


def test_config_schema_is_valid():
    jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)


def test_shipped_configs_are_listed_and_load():
    manifest = json.loads((SCENARIOS / "manifest.json").read_text())
    shipped = sorted(p.name for p in SCENARIOS.glob("*.json")
                     if p.name != "manifest.json")
    assert sorted(manifest) == shipped
    for name in shipped:
        load_config(str(SCENARIOS / name))


def _perfbench(name: str):
    """A module of the benchmark harness, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", SCENARIOS.parent / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_workload_configs_load(tmp_path):
    root = SCENARIOS.parent
    workloads = _perfbench("workloads")
    for name in workloads.NAMES:
        for path in workloads.write(workloads.build(root, name), tmp_path / name):
            load_config(str(path))


def test_benchmark_trace_targets_resolve():
    # the traced benchmark run wraps these by name; a rename would drop them
    tracer = _perfbench("tracer")
    for mod, name in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"fockdirichlet.{mod}"),
                                name, None)), (mod, name)
    for mod, cls, name in tracer.METHODS:
        owner = getattr(importlib.import_module(f"fockdirichlet.{mod}"), cls)
        assert callable(vars(owner).get(name)), (mod, cls, name)


def test_benchmark_trace_reports_every_declared_metric(tmp_path):
    # one pass of every workload under the tracer yields each per-layer
    # metric the benchmark declares, except the two its runner adds itself;
    # a traced function left uncalled would be missing here
    from fockdirichlet import cli
    root = SCENARIOS.parent
    workloads, tracer = _perfbench("workloads"), _perfbench("tracer")
    tr = tracer.Tracer()
    with tr.installed():
        for name in workloads.NAMES:
            out = tmp_path / name
            for path in workloads.write(workloads.build(root, name),
                                        out / "configs"):
                status, _ = cli.run_scenario(cli.load_config(str(path)),
                                             out_dir=str(out), seed=1)
                assert status == 0, path.stem
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    metrics = tr.metrics()
    missing = [m["name"] for m in declared if m["name"] not in metrics
               and m["name"] not in ("src.lines", "trace.overhead_s")]
    assert missing == []


def test_formats_doc_lists_the_experiment_table():
    doc = (SCENARIOS.parent / "docs" / "formats.md").read_text()
    rows = {}
    for line in doc.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) == 4 and cells[0].strip("`") in EXPERIMENTS:
            params = {k: json.loads(v)
                      for k, v in re.findall(r"`(\w+): ([^`]+)`", cells[3])}
            rows[cells[0].strip("`")] = (cells[1], cells[2], params)
    assert rows == {name: ("yes" if exp.model else "no",
                           "yes" if exp.rerun else "no", exp.params)
                    for name, exp in EXPERIMENTS.items()}


def test_formats_doc_lists_the_model_kinds():
    doc = (SCENARIOS.parent / "docs" / "formats.md").read_text()
    rows = {}
    for line in doc.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) == 2 and cells[0].strip("`") in models.KINDS:
            rows[cells[0].strip("`")] = {
                k: json.loads(v)
                for k, v in re.findall(r"`(\w+): ([^`]+)`", cells[1])}
    assert rows == json.loads(json.dumps(models.KINDS))
