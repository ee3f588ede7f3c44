"""Tests of the benchmark's own checks and tracer.

Each checker must accept a real report and flag the same report after one
field was corrupted on purpose.  The reports come from running the program
on the benchmark's configs, some shrunk to keep this file fast.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import copy
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from fockdirichlet import LatticeConfig, cli, fock, models  # noqa: E402

SEED = 7


def _configs():
    cfgs = dict(workloads.build(ROOT, "assembly") + workloads.build(ROOT, "heat"))
    aij = dict(workloads.build(ROOT, "scaling"))["scaling_aij"]
    aij["params"]["sizes"] = [3, 4, 5]
    cfgs["scaling_aij"] = aij
    lc = dict(workloads.build(ROOT, "light-cone"))["lieb_robinson_chain4"]
    lc["params"]["n_max"] = 2
    cfgs["lieb_robinson_chain4"] = lc
    return cfgs


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("reports")
    result = {}
    for stem, cfg in _configs().items():
        status, _ = cli.run_scenario(cfg, out_dir=str(out), seed=SEED)
        assert status == 0, stem
        result[stem] = (cfg, json.loads((out / cfg["output"]["json"]).read_text()))
    return result


def _set(report, path, fn):
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = fn(node[path[-1]])


def _bump(x):
    return x * (1 + 1e-6)


CORRUPTIONS = [
    ("verify_mean_field", ("checks",), lambda cs: [
        dict(c, residual=1e-3) if c["name"] == "eigen_vs_quadrature" else c
        for c in cs]),
    ("verify_mean_field", ("truncation_sensitivity", "all_passed"), lambda x: False),
    ("gap_mean_field", ("gap", "clean_gap"), _bump),
    ("gap_mean_field", ("truncation_sensitivity", "clean_gap"), _bump),
    ("gap_mean_field", ("truncation_sensitivity", "gap"), lambda x: 0.7),
    ("gap_mean_field", ("gap", "kernel_dim"), lambda x: 2),
    ("bogolubov_boost", ("bogolubov", "unitarity_residuals"), lambda r: r[::-1]),
    ("heat_ring4", ("heat", "C_predicted"), _bump),
    ("heat_box2x2", ("heat", "restriction_eigenvalues", -1), lambda x: x + 1e-6),
    ("heat_chain3", ("heat", "restriction_eigenvalues"), lambda r: r[:-1] + [0.0]),
    ("heat_chain2", ("heat", "span_residual"), lambda x: 1e-6),
    ("decay_ring16", ("decay", "slopes", 0), lambda x: x + 1e-6),
    ("decay_ring16", ("decay", "windows", 0, 1), _bump),
    ("scaling_aij", ("scaling", "exponent"), lambda x: -0.8),
    ("scaling_aij", ("truncation_sensitivity", "exponent"), lambda x: -1.2),
    ("scaling_aij", ("scaling", "boundary_counts", -1), lambda x: x + 1),
    ("scaling_aij", ("scaling", "ratios", 0), _bump),
    ("lieb_robinson_chain4", ("lieb_robinson", "B", -1, 1), _bump),
    ("lieb_robinson_chain4", ("lieb_robinson", "short_time_ratio"), lambda x: 1.02),
    ("lieb_robinson_chain4", ("lieb_robinson", "t0_max"), lambda x: 1e-10),
    ("lieb_robinson_chain4", ("lieb_robinson", "bound_ok"), lambda x: False),
    ("heat_ring4", ("seed",), lambda x: x + 1),
    ("heat_ring4", ("passed",), lambda x: False),
]


def test_every_report_passes(reports):
    for stem, (cfg, report) in reports.items():
        assert checks.check(cfg, report, SEED) == [], stem


@pytest.mark.parametrize("stem,path,fn", CORRUPTIONS,
                         ids=[f"{s}:{'/'.join(map(str, p))}" for s, p, _ in CORRUPTIONS])
def test_corrupted_report_is_flagged(reports, stem, path, fn):
    cfg, report = reports[stem]
    bad = copy.deepcopy(report)
    _set(bad, path, fn)
    assert bad != report
    assert checks.check(cfg, bad, SEED)


def test_every_experiment_is_corrupted_somewhere(reports):
    corrupted = {reports[stem][0]["experiment"] for stem, _, _ in CORRUPTIONS}
    assert corrupted == set(checks.CHECKERS)


def test_laplacian_spectra():
    assert checks.laplacian_spectrum(
        {"dims": 2, "extent": 2, "geometry": "box"}) == pytest.approx([0, 2, 2, 4])
    assert checks.laplacian_spectrum(
        {"dims": 1, "extent": 3, "geometry": "chain"}) == pytest.approx([0, 1, 3])
    assert checks.laplacian_spectrum(
        {"dims": 1, "extent": 4, "geometry": "cycle"}) == pytest.approx([0, 2, 2, 4])


def test_tracer_counts_nested_calls_and_restores():
    originals = (fock.embed, fock.site_operator, models.site_operator,
                 fock.LatticeOperator.__add__)
    lat = LatticeConfig(1, 2, "chain", 1.0, 2)
    tr = tracer.Tracer()
    with tr.installed():
        op = fock.site_operator(lat, "a", 0) + models.site_operator(lat, "a", 1)
    m = tr.metrics()
    assert m["fock.site_operator.calls"]["value"] == 2
    assert m["fock.embed.calls"]["value"] == 2
    assert m["fock.add.calls"]["value"] == 1
    site = m["fock.site_operator.s"]["value"]
    embed = m["fock.embed.s"]["value"]
    assert m["fock.site_operator.self_s"]["value"] == pytest.approx(site - embed)
    assert op.matrix.nnz == 2 * 3 * 2
    assert (fock.embed, fock.site_operator, models.site_operator,
            fock.LatticeOperator.__add__) == originals
