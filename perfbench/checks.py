"""Checks of scenario reports against quantities the benchmark computes
itself, with numpy and scipy only: kernel transform, graph-Laplacian
spectra, ring heat kernels by DFT, and the light-cone commutator from
mollified ladders built with `np.kron`.

`check(cfg, report, seed)` returns a list of problems; empty means correct.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm


def eta_hat0(kernel_cfg: dict | None) -> float:
    """eta_hat(0) = 1/(2n) sech(kappa/(4n)); the Gaussian factor is 1 at 0."""
    k = kernel_cfg or {}
    n, kappa = k.get("n", 1), k.get("kappa", 0.0)
    return 1.0 / (2 * n) / np.cosh(kappa / (4 * n))


def _close(a, b, rtol) -> bool:
    return abs(a - b) <= rtol * max(abs(b), 1e-300)


def path_laplacian(n: int) -> np.ndarray:
    adj = np.eye(n, k=1) + np.eye(n, k=-1)
    return np.diag(adj.sum(axis=1)) - adj


def laplacian_spectrum(lattice: dict) -> np.ndarray:
    """Graph-Laplacian eigenvalues of a nearest-neighbour lattice."""
    if lattice.get("neighbor_radius", 1.0) != 1.0:
        raise ValueError("only nearest-neighbour lattices are checked")
    ext = lattice["extent"]
    extents = ext if isinstance(ext, list) else [ext] * lattice["dims"]
    geometry = lattice["geometry"]
    if geometry == "cycle" and extents[0] > 2:
        L = extents[0]
        return np.sort(2 - 2 * np.cos(2 * np.pi * np.arange(L) / L))
    # chain and box: Kronecker sum of path Laplacians
    lap = np.zeros((1, 1))
    for e in extents:
        lap = np.kron(lap, np.eye(e)) + np.kron(np.eye(lap.shape[0]),
                                                path_laplacian(e))
    return np.sort(np.linalg.eigvalsh(lap))


def ring_decay_slope(L: int, C: float, n_t: int = 12) -> tuple[float, tuple]:
    """Log-log slope of sup_j |exp(-t C Lg) e_0| on the ring of length L over
    the window [1/C, L^2/(8C)], with the heat kernel summed by DFT."""
    lo, hi = 1.0 / C, L * L / (8.0 * C)
    ts = np.geomspace(lo, hi, n_t)
    lam = 2 - 2 * np.cos(2 * np.pi * np.arange(L) / L)
    sup = [np.max(np.abs(np.fft.ifft(np.exp(-t * C * lam)).real)) for t in ts]
    return float(np.polyfit(np.log(ts), np.log(sup), 1)[0]), (lo, hi)


def light_cone_entry(params: dict, t: float, bond: int) -> float:
    """||[Phi_bond, alpha_t(a_0)]||_2 on the mollified hopping chain."""
    L, n_max = params.get("chain_length", 5), params.get("n_max", 2)
    lam, eps = params.get("lambda", 0.5), params.get("epsilon", 1.0)
    beta = params.get("beta", 1.0)
    d = n_max + 1
    A = np.diag(np.sqrt(np.arange(1, d)), 1)
    a1 = np.diag(1.0 / (1.0 + eps * np.sqrt(np.arange(d)))) @ A
    a = [np.kron(np.kron(np.eye(d ** s), a1), np.eye(d ** (L - s - 1)))
         for s in range(L)]
    bonds = [lam * (a[j] @ a[j + 1].conj().T + a[j].conj().T @ a[j + 1])
             for j in range(L - 1)]
    Ut = expm(-1j * t * beta * sum(bonds))
    at = Ut @ a[0] @ Ut.conj().T
    phi = bonds[bond]
    return float(np.linalg.norm(phi @ at - at @ phi, 2))


# --------------------------------------------------------------------------
# one checker per experiment
# --------------------------------------------------------------------------

def _verify(cfg, rep):
    out = []
    evq = [c for c in rep["checks"] if c["name"] == "eigen_vs_quadrature"]
    if len(evq) != 1 or not evq[0]["residual"] <= 1e-6:
        out.append(f"eigen_vs_quadrature {evq} exceeds 1e-6")
    failed = [c["name"] for c in rep["checks"] if not c["passed"]]
    if failed:
        out.append(f"failed identity checks {failed}")
    if not rep["truncation_sensitivity"]["all_passed"]:
        out.append("checks fail at n_max + 1")
    return out


def _gap(cfg, rep):
    out = []
    beta = cfg["model"].get("beta", 1.0)
    oracle = 2 * eta_hat0(cfg.get("kernel")) * np.sinh(beta / 2)
    n_max = cfg["model"]["lattice"]["n_max"]
    runs = [(n_max, rep["gap"]), (n_max + 1, rep["truncation_sensitivity"])]
    for nm, g in runs:
        cg = g["clean_gap"]
        if cg is None or not _close(cg, oracle, 1e-10):
            out.append(f"n_max {nm}: clean_gap {cg} != 2 eta_hat(0) "
                       f"sinh(beta/2) = {oracle}")
        elif not g["gap"] >= cg - 1e-12:
            out.append(f"n_max {nm}: raw gap {g['gap']} below clean gap {cg}")
        if g["kernel_dim"] != 1:
            out.append(f"n_max {nm}: kernel_dim {g['kernel_dim']} != 1")
    if not runs[1][1]["gap"] < runs[0][1]["gap"]:
        out.append(f"raw gap does not fall from n_max {n_max} to {n_max + 1}")
    return out


def _bogolubov(cfg, rep):
    b = rep["bogolubov"]
    r = b["unitarity_residuals"]
    if b["n_max_list"] != cfg["params"]["n_max_list"] or len(r) != len(b["n_max_list"]):
        return ["n_max_list does not match the config"]
    if any(r[i + 1] > r[i] for i in range(len(r) - 1)):
        return [f"unitarity residuals {r} increase with n_max"]
    return []


def _heat(cfg, rep):
    out = []
    h = rep["heat"]
    beta = cfg["model"].get("beta", 1.0)
    mult = 4.0 if cfg.get("params", {}).get("edges", "ordered") == "ordered" else 2.0
    C = mult * eta_hat0(cfg.get("kernel")) * np.sinh(beta / 2)
    if not _close(h["C_predicted"], C, 1e-12):
        out.append(f"C_predicted {h['C_predicted']} != {C}")
    spec = C * laplacian_spectrum(cfg["model"]["lattice"])
    want = np.sort(np.concatenate([spec, spec]))
    got = np.sort(np.asarray(h["restriction_eigenvalues"], float))
    if got.shape != want.shape or np.max(np.abs(got - want)) > 1e-8 * max(1.0, want[-1]):
        out.append(f"restriction eigenvalues {got.tolist()} != C x Laplacian "
                   f"spectrum twice {want.tolist()}")
    if not h["span_residual"] <= 1e-9:
        out.append(f"span_residual {h['span_residual']} exceeds 1e-9")
    return out


def _decay(cfg, rep):
    out = []
    d = rep["decay"]
    params = cfg.get("params", {})
    C = 4 * eta_hat0(cfg.get("kernel")) * np.sinh(params.get("beta", 1.0) / 2)
    for L, slope, win in zip(d["lengths"], d["slopes"], d["windows"]):
        want, window = ring_decay_slope(L, C)
        if not np.allclose(win, window, rtol=1e-12, atol=0):
            out.append(f"ring {L}: window {win} != {window}")
        if abs(slope - want) > 1e-8:
            out.append(f"ring {L}: slope {slope} != DFT heat-kernel slope {want}")
        if abs(slope + 0.5) > 0.15:
            out.append(f"ring {L}: slope {slope} not within 0.15 of -1/2")
    if list(d["lengths"]) != list(params.get("lengths", [16])):
        out.append(f"lengths {d['lengths']} do not match the config")
    xdev = d["cross_check_trajectory_deviation"]
    if xdev is not None and not xdev <= 1e-6:
        out.append(f"cross-check trajectory deviation {xdev} exceeds 1e-6")
    return out


def _scaling(cfg, rep):
    out = []
    s = rep["scaling"]
    for label, e in (("n_max", s["exponent"]),
                     ("n_max + 1", rep["truncation_sensitivity"]["exponent"])):
        if not -1.1 <= e <= -0.9:
            out.append(f"exponent at {label} = {e} outside [-1.1, -0.9]")
    ratios = np.asarray(s["energies"]) / np.asarray(s["variances"])
    if not np.allclose(ratios, s["ratios"], rtol=1e-12, atol=0):
        out.append("ratios != energies / variances")
    fit = np.polyfit(np.log(s["sizes"]), np.log(ratios), 1)[0]
    if abs(fit - s["exponent"]) > 1e-9:
        out.append(f"exponent {s['exponent']} != log-log fit {fit}")
    if len(set(s["boundary_counts"])) != 1:
        out.append(f"boundary_counts {s['boundary_counts']} vary with size")
    if not s["e_over_boundary_spread"] < 0.1:
        out.append(f"e_over_boundary_spread {s['e_over_boundary_spread']} >= 0.1")
    return out


def _lieb_robinson(cfg, rep):
    out = []
    r = rep["lieb_robinson"]
    if r["bound_ok"] is not True:
        out.append("bound_ok is false")
    if not r["t0_max"] <= 1e-12:
        out.append(f"t0_max {r['t0_max']} exceeds 1e-12")
    if not abs(r["short_time_ratio"] - 1) <= 1e-2:
        out.append(f"short_time_ratio {r['short_time_ratio']} not within 1e-2 of 1")
    t_max = r["t_grid"][-1]
    want = light_cone_entry(cfg.get("params", {}), t_max, bond=1)
    got = r["B"][-1][1]
    if abs(got - want) > 1e-8:
        out.append(f"B(t={t_max}, d=1) = {got} != expm recomputation {want}")
    return out


CHECKERS = {"verify": _verify, "gap": _gap, "bogolubov": _bogolubov,
            "heat": _heat, "decay": _decay, "scaling": _scaling,
            "lieb-robinson": _lieb_robinson}


def check(cfg: dict, report: dict, seed: int) -> list[str]:
    out = []
    if report.get("passed") is not True:
        out.append("report says passed = false")
    if report.get("seed") != seed:
        out.append(f"report seed {report.get('seed')} != run seed {seed}")
    return out + CHECKERS[cfg["experiment"]](cfg, report)
