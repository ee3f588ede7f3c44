from functools import reduce
from operator import add

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from fockdirichlet import (AdmissibleKernel, DerivationDirection, LatticeConfig,
                           LatticeOperator, ModelSpec, assemble_generator,
                           build_model, clean_projector, graph_laplacian,
                           heat_comparison, identity_operator,
                           lieb_robinson_probe, polynomial_decay_probe,
                           rayleigh_scaling, site_operator, spectral_gap, unvec,
                           vec)
from fockdirichlet.analysis import (DENSE_GAP_LIMIT, _charge, _sector_blocks,
                                    direction_energies, ladder_span_restriction,
                                    sector_sizes, symmetrized_generator)
from fockdirichlet.dirichlet import CHECK_PAIRS, _verify_generator


# --------------------------------------------------------------------------
# spectral gaps
# --------------------------------------------------------------------------

def test_meanfield_gap_positive_and_kernel(kernel):
    lat = LatticeConfig(1, 1, "chain", 1.0, 4)
    built = build_model(ModelSpec("mean_field", lat))
    K = assemble_generator(built.directions, built.metric, kernel)
    rep = spectral_gap(K)
    assert rep.gap > 0
    assert rep.kernel_dim == 1
    assert rep.unit_kernel_residual < 1e-10
    assert rep.eigenvalues.min() > -1e-9


def _meanfield_gap_report(kernel, n_sites, n_max, beta):
    lat = LatticeConfig(1, n_sites, "chain", 1.0, n_max)
    built = build_model(ModelSpec("mean_field", lat, beta=beta))
    K = assemble_generator(built.directions, built.metric, kernel)
    return spectral_gap(K)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n_max", [2, 4, 6])
def test_meanfield_clean_gap_matches_ou_oracle(kernel, beta, n_max):
    # quantum Ornstein-Uhlenbeck low spectrum {0, C/2, C/2, ...} with
    # C/2 = 2 eta_hat(0) sinh(beta/2)
    half_C = 2.0 * kernel.fourier(0.0).real * np.sinh(beta / 2.0)
    rep = _meanfield_gap_report(kernel, 1, n_max, beta)
    assert rep.clean_span_residual <= 1e-9
    assert rep.clean_gap == pytest.approx(half_C, abs=1e-10)
    assert np.allclose(rep.clean_eigenvalues, [0.0, half_C, half_C],
                       atol=1e-10, rtol=0)


def test_meanfield_raw_gap_converges_to_oracle(kernel):
    half_C = 2.0 * kernel.fourier(0.0).real * np.sinh(0.5)
    rep = _meanfield_gap_report(kernel, 1, 20, 1.0)
    assert rep.gap == pytest.approx(half_C, abs=1e-6)


def test_clean_gap_none_without_invariant_span(kernel):
    # two interacting sites: the ladder span is not invariant
    rep = _meanfield_gap_report(kernel, 2, 3, 1.0)
    assert rep.clean_span_residual > 1e-9
    assert rep.clean_gap is None and rep.clean_eigenvalues is None
    # n_max = 1: the margin-1 clean block loses the ladder span
    rep = _meanfield_gap_report(kernel, 1, 1, 1.0)
    assert rep.clean_gap is None and rep.clean_span_residual is None


def test_dense_symmetrized_generator_matches_kron_reference(kernel):
    # G^(1/2) = kron(M^T, M) with M = rho^(1/4), on a non-diagonal and on a
    # diagonal state
    lat = LatticeConfig(1, 2, "chain", 1.0, 3)
    for kind, diagonal in (("mean_field", False), ("z_power", True)):
        built = build_model(ModelSpec(kind, lat))
        assert built.state.diagonal == diagonal
        K = assemble_generator(built.directions, built.metric, kernel)
        M, Minv = (sp.csr_matrix(built.state.power(z)).toarray()
                   for z in (0.25, -0.25))
        ref = np.kron(M.T, M) @ K.matrix.toarray() @ np.kron(Minv.T, Minv)
        S = symmetrized_generator(K)
        assert np.abs(S - ref).max() < 1e-12 * np.abs(ref).max()
        assert np.abs(S - S.conj().T).max() < 1e-9 * np.abs(ref).max()


def test_gap_requires_symmetry_flag(kernel):
    lat = LatticeConfig(1, 1, "chain", 1.0, 3)
    built = build_model(ModelSpec("mean_field", lat))
    K = assemble_generator(built.directions, built.metric, kernel)
    K.symmetric_in_metric = False
    with pytest.raises(np.linalg.LinAlgError, match="not flagged"):
        spectral_gap(K)


def test_selfadjoint_w_model_not_ergodic(kernel):
    lat = LatticeConfig(1, 2, "chain", 1.0, 2)
    built = build_model(ModelSpec("w_ops", lat,
                                  params={"n": 1, "m": 1, "selfadjoint": True}))
    K = assemble_generator(built.directions, built.metric, kernel)
    rep = spectral_gap(K)
    assert rep.kernel_dim > 1


@pytest.mark.parametrize("kind, params, nu, mu", [
    ("z_power", {"n": 1, "m": 1}, 1.0, 1.0),
    ("mean_field", {}, 0.7, 1.3),
    ("zjk_quadratic", {}, 0.7, 1.3)],
    ids=["z_power", "mean_field", "zjk_quadratic"])
def test_quadratic_form_matches_superoperator(kernel, rng, kind, params, nu, mu):
    from fockdirichlet import dirichlet_energy
    lat = LatticeConfig(1, 2, "chain", 1.0, 2)
    built = build_model(ModelSpec(kind, lat, nu=nu, mu=mu, params=params))
    K = assemble_generator(built.directions, built.metric, kernel)
    from conftest import random_op
    for _ in range(5):
        f = random_op(rng, lat)
        direct = sum(direction_energies(built.directions, built.metric, kernel, f))
        via_superop = dirichlet_energy(f, K)
        assert direct == pytest.approx(via_superop, abs=1e-9 * max(1, abs(via_superop)))


# --------------------------------------------------------------------------
# Rayleigh scaling
# --------------------------------------------------------------------------

def test_z_model_surface_volume_scaling(kernel):
    rep = rayleigh_scaling("z_power", "sum_adag", range(3, 9), n_max=1,
                           kernel=kernel, params={"n": 1, "m": 1, "half": True})
    assert -1.1 <= rep.exponent <= -0.9
    assert rep.e_over_boundary_spread < 0.10
    # energies stay flat (boundary pairs only), variances grow linearly
    assert max(rep.energies) / min(rep.energies) < 1.01
    v = np.asarray(rep.variances)
    assert np.allclose(v / v[0], np.asarray(rep.sizes) / rep.sizes[0], rtol=1e-10)


def test_aij_model_scaling(kernel):
    rep = rayleigh_scaling("invariant_aij", "sum_n", range(3, 9), n_max=1,
                           kernel=kernel,
                           params={"sites_i": [0], "sites_j": [1]})
    assert -1.1 <= rep.exponent <= -0.9
    assert rep.e_over_boundary_spread < 0.10


@pytest.mark.parametrize("beta", [1.0, 2.0])
@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_z_power_scaling_closed_form(kernel, n_max, beta):
    # boundary direction (A_j - A_k)/2 with k in the window: its derivations
    # against F = sum A*_j are 0 and -i/2 (headroom makes [A, A*] = 1 on the
    # working block), those of its adjoint vanish; interior ones cancel
    sizes, nu = [3, 4, 6, 9], 0.7
    rep = rayleigh_scaling("z_power", "sum_adag", sizes, n_max=n_max,
                           beta=beta, kernel=kernel, nu=nu,
                           params={"n": 1, "m": 1, "half": True})
    p = np.exp(-beta * np.arange(n_max + 1))
    p /= p.sum()
    v1 = sum((j + 1) * np.sqrt(p[j] * p[j + 1]) for j in range(n_max))
    assert rep.boundary_counts == [4] * len(sizes)
    E = 4 * nu * kernel.fourier(0.0).real / 4
    assert np.allclose(rep.energies, E, rtol=1e-12, atol=0)
    assert np.allclose(rep.variances, np.asarray(sizes) * v1, rtol=1e-12, atol=0)


def _full_lattice_scaling(kind, test, sizes, n_max, params, kernel, pad=1,
                          margin=1):
    """Energies, variances and boundary counts on the whole padded chain:
    directions and window sums on the lattice with `margin` levels of
    headroom, derivations compressed to the n_max block, KMS forms of the
    n_max state of the whole chain."""
    op = "adag" if test == "sum_adag" else "n"
    energies, variances, counts = [], [], []
    for n in sizes:
        chain = [LatticeConfig(1, n + 2 * pad, "chain", 1.0, levels)
                 for levels in (n_max + margin, n_max)]
        built, work = (build_model(ModelSpec(kind, lat, params=params))
                       for lat in chain)
        F, Fw = (reduce(add, (site_operator(lat, op, j)
                              for j in range(pad, pad + n))) for lat in chain)
        keep = np.flatnonzero(np.all(chain[0].occupations() <= n_max, axis=1))

        def headroom_delta(X, f):
            m = 1j * (X.matrix @ f.matrix - f.matrix @ X.matrix)
            return LatticeOperator(m.tocsr()[np.ix_(keep, keep)], frozenset(),
                                   chain[1])

        terms = direction_energies(built.directions, work.metric, kernel, F,
                                   headroom_delta)
        energies.append(sum(terms))
        variances.append(work.metric.variance(Fw))
        counts.append(sum(abs(c) > 1e-14 for c in terms))
    return energies, variances, counts


@pytest.mark.parametrize("kind, params", [
    ("w_ops", {}),
    ("w_ops", {"selfadjoint": True}),
    ("invariant_aij", {"sites_i": [0], "sites_j": [2]}),
    ("z_field", {"kappa": [1.0, 0.5]}),
    ("y_field", {"kappa": [1.0], "xi": [0.5]}),
])
def test_local_scaling_matches_full_lattice(kernel, kind, params):
    # the support-local path translates the short chain's directions; the
    # whole-chain computation builds every direction of the padded chain
    for test in ("sum_adag", "sum_n"):
        for n_max, sizes in ((1, [3, 4, 5]), (2, [3, 4])):
            rep = rayleigh_scaling(kind, test, sizes, n_max=n_max,
                                   kernel=kernel, params=params)
            E, V, counts = _full_lattice_scaling(kind, test, sizes, n_max,
                                                 params, kernel)
            assert rep.boundary_counts == counts
            assert np.allclose(rep.energies, E, rtol=1e-12, atol=0)
            assert np.allclose(rep.variances, V, rtol=1e-12, atol=0)


def test_meanfield_ratio_does_not_decay(kernel):
    rep = rayleigh_scaling("mean_field", "sum_adag", [2, 3, 4], n_max=2,
                           kernel=kernel)
    assert rep.exponent > -0.2


# --------------------------------------------------------------------------
# heat-sector reduction
# --------------------------------------------------------------------------

def test_heat_constant_value(kernel):
    assert 4 * kernel.fourier(0.0).real * np.sinh(0.5) == pytest.approx(
        2 * np.sinh(0.5), abs=1e-14)
    assert 2 * np.sinh(0.5) == pytest.approx(1.042190, abs=1e-6)


def test_heat_comparison_two_site(kernel):
    lat = LatticeConfig(1, 2, "chain", 1.0, 2)
    rep = heat_comparison(lat, kernel=kernel)
    assert rep.span_residual < 1e-9
    assert rep.restriction_deviation < 1e-8
    assert rep.C_predicted == pytest.approx(2 * np.sinh(0.5), abs=1e-12)
    # single Fourier mode decays at rate 2C
    C = rep.C_predicted
    k0 = np.array([1.0, -1.0]) / np.sqrt(2)
    RA = rep.restriction[:2, :2]
    for t in (0.3, 1.0):
        got = expm(-t * RA) @ k0
        assert np.allclose(got, np.exp(-2 * C * t) * k0, atol=1e-10)
    # truncation backreaction of the raw semigroup is visible but modest
    assert rep.trajectory_deviation < 1e-6
    # measured cutoff backreaction of the raw truncated semigroup
    assert 1e-4 < rep.full_semigroup_deviation < 1.0
    assert rep.raw_span_residual > 1e-3


def test_heat_comparison_runs_one_semigroup_per_trajectory(kernel, monkeypatch):
    from fockdirichlet import analysis
    calls = []
    real = analysis.semigroup_apply

    def counted(K, f, t, **kw):
        calls.append(t)
        return real(K, f, t, **kw)

    monkeypatch.setattr(analysis, "semigroup_apply", counted)
    lat = LatticeConfig(1, 2, "chain", 1.0, 2)
    t_grid = (0.2, 0.5, 1.0, 2.0)
    rep = heat_comparison(lat, kernel=kernel, t_grid=t_grid)
    assert calls == [t_grid]
    assert 1e-4 < rep.full_semigroup_deviation < 1.0


def test_heat_cycle_laplacian_spectrum(kernel):
    lat = LatticeConfig(1, 4, "cycle", 1.0, 2)
    rep = heat_comparison(lat, kernel=kernel, t_grid=(0.5,))
    C = rep.C_predicted
    ev = np.sort(np.linalg.eigvalsh(graph_laplacian(lat)))
    assert np.allclose(ev, [0, 2, 2, 4], atol=1e-12)
    got = np.sort(rep.restriction_eigenvalues)
    want = np.sort(np.concatenate([C * ev, C * ev]))
    assert np.max(np.abs(got - want)) < 1e-8


def test_heat_unordered_convention_halves_constant(kernel):
    lat = LatticeConfig(1, 2, "chain", 1.0, 2)
    rep = heat_comparison(lat, kernel=kernel, edges="unordered", t_grid=(0.5,))
    assert rep.C_predicted == pytest.approx(np.sinh(0.5), abs=1e-12)
    assert rep.restriction_deviation < 1e-8


# --------------------------------------------------------------------------
# polynomial decay
# --------------------------------------------------------------------------

def test_decay_probe_ring16(kernel):
    rep = polynomial_decay_probe((16,), kernel=kernel, cross_check_length=4,
                                 cross_check_n_max=2)
    assert abs(rep.slopes[0] + 0.5) <= 0.15
    assert rep.t0_check == pytest.approx(1.0)
    cc = rep.cross_check
    assert cc is not None
    assert cc.span_residual < 1e-9
    assert cc.restriction_deviation < 1e-8
    assert cc.trajectory_deviation < 1e-6


def test_decay_window_guard(kernel):
    with pytest.raises(ValueError):
        polynomial_decay_probe((2,), kernel=kernel, cross_check_length=None)


# --------------------------------------------------------------------------
# finite speed of propagation
# --------------------------------------------------------------------------

def test_lieb_robinson_probe():
    rep = lieb_robinson_probe(5, 2, lam=0.5, epsilon=1.0)
    assert rep.fit_m > 0
    assert rep.bound_ok
    assert rep.t0_max < 1e-12
    # at each fixed time the light cone decays with distance
    for row in rep.B:
        assert np.all(np.diff(row) < 0)
    # first-order Dyson growth at d = 0
    assert rep.short_time_ratio == pytest.approx(1.0, abs=5e-3)
    assert rep.c_phi > 0


def test_lieb_robinson_rejects_short_chain():
    with pytest.raises(ValueError):
        lieb_robinson_probe(3, 2)


@pytest.mark.parametrize("L", [4, 5])
def test_lieb_robinson_probe_matches_dense_expm_oracle(L):
    """Every B(t, d), t0_max, the short-time ratio and c_phi against a dense
    evolution of mollified ladders built with np.kron on the whole space."""
    n_max, lam, eps, beta = 2, 0.5, 1.0, 1.0
    t_grid = (0.25, 0.5, 0.75, 1.0, 1.5)
    d = n_max + 1
    a1 = (np.diag(1.0 / (1.0 + eps * np.sqrt(np.arange(d))))
          @ np.diag(np.sqrt(np.arange(1, d)), 1))
    a = [np.kron(np.kron(np.eye(d ** s), a1), np.eye(d ** (L - s - 1)))
         for s in range(L)]
    bonds = [lam * (a[j] @ a[j + 1].T + a[j].T @ a[j + 1]) for j in range(L - 1)]
    U = sum(bonds)

    def norm(x):
        return np.linalg.norm(x, 2)

    def comm(x, y):
        return x @ y - y @ x

    def alpha(t):
        Ut = expm(-1j * t * beta * U)
        return Ut @ a[0] @ Ut.conj().T

    B = np.array([[norm(comm(phi, alpha(t))) for phi in bonds] for t in t_grid])
    t0 = max(norm(comm(phi, a[0])) for phi in bonds[1:])
    ts = 1e-3
    ratio = (norm(comm(bonds[1], alpha(ts)))
             / (ts * beta * norm(comm(bonds[1], comm(U, a[0])))))
    # bond j' lies within distance 2 of bond j exactly when |j' - j| <= 2
    bn = [norm(phi) for phi in bonds]
    c_phi = 2 * max(sum(bn[max(0, j - 2):j + 3]) for j in range(L - 1))

    rep = lieb_robinson_probe(L, n_max, lam=lam, epsilon=eps, beta=beta,
                              t_grid=t_grid)
    np.testing.assert_allclose(rep.B, B, rtol=1e-10, atol=0)
    assert rep.t0_max == pytest.approx(t0, rel=1e-10, abs=0)
    assert rep.short_time_ratio == pytest.approx(ratio, rel=1e-10, abs=0)
    assert rep.c_phi == pytest.approx(c_phi, rel=1e-10, abs=0)


def test_particle_number_charge_guard():
    lat = LatticeConfig(1, 3, "chain", 1.0, 2)
    a = [site_operator(lat, "a", j) for j in range(3)]
    U = a[0] @ a[1].dag() + a[0].dag() @ a[1] + a[1] @ a[2].dag() + a[1].dag() @ a[2]
    assert _charge(U) == 0
    assert _charge(site_operator(lat, "n", 1)) == 0
    assert _charge(a[1]) == -1
    assert _charge(site_operator(lat, "adag", 1)) == 1
    with pytest.raises(ValueError, match="mixes"):
        _charge(a[1] + a[1].dag())
    n_tot = lat.occupations().sum(axis=1)
    assert np.bincount(n_tot).tolist() == sector_sizes(3, 2)
    sectors = [np.flatnonzero(n_tot == n) for n in range(n_tot.max() + 1)]
    with pytest.raises(ValueError, match="charge 0"):
        _sector_blocks(a[1], sectors, 0)
    # a_1 maps sector n + 1 to n: one block per pair of adjacent sectors
    blocks = _sector_blocks(a[1], sectors, -1)
    assert [b.shape for b in blocks] == [(len(sectors[n]), len(sectors[n + 1]))
                                         for n in range(len(sectors) - 1)]


@pytest.mark.parametrize("kind, lattice", [
    ("mean_field", (1, 1, "chain", 1.0, 4)),
    # D^2 = 1296, above DENSE_GAP_LIMIT: shift-invert by default
    ("z_power", (1, 2, "chain", 1.0, 5)),
    # an 11-dimensional kernel, wider than the k = 6 eigenvalues asked for
    ("mean_field_n", (1, 3, "chain", 1.0, 2)),
    # a non-diagonal state, where S is a dense D^2 x D^2 array
    ("mean_field", (1, 2, "chain", 1.0, 5)),
    # ill-conditioned: the two solvers differ by about 4e-11
    ("g_model", (1, 1, "chain", 1.0, 8)),
    ("zjk_quadratic", (1, 2, "chain", 1.0, 4)),
], ids=["mean_field", "z_power_above_limit", "mean_field_n_wide_kernel",
        "mean_field_nondiagonal", "g_model", "zjk_quadratic"])
def test_gap_iterative_solver_agrees_with_dense(kernel, kind, lattice,
                                                monkeypatch):
    lat = LatticeConfig(*lattice)
    built = build_model(ModelSpec(kind, lat))
    K = assemble_generator(built.directions, built.metric, kernel)
    assert spectral_gap(K, k=6).metadata["solver"] == (
        "dense" if K.dim <= DENSE_GAP_LIMIT else "shift-invert")
    monkeypatch.setattr("fockdirichlet.analysis.DENSE_GAP_LIMIT", K.dim)
    dense = spectral_gap(K)

    def no_dense_superoperator(L):
        raise AssertionError("shift-invert formed the dense S")

    # shift-invert works on the sparse K and forms no D^2 x D^2 array
    monkeypatch.setattr("fockdirichlet.analysis.symmetrized_generator",
                        no_dense_superoperator)
    monkeypatch.setattr("fockdirichlet.analysis.DENSE_GAP_LIMIT", 0)
    iterative = spectral_gap(K, k=6)
    assert iterative.metadata["solver"] == "shift-invert"
    assert iterative.gap == pytest.approx(dense.gap, abs=1e-8)
    assert iterative.kernel_dim == dense.kernel_dim


@pytest.mark.parametrize("routine, error", [
    ("eigsh", RuntimeError), ("eigsh", SystemError),
    ("splu", RuntimeError), ("splu", SystemError),
], ids=["RuntimeError", "SystemError", "splu-RuntimeError", "splu-SystemError"])
def test_shift_invert_failure_is_a_linalg_error(kernel, monkeypatch, routine,
                                                error):
    import scipy.sparse.linalg

    def failing(*args, **kwargs):
        raise error("factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, routine, failing)
    lat = LatticeConfig(1, 1, "chain", 1.0, 4)
    built = build_model(ModelSpec("mean_field", lat))
    K = assemble_generator(built.directions, built.metric, kernel)
    monkeypatch.setattr("fockdirichlet.analysis.DENSE_GAP_LIMIT", 0)
    with pytest.raises(np.linalg.LinAlgError, match="shift-invert"):
        spectral_gap(K)


# --------------------------------------------------------------------------
# stacked span restriction and symmetry check against per-column loops
# --------------------------------------------------------------------------

def _stacked_case(case, kernel):
    """Generator on heat_ring4's lattice (diagonal state) or on two
    mean_field sites at n_max 3 (non-diagonal, clean span residual 0.105)."""
    if case == "heat_ring4":
        spec = ModelSpec("z_power", LatticeConfig(1, 4, "cycle", 1.0, 2),
                         params={"n": 1, "m": 1, "edges": "ordered"})
    else:
        spec = ModelSpec("mean_field", LatticeConfig(1, 2, "chain", 1.0, 3))
    built = build_model(spec)
    assert built.state.diagonal == (case == "heat_ring4")
    return assemble_generator(built.directions, built.metric, kernel)


def _span_restriction_reference(K, unit):
    """The per-column loop: K applied to one basis operator at a time and
    two least-squares solves per column."""
    lattice = K.lattice
    N = lattice.n_sites
    basis = ([identity_operator(lattice)] if unit else []) + \
        [site_operator(lattice, "a", j) for j in range(N)] + \
        [site_operator(lattice, "adag", j) for j in range(N)]
    keep = np.flatnonzero(clean_projector(lattice, 1).diagonal() > 0.5)

    def clean_vec(op):
        return op.matrix.toarray()[np.ix_(keep, keep)].reshape(-1)

    Bc = np.stack([clean_vec(b) for b in basis], axis=1)
    Bf = np.stack([vec(b) for b in basis], axis=1)
    R = np.zeros((len(basis), len(basis)), complex)
    span_res = raw_span_res = 0.0
    for m, b in enumerate(basis):
        img = unvec(K.matrix @ vec(b), lattice)
        y = clean_vec(img)
        sol, *_ = np.linalg.lstsq(Bc, y, rcond=None)
        R[:, m] = sol
        yf = vec(img)
        solf, *_ = np.linalg.lstsq(Bf, yf, rcond=None)
        if unit and m == 0:
            scale, scale_f = np.linalg.norm(Bc[:, 0]), np.linalg.norm(Bf[:, 0])
        else:
            scale = max(np.linalg.norm(y), 1e-300)
            scale_f = max(np.linalg.norm(yf), 1e-300)
        span_res = max(span_res, np.linalg.norm(Bc @ sol - y) / scale)
        raw_span_res = max(raw_span_res, np.linalg.norm(Bf @ solf - yf) / scale_f)
    return R, span_res, raw_span_res


@pytest.mark.parametrize("unit", [False, True])
@pytest.mark.parametrize("case", ["heat_ring4", "mean_field"])
def test_span_restriction_matches_per_column_loop(kernel, case, unit):
    K = _stacked_case(case, kernel)
    span = ladder_span_restriction(K, unit=unit)
    R, span_res, raw_span_res = _span_restriction_reference(K, unit)
    assert np.max(np.abs(span.matrix - R)) <= 1e-12 * np.max(np.abs(R))
    assert abs(span.residual - span_res) <= 1e-12
    assert abs(span.raw_residual - raw_span_res) <= 1e-12
    if case == "mean_field":
        assert span.residual == pytest.approx(0.105, abs=5e-4)
    # the clean coordinates of the basis operators are the unit vectors
    coef = span.coefficients(span.basis)
    assert np.max(np.abs(coef - np.eye(len(span.basis)))) < 1e-12


def _sym_residual_reference(K, seed):
    """The per-pair loop of the random-pair KMS-symmetry check."""
    metric = K.metric
    D = metric.state.dim
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(CHECK_PAIRS):
        f = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        g = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        vf, vg = f.reshape(-1, order="F"), g.reshape(-1, order="F")
        lhs = metric.vec_inner(vf, K.matrix @ vg)
        rhs = metric.vec_inner(K.matrix @ vf, vg)
        scale = np.sqrt(abs(metric.vec_inner(vf, vf)) * abs(metric.vec_inner(vg, vg)))
        worst = max(worst, abs(lhs - rhs) / max(scale, 1e-300))
    return float(worst)


@pytest.mark.parametrize("case", ["heat_ring4", "mean_field"])
def test_symmetry_check_matches_per_pair_loop(kernel, case):
    K = _stacked_case(case, kernel)
    for seed in (0, 1):
        _verify_generator(K, seed)
        assert abs(K.sym_residual - _sym_residual_reference(K, seed)) <= 1e-14
        assert K.symmetric_in_metric
