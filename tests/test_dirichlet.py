import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from fockdirichlet import (AdmissibleKernel, DerivationDirection, KmsMetric,
                           LatticeConfig, adjoint_derivation_super,
                           assemble_generator, commutator, derivation_super,
                           dirichlet_energy, gamma1, gamma1_closed_form,
                           gamma1_contour_form, generator_kernel, gibbs_state,
                           identity_operator, modular_flow, modular_flows,
                           semigroup_apply, site_operator, spectral_gap, vec,
                           unvec)
from fockdirichlet.models import ModelSpec, build_model
from fockdirichlet.dirichlet import (Superoperator, _invariant_block,
                                     _verify_generator, left_mult, right_mult)

from conftest import random_op


# --------------------------------------------------------------------------
# derivations and adjoints
# --------------------------------------------------------------------------

def test_derivation_examples(single_mode):
    lat, state, _ = single_mode
    a = site_operator(lat, "a", 0)
    n_op = site_operator(lat, "n", 0)
    dA = derivation_super(a)
    # delta_A(N) = i[A, N] = iA
    out = unvec(dA.matrix @ vec(n_op), lat)
    assert (out - a * 1j).fro_norm() < 1e-13
    assert unvec(dA.matrix @ vec(a), lat).fro_norm() < 1e-14
    dN = derivation_super(n_op)
    out = unvec(dN.matrix @ vec(a.dag()), lat)
    assert (out - a.dag() * 1j).fro_norm() < 1e-13


def test_adjoint_is_gram_adjoint(single_mode, rng):
    # <delta_X f, g> = <f, delta*_X g> against the metric, random pairs
    lat, state, metric = single_mode
    for _ in range(3):
        X = random_op(rng, lat)
        dX = derivation_super(X)
        dXs = adjoint_derivation_super(X, metric)
        for _ in range(5):
            f, g = random_op(rng, lat), random_op(rng, lat)
            lhs = metric.inner(unvec(dX.matrix @ vec(f), lat), g)
            rhs = metric.inner(f, unvec(dXs.matrix @ vec(g), lat))
            scale = metric.norm(f) * metric.norm(g)
            assert abs(lhs - rhs) <= 1e-9 * max(scale, 1.0)


def test_adjoint_eigenvector_form(single_mode):
    # delta*_A(g) = i(e^{-1/2} g A+ - e^{1/2} A+ g) for H = N, beta = 1
    lat, state, metric = single_mode
    a = site_operator(lat, "a", 0)
    dAs = adjoint_derivation_super(a, metric)
    D = lat.dim
    direct = 1j * (np.exp(-0.5) * right_mult(a.dag())
                   - np.exp(0.5) * left_mult(a.dag()))
    assert abs(dAs.matrix - direct).max() < 1e-12
    # applied to the identity: coefficient magnitude 2 sinh(1/2) on A+
    out = unvec(dAs.matrix @ vec(identity_operator(lat)), lat)
    coef = out.matrix[1, 0] / a.dag().matrix[1, 0]
    assert abs(coef) == pytest.approx(2 * np.sinh(0.5), abs=1e-12)
    assert coef == pytest.approx(1j * (np.exp(-0.5) - np.exp(0.5)), abs=1e-12)


def test_modified_leibniz(single_mode, rng):
    # delta*_X(fg) = delta*_X(f) g - f delta_{alpha_{-i/2}(X*)}(g)
    lat, state, metric = single_mode
    for _ in range(4):
        X, f, g = (random_op(rng, lat) for _ in range(3))
        dXs = adjoint_derivation_super(X, metric)
        lhs = unvec(dXs.matrix @ vec(f @ g), lat)
        W = modular_flow(X.dag(), state, -0.5j)
        correction = f @ ((W @ g - g @ W) * 1j)
        rhs = unvec(dXs.matrix @ vec(f), lat) @ g - correction
        assert (lhs - rhs).fro_norm() < 1e-10 * max(1.0, lhs.fro_norm())


# --------------------------------------------------------------------------
# generator assembly
# --------------------------------------------------------------------------

def meanfield_direct_superop(lat, beta, eta0):
    """Four-term closed-form generator of the collective-mode model."""
    a = site_operator(lat, "a", 0)
    X, Xd = a.matrix, a.dag().matrix
    comm_X = left_mult(X) - right_mult(X)
    comm_Xd = left_mult(Xd) - right_mult(Xd)
    return eta0 * (-np.exp(-beta / 2) * right_mult(Xd) @ comm_X
                   + np.exp(beta / 2) * left_mult(Xd) @ comm_X
                   - np.exp(beta / 2) * right_mult(X) @ comm_Xd
                   + np.exp(-beta / 2) * left_mult(X) @ comm_Xd)


def test_meanfield_matches_closed_form(single_mode, kernel):
    lat, state, metric = single_mode
    a = site_operator(lat, "a", 0)
    K = assemble_generator([DerivationDirection(a)], metric, kernel)
    direct = meanfield_direct_superop(lat, 1.0, kernel.fourier(0.0).real)
    assert abs(K.matrix - direct).max() < 1e-10
    assert K.symmetric_in_metric
    assert np.linalg.norm(K.matrix @ vec(identity_operator(lat))) < 1e-12


def test_eigen_equals_quadrature_paths(single_mode, kernel):
    lat, state, metric = single_mode
    a = site_operator(lat, "a", 0)
    d = DerivationDirection(a)
    Ke = assemble_generator([d], metric, kernel, path="eigen")
    Kq = assemble_generator([d], metric, kernel, path="quadrature")
    assert abs(Ke.matrix - Kq.matrix).max() < 1e-6


def test_y_model_cross_terms(two_site, kernel):
    # Y = A_0 - A_1*: energy carries eta_hat(0) diagonals and eta_hat(+-2 beta)
    # cross terms; eigen and quadrature assemblies agree
    lat, state, metric = two_site
    a0 = site_operator(lat, "a", 0)
    ad1 = site_operator(lat, "adag", 1)
    Y = a0 - ad1
    comps = [(a0, 1.0), (ad1 * (-1.0), -1.0)]
    d = DerivationDirection(Y, nu=1.0, mu=0.0, components=comps)
    Ke = assemble_generator([d], metric, kernel, path="eigen")
    Kq = assemble_generator([d], metric, kernel, path="quadrature")
    assert abs(Ke.matrix - Kq.matrix).max() < 1e-6
    # recover the coefficient pattern from the quadratic form on probes
    rng = np.random.default_rng(5)
    eta0 = kernel.fourier(0.0).real
    etap = kernel.fourier(2.0).real
    etam = kernel.fourier(-2.0).real
    for _ in range(5):
        f = random_op(rng, lat)
        dk = (a0 @ f - f @ a0) * 1j
        dxs = (ad1 @ f - f @ ad1) * (-1j)
        expect = (eta0 * (metric.inner(dk, dk) + metric.inner(dxs, dxs))
                  + etam * metric.inner(dk, dxs) + etap * metric.inner(dxs, dk))
        got = metric.vec_inner(vec(f), Ke.matrix @ vec(f))
        assert abs(got - expect) < 1e-8 * max(1.0, abs(expect))


def test_generator_annihilates_identity(two_site, kernel):
    lat, state, metric = two_site
    a0 = site_operator(lat, "a", 0)
    hop = site_operator(lat, "adag", 0) @ site_operator(lat, "a", 1)
    for d in [DerivationDirection(a0), DerivationDirection(hop)]:
        K = assemble_generator([d], metric, kernel)
        res = np.linalg.norm(K.matrix @ vec(identity_operator(lat)))
        assert res < 1e-12


def test_identity_check_is_relative_to_largest_entry(kernel):
    # entries of K reach 1.9e6 here, so K vec(I) = 6e-10 is roundoff
    lat = LatticeConfig(1, 2, "chain", 1.0, 6)
    built = build_model(ModelSpec("zjk_quadratic", lat))
    K = assemble_generator(built.directions, built.metric, kernel)
    scale = np.max(np.abs(K.matrix.data))
    assert scale > 1e6
    assert np.linalg.norm(K.matrix @ vec(identity_operator(lat))) > 1e-10
    assert K.sym_residual < 1e-10
    assert K.symmetric_in_metric


def _identity_defect(two_site, kernel):
    # c times the identity superoperator keeps K KMS-symmetric but moves
    # vec(I), here by 1e-6 relative to the largest entry of K
    lat, state, metric = two_site
    K = assemble_generator([DerivationDirection(site_operator(lat, "a", 0))],
                           metric, kernel)
    idv = vec(identity_operator(lat))
    c = 1e-6 * max(1.0, np.max(np.abs(K.matrix.data))) / np.linalg.norm(idv)
    bad = Superoperator(K.matrix + c * sp.identity(K.dim, format="csr"), lat, metric)
    _verify_generator(bad, 0)
    return bad


def test_identity_defect_clears_symmetry_flag(two_site, kernel):
    bad = _identity_defect(two_site, kernel)
    assert bad.sym_residual < 1e-12
    assert not bad.symmetric_in_metric


def test_unflagged_generator_is_refused(two_site, kernel):
    bad = _identity_defect(two_site, kernel)
    f = site_operator(two_site[0], "a", 0)
    for run in (lambda: semigroup_apply(bad, f, [0.0, 0.3]),
                lambda: spectral_gap(bad)):
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"not flagged KMS-symmetric \(residual "):
            run()


def test_kms_symmetry_random_pairs(single_mode, kernel, rng):
    lat, state, metric = single_mode
    a = site_operator(lat, "a", 0)
    K = assemble_generator([DerivationDirection(a)], metric, kernel)
    for _ in range(50):
        f, g = random_op(rng, lat), random_op(rng, lat)
        lhs = metric.vec_inner(vec(f), K.matrix @ vec(g))
        rhs = metric.vec_inner(K.matrix @ vec(f), vec(g))
        scale = metric.norm(f) * metric.norm(g)
        assert abs(lhs - rhs) <= 1e-9 * max(scale, 1.0)


def test_energy_positivity_random(single_mode, kernel, rng):
    lat, state, metric = single_mode
    a = site_operator(lat, "a", 0)
    K = assemble_generator([DerivationDirection(a)], metric, kernel)
    for _ in range(50):
        f = random_op(rng, lat)
        e = dirichlet_energy(f, K)
        assert e >= -1e-10 * max(1.0, metric.norm(f) ** 2)


def test_energy_examples(single_mode, kernel):
    lat, state, metric = single_mode
    a = site_operator(lat, "a", 0)
    n_op = site_operator(lat, "n", 0)
    K = assemble_generator([DerivationDirection(a)], metric, kernel)
    assert dirichlet_energy(identity_operator(lat), K) == pytest.approx(0.0, abs=1e-12)
    # E(N) = 2 eta0 ||A||_omega^2 (both derivation squares coincide)
    eta0 = kernel.fourier(0.0).real
    expect = 2 * eta0 * metric.inner(a, a).real
    assert dirichlet_energy(n_op, K) == pytest.approx(expect, abs=1e-10)
    # dense superoperator oracle
    f = n_op
    dense = vec(f).conj() @ (np.kron(state.power(0.5).toarray().T,
                                     state.power(0.5).toarray())
                             @ (K.matrix.toarray() @ vec(f)))
    assert dirichlet_energy(f, K) == pytest.approx(dense.real, abs=1e-10)
    # f = A + A+ splits into the two component energies
    apa = a + a.dag()
    assert dirichlet_energy(apa, K) == pytest.approx(
        dirichlet_energy(a, K) + dirichlet_energy(a.dag(), K), abs=1e-10)


# --------------------------------------------------------------------------
# carre du champ
# --------------------------------------------------------------------------

def test_gamma1_examples(single_mode, kernel, rng):
    lat, state, metric = single_mode
    a = site_operator(lat, "a", 0)
    d = DerivationDirection(a)
    K = assemble_generator([d], metric, kernel)
    assert gamma1(identity_operator(lat), K).fro_norm() < 1e-13
    g = gamma1(a, K)
    closed = gamma1_closed_form(a, [d], metric, kernel)
    assert (g - closed).norm() < 1e-8
    contour = gamma1_contour_form(a, [d], metric, kernel)
    assert (g - contour).norm() < 1e-8
    # clean-level value eta0 e^{-1/2}; PSD overall
    eta0 = kernel.fourier(0.0).real
    diag = g.matrix.diagonal().real
    assert np.allclose(diag[:-1], eta0 * np.exp(-0.5), atol=1e-12)
    for _ in range(5):
        f = random_op(rng, lat)
        h = f + f.dag()
        ev = np.linalg.eigvalsh(gamma1(h, K).toarray())
        assert ev.min() >= -1e-8


def test_gamma1_contour_identity_on_eigenvector_model(single_mode, kernel, rng):
    # 2 Gamma_1 from the definition equals the contour integral form
    lat, state, metric = single_mode
    a = site_operator(lat, "a", 0)
    d = DerivationDirection(a)
    K = assemble_generator([d], metric, kernel)
    for _ in range(3):
        f = random_op(rng, lat)
        lhs = gamma1(f, K)
        rhs = gamma1_contour_form(f, [d], metric, kernel)
        assert (lhs - rhs).norm() < 1e-8 * max(1.0, lhs.norm())


def test_gamma1_unequal_weights(single_mode, kernel, rng):
    lat, state, metric = single_mode
    a = site_operator(lat, "a", 0)
    d = DerivationDirection(a, nu=0.7, mu=1.9)
    K = assemble_generator([d], metric, kernel)
    f = random_op(rng, lat)
    lhs = gamma1(f, K)
    rhs = gamma1_contour_form(f, [d], metric, kernel)
    assert (lhs - rhs).norm() < 1e-8 * max(1.0, lhs.norm())
    closed = gamma1_closed_form(f, [d], metric, kernel)
    assert (lhs - closed).norm() < 1e-8 * max(1.0, lhs.norm())
    # two modular components: E(f*) swaps nu and mu, so Gamma_1(f) is not
    # Hermitian, and the contour form carries the same anti-Hermitian part
    smooth = AdmissibleKernel(sigma=0.5)
    for nu, mu in ((1.0, 0.0), (0.7, 1.9)):
        d = DerivationDirection(a @ a + a.dag() * 0.5, nu=nu, mu=mu)
        lhs = gamma1(f, assemble_generator([d], metric, smooth))
        rhs = gamma1_contour_form(f, [d], metric, smooth)
        assert (lhs - rhs).norm() < 1e-8 * lhs.norm()
        assert (lhs - lhs.dag()).norm() > 1e-3 * lhs.norm()


def test_schwartz_inequality_semigroup(single_mode, kernel, rng):
    # P_t(f*f) >= (P_t f)*(P_t f) up to -1e-8 at t in {0.1, 1, 5}
    lat, state, metric = single_mode
    a = site_operator(lat, "a", 0)
    K = assemble_generator([DerivationDirection(a)], metric, kernel)
    for _ in range(3):
        f = random_op(rng, lat)
        f = f * (1.0 / f.norm())
        for t in (0.1, 1.0, 5.0):
            pff = semigroup_apply(K, f.dag() @ f, t)
            pf = semigroup_apply(K, f, t)
            gap_op = pff - pf.dag() @ pf
            ev = np.linalg.eigvalsh(gap_op.toarray())
            assert ev.min() >= -1e-8


def test_energy_gamma1_link(single_mode, kernel, rng):
    # omega(Gamma_1(alpha_{-i/4}(f))) equals the Dirichlet energy
    lat, state, metric = single_mode
    a = site_operator(lat, "a", 0)
    K = assemble_generator([DerivationDirection(a)], metric, kernel)
    for _ in range(5):
        f = random_op(rng, lat)
        ft = modular_flow(f, state, -0.25j)
        lhs = metric.expectation(gamma1(ft, K)).real
        rhs = dirichlet_energy(f, K)
        assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(rhs))


def test_decay_transfer(single_mode, kernel, rng):
    # E(P_t f) <= exp(-2 m t) E(f) with m the measured gap, 2% slack
    lat, state, metric = single_mode
    a = site_operator(lat, "a", 0)
    K = assemble_generator([DerivationDirection(a)], metric, kernel)
    m = spectral_gap(K).gap
    for _ in range(3):
        f = random_op(rng, lat)
        e0 = dirichlet_energy(f, K)
        for t in np.linspace(0.0, 3.0, 7):
            et = dirichlet_energy(semigroup_apply(K, f, float(t)), K)
            assert et <= np.exp(-2 * m * t) * e0 * 1.02 + 1e-12


# --------------------------------------------------------------------------
# semigroup
# --------------------------------------------------------------------------

def test_semigroup_basics(single_mode, kernel, rng):
    lat, state, metric = single_mode
    a = site_operator(lat, "a", 0)
    K = assemble_generator([DerivationDirection(a)], metric, kernel)
    f = random_op(rng, lat)
    assert (semigroup_apply(K, f, 0.0) - f).fro_norm() < 1e-14
    one = identity_operator(lat)
    assert (semigroup_apply(K, one, 2.0) - one).fro_norm() < 1e-10
    with pytest.raises(ValueError):
        semigroup_apply(K, f, -0.1)


def test_semigroup_property(single_mode, kernel, rng):
    lat, state, metric = single_mode
    a = site_operator(lat, "a", 0)
    K = assemble_generator([DerivationDirection(a)], metric, kernel)
    f = random_op(rng, lat)
    st_ = semigroup_apply(K, semigroup_apply(K, f, 0.4), 0.9)
    direct = semigroup_apply(K, f, 1.3)
    assert (st_ - direct).fro_norm() < 1e-8 * max(1.0, direct.fro_norm())


def test_semigroup_matches_dense_oracle(single_mode, kernel, rng):
    lat, state, metric = single_mode
    a = site_operator(lat, "a", 0)
    K = assemble_generator([DerivationDirection(a)], metric, kernel)
    f = random_op(rng, lat)
    for t in (0.3, 1.7):
        krylov = semigroup_apply(K, f, t)
        dense = unvec(expm(-t * K.matrix.toarray()) @ vec(f), lat)
        assert (krylov - dense).fro_norm() < 1e-9 * max(1.0, dense.fro_norm())
    # the collective-mode eigenrate governs P_t A on the clean levels
    lam = 2 * np.sinh(0.5) * kernel.fourier(0.0).real
    pa = semigroup_apply(K, a, 0.7)
    dense = unvec(expm(-0.7 * K.matrix.toarray()) @ vec(a), lat)
    assert (pa - dense).fro_norm() < 1e-9
    assert dense.matrix[0, 1].real == pytest.approx(np.exp(-lam * 0.7), rel=0.05)


def _assert_semigroup_matches_expm(K, f, lat):
    for t in (0.3, 1.7):
        got = semigroup_apply(K, f, t)
        dense = unvec(expm(-t * K.matrix.toarray()) @ vec(f), lat)
        assert (got - dense).fro_norm() < 1e-8 * dense.fro_norm()


@pytest.mark.parametrize("kind, n_max", [("mean_field", 3), ("zjk_quadratic", 2)])
def test_semigroup_on_dense_state_matches_expm(kind, n_max, kernel, rng):
    # interacting states are not diagonal: the frame is rho^(1/4) F rho^(1/4)
    lat = LatticeConfig(1, 2, "chain", 1.0, n_max)
    built = build_model(ModelSpec(kind, lat))
    assert not built.state.diagonal
    K = assemble_generator(built.directions, built.metric, kernel)
    assert K.symmetric_in_metric
    _assert_semigroup_matches_expm(K, random_op(rng, lat), lat)


def test_eigen_path_diagnostic_on_dense_spectra(kernel, rng):
    # a generic dense Hamiltonian shatters a random direction into more
    # frequency buckets than the eigen path accepts
    from fockdirichlet import LatticeConfig, gibbs_state, KmsMetric
    lat = LatticeConfig(1, 2, "chain", 1.0, 2)
    H = random_op(rng, lat)
    H = (H + H.dag()) * 0.5
    state = gibbs_state(H, 1.0)
    metric = KmsMetric(state)
    X = random_op(rng, lat)
    with pytest.raises(ValueError, match="modular components"):
        assemble_generator([DerivationDirection(X)], metric, kernel,
                           path="eigen")


def test_krylov_nonconvergence_reported(single_mode, kernel, rng, monkeypatch):
    from fockdirichlet.dirichlet import KrylovError
    lat, state, metric = single_mode
    a = site_operator(lat, "a", 0)
    K = assemble_generator([DerivationDirection(a)], metric, kernel)
    f = random_op(rng, lat)
    monkeypatch.setattr("fockdirichlet.dirichlet.KRYLOV_MAX", 3)
    with pytest.raises(KrylovError):
        semigroup_apply(K, f, 3.0)


def _times_case(case, kernel):
    """(K, lattice): the one-mode generator on its diagonal state, or the
    dense-state mean_field generator."""
    if case == "dense_state":
        lat = LatticeConfig(1, 2, "chain", 1.0, 3)
        built = build_model(ModelSpec("mean_field", lat))
        return assemble_generator(built.directions, built.metric, kernel), lat
    lat = LatticeConfig(1, 1, "chain", 1.0, 4)
    metric = KmsMetric(gibbs_state(site_operator(lat, "n", 0), 1.0))
    direction = DerivationDirection(site_operator(lat, "a", 0))
    return assemble_generator([direction], metric, kernel), lat


@pytest.mark.parametrize("case", ["diagonal", "dense_state"])
def test_semigroup_times_share_one_basis(case, kernel, rng, monkeypatch):
    from fockdirichlet.dirichlet import KrylovError
    K, lat = _times_case(case, kernel)
    assert K.symmetric_in_metric
    f = random_op(rng, lat)
    times = [0.0, 0.3, 1.7]
    many = semigroup_apply(K, f, times)
    assert len(many) == len(times)
    for t, got in zip(times, many):
        one = semigroup_apply(K, f, t)
        dense = unvec(expm(-t * K.matrix.toarray()) @ vec(f), lat)
        assert (got - one).fro_norm() <= 1e-10 * one.fro_norm()
        assert (got - dense).fro_norm() <= 1e-9 * dense.fro_norm()
    with pytest.raises(ValueError):
        semigroup_apply(K, f, [0.3, -0.1, 1.0])
    monkeypatch.setattr("fockdirichlet.dirichlet.KRYLOV_MAX", 3)
    with pytest.raises(KrylovError, match="did not converge within 3"):
        semigroup_apply(K, f, [0.3, 3.0])


@pytest.fixture
def ring3_heat(kernel):
    """The heat generator of the z_power 3-ring at n_max 2 and the vector of
    f = A_0 + A_0*, the start of the heat experiment."""
    lat = LatticeConfig(1, 3, "cycle", 1.0, 2)
    built = build_model(ModelSpec("z_power", lat, params={"n": 1, "m": 1}))
    K = assemble_generator(built.directions, built.metric, kernel)
    a = site_operator(lat, "a", 0)
    return K, a + a.dag(), lat


def test_invariant_block_holds_support_and_is_invariant(ring3_heat):
    K, f, lat = ring3_heat
    assert K.metric.state.diagonal
    v = vec(f)
    blk = _invariant_block(K.matrix, v)
    out = np.ones(v.size, dtype=bool)
    out[blk] = False
    assert np.all(np.isin(np.flatnonzero(v), blk))
    assert K.matrix[out][:, blk].nnz == 0 and K.matrix[blk][:, out].nnz == 0
    assert blk.size < lat.dim ** 2


def test_semigroup_on_the_block_matches_expm(ring3_heat):
    K, f, lat = ring3_heat
    stats = {}
    times = [0.2, 0.5, 1.0, 2.0]                  # the heat experiment's t_grid
    got = semigroup_apply(K, f, times, stats=stats)
    blk = _invariant_block(K.matrix, vec(f))
    assert stats["block"] == blk.size < stats["dim"] == lat.dim ** 2
    assert 1 < stats["krylov_steps"] and stats["last_correction"] <= 1e-10
    out = np.ones(lat.dim ** 2, dtype=bool)
    out[blk] = False
    for t, g in zip(times, got):
        dense = expm(-t * K.matrix.toarray()) @ vec(f)
        # relative to the start vector: KRYLOV_TOL bounds the correction on
        # the scale of |H vec(f)|, and the result decays below it with t
        assert np.linalg.norm(vec(g) - dense) <= 1e-9 * np.linalg.norm(vec(f))
        assert np.all(vec(g)[out] == 0.0)


def test_invariant_block_counts_imaginary_entries():
    # two 2x2 blocks; a purely imaginary entry joins coordinates 1 and 2
    K = sp.csr_matrix(np.array([[1, 1, 0, 0], [1, 1, 1j, 0],
                                [0, 0, 2, 1], [0, 0, 1, 2]], dtype=complex))
    v = np.array([1.0, 0, 0, 0])
    assert _invariant_block(K, v).tolist() == [0, 1, 2, 3]
    K[1, 2] = 0
    K.eliminate_zeros()
    assert _invariant_block(K, v).tolist() == [0, 1]


def test_rows_is_one_csr_of_row_major_flattenings(rng):
    from fockdirichlet.dirichlet import _rows
    D = 6
    mats = [sp.random(D, D, density=d, random_state=rng, format="csr",
                      dtype=complex) for d in (0.3, 0.0, 1.0, 0.05)]
    assert mats[1].nnz == 0
    ref = sp.vstack([m.reshape((1, -1)) for m in mats], format="csr")
    got = _rows(mats)
    assert got.shape == (len(mats), D * D)
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(ref, attr))


def test_eigen_triples_are_per_component_flows(kernel):
    # the stacks built from each block's adjoints equal those of
    # modular_flow(X_k*, -/+ i/2) with X_k* formed afresh, array for array,
    # in the nu and the mu block of every direction of the z_power 3-ring
    from fockdirichlet.dirichlet import _eigen_blocks, _eigen_triples, _rows
    lat = LatticeConfig(1, 3, "cycle", 1.0, 2)
    built = build_model(ModelSpec("z_power", lat, params={"n": 1, "m": 1}))
    st = built.state
    for d in built.directions:
        blocks = _eigen_blocks(d, st, kernel)
        assert len(blocks) == 2 and len(blocks[0][0]) == 2
        for ops, adjoints, _ in blocks:
            got = _eigen_triples(ops, adjoints, st)
            want = (_rows([modular_flow(op.dag(), st, -0.5j).matrix for op in ops]),
                    _rows([modular_flow(op.dag(), st, 0.5j).matrix for op in ops]),
                    _rows([op.matrix for op in ops]))
            for g, w in zip(got, want):
                assert g.shape == w.shape
                for attr in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(g, attr), getattr(w, attr))


# --------------------------------------------------------------------------
# the shared assembly kernel
# --------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["diagonal", "g_model"])
def test_kernel_single_triple_is_adjoint_times_derivation(kind, single_mode, rng):
    # oracle: one flow triple at a real time t, fed with C = [[1]], equals
    # delta*_{alpha_t(X)} delta_{alpha_t(X)} from the public superoperators
    if kind == "diagonal":
        lat, state, metric = single_mode
        X = site_operator(lat, "a", 0) + random_op(rng, lat) * 0.2
    else:
        lat = LatticeConfig(1, 1, "chain", 1.0, 3)
        built = build_model(ModelSpec("g_model", lat,
                                      params={"kappa": np.sqrt(2), "xi": 1.0}))
        state, metric, X = built.state, built.metric, built.directions[0].X
        assert not state.diagonal
    D = state.dim
    for t in rng.uniform(-3.0, 3.0, size=2):
        Xt = modular_flow(X, state, t)
        oracle = (adjoint_derivation_super(Xt, metric).matrix
                  @ derivation_super(Xt).matrix)
        feed = (modular_flows(X.dag(), state, [t - 0.5j]),
                modular_flows(X.dag(), state, [t + 0.5j]),
                modular_flows(X, state, [t]), [[1.0]])
        K = generator_kernel([feed], D)
        assert abs(K - oracle).max() < 1e-12 * max(1.0, abs(oracle).max())


def test_kernel_sums_feeds_with_coefficients(two_site, rng):
    # a full C couples every (k, l) pair; two feeds add
    lat, state, metric = two_site
    ops = [site_operator(lat, "a", 0), site_operator(lat, "adag", 1),
           random_op(rng, lat) * 0.3]
    C = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    Wm = [modular_flow(op.dag(), state, -0.5j) for op in ops]
    Wp = [modular_flow(op.dag(), state, 0.5j) for op in ops]
    oracle = 0
    for k in range(3):
        dstar = 1j * (right_mult(Wm[k]) - left_mult(Wp[k]))
        for l in range(3):
            oracle = oracle + C[k, l] * (dstar @ derivation_super(ops[l]).matrix)
    D = lat.dim
    stack = lambda mats: sp.vstack([m.matrix.reshape((1, D * D)) for m in mats],
                                   format="csr")
    feed = (stack(Wm), stack(Wp), stack(ops), C)
    K = generator_kernel([feed, feed], D)
    assert abs(K - 2 * oracle).max() < 1e-12 * abs(oracle).max()
