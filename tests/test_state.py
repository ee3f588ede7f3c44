import numpy as np
import pytest
import scipy.sparse as sp

from fockdirichlet import (KmsMetric, LatticeConfig, LatticeOperator,
                           ModelSpec, build_model, commutator, gibbs_state,
                           lp_norm, modular_flow, modular_flows, site_operator)
from fockdirichlet.fock import _fro
from fockdirichlet.state import (ConditionWarning, _hermiticity_defects, _logsumexp,
                                 decompose_modular)

from conftest import random_op


def test_partition_constant_single_mode(single_mode):
    lat, state, _ = single_mode
    # n_max = 2 variant from the frozen example
    lat2 = LatticeConfig(1, 1, "chain", 1.0, 2)
    st2 = gibbs_state(site_operator(lat2, "n", 0), 1.0)
    assert np.exp(st2.log_Z) == pytest.approx(1 + np.exp(-1) + np.exp(-2), abs=1e-12)


_SPECTRA = {
    "random": np.random.default_rng(3).standard_normal(50),
    "spread_1e3": np.random.default_rng(4).uniform(0.0, 1e3, 200),
    "degenerate_ground": np.array([-1.5, 0.2, -1.5, 3.0, -1.5, 0.7]),
    "one_level_degenerate": np.full(5, 0.4),
    "single_level": np.array([2.5])}


@pytest.mark.parametrize("beta", [0.3, 1.0])
@pytest.mark.parametrize("name", list(_SPECTRA))
def test_log_partition_is_scipy_logsumexp_bit_for_bit(name, beta):
    from scipy.special import logsumexp
    E = _SPECTRA[name]
    assert _logsumexp(-beta * E) == float(logsumexp(-beta * E))
    if E.size > 1:  # a lattice has at least two levels per mode
        lat = LatticeConfig(1, 1, "chain", 1.0, E.size - 1)
        H = LatticeOperator(sp.diags(E).tocsr(), frozenset({0}), lat)
        assert gibbs_state(H, beta).log_Z == float(logsumexp(-beta * E))


def test_log_partition_of_a_dense_hamiltonian_is_scipy_logsumexp(rng):
    from scipy.special import logsumexp
    lat = LatticeConfig(1, 2, "chain", 1.0, 3)
    R = random_op(rng, lat)
    st = gibbs_state(R + R.dag(), 1.3)
    assert st.eigvecs is not None
    assert st.log_Z == float(logsumexp(-1.3 * st.energies))


def test_tiny_off_diagonal_hamiltonian_takes_the_diagonal_path():
    # off-diagonal entries up to 1e-14 of max(||H||_F, 1) in Frobenius norm
    # leave the state diagonal; 1e-13 does not
    lat = LatticeConfig(1, 1, "chain", 1.0, 4)
    N = site_operator(lat, "n", 0)
    scale = N.fro_norm()
    for eps, diagonal in ((1e-15, True), (1e-13, False)):
        off = sp.csr_matrix(([eps * scale] * 2, ([0, 1], [1, 0])), shape=(5, 5))
        H = LatticeOperator(N.matrix + off, frozenset({0}), lat)
        st = gibbs_state(H, 1.0)
        assert st.diagonal == diagonal
        assert np.allclose(np.sort(st.energies), np.arange(5), atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hermiticity_defects_are_the_sparse_norms(seed):
    # entries with and without a stored mirror, and an explicit zero
    rng = np.random.default_rng(seed)
    r = sp.random(12, 12, density=0.3, random_state=rng, format="csr") * (1 + 2j)
    m = (r + sp.triu(r, k=1).conj().T * 0.5).tocsr()
    m.sum_duplicates()
    m.data[m.nnz // 2] = 0.0
    pattern = m.copy()
    pattern.data[:] = 1.0
    assert (pattern != pattern.T).nnz > 0
    anti, off = _hermiticity_defects(m)
    assert anti == pytest.approx(_fro(m - m.conj().T), rel=1e-14)
    assert off == pytest.approx(_fro(m - sp.diags(m.diagonal())), rel=1e-14)
    h = m + m.conj().T
    h.sum_duplicates()
    assert _hermiticity_defects(h)[0] == 0.0


def _arrays(m):
    return [a.copy() for a in (m.data, m.indices, m.indptr)]


def _unchanged(m, before):
    return all(np.array_equal(a, b) for a, b in zip(_arrays(m), before))


def test_norms_and_gibbs_state_leave_the_operator_unsorted():
    # H = X*X on the 3-site mean-field chain: scipy's product leaves its
    # column indices unsorted, and reading H must not sort them
    lat = LatticeConfig(1, 3, "chain", 1.0, 2)
    X = sum((site_operator(lat, "a", s) for s in range(1, 3)),
            site_operator(lat, "a", 0)) / np.sqrt(3)
    H = X.dag() @ X
    before = _arrays(H.matrix)
    assert not H.matrix.copy().has_canonical_format
    for read in (H.fro_norm, lambda: gibbs_state(H, 1.0),
                 lambda: _hermiticity_defects(H.matrix)):
        read()
        assert _unchanged(H.matrix, before)
    assert gibbs_state(H, 1.0).eigvecs is not None


def test_hermiticity_defects_of_a_non_canonical_csr():
    # duplicates at (0, 1) and (2, 2), columns out of order in every row
    data = np.array([2.0, 0.5 + 1j, 0.25 - 1j, 3.0, 0.5 - 2j, 1.0, 1e-3, 4.0])
    indices = np.array([1, 0, 1, 1, 0, 2, 2, 0])
    indptr = np.array([0, 3, 5, 8])
    m = sp.csr_matrix((data, indices, indptr), shape=(3, 3))
    assert not m.has_canonical_format
    before = _arrays(m)
    got = _hermiticity_defects(m)
    assert _unchanged(m, before)
    c = m.copy()
    c.sum_duplicates()
    assert got == _hermiticity_defects(c)
    assert got[0] == pytest.approx(_fro(c - c.conj().T), rel=1e-14)


def test_infinite_temperature_limit():
    lat = LatticeConfig(1, 1, "chain", 1.0, 3)
    st = gibbs_state(site_operator(lat, "n", 0), 1e-9)
    rho = st.power(1.0).toarray()
    assert np.max(np.abs(rho - np.eye(4) / 4)) < 1e-8


def test_product_state_factorizes(two_site):
    lat, state, _ = two_site
    rho = state.power(1.0).toarray()
    lat1 = LatticeConfig(1, 1, "chain", 1.0, 2)
    st1 = gibbs_state(site_operator(lat1, "n", 0), 1.0)
    r1 = st1.power(1.0).toarray()
    assert np.max(np.abs(rho - np.kron(r1, r1))) < 1e-13


def test_rejects_non_hermitian():
    lat = LatticeConfig(1, 1, "chain", 1.0, 2)
    with pytest.raises(ValueError):
        gibbs_state(site_operator(lat, "a", 0), 1.0)


def test_state_invariants(single_mode, rng):
    lat, state, _ = single_mode
    assert abs(state.power(1.0).diagonal().sum() - 1.0) < 1e-12
    assert np.exp(state.log_p).min() >= -1e-14
    # rho^z rho^w = rho^{z+w} on sampled complex exponents
    for _ in range(4):
        z = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        w = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        lhs = state.power(z) @ state.power(w)
        rhs = state.power(z + w)
        assert np.max(np.abs((lhs - rhs).toarray())) < 1e-10


def test_kms_inner_examples(single_mode):
    lat, state, metric = single_mode
    one = site_operator(lat, "n", 0) * 0 + 1.0
    assert metric.inner(one, one) == pytest.approx(1.0)
    lat2 = LatticeConfig(1, 1, "chain", 1.0, 2)
    st2 = gibbs_state(site_operator(lat2, "n", 0), 1.0)
    m2 = KmsMetric(st2)
    a2 = site_operator(lat2, "a", 0)
    Z = 1 + np.exp(-1) + np.exp(-2)
    # oracle: sum_n (n+1) exp(-beta(2n+1)/2) / Z over the levels below cutoff
    expect = sum((n + 1) * np.exp(-(2 * n + 1) / 2) for n in range(2)) / Z
    assert m2.inner(a2, a2) == pytest.approx(expect, abs=1e-12)
    assert expect == pytest.approx(0.7003597, abs=5e-7)
    assert abs(m2.inner(a2, a2.dag())) < 1e-14


def test_kms_cross_identity(single_mode, rng):
    # <f, g> = omega(f* alpha_{-i/2}(g)) on random pairs
    lat, state, metric = single_mode
    for _ in range(5):
        f, g = random_op(rng, lat), random_op(rng, lat)
        direct = metric.inner(f, g)
        flowed = modular_flow(g, state, -0.5j)
        via_omega = metric.expectation(f.dag() @ flowed)
        assert abs(direct - via_omega) < 1e-10 * max(1.0, abs(direct))


def test_lp_norm_examples():
    lat = LatticeConfig(1, 1, "chain", 1.0, 2)
    st = gibbs_state(site_operator(lat, "n", 0), 1.0)
    one = site_operator(lat, "n", 0) * 0 + 1.0
    for p, s in [(1, 0.5), (2, 0.5), (3, 0.0), (2, 1.0)]:
        assert lp_norm(one, st, p, s) == pytest.approx(1.0, abs=1e-12)
    a = site_operator(lat, "a", 0)
    m = KmsMetric(st)
    assert lp_norm(a, st, 2, 0.5) == pytest.approx(
        np.sqrt(m.inner(a, a).real), abs=1e-10)
    n_op = site_operator(lat, "n", 0)
    Z = 1 + np.exp(-1) + np.exp(-2)
    assert lp_norm(n_op, st, 1, 0.5) == pytest.approx(
        (np.exp(-1) + 2 * np.exp(-2)) / Z, abs=1e-12)
    assert lp_norm(n_op, st, 1, 0.5) == pytest.approx(0.4247896, abs=5e-7)
    with pytest.raises(ValueError):
        lp_norm(a, st, 0, 0.5)


def test_modular_flow_examples(single_mode):
    lat, state, _ = single_mode
    a = site_operator(lat, "a", 0)
    flowed = modular_flow(a, state, -0.5j)
    ratio = flowed.matrix[0, 1] / a.matrix[0, 1]
    assert ratio == pytest.approx(np.exp(0.5), abs=1e-12)
    assert (flowed - a * np.exp(0.5)).fro_norm() < 1e-12
    assert (modular_flow(a, state, 0.0) - a).fro_norm() < 1e-14
    n_op = site_operator(lat, "n", 0)
    assert (modular_flow(n_op, state, 0.37 + 0.2j) - n_op).fro_norm() < 1e-12


def test_modular_flow_guard_and_condition_warning():
    lat = LatticeConfig(1, 1, "chain", 1.0, 8)
    st = gibbs_state(site_operator(lat, "n", 0), 4.0)
    a = site_operator(lat, "a", 0)
    with pytest.raises(ValueError):
        modular_flow(a, st, 1.5j)
    with pytest.warns(ConditionWarning):
        modular_flow(a, st, 0.99j)


def test_modular_group_law(single_mode, rng):
    lat, state, _ = single_mode
    f = random_op(rng, lat)
    for z, w in [(0.3, 0.9), (0.2 + 0.1j, -0.4 + 0.3j), (0.5j, -0.2j)]:
        lhs = modular_flow(modular_flow(f, state, w), state, z)
        rhs = modular_flow(f, state, z + w)
        assert (lhs - rhs).fro_norm() < 1e-10 * max(1.0, rhs.fro_norm())


def test_real_time_star_automorphism(single_mode, rng):
    lat, state, _ = single_mode
    f, g = random_op(rng, lat), random_op(rng, lat)
    t = 0.83
    lhs = modular_flow(f @ g, state, t)
    rhs = modular_flow(f, state, t) @ modular_flow(g, state, t)
    assert (lhs - rhs).fro_norm() < 1e-10 * max(1.0, rhs.fro_norm())
    star = modular_flow(f.dag(), state, t)
    assert (star - modular_flow(f, state, t).dag()).fro_norm() < 1e-10


def test_schwartz_chain_inequalities(single_mode, rng):
    # ||XB||^2 <= ||B*B|| ||XX*|| and ||BX||^2 <= ||BB*|| ||X*X||
    lat, state, metric = single_mode
    for _ in range(8):
        X, B = random_op(rng, lat), random_op(rng, lat)
        xb = metric.norm(X @ B) ** 2
        bx = metric.norm(B @ X) ** 2
        assert xb <= metric.norm(B.dag() @ B) * metric.norm(X @ X.dag()) + 1e-9
        assert bx <= metric.norm(B @ B.dag()) * metric.norm(X.dag() @ X) + 1e-9


def test_decompose_modular_product_state(two_site):
    lat, state, _ = two_site
    a0 = site_operator(lat, "a", 0)
    comps = decompose_modular(a0, state)
    assert len(comps) == 1
    op, w = comps[0]
    assert w == pytest.approx(1.0)
    assert (op - a0).fro_norm() < 1e-14
    mixed = a0 + a0.dag()
    comps = decompose_modular(mixed, state)
    assert sorted(w for _, w in comps) == pytest.approx([-1.0, 1.0])
    # a hop conserves the total number: one component at frequency 0
    hop = a0.dag() @ site_operator(lat, "a", 1)
    comps = decompose_modular(hop, state)
    assert len(comps) == 1
    op, w = comps[0]
    assert w == pytest.approx(0.0, abs=1e-12)
    assert (op - hop).fro_norm() < 1e-14


def test_flows_and_components_keep_superset_support():
    # a support must cover every site an operator acts on: under the
    # interacting 3-site zjk_quadratic state, the flows and modular components
    # of Z_0,1 commute with A_s and A*_s at each site s outside their support
    lat = LatticeConfig(1, 3, "chain", 1.0, 1)
    built = build_model(ModelSpec("zjk_quadratic", lat))
    Z = built.directions[0].X
    assert Z.label == "Z_0,1"
    ops = [modular_flow(Z, built.state, t) for t in (0.3, 1.1, 0.5j)]
    ops += [c for c, _ in decompose_modular(Z, built.state)]
    for op in ops:
        for s in set(range(lat.n_sites)) - op.support:
            for kind in ("a", "adag"):
                comm = commutator(op, site_operator(lat, kind, s))
                assert comm.fro_norm() < 1e-12, (op.label, s, kind)


def _mixed_state():
    """Non-diagonal Gibbs state: H = N + 0.4 (A + A*) on one mode."""
    lat = LatticeConfig(1, 1, "chain", 1.0, 3)
    a = site_operator(lat, "a", 0)
    H = site_operator(lat, "n", 0) + (a + a.dag()) * 0.4
    return lat, gibbs_state(H, 0.8), a


def test_modular_flow_wrapper(single_mode, rng):
    # modular_flow wraps the one-row case of the stacked flow; each row of a
    # stack equals the single flow and rho^(iz) X rho^(-iz) from dense powers,
    # for a diagonal and a non-diagonal state
    lat, diag_state, _ = single_mode
    mixed_lat, mixed_state, mixed_a = _mixed_state()
    assert diag_state.diagonal and not mixed_state.diagonal
    zs = [0.0, 0.37, -1.2 + 0.5j, 0.8 - 0.5j, 0.25j]
    for state, X in ((diag_state, site_operator(lat, "a", 0) + random_op(rng, lat) * 0.1),
                     (mixed_state, mixed_a)):
        D = state.dim
        stack = modular_flows(X, state, zs)
        assert stack.shape == (len(zs), D * D)
        for n, z in enumerate(zs):
            row = stack[n].toarray().reshape(D, D)
            left, right = (np.asarray(state.power(w).todense()) if state.diagonal
                           else state.power(w) for w in (1j * z, -1j * z))
            dense = left @ X.toarray() @ right
            assert np.max(np.abs(row - modular_flow(X, state, z).toarray())) < 1e-14
            assert np.max(np.abs(row - dense)) < 1e-12


@pytest.mark.parametrize("kind", ["z_power", "mean_field"])
def test_modular_flow_is_dense_conjugation_in_canonical_format(kind, rng):
    # rho^(iz) X rho^(-iz) on a diagonal and a non-diagonal two-site state,
    # for an X whose rows store their columns out of order
    state = _two_site_metric(kind).state
    lat, D = state.lattice, state.dim
    X = site_operator(lat, "a", 0).toarray() + 0.3 * random_op(rng, lat).toarray()
    X[np.abs(X) < 0.35] = 0.0
    csr = sp.csr_matrix(X)
    order = np.concatenate([np.arange(lo, hi)[::-1] for lo, hi in
                            zip(csr.indptr[:-1], csr.indptr[1:])])
    shuffled = sp.csr_matrix((csr.data[order], csr.indices[order], csr.indptr),
                             shape=(D, D))
    assert not shuffled.has_sorted_indices
    op = LatticeOperator(shuffled, frozenset({0, 1}), lat, "X")
    for z in (0.0, 0.41, 0.5j, -0.5j, 0.7 - 0.3j):
        left, right = (state.power(w) for w in (1j * z, -1j * z))
        left, right = (p.toarray() if sp.issparse(p) else p for p in (left, right))
        dense = left @ X @ right
        got = modular_flow(op, state, z).matrix
        assert np.max(np.abs(got.toarray() - dense)) < 1e-13 * max(1.0, np.abs(dense).max())
        rows = np.repeat(np.arange(D), np.diff(got.indptr))
        assert np.all(np.diff(rows * D + got.indices) > 0)


def test_stacked_flow_guard_and_condition_warning():
    lat = LatticeConfig(1, 1, "chain", 1.0, 8)
    st = gibbs_state(site_operator(lat, "n", 0), 4.0)
    a = site_operator(lat, "a", 0)
    with pytest.raises(ValueError, match="exceeds guard strip"):
        modular_flows(a, st, [0.2, 1.5j])
    with pytest.warns(ConditionWarning) as rec:
        modular_flows(a, st, [0.1, 0.99j, -0.99j])
    assert len(rec) == 2
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        modular_flows(a, st, [0.1, 0.3j])


def test_lp_norm_odd_power_oracle(single_mode, rng):
    # independent oracle: eigenvalues of the positive part via eigvalsh
    lat, state, _ = single_mode
    f = random_op(rng, lat)
    left = state.power(0.5 / 3).toarray()
    right = state.power(0.5 / 3).toarray()
    m = left @ f.toarray() @ right
    ev = np.linalg.eigvalsh(m.conj().T @ m)
    want = float(np.sum(np.sqrt(np.clip(ev, 0, None)) ** 3) ** (1 / 3))
    assert lp_norm(f, state, 3, 0.5) == pytest.approx(want, rel=1e-10)


def test_gibbs_extreme_beta_log_domain():
    lat = LatticeConfig(1, 1, "chain", 1.0, 6)
    st = gibbs_state(site_operator(lat, "n", 0), 500.0)
    assert np.isfinite(st.log_Z)
    p = np.exp(st.log_p)
    assert p[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.isfinite(p))


def _two_site_metric(kind):
    """KMS metric of a two-site model at n_max 3: z_power has a diagonal
    state, mean_field a non-diagonal one."""
    built = build_model(ModelSpec(kind, LatticeConfig(1, 2, "chain", 1.0, 3)))
    assert built.state.diagonal == (kind == "z_power")
    return built.metric


@pytest.mark.parametrize("kind", ["z_power", "mean_field"])
def test_vec_inner_on_columns_equals_single_calls(kind, rng):
    metric = _two_site_metric(kind)
    shape = (metric.state.dim ** 2, 5)
    X, Y = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(2))
    got = metric.vec_inner(X, Y)
    assert got.shape == (5,)
    want = np.array([metric.vec_inner(x, y) for x, y in zip(X.T, Y.T)])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _fork_inner(state, f, g) -> complex:
    """<f, g> by the diagonal-state and dense-state formulas that the metric
    carried before it went through `KmsMetric.half`."""
    fm, gm = f.matrix, g.matrix
    if state.diagonal:
        s = np.exp(0.5 * state.log_p)
        w = fm.conj().multiply(gm).tocoo()
        return complex(np.sum(w.data * s[w.row] * s[w.col]))
    r = state.power(0.5)
    return complex(np.trace(r @ fm.conj().T.toarray() @ r @ gm.toarray()))


def _fork_expectation(state, f) -> complex:
    if state.diagonal:
        return complex(np.sum(np.exp(state.log_p) * f.matrix.diagonal()))
    return complex(np.trace(state.power(1.0) @ f.toarray()))


@pytest.mark.parametrize("kind", ["z_power", "mean_field"])
def test_inner_and_expectation_match_dense_traces(kind, rng):
    # relative to the Frobenius norms, which bound both forms (||rho|| <= 1);
    # some of these values vanish exactly
    metric = _two_site_metric(kind)
    st = metric.state
    lat = st.lattice
    dense = {z: st.power(z).toarray() if st.diagonal else st.power(z)
             for z in (0.5, 1.0)}
    ops = [random_op(rng, lat), random_op(rng, lat), site_operator(lat, "a", 1),
           site_operator(lat, "adag", 0) @ site_operator(lat, "a", 1)]
    for f in ops:
        expect = np.trace(dense[1.0] @ f.toarray())
        for want in (expect, _fork_expectation(st, f)):
            assert abs(metric.expectation(f) - want) <= 1e-13 * f.fro_norm()
        for g in ops:
            r = dense[0.5]
            expect = np.trace(r @ f.toarray().conj().T @ r @ g.toarray())
            for want in (expect, _fork_inner(st, f, g)):
                assert (abs(metric.inner(f, g) - want)
                        <= 1e-13 * f.fro_norm() * g.fro_norm())
    other = site_operator(LatticeConfig(1, 1, "chain", 1.0, 3), "a", 0)
    with pytest.raises(ValueError, match="dimensions"):
        metric.inner(other, other)
