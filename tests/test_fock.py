import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from fockdirichlet import (LatticeConfig, LatticeOperator, ModelSpec,
                           TruncationReport, build_mode_ops, build_model,
                           clean_projector, commutator, embed,
                           identity_operator, mollify, site_operator,
                           total_sector_projector)
from fockdirichlet.fock import (PRUNE_TOL, _canonical, _fro, _prune,
                                combination, compressed, product)


def test_mode_ops_entries():
    A, Adag, N = build_mode_ops(2)
    Ad = A.toarray()
    assert Ad[0, 1] == pytest.approx(1.0)
    assert Ad[1, 2] == pytest.approx(np.sqrt(2))
    assert np.count_nonzero(Ad) == 2
    comm = (A @ Adag - Adag @ A).toarray()
    assert np.allclose(np.diag(comm), [1, 1, -2])
    assert np.allclose(comm - np.diag(np.diag(comm)), 0)


def test_number_operator_exact():
    A, Adag, N = build_mode_ops(4)
    assert np.allclose(N.toarray(), np.diag([0, 1, 2, 3, 4]))
    assert np.allclose((Adag @ A).toarray(), N.toarray())


def test_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        build_mode_ops(0)


def test_truncation_report():
    rep = TruncationReport.measure(3)
    assert rep.defect_norm == pytest.approx(4.0)
    assert rep.clean_dim == 3
    assert rep.rank_one


def test_ccr_clean_subspace():
    # <e_m, ([A,A+]-1) e_n> = 0 exactly for m, n < n_max
    for n_max in (1, 2, 5):
        A, Adag, _ = build_mode_ops(n_max)
        defect = (A @ Adag - Adag @ A - sp.identity(n_max + 1)).toarray()
        # mathematically exact; sqrt(n) products leave ~1 ulp of noise
        assert np.max(np.abs(defect[:n_max, :n_max])) < 1e-14


def test_embed_single_site_kron():
    # kron(I_{d^s}, op, I_{d^(n-s-1)}) at every site of a 3-site chain
    lat = LatticeConfig(1, 3, "chain", 1.0, 2)
    A, _, _ = build_mode_ops(2)
    for s in range(3):
        full = embed(A, s, lat, f"A_{s}")
        want = np.kron(np.kron(np.eye(3 ** s), A.toarray()), np.eye(3 ** (2 - s)))
        assert np.array_equal(full.toarray(), want)
        assert full.support == frozenset({s}) and full.label == f"A_{s}"


def _arrays(m):
    return m.data.copy(), m.indices.copy(), m.indptr.copy()


def _same_arrays(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def test_prune_leaves_its_argument_unchanged():
    m = sp.csr_matrix(np.array([[1.0, 1e-17, 0.0], [0.0, 2.0, 0.0],
                                [3.0, 0.0, 0.0]]))
    before = _arrays(m)
    out = _prune(m)
    assert _same_arrays(_arrays(m), before) and m.nnz == 4
    want = np.array([[1.0, 0, 0], [0, 2.0, 0], [3.0, 0, 0]])
    assert out.nnz == 3 and np.array_equal(out.toarray(), want)
    assert np.array_equal(out.indptr, [0, 1, 2, 3])
    # nothing below PRUNE_TOL: the same matrix comes back
    assert _prune(out) is out


def test_operator_keeps_the_csr_it_is_given():
    lat = LatticeConfig(1, 2, "chain", 1.0, 1)
    m = site_operator(lat, "a", 0).matrix
    assert LatticeOperator(m, {0}, lat).matrix is m
    dense = LatticeOperator(m.toarray(), {0}, lat).matrix
    assert isinstance(dense, sp.csr_matrix) and (dense != m).nnz == 0


def test_canonical_returns_a_canonical_matrix_itself_and_copies_the_rest():
    m = _csr_with_duplicates()
    before = _arrays(m)
    c = _canonical(m)
    assert c is not m and _same_arrays(_arrays(m), before)
    assert c.has_canonical_format and np.array_equal(c.toarray(), m.toarray())
    assert np.array_equal(c.indices, [0, 2, 1, 1]) and c.data[1] == -1.5 - 2j
    assert _canonical(c) is c


def _mollified(n_max, adjoint):
    A, _, _ = build_mode_ops(n_max)
    a = sp.diags(1.0 / (1.0 + 0.3 * np.sqrt(np.arange(n_max + 1)))) @ A
    return a.conj().T if adjoint else a


def _embed_inputs(n_max):
    A, Adag, N = build_mode_ops(n_max)
    d = n_max + 1
    tiny = N.toarray() + np.diag(np.full(d - 1, 0.5), 1)
    tiny[0, 0] = 0.1 * PRUNE_TOL        # dropped by embed
    return {"a": A, "adag": Adag, "n": N,
            "mollified_a": _mollified(n_max, False),
            "mollified_adag": _mollified(n_max, True),
            "below_prune_tol": sp.csr_matrix(tiny),
            "dense": np.arange(d * d, dtype=float).reshape(d, d) - 2.0}


@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("lattice", [(1, 3, "chain"), (2, 2, "box")],
                         ids=["chain3", "box2x2"])
def test_embed_equals_pruned_kron(lattice, n_max):
    # embed builds the CSR arrays itself; they equal those of the pruned
    # Kronecker product at every site, and the input is left as it was
    lat = LatticeConfig(*lattice, 1.0, n_max)
    d, n = lat.local_dim, lat.n_sites
    for name, op in _embed_inputs(n_max).items():
        before = op.copy()
        for s in range(n):
            got = embed(op, s, lat).matrix
            want = _prune(sp.kron(sp.kron(sp.identity(d ** s), sp.csr_matrix(op)),
                                  sp.identity(d ** (n - s - 1)), format="csr"))
            assert got.shape == want.shape and got.dtype == want.dtype, name
            assert _same_arrays(_arrays(got), _arrays(want)), (name, s)
        if sp.issparse(op):
            assert _same_arrays(_arrays(op), _arrays(before)), name
        else:
            assert np.array_equal(op, before), name


def test_embedded_disjoint_supports_commute():
    lat = LatticeConfig(1, 3, "chain", 1.0, 2)
    a0 = site_operator(lat, "a", 0)
    ad1 = site_operator(lat, "adag", 1)
    assert commutator(a0, ad1).fro_norm() < 1e-14
    assert a0.support == frozenset({0})


def test_embed_errors():
    lat = LatticeConfig(1, 2, "chain", 1.0, 1)
    A, _, _ = build_mode_ops(1)
    with pytest.raises(ValueError):
        embed(np.eye(3), 0, lat)
    with pytest.raises(ValueError):
        embed(A, 5, lat)
    with pytest.raises(ValueError):
        embed(A, -1, lat)


def test_mollify_entries():
    lat = LatticeConfig(1, 1, "chain", 1.0, 2)
    a, adag = mollify(0, 1.0, lat)
    m = a.toarray()
    assert m[0, 1] == pytest.approx(1.0)
    assert m[1, 2] == pytest.approx(np.sqrt(2) / 2)
    assert (adag.matrix - a.matrix.conj().T).nnz == 0
    # contraction: ||a|| <= ||A||
    A = site_operator(lat, "a", 0)
    assert a.norm() <= A.norm() + 1e-14
    with pytest.raises(ValueError):
        mollify(0, 0.0, lat)


def test_mollify_identity_limit():
    lat = LatticeConfig(1, 1, "chain", 1.0, 3)
    a, _ = mollify(0, 1e-14, lat)
    A = site_operator(lat, "a", 0)
    assert (a - A).norm() < 1e-10


@pytest.mark.parametrize("coeffs", [(1.0,), (2.0, -1.0), (0.5, 0.0, 3.0)])
def test_ladder_relations_for_sampled_polynomials(coeffs):
    # A+ h(N) = h(N-1) A+ and h(N) A+ = A+ h(N+1), exact on the truncated space
    n_max = 5
    A, Adag, N = build_mode_ops(n_max)
    levels = np.arange(n_max + 1, dtype=float)

    def h(x):
        return sum(c * x ** k for k, c in enumerate(coeffs))

    hN = sp.diags(h(levels))
    hNm1 = sp.diags(h(levels - 1))
    hNp1 = sp.diags(h(levels + 1))
    assert abs((Adag @ hN - hNm1 @ Adag)).max() < 1e-13
    assert abs((hN @ Adag - Adag @ hNp1)).max() < 1e-13
    assert abs((A @ hNm1 - hN @ A)).max() < 1e-13
    assert abs((hNp1 @ A - A @ hN)).max() < 1e-13


def test_lattice_geometry_and_neighbors():
    chain = LatticeConfig(1, 4, "chain", 1.0, 1)
    assert chain.neighbor_pairs() == [(0, 1), (1, 2), (2, 3)]
    cycle = LatticeConfig(1, 4, "cycle", 1.0, 1)
    assert (0, 3) in cycle.neighbor_pairs()
    box = LatticeConfig(2, 2, "box", 1.0, 1)
    assert box.n_sites == 4 and box.dim == 16
    assert len(box.neighbor_pairs()) == 4
    with pytest.raises(ValueError):
        LatticeConfig(2, 2, "cycle", 1.0, 1)
    # the pairs at unit l1 distance, in lexicographic order
    for lat, count in ((LatticeConfig(2, 16, "box", 1.0, 1), 480),
                       (LatticeConfig(3, (2, 3, 4), "box", 1.0, 1), 46)):
        sites = lat.sites
        want = [(a, b) for a, b in itertools.combinations(range(lat.n_sites), 2)
                if sum(abs(x - y) for x, y in zip(sites[a], sites[b])) == 1]
        assert lat.neighbor_pairs() == want and len(want) == count
    ring2 = LatticeConfig(1, 2, "cycle", 1.0, 1)
    assert ring2.neighbor_pairs() == [(0, 1)]
    assert ring2.ordered_neighbor_pairs() == [(0, 1), (1, 0)]


def test_clean_projector_and_identity_action_outside_support(rng):
    lat = LatticeConfig(1, 2, "chain", 1.0, 2)
    kept = clean_projector(lat, 1)
    assert np.all(lat.occupations()[kept] <= 1)
    # embedded operator acts as identity outside its support: partial-trace
    # comparison on random vectors over the other mode
    a0 = site_operator(lat, "a", 0).toarray()
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    A, _, _ = build_mode_ops(2)
    lhs = a0 @ np.kron(v, w)
    rhs = np.kron(A.toarray() @ v, w)
    assert np.allclose(lhs, rhs)


@pytest.mark.parametrize("lattice", [(1, 3, "chain", 2), (1, 4, "cycle", 3),
                                     (2, 2, "box", 2)],
                         ids=["chain", "cycle", "box"])
def test_kept_states_are_exactly_those_of_the_occupation_rule(lattice):
    dims, extent, geometry, n_max = lattice
    lat = LatticeConfig(dims, extent, geometry, 1.0, n_max)
    occ = lat.occupations()
    # every margin up to one above n_max, whose rule keeps no state
    for margin in range(n_max + 2):
        keep = clean_projector(lat, margin)
        assert keep.dtype.kind == "i"
        assert keep.tolist() == [i for i, row in enumerate(occ)
                                 if max(row) <= n_max - margin]
    for max_total in range(-1, lat.n_sites * n_max + 1):
        keep = total_sector_projector(lat, max_total)
        assert keep.dtype.kind == "i"
        assert keep.tolist() == [i for i, row in enumerate(occ)
                                 if sum(row) <= max_total]


@pytest.mark.parametrize("make", [
    lambda: (build_model(ModelSpec("zjk_quadratic", LatticeConfig(
        1, 3, "chain", 1.0, 2))).hamiltonian, [1, 4, 9, 13, 26]),
    lambda: (LatticeOperator(_csr_with_duplicates(), {0},
                             LatticeConfig(1, 1, "chain", 1.0, 2)), [0, 2])],
    ids=["hamiltonian", "duplicates"])
def test_compressed_is_the_dense_block_bit_for_bit(make):
    op, rows = make()
    before = _arrays(op.matrix)
    for keep in (np.array(rows), clean_projector(op.lattice, 1),
                 np.array([], dtype=np.int64)):
        want = op.toarray()[np.ix_(keep, keep)]
        got = compressed(op, keep)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert _same_arrays(_arrays(op.matrix), before)


def _csr_with_duplicates():
    # row 0 stores column 2 twice and its columns out of order
    data = np.array([1.5 - 2j, 0.25j, -3.0, 1e-3, 2.0 + 1j])
    indices = np.array([2, 0, 2, 1, 1])
    indptr = np.array([0, 3, 4, 5])
    return sp.csr_matrix((data, indices, indptr), shape=(3, 3))


@pytest.mark.parametrize("make", [
    lambda: sp.random(40, 40, density=0.2, random_state=5, format="csr")
    + 1j * sp.random(40, 40, density=0.2, random_state=6, format="csr"),
    _csr_with_duplicates,
    lambda: sp.csr_matrix((7, 7))], ids=["canonical", "duplicates", "zero"])
def test_fro_is_scipy_sparse_norm_bit_for_bit(make):
    from scipy.sparse.linalg import norm
    m = make()
    before = _arrays(m)
    assert _fro(m) == float(norm(make()))
    assert _same_arrays(_arrays(m), before)
    assert _fro(m) == float(norm(m))


def _same_bits(x: LatticeOperator, y: LatticeOperator) -> bool:
    return np.array_equal(x.toarray(), y.toarray()) and x.support == y.support


@pytest.mark.parametrize("coeffs", [None, 0.7 - 0.2j, [0.5, -1.0, 2.0, 1j],
                                    np.array([0.3, 1.5, -0.25, 0.75])],
                         ids=["none", "scalar", "list", "ndarray"])
def test_combination_scales_and_adds_from_left_to_right(coeffs):
    # sum Z* Z of zjk_quadratic on a 3-chain: four terms whose patterns
    # overlap, so the order of the additions shows in the roundoff
    lat = LatticeConfig(1, 3, "chain", 1.0, 2)
    built = build_model(ModelSpec("zjk_quadratic", lat,
                                  params={"kappa": 0.9, "eps": 1.3}))
    ops = [d.X.dag() @ d.X for d in built.directions]
    cs = [coeffs] * len(ops) if np.isscalar(coeffs) else coeffs
    terms = ops if coeffs is None else [op * c for op, c in zip(ops, cs)]
    want = terms[0]
    for term in terms[1:]:
        want = want + term
    assert _same_bits(combination(ops, coeffs), want)
    if coeffs is None:
        assert _same_bits(combination(ops), built.hamiltonian)


def test_product_multiplies_from_left_to_right():
    lat = LatticeConfig(1, 2, "chain", 1.0, 3)
    a = [site_operator(lat, "a", s) for s in range(2)]
    ops = [a[0], a[1].dag(), a[0].dag() * 0.5, a[1]]
    assert _same_bits(product(ops), ((ops[0] @ ops[1]) @ ops[2]) @ ops[3])
    assert product(ops[:1]) is ops[0]
