import numpy as np
import pytest

from fockdirichlet import (BogolubovParams, LadderPolynomial, LatticeConfig,
                           bogolubov_pair, commutator, identity_operator,
                           minkowski_field, number_polynomial,
                           quasi_invariance_rep, site_operator)
from fockdirichlet.bogolubov import random_polynomial
from fockdirichlet.fock import build_mode_ops, clean_projector, compressed


def clean_norm(op, lat, margin=2):
    return np.linalg.norm(compressed(op, clean_projector(lat, margin)), 2)


def test_identity_transform():
    lat = LatticeConfig(1, 1, "chain", 1.0, 4)
    a, adag, rep = bogolubov_pair(BogolubovParams(1.0, 0.0), lat)
    A = site_operator(lat, "a", 0)
    assert (a - A).fro_norm() < 1e-14
    assert rep.clean_norm < 1e-14


def test_normalization_enforced():
    with pytest.raises(ValueError):
        BogolubovParams(1.0, 0.5)


def test_boost_ccr_clean_subspace():
    lat = LatticeConfig(1, 1, "chain", 1.0, 6)
    a, adag, rep = bogolubov_pair(BogolubovParams.boost(0.3), lat)
    assert rep.clean_norm < 1e-10
    assert rep.full_norm > 1.0  # leakage concentrates at the cutoff


def test_boost_group_law():
    for s, t in [(0.3, 0.2), (1.1, -0.4), (0.05, 0.05)]:
        ab = BogolubovParams.boost(s).compose(BogolubovParams.boost(t))
        direct = BogolubovParams.boost(s + t)
        assert ab.tau == pytest.approx(direct.tau, abs=1e-13)
        assert ab.theta == pytest.approx(direct.theta, abs=1e-13)


def test_boost_pair_ccr_at_each_site():
    # a diagonal multimode transform is the single-mode boost at every site
    lat = LatticeConfig(1, 2, "chain", 1.0, 5)
    for site in range(lat.n_sites):
        a, adag, _ = bogolubov_pair(BogolubovParams.boost(0.2), lat, site)
        defect = commutator(a, adag) - identity_operator(lat)
        assert clean_norm(defect, lat, 2) < 1e-10


def test_minkowski_relation():
    lat = LatticeConfig(1, 2, "chain", 1.0, 5)
    S = minkowski_field(1.0, [0.0, 0.0], lat)
    I = identity_operator(lat)
    assert clean_norm(commutator(S, S.dag()) - I, lat, 2) < 1e-10
    S2 = minkowski_field(2.0, [1.0, 1.0], lat)
    assert clean_norm(commutator(S2, S2.dag()) - I * 2.0, lat, 2) < 1e-10
    # light cone: tau^2 = |x|^2
    S0 = minkowski_field(np.sqrt(2), [1.0, 1.0], lat)
    assert clean_norm(commutator(S0, S0.dag()), lat, 2) < 1e-10


def test_quasi_invariance_identity_at_s0():
    rep = quasi_invariance_rep(number_polynomial(), BogolubovParams.boost,
                               number_polynomial(), 0.0, 6)
    assert rep.unitarity_residual < 1e-12
    assert rep.partition_shift < 1e-14


def test_quasi_invariance_residual_trend():
    residuals = []
    shifts = []
    for nm in (4, 6, 8):
        rep = quasi_invariance_rep(number_polynomial(), BogolubovParams.boost,
                                   number_polynomial(), 0.1, nm)
        residuals.append(rep.unitarity_residual)
        shifts.append(rep.partition_shift)
    assert residuals[0] >= residuals[1] >= residuals[2]
    # Z_s = Z up to truncation leakage, shrinking with the cutoff
    assert shifts[0] < 0.05 and shifts[2] < shifts[0]


def _gibbs_power(H, z):
    """rho^z for rho = exp(-H)/Z, from eigh."""
    w, V = np.linalg.eigh(H)
    log_p = -w - np.log(np.exp(-w).sum())
    return (V * np.exp(z * log_p)) @ V.conj().T


@pytest.mark.parametrize("s", [0.0, 0.1])
def test_quasi_invariance_value_is_the_sandwich(s):
    # V_s(f) = rho^{-1/4} rho_s^{1/4} f(a_s, a_s*) rho_s^{1/4} rho^{-1/4},
    # which is f(A, A*) itself at s = 0
    n_max, U = 6, number_polynomial()
    f = random_polynomial(np.random.default_rng(3))
    rep = quasi_invariance_rep(U, BogolubovParams.boost, f, s, n_max)
    A, Adag, _ = (m.toarray() for m in build_mode_ops(n_max))
    params = BogolubovParams.boost(s)
    a = params.tau * A + params.theta * Adag
    adag = a.conj().T
    r0_inv = _gibbs_power(U.evaluate(A, Adag), -0.25)
    rs = _gibbs_power(U.evaluate(a, adag), 0.25)
    expected = (f.evaluate(A, Adag) if s == 0.0
                else r0_inv @ rs @ f.evaluate(a, adag) @ rs @ r0_inv)
    assert np.abs(rep.value - expected).max() <= 1e-12 * np.abs(expected).max()


def test_quasi_invariance_rejects_bad_inputs():
    bad_path = lambda s: BogolubovParams.boost(s + 0.2)
    with pytest.raises(ValueError):
        quasi_invariance_rep(number_polynomial(), bad_path,
                             number_polynomial(), 0.1, 4)
    skew = LadderPolynomial(terms=((1.0, ("a",)),))
    with pytest.raises(ValueError):
        quasi_invariance_rep(skew, BogolubovParams.boost,
                             number_polynomial(), 0.1, 4)
