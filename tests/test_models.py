import re
from dataclasses import replace

import numpy as np
import pytest

from fockdirichlet import (AdmissibleKernel, DerivationDirection, KmsMetric,
                           LatticeConfig, ModelSpec, assemble_generator,
                           build_model, commutator, dirichlet_energy,
                           identity_operator, mean_field_n_coefficients,
                           modular_flow, modular_orbit, site_operator,
                           total_sector_projector, verify_algebra)
from fockdirichlet.fock import compressed
from fockdirichlet.models import (KINDS, PRODUCT_KINDS, RECURSION_ORDER,
                                  OrbitUnsupportedError, one_particle_matrix)


def clean_block_norm(op, lattice, margin):
    from fockdirichlet.fock import clean_projector
    block = compressed(op, clean_projector(lattice, margin))
    return np.linalg.norm(block, 2) if block.size else 0.0


def test_mean_field_collective_ccr():
    lat = LatticeConfig(1, 2, "chain", 1.0, 3)
    rep = verify_algebra(build_model(ModelSpec("mean_field", lat)))
    assert rep.passed, [(c.name, c.residual) for c in rep.checks]
    built = build_model(ModelSpec("mean_field", lat))
    X = built.directions[0].X
    res = clean_block_norm(commutator(X, X.dag()) - identity_operator(lat),
                           lat, 1)
    assert res < 1e-12


def test_z_field_ccr_constant():
    lat = LatticeConfig(1, 2, "chain", 1.0, 2)
    spec = ModelSpec("z_field", lat, params={"kappa": [1.0, 1.0]})
    rep = verify_algebra(build_model(spec))
    assert rep.passed
    built = build_model(spec)
    Z = built.directions[0].X
    res = clean_block_norm(commutator(Z, Z.dag()) - identity_operator(lat) * 2.0,
                           lat, 1)
    assert res < 1e-12


def test_z_power_commutator_polynomial():
    # [A^2, A+^2] = 4N + 2 on clean levels 0..n_max-2
    lat = LatticeConfig(1, 1, "chain", 1.0, 4)
    spec = ModelSpec("z_power", lat, params={"n": 2, "m": 2})
    rep = verify_algebra(build_model(spec))
    assert rep.passed, [(c.name, c.residual) for c in rep.checks]
    a = site_operator(lat, "a", 0)
    n_op = site_operator(lat, "n", 0)
    lhs = commutator(a @ a, a.dag() @ a.dag())
    rhs = n_op * 4.0 + 2.0
    assert clean_block_norm(lhs - rhs, lat, 2) < 1e-12


def test_w_ops_commutation_relations():
    lat = LatticeConfig(1, 3, "chain", 1.0, 2)
    spec = ModelSpec("w_ops", lat, params={"n": 1, "m": 1, "selfadjoint": True})
    rep = verify_algebra(build_model(spec))
    assert rep.passed, [(c.name, c.residual, c.note) for c in rep.checks]
    # explicit instance: [W_01, W_12] = A_0+ A_2 - A_2+ A_0
    ad = [site_operator(lat, "adag", s) for s in range(3)]
    a = [site_operator(lat, "a", s) for s in range(3)]
    W01 = ad[0] @ a[1] + ad[1] @ a[0]
    W12 = ad[1] @ a[2] + ad[2] @ a[1]
    V02 = ad[0] @ a[2] - ad[2] @ a[0]
    assert clean_block_norm(commutator(W01, W12) - V02, lat, 2) < 1e-12
    # same-pair commutator vanishes identically
    assert commutator(W01, W01.dag()).fro_norm() < 1e-13


def test_g_model_identities():
    lat = LatticeConfig(1, 1, "chain", 1.0, 10)
    spec = ModelSpec("g_model", lat, params={"kappa": np.sqrt(2), "xi": 1.0})
    rep = verify_algebra(build_model(spec))
    assert rep.passed, [(c.name, c.residual) for c in rep.checks]
    # R = 1 here: [G, N_c] - 2G vanishes on the clean block
    a = site_operator(lat, "a", 0)
    Y = a * np.sqrt(2) + a.dag()
    G = (Y @ Y) * 0.5
    Nc = Y.dag() @ Y
    assert clean_block_norm(commutator(G, Nc) - G * 2.0, lat, 4) < 1e-10


def test_y_power_ccr_uses_product_polynomial():
    lat = LatticeConfig(1, 2, "chain", 1.0, 4)
    spec = ModelSpec("y_power", lat, params={"n": 2, "m": 1})
    rep = verify_algebra(build_model(spec))
    assert rep.passed, [(c.name, c.residual, c.note) for c in rep.checks]


def test_zjk_number_conservation_exact():
    lat = LatticeConfig(1, 2, "chain", 1.0, 2)
    spec = ModelSpec("zjk_quadratic", lat, params={"kappa": 1.0, "eps": 1.0})
    rep = verify_algebra(build_model(spec))
    assert rep.passed
    assert rep.checks[0].residual < 1e-12


def test_invariant_aij_modular_invariance():
    lat = LatticeConfig(1, 3, "chain", 1.0, 2)
    spec = ModelSpec("invariant_aij", lat,
                     params={"sites_i": [0], "sites_j": [1]})
    rep = verify_algebra(build_model(spec))
    assert rep.passed
    built = build_model(spec)
    X = built.directions[0].X
    for t in (0.1, 0.7, 2.3):
        assert (modular_flow(X, built.state, t) - X).fro_norm() < 1e-13


def test_mean_field_n_recursion_integer_exact():
    # three sites make the reduced collective family linearly independent
    lat = LatticeConfig(1, 3, "chain", 1.0, 6)
    spec = ModelSpec("mean_field_n", lat, params={"n": 3, "eps": 0.5})
    rep = verify_algebra(build_model(spec))
    assert rep.passed, [(c.name, c.residual, c.note) for c in rep.checks]
    assert all("coefficients" in c.note for c in rep.checks
               if c.name.startswith("recursion"))
    # the recursion table matches the explicit low-order expansions
    c = mean_field_n_coefficients(3, 3)
    assert c[1] == {1: -3}
    assert c[2] == {1: 3, 2: 6}
    assert c[3] == {1: -3, 2: -18, 3: -6}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mean_field_n_coefficients_follow_their_recursion(n):
    # c[k+1][l] = -l c[k][l] - (n - l + 1) c[k][l-1] from c[0] = {0: 1},
    # with only the nonzero integer entries kept
    c = mean_field_n_coefficients(n, RECURSION_ORDER)
    assert len(c) == RECURSION_ORDER + 1 and c[0] == {0: 1}
    for k in range(RECURSION_ORDER):
        want = {l: -l * c[k].get(l, 0) - (n - l + 1) * c[k].get(l - 1, 0)
                for l in range(n + 1)}
        assert c[k + 1] == {l: v for l, v in want.items() if v}
        assert all(type(v) is int for v in c[k + 1].values())


def test_mean_field_n_series_orbit_matches_flow():
    lat = LatticeConfig(1, 2, "chain", 1.0, 6)
    spec = ModelSpec("mean_field_n", lat, params={"n": 2, "eps": 0.5})
    built = build_model(spec)
    orbit = modular_orbit(built, 0)
    Q = total_sector_projector(lat, lat.n_max)
    for t in (0.1, 0.7, 2.3):
        flowed = modular_flow(built.directions[0].X, built.state, t)
        diff = compressed(orbit.reconstruct(t) - flowed, Q)
        assert np.linalg.norm(diff, 2) < 1e-10


def test_orbit_reconstruction_product_models():
    lat = LatticeConfig(1, 2, "chain", 1.0, 3)
    specs = [
        ModelSpec("z_field", lat, params={"kappa": [1.0, 0.5]}),
        ModelSpec("y_field", lat, params={"kappa": [1.0], "xi": [0.5]}),
        ModelSpec("w_ops", lat, params={"n": 1, "m": 2}),
        ModelSpec("z_power", lat, params={"n": 1, "m": 2}),
        ModelSpec("y_power", lat, params={"n": 1, "m": 2}),
        ModelSpec("invariant_aij", lat, params={"sites_i": [0], "sites_j": [1]}),
    ]
    for spec in specs:
        built = build_model(spec)
        orbit = modular_orbit(built, 0)
        X = built.directions[0].X
        for t in (0.1, 0.7, 2.3):
            recon = orbit.reconstruct(t)
            flowed = modular_flow(X, built.state, t)
            assert (recon - flowed).fro_norm() < 1e-10, spec.kind


@pytest.mark.parametrize("lattice, params, nu, mu", [
    (LatticeConfig(1, 3, "cycle", 1.0, 2), {"kappa": [1, 0.5]}, 1.0, 1.0),
    (LatticeConfig(1, 3, "chain", 1.0, 2),
     {"kappa": [1, -0.3j], "xi": [0.4, 1]}, 0.7, 1.3)], ids=["cycle", "chain"])
def test_z_field_components_give_the_decomposed_generator(lattice, params, nu, mu):
    # each z_field direction carries its one component (Z, 1); the generator
    # assembled from it is the one of the numerical decomposition, bit for bit
    built = build_model(ModelSpec("z_field", lattice, nu=nu, mu=mu, params=params))
    for d in built.directions:
        (op, w), = d.components
        assert op is d.X and w == 1.0
    bare = [replace(d, components=None) for d in built.directions]
    K = assemble_generator(built.directions, built.metric, AdmissibleKernel())
    K0 = assemble_generator(bare, built.metric, AdmissibleKernel())
    assert abs(K.matrix - K0.matrix).max() == 0.0


def test_y_power_orbit_components():
    # alpha_t(Y) = e^{i beta t} A_j - e^{-2 i beta t} A_k+^2
    lat = LatticeConfig(1, 2, "chain", 1.0, 3)
    spec = ModelSpec("y_power", lat, params={"n": 1, "m": 2})
    built = build_model(spec)
    orbit = modular_orbit(built, 0)
    freqs = sorted(w for _, w in orbit.components)
    assert freqs == pytest.approx([-2.0, 1.0])


def test_one_particle_reduction():
    lat = LatticeConfig(1, 2, "chain", 1.0, 3)
    spec = ModelSpec("zjk_quadratic", lat, params={"kappa": 1.0, "eps": 1.0})
    h = one_particle_matrix(spec)
    assert np.allclose(h, [[2, 2], [2, 2]])
    built = build_model(spec)
    orbit = modular_orbit(built, 0)
    Q = total_sector_projector(lat, lat.n_max)
    for t in (0.3, 1.1):
        recon = orbit.reconstruct(t)
        flowed = modular_flow(built.directions[0].X, built.state, t)
        diff = compressed(recon - flowed, Q)
        assert np.linalg.norm(diff, 2) < 1e-8
    assert "sector <= n_max" in orbit.note
    # the mean-field orbit alpha_t(X) = e^{i beta t} X is exact on the same
    # sector only: above it the cutoff breaks [X* X, X] = -X
    built = build_model(ModelSpec("mean_field", lat))
    orbit = modular_orbit(built, 0)
    assert "sector <= n_max" in orbit.note
    diff = orbit.reconstruct(0.7) - modular_flow(built.directions[0].X,
                                                 built.state, 0.7)
    assert np.abs(compressed(diff, Q)).max() < 1e-13
    assert abs(diff.matrix).max() > 1.0


# the orbit tolerance of each kind that is exact only on the sector of total
# occupation <= n_max; the product kinds' orbits are exact on the full space
SECTOR_ORBIT_TOL = {"mean_field": 1e-13, "mean_field_n": 1e-10,
                    "zjk_quadratic": 1e-8}
ORBIT_PARAMS = {"mean_field_n": {"n": 3},
                "zjk_quadratic": {"kappa": [1, 0.5, 0.3]},
                "invariant_aij": {"sites_i": [0], "sites_j": [1]}}


@pytest.mark.parametrize("kind", list(KINDS))
def test_every_kind_orbit_matches_modular_flow(kind):
    lat = LatticeConfig(1, 3 if kind == "zjk_quadratic" else 2, "chain", 1.0, 4)
    spec = ModelSpec(kind, lat, params=ORBIT_PARAMS.get(kind, {}))
    built = build_model(spec)
    if kind == "g_model":
        with pytest.raises(OrbitUnsupportedError):
            modular_orbit(built, 0)
        return
    Q = total_sector_projector(lat, lat.n_max)
    for index, d in enumerate(built.directions):
        orbit = modular_orbit(built, index)
        for t in (0.1, 0.7, 2.3):
            diff = orbit.reconstruct(t) - modular_flow(d.X, built.state, t)
            if kind in PRODUCT_KINDS:
                assert diff.fro_norm() < 1e-10
            else:
                assert np.linalg.norm(compressed(diff, Q), 2) \
                    < SECTOR_ORBIT_TOL[kind]
    if kind == "mean_field_n":
        assert sorted(w for _, w in orbit.components) \
            == list(range(spec.params["n"] + 1))


def test_product_kind_orbits_are_their_direction_components():
    lat = LatticeConfig(1, 3, "chain", 1.0, 2)
    for kind in PRODUCT_KINDS:
        built = build_model(ModelSpec(kind, lat,
                                      params=ORBIT_PARAMS.get(kind, {})))
        assert not hasattr(built, "orbits")
        for index, d in enumerate(built.directions):
            assert modular_orbit(built, index).components is d.components


def test_mean_field_orbit_is_formed_from_its_direction():
    lat = LatticeConfig(1, 2, "chain", 1.0, 3)
    built = build_model(ModelSpec("mean_field", lat))
    X = built.directions[0].X
    assert built.directions[0].components is None
    (op, w), = modular_orbit(built, 0).components
    assert op is X and w == 1.0
    assert modular_orbit(built, 0).note == (
        "alpha_t(X) = exp(i beta t) X; "
        "exact on the total-occupation sector <= n_max")
    # the state is the Gibbs state of the Hamiltonian the model keeps
    assert (built.hamiltonian - X.dag() @ X).fro_norm() == 0.0


def test_g_model_orbit_unsupported():
    lat = LatticeConfig(1, 1, "chain", 1.0, 4)
    built = build_model(ModelSpec("g_model", lat,
                                  params={"kappa": np.sqrt(2), "xi": 1.0}))
    with pytest.raises(OrbitUnsupportedError):
        modular_orbit(built, 0)


def test_selfadjoint_w_degeneration(kernel):
    # with m = n and W = W* the form annihilates W itself
    lat = LatticeConfig(1, 2, "chain", 1.0, 2)
    spec = ModelSpec("w_ops", lat, params={"n": 1, "m": 1, "selfadjoint": True})
    built = build_model(spec)
    K = assemble_generator(built.directions, built.metric, kernel)
    W = built.directions[0].X
    assert dirichlet_energy(W, K) < 1e-10
    assert np.linalg.norm(K.matrix @ np.asarray(W.toarray()).reshape(-1, order="F")) < 1e-10


@pytest.mark.parametrize("kind, params, n_max, check, margin", [
    ("w_ops", {}, 1, "w_commutator_(0, 1)_(0, 1)", 2),
    ("g_model", {}, 3, "g_gstar", 4),
    ("mean_field_n", {"n": 3}, 2, "power_ccr_site0_n3", 3),
], ids=["w_ops", "g_model", "mean_field_n"])
def test_check_without_a_clean_level_is_refused(kind, params, n_max, check,
                                               margin):
    # the check's margin leaves no occupation level <= n_max - margin
    lat = LatticeConfig(1, 1 if kind == "g_model" else 2, "chain", 1.0, n_max)
    built = build_model(ModelSpec(kind, lat, params=params))
    with pytest.raises(ValueError, match=re.escape(
            f"check {check!r} has margin {margin} and needs n_max >= "
            f"{margin}, got n_max {n_max}")):
        verify_algebra(built)


def test_model_validation_errors():
    lat = LatticeConfig(1, 2, "chain", 1.0, 2)
    with pytest.raises(ValueError):
        ModelSpec("nope", lat)
    with pytest.raises(ValueError):
        ModelSpec("mean_field_n", lat, params={"n": 1})
    with pytest.raises(ValueError):
        ModelSpec("z_power", lat, params={"n": 3, "m": 1})
    with pytest.raises(ValueError):
        ModelSpec("g_model", lat, params={"kappa": 0.0, "xi": 0.0})
    with pytest.raises(ValueError):
        ModelSpec("z_field", lat, params={"kappa": []})
    with pytest.raises(ValueError, match="nonempty xi"):
        ModelSpec("y_field", lat, params={"xi": []})
    with pytest.raises(ValueError, match="nonzero xi"):
        ModelSpec("z_field", lat, params={"kappa": [1.0], "xi": [0.0]})
    with pytest.raises(ValueError, match="unknown w_ops param 'ergodic_fix'"):
        ModelSpec("w_ops", lat, params={"ergodic_fix": True})
    with pytest.raises(ValueError):
        ModelSpec("invariant_aij", lat, params={"sites_i": [], "sites_j": [0]})


def test_model_params_are_checked_and_copied():
    lat = LatticeConfig(1, 2, "chain", 1.0, 2)
    with pytest.raises(ValueError, match="'mm'.*allowed: n, m, edges, half"):
        ModelSpec("z_power", lat, params={"mm": 2})
    with pytest.raises(ValueError, match="'ordred'"):
        ModelSpec("zjk_quadratic", lat, params={"edges": "ordred"})
    given = {"selfadjoint": True}
    spec = ModelSpec("w_ops", lat, params=given)
    assert given == {"selfadjoint": True}
    assert spec.params == {"n": 1, "m": 1, "selfadjoint": True,
                           "edges": "unordered"}
    # the n_max + 1 rerun rebuilds the spec from its filled params
    assert replace(spec, lattice=lat).params == spec.params


@pytest.mark.parametrize("kind, params, match", [
    ("z_field", {"kappa": 1.0}, "'kappa' must be a list of numbers"),
    ("y_field", {"xi": [1.0, "a"]}, "'xi' must be a list of numbers"),
    ("z_power", {"n": 1.5}, "'n' must be an integer"),
    ("w_ops", {"selfadjoint": 1}, "'selfadjoint' must be a boolean"),
    ("g_model", {"kappa": "1"}, "'kappa' must be a number"),
    ("mean_field_n", {"eps": 0.5j}, "eps in"),
    ("zjk_quadratic", {"kappa": [1.0, 1.0, 1.0]}, "list of 2 numbers"),
    ("invariant_aij", {"sites_i": [0.5], "sites_j": [1]}, "'sites_i' must be"),
], ids=["z_field-kappa", "y_field-xi", "z_power-n", "w_ops-selfadjoint",
        "g_model-kappa", "mean_field_n-eps", "zjk_quadratic-kappa",
        "invariant_aij-sites"])
def test_model_param_types_are_checked(kind, params, match):
    lat = LatticeConfig(1, 2, "chain", 1.0, 2)
    with pytest.raises(ValueError, match=match):
        ModelSpec(kind, lat, params=params)


def test_zjk_per_site_coefficients_build():
    lat = LatticeConfig(1, 2, "chain", 1.0, 2)
    spec = ModelSpec("zjk_quadratic", lat, params={"kappa": [1.0, 0.5], "eps": 2})
    Z = build_model(spec).directions[0].X
    a0, a1 = site_operator(lat, "a", 0), site_operator(lat, "a", 1)
    assert (Z - (a0 + a1 * 2.0)).fro_norm() < 1e-14


def test_g_model_defaults_admit_kappa_zero():
    # with xi at its default 1, kappa = 0 gives Y = A*, a valid model
    spec = ModelSpec("g_model", LatticeConfig(1, 1, "chain", 1.0, 8),
                     params={"kappa": 0})
    assert len(build_model(spec).directions) == 1
    rep = verify_algebra(build_model(spec))
    assert rep.passed, [(c.name, c.residual) for c in rep.checks]


@pytest.mark.parametrize("kind", list(KINDS))
def test_every_kind_at_its_defaults(kind):
    lat = LatticeConfig(1, 2, "chain", 1.0, 4)
    if kind == "invariant_aij":   # it has no default site sets
        with pytest.raises(ValueError, match="nonempty site sets"):
            ModelSpec(kind, lat)
        return
    spec = ModelSpec(kind, lat)
    assert build_model(spec).directions
    rep = verify_algebra(build_model(spec))
    assert rep.passed, [(c.name, c.residual, c.tol) for c in rep.checks]


def test_all_catalog_models_pass_verify():
    reports = {}
    lat2 = LatticeConfig(1, 2, "chain", 1.0, 2)
    lat2w = LatticeConfig(1, 2, "chain", 1.0, 3)
    lat1 = LatticeConfig(1, 1, "chain", 1.0, 6)
    cases = [
        ModelSpec("mean_field", lat2),
        ModelSpec("mean_field_n", LatticeConfig(1, 2, "chain", 1.0, 6),
                  params={"n": 2, "eps": 0.5}),
        ModelSpec("z_field", lat2, params={"kappa": [1.0, 0.5]}),
        ModelSpec("zjk_quadratic", lat2, params={"kappa": 1.0, "eps": 1.0}),
        ModelSpec("y_field", lat2, params={"kappa": [1.0], "xi": [0.5]}),
        ModelSpec("w_ops", LatticeConfig(1, 3, "chain", 1.0, 2),
                  params={"n": 1, "m": 1, "selfadjoint": True}),
        ModelSpec("z_power", lat2w, params={"n": 2, "m": 1}),
        ModelSpec("y_power", lat2w, params={"n": 1, "m": 2}),
        ModelSpec("g_model", lat1, params={"kappa": np.sqrt(2), "xi": 1.0}),
        ModelSpec("invariant_aij", LatticeConfig(1, 3, "chain", 1.0, 2),
                  params={"sites_i": [0], "sites_j": [1]}),
    ]
    for spec in cases:
        rep = verify_algebra(build_model(spec))
        reports[spec.kind] = rep
        assert rep.passed, (spec.kind,
                            [(c.name, c.residual, c.tol) for c in rep.checks])
