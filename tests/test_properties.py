"""Property tests of the assembled generator over random small instances.

Each example is one catalog model on one or two sites with n_max 2-4,
beta in [0.5, 2], weights nu and mu, and a kernel with steepness n in
{1, 2} and Gaussian width sigma in {0, 0.5}.  The kinds are those whose
modular frequencies the 16-node quadrature grid resolves at these sizes
(mean_field covers a non-diagonal Gibbs state); the hopping model
zjk_quadratic at n_max 4, beta 2 is left out because its frequencies, up
to 22, need a finer grid than the default.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from fockdirichlet import (AdmissibleKernel, LatticeConfig, assemble_generator,
                           identity_operator, vec)
from fockdirichlet.models import ModelSpec, build_model

EXAMPLES = 30


@st.composite
def instances(draw):
    sites = draw(st.sampled_from([1, 2]))
    kinds = ["mean_field"] + (["z_power", "y_power", "y_field"] if sites == 2 else [])
    kind = draw(st.sampled_from(kinds))
    n_max = draw(st.integers(2, 4))
    beta = draw(st.floats(0.5, 2.0))
    nu, mu = draw(st.sampled_from([(1.0, 1.0), (0.5, 0.0), (0.0, 1.5),
                                   (2.0, 0.25)]))
    kernel = AdmissibleKernel(0.0, draw(st.sampled_from([1, 2])),
                              draw(st.sampled_from([0.0, 0.5])))
    lattice = LatticeConfig(1, sites, "chain", 1.0, n_max)
    built = build_model(ModelSpec(kind, lattice, beta=beta, nu=nu, mu=mu))
    return built, kernel


def _assemble(built, kernel, path):
    return assemble_generator(built.directions, built.metric, kernel,
                              path=path).matrix


@settings(max_examples=EXAMPLES)
@given(instances())
def test_eigen_path_equals_quadrature_path(instance):
    built, kernel = instance
    Ke = _assemble(built, kernel, "eigen")
    Kq = _assemble(built, kernel, "quadrature")
    scale = max(1.0, abs(Ke).max())
    assert abs(Ke - Kq).max() <= 1e-10 * scale


@settings(max_examples=EXAMPLES)
@given(instances(), st.sampled_from(["eigen", "quadrature"]))
def test_generator_annihilates_identity(instance, path):
    built, kernel = instance
    K = _assemble(built, kernel, path)
    one = vec(identity_operator(built.state.lattice))
    assert np.linalg.norm(K @ one) <= 1e-10 * max(1.0, abs(K).max())


@settings(max_examples=EXAMPLES)
@given(instances(), st.sampled_from(["eigen", "quadrature"]))
def test_generator_is_kms_symmetric(instance, path):
    # G K is Hermitian for the Gram matrix G = (rho^1/2)^T (x) rho^1/2
    built, kernel = instance
    K = _assemble(built, kernel, path).toarray()
    r = built.state.power(0.5)
    r = r.toarray() if sp.issparse(r) else r
    GK = np.kron(r.T, r) @ K
    assert np.max(np.abs(GK - GK.conj().T)) <= 1e-10 * max(1.0, np.max(np.abs(GK)))
