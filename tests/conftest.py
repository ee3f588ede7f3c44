import numpy as np
import pytest
from hypothesis import settings

# property tests run the same examples on every run
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

from fockdirichlet import (AdmissibleKernel, KmsMetric, LatticeConfig,
                           gibbs_state, site_operator)


@pytest.fixture
def single_mode():
    """One site, n_max = 4, H = N, beta = 1."""
    lat = LatticeConfig(1, 1, "chain", 1.0, 4)
    state = gibbs_state(site_operator(lat, "n", 0), 1.0)
    return lat, state, KmsMetric(state)


@pytest.fixture
def two_site():
    """Two sites, n_max = 2, product state."""
    lat = LatticeConfig(1, 2, "chain", 1.0, 2)
    H = site_operator(lat, "n", 0) + site_operator(lat, "n", 1)
    state = gibbs_state(H, 1.0)
    return lat, state, KmsMetric(state)


@pytest.fixture
def kernel():
    return AdmissibleKernel()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_op(rng, lat):
    from fockdirichlet import LatticeOperator
    D = lat.dim
    m = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    return LatticeOperator(m, frozenset(range(lat.n_sites)), lat, "R")
