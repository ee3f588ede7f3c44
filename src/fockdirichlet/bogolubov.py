"""CCR-preserving linear mode transformations and quasi-invariance checks.

The single-mode transform a = tau A + theta A* with |tau|^2 - |theta|^2 = 1
keeps the CCR; hyperbolic boosts (cosh s, sinh s) compose by parameter
addition.  Because theta A* pushes weight toward the cutoff, every statement
is quoted on the clean subspace (bottom n_max - 1 levels) together with the
full-space leakage.

`quasi_invariance_rep` implements the sandwich map

    V_s(f(A, A*)) = rho^{-1/4} rho_s^{1/4} f(a_s, a_s*) rho_s^{1/4} rho^{-1/4}

with rho = exp(-U(A, A*))/Z and rho_s its transformed counterpart, that is
V_s = H^-1 H_s in the KMS frames of the two states (`KmsMetric.half`), and
reports how far V_s is from a KMS isometry on random polynomial pairs.  At
finite truncation the residual is only expected to shrink with n_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import LatticeConfig, LatticeOperator, build_mode_ops, clean_projector, \
    combination, compressed, embed, identity_operator, site_operator
from .state import KmsMetric, gibbs_state

QI_PAIRS = 12       # random polynomial pairs of the quasi-invariance check
POLY_MAX_LEN = 2    # longest ladder word of `random_polynomial`


@dataclass(frozen=True)
class BogolubovParams:
    tau: complex
    theta: complex

    def __post_init__(self):
        norm = abs(self.tau) ** 2 - abs(self.theta) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"|tau|^2 - |theta|^2 = {norm}, must equal 1")

    @classmethod
    def boost(cls, s: float) -> "BogolubovParams":
        return cls(np.cosh(s), np.sinh(s))

    def compose(self, first: "BogolubovParams") -> "BogolubovParams":
        """Parameters of self applied after `first` (exact hyperbolic law
        for real boosts)."""
        tau = self.tau * first.tau + self.theta * np.conj(first.theta)
        theta = self.tau * first.theta + self.theta * np.conj(first.tau)
        return BogolubovParams(tau, theta)


@dataclass(frozen=True)
class CcrDefectReport:
    clean_norm: float       # ||[a, a*] - 1|| on levels 0 .. n_max-2
    full_norm: float        # same on the whole truncated space
    n_max: int


def bogolubov_pair(params: BogolubovParams, lattice: LatticeConfig, site: int = 0):
    """Transformed ladder pair at one site, with its CCR defect report."""
    A1, Ad1, _ = build_mode_ops(lattice.n_max)
    a1 = params.tau * A1 + params.theta * Ad1
    a = embed(a1, site, lattice, "a")
    adag = a.dag()
    comm = (a @ adag - adag @ a) - identity_operator(lattice)
    report = CcrDefectReport(
        clean_norm=float(np.linalg.norm(
            compressed(comm, clean_projector(lattice, 2)), 2))
        if lattice.n_max >= 2 else float("nan"),
        full_norm=comm.norm(),
        n_max=lattice.n_max)
    return a, adag, report


def minkowski_field(tau: complex, x, lattice: LatticeConfig) -> LatticeOperator:
    """S = tau (1/sqrt(n)) sum_i A_i + sum_i x_i A_i*, so that on the clean
    subspace [S, S*] = (|tau|^2 - |x|^2) id."""
    x = np.asarray(x, dtype=complex)
    n = len(x)
    if n < 1 or n > lattice.n_sites:
        raise ValueError("need 1 <= len(x) <= number of lattice modes")
    A = [site_operator(lattice, "a", i) for i in range(n)]
    out = combination([Ai * (tau / np.sqrt(n)) + Ai.dag() * complex(xi)
                       for Ai, xi in zip(A, x)])
    out.label = "S"
    return out


# --------------------------------------------------------------------------
# ladder polynomials and the quasi-invariance representation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LadderPolynomial:
    """sum_k c_k * word_k with each word a tuple over {'a', 'c'}
    (annihilator / creator), evaluated left to right."""

    terms: tuple[tuple[complex, tuple[str, ...]], ...]

    def evaluate(self, A: np.ndarray, Adag: np.ndarray) -> np.ndarray:
        d = A.shape[0]
        out = np.zeros((d, d), dtype=complex)
        for coeff, word in self.terms:
            m = np.eye(d, dtype=complex)
            for sym in word:
                m = m @ (A if sym == "a" else Adag)
            out += coeff * m
        return out


def number_polynomial() -> LadderPolynomial:
    return LadderPolynomial(terms=((1.0, ("c", "a")),))


def random_polynomial(rng) -> LadderPolynomial:
    words = [()]
    for length in range(1, POLY_MAX_LEN + 1):
        words += [w for w in _all_words(length)]
    coeffs = rng.standard_normal(len(words)) + 1j * rng.standard_normal(len(words))
    return LadderPolynomial(terms=tuple((complex(c), w) for c, w in zip(coeffs, words)))


def _all_words(length):
    import itertools
    return list(itertools.product("ac", repeat=length))


@dataclass
class QuasiInvarianceReport:
    n_max: int
    s: float
    unitarity_residual: float     # max over pairs of |<Vf,Vg> - <f,g>| / scale
    partition_shift: float        # |Z_s - Z| / Z
    value: np.ndarray             # V_s(f) for the supplied f


def quasi_invariance_rep(U: LadderPolynomial, path, f: LadderPolynomial,
                         s: float, n_max: int, *,
                         seed: int = 11) -> QuasiInvarianceReport:
    """Evaluate V_s(f) for a parameter path s -> BogolubovParams and measure
    the KMS-isometry residual over QI_PAIRS seeded random polynomial pairs.

    omega and omega_s are the one-mode Gibbs states of U(A, A*) and
    U(a_s, a_s*) at beta 1 (`gibbs_state` refuses a non-Hermitian U).  With
    V_s = H^-1 H_s in their KMS frames, <V_s F, V_s G>_omega equals
    <F_s, G_s>_{omega_s}, so the residual compares the two metrics.

    path(0) must be the identity transform.
    """
    p0 = path(0.0)
    if abs(p0.tau - 1.0) > 1e-12 or abs(p0.theta) > 1e-12:
        raise ValueError("path(0) must be the identity transform")
    params = path(s)
    lattice = LatticeConfig(1, 1, "chain", 1.0, n_max)
    A, Adag, _ = build_mode_ops(n_max)
    A, Adag = A.toarray(), Adag.toarray()
    a = params.tau * A + params.theta * Adag
    adag = a.conj().T
    m0, ms = (KmsMetric(gibbs_state(LatticeOperator(U.evaluate(x, xd), {0},
                                                    lattice, "U"), 1.0))
              for x, xd in ((A, Adag), (a, adag)))

    rng = np.random.default_rng(seed)
    pairs = [(random_polynomial(rng), random_polynomial(rng))
             for _ in range(QI_PAIRS)]

    def stacks(x, xd):  # the f's and the g's of the pairs, as vec columns
        return [np.stack([p.evaluate(x, xd).reshape(-1, order="F")
                          for p in polys], axis=1) for polys in zip(*pairs)]

    (F, G), (Fs, Gs) = stacks(A, Adag), stacks(a, adag)
    scale = np.sqrt(np.abs(m0.vec_inner(F, F)) * np.abs(m0.vec_inner(G, G)))
    residual = np.abs(ms.vec_inner(Fs, Gs) - m0.vec_inner(F, G))
    value = m0.half(ms.half(f.evaluate(a, adag).reshape(-1, order="F")), -1)
    return QuasiInvarianceReport(
        n_max=n_max, s=s,
        unitarity_residual=float(np.max(residual / np.maximum(scale, 1e-300))),
        partition_shift=float(abs(np.expm1(ms.state.log_Z - m0.state.log_Z))),
        value=value.reshape(A.shape, order="F"))
