"""CCR-preserving linear mode transformations and quasi-invariance checks.

The single-mode transform a = tau A + theta A* with |tau|^2 - |theta|^2 = 1
keeps the CCR; hyperbolic boosts (cosh s, sinh s) compose by parameter
addition.  Because theta A* pushes weight toward the cutoff, every statement
is quoted on the clean subspace (bottom n_max - 1 levels) together with the
full-space leakage.

`quasi_invariance_rep` implements the sandwich map

    V_s(f(A, A*)) = rho^{-1/4} rho_s^{1/4} f(a_s, a_s*) rho_s^{1/4} rho^{-1/4}

with rho = exp(-U(A, A*))/Z and rho_s its transformed counterpart, and
reports how far V_s is from a KMS isometry on random polynomial pairs.  At
finite truncation the residual is only expected to shrink with n_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import LatticeConfig, LatticeOperator, build_mode_ops, clean_projector, \
    compressed, embed, identity_operator

QI_PAIRS = 12       # random polynomial pairs of the quasi-invariance check
POLY_MAX_LEN = 2    # longest ladder word of `random_polynomial`
HERM_TOL = 1e-10    # relative anti-Hermitian part U(A, A*) may carry


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
    from .fock import site_operator
    x = np.asarray(x, dtype=complex)
    n = len(x)
    if n < 1 or n > lattice.n_sites:
        raise ValueError("need 1 <= len(x) <= number of lattice modes")
    out = None
    for i in range(n):
        Ai = site_operator(lattice, "a", i)
        term = Ai * (tau / np.sqrt(n)) + Ai.dag() * complex(x[i])
        out = term if out is None else out + term
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
    condition_ratio: float        # eigenvalue spread of rho after 1/4 powers
    value: np.ndarray             # V_s(f) for the supplied f


def quasi_invariance_rep(U: LadderPolynomial, path, f: LadderPolynomial,
                         s: float, n_max: int, *,
                         seed: int = 11) -> QuasiInvarianceReport:
    """Evaluate V_s(f) for a parameter path s -> BogolubovParams and measure
    the KMS-isometry residual over QI_PAIRS seeded random polynomial pairs.

    path(0) must be the identity transform.
    """
    from scipy.linalg import eigh
    p0 = path(0.0)
    if abs(p0.tau - 1.0) > 1e-12 or abs(p0.theta) > 1e-12:
        raise ValueError("path(0) must be the identity transform")
    params = path(s)
    A, Adag, _ = build_mode_ops(n_max)
    A, Adag = A.toarray(), Adag.toarray()
    a = params.tau * A + params.theta * Adag
    adag = a.conj().T

    Um = U.evaluate(A, Adag)
    if np.linalg.norm(Um - Um.conj().T) > HERM_TOL * max(np.linalg.norm(Um), 1.0):
        raise ValueError("U(A, A*) is not Hermitian")
    Us = U.evaluate(a, adag)

    w0, V0 = eigh(Um)
    ws, Vs = eigh(Us)
    Z0 = float(np.exp(-w0).sum())
    Zs = float(np.exp(-ws).sum())

    def power(w, V, Z, z):
        return (V * np.exp(z * (-w - np.log(Z)))[None, :]) @ V.conj().T

    r0_quarter_inv = power(w0, V0, Z0, -0.25)
    rs_quarter = power(ws, Vs, Zs, 0.25)
    r0_half = power(w0, V0, Z0, 0.5)

    spread = float(np.exp((np.max(-w0) - np.min(-w0)) * 0.25))

    def vmap(F):
        return r0_quarter_inv @ rs_quarter @ F @ rs_quarter @ r0_quarter_inv

    def kms(F, G):
        return complex(np.trace(r0_half @ F.conj().T @ r0_half @ G))

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(QI_PAIRS):
        pf, pg = random_polynomial(rng), random_polynomial(rng)
        F, G = pf.evaluate(A, Adag), pg.evaluate(A, Adag)
        Fs, Gs = pf.evaluate(a, adag), pg.evaluate(a, adag)
        lhs = kms(vmap(Fs), vmap(Gs))
        rhs = kms(F, G)
        scale = np.sqrt(abs(kms(F, F)) * abs(kms(G, G)))
        worst = max(worst, abs(lhs - rhs) / max(scale, 1e-300))

    value = vmap(f.evaluate(a, adag))
    return QuasiInvarianceReport(
        n_max=n_max, s=s, unitarity_residual=float(worst),
        partition_shift=abs(Zs - Z0) / Z0, condition_ratio=spread,
        value=value)
