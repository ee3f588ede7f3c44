"""Quantitative experiments: spectral gaps, surface/volume Rayleigh scaling,
heat-sector reduction with polynomial decay, and finite-speed probes.

Truncation policy for the heat-sector experiments: the ladder span
{A_j, A_j*} is invariant under the assembled generator only up to cutoff
defects of order n_max^2 exp(-beta n_max) (the commutator [A, A*] fails on
the top level), so the restriction matrix, its comparison against the graph
Laplacian and the coefficient trajectories are computed on the margin-1
clean compression, where the reduction is exact.  The raw full-space
semigroup deviation is reported alongside as the measured truncation
backreaction, not asserted against the clean tolerances.  The spectral gap
follows the same policy: next to the raw gap of the hard-cutoff generator it
reports the spectrum of the generator on span{I, A_j, A_j*} over the same
clean compression.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .dirichlet import (Superoperator, _eigen_blocks, assemble_generator,
                        require_symmetric, semigroup_apply, vec)
from .fock import (LatticeConfig, LatticeOperator, clean_projector, commutator,
                   identity_operator, mollify, site_operator)
from .kernels import AdmissibleKernel
from .models import PRODUCT_KINDS, ModelSpec, build_model, modular_orbit
from .state import KmsMetric, _hermiticity_defects, decompose_modular

# D^2 up to which eigh is used: the measured crossover with shift-invert,
# the same on diagonal and non-diagonal states (1 BLAS thread): eigh wins at
# D^2 = 196, the two tie at 225, and shift-invert wins from 256 on
DENSE_GAP_LIMIT = 225
CLEAN_SPAN_TOL = 1e-9    # span residual above which the span is not invariant
ZERO_TOL = 1e-10         # eigenvalues of -L below this count as its kernel
GAP_SHIFT = -1e-6        # shift-invert target, just below the kernel
DECAY_TIMES = 12         # log-spaced times of each ring's decay fit
SCALING_MARGIN = 1       # cutoff headroom levels of the scaling derivations


# --------------------------------------------------------------------------
# generator restricted to the ladder span on the clean compression
# --------------------------------------------------------------------------

@dataclass
class SpanRestriction:
    basis: list                       # [I,] A_0 .. A_{N-1}, A*_0 .. A*_{N-1}
    matrix: np.ndarray                # K b_m = sum_l matrix[l, m] b_l (clean)
    residual: float                   # worst clean projection residual
    raw_residual: float               # same projection on the full space
    clean: np.ndarray = field(repr=False)         # vec rows of the clean block
    clean_basis: np.ndarray = field(repr=False)   # compressed basis columns

    def coefficients(self, ops) -> np.ndarray:
        """Least-squares coordinates of the clean compressions of `ops`, one
        column per operator."""
        Y = np.stack([vec(op) for op in ops], axis=1)[self.clean]
        return np.linalg.lstsq(self.clean_basis, Y, rcond=None)[0]


def ladder_span_restriction(K: Superoperator, *,
                            unit: bool = False) -> SpanRestriction:
    """Matrix of the generator K on span{A_j, A_j*} (with the identity
    prepended when `unit`), computed on the margin-1 clean compression.

    Each column's projection residual is taken relative to the norm of its
    image K(b).  The image of the identity is zero up to roundoff, so its
    column is measured relative to the compressed identity instead.
    """
    lattice = K.lattice
    N, D = lattice.n_sites, lattice.dim
    basis = ([identity_operator(lattice)] if unit else []) + \
        [site_operator(lattice, "a", j) for j in range(N)] + \
        [site_operator(lattice, "adag", j) for j in range(N)]
    keep = np.flatnonzero(clean_projector(lattice, 1).diagonal() > 0.5)
    clean = (keep[:, None] + D * keep[None, :]).reshape(-1)
    Bf = np.stack([vec(b) for b in basis], axis=1)
    Bc, Yf = Bf[clean], K.matrix @ Bf
    R, span_res = _projection(Bc, Yf[clean], unit)
    _, raw_span_res = _projection(Bf, Yf, unit)
    return SpanRestriction(basis=basis, matrix=R, residual=span_res,
                           raw_residual=raw_span_res, clean=clean,
                           clean_basis=Bc)


def _projection(B: np.ndarray, Y: np.ndarray, unit: bool):
    """Coordinates of the columns of Y in the basis B, and the worst column
    residual relative to the column's norm, or for the identity column
    (first when `unit`) relative to the identity's norm."""
    sol = np.linalg.lstsq(B, Y, rcond=None)[0]
    scale = np.maximum(np.linalg.norm(Y, axis=0), 1e-300)
    if unit:
        scale[0] = np.linalg.norm(B[:, 0])
    return sol, float(np.max(np.linalg.norm(B @ sol - Y, axis=0) / scale))


# --------------------------------------------------------------------------
# spectral gap
# --------------------------------------------------------------------------

@dataclass
class GapReport:
    eigenvalues: np.ndarray
    gap: float
    kernel_dim: int
    unit_kernel_residual: float
    clean_gap: float | None = None
    clean_eigenvalues: np.ndarray | None = None
    clean_span_residual: float | None = None
    metadata: dict = field(default_factory=dict)


def symmetrized_generator(L: Superoperator) -> np.ndarray:
    """S = H K H^-1 in the frame H = G^(1/2) of the generator's
    `KmsMetric.half`, as a dense array; Hermitian for KMS-symmetric K."""
    metric = L.metric
    # H is Hermitian, so H K H^-1 = (H^-1 (H K)^dag)^dag, H acting on columns
    return metric.half(metric.half(L.matrix.toarray()).conj().T, -1).conj().T


def spectral_gap(L: Superoperator, k: int = 8) -> GapReport:
    """Low spectrum of -L, symmetrized in the generator's KMS metric.

    Dense eigh of `symmetrized_generator` up to superoperator dimension
    DENSE_GAP_LIMIT; beyond it, shift-inverted Lanczos on
    (S - sigma)^-1 = H (K - sigma)^-1 H^-1, one sparse LU of K and no
    D^2 x D^2 array.  Shift-invert doubles its count of lowest eigenvalues
    until one lies above ZERO_TOL, so a kernel of k or more dimensions is not
    read as a zero gap.  Requires the generator's KMS-symmetry flag; without
    it, or when the factorization or ARPACK fails, raises LinAlgError.

    `gap` is the raw gap of the hard-cutoff generator, which carries the
    top-level defect [A, A*] - 1 = -(n_max + 1) P_top.  `clean_eigenvalues`
    is the spectrum of -L restricted to span{I, A_j, A_j*} on the margin-1
    clean compression (see `ladder_span_restriction`), and `clean_gap` its
    smallest value above ZERO_TOL.  Both are None when n_max < 2 (the
    clean block loses the ladder span) or when the span residual exceeds
    CLEAN_SPAN_TOL (the span is not invariant); `clean_span_residual` is
    reported whenever the restriction was computed.

    On an invariant span these are eigenvalues of the untruncated
    generator, whose action on the span the clean block reproduces, so in
    general `clean_gap` is an upper bound on its gap, not the gap.  It does
    not bound the raw `gap`: on the 5-site `z_power` ring at n_max 2 the raw
    gap is 1.547 and `clean_gap` 1.440.  For the
    one-site mean-field mode the span carries the bottom of the quantum
    Ornstein-Uhlenbeck spectrum {0, C/2, C/2, C, ...}, C/2 = 2 eta_hat(0)
    sinh(beta/2), and `clean_gap` is the gap itself: the raw gap decreases
    monotonically in n_max onto C/2.
    """
    require_symmetric(L)
    n = L.dim
    idv = vec(identity_operator(L.lattice))
    unit_res = float(np.linalg.norm(L.matrix @ idv) / max(np.linalg.norm(idv), 1.0))
    if n <= DENSE_GAP_LIMIT:
        S = symmetrized_generator(L)
        ev = np.linalg.eigvalsh(0.5 * (S + S.conj().T))
    else:
        from scipy.sparse.linalg import LinearOperator, eigsh, splu
        half = L.metric.half
        m = min(k, n - 2)
        try:
            lu = splu((L.matrix - GAP_SHIFT * sp.identity(n)).tocsc())
            # (S - sigma)^-1 = H (K - sigma)^-1 H^-1; ARPACK's shift-invert
            # mode applies only this operator, and K has the spectrum of S
            op = LinearOperator((n, n), dtype=complex,
                                matvec=lambda x: half(lu.solve(half(x, -1))))
            while True:  # widen until an eigenvalue clears the kernel
                ev = np.sort(eigsh(L.matrix, k=m, sigma=GAP_SHIFT, OPinv=op,
                                   which="LM", return_eigenvectors=False))
                if ev[-1] >= ZERO_TOL or m == n - 2:
                    break
                m = min(2 * m, n - 2)
        except (RuntimeError, SystemError) as exc:  # factorization failure
            raise np.linalg.LinAlgError(
                f"shift-invert spectral gap failed: {exc}") from exc
    kernel_dim = int(np.sum(ev < ZERO_TOL))
    above = ev[ev >= ZERO_TOL]
    gap = float(above.min()) if above.size else 0.0
    clean_gap = clean_ev = clean_res = None
    if L.lattice.n_max >= 2:
        span = ladder_span_restriction(L, unit=True)
        clean_res = span.residual
        if clean_res <= CLEAN_SPAN_TOL:
            clean_ev = np.sort(np.linalg.eigvals(span.matrix).real)
            above = clean_ev[clean_ev >= ZERO_TOL]
            clean_gap = float(above.min()) if above.size else 0.0
    return GapReport(eigenvalues=np.sort(ev)[:k], gap=gap, kernel_dim=kernel_dim,
                     unit_kernel_residual=unit_res, clean_gap=clean_gap,
                     clean_eigenvalues=clean_ev, clean_span_residual=clean_res,
                     metadata={"dim": n, "solver": "dense"
                               if n <= DENSE_GAP_LIMIT else "shift-invert"})


# --------------------------------------------------------------------------
# quadratic-form energies without superoperator assembly
# --------------------------------------------------------------------------

def direction_energies(directions, metric: KmsMetric, kernel: AdmissibleKernel,
                       f, derivation=None) -> list[float]:
    """Per-direction terms of E(f) = <f, -L f> from the modular components
    (X_k, w_k), without assembling the D^2 x D^2 generator: for each block
    (ops, _, C) of `dirichlet._eigen_blocks` the term sum_kl C_kl (V^dag V)_kl
    with V = H [vec delta_{X_k} f, ...] in the metric's frame H = G^(1/2),
    so (V^dag V)_kl = <delta_{X_k} f, delta_{X_l} f>.  `derivation(X, f)`
    returns delta_X f on the metric's lattice; the default is i [X, f].
    """
    derivation = derivation or (lambda X, g: (X @ g - g @ X) * 1j)
    out = []
    for direction in directions:
        total = 0.0
        for ops, _, C in _eigen_blocks(direction, metric.state, kernel):
            V = metric.half(np.stack([vec(derivation(X, f)) for X in ops], axis=1))
            total += np.sum(C * (V.conj().T @ V)).real
        out.append(float(total))
    return out


# --------------------------------------------------------------------------
# Rayleigh-quotient scaling (surface vs volume)
# --------------------------------------------------------------------------

@dataclass
class ScalingReport:
    sizes: list[int]
    energies: list[float]
    variances: list[float]
    ratios: list[float]
    exponent: float
    boundary_counts: list[int]
    e_over_boundary_spread: float
    metadata: dict = field(default_factory=dict)


def _working_block(eval_lattice: LatticeConfig, n_max: int) -> np.ndarray:
    """Indices of eval-lattice basis states with every occupation <= n_max:
    the site-by-site compression to the working levels, in the basis order
    of the n_max lattice."""
    occ = eval_lattice.occupations()
    return np.flatnonzero(np.all(occ <= n_max, axis=1))


def _site_sum(lattice: LatticeConfig, kind: str, sites) -> LatticeOperator | None:
    terms = [site_operator(lattice, kind, j) for j in sites]
    return sum(terms[1:], terms[0]) if terms else None


class _ChainForms:
    """Window-sum energy terms on one open chain of `n_sites`.

    The directions are built with SCALING_MARGIN levels of cutoff headroom and
    carry their modular components (analytic where the model gives them,
    else decomposed under the headroom state); the state is built at n_max.
    Each derivation i [X, F] is evaluated with the headroom and compressed
    site by site to the n_max levels, where it equals the untruncated
    commutator.
    """

    def __init__(self, kind, n_sites, *, n_max, kernel, test_op, **model):
        self.n_sites, self.kernel, self.test_op = n_sites, kernel, test_op
        self.eval, work = (LatticeConfig(1, n_sites, "chain", 1.0, levels)
                           for levels in (n_max + SCALING_MARGIN, n_max))
        built = build_model(ModelSpec(kind, self.eval, **model))
        for i, d in enumerate(built.directions):
            if kind == "mean_field":
                d.components = modular_orbit(built, i).components
            elif d.components is None:
                d.components = decompose_modular(
                    d.X, built.state, max_components=256)
        self.directions = built.directions
        self.metric = build_model(ModelSpec(kind, work, **model)).metric
        self.keep = np.ix_(*2 * [_working_block(self.eval, n_max)])
        self.cache: dict[tuple, list[float]] = {}

    def derivation(self, X, F):
        m = 1j * (X.matrix @ F.matrix - F.matrix @ X.matrix)
        return LatticeOperator(m.tocsr()[self.keep], frozenset(),
                               self.metric.state.lattice)

    def energies(self, sites: tuple) -> list[float]:
        """Per-direction energy terms of F = sum_{j in sites} T_j."""
        if sites not in self.cache:
            F = _site_sum(self.eval, self.test_op, sites)
            self.cache[sites] = [0.0] * len(self.directions) if F is None \
                else direction_energies(self.directions, self.metric,
                                        self.kernel, F, self.derivation)
        return self.cache[sites]

    def variance(self, sites) -> float:
        return self.metric.variance(
            _site_sum(self.metric.state.lattice, self.test_op, sites))


def rayleigh_scaling(kind: str, test: str, sizes, *, n_max: int = 1,
                     beta: float = 1.0, kernel: AdmissibleKernel | None = None,
                     params: dict | None = None, pad: int = 1,
                     nu: float = 1.0, mu: float = 1.0) -> ScalingReport:
    """Energies E(F_n) and variances for window observables F_n on padded
    open chains, evaluated by direct quadratic forms (no superoperator).

    test: "sum_adag" -> F_n = sum_{window} A_j*;  "sum_n" -> sum N_j.
    For "mean_field" the window is the whole lattice (no padding).

    The hard cutoff breaks [A, A*] = 1 on the top level, which would feed
    every interior bond a spurious surface term; the derivations are
    therefore evaluated with SCALING_MARGIN = 1 extra level of headroom and
    then compressed to the n_max levels, where they equal the untruncated
    commutators.  One level is used for every kind: it covers the one
    creator of the test observables A_j*.  The state truncation enters only
    through its moments.

    For the product-state kinds (models.PRODUCT_KINDS) the directions of the
    padded chain are translates of those on the shortest chain that carries
    one, and the KMS forms factorise over sites: each translate's terms are
    computed on that short chain against the window sites it covers, and
    Var(F_n) = n Var(T_0).  Other kinds use the whole chain.
    `boundary_counts` counts the directions with a nonzero energy term.
    """
    kernel = kernel or AdmissibleKernel()
    sizes = list(sizes)
    if not sizes or min(sizes) < 1:
        raise ValueError(f"scaling window sizes must be >= 1, got {sizes}")
    if test not in ("sum_adag", "sum_n"):
        raise ValueError(f"unknown test sequence {test!r}")
    offset = 0 if kind == "mean_field" else pad

    def chain(n_sites):
        return _ChainForms(kind, n_sites, n_max=n_max,
                           kernel=kernel, beta=beta, nu=nu, mu=mu,
                           test_op="adag" if test == "sum_adag" else "n",
                           params=dict(params or {}))

    local = kind in PRODUCT_KINDS
    if local:
        for length in range(1, max(sizes) + 2 * offset + 1):
            shapes = chain(length)
            if shapes.directions:
                break
        else:
            raise ValueError(f"no {kind} direction on a chain of up to {length} sites")
        v1 = shapes.variance([0])
    energies, variances, ratios, bcounts = [], [], [], []
    for n in sizes:
        n_sites = n + 2 * offset
        forms = shapes if local else chain(n_sites)
        terms = []
        for t in range(n_sites - forms.n_sites + 1):
            terms += forms.energies(tuple(j for j in range(forms.n_sites)
                                          if offset <= j + t < offset + n))
        energies.append(sum(terms))
        variances.append(n * v1 if local else
                         forms.variance(range(offset, offset + n)))
        ratios.append(energies[-1] / variances[-1])
        bcounts.append(sum(abs(c) > 1e-14 for c in terms))
    logn = np.log(np.asarray(sizes, float))
    exponent = float(np.polyfit(logn, np.log(np.asarray(ratios)), 1)[0])
    eb = [e / max(b, 1) for e, b in zip(energies, bcounts)]
    spread = float((max(eb) - min(eb)) / max(max(eb), 1e-300))
    return ScalingReport(sizes=sizes, energies=energies, variances=variances,
                         ratios=ratios, exponent=exponent,
                         boundary_counts=bcounts, e_over_boundary_spread=spread,
                         metadata={"kind": kind, "test": test, "n_max": n_max,
                                   "beta": beta, "pad": pad,
                                   "margin": SCALING_MARGIN})


# --------------------------------------------------------------------------
# heat-sector reduction (linear span of ladder operators)
# --------------------------------------------------------------------------

@dataclass
class HeatReport:
    span_residual: float              # clean-compressed projection residual
    restriction: np.ndarray           # 2N x 2N matrix on (A_j, A_j*) basis
    C_predicted: float
    restriction_deviation: float      # ||R - C blockdiag(Lg, Lg)||_max
    restriction_eigenvalues: np.ndarray
    trajectory_deviation: float       # exp(-tR) vs exp(-tC Lg), clean route
    full_semigroup_deviation: float   # raw truncated semigroup backreaction
    raw_span_residual: float          # projection residual on the full space
    metadata: dict = field(default_factory=dict)
    semigroup: dict = field(default_factory=dict)  # Krylov run, for the sidecar


def graph_laplacian(lattice: LatticeConfig) -> np.ndarray:
    Lg = np.zeros((lattice.n_sites,) * 2)
    for j, k in lattice.neighbor_pairs():
        Lg[[j, k, j, k], [j, k, k, j]] += [1, 1, -1, -1]
    return Lg


def heat_comparison(lattice: LatticeConfig, *, beta: float = 1.0,
                    kernel: AdmissibleKernel | None = None,
                    edges: str = "ordered", t_grid=(0.2, 0.5, 1.0, 2.0),
                    seed: int = 0) -> HeatReport:
    """Verify the linear-sector reduction of the nearest-neighbour difference
    model: the generator restricted to span{A_j, A_j*} equals
    C * blockdiag(Lg, Lg) with C = 4 eta_hat(0) sinh(beta/2) (ordered edges),
    and coefficient vectors evolve by the heat semigroup exp(-t C Lg), here
    from the unit coefficient vector at site 0.  The raw semigroup is run on
    f = A_0 + A_0*.  `seed` draws the generator's random symmetry-test pairs.
    """
    from scipy.linalg import expm
    kernel = kernel or AdmissibleKernel()
    if lattice.n_max < 2:
        raise ValueError("heat comparison needs n_max >= 2: the margin-1 "
                         "clean block must retain the ladder span")
    spec = ModelSpec("z_power", lattice, beta=beta,
                     params={"n": 1, "m": 1, "edges": edges})
    built = build_model(spec)
    metric = built.metric
    K = assemble_generator(built.directions, metric, kernel, path="eigen",
                           seed=seed)

    N = lattice.n_sites
    span = ladder_span_restriction(K)
    R = span.matrix

    mult = 4.0 if edges == "ordered" else 2.0
    C = float(mult * kernel.fourier(0.0).real * np.sinh(beta / 2.0))
    Lg = graph_laplacian(lattice)
    target = np.zeros_like(R)
    target[:N, :N] = C * Lg
    target[N:, N:] = C * Lg
    restriction_dev = float(np.max(np.abs(R - target)))
    ev = np.sort(np.linalg.eigvals(R).real)

    # raw truncated-semigroup backreaction (full_dev), reported not asserted
    kappa0 = np.eye(N, dtype=complex)[0]
    f = span.basis[0] + span.basis[N]
    stats = {}
    sol = span.coefficients(semigroup_apply(K, f, t_grid, stats=stats))
    traj_dev = full_dev = 0.0
    for t, coef in zip(t_grid, (0.5 * (sol[:N] + sol[N:])).T):
        k_oracle = expm(-t * C * Lg) @ kappa0
        k_impl = expm(-t * R[:N, :N]) @ kappa0
        traj_dev = max(traj_dev, float(np.max(np.abs(k_impl - k_oracle))))
        full_dev = max(full_dev, float(np.max(np.abs(coef - k_oracle))))

    return HeatReport(span_residual=span.residual, restriction=R,
                      C_predicted=C, restriction_deviation=restriction_dev,
                      restriction_eigenvalues=ev,
                      trajectory_deviation=float(traj_dev),
                      full_semigroup_deviation=float(full_dev),
                      raw_span_residual=span.raw_residual,
                      metadata={"beta": beta, "edges": edges,
                                "n_max": lattice.n_max,
                                "geometry": lattice.geometry,
                                "n_sites": N},
                      semigroup=stats)


# --------------------------------------------------------------------------
# polynomial decay probe
# --------------------------------------------------------------------------

@dataclass
class DecayReport:
    lengths: list[int]
    slopes: list[float]
    windows: list[tuple[float, float]]
    sup_trajectories: dict
    t0_check: float
    cross_check: HeatReport | None
    metadata: dict = field(default_factory=dict)


def polynomial_decay_probe(lengths=(16,), *, beta: float = 1.0,
                           kernel: AdmissibleKernel | None = None,
                           cross_check_length: int | None = 4,
                           cross_check_n_max: int = 2,
                           seed: int = 0) -> DecayReport:
    """Heat-kernel envelope of sup_j ||delta_{A_j}(P_t f)|| on rings.

    In the invariant linear sector the derivation norms are exactly the
    coefficient magnitudes, so the probe runs in coefficient space with the
    verified heat matrix C * Lg; the log-log slope is fitted at DECAY_TIMES
    log-spaced times inside the window [1/C, L^2/(8 C)].  An optional
    full-Fock cross-check validates the coefficient computation on a small
    ring; `seed` is passed on to it.
    """
    from scipy.linalg import expm
    kernel = kernel or AdmissibleKernel()
    C = float(4.0 * kernel.fourier(0.0).real * np.sinh(beta / 2.0))
    slopes, windows, trajs = [], [], {}
    for L in lengths:
        ring = LatticeConfig(1, L, "cycle", 1.0, 1)
        Lg = graph_laplacian(ring)
        lo, hi = 1.0 / C, L * L / (8.0 * C)
        if hi <= lo:
            raise ValueError(f"decay window empty for ring length {L}: "
                             f"[{lo:.3g}, {hi:.3g}]")
        ts = np.geomspace(lo, hi, DECAY_TIMES)
        k0 = np.zeros(L); k0[0] = 1.0
        sup = np.array([np.max(np.abs(expm(-t * C * Lg) @ k0)) for t in ts])
        slope = float(np.polyfit(np.log(ts), np.log(sup), 1)[0])
        slopes.append(slope)
        windows.append((float(lo), float(hi)))
        trajs[L] = {"t": ts.tolist(), "sup": sup.tolist()}
    t0_check = 1.0  # sup_j |kappa_j(0)| for the unit initial coefficient
    cross = None
    if cross_check_length:
        ring = LatticeConfig(1, cross_check_length, "cycle", 1.0, cross_check_n_max)
        cross = heat_comparison(ring, beta=beta, kernel=kernel,
                                t_grid=(0.3, 1.0, 2.0), seed=seed)
    return DecayReport(lengths=list(lengths), slopes=slopes, windows=windows,
                       sup_trajectories=trajs, t0_check=t0_check,
                       cross_check=cross,
                       metadata={"beta": beta, "C": C})


# --------------------------------------------------------------------------
# finite speed of propagation
# --------------------------------------------------------------------------

@dataclass
class LRReport:
    t_grid: np.ndarray
    distances: np.ndarray
    B: np.ndarray                     # commutator norms, shape (n_t, n_d)
    fit_D: float
    fit_C: float
    fit_m: float
    bound_ok: bool
    t0_max: float                     # max B(0, d >= 1)
    short_time_ratio: float           # B(t,0)/(t * first-order oracle) at small t
    c_phi: float
    metadata: dict = field(default_factory=dict)
    sectors: dict = field(default_factory=dict)   # block structure, for the sidecar


def sector_sizes(n_sites: int, n_max: int) -> list[int]:
    """Dimensions of the total-particle-number sectors 0 .. n_sites * n_max,
    the coefficients of (1 + x + ... + x^n_max)^n_sites."""
    sizes = [1]
    for _ in range(n_sites):
        sizes = [sum(sizes[max(0, k - n_max):k + 1])
                 for k in range(len(sizes) + n_max)]
    return sizes


def lieb_robinson_bytes(chain_length: int, n_max: int) -> int:
    """Bytes of the dense complex blocks `lieb_robinson_probe` holds: per
    sector the blocks of U, its eigenvectors and the chain_length - 1 bond
    blocks, and four families of sector n + 1 -> n blocks (a_0, a_0 in the
    eigenbasis, alpha_t(a_0) and a commutator)."""
    s = sector_sizes(chain_length, n_max)
    square = sum(n * n for n in s)
    lowering = sum(a * b for a, b in zip(s, s[1:]))
    return 16 * ((chain_length + 1) * square + 4 * lowering)


def _charge(op: LatticeOperator) -> int:
    """Change of total particle number under `op`, read from its sparse
    pattern; ValueError unless every nonzero entry changes it by the same
    amount."""
    n_tot = op.lattice.occupations().sum(axis=1)
    rows, cols = op.matrix.nonzero()
    q = np.unique(n_tot[rows] - n_tot[cols])
    if len(q) > 1:
        raise ValueError(f"{op.label} mixes particle-number charges {q.tolist()}")
    return int(q[0]) if len(q) else 0


def _sector_blocks(op: LatticeOperator, sectors, charge: int) -> list:
    """Dense blocks op[sector n + charge, sector n] of an operator of definite
    charge, listed by the lower of the two sector numbers."""
    if _charge(op) != charge:
        raise ValueError(f"{op.label} does not have particle-number charge {charge}")
    m = op.matrix
    lo, hi = max(0, -charge), len(sectors) - max(0, charge)
    return [m[sectors[n + charge]][:, sectors[n]].toarray() for n in range(lo, hi)]


def _norm2(m: np.ndarray) -> float:
    """The 2-norm of a dense block: the square root of the top eigenvalue
    of its smaller Gram matrix, in place of a full SVD."""
    g = m.conj().T @ m if m.shape[0] >= m.shape[1] else m @ m.conj().T
    return float(np.sqrt(max(np.linalg.eigvalsh(g)[-1], 0.0)))


def _lowering_comm_norm(phi, x) -> float:
    """||[Phi, X]||_2 for Phi of charge 0 and X of charge -1, from their
    blocks: the commutator maps sector n + 1 to n, its blocks occupy disjoint
    rows and columns, so its 2-norm is the largest block 2-norm."""
    return max(_norm2(phi[n] @ xn - xn @ phi[n + 1]) for n, xn in enumerate(x))


def lieb_robinson_probe(chain_length: int = 5, n_max: int = 2, *,
                        lam: float = 0.5, epsilon: float = 1.0,
                        beta: float = 1.0,
                        t_grid=(0.25, 0.5, 0.75, 1.0, 1.5)) -> LRReport:
    """Commutator-norm light cone for a mollified hopping interaction.

    The Heisenberg evolution alpha_t(B) = e^{-i t beta U} B e^{+i t beta U}
    is computed from the eigendecomposition of U = sum Phi_{j,j+1} with
    Phi_{j,j+1} = lam (a_j a*_{j+1} + a*_j a_{j+1}) built from mollified
    ladder operators.  B(t, d) = ||[Phi_O, alpha_t(a_j)]|| is tabulated over
    bonds O at distance d from site j = 0, then (C, m) are fitted by least
    squares on log B = log D + C t - m d and D is lifted so the bound holds
    at every grid point.

    The hopping conserves the total particle number, also at the hard
    cutoff, so everything is evaluated on number sectors: U and the bonds by
    their diagonal blocks (one eigh per sector), a_0, alpha_t(a_0) and the
    commutators by their sector n + 1 -> n blocks, and every 2-norm as the
    largest block 2-norm, which equals the full one.  An operator without
    the expected charge raises ValueError.
    """
    lattice = LatticeConfig(1, chain_length, "chain", 1.0, n_max)
    if chain_length < 4:
        raise ValueError("chain length >= 4 required for a usable light cone")
    moll = [mollify(s, epsilon, lattice)[0] for s in range(chain_length)]
    bonds = []
    for j in range(chain_length - 1):
        phi = (moll[j] @ moll[j + 1].dag() + moll[j].dag() @ moll[j + 1]) * lam
        phi.label = f"Phi_{j},{j + 1}"
        bonds.append(phi)
    U = sum(bonds[1:], bonds[0])
    if _hermiticity_defects(U.matrix)[0] > 1e-11 * max(U.fro_norm(), 1.0):
        raise ValueError("interaction is not Hermitian")
    n_tot = lattice.occupations().sum(axis=1)
    sectors = [np.flatnonzero(n_tot == n) for n in range(n_tot.max() + 1)]
    w, V = zip(*(np.linalg.eigh(u) for u in _sector_blocks(U, sectors, 0)))
    phis = [_sector_blocks(phi, sectors, 0) for phi in bonds]

    a0 = _sector_blocks(moll[0], sectors, -1)
    a0_eig = [V[n].conj().T @ a @ V[n + 1] for n, a in enumerate(a0)]

    def alpha(t):
        ph = [np.exp(-1j * t * beta * wn) for wn in w]
        return [V[n] @ ((ph[n][:, None] * a) * ph[n + 1].conj()[None, :])
                @ V[n + 1].conj().T for n, a in enumerate(a0_eig)]

    t_grid = np.asarray(t_grid, float)
    dists = np.arange(len(bonds))
    B = np.zeros((len(t_grid), len(bonds)))
    for it, t in enumerate(t_grid):
        at = alpha(t)
        for d, phi in enumerate(phis):
            B[it, d] = _lowering_comm_norm(phi, at)

    # t = 0: disjoint supports commute exactly
    t0_max = float(max(_lowering_comm_norm(phi, a0) for phi in phis[1:]))

    # short-time first-order check on the nearest disjoint bond, where
    # [Phi_O, a_0] = 0 and the Dyson series starts at order t
    comm1 = _sector_blocks(commutator(U, moll[0]), sectors, -1)
    oracle = beta * _lowering_comm_norm(phis[1], comm1)
    ts = 1e-3
    bshort = _lowering_comm_norm(phis[1], alpha(ts))
    short_ratio = float(bshort / (ts * oracle)) if oracle > 0 else float("nan")

    # weighted fit of log B <= log D + C t - m d on points above the floor
    it, d = np.nonzero(B > 1e-12)
    rows = np.stack([np.ones(it.size), t_grid[it], -d.astype(float)], axis=1)
    rhs = np.log(B[it, d])
    sol, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    c0, fitC, fitm = sol
    logD = c0 + max(0.0, float(np.max(rhs - rows @ sol)))
    bound_ok = bool(np.all(rhs <= logD + fitC * t_grid[it] - fitm * d + 1e-9))

    norms = [max(map(_norm2, phi)) for phi in phis]
    cphi = _interaction_constant(bonds, norms, lattice)
    return LRReport(t_grid=t_grid, distances=dists, B=B,
                    fit_D=float(np.exp(logD)), fit_C=float(fitC),
                    fit_m=float(fitm), bound_ok=bound_ok, t0_max=t0_max,
                    short_time_ratio=short_ratio, c_phi=cphi,
                    metadata={"chain_length": chain_length, "n_max": n_max,
                              "lam": lam, "epsilon": epsilon, "beta": beta},
                    sectors={"n_max": n_max, "count": len(sectors),
                             "largest": max(map(len, sectors)),
                             "dim": lattice.dim})


def _interaction_constant(bonds, norms, lattice: LatticeConfig) -> float:
    """c_Phi = 2 sup_O sum over multi-point Phi_{O'} with O' within distance
    2R of O, R = 1 the bonds' range, from their supports and 2-norms."""
    supports = [set(b.support) for b in bonds]
    best = 0.0
    for O in supports:
        near = {l for l in range(lattice.n_sites)
                if min(lattice.distance((l,), (s,)) for s in O) <= 2}
        tot = sum(nb for sb, nb in zip(supports, norms) if sb <= near)
        best = max(best, tot)
    return 2.0 * best
