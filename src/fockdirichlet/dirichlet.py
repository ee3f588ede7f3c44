"""Derivations, KMS adjoints, Markov generator assembly and semigroups.

Superoperators act on column-stacked operators: vec(F)[i + D*j] = F[i, j],
so left multiplication is L_X = I (x) X and right multiplication is
R_X = X^T (x) I (Kronecker products in that order).

Sign convention: `assemble_generator` returns K = -L, which is positive
semidefinite in the KMS metric and annihilates the identity; the Markov
semigroup is P_t = exp(-t K).

Both assembly paths feed one kernel, `generator_kernel`.  Its input is
stacks of operator triples (Wm_k, Wp_k, Y_l) and a coefficient matrix C,
and it returns

    K = I (x) P + Q^T (x) I - sum_kl C_kl (Wm_k^T (x) Y_l + Y_l^T (x) Wp_k),
    P = sum_kl C_kl Wp_k Y_l,   Q = sum_kl C_kl Y_l Wm_k,

which is sum_kl C_kl delta*_k delta_l with delta_l = i (L_{Y_l} - R_{Y_l})
and delta*_k = i (R_{Wm_k} - L_{Wp_k}).  The paths differ only in the feed,
and must agree:

  * eigen path -- each direction is split into modular eigencomponents
    X = sum_k X_k with alpha_t(X_k) = exp(i omega_k beta t) X_k; Y_l = X_l,
    Wm_k / Wp_k = alpha_{-/+ i/2}(X_k*), and the time integral collapses to
    C_kl = nu eta_hat((omega_l - omega_k) beta) (mu block on X*).
  * quadrature path -- C is diagonal over Gauss-Legendre nodes,
    C_nn = w_n eta(t_n) nu, with Y_n = alpha_{t_n}(X) and Wm_n / Wp_n =
    alpha_{t_n -/+ i/2}(X*): actual complex-time modular flows, computed for
    all nodes at once by `modular_flows`, with no reference to
    eigencomponents.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fock import LatticeConfig, LatticeOperator, _prune, identity_operator
from .kernels import AdmissibleKernel
from .state import (GibbsState, KmsMetric, decompose_modular, modular_flow,
                    modular_flows, vec)

SYMMETRY_TOL = 1e-9
CHECK_PAIRS = 20       # random pairs of the symmetry check
KRYLOV_TOL = 1e-10     # relative size of the last Lanczos correction
KRYLOV_MAX = 220       # Lanczos vectors before KrylovError


class KrylovError(RuntimeError):
    pass


def unvec(v: np.ndarray, lattice: LatticeConfig) -> LatticeOperator:
    D = lattice.dim
    m = np.asarray(v).reshape(D, D, order="F")
    return LatticeOperator(_prune(m), frozenset(range(lattice.n_sites)), lattice)


def left_mult(X: LatticeOperator) -> sp.csr_matrix:
    m = X.matrix
    return sp.kron(sp.identity(m.shape[0], format="csr"), m, format="csr")


def right_mult(X: LatticeOperator) -> sp.csr_matrix:
    m = X.matrix
    return sp.kron(m.T, sp.identity(m.shape[0], format="csr"), format="csr")


@dataclass
class Superoperator:
    """Matrix acting on vectorized operators, with its KMS metric tag."""

    matrix: sp.csr_matrix
    lattice: LatticeConfig
    metric: KmsMetric | None = None
    symmetric_in_metric: bool = False
    sym_residual: float | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def derivation_super(X: LatticeOperator) -> Superoperator:
    """delta_X(f) = i[X, f] as a superoperator: i (L_X - R_X)."""
    m = 1j * (left_mult(X) - right_mult(X))
    return Superoperator(_prune(m), X.lattice)


def adjoint_derivation_super(X: LatticeOperator, metric: KmsMetric) -> Superoperator:
    """KMS adjoint of delta_X: i (R_{alpha_{-i/2}(X*)} - L_{alpha_{i/2}(X*)})."""
    st = metric.state
    Wm = modular_flow(X.dag(), st, -0.5j)
    Wp = modular_flow(X.dag(), st, +0.5j)
    m = 1j * (right_mult(Wm) - left_mult(Wp))
    return Superoperator(_prune(m), X.lattice, metric)


@dataclass
class DerivationDirection:
    """One direction X_j of the Dirichlet form, with weights nu (for
    delta_{alpha_t(X)}) and mu (for delta_{alpha_t(X*)}).

    `components` optionally carries an analytic modular eigendecomposition
    [(operator, omega), ...]; when absent the eigen assembly path decomposes
    X numerically under the state.
    """

    X: LatticeOperator
    nu: float = 1.0
    mu: float = 1.0
    components: list[tuple[LatticeOperator, float]] | None = None

    def __post_init__(self):
        if self.nu < 0 or self.mu < 0:
            raise ValueError("weights nu, mu must be nonnegative")
        if self.nu == 0 and self.mu == 0:
            raise ValueError("at least one of nu, mu must be positive")


def _eigen_components(direction: DerivationDirection, state: GibbsState):
    if direction.components is not None:
        return direction.components
    return decompose_modular(direction.X, state)


def assemble_generator(directions, metric: KmsMetric, kernel: AdmissibleKernel,
                       path: str = "eigen", *, seed: int = 0) -> Superoperator:
    """Assemble K = -L for the given directions, kernel and state, flagged.

    eigen path:      K = sum_dir sum_{k,l} nu eta_hat((w_l - w_k) beta)
                         delta*_{X_k} delta_{X_l}  + (mu part with X*).
    quadrature path: K = sum_dir integral (nu delta*_{alpha_t(X)}
                         delta_{alpha_t(X)} + mu [X -> X*]) eta(t) dt
                     on the Gauss-Legendre grid of `kernel.time_grid`.
    """
    state = metric.state
    if path == "eigen":
        feeds = [(*_eigen_triples(ops, adjoints, state), C) for d in directions
                 for ops, adjoints, C in _eigen_blocks(d, state, kernel)]
    elif path == "quadrature":
        nodes, weights = kernel.time_grid()
        eta_vals = kernel.eta(nodes)
        keep = np.abs(eta_vals) >= 1e-16
        t, c = nodes[keep], weights[keep] * eta_vals[keep]
        feeds = [f for d in directions for f in _quadrature_feeds(d, state, t, c)]
    else:
        raise ValueError(f"unknown assembly path {path!r}")

    sup = Superoperator(generator_kernel(feeds, state.dim), state.lattice, metric)
    _verify_generator(sup, seed)
    return sup


def _eigen_blocks(direction: DerivationDirection, state: GibbsState,
                  kernel: AdmissibleKernel):
    """[(ops, adjoints, C)]: one block per nonzero weight, nu over the
    eigencomponents X_k and mu over their adjoints, with C_kl = weight
    eta_hat((w_l - w_k) beta) in the nu block.  The components of X* are the
    X_k* with frequencies -w_k, so the mu block's table is the transpose of
    the same eta_hat table.  Each block's adjoints are the other block's
    operators, so every X_k* is formed once.
    """
    comps = _eigen_components(direction, state)
    if not comps:
        return []
    ops = [c for c, _ in comps]
    adjoints = [c.dag() for c in ops]
    w = np.array([w for _, w in comps])
    eta = kernel.fourier((w[None, :] - w[:, None]) * state.beta)
    return [(x, x_adj, weight * table) for weight, x, x_adj, table in (
        (direction.nu, ops, adjoints, eta),
        (direction.mu, adjoints, ops, eta.T)) if weight]


def _eigen_triples(ops, adjoints, state: GibbsState):
    """Stacks (Wm, Wp, Y) of eigencomponents X_k = ops[k], with the flows
    taken of X_k* = adjoints[k].  The adjoint multipliers are flows rather
    than the scalar form e^{-/+xi} X_k*, which keeps delta*_{X_k} exact when
    a numerically decomposed component only approximately clusters a
    frequency bucket."""
    return (_rows([modular_flow(a, state, -0.5j).matrix for a in adjoints]),
            _rows([modular_flow(a, state, 0.5j).matrix for a in adjoints]),
            _rows([op.matrix for op in ops]))


def _rows(mats) -> sp.csr_matrix:
    """Stack of the row-major flattenings of D x D CSR matrices, (N x D^2),
    as one CSR: entry (r, c) of matrix k goes to row k, column D r + c."""
    D = mats[0].shape[1]
    cols = [m.indices + D * np.repeat(np.arange(D), np.diff(m.indptr)) for m in mats]
    return sp.csr_matrix((np.concatenate([m.data for m in mats]), np.concatenate(cols),
                          np.cumsum([0] + [m.nnz for m in mats])), shape=(len(mats), D * D))


def _quadrature_feeds(direction: DerivationDirection, state: GibbsState,
                      t: np.ndarray, c: np.ndarray):
    """Flow triples at the Gauss nodes t with diagonal coefficients c * weight.

    With (alpha_t(X))* = alpha_t(X*) for real t, the adjoint multipliers of
    delta_{alpha_t(X)} are the complex-time flows alpha_{t -/+ i/2}(X*).
    """
    return [(modular_flows(X.dag(), state, t - 0.5j),
             modular_flows(X.dag(), state, t + 0.5j),
             modular_flows(X, state, t), sp.diags(c * weight))
            for weight, X in ((direction.nu, direction.X),
                              (direction.mu, direction.X.dag())) if weight]


def generator_kernel(feeds, D: int) -> sp.csr_matrix:
    """sum over feeds of sum_kl C_kl delta*_k delta_l as a D^2 x D^2 CSR.

    Each feed is (Wm, Wp, Y, C): (N x D^2) stacks Wm, Wp and an (M x D^2)
    stack Y of row-major flattenings, and an (N x M) coefficient matrix C;
    the feeds are stacked with a block-diagonal C.  P and Q are one
    (D x N D)(N D x D) product each.  Under the index bijection
    ((r, s), (i, j)) -> ((s, i), (r, j)), Wm^T (x) Y is the outer product
    vec(Wm) vec(Y)^T, Y^T (x) Wp is vec(Y) vec(Wp)^T, I (x) P is
    vec(I) vec(P)^T and Q^T (x) I is vec(Q) vec(I)^T.  So K is the single
    sparse product A^T B of A = [Wm; Y; vec(I); vec(Q)] and
    B = [-C Y; -C^T Wp; vec(P); vec(I)], which sums every term, moved into
    Kronecker layout by that bijection (so without duplicates).
    """
    if not feeds:
        return sp.csr_matrix((D * D, D * D), dtype=complex)
    Wm, Wp, Y = (sp.vstack([f[i] for f in feeds], format="csr") for i in range(3))
    C = sp.block_diag([sp.csr_matrix(f[3]) for f in feeds], format="csr")
    CY = C @ Y
    P = _side_by_side(Wp, D) @ CY.reshape((-1, D))             # sum C Wp_k Y_l
    Q = _side_by_side(Y, D) @ (C.T @ Wm).reshape((-1, D))      # sum C Y_l Wm_k
    one = _rows([sp.identity(D, dtype=complex, format="csr")])
    A = sp.vstack([Wm, Y, one, _rows([Q])], format="csr")
    B = sp.vstack([-CY, -(C.T @ Wp), _rows([P]), one], format="csr")
    M = A.T.tocsr() @ B
    del A, B
    # in place: the row and column index arrays are the largest temporaries
    cols = np.repeat(np.arange(D * D, dtype=M.indices.dtype), np.diff(M.indptr))
    rows = cols % D
    rows *= D
    rows += M.indices // D
    cols //= D
    cols *= D
    cols += M.indices % D
    K = sp.coo_matrix((M.data, (rows, cols)), shape=(D * D, D * D))
    del M, rows, cols
    return _prune(K.tocsr())


def _side_by_side(S: sp.csr_matrix, D: int) -> sp.csr_matrix:
    """[A_1 A_2 ... A_N] (D x N D) from the (N x D^2) stack of the A_k."""
    S = S.tocoo()
    i, j = np.divmod(S.col, D)
    return sp.csr_matrix((S.data, (i, S.row * D + j)), shape=(D, S.shape[0] * D))


def _verify_generator(sup: Superoperator, seed: int):
    """Set the symmetry flag from CHECK_PAIRS random pairs (f, g), checked at
    once as the columns of two (D^2, CHECK_PAIRS) arrays, and from
    K vec(I) = 0 relative to max(1, max |K_ij|)."""
    metric, K = sup.metric, sup.matrix
    D = metric.state.dim
    # pair p draws Re f, Im f, Re g, Im g in turn, as the loop of single
    # pairs did; the transpose puts f[i, j] at row i + D j of F
    z = np.random.default_rng(seed).standard_normal((CHECK_PAIRS, 2, 2, D, D))
    F, G = ((z[:, k, 0] + 1j * z[:, k, 1]).T.reshape(D * D, -1) for k in (0, 1))
    del z
    lhs = metric.vec_inner(F, K @ G)
    rhs = metric.vec_inner(K @ F, G)
    scale = np.sqrt(np.abs(metric.vec_inner(F, F)) * np.abs(metric.vec_inner(G, G)))
    worst = float(np.max(np.abs(lhs - rhs) / np.maximum(scale, 1e-300)))
    unit_res = np.linalg.norm(K @ vec(identity_operator(sup.lattice)))
    sup.sym_residual = worst
    sup.symmetric_in_metric = bool(
        worst <= SYMMETRY_TOL
        and unit_res <= 1e-10 * np.max(np.abs(K.data), initial=1.0))


def require_symmetric(L: Superoperator):
    """Raise numpy.linalg.LinAlgError unless L is flagged KMS-symmetric."""
    if not L.symmetric_in_metric:
        raise np.linalg.LinAlgError("generator is not flagged KMS-symmetric "
                                    f"(residual {L.sym_residual})")


def dirichlet_energy(f: LatticeOperator, L: Superoperator) -> float:
    """E(f) = <f, -L f> in the generator's KMS metric (L is stored as K = -L)."""
    v = vec(f)
    return float(L.metric.vec_inner(v, L.matrix @ v).real)


def gamma1(f: LatticeOperator, L: Superoperator) -> LatticeOperator:
    """Carre du champ: Gamma_1(f) = (L(f*f) - f* L(f) - L(f*) f) / 2.

    With the stored K = -L this is -(K(f*f) - f* K(f) - K(f*) f) / 2,
    returned as the definition gives it.  It is Hermitian, and positive
    semidefinite for admissible kernels, when nu = mu in every direction
    (then L(f*) = L(f)*) and for single-eigencomponent directions at any
    weights (see `gamma1_closed_form`).  Otherwise E(f*) swaps nu and mu, and
    Gamma_1(f) has an anti-Hermitian part, which `gamma1_contour_form` has too.
    """
    lattice = L.lattice
    fm = f.matrix
    fd = fm.conj().T.tocsr()
    images = L.matrix @ np.stack([vec(fd @ fm), vec(fm), vec(fd)], axis=1)
    Kff, Kf, Kfd = (unvec(y, lattice).matrix for y in images.T)
    g = -0.5 * (Kff - fd @ Kf - Kfd @ fm)
    return LatticeOperator(_prune(g), frozenset(range(lattice.n_sites)), lattice,
                           "Gamma1")


def gamma1_closed_form(f, directions, metric: KmsMetric,
                       kernel: AdmissibleKernel) -> LatticeOperator:
    """Eigenvector-direction closed form of Gamma_1.

    For directions whose X is a single modular eigencomponent with
    alpha_{i/2}(X) = e^xi X, the contour integral collapses and

        Gamma_1(f) = sum_dir (nu + mu)/4 * C *
                     (e^xi |delta_{X*}(f)|^2 + e^{-xi} |delta_X(f)|^2),

    with C = integral (eta(t+i/4) + eta(t-i/4)) dt evaluated by quadrature
    of the smoothed kernel (analytically C = 2 eta_hat(0)).
    """
    C = _smoothed(kernel).contour_constant().real
    state = metric.state
    out = None
    for direction in directions:
        comps = _eigen_components(direction, state)
        if len(comps) != 1:
            raise ValueError(f"direction {direction.X.label!r} is not a single "
                             "modular eigencomponent")
        X, omega = comps[0]
        xi = -omega * state.beta / 2.0
        df = (X @ f - f @ X) * 1j
        dfs = (X.dag() @ f - f @ X.dag()) * 1j
        term = ((direction.nu + direction.mu) / 4.0 * C) * (
            np.exp(xi) * (dfs.dag() @ dfs) + np.exp(-xi) * (df.dag() @ df))
        out = term if out is None else out + term
    return out


def gamma1_contour_form(f, directions, metric: KmsMetric,
                        kernel: AdmissibleKernel) -> LatticeOperator:
    """Direct quadrature of the contour representation

        2 Gamma_1(f) = integral { |delta_{alpha_{t-i/4}(X*)}(f)|^2
                                  (nu eta(t+i/4) + mu eta(t-i/4))
                                + |delta_{alpha_{t-i/4}(X)}(f)|^2
                                  (nu eta(t-i/4) + mu eta(t+i/4)) } dt,

    which reduces to the equal-weight form with the kernel sum
    eta(t+i/4) + eta(t-i/4) when nu = mu.  Requires a smoothed kernel so
    that the contour line is regular; the raw kernel is smoothed with
    sigma = 0.5.  The t grid is `time_grid` of the smoothed kernel, without
    the nodes where both strip values vanish.  The flows Y_n at every node
    come from one `modular_flows` call per operator, and with the stack
    S = [delta_{Y_1} f; delta_{Y_2} f; ...] the sum sum_n c_n |delta_{Y_n} f|^2
    is the single product S^dag diag(c) S.
    """
    ck = _smoothed(kernel)
    st = metric.state
    D = st.dim
    tgrid, weights = ck.time_grid()
    eta_p = ck.eta_strip(tgrid, +0.25)
    eta_m = ck.eta_strip(tgrid, -0.25)
    keep = np.abs(eta_p) + np.abs(eta_m) >= 1e-15
    z = tgrid[keep] - 0.25j
    w, ep, em = 0.5 * weights[keep], eta_p[keep], eta_m[keep]
    flows, coefs = [], []
    for d in directions:
        flows += [modular_flows(d.X.dag(), st, z), modular_flows(d.X, st, z)]
        coefs += [w * (d.nu * ep + d.mu * em), w * (d.nu * em + d.mu * ep)]
    Y = sp.vstack(flows, format="csr").reshape((-1, D))     # [Y_1; Y_2; ...]
    fm = f.matrix
    S = 1j * (Y @ fm - sp.kron(sp.identity(Y.shape[0] // D), fm) @ Y)
    g = S.conj().T @ sp.diags(np.repeat(np.concatenate(coefs), D)) @ S
    return LatticeOperator(_prune(g.tocsr()), frozenset(range(st.lattice.n_sites)),
                           st.lattice, "Gamma1")


def _smoothed(kernel: AdmissibleKernel) -> AdmissibleKernel:
    """The kernel itself if smoothed, else its sigma = 0.5 smoothing."""
    return kernel if kernel.sigma > 0 else AdmissibleKernel(kernel.kappa, kernel.n, 0.5)


def semigroup_apply(L: Superoperator, f, t, stats: dict | None = None):
    """P_t f = exp(t L) f = exp(-t K) vec(f) at one time t, or the list of
    results at the times of a 1-D sequence t.

    The generator must be flagged KMS-symmetric (`require_symmetric`); it
    is then Hermitian in the frame of its metric, S = H K H^-1 (see
    `KmsMetric.half`), and exp(-t S) is taken by a Lanczos Krylov
    exponential, one basis for all the times.  Raises KrylovError with the
    last correction when the iteration needs more than KRYLOV_MAX vectors.

    Lanczos runs on one coordinate block of vec(f): on a diagonal state H
    is elementwise, so S has the pattern of K, and the block is the
    `_invariant_block` of supp(vec(f)), which K maps into itself; the run
    uses K[blk][:, blk] and the block's weights, and the result is exactly
    0 outside the block.  On a non-diagonal state H mixes coordinates, and
    the block is every coordinate (K is used as it is).  A `stats` dict is
    filled with the block size, D^2 as `dim`, the Krylov steps and the last
    correction (None when no correction was taken).
    """
    require_symmetric(L)
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(times < 0):
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    v = vec(f).astype(complex)
    ys, run = np.tile(v, (times.size, 1)), times > 0
    metric, K = L.metric, L.matrix
    blk = _invariant_block(K, v) if metric.state.diagonal else np.arange(v.size)
    steps, delta = 0, np.inf
    if run.any():
        if blk.size < v.size:
            K = K[blk][:, blk]
        half = functools.partial(metric.half, block=blk)
        y, steps, delta = _lanczos_expm(lambda x: half(K @ half(x, -1)),
                                        half(v[blk]), times[run])
        ys[run] = 0.0
        ys[np.ix_(run, blk)] = half(y.T, -1).T
    if stats is not None:
        stats.update(block=int(blk.size), dim=int(v.size), krylov_steps=steps,
                     last_correction=float(delta) if np.isfinite(delta) else None)
    out = [unvec(y, L.lattice) for y in ys]
    return out if np.ndim(t) else out[0]


def _invariant_block(K: sp.csr_matrix, v: np.ndarray) -> np.ndarray:
    """The sorted coordinates of the weakly connected components of K's
    stored pattern that meet supp(v).  A weak component is closed along
    every stored entry in both directions, so K maps the block into itself
    (K[~blk][:, blk] has no entry), and so does K^T.  The graph is the
    pattern, not K's complex values: an entry whose real part is zero is
    still an edge."""
    from scipy.sparse.csgraph import connected_components
    pattern = sp.csr_matrix((np.ones(K.nnz, dtype=np.int8), K.indices, K.indptr),
                            shape=K.shape)
    _, labels = connected_components(pattern, connection="weak")
    return np.flatnonzero(np.isin(labels, labels[v != 0]))


def _lanczos_expm(apply_S, v: np.ndarray, times: np.ndarray):
    """exp(-t S) v for each t of `times` (as rows), S Hermitian PSD given as
    a matvec callable, with the step count and the last correction:
    Lanczos with full reorthogonalization, one basis for all the times,
    stored as the rows of V.  S and v may be the restriction to a block
    that S maps into itself; the Krylov space then never leaves it.  At step
    k the coefficient rows c_k(t) = nrm exp(-t T_k) e_1 form one
    (n_times, k) array, from the eigenpairs of the tridiagonal T_k
    (`eigh_tridiagonal`), and V is orthonormal, so the correction at time t
    has the norm of c_k(t) - (c_{k-1}(t), 0); the iteration stops once the
    worst time's correction falls to KRYLOV_TOL * max(nrm, 1), and forms
    c_k V_k once.
    """
    from scipy.linalg import eigh_tridiagonal
    nrm = np.linalg.norm(v)
    if nrm == 0:
        return np.zeros((times.size, v.size), dtype=complex), 0, np.inf
    n = v.size
    kmax = min(KRYLOV_MAX, n)
    V = np.zeros((kmax, n), dtype=complex)
    alph = np.zeros(kmax)
    beta = np.zeros(kmax)
    V[0] = v / nrm
    w = apply_S(V[0])
    alph[0] = np.real(np.vdot(V[0], w))
    w = w - alph[0] * V[0]
    k = 1
    last = None
    delta = np.inf
    while True:
        b = np.linalg.norm(w)
        ew, Q = eigh_tridiagonal(alph[:k], beta[1:k])
        small = (np.exp(-np.outer(times, ew)) * Q[0]) @ Q.T * nrm
        if k > 1:
            delta = np.linalg.norm(small - np.pad(last, ((0, 0), (0, 1))),
                                   axis=1).max()
        if delta <= KRYLOV_TOL * max(nrm, 1.0) or b < 1e-14:
            return small @ V[:k], k, delta
        if k >= kmax:
            raise KrylovError(
                f"Krylov exponential did not converge within {kmax} vectors "
                f"(last correction {delta:.2e})")
        last = small
        beta[k] = b
        V[k] = w / b
        w = apply_S(V[k]) - b * V[k - 1]
        alph[k] = np.real(np.vdot(V[k], w))
        w = w - alph[k] * V[k]
        # full reorthogonalization keeps the tridiagonal honest; (V w*)* is
        # V* w without a conjugated copy of the basis
        w -= (V[:k + 1] @ w.conj()).conj() @ V[:k + 1]
        k += 1
