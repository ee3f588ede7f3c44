"""Gibbs states, KMS inner products, L_p functionals and modular flow.

The state is rho = exp(-beta H)/Z with the eigendecomposition of H cached, so
arbitrary complex powers rho^z are cheap.  When H is diagonal in the
computational basis (every product-state scenario) the powers stay diagonal
and everything reduces to elementwise scaling; that fast path is detected at
construction.

Conventions, fixed here and assumed everywhere downstream:

  <f, g>      = Tr(rho^(1/2) f* rho^(1/2) g)        (KMS inner product)
  alpha_z(X)  = rho^(iz) X rho^(-iz)                 (modular flow)

so for H = N (single mode): alpha_z(A) = exp(i beta z) A, and the modular
eigenvalue convention is alpha_{i/2}(X) = exp(xi) X, i.e. xi = -beta/2 for
X = A.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .fock import PRUNE_TOL, LatticeConfig, LatticeOperator, _canonical, _fro, _prune

# |Im z| guard for modular flow
DEFAULT_GUARD = 1.0
HERM_TOL = 1e-12     # relative anti-Hermitian part a Hamiltonian may carry
CONDITION_LIMIT = 1e12
# complex entries per batch of eigenbasis rotations in `modular_flows`
FLOW_BATCH = 1 << 21
# modular frequencies closer than this share a component in `decompose_modular`
CLUSTER_TOL = 1e-9


class ConditionWarning(UserWarning):
    pass


class ComponentLimitError(ValueError):
    """A direction splits into more modular components than allowed."""


@dataclass
class GibbsState:
    """rho = exp(-beta H)/Z with cached eigendecomposition of H."""

    lattice: LatticeConfig
    beta: float
    energies: np.ndarray            # eigenvalues of H
    eigvecs: np.ndarray | None      # None when H is diagonal (fast path)
    log_Z: float

    @property
    def dim(self) -> int:
        return self.lattice.dim

    @property
    def diagonal(self) -> bool:
        return self.eigvecs is None

    @property
    def log_p(self) -> np.ndarray:
        """Log eigenvalues of rho."""
        return -self.beta * self.energies - self.log_Z

    def power_diag(self, z: complex) -> np.ndarray:
        """Eigenvalues of rho^z (in the H eigenbasis)."""
        return np.exp(z * self.log_p)

    def power(self, z: complex):
        """rho^z as a sparse (diagonal case) or dense matrix."""
        d = self.power_diag(z)
        if self.diagonal:
            return sp.diags(d).tocsr()
        V = self.eigvecs
        return (V * d[None, :]) @ V.conj().T

    def to_eigenbasis(self, m) -> np.ndarray:
        m = m.toarray() if sp.issparse(m) else np.asarray(m)
        if self.diagonal:
            return m
        V = self.eigvecs
        return V.conj().T @ m @ V

    def from_eigenbasis(self, m) -> np.ndarray:
        if self.diagonal:
            return m
        V = self.eigvecs
        return V @ m @ V.conj().T


def _logsumexp(a: np.ndarray) -> float:
    """log sum exp(a) with the arithmetic of scipy.special.logsumexp: the m
    maximal terms are set aside (zeroed in place, so the summation order is
    scipy's) and the rest summed relative to them."""
    a_max = a.max()
    mask = a == a_max
    m = mask.sum()
    e = np.exp(a - a_max)
    e[mask] = 0.0
    return float(np.log1p(e.sum() / m) + np.log(m) + a_max)


def gibbs_state(H: LatticeOperator, beta: float) -> GibbsState:
    """Build the Gibbs state of a Hermitian lattice Hamiltonian, read from
    `_canonical(H.matrix)`, so H is not modified.  The partition constant is
    handled in the shifted log domain, so extreme beta * spectrum products do
    not overflow.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    m = _canonical(H.matrix)
    scale = max(_fro(m), 1.0)
    anti_hermitian, off_diagonal = _hermiticity_defects(m)
    if anti_hermitian > HERM_TOL * scale:
        raise ValueError("Hamiltonian is not Hermitian within tolerance")
    if off_diagonal <= 1e-14 * scale:
        energies = np.real(m.diagonal().copy())
        eigvecs = None
    else:
        energies, eigvecs = np.linalg.eigh(m.toarray())
    log_Z = _logsumexp(-beta * energies)
    return GibbsState(lattice=H.lattice, beta=beta,
                      energies=np.asarray(energies, float), eigvecs=eigvecs,
                      log_Z=log_Z)


def _hermiticity_defects(m: sp.csr_matrix) -> tuple[float, float]:
    """Frobenius norms of m - m^dag and of m's off-diagonal part, from the
    arrays of `_canonical(m)` (m is not modified).  Each stored m[i, j] finds
    its mirror m[j, i] by binary search in the sorted keys i D + j; one with
    no stored mirror also counts for the absent (j, i)."""
    m = _canonical(m)
    D = m.shape[0]
    rows = np.repeat(np.arange(D), np.diff(m.indptr))
    keys, mirror = rows * D + m.indices, m.indices * D + rows
    pos = np.minimum(np.searchsorted(keys, mirror), keys.size - 1)
    found = keys[pos] == mirror
    diff = m.data - np.where(found, m.data[pos], 0.0).conj()
    lone = m.data[~found]
    return (float(np.sqrt(np.vdot(diff, diff).real + np.vdot(lone, lone).real)),
            float(np.linalg.norm(m.data[rows != m.indices])))


@dataclass
class KmsMetric:
    """The sesquilinear form <f, g> = Tr(rho^(1/2) f* rho^(1/2) g)."""

    state: GibbsState

    def inner(self, f: LatticeOperator, g: LatticeOperator) -> complex:
        if f.matrix.shape != g.matrix.shape or f.matrix.shape[0] != self.state.dim:
            raise ValueError("operator dimensions do not match the state")
        return self.vec_inner(vec(f), vec(g))

    def norm(self, f) -> float:
        v = self.inner(f, f)
        return float(np.sqrt(max(v.real, 0.0)))

    def expectation(self, f: LatticeOperator) -> complex:
        """omega(f) = Tr(rho f) = <1, f>."""
        return self.vec_inner(np.eye(self.state.dim).reshape(-1), vec(f))

    def variance(self, f) -> float:
        """||f - omega(f)||^2 in this metric."""
        v = self.inner(f, f).real - abs(self.expectation(f)) ** 2
        return float(max(v, 0.0))

    # --- vectorized-operator (superoperator) geometry -------------------
    # column-stacking vec: <f, g> = vec(f)^dag G vec(g) with
    # G = (rho^(1/2))^T kron rho^(1/2), and the frame H = G^(1/2) with
    # H vec(F) = vec(rho^(1/4) F rho^(1/4)).

    @cached_property
    def _half_factors(self) -> dict:
        """H^(+-1): elementwise weights on a diagonal state, else rho^(+-1/4)."""
        if self.state.diagonal:
            s = np.exp(0.5 * self.state.log_p)
            w = np.sqrt(np.kron(s, s))  # w[i + D*j] = (s_i s_j)^(1/2)
            return {1: w, -1: 1.0 / w}
        return {1: self.state.power(0.25), -1: self.state.power(-0.25)}

    def half(self, x: np.ndarray, s: int = 1, block=None) -> np.ndarray:
        """H^s x for s = +-1, for one vectorized operator or for each column
        of a (D^2, k) array.  On a diagonal state H is elementwise, and x may
        hold only the coordinates `block` of a vectorized operator; on a
        non-diagonal state H mixes coordinates, x holds all of them and
        `block` is not read."""
        f = self._half_factors[s]
        if self.state.diagonal:
            if block is not None:
                f = f[block]
            return f * x if x.ndim == 1 else f[:, None] * x
        D = self.state.dim
        X = np.moveaxis(x.reshape(D, D, -1, order="F"), 2, 0)
        return np.moveaxis(f @ X @ f, 0, 2).reshape(x.shape, order="F")

    def vec_inner(self, x: np.ndarray, y: np.ndarray) -> complex | np.ndarray:
        """vec(f)^dag G vec(g) for one pair of vectorized operators, or the
        array of these values over the columns of two (D^2, k) arrays."""
        return (self.half(x).conj() * self.half(y)).sum(axis=0)


def vec(op: LatticeOperator | sp.spmatrix) -> np.ndarray:
    """Column-stacked vec(F)[i + D*j] = F[i, j]."""
    return op.toarray().reshape(-1, order="F")


def lp_norm(f: LatticeOperator, state: GibbsState, p: int, s: float) -> float:
    """||f||_{omega,p,s} = (Tr |rho^((1-s)/p) f rho^(s/p)|^p)^(1/p)."""
    if not (isinstance(p, (int, np.integer)) and p >= 1):
        raise ValueError(f"p must be an integer >= 1, got {p}")
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    fm = f.toarray()
    left = state.power((1.0 - s) / p)
    right = state.power(s / p)
    left = left.toarray() if sp.issparse(left) else left
    right = right.toarray() if sp.issparse(right) else right
    sv = np.linalg.svd(left @ fm @ right, compute_uv=False)
    return float(np.sum(sv ** p) ** (1.0 / p))


def modular_flows(X: LatticeOperator, state: GibbsState, zs) -> sp.csr_matrix:
    """alpha_z(X) for every z in `zs`: a (len(zs), D^2) CSR whose row n is
    the row-major flattening of alpha_{zs[n]}(X), pruned at PRUNE_TOL.

    Each z gets the guard-strip ValueError and the ConditionWarning of a
    single flow.  For a diagonal state the rows share the pattern of X and
    differ by phases u_r / u_c; otherwise they are batched rotations in the
    H eigenbasis.
    """
    zs = np.atleast_1d(zs)
    for z in zs:
        if abs(np.imag(z)) > DEFAULT_GUARD + 1e-12:
            raise ValueError(f"|Im z| = {abs(np.imag(z))} exceeds guard strip "
                             f"{DEFAULT_GUARD}")
    Xm = X.matrix
    D = state.dim
    logu = 1j * zs[:, None] * state.log_p[None, :]  # rho^{iz} eigenvalues = exp(logu)
    spread = np.max(logu.real, axis=1) - np.min(logu.real, axis=1)
    for z, s in zip(zs, spread):
        if s > np.log(CONDITION_LIMIT):
            warnings.warn(
                f"modular flow at z={z}: eigenvalue ratio exp({s:.1f}) "
                "exceeds 1e12 after powering", ConditionWarning, stacklevel=2)
    u = np.exp(logu)
    if state.diagonal:
        rows = np.repeat(np.arange(D), np.diff(Xm.indptr))
        data = Xm.data * u[:, rows] / u[:, Xm.indices]
        cols = np.broadcast_to(rows * D + Xm.indices, data.shape)
    else:
        Xe = state.to_eigenbasis(Xm)
        V = state.eigvecs
        data = np.empty((len(zs), D * D), dtype=complex)
        step = max(1, FLOW_BATCH // (D * D))
        for lo in range(0, len(zs), step):
            ub = u[lo:lo + step]
            rot = V @ ((ub[:, :, None] / ub[:, None, :]) * Xe) @ V.conj().T
            data[lo:lo + step] = rot.reshape(-1, D * D)
        cols = np.broadcast_to(np.arange(D * D), data.shape)
    keep = np.abs(data) >= PRUNE_TOL
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sp.csr_matrix((data[keep], cols[keep], indptr),
                         shape=(len(zs), D * D))


def modular_flow(X: LatticeOperator, state: GibbsState, z: complex) -> LatticeOperator:
    """alpha_z(X) = rho^(iz) X rho^(-iz), guarded on the imaginary strip:
    the one-row case of `modular_flows`, read as a D x D CSR in canonical
    format (flat index c is entry (c // D, c mod D)).  Its support is the
    whole lattice."""
    lattice = X.lattice
    D = state.dim
    flat = modular_flows(X, state, [z])
    out = sp.csr_matrix((flat.data, flat.indices % D,
                         np.searchsorted(flat.indices, D * np.arange(D + 1))),
                        shape=(D, D))
    out.sum_duplicates()
    return LatticeOperator(out, frozenset(range(lattice.n_sites)), lattice,
                           f"alpha_{z}({X.label})")


def decompose_modular(X: LatticeOperator, state: GibbsState, *,
                      max_components: int = 64):
    """Split X into modular eigencomponents under the given state.

    In the H eigenbasis the entry (i, j) of X evolves with frequency
    omega_ij = -(h_i - h_j), i.e. alpha_t(X_ij) = exp(i beta omega_ij t) X_ij.
    Entries are bucketed by omega within CLUSTER_TOL; the returned list holds
    (component operator, omega) pairs with X = sum of components, each with
    the whole lattice as support.  More than `max_components` buckets raise
    ComponentLimitError.
    """
    lattice = X.lattice
    Xe = state.to_eigenbasis(X.matrix)
    Xe = sp.coo_matrix(Xe)
    if Xe.nnz:
        # rotation noise would otherwise seed spurious frequency buckets
        floor = 1e-13 * np.max(np.abs(Xe.data))
        mask = np.abs(Xe.data) > floor
        Xe = sp.coo_matrix((Xe.data[mask], (Xe.row[mask], Xe.col[mask])),
                           shape=Xe.shape)
    if Xe.nnz == 0:
        return []
    h = state.energies
    omega = -(h[Xe.row] - h[Xe.col])
    order = np.argsort(omega, kind="stable")
    buckets: list[tuple[float, list[int]]] = []
    for idx in order:
        w = omega[idx]
        if buckets and abs(w - buckets[-1][0]) <= CLUSTER_TOL:
            buckets[-1][1].append(idx)
        else:
            buckets.append((float(w), [idx]))
    if len(buckets) > max_components:
        raise ComponentLimitError(
            f"direction {X.label!r} splits into {len(buckets)} modular "
            f"components (limit {max_components}); no usable finite "
            "eigendecomposition under this state")
    support = frozenset(range(lattice.n_sites))
    comps = []
    for w, idxs in buckets:
        idxs = np.asarray(idxs)
        m = sp.csr_matrix((Xe.data[idxs], (Xe.row[idxs], Xe.col[idxs])),
                          shape=Xe.shape)
        m_full = m if state.diagonal else state.from_eigenbasis(m.toarray())
        comps.append((LatticeOperator(_prune(m_full), support, lattice,
                                      f"{X.label}[w={w:.3g}]"), w))
    return comps
