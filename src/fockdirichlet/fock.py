"""Truncated bosonic ladder operators on finite lattices.

Each lattice site carries a single oscillator mode truncated at occupation
n_max, so the many-body space is the tensor product of (n_max+1)-dimensional
factors.  Sites are serialized in row-major order of their coordinates and
the Kronecker factors follow that order (site 0 is the leftmost factor).

The hard cutoff makes the creation operator annihilate the top level, which
violates [A, A+] = 1 on exactly one level: the defect is the rank-one
operator -(n_max+1) * |n_max><n_max|.  Identities that hold exactly in
infinite dimensions therefore hold here only on a "clean" subspace away from
the cutoff; `clean_projector` / `total_sector_projector` give the basis
states those residuals are stated on, and `TruncationReport` records the
defect.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

# entries smaller than this are dropped after operator products
PRUNE_TOL = 1e-15


def _as_tuple(x) -> tuple:
    return x if isinstance(x, tuple) else (x,)


@dataclass(frozen=True)
class LatticeConfig:
    """Finite lattice of truncated oscillator modes.

    geometry is one of "chain" (open 1D), "cycle" (periodic 1D) or "box"
    (open d-dimensional block).  Neighbours are pairs at l1 distance
    0 < dist <= neighbor_radius.
    """

    dims: int
    extent: int | Sequence[int]
    geometry: str = "chain"
    neighbor_radius: float = 1.0
    n_max: int = 1

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.geometry not in ("chain", "cycle", "box"):
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if self.geometry in ("chain", "cycle") and self.dims != 1:
            raise ValueError(f"{self.geometry} geometry requires dims=1")
        if not isinstance(self.extent, int) and len(self.extent) != self.dims:
            raise ValueError(f"extent {list(self.extent)} has "
                             f"{len(self.extent)} entries but dims is {self.dims}")
        if self.neighbor_radius <= 0:
            raise ValueError("neighbor_radius must be positive")

    @property
    def extents(self) -> tuple[int, ...]:
        if isinstance(self.extent, int):
            return (self.extent,) * self.dims
        return tuple(self.extent)

    @property
    def sites(self) -> tuple[tuple[int, ...], ...]:
        # row-major order of coordinates
        return tuple(itertools.product(*(range(e) for e in self.extents)))

    @property
    def n_sites(self) -> int:
        return int(math.prod(self.extents))

    @property
    def local_dim(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return self.local_dim ** self.n_sites

    def distance(self, i, j) -> int:
        """l1 lattice distance, wrapped around for the cycle."""
        i, j = _as_tuple(i), _as_tuple(j)
        if self.geometry == "cycle":
            L = self.extents[0]
            d = abs(i[0] - j[0])
            return min(d, L - d)
        return sum(abs(a - b) for a, b in zip(i, j))

    def neighbor_pairs(self) -> list[tuple[int, int]]:
        """Unordered neighbour pairs (site indices, i < j)."""
        sites = self.sites
        return [(a, b) for a in range(len(sites)) for b in range(a + 1, len(sites))
                if 0 < self.distance(sites[a], sites[b]) <= self.neighbor_radius]

    def ordered_neighbor_pairs(self) -> list[tuple[int, int]]:
        """All ordered neighbour pairs (j, k), j != k."""
        pairs = self.neighbor_pairs()
        return pairs + [(b, a) for (a, b) in pairs]

    def occupations(self) -> np.ndarray:
        """(dim, n_sites) table of occupation numbers per basis state."""
        d = self.local_dim
        idx = np.arange(self.dim)
        occ = np.empty((self.dim, self.n_sites), dtype=np.int64)
        for k in range(self.n_sites - 1, -1, -1):
            occ[:, k] = idx % d
            idx = idx // d
        return occ


def _prune(m: sp.spmatrix) -> sp.csr_matrix:
    """m as CSR without its stored entries of modulus below PRUNE_TOL.  m is
    never modified, and a CSR m with nothing to drop is returned itself."""
    if not isinstance(m, sp.csr_matrix):
        m = sp.csr_matrix(m)
    small = np.abs(m.data) < PRUNE_TOL
    if small.any():
        m = m.copy()
        m.data[small] = 0.0
        m.eliminate_zeros()
    return m


def _canonical(m: sp.csr_matrix) -> sp.csr_matrix:
    """m if its indices are sorted and unique, else a sorted, summed copy."""
    if m.has_canonical_format:
        return m
    m = m.copy()
    m.sum_duplicates()
    return m


def _fro(m: sp.csr_matrix) -> float:
    """Frobenius norm of a CSR or CSC matrix, bit for bit as
    scipy.sparse.linalg.norm: the norm of `_canonical(m).data`."""
    return float(np.linalg.norm(_canonical(m).data))


@dataclass
class LatticeOperator:
    """Sparse operator on the lattice Fock space with site-support tracking.

    `support` lists the site indices the operator may act on nontrivially;
    it acts as the identity on all other modes.  Support is propagated as a
    superset under sums and products, which keeps the bookkeeping safe.
    """

    matrix: sp.csr_matrix
    support: frozenset[int]
    lattice: LatticeConfig
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.matrix, sp.csr_matrix):
            self.matrix = sp.csr_matrix(self.matrix)
        self.support = frozenset(self.support)
        if self.matrix.shape != (self.lattice.dim, self.lattice.dim):
            raise ValueError("matrix shape does not match lattice dimension")

    def dag(self) -> "LatticeOperator":
        return LatticeOperator(self.matrix.conj().T.tocsr(), self.support,
                               self.lattice, f"({self.label})*")

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def norm(self) -> float:
        """Operator (spectral) norm."""
        return float(np.linalg.norm(self.toarray(), 2))

    def fro_norm(self) -> float:
        return _fro(self.matrix)

    def _wrap(self, m, support, label):
        return LatticeOperator(_prune(m), support, self.lattice, label)

    def __add__(self, other):
        if isinstance(other, LatticeOperator):
            return self._wrap(self.matrix + other.matrix,
                              self.support | other.support,
                              f"{self.label}+{other.label}")
        return self._wrap(self.matrix + other * sp.identity(self.lattice.dim, format="csr"),
                          self.support, self.label)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, LatticeOperator):
            return self._wrap(self.matrix - other.matrix,
                              self.support | other.support,
                              f"{self.label}-{other.label}")
        return self + (-other)

    def __neg__(self):
        return self._wrap(-self.matrix, self.support, f"-{self.label}")

    def __mul__(self, c):
        return self._wrap(self.matrix * c, self.support, self.label)

    __rmul__ = __mul__

    def __truediv__(self, c):
        return self * (1.0 / c)

    def __matmul__(self, other: "LatticeOperator") -> "LatticeOperator":
        return self._wrap(self.matrix @ other.matrix,
                          self.support | other.support,
                          f"{self.label}{other.label}")


def commutator(x: LatticeOperator, y: LatticeOperator) -> LatticeOperator:
    return x @ y - y @ x


def combination(ops, coeffs=None) -> LatticeOperator:
    """ops[0] c_0 + ops[1] c_1 + ..., each term scaled and then added from
    left to right; a single number applies to every term, and with no
    coeffs the operators are added as they are."""
    if coeffs is not None:
        if np.isscalar(coeffs):
            coeffs = [coeffs] * len(ops)
        ops = [op * c for op, c in zip(ops, coeffs)]
    out, *rest = ops
    for op in rest:
        out = out + op
    return out


def product(ops) -> LatticeOperator:
    """ops[0] @ ops[1] @ ..., multiplied from left to right."""
    out, *rest = ops
    for op in rest:
        out = out @ op
    return out


def build_mode_ops(n_max: int):
    """Single-mode ladder matrices (A, A+, N) truncated at n_max.

    A e_n = sqrt(n) e_{n-1}; A+ e_n = sqrt(n+1) e_{n+1} for n < n_max and
    A+ e_{n_max} = 0; N = A+ A = diag(0..n_max).  Each is a complex CSR,
    built from its arrays, that stores only its nonzero entries.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    d = n_max + 1
    # A holds rows 0..d-2 at columns 1..d-1; A+ and N hold rows 1..d-1
    k = np.arange(1, d)
    upper = np.minimum(np.arange(d + 1), d - 1)
    lower = np.maximum(np.arange(d + 1) - 1, 0)
    A = sp.csr_matrix((np.sqrt(k).astype(complex), k, upper), shape=(d, d))
    Adag = sp.csr_matrix((np.sqrt(k).astype(complex), k - 1, lower), shape=(d, d))
    N = sp.csr_matrix((k.astype(complex), k, lower), shape=(d, d))
    return A, Adag, N


@dataclass(frozen=True)
class TruncationReport:
    """Measured violation of the CCR at the cutoff level."""

    n_max: int
    defect_norm: float
    clean_dim: int
    rank_one: bool

    @classmethod
    def measure(cls, n_max: int) -> "TruncationReport":
        A, Adag, _ = build_mode_ops(n_max)
        defect = (A @ Adag - Adag @ A - sp.identity(n_max + 1)).toarray()
        # the defect should be -(n_max+1) * |top><top|
        expected = np.zeros_like(defect)
        expected[n_max, n_max] = -(n_max + 1)
        rank_one = bool(np.allclose(defect, expected, atol=1e-13))
        return cls(n_max=n_max,
                   defect_norm=float(np.linalg.norm(defect, 2)),
                   clean_dim=n_max,
                   rank_one=rank_one)


def identity_operator(lattice: LatticeConfig) -> LatticeOperator:
    return LatticeOperator(sp.identity(lattice.dim, format="csr", dtype=complex),
                           frozenset(), lattice, "I")


def embed(op, site: int, lattice: LatticeConfig, label: str = "") -> LatticeOperator:
    """The single-mode operator `op` (anything `sp.csr_matrix` accepts; not
    modified) at site index `site`, extended by the identity on all other
    modes: kron(I_{d^site}, op, I_{d^(n-site-1)}).  Its CSR arrays are those
    of `_prune` of the two `sp.kron` products, built by index arithmetic
    from the arrays of op in canonical format."""
    d, n = lattice.local_dim, lattice.n_sites
    if not 0 <= site < n:
        raise ValueError(f"site index {site} outside lattice")
    op = op if isinstance(op, sp.csr_matrix) else sp.csr_matrix(op)
    if op.shape != (d, d):
        raise ValueError(f"operator dimension {op.shape} does not match "
                         f"local dimension {d}")
    op = _prune(_canonical(op))
    R = d ** (n - site - 1)
    # kron(op, I_R): row (i, k) repeats the entries of row i, for each k
    row = np.repeat(np.arange(d), R)
    cnt = np.diff(op.indptr)[row]
    end = np.cumsum(cnt)
    ent = np.arange(end[-1]) + np.repeat(op.indptr[row] - end + cnt, cnt)
    cols = op.indices[ent] * R + np.repeat(np.tile(np.arange(R), d), cnt)
    # kron(I_L, .): the block above once per l, shifted by l d R columns
    shift = np.arange(d ** site)[:, None]
    out = sp.csr_matrix((np.tile(op.data[ent], d ** site),
                         (shift * (d * R) + cols).ravel(),
                         np.append(0, (shift * end[-1] + end).ravel())),
                        shape=(lattice.dim, lattice.dim))
    return LatticeOperator(out, frozenset({site}), lattice, label)


def site_operator(lattice: LatticeConfig, kind: str, site: int) -> LatticeOperator:
    """Embedded single-site ladder operator; kind in {'a', 'adag', 'n'}."""
    A, Adag, N = build_mode_ops(lattice.n_max)
    op = {"a": A, "adag": Adag, "n": N}[kind]
    name = {"a": f"A_{site}", "adag": f"A*_{site}", "n": f"N_{site}"}[kind]
    return embed(op, site, lattice, name)


def mollify(site: int, epsilon: float, lattice: LatticeConfig):
    """Bounded ladder pair a = (1 + eps * N^(1/2))^(-1) A at one site."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    A, _, _ = build_mode_ops(lattice.n_max)
    scale = 1.0 / (1.0 + epsilon * np.sqrt(np.arange(lattice.n_max + 1)))
    a1 = sp.diags(scale) @ A
    a = embed(a1, site, lattice, f"a_{site}")
    return a, a.dag()


def clean_projector(lattice: LatticeConfig, margin: int) -> np.ndarray:
    """The diagonal projector onto basis states with every site occupation
    <= n_max - margin, given by the sorted indices of the states it keeps."""
    occ = lattice.occupations()
    return np.flatnonzero(np.all(occ <= lattice.n_max - margin, axis=1))


def total_sector_projector(lattice: LatticeConfig, max_total: int) -> np.ndarray:
    """The diagonal projector onto basis states of total occupation
    <= max_total, given by the sorted indices of the states it keeps."""
    return np.flatnonzero(lattice.occupations().sum(axis=1) <= max_total)


def compressed(op: LatticeOperator, keep: np.ndarray) -> np.ndarray:
    """Dense block of op on the basis states `keep` (rows and columns)."""
    return op.matrix[keep][:, keep].toarray()
