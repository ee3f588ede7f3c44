"""Catalog of lattice models: declarative specs, built directions and states,
exact algebraic identity checks, and modular orbits.

Model kinds
-----------
mean_field      collective mode X = (1/sqrt(N)) sum A_k, interacting state
                from U = X* X.
mean_field_n    collective power X_n = N^-eps sum A_k^n, same state; modular
                orbit by an integer coefficient recursion.
z_field         translated fields Z_kappa = sum_l kappa_l A_{l+j} over a
                product state.
zjk_quadratic   edge fields Z_jk = kappa_j A_j + eps_k A_k with the
                quadratic Hamiltonian H = sum Z* Z (ordered edges).
y_field         Y = Z_kappa - Z_xi* mixing creators and annihilators.
w_ops           hopping monomials A_j*^n A_k^m (optionally symmetrized).
z_power         Z_jk = A_j^n - A_k^m per edge, optionally with the 1/2
                normalization used by the surface/volume scaling argument.
y_power         Y_jk = A_j^n - A_k*^m per edge.
g_model         squared field G = Y^2 / 2 with Y = kappa A + xi A*, state
                from the quadratic one-site Hamiltonian Y* Y.
invariant_aij   shifted monomials prod_{i in I} A_i prod_{j in J} A_j*,
                modular-invariant when |I| = |J|.

Identities that the cutoff necessarily breaks at the top occupation levels
are verified on clean compressions (see fock.clean_projector); each check
records the margin it used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dirichlet import DerivationDirection
from .fock import (LatticeConfig, LatticeOperator, build_mode_ops, clean_projector,
                   commutator, compressed, embed, identity_operator, site_operator,
                   total_sector_projector)
from .state import GibbsState, KmsMetric, gibbs_state, modular_flow

MODEL_KINDS = ("mean_field", "mean_field_n", "z_field", "zjk_quadratic",
               "y_field", "w_ops", "z_power", "y_power", "g_model",
               "invariant_aij")
# kinds whose state is the product Gibbs state of the number Hamiltonian
PRODUCT_KINDS = ("z_field", "y_field", "w_ops", "z_power", "y_power",
                 "invariant_aij")


@dataclass
class ModelSpec:
    kind: str
    lattice: LatticeConfig
    beta: float = 1.0
    nu: float = 1.0
    mu: float = 1.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        _validate_params(self)


def _validate_params(spec: ModelSpec):
    p = spec.params
    kind = spec.kind
    if kind == "mean_field_n":
        n = p.get("n", 2)
        if not (isinstance(n, int) and n > 1):
            raise ValueError("mean_field_n requires integer n > 1")
        eps = p.get("eps", 0.5)
        if not 0.0 <= eps <= 1.0:
            raise ValueError("mean_field_n requires eps in [0, 1]")
    if kind in ("z_field", "y_field"):
        kap = p.get("kappa", (1.0,))
        if not len(kap):
            raise ValueError(f"{kind} requires a nonempty coefficient sequence")
        if max(abs(complex(c)) for c in kap) == 0:
            raise ValueError(f"{kind} requires a nonzero coefficient sequence")
    if kind in ("w_ops", "z_power", "y_power"):
        n, m = p.get("n", 1), p.get("m", 1)
        if min(n, m) < 1:
            raise ValueError(f"{kind} requires n, m >= 1")
        if max(n, m) > spec.lattice.n_max:
            raise ValueError(f"{kind} powers exceed the cutoff: "
                             f"n={n}, m={m}, n_max={spec.lattice.n_max}")
    if kind == "g_model":
        kap, xi = complex(p.get("kappa", 1.0)), complex(p.get("xi", 0.0))
        if kap == 0 and xi == 0:
            raise ValueError("g_model requires (kappa, xi) != 0")
    if kind == "invariant_aij":
        if not p.get("sites_i") or not p.get("sites_j"):
            raise ValueError("invariant_aij requires nonempty site sets I and J")


@dataclass
class BuiltModel:
    spec: ModelSpec
    state: GibbsState
    metric: KmsMetric
    directions: list[DerivationDirection]
    # analytic eigencomponent data per direction, where exact under the
    # truncated state: list of (operator, frequency) or None
    orbits: list[list[tuple[LatticeOperator, float]] | None]
    notes: tuple[str, ...] = ()


def _ladder(lattice: LatticeConfig):
    a = [site_operator(lattice, "a", s) for s in range(lattice.n_sites)]
    return a, [x.dag() for x in a]


def _number_hamiltonian(lattice: LatticeConfig) -> LatticeOperator:
    A, Adag, N = build_mode_ops(lattice.n_max)
    out = embed(N, [0], lattice, "N_0")
    for s in range(1, lattice.n_sites):
        out = out + embed(N, [s], lattice, f"N_{s}")
    return out


def _pow(op: LatticeOperator, k: int) -> LatticeOperator:
    out = op
    for _ in range(k - 1):
        out = out @ op
    return out


def edge_list(lattice: LatticeConfig, convention: str):
    if convention == "ordered":
        return lattice.ordered_neighbor_pairs()
    if convention == "unordered":
        return lattice.neighbor_pairs()
    raise ValueError(f"unknown edge convention {convention!r}")


def build_model(spec: ModelSpec) -> BuiltModel:
    lattice = spec.lattice
    beta = spec.beta
    a, ad = _ladder(lattice)
    kind = spec.kind
    p = spec.params
    notes = []
    if kind in PRODUCT_KINDS:
        state = gibbs_state(_number_hamiltonian(lattice), beta, product=True)

    if kind in ("mean_field", "mean_field_n"):
        X = a[0] * (1.0 / np.sqrt(lattice.n_sites))
        for s in range(1, lattice.n_sites):
            X = X + a[s] * (1.0 / np.sqrt(lattice.n_sites))
        X.label = "X"
        U = X.dag() @ X
        state = gibbs_state(U, beta, product=(lattice.n_sites == 1))
        if kind == "mean_field":
            directions = [DerivationDirection(X, spec.nu, spec.mu)]
            orbits = [[(X, 1.0)]]
        else:
            n, eps = p.get("n", 2), p.get("eps", 0.5)
            Xn = _pow(a[0], n) * (1.0 / lattice.n_sites ** eps)
            for s in range(1, lattice.n_sites):
                Xn = Xn + _pow(a[s], n) * (1.0 / lattice.n_sites ** eps)
            Xn.label = f"X_{n}"
            directions = [DerivationDirection(Xn, spec.nu, spec.mu)]
            orbits = [None]
            notes.append("orbit via the coefficient recursion; see "
                         "mean_field_n_orbit")
    elif kind in ("z_field", "y_field"):
        kap = [complex(c) for c in p.get("kappa", (1.0,))]
        xi = [complex(c) for c in p.get("xi", kap)]
        directions, orbits = [], []
        for shift in _shifts(lattice, max(len(kap), len(xi))):
            Zk = _translated_field(a, kap, shift, lattice, f"Z_k@{shift}")
            Zx = _translated_field(a, xi, shift, lattice, f"Z_x@{shift}")
            if kind == "z_field":
                if spec.nu:
                    directions.append(DerivationDirection(Zk, spec.nu, 0.0))
                    orbits.append([(Zk, 1.0)])
                if spec.mu:
                    directions.append(DerivationDirection(Zx, 0.0, spec.mu))
                    orbits.append([(Zx, 1.0)])
            else:
                Y = Zk - Zx.dag()
                Y.label = f"Y@{shift}"
                comps = [(Zk, 1.0), (Zx.dag() * (-1.0), -1.0)]
                directions.append(DerivationDirection(Y, spec.nu, spec.mu,
                                                      components=comps))
                orbits.append(comps)
    elif kind == "zjk_quadratic":
        conv = p.get("edges", "ordered")
        kap = _per_site(p.get("kappa", 1.0), lattice)
        eps = _per_site(p.get("eps", 1.0), lattice)
        edges = edge_list(lattice, conv)
        H = None
        directions, orbits = [], []
        for (j, k) in edges:
            Z = a[j] * kap[j] + a[k] * eps[k]
            Z.label = f"Z_{j},{k}"
            term = Z.dag() @ Z
            H = term if H is None else H + term
            directions.append(DerivationDirection(Z, spec.nu, spec.mu))
            orbits.append(None)
        state = gibbs_state(H, beta, product=False)
        notes.append(f"H sums {conv} neighbour pairs")
    elif kind == "w_ops":
        n, m = p.get("n", 1), p.get("m", 1)
        selfadjoint = p.get("selfadjoint", False)
        ergodic_fix = p.get("ergodic_fix", False)
        conv = p.get("edges", "ordered" if not selfadjoint else "unordered")
        directions, orbits = [], []
        for (j, k) in edge_list(lattice, conv):
            Wjk = _pow(ad[j], n) @ _pow(a[k], m)
            Wjk.label = f"W_{j},{k}"
            if selfadjoint:
                Wkj = _pow(ad[k], m) @ _pow(a[j], n)
                W = Wjk + Wkj
                W.label = f"W_{j},{k}+W_{k},{j}"
                comps = [(Wjk, float(m - n))] if m == n else \
                    [(Wjk, float(m - n)), (Wkj, float(n - m))]
                if m == n:
                    comps = [(W, 0.0)]
                directions.append(DerivationDirection(W, spec.nu, spec.mu,
                                                      components=comps))
                orbits.append(comps)
            else:
                directions.append(DerivationDirection(
                    Wjk, spec.nu, spec.mu, components=[(Wjk, float(m - n))]))
                orbits.append([(Wjk, float(m - n))])
            if ergodic_fix:
                V = (Wjk - Wjk.dag()) * 1j if (selfadjoint and m == n) else None
                if V is not None:
                    V.label = f"V_{j},{k}"
                    directions.append(DerivationDirection(
                        V, spec.nu, spec.mu, components=[(V, 0.0)]))
                    orbits.append([(V, 0.0)])
    elif kind in ("z_power", "y_power"):
        n, m = p.get("n", 1), p.get("m", 1)
        conv = p.get("edges", "ordered")
        scale = 0.5 if p.get("half", False) else 1.0
        directions, orbits = [], []
        for (j, k) in edge_list(lattice, conv):
            if kind == "z_power":
                comps = [(_pow(a[j], n) * scale, float(n)),
                         (_pow(a[k], m) * (-scale), float(m))]
                Z = comps[0][0] + comps[1][0]
                Z.label = f"Z_{j},{k}"
            else:
                comps = [(_pow(a[j], n) * scale, float(n)),
                         (_pow(ad[k], m) * (-scale), float(-m))]
                Z = comps[0][0] + comps[1][0]
                Z.label = f"Y_{j},{k}"
            directions.append(DerivationDirection(Z, spec.nu, spec.mu,
                                                  components=comps))
            orbits.append(comps)
    elif kind == "g_model":
        kap, xi = complex(p.get("kappa", np.sqrt(2))), complex(p.get("xi", 1.0))
        H = None
        directions, orbits = [], []
        R = abs(kap) ** 2 - abs(xi) ** 2
        for s in range(lattice.n_sites):
            Y = a[s] * kap + ad[s] * xi
            Y.label = f"Y_{s}"
            Ns = Y.dag() @ Y
            H = Ns if H is None else H + Ns
            G = (Y @ Y) * 0.5
            G.label = f"G_{s}"
            directions.append(DerivationDirection(G, spec.nu, spec.mu))
            orbits.append(None)
        state = gibbs_state(H, beta, product=False)
        notes.append(f"modular frequency of G is 2R = {2 * R:.6g} up to "
                     "truncation; eigen assembly decomposes numerically")
    elif kind == "invariant_aij":
        I_sites = [tuple(s) if not isinstance(s, int) else (s,)
                   for s in p["sites_i"]]
        J_sites = [tuple(s) if not isinstance(s, int) else (s,)
                   for s in p["sites_j"]]
        freq = float(len(I_sites) - len(J_sites))
        directions, orbits = [], []
        for shift in _aij_shifts(lattice, I_sites, J_sites):
            op = _aij_operator(a, ad, I_sites, J_sites, shift, lattice)
            directions.append(DerivationDirection(op, spec.nu, spec.mu,
                                                  components=[(op, freq)]))
            orbits.append([(op, freq)])
    else:  # pragma: no cover
        raise ValueError(kind)

    return BuiltModel(spec=spec, state=state, metric=KmsMetric(state),
                      directions=directions, orbits=orbits, notes=tuple(notes))


def _per_site(value, lattice: LatticeConfig) -> list[complex]:
    if np.isscalar(value):
        return [complex(value)] * lattice.n_sites
    vals = [complex(v) for v in value]
    if len(vals) != lattice.n_sites:
        raise ValueError("per-site coefficient list does not match lattice size")
    return vals


def _shifts(lattice: LatticeConfig, support: int):
    if lattice.geometry == "cycle":
        return list(range(lattice.n_sites))
    return list(range(lattice.n_sites - support + 1))


def _translated_field(a, coeffs, shift, lattice, label) -> LatticeOperator:
    out = None
    for l, c in enumerate(coeffs):
        if c == 0:
            continue
        idx = (shift + l) % lattice.n_sites if lattice.geometry == "cycle" \
            else shift + l
        term = a[idx] * c
        out = term if out is None else out + term
    out.label = label
    return out


def _aij_shifts(lattice: LatticeConfig, I_sites, J_sites):
    cells = I_sites + J_sites
    if lattice.geometry == "cycle":
        return list(range(lattice.n_sites))
    lo = min(s[0] for s in cells)
    hi = max(s[0] for s in cells)
    if lattice.dims != 1:
        raise ValueError("invariant_aij shifts are implemented for 1D lattices")
    return [k - lo for k in range(0, lattice.extents[0] - (hi - lo))]


def _aij_operator(a, ad, I_sites, J_sites, shift, lattice) -> LatticeOperator:
    def site_at(s):
        if lattice.geometry == "cycle":
            return (s[0] + shift) % lattice.n_sites
        return s[0] + shift
    out = None
    for s in I_sites:
        term = a[site_at(s)]
        out = term if out is None else out @ term
    for s in J_sites:
        term = ad[site_at(s)]
        out = term if out is None else out @ term
    out.label = f"A(I+{shift},J+{shift})"
    return out


# --------------------------------------------------------------------------
# algebraic identity checks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityCheck:
    name: str
    residual: float
    tol: float
    margin: int
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


@dataclass
class AlgebraReport:
    model: str
    checks: list[IdentityCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def worst(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)


def _clean_norm(op: LatticeOperator, lattice: LatticeConfig, margin: int) -> float:
    block = compressed(op, clean_projector(lattice, margin))
    if block.size == 0:
        return float("nan")
    return float(np.linalg.norm(block, 2))


def _check(name, lhs: LatticeOperator, rhs: LatticeOperator, lattice,
           margin: int, tol: float = 1e-10, note: str = "") -> IdentityCheck:
    res = _clean_norm(lhs - rhs, lattice, margin)
    return IdentityCheck(name=name, residual=res, tol=tol, margin=margin,
                         note=note)


def falling_product(N: LatticeOperator, n: int, lattice) -> LatticeOperator:
    """N (N-1) ... (N-(n-1))."""
    out = identity_operator(lattice)
    for i in range(n):
        out = out @ (N - float(i) * identity_operator(lattice))
    return out


def rising_product(N: LatticeOperator, n: int, lattice) -> LatticeOperator:
    """(N+n) (N+n-1) ... (N+1)."""
    out = identity_operator(lattice)
    for i in range(1, n + 1):
        out = out @ (N + float(i) * identity_operator(lattice))
    return out


def ladder_power_commutator_poly(N: LatticeOperator, n: int, lattice) -> LatticeOperator:
    """[A^n, A*^n] = (N+n)...(N+1) - N(N-1)...(N-(n-1)) as a polynomial in N."""
    return rising_product(N, n, lattice) - falling_product(N, n, lattice)


def verify_algebra(spec: ModelSpec) -> AlgebraReport:
    """Exact-identity suite for one model; residuals are clean-subspace
    spectral norms with the margin recorded per check."""
    lattice = spec.lattice
    a, ad = _ladder(lattice)
    Iop = identity_operator(lattice)
    p = spec.params
    checks: list[IdentityCheck] = []
    kind = spec.kind

    if kind == "mean_field":
        X = a[0] * (1.0 / np.sqrt(lattice.n_sites))
        for s in range(1, lattice.n_sites):
            X = X + a[s] * (1.0 / np.sqrt(lattice.n_sites))
        checks.append(_check("ccr_collective", commutator(X, X.dag()), Iop,
                             lattice, margin=1))
    elif kind == "mean_field_n":
        n = p.get("n", 2)
        rep = mean_field_n_recursion_check(spec, k_max=5)
        checks.extend(rep)
        Nop = embed(build_mode_ops(lattice.n_max)[2], [0], lattice)
        poly = ladder_power_commutator_poly(Nop, n, lattice)
        checks.append(_check(f"power_ccr_site0_n{n}",
                             commutator(_pow(a[0], n), _pow(ad[0], n)), poly,
                             lattice, margin=n))
    elif kind == "z_field":
        kap = [complex(c) for c in p.get("kappa", (1.0,))]
        xi = [complex(c) for c in p.get("xi", kap)]
        L = min(len(kap), len(xi))
        Zk = _translated_field(a, kap, 0, lattice, "Zk")
        Zx = _translated_field(a, xi, 0, lattice, "Zx")
        const = sum(kap[l] * np.conj(xi[l]) for l in range(L))
        checks.append(_check("z_ccr", commutator(Zk, Zx.dag()),
                             Iop * const, lattice, margin=1))
    elif kind == "zjk_quadratic":
        built = build_model(spec)
        H = None
        for d in built.directions:
            term = d.X.dag() @ d.X
            H = term if H is None else H + term
        Ntot = _number_hamiltonian(lattice)
        res = (commutator(H, Ntot)).fro_norm()
        checks.append(IdentityCheck("number_conservation", float(res), 1e-10,
                                    margin=0,
                                    note="exact on the full truncated space"))
    elif kind == "y_field":
        kap = [complex(c) for c in p.get("kappa", (1.0,))]
        xi = [complex(c) for c in p.get("xi", kap)]
        Zk = _translated_field(a, kap, 0, lattice, "Zk")
        Zx = _translated_field(a, xi, 0, lattice, "Zx")
        Y = Zk - Zx.dag()
        const = sum(abs(c) ** 2 for c in kap) - sum(abs(c) ** 2 for c in xi)
        checks.append(_check("y_ccr", commutator(Y, Y.dag()), Iop * const,
                             lattice, margin=1))
    elif kind == "w_ops":
        n, m = p.get("n", 1), p.get("m", 1)
        if n == 1 and m == 1 and lattice.n_sites >= 2:
            pairs = lattice.neighbor_pairs() or [(0, 1)]
            sym = lambda j, k: ad[j] @ a[k] + ad[k] @ a[j]
            antisym = lambda j, k: ad[j] @ a[k] - ad[k] @ a[j]
            combos = [(pairs[0], pairs[0])]
            if len(pairs) > 1:
                combos.append((pairs[0], pairs[1]))
            for (jk, nm) in combos:
                j, k = jk
                nn, mm = nm
                lhs = commutator(sym(j, k), sym(nn, mm))
                rhs = (antisym(j, mm) * _delta(k, nn) + antisym(k, nn) * _delta(j, mm)
                       + antisym(j, nn) * _delta(k, mm) + antisym(k, mm) * _delta(j, nn))
                checks.append(_check(
                    f"w_commutator_{jk}_{nm}", lhs, rhs, lattice, margin=2,
                    note="sign-corrected four-term combination"))
        Wjk = _pow(ad[0], n) @ _pow(a[min(1, lattice.n_sites - 1)], m)
        state = gibbs_state(_number_hamiltonian(lattice), spec.beta, product=True)
        if n == m:
            flowed = modular_flow(Wjk, state, 0.7)
            checks.append(IdentityCheck(
                "modular_invariance", float((flowed - Wjk).fro_norm()), 1e-12,
                margin=0, note="exact for equal powers"))
    elif kind == "z_power":
        n, m = p.get("n", 1), p.get("m", 1)
        Nop0 = embed(build_mode_ops(lattice.n_max)[2], [0], lattice)
        poly_n = ladder_power_commutator_poly(Nop0, n, lattice)
        checks.append(_check(
            f"power_ccr_n{n}", commutator(_pow(a[0], n), _pow(ad[0], n)),
            poly_n, lattice, margin=n))
        if lattice.n_sites >= 2:
            Z = _pow(a[0], n) - _pow(a[1], m)
            Nop1 = embed(build_mode_ops(lattice.n_max)[2], [1], lattice)
            rhs = poly_n + ladder_power_commutator_poly(Nop1, m, lattice)
            checks.append(_check("z_power_ccr", commutator(Z, Z.dag()), rhs,
                                 lattice, margin=max(n, m)))
    elif kind == "y_power":
        n, m = p.get("n", 1), p.get("m", 1)
        if lattice.n_sites >= 2:
            Y = _pow(a[0], n) - _pow(ad[1], m)
            Nop0 = embed(build_mode_ops(lattice.n_max)[2], [0], lattice)
            Nop1 = embed(build_mode_ops(lattice.n_max)[2], [1], lattice)
            rhs = ladder_power_commutator_poly(Nop0, n, lattice) \
                - ladder_power_commutator_poly(Nop1, m, lattice)
            checks.append(_check(
                "y_power_ccr", commutator(Y, Y.dag()), rhs, lattice,
                margin=max(n, m),
                note="product-polynomial form; the n A^{n-1} A*^{n-1} "
                     "shorthand only matches it for n = 1"))
    elif kind == "g_model":
        kap, xi = complex(p.get("kappa", np.sqrt(2))), complex(p.get("xi", 1.0))
        Y = a[0] * kap + ad[0] * xi
        R = abs(kap) ** 2 - abs(xi) ** 2
        G = (Y @ Y) * 0.5
        Nc = Y.dag() @ Y
        checks.append(_check("y_ccr", commutator(Y, Y.dag()), Iop * R,
                             lattice, margin=1))
        checks.append(_check("g_gstar", commutator(G, G.dag()),
                             Iop * (0.5 * R ** 2) + Nc * R, lattice, margin=4))
        checks.append(_check("g_number", commutator(G, Nc), G * (2 * R),
                             lattice, margin=4))
    elif kind == "invariant_aij":
        built = build_model(spec)
        X = built.directions[0].X
        if len(p["sites_i"]) == len(p["sites_j"]):
            flowed = modular_flow(X, built.state, 1.3)
            checks.append(IdentityCheck(
                "modular_invariance", float((flowed - X).fro_norm()), 1e-12,
                margin=0, note="exact: equal creator/annihilator count"))
    return AlgebraReport(model=kind, checks=checks)


def _delta(i, j) -> float:
    return 1.0 if i == j else 0.0


# --------------------------------------------------------------------------
# mean-field power model: coefficient recursion and orbit
# --------------------------------------------------------------------------

def mean_field_n_coefficients(n: int, k_max: int) -> list[dict[int, int]]:
    """Integer coefficients c[k][l] of ad_U^k(X_n) = sum_l c[k][l]
    N^{-l/2} X_{n-l} X^l for the collective quadratic Hamiltonian.

    Recursion (consistent with the explicit low orders):
        c[k+1][l] = -l * c[k][l] - (n - l + 1) * c[k][l-1].
    """
    coeffs: list[dict[int, int]] = [{0: 1}]
    for k in range(k_max):
        prev = coeffs[-1]
        nxt: dict[int, int] = {}
        for l in range(0, min(n, k + 1) + 1):
            val = -l * prev.get(l, 0) - (n - l + 1) * prev.get(l - 1, 0)
            if val:
                nxt[l] = val
        coeffs.append(nxt)
    return coeffs


def _mean_field_n_basis(spec: ModelSpec):
    """Collective operators M_l = X_{n-l} X^l (l = 0..n) and U = X* X."""
    lattice = spec.lattice
    a, _ = _ladder(lattice)
    n = spec.params.get("n", 2)
    eps = spec.params.get("eps", 0.5)
    Ns = lattice.n_sites
    X = a[0] * (1.0 / np.sqrt(Ns))
    for s in range(1, Ns):
        X = X + a[s] * (1.0 / np.sqrt(Ns))
    U = X.dag() @ X

    def xpow_sum(k):
        if k == 0:
            return identity_operator(lattice) * float(Ns ** (1 - eps))
        out = _pow(a[0], k) * (1.0 / Ns ** eps)
        for s in range(1, Ns):
            out = out + _pow(a[s], k) * (1.0 / Ns ** eps)
        return out

    M = []
    for l in range(n + 1):
        term = xpow_sum(n - l)
        for _ in range(l):
            term = term @ X
        M.append(term * float(Ns ** (-l / 2.0)))
    return X, U, M


def mean_field_n_recursion_check(spec: ModelSpec, k_max: int = 5,
                                 tol: float = 1e-9) -> list[IdentityCheck]:
    """Nested commutators ad_U^k(X_n) against the recursion coefficients.

    Both sides are compared on the total-occupation sector <= n_max, where
    the truncated matrices reproduce the untruncated algebra exactly.  The
    operators M_{n-1} and M_n coincide identically (the single-power
    collective sum is proportional to X itself), so the recursion integers
    are folded accordingly; when the lattice is too small for the reduced
    family to be independent (it needs about n sites), only the expansion
    residual is checked and the coefficient extraction is skipped.
    """
    lattice = spec.lattice
    n = spec.params.get("n", 2)
    X, U, M = _mean_field_n_basis(spec)
    coeffs = mean_field_n_coefficients(n, k_max)
    Q = total_sector_projector(lattice, lattice.n_max)
    keep = np.flatnonzero(Q.diagonal() > 0.5)

    def comp(op):
        return op.matrix.toarray()[np.ix_(keep, keep)].reshape(-1)

    reduced = M[:n]  # M_n == M_{n-1}; its coefficient folds onto l = n-1
    basis = np.stack([comp(m) for m in reduced], axis=1)
    full_rank = np.linalg.matrix_rank(basis, tol=1e-8) == len(reduced)

    def want_vector(k):
        w = np.array([coeffs[k].get(l, 0) for l in range(n)], dtype=float)
        w[n - 1] += coeffs[k].get(n, 0)
        return w

    checks = []
    cur = M[0]
    for k in range(1, k_max + 1):
        cur = commutator(U, cur)
        target = comp(cur)
        want = want_vector(k)
        resid = np.linalg.norm(basis @ want - target) / max(np.linalg.norm(target), 1.0)
        if full_rank:
            sol, *_ = np.linalg.lstsq(basis, target, rcond=None)
            int_exact = float(np.max(np.abs(sol - want)))
            note = f"coefficients {dict(enumerate(np.round(sol.real).astype(int)))}"
        else:
            int_exact = 0.0
            note = ("reduced basis rank-deficient on this lattice; "
                    "residual check only")
        checks.append(IdentityCheck(
            name=f"recursion_k{k}", residual=float(max(int_exact, resid)),
            tol=tol, margin=0, note=note))
    return checks


def mean_field_n_orbit(spec: ModelSpec, t: float, *, tol: float = 1e-10):
    """alpha_t(X_n) via the coefficient series, with the series order K
    chosen so the (n+1)^k / k! remainder bound falls below tol.

    Returns (operator, K, bound).
    """
    lattice = spec.lattice
    n = spec.params.get("n", 2)
    beta = spec.beta
    x = abs(beta * t) * (n + 1)
    K, term, bound = 1, x, x
    while True:
        K += 1
        term *= x / K
        # remaining tail of sum_{k>K} x^k / k! bounded by geometric series
        if term < tol / np.e or K > 400:
            bound = term * np.e
            break
    coeffs = mean_field_n_coefficients(n, K)
    _, _, M = _mean_field_n_basis(spec)
    acc = None
    fac = 1.0
    for k in range(K + 1):
        if k > 0:
            fac *= (-1j * beta * t) / k
        for l, c in coeffs[k].items():
            term_op = M[l] * (fac * c)
            acc = term_op if acc is None else acc + term_op
    return acc, K, float(bound)


# --------------------------------------------------------------------------
# modular orbits
# --------------------------------------------------------------------------

class OrbitUnsupportedError(ValueError):
    """State is not number-conserving; only the quadrature path applies."""


@dataclass
class ModularOrbit:
    components: list[tuple[LatticeOperator, float]]
    beta: float
    kind: str = "eigen"
    one_particle_matrix: np.ndarray | None = None
    initial_coefficients: np.ndarray | None = None
    site_ops: list[LatticeOperator] | None = None
    note: str = ""

    def coefficients(self, t: float) -> np.ndarray:
        """One-particle coefficient vector c(t) = exp(i beta t h)^T c(0)."""
        from scipy.linalg import expm
        if self.one_particle_matrix is None:
            raise ValueError("not a one-particle orbit")
        prop = expm(1j * self.beta * t * self.one_particle_matrix)
        return prop.T @ self.initial_coefficients

    def reconstruct(self, t: float) -> LatticeOperator:
        if self.kind == "one_particle":
            c = self.coefficients(t)
            out = None
            for cm, op in zip(c, self.site_ops):
                term = op * cm
                out = term if out is None else out + term
            return out
        out = None
        for op, w in self.components:
            term = op * np.exp(1j * w * self.beta * t)
            out = term if out is None else out + term
        return out


def modular_orbit(built: BuiltModel, index: int) -> ModularOrbit:
    """Analytic modular orbit of one direction.

    Product states give exact eigencomponent decompositions.  The quadratic
    edge model reduces to a one-particle matrix: alpha_t(A_l) =
    sum_m [exp(i beta t h)]_{lm} A_m, valid on the total-occupation sector
    <= n_max.  Non-number-conserving states raise OrbitUnsupportedError.
    """
    spec = built.spec
    if spec.kind == "g_model":
        raise OrbitUnsupportedError(
            "g_model state is not number-conserving; use the quadrature path")
    if built.orbits[index] is not None:
        return ModularOrbit(built.orbits[index], spec.beta)
    if spec.kind == "zjk_quadratic":
        h = one_particle_matrix(spec)
        lattice = spec.lattice
        a, _ = _ladder(lattice)
        kap = _per_site(spec.params.get("kappa", 1.0), lattice)
        eps = _per_site(spec.params.get("eps", 1.0), lattice)
        edges = edge_list(lattice, spec.params.get("edges", "ordered"))
        j, k = edges[index]
        c0 = np.zeros(lattice.n_sites, complex)
        c0[j] += kap[j]
        c0[k] += eps[k]
        return ModularOrbit(
            components=[], beta=spec.beta, kind="one_particle",
            one_particle_matrix=h, initial_coefficients=c0, site_ops=a,
            note=f"alpha_t(Z_{j},{k}) = sum_m c_m(t) A_m with "
                 "c(t) = exp(i beta t h)^T c0")
    if spec.kind == "mean_field_n":
        raise OrbitUnsupportedError(
            "mean_field_n orbit is provided by mean_field_n_orbit")
    raise OrbitUnsupportedError(f"no analytic orbit for {spec.kind}")


def one_particle_matrix(spec: ModelSpec) -> np.ndarray:
    """Hopping matrix h with [H, A_l] = -sum_m h_{lm} A_m for the quadratic
    edge Hamiltonian, so alpha_t(A_l) = sum_m [exp(i beta t h)]_{lm} A_m."""
    lattice = spec.lattice
    kap = _per_site(spec.params.get("kappa", 1.0), lattice)
    eps = _per_site(spec.params.get("eps", 1.0), lattice)
    edges = edge_list(lattice, spec.params.get("edges", "ordered"))
    n = lattice.n_sites
    h = np.zeros((n, n), complex)
    for (j, k) in edges:
        h[j, j] += abs(kap[j]) ** 2
        h[k, k] += abs(eps[k]) ** 2
        h[j, k] += np.conj(kap[j]) * eps[k]
        h[k, j] += np.conj(eps[k]) * kap[j]
    return h


def one_particle_flow(spec: ModelSpec, site: int, t: float) -> np.ndarray:
    """Coefficient vector c(t) with alpha_t(A_site) = sum_m c_m(t) A_m."""
    h = one_particle_matrix(spec)
    from scipy.linalg import expm
    prop = expm(1j * spec.beta * t * h)
    return prop[site, :]
