"""Catalog of lattice models: declarative specs, built directions and states,
exact algebraic identity checks, and modular orbits.

Model kinds
-----------
mean_field      collective mode X = (1/sqrt(N)) sum A_k, interacting state
                from U = X* X.
mean_field_n    collective power X_n = N^-eps sum A_k^n, same state; modular
                orbit from the eigenvectors of an integer coefficient
                recursion.
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

import numbers
from dataclasses import dataclass, field

import numpy as np

from .dirichlet import DerivationDirection
from .fock import (LatticeConfig, LatticeOperator, clean_projector, commutator,
                   compressed, identity_operator, site_operator, total_sector_projector)
from .state import GibbsState, KmsMetric, gibbs_state, modular_flow

# each kind's params and their defaults; a None default is derived from
# another param: `xi` from `kappa`, and the w_ops `edges` from `selfadjoint`
KINDS = {
    "mean_field": {},
    "mean_field_n": {"n": 2, "eps": 0.5},
    "z_field": {"kappa": (1.0,), "xi": None},
    "zjk_quadratic": {"kappa": 1.0, "eps": 1.0, "edges": "ordered"},
    "y_field": {"kappa": (1.0,), "xi": None},
    "w_ops": {"n": 1, "m": 1, "selfadjoint": False, "edges": None},
    "z_power": {"n": 1, "m": 1, "edges": "ordered", "half": False},
    "y_power": {"n": 1, "m": 1, "edges": "ordered", "half": False},
    "g_model": {"kappa": np.sqrt(2), "xi": 1.0},
    "invariant_aij": {"sites_i": (), "sites_j": ()},
}
MODEL_KINDS = tuple(KINDS)
# kinds whose state is the product Gibbs state of the number Hamiltonian
PRODUCT_KINDS = ("z_field", "y_field", "w_ops", "z_power", "y_power",
                 "invariant_aij")
RECURSION_ORDER = 5   # nested commutators in `mean_field_n_recursion_check`
RECURSION_TOL = 1e-9


@dataclass
class ModelSpec:
    """`params` admits exactly the keys of the kind's `KINDS` entry, each
    with a value of its default's type (`_param_type`); the spec holds a new
    dict with every default filled in and resolved."""
    kind: str
    lattice: LatticeConfig
    beta: float = 1.0
    nu: float = 1.0
    mu: float = 1.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        kind = self.kind
        if kind not in KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        for key in self.params:
            if key not in KINDS[kind]:
                raise ValueError(f"unknown {kind} param {key!r}; allowed: "
                                 f"{', '.join(KINDS[kind]) or 'none'}")
        if self.nu == 0 and self.mu == 0:
            raise ValueError("at least one of nu, mu must be positive")
        p = self.params = {**KINDS[kind], **self.params}
        if kind in ("z_field", "y_field") and p["xi"] is None:
            p["xi"] = p["kappa"]
        if kind == "w_ops" and p["edges"] is None:
            p["edges"] = "unordered" if p["selfadjoint"] else "ordered"
        for key, default in KINDS[kind].items():
            ok, want = _param_type(kind, key, default, self.lattice.n_sites)
            if not ok(p[key]):
                raise ValueError(f"{kind} param {key!r} must be {want}, "
                                 f"got {p[key]!r}")
        if kind == "mean_field_n":
            if p["n"] <= 1:
                raise ValueError("mean_field_n requires integer n > 1")
            if not (isinstance(p["eps"], numbers.Real) and 0.0 <= p["eps"] <= 1.0):
                raise ValueError("mean_field_n requires eps in [0, 1]")
        if kind in ("z_field", "y_field"):
            for key in ("kappa", "xi"):
                if not len(p[key]):
                    raise ValueError(f"{kind} requires a nonempty {key} sequence")
                if max(abs(complex(c)) for c in p[key]) == 0:
                    raise ValueError(f"{kind} requires a nonzero {key} sequence")
        if kind in ("w_ops", "z_power", "y_power"):
            n, m = p["n"], p["m"]
            if min(n, m) < 1:
                raise ValueError(f"{kind} requires n, m >= 1")
            if max(n, m) > self.lattice.n_max:
                raise ValueError(f"{kind} powers exceed the cutoff: "
                                 f"n={n}, m={m}, n_max={self.lattice.n_max}")
        if kind == "zjk_quadratic" and not self.lattice.neighbor_pairs():
            raise ValueError("zjk_quadratic requires a lattice with a neighbour pair")
        if kind == "g_model" and complex(p["kappa"]) == complex(p["xi"]) == 0:
            raise ValueError("g_model requires (kappa, xi) != 0")
        if kind == "invariant_aij" and not (p["sites_i"] and p["sites_j"]):
            raise ValueError("invariant_aij requires nonempty site sets I and J")
        if kind == "invariant_aij" and self.lattice.dims != 1:
            raise ValueError("invariant_aij shifts are implemented for 1D lattices")


def _number(v) -> bool:
    return isinstance(v, numbers.Number) and not isinstance(v, bool)


def _integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _list_of(item):
    return lambda v: (isinstance(v, (list, tuple, np.ndarray))
                      and all(item(x) for x in v))


def _param_type(kind: str, key: str, default, n_sites: int):
    """(test, description) of the values a param admits, from the type of
    its default; a derived `xi` takes the type of `kappa`."""
    if key == "edges":
        return (lambda v: v in ("ordered", "unordered")), '"ordered" or "unordered"'
    if key in ("sites_i", "sites_j"):
        return (_list_of(lambda s: _integer(s) and s >= 0),
                "a list of nonnegative site integers")
    if default is None:
        default = KINDS[kind]["kappa"]
    if isinstance(default, bool):
        return (lambda v: isinstance(v, bool)), "a boolean"
    if isinstance(default, int):
        return _integer, "an integer"
    if isinstance(default, tuple):
        return _list_of(_number), "a list of numbers"
    if kind == "zjk_quadratic":  # one coefficient, or one per site
        return (lambda v: _number(v) or (_list_of(_number)(v) and len(v) == n_sites),
                f"a number or a list of {n_sites} numbers, one per site")
    return _number, "a number"


@dataclass
class BuiltModel:
    """The one record of a model's operators: the Hamiltonian whose Gibbs
    state is `state`, and the directions.  Product-kind directions carry
    their exact modular components; `modular_orbit` forms the others."""
    spec: ModelSpec
    state: GibbsState
    metric: KmsMetric
    directions: list[DerivationDirection]
    hamiltonian: LatticeOperator
    notes: tuple[str, ...] = ()


def _ladder(lattice: LatticeConfig):
    a = [site_operator(lattice, "a", s) for s in range(lattice.n_sites)]
    return a, [x.dag() for x in a]


def _number_hamiltonian(lattice: LatticeConfig) -> LatticeOperator:
    N = [site_operator(lattice, "n", s) for s in range(lattice.n_sites)]
    return sum(N[1:], N[0])


def _pow(op: LatticeOperator, k: int) -> LatticeOperator:
    out = op
    for _ in range(k - 1):
        out = out @ op
    return out


def _combination(ops, coeffs) -> LatticeOperator:
    """sum_k coeffs_k ops_k, added in order; a single number applies to
    every term."""
    if isinstance(coeffs, numbers.Number):
        coeffs = [coeffs] * len(ops)
    out = ops[0] * coeffs[0]
    for op, c in zip(ops[1:], coeffs[1:]):
        out = out + op * c
    return out


def edge_list(lattice: LatticeConfig, convention: str):
    if convention == "ordered":
        return lattice.ordered_neighbor_pairs()
    return lattice.neighbor_pairs()


def build_model(spec: ModelSpec) -> BuiltModel:
    lattice, kind, p = spec.lattice, spec.kind, spec.params
    a, ad = _ladder(lattice)
    # the Hamiltonian of the state; the product kinds use the number one
    H = _number_hamiltonian(lattice) if kind in PRODUCT_KINDS else None
    directions, notes = [], []

    if kind in ("mean_field", "mean_field_n"):
        X = _combination(a, 1.0 / np.sqrt(lattice.n_sites))
        X.label = "X"
        H = X.dag() @ X
        if kind == "mean_field":
            directions.append(DerivationDirection(X, spec.nu, spec.mu))
        else:
            n = p["n"]
            Xn = _combination([_pow(x, n) for x in a],
                              1.0 / lattice.n_sites ** p["eps"])
            Xn.label = f"X_{n}"
            directions.append(DerivationDirection(Xn, spec.nu, spec.mu))
            notes.append("orbit via the coefficient recursion; see "
                         "modular_orbit")
    elif kind in ("z_field", "y_field"):
        for shift in _shifts(lattice, max(len(p["kappa"]), len(p["xi"]))):
            Zk, Zx = _z_pair(a, p, shift, lattice)
            if kind == "z_field":
                for Z, nu, mu in ((Zk, spec.nu, 0.0), (Zx, 0.0, spec.mu)):
                    if nu or mu:
                        directions.append(DerivationDirection(Z, nu, mu, [(Z, 1.0)]))
            else:
                Y = Zk - Zx.dag()
                Y.label = f"Y@{shift}"
                comps = [(Zk, 1.0), (Zx.dag() * (-1.0), -1.0)]
                directions.append(DerivationDirection(Y, spec.nu, spec.mu,
                                                      components=comps))
    elif kind == "zjk_quadratic":
        kap, eps, edges = _edge_fields(spec)
        for (j, k) in edges:
            Z = a[j] * kap[j] + a[k] * eps[k]
            Z.label = f"Z_{j},{k}"
            term = Z.dag() @ Z
            H = term if H is None else H + term
            directions.append(DerivationDirection(Z, spec.nu, spec.mu))
        notes.append(f"H sums {p['edges']} neighbour pairs")
    elif kind == "w_ops":
        n, m = p["n"], p["m"]
        for (j, k) in edge_list(lattice, p["edges"]):
            Wjk = _pow(ad[j], n) @ _pow(a[k], m)
            Wjk.label = f"W_{j},{k}"
            X, comps = Wjk, [(Wjk, float(m - n))]
            if p["selfadjoint"]:
                Wkj = _pow(ad[k], m) @ _pow(a[j], n)
                X = Wjk + Wkj
                X.label = f"W_{j},{k}+W_{k},{j}"
                comps = [(X, 0.0)] if m == n else comps + [(Wkj, float(n - m))]
            directions.append(DerivationDirection(X, spec.nu, spec.mu,
                                                  components=comps))
    elif kind in ("z_power", "y_power"):
        n, m = p["n"], p["m"]
        scale = 0.5 if p["half"] else 1.0
        for (j, k) in edge_list(lattice, p["edges"]):
            other, w = (a[k], float(m)) if kind == "z_power" else (ad[k], float(-m))
            comps = [(_pow(a[j], n) * scale, float(n)),
                     (_pow(other, m) * (-scale), w)]
            Z = comps[0][0] + comps[1][0]
            Z.label = f"{kind[0].upper()}_{j},{k}"
            directions.append(DerivationDirection(Z, spec.nu, spec.mu,
                                                  components=comps))
    elif kind == "g_model":
        for s in range(lattice.n_sites):
            _, G, Ns, R = _g_ops(a, ad, s, p)
            H = Ns if H is None else H + Ns
            directions.append(DerivationDirection(G, spec.nu, spec.mu))
        notes.append(f"modular frequency of G is 2R = {2 * R:.6g} up to "
                     "truncation; eigen assembly decomposes numerically")
    elif kind == "invariant_aij":
        I_sites, J_sites = p["sites_i"], p["sites_j"]
        freq = float(len(I_sites) - len(J_sites))
        for shift in _aij_shifts(lattice, I_sites, J_sites):
            op = _aij_operator(a, ad, I_sites, J_sites, shift, lattice)
            directions.append(DerivationDirection(op, spec.nu, spec.mu,
                                                  components=[(op, freq)]))

    state = gibbs_state(H, spec.beta)
    return BuiltModel(spec=spec, state=state, metric=KmsMetric(state),
                      directions=directions, hamiltonian=H, notes=tuple(notes))


def _edge_fields(spec: ModelSpec):
    """Per-site kappa and eps and the edge list of zjk_quadratic."""
    p, lattice = spec.params, spec.lattice
    return (_per_site(p["kappa"], lattice), _per_site(p["eps"], lattice),
            edge_list(lattice, p["edges"]))


def _g_ops(a, ad, s, p):
    """g_model at site s: Y = kappa A + xi A*, G = Y^2 / 2, Y* Y and
    R = |kappa|^2 - |xi|^2."""
    kap, xi = complex(p["kappa"]), complex(p["xi"])
    Y = a[s] * kap + ad[s] * xi
    Y.label = f"Y_{s}"
    G = (Y @ Y) * 0.5
    G.label = f"G_{s}"
    return Y, G, Y.dag() @ Y, abs(kap) ** 2 - abs(xi) ** 2


def _per_site(value, lattice: LatticeConfig) -> list[complex]:
    if np.isscalar(value):
        return [complex(value)] * lattice.n_sites
    return [complex(v) for v in value]


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


def _z_pair(a, p, shift, lattice):
    """Translated fields (Z_kappa, Z_xi) of z_field and y_field."""
    return tuple(_translated_field(a, [complex(c) for c in p[key]], shift,
                                   lattice, f"Z_{key[0]}@{shift}")
                 for key in ("kappa", "xi"))


def _aij_shifts(lattice: LatticeConfig, I_sites, J_sites):
    cells = [*I_sites, *J_sites]
    if lattice.geometry == "cycle":
        return list(range(lattice.n_sites))
    lo, hi = min(cells), max(cells)
    return [k - lo for k in range(0, lattice.extents[0] - (hi - lo))]


def _aij_operator(a, ad, I_sites, J_sites, shift, lattice) -> LatticeOperator:
    def site_at(s):
        if lattice.geometry == "cycle":
            return (s + shift) % lattice.n_sites
        return s + shift
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


def _check(name, lhs: LatticeOperator, rhs: LatticeOperator, lattice,
           margin: int, tol: float = 1e-10, note: str = "") -> IdentityCheck:
    block = compressed(lhs - rhs, clean_projector(lattice, margin))
    if block.size == 0:
        raise ValueError(f"check {name!r} has margin {margin} and needs "
                         f"n_max >= {margin}, got n_max {lattice.n_max}")
    return IdentityCheck(name=name, residual=float(np.linalg.norm(block, 2)),
                         tol=tol, margin=margin, note=note)


def _power_ccr(lattice: LatticeConfig, site: int, n: int) -> LatticeOperator:
    """[A^n, A*^n] at one site as the polynomial in its number operator N,
    (N+n)...(N+1) - N(N-1)...(N-(n-1))."""
    N, Iop = site_operator(lattice, "n", site), identity_operator(lattice)
    rising = falling = Iop
    for i in range(n):
        rising = rising @ (N + float(i + 1) * Iop)
        falling = falling @ (N - float(i) * Iop)
    return rising - falling


def verify_algebra(built: BuiltModel) -> AlgebraReport:
    """Exact-identity suite for one built model, read from its operators and
    state; residuals are clean-subspace spectral norms with the margin
    recorded per check.  A check whose margin leaves no clean level raises
    ValueError."""
    spec = built.spec
    lattice, kind, p = spec.lattice, spec.kind, spec.params
    a, ad = _ladder(lattice)
    Iop = identity_operator(lattice)
    checks: list[IdentityCheck] = []

    if kind == "mean_field":
        X = built.directions[0].X
        checks.append(_check("ccr_collective", commutator(X, X.dag()), Iop,
                             lattice, margin=1))
    elif kind == "mean_field_n":
        n = p["n"]
        checks.extend(mean_field_n_recursion_check(spec))
        checks.append(_check(f"power_ccr_site0_n{n}",
                             commutator(_pow(a[0], n), _pow(ad[0], n)),
                             _power_ccr(lattice, 0, n), lattice, margin=n))
    elif kind == "z_field":
        Zk, Zx = _z_pair(a, p, 0, lattice)
        const = sum(complex(k) * np.conj(complex(x))
                    for k, x in zip(p["kappa"], p["xi"]))
        checks.append(_check("z_ccr", commutator(Zk, Zx.dag()),
                             Iop * const, lattice, margin=1))
    elif kind == "zjk_quadratic":
        Ntot = _number_hamiltonian(lattice)
        res = commutator(built.hamiltonian, Ntot).fro_norm()
        checks.append(IdentityCheck("number_conservation", float(res), 1e-10,
                                    margin=0,
                                    note="exact on the full truncated space"))
    elif kind == "y_field":
        Zk, Zx = _z_pair(a, p, 0, lattice)
        Y = Zk - Zx.dag()
        const = sum(abs(complex(c)) ** 2 for c in p["kappa"]) \
            - sum(abs(complex(c)) ** 2 for c in p["xi"])
        checks.append(_check("y_ccr", commutator(Y, Y.dag()), Iop * const,
                             lattice, margin=1))
    elif kind == "w_ops":
        n, m = p["n"], p["m"]
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
        if n == m:
            Wjk = _pow(ad[0], n) @ _pow(a[min(1, lattice.n_sites - 1)], m)
            flowed = modular_flow(Wjk, built.state, 0.7)
            checks.append(IdentityCheck(
                "modular_invariance", float((flowed - Wjk).fro_norm()), 1e-12,
                margin=0, note="exact for equal powers"))
    elif kind == "z_power":
        n, m = p["n"], p["m"]
        poly_n = _power_ccr(lattice, 0, n)
        checks.append(_check(
            f"power_ccr_n{n}", commutator(_pow(a[0], n), _pow(ad[0], n)),
            poly_n, lattice, margin=n))
        if lattice.n_sites >= 2:
            Z = _pow(a[0], n) - _pow(a[1], m)
            rhs = poly_n + _power_ccr(lattice, 1, m)
            checks.append(_check("z_power_ccr", commutator(Z, Z.dag()), rhs,
                                 lattice, margin=max(n, m)))
    elif kind == "y_power":
        n, m = p["n"], p["m"]
        if lattice.n_sites >= 2:
            Y = _pow(a[0], n) - _pow(ad[1], m)
            rhs = _power_ccr(lattice, 0, n) - _power_ccr(lattice, 1, m)
            checks.append(_check(
                "y_power_ccr", commutator(Y, Y.dag()), rhs, lattice,
                margin=max(n, m),
                note="product-polynomial form; the n A^{n-1} A*^{n-1} "
                     "shorthand only matches it for n = 1"))
    elif kind == "g_model":
        Y, G, Nc, R = _g_ops(a, ad, 0, p)
        checks.append(_check("y_ccr", commutator(Y, Y.dag()), Iop * R,
                             lattice, margin=1))
        checks.append(_check("g_gstar", commutator(G, G.dag()),
                             Iop * (0.5 * R ** 2) + Nc * R, lattice, margin=4))
        checks.append(_check("g_number", commutator(G, Nc), G * (2 * R),
                             lattice, margin=4))
    elif kind == "invariant_aij":
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
# mean-field power model: coefficient recursion
# --------------------------------------------------------------------------

def _recursion_matrix(n: int) -> np.ndarray:
    """The integer T with c[k+1] = T c[k] (`mean_field_n_coefficients`)."""
    return np.diag(-np.arange(n + 1)) + np.diag(-np.arange(n, 0, -1), -1)


def mean_field_n_coefficients(n: int, k_max: int) -> list[dict[int, int]]:
    """Integer coefficients c[k][l] of ad_U^k(X_n) = sum_l c[k][l]
    N^{-l/2} X_{n-l} X^l for the collective quadratic Hamiltonian, for
    k = 0..k_max: the nonzero entries of T^k e_0 (`_recursion_matrix`).

    Recursion (consistent with the explicit low orders):
        c[k+1][l] = -l * c[k][l] - (n - l + 1) * c[k][l-1].
    """
    T = _recursion_matrix(n)
    return [{l: int(v) for l, v in enumerate(np.linalg.matrix_power(T, k)[:, 0]) if v}
            for k in range(k_max + 1)]


def _mean_field_n_basis(spec: ModelSpec):
    """Collective operators M_l = X_{n-l} X^l (l = 0..n) and U = X* X."""
    lattice = spec.lattice
    a, _ = _ladder(lattice)
    n, eps, Ns = spec.params["n"], spec.params["eps"], lattice.n_sites
    X = _combination(a, 1.0 / np.sqrt(Ns))
    U = X.dag() @ X

    def xpow_sum(k):
        if k == 0:
            return identity_operator(lattice) * float(Ns ** (1 - eps))
        return _combination([_pow(x, k) for x in a], 1.0 / Ns ** eps)

    M = []
    for l in range(n + 1):
        term = xpow_sum(n - l)
        for _ in range(l):
            term = term @ X
        M.append(term * float(Ns ** (-l / 2.0)))
    return X, U, M


def mean_field_n_recursion_check(spec: ModelSpec) -> list[IdentityCheck]:
    """Nested commutators ad_U^k(X_n), k = 1..RECURSION_ORDER, against the
    recursion coefficients, within RECURSION_TOL.

    Both sides are compared on the total-occupation sector <= n_max, where
    the truncated matrices reproduce the untruncated algebra exactly.  The
    operators M_{n-1} and M_n coincide identically (the single-power
    collective sum is proportional to X itself), so the recursion integers
    are folded accordingly; when the lattice is too small for the reduced
    family to be independent (it needs about n sites), only the expansion
    residual is checked and the coefficient extraction is skipped.
    """
    lattice, n = spec.lattice, spec.params["n"]
    X, U, M = _mean_field_n_basis(spec)
    coeffs = mean_field_n_coefficients(n, RECURSION_ORDER)
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
    for k in range(1, RECURSION_ORDER + 1):
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
            tol=RECURSION_TOL, margin=0, note=note))
    return checks


# --------------------------------------------------------------------------
# modular orbits
# --------------------------------------------------------------------------

_SECTOR_NOTE = "exact on the total-occupation sector <= n_max"


class OrbitUnsupportedError(ValueError):
    """State is not number-conserving; only the quadrature path applies."""


@dataclass
class ModularOrbit:
    """alpha_t(X) = sum_k exp(i w_k beta t) X_k over the eigencomponents
    (X_k, w_k) of `components`."""
    components: list[tuple[LatticeOperator, float]]
    beta: float
    note: str = ""

    def reconstruct(self, t: float) -> LatticeOperator:
        ops, freqs = zip(*self.components)
        return _combination(ops, [np.exp(1j * w * self.beta * t) for w in freqs])


def modular_orbit(built: BuiltModel, index: int) -> ModularOrbit:
    """Analytic modular orbit of one direction as eigencomponents.

    Product states give exact decompositions on the full truncated space.
    The number-conserving interacting kinds are exact only on the
    total-occupation sector <= n_max, where the truncated operators obey the
    untruncated algebra; their orbits say so in `note`:
    - mean_field: alpha_t(X) = exp(i beta t) X;
    - zjk_quadratic: [H, A_l] = -sum_m h_lm A_m (`one_particle_matrix`).
      With h = W diag(lam) W*, Z = sum_l c0_l A_l has the component
      (c0 W)_m sum_s conj(W_sm) A_s at frequency lam_m;
    - mean_field_n: ad_U^k(X_n) = sum_l (T^k e_0)_l M_l, where T is the
      lower-bidiagonal matrix of the `mean_field_n_coefficients` recursion
      (`_recursion_matrix`) and M_l come from `_mean_field_n_basis`.  With
      T = V diag(-l) V^-1 the component at frequency l = 0..n is
      (V^-1 e_0)_l sum_j V_jl M_j.
    A product kind's orbit is its direction's `components`, held only there.
    The g_model state is not number-conserving: OrbitUnsupportedError.
    """
    spec = built.spec
    if spec.kind == "g_model":
        raise OrbitUnsupportedError(
            "g_model state is not number-conserving; use the quadrature path")
    if spec.kind == "zjk_quadratic":
        kap, eps, edges = _edge_fields(spec)
        j, k = edges[index]
        c0 = np.zeros(spec.lattice.n_sites, complex)
        c0[j] += kap[j]
        c0[k] += eps[k]
        lam, W = np.linalg.eigh(one_particle_matrix(spec))
        a = _ladder(spec.lattice)[0]
        comps = [(_combination(a, W[:, m].conj() * c), float(w))
                 for m, (c, w) in enumerate(zip(c0 @ W, lam))]
        note = f"alpha_t(Z_{j},{k}) by the one-particle matrix h"
    elif spec.kind == "mean_field_n":
        n = spec.params["n"]
        lam, V = np.linalg.eig(_recursion_matrix(n))
        c = np.linalg.solve(V, np.eye(n + 1)[0])
        M = _mean_field_n_basis(spec)[2]
        comps = [(_combination(M, V[:, l] * c[l]), float(-w))
                 for l, w in enumerate(lam)]
        note = "alpha_t(X_n) by the coefficient recursion"
    elif spec.kind in PRODUCT_KINDS:
        return ModularOrbit(built.directions[index].components, spec.beta)
    else:
        comps = [(built.directions[index].X, 1.0)]
        note = "alpha_t(X) = exp(i beta t) X"
    return ModularOrbit(comps, spec.beta, note=f"{note}; {_SECTOR_NOTE}")


def one_particle_matrix(spec: ModelSpec) -> np.ndarray:
    """Hopping matrix h with [H, A_l] = -sum_m h_{lm} A_m for the quadratic
    edge Hamiltonian, so alpha_t(A_l) = sum_m [exp(i beta t h)]_{lm} A_m."""
    kap, eps, edges = _edge_fields(spec)
    n = spec.lattice.n_sites
    h = np.zeros((n, n), complex)
    for (j, k) in edges:
        h[j, j] += abs(kap[j]) ** 2
        h[k, k] += abs(eps[k]) ** 2
        h[j, k] += np.conj(kap[j]) * eps[k]
        h[k, j] += np.conj(eps[k]) * kap[j]
    return h
