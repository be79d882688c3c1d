"""Truncated formal deformations of the bracket and their equivalences.

A deformation of order N is the family mu_t = mu_0 + mu_1 t + ... + mu_N t^N
with mu_0 the bracket and each mu_i a degree-0 2-cochain on the algebra
with adjoint coefficients.  The order-r deformation equation is the
vanishing of the residual

    R_r(a,b,c) = sum_{i+j=r} [ mu_i(mu_j(a,b),c) - mu_i(a,mu_j(b,c))
                               + (-1)**(ab) mu_i(b,mu_j(a,c)) ]

(indices beyond the truncation order contribute zero).  Splitting off the
i=0 and j=0 terms gives R_r = -delta(mu_r) - R'_r with R'_r collecting the
products of two higher terms, so extending a deformation to order r means
solving delta(mu_r) = -R'_r for the residual without mu_r; the solver
verifies that the new term kills the order-r residual and returns the jet.

The strict checker demands R_r = 0 for r = 1..2N (products of two order-N
truncations reach t**(2N)); the jet reading stops at r = N.  Truncating a
genuine deformation, or transforming one by a truncated isomorphism, only
guarantees the orders up to N: the discarded t**(>N) tail is exactly what
cancelled the higher residuals.

A formal isomorphism Psi_t = id + psi_1 t + ... from mu_t to nu_t solves
nu_t(Psi_t a, Psi_t b) = Psi_t(mu_t(a, b)); the order-r part of that
equation, the intertwining defect, is the one kernel of transform,
equivalent_deformations and infinitesimal_relation.  None of them needs
the inverse series Psi_t^(-1); the test suite's oracle builds it to check
transform as Psi_t o mu_t o (Psi_t^(-1) x Psi_t^(-1)).

Both are a Series over the adjoint module of the algebra: sparse int
tables over one running denominator D.  The unit is the algebra's
integral form; the terms, from cochains or from a file, are scaled once,
together.  The residual and the defect are summed in those ints, over
D**2 and D_mu * D_nu * D_psi**2, and the solves of extend and equiv hand
them as they are to Coboundary.preimage, whose term the series adds as
it is; equiv and transform stop at the last order that can be nonzero.
Defects and series are written from their ints, with no Fraction.
"""

from __future__ import annotations

from math import gcd, lcm

from .algebra import (CheckReport, LeibnizSuperalgebra, SuperBimodule,
                      adjoint_module, leibniz_defect)
from .cochain import Cochain, all_tuples
from .cohomology import DEFAULT_MAX_ARITY, Coboundary
from .linalg import scale_to_ints


def _scaled(table: list, mul: int, div: int = 1) -> list:
    """table with every int times mul, divided (exactly) by div."""
    if mul == div:
        return table
    return [[(k, x * mul // div) for k, x in row] for row in table]


class Series:
    """sum_i s_i t**i mod t**(order+1), each s_i a degree-0 ARITY-cochain
    with adjoint coefficients, sparse and fraction-free.  tables maps each
    power i with s_i nonzero (s_0, the undeformed map, included) to its
    flat table: entry T, a tuple index, lists the nonzeros (k, D*coeff) of
    s_i at T by ascending k; den = D, the lcm of every denominator, so
    equal series have equal den and tables.  Tables are never changed in
    place; copies share them.  A subclass fixes ARITY, KIND (its name in
    errors) and _unit, s_0 as (its denominator, its flat int table)."""

    def __init__(self, algebra: LeibnizSuperalgebra, terms: list[Cochain],
                 module: SuperBimodule | None = None, order: int | None = None):
        """The series of order `order` (default len(terms)) with the
        cochains terms at t**1..t**len(terms); module, if given, must be
        the algebra's adjoint module."""
        if module is None:
            module = adjoint_module(algebra)
        elif not (module.algebra == algebra and module.space == algebra.space
                  and module.left == algebra.table == module.right):
            raise ValueError(f"a {self.KIND} has coefficients in the adjoint "
                             "module of its algebra")
        order = len(terms) if order is None else order
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {order}")
        if len(terms) > order:
            raise ValueError(f"a {self.KIND} of order {order} has no term "
                             f"at t**{len(terms)}")
        self.algebra, self.module, self.order = algebra, module, order
        for k, f in enumerate(terms, start=1):
            if f.arity != self.ARITY:
                raise ValueError(f"{self.KIND} terms must have arity {self.ARITY}")
            if f.algebra != algebra or f.module != module:
                raise ValueError(f"term {k} must be a cochain on the algebra with "
                                 "adjoint coefficients")
            if f.degree != 0:
                raise ValueError(f"term {k} must be homogeneous of degree 0")
        self.den, unit = self._unit()
        self.tables = {0: unit} if any(unit) else {}
        if terms:   # the terms are scaled once, together
            den, tables = scale_to_ints([f.coeffs for f in terms])
            self.add([(k, den, t) for k, t in enumerate(tables, start=1)])

    def _copy(self, order: int, den: int, tables: dict) -> "Series":
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, order=order, den=den, tables=tables)
        return out

    def add(self, terms) -> None:
        """Set the absent terms (power, den, table), each a flat int table
        over den, in lowest terms; the stored ints are rescaled once, if D
        grows to the lcm of D and the terms' lowest denominators."""
        terms = [(power, den, table) for power, den, table in terms if any(table)]
        top = lcm(self.den, *(den // gcd(den, *(x for row in t for _, x in row))
                              for _, den, t in terms))
        if top != self.den:
            self.tables = {i: _scaled(t, top // self.den) for i, t in self.tables.items()}
            self.den = top
        for power, den, table in terms:
            self.tables[power] = _scaled(table, top, den)

    def truncated(self, order: int) -> "Series":
        """The series mod t**(order+1), over its own lcm of denominators."""
        kept = {i: t for i, t in self.tables.items() if i <= order}
        g = 1 if len(kept) == len(self.tables) else gcd(
            self.den, *(x for t in kept.values() for row in t for _, x in row))
        return self._copy(min(order, self.order), self.den // g,
                          {i: _scaled(t, 1, g) for i, t in kept.items()})

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.order == other.order
                and self.algebra == other.algebra and self.den == other.den
                and self.tables == other.tables)


class TruncatedDeformation(Series):
    """mu_0 + mu_1 t + ... + mu_N t^N, mu_0 the bracket."""

    ARITY, KIND = 2, "deformation"

    def _unit(self) -> tuple[int, list]:
        return self.algebra.integral

    @classmethod
    def zero(cls, alg: LeibnizSuperalgebra, order: int,
             module: SuperBimodule | None = None) -> "TruncatedDeformation":
        return cls(alg, [], module, order)


class FormalIsomorphism(Series):
    """Psi_t = id + psi_1 t + ... + psi_N t^N, each psi_i degree-0 on L."""

    ARITY, KIND = 1, "isomorphism"

    def _unit(self) -> tuple[int, list]:
        return 1, [[(a, 1)] for a in range(self.algebra.dim)]

    @classmethod
    def identity(cls, alg: LeibnizSuperalgebra, order: int,
                 module: SuperBimodule | None = None) -> "FormalIsomorphism":
        return cls(alg, [], module, order)


def _residual_ints(d: TruncatedDeformation, r: int) -> list[list[int]]:
    """The order-r residual of d as leibniz_defect gives it: one int vector
    per basis triple, the residual times D**2; empty when each product
    mu_i mu_(r-i) has a zero factor."""
    t = d.tables
    pairs = [(t[i], t[r - i]) for i in t if r - i in t]
    return leibniz_defect(pairs, d.algebra.space.parities) if pairs else []


def deformation_residual(d: TruncatedDeformation, r: int) -> Cochain:
    """The order-r residual as a degree-0 3-cochain; zero iff order r holds.

    Summed in ints over the denominator D of the series; each nonzero
    entry is divided by D**2 once, when it is written back.
    """
    if r < 1 or r > 2 * max(d.order, 1):
        raise ValueError(f"order {r} out of range 1..{2 * max(d.order, 1)}")
    return Cochain.from_table(d.algebra, d.module, 3, 0, d.den ** 2,
                              [[(k, y) for k, y in enumerate(v) if y]
                               for v in _residual_ints(d, r)])


def check_deformation(d: TruncatedDeformation, mod_order: bool = False) -> CheckReport:
    """Verify the deformation equations; strict by default.

    Strict mode requires residuals 1..2N to vanish (the unqualified
    reading of the defining equation); mod_order stops at N, treating the
    deformation as a jet mod t**(N+1).  The int residuals of the series
    are zero-tested and a reported defect is written from them, and an
    order whose products all have a zero factor costs no product.  Past
    twice the highest stored power no product mu_i mu_(r-i) remains, so
    the orders beyond it are not visited.
    """
    top = d.order if mod_order else 2 * d.order
    sp = d.algebra.space
    den = d.den ** 2
    for r in range(1, min(top, 2 * max(d.tables, default=0)) + 1):
        bad = [{"order": r, "triple": tuple(sp.labels[i] for i in t),
                "defect": sp.describe(v, den)}
               for t, v in zip(all_tuples(d.algebra.dim, 3), _residual_ints(d, r))
               if any(v)]
        if bad:
            return CheckReport(bad)  # the first failing order only
    return CheckReport()


class ExtensionUndefined(ValueError):
    """A lower order of the deformation fails, so extending it is undefined.

    report is check_deformation of the orders below the target in the jet
    reading; its violations are those of the first failing order.
    """

    def __init__(self, report: CheckReport):
        super().__init__(f"order {report.violations[0]['order']} equation fails; "
                         "extension undefined")
        self.report = report


def _extended_residual(base: TruncatedDeformation, residual: list,
                       extended: TruncatedDeformation, r: int) -> list[list[int]]:
    """_residual_ints(extended, r) from residual = _residual_ints(base, r):
    R_r is bilinear and extended is base plus mu_r, so it is residual *
    (D'/D)**2 plus the products (mu_0, mu_r) and (mu_r, mu_0); D | D'."""
    t, grown = extended.tables, (extended.den // base.den) ** 2
    total = leibniz_defect([(t[0], t[r]), (t[r], t[0])] if 0 in t and r in t else [],
                           base.algebra.space.parities)
    for v, w in zip(residual, total):
        for j, y in enumerate(v):
            w[j] += y * grown
    return total


def extend_deformation(d: TruncatedDeformation, r: int,
                       max_arity: int = DEFAULT_MAX_ARITY) -> TruncatedDeformation | None:
    """The order-r jet of d's terms below r plus the mu_r that makes the
    order-r equation hold; None if obstructed.

    Requires the orders below r to hold for the given terms (mu_r and
    beyond are ignored); raises ExtensionUndefined, a ValueError, if not.
    mu_r is the canonical solution of delta(mu_r) = -R'_r (free variables
    zero; not stored if zero); any solution differs by a 2-cocycle.

    An AssertionError reports a mu_r that fails order r, found by two
    products with mu_0, not r + 1 (see _extended_residual).
    """
    if r < 1:
        raise ValueError("target order must be >= 1")
    base = d.truncated(r - 1)
    if base.order < r - 1:
        raise ValueError(f"deformation provides orders up to {base.order}, "
                         f"cannot target order {r}")
    lower = check_deformation(base, mod_order=True)
    if not lower.ok:
        raise ExtensionUndefined(lower)
    # the residual without mu_r is -R'_r, held as D**2 times it
    cob = Coboundary(base.module, 3, max_arity)
    residual = _residual_ints(base, r)
    rhs = [[(k, y) for k, y in enumerate(v) if y] for v in residual]
    solution = cob.preimage(2, 0, base.den ** 2, rhs)
    if solution is None:
        return None
    extended = base._copy(r, base.den, dict(base.tables))
    extended.add([(r, *solution)])
    if any(map(any, _extended_residual(base, residual, extended, r))):
        raise AssertionError("solver produced mu_r that fails order r; "
                             "sign conventions broken")
    return extended


def _intertwining_defect(mu: Series, nu: Series, psi: Series, r: int,
                         dim: int) -> tuple[int, list]:
    """Order r of Psi_t(mu_t(a,b)) - nu_t(Psi_t a, Psi_t b) as a flat int
    table of nonzeros (k, x) per pair (a, b), and its denominator
    D_mu*D_nu*D_psi**2; terms absent from a series count as zero.  Each
    summand psi_i(mu_j(a,b)) or nu_j(psi_k a, psi_l b) is one entry of
    each factor, so the defect is summed in ints.
    """
    (d_mu, m), (d_nu, n), (d_psi, p) = ((s.den, s.tables) for s in (mu, nu, psi))
    up = d_nu * d_psi
    outer = [(m[j], p[r - j]) for j in m if r - j in p]
    inner = [(n[j], p[k], p[r - j - k]) for j in n if j <= r
             for k in p if r - j - k in p]
    out = []
    for idx, (a, b) in enumerate(all_tuples(dim, 2)):
        acc = [0] * dim
        for table, psi_i in outer:
            for t, c in table[idx]:
                c *= up
                for s, x in psi_i[t]:
                    acc[s] += c * x
        for table, psi_k, psi_l in inner:
            vb = psi_l[b]
            for x, u in psi_k[a]:
                row, u = x * dim, u * d_mu
                for y, z in vb:
                    uz = u * z
                    for t, c in table[row + y]:
                        acc[t] -= uz * c
        out.append([(k, y) for k, y in enumerate(acc) if y])
    return up * d_psi * d_mu, out


def transform(d: TruncatedDeformation, iso: FormalIsomorphism) -> TruncatedDeformation:
    """The deformation nu_t with nu_t(Psi_t a, Psi_t b) = Psi_t(mu_t(a, b))
    mod t**(N+1), i.e. iso is a formal isomorphism from d to the result.

    As psi_0 = id, nu_r enters the order-r equation only as nu_r(a, b), so
    nu_r is the intertwining defect against nu_1..nu_(r-1).  It is zero past
    P_mu + Q and P_nu + 2Q (the highest stored powers), where the loop stops.
    """
    if iso.algebra != d.algebra:
        raise ValueError("isomorphism is over a different algebra")
    if iso.order != d.order:
        raise ValueError("isomorphism and deformation must share the order")
    nu = TruncatedDeformation.zero(d.algebra, d.order, d.module)
    q = max(iso.tables, default=0)
    for r in range(1, d.order + 1):
        if r > max(max(d.tables, default=0) + q, max(nu.tables, default=0) + 2 * q):
            break
        nu.add([(r, *_intertwining_defect(d, nu, iso, r, d.algebra.dim))])
    return nu


def equivalent_deformations(d1: TruncatedDeformation, d2: TruncatedDeformation,
                            order: int | None = None,
                            max_arity: int = DEFAULT_MAX_ARITY) -> FormalIsomorphism | None:
    """Find Psi_t with transform(d1, Psi_t) = d2, order by order.

    The unknown psi_r enters the order-r intertwining defect from d1 to d2
    as -delta(psi_r), since delta(f)(a,b) = -f([a,b]) + [a,f(b)] + [f(a),b]
    for an even 1-cochain; so psi_r solves delta(psi_r) = the defect with
    psi_r = 0, against the degree-1 coboundary matrix.  None when obstructed.
    Past P + 2Q (top powers of d1, d2 and of Psi_t) every psi_r is zero; it stops there.
    """
    if d1.algebra != d2.algebra:
        raise ValueError("deformations live on different algebras")
    if d2.order != d1.order:
        raise ValueError("deformations must share the truncation order")
    if order is not None and order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    n = d1.order if order is None else min(order, d1.order)
    da, db = d1.truncated(n), d2.truncated(n)
    alg, mod = da.algebra, da.module
    cob = Coboundary(mod, 2, max_arity)
    iso = FormalIsomorphism.identity(alg, n, mod)
    top = max([0, *da.tables, *db.tables])
    for r in range(1, n + 1):
        if r > top + 2 * max(iso.tables, default=0):
            break
        solution = cob.preimage(1, 0, *_intertwining_defect(da, db, iso, r, alg.dim))
        if solution is None:
            return None
        iso.add([(r, *solution)])
    if transform(da, iso) != db:
        raise AssertionError("order-by-order solution failed to match; "
                             "sign conventions broken")
    return iso


def infinitesimal_relation(d1: TruncatedDeformation, d2: TruncatedDeformation,
                           iso: FormalIsomorphism) -> CheckReport:
    """Check mu_1 - nu_1 = delta(psi_1) for iso from d1 to d2, which is the
    vanishing of the order-1 intertwining defect (mu_1 - nu_1) - delta(psi_1)."""
    if d1.order < 1 or d2.order < 1:
        raise ValueError("both deformations need at least order 1")
    dim, sp = d1.algebra.dim, d1.algebra.space
    den, diff = _intertwining_defect(d1, d2, iso, 1, dim)
    bad = []
    for t, row in zip(all_tuples(dim, 2), diff):
        if row:
            v = dict(row)
            bad.append({"pair": tuple(sp.labels[i] for i in t),
                        "defect": sp.describe([v.get(k, 0) for k in range(dim)], den)})
    return CheckReport(bad)
