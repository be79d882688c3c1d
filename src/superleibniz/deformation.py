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
solving delta(mu_r) = -R'_r, which is cohomology.is_coboundary of the
residual without mu_r; the solver verifies the appended term kills the
order-r residual.

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

The residual and the intertwining defect are the hot loops, and both are
exact without Fractions in them: every family of coefficients (mu, nu,
psi) is scaled once to ints over its common denominator
(linalg.scale_to_ints), the products are summed in ints, and each nonzero
entry is divided once, by D**2 for the residual and by
D_mu * D_nu * D_psi**2 for the defect.  The checks zero-test the int
residuals themselves: a strict check scales mu_0..mu_N once for all of
its orders and builds Fractions only for the defects it reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (CheckReport, LeibnizSuperalgebra, SuperBimodule,
                      adjoint_module, leibniz_defect)
from .cochain import Cochain, all_tuples
from .cohomology import (DEFAULT_MAX_ARITY, coboundary_preimage, delta_matrix,
                         is_coboundary)
from .linalg import basis_vec, scale_to_ints, zeros


def _check_term(alg: LeibnizSuperalgebra, mod: SuperBimodule, f: Cochain,
                what: str) -> None:
    if f.algebra != alg or f.module != mod:
        raise ValueError(f"{what} must be a cochain on the algebra with "
                         "adjoint coefficients")
    if f.degree != 0:
        raise ValueError(f"{what} must be homogeneous of degree 0")


@dataclass
class TruncatedDeformation:
    """mu_0 + mu_1 t + ... + mu_N t^N; terms holds mu_1..mu_N only."""

    algebra: LeibnizSuperalgebra
    terms: list[Cochain]
    module: SuperBimodule = field(default=None)  # adjoint; shared by all terms

    def __post_init__(self):
        if self.module is None:
            self.module = adjoint_module(self.algebra)
        for k, f in enumerate(self.terms):
            if f.arity != 2:
                raise ValueError("deformation terms must have arity 2")
            _check_term(self.algebra, self.module, f, f"term {k + 1}")

    @classmethod
    def zero(cls, alg: LeibnizSuperalgebra, order: int,
             module: SuperBimodule | None = None) -> "TruncatedDeformation":
        mod = module if module is not None else adjoint_module(alg)
        return cls(alg, [Cochain.zero(alg, mod, 2, 0) for _ in range(order)], mod)

    @property
    def order(self) -> int:
        return len(self.terms)

    def mu_ints(self) -> tuple[int, list, set[int]]:
        """mu_0..mu_N fraction-free over one common denominator D, as
        scale_to_ints gives them: one flat table per mu_i whose entry
        a*dim + b lists the nonzeros (k, D*coefficient) of mu_i(e_a, e_b);
        last, the set of i with mu_i nonzero, so that the residuals skip
        the products of zero terms."""
        d, tables = scale_to_ints([[v for row in self.algebra.table for v in row]]
                                  + [f.coeffs for f in self.terms])
        return d, tables, {i for i, t in enumerate(tables) if any(t)}

    def appended(self, mu: Cochain) -> "TruncatedDeformation":
        return TruncatedDeformation(self.algebra, self.terms + [mu], self.module)

    def truncated(self, order: int) -> "TruncatedDeformation":
        return TruncatedDeformation(self.algebra, self.terms[:order], self.module)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruncatedDeformation)
                and self.algebra == other.algebra
                and [f.coeffs for f in self.terms] == [f.coeffs for f in other.terms])


@dataclass
class FormalIsomorphism:
    """Psi_t = id + psi_1 t + ... + psi_N t^N, each psi_i degree-0 on L."""

    algebra: LeibnizSuperalgebra
    terms: list[Cochain]
    module: SuperBimodule = field(default=None)

    def __post_init__(self):
        if self.module is None:
            self.module = adjoint_module(self.algebra)
        for k, f in enumerate(self.terms):
            if f.arity != 1:
                raise ValueError("isomorphism terms must have arity 1")
            _check_term(self.algebra, self.module, f, f"term {k + 1}")

    @classmethod
    def identity(cls, alg: LeibnizSuperalgebra, order: int,
                 module: SuperBimodule | None = None) -> "FormalIsomorphism":
        mod = module if module is not None else adjoint_module(alg)
        return cls(alg, [Cochain.zero(alg, mod, 1, 0) for _ in range(order)], mod)

    @property
    def order(self) -> int:
        return len(self.terms)

    def matrix(self, i: int) -> list[list[Fraction]]:
        """psi_i as a list of image columns; psi_0 is the identity."""
        dim = self.algebra.dim
        if i == 0:
            return [basis_vec(dim, j) for j in range(dim)]
        if i <= self.order:
            return [list(self.terms[i - 1].coeffs[j]) for j in range(dim)]
        return [zeros(dim) for _ in range(dim)]


def _residual_ints(d: TruncatedDeformation, mus: tuple, r: int) -> list[list[int]]:
    """The order-r residual as leibniz_defect gives it, from mus =
    d.mu_ints(): one int vector per basis triple, the residual times D**2
    for the common denominator D of mu_0..mu_N."""
    _, tables, live = mus
    # the pairs (mu_i, mu_j), i + j = r, of nonzero terms within the order
    pairs = [(tables[i], tables[r - i]) for i in live if r - i in live]
    return leibniz_defect(pairs, d.algebra.space.parities)


def deformation_residual(d: TruncatedDeformation, r: int) -> Cochain:
    """The order-r residual as a degree-0 3-cochain; zero iff order r holds.

    Summed in ints over the common denominator D of mu_0..mu_N; each
    nonzero entry is divided by D**2 once, when it is written back.
    """
    if r < 1 or r > 2 * max(d.order, 1):
        raise ValueError(f"order {r} out of range 1..{2 * max(d.order, 1)}")
    mus = d.mu_ints()
    den = mus[0] * mus[0]
    out = Cochain.zero(d.algebra, d.module, 3, 0)
    for idx, v in enumerate(_residual_ints(d, mus, r)):
        if any(v):
            out.coeffs[idx] = [Fraction(y, den) for y in v]
    return out


def check_deformation(d: TruncatedDeformation, mod_order: bool = False) -> CheckReport:
    """Verify the deformation equations; strict by default.

    Strict mode requires residuals 1..2N to vanish (the unqualified
    reading of the defining equation); mod_order stops at N, treating the
    deformation as a jet mod t**(N+1).  mu_0..mu_N are scaled to ints
    once per check; Fractions are built only for the reported defects.
    """
    top = d.order if mod_order else 2 * d.order
    sp = d.algebra.space
    mus = d.mu_ints()
    den = mus[0] * mus[0]
    for r in range(1, top + 1):
        bad = [{"order": r, "triple": tuple(sp.labels[i] for i in t),
                "defect": sp.describe([Fraction(y, den) for y in v])}
               for t, v in zip(all_tuples(d.algebra.dim, 3), _residual_ints(d, mus, r))
               if any(v)]
        if bad:
            return CheckReport(False, bad)  # the first failing order only
    return CheckReport(True, [])


class ExtensionUndefined(ValueError):
    """A lower order of the deformation fails, so extending it is undefined.

    report is check_deformation of the orders below the target in the jet
    reading; its violations are those of the first failing order.
    """

    def __init__(self, report: CheckReport):
        super().__init__(f"order {report.violations[0]['order']} equation fails; "
                         "extension undefined")
        self.report = report


def extend_deformation(d: TruncatedDeformation, r: int,
                       max_arity: int = DEFAULT_MAX_ARITY) -> Cochain | None:
    """Solve for mu_r making the order-r equation hold; None if obstructed.

    Requires the orders below r to hold for the given terms (mu_r and
    beyond are ignored); raises ExtensionUndefined, a ValueError, if not.
    Returns the canonical solution of delta(mu_r) = -R'_r (free variables
    zero); any solution differs by a 2-cocycle.
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
    # the residual without mu_r equals -R'_r
    mu_r = is_coboundary(deformation_residual(base, r), max_arity=max_arity)
    if mu_r is None:
        return None
    extended = base.appended(mu_r)
    if any(any(v) for v in _residual_ints(extended, extended.mu_ints(), r)):
        raise AssertionError("solver produced mu_r that fails order r; "
                             "sign conventions broken")
    return mu_r


def _intertwining_defect(d: TruncatedDeformation, mus: tuple, nus: tuple,
                         psis: tuple, r: int) -> Cochain:
    """Order r of Psi_t(mu_t(a,b)) - nu_t(Psi_t a, Psi_t b) as a degree-0
    2-cochain, from mu_ints() of both deformations and scale_to_ints of the
    columns of psi_0, psi_1, ...; terms past a family's end count as zero.
    Each summand psi_i(mu_j(a,b)) or nu_j(psi_k a, psi_l b) is one entry of
    each factor, so the defect is summed in ints over D_mu*D_nu*D_psi**2.
    """
    dim = d.algebra.dim
    (d_mu, mu, mu_live), (d_nu, nu, nu_live), (d_psi, psi) = mus, nus, psis
    top, up = len(psi) - 1, d_nu * d_psi
    outer = [(mu[j], psi[r - j]) for j in mu_live if r - top <= j <= r]
    inner = [(nu[j], psi[k], psi[r - j - k]) for j in nu_live if j <= r
             for k in range(max(0, r - j - top), min(top, r - j) + 1)]
    f = Cochain.zero(d.algebra, d.module, 2, 0)
    for idx, (a, b) in enumerate(all_tuples(dim, 2)):
        acc = [0] * dim
        for table, psi_i in outer:
            for t, c in table[idx]:
                c *= up
                for s, p in psi_i[t]:
                    acc[s] += c * p
        for table, psi_k, psi_l in inner:
            vb = psi_l[b]
            for x, u in psi_k[a]:
                row, u = x * dim, u * d_mu
                for y, z in vb:
                    uz = u * z
                    for t, c in table[row + y]:
                        acc[t] -= uz * c
        if any(acc):
            f.coeffs[idx] = [Fraction(y, up * d_psi * d_mu) for y in acc]
    return f


def transform(d: TruncatedDeformation, iso: FormalIsomorphism) -> TruncatedDeformation:
    """The deformation nu_t with nu_t(Psi_t a, Psi_t b) = Psi_t(mu_t(a, b))
    mod t**(N+1), i.e. iso is a formal isomorphism from d to the result.

    As psi_0 = id, nu_r enters the order-r equation only as nu_r(a, b), so
    nu_r is the intertwining defect against nu_1..nu_(r-1).
    """
    if iso.algebra != d.algebra:
        raise ValueError("isomorphism is over a different algebra")
    if iso.order != d.order:
        raise ValueError("isomorphism and deformation must share the order")
    mus, psis = d.mu_ints(), scale_to_ints([iso.matrix(i) for i in range(d.order + 1)])
    nu = TruncatedDeformation(d.algebra, [], d.module)
    for r in range(1, d.order + 1):
        nu.terms.append(_intertwining_defect(d, mus, nu.mu_ints(), psis, r))
    return nu


def equivalent_deformations(d1: TruncatedDeformation, d2: TruncatedDeformation,
                            order: int | None = None,
                            max_arity: int = DEFAULT_MAX_ARITY) -> FormalIsomorphism | None:
    """Find Psi_t with transform(d1, Psi_t) = d2, order by order.

    The unknown psi_r enters the order-r intertwining defect from d1 to d2
    as -delta(psi_r), since delta(f)(a,b) = -f([a,b]) + [a,f(b)] + [f(a),b]
    for an even 1-cochain; so psi_r solves delta(psi_r) = the defect with
    psi_r = 0, against the degree-1 coboundary matrix.  None when obstructed.
    """
    if d1.algebra != d2.algebra:
        raise ValueError("deformations live on different algebras")
    if d2.order != d1.order:
        raise ValueError("deformations must share the truncation order")
    if order is not None and order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    n = d1.order if order is None else min(order, d1.order)
    da, db = d1.truncated(n), d2.truncated(n)
    mat = delta_matrix(da.algebra, da.module, 1, 0, max_arity=max_arity)
    iso = FormalIsomorphism.identity(da.algebra, n, da.module)
    mus, nus = da.mu_ints(), db.mu_ints()
    for r in range(1, n + 1):
        psis = scale_to_ints([iso.matrix(i) for i in range(r)])
        psi_r = coboundary_preimage(mat, _intertwining_defect(da, mus, nus, psis, r))
        if psi_r is None:
            return None
        iso.terms[r - 1] = psi_r
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
    psis = scale_to_ints([iso.matrix(0), iso.matrix(1)])
    diff = _intertwining_defect(d1, d1.truncated(1).mu_ints(),
                                d2.truncated(1).mu_ints(), psis, 1)
    sp = d1.algebra.space
    bad = [{"pair": tuple(sp.labels[i] for i in t), "defect": sp.describe(v)}
           for t, v in zip(all_tuples(d1.algebra.dim, 2), diff.coeffs) if any(v)]
    return CheckReport(not bad, bad)
