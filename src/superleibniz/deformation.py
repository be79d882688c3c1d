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

The residual and the transform are the hot loops, and both are exact
without Fractions in them: every family of coefficients (mu_0..mu_N, the
inverse series phi, the isomorphism psi) is scaled once to ints over its
common denominator (linalg.scale_to_ints), the products are summed in
ints, and each nonzero entry is divided once, by D**2 for the residual
and by D_psi * D_mu * D_phi**2 for a transformed term.  The checks zero-
test the int residuals themselves: a strict check scales mu_0..mu_N once
for all of its orders and builds Fractions only for the defects it
reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (CheckReport, LeibnizSuperalgebra, SuperBimodule,
                      adjoint_module, leibniz_defect)
from .cochain import Cochain, all_tuples, delta
from .cohomology import (DEFAULT_MAX_ARITY, coboundary_preimage, delta_matrix,
                         is_coboundary)
from .linalg import (F1, add_scaled, basis_vec, lin_comb, scale_to_ints,
                     vec_is_zero, zeros)


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

    def inverse_matrices(self, order: int) -> list[list[list[Fraction]]]:
        """Columns of the inverse series mod t**(order+1): phi_0..phi_order."""
        dim = self.algebra.dim
        phis = [[basis_vec(dim, j) for j in range(dim)]]
        for r in range(1, order + 1):
            cols = [zeros(dim) for _ in range(dim)]
            for s in range(1, r + 1):
                psi_s = self.matrix(s)
                for col, phi_col in zip(cols, phis[r - s]):
                    add_scaled(col, -F1, lin_comb(psi_s, phi_col, dim))
            phis.append(cols)
        return phis

    def inverse(self, order: int | None = None) -> "FormalIsomorphism":
        n = self.order if order is None else order
        phis = self.inverse_matrices(n)
        terms = [Cochain(self.algebra, self.module, 1, 0, [list(c) for c in phis[r]])
                 for r in range(1, n + 1)]
        return FormalIsomorphism(self.algebra, terms, self.module)


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


def infinitesimal(d: TruncatedDeformation) -> tuple[int, Cochain] | None:
    """First nonzero term with its index, or None if all terms vanish."""
    for i, f in enumerate(d.terms, start=1):
        if not f.is_zero():
            return i, f
    return None


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


def transform(d: TruncatedDeformation, iso: FormalIsomorphism) -> TruncatedDeformation:
    """The deformation Psi_t o mu_t o (Psi_t^{-1} x Psi_t^{-1}), mod t**(N+1).

    The result nu satisfies nu_t(Psi_t a, Psi_t b) = Psi_t(mu_t(a, b)) up
    to order N, i.e. iso is a formal isomorphism from d to the result.
    """
    if iso.algebra != d.algebra:
        raise ValueError("isomorphism is over a different algebra")
    if iso.order != d.order:
        raise ValueError("isomorphism and deformation must share the order")
    n = d.order
    mus = d.mu_ints()
    phis = scale_to_ints(iso.inverse_matrices(n))
    psis = scale_to_ints([iso.matrix(i) for i in range(n + 1)])
    terms = [_transformed_term(d, mus, phis, psis, r) for r in range(1, n + 1)]
    return TruncatedDeformation(d.algebra, terms, d.module)


def _transformed_term(d: TruncatedDeformation, mus: tuple, phis: tuple,
                      psis: tuple, r: int) -> Cochain:
    """Term r of transform(d, iso), from mus = d.mu_ints() and the columns
    of phi_0..phi_r (the inverse series) and psi_0..psi_r of iso, each
    family fraction-free as a (D, tables) pair from scale_to_ints.

    Each summand psi_i mu_j(phi_k a, phi_l b) is one entry from each of
    psi_i, mu_j, phi_k and phi_l, so the term is summed in ints over
    D_psi * D_mu * D_phi**2 and divided once per nonzero entry.
    """
    dim = d.algebra.dim
    (d_mu, mu, _), (d_phi, phi), (d_psi, psi) = mus, phis, psis
    den = d_psi * d_mu * d_phi * d_phi
    f = Cochain.zero(d.algebra, d.module, 2, 0)
    for idx, (a, b) in enumerate(all_tuples(dim, 2)):
        acc = [0] * dim
        for i in range(r + 1):
            # sum of mu_j(phi_k a, phi_l b) over j + k + l = r - i, then psi_i
            m = r - i
            w = [0] * dim
            for j in range(m + 1):
                table = mu[j]
                for k in range(m - j + 1):
                    vb = phi[m - j - k][b]
                    for x, u in phi[k][a]:
                        row = x * dim
                        for y, z in vb:
                            uz = u * z
                            for t, c in table[row + y]:
                                w[t] += uz * c
            for t, wt in enumerate(w):
                if wt:
                    for s, p in psi[i][t]:
                        acc[s] += wt * p
        if any(acc):
            f.coeffs[idx] = [Fraction(y, den) for y in acc]
    return f


def equivalent_deformations(d1: TruncatedDeformation, d2: TruncatedDeformation,
                            order: int | None = None,
                            max_arity: int = DEFAULT_MAX_ARITY) -> FormalIsomorphism | None:
    """Find Psi_t with transform(d1, Psi_t) = d2, order by order.

    At each order the unknown psi_r enters the transformed term r as
    -delta(psi_r) plus data from lower orders, so each step is a linear
    solve against the degree-1 coboundary matrix; None when obstructed.
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
    mat = delta_matrix(alg, mod, 1, 0, max_arity=max_arity)
    iso = FormalIsomorphism.identity(alg, n, mod)
    mus = da.mu_ints()
    for r in range(1, n + 1):
        # transformed term r with psi_r still zero
        phis = scale_to_ints(iso.inverse_matrices(r))
        psis = scale_to_ints([iso.matrix(i) for i in range(r + 1)])
        k_r = _transformed_term(da, mus, phis, psis, r)
        psi_r = coboundary_preimage(mat, k_r - db.terms[r - 1])
        if psi_r is None:
            return None
        iso.terms[r - 1] = psi_r
    if transform(da, iso) != db:
        raise AssertionError("order-by-order solution failed to match; "
                             "sign conventions broken")
    return iso


def infinitesimal_relation(d1: TruncatedDeformation, d2: TruncatedDeformation,
                           iso: FormalIsomorphism) -> CheckReport:
    """Check mu_1 - nu_1 = delta(psi_1) for iso from d1 to d2."""
    if d1.order < 1 or d2.order < 1:
        raise ValueError("both deformations need at least order 1")
    psi1 = (iso.terms[0] if iso.order >= 1
            else Cochain.zero(d1.algebra, d1.module, 1, 0))
    lhs = d1.terms[0] - d2.terms[0]
    rhs = delta(psi1)
    if lhs == rhs:
        return CheckReport(True, [])
    diff = lhs - rhs
    sp = d1.algebra.space
    bad = []
    for t in all_tuples(d1.algebra.dim, 2):
        v = diff.value(t)
        if not vec_is_zero(v):
            bad.append({"pair": tuple(sp.labels[i] for i in t),
                        "defect": sp.describe(v)})
    return CheckReport(False, bad)
