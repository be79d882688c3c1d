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
solving delta(mu_r) = -R'_r; the solver verifies the appended term kills
the order-r residual.

The strict checker demands R_r = 0 for r = 1..2N (products of two order-N
truncations reach t**(2N)); the jet reading stops at r = N.  Truncating a
genuine deformation, or transforming one by a truncated isomorphism, only
guarantees the orders up to N: the discarded t**(>N) tail is exactly what
cancelled the higher residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (CheckReport, LeibnizSuperalgebra, SuperBimodule,
                      adjoint_module, leibniz_defect)
from .cochain import Cochain, all_tuples, delta
from .cohomology import (DEFAULT_MAX_ARITY, cochain_coords, cochain_from_coords,
                         delta_matrix, enumerate_basis)
from .linalg import (F1, add_scaled, basis_vec, bilinear, lin_comb, solve,
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

    def term(self, i: int) -> Cochain | None:
        """mu_i as a cochain; None for i = 0 (the bracket) and i > order."""
        if i == 0:
            return None
        if i <= self.order:
            return self.terms[i - 1]
        return None

    def mu_tables(self) -> list:
        """Structure-constant tables of mu_0..mu_N: the bracket, then each
        term's coefficients cut into rows that share the term's vectors."""
        dim = self.algebra.dim
        return [self.algebra.table] + [
            [f.coeffs[a * dim:(a + 1) * dim] for a in range(dim)]
            for f in self.terms]

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


def deformation_residual(d: TruncatedDeformation, r: int) -> Cochain:
    """The order-r residual as a degree-0 3-cochain; zero iff order r holds."""
    if r < 1 or r > 2 * max(d.order, 1):
        raise ValueError(f"order {r} out of range 1..{2 * max(d.order, 1)}")
    alg = d.algebra
    par = alg.space.parities
    mus = d.mu_tables()
    # the pairs (mu_i, mu_j), i + j = r, with both factors within the order
    pairs = [(mus[i], mus[r - i]) for i in range(r + 1)
             if i <= d.order and r - i <= d.order]
    out = Cochain.zero(alg, d.module, 3, 0)
    for acc, (a, b, c) in zip(out.coeffs, all_tuples(alg.dim, 3)):
        for outer, inner in pairs:
            leibniz_defect(outer, inner, par, a, b, c, acc)
    return out


def check_deformation(d: TruncatedDeformation, mod_order: bool = False) -> CheckReport:
    """Verify the deformation equations; strict by default.

    Strict mode requires residuals 1..2N to vanish (the unqualified
    reading of the defining equation); mod_order stops at N, treating the
    deformation as a jet mod t**(N+1).
    """
    top = d.order if mod_order else 2 * d.order
    sp = d.algebra.space
    bad = []
    for r in range(1, top + 1):
        res = deformation_residual(d, r)
        if res.is_zero():
            continue
        for t in all_tuples(d.algebra.dim, 3):
            v = res.value(t)
            if not vec_is_zero(v):
                bad.append({"order": r,
                            "triple": tuple(sp.labels[i] for i in t),
                            "defect": sp.describe(v)})
        break  # report the first failing order only
    return CheckReport(not bad, bad)


def infinitesimal(d: TruncatedDeformation) -> tuple[int, Cochain] | None:
    """First nonzero term with its index, or None if all terms vanish."""
    for i, f in enumerate(d.terms, start=1):
        if not f.is_zero():
            return i, f
    return None


def extend_deformation(d: TruncatedDeformation, r: int,
                       max_arity: int = DEFAULT_MAX_ARITY) -> Cochain | None:
    """Solve for mu_r making the order-r equation hold; None if obstructed.

    Requires the orders below r to hold for the given terms (mu_r and
    beyond are ignored).  Returns the canonical solution of
    delta(mu_r) = -R'_r (free variables zero); any solution differs by a
    2-cocycle.
    """
    if r < 1:
        raise ValueError("target order must be >= 1")
    base = d.truncated(r - 1)
    if base.order < r - 1:
        raise ValueError(f"deformation provides orders up to {base.order}, "
                         f"cannot target order {r}")
    for s in range(1, r):
        if not deformation_residual(base, s).is_zero():
            raise ValueError(f"order {s} equation fails; extension undefined")
    alg, mod = d.algebra, d.module
    rhs = deformation_residual(base, r)  # equals -R'_r since mu_r is absent
    mat = delta_matrix(alg, mod, 2, 0, max_arity=max_arity)
    b = cochain_coords(rhs, enumerate_basis(alg, mod, 3, 0))
    x = solve(mat, b)
    if x is None:
        return None
    mu_r = cochain_from_coords(alg, mod, 2, 0, x)
    if not deformation_residual(base.appended(mu_r), r).is_zero():
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
    mus = d.mu_tables()
    phis = iso.inverse_matrices(n)
    psis = [iso.matrix(i) for i in range(n + 1)]
    terms = [_transformed_term(d, mus, phis, psis, r) for r in range(1, n + 1)]
    return TruncatedDeformation(d.algebra, terms, d.module)


def _transformed_term(d: TruncatedDeformation, mus: list, phis: list, psis: list,
                      r: int) -> Cochain:
    """Term r of transform(d, iso), from mus = d.mu_tables() and the columns
    of phi_0..phi_r (the inverse series) and psi_0..psi_r of iso."""
    alg = d.algebra
    dim = alg.dim
    f = Cochain.zero(alg, d.module, 2, 0)
    for acc, (a, b) in zip(f.coeffs, all_tuples(dim, 2)):
        for i in range(r + 1):
            # sum of mu_j(phi_k a, phi_l b) over j + k + l = r - i, then psi_i
            w = zeros(dim)
            for j in range(r - i + 1):
                for k in range(r - i - j + 1):
                    add_scaled(w, F1, bilinear(mus[j], phis[k][a],
                                               phis[r - i - j - k][b], dim))
            add_scaled(acc, F1, lin_comb(psis[i], w, dim))
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
    enum2 = enumerate_basis(alg, mod, 2, 0)
    iso = FormalIsomorphism.identity(alg, n, mod)
    mus = da.mu_tables()
    for r in range(1, n + 1):
        # transformed term r with psi_r still zero
        k_r = _transformed_term(da, mus, iso.inverse_matrices(r),
                                [iso.matrix(i) for i in range(r + 1)], r)
        target = k_r - db.terms[r - 1]
        x = solve(mat, cochain_coords(target, enum2))
        if x is None:
            return None
        iso.terms[r - 1] = cochain_from_coords(alg, mod, 1, 0, x)
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
