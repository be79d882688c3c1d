"""Coboundary matrices, built as sparse int rows over one denominator, and
cohomology dimensions/bases from linalg's one engine, which reduces ints
and returns canonical Fractions.  A Coboundary reads the module's
structure scaled once to ints (SuperBimodule.scaled) and hands the engine
D times each coboundary, which has the same rank, kernel and image, so
the engine receives ints only, and solves delta.  Every Z basis is the
kernel of some D_n and every B basis, B^1_0 of inner_derivations
included, the image of D_(n-1).

The basis of each parity component of a cochain space is enumerated
deterministically: tuples of algebra basis indices in lexicographic
order, then the admissible module basis indices in ascending order.
This enumeration is part of the external contract (golden matrices and
bases depend on it); _offsets is its one encoding, per tuple: the
coordinate of each tuple's first admissible module index, to which a
module index adds its place among the indices of its parity.
Coboundary holds it, and no other module reads cochain coordinates.
Coordinate rows cross to linalg and back as sparse {coordinate:
coefficient} rows.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .algebra import LeibnizSuperalgebra, SuperBimodule, check_module_over
from .cochain import Cochain, coboundary_terms, parity_tables
from .linalg import (RatMatrix, extend_to_basis, kernel_basis, rank, row_space_basis,
                     solve)

DEFAULT_MAX_ARITY = 4


class ArityCapError(ValueError):
    """Requested cochain space exceeds the configured arity cap."""


def bounded_power(base: int, exp: int) -> int | None:
    """base**exp, or None when it would exceed 2**256: the power is then
    never evaluated, so a size message never holds a huge number."""
    return base ** exp if exp * base.bit_length() <= 256 else None


def _offsets(mod: SuperBimodule, par: list[list[int]], parity: int
             ) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """The parity component's coordinates for each arity n of par
    (parity_tables), as (adm, rank, bases).  adm[q] lists in ascending
    order the module indices admissible beside a tuple of parity q, those
    of parity `parity ^ q`, and rank[k] is k's place in its list;
    bases[n][t] is the coordinate of the first of them beside the arity-n
    tuple t, and bases[n][-1] the dimension.  So (t, k) sits at
    bases[n][t] + rank[k] exactly when k is in adm[par[n][t]]."""
    mpar = mod.space.parities
    adm = [[k for k, p in enumerate(mpar) if p == parity ^ q] for q in (0, 1)]
    rank = [mpar[:k].count(p) for k, p in enumerate(mpar)]
    bases = []
    for pars in par:
        base = [0]
        for q in pars:
            base.append(base[-1] + len(adm[q]))
        bases.append(base)
    return adm, rank, bases


def delta_matrix(alg: LeibnizSuperalgebra, mod: SuperBimodule, n: int, parity: int,
                 max_arity: int = DEFAULT_MAX_ARITY,
                 coboundary: Coboundary | None = None) -> RatMatrix:
    """Matrix of the coboundary on the parity component, arity n -> n+1.

    Columns follow the domain enumeration, rows the codomain enumeration;
    applying the matrix to a cochain's coordinates gives the coordinates
    of its coboundary.  Built in one pass over the terms of
    coboundary_terms, visiting admissible coordinates only, as sparse int
    rows over the structure's denominator D: the entries are ints when D
    is 1 and Fraction(x, D) otherwise.  Given coboundary (a Coboundary of
    mod to arity n+1 or beyond), it reads that one's tables and layout and
    returns D times the coboundary in ints, with the same rank, kernel and
    image.
    """
    if n < 0:
        raise ValueError("arity must be >= 0")
    check_module_over(alg, mod)
    cob = Coboundary(mod, n + 1, max_arity) if coboundary is None else coboundary
    adm, rank, bases = cob.layout(parity)
    cols, places = bases[n:n + 2]
    spar, tpar = cob.par[n:n + 2]
    mpar = mod.space.parities
    rows = [{} for _ in range(places[-1])]
    # a coefficient that cancels is deleted at once, so no row holds a zero
    for t, s, c, action in coboundary_terms(alg, cob.structure, parity, n, cob.par):
        q, i, j = spar[s], places[t], cols[s]
        if action is None:
            # f(S)[k] lands in (delta f)(T)[k]: T and S admit the same k
            # when they have one parity, and no k otherwise
            if q == tpar[t]:
                for row in rows[i:places[t + 1]]:
                    v = row.get(j, 0) + c
                    if v:
                        row[j] = v
                    else:
                        del row[j]
                    j += 1
            continue
        want = parity ^ tpar[t]
        for m in adm[q]:
            for k, x in action[m]:
                if mpar[k] == want:
                    row = rows[i + rank[k]]
                    v = row.get(j, 0) + c * x
                    if v:
                        row[j] = v
                    else:
                        del row[j]
            j += 1
    if coboundary is None and cob.den != 1:
        rows = [{j: Fraction(x, cob.den) for j, x in row.items()} for row in rows]
    return RatMatrix._of(cols[-1], rows)


class Coboundary:
    """delta on mod's cochains up to arity top (at most max_arity).  The
    parity tables are built once and each parity's layout (its _offsets
    encoding) on first use; coordinate and pair read the layout, (t, k) ->
    coordinate and back.  structure is mod.scaled, the bracket and actions
    scaled once to ints by their denominator den.  matrix keeps the last
    matrix it built, so repeated solves against one D_n build it once."""

    def __init__(self, mod: SuperBimodule, top: int, max_arity: int = DEFAULT_MAX_ARITY):
        alg = mod.algebra
        if top > max_arity:
            size = bounded_power(alg.dim, top)
            value = "" if size is None else f" = {mod.dim * size}"
            raise ArityCapError(
                f"arity {top} exceeds the cap {max_arity}; the cochain space "
                f"has dimension dim M * (dim L)^n = {mod.dim} * {alg.dim}^{top}"
                f"{value} (raise the cap to proceed)")
        self.module = mod
        self.par = parity_tables(alg.space.parities, top)
        self._layouts: dict[int, tuple] = {}
        self.structure = mod.scaled
        self.den = self.structure[0]
        self._last: tuple[int, int, RatMatrix] | None = None

    def layout(self, parity: int) -> tuple[list[list[int]], list[int], list[list[int]]]:
        """_offsets of the parity component, for arities 0..top."""
        if parity not in self._layouts:
            self._layouts[parity] = _offsets(self.module, self.par, parity)
        return self._layouts[parity]

    def coordinate(self, n: int, parity: int, t: int, k: int) -> int | None:
        """The coordinate of (t, k) in the arity-n parity component, or None
        when module index k is not admissible beside tuple index t."""
        if self.module.space.parities[k] != parity ^ self.par[n][t]:
            return None
        _, rank, bases = self.layout(parity)
        return bases[n][t] + rank[k]

    def pair(self, n: int, parity: int, j: int) -> tuple[int, int]:
        """The (t, k) at coordinate j of the arity-n parity component."""
        adm, _, bases = self.layout(parity)
        base = bases[n]
        t = bisect_right(base, j) - 1
        return t, adm[self.par[n][t]][j - base[t]]

    def matrix(self, n: int, parity: int) -> RatMatrix:
        """den * delta from arity n on the parity component, in ints."""
        if self._last is None or self._last[:2] != (n, parity):
            self._last = n, parity, delta_matrix(self.module.algebra, self.module, n,
                                                 parity, coboundary=self)
        return self._last[2]

    def preimage(self, n: int, parity: int, den: int, rows: list) -> tuple[int, list] | None:
        """The canonical g with delta(g) = f (free coordinates zero), or None.

        rows lists per arity-(n+1) tuple index the nonzeros (k, den*c) of
        f; g comes back as (E, flat table of (k, E*coefficient)).  A zero f
        builds no matrix."""
        b = {j: c for t, row in enumerate(rows) for k, c in row
             if (j := self.coordinate(n + 1, parity, t, k)) is not None}
        table = [[] for _ in self.par[n]]
        if not b:
            return 1, table
        x = solve(self.matrix(n, parity), b)
        if x is None:
            return None
        # the matrix is self.den * delta and b is den * f: g = x * self.den / den
        e = lcm(*(v.denominator for v in x.values()))
        for j in sorted(x):
            t, k = self.pair(n, parity, j)
            table[t].append((k, x[j].numerator * (e // x[j].denominator) * self.den))
        return e * den, table


def _cochains(rows: list[dict], cob: Coboundary, n: int, parity: int) -> list[Cochain]:
    """One cochain per sparse coordinate row, each coordinate placed by
    cob.pair."""
    out = []
    for row in rows:
        f = Cochain.zero(cob.module.algebra, cob.module, n, parity)
        for j, c in row.items():
            t, k = cob.pair(n, parity, j)
            f.coeffs[t][k] = c
        out.append(f)
    return out


def _z_rows(mat: RatMatrix) -> list[dict]:
    """Canonical (rref) basis of the kernel of D_n, as sparse coordinate rows."""
    return row_space_basis(RatMatrix(mat.cols, kernel_basis(mat)))


def _b_rows(prev_matrix: RatMatrix | None) -> list[dict]:
    """Canonical basis of the image of D_(n-1) (none for n = 0)."""
    return [] if prev_matrix is None else row_space_basis(prev_matrix.transpose())


@dataclass
class CohomologyEntry:
    n: int
    parity: int
    dim_c: int
    dim_z: int
    dim_b: int
    dim_h: int
    basis_z: list[Cochain] | None = None
    basis_b: list[Cochain] | None = None
    basis_h: list[Cochain] | None = None


@dataclass
class CohomologyTable:
    algebra: LeibnizSuperalgebra
    module: SuperBimodule
    max_n: int
    entries: dict[tuple[int, int], CohomologyEntry] = field(default_factory=dict)

    def entry(self, n: int, parity: int) -> CohomologyEntry:
        return self.entries[(n, parity)]

    def dim_h(self, n: int, parity: int) -> int:
        return self.entries[(n, parity)].dim_h


def cohomology_table(alg: LeibnizSuperalgebra, mod: SuperBimodule, max_n: int,
                     with_bases: bool = False,
                     max_arity: int = DEFAULT_MAX_ARITY) -> CohomologyTable:
    """Z/B/H dimensions (and optionally echelon bases) for n = 0..max_n.

    Computing H^n needs the coboundary into arity n+1, so max_n+1 must be
    within the arity cap.  One Coboundary scales the structure once, and
    every matrix is D*delta in ints; the parity tables are built once, and
    the offset encoding once per parity.
    """
    check_module_over(alg, mod)
    cob = Coboundary(mod, max_n + 1, max_arity)
    table = CohomologyTable(alg, mod, max_n)
    for parity in (0, 1):
        prev_matrix: RatMatrix | None = None
        dim_b = 0
        for n in range(max_n + 1):
            mat = cob.matrix(n, parity)
            dim_c = mat.cols
            zrows = _z_rows(mat) if with_bases else None
            dim_z = len(zrows) if with_bases else dim_c - rank(mat)
            e = CohomologyEntry(n, parity, dim_c, dim_z, dim_b, dim_z - dim_b)
            if with_bases:
                brows = _b_rows(prev_matrix)
                e.basis_z, e.basis_b, e.basis_h = (
                    _cochains(rows, cob, n, parity)
                    for rows in (zrows, brows, extend_to_basis(brows, zrows)))
            table.entries[(n, parity)] = e
            prev_matrix = mat
            # rank-nullity: dim B^(n+1) = rank D_n = dim C^n - dim Z^n
            dim_b = dim_c - dim_z
    return table


def derivations(alg: LeibnizSuperalgebra, mod: SuperBimodule,
                parity: int, max_arity: int = DEFAULT_MAX_ARITY) -> list[Cochain]:
    """Canonical basis of the 1-cocycles of the given parity: Z^1."""
    check_module_over(alg, mod)
    cob = Coboundary(mod, 2, max_arity)
    return _cochains(_z_rows(cob.matrix(1, parity)), cob, 1, parity)


def inner_derivations(alg: LeibnizSuperalgebra, mod: SuperBimodule) -> list[Cochain]:
    """Canonical basis of {x -> [m, x] : m in M_0} as degree-0 1-cochains:
    B^1 of degree 0, the image of D_0 (delta(m)(x) = -[m, x]), so it is the
    table's basis_b."""
    check_module_over(alg, mod)
    cob = Coboundary(mod, 1)
    return _cochains(_b_rows(cob.matrix(0, 0)), cob, 1, 0)
