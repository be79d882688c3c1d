"""Coboundary matrices, built as sparse int rows over one denominator, and
cohomology dimensions/bases from linalg's one engine, which reduces ints
and returns canonical Fractions.  A cohomology table scales the structure
once and eliminates D times each coboundary, which has the same rank,
kernel and image, so the engine receives ints only.

The basis of each parity component of a cochain space is enumerated
deterministically: tuples of algebra basis indices in lexicographic
order, then the admissible module basis indices in ascending order.
This enumeration is part of the external contract (golden matrices and
bases depend on it); _positions is its one encoding, and no other module
reads cochain coordinates.  Coordinate rows cross to linalg and back as
sparse {coordinate: coefficient} rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .algebra import LeibnizSuperalgebra, SuperBimodule
from .cochain import Cochain, coboundary_terms, parity_tables, scaled_structure
from .linalg import (RatMatrix, extend_to_basis, kernel_basis, rank, row_space_basis,
                     solve)

DEFAULT_MAX_ARITY = 4


class ArityCapError(ValueError):
    """Requested cochain space exceeds the configured arity cap."""


def bounded_power(base: int, exp: int) -> int | None:
    """base**exp, or None when it would exceed 2**256: the power is then
    never evaluated, so a size message never holds a huge number."""
    return base ** exp if exp * base.bit_length() <= 256 else None


def _check_cap(alg: LeibnizSuperalgebra, mod: SuperBimodule, arity: int,
               max_arity: int) -> None:
    if arity > max_arity:
        size = bounded_power(alg.dim, arity)
        value = "" if size is None else f" = {mod.dim * size}"
        raise ArityCapError(
            f"arity {arity} exceeds the cap {max_arity}; the cochain space "
            f"has dimension dim M * (dim L)^n = {mod.dim} * {alg.dim}^{arity}"
            f"{value} (raise the cap to proceed)")


def _positions(mod: SuperBimodule, par: list[list[int]],
               parity: int) -> list[tuple[list[int | None], int]]:
    """For each arity n of par (parity_tables), the flat position list of
    the parity component and its dimension: entry tuple_index(t) * dim M + k
    is the coordinate of (t, k), counted in the enumeration order, or None
    when (t, k) is not in the component."""
    out = []
    for pars in par:
        inside = [p == parity ^ q for q in pars for p in mod.space.parities]
        count = itertools.count()
        out.append(([next(count) if x else None for x in inside], sum(inside)))
    return out


def delta_matrix(alg: LeibnizSuperalgebra, mod: SuperBimodule, n: int, parity: int,
                 max_arity: int = DEFAULT_MAX_ARITY,
                 structure: tuple[int, list, list, list] | None = None,
                 positions: list | None = None, par: list | None = None) -> RatMatrix:
    """Matrix of the coboundary on the parity component, arity n -> n+1.

    Columns follow the domain enumeration, rows the codomain enumeration;
    applying the matrix to a cochain's coordinates gives the coordinates
    of its coboundary.  Built in one pass over the terms of
    coboundary_terms, as sparse int rows over the denominator D of
    structure (scaled_structure(mod) by default): the entries are ints
    when D is 1 and Fraction(x, D) otherwise.  A caller that passes
    (1, table, left, right) from scaled_structure gets D times the
    coboundary in ints, with the same rank, kernel and image.  par
    (parity_tables to arity n+1 or beyond) and positions (_positions of
    arities n and n+1) are built here by default.
    """
    if n < 0:
        raise ValueError("arity must be >= 0")
    _check_cap(alg, mod, n + 1, max_arity)
    if structure is None:
        structure = scaled_structure(mod)
    dm = mod.dim
    par = par or parity_tables(alg.space.parities, n + 1)
    (cols, ncols), (places, nrows) = positions or _positions(mod, par, parity)[n:n + 2]
    rows = [{} for _ in range(nrows)]
    for t, s, c, action in coboundary_terms(alg, structure, parity, n, par):
        t, s = t * dm, s * dm
        if action is None:
            for k in range(dm):
                i, j = places[t + k], cols[s + k]
                if i is not None and j is not None:
                    row = rows[i]
                    row[j] = row.get(j, 0) + c
            continue
        for m, image in enumerate(action):
            j = cols[s + m]
            if j is not None:
                for k, x in image:
                    i = places[t + k]
                    if i is not None:
                        row = rows[i]
                        row[j] = row.get(j, 0) + c * x
    # terms can cancel: drop the coefficients that summed to zero
    if structure[0] != 1:
        rows = [{j: Fraction(x, structure[0]) for j, x in row.items() if x} for row in rows]
    else:
        rows = [row if all(row.values()) else {j: x for j, x in row.items() if x} for row in rows]
    return RatMatrix._of(ncols, rows)


def _cochains(rows: list[dict], alg: LeibnizSuperalgebra, mod: SuperBimodule,
              n: int, parity: int, places: list[int | None]) -> list[Cochain]:
    """One cochain per sparse coordinate row, each coordinate placed by
    places, the arity-n position list of _positions."""
    flat = [p for p, j in enumerate(places) if j is not None]
    out = []
    for row in rows:
        f = Cochain.zero(alg, mod, n, parity)
        for j, c in row.items():
            t, k = divmod(flat[j], mod.dim)
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
    within the arity cap.  The structure is scaled once, and every matrix
    is D*delta in ints (see integral_coboundary).  The parity tables are
    built once, and the position list of each arity once per parity.
    """
    _check_cap(alg, mod, max_n + 1, max_arity)
    table = CohomologyTable(alg, mod, max_n)
    structure = (1, *scaled_structure(mod)[1:])
    par = parity_tables(alg.space.parities, max_n + 1)
    for parity in (0, 1):
        layout = _positions(mod, par, parity)
        prev_matrix: RatMatrix | None = None
        dim_b = 0
        for n in range(max_n + 1):
            mat = delta_matrix(alg, mod, n, parity, max_arity=max_arity,
                               structure=structure, positions=layout[n:n + 2], par=par)
            dim_c = mat.cols
            zrows = _z_rows(mat) if with_bases else None
            dim_z = len(zrows) if with_bases else dim_c - rank(mat)
            e = CohomologyEntry(n, parity, dim_c, dim_z, dim_b, dim_z - dim_b)
            if with_bases:
                brows = _b_rows(prev_matrix)
                e.basis_z, e.basis_b, e.basis_h = (
                    _cochains(rows, alg, mod, n, parity, layout[n][0])
                    for rows in (zrows, brows, extend_to_basis(brows, zrows)))
            table.entries[(n, parity)] = e
            prev_matrix = mat
            # rank-nullity: dim B^(n+1) = rank D_n = dim C^n - dim Z^n
            dim_b = dim_c - dim_z
    return table


def derivations(alg: LeibnizSuperalgebra, mod: SuperBimodule,
                parity: int, max_arity: int = DEFAULT_MAX_ARITY) -> list[Cochain]:
    """Canonical basis of the 1-cocycles of the given parity: Z^1."""
    _, mat, places, _ = integral_coboundary(mod, 1, parity, max_arity)
    return _cochains(_z_rows(mat), alg, mod, 1, parity, places)


def inner_derivations(alg: LeibnizSuperalgebra, mod: SuperBimodule) -> list[Cochain]:
    """Canonical basis of {x -> [m, x] : m in M_0} as degree-0 1-cochains.

    This is B^1 of degree 0, delta(m)(x) = -[m, x], read off the right
    action instead of building D_0.
    """
    places, ncols = _positions(mod, parity_tables(alg.space.parities, 1), 0)[1]
    rows = [{places[pos]: c for pos, c in enumerate(itertools.chain(*mod.right[m]))
             if c and places[pos] is not None}
            for m, p in enumerate(mod.space.parities) if p == 0]
    return _cochains(row_space_basis(RatMatrix(ncols, rows)), alg, mod, 1, 0, places)


def integral_coboundary(mod: SuperBimodule, n: int, parity: int,
                        max_arity: int = DEFAULT_MAX_ARITY) -> tuple[int, RatMatrix, list, list]:
    """(D, D*delta, cols, places) on the parity component from arity n:
    the matrix on the structure constants times their common denominator
    D, built when its rows are first read, has delta's rank, kernel and
    image and holds ints only; cols and places are the _positions lists
    of arities n and n+1.  Its canonical preimage of f is D times delta's."""
    alg = mod.algebra
    _check_cap(alg, mod, n + 1, max_arity)
    d, *structure = scaled_structure(mod)
    par = parity_tables(alg.space.parities, n + 1)
    (cols, ncols), (places, nrows) = positions = _positions(mod, par, parity)[n:]
    return d, RatMatrix._of(ncols, lambda: delta_matrix(
        alg, mod, n, parity, max_arity, (1, *structure), positions, par).sparse_rows,
        nrows), cols, places


def coboundary_preimage(mat: RatMatrix, mod: SuperBimodule, cols: list, places: list,
                        rows: list) -> tuple[int, list] | None:
    """The canonical g with mat(g) = f (free coordinates zero), or None.

    mat is delta_matrix from arity n - 1, or integral_coboundary's multiple
    of it, with its cols and places.  rows lists per tuple index the
    nonzeros (k, c) of the arity-n f, c an int or a Fraction; g comes back
    as (E, flat table of (k, E*coefficient)).  A zero f reads no row of mat.
    """
    dm = mod.dim
    b = {places[t * dm + k]: c for t, row in enumerate(rows) for k, c in row
         if places[t * dm + k] is not None}
    table = [[] for _ in range(len(cols) // dm)]
    if not b:
        return 1, table
    x = solve(mat, b)
    if x is None:
        return None
    e = lcm(*(v.denominator for v in x.values()))
    for pos, j in enumerate(cols):
        if j in x:
            table[pos // dm].append((pos % dm, x[j].numerator * (e // x[j].denominator)))
    return e, table
