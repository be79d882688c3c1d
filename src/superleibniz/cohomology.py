"""Coboundary matrices and cohomology dimensions/bases.

The basis of each parity component of a cochain space is enumerated
deterministically: tuples of algebra basis indices in lexicographic
order, and for each tuple the admissible module basis indices in
ascending order.  This enumeration is part of the external contract;
golden matrices and bases depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import LeibnizSuperalgebra, SuperBimodule
from .cochain import Cochain, all_tuples, coboundary_terms, tuple_index
from .linalg import (F0, RatMatrix, extend_to_basis, kernel_basis, rank,
                     row_space_basis, solve, zeros)

DEFAULT_MAX_ARITY = 4


class ArityCapError(ValueError):
    """Requested cochain space exceeds the configured arity cap."""


def space_dimension(alg: LeibnizSuperalgebra, mod: SuperBimodule, n: int) -> int:
    return mod.dim * alg.dim ** n


def enumerate_basis(alg: LeibnizSuperalgebra, mod: SuperBimodule,
                    n: int, parity: int) -> list[tuple[tuple[int, ...], int]]:
    """Ordered basis of the parity component of the arity-n cochain space."""
    asp, msp = alg.space, mod.space
    out = []
    for t in all_tuples(alg.dim, n):
        want = (parity + asp.tuple_parity(t)) & 1
        for k in range(mod.dim):
            if msp.parities[k] == want:
                out.append((t, k))
    return out


def cochain_coords(f: Cochain,
                   enum: list[tuple[tuple[int, ...], int]]) -> list[Fraction]:
    dim = f.algebra.dim
    return [f.coeffs[tuple_index(t, dim)][k] for t, k in enum]


def cochain_from_coords(alg: LeibnizSuperalgebra, mod: SuperBimodule,
                        n: int, parity: int, coords: list[Fraction],
                        enum: list[tuple[tuple[int, ...], int]] | None = None) -> Cochain:
    if enum is None:
        enum = enumerate_basis(alg, mod, n, parity)
    f = Cochain.zero(alg, mod, n, parity)
    for c, (t, k) in zip(coords, enum):
        if c:
            f.coeffs[tuple_index(t, alg.dim)][k] += c
    return f


def _check_cap(alg: LeibnizSuperalgebra, mod: SuperBimodule, arity: int,
               max_arity: int) -> None:
    if arity > max_arity:
        raise ArityCapError(
            f"arity {arity} exceeds the cap {max_arity}; the cochain space "
            f"has dimension dim M * (dim L)^n = {mod.dim} * {alg.dim}^{arity} "
            f"= {space_dimension(alg, mod, arity)} (raise the cap to proceed)")


def delta_matrix(alg: LeibnizSuperalgebra, mod: SuperBimodule, n: int, parity: int,
                 max_arity: int = DEFAULT_MAX_ARITY) -> RatMatrix:
    """Matrix of the coboundary on the parity component, arity n -> n+1.

    Columns follow the domain enumeration, rows the codomain enumeration;
    applying the matrix to a cochain's coordinates gives the coordinates
    of its coboundary.  Built in one pass over the codomain tuples, as
    sparse rows.
    """
    if n < 0:
        raise ValueError("arity must be >= 0")
    _check_cap(alg, mod, n + 1, max_arity)
    mpar = mod.space.parities
    dom = enumerate_basis(alg, mod, n, parity)
    col = {pair: c for c, pair in enumerate(dom)}
    rows = []
    for T in all_tuples(alg.dim, n + 1):
        want = (parity + alg.space.tuple_parity(T)) & 1
        block = {k: {} for k in range(mod.dim) if mpar[k] == want}
        for S, c, action in coboundary_terms(alg, mod, parity, T):
            if action is None:
                for k, row in block.items():
                    j = col.get((S, k))
                    if j is not None:
                        row[j] = row.get(j, F0) + c
                continue
            for m, image in enumerate(action):
                j = col.get((S, m))
                if j is not None:
                    for k, row in block.items():
                        if image[k]:
                            row[j] = row.get(j, F0) + c * image[k]
        rows.extend(block.values())
    return RatMatrix.from_sparse(len(dom), rows)


def zbh_coords(ker: list[list[Fraction]], prev_matrix: RatMatrix | None,
               dim_c: int) -> tuple[list, list, list]:
    """Coordinates of the Z, B and H bases in one parity and arity.

    ker is a kernel basis of D_n and prev_matrix is D_(n-1) (None for
    n = 0).  Z and B come back in echelon form; the H representatives
    are the Z rows that extend the B rows to a basis of Z, in order.
    """
    zrows = row_space_basis(RatMatrix.from_rows(ker)) if ker else []
    brows = [] if prev_matrix is None else row_space_basis(prev_matrix.transpose())
    return zrows, brows, extend_to_basis(brows, zrows, dim_c)


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
    within the arity cap.
    """
    _check_cap(alg, mod, max_n + 1, max_arity)
    table = CohomologyTable(alg, mod, max_n)
    for parity in (0, 1):
        prev_matrix: RatMatrix | None = None
        dim_b = 0
        for n in range(max_n + 1):
            enum = enumerate_basis(alg, mod, n, parity)
            dim_c = len(enum)
            mat = delta_matrix(alg, mod, n, parity, max_arity=max_arity)
            ker = kernel_basis(mat) if with_bases else None
            dim_z = len(ker) if with_bases else dim_c - rank(mat)
            e = CohomologyEntry(n, parity, dim_c, dim_z, dim_b, dim_z - dim_b)
            if with_bases:
                e.basis_z, e.basis_b, e.basis_h = (
                    [cochain_from_coords(alg, mod, n, parity, v, enum)
                     for v in rows]
                    for rows in zbh_coords(ker, prev_matrix, dim_c))
            table.entries[(n, parity)] = e
            prev_matrix = mat
            # rank-nullity: dim B^(n+1) = rank D_n = dim C^n - dim Z^n
            dim_b = dim_c - dim_z
    return table


def annihilator(alg: LeibnizSuperalgebra, mod: SuperBimodule) -> list[list[Fraction]]:
    """Basis of {m in M_0 : [m, x] = 0 for all x}, as full module vectors.

    Computed by a direct scan of the right-action table, independently of
    the coboundary matrix (whose parity-0 kernel it must equal).
    """
    msp = mod.space
    even = [k for k in range(mod.dim) if msp.parities[k] == 0]
    if not even:
        return []
    rows = []
    for i in range(alg.dim):
        for t in range(mod.dim):
            rows.append([mod.right[k][i][t] for k in even])
    mat = (RatMatrix.from_rows(rows) if rows
           else RatMatrix.zeros(0, len(even)))
    ker = kernel_basis(mat)
    out = []
    for v in ker:
        full = zeros(mod.dim)
        for c, k in zip(v, even):
            full[k] = c
        out.append(full)
    return out


def derivations(alg: LeibnizSuperalgebra, mod: SuperBimodule,
                parity: int, max_arity: int = DEFAULT_MAX_ARITY) -> list[Cochain]:
    """Canonical basis of the 1-cocycles of the given parity."""
    mat = delta_matrix(alg, mod, 1, parity, max_arity=max_arity)
    ker = kernel_basis(mat)
    if not ker:
        return []
    enum = enumerate_basis(alg, mod, 1, parity)
    rows = row_space_basis(RatMatrix.from_rows(ker))
    return [cochain_from_coords(alg, mod, 1, parity, v, enum) for v in rows]


def inner_derivations(alg: LeibnizSuperalgebra, mod: SuperBimodule) -> list[Cochain]:
    """Canonical basis of {x -> [m, x] : m in M_0} as degree-0 1-cochains."""
    msp = mod.space
    enum = enumerate_basis(alg, mod, 1, 0)
    rows = []
    for k in range(mod.dim):
        if msp.parities[k] != 0:
            continue
        g = Cochain.zero(alg, mod, 1, 0)
        for i in range(alg.dim):
            g.coeffs[i] = list(mod.right[k][i])
        rows.append(cochain_coords(g, enum))
    if not rows:
        return []
    reduced = row_space_basis(RatMatrix.from_rows(rows))
    return [cochain_from_coords(alg, mod, 1, 0, v, enum) for v in reduced]


def is_coboundary(f: Cochain, max_arity: int = DEFAULT_MAX_ARITY) -> Cochain | None:
    """Some g with delta(g) = f, or None when f is not a coboundary."""
    if f.arity < 1:
        raise ValueError("arity must be >= 1")
    alg, mod = f.algebra, f.module
    n, parity = f.arity, f.degree
    mat = delta_matrix(alg, mod, n - 1, parity, max_arity=max_arity)
    b = cochain_coords(f, enumerate_basis(alg, mod, n, parity))
    x = solve(mat, b)
    if x is None:
        return None
    return cochain_from_coords(alg, mod, n - 1, parity, x)
