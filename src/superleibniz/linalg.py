"""Exact linear algebra over the rationals.

The structure tables hold dense lists of `fractions.Fraction`;
scale_to_ints turns them into sparse int rows over one denominator,
once per object (an algebra, the semidirect table of a module check, any
other module, a series built from cochains), for the coboundary walk,
the Leibniz defect and the terms of a series.
Everything else here is sparse: a matrix stores one {column:
coefficient} dict per row holding the nonzeros only (ints or
Fractions), and kernel_basis, row_space_basis, extend_to_basis and solve
take and return such rows ({index: nonzero}); .entries builds a dense
view on request.  One elimination routine serves rank, kernel, solve and
bases.  It reduces primitive int rows fraction-free (int rows, such as a
coboundary matrix built on the integral structure and an int right-hand
side, go in as they are); rank reads its forward pass only.  Single-entry
rows cost no arithmetic: the forward pass visits rows sparsest first, so
it takes each one as the unit pivot e_c or drops it, and clearing a
column against a unit pivot only removes that entry.  The rows
it returns are reduced, and written as Fractions, on first read: the
canonical reduced row echelon form, which depends only on the row space,
never on the order in which rows are reduced, so golden tests reproduce
bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

F0 = Fraction(0)
F1 = Fraction(1)


def zeros(n: int) -> list[Fraction]:
    return [F0] * n


def basis_vec(n: int, i: int) -> list[Fraction]:
    v = [F0] * n
    v[i] = F1
    return v


def vec_is_zero(v: list[Fraction]) -> bool:
    return all(not a for a in v)


def add_scaled(acc: list[Fraction], c: Fraction, v: list[Fraction]) -> None:
    """acc += c*v, in place; skips zero summands."""
    if not c:
        return
    for k, a in enumerate(v):
        if a:
            acc[k] += c * a


def lin_comb(cols: list[list[Fraction]], v: list[Fraction], n: int) -> list[Fraction]:
    """sum_j v[j] cols[j], length n: the map with image columns cols, at v."""
    out = [F0] * n
    for j, c in enumerate(v):
        if c:
            add_scaled(out, c, cols[j])
    return out


def bilinear(table, u: list[Fraction], v: list[Fraction], n: int) -> list[Fraction]:
    """sum_ij u[i] v[j] table[i][j], length n: structure constants at (u, v)."""
    out = [F0] * n
    vsupp = [(j, b) for j, b in enumerate(v) if b]
    for i, a in enumerate(u):
        if a:
            row = table[i]
            for j, b in vsupp:
                add_scaled(out, a * b, row[j])
    return out


def scale_to_ints(tables) -> tuple[int, list[list[list[tuple[int, int]]]]]:
    """Clear denominators once: (D, scaled) with D the lcm of the
    denominators of every entry of every vector in tables (a list of
    lists of vectors), and scaled the same tables with each vector
    replaced by its nonzeros as (index, D*entry) pairs of ints.

    A sum of products of one entry from each of several scaled families
    is then an exact integer over the product of their D's, so loops that
    only multiply and add run in ints and divide once at the end.  The
    shared zero F0, which zeros() fills tables with, costs one identity
    test, not a truth test.
    """
    nonzeros = [[[(k, x) for k, x in enumerate(v) if x is not F0 and x] for v in t]
                for t in tables]
    d = lcm(*(x.denominator for t in nonzeros for v in t for _, x in v))
    return d, [[[(k, x.numerator * (d // x.denominator)) for k, x in v] for v in t]
               for t in nonzeros]


def ratio_str(x, den: int) -> str:
    """str(Fraction(x, den)) for an int x over a positive int den, from one
    gcd and without the Fraction; any x is written as str(x) over den 1."""
    if den == 1:
        return str(x)
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


SparseRow = dict[int, Fraction]


class RatMatrix:
    """Rational matrix stored as sparse rows ({column: nonzero coefficient}),
    which a lazy matrix (see _of) makes on their first read."""

    __slots__ = ("rows", "cols", "_sparse", "_entries")

    def __init__(self, cols: int, sparse_rows: list[SparseRow]):
        """A matrix from {column: coefficient} rows; zero coefficients are dropped.

        The matrix takes the rows over without copying them, so callers
        pass rows that nothing else holds.
        """
        used = [row for row in sparse_rows if row]
        if used and (min(map(min, used)) < 0 or max(map(max, used)) >= cols):
            raise ValueError(f"column index outside 0..{cols - 1}")
        self.rows, self.cols, self._entries = len(sparse_rows), cols, None
        self._sparse = [row if all(row.values()) else
                        {j: x for j, x in row.items() if x} for row in sparse_rows]

    @classmethod
    def _of(cls, cols: int, sparse_rows, rows: int | None = None) -> "RatMatrix":
        """The constructor without its checks, for rows that hold nonzero
        coefficients in columns 0..cols-1 only by construction.  A lazy
        matrix passes a function and the row count: the function makes
        the rows when sparse_rows (so .entries, == or transpose) is first read."""
        m = cls.__new__(cls)
        m.rows = len(sparse_rows) if rows is None else rows
        m.cols, m._sparse, m._entries = cols, sparse_rows, None
        return m

    @property
    def sparse_rows(self) -> list[SparseRow]:
        if callable(self._sparse):
            self._sparse = self._sparse()
        return self._sparse

    @property
    def entries(self) -> list[list[Fraction]]:
        """Dense row-major table, built on first access and cached; read-only."""
        if self._entries is None:
            self._entries = [[F0] * self.cols for _ in self.sparse_rows]
            for dense, row in zip(self._entries, self.sparse_rows):
                for j, x in row.items():
                    dense[j] = x
        return self._entries

    def transpose(self) -> "RatMatrix":
        out: list[SparseRow] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.sparse_rows):
            for j, x in row.items():
                out[j][i] = x
        return RatMatrix._of(self.rows, out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.sparse_rows == other.sparse_rows)

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols})"


def _int_row(row: SparseRow) -> dict[int, int]:
    """row times the lcm of its denominators (an int row is copied as is)."""
    if Fraction not in map(type, row.values()):
        return dict(row)
    d = lcm(*(x.denominator for x in row.values()))
    return {j: x.numerator * (d // x.denominator) for j, x in row.items()}


def _insert(row: dict[int, int], pivots: dict[int, dict[int, int]]) -> bool:
    """Reduce the int row (in place) against pivots, fraction-free; a
    nonzero remainder, divided by its content and with its leftmost entry
    made positive, becomes the pivot row of that column.  True iff it did.

    pivots maps each pivot column c to such a row, leftmost entry a at c.
    Clearing c sets row := (a/g)*row - (f/g)*pivot, f the row's entry at c
    and g = gcd(a, f), so only columns right of c change: the pivot
    columns are cleared in ascending order, each at most once.  A pivot
    row of length 1 is the unit row e_c (primitive, leading entry
    positive), and clearing c against it is only the removal of f.
    """
    todo = [c for c in row if c in pivots]
    heapify(todo)
    while todo:
        c = heappop(todo)
        f = row.pop(c, None)
        if f is None:   # cancelled since it was queued
            continue
        piv = pivots[c]
        if len(piv) == 1:   # the unit row e_c: popping f cleared c
            continue
        g = gcd(piv[c], f)
        a, f = piv[c] // g, f // g
        if a != 1:
            for j in row:
                row[j] *= a
        for j, y in piv.items():
            if j == c:
                continue
            x = row.get(j)
            if x is None:
                row[j] = -f * y
                if j in pivots:
                    heappush(todo, j)
            else:
                x -= f * y
                if x:
                    row[j] = x
                else:
                    del row[j]
    if not row:
        return False
    c = min(row)
    g = gcd(*row.values()) if row[c] > 0 else -gcd(*row.values())
    pivots[c] = {j: x // g for j, x in row.items()} if g != 1 else row
    return True


def rref(m: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    The result is the canonical basis of the row space, so two matrices
    have equal row spaces iff their rrefs agree up to trailing zero rows.
    Int rows are reduced fraction-free against the pivot rows so far,
    sparsest first (less fill-in), which fixes the pivot columns.  While
    single-entry rows {c: x} are visited, every pivot so far is a unit
    row, so such a row spans e_c: it becomes the pivot of c if c has none
    and is dropped otherwise, without _int_row or _insert.  Only that
    order makes this right; against a non-unit pivot row (as
    extend_to_basis can meet) a row {c: x} may enlarge the span.  The
    returned matrix is lazy: on first read, back-substitution makes the
    form reduced, and each pivot row is divided by its leading entry.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(filter(None, m.sparse_rows), key=len):
        if len(row) > 1:
            _insert(_int_row(row), pivots)
        else:   # sparsest first: every pivot so far is a unit row
            c, = row
            if c not in pivots:
                pivots[c] = {c: 1}
    order = sorted(pivots)

    def reduce() -> list[SparseRow]:
        # right to left: the pivot rows right of c are already reduced, so
        # one pass clears every other pivot column from row c
        for c in reversed(order):
            _insert(pivots.pop(c), pivots)
        return [{j: F1 if j == c else Fraction(x, row[c]) for j, x in row.items()}
                for c, row in sorted(pivots.items())] + [{} for _ in range(m.rows - len(order))]

    return RatMatrix._of(m.cols, reduce, m.rows), order


def rank(m: RatMatrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: RatMatrix) -> list[SparseRow]:
    """Basis of the right null space as sparse rows, one per free column.

    Free columns are visited in ascending index and each basis vector has
    a 1 in its free coordinate, which makes the result canonical.
    """
    red, pivots = rref(m)
    pivot_set = set(pivots)
    basis = {fc: {fc: F1} for fc in range(m.cols) if fc not in pivot_set}
    for pc, row in zip(pivots, red.sparse_rows):
        for j, x in row.items():
            if j != pc:
                basis[j][pc] = -x
    return list(basis.values())


def solve(m: RatMatrix, b: SparseRow) -> SparseRow | None:
    """One solution x of m*x = b (free variables zero), or None if
    inconsistent; b and x are {index: coefficient}, x holding nonzeros only."""
    if b and (min(b) < 0 or max(b) >= m.rows):
        raise ValueError(f"right-hand side index outside 0..{m.rows - 1}")
    n = m.cols
    aug = [dict(row) for row in m.sparse_rows]
    for i, bb in b.items():
        if bb:
            aug[i][n] = bb
    red, pivots = rref(RatMatrix._of(n + 1, aug))
    if pivots and pivots[-1] == n:
        return None
    return {pc: row[n] for pc, row in zip(pivots, red.sparse_rows) if n in row}


def row_space_basis(m: RatMatrix) -> list[SparseRow]:
    """Canonical (rref) basis of the row space, as sparse rows."""
    red, pivots = rref(m)
    return red.sparse_rows[:len(pivots)]


def extend_to_basis(base_rows: list[SparseRow],
                    candidates: list[SparseRow]) -> list[SparseRow]:
    """Candidates (in order) that enlarge the span of base_rows, greedily;
    every row is sparse, with nonzero coefficients only.

    One incremental elimination: each candidate is reduced against the
    pivot rows of the base and of the candidates chosen before it.
    """
    pivots: dict[int, dict[int, int]] = {}
    for r in base_rows:
        _insert(_int_row(r), pivots)
    return [cand for cand in candidates if _insert(_int_row(cand), pivots)]
