"""Exact linear algebra over the rationals.

Vectors are dense lists of `fractions.Fraction`.  Matrices store sparse
rows, one {column: coefficient} dict per row holding the nonzeros only;
a dense view is built on request.  One elimination routine serves rank,
kernel, solve and bases.  Its result is the canonical reduced row
echelon form, which depends only on the row space, never on the order
in which rows are reduced, so golden tests reproduce bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

Scalar = Fraction

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


SparseRow = dict[int, Fraction]


def _sparse(v: list[Fraction]) -> SparseRow:
    return {j: x for j, x in enumerate(v) if x}


def _dense(row: SparseRow, n: int) -> list[Fraction]:
    v = [F0] * n
    for j, x in row.items():
        v[j] = x
    return v


class RatMatrix:
    """Rational matrix stored as sparse rows ({column: nonzero coefficient})."""

    __slots__ = ("rows", "cols", "sparse_rows", "_dense")

    def __init__(self, rows: int, cols: int, entries: list[list[Fraction]]):
        """A matrix from a dense row-major table."""
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError(f"entry table is not {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.sparse_rows = [_sparse(r) for r in entries]
        self._dense = None

    @classmethod
    def from_rows(cls, entries: list[list[Fraction]]) -> "RatMatrix":
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        return cls(rows, cols, entries)

    @classmethod
    def from_sparse(cls, cols: int, sparse_rows: list[SparseRow]) -> "RatMatrix":
        """A matrix from {column: coefficient} rows; zero coefficients are dropped."""
        if any(not 0 <= j < cols for row in sparse_rows for j in row):
            raise ValueError(f"column index outside 0..{cols - 1}")
        m = cls.__new__(cls)
        m.rows, m.cols, m._dense = len(sparse_rows), cols, None
        m.sparse_rows = [{j: x for j, x in row.items() if x} for row in sparse_rows]
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls.from_sparse(cols, [{} for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls.from_sparse(n, [{i: F1} for i in range(n)])

    @property
    def entries(self) -> list[list[Fraction]]:
        """Dense row-major table, built on first access and cached; read-only."""
        if self._dense is None:
            self._dense = [_dense(r, self.cols) for r in self.sparse_rows]
        return self._dense

    def transpose(self) -> "RatMatrix":
        out: list[SparseRow] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.sparse_rows):
            for j, x in row.items():
                out[j][i] = x
        return RatMatrix.from_sparse(self.rows, out)

    def mat_vec(self, v: list[Fraction]) -> list[Fraction]:
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != cols {self.cols}")
        return [sum((x * v[j] for j, x in row.items() if v[j]), F0)
                for row in self.sparse_rows]

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        out = []
        for row in self.sparse_rows:
            acc: SparseRow = {}
            for k, a in row.items():
                for j, b in other.sparse_rows[k].items():
                    acc[j] = acc.get(j, F0) + a * b
            out.append(acc)
        return RatMatrix.from_sparse(other.cols, out)

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.sparse_rows == other.sparse_rows)

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols})"


def _reduce(row: SparseRow, pivots: dict[int, SparseRow]) -> None:
    """Subtract pivot rows from row, in place, until no pivot column is left.

    pivots maps each pivot column c to a row whose leftmost entry is a 1
    at c, so clearing column c only touches columns right of c: the
    pivot columns are cleared in ascending order, each at most once.
    """
    todo = [c for c in row if c in pivots]
    heapify(todo)
    while todo:
        c = heappop(todo)
        f = row.pop(c, None)
        if f is None:   # cancelled since it was queued
            continue
        for j, y in pivots[c].items():
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


def _insert(row: SparseRow, pivots: dict[int, SparseRow]) -> bool:
    """Reduce row (in place) against pivots; a nonzero remainder becomes a
    new pivot row, scaled to a leading 1.  True iff the rank grew."""
    _reduce(row, pivots)
    if not row:
        return False
    c = min(row)
    inv = F1 / row[c]
    pivots[c] = {j: x * inv for j, x in row.items()} if inv != F1 else row
    return True


def rref(m: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    The result is the canonical basis of the row space, so two matrices
    have equal row spaces iff their rrefs agree up to trailing zero rows.
    Rows are reduced one by one against the pivot rows so far, sparsest
    first (less fill-in), each new pivot being the remainder's leftmost
    column; then back-substitution makes the form reduced.
    """
    pivots: dict[int, SparseRow] = {}
    for row in sorted(m.sparse_rows, key=len):
        _insert(dict(row), pivots)
    # right to left: the pivot rows right of c are already reduced, so one
    # pass clears every other pivot column from row c
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        del row[c]
        _reduce(row, pivots)
        row[c] = F1
    order = sorted(pivots)
    red = [pivots[c] for c in order] + [{} for _ in range(m.rows - len(order))]
    return RatMatrix.from_sparse(m.cols, red), order


def rank(m: RatMatrix) -> int:
    _, pivots = rref(m)
    return len(pivots)


def kernel_basis(m: RatMatrix) -> list[list[Fraction]]:
    """Basis of the right null space, one vector per free column.

    Free columns are visited in ascending index and each basis vector has
    a 1 in its free coordinate, which makes the result canonical.
    """
    red, pivots = rref(m)
    pivot_set = set(pivots)
    basis = {fc: basis_vec(m.cols, fc) for fc in range(m.cols) if fc not in pivot_set}
    for pc, row in zip(pivots, red.sparse_rows):
        for j, x in row.items():
            if j != pc:
                basis[j][pc] = -x
    return list(basis.values())


def solve(m: RatMatrix, b: list[Fraction]) -> list[Fraction] | None:
    """One solution of m*x = b (free variables zero), or None if inconsistent."""
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} != rows {m.rows}")
    n = m.cols
    aug = [dict(row) for row in m.sparse_rows]
    for row, bb in zip(aug, b):
        if bb:
            row[n] = bb
    red, pivots = rref(RatMatrix.from_sparse(n + 1, aug))
    if pivots and pivots[-1] == n:
        return None
    x = zeros(n)
    for pc, row in zip(pivots, red.sparse_rows):
        x[pc] = row.get(n, F0)
    return x


def row_space_basis(m: RatMatrix) -> list[list[Fraction]]:
    """Canonical (rref) basis of the row space."""
    red, pivots = rref(m)
    return [_dense(row, m.cols) for row in red.sparse_rows[:len(pivots)]]


def extend_to_basis(base_rows: list[list[Fraction]], candidates: list[list[Fraction]],
                    cols: int) -> list[list[Fraction]]:
    """Candidates (in order) that enlarge the span of base_rows, greedily.

    One incremental elimination: each candidate is reduced against the
    pivot rows of the base and of the candidates chosen before it.
    """
    pivots: dict[int, SparseRow] = {}
    for r in base_rows:
        _insert(_sparse(r), pivots)
    return [list(cand) for cand in candidates if _insert(_sparse(cand), pivots)]
