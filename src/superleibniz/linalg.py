"""Exact linear algebra over the rationals.

Matrices are dense with `fractions.Fraction` entries.  Every routine is
deterministic: pivots are the first nonzero entry in column order, never
chosen by magnitude, so golden tests reproduce bit for bit.
"""

from __future__ import annotations

from fractions import Fraction

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


class RatMatrix:
    """Dense rational matrix, row major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: list[list[Fraction]]):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError(f"entry table is not {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, entries: list[list[Fraction]]) -> "RatMatrix":
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        return cls(rows, cols, [list(r) for r in entries])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, [[F0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, [basis_vec(n, i) for i in range(n)])

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.cols, self.rows,
                         [[self.entries[r][c] for r in range(self.rows)]
                          for c in range(self.cols)])

    def mat_vec(self, v: list[Fraction]) -> list[Fraction]:
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != cols {self.cols}")
        out = []
        for row in self.entries:
            s = F0
            for a, b in zip(row, v):
                if a and b:
                    s += a * b
            out.append(s)
        return out

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        ot = other.transpose()
        return RatMatrix(self.rows, other.cols,
                         [[sum((a * b for a, b in zip(row, col)), F0)
                           for col in ot.entries] for row in self.entries])

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols})"


def rref(m: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    The result is the canonical basis of the row space, so two matrices
    have equal row spaces iff their rrefs agree up to trailing zero rows.
    """
    a = [list(r) for r in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if a[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
        inv = F1 / a[r][c]
        if inv != F1:
            a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return RatMatrix(nrows, ncols, a), pivots


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
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = zeros(m.cols)
        v[fc] = F1
        for r, pc in enumerate(pivots):
            v[pc] = -red.entries[r][fc]
        basis.append(v)
    return basis


def solve(m: RatMatrix, b: list[Fraction]) -> list[Fraction] | None:
    """One solution of m*x = b (free variables zero), or None if inconsistent."""
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} != rows {m.rows}")
    aug = RatMatrix(m.rows, m.cols + 1,
                    [list(row) + [bb] for row, bb in zip(m.entries, b)])
    red, pivots = rref(aug)
    if pivots and pivots[-1] == m.cols:
        return None
    x = zeros(m.cols)
    for r, pc in enumerate(pivots):
        x[pc] = red.entries[r][m.cols]
    return x


def row_space_basis(m: RatMatrix) -> list[list[Fraction]]:
    """Canonical (rref) basis of the row space."""
    red, pivots = rref(m)
    return [list(red.entries[r]) for r in range(len(pivots))]


def extend_to_basis(base_rows: list[list[Fraction]], candidates: list[list[Fraction]],
                    cols: int) -> list[list[Fraction]]:
    """Candidates (in order) that enlarge the span of base_rows, greedily."""
    rows = [list(r) for r in base_rows]
    cur = len(row_space_basis(RatMatrix.from_rows(rows))) if rows else 0
    chosen = []
    for cand in candidates:
        trial = rows + [list(cand)]
        r = len(row_space_basis(RatMatrix.from_rows(trial)))
        if r > cur:
            rows = trial
            cur = r
            chosen.append(list(cand))
    return chosen
