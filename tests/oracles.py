"""Independent oracles, deliberately written apart from the library paths.

- bruteforce_deformation_failures: expands the deformation identity with
  truncated polynomial arithmetic over all basis triples, evaluating each
  mu_i from its coefficient table on its own (the library checker instead
  sums per-order Leibniz defects through algebra.leibniz_defect).
- dense_delta: the coboundary as a dense loop over codomain tuples, a
  reference for the library's term walk (cochain.coboundary_terms).  With
  bracket_in_slot_i it is the rejected reading where the substituted
  bracket lands in the deleted-earlier slot; kept to machine-check that
  this convention breaks the complex property.
- expanded_act_right: the right action on cochains written out term by
  term; the library derives it from d_a.
- sympy_rank: dense rank over the rationals through sympy.
- dense_rref and the dense_* consumers built on it: column-by-column
  Gauss-Jordan elimination over every cell of a dense table, the
  reference for the library's sparse row-by-row elimination
  (linalg.rref and the rank, kernel, solve and basis routines on it).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import sympy

from superleibniz.algebra import koszul
from superleibniz.cochain import Cochain, all_tuples, tuple_index
from superleibniz.linalg import F1, RatMatrix, add_scaled, basis_vec, zeros


def _mu(d, i: int, u: list[Fraction], v: list[Fraction]) -> list[Fraction]:
    """mu_i(u, v) read straight off the bracket table (i = 0) or the
    coefficient table of term i; zero past the order."""
    dim = d.algebra.dim
    out = zeros(dim)
    if i > d.order:
        return out
    for a, b in itertools.product(range(dim), repeat=2):
        if u[a] and v[b]:
            value = (d.algebra.table[a][b] if i == 0
                     else d.terms[i - 1].coeffs[a * dim + b])
            add_scaled(out, u[a] * v[b], value)
    return out


def _poly_apply_mu(d, pa: list[list[Fraction]], pb: list[list[Fraction]],
                   cap: int) -> list[list[Fraction]]:
    """mu_t(pa, pb) for vector polynomials pa, pb, truncated past t**cap."""
    dim = d.algebra.dim
    out = [zeros(dim) for _ in range(cap + 1)]
    for i in range(cap + 1):
        for k, u in enumerate(pa):
            if i + k > cap:
                break
            for l, v in enumerate(pb):
                deg = i + k + l
                if deg > cap:
                    break
                add_scaled(out[deg], Fraction(1), _mu(d, i, u, v))
    return out


def bruteforce_deformation_failures(d, cap: int) -> list[tuple[int, tuple[int, ...]]]:
    """(order, basis triple) pairs where the expanded identity fails.

    The identity mu_t(mu_t(a,b),c) = mu_t(a,mu_t(b,c)) - (-1)**(ab)
    mu_t(b,mu_t(a,c)) is expanded coefficient by coefficient up to t**cap.
    """
    dim = d.algebra.dim
    par = d.algebra.space.parities
    failures = []
    for a, b, c in itertools.product(range(dim), repeat=3):
        pa = [basis_vec(dim, a)]
        pb = [basis_vec(dim, b)]
        pc = [basis_vec(dim, c)]
        lhs = _poly_apply_mu(d, _poly_apply_mu(d, pa, pb, cap), pc, cap)
        r1 = _poly_apply_mu(d, pa, _poly_apply_mu(d, pb, pc, cap), cap)
        r2 = _poly_apply_mu(d, pb, _poly_apply_mu(d, pa, pc, cap), cap)
        s = koszul(par[a], par[b])
        for r in range(1, cap + 1):
            diff = [x - y + s * z for x, y, z in zip(lhs[r], r1[r], r2[r])]
            if any(diff):
                failures.append((r, (a, b, c)))
    return failures


def dense_delta(f: Cochain, bracket_in_slot_i: bool = False) -> Cochain:
    """The coboundary written out as one dense loop per codomain tuple.

    An independent reference for the library's term walk.  With
    bracket_in_slot_i the substituted bracket lands in the deleted-earlier
    slot i instead of slot j; the signs are unchanged.
    """
    alg, mod = f.algebra, f.module
    dim, dm = alg.dim, mod.dim
    n = f.arity
    par = alg.space.parities
    out = Cochain.zero(alg, mod, n + 1, f.degree)
    sign_c = -1 if (n + 1) & 1 else 1
    for T in all_tuples(dim, n + 1):
        acc = zeros(dm)
        tpar = [par[t] for t in T]
        for i in range(n + 1):
            pi = tpar[i]
            run = 0
            for j in range(i + 1, n + 1):
                bv = alg.table[T[i]][T[j]]
                e = (i + 1) + pi * run
                run += tpar[j]
                s = -1 if e & 1 else 1
                for k, c in enumerate(bv):
                    if c:
                        if bracket_in_slot_i:
                            tup = T[:i] + (k,) + T[i + 1:j] + T[j + 1:]
                        else:
                            tup = T[:i] + T[i + 1:j] + (k,) + T[j + 1:]
                        add_scaled(acc, c if s > 0 else -c,
                                   f.coeffs[tuple_index(tup, dim)])
        run = f.degree
        for i in range(n):
            pi = tpar[i]
            e = i + pi * run
            run += pi
            s = -1 if e & 1 else 1
            w = f.coeffs[tuple_index(T[:i] + T[i + 1:], dim)]
            for m1, wv in enumerate(w):
                if wv:
                    add_scaled(acc, wv if s > 0 else -wv, mod.left[T[i]][m1])
        w = f.coeffs[tuple_index(T[:n], dim)]
        for m1, wv in enumerate(w):
            if wv:
                add_scaled(acc, wv if sign_c > 0 else -wv, mod.right[m1][T[n]])
        out.coeffs[tuple_index(T, dim)] = acc
    return out


def expanded_act_right(f: Cochain, a: list[Fraction]) -> Cochain:
    """[f,a](y_1,..,y_n) = sum_i (-1)**(a(y_1+..+y_{i-1})) f(..,[a,y_i],..)
                           - (-1)**(af) [a, f(y_1,..,y_n)],

    written out directly rather than through d_a; a must be homogeneous.
    """
    alg, mod = f.algebra, f.module
    dim = alg.dim
    pa = alg.space.vector_parity(a) or 0
    n = f.arity
    par = alg.space.parities
    out = Cochain.zero(alg, mod, n, (f.degree + pa) & 1)
    bcols = [alg.bracket_vec(a, basis_vec(dim, t)) for t in range(dim)]
    sgn_bracket = koszul(pa, f.degree)
    for T in all_tuples(dim, n):
        acc = zeros(mod.dim)
        run = 0
        for i in range(n):
            e = pa * run
            run += par[T[i]]
            s = -1 if e & 1 else 1
            for k, c in enumerate(bcols[T[i]]):
                if c:
                    w = f.value(T[:i] + (k,) + T[i + 1:])
                    add_scaled(acc, c if s > 0 else -c, w)
        add_scaled(acc, -sgn_bracket, mod.act_left_vec(a, f.value(T)))
        out.coeffs[tuple_index(T, dim)] = acc
    return out


def sympy_rank(m: RatMatrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    sm = sympy.Matrix(m.rows, m.cols,
                      [sympy.Rational(x.numerator, x.denominator)
                       for row in m.entries for x in row])
    return sm.rank()


def intertwining_defects(d_from, d_to, iso, cap: int) -> list[tuple[int, tuple[int, int]]]:
    """Orders/pairs where nu_t(Psi a, Psi b) != Psi(mu_t(a, b)) up to t**cap.

    Direct truncated-series evaluation of the defining property of a
    formal isomorphism from d_from to d_to; empty means iso intertwines.
    """
    dim = d_from.algebra.dim
    psis = [iso.matrix(i) for i in range(cap + 1)]
    out = []
    for a in range(dim):
        for b in range(dim):
            pa = [psis[k][a] for k in range(cap + 1)]
            pb = [psis[k][b] for k in range(cap + 1)]
            lhs = _poly_apply_mu(d_to, pa, pb, cap)
            q = _poly_apply_mu(d_from, [basis_vec(dim, a)],
                               [basis_vec(dim, b)], cap)
            for r in range(cap + 1):
                rhs = zeros(dim)
                for i in range(r + 1):
                    psi = psis[i]
                    for t, c in enumerate(q[r - i]):
                        if c:
                            add_scaled(rhs, c, psi[t])
                if lhs[r] != rhs:
                    out.append((r, (a, b)))
    return out


def dense_rref(m: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """Reduced row echelon form and pivot columns, by dense Gauss-Jordan."""
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


def dense_kernel_basis(m: RatMatrix) -> list[list[Fraction]]:
    red, pivots = dense_rref(m)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = zeros(m.cols)
        v[fc] = F1
        for r, pc in enumerate(pivots):
            v[pc] = -red.entries[r][fc]
        basis.append(v)
    return basis


def dense_solve(m: RatMatrix, b: list[Fraction]) -> list[Fraction] | None:
    aug = RatMatrix(m.rows, m.cols + 1,
                    [list(row) + [bb] for row, bb in zip(m.entries, b)])
    red, pivots = dense_rref(aug)
    if pivots and pivots[-1] == m.cols:
        return None
    x = zeros(m.cols)
    for r, pc in enumerate(pivots):
        x[pc] = red.entries[r][m.cols]
    return x


def dense_row_space_basis(m: RatMatrix) -> list[list[Fraction]]:
    red, pivots = dense_rref(m)
    return [list(red.entries[r]) for r in range(len(pivots))]


def dense_extend_to_basis(base_rows: list[list[Fraction]],
                          candidates: list[list[Fraction]],
                          cols: int) -> list[list[Fraction]]:
    """Greedy span extension, one full dense rref per candidate."""
    rows = [list(r) for r in base_rows]
    cur = len(dense_rref(RatMatrix(len(rows), cols, rows))[1])
    chosen = []
    for cand in candidates:
        trial = rows + [list(cand)]
        r = len(dense_rref(RatMatrix(len(trial), cols, trial))[1])
        if r > cur:
            rows, cur = trial, r
            chosen.append(list(cand))
    return chosen
