"""Independent oracles, deliberately written apart from the library paths.

- bruteforce_deformation_failures: expands the deformation identity with
  truncated polynomial arithmetic over all basis triples, evaluating each
  mu_i from its coefficient table on its own (the library checker instead
  sums per-order Leibniz defects in ints over one common denominator,
  through algebra.leibniz_defect).
- fraction_leibniz_defect, fraction_residual and fraction_transform: the
  Leibniz defect, the order-r residual and the transform by a formal
  isomorphism summed term by term in Fractions, the references for the
  library's fraction-free kernels (algebra.leibniz_defect,
  deformation.deformation_residual and deformation.transform).
- triple_walk_leibniz_defect: the fraction-free Leibniz defect walked
  over every basis triple, empty entries included; the exact int
  reference for algebra.leibniz_defect, which visits nonzeros only.
- dense_delta: the coboundary as a dense loop over codomain tuples, a
  reference for the library's term walk (cochain.coboundary_terms).  With
  bracket_in_slot_i it is the rejected reading where the substituted
  bracket lands in the deleted-earlier slot; kept to machine-check that
  this convention breaks the complex property.
- the operator calculus (d_op, restrict, act_left, act_right,
  cochain_space_module, curry, uncurry_value, cochain_eval) and
  annihilator: the paper's proof machinery, which no library computation
  needs; the lemma tests check it against the library's coboundary.
  basis_cochain and identity_map build the cochains these tests start from.
- expanded_act_right: the right action on cochains written out term by
  term; act_right derives it from d_a.
- dense_check_axioms: the module axioms evaluated side by side with the
  dense bilinear helper, the reference for SuperBimodule.check_axioms
  (the Leibniz defect of the semidirect product).
- dense_grading_violations and dense_is_lie: the grading and graded
  antisymmetry read off the dense Fraction tables, the references for
  algebra.grading_violations and LeibnizSuperalgebra.is_lie, which read
  the structure's int form (LeibnizSuperalgebra.integral,
  SuperBimodule.scaled) and write each coefficient as text.
- sympy_rank: dense rank over the rationals through sympy.
- truth_scale_to_ints: linalg.scale_to_ints with a truth test of every
  entry and a Fraction product per nonzero, the reference for its
  identity skip of the shared zero F0.
- dense_rref and the dense_* consumers built on it: column-by-column
  Gauss-Jordan elimination over every cell of a dense table, the
  reference for the library's sparse row-by-row elimination
  (linalg.rref and the rank, kernel, solve and basis routines on it).
  Like those routines they take and return sparse rows; sparse gives a
  dense vector's nonzeros as one.
- fraction_rref, fraction_solve and fraction_extend_to_basis: the same
  sparse row-by-row elimination as the library's, with every multiply-add
  in Fractions and each pivot row scaled to a leading 1 as it is found;
  the reference for the library's fraction-free int engine, and the
  canonical solve where dense_solve would take seconds.
- fraction_delta_matrix: the coboundary matrix summed in Fractions over
  the unscaled structure tables, one codomain tuple at a time through
  tuple_coboundary_terms (which tests every slot pair and every action
  at that tuple), with a (tuple, module index) column lookup; the
  reference for the library's walk over the nonzero structure constants
  scaled by one common denominator (cochain.coboundary_terms) and its
  per-tuple offset encoding.
- mat_vec, matmul, zero_matrix and identity_matrix: matrix arithmetic on
  RatMatrix that only the tests need.
- bracket_vec, scale and inverse: the bracket of two coefficient vectors,
  a multiple of a cochain and the inverse of a formal isomorphism; the
  operator calculus, fraction_transform and the lemma tests use them,
  and no library computation does.
- extensions_equivalent: the oracle of the extension theorem.  It finds
  f with delta(f) = h1 - h2 through is_coboundary and checks that
  (x,m) -> (x, m + f(x)) is an isomorphism of the totals.
- enumerate_basis, cochain_from_coords and cochain_coords: the
  coordinate contract of cochain spaces (tuples in lexicographic order,
  then the admissible module indices), stated as a list of (tuple, module
  index) pairs apart from the library's per-tuple offset encoding
  (cohomology.Coboundary.layout); fraction_delta_matrix and the golden bases
  are read in it.
- is_coboundary, cochain_preimage, is_homogeneous, iso_matrix,
  dense_terms and parse_rational: the dense face of the library's sparse
  routines (cohomology.Coboundary.preimage, the homogeneity that fileio
  checks per entry, the terms of a Series and fileio.rational_parts),
  which only the tests need.
- dense_deformation_from_doc and dense_mu_ints: the deformation file read
  into one dense Fraction cochain per power of t (a zero one per missing
  term), and those terms with the bracket scaled together to ints by
  scale_to_ints; the reference for the series that fileio builds from
  all of a file's terms at once.
- dense_scaled_structure: SuperBimodule.scaled as one scale_to_ints
  scan of the bracket and both actions, for any module; the reference
  for the adjoint module's slices of the algebra's integral table.
- fraction_intertwining_defect: the order-r intertwining defect from the
  polynomial expansion, the reference right-hand side of equiv's solves.
- fraction_describe: a defect v over an int denominator written through
  one Fraction per entry, the reference for SuperSpace.describe, which
  writes each nonzero from its int.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm

import sympy

from superleibniz.algebra import (EVEN, CheckReport, LeibnizSuperalgebra,
                                  SuperBimodule, SuperSpace, koszul)
from superleibniz.cochain import Cochain, all_tuples, tuple_index
from superleibniz.cohomology import Coboundary
from superleibniz.deformation import FormalIsomorphism
from superleibniz.extension import Extension
from superleibniz.fileio import cochain_from_doc, rational_parts
from superleibniz.linalg import (F0, F1, RatMatrix, add_scaled, basis_vec, bilinear,
                                 kernel_basis, lin_comb, scale_to_ints, zeros)


def _mu(mus: list, i: int, u: list[Fraction], v: list[Fraction]) -> list[Fraction]:
    """mu_i(u, v) read straight off the nested table mus[i] (mus as
    _mu_tables gives it); zero past the order."""
    dim = len(u)
    out = zeros(dim)
    if i >= len(mus):
        return out
    for a, b in itertools.product(range(dim), repeat=2):
        if u[a] and v[b]:
            add_scaled(out, u[a] * v[b], mus[i][a][b])
    return out


def _poly_apply_mu(mus: list, pa: list[list[Fraction]], pb: list[list[Fraction]],
                   cap: int) -> list[list[Fraction]]:
    """mu_t(pa, pb) for vector polynomials pa, pb, truncated past t**cap;
    mus as _mu_tables gives it."""
    dim = len(mus[0])
    out = [zeros(dim) for _ in range(cap + 1)]
    for i in range(cap + 1):
        for k, u in enumerate(pa):
            if i + k > cap:
                break
            for l, v in enumerate(pb):
                deg = i + k + l
                if deg > cap:
                    break
                add_scaled(out[deg], Fraction(1), _mu(mus, i, u, v))
    return out


def bruteforce_deformation_failures(d, cap: int) -> list[tuple[int, tuple[int, ...]]]:
    """(order, basis triple) pairs where the expanded identity fails.

    The identity mu_t(mu_t(a,b),c) = mu_t(a,mu_t(b,c)) - (-1)**(ab)
    mu_t(b,mu_t(a,c)) is expanded coefficient by coefficient up to t**cap.
    """
    dim = d.algebra.dim
    par = d.algebra.space.parities
    mus = _mu_tables(d)
    failures = []
    for a, b, c in itertools.product(range(dim), repeat=3):
        pa = [basis_vec(dim, a)]
        pb = [basis_vec(dim, b)]
        pc = [basis_vec(dim, c)]
        lhs = _poly_apply_mu(mus, _poly_apply_mu(mus, pa, pb, cap), pc, cap)
        r1 = _poly_apply_mu(mus, pa, _poly_apply_mu(mus, pb, pc, cap), cap)
        r2 = _poly_apply_mu(mus, pb, _poly_apply_mu(mus, pa, pc, cap), cap)
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
    pa = vector_parity(alg.space, a) or 0
    n = f.arity
    par = alg.space.parities
    out = Cochain.zero(alg, mod, n, (f.degree + pa) & 1)
    bcols = [bracket_vec(alg, a, basis_vec(dim, t)) for t in range(dim)]
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
        add_scaled(acc, -sgn_bracket, bilinear(mod.left, a, f.value(T), mod.dim))
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
    psis = [iso_matrix(iso, i) for i in range(cap + 1)]
    mus_from, mus_to = _mu_tables(d_from), _mu_tables(d_to)
    out = []
    for a in range(dim):
        for b in range(dim):
            pa = [psis[k][a] for k in range(cap + 1)]
            pb = [psis[k][b] for k in range(cap + 1)]
            lhs = _poly_apply_mu(mus_to, pa, pb, cap)
            q = _poly_apply_mu(mus_from, [basis_vec(dim, a)],
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


def truth_scale_to_ints(tables) -> tuple[int, list]:
    """linalg.scale_to_ints by the plain truthiness scan of every entry."""
    d = lcm(*(Fraction(x).denominator for t in tables for v in t for x in v if x))
    return d, [[[(k, int(x * d)) for k, x in enumerate(v) if x] for v in t] for t in tables]


def sparse(v: list[Fraction]) -> dict:
    """The nonzeros of a dense vector as {index: value}."""
    return {j: x for j, x in enumerate(v) if x}


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
    return RatMatrix(ncols, [sparse(row) for row in a]), pivots


def dense_kernel_basis(m: RatMatrix) -> list[dict]:
    red, pivots = dense_rref(m)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = zeros(m.cols)
        v[fc] = F1
        for r, pc in enumerate(pivots):
            v[pc] = -red.entries[r][fc]
        basis.append(sparse(v))
    return basis


def dense_solve(m: RatMatrix, b: dict) -> dict | None:
    rhs = [b.get(i, F0) for i in range(m.rows)]
    aug = RatMatrix(m.cols + 1, [sparse(row + [bb]) for row, bb in zip(m.entries, rhs)])
    red, pivots = dense_rref(aug)
    if pivots and pivots[-1] == m.cols:
        return None
    x = zeros(m.cols)
    for r, pc in enumerate(pivots):
        x[pc] = red.entries[r][m.cols]
    return sparse(x)


def dense_row_space_basis(m: RatMatrix) -> list[dict]:
    red, pivots = dense_rref(m)
    return [sparse(red.entries[r]) for r in range(len(pivots))]


def dense_extend_to_basis(base_rows: list[dict], candidates: list[dict],
                          cols: int) -> list[dict]:
    """Greedy span extension, one full dense rref per candidate."""
    rows = list(base_rows)
    cur = len(dense_rref(RatMatrix(cols, rows))[1])
    chosen = []
    for cand in candidates:
        trial = rows + [cand]
        r = len(dense_rref(RatMatrix(cols, trial))[1])
        if r > cur:
            rows, cur = trial, r
            chosen.append(cand)
    return chosen


def mat_vec(m: RatMatrix, v: dict) -> dict:
    """m*v for a sparse v, as a sparse row."""
    if v and (min(v) < 0 or max(v) >= m.cols):
        raise ValueError(f"vector index outside 0..{m.cols - 1}")
    out = {i: sum((x * v[j] for j, x in row.items() if j in v), F0)
           for i, row in enumerate(m.sparse_rows)}
    return {i: x for i, x in out.items() if x}


def matmul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    if a.cols != b.rows:
        raise ValueError("shape mismatch in matmul")
    out = []
    for row in a.sparse_rows:
        acc: dict[int, Fraction] = {}
        for k, x in row.items():
            for j, y in b.sparse_rows[k].items():
                acc[j] = acc.get(j, F0) + x * y
        out.append(acc)
    return RatMatrix(b.cols, out)


def zero_matrix(rows: int, cols: int) -> RatMatrix:
    return RatMatrix(cols, [{} for _ in range(rows)])


def identity_matrix(n: int) -> RatMatrix:
    return RatMatrix(n, [{i: F1} for i in range(n)])


def _fraction_reduce(row: dict, pivots: dict) -> None:
    """Subtract pivot rows (each with a leading 1) from row, in place,
    until no pivot column is left, in ascending column order."""
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


def _fraction_insert(row: dict, pivots: dict) -> bool:
    _fraction_reduce(row, pivots)
    if not row:
        return False
    c = min(row)
    inv = F1 / row[c]
    pivots[c] = {j: x * inv for j, x in row.items()}
    return True


def fraction_rref(m: RatMatrix) -> tuple[RatMatrix, list[int]]:
    pivots: dict[int, dict] = {}
    for row in sorted(m.sparse_rows, key=len):
        _fraction_insert({j: Fraction(x) for j, x in row.items()}, pivots)
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        del row[c]
        _fraction_reduce(row, pivots)
        row[c] = F1
    order = sorted(pivots)
    red = [pivots[c] for c in order] + [{} for _ in range(m.rows - len(order))]
    return RatMatrix(m.cols, red), order


def fraction_solve(m: RatMatrix, b: dict) -> dict | None:
    """dense_solve through fraction_rref, for matrices too large for the
    dense elimination: one solution (free variables zero), or None."""
    n = m.cols
    aug = [dict(row) for row in m.sparse_rows]
    for i, c in b.items():
        aug[i][n] = c
    red, pivots = fraction_rref(RatMatrix(n + 1, aug))
    if pivots and pivots[-1] == n:
        return None
    return {pc: row[n] for pc, row in zip(pivots, red.sparse_rows) if n in row}


def fraction_extend_to_basis(base_rows: list[dict], candidates: list[dict]) -> list[dict]:
    pivots: dict[int, dict] = {}
    for r in base_rows:
        _fraction_insert({j: Fraction(x) for j, x in r.items()}, pivots)
    return [cand for cand in candidates
            if _fraction_insert({j: Fraction(x) for j, x in cand.items()}, pivots)]


def dense_scaled_structure(mod: SuperBimodule) -> tuple[int, list, list, list]:
    """(D, table, left, right) as SuperBimodule.scaled lays it out,
    from one scan of the bracket and both action tables of mod."""
    da = mod.algebra.dim
    right = [[mod.right[m][x] for m in range(mod.dim)] for x in range(da)]
    d, (table, *actions) = scale_to_ints(
        [[v for row in mod.algebra.table for v in row], *mod.left, *right])
    actions = [act if any(act) else [] for act in actions]
    return d, table, actions[:da], actions[da:]


def tuple_coboundary_terms(alg: LeibnizSuperalgebra, structure: tuple, degree: int,
                           T: tuple[int, ...]):
    """The terms of D*(delta f)(T), f of degree `degree` and arity len(T)-1,
    found by testing every slot pair and every action at the one tuple T.

    structure is (D, table, left, right) as SuperBimodule.scaled lays
    it out.  Yields (S, scalar, action): with action None the term is
    scalar * f(S); otherwise action[m] lists the nonzeros (k, coefficient)
    of the image of m_m, and the term is scalar * sum_m f(S)[m] * action[m].
    """
    n = len(T) - 1
    _, table, left, right = structure
    tpar = [alg.space.parities[t] for t in T]
    # bracket-substitution terms: delete slot i, bracket lands in slot j
    for i in range(n + 1):
        pi = tpar[i]
        run = 0
        for j in range(i + 1, n + 1):
            e = (i + 1) + pi * run
            run += tpar[j]
            image = table[T[i] * alg.dim + T[j]]
            if image:
                head = T[:i] + T[i + 1:j]
                tail = T[j + 1:]
                for k, c in image:
                    yield head + (k,) + tail, (-c if e & 1 else c), None
    # left-action terms: [x_i, f(..., ^x_i, ...)], i = 1..n
    run = degree
    for i in range(n):
        pi = tpar[i]
        e = i + pi * run
        run += pi
        if left[T[i]]:
            yield T[:i] + T[i + 1:], (-1 if e & 1 else 1), left[T[i]]
    # right-action term: (-1)**(n+1) [f(x_1..x_n), x_{n+1}]
    if right[T[n]]:
        yield T[:n], (-1 if (n + 1) & 1 else 1), right[T[n]]


def fraction_delta_matrix(alg: LeibnizSuperalgebra, mod: SuperBimodule,
                          n: int, parity: int) -> RatMatrix:
    """The coboundary matrix from arity n, summed in Fractions."""
    def nz(v):
        return [(k, c) for k, c in enumerate(v) if c]
    # the structure tables unscaled, laid out as SuperBimodule.scaled's with D = 1
    structure = (1, [nz(v) for row in alg.table for v in row],
                 [[nz(v) for v in row] for row in mod.left],
                 [[nz(mod.right[m][x]) for m in range(mod.dim)] for x in range(alg.dim)])
    mpar = mod.space.parities
    dom = enumerate_basis(alg, mod, n, parity)
    col = {pair: c for c, pair in enumerate(dom)}
    rows = []
    for T in all_tuples(alg.dim, n + 1):
        want = (parity + alg.space.tuple_parity(T)) & 1
        block = {k: {} for k in range(mod.dim) if mpar[k] == want}
        for S, c, action in tuple_coboundary_terms(alg, structure, parity, T):
            if action is None:
                for k, row in block.items():
                    j = col.get((S, k))
                    if j is not None:
                        row[j] = row.get(j, F0) + c
                continue
            for m, image in enumerate(action):
                j = col.get((S, m))
                if j is not None:
                    for k, x in image:
                        row = block.get(k)
                        if row is not None:
                            row[j] = row.get(j, F0) + c * x
        rows.extend(block.values())
    return RatMatrix(len(dom), rows)


def fraction_leibniz_defect(outer, inner, parities, a: int, b: int, c: int,
                            acc: list[Fraction]) -> None:
    """acc += outer(inner(a,b),c) - outer(a,inner(b,c)) + (-1)**(ab) outer(b,inner(a,c)),

    in Fractions, for structure-constant tables (table[i][j] is the value
    on basis elements i, j) and basis indices a, b, c.
    """
    s = koszul(parities[a], parities[b])
    for k, w in enumerate(inner[a][b]):
        if w:
            add_scaled(acc, w, outer[k][c])
    for k, w in enumerate(inner[b][c]):
        if w:
            add_scaled(acc, -w, outer[a][k])
    for k, w in enumerate(inner[a][c]):
        if w:
            add_scaled(acc, s * w, outer[b][k])


def triple_walk_leibniz_defect(pairs, parities) -> list[list[int]]:
    """algebra.leibniz_defect as a walk over every basis triple (a, b, c),
    with the three terms' inner loops set up at each, empty entries
    included: the reference for the library's walk over the nonzeros.
    Same flat int tables in; one int vector per triple out, of which the
    library keeps the nonzero ones."""
    dim = len(parities)
    out = [[0] * dim for _ in range(dim ** 3)]
    for outer, inner in pairs:
        for a in range(dim):
            pa = parities[a]
            row_a = a * dim
            for b in range(dim):
                ab = inner[row_a + b]
                row_b = b * dim
                s = -1 if pa & parities[b] else 1
                base = (row_a + b) * dim
                for c in range(dim):
                    acc = out[base + c]
                    for k, w in ab:
                        for j, y in outer[k * dim + c]:
                            acc[j] += w * y
                    for k, w in inner[row_b + c]:
                        for j, y in outer[row_a + k]:
                            acc[j] -= w * y
                    for k, w in inner[row_a + c]:
                        w *= s
                        for j, y in outer[row_b + k]:
                            acc[j] += w * y
    return out


def _mu_tables(d) -> list:
    """Nested structure-constant tables of mu_0..mu_N."""
    dim = d.algebra.dim
    return [d.algebra.table] + [
        [f.coeffs[a * dim:(a + 1) * dim] for a in range(dim)] for f in dense_terms(d)]


def fraction_residual(d, r: int) -> Cochain:
    """The order-r residual, summed per triple and pair (mu_i, mu_(r-i))."""
    alg = d.algebra
    mus = _mu_tables(d)
    out = Cochain.zero(alg, d.module, 3, 0)
    for acc, (a, b, c) in zip(out.coeffs, all_tuples(alg.dim, 3)):
        for i in range(r + 1):
            if i <= d.order and r - i <= d.order:
                fraction_leibniz_defect(mus[i], mus[r - i], alg.space.parities,
                                        a, b, c, acc)
    return out


def fraction_transform(d, iso) -> list[Cochain]:
    """Terms 1..N of Psi_t o mu_t o (Psi_t^{-1} x Psi_t^{-1}) mod t**(N+1):
    term r at (a, b) is sum psi_i(mu_j(phi_k a, phi_l b)), i+j+k+l = r."""
    alg = d.algebra
    dim, n = alg.dim, d.order
    mus = _mu_tables(d)
    phis = [iso_matrix(inverse(iso, n), r) for r in range(n + 1)]
    psis = [iso_matrix(iso, i) for i in range(n + 1)]
    terms = []
    for r in range(1, n + 1):
        f = Cochain.zero(alg, d.module, 2, 0)
        for acc, (a, b) in zip(f.coeffs, all_tuples(dim, 2)):
            for i in range(r + 1):
                w = zeros(dim)
                for j in range(r - i + 1):
                    for k in range(r - i - j + 1):
                        add_scaled(w, F1, bilinear(mus[j], phis[k][a],
                                                   phis[r - i - j - k][b], dim))
                add_scaled(acc, F1, lin_comb(psis[i], w, dim))
        terms.append(f)
    return terms


# ---------------------------------------------------------------------------
# the paper's operator calculus on cochains: d_x, the restriction f_x, the
# bimodule structure on cochain spaces, and currying.  They are proof
# machinery for delta(delta(f)) = 0 and the module structure, kept here as
# the oracles of the lemma tests.
# ---------------------------------------------------------------------------

def basis_cochain(algebra: LeibnizSuperalgebra, module: SuperBimodule,
                  t: tuple[int, ...], k: int) -> Cochain:
    """The cochain supported at tuple t with value m_k; degree inferred."""
    degree = (module.space.parities[k] + algebra.space.tuple_parity(t)) & 1
    f = Cochain.zero(algebra, module, len(t), degree)
    f.coeffs[tuple_index(t, algebra.dim)] = basis_vec(module.dim, k)
    return f


def identity_map(algebra: LeibnizSuperalgebra, module: SuperBimodule) -> Cochain:
    """Identity 1-cochain; only meaningful when M has the algebra's space."""
    if module.space != algebra.space:
        raise ValueError("identity cochain needs module space = algebra space")
    f = Cochain.zero(algebra, module, 1, EVEN)
    for i in range(algebra.dim):
        f.coeffs[i] = basis_vec(module.dim, i)
    return f


class MixedParityError(ValueError):
    """Raised when an operation needs a homogeneous vector but got a mix."""


def vector_parity(space: SuperSpace, v: list[Fraction]) -> int | None:
    """Parity of a homogeneous vector, None for the zero vector."""
    par = None
    for i, c in enumerate(v):
        if c:
            p = space.parities[i]
            if par is None:
                par = p
            elif par != p:
                raise MixedParityError(
                    f"vector mixes parities in space {space.name!r}")
    return par


def cochain_eval(f: Cochain, args: list[list[Fraction]]) -> list[Fraction]:
    """Multilinear extension of f; arguments are arbitrary vectors."""
    if len(args) != f.arity:
        raise ValueError(f"expected {f.arity} arguments, got {len(args)}")
    dim = f.algebra.dim
    for a in args:
        if len(a) != dim:
            raise ValueError("argument length does not match algebra dimension")
    out = zeros(f.module.dim)
    supports = [[(i, c) for i, c in enumerate(a) if c] for a in args]
    for combo in itertools.product(*supports):
        coeff = F1
        for _, c in combo:
            coeff *= c
        t = tuple(i for i, _ in combo)
        add_scaled(out, coeff, f.value(t))
    return out


def _vector_parity_or_raise(space: SuperSpace, v: list[Fraction], what: str) -> int:
    try:
        p = vector_parity(space, v)
    except MixedParityError:
        raise MixedParityError(f"{what} must be homogeneous")
    return 0 if p is None else p


def d_op(x: list[Fraction], f: Cochain) -> Cochain:
    """d_x f = [x, f(...)] - sum_i (-1)**(x(f+y_1+..+y_{i-1})) f(..,[x,y_i],..).

    Degree of the result is degree(f) + parity(x); x must be homogeneous.
    """
    alg, mod = f.algebra, f.module
    dim = alg.dim
    px = _vector_parity_or_raise(alg.space, x, "operator argument")
    n = f.arity
    par = alg.space.parities
    out = Cochain.zero(alg, mod, n, (f.degree + px) & 1)
    # bracket of x with each basis element, precomputed per column
    bcols = [bracket_vec(alg, x, basis_vec(dim, t)) for t in range(dim)]
    for T in all_tuples(dim, n):
        acc = bilinear(mod.left, x, f.value(T), mod.dim)
        run = f.degree
        for i in range(n):
            e = px * run
            run += par[T[i]]
            s = -1 if e & 1 else 1
            bv = bcols[T[i]]
            for k, c in enumerate(bv):
                if c:
                    w = f.value(T[:i] + (k,) + T[i + 1:])
                    add_scaled(acc, -c if s > 0 else c, w)
        out.coeffs[tuple_index(T, dim)] = acc
    return out


def restrict(f: Cochain, x: list[Fraction]) -> Cochain:
    """f_x(y_1,..,y_n) = f(x, y_1,..,y_n); degree(f_x) = degree(f) + parity(x)."""
    if f.arity < 1:
        raise ValueError("cannot restrict an arity-0 cochain")
    alg = f.algebra
    dim = alg.dim
    px = _vector_parity_or_raise(alg.space, x, "restriction argument")
    n = f.arity - 1
    return Cochain(alg, f.module, n, (f.degree + px) & 1,
                   [lin_comb([f.value((m,) + T) for m in range(dim)], x, f.module.dim)
                    for T in all_tuples(dim, n)])


def act_left(a: list[Fraction], f: Cochain) -> Cochain:
    """Left action of the algebra on cochains: [a, f] = d_a f."""
    return d_op(a, f)


def act_right(f: Cochain, a: list[Fraction]) -> Cochain:
    """Right action: [f, a] = -(-1)**(af) d_a f.

    The Koszul factor is exactly what makes the cochain space a bimodule
    over the algebra; dropping it breaks the mixed module axioms whenever
    both a and f are odd.
    """
    pa = _vector_parity_or_raise(f.algebra.space, a, "operator argument")
    return scale(d_op(a, f), -koszul(pa, f.degree))


def cochain_space_module(alg: LeibnizSuperalgebra, mod: SuperBimodule,
                         arity: int) -> SuperBimodule:
    """The space of arity-n cochains as a bimodule over the algebra.

    Basis: all (tuple, module index) pairs in lexicographic order; the
    parity of a basis cochain is its degree.  The actions are the operator
    actions, tabulated on this basis.
    """
    dim = alg.dim
    pairs = [(t, k) for t in all_tuples(dim, arity) for k in range(mod.dim)]
    pos = {p: i for i, p in enumerate(pairs)}
    labels = []
    parities = []
    asp, msp = alg.space, mod.space
    for t, k in pairs:
        args = ",".join(asp.labels[i] for i in t)
        labels.append(f"({args})->{msp.labels[k]}")
        parities.append((msp.parities[k] + asp.tuple_parity(t)) & 1)
    space = SuperSpace(f"C{arity}({asp.name};{msp.name})",
                       tuple(labels), tuple(parities))

    def coords(g: Cochain) -> list[Fraction]:
        return [g.value(t)[k] for t, k in pairs]

    left = []
    for i in range(dim):
        ei = basis_vec(dim, i)
        row = []
        for t, k in pairs:
            g = basis_cochain(alg, mod, t, k)
            row.append(coords(d_op(ei, g)))
        left.append(row)
    right = []
    for t, k in pairs:
        g = basis_cochain(alg, mod, t, k)
        row = []
        for i in range(dim):
            ei = basis_vec(dim, i)
            row.append(coords(act_right(g, ei)))
        right.append(row)
    bim = SuperBimodule(alg, space, left, right)
    # stash the enumeration so curry() and tests can reindex without redoing it
    bim.cochain_pairs = pairs
    bim.cochain_pos = pos
    bim.value_module = mod
    return bim


def curry(f: Cochain, j: int) -> Cochain:
    """Reindex f of arity n as a j-cochain valued in the (n-j)-cochain module.

    f_j(a_1,..,a_j)(a_{j+1},..,a_n) = f(a_1,..,a_n); j = 0 and j = n give
    back f itself up to reindexing.
    """
    n = f.arity
    if not 0 <= j <= n:
        raise ValueError(f"curry level {j} out of range 0..{n}")
    alg, mod = f.algebra, f.module
    dim = alg.dim
    target = cochain_space_module(alg, mod, n - j)
    pairs = target.cochain_pairs
    out = Cochain.zero(alg, target, j, f.degree)
    for T in all_tuples(dim, j):
        out.coeffs[tuple_index(T, dim)] = [f.value(T + t)[k] for t, k in pairs]
    return out


def uncurry_value(target: SuperBimodule, v: list[Fraction]) -> Cochain:
    """Reconstruct an ordinary cochain from a vector in a cochain module."""
    pairs = target.cochain_pairs
    mod = target.value_module
    alg = target.algebra
    arity = len(pairs[0][0]) if pairs else 0
    degree = None
    for c, (t, k) in zip(v, pairs):
        if c:
            p = (mod.space.parities[k] + alg.space.tuple_parity(t)) & 1
            if degree is None:
                degree = p
            elif degree != p:
                raise MixedParityError("vector mixes cochain degrees")
    g = Cochain.zero(alg, mod, arity, EVEN if degree is None else degree)
    for c, (t, k) in zip(v, pairs):
        if c:
            g.coeffs[tuple_index(t, alg.dim)][k] += c
    return g


def annihilator(alg: LeibnizSuperalgebra, mod: SuperBimodule) -> list[list[Fraction]]:
    """Basis of {m in M_0 : [m, x] = 0 for all x}, as full module vectors.

    Computed by a direct scan of the right-action table, independently of
    the coboundary matrix (whose parity-0 kernel it must equal).
    """
    msp = mod.space
    even = [k for k in range(mod.dim) if msp.parities[k] == 0]
    if not even:
        return []
    rows = [sparse([mod.right[k][i][t] for k in even])
            for i in range(alg.dim) for t in range(mod.dim)]
    out = []
    for v in kernel_basis(RatMatrix(len(even), rows)):
        full = zeros(mod.dim)
        for j, c in v.items():
            full[even[j]] = c
        out.append(full)
    return out


def dense_check_axioms(mod: SuperBimodule) -> CheckReport:
    """The three module axioms, each side evaluated with the dense bilinear
    helper on basis triples; the reference for SuperBimodule.check_axioms,
    which reads them off the Leibniz defect of the semidirect product.

    1. [[a,b],m] = [a,[b,m]] - (-1)**(ab) [b,[a,m]]
    2. [[a,m],b] = [a,[m,b]] - (-1)**(am) [m,[a,b]]
    3. [[m,a],b] = [m,[a,b]] - (-1)**(ma) [a,[m,b]]
    """
    alg = mod.algebra
    asp, msp = alg.space, mod.space
    da, dm = alg.dim, mod.dim
    bad = []

    def act_left_vec(a, m):
        return bilinear(mod.left, a, m, dm)

    def act_right_vec(m, a):
        return bilinear(mod.right, m, a, dm)

    def compare(axiom, triple, lhs, rhs):
        if lhs != rhs:
            bad.append({"axiom": axiom, "triple": triple,
                        "defect": msp.describe([x - y for x, y in zip(lhs, rhs)])})

    for i, j in itertools.product(range(da), repeat=2):
        br = alg.bracket(i, j)
        ei = basis_vec(da, i)
        ej = basis_vec(da, j)
        pi, pj = asp.parities[i], asp.parities[j]
        for k in range(dm):
            mk = basis_vec(dm, k)
            pk = msp.parities[k]
            # axiom 1
            lhs = act_left_vec(br, mk)
            rhs = act_left_vec(ei, act_left_vec(ej, mk))
            add_scaled(rhs, -koszul(pi, pj), act_left_vec(ej, act_left_vec(ei, mk)))
            compare(1, (asp.labels[i], asp.labels[j], msp.labels[k]), lhs, rhs)
            # axiom 2: a = e_i, m = m_k, b = e_j
            lhs = act_right_vec(act_left_vec(ei, mk), ej)
            rhs = act_left_vec(ei, act_right_vec(mk, ej))
            add_scaled(rhs, -koszul(pi, pk), act_right_vec(mk, br))
            compare(2, (asp.labels[i], msp.labels[k], asp.labels[j]), lhs, rhs)
            # axiom 3: m = m_k, a = e_i, b = e_j
            lhs = act_right_vec(act_right_vec(mk, ei), ej)
            rhs = act_right_vec(mk, br)
            add_scaled(rhs, -koszul(pk, pi), act_left_vec(ei, act_right_vec(mk, ej)))
            compare(3, (msp.labels[k], asp.labels[i], asp.labels[j]), lhs, rhs)
    return CheckReport(bad)


def dense_grading_violations(table, left_space: SuperSpace, right_space: SuperSpace,
                             out_space: SuperSpace) -> list[dict]:
    """Nonzero table[i][j][k] with parity(k) != parity(i) + parity(j), in
    (i, j, k) order, each coefficient the table's own Fraction; i indexes
    left_space, j right_space and k out_space."""
    lp, rp, op = left_space.parities, right_space.parities, out_space.parities
    bad = []
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            want = (lp[i] + rp[j]) & 1
            for k, c in enumerate(v):
                if c and op[k] != want:
                    bad.append({"pair": (left_space.labels[i], right_space.labels[j]),
                                "component": out_space.labels[k], "coeff": c})
    return bad


def dense_is_lie(alg: LeibnizSuperalgebra) -> bool:
    """Graded antisymmetry [a,b] = -(-1)**(ab) [b,a] on every basis pair,
    compared in Fractions on the dense table."""
    par = alg.space.parities
    return all(alg.table[i][j] == [-koszul(par[i], par[j]) * c for c in alg.table[j][i]]
               for i in range(alg.dim) for j in range(alg.dim))


# ---------------------------------------------------------------------------
# arithmetic on vectors, cochains and formal isomorphisms, and the extension
# theorem: used by the oracles above and the tests, by no library computation
# ---------------------------------------------------------------------------

def bracket_vec(alg: LeibnizSuperalgebra, u: list[Fraction],
                v: list[Fraction]) -> list[Fraction]:
    """[u, v]: the bilinear extension of the structure constants."""
    dim = alg.dim
    if len(u) != dim or len(v) != dim:
        raise ValueError("vector length does not match algebra dimension")
    return bilinear(alg.table, u, v, dim)


def scale(f: Cochain, c: Fraction) -> Cochain:
    """The cochain c * f."""
    return Cochain(f.algebra, f.module, f.arity, f.degree,
                   [[c * a for a in v] for v in f.coeffs])


def inverse(iso: FormalIsomorphism, order: int | None = None) -> FormalIsomorphism:
    """The inverse series mod t**(order+1): phi_r = -sum_s psi_s phi_(r-s)."""
    n = iso.order if order is None else order
    dim = iso.algebra.dim
    phis = [iso_matrix(iso, 0)]
    for r in range(1, n + 1):
        cols = [zeros(dim) for _ in range(dim)]
        for s in range(1, r + 1):
            psi_s = iso_matrix(iso, s)
            for col, phi_col in zip(cols, phis[r - s]):
                add_scaled(col, -F1, lin_comb(psi_s, phi_col, dim))
        phis.append(cols)
    return FormalIsomorphism(iso.algebra, [Cochain(iso.algebra, iso.module, 1, 0, c)
                                           for c in phis[1:]], iso.module)


def _psi_matrix(ext_dim: int, dl: int, f: Cochain) -> list[list[Fraction]]:
    """Matrix of (x,m) -> (x, m + f(x)) on the total space, column-wise."""
    cols = [basis_vec(ext_dim, c) for c in range(ext_dim)]
    for i in range(dl):
        for k, c in enumerate(f.coeffs[i]):
            if c:
                cols[i][dl + k] += c
    return cols


def extensions_equivalent(e1: Extension, e2: Extension) -> Cochain | None:
    """A degree-0 1-cochain f with delta(f) = h1 - h2, or None.

    When f exists, (x,m) -> (x, m + f(x)) is verified to be an algebra
    isomorphism of the totals commuting with the inclusion and the
    projection.
    """
    if e1.base != e2.base or e1.coeffs != e2.coeffs:
        raise ValueError("extensions have different base or coefficients")
    f = is_coboundary(e1.cocycle - e2.cocycle)
    if f is None:
        return None
    dl = e1.base.dim
    dim = dl + e1.coeffs.dim
    cols = _psi_matrix(dim, dl, f)
    for i in range(dim):
        for j in range(dim):
            lhs = lin_comb(cols, e1.total.bracket(i, j), dim)
            rhs = bracket_vec(e2.total, cols[i], cols[j])
            if lhs != rhs:
                raise AssertionError(
                    "delta(f) = h1 - h2 but the induced map is not "
                    f"multiplicative at pair ({i},{j}); sign conventions broken")
    return f


# ---------------------------------------------------------------------------
# dense cochains over the library's sparse routines
# ---------------------------------------------------------------------------

def fraction_describe(space: SuperSpace, v: list[int], den: int) -> str:
    """The linear combination v/den as str(Fraction) writes each term."""
    terms = [f"{c}*{space.labels[i]}" for i, c in enumerate([Fraction(x, den) for x in v])
             if c]
    return " + ".join(terms) if terms else "0"


def parse_rational(value) -> Fraction:
    """The exact rational that fileio.rational_parts reads, as a Fraction."""
    return Fraction(*rational_parts(value))


def enumerate_basis(alg: LeibnizSuperalgebra, mod: SuperBimodule,
                    n: int, parity: int) -> list[tuple[tuple[int, ...], int]]:
    """Ordered basis of the parity component of the arity-n cochain space:
    the coordinate contract, stated apart from the library's offset encoding."""
    asp, msp = alg.space, mod.space
    out = []
    for t in all_tuples(alg.dim, n):
        want = (parity + asp.tuple_parity(t)) & 1
        for k in range(mod.dim):
            if msp.parities[k] == want:
                out.append((t, k))
    return out


def cochain_from_coords(alg: LeibnizSuperalgebra, mod: SuperBimodule, n: int,
                        parity: int, coords: dict,
                        enum: list[tuple[tuple[int, ...], int]]) -> Cochain:
    """The cochain with the sparse coordinates coords in the order enum."""
    f = Cochain.zero(alg, mod, n, parity)
    for j, c in coords.items():
        t, k = enum[j]
        f.coeffs[tuple_index(t, alg.dim)][k] += c
    return f


def cochain_coords(f: Cochain, enum: list[tuple[tuple[int, ...], int]]) -> dict:
    """f's nonzero coordinates in the order enum, as {index: value}."""
    dim = f.algebra.dim
    return sparse([f.coeffs[tuple_index(t, dim)][k] for t, k in enum])


def dense_terms(series) -> list[Cochain]:
    """s_1..s_N of a Series as dense cochains, a zero one where absent."""
    return [Cochain.from_table(series.algebra, series.module, series.ARITY, 0,
                               series.den, series.tables.get(i))
            for i in range(1, series.order + 1)]


def is_homogeneous(f: Cochain) -> bool:
    """Support check: the value at t lives in parity degree + |t| only."""
    apar, mpar = f.algebra.space, f.module.space.parities
    for t in all_tuples(f.algebra.dim, f.arity):
        want = (f.degree + apar.tuple_parity(t)) & 1
        for k, c in enumerate(f.value(t)):
            if c and mpar[k] != want:
                return False
    return True


def cochain_preimage(f: Cochain) -> Cochain | None:
    """Coboundary.preimage for a dense cochain f: the canonical g with
    delta(g) = f (free coordinates zero) as a cochain, or None."""
    den, (rows,) = scale_to_ints([f.coeffs])
    found = Coboundary(f.module, f.arity, f.arity).preimage(f.arity - 1, f.degree, den, rows)
    if found is None:
        return None
    return Cochain.from_table(f.algebra, f.module, f.arity - 1, f.degree, *found)


def is_coboundary(f: Cochain) -> Cochain | None:
    """Some g with delta(g) = f, or None when f is not a coboundary."""
    if f.arity < 1:
        raise ValueError("arity must be >= 1")
    return cochain_preimage(f)


def iso_matrix(iso: FormalIsomorphism, i: int) -> list[list[Fraction]]:
    """psi_i as a list of image columns; psi_0 is the identity."""
    dim = iso.algebra.dim
    if i == 0:
        return [basis_vec(dim, j) for j in range(dim)]
    if i <= iso.order:
        return [list(v) for v in dense_terms(iso)[i - 1].coeffs]
    return [zeros(dim) for _ in range(dim)]


# ---------------------------------------------------------------------------
# deformation files and series, the dense way
# ---------------------------------------------------------------------------

def dense_deformation_from_doc(doc, alg: LeibnizSuperalgebra,
                               mod: SuperBimodule) -> list[Cochain]:
    """mu_1..mu_N of a well-formed deformation document, one dense cochain
    per power, a zero one for each missing term."""
    terms = []
    for i in range(1, doc["order"] + 1):
        sub = doc["terms"].get(str(i))
        terms.append(Cochain.zero(alg, mod, 2, 0) if sub is None else
                     cochain_from_doc({"arity": 2, "degree": "even", **sub}, alg, mod))
    return terms


def dense_mu_ints(alg: LeibnizSuperalgebra, terms: list[Cochain]) -> tuple[int, dict]:
    """mu_0..mu_N scaled together by scale_to_ints: (D, {i: flat table})
    for the nonzero mu_i only."""
    d, tables = scale_to_ints([[v for row in alg.table for v in row]]
                              + [f.coeffs for f in terms])
    return d, {i: t for i, t in enumerate(tables) if any(t)}


def fraction_intertwining_defect(d_from, d_to, psis: list, r: int) -> Cochain:
    """Order r of Psi(mu_t(a,b)) - nu_t(Psi a, Psi b), Psi the series of the
    column matrices psis (psi_0..psi_(r-1), the rest zero), expanded as
    polynomials: the right-hand side delta(psi_r) of equiv's order r."""
    alg = d_from.algebra
    dim = alg.dim
    psis = psis + [[zeros(dim) for _ in range(dim)]] * (r + 1 - len(psis))
    mus_from, mus_to = _mu_tables(d_from), _mu_tables(d_to)
    f = Cochain.zero(alg, d_from.module, 2, 0)
    for acc, (a, b) in zip(f.coeffs, all_tuples(dim, 2)):
        q = _poly_apply_mu(mus_from, [basis_vec(dim, a)], [basis_vec(dim, b)], r)
        for i in range(r + 1):
            add_scaled(acc, F1, lin_comb(psis[i], q[r - i], dim))
        lhs = _poly_apply_mu(mus_to, [psis[k][a] for k in range(r + 1)],
                             [psis[k][b] for k in range(r + 1)], r)
        add_scaled(acc, -F1, lhs[r])
    return f
