"""Shared fixtures, random generators and the Chevalley-Eilenberg
subcomplex of the coboundary matrices, for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from oracles import matmul
from superleibniz.algebra import (AssociativeSuperalgebra, LeibnizSuperalgebra,
                                  SuperBimodule, SuperSpace, abelian,
                                  adjoint_module, free_truncated,
                                  from_associative, koszul, nonlie_example,
                                  zero_module)
from superleibniz.cochain import Cochain, all_tuples, tuple_index
from superleibniz.cohomology import Coboundary
from superleibniz.linalg import (F0, F1, RatMatrix, basis_vec, bilinear, lin_comb,
                                 rank, row_space_basis, solve, zeros)


def matrix_1_1_associative() -> AssociativeSuperalgebra:
    """2x2 matrix units with the checkerboard grading: E12, E21 odd."""
    names = ("e11", "e22", "e12", "e21")
    pos = {"e11": (1, 1), "e22": (2, 2), "e12": (1, 2), "e21": (2, 1)}
    space = SuperSpace("m11", names, (0, 0, 1, 1))
    table = []
    for a in names:
        row = []
        for b in names:
            (r1, c1), (r2, c2) = pos[a], pos[b]
            v = zeros(4)
            if c1 == r2:
                v[names.index(f"e{r1}{c2}")] = F1
            row.append(v)
        table.append(row)
    return AssociativeSuperalgebra(space, table)


def corner_projection_algebra() -> LeibnizSuperalgebra:
    """Non-Lie super Leibniz algebra from matrix units with T = e11-projection."""
    assoc = matrix_1_1_associative()
    t_map = [basis_vec(4, 0), zeros(4), zeros(4), zeros(4)]
    return from_associative(assoc, t_map)


def upper_triangular_associative() -> AssociativeSuperalgebra:
    """Upper triangular 2x2 matrices, all even: basis e=E11, f=E22, n=E12."""
    space = SuperSpace("tri2", ("e", "f", "n"), (0, 0, 0))
    E = {"e": (0, 0), "f": (1, 1), "n": (0, 1)}
    names = ("e", "f", "n")
    rev = {v: k for k, v in E.items()}
    table = []
    for a in names:
        row = []
        for b in names:
            (r1, c1), (r2, c2) = E[a], E[b]
            v = zeros(3)
            if c1 == r2 and (r1, c2) in rev:
                v[names.index(rev[(r1, c2)])] = F1
            row.append(v)
        table.append(row)
    return AssociativeSuperalgebra(space, table)


def standard_fixtures() -> list[LeibnizSuperalgebra]:
    """The algebra zoo used across the suite."""
    odd_gen = SuperSpace("V1", ("v",), (1,))
    even_gen = SuperSpace("V0", ("u",), (0,))
    return [
        nonlie_example(),
        abelian(1, 1),
        abelian(2, 1),
        free_truncated(even_gen, 2),
        free_truncated(odd_gen, 3),
        corner_projection_algebra(),
    ]


def lie_superalgebra(name: str, labels: tuple[str, ...], parities: tuple[int, ...],
                     brackets: dict) -> LeibnizSuperalgebra:
    """The Lie superalgebra whose brackets [a, b], given as {(a, b): {label:
    coefficient}}, extend by graded antisymmetry [b, a] = -(-1)**(ab) [a, b]."""
    index = {label: i for i, label in enumerate(labels)}
    dim = len(labels)
    table = [[zeros(dim) for _ in range(dim)] for _ in range(dim)]
    for (a, b), value in brackets.items():
        i, j = index[a], index[b]
        for label, c in value.items():
            table[i][j][index[label]] = Fraction(c)
            table[j][i][index[label]] = -koszul(parities[i], parities[j]) * c
    return LeibnizSuperalgebra(SuperSpace(name, labels, parities), table)


_SL2 = {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}}


def sl2() -> LeibnizSuperalgebra:
    """sl(2) in its Chevalley basis h, e, f, all even."""
    return lie_superalgebra("sl2", ("h", "e", "f"), (0, 0, 0), _SL2)


def osp12() -> LeibnizSuperalgebra:
    """osp(1|2), dim 3|2: sl(2) on h, e, f and its 2-dim module on the odd
    x, y, with [x, x] = 2e, [y, y] = -2f and [x, y] = h."""
    return lie_superalgebra("osp12", ("h", "e", "f", "x", "y"), (0, 0, 0, 1, 1), {
        **_SL2, ("h", "x"): {"x": 1}, ("h", "y"): {"y": -1}, ("e", "y"): {"x": -1},
        ("f", "x"): {"y": -1}, ("x", "x"): {"e": 2}, ("y", "y"): {"f": -2},
        ("x", "y"): {"h": 1}})


def trivial_module(alg: LeibnizSuperalgebra) -> SuperBimodule:
    """The 1-dim even module k with both actions zero."""
    return zero_module(alg, SuperSpace("k", ("1",), (0,)))


def swap_sign(parities, a: int, b: int) -> int:
    """-(-1)**(ab): a super-antisymmetric cochain's sign when adjacent
    arguments a and b trade places."""
    return 1 if parities[a] & parities[b] else -1


def super_antisymmetrized(f: Cochain) -> Cochain:
    """sum over permutations s of eps(s) f(x_s(1), ..., x_s(n)), eps the
    product of swap_sign over the pairs of arguments s puts out of order."""
    dim, par, n = f.algebra.dim, f.algebra.space.parities, f.arity
    out = Cochain.zero(f.algebra, f.module, n, f.degree)
    for t in all_tuples(dim, n):
        acc = out.coeffs[tuple_index(t, dim)]
        for perm in itertools.permutations(range(n)):
            sign = 1
            for i, j in itertools.combinations(range(n), 2):
                if perm[i] > perm[j]:
                    sign *= swap_sign(par, t[perm[i]], t[perm[j]])
            for k, c in enumerate(f.coeffs[tuple_index([t[p] for p in perm], dim)]):
                acc[k] += sign * c
    return out


def chevalley_eilenberg_dims(mod: SuperBimodule, max_n: int) -> list[list[int]]:
    """[dim H^n_CE even, odd] for n = 0..max_n: the cohomology of each
    Coboundary.matrix(n, parity) restricted to the super-antisymmetric
    cochains, which on a Lie superalgebra form the Chevalley-Eilenberg
    subcomplex.  Their basis is the canonical rows spanned by the
    super_antisymmetrized basis cochains e_(t,k), t nondecreasing (one
    per orbit of the argument permutations)."""
    alg = mod.algebra
    cob = Coboundary(mod, max_n + 1)
    dims = []
    for parity in (0, 1):
        ranks = [0]   # rank of the restricted D_(n-1), D_(-1) = 0
        for n in range(max_n + 1):
            rows = []
            for t, args in enumerate(all_tuples(alg.dim, n)):
                if list(args) != sorted(args):
                    continue
                for k in range(mod.dim):
                    if cob.coordinate(n, parity, t, k) is None:
                        continue
                    e = Cochain.zero(alg, mod, n, parity)
                    e.coeffs[t][k] = F1
                    f = super_antisymmetrized(e)
                    rows.append({j: c for s, value in enumerate(f.coeffs)
                                 for m, c in enumerate(value)
                                 if c and (j := cob.coordinate(n, parity, s, m)) is not None})
            d = cob.matrix(n, parity)
            basis = RatMatrix(d.cols, row_space_basis(RatMatrix(d.cols, rows)))
            # row i of basis * D_n^T is D_n of basis row i
            ranks.append(rank(matmul(basis, d.transpose())))
            # dim H^n = dim CE^n - rank D_n - rank D_(n-1), restricted
            dims.append(basis.rows - ranks[-1] - ranks[-2])
    return [[dims[n], dims[max_n + 1 + n]] for n in range(max_n + 1)]


def modules_for(alg: LeibnizSuperalgebra) -> list[SuperBimodule]:
    return [adjoint_module(alg), zero_module(alg)]


def fraction_module(alg: LeibnizSuperalgebra, den: int = 6) -> SuperBimodule:
    """A graded module-shaped table pair, not checked against the axioms,
    of dimension dim L + 1 with parities 1, 0, 1, ...: every admissible
    action constant is nonzero, and den is their lcm denominator."""
    dm = alg.dim + 1
    sp = SuperSpace("Mq", tuple(f"m{k}" for k in range(dm)), tuple((k + 1) & 1 for k in range(dm)))
    apar, mpar = alg.space.parities, sp.parities

    def value(x: int, m: int) -> list[Fraction]:
        return [(Fraction(1, den) if (x + m) % 2 == 0 else Fraction(1 + k % 3))
                if mpar[k] == apar[x] ^ mpar[m] else F0 for k in range(dm)]
    left = [[value(x, m) for m in range(dm)] for x in range(alg.dim)]
    right = [[value(x, m) for x in range(alg.dim)] for m in range(dm)]
    return SuperBimodule(alg, sp, left, right)


def random_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3)))


def random_cochain(alg: LeibnizSuperalgebra, mod: SuperBimodule, n: int,
                   degree: int, rng: random.Random) -> Cochain:
    """Random homogeneous cochain with small rational coefficients."""
    f = Cochain.zero(alg, mod, n, degree)
    mpar = mod.space.parities
    for idx, t in enumerate(all_tuples(alg.dim, n)):
        want = (degree + alg.space.tuple_parity(t)) & 1
        f.coeffs[idx] = [random_coeff(rng) if mpar[k] == want else F0
                         for k in range(mod.dim)]
    return f


def random_homogeneous_vector(space: SuperSpace, parity: int,
                              rng: random.Random) -> list[Fraction]:
    """Random nonzero vector supported on one parity (when it exists)."""
    idxs = [i for i, p in enumerate(space.parities) if p == parity]
    v = zeros(space.dim)
    for i in idxs:
        v[i] = Fraction(rng.randint(-3, 3))
    if idxs and all(not v[i] for i in idxs):
        v[rng.choice(idxs)] = F1
    return v


def transport(table, cols: list[list[Fraction]]):
    """Structure constants table[i][j] of a bilinear map, rewritten in the
    basis f_i = sum_k cols[i][k] e_k; cols must be an invertible matrix.

    Returns the new table and the old basis in new coordinates (row c
    holds e_c in the f basis), which carries linear maps across too.
    """
    dim = len(cols)
    change = RatMatrix(dim, [{j: x for j, x in enumerate(r) if x} for r in zip(*cols)])
    coords = [[x.get(j, F0) for j in range(dim)]
              for x in (solve(change, {c: F1}) for c in range(dim))]
    return [[lin_comb(coords, bilinear(table, u, v, dim), dim) for v in cols]
            for u in cols], coords
