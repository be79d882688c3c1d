import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (corner_projection_algebra, fraction_module, lie_superalgebra,
                     matrix_1_1_associative, modules_for, osp12, sl2,
                     standard_fixtures, upper_triangular_associative)
from oracles import (bracket_vec, cochain_space_module, dense_check_axioms,
                     dense_grading_violations, dense_is_lie,
                     fraction_leibniz_defect, vector_parity)
from superleibniz.algebra import (AssociativeSuperalgebra, LeibnizSuperalgebra,
                                  SuperBimodule, SuperSpace, abelian, adjoint_module,
                                  free_truncated, from_associative, nonlie_example,
                                  zero_module)
from superleibniz.linalg import F0, F1, basis_vec, bilinear, zeros

F = Fraction


def test_superspace_rejects_bad_bases():
    with pytest.raises(ValueError):
        SuperSpace("s", ("a", "a"), (0, 0))
    with pytest.raises(ValueError):
        SuperSpace("s", ("a", ""), (0, 0))
    with pytest.raises(ValueError):
        SuperSpace("s", ("a",), (2,))


def test_nonlie_example_table():
    L = nonlie_example()
    x, y, z = (basis_vec(3, i) for i in range(3))
    assert bracket_vec(L, y, x) == x
    assert bracket_vec(L, y, y) == x
    # bilinearity: [y, y+z] = x
    assert bracket_vec(L, y, [a + b for a, b in zip(y, z)]) == x
    assert bracket_vec(L, zeros(3), y) == zeros(3)
    for u in (x, z):
        for v in (x, y, z):
            assert bracket_vec(L, u, v) == zeros(3)
            assert bracket_vec(L, v, z) == zeros(3)


def test_nonlie_example_passes_checks():
    L = nonlie_example()
    assert L.check_grading().ok
    assert L.check_leibniz().ok
    assert not L.is_lie()


def test_bracket_dimension_mismatch():
    L = nonlie_example()
    with pytest.raises(ValueError):
        bracket_vec(L, [F1, F0], basis_vec(3, 0))


def test_abelian_properties():
    for p, q in ((0, 0), (1, 1), (2, 3)):
        A = abelian(p, q)
        assert A.dim == p + q
        assert A.check_grading().ok and A.check_leibniz().ok and A.is_lie()
        assert all(not any(A.bracket(i, j)) for i in range(A.dim)
                   for j in range(A.dim))


def test_grading_violation_reported():
    # inject [z,z] = z: parity(z)+parity(z) = even but z is odd
    L = nonlie_example()
    L.table[2][2] = basis_vec(3, 2)
    rep = L.check_grading()
    assert not rep.ok
    assert rep.violations[0]["pair"] == ("z", "z")
    assert rep.violations[0]["component"] == "z"


def test_leibniz_violation_reported():
    # 2-dim even algebra with [y,x]=x and [x,y]=x fails the identity;
    # direct expansion puts the one nonzero defect at (x,y,y):
    # [[x,y],y] - [x,[y,y]] + [y,[x,y]] = [x,y] + [y,x] = 2x
    space = SuperSpace("bad", ("x", "y"), (0, 0))
    table = [[zeros(2) for _ in range(2)] for _ in range(2)]
    table[1][0] = basis_vec(2, 0)
    table[0][1] = basis_vec(2, 0)
    L = LeibnizSuperalgebra(space, table)
    rep = L.check_leibniz()
    assert not rep.ok
    assert [(v["triple"], v["defect"]) for v in rep.violations] == \
        [(("x", "y", "y"), "2*x")]


def test_leibniz_defects_with_fractional_constants_match_fraction_reference():
    # a graded but non-Leibniz table with coprime denominators and one
    # numerator above 2**64: every reported defect is the Fraction sum
    rng = random.Random(21)
    space = SuperSpace("frac", ("x", "y", "p", "q"), (0, 0, 1, 1))
    dim, par = space.dim, space.parities
    denoms = (2, 3, 7, 10007)
    table = [[[F(rng.randint(-4, 4), rng.choice(denoms))
               if par[k] == (par[i] + par[j]) & 1 else F0 for k in range(dim)]
              for j in range(dim)] for i in range(dim)]
    table[0][1][0] = F(2 ** 64 + 1, 7)
    L = LeibnizSuperalgebra(space, table)
    assert L.check_grading().ok
    expected = []
    for t in itertools.product(range(dim), repeat=3):
        acc = zeros(dim)
        fraction_leibniz_defect(table, table, par, *t, acc)
        if any(acc):
            expected.append((tuple(space.labels[i] for i in t), space.describe(acc)))
    rep = L.check_leibniz()
    assert expected and not rep.ok
    assert [(v["triple"], v["defect"]) for v in rep.violations] == expected


def test_is_lie_negative_and_positive():
    assert not nonlie_example().is_lie()
    # 3-dim even algebra embedding [u,v]=w, [v,u]=-w is antisymmetric
    space = SuperSpace("heis", ("u", "v", "w"), (0, 0, 0))
    table = [[zeros(3) for _ in range(3)] for _ in range(3)]
    table[0][1] = basis_vec(3, 2)
    table[1][0] = [-c for c in basis_vec(3, 2)]
    L = LeibnizSuperalgebra(space, table)
    assert L.check_leibniz().ok and L.is_lie()


def test_adjoint_module_matches_bracket():
    L = nonlie_example()
    M = adjoint_module(L)
    assert M.check_grading().ok
    assert M.check_axioms().ok
    assert bilinear(M.left, basis_vec(3, 1), basis_vec(3, 0), M.dim) == basis_vec(3, 0)


def test_adjoint_module_for_all_fixtures():
    for L in standard_fixtures():
        assert L.check_leibniz().ok
        assert adjoint_module(L).check_axioms().ok


def test_grading_violation_contents():
    # one bad entry per table: x.x and y.z land in the wrong parity
    L = nonlie_example()
    M = zero_module(L)
    M.left[0][0] = [F0, F0, F(2)]                   # [x, x] = 2z, z odd
    M.right[1][2] = [F(-1, 2), F0, F0]              # [y, z] = -x/2, x even
    assert M.check_grading().violations == [
        {"action": "left", "pair": ("x", "x"), "component": "z", "coeff": "2"},
        {"action": "right", "pair": ("y", "z"), "component": "x", "coeff": "-1/2"},
    ]
    A = matrix_1_1_associative()
    A.table[0][0] = [F1, F0, F(3), F0]              # e11 e11 = e11 + 3 e12
    assert A.check_grading().violations == [
        {"pair": ("e11", "e11"), "component": "e12", "coeff": "3"}]


def _random_values(rng, rows: int, cols: int, out: SuperSpace, want, ungraded: float):
    """rows x cols vectors over out: each coefficient nonzero with
    probability 1/3, over denominators up to 6; a component of the wrong
    parity (want(i, j) is the right one) only with probability ungraded."""
    return [[[F(rng.choice((-3, -2, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3, 6)))
              if rng.random() < 1 / 3
              and (out.parities[k] == want(i, j) or rng.random() < ungraded) else F0
              for k in range(out.dim)] for j in range(cols)] for i in range(rows)]


def _as_text(violations: list[dict]) -> list[dict]:
    return [{**v, "coeff": str(v["coeff"])} for v in violations]


def _dense_module_grading(M: SuperBimodule) -> list[dict]:
    asp, msp = M.algebra.space, M.space
    return ([{"action": "left", **v} for v in dense_grading_violations(M.left, asp, msp, msp)]
            + [{"action": "right", **v}
               for v in dense_grading_violations(M.right, msp, asp, msp)])


def test_grading_and_is_lie_match_their_dense_oracles():
    # the checks read the int form; each coefficient is written as text,
    # which must equal str() of the dense table's Fraction
    rng = random.Random(29)
    spaces = [SuperSpace("s", tuple(f"e{i}" for i in range(len(p))), p)
              for p in ((0,), (1, 1), (0, 0, 1), (0, 1, 1, 0), (1, 0, 1, 0, 1))]
    found = Counter()
    for sp in spaces * 4:
        par, dim = sp.parities, sp.dim
        table = _random_values(rng, dim, dim, sp, lambda i, j: (par[i] + par[j]) & 1,
                               rng.choice((0, 0.3)))
        for got, want in ((LeibnizSuperalgebra(sp, table).check_grading(),
                           dense_grading_violations(table, sp, sp, sp)),
                          (AssociativeSuperalgebra(sp, table).check_grading(),
                           dense_grading_violations(table, sp, sp, sp))):
            assert got.violations == _as_text(want) and got.ok == (not want)
            found["algebra violations"] += len(want)
        # a module on another space: an element x of the algebra acts as
        # zero on both sides, so scaled holds [] for it, and [m, -] = 0
        L = LeibnizSuperalgebra(sp, table)
        msp = spaces[rng.randrange(len(spaces))]
        left = _random_values(rng, dim, msp.dim, msp,
                              lambda x, m: (par[x] + msp.parities[m]) & 1, 0.2)
        right = _random_values(rng, msp.dim, dim, msp,
                               lambda m, x: (par[x] + msp.parities[m]) & 1, 0.2)
        x, m = rng.randrange(dim), rng.randrange(msp.dim)
        left[x] = [zeros(msp.dim) for _ in range(msp.dim)]
        right[m] = [zeros(msp.dim) for _ in range(dim)]
        for n in range(msp.dim):
            right[n][x] = zeros(msp.dim)
        M = SuperBimodule(L, msp, left, right)
        assert [] in M.scaled[2] and [] in M.scaled[3]
        found["module denominator > 1"] += M.scaled[0] > 1
        for mod in (M, adjoint_module(L), fraction_module(L), zero_module(L, msp)):
            want = _dense_module_grading(mod)
            assert mod.check_grading().violations == _as_text(want)
            found["module violations"] += len(want)
    assert found["algebra violations"] and found["module violations"]
    assert found["module denominator > 1"]
    # is_lie on graded antisymmetric tables (an even [a, a] is 0), on the
    # same tables with one coefficient moved, and on the fixtures
    algebras = standard_fixtures() + [sl2(), osp12(), free_truncated(spaces[2], 2)]
    for sp in spaces:
        par = sp.parities
        brackets = {(sp.labels[i], sp.labels[j]): {
            sp.labels[k]: F(rng.randint(-3, 3), rng.choice((1, 2, 3)))
            for k in range(sp.dim) if par[k] == (par[i] + par[j]) & 1}
            for i in range(sp.dim) for j in range(i, sp.dim) if i < j or par[i]}
        lie = lie_superalgebra("rand", sp.labels, sp.parities, brackets)
        broken = LeibnizSuperalgebra(sp, [[list(v) for v in row] for row in lie.table])
        i, j = rng.randrange(sp.dim), rng.randrange(sp.dim)
        broken.table[i][j][rng.randrange(sp.dim)] += F(1, 2)
        algebras += [lie, broken]
    answers = Counter()
    for L in algebras:
        assert L.is_lie() is dense_is_lie(L)
        answers[L.is_lie()] += 1
    assert answers == {True: 9, False: 10}


def test_zero_module_trivially_valid():
    for L in (nonlie_example(), abelian(2, 1)):
        Z = zero_module(L)
        assert Z.check_grading().ok and Z.check_axioms().ok


def test_zero_module_on_custom_space():
    # zero actions on an unrelated space over any algebra satisfy everything
    L = nonlie_example()
    W = SuperSpace("W", ("u0", "u1", "u2"), (0, 1, 1))
    Z = zero_module(L, W)
    assert Z.dim == 3 and Z.space.name == "W"
    assert Z.check_grading().ok and Z.check_axioms().ok


def test_negated_left_action_fails_axioms():
    # on the non-Lie example double brackets vanish, so negating the left
    # action survives axiom 1 but breaks the mixed axioms
    L = nonlie_example()
    M = adjoint_module(L)
    M.left = [[[-c for c in v] for v in row] for row in M.left]
    rep = M.check_axioms()
    assert not rep.ok
    assert {v["axiom"] for v in rep.violations} <= {2, 3}
    # with a nonzero iterated bracket, axiom 1 itself fails
    L2 = free_truncated(SuperSpace("V", ("v",), (1,)), 3)
    M2 = adjoint_module(L2)
    M2.left = [[[-c for c in v] for v in row] for row in M2.left]
    rep2 = M2.check_axioms()
    assert any(v["axiom"] == 1 for v in rep2.violations)


def _axiom_test_modules():
    """Every standard fixture with each of its modules, the same modules
    with a negated left action and with one perturbed right entry, and
    cochain-space modules."""
    out = []
    for L in standard_fixtures():
        for M in modules_for(L):
            out.append(M)
            neg = SuperBimodule(L, M.space, [[[-c for c in v] for v in row]
                                             for row in M.left], M.right)
            right = [[list(v) for v in row] for row in M.right]
            right[-1][0][-1] += F(-3, 7)
            out += [neg, SuperBimodule(L, M.space, M.left, right)]
    nonlie = nonlie_example()
    odd = free_truncated(SuperSpace("V", ("v",), (1,)), 3)
    out += [cochain_space_module(nonlie, adjoint_module(nonlie), 1),
            cochain_space_module(nonlie, adjoint_module(nonlie), 2),
            cochain_space_module(odd, zero_module(odd), 1)]
    return out


def test_check_axioms_matches_dense_oracle():
    # the semidirect-product Leibniz defect reports what the side-by-side
    # evaluation reports: same flag, same violations, same order
    modules = _axiom_test_modules()
    failing = 0
    for M in modules:
        got, want = M.check_axioms(), dense_check_axioms(M)
        assert got.ok == want.ok
        assert got.violations == want.violations
        failing += not want.ok
    assert len(modules) == 39 and failing == 15


def test_from_associative_identity_gives_lie():
    A = matrix_1_1_associative()
    ident = [basis_vec(4, j) for j in range(4)]
    L = from_associative(A, ident)
    assert L.check_leibniz().ok
    assert L.is_lie()
    assert not all(not any(L.bracket(i, j)) for i in range(4) for j in range(4))


def test_from_associative_zero_map_gives_abelian():
    A = matrix_1_1_associative()
    L = from_associative(A, [zeros(4) for _ in range(4)])
    assert all(not any(L.bracket(i, j)) for i in range(4) for j in range(4))


def test_from_associative_idempotent_projection():
    # projection onto span{e} inside upper-triangular 2x2 is an idempotent
    # algebra map, hence satisfies the compatibility equation
    A = upper_triangular_associative()
    t_map = [basis_vec(3, 0), zeros(3), zeros(3)]
    L = from_associative(A, t_map)
    assert L.check_grading().ok and L.check_leibniz().ok
    assert not L.is_lie()  # [e,n]=n but [n,e]=0


def test_from_associative_corner_projection_not_algebra_map():
    # T = projection onto e11 span is not an algebra map on matrix units,
    # yet satisfies the weaker compatibility equation; result is non-Lie
    L = corner_projection_algebra()
    assert L.check_grading().ok and L.check_leibniz().ok
    assert not L.is_lie()
    # [e11, e12] = e12, [e11, e21] = -e21, everything else zero
    assert L.bracket(0, 2) == basis_vec(4, 2)
    assert L.bracket(0, 3) == [-c for c in basis_vec(4, 3)]
    nonzero = {(i, j) for i in range(4) for j in range(4) if any(L.bracket(i, j))}
    assert nonzero == {(0, 2), (0, 3)}


def test_from_associative_rejects_bad_t():
    A = matrix_1_1_associative()
    # swap of the two odd units is degree 0 but violates the compatibility
    t_map = [basis_vec(4, 0), basis_vec(4, 1), basis_vec(4, 3), basis_vec(4, 2)]
    with pytest.raises(ValueError, match="fails on pair"):
        from_associative(A, t_map)
    # parity-violating map rejected
    t_map = [basis_vec(4, 2), zeros(4), zeros(4), zeros(4)]
    with pytest.raises(ValueError, match="degree 0"):
        from_associative(A, t_map)


def test_free_truncated_one_even_generator_depth_2():
    V = SuperSpace("V", ("v",), (0,))
    L = free_truncated(V, 2)
    assert L.dim == 2
    v, vv = basis_vec(2, 0), basis_vec(2, 1)
    assert bracket_vec(L, v, v) == vv
    assert bracket_vec(L, vv, v) == zeros(2)
    assert bracket_vec(L, v, vv) == zeros(2)
    assert bracket_vec(L, vv, vv) == zeros(2)
    assert L.check_grading().ok and L.check_leibniz().ok


def test_free_truncated_depth_1_abelian():
    V = SuperSpace("V", ("a", "b"), (0, 1))
    L = free_truncated(V, 1)
    assert L.dim == 2
    assert all(not any(L.bracket(i, j)) for i in range(2) for j in range(2))


def test_free_truncated_one_odd_generator_depth_3():
    V = SuperSpace("V", ("v",), (1,))
    L = free_truncated(V, 3)
    assert L.dim == 3
    assert L.space.parities == (1, 0, 1)
    assert L.check_grading().ok and L.check_leibniz().ok
    # [v,v] = vv, [v,vv] = vvv, [vv,v] = 2 vvv from the inductive rule
    assert L.bracket(0, 0) == basis_vec(3, 1)
    assert L.bracket(0, 1) == basis_vec(3, 2)
    assert L.bracket(1, 0) == [F(2) * c for c in basis_vec(3, 2)]


def test_free_truncated_two_generators_passes():
    V = SuperSpace("V", ("a", "b"), (0, 1))
    L = free_truncated(V, 2)
    assert L.dim == 6
    assert L.check_grading().ok and L.check_leibniz().ok


def test_vector_parity():
    L = nonlie_example()
    sp = L.space
    assert vector_parity(sp, zeros(3)) is None
    assert vector_parity(sp, basis_vec(3, 2)) == 1
    with pytest.raises(ValueError):
        vector_parity(sp, [F1, F0, F1])


def graded_jacobi_defect(L, i, j, k):
    """(-1)**(ac)[a,[b,c]] + (-1)**(ba)[b,[c,a]] + (-1)**(cb)[c,[a,b]]."""
    from superleibniz.algebra import koszul
    from superleibniz.linalg import add_scaled
    p = L.space.parities
    a, b, c = (basis_vec(L.dim, t) for t in (i, j, k))
    out = [F(0)] * L.dim
    add_scaled(out, koszul(p[i], p[k]), bracket_vec(L, a, bracket_vec(L, b, c)))
    add_scaled(out, koszul(p[j], p[i]), bracket_vec(L, b, bracket_vec(L, c, a)))
    add_scaled(out, koszul(p[k], p[j]), bracket_vec(L, c, bracket_vec(L, a, b)))
    return out


def test_lie_examples_satisfy_both_identity_forms():
    # on antisymmetric fixtures the Leibniz checker and the cyclic graded
    # Jacobi sum must both report no defects
    A = matrix_1_1_associative()
    lie = from_associative(A, [basis_vec(4, j) for j in range(4)])
    fixtures = [abelian(2, 2), lie]
    for L in fixtures:
        assert L.is_lie()
        assert L.check_leibniz().ok
        for i, j, k in itertools.product(range(L.dim), repeat=3):
            assert not any(graded_jacobi_defect(L, i, j, k))
