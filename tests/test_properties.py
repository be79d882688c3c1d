"""Property tests: basis independence of cohomology, delta(delta(f)) = 0 on
random algebras, the coboundary walk, its preimage and the Leibniz-defect
kernel against their oracles on random structure constants, delta of a
super-antisymmetric cochain on sl(2) and osp(1|2), defects written from
their ints against the Fraction form, rref's lazily reduced rows against
the dense oracle, and the CLI's exit codes on random and mutated
documents.

Hypothesis runs derandomized with a bounded number of examples and no
example database, so every run checks the same cases.
"""

import copy
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (matrix_1_1_associative, osp12, random_cochain, sl2,
                     standard_fixtures, super_antisymmetrized, swap_sign, transport,
                     upper_triangular_associative)
from oracles import (cochain_coords, cochain_from_coords, dense_delta, dense_rref,
                     dense_solve, enumerate_basis, fraction_delta_matrix,
                     fraction_describe, sparse, triple_walk_leibniz_defect)
from test_cli import ALG, GOLDEN, run
from superleibniz.algebra import (AssociativeSuperalgebra, LeibnizSuperalgebra,
                                  SuperBimodule, SuperSpace, adjoint_module,
                                  free_truncated, from_associative, leibniz_defect,
                                  nonlie_example, zero_module)
from superleibniz.cochain import Cochain, all_tuples, delta, tuple_index
from superleibniz.cohomology import Coboundary, cohomology_table, delta_matrix
from superleibniz.fileio import module_to_doc
from superleibniz.linalg import (F0, RatMatrix, basis_vec, lin_comb, rank, rref,
                                 scale_to_ints, zeros)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

FIXTURES = standard_fixtures()


@st.composite
def basis_changes(draw, parities):
    """An invertible matrix of image columns that maps each basis vector
    into the span of the basis vectors of its own parity."""
    dim = len(parities)
    cols = [[Fraction(draw(st.integers(-2, 2))) if parities[k] == parities[i] else F0
             for k in range(dim)] for i in range(dim)]
    assume(rank(RatMatrix(dim, [sparse(c) for c in cols])) == dim)
    return cols


def _dims(alg, mod):
    table = cohomology_table(alg, mod, 2)
    return [(e.dim_z, e.dim_b, e.dim_h) for _, e in sorted(table.entries.items())]


@PROPERTY
@given(st.data())
def test_cohomology_dimensions_do_not_depend_on_the_basis(data):
    alg = data.draw(st.sampled_from(FIXTURES))
    cols = data.draw(basis_changes(alg.space.parities))
    table, _ = transport(alg.table, cols)
    moved = LeibnizSuperalgebra(alg.space, table)
    assert moved.check_grading().ok and moved.check_leibniz().ok
    for module in (adjoint_module, zero_module):
        assert _dims(moved, module(moved)) == _dims(alg, module(alg))


def _delta_squared_vanishes(data, alg):
    mod = data.draw(st.sampled_from((adjoint_module(alg), zero_module(alg))))
    n = data.draw(st.integers(0, 2))
    f = random_cochain(alg, mod, n, data.draw(st.integers(0, 1)),
                       random.Random(data.draw(st.integers(0, 2 ** 16))))
    assert delta(delta(f)).is_zero()


@PROPERTY
@given(st.data())
def test_delta_squared_vanishes_on_random_free_truncated_algebras(data):
    parities = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))
    depth = data.draw(st.integers(1, 3 if len(parities) == 1 else 2))
    labels = tuple(f"g{i}" for i in range(len(parities)))
    alg = free_truncated(SuperSpace("V", labels, tuple(parities)), depth)
    _delta_squared_vanishes(data, alg)


# associative superalgebras with maps T satisfying T(a(Tb)) = (Ta)(Tb) = T((Ta)b);
# c*T satisfies them too, and so does T carried to another basis
def _projection(dim, kept):
    return [basis_vec(dim, j) if j in kept else zeros(dim) for j in range(dim)]


AVERAGING = ([(matrix_1_1_associative(), kept)
              for kept in ((0, 1, 2, 3), (0,), (1,), (0, 1))]
             + [(upper_triangular_associative(), kept)
                for kept in ((0, 1, 2), (0,), (1,))])


@PROPERTY
@given(st.data())
def test_delta_squared_vanishes_on_random_from_associative_algebras(data):
    assoc, kept = data.draw(st.sampled_from(AVERAGING))
    dim = assoc.dim
    c = Fraction(data.draw(st.sampled_from((1, -1, 2, 3))),
                 data.draw(st.sampled_from((1, 2))))
    cols = data.draw(basis_changes(assoc.space.parities))
    table, coords = transport(assoc.table, cols)
    t_map = _projection(dim, kept)
    # c*T carried to the new basis: f_j -> c*T(f_j) in f coordinates
    t_map = [lin_comb(coords, [c * x for x in lin_comb(t_map, col, dim)], dim)
             for col in cols]
    alg = from_associative(AssociativeSuperalgebra(assoc.space, table), t_map)
    _delta_squared_vanishes(data, alg)


# -- the coboundary walk against its oracles ----------------------------------

# mostly zeros, as in real structure constants, and some with denominators
COEFFS = st.sampled_from([F0] * 6 + [Fraction(c) for c in (1, -1, 2)]
                         + [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)])


def _space(draw, name, dim):
    parities = tuple(draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim)))
    return SuperSpace(name, tuple(f"{name}{i}" for i in range(dim)), parities)


def _table(draw, rows, cols, dim):
    return [[[draw(COEFFS) for _ in range(dim)] for _ in range(cols)] for _ in range(rows)]


@st.composite
def rough_structures(draw):
    """An algebra and a module whose constants obey neither the grading nor
    any identity; one bracket constant has denominator 2 or 3, so D > 1.
    The module is the adjoint one, the zero one, or one with dim M != dim L."""
    dim = draw(st.integers(1, 3))
    table = _table(draw, dim, dim, dim)
    i, j, k = (draw(st.integers(0, dim - 1)) for _ in range(3))
    table[i][j][k] = Fraction(draw(st.sampled_from((1, -1, 5))), draw(st.sampled_from((2, 3))))
    alg = LeibnizSuperalgebra(_space(draw, "x", dim), table)
    kind = draw(st.sampled_from(("adjoint", "zero", "other")))
    if kind == "adjoint":
        return alg, adjoint_module(alg)
    if kind == "zero":
        return alg, zero_module(alg)
    dm = draw(st.sampled_from([d for d in (1, 2, 3) if d != dim]))
    return alg, SuperBimodule(alg, _space(draw, "m", dm),
                              _table(draw, dim, dm, dm), _table(draw, dm, dim, dm))


@PROPERTY
@given(st.data())
def test_coboundary_walk_matches_its_oracles(data):
    alg, mod = data.draw(rough_structures())
    assert mod.scaled[0] > 1
    n = data.draw(st.integers(0, 3))
    parity = data.draw(st.integers(0, 1))
    assert delta_matrix(alg, mod, n, parity) == fraction_delta_matrix(alg, mod, n, parity)
    f = random_cochain(alg, mod, n, parity, random.Random(data.draw(st.integers(0, 2 ** 16))))
    assert delta(f) == dense_delta(f)


@PROPERTY
@given(st.data())
def test_preimage_is_the_canonical_dense_solve(data):
    # with D > 1 the int matrix is D*delta and f = rows/den: the preimage
    # of a coboundary f = delta(g0) solves delta(g) = f, and it is the
    # solve with free coordinates zero against the Fraction matrix.  These
    # constants ignore the grading, so delta leaves the parity component
    # and only its coordinates there are solved for; on a graded structure
    # they are all of f
    alg, mod = data.draw(rough_structures())
    n = data.draw(st.integers(0, 2))
    parity = data.draw(st.integers(0, 1))
    g0 = random_cochain(alg, mod, n, parity, random.Random(data.draw(st.integers(0, 2 ** 16))))
    f = delta(g0)
    den, (rows,) = scale_to_ints([f.coeffs])
    found = Coboundary(mod, n + 1).preimage(n, parity, den, rows)
    assert found is not None
    g = Cochain.from_table(alg, mod, n, parity, *found)
    enum, image = (enumerate_basis(alg, mod, k, parity) for k in (n, n + 1))
    assert cochain_coords(delta(g), image) == cochain_coords(f, image)
    if f == cochain_from_coords(alg, mod, n + 1, parity, cochain_coords(f, image), image):
        assert delta(g) == f
    x = dense_solve(fraction_delta_matrix(alg, mod, n, parity), cochain_coords(f, image))
    assert g == cochain_from_coords(alg, mod, n, parity, x, enum)


# -- the Leibniz-defect kernel against the triple walk --------------------------

# small ints, and some past 2**64, as the scaled constants of a large D give
INTS = st.one_of(st.integers(-3, 3).filter(bool),
                 st.integers(2 ** 64, 2 ** 70), st.integers(-2 ** 70, -2 ** 64))


@st.composite
def flat_tables(draw, dim):
    """A flat int table as scale_to_ints gives it: per pair (i, j) the
    nonzeros (k, x) by ascending k; each entry empty, sparse or dense."""
    table = []
    for _ in range(dim * dim):
        shape = draw(st.sampled_from(("empty", "empty", "sparse", "dense")))
        ks = (range(dim) if shape == "dense" else [] if shape == "empty"
              else sorted(draw(st.sets(st.integers(0, dim - 1), max_size=2))))
        table.append([(k, draw(INTS)) for k in ks])
    return table


@PROPERTY
@given(st.data())
def test_leibniz_defect_matches_the_triple_walk(data):
    dim = data.draw(st.integers(1, 4))
    parities = tuple(data.draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim)))
    pairs = [(data.draw(flat_tables(dim)), data.draw(flat_tables(dim)))
             for _ in range(data.draw(st.integers(0, 3)))]
    if pairs and data.draw(st.booleans()):
        pairs.append((pairs[0][0], pairs[0][0]))   # one table on both sides
    # every triple: one the kernel leaves out is the walk's zero vector,
    # and the kernel stores no zero vector
    found = leibniz_defect(pairs, parities)
    walked = triple_walk_leibniz_defect(pairs, parities)
    assert set(found) <= set(range(len(walked)))
    assert all(found.get(t, [0] * dim) == v for t, v in enumerate(walked))
    assert all(map(any, found.values()))


@PROPERTY
@given(st.data())
def test_describe_writes_each_int_as_its_fraction(data):
    space = data.draw(st.sampled_from([L.space for L in FIXTURES]))
    v = data.draw(st.lists(st.one_of(st.just(0), st.integers(-40, 40), INTS),
                           min_size=space.dim, max_size=space.dim))
    den = data.draw(st.one_of(st.just(1), st.integers(2, 60), st.integers(2 ** 64, 2 ** 70)))
    assert space.describe(v, den) == fraction_describe(space, v, den)


# -- the Chevalley-Eilenberg subcomplex -----------------------------------------

def super_antisymmetry_failures(f: Cochain) -> list[tuple]:
    """The (tuple, slot) pairs where swapping the arguments at slot and
    slot + 1 does not multiply f's value by their swap_sign."""
    dim, par = f.algebra.dim, f.algebra.space.parities
    bad = []
    for t in all_tuples(dim, f.arity):
        value = f.coeffs[tuple_index(t, dim)]
        for i in range(f.arity - 1):
            s = t[:i] + (t[i + 1], t[i]) + t[i + 2:]
            sign = swap_sign(par, t[i], t[i + 1])
            if f.coeffs[tuple_index(s, dim)] != [sign * c for c in value]:
                bad.append((t, i))
    return bad


SUBCOMPLEX_ALGEBRAS = {"sl2": sl2(), "osp12": osp12()}


@pytest.mark.parametrize("degree", [0, 1])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SUBCOMPLEX_ALGEBRAS))
@settings(PROPERTY, max_examples=5)
@given(seed=st.integers(0, 2 ** 32))
def test_delta_keeps_super_antisymmetric_cochains_super_antisymmetric(name, n, degree, seed):
    # on a Lie superalgebra with its adjoint module these cochains form the
    # Chevalley-Eilenberg subcomplex of the Leibniz complex
    alg = SUBCOMPLEX_ALGEBRAS[name]
    f = super_antisymmetrized(random_cochain(alg, adjoint_module(alg), n, degree,
                                             random.Random(seed)))
    assert super_antisymmetry_failures(f) == []
    assert super_antisymmetry_failures(delta(f)) == []
    # odd cochains on the purely even sl(2) vanish
    assert f.is_zero() == ((name, degree) == ("sl2", 1))


# -- rref's rows, reduced on first read, against the dense oracle --------------

# zeros, small ints, ints past 2**64 and Fractions, mixed in one matrix
ENTRIES = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), INTS,
                    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))


@st.composite
def lazy_cases(draw):
    """Up to 6x6 with zero rows and zero columns; a row may be a multiple
    of an earlier one, so that ranks drop."""
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    zero_cols = draw(st.sets(st.integers(0, 5)))
    rows = []
    for _ in range(r):
        kind = draw(st.sampled_from(("new", "new", "zero", "multiple")))
        if kind == "multiple" and rows:
            k = draw(st.sampled_from((2, -1, Fraction(1, 3), 2 ** 65)))
            rows.append({j: k * x for j, x in draw(st.sampled_from(rows)).items()})
        else:
            cells = [] if kind == "zero" else [j for j in range(c) if j not in zero_cols]
            rows.append({j: x for j in cells if (x := draw(ENTRIES))})
    return RatMatrix(c, rows)


@PROPERTY
@given(lazy_cases(), st.booleans())
def test_rref_rows_reduced_on_first_read_match_the_dense_oracle(m, entries_first):
    want, pivots = dense_rref(m)
    assert rank(m) == len(rref(m)[1]) == len(pivots)
    red, got = rref(m)
    assert got == pivots and (red.rows, red.cols) == (want.rows, want.cols)
    for _ in range(2):
        if entries_first:
            assert red.entries == want.entries
        assert red.sparse_rows == want.sparse_rows and red.entries == want.entries
    # == and transpose on a result whose rows nothing has read yet
    assert rref(m)[0] == want and want == rref(m)[0] and rref(m)[0] == rref(m)[0]
    assert rref(m)[0].transpose() == want.transpose()


# -- the CLI on random and mutated documents -----------------------------------

def _golden(name):
    return json.loads((GOLDEN / name).read_text())


DOCUMENTS = {
    "algebra": [_golden("nonlie3.json"), _golden("abelian11.json")],
    "module": [module_to_doc(adjoint_module(nonlie_example())),
               module_to_doc(zero_module(nonlie_example()))],
    "cochain": [_golden("cocycle_h.json"), _golden("noncocycle.json")],
    "deformation": [_golden("deform_zz_to_x.json"), _golden("deform_trivial2.json")],
}

VERBS = {
    "algebra": [["validate", "{}"], ["cohomology", "{}", "--max-n", "1"]],
    "module": [["cohomology", ALG, "--module", "{}", "--max-n", "1"]],
    "cochain": [["extend", ALG, "--cocycle", "{}"]],
    "deformation": [["deform", "check", ALG, "--deformation", "{}"],
                    ["deform", "extend", ALG, "--deformation", "{}"]],
}

KEYS = ["name", "basis", "label", "parity", "brackets", "left", "right", "value",
        "coeff", "arity", "degree", "entries", "args", "order", "terms", "1", "2",
        "01", "extra"]

# Integers stay small: arity and order size the tables the loader allocates.
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 5),
                   st.sampled_from([0.5, 2.0]),
                   st.sampled_from(["x", "y", "z", "even", "odd", "1", "-1/2", "1/0",
                                    "2.5", "", "01", "a0", "b0"]))
VALUES = st.recursive(LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=3), st.dictionaries(st.sampled_from(KEYS), kids, max_size=3)),
    max_leaves=8)


def _mutate(draw, node):
    """node with one random change at a random depth: a value replaced, or
    a member of an object or list deleted or added."""
    if isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                   else range(len(node))))
        node[key] = _mutate(draw, node[key])
        return node
    action = draw(st.sampled_from(("replace", "delete", "add")))
    if action == "replace" or not isinstance(node, (dict, list)):
        return draw(VALUES)
    if action == "delete" and node:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                   else range(len(node))))
        del node[key]
    elif isinstance(node, dict):
        node[draw(st.sampled_from(KEYS))] = draw(VALUES)
    else:
        node.append(draw(VALUES))
    return node


@st.composite
def documents(draw, kind):
    """Bytes of a random document, or of a canonical one with a few random
    changes, sometimes with a few bytes spliced in as well."""
    if draw(st.integers(0, 4)) == 0:
        doc = draw(VALUES)
    else:
        doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS[kind])))
        for _ in range(draw(st.integers(1, 3))):
            doc = _mutate(draw, doc)
    text = json.dumps(doc).encode()
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(text)))
        cut = at + draw(st.integers(0, 3))
        text = text[:at] + draw(st.binary(max_size=3)) + text[cut:]
    return text


@settings(PROPERTY, max_examples=300)
@given(data=st.data())
def test_random_and_mutated_documents_never_crash_the_cli(tmp_path_factory, data):
    kind = data.draw(st.sampled_from(sorted(DOCUMENTS)))
    path = tmp_path_factory.getbasetemp() / f"fuzz-{kind}.json"
    path.write_bytes(data.draw(documents(kind)))
    for verb in VERBS[kind]:
        code, out, err = run([str(path) if a == "{}" else a for a in verb])
        assert code in (0, 1, 2), err
        assert "Traceback" not in err
        if code == 2:
            assert out == "" and err.startswith("error: ")
