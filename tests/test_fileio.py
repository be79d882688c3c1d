import json
import pathlib
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import standard_fixtures
from oracles import parse_rational
from test_cli import run
from test_cohomology import _denominator_algebra
from superleibniz.algebra import adjoint_module, nonlie_example, zero_module
from superleibniz.cochain import Cochain, tuple_index
from superleibniz.deformation import TruncatedDeformation
from superleibniz.fileio import (ParseError, algebra_from_doc, algebra_to_doc,
                                 canonical_json, cochain_from_doc, cochain_to_doc,
                                 deformation_from_doc, deformation_to_doc,
                                 load_algebra, load_cochain, load_deformation,
                                 load_module, module_from_doc, module_to_doc,
                                 save_algebra, series_to_doc)
from superleibniz.linalg import basis_vec

F = Fraction
GOLDEN = pathlib.Path(__file__).parent / "golden"


# -- rationals ----------------------------------------------------------------

def test_parse_rational_accepted_forms():
    assert parse_rational("3") == F(3)
    assert parse_rational("-1/2") == F(-1, 2)
    assert parse_rational("+4/6") == F(2, 3)
    assert parse_rational(7) == F(7)


REJECTED_FORMS = ["1.5", "1e3", ".5", "1/0", "a", "1/2/3", "", 1.5, True, None, [1],
                  # non-ASCII digits and a trailing newline
                  "\u0663", "\uff13", "\u0663/\u0664", "1\n", "1/2\n"]


@pytest.mark.parametrize("bad", REJECTED_FORMS)
def test_parse_rational_rejected_forms(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


def _refusal(bad) -> str:
    """The message a coefficient bad is refused with, after the place that
    names its entry and label; past the digit limit, its first part only."""
    if isinstance(bad, str) and re.fullmatch(r"[+-]?[0-9]+/0+", bad):
        return f"zero denominator in {bad!r}"
    if isinstance(bad, str) and len(bad) > 4300:
        return f"coefficient {bad[:20]!r}...: Exceeds the limit"
    if isinstance(bad, str):
        return f"cannot parse {bad!r} as an exact rational"
    if isinstance(bad, float):
        return f'floating-point coefficient {bad!r} rejected; write an exact rational like "-1/2"'
    return f"not a rational coefficient: {bad!r}"


def _coefficient_places(bad):
    """(read, message prefix, CLI verb or None) for a coefficient bad as a
    deformation term's, a cochain value's and a bracket's coefficient."""
    L = nonlie_example()
    M = adjoint_module(L)
    entry = {"args": ["y", "x"], "value": [{"label": "x", "coeff": bad}]}
    deformation = {"order": 1, "terms": {"1": {"entries": [entry]}}}
    cochain = {"arity": 2, "degree": "even", "entries": [entry]}
    algebra = {**algebra_to_doc(L),
               "brackets": [{"left": "y", "right": "x",
                             "value": [{"label": "x", "coeff": bad}]}]}
    return [(lambda: deformation_from_doc(deformation, L),
             "term 1: cochain entry ['y', 'x']: label 'x': ",
             (deformation, ["deform", "check", str(GOLDEN / "nonlie3.json"), "--deformation"])),
            (lambda: cochain_from_doc(cochain, L, M),
             "cochain entry ['y', 'x']: label 'x': ", None),
            (lambda: algebra_from_doc(algebra), "bracket (y,x): label 'x': ",
             (algebra, ["validate"]))]


@pytest.mark.parametrize("bad", REJECTED_FORMS + ["1/00", "+0/00", "1/-2", "1" * 5000,
                                                  "1/" + "1" * 5000])
def test_a_refused_coefficient_names_its_place_in_every_document(tmp_path, bad):
    want_end = _refusal(bad)
    for read, place, cli in _coefficient_places(bad):
        with pytest.raises(ParseError) as exc:
            read()
        message = str(exc.value)
        assert message.startswith(place + want_end)
        assert message == place + want_end or want_end.endswith("Exceeds the limit")
        if cli is not None:
            doc, verb = cli
            p = tmp_path / "doc.json"
            p.write_text(json.dumps(doc))
            code, out, err = run(verb + [str(p)])
            assert (code, out, err) == (2, "", f"error: {message}\n")


# -- algebra files --------------------------------------------------------------

def test_algebra_round_trip_byte_exact():
    for L in standard_fixtures():
        doc = algebra_to_doc(L)
        text = canonical_json(doc)
        L2 = algebra_from_doc(json.loads(text))
        assert L2 == L
        assert canonical_json(algebra_to_doc(L2)) == text


def test_committed_algebra_file_is_canonical():
    path = GOLDEN / "nonlie3.json"
    text = path.read_text()
    L = algebra_from_doc(json.loads(text))
    assert canonical_json(algebra_to_doc(L)) == text
    assert L == nonlie_example()


def test_algebra_duplicate_bracket_rejected():
    doc = algebra_to_doc(nonlie_example())
    doc["brackets"].append(dict(doc["brackets"][0]))
    with pytest.raises(ParseError, match="duplicate"):
        algebra_from_doc(doc)


def test_algebra_unknown_label_rejected():
    doc = algebra_to_doc(nonlie_example())
    doc["brackets"][0]["left"] = "w"
    with pytest.raises(ParseError, match="w"):
        algebra_from_doc(doc)


def test_algebra_float_coeff_rejected():
    doc = algebra_to_doc(nonlie_example())
    doc["brackets"][0]["value"][0]["coeff"] = 0.5
    with pytest.raises(ParseError, match="float"):
        algebra_from_doc(doc)


def test_algebra_bad_parity_rejected():
    doc = algebra_to_doc(nonlie_example())
    doc["basis"][0]["parity"] = "mixed"
    with pytest.raises(ParseError, match="parity"):
        algebra_from_doc(doc)


def test_invalid_json_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{\n  \"basis\": [,]\n}")
    with pytest.raises(ParseError, match="line 2"):
        load_algebra(str(p))


def test_omitted_pairs_mean_zero():
    doc = {"name": "a", "basis": [{"label": "u", "parity": "even"}],
           "brackets": []}
    L = algebra_from_doc(doc)
    assert not any(L.bracket(0, 0))


# -- module files -----------------------------------------------------------------

def test_module_round_trip():
    for L in standard_fixtures():
        for M in (adjoint_module(L), zero_module(L)):
            text = canonical_json(module_to_doc(M))
            M2 = module_from_doc(json.loads(text), L)
            assert M2 == M
            assert canonical_json(module_to_doc(M2)) == text


def test_zero_module_round_trip():
    L = nonlie_example()
    Z = zero_module(L)
    doc = module_to_doc(Z)
    assert doc["left"] == [] and doc["right"] == []
    assert module_from_doc(doc, L) == Z


# -- structure tables: the bracket and the two actions ------------------------

TABLES = [("brackets", "bracket"), ("left", "left action"),
          ("right", "right action")]


def _table_doc(key):
    """A nonlie3 document holding the table under key, and its loader."""
    L = nonlie_example()
    if key == "brackets":
        return algebra_to_doc(L), algebra_from_doc
    return module_to_doc(adjoint_module(L)), lambda doc: module_from_doc(doc, L)


@pytest.mark.parametrize("key,what", TABLES)
def test_duplicate_table_entry_names_the_table_and_pair(key, what):
    doc, load = _table_doc(key)
    ent = doc[key][0]
    doc[key].append(dict(ent))
    pair = f"({ent['left']!r}, {ent['right']!r})"
    with pytest.raises(ParseError, match=re.escape(f"duplicate {what} entry {pair}")):
        load(doc)


@pytest.mark.parametrize("field", ["left", "right", "value"])
@pytest.mark.parametrize("key,what", TABLES)
def test_unknown_table_label_names_the_table_and_label(key, what, field):
    doc, load = _table_doc(key)
    ent = doc[key][0]
    if field == "value":
        ent["value"] = [{"label": "w", "coeff": "1"}]
    else:
        ent[field] = "w"
    with pytest.raises(ParseError) as exc:
        load(doc)
    msg = str(exc.value)
    assert msg.startswith(what) and "'w'" in msg


# -- cochain files ----------------------------------------------------------------

def test_cochain_round_trip():
    L = nonlie_example()
    M = adjoint_module(L)
    f = Cochain.zero(L, M, 2, 0)
    f.coeffs[tuple_index((2, 2), 3)] = basis_vec(3, 0)
    doc = cochain_to_doc(f)
    f2 = cochain_from_doc(json.loads(canonical_json(doc)), L, M)
    assert f2 == f


def test_cochain_homogeneity_validated_on_load():
    L = nonlie_example()
    M = adjoint_module(L)
    doc = {"arity": 2, "degree": "even",
           "entries": [{"args": ["z", "z"],
                        "value": [{"label": "z", "coeff": "1"}]}]}
    with pytest.raises(ParseError, match="homogeneity"):
        cochain_from_doc(doc, L, M)


def test_cochain_boolean_arity_rejected():
    L = nonlie_example()
    M = adjoint_module(L)
    with pytest.raises(ParseError, match="arity"):
        cochain_from_doc({"arity": True, "degree": "even", "entries": []}, L, M)


def test_cochain_wrong_arg_count_rejected():
    L = nonlie_example()
    M = adjoint_module(L)
    doc = {"arity": 2, "degree": "even",
           "entries": [{"args": ["z"], "value": []}]}
    with pytest.raises(ParseError, match="args"):
        cochain_from_doc(doc, L, M)


# -- deformation files ---------------------------------------------------------------

def test_deformation_round_trip_with_gaps():
    L = nonlie_example()
    M = adjoint_module(L)
    mu2 = Cochain.zero(L, M, 2, 0)
    mu2.coeffs[tuple_index((2, 2), 3)] = basis_vec(3, 0)
    d = TruncatedDeformation(L, [Cochain.zero(L, M, 2, 0), mu2], M)
    doc = deformation_to_doc(d)
    assert list(doc["terms"]) == ["2"]     # zero terms omitted
    d2 = deformation_from_doc(json.loads(canonical_json(doc)), L)
    assert d2 == d


COEFFS = st.one_of(st.integers(-30, 30).filter(bool), st.integers(2 ** 64, 2 ** 70),
                   st.integers(-2 ** 70, -2 ** 64))


@st.composite
def int_series(draw, even=False):
    """A series over _denominator_algebra() whose terms are random flat int
    tables (negative ints and ints past 2**64) over random denominators,
    added one by one; with even, each term is an even cochain, as a
    deformation file holds it."""
    L = _denominator_algebra()
    d = TruncatedDeformation.zero(L, 3)
    dim, par = L.dim, L.space.parities
    for power in draw(st.sets(st.integers(1, 3))):
        table = [[] for _ in range(dim * dim)]
        for idx in draw(st.sets(st.integers(0, dim * dim - 1), min_size=1, max_size=6)):
            keys = (st.sampled_from([k for k in range(dim)
                                     if par[k] == par[idx // dim] ^ par[idx % dim]])
                    if even else st.integers(0, dim - 1))
            ks = sorted(draw(st.sets(keys, min_size=1, max_size=3)))
            table[idx] = [(k, draw(COEFFS)) for k in ks]
        d.add([(power, draw(st.sampled_from([1, 2, 12, 2 ** 70 + 1])), table)])
    return d


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(int_series())
def test_series_coefficients_are_written_as_their_fractions(d):
    # every coefficient is x/D written as str(Fraction(x, D)) writes it
    assert d.den > 1   # the bracket's own denominator
    asp = d.algebra.space
    pairs = [(a, b) for a in asp.labels for b in asp.labels]
    want = {str(i): [{"args": list(pairs[idx]),
                      "value": [{"label": asp.labels[k], "coeff": str(Fraction(x, d.den))}
                                for k, x in row]}
                     for idx, row in enumerate(table) if row]
            for i, table in d.tables.items() if i}
    assert series_to_doc(d) == want


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(int_series(even=True))
def test_loading_builds_the_series_the_term_by_term_path_builds(d):
    # the loader adds every term at once; the strategy adds them one by one
    doc = json.loads(canonical_json(deformation_to_doc(d)))
    loaded = deformation_from_doc(doc, d.algebra)
    assert loaded == d and loaded.den == d.den and loaded.tables == d.tables


def test_loading_rescales_each_stored_term_at_most_once(monkeypatch):
    # N terms over pairwise coprime denominators raise D at every term; the
    # loader rescales the unit once and scales each term once to the lcm
    import superleibniz.deformation as deformation
    scaled = []
    original = deformation._scaled

    def counted(table, mul, div=1):
        scaled.append(table)
        return original(table, mul, div)

    monkeypatch.setattr(deformation, "_scaled", counted)
    L = nonlie_example()
    primes = [2, 3, 5, 7, 11, 13, 17, 19]
    doc = {"order": len(primes), "terms": {
        str(i): {"entries": [{"args": ["z", "z"],
                              "value": [{"label": "x", "coeff": f"1/{p}"}]}]}
        for i, p in enumerate(primes, start=1)}}
    d = deformation_from_doc(doc, L)
    assert len(scaled) <= len(primes) + 1
    step = TruncatedDeformation.zero(L, len(primes))
    for i, p in enumerate(primes, start=1):
        step.add([(i, p, [[] for _ in range(8)] + [[(0, 1)]])])
    assert d == step and d.den == 9699690


def test_deformation_bad_keys_rejected():
    L = nonlie_example()
    M = adjoint_module(L)
    with pytest.raises(ParseError, match="outside"):
        deformation_from_doc({"order": 1, "terms": {"5": {"entries": []}}}, L)
    with pytest.raises(ParseError, match="order"):
        deformation_from_doc({"order": -1, "terms": {}}, L)


@pytest.mark.parametrize("key", ["01", "+1", " 1", "1 ", "1.0", "\u0661", "0", ""])
def test_deformation_term_keys_must_be_canonical_decimals(key):
    # int() accepts most of these, but the loader reads term i under str(i)
    # only, so such a term would silently be read as zero
    L = nonlie_example()
    M = adjoint_module(L)
    term = json.loads((GOLDEN / "deform_zz_to_x.json").read_text())["terms"]["1"]
    assert (deformation_from_doc({"order": 1, "terms": {"1": term}}, L)
            != TruncatedDeformation.zero(L, 1, M))
    with pytest.raises(ParseError, match=re.escape(f"term key {key!r}")):
        deformation_from_doc({"order": 1, "terms": {key: term}}, L)


def test_deformation_boolean_order_rejected():
    L = nonlie_example()
    M = adjoint_module(L)
    with pytest.raises(ParseError, match="order"):
        deformation_from_doc({"order": True, "terms": {}}, L)


@pytest.mark.parametrize("kind", ["algebra", "module", "cochain", "deformation"])
def test_unknown_top_level_key_rejected(kind):
    L = nonlie_example()
    M = adjoint_module(L)
    docs = {
        "algebra": (algebra_to_doc(L), algebra_from_doc),
        "module": (module_to_doc(M), lambda doc: module_from_doc(doc, L)),
        "cochain": (cochain_to_doc(Cochain.zero(L, M, 2, 0)),
                    lambda doc: cochain_from_doc(doc, L, M)),
        "deformation": (deformation_to_doc(TruncatedDeformation.zero(L, 1, M)),
                        lambda doc: deformation_from_doc(doc, L)),
    }
    doc, parse = docs[kind]
    parse(doc)   # the canonical document loads
    doc["extra"] = 1
    with pytest.raises(ParseError, match=f"unknown key.*'extra'.*{kind}"):
        parse(doc)


@pytest.mark.parametrize("kind", ["algebra", "module", "cochain", "deformation"])
def test_duplicate_object_keys_rejected(tmp_path, kind):
    # json.loads alone lets the last duplicate win silently
    L = nonlie_example()
    M = adjoint_module(L)
    zz = json.loads((GOLDEN / "deform_zz_to_x.json").read_text())["terms"]["1"]
    dump = json.dumps
    texts = {
        "algebra": (dump(algebra_to_doc(L))[:-1] + ', "brackets": []}',
                    "brackets", load_algebra),
        "module": (dump(module_to_doc(M))[:-1] + ', "left": []}',
                   "left", lambda path: load_module(path, L)),
        "cochain": ('{"arity": 2, "degree": "even", "entries": [{"args": ["z", "z"], '
                    '"value": [{"label": "x", "coeff": "1", "coeff": "2"}]}]}',
                    "coeff", lambda path: load_cochain(path, L, M)),
        "deformation": ('{"order": 1, "terms": {"1": ' + dump(zz)
                        + ', "1": {"entries": []}}}',
                        "1", lambda path: load_deformation(path, L)),
    }
    text, key, load = texts[kind]
    p = tmp_path / "doc.json"
    p.write_text(text)
    with pytest.raises(ParseError, match=f"duplicate key {key!r}"):
        load(str(p))


# -- the bytes of a file ------------------------------------------------------

def load_error(path) -> str:
    with pytest.raises(ParseError) as info:
        load_algebra(str(path))
    return str(info.value)


def test_non_utf8_file_is_a_parse_error_naming_the_file(tmp_path):
    # and the offset of its first bad byte
    p = tmp_path / "latin1.json"
    p.write_bytes('{"name": "caf\u00e9", "basis": []}'.encode("latin-1"))
    assert load_error(p) == f"{p}: not UTF-8 text (invalid continuation byte at byte 13)"


def test_a_utf8_byte_order_mark_is_refused(tmp_path):
    # as json.loads refuses a str that starts with one
    p = tmp_path / "bom.json"
    p.write_bytes(b"\xef\xbb\xbf" + (GOLDEN / "nonlie3.json").read_bytes())
    assert load_error(p) == ("invalid JSON at line 1, column 1: "
                             "Unexpected UTF-8 BOM (decode using utf-8-sig)")


def test_a_crlf_file_reads_as_its_lf_twin(tmp_path):
    # the file is read as bytes, with no newline translation; JSON reads
    # CR as whitespace, and an error's line and column stay the LF file's
    lf = (GOLDEN / "nonlie3.json").read_bytes()
    assert b"\r" not in lf
    p = tmp_path / "crlf.json"
    p.write_bytes(lf.replace(b"\n", b"\r\n"))
    assert load_algebra(str(p)) == load_algebra(str(GOLDEN / "nonlie3.json"))
    broken = b'{\n  "basis": [,]\n}'
    (tmp_path / "lf.json").write_bytes(broken)
    p.write_bytes(broken.replace(b"\n", b"\r\n"))
    assert load_error(p) == load_error(tmp_path / "lf.json") \
        == "invalid JSON at line 2, column 13: Expecting value"


def test_integers_past_the_digit_limit_are_parse_errors(tmp_path):
    big = "1" * 5000
    with pytest.raises(ParseError, match="coefficient"):
        parse_rational(big)
    with pytest.raises(ParseError, match="coefficient"):
        parse_rational("1/" + big)
    p = tmp_path / "big.json"
    p.write_text('{"arity": ' + big + '}')
    with pytest.raises(ParseError, match="invalid JSON"):
        load_cochain(str(p), nonlie_example(), adjoint_module(nonlie_example()))


def test_deeply_nested_json_is_a_parse_error(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(ParseError, match="invalid JSON"):
        load_algebra(str(p))


def test_save_algebra_writes_canonical_bytes(tmp_path):
    L = nonlie_example()
    p = tmp_path / "alg.json"
    save_algebra(L, str(p))
    assert p.read_text() == (GOLDEN / "nonlie3.json").read_text()


# -- the canonical JSON writer -------------------------------------------------

def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_canonical_json_matches_json_dumps_on_the_goldens(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert canonical_json(doc) == dumps(doc)


# labels with quotes, escapes, control and non-ASCII characters
TEXT = st.text(alphabet=st.sampled_from('xyz"\\/\n\t\x01é⊗𝕊 '), max_size=4)
JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30) | TEXT,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(TEXT, kids, max_size=3),
    max_leaves=12)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(JSON_DOCS)
def test_canonical_json_matches_json_dumps(doc):
    assert canonical_json(doc) == dumps(doc)


@pytest.mark.parametrize("doc", [1.5, (1, 2), {1: "a"}, {"a": [Fraction(1, 2)]}])
def test_canonical_json_refuses_what_the_library_never_writes(doc):
    with pytest.raises(TypeError):
        canonical_json(doc)
