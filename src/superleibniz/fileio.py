"""File formats: algebras, modules, cochains, deformations.

All formats are JSON documents with exact rational coefficients encoded
as strings ("3", "-1/2"); floats are a parse error, zero entries are
omitted, and serialization is canonical (sorted keys, two-space indent,
entries ordered by basis index) so that round-trips are byte-exact.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring
from math import lcm

from .algebra import (EVEN, ODD, LeibnizSuperalgebra, SuperBimodule, SuperSpace)
from .cochain import Cochain, all_tuples
from .deformation import Series, TruncatedDeformation
from .linalg import ratio_str, zeros


class ParseError(ValueError):
    """Malformed or semantically invalid input document."""


class DimensionCapError(ParseError):
    """An algebra or module document whose basis is longer than the caller's cap."""

    def __init__(self, dim: int, cap: int, what: str = "algebra"):
        super().__init__(f"{what} dimension {dim} exceeds the cap {cap}")
        self.dim = dim


_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")   # ASCII digits only


def rational_parts(value) -> tuple[int, int]:
    """An exact rational from an integer or a 'p' / 'p/q' string, no floats,
    as a numerator and a positive denominator, not reduced.  A string is
    one fullmatch, whose groups are read with int."""
    if isinstance(value, str):
        match = _RATIONAL_RE.fullmatch(value)
        if match is None:
            raise ParseError(f"cannot parse {value!r} as an exact rational")
        num, den = match.groups()
        try:
            num, den = int(num), int(den) if den else 1
        except ValueError as exc:   # past the interpreter's integer digit limit
            raise ParseError(f"coefficient {value[:20]!r}...: {exc}") from exc
        if den == 0:
            raise ParseError(f"zero denominator in {value!r}")
        return num, den
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    if isinstance(value, float):
        raise ParseError(f"floating-point coefficient {value!r} rejected; "
                         "write an exact rational like \"-1/2\"")
    raise ParseError(f"not a rational coefficient: {value!r}")


def _nonnegative_int(doc: dict, key: str) -> int:
    value = doc.get(key)
    # bool is a subclass of int; true must not be read as 1
    if type(value) is not int or value < 0:
        raise ParseError(f"{key!r} must be a nonnegative integer")
    return value


def _check_keys(doc: dict, allowed: tuple[str, ...], what: str) -> None:
    unknown = sorted(k for k in doc if k not in allowed)
    if unknown:
        raise ParseError(f"unknown key(s) {', '.join(map(repr, unknown))} in "
                         f"{what} document; allowed: {', '.join(allowed)}")


def _entry_list(doc: dict, key: str, fields: tuple[str, ...], what: str) -> list[dict]:
    """doc[key] (default empty) as a list of objects that carry every field."""
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise ParseError(f"{key!r} must be a list")
    for ent in entries:
        if not isinstance(ent, dict):
            raise ParseError(f"{what} entries must be objects")
        for field in fields:
            if field not in ent:
                raise ParseError(f"{what} entry missing {field!r}")
    return entries


_PARITY_NAMES = {"even": EVEN, "odd": ODD}
_PARITY_WORDS = {EVEN: "even", ODD: "odd"}


def parity_name(p: int) -> str:
    return _PARITY_WORDS[p]


def canonical_json(doc) -> str:
    """json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\\n",
    byte for byte, for documents of dicts with str keys, lists, str, int,
    bool and None; anything else raises TypeError.  (With an indent the
    json module encodes in pure Python; this writer does less.)"""
    out: list[str] = []
    _write_json(doc, "\n", out)
    out.append("\n")
    return "".join(out)


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _write_json(value, pad: str, out: list[str]) -> None:
    """Append value's encoding to out; pad is the newline and indent of its line."""
    kind, inner = type(value), pad + "  "
    if kind is str:
        out.append(encode_basestring(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is bool or value is None:
        out.append(_JSON_CONSTANTS[value])
    elif kind is list and value:
        for i, item in enumerate(value):
            out.append(("," if i else "[") + inner)
            _write_json(item, inner, out)
        out.append(pad + "]")
    elif kind is dict and value:
        for i, key in enumerate(sorted(value)):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(("," if i else "{") + inner + encode_basestring(key) + ": ")
            _write_json(value[key], inner, out)
        out.append(pad + "}")
    elif kind is list or kind is dict:
        out.append("[]" if kind is list else "{}")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def save_doc(doc, path: str) -> None:
    """Write doc to path as canonical_json gives it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))


def _unique_keys(pairs: list[tuple]) -> dict:
    """A JSON object as a dict; a key given twice is an error, not a last win."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"duplicate key {key!r} in a JSON object")
            seen.add(key)
    return doc


def _load_json(path: str):
    """The JSON document in the file at path; malformed text is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.loads(fh.read(), object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from exc
    except ParseError:
        raise
    except (ValueError, RecursionError) as exc:   # a huge integer, deep nesting
        raise ParseError(f"invalid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# basis / value helpers
# ---------------------------------------------------------------------------

def _space_from_doc(doc, what: str) -> SuperSpace:
    if not isinstance(doc, dict):
        raise ParseError(f"{what} document must be a JSON object")
    basis = doc.get("basis")
    if not isinstance(basis, list) or not basis:
        raise ParseError(f"{what} needs a nonempty 'basis' list")
    labels = []
    parities = []
    for ent in basis:
        if not isinstance(ent, dict) or "label" not in ent or "parity" not in ent:
            raise ParseError("each basis entry needs 'label' and 'parity'")
        lab = ent["label"]
        par = ent["parity"]
        if not isinstance(lab, str) or not lab:
            raise ParseError(f"bad basis label {lab!r}")
        if not isinstance(par, str) or par not in _PARITY_NAMES:
            raise ParseError(f"parity must be 'even' or 'odd', got {par!r}")
        labels.append(lab)
        parities.append(_PARITY_NAMES[par])
    if len(set(labels)) != len(labels):
        raise ParseError(f"duplicate basis labels in {what}")
    name = doc.get("name", what)
    if not isinstance(name, str):
        raise ParseError("'name' must be a string")
    return SuperSpace(name, tuple(labels), tuple(parities))


def _space_to_doc(space: SuperSpace) -> dict:
    return {
        "name": space.name,
        "basis": [{"label": lab, "parity": parity_name(par)}
                  for lab, par in zip(space.labels, space.parities)],
    }


def _sparse_value(value, space: SuperSpace) -> list[tuple[int, int, int]]:
    """The nonzero terms of a value list as (k, numerator, denominator), by
    ascending basis index k; a label may not repeat.  The caller prefixes
    an error with the entry it read, so no message is built otherwise."""
    if not isinstance(value, list):
        raise ParseError("'value' must be a list")
    out, seen = [], set()
    for term in value:
        if not isinstance(term, dict) or "label" not in term or "coeff" not in term:
            raise ParseError("value terms need 'label' and 'coeff'")
        label = term["label"]
        try:
            k = space.index(label)
        except KeyError:
            raise ParseError(f"unknown label {label!r}")
        if k in seen:
            raise ParseError(f"duplicate value term for label {label!r}")
        seen.add(k)
        try:
            num, den = rational_parts(term["coeff"])
        except ParseError as exc:
            raise ParseError(f"label {label!r}: {exc}") from None
        if num:
            out.append((k, num, den))
    out.sort()
    return out


def _value_to_doc(row, space: SuperSpace, den: int = 1) -> list[dict]:
    """The value terms of the nonzero pairs (k, c) of row, c/den written by
    ratio_str (c a Fraction, or an int over den > 1)."""
    return [{"label": space.labels[k], "coeff": ratio_str(c, den)} for k, c in row if c]


def _table_from_doc(doc: dict, key: str, left_space: SuperSpace,
                    right_space: SuperSpace, out_space: SuperSpace,
                    what: str) -> list[list[list[Fraction]]]:
    """A structure table from doc[key]: entries {left, right, value} give
    table[i][j], a vector over out_space, for i in left_space and j in
    right_space; pairs left out are zero.  what names the table in errors."""
    table = [[zeros(out_space.dim) for _ in right_space.labels]
             for _ in left_space.labels]
    seen = set()
    for ent in _entry_list(doc, key, ("left", "right", "value"), what):
        try:
            i = left_space.index(ent["left"])
            j = right_space.index(ent["right"])
        except KeyError as exc:
            raise ParseError(f"{what} entry ({ent['left']!r}, {ent['right']!r}): "
                             f"{exc.args[0]}")
        if (i, j) in seen:
            raise ParseError(f"duplicate {what} entry ({ent['left']!r}, {ent['right']!r})")
        seen.add((i, j))
        try:
            value = _sparse_value(ent["value"], out_space)
        except ParseError as exc:
            raise ParseError(f"{what} ({ent['left']},{ent['right']}): {exc}") from None
        for k, num, den in value:
            table[i][j][k] = Fraction(num, den)
    return table


def _table_to_doc(table, left_space: SuperSpace, right_space: SuperSpace,
                  out_space: SuperSpace) -> list[dict]:
    """The nonzero entries of a structure table, in basis order."""
    return [{"left": left_space.labels[i], "right": right_space.labels[j],
             "value": _value_to_doc(enumerate(vec), out_space)}
            for i, row in enumerate(table) for j, vec in enumerate(row) if any(vec)]


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------

def algebra_from_doc(doc, max_dim: int | None = None) -> LeibnizSuperalgebra:
    """The algebra in doc; a basis longer than max_dim raises DimensionCapError
    before the bracket table is built."""
    space = _space_from_doc(doc, "algebra")
    _check_keys(doc, ("name", "basis", "brackets"), "algebra")
    if max_dim is not None and space.dim > max_dim:
        raise DimensionCapError(space.dim, max_dim)
    return LeibnizSuperalgebra(space, _table_from_doc(doc, "brackets", space, space,
                                                      space, "bracket"))


def algebra_to_doc(alg: LeibnizSuperalgebra) -> dict:
    sp = alg.space
    return {**_space_to_doc(sp), "brackets": _table_to_doc(alg.table, sp, sp, sp)}


def load_algebra(path: str, max_dim: int | None = None) -> LeibnizSuperalgebra:
    return algebra_from_doc(_load_json(path), max_dim)


def save_algebra(alg: LeibnizSuperalgebra, path: str) -> None:
    save_doc(algebra_to_doc(alg), path)


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------

def module_from_doc(doc, alg: LeibnizSuperalgebra,
                    max_dim: int | None = None) -> SuperBimodule:
    """The module in doc; past max_dim, refused before its action tables."""
    space = _space_from_doc(doc, "module")
    _check_keys(doc, ("name", "basis", "left", "right"), "module")
    if max_dim is not None and space.dim > max_dim:
        raise DimensionCapError(space.dim, max_dim, "module")
    asp = alg.space
    return SuperBimodule(alg, space,
                         _table_from_doc(doc, "left", asp, space, space, "left action"),
                         _table_from_doc(doc, "right", space, asp, space, "right action"))


def module_to_doc(mod: SuperBimodule) -> dict:
    asp, msp = mod.algebra.space, mod.space
    return {**_space_to_doc(msp), "left": _table_to_doc(mod.left, asp, msp, msp),
            "right": _table_to_doc(mod.right, msp, asp, msp)}


def load_module(path: str, alg: LeibnizSuperalgebra,
                max_dim: int | None = None) -> SuperBimodule:
    return module_from_doc(_load_json(path), alg, max_dim)


# ---------------------------------------------------------------------------
# cochains
# ---------------------------------------------------------------------------

def _cochain_table(doc, alg: LeibnizSuperalgebra, mod: SuperBimodule,
                   even2: str | None) -> tuple[int, int, int, list]:
    """The cochain in doc as arity, degree, a denominator D and the flat
    table of nonzeros (k, D*coefficient), checked entry by entry.  A caller
    that takes only even 2-cochains passes the refusal message as even2."""
    if not isinstance(doc, dict):
        raise ParseError("cochain document must be a JSON object")
    if even2 is not None and (doc.get("arity"), doc.get("degree")) != (2, "even"):
        raise ParseError(even2)
    _check_keys(doc, ("arity", "degree", "entries"), "cochain")
    arity = _nonnegative_int(doc, "arity")
    degree = doc.get("degree")
    if not isinstance(degree, str) or degree not in _PARITY_NAMES:
        raise ParseError("'degree' must be 'even' or 'odd'")
    degree = _PARITY_NAMES[degree]
    asp, apar, mpar, dim = alg.space, alg.space.parities, mod.space.parities, alg.dim
    values = {}
    for ent in _entry_list(doc, "entries", ("args",), "cochain"):
        args = ent["args"]
        if not isinstance(args, list) or len(args) != arity:
            raise ParseError(f"cochain entry needs {arity} args, got {args!r}")
        # the tuple index of the args and the parity their values must have
        idx, want = 0, degree
        try:
            for lab in args:
                i = asp.index(lab)
                idx, want = idx * dim + i, want ^ apar[i]
        except KeyError as exc:
            raise ParseError(f"cochain entry: {exc.args[0]}")
        if idx in values:
            raise ParseError(f"duplicate cochain entry for args {args!r}")
        try:
            value = _sparse_value(ent.get("value", []), mod.space)
        except ParseError as exc:
            raise ParseError(f"cochain entry {args}: {exc}") from None
        if any(mpar[k] != want for k, _, _ in value):
            raise ParseError("cochain entries violate homogeneity: some value has "
                             "a component whose parity differs from degree + "
                             "sum of argument parities")
        values[idx] = value
    den = lcm(*(d for value in values.values() for _, _, d in value))
    table = [[] for _ in range(dim ** arity)]
    for idx, value in values.items():
        table[idx] = [(k, num * (den // d)) for k, num, d in value]
    return arity, degree, den, table


def cochain_from_doc(doc, alg: LeibnizSuperalgebra, mod: SuperBimodule,
                     even2: str | None = None) -> Cochain:
    """The cochain in doc (see _cochain_table for even2)."""
    return Cochain.from_table(alg, mod, *_cochain_table(doc, alg, mod, even2))


def _entries_to_doc(rows, arity: int, asp: SuperSpace, msp: SuperSpace,
                    den: int = 1) -> list[dict]:
    """The nonzero entries of a cochain whose values rows yields per tuple
    as (k, c) pairs, each value c/den (see _value_to_doc)."""
    return [{"args": [asp.labels[i] for i in t], "value": value}
            for t, row in zip(all_tuples(asp.dim, arity), rows)
            if (value := _value_to_doc(row, msp, den))]


def cochain_to_doc(f: Cochain) -> dict:
    return {"arity": f.arity, "degree": parity_name(f.degree),
            "entries": _entries_to_doc(map(enumerate, f.coeffs), f.arity,
                                       f.algebra.space, f.module.space)}


def load_cochain(path: str, alg: LeibnizSuperalgebra, mod: SuperBimodule,
                 even2: str | None = None) -> Cochain:
    return cochain_from_doc(_load_json(path), alg, mod, even2)


def save_cochain(f: Cochain, path: str) -> None:
    save_doc(cochain_to_doc(f), path)


# ---------------------------------------------------------------------------
# deformations
# ---------------------------------------------------------------------------

_TERM_KEY = re.compile(r"[1-9][0-9]*")   # ASCII digits, no leading zero


def deformation_from_doc(doc, alg: LeibnizSuperalgebra) -> TruncatedDeformation:
    """The deformation of alg in doc: every term is parsed, then all are
    added at once (Series.add); an error inside a term names its power."""
    if not isinstance(doc, dict):
        raise ParseError("deformation document must be a JSON object")
    _check_keys(doc, ("order", "terms"), "deformation")
    order = _nonnegative_int(doc, "order")
    terms_doc = doc.get("terms", {})
    if not isinstance(terms_doc, dict):
        raise ParseError("'terms' must map powers of t to cochain tables")
    unknown = sorted(k for k in terms_doc if not (
        _TERM_KEY.fullmatch(k) and len(k) <= len(str(order)) and int(k) <= order))
    if unknown:
        raise ParseError(f"term key {unknown[0]!r} outside 1..{order}; term keys "
                         "are decimals without leading zeros")
    d = TruncatedDeformation.zero(alg, order)
    terms = []
    for power, key in sorted((int(key), key) for key in terms_doc):
        try:
            if not isinstance(terms_doc[key], dict):
                raise ParseError("must be an object with 'entries'")
            _, _, den, table = _cochain_table(
                {"arity": 2, "degree": "even", **terms_doc[key]}, alg, d.module,
                "deformation terms must be even 2-cochains")
        except ParseError as exc:
            raise ParseError(f"term {key}: {exc}") from None
        terms.append((power, den, table))
    d.add(terms)
    return d


def series_to_doc(s: Series) -> dict[str, list]:
    """{str(i): entries} for the nonzero terms i >= 1 of a deformation or a
    formal isomorphism, the entries as cochain_to_doc writes them, each
    coefficient written from its int over the series' denominator."""
    asp, msp = s.algebra.space, s.module.space
    return {str(i): _entries_to_doc(table, s.ARITY, asp, msp, s.den)
            for i, table in s.tables.items() if i}


def deformation_to_doc(d: TruncatedDeformation) -> dict:
    return {"order": d.order,
            "terms": {i: {"entries": e} for i, e in series_to_doc(d).items()}}


def load_deformation(path: str, alg: LeibnizSuperalgebra) -> TruncatedDeformation:
    return deformation_from_doc(_load_json(path), alg)


def save_deformation(d: TruncatedDeformation, path: str) -> None:
    save_doc(deformation_to_doc(d), path)
