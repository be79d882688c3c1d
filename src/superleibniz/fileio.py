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

from .algebra import (EVEN, ODD, LeibnizSuperalgebra, SuperBimodule, SuperSpace)
from .cochain import Cochain, all_tuples, tuple_index
from .deformation import TruncatedDeformation
from .linalg import zeros


class ParseError(ValueError):
    """Malformed or semantically invalid input document."""


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(value) -> Fraction:
    """Exact rational from an integer or a 'p' / 'p/q' string; no floats."""
    if isinstance(value, bool):
        raise ParseError(f"not a rational coefficient: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(f"floating-point coefficient {value!r} rejected; "
                         "write an exact rational like \"-1/2\"")
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value):
            raise ParseError(f"cannot parse {value!r} as an exact rational")
        num, _, den = value.partition("/")
        try:
            num, den = int(num), int(den or 1)
        except ValueError as exc:   # past the interpreter's integer digit limit
            raise ParseError(f"coefficient {value[:20]!r}...: {exc}") from exc
        if den == 0:
            raise ParseError(f"zero denominator in {value!r}")
        return Fraction(num, den)
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
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _unique_keys(pairs: list[tuple]) -> dict:
    """A JSON object as a dict; a key given twice is an error, not a last win."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ParseError(f"duplicate key {key!r} in a JSON object")
        doc[key] = value
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


def _value_from_doc(value, space: SuperSpace, where: str) -> list[Fraction]:
    if not isinstance(value, list):
        raise ParseError(f"{where}: 'value' must be a list")
    vec = zeros(space.dim)
    for term in value:
        if not isinstance(term, dict) or "label" not in term or "coeff" not in term:
            raise ParseError(f"{where}: value terms need 'label' and 'coeff'")
        try:
            k = space.index(term["label"])
        except KeyError:
            raise ParseError(f"{where}: unknown label {term['label']!r}")
        vec[k] += parse_rational(term["coeff"])
    return vec


def _value_to_doc(vec: list[Fraction], space: SuperSpace) -> list[dict]:
    return [{"label": space.labels[k], "coeff": str(c)}
            for k, c in enumerate(vec) if c]


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------

def algebra_from_doc(doc) -> LeibnizSuperalgebra:
    space = _space_from_doc(doc, "algebra")
    _check_keys(doc, ("name", "basis", "brackets"), "algebra")
    dim = space.dim
    table = [[zeros(dim) for _ in range(dim)] for _ in range(dim)]
    seen = set()
    for ent in _entry_list(doc, "brackets", ("left", "right", "value"), "bracket"):
        try:
            i = space.index(ent["left"])
            j = space.index(ent["right"])
        except KeyError as exc:
            raise ParseError(f"bracket entry: {exc.args[0]}")
        if (i, j) in seen:
            raise ParseError(f"duplicate bracket entry for "
                             f"({ent['left']!r}, {ent['right']!r})")
        seen.add((i, j))
        table[i][j] = _value_from_doc(ent["value"], space,
                                      f"bracket ({ent['left']},{ent['right']})")
    return LeibnizSuperalgebra(space, table)


def algebra_to_doc(alg: LeibnizSuperalgebra) -> dict:
    doc = _space_to_doc(alg.space)
    brackets = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            vec = alg.bracket(i, j)
            if any(vec):
                brackets.append({
                    "left": alg.space.labels[i],
                    "right": alg.space.labels[j],
                    "value": _value_to_doc(vec, alg.space),
                })
    doc["brackets"] = brackets
    return doc


def load_algebra(path: str) -> LeibnizSuperalgebra:
    return algebra_from_doc(_load_json(path))


def save_algebra(alg: LeibnizSuperalgebra, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(algebra_to_doc(alg)))


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------

def module_from_doc(doc, alg: LeibnizSuperalgebra) -> SuperBimodule:
    space = _space_from_doc(doc, "module")
    _check_keys(doc, ("name", "basis", "left", "right"), "module")
    dm = space.dim
    left = [[zeros(dm) for _ in range(dm)] for _ in range(alg.dim)]
    right = [[zeros(dm) for _ in range(alg.dim)] for _ in range(dm)]
    seen = set()
    fields = ("left", "right", "value")
    for ent in _entry_list(doc, "left", fields, "left action"):
        try:
            i = alg.space.index(ent["left"])
            k = space.index(ent["right"])
        except KeyError as exc:
            raise ParseError(f"left action: {exc.args[0]}")
        if ("left", i, k) in seen:
            raise ParseError(f"duplicate left action entry "
                             f"({ent['left']!r}, {ent['right']!r})")
        seen.add(("left", i, k))
        left[i][k] = _value_from_doc(ent["value"], space,
                                     f"left action ({ent['left']},{ent['right']})")
    for ent in _entry_list(doc, "right", fields, "right action"):
        try:
            k = space.index(ent["left"])
            i = alg.space.index(ent["right"])
        except KeyError as exc:
            raise ParseError(f"right action: {exc.args[0]}")
        if ("right", k, i) in seen:
            raise ParseError(f"duplicate right action entry "
                             f"({ent['left']!r}, {ent['right']!r})")
        seen.add(("right", k, i))
        right[k][i] = _value_from_doc(ent["value"], space,
                                      f"right action ({ent['left']},{ent['right']})")
    return SuperBimodule(alg, space, left, right)


def module_to_doc(mod: SuperBimodule) -> dict:
    doc = _space_to_doc(mod.space)
    asp, msp = mod.algebra.space, mod.space
    left = []
    for i in range(mod.algebra.dim):
        for k in range(mod.dim):
            if any(mod.left[i][k]):
                left.append({"left": asp.labels[i], "right": msp.labels[k],
                             "value": _value_to_doc(mod.left[i][k], msp)})
    right = []
    for k in range(mod.dim):
        for i in range(mod.algebra.dim):
            if any(mod.right[k][i]):
                right.append({"left": msp.labels[k], "right": asp.labels[i],
                              "value": _value_to_doc(mod.right[k][i], msp)})
    doc["left"] = left
    doc["right"] = right
    return doc


def load_module(path: str, alg: LeibnizSuperalgebra) -> SuperBimodule:
    return module_from_doc(_load_json(path), alg)


# ---------------------------------------------------------------------------
# cochains
# ---------------------------------------------------------------------------

def cochain_from_doc(doc, alg: LeibnizSuperalgebra,
                     mod: SuperBimodule) -> Cochain:
    if not isinstance(doc, dict):
        raise ParseError("cochain document must be a JSON object")
    _check_keys(doc, ("arity", "degree", "entries"), "cochain")
    arity = _nonnegative_int(doc, "arity")
    degree = doc.get("degree")
    if not isinstance(degree, str) or degree not in _PARITY_NAMES:
        raise ParseError("'degree' must be 'even' or 'odd'")
    degree = _PARITY_NAMES[degree]
    f = Cochain.zero(alg, mod, arity, degree)
    seen = set()
    for ent in _entry_list(doc, "entries", ("args",), "cochain"):
        args = ent["args"]
        if not isinstance(args, list) or len(args) != arity:
            raise ParseError(f"cochain entry needs {arity} args, got {args!r}")
        try:
            t = tuple(alg.space.index(lab) for lab in args)
        except KeyError as exc:
            raise ParseError(f"cochain entry: {exc.args[0]}")
        if t in seen:
            raise ParseError(f"duplicate cochain entry for args {args!r}")
        seen.add(t)
        f.coeffs[tuple_index(t, alg.dim)] = _value_from_doc(
            ent.get("value", []), mod.space, f"cochain entry {args}")
    if not f.is_homogeneous():
        raise ParseError("cochain entries violate homogeneity: some value has "
                         "a component whose parity differs from degree + "
                         "sum of argument parities")
    return f


def cochain_to_doc(f: Cochain) -> dict:
    asp, msp = f.algebra.space, f.module.space
    entries = []
    for t in all_tuples(f.algebra.dim, f.arity):
        vec = f.value(t)
        if any(vec):
            entries.append({"args": [asp.labels[i] for i in t],
                            "value": _value_to_doc(vec, msp)})
    return {"arity": f.arity, "degree": parity_name(f.degree),
            "entries": entries}


def load_cochain(path: str, alg: LeibnizSuperalgebra,
                 mod: SuperBimodule) -> Cochain:
    return cochain_from_doc(_load_json(path), alg, mod)


def save_cochain(f: Cochain, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(cochain_to_doc(f)))


# ---------------------------------------------------------------------------
# deformations
# ---------------------------------------------------------------------------

def deformation_from_doc(doc, alg: LeibnizSuperalgebra,
                         mod: SuperBimodule) -> TruncatedDeformation:
    if not isinstance(doc, dict):
        raise ParseError("deformation document must be a JSON object")
    _check_keys(doc, ("order", "terms"), "deformation")
    order = _nonnegative_int(doc, "order")
    terms_doc = doc.get("terms", {})
    if not isinstance(terms_doc, dict):
        raise ParseError("'terms' must map powers of t to cochain tables")
    keys = [str(i) for i in range(1, order + 1)]
    unknown = sorted(set(terms_doc).difference(keys))
    if unknown:
        raise ParseError(f"term key {unknown[0]!r} outside 1..{order}; term keys "
                         "are decimals without leading zeros")
    terms = []
    for key in keys:
        if key in terms_doc:
            if not isinstance(terms_doc[key], dict):
                raise ParseError(f"term {key}: must be an object with 'entries'")
            sub = dict(terms_doc[key])
            sub.setdefault("arity", 2)
            sub.setdefault("degree", "even")
            if sub["arity"] != 2 or sub["degree"] != "even":
                raise ParseError(f"term {key}: deformation terms must be "
                                 "even 2-cochains")
            terms.append(cochain_from_doc(sub, alg, mod))
        else:
            terms.append(Cochain.zero(alg, mod, 2, 0))
    return TruncatedDeformation(alg, terms, mod)


def deformation_to_doc(d: TruncatedDeformation) -> dict:
    terms = {}
    for i, f in enumerate(d.terms, start=1):
        if not f.is_zero():
            sub = cochain_to_doc(f)
            terms[str(i)] = {"entries": sub["entries"]}
    return {"order": d.order, "terms": terms}


def load_deformation(path: str, alg: LeibnizSuperalgebra,
                     mod: SuperBimodule) -> TruncatedDeformation:
    return deformation_from_doc(_load_json(path), alg, mod)


def save_deformation(d: TruncatedDeformation, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(deformation_to_doc(d)))
