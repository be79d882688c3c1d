"""Independent checks of deformation reports, written apart from the library.

Everything here works on the JSON files and reports directly: structure
constants and deformation terms become sparse tables, and formal power
series in t are expanded by plain polynomial arithmetic.  The library
instead sums per-order residuals term by term, so the two agree only if
both are right.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction


class AlgebraData:
    """Labels, parities and the bracket as a sparse table, from a file."""

    def __init__(self, path: str):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        self.labels = [b["label"] for b in doc["basis"]]
        self.parities = [0 if b["parity"] == "even" else 1 for b in doc["basis"]]
        self.dim = len(self.labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.bracket = self.table(
            ({"args": [e["left"], e["right"]], "value": e["value"]}
             for e in doc["brackets"]), 2)

    def vector(self, value_doc) -> dict[int, Fraction]:
        return {self.index[v["label"]]: Fraction(v["coeff"]) for v in value_doc
                if Fraction(v["coeff"])}

    def table(self, entries, arity: int) -> dict[tuple[int, ...], dict[int, Fraction]]:
        """Sparse arity-n table {argument tuple: {basis index: coeff}}."""
        out = {}
        for e in entries:
            vec = self.vector(e["value"])
            if len(e["args"]) != arity:
                raise ValueError(f"expected {arity} arguments in {e['args']!r}")
            if vec:
                out[tuple(self.index[lab] for lab in e["args"])] = vec
        return out


def deformation_series(alg: AlgebraData, path: str) -> list[dict]:
    """[mu_0, mu_1, ..., mu_N] as sparse tables, from a deformation file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    terms = doc.get("terms", {})
    return [alg.bracket] + [alg.table(terms.get(str(i), {}).get("entries", []), 2)
                            for i in range(1, doc["order"] + 1)]


def _add(acc: dict[int, Fraction], c: Fraction, vec: dict[int, Fraction]) -> None:
    for k, x in vec.items():
        acc[k] = acc.get(k, 0) + c * x


def _apply(series: list[dict], p: list[dict], q: list[dict], cap: int) -> list[dict]:
    """mu_t(p, q) for vector series p, q, truncated past t**cap."""
    out = [{} for _ in range(cap + 1)]
    for i, mu in enumerate(series):
        for dp, pv in enumerate(p):
            for dq, qv in enumerate(q):
                deg = i + dp + dq
                if deg > cap:
                    continue
                for a, x in pv.items():
                    for b, y in qv.items():
                        val = mu.get((a, b))
                        if val:
                            _add(out[deg], x * y, val)
    return out


def _nonzero(vec: dict[int, Fraction]) -> bool:
    return any(vec.values())


def failing_orders(alg: AlgebraData, series: list[dict], cap: int) -> list[int]:
    """Orders 1..cap at which the deformation identity fails on some triple.

    The identity mu_t(mu_t(a,b),c) = mu_t(a,mu_t(b,c)) - (-1)**(ab)
    mu_t(b,mu_t(a,c)) is expanded coefficient by coefficient.
    """
    dim = alg.dim
    unit = [[{i: Fraction(1)}] for i in range(dim)]
    pairs = {(a, b): _apply(series, unit[a], unit[b], cap)
             for a in range(dim) for b in range(dim)}
    bad = set()
    for a, b, c in itertools.product(range(dim), repeat=3):
        lhs = _apply(series, pairs[(a, b)], unit[c], cap)
        r1 = _apply(series, unit[a], pairs[(b, c)], cap)
        r2 = _apply(series, unit[b], pairs[(a, c)], cap)
        s = -1 if alg.parities[a] & alg.parities[b] else 1
        for r in range(1, cap + 1):
            diff = dict(lhs[r])
            _add(diff, Fraction(-1), r1[r])
            _add(diff, Fraction(s), r2[r])
            if _nonzero(diff):
                bad.add(r)
    return sorted(bad)


def maps_zero_to(alg: AlgebraData, target: list[dict],
                 iso_terms: dict[str, list]) -> bool:
    """Does Psi_t carry the undeformed bracket to the target deformation?

    Checks target_t(Psi a, Psi b) = Psi(mu_0(a, b)) mod t**(N+1) on basis
    pairs, with Psi_t = id + psi_1 t + ... read from a report's
    "isomorphism" block.
    """
    order = len(target) - 1
    psis = [alg.table(iso_terms.get(str(i), []), 1) for i in range(1, order + 1)]

    def psi_series(vec: dict[int, Fraction]) -> list[dict]:
        out = [dict(vec)]
        for psi in psis:
            img = {}
            for k, x in vec.items():
                _add(img, x, psi.get((k,), {}))
            out.append(img)
        return out

    for a, b in itertools.product(range(alg.dim), repeat=2):
        lhs = _apply(target, psi_series({a: Fraction(1)}),
                     psi_series({b: Fraction(1)}), order)
        rhs = psi_series(alg.bracket.get((a, b), {}))
        for r in range(order + 1):
            diff = dict(lhs[r])
            _add(diff, Fraction(-1), rhs[r])
            if _nonzero(diff):
                return False
    return True
