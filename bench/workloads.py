"""The three workloads: seeded input files, job lists and their gates.

A job is one CLI invocation.  Its gate returns the list of problems found
in its exit code and report; an empty list means the answer is right.
Gates compare against mathematically known answers (pinned cohomology
dimensions, derivation counts, dimension identities) and against the
independent polynomial oracle in oracle.py, never against a second run of
the code under test.  For the default seed every report must also match
its pinned sha256.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs
import oracle

DEFAULT_SEED = 0

# file key -> algebra name
INTERACTIVE_ALGEBRAS = {"nonlie3": "nonlie3", "ab11": "abelian(1,1)",
                        "ab21": "abelian(2,1)", "fV02": "free(V0,2)",
                        "fV13": "free(V1,3)", "m11": "m11"}
INTERACTIVE_ORDER = 2
INTERACTIVE_VARIANTS = 2

# (file key, algebra name, module, max_n, extra CLI flags)
LARGE_TABLES = (
    ("m11", "m11", "self", 3, ()),
    ("m11", "m11", "zero", 3, ()),
    ("nonlie3", "nonlie3", "self", 4, ("--max-arity", "5")),
    ("F6", "F6", "self", 2, ()),
    ("F6", "F6", "zero", 2, ()),
    ("fV13", "free(V1,3)", "self", 3, ()),
)

DEFORMATION_ALGEBRAS = {"m11": "m11", "F6": "F6"}
DEFORMATION_ORDERS = (3, 5)
# The cost of a deformation job depends on the seeded basis by a few per
# cent (the elimination order of D_1 and D_2 follows it), so each run
# averages two bases per algebra.
DEFORMATION_VARIANTS = 2

WORKLOADS = ("interactive", "cohomology-large", "deformation")


@dataclass
class Job:
    name: str
    argv: list[str]
    gate: Callable[[int | None, str, "GateContext"], list[str]]


@dataclass
class GateContext:
    """What gates may consult: this repetition's outputs and oracle results."""

    render_text: Callable[[dict], str]
    outputs: dict[str, tuple[int | None, str]] = field(default_factory=dict)
    _cache: dict = field(default_factory=dict)

    def failing_orders(self, alg_path: str, def_path: str, cap: int) -> list[int]:
        key = (alg_path, def_path, cap)
        if key not in self._cache:
            alg = oracle.AlgebraData(alg_path)
            self._cache[key] = oracle.failing_orders(
                alg, oracle.deformation_series(alg, def_path), cap)
        return self._cache[key]


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def _report(code, out, want_code: int, problems: list[str]) -> dict | None:
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    try:
        return json.loads(out)
    except ValueError:
        problems.append("report is not JSON")
        return None


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what} = {got!r}, expected {want!r}")


def cochain_dim(l_par, m_par, n: int, parity: int) -> int:
    """dim of the parity component of the arity-n cochain space."""
    e, o = l_par.count(0), l_par.count(1)
    tuples_even = ((e + o) ** n + (e - o) ** n) // 2
    tuples_odd = (e + o) ** n - tuples_even
    by_parity = (m_par.count(0), m_par.count(1))
    return tuples_even * by_parity[parity] + tuples_odd * by_parity[1 - parity]


def gate_validate(dim: int, dims: tuple[int, int], is_lie):
    def gate(code, out, ctx):
        problems = []
        rep = _report(code, out, 0, problems)
        if rep is None:
            return problems
        _expect(problems, "status", rep.get("status"), "pass")
        _expect(problems, "dim", rep.get("dim"), dim)
        _expect(problems, "dim_even", rep.get("dim_even"), dims[0])
        _expect(problems, "dim_odd", rep.get("dim_odd"), dims[1])
        if is_lie is not None:
            _expect(problems, "is_lie", rep.get("is_lie"), is_lie)
        return problems
    return gate


def gate_cohomology(parities, module: str, max_n: int, pinned_h, bases: bool):
    """H dims pinned; Z and B follow from dim_b(n) = dim_c(n-1) - dim_z(n-1)."""
    m_par = parities  # both the adjoint and the zero module live on L's space

    def gate(code, out, ctx):
        problems = []
        rep = _report(code, out, 0, problems)
        if rep is None:
            return problems
        _expect(problems, "status", rep.get("status"), "pass")
        _expect(problems, "module", rep.get("module"), module)
        rows = {(r["n"], r["parity"]): r for r in rep.get("table", [])}
        _expect(problems, "table rows", len(rows), 2 * (max_n + 1))
        for n in range(max_n + 1):
            for p, pname in ((0, "even"), (1, "odd")):
                r = rows.get((n, pname))
                if r is None:
                    problems.append(f"row n={n} {pname} missing")
                    continue
                _expect(problems, f"dim_c({n},{pname})", r["dim_c"],
                        cochain_dim(parities, m_par, n, p))
                _expect(problems, f"dim_h({n},{pname})", r["dim_h"], pinned_h[n][p])
                _expect(problems, f"dim_z-dim_b({n},{pname})",
                        r["dim_z"] - r["dim_b"], r["dim_h"])
                prev = rows.get((n - 1, pname))
                want_b = prev["dim_c"] - prev["dim_z"] if prev else 0
                _expect(problems, f"dim_b({n},{pname})", r["dim_b"], want_b)
        if bases:
            for b in rep.get("bases", []):
                r = rows.get((b["n"], b["parity"]), {})
                for key, dim_key in (("cocycles", "dim_z"), ("coboundaries", "dim_b"),
                                     ("representatives", "dim_h")):
                    _expect(problems, f"len {key}({b['n']},{b['parity']})",
                            len(b[key]), r.get(dim_key))
            _expect(problems, "bases rows", len(rep.get("bases", [])), 2 * (max_n + 1))
        return problems
    return gate


def gate_derivations(pinned: dict):
    def gate(code, out, ctx):
        problems = []
        rep = _report(code, out, 0, problems)
        if rep is None:
            return problems
        _expect(problems, "dims", rep.get("dims"), pinned)
        _expect(problems, "derivations_even", len(rep.get("derivations_even", [])),
                pinned["der_even"])
        _expect(problems, "derivations_odd", len(rep.get("derivations_odd", [])),
                pinned["der_odd"])
        _expect(problems, "inner_derivations", len(rep.get("inner_derivations", [])),
                pinned["inner"])
        return problems
    return gate


def gate_extend(dim: int, out_name: str):
    def gate(code, out, ctx):
        problems = []
        rep = _report(code, out, 0, problems)
        if rep is None:
            return problems
        _expect(problems, "status", rep.get("status"), "pass")
        _expect(problems, "cocycle", rep.get("cocycle"), True)
        _expect(problems, "total_dim", rep.get("total_dim"), 2 * dim)
        _expect(problems, "output", rep.get("output"), out_name)
        return problems
    return gate


def gate_check(alg_path: str, def_path: str, order: int, mod_order: bool):
    """Expected exit code and first failing order come from the oracle."""
    top = order if mod_order else 2 * order

    def gate(code, out, ctx):
        bad = [r for r in ctx.failing_orders(alg_path, def_path, 2 * order) if r <= top]
        problems = []
        rep = _report(code, out, 1 if bad else 0, problems)
        if rep is None:
            return problems
        _expect(problems, "status", rep.get("status"), "fail" if bad else "pass")
        _expect(problems, "checked_orders", rep.get("checked_orders"), f"1..{top}")
        viol = rep.get("violations", [])
        _expect(problems, "first failing order", viol[0].get("order") if viol else None,
                bad[0] if bad else None)
        return problems
    return gate


def gate_deform_extend(alg_path: str, order: int, target: int, out_name: str,
                       zero_term: bool):
    def gate(code, out, ctx):
        problems = []
        rep = _report(code, out, 0, problems)
        if rep is None:
            return problems
        _expect(problems, "solvable", rep.get("solvable"), True)
        _expect(problems, "order", rep.get("order"), order)
        _expect(problems, "target_order", rep.get("target_order"), target)
        _expect(problems, "output", rep.get("output"), out_name)
        if zero_term:
            _expect(problems, "term", rep.get("term"), [])
        if not problems:
            bad = ctx.failing_orders(alg_path, out_name, target)
            _expect(problems, "oracle failing orders of the extension", bad, [])
        return problems
    return gate


def gate_equiv(alg_path: str, target_path: str):
    def gate(code, out, ctx):
        problems = []
        rep = _report(code, out, 0, problems)
        if rep is None:
            return problems
        _expect(problems, "equivalent", rep.get("equivalent"), True)
        _expect(problems, "infinitesimal_relation", rep.get("infinitesimal_relation"), True)
        if not problems:
            alg = oracle.AlgebraData(alg_path)
            ok = oracle.maps_zero_to(alg, oracle.deformation_series(alg, target_path),
                                     rep.get("isomorphism", {}))
            _expect(problems, "oracle: isomorphism carries zero to target", ok, True)
        return problems
    return gate


def gate_text(json_job: str):
    """Text reports are a pure function of the JSON report of the same call."""
    def gate(code, out, ctx):
        want_code, json_out = ctx.outputs[json_job]
        problems = []
        _expect(problems, "exit code", code, want_code)
        try:
            want = ctx.render_text(json.loads(json_out))
        except ValueError:
            return problems + [f"{json_job} gave no JSON report"]
        if out != want:
            problems.append("text report differs from the rendering of its JSON report")
        return problems
    return gate


def digest(out: str) -> str:
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# set-up: inputs and job lists
# ---------------------------------------------------------------------------

class JobList:
    def __init__(self):
        self.jobs: list[Job] = []

    def add(self, name: str, argv: list[str], gate, text: bool = False) -> None:
        """Add the JSON job, and with text=True its text twin after it."""
        if any(j.name == name for j in self.jobs):
            raise ValueError(f"duplicate job name {name!r}")
        self.jobs.append(Job(name, argv + ["--format", "json"], gate))
        if text:
            self.jobs.append(Job(f"{name}.text", argv, gate_text(name)))


def _info(alg) -> tuple:
    sp = alg.space
    return alg.dim, (sp.even_dim, sp.odd_dim), list(sp.parities)


def setup_interactive(seed: int, work: Path, pins: dict) -> list[Job]:
    from superleibniz.fileio import save_algebra, save_cochain, save_deformation

    jl = JobList()
    for key, name in INTERACTIVE_ALGEBRAS.items():
        alg, change = inputs.seeded_algebra(name, seed)
        std = inputs.standard_algebra(name)
        dim, dims, parities = _info(alg)
        a = f"{key}.json"
        save_algebra(alg, str(work / a))
        zero_path = f"{key}_z.json"
        for v in range(INTERACTIVE_VARIANTS):
            rng = random.Random(f"interactive:{seed}:{name}:{v}")
            cocycle = inputs.twisted_cocycle(alg, change, pins["h2_rep"][name], std, rng)
            c, d = f"{key}_c{v}.json", f"{key}_d{v}.json"
            save_cochain(cocycle, str(work / c))
            trivial, zero = inputs.trivial_deformation(alg, INTERACTIVE_ORDER, rng)
            save_deformation(trivial, str(work / d))
            save_deformation(zero, str(work / zero_path))
            p = f"{key}.v{v}"
            jl.add(f"{p}.validate", ["validate", a],
                   gate_validate(dim, dims, pins["is_lie"][name]), text=True)
            h_self = pins["cohomology"][f"{name}|self"]
            h_zero = pins["cohomology"][f"{name}|zero"]
            if v == 0:
                jl.add(f"{p}.cohomology", ["cohomology", a, "--max-n", "2"],
                       gate_cohomology(parities, "self", 2, h_self, False), text=True)
                jl.add(f"{p}.cohomology.bases", ["cohomology", a, "--max-n", "1", "--bases"],
                       gate_cohomology(parities, "self", 1, h_self, True), text=True)
            else:
                jl.add(f"{p}.cohomology.zero", ["cohomology", a, "--max-n", "2",
                                                "--module", "zero"],
                       gate_cohomology(parities, "zero", 2, h_zero, False), text=True)
                jl.add(f"{p}.cohomology.zero.bases", ["cohomology", a, "--max-n", "1",
                                                      "--module", "zero", "--bases"],
                       gate_cohomology(parities, "zero", 1, h_zero, True), text=True)
            jl.add(f"{p}.derivations", ["derivations", a],
                   gate_derivations(pins["derivations"][name]), text=True)
            ext = f"{key}_ext{v}.json"
            jl.add(f"{p}.extend", ["extend", a, "--cocycle", c, "--out", ext],
                   gate_extend(dim, ext))
            jl.add(f"{p}.extend.validate", ["validate", ext],
                   gate_validate(2 * dim, (2 * dims[0], 2 * dims[1]), None))
            add_deformation_jobs(jl, p, a, d, zero_path, INTERACTIVE_ORDER, text=True)
    return jl.jobs


def add_deformation_jobs(jl: JobList, p: str, a: str, d: str, zero_path: str,
                         order: int, text: bool) -> None:
    jl.add(f"{p}.deform.check", ["deform", "check", a, "--deformation", d],
           gate_check(a, d, order, mod_order=False), text=text)
    jl.add(f"{p}.deform.check.mod", ["deform", "check", a, "--deformation", d, "--mod-order"],
           gate_check(a, d, order, mod_order=True), text=text)
    out = f"{p}.deform.ext.json"
    jl.add(f"{p}.deform.extend", ["deform", "extend", a, "--deformation", d,
                           "--order", str(order), "--out", out],
           gate_deform_extend(a, order, order, out, zero_term=False))
    out0 = f"{p}.deform.ext0.json"
    jl.add(f"{p}.deform.extend.zero", ["deform", "extend", a, "--deformation", zero_path,
                                "--out", out0],
           gate_deform_extend(a, order, order + 1, out0, zero_term=True))
    jl.add(f"{p}.deform.equiv", ["deform", "equiv", a, "--deformation", zero_path,
                          "--deformation", d],
           gate_equiv(a, d), text=text)


def setup_cohomology_large(seed: int, work: Path, pins: dict) -> list[Job]:
    from superleibniz.fileio import save_algebra

    jl = JobList()
    written = {}
    for key, name, module, max_n, flags in LARGE_TABLES:
        if key not in written:
            alg, _ = inputs.seeded_algebra(name, seed)
            save_algebra(alg, str(work / f"{key}.json"))
            written[key] = alg
        parities = list(written[key].space.parities)
        jl.add(f"{key}.{module}.n{max_n}",
               ["cohomology", f"{key}.json", "--module", module, "--max-n", str(max_n),
                *flags],
               gate_cohomology(parities, module, max_n,
                               pins["cohomology"][f"{name}|{module}"], False))
    return jl.jobs


def setup_deformation(seed: int, work: Path, pins: dict) -> list[Job]:
    from superleibniz.fileio import save_algebra, save_deformation

    jl = JobList()
    for key, name in DEFORMATION_ALGEBRAS.items():
        for v in range(DEFORMATION_VARIANTS):
            alg, _ = inputs.seeded_algebra(name, seed, v)
            a = f"{key}v{v}.json"
            save_algebra(alg, str(work / a))
            for order in DEFORMATION_ORDERS:
                rng = random.Random(f"deformation:{seed}:{name}:{v}:{order}")
                trivial, zero = inputs.trivial_deformation(alg, order, rng)
                d, z = f"{key}v{v}_d{order}.json", f"{key}v{v}_z{order}.json"
                save_deformation(trivial, str(work / d))
                save_deformation(zero, str(work / z))
                add_deformation_jobs(jl, f"{key}.v{v}.o{order}", a, d, z, order,
                                     text=False)
    return jl.jobs


SETUPS = {
    "interactive": setup_interactive,
    "cohomology-large": setup_cohomology_large,
    "deformation": setup_deformation,
}


def load_pins() -> dict:
    with open(Path(__file__).with_name("pins.json"), encoding="utf-8") as fh:
        return json.load(fh)
