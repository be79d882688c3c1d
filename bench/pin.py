"""Regenerate pins.json, the answers the benchmark's gates compare against.

    python3 bench/pin.py

Mathematical pins are computed by the library in each algebra's standard
basis: H dimensions (even, odd) per degree, derivation counts, Lie-ness
and one even H^2 representative (the sum of the canonical ones) for the
extension inputs.  bench/test_pins.py cross-checks the H dimensions with
an independent rank oracle.  The sha256 of every report at the default
seed is then recorded from a gated run of each workload's job list, so
regenerating pins only makes sense on code whose reports are known good.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import inputs
import run
import workloads
from speed import SpeedProbe

# algebra name -> {module: highest degree pinned}
COHOMOLOGY = {
    "nonlie3": {"self": 4, "zero": 2},
    "abelian(1,1)": {"self": 2, "zero": 2},
    "abelian(2,1)": {"self": 2, "zero": 2},
    "free(V0,2)": {"self": 2, "zero": 2},
    "free(V1,3)": {"self": 3, "zero": 2},
    "m11": {"self": 3, "zero": 3},
    "F6": {"self": 2, "zero": 2},
}


def math_pins() -> dict:
    from superleibniz.algebra import adjoint_module, zero_module
    from superleibniz.cohomology import (cohomology_table, derivations,
                                         inner_derivations)
    from superleibniz.fileio import cochain_to_doc

    pins = {"cohomology": {}, "derivations": {}, "is_lie": {}, "h2_rep": {}}
    for name, mods in COHOMOLOGY.items():
        alg = inputs.standard_algebra(name)
        for module, max_n in mods.items():
            mod = adjoint_module(alg) if module == "self" else zero_module(alg)
            tab = cohomology_table(alg, mod, max_n, max_arity=max_n + 1)
            pins["cohomology"][f"{name}|{module}"] = [
                [tab.dim_h(n, 0), tab.dim_h(n, 1)] for n in range(max_n + 1)]
        mod = adjoint_module(alg)
        der0, der1 = derivations(alg, mod, 0), derivations(alg, mod, 1)
        inner = inner_derivations(alg, mod)
        pins["derivations"][name] = {"der_even": len(der0), "der_odd": len(der1),
                                     "inner": len(inner),
                                     "h1_even": len(der0) - len(inner)}
        pins["is_lie"][name] = alg.is_lie()
        if name not in workloads.INTERACTIVE_ALGEBRAS.values():
            continue
        reps = cohomology_table(alg, mod, 2, with_bases=True).entry(2, 0).basis_h
        total = reps[0] if reps else None
        for f in reps[1:]:
            total = total + f
        if total is None:
            from superleibniz.cochain import Cochain
            total = Cochain.zero(alg, mod, 2, 0)
        pins["h2_rep"][name] = cochain_to_doc(total)
    return pins


def digests(pins: dict) -> dict:
    out = {}
    for workload in workloads.WORKLOADS:
        work = run.ROOT / ".bench_work" / f"pin-{workload}-{os.getpid()}"
        cwd = os.getcwd()
        try:
            with SpeedProbe() as probe:
                _, cli, jobs = run.setup(workload, workloads.DEFAULT_SEED, work, pins, probe)
                os.chdir(work)
                runner = run.Runner(cli, jobs, workload, workloads.DEFAULT_SEED,
                                    {k: v for k, v in pins.items() if k != "sha256"},
                                    probe)
                runner.repetition(traced=False)
        finally:
            os.chdir(cwd)
            shutil.rmtree(work, ignore_errors=True)
        if runner.failed:
            raise SystemExit("gates failed; not pinning digests:\n"
                             + "\n".join(runner.problems))
        out[workload] = {name: workloads.digest(rep[1])
                         for name, rep in runner.first.items()}
    return out


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    pins = math_pins()
    pins["sha256"] = digests(pins)
    path = Path(__file__).with_name("pins.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
