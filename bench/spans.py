"""Span tracing of the library's layers, installed from outside the library.

Each traced function is replaced, in every superleibniz module namespace
that holds it by name, with a wrapper that records a span (name, start,
end, parent).  Spans stay in memory and are summarised per job list; the
caller writes them out at exit.  Per-entry helpers such as Cochain.eval
and add_scaled run millions of times and are deliberately not wrapped.

Matrix facts (entries, nonzeros, cells, rank, coefficient bits) are read
from the returned values.  The time spent reading them is recorded as a
"trace.facts" span under the caller, so it counts as tracing overhead and
not as the caller's own time.  A function or value shape that no longer
exists leaves its metrics absent instead of failing the run.
"""

from __future__ import annotations

import sys
from collections import defaultdict

# (metric prefix, module, attribute); a dotted attribute names a method.
TARGETS = (
    ("cohomology.cohomology_table", "superleibniz.cohomology", "cohomology_table"),
    ("cohomology.delta_matrix", "superleibniz.cohomology", "delta_matrix"),
    ("cochain.delta", "superleibniz.cochain", "delta"),
    ("linalg.rref", "superleibniz.linalg", "rref"),
    ("linalg.kernel_basis", "superleibniz.linalg", "kernel_basis"),
    ("linalg.row_space_basis", "superleibniz.linalg", "row_space_basis"),
    ("linalg.solve", "superleibniz.linalg", "solve"),
    ("linalg.extend_to_basis", "superleibniz.linalg", "extend_to_basis"),
    ("deformation.deformation_residual", "superleibniz.deformation", "deformation_residual"),
    ("deformation.transform", "superleibniz.deformation", "transform"),
    ("deformation.check_deformation", "superleibniz.deformation", "check_deformation"),
    ("deformation.extend_deformation", "superleibniz.deformation", "extend_deformation"),
    ("deformation.equivalent_deformations", "superleibniz.deformation", "equivalent_deformations"),
    ("fileio.load", "superleibniz.fileio", "load_algebra"),
    ("fileio.load", "superleibniz.fileio", "load_module"),
    ("fileio.load", "superleibniz.fileio", "load_cochain"),
    ("fileio.load", "superleibniz.fileio", "load_deformation"),
    ("fileio.save", "superleibniz.fileio", "save_algebra"),
    ("fileio.save", "superleibniz.fileio", "save_deformation"),
    ("algebra.validate", "superleibniz.algebra", "LeibnizSuperalgebra.check_grading"),
    ("algebra.validate", "superleibniz.algebra", "LeibnizSuperalgebra.check_leibniz"),
    ("extension.build_extension", "superleibniz.extension", "build_extension"),
    ("extension.check_extension", "superleibniz.extension", "check_extension"),
    ("cli.render", "superleibniz.cli", "emit"),
)

JOB = "job"
FACTS = "trace.facts"

# The per-layer metrics a traced run reports, with their units.
PER_LAYER = (
    ("cohomology.delta_matrix.calls", "count"),
    ("cohomology.delta_matrix.busy_s", "s"),
    ("cohomology.delta_matrix.self_s", "s"),
    ("cohomology.delta_matrix.entries", "count"),
    ("cohomology.delta_matrix.nnz", "count"),
    ("cohomology.delta_matrix.density", "ratio"),
    ("cochain.delta.calls", "count"),
    ("cochain.delta.busy_s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.busy_s", "s"),
    ("linalg.rref.cells", "count"),
    ("linalg.rref.rank", "count"),
    ("linalg.rref.max_coeff_bits", "bits"),
    ("linalg.kernel_basis.busy_s", "s"),
    ("linalg.row_space_basis.busy_s", "s"),
    ("linalg.solve.calls", "count"),
    ("linalg.solve.busy_s", "s"),
    ("linalg.extend_to_basis.calls", "count"),
    ("linalg.extend_to_basis.busy_s", "s"),
    ("cohomology.cohomology_table.busy_s", "s"),
    ("cohomology.cohomology_table.self_s", "s"),
    ("deformation.deformation_residual.calls", "count"),
    ("deformation.deformation_residual.busy_s", "s"),
    ("deformation.transform.calls", "count"),
    ("deformation.transform.busy_s", "s"),
    ("deformation.check_deformation.busy_s", "s"),
    ("deformation.extend_deformation.busy_s", "s"),
    ("deformation.equivalent_deformations.busy_s", "s"),
    ("fileio.load.calls", "count"),
    ("fileio.load.busy_s", "s"),
    ("fileio.save.busy_s", "s"),
    ("algebra.validate.calls", "count"),
    ("algebra.validate.busy_s", "s"),
    ("extension.build_extension.busy_s", "s"),
    ("extension.check_extension.busy_s", "s"),
    ("cli.render.busy_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.facts_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _coeff_bits(rows) -> int:
    bits = 0
    for row in rows:
        for x in row:
            if x:
                bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return bits


def _delta_matrix_facts(args, out) -> dict[str, int]:
    entries = out.rows * out.cols
    nnz = sum(1 for row in out.entries for x in row if x)
    return {"entries": entries, "nnz": nnz}


def _rref_facts(args, out) -> dict[str, int]:
    m = args[0]
    red, pivots = out
    return {"cells": m.rows * m.cols, "rank": len(pivots),
            "max_coeff_bits": _coeff_bits(red.entries)}


FACT_READERS = {
    "cohomology.delta_matrix": _delta_matrix_facts,
    "linalg.rref": _rref_facts,
}

# Facts summed over calls, except these, which take the maximum.
MAX_FACTS = {"max_coeff_bits"}


class Tracer:
    def __init__(self, clock):
        """clock() gives the time spans are measured on, in seconds."""
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self.facts: dict[str, dict[str, int]] = defaultdict(dict)
        self.broken_facts: set[str] = set()
        self.missing: set[str] = set()
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, self.clock(), 0.0, parent))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, self.clock(), parent)
        self._stack.pop()

    def _record_facts(self, name: str, args, out) -> None:
        reader = FACT_READERS.get(name)
        if reader is None or name in self.broken_facts:
            return
        idx = self.begin(FACTS)
        try:
            found = reader(args, out)
        except (AttributeError, TypeError, ValueError, IndexError):
            self.broken_facts.add(name)
            return
        finally:
            self.end(idx)
        acc = self.facts[name]
        for key, val in found.items():
            if key in MAX_FACTS:
                acc[key] = max(acc.get(key, 0), val)
            else:
                acc[key] = acc.get(key, 0) + val

    def _wrap(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            tracer._record_facts(name, args, out)
            return out

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever a superleibniz module holds it."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "superleibniz" or n.startswith("superleibniz."))]
        found = set()
        for name, modname, attr in TARGETS:
            owner = sys.modules.get(modname)
            parts = attr.split(".")
            try:
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, parts[-1])
            except AttributeError:
                continue
            found.add(name)
            wrapped = self._wrap(name, original)
            if len(parts) > 1:
                self._patch(owner, parts[-1], wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapped)
        self.missing = {t[0] for t in TARGETS} - found

    def _patch(self, owner, key: str, value) -> None:
        self._installed.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    # -- summaries -----------------------------------------------------------

    def summary(self, first: int = 0) -> dict[str, float]:
        """Per-layer numbers for the spans recorded from index `first` on.

        busy_s counts only the outermost span of each name, so a layer that
        re-enters itself is not counted twice; self_s is a span's duration
        minus the time its direct child spans cover.
        """
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for name, start, end, parent in spans:
            if parent >= first:
                child_time[parent] += end - start
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_time = defaultdict(float)
        covered = 0.0
        jobs = 0.0
        for offset, (name, start, end, parent) in enumerate(spans):
            idx = first + offset
            dur = end - start
            if name == JOB:
                jobs += dur
                continue
            if parent >= first and self.spans[parent][0] == JOB:
                covered += dur
            calls[name] += 1
            self_time[name] += dur - child_time[idx]
            if not self._inside_same(idx, name):
                busy[name] += dur
        out: dict[str, float] = {}
        for name in {t[0] for t in TARGETS} - self.missing:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = self_time[name]
        for name, found in self.facts.items():
            if name in self.broken_facts:
                continue
            for key, val in found.items():
                out[f"{name}.{key}"] = val
        entries = out.get("cohomology.delta_matrix.entries")
        if entries:
            out["cohomology.delta_matrix.density"] = (
                out["cohomology.delta_matrix.nnz"] / entries)
        out["trace.facts_s"] = busy[FACTS]
        out["trace.coverage"] = covered / jobs if jobs else 0.0
        return out

    def _inside_same(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def reset_facts(self) -> None:
        self.facts = defaultdict(dict)
