"""superleibniz benchmark: fixed CLI job lists, timed end to end, gated exactly.

Usage (from the repository root):

    python3 bench/run.py --workload interactive --seed 1 --seconds 30 --trace 0

Each run is one process and one thread driving the CLI in-process
(superleibniz.cli.main with stdout captured) as a closed loop with one
client: the next job starts when the previous one returns.  Set-up builds
the seeded inputs and writes them as files; it is repeated SETUPS times,
each time re-importing the package, and reported as the median.  The
workload's job list is then run repeatedly until --seconds of job time is
used (at least once; with --trace 1 at least once untraced and once
traced).  Every report of the first repetition is gated against known
answers; later repetitions must reproduce it byte for byte.

Times are reported in reference seconds: raw seconds corrected for the
shared host's load by the sampling probe in speed.py.  The raw median
wall time is printed beside them.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer ones (see README.md).  Spans of traced
runs are written to .bench_out/ at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

import workloads
from spans import JOB, PER_LAYER, Tracer
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 7


def import_library():
    """(Re-)import the package from this checkout's src/ and return its cli."""
    for name in [n for n in sys.modules
                 if n == "superleibniz" or n.startswith("superleibniz.")]:
        del sys.modules[name]
    import superleibniz.cli
    return superleibniz.cli


def run_job(main, argv: list[str], clock) -> tuple[int | None, str, str, float, float]:
    """One CLI call: (exit code or None if it raised, stdout, stderr, start, end)."""
    out, err = io.StringIO(), io.StringIO()
    start = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed job, not a failed benchmark
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), start, clock()


class Runner:
    def __init__(self, cli, jobs, workload: str, seed: int, pins: dict, probe,
                 tracer=None):
        self.cli = cli
        self.probe = probe
        self.jobs = jobs
        self.tracer = tracer
        self.ctx = workloads.GateContext(render_text=cli.render_text)
        self.expected_digests = (pins.get("sha256", {}).get(workload)
                                 if seed == workloads.DEFAULT_SEED else None)
        self.first: dict[str, tuple[int | None, str]] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def repetition(self, traced: bool) -> tuple[float, list[float]]:
        """Run the job list once.

        Returns the raw summed job time and each job's time in reference
        seconds.
        """
        intervals = []
        outputs = {}
        if self.first is None:
            self.ctx.outputs = outputs
        for job in self.jobs:
            span = self.tracer.begin(JOB) if traced else None
            code, out, err, start, end = run_job(self.cli.main, job.argv,
                                                 self.probe.clock)
            if traced:
                self.tracer.end(span)
            intervals.append((start, end))
            outputs[job.name] = (code, out)
            self.attempted += 1
            if self.first is None:
                problems = job.gate(code, out, self.ctx)
                if self.expected_digests is not None:
                    want = self.expected_digests.get(job.name)
                    if want != workloads.digest(out):
                        problems.append("report sha256 differs from the pinned digest")
            else:
                problems = ([] if self.first[job.name] == (code, out)
                            else ["report differs from the first repetition"])
            if problems:
                self.failed += 1
                msg = f"{job.name}: {'; '.join(problems)}"
                if err:
                    msg += f"\n{err.rstrip()}"
                self.problems.append(msg)
        if self.first is None:
            self.first = outputs
        raw = sum(end - start for start, end in intervals)
        return raw, [(end - start) * self.probe.factor(start, end)
                     for start, end in intervals]


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(runner: Runner, seconds: float, trace: bool, tracer) -> dict:
    """Repeat the job list within the time budget; times in reference seconds."""
    walls = {False: [], True: []}
    raw_walls = []
    per_job: list[list[float]] = [[] for _ in runner.jobs]
    layer_reps: list[dict] = []
    used = 0.0
    rep = 0
    while True:
        traced = trace and rep % 2 == 1
        if traced:
            tracer.reset_facts()
            first_span = len(tracer.spans)
            tracer.install()
            try:
                raw, lats = runner.repetition(traced=True)
            finally:
                tracer.uninstall()
            factor = sum(lats) / raw
            layer_reps.append({k: v * factor if k.endswith("_s") else v
                               for k, v in tracer.summary(first_span).items()})
        else:
            raw, lats = runner.repetition(traced=False)
            for samples, x in zip(per_job, lats):
                samples.append(x)
            raw_walls.append(raw)
        walls[traced].append(sum(lats))
        used += raw
        rep += 1
        enough = walls[False] and (walls[True] or not trace)
        if enough and used + raw > seconds:
            break
    return {"walls": walls, "raw_walls": raw_walls,
            "job_medians": [statistics.median(x) for x in per_job],
            "layers": layer_reps}


def end_to_end_metrics(result: dict, setup_times: list[float]) -> dict:
    lat = result["job_medians"]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (statistics.median(result["walls"][False]), "s"),
        "job_p50_ms": (1000 * percentile(lat, 50), "ms"),
        "job_p90_ms": (1000 * percentile(lat, 90), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer_metrics(result: dict) -> dict:
    """Medians over the traced repetitions, in PER_LAYER order.

    A metric whose function or value shape no longer exists is absent.
    """
    reps = result["layers"]
    traced = statistics.median(result["walls"][True])
    untraced = statistics.median(result["walls"][False])
    found = {"trace.wall_s": traced, "trace.untraced_wall_s": untraced,
             "trace.overhead_frac": traced / untraced - 1}
    for key in set().union(*reps):
        found[key] = statistics.median(r[key] for r in reps if key in r)
    return {name: (found[name], unit) for name, unit in PER_LAYER if name in found}


def write_spans(tracer, workload: str, seed: int) -> Path:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for idx, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(json.dumps([idx, name, start, end, parent]) + "\n")
    return path


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup(workload: str, seed: int, work: Path, pins: dict, probe):
    """One set-up: package import, input generation, file writing.

    Returns its start and end on the probe's clock, the imported cli
    module and the job list.
    """
    start = probe.clock()
    cli = import_library()
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    jobs = workloads.SETUPS[workload](seed, work, pins)
    return (start, probe.clock()), cli, jobs


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "superleibniz" / "__init__.py").is_file():
        print(f"error: no superleibniz package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    pins = workloads.load_pins()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    cwd = os.getcwd()
    try:
        with SpeedProbe() as probe:
            setups = []
            for _ in range(SETUPS):
                interval, cli, jobs = setup(args.workload, args.seed, work, pins, probe)
                setups.append(interval)
            if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
                print(f"error: imported {cli.__file__}, not the checkout's",
                      file=sys.stderr)
                return 2
            os.chdir(work)
            tracer = Tracer(probe.clock) if args.trace else None
            runner = Runner(cli, jobs, args.workload, args.seed, pins, probe, tracer)
            result = measure(runner, args.seconds, bool(args.trace), tracer)
            setup_times = [(end - start) * probe.factor(start, end)
                           for start, end in setups]
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    for msg in runner.problems[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    if args.trace:
        metrics = per_layer_metrics(result)
        print(f"spans: {write_spans(tracer, args.workload, args.seed)}")
    else:
        metrics = end_to_end_metrics(result, setup_times)
    reps = len(result["walls"][False]) + len(result["walls"][True])
    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs x {reps} "
          f"repetitions; job percentiles over {len(jobs)} per-job medians; "
          f"{SETUPS} set-ups; times in reference seconds")
    print(f"  {'raw wall_s (median, unscaled)':44s} "
          f"{statistics.median(result['raw_walls']):14.6f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6f} {unit}")
    print(f"  {'failed_frac':44s} {runner.failed / runner.attempted:14.6f} ratio "
          f"({runner.failed} failed of {runner.attempted} attempted)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
