"""rankfuzz benchmark: seeded workloads timed from outside the library.

    python3 perfbench/run.py --workload auth-table --seed 1 --seconds 30 --trace 0

One client in one process runs a closed loop: each operation is issued
after the previous one returns.  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it reports per-layer metrics from a
traced pass over the same rounds as an untraced pass.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, perf_counter_ns

from shapes import REFERENCE, WORKLOADS
from speed import SpeedGauge
from stats import geomean, min_samples, percentile
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_out"

SETUP_PROBES = 3
HARD_STOP_S = 120  # a run stops here even if a percentile still lacks samples

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "cli_p50_ms": "ms",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import rankfuzz from this checkout's src/ and nowhere else."""
    if not (SRC / "rankfuzz" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source at {SRC / 'rankfuzz'}")
    sys.path.insert(0, str(SRC))
    import rankfuzz

    if Path(rankfuzz.__file__).resolve().parent != SRC / "rankfuzz":
        raise SystemExit(f"error: rankfuzz imported from {rankfuzz.__file__}, not {SRC}")


def environment() -> str:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (
        f"env python={platform.python_version()} numpy={numpy.__version__} "
        f"nproc={os.cpu_count()} cpu={cpu!r}"
    )


def setup_seconds(workload: str) -> list[tuple[float, float]]:
    """Set-up time of the workload in fresh interpreters, one probe at a
    time: (seconds, reference-speed seconds) per probe."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        raw, scaled = proc.stdout.split()
        out.append((float(raw), float(scaled)))
    return out


class Loop:
    """Runs rounds one operation at a time, timing and checking each.

    latency_ns holds each operation's time divided by the speed gauge's
    factor at that moment (reference-speed ns); raw_ns the time as read.
    """

    def __init__(self, bench, tracer=None):
        self.bench = bench
        self.tracer = tracer
        self.gauge = SpeedGauge(REFERENCE[bench.name])
        self.latency_ns = defaultdict(list)
        self.raw_ns = defaultdict(list)
        self.factors: list[float] = []
        self.attempted = 0
        self.problems: list[str] = []

    @property
    def recorded(self) -> int:
        return sum(len(v) for v in self.latency_ns.values())

    def ops_per_s(self) -> float:
        """Library operations completed per second of their own time."""
        kinds = self.bench.lib_kinds
        busy_ns = sum(sum(self.latency_ns[k]) for k in kinds)
        return sum(len(self.latency_ns[k]) for k in kinds) / (busy_ns / 1e9)

    def _run(self, op, record: bool) -> tuple[bool, object]:
        self.attempted += 1
        error = None
        result = None
        tracer = self.tracer
        with tracer.operation(self.attempted, op.kind) if tracer else nullcontext():
            start = perf_counter_ns()
            try:
                result = op.call()
            except Exception as exc:
                error = exc
            elapsed = perf_counter_ns() - start
        if error is None:
            try:
                ok = bool(op.check(result))
            except Exception as exc:
                ok, error = False, exc
        else:
            ok = False
        self.gauge.maybe_sample()
        if record:
            factor = self.gauge.factor()
            self.factors.append(factor)
            self.raw_ns[op.kind].append(elapsed)
            self.latency_ns[op.kind].append(elapsed / factor)
        if not ok:
            self.problems.append(f"{op.kind}: {error!r}" if error else f"{op.kind}: wrong outcome")
        return ok, result

    def run_round(self, r: int, record: bool = True) -> None:
        """Run round r; a failed operation ends the round, since later
        operations of the round depend on its result."""
        gen = self.bench.round(r)
        try:
            op = next(gen)
            while True:
                ok, result = self._run(op, record)
                if not ok:
                    gen.close()
                    return
                op = gen.send(result)
        except StopIteration:
            pass

    def enough(self) -> bool:
        lib = min_samples(90)
        cli = min_samples(50)
        return all(len(self.latency_ns[k]) >= lib for k in self.bench.lib_kinds) and all(
            len(self.latency_ns[k]) >= cli for k in self.bench.cli_kinds
        )


def untraced(bench, seconds: float, setup: list[tuple[float, float]]):
    loop = Loop(bench)
    loop.run_round(-1, record=False)  # warm-up: lazy set-up and caches
    start = perf_counter()
    rounds = 0
    while True:
        loop.run_round(rounds)
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds and (loop.enough() or loop.problems) or elapsed >= HARD_STOP_S:
            break
    loop.problems += bench.finish()
    lat = {k: [ns / 1e6 for ns in v] for k, v in loop.latency_ns.items()}
    metrics = {
        "setup_s": statistics.median(scaled for raw, scaled in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": loop.ops_per_s(),
        "op_p50_ms": geomean(percentile(lat[k], 50) for k in bench.lib_kinds),
        "op_p90_ms": geomean(percentile(lat[k], 90) for k in bench.lib_kinds),
        "cli_p50_ms": geomean(percentile(lat[k], 50) for k in bench.cli_kinds),
    }
    factors = loop.factors
    lines = [
        f"rounds {rounds} in {elapsed:.1f} s; speed factor median "
        f"{statistics.median(factors):.3f}, range {min(factors):.3f}-{max(factors):.3f}",
        "setup probes (s, reference-speed s): "
        + ", ".join(f"({raw:.4f}, {scaled:.4f})" for raw, scaled in setup),
        "per type, reference-speed ms [raw ms]:",
    ]
    for kind in bench.lib_kinds + bench.cli_kinds:
        shown = []
        for p in (50, 90) if kind in bench.lib_kinds else (50,):
            scaled = percentile(lat[kind], p)
            raw = percentile(loop.raw_ns[kind], p) / 1e6
            shown.append(f"{kind}_p{p}_ms {scaled:.4f} [{raw:.4f}]")
        lines.append(f"  {'  '.join(shown)}  (n={len(lat[kind])})")
    if bench.name == "campaign":
        lines.append(f"  trials_per_s {metrics['ops_per_s']:.2f} 1/s")
    return loop, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, lines


def traced(bench, seconds: float):
    loop = Loop(bench)
    loop.run_round(-1, record=False)
    start = perf_counter()
    rounds = 0
    while rounds == 0 or perf_counter() - start < seconds / 3:
        loop.run_round(rounds)
        rounds += 1
    loop.problems += bench.finish()

    tracer = Tracer()
    tracer.install(bench.fields)
    traced_loop = Loop(bench, tracer)
    try:
        traced_loop.run_round(0)
        first_round, first_ops = tracer.mark(), traced_loop.recorded
        for r in range(1, rounds):
            traced_loop.run_round(r)
    finally:
        tracer.remove()
    traced_loop.problems += bench.finish()

    ops = traced_loop.recorded
    metrics = {
        "fields.ext_field_s": (bench.ext_field_s, "s"),
        "fields.table_build_s": (bench.table_build_s, "s"),
    }
    metrics.update(tracer.layer_metrics(ops, first_round, first_ops))
    plain, with_trace = loop.ops_per_s(), traced_loop.ops_per_s()
    metrics["trace.untraced_ops_per_s"] = (plain, "1/s")
    metrics["trace.ops_per_s"] = (with_trace, "1/s")
    metrics["trace.overhead_ratio"] = (plain / with_trace, "ratio")

    TRACES.mkdir(exist_ok=True)
    spans = TRACES / f"spans-{bench.name}-seed{bench.seed}.tsv"
    tracer.write(spans)
    lines = [
        f"rounds {rounds} untraced then traced; {ops} traced operations, "
        f"{len(tracer.span_start)} spans written to {os.path.relpath(spans, ROOT)}"
    ]
    loop.attempted += traced_loop.attempted
    loop.problems += traced_loop.problems
    return loop, metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    from workloads import WORKLOAD_CLASSES

    print(environment())
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    setup = [] if args.trace else setup_seconds(args.workload)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        bench = WORKLOAD_CLASSES[args.workload](args.seed, workdir)
        if args.trace:
            loop, metrics, lines = traced(bench, args.seconds)
        else:
            loop, metrics, lines = untraced(bench, args.seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    failed = len(loop.problems)
    print(f"failed_ratio {failed / loop.attempted:.6g} ratio")
    for problem, times in Counter(loop.problems).most_common(10):
        print(f"FAILED {times}x {problem}")
    result = {
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
