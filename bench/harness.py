"""One workload in one fresh process: set up, warm up, time a closed loop.

Started by run.py, one process per set-up sample or measured run:

    python3 bench/harness.py --workload NAME --seed N --seconds S \
        --mode {setup,measure,trace} --workdir DIR --t0 MONOTONIC

`--t0` is the parent's monotonic clock just before it started this process,
so set-up time covers interpreter start, imports, input generation and one
untimed warm-up op.  The loop is closed with one client: the next op starts
when the previous one has finished and been checked.  It runs whole cycles
until the next cycle would mostly fall after `--seconds` and the op count
leaves ten samples beyond the workload's tail percentile.  A fixed
calibration task runs after each op, outside its timing, and the reported
times are scaled by it to one host speed (see `Loop`).

Modes: `setup` stops at the first timed op; `measure` times the loop
untraced; `trace` times half the run untraced, replays the same ops with
spans on, then adds the interpreter and import probes.  The result is one
JSON line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, CheckFailed

# A run keeps going past --seconds until the tail has ten samples beyond it,
# but never for longer than this many times --seconds.
HARD_CAP_FACTOR = 3.0


class Run:
    """Op outcomes of one process: failures, report digests, first reports."""

    def __init__(self, workload):
        self.workload = workload
        self.tracer: Tracer | None = None
        self.ops = Counter()
        self.failed = Counter()
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.first_reports: dict[str, str] = {}

    def fail(self, key: str, message: str, count: int = 1) -> None:
        self.failed[key] += count
        if len(self.errors) < 20:
            self.errors.append(f"{key}: {message}")

    def op(self, key: str, arg, count: bool = True) -> float:
        """Run, time and check one op; returns its latency in seconds."""
        workload, tracer = self.workload, self.tracer
        if tracer is not None:
            tracer.op_id += 1
            tracer.active = True
        start = time.perf_counter()
        try:
            out = workload.run(arg)
            error = None
        except Exception as exc:  # an op that raises is a failed op; keep looping
            error = f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        if count:
            self.ops[key] += 1
        if error is None:
            error = self._check(key, arg, out)
        if error is not None:
            self.fail(key, error, 1 if count else 0)
        return latency

    def _check(self, key: str, arg, out) -> str | None:
        try:
            text = self.workload.report(out)
            self.workload.check(key, arg, out)
        except CheckFailed as exc:
            return str(exc)
        if text is None:
            return None
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        first = self.digests.setdefault(key, digest)
        if first != digest:
            return "report differs from an earlier run of the same input and seed"
        self.first_reports.setdefault(key, text)
        return None

    def verify(self) -> None:
        """Check each distinct op's report against the reference tallies."""
        for key, text in self.first_reports.items():
            try:
                self.workload.verify(key, text)
            except Exception as exc:  # a malformed report fails its ops, not the run
                self.fail(key, f"{type(exc).__name__}: {exc}", self.ops[key] - self.failed[key])

    @property
    def attempted(self) -> int:
        return sum(self.ops.values())


# The calibration task's median time at the host speed the reported times
# are scaled to (see `calibrate`).
CALIBRATION_REF_S = 0.0025
_CALIBRATION_DATA = [tuple(random.Random(0).sample(range(8), 8)) for _ in range(6000)]


def calibrate() -> float:
    """Time one fixed pure-Python task of the benchmark's own (tuples, a
    dict tally, a keyed sort); no program code runs in it.  The garbage
    collector is off while it runs, so the program's heap does not change
    its cost."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    counts: dict[tuple, int] = {}
    for ranking in _CALIBRATION_DATA:
        counts[ranking[:3]] = counts.get(ranking[:3], 0) + 1
    ordered = sorted(_CALIBRATION_DATA, key=lambda r: (r[2], r[5], r))
    sum(a * b for a, b in zip(ordered[0], ordered[-1]))
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


# Calibration samples on each side of an op that set its scale.
CALIBRATION_HALF_WINDOW = 1


class Loop:
    """The timed ops of one run and the calibration times between them.

    After each op (outside its timing) the calibration task runs once.  An
    op's latency is scaled by CALIBRATION_REF_S over the median of the
    calibration times nearest to it, which takes out the host's speed
    swings (they last seconds and move all pure-Python code alike).  `raw`
    keeps the latencies as measured.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.calibration: list[float] = []
        self.cycle_sizes: list[int] = []
        self.wall_s = 0.0

    def scales(self) -> list[float]:
        cal, h = self.calibration, CALIBRATION_HALF_WINDOW
        return [CALIBRATION_REF_S / statistics.median(cal[max(0, i - h): i + h + 1])
                for i in range(len(cal))]

    def scaled(self) -> list[float]:
        return [latency * scale for latency, scale in zip(self.raw, self.scales())]

    def cycle_rates(self) -> list[float]:
        """Ops per second of each cycle, from the scaled latencies."""
        scaled, rates, start = self.scaled(), [], 0
        for size in self.cycle_sizes:
            rates.append(size / sum(scaled[start:start + size]))
            start += size
        return rates


def loop(run: Run, cycles, seconds: float, min_ops: int) -> Loop:
    """Whole cycles until the time is up."""
    result = Loop()
    start = time.perf_counter()
    done = 0
    while True:
        ops = cycles()
        for key, arg in ops:
            result.raw.append(run.op(key, arg))
            result.calibration.append(calibrate())
        result.cycle_sizes.append(len(ops))
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_FACTOR * seconds:
            break
        if len(result.raw) >= min_ops and elapsed + 0.5 * elapsed / done >= seconds:
            break
    result.wall_s = elapsed
    return result


def samples_beyond(n: int, pct: float) -> int:
    """Samples above the nearest-rank percentile of n samples."""
    return n - math.ceil(pct * n / 100)


def tail(latencies: list[float], pct: float) -> tuple[float, float]:
    """The workload's tail percentile, stepped down while fewer than ten
    samples lie beyond it; returns (value, percentile)."""
    ordered = sorted(latencies)
    for p in (pct, 95.0, 90.0, 75.0, 50.0):
        if p <= pct and samples_beyond(len(ordered), p) >= 10:
            break
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1], p


def startup_probes(repeats: int = 3) -> dict[str, float]:
    """Interpreter start and `import socialchoice.cli`, from fresh processes."""
    interpreter, imports, numpy = [], [], []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        interpreter.append((time.perf_counter() - start) * 1e3)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import socialchoice.cli"],
            check=True, capture_output=True, text=True, timeout=60,
        )
        total_us = numpy_us = 0
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            name = fields[2]
            top_level = len(name) - len(name.lstrip()) == 1
            if top_level and name.strip().split(".")[0] == "socialchoice":
                total_us += int(fields[1])
            if name.strip() == "numpy":
                numpy_us = int(fields[1])
        imports.append(total_us / 1e3)
        numpy.append(numpy_us / 1e3)
    return {
        "cli.interpreter_ms": statistics.median(interpreter),
        "cli.import_ms": statistics.median(imports),
        "cli.import_numpy_ms": statistics.median(numpy),
    }


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.subprocess_ops else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans", type=Path, help="trace mode: write spans here (.jsonl.gz)")
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    cls = WORKLOADS[args.workload]
    options = {"in_process": True} if args.mode == "trace" and cls.subprocess_ops else {}
    workload = cls(args.seed, args.workdir, **options)
    run = Run(workload)
    cycle = workload.cycle
    first = cycle()
    run.op(*first[0], count=False)  # untimed warm-up
    # Workloads with fixed cycles hand out the same list again; the sweep's
    # first cycle, generated during set-up, is served first.
    pending = [first]

    def cycles():
        return pending.pop() if pending else cycle()

    raw_setup_s = time.monotonic() - args.t0
    # Set-up is scaled like the op latencies, by calibration run right after it.
    setup_scale = CALIBRATION_REF_S / statistics.median(calibrate() for _ in range(5))
    result = {
        "workload": args.workload,
        "mode": args.mode,
        "setup_s": raw_setup_s * setup_scale,
        "raw_setup_s": raw_setup_s,
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if args.mode == "measure":
        min_ops = next(n for n in range(1, 10**6) if samples_beyond(n, workload.tail_pct) >= 10)
        timed = loop(run, cycles, args.seconds, min_ops)
        scaled = timed.scaled()
        latency_tail, tail_pct = tail(scaled, workload.tail_pct)
        raw_tail, _ = tail(timed.raw, workload.tail_pct)
        result.update(
            peak_rss_mb=peak_rss_mb(workload),
            timed_s=sum(timed.raw),
            cycle_ops_per_s=timed.cycle_rates(),
            wall_s=timed.wall_s,
            latency_p50_ms=statistics.median(scaled) * 1e3,
            latency_tail_ms=latency_tail * 1e3,
            latency_tail_pct=tail_pct,
            raw_latency_p50_ms=statistics.median(timed.raw) * 1e3,
            raw_latency_tail_ms=raw_tail * 1e3,
            raw_latencies_ms=[x * 1e3 for x in timed.raw],
            calibration_ms=[x * 1e3 for x in timed.calibration],
            cycle_sizes=timed.cycle_sizes,
        )
    else:
        # The traced half replays the untraced half's cycles, so the two
        # throughputs compare the same ops.
        served = []

        def recorded():
            served.append(cycles())
            return served[-1]

        untraced = loop(run, recorded, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        run.tracer = tracer
        traced = Loop()
        for key, arg in (op for ops in served for op in ops):
            traced.raw.append(run.op(key, arg))
            traced.calibration.append(calibrate())
        # Both throughputs from scaled latencies, so a host slowdown during
        # one half does not read as tracing overhead.
        ops_untraced = len(untraced.raw) / sum(untraced.scaled())
        ops_traced = len(traced.raw) / sum(traced.scaled())
        layers = tracer.layer_metrics()
        layers.update(startup_probes())
        layers.update(
            {
                "trace.ops_per_s_untraced": ops_untraced,
                "trace.ops_per_s_traced": ops_traced,
                "trace.overhead_pct": (ops_untraced / ops_traced - 1.0) * 100.0,
                "trace.uncovered_ms": (sum(traced.raw) - tracer.top_level_s) * 1e3,
                "trace.spans": tracer.spans_total,
            }
        )
        if args.spans is not None:
            result["spans_written"] = tracer.dump(args.spans)
        result["per_layer"] = layers
    run.verify()
    result.update(
        attempted=run.attempted,
        failed=sum(run.failed.values()),
        errors=run.errors,
        digests=run.digests,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
