"""socialchoice benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py                      # all four workloads, default seed
    python3 bench/run.py --workload audit_sweep --seed 7 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it measures the package in `src/`
as it is (nothing is installed).  Each workload runs in fresh processes (see
harness.py).  With `--trace 0` it prints the end-to-end metrics named in
BENCHMARK.json; with `--trace 1` a separate traced run prints the per-layer
metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A run record with the
environment, every op failure and report digests goes to bench/out/runs/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("cli_small", "elections_large", "pipeline_sim", "audit_sweep")
DEFAULT_SEED = 1
# Seed kept out of tuning; a claimed gain must also hold on it.
HELD_OUT_SEED = 20240416
# CPUs this process may use, read before main() pins it to one of them.
CPUS = sorted(os.sched_getaffinity(0))
# Extra set-up-only processes per measured run; set-up time is the median.
SETUP_REPEATS = 4
# Wall-clock budget for one invocation on one workload.
BUDGET_S = 170.0
ENVIRONMENT_NOTE = (
    "Wall and CPU time of the benchmark's own processes only: no system-wide "
    "tracing or hardware performance counters are available on this machine."
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_state() -> dict:
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
        return proc.stdout.strip() if proc.returncode == 0 else None

    try:
        sha = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        sha = dirty = None
    return {"git_sha": sha, "git_dirty": None if dirty is None else bool(dirty)}


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        **git_state(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(CPUS),
        "pinned_cpu": CPUS[-1],
        "src_lines": src_lines(),
        "note": ENVIRONMENT_NOTE,
    }


def child(name: str, seed: int, seconds: float, mode: str, workdir: Path, deadline: float,
          spans: Path | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [
        sys.executable, str(HERE / "harness.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode, "--workdir", str(workdir),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{name}: no time left for the {mode} process")
    try:
        proc = subprocess.run(
            command + ["--t0", repr(time.monotonic())],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: {mode} process exceeded the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{name}: {mode} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object and writes the run record."""
    start = time.monotonic()
    deadline = start + BUDGET_S
    load_start = os.getloadavg()[0]
    work = OUT / "work" / f"{name}-{seed}-{os.getpid()}"
    spans = OUT / "spans" / f"{name}-seed{seed}.jsonl.gz" if trace else None
    if spans is not None:
        spans.parent.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            result = child(name, seed, seconds, "trace", work / "trace", deadline, spans)
            setups = []
        else:
            processes = [
                child(name, seed, seconds, "setup", work / f"setup{i}", deadline)
                for i in range(SETUP_REPEATS)
            ]
            result = child(name, seed, seconds, "measure", work / "measure", deadline)
            processes.append(result)
            setups = [p["setup_s"] for p in processes]
            raw_setups = [p["raw_setup_s"] for p in processes]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    failed_ratio = failed / attempted if attempted else 1.0
    bench = spec()
    record = {
        "workload": name,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": int(trace),
    }
    if trace:
        values = dict(result["per_layer"], **{"check.failed_ratio": failed_ratio})
        wanted = bench["per_layer"]
        record["spans_written"] = result.get("spans_written")
    else:
        values = {
            "setup_s": statistics.median(setups),
            # The median cycle's rate: a cycle is a fixed mix of ops, and the
            # median leaves out cycles that a slow spell of the host covered.
            "ops_per_s": statistics.median(result["cycle_ops_per_s"]) * (attempted - failed) / attempted,
            "latency_p50_ms": result["latency_p50_ms"],
            "latency_tail_ms": result["latency_tail_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        wanted = bench["end_to_end"]
        record.update(
            setup_samples_s=setups,
            raw_setup_samples_s=raw_setups,
            latency_tail_percentile=result["latency_tail_pct"],
            latency_samples=attempted,
            wall_s=result["wall_s"],
            timed_s=result["timed_s"],
            cycle_ops_per_s=result["cycle_ops_per_s"],
            raw_latencies_ms=result["raw_latencies_ms"],
            calibration_ms=result["calibration_ms"],
            cycle_sizes=result["cycle_sizes"],
            raw_ops_per_s=(attempted - failed) / result["timed_s"],
            raw_latency_p50_ms=result["raw_latency_p50_ms"],
            raw_latency_tail_ms=result["raw_latency_tail_ms"],
            failed_ratio=failed_ratio,
        )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = failed == 0 and not result["errors"]
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record.update(
        environment(),
        load_1min_start=load_start,
        load_1min_end=os.getloadavg()[0],
        errors=result["errors"],
        report_digests_for_information=result["digests"],
        result=summary,
    )
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"== {name} (seed {seed}, {'traced' if trace else 'untraced'}, {attempted} ops, "
          f"failed_ratio {failed_ratio:g})")
    for metric, entry in metrics.items():
        note = ""
        if metric == "latency_tail_ms":
            note = f"  (p{record['latency_tail_percentile']:g} of {record['latency_samples']} ops)"
        print(f"   {metric:<42} {entry['value']:>14.6g} {entry['unit']}{note}")
    for error in result["errors"]:
        print(f"   FAILED {error}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "socialchoice" / "__init__.py").is_file():
        print(f"error: no socialchoice package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # The vCPUs of a small VM slow down independently of each other, so the
    # workload processes, their ops' children and the calibration task that
    # scales their times (harness.calibrate) all run on one CPU.
    os.sched_setaffinity(0, {CPUS[-1]})
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = {name: run_workload(name, args.seed, seconds, bool(args.trace)) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = summaries[names[0]]
    else:
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, s in summaries.items()
                for metric, entry in s["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
