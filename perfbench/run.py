#!/usr/bin/env python3
"""Run one benchmark workload (or all of them) and print every metric.

    python3 perfbench/run.py --workload market_zoned --seed 11 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the program is imported from its
``src/``.  ``--trace 0`` measures the end-to-end metrics on untraced
passes; ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics, writing the spans of the traced passes to
``.perfbench_out/trace-<workload>-seed<seed>.json`` (Chrome trace-event
JSON).  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when any operation or output check fails.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP thread variables, pinned to one thread before numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

#: The seed the committed numbers use, and one kept back for confirming
#: a claimed gain on inputs it was not tuned on.
CANONICAL_SEED = 11
HELD_OUT_SEED = 29

#: Set-ups per run, at least: ``setup_s`` is their median.  Set-up
#: repeats until both counts are reached, so a quick set-up is sampled
#: over seconds of the host's load rather than one moment of it.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0

WORKLOAD_NAMES = ("fleet_week", "market_zoned", "session_rolling")

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "households_per_s": "1/s",
    "readings_per_s": "1/s",
    "replan_p50_ms": "ms",
    "replan_p90_ms": "ms",
    "ingest_p50_ms": "ms",
    "ingest_p90_ms": "ms",
    "resume_s": "s",
    "peak_rss_mb": "MB",
    "schedule_improvement": "fraction",
    "welfare_eur": "EUR",
    "ok_frac": "fraction",
}

#: Per-layer metrics: name -> unit.
PER_LAYER = {
    "simulation.busy_s": "s",
    "disaggregation.busy_s": "s",
    "disaggregation.households": "count",
    "disaggregation.ms_per_household": "ms",
    "extraction.busy_s": "s",
    "extraction.offers": "count",
    "aggregation.busy_s": "s",
    "aggregation.offers_in": "count",
    "aggregation.aggregates_out": "count",
    "aggregation.offers_per_aggregate": "ratio",
    "scheduling.busy_s": "s",
    "scheduling.aggregates": "count",
    "scheduling.placed_frac": "fraction",
    "scheduling.candidate_starts": "count",
    "market.busy_s": "s",
    "market.bids": "count",
    "market.accepted_frac": "fraction",
    "session.ingest_busy_s": "s",
    "session.replan_busy_s": "s",
    "session.commit_busy_s": "s",
    "session.reextracted_households": "count",
    "session.reextract_frac": "fraction",
    "persistence.snapshot_busy_s": "s",
    "persistence.snapshots": "count",
    "persistence.wal_bytes": "bytes",
    "persistence.snapshot_replan_ms": "ms",
    "persistence.plain_replan_ms": "ms",
    "gc.busy_s": "s",
    "pipeline.coverage": "fraction",
    "pipeline.unaccounted_s": "s",
    "trace.overhead_frac": "fraction",
}


def environment() -> dict[str, Any]:
    """Where the numbers were taken: CPUs, thread pins, versions, commit."""
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # not a git checkout
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_sha": sha,
    }


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #


def end_to_end(
    passes: list, setups: list[float], attempted: int, failed: int
) -> dict[str, float]:
    replans = [t for p in passes for t in p.replan_s]
    ingests = [t for p in passes for t in p.ingest_s]
    resumes = [t for p in passes for t in p.resume_s]
    last = passes[-1]
    return {
        "setup_s": statistics.median(setups),
        "households_per_s": statistics.median(p.households / p.wall_s for p in passes),
        "readings_per_s": statistics.median(p.readings / p.wall_s for p in passes),
        "replan_p50_ms": percentile(replans, 50) * 1e3,
        "replan_p90_ms": percentile(replans, 90) * 1e3,
        "ingest_p50_ms": percentile(ingests, 50) * 1e3,
        "ingest_p90_ms": percentile(ingests, 90) * 1e3,
        "resume_s": statistics.median(resumes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "schedule_improvement": last.improvement,
        "welfare_eur": last.welfare_eur,
        "ok_frac": 1.0 - failed / attempted,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Any, passes: list) -> list[dict[str, float]]:
    """Per-layer numbers of each traced pass, from its spans."""
    from tracing import COUNTS, END, LAYER, NAME, START

    own = tracer.self_times()
    rows = []
    for root, output in zip(tracer.roots("pass"), passes):
        below = tracer.under(root)
        busy: dict[str, float] = {}
        named: dict[str, float] = {}
        counts: dict[str, float] = {}
        extractions = 0
        replans: list[tuple[float, bool]] = []
        for i in below:
            span = tracer.spans[i]
            busy[span[LAYER]] = busy.get(span[LAYER], 0.0) + own[i]
            key = f"{span[LAYER]}.{span[NAME]}"
            named[key] = named.get(key, 0.0) + own[i]
            for counter, value in span[COUNTS].items():
                counts[counter] = counts.get(counter, 0.0) + value
            extractions += "offers" in span[COUNTS]
            if key == "session.replan":
                snapshot = any(
                    tracer.spans[j][NAME] == "write_snapshot" for j in tracer.under(i)
                )
                replans.append((span[END] - span[START], snapshot))
        wall = tracer.spans[root][END] - tracer.spans[root][START]
        households = counts.get("households", 0.0)
        placed = counts.get("placed", 0.0)
        snapshot_replans = [d for d, snap in replans if snap]
        plain_replans = [d for d, snap in replans if not snap]
        reextracted = extractions if replans else 0
        rows.append(
            {
                "disaggregation.busy_s": busy.get("disaggregation", 0.0),
                "disaggregation.households": households,
                "disaggregation.ms_per_household": _ratio(
                    busy.get("disaggregation", 0.0) * 1e3, households
                ),
                "extraction.busy_s": busy.get("extraction", 0.0),
                "extraction.offers": counts.get("offers", 0.0),
                "aggregation.busy_s": busy.get("aggregation", 0.0),
                "aggregation.offers_in": counts.get("offers_in", 0.0),
                "aggregation.aggregates_out": counts.get("aggregates_out", 0.0),
                "aggregation.offers_per_aggregate": _ratio(
                    counts.get("offers_in", 0.0), counts.get("aggregates_out", 0.0)
                ),
                "scheduling.busy_s": busy.get("scheduling", 0.0),
                "scheduling.aggregates": counts.get("aggregates", 0.0),
                "scheduling.placed_frac": _ratio(
                    placed, placed + counts.get("unplaced", 0.0)
                ),
                "scheduling.candidate_starts": counts.get("candidate_starts", 0.0),
                "market.busy_s": busy.get("market", 0.0),
                "market.bids": counts.get("bids", 0.0),
                "market.accepted_frac": _ratio(
                    counts.get("cleared", 0.0), counts.get("bids", 0.0)
                ),
                "session.ingest_busy_s": named.get("session.ingest", 0.0),
                "session.replan_busy_s": named.get("session.replan", 0.0),
                "session.commit_busy_s": named.get("session.commit", 0.0),
                "session.reextracted_households": reextracted,
                "session.reextract_frac": _ratio(
                    reextracted, len(replans) * output.households
                ),
                "persistence.snapshot_busy_s": busy.get("persistence", 0.0),
                "persistence.snapshots": counts.get("snapshots", 0.0),
                "persistence.wal_bytes": counts.get("wal_bytes", 0.0),
                "persistence.snapshot_replan_ms": (
                    statistics.median(snapshot_replans) * 1e3 if snapshot_replans else 0.0
                ),
                "persistence.plain_replan_ms": (
                    statistics.median(plain_replans) * 1e3 if plain_replans else 0.0
                ),
                "gc.busy_s": busy.get("gc", 0.0),
                "pipeline.coverage": _ratio(wall - own[root], wall),
                "pipeline.unaccounted_s": own[root],
                "wall_s": wall,
            }
        )
    return rows


def per_layer(
    tracer: Any, plain: list, traced: list, simulation: list[float]
) -> dict[str, float]:
    rows = layer_metrics(tracer, traced)
    metrics = {"simulation.busy_s": statistics.median(simulation)}
    for name in PER_LAYER:
        if name not in metrics and name != "trace.overhead_frac":
            metrics[name] = statistics.median(row[name] for row in rows)
    traced_wall = statistics.median(row["wall_s"] for row in rows)
    plain_wall = statistics.median(p.wall_s for p in plain)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    return {name: metrics[name] for name in PER_LAYER}


# ---------------------------------------------------------------------- #
# One workload
# ---------------------------------------------------------------------- #


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Set up, measure for ``seconds``, check; returns the result object."""
    from tracing import Tracer
    from workloads import WORKLOADS, Checks

    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        setups, simulation = [], []
        ctx = None
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
            ctx = None
            gc.collect()
            t0 = time.perf_counter()
            ctx = workload.setup(seed, workdir)
            setups.append(time.perf_counter() - t0)
            simulation.append(ctx.simulation_s)

        tracer = Tracer() if trace else None
        checks = Checks()
        plain: list = []
        traced: list = []
        first = None
        operations = failed_operations = 0
        started = time.perf_counter()
        while True:
            use_tracer = trace and len(traced) < len(plain)
            gc.collect()
            try:
                if use_tracer:
                    tracer.pass_id = len(traced)
                    output = workload.run_pass(ctx, tracer)
                else:
                    output = workload.run_pass(ctx, None)
            except Exception:  # a failed operation ends the run, reported
                traceback.print_exc()
                operations += 1
                failed_operations += 1
                break
            (traced if use_tracer else plain).append(output)
            operations += output.operations
            first = first or output
            checked(checks, workload.check_pass, ctx, first, output, checks)
            if output is not first:
                output.outputs = {}  # checked; keep memory flat across passes
            elapsed = time.perf_counter() - started
            if elapsed >= seconds and plain and (traced or not trace):
                break

        if first is not None:
            checked(checks, workload.check, ctx, first, checks)
        for failure in checks.failures:
            print(f"CHECK FAILED {failure}", file=sys.stderr)
        attempted = operations + checks.attempted
        failed = failed_operations + len(checks.failures)
        correct = failed == 0 and bool(plain)
        if trace and traced:
            metrics = per_layer(tracer, plain, traced, simulation)
            units = PER_LAYER
            tracer.write_chrome(
                OUT / f"trace-{name}-seed{seed}.json",
                {"workload": name, "seed": seed, "environment": environment()},
            )
        elif plain and not trace:
            metrics = end_to_end(plain, setups, attempted, failed)
            units = END_TO_END
        else:
            metrics, units = {}, {}
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                key: {"value": value, "unit": units[key]} for key, value in metrics.items()
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def checked(checks: Any, fn: Any, *args: Any) -> None:
    """Run output checks; a check that raises counts as a failed one."""
    try:
        fn(*args)
    except Exception:
        traceback.print_exc()
        checks.expect(fn.__name__, ["raised"])


def print_result(name: str, result: dict[str, Any]) -> None:
    print(f"workload {name}: attempted {result['attempted']}, failed {result['failed']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:36s} {metric['value']:>16.6g} {metric['unit']}")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    merged: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        try:
            result = json.loads(child.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] = merged["correct"] and result["correct"] and child.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=CANONICAL_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {source}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    if args.workload == "all":
        return run_all(args)
    print("environment " + json.dumps(environment()))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(args.workload, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
