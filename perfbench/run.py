#!/usr/bin/env python3
"""The repository benchmark: three end-to-end workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload chip-ac-bugs --seed 1 --seconds 15
    python3 perfbench/run.py --workload all --seed 1

``--workload all`` runs every workload, each in a fresh interpreter.
A run sets up (timed), then measures passes of its workload, in whole
rounds, until ``--seconds`` have elapsed, and checks every verdict
against the known answers.  It prints, per metric,
the median, quartiles and number of samples, a host-stamped JSON
record, and, as the last line, one JSON object::

    {"correct": true, "attempted": 1368, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates untraced and traced passes on the same inputs
and reports the per-layer metrics plus the tracing overhead, writing
the spans to ``perfbench/out/``.  A wrong verdict makes the run exit
with status 1 after printing its result; a checkout without the
program's sources exits with status 2 and prints no result.
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
import tempfile
import time
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("chip-ac-bugs", "sweep-warm", "service-eco")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def percentile(values: Sequence[float], percent: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100,
                                method="inclusive")[percent - 1]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric's samples."""
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def end_to_end(setup_s: Sequence[float], passes,
               peak_rss_mb: float) -> Dict[str, Dict[str, float]]:
    """Every end-to-end metric of a run, pooled over its passes:
    ``setup_s`` over the set-ups, ``bugs_found_s`` over the bug hunts,
    the submission percentiles over every job or submission, and
    ``checks_per_s`` as all jobs settled over all timed seconds.
    Quartiles of the pooled metrics are over the passes."""
    latencies = [value for p in passes for value in p.latencies_s]
    settled = sum(p.settled for p in passes)
    rows = {
        "setup_s": summarize(setup_s),
        "checks_per_s": {"median": settled / sum(p.wall_s for p in passes),
                         "n": settled},
        "bugs_found_s": summarize([value for p in passes
                                   for value in p.bugs_found_s]),
        "submit_p50_ms": {"median": percentile(latencies, 50) * 1000.0,
                          "n": len(latencies)},
        "submit_p90_ms": {"median": percentile(latencies, 90) * 1000.0,
                          "n": len(latencies)},
        "peak_rss_mb": {"median": peak_rss_mb, "n": 1,
                        "q1": peak_rss_mb, "q3": peak_rss_mb},
    }
    per_pass = {
        "checks_per_s": [p.settled / p.wall_s for p in passes],
        "submit_p50_ms": [percentile(p.latencies_s, 50) * 1000.0
                          for p in passes],
        "submit_p90_ms": [percentile(p.latencies_s, 90) * 1000.0
                          for p in passes],
    }
    for name, values in per_pass.items():
        spread = summarize(values)
        rows[name].update(q1=spread["q1"], q3=spread["q3"])
    return rows


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child
    (a pool worker), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def host_stamp() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def print_rows(title: str, rows: Dict[str, dict], units: Dict[str, str]
               ) -> None:
    print(title)
    print(f"  {'metric':<28} {'unit':<6} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'n':>5}")
    for name, row in rows.items():
        print(f"  {name:<28} {units.get(name, ''):<6} "
              f"{row['median']:>14.6g} {row['q1']:>14.6g} "
              f"{row['q3']:>14.6g} {row['n']:>5}")


# ----------------------------------------------------------------------
class Run:
    """What one workload run measured."""

    def __init__(self) -> None:
        self.setup_s: List[float] = []
        self.passes = []
        self.problems: List[str] = []
        self.attempted = 0
        self.layer_samples: Dict[str, List[float]] = {}
        self.spans: List[list] = []
        self.last_totals: Dict[str, dict] = {}
        self.rss = 0.0


def traced_pass(workload, index: int, untraced, run: Run) -> None:
    """Run pass ``index`` again with every layer boundary traced."""
    from tracing import Recorder, install, layer_metrics, layer_totals

    recorder = Recorder()
    uninstall = install(recorder)
    recorder.enabled = True
    try:
        traced = workload.run_pass(index, recorder)
    finally:
        recorder.enabled = False
        uninstall()
    if traced.digest != untraced.digest:
        run.problems.append(f"pass {index}: traced outcome differs from "
                            f"the untraced one")
    run.problems += traced.problems
    run.attempted += traced.attempted
    for name, value in layer_metrics(recorder, traced.extras,
                                     traced.wall_s,
                                     untraced.wall_s).items():
        run.layer_samples.setdefault(name, []).append(value)
    run.spans.extend(recorder.spans)
    run.last_totals = layer_totals(recorder.spans)


def measure(workload, seconds: float, trace: bool) -> Run:
    """Set up, then run passes until ``seconds`` have elapsed."""
    run = Run()
    for _ in range(workload.setup_repeats):
        started = time.perf_counter()
        workload.setup()
        run.setup_s.append(time.perf_counter() - started)
    prepare = getattr(workload, "prepare_checks", None)
    if prepare is not None:
        run.problems += prepare()

    deadline = time.perf_counter() + seconds
    index = 0
    while index < workload.min_passes or \
            index % workload.passes_per_round or \
            time.perf_counter() < deadline:
        result = workload.run_pass(index)
        run.passes.append(result)
        if trace:
            traced_pass(workload, index, result, run)
        index += 1
    run.rss = peak_rss_mb()
    for result in run.passes:
        run.problems += result.problems
        run.attempted += result.attempted
        run.setup_s += result.setup_s
    return run


def print_trace_summary(run: Run, span_path: str) -> None:
    from tracing import write_spans

    print("layer spans of the last traced pass (calls, inclusive s, "
          "self s):")
    for name, row in sorted(run.last_totals.items(),
                            key=lambda item: -item[1]["self_s"]):
        print(f"  {name:<24} {row['calls']:>8} {row['s']:>12.4f} "
              f"{row['self_s']:>12.4f}")
    samples = run.layer_samples
    if statistics.median(samples["job.run_s"]):
        share = (statistics.median(samples["job.self_s"]) +
                 statistics.median(samples["engine.self_s"])) / \
            statistics.median(samples["tracing.traced_s"])
        print(f"job+engine self time: {share:.1%} of traced wall time")
    print(f"tracing overhead: x"
          f"{statistics.median(samples['tracing.overhead_ratio']):.3f} "
          f"traced over untraced wall time")
    write_spans(run.spans, span_path)
    print(f"spans: {span_path} ({len(run.spans)})")


def run_workload(args) -> int:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    spec = load_spec()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        run = measure(workload, args.seconds, bool(args.trace))
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        rows = {name: summarize(values)
                for name, values in run.layer_samples.items()}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        rows = end_to_end(run.setup_s, run.passes, run.rss)
    stamp = host_stamp()
    failed = len(run.problems)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(run.passes)} "
          f"host={json.dumps(stamp, sort_keys=True)}")
    print_rows("metrics (median or pooled value; quartiles over passes "
               "or set-ups; n samples):", rows, units)
    print(f"  {'failed_ratio':<28} {'ratio':<6} "
          f"{failed / max(run.attempted, 1):>14.6g}"
          f"   ({failed} of {run.attempted} attempted)")
    if args.trace:
        print_trace_summary(run, os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
    for problem in run.problems[:20]:
        print(f"WRONG: {problem}")

    record = {
        "host": stamp, "seed": args.seed, "workload": args.workload,
        "trace": args.trace, "seconds": args.seconds,
        "inputs": workload.describe(), "passes": len(run.passes),
        "outcome_digests": sorted({p.digest for p in run.passes}),
        "rows": {args.workload: rows},
        "attempted": run.attempted, "failed": failed,
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}.json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": row["median"], "unit": units[name]}
                    for name, row in rows.items()},
    }))
    return 0 if not failed else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter; one row per workload."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(completed.stdout)
        lines = completed.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = {"correct": False, "attempted": 0,
                             "failed": 0, "metrics": {}}
        if completed.returncode:
            status = completed.returncode
    metrics = list(results[WORKLOAD_NAMES[0]]["metrics"]) or \
        [m for r in results.values() for m in r["metrics"]]
    print("summary (medians; one column per workload):")
    print(f"  {'metric':<28}" + "".join(f"{name:>16}"
                                         for name in WORKLOAD_NAMES))
    for metric in dict.fromkeys(metrics):
        cells = [results[name]["metrics"].get(metric, {}).get("value")
                 for name in WORKLOAD_NAMES]
        print(f"  {metric:<28}" + "".join(
            f"{'-' if cell is None else format(cell, '.6g'):>16}"
            for cell in cells))
    correct = status == 0 and all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0 if correct else (status or 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
