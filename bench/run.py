"""Benchmark of the veronese toolkit: whole CLI runs, a library membership
stream and cold table builds, each checked for correctness.

Usage (from the root of a checkout):
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): verify-sweep, oracle-census,
membership-stream, tables-cold.  `--size tiny` swaps in the smallest
contexts, for the smoke test.

--trace 0 runs whole passes of operations until their summed wall time
reaches --seconds.  The result line carries the end-to-end metrics:

  setup_s        calibrated CPU seconds of a fresh interpreter that imports
                 veronese and builds the workload's per-context tables
                 (median of 7)
  ops_per_cpu_s  operations per calibrated CPU second of the processes
                 doing the work
  op_cpu_p50_ms  median calibrated CPU time of one operation
  peak_rss_mb    peak resident memory of the processes doing the work

Calibrated CPU time is CPU time scaled by a reference loop measured around
it on the same CPU (see calibrate.py): this benchmark runs on a shared
virtual machine where wall time, and even the CPU time of a fixed loop,
moves by a quarter or more from one minute to the next.  The wall-time
figures a user sees,
ops_per_s, op_p50_ms and op_tail_ms (the highest of p99.9/p99/p95/p90 with
at least ten operations beyond it), are printed in the report above the
result line with failed_ratio, but are not result metrics: failed_ratio is
0 on a correct program, and the tail needs at least 100 operations, which
the CLI workloads never reach.

--trace 1 runs a fixed number of passes (set by --seconds and the
workload, not by the clock, so counts repeat exactly) once untraced and
once with timing wrappers around every public function of the package,
and reports the per-layer metrics of tracer.LAYER_METRICS.  The spans go
to .bench_out/ in the checkout.

Every run records the machine (Python version, CPU count and model, load
average at start and end) in its report and in .bench_out/.  The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  Without src/veronese in the checkout the benchmark exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys

import tracer as tracing
from calibrate import REFERENCE_NOMINAL_S, Calibration, pin_to_one_cpu, reference_cpu
from workloads import OUT, ROOT, SRC, WORKLOADS, run_child

END_TO_END = {
    "setup_s": "s",
    "ops_per_cpu_s": "1/s",
    "op_cpu_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 7
STARTUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
SETUP_PROBE = str(ROOT / "bench" / "setup_probe.py")


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def load1() -> float | None:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    for p in TAIL_PERCENTILES:
        if len(ordered) * (100 - p) / 100 >= 10:
            return p, ordered[math.ceil(len(ordered) * p / 100) - 1]
    return None


def per_label(labels: list[str], costs) -> dict[str, list]:
    """Per configuration: count and median wall and CPU ms."""
    groups: dict[str, list] = {}
    for label, cost in zip(labels, costs):
        groups.setdefault(label, []).append(cost)
    return {
        label: [len(group), statistics.median(c.wall for c in group) * 1e3,
                statistics.median(c.cpu for c in group) * 1e3]
        for label, group in sorted(groups.items())
    }


def setup_cost(workload) -> tuple[float, float, bool]:
    """Median calibrated CPU and wall seconds of fresh interpreters doing
    the set-up."""
    calibration, walls, ok = Calibration(), [], True
    for _ in range(SETUP_REPEATS):
        cost, (code, _, _) = run_child([SETUP_PROBE, *workload.setup_probe])
        calibration.add(cost.cpu)
        walls.append(cost.wall)
        ok &= code == 0
    return statistics.median(calibration.flush()), statistics.median(walls), ok


def timed_run(workload, seed: int, seconds: float) -> dict:
    labels, costs, failed = [], [], 0
    calibration = Calibration()
    wall, index = 0.0, 0
    while wall < seconds:
        for op in workload.pass_ops(seed, index):
            cost, output = workload.run(op)
            calibration.add(cost.cpu)
            failed += not workload.check(op, output)
            del output  # so that the next operation's peak memory is its own
            labels.append(op.label)
            costs.append(cost)
            wall += cost.wall
        index += 1
    calibrated = calibration.flush()
    rss = workload.peak_rss_mb()
    setup_cpu, setup_wall, setup_ok = setup_cost(workload)
    n = len(costs)
    cpu = sum(c.cpu for c in costs)
    walls = [c.wall for c in costs]
    metrics = {
        "setup_s": setup_cpu,
        "ops_per_cpu_s": n / sum(calibrated),
        "op_cpu_p50_ms": statistics.median(calibrated) * 1e3,
        "peak_rss_mb": rss,
    }
    notes = {
        "setup_s": f"calibrated CPU, median of {SETUP_REPEATS} fresh interpreters "
                   f"({setup_wall:.4f} s wall)",
        "ops_per_cpu_s": f"calibrated; {n} ops in {cpu:.3f} CPU s, {index} passes",
        "op_cpu_p50_ms": f"calibrated, n={n}",
        "peak_rss_mb": f"ru_maxrss of {workload.rss_of}",
    }
    extra = {
        "ops_per_s": (n / wall, "1/s", f"wall: {n} ops in {wall:.3f} s"),
        "op_p50_ms": (statistics.median(walls) * 1e3, "ms", f"wall, n={n}"),
    }
    t = tail(walls)
    if t is None:
        extra["op_tail_ms"] = (None, "ms", f"left out: n={n} leaves fewer than 10 ops beyond p90")
    else:
        extra["op_tail_ms"] = (t[1] * 1e3, "ms", f"wall, p{t[0]:g}, n={n}")
    extra["failed_ratio"] = (failed / n, "ratio", f"{failed}/{n}")
    return {
        "attempted": n,
        "failed": failed,
        "correct": failed == 0 and setup_ok,
        "metrics": metrics,
        "notes": notes,
        "extra": extra,
        "per_label": per_label(labels, costs),
    }


def traced_run(workload, seed: int, seconds: float, name: str) -> dict:
    passes = max(1, int(seconds / workload.pass_seconds))
    ops = [op for index in range(passes) for op in workload.pass_ops(seed, index)]
    labels = [op.label for op in ops]
    plain_costs, plain_out, plain_ok = [], [], []
    references = [reference_cpu()]
    for op in ops:
        cost, output = workload.run(op)
        plain_ok.append(workload.check(op, output))
        plain_costs.append(cost)
        plain_out.append(workload.describe(output))
    references.append(reference_cpu())
    startup = statistics.median(
        run_child(["-c", "import veronese.cli"])[0].wall for _ in range(STARTUP_REPEATS)
    )
    costs, described, trace = workload.traced(ops)
    references.append(reference_cpu())
    identical = plain_out == described
    failed = sum(not ok or a != b for ok, a, b in zip(plain_ok, plain_out, described))

    metrics = tracing.layer_metrics(trace)
    metrics["cli.startup_ms"] = startup * 1e3
    # ops per calibrated CPU second, each phase scaled by the reference loop
    # timed before and after it
    untraced_rate, traced_rate = (
        len(ops) / sum(c.cpu for c in phase) * (before + after) / (2 * REFERENCE_NOMINAL_S)
        for phase, before, after in ((plain_costs, *references[:2]), (costs, *references[1:]))
    )
    metrics["trace.overhead_ops_per_s"] = traced_rate - untraced_rate

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{name}-seed{seed}.spans.json"
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"ops": labels, **trace}, fh)
    # is_on_variety wall ms per call by configuration: ROADMAP baseline rows
    per_config: dict[str, list[float]] = {}
    for sid, span_name, start, end, parent, op in trace["spans"]:
        if span_name == "morphism.is_on_variety":
            per_config.setdefault(labels[op], []).append(end - start)
    return {
        "attempted": len(ops),
        "failed": failed,
        "correct": failed == 0,
        "metrics": {k: metrics[k] for k in tracing.LAYER_METRICS},
        "notes": {},
        "extra": {},
        "per_label": per_label(labels, plain_costs),
        "trace": {
            "passes": passes,
            "untraced_ops_per_cpu_s": untraced_rate,
            "traced_ops_per_cpu_s": traced_rate,
            "outputs_identical": identical,
            "spans": len(trace["spans"]),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "is_on_variety_ms_per_call": {
                k: [len(v), sum(v) / len(v) * 1e3] for k, v in sorted(per_config.items())
            },
        },
    }


def report(args, result: dict, info: dict) -> None:
    print(f"veronese benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, size {args.size}")
    print(f"machine: python {info['python']}, nproc {info['nproc']}, cpu {info['cpu']}, "
          f"load1 {info['load1_start']} -> {info['load1_end']}")
    print(f"ops: {result['attempted']} attempted, {result['failed']} failed "
          f"(closed loop, one client)")
    for label, (n, wall_ms, cpu_ms) in result["per_label"].items():
        print(f"  p50 {label}: {wall_ms:.4f} ms wall, {cpu_ms:.4f} ms raw CPU (n={n})")
    for name, value in result["metrics"].items():
        unit = END_TO_END.get(name) or tracing.LAYER_METRICS[name][0]
        print(f"{name:50s} {value:16.6g} {unit:6s} {result['notes'].get(name, '')}")
    for name, (value, unit, note) in result["extra"].items():
        shown = "-" if value is None else f"{value:.6g}"
        print(f"{name:50s} {shown:>16s} {unit:6s} {note}")
    trace = result.get("trace")
    if trace:
        print(f"tracing: {trace['passes']} passes, untraced {trace['untraced_ops_per_cpu_s']:.4g} "
              f"ops/CPU s, traced {trace['traced_ops_per_cpu_s']:.4g} ops/CPU s, outputs "
              f"identical: {trace['outputs_identical']}, {trace['spans']} spans in "
              f"{trace['spans_file']}")
        for label, (n, ms) in trace["is_on_variety_ms_per_call"].items():
            print(f"  is_on_variety in {label}: {ms:.3f} ms per call, traced wall (n={n})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be in 1..600")
    if not (SRC / "veronese" / "__init__.py").is_file():
        print(f"error: no veronese package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()

    info = {**machine(), "load1_start": load1()}
    workload = WORKLOADS[args.workload](args.size)
    # untimed warm-up: compiles the package's bytecode and fills the file cache
    if run_child([SETUP_PROBE, *workload.setup_probe])[1][0] != 0:
        print("error: set-up probe failed", file=sys.stderr)
        return 1
    workload.prepare()
    if args.trace:
        result = traced_run(workload, args.seed, args.seconds, args.workload)
    else:
        result = timed_run(workload, args.seed, args.seconds)
    info["load1_end"] = load1()

    report(args, result, info)
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "machine": info, **result}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    units = END_TO_END if not args.trace else {k: u for k, (u, _) in tracing.LAYER_METRICS.items()}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
