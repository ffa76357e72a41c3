"""The vsi benchmark: seeded workloads, answer checks, end-to-end and
per-layer metrics.

    python3 bench/run.py --workload decompose --seed 1 --seconds 30 --trace 0

Paths are resolved from this file, so any working directory works.  The
workloads (decompose, complex, support, rationals) are defined in
workloads.py, the answer oracles in oracle.py and the tracer in spans.py.
The load is one caller in a closed loop, in one process with no added
threads.

A run repeats passes of the seed's plan until --seconds have been spent, and
at least MIN_PASSES of them.  Each pass is a fresh process (worker.py) with
numpy/BLAS pinned to one thread, so vsi's module caches start empty every
time; times are medians over passes.  The worker interleaves short slices of
a fixed calibration kernel with the operations (calibrate.py), and every time
of a pass is scaled to a reference host speed by the median slice time of
that pass: the shared hosts this runs on change speed by a third over tens of
seconds, and the scaled times follow the program instead of the neighbours.
The unscaled medians and the host scale are printed beside the metrics.
With --trace 0 the run reports the end-to-end metrics: setup_s (process start
to the first timed operation), wall_s and cpu_s of the timed phase
(calibration slices excluded), op_p50_ms and op_tail_ms of the unit
operation, op_ok_ratio (1 - op_fail_ratio; a metric must never read 0) and
peak_rss_mb.  With --trace 1 it alternates untraced and traced passes and
reports per-layer calls and self times, cache and sampling ratios, and the
tracing overhead and coverage.

Every answer is checked; the run reports correct=false if any check fails.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record of the run, and the spans of
the last traced pass, are written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")

sys.path.insert(0, BENCH)
from calibrate import EXPONENT, REFERENCE_S  # noqa: E402
from workloads import WORKLOADS, make_plan  # noqa: E402

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_PASSES = 3
# Times that run_pass scales to the reference host speed, besides the
# operations' latencies and the per-layer self times.
SCALED = ("setup_s", "wall_s", "cpu_s")
PASS_TIMEOUT_S = 150
# Tail percentile: the highest one with at least ten operations beyond it in
# the pooled latencies of MIN_PASSES passes; fixed per workload by the plan.
TAIL_BEYOND = 10


def run_pass(plan: dict, trace: bool) -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_PINS})
    env["PYTHONHASHSEED"] = "0"
    job = {
        "root": ROOT,
        "plan": plan,
        "trace": trace,
        "answers": os.path.join(BENCH, "answers.json"),
        "spans": os.path.join(OUT, f"spans-{plan['workload']}.npz"),
    }
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, env=env,
        cwd=ROOT, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark pass failed with exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready_monotonic"] - spawned
    # Scale every time to the reference host speed (see calibrate.py).
    scale = (REFERENCE_S / statistics.median(result["calibration_s"])) ** EXPONENT
    result["host_scale"] = scale
    result["raw"] = {k: result[k] for k in SCALED}
    for k in SCALED:
        result[k] *= scale
    result["latencies_s"] = [x * scale for x in result["latencies_s"]]
    for key in result.get("layers", {}):
        if key.endswith("self_s"):
            result["layers"][key] *= scale
    return result


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def timings(passes: list[dict]) -> tuple[dict, str]:
    """Medians over passes of the timed phase, and percentiles of the
    operations' latencies pooled over passes (every pass runs the same plan)."""
    med = lambda key: statistics.median(p[key] for p in passes)  # noqa: E731
    pooled = [x for p in passes for x in p["latencies_s"]]
    per_pass = len(passes[0]["latencies_s"])
    level = max(0.5, 1 - TAIL_BEYOND / (MIN_PASSES * per_pass))
    metrics = {
        "wall_s": (med("wall_s"), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "op_p50_ms": (statistics.median(pooled) * 1e3, "ms"),
        "op_tail_ms": (percentile(pooled, level) * 1e3, "ms"),
    }
    note = (f"op_tail_ms is p{100 * level:.1f} of {len(pooled)} operations "
            f"({per_pass} per pass)")
    return metrics, note


def end_to_end(passes: list[dict]) -> tuple[dict, str]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {"setup_s": (statistics.median(p["setup_s"] for p in passes), "s")}
    times, note = timings(passes)
    metrics.update(times)
    # reported as the share that succeeded: a metric must never read 0
    metrics["op_ok_ratio"] = (1 - failed / attempted, "ratio")
    metrics["peak_rss_mb"] = (
        statistics.median(p["peak_rss_mb"] for p in passes), "MB")
    raw = lambda key: statistics.median(p["raw"][key] for p in passes)  # noqa: E731
    scale = statistics.median(p["host_scale"] for p in passes)
    return metrics, note + (
        f"; op_fail_ratio = {failed}/{attempted}; unscaled medians: setup "
        f"{raw('setup_s'):.3f} s, wall {raw('wall_s'):.3f} s, cpu "
        f"{raw('cpu_s'):.3f} s; host scale {scale:.3f}")


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, str]:
    metrics = {}
    for key in traced[0]["layers"]:
        if key == "traced_self_s":
            continue
        values = [p["layers"][key] for p in traced]
        if key.endswith(".calls") or key.endswith(".cells"):
            metrics[key] = (statistics.median_low(values), "count")
        else:
            unit = "s" if key.endswith(".self_s") else "ratio"
            metrics[key] = (statistics.median(values), unit)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    metrics["trace_overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    metrics["trace_coverage_ratio"] = (statistics.median(
        p["layers"]["traced_self_s"] / p["wall_s"] for p in traced), "ratio")
    note = (f"traced wall {traced_wall:.3f} s over {len(traced)} passes, "
            f"untraced {plain_wall:.3f} s over {len(plain)}")
    return metrics, note


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "vsi", "__init__.py")):
        print(f"no vsi source tree under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    plan = make_plan(args.workload, args.seed)
    modes = (False, True) if args.trace else (False,)
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    rounds = 0
    while True:
        t0 = time.monotonic()
        for mode in modes:
            (traced if mode else plain).append(run_pass(plan, mode))
        rounds += 1
        elapsed = time.monotonic() - start
        spent = time.monotonic() - t0
        need = 1 if args.trace else MIN_PASSES
        if rounds >= need and elapsed + spent > args.seconds:
            break

    passes = plain + traced
    errors = [e for p in passes for e in p["errors"]]
    for e in sorted(set(errors))[:20]:
        print("CHECK FAILED:", e)
    failures: dict[str, int] = {}
    for p in passes:
        for kind, count in p["failures"].items():
            failures[kind] = failures.get(kind, 0) + count
    for kind, count in sorted(failures.items()):
        print(f"operations failed with {kind}: {count}")
    if args.trace:
        metrics, note = per_layer(plain, traced)
    else:
        metrics, note = end_to_end(plain)
    print(f"{args.workload} seed={args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes in {time.monotonic() - start:.1f} s; {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")

    result = {
        "correct": not errors,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, note=note, errors=errors,
                  passes=[{k: v for k, v in p.items()
                           if k not in ("latencies_s", "calibration_s")}
                          for p in passes])
    with open(os.path.join(
            OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
            "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
