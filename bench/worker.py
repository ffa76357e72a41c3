"""One benchmark pass in a fresh process, so vsi's module caches start empty.

Reads a job from stdin: the source root, the plan, whether to trace and where
to write spans.  It imports vsi from the source tree, makes one warm-up call,
runs the plan's operations one after another with calibration slices between
them, checks the answers, and prints one JSON line with its unscaled
measurements and the slice times.  Run by run.py, not by hand.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    job = json.load(sys.stdin)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import vsi
    import vsi.cli  # noqa: F401  (the CLI's import cost belongs to set-up)

    if not os.path.abspath(vsi.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"vsi was imported from {vsi.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    from spans import Tracer
    from workloads import OpClock, check_answers, run_plan, warm_up

    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    warm_up(vsi)
    # set-up ends here: the calibration slices below are the benchmark's own
    ready = time.monotonic()
    clock = OpClock(vsi, tracer)
    for _ in range(3):
        clock.calibrate()
    clock.slice_wall = clock.slice_cpu = 0.0

    cpu0, wall0 = time.process_time(), time.perf_counter()
    if tracer is not None:
        tracer.on = True
    answers = run_plan(vsi, job["plan"], clock)
    if tracer is not None:
        tracer.on = False
    wall = time.perf_counter() - wall0 - clock.slice_wall
    cpu = time.process_time() - cpu0 - clock.slice_cpu
    clock.calibrate()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(job["answers"]) as fh:
        committed = json.load(fh)
    errors = check_answers(vsi, job["plan"], answers, committed)

    result = {
        "ready_monotonic": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "latencies_s": clock.latencies,
        "calibration_s": clock.slices,
        "attempted": clock.attempted,
        "failed": clock.failed,
        "failures": clock.failures,
        "errors": errors,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write(job["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
