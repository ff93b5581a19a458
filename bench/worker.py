"""One repetition of one workload in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --out DIR --result FILE
                            --spawned T [--trace] [--setup-only]

The parent passes `--spawned`, its CLOCK_MONOTONIC reading just before it
started this process, so set-up time runs from spawn to `openbaker.cli`
imported. `openbaker` is found through PYTHONPATH. The result is written as
JSON to FILE; with `--trace` the spans are written next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _time() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from openbaker import cli

    imported = _time()
    result = {"setup_s": imported - args.spawned}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    from workloads import HEALTH_SPECTRUM, WORKLOADS, subcommand_argv

    tracer = None
    root = contextlib.nullcontext()
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(run_id=Path(args.out).name, keep=[HEALTH_SPECTRUM[args.workload][0]])
        tracer.install()
        root = tracer.span("workload")

    subcommands = []
    start = _time()
    with root:
        for argv in WORKLOADS[args.workload]:
            t0 = _time()
            try:
                rc = cli.main(subcommand_argv(argv, args.seed, args.out))
                error = None if rc == 0 else f"exit code {rc}"
            except Exception:  # a failed subcommand is counted, not fatal
                error = traceback.format_exc()
                print(error, file=sys.stderr)
            subcommands.append({"argv": argv, "wall_s": _time() - t0, "error": error})
    result["wall_s"] = _time() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["process"] = {"user_s": usage.ru_utime, "sys_s": usage.ru_stime,
                         "minor_faults": usage.ru_minflt}
    result["subcommands"] = subcommands

    if tracer is not None:
        result["layers"] = tracer.summary()
        result["counters"] = tracer.counters
        result["cache_hits"] = tracer.cache_hits()
        spectrum = tracer.kept.get(HEALTH_SPECTRUM[args.workload])
        if spectrum is not None:
            from checks import spectrum_health
            result["health"] = spectrum_health(spectrum)
        spans_path = Path(args.result).with_name("spans.json")
        spans_path.write_text(json.dumps({"run_id": tracer.run_id, "spans": tracer.spans}))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
