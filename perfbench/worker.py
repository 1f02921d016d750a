"""One measured iteration of a workload in a fresh interpreter.

Run by ``run.py`` with ``src`` on ``PYTHONPATH``, so nullvar's lazy caches
start cold, as they do for a command-line user.  Prints one JSON object:
the workload's wall time, the records, the per-suite times, the peak RSS
and, with ``--trace 1``, the per-layer metrics; with ``--spans PATH`` the
traced spans are written to PATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.TYPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--corrupt", default=None, metavar="I,J,K")
    args = parser.parse_args()
    corrupt = tuple(int(x) for x in args.corrupt.split(",")) if args.corrupt else None

    import nullvar  # noqa: F401  (import cost belongs to setup, not to the timed call)

    suite_s: dict[str, float] = {}
    workloads.install_suite_timers(suite_s)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-{time.time_ns()}")
        workloads.install_tracer(tracer)

    start = time.perf_counter()
    records, payload = workloads.run(args.workload, args.seed, corrupt)
    verify_s = time.perf_counter() - start

    out = {
        "verify_s": verify_s,
        "suite_s": suite_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "records": records,
        "payload": payload,
        # the bytes `nullvar verify --no-timestamp --out` would write
        "report_digest": hashlib.sha256((json.dumps(payload, indent=2) + "\n").encode()).hexdigest(),
    }
    if tracer is not None:
        out["layers"] = workloads.layer_metrics(tracer, records)
        out["missing_calls"] = workloads.missing_calls(args.workload, tracer)
        if args.spans:
            tracer.write_spans(args.spans)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
