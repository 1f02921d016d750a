"""nullvar benchmark: time to verdict, with per-module traces.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload full-c2 --seed 42 --seconds 60 --trace 0
    python3 perfbench/run.py --self-check

Closed loop with one client: one iteration at a time, each in a fresh
interpreter (``worker.py``), so the algebra's lazy caches start cold as they
do for a command-line user.  A run repeats the workload until the next
iteration would end after ``--seconds``, and times set-up three times before
each iteration.  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` alternates untraced and traced iterations and
prints the per-layer metrics, including the tracing overhead.

Every iteration passes through the correctness gate in ``workloads.gate``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when the gate passed.  Raw results, the environment and the spans of
the last traced iteration are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUPS_PER_ITERATION = 3
RUN_LIMIT_S = 170  # a run must end within 180 s
# interpreter start, import nullvar, then the root datum and algebra of one type
SETUP_CODE = (
    "import sys, nullvar\n"
    "from nullvar import algebra, roots\n"
    "algebra.build_algebra(roots.build_root_datum(sys.argv[1], int(sys.argv[2])))\n"
)
# the corruption the self-check applies: shift C_{2,3}^1 of C2 by one
SELF_CHECK_CORRUPT = "2,3,1"


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def deadline_left(started: float) -> float:
    return RUN_LIMIT_S - (time.perf_counter() - started)


def run_child(cmd: list[str], started: float) -> tuple[float, str]:
    """Run ``cmd`` to its end; return (wall seconds, stdout).

    The wait blocks in ``waitpid``: ``subprocess`` with a timeout polls
    instead, which rounds short timings up to its 50 ms poll step.  A
    timer kills the child if it would run past the run's limit.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline_left(started)), proc.kill)
    timer.start()
    try:
        out, err = proc.communicate()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:4])} exited with {proc.returncode}:\n{err[-4000:]}")
    return elapsed, out


def time_setup(workload: str, started: float) -> float:
    family, rank = workloads.TYPES[workload]
    return run_child([sys.executable, "-c", SETUP_CODE, family, str(rank)], started)[0]


def run_worker(workload: str, seed: int, trace: bool, started: float, corrupt: str | None = None) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    if trace:
        cmd += ["--spans", str(OUT / "spans" / f"{workload}.json")]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    elapsed, out = run_child(cmd, started)
    result = json.loads(out.strip().splitlines()[-1])
    result["wall_s"] = elapsed
    result["traced"] = trace
    return result


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nullvar").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    """What a result depends on besides the code: compare runs only when these agree."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def measure(args, started: float) -> dict:
    """Iterations until the next one would overrun ``--seconds``, set-up timed between them.

    Set-up is timed throughout the run rather than in one burst, so that its
    median is not taken from a single moment of the machine's load.
    """
    budget_end = started + args.seconds
    plan = [False, True] if args.trace else [False]
    setup: list[float] = []
    iterations: list[dict] = []
    while True:
        setup += [time_setup(args.workload, started) for _ in range(SETUPS_PER_ITERATION)]
        trace = plan[len(iterations) % len(plan)]
        iterations.append(run_worker(args.workload, args.seed, trace, started))
        if len(iterations) < len(plan):
            continue
        upcoming = plan[len(iterations) % len(plan)]
        longest = max(it["wall_s"] for it in iterations if it["traced"] == upcoming)
        if time.perf_counter() + longest + SETUPS_PER_ITERATION * max(setup) > budget_end:
            break
        if deadline_left(started) < 2 * max(it["wall_s"] for it in iterations):
            break
    return {"setup_s": setup, "iterations": iterations}


def lower_quartile(values: list[float]) -> float:
    """Time of a run's iterations: their first quartile.

    Other tenants of a shared host only ever slow an iteration.  On a
    2-vCPU cloud VM they did so in phases of tens of seconds, by up to 1.8x.
    The lower quartile follows the program's own cost; the median follows
    the share of slow phases in the run.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def evaluate(args, measured: dict, pins: dict) -> dict:
    """Gate every iteration and reduce the iterations to the run's metrics."""
    iterations = measured["iterations"]
    plain = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    problems: list[str] = []
    attempted = failed = 0
    for it in iterations:
        bad, found = workloads.gate(args.workload, args.seed, it["records"], it["payload"], pins)
        attempted += len(it["records"])
        failed += bad
        problems += found
        if it.get("missing_calls"):
            problems.append(f"traced spans with no call on {args.workload}: {it['missing_calls']}")
    if any(it["records"] != iterations[0]["records"] for it in iterations):
        problems.append("iterations disagree on the records (traced and untraced must match)")

    verify = [it["verify_s"] for it in plain]
    metrics = {
        "verify_s": lower_quartile(verify),
        "setup_s": statistics.median(measured["setup_s"]),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in plain),
    }
    for suite in workloads.SUITE_TIMERS:
        metrics[f"suite_s.{suite}"] = lower_quartile([it["suite_s"].get(suite, 0.0) for it in plain])
    if traced:
        for key in traced[0]["layers"]:
            # median_low keeps counts whole: it picks one of the samples
            metrics[key] = statistics.median_low(it["layers"][key] for it in traced)
        metrics["trace.overhead_s"] = lower_quartile([it["verify_s"] for it in traced]) - metrics["verify_s"]
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "samples": {"verify_s": verify, "setup_s": measured["setup_s"],
                    "traced_verify_s": [it["verify_s"] for it in traced]},
        "report_digest": iterations[0]["report_digest"],
    }


def select_metrics(spec: dict, trace: bool, values: dict) -> dict:
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics named in BENCHMARK.json but not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def print_summary(args, env: dict, result: dict, metrics: dict) -> None:
    samples = result["samples"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={len(samples['verify_s'])} untraced + {len(samples['traced_verify_s'])} traced, "
          f"setups={len(samples['setup_s'])}")
    print(f"  env python={env['python']} nproc={env['nproc']} load {env['loadavg_start'][0]:.2f} -> "
          f"{env['loadavg_end'][0]:.2f} commit={env['git_commit']} src={env['source_sha256'][:16]}")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:>14.6g} {m['unit']}")
    share = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"  failed_share {result['failed']}/{result['attempted']} = {share:.4g}")
    print(f"  verify_s samples: {' '.join(f'{v:.3f}' for v in samples['verify_s'])} "
          f"(median {statistics.median(samples['verify_s']):.4g} s)")
    print(f"  report digest (information only): {result['report_digest']}")
    for problem in result["problems"]:
        print(f"  GATE: {problem}")


def self_check() -> int:
    """The gate must fail a corrupted algebra: full-c2 with one shifted constant."""
    started = time.perf_counter()
    it = run_worker("full-c2", 42, False, started, corrupt=SELF_CHECK_CORRUPT)
    failed, problems = workloads.gate("full-c2", 42, it["records"], it["payload"], workloads.load_pins())
    share = failed / len(it["records"])
    red = sorted({r["suite"] for r in it["records"] if workloads.record_failed(r)})
    print(f"self-check: full-c2 with corrupt={SELF_CHECK_CORRUPT}: failed_share {failed}/{len(it['records'])} "
          f"= {share:.4g}, red suites {red}")
    if failed > 0 and problems:
        print("self-check passed: the gate rejects the corrupted run")
        return 0
    print("self-check FAILED: the gate accepted a corrupted algebra")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.TYPES))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", dest="self_check")
    args = parser.parse_args(argv)

    if not (SRC / "nullvar" / "__init__.py").is_file():
        print(f"error: no nullvar sources at {SRC / 'nullvar'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    started = time.perf_counter()
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    env = environment()
    try:
        measured = measure(args, started)
        result = evaluate(args, measured, workloads.load_pins())
        metrics = select_metrics(spec, bool(args.trace), result["metrics"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = os.getloadavg()

    print_summary(args, env, result, metrics)
    raw = {"args": vars(args), "environment": env, **result, "iterations": [
        {k: v for k, v in it.items() if k not in ("records", "payload")} for it in measured["iterations"]
    ]}
    with open(OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(raw, fh, indent=1)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
