"""The benchmark's workloads, the layers it traces and the correctness gate.

Each workload calls nullvar's public entry points once; ``run`` returns the
records it produced and the report payload behind them.  Functions are
looked up through their modules at call time, so a run sees the tracer's
wrappers when they are installed.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

PINS_PATH = Path(__file__).with_name("pins.json")

# name -> (family, rank) of the algebra the workload builds
TYPES = {
    "full-c2": ("C", 2),
    "complex-a3": ("A", 3),
}

# the structure suite (about 0.03 s) is too short to time steadily
SUITE_TIMERS = ("exterior", "nullspace", "equations", "repthy")


def run(name: str, seed: int, corrupt=None) -> tuple[list[dict], dict]:
    """Run one workload; return (records, report payload)."""
    from nullvar import algebra, exterior, roots, suites

    family, rank = TYPES[name]
    if name == "complex-a3":
        # exhaustive over all 2^15 basis wedges; the seed plays no part
        L = algebra.build_algebra(roots.build_root_datum(family, rank))
        report = exterior.verify_exact_sequences(L)
        records = [
            {"suite": "exterior", "name": f"rank_nullity_degree_{r.k}", "got": r.to_json(), "ok": r.ok}
            for r in report.records
        ]
        return records, report.to_json()
    config = suites.SuiteConfig(family=family, rank=rank, suite="all", seed=seed, corrupt=corrupt)
    payload = suites.run_suites(config)
    return payload["records"], payload


def install_suite_timers(times: dict[str, float]) -> None:
    """Time each ``suites.<name>_records`` call that ``run_suites`` makes.

    ``run_suites`` finds these functions as module globals, so replacing the
    globals costs two clock reads per suite and changes nothing else.
    """
    from nullvar import suites

    for suite in SUITE_TIMERS:
        attr = f"{suite}_records"
        original = getattr(suites, attr)

        def timed(*args, _fn=original, _suite=suite, **kwargs):
            start = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                times[_suite] = times.get(_suite, 0.0) + time.perf_counter() - start

        setattr(suites, attr, timed)


# ---------------------------------------------------------------------------
# tracing

FULL, COMPLEX = "full-c2", "complex-a3"
BOTH = (FULL, COMPLEX)

# (span name, module, function or Class.method, workloads on which the span
# must record at least one call).  The last column is the self-check that a
# missed patch cannot read as "0 s" on the workload that should move it.
TRACED = (
    ("linalg.rref", "linalg", "rref", BOTH),
    ("linalg.rank", "linalg", "rank", BOTH),
    ("linalg.kernel_basis", "linalg", "kernel_basis", (FULL,)),
    ("linalg.det", "linalg", "det", (FULL,)),
    ("linalg.matmul", "linalg", "Matrix.__matmul__", (FULL,)),
    ("roots.build_root_datum", "roots", "build_root_datum", BOTH),
    ("algebra.build_algebra", "algebra", "build_algebra", BOTH),
    ("algebra.w_eval", "algebra", "LieAlgebra.w_eval", (FULL,)),
    ("algebra.Subspace", "algebra", "Subspace.__init__", (FULL,)),
    ("algebra.orthogonal_complement", "algebra", "orthogonal_complement", (FULL,)),
    ("exterior.wedge", "exterior", "wedge", BOTH),
    ("exterior.delta", "exterior", "delta", (FULL, COMPLEX)),
    ("exterior.delta_star", "exterior", "delta_star", (FULL,)),
    ("exterior.lie_action_basis", "exterior", "lie_action_basis", (FULL,)),
    ("exterior.casimir", "exterior", "casimir", (FULL,)),
    ("exterior.graded_matrix", "exterior", "graded_matrix", (FULL,)),
    ("exterior.blocked_rank", "exterior", "blocked_rank", (FULL, COMPLEX)),
    ("exterior.blocked_eigenspace_dim", "exterior", "blocked_eigenspace_dim", (FULL,)),
    ("exterior.verify_exact_sequences", "exterior", "verify_exact_sequences", (FULL, COMPLEX)),
    ("variety.is_nullspace", "variety", "is_nullspace", (FULL,)),
    ("variety.chart", "variety", "chart", (FULL,)),
    ("variety.local_equations", "variety", "local_equations", (FULL,)),
    ("variety.d_operator_corank", "variety", "d_operator_corank", (FULL,)),
    ("variety.degenerate", "variety", "degenerate", (FULL,)),
    ("grassmann.plucker", "grassmann", "plucker", (FULL,)),
    ("grassmann.linear_membership", "grassmann", "linear_membership", (FULL,)),
    ("grassmann.membership_equivalence_suite", "grassmann", "membership_equivalence_suite", (FULL,)),
    ("grassmann.pairing_matrix", "grassmann", "pairing_matrix", (FULL,)),
    ("grassmann.check_equivariance_matrices", "grassmann", "check_equivariance_matrices", (FULL,)),
    ("repcheck.verify_gamma_window", "repcheck", "verify_gamma_window", (FULL,)),
    ("repcheck.verify_dimension_claim", "repcheck", "verify_dimension_claim", (FULL,)),
    ("suites.run_suites", "suites", "run_suites", (FULL,)),
)


def install_tracer(tracer) -> None:
    """Patch every binding of every traced function, counting work at the boundary."""
    def rref_cells(args, result):
        cells = args[0].rows * args[0].cols
        tracer.count("linalg.rref.cells", cells)
        tracer.peak("linalg.rref.max_cells", cells)

    def w_eval_nonzero(args, result):
        if result:
            tracer.count("algebra.w_eval.nonzero")

    def local_equation_monomials(args, result):
        for poly in result.polynomials:
            tracer.count("variety.local_equations.monomials", len(poly))
            tracer.count("variety.local_equations.linear", sum(1 for mono in poly if len(mono) == 1))

    observers = {
        "linalg.rref": rref_cells,
        "algebra.w_eval": w_eval_nonzero,
        "variety.local_equations": local_equation_monomials,
    }
    for span, modname, attr, _ in TRACED:
        module = importlib.import_module(f"nullvar.{modname}")
        observe = observers.get(span)
        if "." in attr:
            cls_name, method = attr.split(".")
            tracer.patch_method(span, getattr(module, cls_name), method, observe)
        else:
            tracer.patch_function(span, module, attr, observe)


def layer_metrics(tracer, records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed as in BENCHMARK.json."""
    stats = tracer.stats()
    counters = tracer.counters
    out: dict[str, float] = {}
    for span, s in stats.items():
        out[f"{span}.calls"] = s["calls"]
        out[f"{span}.self_s"] = s["self_s"]
        out[f"{span}.s"] = s["total_s"]
    out["linalg.rref.cells"] = counters.get("linalg.rref.cells", 0)
    out["linalg.rref.max_cells"] = counters.get("linalg.rref.max_cells", 0)
    out["algebra.w_eval.nonzero_share"] = _share(counters.get("algebra.w_eval.nonzero", 0), stats["algebra.w_eval"]["calls"])
    out["variety.local_equations.linear_share"] = _share(
        counters.get("variety.local_equations.linear", 0), counters.get("variety.local_equations.monomials", 0)
    )
    out["exterior.blocked_rank.blocks"] = tracer.direct_children("exterior.blocked_rank", "linalg.rank")
    out["exterior.blocked_eigenspace_dim.blocks"] = tracer.direct_children(
        "exterior.blocked_eigenspace_dim", "linalg.kernel_basis"
    )
    out["suites.records"] = len(records)
    out["suites.records_failed"] = sum(1 for r in records if record_failed(r))
    out["trace.spans"] = len(tracer.span_name)
    return out


def missing_calls(name: str, tracer) -> list[str]:
    """Traced spans that recorded no call on a workload that must exercise them."""
    stats = tracer.stats()
    return [span for span, _, _, workloads in TRACED if name in workloads and stats[span]["calls"] == 0]


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# correctness gate


def record_failed(record: dict) -> bool:
    got = record.get("got")
    return not record["ok"] or (isinstance(got, str) and got.startswith("error:"))


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


def gate(name: str, seed: int, records: list[dict], payload: dict, pins: dict) -> tuple[int, list[str]]:
    """Check one run's records; return (failed record count, problems).

    A record fails when its ``ok`` is false, its ``got`` is an error, or its
    value differs from the basis-independent value pinned for it.  Problems
    also name records that are missing or unexpected, and a seed that did
    not reach the configuration.
    """
    pin = pins[name]
    problems = []
    names = [r["name"] for r in records]
    if names != pin["records"]:
        missing = sorted(set(pin["records"]) - set(names))
        extra = sorted(set(names) - set(pin["records"]))
        problems.append(f"record names differ from the pinned list: missing {missing}, unexpected {extra}")
    values = pin["values"]
    failed = 0
    for r in records:
        bad = record_failed(r)
        if not bad and r["name"] in values and r["got"] != values[r["name"]]:
            problems.append(f"{r['name']}: got {r['got']!r}, pinned {values[r['name']]!r}")
            bad = True
        failed += bad
    if name == "complex-a3":
        ranks = [d["dim"] - d["ker_delta"] for d in payload["degrees"]]
        if ranks != pin["delta_ranks"]:
            problems.append(f"delta ranks by degree {ranks} differ from the pinned {pin['delta_ranks']}")
            failed += 1
    elif payload["config"]["seed"] != seed:
        problems.append(f"report seed {payload['config']['seed']} is not the requested {seed}")
    if failed:
        problems.append(f"{failed} of {len(records)} records failed")
    return failed, problems
