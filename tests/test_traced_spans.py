"""The benchmark's traced passes record a call in every span they require.

Each pass runs ``perfbench/worker.py`` in a child process, so the tracer's
patches never reach this test process.  A span without a caller on its
workload (``perfbench.workloads.TRACED``) shows up in ``missing_calls``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["full-c2", "complex-a3"])
def test_traced_pass_records_a_call_in_every_span(workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", "42", "--trace", "1"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["missing_calls"] == []
    assert out["records"]
    failed = [r["name"] for r in out["records"] if not r["ok"] or str(r.get("got")).startswith("error:")]
    assert failed == []
