"""Command-line contract: verbs, exit codes, reproducible reports."""

import json
import os
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nullvar import cli
from nullvar.algebra import Subspace, standard_borel
from nullvar.variety import chart


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "nullvar", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_info_values():
    out = run_cli("info", "--type", "A2")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["g"] == 8 and data["l"] == 2 and data["d"] == 5
    assert data["dim_gamma_2rho"] == 27
    assert json.loads(run_cli("info", "--type", "C2").stdout)["dim_gamma_2rho"] == 81
    assert json.loads(run_cli("info", "--type", "A1").stdout)["dim_gamma_2rho"] == 3


def test_info_unsupported_type_exits_2():
    out = run_cli("info", "--type", "Z9")
    assert out.returncode == 2
    out = run_cli("verify", "--type", "Z9")
    assert out.returncode == 2
    # int() reads the rank as 10; the label is one letter and ASCII digits
    out = run_cli("info", "--type", "A1_0")
    assert out.returncode == 2
    assert "malformed type label" in out.stderr and "Traceback" not in out.stderr


def test_g2_verifies_and_charts():
    # G2 (g = 14) fits under a raised cap; its Chevalley basis comes from the root datum
    env = {"NULLVAR_MAX_G": "14"}
    for args in (("verify", "--type", "G2", "--suite", "structure"), ("chart", "--type", "G2", "--t", "1,1")):
        out = run_cli(*args, env_extra=env)
        assert out.returncode == 0, out.stdout + out.stderr


def test_verify_all_a2(tmp_path):
    report_path = tmp_path / "a2.json"
    out = run_cli("verify", "--type", "A2", "--suite", "all", "--seed", "42", "--out", str(report_path))
    assert out.returncode == 0, out.stdout + out.stderr
    report = json.loads(report_path.read_text())
    assert report["ok"]
    assert len(report["records"]) >= 40
    assert all("claim" in r for r in report["records"])
    assert report["config"]["seed"] == 42


def test_verify_report_written_even_on_failure(tmp_path):
    report_path = tmp_path / "bad.json"
    out = run_cli(
        "verify", "--type", "A2", "--suite", "exterior", "--corrupt", "2,3,1",
        "--out", str(report_path),
    )
    assert out.returncode == 1
    report = json.loads(report_path.read_text())
    assert not report["ok"]
    failing = [r["name"] for r in report["records"] if not r["ok"]]
    assert failing, "a corrupted constant must name at least one broken identity"


def test_corruption_breaks_structure_suite(tmp_path):
    report_path = tmp_path / "bad_structure.json"
    out = run_cli(
        "verify", "--type", "A2", "--suite", "structure", "--corrupt", "2,3,1",
        "--out", str(report_path),
    )
    assert out.returncode == 1
    report = json.loads(report_path.read_text())
    failing = {r["name"] for r in report["records"] if not r["ok"]}
    assert "jacobi_identity" in failing


def test_cartan_corruption_breaks_dimension_bookkeeping(tmp_path):
    # [h_0, h_1] picks up b_2: h_0 and h_1 no longer commute with the Cartan part
    report_path = tmp_path / "bad_cartan.json"
    out = run_cli(
        "verify", "--type", "A2", "--suite", "structure", "--corrupt", "0,1,2",
        "--out", str(report_path),
    )
    assert out.returncode == 1
    records = {r["name"]: r for r in json.loads(report_path.read_text())["records"]}
    assert not records["dimension_bookkeeping"]["ok"]
    assert records["dimension_bookkeeping"]["expected"] == [8, 2, 5]


@pytest.mark.parametrize(
    "corrupt,got",
    [
        ("3,7,0", 4),  # sigma passes the automorphism check, but no -1 eigenspace is a nullspace
        ("0,5,5", "error: InvolutionError: sigma fails to be an automorphism on (0,5)"),
    ],
)
def test_involution_record_is_the_only_red_nullspace_record(corrupt, got, tmp_path):
    report_path = tmp_path / "bad_involution.json"
    out = run_cli(
        "verify", "--type", "C2", "--suite", "nullspace", "--corrupt", corrupt, "--no-timestamp",
        "--out", str(report_path),
    )
    assert out.returncode == 1 and "Traceback" not in out.stderr
    red = [(r["name"], r["got"]) for r in json.loads(report_path.read_text())["records"] if not r["ok"]]
    assert red == [("involution_minus_eigenspaces", got)]


def test_reports_reproducible(tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["verify", "--type", "A1", "--suite", "all", "--seed", "7", "--no-timestamp"]
    assert run_cli(*args, "--out", str(p1)).returncode == 0
    assert run_cli(*args, "--out", str(p2)).returncode == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_timestamp_flag():
    out = run_cli("verify", "--type", "A1", "--suite", "structure")
    data = json.loads(out.stdout)
    assert "timestamp" in data
    out = run_cli("verify", "--type", "A1", "--suite", "structure", "--no-timestamp")
    assert "timestamp" not in json.loads(out.stdout)


def test_chart_verb():
    out = run_cli("chart", "--type", "A2", "--t", "1,1")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["dim"] == 5
    out = run_cli("chart", "--type", "A2", "--t", "1")
    assert out.returncode == 2


def test_membership_verb(tmp_path, a2):
    basis_path = tmp_path / "borel.json"
    basis_path.write_text(json.dumps(standard_borel(a2).to_json()))
    out = run_cli("membership", "--type", "A2", "--basis", str(basis_path))
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["is_nullspace"] is True
    assert data["linear_membership"] is True
    out = run_cli("membership", "--type", "A2", "--basis", str(tmp_path / "missing.json"))
    assert out.returncode == 2


E0 = [[1, 0, 0, 0, 0, 0, 0, 0]]


SHAPE = "rows and cols must be integers and entries a list of rows"
RANK = "declared dimension is not the integer rank of the basis"


@pytest.mark.parametrize(
    "basis,message",
    [
        ([1, 2], "a subspace is a JSON object"),
        ({"rows": 1, "cols": 8, "entries": 5}, SHAPE),
        ({"rows": 1, "cols": 8, "entries": [[1, 0, 0, 0, 0, 0, 0, None]]}, "subspace entries must be integers or rational strings"),
        # a JSON true is a Python bool, an int subclass, and 1.0 == 1: neither is a shape or a dimension
        ({"rows": True, "cols": 8, "entries": E0, "dim": True}, SHAPE),
        ({"rows": 1, "cols": 8, "entries": E0, "dim": True}, RANK),
        ({"rows": 1, "cols": 8, "entries": E0, "dim": 1.0}, RANK),
        ({"rows": 1, "cols": 8, "entries": [["1/0", 0, 0, 0, 0, 0, 0, 0]]}, "subspace entry Fraction(1, 0)"),
    ],
    ids=["top-level-list", "entries-not-a-list", "null-entry", "bool-rows", "bool-dim", "float-dim", "zero-denominator"],
)
def test_membership_verb_rejects_malformed_subspace(basis, message, tmp_path):
    # the file holds a subspace, and the messages say so
    basis_path = tmp_path / "bad.json"
    basis_path.write_text(json.dumps(basis))
    out = run_cli("membership", "--type", "A2", "--basis", str(basis_path))
    assert out.returncode == 2
    assert "error:" in out.stderr and "Traceback" not in out.stderr
    assert message in out.stderr and "matrix" not in out.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["chart", "--type", "A2", "--t", "1e3,1"],
        ["degenerate", "--type", "A2", "--t", "1,1", "--weight", "1E3,1"],
        ["membership", "--type", "A2", "--basis", "EXPONENT_JSON"],
    ],
    ids=["chart-t", "degenerate-weight", "membership-basis"],
)
def test_exponent_notation_is_a_usage_error(argv, tmp_path, capsys):
    # Fraction reads '1e3' as 1000, and a large exponent as an integer of that many digits
    basis = tmp_path / "exponent.json"
    basis.write_text(json.dumps({"rows": 1, "cols": 8, "entries": [["1e3", 0, 0, 0, 0, 0, 0, 0]]}))
    assert cli.main([str(basis) if a == "EXPONENT_JSON" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "exponent" in err


def test_underscores_and_non_ascii_digits_are_usage_errors(capsys):
    # Fraction reads '1_0' as 10 from Python 3.11 on, and an Arabic-Indic two as 2
    assert cli.main(["chart", "--type", "A2", "--t", "1_0,\u0662"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err and "ASCII digits" in captured.err


def test_deeply_nested_basis_file_is_a_usage_error(tmp_path):
    # json reads nested arrays by recursion, so a file of 100,000 '[' runs out of stack
    basis = tmp_path / "nested.json"
    basis.write_text("[" * 100_000)
    out = run_cli("membership", "--type", "A2", "--basis", str(basis))
    assert out.returncode == 2
    assert "error: cannot read subspace" in out.stderr and "Traceback" not in out.stderr


def test_rationals_without_exponents_are_accepted(tmp_path, capsys, a2):
    for t, parsed in (("3/4,-2", (Fraction(3, 4), -2)), ("0.5,1", (Fraction(1, 2), 1))):
        assert cli.main(["chart", "--type", "A2", "--t", t]) == 0
        assert json.loads(capsys.readouterr().out) == chart(a2, parsed).to_json()
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps({"rows": 1, "cols": 8, "entries": [["3/4", "-2", "0.5", 0, 0, 0, 0, 0]]}))
    assert cli.main(["membership", "--type", "A2", "--basis", str(basis)]) == 0
    assert json.loads(capsys.readouterr().out) == {"dim": 1, "is_nullspace": True}


def test_degenerate_verb(a2, c2):
    out = run_cli("degenerate", "--type", "A2", "--t", "1,1", "--weight", "2,1")
    assert out.returncode == 0
    assert json.loads(out.stdout) == standard_borel(a2).to_json()
    out = run_cli("degenerate", "--type", "A2", "--t", "1,1", "--weight", "1,-1")
    assert out.returncode == 2  # irregular weight
    # an anti-dominant weight flows onto the opposite Borel; a list with a leading minus is joined by "="
    out = run_cli("degenerate", "--type", "C2", "--t=1,1", "--weight=-1,-2")
    assert out.returncode == 0, out.stderr
    negative = [c2.basis_vector(c2.neg_index(a)) for a in range(c2.n_pos)]
    assert json.loads(out.stdout) == Subspace(c2, [c2.basis_vector(i) for i in range(c2.l)] + negative).to_json()


def test_equations_verb():
    out = run_cli("equations", "--type", "A2")
    data = json.loads(out.stdout)
    assert data["rank"] == 28
    assert data["ambient_plucker_dim"] == data["cols"] == 56
    assert data["rows"] == len(data["equations"]) == 28
    # sparse rows: only nonzero coefficients are listed, at in-range columns
    for row in data["equations"]:
        assert row and all(0 <= c < 56 and Fraction(x) != 0 for c, x in row)


def test_orbits_verb():
    out = run_cli("orbits", "--type", "A2")
    data = json.loads(out.stdout)
    assert len(data["orbits"]) == 4
    by_codim = sorted(o["codim"] for o in data["orbits"])
    assert by_codim == [0, 1, 1, 2]


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
@pytest.mark.parametrize(
    "args",
    [
        ("chart", "--type", "A2", "--t=-1,2"),
        ("equations", "--type", "A2"),
        ("verify", "--type", "A1", "--suite", "structure"),
    ],
    ids=["chart", "equations", "verify"],
)
def test_a_closed_stdout_ends_the_process_by_sigpipe(args):
    # exit 1 from verify means a check failed, so a reader that left early must give neither it nor a traceback
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts, so its first write finds no reader
    try:
        result = subprocess.run(
            [sys.executable, "-m", "nullvar", *args], stdout=write_end, stderr=subprocess.PIPE, text=True
        )
    finally:
        os.close(write_end)
    assert result.returncode == -signal.SIGPIPE and result.stderr == ""


def test_verify_b2_nullspace_green(tmp_path):
    out = run_cli("verify", "--type", "B2", "--suite", "nullspace", "--out", str(tmp_path / "b2.json"))
    assert out.returncode == 0, out.stderr
    report = json.loads((tmp_path / "b2.json").read_text())
    assert all(r["ok"] for r in report["records"])


@pytest.mark.parametrize("flag", ["--degree-cap", "--zeta-samples"])
def test_removed_zeta_flags_are_usage_errors(flag):
    # the zeta identity is checked on every basis wedge, so no knob selects degrees or samples
    out = run_cli("verify", "--type", "A1", flag, "2")
    assert out.returncode == 2
    assert "unrecognized arguments" in out.stderr and "Traceback" not in out.stderr


def test_max_g_cap():
    out = run_cli("info", "--type", "B3")
    assert out.returncode == 2  # g = 21 above the default cap
    out = run_cli("info", "--type", "B3", env_extra={"NULLVAR_MAX_G": "21"})
    assert out.returncode == 0
    out = run_cli("info", "--type", "C2", env_extra={"NULLVAR_MAX_G": "bogus"})
    assert out.returncode == 2


def test_cap_is_checked_before_the_root_system_is_built(monkeypatch, capsys):
    # A40 has g = 1680; building its roots takes seconds, so the cap must refuse it first
    def unbuildable(*args):
        raise AssertionError("the root system of an over-cap type was built")

    monkeypatch.setattr(cli, "build_root_datum", unbuildable)
    monkeypatch.delenv("NULLVAR_MAX_G", raising=False)
    for verb in ("info", "verify"):
        assert cli.main([verb, "--type", "A40"]) == 2
        assert "type A40 has dimension 1680 above the cap 10" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["A1", "A2", "C2"])
def test_report_is_byte_identical_to_golden(label, tmp_path):
    # regenerate with: nullvar verify --type <label> --suite all --seed 42 --no-timestamp --out <file>
    out = tmp_path / "report.json"
    result = run_cli(
        "verify", "--type", label, "--suite", "all", "--seed", "42", "--no-timestamp", "--out", str(out)
    )
    assert result.returncode == 0, result.stderr
    golden = Path(__file__).parent / "data" / f"verify_{label}_seed42.json"
    assert out.read_bytes() == golden.read_bytes()


def test_g2_exterior_report_is_byte_identical_to_golden(tmp_path):
    # regenerate with: NULLVAR_MAX_G=14 nullvar verify --type G2 --suite exterior --seed 42 --no-timestamp --out <file>
    out = tmp_path / "report.json"
    result = run_cli(
        "verify", "--type", "G2", "--suite", "exterior", "--seed", "42", "--no-timestamp", "--out", str(out),
        env_extra={"NULLVAR_MAX_G": "14"},
    )
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == (Path(__file__).parent / "data" / "verify_G2_exterior_seed42.json").read_bytes()


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "args,golden",
    [
        (("chart", "--type", "C2", "--t", "1,2"), "cli_chart_C2_t1_2.json"),
        (("degenerate", "--type", "C2", "--t", "1,-2", "--weight", "2,1"), "cli_degenerate_C2_t1_-2_w2_1.json"),
        (("orbits", "--type", "C2"), "cli_orbits_C2.json"),
        (("membership", "--type", "C2", "--basis", str(DATA / "cli_chart_C2_t1_2.json")), "cli_membership_C2_chart.json"),
        (("equations", "--type", "C2"), "cli_equations_C2.json"),
    ],
    ids=["chart", "degenerate", "orbits", "membership", "equations"],
)
def test_subspace_verbs_are_byte_identical_to_golden(args, golden):
    # regenerate with: nullvar <args> > tests/data/<golden>
    result = run_cli(*args)
    assert result.returncode == 0, result.stderr
    assert result.stdout.encode() == (DATA / golden).read_bytes()


def test_diagonal_corruption_is_a_usage_error():
    # C_ii^k is shifted and shifted back, so the run would verify the sound algebra
    out = run_cli("verify", "--type", "A2", "--corrupt", "1,1,0")
    assert out.returncode == 2
    assert "I != J" in out.stderr and "Traceback" not in out.stderr


@pytest.mark.parametrize("flag,value", [("--samples", "0"), ("--samples", "-1"), ("--chart-samples", "-3")])
def test_sample_counts_below_one_are_usage_errors(flag, value):
    # zero or negative samples would give records that cannot fail
    out = run_cli("verify", "--type", "A1", flag, value)
    assert out.returncode == 2
    assert f"{flag} must be at least 1" in out.stderr and "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--type", "A1", "--suite", "structure"),
        ("equations", "--type", "A1"),
        ("chart", "--type", "A1", "--t", "1"),
    ],
    ids=["verify", "equations", "chart"],
)
def test_unwritable_out_path_is_a_usage_error(args, tmp_path):
    # exit 1 from verify means a check failed, so a path that cannot be written must not give it
    for out in (tmp_path / "missing" / "report.json", tmp_path):
        result = run_cli(*args, "--out", str(out))
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: cannot write {out}:") and "Traceback" not in result.stderr


def test_unwritable_out_fails_before_the_suites_run(tmp_path, monkeypatch, capsys):
    # a full A3 verify runs for minutes, so the path must be refused before it starts
    def unreachable(config):
        raise AssertionError("the suites ran before the --out path was checked")

    monkeypatch.setattr(cli, "run_suites", unreachable)
    monkeypatch.setenv("NULLVAR_MAX_G", "15")
    out = tmp_path / "missing" / "report.json"
    assert cli.main(["verify", "--type", "A3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}:") and "Traceback" not in err
    # the check writes nothing: a writable file keeps its content until the report replaces it
    kept = tmp_path / "kept.json"
    kept.write_text("old report\n")
    with pytest.raises(AssertionError, match="the suites ran"):
        cli.main(["verify", "--type", "A3", "--out", str(kept)])
    assert kept.read_text() == "old report\n"
