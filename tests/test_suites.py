"""Suite orchestration: shared computations run once and fail every record that uses them;
a corrupted algebra turns its suite red and keeps every record name."""

import dataclasses
import json
from pathlib import Path

import pytest

from nullvar import exterior, suites
from nullvar.algebra import build_algebra
from nullvar.exterior import ExactSequenceReport
from nullvar.roots import build_root_datum


def test_membership_suite_runs_once(a2, monkeypatch):
    calls = []
    original = suites.membership_equivalence_suite

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(suites, "membership_equivalence_suite", counting)
    records = {r["name"]: r for r in suites.equations_records(a2, suites.SuiteConfig("A", 2, samples=12))}
    assert len(calls) == 1
    assert records["membership_equivalence"]["ok"]
    # samples 1, 4, 7 and 10 of 12 are chart points
    counts = records["membership_counts"]
    assert (counts["expected"], counts["got"], counts["ok"]) == (4, 4, True)


def test_membership_counts_goes_red_by_count(a2):
    config = suites.SuiteConfig("A", 2, samples=12)
    records = {r["name"]: r for r in suites.equations_records(a2.with_corrupted_constant(0, 1, 2), config)}
    counts = records["membership_counts"]
    assert (counts["expected"], counts["got"], counts["ok"]) == (4, 0, False)


def test_membership_failure_fails_both_records(a2, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("sampler broke")

    monkeypatch.setattr(suites, "membership_equivalence_suite", broken)
    records = {r["name"]: r for r in suites.equations_records(a2, suites.SuiteConfig("A", 2, samples=12))}
    for name in ("membership_equivalence", "membership_counts"):
        assert records[name]["ok"] is False
        assert records[name]["got"] == "error: RuntimeError: sampler broke"
    assert records["equation_count"]["ok"]  # the failure stays in the records that use the suite


def test_wrong_equation_count_fails_both_records(a2, monkeypatch):
    true_count = suites.equation_count(a2)
    monkeypatch.setattr(suites, "equation_count", lambda L: true_count + 1)
    records = {r["name"]: r for r in suites.equations_records(a2, suites.SuiteConfig("A", 2, samples=12))}
    for name in ("equation_count", "residual_dimension"):
        assert records[name]["ok"] is False
    assert records["equation_count"]["expected"] == true_count == 28
    assert records["residual_dimension"]["expected"] == 56 - 28


def test_wrong_wedge_rank_fails_its_record_and_the_equation_rank_is_shared(monkeypatch):
    L = build_algebra(build_root_datum("A", 2))  # fresh: the equation rank is cached on the algebra
    report = suites.verify_exact_sequences(L)
    records = list(report.records)
    records[L.d] = dataclasses.replace(records[L.d], rank_delta_in=records[L.d].rank_delta_in + 1)
    monkeypatch.setattr(suites, "verify_exact_sequences", lambda L: ExactSequenceReport(tuple(records)))
    blocks = []
    original = exterior._block_matrix

    def counting(L, fn, k, keys, tkeys):
        blocks.append((fn.__name__, k, tuple(keys)))
        return original(L, fn, k, keys, tkeys)

    monkeypatch.setattr(exterior, "_block_matrix", counting)
    config = suites.SuiteConfig("A", 2, samples=12)
    records = {r["name"]: r for r in suites.exterior_records(L) + suites.equations_records(L, config)}
    assert records["delta_rank_into_degree_d"]["ok"] is False
    wedge_rank = records["delta_rank_into_degree_d"]
    assert (wedge_rank["expected"], wedge_rank["got"]) == (28, 29)
    assert records["equation_count"]["ok"] and records["equation_count"]["expected"] == 28
    # three records expect the contraction rank, eliminated once per Weyl-orbit
    # representative block; equation_count reads the wedge rank that the
    # exact sequences eliminated above, before the count began
    weights = exterior.weight_blocks(L, L.d)
    reps = set(exterior.orbit_representatives(L, L.d).values())
    assert len(blocks) == len(set(blocks))
    assert set(blocks) == {("delta_star", L.d, tuple(weights[rep])) for rep in reps}


def test_every_single_constant_corruption_turns_structure_red(a2):
    corruptions = [(i, j, k) for i in range(a2.g) for j in range(i + 1, a2.g) for k in range(a2.g)]
    assert len(corruptions) == 224
    green = [
        c for c in corruptions
        if all(r["ok"] for r in suites.structure_records(a2.with_corrupted_constant(*c)))
    ]
    assert green == []
    assert all(r["ok"] for r in suites.structure_records(a2))


def test_invariance_records_go_red_on_corrupted_c2(c2):
    L = c2.with_corrupted_constant(2, 3, 1)
    records = {
        r["name"]: r
        for r in suites.exterior_records(L) + suites.equations_records(L, suites.SuiteConfig("C", 2, samples=3))
    }
    for name in ("operator_invariance", "contraction_equivariance"):
        assert (records[name]["ok"], records[name]["got"]) == (False, False)


def test_d_relations_record_goes_red_on_corrupted_c2(c2):
    config = suites.SuiteConfig("C", 2, chart_samples=1)
    # the first identity (h, k Cartan) fails here
    records = {r["name"]: r for r in suites.nullspace_records(c2.with_corrupted_constant(0, 1, 0), config)}
    assert (records["d_operator_relations"]["ok"], records["d_operator_relations"]["got"]) == (False, False)


GOLDEN_C2 = Path(__file__).parent / "data" / "verify_C2_seed42.json"


@pytest.mark.parametrize("corrupt", [(2, 3, 1), (3, 5, 7), (4, 6, 2)])
def test_corrupted_c2_keeps_every_record_name(corrupt):
    sound = [r["name"] for r in json.loads(GOLDEN_C2.read_text())["records"]]
    payload = suites.run_suites(suites.SuiteConfig("C", 2, corrupt=corrupt))
    assert [r["name"] for r in payload["records"]] == sound
    assert not payload["ok"]


SHARED_READERS = {
    "verify_zeta_identity": ("squares_vanish", "zeta_identity_degree_"),
    "verify_exact_sequences": ("rank_nullity_degree_", "delta_rank_into_degree_d", "delta3_kernel_is_w_line"),
    "verify_gamma_window": ("gamma_window_degree_", "gamma_window_symmetry"),
}


@pytest.fixture(scope="module")
def c2_records(c2):
    return suites.exterior_records(c2) + suites.repthy_records(c2)


@pytest.mark.parametrize("shared", sorted(SHARED_READERS))
def test_raising_shared_computation_fails_only_its_readers(c2, c2_records, shared, monkeypatch):
    def broken(L):
        raise RuntimeError(f"{shared} broke")

    monkeypatch.setattr(suites, shared, broken)
    records = suites.exterior_records(c2) + suites.repthy_records(c2)
    assert [r["name"] for r in records] == [r["name"] for r in c2_records]
    readers = 0
    for sound, got in zip(c2_records, records):
        if got["name"].startswith(SHARED_READERS[shared]):
            readers += 1
            assert (got["ok"], got["got"]) == (False, f"error: RuntimeError: {shared} broke")
        else:
            assert got == sound
    # every degree 0..10 of C2 keeps its record, plus the whole-complex records
    assert readers == {"verify_zeta_identity": 12, "verify_exact_sequences": 13, "verify_gamma_window": 12}[shared]
