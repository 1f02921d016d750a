"""Kill matrix of the A2 and C2 reports: one witness per record name.

A witness is a corrupted structure constant ``(i, j, k)``, a monkeypatched
operator, or a hand-built bracket table or root datum, and it must turn its
record red by value, not through an ``error:``.  A name that no witness
reaches carries the reason instead.  The corrupted constants were chosen from
a sweep of all 450 single-constant corruptions of C2 and all 224 of A2; the
tables hold the outcome, not the sweep.
"""

import dataclasses
from fractions import Fraction

import pytest

from nullvar import exterior, grassmann, suites, variety
from nullvar.algebra import LieAlgebra, build_algebra
from nullvar.roots import build_root_datum


def _fresh(L):
    # a new algebra of the same type, so no per-algebra cache holds a result from before the patch
    return build_algebra(build_root_datum(L.rd.family, L.rd.rank))


def _wedge_doubled(monkeypatch, L):
    # delta no longer wedges with w_sharp, so delta_star(delta(1)) misses the scalar
    original = exterior.delta
    monkeypatch.setattr(exterior, "delta", lambda u: original(u).scale(2))
    return _fresh(L)


def _contraction_emptied(monkeypatch, L):
    monkeypatch.setattr(exterior, "_delta_star_table", lambda L: ((), 1))
    return _fresh(L)


def _window_off_by_one(monkeypatch, L):
    # in both of its readers: the rank-nullity records and the Casimir window records
    original = exterior.gamma_multiplicity
    for module in (exterior, suites):
        monkeypatch.setattr(module, "gamma_multiplicity", lambda L, k: original(L, k) + 1)
    return _fresh(L)


def _one_sided_bracket(monkeypatch, L):
    # a corrupted constant shifts C_ij^k and C_ji^k together; this table shifts [b_2, b_3] alone
    fresh = _fresh(L)
    brackets = [[dict(cell) for cell in row] for row in fresh.brackets]
    brackets[2][3][1] = brackets[2][3].get(1, Fraction(0)) + 1
    return LieAlgebra(fresh.rd, fresh.weights, brackets)


def _fundamental_weights_doubled(monkeypatch, L):
    # build_root_datum checks rho = sum of the fundamental weights, so this datum is built by hand;
    # every weight then reads as twice itself, so 2 rho reads as 4 rho and dim Gamma(2 rho) as 5^(positive roots)
    fresh = _fresh(L)
    doubled = tuple(tuple(2 * x for x in w) for w in fresh.rd.fundamental_in_root)
    return LieAlgebra(dataclasses.replace(fresh.rd, fundamental_in_root=doubled), fresh.weights, fresh.brackets)


def _wedge_rank_off_at_degree_3(monkeypatch, L):
    original = exterior.blocked_rank
    monkeypatch.setattr(exterior, "blocked_rank", lambda L, name, k: original(L, name, k) + ((name, k) == ("delta", 3)))
    return _fresh(L)


def _wedge_rank_off_into_degree_d(monkeypatch, L):
    # in both readers of the wedge rank from degree d - 3: the exact sequences and the equation count
    original = exterior.blocked_rank

    def off(L, name, k):
        return original(L, name, k) + ((name, k) == ("delta", L.d - 3))

    for module in (exterior, grassmann):
        monkeypatch.setattr(module, "blocked_rank", off)
    return _fresh(L)


def _local_ranks_off_by_one(monkeypatch, L):
    # the D operator and the Jacobian of the local equations are ranked by variety.rank alone
    original = variety.rank
    monkeypatch.setattr(variety, "rank", lambda rows: original(rows) + 1)
    return _fresh(L)


def _grades_reversed(monkeypatch, L):
    # the flow runs backwards, so a dominant weight degenerates onto the opposite Borel
    original = variety._grading
    monkeypatch.setattr(variety, "_grading", lambda L, weight: [-x for x in original(L, weight)])
    return _fresh(L)


def _top_line_dropped(monkeypatch, L):
    # the chart misses the plane of the highest root
    original = variety.chart_lines
    monkeypatch.setattr(variety, "chart_lines", lambda L, t: original(L, t)[:-1])
    return _fresh(L)


def _negative_parameters_dropped(monkeypatch, L):
    # a negative parameter reads as zero, so t and -t land on different strata
    original = variety._line_vector
    monkeypatch.setattr(variety, "_line_vector", lambda L, a, t: original(L, a, max(t, 0)))
    return _fresh(L)


ZETA = (2, 3, 1)  # on C2 and on A2: breaks zeta on degrees 1 to g - 1, the invariances, membership, the
# Casimir, the transpose and the structure checks other than the dimensions and antisymmetry

C2_WITNESSES = {
    "dimension_bookkeeping": (0, 1, 2),  # [h_0, h_1] gains a term, so the table reads l = 0
    "dim_gamma_2rho": _fundamental_weights_doubled,
    "bracket_antisymmetry": _one_sided_bracket,
    "jacobi_identity": ZETA,
    "kappa_invariance": ZETA,
    "w_total_antisymmetry": ZETA,
    "root_space_pairing": ZETA,
    "kappa_trace_proportionality": ZETA,
    "w_sharp_invariance": ZETA,
    "delta_star_w_nonzero": _contraction_emptied,
    "casimir_borel_top_wedge": ZETA,
    "squares_vanish": "no witness: delta twice is the wedge with w_sharp ^ w_sharp and delta_star twice "
    "the contraction by w ^ w, both zero for a form of odd degree whatever the structure constants",
    "zeta_identity_degree_0": _wedge_doubled,
    **{f"zeta_identity_degree_{k}": ZETA for k in range(1, 10)},
    "zeta_identity_degree_10": (0, 1, 0),
    **{f"rank_nullity_degree_{k}": _window_off_by_one for k in range(11)},
    # no corrupted constant reaches the three readers of the wedge rank into degree d by value: 345 of
    # the 450 turn them red through the weight-block escape error, and the other 105 leave them green
    "delta_rank_into_degree_d": _wedge_rank_off_into_degree_d,
    "delta3_kernel_is_w_line": _wedge_rank_off_at_degree_3,
    "operator_invariance": ZETA,
    "membership_equivalence": ZETA,
    "membership_counts": ZETA,
    "equation_count": _wedge_rank_off_into_degree_d,
    "residual_dimension": _wedge_rank_off_into_degree_d,
    "equation_transpose_relation": ZETA,
    "contraction_equivariance": ZETA,
    "chart_points_are_nullspaces": (0, 1, 2),
    "chart_zero_is_borel": (0, 4, 0),
    "chart_consistency": "no witness: every non-simple root of C2 has one decomposition, so the only line "
    "derived for it is the chart's own",
    "involution_minus_eigenspaces": (3, 7, 0),  # sigma passes bracket_defect; no -1 eigenspace is a nullspace
    "d_operator_corank": (1, 5, 2),
    "jacobian_corank_borel": (1, 2, 2),
    "jacobian_corank_open_orbit": (0, 2, 2),
    "orbit_zero_patterns": (0, 1, 6),
    "parabolic_profile_pattern_invariance": _negative_parameters_dropped,
    "degeneration_to_borel": _grades_reversed,
    "chart_meets_root_planes_in_lines": _top_line_dropped,
    "d_operator_relations": (0, 1, 0),
    **{f"claim_{label}": _fundamental_weights_doubled
       for label in ("wedge2_sp4", "wedge3_sp4", "wedge6_sp4", "cubics_on_plane_grassmannian_sp4")},
    # outside the window 4..6 no corrupted constant changes the top eigenspace by value: of the 450,
    # 412 raise the weight-block escape error and the other 38 leave it 0
    **{f"gamma_window_degree_{k}": _window_off_by_one for k in (0, 1, 2, 3, 7, 8, 9, 10)},
    **{f"gamma_window_degree_{k}": (0, 1, 0) for k in (4, 5, 6)},
    "gamma_window_symmetry": (0, 1, 0),
}


A2_WITNESSES = {
    "dimension_bookkeeping": (0, 1, 0),  # [h_0, h_1] gains a term, so the table reads l = 0
    "dim_gamma_2rho": _fundamental_weights_doubled,
    "bracket_antisymmetry": _one_sided_bracket,
    "jacobi_identity": ZETA,
    "kappa_invariance": ZETA,
    "w_total_antisymmetry": ZETA,
    "root_space_pairing": ZETA,
    "kappa_trace_proportionality": ZETA,
    "w_sharp_invariance": ZETA,
    "delta_star_w_nonzero": _contraction_emptied,
    "casimir_borel_top_wedge": ZETA,
    "squares_vanish": C2_WITNESSES["squares_vanish"],
    "zeta_identity_degree_0": _wedge_doubled,
    **{f"zeta_identity_degree_{k}": ZETA for k in range(1, 8)},
    "zeta_identity_degree_8": (0, 1, 0),
    # a corrupted constant reaches the rank-nullity records and the three readers of the wedge rank into
    # degree d only through the weight-block escape error (160 and 168 of the 224)
    **{f"rank_nullity_degree_{k}": _window_off_by_one for k in range(9)},
    "delta_rank_into_degree_d": _wedge_rank_off_into_degree_d,
    "operator_invariance": ZETA,
    "membership_equivalence": ZETA,
    "membership_counts": ZETA,
    "equation_count": _wedge_rank_off_into_degree_d,
    "residual_dimension": _wedge_rank_off_into_degree_d,
    "equation_transpose_relation": ZETA,
    "contraction_equivariance": ZETA,
    "chart_points_are_nullspaces": ZETA,
    "chart_zero_is_borel": (0, 4, 0),
    "chart_consistency": "no witness: the one non-simple root of A2 has one decomposition, so the only line "
    "derived for it is the chart's own",
    "involution_minus_eigenspaces": (3, 6, 0),  # 4 of the 224 reach it by value, 218 through an error
    # the corank records go red on a corrupted constant only through an error (50, 36 and 100 of the 224)
    "d_operator_corank": _local_ranks_off_by_one,
    "jacobian_corank_borel": _local_ranks_off_by_one,
    "jacobian_corank_open_orbit": _local_ranks_off_by_one,
    "orbit_zero_patterns": (0, 1, 5),
    "parabolic_profile_pattern_invariance": _negative_parameters_dropped,
    "degeneration_to_borel": _grades_reversed,
    "chart_meets_root_planes_in_lines": _top_line_dropped,
    "d_operator_relations": ZETA,
    "claim_wedge2_sl3": _fundamental_weights_doubled,
    # outside the window 3..5 no corrupted constant changes the top eigenspace by value: of the 224,
    # 198 raise the weight-block escape error and the other 26 leave it 0
    **{f"gamma_window_degree_{k}": _window_off_by_one for k in (0, 1, 2, 6, 7, 8)},
    **{f"gamma_window_degree_{k}": (0, 1, 0) for k in (3, 4, 5)},
    "gamma_window_symmetry": (0, 1, 0),
}


def _records(L, names=suites.SUITES):
    """The records of the named suites on L, by record name."""
    config = suites.SuiteConfig(L.rd.family, L.rd.rank, samples=12)
    records = []
    for name in names:
        build = getattr(suites, f"{name}_records")
        records += build(L, config) if name in ("nullspace", "equations") else build(L)
    return {r["name"]: r for r in records}


def test_the_table_names_every_record_of_the_three_suites(c2):
    records = _records(c2, ("exterior", "nullspace", "equations"))
    assert set(records) <= set(C2_WITNESSES)
    assert all(r["ok"] for r in records.values())


def test_the_table_names_every_record_of_the_structure_and_repthy_suites(c2):
    records = _records(c2, ("structure", "repthy"))
    # with the test above: the table names the records of all five suites and nothing else
    assert set(C2_WITNESSES) - set(_records(c2, ("exterior", "nullspace", "equations"))) == set(records)
    assert all(r["ok"] for r in records.values())


def _witness_id(witness):
    return witness.__name__ if callable(witness) else "corrupt_" + "_".join(map(str, witness))


def _distinct(witnesses):
    return list({_witness_id(w): w for w in witnesses.values() if not isinstance(w, str)}.values())


def _assert_red_by_value(witness, sound, witnesses, monkeypatch):
    L = witness(monkeypatch, sound) if callable(witness) else sound.with_corrupted_constant(*witness)
    records = _records(L)
    for name, w in witnesses.items():
        if w == witness:
            assert not records[name]["ok"], name
            for side in ("expected", "got"):
                value = records[name][side]
                assert not (isinstance(value, str) and value.startswith("error:")), (name, value)


C2_DISTINCT = _distinct(C2_WITNESSES)
A2_DISTINCT = _distinct(A2_WITNESSES)


@pytest.mark.parametrize("witness", C2_DISTINCT, ids=[_witness_id(w) for w in C2_DISTINCT])
def test_each_witness_turns_its_records_red(witness, c2, monkeypatch):
    _assert_red_by_value(witness, c2, C2_WITNESSES, monkeypatch)


def test_the_table_names_every_record_of_the_a2_report(a2):
    records = _records(a2)
    assert set(records) == set(A2_WITNESSES)
    assert all(r["ok"] for r in records.values())


@pytest.mark.parametrize("witness", A2_DISTINCT, ids=[_witness_id(w) for w in A2_DISTINCT])
def test_each_a2_witness_turns_its_records_red(witness, a2, monkeypatch):
    _assert_red_by_value(witness, a2, A2_WITNESSES, monkeypatch)
