"""Kill matrix of every C2 suite: one witness per record name.

A witness is a corrupted structure constant ``(i, j, k)`` of C2, a
monkeypatched operator, or a hand-built bracket table or root datum, and it
must turn its record red by value, not through an ``error:``.  A name that no
witness reaches carries the reason instead.  Witnesses were chosen from a
sweep of all 450 single-constant corruptions of C2; the table holds the
outcome, not the sweep.
"""

import dataclasses
from fractions import Fraction

import pytest

from nullvar import exterior, suites, variety
from nullvar.algebra import LieAlgebra, build_algebra
from nullvar.roots import build_root_datum

CONFIG = suites.SuiteConfig("C", 2, samples=12)


def _fresh_c2():
    # a new algebra, so no per-algebra cache holds a result from before the patch
    return build_algebra(build_root_datum("C", 2))


def _wedge_doubled(monkeypatch):
    # delta no longer wedges with w_sharp, so delta_star(delta(1)) misses the scalar
    original = exterior.delta
    monkeypatch.setattr(exterior, "delta", lambda u: original(u).scale(2))
    return _fresh_c2()


def _contraction_emptied(monkeypatch):
    monkeypatch.setattr(exterior, "_delta_star_table", lambda L: ((), 1))
    return _fresh_c2()


def _window_off_by_one(monkeypatch):
    # in both of its readers: the rank-nullity records and the Casimir window records
    original = exterior.gamma_multiplicity
    for module in (exterior, suites):
        monkeypatch.setattr(module, "gamma_multiplicity", lambda L, k: original(L, k) + 1)
    return _fresh_c2()


def _one_sided_bracket(monkeypatch):
    # a corrupted constant shifts C_ij^k and C_ji^k together; this table shifts [b_2, b_3] alone
    c2 = _fresh_c2()
    brackets = [[dict(cell) for cell in row] for row in c2.brackets]
    brackets[2][3][1] = brackets[2][3].get(1, Fraction(0)) + 1
    return LieAlgebra(c2.rd, c2.weights, brackets)


def _fundamental_weights_doubled(monkeypatch):
    # build_root_datum checks rho = sum of the fundamental weights, so this datum is built by hand;
    # every weight then reads as twice itself, so 2 rho reads as 4 rho and dim Gamma(2 rho) as 5^4
    c2 = _fresh_c2()
    doubled = tuple(tuple(2 * x for x in w) for w in c2.rd.fundamental_in_root)
    return LieAlgebra(dataclasses.replace(c2.rd, fundamental_in_root=doubled), c2.weights, c2.brackets)


def _wedge_rank_off_at_degree_3(monkeypatch):
    original = exterior.blocked_rank
    monkeypatch.setattr(exterior, "blocked_rank", lambda L, name, k: original(L, name, k) + ((name, k) == ("delta", 3)))
    return _fresh_c2()


def _grades_reversed(monkeypatch):
    # the flow runs backwards, so a dominant weight degenerates onto the opposite Borel
    original = variety._grading
    monkeypatch.setattr(variety, "_grading", lambda L, weight: [-x for x in original(L, weight)])
    return _fresh_c2()


def _top_line_dropped(monkeypatch):
    # the chart misses the plane of the highest root
    original = variety.chart_lines
    monkeypatch.setattr(variety, "chart_lines", lambda L, t: original(L, t)[:-1])
    return _fresh_c2()


def _negative_parameters_dropped(monkeypatch):
    # a negative parameter reads as zero, so t and -t land on different strata
    original = variety._line_vector
    monkeypatch.setattr(variety, "_line_vector", lambda L, a, t: original(L, a, max(t, 0)))
    return _fresh_c2()


ZETA = (2, 3, 1)  # breaks zeta on degrees 1-9, the invariances, membership, the Casimir, the transpose
# and the structure checks other than the dimensions and antisymmetry
RANK = (0, 5, 9)  # keeps every weight block but changes the wedge rank into degree d

WITNESSES = {
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
    "delta_rank_into_degree_d": RANK,
    "delta3_kernel_is_w_line": _wedge_rank_off_at_degree_3,
    "operator_invariance": ZETA,
    "membership_equivalence": ZETA,
    "membership_counts": ZETA,
    "equation_count": RANK,
    "residual_dimension": RANK,
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


def _records(L, names=suites.SUITES):
    """The records of the named suites on L, by record name."""
    records = []
    for name in names:
        build = getattr(suites, f"{name}_records")
        records += build(L, CONFIG) if name in ("nullspace", "equations") else build(L)
    return {r.name: r for r in records}


def test_the_table_names_every_record_of_the_three_suites(c2):
    records = _records(c2, ("exterior", "nullspace", "equations"))
    assert set(records) <= set(WITNESSES)
    assert all(r.ok for r in records.values())


def test_the_table_names_every_record_of_the_structure_and_repthy_suites(c2):
    records = _records(c2, ("structure", "repthy"))
    # with the test above: the table names the records of all five suites and nothing else
    assert set(WITNESSES) - set(_records(c2, ("exterior", "nullspace", "equations"))) == set(records)
    assert all(r.ok for r in records.values())


def _witness_id(witness):
    return witness.__name__ if callable(witness) else "corrupt_" + "_".join(map(str, witness))


DISTINCT = list({_witness_id(w): w for w in WITNESSES.values() if not isinstance(w, str)}.values())


@pytest.mark.parametrize("witness", DISTINCT, ids=[_witness_id(w) for w in DISTINCT])
def test_each_witness_turns_its_records_red(witness, c2, monkeypatch):
    L = witness(monkeypatch) if callable(witness) else c2.with_corrupted_constant(*witness)
    records = _records(L)
    for name, w in WITNESSES.items():
        if w == witness:
            got = records[name].got
            assert not records[name].ok, name
            assert not (isinstance(got, str) and got.startswith("error:")), (name, got)
