"""Kill matrix of the C2 exterior and equations suites: one witness per record name.

A witness is a corrupted structure constant ``(i, j, k)`` of C2 or a
monkeypatched operator, and it must turn its record red by value, not through
an ``error:``.  A name that no witness reaches carries the reason instead.
Witnesses were chosen from a sweep of all 450 single-constant corruptions of
C2; the table holds the outcome, not the sweep.
"""

import pytest

from nullvar import exterior, suites
from nullvar.algebra import build_algebra
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
    original = exterior.gamma_multiplicity
    monkeypatch.setattr(exterior, "gamma_multiplicity", lambda L, k: original(L, k) + 1)
    return _fresh_c2()


def _wedge_rank_off_at_degree_3(monkeypatch):
    original = exterior.blocked_rank
    monkeypatch.setattr(exterior, "blocked_rank", lambda L, name, k: original(L, name, k) + ((name, k) == ("delta", 3)))
    return _fresh_c2()


ZETA = (2, 3, 1)  # breaks zeta on degrees 1-9, the invariances, membership, the Casimir and the transpose
RANK = (0, 5, 9)  # keeps every weight block but changes the wedge rank into degree d

WITNESSES = {
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
}


def _records(L):
    return {r.name: r for r in suites.exterior_records(L) + suites.equations_records(L, CONFIG)}


def test_the_table_names_every_record_of_both_suites(c2):
    records = _records(c2)
    assert set(WITNESSES) == set(records)
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
