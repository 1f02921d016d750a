"""Named verification suites producing reproducible report records.

Each record is the report's JSON dict: the suite, the record name, the
mathematical claim it checks, the expected and observed values, and a pass
flag.  ``_Collector.add`` is the one way to make a record: it evaluates both
sides, and an exception on either side becomes that side's ``error: ...``
text and fails that record only.  A result that feeds
several records is read through ``_once``, which raises its stored exception
again on every read, and per-degree records are emitted for every degree
whether or not the shared computation raised.  So a failing check keeps its
record name: a corrupted algebra degrades to red records with the same names
as a sound one, never to a crash or a missing record.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from . import __version__
from .algebra import (
    LieAlgebra,
    build_algebra,
    build_involution,
    check_antisymmetry,
    check_jacobi,
    check_kappa_invariance,
    check_kappa_root_form,
    check_root_space_pairing,
    check_w_antisymmetry,
    eigenspace,
    orthogonal_complement,
    root_pair_plane,
    standard_borel,
)
from .exterior import (
    binomial_dim,
    blocked_rank,
    borel_top_wedge,
    casimir,
    check_w_sharp_invariance,
    delta_star_scalar,
    gamma_multiplicity,
    verify_exact_sequences,
    verify_zeta_identity,
    w_sharp,
)
from .grassmann import (
    check_equivariance_matrices,
    equation_count,
    membership_equivalence_suite,
    transpose_identity_sign,
)
from .repcheck import claims_for, verify_dimension_claim, verify_gamma_window
from .roots import build_root_datum, casimir_eigenvalue, dim_gamma_two_rho, two_rho
from .seeds import Lcg
from .variety import (
    chart,
    chart_disagreements,
    check_d_relations,
    d_operator_corank,
    degenerate,
    is_nullspace,
    jacobian_corank_at,
    parabolic_profile,
    random_chart_parameters,
)

SUITES = ("structure", "exterior", "nullspace", "equations", "repthy")


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


@dataclass
class SuiteConfig:
    family: str
    rank: int
    suite: str = "all"
    seed: int = 42
    samples: int = 200
    chart_samples: int = 50
    corrupt: tuple[int, int, int] | None = None

    def to_json(self) -> dict:
        return {
            "type": f"{self.family}{self.rank}",
            "suite": self.suite,
            "seed": self.seed,
            "samples": self.samples,
            "chart_samples": self.chart_samples,
            "corrupt": list(self.corrupt) if self.corrupt else None,
        }


class _Collector:
    def __init__(self, suite: str):
        self.suite = suite
        self.records: list[dict] = []

    def add(self, name: str, claim: str, expected, fn: Callable[[], Any]):
        """Record one check; ``expected`` is a value or a zero-argument callable.

        An exception on either side becomes that side's error text and fails
        this record only.
        """
        expected, expected_ran = _evaluate(expected) if callable(expected) else (expected, True)
        got, got_ran = _evaluate(fn)
        ok = expected_ran and got_ran and got == expected
        self.records.append(
            {
                "suite": self.suite,
                "name": name,
                "claim": claim,
                "expected": _jsonable(expected),
                "got": _jsonable(got),
                "ok": ok,
            }
        )


def _evaluate(fn: Callable[[], Any]) -> tuple[Any, bool]:
    """(fn's value, True), or (the error text of its exception, False)."""
    try:
        return fn(), True
    except Exception as exc:  # a broken algebra must yield a red record, not a crash
        return f"error: {type(exc).__name__}: {exc}", False


def _once(fn: Callable[[], Any]) -> Callable[[], Any]:
    """A reader of fn's result for several records: fn runs at most once, on the
    first read, and its exception is raised again on every read."""
    cell: dict[str, Any] = {}

    def read():
        if not cell:
            try:
                cell["value"] = fn()
            except Exception as exc:
                cell["error"] = exc
        if "error" in cell:
            raise cell["error"]
        return cell["value"]

    return read


# ---------------------------------------------------------------------------
# individual suites


def _table_dimensions(L: LieAlgebra) -> tuple[int, int, int]:
    """(g, l, d) read off the bracket table: l counts the basis vectors that commute with every b_i, i < l."""
    g = len(L.brackets)
    l = sum(1 for j in range(g) if not any(L.brackets[i][j] for i in range(L.l)))
    return g, l, (g + l) // 2


def structure_records(L: LieAlgebra) -> list[dict]:
    col = _Collector("structure")
    rd = L.rd
    col.add(
        "dimension_bookkeeping",
        "g = l + 2 #positive roots and d = (g + l)/2",
        (rd.g, rd.l, rd.d),
        lambda: _table_dimensions(L),
    )
    col.add(
        "dim_gamma_2rho",
        "Weyl dimension of the module with highest weight twice the Weyl vector",
        3 ** len(rd.positive_roots),
        lambda: dim_gamma_two_rho(rd),
    )
    col.add(
        "bracket_antisymmetry",
        "[x,y] = -[y,x] on all basis pairs",
        0,
        lambda: len(check_antisymmetry(L)),
    )
    col.add(
        "jacobi_identity",
        "[[x,y],z] + [[y,z],x] + [[z,x],y] = 0 on all basis triples",
        0,
        lambda: len(check_jacobi(L)),
    )
    col.add(
        "kappa_invariance",
        "kappa([x,y],z) = -kappa(y,[x,z]) on all basis triples",
        0,
        lambda: len(check_kappa_invariance(L)),
    )
    col.add(
        "w_total_antisymmetry",
        "w(x,y,z) alternates under every permutation of basis arguments",
        0,
        lambda: len(check_w_antisymmetry(L)),
    )
    col.add(
        "root_space_pairing",
        "kappa(h, x_a) = 0 and kappa(x_a, x_b) = 0 unless b = -a, nonzero on opposite pairs",
        0,
        lambda: len(check_root_space_pairing(L)),
    )
    col.add(
        "kappa_trace_proportionality",
        "ad-trace form equals the root-datum form: kappa(h_i,h_j) = 4(a_i,a_j)/((a_i,a_i)(a_j,a_j)), "
        "kappa(x_a,x_-a) = 2/(a,a), 0 elsewhere",
        0,
        lambda: len(check_kappa_root_form(L)),
    )
    return col.records


def exterior_records(L: LieAlgebra) -> list[dict]:
    col = _Collector("exterior")
    col.add(
        "w_sharp_invariance",
        "the degree-3 form is killed by every basis Lie action",
        True,
        lambda: check_w_sharp_invariance(L),
    )
    col.add(
        "delta_star_w_nonzero",
        "the contraction of the form against itself is a nonzero scalar",
        True,
        lambda: delta_star_scalar(L) != 0,
    )
    col.add(
        "casimir_borel_top_wedge",
        "top wedge of the Borel is a Casimir eigenvector with the top-weight scalar",
        True,
        lambda: casimir(borel_top_wedge(L)) == borel_top_wedge(L).scale(casimir_eigenvalue(L.rd, two_rho(L.rd))),
    )

    zeta = _once(lambda: verify_zeta_identity(L))
    col.add(
        "squares_vanish",
        "wedge and contraction operators square to zero at every degree",
        True,
        lambda: zeta()[0],
    )
    for k in range(L.g + 1):
        col.add(
            f"zeta_identity_degree_{k}",
            f"zeta = delta_star(w)(id - casimir/c_top) at degree {k} (matrix)",
            True,
            lambda k=k: zeta()[1][k],
        )

    srep = _once(lambda: verify_exact_sequences(L))
    for k in range(L.g + 1):
        col.add(
            f"rank_nullity_degree_{k}",
            "dim ker(delta_k) = rank(delta_(k-3)) + window multiplicity of the top module",
            True,
            lambda k=k: srep().records[k].ok,
        )
    col.add(
        "delta_rank_into_degree_d",
        "independent linear equations: rank of the wedge map into degree d",
        lambda: blocked_rank(L, "delta_star", L.d),
        lambda: srep().records[L.d].rank_delta_in,
    )
    if L.d - 3 == 3:
        # delta(w) = w ^ w = 0 for the odd-degree form, so a nonzero form spans a
        # line inside the kernel, and a one-dimensional kernel is that line
        col.add(
            "delta3_kernel_is_w_line",
            "kernel of the wedge map on degree 3 is exactly the line of the form",
            True,
            lambda: srep().records[3].ker_delta == 1 and not w_sharp(L).is_zero(),
        )

    col.add(
        "operator_invariance",
        "wedge and contraction commute with every basis Lie action",
        True,
        lambda: check_w_sharp_invariance(L) and check_equivariance_matrices(L),
    )
    return col.records


def nullspace_records(L: LieAlgebra, config: SuiteConfig) -> list[dict]:
    col = _Collector("nullspace")
    rng = Lcg(config.seed)

    def chart_sample_failures():
        bad = 0
        for _ in range(config.chart_samples):
            V = chart(L, random_chart_parameters(L, rng))
            if V.dim != L.d or not is_nullspace(L, V):
                bad += 1
        return bad

    col.add(
        "chart_points_are_nullspaces",
        f"{config.chart_samples} seeded chart points have dimension d and kill the form",
        0,
        chart_sample_failures,
    )
    col.add(
        "chart_zero_is_borel",
        "all-zero parameters give the standard Borel subalgebra",
        True,
        lambda: chart(L, (0,) * L.l) == standard_borel(L),
    )
    col.add(
        "chart_consistency",
        "every decomposition of a non-simple root determines the same line",
        True,
        lambda: not chart_disagreements(L, tuple(Fraction(k + 1) for k in range(L.l))),
    )

    def involution_failures():
        bad = 0
        for signs in itertools.product((1, -1), repeat=L.l):
            sigma = build_involution(L, signs)
            minus = eigenspace(L, sigma, -1)  # the h_i and the x_alpha - t_alpha x_{-alpha}: of dimension d
            if not is_nullspace(L, minus) or minus != orthogonal_complement(L, eigenspace(L, sigma, 1)):
                bad += 1
        return bad

    col.add(
        "involution_minus_eigenspaces",
        "each sign pattern gives a d-dimensional nullspace equal to the orthogonal of the fixed part",
        0,
        involution_failures,
    )
    col.add(
        "d_operator_corank",
        "corank of D on the Borel wedge cube equals d",
        L.d,
        lambda: d_operator_corank(L),
    )
    col.add(
        "jacobian_corank_borel",
        "corank of the cubic-system Jacobian at the Borel equals d",
        L.d,
        lambda: jacobian_corank_at(L, standard_borel(L)),
    )

    def open_orbit_coranks():
        out = []
        for _ in range(5):
            V = chart(L, random_chart_parameters(L, rng, nonzero=True))
            out.append(jacobian_corank_at(L, V))
        return out

    col.add(
        "jacobian_corank_open_orbit",
        "corank of the Jacobian at 5 seeded open-orbit points equals d",
        [L.d] * 5,
        open_orbit_coranks,
    )

    def orbit_check():
        profiles = []
        for pattern in itertools.product((0, 1), repeat=L.l):
            prof = parabolic_profile(L, chart(L, pattern))
            if prof[1] != tuple(i for i, x in enumerate(pattern) if x):
                return "profile does not recover the label"
            profiles.append(prof)
        if len(set(profiles)) != 2 ** L.l:
            return "profiles not distinct"
        return "distinct"

    col.add(
        "orbit_zero_patterns",
        "the 2^l zero patterns give distinct parabolic profiles recovering their labels",
        "distinct",
        orbit_check,
    )

    def profile_depends_on_pattern_only():
        for pattern in itertools.product((0, 1), repeat=L.l):
            t1 = tuple(Fraction(2) * x for x in pattern)
            t2 = tuple(Fraction(-3) * x for x in pattern)
            if parabolic_profile(L, chart(L, t1)) != parabolic_profile(L, chart(L, t2)):
                return False
        return True

    col.add(
        "parabolic_profile_pattern_invariance",
        "the parabolic closure profile depends only on the zero pattern of the parameters",
        True,
        profile_depends_on_pattern_only,
    )

    def degeneration_check():
        V = chart(L, random_chart_parameters(L, rng, nonzero=True))
        weight = tuple(range(L.l + 1, 1, -1))  # strictly positive, regular
        limit = degenerate(L, V, weight)
        if limit != standard_borel(L):
            return "wrong limit"
        if degenerate(L, limit, weight) != limit:
            return "not idempotent"
        return "borel"

    col.add(
        "degeneration_to_borel",
        "a dominant regular weight degenerates a generic chart point onto the standard Borel",
        "borel",
        degeneration_check,
    )

    def line_intersections():
        V = chart(L, tuple(Fraction(k + 2) for k in range(L.l)))
        # dim(V meet P) = 1 iff dim(V + P) = dim V + 1, for the plane P of dimension 2
        return all(V.add(root_pair_plane(L, a)).dim == V.dim + 1 for a in range(L.n_pos))

    col.add(
        "chart_meets_root_planes_in_lines",
        "a chart point meets each root plane in exactly a line",
        True,
        line_intersections,
    )
    col.add(
        "d_operator_relations",
        "grading identities for D on the Borel hold on spanning sets of their Cartan arguments",
        True,
        lambda: check_d_relations(L),
    )
    return col.records


def equations_records(L: LieAlgebra, config: SuiteConfig) -> list[dict]:
    col = _Collector("equations")
    membership = _once(lambda: membership_equivalence_suite(L, config.samples, config.seed))
    col.add(
        "membership_equivalence",
        "linear membership of the Plucker vector agrees with the direct nullspace predicate",
        True,
        lambda: membership()[0] == 0,
    )
    col.add(
        "membership_counts",
        "every chart sample (every third, from the second) is a nullspace to both membership tests",
        (config.samples + 1) // 3,
        lambda: membership()[1],
    )
    # the equations are the rows of the contraction at degree d, so its rank is
    # the expected count; equation_count takes the wedge rank from degree d-3
    ambient = binomial_dim(L.g, L.d)
    count = _once(lambda: equation_count(L))
    col.add(
        "equation_count",
        "rank of the wedge map into degree d equals the rank of the contraction at degree d",
        lambda: blocked_rank(L, "delta_star", L.d),
        count,
    )
    col.add(
        "residual_dimension",
        "ambient Plucker dimension minus the equation rank",
        lambda: ambient - blocked_rank(L, "delta_star", L.d),
        lambda: ambient - count(),
    )
    col.add(
        "equation_transpose_relation",
        "the contraction matrix is the pairing transpose of the wedge map up to one global sign",
        True,
        lambda: transpose_identity_sign(L) is not None,
    )
    col.add(
        "contraction_equivariance",
        "the contraction commutes with every basis Lie action at low degrees",
        True,
        lambda: check_equivariance_matrices(L),
    )
    return col.records


def repthy_records(L: LieAlgebra) -> list[dict]:
    col = _Collector("repthy")
    for claim in claims_for(L.rd):
        col.add(
            f"claim_{claim['label']}",
            "multiplicity-weighted Weyl dimensions sum to the ambient dimension",
            True,
            lambda claim=claim: verify_dimension_claim(L.rd, claim),
        )
    window = _once(lambda: verify_gamma_window(L))
    for k in range(L.g + 1):
        col.add(
            f"gamma_window_degree_{k}",
            "Casimir eigenspace of the top scalar matches the window multiplicity",
            lambda k=k: gamma_multiplicity(L, k),
            lambda k=k: window()[k],
        )
    col.add(
        "gamma_window_symmetry",
        "eigenspace dimensions are symmetric under degree reflection k to g-k",
        True,
        lambda: window() == window()[::-1],
    )
    return col.records


# ---------------------------------------------------------------------------
# orchestration


def run_suites(config: SuiteConfig) -> dict:
    """Build the algebra, run the selected suites, return the report payload."""
    rd = build_root_datum(config.family, config.rank)
    L = build_algebra(rd)
    if config.corrupt is not None:
        i, j, k = config.corrupt
        L = L.with_corrupted_constant(i, j, k)
    selected = SUITES if config.suite == "all" else (config.suite,)
    records: list[dict] = []
    for name in selected:
        if name == "structure":
            records.extend(structure_records(L))
        elif name == "exterior":
            records.extend(exterior_records(L))
        elif name == "nullspace":
            records.extend(nullspace_records(L, config))
        elif name == "equations":
            records.extend(equations_records(L, config))
        elif name == "repthy":
            records.extend(repthy_records(L))
        else:
            raise ValueError(f"unknown suite {name!r}")
    return {
        "version": __version__,
        "config": config.to_json(),
        "records": records,
        "ok": all(r["ok"] for r in records),
    }
