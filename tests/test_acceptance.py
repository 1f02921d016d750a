"""Acceptance criteria for the default verification targets (A1, A2, C2).

One test per criterion; each prints a single pass/fail line.  All checks are
exact: every assertion compares rationals or integers with zero tolerance.
"""

import itertools
import json
import subprocess
import sys
from fractions import Fraction

from nullvar.algebra import (
    build_involution,
    check_jacobi,
    check_kappa_invariance,
    check_root_space_pairing,
    check_w_antisymmetry,
    orthogonal_complement,
    standard_borel,
)
from nullvar.exterior import (
    MultiVector,
    binomial_dim,
    blocked_rank,
    borel_top_wedge,
    casimir,
    degree_keys,
    graded_matrix,
    verify_exact_sequences,
    verify_zeta_identity,
    w_sharp,
)
from nullvar.grassmann import equation_count, membership_equivalence_suite
from nullvar.linalg import integer_rows, kernel_basis
from nullvar.repcheck import ambient_dimension, claims_for, hook_content_dim, verify_dimension_claim
from nullvar.roots import casimir_eigenvalue, dim_gamma_two_rho, weyl_dim
from nullvar.seeds import Lcg
from nullvar.variety import (
    chart,
    d_operator_corank,
    degenerate,
    is_nullspace,
    jacobian_corank_at,
    parabolic_profile,
    random_chart_parameters,
)


def _report(number: int, description: str, ok: bool):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_structure_suite(a1, a2, c2):
    ok = True
    for L in (a1, a2, c2):
        ok = ok and check_jacobi(L) == []
        ok = ok and check_kappa_invariance(L) == []
        ok = ok and check_w_antisymmetry(L) == []
        ok = ok and check_root_space_pairing(L) == []
    _report(1, "Jacobi, kappa invariance, w antisymmetry, root pairing exhaustively (A1, A2, C2)", ok)


def test_criterion_02_dimension_bookkeeping(a1, a2, c2):
    ok = (a1.g, a1.l, a1.d) == (3, 1, 2)
    ok = ok and (a2.g, a2.l, a2.d) == (8, 2, 5)
    ok = ok and (c2.g, c2.l, c2.d) == (10, 2, 6)
    ok = ok and dim_gamma_two_rho(a1.rd) == 3
    ok = ok and dim_gamma_two_rho(a2.rd) == 27
    ok = ok and dim_gamma_two_rho(c2.rd) == 81
    # independent route: at 2 rho each positive root gives a Weyl factor of 3
    ok = ok and all(dim_gamma_two_rho(L.rd) == 3 ** len(L.rd.positive_roots) for L in (a1, a2, c2))
    _report(2, "(g,l,d) = (3,1,2)/(8,2,5)/(10,2,6); top module dims 3/27/81", ok)


def test_criterion_03_nullspace_construction(a1, a2, b2, c2):
    ok = True
    rng = Lcg(42)
    for L in (a1, a2, b2, c2):
        for _ in range(50):
            V = chart(L, random_chart_parameters(L, rng))
            ok = ok and V.dim == L.d and is_nullspace(L, V)
        for signs in itertools.product((1, -1), repeat=L.l):
            inv = build_involution(L, signs)
            minus = inv.minus_subspace()
            ok = ok and minus.dim == L.d
            ok = ok and is_nullspace(L, minus)
            ok = ok and minus == orthogonal_complement(L, inv.fixed_subspace())
    _report(3, "50 seeded chart points per algebra and every involution eigenspace", ok)


def test_criterion_04_d_operator_corank(a2, c2):
    ok = d_operator_corank(a2) == 5 and d_operator_corank(c2) == 6
    _report(4, "corank of D equals 5 (A2) and 6 (C2)", ok)


def test_criterion_05_smoothness_jacobian(a2, c2):
    ok = True
    rng = Lcg(42)
    for L in (a2, c2):
        ok = ok and jacobian_corank_at(L, standard_borel(L)) == L.d
        for _ in range(5):
            V = chart(L, random_chart_parameters(L, rng, nonzero=True))
            ok = ok and jacobian_corank_at(L, V) == L.d
    _report(5, "Jacobian corank equals d at the Borel and 5 open-orbit points (A2, C2)", ok)


def test_criterion_06_operator_identities(a1, a2, c2):
    ok = True
    for L in (a1, a2, c2):
        squares_ok, zeta_ok = verify_zeta_identity(L)
        ok = ok and squares_ok and all(zeta_ok) and len(zeta_ok) == L.g + 1
    ok = ok and casimir_eigenvalue(a2.rd, (2, 2)) == Fraction(8, 3)
    top = borel_top_wedge(a2)
    ok = ok and casimir(top) == top.scale(Fraction(8, 3))
    _report(6, "squares vanish and the zeta identity holds; c_2rho(A2) = 8/3 spectrally", ok)


def test_criterion_07_exact_sequences(a1, a2, c2):
    ok = True
    for L in (a1, a2, c2):
        ok = ok and verify_exact_sequences(L).ok
    ok = ok and blocked_rank(a2, "delta", 2) == 28
    ok = ok and blocked_rank(c2, "delta", 3) == 119
    dense = graded_matrix(c2, "delta", 3)
    kernel = kernel_basis(integer_rows(dense.sparse_rows()), dense.cols)
    ok = ok and len(kernel) == 1
    keys = degree_keys(c2, 3)
    vector = MultiVector(c2, 3, {keys[j]: x for j, x in kernel[0].items()})
    ws = w_sharp(c2)
    key = next(iter(ws.terms))
    ratio = vector.terms.get(key, Fraction(0)) / ws.terms[key]
    ok = ok and ratio != 0 and vector == ws.scale(ratio)
    _report(7, "rank-nullity at every degree; ranks 28 (A2) and 119 (C2) with the form line as kernel", ok)


def test_criterion_08_linear_equations(a1, a2, c2):
    ok = True
    for L in (a1, a2, c2):
        failures, _ = membership_equivalence_suite(L, 200, 42)
        ok = ok and failures == 0
    ok = ok and equation_count(a2) == 28
    residual = binomial_dim(a2.g, a2.d) - equation_count(a2)
    ok = ok and residual == 28 == 1 + dim_gamma_two_rho(a2.rd)
    _report(8, "200 seeded membership samples agree per algebra; 28 equations with residual 1+27 (A2)", ok)


def test_criterion_09_orbit_combinatorics(a2, c2):
    ok = True
    for L in (a2, c2):
        profiles = set()
        for pattern in itertools.product((0, 1), repeat=2):
            prof = parabolic_profile(L, chart(L, pattern))
            ok = ok and prof[1] == tuple(i for i, x in enumerate(pattern) if x)
            profiles.add(prof)
        ok = ok and len(profiles) == 4
    _report(9, "the 4 zero patterns give 4 distinct parabolic profiles, each recovering its nonzero parameters", ok)


def test_criterion_10_degeneration(a2, c2):
    ok = degenerate(a2, chart(a2, (1, 1)), (2, 1)) == standard_borel(a2)
    ok = ok and degenerate(c2, chart(c2, (1, 1)), (3, 1)) == standard_borel(c2)
    _report(10, "dominant regular degeneration of a generic chart point is the standard Borel", ok)


def test_criterion_11_section6_identities(a2, c2):
    claims = {c["label"]: c for c in claims_for(c2.rd)}
    r3, r6 = claims["wedge3_sp4"], claims["wedge6_sp4"]
    rc = claims["cubics_on_plane_grassmannian_sp4"]
    ok = verify_dimension_claim(c2.rd, r3) and ambient_dimension(r3) == 120
    ok = ok and verify_dimension_claim(c2.rd, r6) and ambient_dimension(r6) == 210
    ok = ok and verify_dimension_claim(c2.rd, rc) and ambient_dimension(rc) == 175 == hook_content_dim([3, 3], 5)
    ok = ok and 28 == weyl_dim(a2.rd, (1, 1)) + weyl_dim(a2.rd, (3, 0)) + weyl_dim(a2.rd, (0, 3))
    ok = ok and 45 == weyl_dim(c2.rd, (2, 0)) + weyl_dim(c2.rd, (2, 1))
    _report(11, "wedge decompositions sum to 120/210; cubic sections to 175; 28 = 8+10+10 and 45 = 10+35", ok)


def test_criterion_12_fault_injection(tmp_path):
    report_path = tmp_path / "corrupt.json"
    failed_suites = []
    for suite in ("structure", "exterior"):
        out = subprocess.run(
            [
                sys.executable, "-m", "nullvar", "verify", "--type", "A2",
                "--suite", suite, "--corrupt", "2,3,1", "--out", str(report_path),
            ],
            capture_output=True,
            text=True,
        )
        report = json.loads(report_path.read_text())
        names = [r["name"] for r in report["records"] if not r["ok"]]
        if out.returncode == 1 and names:
            failed_suites.append((suite, names[0]))
    ok = len(failed_suites) == 2
    _report(12, f"corrupted constant fails suites with named records: {failed_suites}", ok)
