"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value below is either a published display checked
by hand or was computed by the independent brute-force oracles."""

import time
from fractions import Fraction as F

from click.testing import CliRunner

from divconv.cli import main as cli_main
from divconv.convolution import (
    derive_formula,
    target_coefficient_via_sums,
    target_series,
    verify_formula,
)
from divconv.eta import check_admissibility, search_eta_quotients
from divconv.modforms import (
    build_basis,
    cusp_count,
    dim_M4,
    eisenstein_L,
    express_in_basis,
    registered_cusp_quotients,
    sturm_bound,
)
from divconv.representations import (
    octonary_1_1_closed_form,
    octonary_convolution,
    octonary_formula_table,
    r4,
    r4_lattice,
)
from divconv.qseries import QSeries
from reference import reference_rank

NMAX = 1000
PAIRS = ((2, 7), (1, 22), (2, 11), (1, 26), (2, 13))


def _ok(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


# Displayed coefficients of the four squared-difference expansions:
# per level-divisor sigma3 display values (equal to 240 * x_t) and the
# cusp-element coefficients in registered order.
EXPANSION_DISPLAYS = {
    (2, 7): (
        [F(-672, 25), F(21312, 25), F(261072, 25), F(-131712, 25)],
        [F(672, 25), F(96, 25), F(5376, 25), F(384)],
    ),
    (2, 11): (
        [F(15840, 61), F(37440, 61), F(1626768, 61), F(-494208, 61)],
        [F(36864, 61), F(357408, 61), F(1160352, 61), F(1539072, 61), F(834048, 61), F(-22176), F(-864)],
    ),
    (1, 26): (
        [F(19152, 85), F(-4992, 85), F(-210912, 85), F(12946752, 85)],
        [F(82848, 85), F(-4128, 17), F(61920, 17), F(-177216, 85), F(-53664, 17), F(0), F(1077024, 85), F(291072, 85), F(-1248, 85)],
    ),
    (2, 13): (
        [F(-1248, 85), F(76608, 85), F(3236688, 85), F(-843648, 85)],
        [F(1248, 85), F(12192, 17), F(52128, 17), F(181824, 85), F(158496, 17), F(0), F(16224, 85), F(-35328, 85), F(-82848, 85)],
    ),
}

# The five published closed forms for the convolution sums.
FORMULA_DISPLAYS = {
    (2, 7): dict(
        sigma3={1: F(1, 600), 2: F(1, 150), 7: F(49, 600), 14: F(49, 150)},
        sigma={2: (F(1, 24), F(-1, 28)), 7: (F(1, 24), F(-1, 8))},
        cusp=[F(-1, 600), F(-1, 4200), F(-1, 75), F(-1, 42)],
    ),
    (1, 22): dict(
        sigma3={1: F(17, 1464), 2: F(-1, 122), 11: F(35, 488), 22: F(125, 366)},
        sigma={1: (F(1, 24), F(-1, 88)), 22: (F(1, 24), F(-1, 4))},
        cusp=[F(-21, 2684), F(-159, 5368), F(-69, 5368), F(-32, 671), F(2, 61), F(-7, 8), F(-3, 88)],
    ),
    (2, 11): dict(
        sigma3={1: F(-5, 488), 2: F(5, 366), 11: F(137, 1464), 22: F(39, 122)},
        sigma={2: (F(1, 24), F(-1, 44)), 11: (F(1, 24), F(-1, 8))},
        cusp=[F(-16, 671), F(-1241, 5368), F(-4029, 5368), F(-668, 671), F(-362, 671), F(7, 8), F(3, 88)],
    ),
    (1, 26): dict(
        sigma3={1: F(1, 2040), 2: F(1, 510), 13: F(169, 2040), 26: F(169, 510)},
        sigma={1: (F(1, 24), F(-1, 104)), 26: (F(1, 24), F(-1, 4))},
        cusp=[F(-863, 26520), F(43, 5304), F(-215, 1768), F(71, 1020), F(43, 408), F(0), F(-863, 2040), F(-379, 3315), F(1, 2040)],
    ),
    (2, 13): dict(
        sigma3={1: F(1, 2040), 2: F(1, 510), 13: F(169, 2040), 26: F(169, 510)},
        sigma={2: (F(1, 24), F(-1, 52)), 13: (F(1, 24), F(-1, 8))},
        cusp=[F(-1, 2040), F(-127, 5304), F(-181, 1768), F(-947, 13260), F(-127, 408), F(0), F(-13, 2040), F(46, 3315), F(863, 26520)],
    ),
}


def test_criterion_1_expansion_displays(paper_bases):
    start = time.time()
    for (alpha, beta), (sigma3_display, cusp_display) in EXPANSION_DISPLAYS.items():
        basis = paper_bases[alpha * beta]
        x = express_in_basis(target_series(alpha, beta, sturm_bound(alpha * beta)), basis)
        n_eis = sum(e.kind == "eisenstein" for e in basis.elements)
        assert [240 * c for c in x[:n_eis]] == sigma3_display, (alpha, beta)
        assert x[n_eis:] == cusp_display, (alpha, beta)
    # the sixth level-26 cusp coefficient is derived as exactly zero
    assert EXPANSION_DISPLAYS[(1, 26)][1][5] == 0
    elapsed = time.time() - start
    assert elapsed < 60
    _ok(1, f"four expansion displays match exactly ({elapsed:.1f}s)")


def test_criterion_2_formula_displays():
    for (alpha, beta), display in FORMULA_DISPLAYS.items():
        formula = derive_formula(alpha, beta)
        assert formula.sigma3_terms == display["sigma3"], (alpha, beta)
        assert formula.sigma_terms == display["sigma"], (alpha, beta)
        assert [c for _, c in formula.cusp_terms] == display["cusp"], (alpha, beta)
    _ok(2, "all five closed-form displays match exactly")


def test_criterion_3_oracle_equivalence():
    start = time.time()
    for alpha, beta in PAIRS:
        formula = derive_formula(alpha, beta)
        report = verify_formula(formula, NMAX)
        assert report.ok, (alpha, beta, report.mismatches[:3])
    elapsed = time.time() - start
    assert elapsed < 120
    _ok(3, f"formula == brute force for n <= {NMAX}, five pairs ({elapsed:.1f}s)")


def test_criterion_4_identity_is_basis_free():
    for alpha, beta in PAIRS:
        series = target_series(alpha, beta, NMAX)
        for n in range(1, NMAX + 1):
            assert series[n] == target_coefficient_via_sums(alpha, beta, n), (alpha, beta, n)
    _ok(4, "squared-difference coefficients match the sigma/brute-force form")


def test_criterion_5_dimensions_and_bases(paper_bases):
    assert [cusp_count(n) for n in (14, 22, 26)] == [4, 4, 4]
    assert [dim_M4(n) - cusp_count(n) for n in (14, 22, 26)] == [4, 7, 9]
    for level, basis in paper_bases.items():
        assert len(basis.elements) == dim_M4(level)
        # independent at the Sturm bound, by an elimination that did not pick them
        assert reference_rank([e.series for e in basis.elements], sturm_bound(level)) == len(basis.elements)
        # re-running construction accepts the registered family
        rebuilt = build_basis(level, registered_cusp_quotients(level))
        assert len(rebuilt.elements) == len(basis.elements)
    _ok(5, "dimension anchors and basis rank checks hold")


def test_criterion_6_search_rediscovery():
    for level in (14, 22, 26):
        found = search_eta_quotients(level, 9)
        exponents = {q.exponents for q in found}
        for quotient in registered_cusp_quotients(level):
            assert quotient.exponents in exponents, (level, quotient)
        for quotient in found:
            report = check_admissibility(quotient)
            # admissibility conditions, with the cusp condition read as the
            # paper's de-facto one: non-negative order sums everywhere plus
            # strictly positive order at infinity (two registered level-22
            # elements have order sum exactly 0 at d = 1, so the literal
            # all-orders-strictly-positive condition cannot hold for them)
            assert report.is_modular_form and report.weight == 4
            assert quotient.leading_exponent_numerator > 0
    _ok(6, "searches at bound 9 rediscover all registered families")


def test_criterion_7_square_of_weight2_series():
    series = QSeries(eisenstein_L(NMAX))
    square = series * series
    from divconv.arith import sigma_table

    table1 = sigma_table(1, NMAX)
    table3 = sigma_table(3, NMAX)
    for n in range(1, NMAX + 1):
        assert square.coeffs[n] == 240 * table3[n] - 288 * n * table1[n]
    _ok(7, f"L^2 coefficient identity holds for n <= {NMAX}")


def test_criterion_8_four_squares_identity():
    for n in range(0, 201):
        assert r4(n) == r4_lattice(n), n
    _ok(8, "four-squares formula matches lattice counts for n <= 200")


def test_criterion_9_octonary_counts():
    start = time.time()
    tables = {(a, b): octonary_formula_table(a, b, 500) for a, b in ((1, 1), (1, 3), (2, 3), (1, 9))}
    for (a, b), table in tables.items():
        for n in range(1, 501):
            assert table[n] == octonary_convolution(a, b, n), (a, b, n)
    for n in range(1, 501):
        assert tables[1, 1][n] == octonary_1_1_closed_form(n), n
    assert tables[1, 1][2] == 112
    elapsed = time.time() - start
    assert elapsed < 60
    _ok(9, f"octonary formulas match oracles for n <= 500 ({elapsed:.1f}s)")


def test_criterion_10_determinism():
    runner = CliRunner()
    args = ["--truncation", "1000", "table", "--pairs", "2,7;1,22;2,11;1,26;2,13"]
    first = runner.invoke(cli_main, args)
    second = runner.invoke(cli_main, args)
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.output == second.output
    derive_args = ["--truncation", "1000", "derive", "--alpha", "1", "--beta", "26"]
    assert runner.invoke(cli_main, derive_args).output == runner.invoke(cli_main, derive_args).output
    _ok(10, "repeated pipeline runs emit byte-identical output")
