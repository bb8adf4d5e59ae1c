import hashlib
import importlib
from functools import cache
import pkgutil
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divconv
import divconv.arith as arith_module
import divconv.convolution as convolution_module
import divconv.eta as eta_module
import divconv.modforms as modforms_module
import reference
from divconv.convolution import (
    _scaled_values,
    brute_force_W_table,
    derive_formula,
    target_series,
    verify_formula,
)
from divconv.arith import unpack
from divconv.eta import EtaQuotient
from divconv.modforms import (
    E4,
    SEARCH_CAP,
    build_basis,
    cusp_quotients_for_level,
    dim_M4,
    registered_cusp_quotients,
    sturm_bound,
)
from reference import brute_force_W, reference_verify, sigma_at, target_coefficient_via_sums

TRUNC = 80


@pytest.fixture(scope="module")
def basis14():
    return build_basis(14, registered_cusp_quotients(14))


@pytest.fixture(scope="module")
def formula27():
    return derive_formula(2, 7)


def scaled(formula, n_max):
    """(L, [L * value(n) for n = 0..n_max]), unpacked from the packed scaled integers verify_formula reads."""
    scale, size, value = _scaled_values(formula, n_max)
    return scale, unpack(value, size, n_max + 1, n_max + 1)


def evaluate(formula, n_max):
    """The closed form at n = 0..n_max."""
    scale, values = scaled(formula, n_max)
    return [Fraction(v, scale) for v in values]


def test_brute_force_small_values():
    assert brute_force_W(1, 1, 3) == 6
    assert brute_force_W(2, 7, 9) == 1
    assert brute_force_W(2, 7, 8) == 0


def test_brute_force_symmetry():
    for n in range(1, 60):
        assert brute_force_W(2, 7, n) == brute_force_W(7, 2, n)
        assert brute_force_W(1, 22, n) == brute_force_W(22, 1, n)


def test_brute_force_accepts_non_coprime():
    # 2l + 2m = 4 has the single interior solution l = m = 1
    assert brute_force_W(2, 2, 4) == 1


def test_target_series_constant_terms():
    assert target_series(2, 7, 20)[0] == 25
    assert target_series(1, 26, 30)[0] == 625
    assert not any(target_series(1, 1, 10))


def test_target_series_rejects_non_coprime():
    with pytest.raises(ValueError):
        target_series(2, 4, 10)


def test_eisenstein_identity_matches_series():
    # basis-free consistency: series coefficient vs the sigma/brute-force form
    for alpha, beta in ((2, 7), (1, 22)):
        series = target_series(alpha, beta, 120)
        for n in range(1, 121):
            assert series[n] == target_coefficient_via_sums(alpha, beta, n)


def test_derive_requires_ordered_coprime_pair():
    with pytest.raises(ValueError):
        derive_formula(7, 2)


def test_derived_formula_27_matches_known_coefficients(formula27):
    assert formula27.sigma3_terms == {
        1: Fraction(1, 600),
        2: Fraction(1, 150),
        7: Fraction(49, 600),
        14: Fraction(49, 150),
    }
    assert formula27.sigma_terms == {
        2: (Fraction(1, 24), Fraction(-1, 28)),
        7: (Fraction(1, 24), Fraction(-1, 8)),
    }
    assert [c for _, c in formula27.cusp_terms] == [
        Fraction(-1, 600),
        Fraction(-1, 4200),
        Fraction(-1, 75),
        Fraction(-1, 42),
    ]


def test_evaluate_formula_against_oracle(formula27):
    values = evaluate(formula27, TRUNC)
    assert len(values) == TRUNC + 1 and values[0] == 0
    assert values[9] == 1 and values[8] == 0 and values[1] == 0
    for n in range(1, TRUNC + 1):
        assert values[n] == brute_force_W(2, 7, n)


def test_evaluate_formula_past_basis_truncation(formula27):
    # the formula expands its own cusp quotients, so it is not tied to the
    # Sturm bound that the basis it was solved in stops at
    values = evaluate(formula27, 2 * TRUNC)
    assert values[1:] == [brute_force_W(2, 7, n) for n in range(1, 2 * TRUNC + 1)]


def test_formula_carries_cusp_quotients(formula27, basis14):
    # the formula's generators are its basis's generators, in order
    assert [g for g, _ in formula27.terms] == [e.generator for e in basis14.elements]


def test_verify_formula_report(formula27):
    report = verify_formula(formula27, TRUNC)
    assert report.ok and report.checked == TRUNC
    data = report.to_json_dict()
    assert data["mismatches"] == [] and data["checked"] == TRUNC


def shift_E4_1(formula, delta):
    """The formula with delta added to the coefficient of E4(q), so 240 delta to that of sigma_3(n)."""
    return formula._replace(terms=tuple((g, c + delta if g == E4(1) else c) for g, c in formula.terms))


def test_verify_detects_corruption(formula27):
    # sigma_3(n) coefficient 1/600 -> 1/599
    report = verify_formula(shift_E4_1(formula27, Fraction(1, 599 * 600 * 240)), 30)
    assert not report.ok


@pytest.mark.parametrize("alpha,beta", [(1, 26), (2, 13)])
def test_deep_evaluation_matches_the_oracle(alpha, beta):
    """Every level-26 quotient to q^10000 through the packed multiply pass,
    checked value by value against brute_force_W_table; and the shortest
    ranges, where the sigma3(n/26) slice (and below 13 the sigma3(n/13)
    slice) holds no term."""
    formula = derive_formula(alpha, beta)
    report = verify_formula(formula, 10000)
    assert report.ok and report.checked == 10000
    for n_max in (1, 2, 13):
        report = verify_formula(formula, n_max)
        assert report.ok and report.checked == n_max, n_max


@pytest.mark.parametrize("alpha,beta", [(2, 3), (2, 5)])
def test_searched_level_formula_holds_past_sturm_bound(alpha, beta):
    # levels 6 and 10 have no registered family: the cusp quotients come
    # from the eta search, picked by build_basis
    formula = derive_formula(alpha, beta)
    assert 200 > sturm_bound(alpha * beta)
    assert verify_formula(formula, 200).ok


def test_level16_formula_needs_eisenstein_seeded_selection():
    # when the candidates were the box search at bound 4, the first
    # independent quotients included one in the span of E4(q^t) and the
    # earlier picks, so build_basis refused level 16
    formula = derive_formula(1, 16)
    assert verify_formula(formula, 200).ok


# picks of build_basis from the one cusp-order walk with exponents in
# [-SEARCH_CAP, SEARCH_CAP], taken in walk order
SEARCHED_PICKS_IN_WALK_ORDER = {
    6: [{1: -2, 2: -2, 3: 6, 6: 6}],
    10: [{1: -1, 2: -1, 5: 5, 10: 5}, {1: -2, 2: 2, 5: 2, 10: 6}, {1: -3, 2: 3, 5: 7, 10: 1}],
    12: [
        {1: 2, 2: -4, 3: -6, 6: 8, 12: 8},
        {1: 1, 2: -5, 3: -3, 4: 6, 6: 3, 12: 6},
        {2: -4, 4: 8, 6: -4, 12: 8},
    ],
    20: [
        {2: -1, 4: -1, 10: 5, 20: 5},
        {1: -1, 4: -1, 5: 5, 20: 5},
        {1: -1, 2: -1, 5: 5, 10: 5},
        {1: 1, 2: -3, 4: 2, 5: -5, 10: 7, 20: 6},
        {2: -2, 4: 2, 10: 2, 20: 6},
        {2: -3, 4: 3, 10: 7, 20: 1},
    ],
}


@pytest.mark.parametrize("level", sorted(SEARCHED_PICKS_IN_WALK_ORDER))
def test_searched_picks_follow_walk_order(level):
    basis = build_basis(level, cusp_quotients_for_level(level))
    picks = [e.generator.as_dict() for e in basis.elements if e.kind == "cusp"]
    assert picks == SEARCHED_PICKS_IN_WALK_ORDER[level]


@pytest.mark.parametrize("alpha,beta", [(2, 9), (1, 18), (1, 25), (1, 27), (1, 32)])
def test_levels_with_extra_eisenstein_series_span_M4(alpha, beta):
    # at these levels some gcd(d, N/d) > 2, so dim M4 exceeds #divisors +
    # dim S4 and a basis that stopped at dim S4 quotients missed the target
    level = alpha * beta
    basis = build_basis(level, cusp_quotients_for_level(level))
    assert len(basis.elements) == dim_M4(level)
    formula = derive_formula(alpha, beta)
    assert formula.to_json_dict()["basis_rank"] == dim_M4(level)
    assert verify_formula(formula, 300).ok


def test_formula_json_schema(formula27):
    data = formula27.to_json_dict()
    assert data["alpha"] == 2 and data["beta"] == 7
    assert data["sigma3"]["1"] == "1/600"
    assert data["sigma"]["2"] == ["1/24", "-1/28"]
    assert data["cusp"][3] == ["S14.4", "-1/42"]
    assert data["basis_rank"] == data["dim_M4"] == 8


@pytest.mark.parametrize("alpha,beta", [(2, 7), (1, 22), (2, 11), (1, 26), (2, 13), (1, 14)])
def test_formula_at_sturm_bound_matches_truncation_1000(alpha, beta):
    # the q^n coefficient of the target is a fixed linear function of W(n)
    # with factor -1152 alpha beta (target_coefficient_via_sums), so a
    # formula that holds for n <= 1000 agrees with the target to q^1000
    assert verify_formula(derive_formula(alpha, beta), 1000).ok


def test_formula_json_carries_sturm_bound(formula27):
    assert formula27.to_json_dict()["sturm_bound"] == 8


@pytest.mark.parametrize("alpha,beta", [(1, 1), (2, 7), (7, 2), (1, 26), (6, 4), (2, 12), (4, 6), (3, 8)])
def test_brute_force_matches_naive_double_loop(alpha, beta):
    def sigma1(m):
        return sum(d for d in range(1, m + 1) if m % d == 0)

    for n in range(1, 90):
        naive = sum(
            sigma1(l) * sigma1(m)
            for l in range(1, n + 1)
            for m in range(1, n + 1)
            if alpha * l + beta * m == n
        )
        assert brute_force_W(alpha, beta, n) == naive, n


def reference_evaluate(formula, n_max):
    """The per-n Fraction loop that the integer evaluation replaced, kept as
    its reference: each generator expanded alone, sigma by trial division."""
    terms = [(c, g.expand(n_max)) for g, c in formula.terms]
    values = [Fraction(0)]
    for n in range(1, n_max + 1):
        total = sum(c * coeffs[n] for c, coeffs in terms)
        for d, (c0, c1) in formula.sigma_terms.items():
            total += (c0 + c1 * n) * sigma_at(1, n, d)
        values.append(total)
    return values


@pytest.mark.parametrize(
    "alpha,beta,max_exponent",
    [(2, 7, 9), (1, 22, 9), (2, 11, 9), (1, 26, 9), (2, 13, 9), (1, 3, 9), (2, 3, SEARCH_CAP)],
)
def test_integer_evaluation_matches_fraction_loop(alpha, beta, max_exponent):
    formula = derive_formula(alpha, beta)
    quotients = [g for g, _ in formula.terms if isinstance(g, EtaQuotient)]
    assert all(abs(r) <= max_exponent for q in quotients for _, r in q.exponents)
    assert evaluate(formula, 500) == reference_evaluate(formula, 500)


def test_integer_evaluation_without_cusp_terms():
    # level 3 has no eta quotient of weight 4: the formula is E4(q^t) alone
    formula = derive_formula(1, 3)
    assert formula.cusp_terms == () and [g for g, _ in formula.terms] == [E4(1), E4(3)]
    values = evaluate(formula, 500)
    assert values == reference_evaluate(formula, 500)
    assert values[1:] == [brute_force_W(1, 3, n) for n in range(1, 501)]


def test_level3_formula_derives_and_verifies():
    formula = derive_formula(1, 3)
    assert formula.sigma3_terms == {1: Fraction(1, 24), 3: Fraction(3, 8)}
    assert formula.to_json_dict()["basis_rank"] == dim_M4(3) == 2
    assert verify_formula(formula, 300).ok


def forbid(monkeypatch, *names):
    """Make each name raise in every src/divconv module that binds it."""
    for info in pkgutil.iter_modules(divconv.__path__):
        module = importlib.import_module(f"divconv.{info.name}")
        for name in names:
            if hasattr(module, name):

                def forbidden(*args, name=name):
                    raise AssertionError(f"read {name}")

                monkeypatch.setattr(module, name, forbidden)


PAPER_PAIRS = ((2, 7), (1, 22), (2, 11), (1, 26), (2, 13))


def test_evaluation_reads_no_oracle_sieve(formula27, monkeypatch):
    # each side of the proof reads one divisor-sum source: derivation and
    # evaluation sigma_sieve alone, the oracle table sigma_table alone
    formulas = {pair: derive_formula(*pair) for pair in PAPER_PAIRS}
    tables = {pair: brute_force_W_table(*pair, 300) for pair in PAPER_PAIRS}
    with monkeypatch.context() as patch:
        forbid(patch, "sigma_table", "sigma")
        modforms_module.level_basis.cache_clear()  # the bases are built again under the patch
        assert evaluate(formula27, 60) == reference_evaluate(formula27, 60)
        for pair in PAPER_PAIRS:
            assert derive_formula(*pair) == formulas[pair]
            scale, values = scaled(formulas[pair], 300)
            assert values[1:] == [scale * w for w in tables[pair][1:]]
    with monkeypatch.context() as patch:
        forbid(patch, "sigma_sieve")
        arith_module.sigma_table.cache_clear()
        assert {pair: brute_force_W_table(*pair, 300) for pair in PAPER_PAIRS} == tables


def test_paper_derivation_runs_no_pass(monkeypatch):
    """The basis rows of levels 14, 22 and 26 end at the Sturm bound, so
    every row is shorter than 16 coefficients and takes the log-derivative
    recurrence: with the passes made to raise, the paper pairs derive the
    same formulas."""
    formulas = {pair: derive_formula(*pair) for pair in PAPER_PAIRS}

    def refuse(*args):
        raise AssertionError("derivation ran a pass")

    with monkeypatch.context() as patch:
        patch.setattr(eta_module, "multiply_pass", refuse)
        patch.setattr(eta_module, "_divide_pass", refuse)
        modforms_module.level_basis.cache_clear()  # the bases are built again under the patch
        assert {pair: derive_formula(*pair) for pair in PAPER_PAIRS} == formulas
    modforms_module.level_basis.cache_clear()


def test_evaluation_skips_zero_cusp_coefficients(monkeypatch):
    formula = derive_formula(1, 26)
    expanded = []
    add = convolution_module.sum_eta_quotients
    monkeypatch.setattr(
        convolution_module, "sum_eta_quotients", lambda qs, ws, t: expanded.append(len(qs)) or add(qs, ws, t)
    )
    evaluate(formula, 50)
    assert expanded == [sum(1 for _, c in formula.cusp_terms if c)] == [8]


def test_verify_reports_non_integral_value(formula27):
    # + sigma3(n)/7 leaves a value that rounds down to the oracle at n = 1
    shifted = shift_E4_1(formula27, Fraction(1, 1680))
    report = verify_formula(shifted, 30)
    assert report.mismatches[0] == (1, "1/7", 0)
    nonintegral = [n for n in range(1, 31) if sigma_at(3, n, 1) % 7]
    assert [n for n, value, _ in report.mismatches if value.endswith("/7")] == nonintegral


def test_verify_reports_negative_value(formula27):
    shifted = shift_E4_1(formula27, Fraction(-1, 240))
    report = verify_formula(shifted, 10)
    assert not report.ok and report.mismatches[0] == (1, "-1/1", 0)


@pytest.mark.parametrize(
    "alpha,beta,n_max",
    [pytest.param(a, b, 600, id=f"{a}-{b}") for a, b in [(1, 1), (2, 2), (2, 12), (4, 6), (3, 8), (1, 26)]]
    + [(1, 26, 1025), (2, 3, 1)]
    # far-apart levels near 10^6, where most residue classes hold no term up to q^n_max
    + [(1, 999983, 300), (997, 1009, 300)],
)
def test_brute_force_table_matches_per_n_oracle(alpha, beta, n_max):
    # the table's sieve is exactly n_max long, so its last entries are checked too
    table = brute_force_W_table(alpha, beta, n_max)
    assert len(table) == n_max + 1 and table[0] == 0
    assert table[1:] == [brute_force_W(alpha, beta, n) for n in range(1, n_max + 1)]


# sha256 of repr(brute_force_W_table(alpha, beta, 3000)) for the five paper
# pairs in this order, as the spread-then-multiply product computed them
PAPER_W_TABLES_SHA256 = "d4e243d910174b23c04b311986f6c802e04d28a014d13fc2360df99172172d08"


def test_paper_brute_force_tables_are_unchanged():
    digest = hashlib.sha256()
    for alpha, beta in PAPER_PAIRS:
        digest.update(repr(brute_force_W_table(alpha, beta, 3000)).encode())
    assert digest.hexdigest() == PAPER_W_TABLES_SHA256


def test_per_n_oracle_reads_no_sigma_table(monkeypatch):
    # the per-n reference and the table it checks share no sigma source
    def forbidden(*args):
        raise AssertionError("brute_force_W read a sieve")

    assert not {"sigma_table", "sigma_sieve"} & set(vars(reference))
    monkeypatch.setattr(arith_module, "sigma_table", forbidden)
    monkeypatch.setattr(arith_module, "sigma_sieve", forbidden)
    known = {(1, 1, 3): 6, (2, 7, 9): 1, (2, 7, 8): 0, (2, 2, 4): 1}
    assert {args: brute_force_W(*args) for args in known} == known
    # Besge: W(1,1)(n) = (5 sigma3(n) + (1 - 6n) sigma(n)) / 12
    besge = [(5 * sigma_at(3, n, 1) + (1 - 6 * n) * sigma_at(1, n, 1)) // 12 for n in range(1, 201)]
    assert [brute_force_W(1, 1, n) for n in range(1, 201)] == besge


def test_brute_force_table_rejects_bad_arguments():
    with pytest.raises(ValueError):
        brute_force_W_table(0, 3, 10)
    with pytest.raises(ValueError):
        brute_force_W_table(1, 3, -1)


def test_verify_reads_the_oracle_table(formula27, monkeypatch):
    # the oracle column is one whole-range table; no per-n oracle is left in src
    calls, table = [], convolution_module.brute_force_W_table
    monkeypatch.setattr(convolution_module, "brute_force_W_table", lambda *args: calls.append(args) or table(*args))
    assert verify_formula(formula27, 200).ok
    assert calls == [(2, 7, 200)]


def test_verify_report_states_its_certificate(formula27):
    data = verify_formula(formula27, 40).to_json_dict()
    assert list(data) == ["alpha", "beta", "sturm_bound", "basis_rank", "dim_M4", "checked", "mismatches"]
    formula_data = formula27.to_json_dict()
    assert {k: data[k] for k in ("sturm_bound", "basis_rank", "dim_M4")} == {
        k: formula_data[k] for k in ("sturm_bound", "basis_rank", "dim_M4")
    } == {"sturm_bound": 8, "basis_rank": 8, "dim_M4": 8}


@cache
def cached_formula(alpha, beta):
    return derive_formula(alpha, beta)


def perturbed(formula, index, delta):
    """The formula with delta added to the coefficient of its term index."""
    terms = list(formula.terms)
    generator, c = terms[index]
    terms[index] = (generator, c + delta)
    return formula._replace(terms=tuple(terms))


def first_divided(formula):
    """The index of the formula's first eta quotient with a cube divide."""
    return next(i for i, (g, _) in enumerate(formula.terms) if isinstance(g, EtaQuotient) and eta_module._passes(g)[1])


# levels 14, 22 (two quotients with a cube divide), 26, and 20, whose
# quotients come from the cusp-order walk
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(2, 7), (1, 22), (2, 11), (1, 26), (4, 5)]),
    st.integers(0, 16),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**6)) | st.just(Fraction(0)),
    st.integers(1, 120),
)
@example((1, 22), 10, Fraction(10**30, 7), 60)  # past 8-byte slots, on a quotient with a divide
@example((1, 26), 12, Fraction(-(10**30), 3), 60)  # past 8-byte slots, on a multiply-only quotient
@example((1, 26), 9, Fraction(1, 2040), 1)  # the zero cusp coefficient, made live
def test_packed_verification_matches_the_list_reference(pair, index, delta, n_max):
    formula = cached_formula(*pair)
    formula = perturbed(formula, index % len(formula.terms), delta)
    assert verify_formula(formula, n_max) == reference_verify(formula, n_max)


@pytest.mark.parametrize("pair", [(1, 22), (2, 11)])
def test_wide_perturbation_of_a_divided_quotient_is_reported_exactly(pair):
    formula = cached_formula(*pair)
    formula = perturbed(formula, first_divided(formula), Fraction(10**30, 7))
    assert _scaled_values(formula, 80)[1] > 8  # wider than any struct slot
    report = verify_formula(formula, 80)
    assert report == reference_verify(formula, 80) and not report.ok


def test_passing_deep_verify_unpacks_no_quotient(monkeypatch):
    formula = derive_formula(1, 26)
    unpacked = []
    for module in (eta_module, convolution_module):
        monkeypatch.setattr(module, "unpack", lambda *args, f=module.unpack: unpacked.append(args[1:]) or f(*args))
    assert verify_formula(formula, 3000).ok
    assert unpacked == []
