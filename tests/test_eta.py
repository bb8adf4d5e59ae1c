import hashlib
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from math import ceil, gcd, isqrt, sqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import divconv.eta as eta_module
from divconv.arith import divisors, multiply_pass, pack, sigma, slot_bytes, unpack
from divconv.convolution import derive_formula
from divconv.eta import (
    AdmissibilityReport,
    EtaQuotient,
    _inverse,
    check_admissibility,
    euler_F,
    expand_eta_quotient,
    expand_eta_quotients,
    search_eta_quotients,
    sum_eta_quotients,
)
from divconv.modforms import registered_cusp_quotients
from divconv.qseries import QSeries
from conftest import run_cli
from reference import reference_multiply_pass, reference_sum_eta_quotients


def naive_euler_product(truncation):
    """Independent oracle: multiply out (1-q)(1-q^2)... term by term."""
    coeffs = [1] + [0] * truncation
    for n in range(1, truncation + 1):
        new = list(coeffs)
        for i in range(truncation + 1 - n):
            new[i + n] -= coeffs[i]
        coeffs = new
    return coeffs


def test_euler_F_matches_naive_product():
    """Every truncation up to 200, so every pentagonal exponent k(3k -+ 1)/2 is crossed."""
    naive = naive_euler_product(200)
    for t in range(1, 201):
        assert euler_F(t).coeffs == naive[: t + 1], t


def test_euler_F_known_prefix():
    f = euler_F(12)
    assert f.coeffs[:8] == [1, -1, -1, 0, 0, 1, 0, 1]
    assert f.coeffs[0] == 1
    assert f.coeffs[12] == -1


def test_quotient_construction_validates():
    with pytest.raises(ValueError):
        EtaQuotient.from_dict(14, {3: 1})  # 3 does not divide 14
    with pytest.raises(ValueError):
        EtaQuotient.from_dict(14, {1: 0})  # all exponents zero
    q = EtaQuotient.from_dict(14, {"1": 5, "2": -1, "7": 5, "14": -1})
    assert q.as_dict().get(2, 0) == -1 and q.as_dict().get(14, 0) == -1
    assert check_admissibility(q).weight == 4


def test_admissibility_level14_first_family_member():
    q = EtaQuotient.from_dict(14, {1: 5, 2: -1, 7: 5, 14: -1})
    report = check_admissibility(q)
    assert report.is_modular_form and report.cond_v_prime
    assert report.weight == 4
    assert all(report.orders[d] > 0 for d in (1, 2, 7, 14))


def test_admissibility_discriminant_quotient():
    report = check_admissibility(EtaQuotient.from_dict(1, {1: 24}))
    assert report.is_modular_form and report.cond_v_prime and report.weight == 12
    assert report.orders[1] == 24  # raw order sum; vanishing order is this / 24


def test_admissibility_single_eta_fails_congruence():
    report = check_admissibility(EtaQuotient.from_dict(1, {1: 1}))
    assert not report.cond_i


def test_known_level22_edge_cases_have_zero_order_sum():
    # the two level-22 family members whose order sum at d=1 is exactly 0:
    # modular forms by the weak condition, but not certified cuspidal by
    # the strict one
    for exps in ({1: -1, 2: 1, 11: 3, 22: 5}, {1: -5, 2: 9, 11: 7, 22: -3}):
        report = check_admissibility(EtaQuotient.from_dict(22, exps))
        assert report.orders[1] == 0
        assert report.cond_v and not report.cond_v_prime
        assert report.is_modular_form


def reference_admissibility(f: EtaQuotient) -> AdmissibilityReport:
    """The conditions read off their definitions over Q: Fraction order
    sums, and the product of the d^r_d formed and tested for a square."""
    n, exps = f.level, f.as_dict()
    product = Fraction(1)
    for d, r in exps.items():
        product *= Fraction(d) ** r
    weight = Fraction(sum(exps.values()), 2)
    orders = {d: sum(Fraction(gcd(d, delta) ** 2 * r, delta) for delta, r in exps.items()) for d in divisors(n)}
    return AdmissibilityReport(
        cond_i=sum(d * r for d, r in exps.items()) % 24 == 0,
        cond_ii=sum(Fraction(n, d) * r for d, r in exps.items()) % 24 == 0,
        cond_iii=all(isqrt(x) ** 2 == x for x in (product.numerator, product.denominator)),
        weight=weight,
        cond_iv=weight.denominator == 1 and weight.numerator % 2 == 0,
        orders=orders,
        cond_v=all(o >= 0 for o in orders.values()),
        cond_v_prime=all(o > 0 for o in orders.values()),
    )


@st.composite
def any_quotients(draw):
    level = draw(st.sampled_from([1, 2, 4, 6, 12, 14, 22, 26, 36, 60, 100]))
    exponents = draw(st.lists(st.integers(-12, 12), min_size=len(divisors(level)), max_size=len(divisors(level))))
    assume(any(exponents))
    return EtaQuotient.from_dict(level, dict(zip(divisors(level), exponents)))


@settings(max_examples=300, deadline=None)
@given(any_quotients())
# each fails exactly one condition: (i), (ii), (iii), (iv), (v)
@example(EtaQuotient.from_dict(4, {1: -2, 2: 2, 4: 4}))
@example(EtaQuotient.from_dict(4, {1: 4, 2: -2, 4: 6}))
@example(EtaQuotient.from_dict(12, {1: 4, 2: -5, 4: 6, 6: 5, 12: 2}))
@example(EtaQuotient.from_dict(4, {1: 4, 2: 2, 4: 4}))
@example(EtaQuotient.from_dict(6, {1: -5, 2: -5, 3: -1, 6: -1}))
def test_admissibility_matches_definitions(quotient):
    assert check_admissibility(quotient) == reference_admissibility(quotient)


@pytest.mark.parametrize(
    "level,exps,lead",
    [
        (14, {1: 5, 2: -1, 7: 5, 14: -1}, 1),
        (22, {1: 4, 11: 4}, 2),
        (14, {1: -1, 2: 5, 7: -1, 14: 5}, 3),
    ],
)
def test_expansion_leading_exponent(level, exps, lead):
    series = expand_eta_quotient(EtaQuotient.from_dict(level, exps), 30)
    assert all(c == 0 for c in series.coeffs[:lead])
    assert series.coeffs[lead] == 1


def test_expansion_rejects_fractional_prefactor():
    with pytest.raises(ValueError, match="is not divisible by 24"):
        expand_eta_quotient(EtaQuotient.from_dict(1, {1: 1}), 10)


def test_expansion_multiplicative_in_exponents():
    a = EtaQuotient.from_dict(14, {1: 5, 2: -1, 7: 5, 14: -1})
    b = EtaQuotient.from_dict(14, {1: 2, 2: 2, 7: 2, 14: 2})
    summed = EtaQuotient.from_dict(
        14, {d: a.as_dict().get(d, 0) + b.as_dict().get(d, 0) for d in (1, 2, 7, 14)}
    )
    t = 40
    assert expand_eta_quotient(summed, t) == expand_eta_quotient(a, t) * expand_eta_quotient(b, t)


def reference_box_search(level, bound):
    """The scan the cusp-order enumeration replaced, kept as its reference:
    every exponent vector in [-bound, bound]^(#divisors), the last exponent
    fixed by weight 4, in lexicographic order, filtered by
    check_admissibility and a positive leading exponent. Skipping vectors
    that fail condition (i) first changes nothing, since the filter
    requires it."""
    divs = divisors(level)
    found = []
    for head in product(range(-bound, bound + 1), repeat=len(divs) - 1):
        r_last = 8 - sum(head)
        if not -bound <= r_last <= bound:
            continue
        exps = dict(zip(divs, head + (r_last,)))
        if sum(d * r for d, r in exps.items()) % 24:
            continue
        candidate = EtaQuotient.from_dict(level, exps)
        if check_admissibility(candidate).is_modular_form and candidate.leading_exponent_numerator > 0:
            found.append(candidate)
    return found


REFERENCE_BOX = 3000  # largest (2*bound + 1)^(#divisors - 1) compared


@pytest.mark.parametrize("level", range(1, 41))
def test_search_equals_box_scan_on_small_boxes(level):
    dims = len(divisors(level)) - 1
    bounds = [b for b in range(1, 10) if (2 * b + 1) ** dims <= REFERENCE_BOX]
    for bound in bounds:
        assert search_eta_quotients(level, bound) == reference_box_search(level, bound), bound


@pytest.mark.parametrize("level", [12, 20])
def test_search_equals_box_scan_at_bound_3(level):
    assert search_eta_quotients(level, 3) == reference_box_search(level, 3)


def reference_inverse(matrix):
    """Gauss-Jordan over Q, kept as the reference for eta._inverse; None
    for a singular matrix."""
    n = len(matrix)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [row[n:] for row in rows]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n)))
@example([[0, 1], [1, 0]])
@example([[2, 1, 0], [1, 1, 0], [0, 0, -3]])
def test_inverse_matches_gauss_jordan(matrix):
    expected = reference_inverse(matrix)
    assume(expected is not None)
    assert _inverse(matrix) == expected


@pytest.mark.parametrize("level", [30, 36])
def test_inverse_of_cusp_order_matrix(level):
    divs = divisors(level)
    orders = [[Fraction(level * gcd(d, e) ** 2, 24 * gcd(d, level // d) * d * e) for e in divs] for d in divs]
    assert _inverse(orders) == reference_inverse(orders)


def test_search_without_integral_order_sum_is_empty():
    # 4 * mu(21) / 12 = 32/3: cusp orders of a weight-4 quotient cannot sum to it
    assert search_eta_quotients(21, 50) == []


def test_search_level12_bound9_count():
    # the box scan needs 19^5 admissibility checks for this
    assert len(search_eta_quotients(12, 9)) == 223


def test_search_rediscovers_level14_family():
    found = {q.exponents for q in search_eta_quotients(14, 6)}
    for quotient in registered_cusp_quotients(14):
        assert quotient.exponents in found


def test_search_level1_weight4_is_empty():
    assert search_eta_quotients(1, 8) == []


def test_search_results_are_sorted_and_expandable():
    found = search_eta_quotients(14, 6)
    assert found == sorted(found, key=lambda q: q.exponents)
    for quotient in found:
        series = expand_eta_quotient(quotient, 20)
        assert series.coeffs[0] == 0
        lead = next(n for n, c in enumerate(series.coeffs) if c)
        assert series.coeffs[lead] == 1


def test_json_round_trip():
    q = EtaQuotient.from_dict(26, {1: 1, 2: 5, 13: 3, 26: -1})
    assert EtaQuotient.from_json_dict(q.to_json_dict()) == q


def dense_eta_product(quotient, truncation):
    """Oracle for the sparse-pass kernel: dense QSeries powers and products."""
    result = QSeries.one(truncation)
    for d, r in quotient.exponents:
        result = result * euler_F((truncation + d - 1) // d).substitute(d, cap=truncation) ** r
    return QSeries([0] * (quotient.leading_exponent_numerator // 24) + result.coeffs, truncation)


@pytest.mark.parametrize("level", [14, 22, 26])
def test_kernel_matches_dense_product_on_registered_families(level):
    for quotient in registered_cusp_quotients(level):
        assert expand_eta_quotient(quotient, 300) == dense_eta_product(quotient, 300)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=5, max_size=5), st.integers(1, 80))
@example([6, 6, 6, 6, 6], 3)  # starts at q^7, past the truncation
@example([0, 0, 0, 0, 26], 12)  # eta(12z)^26 starts at q^13
@example([0, 0, 0, 0, 26], 13)
def test_kernel_matches_dense_product_on_random_level12_quotients(tail, truncation):
    # r_1 is the one value in [-6, 17] that makes sum d*r_d a multiple of 24
    rest = sum(d * r for d, r in zip((2, 3, 4, 6, 12), tail))
    r1 = (6 - rest) % 24 - 6
    assume(r1 <= 6 and rest + r1 >= 0 and (r1 or any(tail)))
    quotient = EtaQuotient.from_dict(12, dict(zip((1, 2, 3, 4, 6, 12), [r1, *tail])))
    got = expand_eta_quotient(quotient, truncation)
    assert got == dense_eta_product(quotient, truncation)
    if (rest + r1) // 24 > truncation:
        assert not any(got.coeffs)


def test_cube_and_pentagonal_pass_terms_equal_dense_products():
    """The closed-form terms of F(q^d)^3 and F(q^d), sorted and on the
    multiples of d, spread into dense lists at q^(1/d) equal the dense cube
    of euler_F and the naive product (1-q)(1-q^2)... up to every q^m, m <= 200."""
    for m in range(1, 201):
        cube, pentagonal = (euler_F(m) ** 3).coeffs, naive_euler_product(m)
        for d in (1, 2, 3):
            for kind, expected in (("cube", cube), ("pentagonal", pentagonal)):
                terms = eta_module._pass_terms(d, kind, m)
                assert list(terms) == sorted(terms) and all(n % d == 0 for n, _ in terms), (kind, d, m)
                dense = [1] + [0] * m
                for n, c in terms:
                    dense[n // d] = c
                assert dense == expected, (kind, d, m)


def test_theta_terms_equal_gauss_quotients_of_euler_F():
    """psi(q) = F(q^2)^2 / F(q) and phi(-q) = F(q)^2 / F(q^2), built densely
    at 200 once: truncated products agree on every prefix."""
    t = 200
    f, f2 = euler_F(t), euler_F(t // 2).substitute(2, cap=t)
    for kind, dense in (("psi", f2**2 * f**-1), ("phi", f**2 * f2**-1)):
        for m in range(1, t + 1):
            series = [1] + [0] * m
            for n, c in eta_module._pass_terms(1, kind, m):
                series[n] = c
            assert series == dense.coeffs[: m + 1], (kind, m)
        assert eta_module._pass_terms(3, kind, 40) == tuple((3 * n, c) for n, c in eta_module._pass_terms(1, kind, 40))


def test_phi_pass_terms_come_in_one_run_per_coefficient():
    """phi(-q^d)'s terms, -2 at the odd k and 2 at the even k, come as two
    runs, so that arith.multiply_pass scales each run once."""
    for m in (1, 3, 4, 9, 99, 100):
        terms = eta_module._pass_terms(2, "phi", m)
        odd, even = range(1, isqrt(m) + 1, 2), range(2, isqrt(m) + 1, 2)
        assert terms == tuple((2 * k * k, -2) for k in odd) + tuple((2 * k * k, 2) for k in even), m


@st.composite
def level16_quotients(draw):
    """A level-16 quotient with r_2..r_16 in [-6, 6] and r_1 in [-6, 6]
    the value that makes its leading exponent a non-negative integer."""
    tail = draw(st.lists(st.integers(-6, 6), min_size=4, max_size=4))
    rest = sum(d * r for d, r in zip((2, 4, 8, 16), tail))
    r1 = (6 - rest) % 24 - 6
    assume(r1 <= 6 and rest + r1 >= 0 and (r1 or any(tail)))
    return EtaQuotient.from_dict(16, dict(zip((1, 2, 4, 8, 16), [r1, *tail])))


@settings(max_examples=60, deadline=None)
@given(level16_quotients(), st.integers(1, 80))
@example(EtaQuotient.from_dict(20, {2: -3, 4: 3, 10: 7, 20: 1}), 60)  # a (1,20) walk pick
@example(EtaQuotient.from_dict(16, {1: -4, 2: -2, 8: 1}), 80)  # psi at 1, then phi at 2
@example(EtaQuotient.from_dict(16, {1: -4, 2: -4, 4: 3, 8: 3}), 80)  # psi at 1, 2 and 4
def test_kernel_matches_dense_product_on_chained_level16_quotients(quotient, truncation):
    """At level 16 the pairs (1,2), (2,4), (4,8), (8,16) chain, so the
    exponent a theta rewrite leaves at 2d feeds the next pair's rewrite."""
    assert expand_eta_quotient(quotient, truncation) == dense_eta_product(quotient, truncation)


def reference_passes(quotient):
    """The plan before theta factors, kept as the cost rule's baseline:
    per divisor, |r_d| // 3 cube passes and |r_d| % 3 pentagonal ones."""
    return [
        (d, kind, r > 0)
        for d, r in quotient.exponents
        for kind, count in (("cube", abs(r) // 3), ("pentagonal", abs(r) % 3))
        for _ in range(count)
    ]


def divide_terms(passes, truncation):
    return sum(len(eta_module._pass_terms(d, kind, truncation // d)) for d, kind, multiply in passes if not multiply)


def cube_divide_terms(divide, truncation):
    return sum(len(eta_module._pass_terms(d, "cube", truncation // d)) for d in divide)


@st.composite
def even_level_quotients(draw, bound=9):
    level = draw(st.sampled_from([2, 4, 8, 12, 16, 20, 24, 36]))
    exponents = draw(st.lists(st.integers(-bound, bound), min_size=len(divisors(level)), max_size=len(divisors(level))))
    assume(any(exponents))
    return EtaQuotient.from_dict(level, dict(zip(divisors(level), exponents)))


@settings(max_examples=150, deadline=None)
@given(even_level_quotients())
# a (1,20) walk pick: its cube divide at 2 has 99 terms at 10^4, one greedy psi
# leaves two pentagonal ones (228), three psi one cube divide at 4 (70)
@example(EtaQuotient.from_dict(20, {2: -3, 4: 3, 10: 7, 20: 1}))
@example(EtaQuotient.from_dict(2, {1: -9, 2: -2}))  # one divide term more than the baseline at t = 100
def test_theta_rewrite_never_adds_divide_terms(quotient):
    """The cost rule weighs a divide pass by its term count per sqrt(t), so
    at a small truncation rounding can make the real count one higher
    (level 20 at t = 1000 has such cases); at t = 10^4, the deep
    evaluation range, the plan's cube divides have no more terms than the
    cube and pentagonal divides of the plan without theta factors, and the
    theta passes only multiply: a divide is a bare divisor of the level."""
    multiply, divide = eta_module._passes(quotient)
    assert cube_divide_terms(divide, 10**4) <= divide_terms(reference_passes(quotient), 10**4)
    assert {kind for _, kind in multiply} <= {"cube", "pentagonal", "psi", "phi"}
    assert all(type(d) is int and quotient.level % d == 0 for d in divide)


def reference_plan(quotient):
    """_passes with the theta options searched past where the absorbed
    exponent reaches 0, to n = max(0, -x) + 2 and max(0, -y) + 2, and the
    cost rule written out again: ceil(-r/3) cube divides of about
    sqrt(2t/d) terms each."""

    def cost(d, r):
        return ceil(-r / 3) / sqrt(d) if r < 0 else 0.0

    r, multiply, divide = quotient.as_dict(), [], []
    for d in divisors(quotient.level // 2) if quotient.level % 2 == 0 else []:
        x, y = r.get(d, 0), r.get(2 * d, 0)
        if min(x, y) < 0:
            psi = [(x + n, y - 2 * n, n, "psi") for n in range(max(0, -x) + 3)]
            phi = [(x - 2 * n, y + n, n, "phi") for n in range(1, max(0, -y) + 3)]
            r[d], r[2 * d], n, kind = min(psi + phi, key=lambda o: (cost(d, o[0]) + cost(2 * d, o[1]), o[2]))
            multiply += [(d, kind)] * n
    for d, x in r.items():
        if x > 0:
            multiply += [(d, "cube")] * (x // 3) + [(d, "pentagonal")] * (x % 3)
        elif x < 0:
            multiply += [(d, "pentagonal")] * (x % 3)
            divide += [d] * ceil(-x / 3)
    return tuple(sorted(multiply)), tuple(sorted(divide))


@settings(max_examples=300, deadline=None)
@given(even_level_quotients(bound=12))
@example(EtaQuotient.from_dict(2, {1: -12, 2: -12}))
@example(EtaQuotient.from_dict(16, {1: -4, 2: -2, 8: 1}))  # psi at 1, then phi at 2
def test_planner_search_stops_where_the_absorbed_exponent_reaches_0(quotient):
    assert eta_module._passes(quotient) == reference_plan(quotient)


@pytest.mark.parametrize(
    "quotient",
    [EtaQuotient.from_dict(5, {1: -1, 5: 5}), EtaQuotient.from_dict(7, {1: -2, 7: 14})],
    ids=["level5", "level7"],
)
def test_odd_level_negative_exponent_takes_cube_divides_and_pentagonal_multiplies(quotient):
    """No theta factor applies at an odd level, so r_1 = -1 (2 mod 3) and
    r_1 = -2 (1 mod 3) each give ceil(|r|/3) = 1 cube divide and r mod 3
    pentagonal multiplies."""
    (_, r), *_ = quotient.exponents
    multiply, divide = eta_module._passes(quotient)
    assert divide == (1,) * ceil(-r / 3)
    assert multiply.count((1, "pentagonal")) == r % 3
    assert expand_eta_quotient(quotient, 300) == dense_eta_product(quotient, 300)


@pytest.mark.parametrize("level,divides", [(14, 0), (22, 2), (26, 0)])
def test_registered_families_keep_few_divide_passes(level, divides):
    plans = [eta_module._passes(q) for q in registered_cusp_quotients(level)]
    assert sum(len(divide) for _, divide in plans) == divides
    assert all(divide in ((), (2,)) for _, divide in plans)  # level 22: one cube divide at d = 2 each


def packed_pass(g, terms):
    """arith.multiply_pass on g packed by arith with a spare zero slot, at the
    narrowest width that holds g, and read back: (product, slot bytes)."""
    size = slot_bytes(max(map(abs, g)))
    value, size = multiply_pass((pack([*g, 0], size), size), terms)
    return unpack(value, size, len(g) + 1, len(g)), size


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([1, 5, 13, 29, 61, 100, 400]).flatmap(
        lambda bits: st.lists(st.integers(-(2**bits), 2**bits), min_size=1, max_size=30)
    ),
    st.lists(st.tuples(st.integers(1, 32), st.integers(-60, 60)), max_size=6),
)
@example([0] * 6, [(1, 5), (5, -1)])  # all zero
@example([9], [(1, -3)])  # length 1: every shift passes the end
@example([-4, 7, -1, 2], [(3, 1), (3, -5), (1, -1)])  # mixed signs; k = 3 reaches the last slot
@example([-1, -1, -1], [(2, 100)])  # the shift's floor takes the spare slot to -200
def test_multiply_pass_matches_list_reference(g, terms):
    assert packed_pass(g, terms)[0] == reference_multiply_pass(g, terms)


@pytest.mark.parametrize("bits", [7, 8, 15, 16, 31, 32, 63, 64, 65, 200])
@pytest.mark.parametrize("sign", [1, -1])
def test_multiply_pass_reaches_its_slot_bound(bits, sign):
    """g's slots take exactly `bits` bits and the last coefficient of the
    product comes within 2 of (max|g| + 1) * (1 + sum |c|), which has
    `bits` bits too. The packed width is then arith.slot_bytes of the
    check's bound (2^(bits-1) + 1) * (1 + sum |c|), with bits + 1 bits: 7
    bits of g take 16-bit slots, 15 and 31 bits the next width up, and 63
    bits and up take slots wider than 64 bits."""
    m = 2 ** (bits - 1) - 2
    g, terms = [sign * m] * 5, [(4, 1)]
    out, size = packed_pass(g, terms)
    assert out == reference_multiply_pass(g, terms)
    assert out[-1] == sign * 2 * m and (2 * (m + 1)).bit_length() == bits
    assert size == slot_bytes(2**bits + 2)
    alternating = [(-1) ** i * m for i in range(5)]
    assert packed_pass(alternating, terms) == (reference_multiply_pass(alternating, terms), size)


@pytest.mark.parametrize("size", [1, 2, 4, 8, 9])
@pytest.mark.parametrize("position", [0, 3, 6], ids=["top", "middle", "spare"])
def test_multiply_pass_keeps_its_width_up_to_the_edge(size, position):
    """With 1 + sum |c| = 4 (3 bits), a slot at either edge of
    [-2^(v-1), 2^(v-1)), v = 8 size - 4, keeps the width; one past either
    edge, the spare slot below g included, takes the width of the bound
    (2^v + 1) * 4, and a slot of 8 size bits widens it. The product is
    exact in every case."""
    terms, w = [(1, 2), (2, -1)], 8 * size
    v = w - 4
    low, high = -(2 ** (v - 1)), 2 ** (v - 1) - 1
    for edge, bits in ((low, v), (high, v), (low - 1, v + 1), (high + 1, v + 1), (-(2 ** (w - 2)) - 1, w)):
        slots = [(-1) ** i * 2 ** (v - 2) for i in range(7)]
        slots[position] = edge
        value, out = multiply_pass((pack(slots, size), size), terms)
        assert out == slot_bytes(((1 << bits - 1) + 1) * 4) and (out == size) is (bits < w), edge
        assert unpack(value, out, 7, 6) == reference_multiply_pass(slots[:6], terms)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, 5, 13, 29, 61, 100, 400]).flatmap(
        lambda bits: st.lists(st.integers(-(2**bits), 2**bits), min_size=1, max_size=40)
    ),
    st.lists(
        st.lists(st.tuples(st.integers(1, 40), st.integers(-(2**20), 2**20)), max_size=5), min_size=1, max_size=8
    ),
)
@example([-1, -1, -1], [[(2, 100)], [(1, -1)], [(2, 100)]])  # the spare slot's floor, carried twice
def test_packed_chain_matches_the_list_reference_in_sequence(g, chain):
    """One packed state through a chain of passes, the spare slot carried
    from pass to pass as the expansion does, read back after every pass."""
    size = slot_bytes(max(map(abs, g)))
    state = (pack([*g, 0], size), size)
    for terms in chain:
        state = multiply_pass(state, terms)
        g = reference_multiply_pass(g, terms)
        assert unpack(*state, len(g) + 1, len(g)) == g


def test_packed_chain_crosses_every_width():
    """From 1-byte slots through 2, 4 and 8 to more than 8 bytes, exact after every pass."""
    g, terms = [1] + [0] * 39, [(1, 7), (2, -3)]
    state, sizes = (pack([*g, 0], 1), 1), [1]
    for _ in range(24):
        state = multiply_pass(state, terms)
        g = reference_multiply_pass(g, terms)
        assert unpack(*state, 41, 40) == g
        sizes.append(state[1])
    assert {1, 2, 4, 8} < set(sizes) and sizes[-1] > 8 and sizes == sorted(sizes)


def reference_expand_eta_quotient(quotient, truncation):
    """The one-quotient kernel that expand_eta_quotients replaced, kept as
    its reference: every pass of the quotient in turn, on one list."""
    e0 = quotient.leading_exponent_numerator // 24
    if e0 > truncation:
        return [0] * (truncation + 1)
    top = truncation - e0
    g = [1] + [0] * top
    for d, r in quotient.exponents:
        m = top // d
        if m == 0:
            continue
        pentagonal = [(d * k, c) for k, c in enumerate(euler_F(m).coeffs) if c and k]
        cube = [(d * k, c) for k, c in enumerate((euler_F(m) ** 3).coeffs) if c and k]
        for terms in [cube] * (abs(r) // 3) + [pentagonal] * (abs(r) % 3):
            h = list(g)
            if r > 0:
                for k, c in terms:
                    h[k:] = [a + c * b for a, b in zip(h[k:], g)]
            else:
                for n in range(1, len(h)):
                    h[n] -= sum(c * h[n - k] for k, c in terms if k <= n)
            g = h
    return [0] * e0 + g


@pytest.mark.parametrize("level", [14, 22, 26])
def test_shared_expansion_matches_reference_on_registered_families(level):
    family = registered_cusp_quotients(level)
    expected = [reference_expand_eta_quotient(q, 3000) for q in family]
    assert expand_eta_quotients(family, 3000) == expected
    assert [expand_eta_quotient(q, 3000) for q in family] == [QSeries(e, 3000) for e in expected]


# sha256 of repr(expand_eta_quotients(quotients, 3000)), taken with the
# list-in/list-out multiply pass, for the registered families and for the
# quotients of derive_formula(1, 36), whose walk-order picks carry larger
# exponents and so wider slots
SHARED_EXPANSION_3000_SHA256 = {
    14: "022aa70463913b721bd4de789f0d5ed23a73e48916a525d3eef9d9bf5a75d39b",
    22: "9c1f50a670fa566676f6d71e979cc06d6b71efd3cfc4b64d00b07def57ca2f0c",
    26: "6d5b3dcd19d4f7d7aaa714b7720c340a32b2197e6691081b7e4102818f69b25d",
    36: "dab074fba2942e7a8c7a5502bd9f337802da679f9efaf5fd6256fd2878e36e91",
}


@pytest.mark.parametrize("level", sorted(SHARED_EXPANSION_3000_SHA256))
def test_shared_expansion_is_unchanged_to_3000(level):
    if level == 36:
        quotients = [g for g, _ in derive_formula(1, 36).terms if isinstance(g, EtaQuotient)]
    else:
        quotients = registered_cusp_quotients(level)
    digest = hashlib.sha256(repr(expand_eta_quotients(quotients, 3000)).encode()).hexdigest()
    assert digest == SHARED_EXPANSION_3000_SHA256[level]


LEVEL12_DIVISORS = (1, 2, 3, 4, 6, 12)


@st.composite
def level12_quotients(draw):
    """A level-12 quotient of any weight with an integral, non-negative
    leading exponent: r_2..r_12 in [-3, 3], and r_1 = -(sum of the other
    d*r_d) mod 24, taken negative where the sum stays >= 0 (eta^24 if
    every exponent would be zero)."""
    tail = draw(st.lists(st.integers(-3, 3), min_size=5, max_size=5))
    rest = sum(d * r for d, r in zip(LEVEL12_DIVISORS[1:], tail))
    r1 = -rest % 24 - 24 if rest >= 24 else -rest % 24
    while rest + r1 < 0:
        r1 += 24
    if not (r1 or any(tail)):
        r1 = 24
    return EtaQuotient.from_dict(12, dict(zip(LEVEL12_DIVISORS, [r1, *tail])))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(level12_quotients(), min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=8)
    ),
    st.integers(1, 60),
)
@example([], 5)
@example([EtaQuotient.from_dict(12, {12: 4})], 1)  # starts at q^2, past the truncation
@example([EtaQuotient.from_dict(12, {12: 2}), EtaQuotient.from_dict(12, {1: 24})], 1)
@example([EtaQuotient.from_dict(12, {1: 2, 2: 2, 3: 2, 6: 2})] * 3, 40)
@example([EtaQuotient.from_dict(12, {1: 3, 3: 3, 6: 2}), EtaQuotient.from_dict(12, {1: 3, 2: 3, 3: 1, 12: 1})], 50)
def test_shared_expansion_matches_reference_on_level12_lists(quotients, truncation):
    # drawn from a small pool, so lists repeat quotients and share prefixes
    got = expand_eta_quotients(quotients, truncation)
    assert got == [reference_expand_eta_quotient(q, truncation) for q in quotients]
    assert [QSeries(g, truncation) for g in got] == [expand_eta_quotient(q, truncation) for q in quotients]


def walked(quotients, truncation):
    """expand_eta_quotients through the pass walk alone, whatever the kernel
    choice would pick: each quotient's product as _walk yields it, its
    divides run by _series."""
    out = [[0] * (truncation + 1) for _ in quotients]
    for i, e0, state, divide in eta_module._walk(quotients, truncation):
        out[i] = eta_module._series(state, e0, divide, truncation)
    return out


@settings(max_examples=100, deadline=None)
@given(
    st.lists(level12_quotients(), min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=8)
    ),
    st.integers(1, 60),
)
@example([EtaQuotient.from_dict(12, {12: 2}), EtaQuotient.from_dict(12, {1: 24})], 1)
@example([EtaQuotient.from_dict(12, {1: 3, 3: 3, 6: 2}), EtaQuotient.from_dict(12, {1: 3, 2: 3, 3: 1, 12: 1})], 50)
def test_pass_walk_matches_reference_on_level12_lists(quotients, truncation):
    """The pass kernel on its own, at truncations up to 60, where the kernel
    choice sends every row shorter than 16 coefficients to the recurrence."""
    assert walked(quotients, truncation) == [reference_expand_eta_quotient(q, truncation) for q in quotients]


@st.composite
def steep_quotients(draw):
    """A level-2 or level-6 quotient with exponents up to 300 in absolute
    value and an integral, non-negative leading exponent."""
    level = draw(st.sampled_from([2, 6]))
    tail = draw(st.lists(st.integers(-300, 300), min_size=len(divisors(level)) - 1, max_size=len(divisors(level)) - 1))
    rest = sum(d * r for d, r in zip(divisors(level)[1:], tail))
    r1 = draw(st.integers(-300, 300).map(lambda r: r - (r + rest) % 24))
    assume(rest + r1 >= 0 and (r1 or any(tail)))
    return EtaQuotient.from_dict(level, dict(zip(divisors(level), [r1, *tail])))


@settings(max_examples=100, deadline=None)
@given(level16_quotients() | level12_quotients() | steep_quotients(), st.integers(0, 40))
@example(EtaQuotient.from_dict(1, {1: 24}), 10)  # Delta, the tau function
@example(EtaQuotient.from_dict(2, {1: -288, 2: 144}), 40)
def test_recurrence_matches_reference(quotient, n):
    """The log-derivative recurrence on its own, fed sigma by trial
    division, against every pass of the quotient run on one list."""
    e0 = quotient.leading_exponent_numerator // 24
    got = eta_module._log_derivative(quotient, [sigma(1, k) for k in range(n + 1)], n)
    assert [0] * e0 + got == reference_expand_eta_quotient(quotient, e0 + n)


def test_recurrence_checks_each_division():
    """eta(z) with sigma(2) read as 4: 2 a_2 = b_1 a_1 + b_2 a_0 = 1 - 4 is odd."""
    with pytest.raises(ArithmeticError, match="leaves 1 mod 2 at q\\^2"):
        eta_module._log_derivative(EtaQuotient.from_dict(1, {1: 1}), [0, 1, 4, 4], 3)


def test_wide_slot_quotient_agrees_in_both_kernels():
    """eta(z)^240 / eta(2z)^120 to q^1000 takes the passes, whose slots grow
    from 16 bits to over 400; the recurrence gives the same list."""
    quotient = EtaQuotient.from_dict(2, {1: 240, 2: -120})
    expected = eta_module._log_derivative(quotient, eta_module._sigma(1000), 1000)
    assert expand_eta_quotients([quotient], 1000) == walked([quotient], 1000) == [expected]


@pytest.mark.parametrize(
    "level,exponents,truncation,recurrence",
    [
        (26, {1: 1, 2: 1, 13: 3, 26: 3}, 20, True),  # n = 15: a short row
        (26, {1: 1, 2: 1, 13: 3, 26: 3}, 21, False),  # n = 16, small exponents
        (2, {1: 24, 2: -12}, 1500, False),  # twelve phi passes, 1 ms against 37 ms
        (14, {1: 5, 2: -1, 7: 5, 14: -1}, 290, False),
        (2, {1: 12, 2: 6}, 300, False),
        (2, {1: 240, 2: -120}, 1000, False),  # sum |r_d| isqrt(n/d) = 10080 <= 16000
        (2, {1: 660, 2: -330}, 1000, True),  # 27720 > 16000
        (2, {1: 2400, 2: -1200}, 1000, True),
    ],
)
def test_kernel_choice(monkeypatch, level, exponents, truncation, recurrence):
    """Short rows and steep exponents take the recurrence; quotients of small
    exponents at mid truncations, where the passes were measured faster, keep them."""
    ran = []
    monkeypatch.setattr(eta_module, "_log_derivative", lambda f, sigma, n: ran.append("recurrence") or [0] * (n + 1))
    monkeypatch.setattr(eta_module, "_walk", lambda quotients, t: ran.extend(["passes"] * len(quotients)) or iter(()))
    expand_eta_quotients([EtaQuotient.from_dict(level, exponents)], truncation)
    assert ran == ["recurrence" if recurrence else "passes"]


def test_steep_expand_takes_the_recurrence(monkeypatch):
    """expand of eta(z)^2400 / eta(2z)^1200 to q^1000 runs no pass, and
    prints what the passes printed (sha256 of its 470442 bytes)."""

    def refuse(*args):
        raise AssertionError("a steep quotient ran a pass")

    for name in ("multiply_pass", "_divide_pass"):
        monkeypatch.setattr(eta_module, name, refuse)
    result = run_cli("--truncation", "1000", "expand", '{"level": 2, "exponents": {"1": 2400, "2": -1200}}')
    assert result.exit_code == 0 and len(result.stdout) == 470442
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "b316aee821acaf81a22667fa1df41c07e406fc6717372be1562970b45e251c1a"
    )


def test_shared_expansion_runs_each_shared_pass_once(monkeypatch):
    """Each multiply prefix that the quotients share runs once, however many
    copies of the family go through the pass walk; each cube divide runs
    once per copy. The walk is called directly, so the count does not rest
    on which quotients the kernel choice sends to the recurrence."""
    ran = []
    for name in ("multiply_pass", "_divide_pass"):
        kernel = getattr(eta_module, name)
        monkeypatch.setattr(eta_module, name, lambda *args, kernel=kernel: ran.append(1) or kernel(*args))
    for level, divides in ((26, 0), (22, 2)):
        ran.clear()
        plans = [eta_module._passes(q) for q in registered_cusp_quotients(level)]
        prefixes = {multiply[:i] for multiply, _ in plans for i in range(1, len(multiply) + 1)}
        assert sum(len(divide) for _, divide in plans) == divides
        walked(registered_cusp_quotients(level) * 2, 500)
        assert len(ran) == len(prefixes) + 2 * divides
        assert len(prefixes) < sum(len(multiply) for multiply, _ in plans)


def test_shared_expansion_validates_every_quotient():
    good = EtaQuotient.from_dict(14, {1: 5, 2: -1, 7: 5, 14: -1})
    with pytest.raises(ValueError, match="is not divisible by 24"):
        expand_eta_quotients([good, EtaQuotient.from_dict(1, {1: 1})], 10)
    with pytest.raises(ValueError, match="leading exponent -1 is negative"):
        expand_eta_quotients([EtaQuotient.from_dict(1, {1: -24}), good], 10)
    with pytest.raises(ValueError):
        expand_eta_quotients([good], 0)


def _traced_peak(quotient, truncation):
    walked([quotient], truncation)  # fill the pass-term cache first
    tracemalloc.start()
    try:
        walked([quotient], truncation)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_expansion_memory_does_not_grow_with_the_passes():
    """A quotient with 30 passes keeps no product it does not resume from,
    so its peak in the pass walk (called directly, whichever kernel the
    choice picks) stays within a few times that of a 3-pass quotient (keeping
    every intermediate product costs about 16 times)."""
    many = _traced_peak(EtaQuotient.from_dict(2, {1: 60, 2: -30}), 200)
    few = _traced_peak(EtaQuotient.from_dict(2, {1: 6, 2: -3}), 200)
    assert many < 4 * few


@pytest.mark.parametrize("level", [22, 26])
@pytest.mark.parametrize("truncation", [3, 300])
def test_weighted_sum_matches_the_lists(level, truncation):
    """sum_eta_quotients packs sum a_i quotient_i exactly, with weights
    that keep 4-byte slots and with weights that need more than 8 bytes,
    over the level-22 quotients with a cube divide too, and at a truncation
    below some quotients' e0; the spare slot is within the bound as well."""
    family = registered_cusp_quotients(level)
    lists = expand_eta_quotients(family, truncation)
    for weights in ([1 - 2 * i for i in range(len(family))], [(-3) ** (40 + i) for i in range(len(family))]):
        value, size, bound = sum_eta_quotients(family, weights, truncation)
        expected = [sum(a * g[n] for a, g in zip(weights, lists)) for n in range(truncation + 1)]
        slots = unpack(value, size, truncation + 2, truncation + 2)
        assert slots[:-1] == expected
        assert max(map(abs, slots)) <= bound < 2 ** (8 * size - 1)
    assert sum_eta_quotients([], [], truncation) == (0, 1, 0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(level16_quotients() | level12_quotients(), min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(
            st.tuples(st.sampled_from(pool), (st.integers(-9, 9) | st.integers(-(10**30), 10**30)).filter(bool)),
            max_size=8,
        )
    ),
    st.integers(1, 80),
)
@example([(EtaQuotient.from_dict(20, {2: -3, 4: 3, 10: 7, 20: 1}), 5)], 60)  # one quotient, its own divides
# the second starts at q^7, past the truncation
@example([(EtaQuotient.from_dict(16, {1: -4, 2: -2, 8: 1}), 3), (EtaQuotient.from_dict(16, {2: -12, 16: 12}), 10**30)], 6)
def test_common_denominator_sum_matches_the_per_quotient_sum(terms, truncation):
    """sum_eta_quotients over one common denominator against the per-quotient
    sum it replaced, on lists that share and lack divides, with quotients
    past the truncation too; the spare slot is within the bound as well.
    Weights are nonzero, as _scaled_values passes only live terms."""
    quotients, weights = [q for q, _ in terms], [w for _, w in terms]
    value, size, bound = sum_eta_quotients(quotients, weights, truncation)
    expected, width, _ = reference_sum_eta_quotients(quotients, weights, truncation)
    slots = unpack(value, size, truncation + 2, truncation + 2)
    assert slots[:-1] == unpack(expected, width, truncation + 2, truncation + 1)
    assert max(map(abs, slots)) <= bound < 2 ** (8 * size - 1)


def test_cusp_sum_divides_once_per_factor_of_the_union(monkeypatch):
    """The 15 live quotients of the (1,36) formula have 35 cube divides, at
    d = 4, 6, 12 and 36 and at most one of each; their weighted sum runs
    those four divides once each, and equals the per-quotient sum."""
    formula = derive_formula(1, 36)
    live = [(g, c.numerator) for g, c in formula.terms if c and isinstance(g, EtaQuotient)]
    quotients, weights = [g for g, _ in live], [a for _, a in live]
    assert sum(len(eta_module._passes(q)[1]) for q in quotients) == 35
    divided = []
    divide = eta_module._divide_pass
    monkeypatch.setattr(eta_module, "_divide_pass", lambda g, terms: divided.append(terms[0][0]) or divide(g, terms))
    value, size, _ = sum_eta_quotients(quotients, weights, 300)
    assert sorted(divided) == [4, 6, 12, 36]
    expected, width, _ = reference_sum_eta_quotients(quotients, weights, 300)
    assert unpack(value, size, 302, 301) == unpack(expected, width, 302, 301)


def test_cusp_sum_multiplies_only_the_divided_products(monkeypatch):
    """Of the seven live quotients of the (1,22) formula, two have one cube
    divide at d = 2 and five have none. Only products with a divide take
    the union's divides that they lack as cube passes, so the sum runs the
    walk's multiply passes and no more, and equals the per-quotient sum."""
    formula = derive_formula(1, 22)
    live = [(g, c.numerator) for g, c in formula.terms if c and isinstance(g, EtaQuotient)]
    quotients, weights = [g for g, _ in live], [a for _, a in live]
    plans = [eta_module._passes(q)[1] for q in quotients]
    union = Counter()
    for divide in plans:
        union |= Counter(divide)
    lacking = [sum((union - Counter(divide)).values()) for divide in plans]
    lacked = sum(n for n, divide in zip(lacking, plans) if divide)
    assert (lacked, sum(lacking)) == (0, 5)
    ran = []
    kernel = eta_module.multiply_pass
    monkeypatch.setattr(eta_module, "multiply_pass", lambda *args: ran.append(args[1]) or kernel(*args))
    walked(quotients, 200)
    walk_passes = len(ran)
    value, size, _ = sum_eta_quotients(quotients, weights, 200)
    assert len(ran) == 2 * walk_passes + lacked
    expected, width, _ = reference_sum_eta_quotients(quotients, weights, 200)
    assert unpack(value, size, 202, 201) == unpack(expected, width, 202, 201)
