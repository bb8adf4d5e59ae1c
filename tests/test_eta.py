import tracemalloc
from fractions import Fraction
from itertools import product
from math import gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import divconv.eta as eta_module
from divconv.arith import divisors
from divconv.eta import (
    AdmissibilityReport,
    EtaQuotient,
    _inverse,
    check_admissibility,
    euler_F,
    expand_eta_quotient,
    expand_eta_quotients,
    jacobi_cube_terms,
    search_eta_quotients,
)
from divconv.modforms import REGISTERED_CUSP_EXPONENTS, registered_cusp_quotients
from divconv.qseries import QSeries
from reference import reference_multiply_pass


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
    t = 60
    assert euler_F(t).coeffs == naive_euler_product(t)


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
    assert q.weight == 4


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


def test_jacobi_cube_terms_equal_cubed_euler_F():
    for t in range(1, 201):
        dense = [1] + [0] * t
        for n, c in jacobi_cube_terms(t):
            dense[n] = c
        assert dense == (euler_F(t) ** 3).coeffs


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


@st.composite
def even_level_quotients(draw):
    level = draw(st.sampled_from([2, 4, 8, 12, 16, 20, 24, 36]))
    exponents = draw(st.lists(st.integers(-9, 9), min_size=len(divisors(level)), max_size=len(divisors(level))))
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
    evaluation range, the plan's divide passes have no more terms than
    those of the plan without theta factors, and the theta passes only
    multiply."""
    plan = eta_module._passes(quotient)
    assert divide_terms(plan, 10**4) <= divide_terms(reference_passes(quotient), 10**4)
    assert all(multiply for _, kind, multiply in plan if kind in ("psi", "phi"))


@pytest.mark.parametrize("level,divides", [(14, 0), (22, 2), (26, 0)])
def test_registered_families_keep_few_divide_passes(level, divides):
    plans = [eta_module._passes(q) for q in registered_cusp_quotients(level)]
    assert sum(not multiply for plan in plans for _, _, multiply in plan) == divides


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
    assert eta_module._multiply_pass(g, terms) == reference_multiply_pass(g, terms)


@pytest.mark.parametrize("bits", [7, 8, 15, 16, 31, 32, 63, 64, 65, 200])
@pytest.mark.parametrize("sign", [1, -1])
def test_multiply_pass_reaches_its_slot_bound(bits, sign):
    """The slot bound (max|g| + 1) * (1 + sum |c|) has exactly `bits` bits
    and the last coefficient comes within 2 of it: 7, 15, 31 and 63 bits
    fill 8-, 16-, 32- and 64-bit slots to their edge, one bit more takes
    the next width, and 64 bits and up take slots wider than 64 bits."""
    m = 2 ** (bits - 1) - 2
    g, terms = [sign * m] * 5, [(4, 1)]
    out = eta_module._multiply_pass(g, terms)
    assert out == reference_multiply_pass(g, terms)
    assert out[-1] == sign * 2 * m and (2 * (m + 1)).bit_length() == bits
    alternating = [(-1) ** i * m for i in range(5)]
    assert eta_module._multiply_pass(alternating, terms) == reference_multiply_pass(alternating, terms)


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
        cube = [(d * k, c) for k, c in jacobi_cube_terms(m)]
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


def test_shared_expansion_runs_each_shared_pass_once(monkeypatch):
    ran = []
    for name in ("_multiply_pass", "_divide_pass"):
        kernel = getattr(eta_module, name)
        monkeypatch.setattr(eta_module, name, lambda g, terms, kernel=kernel: ran.append(1) or kernel(g, terms))
    family = registered_cusp_quotients(26)
    prefixes = {tuple(eta_module._passes(q)[:i]) for q in family for i in range(1, len(eta_module._passes(q)) + 1)}
    expand_eta_quotients(family + family, 500)
    assert len(ran) == len(prefixes) < sum(len(eta_module._passes(q)) for q in family)


def test_shared_expansion_validates_every_quotient():
    good = EtaQuotient.from_dict(14, {1: 5, 2: -1, 7: 5, 14: -1})
    with pytest.raises(ValueError, match="is not divisible by 24"):
        expand_eta_quotients([good, EtaQuotient.from_dict(1, {1: 1})], 10)
    with pytest.raises(ValueError, match="leading exponent -1 is negative"):
        expand_eta_quotients([EtaQuotient.from_dict(1, {1: -24}), good], 10)
    with pytest.raises(ValueError):
        expand_eta_quotients([good], 0)


def _traced_peak(quotient, truncation):
    expand_eta_quotient(quotient, truncation)  # fill the pass-term cache first
    tracemalloc.start()
    try:
        expand_eta_quotient(quotient, truncation)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_expansion_memory_does_not_grow_with_the_passes():
    """A quotient with 30 passes keeps no product it does not resume from,
    so its peak stays within a few times that of a 3-pass quotient (keeping
    every intermediate product costs about 16 times)."""
    many = _traced_peak(EtaQuotient.from_dict(2, {1: 60, 2: -30}), 200)
    few = _traced_peak(EtaQuotient.from_dict(2, {1: 6, 2: -3}), 200)
    assert many < 4 * few
