import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divconv.arith as arith_module
import divconv.eta as eta_module
from divconv.arith import (
    divisors,
    euler_phi,
    insert_row,
    multiply_pass,
    pack,
    prime_factorization,
    rational_from_str,
    rational_to_str,
    reduce_row,
    series_product,
    sigma,
    sigma_sieve,
    sigma_table,
    slot_bits,
    slot_bytes,
    unpack,
    widen,
)
from reference import (
    reference_insert_row,
    reference_multiply_pass,
    reference_pack,
    reference_packed_multiply_pass,
    reference_reduce_row,
    sigma_at,
)


@pytest.mark.parametrize(
    "k,n,expected",
    [
        (3, 2, 9),
        (3, 14, 3096),
        (1, 1, 1),
        (3, 0, 0),
        (1, -5, 0),
        (1, 6, 12),
        (0, 12, 6),
    ],
)
def test_sigma_values(k, n, expected):
    assert sigma(k, n) == expected


@pytest.mark.parametrize(
    "k,n,delta,expected",
    [
        (3, 14, 7, 9),
        (1, 5, 2, 0),
        (3, 26, 26, 1),
        (1, 12, 3, sigma(1, 4)),
    ],
)
def test_sigma_at(k, n, delta, expected):
    assert sigma_at(k, n, delta) == expected


def test_sigma_multiplicative_on_coprime_pairs():
    for m in range(1, 40):
        for n in range(1, 201 // m + 1):
            if math.gcd(m, n) == 1:
                for k in (1, 3):
                    assert sigma(k, m * n) == sigma(k, m) * sigma(k, n)


def test_sigma_table_matches_pointwise():
    # each n = d m is reached from its divisor pairs d <= m; at a perfect square d = m once
    for n_max in (0, 1, 2, 3, 4, 8, 9, 10, 300, 5000):
        assert sigma_table(n_max) == [sigma(1, n) for n in range(n_max + 1)], n_max


@pytest.mark.parametrize("n_max", [0, 1, 2, 5000])
def test_sigma_sieve_matches_trial_division(n_max):
    # one sieve serves every k asked for, in the order asked
    expected = [[sigma(k, n) for n in range(n_max + 1)] for k in range(4)]
    assert sigma_sieve((0, 1, 2, 3), n_max) == expected
    assert sigma_sieve((3, 1), n_max) == [expected[3], expected[1]]
    assert sigma_sieve((), n_max) == []


def test_sigma_sieve_rejects_negative_arguments():
    with pytest.raises(ValueError):
        sigma_sieve((1, -1), 10)
    with pytest.raises(ValueError):
        sigma_sieve((1,), -1)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(14) == [1, 2, 7, 14]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    with pytest.raises(ValueError):
        divisors(0)


def test_prime_factorization_and_phi():
    assert prime_factorization(1) == {}
    assert prime_factorization(360) == {2: 3, 3: 2, 5: 1}
    assert euler_phi(1) == 1
    assert euler_phi(22) == 10


rationals = st.fractions(
    min_value=-(2**256), max_value=2**256, max_denominator=2**256
)


@given(rationals, rationals, rationals)
def test_rational_field_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(rationals)
def test_rational_stored_reduced(a):
    assert math.gcd(abs(a.numerator), a.denominator) == 1
    assert a.denominator > 0


@given(rationals)
def test_rational_serialization_round_trip(a):
    assert rational_from_str(rational_to_str(a)) == a


def test_rational_string_has_explicit_denominator():
    assert rational_to_str(Fraction(25)) == "25/1"
    assert rational_to_str(25) == "25/1"
    assert rational_to_str(Fraction(-672, 25)) == "-672/25"
    for text in ("25", "1/0", "0/0"):
        with pytest.raises(ValueError):
            rational_from_str(text)


def naive_product(x, y, n_max, a=1, b=1):
    """The q^0..q^n_max coefficients of x(q^a) y(q^b), term by term."""
    out = [0] * (n_max + 1)
    for i, u in enumerate(x):
        for j, v in enumerate(y):
            if a * i + b * j <= n_max:
                out[a * i + b * j] += u * v
    return out


def alternating(top, n):
    """[top, -top, top, ...] of length n."""
    return [(-1) ** i * top for i in range(n)]


series = st.lists(st.integers(min_value=-(2**200), max_value=2**200), max_size=40)


@given(series, series, st.integers(min_value=0, max_value=60))
def test_series_product_matches_double_loop(x, y, n_max):
    # n_max ranges below and above the input lengths, and entries up to
    # 2^200 in absolute value need slots of up to 51 bytes
    assert series_product(x, 1, y, 1, n_max) == naive_product(x, y, n_max)


@given(
    series,
    series,
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=0, max_value=120),
)
@example([1] * 40, [1] * 40, 4, 6, 120)  # common factor 2
@example([2**200] * 40, [3] * 40, 9, 15, 120)  # common factor 3, a' b' = 15
@example([1] * 40, [1] * 40, 13, 14, 120)  # a b > n_max: 182 classes, most past q^120
@example([5, 0, 7], [1, 2], 15, 15, 0)
def test_series_product_at_q_a_and_q_b_matches_double_loop(x, y, a, b, n_max):
    assert series_product(x, a, y, b, n_max) == naive_product(x, y, n_max, a, b)


@given(series, st.integers(min_value=1, max_value=15), st.integers(min_value=0, max_value=120))
@example(alternating(2**63 - 1, 40), 1, 60)  # alternating signs at the 8-byte slot edge
@example([-(2**200)] * 40, 3, 120)
def test_series_product_square_matches_two_pack_path(x, a, n_max):
    # x passed twice squares one packed int; a copy of x packs both factors
    square = series_product(x, a, x, a, n_max)
    assert square == series_product(x, a, list(x), a, n_max) == naive_product(x, x, n_max, a, a)


@pytest.mark.parametrize("bits", [1, 7, 8, 63, 64, 200])
def test_series_product_reaches_its_slot_bound(bits):
    # all-maximal inputs attain max(x) * max(y) * min(len) at the middle
    # coefficient, the largest a slot must hold
    top = 2**bits - 1
    x, y = [top] * 9, [top] * 5
    product = series_product(x, 1, y, 1, 20)
    assert product == naive_product(x, y, 20)
    assert max(product) == top * top * 5
    # the same bound with signs: all -top against +top, and alternating
    # signs, whose q^k coefficient has sign (-1)^k and no cancellation
    product = series_product([-top] * 9, 1, y, 1, 20)
    assert product == naive_product([-top] * 9, y, 20)
    assert min(product) == -top * top * 5
    x, y = alternating(top, 9), alternating(top, 5)
    product = series_product(x, 1, y, 1, 20)
    assert product == naive_product(x, y, 20)
    assert max(product) == top * top * 5 == -min(product)


@pytest.mark.parametrize("size", [1, 2, 4, 8, 9])
def test_series_product_fills_each_slot_width_to_its_sign_edge(size):
    # top is the largest value whose bound 5 top^2 still fits a signed slot
    # of size bytes, and both signs of the bound are reached
    edge = 2 ** (8 * size - 1) - 1
    top = math.isqrt(edge // 5)
    assert slot_bytes(5 * top * top) == size < slot_bytes(5 * (top + 1) ** 2)
    for x, y in ([-top] * 9, [top] * 5), (alternating(top, 9), alternating(top, 5)):
        product = series_product(x, 1, y, 1, 20)
        assert product == naive_product(x, y, 20)
        assert min(product) == -5 * top * top
    assert max(product) == 5 * top * top


@pytest.mark.parametrize("bits", [1, 7, 8, 63, 64, 200])
@pytest.mark.parametrize("a,b", [(2, 3), (4, 6)])
def test_series_product_at_q_a_and_q_b_reaches_its_class_bound(a, b, bits):
    # with a' = 2 and b' = 3 the classes of x are x[r::3], three terms each,
    # and those of y are y[s::2], three and two terms; the class products
    # x[r::3] y[0::2] attain top^2 * 3, at q^12 for (2, 3) and q^24 for (4, 6)
    top = 2**bits - 1
    x, y = [top] * 9, [top] * 5
    product = series_product(x, a, y, b, 60)
    assert product == naive_product(x, y, 60, a, b)
    assert max(product) == top * top * 3 == product[12 * (a // 2)]
    product = series_product([-top] * 9, a, y, b, 60)
    assert product == naive_product([-top] * 9, y, 60, a, b)
    assert min(product) == -top * top * 3 == product[12 * (a // 2)]
    x, y = alternating(top, 9), alternating(top, 5)
    assert series_product(x, a, y, b, 60) == naive_product(x, y, 60, a, b)


def packing_sizes(monkeypatch) -> list[int]:
    """The slot widths that arith.pack is called with, recorded as it packs."""
    sizes = []
    monkeypatch.setattr(arith_module, "pack", lambda series, size, pack=pack: sizes.append(size) or pack(series, size))
    return sizes


# four squares that sum to 2^(8 size - 1) - 1, the largest |coefficient| a
# slot of size bytes holds
FOUR_SQUARES_AT_THE_EDGE = {
    1: [11, 2, 1, 1],
    2: [181, 2, 1, 1],
    4: [46339, 425, 10, 1],
    8: [3037000499, 76994, 671, 23],
}


@pytest.mark.parametrize("size", [1, 2, 4, 8])
@pytest.mark.parametrize("past", [0, 1], ids=["below", "above"])
def test_series_product_is_exact_at_the_cauchy_schwarz_bound(monkeypatch, size, past):
    """Two families attain the bound isqrt(sum x^2 sum y^2) at a
    coefficient: x = y = [M] * 3, at q^2, 3 M^2, which is also max|x|
    max|y| min(len), and v against v reversed, at the middle, sum v^2,
    below that product bound when v is not constant. Each is taken just
    below a slot-width step and just above it: v sums to the slot's largest
    value 2^(w-1) - 1, or to 2^(w-1) itself. The product packs at the
    width of its largest coefficient and is exact with either sign, as a
    square and as two factors."""
    edge = 2 ** (8 * size - 1) - 1
    v = FOUR_SQUARES_AT_THE_EDGE[size] if not past else [2 ** (4 * size - 1)] * 2 + [0]
    assert sum(c * c for c in v) == edge + past
    m = math.isqrt(edge // 3) + past
    sizes = packing_sizes(monkeypatch)
    same, signed = [m] * 3, [(-1) ** i * c for i, c in enumerate(v)]
    for x, y, top in (
        (same, same, 3 * m * m),
        ([m] * 3, [-m] * 3, 3 * m * m),
        (alternating(m, 3), alternating(m, 3), 3 * m * m),
        (v, v[::-1], edge + past),
        (v, [-c for c in reversed(v)], edge + past),
        (signed, signed[::-1], edge + past),
    ):
        sizes.clear()
        product = series_product(x, 1, y, 1, 8)
        assert product == naive_product(x, y, 8)
        assert max(map(abs, product)) == top
        # pack past 8 bytes may pack narrower first and widen, so the outer call is the widest
        assert max(sizes) == slot_bytes(top) and (slot_bytes(top) == size) is not past, (x, y, sizes)


def test_series_product_small_cases():
    assert series_product([1, 1], 1, [1, 1], 1, 4) == [1, 2, 1, 0, 0]
    assert series_product([1, 1], 1, [1, 1], 1, 1) == [1, 2]
    assert series_product([], 1, [3], 1, 2) == [0, 0, 0]
    assert series_product([0, 0], 1, [5, 5], 1, 0) == [0]


@given(series, st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=2**200))
def test_series_product_multiplies_a_negative_coefficient(x, position, size):
    signed = x[:position] + [-size] + x[position:]
    for other in [1], [-1, 2]:
        assert series_product(signed, 1, other, 1, 60) == naive_product(signed, other, 60)
        assert series_product(other, 1, signed, 1, 60) == naive_product(other, signed, 60)


def test_series_product_rejects_negative_n_max():
    with pytest.raises(ValueError):
        series_product([1], 1, [1], 1, -1)


@pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (-2, 3)])
def test_series_product_rejects_a_or_b_below_1(a, b):
    with pytest.raises(ValueError):
        series_product([1], a, [1], b, 10)


def test_series_product_reads_a_negative_coefficient_up_to_q_n_max():
    # x[3] lands on q^6 at a = 2: past q^5 it is never multiplied
    assert series_product([1, 1, 1, -1], 2, [1], 1, 5) == [1, 0, 1, 0, 1, 0]
    assert series_product([1, 1, 1, -1], 2, [1], 1, 6) == [1, 0, 1, 0, 1, 0, -1]
    assert series_product([1, 1, 1, -1], 2, [1, -2], 3, 6) == [1, 0, 1, -2, 1, -2, -1]


@pytest.mark.parametrize("size", [1, 2, 3, 4, 8, 9, 16])
def test_pack_unpack_round_trip_at_the_sign_edge(size):
    # 1, 2, 4 and 8 bytes go through struct, 3 through struct at 4 bytes, 9 and 16 int by int
    edge = 2 ** (8 * size - 1) - 1
    s = [0, edge, -edge, 0, -edge, -edge, edge, edge, 0]
    packed = pack(s, size)
    assert packed == sum(c << 8 * size * (len(s) - 1 - i) for i, c in enumerate(s))  # q^0 in the top slot
    assert unpack(packed, size, len(s), len(s)) == s
    assert unpack(packed, size, len(s), 4) == s[:4]


@pytest.mark.parametrize("size", [9, 12, 16])
def test_pack_past_8_bytes_matches_the_per_slot_path(size):
    # below 2^63 pack writes at the struct width that holds max|series| and
    # widens; from 2^63 up no struct width does, and it writes slot by slot
    for most in (0, 1, 127, 128, 2**31, 2**63 - 1, 2**63, 2**64, 2 ** (8 * size - 1) - 1):
        for series in ([most, -most, 0, -most, 3], [-most] * 5, [0, 0, most, 0], [-1, 2, most]):
            assert pack(series, size) == reference_pack(series, size), (most, series)
    assert pack([], size) == reference_pack([], size) == 0


@pytest.mark.parametrize("bits,size", [(7, 1), (8, 2), (15, 2), (16, 3), (31, 4), (32, 5), (63, 8), (64, 9)])
def test_slot_bytes_keeps_a_sign_bit(bits, size):
    # every bound of that bit length takes the same width, and fits it with either sign
    assert slot_bytes(2 ** (bits - 1)) == slot_bytes(2**bits - 1) == size
    bound = 2**bits - 1
    assert unpack(pack([bound, -bound], size), size, 2, 2) == [bound, -bound]
    assert slot_bytes(0) == 1


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda size: st.tuples(
            st.just(size),
            st.lists(
                st.sampled_from([-(2 ** (8 * size - 1)), 2 ** (8 * size - 1) - 1, 0])
                | st.integers(-(2 ** (8 * size - 1)), 2 ** (8 * size - 1) - 1),
                min_size=1,
                max_size=30,
            ),
            st.integers(size, 10),
        )
    )
)
@example((3, [-(2**23), 2**23 - 1, 0], 3))  # both sign edges and 0 at a width with no struct code
@example((5, [0, -1, 2**39 - 1, -(2**39)], 9))
def test_codec_round_trips_at_every_width(case):
    """pack, unpack, widen and slot_bits at every slot width from 1 to 9
    bytes, struct widths or not, the slots at either sign edge of the width
    and at 0 included: the packed int is the sum of the slots, unpack reads
    them all back or a prefix, widen matches packing at any wider width, and
    slot_bits is the least bit count that holds them."""
    size, series, wide = case
    packed = pack(series, size)
    assert packed == sum(c << 8 * size * (len(series) - 1 - i) for i, c in enumerate(series))
    assert unpack(packed, size, len(series), len(series)) == series
    assert unpack(packed, size, len(series), len(series) // 2) == series[: len(series) // 2]
    assert widen(packed, size, wide) == pack(series, wide)
    assert unpack(widen(packed, size, wide), wide, len(series), len(series)) == series
    assert slot_bits(packed, size) == max(1, *((c if c >= 0 else ~c).bit_length() + 1 for c in series))


@pytest.mark.parametrize("size", [1, 2, 4, 8, 9])
@pytest.mark.parametrize("position", [0, 4, 8], ids=["top", "middle", "bottom"])
def test_slot_bits_is_exact_at_each_edge(size, position):
    """A slot at exactly -2^(v-1) or 2^(v-1) - 1 takes v bits; one past
    either takes v + 1, in the top, a middle or the bottom slot, with the
    other slots at their own extremes of v - 1 bits."""
    w = 8 * size
    for v in sorted({1, 2, 3, w // 2, w - 1}):
        low, high = -(2 ** (v - 1)), 2 ** (v - 1) - 1
        for edge, need in ((low, v), (high, v), (low - 1, v + 1), (high + 1, v + 1)):
            series = [(-1) ** i * (2 ** (v - 2) if v > 1 else 0) for i in range(9)]
            series[position] = edge
            value = pack(series, size)
            assert slot_bits(value, size) == need, (v, edge)
            assert need == max(1, *((c if c >= 0 else ~c).bit_length() + 1 for c in series))
    assert slot_bits(pack([0, 2 ** (w - 1) - 1, 0], size), size) == w  # the whole slot
    assert slot_bits(0, size) == 1


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 4, 8, 9, 16]).flatmap(
        lambda size: st.tuples(
            st.just(size),
            st.lists(st.integers(-(2 ** (8 * size - 1)), 2 ** (8 * size - 1) - 1), min_size=1, max_size=40),
            st.sampled_from([1, 2, 4, 8, 9, 16, 40]).filter(lambda wide: wide >= size),
        )
    )
)
@example((1, [-128, 127, -128, 0], 2))  # both sign edges, and a zero slot
@example((8, [0, 0, -1], 9))  # leading zero slots
def test_widen_matches_packing_at_the_wider_size(case):
    size, series, wide = case
    assert widen(pack(series, size), size, wide) == pack(series, wide)


coefficients = st.one_of(st.sampled_from([1, -1, 2, -2]), st.integers(-(2**20), 2**20))
# runs of terms that share a coefficient, drawn run by run
term_runs = st.lists(st.tuples(coefficients, st.lists(st.integers(1, 40), min_size=1, max_size=6)), max_size=6).map(
    lambda runs: [(k, c) for c, ks in runs for k in ks]
)
digits = [3, -1, 4, 1, -5, 9, -2, 6] * 5


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([1, 5, 13, 29, 61, 100, 400]).flatmap(
        lambda bits: st.lists(st.integers(-(2**bits), 2**bits), min_size=1, max_size=40)
    ),
    term_runs,
)
@example([1] + [0] * 40, [(m * m, 2) for m in range(1, 7)])  # a theta pass: one run of 2
@example(digits, list(eta_module._pass_terms(1, "phi", 40)))  # a run of -2, then one of 2
@example(digits, list(eta_module._pass_terms(1, "cube", 40)))  # distinct coefficients, runs of one
@example(digits, list(eta_module._pass_terms(1, "pentagonal", 40)))  # +-1 alone
@example([5, -7, 2], [(1, 2), (2, 1), (1, 2), (2, -2), (1, 0), (1, -2)])  # +-1 and 0 inside runs
def test_multiply_pass_matches_one_step_per_term(g, terms):
    """The same (value, size, bound), bit for bit, as the pass that scales
    and adds every term on its own, in order, and the list loop's product,
    whether the state carries g's own bound or only its width's."""
    size = slot_bytes(max(map(abs, g)))
    for bound in max(map(abs, g)), 1 << 8 * size - 1:
        state = (pack([*g, 0], size), size, bound)
        value, wide, most = multiply_pass(state, terms)
        assert (value, wide, most) == reference_packed_multiply_pass(state, terms)
        assert unpack(value, wide, len(g) + 1, len(g)) == reference_multiply_pass(g, terms)


@pytest.mark.parametrize("size", [1, 2, 4, 8, 9])
def test_multiply_pass_widens_a_run_as_one_step_per_term_does(size):
    """g at the top of its slots and a run of 2s whose sum cannot fit: both
    passes widen to the same slots and return the same int."""
    top = 2 ** (8 * size - 1) - 1
    g, terms = alternating(top, 12), [(k, 2) for k in range(1, 12)]
    state = (pack([*g, 0], size), size, top)
    value, wide, most = multiply_pass(state, terms)
    assert wide > size and (value, wide, most) == reference_packed_multiply_pass(state, terms)
    assert unpack(value, wide, 13, 12) == reference_multiply_pass(g, terms)


def cleared(row: list) -> tuple[list[int], int]:
    """The integer row den * row, with den the lcm of the entries' denominators."""
    den = math.lcm(*(Fraction(x).denominator for x in row))
    return [int(x * den) for x in row], den


entries = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))


@st.composite
def elimination_cases(draw):
    """Rows of width + tag entries, integer or rational, with few distinct
    values so that many are dependent, and one row to reduce."""
    width, tag = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    row = st.lists(entries, min_size=width + tag, max_size=width + tag)
    return width, draw(st.lists(row, max_size=8)), draw(row)


@settings(max_examples=300, deadline=None)
@given(elimination_cases())
@example((2, [[2, 4, 1, 0], [1, 2, 0, 1]], [3, 6, 0, 0]))  # dependent rows: tag records the combination
@example((2, [[Fraction(1, 3), -2], [0, Fraction(-4, 3)]], [1, 1]))  # rational rows, negative pivot
def test_integer_elimination_matches_the_rational_oracle(case):
    """Echelons built from the same rows, cleared of denominators for
    insert_row, keep the same rows on the same pivots, each stored row a
    primitive multiple of the oracle's with a positive pivot, and
    reduce_row's R / m is the oracle's reduced row entry by entry."""
    width, rows, target = case
    echelon, oracle = [], []
    for row in rows:
        kept = insert_row(echelon, cleared(row)[0], width)
        assert kept == reference_insert_row(oracle, row, width)
    assert [p for _, p in echelon] == [p for _, p in oracle]
    for (erow, p), (orow, _) in zip(echelon, oracle):
        assert all(type(x) is int for x in erow) and erow[p] > 0 and math.gcd(*erow) == 1
        assert all(x * orow[p] == y * erow[p] for x, y in zip(erow, orow))
    scaled, den = cleared(target)
    rest, m = reduce_row(echelon, scaled)
    assert all(type(x) is int for x in rest) and type(m) is int and m > 0
    assert [Fraction(x, m * den) for x in rest] == reference_reduce_row(oracle, target)
