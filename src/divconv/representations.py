"""Representation numbers: sums of four squares and the octonary forms
a(x1^2+..+x4^2) + b(x5^2+..+x8^2), with independent lattice-count oracles.

Both columns of a whole-range comparison are whole-range tables.
octonary_formula_table is Jacobi's r4 series R = 1 + sum r4(m) q^m, read
from the formula side's sigma_sieve, as one product R(q^a) R(q^b);
octonary_count_table is the lattice count theta(q^a)^4 theta(q^b)^4 with
theta = 1 + 2 sum q^(m^2), formed by eight sparse multiply passes on one
packed int (arith.multiply_pass), each of whose terms has the coefficient
2, so a pass sums its shifted values and adds the sum doubled once; it
reads no divisor sum and shares no product code with the formula column.
The per-n references octonary_convolution, r4 (by trial-division sigma)
and octonary_lattice stay. A pair outside SUPPORTED_PAIRS, or a lattice
count past its bound, raises ValueError."""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .arith import multiply_pass, pack, series_product, sigma, sigma_sieve, unpack

#: direct 4-square lattice counts are only sensible at desk scale
R4_LATTICE_BOUND = 200

#: the 8-dimensional enumeration is a belt-and-suspenders oracle only
OCTONARY_LATTICE_BOUND = 10

SUPPORTED_PAIRS = ((1, 1), (1, 3), (2, 3), (1, 9))


@lru_cache(maxsize=None)
def r4(n: int) -> int:
    """Number of ways to write n as a sum of four integer squares:
    1 for n = 0, else 8 sigma(n) - 32 sigma(n/4), the second term only when 4 | n.

    Memoised, because octonary_convolution asks for the same r4(l) at every
    n >= l. This is Jacobi's four-square theorem, read per n by trial
    division; it is the reference that the theta^4 series of
    octonary_count_table is checked against."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1
    return 8 * sigma(1, n) - (32 * sigma(1, n // 4) if n % 4 == 0 else 0)


def r4_lattice(n: int) -> int:
    """Count (x1..x4) in Z^4 with sum of squares n, by pruned enumeration."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > R4_LATTICE_BOUND:
        raise ValueError(f"n = {n} exceeds lattice bound {R4_LATTICE_BOUND}")
    count = 0
    for x1 in range(-isqrt(n), isqrt(n) + 1):
        r1 = n - x1 * x1
        for x2 in range(-isqrt(r1), isqrt(r1) + 1):
            r2 = r1 - x2 * x2
            for x3 in range(-isqrt(r2), isqrt(r2) + 1):
                r3 = r2 - x3 * x3
                root = isqrt(r3)
                if root * root == r3:
                    count += 1 if root == 0 else 2
    return count


def octonary_lattice(a: int, b: int, n: int) -> int:
    """Direct count over Z^8 of a*(sum of first four squares) + b*(sum of
    last four squares) = n. Exponential in dimension; tiny n only."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > OCTONARY_LATTICE_BOUND:
        raise ValueError(f"n = {n} exceeds lattice bound {OCTONARY_LATTICE_BOUND}")
    count = 0
    for first in range(0, n // a + 1):
        rest = n - a * first
        if rest % b == 0:
            count += r4_lattice(first) * r4_lattice(rest // b)
    return count


def octonary_convolution(a: int, b: int, n: int) -> int:
    """Ground-truth octonary count via the quaternary factorization:
    sum of r4(l) r4(m) over l, m >= 0 with a*l + b*m = n."""
    if a < 1 or b < 1:
        raise ValueError("a and b must be positive")
    if n < 0:
        raise ValueError("n must be non-negative")
    total = 0
    for l in range(0, n // a + 1):
        rest = n - a * l
        if rest % b == 0:
            total += r4(l) * r4(rest // b)
    return total


def octonary_count_table(a: int, b: int, n_max: int) -> list[int]:
    """octonary_convolution(a, b, n) for n = 0..n_max as the lattice count
    itself, theta(q^a)^4 theta(q^b)^4 with theta = 1 + 2 sum q^(m^2): one
    packed int, 1 to start, takes four multiply passes by theta(q^a) and four
    by theta(q^b), whose terms (t m^2, 2) are the m <= isqrt(n_max // t) that
    reach q^n_max, and is unpacked once. The terms share their coefficient,
    so each pass is one run: a shift-and-add per term into a sum, then the
    sum doubled and added. It reads no divisor sum, so it shares nothing
    with octonary_formula_table."""
    if a < 1 or b < 1:
        raise ValueError("a and b must be positive")
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    state = (pack([1] + [0] * (n_max + 1), 1), 1, 1)
    for t in (a, a, a, a, b, b, b, b):
        state = multiply_pass(state, [(t * m * m, 2) for m in range(1, isqrt(n_max // t) + 1)])
    value, size, _ = state
    return unpack(value, size, n_max + 2, n_max + 1)


def octonary_formula_table(a: int, b: int, n_max: int) -> list[int]:
    """Closed formula for the octonary count at n = 0..n_max (index 0 holds
    the count 1 of n = 0): octonary_convolution(a, b, n) is the q^n
    coefficient of R(q^a) R(q^b) for Jacobi's series R = 1 + sum r4(m) q^m,
    r4(m) = 8 sigma(m) - 32 sigma(m/4) (the second term only when 4 | m).
    R is one list to q^(n_max // min(a, b)) from sigma_sieve, and the
    product one series_product, which squares R when a == b."""
    if (a, b) not in SUPPORTED_PAIRS:
        raise ValueError(f"no formula for (a, b) = ({a}, {b})")
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    (sigma1,) = sigma_sieve((1,), n_max // min(a, b))
    series = [1] + [8 * s for s in sigma1[1:]]
    series[4::4] = [v - 32 * s for v, s in zip(series[4::4], sigma1[1:])]
    return series_product(series, a, series, b, n_max)
