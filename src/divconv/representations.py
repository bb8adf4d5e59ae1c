"""Representation numbers: sums of four squares and the octonary forms
a(x1^2+..+x4^2) + b(x5^2+..+x8^2), with independent lattice-count oracles."""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .arith import sigma, sigma_at
from .convolution import brute_force_W

#: direct 4-square lattice counts are only sensible at desk scale
R4_LATTICE_BOUND = 200

#: the 8-dimensional enumeration is a belt-and-suspenders oracle only
OCTONARY_LATTICE_BOUND = 10

SUPPORTED_PAIRS = ((1, 1), (1, 3), (2, 3), (1, 9))


class BoundExceeded(ValueError):
    """Lattice enumeration requested beyond its configured bound."""


class UnsupportedPair(ValueError):
    """No closed formula is implemented for this (a, b)."""


@lru_cache(maxsize=None)
def r4(n: int) -> int:
    """Number of ways to write n as a sum of four integer squares:
    1 for n = 0, else 8 sigma(n) - 32 sigma(n/4).

    Memoised, because octonary_convolution asks for the same r4(l) at every
    n >= l. Trial-division sigma is kept on purpose: this oracle shares no
    sieve with brute_force_W and octonary_formula."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1
    return 8 * sigma(1, n) - 32 * sigma_at(1, n, 4)


def r4_lattice(n: int, bound: int = R4_LATTICE_BOUND) -> int:
    """Count (x1..x4) in Z^4 with sum of squares n, by pruned enumeration."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > bound:
        raise BoundExceeded(f"n = {n} exceeds lattice bound {bound}")
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


def octonary_lattice(a: int, b: int, n: int, bound: int = OCTONARY_LATTICE_BOUND) -> int:
    """Direct count over Z^8 of a*(sum of first four squares) + b*(sum of
    last four squares) = n. Exponential in dimension; tiny n only."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > bound:
        raise BoundExceeded(f"n = {n} exceeds lattice bound {bound}")
    count = 0
    for first in range(0, n // a + 1):
        rest = n - a * first
        if rest % b == 0:
            count += r4_lattice(first, bound=bound) * r4_lattice(rest // b, bound=bound)
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


def _w_at(alpha: int, beta: int, n: int, d: int = 1) -> int:
    """W(alpha,beta)(n/d) with the zero convention for d not dividing n."""
    if n % d:
        return 0
    m = n // d
    return brute_force_W(alpha, beta, m) if m >= 1 else 0


def octonary_formula(a: int, b: int, n: int) -> int:
    """Closed formula for the octonary count, with every convolution sum it
    consumes computed by the brute-force oracle.

    Substituting r4(m) = 8 sigma(m) - 32 sigma(m/4) (m >= 1) into
    octonary_convolution gives, for n >= 1,

        8 sigma(n/a) - 32 sigma(n/4a) + 8 sigma(n/b) - 32 sigma(n/4b)
        + 64 W(a,b)(n) + 1024 W(a,b)(n/4) - 256 [W(4a,b)(n) + W(a,4b)(n)]

    with sigma and W zero at non-integer arguments. So (2, 3) needs W(2,3),
    W(3,8) and W(2,12), not the W(1,3)/W(1,12) of the (1, 3) case.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if (a, b) not in SUPPORTED_PAIRS:
        raise UnsupportedPair(f"no formula for (a, b) = ({a}, {b})")
    return (
        8 * (sigma_at(1, n, a) + sigma_at(1, n, b))
        - 32 * (sigma_at(1, n, 4 * a) + sigma_at(1, n, 4 * b))
        + 64 * _w_at(a, b, n)
        + 1024 * _w_at(a, b, n, 4)
        - 256 * (_w_at(4 * a, b, n) + _w_at(a, 4 * b, n))
    )


def octonary_1_1_closed_form(n: int) -> int:
    """The purely multiplicative form of the (1,1) count:
    16 sigma3(n) - 32 sigma3(n/2) + 256 sigma3(n/4)."""
    if n < 1:
        raise ValueError("n must be positive")
    return 16 * sigma(3, n) - 32 * sigma_at(3, n, 2) + 256 * sigma_at(3, n, 4)
