"""Exact integer and rational arithmetic, divisor-sum functions, the exact
product x(q^a) y(q^b) of two non-negative integer series (series_product,
one big-int multiplication per residue class; spread substitutes q -> q^t),
and the package's only exact elimination (reduce_row, insert_row), which
picks independent rows, solves systems and inverts matrices.

Elimination runs on integer rows: an echelon row is a primitive list of
ints, and a reduced row is a list of ints with one positive scale, so no
rational appears until a caller reads off its answer. Rational values
elsewhere are ``fractions.Fraction`` instances (always stored reduced,
denominator positive), serialized as ``"num/den"``. Integer-valued
coefficients may be carried as plain ``int`` for speed; the two mix freely
in arithmetic and compare equal where expected.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, isqrt, lcm

#: Ceiling on the CLI's --truncation, --nmax and --level, and on any level
#: before trial division factors it.
MAX_TRUNCATION = 1_000_000


def rational_to_str(x: Fraction | int) -> str:
    """Serialize an exact rational as "num/den" in lowest terms ("25/1" style)."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def rational_from_str(s: str) -> Fraction:
    num, sep, den = s.partition("/")
    if not sep or int(den) == 0:
        raise ValueError(f"expected 'num/den' with den != 0, got {s!r}")
    return Fraction(int(num), int(den))


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1, by trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def prime_factorization(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {p: exponent}."""
    if n < 1:
        raise ValueError(f"prime_factorization requires n >= 1, got {n}")
    fac: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


def euler_phi(n: int) -> int:
    phi = n
    for p in prime_factorization(n):
        phi -= phi // p
    return phi


def gamma0_index(n: int) -> int:
    """Index of Gamma_0(N) in SL_2(Z): N * prod (1 + 1/p)."""
    mu = n
    for p in prime_factorization(n):
        mu += mu // p
    return mu


def sigma(k: int, n: int) -> int:
    """Sum of k-th powers of the positive divisors of n; 0 when n <= 0.

    The zero convention for non-positive n mirrors the usual one for
    sigma of a non-integer argument (see sigma_at).
    """
    if k < 0:
        raise ValueError(f"sigma requires k >= 0, got {k}")
    if n <= 0:
        return 0
    return sum(d**k for d in divisors(n))


def sigma_at(k: int, n: int, delta: int) -> int:
    """sigma(k, n/delta) when delta | n, else 0."""
    if delta < 1:
        raise ValueError(f"sigma_at requires delta >= 1, got {delta}")
    if n % delta:
        return 0
    return sigma(k, n // delta)


@lru_cache(maxsize=16)
def sigma_table(k: int, n_max: int) -> tuple[int, ...]:
    """sigma_k(n) for n = 0..n_max as a tuple (index 0 holds 0).

    Divisor sieve, O(n_max log n_max); backs the brute-force oracles that
    need O(n) sigma lookups per evaluation.
    """
    if k < 0 or n_max < 0:
        raise ValueError("sigma_table requires k >= 0 and n_max >= 0")
    table = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        dk = d**k
        for m in range(d, n_max + 1, d):
            table[m] += dk
    return tuple(table)


def sigma_sieve(k: int, n_max: int) -> list[int]:
    """sigma_k(n) for n = 0..n_max as a list (index 0 holds 0).

    Multiplicative sieve over smallest prime factors, O(n_max log log
    n_max): with p = spf(n) and p^e the power of p in n, sigma_k(n) is
    sigma_k(n/p) + n^k when n = p^e, else sigma_k(p^e) sigma_k(n/p^e).
    It shares no code with sigma_table, so formula evaluation, which reads
    this, stays independent of the brute-force oracles, which read that.
    """
    if k < 0 or n_max < 0:
        raise ValueError("sigma_sieve requires k >= 0 and n_max >= 0")
    spf = list(range(n_max + 1))
    for p in range(2, isqrt(n_max) + 1):
        if spf[p] == p:
            for m in range(p * p, n_max + 1, p):
                if spf[m] == m:
                    spf[m] = p
    values = [0] * (n_max + 1)
    power = [1] * (n_max + 1)  # p^e, the full power of spf(n) in n
    if n_max >= 1:
        values[1] = 1
    for n in range(2, n_max + 1):
        p = spf[n]
        m = n // p
        power[n] = power[m] * p if spf[m] == p else p
        rest = n // power[n]
        values[n] = values[m] + n**k if rest == 1 else values[power[n]] * values[rest]
    return values


def spread(series, t: int, n_max: int) -> list[int]:
    """series(q^t) on q^0..q^n_max: series[i] moved to index t*i."""
    out = [0] * (n_max + 1)
    out[::t] = series[: n_max // t + 1]
    return out


def series_product(x, a: int, y, b: int, n_max: int) -> list[int]:
    """Coefficients q^0..q^n_max of x(q^a) y(q^b), for a, b >= 1 and series
    x and y with non-negative int coefficients (x[i] the coefficient of q^i).

    With g = gcd(a, b), a = g a' and b = g b', x[r + b' i] y[s + a' j] lands
    on q^(a r + b s + g a' b' (i + j)), and for r < b' and s < a' the offsets
    a r + b s meet each multiple of g mod g a' b' once. So the product is one
    dense product x[r::b'] y[s::a'] per residue class, written by slice into
    its class; a class with no term up to q^n_max is skipped. Each is one
    Kronecker substitution: both factors are packed into one int, one
    coefficient per slot of w bytes, multiplied once and read back slot by
    slot. No coefficient exceeds max(x) * max(y) * min(len(x), len(y)), and
    w is the width of that bound, so no slot carries into the next one and
    the result is exact. A negative coefficient would borrow across slots,
    so one that can reach q^n_max is refused.
    """
    if a < 1 or b < 1 or n_max < 0:
        raise ValueError(f"series_product requires a, b >= 1 and n_max >= 0, got {a}, {b}, {n_max}")
    x, y = list(x[: n_max // a + 1]), list(y[: n_max // b + 1])
    if min(x, default=0) < 0 or min(y, default=0) < 0:
        raise ValueError("series_product requires non-negative coefficients")
    out = [0] * (n_max + 1)
    bound = max(x, default=0) * max(y, default=0) * min(len(x), len(y))
    if not bound:
        return out
    w = (bound.bit_length() + 7) // 8

    def pack(series: list[int]) -> tuple[int, int]:
        packed = b"".join(map(int.to_bytes, series, repeat(w), repeat("little")))
        return int.from_bytes(packed, "little"), len(series)

    step = lcm(a, b)  # g a' b'
    a1, b1 = step // b, step // a
    y_classes = [pack(y[s::a1]) for s in range(min(a1, len(y)))]
    for r in range(min(b1, len(x))):
        px, nx = pack(x[r::b1])
        for s, (py, ny) in enumerate(y_classes):
            start = a * r + b * s
            if start > n_max:
                break
            count = (n_max - start) // step + 1
            data = (px * py).to_bytes(w * (count + nx + ny), "little")
            out[start::step] = [int.from_bytes(data[k : k + w], "little") for k in range(0, w * count, w)]
    return out


def reduce_row(echelon: list[tuple[list[int], int]], row: list[int]) -> tuple[list[int], int]:
    """(R, m), m > 0, with R / m the integer row minus the multiples of the
    (row, pivot column) pairs of the echelon that clear its entries at their
    pivots; R is zero at every pivot. Fraction-free: with a / b the ratio
    of the row's and the echelon row's entries at the pivot in lowest
    terms, b > 0 since echelon pivots are positive, the row becomes
    b row - a erow and m gains the factor b. The gcd of R and m is divided
    out once, at the end; each step multiplies the largest entry by at most
    |b| + max|erow|, erow a stored primitive row, so it gains at most the
    bits of that per step.
    Entries past the pivot range act as a tag, so one echelon picks, solves
    and inverts: with row i of A inserted tagged with e_i, each echelon row
    is (c A | c) up to scale, and a row (v | 0) reduces to (v - c A | -c),
    which is zero before the tag exactly when v = c A is in the span."""
    m = 1
    for erow, p in echelon:
        if a := row[p]:
            g = gcd(a, erow[p])
            a, b = a // g, erow[p] // g
            row = [b * x - a * y for x, y in zip(row, erow)]
            m *= b
    g = gcd(m, *row)
    return [x // g for x in row], m // g


def insert_row(echelon: list[tuple[list[int], int]], row: list[int], width: int) -> bool:
    """Reduce the integer row against the echelon; if it is nonzero in its
    first width entries, append it, made primitive with a positive entry at
    its pivot, the first nonzero one; entries past width are a tag (see
    reduce_row) and never hold a pivot."""
    row, _ = reduce_row(echelon, row)
    pivot = next((j for j in range(width) if row[j]), None)
    if pivot is None:
        return False
    g = gcd(*row) if row[pivot] > 0 else -gcd(*row)
    echelon.append(([x // g for x in row], pivot))
    return True
