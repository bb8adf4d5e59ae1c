"""Exact integer and rational arithmetic, divisor-sum functions, the
package's one signed Kronecker codec (slot_bytes, pack, unpack: every
series multiplied as one big int is packed by it; slot_bits and widen
check and widen the slots of a packed int without unpacking), the sparse
multiply pass on a packed series (multiply_pass, one shift-and-add per
term, each run of terms that share a coefficient scaled once; eta's
multiply passes and the octonary count's theta passes run on it), the
product x(q^a) y(q^b) of two integer series (series_product, one big-int
multiplication per residue class, its slots sized by the lesser of a
product bound and the Cauchy-Schwarz bound; spread substitutes q -> q^t),
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

import struct
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import mul

#: Ceiling on the CLI's --truncation, --nmax and --level, on any level
#: before trial division factors it, and on |r| for an eta exponent read from JSON.
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
    """sigma_k(n) by trial division, 0 when n <= 0; it shares no code with
    either sieve, so the per-n references that read it check both."""
    if k < 0:
        raise ValueError(f"sigma requires k >= 0, got {k}")
    if n <= 0:
        return 0
    return sum(d**k for d in divisors(n))


@lru_cache(maxsize=16)
def sigma_table(k: int, n_max: int) -> tuple[int, ...]:
    """sigma_k(n) for n = 0..n_max as a tuple (index 0 holds 0).

    Divisor-pair sieve: each n = d m with d <= m is reached once, from its
    smaller divisor d <= isqrt(n_max), which adds d^k + m^k onto the slice
    of multiples d m, m >= d, and takes d^k back once at d^2, where d = m.
    That is isqrt(n_max) slice updates; the brute-force oracle tables read
    it, and nothing on the formula side does.
    """
    if k < 0 or n_max < 0:
        raise ValueError("sigma_table requires k >= 0 and n_max >= 0")
    table = [0] * (n_max + 1)
    for d in range(1, isqrt(n_max) + 1):
        dk = d**k
        pairs = range(d + dk, n_max // d + dk + 1) if k == 1 else [dk + m**k for m in range(d, n_max // d + 1)]
        table[d * d :: d] = [t + s for t, s in zip(table[d * d :: d], pairs)]
        table[d * d] -= dk
    return tuple(table)


def sigma_sieve(ks, n_max: int) -> list[list[int]]:
    """sigma_k(n) for n = 0..n_max, one list per k in ks (index 0 holds 0).

    Multiplicative sieve over smallest prime factors, O(n_max log log
    n_max), built once for every k: with p = spf(n) and p^e the power of p
    in n, sigma_k(n) is sigma_k(n/p) + n^k when n = p^e, else sigma_k(p^e)
    sigma_k(n/p^e). It shares no code with sigma_table, so the formula side
    (derivation, evaluation and rep's r4 series) reads this, independent of
    the oracles, which read that.
    """
    if min(ks, default=0) < 0 or n_max < 0:
        raise ValueError("sigma_sieve requires every k >= 0 and n_max >= 0")
    spf = list(range(n_max + 1))
    for p in range(2, isqrt(n_max) + 1):
        if spf[p] == p:
            for m in range(p * p, n_max + 1, p):
                if spf[m] == m:
                    spf[m] = p
    power = [1] * (n_max + 1)  # p^e, the full power of spf(n) in n
    for n in range(2, n_max + 1):
        p = spf[n]
        power[n] = power[n // p] * p if spf[n // p] == p else p
    tables = []
    for k in ks:
        values = ([0, 1] + [0] * (n_max - 1))[: n_max + 1]
        for n in range(2, n_max + 1):
            q = power[n]
            values[n] = values[n // spf[n]] + n**k if q == n else values[q] * values[n // q]
        tables.append(values)
    return tables


def spread(series, t: int, n_max: int) -> list[int]:
    """series(q^t) on q^0..q^n_max: series[i] moved to index t*i."""
    out = [0] * (n_max + 1)
    out[::t] = series[: n_max // t + 1]
    return out


_STRUCT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def slot_bytes(bound: int) -> int:
    """Bytes per signed slot that holds every integer of absolute value at
    most bound with a sign bit to spare: 1, 2, 4 or 8, else whole bytes."""
    size = bound.bit_length() // 8 + 1
    return 1 << (size - 1).bit_length() if size <= 8 else size


def pack(series, size: int) -> int:
    """sum series[i] 2^(w (n - 1 - i)), w = 8 * size, n = len(series): q^0
    in the top slot. Each slot is written in two's complement, by struct,
    else at a narrower struct width that holds max|series| and widened, else
    int by int; XOR with off = 2^(w-1) per slot adds 2^(w-1) to each."""
    code = _STRUCT_CODES.get(size)
    if not code and (narrow := slot_bytes(max(map(abs, series), default=0))) < min(size, 9):
        return widen(pack(series, narrow), narrow, size)
    if code:
        raw = struct.pack(f">{len(series)}{code}", *series)
    else:
        raw = b"".join([a.to_bytes(size, "big", signed=True) for a in series])
    off = int.from_bytes((b"\x80" + bytes(size - 1)) * len(series), "big")
    return (int.from_bytes(raw, "big") ^ off) - off


def unpack(value: int, size: int, slots: int, count: int) -> list[int]:
    """c_0..c_(count-1) of value = sum c_i 2^(w (slots - 1 - i)), |c_i| <
    2^(w-1): each slot of value + off is in [0, 2^w), so none borrows, and
    XOR with off leaves each its value in two's complement (see pack)."""
    off = int.from_bytes((b"\x80" + bytes(size - 1)) * slots, "big")
    data = ((value + off) ^ off).to_bytes(size * slots, "big")
    code = _STRUCT_CODES.get(size)
    if code:
        return list(struct.unpack_from(f">{count}{code}", data))
    return [int.from_bytes(data[i : i + size], "big", signed=True) for i in range(0, size * count, size)]


def slot_unit(size: int, slots: int) -> int:
    """1 in each of slots slots of 8 * size bits: the unit slot_bits reads."""
    return int.from_bytes((bytes(size - 1) + b"\x01") * slots, "big")


def slot_bits(value: int, size: int, bits: int, unit: int = 0) -> int:
    """The least b >= max(bits, 1) with every slot of value, packed at w =
    8 * size bits, in [-2^(b-1), 2^(b-1)): exactly when a = value + 2^(b-1)
    per slot is >= 0 with no slot's bits b..w-1 set. Every b >= w holds;
    max(bits, 1) is checked first, then the least b is bisected. unit is
    slot_unit(size, s) for any s >= value.bit_length() // w + 2, past which
    no slot is nonzero, built here when not given."""
    w = 8 * size
    unit = unit or slot_unit(size, value.bit_length() // w + 2)
    low, high = max(bits, 1) - 1, max(bits, 1, w)  # the least b that holds is in (low, high]
    b = low + 1
    while high - low > 1:
        a = value + (unit << b - 1)
        if a < 0 or a & (unit << w) - (unit << b):
            low = b
        else:
            high = b
        b = (low + high) // 2
    return high


def widen(value: int, size: int, wide: int) -> int:
    """value with each slot moved to wide >= size bytes, in offset binary:
    plus 2^(w-1) each slot is in [0, 2^w), so one to_bytes, one strided copy
    per byte of the old slot and the offset taken off at the new width."""
    slots, off = value.bit_length() // (8 * size) + 2, b"\x80" + bytes(size - 1)
    old = (value + int.from_bytes(off * slots, "big")).to_bytes(size * slots, "big")
    new = bytearray(wide * slots)
    for b in range(size):
        new[wide - size + b :: wide] = old[b::size]
    return int.from_bytes(new, "big") - int.from_bytes((bytes(wide - size) + off) * slots, "big")


def multiply_pass(state: tuple[int, int], terms: Sequence[tuple[int, int]], unit: int = 0) -> tuple[int, int]:
    """The packed state (value, size) of g times (1 + sum c q^k) truncated to
    len(g), every k >= 1. value holds g and a spare slot below it as
    pack writes them, w = 8 * size bits each, q^0 on top, so q^k is a
    right shift by w*k, out += c * (value >> w*k), whose floor subtracts 0
    or 1 in the spare slot alone, carried and bounded like the rest. A term
    with c = +-1 is one shift-and-add; the others are taken in runs of one
    c, each run's shifted values summed, then scaled and added once, so
    callers list the terms that share a c together. With S = 1 + sum |c|,
    slots in [-2^(v-1), 2^(v-1)) stay within (2^(v-1) + 1) S: slot_bits
    checks v = w - 1 - bitlen(S) exactly, else finds the least v that
    holds, and widen moves the slots to slot_bytes of that bound. unit, if
    given, is slot_bits's unit for state."""
    value, size = state
    total = 1 + sum(abs(c) for _, c in terms)
    bits = slot_bits(value, size, 8 * size - 1 - total.bit_length(), unit)
    if (wide := slot_bytes(((1 << bits - 1) + 1) * total)) != size:  # not when the first check holds
        value, size = widen(value, size, wide), wide
    out, w = value, 8 * size
    run, shifted = 0, 0  # the coefficient of the run being summed, and its shifted values' sum
    for k, c in terms:
        if c == 1:
            out += value >> w * k
        elif c == -1:
            out -= value >> w * k
        elif c == run:
            shifted += value >> w * k
        else:
            if run:
                out += run * shifted
            run, shifted = c, value >> w * k
    if run:
        out += run * shifted
    return out, size


def series_product(x, a: int, y, b: int, n_max: int) -> list[int]:
    """Coefficients q^0..q^n_max of x(q^a) y(q^b), for a, b >= 1 and integer
    series x and y (x[i] the coefficient of q^i).

    With g = gcd(a, b), a = g a' and b = g b', x[r + b' i] y[s + a' j] lands
    on q^(a r + b s + g a' b' (i + j)), and for r < b' and s < a' the offsets
    a r + b s meet each multiple of g mod g a' b' once. So the product is one
    dense product x[r::b'] y[s::a'] per residue class, written by slice into
    its class; a class with no term up to q^n_max is skipped. Each is one
    Kronecker substitution: both factors are packed, multiplied once as
    ints and unpacked. No coefficient exceeds max|x| * max|y| * min(len(x),
    len(y)) in absolute value, nor, by Cauchy-Schwarz, sqrt(sum x^2 sum
    y^2), so nor its isqrt, as coefficients are ints; the slots hold the
    lesser of the two, so the result is exact. The second is at least
    max|x| * max|y|, so it is summed only when that takes narrower slots
    than the first.

    A square, x is y and a == b, has one class, packed once: px and py are
    then one int, and CPython multiplies an int by itself by squaring,
    which is faster than a general product of the same size.
    """
    if a < 1 or b < 1 or n_max < 0:
        raise ValueError(f"series_product requires a, b >= 1 and n_max >= 0, got {a}, {b}, {n_max}")
    square = x is y and a == b
    x, y = list(x[: n_max // a + 1]), list(y[: n_max // b + 1])
    out = [0] * (n_max + 1)
    peak = max(map(abs, x), default=0) * max(map(abs, y), default=0)
    if not peak:
        return out
    size = slot_bytes(peak * min(len(x), len(y)))
    if slot_bytes(peak) < size:  # sqrt(sum x^2 sum y^2) >= peak, so only then can it narrow the slots
        xx = sum(map(mul, x, x))
        size = min(size, slot_bytes(isqrt(xx * (xx if square else sum(map(mul, y, y))))))
    step = lcm(a, b)  # g a' b'
    a1, b1 = step // b, step // a
    y_classes = [(pack(c, size), len(c)) for c in (y[s::a1] for s in range(min(a1, len(y))))]
    for r, xr in enumerate(x[r::b1] for r in range(min(b1, len(x)))):
        px = y_classes[0][0] if square else pack(xr, size)
        for s, (py, ny) in enumerate(y_classes):
            start = a * r + b * s
            if start > n_max:
                break
            slots = len(xr) + ny - 1
            count = min((n_max - start) // step + 1, slots)
            out[start : start + step * count : step] = unpack(px * py, size, slots, count)
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
