"""Dedekind eta quotients: expansion to integer lists (the log-derivative
recurrence, or multiply passes on closed-form terms by arith.multiply_pass
and divides by F(q^d)^3, whichever is measured faster) or to one
weighted sum of lists by the passes, admissibility checks, search. Only
expand_eta_quotient (expand, the cache) and euler_F (perfbench/micro.py,
the tests) return a QSeries; both import qseries on the call.

An eta quotient at level N is a product over divisors d | N of powers of
eta(d z). The admissibility checker evaluates the classical congruence,
square, weight and cusp-order conditions under which such a product is a
modular (resp. cusp) form on Gamma_0(N). The search builds the weight-4
quotients from their orders at the cusps, which must be non-negative
integers summing to 4*mu(N)/12, so it is complete within its exponent bound
without scanning the exponent box.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, isqrt, lcm, prod, sqrt
from operator import add, itemgetter, mul
from typing import TYPE_CHECKING, NamedTuple

from .arith import MAX_TRUNCATION, divisors, euler_phi, gamma0_index, multiply_pass, pack, prime_factorization
from .arith import rational_to_str, sigma_sieve, slot_bits, slot_bytes, unpack, widen

if TYPE_CHECKING:
    from .qseries import QSeries


class EtaQuotient(NamedTuple):
    """Level N and one integer exponent per divisor of N (zeros omitted)."""

    level: int
    exponents: tuple[tuple[int, int], ...]  # (divisor, exponent), sorted

    @classmethod
    def from_dict(cls, level: int, exponents) -> "EtaQuotient":
        if not 1 <= level <= MAX_TRUNCATION:
            raise ValueError(f"level must be in 1..{MAX_TRUNCATION}, got {level}")
        cleaned = {}
        for d, r in dict(exponents).items():
            d, r = int(d), int(r)
            if level % d:
                raise ValueError(f"divisor {d} does not divide level {level}")
            if r:
                cleaned[d] = r
        if not cleaned:
            raise ValueError("at least one exponent must be nonzero")
        return cls(level, tuple(sorted(cleaned.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.exponents)

    @property
    def leading_exponent_numerator(self) -> int:
        """Sum of d * r_d; the expansion starts at q^(this / 24)."""
        return sum(d * r for d, r in self.exponents)

    def to_json_dict(self) -> dict:
        return {"level": self.level, "exponents": {str(d): r for d, r in self.exponents}}

    def expand(self, n_max: int) -> list[int]:
        """The coefficients of q^0..q^n_max. The q-prefactor exponent e0 =
        (sum of d*r_d)/24 must be a non-negative integer, as for every cusp
        candidate; past n_max the expansion is zero.

        prod F(q^d)^(r_d) on q^0..q^n, n = n_max - e0, takes the log-derivative
        recurrence (_log_derivative, n^2/2 steps whatever the exponents) where
        it was measured faster, with a margin: short rows, n < 16 (the
        Sturm-bound rows of levels 14, 22, 26), and steep exponents, sum |r_d|
        isqrt(n/d) > 16 n (over about 7 n pass terms of n slots). Else _walk
        runs the multiply passes that _passes plans, on closed-form terms
        (_pass_terms), on one packed int (arith.multiply_pass), and _series
        unpacks it once and runs the cube divides by the forward recurrence."""
        if n_max < 1:
            raise ValueError("truncation must be >= 1")
        if (n := n_max - _leading_exponent(self)) < 0:
            return [0] * (n_max + 1)
        if n < 16 or sum(abs(r) * isqrt(n // d) for d, r in self.exponents) > 16 * n:
            return [0] * (n_max - n) + _log_derivative(self, _sigma(n_max), n)
        ((_, e0, state, divide),) = _walk(_plans([self], n_max), n_max)
        return _series(state, e0, divide, n_max)

    @classmethod
    def from_json(cls, text: str) -> "EtaQuotient":
        """Quotient from outside JSON text, through from_json_dict. A repeated
        key, a key or integer of more digits than int reads, and nesting past
        the parser's recursion limit raise ValueError too."""
        try:
            data = json.loads(text, object_pairs_hook=_json_object, parse_int=_json_int)
        except RecursionError:
            raise ValueError("quotient JSON is nested too deeply") from None
        return cls.from_json_dict(data)

    @classmethod
    def from_json_dict(cls, data) -> "EtaQuotient":
        """Quotient from decoded outside JSON; a malformed document raises ValueError.
        Divisors are ASCII digits: isdecimal alone passes other scripts' too."""
        exponents = data.get("exponents") if isinstance(data, dict) else None
        if not isinstance(exponents, dict) or type(data.get("level")) is not int:
            raise ValueError('quotient JSON must be {"level": int, "exponents": {divisor: int, ...}}')
        if unknown := [key for key in data if key not in ("level", "exponents")]:
            raise ValueError(f"quotient JSON has the unknown key {unknown[0]!r}")
        for d, r in exponents.items():
            if not (d.isascii() and d.isdecimal() and int(d) > 0 and type(r) is int):
                raise ValueError(f"exponents key {d!r} must be a positive divisor in ASCII digits with an int value")
            if abs(r) > MAX_TRUNCATION:  # past it, sum d*r_d may be too long to print in a message
                raise ValueError(f"the exponent of divisor {int(d)} must be in -{MAX_TRUNCATION}..{MAX_TRUNCATION}")
        if len(given := {int(d): d for d in exponents}) < len(exponents):  # "1" and "01" name one divisor
            d = next(d for d in exponents if given[int(d)] != d)
            raise ValueError(f"divisor {int(d)} is given twice, as {d!r} and {given[int(d)]!r}")
        return cls.from_dict(data["level"], exponents)


class _LongInt(str):
    """The digits of a JSON integer that int refuses for their number."""


def _json_int(digits: str) -> int | _LongInt:
    try:
        return int(digits)
    except ValueError:
        return _LongInt(digits)


def _json_object(pairs: list) -> dict:
    """A JSON object; a repeated key (json.loads keeps the last) and a digit
    key or integer value that int refuses for its length raise ValueError."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"quotient JSON gives the key {key!r} twice")
        if key.isdecimal() and isinstance(_json_int(key), _LongInt):
            raise ValueError(f"quotient JSON gives the key '{key[:10]}...' of {len(key)} digits, too many to read")
        if isinstance(value, _LongInt):
            raise ValueError(f"quotient JSON gives the key {key!r} an integer too long to read")
        data[key] = value
    return data


class AdmissibilityReport(NamedTuple):
    """Outcome of the eta-quotient admissibility conditions at one level.

    orders maps each divisor d of the level to the cusp-order sum
    sum_over_delta gcd(delta, d)^2 * r_delta / delta.
    """

    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    weight: Fraction
    cond_iv: bool
    orders: dict[int, Fraction]
    cond_v: bool
    cond_v_prime: bool

    def to_json_dict(self) -> dict:
        orders = {str(d): rational_to_str(o) for d, o in self.orders.items()}
        return {**self._asdict(), "weight": rational_to_str(self.weight), "orders": orders}


def euler_F(truncation: int) -> QSeries:
    """Product of (1 - q^n) for n >= 1: the pentagonal pass terms of F(q)."""
    from .qseries import QSeries

    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    coeffs = [1] + [0] * truncation
    for k, c in _pass_terms(1, "pentagonal", truncation):
        coeffs[k] = c
    return QSeries(coeffs, truncation)


@lru_cache(maxsize=64)
def _admissibility_columns(level: int) -> tuple[list[int], dict[int, list[int]]]:
    """The divisors d of the level and, for each divisor delta, its integer
    column: gcd(d, delta)^2 * n / delta for each d (n the level), so that
    n * v_d = sum_delta column_delta[d] r_delta, then delta's exponent at
    each prime of the level."""
    divs = divisors(level)
    primes = list(prime_factorization(level))
    return divs, {
        delta: [gcd(d, delta) ** 2 * (level // delta) for d in divs]
        + [prime_factorization(delta).get(p, 0) for p in primes]
        for delta in divs
    }


def _conditions(f: EtaQuotient) -> tuple[list[int], int, tuple[bool, ...]]:
    """(the n v_d by divisor d, n the level; the exponent sum 2k; conditions
    (i)-(v)), on integers, from one sum of the level's cached columns
    weighted by the exponents. It holds the n v_d, whose rows d = n and
    d = 1 are n sum d r_d and sum (n/d) r_d, for conditions (i), (ii) and
    (v), and the prime exponents of prod d^r_d, a rational square iff they
    are all even (iii), so the huge powers are never formed; (iv) reads the
    exponent sum 2k (k even)."""
    divs, columns = _admissibility_columns(f.level)
    sums = [0] * len(columns[1])
    for delta, r in f.exponents:
        sums = [s + r * c for s, c in zip(sums, columns[delta])]
    orders, total = sums[: len(divs)], sum(r for _, r in f.exponents)
    square = all(e % 2 == 0 for e in sums[len(divs) :])
    conditions = (orders[-1] % (24 * f.level) == 0, orders[0] % 24 == 0, square, total % 4 == 0, min(orders) >= 0)
    return orders, total, conditions


def modular_weight(f: EtaQuotient) -> int | None:
    """The weight k if conditions (i)-(v) of check_admissibility hold, so
    that the quotient is a modular form, else None; no Fraction is built."""
    _, total, conditions = _conditions(f)
    return total // 2 if all(conditions) else None


def check_admissibility(f: EtaQuotient) -> AdmissibilityReport:
    """Evaluate all admissibility conditions on the integer sums of
    _conditions; nothing raises, the report tells."""
    orders, total, (i, ii, iii, iv, v) = _conditions(f)
    by_divisor = {d: Fraction(o, f.level) for d, o in zip(divisors(f.level), orders)}
    return AdmissibilityReport(i, ii, iii, Fraction(total, 2), iv, by_divisor, v, min(orders) > 0)


def _divide_pass(g: list[int], terms: Sequence[tuple[int, int]]) -> list[int]:
    """g / (1 + sum c q^k) truncated to len(g), by the forward recurrence
    over the sparse tail; terms sorted by k >= 1."""
    h = list(g)
    for n in range(1, len(h)):
        acc = h[n]
        for k, c in terms:
            if k > n:
                break
            acc -= c * h[n - k]
        h[n] = acc
    return h


def expand_eta_quotient(f: EtaQuotient, truncation: int) -> QSeries:
    """EtaQuotient.expand, which documents the method, as the QSeries that
    expand prints and the cache stores."""
    from .qseries import QSeries

    return QSeries(f.expand(truncation), truncation)


def _leading_exponent(f: EtaQuotient) -> int:
    """(sum of d*r_d)/24, which must be a non-negative integer."""
    num = f.leading_exponent_numerator
    if num % 24:
        raise ValueError(f"sum of d*r_d = {num} is not divisible by 24; no integral q-expansion")
    if num < 0:
        raise ValueError(f"leading exponent {num // 24} is negative")
    return num // 24


def _divide_cost(d: int, r: int) -> float:
    """Divide-pass terms of F(q^d)^r per sqrt(2t): ceil(-r/3) cube divides of about sqrt(2t/d) terms."""
    return -(r // 3) / sqrt(d) if r < 0 else 0.0


@lru_cache(maxsize=256)
def _passes(f: EtaQuotient) -> tuple[tuple[tuple[int, str], ...], tuple[int, ...]]:
    """The quotient's plan: its multiply passes (d, kind) and the divisors d
    of its divides by F(q^d)^3, which run last (measured faster), each
    sorted. Each divisor pair (d, 2d) with a negative exponent, d ascending,
    first takes n theta factors of one kind by Gauss's identities psi(q^d) =
    F(q^2d)^2 / F(q^d) (r_d += n, r_2d -= 2n) or phi(-q^d) = F(q^d)^2 /
    F(q^2d) (r_d -= 2n, r_2d += n), the new r_2d feeding the pair (2d, 4d):
    the kind and n that minimise _divide_cost of the pair's exponents,
    fewest factors on a tie, n stopping where the absorbed exponent reaches
    0, past which the cost cannot fall. Each r_d left is (F(q^d)^3)^(r // 3)
    F(q^d)^(r % 3): |r // 3| cube passes, dividing for r < 0, and r % 3
    pentagonal multiplies."""
    r = f.as_dict()
    multiply, divide = [], []
    for d in divisors(f.level // 2) if f.level % 2 == 0 and min(r.values()) < 0 else []:
        x, y = r.get(d, 0), r.get(2 * d, 0)
        if min(x, y) < 0:
            # (cost, n, kind, r_d, r_2d); min by (cost, n) keeps the first option on a tie
            options = [
                (_divide_cost(d, x + n) + _divide_cost(2 * d, y - 2 * n), n, "psi", x + n, y - 2 * n)
                for n in range(max(0, -x) + 1)
            ]
            options += [
                (_divide_cost(d, x - 2 * n) + _divide_cost(2 * d, y + n), n, "phi", x - 2 * n, y + n)
                for n in range(1, max(0, -y) + 1)
            ]
            _, n, kind, r[d], r[2 * d] = min(options, key=itemgetter(0, 1))
            multiply += [(d, kind)] * n
    for d, x in r.items():  # a list times a negative count is empty
        multiply += [(d, "cube")] * (x // 3) + [(d, "pentagonal")] * (x % 3)
        divide += [d] * -(x // 3)
    return tuple(sorted(multiply)), tuple(sorted(divide))


@lru_cache(maxsize=256)
def _pass_terms(d: int, kind: str, m: int) -> tuple[tuple[int, int], ...]:
    """The nonzero terms (d*e, c), 1 <= e <= m, of one pass's series, each
    written from its closed form: F(q^d)^3 = sum_(k>=0) (-1)^k (2k+1)
    q^(d k(k+1)/2) ("cube", Jacobi), F(q^d) = 1 + sum_(k>=1) (-1)^k
    (q^(d k(3k-1)/2) + q^(d k(3k+1)/2)) ("pentagonal", Euler), psi(q^d) =
    sum_(k>=0) q^(d k(k+1)/2) or phi(-q^d) = 1 + 2 sum_(k>=1) (-1)^k
    q^(d k^2). e grows with k, so the terms come out sorted, and k up to
    isqrt(2m) reaches every e <= m; phi's come as its odd k, then its even
    k, so that each coefficient, -2 then 2, is one run of
    arith.multiply_pass, scaled once."""
    if kind == "cube":
        base = [(k * (k + 1) // 2, (-1) ** k * (2 * k + 1)) for k in range(1, isqrt(2 * m) + 1)]
    elif kind == "pentagonal":
        base = [(k * (3 * k + s) // 2, (-1) ** k) for k in range(1, isqrt(2 * m) + 1) for s in (-1, 1)]
    elif kind == "psi":
        base = [(k * (k + 1) // 2, 1) for k in range(1, isqrt(2 * m) + 1)]
    else:
        base = [(k * k, 2 * (-1) ** k) for parity in (1, 2) for k in range(parity, isqrt(m) + 1, 2)]
    return tuple((d * e, c) for e, c in base if e <= m)


@lru_cache(maxsize=4)
def _sigma(n: int) -> list[int]:
    """sigma(k) for k = 0..n, sieved once per truncation, not once per row."""
    return sigma_sieve((1,), n)[0]


def _log_derivative(f: EtaQuotient, sigma: Sequence[int], n: int) -> list[int]:
    """prod F(q^d)^(r_d) = sum a_m q^m on q^0..q^n, by the recurrence m a_m =
    sum_(j<=m) b_j a_(m-j), b_j = -sum_(d|j) d r_d sigma(j/d) (Apostol,
    ch. 14): q d/dq of log F(q^d) is -sum_k d sigma(k) q^(dk). n^2 / 2
    steps whatever the exponents; sigma holds sigma(k) for k <= n. Every
    division by m is checked to be exact."""
    b = [0] * (n + 1)
    for d, r in f.exponents:
        b[d::d] = [x - d * r * s for x, s in zip(b[d::d], sigma[1:])]
    a = [1]
    for m in range(1, n + 1):
        am, rest = divmod(sum(map(mul, b[1 : m + 1], reversed(a))), m)
        if rest:
            raise ArithmeticError(f"the recurrence of {f} leaves {rest} mod {m} at q^{m}")
        a.append(am)
    return a


def sum_eta_quotients(quotients, weights, truncation: int) -> list[int]:
    """sum weights[i] quotients[i] on q^0..q^truncation. Divides are linear,
    so the products with divides take a common denominator, cube passes for
    the union's divides they lack. Each group is summed packed, every slot
    at most its bound (_add), and unpacked once by _series, which runs the
    union's divides on the divided group's sum; the two lists are then
    added."""
    jobs, union = _plans(quotients, truncation), Counter()
    for _, divide, *_ in jobs:
        if divide:
            union |= Counter(divide)
    sums = [(0, 1, 0), (0, 1, 0)]  # (value, size, bound) of the products without and with divides
    for i, _, state, divide in _walk(jobs, truncation):
        for d in (union - Counter(divide)).elements() if divide else ():
            state = multiply_pass(state, _pass_terms(d, "cube", truncation // d))
        sums[bool(divide)] = _add(sums[bool(divide)], state, weights[i])
    total = None
    for state, divide in zip(sums, ((), union.elements())):
        if state[2]:  # a group with no product is 0
            g = _series(state, 0, divide, truncation)
            total = g if total is None else list(map(add, total, g))
    return total or [0] * (truncation + 1)


def _add(total: tuple[int, int, int], state: tuple[int, int, int], weight: int) -> tuple[int, int, int]:
    """The packed (value, size, bound) total plus weight * state, in slots
    that hold both. The product's slots are at most its carried bound;
    only when that bound cannot prove the sum fits the wider of the two
    widths does arith.slot_bits measure them, at most 2^(b-1) for b bits."""
    value, size, bound = total
    product, width, most = state
    if slot_bytes(bound + abs(weight) * most) > max(size, width):
        most = 1 << slot_bits(product, width) - 1
    if (wide := max(slot_bytes(bound := bound + abs(weight) * most), width)) > size:
        value, size = widen(value, size, wide), wide
    return value + weight * (widen(product, width, size) if width < size else product), size, bound


def _series(state: tuple[int, int, int], e0: int, divide: Iterable[int], truncation: int) -> list[int]:
    """A quotient's q^0..q^truncation from its packed product as _walk yields
    it, divided by F(q^d)^3 for each d in divide (_divide_pass)."""
    value, size, _ = state
    g = unpack(value, size, truncation + 2, truncation + 1)
    for d in divide:
        if m := (truncation - e0) // d:
            g[e0:] = _divide_pass(g[e0:], _pass_terms(d, "cube", m))
    return g


def _plans(quotients, truncation: int) -> list[tuple[tuple[tuple[int, str], ...], tuple[int, ...], int, int]]:
    """The sorted jobs (multiply, divide, e0, i) that _walk takes: the plan
    (_passes) and q-prefactor exponent e0 of each quotient i with e0 <= truncation."""
    return sorted((*_passes(f), e0, i) for i, f in enumerate(quotients) if (e0 := _leading_exponent(f)) <= truncation)


def _walk(jobs, truncation: int) -> Iterator[tuple[int, int, tuple[int, int, int], tuple[int, ...]]]:
    """(i, e0, (value, size, bound), divide) for each job of _plans, in
    order: value packs quotient i's multiply product shifted right by e0 -
    min e0 slots, q^0..q^truncation and a spare slot that takes the shift's
    floor, so bound is the passes' carried bound plus 1; divide is still to
    run. The multiply passes form a prefix tree, walked depth
    first, so a pass that several jobs start with runs once; only the
    products that a later job resumes from are kept, so memory does not grow
    with the passes. Every pass runs on q^0..q^top, top = truncation - min
    e0; a job with a larger e0 reads a prefix, since truncated products
    agree on it, shifted to its own q^e0."""
    if not jobs:
        return
    top = truncation - (low := min(e0 for *_, e0, _ in jobs))
    # resume[k] = the multiply passes sorted job k shares with job k - 1; saved
    # holds (depth, packed product after that many passes) where a later job resumes
    resume = [0] + [
        next((j for j, (a, b) in enumerate(zip(p, q)) if a != b), min(len(p), len(q)))
        for (p, *_), (q, *_) in zip(jobs, jobs[1:])
    ]
    saved = [(0, (pack([1] + [0] * (top + 1), 1), 1, 1))]
    for k, (multiply, divide, e0, i) in enumerate(jobs):
        while saved[-1][0] > resume[k]:
            saved.pop()
        depth, state = saved[-1]
        for j, (d, kind) in enumerate(multiply[depth:], start=depth + 1):
            if m := top // d:
                state = multiply_pass(state, _pass_terms(d, kind, m))
            if j in resume[k + 1 :]:
                saved.append((j, state))
        value, size, bound = state
        yield i, e0, (value >> 8 * size * (e0 - low), size, bound + 1), divide


def _lower_triangular_basis(rows: list[list[int]], n: int) -> list[list[int]]:
    """Basis of the full-rank lattice spanned by the integer rows: row j of
    the result ends in a positive entry at column j. Euclid on each column,
    last column first."""
    pool = [row for row in rows if any(row)]
    basis = [[] for _ in range(n)]
    for j in reversed(range(n)):
        while len(live := [row for row in pool if row[j]]) > 1:
            pivot = min(live, key=lambda row: abs(row[j]))
            pool = [
                row if row is pivot or not row[j] else [a - row[j] // pivot[j] * b for a, b in zip(row, pivot)]
                for row in pool
            ]
        (row,) = live
        basis[j] = row if row[j] > 0 else [-a for a in row]
        pool = [other for other in pool if other is not row and any(other)]
    return basis


def _scaled_inverse(lower: list[list[int]], den: int) -> list[list[int]]:
    """den * L^-1 for a lower-triangular integer matrix L with a nonzero
    diagonal, row by row by forward substitution; a division that leaves a
    remainder raises ArithmeticError."""
    inverse = []
    for i, row in enumerate(lower):
        acc = [den * (i == j) for j in range(len(lower))]
        for k, c in enumerate(row[:i]):
            if c:
                acc = [a - c * x for a, x in zip(acc, inverse[k])]
        if any(a % row[i] for a in acc):
            raise ArithmeticError(f"{den} * L^-1 is not integral in row {i}")
        inverse.append([a // row[i] for a in acc])
    return inverse


def _order_lattice(level: int) -> tuple:
    """What the walk needs of the level alone, by divisor d: den, the
    columns of den * A^-1, the lattice basis, phi(g_d), g_d = gcd(d, N/d),
    and (R_d, 24 g_d d), R_d / (24 g_d d) the sum of row d of A.

    A[d][delta] = N gcd(d,delta)^2 / (24 g_d d delta) is (N/24) D^-1 (x)_p
    M_p, D = diag(g_d), M_p[x][y] = p^-|x-y| over the exponents of p in d
    and delta: a Kac-Murdock-Szego matrix, whose inverse is tridiagonal
    (Kac, Murdock & Szego, 1953): (p^2 - 1) M_p^-1 has p^2 in the two
    corners, p^2 + 1 on the rest of the diagonal and -p beside it. So
    A^-1 = 24 B / (N P), P = prod (p^2 - 1), B[delta][d] = g_d times the
    product of those integers, and den = N P / gcd(N P, 24 gcd(B))."""
    divs, columns = _admissibility_columns(level)
    n = len(divs)
    primes = prime_factorization(level).items()
    g = [gcd(d, level // d) for d in divs]
    exps = [columns[d][n:] for d in divs]  # the exponent of each prime of the level in d
    tri = [[gd * prod(p * p + (0 < x < a) if x == y else -p * (abs(x - y) == 1) for (p, a), x, y in zip(primes, ex, ey))
            for ex, gd in zip(exps, g)] for ey in exps]
    big = level * prod(p * p - 1 for p, _ in primes)
    common = gcd(big, 24 * gcd(*(b for row in tri for b in row)))
    den = big // common
    scaled = [[24 * b // common for b in row] for row in tri]  # den * A^-1
    # r is integral iff v lies on the lattice {v : scaled v = 0 mod den}.
    # Its dual, times den, is spanned by the rows of scaled and den*I; the
    # lattice then has the basis den * dual^-T, whose row i starts at
    # column i, so lattice[j][j] is the step of v_j once v_0..v_{j-1} are set
    dual = _lower_triangular_basis(scaled + [[den * (i == j) for j in range(n)] for i in range(n)], n)
    lattice = list(zip(*_scaled_inverse(dual, den)))
    row_sums = [(sum(columns[e][i] for e in divs), 24 * g[i] * d) for i, d in enumerate(divs)]
    return den, list(zip(*scaled)), lattice, [euler_phi(x) for x in g], row_sums


def _suffixes(items: list, f, initial=None) -> list:
    """f folded over items[j:] for each j, then initial if given."""
    return list(accumulate(reversed(items), f, initial=initial))[::-1]


def walk_eta_quotients(level: int, bound: int) -> Iterator[EtaQuotient]:
    """The admissible weight-4 quotients at the level with every exponent
    in [-bound, bound] whose expansion vanishes at infinity (positive
    leading exponent), lazily, each yielded as the walk over cusp orders
    reaches it (lexicographic order of the cusp-order vector v). Orders at
    the other cusps may be 0: two of the registered level-22 basis elements
    have order sum exactly 0 at d = 1.

    Method (Rouse & Webb; Kilford): the quotient is built from its cusp
    orders, not found by scanning the exponent box. The order at the cusps
    of denominator d is v_d = sum_delta A[d][delta] r_delta with
    A[d][delta] = N gcd(d,delta)^2 / (24 gcd(d,N/d) d delta). An eta
    quotient has no zeros in the upper half-plane, so the v_d, counted
    phi(gcd(d,N/d)) times each, sum to T = 4*mu(N)/12; for a modular
    form they are non-negative integers. The search walks those vectors v,
    with v_N >= 1, one coordinate at a time, and keeps r = A^-1 v. Two
    things keep the walk small: v stays on the lattice of vectors whose r
    is integral, through a triangular basis of it, and a branch is cut as
    soon as some r_delta must leave [-bound, bound] whatever the remaining
    coordinates are. Conditions
    (i), (ii), (iv) and (v) then hold by construction; every survivor
    still goes through modular_weight, which also decides (iii).
    Every admissible quotient in the box has such a v, so none is missed.
    The setup is in integers: A is (N/24) D^-1 times a Kronecker product of
    Kac-Murdock-Szego matrices, whose tridiagonal inverses give den * A^-1
    (_order_lattice), and each bound is a row sum or suffix min, max or sum.
    The arguments are checked on the call; the walk runs as far as pulled.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if gamma0_index(level) % 3:
        return iter(())
    divs = divisors(level)
    n = len(divs)
    den, columns, lattice, phi, row_sums = _order_lattice(level)
    low = [int(d == level) for d in divs]
    # A has positive entries, so |r| <= bound caps v_d at bound * (row sum)
    top = [bound * s // t for s, t in row_sums]
    # spend on coordinates j..: at least reserved[j], at most room[j]
    reserved = _suffixes([p * x for p, x in zip(phi, low)], add, 0)
    room = _suffixes([p * x for p, x in zip(phi, top)], add, 0)
    # with slack = rem - reserved[j] still free, den * r_k moves by
    # floor[j][k] + slack * [least[j][k], most[j][k]] / common
    common = lcm(*phi)
    cap = common * bound * den
    weighted = [[common * c // p for c in column] for p, column in zip(phi, columns)]
    least = _suffixes(weighted, lambda a, b: list(map(min, a, b)))
    most = _suffixes(weighted, lambda a, b: list(map(max, a, b)))
    floor = _suffixes([[c * x for c in column] for x, column in zip(low, columns)], lambda a, b: list(map(add, a, b)))

    def walk(j: int, partial: list[int], offset: list[int], rem: int) -> Iterator[EtaQuotient]:
        # partial = den * (r of v_0..v_{j-1}); offset = the lattice point
        # fixed so far, which pins v_j modulo lattice[j][j]
        if j == n:
            quotient = EtaQuotient.from_dict(level, {d: a // den for d, a in zip(divs, partial)})
            if modular_weight(quotient) is not None:
                yield quotient
            return
        step, cost, column, basis_row = lattice[j][j], phi[j], columns[j], lattice[j]
        first = max(low[j], -((room[j + 1] - rem) // cost))
        last = min(top[j], (rem - reserved[j + 1]) // cost)
        v = first + (offset[j] - first) % step
        if v > last:
            return
        slack = rem - reserved[j]
        for k in range(n):
            base = common * (partial[k] + floor[j][k])
            if base + slack * least[j][k] > cap or base + slack * most[j][k] < -cap:
                return
        c = (v - offset[j]) // step
        offset = [a + c * b for a, b in zip(offset, basis_row)]
        partial = [a + v * b for a, b in zip(partial, column)]
        jump = [step * b for b in column]
        while v <= last:
            yield from walk(j + 1, partial, offset, rem - v * cost)
            v += step
            offset = [a + b for a, b in zip(offset, basis_row)]
            partial = [a + b for a, b in zip(partial, jump)]

    return walk(0, [0] * n, [0] * n, gamma0_index(level) // 3)


def search_eta_quotients(level: int, bound: int) -> list[EtaQuotient]:
    """The quotients of walk_eta_quotients in lexicographic exponent order over sorted divisors."""
    divs = divisors(level)
    return sorted(walk_eta_quotients(level, bound), key=lambda q: [q.as_dict().get(d, 0) for d in divs])
