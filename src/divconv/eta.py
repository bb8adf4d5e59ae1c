"""Dedekind eta quotients: expansion to integer lists (the log-derivative
recurrence, or multiply passes on closed-form terms by arith.multiply_pass
and divides by F(q^d)^3, whichever is measured faster) or to one packed
weighted sum by the passes, admissibility checks, search. Only
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
from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, sqrt
from operator import itemgetter, mul
from typing import TYPE_CHECKING, NamedTuple

from .arith import MAX_TRUNCATION, divisors, euler_phi, gamma0_index, insert_row, multiply_pass, pack, reduce_row
from .arith import prime_factorization, rational_to_str, sigma_sieve, slot_bits, slot_bytes, slot_unit, unpack, widen

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
        return expand_eta_quotients([self], n_max)[0]

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

    @property
    def is_modular_form(self) -> bool:
        return self.cond_i and self.cond_ii and self.cond_iii and self.cond_iv and self.cond_v

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


def check_admissibility(f: EtaQuotient) -> AdmissibilityReport:
    """Evaluate all admissibility conditions; nothing raises, the report tells.

    All five are decided on integers, from one sum of the level's cached
    columns weighted by the exponents. It holds the n v_d, whose rows
    d = n and d = 1 are n sum d r_d and sum (n/d) r_d, for conditions (i),
    (ii) and (v), and the prime exponents of prod d^r_d, a rational square
    iff they are all even (iii), so the huge powers are never formed; (iv)
    reads the exponent sum 2k (k even)."""
    n = f.level
    divs, columns = _admissibility_columns(n)
    sums = [0] * len(columns[1])
    for delta, r in f.exponents:
        sums = [s + r * c for s, c in zip(sums, columns[delta])]
    orders, prime_exps = sums[: len(divs)], sums[len(divs) :]
    total = sum(r for _, r in f.exponents)
    return AdmissibilityReport(
        cond_i=orders[-1] % (24 * n) == 0,
        cond_ii=orders[0] % 24 == 0,
        cond_iii=all(e % 2 == 0 for e in prime_exps),
        weight=Fraction(total, 2),
        cond_iv=total % 4 == 0,
        orders={d: Fraction(v, n) for d, v in zip(divs, orders)},
        cond_v=min(orders) >= 0,
        cond_v_prime=min(orders) > 0,
    )


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
    """The one-element case of expand_eta_quotients, which documents the
    method, as the QSeries that expand prints and the cache stores."""
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


def expand_eta_quotients(quotients, truncation: int) -> list[list[int]]:
    """q-expansions of the quotients up to the given truncation, in the
    order given, each the integer list of its coefficients q^0..q^truncation.

    Every quotient needs its q-prefactor exponent e0 = (sum of d*r_d)/24
    to be a non-negative integer, which holds for every cusp candidate; one
    with e0 > truncation expands to zero.

    Method: prod F(q^d)^(r_d) on q^0..q^n, n = truncation - e0, takes the
    log-derivative recurrence (_log_derivative, n^2/2 steps whatever the
    exponents) where it was measured faster, with a margin, before any
    plan: short rows, n < 16 (the Sturm-bound rows of levels 14, 22, 26),
    and steep exponents, sum |r_d| isqrt(n/d) > 16 n (over about 7 n pass
    terms of n slots). Else it takes the passes that _passes plans, on
    closed-form terms (_pass_terms).
    The multiply passes run on one int packed by arith's signed Kronecker
    codec, each term one big-int shift-and-add (a run of terms that share
    a coefficient other than +-1 is scaled once), after an exact check of its
    slots that widens them only when the product could outgrow them
    (arith.multiply_pass). Each quotient then unpacks its q^0..q^truncation
    once and runs its cube divides on that list by the forward recurrence
    (_series).

    The quotients' multiply passes form a prefix tree, walked depth first
    by taking them in sorted order (_walk), so a multiply pass that several
    quotients start with runs once. Only the packed products that a later
    quotient resumes from are kept, so memory does not grow with the
    passes. Every multiply pass runs on q^0..q^top with top = truncation -
    min e0; a quotient with a larger e0 reads a prefix, since truncated
    products agree on it, shifted down to its own q^e0.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    results, passes = [None] * len(quotients), []
    for i, f in enumerate(quotients):
        n = truncation - _leading_exponent(f)
        if 0 <= n and (n < 16 or sum(abs(r) * isqrt(n // d) for d, r in f.exponents) > 16 * n):
            results[i] = [0] * (truncation - n) + _log_derivative(f, _sigma(truncation), n)
        else:
            passes.append(i)
    for j, e0, state, divide in _walk([quotients[i] for i in passes], truncation):
        results[passes[j]] = _series(state, e0, divide, truncation)
    return [g or [0] * (truncation + 1) for g in results]


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


def sum_eta_quotients(quotients, weights, truncation: int) -> tuple[int, int, int]:
    """(value, size, bound): sum weights[i] quotients[i] to q^truncation,
    packed, every slot at most bound < 2^(8 size - 1) in absolute value (arith.slot_bits
    bounds each product). Divides are linear, so the products with divides take a common
    denominator, cube passes for the union's divides they lack; their sum is unpacked once
    to run the union's divides, then added to the sum of those with none."""
    union = Counter()
    for f in quotients:
        if _leading_exponent(f) <= truncation and (divide := _passes(f)[1]):
            union |= Counter(divide)
    sums, bits = [(0, 1, 0), (0, 1, 0)], 1  # (value, size, bound) of the products without and with divides
    for i, _, state, divide in _walk(quotients, truncation):
        for d in (union - Counter(divide)).elements() if divide else ():
            state = multiply_pass(state, _pass_terms(d, "cube", truncation // d))
        bits = slot_bits(*state, bits)
        sums[bool(divide)] = _add(sums[bool(divide)], state, weights[i], abs(weights[i]) << bits - 1)
    if not union:
        return sums[0]
    g = unpack(*sums[1][:2], truncation + 2, truncation + 1)
    for d in union.elements():
        g = _divide_pass(g, _pass_terms(d, "cube", truncation // d))
    size = slot_bytes(most := max(map(abs, g)))
    return _add(sums[0], (pack(g + [0], size), size), 1, most)


def _add(total: tuple[int, int, int], state: tuple[int, int], weight: int, most: int) -> tuple[int, int, int]:
    """(value, size, bound) total plus weight * state, its slots at most most, in slots that hold both."""
    value, size, bound = total
    product, width = state
    if (wide := max(slot_bytes(bound := bound + most), width)) > size:
        value, size = widen(value, size, wide), wide
    return value + weight * (widen(product, width, size) if width < size else product), size, bound


def _series(state: tuple[int, int], e0: int, divide: Sequence[int], truncation: int) -> list[int]:
    """A quotient's q^0..q^truncation from its product as _walk yields it,
    divided by F(q^d)^3 for each d in divide (_divide_pass)."""
    g = unpack(*state, truncation + 2, truncation + 1)
    for d in divide:
        if m := (truncation - e0) // d:
            g[e0:] = _divide_pass(g[e0:], _pass_terms(d, "cube", m))
    return g


def _walk(quotients, truncation: int) -> Iterator[tuple[int, int, tuple[int, int], tuple[int, ...]]]:
    """(i, e0, (value, size), divide) for each quotient i with e0 <=
    truncation, in walk order (see expand_eta_quotients): value packs its
    multiply product shifted right by e0 - min e0 slots, q^0..q^truncation
    and a spare slot that takes the shift's floor; divide is still to run."""
    e0s = [_leading_exponent(f) for f in quotients]
    jobs = sorted((*_passes(f), e0, i) for i, (f, e0) in enumerate(zip(quotients, e0s)) if e0 <= truncation)
    if not jobs:
        return
    top = truncation - (low := min(e0 for *_, e0, _ in jobs))
    # resume[k] = the multiply passes sorted job k shares with job k - 1; saved
    # holds (depth, packed product after that many passes) where a later job resumes
    resume = [0] + [
        next((j for j, (a, b) in enumerate(zip(p, q)) if a != b), min(len(p), len(q)))
        for (p, *_), (q, *_) in zip(jobs, jobs[1:])
    ]
    saved = [(0, (pack([1] + [0] * (top + 1), 1), 1))]
    unit = (0, 0)  # (size, its arith.slot_unit), built once per run of passes at one size
    for k, (multiply, divide, e0, i) in enumerate(jobs):
        while saved[-1][0] > resume[k]:
            saved.pop()
        depth, state = saved[-1]
        for j, (d, kind) in enumerate(multiply[depth:], start=depth + 1):
            if m := top // d:
                if unit[0] != state[1]:
                    unit = state[1], slot_unit(state[1], top + 3)
                state = multiply_pass(state, _pass_terms(d, kind, m), unit[1])
            if j in resume[k + 1 :]:
                saved.append((j, state))
        yield i, e0, (state[0] >> 8 * state[1] * (e0 - low), state[1]), divide


def _inverse(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a nonsingular square matrix A, by the tag trick of
    arith.reduce_row: with the rows of the integer matrix D A inserted
    tagged, D the lcm of A's denominators, e_i reduces to (0 | -c) / m with
    e_i = c D A, so -D c / m is row i of A^-1."""
    n = len(matrix)
    den = lcm(*(x.denominator for row in matrix for x in row))
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    echelon: list[tuple[list[int], int]] = []
    for row, tag in zip(matrix, unit):
        insert_row(echelon, [int(x * den) for x in row] + tag, n)
    inverse = []
    for e in unit:
        rest, m = reduce_row(echelon, e + [0] * n)
        inverse.append([Fraction(-den * x, m) for x in rest[n:]])
    return inverse


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


def _order_lattice(level: int) -> tuple:
    """What the walk needs of the level alone: the order matrix A, den, the
    columns of den * A^-1, the lattice basis and phi(gcd(d, N/d)) by d."""
    divs = divisors(level)
    n = len(divs)
    orders = [[Fraction(level * gcd(d, e) ** 2, 24 * gcd(d, level // d) * d * e) for e in divs] for d in divs]
    inverse = _inverse(orders)
    den = lcm(*(x.denominator for row in inverse for x in row))
    scaled = [[int(x * den) for x in row] for row in inverse]  # den * A^-1
    # r is integral iff v lies on the lattice {v : scaled v = 0 mod den}.
    # Its dual, times den, is spanned by the rows of scaled and den*I; the
    # lattice then has the basis den * dual^-T, whose row i starts at
    # column i, so lattice[j][j] is the step of v_j once v_0..v_{j-1} are set
    dual = _lower_triangular_basis(scaled + [[den * (i == j) for j in range(n)] for i in range(n)], n)
    dual_inverse = _inverse(dual)
    lattice = [[int(dual_inverse[j][i] * den) for j in range(n)] for i in range(n)]
    phi = [euler_phi(gcd(d, level // d)) for d in divs]
    return orders, den, list(zip(*scaled)), lattice, phi


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
    still goes through check_admissibility, which also decides (iii).
    Every admissible quotient in the box has such a v, so none is missed.
    The arguments are checked on the call; the walk runs as far as pulled.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    total = Fraction(gamma0_index(level), 3)
    if total.denominator != 1:
        return iter(())
    divs = divisors(level)
    n = len(divs)
    orders, den, columns, lattice, phi = _order_lattice(level)
    low = [int(d == level) for d in divs]
    # A has positive entries, so |r| <= bound caps v_d at bound * (row sum)
    top = [int(bound * sum(row)) for row in orders]
    # spend on coordinates j..: at least reserved[j], at most room[j]
    reserved = [sum(phi[i] * low[i] for i in range(j, n)) for j in range(n + 1)]
    room = [sum(phi[i] * top[i] for i in range(j, n)) for j in range(n + 1)]
    # with slack = rem - reserved[j] still free, den * r_k moves by
    # floor[j][k] + slack * [least[j][k], most[j][k]] / common
    common = lcm(*phi)
    cap = common * bound * den
    least = [[min(common * columns[i][k] // phi[i] for i in range(j, n)) for k in range(n)] for j in range(n)]
    most = [[max(common * columns[i][k] // phi[i] for i in range(j, n)) for k in range(n)] for j in range(n)]
    floor = [[sum(columns[i][k] * low[i] for i in range(j, n)) for k in range(n)] for j in range(n)]

    def walk(j: int, partial: list[int], offset: list[int], rem: int) -> Iterator[EtaQuotient]:
        # partial = den * (r of v_0..v_{j-1}); offset = the lattice point
        # fixed so far, which pins v_j modulo lattice[j][j]
        if j == n:
            quotient = EtaQuotient.from_dict(level, {d: a // den for d, a in zip(divs, partial)})
            if check_admissibility(quotient).is_modular_form:
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

    return walk(0, [0] * n, [0] * n, int(total))


def search_eta_quotients(level: int, bound: int) -> list[EtaQuotient]:
    """The quotients of walk_eta_quotients in lexicographic exponent order over sorted divisors."""
    divs = divisors(level)
    return sorted(walk_eta_quotients(level, bound), key=lambda q: [q.as_dict().get(d, 0) for d in divs])
