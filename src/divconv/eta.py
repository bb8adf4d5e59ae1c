"""Dedekind eta quotients: expansion to plain integer lists, admissibility
checks, search. Only expand_eta_quotient wraps its list in a QSeries, for
expand and the cache; euler_F stays a QSeries for perfbench/micro.py.

An eta quotient at level N is a product over divisors d | N of powers of
eta(d z). The admissibility checker evaluates the classical congruence,
square, weight and cusp-order conditions under which such a product is a
modular (resp. cusp) form on Gamma_0(N). The search builds the weight-4
quotients from their orders at the cusps, which must be non-negative
integers summing to 4*mu(N)/12, so it is complete within its exponent bound
without scanning the exponent box.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, sqrt
from operator import itemgetter
from struct import pack, unpack

from .arith import MAX_TRUNCATION, divisors, euler_phi, gamma0_index, insert_row, prime_factorization
from .arith import rational_to_str, reduce_row
from .qseries import QSeries


@dataclass(frozen=True)
class EtaQuotient:
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
    def weight(self) -> Fraction:
        return Fraction(sum(r for _, r in self.exponents), 2)

    @property
    def leading_exponent_numerator(self) -> int:
        """Sum of d * r_d; the expansion starts at q^(this / 24)."""
        return sum(d * r for d, r in self.exponents)

    def to_json_dict(self) -> dict:
        return {"level": self.level, "exponents": {str(d): r for d, r in self.exponents}}

    def expand(self, n_max: int) -> list[int]:
        return expand_eta_quotients([self], n_max)[0]

    @classmethod
    def from_json_dict(cls, data) -> "EtaQuotient":
        """Quotient from outside JSON; a malformed document raises ValueError."""
        exponents = data.get("exponents") if isinstance(data, dict) else None
        if (
            not isinstance(exponents, dict)
            or type(data.get("level")) is not int
            or not all(d.isdecimal() and int(d) > 0 and type(r) is int for d, r in exponents.items())
        ):
            raise ValueError('quotient JSON must be {"level": int, "exponents": {divisor: int, ...}}')
        return cls.from_dict(data["level"], exponents)


@dataclass(frozen=True)
class AdmissibilityReport:
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
        return {
            "cond_i": self.cond_i,
            "cond_ii": self.cond_ii,
            "cond_iii": self.cond_iii,
            "weight": rational_to_str(self.weight),
            "cond_iv": self.cond_iv,
            "orders": {str(d): rational_to_str(o) for d, o in self.orders.items()},
            "cond_v": self.cond_v,
            "cond_v_prime": self.cond_v_prime,
        }


def euler_F(truncation: int) -> QSeries:
    """Product of (1 - q^n) for n >= 1, via the pentagonal number theorem."""
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    coeffs = [0] * (truncation + 1)
    coeffs[0] = 1
    k = 1
    while True:
        e1 = k * (3 * k - 1) // 2
        if e1 > truncation:
            break
        sign = -1 if k % 2 else 1
        coeffs[e1] = sign
        e2 = k * (3 * k + 1) // 2
        if e2 <= truncation:
            coeffs[e2] = sign
        k += 1
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


def jacobi_cube_terms(truncation: int) -> list[tuple[int, int]]:
    """Nonzero terms (n, c_n), n >= 1, of F^3 = sum_k (-1)^k (2k+1) q^(k(k+1)/2),
    Jacobi's identity, up to the truncation; the constant term 1 is implied."""
    terms = []
    k = 1
    while (e := k * (k + 1) // 2) <= truncation:
        terms.append((e, -(2 * k + 1) if k % 2 else 2 * k + 1))
        k += 1
    return terms


def _multiply_pass(g: list[int], terms: Sequence[tuple[int, int]]) -> list[int]:
    """g * (1 + sum c q^k) truncated to len(g); every k >= 1.

    Kronecker packing, top slot first: g and one spare zero coefficient go
    into one int, coefficient i in slot n - i of w bits (n = len(g)). Then
    q^k is a right shift by w*k, which drops the slots past the truncation
    as it goes, and each term is one C-level big-int step, out += c *
    (packed >> w*k). The part a shift drops is less than one unit of the
    bottom slot in absolute value, so flooring it subtracts 0 or 1 there,
    in the spare slot, and leaves every other slot exact. No slot, spare
    included, exceeds bound = (max|g| + 1) * (1 + sum |c|) in absolute
    value, and w (1, 2, 4 or 8 bytes, else whole bytes) is at least
    bits(bound) + 1. So with off = 2^(w-1) in every slot, each slot of
    out + off lies in [0, 2^w): nothing carries between slots, and XOR
    with off leaves each slot its value in w-bit two's complement, read
    back by struct or, past 8 bytes, int by int.
    """
    n = len(g)
    bound = (max(map(abs, g)) + 1) * (1 + sum(abs(c) for _, c in terms))
    size = bound.bit_length() // 8 + 1
    if size <= 8:
        size = 1 << (size - 1).bit_length()
    code = {1: "b", 2: "h", 4: "i", 8: "q"}.get(size)
    if code:
        raw = pack(f">{n + 1}{code}", *g, 0)
    else:
        raw = b"".join(a.to_bytes(size, "big", signed=True) for a in [*g, 0])
    w = 8 * size
    off = int.from_bytes((b"\x80" + bytes(size - 1)) * (n + 1), "big")
    packed = (int.from_bytes(raw, "big") ^ off) - off
    out = packed
    for k, c in terms:
        if c == 1:
            out += packed >> w * k
        elif c == -1:
            out -= packed >> w * k
        else:
            out += c * (packed >> w * k)
    data = ((out + off) ^ off).to_bytes(size * n + size, "big")
    if code:
        return list(unpack(f">{n + 1}{code}", data)[:n])
    return [int.from_bytes(data[i : i + size], "big", signed=True) for i in range(0, size * n, size)]


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
    """Divide-pass terms of F(q^d)^r per sqrt(t): cube sqrt(2/d), pentagonal sqrt(8/3d)."""
    return (-r // 3 * sqrt(2) + -r % 3 * sqrt(8 / 3)) / sqrt(d) if r < 0 else 0.0


@lru_cache(maxsize=256)
def _passes(f: EtaQuotient) -> tuple[tuple[int, str, bool], ...]:
    """The quotient's passes (d, kind, multiply): multiply passes by divisor,
    then divide passes (measured faster last). Each divisor pair (d, 2d)
    with a negative exponent, d ascending, first takes n theta factors of
    one kind by Gauss's identities psi(q^d) = F(q^2d)^2 / F(q^d) (r_d += n,
    r_2d -= 2n) or phi(-q^d) = F(q^d)^2 / F(q^2d) (r_d -= 2n, r_2d += n),
    and the new r_2d feeds the pair (2d, 4d). Cost rule: the kind and n
    that minimise _divide_cost of the pair's exponents, fewest factors on
    a tie; 3 factors past 2 beyond where the absorbed exponent reaches 0
    only add two cube divides, so the search stops there. Each r_d left
    gives |r_d| // 3 cube passes and |r_d| % 3 pentagonal ones."""
    r = f.as_dict()
    multiply, divide = [], []
    for d in divisors(f.level // 2) if f.level % 2 == 0 and min(r.values()) < 0 else []:
        x, y = r.get(d, 0), r.get(2 * d, 0)
        if min(x, y) < 0:
            # (cost, n, kind, r_d, r_2d); min by (cost, n) keeps the first option on a tie
            options = [
                (_divide_cost(d, x + n) + _divide_cost(2 * d, y - 2 * n), n, "psi", x + n, y - 2 * n)
                for n in range(max(0, -x) + 3)
            ]
            options += [
                (_divide_cost(d, x - 2 * n) + _divide_cost(2 * d, y + n), n, "phi", x - 2 * n, y + n)
                for n in range(1, max(0, -y) + 3)
            ]
            _, n, kind, r[d], r[2 * d] = min(options, key=itemgetter(0, 1))
            multiply += [(d, kind, True)] * n
    for d, x in r.items():
        (multiply if x > 0 else divide).extend(
            [(d, "cube", x > 0)] * (abs(x) // 3) + [(d, "pentagonal", x > 0)] * (abs(x) % 3)
        )
    return tuple(sorted(multiply) + sorted(divide))


@lru_cache(maxsize=256)
def _pass_terms(d: int, kind: str, m: int) -> tuple[tuple[int, int], ...]:
    """The nonzero terms (d*k, c), k = 1..m, of F(q^d)^3 ("cube"), F(q^d)
    ("pentagonal"), psi(q^d) = sum_(n>=0) q^(d n(n+1)/2) or
    phi(-q^d) = 1 + 2 sum_(n>=1) (-1)^n q^(d n^2)."""
    if kind == "cube":
        base = jacobi_cube_terms(m)
    elif kind == "pentagonal":
        base = [(k, c) for k, c in enumerate(euler_F(m).coeffs) if c and k]
    elif kind == "psi":
        base = [(n * (n + 1) // 2, 1) for n in range(1, isqrt(2 * m) + 1)]
    else:
        base = [(n * n, 2 * (-1) ** n) for n in range(1, isqrt(m) + 1)]
    return tuple((d * k, c) for k, c in base if k <= m)


def expand_eta_quotients(quotients, truncation: int) -> list[list[int]]:
    """q-expansions of the quotients up to the given truncation, in the
    order given, each the integer list of its coefficients q^0..q^truncation.

    Every quotient needs its q-prefactor exponent e0 = (sum of d*r_d)/24
    to be a non-negative integer, which holds for every cusp candidate; one
    with e0 > truncation expands to zero.

    Method: prod F(q^d)^(r_d) is built on a plain integer list by sparse
    passes. Gauss's identities psi(q^d) = F(q^2d)^2 / F(q^d) = sum
    q^(d n(n+1)/2) and phi(-q^d) = F(q^d)^2 / F(q^2d) = 1 + 2 sum (-1)^n
    q^(d n^2) first absorb exponents at divisor pairs (d, 2d) into multiply
    passes, as many as minimise the divide-pass terms left (the cost rule
    in _passes). Each r_d left applies |r| // 3 passes with F(q^d)^3
    (Jacobi's identity, about sqrt(2t/d) terms) and |r| % 3 passes with
    F(q^d) (pentagonal, about sqrt(8t/3d) terms). A pass multiplies for
    r > 0 and divides by the forward recurrence for r < 0, so no dense
    series product is ever formed and every coefficient is an exact Python
    int. A multiply pass packs the list into one int, a slot of w bits per
    coefficient, and applies each term as one big-int shift-and-add; w is
    the width of (max|g| + 1) * (1 + sum |c|), which bounds every slot
    before and after the pass, plus a sign bit, so no slot carries into the
    next and the list read back is exact (_multiply_pass).

    The quotients' pass sequences form a prefix tree, walked depth first
    by taking them in sorted order, so a pass that several quotients start
    with runs once. Only the products that a later quotient resumes from
    are kept, so memory does not grow with the number of passes. Every
    pass runs on q^0..q^top with top = truncation - min e0; a quotient with
    a larger e0 reads a prefix, since truncated products agree on it.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    e0s = [_leading_exponent(f) for f in quotients]
    results = [[0] * (truncation + 1) if e0 > truncation else None for e0 in e0s]
    jobs = sorted((_passes(f), e0, i) for i, (f, e0) in enumerate(zip(quotients, e0s)) if e0 <= truncation)
    if not jobs:
        return results
    top = truncation - min(e0 for _, e0, _ in jobs)
    # resume[k] = the passes sorted job k shares with job k - 1; saved holds
    # (depth, product after that many passes) at the depths a later job resumes at
    resume = [0] + [
        next((j for j, (a, b) in enumerate(zip(p, q)) if a != b), min(len(p), len(q)))
        for (p, _, _), (q, _, _) in zip(jobs, jobs[1:])
    ]
    saved = [(0, [1] + [0] * top)]
    for k, (passes, e0, i) in enumerate(jobs):
        while saved[-1][0] > resume[k]:
            saved.pop()
        depth, g = saved[-1]
        for j, (d, kind, multiply) in enumerate(passes[depth:], start=depth + 1):
            if m := top // d:
                g = (_multiply_pass if multiply else _divide_pass)(g, _pass_terms(d, kind, m))
            if j in resume[k + 1 :]:
                saved.append((j, g))
        results[i] = [0] * e0 + g[: truncation - e0 + 1]
    return results


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
