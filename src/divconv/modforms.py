"""Weight-4 modular form spaces on Gamma_0(N): Eisenstein series, dimension
formulas, basis assembly, and exact expression of a series in a basis.

A basis is a list of generators that expand themselves to any q^n: E4(t),
the series E4(q^t), for each t | N, then eta quotients taken greedily, in
the order given, while independent of everything kept so far, until it has
dim M4(Gamma_0(N)) elements, each expanded to q^B, B the Sturm bound, and
no further: weight-4 forms on Gamma_0(N) that agree on q^0..q^B are equal,
so independence there is independence of the forms, and a solve there
proves the identity for every n. A candidate list that runs out first
leaves a shorter basis, which still proves every identity it can solve
(see build_basis). No candidate is pulled once the basis is full, so the
lazy eta walk of cusp_quotients_for_level stops with it.

A basis that cannot express a target raises Unsolvable; every other
refusal here is a ValueError about the input. shortfall states why the
candidates of a level leave its basis short of dim M4.

All linear algebra is the exact elimination of arith (insert_row,
reduce_row), on integer rows with one scale per row: build_basis inserts
each element's row once, tagged with its unit vector, and keeps that
echelon on the Basis, so express_in_basis only reduces the target's
row, and builds a Fraction only for the coefficients it returns: every
series here, a target or an element's, is a plain list of its integer
coefficients q^0..q^n_max. level_basis builds a level's basis once per
process, so every target at that level reduces against the same echelon.
There is no floating point and therefore no stability concern, only
reproducibility.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd
from typing import NamedTuple

from .arith import divisors, euler_phi, gamma0_index, insert_row, prime_factorization, reduce_row
from .arith import sigma_sieve, spread
from .eta import EtaQuotient, check_admissibility, walk_eta_quotients


class Unsolvable(ArithmeticError):
    """The basis cannot express the target: an E4(q^t) element is dependent
    on the elements before it, or the target is not in the span at the
    Sturm bound (of a basis short of dim M4, for the reason shortfall gives)."""


def eisenstein_L(truncation: int) -> list[int]:
    """E2-normalized series 1 - 24 sum sigma(n) q^n, read from sigma_sieve."""
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    return [1] + [-24 * s for s in sigma_sieve((1,), truncation)[0][1:]]


class E4(NamedTuple):
    """The generator E4(q^t) = 1 + 240 sum sigma_3(n) q^(tn), read from sigma_sieve."""

    t: int

    def expand(self, n_max: int) -> list[int]:
        return spread([1] + [240 * s for s in sigma_sieve((3,), n_max // self.t)[0][1:]], self.t, n_max)


# -- Gamma_0(N) invariants and weight-4 dimensions -------------------------


def sturm_bound(level: int) -> int:
    """Weight-4 Sturm bound on Gamma_0(N): two forms whose coefficients agree
    on q^0..q^(this) are equal."""
    return 4 * gamma0_index(level) // 12


def elliptic_points_order2(n: int) -> int:
    if n % 4 == 0:
        return 0
    count = 1
    for p in prime_factorization(n):
        if p == 2:
            continue
        if p % 4 == 1:
            count *= 2
        elif p % 4 == 3:
            return 0
    return count


def cusp_count(n: int) -> int:
    """Number of cusps of Gamma_0(N), which is dim E4. It exceeds the #divisors(N)
    series E4(q^t) that build_basis starts with whenever some gcd(d, N/d) > 2,
    since phi(gcd(d, N/d)) cusps have denominator d."""
    return sum(euler_phi(gcd(d, n // d)) for d in divisors(n))


def dim_M4(n: int) -> int:
    """dim of weight-4 modular forms on Gamma_0(N): the valence formula
    3(g - 1) + e2 + e3 + 2c with the genus g = 1 + mu/12 - e2/4 - e3/3 - c/2
    substituted, where the e3 terms cancel."""
    total = gamma0_index(n) + elliptic_points_order2(n) + 2 * cusp_count(n)
    assert total % 4 == 0, (n, total)
    return total // 4


# -- the registered cusp families for levels 14, 22, 26 --------------------
#
# Exponent vectors of the compiled-in weight-4 cusp bases, keyed by level,
# in registered order. The level-26 fifth entry is eta(z)eta(2z)
# eta^3(13z)eta^3(26z); the exponent 3 on the last factor is forced by the
# weight (the only choice making the exponent sum 8 and all admissibility
# conditions hold).
REGISTERED_CUSP_EXPONENTS: dict[int, tuple[dict[int, int], ...]] = {
    14: (
        {1: 5, 2: -1, 7: 5, 14: -1},
        {1: 2, 2: 2, 7: 2, 14: 2},
        {1: -1, 2: 5, 7: -1, 14: 5},
        {1: 6, 2: -2, 7: -2, 14: 6},
    ),
    22: (
        {1: 6, 2: -2, 11: 6, 22: -2},
        {1: 4, 11: 4},
        {1: 2, 2: 2, 11: 2, 22: 2},
        {2: 4, 22: 4},
        {1: -2, 2: 6, 11: -2, 22: 6},
        {1: -1, 2: 1, 11: 3, 22: 5},
        {1: -5, 2: 9, 11: 7, 22: -3},
    ),
    26: (
        {1: 1, 2: 5, 13: 3, 26: -1},
        {1: 3, 2: 3, 13: 1, 26: 1},
        {1: 1, 2: 3, 13: 3, 26: 1},
        {1: 3, 2: 1, 13: 1, 26: 3},
        {1: 1, 2: 1, 13: 3, 26: 3},
        {1: 3, 2: -1, 13: 1, 26: 5},
        {1: -1, 2: 3, 13: 5, 26: 1},
        {1: -1, 2: 5, 13: 5, 26: -1},
        {1: 7, 2: -3, 13: -3, 26: 7},
    ),
}


def registered_cusp_quotients(level: int) -> list[EtaQuotient]:
    return [EtaQuotient.from_dict(level, exps) for exps in REGISTERED_CUSP_EXPONENTS[level]]


SEARCH_CAP = 9  # the exponent bound of the walk cusp_quotients_for_level returns


def cusp_quotients_for_level(level: int) -> Iterable[EtaQuotient]:
    """Basis candidates at this level: the registered family, else the lazy
    walk over the weight-4 eta quotients with exponents in [-SEARCH_CAP,
    SEARCH_CAP], in walk order, which runs only as far as build_basis pulls.
    A level where 4*mu/12 is not an integer (3, 7, 13, 21, ...) has none, so
    its basis is the E4(q^t) block alone, which spans M4 at level 3."""
    if level in REGISTERED_CUSP_EXPONENTS:
        return registered_cusp_quotients(level)
    return walk_eta_quotients(level, SEARCH_CAP)


def shortfall(level: int, rank: int) -> str:
    """Why the E4(q^t) block and the candidates of cusp_quotients_for_level
    reach only this rank, short of dim M4: there is no weight-4 eta quotient
    at the level, or none with exponents up to SEARCH_CAP completes it."""
    total = Fraction(4 * gamma0_index(level), 12)
    if total.denominator != 1:
        reached = f"no weight-4 eta quotient exists (4*mu/12 = {total} is not an integer); E4(q^t) alone"
    else:
        reached = f"E4(q^t) and the eta quotients with exponents in [-{SEARCH_CAP}, {SEARCH_CAP}]"
    return f"{reached} reach rank {rank} of dim M4 = {dim_M4(level)}"


# -- basis types -----------------------------------------------------------


class BasisElement(NamedTuple):
    """One basis element: its generator, E4(t) or an eta quotient, and its series to q^B."""

    element_id: str
    generator: E4 | EtaQuotient
    series: list[int]

    @property
    def kind(self) -> str:
        return "eisenstein" if isinstance(self.generator, E4) else "cusp"


class Basis(NamedTuple):
    level: int
    elements: tuple[BasisElement, ...]
    # the primitive integer q^0..q^B rows, element i's tagged with e_i of width
    # dim M4(level); build_basis derives them from the elements alone, so
    # comparing them adds nothing to comparing the elements
    echelon: tuple[tuple[list[int], int], ...]


def build_basis(level: int, quotients) -> Basis:
    """The block E4(q^t), t | level, then the quotients in the order given,
    each kept if it is independent of the elements kept before it, until
    the basis has dim M4(level) elements or the quotients run out. The
    quotients may be any iterable; none is pulled once the basis is full.

    Every element is expanded once, to q^B, B the Sturm bound: a
    combination of weight-4 forms on Gamma_0(level) that vanishes on
    q^0..q^B is zero, so these elements are independent as modular forms.
    An E4(q^t) row that fails to enter the echelon raises Unsolvable.

    A basis short of dim M4 still proves what it solves: the target and
    every element lie in M4(Gamma_0(level)), so a combination that agrees
    with the target on q^0..q^B equals it. express_in_basis refuses a
    target outside the span.

    Every quotient looked at must be an admissible weight-4 modular form
    with vanishing constant term (positive leading exponent); like the
    walk, it may have order 0 at the other cusps.
    """
    bound = sturm_bound(level)
    needed = dim_M4(level)
    divs = divisors(level)
    kept: list[tuple[E4 | EtaQuotient, list[int]]] = []
    echelon: list[tuple[list[int], int]] = []
    generators = chain(map(E4, divs), quotients)
    while len(kept) < needed and (g := next(generators, None)) is not None:
        if isinstance(g, EtaQuotient):
            if g.level != level:
                raise ValueError(f"cusp quotient level {g.level} != {level}")
            report = check_admissibility(g)
            if not (report.is_modular_form and report.weight == 4):
                raise ValueError(f"cusp quotient {g} is not a weight-4 modular form")
            if g.leading_exponent_numerator == 0:
                raise ValueError(f"cusp quotient {g} has nonzero constant term")
        series = g.expand(bound)
        if insert_row(echelon, series + [int(j == len(kept)) for j in range(needed)], bound + 1):
            kept.append((g, series))
        elif isinstance(g, E4):
            raise Unsolvable(f"basis element E{g.t} is dependent on the elements before it on q^0..q^{bound}")
    ids = [f"E{t}" for t in divs] + [f"S{level}.{i}" for i in range(1, len(kept) - len(divs) + 1)]
    return Basis(level, tuple(BasisElement(i, *pair) for i, pair in zip(ids, kept)), tuple(echelon))


@lru_cache(maxsize=16)
def level_basis(level: int) -> Basis:
    """The basis build_basis makes of the level's own candidates
    (cusp_quotients_for_level), built once per process: it depends on the
    level alone, so every pair at the level shares it."""
    return build_basis(level, cusp_quotients_for_level(level))


def express_in_basis(target: list[int], basis: Basis) -> list[Fraction]:
    """The unique rational vector x with target = sum x_i * element_i.

    Both sides are weight-4 forms on Gamma_0(level), so they are equal when
    they agree on q^0..q^B, B the Sturm bound. The target row reduces
    against the basis echelon, whose rows are tagged with the elements' unit
    vectors (see arith.reduce_row): its first B + 1 entries vanish exactly
    when the target is in the span, and then x is minus its tag over the
    reduced row's scale.
    """
    bound = sturm_bound(basis.level)
    if len(target) - 1 < bound:
        raise ValueError(
            f"target truncation {len(target) - 1} is below the level-{basis.level} Sturm bound {bound}"
        )
    rest, m = reduce_row(basis.echelon, target[: bound + 1] + [0] * dim_M4(basis.level))
    n = next((n for n in range(bound + 1) if rest[n]), None)
    if n is not None:
        raise Unsolvable(f"target is not in the span of the basis: it leaves {Fraction(rest[n], m)} at q^{n}")
    return [Fraction(-c, m) for c in rest[bound + 1 : bound + 1 + len(basis.elements)]]
