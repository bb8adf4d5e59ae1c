"""Weight-4 modular form spaces on Gamma_0(N): Eisenstein series, dimension
formulas, basis assembly, and exact expression of a series in a basis.

All linear algebra is one exact elimination over the rationals, _insert,
which adds a row to an incremental echelon if it is independent of it:
rank, select_independent and express_in_basis all build on it. There is
no floating point and therefore no stability concern, only reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import divisors, euler_phi, gamma0_index, prime_factorization, sigma_table
from .eta import EtaQuotient, check_admissibility, expand_eta_quotient, search_eta_quotients
from .qseries import QSeries


class BasisIncomplete(RuntimeError):
    """Eta quotients could not span the weight-4 cusp space at this level."""


class WrongCount(ValueError):
    """Cusp quotient list does not have dim S4(Gamma_0(N)) elements."""


class NotIndependent(ValueError):
    """Proposed basis elements are linearly dependent."""


class SingularSystem(ArithmeticError):
    """The solve rows stay rank-deficient all the way to the truncation."""


class Inconsistent(ArithmeticError):
    """Solution fails verification at some coefficient: target not in span."""


def eisenstein_L(truncation: int) -> QSeries:
    """E2-normalized series 1 - 24 sum sigma(n) q^n."""
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    table = sigma_table(1, truncation)
    return QSeries([1] + [-24 * table[n] for n in range(1, truncation + 1)], truncation)


def eisenstein_M(truncation: int) -> QSeries:
    """E4-normalized series 1 + 240 sum sigma_3(n) q^n."""
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    table = sigma_table(3, truncation)
    return QSeries([1] + [240 * table[n] for n in range(1, truncation + 1)], truncation)


def eisenstein_block(level: int, truncation: int) -> list[QSeries]:
    """E4(q^t) for every t | level, in divisor order, to the truncation."""
    m = eisenstein_M(truncation)
    return [m.substitute(t, cap=truncation) for t in divisors(level)]


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


def elliptic_points_order3(n: int) -> int:
    if n % 9 == 0:
        return 0
    count = 1
    for p in prime_factorization(n):
        if p == 3:
            continue
        if p % 3 == 1:
            count *= 2
        elif p % 3 == 2:
            return 0
    return count


def cusp_count(n: int) -> int:
    from math import gcd

    return sum(euler_phi(gcd(d, n // d)) for d in divisors(n))


def genus(n: int) -> int:
    g = Fraction(gamma0_index(n), 12) - Fraction(elliptic_points_order2(n), 4) \
        - Fraction(elliptic_points_order3(n), 3) - Fraction(cusp_count(n), 2) + 1
    assert g.denominator == 1
    return int(g)


def dim_M4(n: int) -> int:
    """dim of weight-4 modular forms on Gamma_0(N), standard valence formula."""
    return (
        3 * (genus(n) - 1)
        + elliptic_points_order2(n)
        + elliptic_points_order3(n)
        + 2 * cusp_count(n)
    )


def dim_E4(n: int) -> int:
    return cusp_count(n)


def dim_S4(n: int) -> int:
    return dim_M4(n) - dim_E4(n)


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
    try:
        family = REGISTERED_CUSP_EXPONENTS[level]
    except KeyError:
        raise KeyError(f"no registered cusp basis for level {level}") from None
    return [EtaQuotient.from_dict(level, exps) for exps in family]


def cusp_quotients_for_level(level: int, search_bound: int) -> list[EtaQuotient]:
    """The registered family at this level, else the first dim S4(level)
    quotients of the eta search with exponents in [-search_bound,
    search_bound] that are independent of the Eisenstein block and of each
    other."""
    if level in REGISTERED_CUSP_EXPONENTS:
        return registered_cusp_quotients(level)
    total = Fraction(4 * gamma0_index(level), 12)
    if total.denominator != 1:
        raise BasisIncomplete(
            f"level {level}: no weight-4 eta quotient exists "
            f"(4*mu/12 = {total} is not an integer)"
        )
    candidates = search_eta_quotients(level, 4, search_bound)
    quotients = select_independent(candidates, level, sturm_bound(level))
    needed = dim_S4(level)
    if len(quotients) < needed:
        raise BasisIncomplete(
            f"level {level}: eta quotients with exponents in [-{search_bound}, {search_bound}] "
            f"(--bound {search_bound}) reach rank {len(quotients)} of dim S4 = {needed}"
        )
    return quotients


# -- basis types -----------------------------------------------------------


@dataclass(frozen=True)
class BasisElement:
    """One basis element: an Eisenstein series M(q^t) or a cusp quotient."""

    kind: str  # "eisenstein" | "cusp"
    element_id: str
    series: QSeries
    t: int | None = None
    eta: EtaQuotient | None = None


@dataclass(frozen=True)
class Basis:
    level: int
    elements: tuple[BasisElement, ...]
    truncation: int

    @property
    def eisenstein_elements(self) -> list[BasisElement]:
        return [e for e in self.elements if e.kind == "eisenstein"]

    @property
    def cusp_elements(self) -> list[BasisElement]:
        return [e for e in self.elements if e.kind == "cusp"]


def _insert(echelon: list[tuple[list, int]], row: list, width: int) -> bool:
    """Reduce row against the (row, pivot column) pairs kept so far; if it is
    nonzero in its first width entries, append it, pivoting on the first
    nonzero one. Rows are not normalised, so int rows stay int until reduced."""
    for erow, p in echelon:
        if row[p]:
            factor = Fraction(row[p]) / erow[p]
            row = [a - factor * b for a, b in zip(row, erow)]
    pivot = next((j for j in range(width) if row[j]), None)
    if pivot is None:
        return False
    echelon.append((row, pivot))
    return True


def rank(series_list, max_index: int) -> int:
    """Rank over Q of the matrix rows = series coefficients q^0..q^max_index."""
    echelon: list[tuple[list, int]] = []
    return sum(_insert(echelon, s.coeffs[: max_index + 1], max_index + 1) for s in series_list)


def build_basis(level: int, cusp_quotients, truncation: int) -> Basis:
    """Assemble Eisenstein block + cusp block and certify independence.

    The truncation must reach the level's Sturm bound, so that the rank
    check and every identity solved in the basis hold for the modular forms
    themselves, not just their truncated series.

    Cusp quotients must be admissible modular forms with vanishing
    constant term (positive leading exponent); two of the registered
    level-22 quotients have cusp-order sum exactly 0 at d = 1, so the
    strict all-orders-positive condition is deliberately not required
    here.
    """
    bound = sturm_bound(level)
    if truncation < bound:
        raise ValueError(f"truncation {truncation} is below the level-{level} Sturm bound {bound}")
    cusp_quotients = list(cusp_quotients)
    expected = dim_S4(level)
    if len(cusp_quotients) != expected:
        raise WrongCount(
            f"level {level} needs {expected} cusp quotients, got {len(cusp_quotients)}"
        )
    elements = [
        BasisElement("eisenstein", f"E{t}", series, t=t)
        for t, series in zip(divisors(level), eisenstein_block(level, truncation))
    ]
    for i, quotient in enumerate(cusp_quotients, start=1):
        if quotient.level != level:
            raise ValueError(f"cusp quotient level {quotient.level} != {level}")
        report = check_admissibility(quotient)
        if not (report.is_modular_form and report.weight == 4):
            raise ValueError(f"cusp quotient {quotient} is not a weight-4 modular form")
        series = expand_eta_quotient(quotient, truncation)
        if series.coeffs[0] != 0:
            raise ValueError(f"cusp quotient {quotient} has nonzero constant term")
        elements.append(
            BasisElement("cusp", f"S{level}.{i}", series, eta=quotient)
        )
    if rank([e.series for e in elements], truncation) != len(elements):
        raise NotIndependent(f"level {level} basis elements are linearly dependent")
    return Basis(level, tuple(elements), truncation)


def standard_basis(level: int, truncation: int) -> Basis:
    """Basis from the registered cusp family (levels 14, 22, 26)."""
    return build_basis(level, registered_cusp_quotients(level), truncation)


def select_independent(quotients, level: int, truncation: int) -> list[EtaQuotient]:
    """Greedy prefix of quotients whose expansions are independent of the
    Eisenstein block E4(q^t), t | level, and of the quotients picked before
    them, stopping at dim S4(level). Used when a search returns an
    over-complete candidate list; build_basis accepts the picks with that
    block whenever there are dim S4(level) of them."""
    needed = dim_S4(level)
    chosen: list[EtaQuotient] = []
    echelon: list[tuple[list, int]] = []
    for series in eisenstein_block(level, truncation):
        _insert(echelon, series.coeffs[: truncation + 1], truncation + 1)
    for quotient in quotients:
        if len(chosen) == needed:
            break
        series = expand_eta_quotient(quotient, truncation)
        if _insert(echelon, series.coeffs[: truncation + 1], truncation + 1):
            chosen.append(quotient)
    return chosen


def express_in_basis(target: QSeries, basis: Basis) -> list[Fraction]:
    """The unique rational vector x with target = sum x_i * element_i.

    Coefficient index n = 0, 1, ... gives the augmented row (q^n coefficients
    of the elements, q^n coefficient of the target). Rows go into one
    echelon, pivoting only among the first size entries, until size of them
    are independent. Each echelon row is zero at the pivots of the rows
    inserted before it, so back-substitution in reverse insertion order
    gives x. x is then verified on every coefficient up to the basis
    truncation.
    """
    if target.truncation < basis.truncation:
        raise ValueError(
            f"target truncation {target.truncation} < basis truncation {basis.truncation}"
        )
    size = len(basis.elements)
    t = basis.truncation
    columns = [e.series.coeffs for e in basis.elements]
    echelon: list[tuple[list, int]] = []
    for n in range(t + 1):
        if len(echelon) == size:
            break
        _insert(echelon, [col[n] for col in columns] + [target.coeffs[n]], size)
    if len(echelon) < size:
        raise SingularSystem(
            f"only {len(echelon)} independent rows up to truncation {t}, need {size}"
        )
    x = [Fraction(0)] * size
    for row, p in reversed(echelon):
        x[p] = (row[size] - sum(row[j] * x[j] for j in range(size) if j != p)) / Fraction(row[p])
    # full verification: every coefficient index must agree exactly
    for n in range(t + 1):
        acc = sum(x[j] * columns[j][n] for j in range(size))
        if acc != target.coeffs[n]:
            raise Inconsistent(
                f"expansion fails at q^{n}: got {acc}, target {target.coeffs[n]}"
            )
    return x
