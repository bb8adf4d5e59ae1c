"""Convolution sums of sigma over al + bm = n: the brute-force oracle (the
whole range as one exact series product), the squared Eisenstein
difference target series (a signed series product), formula derivation by
solving in the level's own weight-4 basis at the Sturm bound
(derive_formula; the basis is built once per level, so pairs at one level
share it), and exact range verification. Every series here is a plain
list of its integer coefficients q^0..q^n_max, but the evaluation that
verify_formula checks, which stays packed (arith.pack).

A formula carries the generators of its basis with their coefficients, so
verify_formula reaches any n_max on its own. _scaled_values evaluates the
whole range at once in integers: every coefficient is scaled by the lcm L
of the formula's denominators, each sigma and sigma3 term is added onto
the multiples of its divisor, the eta quotients are summed packed
(eta.sum_eta_quotients), and the sum is compared with L times the packed
oracle column as one int, unpacked only when they differ. Each side of
the proof has one source of divisor sums: the target and the values of
the formula read sigma_sieve, and the oracle, brute_force_W_table, is one
series_product of the sigma_table series at q^alpha and at q^beta.
A report carries the formula's certificate, its Sturm bound and basis rank
against dim M4, next to the range the oracle agreed on."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .arith import MAX_TRUNCATION, pack, rational_to_str, series_product, sigma_sieve, sigma_table, slot_bytes
from .arith import spread, unpack, widen
from .eta import EtaQuotient, sum_eta_quotients
from .modforms import (
    E4,
    Unsolvable,
    dim_M4,
    eisenstein_L,
    express_in_basis,
    level_basis,
    shortfall,
    sturm_bound,
)


def brute_force_W_table(alpha: int, beta: int, n_max: int) -> list[int]:
    """W(alpha,beta)(n), the sum of sigma(l) sigma(m) over l, m >= 1 with
    alpha l + beta m = n, for n = 0..n_max (index 0 holds 0) and any positive
    alpha, beta: the product of sum sigma(l) q^(alpha l) and sum sigma(m)
    q^(beta m), one exact series_product of the sigma_table series."""
    if alpha < 1 or beta < 1 or n_max < 0:
        raise ValueError("brute_force_W_table requires alpha, beta >= 1 and n_max >= 0")
    table = sigma_table(1, n_max)
    return series_product(table, alpha, table, beta, n_max)


def target_series(alpha: int, beta: int, truncation: int) -> list[int]:
    """(alpha L(q^alpha) - beta L(q^beta))^2, constant term (alpha-beta)^2;
    the difference has signed coefficients, and series_product squares it."""
    if gcd(alpha, beta) != 1:
        raise ValueError(f"alpha and beta must be coprime, got ({alpha}, {beta})")
    l = eisenstein_L(truncation)
    diff = [alpha * x - beta * y for x, y in zip(spread(l, alpha, truncation), spread(l, beta, truncation))]
    return series_product(diff, 1, diff, 1, truncation)


class ConvolutionFormula(NamedTuple):
    """Closed form for W(alpha,beta)(n): (c0 + c1 n) sigma(n/d) for d in
    (alpha, beta), plus a rational coefficient on the q^n coefficient of
    each generator in terms, E4(q^t) or an eta quotient, in basis order."""

    alpha: int
    beta: int
    terms: tuple[tuple[E4 | EtaQuotient, Fraction], ...]

    @property
    def level(self) -> int:
        return self.alpha * self.beta

    @property
    def sigma3_terms(self) -> dict[int, Fraction]:
        """The coefficient of sigma_3(n/t): 240 times that of E4(q^t)."""
        return {g.t: 240 * c for g, c in self.terms if isinstance(g, E4)}

    @property
    def cusp_terms(self) -> tuple[tuple[str, Fraction], ...]:
        cusp = [c for g, c in self.terms if isinstance(g, EtaQuotient)]
        return tuple((f"S{self.level}.{i}", c) for i, c in enumerate(cusp, 1))

    @property
    def sigma_terms(self) -> dict[int, tuple[Fraction, Fraction]]:
        """(c0, c1) for each d: 48 alpha beta and -288 d over 1152 alpha beta."""
        return {d: (Fraction(1, 24), Fraction(-d, 4 * self.level)) for d in (self.alpha, self.beta)}

    def certificate(self) -> dict[str, int]:
        """Why the formula holds for every n: it was solved on q^0..q^B, B
        the Sturm bound, in a basis of basis_rank elements of M4, whose
        dimension is dim_M4."""
        return {
            "sturm_bound": sturm_bound(self.level),
            "basis_rank": len(self.terms),
            "dim_M4": dim_M4(self.level),
        }

    def rendered_terms(self) -> dict:
        """The sigma3, sigma and cusp coefficients as strings, as derive prints and table lists them."""
        return {
            "sigma3": {str(d): rational_to_str(c) for d, c in self.sigma3_terms.items()},
            "sigma": {str(d): [rational_to_str(c0), rational_to_str(c1)] for d, (c0, c1) in self.sigma_terms.items()},
            "cusp": [[eid, rational_to_str(c)] for eid, c in self.cusp_terms],
        }

    def to_json_dict(self) -> dict:
        pair = {"alpha": self.alpha, "beta": self.beta, "level": self.level}
        return {**pair, **self.certificate(), **self.rendered_terms()}


def derive_formula(alpha: int, beta: int) -> ConvolutionFormula:
    """The formula for W(alpha,beta), solved in a basis that stops at the
    level's Sturm bound, which proves the identity for every n.

    The target (target_series), sum x_g g in the level's basis, is on q^n,
    n >= 1, alpha^2 E4(q^alpha) + beta^2 E4(q^beta) - 1152 alpha beta W(n)
    plus sigma terms, so generator g gets (own_g - x_g) / (1152 alpha beta),
    own_g being alpha^2 at E4(alpha), beta^2 at E4(beta) and 0 elsewhere. A
    basis short of dim M4 whose span misses the target raises Unsolvable
    with the rank it reached and why (modforms.shortfall)."""
    if not 1 <= alpha < beta:
        raise ValueError(f"derivation requires 1 <= alpha < beta, got ({alpha}, {beta})")
    level = alpha * beta
    if level > MAX_TRUNCATION:
        raise ValueError(f"level alpha*beta must be at most {MAX_TRUNCATION}, got {level}")
    target = target_series(alpha, beta, sturm_bound(level))  # refuses a pair that is not coprime
    basis = level_basis(level)
    try:
        x = express_in_basis(target, basis)
    except Unsolvable as exc:
        rank = len(basis.elements)
        if rank == dim_M4(level):
            raise
        raise Unsolvable(
            f"level {level}: {shortfall(level, rank)}, and the W({alpha},{beta}) target is not in their span"
        ) from exc
    own = {E4(alpha): alpha * alpha, E4(beta): beta * beta}
    terms = tuple((e.generator, (own.get(e.generator, 0) - c) / (1152 * level)) for c, e in zip(x, basis.elements))
    return ConvolutionFormula(alpha, beta, terms)


def _scaled_values(formula: ConvolutionFormula, n_max: int) -> tuple[int, int, int]:
    """(L, size, value): value packs L * value(n) for n = 0..n_max in slots
    of size bytes (arith.pack), with L the lcm of the formula's
    denominators, so every term is an integer product. Each c sigma_k(n/t)
    term (k = 1, 3) is added onto the list slice of multiples of t, from one
    sigma_sieve of both k, which shares no code with the sigma_table that
    brute_force_W_table reads. The list is packed once and added to the
    eta.sum_eta_quotients of the quotients with a nonzero coefficient, in
    slots that hold both bounds; the spare slot is rounded away. Slot 0
    holds 0, as every quotient of a formula is a cusp form."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    coefficients = [c for _, c in formula.terms] + [c for pair in formula.sigma_terms.values() for c in pair]
    scale = lcm(*(c.denominator for c in coefficients))
    values = [0] * (n_max + 1)
    sigma1, sigma3 = sigma_sieve((1, 3), n_max)
    for d, (c0, c1) in formula.sigma_terms.items():
        a0, a1 = int(c0 * scale), int(c1 * scale) * d
        values[d::d] = [v + (a0 + a1 * j) * s for j, (v, s) in enumerate(zip(values[d::d], sigma1[1:]), 1)]
    for t, c in formula.sigma3_terms.items():
        a = int(c * scale)
        values[t::t] = [v + a * s for v, s in zip(values[t::t], sigma3[1:])]
    live = [(g, int(c * scale)) for g, c in formula.terms if c and isinstance(g, EtaQuotient)]
    cusp, width, bound = sum_eta_quotients([g for g, _ in live], [a for _, a in live], n_max)
    if (size := max(width, slot_bytes(bound + max(map(abs, values))))) > width:
        cusp = widen(cusp, width, size)
    total = pack(values + [0], size) + cusp
    return scale, size, (total + (1 << 8 * size - 1)) >> 8 * size


class VerificationReport(NamedTuple):
    """A formula checked against the oracle on 1..checked, with the
    formula's Sturm-bound certificate (ConvolutionFormula.certificate)."""

    alpha: int
    beta: int
    certificate: dict[str, int]
    checked: int
    mismatches: tuple[tuple[int, str, int], ...]  # (n, formula value, oracle value)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json_dict(self) -> dict:
        pair, mismatches = {"alpha": self.alpha, "beta": self.beta}, [list(m) for m in self.mismatches]
        return {**pair, **self.certificate, "checked": self.checked, "mismatches": mismatches}


def verify_formula(formula: ConvolutionFormula, n_max: int) -> VerificationReport:
    """Check formula == brute force (and integrality) for 1 <= n <= n_max.

    L times the packed oracle column (brute_force_W_table) is compared with
    _scaled_values as one int, in its slots, since two packings with every
    slot in range are equal exactly when each slot is; as W(n) >= 0, that
    proves integrality too. Only a column too wide for the slots or a
    difference is checked n by n. Mismatches are reported, never raised."""
    scale, size, value = _scaled_values(formula, n_max)
    oracles = brute_force_W_table(formula.alpha, formula.beta, n_max)
    mismatches: list[tuple[int, str, int]] = []
    if slot_bytes(scale * max(oracles)) > size or value != scale * pack(oracles, size):
        values = unpack(value, size, n_max + 1, n_max + 1)
        for n in range(1, n_max + 1):
            num, oracle = values[n], oracles[n]
            if num % scale or num // scale != oracle or num < 0:
                mismatches.append((n, rational_to_str(Fraction(num, scale)), oracle))
    return VerificationReport(formula.alpha, formula.beta, formula.certificate(), n_max, tuple(mismatches))
