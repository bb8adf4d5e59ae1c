"""Convolution sums of sigma over al + bm = n: brute-force oracle (one n at
a time, or the whole range as one exact series product), the squared
Eisenstein difference target series, closed-formula derivation by solving
in the level's own weight-4 basis at the Sturm bound (derive_formula; the
basis is built once per level, so pairs at one level share it), and exact
range verification. Every series here is a plain list of its integer
coefficients q^0..q^n_max.

A formula carries the generators of its basis with their coefficients, so
verify_formula reaches any n_max on its own. _scaled_values evaluates the
whole range at once in integers: every coefficient is scaled by the lcm L
of the formula's denominators, the sigma terms step through the multiples
of their d, each generator expands itself (the eta quotients together,
their shared passes run once), and the sums are divided by L only at the
end. The oracle side of verify_formula is brute_force_W_table, the
product of the sigma_table series at q^alpha and at q^beta, which
series_product forms one residue class at a time, never spreading either
series to q^n_max; the per-n reference brute_force_W reads trial-division
sigma, so it shares no sieve with the table it checks. The formula side
reads sigma_sieve, so it stays independent of both oracles. A report
carries the formula's certificate, its Sturm bound and basis rank against
dim M4, next to the range the oracle agreed on."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .arith import MAX_TRUNCATION, rational_to_str, series_product, sigma, sigma_at, sigma_sieve, sigma_table, spread
from .eta import EtaQuotient, expand_eta_quotients
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


def brute_force_W(alpha: int, beta: int, n: int) -> int:
    """Sum of sigma(l) sigma(m) over l, m >= 0 with alpha*l + beta*m = n.

    Terms with l = 0 or m = 0 vanish since sigma(0) = 0. Accepts any
    positive alpha, beta (no coprimality requirement). sigma is found by
    trial division, not read from the sigma_table of brute_force_W_table."""
    if alpha < 1 or beta < 1 or n < 1:
        raise ValueError("brute_force_W requires alpha, beta, n >= 1")
    # alpha*l = n (mod beta) is solvable iff g | n, and then exactly on one
    # residue class l = l0 (mod beta/g); every other l contributes nothing
    g = gcd(alpha, beta)
    if n % g:
        return 0
    step = beta // g
    l0 = (n // g) * pow(alpha // g, -1, step) % step or step
    return sum(
        sigma(1, l) * sigma(1, (n - alpha * l) // beta) for l in range(l0, (n - 1) // alpha + 1, step)
    )


def brute_force_W_table(alpha: int, beta: int, n_max: int) -> list[int]:
    """brute_force_W(alpha, beta, n) for n = 0..n_max (index 0 holds 0).

    W(alpha,beta) is the q-series product of sum sigma(l) q^(alpha l) and
    sum sigma(m) q^(beta m), so the whole range is one exact series_product
    of the sigma_table series at q^alpha and at q^beta."""
    if alpha < 1 or beta < 1 or n_max < 0:
        raise ValueError("brute_force_W_table requires alpha, beta >= 1 and n_max >= 0")
    table = sigma_table(1, n_max)
    return series_product(table, alpha, table, beta, n_max)


def target_series(alpha: int, beta: int, truncation: int) -> list[int]:
    """(alpha L(q^alpha) - beta L(q^beta))^2, constant term (alpha-beta)^2;
    the square runs over the nonzero terms of the difference alone."""
    if gcd(alpha, beta) != 1:
        raise ValueError(f"alpha and beta must be coprime, got ({alpha}, {beta})")
    l = eisenstein_L(truncation)
    diff = [alpha * x - beta * y for x, y in zip(spread(l, alpha, truncation), spread(l, beta, truncation))]
    terms = [(i, c) for i, c in enumerate(diff) if c]
    square = [0] * (truncation + 1)
    for i, a in terms:
        for j, b in terms:
            if i + j > truncation:
                break
            square[i + j] += a * b
    return square


def target_coefficient_via_sums(alpha: int, beta: int, n: int) -> int:
    """The q^n coefficient of target_series computed without any series:
    240 a^2 sigma3(n/a) + 240 b^2 sigma3(n/b) + 48 a (b - 6n) sigma(n/a)
    + 48 b (a - 6n) sigma(n/b) - 1152 a b W(a,b,n)."""
    return (
        240 * alpha**2 * sigma_at(3, n, alpha)
        + 240 * beta**2 * sigma_at(3, n, beta)
        + 48 * alpha * (beta - 6 * n) * sigma_at(1, n, alpha)
        + 48 * beta * (alpha - 6 * n) * sigma_at(1, n, beta)
        - 1152 * alpha * beta * brute_force_W(alpha, beta, n)
    )


@dataclass(frozen=True)
class ConvolutionFormula:
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

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "level": self.level,
            **self.certificate(),
            "sigma3": {str(d): rational_to_str(c) for d, c in self.sigma3_terms.items()},
            "sigma": {
                str(d): [rational_to_str(c0), rational_to_str(c1)]
                for d, (c0, c1) in self.sigma_terms.items()
            },
            "cusp": [[eid, rational_to_str(c)] for eid, c in self.cusp_terms],
        }


def derive_formula(alpha: int, beta: int) -> ConvolutionFormula:
    """The formula for W(alpha,beta), solved in a basis that stops at the
    level's Sturm bound, which proves the identity for every n.

    The target, sum x_g g in the level's basis, is on q^n, n >= 1, alpha^2
    E4(q^alpha) + beta^2 E4(q^beta) - 1152 alpha beta W(n) plus sigma terms
    (target_coefficient_via_sums), so generator g gets (own_g - x_g) / (1152
    alpha beta), own_g being alpha^2 at E4(alpha), beta^2 at E4(beta) and 0
    elsewhere. A basis short of dim M4 whose span misses the target raises
    Unsolvable with the rank it reached and why (modforms.shortfall)."""
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


def _scaled_values(formula: ConvolutionFormula, n_max: int) -> tuple[int, list[int]]:
    """(L, [L * value(n) for n = 0..n_max]) with L the lcm of the formula's
    denominators, so every term is an integer product and the sums stay in
    int. sigma and E4 read sigma_sieve, which shares no code with the
    sigma_table that brute_force_W reads. Each generator with a nonzero
    coefficient is expanded to n_max, the eta quotients together by
    expand_eta_quotients; index 0 holds 0."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    coefficients = [c for _, c in formula.terms] + [c for pair in formula.sigma_terms.values() for c in pair]
    scale = lcm(*(c.denominator for c in coefficients))
    values = [0] * (n_max + 1)
    sigma1 = sigma_sieve(1, n_max)
    for d, (c0, c1) in formula.sigma_terms.items():
        a0, a1 = int(c0 * scale), int(c1 * scale) * d
        values[d::d] = [v + (a0 + a1 * j) * s for j, (v, s) in enumerate(zip(values[d::d], sigma1[1:]), 1)]
    live = [(g, int(c * scale)) for g, c in formula.terms if c]
    quotients = [g for g, _ in live if isinstance(g, EtaQuotient)]
    batch = dict(zip(quotients, expand_eta_quotients(quotients, n_max)))
    for g, a in live:
        series = batch[g] if g in batch else g.expand(n_max)
        values = [v + a * x for v, x in zip(values, series)]
    values[0] = 0
    return scale, values


@dataclass(frozen=True)
class VerificationReport:
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
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            **self.certificate,
            "checked": self.checked,
            "mismatches": [list(m) for m in self.mismatches],
        }


def verify_formula(formula: ConvolutionFormula, n_max: int) -> VerificationReport:
    """Check formula == brute force (and integrality) for 1 <= n <= n_max.

    The oracle column is brute_force_W_table over the whole range.
    Mismatches are collected in the report, never raised."""
    scale, values = _scaled_values(formula, n_max)
    oracles = brute_force_W_table(formula.alpha, formula.beta, n_max)
    mismatches: list[tuple[int, str, int]] = []
    for n in range(1, n_max + 1):
        num, oracle = values[n], oracles[n]
        if num % scale or num // scale != oracle or num < 0:
            mismatches.append((n, rational_to_str(Fraction(num, scale)), oracle))
    return VerificationReport(
        alpha=formula.alpha,
        beta=formula.beta,
        certificate=formula.certificate(),
        checked=n_max,
        mismatches=tuple(mismatches),
    )
