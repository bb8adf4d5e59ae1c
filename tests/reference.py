"""Independent references that the tests check the pipeline against."""

import csv
import io
from fractions import Fraction
from math import gcd, isqrt, lcm

from divconv.arith import pack, rational_to_str, series_product, sigma, slot_bits, slot_bytes, widen
from divconv.convolution import VerificationReport, brute_force_W_table
from divconv.eta import EtaQuotient, _series, _walk, expand_eta_quotients


def sigma_at(k: int, n: int, delta: int) -> int:
    """sigma(k, n/delta) when delta | n, else 0, by trial division."""
    if delta < 1:
        raise ValueError(f"sigma_at requires delta >= 1, got {delta}")
    if n % delta:
        return 0
    return sigma(k, n // delta)


def brute_force_W(alpha: int, beta: int, n: int) -> int:
    """Sum of sigma(l) sigma(m) over l, m >= 0 with alpha*l + beta*m = n, for
    one n: the per-n reference of convolution.brute_force_W_table.

    Terms with l = 0 or m = 0 vanish since sigma(0) = 0. Accepts any
    positive alpha, beta (no coprimality requirement). sigma is found by
    trial division, so it shares no sieve with the table it checks."""
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


def reference_rank(series_list, max_index: int) -> int:
    """Rank over Q of the rows q^0..q^max_index of the integer series, by
    column-pivot Gaussian elimination: it shares no code with the
    arith.insert_row echelon that build_basis picks its elements with."""
    rows = [list(s[: max_index + 1]) for s in series_list]
    r = 0
    for col in range(max_index + 1):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1, 1) / rows[r][col]
        for i in range(r + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col] * inv
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def reference_multiply_pass(g: list[int], terms) -> list[int]:
    """g * (1 + sum c q^k) truncated to len(g), one coefficient at a time:
    the plain list loop that arith.multiply_pass packs into one integer."""
    out = list(g)
    for k, c in terms:
        for n in range(k, len(g)):
            out[n] += c * g[n - k]
    return out


def reference_packed_multiply_pass(state: tuple[int, int], terms) -> tuple[int, int]:
    """The packed multiply pass before runs of one coefficient were summed
    first, kept as the reference of arith.multiply_pass: the same exact
    slot check and widening, then one shift, scale and add per term."""
    value, size = state
    total = 1 + sum(abs(c) for _, c in terms)
    bits = slot_bits(value, size, 8 * size - 1 - total.bit_length())
    if (wide := slot_bytes(((1 << bits - 1) + 1) * total)) != size:
        value, size = widen(value, size, wide), wide
    out = value
    for k, c in terms:
        out += c * (value >> 8 * size * k)
    return out, size


def reference_sum_eta_quotients(quotients, weights, truncation: int) -> tuple[int, int, int]:
    """The per-quotient sum that eta.sum_eta_quotients replaced, kept as its
    oracle: (value, size, bound) of sum weights[i] quotients[i], packed as
    _walk yields each product; a product with no divide is bounded by
    slot_bits on the packed int, and one with cube divides is unpacked,
    divided on its own and packed again at the width of the sum."""
    value, size, bound, bits = 0, 1, 0, 1
    for i, e0, (product, width), divide in _walk(quotients, truncation):
        if divide:
            g = _series((product, width), e0, divide, truncation)
            most, width = max(map(abs, g)), 1
        else:
            bits = slot_bits(product, width, bits)
            most = 1 << bits - 1
        bound += abs(weights[i]) * most
        if (wide := max(slot_bytes(bound), width)) > size:
            value, size = widen(value, size, wide), wide
        if divide:
            product, width = pack(g + [0], size), size
        value += weights[i] * (widen(product, width, size) if width < size else product)
    return value, size, bound


def reference_csv(rows) -> str:
    """The rows as the csv module writes them, excel dialect: the text that
    the CSV commands wrote through csv.writer, and must still write."""
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def reference_pack(series, size: int) -> int:
    """The slot-by-slot path of arith.pack, kept as its reference past 8
    bytes: each slot written by int.to_bytes in two's complement, and the
    bytes read back as sum series[i] 2^(w (n - 1 - i)), w = 8 * size."""
    raw = b"".join([c.to_bytes(size, "big", signed=True) for c in series])
    off = int.from_bytes((b"\x80" + bytes(size - 1)) * len(series), "big")
    return (int.from_bytes(raw, "big") ^ off) - off


def reference_octonary_count_table(a: int, b: int, n_max: int) -> list[int]:
    """The dense theta products that representations.octonary_count_table
    replaced, kept as its reference: theta = 1 + 2 sum q^(m^2) as a list to
    q^(n_max // min(a, b)), theta^2 and theta^4 by series_product, and the
    count theta^4(q^a) theta^4(q^b) as one more."""
    m_max = n_max // min(a, b)
    theta = [1] + [0] * m_max
    for m in range(1, isqrt(m_max) + 1):
        theta[m * m] = 2
    theta2 = series_product(theta, 1, theta, 1, m_max)
    theta4 = series_product(theta2, 1, theta2, 1, m_max)
    return series_product(theta4, a, theta4, b, n_max)


def reference_reduce_row(echelon: list[tuple[list, int]], row: list) -> list:
    """The elimination over Q that arith.reduce_row replaced, kept as its
    oracle: row minus the multiples of the (row, pivot column) pairs of the
    echelon that clear its entries at their pivots, one Fraction per entry."""
    for erow, p in echelon:
        if row[p]:
            factor = Fraction(row[p]) / erow[p]
            row = [a - factor * b if b else a for a, b in zip(row, erow)]
    return row


def reference_insert_row(echelon: list[tuple[list, int]], row: list, width: int) -> bool:
    """Reduce row with reference_reduce_row; if it is nonzero in its first
    width entries, append it unnormalised, pivoting on the first nonzero one."""
    row = reference_reduce_row(echelon, row)
    pivot = next((j for j in range(width) if row[j]), None)
    if pivot is None:
        return False
    echelon.append((row, pivot))
    return True


def target_coefficient_via_sums(alpha: int, beta: int, n: int) -> int:
    """The q^n coefficient of convolution.target_series computed without any series:
    240 a^2 sigma3(n/a) + 240 b^2 sigma3(n/b) + 48 a (b - 6n) sigma(n/a)
    + 48 b (a - 6n) sigma(n/b) - 1152 a b W(a,b,n)."""
    return (
        240 * alpha**2 * sigma_at(3, n, alpha)
        + 240 * beta**2 * sigma_at(3, n, beta)
        + 48 * alpha * (beta - 6 * n) * sigma_at(1, n, alpha)
        + 48 * beta * (alpha - 6 * n) * sigma_at(1, n, beta)
        - 1152 * alpha * beta * brute_force_W(alpha, beta, n)
    )


def octonary_1_1_closed_form(n: int) -> int:
    """The purely multiplicative form of the (1,1) octonary count:
    16 sigma3(n) - 32 sigma3(n/2) + 256 sigma3(n/4)."""
    if n < 1:
        raise ValueError("n must be positive")
    return 16 * sigma(3, n) - 32 * sigma_at(3, n, 2) + 256 * sigma_at(3, n, 4)


def reference_scaled_values(formula, n_max: int) -> tuple[int, list[int]]:
    """The list evaluation that convolution._scaled_values packed, kept as
    its reference: (L, [L * value(n) for n = 0..n_max]), each sigma and
    sigma3 term added onto its slice of multiples, sigma by trial division,
    then each eta quotient expanded to a list and added coefficient by
    coefficient."""
    coefficients = [c for _, c in formula.terms] + [c for pair in formula.sigma_terms.values() for c in pair]
    scale = lcm(*(c.denominator for c in coefficients))
    values = [0] * (n_max + 1)
    sigma1, sigma3 = ([sigma(k, n) for n in range(n_max + 1)] for k in (1, 3))
    for d, (c0, c1) in formula.sigma_terms.items():
        a0, a1 = int(c0 * scale), int(c1 * scale) * d
        values[d::d] = [v + (a0 + a1 * j) * s for j, (v, s) in enumerate(zip(values[d::d], sigma1[1:]), 1)]
    for t, c in formula.sigma3_terms.items():
        a = int(c * scale)
        values[t::t] = [v + a * s for v, s in zip(values[t::t], sigma3[1:])]
    live = [(g, int(c * scale)) for g, c in formula.terms if c and isinstance(g, EtaQuotient)]
    for (_, a), series in zip(live, expand_eta_quotients([g for g, _ in live], n_max)):
        values = [v + a * x for v, x in zip(values, series)]
    values[0] = 0
    return scale, values


def reference_verify(formula, n_max: int) -> VerificationReport:
    """The report of convolution.verify_formula from reference_scaled_values,
    every n checked on its own against brute_force_W_table."""
    scale, values = reference_scaled_values(formula, n_max)
    oracles = brute_force_W_table(formula.alpha, formula.beta, n_max)
    mismatches = tuple(
        (n, rational_to_str(Fraction(values[n], scale)), oracles[n])
        for n in range(1, n_max + 1)
        if values[n] % scale or values[n] // scale != oracles[n] or values[n] < 0
    )
    return VerificationReport(formula.alpha, formula.beta, formula.certificate(), n_max, mismatches)
