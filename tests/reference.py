"""Independent references that the tests check the pipeline against."""

from fractions import Fraction

from divconv.arith import sigma, sigma_at
from divconv.convolution import brute_force_W


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
    the plain list loop that eta._multiply_pass packs into one integer."""
    out = list(g)
    for k, c in terms:
        for n in range(k, len(g)):
            out[n] += c * g[n - k]
    return out


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
