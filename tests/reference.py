"""Independent references that more than one test module checks against."""

from fractions import Fraction


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
