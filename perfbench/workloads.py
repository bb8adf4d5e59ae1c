"""The benchmark's workloads: the divconv commands of one iteration, and the
checks their outputs must pass.

The seed changes only the order of the commands (or of the table's pairs)
and the n values of the independent spot checks, never the work done.
Why each workload exists is in BENCHMARK.json and NOTES.md.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

# The paper's five closed forms for W(alpha, beta)(n): coefficients of
# sigma3(n/d), of (c0 + c1 n) sigma(n/d), and of the registered cusp
# series S<level>.<i> in registered order.
PUBLISHED = {
    (2, 7): dict(
        sigma3={1: F(1, 600), 2: F(1, 150), 7: F(49, 600), 14: F(49, 150)},
        sigma={2: (F(1, 24), F(-1, 28)), 7: (F(1, 24), F(-1, 8))},
        cusp=[F(-1, 600), F(-1, 4200), F(-1, 75), F(-1, 42)],
    ),
    (1, 22): dict(
        sigma3={1: F(17, 1464), 2: F(-1, 122), 11: F(35, 488), 22: F(125, 366)},
        sigma={1: (F(1, 24), F(-1, 88)), 22: (F(1, 24), F(-1, 4))},
        cusp=[F(-21, 2684), F(-159, 5368), F(-69, 5368), F(-32, 671), F(2, 61), F(-7, 8), F(-3, 88)],
    ),
    (2, 11): dict(
        sigma3={1: F(-5, 488), 2: F(5, 366), 11: F(137, 1464), 22: F(39, 122)},
        sigma={2: (F(1, 24), F(-1, 44)), 11: (F(1, 24), F(-1, 8))},
        cusp=[F(-16, 671), F(-1241, 5368), F(-4029, 5368), F(-668, 671), F(-362, 671), F(7, 8), F(3, 88)],
    ),
    (1, 26): dict(
        sigma3={1: F(1, 2040), 2: F(1, 510), 13: F(169, 2040), 26: F(169, 510)},
        sigma={1: (F(1, 24), F(-1, 104)), 26: (F(1, 24), F(-1, 4))},
        cusp=[F(-863, 26520), F(43, 5304), F(-215, 1768), F(71, 1020), F(43, 408), F(0), F(-863, 2040), F(-379, 3315), F(1, 2040)],
    ),
    (2, 13): dict(
        sigma3={1: F(1, 2040), 2: F(1, 510), 13: F(169, 2040), 26: F(169, 510)},
        sigma={2: (F(1, 24), F(-1, 52)), 13: (F(1, 24), F(-1, 8))},
        cusp=[F(-1, 2040), F(-127, 5304), F(-181, 1768), F(-947, 13260), F(-127, 408), F(0), F(-13, 2040), F(46, 3315), F(863, 26520)],
    ),
}

PAPER_PAIRS = tuple(PUBLISHED)
VERIFY_DEEP_PAIRS = ((1, 26), (2, 13))  # fixed order: the first writes the cache, the second may read it
VERIFY_DEEP_N = 3000
SEARCH_PAIRS = ((2, 3), (2, 5), (3, 4), (4, 5), (3, 5), (3, 7))
SEARCH_MAY_REFUSE = {(3, 5), (3, 7)}  # at bound 4: incomplete box at level 15, no eta basis at level 21
SEARCH_BOUND = 4
SEARCH_N = 200
OCTONARY_PAIRS = ((1, 1), (1, 3), (2, 3), (1, 9))
OCTONARY_N = 1000
OCTONARY_SPOT = 4  # spot-checked n per rep command against octonary_convolution
LATTICE_N = 10  # largest n the 8-dimensional lattice count is run for
LATTICE_SPOT = 2

#: stands for a cache directory that run.py creates fresh for each
#: iteration, shared by the iteration's commands
CACHE_DIR = "@cache-dir"


@dataclass(frozen=True)
class Command:
    kind: str  # "table" | "verify" | "rep"
    args: tuple[str, ...]
    pairs: tuple[tuple[int, int], ...]
    nmax: int = 0
    may_refuse: bool = False
    spot: tuple[int, ...] = ()

    @property
    def label(self) -> str:
        pairs = ";".join(f"{a},{b}" for a, b in self.pairs)
        return f"{self.kind}({pairs})"


@dataclass(frozen=True)
class Workload:
    name: str
    iteration: Callable[[random.Random], list[Command]]
    selfcheck: Callable[[random.Random], Command]  # a short command of the same kind
    truncation: int  # micro-benchmark sizes; 0 skips the group
    nmax: int
    cache_level: int


def _table(pairs) -> Command:
    spec = ";".join(f"{a},{b}" for a, b in pairs)
    return Command("table", ("table", "--pairs", spec), tuple(pairs))


def _verify(pair, truncation, nmax, extra=(), may_refuse=False) -> Command:
    a, b = pair
    args = ("--truncation", str(truncation), *extra, "verify", "--alpha", str(a), "--beta", str(b), "--nmax", str(nmax))
    return Command("verify", args, (pair,), nmax, may_refuse)


def _rep(pair, rng: random.Random) -> Command:
    a, b = pair
    spot = tuple(rng.sample(range(LATTICE_N + 1, OCTONARY_N + 1), OCTONARY_SPOT)) + tuple(
        rng.sample(range(1, LATTICE_N + 1), LATTICE_SPOT)
    )
    return Command("rep", ("rep", "--a", str(a), "--b", str(b), "--nmax", str(OCTONARY_N)), (pair,), OCTONARY_N, spot=spot)


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _verify_deep(pair) -> Command:
    return _verify(pair, VERIFY_DEEP_N, VERIFY_DEEP_N, ("--cache-dir", CACHE_DIR))


def _search(pair) -> Command:
    return _verify(pair, SEARCH_N, SEARCH_N, ("--bound", str(SEARCH_BOUND)), pair in SEARCH_MAY_REFUSE)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-table",
            lambda rng: [_table(_shuffled(rng, PAPER_PAIRS))],
            lambda rng: _table(PAPER_PAIRS[:1]),
            1000, 0, 0,
        ),
        Workload(
            "verify-deep",
            lambda rng: [_verify_deep(pair) for pair in VERIFY_DEEP_PAIRS],
            lambda rng: _verify(VERIFY_DEEP_PAIRS[1], 1000, 1000, ("--cache-dir", CACHE_DIR)),
            VERIFY_DEEP_N, VERIFY_DEEP_N, 26,
        ),
        Workload(
            "search-derive",
            lambda rng: [_search(pair) for pair in _shuffled(rng, SEARCH_PAIRS)],
            lambda rng: _search(SEARCH_PAIRS[1]),
            SEARCH_N, SEARCH_N, 0,
        ),
        Workload(
            "octonary-rep",
            lambda rng: [_rep(pair, rng) for pair in _shuffled(rng, OCTONARY_PAIRS)],
            lambda rng: _rep(OCTONARY_PAIRS[-1], rng),
            0, OCTONARY_N, 0,
        ),
    )
}


def shared_level_frac(commands: list[Command]) -> float:
    """Share of pairs whose level an earlier pair of the same iteration needed."""
    seen, shared, total = set(), 0, 0
    for command in commands:
        if command.kind == "rep":
            continue
        for a, b in command.pairs:
            total += 1
            shared += a * b in seen
            seen.add(a * b)
    return shared / total if total else 0.0


# -- output checks -----------------------------------------------------------


def published_rows(pair) -> dict[str, F]:
    display = PUBLISHED[pair]
    rows = {f"sigma3(n/{d})": c for d, c in display["sigma3"].items()}
    for d, (c0, c1) in display["sigma"].items():
        rows[f"sigma(n/{d}).const"] = c0
        rows[f"sigma(n/{d}).linear"] = c1
    level = pair[0] * pair[1]
    rows.update({f"cusp.S{level}.{i}": c for i, c in enumerate(display["cusp"], start=1)})
    return rows


def check(command: Command, exit_code: int, stdout: str, stderr: str) -> tuple[str, str]:
    """("ok" | "refused" | "failed", reason). A refusal is an allowed exit 3."""
    if command.may_refuse and exit_code == 3 and not stdout and stderr.startswith("error:"):
        return "refused", stderr.strip()
    if exit_code != 0:
        return "failed", f"exit {exit_code}: {stderr.strip()[-300:]}"
    try:
        return {"table": _check_table, "verify": _check_verify, "rep": _check_rep}[command.kind](command, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return "failed", f"unreadable output: {exc!r}"


def _check_table(command: Command, stdout: str) -> tuple[str, str]:
    rows = list(csv.reader(io.StringIO(stdout)))
    if rows[0] != ["alpha", "beta", "term", "coefficient"]:
        return "failed", f"header {rows[0]}"
    got: dict[tuple[int, int], dict[str, F]] = {}
    for a, b, term, coefficient in rows[1:]:
        got.setdefault((int(a), int(b)), {})[term] = F(coefficient)
    for pair in command.pairs:
        if got.get(pair) != published_rows(pair):
            return "failed", f"coefficients of {pair} differ from the published ones"
    if set(got) != set(command.pairs) or len(rows) - 1 != sum(len(published_rows(p)) for p in command.pairs):
        return "failed", "unexpected or repeated rows"
    return "ok", ""


def _check_verify(command: Command, stdout: str) -> tuple[str, str]:
    report = json.loads(stdout)
    (a, b), = command.pairs
    if (report["alpha"], report["beta"]) != (a, b):
        return "failed", f"report is for ({report['alpha']}, {report['beta']})"
    if report["mismatches"] or report["checked"] != command.nmax:
        return "failed", f"checked {report['checked']} of {command.nmax}, mismatches {report['mismatches'][:3]}"
    return "ok", ""


def _check_rep(command: Command, stdout: str) -> tuple[str, str]:
    from divconv.representations import octonary_convolution, octonary_lattice

    rows = list(csv.reader(io.StringIO(stdout)))
    if rows[0] != ["n", "formula_value", "oracle_value", "match"]:
        return "failed", f"header {rows[0]}"
    body = rows[1:]
    if len(body) != command.nmax:
        return "failed", f"{len(body)} rows, expected {command.nmax}"
    for n, (n_text, formula, oracle, match) in enumerate(body, start=1):
        if int(n_text) != n or match != "true" or formula != oracle:
            return "failed", f"row {n}: {n_text},{formula},{oracle},{match}"
    (a, b), = command.pairs
    for n in command.spot:
        expected = octonary_lattice(a, b, n) if n <= LATTICE_N else octonary_convolution(a, b, n)
        if int(body[n - 1][1]) != expected:
            return "failed", f"n={n}: formula {body[n - 1][1]}, independent count {expected}"
    return "ok", ""
