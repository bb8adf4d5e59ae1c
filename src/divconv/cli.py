"""Command-line front end: JSON/CSV emission and the on-disk series cache.

Exit codes: 0 success, 1 verification mismatch, 2 input error (ValueError,
or OSError reading an @file), 3 the basis cannot express the target
(modforms.Unsolvable).
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

# divconv before click: importing in this order keeps a command's peak RSS down.
from . import convolution, eta, modforms, representations
from .arith import MAX_TRUNCATION, rational_to_str
from .cache import SeriesCache
from .modforms import SEARCH_CAP, Unsolvable

import click

EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3


class DivconvGroup(click.Group):
    """Maps pipeline exceptions to exit codes for every subcommand."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (Unsolvable, ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(EXIT_SOLVER if isinstance(exc, Unsolvable) else EXIT_INPUT)


def _parse_quotient(text: str) -> eta.EtaQuotient:
    """Quotient JSON, inline or @file; JSON nested past the parser's
    recursion limit is an input error too."""
    if text.startswith("@"):
        text = Path(text[1:]).read_text()
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("quotient JSON is nested too deeply") from None
    return eta.EtaQuotient.from_json_dict(data)


def _emit_json(data) -> None:
    click.echo(json.dumps(data, indent=2))


def _emit_csv(rows) -> None:
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    click.echo(out.getvalue().rstrip("\n"))


@click.group(cls=DivconvGroup)
@click.option(
    "--truncation",
    default=1000,
    show_default=True,
    type=click.IntRange(1, MAX_TRUNCATION),
    help="Series length for expand only; bases and formulas live at the Sturm bound.",
)
@click.option("--cache-dir", default=None, type=click.Path(), help="q-expansion cache directory for expand.")
@click.option(
    "--bound",
    "search_bound",
    default=SEARCH_CAP,
    show_default=True,
    type=click.IntRange(min=1),
    help="Exponent bound for search.",
)
def main(truncation, cache_dir, search_bound):
    """Exact evaluation of divisor-sum convolution identities."""


@main.command()
@click.argument("quotient_json")
@click.pass_context
def expand(ctx, quotient_json):
    """Expand an eta quotient (JSON, inline or @file) to a q-series."""
    truncation, cache_dir = ctx.parent.params["truncation"], ctx.parent.params["cache_dir"]
    quotient = _parse_quotient(quotient_json)
    params = {"kind": "eta", **quotient.to_json_dict(), "truncation": truncation}
    cache = SeriesCache(cache_dir) if cache_dir else None
    series = cache.get(params) if cache is not None else None
    if series is None:
        series = eta.expand_eta_quotient(quotient, truncation)
        if cache is not None:
            cache.put(params, series)
    click.echo(json.dumps(series.to_json_dict()))


@main.command()
@click.argument("quotient_json")
def ligozat(quotient_json):
    """Print the admissibility report for an eta quotient as JSON."""
    _emit_json(eta.check_admissibility(_parse_quotient(quotient_json)).to_json_dict())


@main.command()
@click.option("--level", required=True, type=click.IntRange(1, MAX_TRUNCATION))
@click.pass_context
def search(ctx, level):
    """Admissible weight-4 eta quotients vanishing at infinity, all |r_d| <= --bound.

    Built from cusp-order vectors, so complete within that bound; a level
    where 4*mu/12 is not an integer has none."""
    found = eta.search_eta_quotients(level, ctx.parent.params["search_bound"])
    _emit_json([q.to_json_dict() for q in found])


@main.command()
@click.option("--level", required=True, type=click.IntRange(1, MAX_TRUNCATION))
def basis(level):
    """Emit the weight-4 basis at a level: ids, exponents, coefficients q^0..q^B."""
    b = modforms.level_basis(level)
    _emit_json(
        {
            "level": b.level,
            "sturm_bound": modforms.sturm_bound(level),
            "dim_M4": modforms.dim_M4(level),
            "elements": [
                {
                    "id": e.element_id,
                    "kind": e.kind,
                    "t": e.generator.t if e.kind == "eisenstein" else None,
                    "eta": e.generator.to_json_dict() if e.kind == "cusp" else None,
                    "coeffs": [str(c) for c in e.series],
                }
                for e in b.elements
            ],
        }
    )


@main.command()
@click.option("--alpha", required=True, type=int)
@click.option("--beta", required=True, type=int)
def derive(alpha, beta):
    """Derive the closed convolution-sum formula for (alpha, beta)."""
    formula = convolution.derive_formula(alpha, beta)
    _emit_json(formula.to_json_dict())


@main.command()
@click.option("--alpha", required=True, type=int)
@click.option("--beta", required=True, type=int)
@click.option("--nmax", required=True, type=click.IntRange(1, MAX_TRUNCATION))
def verify(alpha, beta, nmax):
    """Derive and check the formula against brute force on 1..nmax."""
    report = convolution.verify_formula(convolution.derive_formula(alpha, beta), nmax)
    _emit_json(report.to_json_dict())
    if not report.ok:
        sys.exit(EXIT_MISMATCH)


@main.command()
@click.option("--a", "a", required=True, type=int)
@click.option("--b", "b", required=True, type=int)
@click.option("--nmax", required=True, type=click.IntRange(1, MAX_TRUNCATION))
def rep(a, b, nmax):
    """Octonary representation counts: formula vs oracle as CSV."""
    formula_values = representations.octonary_formula_table(a, b, nmax)
    oracle_values = representations.octonary_count_table(a, b, nmax)
    pairs = zip(formula_values[1:], oracle_values[1:])
    rows = [(n, f, o, str(f == o).lower()) for n, (f, o) in enumerate(pairs, 1)]
    _emit_csv([("n", "formula_value", "oracle_value", "match"), *rows])
    if formula_values[1:] != oracle_values[1:]:
        sys.exit(EXIT_MISMATCH)


DEFAULT_TABLE_PAIRS = ((2, 7), (1, 22), (2, 11), (1, 26), (2, 13))


def _parse_pair(entry: str) -> tuple[int, int]:
    try:
        alpha, beta = map(int, entry.split(","))
    except ValueError:
        raise ValueError(f"--pairs entry {entry!r}: expected alpha,beta") from None
    return alpha, beta


@main.command()
@click.option("--pairs", default=None, help="Semicolon-separated alpha,beta pairs, e.g. '2,7;1,22'.")
def table(pairs):
    """Render the derived formula coefficients for several pairs as CSV."""
    pair_list = DEFAULT_TABLE_PAIRS if pairs is None else [_parse_pair(entry) for entry in pairs.split(";")]
    rows = [("alpha", "beta", "term", "coefficient")]
    for alpha, beta in pair_list:
        formula = convolution.derive_formula(alpha, beta)
        for d, c in formula.sigma3_terms.items():
            rows.append((alpha, beta, f"sigma3(n/{d})", rational_to_str(c)))
        for d, (c0, c1) in formula.sigma_terms.items():
            rows.append((alpha, beta, f"sigma(n/{d}).const", rational_to_str(c0)))
            rows.append((alpha, beta, f"sigma(n/{d}).linear", rational_to_str(c1)))
        for eid, c in formula.cusp_terms:
            rows.append((alpha, beta, f"cusp.{eid}", rational_to_str(c)))
    _emit_csv(rows)


if __name__ == "__main__":
    main()
