"""Command-line front end: one argparse parser over the pipeline, and JSON/CSV emission.

Start-up imports only what the non-expand commands run: the cache, and
through it hashlib and QSeries, load inside expand, their only reader.

Exit codes: 0 success, 1 verification mismatch, 2 input error (a usage error,
ValueError, or OSError reading an @file), 3 the basis cannot express the
target (modforms.Unsolvable).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import convolution, eta, modforms, representations
from .arith import MAX_TRUNCATION
from .modforms import SEARCH_CAP, Unsolvable

EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3


def _parse_quotient(text: str) -> eta.EtaQuotient:
    """Quotient JSON, inline or @file."""
    if text.startswith("@"):
        text = Path(text[1:]).read_text()
    return eta.EtaQuotient.from_json(text)


def _emit(text: str) -> None:
    """Print a command's output. A reader that closed the pipe early (`| head`)
    is no error: the rest goes to the null device, and the exit code stands."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit_json(data) -> None:
    _emit(json.dumps(data, indent=2))


def _emit_csv(rows: list[str]) -> None:
    """Print CSV rows, each already joined by commas from fields that need no
    quoting, with the "\\r\\n" line ends of the csv module; print writes the
    last one's "\\n"."""
    _emit("\r\n".join(rows) + "\r")


def expand(opts):
    """Expand an eta quotient (JSON, inline or @file) to a q-series."""
    from .cache import SeriesCache

    quotient = _parse_quotient(opts.quotient_json)
    params = {"kind": "eta", **quotient.to_json_dict(), "truncation": opts.truncation}
    cache = SeriesCache(opts.cache_dir) if opts.cache_dir else None
    series = cache.get(params) if cache is not None else None
    if series is None:
        series = eta.expand_eta_quotient(quotient, opts.truncation)
        if cache is not None:
            cache.put(params, series)
    _emit(json.dumps(series.to_json_dict()))


def ligozat(opts):
    """Print the admissibility report for an eta quotient as JSON."""
    _emit_json(eta.check_admissibility(_parse_quotient(opts.quotient_json)).to_json_dict())


def search(opts):
    """Admissible weight-4 eta quotients vanishing at infinity, all |r_d| <= --bound.

    Built from cusp-order vectors, so complete within that bound; a level
    where 4*mu/12 is not an integer has none."""
    found = eta.search_eta_quotients(opts.level, opts.bound)
    _emit_json([q.to_json_dict() for q in found])


def basis(opts):
    """Emit the weight-4 basis at a level: ids, exponents, coefficients q^0..q^B."""
    b = modforms.level_basis(opts.level)
    _emit_json(
        {
            "level": b.level,
            "sturm_bound": modforms.sturm_bound(opts.level),
            "dim_M4": modforms.dim_M4(opts.level),
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


def derive(opts):
    """Derive the closed convolution-sum formula for (alpha, beta)."""
    _emit_json(convolution.derive_formula(opts.alpha, opts.beta).to_json_dict())


def verify(opts):
    """Derive and check the formula against brute force on 1..nmax."""
    report = convolution.verify_formula(convolution.derive_formula(opts.alpha, opts.beta), opts.nmax)
    _emit_json(report.to_json_dict())
    return 0 if report.ok else EXIT_MISMATCH


def rep(opts):
    """Octonary representation counts: formula vs oracle as CSV."""
    formula_values = representations.octonary_formula_table(opts.a, opts.b, opts.nmax)
    oracle_values = representations.octonary_count_table(opts.a, opts.b, opts.nmax)
    pairs = zip(formula_values[1:], oracle_values[1:])
    rows = [f"{n},{f},{o},{'true' if f == o else 'false'}" for n, (f, o) in enumerate(pairs, 1)]
    _emit_csv(["n,formula_value,oracle_value,match", *rows])
    return 0 if formula_values[1:] == oracle_values[1:] else EXIT_MISMATCH


def _parse_pair(entry: str) -> tuple[int, int]:
    try:
        alpha, beta = map(int, entry.split(","))
    except ValueError:
        raise ValueError(f"--pairs entry {entry!r}: expected alpha,beta") from None
    return alpha, beta


def table(opts):
    """Render the derived formula coefficients for several pairs as CSV."""
    rows = ["alpha,beta,term,coefficient"]
    for alpha, beta in [_parse_pair(entry) for entry in opts.pairs.split(";")]:
        terms = convolution.derive_formula(alpha, beta).rendered_terms()
        rows += [f"{alpha},{beta},sigma3(n/{d}),{c}" for d, c in terms["sigma3"].items()]
        for d, (c0, c1) in terms["sigma"].items():
            rows += [f"{alpha},{beta},sigma(n/{d}).const,{c0}", f"{alpha},{beta},sigma(n/{d}).linear,{c1}"]
        rows += [f"{alpha},{beta},cusp.{eid},{c}" for eid, c in terms["cusp"]]
    _emit_csv(rows)


def _int_range(low, high=None):
    """An option type: an integer from low up to high, or with no upper end."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < low or high is not None and value > high:
            raise argparse.ArgumentTypeError(f"{value} is not in the range {low}<=x" + (f"<={high}" if high else ""))
        return value

    return integer


def _build_parser() -> argparse.ArgumentParser:
    size = {"required": True, "type": _int_range(1, MAX_TRUNCATION)}
    number = {"required": True, "type": int}
    parser = argparse.ArgumentParser(
        prog="divconv",
        description="Exact evaluation of divisor-sum convolution identities.",
        formatter_class=argparse.RawDescriptionHelpFormatter,  # keeps the command list's lines
        allow_abbrev=False,
    )
    parser.add_argument(
        "--truncation",
        default=1000,
        type=_int_range(1, MAX_TRUNCATION),
        help="Series length for expand only; bases and formulas live at the Sturm bound (default: %(default)s).",
    )
    parser.add_argument("--cache-dir", help="q-expansion cache directory for expand.")
    parser.add_argument(
        "--bound", default=SEARCH_CAP, type=_int_range(1), help="Exponent bound for search (default: %(default)s)."
    )
    commands = parser.add_subparsers(metavar="COMMAND", dest="command", required=True, help="See Commands below.")
    for run, *arguments in (
        (basis, ("--level", size)),
        (derive, ("--alpha", number), ("--beta", number)),
        (expand, ("quotient_json", {})),
        (ligozat, ("quotient_json", {})),
        (rep, ("--a", number), ("--b", number), ("--nmax", size)),
        (search, ("--level", size)),
        (table, ("--pairs", {"default": "2,7;1,22;2,11;1,26;2,13", "help": "alpha,beta pairs (default: %(default)s)"})),
        (verify, ("--alpha", number), ("--beta", number), ("--nmax", size)),
    ):
        command = commands.add_parser(run.__name__, description=run.__doc__, allow_abbrev=False)
        for name, keywords in arguments:
            command.add_argument(name, **keywords)
        command.set_defaults(run=run)
    listing = (f"  {name:8} {sub.description.splitlines()[0]}" for name, sub in commands.choices.items())
    parser.epilog = "Commands:\n" + "\n".join(listing)
    return parser


#: built once, at import, so that a command's time does not include it
PARSER = _build_parser()


def main(args=None, standalone_mode=True):
    """Run one command on args (default sys.argv[1:]) and exit with its code, or, with
    standalone_mode=False, return it. A usage error exits 2, and --help 0, in either mode."""
    opts = PARSER.parse_args(args)
    try:
        code = opts.run(opts) or 0
    except (Unsolvable, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_SOLVER if isinstance(exc, Unsolvable) else EXIT_INPUT
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
