"""Spans around the public functions of each divconv layer, for the traced run.

Each listed function is replaced by a recording wrapper in every divconv
module that bound it, so calls made inside the pipeline (build_basis ->
expand_eta_quotient -> QSeries.__pow__) are traced as well as those made by
the CLI. A span is [name, start, end, parent index, note]; parent -1 marks
a span called directly by the command. Spans stay in memory and are written
once, when the command has finished.

Functions called hundreds of thousands of times per command (sigma,
sigma_at, r4, check_admissibility) are deliberately not wrapped: their cost
stays in the self time of the calling layer, and micro.py times sigma on
its own.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

from divconv import arith, cache, convolution, eta, modforms, qseries, representations

FUNCTIONS = {
    eta: ("euler_F", "expand_eta_quotient", "search_eta_quotients"),
    modforms: (
        "eisenstein_L",
        "eisenstein_M",
        "build_basis",
        "standard_basis",
        "rank",
        "select_independent",
        "express_in_basis",
    ),
    convolution: (
        "target_series",
        "derive_convolution_formula",
        "brute_force_W",
        "evaluate_formula",
        "verify_formula",
    ),
    arith: ("sigma_table",),
    representations: ("octonary_formula", "octonary_convolution"),
}

METHODS = {
    ("qseries", qseries.QSeries): ("__mul__", "__rmul__", "__pow__", "reciprocal", "substitute"),
    ("cache", cache.SeriesCache): ("get", "get_bytes", "put"),
}

SPAN_NAMES = {"__mul__": "mul", "__rmul__": "mul", "__pow__": "pow"}


def _search_note(args, kwargs, result):
    call = inspect.signature(eta.search_eta_quotients).bind(*args, **kwargs)
    call.apply_defaults()
    dims = len(arith.divisors(call.arguments["level"])) - 1
    return {"scanned": (2 * call.arguments["bound"] + 1) ** dims, "accepted": len(result)}


# span name -> what to record from (args, kwargs, result); a note that no
# longer fits the function's signature or result is left out, not fatal
NOTES = {
    "eta.search_eta_quotients": _search_note,
    "eta.expand_eta_quotient": lambda a, k, r: {"bits": max(abs(c.numerator).bit_length() for c in r.coeffs)},
    "modforms.build_basis": lambda a, k, r: {"size": len(r.elements)},
    "convolution.verify_formula": lambda a, k, r: {"checked": r.checked},
    "cache.get": lambda a, k, r: {"hit": r is not None},
    "cache.get_bytes": lambda a, k, r: {"hit": r is not None},
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self._stack = [-1]
        self._clock = clock

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self._clock
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if note is not None:
                try:
                    record[4] = note(args, kwargs, result)
                except (AttributeError, KeyError, TypeError):
                    pass
            return result

        return traced

    def install(self) -> None:
        """Replace every listed function that exists; a missing one is skipped."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "divconv"]
        for module, names in FUNCTIONS.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{layer}.{name}", original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
        for (layer, cls), names in METHODS.items():
            for name in names:
                original = cls.__dict__.get(name)
                if original is not None:
                    setattr(cls, name, self.wrap(f"{layer}.{SPAN_NAMES.get(name, name)}", original))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))
