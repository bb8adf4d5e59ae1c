"""Truncated power series in q with exact coefficients (int or Fraction):
the record that expand prints and the cache stores (to_json_dict,
from_json_dict). The pipeline runs on plain integer lists; only
eta.expand_eta_quotient wraps one in a QSeries. The ring members __mul__,
__pow__, reciprocal, one and substitute remain only as what
perfbench/micro.py times and as the tests' dense oracle for the eta
kernel; they belong in tests/reference.py once the benchmark stops timing
them. A product truncates to the shorter operand and runs over the nonzero
coefficients of the sparser one; reciprocal runs over the nonzero tail, and
raises ZeroDivisionError on a zero constant term.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import MAX_TRUNCATION, rational_from_str, rational_to_str, spread


class QSeries:
    """A power series sum c_n q^n known exactly for all n <= truncation."""

    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs, truncation: int | None = None):
        coeffs = list(coeffs)
        if truncation is None:
            truncation = len(coeffs) - 1
        if truncation < 0:
            raise ValueError("truncation must be non-negative")
        if len(coeffs) < truncation + 1:
            coeffs.extend([0] * (truncation + 1 - len(coeffs)))
        else:
            del coeffs[truncation + 1 :]
        self.coeffs = coeffs
        self.truncation = truncation

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, truncation: int) -> "QSeries":
        c = [0] * (truncation + 1)
        c[0] = 1
        return cls(c, truncation)

    # -- basics ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.truncation == other.truncation and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.truncation > 5 else ""
        return f"QSeries([{head}{tail}], truncation={self.truncation})"

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other: "QSeries") -> "QSeries":
        t = min(self.truncation, other.truncation)
        a = self.coeffs[: t + 1]
        b = other.coeffs[: t + 1]
        # iterate the sparser operand on the outside
        if sum(1 for x in a if x) > sum(1 for x in b if x):
            a, b = b, a
        out = [0] * (t + 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b[: t + 1 - i]):
                    if bj:
                        out[i + j] += ai * bj
        return QSeries(out, t)

    def reciprocal(self) -> "QSeries":
        """Series r with self * r = 1 up to the truncation."""
        a0 = self.coeffs[0]
        if not a0:
            raise ZeroDivisionError("cannot invert a series with zero constant term")
        t = self.truncation
        inv0 = 1 if a0 == 1 else (-1 if a0 == -1 else Fraction(1, 1) / a0)
        # only nonzero tail terms enter the recurrence; eta factors are
        # pentagonal-sparse so this is far below O(t^2)
        tail = [(k, ak) for k, ak in enumerate(self.coeffs[1:], start=1) if ak]
        r: list[int | Fraction] = [inv0] + [0] * t
        for n in range(1, t + 1):
            acc = 0
            for k, ak in tail:
                if k > n:
                    break
                acc += ak * r[n - k]
            if acc:
                r[n] = -inv0 * acc
        return QSeries(r, t)

    def __pow__(self, e: int) -> "QSeries":
        if e < 0:
            return (self**-e).reciprocal()
        result = QSeries.one(self.truncation)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def substitute(self, t: int, cap: int | None = None) -> "QSeries":
        """q -> q^t; result truncation is self.truncation * t, capped."""
        if t < 1:
            raise ValueError(f"substitute requires t >= 1, got {t}")
        limit = min(self.truncation * t, cap if cap is not None else MAX_TRUNCATION)
        return QSeries(spread(self.coeffs, t, limit), limit)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "version": 1,
            "kind": "qseries",
            "truncation": self.truncation,
            "coeffs": [rational_to_str(c) for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "QSeries":
        if data.get("kind") != "qseries" or data.get("version") != 1:
            raise ValueError("not a version-1 qseries record")
        truncation = data["truncation"]
        coeffs = [rational_from_str(s) for s in data["coeffs"]]
        if len(coeffs) != truncation + 1:
            raise ValueError("coefficient count does not match truncation")
        return cls([int(c) if c.denominator == 1 else c for c in coeffs], truncation)
