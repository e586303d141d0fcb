"""Exact rational arithmetic backend.

Two interchangeable backends provide the rational number type used by every
exact computation in the package:

* ``gmpy2.mpq`` -- GMP-backed, compiled; picked by default when gmpy2 is
  importable.
* ``fractions.Fraction`` -- pure-Python stdlib fallback.

Set ``HYPERK_BACKEND=python`` or ``HYPERK_BACKEND=gmpy2`` before import to
force a choice.  ``benchmarks/bench_backends.py`` compares the two.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

from .errors import InvalidInputError

_requested = os.environ.get("HYPERK_BACKEND", "").strip().lower()

if _requested in ("", "gmpy2"):
    try:
        import gmpy2 as _gmpy2

        BACKEND = "gmpy2"
    except ImportError:  # pragma: no cover - gmpy2 present in CI image
        if _requested == "gmpy2":
            raise
        _gmpy2 = None
        BACKEND = "python"
else:
    if _requested != "python":
        raise ValueError(f"unknown HYPERK_BACKEND {_requested!r}")
    _gmpy2 = None
    BACKEND = "python"


if BACKEND == "gmpy2":
    _mpq = _gmpy2.mpq

    def Q(numerator=0, denominator=None):
        """Exact rational from ints, strings like '3/4', floats, or rationals."""
        if denominator is not None:
            return _mpq(numerator, denominator)
        if isinstance(numerator, float):
            return _mpq(*numerator.as_integer_ratio())
        return _mpq(numerator)

    def is_rational(x) -> bool:
        return isinstance(x, (int, type(_mpq(0)), Fraction))

else:

    def Q(numerator=0, denominator=None):
        """Exact rational from ints, strings like '3/4', floats, or rationals."""
        if denominator is not None:
            return Fraction(numerator, denominator)
        return Fraction(numerator)

    def is_rational(x) -> bool:
        return isinstance(x, (int, Fraction))


ZERO = Q(0)
ONE = Q(1)


def numer(q) -> int:
    return int(q.numerator)


def denom(q) -> int:
    return int(q.denominator)


def q_to_float(q) -> float:
    return float(q)


def q_from_str(text: str):
    """Parse 'p', 'p/q', or a decimal literal into an exact rational."""
    text = text.strip()
    if "/" in text:
        num, den = (int(v) for v in text.split("/", 1))
        if den == 0:
            raise InvalidInputError(f"zero denominator in {text!r}")
        return Q(num, den)
    if any(ch in text for ch in ".eE"):
        return Q(Fraction(text))
    return Q(int(text))


def q_str(q) -> str:
    n, d = numer(q), denom(q)
    return str(n) if d == 1 else f"{n}/{d}"


def sqrt_exact(q):
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        raise ValueError("sqrt of negative rational")
    n, d = numer(q), denom(q)
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Q(rn, rd)
    return None


def isqrt_exact(n: int):
    """Exact integer square root of n >= 0, or None if not a perfect square."""
    if n < 0:
        raise ValueError("isqrt of negative integer")
    r = math.isqrt(n)
    return r if r * r == n else None
