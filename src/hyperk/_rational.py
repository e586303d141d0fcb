"""Exact rational numbers: the stdlib ``fractions.Fraction`` type.

Every exact computation in the package builds its rationals with ``Q``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidInputError

BACKEND = "python"


def Q(numerator=0, denominator=None):
    """Exact rational from ints, strings like '3/4', floats, or rationals.

    A Fraction comes back as it is: it is immutable, and a copy would only
    repeat the reduction."""
    if denominator is not None:
        return Fraction(numerator, denominator)
    if type(numerator) is Fraction:
        return numerator
    return Fraction(numerator)


def is_rational(x) -> bool:
    return isinstance(x, (int, Fraction))


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
    n, d = q.numerator, q.denominator
    return str(n) if d == 1 else f"{n}/{d}"


def isqrt_exact(n: int):
    """Exact integer square root of n >= 0, or None if not a perfect square."""
    if n < 0:
        raise ValueError("isqrt of negative integer")
    r = math.isqrt(n)
    return r if r * r == n else None
