"""Exact helpers shared by the oracles of several test modules."""

import math

from hyperk import Q


def sqrt_exact(q):
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        raise ValueError("sqrt of negative rational")
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Q(rn, rd)
    return None
