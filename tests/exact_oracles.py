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


def oracle_two_point_normalizer(x, y):
    """The normalizer by cases on oo: z -> z - y for x = oo, z -> -1/(z - x)
    for y = oo, and z -> -1/(z - x) + 1/(y - x) otherwise.  Each is the map
    with determinant 1 whose bottom row starts with 1, or is (0, 1)."""
    from hyperk import Isometry

    if x.is_infinity:
        return Isometry.translation(-y.value)
    if y.is_infinity:
        return Isometry(0, -1, 1, -x.value)
    k = 1 / (y.value - x.value)
    return Isometry(k, -1 - k * x.value, 1, -x.value)
