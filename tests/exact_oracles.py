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


def _oracle_intersection_pattern(c1, c2):
    """(interior_count, tangent, shared_endpoints, interior_points) of two
    distinct exact curves as `intersection_pattern` found them before it
    counted by Gram signs: meet the two full circles, through their radical
    line for two circles, then count the meeting points by the signs of
    their heights.  A shared finite endpoint is a meeting point at height
    0, and two lines also share oo."""
    k1, k2 = c1.circle.coeffs(), c2.circle.coeffs()
    a1, b1, cc1, d1 = k1
    a2, b2, cc2, d2 = k2
    if a1 == 0 and a2 == 0:
        count, tangent, points, on_axis = _oracle_line_line((b1, cc1, d1), (b2, cc2, d2))
    elif a1 == 0:
        count, tangent, points, on_axis = _oracle_line_circle((b1, cc1, d1), k2)
    elif a2 == 0:
        count, tangent, points, on_axis = _oracle_line_circle((b2, cc2, d2), k1)
    else:
        line = (a2 * b1 - a1 * b2, a2 * cc1 - a1 * cc2, a2 * d1 - a1 * d2)
        count, tangent, points, on_axis = _oracle_line_circle(line, k1)
    return count, tangent, on_axis + (a1 == 0 and a2 == 0), points


def _oracle_line_line(l1, l2):
    from hyperk import UHPPoint
    from hyperk.model import _number

    (B1, C1, D1), (B2, C2, D2) = l1, l2
    det = B1 * C2 - B2 * C1
    if det == 0:
        return 0, False, (), 0
    y = _number(B2 * D1 - B1 * D2, 0, 0, det)
    if y <= 0:
        return 0, False, (), int(y == 0)
    return 1, False, (UHPPoint(_number(C1 * D2 - C2 * D1, 0, 0, det), y),), 0


def _oracle_heights(q2, q1, q0):
    """How many of the two real roots of q2 y^2 + q1 y + q0 (q2 > 0) are
    positive, and how many are 0."""
    if q0 < 0:
        return 1, 0
    if q0 == 0:
        return (1, 1) if q1 < 0 else (0, 2 if q1 == 0 else 1)
    return (2 if q1 < 0 else 0), 0


def _oracle_line_circle(line, circle):
    """Meet of the line Bx + Cy + D = 0 with the circle a(x^2 + y^2) + bx +
    cy + d = 0, a > 0, parametrised by the coordinate t the line spreads
    along (x when |B| <= |C|)."""
    from hyperk import UHPPoint
    from hyperk.model import _number

    B, C, D = line
    a, b, c, d = circle
    L = B * B + C * C
    if L == 0:
        return 0, False, (), 0
    q2 = a * L
    q1 = 2 * a * C * D + c * B * B - b * B * C
    q0 = a * D * D - b * B * D + d * B * B
    along_x = abs(B) <= abs(C)
    if along_x:
        t1 = 2 * a * B * D + b * C * C - c * B * C
        t0 = a * D * D - c * C * D + d * C * C
        beta, gamma = B, C
    else:
        t1, t0, beta, gamma = q1, q0, C, B
    disc = t1 * t1 - 4 * q2 * t0
    if disc < 0:
        return 0, False, (), 0
    tangent = disc == 0
    falling = B * C > 0
    if tangent:
        on_axis, n, roots = int(q1 == 0), int(q1 < 0), (0,)
    else:
        n, on_axis = _oracle_heights(q2, q1, q0)
        roots = (-1, 1) if n == 2 else (-1,) if along_x and falling else (1,)
    if n == 0:
        return 0, False, (), on_axis
    points = []
    for s in roots:
        t = _number(-t1, s, disc, 2 * q2)
        u = _number(beta * t1 - 2 * q2 * D, -s * beta, disc, 2 * q2 * gamma)
        points.append(UHPPoint(t, u) if along_x else UHPPoint(u, t))
    if not along_x and falling:
        points.reverse()
    return n, tangent, tuple(points), on_axis


def _oracle_isometry_matching(src_curves, dst_curves):
    """`isometry_matching` as it was before it compared pair counts and
    boundary data: the kind test, the identity, then the at most 8
    candidates of `graphs._candidate_isometries`, each verified exactly on
    every curve's circle."""
    from hyperk import Isometry
    from hyperk.errors import InvalidInputError
    from hyperk.graphs import _candidate_isometries

    if len(src_curves) != len(dst_curves):
        raise InvalidInputError("source and target curve lists differ in length")
    n = len(src_curves)
    if any(src_curves[i].kind is not dst_curves[i].kind for i in range(n)):
        return None
    if all(src_curves[i] == dst_curves[i] for i in range(n)):
        return Isometry.identity()
    for cand in _candidate_isometries(src_curves, dst_curves):
        if all(cand.apply_circle(s.circle) == t.circle for s, t in zip(src_curves, dst_curves)):
            return cand
    return None
