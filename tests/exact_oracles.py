"""Exact helpers shared by the oracles of several test modules."""

import math

from hyperk import Q
from hyperk.errors import InvalidInputError


def sqrt_exact(q):
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        raise ValueError("sqrt of negative rational")
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Q(rn, rd)
    return None


class _OracleBoundaryPoint:
    """`BoundaryPoint` as it was when it held its value as a `Fraction`, or
    None for oo, with equality and hash of its own."""

    __slots__ = ("value",)

    def __init__(self, value=None):
        self.value = None if value is None else Q(value)

    @property
    def is_infinity(self):
        return self.value is None

    def __eq__(self, other):
        if not isinstance(other, _OracleBoundaryPoint):
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        v = self.value
        return hash(None if v is None else (v.numerator, v.denominator))

    def __repr__(self):
        from hyperk._rational import q_str

        return "oo" if self.is_infinity else q_str(self.value)

    def sort_key(self):
        return (1, 0) if self.is_infinity else (0, self.value)


def _oracle_apply_boundary_pair(iso, p):
    """`Isometry.apply_boundary` as it was: the point p as an integer pair,
    oo = (1, 0), mapped by the integer matrix, and read back through
    `Fraction`, as an `_OracleBoundaryPoint`."""
    from fractions import Fraction

    a, b, c, d = iso._ints()
    v = p.value
    x, y = (1, 0) if v is None else (v.numerator, v.denominator)
    if iso.reversing:
        x = -x
    y, x = c * x + d * y, a * x + b * y
    return _OracleBoundaryPoint() if y == 0 else _OracleBoundaryPoint(Fraction(x, y))


def _oracle_endpoints(curve):
    """The curve's endpoints as `Curve` derived them eagerly, as
    `BoundaryPoint`s of `Fraction`s, before it kept integer pairs: None for
    irrational endpoints."""
    from hyperk import INFINITY, BoundaryPoint
    from hyperk._rational import isqrt_exact

    a, b, c, d = curve.circle.coeffs()
    if a != 0:
        disc = b * b - 4 * a * d
        if disc == 0:
            return (BoundaryPoint.finite(Q(-b, 2 * a)),)
        r = isqrt_exact(disc)
        if r is None:
            return None
        lo, hi = Q(-b - r, 2 * a), Q(-b + r, 2 * a)
        return (BoundaryPoint.finite(lo), BoundaryPoint.finite(hi))
    if b == 0:
        return (INFINITY,)
    return (BoundaryPoint.finite(Q(-d, b)), INFINITY)


def _oracle_horodata(curve):
    """(center, size) of a horocycle as `Curve` derived them eagerly;
    (None, None) for any other curve."""
    from hyperk import INFINITY, BoundaryPoint, CurveKind

    if curve.kind is not CurveKind.HOROCYCLE:
        return None, None
    a, b, c, d = curve.circle.coeffs()
    if a != 0:
        return BoundaryPoint.finite(Q(-b, 2 * a)), Q(-c, 2 * a)
    return INFINITY, Q(-d, c)


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
    0, and two lines also share oo.  An irrational point is the pair of
    its floats, and one whose height rounds to 0.0 is refused, as the
    routine refused it."""
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
        x, y = (t, u) if along_x else (u, t)
        if not isinstance(t, float):
            points.append(UHPPoint(x, y))
        elif y > 0:  # an irrational point, as the pair of its floats
            points.append((x, y))
        else:
            raise InvalidInputError(f"point ({x}, {y}) is not in the open half-plane")
    if not along_x and falling:
        points.reverse()
    return n, tangent, tuple(points), on_axis


def _oracle_isometry_matching(src_curves, dst_curves):
    """`isometry_matching` as it was before it compared pair counts and
    boundary data: the kind test, the identity, then the at most 8
    candidates of `graphs._candidate_isometries`, each verified exactly on
    every curve's circle."""
    from hyperk import Isometry
    from hyperk.graphs import _candidate_isometries

    if len(src_curves) != len(dst_curves):
        raise InvalidInputError("source and target curve lists differ in length")
    n = len(src_curves)
    if any(src_curves[i].kind is not dst_curves[i].kind for i in range(n)):
        return None
    if all(src_curves[i] == dst_curves[i] for i in range(n)):
        return Isometry.identity()
    for ints in _candidate_isometries(src_curves, dst_curves):
        cand = Isometry(*ints)
        if all(cand.apply_circle(s.circle) == t.circle for s, t in zip(src_curves, dst_curves)):
            return cand
    return None
