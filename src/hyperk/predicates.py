"""Exact relational predicates on curves.

Intersection counts, tangency, shared boundary endpoints, the hypercycle
pair taxonomy, the horocycle partial order, linkedness of boundary pairs,
and betweenness of mutually tangent curves are all decided by integer or
rational sign tests for exact curves.  The counts of an exact pair come
from the signs of the Lorentz Gram matrix of the two coefficient vectors
(`_gram_counts`), whatever the kinds, with no case for lines or for oo;
its meeting points are built only when `interior_points` is first read;
`pair_counts` counts every pair of a list from one Gram matrix.
Only the coordinates of those points may be floats (when the points are
irrational); the counts never are.  A pair with an inexact (float) curve
finds its meeting points first and counts them, every sign test with
tolerance EPS: a shared finite endpoint is a meeting point of the two full
circles at height 0, so one sign test on heights counts interior points
and shared endpoints alike.  Linkedness reads the boundary points as
integer pairs with oo = (1, 0) (`model._projective`) and is the sign of
one product of 2x2 determinants, the cross-ratio's, with no case for oo or
for a shared point.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from itertools import combinations
from typing import Tuple

from ._rational import Q
from ._record import Record
from .errors import InvalidInputError
from .model import (
    EPS,
    Curve,
    CurveKind,
    UHPPoint,
    _FLOAT_BITS,
    _finite,
    _int_floats,
    _lorentz,
    _number,
    _projective,
)


# ---------------------------------------------------------------------------
# intersection patterns
# ---------------------------------------------------------------------------


class IntersectionPattern(Record):
    """How two curves meet inside the open half-plane.

    interior_count   number of interior intersection points (tangency counts
                     as one point)
    tangent          True when the curves touch without crossing
    shared_endpoints number of common boundary endpoints (0, 1, or 2)
    interior_points  the interior intersection points; exact when rational
    exact            True when the counts come from exact sign tests
    equal            True when the two curves coincide (all other fields void)

    For two exact curves the counts come from integer signs alone, and the
    points are built when `interior_points` is first read.  So the counts
    hold for coefficients of any size, while the points may still be
    refused: under `Isometry(2**600 + 9, 1, 2**600, 1)` the images of
    `curve_from_coeffs(12, -168, -95, 588)` and `curve_from_coeffs(16, -146,
    0, 315)` cross twice, at irrational heights near 2^-1200 that round to
    0.0, and reading their points raises InvalidInputError.
    """

    __slots__ = ("interior_count", "tangent", "shared_endpoints", "_points", "exact", "equal",
                 "_circles")
    _fields = ("interior_count", "tangent", "shared_endpoints", "interior_points", "exact",
               "equal")

    def __init__(self, interior_count: int, tangent: bool, shared_endpoints: int,
                 interior_points: Tuple[UHPPoint, ...], exact: bool, equal: bool = False):
        self.interior_count, self.tangent = interior_count, tangent
        self.shared_endpoints, self._points = shared_endpoints, interior_points
        self.exact, self.equal = exact, equal

    @property
    def interior_points(self) -> Tuple[UHPPoint, ...]:
        if self._points is None:  # an exact pattern's points, on first read
            self._points = _meet(*self._circles, 0)[2]
        return self._points

    def describe(self) -> str:
        if self.equal:
            return "equal curves"
        tag = "tangent" if self.tangent else "transversal"
        return (
            f"interior_count={self.interior_count} ({tag}), "
            f"shared_endpoints={self.shared_endpoints}"
        )

    def to_record(self) -> dict:
        return {
            "interior_count": self.interior_count,
            "tangent": self.tangent,
            "shared_endpoints": self.shared_endpoints,
            "equal": self.equal,
            "points": [list(p.as_floats()) for p in self.interior_points],
        }


def intersection_pattern(c1: Curve, c2: Curve) -> IntersectionPattern:
    """Interior intersection data for a pair of curves, exact when both are.

    Equal curves yield a distinguished pattern with equal=True rather than
    an error.
    """
    if c1 == c2:
        return IntersectionPattern(0, False, 0, (), c1.exact, equal=True)
    if c1.exact and c2.exact:
        k1, k2 = c1.circle.coeffs(), c2.circle.coeffs()
        counts = _gram_counts(k1, k2, _lorentz(k1, k1), _lorentz(k2, k2), _lorentz(k1, k2))
        pat = IntersectionPattern(*counts, None, True)
        pat._circles = k1, k2
        return pat
    if _same_center_horocycles(c1, c2):
        # nested horocycles touch only at their common center, a meeting no
        # float test on heights resolves
        return IntersectionPattern(0, False, 1, (), False)
    k1, k2, tol = _pair_coeffs(c1, c2)
    count, tangent, points, on_axis = _meet(k1, k2, tol)
    # a shared finite endpoint is a meeting point at height 0; two lines
    # also share infinity
    shared = on_axis + (k1[0] == 0 and k2[0] == 0)
    return IntersectionPattern(count, tangent, shared, points, False)


def pair_counts(curves):
    """[(interior_count, tangent, shared_endpoints) of curves i, j for (i, j)
    in combinations(range(n), 2)] for a list of exact curves: the Lorentz
    Gram matrix of their coefficient vectors is formed once, each g_ii one
    time.  Each entry is what `intersection_pattern` counts for a distinct
    pair; equal curves, whose vectors are equal, get (0, False, 1)."""
    if not all(c.exact for c in curves):
        raise InvalidInputError("pair_counts needs exact curves")
    vs = [c.circle.coeffs() for c in curves]
    gs = [_lorentz(v, v) for v in vs]
    return [_gram_counts(v, w, gv, gw, _lorentz(v, w))
            for (v, gv), (w, gw) in combinations(zip(vs, gs), 2)]


def _gram_counts(v, w, g11, g22, g12):
    """(interior_count, tangent, shared_endpoints) of two distinct exact
    circles v and w, from the signs of their Lorentz Gram matrix g
    (`_lorentz`): g11 = <v, v>, g22 = <w, w>, g12 = <v, w>.

    A point (x, y) is the null vector P = (-1, 2x, 2y, -(x^2 + y^2)) up to
    scale, on the circle v iff <v, P> = 0, with <r, P> = 2y for the axis
    r = (0, 0, 1, 0) and <t, P> > 0 for t = (1, 0, 0, 1); oo is (0, 0, 0, -1),
    on every line and on the axis.  D2 = g11 g22 - g12^2 < 0: the circles
    miss.  D2 = 0: they touch at the null vector p = g12 v - g11 w, whose
    height has the sign of -p_c (p_a + p_d).  D2 > 0: they cross at two
    points spanning the complement of v and w, and D3 = Gram det(v, w, r) is
    D2 times the square of r's part there, which is negative iff both points
    lie on one side of the axis and zero iff one lies on it.  That part
    against t, 2S / D2 with S below, then has the sign opposite to the
    heights (Coxeter, "Inversive distance"; Hertrich-Jeromin, "Introduction
    to Moebius Differential Geometry", ch. 1).
    """
    d2 = g11 * g22 - g12 * g12
    if d2 < 0:
        return 0, False, 0
    c1, c2 = v[2], w[2]
    if d2 == 0:
        pc = g12 * c1 - g11 * c2
        if pc == 0:
            return 0, False, 1
        if pc * (g12 * (v[0] + v[3]) - g11 * (w[0] + w[3])) < 0:
            return 1, True, 0
        return 0, False, 0
    # r's projection onto the span of v and w is (u1 v + u2 w) / D2, and S
    # is D2 / -2 times that projection against t
    u1, u2 = g22 * c1 - g12 * c2, g11 * c2 - g12 * c1
    d3 = d2 - (u1 * c1 + u2 * c2)
    if d3 > 0:
        return 1, False, 0
    s = u1 * (v[0] + v[3]) + u2 * (w[0] + w[3])
    if d3 < 0:
        return (2 if s < 0 else 0), False, 0
    return (0, False, 2) if s == 0 else (int(s < 0), False, 1)


def _same_center_horocycles(c1: Curve, c2: Curve) -> bool:
    """Are both curves horocycles whose centers agree, at oo or as
    `math.isclose(x1, x2, rel_tol=EPS, abs_tol=EPS)` taken on rationals?"""
    if not c1.kind is c2.kind is CurveKind.HOROCYCLE:
        return False
    p, q = c1.center, c2.center
    if p.is_infinity or q.is_infinity:
        return p == q
    return abs(p.value - q.value) <= Q(EPS) * max(abs(p.value), abs(q.value), 1)


#: the bit length an exact line keeps beside an inexact line: the
#: determinant and the meeting point multiply each exact coefficient by one
#: inexact one, which is at most 1
_LINE_BITS = 1000


def _pair_coeffs(c1: Curve, c2: Curve):
    """Coefficients of both circles, one of them inexact, as floats, and the
    tolerance EPS of every sign test on them.

    An inexact circle with |a| <= EPS is taken as the line it is within
    tolerance.  An exact curve's floats are scaled into the range its sign
    tests need: two lines multiply no two exact coefficients, so they keep
    up to _LINE_BITS.
    """
    k1, k2 = (list(c.circle.coeffs()) for c in (c1, c2))
    for c, k in ((c1, k1), (c2, k2)):
        if not c.exact and abs(k[0]) <= EPS:
            k[0] = 0.0
    bits = _FLOAT_BITS if k1[0] or k2[0] else _LINE_BITS
    for c, k in ((c1, k1), (c2, k2)):
        if c.exact:
            k[:] = _int_floats(k, bits)
    return k1, k2, EPS


def _meet(k1, k2, tol):
    """How the two full circles meet: (count of meeting points above height
    tol, tangent, those points, count of meeting points within tol of
    height 0)."""
    a1, b1, c1, d1 = k1
    a2, b2, c2, d2 = k2
    if a1 == 0 and a2 == 0:
        return _line_line((b1, c1, d1), (b2, c2, d2), tol)
    if a1 == 0:
        return _line_circle((b1, c1, d1), k2, tol)
    if a2 == 0:
        return _line_circle((b2, c2, d2), k1, tol)
    # radical line: a2*C1 - a1*C2 vanishes on every common point
    line = (a2 * b1 - a1 * b2, a2 * c1 - a1 * c2, a2 * d1 - a1 * d2)
    if not any(line):  # proportional circles, excluded by c1 != c2
        raise InvalidInputError("curves lie on the same circle")
    return _line_circle(line, k1, tol)


def _line_line(l1, l2, tol):
    (B1, C1, D1), (B2, C2, D2) = l1, l2
    det = B1 * C2 - B2 * C1
    # within tol, the sine of the angle between the normals (B, C) is 0; the
    # test does not change when a line's coefficients are scaled
    if abs(det) <= (tol and tol * math.hypot(B1, C1) * math.hypot(B2, C2)):
        return 0, False, (), 0
    y = _number(B2 * D1 - B1 * D2, 0, 0, det)
    if y <= tol:
        return 0, False, (), int(y >= -tol)
    x = _number(C1 * D2 - C2 * D1, 0, 0, det)
    if tol:
        _finite(x, y)
    return 1, False, (UHPPoint(x, y),), 0


def _heights(q2, q1, q0, h):
    """How many of the two real roots of q2 y^2 + q1 y + q0 (q2 > 0) lie
    above h, and how many equal h: sign tests on the product and sum of the
    roots of the same quadratic in y - h."""
    s1, s0 = q1 + 2 * h * q2, q0 + h * (q1 + h * q2)
    if s0 < 0:
        return 1, 0
    if s0 == 0:
        return (1, 1) if s1 < 0 else (0, 2 if s1 == 0 else 1)
    return (2 if s1 < 0 else 0), 0


def _line_circle(line, circle, tol):
    """Meet of line Bx+Cy+D=0 with circle a(x^2+y^2)+bx+cy+d=0 (a > 0).

    The counts and tangency come from sign tests alone: the discriminant of
    the quadratic the meeting points solve, then the heights of the points
    against tol and -tol.
    """
    B, C, D = line
    a, b, c, d = circle
    L = B * B + C * C
    if L == 0:
        return 0, False, (), 0  # radical line at infinity: concentric circles
    # the meeting points' heights solve q2 y^2 + q1 y + q0 = 0 and their
    # abscissas q2 x^2 + p1 x + p0 = 0; the points are parametrised by the
    # coordinate t the line spreads along (x when |B| <= |C|), the other
    # coordinate u = -(beta t + D) / gamma is read off the line
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
    slack = tol * max(t1 * t1, abs(4 * q2 * t0))
    if disc < -slack:
        return 0, False, (), 0
    tangent = disc <= slack
    falling = B * C > 0  # y falls as x grows along the line
    if tangent:  # one double point, at height -q1 / (2 q2)
        on_axis = int(abs(q1) <= 2 * tol * q2)
        n = int(q1 + 2 * tol * q2 < 0)
        disc, roots = 0, (0,)
    else:
        n = _heights(q2, q1, q0, tol)[0]
        on_axis = sum(_heights(q2, q1, q0, -tol)) - n
        # t = (-t1 + s sqrt(disc)) / (2 q2) ascends with s (q2 > 0); a lone
        # point is the higher one
        roots = (-1, 1) if n == 2 else (-1,) if along_x and falling else (1,)
    if n == 0:
        return 0, False, (), on_axis
    points = []
    for s in roots:
        t = _number(-t1, s, disc, 2 * q2)
        u = _number(beta * t1 - 2 * q2 * D, -s * beta, disc, 2 * q2 * gamma)
        points.append(UHPPoint(t, u) if along_x else UHPPoint(u, t))
    if not along_x and falling:
        points.reverse()  # ascending x
    return n, tangent, tuple(points), on_axis


# ---------------------------------------------------------------------------
# pair taxonomy
# ---------------------------------------------------------------------------


class HypercyclePairType(Enum):
    EQUAL = "equal"
    SAME_ENDPOINTS = "same_endpoints"
    TYPE1 = "type1"  # interior tangency, no shared endpoint
    TYPE2 = "type2"  # one crossing and one shared endpoint
    TYPE3 = "type3"  # one crossing, no shared endpoint
    TYPE4 = "type4"  # two crossings
    DISJOINT = "disjoint"


def hypercycle_pair_type(c1: Curve, c2: Curve) -> HypercyclePairType:
    """Classify the relative position of two hypercycles."""
    for c in (c1, c2):
        if c.kind is not CurveKind.HYPERCYCLE:
            raise InvalidInputError("hypercycle_pair_type needs two hypercycles")
    return pair_type_from_pattern(c1, c2)


def pair_type_from_pattern(c1: Curve, c2: Curve) -> HypercyclePairType:
    """The same taxonomy applied to any pair of curves."""
    if c1 == c2:
        return HypercyclePairType.EQUAL
    pat = intersection_pattern(c1, c2)
    if pat.shared_endpoints == 2:
        return HypercyclePairType.SAME_ENDPOINTS
    if pat.tangent:
        return HypercyclePairType.TYPE1
    if pat.interior_count == 2:
        return HypercyclePairType.TYPE4
    if pat.interior_count == 1:
        return (
            HypercyclePairType.TYPE2
            if pat.shared_endpoints == 1
            else HypercyclePairType.TYPE3
        )
    return HypercyclePairType.DISJOINT


def same_endpoints(c1: Curve, c2: Curve) -> bool:
    """Do the two curves have identical boundary endpoint sets?

    Defined for curves with two endpoints (geodesics and hypercycles).
    """
    for c in (c1, c2):
        if c.kind is CurveKind.HOROCYCLE:
            raise InvalidInputError("same_endpoints needs two-endpoint curves")
    return c1 == c2 or intersection_pattern(c1, c2).shared_endpoints == 2


# ---------------------------------------------------------------------------
# horocycle order
# ---------------------------------------------------------------------------


class HorocycleOrder(Enum):
    LESS_OR_EQUAL = "leq"
    GREATER_OR_EQUAL = "geq"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def horocycle_leq(h1: Curve, h2: Curve) -> HorocycleOrder:
    """Horoball-containment order.  LESS_OR_EQUAL means horoball(h1) is
    contained in horoball(h2); horocycles at different centers are
    incomparable.

    Horoballs: the closed disk bounded by a finite-center horocycle, and the
    closed region lying above a horizontal-line horocycle (so for center
    infinity a *higher* line bounds a *smaller* horoball).
    """
    for h in (h1, h2):
        if h.kind is not CurveKind.HOROCYCLE:
            raise InvalidInputError("horocycle_leq needs two horocycles")
    if h1.center != h2.center:
        return HorocycleOrder.INCOMPARABLE
    if h1.size == h2.size:
        return HorocycleOrder.EQUAL
    smaller_ball = h1.size > h2.size if h1.center.is_infinity else h1.size < h2.size
    return HorocycleOrder.LESS_OR_EQUAL if smaller_ball else HorocycleOrder.GREATER_OR_EQUAL


# ---------------------------------------------------------------------------
# linkedness of boundary pairs
# ---------------------------------------------------------------------------


def linked(pair1, pair2) -> bool:
    """Are the two boundary pairs linked on the circle at infinity?

    {a, b} and {c, d} (all distinct) are linked when exactly one of c, d
    lies on each arc determined by a and b.  Pairs sharing a point are not
    linked.  With the points as integer pairs (`_projective`, oo = (1, 0))
    and [u, w] = u0 w1 - u1 w0, that is the cross-ratio's sign
    [c, a][d, b][c, b][d, a] < 0; a shared point makes it 0.
    """
    p, q = tuple(pair1), tuple(pair2)
    if len(p) != 2 or len(q) != 2 or p[0] == p[1] or q[0] == q[1]:
        raise InvalidInputError("linked needs two pairs of distinct points")
    (a0, a1), (b0, b1), (c0, c1), (d0, d1) = map(_projective, p + q)
    ca, db = c0 * a1 - c1 * a0, d0 * b1 - d1 * b0
    cb, da = c0 * b1 - c1 * b0, d0 * a1 - d1 * a0
    return ca * db * cb * da < 0


def geodesics_linked(g1: Curve, g2: Curve) -> bool:
    """Linkedness of the endpoint pairs of two geodesics (they cross iff linked)."""
    for g in (g1, g2):
        if g.kind is not CurveKind.GEODESIC:
            raise InvalidInputError("geodesics_linked needs geodesics")
    return linked(g1.endpoints, g2.endpoints)


# ---------------------------------------------------------------------------
# betweenness of mutually tangent curves
# ---------------------------------------------------------------------------


def between_tangent(c1: Curve, c2: Curve, c3: Curve) -> int:
    """Of three curves mutually tangent at one interior point, the index
    (0, 1, or 2) of the middle one.

    All on integers, from the Lorentz Gram matrix g of the coefficient
    vectors v_i (`_lorentz`): curves i and j touch iff g_ii g_jj = g_ij^2, at
    the null vector p = g_ij v_i - g_ii v_j, which is an interior point iff
    p_c (p_a + p_d) < 0.  Oriented along v_0 by the sign of g_0i, circles
    tangent at one point are nested there in the order of their signed
    curvatures a_i / sqrt(g_ii) (Coxeter, "Inversive distance"), and the
    middle curve has the middle one.
    """
    curves = (c1, c2, c3)
    if len({c.circle for c in curves}) != 3:
        raise InvalidInputError("between_tangent needs three distinct curves")
    if not all(c.exact for c in curves):
        raise InvalidInputError("between_tangent needs exact curves")
    v = [c.circle.coeffs() for c in curves]
    g = [[_lorentz(u, w) for w in v] for u in v]
    points = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        p = [g[i][j] * s - g[i][i] * t for s, t in zip(v[i], v[j])]
        if g[i][i] * g[j][j] != g[i][j] ** 2 or p[2] * (p[0] + p[3]) >= 0:
            raise InvalidInputError(
                f"curves {i} and {j} are not tangent at an interior point"
            )
        points.append(p)
    p = points[0]  # p_a != 0 at an interior point, which (p_b, p_c) / p_a fixes
    if any(p[0] * q[k] != q[0] * p[k] for q in points[1:] for k in (1, 2)):
        raise InvalidInputError("curves are not all tangent at the same point")
    a = [u[0] if g[0][i] > 0 else -u[0] for i, u in enumerate(v)]

    def compare(i, j):  # the sign of a_i / sqrt(g_ii) - a_j / sqrt(g_jj)
        si, sj = (a[i] > 0) - (a[i] < 0), (a[j] > 0) - (a[j] < 0)
        return si - sj if si != sj else si * (a[i] ** 2 * g[j][j] - a[j] ** 2 * g[i][i])

    return sorted(range(3), key=functools.cmp_to_key(compare))[1]
