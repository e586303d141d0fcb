import collections
import functools
import itertools
import math
import random

import pytest

from hyperk import (
    INFINITY,
    CurveKind,
    HorocycleOrder,
    BoundaryPoint,
    HypercyclePairType,
    Q,
    UHPPoint,
    between_tangent,
    curve_from_coeffs,
    geodesics_linked,
    horocycle_leq,
    hypercycle_pair_type,
    intersection_pattern,
    linked,
    make_geodesic,
    make_horocycle,
    make_hypercycle,
    same_endpoints,
)
from hyperk import model, predicates
from hyperk.constructions import (
    FoliatesComponent,
    classify_family_limit,
    disj_family,
    fixed_endpoint_family,
    pinch_pair,
    ray_family,
)
from hyperk.errors import (
    DegenerateResultError,
    HyperkError,
    InvalidInputError,
)
from hyperk.model import Curve, Isometry
from hyperk.verify import (
    rand_curve,
    rand_distinct_boundary,
    rand_geodesic,
    rand_horocycle,
    rand_hypercycle,
    rand_isometry,
    rand_q,
)

from exact_oracles import _oracle_intersection_pattern, sqrt_exact

F = BoundaryPoint.finite


class TestIntersectionPattern:
    def test_crossing_geodesics(self):
        p = intersection_pattern(
            make_geodesic(F(-1), F(1)), make_geodesic(F(0), INFINITY)
        )
        assert p.interior_count == 1 and not p.tangent

    def test_disjoint_geodesics(self):
        p = intersection_pattern(
            make_geodesic(F(-2), F(-1)), make_geodesic(F(1), F(2))
        )
        assert p.interior_count == 0

    def test_tangent_horocycles(self):
        h1 = make_horocycle(F(0), Q(1, 2))
        h2 = make_horocycle(F(1), Q(1, 2))
        p = intersection_pattern(h1, h2)
        assert p.tangent and p.interior_count == 1

    def test_shared_endpoint_counted(self):
        p = intersection_pattern(
            make_geodesic(F(0), F(1)), make_geodesic(F(0), F(2))
        )
        assert p.shared_endpoints == 1 and p.interior_count == 0

    def test_equal_curves(self):
        g = make_geodesic(F(-3), F(3))
        assert intersection_pattern(g, g).equal

    def test_exact_on_rational_inputs(self):
        # hairline near-tangency that floats would misclassify
        h1 = make_horocycle(F(0), Q(1, 2))
        h2 = make_horocycle(F(Q(10**9 + 1, 10**9)), Q(1, 2))
        p = intersection_pattern(h1, h2)
        assert not p.tangent and p.interior_count == 0


class TestHorocycleOrder:
    def test_same_center_nested(self):
        small = make_horocycle(F(0), Q(1, 4))
        big = make_horocycle(F(0), Q(1, 2))
        assert horocycle_leq(small, big) is HorocycleOrder.LESS_OR_EQUAL
        assert horocycle_leq(big, small) is HorocycleOrder.GREATER_OR_EQUAL

    def test_infinity_center_reversed_by_height(self):
        hi = make_horocycle(INFINITY, 3)
        lo = make_horocycle(INFINITY, 1)
        assert horocycle_leq(hi, lo) is not HorocycleOrder.INCOMPARABLE

    def test_different_centers_incomparable(self):
        h1 = make_horocycle(F(0), 1)
        h2 = make_horocycle(F(5), 1)
        assert horocycle_leq(h1, h2) is HorocycleOrder.INCOMPARABLE


class TestLinks:
    def test_interleaved_pairs_linked(self):
        assert linked((F(0), F(2)), (F(1), F(3)))

    def test_nested_pairs_not_linked(self):
        assert not linked((F(0), F(3)), (F(1), F(2)))

    def test_pair_with_infinity(self):
        assert linked((F(0), INFINITY), (F(-1), F(1)))

    def test_linked_iff_geodesics_cross(self):
        pairs = [
            ((F(0), F(2)), (F(1), F(3))),
            ((F(0), F(3)), (F(1), F(2))),
            ((F(-1), F(1)), (F(0), INFINITY)),
        ]
        for p1, p2 in pairs:
            g1, g2 = make_geodesic(*p1), make_geodesic(*p2)
            assert linked(p1, p2) == geodesics_linked(g1, g2)


class TestHypercyclePairTypes:
    def test_type1_tangent(self):
        c1 = curve_from_coeffs(1, 0, -1, Q(1, 2) - 1)  # tangent pencil at i
        c2 = curve_from_coeffs(1, 0, 2, -3)
        # construct from a known tangent pencil instead: r=3/2 and r=3
        c1 = curve_from_coeffs(1, 0, 2 * Q(3, 2) - 2, 1 - 2 * Q(3, 2))
        c2 = curve_from_coeffs(1, 0, 2 * Q(3) - 2, 1 - 2 * Q(3))
        assert hypercycle_pair_type(c1, c2) is HypercyclePairType.TYPE1

    def test_type2_shared_endpoint_crossing(self):
        c1 = make_hypercycle(F(0), F(4), UHPPoint(2, 3))
        c2 = make_hypercycle(F(0), F(2), UHPPoint(1, 2))
        t = hypercycle_pair_type(c1, c2)
        p = intersection_pattern(c1, c2)
        if p.interior_count == 1 and p.shared_endpoints == 1:
            assert t is HypercyclePairType.TYPE2

    def test_type4_two_crossings(self):
        c1 = make_hypercycle(F(-2), F(2), UHPPoint(0, 3))
        c2 = make_hypercycle(F(-1), F(1), UHPPoint(0, Q(5, 2)))
        p = intersection_pattern(c1, c2)
        if p.interior_count == 2:
            assert hypercycle_pair_type(c1, c2) is HypercyclePairType.TYPE4

    def test_equal_and_same_endpoint_pairs(self):
        c1 = make_hypercycle(F(-1), F(1), UHPPoint(0, 2))
        c2 = make_hypercycle(F(-1), F(1), UHPPoint(0, 3))
        g = make_geodesic(F(-1), F(1))
        assert hypercycle_pair_type(c1, c1) is HypercyclePairType.EQUAL
        assert hypercycle_pair_type(c1, c2) is HypercyclePairType.SAME_ENDPOINTS
        # the same taxonomy for any kinds
        assert predicates.pair_type_from_pattern(g, g) is HypercyclePairType.EQUAL
        assert predicates.pair_type_from_pattern(g, c2) is HypercyclePairType.SAME_ENDPOINTS


class TestBetweenness:
    def test_median_curvature_is_middle(self):
        def pencil(r):
            if r is None:
                return curve_from_coeffs(0, 0, 1, -1)
            return curve_from_coeffs(1, 0, 2 * r - 2, 1 - 2 * r)

        # curvatures: line 0, circle of radius r has curvature 1/r
        curves = [pencil(None), pencil(Q(1)), pencil(Q(1, 2))]
        # curvatures 0, 1, 2 -> middle is index 1
        assert between_tangent(*curves) == 1


class TestSameEndpoints:
    def test_geodesic_vs_hypercycle(self):
        g = make_geodesic(F(-1), F(1))
        c = make_hypercycle(F(-1), F(1), UHPPoint(0, 2))
        assert same_endpoints(g, c)
        assert not same_endpoints(g, make_geodesic(F(-1), F(2)))


class TestInexactPatterns:
    # curves given by floats are read at the exact values of the floats,
    # so their patterns are exact

    def test_float_horocycle_tangent_to_line(self):
        p = intersection_pattern(make_horocycle(F(0), 0.5), make_horocycle(INFINITY, 1))
        assert p.tangent and p.interior_count == 1
        assert p.shared_endpoints == 0
        assert p.interior_points[0] == UHPPoint(0, 1) and p.interior_points[0].exact

    def test_float_hypercycle_crosses_axis(self):
        c = make_hypercycle(F(-1), F(1), UHPPoint(0, 2.0))
        p = intersection_pattern(c, make_geodesic(F(0), INFINITY))
        assert p.interior_count == 1 and not p.tangent
        assert p.interior_points[0] == UHPPoint(0, 2) and p.interior_points[0].exact

    def test_float_hypercycle_shares_both_endpoints(self):
        c = make_hypercycle(F(-1), F(1), UHPPoint(0, 2.0))
        g = make_geodesic(F(-1), F(1))
        p = intersection_pattern(c, g)
        assert (p.interior_count, p.shared_endpoints) == (0, 2)
        assert same_endpoints(c, g)
        assert not same_endpoints(c, make_geodesic(F(-1), F(2)))

    def test_float_horocycles_disjoint(self):
        p = intersection_pattern(make_horocycle(F(0), 0.25), make_horocycle(F(3), 0.5))
        assert (p.interior_count, p.tangent, p.shared_endpoints) == (0, False, 0)

    def test_float_concentric_circles_do_not_meet(self, monkeypatch):
        # the radical line of concentric circles is the line at infinity
        # (B = C = 0), which meets neither circle
        inner = curve_from_coeffs(1.0, 0.0, 0.0, -1.0)
        outer = curve_from_coeffs(1.0, 0.0, 0.0, -4.0)
        lines = []
        line_circle = predicates._line_circle

        def spy(line, circle):
            lines.append(line[:2])
            return line_circle(line, circle)

        monkeypatch.setattr(predicates, "_line_circle", spy)
        for pair in ((inner, outer), (outer, inner), (curve_from_coeffs(1, 0, 0, -1), outer)):
            p = intersection_pattern(*pair)
            assert (p.interior_count, p.tangent, p.shared_endpoints) == (0, False, 0)
            assert p.interior_points == ()
        assert lines == [(0, 0)] * 3

    def test_float_horocycles_crossing_twice(self):
        p = intersection_pattern(make_horocycle(F(0), 1.5), make_horocycle(F(1), 1.5))
        assert (p.interior_count, p.tangent) == (2, False)
        assert [round(z.as_floats()[0], 9) for z in p.interior_points] == [0.5, 0.5]

    def test_rays_share_both_endpoints(self):
        members = _float_members(ray_family())
        p = intersection_pattern(members[0], members[-1])
        assert (p.interior_count, p.shared_endpoints) == (0, 2)

    def test_pinch_witnesses_tangent_to_both_inputs(self):
        # the witnesses have irrational centres, so they are inexact: they
        # have no intersection pattern, and touch both inputs exactly, by
        # D2 = 0 on their coefficients in Z[sqrt D]
        h0, h = make_horocycle(F(0), 1), make_horocycle(F(3), Q(1, 2))
        witnesses = pinch_pair(h0, h)
        assert not any(w.exact for w in witnesses)
        for w in witnesses:
            for other in (h0, h):
                assert model._d2(w.coeffs(), other.circle.coeffs()) == 0
                for pair in ((w, other), (other, w)):
                    with pytest.raises(InvalidInputError,
                                       match="^intersection patterns need exact curves$"):
                        intersection_pattern(*pair)


# ---------------------------------------------------------------------------
# differential tests against the two implementations intersection_pattern
# replaced: an exact one on Fractions and a float one with tolerance EPS
# ---------------------------------------------------------------------------

#: the float oracle's tolerance: it drops points below this height, and its
#: irrational points, float pairs, match the kernel's floats within it
EPS = 1e-9


def _as_answered(points):
    """The points as the replaced routine answered them: a rational point
    itself, an irrational one as the pair of its floats."""
    return tuple(p if p.exact else p.as_floats() for p in points)


def _on_circle(point, k):
    """Is the point on the circle of coefficients k exactly?  For an
    irrational point (X/W, Y/V), W^2 V^2 times the circle's equation is a
    `Surd` of Z[sqrt D], which must be 0."""
    if point.exact:
        return model.GeneralizedCircle(*k).sign_at(point.x, point.y) == 0
    (X, W), (Y, V) = point.coords
    a, b, c, d = k
    value = a * (X * X * V * V + Y * Y * W * W) + b * X * W * V * V + c * Y * V * W * W
    return value + d * W * W * V * V == 0


def _matches(point, oracle_point):
    """The kernel's point against the float oracle's: equal to a rational
    oracle point, and within EPS of an irrational one, a pair of floats."""
    if isinstance(oracle_point, UHPPoint):
        return point == oracle_point
    return all(math.isclose(u, v, abs_tol=EPS)
               for u, v in zip(point.as_floats(), oracle_point))


def _oracle_interior_meet_exact(c1: Curve, c2: Curve):
    a1, b1, c1_, d1 = (Q(v) for v in c1.circle.coeffs())
    a2, b2, c2_, d2 = (Q(v) for v in c2.circle.coeffs())
    if a1 == 0 and a2 == 0:
        return _oracle_line_line_exact((b1, c1_, d1), (b2, c2_, d2))
    if a1 == 0:
        return _oracle_line_circle_exact((b1, c1_, d1), (a2, b2, c2_, d2))
    if a2 == 0:
        return _oracle_line_circle_exact((b2, c2_, d2), (a1, b1, c1_, d1))
    # radical line: a2*C1 - a1*C2 vanishes on every common point
    line = (a2 * b1 - a1 * b2, a2 * c1_ - a1 * c2_, a2 * d1 - a1 * d2)
    if line == (0, 0, 0):  # proportional circles, excluded by c1 != c2
        raise InvalidInputError("curves lie on the same circle")
    return _oracle_line_circle_exact(line, (a1, b1, c1_, d1))


def _oracle_line_line_exact(l1, l2):
    (B1, C1, D1), (B2, C2, D2) = l1, l2
    det = B1 * C2 - B2 * C1
    if det == 0:
        return 0, False, ()
    x = (C1 * D2 - C2 * D1) / det
    y = (B2 * D1 - B1 * D2) / det
    if y > 0:
        return 1, False, (UHPPoint(x, y),)
    return 0, False, ()


def _oracle_line_circle_exact(line, circle):
    """Meet of line Bx+Cy+D=0 with circle a(x^2+y^2)+bx+cy+d=0 (a != 0), y>0."""
    B, C, D = line
    a, b, c, d = circle
    if B == 0 and C == 0:
        return 0, False, ()  # radical line at infinity: concentric circles
    if C == 0:
        # vertical line x = x0; quadratic a y^2 + c y + E = 0
        x0 = -D / B
        E = a * x0 * x0 + b * x0 + d
        disc = c * c - 4 * a * E
        if disc < 0:
            return 0, False, ()
        if disc == 0:
            y_star = -c / (2 * a)
            if y_star > 0:
                return 1, True, (UHPPoint(x0, y_star),)
            return 0, False, ()
        # two distinct roots; count the positive ones by sign of product/sum
        points = _oracle_positive_roots_points(a, c, E, x0)
        return len(points), False, points
    # substitute y = -(Bx+D)/C; multiply by C^2
    p2 = a * (B * B + C * C)
    p1 = 2 * a * B * D + b * C * C - c * B * C
    p0 = a * D * D - c * C * D + d * C * C
    disc = p1 * p1 - 4 * p2 * p0
    if disc < 0:
        return 0, False, ()
    if disc == 0:
        x_star = -p1 / (2 * p2)
        y_star = -(B * x_star + D) / C
        if y_star > 0:
            return 1, True, (UHPPoint(x_star, y_star),)
        return 0, False, ()
    # two distinct roots x1 < x2 of P; y_i = -B(x_i - x0)/C with x0 = -D/B,
    # decided without taking the square root
    root = sqrt_exact(disc)
    if B == 0:
        y_const = -D / C
        if y_const <= 0:
            return 0, False, ()
        n_pos = 2
    else:
        x0 = -D / B
        s = 1 if -B * C > 0 else -1  # y_i > 0  iff  s*(x_i - x0) > 0
        val = p2 * x0 * x0 + p1 * x0 + p0  # sign of P at x0 (p2 > 0)
        if val < 0:
            n_pos = 1  # x0 strictly between the roots
        elif val > 0:
            vertex = -p1 / (2 * p2)
            both_side = 1 if x0 < vertex else -1  # side of both roots w.r.t. x0
            n_pos = 2 if s == both_side else 0
        else:
            other = -p1 / p2 - x0  # second root (x0 itself gives y = 0)
            n_pos = 1 if s * (other - x0) > 0 else 0
    if n_pos == 0:
        return 0, False, ()
    points = []
    if root is not None:
        xs = ((-p1 - root) / (2 * p2), (-p1 + root) / (2 * p2))
        for x in xs:
            y = -(B * x + D) / C
            if y > 0:
                points.append(UHPPoint(x, y))
    else:
        fr = math.sqrt(float(disc))
        for x in ((-float(p1) - fr) / (2 * float(p2)), (-float(p1) + fr) / (2 * float(p2))):
            y = -(float(B) * x + float(D)) / float(C)
            if y > EPS:
                points.append((x, y))
    assert len(points) == n_pos or root is None
    return n_pos, False, tuple(points)


def _oracle_positive_roots_points(a, c, E, x0):
    """Points (x0, y) with a y^2 + c y + E = 0, y > 0, two distinct roots."""
    disc = c * c - 4 * a * E
    root = sqrt_exact(disc)
    prod = E / a
    tot = -c / a
    if prod > 0:
        n_pos = 2 if tot > 0 else 0
    elif prod < 0:
        n_pos = 1
    else:
        n_pos = 1 if tot > 0 else 0
    if n_pos == 0:
        return ()
    if root is not None:
        ys = ((-c - root) / (2 * a), (-c + root) / (2 * a))
        return tuple(UHPPoint(x0, y) for y in sorted(ys) if y > 0)
    fr = math.sqrt(float(disc))
    ys = ((-float(c) - fr) / (2 * float(a)), (-float(c) + fr) / (2 * float(a)))
    return tuple((float(x0), y) for y in sorted(ys) if y > EPS)


def _oracle_shared_endpoints_exact(c1: Curve, c2: Curve) -> int:
    a1, b1, d1 = c1.circle.a, c1.circle.b, c1.circle.d
    a2, b2, d2 = c2.circle.a, c2.circle.b, c2.circle.d
    if a1 != 0 and a2 != 0:
        if (a1 * b2 == a2 * b1) and (a1 * d2 == a2 * d1):
            # identical real-axis trace: all endpoints shared
            return 2 if b1 * b1 - 4 * a1 * d1 > 0 else 1
        res = (a1 * d2 - a2 * d1) ** 2 - (a1 * b2 - a2 * b1) * (b1 * d2 - b2 * d1)
        return 1 if res == 0 else 0
    if a1 == 0 and a2 == 0:
        shared = 1  # both lines pass through infinity
        if b1 != 0 and b2 != 0 and b1 * d2 == b2 * d1:
            shared = 2  # same finite foot as well
        if b1 == 0 or b2 == 0:
            # a horizontal line's only endpoint is infinity
            shared = 1
        return shared
    line, circ = (c1, c2) if a1 == 0 else (c2, c1)
    if line.circle.b == 0:
        return 0  # horizontal line: endpoint only at infinity
    x = Q(-line.circle.d) / Q(line.circle.b)
    a, b, d = circ.circle.a, circ.circle.b, circ.circle.d
    return 1 if a * x * x + b * x + d == 0 else 0


def _oracle_pattern(c1: Curve, c2: Curve):
    count, tangent, points = _oracle_interior_meet_exact(c1, c2)
    return count, tangent, _oracle_shared_endpoints_exact(c1, c2), points


def _pattern(c1: Curve, c2: Curve):
    p = intersection_pattern(c1, c2)
    return p.interior_count, p.tangent, p.shared_endpoints, p.interior_points


def _tangent_pairs(rng, n):
    """Pairs built tangent at one interior point."""
    pairs = []
    for i in range(n):
        r = abs(rand_q(rng, 1, 3, 4)) + 1
        if i % 3 == 0:  # two finite horocycles: (p - q)^2 = 4 r s
            p, q = rand_distinct_boundary(rng, 2, allow_inf=False)
            s = (p.value - q.value) ** 2 / (4 * r)
            pairs.append((make_horocycle(p, r), make_horocycle(q, s)))
        elif i % 3 == 1:  # horizontal horocycle at height 2r over h(p, r)
            p = F(rand_q(rng))
            pairs.append((make_horocycle(INFINITY, 2 * r), make_horocycle(p, r)))
        else:  # h(p, r) touches the vertical geodesic x = p + r at (p + r, r)
            p = rand_q(rng)
            pairs.append((make_horocycle(F(p), r), make_geodesic(F(p + r), INFINITY)))
    return pairs


def _shared_pairs(rng, n):
    """Pairs with one or two shared boundary endpoints."""
    pairs = []
    for i in range(n):
        p, q, r = rand_distinct_boundary(rng, 3, allow_inf=i % 4 == 0)
        if i % 3 == 0:
            pairs.append((make_geodesic(p, q), make_geodesic(p, r)))
            continue
        finite = [v.value for v in (p, q) if not v.is_infinity]
        x = finite[0] + 1 if len(finite) == 1 else sum(finite) / 2
        try:
            hyp = make_hypercycle(p, q, UHPPoint(x, abs(rand_q(rng, 1, 4, 4)) + Q(1, 3)))
        except DegenerateResultError:
            continue
        pairs.append((make_geodesic(p, q), hyp) if i % 3 == 1 else (hyp, make_geodesic(q, r)))
    return pairs


def _exact_corpus():
    """Seeded pairs of all six kind pairs, tangent pairs and pairs with
    shared endpoints, each also moved by a random isometry."""
    rng = random.Random(20240527)
    makers = (rand_geodesic, rand_horocycle, rand_hypercycle)
    pairs = []
    for m1, m2 in itertools.combinations_with_replacement(makers, 2):
        pairs += [(m1(rng), m2(rng)) for _ in range(40)]
    pairs += _tangent_pairs(rng, 30) + _shared_pairs(rng, 30)
    pairs = [(c1, c2) for c1, c2 in pairs if c1 != c2]
    moved = []
    for c1, c2 in pairs:
        g = rand_isometry(rng)
        moved.append((g.apply_curve(c1), g.apply_curve(c2)))
    return pairs + moved


def _factor(rng):
    while True:
        m = [rng.randint(-9, 9) for _ in range(4)]
        det = m[0] * m[3] - m[1] * m[2]
        if det:
            if det < 0:
                m[0], m[1] = -m[0], -m[1]
            return Isometry(*m, reversing=rng.random() < 0.3)


def _deep_corpus(small):
    """(deep pair, small pair it came from): 8-64 composed isometries with
    entries in [-9, 9] push the coefficients past 2^200."""
    rng = random.Random(631)
    out = []
    for c1, c2 in small[::5]:
        h = _factor(rng)
        for _ in range(rng.randint(8, 64) - 1):
            h = _factor(rng).compose(h)
        out.append(((h.apply_curve(c1), h.apply_curve(c2)), (c1, c2)))
    return out


def test_exact_pairs_match_oracle():
    pairs = _exact_corpus()
    assert len(pairs) > 500
    for c1, c2 in pairs:
        new, old = _pattern(c1, c2), _oracle_pattern(c1, c2)
        assert new[:3] == old[:3], (c1, c2)
        assert len(new[3]) == len(old[3]), (c1, c2)
        assert all(_matches(p, q) for p, q in zip(new[3], old[3])), (c1, c2)


def test_deep_pairs_match_oracle_or_their_small_pair():
    deep = _deep_corpus(_exact_corpus())
    bits = max(abs(v).bit_length() for (d1, d2), _ in deep for v in d1.circle.coeffs() + d2.circle.coeffs())
    assert bits > 200
    seen = {"overflow": 0, "undercount": 0, "agree": 0}
    for (d1, d2), (c1, c2) in deep:
        new, base = _pattern(d1, d2)[:3], _pattern(c1, c2)[:3]
        assert new == base, (d1, d2)  # isometry invariance
        try:
            old = _oracle_pattern(d1, d2)[:3]
        except OverflowError:
            seen["overflow"] += 1
            continue
        if old[0] < base[0] and old[1:] == base[1:]:
            seen["undercount"] += 1
        else:
            assert new == old, (d1, d2)
            seen["agree"] += 1
    # the corpus shows both faults of the replaced exact routine
    assert seen["overflow"] and seen["undercount"] and seen["agree"], seen


def _chebyshev_grid(n=65):
    """n Chebyshev-Lobatto points on [0, 1], both ends included."""
    return [(1 - math.cos(math.pi * j / (n - 1))) / 2 for j in range(n)]


def _float_members(fam):
    """Copies, given by floats, of a family's exact curves at the Chebyshev
    parameters: its members below 1, and at 1 its limit when that is a
    curve."""
    curves = [fam.member(t) for t in _chebyshev_grid() if t < 1]
    limit = classify_family_limit(fam)
    if not isinstance(limit, FoliatesComponent):
        curves.append(limit.curve)
    return [curve_from_coeffs(*(float(v) for v in c.circle.coeffs())) for c in curves]


def test_inexact_pairs_match_oracle():
    # float copies of family members, read at their exact values, match
    # the exact oracle, and a pair with an irrational pinch witness is
    # refused
    rng = random.Random(5)
    families = [_float_members(ray_family()), _float_members(fixed_endpoint_family(3, Q(3, 2)))]
    pairs = []
    while len(families) < 8:
        h, hp = rand_horocycle(rng), rand_hypercycle(rng)
        pat = intersection_pattern(h, hp)
        if pat.interior_count or pat.shared_endpoints or pat.tangent:
            continue
        families.append(_float_members(disj_family(h, hp)))
        pairs += [(m, c) for m in families[-1] for c in (h, hp)]
    probe = make_geodesic(F(0), INFINITY)
    for members in families:
        pairs += list(itertools.combinations(members, 2)) + [(probe, m) for m in members]
    pairs = [(c1, c2) for c1, c2 in pairs if c1 != c2]
    assert len(pairs) > 1000 and all(c1.exact and c2.exact for c1, c2 in pairs)
    kinds = set()
    for c1, c2 in pairs:
        new, old = _pattern(c1, c2), _oracle_intersection_pattern(c1, c2)
        assert new[:3] == old[:3] and _as_answered(new[3]) == old[3], (c1, c2)
        kinds.add(frozenset((c1.kind, c2.kind)))
    assert len(kinds) >= 4
    witness = pinch_pair(make_horocycle(F(0), 1), make_horocycle(F(5), 2))[0]
    with pytest.raises(InvalidInputError, match="^intersection patterns need exact curves$"):
        intersection_pattern(witness, probe)


@pytest.mark.parametrize("coeffs", [
    (1, 0, 0, -1),  # geodesic
    (0, 1, 0, -3),  # vertical geodesic
    (1, 0, -2, 0),  # horocycle at 0
    (0, 0, 1, -2),  # horocycle at oo
    (1, 0, -2, -3),  # hypercycle
    (0, 1, 1, -3),  # oblique line: hypercycle
])
def test_an_exact_curve_and_its_float_copy_are_one_curve(coeffs):
    # the copy is read at the exact value of its floats
    exact = curve_from_coeffs(*coeffs)
    copy = curve_from_coeffs(*map(float, coeffs))
    assert copy.exact and copy == exact and hash(copy) == hash(exact)
    # a copy scaled by 1 + 10^-6 about 0 is another curve
    moved = Isometry.scaling(Q(10**6 + 1, 10**6)).apply_curve(copy)
    for c1, c2 in ((exact, copy), (copy, exact), (copy, copy)):
        pat = intersection_pattern(c1, c2)
        assert pat.equal and pat.describe() == "equal curves"
        assert predicates.pair_type_from_pattern(c1, c2) is HypercyclePairType.EQUAL
        if exact.kind is not CurveKind.HOROCYCLE:
            assert same_endpoints(c1, c2)
        assert not intersection_pattern(c1, moved).equal
        assert predicates.pair_type_from_pattern(c1, moved) is not HypercyclePairType.EQUAL


def test_inexact_horocycles_at_one_center_share_it():
    # float sizes are read at their exact values, so the image's centre is
    # 0 exactly; the float tests on the heights of the float images counted
    # 0 shared endpoints for k = 8 and 2 for k = 1
    h0 = make_horocycle(F(0), Q(20, 7))
    counts = []
    for k in range(1, 200):
        h = Isometry(3, 4, -3, 0).apply_curve(make_horocycle(F(Q(-4, 3)), k / 37))
        assert h.exact and h.center == h0.center
        for pair in ((h, h0), (h0, h)):
            p = intersection_pattern(*pair)
            counts.append((p.interior_count, p.tangent, p.shared_endpoints))
    # an exact horocycle whose coefficients span more than the float range
    tiny = make_horocycle(F(0), Q(1, 2**1300))
    for pair in ((tiny, h), (h, tiny)):
        p = intersection_pattern(*pair)
        counts.append((p.interior_count, p.tangent, p.shared_endpoints))
    assert set(counts) == {(0, False, 1)}


def test_vertical_radical_line_counts_crossing_below_eps():
    # two geodesics (radical line x = const) crossing at height 1e-10
    g1 = make_geodesic(F(-1), F(1))
    g2 = make_geodesic(F(1 - Q(1, 10**20)), F(3))
    p = intersection_pattern(g1, g2)
    assert (p.interior_count, p.tangent, p.shared_endpoints) == (1, False, 0)
    assert 0 < p.interior_points[0].as_floats()[1] < EPS
    assert _oracle_pattern(g1, g2)[0] == 0  # the replaced routine undercounted


def test_deep_pair_beyond_float_range():
    c1 = make_hypercycle(F(-2), F(2), UHPPoint(0, 3))
    c2 = make_geodesic(F(-1), F(3))
    big = Isometry(2**300 + 1, 1, 2**300, 1)
    d1, d2 = big.apply_curve(c1), big.apply_curve(c2)
    p = intersection_pattern(d1, d2)
    assert (p.interior_count, p.tangent, p.shared_endpoints) == (1, False, 0)
    # the meeting point is irrational: exact on both circles, and refused
    # by the exact isometry action, which rounded it to floats before
    (point,), (base,) = p.interior_points, intersection_pattern(c1, c2).interior_points
    assert not point.exact and all(_on_circle(point, d.circle.coeffs()) for d in (d1, d2))
    with pytest.raises(InvalidInputError, match="is irrational"):
        big.apply_point(base)
    with pytest.raises(OverflowError):  # the replaced routine took float(disc)
        _oracle_pattern(d1, d2)


# ---------------------------------------------------------------------------
# Gram-sign counts against the point-building routine they replaced
# ---------------------------------------------------------------------------


def _circle(cx, cy, r):
    """The curve of the circle of centre (cx, cy) and radius r."""
    return curve_from_coeffs(1, -2 * cx, -2 * cy, cx * cx + cy * cy - r * r)


#: rational unit vectors along which touching circles put their centres
_UNITS = ((0, 1), (1, 0), (Q(3, 5), Q(4, 5)), (Q(-4, 5), Q(3, 5)), (Q(5, 13), Q(-12, 13)))


def _degenerate_pairs(rng, n):
    """Pairs the sign tests meet at zero: circles touching above, on and
    below the axis, inside or outside each other; two lines (vertical
    geodesics, horocycles at oo, slanted hypercycles, all sharing oo);
    horocycles at one centre; curves with one or two shared endpoints and
    tangent pairs.  Each pair is also moved by a random isometry."""
    pairs = _tangent_pairs(rng, n) + _shared_pairs(rng, n)
    for i in range(n):
        tx, ty = rand_q(rng), (i % 3 - 1) * (abs(rand_q(rng, 1, 3, 4)) + 1)
        ux, uy = _UNITS[i % len(_UNITS)]
        r1, r2 = abs(rand_q(rng, 2, 9, 3)) + 1, abs(rand_q(rng, 2, 9, 3)) + 1
        s = 1 if i % 2 else -1  # centres on one side of the touching point or on both
        try:
            pairs.append((_circle(tx + r1 * ux, ty + r1 * uy, r1),
                          _circle(tx + s * r2 * ux, ty + s * r2 * uy, r2)))
        except HyperkError:  # a circle below the axis carries no curve
            pass
        p, q = F(rand_q(rng)), F(rand_q(rng))
        up = UHPPoint(rand_q(rng), abs(rand_q(rng)) + 1)
        lines = [make_geodesic(p, INFINITY), make_horocycle(INFINITY, abs(rand_q(rng)) + 1)]
        if up.x != p.value:
            lines.append(make_hypercycle(p, INFINITY, up))
        lines += [make_geodesic(q, INFINITY), make_horocycle(INFINITY, abs(rand_q(rng)) + 2)]
        pairs += list(itertools.combinations(lines, 2))
        r = abs(rand_q(rng)) + 1
        pairs.append((make_horocycle(p, r), make_horocycle(p, r + abs(rand_q(rng)) + 1)))
        if p != q:
            lo, hi = sorted((p.value, q.value))
            arcs = [make_hypercycle(p, q, UHPPoint((lo + hi) / 2, f * (hi - lo) / 2))
                    for f in (Q(1, 7), 2, 5)]  # f = 1 is the geodesic
            pairs += list(itertools.combinations(arcs + [make_geodesic(p, q)], 2))
    pairs = [(c1, c2) for c1, c2 in pairs if c1 != c2]
    moved = []
    for c1, c2 in pairs:
        g = rand_isometry(rng)
        moved.append((g.apply_curve(c1), g.apply_curve(c2)))
    return pairs + moved


def _seeded_pairs(rng, n):
    pairs = [(rand_curve(rng), rand_curve(rng)) for _ in range(n)]
    return [(c1, c2) for c1, c2 in pairs if c1 != c2] + _exact_corpus()


def _oracle_answer(c1, c2):
    """The replaced routine's answer, or None where it refuses the pair."""
    try:
        return _oracle_intersection_pattern(c1, c2)
    except (InvalidInputError, OverflowError):
        return None


def _check_against_oracle(pairs):
    """Compare counts and, where the oracle answers, points; return the
    answers and how many pairs the oracle refused."""
    counts, refused = collections.Counter(), 0
    for c1, c2 in pairs:
        pat, old = intersection_pattern(c1, c2), _oracle_answer(c1, c2)
        assert not pat.equal
        got = (pat.interior_count, pat.tangent, pat.shared_endpoints)
        counts[got] += 1
        if old is None:
            refused += 1
            continue
        assert got == old[:3], (c1, c2)
        assert _as_answered(pat.interior_points) == old[3], (c1, c2)
    return counts, refused


#: every answer two distinct curves can give
_ALL_COUNTS = {(0, False, 0), (1, True, 0), (1, False, 0), (2, False, 0),
               (0, False, 1), (1, False, 1), (0, False, 2)}


def test_gram_counts_match_oracle_on_seeded_pairs():
    counts, refused = _check_against_oracle(_seeded_pairs(random.Random(2101), 3000))
    assert refused == 0 and sum(counts.values()) > 3000
    assert set(counts) == _ALL_COUNTS, counts


def test_gram_counts_match_oracle_on_degenerate_pairs():
    pairs = _degenerate_pairs(random.Random(2102), 60)
    counts, refused = _check_against_oracle(pairs)
    assert refused == 0 and sum(counts.values()) > 1500
    assert set(counts) == _ALL_COUNTS - {(1, False, 0), (2, False, 0)}, counts
    # touching circles (D2 = 0) meet above, on and below the axis
    touching = collections.Counter(
        (p.interior_count, p.tangent, p.shared_endpoints)
        for p in (intersection_pattern(c1, c2) for c1, c2 in pairs
                  if model._d2(c1.circle.coeffs(), c2.circle.coeffs()) == 0)
    )
    assert set(touching) == {(1, True, 0), (0, False, 1), (0, False, 0)}, touching
    assert min(touching.values()) > 10, touching


def _600_bit_pairs():
    """(small pair, its image under a 2^600-entry isometry) for seeded and
    degenerate pairs."""
    rng = random.Random(2103)
    small = _seeded_pairs(rng, 150)[::3] + _degenerate_pairs(rng, 12)[::3]
    out = []
    for k, (c1, c2) in enumerate(small):
        g = Isometry(2**600 + k % 9 + 1, 1, 2**600, 1, reversing=k % 2 == 1)
        out.append(((c1, c2), (g.apply_curve(c1), g.apply_curve(c2))))
    return out


def test_gram_counts_match_oracle_on_600_bit_pairs():
    big = []
    for (c1, c2), (d1, d2) in _600_bit_pairs():
        base = intersection_pattern(c1, c2)
        pat = intersection_pattern(d1, d2)
        want = (base.interior_count, base.tangent, base.shared_endpoints)
        assert (pat.interior_count, pat.tangent, pat.shared_endpoints) == want, (c1, c2)
        big.append((d1, d2))
    # only a horocycle at 0, whose image is the horocycle at 1, stays small
    wide = [max(abs(v).bit_length() for v in d1.circle.coeffs() + d2.circle.coeffs()) > 600
            for d1, d2 in big]
    assert sum(wide) > 0.95 * len(big)
    counts, refused = _check_against_oracle(big)
    assert set(counts) == _ALL_COUNTS and sum(counts.values()) > 400
    # the replaced routine refused some pairs outright, rounding a height to 0
    assert 0 < refused < len(big) // 2


def test_600_bit_pairs_give_every_point_exactly():
    # no pair refuses its points, where the float points refused 91 of the
    # 406: each pair has interior_count points, each exactly on both
    # circles, its height positive by an integer sign test
    seen = collections.Counter()
    for _, (d1, d2) in _600_bit_pairs():
        pat = intersection_pattern(d1, d2)
        points = pat.interior_points
        assert len(points) == pat.interior_count, (d1, d2)
        for p in points:
            assert all(_on_circle(p, d.circle.coeffs()) for d in (d1, d2)), (d1, d2)
            if p.exact:
                assert p.y > 0
            else:
                (X, W), (Y, V) = p.coords
                assert X.D == Y.D and W > 0 and V > 0 and Y.sign() > 0, p
                # lowest terms: no common factor of u, v and the denominator
                assert all(math.gcd(P.u, P.v, w) == 1 for P, w in p.coords), p
            seen[p.exact, p.as_floats()[1] > 0] += 1
    # rational and irrational points, all squeezed to within about 2^-1200
    # of the axis, below the float range
    assert set(seen) == {(True, False), (False, False)} and min(seen.values()) > 90, seen


def _per_pair_counts(curves):
    """Each pair's counts from a Gram matrix formed anew, as `_gram_counts`
    reads it, and from `intersection_pattern`, which must agree; (0, False,
    1) for equal curves."""
    out = []
    for c1, c2 in itertools.combinations(curves, 2):
        k1, k2 = c1.circle.coeffs(), c2.circle.coeffs()
        g11, g22 = model._lorentz(k1, k1), model._lorentz(k2, k2)
        counts = predicates._gram_counts(k1, k2, g11, g22, model._lorentz(k1, k2))
        pat = intersection_pattern(c1, c2)
        if pat.equal:
            assert counts == (0, False, 1)
        else:
            assert counts == (pat.interior_count, pat.tangent, pat.shared_endpoints)
        out.append(counts)
    return out


def test_pair_count_loop_matches_per_pair_counts():
    # the one loop over the norms and vectors each circle keeps, which
    # answers D2 < 0 itself, gives every pair's counts, equal curves too
    rng = random.Random(2719)
    configs = [[d1, d2, d1, c1] for (c1, _), (d1, d2) in _600_bit_pairs()]
    for _ in range(120):
        curves = [rand_curve(rng) for _ in range(rng.randint(3, 6))]
        g = rand_isometry(rng)
        configs.append(curves + [g.apply_curve(c) for c in curves[:2]] + curves[:1])
    seen = collections.Counter()
    for curves in configs:
        counts = list(predicates._iter_pair_counts(curves))
        assert counts == _per_pair_counts(curves)
        seen.update(counts)
    assert set(seen) == _ALL_COUNTS and min(seen.values()) >= 20, seen


def test_counts_past_the_float_range_need_no_points():
    # the isometry squeezes both curves near x = 1, where they cross at
    # irrational heights of about 2^-1200: the counts are exact, the points
    # round to height 0.0 and are refused when read
    t = Isometry(2**600 + 9, 1, 2**600, 1)
    h, g = curve_from_coeffs(12, -168, -95, 588), curve_from_coeffs(16, -146, 0, 315)
    th, tg = t.apply_curve(h), t.apply_curve(g)
    pat, base = intersection_pattern(th, tg), intersection_pattern(h, g)
    assert (pat.interior_count, pat.tangent, pat.shared_endpoints) == (2, False, 0)
    assert (base.interior_count, base.tangent, base.shared_endpoints) == (2, False, 0)
    assert len(base.interior_points) == 2
    # the points are irrational, held exactly, and read at any size: the
    # heights are positive, though their floats round to 0.0
    assert not any(p.exact for p in base.interior_points + pat.interior_points)
    assert repr(base.interior_points[0]) == (
        "((379416192-sqrt(2334803886489600))/76475904, "
        "(3136368000+39*sqrt(2334803886489600))/4843473920)")
    for p in pat.interior_points:
        assert all(_on_circle(p, c.circle.coeffs()) for c in (th, tg))
        assert p.coords[1][0].sign() > 0 and p.as_floats()[1] == 0.0
    with pytest.raises(InvalidInputError):  # the replaced routine refused the counts too
        _oracle_intersection_pattern(th, tg)


def test_exact_pattern_builds_its_points_once_when_read(monkeypatch):
    calls = []
    meet = predicates._meet

    def counted(*args):
        calls.append(args)
        return meet(*args)

    monkeypatch.setattr(predicates, "_meet", counted)
    pat = intersection_pattern(make_geodesic(F(-1), F(1)), make_geodesic(F(0), INFINITY))
    assert calls == [] and pat.interior_count == 1
    assert pat.interior_points == (UHPPoint(0, 1),) and len(calls) == 1
    assert pat.interior_points == (UHPPoint(0, 1),) and len(calls) == 1
    assert pat == predicates.IntersectionPattern(1, False, 0, (UHPPoint(0, 1),))


def _oracle_between_tangent(c1: Curve, c2: Curve, c3: Curve) -> int:
    """The replaced `between_tangent`: three `intersection_pattern` calls,
    then exact signed Euclidean curvatures at the common point, signed by
    the side of a reference normal on which each circle's centre lies."""
    curves = (c1, c2, c3)
    if len({c.circle for c in curves}) != 3:
        raise InvalidInputError("between_tangent needs three distinct curves")
    if not all(c.exact for c in curves):
        raise InvalidInputError("between_tangent needs exact curves")
    pats = {}
    for i in range(3):
        for j in range(i + 1, 3):
            pat = intersection_pattern(curves[i], curves[j])
            if not pat.tangent:
                raise InvalidInputError(
                    f"curves {i} and {j} are not tangent at an interior point"
                )
            pats[(i, j)] = pat
    point = pats[(0, 1)].interior_points[0]
    for pat in pats.values():
        if pat.interior_points[0] != point:
            raise InvalidInputError("curves are not all tangent at the same point")
    normal = None
    for c in curves:
        a, b, cc, d = (Q(v) for v in c.circle.coeffs())
        if a != 0:
            normal = (-b / (2 * a) - point.x, -cc / (2 * a) - point.y)
            break

    def key(curve):  # (s, n, d) stands for s * sqrt(n / d)
        a, b, c, d = (Q(v) for v in curve.circle.coeffs())
        if a == 0:
            return (0, Q(0), Q(1))
        side = (-b / (2 * a) - point.x) * normal[0] + (-c / (2 * a) - point.y) * normal[1]
        if side == 0:
            raise HyperkError("tangent circle center cannot lie on the tangent line")
        return (1 if side > 0 else -1, 4 * a * a, b * b + c * c - 4 * a * d)

    def less(k1, k2):
        (s1, n1, d1), (s2, n2, d2) = k1, k2
        if s1 != s2:
            return s1 < s2
        if s1 == 0:
            return False
        return n1 * d2 < n2 * d1 if s1 > 0 else n1 * d2 > n2 * d1

    keys = [key(c) for c in curves]
    order = sorted(range(3), key=functools.cmp_to_key(
        lambda i, j: -1 if less(keys[i], keys[j]) else int(less(keys[j], keys[i]))))
    return order[1]


def _tangent_pencil(rng, h=None):
    """Three distinct curves tangent at one rational point z of the curve h
    (random if not given): members v(h) + t P(z) of the pencil through z
    with h's tangent, P(z) = (1, -2x, -2y, x^2 + y^2), taken at t = 0 (h),
    at the line, the geodesic and the horocycles of the pencil, and at
    random t."""
    while True:
        base = h or rand_curve(rng)
        z = model.rational_points(base, 12)[rng.randrange(12)]
        a, b, c, d = base.circle.coeffs()
        P = (1, -2 * z.x, -2 * z.y, z.x * z.x + z.y * z.y)
        ts = [Q(0), Q(-a), c / (2 * z.y)]
        # b^2 - 4ad of the member is -4 y^2 t^2 + 4 c y t + b^2 - 4ad
        root = sqrt_exact(Q(16 * z.y * z.y * (b * b + c * c - 4 * a * d)))
        if root is not None:
            ts += [(4 * c * z.y + s * root) / (8 * z.y * z.y) for s in (-1, 1)]
        ts += [rand_q(rng, -6, 6, 6) for _ in range(4)]
        members = set()
        for t in ts:
            try:
                members.add(curve_from_coeffs(*(u + t * p for u, p in zip(base.circle.coeffs(), P))))
            except (InvalidInputError, DegenerateResultError):
                pass
        if len(members) >= 3:
            return rng.sample(sorted(members, key=repr), 3)


def _ford_triple(rng):
    """Three mutually tangent horocycles touching at three different points:
    the Ford circles at p/q, r/s with ps - qr = 1 and at their mediant."""
    p, q = rng.randint(-6, 6), rng.randint(1, 6)
    while math.gcd(p, q) != 1:
        p, q = rng.randint(-6, 6), rng.randint(1, 6)
    r, s = next((r, s) for s in range(1, 2 * q + 1) for r in range(-20, 20) if p * s - q * r == 1)
    return [make_horocycle(F(Q(m, n)), Q(1, 2 * n * n)) for m, n in ((p, q), (r, s), (p + r, q + s))]


def _betweenness_triples(rng, count):
    """Tangent pencils, their images under random isometries in random
    order, pencils with one curve moved, pencils with one curve swapped for
    a curve tangent to another one at a second point, and Ford triples."""
    triples = []
    while len(triples) < count:
        kind = len(triples) % 6
        curves = _ford_triple(rng) if kind == 4 else _tangent_pencil(rng)
        if kind == 2:
            k = rng.randrange(3)
            curves[k] = rng.choice((rand_isometry(rng).apply_curve(curves[k]), rand_curve(rng)))
        if kind == 5:
            curves.sort(key=lambda c: not c.has_exact_endpoints)  # rational points on curves[0]
            if not curves[0].has_exact_endpoints:
                continue
            curves[2] = next(c for c in _tangent_pencil(rng, curves[0]) if c != curves[0])
        if kind in (1, 3, 4, 5):
            iso = rand_isometry(rng)
            curves = [iso.apply_curve(c) for c in curves]
            rng.shuffle(curves)
        triples.append(curves)
    return triples


def _between_or_error(fn, curves):
    try:
        return fn(*curves)
    except InvalidInputError as exc:
        return str(exc)


def test_between_tangent_matches_oracle(monkeypatch):
    triples = _betweenness_triples(random.Random(1515), 5000)
    want = [_between_or_error(_oracle_between_tangent, t) for t in triples]

    def refuse(*args):
        raise AssertionError("between_tangent called intersection_pattern")

    monkeypatch.setattr(predicates, "intersection_pattern", refuse)
    got = [_between_or_error(between_tangent, t) for t in triples]
    for t, w, g in zip(triples, want, got):
        assert g == w, t
    outcomes = collections.Counter(w if isinstance(w, str) else "index" for w in want)
    assert outcomes["index"] >= 2400
    assert outcomes["curves are not all tangent at the same point"] >= 500
    # pairs (0, 1) and (0, 2) touch at different points: every tangency is
    # checked before the common point
    assert outcomes["curves 1 and 2 are not tangent at an interior point"] >= 100
    assert sum(n for w, n in outcomes.items() if "not tangent" in w) >= 1000
    kinds = collections.Counter(c.kind for t in triples for c in t)
    lines = sum(c.circle.a == 0 for t in triples for c in t)
    assert min(kinds.values()) >= 1000 and lines >= 500


def _oracle_linked(pair1, pair2) -> bool:
    """The replaced `linked`: order comparisons on R u {oo}, with oo above
    every real, after a swap that makes a finite and a < b."""
    p, q = tuple(pair1), tuple(pair2)
    if len(p) != 2 or len(q) != 2 or p[0] == p[1] or q[0] == q[1]:
        raise InvalidInputError("linked needs two pairs of distinct points")
    a, b = p
    c, d = q
    if c == a or c == b or d == a or d == b:
        return False
    if a.is_infinity or (not b.is_infinity and b.value < a.value):
        a, b = b, a

    def inside(point):
        return not point.is_infinity and a.value < point.value and (
            b.is_infinity or point.value < b.value
        )

    return inside(c) != inside(d)


def _set_oracle_linked(pair1, pair2) -> bool:
    """An earlier `linked`: set operations over the boundary points."""
    p, q = tuple(pair1), tuple(pair2)
    if len(set(p)) != 2 or len(set(q)) != 2:
        raise InvalidInputError("linked needs two pairs of distinct points")
    if set(p) & set(q):
        return False

    def inside(point, a, b):
        lo, hi = min(a.value, b.value), max(a.value, b.value)
        return (not point.is_infinity) and lo < point.value < hi

    a, b = p
    c, d = q
    if a.is_infinity or b.is_infinity:
        f = (b if a.is_infinity else a).value
        return (c.value - f) * (d.value - f) < 0
    if c.is_infinity or d.is_infinity:
        return inside(d if c.is_infinity else c, a, b)
    return inside(c, a, b) != inside(d, a, b)


def _linked_or_error(linked_fn, p, q):
    try:
        return linked_fn(p, q)
    except InvalidInputError:
        return "error"


def test_linked_matches_oracle_on_every_ordering():
    pool = (F(-3), F(Q(-1, 2)), F(0), F(Q(7, 3)), F(5), INFINITY)
    seen = set()
    for a, b, c, d in itertools.product(pool, repeat=4):
        # fresh but equal objects, so equality is never identity
        p = (BoundaryPoint(a.value), BoundaryPoint(b.value))
        q = (BoundaryPoint(c.value), BoundaryPoint(d.value))
        got = _linked_or_error(linked, p, q)
        assert got == _linked_or_error(_oracle_linked, p, q), (p, q)
        assert got == _linked_or_error(_set_oracle_linked, p, q), (p, q)
        seen.add(got)
    assert seen == {True, False, "error"}


def test_linked_matches_oracle_on_seeded_quadruples():
    rng = random.Random(6190)
    small = [INFINITY] + [F(Q(n, d)) for n in range(-4, 5) for d in (1, 2, 3)]
    seen = collections.Counter()
    for _ in range(4000):
        bits = rng.choice((3, 600))
        pool = small if bits == 3 else [INFINITY] + [
            F(Q(rng.randint(-(1 << bits), 1 << bits), rng.randint(1, 1 << bits)))
            for _ in range(5)
        ]
        a, b, c, d = (BoundaryPoint(rng.choice(pool).value) for _ in range(4))
        got = _linked_or_error(linked, (a, b), (c, d))
        assert got == _linked_or_error(_oracle_linked, (a, b), (c, d)), (a, b, c, d)
        shared = len({a, b} & {c, d}) if got != "error" else "error"
        seen[got, shared, INFINITY in (a, b, c, d), bits] += 1
    # linked and unlinked pairs, with and without oo, small and 2^600
    # rationals, pairs sharing a point, and pairs of one point repeated
    for bits in (3, 600):
        for oo in (False, True):
            assert seen[True, 0, oo, bits] and seen[False, 0, oo, bits]
            assert seen[False, 1, oo, bits]
    assert sum(n for key, n in seen.items() if key[0] == "error") > 50


def test_boundary_point_hash_agrees_with_equality():
    same = [BoundaryPoint(Q(2, 4)), F(Q(1, 2)), BoundaryPoint(Q(-3, -6))]
    assert len({hash(p) for p in same}) == 1 and len(set(same)) == 1
    assert len({F(0), F(1), F(-1), INFINITY, BoundaryPoint(None), F(Q(1, 2))}) == 5


def test_exact_curve_beyond_float_range_with_inexact_curve():
    # an exact curve's integers past 2^1024 met by a curve given by floats,
    # which are read at their exact values: no integer becomes a float
    big = Isometry(2**600 + 1, 1, 2**600, 1).apply_curve(make_geodesic(F(-1), F(3)))
    assert max(abs(v) for v in big.circle.coeffs()).bit_length() > 1100
    p = intersection_pattern(big, make_horocycle(F(0), 0.5))
    assert (p.interior_count, p.tangent, p.shared_endpoints) == (0, False, 0)
    # a geodesic over (1/3, 2) up to about 2^-1100, whose coefficients are
    # huge but whose geometry is not, met by the float horocycle at 1
    q = 2**1100
    wide = make_geodesic(F(Q(q + 1, 3 * q)), F(Q(2 * q + 1, q)))
    assert max(abs(v) for v in wide.circle.coeffs()).bit_length() > 2000
    for h in (make_horocycle(F(1), 0.5), make_horocycle(INFINITY, 0.25)):
        small = intersection_pattern(make_geodesic(F(Q(1, 3)), F(2)), h)
        p = intersection_pattern(wide, h)
        assert (p.interior_count, p.tangent, p.shared_endpoints) == (2, False, 0)
        assert (small.interior_count, small.tangent, small.shared_endpoints) == (2, False, 0)
        for u, v in zip(p.interior_points, small.interior_points):
            assert u.as_floats() == pytest.approx(v.as_floats(), abs=1e-15)


def test_exact_curve_of_wide_coefficients_with_inexact_curve():
    # the geodesic over (2^39, 3 2^39) has a = 1 beside d = 3 2^78; a right
    # shift of the integers to 64 bits made a = 0, a vertical line
    g = make_geodesic(F(2**39), F(3 * 2**39))
    for h in (make_horocycle(INFINITY, 1e4), make_horocycle(INFINITY, 1.0)):
        p = intersection_pattern(g, h)
        assert (p.interior_count, p.tangent, p.shared_endpoints) == (2, False, 0)
        xs = [q.as_floats()[0] for q in p.interior_points]
        assert xs == pytest.approx([2**39, 3 * 2**39])
    # exact curves with coefficients of very different sizes against curves
    # of every kind given by floats, read at their exact values: the counts
    # agree with the replaced exact routine at every scale, where the float
    # route answered only below 2^166 for two circles
    exact = []
    for k in (20, 39, 60, 80, 120, 160, 200):
        exact += [
            make_geodesic(F(2**k), F(3 * 2**k)),
            make_geodesic(F(Q(1, 2**k)), F(Q(1, 2 ** (k - 1)))),
            make_horocycle(F(2**k), Q(2**k, 3)),
            make_hypercycle(F(2**k), F(3 * 2**k), UHPPoint(2 ** (k + 1), 2 ** (k - 1))),
            make_geodesic(F(2**k), INFINITY),
            make_horocycle(INFINITY, Q(1, 2**k)),
        ]
    floats = [
        make_horocycle(INFINITY, 1e4),
        make_horocycle(INFINITY, 0.5),
        curve_from_coeffs(0, 1.0, 0, -0.25),  # x = 1/4
        curve_from_coeffs(0, 1.0, -1.0, 0),  # y = x
        curve_from_coeffs(1.0, 0, 0, -1.0),  # |z| = 1
        make_horocycle(F(0.5), 1.0),
        make_hypercycle(F(-2.0), F(3.0), UHPPoint(0.5, 1.0)),
    ]
    assert all(c.exact for c in floats)
    compared = 0
    for c1 in exact:
        for c2 in floats:
            for pair in ((c1, c2), (c2, c1)):
                assert _pattern(*pair)[:3] == _oracle_intersection_pattern(*pair)[:3], pair
                compared += 1
    assert compared == 2 * len(exact) * len(floats) > 500
    # a = 1 beside d near 2^2200, which no common float scale held, is answered
    p = intersection_pattern(make_geodesic(F(2**1100), F(2**1100 + 1)), floats[0])
    assert (p.interior_count, p.tangent, p.shared_endpoints) == (0, False, 0)


def test_exact_line_past_float_range_with_inexact_line():
    # x = 2^1100 meets y = 0.5, read at its exact value, at a point no float
    # holds: the float route refused the pair, the exact one answers it
    far = make_geodesic(F(2**1100), INFINITY)
    low = make_horocycle(INFINITY, 0.5)
    assert low == make_horocycle(INFINITY, Q(1, 2))
    for c1, c2 in ((far, low), (low, far)):
        pat = intersection_pattern(c1, c2)
        assert (pat.interior_count, pat.shared_endpoints) == (1, 1)
        assert pat.interior_points == (UHPPoint(2**1100, Q(1, 2)),)
    top = make_geodesic(F(2**1023), INFINITY)
    pat = intersection_pattern(top, low)
    assert (pat.interior_count, pat.shared_endpoints) == (1, 1)


def test_exact_line_of_coefficients_past_the_float_range_with_inexact_line():
    # y = (3^800 x + 7) / (3^800 + 1) meets y = 2x + 1/2 below the axis;
    # 7 and 3^800 span more bits than a float, and the line given by floats
    # is read at their exact values
    exact = curve_from_coeffs(0, 3**800, -3**800 - 1, 7)
    line = curve_from_coeffs(0, 1.0, -0.5, 0.25)
    for c1, c2 in ((exact, line), (line, exact)):
        p = intersection_pattern(c1, c2)
        assert (p.interior_count, p.tangent, p.shared_endpoints) == (0, False, 1)
    # y = 3^800 (x + 1) / (3^800 + 1) meets y = 3 - x within 3^-800 of (1, 2)
    p = intersection_pattern(curve_from_coeffs(0, 3**800, -3**800 - 1, 3**800),
                             curve_from_coeffs(0, 1.0, 1.0, -3.0))
    assert (p.interior_count, p.shared_endpoints) == (1, 1)
    assert p.interior_points[0].as_floats() == pytest.approx((1.0, 2.0), rel=1e-15)


def test_inexact_lines_far_from_the_origin_are_parallel_only_by_their_angle():
    # x = 29000, and the line through (29000, 1000) at 17 degrees to it: as
    # unit-norm floats their normals were about 3.5e-5 long, so their
    # determinant, 3.7e-10, fell below EPS though the lines are far from
    # parallel; read at the exact values of the floats, the determinant is
    # an integer, and only 0 makes lines parallel
    n = (math.cos(0.3), -math.sin(0.3))
    slanted = curve_from_coeffs(0, n[0], n[1], -(29000 * n[0] + 1000 * n[1]))
    upright = curve_from_coeffs(0, 1.0, 0, -29000.0)
    b1, c1 = upright.circle.coeffs()[1:3]
    b2, c2 = slanted.circle.coeffs()[1:3]
    assert b1 * c2 - b2 * c1 != 0
    p = intersection_pattern(upright, slanted)
    assert (p.interior_count, p.shared_endpoints) == (1, 1)
    assert p.interior_points[0].as_floats() == pytest.approx((29000.0, 1000.0), rel=1e-9)
