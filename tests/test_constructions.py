import collections
import decimal
import itertools
import math
import random
from fractions import Fraction

import pytest

from hyperk import constructions
from hyperk import (
    INFINITY,
    BoundaryPoint,
    FoliatesComponent,
    HorocycleLimit,
    HypercycleOrGeodesicLimit,
    CurveKind,
    Isometry,
    Q,
    UHPPoint,
    classify_family_limit,
    curve_from_coeffs,
    disj_family,
    dyadic_family,
    fixed_endpoint_family,
    four_geodesic_config,
    hyp1_witness,
    intersection_pattern,
    linked,
    make_geodesic,
    make_horocycle,
    make_hypercycle,
    pinch_pair,
    ray_family,
    sigma_center_swap,
    witness_family_search,
)
from hyperk import model
from hyperk.errors import InvalidInputError
from hyperk.constructions import opposite_sides_of_point
from hyperk.constructions import PinchWitness
from hyperk.model import Curve, _d2, rational_points, straddling_points
from hyperk.verify import (
    rand_curve,
    rand_boundary,
    rand_distinct_boundary,
    rand_horocycle,
    rand_hypercycle,
    rand_isometry,
    rand_q,
)
from exact_oracles import sqrt_exact
from test_acceptance import _tangent_hypercycle_pair
from test_predicates import _tangent_pencil

F = BoundaryPoint.finite


class TestDyadicFamily:
    def test_members_tangent_to_line(self):
        fam = dyadic_family(0, -2, 2)
        line = make_horocycle(INFINITY, 1)
        for h in fam.horocycles:
            assert intersection_pattern(h, line).tangent

    def test_consecutive_tangency_points(self):
        fam = dyadic_family(1, 0, 3)
        for i, pt in enumerate(fam.tangency_points):
            n = fam.n_min + i
            assert pt == UHPPoint(
                (Q(n, 2) + Q(n + 1, 2)) / 2, Q(1, 4)
            )


class TestPinchPair:
    def test_tangent_to_both(self):
        h0 = make_horocycle(F(0), 1)
        h = make_horocycle(F(6), 1)
        a, b = pinch_pair(h0, h)
        for w in (a, b):
            assert intersection_pattern(w, h0).tangent
            assert intersection_pattern(w, h).tangent

    def test_matches_the_sqrt_exact_and_float_routine(self):
        # a rational centre gives the exact curve of the replaced routine,
        # an irrational one a witness whose floats are the routine's floats
        rng = random.Random(1516)
        counts = {True: 0, False: 0}
        for _ in range(2000):
            p, q = rand_distinct_boundary(rng, 2)
            h0 = make_horocycle(p, abs(rand_q(rng, 1, 3)) + Q(1, 8))
            h = make_horocycle(q, abs(rand_q(rng, 1, 3)) + Q(1, 8))
            if intersection_pattern(h0, h).interior_count:
                continue
            got, want = pinch_pair(h0, h), _oracle_pinch_pair(h0, h)
            for w, o in zip(got, want):
                assert w.exact == isinstance(o, Curve), (h0, h)
                counts[w.exact] += 1
                if w.exact:
                    assert w == o, (h0, h)
                else:
                    cx, cy, r = w.euclidean_center_radius()
                    assert cy == r and _close(cx, o[0]) and _close(r, o[1]), (h0, h)
        assert min(counts.values()) >= 200

    def test_inexact_horocycles(self):
        # a float size is read at its exact value (a routine on sqrt_exact
        # once took the numerator of a float size), and an inexact input is
        # refused
        h0, h = make_horocycle(F(0), 0.5), make_horocycle(F(5), 2)
        assert pinch_pair(h0, h) == pinch_pair(make_horocycle(F(0), Q(1, 2)), h)
        for w in pinch_pair(h0, h):  # rational centres: exact witnesses
            assert w.exact and all(intersection_pattern(w, o).tangent for o in (h0, h))
        h0 = make_horocycle(F(0), 1)
        for w in pinch_pair(h0, h):  # irrational centres: exact in Q(sqrt 200)
            assert isinstance(w, PinchWitness) and not w.exact
            assert all(_d2(w.coeffs(), o.circle.coeffs()) == 0 for o in (h0, h))
            assert w != h  # a witness equals no curve
            with pytest.raises(InvalidInputError, match="^intersection patterns need exact curves$"):
                pinch_pair(w, h)

    def test_returns_only_horocycles_or_refuses(self):
        # tiny horocycles far from 0 (the first shape) once gave float
        # witnesses that classified as hypercycles at EPS and were refused:
        # now every disjoint pair is pinched by two horocycles
        rng = random.Random(3967)
        shapes = [
            lambda: (F(rand_q(rng, -512, 512, 8)), Q(rng.randint(1, 8), 4096)),
            lambda: (rand_boundary(rng), abs(rand_q(rng, 1, 4, 6)) + Q(1, 8)),
            lambda: (F(rand_q(rng, -64, 64, 8)), Q(rng.randint(1, 8), 1 << rng.randint(0, 14))),
        ]
        pinched = 0
        while pinched < 4000:
            h0, h = (make_horocycle(*shapes[pinched % 3]()) for _ in range(2))
            if h0.center == h.center or intersection_pattern(h0, h).interior_count:
                continue
            sols = pinch_pair(h0, h)
            assert all(w.kind is CurveKind.HOROCYCLE for w in sols), (h0, h, sols)
            pinched += 1


def _close(x, y, tol=1e-12):
    return math.isclose(x, y, rel_tol=tol, abs_tol=tol)


def _oracle_pinch_pair(h0, h):
    """The replaced `pinch_pair` on exact horocycles: each case solved once
    with `sqrt_exact`, and when the root is irrational in floats, as the
    float pair (centre, radius) of the inexact horocycle it built."""
    c0, c1 = h0.center, h.center
    sols = []

    def add(p, r):
        if isinstance(p, float):
            sols.append((p, r))
        else:
            sols.append(make_horocycle(BoundaryPoint.finite(p), r))

    if c0.is_infinity or c1.is_infinity:
        line, circ = (h0, h) if c0.is_infinity else (h, h0)
        r = line.size / 2
        q, rq = circ.center.value, circ.size
        root = sqrt_exact(4 * r * rq)
        if root is not None:
            add(q - root, r)
            add(q + root, r)
        else:
            fr = math.sqrt(float(4 * r * rq))
            add(float(q) - fr, float(r))
            add(float(q) + fr, float(r))
    else:
        q0, r0, q1, r1 = c0.value, h0.size, c1.value, h.size
        A, B, C = r1 - r0, -2 * (r1 * q0 - r0 * q1), r1 * q0 * q0 - r0 * q1 * q1
        if A == 0:
            p = -C / B
            add(p, (p - q0) ** 2 / (4 * r0))
        else:
            root = sqrt_exact(B * B - 4 * A * C)
            if root is not None:
                for p in ((-B - root) / (2 * A), (-B + root) / (2 * A)):
                    add(p, (p - q0) ** 2 / (4 * r0))
            else:
                fr = math.sqrt(float(B * B - 4 * A * C))
                for p in ((-float(B) - fr) / (2 * float(A)), (-float(B) + fr) / (2 * float(A))):
                    add(p, (p - float(q0)) ** 2 / (4 * float(r0)))
    sols.sort(key=lambda c: c[0] if isinstance(c, tuple) else c.endpoint_floats()[0])
    return (sols[0], sols[-1])


def _decimal_pinch(h0, h, digits):
    """The centres and sizes of the horocycles tangent to h0 and h, in
    increasing order of centre, from the closed form in `decimal` at
    `digits` significant digits: p = q +- sqrt(2 s r) and size s/2 beside
    the line y = s, else the roots of A p^2 + B p + C and (p - q0)^2 / 4 r0."""
    def dec(x):
        return decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)

    with decimal.localcontext() as ctx:
        ctx.prec = digits
        if h0.center.is_infinity or h.center.is_infinity:
            line, circ = (h0, h) if h0.center.is_infinity else (h, h0)
            q, root = dec(circ.center.value), dec(2 * line.size * circ.size).sqrt()
            return [(q - root, dec(line.size) / 2), (q + root, dec(line.size) / 2)]
        q0, r0, q1, r1 = h0.center.value, h0.size, h.center.value, h.size
        A, B, C = r1 - r0, -2 * (r1 * q0 - r0 * q1), r1 * q0 * q0 - r0 * q1 * q1
        if A == 0:
            ps = [dec(-C / B)]
        else:
            root = dec(B * B - 4 * A * C).sqrt()
            ps = sorted((-dec(B) + s * root) / (2 * dec(A)) for s in (-1, 1))
        return [(p, (p - dec(q0)) ** 2 / (4 * dec(r0))) for p in ps]


def _pinch_corpus(rng, count):
    """`count` seeded disjoint horocycle pairs of four shapes: small data,
    one centre at oo, tiny horocycles far from 0, and 2^600-scale data,
    as centres near 2^600 and as 600-bit fractions (the slowest, one pair
    in 20)."""
    big = 1 << 600
    shapes = [
        lambda: (F(rand_q(rng)), abs(rand_q(rng, 1, 3)) + Q(1, 8)),
        lambda: (rng.choice((INFINITY, F(rand_q(rng)))), abs(rand_q(rng, 1, 3)) + Q(1, 8)),
        lambda: (F(rand_q(rng, -512, 512, 8)), Q(rng.randint(1, 8), 4096)),
        lambda: (F(big + rng.randint(-64, 64)), Q(rng.randint(1, 64), rng.randint(1, 8))),
        lambda: (F(Q(rng.getrandbits(600) - big // 2, rng.getrandbits(600) | 1)),
                 Q(rng.getrandbits(600) | 1, rng.getrandbits(600) | 1)),
    ]
    shapes = [shape for shape, k in zip(shapes, (6, 4, 5, 4, 1)) for _ in range(k)]
    pairs = []
    while len(pairs) < count:
        shape = shapes[len(pairs) % len(shapes)]
        h0, h = make_horocycle(*shape()), make_horocycle(*shape())
        if h0.center != h.center and not intersection_pattern(h0, h).interior_count:
            pairs.append((h0, h))
    return pairs


def test_pinch_witnesses_are_exact_on_seeded_pairs():
    # every pinching horocycle, a curve or an irrational witness, touches
    # both inputs exactly (D2 = 0), has a positive size, and has floats
    # within 1e-12 of the closed form evaluated in decimal with 50 digits
    # to spare over the data's own
    counts = collections.Counter()
    for h0, h in _pinch_corpus(random.Random(3411), 4000):
        sols = pinch_pair(h0, h)
        bits = max(abs(v).bit_length() for c in (h0, h) for v in c.circle.coeffs())
        want = _decimal_pinch(h0, h, 50 + bits)
        for w, (p, r) in zip(sols, want if len(want) == 2 else want * 2):
            coeffs = w.circle.coeffs() if w.exact else w.coeffs()
            assert all(_d2(coeffs, o.circle.coeffs()) == 0 for o in (h0, h)), (h0, h, w)
            if w.exact:
                assert w.size > 0
            else:
                (R, V) = w.size
                assert R.sign() > 0 and V > 0, (h0, h, w)
            cx, cy, radius = w.euclidean_center_radius()
            assert _close(cx, float(p)) and _close(radius, float(r)), (h0, h, w)
            counts[w.exact, h0.center.is_infinity or h.center.is_infinity] += 1
            counts["wide"] += bits > 1000
    assert counts[False, False] >= 2000 and counts[False, True] >= 200, counts
    assert counts[True, False] >= 50 and counts["wide"] >= 1000, counts


class TestWitnesses:
    def test_crossing_pair_certifies_separation(self):
        c1 = make_hypercycle(F(-2), F(2), UHPPoint(0, 3))
        c2 = make_hypercycle(F(-1), F(3), UHPPoint(1, 3))
        if intersection_pattern(c1, c2).interior_count >= 1:
            w, cert = witness_family_search(c1, c2)
            assert w is None
            assert "separated_pair" in cert
            pos, neg = cert["separated_pair"]
            assert c2.circle.evaluate(pos.x, pos.y) > 0
            assert c2.circle.evaluate(neg.x, neg.y) < 0

    def test_every_criterion_4_pair_gets_a_witness(self):
        rng = random.Random(4)
        pairs = [_tangent_hypercycle_pair(rng) for _ in range(200)]
        # the bisector ladder search exhausted itself on this pair
        pinned = (curve_from_coeffs(6, 29, -24, 13), curve_from_coeffs(304, -465, -68, -81))
        assert pinned in pairs
        for h1, h2 in pairs:
            _check_witness(h1, h2)

    def test_every_horocycle_pair_gets_a_witness(self):
        pairs = _tangent_horocycle_pairs(random.Random(14), 240)
        assert {h2.kind for _, h2 in pairs} == {CurveKind.HOROCYCLE, CurveKind.GEODESIC}
        assert any(h2.center == INFINITY for _, h2 in pairs)
        for h1, h2 in pairs:
            _check_witness(h1, h2)

    @pytest.mark.parametrize("h1, h2", [
        # the x-coordinate side test answered False on every vertical line
        (make_geodesic(F(1), INFINITY), make_horocycle(F(0), 1)),
        (make_horocycle(INFINITY, 2), make_horocycle(F(0), 1)),
    ])
    def test_lines_get_a_witness(self, h1, h2):
        _check_witness(h1, h2)

    def test_tangent_pencil_pairs_get_a_witness(self):
        # most h1 have irrational endpoints, so no rational base point on the
        # axis: the chords start at the tangency itself
        pairs = _tangent_pencil_pairs(random.Random(15), 300)
        pairs += [(h2, h1) for h1, h2 in pairs]
        assert sum(not h1.has_exact_endpoints for h1, _ in pairs) >= 150
        for h1, h2 in pairs:
            _check_witness(h1, h2)

    def test_meeting_points_near_the_axis(self):
        # steps relative to the height reach meeting points at height 2^-100
        tiny = Q(1, 2**100)
        g = make_geodesic(F(0), INFINITY)
        _check_witness(g, make_horocycle(F(tiny), tiny))
        w, cert = witness_family_search(g, make_geodesic(F(-tiny), F(tiny)))
        assert w is None and "separated_pair" in cert

    def test_witness_needs_points_on_both_sides(self):
        h1, h2 = make_horocycle(F(0), 1), make_horocycle(INFINITY, 2)
        x, y = UHPPoint(Q(4, 5), Q(8, 5)), UHPPoint(Q(-4, 5), Q(8, 5))
        assert hyp1_witness(h1, h2, x, y).kind is CurveKind.HYPERCYCLE
        with pytest.raises(InvalidInputError, match="opposite sides"):
            hyp1_witness(h1, h2, x, UHPPoint(Q(4, 5), Q(2, 5)))
        with pytest.raises(InvalidInputError, match="tangent"):
            hyp1_witness(h1, make_horocycle(INFINITY, 1), x, y)


def _check_witness(h1, h2):
    """`witness_family_search` returns a hypercycle or geodesic disjoint from
    h2 through two points of h1 on opposite sides of the tangency."""
    w, cert = witness_family_search(h1, h2)
    assert w is not None, (h1, h2, cert)
    assert w.kind in (CurveKind.HYPERCYCLE, CurveKind.GEODESIC), (h1, h2, w)
    x, y = cert["through"]
    assert w.circle.contains_point(x.x, x.y) and w.circle.contains_point(y.x, y.y)
    p = intersection_pattern(h1, h2).interior_points[0]
    assert opposite_sides_of_point(h1, p, x, y), (h1, h2, x, y)
    if not _vertical(h1):
        assert _oracle_opposite_sides(h1, p, x, y), (h1, h2, x, y)
    assert _disjoint(w, h2), (h1, h2, w)


def _tangent_horocycle_pairs(rng, count):
    """(h1, h2) with h1 a horocycle tangent to h2, which is in turn the
    horocycle at oo, a finite horocycle and a geodesic; every other pair is
    moved by a random isometry."""
    pairs = []
    while len(pairs) < count:
        c, r = rand_q(rng), abs(rand_q(rng, 1, 4)) + Q(1, 8)
        h1 = make_horocycle(F(c), r)
        kind = len(pairs) % 3
        if kind == 0:
            h2 = make_horocycle(INFINITY, 2 * r)
        elif kind == 1:
            q = rand_q(rng)
            if q == c:
                continue
            h2 = make_horocycle(F(q), (q - c) ** 2 / (4 * r))
        else:
            h2 = make_geodesic(F(c + rng.choice((-r, r))), INFINITY)
        if len(pairs) % 2:
            iso = rand_isometry(rng)
            h1, h2 = iso.apply_curve(h1), iso.apply_curve(h2)
        pairs.append((h1, h2))
    return pairs


def _tangent_pencil_pairs(rng, count):
    """(h1, h2) tangent at a rational point: two members of a pencil of
    curves tangent there (`test_predicates._tangent_pencil`)."""
    return [tuple(_tangent_pencil(rng)[:2]) for _ in range(count)]


def _vertical(h):
    return h.circle.a == 0 and h.circle.c == 0


def _oracle_opposite_sides(h, p, x, y):
    """The side test `opposite_sides_of_point` used before the normal
    geodesic: abscissas on a line, otherwise the sides of the chord [x, y]
    on which p and the foot (-b/2a, 0) of the centre fall.  It answers
    False for every vertical line."""
    def chord_side(px, py):
        return (y.x - x.x) * (py - x.y) - (y.y - x.y) * (px - x.x)

    a = h.circle.a
    if a == 0:
        return (x.x - p.x) * (y.x - p.x) < 0
    sp = chord_side(p.x, p.y)
    sb = chord_side(Q(-h.circle.b, 2 * a), Q(0))
    return sp != 0 and sb != 0 and (sp > 0) != (sb > 0)


class TestOppositeSides:
    def test_matches_the_chord_test_off_vertical_lines(self):
        rng = random.Random(84)
        cases = 0
        while cases < 5000:
            h = rand_curve(rng)
            if rng.random() < 0.3:
                h = rand_isometry(rng).apply_curve(h)
            if _vertical(h):
                continue
            pts = rational_points(h, 12)
            for _ in range(10):
                p, x, y = rng.sample(pts, 3)
                want = _oracle_opposite_sides(h, p, x, y)
                assert opposite_sides_of_point(h, p, x, y) == want, (h, p, x, y)
                cases += 1

    def test_vertical_line(self):
        g = make_geodesic(F(1), INFINITY)
        p, x, y = UHPPoint(1, 1), UHPPoint(1, 2), UHPPoint(1, Q(1, 2))
        assert opposite_sides_of_point(g, p, x, y)
        assert not opposite_sides_of_point(g, p, x, UHPPoint(1, 3))
        assert not _oracle_opposite_sides(g, p, x, y)

    def test_refuses_points_off_the_curve(self):
        g = make_geodesic(F(1), INFINITY)
        with pytest.raises(InvalidInputError):
            opposite_sides_of_point(g, UHPPoint(1, 1), UHPPoint(1, 2), UHPPoint(2, 1))


def _oracle_straddle_near_crossing(h1, h2, pat):
    """The routine `witness_family_search` used before `straddling_points`:
    chord slopes only, skipping vertical chords, with float parameters
    rounded to denominators below 2^30."""
    a, b, c, d = h1.circle.coeffs()

    def rationalize(v: float) -> Q:
        fr = Fraction(v).limit_denominator(1 << 30)
        return Q(fr.numerator, fr.denominator)

    def classify(pt, state):
        s = h2.circle.evaluate(pt.x, pt.y)
        if s > 0:
            state[0] = pt
        elif s < 0:
            state[1] = pt

    for q in pat.interior_points:
        qx, qy = q.as_floats()
        state = [None, None]
        if a == 0:
            if c == 0:
                params = lambda y: UHPPoint(Q(-d, b), y) if y > 0 else None
                t0 = rationalize(qy)
            else:
                params = lambda x: (
                    UHPPoint(x, -(b * x + d) / c)
                    if -(b * x + d) / c > 0
                    else None
                )
                t0 = rationalize(qx)
        else:
            x0 = Q(*model._base_boundary_point(h1))
            if abs(qx - float(x0)) < 1e-12:
                continue  # vertical chord; try the other crossing

            def params(t, x0=x0):
                u = -(2 * a * x0 + b + c * t) / (a * (1 + t * t))
                if u == 0:
                    return None
                x, y = x0 + u, t * u
                return UHPPoint(x, y) if y > 0 else None

            t0 = rationalize(qy / (qx - float(x0)))
        for j in range(1, 80):
            eps = Q(1, 2**j)
            for t in (t0 - eps, t0 + eps):
                pt = params(t)
                if pt is not None:
                    classify(pt, state)
            if state[0] is not None and state[1] is not None:
                return state[0], state[1]
    return None


class TestStraddlingPoints:
    def test_finds_a_pair_wherever_the_oracle_does(self):
        rng = random.Random(7)
        found = 0
        for _ in range(400):
            h1, h2 = rand_curve(rng), rand_curve(rng)
            pat = intersection_pattern(h1, h2)
            if pat.equal or pat.tangent or pat.interior_count == 0:
                continue
            pairs = straddling_points(h1, h2.circle, pat.interior_points)
            for pos, neg in pairs:
                assert h2.circle.evaluate(pos.x, pos.y) > 0
                assert h2.circle.evaluate(neg.x, neg.y) < 0
            if _oracle_straddle_near_crossing(h1, h2, pat) is not None:
                found += 1
                assert pairs, (h1, h2)
        assert found > 100

    def test_steep_chord_from_the_base_point(self):
        # the crossing sits right above the base point 0, where a chord
        # slope is undefined: the oracle skips it, dx/dy does not
        h1 = make_hypercycle(F(0), F(3), UHPPoint(Q(-1, 100), Q(1, 10)))
        h2 = make_geodesic(F(0), INFINITY)
        pat = intersection_pattern(h1, h2)
        assert _oracle_straddle_near_crossing(h1, h2, pat) is None
        (pos, neg), = straddling_points(h1, h2.circle, pat.interior_points)
        assert pos.x > 0 > neg.x

    def test_tangency_gives_no_pair(self):
        h1, h2 = make_horocycle(F(0), 1), make_horocycle(INFINITY, 2)
        pat = intersection_pattern(h1, h2)
        assert pat.tangent
        assert straddling_points(h1, h2.circle, pat.interior_points) == []

    def test_witness_search_certifies_every_crossing_hypercycle_pair(self):
        rng = random.Random(600)
        for _ in range(200):
            c1, c2 = rand_hypercycle(rng), rand_hypercycle(rng)
            pat = intersection_pattern(c1, c2)
            if pat.equal or pat.tangent:
                continue
            w, cert = witness_family_search(c1, c2)
            assert w is None
            assert ("separated_pair" in cert) == (pat.interior_count > 0)


#: members checked in every disjoint-pair family, up to 1 - 2^-60
FAMILY_PARAMETERS = (Q(1, 7), Q(1, 2), Q(9, 10), Q(99, 100), 1 - Q(1, 2**60))


def _disjoint(c1, c2):
    pat = intersection_pattern(c1, c2)
    return pat.interior_count == 0 and pat.shared_endpoints == 0 and not pat.tangent


def _disjoint_pairs(rng, count):
    """Disjoint (horocycle, hypercycle) pairs drawn as in `verify families`,
    every third one moved by a random isometry and every fifth one by an
    isometry that sends the horocycle's center to oo."""
    pairs = []
    while len(pairs) < count:
        h, hp = rand_horocycle(rng), rand_hypercycle(rng)
        if len(pairs) % 3 == 1:
            iso = rand_isometry(rng)
            h, hp = iso.apply_curve(h), iso.apply_curve(hp)
        elif len(pairs) % 5 == 2 and not h.center.is_infinity:
            iso = Isometry(0, -1, 1, -h.center.value)  # z -> -1/(z - center)
            h, hp = iso.apply_curve(h), iso.apply_curve(hp)
        if _disjoint(h, hp):
            pairs.append((h, hp))
    return pairs


class TestFamilies:
    def test_disj_family_members_disjoint_from_horocycle(self):
        h = make_horocycle(F(0), 1)
        hp = make_hypercycle(F(4), F(8), UHPPoint(5, 2))
        fam = disj_family(h, hp)
        for s in FAMILY_PARAMETERS:
            assert _disjoint(fam.member(s), h)

    def test_disj_family_limit_is_horocycle(self):
        h = make_horocycle(F(0), 1)
        hp = make_hypercycle(F(4), F(8), UHPPoint(5, 2))
        res = classify_family_limit(disj_family(h, hp))
        assert isinstance(res, HorocycleLimit)
        assert res.curve == h

    def test_disj_family_is_a_pencil_of_disjoint_hypercycles(self):
        pairs = _disjoint_pairs(random.Random(13), 500)
        assert sum(h.center.is_infinity for h, _ in pairs) >= 40
        for h, hp in pairs:
            fam = disj_family(h, hp)
            assert classify_family_limit(fam) == HorocycleLimit(h), (h, hp)
            assert fam.member(0) == hp
            members = [fam.member(s) for s in FAMILY_PARAMETERS]
            for m in members:
                assert m.kind in (CurveKind.HYPERCYCLE, CurveKind.GEODESIC), (h, hp, m)
                assert _disjoint(m, h) and _disjoint(m, hp), (h, hp, m)
            for m1, m2 in itertools.combinations(members, 2):
                assert _disjoint(m1, m2), (h, hp, m1, m2)

    def test_probe_instance_gives_exactly_its_horocycle(self):
        # a float classifier returned a declared limit of size 97/100 here
        # and estimated the size as 1.017 (1.0 is true)
        h = make_horocycle(F(0), 1)
        hp = make_hypercycle(F(3), F(5), UHPPoint(4, Q(1, 4)))
        assert classify_family_limit(disj_family(h, hp)) == HorocycleLimit(h)
        iso = Isometry(0, -1, 1, 0)  # z -> -1/z sends the center to oo
        h_oo, hp_oo = iso.apply_curve(h), iso.apply_curve(hp)
        assert h_oo.center == INFINITY and h_oo.size == Q(1, 2)
        assert classify_family_limit(disj_family(h_oo, hp_oo)) == HorocycleLimit(h_oo)

    def test_disj_family_refuses_meeting_curves(self):
        h = make_horocycle(F(0), 1)
        for hp in (
            make_hypercycle(F(-1), F(3), UHPPoint(0, 1)),  # crosses h
            make_hypercycle(F(0), F(4), UHPPoint(2, 3)),  # ends at h's center
        ):
            with pytest.raises(InvalidInputError, match="disjoint"):
                disj_family(h, hp)

    def test_ray_family_foliates(self):
        fam = ray_family()
        assert fam.limit == (0, 0, 1, 0)
        assert isinstance(classify_family_limit(fam), FoliatesComponent)
        assert fam.member(Q(1, 2)) == curve_from_coeffs(0, -1, 2, 0)  # y = x/2

    def test_fixed_endpoint_family_limit(self):
        fam = fixed_endpoint_family(3, Q(3, 2))
        limit = make_hypercycle(F(-1), F(1), UHPPoint(0, Q(3, 2)))
        assert classify_family_limit(fam) == HypercycleOrGeodesicLimit(limit)
        assert fam.member(0) == make_hypercycle(F(-1), F(1), UHPPoint(0, 3))
        assert fam.member(Q(1, 2)) == make_hypercycle(F(-1), F(1), UHPPoint(0, Q(9, 4)))

    @pytest.mark.parametrize("build", [
        lambda: fixed_endpoint_family(3, 1),
        lambda: fixed_endpoint_family(2, 3),
        lambda: ray_family(0),
        lambda: ray_family(-1),
        lambda: ray_family().member(1),
        lambda: ray_family().member(Q(-1, 3)),
        lambda: fixed_endpoint_family(3, 2).member(Q(3, 2)),
    ])
    def test_invalid_family_input_raises(self, build):
        with pytest.raises(InvalidInputError):
            build()


class TestFourGeodesics:
    def test_valid_cyclic_order(self):
        cfg = four_geodesic_config(F(0), F(1), F(2), F(3))
        assert cfg is not None

    def test_rejects_bad_order(self):
        with pytest.raises(InvalidInputError):
            four_geodesic_config(F(0), F(2), F(1), F(3))

    def test_model_is_checked_once(self, monkeypatch):
        calls = []

        def counting_linked(p, q):
            calls.append((p, q))
            return linked(p, q)

        monkeypatch.setattr(constructions, "linked", counting_linked)
        constructions._check_crossing_model.cache_clear()
        cfg = four_geodesic_config(F(0), F(1), F(2), F(3))
        assert len(calls) == 4 + 4 * 66  # property 1, then 66 probes
        calls.clear()
        cfg = four_geodesic_config(F(-5), F(Q(1, 3)), INFINITY, F(-7))
        assert calls == []
        assert cfg.properties_verified
        assert cfg.g1 == make_geodesic(F(-5), F(Q(1, 3)))
        assert cfg.h2 == make_geodesic(F(Q(1, 3)), F(-7))
        with pytest.raises(InvalidInputError):
            four_geodesic_config(F(0), F(1), F(0), F(3))
        with pytest.raises(InvalidInputError):
            four_geodesic_config(F(0), INFINITY, F(1), F(2))
        assert calls == []

    def test_accepts_exactly_the_cyclic_orders(self):
        for pool in ((F(-1), F(0), F(Q(5, 2)), F(7)), (F(-1), F(0), F(2), INFINITY)):
            for pts in itertools.product(pool, repeat=4):
                try:
                    four_geodesic_config(*pts)
                    accepted = True
                except InvalidInputError:
                    accepted = False
                assert accepted == _oracle_in_cyclic_order(pts), pts


def _oracle_in_cyclic_order(points) -> bool:
    """Distinct points that some rotation lists in increasing order, oo last."""
    if len(set(points)) != len(points):
        return False
    for shift in range(len(points)):
        rot = points[shift:] + points[:shift]
        keys = [p.sort_key() for p in rot]
        if keys == sorted(keys):
            return True
    return False


class TestCenterSwap:
    def test_swaps_and_fixes(self):
        sigma = sigma_center_swap(F(0), F(4))
        h0 = make_horocycle(F(0), 1)
        h4 = make_horocycle(F(4), 1)
        h7 = make_horocycle(F(7), 1)
        assert sigma(h0).center == F(4)
        assert sigma(h4).center == F(0)
        assert sigma(h7).center == F(7)
        assert sigma_center_swap(F(4), F(4))(h0) is h0

    def test_breaks_tangency(self):
        sigma = sigma_center_swap(F(0), F(4))
        w1 = make_horocycle(F(0), Q(1, 2))
        w2 = make_horocycle(F(1), Q(1, 2))
        assert intersection_pattern(w1, w2).tangent
        assert not intersection_pattern(sigma(w1), sigma(w2)).tangent
