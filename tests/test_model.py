import collections
import copy
import itertools
import math
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import hyperk
from hyperk import model
from hyperk import (
    INFINITY,
    BoundaryPoint,
    CurveKind,
    Isometry,
    Q,
    UHPPoint,
    curve_from_coeffs,
    distance_to_geodesic,
    equidistant_pair,
    intersection_pattern,
    make_geodesic,
    make_horocycle,
    make_hypercycle,
    normalizer_from_images,
    parse_curve_text,
    rational_points,
    triple_normalizer,
    two_point_normalizer,
)
from hyperk.constructions import pinch_pair
from hyperk.errors import DegenerateResultError, HyperkError, InvalidInputError
from hyperk.verify import rand_curve, rand_geodesic, rand_isometry, rand_q

from exact_oracles import (
    _OracleBoundaryPoint, _oracle_apply_boundary_pair, oracle_two_point_normalizer,
)

F = BoundaryPoint.finite


class TestCanonicalForm:
    def test_coprime_and_sign_normalized(self):
        c = curve_from_coeffs(2, 0, -2, 0)
        assert c.circle.coeffs() == (1, 0, -1, 0)
        c = curve_from_coeffs(-3, 0, 3, 0)
        assert c.circle.coeffs() == (1, 0, -1, 0)

    def test_rational_coeffs_cleared(self):
        c = curve_from_coeffs(Q(1, 2), 0, Q(-1, 3), 0)
        assert c.circle.coeffs() == (3, 0, -2, 0)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateResultError):
            curve_from_coeffs(0, 0, 0, 1)

    def test_equality_across_scalings(self):
        assert curve_from_coeffs(1, 0, 0, -1) == curve_from_coeffs(7, 0, 0, -7)


class TestClassification:
    def test_geodesic_semicircle(self):
        g = make_geodesic(F(-1), F(1))
        assert g.kind is CurveKind.GEODESIC
        assert g.circle.coeffs() == (1, 0, 0, -1)

    def test_geodesic_vertical_line(self):
        g = make_geodesic(F(2), INFINITY)
        assert g.kind is CurveKind.GEODESIC
        assert g.circle.coeffs() == (0, 1, 0, -2)

    def test_horocycle_finite(self):
        h = make_horocycle(F(0), Q(1, 2))
        assert h.kind is CurveKind.HOROCYCLE
        assert h.center == F(0) and h.size == Q(1, 2)

    def test_horocycle_at_infinity(self):
        h = make_horocycle(INFINITY, 2)
        assert h.kind is CurveKind.HOROCYCLE
        assert h.center.is_infinity and h.size == 2

    def test_hypercycle(self):
        c = make_hypercycle(F(-1), F(1), UHPPoint(0, 2))
        assert c.kind is CurveKind.HYPERCYCLE
        assert set(c.endpoints) == {F(-1), F(1)}

    def test_hypercycle_through_orthogonal_point_is_geodesic_rejected(self):
        with pytest.raises(DegenerateResultError):
            make_hypercycle(F(-1), F(1), UHPPoint(0, 1))

    def test_inexact_hypercycle_matches_exact_one(self):
        # a through-point given by floats is read at their exact values
        exact = make_hypercycle(F(-1), F(3), UHPPoint(1, 3))
        inexact = make_hypercycle(F(-1), F(3), UHPPoint(1.0, 3.0))
        assert inexact.exact and inexact == exact
        with pytest.raises(DegenerateResultError):
            make_hypercycle(F(-1), F(1), UHPPoint(0.0, 1.0))
        with pytest.raises(DegenerateResultError):
            make_hypercycle(F(2), INFINITY, UHPPoint(2.0, 1.0))

    def test_inexact_horocycle(self):
        # a float size is read at its exact value; only a pinch witness's
        # irrational centre makes an inexact horocycle, held exactly as
        # u + v sqrt(D) over an integer
        h = make_horocycle(F(1), 0.5)
        assert h.exact and h == make_horocycle(F(1), Q(1, 2)) and h.size == Q(1, 2)
        assert make_horocycle(INFINITY, 2.0).size == 2
        h = pinch_pair(make_horocycle(F(0), 1), make_horocycle(F(5), 2))[1]
        assert not h.exact and h.kind is CurveKind.HOROCYCLE
        assert h.center == (model.Surd(-10, 1, 200), 2) and h.size == (model.Surd(75, -5, 200), 4)
        # a tiny horocycle far from 0, which a float circle read as a
        # hypercycle at EPS, pinches with another as horocycles
        tiny = (make_horocycle(F(Q(-435, 8)), Q(3, 4096)), make_horocycle(F(Q(2765, 8)), Q(5, 4096)))
        for w in pinch_pair(*tiny):
            assert w.kind is CurveKind.HOROCYCLE and not w.exact
            assert all(model._d2(w.coeffs(), o.circle.coeffs()) == 0 for o in tiny)
        assert make_horocycle(F(Q(83, 8)), 0.00390625).kind is CurveKind.HOROCYCLE

    def test_hypercycle_kind_check_raises_without_assert(self, monkeypatch):
        monkeypatch.setattr(model, "classify_curve", lambda circle: CurveKind.GEODESIC)
        with pytest.raises(DegenerateResultError):
            make_hypercycle(F(-1), F(1), UHPPoint(0, 2))


class TestRoundTrip:
    def test_text(self):
        g = make_geodesic(F(-1), F(1))
        assert parse_curve_text(g.to_text()) == g

    def test_record(self):
        h = make_horocycle(F(3), Q(2, 5))
        rec = h.to_record()
        assert rec["kind"] == "horocycle"


class TestIsometry:
    def test_translation_boundary(self):
        t = Isometry.translation(Q(3))
        assert t.apply_boundary(F(0)) == F(3)
        assert t.apply_boundary(INFINITY) == INFINITY

    def test_inversion_swaps_zero_infinity(self):
        s = Isometry(0, -1, 1, 0)
        assert s.apply_boundary(F(0)) == INFINITY
        assert s.apply_boundary(INFINITY) == F(0)

    def test_compose_inverse_is_identity(self):
        m = Isometry(2, 1, 1, 1)
        assert m.compose(m.inverse()) == Isometry.identity()

    def test_curve_kind_preserved(self):
        m = Isometry(1, 1, 1, 2)
        for c in (
            make_geodesic(F(0), F(5)),
            make_horocycle(F(1), Q(1, 3)),
            make_hypercycle(F(0), F(4), UHPPoint(2, 3)),
        ):
            assert m.apply_curve(c).kind is c.kind

    def test_kind_change_raises_without_assert(self, monkeypatch):
        # a faulty circle action that turns a geodesic into a horocycle
        horocycle = make_horocycle(F(0), 1).circle
        monkeypatch.setattr(Isometry, "apply_circle", lambda self, circle: horocycle)
        with pytest.raises(DegenerateResultError):
            Isometry.identity().apply_curve(make_geodesic(F(0), F(1)))

    def test_inexact_point_image(self):
        # a point given by floats is moved at their exact values
        m = Isometry(2, 1, 1, 1)
        w = m.apply_point(UHPPoint(0.5, 1.5))
        v = m.apply_point(UHPPoint(Q(1, 2), Q(3, 2)))
        assert w.exact and v.exact and (w.x, w.y) == (v.x, v.y)

    def test_inexact_point_image_under_huge_entries(self):
        # a*d - b*c taken in floats cancels to 0 for entries near 2^300
        m = Isometry(2**300 + 1, 1, 2**300, 1)
        w = m.apply_point(UHPPoint(0.25, 2.0))
        assert w.y > 0

    def test_equal_isometries_hash_equal(self):
        # a matrix and its multiples are one isometry, and one dict key
        scaled, identity = Isometry(2, 0, 0, 2), Isometry.identity()
        assert scaled == identity and hash(scaled) == hash(identity)
        assert {scaled: "scaled", identity: "identity"} == {identity: "identity"}
        assert hash(Isometry.reflection()) != hash(identity)

    def test_reversing_isometry(self):
        r = Isometry.reflection()
        assert r.reversing
        assert r.apply_boundary(F(2)) == F(-2)

    def test_two_point_normalizer(self):
        n = two_point_normalizer(F(3), F(1))
        assert n.apply_boundary(F(3)) == INFINITY
        assert n.apply_boundary(F(1)) == F(0)

    def test_triple_normalizer(self):
        src = (F(0), F(1), INFINITY)
        dst = (F(-1), F(0), F(1))
        n = triple_normalizer(src, dst)
        for s, d in zip(src, dst):
            assert n.apply_boundary(s) == d

    def test_triple_normalizer_self_check_raises_without_assert(self, monkeypatch):
        # a target-side matrix that sends the dst triple elsewhere: the
        # integer self-check, not an assert, catches the wrong answer
        dst = (F(-1), F(0), F(1))
        std = model._std_triple_matrix

        def wrong_on_target(t):
            m = std(t)
            return (m[0] + m[2], m[1] + m[3], m[2], m[3]) if t[0] == (-1, 1) else m

        monkeypatch.setattr(model, "_std_triple_matrix", wrong_on_target)
        with pytest.raises(HyperkError, match="does not send"):
            triple_normalizer((F(0), F(1), INFINITY), dst)


class TestSampling:
    def test_rational_points_lie_on_curve(self):
        c = make_hypercycle(F(-2), F(2), UHPPoint(0, 3))
        pts = rational_points(c, 50)
        assert len(pts) == 50
        for p in pts:
            assert c.circle.contains_point(p.x, p.y)

    def test_rational_points_of_large_count_are_distinct(self):
        c = make_horocycle(F(Q(1, 3)), Q(5, 4))
        pts = rational_points(c, 2000)
        assert len({(p.x, p.y) for p in pts}) == 2000

    def test_rational_points_cover_both_sides_of_major_arc(self):
        # circle bulging past its endpoints: samples must reach both
        # extremes of the arc, not only the span between the endpoints
        c = curve_from_coeffs(968, 0, -13041, -24200)
        pts = rational_points(c, 400)
        lo, hi = c.endpoint_floats()
        assert any(float(p.x) < lo for p in pts)
        assert any(float(p.x) > hi for p in pts)


class TestDistance:
    def test_distance_zero_on_geodesic(self):
        g = make_geodesic(F(-1), F(1))
        assert distance_to_geodesic(UHPPoint(0, 1), g) == pytest.approx(0, abs=1e-12)

    def test_geodesic_with_irrational_endpoints(self):
        g = curve_from_coeffs(1, 0, 0, -2)  # endpoints +-sqrt(2)
        # the imaginary axis meets g orthogonally at i sqrt(2)
        half_log2 = 0.5 * math.log(2)
        assert distance_to_geodesic(UHPPoint(0, 1), g) == pytest.approx(half_log2, rel=1e-15)
        assert distance_to_geodesic(UHPPoint(0, 2), g) == pytest.approx(half_log2, rel=1e-15)
        assert distance_to_geodesic(UHPPoint(1, 1), g) == 0.0
        assert distance_to_geodesic(UHPPoint(0.0, 1.0), g) == pytest.approx(half_log2, rel=1e-15)

    def test_distance_beyond_float_range_of_sinh(self):
        # sinh(dist) = 10^200, so its square is past the float range
        g = make_geodesic(F(1), INFINITY)
        z = UHPPoint(0, Q(1, 10**200))
        assert distance_to_geodesic(z, g) == pytest.approx(math.log(2) + 200 * math.log(10))

    def test_huge_coefficients(self):
        g = Isometry(2**600 + 1, 1, 2**600, 1).apply_curve(make_geodesic(F(-1), F(3)))
        z = UHPPoint(1, Q(1, 2**600))
        assert distance_to_geodesic(z, g) == pytest.approx(_oracle_distance_to_geodesic(z, g))

    def test_irrational_endpoints_are_refused_by_name(self):
        h = curve_from_coeffs(1, 0, -1, -2)  # x^2 + y^2 - y - 2 = 0 ends at +-sqrt(2)
        assert h.kind is CurveKind.HYPERCYCLE and not h.has_exact_endpoints
        with pytest.raises(InvalidInputError, match="irrational endpoints; use endpoint_floats"):
            h.endpoints
        lo, hi = h.endpoint_floats()
        assert hi == pytest.approx(math.sqrt(2), rel=1e-15) and lo == -hi

    def test_equidistant_pair_needs_rational_endpoints(self):
        g = curve_from_coeffs(1, 0, 0, -2)  # endpoints +-sqrt(2)
        with pytest.raises(InvalidInputError):
            equidistant_pair(g, 1.0, sinh_d=1)

    def test_equidistant_kind_check_raises_without_assert(self, monkeypatch):
        g = make_geodesic(F(-1), F(1))
        monkeypatch.setattr(model, "classify_curve", lambda circle: CurveKind.GEODESIC)
        with pytest.raises(DegenerateResultError):
            equidistant_pair(g, 1.0, sinh_d=1)

    def test_equidistant_pair_symmetric(self):
        g = make_geodesic(F(0), INFINITY)
        lo, hi = equidistant_pair(g, 1.0)
        for c in (lo, hi):
            assert c.kind is CurveKind.HYPERCYCLE
            for p in rational_points(c, 20):
                assert distance_to_geodesic(p, g) == pytest.approx(1.0, abs=1e-9)


def _oracle_geodesic_to_axis(p: BoundaryPoint, q: BoundaryPoint) -> Isometry:
    """The replaced route: an isometry sending the geodesic (p, q) to the
    imaginary axis (0, oo)."""
    if q.is_infinity:
        return Isometry.translation(-p.value)
    if p.is_infinity:
        return Isometry.translation(-q.value)
    if q.value > p.value:
        return Isometry(1, -p.value, -1, q.value)
    return Isometry(1, -q.value, -1, p.value)


def _oracle_distance_to_geodesic(z: UHPPoint, g) -> float:
    w = _oracle_geodesic_to_axis(*g.endpoints).apply_point(z)
    return math.asinh(abs(float(w.x)) / float(w.y))


def _oracle_rational_points(curve, count: int):
    """The replaced sampler: Fraction chords, deduplicated against a list."""
    a, b, c, d = (Q(v) for v in curve.circle.coeffs())
    points = []
    if a == 0:
        if c == 0:
            return [UHPPoint(-d / b, Q(k)) for k in range(1, count + 1)]
        t = 1
        while len(points) < count:
            for x in (Q(t), Q(-t), Q(1, t + 1), Q(-1, t + 1)):
                y = -(b * x + d) / c
                if y > 0:
                    points.append(UHPPoint(x, y))
                    if len(points) >= count:
                        break
            t += 1
        return points
    x0 = Q(*model._base_boundary_point(curve))
    k = 1
    while len(points) < count:
        slopes = []
        for den in range(1, k + 1):
            if math.gcd(k, den) != 1:
                continue
            slopes.extend((Q(k, den), Q(-k, den)))
            if den != k:
                slopes.extend((Q(den, k), Q(-den, k)))
        for t in slopes:
            u = -(2 * a * x0 + b + c * t) / (a * (1 + t * t))
            if u == 0:
                continue
            x, y = x0 + u, t * u
            if y > 0:
                pt = UHPPoint(x, y)
                if pt not in points:
                    points.append(pt)
                    if len(points) >= count:
                        break
        k += 1
    return points


def _sampling_corpus():
    """Seeded curves of every kind: random curves, their isometry images
    (oblique lines among them), vertical geodesics, horocycles at oo, and
    both curves of equidistant pairs."""
    rng = random.Random(4101)
    curves = [make_geodesic(F(rand_q(rng)), INFINITY), make_horocycle(INFINITY, Q(3, 2))]
    curves.append(make_hypercycle(F(1), INFINITY, UHPPoint(Q(-1, 2), 2)))
    curves.append(make_hypercycle(F(-2), F(3), UHPPoint(Q(1, 2), Q(1, 7))))
    for _ in range(30):
        c = rand_curve(rng)
        curves += [c, rand_isometry(rng).apply_curve(c)]
    for _ in range(12):
        g = rand_geodesic(rng)
        d = rng.uniform(0.1, 2.0)
        curves += equidistant_pair(g, d)
        curves += equidistant_pair(g, d, sinh_d=rand_q(rng, 1, 5, 7) + Q(1, 9))
    return curves


def test_rational_points_match_oracle():
    kinds = set()
    for c in _sampling_corpus():
        kinds.add((c.kind, c.circle.a == 0, c.circle.c == 0))
        pts = rational_points(c, 40)
        old = _oracle_rational_points(c, 40)
        assert [(p.x, p.y, p.exact) for p in pts] == [(p.x, p.y, p.exact) for p in old]
        assert all(isinstance(v, Fraction) for p in pts for v in (p.x, p.y))
    # circles and lines of every kind, vertical and oblique lines included
    assert {k for k, _, _ in kinds} == {
        CurveKind.GEODESIC, CurveKind.HOROCYCLE, CurveKind.HYPERCYCLE
    }
    assert (CurveKind.GEODESIC, True, True) in kinds
    assert (CurveKind.HYPERCYCLE, True, False) in kinds


def test_distance_matches_oracle():
    rng = random.Random(4102)
    geodesics = [make_geodesic(F(rand_q(rng)), INFINITY) for _ in range(6)]
    geodesics += [make_geodesic(INFINITY, F(rand_q(rng))) for _ in range(3)]
    geodesics += [rand_geodesic(rng) for _ in range(30)]
    checked = 0
    for g in geodesics:
        d = rng.uniform(0.05, 3.0)
        points = [UHPPoint(rand_q(rng), abs(rand_q(rng)) + Q(1, 50)) for _ in range(10)]
        points += [UHPPoint(rng.uniform(-5, 5), rng.uniform(0.01, 5)) for _ in range(5)]
        for c in equidistant_pair(g, d):
            points += rational_points(c, 10)
        points += rational_points(g, 5)
        for z in points:
            new, old = distance_to_geodesic(z, g), _oracle_distance_to_geodesic(z, g)
            assert new == pytest.approx(old, rel=1e-12, abs=1e-15)
            checked += 1
    assert checked > 1000


class TestNormalizerFromImages:
    H0, HINF = make_horocycle(F(0), Q(1, 2)), make_horocycle(INFINITY, 1)

    @pytest.mark.parametrize("h0, hinf, message", [
        (make_geodesic(F(-1), F(1)), make_horocycle(INFINITY, 1),
         "normalizer_from_images needs horocycles"),
        (make_horocycle(F(0), Q(1, 2)), make_geodesic(F(0), INFINITY),
         "normalizer_from_images needs horocycles"),
        (make_horocycle(F(0), Q(1, 2)), make_horocycle(INFINITY, 2),
         "the two horocycles must be tangent"),
        # inexact horocycles, the pinch witnesses, have no intersection pattern
        (*pinch_pair(make_horocycle(F(0), 1), make_horocycle(F(5), 2)),
         "intersection patterns need exact curves"),
    ])
    def test_refusals(self, h0, hinf, message):
        with pytest.raises(InvalidInputError) as err:
            normalizer_from_images(h0, hinf)
        assert str(err.value) == message

    def test_canonical_pair_is_fixed(self):
        assert normalizer_from_images(self.H0, self.HINF) == Isometry.identity()

    def test_contact_off_axis_raises_without_assert(self, monkeypatch):
        monkeypatch.setattr(Isometry, "apply_point", lambda self, z: UHPPoint(1, 1))
        with pytest.raises(HyperkError):
            normalizer_from_images(self.H0, self.HINF)

    def test_wrong_image_of_first_horocycle_raises_without_assert(self, monkeypatch):
        monkeypatch.setattr(Isometry, "apply_curve", lambda self, c: TestNormalizerFromImages.HINF)
        with pytest.raises(HyperkError):
            normalizer_from_images(self.H0, self.HINF)

    def test_wrong_image_of_second_horocycle_raises_without_assert(self, monkeypatch):
        monkeypatch.setattr(Isometry, "apply_curve", lambda self, c: TestNormalizerFromImages.H0)
        with pytest.raises(HyperkError):
            normalizer_from_images(self.H0, self.HINF)


def test_invariant_survives_python_O():
    # under -O an assert would vanish and the irrational root would surface
    # later as a TypeError
    code = (
        "from hyperk import curve_from_coeffs, equidistant_pair\n"
        "from hyperk.errors import InvalidInputError\n"
        "assert False, 'asserts are on'\n"
        "try:\n"
        "    equidistant_pair(curve_from_coeffs(1, 0, 0, -2), 1.0, sinh_d=1)\n"
        "except InvalidInputError:\n"
        "    print('raised')\n"
    )
    src = os.path.dirname(os.path.dirname(hyperk.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


def test_point_hash_agrees_with_equality():
    # points are equal by value, rational ones by their Fractions and
    # irrational ones, pairs (Surd, int) in Q(sqrt D), across D as well
    S = model.Surd
    rational = [UHPPoint(Q(3, 10), 1), UHPPoint(0.5, 2.0), UHPPoint(Q(1, 2), 2), UHPPoint(1, 2),
                UHPPoint(Q(3, 10), Q(10, 10))]
    quadratic = [
        model.QuadraticPoint((S(1, 0, 7), 2), (S(0, 1, 7), 2)),  # (1/2, sqrt(7)/2)
        model.QuadraticPoint((S(1, 0, 28), 2), (S(0, 1, 28), 4)),  # sqrt(28)/4 = sqrt(7)/2
        model.QuadraticPoint((S(1, 0, 7), 2), (S(0, -1, 7), 2)),
        model.QuadraticPoint((S(1, 0, 8), 2), (S(0, 1, 8), 2)),
        model.QuadraticPoint((S(1, 1, 2), 1), (S(1, 1, 2), 1)),
        model.QuadraticPoint((S(1, 1, 3), 1), (S(1, 1, 3), 1)),
    ]
    rng = random.Random(20240)
    for _ in range(120):  # meeting points of seeded curves, met in both orders
        c1, c2 = rand_curve(rng), rand_curve(rng)
        rational += rational_points(c1, 1)
        if c1 != c2:
            for pair in ((c1, c2), (c2, c1)):
                for p in intersection_pattern(*pair).interior_points:
                    (rational if p.exact else quadratic).append(p)
    assert len(rational) > 120 and len(quadratic) > 100

    def value(p):  # x and y: a rational, or u/w and the signed square of v sqrt(D)/w
        if p.exact:
            return p.x, p.y
        return tuple((Fraction(P.u, W), Fraction(P.v * abs(P.v) * P.D, W * W)) for P, W in p.coords)

    equal = 0
    for a, b in itertools.product(rational + quadratic, repeat=2):
        same = a.exact == b.exact and value(a) == value(b)
        assert (a == b) == (b == a) == same and (a != b) == (not same), (a, b)
        if same:
            assert hash(a) == hash(b), (a, b)
            equal += a is not b
    assert equal > 50
    assert rational[0] == rational[4] and rational[1] == rational[2] != rational[3]
    assert quadratic[0] == quadratic[1] and hash(quadratic[0]) == hash(quadratic[1])
    assert quadratic[0] != quadratic[2] and quadratic[0] != quadratic[3]
    assert quadratic[4] != quadratic[5] and rational[1] != quadratic[0]
    assert len(set(quadratic[:6])) == 5


def test_equality_with_another_type_is_left_to_it():
    geo = make_geodesic(F(0), F(1))
    S = model.Surd
    irrational = model.QuadraticPoint((S(1, 0, 7), 2), (S(0, 1, 7), 2))
    for value in (UHPPoint(0, 1), irrational, geo.circle, geo, Isometry.identity()):
        assert value.__eq__("x") is NotImplemented and value != "x"
    # a rational point is never an irrational one
    assert UHPPoint(0, 1).__eq__(irrational) is NotImplemented and UHPPoint(0, 1) != irrational


def test_surd_equality_is_by_value():
    # u1 + v1 sqrt(D1) = u2 + v2 sqrt(D2) iff u1 = u2, v1^2 D1 = v2^2 D2
    # and v1, v2 have one sign; the hash is u's
    S = model.Surd
    rows = [
        (S(1, 1, 2), S(1, 1, 3), False),  # equal parts, different values
        (S(0, 1, 8), S(0, 2, 2), True),  # 2 sqrt(2) twice
        (S(0, 1, 8), S(0, -2, 2), False),
        (S(-1, 3, 2), S(-1, 1, 18), True),
        (S(3, 0, 5), S(3, 0, 7), True),
        (S(3, 0, 5), 3, True),
        (S(2, 1, 2), 2, False),
    ]
    for a, b, equal in rows:
        assert (a == b) is (b == a) is equal and (a != b) is not equal, (a, b)
        assert hash(a) == hash(b) or not equal, (a, b)
    # seeded values, each in two forms: v sqrt(k^2 m) and k v sqrt(m)
    rng = random.Random(2035)
    values = []
    for _ in range(150):
        u, v, k, m = rng.randint(-4, 4), rng.randint(-3, 3), rng.randint(1, 4), rng.choice((2, 3, 5, 6))
        values += [S(u, v, k * k * m), S(u, k * v, m)]
    for a, b in itertools.product(values, repeat=2):
        near = math.isclose(a.u + a.v * math.sqrt(a.D), b.u + b.v * math.sqrt(b.D), abs_tol=1e-9)
        assert (a == b) == near, (a, b)
        assert hash(a) == hash(b) or not near, (a, b)


def test_contains_point_off_the_rationals():
    # an exact circle evaluated at floats, each read at its exact value:
    # the binary values of 0.6 and 0.8 lie off the unit circle
    unit = make_geodesic(F(-1), F(1)).circle  # x^2 + y^2 = 1
    assert unit.contains_point(0.0, 1.0) and not unit.contains_point(0.5, 0.5)
    assert unit.contains_point(Q(3, 5), Q(4, 5)) and not unit.contains_point(0.6, 0.8)
    assert curve_from_coeffs(1.0, 0.0, 0.0, -1.0).circle == unit
    assert model.curve_from_circle(unit) == make_geodesic(F(-1), F(1))


def test_decimal_literals_and_negative_square_roots():
    from hyperk._rational import isqrt_exact, q_from_str

    assert q_from_str("0.25") == Q(1, 4) and q_from_str("1e2") == 100
    assert isqrt_exact(49) == 7 and isqrt_exact(50) is None
    with pytest.raises(ValueError, match="isqrt of negative integer"):
        isqrt_exact(-1)


class TestFloatsOfHugeCoefficients:
    # x^2 + y^2 = 2 * 4^600: no coefficient past a is a float, the endpoints are
    HUGE = curve_from_coeffs(1, 0, 0, -2 * 4**600)

    def test_endpoints_center_and_apex(self):
        lo, hi = self.HUGE.endpoint_floats()
        assert hi == pytest.approx(2**600.5, rel=1e-15) and lo == -hi
        cx, cy, r = self.HUGE.euclidean_center_radius()
        assert (cx, cy) == (0.0, 0.0) and r == pytest.approx(2**600.5, rel=1e-15)
        assert self.HUGE.apex_height() == r

    def test_same_floats_as_small_coefficients(self):
        # a common power of two leaves every ratio as it was
        for k in ((1, 0, 0, -2), (3, -5, 0, 1), (2, -3, -7, 1), (0, 1, 0, -5), (0, 0, 1, -3)):
            small = curve_from_coeffs(*k)
            big = curve_from_coeffs(*(v * 2**900 + (v > 0) for v in k))
            for f in ("endpoint_floats", "euclidean_center_radius", "apex_height"):
                want, got = getattr(small, f)(), getattr(big, f)()
                assert got == pytest.approx(want, rel=1e-12), (k, f)

    def test_coefficients_spanning_past_the_float_range(self):
        # no common power of two makes both a = 1 and d = -2^1901 floats
        huge = curve_from_coeffs(1, 0, 0, -(2**1901))
        lo, hi = huge.endpoint_floats()
        assert hi == pytest.approx(2**950.5, rel=1e-15) and lo == -hi
        assert huge.euclidean_center_radius() == (0.0, 0.0, hi) and huge.apex_height() == hi
        # two endpoints near 2^900 (disc 29); roots near 2^500 and 2^-1000
        # beside ones near -2^1000, where -b + sqrt(disc) cancels (the
        # conjugate quotient).  The reference takes the square root to 400
        # bits and forms each root without cancellation: q / a and d / q.
        for k in (
            (1, -(2**901 + 1), 0, 2**1800 + 2**900 - 7),
            (3, 2**1000, -5, -(2**1500)),
            (1, 2**1000, 0, -1),
        ):
            c = curve_from_coeffs(*k)
            a, b, _, d = c.circle.coeffs()
            r = Fraction(math.isqrt((b * b - 4 * a * d) << 800), 1 << 400)
            q = -(b + r if b >= 0 else b - r) / 2
            want = sorted(float(v) for v in (q / a, d / q))
            got = c.endpoint_floats()
            assert all(math.isclose(u, v, rel_tol=1e-15) for u, v in zip(got, want)), (got, want)

    def test_inexact_circle_under_entries_past_the_float_range(self):
        # isometries act on exact curves only: a pinch witness is refused by
        # small and 2^1100 entries alike, and a circle given by floats is
        # read at its exact value and moved
        witnesses = pinch_pair(make_horocycle(F(0), 1), make_horocycle(F(5), 2))
        for t in (Isometry.translation(1), Isometry.translation(2**1100)):
            for w in witnesses:
                with pytest.raises(InvalidInputError, match="^isometries act on exact curves$"):
                    t.apply_curve(w)
            for k in ((0.0, 0.0, 1.0, -2.5), (0.0, 0.0, 0.3, -0.7)):  # horocycles at oo
                exact = model.GeneralizedCircle(*k)
                assert t.apply_circle(exact) == exact  # a horizontal line

    def test_result_past_float_range_raises(self):
        far_line = curve_from_coeffs(0, 1, 0, -(2**1100))  # x = 2^1100
        high_line = curve_from_coeffs(0, 0, 1, -(2**1100))  # y = 2^1100
        with pytest.raises(InvalidInputError, match="float range"):
            far_line.endpoint_floats()
        with pytest.raises(InvalidInputError, match="float range"):
            high_line.apex_height()


# -- differential tests of the integer normalizer and boundary action --------


def _oracle_std_triple_matrix(t):
    """Matrix sending the triple t to (0, 1, oo); entries rational."""
    s0, s1, s2 = t
    if s0.is_infinity:
        return (Q(0), s1.value - s2.value, Q(1), -s2.value)
    if s1.is_infinity:
        return (Q(1), -s0.value, Q(1), -s2.value)
    if s2.is_infinity:
        return (Q(1), -s0.value, Q(0), s1.value - s0.value)
    return (
        s1.value - s2.value,
        -s0.value * (s1.value - s2.value),
        s1.value - s0.value,
        -s2.value * (s1.value - s0.value),
    )


def _oracle_apply_boundary(iso, p):
    """The boundary action on Fractions, one branch per infinity."""
    a, b, c, d = iso.matrix()
    if p.is_infinity:
        return INFINITY if c == 0 else BoundaryPoint.finite(a / c)
    x = -p.value if iso.reversing else p.value
    den = c * x + d
    if den == 0:
        return INFINITY
    return BoundaryPoint.finite((a * x + b) / den)


def _oracle_triple_normalizer(src, dst):
    """md^-1 . ms on Fractions, checked by the Fraction boundary action."""
    a, b, c, d = _oracle_std_triple_matrix(dst)
    e, f, g, h = _oracle_std_triple_matrix(src)
    m = (d * e - b * g, d * f - b * h, a * g - c * e, a * h - c * f)
    if m[0] * m[3] - m[1] * m[2] > 0:
        iso = Isometry(*m)
    else:
        iso = Isometry(-m[0], m[1], -m[2], m[3], reversing=True)
    for s, t in zip(src, dst):
        assert _oracle_apply_boundary(iso, s) == t
    return iso


def _oracle_isometry_matrix(entries):
    """The Fraction reduction Isometry used to make: Q copies of the
    entries, denominators cleared, gcd divided out, first nonzero positive."""
    qs = [Q(v) for v in entries]
    lcm = math.lcm(*(q.denominator for q in qs))
    ints = [q.numerator * (lcm // q.denominator) for q in qs]
    g = math.gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(Q(v // g) for v in ints)


def _rand_boundary_point(rng, bits):
    if rng.random() < 0.15:
        return INFINITY
    return F(Fraction(rng.randint(-(1 << bits), 1 << bits), rng.randint(1, 1 << bits)))


def test_triple_normalizer_matches_fraction_oracle():
    rng = random.Random(6061)
    seen = set()
    done = 0
    while done < 3000:
        bits = rng.choice((3, 3, 12, 64, 640))
        src = tuple(_rand_boundary_point(rng, bits) for _ in range(3))
        dst = tuple(_rand_boundary_point(rng, rng.choice((3, bits))) for _ in range(3))
        if len(set(src)) < 3 or len(set(dst)) < 3:
            continue
        iso = triple_normalizer(src, dst)
        want = _oracle_triple_normalizer(src, dst)
        assert iso.matrix() == want.matrix() and iso.reversing == want.reversing
        # the integer candidate is already in the Isometry's coprime form
        ints = model._triple_ints(src, dst)
        assert ints == (*want._ints(), want.reversing)
        assert all(type(v) is Fraction for v in iso.matrix())
        done += 1
        for side, triple in (("src", src), ("dst", dst)):
            seen.update((side, k) for k, p in enumerate(triple) if p.is_infinity)
        seen.add(("reversing", iso.reversing))
        seen.add(("big", bits == 640))
    assert len(seen) == 10  # oo in every slot of both, both orientations, 2^640


def test_isometry_entries_match_fraction_reduction():
    rng = random.Random(6062)
    for _ in range(1500):
        bits = rng.choice((3, 40, 700))
        entries = [
            rng.choice((rng.randint(-(1 << bits), 1 << bits),
                        Fraction(rng.randint(-(1 << bits), 1 << bits), rng.randint(1, 1 << bits))))
            for _ in range(4)
        ]
        det = entries[0] * entries[3] - entries[1] * entries[2]
        if det <= 0:
            with pytest.raises(InvalidInputError, match="positive determinant"):
                Isometry(*entries)
            continue
        iso = Isometry(*entries)
        assert iso.matrix() == _oracle_isometry_matrix(entries)
        assert all(type(v) is Fraction for v in iso.matrix())
    # entries that are neither ints nor Fractions are taken at their exact value
    assert Isometry(0.5, "3/4", 0, 1).matrix() == (2, 3, 0, 4)


def test_apply_boundary_matches_fraction_oracle():
    rng = random.Random(6063)
    for k in range(600):
        if k % 3 == 0:  # deep entries
            iso = rand_isometry(rng)
            for _ in range(rng.randint(20, 120)):
                iso = iso.compose(rand_isometry(rng))
        else:
            iso = rand_isometry(rng)
        a, b, c, d = iso.matrix()
        points = [INFINITY, F(0)] + [_rand_boundary_point(rng, rng.choice((3, 64, 640))) for _ in range(4)]
        if c:
            pole = F(d / c if iso.reversing else -d / c)
            assert iso.apply_boundary(pole) == INFINITY
            points.append(pole)
        for p in points:
            assert iso.apply_boundary(p) == _oracle_apply_boundary(iso, p), (iso, p)


# -- differential tests of the integer point action, sign test and constructors


def test_q_keeps_a_fraction_and_builds_the_rest():
    f = Fraction(-3, 4)
    assert Q(f) is f
    assert [Q(v) for v in (2, "3/4", 0.5, True)] == [2, Fraction(3, 4), Fraction(1, 2), 1]
    assert all(type(Q(v)) is Fraction for v in (2, "3/4", 0.5, True))


def _oracle_apply_point(iso, z):
    """The point action on Fractions, at the exact value of an inexact point."""
    a, b, c, d = iso.matrix()
    det = a * d - b * c
    x, y = Fraction(z.x), Fraction(z.y)
    if iso.reversing:
        x = -x
    den = (c * x + d) ** 2 + c * c * y * y
    nx = (a * c * (x * x + y * y) + (a * d + b * c) * x + b * d) / den
    return UHPPoint(nx, det * y / den)


def _oracle_twisted(iso):
    return (iso.m00, -iso.m01, -iso.m10, iso.m11)


def _oracle_compose(s, o):
    a, b, c, d = s.matrix()
    e, f, g, h = _oracle_twisted(o) if s.reversing else o.matrix()
    return Isometry(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h,
                    reversing=s.reversing ^ o.reversing)


def _oracle_inverse(iso):
    a, b, c, d = iso.matrix()
    if iso.reversing:
        return Isometry(*_oracle_twisted(Isometry(d, -b, -c, a)), reversing=True)
    return Isometry(d, -b, -c, a)


def _oracle_sign(circle, x, y):
    v = circle.evaluate(x, y)
    return 0 if v == 0 else (1 if v > 0 else -1)


def _oracle_make_geodesic(p, q):
    if p.is_infinity or q.is_infinity:
        return curve_from_coeffs(0, 1, 0, -(q if p.is_infinity else p).value)
    return curve_from_coeffs(1, -(p.value + q.value), 0, p.value * q.value)


def _oracle_make_horocycle(center, size):
    size = Fraction(size)
    if center.is_infinity:
        return curve_from_coeffs(0, 0, 1, -size)
    p = center.value
    return curve_from_coeffs(1, -2 * p, -2 * size, p * p)


def _oracle_make_hypercycle(p, q, through):
    """The carrier from Fraction arithmetic, at the exact value of an
    inexact through-point."""
    x0, y0 = Fraction(through.x), Fraction(through.y)
    if p.is_infinity or q.is_infinity:
        e = (q if p.is_infinity else p).value
        if x0 == e:
            raise DegenerateResultError("through-point lies on the vertical geodesic")
        circle = model.GeneralizedCircle(0, y0, -(x0 - e), -e * y0)
    else:
        b, d = -(p.value + q.value), p.value * q.value
        c = -(x0 * x0 + y0 * y0 + b * x0 + d) / y0
        if c == 0:
            raise DegenerateResultError("through-point lies on the spanning geodesic")
        circle = model.GeneralizedCircle(1, b, c, d)
    curve = model.Curve(circle)
    if curve.kind is not CurveKind.HYPERCYCLE:
        raise DegenerateResultError(f"hypercycle construction classifies as {curve.kind.value}")
    return curve


def _outcome(fn, *args):
    """fn(*args), or the type and text of the package error it raises."""
    try:
        return fn(*args)
    except HyperkError as exc:
        return type(exc), exc.args[0]


def _rand_frac(rng, bits, positive=False):
    num = rng.randint(1 if positive else -(1 << bits), 1 << bits)
    return Fraction(num, rng.randint(1, 1 << bits))


def _rand_big_isometry(rng, bits):
    """An isometry with integer entries of about `bits` bits."""
    while True:
        m = [rng.randint(-(1 << bits), 1 << bits) for _ in range(4)]
        det = m[0] * m[3] - m[1] * m[2]
        if det:
            if det < 0:
                m[0], m[1] = -m[0], -m[1]
            return Isometry(*m, reversing=rng.random() < 0.4)


def _isometry_corpus(rng, count):
    """Small, deep (composed) and 2^600+-entry isometries, many reversing."""
    out = []
    for k in range(count):
        kind = k % 4
        if kind == 0:
            iso = rand_isometry(rng)
        elif kind == 1:
            iso = _rand_big_isometry(rng, rng.choice((610, 700)))
        elif kind == 2:
            iso = rand_isometry(rng)
            for _ in range(rng.randint(5, 60)):
                iso = _oracle_compose(iso, rand_isometry(rng))
        else:
            iso = _rand_big_isometry(rng, rng.choice((3, 20, 64)))
        out.append(iso)
    return out


def _rand_point(rng, bits):
    return UHPPoint(_rand_frac(rng, bits), _rand_frac(rng, bits, positive=True))


def test_point_action_matches_fraction_oracle():
    rng = random.Random(6111)
    seen = set()
    done = 0
    for iso in _isometry_corpus(rng, 800):
        for bits in (3, 40, rng.choice((610, 650))):
            z = _rand_point(rng, bits)
            got, want = iso.apply_point(z), _oracle_apply_point(iso, z)
            assert got.exact and (got.x, got.y) == (want.x, want.y), (iso, z)
            assert type(got.x) is Fraction and type(got.y) is Fraction
            done += 1
            seen.add(("reversing", iso.reversing))
            seen.add(("big point", bits > 600))
            seen.add(("big entries", max(abs(v.numerator) for v in iso.matrix()).bit_length() > 600))
    assert done >= 2000 and len(seen) == 6


def test_inexact_point_action_is_bit_identical():
    # a point given by floats is moved at their exact values: the image is
    # exact and equals the Fraction oracle's, under entries whose floats
    # overflow too
    rng = random.Random(6112)
    done = 0
    unbalanced = [Isometry.translation(2**k) for k in (700, 800, 1100)] * 20
    for iso in _isometry_corpus(rng, 1000) + unbalanced:
        z = UHPPoint(rng.uniform(-9, 9), rng.uniform(1e-3, 9))
        got, want = iso.apply_point(z), _oracle_apply_point(iso, z)
        assert got.exact and (got.x, got.y) == (want.x, want.y), (iso, z)
        done += 1
    assert done >= 1000


def test_inexact_point_image_past_the_float_range():
    # the exact image of the point's value: x past the largest float and y
    # below the smallest one are exact rationals, not refusals
    z = UHPPoint(0.5, 1.7)
    w = Isometry.translation(2**1100).apply_point(z)
    assert (w.x, w.y) == (Fraction(0.5) + 2**1100, Fraction(1.7))
    n = 3**700
    w = Isometry(n + 1, 1, n, 1).apply_point(z)
    assert w.exact and 0 < w.y < Fraction(1, 2**2000)


def test_compose_and_inverse_match_fraction_oracle():
    rng = random.Random(6113)
    isos = _isometry_corpus(rng, 2400)
    reversing = set()
    for s, o in zip(isos, isos[1:] + isos[:1]):
        got, want = s.compose(o), _oracle_compose(s, o)
        assert (got.matrix(), got.reversing) == (want.matrix(), want.reversing), (s, o)
        got, want = s.inverse(), _oracle_inverse(s)
        assert (got.matrix(), got.reversing) == (want.matrix(), want.reversing), s
        assert all(type(v) is Fraction for v in got.matrix())
        reversing.add((s.reversing, o.reversing))
    assert len(reversing) == 4


def _circle_corpus(rng, count):
    """Exact carriers: random curves and their images under small, deep and
    2^600+-entry isometries, so coefficients reach past 2^1200."""
    isos = _isometry_corpus(rng, count)
    return [iso.apply_circle(rand_curve(rng).circle) for iso in isos]


def test_sign_at_matches_evaluate():
    rng = random.Random(6114)
    signs = collections.Counter()
    for circle in _circle_corpus(rng, 700):
        points = [_rand_point(rng, b) for b in (3, 40, 640)]
        # a point on the circle, from its own sample points
        curve = model.Curve(circle)
        points += rational_points(curve, 2)
        for z in points:
            want = _oracle_sign(circle, z.x, z.y)
            assert circle.sign_at(z.x, z.y) == want, (circle, z)
            assert circle.contains_point(z.x, z.y) == (want == 0)
            signs[want] += 1
    assert sum(signs.values()) >= 2000 and set(signs) == {-1, 0, 1}


def test_constructors_match_fraction_oracle():
    rng = random.Random(6115)
    done = 0
    seen = set()
    while done < 2400:
        bits = rng.choice((3, 3, 20, 620))
        p, q = _rand_boundary_point(rng, bits), _rand_boundary_point(rng, bits)
        if p == q:
            continue
        assert make_geodesic(p, q) == _oracle_make_geodesic(p, q)
        size = rng.choice((_rand_frac(rng, bits, positive=True), rng.randint(1, 9)))
        for center in (p, INFINITY):
            got, want = make_horocycle(center, size), _oracle_make_horocycle(center, size)
            assert got == want and (got.center, got.size) == (want.center, want.size)
        if p.is_infinity and q.is_infinity:
            continue
        through = _rand_point(rng, rng.choice((3, bits)))
        if rng.random() < 0.15:  # on the geodesic pq
            through = rational_points(make_geodesic(p, q), 1)[0]
        got = _outcome(make_hypercycle, p, q, through)
        assert got == _outcome(_oracle_make_hypercycle, p, q, through)
        done += 1
        seen.update(("oo", k) for k, v in enumerate((p, q)) if v.is_infinity)
        seen.add(("big", bits == 620))
        seen.add(type(got))
    assert len(seen) == 6  # oo at p and at q, big, curves and degenerate ones


def test_inexact_constructors_are_unchanged():
    # a float size and an inexact through-point are read at their exact
    # values, as the Fraction oracles read them
    rng = random.Random(6116)
    made = 0
    for _ in range(300):
        p, q = (_rand_boundary_point(rng, rng.choice((3, 20))) for _ in range(2))
        if p == q:
            continue
        size = rng.uniform(0.01, 9)
        for center in (p, INFINITY):
            got = _outcome(make_horocycle, center, size)
            assert got == _outcome(_oracle_make_horocycle, center, size)
        if p.is_infinity and q.is_infinity:
            continue
        through = UHPPoint(rng.uniform(-9, 9), rng.uniform(0.01, 9))
        got = _outcome(make_hypercycle, p, q, through)
        assert got == _outcome(_oracle_make_hypercycle, p, q, through)
        made += isinstance(got, model.Curve) and got.exact
    assert made >= 150


def test_two_point_normalizer_sends_x_to_oo_and_y_to_0():
    rng = random.Random(6191)
    seen = set()
    done = 0
    while done < 2000:
        bits = rng.choice((3, 40, 610))
        x, y = (_rand_boundary_point(rng, bits) for _ in range(2))
        if x == y:
            continue
        n = two_point_normalizer(x, y)
        a, b, c, d = n.matrix()
        assert not n.reversing and a * d - b * c > 0
        assert n.apply_boundary(x) == INFINITY and n.apply_boundary(y) == F(0)
        # the map by cases on oo, followed by z -> lam z with lam > 0
        a, b, c, d = n.compose(oracle_two_point_normalizer(x, y).inverse()).matrix()
        assert b == c == 0 and a * d > 0
        done += 1
        seen.update(("oo", k) for k, v in enumerate((x, y)) if v.is_infinity)
        seen.add(("big", bits == 610))
    assert len(seen) == 4


def test_evaluate_boundary_sign_matches_fraction_value():
    rng = random.Random(6192)
    seen = collections.Counter()
    for _ in range(1500):
        curve = rand_curve(rng)
        if rng.random() < 0.3:
            curve = Isometry(2**600 + 1, 1, 2**600, 1).apply_curve(curve)
        points = [_rand_boundary_point(rng, rng.choice((3, 610))), INFINITY]
        if curve.has_exact_endpoints:
            points += curve.endpoints
        a, b, _, d = curve.circle.coeffs()
        for p in points:
            want = a if p.is_infinity else a * p.value * p.value + b * p.value + d
            got = curve.circle.evaluate_boundary(p)
            assert (got > 0) - (got < 0) == (want > 0) - (want < 0), (curve, p)
            seen[(want > 0) - (want < 0), p.is_infinity] += 1
    # a canonical circle has a >= 0, so oo is never on the negative side
    assert len(seen) == 5 and min(seen.values()) >= 50


def test_normalizer_from_images_does_not_depend_on_the_two_point_normalizer_scale(
        monkeypatch):
    from hyperk import constructions

    rng = random.Random(6193)
    H0, HINF = TestNormalizerFromImages.H0, TestNormalizerFromImages.HINF
    moves = [Isometry.identity(), Isometry.translation(Q(3, 7)), Isometry(0, -1, 1, 0),
             Isometry(0, -1, 1, 5), Isometry(2**600 + 1, 1, 2**600, 1)]
    moves += [rand_isometry(rng) for _ in range(120)]
    pairs = [(g.apply_curve(H0), g.apply_curve(HINF)) for g in moves]
    got = [normalizer_from_images(*pair) for pair in pairs]
    monkeypatch.setattr(constructions, "two_point_normalizer", oracle_two_point_normalizer)
    assert [normalizer_from_images(*pair) for pair in pairs] == got
    assert sum(h.center.is_infinity for pair in pairs for h in pair) >= 20


def _stored_data_corpus():
    """Seeded curves of every kind, horocycles centred at oo and curves
    ending at oo, curves with irrational endpoints, and their images
    under 2^600-entry isometries."""
    rng = random.Random(2717)
    curves = [rand_curve(rng) for _ in range(240)]
    curves += [make_horocycle(INFINITY, abs(rand_q(rng)) + 1) for _ in range(20)]
    curves += [make_geodesic(F(rand_q(rng)), INFINITY) for _ in range(20)]
    curves += [make_hypercycle(F(rand_q(rng)), INFINITY, UHPPoint(rand_q(rng) + 20, 1))
               for _ in range(20)]
    while len(curves) < 340:  # a > 0 and b^2 - 4ad positive, not a square
        a, b, d = rng.randint(1, 4), rng.randint(-12, 12), rng.randint(-12, 12)
        disc = b * b - 4 * a * d
        if disc > 0 and math.isqrt(disc) ** 2 != disc:
            curves.append(curve_from_coeffs(a, b, rng.choice((0, 0, -1, 1, 2)), d))
    wide = [Isometry(2**600 + k % 9 + 1, 1, 2**600, 1, reversing=k % 2 == 1) for k in range(18)]
    curves += [wide[k % 18].apply_curve(c) for k, c in enumerate(curves[:360:2])]
    return curves


def test_stored_curve_data_matches_the_eager_derivation():
    # each curve keeps its coefficient tuple, its norm and its boundary
    # points, formed once; endpoints and centre are the kept points and
    # size is built when read, equal to what was derived eagerly
    from exact_oracles import _oracle_endpoints, _oracle_horodata

    tally = collections.Counter()
    for curve in _stored_data_corpus():
        circle = curve.circle
        a, b, c, d = circle.a, circle.b, circle.c, circle.d
        assert circle._k == circle.coeffs() == (a, b, c, d)
        assert circle._norm == circle.nondegeneracy() == b * b + c * c - 4 * a * d
        ends = _oracle_endpoints(curve)
        center, size = _oracle_horodata(curve)
        # a horocycle keeps its centre, every other curve its endpoints
        assert curve._boundary == (ends if center is None else (center,)), curve
        assert curve.has_exact_endpoints == (ends is not None)
        if ends is None:
            with pytest.raises(InvalidInputError, match="irrational endpoints"):
                curve.endpoints
        else:
            assert curve.endpoints == ends
            assert all(p.is_infinity or type(p.value) is Fraction for p in curve.endpoints)
        assert curve.center == center and curve.size == size
        assert type(curve.size) is type(size)
        tally[curve.kind, curve.exact, ends is None] += 1
        tally["oo"] += ends is not None and INFINITY in ends
        tally["wide"] += max(abs(v).bit_length() for v in circle.coeffs()) > 600
    for kind in (CurveKind.GEODESIC, CurveKind.HOROCYCLE, CurveKind.HYPERCYCLE):
        assert tally[kind, True, False] >= 60, tally
    assert tally[CurveKind.GEODESIC, True, True] >= 10, tally
    assert tally[CurveKind.HYPERCYCLE, True, True] >= 10, tally
    assert tally["oo"] >= 80 and tally["wide"] >= 150, tally


# -- boundary points as their integer pairs ------------------------------------


def _boundary_values():
    """What a boundary point is built from: ints, Fractions, '3/4' strings,
    floats, negatives, 600-bit rationals and None (oo)."""
    big = 1 << 600
    return [None, 0, 1, -1, 7, -12, big, -big - 7,
            Fraction(3, 4), Fraction(-5, 6), Fraction(big + 1, big - 1), Fraction(-big, 3),
            "3/4", "-7/2", "5", "6/8", 0.1, -2.5, 0.75, 1e-300, -1e300]


def test_boundary_point_keeps_the_contract_of_the_fraction_class():
    values = _boundary_values()
    points = [BoundaryPoint(v) for v in values]
    oracles = [_OracleBoundaryPoint(v) for v in values]
    for v, p, o in zip(values, points, oracles):
        assert type(p) is BoundaryPoint
        assert p.value == o.value and type(p.value) is type(o.value), v
        assert p.is_infinity == o.is_infinity and repr(p) == repr(o), v
        assert p.sort_key() == o.sort_key(), v
        m, n = p
        assert n >= 0 and math.gcd(m, n) == 1, v
        # a point is the plain pair it holds
        assert p == (m, n) and hash(p) == hash((m, n))
        if v is not None:
            assert BoundaryPoint.finite(v) == p
    assert BoundaryPoint() == INFINITY and INFINITY == (1, 0) and INFINITY.is_infinity
    with pytest.raises(TypeError):
        BoundaryPoint.finite(None)
    for (p, o), (q, r) in itertools.product(zip(points, oracles), repeat=2):
        assert (p == q) == (o == r) and (p != q) == (o != r), (p, q)
        assert (hash(p) == hash(q)) >= (p == q)
    order = sorted(range(len(points)), key=lambda k: points[k].sort_key())
    want = sorted(range(len(oracles)), key=lambda k: oracles[k].sort_key())
    assert order == want and repr(points[order[-1]]) == "oo"


def test_apply_boundary_matches_the_fraction_class():
    # the reduced integer image, n >= 0 and oo as (1, 0), against the
    # action that read its image back through Fraction
    rng = random.Random(2807)
    big = 1 << 600
    maps = [rand_isometry(rng) for _ in range(300)]
    maps += [Isometry(big + k, 1, big, 1, reversing=k % 2 == 1) for k in range(1, 9)]
    seen = collections.Counter()
    for iso in maps:
        a, b, c, d = iso.matrix()
        values = _boundary_values() + [Fraction(rng.randint(-99, 99), rng.randint(1, 99))]
        if c:
            values.append(d / c if iso.reversing else -d / c)  # the pole
        for v in values:
            got = iso.apply_boundary(BoundaryPoint(v))
            want = _oracle_apply_boundary_pair(iso, _OracleBoundaryPoint(v))
            assert type(got) is BoundaryPoint
            assert got.value == want.value and repr(got) == repr(want), (iso, v)
            m, n = got
            assert n >= 0 and math.gcd(m, n) == 1, (iso, v, got)
            assert got == (1, 0) if want.is_infinity else n > 0
            seen[iso.reversing, want.is_infinity] += 1
            seen["big"] += abs(m).bit_length() > 600
    assert len(seen) == 5 and seen["big"] > 100, seen  # both orientations, oo, 2^600


def test_boundary_points_survive_pickle_and_copy():
    points = [BoundaryPoint(v) for v in _boundary_values()]
    curve = make_geodesic(F(Q(-1, 3)), INFINITY)
    for p in points + list(curve.endpoints):
        copies = [copy.copy(p), copy.deepcopy(p)]
        copies += [pickle.loads(pickle.dumps(p, k)) for k in range(pickle.HIGHEST_PROTOCOL + 1)]
        for q in copies:
            assert type(q) is BoundaryPoint and q == p and repr(q) == repr(p)
    assert copy.deepcopy(curve).endpoints == curve.endpoints
    assert pickle.loads(pickle.dumps(curve)).endpoints == curve.endpoints


def test_interior_points_survive_pickle_and_copy():
    # a rational point, and the meeting point (1/2, sqrt(7)/2) held in Q(sqrt 7)
    pat = intersection_pattern(curve_from_coeffs(1, 0, 0, -2), curve_from_coeffs(0, 2, 0, -1))
    for p in (UHPPoint(Q(1, 3), 2), pat.interior_points[0]):
        copies = [copy.copy(p), copy.deepcopy(p)]  # __slots__ classes pickle from protocol 2
        copies += [pickle.loads(pickle.dumps(p, k)) for k in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        for q in copies:
            assert type(q) is type(p) and q == p and hash(q) == hash(p) and repr(q) == repr(p)
    assert pickle.loads(pickle.dumps(pat)) == pat
