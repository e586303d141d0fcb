import collections
import math
import os
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
    make_geodesic,
    make_horocycle,
    make_hypercycle,
    normalizer_from_images,
    parse_curve_text,
    rational_points,
    triple_normalizer,
    two_point_normalizer,
)
from hyperk.errors import DegenerateResultError, HyperkError, InvalidInputError
from hyperk.verify import rand_curve, rand_geodesic, rand_isometry, rand_q

from exact_oracles import oracle_two_point_normalizer

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
        exact = make_hypercycle(F(-1), F(3), UHPPoint(1, 3))
        inexact = make_hypercycle(F(-1), F(3), UHPPoint(1.0, 3.0, exact=False))
        assert not inexact.exact and inexact.kind is CurveKind.HYPERCYCLE
        assert inexact.circle.coeffs() == pytest.approx(
            model.GeneralizedCircle(*exact.circle.coeffs(), exact=False).coeffs()
        )
        with pytest.raises(DegenerateResultError):
            make_hypercycle(F(-1), F(1), UHPPoint(0.0, 1.0, exact=False))
        with pytest.raises(DegenerateResultError):
            make_hypercycle(F(2), INFINITY, UHPPoint(2.0, 1.0, exact=False))

    def test_inexact_horocycle(self):
        h = make_horocycle(F(1), 0.5)
        assert not h.exact and h.center == F(1) and h.size == pytest.approx(0.5)
        assert make_horocycle(INFINITY, 2.0).size == pytest.approx(2.0)

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
        m = Isometry(2, 1, 1, 1)
        w = m.apply_point(UHPPoint(0.5, 1.5, exact=False))
        v = m.apply_point(UHPPoint(Q(1, 2), Q(3, 2)))
        assert not w.exact and v.exact and w == v

    def test_inexact_point_image_under_huge_entries(self):
        # a*d - b*c taken in floats cancels to 0 for entries near 2^300
        m = Isometry(2**300 + 1, 1, 2**300, 1)
        w = m.apply_point(UHPPoint(0.25, 2.0, exact=False))
        assert w.y > 0

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
        monkeypatch.setattr(Isometry, "apply_boundary", lambda self, p: INFINITY)
        with pytest.raises(HyperkError):
            triple_normalizer((F(0), F(1), INFINITY), (F(-1), F(0), F(1)))


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
    x0 = model._base_boundary_point(curve)
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
        # inexact horocycles touch at an inexact point
        (model.Curve(model.GeneralizedCircle(1.0, 0.0, -1.0, 0.0, exact=False)),
         model.Curve(model.GeneralizedCircle(0.0, 0.0, 1.0, -1.0, exact=False)),
         "tangency point must be exact"),
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


def test_equal_inexact_objects_hash_equal():
    # equality within EPS is not transitive, so no hash finer than one per
    # type agrees with it; the parent hashed inexact circles on round(v, 6)
    pairs = [(UHPPoint(0.1 + 0.2, 1), UHPPoint(0.3, 1)),
             (UHPPoint(Q(3, 10), 1), UHPPoint(0.1 + 0.2, 1))]
    rng = random.Random(20240)
    straddles = 0
    for _ in range(2000):
        x, y = rng.uniform(-5, 5), rng.uniform(0.1, 5)
        dx, dy = (rng.uniform(-1.5, 1.5) * model.EPS for _ in "xy")
        pairs.append((UHPPoint(x, y, exact=False), UHPPoint(x + dx, y + dy, exact=False)))
        # an exact point against an inexact one within EPS
        pairs.append((UHPPoint(Q(x), Q(y)), UHPPoint(x + dx, y + dy, exact=False)))
        # hypercycles: b^2 - 4ad >= 0.02 with the centre above the axis
        k = [rng.uniform(0.1, 1), rng.uniform(-1, 1), -1.0, rng.uniform(-1, -0.05)]
        c1 = curve_from_coeffs(*k, exact=False)
        c2 = curve_from_coeffs(*(v + rng.uniform(-1, 1) * model.EPS for v in k), exact=False)
        pairs += [(c1, c2), (c1.circle, c2.circle)]
        if c1 == c2:
            u, v = c1.circle.coeffs(), c2.circle.coeffs()
            straddles += any(round(s, 6) != round(t, 6) for s, t in zip(u, v))
    assert pairs[0][0] == pairs[0][1] and pairs[1][0] == pairs[1][1]
    equal = [(a, b) for a, b in pairs if a == b]
    assert len(equal) > 1000 and straddles > 0, (len(equal), straddles)
    for a, b in equal:
        assert hash(a) == hash(b), (a, b)
    # an exact point equals inexact ones, so points share one hash and only
    # equality tells exact points apart; exact curves keep distinct hashes
    assert UHPPoint(Q(3, 10), 1) != UHPPoint(Q(1, 3), 1)
    assert hash(make_geodesic(F(0), F(1))) != hash(make_geodesic(F(0), F(3)))


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
        # float(2^1100) overflows: the image is the exact image of the
        # circle's binary value, brought into the float range once
        t = Isometry.translation(2**1100)
        for k in ((0.0, 0.0, 1.0, -2.5), (0.0, 0.0, 0.3, -0.7)):  # horocycles at oo
            circle = model.GeneralizedCircle(*k, exact=False)
            exact = t.apply_circle(model.GeneralizedCircle(*map(Fraction, circle.coeffs())))
            got = t.apply_circle(circle)
            assert not got.exact
            rounded = model.GeneralizedCircle(*model._int_floats(exact.coeffs()), exact=False)
            assert got.coeffs() == rounded.coeffs()
            assert model.Curve(got).kind is CurveKind.HOROCYCLE and got == circle

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
    """The point action on Fractions (floats for an inexact point)."""
    a, b, c, d = iso.matrix()
    det = a * d - b * c
    x, y = z.x, z.y
    if iso.reversing:
        x = -x
    if not z.exact:
        a, b, c, d, det = (float(v) for v in (a, b, c, d, det))
    den = (c * x + d) ** 2 + c * c * y * y
    nx = (a * c * (x * x + y * y) + (a * d + b * c) * x + b * d) / den
    return UHPPoint(nx, det * y / den, exact=z.exact)


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
    exact = isinstance(size, (int, Fraction))
    size = Q(size) if exact else float(size)
    if center.is_infinity:
        return curve_from_coeffs(0, 0, 1, -size, exact=exact)
    p = center.value
    return curve_from_coeffs(1, -2 * p, -2 * size, p * p, exact=exact)


def _oracle_make_hypercycle(p, q, through):
    """The carrier from Fraction (or float) arithmetic."""
    exact = through.exact
    tol = 0 if exact else model.EPS
    x0, y0 = through.x, through.y
    if p.is_infinity or q.is_infinity:
        e = (q if p.is_infinity else p).value
        if abs(x0 - e) <= tol:
            raise DegenerateResultError("through-point lies on the vertical geodesic")
        circle = model.GeneralizedCircle(0, y0, -(x0 - e), -e * y0, exact=exact)
    else:
        b, d = -(p.value + q.value), p.value * q.value
        c = -(x0 * x0 + y0 * y0 + b * x0 + d) / y0
        if abs(c) <= tol:
            raise DegenerateResultError("through-point lies on the spanning geodesic")
        circle = model.GeneralizedCircle(1, b, c, d, exact=exact)
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


def _exact_image_floats(iso, z):
    """The exact image of the inexact point z's value, rounded to floats."""
    w = iso.apply_point(UHPPoint(Fraction(z.x), Fraction(z.y)))
    return float(w.x), float(w.y)


def test_inexact_point_action_is_bit_identical():
    # where the entries' floats overflow the oracle, the image is the exact
    # image of the float's value, rounded
    rng = random.Random(6112)
    done = rounded = 0
    unbalanced = [Isometry.translation(2**k) for k in (700, 800)] * 20
    for iso in _isometry_corpus(rng, 1000) + unbalanced:
        z = UHPPoint(rng.uniform(-9, 9), rng.uniform(1e-3, 9), exact=False)
        got = iso.apply_point(z)
        assert not got.exact
        try:
            want = _oracle_apply_point(iso, z)
        except OverflowError:
            wx, wy = _exact_image_floats(iso, z)
            assert math.isclose(got.x, wx, rel_tol=1e-12), (iso, z)
            assert math.isclose(got.y, wy, rel_tol=1e-12), (iso, z)
            rounded += 1
            continue
        assert (got.x.hex(), got.y.hex()) == (want.x.hex(), want.y.hex()), (iso, z)
        done += 1
    assert done >= 780 and rounded >= 200


def test_inexact_point_image_past_the_float_range():
    z = UHPPoint(0.5, 1.7, exact=False)
    w = Isometry.translation(2**800).apply_point(z)
    assert (w.x, w.y) == (0.5 + 2.0**800, 1.7)
    # x past the largest float; y below the smallest one
    n = 3**700
    for iso in (Isometry.translation(2**1100), Isometry(n + 1, 1, n, 1)):
        with pytest.raises(InvalidInputError, match="outside the float range"):
            iso.apply_point(z)


def _oracle_apply_circle_floats(iso, circle):
    """The inexact circle action on the entries' floats."""
    a, b, c, d = circle.coeffs()
    if iso.reversing:
        b = -b
    m00, m01, m10, m11 = (float(v) for v in iso.matrix())
    p, q, r, s = m11, -m01, -m10, m00
    na = a * p * p + b * p * r + d * r * r
    nb = 2 * a * p * q + b * (p * s + q * r) + 2 * d * r * s
    nc = c * (p * s - q * r)
    nd = a * q * q + b * q * s + d * s * s
    return model.GeneralizedCircle(na, nb, nc, nd, exact=False)


def _rand_inexact_circle(rng):
    return model.GeneralizedCircle(*map(float, rand_curve(rng).circle.coeffs()), exact=False)


def test_inexact_circle_action_is_bit_identical():
    rng = random.Random(6119)
    done = 0
    for iso in _isometry_corpus(rng, 800):
        if max(abs(v.numerator) for v in iso.matrix()).bit_length() > 500:
            continue
        circle = _rand_inexact_circle(rng)
        got = _outcome(iso.apply_circle, circle)
        want = _outcome(_oracle_apply_circle_floats, iso, circle)
        if isinstance(want, tuple):  # a float image that collapses to a point
            assert got == want
            continue
        assert [v.hex() for v in got.coeffs()] == [v.hex() for v in want.coeffs()], (iso, circle)
        done += 1
    assert done >= 400
    # lines moved by 2^700 or 2^800 keep the oracle's outcome: the same
    # horocycle at oo, and a line too far out to normalize; a circle's image
    # has coefficients 2^1400 apart
    lines = [model.GeneralizedCircle(0.0, b, c, d, exact=False)
             for b, c, d in ((0.0, 1.0, -2.0), (0.6, 0.8, 0.3))]
    for k in (700, 800):
        iso = Isometry.translation(2**k)
        got, want = (_outcome(f, iso, lines[0]) for f in (Isometry.apply_circle,
                                                           _oracle_apply_circle_floats))
        assert got.coeffs() == want.coeffs() == lines[0].coeffs()
        got, want = (_outcome(f, iso, lines[1]) for f in (Isometry.apply_circle,
                                                           _oracle_apply_circle_floats))
        assert got == want == (DegenerateResultError, "degenerate circle: a = b = c ~ 0")
        with pytest.raises(InvalidInputError, match="span more than the float range"):
            iso.apply_circle(_rand_inexact_circle(rng))


def test_inexact_circle_action_past_the_float_range():
    # products of 2^700 entries overflow to a NaN circle in the oracle; the
    # image is the normalized exact image of the circle's value
    rng = random.Random(6120)
    for _ in range(300):
        iso = _rand_big_isometry(rng, 700)
        circle = _rand_inexact_circle(rng)
        assert all(map(math.isnan, _oracle_apply_circle_floats(iso, circle).coeffs()))
        got = iso.apply_circle(circle).coeffs()
        exact = iso.apply_circle(model.GeneralizedCircle(*map(Fraction, circle.coeffs())))
        norm = math.sqrt(sum(float(Fraction(v, max(map(abs, exact.coeffs())))) ** 2
                             for v in exact.coeffs()))
        want = [float(Fraction(v, max(map(abs, exact.coeffs())))) / norm for v in exact.coeffs()]
        assert all(abs(g - w) <= 1e-12 for g, w in zip(got, want)), (iso, circle)


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
        through = UHPPoint(rng.uniform(-9, 9), rng.uniform(0.01, 9), exact=False)
        got = _outcome(make_hypercycle, p, q, through)
        assert got == _outcome(_oracle_make_hypercycle, p, q, through)
        made += isinstance(got, model.Curve)
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
