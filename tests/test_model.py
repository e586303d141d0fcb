import math

import pytest

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
    parse_curve_text,
    rational_points,
    triple_normalizer,
    two_point_normalizer,
)
from hyperk.errors import DegenerateResultError, HyperkError, InvalidInputError

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

    def test_equidistant_pair_symmetric(self):
        g = make_geodesic(F(0), INFINITY)
        lo, hi = equidistant_pair(g, 1.0)
        for c in (lo, hi):
            assert c.kind is CurveKind.HYPERCYCLE
            for p in rational_points(c, 20):
                assert distance_to_geodesic(p, g) == pytest.approx(1.0, abs=1e-9)
