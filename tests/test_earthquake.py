import pytest

from hyperk import (
    INFINITY,
    BoundaryPoint,
    EarthquakeMap,
    Q,
    Satisfiable,
    UHPPoint,
    Unsatisfiable,
    eq_apply,
    eq_geodesic_image,
    figure_one_configuration,
    figure_one_images,
    instance_from_horocycles,
    intersection_pattern,
    make_geodesic,
    make_horocycle,
    pointwise_image_is_curve,
    tangency_realizability,
)
from hyperk import earthquake
from hyperk.model import Isometry
from hyperk.verify import run_suite

F = BoundaryPoint.finite


@pytest.fixture
def quake():
    return EarthquakeMap(make_geodesic(F(0), INFINITY), 2, "left")


class TestEarthquakeMap:
    def test_identity_side_fixed(self, quake):
        assert eq_apply(quake, F(1)) == F(1)
        assert eq_apply(quake, F(7)) == F(7)

    def test_moved_side_scaled(self, quake):
        assert eq_apply(quake, F(-1)) == F(-2)
        assert eq_apply(quake, F(-3)) == F(-6)

    def test_fault_endpoints_fixed(self, quake):
        assert eq_apply(quake, F(0)) == F(0)
        assert eq_apply(quake, INFINITY) == INFINITY

    def test_interior_point(self, quake):
        z = eq_apply(quake, UHPPoint(-1, 1))
        assert (z.x, z.y) == (-2, 2)
        z = eq_apply(quake, UHPPoint(1, 1))
        assert (z.x, z.y) == (1, 1)

    def test_boundary_map_monotone_circle_order(self, quake):
        vals = [F(-5), F(-1), F(0), F(2), INFINITY]
        imgs = [eq_apply(quake, v) for v in vals]
        finite = [v.value for v in imgs if not v.is_infinity]
        assert finite == sorted(finite)

    def test_geodesic_image(self, quake):
        g = make_geodesic(F(-1), F(1))
        img = eq_geodesic_image(quake, g)
        assert set(img.endpoints) == {F(-2), F(1)}


class TestCocircularity:
    def test_isometry_image_is_curve(self):
        iso = Isometry(2, 1, 1, 1)
        h = make_horocycle(F(0), 1)
        assert pointwise_image_is_curve(iso, h, 12).is_curve

    def test_crossing_horocycle_image_not_curve(self, quake):
        h = make_horocycle(F(0), 1)  # crosses the fault x = 0
        pat = intersection_pattern(h, quake.fault)
        assert pat.interior_count >= 1 or pat.tangent

    def test_straddling_horocycle_breaks(self):
        e = EarthquakeMap(make_geodesic(F(0), INFINITY), 3, "left")
        h = make_horocycle(F(-1), 2)  # crosses x = 0
        if intersection_pattern(h, e.fault).interior_count == 2:
            res = pointwise_image_is_curve(e, h, 12)
            assert not res.is_curve
            assert res.witness is not None  # four non-cocircular points

    def test_unmoved_horocycle_stays_curve(self, quake):
        h = make_horocycle(F(5), 1)  # entirely on the identity side
        assert pointwise_image_is_curve(quake, h, 12).is_curve


class TestRealizability:
    def test_identity_instance_satisfiable(self):
        hs = figure_one_configuration()
        res = tangency_realizability(
            instance_from_horocycles(hs, [h.center for h in hs])
        )
        assert isinstance(res, Satisfiable)
        assert list(res.radii) == [Q(1), Q(1), Q(1, 4), Q(2)]
        assert res.exact

    def test_relabeled_instance_unsatisfiable_with_message(self):
        hs = figure_one_configuration()
        res = tangency_realizability(
            instance_from_horocycles(hs, figure_one_images())
        )
        assert isinstance(res, Unsatisfiable)
        assert res.message == "1 ≠ 4·(3/2)·(2/3)"
        assert len(res.cycle) >= 3  # the contradicting constraint cycle

    def test_certificate_constraints_reference_pairs(self):
        hs = figure_one_configuration()
        res = tangency_realizability(
            instance_from_horocycles(hs, figure_one_images())
        )
        for con in res.cycle:
            assert 0 <= con.i < 4 and 0 <= con.j < 4


def _oracle_cocircular_exact(points):
    """The replaced rank test: elimination over Q."""
    pivots = []
    for pt in points:
        x, y = Q(pt.x), Q(pt.y)
        row = [x * x + y * y, x, y, Q(1)]
        for prow, _src in pivots:
            lead = next(i for i, v in enumerate(prow) if v != 0)
            if row[lead] != 0:
                f = row[lead] / prow[lead]
                row = [r - f * p for r, p in zip(row, prow)]
        if any(v != 0 for v in row):
            pivots.append((row, pt))
            if len(pivots) == 4:
                return earthquake.PointwiseImageResult(
                    False, tuple(src for _row, src in pivots)
                )
    return earthquake.PointwiseImageResult(True)


def test_cocircular_rank_test_matches_oracle(monkeypatch):
    # every point list the earthquake suite tests, plus lines, repeats,
    # float coordinates and a late outlier
    lists = []
    original = earthquake._cocircular_exact

    def spy(points):
        lists.append(list(points))
        return original(points)

    monkeypatch.setattr(earthquake, "_cocircular_exact", spy)
    run_suite("earthquake", seed=5)
    monkeypatch.undo()
    line = [UHPPoint(Q(k, 3), Q(2 * k + 1, 5)) for k in range(1, 9)]
    circle = [UHPPoint(Q(3 * (1 - t * t), 1 + t * t), Q(6 * t, 1 + t * t))
              for t in (Q(1, 7), Q(1, 2), 1, 2, 3, Q(9, 2))]
    lists += [
        line,
        line + [UHPPoint(1, 1)],
        circle,
        circle[:3] + circle[:3] + [UHPPoint(0, Q(1, 2))] + circle[3:],
        [UHPPoint(0.5, 0.25, exact=False), UHPPoint(1.5, 2.0, exact=False),
         UHPPoint(-3.0, 0.125, exact=False), UHPPoint(7.0, 1.0, exact=False)],
        circle[:2],
    ]
    results = set()
    for pts in lists:
        got, want = earthquake._cocircular_exact(pts), _oracle_cocircular_exact(pts)
        assert got == want, pts
        results.add(got.is_curve)
    assert len(lists) > 200 and results == {True, False}
