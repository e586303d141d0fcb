import collections
import hashlib
import itertools
import math
import operator
import random
import sys
from fractions import Fraction

import pytest

from hyperk import (
    INFINITY,
    BoundaryPoint,
    EarthquakeMap,
    PairRequirement,
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
    make_hypercycle,
    pinch_pair,
    pointwise_image_is_curve,
    tangency_realizability,
)
from hyperk import earthquake
from hyperk._rational import q_str
from hyperk.earthquake import Constraint
from hyperk.errors import HyperkError, InvalidInputError
from hyperk.model import Curve, GeneralizedCircle, Isometry, rational_points, straddling_points
from hyperk.verify import rand_curve, rand_geodesic, rand_isometry, rand_q, run_suite

from exact_oracles import oracle_two_point_normalizer, sqrt_exact

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


def test_a_map_is_called_as_eq_apply_and_prints_its_data():
    e = EarthquakeMap(make_geodesic(F(0), INFINITY), 2)
    assert e(F(-1)) == eq_apply(e, F(-1)) == F(-2)
    assert repr(e) == (
        "EarthquakeMap(fault=Curve[geodesic](Circle(a=0, b=1, c=0, d=0)), shear=2, "
        "moved_side='left')"
    )


class TestCocircularity:
    def test_isometry_image_is_curve(self):
        iso = Isometry(2, 1, 1, 1)
        h = make_horocycle(F(0), 1)
        assert pointwise_image_is_curve(iso, h).is_curve
        assert pointwise_image_is_curve(iso, h)  # the result is truthy as is_curve

    def test_crossing_horocycle_image_not_curve(self, quake):
        h = make_horocycle(F(0), 1)  # crosses the fault x = 0
        pat = intersection_pattern(h, quake.fault)
        assert pat.interior_count >= 1 or pat.tangent

    def test_straddling_horocycle_breaks(self):
        e = EarthquakeMap(make_geodesic(F(0), INFINITY), 3, "left")
        h = make_horocycle(F(-1), 2)  # crosses x = 0
        if intersection_pattern(h, e.fault).interior_count == 2:
            res = pointwise_image_is_curve(e, h)
            assert not res.is_curve and not res
            assert res.witness is not None  # four non-cocircular points

    def test_unmoved_horocycle_stays_curve(self, quake):
        h = make_horocycle(F(5), 1)  # entirely on the identity side
        assert pointwise_image_is_curve(quake, h).is_curve

    def test_horizontal_horocycle_across_vertical_fault_breaks(self):
        # every sample falls on the unmoved side x < 3; the straddling pair
        # near the one crossing (3, 17/8) puts a point on the moved side
        e = EarthquakeMap(make_geodesic(F(3), INFINITY), Q(613, 160), "right")
        h = make_horocycle(INFINITY, Q(17, 8))
        res = pointwise_image_is_curve(e, h)
        assert not res.is_curve and res.witness is not None

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("through", [
        (Q(-1, 2), 1), (Q(-1, 100), Q(1, 10)), (Q(-1, 10**6), Q(1, 1000)),
    ])
    def test_narrow_hypercycle_crossing_breaks(self, side, through):
        # the hypercycle over (0, 3) dips left of the fault x = 0 near its
        # endpoint 0, so its crossing chord from the base point is steep
        e = EarthquakeMap(make_geodesic(F(0), INFINITY), 3, side)
        c = make_hypercycle(F(0), F(3), UHPPoint(*through))
        assert intersection_pattern(c, e.fault).interior_count == 1
        assert not pointwise_image_is_curve(e, c).is_curve

    def test_every_transversal_crossing_breaks(self):
        rng = random.Random(12345)
        crossings = 0
        for _ in range(600):
            e = EarthquakeMap(
                rand_geodesic(rng), abs(rand_q(rng, 1, 4)) + Q(9, 8),
                rng.choice(["left", "right"]),
            )
            c = rand_curve(rng)
            pat = intersection_pattern(c, e.fault)
            if pat.interior_count == 0 or pat.tangent or pat.equal:
                continue
            crossings += 1
            pairs = straddling_points(c, e.fault.circle, pat.interior_points)
            assert len(pairs) == pat.interior_count, (c, e)
            for pos, neg in pairs:
                assert pos.exact and neg.exact
                assert e.fault.circle.evaluate(pos.x, pos.y) > 0
                assert e.fault.circle.evaluate(neg.x, neg.y) < 0
                assert c.circle.evaluate(pos.x, pos.y) == 0
                assert c.circle.evaluate(neg.x, neg.y) == 0
            assert not pointwise_image_is_curve(e, c).is_curve, (c, e)
        assert crossings > 200


def _oracle_sign(circle, x, y):
    """The replaced exact sign test: the sign of the Fraction evaluation."""
    v = circle.evaluate(x, y)
    return 0 if v == 0 else (1 if v > 0 else -1)


def _oracle_side_sign(e, z):
    """The side test on Fractions: the sign of the fault equation at z, at
    the exact binary value of an inexact point."""
    if isinstance(z, BoundaryPoint):
        v = e.fault.circle.evaluate_boundary(z)
        return 0 if v == 0 else (1 if v > 0 else -1)
    return _oracle_sign(e.fault.circle, Fraction(z.x), Fraction(z.y))


def _rand_fault(rng):
    """A fault with small, 2^600+ or infinite endpoints."""
    bits = rng.choice((3, 40, 620))
    while True:
        p, q = (
            INFINITY if rng.random() < 0.2
            else F(Fraction(rng.randint(-(1 << bits), 1 << bits), rng.randint(1, 1 << bits)))
            for _ in range(2)
        )
        if p != q:
            return make_geodesic(p, q)


def test_side_sign_matches_fraction_oracle():
    rng = random.Random(6117)
    signs = collections.Counter()
    for _ in range(400):
        e = EarthquakeMap(_rand_fault(rng), abs(rand_q(rng, 1, 4)) + Q(9, 8),
                          rng.choice(["left", "right"]))
        bits = rng.choice((3, 40, 640))
        points = [
            UHPPoint(Fraction(rng.randint(-(1 << bits), 1 << bits), rng.randint(1, 1 << bits)),
                     Fraction(rng.randint(1, 1 << bits), rng.randint(1, 1 << bits)))
            for _ in range(3)
        ]
        points += rational_points(e.fault, 2)  # on the fault
        points.append(UHPPoint(rng.uniform(-9, 9), rng.uniform(0.1, 9)))
        points += [INFINITY, *e.fault.endpoints, F(rand_q(rng))]
        for z in points:
            want = _oracle_side_sign(e, z)
            assert e.side_sign(z) == want, (e, z)
            signs[want] += 1
    assert sum(signs.values()) >= 2000 and set(signs) == {-1, 0, 1}
    # a fault past the float range once raised OverflowError for an inexact point
    e = EarthquakeMap(make_geodesic(F(Fraction(3**700 + 1, 3**700)), F(-1)), 2)
    z = UHPPoint(0.5, 2.0)
    assert e.side_sign(z) == _oracle_side_sign(e, z) == e.side_sign(UHPPoint(Q(1, 2), 2))
    inside = UHPPoint(0.25, 0.5)
    assert e.moves(z) and not e.moves(inside) and eq_apply(e, inside) is inside


def test_straddling_points_match_fraction_sign_test(monkeypatch):
    # the same pairs, and the same rank-test witnesses, with the sign test
    # taken from the Fraction evaluation
    rng = random.Random(6118)
    cases = []
    while len(cases) < 120:
        e = EarthquakeMap(_rand_fault(rng), abs(rand_q(rng, 1, 4)) + Q(9, 8),
                          rng.choice(["left", "right"]))
        c = rand_curve(rng) if rng.random() < 0.6 else _rand_big_curve(rng)
        pat = intersection_pattern(c, e.fault)
        if pat.interior_count and not pat.tangent and not pat.equal:
            cases.append((e, c, pat.interior_points))

    def run():
        return [(straddling_points(c, e.fault.circle, near), pointwise_image_is_curve(e, c))
                for e, c, near in cases]

    got = run()
    monkeypatch.setattr(GeneralizedCircle, "sign_at", _oracle_sign)
    assert got == run()
    assert sum(len(pairs) for pairs, _ in got) >= 120


def _rand_big_curve(rng):
    """A curve whose data has numerators and denominators past 2^600."""
    def big(positive=False):
        return Fraction(rng.randint(1 if positive else -(1 << 620), 1 << 620),
                        rng.randint(1, 1 << 620))

    while True:
        p, q = F(big()), F(big())
        if p == q:
            continue
        k = rng.randrange(3)
        if k == 0:
            return make_geodesic(p, q)
        if k == 1:
            return make_horocycle(rng.choice((p, INFINITY)), big(positive=True))
        lo, hi = sorted((p.value, q.value))
        return make_hypercycle(p, q, UHPPoint((lo + hi) / 2, big(positive=True)))


class TestRealizability:
    def test_identity_instance_satisfiable(self):
        hs = figure_one_configuration()
        res = tangency_realizability(
            instance_from_horocycles(hs, [h.center for h in hs])
        )
        assert isinstance(res, Satisfiable)
        assert list(res.radii) == [Q(1), Q(1), Q(1, 4), Q(2)]
        assert res.exact
        # the tangency cycle -1, 1, 0 pins every radius
        assert res.to_record()["provenance"] == [
            {"source": "forced", "bits": b} for b in (1, 1, 3, 2)]
        assert "provenance" not in Satisfiable(res.radii, True).to_record()

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

    def test_pattern_entry_that_is_no_requirement_is_refused(self):
        # a string entry used to be read as no requirement at all: centers
        # 0 and 1 got radii (1, 1), and (0 - 1)^2 < 4 * 1 * 1 crosses
        centers = [F(0), F(1)]
        with pytest.raises(InvalidInputError, match="pattern entry 'tangent'"):
            earthquake.RealizabilityInstance(
                centers, centers, [[None, "tangent"], ["tangent", None]])


def test_satisfiable_answers_build_no_certificate_text(monkeypatch):
    # the certificate lines of the tangencies are formatted only for an
    # unsatisfiable answer: a satisfiable one repr()s no center
    hs = figure_one_configuration()
    cases = [instance_from_horocycles(hs, [h.center for h in hs])]
    rng = random.Random(3030)
    for chain in _tangency_chains(rng, 30):
        g = rand_isometry(rng)
        inst = instance_from_horocycles(chain, [g.apply_boundary(h.center) for h in chain])
        if any(PairRequirement.TANGENT in row for row in inst.required_pattern):
            cases.append(inst)

    def refuse(*args):
        raise AssertionError("certificate text formatted for a satisfiable answer")

    with monkeypatch.context() as m:
        m.setattr(BoundaryPoint, "__repr__", refuse)
        m.setattr(earthquake, "_text", refuse)
        answers = [tangency_realizability(inst) for inst in cases]
    assert len(cases) >= 20 and all(isinstance(a, Satisfiable) for a in answers)
    res = tangency_realizability(instance_from_horocycles(hs, figure_one_images()))
    assert isinstance(res, Unsatisfiable) and "4·(3/2)·(2/3)" in res.message


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
        [UHPPoint(0.5, 0.25), UHPPoint(1.5, 2.0),
         UHPPoint(-3.0, 0.125), UHPPoint(7.0, 1.0)],
        circle[:2],
    ]
    results = set()
    for pts in lists:
        got, want = earthquake._cocircular_exact(pts), _oracle_cocircular_exact(pts)
        assert got == want, pts
        results.add(got.is_curve)
    assert len(lists) > 200 and results == {True, False}


# ---------------------------------------------------------------------------
# the replaced realizability solver, with separate product and ratio forms


class _OracleRadiusSystem:
    def __init__(self, n):
        self.parent = list(range(n))
        self.exp = [1] * n
        self.coef = [Q(1)] * n
        self.edge = [None] * n
        self.pin = {}
        self.conflict = None

    def find(self, i):
        e, c = 1, Q(1)
        while self.parent[i] != i:
            e2, c2 = self.exp[i], self.coef[i]
            c = c * (c2 if e == 1 else 1 / c2)
            e = e * e2
            i = self.parent[i]
        return i, e, c

    def _path(self, i):
        out = []
        while self.parent[i] != i:
            out.append(self.edge[i])
            i = self.parent[i]
        return out

    def _cycle(self, i, j, closing):
        seen = []
        for c in self._path(i) + self._path(j) + [closing]:
            if c is not None and c not in seen:
                seen.append(c)
        return tuple(seen)

    def value(self, i):
        r, e, c = self.find(i)
        if r not in self.pin:
            return None
        t = sqrt_exact(self.pin[r])
        if t is None:
            return None
        return c * t if e == 1 else c / t

    def _pin_root(self, r, v, con, i, j):
        if not v > 0:
            self.conflict = Unsatisfiable(
                f"forced rho^2 = {q_str(v)} <= 0", self._cycle(i, j, con)
            )
            return False
        old = self.pin.get(r)
        if old is not None and old != v:
            self.conflict = Unsatisfiable(
                f"rho^2 forced to both {q_str(old)} and {q_str(v)}",
                self._cycle(i, j, con),
            )
            return False
        self.pin[r] = v
        return True

    def _conflict_equal(self, lhs, prod_or_ratio, i, j, con):
        ri, rj = self.value(i), self.value(j)
        if prod_or_ratio == "product" and ri is not None and rj is not None:
            msg = f"{q_str(4 * lhs)} ≠ 4·{_oracle_fmt(ri)}·{_oracle_fmt(rj)}"
        elif prod_or_ratio == "ratio" and ri is not None and rj is not None:
            msg = f"{_oracle_fmt(ri)} ≠ {q_str(lhs)}·{_oracle_fmt(rj)}"
        else:
            msg = f"inconsistent tangency constraint between radii {i} and {j}"
        self.conflict = Unsatisfiable(msg, self._cycle(i, j, con))

    def add_product(self, i, j, k, con):
        r1, e1, c1 = self.find(i)
        r2, e2, c2 = self.find(j)
        if r1 == r2:
            if e1 + e2 == 0:
                if c1 * c2 != k:
                    self._conflict_equal(k, "product", i, j, con)
                    return False
                return True
            v = k / (c1 * c2)
            return self._pin_root(r1, v if e1 == 1 else 1 / v, con, i, j)
        q = k / (c1 * c2)
        self.parent[r2] = r1
        self.exp[r2] = -e1 * e2
        self.coef[r2] = q if e2 == 1 else 1 / q
        self.edge[r2] = con
        pin2 = self.pin.pop(r2, None)
        if pin2 is not None:
            v = pin2 / (self.coef[r2] ** 2)
            return self._pin_root(r1, v if self.exp[r2] == 1 else 1 / v, con, i, j)
        return True

    def add_ratio(self, i, j, k, con):
        r1, e1, c1 = self.find(i)
        r2, e2, c2 = self.find(j)
        if r1 == r2:
            if e1 == e2:
                if c1 != k * c2:
                    self._conflict_equal(k, "ratio", i, j, con)
                    return False
                return True
            v = k * c2 / c1
            return self._pin_root(r1, v if e1 == 1 else 1 / v, con, i, j)
        q = c1 / (k * c2)
        self.parent[r2] = r1
        self.exp[r2] = e1 * e2
        self.coef[r2] = q if e2 == 1 else 1 / q
        self.edge[r2] = con
        pin2 = self.pin.pop(r2, None)
        if pin2 is not None:
            v = pin2 / (self.coef[r2] ** 2)
            return self._pin_root(r1, v if self.exp[r2] == 1 else 1 / v, con, i, j)
        return True


def _oracle_pair_gap(p, q):
    if p.is_infinity or q.is_infinity:
        return ("ratio", Q(2))
    d = p.value - q.value
    return ("product", d * d / 4)


def _oracle_tangency_realizability(inst):
    centers = inst.relabeled_centers
    n = len(centers)
    sys = _OracleRadiusSystem(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if inst.required_pattern[i][j] is not None]

    def tangency_order(pair):
        i, j = pair
        has_inf = centers[i].is_infinity or centers[j].is_infinity
        return (0 if has_inf else 1, i, j)

    tangents = sorted(
        (p for p in pairs if inst.required_pattern[p[0]][p[1]] is PairRequirement.TANGENT),
        key=tangency_order,
    )
    for i, j in tangents:
        kind, k = _oracle_pair_gap(centers[i], centers[j])
        if kind == "ratio":
            a, b = (i, j) if centers[i].is_infinity else (j, i)
            con = Constraint(
                PairRequirement.TANGENT, a, b,
                f"rho({centers[a]!r}) = 2 rho({centers[b]!r})",
            )
            ok = sys.add_ratio(a, b, k, con)
        else:
            con = Constraint(
                PairRequirement.TANGENT, i, j,
                f"({centers[i]!r} - {centers[j]!r})^2 = {q_str(4 * k)} = "
                f"4 rho({centers[i]!r}) rho({centers[j]!r})",
            )
            ok = sys.add_product(i, j, k, con)
        if not ok:
            return sys.conflict

    ineqs = [p for p in pairs
             if inst.required_pattern[p[0]][p[1]] is not PairRequirement.TANGENT]

    def expr_square(i, j, mode, vals):
        r1, e1, c1 = sys.find(i)
        r2, e2, c2 = sys.find(j)
        if mode == "ratio":
            e2, c2 = -e2, 1 / c2
        sq = (c1 * c2) ** 2
        for r, e in ((r1, e1), (r2, e2)):
            v = vals[r]
            sq = sq * v if e == 1 else sq / v
        return sq

    free_roots = sorted({sys.find(i)[0] for i in range(n)} - set(sys.pin.keys()))

    def check_all(vals):
        violations = []
        for i, j in ineqs:
            req = inst.required_pattern[i][j]
            kind, k = _oracle_pair_gap(centers[i], centers[j])
            if kind == "ratio":
                a, b = (i, j) if centers[i].is_infinity else (j, i)
                if centers[a] == centers[b]:
                    raise InvalidInputError("two radii at the same center")
                lhs_sq = expr_square(a, b, "ratio", vals)
                ok = (lhs_sq > k * k) if req is PairRequirement.DISJOINT else (lhs_sq < k * k)
                if not ok:
                    violations.append((i, j))
                continue
            if centers[i] == centers[j]:
                if req is not PairRequirement.DISJOINT:
                    violations.append((i, j))
                continue
            lhs_sq = expr_square(i, j, "product", vals)
            ok = (lhs_sq < k * k) if req is PairRequirement.DISJOINT else (lhs_sq > k * k)
            if not ok:
                violations.append((i, j))
        return violations

    def radii_for(vals):
        out, exact = [], True
        for i in range(n):
            r, e, c = sys.find(i)
            t = sqrt_exact(vals[r])
            if t is not None:
                out.append(c * t if e == 1 else c / t)
            else:
                tf = math.sqrt(float(vals[r]))
                out.append(float(c) * tf if e == 1 else float(c) / tf)
                exact = False
        return Satisfiable(tuple(out), exact)

    base_vals = dict(sys.pin)
    for r in free_roots:
        base_vals[r] = Q(1)
    if not check_all(base_vals):
        return radii_for(base_vals)
    if free_roots:
        sol = _oracle_search_free_values(sys, inst, centers, ineqs, free_roots, dict(sys.pin))
        if sol is not None and not check_all(sol):
            return radii_for(sol)

    i, j = check_all(base_vals)[0]
    req = inst.required_pattern[i][j]
    ri, rj = sys.value(i), sys.value(j)
    kind, k = _oracle_pair_gap(centers[i], centers[j])
    if kind == "product" and ri is not None and rj is not None:
        rel = ">" if req is PairRequirement.DISJOINT else "<"
        msg = (
            f"need ({centers[i]!r} - {centers[j]!r})^2 = {q_str(4 * k)} "
            f"{rel} 4·{_oracle_fmt(ri)}·{_oracle_fmt(rj)}"
        )
    else:
        msg = f"required {req.value} pair ({i}, {j}) is violated on the solution manifold"
    return Unsatisfiable(msg, sys._cycle(i, j, Constraint(req, i, j, msg)))


def _oracle_search_free_values(sys, inst, centers, ineqs, free_roots, pinned):
    from scipy.optimize import linprog

    idx = {r: k for k, r in enumerate(free_roots)}
    nv = len(free_roots)
    a_ub, b_ub = [], []

    def add(coeffs, const, sense):
        cst = const
        for r, c in coeffs.items():
            if r not in idx:
                cst += c * math.log(float(pinned[r]))
        sgn = 1.0 if sense == "<" else -1.0
        row = [0.0] * (nv + 1)
        for r, c in coeffs.items():
            if r in idx:
                row[idx[r]] = sgn * c
        row[nv] = 1.0
        a_ub.append(row)
        b_ub.append(-sgn * cst)

    for i, j in ineqs:
        req = inst.required_pattern[i][j]
        kind, k = _oracle_pair_gap(centers[i], centers[j])
        if kind == "ratio":
            a, b = (i, j) if centers[i].is_infinity else (j, i)
            r1, e1, c1 = sys.find(a)
            r2, e2, c2 = sys.find(b)
            e2, c2 = -e2, 1 / c2
            sense = ">" if req is PairRequirement.DISJOINT else "<"
        else:
            if centers[i] == centers[j]:
                continue
            r1, e1, c1 = sys.find(i)
            r2, e2, c2 = sys.find(j)
            sense = "<" if req is PairRequirement.DISJOINT else ">"
        coeffs = {}
        for r, e in ((r1, e1), (r2, e2)):
            coeffs[r] = coeffs.get(r, 0.0) + float(e)
        add(coeffs, 2.0 * math.log(float(c1 * c2)) - math.log(float(k * k)), sense)

    res = linprog([0.0] * nv + [-1.0], A_ub=a_ub, b_ub=b_ub,
                  bounds=[(-60.0, 60.0)] * nv + [(0.0, 10.0)], method="highs")
    if not res.success or res.x[nv] <= 1e-9:
        return None
    vals = dict(pinned)
    for r in free_roots:
        t = Fraction(math.exp(res.x[idx[r]] / 2.0)).limit_denominator(10**6)
        if t <= 0:
            t = Fraction(1)
        vals[r] = Q(t.numerator, t.denominator) ** 2
    return vals


def _realizes(inst, res):
    """The answer's radii are exact, and horocycles with them at the
    relabeled centers have the required pattern; pairs at one center are
    skipped."""
    if not res.exact or not all(r > 0 for r in res.radii):
        return False
    centers = inst.relabeled_centers
    hs = [make_horocycle(c, r) for c, r in zip(centers, res.radii)]
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            want = inst.required_pattern[i][j]
            if want is None or centers[i] == centers[j]:
                continue
            pat = intersection_pattern(hs[i], hs[j])
            got = (PairRequirement.TANGENT if pat.tangent else
                   PairRequirement.DISJOINT if pat.interior_count == 0 else
                   PairRequirement.CROSSING)
            if got is not want:
                return False
    return True


def _tangency_chains(rng, count):
    """Horocycle configurations in which most horocycles are tangent to an
    earlier one; every third starts with a horocycle at oo."""
    for index in range(count):
        n = 4 + index % 3
        centers = [INFINITY] if index % 3 == 0 else []
        while len(centers) < n:
            c = F(rand_q(rng, -4, 4, 4))
            if c not in centers:
                centers.append(c)
        sizes = []
        for i, c in enumerate(centers):
            if i and rng.random() < 0.7:
                j = rng.randrange(i)
                if centers[j].is_infinity:
                    sizes.append(sizes[j] / 2)
                else:
                    sizes.append((c.value - centers[j].value) ** 2 / (4 * sizes[j]))
            else:
                sizes.append(abs(rand_q(rng, 1, 3, 4)) + 1)
        yield [make_horocycle(c, s) for c, s in zip(centers, sizes)]


def test_realizability_matches_oracle_on_relabelled_chains():
    rng = random.Random(20241)
    tally = collections.Counter()
    for hs in _tangency_chains(rng, 48):
        centers = [h.center for h in hs]
        g = rand_isometry(rng)
        swapped = list(centers)
        i, j = rng.sample(range(len(centers)), 2)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        shuffled = list(centers)
        rng.shuffle(shuffled)
        for mode, images in (("isometry", [g.apply_boundary(c) for c in centers]),
                             ("transposition", swapped), ("shuffle", shuffled)):
            inst = instance_from_horocycles(hs, images)
            got, want = tangency_realizability(inst), _oracle_tangency_realizability(inst)
            sat = isinstance(got, Satisfiable)
            tally[mode, sat] += 1
            if sat:
                assert _realizes(inst, got), (mode, images, got)
            if mode == "isometry":
                assert sat, (images, got)
            if isinstance(want, Satisfiable):
                assert sat and _realizes(inst, want), (images, got)
            elif not sat:
                # the cycles differ: this oracle lists union-find paths, which
                # can miss a link (test_tangency_certificates_alone_are_unsatisfiable)
                assert got.message == want.message, images
            else:
                tally["mended"] += 1
    # both answers occur for relabellings that are not isometries, and the
    # oracle's spurious unsatisfiable answers occur
    assert tally["transposition", True] and tally["transposition", False]
    assert tally["shuffle", True] and tally["shuffle", False]
    assert tally["mended"] >= 1, tally


def test_lp_far_from_one_keeps_exact_radii():
    # the LP pushes the free radius of the chain to the edge of its box,
    # where rounding exp(-30) to a fraction of denominator 10^6 gave 0
    specs = [("75/64", "35/512"), ("5/3", "1805/2016"), ("20/13", "280/61009"),
             ("7/5", "18/125"), ("15/11", "45125/27104")]
    hs = [make_horocycle(F(Q(c)), Q(r)) for c, r in specs]
    inst = instance_from_horocycles(hs, [h.center for h in hs])
    assert isinstance(_oracle_tangency_realizability(inst), Unsatisfiable)
    res = tangency_realizability(inst)
    assert isinstance(res, Satisfiable) and res.exact
    assert _realizes(inst, res)


def test_two_relabelled_centers_at_infinity():
    # 0 and 7 both go to oo: one pair at one center, disjoint for any radii
    hs = [make_horocycle(F(0), 1), make_horocycle(F(2), 1), make_horocycle(F(7), 1)]
    inst = instance_from_horocycles(hs, [INFINITY, F(5), INFINITY])
    T, D = PairRequirement.TANGENT, PairRequirement.DISJOINT
    assert inst.required_pattern[0][1:] == [T, D] and inst.required_pattern[1][2] is D
    res = tangency_realizability(inst)
    assert isinstance(res, Satisfiable) and _realizes(inst, res)
    rho = res.radii
    assert rho[0] == 2 * rho[1] and rho[2] > 2 * rho[1]
    with pytest.raises(InvalidInputError, match="same center"):
        _oracle_tangency_realizability(inst)
    # two finite centers at one point get the same rule
    inst = instance_from_horocycles(hs, [F(3), F(5), F(3)])
    res = tangency_realizability(inst)
    assert isinstance(res, Satisfiable) and _realizes(inst, res)


def _oracle_lp_values(ineqs, free_roots, pinned):
    """The replaced free-radius step: rho_r^2 at the HiGHS LP point that
    maximizes the least margin in x_r = ln(rho_r^2), as exact binary
    fractions in reduced int pairs, or None when the LP finds no positive
    margin."""
    from scipy.optimize import linprog

    def log(p):
        return math.log(p[0]) - math.log(p[1])

    idx = {r: c for c, r in enumerate(free_roots)}
    nv = len(free_roots)
    a_ub, b_ub = [], []
    for _i, _j, sgn, exps, bound in ineqs:
        cst = -log(bound)
        row = [0.0] * (nv + 1)
        for r, e in exps.items():
            if r in idx:
                row[idx[r]] = sgn * e
            else:
                cst += e * log(pinned[r])
        row[nv] = 1.0
        a_ub.append(row)
        b_ub.append(-sgn * cst)
    res = linprog([0.0] * nv + [-1.0], A_ub=a_ub, b_ub=b_ub,
                  bounds=[(-60.0, 60.0)] * nv + [(0.0, 10.0)], method="highs")
    if not res.success or res.x[nv] <= 1e-9:
        return None
    vals = dict(pinned)
    for r in free_roots:
        n, d = Fraction(math.exp(res.x[idx[r]] / 2.0)).as_integer_ratio()
        vals[r] = (n * n, d * d)
    return vals


def _random_patterns(rng, count):
    """Instances with random requirements at distinct relabelled centers,
    one of them oo in every other instance; tangencies close cycles (which
    pin roots) as often as trees (which leave them free)."""
    T, D, C = PairRequirement.TANGENT, PairRequirement.DISJOINT, PairRequirement.CROSSING
    for index in range(count):
        n = 3 + index % 4
        centers = [INFINITY] if index % 2 else []
        while len(centers) < n:
            c = F(rand_q(rng, -4, 4, 3))
            if c not in centers:
                centers.append(c)
        pattern = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.85:
                    pattern[i][j] = pattern[j][i] = rng.choice((T, D, D, C))
        yield earthquake.RealizabilityInstance(centers, centers, pattern)


def _realizability_instances():
    rng = random.Random(8080)
    for hs in _tangency_chains(rng, 100):
        centers = [h.center for h in hs]
        swapped = list(centers)
        i, j = rng.sample(range(len(centers)), 2)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        shuffled = list(centers)
        rng.shuffle(shuffled)
        g = rand_isometry(rng)
        for images in ([g.apply_boundary(c) for c in centers], swapped, shuffled):
            yield instance_from_horocycles(hs, images)
    yield from _random_patterns(rng, 300)


def _exact_squares(vals, free_roots):
    return all(vals[r][0] > 0 and earthquake._sqrt(vals[r]) is not None for r in free_roots)


def test_free_values_match_lp_oracle(monkeypatch):
    # the cycle test against the LP it replaced, on every free-radius step
    # of 600 instances, whose chosen rho_r^2 are short binary fractions
    calls, tally = [], collections.Counter()
    solve = earthquake._free_values

    def both(ineqs, free_roots, pinned):
        got = solve(ineqs, free_roots, pinned)
        calls.append((ineqs, free_roots, pinned, got))
        return got

    monkeypatch.setattr(earthquake, "_free_values", both)
    answers = []
    for inst in _realizability_instances():
        got = tangency_realizability(inst)
        answers.append((inst, got))
        if isinstance(got, Satisfiable):
            assert _realizes(inst, got), (inst, got)
    assert len(answers) >= 500
    chosen = [got[r] for _i, free_roots, _p, got in calls if got for r in free_roots]
    assert len(chosen) >= 300 and all(
        d & (d - 1) == 0 and n.bit_length() <= 64 and d.bit_length() <= 64 for n, d in chosen)
    for ineqs, free_roots, pinned, got in calls:
        want = _oracle_lp_values(ineqs, free_roots, pinned)
        lp_ok = want is not None and not earthquake._violations(ineqs, want)
        tally[len(free_roots), bool(pinned), got is not None, lp_ok] += 1
        if lp_ok:
            assert got is not None, (ineqs, free_roots, pinned)
        if got is not None:
            assert not earthquake._violations(ineqs, got)
            assert _exact_squares(got, free_roots)
    # 1-3 free roots, with and without pinned ones, both answers
    for free in (1, 2, 3):
        assert any(k[0] == free and k[2] for k in tally), tally
        assert any(k[0] == free and not k[2] for k in tally), tally
    assert any(k[1] for k in tally), tally

    # the whole answer with the LP point, kept only if it passes the exact
    # check, in place of the cycle test: identical where both are
    # unsatisfiable, and the cycle test is never worse
    def lp_checked(ineqs, free_roots, pinned):
        want = _oracle_lp_values(ineqs, free_roots, pinned)
        return None if want is None or earthquake._violations(ineqs, want) else want

    monkeypatch.setattr(earthquake, "_free_values", lp_checked)
    for inst, got in answers:
        want = tangency_realizability(inst)
        if isinstance(got, Unsatisfiable):
            assert isinstance(want, Unsatisfiable), (inst, want)
            assert got.to_record() == want.to_record()


@pytest.mark.parametrize("reverse", [True, False])
@pytest.mark.parametrize("gap", [(0, 1), (-1, 2**70), (1, 2**70), (3, 2**80),
                                 (1, 2**600), (-1, 2**600)])
def test_cycle_product_decides_below_float_resolution(gap, reverse):
    # rho_0^2 / rho_1^2 < 3 and rho_1^2 / rho_0^2 < (1 + gap) / 3, with a
    # pinned root folded into the second bound: the cycle's product is 1 + gap
    # (the second inequality's coefficient 2/3 is folded into its bound
    # 3 (1 + gap) / 4 = ((1 + gap) / 3) / (2/3)^2); the free roots in either
    # order put the cycle's arcs on either node first
    pinned = {2: (9, 4)}
    n, d = gap
    ineqs = [(0, 1, 1, {0: 1, 1: -1}, (3, 1)),
             (1, 0, 1, {1: 1, 0: -1, 2: 1}, earthquake._ratio(3 * (d + n), 4 * d))]
    got = earthquake._free_values(ineqs, [1, 0] if reverse else [0, 1], pinned)
    if n <= 0:
        assert got is None
    else:
        assert got is not None and not earthquake._violations(ineqs, got)
        assert _exact_squares(got, [0, 1]) and got[2] == (9, 4)


def test_squared_and_single_radius_bounds():
    # rho_0^4 < 2 (exponent 2) with rho_0^2 > 1: feasible; rho_0^4 < 1 with
    # rho_0^2 > 1 is not; a constant inequality at 1 is not either
    lower = (0, 0, -1, {0: 1}, (1, 1))
    got = earthquake._free_values([(0, 0, 1, {0: 2}, (2, 1)), lower], [0], {})
    assert got is not None
    n, d = got[0]
    assert d < n and n * n < 2 * d * d
    assert earthquake._free_values([(0, 0, 1, {0: 2}, (1, 1)), lower], [0], {}) is None
    assert earthquake._free_values([(0, 1, 1, {0: 0}, (1, 1))], [0], {}) is None


def test_potentials_that_break_a_bound_are_refused(monkeypatch):
    # the last check of _free_values: potentials of 1 at every node give
    # rho_0^2 = 1, which breaks rho_0^2 > 1
    lower = (0, 0, -1, {0: 1}, (1, 1))
    monkeypatch.setattr(earthquake, "_potentials", lambda bounds, m: [(1, 1, 0)] * m)
    with pytest.raises(HyperkError, match="^exact potentials failed the exact check$"):
        earthquake._free_values([(0, 0, 1, {0: 2}, (2, 1)), lower], [0], {})


def test_chain_radii_stay_moderate():
    # the LP put this chain's free radius at the edge of its box
    specs = [("75/64", "35/512"), ("5/3", "1805/2016"), ("20/13", "280/61009"),
             ("7/5", "18/125"), ("15/11", "45125/27104")]
    hs = [make_horocycle(F(Q(c)), Q(r)) for c, r in specs]
    res = tangency_realizability(instance_from_horocycles(hs, [h.center for h in hs]))
    assert isinstance(res, Satisfiable) and res.exact
    for r in res.radii:
        assert 1e-6 <= r <= 1e6
        assert r.numerator.bit_length() <= 64 and r.denominator.bit_length() <= 64
    # the chain is a tree, so its one root is free and the solver chose it
    assert res.to_record()["provenance"] == [
        {"source": "chosen", "bits": max(r.numerator.bit_length(), r.denominator.bit_length())}
        for r in res.radii]


@pytest.mark.parametrize("count", [2, 4])
@pytest.mark.parametrize("center", [F(3), INFINITY])
def test_horocycles_at_one_center_get_distinct_radii(center, count):
    hs = [make_horocycle(F(5 * k), 1) for k in range(count)]
    inst = instance_from_horocycles(hs, [center] * count)
    res = tangency_realizability(inst)
    assert isinstance(res, Satisfiable) and _realizes(inst, res)
    assert len(set(res.radii)) == count


@pytest.mark.parametrize("images", [(F(3), F(3), F(0)), (INFINITY, INFINITY, F(0)),
                                    (F(3), F(3), INFINITY)])
def test_tangencies_forcing_equal_radii_at_one_center(images):
    # both side horocycles touch the middle one, and both go to one center
    hs = [make_horocycle(F(-2), 1), make_horocycle(F(2), 1), make_horocycle(F(0), 1)]
    res = tangency_realizability(instance_from_horocycles(hs, list(images)))
    assert isinstance(res, Unsatisfiable)
    assert res.message == (f"horocycles 0 and 1 share the center {images[0]!r}, "
                           "but the tangencies force equal radii")
    assert res.cycle[-1].kind is PairRequirement.DISJOINT
    # one tangency fewer leaves the two radii free to differ
    hs[1] = make_horocycle(F(5), 1)
    inst = instance_from_horocycles(hs, list(images))
    res = tangency_realizability(inst)
    assert isinstance(res, Satisfiable) and _realizes(inst, res)
    assert res.radii[0] != res.radii[1]


def test_same_center_pairs_in_random_patterns():
    # two relabelled centers coincide: radii at one center differ, and an
    # unsatisfiable answer names them only when they are forced equal
    rng = random.Random(4242)
    tally = collections.Counter()
    for inst in _random_patterns(rng, 200):
        n = len(inst.centers)
        i, j = rng.sample(range(n), 2)
        centers = list(inst.relabeled_centers)
        centers[j] = centers[i]
        pattern = [row[:] for row in inst.required_pattern]
        pattern[i][j] = pattern[j][i] = PairRequirement.DISJOINT
        for a in range(n):
            for b in range(n):
                if a != b and centers[a] == centers[b] and pattern[a][b] is not None:
                    pattern[a][b] = PairRequirement.DISJOINT
        inst = earthquake.RealizabilityInstance(centers, centers, pattern)
        res = tangency_realizability(inst)
        forced = isinstance(res, Unsatisfiable) and "force equal radii" in res.message
        tally[type(res).__name__, forced] += 1
        if isinstance(res, Satisfiable):
            assert _realizes(inst, res) and res.radii[i] != res.radii[j]
        elif forced:
            pattern[i][j] = pattern[j][i] = None
            free = tangency_realizability(earthquake.RealizabilityInstance(centers, centers, pattern))
            assert isinstance(free, Satisfiable) and free.radii[i] == free.radii[j]
    assert tally["Satisfiable", False] and tally["Unsatisfiable", True], tally


# ---------------------------------------------------------------------------
# the realizability solver on Fractions, which the int-pair solver replaced:
# the same steps, with every rational a Fraction and inequality tuples
# (i, j, sgn, coef, exps, k^2) that hold iff sgn * (coef^2 prod - k^2) < 0


def _oracle_fmt(v):
    s = q_str(Q(v))
    return f"({s})" if "/" in s or s.startswith("-") else s


def _oracle_monomial(centers, i, j):
    p, q = centers[i], centers[j]
    if p.is_infinity:
        return i, j, -1, Q(2)
    if q.is_infinity:
        return j, i, -1, Q(2)
    d = p.value - q.value
    return i, j, 1, d * d / 4


class _OracleFractionSystem(earthquake._RadiusSystem):
    """The union-find on Fractions; the certificate walk over the tangency
    forest, which does no arithmetic, is the solver's own."""

    def __init__(self, centers):
        super().__init__(centers)
        self.coef = [Q(1)] * len(centers)

    def _constraint(self, t):
        u, v, s, k = t
        centers = self.centers
        if s == 1:
            text = (f"({centers[u]!r} - {centers[v]!r})^2 = {q_str(4 * k)} = "
                    f"4 rho({centers[u]!r}) rho({centers[v]!r})")
        else:
            text = f"rho({centers[u]!r}) = {q_str(k)} rho({centers[v]!r})"
        return Constraint(PairRequirement.TANGENT, u, v, text)

    def find(self, i):
        e, c = 1, Q(1)
        while self.parent[i] != i:
            e2, c2 = self.exp[i], self.coef[i]
            c = c * (c2 if e == 1 else 1 / c2)
            e = e * e2
            i = self.parent[i]
        return i, e, c

    def value(self, i):
        r, e, c = self.find(i)
        if r not in self.pin:
            return None
        t = sqrt_exact(self.pin[r])
        if t is None:
            return None
        return c * t if e == 1 else c / t

    def _pin_root(self, r, v, why):
        old = self.pin.get(r)
        if old is not None and old != v:
            was = self.pinned_by[r]
            self.conflict = Unsatisfiable(
                f"rho^2 forced to both {q_str(old)} and {q_str(v)}",
                self._cycle([was[:2], why[:2], (was[0], why[0])], [was, why]),
            )
            return False
        self.pin[r], self.pinned_by[r] = v, why
        return True

    def add(self, i, j, s, k):
        r1, e1, c1 = self.find(i)
        r2, e2, c2 = self.find(j)
        t = (i, j, s, k)
        q = k / (c1 * c2 ** s)
        if r1 == r2:
            if e1 + s * e2 == 0:
                return True if q == 1 else self._conflict(t)
            return self._pin_root(r1, q ** e1, t)
        self.parent[r2] = r1
        self.exp[r2] = -e1 * s * e2
        self.coef[r2] = q ** (s * e2)
        self.forest[i].append((j, t))
        self.forest[j].append((i, t))
        pin2 = self.pin.pop(r2, None)
        if pin2 is not None:
            v = pin2 / (self.coef[r2] ** 2)
            return self._pin_root(r1, v ** self.exp[r2], self.pinned_by.pop(r2))
        return True

    def _conflict(self, t):
        i, j, s, k = t
        ri, rj = self.value(i), self.value(j)
        if s == 1 and ri is not None and rj is not None:
            msg = f"{q_str(4 * k)} ≠ 4·{_oracle_fmt(ri)}·{_oracle_fmt(rj)}"
        else:
            msg = f"inconsistent tangency constraint between radii {i} and {j}"
        self.conflict = Unsatisfiable(msg, self._cycle([(i, j)], [t]))
        return False


def _oracle_fraction_realizability(inst):
    centers = inst.relabeled_centers
    pattern = inst.required_pattern
    n = len(centers)
    sys = _OracleFractionSystem(centers)
    forms = {
        (i, j): _oracle_monomial(centers, i, j)
        for i in range(n) for j in range(i + 1, n)
        if pattern[i][j] is not None and centers[i] != centers[j]
    }
    tangents = sorted(
        (p for p in forms if pattern[p[0]][p[1]] is PairRequirement.TANGENT),
        key=lambda p: (forms[p][2], p),
    )
    for pair in tangents:
        if not sys.add(*forms[pair]):
            return sys.conflict

    ineqs = []
    for (i, j), (u, v, s, k) in forms.items():
        req = pattern[i][j]
        if req is PairRequirement.TANGENT:
            continue
        r1, e1, c1 = sys.find(u)
        r2, e2, c2 = sys.find(v)
        exps = {r1: e1}
        exps[r2] = exps.get(r2, 0) + s * e2
        sgn = s if req is PairRequirement.DISJOINT else -s
        ineqs.append((i, j, sgn, c1 * c2 ** s, exps, k * k))

    def radii_for(vals):
        out, exact, forced = [], True, []
        for i in range(n):
            r, e, c = sys.find(i)
            forced.append(r in sys.pin)
            t = sqrt_exact(vals[r])
            if t is not None:
                out.append(c * t if e == 1 else c / t)
            else:
                tf = math.sqrt(float(vals[r]))
                out.append(float(c) * tf if e == 1 else float(c) / tf)
                exact = False
        return Satisfiable(tuple(out), exact, tuple(forced))

    free_roots = sorted({sys.find(i)[0] for i in range(n)} - set(sys.pin))
    vals = dict(sys.pin)
    for r in free_roots:
        vals[r] = Q(1)
    vio = _oracle_violations(ineqs, vals)
    if vio:
        vals = _oracle_free_values(ineqs, free_roots, sys.pin)
    if vals is None:
        i, j = vio[0]
        req = pattern[i][j]
        ri, rj = sys.value(i), sys.value(j)
        _u, _v, s, k = forms[(i, j)]
        if s == 1 and ri is not None and rj is not None:
            rel = ">" if req is PairRequirement.DISJOINT else "<"
            msg = (f"need ({centers[i]!r} - {centers[j]!r})^2 = {q_str(4 * k)} "
                   f"{rel} 4·{_oracle_fmt(ri)}·{_oracle_fmt(rj)}")
        else:
            msg = f"required {req.value} pair ({i}, {j}) is violated on the solution manifold"
        return Unsatisfiable(msg, sys.support(i, j, Constraint(req, i, j, msg)))

    for i in range(n):
        for j in range(i + 1, n):
            if pattern[i][j] is None or centers[i] != centers[j]:
                continue
            r1, e1, c1 = sys.find(i)
            r2, e2, c2 = sys.find(j)
            exps = {r1: e1}
            exps[r2] = exps.get(r2, 0) - e2
            sides = [(i, j, sgn, c1 / c2, exps, Q(1)) for sgn in (1, -1)]
            side = next((c for c in sides if not _oracle_violations([c], vals)), None)
            if side is None:
                for c in sides:
                    found = _oracle_free_values(ineqs + [c], free_roots, sys.pin)
                    if found is not None:
                        vals, side = found, c
                        break
                else:
                    msg = (f"horocycles {i} and {j} share the center {centers[i]!r}, "
                           f"but the tangencies force equal radii")
                    closing = Constraint(PairRequirement.DISJOINT, i, j, msg)
                    return Unsatisfiable(msg, sys.support(i, j, closing))
            ineqs.append(side)
    return radii_for(vals)


def _oracle_violations(ineqs, vals):
    out = []
    for i, j, sgn, coef, exps, k2 in ineqs:
        sq = coef * coef
        for r, e in exps.items():
            sq *= vals[r] ** e
        if not sgn * (sq - k2) < 0:
            out.append((i, j))
    return out


def _oracle_free_values(ineqs, free_roots, pinned):
    """The replaced cycle test on Fractions: a float Floyd-Warshall on the
    logs proposes a cycle or potentials, and a `Fraction` Floyd-Warshall
    decides when the floats do not settle it."""
    node = {r: 2 * k for k, r in enumerate(free_roots)}
    bounds = {}
    for _i, _j, sgn, coef, exps, k2 in ineqs:
        b = k2 / (coef * coef)
        terms = []
        for r, e in exps.items():
            if r not in node:
                b /= pinned[r] ** e
            elif e:
                terms.append((node[r], sgn * e))
        if sgn < 0:
            b = 1 / b
        if not terms:
            if b <= 1:
                return None
            continue
        (u, a), *rest = terms
        if rest:
            (q, c), = rest
            arcs = ((q + (c > 0), u + (a < 0)), (u + (a > 0), q + (c < 0)))
        else:
            arcs = ((u + (a > 0), u + (a < 0)),)
            if abs(a) == 1:
                b = b * b
        for arc in arcs:
            if arc not in bounds or b < bounds[arc]:
                bounds[arc] = b

    m = 2 * len(free_roots)
    vals = dict(pinned)
    if not m:
        return vals
    logs = [[math.inf] * m for _ in range(m)]
    for (u, v), b in bounds.items():
        logs[u][v] = math.log(b.numerator) - math.log(b.denominator)
    d, hop = _oracle_closure(logs, operator.add)
    least, v = min((d[v][v], v) for v in range(m))
    if least <= _ORACLE_CYCLE_TOL:
        cycle = _oracle_walk_cycle(hop, v)
        arcs = list(zip(cycle, cycle[1:] + cycle[:1]))
        if all(a in bounds for a in arcs) and math.prod(bounds[a] for a in arcs) <= 1:
            return None
    else:
        eps = min(1.0, least / (2 * m))
        d, _hop = _oracle_closure([[w - eps for w in row] for row in logs], operator.add)
        y = [min(0.0, *(row[v] for row in d)) for v in range(m)]
        bits = min(53, math.ceil(math.log2(8 / eps)))
        for k, r in enumerate(free_roots):
            log2_rho = (y[2 * k] - y[2 * k + 1]) / (4 * math.log(2))
            e = math.floor(log2_rho)
            rho = Q(round(2.0 ** (log2_rho - e + bits))) * Q(2) ** (e - bits)
            vals[r] = rho * rho
        if not _oracle_violations(ineqs, vals):
            return vals

    exact = [[bounds.get((u, v), math.inf) for v in range(m)] for u in range(m)]
    # stopping at the first closed walk of product <= 1 gives the same least
    # <= 1; the full closure squares 2,400-bit bounds past it
    d, _hop = _oracle_closure(exact, operator.mul, stop=1)
    least = min(d[v][v] for v in range(m))
    if least <= 1:
        return None
    mu = Q(2) if least == math.inf else 1 + (least - 1) / (m * least)
    d, _hop = _oracle_closure([[w / mu for w in row] for row in exact], operator.mul)
    y = [min(Q(1), *(row[v] for row in d)) for v in range(m)]
    for k, r in enumerate(free_roots):
        t = y[2 * k] / y[2 * k + 1]
        q = t * (mu - 1) ** 4
        b = max(0, -((q.numerator.bit_length() - q.denominator.bit_length() - 17) // 4))
        p = math.isqrt(math.isqrt((t.numerator << 4 * b) // t.denominator))
        vals[r] = Q(p, 1 << b) ** 2
    assert not _oracle_violations(ineqs, vals)
    return vals


#: a float cycle weight up to this is checked exactly as a proof candidate
_ORACLE_CYCLE_TOL = 1e-9


def _oracle_closure(w, join, stop=None):
    """Floyd-Warshall on the arc matrix w (math.inf where there is no arc):
    the least `join` of the arcs along a walk of at least one arc between
    any two nodes, and the first hop of such a walk; with `stop`, it returns
    after the first pivot that closes a walk of weight at most `stop`."""
    m = len(w)
    d = [row[:] for row in w]
    hop = [list(range(m)) for _ in range(m)]
    for k in range(m):
        dk = d[k]
        for u in range(m):
            duk = d[u][k]
            if duk == math.inf:
                continue
            du, hu, first = d[u], hop[u], hop[u][k]
            for v in range(m):
                if dk[v] != math.inf:
                    c = join(duk, dk[v])
                    if c < du[v]:
                        du[v], hu[v] = c, first
        if stop is not None and any(d[v][v] <= stop for v in range(m)):
            break
    return d, hop


def _oracle_walk_cycle(hop, v):
    """The nodes of the first cycle met by following first hops toward v."""
    walk = [v]
    u = hop[v][v]
    while u not in walk:
        walk.append(u)
        u = hop[u][v]
    return walk[walk.index(u):]


def _rand_center(rng, bits):
    """oo, a small rational, or one whose numerator and denominator have
    `bits` bits."""
    k = rng.random()
    if k < 0.15:
        return INFINITY
    if k < 0.4:
        return F(Fraction(rng.randrange(-(1 << bits), 1 << bits), rng.randrange(1, 1 << bits)))
    return F(rand_q(rng, -4, 4, 4))


def _differential_instances(rng, count):
    """Tangency chains relabelled by an isometry, a transposition or a
    shuffle, and random patterns; centers are oo, small or (in about 30% of
    the instances) 600-bit, and half the instances send two horocycles to
    one center."""
    T, D, C = PairRequirement.TANGENT, PairRequirement.DISJOINT, PairRequirement.CROSSING
    for index in range(count):
        n = 3 + index % 4
        bits = 600 if rng.random() < 0.3 else 8
        centers = []
        while len(centers) < n:
            c = _rand_center(rng, bits)
            if c not in centers:
                centers.append(c)
        if index % 2:
            pattern = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.85:
                        pattern[i][j] = pattern[j][i] = rng.choice((T, D, D, C))
            images = list(centers)
        else:
            # every horocycle after the first at oo is tangent to an earlier one
            centers.sort(key=lambda c: not c.is_infinity)
            sizes = []
            for i, c in enumerate(centers):
                j = rng.randrange(i) if i and rng.random() < 0.7 else None
                if j is None:
                    sizes.append(abs(rand_q(rng, 1, 3, 4)) + 1)
                elif centers[j].is_infinity:
                    sizes.append(sizes[j] / 2)
                else:
                    sizes.append((c.value - centers[j].value) ** 2 / (4 * sizes[j]))
            hs = [make_horocycle(c, s) for c, s in zip(centers, sizes)]
            images = list(centers)
            if index % 6 == 0:
                g = rand_isometry(rng)
                images = [g.apply_boundary(c) for c in centers]
            elif index % 6 == 2:
                i, j = rng.sample(range(n), 2)
                images[i], images[j] = images[j], images[i]
            else:
                rng.shuffle(images)
            pattern = instance_from_horocycles(hs, images).required_pattern
        if index % 4 < 2:
            i, j = rng.sample(range(n), 2)
            images[j] = images[i]
            for a in range(n):
                for b in range(n):
                    if a != b and images[a] == images[b] and pattern[a][b] is not None:
                        pattern[a][b] = D
        yield earthquake.RealizabilityInstance(centers, images, pattern)


def _reversed(inst):
    """inst with its horocycles listed in the opposite order."""
    return earthquake.RealizabilityInstance(
        inst.centers[::-1], inst.relabeled_centers[::-1],
        [row[::-1] for row in inst.required_pattern[::-1]])


@pytest.mark.parametrize("reverse", [True, False])
def test_int_pair_solver_matches_fraction_oracle(monkeypatch, reverse):
    # the same answers as the Fraction solver on 2,000 instances, listed in
    # both orders: identical records where unsatisfiable, and where
    # satisfiable radii (chosen by other cycle tests, so they may differ)
    # that realize the pattern
    solve, tally = earthquake._free_values, collections.Counter()

    def checked(ineqs, free_roots, pinned):
        tally["free roots"] += bool(free_roots)
        got = solve(ineqs, free_roots, pinned)
        if got is not None:
            assert not earthquake._violations(ineqs, got) and _exact_squares(got, free_roots)
        return got

    monkeypatch.setattr(earthquake, "_free_values", checked)
    for inst in _differential_instances(random.Random(1212), 2000):
        if reverse:
            inst = _reversed(inst)
        got, want = tangency_realizability(inst), _oracle_fraction_realizability(inst)
        assert type(got) is type(want), inst
        centers = inst.relabeled_centers
        if isinstance(got, Satisfiable):
            assert _realizes(inst, got), (inst, got)
            assert all(got.radii[i] != got.radii[j]
                       for i, j in itertools.combinations(range(len(centers)), 2)
                       if centers[i] == centers[j] and inst.required_pattern[i][j] is not None)
        else:
            assert got.to_record() == want.to_record(), inst
        tally[type(got).__name__, got.to_record().get("exact")] += 1
        tally["oo"] += INFINITY in centers
        tally["600-bit"] += any(c.value is not None and c.value.denominator >> 500
                                for c in centers)
        tally["same center"] += len(set(centers)) < len(centers)
    # pins are squares (odd tangency cycles multiply squares k, and paths
    # through oo pass two factors 2), so every radius is rational
    assert tally["Satisfiable", True] >= 500 and tally["Unsatisfiable", None] >= 500, tally
    assert min(tally[k] for k in ("oo", "600-bit", "same center", "free roots")) >= 100, tally


def _relabelled_chains(rng, count):
    """Each of `count` tangency chains relabelled by an isometry, by a
    transposition and by a shuffle of its centers."""
    for hs in _tangency_chains(rng, count):
        centers = [h.center for h in hs]
        g = rand_isometry(rng)
        swapped = list(centers)
        i, j = rng.sample(range(len(centers)), 2)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        shuffled = list(centers)
        rng.shuffle(shuffled)
        for images in ([g.apply_boundary(c) for c in centers], swapped, shuffled):
            yield instance_from_horocycles(hs, images)


#: sha256 of every answer record below, satisfiable radii and certificate
#: texts included
SOLVER_PIN = "9f8df9b53187d86d14422f83c3513c0224fac7e48196d2d6cabdea1df88d5e4c"


def test_solver_answers_are_pinned():
    digest = hashlib.sha256()
    tally = collections.Counter()
    instances = list(_differential_instances(random.Random(1212), 400))
    instances += [_reversed(inst) for inst in instances]
    instances += _relabelled_chains(random.Random(20241), 48)
    for inst in instances:
        rec = tangency_realizability(inst).to_record()
        digest.update(repr(rec).encode())
        tally[rec["result"]] += 1
    assert tally["satisfiable"] >= 500 and tally["unsatisfiable"] >= 300, tally
    assert digest.hexdigest() == SOLVER_PIN


def test_cycle_below_one_stops_before_the_potentials_grow(monkeypatch):
    # instance 219 of the differential set: the first cycle test meets a
    # cycle of product below 1 among bounds of about 7,168 bits.  Going
    # round it, the potentials gain that much per lap (40,703 bits and
    # 56 ms once the walk up the parent pointers is taken out)
    inst = next(itertools.islice(_differential_instances(random.Random(1212), 220), 219, None))
    answers, bound_bits, potential_bits = [], [0], [0]
    solve = earthquake._free_values

    def spy(*args):
        answers.append(solve(*args))
        return answers[-1]

    def widest(pairs):
        return max((max(p[0].bit_length(), p[1].bit_length()) for p in pairs), default=0)

    def local(frame, event, arg):
        if event == "call":
            bound_bits[0] = max(bound_bits[0], widest(frame.f_locals["bounds"].values()))
        potential_bits[0] = max(potential_bits[0], widest(frame.f_locals.get("pot", ())))
        return local

    def trace(frame, event, arg):
        return local(frame, event, arg) if frame.f_code is earthquake._potentials.__code__ else None

    monkeypatch.setattr(earthquake, "_free_values", spy)
    old = sys.gettrace()
    sys.settrace(trace)
    try:
        res = tangency_realizability(inst)
    finally:
        sys.settrace(old)
    assert isinstance(res, Unsatisfiable) and answers == [None]
    assert bound_bits[0] >= 7000 and potential_bits[0] <= 2 * bound_bits[0], (
        bound_bits, potential_bits)


def _alone(inst, res):
    """inst restricted to the pairs res.cycle lists."""
    n = len(inst.centers)
    pattern = [[None] * n for _ in range(n)]
    for c in res.cycle:
        pattern[c.i][c.j] = pattern[c.j][c.i] = inst.required_pattern[c.i][c.j]
    return earthquake.RealizabilityInstance(inst.centers, inst.relabeled_centers, pattern)


def test_tangency_certificates_alone_are_unsatisfiable():
    # a conflict among tangencies lists every pair it rests on: the instance
    # restricted to the listed pairs is still unsatisfiable
    hs = [make_horocycle(F(-2), 1), make_horocycle(F(2), 1), make_horocycle(F(0), 1)]
    res = tangency_realizability(instance_from_horocycles(hs, [F(3), F(3), F(0)]))
    assert [(c.i, c.j) for c in res.cycle] == [(0, 2), (1, 2), (0, 1)]
    # two tangent triangles, each pinned by its own cycle, sent to the same
    # three centers: equal radii at one center rest on both pin cycles
    T, D = PairRequirement.TANGENT, PairRequirement.DISJOINT
    pattern = [[None] * 6 for _ in range(6)]
    for a in range(6):
        for b in range(6):
            if a != b:
                pattern[a][b] = T if a // 3 == b // 3 else D if a % 3 == b % 3 else None
    images = [F(-1), F(1), F(0)] * 2
    inst = earthquake.RealizabilityInstance(images, images, pattern)
    res = tangency_realizability(inst)
    assert "force equal" in res.message and len(res.cycle) == 7
    assert isinstance(tangency_realizability(_alone(inst, res)), Unsatisfiable)
    kinds = {"≠": "product", "inconsistent": "product", "forced to both": "pin",
             "force equal": "same center"}
    tally = collections.Counter()
    for inst in _differential_instances(random.Random(2024), 3000):
        res = tangency_realizability(inst)
        kind = isinstance(res, Unsatisfiable) and next(
            (k for key, k in kinds.items() if key in res.message), None)
        if kind:
            tally[kind] += 1
            assert isinstance(tangency_realizability(_alone(inst, res)), Unsatisfiable), (inst, res)
    assert tally["product"] >= 20 and tally["same center"] >= 20 and tally["pin"] >= 5, tally


def test_shift_does_not_depend_on_the_two_point_normalizer_scale(monkeypatch):
    rng = random.Random(6194)
    cases = [(_rand_fault(rng), rng.choice((Q(1, 3), Q(2), Q(7, 5), Q(2**600 + 1, 2**600))))
             for _ in range(300)]
    got = [EarthquakeMap(f, shear)._shift for f, shear in cases]
    monkeypatch.setattr(earthquake, "two_point_normalizer", oracle_two_point_normalizer)
    assert [EarthquakeMap(f, shear)._shift for f, shear in cases] == got
    assert sum(INFINITY in f.endpoints for f, _ in cases) >= 50


# -- refusals: each names what it refuses ------------------------------------

#: a horocycle of irrational centre, the one inexact curve
_INEXACT_FAULT = pinch_pair(make_horocycle(F(0), 1), make_horocycle(F(5), 2))[0]


@pytest.mark.parametrize("fault, shear, side, message", [
    (make_horocycle(F(0), 1), 2, "left", "earthquake fault must be a geodesic"),
    (Curve(GeneralizedCircle(1, 0, 0, -2)), 2, "left",  # ends at +-sqrt(2)
     "earthquake fault needs rational endpoints"),
    (_INEXACT_FAULT, 2, "left", "earthquake fault must be a geodesic"),
    (make_geodesic(F(0), INFINITY), 0, "left", "shear must be a positive rational"),
    (make_geodesic(F(0), INFINITY), Q(-1, 2), "left", "shear must be a positive rational"),
    (make_geodesic(F(0), INFINITY), 1, "left", "shear must differ from 1"),
    (make_geodesic(F(0), INFINITY), 2, "up", "moved_side must be 'left' or 'right'"),
])
def test_earthquake_map_refusals(fault, shear, side, message):
    with pytest.raises(InvalidInputError) as err:
        EarthquakeMap(fault, shear, side)
    assert str(err.value) == message


_T, _D = PairRequirement.TANGENT, PairRequirement.DISJOINT


@pytest.mark.parametrize("centers, images, pattern, message", [
    ([F(0), F(1)], [F(0)], [[None, _T], [_T, None]],
     "centers and relabeled centers differ in length"),
    ([F(0), F(1)], [F(0), F(1)], [[None, _T]], "pattern matrix must be n x n"),
    ([F(0), F(1)], [F(0), F(1)], [[None, _T], [_T]], "pattern matrix must be n x n"),
    ([F(0), F(1)], [F(0), F(1)], [[None, _T], [_D, None]], "pattern matrix must be symmetric"),
    ([F(0), F(1)], [F(0), F(0)], [[None, _T], [_T, None]],
     "tangent/crossing pairs need distinct relabeled centers"),
])
def test_realizability_instance_refusals(centers, images, pattern, message):
    with pytest.raises(InvalidInputError) as err:
        earthquake.RealizabilityInstance(centers, images, pattern)
    assert str(err.value) == message


def test_instance_from_horocycles_refusals():
    hs = figure_one_configuration()
    with pytest.raises(InvalidInputError) as err:
        instance_from_horocycles(hs[:3] + [make_geodesic(F(0), F(1))], figure_one_images())
    assert str(err.value) == "instance_from_horocycles expects horocycles"
    with pytest.raises(InvalidInputError) as err:
        instance_from_horocycles(hs, figure_one_images()[:3])
    assert str(err.value) == "one boundary image per horocycle is required"
