"""Acceptance criteria for the exact upper-half-plane kernel.

Each test prints one pass/fail line (run pytest with -s to see them) and
enforces the stated runtime bound.  All classification checks are exact;
floats appear only where a tolerance is stated.
"""

import math
import random
import time

import pytest

from hyperk.errors import NoSolutionError

from hyperk import (
    INFINITY,
    BoundaryPoint,
    Curve,
    CurveKind,
    EarthquakeMap,
    FoliatesComponent,
    GraphAutomorphism,
    HorocycleLimit,
    HypercycleOrGeodesicLimit,
    Q,
    Satisfiable,
    UHPPoint,
    Unsatisfiable,
    automorphisms,
    build_graph,
    classify_family_limit,
    curve_from_coeffs,
    disj_family,
    distance_to_geodesic,
    dyadic_family,
    equidistant_pair,
    figure_one_configuration,
    figure_one_images,
    fixed_endpoint_family,
    four_geodesic_config,
    horocycle_leq,
    hyp1_witness,
    hypercycle_pair_type,
    HypercyclePairType,
    instance_from_horocycles,
    intersection_pattern,
    isometry_matching,
    isometry_realizing,
    make_geodesic,
    make_horocycle,
    make_hypercycle,
    pointwise_image_is_curve,
    rational_points,
    ray_family,
    sigma_center_swap,
    tangency_realizability,
    witness_family_search,
)
from hyperk.constructions import opposite_sides_of_point
from hyperk.verify import (
    rand_boundary,
    rand_curve,
    rand_distinct_boundary,
    rand_geodesic,
    rand_horocycle,
    rand_hypercycle,
    rand_isometry,
    rand_q,
)

F = BoundaryPoint.finite


def _report(number: int, name: str, passed: bool, elapsed: float, bound: float):
    status = "pass" if passed and elapsed < bound else "FAIL"
    print(f"[{status}] criterion {number}: {name} ({elapsed:.2f}s / {bound:.0f}s)")
    assert passed, f"criterion {number} ({name}) failed"
    assert elapsed < bound, f"criterion {number} exceeded {bound}s: {elapsed:.2f}s"


def test_criterion_1_dyadic_exactness():
    t0 = time.perf_counter()
    ok = True
    for k in range(7):
        fam = dyadic_family(k, -4, 4)
        for i, pt in enumerate(fam.tangency_points):
            n = fam.n_min + i
            want = UHPPoint(
                (Q(n, 2**k) + Q(n + 1, 2**k)) / 2, Q(1, 2 ** (k + 1))
            )
            ok = ok and pt == want
    _report(1, "dyadic tangency points exact through k=6", ok,
            time.perf_counter() - t0, 1.0)


def test_criterion_2_isometry_invariance():
    t0 = time.perf_counter()
    rng = random.Random(2)
    ok = True
    for _ in range(10_000):
        c1, c2 = rand_curve(rng), rand_curve(rng)
        iso = rand_isometry(rng)
        p1 = intersection_pattern(c1, c2)
        p2 = intersection_pattern(iso.apply_curve(c1), iso.apply_curve(c2))
        if (p1.interior_count, p1.tangent, p1.shared_endpoints) != (
            p2.interior_count, p2.tangent, p2.shared_endpoints
        ):
            ok = False
            break
        if c1.kind is CurveKind.HYPERCYCLE and c2.kind is CurveKind.HYPERCYCLE:
            if hypercycle_pair_type(c1, c2) is not hypercycle_pair_type(
                iso.apply_curve(c1), iso.apply_curve(c2)
            ):
                ok = False
                break
    _report(2, "10^4 pattern/pair-type isometry invariance", ok,
            time.perf_counter() - t0, 30.0)


def test_criterion_3_four_geodesic_configuration():
    t0 = time.perf_counter()
    rng = random.Random(3)
    ok = True
    for _ in range(1000):
        pts = rand_distinct_boundary(rng, 4)
        pts.sort(key=BoundaryPoint.sort_key)
        try:
            four_geodesic_config(*pts)
        except Exception:
            ok = False
            break
    _report(3, "10^3 four-geodesic quadruples verified", ok,
            time.perf_counter() - t0, 10.0)


def _circle_through_i(p, q):
    """Circle with real-axis points p < q passing through (0, 1):
    x^2 + y^2 - (p+q)x - (1+pq)y + pq = 0."""
    return curve_from_coeffs(1, -(p + q), -(1 + p * q), p * q)


def _tangent_hypercycle_pair(rng):
    """Two hypercycles with rational endpoints, tangent at a random rational
    image of (0, 1): circles through (0,1) are tangent there when their
    gradients (p+q, 1-pq) are parallel, which pins q2 rationally."""
    while True:
        p1, q1 = rand_q(rng, -6, -1), rand_q(rng, 1, 6)
        p2 = rand_q(rng, -6, -1)
        s, m = p1 + q1, p1 * q1
        den = (1 - m) + s * p2
        if den == 0 or p1 * q1 == -1 or s == 0:
            continue
        q2 = (s - (1 - m) * p2) / den
        if q2 <= p2 or {p1, q1} == {p2, q2} or p2 * q2 == -1:
            continue
        iso = rand_isometry(rng)
        c1 = iso.apply_curve(_circle_through_i(p1, q1))
        c2 = iso.apply_curve(_circle_through_i(p2, q2))
        if (
            c1.kind is CurveKind.HYPERCYCLE
            and c2.kind is CurveKind.HYPERCYCLE
            and c1.circle.a != 0
            and c2.circle.a != 0
            and hypercycle_pair_type(c1, c2) is HypercyclePairType.TYPE1
        ):
            return c1, c2


def _straddling_points(c1, p, k):
    """Exact points of c1 on both sides of p: chords from p in directions
    tangent +/- delta*gradient hit the circle again at rational points that
    approach p from opposite sides as delta = 2^-k shrinks."""
    a, b, c, _ = c1.circle.coeffs()
    gx, gy = 2 * a * p.x + b, 2 * a * p.y + c
    dx, dy = -gy, gx
    g2 = gx * gx + gy * gy
    delta = Q(1, 2**k)
    pair = []
    for sgn in (1, -1):
        vx, vy = dx + sgn * delta * gx, dy + sgn * delta * gy
        t = -(sgn * delta * g2) / (a * (vx * vx + vy * vy))
        qx, qy = p.x + t * vx, p.y + t * vy
        if qy <= 0:
            return None
        pair.append(UHPPoint(qx, qy))
    if not opposite_sides_of_point(c1, p, pair[0], pair[1]):
        return None
    return pair[0], pair[1]


def test_criterion_4_type_witnesses():
    t0 = time.perf_counter()
    rng = random.Random(4)
    ok = True
    for _ in range(100):
        c1, c2 = _tangent_hypercycle_pair(rng)
        p = intersection_pattern(c1, c2).interior_points[0]
        w = None
        for k in range(2, 20):
            xy = _straddling_points(c1, p, k)
            if xy is None:
                continue
            try:
                w = hyp1_witness(c1, c2, *xy)
                break
            except NoSolutionError:
                continue
        if w is None:
            ok = False
            break
        wp = intersection_pattern(w, c2)
        if wp.interior_count != 0 or wp.shared_endpoints != 0 or wp.tangent:
            ok = False
            break
    # Type 2 (one crossing, shared endpoint) and Type 3 (one crossing,
    # distinct endpoints): the witness-family search must certify that no
    # curve through a straddling pair avoids the second hypercycle
    for want in (HypercyclePairType.TYPE2, HypercyclePairType.TYPE3):
        found = 0
        while found < 100 and ok:
            if want is HypercyclePairType.TYPE2:
                pts = rand_distinct_boundary(rng, 3, allow_inf=False)
                c1 = make_hypercycle(pts[0], pts[1], UHPPoint(rand_q(rng), abs(rand_q(rng, 1, 4)) + 1))
                c2 = make_hypercycle(pts[0], pts[2], UHPPoint(rand_q(rng), abs(rand_q(rng, 1, 4)) + 1))
            else:
                c1, c2 = rand_hypercycle(rng), rand_hypercycle(rng)
            try:
                if hypercycle_pair_type(c1, c2) is not want:
                    continue
            except Exception:
                continue
            w, cert = witness_family_search(c1, c2)
            if w is not None or "separated_pair" not in cert:
                ok = False
                break
            found += 1
    _report(4, "Type1 witnesses found; Type2/Type3 searches certify none", ok,
            time.perf_counter() - t0, 30.0)


def test_criterion_5_figure_one_certificate():
    t0 = time.perf_counter()
    hs = figure_one_configuration()
    res1 = tangency_realizability(
        instance_from_horocycles(hs, [h.center for h in hs])
    )
    ok = isinstance(res1, Satisfiable) and list(res1.radii) == [
        Q(1), Q(1), Q(1, 4), Q(2)
    ]
    res2 = tangency_realizability(instance_from_horocycles(hs, figure_one_images()))
    ok = ok and isinstance(res2, Unsatisfiable) and res2.message == "1 ≠ 4·(3/2)·(2/3)"
    if ok:
        print(f"certificate: {res2.message}")
    _report(5, "figure-one SAT/UNSAT certificate", ok,
            time.perf_counter() - t0, 1.0)


def test_criterion_6_earthquake_vs_isometry():
    t0 = time.perf_counter()
    rng = random.Random(6)
    ok = True
    done = 0
    while done < 1000 and ok:
        e = EarthquakeMap(
            rand_geodesic(rng),
            abs(rand_q(rng, 1, 4)) + Q(9, 8),
            rng.choice(["left", "right"]),
        )
        h = rand_horocycle(rng)
        if intersection_pattern(h, e.fault).interior_count != 2:
            continue
        if pointwise_image_is_curve(e, h).is_curve:
            ok = False
        done += 1
    for _ in range(1000):
        if not pointwise_image_is_curve(rand_isometry(rng), rand_curve(rng)).is_curve:
            ok = False
            break
    _report(6, "crossing earthquakes break cocircularity; isometries keep it",
            ok, time.perf_counter() - t0, 30.0)


def test_criterion_7_crescent_distance():
    t0 = time.perf_counter()
    rng = random.Random(7)
    ok = True
    for _ in range(100):
        g = rand_geodesic(rng)
        d = rng.uniform(0.1, 2.0)
        for c in equidistant_pair(g, d):
            for pt in rational_points(c, 100):
                if abs(distance_to_geodesic(pt, g) - d) >= 1e-9:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            break
    _report(7, "crescent boundaries within 1e-9 of the requested distance",
            ok, time.perf_counter() - t0, 10.0)


def test_criterion_8_family_limits():
    t0 = time.perf_counter()
    rng = random.Random(8)
    ok = True
    done = 0
    attempts = 0
    while done < 100 and attempts < 4000 and ok:
        attempts += 1
        h, hp = rand_horocycle(rng), rand_hypercycle(rng)
        pat = intersection_pattern(h, hp)
        if pat.interior_count != 0 or pat.shared_endpoints != 0 or pat.tangent:
            continue
        res = classify_family_limit(disj_family(h, hp))
        if not (isinstance(res, HorocycleLimit) and res.curve == h):
            ok = False
        done += 1
    ok = ok and done == 100
    ok = ok and isinstance(classify_family_limit(ray_family()), FoliatesComponent)
    fam = fixed_endpoint_family(3.0, 1.5)
    ok = ok and isinstance(classify_family_limit(fam), HypercycleOrGeodesicLimit)
    _report(8, "family limits: horocycle / foliates / hypercycle", ok,
            time.perf_counter() - t0, 30.0)


def test_criterion_9_graph_direction():
    t0 = time.perf_counter()
    rng = random.Random(9)
    ok = True
    for _ in range(1000):
        size = rng.randint(3, 10)
        curves = []
        while len(curves) < size:
            c = rand_curve(rng)
            if all(c != x for x in curves):
                curves.append(c)
        g = build_graph(curves, allow_mixed=True)
        iso = rand_isometry(rng)
        g2 = build_graph([iso.apply_curve(c) for c in curves], allow_mixed=True)
        if g.edges() != g2.edges():
            ok = False
            break
    hs = [
        make_horocycle(F(0), Q(1, 2)),
        make_horocycle(F(1), Q(1, 2)),
        make_horocycle(F(2), Q(1, 2)),
        make_horocycle(INFINITY, 2),
    ]
    g = build_graph(hs)
    iso = isometry_realizing(g, GraphAutomorphism((2, 1, 0, 3)))
    ok = ok and iso is not None and iso.apply_boundary(F(0)) == F(2)
    gs1 = [make_geodesic(F(-1), F(1)), make_geodesic(F(-3), F(-2)), make_geodesic(F(2), F(3))]
    gs2 = [make_geodesic(F(-2), F(1)), make_geodesic(F(-6), F(-4)), make_geodesic(F(2), F(3))]
    ok = ok and isometry_matching(gs1, gs2) is None
    _report(9, "isometries induce automorphisms; swap realized; relabeling not",
            ok, time.perf_counter() - t0, 60.0)


def test_criterion_10_sigma_counterexample():
    t0 = time.perf_counter()
    rng = random.Random(10)
    sigma = sigma_center_swap(F(0), F(4))
    ok = True
    for _ in range(1000):
        c = rand_boundary(rng, allow_inf=False)
        s1 = abs(rand_q(rng, 1, 4)) + Q(1, 8)
        s2 = abs(rand_q(rng, 1, 4)) + Q(1, 8)
        h1, h2 = make_horocycle(c, s1), make_horocycle(c, s2)
        if horocycle_leq(h1, h2) is not horocycle_leq(sigma(h1), sigma(h2)):
            ok = False
            break
    w1, w2 = make_horocycle(F(0), Q(1, 2)), make_horocycle(F(1), Q(1, 2))
    ok = ok and intersection_pattern(w1, w2).tangent
    ok = ok and not intersection_pattern(sigma(w1), sigma(w2)).tangent
    _report(10, "center swap keeps nesting order, breaks tangency", ok,
            time.perf_counter() - t0, 1.0)
