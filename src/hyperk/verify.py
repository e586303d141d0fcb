"""Named property-verification suites.

Each suite runs randomized / exhaustive checks of the library's invariants
at a chosen scale and returns one result per property.  The CLI maps these
to pass/fail lines and the exit code.  Each suite imports the layers it
checks, so running one suite loads only those.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Tuple

from ._rational import Q
from ._record import Record
from .errors import HyperkError, InvalidInputError, NoSolutionError
from .model import (
    INFINITY,
    BoundaryPoint,
    Curve,
    Isometry,
    UHPPoint,
    curve_from_coeffs,
    distance_to_geodesic,
    equidistant_pair,
    make_geodesic,
    make_horocycle,
    make_hypercycle,
    rational_points,
    two_point_normalizer,
)


class PropertyResult(Record):
    __slots__ = ("suite", "name", "passed", "detail")
    __hash__ = None

    def __init__(self, suite: str, name: str, passed: bool, detail: str = ""):
        self.suite, self.name, self.passed, self.detail = suite, name, passed, detail

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        tail = f" -- {self.detail}" if self.detail else ""
        return f"[{status}] {self.suite}: {self.name}{tail}"


# ---------------------------------------------------------------------------
# random generators (exact rational data)


def rand_q(rng: random.Random, lo: int = -8, hi: int = 8, den: int = 8) -> Q:
    d = rng.randint(1, den)
    return Q(rng.randint(lo * d, hi * d), d)


def rand_boundary(rng: random.Random, allow_inf: bool = True) -> BoundaryPoint:
    if allow_inf and rng.random() < 0.15:
        return INFINITY
    return BoundaryPoint.finite(rand_q(rng))


def rand_distinct_boundary(rng: random.Random, n: int, allow_inf: bool = True):
    out: List[BoundaryPoint] = []
    while len(out) < n:
        p = rand_boundary(rng, allow_inf)
        if all(p != q for q in out):
            out.append(p)
    return out


def rand_geodesic(rng: random.Random) -> Curve:
    p, q = rand_distinct_boundary(rng, 2)
    return make_geodesic(p, q)


def rand_horocycle(rng: random.Random) -> Curve:
    c = rand_boundary(rng)
    size = abs(rand_q(rng, 1, 4, 6)) + Q(1, 8)
    return make_horocycle(c, size)


def rand_hypercycle(rng: random.Random) -> Curve:
    p, q = rand_distinct_boundary(rng, 2, allow_inf=False)
    lo, hi = sorted((p.value, q.value))
    mid = (lo + hi) / 2
    half = (hi - lo) / 2
    height = half * (1 + abs(rand_q(rng, 0, 2, 4))) + Q(1, 8)
    return make_hypercycle(p, q, UHPPoint(mid, height))


def rand_curve(rng: random.Random) -> Curve:
    k = rng.randrange(3)
    if k == 0:
        return rand_geodesic(rng)
    if k == 1:
        return rand_horocycle(rng)
    return rand_hypercycle(rng)


def rand_isometry(rng: random.Random) -> Isometry:
    while True:
        m = [rng.randint(-5, 5) for _ in range(4)]
        det = m[0] * m[3] - m[1] * m[2]
        if det == 0:
            continue
        if det < 0:
            m[0], m[1] = -m[0], -m[1]
        return Isometry(*m, reversing=rng.random() < 0.3)


# ---------------------------------------------------------------------------
# suites


def suite_order(rng: random.Random, scale: str) -> List[PropertyResult]:
    from .predicates import HorocycleOrder, horocycle_leq

    n = 200 if scale == "small" else 1000
    out = []
    ok, detail = True, ""
    for _ in range(n):
        c = rand_boundary(rng)
        s1, s2 = abs(rand_q(rng, 1, 4)) + Q(1, 8), abs(rand_q(rng, 1, 4)) + Q(1, 8)
        h1, h2 = make_horocycle(c, s1), make_horocycle(c, s2)
        o = horocycle_leq(h1, h2)
        if c.is_infinity:
            want = (
                HorocycleOrder.EQUAL if s1 == s2
                else HorocycleOrder.LESS_OR_EQUAL if s1 > s2
                else HorocycleOrder.GREATER_OR_EQUAL
            )
        else:
            want = (
                HorocycleOrder.EQUAL if s1 == s2
                else HorocycleOrder.LESS_OR_EQUAL if s1 < s2
                else HorocycleOrder.GREATER_OR_EQUAL
            )
        if o is not want:
            ok, detail = False, f"{h1!r} vs {h2!r}: {o} != {want}"
            break
    out.append(PropertyResult("order", "same-center horoball containment", ok, detail))
    ok, detail = True, ""
    for _ in range(n):
        h1, h2 = rand_horocycle(rng), rand_horocycle(rng)
        if h1.center == h2.center:
            continue
        if horocycle_leq(h1, h2) is not HorocycleOrder.INCOMPARABLE:
            ok, detail = False, f"{h1!r} vs {h2!r} comparable across centers"
            break
    out.append(PropertyResult("order", "different centers incomparable", ok, detail))
    return out


def suite_boundary_extension(rng: random.Random, scale: str) -> List[PropertyResult]:
    n = 200 if scale == "small" else 1000
    out = []
    ok, detail = True, ""
    for _ in range(n):
        iso = rand_isometry(rng)
        p = rand_boundary(rng)
        img = iso.apply_boundary(p)
        # boundary image must be the limit of interior images: approach p
        # vertically and compare against the image curve of a geodesic at p
        q = rand_boundary(rng)
        if q == p:
            continue
        g = make_geodesic(p, q)
        gi = iso.apply_curve(g)
        if img.is_infinity:
            continue
        if gi.circle.evaluate_boundary(img) != 0:
            ok, detail = False, f"{iso!r} at {p!r}"
            break
    out.append(
        PropertyResult(
            "boundary-extension", "boundary action matches curve images", ok, detail
        )
    )
    ok, detail = True, ""
    for _ in range(n):
        x, y = rand_distinct_boundary(rng, 2)
        iso = two_point_normalizer(x, y)
        if not (iso.apply_boundary(x) == INFINITY and iso.apply_boundary(y) == BoundaryPoint.finite(0)):
            ok, detail = False, f"normalizer of ({x!r}, {y!r})"
            break
    out.append(
        PropertyResult("boundary-extension", "two-point normalizer images", ok, detail)
    )
    return out


def suite_dyadic(rng: random.Random, scale: str, depth: int = 6) -> List[PropertyResult]:
    from .constructions import dyadic_family
    from .predicates import intersection_pattern

    ok, detail = True, ""
    checks = 0
    for k in range(depth + 1):
        fam = dyadic_family(k, -4, 4)
        for i, pt in enumerate(fam.tangency_points):
            n = fam.n_min + i
            xn = Q(n, 2**k)
            xn1 = Q(n + 1, 2**k)
            want = UHPPoint((xn + xn1) / 2, Q(1, 2 ** (k + 1)))
            if pt != want:
                ok, detail = False, f"level {k}, n={n}: {pt!r} != {want!r}"
                break
            checks += 1
        # consecutive members must be exactly tangent
        for h1, h2 in zip(fam.horocycles, fam.horocycles[1:]):
            pat = intersection_pattern(h1, h2)
            if not (pat.tangent and pat.interior_count == 1):
                ok, detail = False, f"level {k}: consecutive members not tangent"
                break
        if not ok:
            break
    return [
        PropertyResult(
            "dyadic", f"tangency points exact through depth {depth}", ok,
            detail or f"{checks} tangency points checked",
        )
    ]


def suite_pinch(rng: random.Random, scale: str) -> List[PropertyResult]:
    from .constructions import pinch_pair
    from .predicates import intersection_pattern

    n = 100 if scale == "small" else 400
    ok, detail = True, ""
    done = 0
    for _ in range(n):
        c1, c2 = rand_distinct_boundary(rng, 2)
        s1 = abs(rand_q(rng, 1, 3)) + Q(1, 8)
        s2 = abs(rand_q(rng, 1, 3)) + Q(1, 8)
        h0, h = make_horocycle(c1, s1), make_horocycle(c2, s2)
        if intersection_pattern(h0, h).interior_count != 0:
            continue
        try:
            a, b = pinch_pair(h0, h)
        except NoSolutionError:
            continue
        for w in {id(a): a, id(b): b}.values():
            for other in (h0, h):
                if w.exact and other.exact:
                    if not intersection_pattern(w, other).tangent:
                        ok, detail = False, f"{w!r} not tangent to {other!r}"
                elif not _horocycles_nearly_tangent(w, other):
                    ok, detail = False, f"inexact pinch witness off {other!r}"
            if not ok:
                break
        if not ok:
            break
        done += 1
    return [
        PropertyResult(
            "pinch", "pinch horocycles tangent to both inputs", ok,
            detail or f"{done} disjoint pairs pinched",
        )
    ]


def _horocycles_nearly_tangent(h1: Curve, h2: Curve, tol: float = 1e-6) -> bool:
    """Numeric tangency residual for horocycles, robust for inexact curves
    where the eps-based classifier cannot distinguish tangency from a
    hairline crossing."""
    e1 = h1.euclidean_center_radius()
    e2 = h2.euclidean_center_radius()
    if e1 is not None and e2 is not None:
        (x1, y1, r1), (x2, y2, r2) = e1, e2
        dist = math.hypot(x1 - x2, y1 - y2)
        return abs(dist - (r1 + r2)) <= tol * max(1.0, r1 + r2)
    if e1 is None and e2 is None:
        return False  # two horizontal lines are never tangent
    (cx, cy, r) = e1 if e1 is not None else e2
    line = h2 if e1 is not None else h1
    height = float(line.size)
    return abs((cy + r) - height) <= tol * max(1.0, height)


def _random_hypercycle_pair(rng: random.Random) -> Tuple[Curve, Curve]:
    return rand_hypercycle(rng), rand_hypercycle(rng)


def suite_types(rng: random.Random, scale: str) -> List[PropertyResult]:
    from .predicates import hypercycle_pair_type, intersection_pattern

    n = 300 if scale == "small" else 2000
    ok, detail = True, ""
    for _ in range(n):
        c1, c2 = _random_hypercycle_pair(rng)
        t = hypercycle_pair_type(c1, c2)
        iso = rand_isometry(rng)
        t2 = hypercycle_pair_type(iso.apply_curve(c1), iso.apply_curve(c2))
        if t is not t2:
            ok, detail = False, f"{t} -> {t2} under {iso!r}"
            break
    out = [PropertyResult("types", "pair type is an isometry invariant", ok, detail)]
    ok, detail = True, ""
    for _ in range(n):
        c1, c2 = rand_curve(rng), rand_curve(rng)
        iso = rand_isometry(rng)
        p1 = intersection_pattern(c1, c2)
        p2 = intersection_pattern(iso.apply_curve(c1), iso.apply_curve(c2))
        if (p1.interior_count, p1.tangent, p1.shared_endpoints) != (
            p2.interior_count, p2.tangent, p2.shared_endpoints
        ):
            ok, detail = False, f"{p1.describe()} -> {p2.describe()}"
            break
    out.append(
        PropertyResult("types", "intersection pattern is an isometry invariant", ok, detail)
    )
    return out


def suite_betweenness(rng: random.Random, scale: str) -> List[PropertyResult]:
    from .predicates import between_tangent

    n = 100 if scale == "small" else 500
    ok, detail = True, ""
    done = 0
    # the pencil of curves tangent to each other at the point i: the line
    # y = 1 (curvature 0) and, for r >= 1/2, the circle of radius r tangent
    # to the line at i from below (curvature 1/r); r = 1/2 is a horocycle,
    # r = 1 the unit geodesic, other r are hypercycles
    radii = [None, Q(1, 2), Q(2, 3), Q(1), Q(3, 2), Q(2), Q(3)]

    def pencil_curve(r):
        if r is None:
            return curve_from_coeffs(0, 0, 1, -1)
        return curve_from_coeffs(1, 0, 2 * r - 2, 1 - 2 * r)

    def curvature(r):
        return Q(0) if r is None else 1 / r

    for _ in range(n):
        rs = rng.sample(radii, 3)
        curves = [pencil_curve(r) for r in rs]
        expected = sorted(range(3), key=lambda i: curvature(rs[i]))[1]
        mid = between_tangent(*curves)
        if mid != expected:
            ok, detail = False, f"radii {rs}: middle {mid} != {expected}"
            break
        # the same curve must be reported middle after a random isometry
        # and a random argument permutation
        iso = rand_isometry(rng)
        perm = [0, 1, 2]
        rng.shuffle(perm)
        images = [iso.apply_curve(curves[p]) for p in perm]
        mid2 = between_tangent(*images)
        if perm[mid2] != expected:
            ok, detail = False, f"radii {rs}, perm {perm}: index {mid2}"
            break
        done += 1
    return [
        PropertyResult(
            "betweenness", "middle of a tangent triple, invariantly", ok,
            detail or f"{done} tangent triples",
        )
    ]


def suite_crescent(rng: random.Random, scale: str) -> List[PropertyResult]:
    cases = 20 if scale == "small" else 100
    samples = 100
    ok, detail = True, ""
    for _ in range(cases):
        g = rand_geodesic(rng)
        d = rng.uniform(0.1, 2.0)
        c_plus, c_minus = equidistant_pair(g, d)
        for c in (c_plus, c_minus):
            for pt in rational_points(c, samples):
                err = abs(distance_to_geodesic(pt, g) - d)
                if err >= 1e-9:
                    ok, detail = False, f"distance error {err:.2e} on {c!r}"
                    break
            if not ok:
                break
        if not ok:
            break
    return [
        PropertyResult(
            "crescent", "equidistant curves at the requested distance", ok, detail
        )
    ]


def suite_four_geodesics(rng: random.Random, scale: str) -> List[PropertyResult]:
    from .constructions import four_geodesic_config

    n = 100 if scale == "small" else 1000
    ok, detail = True, ""
    for _ in range(n):
        pts = rand_distinct_boundary(rng, 4)
        pts.sort(key=BoundaryPoint.sort_key)
        x1, x2, y1, y2 = pts  # cyclic order x1 < x2 < y1 < y2
        try:
            four_geodesic_config(x1, x2, y1, y2)
        except HyperkError as exc:
            ok, detail = False, f"{pts!r}: {exc}"
            break
    return [
        PropertyResult(
            "four-geodesics", "three bullet properties by arc enumeration", ok, detail
        )
    ]


def suite_links(rng: random.Random, scale: str) -> List[PropertyResult]:
    from .earthquake import EarthquakeMap, eq_apply
    from .predicates import linked

    n = 500 if scale == "small" else 10000
    out = []
    ok, detail = True, ""
    fault = make_geodesic(BoundaryPoint.finite(0), INFINITY)
    e = EarthquakeMap(fault, 2, "left")
    for _ in range(n):
        pts = rand_distinct_boundary(rng, 4)
        imgs = [eq_apply(e, p) for p in pts]
        if len({(p.value,) for p in imgs}) < 4:
            continue
        before = linked((pts[0], pts[1]), (pts[2], pts[3]))
        after = linked((imgs[0], imgs[1]), (imgs[2], imgs[3]))
        if before != after:
            ok, detail = False, f"{pts!r}"
            break
    out.append(
        PropertyResult("links", "earthquake boundary map preserves links", ok, detail)
    )
    ok, detail = True, ""
    for _ in range(n):
        pts = rand_distinct_boundary(rng, 4)
        iso = rand_isometry(rng)
        imgs = [iso.apply_boundary(p) for p in pts]
        before = linked((pts[0], pts[1]), (pts[2], pts[3]))
        after = linked((imgs[0], imgs[1]), (imgs[2], imgs[3]))
        if before != after:
            ok, detail = False, f"{pts!r} under {iso!r}"
            break
    out.append(PropertyResult("links", "isometries preserve links", ok, detail))
    return out


def suite_families(rng: random.Random, scale: str) -> List[PropertyResult]:
    from .constructions import (
        FoliatesComponent,
        HorocycleLimit,
        HypercycleOrGeodesicLimit,
        classify_family_limit,
        disj_family,
        fixed_endpoint_family,
        ray_family,
    )
    from .predicates import intersection_pattern

    cases = 10 if scale == "small" else 100
    ok, detail = True, ""
    done = 0
    attempts = 0
    while done < cases and attempts < cases * 40:
        attempts += 1
        h = rand_horocycle(rng)
        hp = rand_hypercycle(rng)
        pat = intersection_pattern(h, hp)
        if pat.interior_count != 0 or pat.shared_endpoints != 0 or pat.tangent:
            continue
        try:
            res = classify_family_limit(disj_family(h, hp))
        except HyperkError as exc:
            ok, detail = False, f"{h!r}, {hp!r}: {exc}"
            break
        if not (isinstance(res, HorocycleLimit) and res.curve == h):
            ok, detail = False, f"{h!r}, {hp!r}: {res!r}"
            break
        done += 1
    out = [
        PropertyResult(
            "families", "disjoint-pair families converge to the horocycle", ok,
            detail or f"{done} families classified",
        )
    ]
    res = classify_family_limit(ray_family())
    out.append(
        PropertyResult(
            "families", "ray sweep foliates its component",
            isinstance(res, FoliatesComponent), "" if isinstance(res, FoliatesComponent) else repr(res),
        )
    )
    res = classify_family_limit(fixed_endpoint_family(3, Q(3, 2)))
    out.append(
        PropertyResult(
            "families", "fixed-endpoint family has a hypercycle limit",
            isinstance(res, HypercycleOrGeodesicLimit),
            "" if isinstance(res, HypercycleOrGeodesicLimit) else repr(res),
        )
    )
    return out


def suite_earthquake(rng: random.Random, scale: str) -> List[PropertyResult]:
    from .earthquake import (
        EarthquakeMap,
        Satisfiable,
        Unsatisfiable,
        figure_one_configuration,
        figure_one_images,
        instance_from_horocycles,
        pointwise_image_is_curve,
        tangency_realizability,
    )
    from .predicates import intersection_pattern

    out = []
    hs = figure_one_configuration()
    inst = instance_from_horocycles(hs, [h.center for h in hs])
    res = tangency_realizability(inst)
    good = isinstance(res, Satisfiable) and list(res.radii) == [
        Q(1), Q(1), Q(1, 4), Q(2)
    ]
    out.append(
        PropertyResult(
            "earthquake", "identity relabeling satisfiable with original radii",
            good, "" if good else repr(res),
        )
    )
    inst2 = instance_from_horocycles(hs, figure_one_images())
    res2 = tangency_realizability(inst2)
    good2 = isinstance(res2, Unsatisfiable) and "4·(3/2)·(2/3)" in res2.message
    detail2 = res2.message if isinstance(res2, Unsatisfiable) else repr(res2)
    out.append(
        PropertyResult(
            "earthquake", "relabeled configuration unsatisfiable", good2,
            f"certificate: {detail2}",
        )
    )
    n = 100 if scale == "small" else 1000
    ok, detail = True, ""
    done = 0
    fault = make_geodesic(BoundaryPoint.finite(0), INFINITY)
    attempts = 0
    while done < n and attempts < 40 * n:
        attempts += 1
        e = EarthquakeMap(
            rand_geodesic(rng),
            abs(rand_q(rng, 1, 4)) + Q(9, 8),
            rng.choice(["left", "right"]),
        )
        h = rand_horocycle(rng)
        pat = intersection_pattern(h, e.fault)
        if pat.interior_count != 2:
            continue  # need a horocycle properly crossing the fault
        r = pointwise_image_is_curve(e, h)
        if r.is_curve:
            ok, detail = False, f"{h!r} across {e!r} stayed cocircular"
            break
        done += 1
    out.append(
        PropertyResult(
            "earthquake", "crossing horocycles have non-cocircular images", ok,
            detail or f"{done} crossing cases",
        )
    )
    ok, detail = True, ""
    for _ in range(n):
        iso = rand_isometry(rng)
        c = rand_curve(rng)
        if not pointwise_image_is_curve(iso, c).is_curve:
            ok, detail = False, f"{c!r} under {iso!r}"
            break
    out.append(
        PropertyResult(
            "earthquake", "isometry images are exactly cocircular", ok, detail
        )
    )
    return out


def suite_graphs(rng: random.Random, scale: str) -> List[PropertyResult]:
    from .constructions import sigma_center_swap
    from .graphs import (
        GraphAutomorphism,
        automorphisms,
        build_graph,
        isometry_matching,
        isometry_realizing,
    )
    from .predicates import horocycle_leq, intersection_pattern

    out = []
    n = 100 if scale == "small" else 1000
    ok, detail = True, ""
    for _ in range(n):
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
            ok, detail = False, f"adjacency changed under {iso!r}"
            break
    out.append(
        PropertyResult("graphs", "isometries preserve disjointness graphs", ok, detail)
    )

    F = BoundaryPoint.finite
    hs = [
        make_horocycle(F(0), Q(1, 2)),
        make_horocycle(F(1), Q(1, 2)),
        make_horocycle(F(2), Q(1, 2)),
        make_horocycle(INFINITY, 2),
    ]
    g = build_graph(hs)
    good = set(g.edges()) == {(0, 2), (0, 3), (1, 3), (2, 3)}
    autos = automorphisms(g)
    good = good and sorted(a.perm for a in autos) == [(0, 1, 2, 3), (2, 1, 0, 3)]
    iso = isometry_realizing(g, GraphAutomorphism((2, 1, 0, 3)))
    good = good and iso is not None and iso.apply_boundary(F(0)) == F(2)
    out.append(
        PropertyResult(
            "graphs", "designed swap realized by an isometry", good,
            repr(iso) if iso is not None else "no isometry found",
        )
    )

    gs1 = [make_geodesic(F(-1), F(1)), make_geodesic(F(-3), F(-2)), make_geodesic(F(2), F(3))]
    gs2 = [make_geodesic(F(-2), F(1)), make_geodesic(F(-6), F(-4)), make_geodesic(F(2), F(3))]
    none_found = isometry_matching(gs1, gs2) is None
    out.append(
        PropertyResult(
            "graphs", "earthquake-relabeled geodesic set admits no isometry",
            none_found, "",
        )
    )

    # sigma counterexample: preserves the order, breaks tangency
    sigma = sigma_center_swap(F(0), F(4))
    ok, detail = True, ""
    m = 200 if scale == "small" else 1000
    for _ in range(m):
        c = rand_boundary(rng, allow_inf=False)
        s1 = abs(rand_q(rng, 1, 4)) + Q(1, 8)
        s2 = abs(rand_q(rng, 1, 4)) + Q(1, 8)
        h1, h2 = make_horocycle(c, s1), make_horocycle(c, s2)
        if horocycle_leq(h1, h2) is not horocycle_leq(sigma(h1), sigma(h2)):
            ok, detail = False, f"order broken at {c!r}"
            break
    # designed 3-center witness: h(0,1/2) and h(1,1/2) tangent, but after
    # swapping centers 0 <-> 4 the pair is far apart
    w1, w2 = make_horocycle(F(0), Q(1, 2)), make_horocycle(F(1), Q(1, 2))
    tangent_before = intersection_pattern(w1, w2).tangent
    tangent_after = intersection_pattern(sigma(w1), sigma(w2)).tangent
    good = ok and tangent_before and not tangent_after
    out.append(
        PropertyResult(
            "graphs", "center swap preserves order but breaks tangency", good,
            detail or "tangent pair (0,1) separated by the 0<->4 swap",
        )
    )
    return out


SUITES: Dict[str, Callable[[random.Random, str], List[PropertyResult]]] = {
    "order": suite_order,
    "boundary-extension": suite_boundary_extension,
    "dyadic": suite_dyadic,
    "pinch": suite_pinch,
    "types": suite_types,
    "betweenness": suite_betweenness,
    "crescent": suite_crescent,
    "four-geodesics": suite_four_geodesics,
    "links": suite_links,
    "families": suite_families,
    "earthquake": suite_earthquake,
    "graphs": suite_graphs,
}


def run_suite(name: str, seed: int = 0, scale: str = "small", depth: int = 6):
    """Run one named suite (or 'all'); returns the list of results."""
    rng = random.Random(seed)
    if name == "all":
        results: List[PropertyResult] = []
        for key in SUITES:
            results.extend(run_suite(key, seed=seed, scale=scale, depth=depth))
        return results
    if name not in SUITES:
        raise InvalidInputError(
            f"unknown suite {name!r}; choose from {', '.join(list(SUITES) + ['all'])}"
        )
    if name == "dyadic":
        return suite_dyadic(rng, scale, depth=depth)
    return SUITES[name](rng, scale)
