"""Named property-verification suites.

Each suite runs randomized / exhaustive checks of the library's invariants
at a chosen scale and returns one result per property.  The CLI maps these
to pass/fail lines and the exit code.  Each suite imports the layers it
checks, so running one suite loads only those.

A property is a generator over its cases: it draws a case from the suite's
`rng`, checks it, and yields None if the case holds or a detail if it fails.
One runner, `_result`, applies the rule to every property: the first
failing case decides it, and stops the draws; a property with no failing
case passes, and its detail may count the cases that held.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List

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


def _result(suite: str, name: str, outcomes, summary: str = "") -> PropertyResult:
    """The property's first failing case decides it; if none fails it
    passes, with `summary` as detail and {} in it replaced by the number of
    cases that held.  A failure stops the cases, and so their draws."""
    held = 0
    for detail in outcomes:
        if detail is not None:
            return PropertyResult(suite, name, False, detail)
        held += 1
    return PropertyResult(suite, name, True, summary.format(held))


def suite_order(rng: random.Random, scale: str) -> List[PropertyResult]:
    from .predicates import HorocycleOrder, horocycle_leq

    n = 200 if scale == "small" else 1000

    def same_center():
        for _ in range(n):
            c = rand_boundary(rng)
            s1, s2 = abs(rand_q(rng, 1, 4)) + Q(1, 8), abs(rand_q(rng, 1, 4)) + Q(1, 8)
            h1, h2 = make_horocycle(c, s1), make_horocycle(c, s2)
            o = horocycle_leq(h1, h2)
            # at oo a larger size is a higher, so smaller, horoball
            inside = s1 > s2 if c.is_infinity else s1 < s2
            want = (
                HorocycleOrder.EQUAL if s1 == s2
                else HorocycleOrder.LESS_OR_EQUAL if inside
                else HorocycleOrder.GREATER_OR_EQUAL
            )
            yield None if o is want else f"{h1!r} vs {h2!r}: {o} != {want}"

    def across_centers():
        for _ in range(n):
            h1, h2 = rand_horocycle(rng), rand_horocycle(rng)
            if h1.center != h2.center and horocycle_leq(h1, h2) is not HorocycleOrder.INCOMPARABLE:
                yield f"{h1!r} vs {h2!r} comparable across centers"

    return [
        _result("order", "same-center horoball containment", same_center()),
        _result("order", "different centers incomparable", across_centers()),
    ]


def suite_boundary_extension(rng: random.Random, scale: str) -> List[PropertyResult]:
    n = 200 if scale == "small" else 1000

    def curve_images():
        for _ in range(n):
            iso = rand_isometry(rng)
            p = rand_boundary(rng)
            img = iso.apply_boundary(p)
            # boundary image must be the limit of interior images: approach p
            # vertically and compare against the image curve of a geodesic at p
            q = rand_boundary(rng)
            if q == p:
                continue
            gi = iso.apply_curve(make_geodesic(p, q))
            if gi.circle.evaluate_boundary(img) != 0:
                yield f"{iso!r} at {p!r}"

    def normalizers():
        want = (INFINITY, BoundaryPoint.finite(0))
        for _ in range(n):
            x, y = rand_distinct_boundary(rng, 2)
            iso = two_point_normalizer(x, y)
            if (iso.apply_boundary(x), iso.apply_boundary(y)) != want:
                yield f"normalizer of ({x!r}, {y!r})"

    return [
        _result("boundary-extension", "boundary action matches curve images", curve_images()),
        _result("boundary-extension", "two-point normalizer images", normalizers()),
    ]


def suite_dyadic(rng: random.Random, scale: str, depth: int = 6) -> List[PropertyResult]:
    from .constructions import dyadic_family
    from .predicates import intersection_pattern

    def levels():
        for k in range(depth + 1):
            fam = dyadic_family(k, -4, 4)
            for i, pt in enumerate(fam.tangency_points):
                n = fam.n_min + i
                want = UHPPoint(Q(2 * n + 1, 2 ** (k + 1)), Q(1, 2 ** (k + 1)))
                yield None if pt == want else f"level {k}, n={n}: {pt!r} != {want!r}"
            # consecutive members must be exactly tangent
            for h1, h2 in zip(fam.horocycles, fam.horocycles[1:]):
                pat = intersection_pattern(h1, h2)
                if not (pat.tangent and pat.interior_count == 1):
                    yield f"level {k}: consecutive members not tangent"

    return [
        _result("dyadic", f"tangency points exact through depth {depth}", levels(),
                "{} tangency points checked")
    ]


def suite_pinch(rng: random.Random, scale: str) -> List[PropertyResult]:
    from .constructions import pinch_pair
    from .predicates import intersection_pattern

    n = 100 if scale == "small" else 400

    def off(w, other):
        """Why the pinch horocycle w does not touch other, or None."""
        if w.exact and other.exact:
            if not intersection_pattern(w, other).tangent:
                return f"{w!r} not tangent to {other!r}"
        elif not _horocycles_nearly_tangent(w, other):
            return f"inexact pinch witness off {other!r}"

    def pinched():
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
            witnesses = (a,) if a is b else (a, b)
            yield next(filter(None, (off(w, other) for w in witnesses for other in (h0, h))), None)

    return [
        _result("pinch", "pinch horocycles tangent to both inputs", pinched(),
                "{} disjoint pairs pinched")
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


def suite_types(rng: random.Random, scale: str) -> List[PropertyResult]:
    from .predicates import hypercycle_pair_type, intersection_pattern

    n = 300 if scale == "small" else 2000

    def pair_types():
        for _ in range(n):
            c1, c2 = rand_hypercycle(rng), rand_hypercycle(rng)
            t = hypercycle_pair_type(c1, c2)
            iso = rand_isometry(rng)
            t2 = hypercycle_pair_type(iso.apply_curve(c1), iso.apply_curve(c2))
            yield None if t is t2 else f"{t} -> {t2} under {iso!r}"

    def patterns():
        for _ in range(n):
            c1, c2 = rand_curve(rng), rand_curve(rng)
            iso = rand_isometry(rng)
            p1 = intersection_pattern(c1, c2)
            p2 = intersection_pattern(iso.apply_curve(c1), iso.apply_curve(c2))
            same = (p1.interior_count, p1.tangent, p1.shared_endpoints) == (
                p2.interior_count, p2.tangent, p2.shared_endpoints
            )
            yield None if same else f"{p1.describe()} -> {p2.describe()}"

    return [
        _result("types", "pair type is an isometry invariant", pair_types()),
        _result("types", "intersection pattern is an isometry invariant", patterns()),
    ]


def suite_betweenness(rng: random.Random, scale: str) -> List[PropertyResult]:
    from .predicates import between_tangent

    n = 100 if scale == "small" else 500
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

    def triples():
        for _ in range(n):
            rs = rng.sample(radii, 3)
            curves = [pencil_curve(r) for r in rs]
            expected = sorted(range(3), key=lambda i: curvature(rs[i]))[1]
            mid = between_tangent(*curves)
            if mid != expected:
                yield f"radii {rs}: middle {mid} != {expected}"
            # the same curve must be reported middle after a random isometry
            # and a random argument permutation
            iso = rand_isometry(rng)
            perm = [0, 1, 2]
            rng.shuffle(perm)
            mid2 = between_tangent(*(iso.apply_curve(curves[p]) for p in perm))
            yield None if perm[mid2] == expected else f"radii {rs}, perm {perm}: index {mid2}"

    return [
        _result("betweenness", "middle of a tangent triple, invariantly", triples(),
                "{} tangent triples")
    ]


def suite_crescent(rng: random.Random, scale: str) -> List[PropertyResult]:
    cases = 20 if scale == "small" else 100

    def distances():
        for _ in range(cases):
            g = rand_geodesic(rng)
            d = rng.uniform(0.1, 2.0)
            for c in equidistant_pair(g, d):
                for pt in rational_points(c, 100):
                    err = abs(distance_to_geodesic(pt, g) - d)
                    if err >= 1e-9:
                        yield f"distance error {err:.2e} on {c!r}"

    return [_result("crescent", "equidistant curves at the requested distance", distances())]


def suite_four_geodesics(rng: random.Random, scale: str) -> List[PropertyResult]:
    from .constructions import four_geodesic_config

    n = 100 if scale == "small" else 1000

    def configs():
        for _ in range(n):
            pts = rand_distinct_boundary(rng, 4)
            pts.sort(key=BoundaryPoint.sort_key)  # cyclic order x1 < x2 < y1 < y2
            try:
                four_geodesic_config(*pts)
            except HyperkError as exc:
                yield f"{pts!r}: {exc}"

    return [
        _result("four-geodesics", "three bullet properties by arc enumeration", configs())
    ]


def suite_links(rng: random.Random, scale: str) -> List[PropertyResult]:
    from .earthquake import EarthquakeMap, eq_apply
    from .predicates import linked

    n = 500 if scale == "small" else 10000
    e = EarthquakeMap(make_geodesic(BoundaryPoint.finite(0), INFINITY), 2, "left")

    def kept(pts, imgs):
        return linked(pts[:2], pts[2:]) == linked(imgs[:2], imgs[2:])

    def under_earthquake():
        for _ in range(n):
            pts = rand_distinct_boundary(rng, 4)
            imgs = [eq_apply(e, p) for p in pts]
            if len({(p.value,) for p in imgs}) == 4 and not kept(pts, imgs):
                yield f"{pts!r}"

    def under_isometries():
        for _ in range(n):
            pts = rand_distinct_boundary(rng, 4)
            iso = rand_isometry(rng)
            if not kept(pts, [iso.apply_boundary(p) for p in pts]):
                yield f"{pts!r} under {iso!r}"

    return [
        _result("links", "earthquake boundary map preserves links", under_earthquake()),
        _result("links", "isometries preserve links", under_isometries()),
    ]


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

    def disjoint_pairs():
        done = 0
        for _ in range(cases * 40):
            if done == cases:
                return
            h = rand_horocycle(rng)
            hp = rand_hypercycle(rng)
            pat = intersection_pattern(h, hp)
            if pat.interior_count != 0 or pat.shared_endpoints != 0 or pat.tangent:
                continue
            try:
                res = classify_family_limit(disj_family(h, hp))
                ok, detail = isinstance(res, HorocycleLimit) and res.curve == h, repr(res)
            except HyperkError as exc:
                ok, detail = False, str(exc)
            yield None if ok else f"{h!r}, {hp!r}: {detail}"
            done += 1

    def limit(family, kind):
        res = classify_family_limit(family)
        yield None if isinstance(res, kind) else repr(res)

    return [
        _result("families", "disjoint-pair families converge to the horocycle",
                disjoint_pairs(), "{} families classified"),
        _result("families", "ray sweep foliates its component",
                limit(ray_family(), FoliatesComponent)),
        _result("families", "fixed-endpoint family has a hypercycle limit",
                limit(fixed_endpoint_family(3, Q(3, 2)), HypercycleOrGeodesicLimit)),
    ]


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

    hs = figure_one_configuration()
    res = tangency_realizability(instance_from_horocycles(hs, [h.center for h in hs]))
    good = isinstance(res, Satisfiable) and list(res.radii) == [Q(1), Q(1), Q(1, 4), Q(2)]
    res2 = tangency_realizability(instance_from_horocycles(hs, figure_one_images()))
    good2 = isinstance(res2, Unsatisfiable) and "4·(3/2)·(2/3)" in res2.message
    certificate = res2.message if isinstance(res2, Unsatisfiable) else repr(res2)
    n = 100 if scale == "small" else 1000

    def crossings():
        done = 0
        for _ in range(40 * n):
            if done == n:
                return
            e = EarthquakeMap(
                rand_geodesic(rng),
                abs(rand_q(rng, 1, 4)) + Q(9, 8),
                rng.choice(["left", "right"]),
            )
            h = rand_horocycle(rng)
            if intersection_pattern(h, e.fault).interior_count != 2:
                continue  # need a horocycle properly crossing the fault
            cocircular = pointwise_image_is_curve(e, h).is_curve
            yield f"{h!r} across {e!r} stayed cocircular" if cocircular else None
            done += 1

    def isometry_images():
        for _ in range(n):
            iso = rand_isometry(rng)
            c = rand_curve(rng)
            if not pointwise_image_is_curve(iso, c).is_curve:
                yield f"{c!r} under {iso!r}"

    return [
        _result("earthquake", "identity relabeling satisfiable with original radii",
                [None if good else repr(res)]),
        PropertyResult("earthquake", "relabeled configuration unsatisfiable", good2,
                       f"certificate: {certificate}"),
        _result("earthquake", "crossing horocycles have non-cocircular images", crossings(),
                "{} crossing cases"),
        _result("earthquake", "isometry images are exactly cocircular", isometry_images()),
    ]


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

    F = BoundaryPoint.finite
    hs = [make_horocycle(F(c), Q(1, 2)) for c in range(3)] + [make_horocycle(INFINITY, 2)]
    g = build_graph(hs)
    good = set(g.edges()) == {(0, 2), (0, 3), (1, 3), (2, 3)}
    autos = automorphisms(g)
    good = good and sorted(a.perm for a in autos) == [(0, 1, 2, 3), (2, 1, 0, 3)]
    iso = isometry_realizing(g, GraphAutomorphism((2, 1, 0, 3)))
    good = good and iso is not None and iso.apply_boundary(F(0)) == F(2)
    gs1 = [make_geodesic(F(-1), F(1)), make_geodesic(F(-3), F(-2)), make_geodesic(F(2), F(3))]
    gs2 = [make_geodesic(F(-2), F(1)), make_geodesic(F(-6), F(-4)), make_geodesic(F(2), F(3))]
    # sigma counterexample: preserves the order, breaks tangency
    sigma = sigma_center_swap(F(0), F(4))
    n = 100 if scale == "small" else 1000
    m = 200 if scale == "small" else 1000

    def adjacencies():
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
            yield None if g.edges() == g2.edges() else f"adjacency changed under {iso!r}"

    def swaps():
        for _ in range(m):
            c = rand_boundary(rng, allow_inf=False)
            s1 = abs(rand_q(rng, 1, 4)) + Q(1, 8)
            s2 = abs(rand_q(rng, 1, 4)) + Q(1, 8)
            h1, h2 = make_horocycle(c, s1), make_horocycle(c, s2)
            if horocycle_leq(h1, h2) is not horocycle_leq(sigma(h1), sigma(h2)):
                yield f"order broken at {c!r}"
        # designed 3-center witness: h(0,1/2) and h(1,1/2) tangent, but after
        # swapping centers 0 <-> 4 the pair is far apart
        w1, w2 = hs[0], hs[1]
        separated = not intersection_pattern(sigma(w1), sigma(w2)).tangent
        if not (intersection_pattern(w1, w2).tangent and separated):
            yield "tangent pair (0,1) not separated by the 0<->4 swap"

    return [
        _result("graphs", "isometries preserve disjointness graphs", adjacencies()),
        PropertyResult("graphs", "designed swap realized by an isometry", good,
                       repr(iso) if iso is not None else "no isometry found"),
        PropertyResult("graphs", "earthquake-relabeled geodesic set admits no isometry",
                       isometry_matching(gs1, gs2) is None),
        _result("graphs", "center swap preserves order but breaks tangency", swaps(),
                "tangent pair (0,1) separated by the 0<->4 swap"),
    ]


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
