"""Constructive gadgets: dyadic horocycle chains, tangency witnesses,
pinching pairs, continuous families and their limits, four-geodesic
configurations, the center-swap relabeling, and image normalizers.

Universally quantified geometric statements are checked by exact finite
enumeration where the statement is combinatorial (boundary arc classes),
and against documented probe sets and deterministic sample grids where it
is not (family limits).  A witness search certifies a crossing pair by
exact points of one curve on both sides of the other
(`model.straddling_points`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ._rational import Q, sqrt_exact
from .errors import (
    HyperkError,
    IndeterminateLimitError,
    InvalidInputError,
    NoSolutionError,
)
from .model import (
    EPS,
    BoundaryPoint,
    Curve,
    CurveKind,
    GeneralizedCircle,
    INFINITY,
    Isometry,
    UHPPoint,
    curve_from_coeffs,
    make_geodesic,
    make_horocycle,
    rational_points,
    straddling_points,
    two_point_normalizer,
)
from .predicates import intersection_pattern, linked

#: Default number of sample-grid points for continuous families
#: (Chebyshev-spaced; escalated twice on indeterminate classifications).
DEFAULT_GRID_SIZE = 65

#: Endpoint magnitude beyond which a family is treated as having divergent
#: endpoints (limit horocycle centered at infinity).
_DIVERGENCE_BOUND = 1e8


# ---------------------------------------------------------------------------
# dyadic horocycle chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DyadicFamily:
    """Horocycles of Euclidean radius 1/2^(k+1) centered at n/2^k,
    consecutive members tangent at (x_n + x_{n+1})/2 + i/2^(k+1)."""

    level: int
    n_min: int
    n_max: int
    horocycles: Tuple[Curve, ...]
    tangency_points: Tuple[UHPPoint, ...]


def dyadic_family(k: int, n_min: int, n_max: int) -> DyadicFamily:
    """The level-k dyadic horocycle chain for n in [n_min, n_max]."""
    if k < 0:
        raise InvalidInputError("level must be nonnegative")
    if n_min >= n_max:
        raise InvalidInputError("need n_min < n_max")
    radius = Q(1, 2 ** (k + 1))
    centers = [Q(n, 2 ** k) for n in range(n_min, n_max + 1)]
    horocycles = tuple(make_horocycle(BoundaryPoint.finite(c), radius) for c in centers)
    tangencies = tuple(
        UHPPoint((centers[i] + centers[i + 1]) / 2, radius)
        for i in range(len(centers) - 1)
    )
    return DyadicFamily(k, n_min, n_max, horocycles, tangencies)


# ---------------------------------------------------------------------------
# Type-1 witness construction
# ---------------------------------------------------------------------------


def _chord_side(x: UHPPoint, y: UHPPoint, px, py):
    """Sign of the cross product placing (px, py) relative to the chord x->y."""
    return (y.x - x.x) * (py - x.y) - (y.y - x.y) * (px - x.x)


def opposite_sides_of_point(h: Curve, p: UHPPoint, x: UHPPoint, y: UHPPoint) -> bool:
    """Are x and y on opposite sides of p along the arc of h?  All exact."""
    for q in (p, x, y):
        if not q.exact or not h.circle.contains_point(q.x, q.y):
            raise InvalidInputError("points must be exact and lie on the curve")
    a = h.circle.a
    if a == 0:
        return (x.x - p.x) * (y.x - p.x) < 0
    # p lies between x and y along the y>0 arc iff p and the real-axis chord
    # midpoint (cx, 0) fall on opposite sides of the chord [x, y]
    cx = Q(-h.circle.b, 2 * a)
    sp = _chord_side(x, y, p.x, p.y)
    sb = _chord_side(x, y, cx, Q(0))
    return sp != 0 and sb != 0 and (sp > 0) != (sb > 0)


def hyp1_witness(h1: Curve, h2: Curve, x: UHPPoint, y: UHPPoint) -> Curve:
    """A hypercycle through x and y disjoint from h2, for a tangent
    (Type 1) pair h1, h2 with x, y on h1 on opposite sides of the
    tangency point.

    Candidate circles through x and y have centers on the perpendicular
    bisector of [x, y]; the center is moved away from h2 until exact
    disjointness is certified.
    """
    pat = intersection_pattern(h1, h2)
    if not pat.tangent or pat.shared_endpoints != 0:
        raise InvalidInputError("hyp1_witness needs a Type 1 (tangent) pair")
    p = pat.interior_points[0]
    if not opposite_sides_of_point(h1, p, x, y):
        raise InvalidInputError("x and y must lie on opposite sides of the tangency")
    mid = ((x.x + y.x) / 2, (x.y + y.y) / 2)
    # perpendicular direction of the chord, rescaled to unit-ish size and
    # oriented away from p
    nx, ny = -(y.y - x.y), (y.x - x.x)
    scale = max(abs(nx), abs(ny))
    nx, ny = nx / scale, ny / scale
    toward_p = nx * (p.x - mid[0]) + ny * (p.y - mid[1])
    if toward_p > 0:
        nx, ny = -nx, -ny
    # candidate centers along the bisector: (1) geometric ladder away from
    # the tangency, then toward it; (2) perturbations of h1's own center,
    # which give near-h1 circles that peel off h2 at the tangency in either
    # nesting orientation
    anchors = [((mid[0], mid[1]), range(-16, 24))]
    if h1.circle.a != 0:
        o1 = (Q(-h1.circle.b, 2 * h1.circle.a), Q(-h1.circle.c, 2 * h1.circle.a))
        anchors.append((o1, range(-1, -40, -1)))
    for (ax, ay), exponents in anchors:
        for dx, dy in ((nx, ny), (-nx, -ny)):
            for exponent in exponents:
                s = Q(2) ** exponent if exponent >= 0 else Q(1, 2 ** (-exponent))
                ox, oy = ax + s * dx, ay + s * dy
                r2 = (x.x - ox) ** 2 + (x.y - oy) ** 2
                try:
                    cand = curve_from_coeffs(
                        1, -2 * ox, -2 * oy, ox * ox + oy * oy - r2
                    )
                except InvalidInputError:
                    continue
                if (
                    cand.kind in (CurveKind.HYPERCYCLE, CurveKind.GEODESIC)
                    and cand != h1
                ):
                    cpat = intersection_pattern(cand, h2)
                    if cpat.interior_count == 0 and cpat.shared_endpoints == 0:
                        return cand
    raise NoSolutionError("no disjoint witness found in the search ladder")


def witness_family_search(h1: Curve, h2: Curve, samples: int = 40):
    """Search for a witness curve through two points of h1, one on each side
    of h1's meeting with h2, that is disjoint from h2.

    Returns (witness, certificate).  When h1 crosses h2, no connected
    witness through points of h1 on opposite sides of h2's circle can avoid
    h2: the certificate names such a pair, found near a crossing, and
    witness is None.  For tangent pairs the ladder search of hyp1_witness
    runs on `samples` rational points of h1.
    """
    pat = intersection_pattern(h1, h2)
    if not pat.tangent:
        pairs = straddling_points(h1, h2.circle, pat.interior_points)
        if pairs:
            # the two points lie in different components of the half-plane
            # cut by h2, so every connected curve through both crosses h2:
            # exact impossibility certificate
            return None, {
                "separated_pair": pairs[0],
                "reason": "points of h1 on opposite sides of h2; any curve "
                "through both must cross h2",
            }
        return None, {"reason": "no straddling pair found and pair not tangent"}
    pts = rational_points(h1, samples)
    p = pat.interior_points[0]
    for i, xi in enumerate(pts):
        for yj in pts[i + 1:]:
            if opposite_sides_of_point(h1, p, xi, yj):
                try:
                    w = hyp1_witness(h1, h2, xi, yj)
                    return w, {"through": (xi, yj)}
                except (NoSolutionError, InvalidInputError):
                    continue
    return None, {"reason": "ladder search exhausted"}


# ---------------------------------------------------------------------------
# pinching pairs
# ---------------------------------------------------------------------------


def pinch_pair(h0: Curve, h: Curve) -> Tuple[Curve, Curve]:
    """Horocycles tangent to both of the disjoint horocycles h0 and h.

    Returns the two tangency solutions; when the elimination degenerates to
    a single solution (equal sizes at finite centers), that unique horocycle
    fills both slots.  Solutions with irrational centers are returned as
    inexact curves.
    """
    for c in (h0, h):
        if c.kind is not CurveKind.HOROCYCLE:
            raise InvalidInputError("pinch_pair needs two horocycles")
    if h0.center == h.center:
        raise NoSolutionError("horocycles share a center: no pinching pair")
    pat = intersection_pattern(h0, h)
    if pat.interior_count != 0:
        raise InvalidInputError("pinch_pair needs disjoint horocycles")
    sols = _solve_pinch(h0, h)
    if not sols:
        raise NoSolutionError("tangency system has no positive-radius solution")
    if len(sols) == 1:
        return (sols[0], sols[0])
    sols.sort(key=lambda c: c.endpoint_floats()[0])
    return (sols[0], sols[1])


def _solve_pinch(h0: Curve, h: Curve) -> List[Curve]:
    c0, c1 = h0.center, h.center
    sols: List[Curve] = []

    def add(p, r):
        if isinstance(p, float):
            if r > EPS:
                sols.append(
                    Curve(
                        GeneralizedCircle(
                            1.0, -2.0 * p, -2.0 * float(r), p * p, exact=False
                        )
                    )
                )
        elif r > 0:
            sols.append(make_horocycle(BoundaryPoint.finite(p), r))

    if c0.is_infinity or c1.is_infinity:
        line, circ = (h0, h) if c0.is_infinity else (h, h0)
        r = line.size / 2  # tangent to y = s forces radius s/2
        q, rq = circ.center.value, circ.size
        d2 = 4 * r * rq
        root = sqrt_exact(d2)
        if root is not None:
            add(q - root, r)
            add(q + root, r)
        else:
            fr = math.sqrt(float(d2))
            add(float(q) - fr, float(r))
            add(float(q) + fr, float(r))
        return sols
    q0, r0 = c0.value, h0.size
    q1, r1 = c1.value, h.size
    A = r1 - r0
    B = -2 * (r1 * q0 - r0 * q1)
    C = r1 * q0 * q0 - r0 * q1 * q1
    if A == 0:
        if B == 0:
            return sols
        p = -C / B
        add(p, (p - q0) ** 2 / (4 * r0))
        return sols
    disc = B * B - 4 * A * C
    if disc < 0:
        return sols
    root = sqrt_exact(disc)
    if root is not None:
        for p in ((-B - root) / (2 * A), (-B + root) / (2 * A)):
            add(p, (p - q0) ** 2 / (4 * r0))
    else:
        fr = math.sqrt(float(disc))
        for p in ((-float(B) - fr) / (2 * float(A)), (-float(B) + fr) / (2 * float(A))):
            add(p, (p - float(q0)) ** 2 / (4 * float(r0)))
    return sols


# ---------------------------------------------------------------------------
# continuous families and limit classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FoliatesComponent:
    """The family sweeps out an entire component of the complement of h_0."""


@dataclass(frozen=True)
class HorocycleLimit:
    curve: Curve


@dataclass(frozen=True)
class HypercycleOrGeodesicLimit:
    curve: Curve


def chebyshev_grid(n: int, lo: float = 0.0, hi: float = 1.0) -> Tuple[float, ...]:
    """n Chebyshev-Lobatto points on [lo, hi], including both ends."""
    if n < 2:
        raise InvalidInputError("grid needs at least 2 points")
    return tuple(
        lo + (hi - lo) * (1 - math.cos(math.pi * j / (n - 1))) / 2 for j in range(n)
    )


class ContinuousFamily:
    """A one-parameter curve family sampled on a deterministic grid.

    curve_at(t) must be defined for t in [0, t_cap]; the default grid is
    DEFAULT_GRID_SIZE Chebyshev points on that interval.
    """

    def __init__(
        self,
        curve_at: Callable[[float], Curve],
        t_cap: float = 1.0,
        grid_size: int = DEFAULT_GRID_SIZE,
        declared_limit: Optional[object] = None,
        reparametrized: bool = False,
    ):
        self.curve_at = curve_at
        self.t_cap = t_cap
        self.grid = chebyshev_grid(grid_size, 0.0, t_cap)
        self.declared_limit = declared_limit
        self.reparametrized = reparametrized

    def with_grid(self, grid_size: int) -> "ContinuousFamily":
        return ContinuousFamily(
            self.curve_at,
            t_cap=self.t_cap,
            grid_size=grid_size,
            declared_limit=self.declared_limit,
            reparametrized=self.reparametrized,
        )

    def members(self, grid: Optional[Sequence[float]] = None) -> List[Curve]:
        return [self.curve_at(t) for t in (self.grid if grid is None else grid)]


def disj_family(h: Curve, hprime: Curve) -> ContinuousFamily:
    """A continuous family of hypercycles starting at hprime and converging
    to the disjoint horocycle h.

    Normalization sends h to the horizontal line y=1 with hprime below it,
    centered on the imaginary axis with endpoints +-b and apex e^(-a); the
    family member at t has endpoints +-b^(1/(1-t)) and apex e^(a(t-1)),
    conjugated back to the original frame.  When the normalized b <= 1 the
    endpoint formula cannot diverge and the family is reparametrized with
    endpoints b*2^(t/(1-t)) instead (flagged via .reparametrized).
    """
    if h.kind is not CurveKind.HOROCYCLE:
        raise InvalidInputError("disj_family needs a horocycle as first argument")
    if hprime.kind is not CurveKind.HYPERCYCLE:
        raise InvalidInputError("disj_family needs a hypercycle as second argument")
    pat = intersection_pattern(h, hprime)
    if pat.interior_count != 0 or pat.shared_endpoints != 0:
        raise InvalidInputError("disj_family needs disjoint curves")

    # step 1: send h's center to infinity and scale the line to y = 1
    if h.center.is_infinity:
        phi = Isometry.scaling(1 / h.size)
    else:
        # z -> -1/(z - c) sends the center c to infinity; h becomes the line
        # y = 1/(2 size); rescale to y = 1
        c = h.center.value
        inv = Isometry(0, -1, 1, -c)
        height = Q(1, 2) / h.size
        phi = Isometry.scaling(1 / height).compose(inv)
    hp1 = phi.apply_curve(hprime)
    # hprime is now a circle below y = 1; translate its endpoints to +-b
    a_, b_, c_, d_ = (Q(v) for v in hp1.circle.coeffs())
    if a_ == 0:
        raise InvalidInputError("hypercycle is not on the bounded side of the horocycle")
    mid = -b_ / (2 * a_)
    phi = Isometry.translation(-mid).compose(phi)
    hp2 = phi.apply_curve(hprime)
    psi = phi.inverse()

    a2, b2, c2, d2 = (Q(v) for v in hp2.circle.coeffs())
    if b2 != 0:
        raise HyperkError(f"normalized hypercycle {hp2!r} is not centered on the axis")
    # endpoints +-b, apex y0 (upper root of a y^2 + c y + d at x = 0)
    b_sq = -d2 / a2
    if not b_sq > 0:
        raise InvalidInputError("normalized hypercycle does not meet the boundary")
    bf = math.sqrt(float(b_sq))
    discy = float(c2 * c2 - 4 * a2 * d2)
    y0 = (-float(c2) + math.sqrt(discy)) / (2 * float(a2))
    if not (0 < y0 < 1):
        raise InvalidInputError("hypercycle is not below the normalized horocycle")
    aa = -math.log(y0)  # a > 0
    reparam = bf <= 1.0

    log_b = math.log(bf) if bf > 0 else 0.0

    def normalized_circle(t: float) -> GeneralizedCircle:
        if reparam:
            log_B = log_b + (t / (1 - t)) * math.log(2.0)
        else:
            log_B = log_b / (1 - t)
        apex = math.exp(aa * (t - 1))
        B2 = math.exp(2 * log_B)
        k = (apex * apex - B2) / (2 * apex)
        return GeneralizedCircle(1.0, 0.0, -2 * k, -B2, exact=False)

    def member(t: float) -> Curve:
        if t <= 0:
            return hprime  # exact
        # transform the raw circle: for large t the normalized member is a
        # near-line whose own classification is ambiguous at float precision,
        # but the conjugated image classifies cleanly
        return Curve(psi.apply_circle(normalized_circle(t)))

    # cap the grid below t = 1 so that B^2 (and its coefficient transforms)
    # stay comfortably within float range
    max_log_B = 60.0 * math.log(10.0)
    if reparam:
        # solve log_b + (t/(1-t)) ln 2 = max_log_B for t
        u = (max_log_B - log_b) / math.log(2.0)
        t_cap = u / (1 + u)
    else:
        t_cap = 1 - log_b / max_log_B
    t_cap = min(t_cap, 1 - 1e-9)
    return ContinuousFamily(
        member,
        t_cap=t_cap,
        declared_limit=HorocycleLimit(h),
        reparametrized=reparam,
    )


def ray_family(alpha0: float = math.pi / 4, alpha1: float = 0.01) -> ContinuousFamily:
    """Rays through 0 sweeping from angle alpha0 down to alpha1 > 0.

    Each member is the oblique line y = tan(alpha_t) x (an inexact
    hypercycle with endpoints 0 and infinity).
    """
    if not (0 < alpha1 < alpha0 < math.pi / 2):
        raise InvalidInputError("need 0 < alpha1 < alpha0 < pi/2")

    def member(t: float) -> Curve:
        alpha = alpha0 * (1 - t) + alpha1 * t
        return Curve(GeneralizedCircle(0.0, math.tan(alpha), -1.0, 0.0, exact=False))

    return ContinuousFamily(member, declared_limit=FoliatesComponent())


def fixed_endpoint_family(apex0: float, apex1: float) -> ContinuousFamily:
    """Hypercycles with endpoints -1, 1 whose apex height decreases from
    apex0 to apex1 > 1; the inclination tends to the strictly positive limit
    of the apex-apex1 curve."""
    if not (apex0 > apex1 > 1):
        raise InvalidInputError("need apex0 > apex1 > 1")

    def member(t: float) -> Curve:
        apex = apex0 * (1 - t) + apex1 * t
        k = (apex * apex - 1) / (2 * apex)
        return Curve(GeneralizedCircle(1.0, 0.0, -2 * k, -1.0, exact=False))

    limit = member(1.0)
    return ContinuousFamily(member, declared_limit=HypercycleOrGeodesicLimit(limit))


def _max_disjoint_horocycle_size(center_x: float, member: Curve) -> Optional[float]:
    """Size of the largest horocycle at finite center center_x disjoint from
    the member curve (external tangency bound)."""
    ecr = member.euclidean_center_radius()
    if ecr is None:
        b, c, d = (float(v) for v in member.circle.coeffs()[1:])
        n = math.hypot(b, c)
        if n <= EPS:
            return None
        # horocycle disk center (x0, s), radius s, tangent to the line:
        # |b x0 + c s + d| = s * n
        val = b * center_x + d
        best = None
        for sign in (1.0, -1.0):
            den = sign * n - c
            if abs(den) > EPS:
                s = val / den
                if s > EPS:
                    best = s if best is None else min(best, s)
        return best
    cx, cy, r = ecr
    num = (center_x - cx) ** 2 + cy * cy - r * r
    tol = 1e-7 * max(1.0, cy * cy + r * r)
    if abs(num) <= tol:
        # member touches the boundary at center_x: horocycles there are
        # nested inside it, bounded by the member's own size
        return cy if cy > EPS else None
    if num > 0:
        # center_x lies outside the member disk: external tangency bound
        den = 2 * (r + cy)
        if abs(den) <= EPS:
            return None
        s = num / den
    else:
        # center_x lies under the member disk: the horocycle must nest
        # inside it (internal tangency), which needs the disk to reach
        # below its own radius
        den = 2 * (cy - r)
        if den >= -EPS:
            return None
        s = num / den
    return s if s > EPS else None


def classify_family_limit(fam: ContinuousFamily, probes: Sequence[Curve]):
    """Classify the limiting behavior of a continuous family at grid
    resolution: FoliatesComponent, HorocycleLimit, or
    HypercycleOrGeodesicLimit.

    m = sup of lower endpoints and M = inf of upper endpoints over the grid
    decide the candidate type; candidates are cross-checked against the
    probe set.  Indeterminate gaps escalate the grid twice before raising.
    """
    sizes = [len(fam.grid), 2 * len(fam.grid) - 1, 4 * len(fam.grid) - 3]
    last_candidates = None
    for n in sizes:
        result = _classify_once(fam.with_grid(n), probes)
        if not isinstance(result, _Indeterminate):
            return result
        last_candidates = result.candidates
    raise IndeterminateLimitError(
        "family limit indeterminate after grid escalation", last_candidates
    )


class _Indeterminate:
    def __init__(self, candidates):
        self.candidates = candidates


def _classify_once(fam: ContinuousFamily, probes: Sequence[Curve]):
    curves = fam.members()
    h0 = curves[0]
    lowers, uppers = [], []
    degenerated_to_line = False
    for c in curves:
        eps = c.endpoint_floats()
        if len(eps) == 1:
            # a member so wide its circle reads as a horizontal line at
            # float precision: endpoints have run off both ends
            if math.isinf(eps[0]):
                degenerated_to_line = True
                continue
            lo = hi = eps[0]
        else:
            lo, hi = eps
        lowers.append(lo)
        uppers.append(hi)
    diverges = degenerated_to_line or (
        lowers
        and min(lowers) < -_DIVERGENCE_BOUND
        and max(uppers) > _DIVERGENCE_BOUND
    )
    if diverges:
        # endpoints run off both ends: the limit is a horizontal-line
        # horocycle at the supremum of the member apex heights
        height = max(c.apex_height() for c in curves if math.isfinite(c.apex_height()))
        declared = fam.declared_limit
        if isinstance(declared, HorocycleLimit) and declared.curve.center.is_infinity:
            # the members approach the limit line from below, so the sup of
            # apex heights underestimates the limit; accept the declared
            # curve within a one-sided band
            ds = float(declared.curve.size)
            if -1e-6 * max(1.0, ds) <= ds - height <= 5e-2 * max(1.0, ds):
                return declared
        return HorocycleLimit(
            Curve(GeneralizedCircle(0.0, 0.0, 1.0, -height, exact=False))
        )
    # read the limiting endpoint interval off the last member: endpoint
    # paths may wrap through infinity under conjugation, so sup/inf over
    # the whole family is not meaningful on the real line
    eps_last = curves[-1].endpoint_floats()
    if len(eps_last) == 1:
        m = M = eps_last[0]
    else:
        m, M = eps_last
    scale = max(1.0, abs(m), abs(M) if not math.isinf(M) else 0.0)
    gap = M - m
    if gap <= 1e-6 * scale:
        # endpoints pinch to a point: horocycle limit centered there
        center = (m + M) / 2
        sizes = [
            s
            for s in (_max_disjoint_horocycle_size(center, c) for c in curves)
            if s is not None
        ]
        if not sizes:
            return _Indeterminate((HorocycleLimit, FoliatesComponent))
        size = min(sizes)
        declared = fam.declared_limit
        if isinstance(declared, HorocycleLimit) and not declared.curve.center.is_infinity:
            dc, ds = float(declared.curve.center.value), float(declared.curve.size)
            # members nest onto the limit horoball from outside, so the
            # maximal-disjoint-size estimate overestimates the limit size
            if (
                abs(dc - center) <= 1e-5 * max(1.0, abs(dc))
                and -1e-6 * max(1.0, ds) <= size - ds <= 5e-2 * max(1.0, ds)
            ):
                return declared
        return HorocycleLimit(
            Curve(
                GeneralizedCircle(
                    1.0, -2.0 * center, -2.0 * size, center * center, exact=False
                )
            )
        )
    if gap <= 1e-4 * scale:
        return _Indeterminate((HorocycleLimit, HypercycleOrGeodesicLimit))
    # m < M decisively: a hypercycle/geodesic limit exists iff some curve
    # with endpoints (m, M) on the family's side is disjoint from every member
    candidates = list(probes)
    declared = fam.declared_limit
    if isinstance(declared, HypercycleOrGeodesicLimit):
        candidates.insert(0, declared.curve)
    h_last = curves[-1]
    side_ref = _representative_point(h0)
    ref_sign = _eval_sign(h_last, side_ref)
    for cand in candidates:
        eps_c = cand.endpoint_floats()
        if len(eps_c) != 2:
            continue
        lo, hi = eps_c
        tol = 1e-5 * scale
        matches = (
            abs(lo - m) <= tol
            and ((math.isinf(hi) and math.isinf(M)) or abs(hi - M) <= tol)
        )
        if not matches:
            continue
        # beyond the last member, on the side the family moves toward
        cp = _representative_point(cand)
        if cp is None or _eval_sign(h_last, cp) == ref_sign:
            continue
        if all(
            c == cand or intersection_pattern(cand, c).interior_count == 0
            for c in curves
        ):
            if isinstance(declared, HypercycleOrGeodesicLimit) and cand == declared.curve:
                return declared
            return HypercycleOrGeodesicLimit(cand)
    return FoliatesComponent()


def _representative_point(curve: Curve):
    """A float point on the curve (its apex, or a point of a line member)."""
    ecr = curve.euclidean_center_radius()
    if ecr is not None:
        cx, cy, r = ecr
        return (cx, cy + r)
    b, c, d = (float(v) for v in curve.circle.coeffs()[1:])
    if abs(c) <= EPS:
        return (-d / b, 1.0)
    for x in (0.0, 1.0, -1.0, 2.0, -2.0, 10.0, -10.0):
        y = -(b * x + d) / c
        if y > EPS:
            return (x, y)
    return None


def _eval_sign(curve: Curve, point) -> int:
    v = float(curve.circle.evaluate(point[0], point[1]))
    return 1 if v > 0 else (-1 if v < 0 else 0)


# ---------------------------------------------------------------------------
# four-geodesic configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourGeodesicConfig:
    x1: BoundaryPoint
    x2: BoundaryPoint
    y1: BoundaryPoint
    y2: BoundaryPoint
    g1: Curve
    g2: Curve
    h1: Curve
    h2: Curve
    properties_verified: bool


def _in_cyclic_order(points: Sequence[BoundaryPoint]) -> bool:
    """Are the distinct points in cyclic order on R u {oo}?  With oo above
    every real, that is: going once around the cycle, every step but one
    ascends."""
    keys = [p.sort_key() for p in points]
    return sum(k > keys[i - 1] for i, k in enumerate(keys)) == len(keys) - 1


def _arc_representatives(points: Sequence[BoundaryPoint]) -> List[BoundaryPoint]:
    """One rational representative strictly inside each of the arcs cut out
    of R u {oo} by the given cyclic sequence of points (two per arc, so
    same-arc probe pairs can be formed)."""
    reps: List[BoundaryPoint] = []
    n = len(points)
    for i in range(n):
        a, b = points[i], points[(i + 1) % n]
        reps.extend(_points_inside_arc(a, b))
    return reps


def _points_inside_arc(a: BoundaryPoint, b: BoundaryPoint) -> List[BoundaryPoint]:
    """Two rational points strictly inside the arc from a to b (going in the
    positive cyclic direction: increasing reals, wrapping through oo)."""
    if a.is_infinity:
        # arc (oo, b): reals below b
        v = b.value
        return [BoundaryPoint.finite(v - 2), BoundaryPoint.finite(v - 1)]
    if b.is_infinity:
        v = a.value
        return [BoundaryPoint.finite(v + 1), BoundaryPoint.finite(v + 2)]
    if a.value < b.value:
        lo, hi = a.value, b.value
        return [
            BoundaryPoint.finite(lo + (hi - lo) / 3),
            BoundaryPoint.finite(lo + 2 * (hi - lo) / 3),
        ]
    # wrap arc through infinity
    return [BoundaryPoint.finite(a.value + 1), INFINITY]


@functools.lru_cache(maxsize=None)
def _check_crossing_model() -> bool:
    """Properties 1-3 of the four-geodesic configuration, checked once on
    the reference points (0, 1, 2, oo) by enumerating probe geodesics over
    all endpoint position classes (a marked point, or one of two points
    inside each of the four open arcs).  Raises if a property fails."""
    marked = [BoundaryPoint.finite(v) for v in (0, 1, 2)] + [INFINITY]
    x1, x2, y1, y2 = marked
    g1_pair, g2_pair = (x1, x2), (y1, y2)
    h1_pair, h2_pair = (x1, y1), (x2, y2)
    ok = (
        not linked(g1_pair, g2_pair)
        and linked(h1_pair, h2_pair)
        and not linked(g1_pair, h1_pair)
        and not linked(g2_pair, h2_pair)
    )
    if not ok:
        raise HyperkError("four-geodesic model fails property 1")
    positions = marked + _arc_representatives(marked)
    for i, a in enumerate(positions):
        for b in positions[i + 1:]:
            if a == b:
                continue
            probe = (a, b)
            c_g1, c_g2 = linked(probe, g1_pair), linked(probe, g2_pair)
            c_h1, c_h2 = linked(probe, h1_pair), linked(probe, h2_pair)
            if (c_g1 or c_g2) and not (c_h1 or c_h2):
                raise HyperkError(f"four-geodesic model: property 2 fails for {probe!r}")
            if c_g1 and c_g2 and not (c_h1 and c_h2):
                raise HyperkError(f"four-geodesic model: property 3 fails for {probe!r}")
    return True


def four_geodesic_config(
    x1: BoundaryPoint, x2: BoundaryPoint, y1: BoundaryPoint, y2: BoundaryPoint
) -> FourGeodesicConfig:
    """The configuration g1=(x1,x2), g2=(y1,y2), h1=(x1,y1), h2=(x2,y2) for
    boundary points in cyclic order x1 < x2 < y1 < y2, with its three
    defining properties verified:

      1. g1, g2 disjoint; h1, h2 crossing; g_i disjoint from h_i;
      2. every geodesic crossing g1 or g2 crosses h1 or h2;
      3. every geodesic crossing both g1 and g2 crosses both h1 and h2.

    Two geodesics cross iff their endpoint pairs are linked, and linking
    depends only on the cyclic order of the endpoints.  So a probe
    geodesic's crossings depend only on the position class of each of its
    endpoints (a marked point, or inside one of the four open arcs), and an
    orientation-preserving homeomorphism of R u {oo} taking (x1, x2, y1, y2)
    to (0, 1, 2, oo) maps position classes to position classes.  The
    properties therefore hold for every cyclically ordered quadruple once
    they hold for (0, 1, 2, oo); that model is checked by exact probe
    enumeration once per process, and each call checks only that its points
    are distinct and in cyclic order.
    """
    marked = [x1, x2, y1, y2]
    if len(set(marked)) != 4:
        raise InvalidInputError("the four boundary points must be distinct")
    if not _in_cyclic_order(marked):
        raise InvalidInputError("points must be in cyclic order x1 < x2 < y1 < y2")
    _check_crossing_model()
    g1, g2 = make_geodesic(x1, x2), make_geodesic(y1, y2)
    h1, h2 = make_geodesic(x1, y1), make_geodesic(x2, y2)
    return FourGeodesicConfig(x1, x2, y1, y2, g1, g2, h1, h2, True)


# ---------------------------------------------------------------------------
# the center-swap relabeling and image normalizer
# ---------------------------------------------------------------------------


class CenterSwap:
    """The relabeling h(p,r) <-> h(q,r), identity on all other centers.

    It preserves the horocycle nesting order (which only compares
    same-center pairs) but is not induced by any isometry: it destroys
    tangency patterns across three or more centers.
    """

    def __init__(self, p: BoundaryPoint, q: BoundaryPoint):
        if p.is_infinity or q.is_infinity:
            raise InvalidInputError("center swap needs finite centers")
        self.p = p
        self.q = q
        self.is_identity = p == q

    def __call__(self, h: Curve) -> Curve:
        if h.kind is not CurveKind.HOROCYCLE:
            raise InvalidInputError("center swap acts on horocycles")
        if self.is_identity:
            return h
        if h.center == self.p:
            return make_horocycle(self.q, h.size)
        if h.center == self.q:
            return make_horocycle(self.p, h.size)
        return h

    def boundary_map(self, x: BoundaryPoint) -> BoundaryPoint:
        if x == self.p:
            return self.q
        if x == self.q:
            return self.p
        return x


def sigma_center_swap(p: BoundaryPoint, q: BoundaryPoint) -> CenterSwap:
    return CenterSwap(p, q)


def normalizer_from_images(img_h0: Curve, img_hinf: Curve) -> Isometry:
    """The isometry j sending the tangent horocycle pair (img_h0, img_hinf)
    to the canonical pair (h(0,1/2), h(oo,1)).

    j is a two-point boundary normalizer (centers to 0 and oo) followed by
    the dilation moving the tangency point to i.
    """
    for h in (img_h0, img_hinf):
        if h.kind is not CurveKind.HOROCYCLE:
            raise InvalidInputError("normalizer_from_images needs horocycles")
    pat = intersection_pattern(img_h0, img_hinf)
    if not pat.tangent:
        raise InvalidInputError("the two horocycles must be tangent")
    phi1 = two_point_normalizer(img_hinf.center, img_h0.center)
    contact = pat.interior_points[0]
    if not contact.exact:
        raise InvalidInputError("tangency point must be exact")
    moved = phi1.apply_point(contact)
    if moved.x != 0:
        raise HyperkError(f"tangency of centered horocycles off the axis: {moved!r}")
    j = Isometry.scaling(1 / moved.y).compose(phi1)
    if j.apply_curve(img_h0) != make_horocycle(BoundaryPoint.finite(0), Q(1, 2)):
        raise HyperkError(f"normalizer {j!r} does not send {img_h0!r} to h(0, 1/2)")
    if j.apply_curve(img_hinf) != make_horocycle(INFINITY, 1):
        raise HyperkError(f"normalizer {j!r} does not send {img_hinf!r} to h(oo, 1)")
    return j
