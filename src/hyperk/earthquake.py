"""Simple earthquake maps along a single geodesic fault.

An earthquake acts as the identity on the closed unmoved side of the fault
and as the hyperbolic translation with axis = fault and multiplier = shear
on the moved side.  The boundary action is an orientation-preserving circle
homeomorphism fixing both fault endpoints.  The module also contains the
obstruction machinery: a rank test showing pointwise images of curves that
cross the fault are not curves (its samples include exact points on both
sides of every crossing, from `model.straddling_points`), and an exact
radius-realizability solver for tangency patterns of horocycles under a
relabeling of their boundary centers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ._rational import Q, is_rational, q_str, sqrt_exact
from .errors import HyperkError, InvalidInputError
from .model import (
    INFINITY,
    BoundaryPoint,
    Curve,
    CurveKind,
    Isometry,
    UHPPoint,
    make_geodesic,
    make_horocycle,
    rational_points,
    straddling_points,
    two_point_normalizer,
)
from .predicates import intersection_pattern


# ---------------------------------------------------------------------------
# earthquake maps


class EarthquakeMap:
    """Identity on one closed side of a geodesic fault, hyperbolic
    translation along the fault (multiplier = shear) on the other side.

    ``moved_side`` is ``"left"`` or ``"right"``: the left side is the
    component whose closure contains boundary points smaller than every
    fault endpoint.  Points on the fault itself (and its endpoints) belong
    to the unmoved side, so the map is a well-defined bijection.
    """

    __slots__ = ("fault", "shear", "moved_side", "_moved_sign", "_shift")

    def __init__(self, fault: Curve, shear, moved_side: str = "left"):
        if fault.kind is not CurveKind.GEODESIC:
            raise InvalidInputError("earthquake fault must be a geodesic")
        if not fault.exact or not fault.has_exact_endpoints:
            raise InvalidInputError("earthquake fault needs rational endpoints")
        shear = Q(shear)
        if not shear > 0:
            raise InvalidInputError("shear must be a positive rational")
        if shear == 1:
            raise InvalidInputError("shear must differ from 1")
        if moved_side not in ("left", "right"):
            raise InvalidInputError("moved_side must be 'left' or 'right'")
        self.fault = fault
        self.shear = shear
        self.moved_side = moved_side

        # sign of the fault equation on the left side: evaluate far to the
        # left of both endpoints on the boundary
        a, b, _c, d = fault.circle.coeffs()
        if a != 0:
            left_sign = 1 if a > 0 else -1  # a x^2 dominates as x - > -oo
        else:
            left_sign = -1 if b > 0 else 1
        self._moved_sign = left_sign if moved_side == "left" else -left_sign

        # translation along the fault: normalize endpoints (smaller, larger)
        # to (0, oo) and conjugate z -> shear * z back
        e1, e2 = sorted(fault.endpoints, key=BoundaryPoint.sort_key)
        n = two_point_normalizer(e2, e1)  # e2 -> oo, e1 -> 0
        self._shift = n.inverse().compose(Isometry.scaling(shear)).compose(n)

    def side_sign(self, z: Union[UHPPoint, BoundaryPoint]) -> int:
        """Sign of the fault equation at z (0 on the fault's closure)."""
        if isinstance(z, UHPPoint) and z.exact:
            return self.fault.circle.sign_at(z.x, z.y)
        if isinstance(z, BoundaryPoint):
            v = self.fault.circle.evaluate_boundary(z)
        else:
            v = self.fault.circle.evaluate(z.x, z.y)
        return 0 if v == 0 else (1 if v > 0 else -1)

    def moves(self, z: Union[UHPPoint, BoundaryPoint]) -> bool:
        return self.side_sign(z) == self._moved_sign

    def __call__(self, z):
        return eq_apply(self, z)

    def boundary_map(self, p: BoundaryPoint) -> BoundaryPoint:
        return eq_apply(self, p)

    def __repr__(self):
        return (
            f"EarthquakeMap(fault={self.fault!r}, shear={q_str(self.shear)}, "
            f"moved_side={self.moved_side!r})"
        )


def eq_apply(e: EarthquakeMap, z):
    """Apply the earthquake to an interior or boundary point."""
    if isinstance(z, BoundaryPoint):
        return e._shift.apply_boundary(z) if e.moves(z) else z
    if isinstance(z, UHPPoint):
        return e._shift.apply_point(z) if e.moves(z) else z
    raise InvalidInputError("eq_apply expects a UHPPoint or BoundaryPoint")


def eq_geodesic_image(e: EarthquakeMap, g: Curve) -> Curve:
    """The graph-level action on a geodesic: the geodesic spanned by the
    boundary images of its endpoints (not the pointwise image)."""
    if g.kind is not CurveKind.GEODESIC:
        raise InvalidInputError("eq_geodesic_image expects a geodesic")
    if not g.has_exact_endpoints:
        raise InvalidInputError("geodesic needs rational endpoints")
    p, q = g.endpoints
    return make_geodesic(eq_apply(e, p), eq_apply(e, q))


@dataclass(frozen=True)
class PointwiseImageResult:
    """Outcome of the cocircularity rank test on pointwise image samples."""

    is_curve: bool
    witness: Optional[Tuple[UHPPoint, UHPPoint, UHPPoint, UHPPoint]] = None

    def __bool__(self):
        return self.is_curve


def _cocircular_exact(points: Sequence[UHPPoint]) -> PointwiseImageResult:
    """Exact rank test: do all points satisfy one generalized-circle
    equation a(x^2+y^2)+bx+cy+d = 0?  Rank of the incidence rows
    [x^2+y^2, x, y, 1] at most 3 iff yes; otherwise four points spanning
    rank 4 are the witness.

    Each row is scaled to integers and reduced fraction-free: a step
    replaces it by a nonzero multiple of what elimination over Q gives, so
    the pivots and the witness are the same."""
    pivots: List[Tuple[List[int], int, UHPPoint]] = []
    for pt in points:
        x, y = Q(pt.x), Q(pt.y)
        xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
        row = [(xn * yd) ** 2 + (yn * xd) ** 2, xn * xd * yd * yd,
               yn * yd * xd * xd, (xd * yd) ** 2]
        for prow, lead, _src in pivots:
            f = row[lead]
            if f:
                g = prow[lead]
                row = [r * g - f * p for r, p in zip(row, prow)]
        lead = next((i for i, v in enumerate(row) if v), None)
        if lead is not None:
            g = math.gcd(*row)
            pivots.append(([v // g for v in row], lead, pt))
            if len(pivots) == 4:
                return PointwiseImageResult(
                    False, tuple(src for _row, _lead, src in pivots)
                )
    return PointwiseImageResult(True)


def pointwise_image_is_curve(
    e, c: Curve, sample_count: int = 12
) -> PointwiseImageResult:
    """Map sample_count rational points of c pointwise through e and test
    whether the images are cocircular (lie on one generalized circle).

    ``e`` may be an EarthquakeMap or an Isometry.  For an earthquake the
    samples also hold a pair of points on both sides of each transversal
    crossing of the fault, so a curve that crosses it is not a curve.  On
    failure the result carries four image points certifying
    non-cocircularity."""
    if sample_count < 8:
        raise InvalidInputError("sample_count must be at least 8")
    samples = rational_points(c, sample_count)
    if len(samples) < 4:
        raise InvalidInputError("fewer than 4 usable samples on the curve")
    if isinstance(e, Isometry):
        return _cocircular_exact([e.apply_point(p) for p in samples])
    # fixed sampling can miss a narrow crossing of the fault entirely, so
    # add exact points on both sides of every crossing
    pat = intersection_pattern(c, e.fault)
    crossings = () if pat.tangent else pat.interior_points
    for pair in straddling_points(c, e.fault.circle, crossings):
        samples.extend(pair)
    return _cocircular_exact([eq_apply(e, p) for p in samples])


# ---------------------------------------------------------------------------
# radius realizability for relabeled horocycle tangency patterns


class PairRequirement(Enum):
    TANGENT = "tangent"
    DISJOINT = "disjoint"
    CROSSING = "crossing"


@dataclass
class RealizabilityInstance:
    """Do positive radii at the relabeled centers realize the required
    pairwise pattern?

    For finite centers p, q with radii r, s: tangent iff (p-q)^2 = 4 r s,
    disjoint iff >, crossing iff <.  For center infinity against finite p:
    tangent iff r(oo) = 2 r(p), disjoint iff >, crossing iff <.
    """

    centers: List[BoundaryPoint]
    relabeled_centers: List[BoundaryPoint]
    required_pattern: List[List[Optional[PairRequirement]]]

    def __post_init__(self):
        n = len(self.relabeled_centers)
        if len(self.centers) != n:
            raise InvalidInputError("centers and relabeled centers differ in length")
        if len(self.required_pattern) != n or any(
            len(row) != n for row in self.required_pattern
        ):
            raise InvalidInputError("pattern matrix must be n x n")
        for i in range(n):
            for j in range(i + 1, n):
                if self.required_pattern[i][j] != self.required_pattern[j][i]:
                    raise InvalidInputError("pattern matrix must be symmetric")
                req = self.required_pattern[i][j]
                if req in (PairRequirement.TANGENT, PairRequirement.CROSSING):
                    if self.relabeled_centers[i] == self.relabeled_centers[j]:
                        raise InvalidInputError(
                            "tangent/crossing pairs need distinct relabeled centers"
                        )


@dataclass(frozen=True)
class Constraint:
    """One processed pairwise requirement, for certificates."""

    kind: PairRequirement
    i: int
    j: int
    text: str

    def to_record(self):
        return {"kind": self.kind.value, "i": self.i, "j": self.j, "text": self.text}


@dataclass(frozen=True)
class Satisfiable:
    radii: Tuple[object, ...]  # rationals, or floats when irrational
    exact: bool

    def to_record(self):
        return {
            "result": "satisfiable",
            "exact": self.exact,
            "radii": [q_str(r) if is_rational(r) else repr(r) for r in self.radii],
        }


@dataclass(frozen=True)
class Unsatisfiable:
    message: str
    cycle: Tuple[Constraint, ...]

    def to_record(self):
        return {
            "result": "unsatisfiable",
            "message": self.message,
            "cycle": [c.to_record() for c in self.cycle],
        }


def _fmt(v) -> str:
    s = q_str(Q(v))
    return f"({s})" if "/" in s or s.startswith("-") else s


def _monomial(centers: Sequence[BoundaryPoint], i: int, j: int):
    """(u, v, s, k) for horocycles i, j at distinct centers: they are
    tangent iff rho_u * rho_v^s = k, disjoint iff s * (rho_u * rho_v^s - k)
    < 0, and crossing otherwise.  Finite centers p, q give s = 1 and
    k = (p - q)^2 / 4; a center at oo is u, with s = -1 and k = 2."""
    p, q = centers[i], centers[j]
    if p.is_infinity:
        return i, j, -1, Q(2)
    if q.is_infinity:
        return j, i, -1, Q(2)
    d = p.value - q.value
    return i, j, 1, d * d / 4


class _RadiusSystem:
    """Union-find over radius variables with multiplicative weights.

    Every variable i satisfies rho_i = coef_i * rho_root^(exp_i) with
    exp_i in {+1, -1} and rational coef_i > 0.  Each tangency is one
    equation rho_i * rho_j^s = k with s in {+1, -1} and k > 0; roots may
    get pinned to rho_root^2 = v.
    """

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.exp = [1] * n  # rho_i = coef * rho_parent^exp
        self.coef = [Q(1)] * n
        self.edge: List[Optional[Constraint]] = [None] * n
        self.pin: Dict[int, Q] = {}  # root -> value of rho_root^2
        self.conflict: Optional[Unsatisfiable] = None

    def find(self, i: int) -> Tuple[int, int, Q]:
        e, c = 1, Q(1)
        while self.parent[i] != i:
            e2, c2 = self.exp[i], self.coef[i]
            # rho = c * (c2 * rho_p^e2)^e = c * c2^e * rho_p^(e*e2)
            c = c * (c2 if e == 1 else 1 / c2)
            e = e * e2
            i = self.parent[i]
        return i, e, c

    def _path(self, i: int) -> List[Constraint]:
        out = []
        while self.parent[i] != i:
            out.append(self.edge[i])
            i = self.parent[i]
        return out

    def _cycle(self, i: int, j: int, closing: Constraint) -> Tuple[Constraint, ...]:
        seen = []
        for c in self._path(i) + self._path(j) + [closing]:
            if c is not None and c not in seen:
                seen.append(c)
        return tuple(seen)

    def value(self, i: int):
        """Exact radius if determined (root pinned to a square), else None."""
        r, e, c = self.find(i)
        if r not in self.pin:
            return None
        t = sqrt_exact(self.pin[r])
        if t is None:
            return None
        return c * t if e == 1 else c / t

    def _pin_root(self, r: int, v: Q, con: Constraint, i: int, j: int) -> bool:
        old = self.pin.get(r)
        if old is not None and old != v:
            self.conflict = Unsatisfiable(
                f"rho^2 forced to both {q_str(old)} and {q_str(v)}",
                self._cycle(i, j, con),
            )
            return False
        self.pin[r] = v
        return True

    def add(self, i: int, j: int, s: int, k: Q, con: Constraint) -> bool:
        """Impose rho_i * rho_j^s = k."""
        r1, e1, c1 = self.find(i)
        r2, e2, c2 = self.find(j)
        # the equation reads rho_r1^e1 * rho_r2^(s e2) = q
        q = k / (c1 * c2 ** s)
        if r1 == r2:
            if e1 + s * e2 == 0:
                return True if q == 1 else self._conflict(i, j, s, k, con)
            return self._pin_root(r1, q ** e1, con, i, j)  # rho_r1^(2 e1) = q
        # s e2 = +-1 is its own inverse: rho_r2 = q^(s e2) * rho_r1^(-e1 s e2)
        self.parent[r2] = r1
        self.exp[r2] = -e1 * s * e2
        self.coef[r2] = q ** (s * e2)
        self.edge[r2] = con
        pin2 = self.pin.pop(r2, None)
        if pin2 is not None:
            # rho_r2^2 = coef^2 * rho_r1^(2 exp)
            v = pin2 / (self.coef[r2] ** 2)
            return self._pin_root(r1, v ** self.exp[r2], con, i, j)
        return True

    def _conflict(self, i: int, j: int, s: int, k: Q, con: Constraint) -> bool:
        # tangencies at oo (s = -1) come first, and among themselves they
        # only say that a radius at oo is twice a finite one, which closes no
        # inconsistent cycle; so a conflict between known radii is a product
        ri, rj = self.value(i), self.value(j)
        if s == 1 and ri is not None and rj is not None:
            msg = f"{q_str(4 * k)} ≠ 4·{_fmt(ri)}·{_fmt(rj)}"
        else:
            msg = f"inconsistent tangency constraint between radii {i} and {j}"
        self.conflict = Unsatisfiable(msg, self._cycle(i, j, con))
        return False


def tangency_realizability(inst: RealizabilityInstance):
    """Decide whether positive radii at the relabeled centers realize the
    required tangent/disjoint/crossing pattern.

    Every pair is one monomial rho_u * rho_v^s compared with k (see
    `_monomial`).  Tangencies are solved exactly in multiplicative form;
    every other pair is then a strict inequality in at most two free radii,
    which `_free_values` decides by the cycle test on its doubled
    constraint graph.  Two horocycles at one center are disjoint iff their
    radii differ.  A satisfiable answer carries radii that passed an exact
    check of every inequality; an unsatisfiable one rests on an exact
    tangency conflict or on a cycle whose bounds multiply exactly to at
    most 1."""
    centers = inst.relabeled_centers
    pattern = inst.required_pattern
    n = len(centers)
    sys = _RadiusSystem(n)
    forms = {
        (i, j): _monomial(centers, i, j)
        for i in range(n) for j in range(i + 1, n)
        if pattern[i][j] is not None and centers[i] != centers[j]
    }

    # tangencies with a center at oo (s = -1) first: they keep radii
    # proportional and let pins resolve to concrete radii before products
    # close cycles
    tangents = sorted(
        (p for p in forms if pattern[p[0]][p[1]] is PairRequirement.TANGENT),
        key=lambda p: (forms[p][2], p),
    )
    for pair in tangents:
        u, v, s, k = forms[pair]
        if s == 1:
            text = (f"({centers[u]!r} - {centers[v]!r})^2 = {q_str(4 * k)} = "
                    f"4 rho({centers[u]!r}) rho({centers[v]!r})")
        else:
            text = f"rho({centers[u]!r}) = {q_str(k)} rho({centers[v]!r})"
        if not sys.add(u, v, s, k, Constraint(PairRequirement.TANGENT, u, v, text)):
            return sys.conflict

    # each inequality on the solution manifold: (rho_u rho_v^s)^2 =
    # coef^2 * prod (rho_r^2)^e over roots r, and it holds iff
    # sgn * ((rho_u rho_v^s)^2 - k^2) < 0
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

    free_roots = sorted({sys.find(i)[0] for i in range(n)} - set(sys.pin))
    vals = dict(sys.pin)
    for r in free_roots:
        vals[r] = Q(1)
    vio = _violations(ineqs, vals)
    if vio:
        vals = _free_values(ineqs, free_roots, sys.pin)
    if vals is None:
        # a cycle of bounds proves that no radii work: report the first
        # inequality violated at the start point together with the tangency
        # constraints that rigidify the radii
        i, j = vio[0]
        req = pattern[i][j]
        ri, rj = sys.value(i), sys.value(j)
        _u, _v, s, k = forms[(i, j)]
        if s == 1 and ri is not None and rj is not None:
            rel = ">" if req is PairRequirement.DISJOINT else "<"
            msg = (
                f"need ({centers[i]!r} - {centers[j]!r})^2 = {q_str(4 * k)} "
                f"{rel} 4·{_fmt(ri)}·{_fmt(rj)}"
            )
        else:
            msg = f"required {req.value} pair ({i}, {j}) is violated on the solution manifold"
        closing = Constraint(req, i, j, msg)
        return Unsatisfiable(msg, sys._cycle(i, j, closing))

    # a pair at one center needs rho_i != rho_j: keep the side of equality
    # that vals is on, or solve again with one side required.  The
    # inequalities hold on an open set, so both sides fail only when the
    # tangencies force the two radii equal.
    for i in range(n):
        for j in range(i + 1, n):
            if pattern[i][j] is None or centers[i] != centers[j]:
                continue
            r1, e1, c1 = sys.find(i)
            r2, e2, c2 = sys.find(j)
            exps = {r1: e1}
            exps[r2] = exps.get(r2, 0) - e2
            # sgn 1: (rho_i / rho_j)^2 < 1; sgn -1: > 1
            sides = [(i, j, sgn, c1 / c2, exps, Q(1)) for sgn in (1, -1)]
            side = next((c for c in sides if not _violations([c], vals)), None)
            if side is None:
                for c in sides:
                    found = _free_values(ineqs + [c], free_roots, sys.pin)
                    if found is not None:
                        vals, side = found, c
                        break
                else:
                    msg = (f"horocycles {i} and {j} share the center {centers[i]!r}, "
                           f"but the tangencies force equal radii")
                    closing = Constraint(PairRequirement.DISJOINT, i, j, msg)
                    return Unsatisfiable(msg, sys._cycle(i, j, closing))
            ineqs.append(side)
    return radii_for(vals)


def _violations(ineqs, vals):
    """The pairs (i, j) whose inequality fails exactly at vals, the value
    of rho_r^2 for every root r."""
    out = []
    for i, j, sgn, coef, exps, k2 in ineqs:
        sq = coef * coef
        for r, e in exps.items():
            sq *= vals[r] ** e
        if not sgn * (sq - k2) < 0:
            out.append((i, j))
    return out


#: a float cycle weight up to this is checked exactly as a proof candidate
_CYCLE_TOL = 1e-9


def _free_values(ineqs, free_roots, pinned):
    """rho_r^2 for every root, the pinned ones as given and the free ones
    chosen so that every inequality holds exactly, or None when a cycle
    proves that no choice does.

    In x_r = ln(rho_r^2) each inequality reads a x_r + b x_q < ln B over
    the free roots, with a, b in {-1, 0, 1}, or 2a x_r < ln B; pinned
    roots fold into the rational bound B > 0.  That is a two-variable-per-
    inequality ("octagon") system (Lahiri & Musuvathi 2005; Mine 2006).
    Its doubled graph has nodes 2k for +x_r and 2k + 1 for -x_r, r the
    k-th free root; a x_r + b x_q < ln B is the arc -b x_q -> a x_r with
    bound B and its mirror -a x_r -> b x_q, and a x_r < ln B is the arc
    -a x_r -> a x_r with bound B^2.  The system holds for some real x iff
    the bounds along every cycle multiply to more than 1.

    Floats only propose.  Floyd-Warshall on the logs either points at a
    cycle, whose bounds are then multiplied exactly, or yields potentials
    with a margin, read as short binary fractions and checked exactly.
    When neither settles it, the same steps run on exact rationals: a
    cycle product of at most 1 is the proof of None, and otherwise the
    potentials of the bounds shrunk by a rational margin give radii."""
    node = {r: 2 * k for k, r in enumerate(free_roots)}
    bounds = {}  # arc (from, to) -> least bound
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
    d, hop = _closure(logs, operator.add)
    least, v = min((d[v][v], v) for v in range(m))
    if least <= _CYCLE_TOL:
        cycle = _walk_cycle(hop, v)
        arcs = list(zip(cycle, cycle[1:] + cycle[:1]))
        if all(a in bounds for a in arcs) and math.prod(bounds[a] for a in arcs) <= 1:
            return None
    else:
        # shrink every arc by eps: a simple cycle has at most m arcs, so it
        # keeps half its weight, and every inequality keeps slack eps / 2
        eps = min(1.0, least / (2 * m))
        d, _hop = _closure([[w - eps for w in row] for row in logs], operator.add)
        y = [min(0.0, *(row[v] for row in d)) for v in range(m)]
        # rounding rho_r to `bits` bits moves each inequality's side by at
        # most 2^(1 - bits) <= eps / 4
        bits = min(53, math.ceil(math.log2(8 / eps)))
        for k, r in enumerate(free_roots):
            log2_rho = (y[2 * k] - y[2 * k + 1]) / (4 * math.log(2))
            e = math.floor(log2_rho)
            rho = Q(round(2.0 ** (log2_rho - e + bits))) * Q(2) ** (e - bits)
            vals[r] = rho * rho
        if not _violations(ineqs, vals):
            return vals

    exact = [[bounds.get((u, v), math.inf) for v in range(m)] for u in range(m)]
    d, _hop = _closure(exact, operator.mul)
    least = min(d[v][v] for v in range(m))
    if least <= 1:
        return None
    # mu^m <= least, so the bounds divided by mu still close no cycle
    # below 1, and their potentials leave every inequality slack
    mu = Q(2) if least == math.inf else 1 + (least - 1) / (m * least)
    d, _hop = _closure([[w / mu for w in row] for row in exact], operator.mul)
    y = [min(Q(1), *(row[v] for row in d)) for v in range(m)]
    for k, r in enumerate(free_roots):
        t = y[2 * k] / y[2 * k + 1]  # rho_r^4 at the potentials
        # rho_r = p / 2^b with p = floor((t 2^(4b))^(1/4)) >= 16 / (mu - 1)
        # gives t / sqrt(mu) < rho_r^4 <= t, close enough to keep the slack
        q = t * (mu - 1) ** 4
        b = max(0, -((q.numerator.bit_length() - q.denominator.bit_length() - 17) // 4))
        p = math.isqrt(math.isqrt((t.numerator << 4 * b) // t.denominator))
        vals[r] = Q(p, 1 << b) ** 2
    if _violations(ineqs, vals):
        raise HyperkError("exact potentials failed the exact check")
    return vals


def _closure(w, join):
    """Floyd-Warshall on the arc matrix w (math.inf where there is no arc):
    the least `join` of the arcs along a walk of at least one arc between
    any two nodes, and the first hop of such a walk."""
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
    return d, hop


def _walk_cycle(hop, v):
    """The nodes of the first cycle met by following first hops toward v."""
    walk = [v]
    u = hop[v][v]
    while u not in walk:
        walk.append(u)
        u = hop[u][v]
    return walk[walk.index(u):]


def instance_from_horocycles(
    horocycles: Sequence[Curve],
    boundary_images: Sequence[BoundaryPoint],
) -> RealizabilityInstance:
    """Build a realizability instance from an actual horocycle configuration:
    the required pattern is the configuration's exact pairwise pattern and
    the centers are relabeled by the given boundary images."""
    centers = []
    for h in horocycles:
        if h.kind is not CurveKind.HOROCYCLE:
            raise InvalidInputError("instance_from_horocycles expects horocycles")
        centers.append(h.center)
    if len(boundary_images) != len(horocycles):
        raise InvalidInputError("one boundary image per horocycle is required")
    n = len(horocycles)
    pattern: List[List[Optional[PairRequirement]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            pat = intersection_pattern(horocycles[i], horocycles[j])
            if pat.tangent:
                req = PairRequirement.TANGENT
            elif pat.interior_count == 0:
                req = PairRequirement.DISJOINT
            else:
                req = PairRequirement.CROSSING
            pattern[i][j] = pattern[j][i] = req
    return RealizabilityInstance(centers, list(boundary_images), pattern)


def figure_one_configuration() -> List[Curve]:
    """The four horocycles of the paper's figure 1."""
    F = BoundaryPoint.finite
    return [
        make_horocycle(F(-1), 1),
        make_horocycle(F(1), 1),
        make_horocycle(F(0), Q(1, 4)),
        make_horocycle(INFINITY, 2),
    ]


def figure_one_images() -> List[BoundaryPoint]:
    """Their centres moved by the shear-2 earthquake along (0, oo); no
    horocycles at these centres have the same tangencies."""
    F = BoundaryPoint.finite
    return [F(-2), F(1), F(0), INFINITY]
