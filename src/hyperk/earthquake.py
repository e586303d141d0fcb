"""Simple earthquake maps along a single geodesic fault.

An earthquake acts as the identity on the closed unmoved side of the fault
and as the hyperbolic translation with axis = fault and multiplier = shear
on the moved side.  The boundary action is an orientation-preserving circle
homeomorphism fixing both fault endpoints.  The module also contains the
obstruction machinery: a rank test showing pointwise images of horocycles
are not curves, and an exact radius-realizability solver for tangency
patterns of horocycles under a relabeling of their boundary centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ._rational import Q, is_rational, q_str, sqrt_exact
from .errors import InvalidInputError
from .model import (
    INFINITY,
    BoundaryPoint,
    Curve,
    CurveKind,
    Isometry,
    UHPPoint,
    make_geodesic,
    rational_points,
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

    ``e`` may be an EarthquakeMap or an Isometry.  On failure the result
    carries four image points certifying non-cocircularity."""
    if sample_count < 8:
        raise InvalidInputError("sample_count must be at least 8")
    samples = rational_points(c, sample_count)
    if len(samples) < 4:
        raise InvalidInputError("fewer than 4 usable samples on the curve")
    if isinstance(e, Isometry):
        return _cocircular_exact([e.apply_point(p) for p in samples])
    # fixed sampling can miss a narrow crossing of the fault entirely, so
    # add exact points straddling the fault whenever both sides are reachable
    samples = samples + _fault_straddling_points(e, c)
    return _cocircular_exact([eq_apply(e, p) for p in samples])


def _fault_straddling_points(e: EarthquakeMap, c: Curve) -> List[UHPPoint]:
    """Rational points of c close to its crossings of the fault, a few on
    each side.  Works in fault-normalized coordinates (fault = vertical
    axis), where crossing chord slopes solve a rational quadratic."""
    e1, e2 = sorted(e.fault.endpoints, key=BoundaryPoint.sort_key)
    n = two_point_normalizer(e2, e1)  # fault -> the vertical axis x = 0
    ninv = n.inverse()
    cp = n.apply_curve(c)
    a, b, cc, d = (Q(v) for v in cp.circle.coeffs())
    out: List[UHPPoint] = []

    def emit(x, y):
        if y > 0:
            out.append(ninv.apply_point(UHPPoint(x, y)))

    delta = Q(1, 64)
    if a == 0:
        if cc == 0 or b == 0:
            return []  # parallel to or equal to the fault axis
        # line b x + cc y + d = 0 crosses x = 0 at y = -d/cc
        for dx in (-delta, delta):
            emit(dx, -(b * dx + d) / cc)
        return out
    from .model import _base_boundary_point

    x0 = _base_boundary_point(cp)
    # chord of slope t through (x0, 0) lands at x(t) = 0 iff
    # a x0 t^2 - cc t - (a x0 + b) = 0
    qa, qb, qc = a * x0, -cc, -(a * x0 + b)
    roots: List[float] = []
    if qa == 0:
        if qb != 0:
            roots.append(float(-qc / qb))
    else:
        disc = float(qb * qb - 4 * qa * qc)
        if disc >= 0:
            s = math.sqrt(disc)
            roots.extend(((-float(qb) + s) / (2 * float(qa)),
                          (-float(qb) - s) / (2 * float(qa))))
    from fractions import Fraction

    for t_star in roots:
        tq = Fraction(t_star).limit_denominator(10**9)
        for dt in (-delta, delta):
            t = Q(tq.numerator, tq.denominator) + dt
            den = a * (1 + t * t)
            u = -(2 * a * x0 + b + cc * t) / den
            if u == 0:
                continue
            emit(x0 + u, t * u)
    return out


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


class _RadiusSystem:
    """Union-find over radius variables with multiplicative weights.

    Every variable i satisfies rho_i = coef_i * rho_root^(exp_i) with
    exp_i in {+1, -1} and rational coef_i > 0.  Tangency equalities are
    product constraints (rho_i * rho_j = K) or ratio constraints
    (rho_i = K * rho_j); roots may get pinned to rho_root^2 = v.
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

    def _conflict_equal(self, lhs: Q, prod_or_ratio: str, i: int, j: int, con: Constraint):
        ri, rj = self.value(i), self.value(j)
        if prod_or_ratio == "product" and ri is not None and rj is not None:
            msg = f"{q_str(4 * lhs)} ≠ 4·{_fmt(ri)}·{_fmt(rj)}"
        elif prod_or_ratio == "ratio" and ri is not None and rj is not None:
            msg = f"{_fmt(ri)} ≠ {q_str(lhs)}·{_fmt(rj)}"
        else:
            msg = f"inconsistent tangency constraint between radii {i} and {j}"
        self.conflict = Unsatisfiable(msg, self._cycle(i, j, con))

    def add_product(self, i: int, j: int, k: Q, con: Constraint) -> bool:
        """Impose rho_i * rho_j = k."""
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
        # rho_r2 = (k/(c1 c2))^(e2) * rho_r1^(-e1 e2)
        q = k / (c1 * c2)
        self.parent[r2] = r1
        self.exp[r2] = -e1 * e2
        self.coef[r2] = q if e2 == 1 else 1 / q
        self.edge[r2] = con
        pin2 = self.pin.pop(r2, None)
        if pin2 is not None:
            # rho_r2^2 = coef^2 * rho_r1^(2 exp)
            v = pin2 / (self.coef[r2] ** 2)
            return self._pin_root(r1, v if self.exp[r2] == 1 else 1 / v, con, i, j)
        return True

    def add_ratio(self, i: int, j: int, k: Q, con: Constraint) -> bool:
        """Impose rho_i = k * rho_j."""
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
        # c1 rho_r1^e1 = k c2 rho_r2^e2
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


def _pair_gap(p: BoundaryPoint, q: BoundaryPoint):
    """(kind, K): product constraint rho_i rho_j = K for finite pairs
    ((p-q)^2 / 4), ratio constraint rho_inf = 2 rho_p when one is oo."""
    if p.is_infinity or q.is_infinity:
        return ("ratio", Q(2))
    d = p.value - q.value
    return ("product", d * d / 4)


def tangency_realizability(inst: RealizabilityInstance):
    """Decide whether positive radii at the relabeled centers realize the
    required tangent/disjoint/crossing pattern.  Tangency equalities are
    solved symbolically in multiplicative (log-linear) form; inequalities
    are then checked exactly on the solution manifold, with a numeric
    feasibility search over any remaining free parameters."""
    centers = inst.relabeled_centers
    n = len(centers)
    sys = _RadiusSystem(n)

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if inst.required_pattern[i][j] is not None]

    def tangency_order(pair):
        i, j = pair
        # ratio (infinity) constraints first: they keep radii proportional
        # and let pins resolve to concrete radii before products close cycles
        has_inf = centers[i].is_infinity or centers[j].is_infinity
        return (0 if has_inf else 1, i, j)

    tangents = sorted(
        (p for p in pairs if inst.required_pattern[p[0]][p[1]] is PairRequirement.TANGENT),
        key=tangency_order,
    )
    for i, j in tangents:
        kind, k = _pair_gap(centers[i], centers[j])
        if kind == "ratio":
            # orient so the infinity-center radius is the larger one
            a, b = (i, j) if centers[i].is_infinity else (j, i)
            con = Constraint(
                PairRequirement.TANGENT, a, b,
                f"rho({centers[a]!r}) = 2 rho({centers[b]!r})",
            )
            ok = sys.add_ratio(a, b, k, con)
        else:
            d2 = 4 * k
            con = Constraint(
                PairRequirement.TANGENT, i, j,
                f"({centers[i]!r} - {centers[j]!r})^2 = {q_str(d2)} = "
                f"4 rho({centers[i]!r}) rho({centers[j]!r})",
            )
            ok = sys.add_product(i, j, k, con)
        if not ok:
            return sys.conflict

    # inequality checks on the solution manifold: every comparison of
    # radii products/ratios squares to a rational once each root carries a
    # value for rho_root^2, so assign free roots and compare exactly
    ineqs = [p for p in pairs
             if inst.required_pattern[p[0]][p[1]] is not PairRequirement.TANGENT]

    def root_data(i):
        r, e, c = sys.find(i)
        return r, e, c

    def expr_square(i, j, mode, vals):
        """(lhs_expr)^2 as a rational: rho_i*rho_j (product mode) or
        rho_i/rho_j (ratio mode) squared, with rho_root^2 taken from vals."""
        r1, e1, c1 = root_data(i)
        r2, e2, c2 = root_data(j)
        if mode == "ratio":
            e2, c2 = -e2, 1 / c2
        sq = (c1 * c2) ** 2
        for r, e in ((r1, e1), (r2, e2)):
            v = vals[r]
            sq = sq * v if e == 1 else sq / v
        return sq

    free_roots = sorted(
        {root_data(i)[0] for i in range(n)} - set(sys.pin.keys())
    )

    def check_all(vals):
        violations = []
        for i, j in ineqs:
            req = inst.required_pattern[i][j]
            kind, k = _pair_gap(centers[i], centers[j])
            if kind == "ratio":
                a, b = (i, j) if centers[i].is_infinity else (j, i)
                if centers[a] == centers[b]:
                    raise InvalidInputError("two radii at the same center")
                lhs_sq = expr_square(a, b, "ratio", vals)  # (rho_a/rho_b)^2
                target = k * k  # 4
                # disjoint iff rho(oo) > 2 rho(p)
                ok = (lhs_sq > target) if req is PairRequirement.DISJOINT else (lhs_sq < target)
                if not ok:
                    violations.append((i, j))
                continue
            else:
                if centers[i] == centers[j]:
                    # same-center horocycles: any two distinct radii are
                    # disjoint; never tangent or crossing
                    if req is PairRequirement.DISJOINT:
                        continue
                    violations.append((i, j))
                    continue
                lhs_sq = expr_square(i, j, "product", vals)  # (rho_i rho_j)^2
                target = k * k  # ((p-q)^2/4)^2
            ok = (lhs_sq < target) if req is PairRequirement.DISJOINT else (lhs_sq > target)
            if not ok:
                violations.append((i, j))
        return violations

    def radii_for(vals):
        out, exact = [], True
        for i in range(n):
            r, e, c = root_data(i)
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
        sol = _search_free_values(
            sys, inst, centers, ineqs, free_roots, dict(sys.pin), root_data
        )
        if sol is not None and not check_all(sol):
            return radii_for(sol)

    # no assignment works: report the violated inequalities together with
    # the tangency constraints that rigidify the radii
    vio = check_all(base_vals)
    i, j = vio[0]
    req = inst.required_pattern[i][j]
    ri, rj = sys.value(i), sys.value(j)
    kind, k = _pair_gap(centers[i], centers[j])
    if kind == "product" and ri is not None and rj is not None:
        rel = ">" if req is PairRequirement.DISJOINT else "<"
        msg = (
            f"need ({centers[i]!r} - {centers[j]!r})^2 = {q_str(4 * k)} "
            f"{rel} 4·{_fmt(ri)}·{_fmt(rj)}"
        )
    else:
        msg = f"required {req.value} pair ({i}, {j}) is violated on the solution manifold"
    closing = Constraint(req, i, j, msg)
    return Unsatisfiable(msg, sys._cycle(i, j, closing))


def _search_free_values(sys, inst, centers, ineqs, free_roots, pinned, root_data):
    """Numeric feasibility search over the free parameters, in log space
    where every inequality is linear; the result is rationalized and later
    re-verified exactly by the caller."""
    try:
        from scipy.optimize import linprog
    except Exception:  # pragma: no cover - scipy is a hard dependency
        return None

    idx = {r: k for k, r in enumerate(free_roots)}
    nv = len(free_roots)
    # variables: x_r = ln(rho_root^2) for free roots, plus the margin m
    a_ub, b_ub = [], []

    def add(coeffs: Dict[int, float], const: float, sense: str):
        # sum coeffs*x + const < 0 (sense "<") or > 0 (sense ">"), with a
        # positive margin; pinned roots fold into the constant term
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
        kind, k = _pair_gap(centers[i], centers[j])
        if kind == "ratio":
            a, b = (i, j) if centers[i].is_infinity else (j, i)
            r1, e1, c1 = root_data(a)
            r2, e2, c2 = root_data(b)
            e2, c2 = -e2, 1 / c2
            target = float(k * k)
            # disjoint iff rho(oo)/rho(p) > 2
            sense = ">" if req is PairRequirement.DISJOINT else "<"
            coeffs: Dict[int, float] = {}
            for r, e in ((r1, e1), (r2, e2)):
                coeffs[r] = coeffs.get(r, 0.0) + float(e)
            const = 2.0 * math.log(float(c1 * c2)) - math.log(target)
            add(coeffs, const, sense)
            continue
        else:
            if centers[i] == centers[j]:
                continue
            r1, e1, c1 = root_data(i)
            r2, e2, c2 = root_data(j)
            target = float(k * k)
        coeffs: Dict[int, float] = {}
        for r, e in ((r1, e1), (r2, e2)):
            coeffs[r] = coeffs.get(r, 0.0) + float(e)
        const = 2.0 * math.log(float(c1 * c2)) - math.log(target) if target > 0 else 0.0
        if target <= 0:
            return None
        sense = "<" if req is PairRequirement.DISJOINT else ">"
        add(coeffs, const, sense)

    c_obj = [0.0] * nv + [-1.0]  # maximize margin
    bounds = [(-60.0, 60.0)] * nv + [(0.0, 10.0)]
    res = linprog(c_obj, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success or res.x[nv] <= 1e-9:
        return None
    from fractions import Fraction

    vals = dict(pinned)
    for r in free_roots:
        x = res.x[idx[r]]
        t = Fraction(math.exp(x / 2.0)).limit_denominator(10**6)
        if t <= 0:
            t = Fraction(1)
        vals[r] = Q(t.numerator, t.denominator) ** 2
    return vals


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
