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
from collections import deque
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ._rational import Q, q_str
from ._record import Record
from .errors import HyperkError, InvalidInputError
from .model import (
    INFINITY,
    BoundaryPoint,
    Curve,
    CurveKind,
    Isometry,
    UHPPoint,
    _homogeneous,
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
        if not fault.has_exact_endpoints:
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

        # the fault equation far left on the axis: a x^2 dominates, or b x on
        # a vertical line, and the canonical form makes a, or else b, positive
        left_sign = 1 if fault.circle.a else -1
        self._moved_sign = left_sign if moved_side == "left" else -left_sign

        # translation along the fault: normalize endpoints (smaller, larger),
        # as the curve keeps them, to (0, oo) and conjugate z -> shear * z back
        e1, e2 = fault.endpoints
        n = two_point_normalizer(e2, e1)  # e2 -> oo, e1 -> 0
        self._shift = n.inverse().compose(Isometry.scaling(shear)).compose(n)

    def side_sign(self, z: Union[UHPPoint, BoundaryPoint]) -> int:
        """Sign of the fault equation at z (0 on the fault's closure), exact;
        an irrational point is refused (`QuadraticPoint`)."""
        if isinstance(z, UHPPoint):
            return self.fault.circle.sign_at(z.x, z.y)
        v = self.fault.circle.evaluate_boundary(z)
        return (v > 0) - (v < 0)

    def moves(self, z: Union[UHPPoint, BoundaryPoint]) -> bool:
        return self.side_sign(z) == self._moved_sign

    def __call__(self, z):
        return eq_apply(self, z)

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


class PointwiseImageResult(Record):
    """Outcome of the cocircularity rank test on pointwise image samples."""

    __slots__ = ("is_curve", "witness")

    def __init__(self, is_curve: bool,
                 witness: Optional[Tuple[UHPPoint, UHPPoint, UHPPoint, UHPPoint]] = None):
        self.is_curve, self.witness = is_curve, witness

    def __bool__(self):
        return self.is_curve


def _cocircular_exact(points: Sequence[UHPPoint]) -> PointwiseImageResult:
    """Exact rank test: do all points satisfy one generalized-circle
    equation a(x^2+y^2)+bx+cy+d = 0?  Rank of the incidence rows
    [x^2+y^2, x, y, 1] at most 3 iff yes; otherwise four points spanning
    rank 4 are the witness.

    The row of the point (X/W, Y/W) is taken times W^2 and reduced
    fraction-free: a step replaces it by a nonzero multiple of what
    elimination over Q gives, so the pivots and the witness are the same."""
    pivots: List[Tuple[List[int], int, UHPPoint]] = []
    for pt in points:
        X, Y, W = _homogeneous(pt.x, pt.y)
        row = [X * X + Y * Y, X * W, Y * W, W * W]
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


#: rational points of the curve that `pointwise_image_is_curve` maps
SAMPLE_COUNT = 12


def pointwise_image_is_curve(e, c: Curve) -> PointwiseImageResult:
    """Map SAMPLE_COUNT rational points of c pointwise through e and test
    whether the images are cocircular (lie on one generalized circle).

    ``e`` may be an EarthquakeMap or an Isometry.  For an earthquake the
    samples also hold a pair of points on both sides of each transversal
    crossing of the fault, so a curve that crosses it is not a curve.  On
    failure the result carries four image points certifying
    non-cocircularity."""
    samples = rational_points(c, SAMPLE_COUNT)
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


class RealizabilityInstance(Record):
    """Do positive radii at the relabeled centers realize the required
    pairwise pattern?

    For finite centers p, q with radii r, s: tangent iff (p-q)^2 = 4 r s,
    disjoint iff >, crossing iff <.  For center infinity against finite p:
    tangent iff r(oo) = 2 r(p), disjoint iff >, crossing iff <.
    """

    __slots__ = ("centers", "relabeled_centers", "required_pattern")
    __hash__ = None

    def __init__(self, centers: List[BoundaryPoint], relabeled_centers: List[BoundaryPoint],
                 required_pattern: List[List[Optional[PairRequirement]]]):
        self.centers, self.relabeled_centers = centers, relabeled_centers
        self.required_pattern = required_pattern
        n = len(self.relabeled_centers)
        if len(self.centers) != n:
            raise InvalidInputError("centers and relabeled centers differ in length")
        if len(self.required_pattern) != n or any(
            len(row) != n for row in self.required_pattern
        ):
            raise InvalidInputError("pattern matrix must be n x n")
        for req in (r for row in self.required_pattern for r in row):
            if req is not None and not isinstance(req, PairRequirement):
                raise InvalidInputError(f"pattern entry {req!r} is not a PairRequirement or None")
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


class Constraint(Record):
    """One pairwise requirement listed by an `Unsatisfiable` certificate;
    built only for the pairs that such an answer lists."""

    __slots__ = ("kind", "i", "j", "text")

    def __init__(self, kind: PairRequirement, i: int, j: int, text: str):
        self.kind, self.i, self.j, self.text = kind, i, j, text

    def to_record(self):
        return {"kind": self.kind.value, "i": self.i, "j": self.j, "text": self.text}


class Satisfiable(Record):
    """Rational radii that realize the pattern (``exact`` is always True).
    ``forced[i]`` says whether the tangencies pinned radius i (else the
    solver chose it); the record gives each radius's source and the larger
    bit length of its numerator and denominator."""

    __slots__ = ("radii", "exact", "forced")

    def __init__(self, radii: Tuple[object, ...], exact: bool, forced: Tuple[bool, ...] = ()):
        self.radii, self.exact, self.forced = radii, exact, forced

    def to_record(self):
        rec = {
            "result": "satisfiable",
            "exact": self.exact,
            "radii": [q_str(r) for r in self.radii],
        }
        if self.forced:
            rec["provenance"] = [
                {"source": "forced" if f else "chosen",
                 "bits": max(r.numerator.bit_length(), r.denominator.bit_length())}
                for f, r in zip(self.forced, self.radii)
            ]
        return rec


class Unsatisfiable(Record):
    __slots__ = ("message", "cycle")

    def __init__(self, message: str, cycle: Tuple[Constraint, ...]):
        self.message, self.cycle = message, cycle

    def to_record(self):
        return {
            "result": "unsatisfiable",
            "message": self.message,
            "cycle": [c.to_record() for c in self.cycle],
        }


def _ratio(n: int, d: int) -> Tuple[int, int]:
    """The positive rational n / d as a reduced pair of ints."""
    g = math.gcd(n, d)
    return n // g, d // g


def _text(p: Tuple[int, int]) -> str:
    n, d = p
    return str(n) if d == 1 else f"{n}/{d}"


def _fmt(p: Tuple[int, int]) -> str:
    return f"({_text(p)})" if p[1] != 1 else _text(p)


def _over(k, c1, c2, s: int) -> Tuple[int, int]:
    """k / (c1 * c2^s) for pairs and s = +-1, not reduced."""
    (n1, d1), (n2, d2) = c1, c2 if s == 1 else c2[::-1]
    return k[0] * d1 * d2, k[1] * n1 * n2


def _monomial(centers: Sequence[BoundaryPoint], i: int, j: int):
    """(u, v, s, k) for horocycles i, j at distinct centers, read as
    integer pairs (oo = (1, 0)): they are tangent iff rho_u * rho_v^s = k,
    disjoint iff s * (rho_u * rho_v^s - k) < 0, and crossing otherwise.
    Finite centers p, q give s = 1 and k = (p - q)^2 / 4; a center at oo is
    u, with s = -1 and k = 2.  k is an int pair, not always reduced."""
    (x, m), (y, n) = centers[i], centers[j]
    if not m:
        return i, j, -1, (2, 1)
    if not n:
        return j, i, -1, (2, 1)
    t = x * n - y * m
    return i, j, 1, (t * t, 4 * (m * n) ** 2)


def _sqrt(p: Tuple[int, int]) -> Optional[Tuple[int, int]]:
    """Exact square root of a reduced pair, or None if it is irrational."""
    n, d = p
    a, b = math.isqrt(n), math.isqrt(d)
    return (a, b) if a * a == n and b * b == d else None


class _RadiusSystem:
    """Union-find over radius variables with multiplicative weights.

    Every variable i satisfies rho_i = coef_i * rho_root^(exp_i) with
    exp_i in {+1, -1} and coef_i > 0.  Each tangency is one equation
    rho_u * rho_v^s = k with s in {+1, -1} and k > 0, kept as its data
    (u, v, s, k); roots may get pinned to rho_root^2 = v.  Every rational
    here is a pair (n, d) of positive ints, reduced for coef and pins.

    The tangencies that merged two components form a spanning forest of the
    tangency graph; every other tangency closes a cycle in it, and a pin
    rests on the cycle of the tangency that made it (`pinned_by`).  A
    conflict lists the tangencies on those cycles and on the forest paths
    joining them, so the listed pairs alone are unsatisfiable; only then
    are their `Constraint`s and texts built.  After the last tangency
    nothing changes the union-find, so `find` may be read once per radius.
    """

    def __init__(self, centers: Sequence[BoundaryPoint]):
        self.centers, n = centers, len(centers)
        self.parent = list(range(n))
        self.exp = [1] * n  # rho_i = coef * rho_parent^exp
        self.coef = [(1, 1)] * n
        self.forest: List[List[Tuple[int, tuple]]] = [[] for _ in range(n)]
        self.pin: Dict[int, Tuple[int, int]] = {}  # root -> rho_root^2
        self.pinned_by: Dict[int, tuple] = {}  # root -> tangency (u, v, s, k)
        self.conflict: Optional[Unsatisfiable] = None

    def find(self, i: int) -> Tuple[int, int, Tuple[int, int]]:
        e, n, d = 1, 1, 1
        while self.parent[i] != i:
            # rho = c * (c2 * rho_p^e2)^e = c * c2^e * rho_p^(e*e2)
            cn, cd = self.coef[i]
            if e == 1:
                n, d = n * cn, d * cd
            else:
                n, d = n * cd, d * cn
            e *= self.exp[i]
            i = self.parent[i]
        return i, e, (n, d)

    def _walk(self, i: int, j: int) -> list:
        """The tangencies on the forest path from i to j."""
        prev, todo = {i: None}, [i]
        for u in todo:
            for v, t in self.forest[u]:
                if v not in prev:
                    prev[v] = (u, t)
                    todo.append(v)
        out = []
        while j != i:
            j, t = prev[j]
            out.insert(0, t)
        return out

    def _constraint(self, t) -> Constraint:
        """The certificate line of the tangency t = (u, v, s, k)."""
        u, v, s, k = t
        cu, cv = self.centers[u], self.centers[v]
        if s == 1:
            text = (f"({cu!r} - {cv!r})^2 = {_text(_ratio(4 * k[0], k[1]))} = "
                    f"4 rho({cu!r}) rho({cv!r})")
        else:
            text = f"rho({cu!r}) = {_text(k)} rho({cv!r})"
        return Constraint(PairRequirement.TANGENT, u, v, text)

    def _cycle(self, ends, closing: list) -> Tuple[Constraint, ...]:
        """The tangencies on the forest paths between each pair in ends,
        then those in closing, each once."""
        seen = []
        for t in [t for i, j in ends for t in self._walk(i, j)] + closing:
            if t not in seen:
                seen.append(t)
        return tuple(self._constraint(t) for t in seen)

    def support(self, i: int, j: int, closing: Constraint) -> Tuple[Constraint, ...]:
        """The tangencies that tie rho_i to rho_j and fix their pinned
        roots, then closing."""
        (r1, _e, _c), (r2, _e, _c) = self.find(i), self.find(j)
        ends, pins = [(i, j)] if r1 == r2 else [], []
        for r, x in ((r1, i), (r2, j)):
            t = self.pinned_by.get(r)
            if t is not None and t not in pins:
                ends += [(t[0], t[1]), (t[0], x)]
                pins.append(t)
        return self._cycle(ends, pins) + (closing,)

    def value(self, i: int) -> Optional[Tuple[int, int]]:
        """Exact radius if determined (root pinned to a square), else None."""
        r, e, (n, d) = self.find(i)
        t = _sqrt(self.pin[r]) if r in self.pin else None
        if t is None:
            return None
        return _ratio(n * t[0], d * t[1]) if e == 1 else _ratio(n * t[1], d * t[0])

    def _pin_root(self, r: int, v, why) -> bool:
        """Pin rho_r^2 = v, forced by the cycle that tangency `why` closes."""
        old = self.pin.get(r)
        if old is not None and old != v:
            was = self.pinned_by[r]
            self.conflict = Unsatisfiable(
                f"rho^2 forced to both {_text(old)} and {_text(v)}",
                self._cycle([was[:2], why[:2], (was[0], why[0])], [was, why]),
            )
            return False
        self.pin[r], self.pinned_by[r] = v, why
        return True

    def add(self, i: int, j: int, s: int, k) -> bool:
        """Impose the tangency rho_i * rho_j^s = k."""
        r1, e1, c1 = self.find(i)
        r2, e2, c2 = self.find(j)
        t = (i, j, s, k)
        # the equation reads rho_r1^e1 * rho_r2^(s e2) = q
        q = _ratio(*_over(k, c1, c2, s))
        if r1 == r2:
            if e1 + s * e2 == 0:
                return True if q == (1, 1) else self._conflict(t)
            # rho_r1^(2 e1) = q
            return self._pin_root(r1, q if e1 == 1 else q[::-1], t)
        # s e2 = +-1 is its own inverse: rho_r2 = q^(s e2) * rho_r1^(-e1 s e2)
        self.parent[r2] = r1
        self.exp[r2] = -e1 * s * e2
        c = self.coef[r2] = q if s * e2 == 1 else q[::-1]
        self.forest[i].append((j, t))
        self.forest[j].append((i, t))
        pin2 = self.pin.pop(r2, None)
        if pin2 is not None:
            # rho_r2^2 = coef^2 * rho_r1^(2 exp)
            v = _ratio(*_over(pin2, c, c, 1))
            why = self.pinned_by.pop(r2)
            return self._pin_root(r1, v if self.exp[r2] == 1 else v[::-1], why)
        return True

    def _conflict(self, t) -> bool:
        # tangencies at oo (s = -1) come first, and among themselves they
        # only say that a radius at oo is twice a finite one, which closes no
        # inconsistent cycle; so a conflict between known radii is a product
        i, j, s, k = t
        ri, rj = self.value(i), self.value(j)
        if s == 1 and ri is not None and rj is not None:
            msg = f"{_text(_ratio(4 * k[0], k[1]))} ≠ 4·{_fmt(ri)}·{_fmt(rj)}"
        else:
            msg = f"inconsistent tangency constraint between radii {i} and {j}"
        self.conflict = Unsatisfiable(msg, self._cycle([(i, j)], [t]))
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
    most 1.

    The centers are read as the integer pairs they are, and every rational
    the solver keeps is a pair (n, d) of positive ints, compared by
    cross-multiplication; a `Fraction` is built only for the returned
    radii.  After the tangencies the union-find is read once, one `find`
    per horocycle.  A `Constraint` and its text are built only for an
    unsatisfiable answer, for the pairs it lists."""
    centers = inst.relabeled_centers
    pattern = inst.required_pattern
    n = len(centers)
    sys = _RadiusSystem(centers)
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
        if not sys.add(*forms[pair]):
            return sys.conflict
    # the forest is final: each radius as (root, exp, coef), read once
    roots = [sys.find(i) for i in range(n)]

    # each inequality on the solution manifold: (rho_u rho_v^s)^2 =
    # coef^2 * prod (rho_r^2)^e over roots r, so with B = k^2 / coef^2 it
    # holds iff sgn * (prod (rho_r^2)^e - B) < 0
    ineqs = []
    for (i, j), (u, v, s, k) in forms.items():
        req = pattern[i][j]
        if req is PairRequirement.TANGENT:
            continue
        (r1, e1, c1), (r2, e2, c2) = roots[u], roots[v]
        exps = {r1: e1}
        exps[r2] = exps.get(r2, 0) + s * e2
        sgn = s if req is PairRequirement.DISJOINT else -s
        bn, bd = _over(k, c1, c2, s)  # k / coef
        ineqs.append((i, j, sgn, exps, (bn * bn, bd * bd)))

    def radii_for(vals):
        # every value is a square: chosen ones by construction, and a pin
        # closes a tangency cycle whose constants k are squares except the
        # factors 2 at oo, which come in pairs (a cycle enters and leaves oo)
        out, forced = [], []
        for r, e, (cn, cd) in roots:
            forced.append(r in sys.pin)
            tn, td = _sqrt(vals[r])
            out.append(Q(cn * tn, cd * td) if e == 1 else Q(cn * td, cd * tn))
        return Satisfiable(tuple(out), True, tuple(forced))

    free_roots = sorted({r for r, _e, _c in roots} - set(sys.pin))
    vals = dict(sys.pin)
    for r in free_roots:
        vals[r] = (1, 1)
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
                f"need ({centers[i]!r} - {centers[j]!r})^2 = {_text(_ratio(4 * k[0], k[1]))} "
                f"{rel} 4·{_fmt(ri)}·{_fmt(rj)}"
            )
        else:
            msg = f"required {req.value} pair ({i}, {j}) is violated on the solution manifold"
        closing = Constraint(req, i, j, msg)
        return Unsatisfiable(msg, sys.support(i, j, closing))

    # a pair at one center needs rho_i != rho_j: keep the side of equality
    # that vals is on, or solve again with one side required.  The
    # inequalities hold on an open set, so both sides fail only when the
    # tangencies force the two radii equal.
    for i in range(n):
        for j in range(i + 1, n):
            if pattern[i][j] is None or centers[i] != centers[j]:
                continue
            (r1, e1, c1), (r2, e2, c2) = roots[i], roots[j]
            exps = {r1: e1}
            exps[r2] = exps.get(r2, 0) - e2
            # (rho_i / rho_j)^2 against B = (c2 / c1)^2; sgn 1: < B, sgn -1: > B
            bn, bd = _over((1, 1), c1, c2, -1)
            sides = [(i, j, sgn, exps, (bn * bn, bd * bd)) for sgn in (1, -1)]
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
                    return Unsatisfiable(msg, sys.support(i, j, closing))
            ineqs.append(side)
    return radii_for(vals)


def _violations(ineqs, vals):
    """The pairs (i, j) whose inequality (i, j, sgn, exps, B), which holds
    iff sgn * (prod (rho_r^2)^e - B) < 0, fails exactly at vals, the value
    of rho_r^2 for every root r; every rational is an int pair."""
    out = []
    for i, j, sgn, exps, (bn, bd) in ineqs:
        n = d = 1
        for r, e in exps.items():
            pn, pd = vals[r]
            if e < 0:
                pn, pd, e = pd, pn, -e
            n, d = n * pn ** e, d * pd ** e
        lhs, rhs = n * bd, bn * d
        if not (lhs < rhs if sgn > 0 else lhs > rhs):
            out.append((i, j))
    return out


def _free_values(ineqs, free_roots, pinned):
    """rho_r^2 for every root, the pinned ones as given and the free ones
    chosen so that every inequality holds exactly, or None when a cycle
    proves that no choice does.  Values and bounds are int pairs, the values
    reduced.

    In x_r = ln(rho_r^2) each inequality reads a x_r + b x_q < ln B over
    the free roots, with a, b in {-1, 0, 1}, or 2a x_r < ln B; pinned
    roots fold into the rational bound B > 0.  That is a two-variable-per-
    inequality ("octagon") system (Lahiri & Musuvathi 2005; Mine 2006).
    Its doubled graph has nodes 2k for +x_r and 2k + 1 for -x_r, r the
    k-th free root; a x_r + b x_q < ln B is the arc -b x_q -> a x_r with
    bound B and its mirror -a x_r -> b x_q, and a x_r < ln B is the arc
    -a x_r -> a x_r with bound B^2.  The system holds for some real x iff
    the bounds along every cycle multiply to more than 1, which
    `_potentials` decides.

    When they do, the bounds divided by mu = 1 + 2^-j, for j = 1, 2, 4, ...
    until they have potentials too, give x_r = ln(P_2k / P_2k+1) / 2 with
    slack mu in every inequality; each rho_r is then rounded down to a
    short binary fraction inside that slack."""
    node = {r: 2 * k for k, r in enumerate(free_roots)}
    bounds = {}  # arc (from, to) -> least bound
    for _i, _j, sgn, exps, (bn, bd) in ineqs:
        terms = []
        for r, e in exps.items():
            if r not in node:
                pn, pd = pinned[r]  # B / pinned^e
                if e < 0:
                    pn, pd, e = pd, pn, -e
                bn, bd = bn * pd ** e, bd * pn ** e
            elif e:
                terms.append((node[r], sgn * e))
        if sgn < 0:
            bn, bd = bd, bn
        if not terms:
            if bn <= bd:
                return None
            continue
        (u, a), *rest = terms
        if rest:
            (q, c), = rest
            arcs = ((q + (c > 0), u + (a < 0)), (u + (a > 0), q + (c < 0)))
        else:
            arcs = ((u + (a > 0), u + (a < 0)),)
            if abs(a) == 1:
                bn, bd = bn * bn, bd * bd
        b = _ratio(bn, bd)
        for arc in arcs:
            old = bounds.get(arc)
            if old is None or b[0] * old[1] < old[0] * b[1]:
                bounds[arc] = b

    m = 2 * len(free_roots)
    vals = dict(pinned)
    j = 1
    while (pot := _potentials({a: (bn << j, bd * ((1 << j) + 1))
                               for a, (bn, bd) in bounds.items()}, m)) is None:
        # no potentials with slack mu: a cycle of product at most 1 has
        # none without slack either; otherwise mu is too large
        if j == 1 and _potentials(bounds, m) is None:
            return None
        j *= 2
    for k, r in enumerate(free_roots):
        (pn, pd, _c), (qn, qd, _c) = pot[2 * k], pot[2 * k + 1]
        tn, td = pn * qd, pd * qn  # rho_r^4 at the potentials
        # rho_r = p / 2^b with p = floor((t 2^(4b))^(1/4)) >= 2^(j+4) =
        # 16 / (mu - 1) gives t / sqrt(mu) < rho_r^4 <= t, which keeps the
        # slack
        b = max(0, -((tn.bit_length() - td.bit_length() - 17 - 4 * j) // 4))
        p = math.isqrt(math.isqrt((tn << 4 * b) // td))
        rn, rd = _ratio(p, 1 << b)
        vals[r] = (rn * rn, rd * rd)
    if _violations(ineqs, vals):
        raise HyperkError("exact potentials failed the exact check")
    return vals


def _potentials(bounds, m):
    """Bellman-Ford on nodes 0 .. m-1 and the arcs u -> v with bounds
    (n, d) in `bounds`: potentials (n, d, arcs) with P_v <= P_u * B on
    every arc, from a start of (1, 1) at every node, or None when the bounds
    along some cycle multiply to at most 1.

    Potentials are unreduced int pairs compared by cross-multiplication.  A
    tie goes to the walk of more arcs, so a cycle of product exactly 1 keeps
    improving as one below 1 does.  Without such a cycle every improvement
    follows a simple walk, so a walk of m arcs proves one.  Before each
    improvement of v from u the parent pointers are walked back from u:
    meeting v closes a cycle that improves on itself, which also proves
    one, and stopping there keeps the potentials from growing around it."""
    pot = [(1, 1, 0)] * m
    parent = [None] * m
    out = [[] for _ in range(m)]
    for (u, v), (bn, bd) in bounds.items():
        out[u].append((v, bn, bd))
    todo, queued = deque(range(m)), [True] * m
    while todo:
        u = todo.popleft()
        queued[u] = False
        un, ud, uc = pot[u]
        for v, bn, bd in out[u]:
            vn, vd, vc = pot[v]
            lhs, rhs = un * bn * vd, vn * ud * bd
            if lhs < rhs or lhs == rhs and uc >= vc:
                w = u
                while w is not None and w != v:
                    w = parent[w]
                if w == v or uc + 1 == m:
                    return None
                pot[v], parent[v] = (un * bn, ud * bd, uc + 1), u
                if not queued[v]:
                    todo.append(v)
                    queued[v] = True
    return pot


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
