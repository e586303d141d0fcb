"""Half-plane model core: boundary points, generalized circles, curves, isometries.

Every curve (geodesic, horocycle, hypercycle) is carried by a generalized
circle a(x^2+y^2) + bx + cy + d = 0 with exact integer coefficients in
canonical form; all classification reduces to integer sign tests.  Every
input is read at its exact value, a float at its binary one, so every
`Curve` is exact, and a pinch witness's irrational data are too, in
Z[sqrt D] (`Surd`), as is an irrational meeting point of two circles
(`QuadraticPoint`), which every reader of a point's exact value refuses.
Pairs of circles are read through the Lorentz form on coefficient vectors
(`_lorentz`, `_d2`), exact on both.  Curves also
yield exact sample points: `rational_points` spreads them along the curve
from a rational point on the axis, and `straddling_points` places them on
both sides of another circle near where the two meet, on chords from an
exact meeting point itself (so a curve with irrational endpoints needs no
point on the axis) and at distances relative to the meeting point's height.

Exact points, sign tests and constructors run on integers.  A
`BoundaryPoint` is the coprime integer pair (m, n) of m/n itself, oo
being (1, 0), so every formula reads its pair and none has a case for
oo; an interior point enters a formula as `_homogeneous` (a point (x, y)
as (X/W, Y/W)), where `_form_at` evaluates a circle.  A `Fraction` is
built only for an image point's coordinates, and for a boundary point's
`value` when that is read.  Each exact circle keeps its coefficient
tuple and Lorentz norm, and each curve its boundary points, all formed
once when it is built; every layer reads the kept points, and `size`
builds its `Fraction` only when read.
`triple_normalizer` wraps `_triple_ints`, which finds and checks the
isometry sending one triple of boundary points to another on their
pairs, so a caller that only tests candidates (`graphs.isometry_matching`)
builds no `Isometry` for them, and builds its answer with
`Isometry._from_coprime`, which skips the reduction `_triple_ints`
already did.  `Isometry.apply_boundary` reduces its integer image, and
`_image` is the one action on a circle's coefficients.  `Isometry`
keeps its entries as denominator-1 `Fraction`s, and `apply_circle` does
`Fraction` arithmetic on purpose until ROADMAP item 1 lands: made
integer, it runs the `pairs` benchmark past the 2^18 samples its buffer
holds, and the buffer's growth shows as a peak-memory regression.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple

from ._rational import Q, isqrt_exact, q_str
from .errors import DegenerateResultError, HyperkError, InvalidInputError


# ---------------------------------------------------------------------------
# boundary and interior points
# ---------------------------------------------------------------------------


class BoundaryPoint(tuple):
    """A point of the circle at infinity, an exact rational or infinity,
    held as the coprime integer pair (m, n) of m/n, n >= 0; oo is (1, 0).

    Every exact formula reads the pair itself, so no formula has a case
    for oo.  Equality and hash are the pair's, so a point equals the plain
    pair it holds; `sort_key`, not the pair, gives the order.  `value`
    builds the `Fraction` (None for oo) only when read."""

    __slots__ = ()

    def __new__(cls, value=None):
        # value None encodes the point at infinity
        return INFINITY if value is None else BoundaryPoint.finite(value)

    def __getnewargs__(self):
        return (self.value,)

    @staticmethod
    def finite(value) -> "BoundaryPoint":
        v = Q(value)
        return _point((v.numerator, v.denominator))

    @property
    def value(self):
        m, n = self
        return Q(m, n) if n else None

    @property
    def is_infinity(self) -> bool:
        return not self[1]

    def __repr__(self):
        m, n = self
        return "oo" if not n else str(m) if n == 1 else f"{m}/{n}"

    def sort_key(self):
        # infinity sorts after every finite value
        return (1, 0) if self.is_infinity else (0, self.value)


def _point(pair) -> BoundaryPoint:
    """The point of a coprime pair (m, n), n >= 0, taken as it is."""
    return tuple.__new__(BoundaryPoint, pair)


INFINITY = _point((1, 0))


def _within_float_range(function):
    """`function`, with a result past the float range (OverflowError from an
    int/int division or a float power) refused as InvalidInputError."""

    @functools.wraps(function)
    def wrapped(*args):
        try:
            return function(*args)
        except OverflowError:
            raise InvalidInputError("the result is outside the float range") from None

    return wrapped


class UHPPoint:
    """Interior point x+iy, y > 0, its coordinates read at their exact
    values.  An irrational meeting point of two circles is a
    `QuadraticPoint`, the one kind of point that is not `exact`."""

    __slots__ = ("x", "y")

    exact = True

    def __init__(self, x, y):
        x, y = Q(x), Q(y)
        if not y > 0:
            raise InvalidInputError(f"point ({x}, {y}) is not in the open half-plane")
        self.x, self.y = x, y

    @_within_float_range
    def as_floats(self) -> Tuple[float, float]:
        return float(self.x), float(self.y)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return f"({q_str(self.x)}, {q_str(self.y)})"


class QuadraticPoint(UHPPoint):
    """An irrational meeting point of two circles (`predicates._line_circle`),
    held exactly: `coords` is its x and y, each a pair (`Surd`, int > 0) in
    lowest terms, as `_surd_quotient` gives it, the two sharing one D.

    Equality is by value, and the hash agrees with it.  It is not `exact`:
    reading `x` or `y` refuses it (InvalidInputError), so does every reader
    of a point at its exact value.  `as_floats` gives its floats
    (`_number`), and its repr its exact text."""

    __slots__ = ("coords",)

    exact = False

    def __init__(self, x, y):
        self.coords = (x, y)

    def __reduce__(self):  # copy and pickle by `coords`, as `x` refuses
        return QuadraticPoint, self.coords

    @property
    def x(self):
        raise InvalidInputError(
            f"point {self!r} is irrational: it has no exact rational coordinates")

    y = x

    @_within_float_range
    def as_floats(self) -> Tuple[float, float]:
        return tuple(_number(P.u, P.v, P.D, W) for P, W in self.coords)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(P * V == R * W for (P, W), (R, V) in zip(self.coords, other.coords))

    def __hash__(self):
        # u/w and the signed square v|v|D/w^2 of v sqrt(D)/w are the same
        # for every pair of one value
        return hash(tuple((Fraction(P.u, W), Fraction(P.v * abs(P.v) * P.D, W * W))
                          for P, W in self.coords))

    def __repr__(self):
        return "({}, {})".format(*(P.quotient_text(W) for P, W in self.coords))


# ---------------------------------------------------------------------------
# generalized circles
# ---------------------------------------------------------------------------


def _coprime_ints(values):
    """The projective class of rational `values` as coprime integers: clear
    denominators, divide by the gcd, make the first nonzero entry positive.

    Ints and Fractions are read through their numerator and denominator;
    any other value (a float, a '3/4' string) is taken at its exact value,
    and a float that is not finite is refused (`Q`)."""
    try:
        lcm = math.lcm(*(v.denominator for v in values))
    except AttributeError:
        values = [Q(v) for v in values]
        lcm = math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (lcm // v.denominator) for v in values]
    g = math.gcd(*ints) or 1
    if next((v for v in ints if v), 0) < 0:
        g = -g
    return [v // g for v in ints]


def _homogeneous(x, y):
    """The rational point (x, y) as integers (X, Y, W), x = X/W, y = Y/W, W > 0."""
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    return xn * yd, yn * xd, xd * yd


def _form_at(k, X, Y, W):
    """W^2 times a(x^2+y^2) + bx + cy + d at (X/W, Y/W), for k = (a, b, c, d)."""
    a, b, c, d = k
    return a * (X * X + Y * Y) + (b * X + c * Y + d * W) * W


def _number(m, n, disc, w):
    """(m + n sqrt(disc)) / w for integers m, n, w != 0 and disc >= 0.

    Integers give an exact rational when disc is a square.  Otherwise the
    value is a float: the square root is taken as an integer scaled by
    2^64, and a sum whose terms would cancel is replaced by its conjugate
    quotient, so neither a discriminant beyond the float range nor
    cancellation costs precision.
    """
    r = math.isqrt(disc)
    if r * r == disc:
        return Q(m + n * r, w)
    r = math.isqrt(disc << 128)
    if (m >= 0) == (n >= 0):
        return ((m << 64) + n * r) / (w << 64)
    return ((m * m - n * n * disc) << 64) / (w * ((m << 64) - n * r))


class Surd:
    """The real number u + v sqrt(D) of integers u, v and D > 0, D not a
    square, so that it is 0 only when u = v = 0.  It plus, minus or times
    an int or a `Surd` of the same D (an int times it too) stays in
    Z[sqrt D], so the Lorentz form (`_lorentz`, `_d2`) of such vectors is exact.
    Equality is by value, whatever the D: u1 = u2, v1^2 D1 = v2^2 D2, and
    v1, v2 of one sign; so the hash is u's."""

    __slots__ = ("u", "v", "D")

    def __init__(self, u: int, v: int, D: int):
        self.u, self.v, self.D = u, v, D

    def _parts(self, other):
        return (other.u, other.v) if isinstance(other, Surd) else (other, 0)

    def __add__(self, other):
        u, v = self._parts(other)
        return Surd(self.u + u, self.v + v, self.D)

    def __sub__(self, other):
        u, v = self._parts(other)
        return Surd(self.u - u, self.v - v, self.D)

    def __mul__(self, other):
        u, v = self._parts(other)
        return Surd(self.u * u + self.v * v * self.D, self.u * v + self.v * u, self.D)

    __rmul__ = __mul__

    def __eq__(self, other):
        u, v = self._parts(other)
        D = other.D if isinstance(other, Surd) else self.D
        return self.u == u and self.v * self.v * self.D == v * v * D and (self.v > 0) == (v > 0)

    def __hash__(self):
        return hash(self.u)

    def sign(self) -> int:
        """-1, 0 or 1 by integer squaring: of u if u^2 > v^2 D, else of v."""
        u, v = self.u, self.v
        big = u if u * u > v * v * self.D else v
        return (big > 0) - (big < 0)

    def quotient_text(self, w: int) -> str:
        """(u+v*sqrt(D))/w for w > 0, in the terms given."""
        u, v = self.u, self.v
        if not v:
            return q_str(Q(u, w))
        text = ("-" if v < 0 else "+" if u else "") + (f"{abs(v)}*" if abs(v) != 1 else "")
        text = (str(u) if u else "") + f"{text}sqrt({self.D})"
        return text if w == 1 else f"({text})/{w}" if u else f"{text}/{w}"

    def __repr__(self):
        return self.quotient_text(1)


def _surd_quotient(u: int, v: int, D: int, w: int):
    """(u + v sqrt(D)) / w, w != 0, as the pair (`Surd`, int > 0) in lowest
    terms."""
    g = math.gcd(u, v, w)
    if w < 0:
        g = -g
    return Surd(u // g, v // g, D), w // g


class GeneralizedCircle:
    """Coefficients of a(x^2+y^2) + bx + cy + d = 0 in canonical form:
    coprime integers with the first nonzero of (a, b, c) positive, the
    coefficients read at their exact values.  Each circle also keeps the
    tuple (a, b, c, d) that `coeffs()` returns and its Lorentz norm <v, v> =
    b^2 + c^2 - 4ad (`_lorentz`) that `nondegeneracy()` returns, both formed
    once here, so that a pass over many pairs (`predicates._iter_pair_counts`)
    reads them instead of forming them again.
    """

    __slots__ = ("a", "b", "c", "d", "_k", "_norm")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = k = tuple(_coprime_ints((a, b, c, d)))
        if k[0] == k[1] == k[2] == 0:
            raise DegenerateResultError("degenerate circle: a = b = c = 0")
        self._k = k
        self._norm = k[1] * k[1] + k[2] * k[2] - 4 * k[0] * k[3]
        if self._norm <= 0:
            raise InvalidInputError(
                f"coefficients ({a}, {b}, {c}, {d}) define a point or empty locus"
            )

    def coeffs(self):
        return self._k

    def nondegeneracy(self):
        """b^2 + c^2 - 4ad; positive for a real circle or line."""
        return self._norm

    def boundary_disc(self):
        """b^2 - 4ad: discriminant of the real-axis trace a x^2 + b x + d."""
        return self.b * self.b - 4 * self.a * self.d

    def evaluate(self, x, y):
        return self.a * (x * x + y * y) + self.b * x + self.c * y + self.d

    def sign_at(self, x, y) -> int:
        """Sign (-1, 0 or 1) of the circle's equation at the rational point
        (x, y), on integers: W^2 times the value at (X/W, Y/W)."""
        v = _form_at(self.coeffs(), *_homogeneous(x, y))
        return (v > 0) - (v < 0)

    def evaluate_boundary(self, p: BoundaryPoint):
        """a m^2 + b m n + d n^2 at p = (m, n), oo = (1, 0): its sign, not its
        size, is the sign of the real-axis trace a x^2 + b x + d at p."""
        m, n = p
        return self.a * m * m + self.b * m * n + self.d * n * n

    def contains_point(self, x, y) -> bool:
        """Does the circle pass through (x, y), read at its exact value?"""
        return self.sign_at(Q(x), Q(y)) == 0

    def __eq__(self, other):
        if not isinstance(other, GeneralizedCircle):
            return NotImplemented
        return self._k == other._k

    def __hash__(self):
        return hash(("gc", self._k))

    def __repr__(self):
        return f"Circle(a={self.a}, b={self.b}, c={self.c}, d={self.d})"


def _lorentz(v, w):
    """<v, w> = b1 b2 + c1 c2 - 2(a1 d2 + a2 d1) for coefficient vectors
    v, w = (a, b, c, d); <v, v> = b^2 + c^2 - 4ad."""
    return v[1] * w[1] + v[2] * w[2] - 2 * (v[0] * w[3] + w[0] * v[3])


def _d2(v, w):
    """<v, v><w, w> - <v, w>^2: negative exactly when the circles of v and w
    are disjoint, zero when they touch (Coxeter, "Inversive distance")."""
    vw = _lorentz(v, w)
    return _lorentz(v, v) * _lorentz(w, w) - vw * vw


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


class CurveKind(Enum):
    GEODESIC = "geodesic"
    HOROCYCLE = "horocycle"
    HYPERCYCLE = "hypercycle"
    HYPERBOLIC_CIRCLE = "hyperbolic_circle"
    NOT_IN_UPPER_HALF_PLANE = "not_in_upper_half_plane"


def classify_curve(circle: GeneralizedCircle) -> CurveKind:
    """Kind of the y>0 restriction, by sign tests on (a, b, c, b^2-4ad)."""
    a, b, c, d = circle.coeffs()
    if a:
        center_above = -c * a > 0  # sign of center height -c/(2a)
        if not c:
            return CurveKind.GEODESIC
        disc = circle.boundary_disc()
        if disc == 0:
            return CurveKind.HOROCYCLE if center_above else CurveKind.NOT_IN_UPPER_HALF_PLANE
        if disc > 0:
            return CurveKind.HYPERCYCLE
        return (
            CurveKind.HYPERBOLIC_CIRCLE
            if center_above
            else CurveKind.NOT_IN_UPPER_HALF_PLANE
        )
    # line b x + c y + d = 0
    if not c:
        return CurveKind.GEODESIC  # vertical line
    if not b:
        # horizontal line y = -d/c
        return CurveKind.HOROCYCLE if -d * c > 0 else CurveKind.NOT_IN_UPPER_HALF_PLANE
    return CurveKind.HYPERCYCLE  # oblique line


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

_CURVE_KINDS = (CurveKind.GEODESIC, CurveKind.HOROCYCLE, CurveKind.HYPERCYCLE)


class Curve:
    """A geodesic, horocycle, or hypercycle with its boundary data.

    A curve with rational endpoints keeps them as `BoundaryPoint`s, integer
    pairs formed once from its coefficients: the two endpoints of a
    geodesic or hypercycle, in increasing order with oo last, or the one
    centre of a horocycle; other curves keep None.  `center` returns the
    kept centre and `endpoints` the kept points.  Every curve is `exact`;
    only a pinch witness (`constructions.PinchWitness`) is not.
    """

    __slots__ = ("circle", "kind", "_boundary")

    exact = True

    def __init__(self, circle: GeneralizedCircle):
        kind = classify_curve(circle)
        if kind not in _CURVE_KINDS:
            raise InvalidInputError(f"locus classifies as {kind.value}, not a curve")
        self.circle = circle
        self.kind = kind
        self._boundary = _boundary_pairs(circle)

    @property
    def endpoints(self) -> Tuple[BoundaryPoint, ...]:
        """Endpoint set on the boundary circle; exact rationals required."""
        if self._boundary is None:
            raise InvalidInputError("curve has irrational endpoints; use endpoint_floats()")
        return self._boundary

    @property
    def has_exact_endpoints(self) -> bool:
        return self._boundary is not None

    @property
    def center(self) -> Optional[BoundaryPoint]:
        """A horocycle's centre; None for other curves."""
        return self._boundary[0] if self.kind is CurveKind.HOROCYCLE else None

    @property
    def size(self):
        """A horocycle's Euclidean radius, or its height when centred at oo;
        None for other curves."""
        if self.kind is not CurveKind.HOROCYCLE:
            return None
        return Q(*_horocycle_size(self.circle.coeffs()))

    # The floats below come from the integers: an integer square root and
    # one correctly rounded division each, so only a result past the float
    # range is refused.

    @_within_float_range
    def endpoint_floats(self):
        """Endpoints as floats, with math.inf standing in for infinity."""
        circle = self.circle
        a, b, _, d = circle.coeffs()
        if a:
            disc = circle.boundary_disc()
            if disc <= 0:
                return (-b / (2 * a),)
            return tuple(float(_number(-b, s, disc, 2 * a)) for s in (-1, 1))
        if not b:
            return (math.inf,)
        return -d / b, math.inf

    @_within_float_range
    def euclidean_center_radius(self):
        """(cx, cy, r) floats for circle-type curves, None for lines."""
        circle = self.circle
        a, b, c, _ = circle.coeffs()
        if not a:
            return None
        w = 2 * a  # a > 0 in canonical form
        return -b / w, -c / w, float(_number(0, 1, circle.nondegeneracy(), w))

    @_within_float_range
    def apex_height(self) -> float:
        """Height of the curve's highest point (inf for non-horizontal lines)."""
        ecr = self.euclidean_center_radius()
        if ecr is None:
            _, b, c, d = self.circle.coeffs()
            if b:
                return math.inf
            return -d / c
        cx, cy, r = ecr
        return cy + r

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Curve):
            return NotImplemented
        return self.circle == other.circle

    def __hash__(self):
        return hash(self.circle)

    def __repr__(self):
        return f"Curve[{self.kind.value}]({self.circle!r})"

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        a, b, c, d = self.circle.coeffs()
        return f"{self.kind.value} a={a} b={b} c={c} d={d}"

    def to_record(self) -> dict:
        a, b, c, d = self.circle.coeffs()
        return {"kind": self.kind.value, "a": str(a), "b": str(b), "c": str(c), "d": str(d)}


def _reduced(m, n) -> BoundaryPoint:
    """The point m/n, oo for n = 0, of integers m, n not both 0."""
    g = math.gcd(m, n)
    if (n or m) < 0:
        g = -g
    return _point((m // g, n // g))


def _boundary_pairs(circle: GeneralizedCircle):
    """The exact curve's boundary data as `BoundaryPoint`s, from its
    coefficients: the centre of a horocycle, else both endpoints in
    increasing order, oo last; None when the endpoints are irrational.  In
    canonical form the first nonzero of (a, b) is positive: a for a circle,
    b for a line that is not horizontal."""
    a, b, _, d = circle.coeffs()
    if a:
        disc = circle.boundary_disc()
        if disc == 0:
            return (_reduced(-b, 2 * a),)
        r = isqrt_exact(disc)
        if r is None:
            return None
        return _reduced(-b - r, 2 * a), _reduced(-b + r, 2 * a)
    if b == 0:
        return (INFINITY,)  # horizontal line: centre at oo
    return _reduced(-d, b), INFINITY


def _horocycle_size(k):
    """(num, den) with num / den the size of the horocycle of the integer
    vector k = (a, b, c, d), at any scale: -c / 2a, or -d / c for a = 0."""
    a, _, c, d = k
    return (-c, 2 * a) if a else (-d, c)


def curve_from_circle(circle: GeneralizedCircle) -> Curve:
    return Curve(circle)


def curve_from_coeffs(a, b, c, d) -> Curve:
    return Curve(GeneralizedCircle(a, b, c, d))


def parse_curve_text(text: str) -> Curve:
    """The curve of a `kind a=A b=B c=C d=D` line, integers A..D."""
    kind_tag, *fields = text.split() or [""]
    values = dict(field.partition("=")[::2] for field in fields)
    try:
        if len(fields) != 4 or sorted(values) != ["a", "b", "c", "d"]:
            raise ValueError
        coeffs = [int(values[key]) for key in "abcd"]
    except ValueError:
        raise InvalidInputError(f"bad curve text {text!r}") from None
    curve = curve_from_coeffs(*coeffs)
    if curve.kind.value != kind_tag:
        raise InvalidInputError(
            f"curve text tagged {kind_tag} but coefficients classify as {curve.kind.value}"
        )
    return curve


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _require_boundary(name: str, p):
    """Refuse `p`, the argument `name`, unless it is a `BoundaryPoint`."""
    if not isinstance(p, BoundaryPoint):
        raise InvalidInputError(f"{name} must be a BoundaryPoint, not {type(p).__name__}")


def make_geodesic(p: BoundaryPoint, q: BoundaryPoint) -> Curve:
    """The unique geodesic with endpoints p != q."""
    _require_boundary("p", p)
    _require_boundary("q", q)
    if p == q:
        raise InvalidInputError("geodesic needs two distinct endpoints")
    return curve_from_coeffs(*_geodesic_ints(p, q))


def _geodesic_ints(p: BoundaryPoint, q: BoundaryPoint):
    """Integer (a, b, 0, d) of the semicircle with real-axis roots p = m/n and
    q = r/s: n s x^2 - (m s + r n) x + m r = 0.  With oo = (1, 0) at p this
    is the vertical line -s x + r = 0."""
    (m, n), (r, s) = p, q
    return n * s, -(m * s + r * n), 0, m * r


def make_horocycle(center: BoundaryPoint, size) -> Curve:
    """Horocycle at `center` of Euclidean radius `size` (line height if
    center oo), the size read at its exact value."""
    _require_boundary("center", center)
    size = Q(size)
    if not size > 0:
        raise InvalidInputError("horocycle size must be positive")
    u, v = size.numerator, size.denominator
    if center.is_infinity:
        return curve_from_coeffs(0, 0, v, -u)  # horizontal line v y - u = 0
    # center p = m/n: n^2 v (x^2 + y^2) - 2 m n v x - 2 u n^2 y + m^2 v = 0
    m, n = center
    return curve_from_coeffs(n * n * v, -2 * m * n * v, -2 * u * n * n, m * m * v)


def make_hypercycle(p: BoundaryPoint, q: BoundaryPoint, through: UHPPoint) -> Curve:
    """The unique hypercycle through boundary points p, q and interior point
    through, read at its exact value."""
    _require_boundary("p", p)
    _require_boundary("q", q)
    if p == q:
        raise InvalidInputError("hypercycle needs two distinct endpoints")
    circle = _hypercycle_ints(p, q, through)
    if circle is None:
        where = "vertical" if p.is_infinity or q.is_infinity else "spanning"
        raise DegenerateResultError(
            f"through-point lies on the {where} geodesic", make_geodesic(p, q)
        )
    curve = Curve(circle)
    if curve.kind is not CurveKind.HYPERCYCLE:
        raise DegenerateResultError(
            f"hypercycle construction classifies as {curve.kind.value}", curve
        )
    return curve


def _hypercycle_ints(p: BoundaryPoint, q: BoundaryPoint, through: UHPPoint):
    """The exact carrier on integers, with `through` at (X/W, Y/W); None
    when `through` lies on the geodesic pq."""
    X, Y, W = _homogeneous(through.x, through.y)
    # W Y times the geodesic's carrier k, plus the c y that puts `through`
    # on it: c = -W^2 k(X/W, Y/W)
    k = _geodesic_ints(p, q)
    c = -_form_at(k, X, Y, W)
    if c == 0:
        return None
    a, b, _, d = (v * W * Y for v in k)
    return GeneralizedCircle(a, b, c, d)


# ---------------------------------------------------------------------------
# isometries
# ---------------------------------------------------------------------------


class Isometry:
    """Projective 2x2 rational matrix with det > 0, plus an orientation flag.

    Orientation-preserving: z -> (m00 z + m01)/(m10 z + m11).
    Orientation-reversing:  the same Moebius map applied to -conj(z).
    """

    __slots__ = ("m00", "m01", "m10", "m11", "reversing")

    def __init__(self, m00, m01, m10, m11, reversing: bool = False):
        # a nonzero multiple of the matrix: its determinant keeps its sign
        a, b, c, d = _coprime_ints((m00, m01, m10, m11))
        if not a * d - b * c > 0:
            raise InvalidInputError("isometry matrix must have positive determinant")
        self.m00, self.m01, self.m10, self.m11 = Q(a), Q(b), Q(c), Q(d)
        self.reversing = bool(reversing)

    @classmethod
    def _from_coprime(cls, m00, m01, m10, m11, reversing) -> "Isometry":
        """The isometry of a `_triple_ints` tuple, whose entries are
        already coprime, the first nonzero positive, with det > 0: the
        constructor without its reduction."""
        iso = cls.__new__(cls)
        iso.m00, iso.m01, iso.m10, iso.m11 = Q(m00), Q(m01), Q(m10), Q(m11)
        iso.reversing = reversing
        return iso

    # -- group structure ---------------------------------------------------

    @staticmethod
    def identity() -> "Isometry":
        return Isometry(1, 0, 0, 1)

    @staticmethod
    def translation(t) -> "Isometry":
        return Isometry(1, t, 0, 1)

    @staticmethod
    def scaling(s) -> "Isometry":
        if not Q(s) > 0:
            raise InvalidInputError("scaling factor must be positive")
        return Isometry(s, 0, 0, 1)

    @staticmethod
    def reflection(axis_x=0) -> "Isometry":
        """Reflection across the vertical line x = axis_x: z -> -conj(z) + 2 axis_x."""
        return Isometry(1, 2 * Q(axis_x), 0, 1, reversing=True)

    def matrix(self):
        return (self.m00, self.m01, self.m10, self.m11)

    def _ints(self):
        """The matrix entries as ints (they are integers with denominator 1)."""
        return (self.m00.numerator, self.m01.numerator, self.m10.numerator, self.m11.numerator)

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other: (self.compose(other))(z) = self(other(z))."""
        a, b, c, d = self._ints()
        e, f, g, h = other._ints()
        if self.reversing:
            # sigma M = twist(M) sigma for sigma(z) = -conj(z), where twist
            # negates the off-diagonal entries
            f, g = -f, -g
        return Isometry(
            a * e + b * g,
            a * f + b * h,
            c * e + d * g,
            c * f + d * h,
            reversing=self.reversing ^ other.reversing,
        )

    def __matmul__(self, other):
        return self.compose(other)

    def inverse(self) -> "Isometry":
        """The inverse map: adj(M), or for a reversing map M sigma,
        sigma adj(M) = twist(adj(M)) sigma."""
        a, b, c, d = self._ints()
        if self.reversing:
            b, c = -b, -c
        return Isometry(d, -b, -c, a, reversing=self.reversing)

    def __eq__(self, other):
        if not isinstance(other, Isometry):
            return NotImplemented
        return self.reversing == other.reversing and self.matrix() == other.matrix()

    def __hash__(self):
        return hash(("iso", self.matrix(), self.reversing))

    def __repr__(self):
        tag = "-" if self.reversing else "+"
        return "Isometry{}[{} {}; {} {}]".format(
            tag, *(q_str(v) for v in self.matrix())
        )

    def to_record(self) -> dict:
        """The coprime integer entries [m00, m01, m10, m11] and the
        orientation flag; `Isometry(*matrix, reversing=reversing)` reads
        the record back."""
        return {"matrix": list(self._ints()), "reversing": self.reversing}

    # -- actions -----------------------------------------------------------

    def apply_boundary(self, p: BoundaryPoint) -> BoundaryPoint:
        """Projectively on integers: p = (x, y) with oo = (1, 0) goes to
        (a x + b y, c x + d y), reduced."""
        a, b, c, d = self._ints()
        x, y = p
        if self.reversing:
            x = -x
        return _reduced(a * x + b * y, c * x + d * y)

    def apply_point(self, z: UHPPoint) -> UHPPoint:
        """The exact image of the rational point z; an irrational one is
        refused (`QuadraticPoint`)."""
        a, b, c, d = self._ints()
        # z = (X + iY)/W: (a z + b)(c conj(z) + d) = (u v + a c Y^2 + i det Y W) / W^2
        # with u = a X + b W, v = c X + d W, and |c z + d|^2 W^2 = v^2 + (c Y)^2
        X, Y, W = _homogeneous(z.x, z.y)
        if self.reversing:
            X = -X
        u, v = a * X + b * W, c * X + d * W
        cy = c * Y
        den_ = v * v + cy * cy
        return UHPPoint(Fraction(u * v + a * cy * Y, den_), Fraction((a * d - b * c) * Y * W, den_))

    def apply_circle(self, circle: GeneralizedCircle) -> GeneralizedCircle:
        return GeneralizedCircle(*_image(circle.coeffs(), *self.matrix(), self.reversing))

    def apply_curve(self, curve: Curve) -> Curve:
        if not curve.exact:
            raise InvalidInputError("isometries act on exact curves")
        image = Curve(self.apply_circle(curve.circle))
        if image.kind is not curve.kind:
            raise DegenerateResultError(
                f"isometry image of a {curve.kind.value} classifies as {image.kind.value}",
                image,
            )
        return image


def _image(k, m00, m01, m10, m11, reversing):
    """The unreduced image of the circle k = (a, b, c, d) under the isometry
    [m00 m01; m10 m11], `reversing` or not: x -> -x when reversing, then the
    pullback along the inverse w -> (p w + q)/(r w + s) of the matrix."""
    a, b, c, d = k
    if reversing:
        b = -b
    p, q, r, s = m11, -m01, -m10, m00
    na = a * p * p + b * p * r + d * r * r
    nb = 2 * a * p * q + b * (p * s + q * r) + 2 * d * r * s
    nc = c * (p * s - q * r)
    nd = a * q * q + b * q * s + d * s * s
    return na, nb, nc, nd


# ---------------------------------------------------------------------------
# normalizers
# ---------------------------------------------------------------------------


def two_point_normalizer(x: BoundaryPoint, y: BoundaryPoint) -> Isometry:
    """Orientation-preserving isometry phi with phi(x) = oo and phi(y) = 0.

    For x = (x0, x1), y = (y0, y1), oo = (1, 0): z -> s (y1 z - y0) / (x1 z - x0)
    with s = +-1 the sign of x1 y0 - x0 y1.  Any other such phi is this one
    followed by a dilation z -> lam z, which callers that need it fix.
    """
    if x == y:
        raise InvalidInputError("normalizer needs two distinct boundary points")
    return Isometry(*_two_point_ints(x, y))


def _two_point_ints(x, y):
    """The integer matrix of `two_point_normalizer` for distinct boundary
    points x and y, as integer pairs, det > 0, not reduced."""
    (x0, x1), (y0, y1) = x, y
    s = 1 if x1 * y0 > x0 * y1 else -1
    return s * y1, -s * y0, x1, -x0


def _std_triple_matrix(t):
    """Integer matrix sending the triple t of integer pairs to (0, 1, oo)."""
    (x0, y0), (x1, y1), (x2, y2) = t
    k1 = x1 * y2 - y1 * x2
    k2 = x1 * y0 - y1 * x0
    return (k1 * y0, -k1 * x0, k2 * y2, -k2 * x2)


def _triple_ints(src, dst):
    """(m00, m01, m10, m11, reversing) of the unique isometry mapping the
    src triple pointwise to the dst triple, both triples of three distinct
    boundary points as integer pairs; the entries are coprime, the first
    nonzero one positive, as `_coprime_ints` gives them.

    With every point an integer pair (x, y), oo being (1, 0), the matrix
    with rows k1 (y0, -x0) and k2 (y2, -x2), where k1 = x1 y2 - y1 x2 and
    k2 = x1 y0 - y1 x0, sends the triple to (0, 1, oo) with no case for oo;
    the answer is adj(Md) Ms.  It is orientation-preserving when the
    triples have the same cyclic orientation, reversing otherwise.  Each
    image is checked against its target by cross-multiplication.
    """
    e, f, g, h = _std_triple_matrix(src)
    a, b, c, d = _std_triple_matrix(dst)
    m00, m01, m10, m11 = d * e - b * g, d * f - b * h, a * g - c * e, a * h - c * f
    reversing = not m00 * m11 - m01 * m10 > 0
    if reversing:
        # the pointwise map is orientation-reversing: precompose with x -> -x
        # by negating the first matrix column
        m00, m10 = -m00, -m10
    k = math.gcd(m00, m01, m10, m11) or 1
    if (m00 or m01 or m10 or m11) < 0:
        k = -k
    m00, m01, m10, m11 = m00 // k, m01 // k, m10 // k, m11 // k
    for (x, y), (u, v) in zip(src, dst):
        z = -x if reversing else x
        if (m00 * z + m01 * y) * v != (m10 * z + m11 * y) * u:
            raise HyperkError(
                f"triple normalizer [{m00} {m01}; {m10} {m11}] does not send {(x, y)} to {(u, v)}"
            )
    return m00, m01, m10, m11, reversing


def triple_normalizer(src, dst) -> Isometry:
    """The unique isometry mapping the src triple pointwise to the dst
    triple: `_triple_ints` of their integer pairs."""
    src, dst = tuple(src), tuple(dst)
    if len(set(src)) != 3 or len(set(dst)) != 3:
        raise InvalidInputError("triples must consist of three distinct points")
    return Isometry._from_coprime(*_triple_ints(src, dst))


# ---------------------------------------------------------------------------
# distance machinery
# ---------------------------------------------------------------------------


def distance_to_geodesic(z: UHPPoint, g: Curve) -> float:
    """Hyperbolic distance from z to the geodesic g.

    Read off the carrier a(x^2+y^2) + bx + d = 0 of g: sinh(dist) =
    |a(x^2+y^2) + bx + d| / (y sqrt(b^2 - 4ad)).  With z read at its exact
    value, sinh(dist)^2 is formed exactly and rounded once.
    """
    if g.kind is not CurveKind.GEODESIC:
        raise InvalidInputError("distance_to_geodesic needs a geodesic")
    # z = (X/W, Y/W): sinh(dist) = |n| / (W Y sqrt(disc)), n = W^2 times the
    # carrier's value at z
    X, Y, W = _homogeneous(z.x, z.y)
    n = _form_at(g.circle.coeffs(), X, Y, W)
    num, den = n * n, (W * Y) ** 2 * g.circle.boundary_disc()
    try:
        return math.asinh(math.sqrt(num / den))
    except OverflowError:  # sinh(dist) beyond the float range: asinh u ~ log 2u
        return 0.5 * (math.log(num) - math.log(den)) + math.log(2)


def equidistant_pair(g: Curve, d, sinh_d=None):
    """The two hypercycles at hyperbolic distance d from the geodesic g.

    The pair bounds the distance-d crescent around g.  Pass `sinh_d` as an
    exact rational to get exact output curves; otherwise sinh(d) is taken as
    the exact rational value of the float, which must be finite.  d = 0
    returns (g, g).
    """
    if g.kind is not CurveKind.GEODESIC:
        raise InvalidInputError("equidistant_pair needs a geodesic")
    if sinh_d is None:
        if not d > 0:
            if d == 0:
                return (g, g)
            if math.isnan(d):
                raise InvalidInputError("distance is not a number")
            raise InvalidInputError("distance must be nonnegative")
        try:
            sinh_d = Q(Fraction(math.sinh(d)))
        except OverflowError:  # d infinite, or sinh d past the float range
            raise InvalidInputError(
                "sinh of the distance is outside the float range"
            ) from None
    else:
        sinh_d = Q(sinh_d)
        if sinh_d == 0:
            return (g, g)
        if sinh_d < 0:
            raise InvalidInputError("sinh of the distance must be positive")
    a, b, _, d0 = g.circle.coeffs()
    disc = b * b - 4 * a * d0
    root = isqrt_exact(disc)
    if root is None:
        raise InvalidInputError("equidistant_pair needs a geodesic with rational endpoints")
    shift = sinh_d * root
    plus = curve_from_coeffs(a, b, shift, d0)
    minus = curve_from_coeffs(a, b, -shift, d0)
    for c in (minus, plus):
        if c.kind is not CurveKind.HYPERCYCLE:
            raise DegenerateResultError(
                f"equidistant curve classifies as {c.kind.value}", c
            )
    return (minus, plus)


# ---------------------------------------------------------------------------
# rational points on exact curves
# ---------------------------------------------------------------------------


def _base_boundary_point(curve: Curve) -> BoundaryPoint:
    """A rational point (m, n) of the exact curve's full circle, a != 0, on
    the real axis: its first kept boundary point."""
    if curve._boundary is None:
        raise InvalidInputError("cannot sample rational points: irrational endpoints")
    return curve._boundary[0]


def _chord_point(k, X, Y, W, u, v):
    """(X', Y', W'), W' of either sign: the second meeting (X'/W', Y'/W') of
    the circle k, a != 0, with the chord from its point (X/W, Y/W) in the
    direction (u, v).  On (X/W + l u, Y/W + l v) the circle is
    l (n / W + l a m) = 0, m = u^2 + v^2, n = (2aX + bW) u + (2aY + cW) v."""
    a, b, c, _ = k
    m = u * u + v * v
    n = (2 * a * X + b * W) * u + (2 * a * Y + c * W) * v
    return X * a * m - u * n, Y * a * m - v * n, W * a * m


def rational_points(curve: Curve, count: int):
    """`count` exact rational points on the curve (y > 0), deterministic.

    Points come from the pencil of rational-slope chords through a rational
    base point of the carrier circle.
    """
    if not curve.exact:
        raise InvalidInputError("rational sampling needs an exact curve")
    a, b, c, d = curve.circle.coeffs()
    points = []
    if a == 0:
        # line b x + c y + d = 0
        b, c, d = Q(b), Q(c), Q(d)
        if c == 0:
            k = 1
            while len(points) < count:
                points.append(UHPPoint(-d / b, Q(k)))
                k += 1
            return points
        t = 1
        while len(points) < count:
            for x in (Q(t), Q(-t), Q(1, t + 1), Q(-1, t + 1)):
                y = -(b * x + d) / c
                if y > 0:
                    points.append(UHPPoint(x, y))
                    if len(points) >= count:
                        break
            t += 1
        return points
    # chords of slope p/q from (e/f, 0); the second meeting is rational.
    # Slopes +-p/q are enumerated over all coprime pairs with max(p, q) = k
    # so the sample set is dense in every sub-arc as count grows.
    e, f = _base_boundary_point(curve)
    seen = set()
    k = 1
    while len(points) < count:
        slopes = []
        for den in range(1, k + 1):
            if math.gcd(k, den) != 1:
                continue
            slopes.extend(((k, den), (-k, den)))
            if den != k:
                slopes.extend(((den, k), (-den, k)))
        for p, q in slopes:
            X, Y, W = _chord_point((a, b, c, d), e, 0, f, q, p)
            if Y * W <= 0:
                continue  # the base point itself, or below the axis
            x, y = Fraction(X, W), Fraction(Y, W)
            key = (x.numerator, x.denominator, y.numerator, y.denominator)
            if key not in seen:
                seen.add(key)
                points.append(UHPPoint(x, y))
                if len(points) >= count:
                    break
        k += 1
        if k > 40 * count + 40:
            raise InvalidInputError("could not find enough rational points")
    return points


def straddling_points(curve: Curve, circle: GeneralizedCircle, near):
    """Exact points of `curve` on both sides of `circle` near its meetings
    with it: for each point of `near` where one is found, a pair (pos, neg)
    with `circle` positive at pos and negative at neg.

    A rational parameter t of the curve moves away from the meeting point
    q's parameter t0 in steps of 2^-j, scaled so that a step of 2^-j moves
    the point by about 2^-j times q's height.  A line is B + t (-c, b), B the
    foot of the perpendicular through 0 and t0 the parameter of q.  A circle's
    points are the second meetings of the chords from a rational point B of
    it in the directions u + t u', u' = u turned by a right angle, t0 = 0:
    B is q itself and u its tangent when q is exact, and otherwise B is the
    base point of `rational_points` on the axis and u = q - B.  A tangency
    has no points on both sides, so it gives no pair.

    An irrational q is read through its floats, so one whose float height
    underflows to 0 is refused (InvalidInputError): from the axis the search
    would find nothing, and a crossing would pass without a pair.
    """
    if not curve.exact:
        raise InvalidInputError("straddling points need an exact curve")
    a, b, c, d = curve.circle.coeffs()
    pairs = []
    for q in near:
        x, y = (q.x, q.y) if q.exact else map(Q, q.as_floats())
        if y == 0:
            raise InvalidInputError(
                "straddling points start from a point's floats, and this point's float "
                "height underflows to 0")
        if a == 0:
            n = b * b + c * c
            bx, by = Q(-b * d, n), Q(-c * d, n)
            t0, scale = (b * y - c * x) / n, y / (abs(b) + abs(c))

            def point(t):
                return bx - c * t, by + b * t
        else:
            if q.exact:
                base, ux, uy = _homogeneous(x, y), -(2 * a * y + c), 2 * a * x + b
            else:  # B = (m/n, 0), and n (q - B) gives the chords of q - B
                m, n = _base_boundary_point(curve)
                base, ux, uy = (m, 0, n), x * n - m, y * n
            t0, scale = 0, y * abs(a) / (math.isqrt(b * b + c * c - 4 * a * d) + 1)

            def point(t):
                U, V, _ = _homogeneous(ux - t * uy, uy + t * ux)
                X, Y, W = _chord_point(curve.circle.coeffs(), *base, U, V)
                return Fraction(X, W), Fraction(Y, W)
        sides = {}
        for j in range(1, 80):
            step = scale / (1 << j)
            for t in (t0 - step, t0 + step):
                px, py = point(t)
                if py > 0:
                    s = circle.sign_at(px, py)
                    if s:
                        sides[s > 0] = UHPPoint(px, py)
            if len(sides) == 2:
                pairs.append((sides[True], sides[False]))
                break
    return pairs
