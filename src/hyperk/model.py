"""Half-plane model core: boundary points, generalized circles, curves, isometries.

Every curve (geodesic, horocycle, hypercycle) is carried by a generalized
circle a(x^2+y^2) + bx + cy + d = 0 with exact integer coefficients in
canonical form; all classification reduces to integer sign tests.  Curves
built from irrational data (a few constructions need them) carry float
coefficients and are flagged inexact; predicates on them use a documented
tolerance instead of exact signs.  Pairs of circles are read through the
Lorentz form on coefficient vectors (`_lorentz`, `_d2`).  Exact curves also
yield exact sample points: `rational_points` spreads them along the curve
from a rational point on the axis, and `straddling_points` places them on
both sides of another circle near where the two meet, on chords from an
exact meeting point itself (so a curve with irrational endpoints needs no
point on the axis) and at distances relative to the meeting point's height.

Exact points, sign tests and constructors run on integers, and an exact
point enters a formula only as `_projective` (a boundary point as (m, n),
oo = (1, 0), so no formula has a case for oo) or `_homogeneous` (a point
(x, y) as (X/W, Y/W)), where `_form_at` evaluates a circle.  A `Fraction`
is built only for the value that is stored (an image point's
coordinates, a boundary point).  `Isometry` keeps its
entries as denominator-1 `Fraction`s, and `Isometry.apply_circle` still
does `Fraction` arithmetic on purpose until ROADMAP item 1 lands: made
integer, it runs the `pairs` benchmark past the 2^18 samples its buffer
holds, and the buffer's growth shows as a peak-memory regression.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple

from ._rational import Q, isqrt_exact, is_rational, q_str
from .errors import DegenerateResultError, HyperkError, InvalidInputError

#: Tolerance for all inexact (float-coefficient) predicates and for
#: reported intersection-point coordinates.
EPS = 1e-9


# ---------------------------------------------------------------------------
# boundary and interior points
# ---------------------------------------------------------------------------


class BoundaryPoint:
    """A point of the circle at infinity: an exact rational, or infinity."""

    __slots__ = ("value",)

    def __init__(self, value=None):
        # value None encodes the point at infinity
        self.value = None if value is None else Q(value)

    @staticmethod
    def finite(value) -> "BoundaryPoint":
        return BoundaryPoint(Q(value))

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def __eq__(self, other):
        if not isinstance(other, BoundaryPoint):
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        # hash the reduced pair: Fraction.__hash__ takes a modular inverse
        v = self.value
        return hash(None if v is None else (v.numerator, v.denominator))

    def __repr__(self):
        return "oo" if self.is_infinity else q_str(self.value)

    def sort_key(self):
        # infinity sorts after every finite value
        return (1, 0) if self.is_infinity else (0, self.value)


INFINITY = BoundaryPoint(None)


class UHPPoint:
    """Interior point x+iy, y > 0; exact when both coordinates are rational."""

    __slots__ = ("x", "y", "exact")

    def __init__(self, x, y, exact: Optional[bool] = None):
        if exact is None:
            exact = is_rational(x) and is_rational(y)
        if exact:
            x, y = Q(x), Q(y)
        else:
            x, y = float(x), float(y)
        if not (y > 0):
            raise InvalidInputError(f"point ({x}, {y}) is not in the open half-plane")
        self.x, self.y, self.exact = x, y, exact

    def as_floats(self) -> Tuple[float, float]:
        return float(self.x), float(self.y)

    def __eq__(self, other):
        if not isinstance(other, UHPPoint):
            return NotImplemented
        if self.exact and other.exact:
            return self.x == other.x and self.y == other.y
        ax, ay = self.as_floats()
        bx, by = other.as_floats()
        return math.isclose(ax, bx, abs_tol=EPS) and math.isclose(ay, by, abs_tol=EPS)

    def __hash__(self):
        # an exact point equals the inexact one at its floats, and equality
        # within EPS is not transitive: only one hash for all agrees with it
        return hash("uhp")

    def __repr__(self):
        if self.exact:
            return f"({q_str(self.x)}, {q_str(self.y)})"
        return f"({self.x:.9g}, {self.y:.9g})~"


# ---------------------------------------------------------------------------
# generalized circles
# ---------------------------------------------------------------------------


def _coprime_ints(values):
    """The projective class of rational `values` as coprime integers: clear
    denominators, divide by the gcd, make the first nonzero entry positive.

    Ints and Fractions are read through their numerator and denominator;
    any other value (a float, a '3/4' string) is taken at its exact value."""
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


def _projective(p: BoundaryPoint):
    """p as a coprime integer pair (num, den) with den >= 0; oo is (1, 0)."""
    v = p.value
    return (1, 0) if v is None else (v.numerator, v.denominator)


def _homogeneous(x, y):
    """The rational point (x, y) as integers (X, Y, W), x = X/W, y = Y/W, W > 0."""
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    return xn * yd, yn * xd, xd * yd


def _form_at(k, X, Y, W):
    """W^2 times a(x^2+y^2) + bx + cy + d at (X/W, Y/W), for k = (a, b, c, d)."""
    a, b, c, d = k
    return a * (X * X + Y * Y) + (b * X + c * Y + d * W) * W


# The sign tests on a circle multiply at most six coefficients of the exact
# curve (the inexact curve's are at most 1), so below 2^_FLOAT_BITS every
# product stays under 2^1010.
_FLOAT_BITS = 166


def _int_floats(k, bits: int = _FLOAT_BITS):
    """The integers k as floats, divided by a common power of two when the
    longest is longer than `bits`: by default, too large for the sign tests
    on a circle.

    Each quotient is correctly rounded, so it keeps the relative precision
    float() would give, and every sign test on a circle or a pair of lines
    is homogeneous in the coefficients: the scale changes no answer while
    nothing underflows.
    """
    shift = max(abs(v).bit_length() for v in k) - bits
    if shift <= 0:
        return [float(v) for v in k]
    floats = [v / (1 << shift) for v in k]
    if any(v and not f for v, f in zip(k, floats)):
        raise InvalidInputError("circle coefficients span more than the float range")
    return floats


def _number(m, n, disc, w):
    """(m + n sqrt(disc)) / w for disc >= 0.

    Integer arguments give an exact rational when disc is a square.
    Otherwise the value is a float; for integers the square root is taken
    as an integer scaled by 2^64, and a sum whose terms would cancel is
    replaced by its conjugate quotient, so neither a discriminant beyond the
    float range nor cancellation costs precision.
    """
    if not isinstance(w, int):
        return (m + n * math.sqrt(max(disc, 0.0))) / w
    r = math.isqrt(disc)
    if r * r == disc:
        return Q(m + n * r, w)
    r = math.isqrt(disc << 128)
    if (m >= 0) == (n >= 0):
        return ((m << 64) + n * r) / (w << 64)
    return ((m * m - n * n * disc) << 64) / (w * ((m << 64) - n * r))


def _finite(*values):
    """`values`, which must be floats in range."""
    if not all(math.isfinite(v) for v in values):
        raise InvalidInputError("the result is outside the float range")
    return values


def _within_float_range(method):
    """`method`, with a quotient past the float range (OverflowError from an
    int/int division) refused as InvalidInputError."""

    @functools.wraps(method)
    def wrapped(self):
        try:
            return method(self)
        except OverflowError:
            raise InvalidInputError("the result is outside the float range") from None

    return wrapped


class GeneralizedCircle:
    """Coefficients of a(x^2+y^2) + bx + cy + d = 0 in canonical form.

    Exact circles store coprime integers with the first nonzero of (a, b, c)
    positive.  Inexact circles store unit-norm floats with the same sign
    convention at tolerance EPS.
    """

    __slots__ = ("a", "b", "c", "d", "exact")

    def __init__(self, a, b, c, d, exact: Optional[bool] = None):
        if exact is None:
            exact = all(is_rational(v) for v in (a, b, c, d))
        if exact:
            self.a, self.b, self.c, self.d = _coprime_ints((a, b, c, d))
            if self.a == self.b == self.c == 0:
                raise DegenerateResultError("degenerate circle: a = b = c = 0")
        else:
            fa, fb, fc, fd = float(a), float(b), float(c), float(d)
            # pre-scale by the largest magnitude so the norm cannot overflow
            big = max(abs(fa), abs(fb), abs(fc), abs(fd))
            if big == 0:
                raise DegenerateResultError("degenerate circle: all coefficients zero")
            fa, fb, fc, fd = fa / big, fb / big, fc / big, fd / big
            norm = math.sqrt(fa * fa + fb * fb + fc * fc + fd * fd)
            if max(abs(fa), abs(fb), abs(fc)) <= EPS * norm:
                raise DegenerateResultError("degenerate circle: a = b = c ~ 0")
            fa, fb, fc, fd = fa / norm, fb / norm, fc / norm, fd / norm
            lead = fa if abs(fa) > EPS else (fb if abs(fb) > EPS else fc)
            if lead < 0:
                fa, fb, fc, fd = -fa, -fb, -fc, -fd
            self.a, self.b, self.c, self.d = fa, fb, fc, fd
        self.exact = exact
        if self.nondegeneracy() <= (0 if exact else EPS):
            raise InvalidInputError(
                f"coefficients ({a}, {b}, {c}, {d}) define a point or empty locus"
            )

    def coeffs(self):
        return (self.a, self.b, self.c, self.d)

    def nondegeneracy(self):
        """b^2 + c^2 - 4ad; positive for a real circle or line."""
        return self.b * self.b + self.c * self.c - 4 * self.a * self.d

    def boundary_disc(self):
        """b^2 - 4ad: discriminant of the real-axis trace a x^2 + b x + d."""
        return self.b * self.b - 4 * self.a * self.d

    def evaluate(self, x, y):
        return self.a * (x * x + y * y) + self.b * x + self.c * y + self.d

    def sign_at(self, x, y) -> int:
        """Sign (-1, 0 or 1) of the exact circle's equation at the rational
        point (x, y), on integers: W^2 times the value at (X/W, Y/W)."""
        v = _form_at(self.coeffs(), *_homogeneous(x, y))
        return (v > 0) - (v < 0)

    def evaluate_boundary(self, p: BoundaryPoint):
        """a m^2 + b m n + d n^2 at p = (m, n), oo = (1, 0): its sign, not its
        size, is the sign of the real-axis trace a x^2 + b x + d at p."""
        m, n = _projective(p)
        return self.a * m * m + self.b * m * n + self.d * n * n

    def contains_point(self, x, y) -> bool:
        if self.exact and is_rational(x) and is_rational(y):
            return self.sign_at(x, y) == 0
        v = self.evaluate(x, y)
        return v == 0 if self.exact else abs(v) <= EPS

    def __eq__(self, other):
        if not isinstance(other, GeneralizedCircle):
            return NotImplemented
        if self.exact != other.exact:
            return False
        if self.exact:
            return self.coeffs() == other.coeffs()
        return all(abs(u - v) <= EPS for u, v in zip(self.coeffs(), other.coeffs()))

    def __hash__(self):
        if self.exact:
            return hash(("gc", self.coeffs()))
        # equality within EPS is not transitive: only one hash for all agrees with it
        return hash("gc~")

    def __repr__(self):
        if self.exact:
            return f"Circle(a={self.a}, b={self.b}, c={self.c}, d={self.d})"
        return "Circle~(a={:.6g}, b={:.6g}, c={:.6g}, d={:.6g})".format(*self.coeffs())


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
    a, b, c, _ = circle.coeffs()
    tol = 0 if circle.exact else EPS
    disc = circle.boundary_disc()
    if abs(a) > tol:
        center_above = -c * a > 0  # sign of center height -c/(2a)
        if abs(c) <= tol:
            return CurveKind.GEODESIC
        disc_zero = disc == 0 if circle.exact else abs(disc) <= EPS * circle.nondegeneracy()
        if disc_zero:
            return CurveKind.HOROCYCLE if center_above else CurveKind.NOT_IN_UPPER_HALF_PLANE
        if disc > 0:
            return CurveKind.HYPERCYCLE
        return (
            CurveKind.HYPERBOLIC_CIRCLE
            if center_above
            else CurveKind.NOT_IN_UPPER_HALF_PLANE
        )
    # line b x + c y + d = 0
    if abs(c) <= tol:
        return CurveKind.GEODESIC  # vertical line
    if abs(b) <= tol:
        # horizontal line y = -d/c
        return (
            CurveKind.HOROCYCLE
            if -circle.d * circle.c > tol
            else CurveKind.NOT_IN_UPPER_HALF_PLANE
        )
    return CurveKind.HYPERCYCLE  # oblique line


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

_CURVE_KINDS = (CurveKind.GEODESIC, CurveKind.HOROCYCLE, CurveKind.HYPERCYCLE)


class Curve:
    """A geodesic, horocycle, or hypercycle with its derived boundary data."""

    __slots__ = ("circle", "kind", "_endpoints", "center", "size")

    def __init__(self, circle: GeneralizedCircle):
        kind = classify_curve(circle)
        if kind not in _CURVE_KINDS:
            raise InvalidInputError(f"locus classifies as {kind.value}, not a curve")
        self.circle = circle
        self.kind = kind
        self._endpoints = self._derive_endpoints()
        self.center, self.size = self._derive_horodata()

    # -- derived data ------------------------------------------------------

    def _derive_endpoints(self):
        a, b, c, d = self.circle.coeffs()
        if not self.circle.exact:
            return None
        if a != 0:
            disc = b * b - 4 * a * d
            if disc == 0:
                return (BoundaryPoint.finite(Q(-b, 2 * a)),)
            r = isqrt_exact(disc)
            if r is None:
                return None  # irrational endpoints; use endpoint_floats()
            lo, hi = Q(-b - r, 2 * a), Q(-b + r, 2 * a)  # a > 0 in canonical form
            return (BoundaryPoint.finite(lo), BoundaryPoint.finite(hi))
        if b == 0:
            return (INFINITY,)  # horizontal line: center at infinity
        return (BoundaryPoint.finite(Q(-d, b)), INFINITY)

    def _derive_horodata(self):
        if self.kind is not CurveKind.HOROCYCLE:
            return None, None
        a, b, c, d = self.circle.coeffs()
        if self.circle.exact:
            if a != 0:
                return BoundaryPoint.finite(Q(-b, 2 * a)), Q(-c, 2 * a)
            return INFINITY, Q(-d, c)
        if abs(a) > EPS:
            return BoundaryPoint.finite(Fraction(-b / (2 * a))), -c / (2 * a)
        return INFINITY, -d / c

    @property
    def exact(self) -> bool:
        return self.circle.exact

    @property
    def endpoints(self) -> Tuple[BoundaryPoint, ...]:
        """Endpoint set on the boundary circle; exact rationals required."""
        if self._endpoints is None:
            raise InvalidInputError(
                "curve has irrational endpoints; use endpoint_floats()"
            )
        return self._endpoints

    @property
    def has_exact_endpoints(self) -> bool:
        return self._endpoints is not None

    # An exact curve's floats below come from its integers: an integer
    # square root and one correctly rounded division each, so only a result
    # past the float range is refused.

    @_within_float_range
    def endpoint_floats(self):
        """Endpoints as floats, with math.inf standing in for infinity."""
        circle = self.circle
        a, b, _, d = circle.coeffs()
        tol = 0 if circle.exact else EPS
        if abs(a) > tol:
            disc = circle.boundary_disc()
            if disc <= 0:
                return _finite(-b / (2 * a))
            return _finite(*(float(_number(-b, s, disc, 2 * a)) for s in (-1, 1)))
        if abs(b) <= tol:
            return (math.inf,)
        return _finite(-d / b) + (math.inf,)

    @_within_float_range
    def euclidean_center_radius(self):
        """(cx, cy, r) floats for circle-type curves, None for lines."""
        circle = self.circle
        a, b, c, _ = circle.coeffs()
        if abs(a) <= (0 if circle.exact else EPS):
            return None
        w = 2 * a  # a > 0 in canonical form
        return _finite(-b / w, -c / w, float(_number(0, 1, circle.nondegeneracy(), w)))

    @_within_float_range
    def apex_height(self) -> float:
        """Height of the curve's highest point (inf for non-horizontal lines)."""
        ecr = self.euclidean_center_radius()
        if ecr is None:
            _, b, c, d = self.circle.coeffs()
            if abs(b) > (0 if self.circle.exact else EPS):
                return math.inf
            return _finite(-d / c)[0]
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
        if not self.exact:
            raise InvalidInputError("only exact curves have a canonical text form")
        a, b, c, d = self.circle.coeffs()
        return f"{self.kind.value} a={a} b={b} c={c} d={d}"

    def to_record(self) -> dict:
        if not self.exact:
            raise InvalidInputError("only exact curves have a canonical record form")
        a, b, c, d = self.circle.coeffs()
        return {"kind": self.kind.value, "a": str(a), "b": str(b), "c": str(c), "d": str(d)}


def curve_from_circle(circle: GeneralizedCircle) -> Curve:
    return Curve(circle)


def curve_from_coeffs(a, b, c, d, exact: Optional[bool] = None) -> Curve:
    return Curve(GeneralizedCircle(a, b, c, d, exact=exact))


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


def make_geodesic(p: BoundaryPoint, q: BoundaryPoint) -> Curve:
    """The unique geodesic with endpoints p != q."""
    if p == q:
        raise InvalidInputError("geodesic needs two distinct endpoints")
    return curve_from_coeffs(*_geodesic_ints(p, q))


def _geodesic_ints(p: BoundaryPoint, q: BoundaryPoint):
    """Integer (a, b, 0, d) of the semicircle with real-axis roots p = m/n and
    q = r/s: n s x^2 - (m s + r n) x + m r = 0.  With oo = (1, 0) at p this
    is the vertical line -s x + r = 0."""
    (m, n), (r, s) = _projective(p), _projective(q)
    return n * s, -(m * s + r * n), 0, m * r


def make_horocycle(center: BoundaryPoint, size) -> Curve:
    """Horocycle at `center` of Euclidean radius `size` (line height if center oo)."""
    exact = is_rational(size)
    size = Q(size) if exact else float(size)
    if not size > 0:
        raise InvalidInputError("horocycle size must be positive")
    if not exact:
        if center.is_infinity:
            return curve_from_coeffs(0, 0, 1, -size, exact=False)
        p = center.value
        return curve_from_coeffs(1, -2 * p, -2 * size, p * p, exact=False)
    u, v = size.numerator, size.denominator
    if center.is_infinity:
        return curve_from_coeffs(0, 0, v, -u)  # horizontal line v y - u = 0
    # center p = m/n: n^2 v (x^2 + y^2) - 2 m n v x - 2 u n^2 y + m^2 v = 0
    m, n = _projective(center)
    return curve_from_coeffs(n * n * v, -2 * m * n * v, -2 * u * n * n, m * m * v)


def make_hypercycle(p: BoundaryPoint, q: BoundaryPoint, through: UHPPoint) -> Curve:
    """The unique hypercycle through boundary points p, q and interior point through."""
    if p == q:
        raise InvalidInputError("hypercycle needs two distinct endpoints")
    carrier = _hypercycle_ints if through.exact else _hypercycle_floats
    circle = carrier(p, q, through)
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


def _hypercycle_floats(p: BoundaryPoint, q: BoundaryPoint, through: UHPPoint):
    """The inexact carrier; None when `through` is within EPS of the geodesic pq."""
    x0, y0 = through.x, through.y
    if p.is_infinity or q.is_infinity:
        e = (q if p.is_infinity else p).value
        if abs(x0 - e) <= EPS:
            return None
        return GeneralizedCircle(0, y0, -(x0 - e), -e * y0, exact=False)
    b = -(p.value + q.value)
    d = p.value * q.value
    c = -(x0 * x0 + y0 * y0 + b * x0 + d) / y0
    if abs(c) <= EPS:
        return None
    return GeneralizedCircle(1, b, c, d, exact=False)


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
        (a x + b y, c x + d y)."""
        a, b, c, d = self._ints()
        x, y = _projective(p)
        if self.reversing:
            x = -x
        y, x = c * x + d * y, a * x + b * y
        return INFINITY if y == 0 else BoundaryPoint(Fraction(x, y))

    def apply_point(self, z: UHPPoint) -> UHPPoint:
        a, b, c, d = self._ints()
        det = a * d - b * c  # exact: a float a*d - b*c can cancel to 0
        if not z.exact:
            x, y = z.x, z.y
            if self.reversing:
                x = -x
            try:
                a, b, c, d, det = (float(v) for v in (a, b, c, d, det))
                den_ = (c * x + d) ** 2 + c * c * y * y
                nx = (a * c * (x * x + y * y) + (a * d + b * c) * x + b * d) / den_
                ny = det * y / den_
            except (OverflowError, ZeroDivisionError):
                den_ = nx = ny = math.inf
            if not all(map(math.isfinite, (den_, nx, ny))):
                # the entries' floats overflowed: round the exact image of z's value
                w = self.apply_point(UHPPoint(Fraction(z.x), Fraction(z.y)))
                try:
                    nx, ny = float(w.x), float(w.y)
                except OverflowError:
                    ny = 0.0
                if not ny:
                    raise InvalidInputError(f"the image of {z} is outside the float range")
            return UHPPoint(nx, ny, exact=False)
        # z = (X + iY)/W: (a z + b)(c conj(z) + d) = (u v + a c Y^2 + i det Y W) / W^2
        # with u = a X + b W, v = c X + d W, and |c z + d|^2 W^2 = v^2 + (c Y)^2
        X, Y, W = _homogeneous(z.x, z.y)
        if self.reversing:
            X = -X
        u, v = a * X + b * W, c * X + d * W
        cy = c * Y
        den_ = v * v + cy * cy
        return UHPPoint(Fraction(u * v + a * cy * Y, den_), Fraction(det * Y * W, den_), exact=True)

    def apply_circle(self, circle: GeneralizedCircle) -> GeneralizedCircle:
        a, b, c, d = circle.coeffs()
        if self.reversing:
            b = -b  # sigma: x -> -x
        # pull back along the inverse Moebius map (p w + q)/(r w + s)
        m00, m01, m10, m11 = self.matrix()
        p, q, r, s = m11, -m01, -m10, m00
        if circle.exact:
            return GeneralizedCircle(*_pullback(a, b, c, d, p, q, r, s), exact=True)
        try:
            image = _pullback(a, b, c, d, *(float(v) for v in (p, q, r, s)))
        except OverflowError:
            image = (math.inf,)
        if all(map(math.isfinite, image)):
            return GeneralizedCircle(*image, exact=False)
        # the entries' floats overflowed: the exact image of the circle's
        # value, divided by a power of two to come within the float range
        image = self.apply_circle(GeneralizedCircle(*map(Fraction, circle.coeffs())))
        return GeneralizedCircle(*_int_floats(image.coeffs()), exact=False)

    def apply_curve(self, curve: Curve) -> Curve:
        image = Curve(self.apply_circle(curve.circle))
        if image.kind is not curve.kind:
            raise DegenerateResultError(
                f"isometry image of a {curve.kind.value} classifies as {image.kind.value}",
                image,
            )
        return image


def _pullback(a, b, c, d, p, q, r, s):
    """The circle (a, b, c, d) pulled back along w -> (p w + q)/(r w + s)."""
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
    (x0, x1), (y0, y1) = _projective(x), _projective(y)
    s = 1 if x1 * y0 > x0 * y1 else -1
    return Isometry(s * y1, -s * y0, x1, -x0)


def _std_triple_matrix(t):
    """Integer matrix sending the triple t to (0, 1, oo)."""
    (x0, y0), (x1, y1), (x2, y2) = (_projective(p) for p in t)
    k1 = x1 * y2 - y1 * x2
    k2 = x1 * y0 - y1 * x0
    return (k1 * y0, -k1 * x0, k2 * y2, -k2 * x2)


def triple_normalizer(src, dst) -> Isometry:
    """The unique isometry mapping the src triple pointwise to the dst triple.

    Orientation-preserving when the triples have the same cyclic orientation,
    reversing otherwise.  With every point an integer pair (x, y), oo being
    (1, 0), the matrix with rows k1 (y0, -x0) and k2 (y2, -x2), where
    k1 = x1 y2 - y1 x2 and k2 = x1 y0 - y1 x0, sends the triple to
    (0, 1, oo) with no case for oo; the answer is adj(Md) Ms on integers.
    """
    src, dst = tuple(src), tuple(dst)
    if len(set(src)) != 3 or len(set(dst)) != 3:
        raise InvalidInputError("triples must consist of three distinct points")
    e, f, g, h = _std_triple_matrix(src)
    a, b, c, d = _std_triple_matrix(dst)
    m = (d * e - b * g, d * f - b * h, a * g - c * e, a * h - c * f)
    if m[0] * m[3] - m[1] * m[2] > 0:
        iso = Isometry(*m)
    else:
        # the pointwise map is orientation-reversing: precompose with x -> -x
        # by negating the first matrix column
        iso = Isometry(-m[0], m[1], -m[2], m[3], reversing=True)
    for s, t in zip(src, dst):
        if iso.apply_boundary(s) != t:
            raise HyperkError(f"triple normalizer {iso!r} does not send {s!r} to {t!r}")
    return iso


# ---------------------------------------------------------------------------
# distance machinery
# ---------------------------------------------------------------------------


def distance_to_geodesic(z: UHPPoint, g: Curve) -> float:
    """Hyperbolic distance from z to the geodesic g.

    Read off the carrier a(x^2+y^2) + bx + d = 0 of g: sinh(dist) =
    |a(x^2+y^2) + bx + d| / (y sqrt(b^2 - 4ad)).  For an exact point and
    geodesic, sinh(dist)^2 is formed exactly and rounded once.
    """
    if g.kind is not CurveKind.GEODESIC:
        raise InvalidInputError("distance_to_geodesic needs a geodesic")
    a, b, _, d = g.circle.coeffs()
    disc = b * b - 4 * a * d
    if not (z.exact and g.exact):
        x, y = z.as_floats()
        a, b, d = float(a), float(b), float(d)
        return math.asinh(abs(a * (x * x + y * y) + b * x + d) / (y * math.sqrt(disc)))
    # z = (X/W, Y/W): sinh(dist) = |n| / (W Y sqrt(disc)), n = W^2 times the
    # carrier's value at z
    X, Y, W = _homogeneous(z.x, z.y)
    n = _form_at(g.circle.coeffs(), X, Y, W)
    num, den = n * n, (W * Y) ** 2 * disc
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


def _base_boundary_point(curve: Curve):
    """A rational point of the full circle lying on the real axis."""
    a, b, c, d = curve.circle.coeffs()
    if a == 0:
        return None  # line: sampled directly
    if curve.kind is CurveKind.HOROCYCLE:
        return Q(-b, 2 * a)
    if not curve.has_exact_endpoints:
        raise InvalidInputError("cannot sample rational points: irrational endpoints")
    e = curve.endpoints[0]
    return e.value


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
    x0 = _base_boundary_point(curve)
    # chords of slope p/q from (x0, 0); the second meeting is rational.
    # Slopes +-p/q are enumerated over all coprime pairs with max(p, q) = k
    # so the sample set is dense in every sub-arc as count grows.
    e, f = x0.numerator, x0.denominator
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
                points.append(UHPPoint(x, y, exact=True))
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
    """
    if not curve.exact:
        raise InvalidInputError("straddling points need an exact curve")
    a, b, c, d = curve.circle.coeffs()
    pairs = []
    for q in near:
        x, y = (q.x, q.y) if q.exact else map(Q, q.as_floats())
        if a == 0:
            n = b * b + c * c
            bx, by = Q(-b * d, n), Q(-c * d, n)
            t0, scale = (b * y - c * x) / n, y / (abs(b) + abs(c))

            def point(t):
                return bx - c * t, by + b * t
        else:
            if q.exact:
                bx, by, ux, uy = x, y, -(2 * a * y + c), 2 * a * x + b
            else:
                bx, by = _base_boundary_point(curve), 0
                ux, uy = x - bx, y
            t0, scale = 0, y * abs(a) / (math.isqrt(b * b + c * c - 4 * a * d) + 1)
            base = _homogeneous(bx, by)

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
                    s = circle.sign_at(px, py) if circle.exact else circle.evaluate(px, py)
                    if s:
                        sides[s > 0] = UHPPoint(px, py, exact=True)
            if len(sides) == 2:
                pairs.append((sides[True], sides[False]))
                break
    return pairs
