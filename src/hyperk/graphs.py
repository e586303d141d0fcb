"""Finite disjointness graphs of geodesics, horocycles, and hypercycles.

Vertices are exact curves; an edge joins two curves that do not meet in
the open half-plane (interior_count == 0).  A tangency at an interior
point is a meeting point, so h(0,1/2) and h(1,1/2), tangent at 1/2 + i/2,
are not adjacent; curves that meet only on the boundary circle are, such
as h(0,1/2) and h(0,1), which share only their center.  Adjacency is held
as int bitmask rows: bit j of row i is the edge ij.  The module enumerates
graph automorphisms and searches for isometries realizing a given
automorphism, verified exactly on every curve.  Automorphisms are listed
by twin classes, each sent only to classes of its degree and size.  An
empty or complete graph on n vertices with n! <= DEFAULT_CAP (n <= 7) is
answered from one table per n of the n! permutation records, built on
first use and shared by every call, each in a new list; a twin-free graph
is its own twin quotient, searched on its adjacency rows.

The module reads only exact integer data, the data each curve keeps from
when it was built: the circle's coefficient tuple and Lorentz norm, and
the curve's boundary points, each the integer pair (m, n) of m/n, oo =
(1, 0) (`Curve._boundary`: the endpoints, or a horocycle's centre).  A
graph or a matching is refused for an inexact curve, a pinch witness,
which has no integer data.  It forms no boundary point and no circle
action of its own: an isometry acts on a circle's coefficients by
`model._image` alone, and it forms no `Fraction` but the answer's
entries.

Adjacency and the first test of a matching both read pair counts
(`predicates._iter_pair_counts`): the interior count, tangency and shared
endpoints of every pair, from the Lorentz Gram matrix of the
configuration, formed pair by pair from the kept tuples and norms.  Those
counts are Moebius invariants, so an isometry keeps every one of them, and
a matching compares source and target pair by pair and answers None at the
first pair that differs, before any candidate isometry is formed.

A candidate isometry is an integer tuple (m00, m01, m10, m11, reversing)
from `model._triple_ints`, computed on the kept boundary pairs (a frame of
fewer than three points is completed on integer matrices too), and one
`Isometry` is built per answer, from the tuple with no second reduction,
not per candidate.  Each candidate is verified by one integer test on
every curve's circle: the source circle's image coefficients
(`model._image`) must be a multiple of the target's, so no image circle is
built.  A curve with irrational endpoints gives the search no frame point,
so beside one the other curves must give three distinct rational boundary
points, or the search raises InvalidInputError.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain, combinations, permutations, product
from math import factorial, prod
from operator import eq, itemgetter, ne
from typing import Dict, List, Optional, Sequence, Tuple

from ._record import Record
from .errors import HyperkError, InvalidInputError
from .model import (
    BoundaryPoint,
    Curve,
    CurveKind,
    Isometry,
    _horocycle_size,
    _image,
    _triple_ints,
    _two_point_ints,
)
from .predicates import _iter_pair_counts, linked

#: the most vertices `automorphisms` searches; `build_graph` takes any number
MAX_VERTICES = 16
#: the most automorphisms `automorphisms` lists unless given another cap
DEFAULT_CAP = 10000


class GraphClass(Enum):
    GEODESIC = "geodesic"
    HOROCYCLE = "horocycle"
    HYPERCYCLE = "hypercycle"
    MIXED = "mixed"


class GraphAutomorphism(Record):
    """A vertex permutation preserving adjacency; perm[i] is the image of i."""

    __slots__ = ("perm",)

    def __init__(self, perm: Tuple[int, ...]):
        self.perm = perm

    def __call__(self, i: int) -> int:
        return self.perm[i]

    def compose(self, other: "GraphAutomorphism") -> "GraphAutomorphism":
        return GraphAutomorphism(tuple(self.perm[other.perm[i]] for i in range(len(self.perm))))

    def inverse(self) -> "GraphAutomorphism":
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return GraphAutomorphism(tuple(inv))

    def to_record(self):
        return {"permutation": list(self.perm)}


class DisjointnessGraph:
    """Exact curves plus the adjacency rows of interior-disjointness: int
    bitmasks, bit j of rows[i] set when curves i and j are adjacent (edge
    ij), so the rows are symmetric and no row has its own bit."""

    __slots__ = ("curves", "rows", "graph_class")

    def __init__(self, curves: Sequence[Curve], rows: List[int], graph_class: GraphClass):
        self.curves = list(curves)
        self.rows = rows
        self.graph_class = graph_class

    def __len__(self):
        return len(self.curves)

    def edges(self) -> List[Tuple[int, int]]:
        n = len(self.curves)
        return [(i, j) for i, row in enumerate(self.rows) for j in range(i + 1, n) if row >> j & 1]

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def is_automorphism(self, perm: Sequence[int]) -> bool:
        rows, n = self.rows, len(self.curves)
        return all(
            rows[i] >> j & 1 == rows[perm[i]] >> perm[j] & 1
            for i in range(n)
            for j in range(i + 1, n)
        )

    def to_text(self) -> str:
        lines = [f"vertices {len(self.curves)} class {self.graph_class.value}"]
        for i, c in enumerate(self.curves):
            lines.append(f"{i}: {c.to_text()}")
        for i, j in self.edges():
            lines.append(f"edge {i} {j}")
        return "\n".join(lines)

    def to_record(self) -> dict:
        return {
            "class": self.graph_class.value,
            "curves": [c.to_record() for c in self.curves],
            "edges": [list(e) for e in self.edges()],
        }


def build_graph(curves: Sequence[Curve], allow_mixed: bool = False) -> DisjointnessGraph:
    """Adjacency rows from the exact pair counts (`_iter_pair_counts`): an
    edge wherever the two curves have no interior meeting point.  Refused,
    in order: no curves, mixed kinds unless allowed, an inexact curve, two
    equal curves (equal coefficient tuples)."""
    curves = list(curves)
    n = len(curves)
    if not n:
        raise InvalidInputError("a graph needs at least one curve")
    kinds = {c.kind for c in curves}
    if len(kinds) == 1:
        graph_class = GraphClass(kinds.pop().value)
    elif allow_mixed:
        graph_class = GraphClass.MIXED
    else:
        raise InvalidInputError(
            "curves of mixed kinds; pass allow_mixed=True to build a mixed graph"
        )
    if not all(c.exact for c in curves):
        raise InvalidInputError("graph curves must be exact")
    keys = [c.circle.coeffs() for c in curves]
    if len(set(keys)) < n:
        i, j = next((i, j) for i, j in combinations(range(n), 2) if keys[i] == keys[j])
        raise InvalidInputError(f"duplicate curves at indices {i} and {j}: {curves[i].to_text()}")
    rows = [0] * n
    for (i, j), counts in zip(combinations(range(n), 2), _iter_pair_counts(curves)):
        if counts[0] == 0:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return DisjointnessGraph(curves, rows, graph_class)


def _twin_classes(rows: List[int]) -> List[List[int]]:
    """Classes of twins, each in increasing order, the classes by their
    least vertex.  Two vertices are twins when their neighbourhoods agree
    apart from the two themselves, so twins have equal degrees.  Twinship
    is an equivalence; a class is a clique or has no edge, and two classes
    are joined completely or not at all.  So any permutation inside a class
    is an automorphism, and every automorphism maps classes onto classes."""
    classes: List[List[int]] = []
    for v, row in enumerate(rows):
        for members in classes:
            u = members[0]
            if (rows[u] ^ row) & ~(1 << u | 1 << v) == 0:
                members.append(v)
                break
        else:
            classes.append([v])
    return classes


#: n -> the table `_symmetric(n)` keeps
_SYMMETRIC: Dict[int, Tuple[GraphAutomorphism, ...]] = {}


def _symmetric(n: int) -> Sequence[GraphAutomorphism]:
    """Every permutation of range(n) as a record, in lexicographic order.
    The records are kept in `_SYMMETRIC` when n! is at most DEFAULT_CAP
    (n <= 7, 5,913 records over every n) and formed afresh otherwise.  A
    record is hashable, so immutable, and callers share the kept ones."""
    table = _SYMMETRIC.get(n)
    if table is None:
        table = tuple(map(GraphAutomorphism, permutations(range(n))))
        if len(table) <= DEFAULT_CAP:
            _SYMMETRIC[n] = table
    return table


def automorphisms(g: DisjointnessGraph, cap: int = DEFAULT_CAP) -> List[GraphAutomorphism]:
    """All adjacency-preserving vertex permutations, in lexicographic order,
    in a new list on every call.

    Adjacency rows are int bitmasks.  Every automorphism keeps degrees and
    permutes the twin classes (`_twin_classes`), so each class is labelled
    by (degree, size) and goes only to classes of its label.  Backtracking
    on the classes maps classes 0, 1, ... in turn, each to the free classes
    of its label in increasing order, and keeps an image when its
    neighbours among the used classes (a bitmask) are exactly the images of
    the earlier neighbours.  A class map that passes every such check keeps
    the classes next to each class with their sizes, so it never sends a
    clique class onto an edgeless class of its size: their degrees would
    differ by the size less one.  Each class map found gives every
    bijection of each class onto its image (each class's bijections formed
    once per call), and the permutations are sorted.  An empty or complete
    graph is one class, whose n! permutations come in order with no search,
    as the shared records of `_symmetric(n)`.  A twin-free graph is its own
    quotient: its rows are the class rows, each vertex is labelled by its
    degree, and the class maps are the permutations, in order.  Graphs past
    MAX_VERTICES vertices are refused, as is a negative cap, and a cap that
    the count would exceed raises."""
    if cap < 0:
        raise InvalidInputError(f"automorphism cap {cap} is negative")
    n = len(g)
    if n > MAX_VERTICES:
        raise InvalidInputError(f"graph too large ({n} > {MAX_VERTICES})")
    rows = g.rows
    classes = _twin_classes(rows)
    k = len(classes)
    per_map = prod(factorial(len(m)) for m in classes)
    if k == 1 and per_map <= cap:  # an empty or complete graph; past the cap the search raises
        return list(_symmetric(n))
    if k == n:  # no twins: the quotient is the graph
        label, qrows = [row.bit_count() for row in rows], rows
    else:
        reps = [m[0] for m in classes]
        label = [(rows[r].bit_count(), len(m)) for r, m in zip(reps, classes)]
        qrows = [sum(1 << d for d, r in enumerate(reps) if rows[rep] >> r & 1) for rep in reps]
    # per class: the (class, bit, row) of each class of its label; earlier neighbours
    alike = [[(d, 1 << d, qrows[d]) for d in range(k) if label[d] == label[c]] for c in range(k)]
    earlier = [[d for d in range(c) if qrows[c] >> d & 1] for c in range(k)]
    maps: List[Tuple[int, ...]] = []
    image = [-1] * k
    image_bit = [0] * k

    def extend(c: int, used: int):
        if c == k:
            maps.append(tuple(image))
            if len(maps) * per_map > cap:
                raise HyperkError(f"automorphism cap {cap} exceeded (at least {cap + 1} found)")
            return
        want = 0
        for d in earlier[c]:
            want |= image_bit[d]
        for cand, bit, row in alike[c]:
            if used & bit or row & used != want:
                continue
            image[c], image_bit[c] = cand, bit
            extend(c + 1, used | bit)

    extend(0, 0)
    if k == n:  # the class maps are the permutations, in order
        return list(map(GraphAutomorphism, maps))
    # the image of vertex v is item pos[v] of the class images laid end to end
    pos = [0] * n
    for p, v in enumerate(v for m in classes for v in m):
        pos[v] = p
    spread = itemgetter(*pos)
    bijections = [list(permutations(m)) for m in classes]
    perms: List[Tuple[int, ...]] = []
    for m in maps:
        images = product(*[bijections[d] for d in m])
        perms.extend(map(spread, map(tuple, map(chain.from_iterable, images))))
    perms.sort()
    return list(map(GraphAutomorphism, perms))


def _source_frame(src_curves: Sequence[Curve]) -> List[Tuple[int, Tuple[int, int]]]:
    """Up to three distinct rational boundary points of the configuration,
    as integer pairs, each tagged with its curve index.  Horocycle
    centers come first (one possible image each), then endpoints curve by
    curve, so that both endpoints of a curve share their two images.  A
    curve with irrational endpoints gives no point; fewer than three points
    must then be every curve's data (`_completed_frames` relies on it), else
    InvalidInputError."""
    order = sorted(range(len(src_curves)),
                   key=lambda i: src_curves[i].kind is not CurveKind.HOROCYCLE)
    frame: List[Tuple[int, Tuple[int, int]]] = []
    complete = True
    for i in order:
        data = src_curves[i]._boundary
        if data is None:
            complete = False
            continue
        for p in data:
            if all(p != q for _, q in frame):
                frame.append((i, p))
                if len(frame) == 3:
                    return frame
    if not complete:
        raise InvalidInputError(
            "graph curves need rational boundary data when the configuration has "
            "fewer than three distinct rational boundary points"
        )
    return frame


def _candidate_isometries(src_curves: Sequence[Curve], dst_curves: Sequence[Curve]):
    """At most 8 candidate isometries, one of which maps curve i to target i
    for all i if any isometry does.  Each is the integer tuple (m00, m01,
    m10, m11, reversing) of `model._triple_ints`, no `Isometry`.

    Such an isometry sends every boundary datum of src_curves[i] to one of
    dst_curves[i] (endpoint to endpoint, center to center).  So the images
    of a fixed source frame of three distinct points are boundary data of
    the matching target curves, at most 2 choices each, and the frame and
    its images determine the isometry.  A frame curve whose target has no
    rational boundary data leaves no candidate: an isometry is rational, so
    it maps rational points to rational points and an exact curve to an
    exact one.  A configuration with fewer than three distinct boundary
    points gets its third frame point from metric data (see
    _completed_frames).  Every frame and its images, as integer pairs, go
    through `_triple_ints`."""
    frame = _source_frame(src_curves)
    points = [p for _, p in frame]
    choices = [dst_curves[i]._boundary for i, _ in frame]
    if None in choices:
        return
    for images in product(*choices):
        if len(set(images)) < len(images):
            continue  # an isometry is injective on the boundary
        if len(frame) == 3:
            triples = [(points, images)]
        else:
            triples = _completed_frames(src_curves, dst_curves, points, list(images))
        for src, dst in triples:
            yield _triple_ints(src, dst)


def _completed_frames(src_curves, dst_curves, points, images):
    """Two frames (source triple, target triple) of integer pairs for
    a configuration with one or two distinct boundary points whose images
    are fixed.

    The integer matrices a and b of `model._two_point_ints` move the points
    to oo and 0 (a lone point gets an arbitrary partner, harmless because
    the curves then are horocycles at oo, which every translation fixes).
    An isometry matching the configurations is then b^-1 . h . a with
    h(z) = lam z or h(z) = -lam conj(z): lam is the size ratio of the images
    of the first horocycle and its target (each circle's `model._image`
    under a or b), or with none (every h fixes curves ending at 0 and oo)
    the ratio of the `_dilation`s of b and a.  Each frame is (a^-1 oo,
    a^-1 0, a^-1 1) -> (b^-1 oo, b^-1 0, b^-1 h(1)), the inverses being
    adjugates."""
    if len(points) == 1:
        points = points + [_partner(points[0])]
        images = images + [_partner(images[0])]
    a, b = _two_point_ints(*points), _two_point_ints(*images)
    for s, t in zip(src_curves, dst_curves):
        if s.kind is CurveKind.HOROCYCLE:
            sn, sd = _horocycle_size(_image(s.circle.coeffs(), *a, False))
            tn, td = _horocycle_size(_image(t.circle.coeffs(), *b, False))
            num, den = tn * sd, td * sn
            break
    else:
        (an, ad), (bn, bd) = _dilation(a), _dilation(b)
        num, den = bn * ad, bd * an
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    third = (a11 - a01, a00 - a10)
    return [
        (points + [third],
         images + [(b11 * sign * num - b01 * den, b00 * den - b10 * sign * num)])
        for sign in (1, -1)
    ]


def _dilation(m):
    """(num, den), lam = num / den > 0 with m = (z -> lam z) . m1 for the
    integer matrix m, det m > 0, and m1 the map of m written with
    determinant 1 and 1 the first nonzero entry of its bottom row."""
    a, b, c, d = m
    return a * d - b * c, (c or d) ** 2


def _partner(p: Tuple[int, int]) -> Tuple[int, int]:
    """0 for oo and oo for any other point, as integer pairs."""
    return (0, 1) if p == (1, 0) else (1, 0)


def isometry_matching(
    src_curves: Sequence[Curve], dst_curves: Sequence[Curve]
) -> Optional[Isometry]:
    """An isometry mapping src_curves[i] to dst_curves[i] for every i, or
    None.

    Complete: each test before the search checks a necessary condition.
    Isometries preserve curve kind, so a kind mismatch answers None at once.
    They also preserve every pair's (interior_count, tangent,
    shared_endpoints), which are signs of Moebius invariants of the
    Lorentz Gram matrix (Coxeter, "Inversive distance"); so source and
    target counts are compared pair by pair, and the first pair that
    differs answers None.  Then the candidates are the at most 8 isometries
    sending a fixed frame of three rational source boundary points to
    boundary data of the matching target curves (completed from horocycle
    sizes when the source has fewer than three distinct boundary points),
    each an integer tuple, and each is verified exactly by one integer test
    on every curve: it must map the source circle onto the target's (the
    source's image coefficients are a multiple of the target's).  One
    `Isometry` is built, for the answer.  Lists of unequal length, and an
    inexact curve on either side, are refused (InvalidInputError).

    A curve with irrational endpoints gives no frame point and is verified
    by its circle, like every other.  When the other curves give fewer
    than three distinct rational boundary points, the frame cannot be
    completed: InvalidInputError is raised once the search is reached, not
    when a kind or a pair's counts already answer None."""
    if len(src_curves) != len(dst_curves):
        raise InvalidInputError("source and target curve lists differ in length")
    if not all(c.exact for c in chain(src_curves, dst_curves)):
        raise InvalidInputError("graph curves must be exact")
    n = len(src_curves)
    if any(src_curves[i].kind is not dst_curves[i].kind for i in range(n)):
        return None
    if all(map(eq, src_curves, dst_curves)):
        return Isometry.identity()
    if any(map(ne, _iter_pair_counts(src_curves), _iter_pair_counts(dst_curves))):
        return None
    # Curve equality is circle equality: no image Curve is built
    circles = [(s.circle, t.circle) for s, t in zip(src_curves, dst_curves)]
    for cand in _candidate_isometries(src_curves, dst_curves):
        if _maps_circles(cand, circles):
            return Isometry._from_coprime(*cand)
    return None


def _maps_circles(cand, circles) -> bool:
    """Does the candidate cand = (m00, m01, m10, m11, reversing) map each
    source circle onto its target, for every (source, target) pair of exact
    GeneralizedCircles in `circles`?

    Each pair is decided on integers: the source's image coefficients
    (`model._image`, the isometry action on coefficients) are a vector k
    that must be a multiple of the target's coprime coefficients w.
    Canonical form identifies v and -v, so the test is k[j] w[i] == w[j]
    k[i] for every j, with w[i] the first nonzero entry of w (one of a, b,
    c), and no gcd is taken."""
    for s, t in circles:
        ka, kb, kc, kd = _image(s.coeffs(), *cand)
        wa, wb, wc, wd = t.coeffs()
        wi, ki = (wa, ka) if wa else (wb, kb) if wb else (wc, kc)
        if (ka * wi, kb * wi, kc * wi, kd * wi) != (wa * ki, wb * ki, wc * ki, wd * ki):
            return False
    return True


def isometry_realizing(
    g: DisjointnessGraph, perm: GraphAutomorphism
) -> Optional[Isometry]:
    """An isometry mapping curve_i to curve_{perm(i)} for every i, or None:
    `isometry_matching` of the curves and their images under perm."""
    n = len(g)
    if len(perm.perm) != n or set(perm.perm) != set(range(n)):
        raise InvalidInputError(f"{list(perm.perm)} is not a permutation of the {n} vertices")
    if not g.is_automorphism(perm.perm):
        raise InvalidInputError("permutation is not an automorphism of the graph")
    return isometry_matching(g.curves, [g.curves[perm(i)] for i in range(n)])


def induced_permutation(g: DisjointnessGraph, iso: Isometry) -> GraphAutomorphism:
    """The vertex permutation induced by an isometry mapping the curve set
    to itself; raises if some image is not in the set."""
    images = [iso.apply_curve(c) for c in g.curves]
    try:
        perm = tuple(map(g.curves.index, images))
    except ValueError:
        raise InvalidInputError("isometry does not preserve the curve set")
    if sorted(perm) != list(range(len(g))):
        raise InvalidInputError("isometry does not permute the curve set")
    return GraphAutomorphism(perm)


class LinkCheckResult(Record):
    __slots__ = ("preserved", "witness")

    def __init__(self, preserved: bool, witness: Optional[Tuple[BoundaryPoint, ...]] = None):
        self.preserved, self.witness = preserved, witness

    def __bool__(self):
        return self.preserved


def link_preserving_check(
    points: Sequence[BoundaryPoint], map_values: Sequence[BoundaryPoint]
) -> LinkCheckResult:
    """Does the sampled map preserve linkedness of every 4-subset?  On
    failure the witness is the offending source quadruple."""
    points = list(points)
    map_values = list(map_values)
    if len(points) != len(map_values):
        raise InvalidInputError("points and map values differ in length")
    if len(set(points)) != len(points):
        raise InvalidInputError("sample points must be distinct")
    if len(set(map_values)) != len(map_values):
        raise InvalidInputError("map must be injective on the sample")
    n = len(points)
    for quad in combinations(range(n), 4):
        a, b, c, d = quad
        # the three pairings of the quadruple into two pairs
        for (p1, p2), (p3, p4) in (
            ((a, b), (c, d)),
            ((a, c), (b, d)),
            ((a, d), (b, c)),
        ):
            before = linked((points[p1], points[p2]), (points[p3], points[p4]))
            after = linked(
                (map_values[p1], map_values[p2]), (map_values[p3], map_values[p4])
            )
            if before != after:
                return LinkCheckResult(
                    False, (points[a], points[b], points[c], points[d])
                )
    return LinkCheckResult(True)
