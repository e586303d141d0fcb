"""Finite disjointness graphs of geodesics, horocycles, and hypercycles.

Vertices are curves; an edge joins two curves that do not meet in the open
half-plane (interior_count == 0).  A tangency at an interior point is a
meeting point, so h(0,1/2) and h(1,1/2), tangent at 1/2 + i/2, are not
adjacent; curves that meet only on the boundary circle are, such as
h(0,1/2) and h(0,1), which share only their center.  The module enumerates
graph automorphisms and searches for isometries realizing a given
automorphism, verified exactly on every curve.

For exact curves, adjacency and the first test of a matching both read a
table of pair counts (`predicates.pair_counts`): the interior count,
tangency and shared endpoints of every pair, from the Lorentz Gram matrix
of the configuration, formed once per list.  Those counts are Moebius
invariants, so an isometry keeps every one of them, and a target whose
table differs from the source's is answered None before any candidate
isometry is built.

Each candidate isometry is verified by one test on every curve's circle,
on integers when both circles are exact: the source circle, pulled back
along the candidate's inverse, must be a multiple of the target's
coefficients, so no image circle is built.  An inexact circle is compared
by `Isometry.apply_circle`, at tolerance EPS.  A curve with irrational
endpoints gives the search no frame point, so beside one the other curves
must give three distinct rational boundary points, or the search raises
InvalidInputError.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain, combinations, permutations, product
from math import factorial, prod
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from ._record import Record
from .errors import HyperkError, InvalidInputError
from .model import (
    INFINITY,
    BoundaryPoint,
    Curve,
    CurveKind,
    Isometry,
    _pullback,
    triple_normalizer,
    two_point_normalizer,
)
from .predicates import intersection_pattern, linked, pair_counts

#: the most vertices `automorphisms` searches; `build_graph` takes any number
MAX_VERTICES = 16


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
    """Curves plus the symmetric adjacency matrix of interior-disjointness."""

    __slots__ = ("curves", "adjacency", "graph_class")

    def __init__(self, curves: Sequence[Curve], adjacency, graph_class: GraphClass):
        self.curves = list(curves)
        self.adjacency = adjacency
        self.graph_class = graph_class

    def __len__(self):
        return len(self.curves)

    def edges(self) -> List[Tuple[int, int]]:
        n = len(self.curves)
        return [(i, j) for i in range(n) for j in range(i + 1, n) if self.adjacency[i][j]]

    def degree(self, i: int) -> int:
        return sum(1 for v in self.adjacency[i] if v)

    def is_automorphism(self, perm: Sequence[int]) -> bool:
        n = len(self.curves)
        return all(
            self.adjacency[i][j] == self.adjacency[perm[i]][perm[j]]
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
    """Adjacency via the exact pairwise intersection oracle: an edge wherever
    the two curves have no interior meeting point."""
    curves = list(curves)
    n = len(curves)
    for i in range(n):
        for j in range(i + 1, n):
            if curves[i] == curves[j]:
                raise InvalidInputError(
                    f"duplicate curves at indices {i} and {j}: {curves[i].to_text()}"
                )
    kinds = {c.kind for c in curves}
    if len(kinds) == 1:
        kind = next(iter(kinds))
        graph_class = {
            CurveKind.GEODESIC: GraphClass.GEODESIC,
            CurveKind.HOROCYCLE: GraphClass.HOROCYCLE,
            CurveKind.HYPERCYCLE: GraphClass.HYPERCYCLE,
        }.get(kind)
        if graph_class is None:
            raise InvalidInputError(f"unsupported curve kind {kind.value} in graph")
    elif allow_mixed:
        graph_class = GraphClass.MIXED
    else:
        raise InvalidInputError(
            "curves of mixed kinds; pass allow_mixed=True to build a mixed graph"
        )
    adjacency = [[False] * n for _ in range(n)]
    if all(c.exact for c in curves):
        counts = [k[0] for k in pair_counts(curves)]
    else:
        counts = [intersection_pattern(s, t).interior_count for s, t in combinations(curves, 2)]
    for (i, j), k in zip(combinations(range(n), 2), counts):
        adjacency[i][j] = adjacency[j][i] = k == 0
    return DisjointnessGraph(curves, adjacency, graph_class)


def _rows(g: DisjointnessGraph) -> List[int]:
    """Adjacency rows as int bitmasks: bit j of row i is the edge ij."""
    n = len(g)
    return [sum(1 << j for j in range(n) if j != i and g.adjacency[i][j]) for i in range(n)]


def _equitable_colours(rows: List[int]) -> List[int]:
    """Colour of each vertex in the coarsest equitable colouring refining the
    degrees (McKay 1981): repeatedly colour each vertex by its colour and the
    number of its neighbours in every cell, until no cell splits.  Colours
    are ranks of those signatures, so every automorphism keeps each cell."""
    n = len(rows)
    colour = [r.bit_count() for r in rows]
    count = 0
    while True:
        cells = [0] * n
        for v in range(n):
            cells[colour[v]] |= 1 << v
        signature = [
            (colour[v],) + tuple((rows[v] & cell).bit_count() for cell in cells if cell)
            for v in range(n)
        ]
        rank = {sig: k for k, sig in enumerate(sorted(set(signature)))}
        if len(rank) == count:
            return colour
        count = len(rank)
        colour = [rank[sig] for sig in signature]


def _twin_classes(rows: List[int], colour: List[int]) -> List[List[int]]:
    """Classes of twins, each in increasing order, the classes by their
    least vertex.  Two vertices of one colour are twins when their
    neighbourhoods agree apart from the two themselves.  Twinship is an
    equivalence; a class is a clique or has no edge, and two classes are
    joined completely or not at all.  So any permutation inside a class is
    an automorphism, and every automorphism maps classes onto classes."""
    classes: List[List[int]] = []
    for v, row in enumerate(rows):
        for members in classes:
            u = members[0]
            if colour[u] == colour[v] and (rows[u] ^ row) & ~(1 << u | 1 << v) == 0:
                members.append(v)
                break
        else:
            classes.append([v])
    return classes


def automorphisms(g: DisjointnessGraph, cap: int = 10000) -> List[GraphAutomorphism]:
    """All adjacency-preserving vertex permutations, in lexicographic order.

    Adjacency rows are int bitmasks.  Colour refinement from the degrees
    gives the coarsest equitable colouring, whose cells every automorphism
    preserves, and its twin classes (`_twin_classes`) are permuted by every
    automorphism.  Backtracking on the classes maps classes 0, 1, ... in
    turn, each to the free classes of its cell and size in increasing
    order, and keeps an image when its neighbours among the used classes
    (a bitmask) are exactly the images of the earlier neighbours.  A clique
    class is never mapped onto a class of its size with no edge: in an
    equitable colouring their vertices would count different numbers of
    neighbours in their own cell.  Each class map found gives every
    bijection of each class onto its image, and the permutations are
    sorted.  An empty or complete graph is one class, whose n! permutations
    come in order with no search.  Graphs past MAX_VERTICES vertices are
    refused, as is a negative cap, and a cap that the count would exceed
    raises."""
    if cap < 0:
        raise InvalidInputError(f"automorphism cap {cap} is negative")
    n = len(g)
    if n > MAX_VERTICES:
        raise InvalidInputError(f"graph too large ({n} > {MAX_VERTICES})")
    rows = _rows(g)
    colour = _equitable_colours(rows)
    classes = _twin_classes(rows, colour)
    k = len(classes)
    label = [(colour[m[0]], len(m)) for m in classes]
    reps = [m[0] for m in classes]
    qrows = [sum(1 << d for d, r in enumerate(reps) if rows[rep] >> r & 1) for rep in reps]
    # per class: the (class, bit, row) of its cell, and its earlier neighbours
    cells = [[(d, 1 << d, qrows[d]) for d in range(k) if label[d] == label[c]] for c in range(k)]
    earlier = [[d for d in range(c) if qrows[c] >> d & 1] for c in range(k)]
    per_map = prod(factorial(len(m)) for m in classes)
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
        for cand, bit, row in cells[c]:
            if used & bit or row & used != want:
                continue
            image[c], image_bit[c] = cand, bit
            extend(c + 1, used | bit)

    extend(0, 0)
    if k == n:  # no twins: the class maps are the permutations, in order
        return list(map(GraphAutomorphism, maps))
    if k == 1:  # an empty or complete graph: every permutation, in order
        return list(map(GraphAutomorphism, permutations(range(n))))
    # the image of vertex v is item pos[v] of the class images laid end to end
    pos = [0] * n
    for p, v in enumerate(v for m in classes for v in m):
        pos[v] = p
    spread = itemgetter(*pos)
    perms: List[Tuple[int, ...]] = []
    for m in maps:
        bijections = product(*[permutations(classes[d]) for d in m])
        perms.extend(map(spread, map(tuple, map(chain.from_iterable, bijections))))
    perms.sort()
    return list(map(GraphAutomorphism, perms))


def _boundary_data(curve: Curve) -> Optional[List[BoundaryPoint]]:
    """The boundary points determining the curve's position: the center of
    a horocycle, the endpoints of a geodesic or hypercycle; None when the
    endpoints are not rational (irrational, or an inexact curve's)."""
    if curve.kind is CurveKind.HOROCYCLE:
        return [curve.center]
    return list(curve.endpoints) if curve.has_exact_endpoints else None


def _source_frame(src_curves: Sequence[Curve]) -> List[Tuple[int, BoundaryPoint]]:
    """Up to three distinct rational boundary points of the configuration,
    each tagged with its curve index.  Horocycle centers come first (one
    possible image each), then endpoints curve by curve, so that both
    endpoints of a curve share their two images.  A curve with irrational
    endpoints gives no point; fewer than three points must then be every
    curve's data (`_completed_frames` relies on it), else InvalidInputError."""
    data = [_boundary_data(c) for c in src_curves]
    tagged = sorted(
        ((i, p) for i, ps in enumerate(data) if ps is not None for p in ps),
        key=lambda t: src_curves[t[0]].kind is not CurveKind.HOROCYCLE,
    )
    frame: List[Tuple[int, BoundaryPoint]] = []
    for i, p in tagged:
        if all(p != q for _, q in frame):
            frame.append((i, p))
            if len(frame) == 3:
                return frame
    if None in data:
        raise InvalidInputError(
            "graph curves need rational boundary data when the configuration has "
            "fewer than three distinct rational boundary points"
        )
    return frame


def _candidate_isometries(src_curves: Sequence[Curve], dst_curves: Sequence[Curve]):
    """At most 8 isometries, one of which maps curve i to target i for all
    i if any isometry does.

    Such an isometry sends every boundary datum of src_curves[i] to one of
    dst_curves[i] (endpoint to endpoint, center to center).  So the images
    of a fixed source frame of three distinct points are boundary data of
    the matching target curves, at most 2 choices each, and the frame and
    its images determine the isometry.  A frame curve whose target has no
    rational boundary data leaves no candidate: an isometry is rational, so
    it maps rational points to rational points and an exact curve to an
    exact one.  A configuration with fewer than three distinct boundary
    points gets its third frame point from metric data (see
    _completed_frames)."""
    frame = _source_frame(src_curves)
    points = [p for _, p in frame]
    choices = [_boundary_data(dst_curves[i]) for i, _ in frame]
    if None in choices:
        return
    for images in product(*choices):
        if len(set(images)) < len(images):
            continue  # an isometry is injective on the boundary
        if len(frame) == 3:
            triples = [(points, list(images))]
        else:
            triples = _completed_frames(src_curves, dst_curves, points, list(images))
        for src, dst in triples:
            try:
                yield triple_normalizer(src, dst)
            except HyperkError:
                continue


def _completed_frames(src_curves, dst_curves, points, images):
    """Two frames (source triple, target triple) for a configuration with
    one or two distinct boundary points whose images are fixed.

    Rational isometries a and b move the points to oo and 0 (a lone point
    gets an arbitrary partner, harmless because the curves then are
    horocycles at oo, which every translation fixes).  An isometry matching
    the configurations is then b^-1 . h . a with h(z) = lam z or
    h(z) = -lam conj(z): lam is the size ratio of the first horocycle, or
    with none (every h fixes curves ending at 0 and oo) the ratio of the
    `_dilation`s of b and a.  Each frame is (a^-1 oo, a^-1 0, a^-1 1) ->
    (b^-1 oo, b^-1 0, b^-1 h(1))."""
    if len(points) == 1:
        points = points + [_partner(points[0])]
        images = images + [_partner(images[0])]
    a = two_point_normalizer(points[0], points[1])
    b = two_point_normalizer(images[0], images[1])
    lam = _dilation(b) / _dilation(a)
    for s, t in zip(src_curves, dst_curves):
        if s.kind is CurveKind.HOROCYCLE:
            lam = b.apply_curve(t).size / a.apply_curve(s).size
            break
    third = a.inverse().apply_boundary(BoundaryPoint.finite(1))
    b_inv = b.inverse()
    return [
        (points + [third], images + [b_inv.apply_boundary(BoundaryPoint.finite(sign * lam))])
        for sign in (1, -1)
    ]


def _dilation(n: Isometry):
    """lam > 0 with n = (z -> lam z) . n1, n1 the map of n written with
    determinant 1 and 1 the first nonzero entry of its bottom row."""
    a, b, c, d = n.matrix()
    return (a * d - b * c) / (c or d) ** 2


def _partner(p: BoundaryPoint) -> BoundaryPoint:
    return BoundaryPoint.finite(0) if p.is_infinity else INFINITY


def isometry_matching(
    src_curves: Sequence[Curve], dst_curves: Sequence[Curve]
) -> Optional[Isometry]:
    """An isometry mapping src_curves[i] to dst_curves[i] for every i, or
    None.

    Complete: each test before the search checks a necessary condition.
    Isometries preserve curve kind, so a kind mismatch answers None at once.
    They also preserve every pair's (interior_count, tangent,
    shared_endpoints), which are signs of Moebius invariants of the
    Lorentz Gram matrix (Coxeter, "Inversive distance"); so when every curve
    on both sides is exact, the first pair whose counts differ between
    source and target answers None.  Otherwise the candidates are the at
    most 8 isometries sending a fixed frame of three rational source
    boundary points to boundary data of the matching target curves
    (completed from horocycle sizes when the source has fewer than three
    distinct boundary points), and each is verified exactly by one test on
    every curve: it must map the source circle onto the target's, on
    integers when both are exact (the source pulled back along the inverse
    is a multiple of the target), and by `Isometry.apply_circle` at
    tolerance EPS when either is inexact.

    A curve with irrational endpoints gives no frame point and is verified
    by its circle, like every other.  When the other curves give fewer
    than three distinct rational boundary points, the frame cannot be
    completed: InvalidInputError is raised once the search is reached, not
    when a kind or a pair's counts already answer None."""
    if len(src_curves) != len(dst_curves):
        raise InvalidInputError("source and target curve lists differ in length")
    n = len(src_curves)
    if any(src_curves[i].kind is not dst_curves[i].kind for i in range(n)):
        return None
    if all(src_curves[i] == dst_curves[i] for i in range(n)):
        return Isometry.identity()
    if all(c.exact for c in src_curves) and all(c.exact for c in dst_curves):
        if pair_counts(src_curves) != pair_counts(dst_curves):
            return None
    # Curve equality is circle equality: no image Curve is built
    circles = [(s.circle, t.circle) for s, t in zip(src_curves, dst_curves)]
    for cand in _candidate_isometries(src_curves, dst_curves):
        if _maps_circles(cand, circles):
            return cand
    return None


def _maps_circles(iso: Isometry, circles) -> bool:
    """Does iso map each source circle onto its target, for every (source,
    target) pair of GeneralizedCircles in `circles`?

    An exact pair is decided on integers: the source pulled back along the
    inverse map, as `apply_circle` does, is a vector k that must be a
    multiple of the target's coprime coefficients w.  Canonical form
    identifies v and -v, so the test is k[j] w[i] == w[j] k[i] for every j,
    with w[i] the first nonzero entry of w (one of a, b, c), and no gcd is
    taken.  A pair with an inexact side is compared by `apply_circle`, at
    tolerance EPS."""
    m00, m01, m10, m11 = iso._ints()
    for s, t in circles:
        if not (s.exact and t.exact):
            if iso.apply_circle(s) != t:
                return False
            continue
        a, b, c, d = s.coeffs()
        if iso.reversing:
            b = -b  # x -> -x first
        k = _pullback(a, b, c, d, m11, -m01, -m10, m00)
        w = t.coeffs()
        i = 0 if w[0] else 1 if w[1] else 2
        wi, ki = w[i], k[i]
        if any(kj * wi != wj * ki for kj, wj in zip(k, w)):
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
    perm = []
    for img in images:
        try:
            perm.append(g.curves.index(img))
        except ValueError:
            raise InvalidInputError("isometry does not preserve the curve set")
    if sorted(perm) != list(range(len(g))):
        raise InvalidInputError("isometry does not permute the curve set")
    return GraphAutomorphism(tuple(perm))


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
