import collections
import math
import random
from itertools import combinations, permutations, product

import pytest

from hyperk import (
    INFINITY,
    BoundaryPoint,
    CurveKind,
    GraphAutomorphism,
    Isometry,
    LinkCheckResult,
    Q,
    UHPPoint,
    automorphisms,
    build_graph,
    induced_permutation,
    isometry_matching,
    isometry_realizing,
    link_preserving_check,
    make_geodesic,
    make_horocycle,
    make_hypercycle,
)
from hyperk import graphs
from hyperk.constructions import pinch_pair
from hyperk.errors import HyperkError, InvalidInputError
from hyperk.model import (
    GeneralizedCircle, curve_from_coeffs, triple_normalizer,
)
from hyperk.predicates import intersection_pattern, pair_counts
from hyperk.verify import rand_geodesic, rand_horocycle, rand_hypercycle, rand_isometry, rand_q

from exact_oracles import _oracle_isometry_matching, oracle_two_point_normalizer

F = BoundaryPoint.finite


def designed_horocycles():
    return [
        make_horocycle(F(0), Q(1, 2)),
        make_horocycle(F(1), Q(1, 2)),
        make_horocycle(F(2), Q(1, 2)),
        make_horocycle(INFINITY, 2),
    ]


class TestBuildGraph:
    def test_designed_edges(self):
        g = build_graph(designed_horocycles())
        assert set(g.edges()) == {(0, 2), (0, 3), (1, 3), (2, 3)}
        # bit j of rows[i] is the edge ij
        assert g.rows == [0b1100, 0b1000, 0b1001, 0b0111]
        assert [g.degree(i) for i in range(4)] == [2, 1, 2, 3]

    def test_an_inexact_curve_is_refused(self):
        # a pinch witness with an irrational centre has no integer data: it
        # is refused by build_graph and by the matching, on either side
        hs = designed_horocycles()
        witness = pinch_pair(make_horocycle(F(0), 1), make_horocycle(F(5), 2))[0]
        floats = hs[:1] + [witness] + hs[2:]
        for call in (lambda: build_graph(floats), lambda: isometry_matching(hs, floats),
                     lambda: isometry_matching(floats, hs)):
            with pytest.raises(InvalidInputError, match="^graph curves must be exact$"):
                call()

    def test_mixed_kinds_rejected_by_default(self):
        curves = [make_geodesic(F(0), F(1)), make_horocycle(F(5), 1)]
        with pytest.raises(InvalidInputError):
            build_graph(curves)
        g = build_graph(curves, allow_mixed=True)
        assert len(g.curves) == 2

    def test_graphs_past_the_automorphism_cap_build(self):
        # counting meetings builds no points, so a graph of any size builds;
        # only the automorphism search is capped
        hs = [make_horocycle(F(k), Q(1, 2)) for k in range(graphs.MAX_VERTICES + 1)]
        g = build_graph(hs)
        assert len(g) == 17 and len(g.edges()) == 17 * 16 // 2 - 16
        with pytest.raises(InvalidInputError, match="graph too large"):
            automorphisms(g)

    def test_path_graph_geodesics(self):
        gs = [
            make_geodesic(F(0), F(1)),
            make_geodesic(F(2), F(3)),
            make_geodesic(F(4), F(5)),
        ]
        g = build_graph(gs)
        assert set(g.edges()) == {(0, 1), (0, 2), (1, 2)}


class TestAutomorphisms:
    def test_designed_graph_has_two(self):
        g = build_graph(designed_horocycles())
        autos = automorphisms(g)
        assert sorted(a.perm for a in autos) == [(0, 1, 2, 3), (2, 1, 0, 3)]

    def test_compose_and_inverse(self):
        a = GraphAutomorphism((2, 1, 0, 3))
        assert a.compose(a).perm == (0, 1, 2, 3)
        assert a.inverse().perm == (2, 1, 0, 3)


class TestRealization:
    def test_swap_realized(self):
        g = build_graph(designed_horocycles())
        iso = isometry_realizing(g, GraphAutomorphism((2, 1, 0, 3)))
        assert iso is not None
        assert iso.apply_boundary(F(0)) == F(2)
        assert iso.apply_boundary(F(2)) == F(0)
        assert iso.apply_boundary(INFINITY) == INFINITY

    def test_induced_permutation_roundtrip(self):
        g = build_graph(designed_horocycles())
        iso = isometry_realizing(g, GraphAutomorphism((2, 1, 0, 3)))
        perm = induced_permutation(g, iso)
        assert perm.perm == (2, 1, 0, 3)

    def test_relabeled_geodesics_admit_no_isometry(self):
        gs1 = [
            make_geodesic(F(-1), F(1)),
            make_geodesic(F(-3), F(-2)),
            make_geodesic(F(2), F(3)),
        ]
        gs2 = [
            make_geodesic(F(-2), F(1)),
            make_geodesic(F(-6), F(-4)),
            make_geodesic(F(2), F(3)),
        ]
        assert isometry_matching(gs1, gs2) is None

    def test_kind_mismatch_is_none(self):
        src = [make_geodesic(F(0), F(1)), make_horocycle(F(2), 1)]
        dst = [make_horocycle(F(2), 1), make_geodesic(F(0), F(1))]
        assert isometry_matching(src, dst) is None


def _maps_exactly(iso, src, dst):
    return all(iso.apply_curve(s) == t for s, t in zip(src, dst))


class TestFewBoundaryPoints:
    """Configurations with fewer than three distinct boundary points, where
    the frame is completed from horocycle sizes (scale 1 without one)."""

    def test_two_horocycles_swapped_by_inversion(self):
        src = [make_horocycle(F(0), Q(1, 2)), make_horocycle(INFINITY, 1)]
        dst = [make_horocycle(INFINITY, 1), make_horocycle(F(0), Q(1, 2))]
        iso = isometry_matching(src, dst)
        assert iso is not None and _maps_exactly(iso, src, dst)
        g = build_graph(src)
        assert isometry_realizing(g, GraphAutomorphism((1, 0))) is not None

    def test_single_geodesic(self):
        src = [make_geodesic(F(0), F(1))]
        dst = [make_geodesic(F(-3), INFINITY)]
        iso = isometry_matching(src, dst)
        assert iso is not None and _maps_exactly(iso, src, dst)

    def test_single_horocycle(self):
        finite, infinite = make_horocycle(F(2), Q(1, 3)), make_horocycle(INFINITY, 7)
        other = make_horocycle(F(-1), Q(5, 2))
        for src, dst in ((finite, other), (finite, infinite), (infinite, finite)):
            iso = isometry_matching([src], [dst])
            assert iso is not None and _maps_exactly(iso, [src], [dst])

    def test_reflection_when_horocycle_pins_the_ends(self):
        # z -> -conj(z) is the only isometry: the horocycle fixes 0, hence oo
        h = make_horocycle(F(0), 1)
        src = [h, make_hypercycle(F(0), INFINITY, UHPPoint(1, 1))]
        dst = [h, make_hypercycle(F(0), INFINITY, UHPPoint(-1, 1))]
        iso = isometry_matching(src, dst)
        assert iso is not None and iso.reversing and _maps_exactly(iso, src, dst)

    def test_concentric_horocycles_need_equal_size_ratio(self):
        src = [make_horocycle(F(2), Q(1, 3)), make_horocycle(F(2), Q(1, 5))]
        hit = [make_horocycle(F(-1), Q(5, 2)), make_horocycle(F(-1), Q(3, 2))]
        miss = [make_horocycle(F(-1), Q(5, 2)), make_horocycle(F(-1), Q(5, 6))]
        iso = isometry_matching(src, hit)
        assert iso is not None and _maps_exactly(iso, src, hit)
        assert isometry_matching(src, miss) is None

    def test_hypercycle_sharing_ends_with_geodesic(self):
        g = make_geodesic(F(0), F(2))
        hyp = make_hypercycle(F(0), F(2), UHPPoint(1, 2))
        k = Isometry(2, 1, 1, 3, reversing=True)
        src = [g, hyp]
        dst = [k.apply_curve(g), k.apply_curve(hyp)]
        iso = isometry_matching(src, dst)
        assert iso is not None and _maps_exactly(iso, src, dst)
        other = make_hypercycle(F(0), F(2), UHPPoint(1, 3))
        assert isometry_matching(src, [dst[0], k.apply_curve(other)]) is None


# -- differential test against the all-triples enumerator --------------------


def _oracle_matching(src_curves, dst_curves):
    """Reference matcher: every triple of distinct rational source boundary
    points against every choice of rational image boundary data, each
    candidate verified exactly on every curve.  Complete whenever the source
    has three distinct rational boundary points; O(m^3) candidates for m
    boundary points."""
    def data(c):
        if c.kind is CurveKind.HOROCYCLE:
            return [c.center]
        return list(c.endpoints) if c.has_exact_endpoints else []

    n = len(src_curves)
    if all(src_curves[i] == dst_curves[i] for i in range(n)):
        return Isometry.identity()
    src_points = [(i, p) for i in range(n) for p in data(src_curves[i])]
    dst_points = [data(c) for c in dst_curves]
    m = len(src_points)
    seen = set()
    for ai in range(m):
        for bi in range(ai + 1, m):
            for ci in range(bi + 1, m):
                triple = (src_points[ai], src_points[bi], src_points[ci])
                pts = [t[1] for t in triple]
                if len({p.value for p in pts}) != 3:
                    continue
                for img in product(*(dst_points[t[0]] for t in triple)):
                    if len(set(img)) != 3:
                        continue
                    key = (tuple(pts), tuple(img))
                    if key in seen:
                        continue
                    seen.add(key)
                    try:
                        cand = triple_normalizer(pts, list(img))
                    except (HyperkError, ZeroDivisionError):
                        continue
                    if _maps_exactly(cand, src_curves, dst_curves):
                        return cand
    return None


_MAKERS = (rand_geodesic, rand_horocycle, rand_hypercycle)


def _mixed_configuration(rng):
    n = rng.randint(3, 5)
    curves = []
    while len(curves) < n:
        c = rng.choice(_MAKERS)(rng)
        if c not in curves:
            curves.append(c)
    return curves


def _orbit_configuration(rng):
    """Orbit of two curves under a conjugate h of z -> -1/z or z -> -1/(z+1),
    and the relabelling h induces: perm[i] is the index of h(curves[i])."""
    gen, order = rng.choice(((Isometry(0, -1, 1, 0), 2), (Isometry(0, -1, 1, 1), 3)))
    g = rand_isometry(rng)
    h = g.compose(gen).compose(g.inverse())
    curves = []
    for maker in rng.sample(_MAKERS, 2):
        c = maker(rng)
        for _ in range(order):
            curves.append(c)
            c = h.apply_curve(c)
    if len(set(curves)) != len(curves):
        return _orbit_configuration(rng)
    perm = [i - i % order + (i + 1) % order for i in range(len(curves))]
    return curves, perm


def _transposed_targets(rng, curves, image):
    """The image relabelled by transpositions of two same-kind curves."""
    n = len(curves)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if curves[i].kind is curves[j].kind]
    for i, j in rng.sample(pairs, min(2, len(pairs))):
        swapped = list(image)
        swapped[i], swapped[j] = image[j], image[i]
        yield swapped


def test_frame_matching_agrees_with_all_triples_oracle(monkeypatch):
    calls = []
    candidates = graphs._candidate_isometries

    def counted(src, dst):
        for cand in candidates(src, dst):
            calls.append(1)
            yield cand

    monkeypatch.setattr(graphs, "_candidate_isometries", counted)
    rng = random.Random(20240527)
    found = missed = 0
    for index in range(24):
        if index % 2:
            curves, perm = _orbit_configuration(rng)
        else:
            curves, perm = _mixed_configuration(rng), None
        g = rand_isometry(rng)
        image = [g.apply_curve(c) for c in curves]
        targets = [image, *_transposed_targets(rng, curves, image)]
        if perm is not None:
            # image relabelled by the symmetry: realized by g . h
            targets.append([image[j] for j in perm])
        for target in targets:
            del calls[:]
            iso = isometry_matching(curves, target)
            assert len(calls) <= 8
            assert (iso is None) == (_oracle_matching(curves, target) is None)
            if iso is None:
                missed += 1
            else:
                found += 1
                assert calls and _maps_exactly(iso, curves, target)
    assert found == 24 + 12 and missed > 0


class TestLinkChecks:
    def test_monotone_map_preserves_links(self):
        pts = [F(-2), F(-1), F(0), F(1), F(2)]
        imgs = [F(v.value ** 3) for v in pts]
        res = link_preserving_check(pts, imgs)
        assert res.preserved and res

    def test_swap_breaks_links_with_witness(self):
        pts = [F(0), F(1), F(2), F(3)]
        imgs = [F(1), F(0), F(2), F(3)]
        res = link_preserving_check(pts, imgs)
        assert not res.preserved and not res
        assert res.witness is not None


# -- differential test against the degree-signature backtracking -------------


def _oracle_automorphisms(g, cap=10000):
    """Reference enumerator: backtracking over every unused vertex with the
    same degree and neighbour-degree multiset, each checked against every
    earlier vertex; lexicographic order, the same cap and error text."""
    n = len(g)
    degrees = [g.degree(i) for i in range(n)]
    signature = [
        (degrees[i], tuple(sorted(degrees[j] for j in range(n) if g.rows[i] >> j & 1)))
        for i in range(n)
    ]
    out = []
    image = [-1] * n
    used = [False] * n

    def extend(i):
        if i == n:
            out.append(GraphAutomorphism(tuple(image)))
            if len(out) > cap:
                raise HyperkError(
                    f"automorphism cap {cap} exceeded (at least {len(out)} found)"
                )
            return
        for cand in range(n):
            if used[cand] or signature[cand] != signature[i]:
                continue
            if any(g.rows[i] >> j & 1 != g.rows[cand] >> image[j] & 1 for j in range(i)):
                continue
            image[i] = cand
            used[cand] = True
            extend(i + 1)
            used[cand] = False
            image[i] = -1

    extend(0)
    return out


def _labelled_graph(n, edges):
    rows = [0] * n
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return graphs.DisjointnessGraph([None] * n, rows, graphs.GraphClass.GEODESIC)


def _outcome(routine, g, cap):
    """The automorphism list, or the text of the cap error."""
    try:
        return routine(g, cap)
    except HyperkError as err:
        return str(err)


def test_automorphisms_match_oracle_on_every_graph_on_5_vertices():
    pairs = list(combinations(range(5), 2))
    for mask in range(1 << len(pairs)):
        g = _labelled_graph(5, [e for k, e in enumerate(pairs) if mask >> k & 1])
        assert automorphisms(g) == _oracle_automorphisms(g), mask


def _seeded_graphs(rng, count):
    """Random graphs on 6-16 vertices, sparse to dense, plus unions of
    cycles and complete bipartite graphs, whose degrees are all alike."""
    for k in range(count):
        n = rng.randint(6, 16)
        if k % 10 == 0:  # two disjoint cycles
            cut = rng.randint(3, n - 3)
            edges = [(v, v + 1) for v in range(n - 1) if v + 1 != cut] + [(0, cut - 1), (cut, n - 1)]
        elif k % 10 == 1:  # complete bipartite, relabelled
            order = rng.sample(range(n), n)
            m = rng.randint(1, n - 1)
            edges = [(order[i], order[j]) for i in range(m) for j in range(m, n)]
        else:
            density = rng.choice((0.05, 0.15, 0.3, 0.5, 0.7, 0.85, 0.95))
            edges = [e for e in combinations(range(n), 2) if rng.random() < density]
        yield _labelled_graph(n, edges)


def test_automorphisms_match_oracle_on_seeded_graphs():
    rng = random.Random(20261018)
    capped = nontrivial = 0
    for g in _seeded_graphs(rng, 320):
        got = _outcome(automorphisms, g, 500)
        assert got == _outcome(_oracle_automorphisms, g, 500), g.edges()
        if isinstance(got, str):
            capped += 1
        else:
            nontrivial += len(got) > 1
            degrees = [g.degree(v) for v in range(len(g))]
            for a in got:
                assert [degrees[a(v)] for v in range(len(g))] == degrees
    assert capped >= 10 and nontrivial >= 50


def test_cap_raises_at_the_same_point():
    empty = _labelled_graph(8, [])
    message = "automorphism cap 10000 exceeded (at least 10001 found)"
    assert _outcome(automorphisms, empty, 10000) == message
    assert _outcome(_oracle_automorphisms, empty, 10000) == message
    # 8! automorphisms fit a cap of 8!, in lexicographic order
    every = automorphisms(empty, cap=40320)
    assert [a.perm for a in every] == list(permutations(range(8)))


def test_one_class_graphs_share_the_table_records_in_fresh_lists():
    for n in (6, 7):
        for g in (_labelled_graph(n, []), _labelled_graph(n, list(combinations(range(n), 2)))):
            first = automorphisms(g)
            assert first == _oracle_automorphisms(g)
            assert first == list(graphs._SYMMETRIC[n])
            first.reverse()
            del first[1:]
            second = automorphisms(g)
            assert second is not first and second == _oracle_automorphisms(g)
            assert all(a is b for a, b in zip(second, graphs._SYMMETRIC[n]))


def test_one_class_graphs_past_the_default_cap_get_fresh_records():
    # 8! > 10,000: listed when the cap allows, but kept in no table
    empty = _labelled_graph(8, [])
    first = automorphisms(empty, cap=40320)
    second = automorphisms(empty, cap=40320)
    assert 8 not in graphs._SYMMETRIC
    assert first == second and first[0] is not second[0]
    assert all(math.factorial(n) <= graphs.DEFAULT_CAP for n in graphs._SYMMETRIC)


def test_twin_free_graphs_expand_no_class(monkeypatch):
    # a twin-free graph is its own quotient: its class maps are its
    # automorphisms, and no class bijection is formed
    pairs = list(combinations(range(5), 2))
    every = [_labelled_graph(5, [e for k, e in enumerate(pairs) if mask >> k & 1])
             for mask in range(1 << len(pairs))]
    twin_free = [g for g in every if len(graphs._twin_classes(g.rows)) == 5]
    want = [_oracle_automorphisms(g) for g in twin_free]

    def refused(*args):
        raise AssertionError("a class bijection formed for a twin-free graph")

    monkeypatch.setattr(graphs, "permutations", refused)
    monkeypatch.setattr(graphs, "product", refused)
    assert len(twin_free) > 100
    assert [automorphisms(g) for g in twin_free] == want


def test_negative_cap_is_refused():
    # no count exceeds a negative cap, so it is refused by its value; a cap
    # of 0 is exceeded by the identity
    g = _labelled_graph(3, [(0, 1)])
    with pytest.raises(InvalidInputError, match="automorphism cap -1 is negative"):
        automorphisms(g, cap=-1)
    message = "automorphism cap 0 exceeded (at least 1 found)"
    assert _outcome(automorphisms, g, 0) == message
    assert _outcome(_oracle_automorphisms, g, 0) == message


def test_twin_classes_expand_to_the_oracle_list():
    # the octahedron K(2,2,2): three classes of non-adjacent twins
    octahedron = _labelled_graph(6, [e for e in combinations(range(6), 2) if e[1] - e[0] != 3])
    assert graphs._twin_classes(octahedron.rows) == [[0, 3], [1, 4], [2, 5]]
    # a triangle is a class of adjacent twins
    triangle = _labelled_graph(6, [(0, 2), (2, 4), (0, 4)])
    assert graphs._twin_classes(triangle.rows) == [[0, 2, 4], [1, 3, 5]]
    # a clique class {0, 4} and an edgeless one {2, 3}, both of size 2 and
    # degree 1: only the class next to each keeps them apart
    cherry = _labelled_graph(5, [(0, 4), (1, 2), (1, 3)])
    assert graphs._twin_classes(cherry.rows) == [[0, 4], [1], [2, 3]]
    # a 6-cycle of cliques of sizes 1, 2, 3, 1, 2, 3 is 5-regular: only the
    # class sizes keep a class from mapping onto its neighbour
    members = [[0], [1, 2], [3, 4, 5], [6], [7, 8], [9, 10, 11]]
    blown_up = _labelled_graph(12, [e for m in members for e in combinations(m, 2)] + [
        (u, v) for i in range(6) for u in members[i] for v in members[(i + 1) % 6]
    ])
    assert graphs._twin_classes(blown_up.rows) == members
    cases = [
        (blown_up, 288),
        (octahedron, 48),
        (triangle, 36),
        (cherry, 4),
        (_labelled_graph(7, [(i, j) for i in (0, 3, 5) for j in (1, 2, 4, 6)]), 144),  # K(3,4)
        (_labelled_graph(8, [(0, 5), (0, 6), (1, 2), (1, 3), (1, 7), (4, 5)]), 12),  # stars, path
        (_labelled_graph(8, [(v, v ^ 1) for v in range(8)]), 384),  # 4 disjoint edges
        (_labelled_graph(6, list(combinations(range(6), 2))), 720),
    ]
    for g, order in cases:
        got = automorphisms(g)
        assert len(got) == order and got == _oracle_automorphisms(g), g.edges()
    # the cap counts every bijection of a class map: 8 disjoint edges have
    # 2^8 per class map, so the second map passes a cap of 500
    matching = _labelled_graph(16, [(v, v ^ 1) for v in range(0, 16, 2)])
    message = "automorphism cap 500 exceeded (at least 501 found)"
    assert _outcome(automorphisms, matching, 500) == message
    assert _outcome(_oracle_automorphisms, matching, 500) == message


def _few_point_configuration(rng):
    """Curves with one or two distinct boundary points p, q (either may be
    oo), at least one of them a horocycle only when `horocycle` says so."""
    p, q = (INFINITY if rng.random() < 0.25 else F(rand_q(rng)) for _ in range(2))
    while q == p:
        q = F(rand_q(rng))
    size = abs(rand_q(rng, 1, 4, 6)) + Q(1, 8)
    through = UHPPoint(rand_q(rng), abs(rand_q(rng, 1, 4)) + Q(1, 8))
    kind = rng.randrange(5)
    if kind == 0:
        return [make_geodesic(p, q)]
    if kind == 1:
        try:
            return [make_geodesic(p, q), make_hypercycle(p, q, through)]
        except HyperkError:
            return [make_geodesic(p, q)]
    if kind == 2:
        return [make_horocycle(p, size)]
    if kind == 3:
        return [make_horocycle(p, size), make_horocycle(p, 2 * size)]
    return [make_horocycle(p, size), make_horocycle(q, size), make_geodesic(p, q)][
        :rng.randint(2, 3)]


def test_matching_does_not_depend_on_the_two_point_normalizer_scale(monkeypatch):
    rng = random.Random(6195)
    cases = []
    for index in range(300):
        curves = _few_point_configuration(rng) if index % 3 else _mixed_configuration(rng)
        g = rand_isometry(rng)
        target = [g.apply_curve(c) for c in curves]
        cases += [(curves, target), (curves, target[::-1])]
    got = [isometry_matching(src, dst) for src, dst in cases]

    def oracle_ints(x, y):
        # the oracle's matrix, at another scale, on the same integer pairs
        x, y = (BoundaryPoint(Q(*p) if p[1] else None) for p in (x, y))
        return oracle_two_point_normalizer(x, y)._ints()

    monkeypatch.setattr(graphs, "_two_point_ints", oracle_ints)
    assert [isometry_matching(src, dst) for src, dst in cases] == got
    few = [iso for (src, _), iso in zip(cases, got)
           if iso is not None and len(graphs._source_frame(src)) < 3]
    assert len(few) >= 150 and sum(len(src) == 1 for src, _ in cases) >= 100


# -- differential test against the search without the pair-count test --------

#: a reversing map and maps whose images have 2^600-entry coefficients
_WIDE_MAPS = (
    Isometry(2, 1, 1, 3, reversing=True),
    Isometry(2**600 + 9, 1, 2**600, 1),
    Isometry(2**600 + 1, 1, 2**600, 1, reversing=True),
)


def _matching_cases(rng, count):
    """(source, target) pairs: a seeded configuration (mixed, an orbit,
    few boundary points, or mixed with a horocycle at oo) against its image
    under a random, a reversing or a 2^600-entry isometry, that image
    relabelled by transpositions and by a shuffle, and the image relabelled
    by up to 10 automorphisms of the configuration's graph."""
    for index in range(count):
        shape = index % 4
        if shape == 0:
            curves = _mixed_configuration(rng)
        elif shape == 1:
            curves = _orbit_configuration(rng)[0]
        elif shape == 2:
            curves = _few_point_configuration(rng)
        else:
            curves = [c for c in _mixed_configuration(rng)
                      if c.kind is not CurveKind.HOROCYCLE or not c.center.is_infinity]
            curves.append(make_horocycle(INFINITY, abs(rand_q(rng)) + 1))
        g = rand_isometry(rng) if index % 3 else _WIDE_MAPS[index // 3 % 3]
        image = [g.apply_curve(c) for c in curves]
        for target in _relabelled_images(rng, curves, image):
            yield curves, target


def _relabelled_images(rng, curves, image):
    """The image, relabelled by transpositions, by a shuffle and by up to 10
    automorphisms of the configuration's graph."""
    yield image
    yield from _transposed_targets(rng, curves, image)
    yield rng.sample(image, len(image))
    for a in automorphisms(build_graph(curves, allow_mixed=True))[:10]:
        yield [image[a(i)] for i in range(len(curves))]


def _irrational_curve(rng, kind):
    """A geodesic or hypercycle with irrational endpoints: a > 0 and
    b^2 - 4ad positive and not a square."""
    while True:
        a, b, d = rng.randint(1, 4), rng.randint(-12, 12), rng.randint(-12, 12)
        disc = b * b - 4 * a * d
        if disc > 0 and math.isqrt(disc) ** 2 != disc:
            c = 0 if kind is CurveKind.GEODESIC else rng.choice((-3, -2, -1, 1, 2, 3))
            return curve_from_coeffs(a, b, c, d)


def _distinct_curves(rng, makers):
    curves = []
    for maker in makers:
        c = maker(rng)
        while c in curves:
            c = maker(rng)
        curves.append(c)
    return curves


def _irrational_targets(rng, curves, image):
    """The image with one geodesic or hypercycle replaced by one of its kind
    with irrational endpoints: once at a curve of the source frame, once
    elsewhere.  Of up to 20 draws, the first whose pair counts agree with
    the image's is kept, so that the search is reached."""
    frame = {i for i, _ in graphs._source_frame(curves)}
    spots = [i for i, c in enumerate(curves) if c.kind is not CurveKind.HOROCYCLE]
    for inside in (True, False):
        choices = [i for i in spots if (i in frame) == inside]
        if not choices:
            continue
        i = rng.choice(choices)
        for _ in range(20):
            target = image[:i] + [_irrational_curve(rng, curves[i].kind)] + image[i + 1:]
            if pair_counts(target) == pair_counts(image):
                break
        yield ("frame" if inside else "other"), target


def _wider_matching_cases(rng, count):
    """(shape, target tag, source, target) for shapes `_matching_cases` has
    few of: geodesics only, geodesics with one other curve, horocycles at oo
    (one or two), and one or two curves with irrational endpoints beside two
    rational geodesics.  Targets are as in `_matching_cases`, plus
    `_irrational_targets` of the image."""
    for index in range(count):
        shape = ("geodesics", "geodesic-heavy", "oo", "irrational")[index % 4]
        n = rng.randint(1 if shape == "geodesics" else 2, 5)
        if shape == "geodesics":
            curves = _distinct_curves(rng, [rand_geodesic] * n)
        elif shape == "geodesic-heavy":
            other = rng.choice((rand_horocycle, rand_hypercycle))
            curves = _distinct_curves(rng, [rand_geodesic] * (n - 1) + [other])
        elif shape == "oo":
            curves = [c for c in _distinct_curves(rng, [rng.choice(_MAKERS) for _ in range(n)])
                      if c.kind is not CurveKind.HOROCYCLE or not c.center.is_infinity]
            sizes = rng.sample(range(1, 9), rng.randint(1, 2))
            curves += [make_horocycle(INFINITY, Q(k, 2)) for k in sizes]
            rng.shuffle(curves)
        else:
            curves = _distinct_curves(rng, [rand_geodesic] * 2)
            curves += [_irrational_curve(rng, rng.choice((CurveKind.GEODESIC, CurveKind.HYPERCYCLE)))
                       for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.5:
                curves.append(rand_horocycle(rng))
            rng.shuffle(curves)
            if len(set(curves)) < len(curves):
                continue
        g = rand_isometry(rng) if index % 3 else _WIDE_MAPS[index // 3 % 3]
        image = [g.apply_curve(c) for c in curves]
        for target in _relabelled_images(rng, curves, image):
            yield shape, "relabelled", curves, target
        for tag, target in _irrational_targets(rng, curves, image):
            yield shape, tag, curves, target


def _pattern_counts(curves):
    return [(p.interior_count, p.tangent, p.shared_endpoints)
            for p in (intersection_pattern(s, t) for s, t in combinations(curves, 2))]


def test_pair_count_test_keeps_every_answer():
    # the counts only answer None early: every answer, and every returned
    # isometry to its printed entries, is the full search's
    rng = random.Random(2210)
    hits = by_counts = by_search = wide = 0
    for src, dst in _matching_cases(rng, 96):
        want = _oracle_isometry_matching(src, dst)
        got = isometry_matching(src, dst)
        assert got == want and repr(got) == repr(want)
        assert pair_counts(src) == _pattern_counts(src)
        assert pair_counts(dst) == _pattern_counts(dst)
        if want is not None:
            hits += 1
        elif pair_counts(src) != pair_counts(dst):
            by_counts += 1
        elif all(s.kind is t.kind for s, t in zip(src, dst)):
            by_search += 1
        wide += max(abs(v).bit_length() for c in dst for v in c.circle.coeffs()) > 600
    assert hits >= 200 and by_counts >= 150 and by_search >= 100 and wide >= 150
    # wider shapes: geodesics alone or beside one other curve, horocycles
    # at oo, and curves with irrational endpoints, each checked by its
    # circle; the all-triples matcher, which knows nothing of the frame,
    # agrees on every small target beside irrational endpoints
    tally = collections.Counter()
    for shape, tag, src, dst in _wider_matching_cases(random.Random(2311), 96):
        want = _oracle_isometry_matching(src, dst)
        got = isometry_matching(src, dst)
        assert got == want and repr(got) == repr(want)
        irrational = not all(c.has_exact_endpoints or c.kind is CurveKind.HOROCYCLE
                             for c in src + dst)
        small = max(abs(v).bit_length() for c in dst for v in c.circle.coeffs()) < 100
        if irrational and small:
            assert (got is None) == (_oracle_matching(src, dst) is None)
        if got is not None:
            tally[shape, "hit"] += 1
        elif pair_counts(src) == pair_counts(dst):
            tally[shape, tag] += 1  # a miss the search answers
    for shape in ("geodesics", "geodesic-heavy", "oo", "irrational"):
        assert tally[shape, "hit"] >= 40 and tally[shape, "relabelled"] >= 40
        assert tally[shape, "frame"] >= 5 and tally[shape, "other"] >= 5


def _off_by_one(rng, circle):
    """The exact circle with one coefficient moved by 1, or None when the
    moved coefficients define none."""
    k = list(circle.coeffs())
    k[rng.randrange(4)] += rng.choice((-1, 1))
    try:
        return GeneralizedCircle(*k)
    except HyperkError:
        return None


def test_integer_circle_test_agrees_with_apply_circle():
    # _maps_circles decides an exact pair on integers, with no circle built:
    # it answers what comparing apply_circle's image does, on the true
    # image, an image one coefficient off and the image under another map
    rng = random.Random(2414)
    makers = (rand_geodesic, rand_horocycle, rand_hypercycle,
              lambda r: make_horocycle(INFINITY, abs(rand_q(r)) + 1),
              lambda r: _irrational_curve(r, r.choice((CurveKind.GEODESIC, CurveKind.HYPERCYCLE))))
    tally = collections.Counter()
    for index in range(400):
        c = makers[index % len(makers)](rng).circle
        g = _WIDE_MAPS[index // 5 % 3] if index % 4 == 0 else rand_isometry(rng)
        other = g @ rand_isometry(rng)
        image = g.apply_circle(c)
        targets = [image, _off_by_one(rng, image), other.apply_circle(c)]
        cand = (*g._ints(), g.reversing)
        for t in filter(None, targets):
            want = g.apply_circle(c) == t
            assert graphs._maps_circles(cand, [(c, t)]) == want
            assert graphs._maps_circles(cand, [(c, image), (c, t)]) == want
            tally[g.reversing, want] += 1
    # every map kind on both answers
    assert min(tally.values()) >= 100, tally


def test_realizing_answers_as_matching_the_images():
    # realizing an automorphism is matching the curves to their images
    # under it, to the printed entries of the isometry
    rng = random.Random(2312)
    realized = 0
    for index in range(16):
        curves = _orbit_configuration(rng)[0] if index % 2 else _mixed_configuration(rng)
        n = len(curves)
        g = build_graph(curves, allow_mixed=True)
        for a in automorphisms(g):
            iso = isometry_realizing(g, a)
            want = isometry_matching(curves, [curves[a(i)] for i in range(n)])
            assert iso == want and repr(iso) == repr(want)
            realized += iso is not None and a.perm != tuple(range(n))
    assert realized >= 8


def test_pair_counts_refuse_inexact_curves():
    inexact = pinch_pair(make_horocycle(F(0), 1), make_horocycle(F(5), 2))[1]
    with pytest.raises(InvalidInputError, match="pair_counts needs exact curves"):
        pair_counts([make_horocycle(INFINITY, 1), inexact])


def test_horocycle_centres_frame_the_search():
    # horocycle centres frame the search, and a frame completed from one
    # or two of them gets lam from the integer sizes
    hs = [make_horocycle(F(0), Q(1, 2)), make_horocycle(F(1), Q(1, 2)),
          make_horocycle(F(3), Q(1, 4))]
    at_oo = [make_horocycle(INFINITY, Q(1, 2)), make_horocycle(INFINITY, Q(3, 2))]
    for src in (hs, hs[:1], at_oo, [hs[0], make_geodesic(F(0), F(2))]):
        for g in (Isometry.scaling(2), Isometry(0, -1, 1, 0), Isometry(3, 1, 1, 1)):
            dst = [g.apply_curve(c) for c in src]
            iso = isometry_matching(src, dst)
            assert iso is not None and all(iso.apply_curve(c) == t for c, t in zip(src, dst))
    assert isometry_matching(at_oo, [Isometry.scaling(2).apply_curve(c) for c in at_oo]) == (
        Isometry.scaling(2))


def test_a_failed_triple_check_is_raised_not_skipped(monkeypatch):
    # a candidate whose triple check fails is a fault, not a miss: the
    # search must not answer None to a matchable pair
    def failing(src, dst):
        raise HyperkError("triple normalizer does not send the frame")

    src = [make_geodesic(F(0), F(1)), make_geodesic(F(2), F(3))]
    dst = [Isometry.translation(1).apply_curve(c) for c in src]
    monkeypatch.setattr(graphs, "_triple_ints", failing)
    with pytest.raises(HyperkError, match="does not send the frame"):
        isometry_matching(src, dst)


class TestIrrationalEndpoints:
    """x^2 + y^2 - y - 2 = 0 is a hypercycle ending at -sqrt(2) and sqrt(2):
    it gives the frame no point and is verified by its circle.  The search
    refuses it only when the other curves give fewer than three distinct
    rational boundary points, and a target whose pair counts differ is
    answered before the search."""

    H = curve_from_coeffs(1, 0, -1, -2)
    CROSSING = make_geodesic(F(0), INFINITY)  # crosses H once, at 2i
    DISJOINT = make_geodesic(F(3), F(4))
    TANGENT = make_geodesic(F(-2), F(2))  # touches H at 2i

    def test_changed_counts_answer_none(self):
        assert isometry_matching([self.H, self.CROSSING], [self.H, self.DISJOINT]) is None
        assert isometry_matching([self.H, self.CROSSING], [self.H, self.TANGENT]) is None

    def test_equal_counts_reach_the_search_and_are_refused(self):
        # the other curves give fewer than three rational boundary points
        t = Isometry.translation(1)
        for src in ([self.H], [self.H, self.CROSSING]):
            with pytest.raises(InvalidInputError, match="need rational boundary data"):
                isometry_matching(src, [t.apply_curve(c) for c in src])

    def test_three_rational_points_frame_the_search(self):
        # 0, 1 and 3 frame the search; H is checked by its circle
        src = [make_horocycle(F(0), 1), make_geodesic(F(1), F(3)), self.H]
        t = Isometry.translation(1)
        assert isometry_matching(src, [t.apply_curve(c) for c in src]) == t
        k = Isometry(2, 1, 1, 3, reversing=True)
        dst = [k.apply_curve(c) for c in src]
        assert isometry_matching(src, dst) == k
        assert isometry_matching(src, dst[:2] + [t.apply_curve(dst[2])]) is None
        # z -> -conj(z) keeps H and swaps g(1, 3) with g(-3, -1)
        g = build_graph([self.H, src[1], make_geodesic(F(-3), F(-1))], allow_mixed=True)
        assert isometry_realizing(g, GraphAutomorphism((0, 2, 1))) == Isometry.reflection()

    def test_irrational_target_of_a_frame_curve_leaves_no_candidate(self):
        # g(2, 3) gives the frame its third point; a geodesic ending at
        # 5 +- sqrt(2) misses g(0, 1) as g(2, 3) does, so the counts agree,
        # and no rational isometry sends 2 to an irrational endpoint
        src = [make_geodesic(F(0), F(1)), make_geodesic(F(2), F(3))]
        dst = [src[0], curve_from_coeffs(1, -10, 0, 23)]
        assert [i for i, _ in graphs._source_frame(src)] == [0, 0, 1]
        assert pair_counts(src) == pair_counts(dst)
        assert list(graphs._candidate_isometries(src, dst)) == []
        assert isometry_matching(src, dst) is None

    def test_graph_automorphism_with_changed_counts_is_not_realized(self):
        # the three curves pairwise meet, so the graph has no edge and every
        # permutation is an automorphism; H crosses one geodesic and touches
        # the other, so swapping them is realized by no isometry
        crossing = make_geodesic(F(1), F(5))
        g = build_graph([self.H, crossing, self.TANGENT], allow_mixed=True)
        assert g.edges() == []
        assert isometry_realizing(g, GraphAutomorphism((0, 2, 1))) is None
