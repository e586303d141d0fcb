"""`configs` workload: curve configurations (graphs, earthquake, model).

One *config* op takes a configuration of 4-6 curves and runs build_graph,
automorphisms and isometry_matching twice: the *hit* target is the image of
the configuration under a random isometry, the *miss* target the same image
relabelled by a transposition for which no isometry can exist.  Half of the
configurations are random mixed sets with fixed kind counts; the other half
are orbits of two curves under a conjugated order-2 or order-3 isometry, so
their graphs have non-trivial automorphisms.

One *realizability* op runs tangency_realizability on a horocycle
configuration whose centers are relabelled either by an isometry's boundary
map (always satisfiable) or by a transposition or shuffle of the centers
(satisfiable or not); tangency chains leave free radii that reach linprog.

Checks (every op, outside the timed call):
  * the hit isometry maps every curve exactly onto its target;
  * the miss answer is None, and set-up proved it must be: the transposition
    changes a curve's kind or an isometry-invariant pairwise pattern;
  * an orbit's generating isometry induces one of the returned automorphisms,
    and every returned permutation preserves adjacency;
  * graph edges and automorphism counts equal the set-up reference;
  * every satisfiable answer is re-checked by building the horocycles with
    the returned radii; an isometry relabelling, which set-up showed to be
    realized by the image horocycles, reported unsatisfiable is the known
    defect "unsat-with-witness" (see harness.py).
"""

from __future__ import annotations

import random

from hyperk._rational import is_rational
from hyperk.earthquake import (
    PairRequirement,
    Satisfiable,
    instance_from_horocycles,
    tangency_realizability,
)
from hyperk.model import INFINITY, BoundaryPoint, Isometry, make_horocycle
from hyperk.predicates import intersection_pattern
from hyperk.graphs import automorphisms, build_graph, isometry_matching
from hyperk.verify import (
    rand_geodesic,
    rand_horocycle,
    rand_hypercycle,
    rand_isometry,
    rand_q,
)

from harness import digest

CONFIGS = 96
REALIZABILITY = 192
STEPS_PER_ROUND = 24
#: kind counts (geodesics, horocycles, hypercycles) of the random mixed sets
MIXED_SHAPES = ((1, 2, 1), (2, 1, 2), (2, 2, 1))
#: z -> -1/z (order 2) and z -> -1/(z+1) (order 3)
GENERATORS = ((Isometry(0, -1, 1, 0), 2), (Isometry(0, -1, 1, 1), 3))
_MAKERS = (rand_geodesic, rand_horocycle, rand_hypercycle)


def _pattern_key(c1, c2):
    p = intersection_pattern(c1, c2)
    return (p.interior_count, p.tangent, p.shared_endpoints)


def _mixed_set(rng, shape):
    curves = []
    for maker, count in zip(_MAKERS, shape):
        added = 0
        while added < count:
            c = maker(rng)
            if all(c != x for x in curves):
                curves.append(c)
                added += 1
    rng.shuffle(curves)
    return curves, None


def _orbit_set(rng, index):
    """Orbit of two curves of different kinds under a conjugated generator;
    returns the curves and the symmetry's vertex permutation.  Order-3 orbits
    include a horocycle, which keeps them at 9 boundary points.  The kinds
    cycle with the index, so every seed has the same mix of shapes."""
    gen, order = GENERATORS[index % 2]
    if order == 2:
        k1, k2 = ((0, 1), (0, 2), (1, 2))[(index // 2) % 3]
    else:
        k1, k2 = (1, 0) if (index // 2) % 2 == 0 else (1, 2)
    while True:
        g = rand_isometry(rng)
        h = g.compose(gen).compose(g.inverse())
        bases = [_MAKERS[k1](rng), _MAKERS[k2](rng)]
        curves = []
        for base in bases:
            c = base
            for _ in range(order):
                curves.append(c)
                c = h.apply_curve(c)
        if len(set(curves)) == len(curves):
            # h sends the k-th orbit member to the (k+1)-th, cyclically
            perm = tuple(
                (i // order) * order + (i % order + 1) % order for i in range(len(curves))
            )
            return curves, perm


def _provable_miss(rng, curves, patterns):
    """A transposition (i, j) of the labels and a proof that no isometry maps
    curves[k] to curves[swap(k)] for all k: a kind change, or a pair whose
    isometry-invariant pattern changes.  Same-kind proofs are preferred."""
    n = len(curves)
    options = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(options)

    def swap(k, i, j):
        return j if k == i else i if k == j else k

    for i, j in options:
        if curves[i].kind is not curves[j].kind:
            continue
        for a in range(n):
            for b in range(a + 1, n):
                sa, sb = swap(a, i, j), swap(b, i, j)
                if patterns[a][b] != patterns[sa][sb]:
                    return (i, j), f"pattern of ({a},{b}) != pattern of ({sa},{sb})"
    for i, j in options:
        if curves[i].kind is not curves[j].kind:
            return (i, j), f"kind of {i} != kind of {j}"
    raise ValueError("no provable miss")  # every configuration mixes kinds


class Config:
    __slots__ = ("curves", "symmetry", "hit", "miss", "proof")

    def __init__(self, rng, index):
        if index % 2 == 0:
            self.curves, self.symmetry = _mixed_set(rng, MIXED_SHAPES[(index // 2) % 3])
        else:
            self.curves, self.symmetry = _orbit_set(rng, index // 2)
        n = len(self.curves)
        patterns = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                patterns[a][b] = patterns[b][a] = _pattern_key(self.curves[a], self.curves[b])
        k = rand_isometry(rng)
        self.hit = [k.apply_curve(c) for c in self.curves]
        (i, j), self.proof = _provable_miss(rng, self.curves, patterns)
        self.miss = list(self.hit)
        self.miss[i], self.miss[j] = self.hit[j], self.hit[i]


def _horocycle_instance(rng, index):
    """Horocycles with tangency chains, relabelled by an isometry (mode 0),
    a transposition of two centers (mode 1) or a shuffle (mode 2).  Returns
    the instance and, for mode 0, the radii of the image horocycles, which
    realize it.  Size, mode, the infinite center and which horocycles are
    tangent cycle with the index; the values come from the seed."""
    n = 4 + (index // 3) % 3
    mode = index % 3
    while True:
        centers = [INFINITY] if index % 4 == 0 else []
        while len(centers) < n:
            c = BoundaryPoint.finite(rand_q(rng, -4, 4, 4))
            if c not in centers:
                centers.append(c)
        sizes = []
        for i, c in enumerate(centers):
            if i and (i + index) % 3 != 0:  # tangent to an earlier horocycle
                j = rng.randrange(i)  # only centers[0] can be infinite
                if centers[j].is_infinity:
                    sizes.append(sizes[j] / 2)
                else:
                    sizes.append((c.value - centers[j].value) ** 2 / (4 * sizes[j]))
            else:
                sizes.append(abs(rand_q(rng, 1, 3, 4)) + 1)
        hs = [make_horocycle(c, s) for c, s in zip(centers, sizes)]
        witness = None
        if mode == 0:
            g = rand_isometry(rng)
            images = [g.apply_boundary(c) for c in centers]
            witness = [g.apply_curve(h).size for h in hs]
        elif mode == 1:
            images = list(centers)
            i, j = rng.sample(range(n), 2)
            images[i], images[j] = images[j], images[i]
        else:
            images = list(centers)
            rng.shuffle(images)
        if images == centers and mode != 0:
            continue
        return instance_from_horocycles(hs, images), witness


def _realized_pattern(centers, radii):
    """Pairwise requirements realized by horocycles with these radii: built
    and intersected exactly for rational radii, by the tangency formula
    (p - q)^2 vs 4 r s at relative tolerance 1e-9 otherwise."""
    n = len(centers)
    exact = all(is_rational(r) for r in radii)
    hs = [make_horocycle(c, r) for c, r in zip(centers, radii)] if exact else None
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            if exact:
                p = intersection_pattern(hs[i], hs[j])
                req = (PairRequirement.TANGENT if p.tangent else
                       PairRequirement.DISJOINT if p.interior_count == 0 else
                       PairRequirement.CROSSING)
            else:
                p, q, r, s = centers[i], centers[j], float(radii[i]), float(radii[j])
                if p.is_infinity or q.is_infinity:
                    lhs, rhs = (r, 2 * s) if p.is_infinity else (s, 2 * r)
                else:
                    lhs, rhs = float(p.value - q.value) ** 2, 4 * r * s
                if abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs)):
                    req = PairRequirement.TANGENT
                else:
                    req = PairRequirement.DISJOINT if lhs > rhs else PairRequirement.CROSSING
            out[(i, j)] = req
    return out


def _realizability_answer(res):
    if isinstance(res, Satisfiable):
        return ("sat", res.exact)
    return ("unsat", len(res.cycle))


class ConfigsWorkload:
    name = "configs"
    main_kind, side_kind = "config", "realizability"

    def __init__(self, seed: int, out_dir=None):
        rng = random.Random(seed)
        self.configs = [Config(rng, i) for i in range(CONFIGS)]
        self.instances = [_horocycle_instance(rng, i) for i in range(REALIZABILITY)]
        self._config_op(self.configs[0])  # warm-up, including linprog's first call
        for inst, _witness in self.instances:
            tangency_realizability(inst)
        self.reference = None

    @staticmethod
    def _config_op(cfg):
        g = build_graph(cfg.curves, allow_mixed=True)
        autos = automorphisms(g)
        return g, autos, isometry_matching(cfg.curves, cfg.hit), isometry_matching(cfg.curves, cfg.miss)

    def prepare_checks(self):
        """Edges and automorphism counts, and realizability answers, as
        computed once at set-up: every later op must reproduce them."""
        self.reference = []
        for cfg in self.configs:
            g = build_graph(cfg.curves, allow_mixed=True)
            self.reference.append((g.edges(), len(automorphisms(g))))
        self.real_reference = [_realizability_answer(tangency_realizability(inst))
                               for inst, _witness in self.instances]
        for k, (inst, witness) in enumerate(self.instances):
            if witness is not None:
                realized = _realized_pattern(inst.relabeled_centers, witness)
                if any(inst.required_pattern[i][j] is not req for (i, j), req in realized.items()):
                    raise RuntimeError(f"instance[{k}]: witness radii do not realize the pattern")
        self.answers_digest = digest(self.reference + self.real_reference)

    def _check_config(self, tally, i, got):
        cfg = self.configs[i]
        g, autos, hit, miss = got
        edges, n_autos = self.reference[i]
        tally.check(g.edges() == edges, f"config[{i}]: edges changed")
        tally.check(len(autos) == n_autos, f"config[{i}]: {len(autos)} automorphisms, want {n_autos}")
        tally.check(all(g.is_automorphism(a.perm) for a in autos), f"config[{i}]: non-automorphism returned")
        if cfg.symmetry is not None:
            tally.check(any(a.perm == cfg.symmetry for a in autos),
                        f"config[{i}]: orbit symmetry {cfg.symmetry} not among automorphisms")
        tally.check(hit is not None and all(hit.apply_curve(c) == t for c, t in zip(cfg.curves, cfg.hit)),
                    f"config[{i}]: hit isometry {hit!r} does not map the configuration")
        tally.check(miss is None, f"config[{i}]: isometry {miss!r} returned where {cfg.proof}")

    def _check_instance(self, tally, i, res):
        inst, witness = self.instances[i]
        tally.check(_realizability_answer(res) == self.real_reference[i],
                    f"instance[{i}]: {_realizability_answer(res)} != {self.real_reference[i]}")
        if witness is not None and not isinstance(res, Satisfiable):
            tally.known_defect(("realizability", i), "unsat-with-witness")
            return
        if isinstance(res, Satisfiable):
            tally.check(all(r > 0 for r in res.radii), f"instance[{i}]: nonpositive radius")
            realized = _realized_pattern(inst.relabeled_centers, res.radii)
            want = {k: inst.required_pattern[k[0]][k[1]] for k in realized}
            tally.check(realized == want, f"instance[{i}]: radii {res.radii} realize another pattern")
        else:
            tally.check(len(res.cycle) > 0, f"instance[{i}]: empty certificate")

    def round_steps(self):
        return [self._step(k) for k in range(STEPS_PER_ROUND)]

    def _step(self, k):
        c_lo, c_hi = k * CONFIGS // STEPS_PER_ROUND, (k + 1) * CONFIGS // STEPS_PER_ROUND
        r_lo, r_hi = k * REALIZABILITY // STEPS_PER_ROUND, (k + 1) * REALIZABILITY // STEPS_PER_ROUND

        def step(tally):
            for i in range(c_lo, c_hi):
                got = tally.timed(("config", i), self._config_op, self.configs[i])
                if got is not None:
                    self._check_config(tally, i, got)
            for i in range(r_lo, r_hi):
                res = tally.timed(("realizability", i), tangency_realizability, self.instances[i][0])
                if res is not None:
                    self._check_instance(tally, i, res)

        return step

    def summary(self):
        sat = sum(1 for a in self.real_reference if a[0] == "sat")
        return {"configs": CONFIGS, "instances": REALIZABILITY, "sat_instances": sat,
                "curves_per_config": sorted({len(c.curves) for c in self.configs}),
                "answers_digest": self.answers_digest}
