"""The `verify` suites: their output, pinned, and the first-failure rule."""

import hashlib
import random

import hyperk.predicates
from hyperk._rational import Q
from hyperk.model import make_horocycle
from hyperk.predicates import HorocycleOrder
from hyperk.verify import rand_boundary, rand_q, run_suite

#: sha256 of every result line of run_suite("all", seed, "small") for seeds 0, 1, 2
ALL_SMALL_SEEDS_0_TO_2 = "b214ad32e801359611da55161332f89222dc187cfc36c45d232a6fec5188c450"


def test_all_suites_print_the_pinned_lines():
    digest = hashlib.sha256()
    for seed in range(3):
        for r in run_suite("all", seed, "small"):
            digest.update((r.line() + "\n").encode())
    assert digest.hexdigest() == ALL_SMALL_SEEDS_0_TO_2


def test_first_failing_case_decides_and_the_next_property_still_runs(monkeypatch):
    monkeypatch.setattr(
        hyperk.predicates, "horocycle_leq", lambda h1, h2: HorocycleOrder.INCOMPARABLE
    )
    same_center, across = run_suite("order", seed=0)
    # replay the draws of the first case
    rng = random.Random(0)
    c = rand_boundary(rng)
    s1, s2 = abs(rand_q(rng, 1, 4)) + Q(1, 8), abs(rand_q(rng, 1, 4)) + Q(1, 8)
    h1, h2 = make_horocycle(c, s1), make_horocycle(c, s2)
    assert not same_center.passed
    assert same_center.detail.startswith(f"{h1!r} vs {h2!r}: {HorocycleOrder.INCOMPARABLE} != ")
    assert across.passed and across.detail == ""
