"""Differential suite: the orbit-pruned canonical labeling against the
exhaustive search it replaced.

``_canonical_order`` in :mod:`repro.parallel.cache` skips branches that an
automorphism found earlier maps onto an explored sibling.  The exhaustive
individualization-refinement search is kept below as the oracle, the way
``tests/test_dff_integer.py`` keeps the Fraction bounds.  The pruned search
must return the oracle's order — hence byte-identical canonical forms and
cache keys, so existing disk caches stay valid — on adversarial symmetric
shapes (parallel chains, complete bipartite layers, many equal widths,
relabelled copies of one DAG) and on seeded random streams.

The search is bounded by ``CANON_NODE_BUDGET`` and the caller's deadline;
past either it falls back to the input-order form, which must still
round-trip verdicts and witnesses through the cache and be counted.
"""

import random
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.parallel.cache as cache_module
from repro.core.boxes import Box, Container, PackingInstance, make_instance
from repro.core.deadline import Deadline
from repro.core.opp import solve_opp
from repro.graphs.digraph import DiGraph
from repro.instances import differential_instances
from repro.parallel import ResultCache, cache_key, canonical_form
from repro.telemetry import Telemetry

SEED = 4242


# ---------------------------------------------------------------------------
# The oracle: the exhaustive individualization-refinement search.
# ---------------------------------------------------------------------------


def oracle_refine(
    colors: List[int], succ: List[List[int]], pred: List[List[int]]
) -> List[int]:
    n = len(colors)
    while True:
        signatures = [
            (
                colors[v],
                tuple(sorted(colors[w] for w in succ[v])),
                tuple(sorted(colors[w] for w in pred[v])),
            )
            for v in range(n)
        ]
        ranking = {s: i for i, s in enumerate(sorted(set(signatures)))}
        refined = [ranking[s] for s in signatures]
        if refined == colors:
            return colors
        colors = refined


def oracle_order(instance: PackingInstance) -> List[int]:
    n = instance.n
    if n == 0:
        return []
    widths = [b.widths for b in instance.boxes]
    closure = instance.closed_precedence()
    if closure is None or closure.arc_count() == 0:
        return sorted(range(n), key=lambda v: widths[v])

    succ = [sorted(closure.succ[v]) for v in range(n)]
    pred = [sorted(closure.pred[v]) for v in range(n)]
    touched = [bool(succ[v]) or bool(pred[v]) for v in range(n)]
    width_rank = {w: i for i, w in enumerate(sorted(set(widths)))}
    initial = [width_rank[widths[v]] for v in range(n)]

    best: Optional[Tuple[Tuple[Tuple[int, int], ...], List[int]]] = None

    def encode(order: List[int]) -> Tuple[Tuple[int, int], ...]:
        position = {v: i for i, v in enumerate(order)}
        return tuple(
            sorted((position[u], position[v]) for u in range(n) for v in succ[u])
        )

    def search(colors: List[int]) -> None:
        nonlocal best
        colors = oracle_refine(colors, succ, pred)
        classes: Dict[int, List[int]] = {}
        for v in range(n):
            classes.setdefault(colors[v], []).append(v)
        target: Optional[List[int]] = None
        for color in sorted(classes):
            members = classes[color]
            if len(members) <= 1 or not any(touched[v] for v in members):
                continue
            first = members[0]
            if all(
                closure.succ[v] == closure.succ[first]
                and closure.pred[v] == closure.pred[first]
                for v in members[1:]
            ):
                continue
            target = members
            break
        if target is None:
            order = sorted(range(n), key=lambda v: (colors[v], v))
            candidate = (encode(order), order)
            if best is None or candidate[0] < best[0]:
                best = candidate
            return
        fresh = max(colors) + 1
        for v in target:
            search([fresh if u == v else c for u, c in enumerate(colors)])

    search(initial)
    assert best is not None
    return best[1]


def oracle_key(instance: PackingInstance) -> str:
    return cache_module._key_of_form(
        canonical_form(instance, oracle_order(instance))
    )


# ---------------------------------------------------------------------------
# Adversarial shapes
# ---------------------------------------------------------------------------


def build(widths, arcs, container=(4, 4, 4)) -> PackingInstance:
    return make_instance(widths, container, arcs)


def relabelled(instance: PackingInstance, rng: random.Random) -> PackingInstance:
    """The same instance with boxes in a random order under fresh names."""
    n = instance.n
    perm = list(range(n))
    rng.shuffle(perm)
    inverse = [0] * n
    for new, old in enumerate(perm):
        inverse[old] = new
    boxes = [
        Box(instance.boxes[old].widths, name=f"r{new}")
        for new, old in enumerate(perm)
    ]
    dag = None
    if instance.precedence is not None:
        dag = DiGraph(n)
        for u, v in instance.precedence.arcs():
            dag.add_arc(inverse[u], inverse[v])
    return PackingInstance(boxes, instance.container, dag, instance.time_axis)


def parallel_chains(chains: int, length: int, widths=(2, 2, 1)):
    boxes = [widths] * (chains * length)
    arcs = [
        (c * length + j, c * length + j + 1)
        for c in range(chains)
        for j in range(length - 1)
    ]
    return boxes, arcs


def symmetric_design(chains: int) -> PackingInstance:
    """``chains`` parallel two-module chains of identical 2x2x1 modules on a
    4x4 chip over 2 cycles — the service benchmark's symmetric designs."""
    boxes, arcs = parallel_chains(chains, 2)
    return build(boxes, arcs, container=(4, 4, 2))


@st.composite
def adversarial_instances(draw) -> PackingInstance:
    shape = draw(
        st.sampled_from(["chains", "bipartite", "equal_widths", "copies"])
    )
    small = [(1, 1, 1), (2, 1, 1)]
    if shape == "chains":
        boxes, arcs = parallel_chains(
            draw(st.integers(2, 4)),
            draw(st.integers(2, 3)),
            draw(st.sampled_from(small)),
        )
    elif shape == "bipartite":
        # Layers joined completely, some layers sharing a width.
        sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
        boxes, arcs, previous = [], [], []
        for size in sizes:
            width = draw(st.sampled_from(small))
            layer = list(range(len(boxes), len(boxes) + size))
            boxes += [width] * size
            arcs += [(u, v) for u in previous for v in layer]
            previous = layer
        # A stray arc from the first layer breaks the twin classes.
        if draw(st.booleans()) and len(boxes) > sizes[0]:
            arcs.append((0, len(boxes) - 1))
    elif shape == "equal_widths":
        n = draw(st.integers(2, 7))
        boxes = [draw(st.sampled_from(small)) for _ in range(n)]
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if draw(st.integers(0, 3)) == 0
        ]
    else:
        # Disjoint copies of one small random DAG.
        size = draw(st.integers(2, 3))
        copies = draw(st.integers(2, 3))
        base = [
            (u, v)
            for u in range(size)
            for v in range(u + 1, size)
            if draw(st.booleans())
        ] or [(0, 1)]
        widths = [draw(st.sampled_from(small)) for _ in range(size)]
        boxes = widths * copies
        arcs = [(c * size + u, c * size + v) for c in range(copies) for u, v in base]
    instance = build(boxes, arcs)
    return relabelled(instance, random.Random(draw(st.integers(0, 2**32))))


def assert_matches_oracle(instance: PackingInstance) -> None:
    expected = oracle_order(instance)
    label = cache_module.canonical_label(instance)
    assert label.canonical
    assert list(label.order) == expected
    assert canonical_form(instance) == canonical_form(instance, expected)
    assert label.key == oracle_key(instance) == cache_key(instance)


# ---------------------------------------------------------------------------
# Pruned search == exhaustive search
# ---------------------------------------------------------------------------


class TestAgainstOracle:
    @given(adversarial_instances(), st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_adversarial_shapes(self, instance, seed):
        assert_matches_oracle(instance)
        # Isomorphism invariance: any other presentation shares the key.
        other = relabelled(instance, random.Random(seed))
        assert cache_key(other) == cache_key(instance)

    @pytest.mark.parametrize("chains", [3, 4, 5, 6, 7])
    def test_symmetric_designs(self, chains):
        assert_matches_oracle(symmetric_design(chains))

    def test_differential_stream(self):
        for instance in differential_instances(SEED, 300, max_boxes=7):
            assert_matches_oracle(instance)

    def test_random_equal_width_dags(self):
        rng = random.Random(SEED + 1)
        for _ in range(400):
            n = rng.randint(2, 7)
            density = rng.random()
            arcs = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < density
            ]
            instance = relabelled(build([(1, 1, 1)] * n, arcs), rng)
            assert_matches_oracle(instance)

    def test_pruning_visits_polynomially_many_nodes(self, monkeypatch):
        """Twelve chains (24 boxes) cost the exhaustive search billions of
        leaves; the pruned search finishes inside a 400-node budget."""
        monkeypatch.setattr(cache_module, "CANON_NODE_BUDGET", 400)
        design = symmetric_design(12)
        label = cache_module.canonical_label(design)
        assert label.canonical
        assert label.key == cache_key(relabelled(design, random.Random(1)))


# ---------------------------------------------------------------------------
# The bounded search and its input-order fallback
# ---------------------------------------------------------------------------


class TestFallback:
    @pytest.fixture
    def budget_one(self, monkeypatch):
        monkeypatch.setattr(cache_module, "CANON_NODE_BUDGET", 1)

    def test_budget_overflow_falls_back_to_input_order(self, budget_one):
        instance = symmetric_design(3)
        label = cache_module.canonical_label(instance)
        assert not label.canonical
        assert label.order == tuple(range(instance.n))
        assert label.key == cache_module._key_of_form(
            canonical_form(instance, range(instance.n))
        )
        # Instances that need no individualization stay canonical.
        chain = build([(1, 1, 1), (2, 1, 1)], [(0, 1)])
        assert cache_module.canonical_label(chain).canonical

    def test_expired_deadline_falls_back(self):
        expired = Deadline(expires_at=0.0, margin=0.0, clock=lambda: 1.0)
        instance = symmetric_design(4)
        assert not cache_module.canonical_label(instance, expired).canonical
        assert cache_module.canonical_label(instance).canonical

    def test_fallback_round_trips_a_revalidated_witness(self, budget_one):
        telemetry = Telemetry()
        cache = ResultCache().instrument(telemetry)
        instance = symmetric_design(3)
        first = solve_opp(instance, cache=cache)
        assert first.status == "sat"
        assert cache.stats.stores == 1
        second = solve_opp(instance, cache=cache)
        assert second.stage == "cache"
        assert second.status == "sat"
        assert second.placement.instance is instance
        assert second.placement.is_feasible()
        # Explicit label pass-through: one labeling serves get and put.
        label = cache.label(instance)
        hit = cache.get(instance, label=label)
        assert hit is not None and hit.placement.is_feasible()
        cache.put(instance, first, label=label)
        # One fallback per labeling: two solves and one explicit label.
        assert cache.stats.canon_fallbacks == 3
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["cache.canon_fallback"] == 3

    def test_fallback_key_is_not_shared_across_presentations(self, budget_one):
        cache = ResultCache()
        instance = symmetric_design(3)
        solve_opp(instance, cache=cache)
        other = relabelled(instance, random.Random(SEED))
        assert cache.label(other).key != cache.label(instance).key
        # A miss, never a wrong answer: the other presentation re-solves.
        result = solve_opp(other, cache=cache)
        assert result.stage != "cache"
        assert result.status == "sat"
