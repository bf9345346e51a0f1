"""Canonicalization and cache behavior.

The cache key must be an *isomorphism invariant*: renaming modules,
permuting box order, or round-tripping through the JSON serializer are all
presentations of the same instance and must hash identically — while
genuinely different instances must not collide.
"""

import random

import pytest

from repro.core.boxes import Box, Container, PackingInstance
from repro.core.bmp import minimize_base
from repro.core.opp import SolverOptions, solve_opp
from repro.graphs.digraph import DiGraph
from repro.instances import differential_instances, random_mixed_instance
from repro.io.serialize import instance_from_dict, instance_to_dict
from repro.parallel import ResultCache, cache_key, canonical_form

SEED = 1331


def _permuted(instance, perm, rename=False):
    """The same instance presented with boxes in order ``perm`` (and,
    optionally, fresh module names)."""
    n = instance.n
    inverse = [0] * n
    for new, old in enumerate(perm):
        inverse[old] = new
    boxes = [
        Box(
            instance.boxes[old].widths,
            name=f"x{new}" if rename else instance.boxes[old].name,
        )
        for new, old in enumerate(perm)
    ]
    dag = None
    if instance.precedence is not None:
        dag = DiGraph(n)
        for u, v in instance.precedence.arcs():
            dag.add_arc(inverse[u], inverse[v])
    return PackingInstance(boxes, instance.container, dag, instance.time_axis)


def test_key_invariant_under_permutation_and_renaming():
    rng = random.Random(SEED)
    for _ in range(150):
        instance = random_mixed_instance(rng, max_container=5, max_boxes=6)
        key = cache_key(instance)
        perm = list(range(instance.n))
        rng.shuffle(perm)
        assert cache_key(_permuted(instance, perm)) == key
        assert cache_key(_permuted(instance, perm, rename=True)) == key


def test_key_invariant_under_serialization_round_trip():
    rng = random.Random(SEED + 1)
    for _ in range(50):
        instance = random_mixed_instance(rng)
        round_tripped = instance_from_dict(instance_to_dict(instance))
        assert cache_key(round_tripped) == cache_key(instance)


def test_key_ignores_names_but_not_geometry():
    a = PackingInstance(
        [Box((1, 2, 3), name="alu"), Box((2, 2, 2), name="mult")],
        Container((4, 4, 4)),
    )
    b = PackingInstance(
        [Box((1, 2, 3), name="renamed"), Box((2, 2, 2))], Container((4, 4, 4))
    )
    c = PackingInstance(
        [Box((1, 2, 3)), Box((2, 2, 3))], Container((4, 4, 4))
    )
    assert cache_key(a) == cache_key(b)
    assert cache_key(a) != cache_key(c)


def test_key_distinguishes_precedence_structure():
    boxes = [Box((1, 1, 2)) for _ in range(3)]
    container = Container((2, 2, 4))
    chain = DiGraph(3)
    chain.add_arc(0, 1)
    chain.add_arc(1, 2)
    fan = DiGraph(3)
    fan.add_arc(0, 1)
    fan.add_arc(0, 2)
    empty = PackingInstance(list(boxes), container)
    with_chain = PackingInstance(list(boxes), container, chain)
    with_fan = PackingInstance(list(boxes), container, fan)
    assert len({cache_key(empty), cache_key(with_chain), cache_key(with_fan)}) == 3


def test_no_spurious_collisions_in_large_sweep():
    """Across 1000 random instances, two instances share a key only when
    their canonical forms are literally identical."""
    forms = {}
    collisions = 0
    for instance in differential_instances(SEED + 2, 1000, max_boxes=7):
        key = cache_key(instance)
        form = canonical_form(instance)
        if key in forms:
            assert forms[key] == form, f"hash collision on {key}"
            collisions += 1
        else:
            forms[key] = form
    # The population is diverse: near-total collapse would mean the key
    # ignores structure (e.g. hashes only the container).
    assert len(forms) > 500, f"only {len(forms)} distinct keys"


def test_isomorphic_precedence_relabelings_share_a_key():
    """Two disjoint chains, interleaved two different ways."""
    boxes = [Box((1, 1, 1)) for _ in range(4)]
    container = Container((2, 2, 2))
    a_dag = DiGraph(4)
    a_dag.add_arc(0, 1)
    a_dag.add_arc(2, 3)
    b_dag = DiGraph(4)
    b_dag.add_arc(0, 2)
    b_dag.add_arc(1, 3)
    a = PackingInstance(list(boxes), container, a_dag)
    b = PackingInstance(list(boxes), container, b_dag)
    assert cache_key(a) == cache_key(b)


def test_cache_hit_on_permuted_instance_returns_valid_witness():
    """A witness stored under one presentation must come back valid for any
    other presentation of the same instance."""
    rng = random.Random(SEED + 3)
    cache = ResultCache()
    hits = 0
    for instance in differential_instances(SEED + 3, 80):
        result = solve_opp(instance, cache=cache)
        if result.status != "sat":
            continue
        perm = list(range(instance.n))
        rng.shuffle(perm)
        shuffled = _permuted(instance, perm, rename=True)
        cached = cache.get(shuffled)
        assert cached is not None
        assert cached.status == "sat"
        assert cached.placement.instance is shuffled
        assert not cached.placement.violations()
        hits += 1
    assert hits >= 20


def test_unknown_results_are_never_cached():
    cache = ResultCache()
    boxes = [Box((2, 2, 2), name=f"h{i}") for i in range(9)]
    instance = PackingInstance(boxes, Container((5, 5, 6)))
    result = solve_opp(
        instance,
        options=SolverOptions(
            use_bounds=False, use_heuristics=False, node_limit=10
        ),
        cache=cache,
    )
    assert result.status == "unknown"
    assert len(cache) == 0
    assert cache.stats.stores == 0


def test_lru_eviction_bounds_memory():
    cache = ResultCache(capacity=16)
    for instance in differential_instances(SEED + 4, 60):
        solve_opp(instance, cache=cache)
    assert len(cache) <= 16
    assert cache.stats.evictions > 0


def test_disk_persistence_across_cache_instances(tmp_path):
    store = str(tmp_path / "opp-cache")
    instances = list(differential_instances(SEED + 5, 20))
    writer = ResultCache(disk_path=store)
    expected = {}
    for i, instance in enumerate(instances):
        result = solve_opp(instance, cache=writer)
        expected[i] = result.status
    assert writer.stats.stores > 0

    reader = ResultCache(disk_path=store)
    for i, instance in enumerate(instances):
        result = solve_opp(instance, cache=reader)
        assert result.status == expected[i]
        assert result.stage == "cache"
    assert reader.stats.misses == 0
    assert reader.stats.hit_rate == 1.0


def test_corrupt_disk_entry_degrades_to_miss(tmp_path):
    store = str(tmp_path / "opp-cache")
    cache = ResultCache(disk_path=store)
    instance = next(differential_instances(SEED + 6, 1))
    solve_opp(instance, cache=cache)
    files = list((tmp_path / "opp-cache").iterdir())
    assert files
    for path in files:
        path.write_text("{not json", encoding="utf-8")
    fresh = ResultCache(disk_path=store)
    assert fresh.get(instance) is None
    result = solve_opp(instance, cache=fresh)
    assert result.stage != "cache"


def test_bmp_resweep_hits_cache():
    """An optimizer re-run over the same instance family is the cache's
    raison d'être: the second sweep must answer every probe from cache."""
    rng = random.Random(SEED + 7)
    boxes = [
        Box((rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)))
        for _ in range(5)
    ]
    dag = DiGraph(5)
    dag.add_arc(0, 2)
    dag.add_arc(1, 3)
    cache = ResultCache()
    first = minimize_base(boxes, dag, time_bound=8, cache=cache)
    probes = cache.stats.misses
    assert probes > 0
    second = minimize_base(boxes, dag, time_bound=8, cache=cache)
    assert second.status == first.status
    assert second.optimum == first.optimum
    assert cache.stats.misses == probes, "second sweep missed the cache"
    assert cache.stats.hits >= probes
    assert cache.stats.hit_rate >= 0.5


def test_cache_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        ResultCache(capacity=0)


def test_quarantine_directory_is_bounded(tmp_path):
    """The quarantine dir is a post-mortem buffer, not a landfill: beyond
    ``quarantine_capacity`` the oldest entries are evicted (by mtime) and
    every eviction is counted."""
    import os

    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    cache = ResultCache(disk_path=str(tmp_path), quarantine_capacity=3)
    cache.instrument(telemetry)
    qdir = tmp_path / "quarantine"

    for i in range(7):
        bad = tmp_path / f"{i:016x}deadbeef.json"
        bad.write_text("not json at all {")
        # Distinct mtimes make the LRU order deterministic.
        stamp = 1_000_000_000 + i
        os.utime(bad, (stamp, stamp))
        cache._quarantine(str(bad), "unparseable JSON")

    survivors = sorted(p.name for p in qdir.iterdir())
    assert len(survivors) == 3
    # The three *newest* corpses survive; the four oldest were evicted.
    assert survivors == sorted(f"{i:016x}deadbeef.json" for i in (4, 5, 6))
    assert cache.stats.quarantined == 7
    assert cache.stats.evictions >= 4
    counters = telemetry.metrics.snapshot()["counters"]
    assert counters["cache.quarantined"] == 7
    assert counters["cache.quarantine_evictions"] == 4


def test_quarantine_capacity_must_be_positive(tmp_path):
    with pytest.raises(ValueError):
        ResultCache(disk_path=str(tmp_path), quarantine_capacity=0)
