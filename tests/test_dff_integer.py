"""Differential suite: the integer DFF kernel against the Fraction oracle.

``dff_volume_bound`` and ``_spatial_dff_overflow`` evaluate every DFF
combination as an integer dot product over integer-scaled image tables.
The direct evaluation — each DFF applied box by box in
:class:`fractions.Fraction` arithmetic — is kept below as the oracle, the
way the ``reference`` kernel serves the search kernels.  Both bounds must
return byte-identical values (``None`` or the same certificate) on

* hypothesis instances in 1 to 4 dimensions,
* a seeded ``differential_instances`` stream and seeded random instances in
  every dimension up to 4,
* every probe the Table 1, Table 2 and Figure 7 sweeps send to the bounds,

for every ``max_combinations`` cap in :data:`CAPS`.
"""

import functools
import itertools
import random
from fractions import Fraction
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.bounds as bounds
from repro.core.boxes import PackingInstance, make_instance
from repro.core.dff import (
    blend,
    compose,
    default_family,
    identity,
    make_f0,
    make_u_k,
    scaled_images,
)
from repro.fpga import (
    explore_tradeoffs,
    minimize_chip,
    minimize_latency,
    square_chip,
)
from repro.instances import codec_task_graph, de_task_graph
from repro.instances.de import TABLE_1
from repro.instances.random_instances import differential_instances, random_instance

CAPS = (1, 7, 50, 2000)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# The Fraction oracle: the direct evaluation the integer kernel replaced.
# ---------------------------------------------------------------------------


def oracle_dff_volume_bound(
    instance: PackingInstance, max_combinations: int = 2000
) -> Optional[str]:
    d = instance.dimensions
    normalized = [
        [
            Fraction(box.widths[axis], instance.container.sizes[axis])
            for box in instance.boxes
        ]
        for axis in range(d)
    ]
    families = [default_family(normalized[axis]) for axis in range(d)]
    identity_index = 0

    combos = []
    for axes in itertools.combinations(range(d), 2):
        for fa in range(len(families[axes[0]])):
            for fb in range(len(families[axes[1]])):
                combo = [identity_index] * d
                combo[axes[0]] = fa
                combo[axes[1]] = fb
                combos.append(tuple(combo))
    for axis in range(d):
        for fa in range(len(families[axis])):
            combo = [identity_index] * d
            combo[axis] = fa
            combos.append(tuple(combo))
    seen = set()
    for combo in combos[:max_combinations]:
        if combo in seen:
            continue
        seen.add(combo)
        total = Fraction(0)
        for b in range(instance.n):
            term = ONE
            for axis in range(d):
                term *= families[axis][combo[axis]](normalized[axis][b])
                if term == 0:
                    break
            total += term
        if total > ONE:
            names = [families[axis][combo[axis]].__name__ for axis in range(d)]
            return (
                f"DFF volume bound exceeded: combination {names} gives "
                f"transformed volume {total} > 1"
            )
    return None


def oracle_spatial_dff_overflow(
    instance: PackingInstance, live: List[int], spatial_axes: List[int]
) -> Optional[str]:
    normalized = {
        axis: [
            Fraction(instance.boxes[v].widths[axis], instance.container.sizes[axis])
            for v in live
        ]
        for axis in spatial_axes
    }
    families = {
        axis: default_family(normalized[axis]) for axis in spatial_axes
    }
    ax0, ax1 = spatial_axes[0], spatial_axes[-1]
    for f in families[ax0]:
        for g in families[ax1]:
            total = Fraction(0)
            for i, _v in enumerate(live):
                total += f(normalized[ax0][i]) * g(normalized[ax1][i])
            if total > ONE:
                return (
                    f"2-D DFF bound ({f.__name__}, {g.__name__}) gives "
                    f"transformed area {total} > 1"
                )
    return None


# ---------------------------------------------------------------------------
# Checks shared by every instance source.
# ---------------------------------------------------------------------------


def _spatial_axes(instance: PackingInstance) -> List[int]:
    return [a for a in range(instance.dimensions) if a != instance.time_axis]


def assert_volume_bound_matches(instance: PackingInstance, caps=CAPS) -> int:
    """Assert equality under every cap; return how many caps fired."""
    fired = 0
    for cap in caps:
        got = bounds.dff_volume_bound(instance, max_combinations=cap)
        assert got == oracle_dff_volume_bound(instance, max_combinations=cap), cap
        fired += got is not None
    return fired


def assert_spatial_matches(instance: PackingInstance, live: List[int]) -> None:
    spatial = _spatial_axes(instance)
    if not spatial:
        return
    assert bounds._spatial_dff_overflow(
        instance, live, spatial
    ) == oracle_spatial_dff_overflow(instance, live, spatial)


def assert_instance_matches(instance: PackingInstance, rng: random.Random) -> int:
    fired = assert_volume_bound_matches(instance)
    everything = list(range(instance.n))
    assert_spatial_matches(instance, everything)
    subset = [v for v in everything if rng.random() < 0.6]
    rng.shuffle(subset)
    assert_spatial_matches(instance, subset)
    return fired


# ---------------------------------------------------------------------------
# Instance sources.
# ---------------------------------------------------------------------------


@st.composite
def packing_instances(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    sizes = tuple(draw(st.integers(min_value=1, max_value=9)) for _ in range(d))
    n = draw(st.integers(min_value=0, max_value=9))
    # Few distinct widths per axis, so boxes share shapes and thresholds.
    palette = [
        draw(st.lists(st.integers(1, s), min_size=1, max_size=3)) for s in sizes
    ]
    boxes = [
        tuple(draw(st.sampled_from(palette[a])) for a in range(d))
        for _ in range(n)
    ]
    arcs = [(u, v) for u in range(n) for v in range(u + 1, n)
            if draw(st.booleans()) and draw(st.booleans())]
    return make_instance(boxes, sizes, precedence_arcs=arcs)


class TestHypothesis:
    @given(packing_instances(), st.sampled_from(CAPS))
    @settings(max_examples=300, deadline=None)
    def test_volume_bound_matches_oracle(self, instance, cap):
        assert_volume_bound_matches(instance, caps=(cap,))

    @given(packing_instances(), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_spatial_overflow_matches_oracle(self, instance, rng):
        everything = list(range(instance.n))
        assert_spatial_matches(instance, everything)
        assert_spatial_matches(
            instance, rng.sample(everything, rng.randint(0, instance.n))
        )


class TestSeededStreams:
    def test_differential_instance_stream(self):
        rng = random.Random(7)
        fired = sum(
            assert_instance_matches(instance, rng)
            for instance in differential_instances(seed=20240, count=150)
        )
        assert fired > 0  # the stream exercises the firing path

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_random_instances_by_dimension(self, d):
        rng = random.Random(d)
        fired = 0
        for _ in range(60):
            sizes = tuple(rng.randint(2, 7) for _ in range(d))
            instance = random_instance(
                rng,
                container=sizes,
                num_boxes=rng.randint(1, 9),
                max_width=max(sizes),
                precedence_density=0.3,
            )
            fired += assert_instance_matches(instance, rng)
        assert fired > 0


class TestPaperProbes:
    """Every instance the Table 1, Table 2 and Figure 7 sweeps hand to the
    stage-1 bounds, and every live set ``mandatory_overlap_bound`` checks
    with the 2-D DFF argument during those sweeps."""

    @pytest.fixture(scope="class")
    def probes(self):
        instances, live_sets = {}, {}
        first_bound = bounds.ALL_BOUNDS[0]
        spatial = bounds._spatial_dff_overflow

        @functools.wraps(first_bound)
        def record_instance(instance):
            instances.setdefault(_fingerprint(instance), instance)
            return first_bound(instance)

        def record_live(instance, live, spatial_axes):
            key = (_fingerprint(instance), tuple(live), tuple(spatial_axes))
            live_sets.setdefault(key, (instance, list(live), list(spatial_axes)))
            return spatial(instance, live, spatial_axes)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                bounds, "ALL_BOUNDS", [record_instance] + bounds.ALL_BOUNDS[1:]
            )
            mp.setattr(bounds, "_spatial_dff_overflow", record_live)
            for time_bound in TABLE_1:
                minimize_chip(de_task_graph(), time_bound)
            minimize_latency(codec_task_graph(), square_chip(64))
            explore_tradeoffs(de_task_graph(), with_dependencies=True)
            explore_tradeoffs(de_task_graph(), with_dependencies=False)
        return list(instances.values()), list(live_sets.values())

    def test_volume_bound_on_every_probe(self, probes):
        instances, _ = probes
        assert len(instances) > 20
        fired = sum(assert_volume_bound_matches(inst) for inst in instances)
        assert fired > 0

    def test_spatial_overflow_on_every_live_set(self, probes):
        _, live_sets = probes
        assert live_sets
        for instance, live, spatial_axes in live_sets:
            assert bounds._spatial_dff_overflow(
                instance, live, spatial_axes
            ) == oracle_spatial_dff_overflow(instance, live, spatial_axes)


def _fingerprint(instance: PackingInstance):
    arcs = (
        None if instance.precedence is None
        else tuple(sorted(instance.precedence.arcs()))
    )
    return (
        tuple(box.widths for box in instance.boxes),
        instance.container.sizes,
        arcs,
        instance.time_axis,
    )


class TestImageTables:
    """Each integer table over its denominator is the member's images."""

    WIDTHS = [Fraction(w, 12) for w in (1, 2, 3, 4, 5, 6, 6, 7, 8, 9, 11, 12, 3)]

    def _assert_table(self, f, xs):
        nums, den = scaled_images(f, xs)
        assert den >= 1 and len(nums) == len(xs)
        assert all(isinstance(num, int) for num in nums)
        assert [Fraction(num, den) for num in nums] == [f(x) for x in xs]

    def test_default_family_members(self):
        family = default_family(self.WIDTHS)
        assert len(family) > 5
        for f in family:
            self._assert_table(f, self.WIDTHS)

    @pytest.mark.parametrize(
        "f",
        [
            compose(make_u_k(3), make_f0(Fraction(1, 4))),
            compose(make_f0(Fraction(1, 3)), make_u_k(2)),
            blend(make_u_k(1), identity, Fraction(1, 3)),
            blend(make_u_k(4), make_f0(Fraction(1, 6)), Fraction(2, 7)),
            blend(
                compose(make_u_k(2), make_f0(Fraction(1, 5))),
                identity,
                Fraction(1, 2),
            ),
        ],
        ids=lambda f: f.__name__,
    )
    def test_compose_and_blend(self, f):
        self._assert_table(f, self.WIDTHS)

    def test_empty_and_repeated_inputs(self):
        assert scaled_images(identity, []) == ((), 1)
        x = Fraction(3, 6)
        assert scaled_images(make_u_k(1), [x, x]) == ((1, 1), 2)
