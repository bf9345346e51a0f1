"""Pure seeded input generators for the three benchmark workloads.

Every generator takes the workload seed and returns plain JSON data (lists,
dicts, ints, strings), so two runs with one seed can be compared byte for
byte and the parent and a change solve identical inputs.  The generators use
only the program's instance constants and random-instance generators; they
never call a solver, a bound, a heuristic or the memo (``selftest.py``
checks both properties).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Any, Dict, List

from repro.instances import (
    CODEC_DEPENDENCIES,
    CODER_OPERATIONS,
    DE_DEPENDENCIES,
    DE_OPERATIONS,
    DECODER_OPERATIONS,
    differential_instances,
    random_perfect_packing,
    random_precedence_from_placement,
)
from repro.instances.de import ALU, MULTIPLIER
from repro.instances.video_codec import BMM, DCTM, PUM
from repro.io.serialize import instance_to_dict

#: tight_packings: zero-slack guillotine packings of an 8x8x8 container.
#: 18 boxes and a 3000-node cap make most packings reach search and hit the
#: cap.  The packings come from the fixed ``pool_seed``; the workload seed
#: renames the boxes of each one and reorders the pool, which leaves the
#: work unchanged.  Pools drawn from different seeds differ in cost by more
#: than the benchmark's bound allows, and so does permuting the boxes (it
#: moves the slowest solves), see METRICS.md.  16 packings let a run make
#: several passes, so each packing's latency is a median.
TIGHT = {
    "container": [8, 8, 8],
    "boxes": 18,
    "precedence_density": 0.3,
    "node_limit": 3000,
    "pool": 16,
    "pool_seed": 0,
}

#: service_mixed: open loop over four tenants at a fixed rate; the mix is
#: stratified (exact shares per block of ten requests) so every seed sends
#: the same number of hits, misses and symmetric designs of each size, and
#: the misses come from one fixed instance stream (see service_inputs).
SERVICE = {
    "rate": 15.0,
    "latency_limit_ms": 250.0,
    "tenants": ["t0", "t1", "t2", "t3"],
    "block": {"hit": 6, "miss": 3, "symmetric": 1},
    "symmetric_chains": [3, 4, 5, 6],
    "warm_misses": 16,
    "miss_pool_seed": 0,
    "hit_min_age_s": 1.0,
    "miss_max_container": 5,
    "miss_max_boxes": 6,
}


def pass_requests() -> int:
    """Requests in one service pass: one of each symmetric design size,
    so every pass holds the same mix."""
    return sum(SERVICE["block"].values()) * len(SERVICE["symmetric_chains"])


def digest(data: Any) -> str:
    """SHA-256 of the canonical JSON encoding of generated data."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# paper_sweeps
# ---------------------------------------------------------------------------


def _relabelled_graph(
    rng: random.Random, operations: List[List[Any]], dependencies: List[Any]
) -> Dict[str, Any]:
    """A task graph spec with tasks in a seeded order under fresh names."""
    order = list(range(len(operations)))
    rng.shuffle(order)
    names = {operations[i][0]: f"n{pos}" for pos, i in enumerate(order)}
    tasks = [
        [names[operations[i][0]]] + list(operations[i][1:]) for i in order
    ]
    deps = sorted([names[a], names[b]] for a, b in dependencies)
    rng.shuffle(deps)
    return {"tasks": tasks, "dependencies": deps}


def paper_inputs(seed: int) -> Dict[str, Any]:
    """The DE and codec graphs of the paper, relabelled and reordered by
    ``seed``: the optima are label-invariant, so every seed must reproduce
    Table 1, Table 2 and Figure 7."""
    rng = random.Random(f"paper:{seed}")
    modules = {m.name: m for m in (MULTIPLIER, ALU)}
    de_ops = [
        [name, modules[mod].width, modules[mod].height, modules[mod].duration]
        for name, mod in DE_OPERATIONS
    ]
    shapes = {m.name: m for m in (PUM, BMM, DCTM)}
    codec_ops = [
        [name, shapes[shape].width, shapes[shape].height, duration]
        for name, shape, duration in CODER_OPERATIONS + DECODER_OPERATIONS
    ]
    return {
        "de": _relabelled_graph(rng, de_ops, DE_DEPENDENCIES),
        "codec": _relabelled_graph(rng, codec_ops, CODEC_DEPENDENCIES),
    }


# ---------------------------------------------------------------------------
# tight_packings
# ---------------------------------------------------------------------------


def tight_inputs(seed: int) -> List[Dict[str, Any]]:
    """The pool of zero-slack packings with witness-consistent precedence,
    renamed and reordered by ``seed``: SAT by construction, so any UNSAT
    answer is wrong."""
    pool_rng = random.Random(f"tight-pool:{TIGHT['pool_seed']}")
    pool = []
    for _ in range(TIGHT["pool"]):
        instance, witness = random_perfect_packing(
            pool_rng, tuple(TIGHT["container"]), TIGHT["boxes"]
        )
        dag = random_precedence_from_placement(
            pool_rng, witness, TIGHT["precedence_density"]
        )
        data = instance_to_dict(instance)
        data["precedence"] = sorted(list(a) for a in dag.arcs())
        pool.append(data)
    rng = random.Random(f"tight:{seed}")
    rng.shuffle(pool)
    return [rename(rng, data) for data in pool]


# ---------------------------------------------------------------------------
# service_mixed
# ---------------------------------------------------------------------------


def symmetric_design(chains: int) -> Dict[str, Any]:
    """``chains`` parallel two-module chains of identical 2x2x1 modules on a
    4x4 chip over 2 cycles: SAT up to 4 chains, UNSAT by volume beyond.  The
    instance is tiny, but its symmetry makes canonical labelling expensive."""
    boxes = [
        {"widths": [2, 2, 1], "name": f"c{i}.{j}"}
        for i in range(chains)
        for j in range(2)
    ]
    return {
        "boxes": boxes,
        "container": [4, 4, 2],
        "precedence": [[2 * i, 2 * i + 1] for i in range(chains)],
        "time_axis": 2,
    }


def rename(rng: random.Random, instance: Dict[str, Any]) -> Dict[str, Any]:
    """A copy with the boxes renamed in place.  Unlike :func:`relabel` it
    keeps the box order, and with it the solver's work."""
    names = [f"x{i}" for i in range(len(instance["boxes"]))]
    rng.shuffle(names)
    boxes = [{"widths": list(box["widths"]), "name": name}
             for box, name in zip(instance["boxes"], names)]
    return dict(instance, boxes=boxes)


def relabel(rng: random.Random, instance: Dict[str, Any]) -> Dict[str, Any]:
    """An isomorphic copy: boxes permuted and renamed, arcs mapped along."""
    n = len(instance["boxes"])
    perm = list(range(n))
    rng.shuffle(perm)  # box i moves to position perm[i]
    boxes: List[Any] = [None] * n
    for i, box in enumerate(instance["boxes"]):
        boxes[perm[i]] = {"widths": list(box["widths"]), "name": f"x{perm[i]}"}
    arcs = instance["precedence"]
    if arcs is not None:
        arcs = sorted([perm[u], perm[v]] for u, v in arcs)
    return {
        "boxes": boxes,
        "container": list(instance["container"]),
        "precedence": arcs,
        "time_axis": instance["time_axis"],
    }


def _request(tenant: str, instance: Dict[str, Any]) -> Dict[str, Any]:
    return {"kind": "solve", "tenant": tenant, "instance": instance}


def service_inputs(seed: int, seconds: float) -> Dict[str, Any]:
    """The warm-up requests and the open-loop schedule for ``seconds``
    (rounded up to whole passes, see :func:`pass_requests`).

    Each schedule entry is ``{"at": offset_s, "class": ..., "request":
    ...}``.  Misses are the first instances of a fixed
    ``differential_instances`` stream, renamed and shuffled by the seed,
    so every seed solves the same instances with the same work (a
    relabelling moves the solve time of one instance by up to 1.6x).  Hits relabel a base (a
    warm-up miss or a window miss sent at least ``hit_min_age_s``
    earlier), so the memo already holds the answer when the hit arrives.
    Symmetric designs go out verbatim (a relabelling changes the cost of
    their canonical key by up to half), after one of each size in the
    warm-up, so in the window they read the memo too.
    """
    rng = random.Random(f"service:{seed}")
    cfg = SERVICE
    tenants = cfg["tenants"]
    block = [c for c, n in cfg["block"].items() for _ in range(n)]
    passes = math.ceil(cfg["rate"] * seconds / pass_requests())
    blocks = passes * len(cfg["symmetric_chains"])
    fresh = differential_instances(
        cfg["miss_pool_seed"],
        cfg["warm_misses"] + blocks * cfg["block"]["miss"],
        max_container=cfg["miss_max_container"],
        max_boxes=cfg["miss_max_boxes"],
    )
    misses = [rename(rng, instance_to_dict(i)) for i in fresh]
    rng.shuffle(misses)

    warm = misses[: cfg["warm_misses"]]
    warm += [symmetric_design(k) for k in cfg["symmetric_chains"]]
    warm_requests = [
        _request(tenants[i % len(tenants)], inst) for i, inst in enumerate(warm)
    ]
    bases = [(-math.inf, inst) for inst in misses[: cfg["warm_misses"]]]
    fresh_misses = iter(misses[cfg["warm_misses"]:])

    schedule = []
    sym_index = 0
    for _ in range(blocks):
        rng.shuffle(block)
        for cls in block:
            at = len(schedule) / cfg["rate"]
            tenant = rng.choice(tenants)
            if cls == "miss":
                instance = next(fresh_misses)
                bases.append((at, instance))
            elif cls == "hit":
                ready = [b for t, b in bases if t <= at - cfg["hit_min_age_s"]]
                instance = relabel(rng, rng.choice(ready))
            else:
                chains = cfg["symmetric_chains"][
                    sym_index % len(cfg["symmetric_chains"])
                ]
                sym_index += 1
                instance = symmetric_design(chains)
            schedule.append(
                {"at": at, "class": cls, "request": _request(tenant, instance)}
            )
    return {"warm": warm_requests, "schedule": schedule}


#: Workload name -> its input generator ``(seed, seconds) -> inputs``;
#: ``seconds`` sizes the service schedule and is unused elsewhere.
GENERATORS = {
    "paper_sweeps": lambda seed, seconds: paper_inputs(seed),
    "tight_packings": lambda seed, seconds: tight_inputs(seed),
    "service_mixed": service_inputs,
}
WORKLOADS = tuple(GENERATORS)
