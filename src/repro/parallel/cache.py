"""Canonical instance forms and a verdict cache for OPP decisions.

The optimization drivers (BMP/SPP/Pareto sweeps) re-solve the *same* OPP
decision many times: the Pareto sweep probes the chip side that the floor
computation already settled, ``python -m repro report`` runs Table 1 and
Figure 7 over the same (side, deadline) grid, and request-serving workloads
repeat queries verbatim.  A verdict (``sat``/``unsat``) is a property of the
instance alone — every solver configuration is exact — so conclusive answers
can be memoized safely.

Keys are computed on a **canonical form** of the instance, so a cache hit
does not require byte-identical input:

* box *names* are ignored (relabeling modules does not change the packing);
* box *order* is normalized by a canonical labeling (sorting by widths,
  refined against the precedence structure with an
  individualization-refinement step for symmetric ties);
* the precedence DAG is replaced by its transitive closure (a reduced and a
  closed DAG constrain the packing identically) and relabeled accordingly;
* the time axis index is normalized modulo the dimension count.

The individualization search prunes with the automorphisms it finds
(McKay & Piperno, *Practical graph isomorphism II*, 2014): two leaves with
equal encodings differ by an automorphism, and a branch in the same orbit as
an explored sibling, under the automorphisms that fix the current path, is
skipped.  It keeps the same leaf as the exhaustive search, so keys do not
change.  The search is bounded by :data:`CANON_NODE_BUDGET` nodes and by the
caller's :class:`~repro.core.deadline.Deadline`; past either it falls back to
the *input-order* form.  That key is exact (the form encodes the whole
instance) but is not shared between isomorphic presentations; fallbacks are
counted in ``CacheStats.canon_fallbacks`` and the ``cache.canon_fallback``
metric.  :meth:`ResultCache.label` computes the labeling once per solve and
``get``/``put`` take it, so a lookup and its store share one search.

SAT entries store the witness placement in canonical label space; a hit maps
it back through the query's own labeling and re-validates it geometrically
before returning, so a corrupted store can never produce a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core.boxes import PackingInstance, Placement
from ..core.deadline import Deadline
from ..core.opp import SAT, UNSAT, OPPResult

_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Canonical labeling
# ---------------------------------------------------------------------------

#: Individualization-refinement nodes one canonical labeling may visit
#: before it falls back to the input-order form.
CANON_NODE_BUDGET = 4096


def _refine(
    colors: List[int], succ: List[List[int]], pred: List[List[int]]
) -> List[int]:
    """Iterated partition refinement (1-dimensional Weisfeiler-Leman).

    A vertex's new color combines its old color with the multisets of its
    predecessor and successor colors; colors are re-numbered by sorted
    signature, which preserves the old color order (so boxes stay sorted by
    widths) and is independent of the input labeling.
    """
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


class _LabelingAborted(Exception):
    """The labeling search ran past :data:`CANON_NODE_BUDGET` or the
    caller's deadline."""


def _canonical_order(
    instance: PackingInstance, deadline: Optional[Deadline] = None
) -> List[int]:
    """A canonical permutation of the box indices: position ``i`` of the
    canonical form holds original box ``order[i]``.

    Boxes are sorted by widths; ties are broken by the precedence structure
    (transitive closure) via refinement, and remaining symmetric ties that
    touch precedence arcs are resolved by individualization-refinement,
    keeping the lexicographically smallest arc encoding.  The result is
    invariant under permuting boxes and renaming them.

    Two leaves with equal encodings differ by an automorphism of the closed
    DAG with its widths, so the search stores it; a child in the same orbit
    as an explored sibling, under the stored automorphisms that fix the
    individualized path, leads to the same encodings and is skipped.  The
    kept leaf is the one the exhaustive search keeps.  Raises
    :class:`_LabelingAborted` past :data:`CANON_NODE_BUDGET` search nodes or
    once ``deadline`` leaves no solver budget.
    """
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
    # Each automorphism as an image list: vertex v maps to perm[v].
    automorphisms: List[List[int]] = []
    nodes = 0

    def order_from_colors(colors: List[int]) -> List[int]:
        # Within a color class the vertices are indistinguishable to the
        # encoding (identical widths, and — when the class was not worth
        # individualizing — no incident arcs), so input order is fine.
        return sorted(range(n), key=lambda v: (colors[v], v))

    def encode(order: List[int]) -> Tuple[Tuple[int, int], ...]:
        position = {v: i for i, v in enumerate(order)}
        return tuple(
            sorted((position[u], position[v]) for u in range(n) for v in succ[u])
        )

    def orbit(v: int, path: List[int]) -> Set[int]:
        generators = [
            g for g in automorphisms if all(g[p] == p for p in path)
        ]
        seen = {v}
        frontier = [v]
        while frontier:
            u = frontier.pop()
            for g in generators:
                if g[u] not in seen:
                    seen.add(g[u])
                    frontier.append(g[u])
        return seen

    def search(colors: List[int], path: List[int]) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > CANON_NODE_BUDGET or (
            deadline is not None and deadline.solver_budget() <= 0
        ):
            raise _LabelingAborted
        colors = _refine(colors, succ, pred)
        classes: Dict[int, List[int]] = {}
        for v in range(n):
            classes.setdefault(colors[v], []).append(v)
        target: Optional[List[int]] = None
        for color in sorted(classes):
            members = classes[color]
            if len(members) <= 1 or not any(touched[v] for v in members):
                continue
            # Twins — identical widths and identical closure neighborhoods —
            # are interchangeable in the sorted arc encoding, so they need no
            # individualization (this keeps k parallel identical tasks from
            # costing k! branches).
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
            order = order_from_colors(colors)
            code = encode(order)
            if best is None or code < best[0]:
                best = (code, order)
            elif code == best[0] and order != best[1]:
                perm = list(range(n))
                for u, w in zip(order, best[1]):
                    perm[u] = w
                automorphisms.append(perm)
            return
        fresh = max(colors) + 1
        explored: List[int] = []
        for v in target:
            if explored and not orbit(v, path).isdisjoint(explored):
                continue
            explored.append(v)
            search(
                [fresh if u == v else c for u, c in enumerate(colors)],
                path + [v],
            )

    search(initial, [])
    assert best is not None
    return best[1]


@dataclass(frozen=True)
class CanonicalLabel:
    """One instance's cache labeling: its ``key`` and the box ``order`` that
    maps it to the keyed form.  ``canonical`` is false for the input-order
    fallback, whose key is exact but not shared with isomorphic inputs.

    Computed once per solve by :meth:`ResultCache.label` and passed to
    ``get``/``put``; a label is only valid for the instance it came from."""

    key: str
    order: Tuple[int, ...]
    canonical: bool


def canonical_label(
    instance: PackingInstance, deadline: Optional[Deadline] = None
) -> CanonicalLabel:
    """The canonical labeling of an instance, or — past the node budget or
    ``deadline`` — the input-order fallback."""
    try:
        order, canonical = _canonical_order(instance, deadline), True
    except _LabelingAborted:
        order, canonical = list(range(instance.n)), False
    return CanonicalLabel(
        key=_key_of_form(canonical_form(instance, order)),
        order=tuple(order),
        canonical=canonical,
    )


def canonical_form(
    instance: PackingInstance, order: Optional[Sequence[int]] = None
) -> Dict[str, Any]:
    """The canonical plain-dict encoding of an instance (see module doc)."""
    if order is None:
        order = canonical_label(instance).order
    position = {v: i for i, v in enumerate(order)}
    closure = instance.closed_precedence()
    arcs: List[List[int]] = []
    if closure is not None:
        arcs = sorted([position[u], position[v]] for u, v in closure.arcs())
    return {
        "container": list(instance.container.sizes),
        "time_axis": instance.time_axis % instance.dimensions,
        "boxes": [list(instance.boxes[v].widths) for v in order],
        "precedence": arcs,
    }


def _key_of_form(form: Dict[str, Any]) -> str:
    encoded = json.dumps(form, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def cache_key(instance: PackingInstance) -> str:
    """A collision-resistant hex key for the canonical form."""
    return canonical_label(instance).key


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    quarantined: int = 0
    canon_fallbacks: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """In-memory LRU of conclusive OPP verdicts, optionally disk-backed.

    ``disk_path`` names a directory holding one JSON file per canonical key,
    written atomically, so a cache outlives the process and can be shared
    between runs.  Invalidation is by deleting the directory (entries never
    go stale on their own: verdicts are exact instance properties).

    Disk entries carry a SHA-256 checksum over their canonical payload
    encoding.  An entry that fails verification — wrong checksum, truncated
    or unparseable JSON, or a pre-checksum legacy format — is *quarantined*:
    moved aside into ``<disk_path>/quarantine/`` for post-mortem, counted in
    ``stats.quarantined``, logged, and treated as a miss so the verdict is
    recomputed.  Corruption therefore costs one re-solve, never a wrong or
    crashing answer.

    The quarantine directory itself is bounded: it keeps at most
    ``quarantine_capacity`` files, evicting the oldest (by modification
    time) beyond the cap, so sustained corruption — a failing disk, a
    repeatedly-poisoned shared cache — cannot grow it without limit.

    The cache is **thread-safe**: lookups, stores, and the LRU bookkeeping
    run under one reentrant lock, so a single instance can serve as the
    service daemon's shared cross-request (and cross-tenant) memo with
    solves executing on a thread pool.  Canonicalization — the expensive
    part of a key — happens outside the lock.
    """

    def __init__(
        self,
        capacity: int = 4096,
        disk_path: Optional[str] = None,
        quarantine_capacity: int = 256,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        if quarantine_capacity < 1:
            raise ValueError("quarantine capacity must be positive")
        self.capacity = capacity
        self.quarantine_capacity = quarantine_capacity
        self.disk_path = disk_path
        self.stats = CacheStats()
        self._telemetry: Optional[Any] = None
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.RLock()
        if disk_path is not None:
            os.makedirs(disk_path, exist_ok=True)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def instrument(self, telemetry: Any) -> "ResultCache":
        """Mirror this cache's lifecycle counters (stores, evictions,
        quarantines, canonical-labeling fallbacks) into a
        :class:`repro.telemetry.Telemetry` registry.

        Hit/miss counts are deliberately *not* mirrored here: the lookup
        sites (``solve_opp``, the portfolio) count them against their own
        telemetry, and counting in both places would double-book.
        """
        self._telemetry = telemetry if telemetry and telemetry.enabled else None
        return self

    def _count(self, metric: str) -> None:
        if self._telemetry is not None:
            self._telemetry.counter(metric).add()

    # -- lookup ------------------------------------------------------------

    def label(
        self, instance: PackingInstance, deadline: Optional[Deadline] = None
    ) -> CanonicalLabel:
        """The instance's :class:`CanonicalLabel`, to compute once per solve
        and pass to :meth:`get` and :meth:`put`.  Its key is identical for
        any two isomorphism-equivalent instances unless the labeling fell
        back to the input order (node budget or ``deadline`` exhausted);
        fallbacks are counted in ``stats.canon_fallbacks``."""
        label = canonical_label(instance, deadline)
        if not label.canonical:
            with self._lock:
                self.stats.canon_fallbacks += 1
            self._count("cache.canon_fallback")
        return label

    def key(self, instance: PackingInstance) -> str:
        """The cache key of an instance (``label(instance).key``)."""
        return self.label(instance).key

    def get(
        self, instance: PackingInstance, label: Optional[CanonicalLabel] = None
    ) -> Optional[OPPResult]:
        if label is None:
            label = self.label(instance)
        with self._lock:
            entry = self._load(label.key)
            if entry is None:
                self.stats.misses += 1
                return None
            result = self._decode(instance, label.order, entry)
            if result is None:
                # A mapped-back witness that fails validation means the store
                # is corrupt (or the canonical form logic regressed); drop the
                # entry rather than serve it.
                self._drop(label.key)
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            return result

    def put(
        self,
        instance: PackingInstance,
        result: OPPResult,
        label: Optional[CanonicalLabel] = None,
    ) -> None:
        if result.status not in (SAT, UNSAT):
            return  # inconclusive outcomes depend on budgets; never cache
        if result.status == SAT and result.placement is None:
            return
        if label is None:
            label = self.label(instance)
        entry: Dict[str, Any] = {
            "status": result.status,
            "certificate": result.certificate,
            "positions": None,
        }
        if result.status == SAT:
            entry["positions"] = [
                list(result.placement.positions[v]) for v in label.order
            ]
        with self._lock:
            self._store(label.key, entry)
            self.stats.stores += 1
        self._count("cache.stores")

    # -- internals ---------------------------------------------------------

    def _decode(
        self,
        instance: PackingInstance,
        order: Sequence[int],
        entry: Dict[str, Any],
    ) -> Optional[OPPResult]:
        if entry["status"] == UNSAT:
            return OPPResult(
                status=UNSAT, certificate=entry.get("certificate"), stage="cache"
            )
        canonical_positions = entry.get("positions")
        if canonical_positions is None or len(canonical_positions) != instance.n:
            return None
        positions: List[Tuple[int, ...]] = [()] * instance.n
        for i, pos in enumerate(canonical_positions):
            positions[order[i]] = tuple(pos)
        placement = Placement(instance, positions)
        if not placement.is_feasible():
            return None
        return OPPResult(status=SAT, placement=placement, stage="cache")

    def _load(self, key: str) -> Optional[Dict[str, Any]]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        if self.disk_path is None:
            return None
        path = os.path.join(self.disk_path, f"{key}.json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError:
            return None
        except ValueError:
            self._quarantine(path, "unparseable JSON")
            return None
        entry = self._verified_payload(raw)
        if entry is None:
            self._quarantine(path, "checksum mismatch or unknown format")
            return None
        self._remember(key, entry)
        return entry

    @staticmethod
    def _payload_checksum(payload: Dict[str, Any]) -> str:
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

    @classmethod
    def _verified_payload(cls, raw: Any) -> Optional[Dict[str, Any]]:
        """The entry payload iff ``raw`` is a well-formed v2 envelope whose
        checksum matches; anything else (including legacy unchecksummed
        entries) is indistinguishable from corruption and rejected."""
        if not isinstance(raw, dict) or raw.get("v") != 2:
            return None
        payload = raw.get("payload")
        if not isinstance(payload, dict):
            return None
        if raw.get("sha256") != cls._payload_checksum(payload):
            return None
        return payload

    def _quarantine(self, path: str, reason: str) -> None:
        """Move a bad entry aside (never serve it, never silently lose the
        evidence) and count it; deletion is the fallback when the move
        itself fails."""
        dest_dir = os.path.join(self.disk_path, "quarantine")
        dest = os.path.join(dest_dir, os.path.basename(path))
        try:
            os.makedirs(dest_dir, exist_ok=True)
            os.replace(path, dest)
            self._trim_quarantine(dest_dir)
            _log.warning(
                "quarantined corrupt cache entry %s (%s) -> %s",
                path, reason, dest,
            )
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass
            _log.warning(
                "dropped corrupt cache entry %s (%s); quarantine move failed",
                path, reason,
            )
        self.stats.quarantined += 1
        self._count("cache.quarantined")

    def _trim_quarantine(self, dest_dir: str) -> None:
        """LRU-evict quarantined files beyond ``quarantine_capacity`` (the
        oldest post-mortem evidence goes first)."""
        try:
            names = os.listdir(dest_dir)
        except OSError:
            return
        excess = len(names) - self.quarantine_capacity
        if excess <= 0:
            return
        aged = []
        for name in names:
            full = os.path.join(dest_dir, name)
            try:
                aged.append((os.path.getmtime(full), full))
            except OSError:
                continue
        aged.sort()
        for _, full in aged[:excess]:
            try:
                os.unlink(full)
            except OSError:
                continue
            self.stats.evictions += 1
            self._count("cache.quarantine_evictions")

    def _store(self, key: str, entry: Dict[str, Any]) -> None:
        self._remember(key, entry)
        if self.disk_path is None:
            return
        envelope = {
            "v": 2,
            "sha256": self._payload_checksum(entry),
            "payload": entry,
        }
        path = os.path.join(self.disk_path, f"{key}.json")
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(envelope, handle, sort_keys=True, separators=(",", ":"))
            os.replace(tmp, path)
        except OSError:
            # A read-only or full disk degrades to memory-only caching.
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def _remember(self, key: str, entry: Dict[str, Any]) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            self._count("cache.evictions")

    def _drop(self, key: str) -> None:
        self._entries.pop(key, None)
        if self.disk_path is not None:
            try:
                os.unlink(os.path.join(self.disk_path, f"{key}.json"))
            except OSError:
                pass
