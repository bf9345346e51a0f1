"""Benchmark-owned span tracing around the program's public layer functions.

:class:`Recorder` keeps spans in memory as ``[id, parent, request, name,
start, end, attrs]`` rows.  :func:`install` replaces the layer entry points
with wrappers that record one span per call until the
:class:`contextlib.ExitStack` it returns closes, so the program's source
stays untouched.  The current
span lives in a :mod:`contextvars` variable: asyncio tasks and threads each
see their own, and a span opened in one request never parents another's.

:func:`layer_metrics` turns the spans into the per-layer metrics; a layer's
self time is its span time minus the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple
from unittest import mock

_clock = time.perf_counter
#: (span id, request id) of the innermost open span in this context.
_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(None, None)
)

#: Bounds with their own metric; the rest of the stage is ``bounds.other``.
NAMED_BOUNDS = (
    "dff_volume_bound",
    "mandatory_overlap_bound",
    "conflict_schedule_bound",
    "spatial_conflict_bound",
)
SWEEPS = ("sweep.bmp", "sweep.spp", "sweep.pareto")


class Recorder:
    """In-memory span store shared by every thread of the process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def open(self, name: str, root: bool = False) -> list:
        """A new span under the current one; a root span starts a request."""
        parent, request = (None, None) if root else _current.get()
        with self._lock:
            span_id = next(self._ids)
        if request is None:
            request = span_id
        return [span_id, parent, request, name, _clock(), None, {}]

    def close(self, span: list) -> None:
        span[5] = _clock()
        with self._lock:
            self.spans.append(span)

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             note: Optional[Callable] = None, root: bool = False) -> Any:
        span = self.open(name, root)
        token = _current.set((span[0], span[2]))
        try:
            result = fn(*args, **kwargs)
            if note is not None:
                note(span[6], result, args)
            return result
        finally:
            _current.reset(token)
            self.close(span)

    async def acall(self, name: str, fn: Callable, args: tuple, kwargs: dict,
                    root: bool = False) -> Any:
        span = self.open(name, root)
        token = _current.set((span[0], span[2]))
        try:
            return await fn(*args, **kwargs)
        finally:
            _current.reset(token)
            self.close(span)


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when there is nothing to divide by."""
    return num / den if den else 0.0


def wrap(recorder: Recorder, name: str, fn: Callable,
         note: Optional[Callable] = None, root: bool = False) -> Callable:
    """``fn`` with one span per call; ``note(attrs, result, args)`` may
    record facts about the result (a bound fired, a memo hit)."""
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            return await recorder.acall(name, fn, args, kwargs, root=root)
        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, note=note, root=root)
    return traced


def _patch(stack: contextlib.ExitStack, recorder: Recorder, owner: Any,
           attr: str, name: str, note: Optional[Callable] = None,
           root: bool = False) -> None:
    """Replace ``owner.attr`` with its traced version until ``stack``
    closes; a classmethod stays a classmethod."""
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, classmethod):
        traced = classmethod(wrap(recorder, name, raw.__func__, note, root))
    else:
        traced = wrap(recorder, name, raw, note, root)
    stack.enter_context(mock.patch.object(owner, attr, traced))


def _fired(attrs: dict, result: Any, args: tuple) -> None:
    attrs["fired"] = result is not None


def _found(attrs: dict, result: Any, args: tuple) -> None:
    attrs["found"] = result is not None


def _search(attrs: dict, result: Any, args: tuple) -> None:
    attrs["nodes"] = args[0].stats.nodes


def install(recorder: Recorder, service: bool = False) -> contextlib.ExitStack:
    """Wrap every layer's public entry points until the returned stack
    closes."""
    import repro.api as api
    import repro.core.bmp as bmp
    import repro.core.bounds as bounds
    import repro.core.opp as opp
    import repro.core.pareto as pareto
    import repro.heuristics.greedy as greedy
    from repro.core.search import BranchAndBound
    from repro.parallel.cache import ResultCache

    stack = contextlib.ExitStack()
    for owner, attr, name in (
        (api, "minimize_base", "sweep.bmp"),
        (api, "minimize_makespan", "sweep.spp"),
        (api, "pareto_front", "sweep.pareto"),
        (pareto, "minimize_base", "sweep.bmp"),
    ):
        _patch(stack, recorder, owner, attr, name)
    for owner in (api, bmp):
        _patch(stack, recorder, owner, "solve_opp", "opp")
    _patch(stack, recorder, opp, "prove_infeasible_named", "bounds", _fired)
    # prove_infeasible_named iterates this list at call time.
    originals = list(bounds.ALL_BOUNDS)
    bounds.ALL_BOUNDS[:] = [
        wrap(recorder, f"bound.{bound.__name__}", bound, _fired)
        for bound in originals
    ]
    stack.callback(bounds.ALL_BOUNDS.__setitem__, slice(None), originals)
    _patch(stack, recorder, greedy, "heuristic_placement", "heuristics", _found)
    _patch(stack, recorder, BranchAndBound, "solve", "search", _search)
    _patch(stack, recorder, ResultCache, "key", "cache.key")
    _patch(stack, recorder, ResultCache, "get", "cache.get", _found)
    _patch(stack, recorder, ResultCache, "put", "cache.put")
    if service:
        _install_service(recorder, stack)
    return stack


def _install_service(recorder: Recorder, stack: contextlib.ExitStack) -> None:
    import repro.service.app as app
    from repro.service.admission import AdmissionController, AdmissionError
    from repro.service.jobs import JobStore
    from repro.service.protocol import SolveRequest

    _patch(stack, recorder, app, "solve_opp", "opp")
    _patch(stack, recorder, SolveRequest, "from_dict", "protocol.decode")
    _patch(stack, recorder, app, "solve_response", "protocol.encode")
    _patch(stack, recorder, app, "dumps_canonical", "protocol.encode")
    _patch(stack, recorder, AdmissionController, "acquire", "admission.wait")
    for attr in ("mark_running", "finish", "fail"):
        _patch(stack, recorder, JobStore, attr, "jobs.journal")

    jobs: Dict[str, Tuple[Any, Any]] = {}
    submit = JobStore.submit

    def traced_submit(self, *args, **kwargs):
        job = recorder.call("jobs.journal", submit, (self,) + args, kwargs)
        jobs[job.job_id] = _current.get()
        return job

    stack.enter_context(mock.patch.object(JobStore, "submit", traced_submit))

    admit = AdmissionController.admit

    def counted_admit(self, *args, **kwargs):
        try:
            return admit(self, *args, **kwargs)
        except AdmissionError:
            span = recorder.open("admission.rejected")
            recorder.close(span)
            raise

    stack.enter_context(
        mock.patch.object(AdmissionController, "admit", counted_admit)
    )

    execute = app.SolverService._execute

    def traced_execute(self, job, *args, **kwargs):
        # The executor thread continues the request that submitted the job.
        token = _current.set(jobs.pop(job.job_id, (None, None)))
        try:
            return recorder.call("execute", execute, (self, job) + args, kwargs)
        finally:
            _current.reset(token)

    stack.enter_context(
        mock.patch.object(app.SolverService, "_execute", traced_execute)
    )
    _patch(stack, recorder, app.SolverService, "_handle_client", "http", root=True)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _self_times(spans: List[list]) -> Dict[int, float]:
    children: Dict[Any, List[list]] = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    out = {}
    for span in spans:
        start, end = span[4], span[5]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span[0], []), key=lambda s: s[4]):
            lo, hi = max(child[4], cursor), min(child[5], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span[0]] = (end - start) - covered
    return out


def layer_metrics(spans: List[list], passes: float) -> Dict[str, float]:
    """Per-layer metrics: times (``*.ms`` / ``*_ms``) and counts are per
    pass, ratios are useful outcomes over attempts."""
    selfs = _self_times(spans)
    by_id = {s[0]: s for s in spans}
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for span in spans:
        name = span[3]
        total[name] = total.get(name, 0.0) + span[5] - span[4]
        own[name] = own.get(name, 0.0) + selfs[span[0]]
        calls[name] = calls.get(name, 0) + 1

    def ms(value: float) -> float:
        return 1000.0 * value / passes if passes else 0.0

    def per_pass(count: int) -> float:
        return count / passes if passes else 0.0

    def count_attr(name: str, attr: str) -> int:
        return sum(1 for s in spans if s[3] == name and s[6].get(attr))

    def under_sweep(span: list) -> bool:
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[3] in SWEEPS:
                return True
            parent = by_id.get(parent[1])
        return False

    named = {f"bound.{b}" for b in NAMED_BOUNDS}
    other = own.get("bounds", 0.0) + sum(
        t for n, t in total.items() if n.startswith("bound.") and n not in named
    )
    nodes = sum(s[6].get("nodes", 0) for s in spans if s[3] == "search")
    metrics = {
        f"bounds.{b}.ms": ms(total.get(f"bound.{b}", 0.0)) for b in NAMED_BOUNDS
    }
    metrics.update({
        "bounds.dff_volume_bound.calls": per_pass(
            calls.get("bound.dff_volume_bound", 0)
        ),
        "bounds.other.ms": ms(other),
        "bounds.fired_ratio": ratio(
            count_attr("bounds", "fired"), calls.get("bounds", 0)
        ),
        "heuristics.ms": ms(total.get("heuristics", 0.0)),
        "heuristics.found_ratio": ratio(
            count_attr("heuristics", "found"), calls.get("heuristics", 0)
        ),
        "search.ms": ms(total.get("search", 0.0)),
        "search.nodes": per_pass(nodes),
        "search.nodes_per_s": ratio(nodes, total.get("search", 0.0)),
        "opp.calls": per_pass(calls.get("opp", 0)),
        "opp.self_ms": ms(own.get("opp", 0.0)),
        "sweep.probes": per_pass(
            sum(1 for s in spans if s[3] == "opp" and under_sweep(s))
        ),
        "sweep.self_ms": ms(sum(own.get(n, 0.0) for n in SWEEPS)),
        "cache.key_ms": ms(total.get("cache.key", 0.0)),
        "cache.key_calls": per_pass(calls.get("cache.key", 0)),
        "cache.misses": per_pass(
            calls.get("cache.get", 0) - count_attr("cache.get", "found")
        ),
        "cache.get_ms": ms(total.get("cache.get", 0.0)),
        "cache.put_ms": ms(total.get("cache.put", 0.0)),
        "cache.hit_ratio": ratio(
            count_attr("cache.get", "found"), calls.get("cache.get", 0)
        ),
        "protocol.decode_ms": ms(total.get("protocol.decode", 0.0)),
        "protocol.encode_ms": ms(total.get("protocol.encode", 0.0)),
        "admission.wait_ms": ms(total.get("admission.wait", 0.0)),
        "admission.rejected": per_pass(calls.get("admission.rejected", 0)),
        "jobs.journal_ms": ms(total.get("jobs.journal", 0.0)),
        "http.self_ms": ms(own.get("http", 0.0)),
        "trace.busy_ms": ms(total.get("op", 0.0) + total.get("http", 0.0)),
    })
    return metrics


def counts(spans: List[list]) -> Dict[str, int]:
    """Raw totals the reconciliation compares with the program's own."""
    out = {"search_nodes": 0, "opp_calls": 0, "cache_hits": 0,
           "cache_misses": 0, "cache_puts": 0, "rejected": 0}
    for span in spans:
        name, attrs = span[3], span[6]
        if name == "search":
            out["search_nodes"] += attrs.get("nodes", 0)
        elif name == "opp":
            out["opp_calls"] += 1
        elif name == "cache.get":
            out["cache_hits" if attrs.get("found") else "cache_misses"] += 1
        elif name == "cache.put":
            out["cache_puts"] += 1
        elif name == "admission.rejected":
            out["rejected"] += 1
    return out
