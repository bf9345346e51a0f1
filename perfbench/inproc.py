"""The closed-loop in-process workloads: ``paper_sweeps`` and
``tight_packings``, both driving :func:`repro.solve`.

One *pass* is a fixed list of operations (one :func:`repro.solve` call
each).  Only the solve call is timed; every answer is checked right after,
outside the timed window.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

import repro
from repro.certify import check_certificate
from repro.core.opp import OPPResult, SolverOptions
from repro.fpga import ModuleType, TaskGraph
from repro.instances import FIGURE_7_WITH_PRECEDENCE, TABLE_1, TABLE_2
from repro.io.serialize import instance_from_dict

import gen
import speed
import tracing

#: Per-operation latency limit of the closed-loop workloads (seconds).
LATENCY_LIMIT_S = 5.0


class Op:
    """One :func:`repro.solve` call and the check of its answer.

    ``check(result)`` returns a list of problems (empty when correct);
    ``nodes(result)`` is the program's own search-node count for it, or
    ``None`` where the result does not report every probe (the Pareto
    front omits its floor probes)."""

    def __init__(self, name: str, call: Callable[..., Any],
                 check: Callable[[Any], List[str]],
                 nodes: Callable[[Any], Optional[int]]) -> None:
        self.name = name
        self.call = call
        self.check = check
        self.nodes = nodes


def _certify(placement: Any) -> List[str]:
    if placement is None:
        return ["no placement"]
    payload = OPPResult(status="sat", placement=placement).certificate_payload(
        placement.instance
    )
    return check_certificate(payload)


def _graph(spec: Dict[str, Any], name: str) -> TaskGraph:
    graph = TaskGraph(name=name)
    for task, width, height, duration in spec["tasks"]:
        graph.add_task(
            task,
            ModuleType(name=f"{width}x{height}x{duration}", width=width,
                       height=height, duration=duration),
        )
    for producer, consumer in spec["dependencies"]:
        graph.add_dependency(producer, consumer)
    return graph


def _optimum(expected: int, square: bool) -> Callable[[Any], List[str]]:
    def check(result: Any) -> List[str]:
        if result.status != "optimal" or result.value != expected:
            return [f"expected optimum {expected}, got {result.status} "
                    f"{result.value}"]
        sizes = result.placement.instance.container.sizes
        if square and sizes[:2] != (expected, expected):
            return [f"placement container {sizes} is not the optimum"]
        if not square and sizes[result.placement.instance.time_axis] != expected:
            return [f"placement container {sizes} is not the optimum"]
        return _certify(result.placement)
    return check


def _front(expected: Optional[List[tuple]]) -> Callable[[Any], List[str]]:
    def check(result: Any) -> List[str]:
        pairs = [tuple(p) for p in result.value]
        if result.status != "optimal" or (
            expected is not None and pairs != list(expected)
        ):
            return [f"expected front {expected}, got {result.status} {pairs}"]
        problems = []
        for step in result.results:
            if step.status == "optimal":
                problems += _certify(step.placement)
        return problems
    return check


def _probe_nodes(result: Any) -> int:
    return sum(p.nodes for p in result.probes)


def paper_ops(inputs: Dict[str, Any]) -> List[Op]:
    """Table 1 BMP at each deadline, Table 2 SPP, Figure 7 with and without
    precedence — on the seed's relabelling of the paper's graphs
    (``gen.paper_inputs``)."""
    de = _graph(inputs["de"], "DE")
    codec = _graph(inputs["codec"], "codec")
    ops = [
        Op(f"table1.h{h}",
           lambda h=h, **kw: repro.solve(de, problem="bmp", time_bound=h, **kw),
           _optimum(TABLE_1[h][0], square=True), _probe_nodes)
        for h in sorted(TABLE_1)
    ]
    side = TABLE_2["side"]
    ops.append(Op(
        "table2",
        lambda **kw: repro.solve(codec, problem="spp", chip=(side, side), **kw),
        _optimum(TABLE_2["latency"], square=False), _probe_nodes,
    ))
    ops.append(Op(
        "fig7", lambda **kw: repro.solve(de, problem="pareto", **kw),
        _front(FIGURE_7_WITH_PRECEDENCE), lambda r: None,
    ))
    ops.append(Op(
        "fig7.no_precedence",
        lambda **kw: repro.solve(
            de, problem="pareto", with_dependencies=False, **kw
        ),
        _front(None), lambda r: None,
    ))
    return ops


def tight_ops(inputs: List[Dict[str, Any]]) -> List[Op]:
    """The seed's pool of zero-slack packings (``gen.tight_inputs``) under
    the node cap."""
    options = SolverOptions(node_limit=gen.TIGHT["node_limit"])

    def check(result: Any) -> List[str]:
        if result.status == "sat":
            return _certify(result.placement)
        if result.status == "unknown" and result.limit == "node limit":
            return []
        return [f"a SAT-by-construction packing answered {result.status}"]

    ops = []
    for index, data in enumerate(inputs):
        instance = instance_from_dict(data)
        ops.append(Op(
            f"tight.{index}",
            lambda instance=instance, **kw: repro.solve(
                instance, options=options, **kw
            ),
            check, lambda r: r.stats.nodes,
        ))
    return ops


def _timed(call: Callable[..., Any], **kwargs: Any) -> tuple:
    start = time.perf_counter()
    result = call(**kwargs)
    return time.perf_counter() - start, result


class Outcome:
    """What the closed loop measured."""

    def __init__(self) -> None:
        #: (seconds, answered correctly) per op
        self.latencies: List[tuple] = []
        #: closed loop: wall seconds and speed factor per op (``speed.Meter``)
        self.walls: List[float] = []
        self.factors: List[float] = []
        self.pass_seconds: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.undecided = 0
        self.problems: List[str] = []
        #: (request id of the traced op, the program's node count)
        self.program_nodes: List[tuple] = []
        # trace mode: per-op seconds of each variant, where all three ran
        self.compared: Dict[str, float] = {"plain": 0.0, "traced": 0.0,
                                           "telemetry": 0.0}
        self.traced_passes = 0
        self.spans: List[list] = []

    def record(self, op: Op, result: Any) -> List[str]:
        self.attempted += 1
        try:
            problems = op.check(result)
        except Exception as exc:  # noqa: BLE001 — a crash is a wrong answer
            problems = [f"checking raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.append(f"{op.name}: {problems[0]}")
        if getattr(result, "status", None) == "unknown":
            self.undecided += 1
        return problems


def run_closed_loop(ops: List[Op], seconds: float) -> Outcome:
    """Untraced passes over ``ops`` until ``seconds`` of solving elapsed;
    latencies and pass times are in reference seconds (``speed.py``)."""
    out = Outcome()
    meter = speed.Meter()
    busy = 0.0
    # Start another pass only if the fastest one so far would still end
    # inside the window.
    while not out.pass_seconds or busy + min(out.pass_seconds) <= seconds:
        this_pass = 0.0
        for op in ops:
            elapsed, result = meter.time(op.call)
            this_pass += elapsed
            out.latencies.append((elapsed, not out.record(op, result)))
        out.pass_seconds.append(this_pass)
        busy += sum(meter.walls[-len(ops):])
    out.walls, out.factors = meter.walls, meter.factors
    return out


def run_traced(ops: List[Op], seconds: float) -> Outcome:
    """Traced passes; while ``seconds`` last, every op also runs untraced
    and with ``telemetry=True`` (in rotating order) for the overhead
    ratios.  At least one whole pass is traced."""
    out = Outcome()
    recorder = tracing.Recorder()
    started = time.perf_counter()
    turn = 0
    while time.perf_counter() - started < seconds or not out.traced_passes:
        for op in ops:
            compare = time.perf_counter() - started < seconds
            variants = ["traced"]
            if compare:
                variants = ["plain", "traced", "telemetry"]
                turn += 1
                variants = variants[turn % 3:] + variants[: turn % 3]
            timings = {}
            for variant in variants:
                if variant == "traced":
                    with tracing.install(recorder):
                        elapsed, result = _timed(
                            recorder.call, name="op", fn=op.call, args=(),
                            kwargs={}, root=True,
                        )
                    out.record(op, result)
                    nodes = op.nodes(result)
                    if nodes is not None:
                        root = recorder.spans[-1]  # the op span closes last
                        out.program_nodes.append((root[2], nodes))
                else:
                    kwargs = {"telemetry": True} if variant == "telemetry" else {}
                    elapsed, result = _timed(op.call, **kwargs)
                    out.record(op, result)
                timings[variant] = elapsed
            if compare:
                for variant, elapsed in timings.items():
                    out.compared[variant] += elapsed
        out.traced_passes += 1
    out.spans = recorder.spans
    return out
