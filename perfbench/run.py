"""End-to-end benchmark of the placement solver.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see METRICS.md for parameters and the layer -> metric table):

``paper_sweeps``
    closed loop over the paper's experiments through :func:`repro.solve`;
``tight_packings``
    closed loop over a seeded pool of zero-slack packings under a node cap;
``service_mixed``
    open loop at a fixed rate against ``repro serve`` over HTTP.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs with the
benchmark's layer wrappers and prints the per-layer metrics.  Every answer
is checked outside the timed window; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` and the exit code
is 0 only when every answer was right.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 9



def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for the
    mode: the end-to-end list untraced, the per-layer list traced."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def percentile(values: List[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method); 0.0 without samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=SRC)
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro"], env=env, check=True)
    return time.perf_counter() - started


def timed_setups(
    set_up: Callable[[], Any],
    tear_down: Callable[[Any], None] = lambda result: None,
) -> Tuple[List[float], Any]:
    """Run ``set_up`` :data:`SETUP_REPEATS` times, each followed by an
    untimed ``tear_down`` of its result; returns the reference seconds of
    each set-up and the last one's result."""
    meter = speed.Meter()
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, result = meter.time(set_up)
        tear_down(result)
        setups.append(elapsed)
    return setups, result


def speed_note(walls: List[float], factors: List[float]) -> str:
    return (f"timed work: {sum(walls):.2f} s wall; reference seconds per "
            f"wall second: median {statistics.median(factors):.3f}, "
            f"{min(factors):.3f} to {max(factors):.3f}")


def latency_metrics(seconds: List[float]) -> Dict[str, float]:
    ms = [1000.0 * s for s in seconds]
    return {
        "latency_p50_ms": percentile(ms, 50),
        "latency_p90_ms": percentile(ms, 90),
        "latency_p99_ms": percentile(ms, 99),
    }


def tail_note(count: int) -> str:
    beyond = {p: count - int(count * p / 100) for p in (50, 90, 99)}
    thin = [f"p{p} ({n} beyond)" for p, n in beyond.items() if n < 10]
    return f"latency samples: {count}" + (
        f"; fewer than 10 samples beyond {', '.join(thin)}" if thin else ""
    )


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------


def run_inproc(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import gen
    import inproc
    import repro
    import tracing
    from repro.core.boxes import Box, Container, PackingInstance
    from tracing import ratio

    build = inproc.paper_ops if workload == "paper_sweeps" else inproc.tight_ops

    def set_up() -> list:
        import_seconds()
        return build(gen.GENERATORS[workload](seed, seconds))

    setups, ops = timed_setups(set_up)
    # Lazy imports inside the solver happen once, before any timing.
    repro.solve(PackingInstance([Box((1, 1, 1))], Container((1, 1, 1))))

    if not trace:
        out = inproc.run_closed_loop(ops, seconds)
        good = [s for s, ok in out.latencies if ok]
        busy = sum(s for s, _ in out.latencies)
        # One operation's solves differ only by the machine's noise, which
        # is wide for a single solve; so an operation's latency is its
        # median over the passes and the percentiles are over operations.
        per_op = [
            statistics.median(s for s, ok in out.latencies[i::len(ops)] if ok)
            for i in range(len(ops))
            if any(ok for _, ok in out.latencies[i::len(ops)])
        ]
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(out.pass_seconds),
            "ops_per_s": ratio(len(good), busy),
            **latency_metrics(per_op),
            "slo_attainment": ratio(
                sum(1 for s in good if s <= inproc.LATENCY_LIMIT_S),
                out.attempted,
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        notes = [f"passes: {len(out.pass_seconds)}; latency: median per "
                 "operation over the passes", tail_note(len(per_op)),
                 speed_note(out.walls, out.factors)]
        return _result(out.attempted, out.failed, out.problems, metrics, notes)

    out = inproc.run_traced(ops, seconds)
    metrics = tracing.layer_metrics(out.spans, out.traced_passes)
    nodes_seen: Dict[Any, int] = {}
    for span in out.spans:
        if span[3] == "search":
            nodes_seen[span[2]] = nodes_seen.get(span[2], 0) + span[6]["nodes"]
    mismatches = [
        f"trace disagrees on op {rid}: search spans saw "
        f"{nodes_seen.get(rid, 0)} nodes, SearchStats.nodes says {nodes}"
        for rid, nodes in out.program_nodes
        if nodes_seen.get(rid, 0) != nodes
    ]
    plain = out.compared["plain"]
    metrics.update({
        "hit_latency_p50_ms": 0.0,
        "miss_latency_p50_ms": 0.0,
        "error_rate": ratio(out.failed, out.attempted),
        "undecided_rate": ratio(out.undecided, out.attempted),
        "loadgen.lag_p99_ms": 0.0,
        "trace.overhead_ratio": ratio(out.compared["traced"], plain) - 1.0,
        "telemetry.on_overhead_ratio": ratio(out.compared["telemetry"], plain)
        - 1.0,
        "trace.reconciled": 0.0 if mismatches else 1.0,
    })
    notes = [f"traced passes: {out.traced_passes}",
             f"overhead compared over {plain:.2f} s of untraced solving"]
    return _result(out.attempted, out.failed, out.problems + mismatches,
                   metrics, notes, invalid=bool(mismatches))


# ---------------------------------------------------------------------------
# service_mixed
# ---------------------------------------------------------------------------


def _phase(daemons: Any, inputs: dict, traced: bool) -> dict:
    import service

    daemon = daemons.boot(traced=traced)
    warm = service.warm_up(daemon, inputs["warm"])
    loop = service.open_loop(daemon, inputs["schedule"], service.senders())
    status = daemon.status()
    daemon.stop()
    return {"daemon": daemon, "warm": warm, "loop": loop, "status": status}


def _check_phase(phase: dict, inputs: dict, reference: dict) -> tuple:
    """``(warm-up answers right, window answers right, problems)``."""
    import service

    def verdicts(requests: List[dict], replies: List[tuple]) -> List[list]:
        return [
            service.answer_problems(
                request, code, body,
                service.expected_status(reference, request),
            )
            for request, (code, body) in zip(requests, replies)
        ]

    warm = verdicts(inputs["warm"], phase["warm"])
    window = verdicts(
        [e["request"] for e in inputs["schedule"]],
        [(row[3], row[4]) for row in phase["loop"]["rows"]],
    )
    problems = [p for found in warm + window for p in found]
    return [not f for f in warm], [not f for f in window], problems


def _window_spans(spans: List[list], warm: int, window: int) -> List[list]:
    """Spans of the open-loop requests: HTTP roots in start order are the
    warm-up, then the window, then the status and shutdown calls."""
    roots = sorted((s for s in spans if s[3] == "http"), key=lambda s: s[4])
    keep = {s[2] for s in roots[warm:warm + window]}
    return [s for s in spans if s[2] in keep]


def run_service(seed: int, seconds: float, trace: bool) -> dict:
    import gen
    import service
    import tracing
    from tracing import ratio

    daemons = service.Daemons(
        SRC, os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
    )
    try:
        if not trace:
            setups, (inputs, _) = timed_setups(
                lambda: (gen.service_inputs(seed, seconds), daemons.boot()),
                lambda booted: booted[1].stop(),
            )
            phases = [_phase(daemons, inputs, traced=False)]
        else:
            inputs = gen.service_inputs(seed, seconds / 2)
            # Like the set-up boots of an untraced run, one boot first, so
            # neither phase is a cold daemon start; the phase order
            # alternates with the seed.
            daemons.boot().stop()
            order = [False, True] if seed % 2 == 0 else [True, False]
            by_mode = {traced: _phase(daemons, inputs, traced)
                       for traced in order}
            phases = [by_mode[False], by_mode[True]]
        requests = inputs["warm"] + [e["request"] for e in inputs["schedule"]]
        reference = service.reference_statuses(requests, compare_telemetry=trace)
        attempted = failed = 0
        problems: List[str] = []
        windows = []
        for phase in phases:
            warm_ok, ok, found = _check_phase(phase, inputs, reference)
            attempted += len(warm_ok) + len(ok)
            failed += warm_ok.count(False) + ok.count(False)
            problems += found
            windows.append(service.window_metrics(phase["loop"], ok))
        plain = windows[0]
        sent = len(inputs["schedule"])
        if not trace:
            metrics = {
                "setup_s": statistics.median(setups),
                "pass_s": statistics.median(plain["pass_seconds"]),
                "ops_per_s": ratio(plain["completed"], plain["seconds"]),
                **latency_metrics(plain["latency"]),
                "slo_attainment": ratio(plain["within_limit"], sent),
                "peak_rss_mb": phases[0]["daemon"].rusage.ru_maxrss / 1024.0,
            }
            notes = [tail_note(len(plain["latency"])),
                     f"speed probes: {plain['probes']}",
                     speed_note(plain["walls"], plain["factors"])]
            return _result(attempted, failed, problems, metrics, notes)

        traced = phases[1]
        spans = traced["daemon"].spans()
        window = _window_spans(spans, len(inputs["warm"]), sent)
        metrics = tracing.layer_metrics(window, sent / gen.pass_requests())
        found = tracing.counts(spans)
        cache = traced["status"]["cache"]
        admission = traced["status"]["admission"]
        replies = traced["warm"] + [(r[3], r[4]) for r in traced["loop"]["rows"]]
        checks = {
            "memo hits": (found["cache_hits"], cache["hits"]),
            "memo misses": (found["cache_misses"], cache["misses"]),
            "memo stores": (found["cache_puts"], cache["stores"]),
            "admission refusals": (found["rejected"], sum(
                v for k, v in admission.items() if k.startswith("rejected_")
            )),
            "solve_opp calls vs memo misses": (
                found["opp_calls"], cache["misses"]
            ),
            "search nodes vs answered SearchStats.nodes": (
                found["search_nodes"],
                sum(body["response"]["result"]["stats"]["nodes"]
                    for code, body in replies
                    if code == 200 and isinstance(body, dict)),
            ),
        }
        mismatches = [
            f"trace disagrees on {name}: wrapped {a}, program {b}"
            for name, (a, b) in checks.items() if a != b
        ]
        seconds_ref = reference["seconds"]
        metrics.update({
            "hit_latency_p50_ms": 1000.0 * percentile(plain["hit_latency"], 50),
            "miss_latency_p50_ms": 1000.0 * percentile(plain["miss_latency"], 50),
            "error_rate": ratio(failed, attempted),
            "undecided_rate": ratio(plain["undecided"], sent),
            "loadgen.lag_p99_ms": 1000.0 * percentile(plain["lag"], 99),
            "trace.overhead_ratio": ratio(
                statistics.median(windows[1]["latency"]),
                statistics.median(plain["latency"]),
            ) - 1.0,
            "telemetry.on_overhead_ratio": ratio(
                seconds_ref["telemetry"], seconds_ref["plain"]
            ) - 1.0,
            "trace.reconciled": 0.0 if mismatches else 1.0,
        })
        notes = [f"window spans: {len(window)} of {len(spans)}"]
        return _result(attempted, failed, problems + mismatches, metrics,
                       notes, invalid=bool(mismatches))
    finally:
        daemons.close()


# ---------------------------------------------------------------------------


def _result(attempted: int, failed: int, problems: List[str],
            metrics: Dict[str, float], notes: List[str],
            invalid: bool = False) -> dict:
    return {
        "correct": failed == 0 and not problems and not invalid,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "_notes": notes + problems[:20],
    }


def main() -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    speed.pin()
    import gen

    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the placement solver."
    )
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops its daemons (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    import selftest

    problems = selftest.check(args.workload, args.seed, args.seconds)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    if args.workload == "service_mixed":
        result = run_service(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_inproc(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    declared = declared_metrics(bool(args.trace))
    measured = result["metrics"]
    if set(measured) != set(declared):
        print(f"error: measured {sorted(set(measured) ^ set(declared))} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    result["metrics"] = {
        name: {"value": measured[name], "unit": unit}
        for name, unit in declared.items()
    }
    for line in result.pop("_notes"):
        print(f"# {line}")
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
