"""The ``service_mixed`` workload: an open loop against a ``repro serve``
daemon over HTTP.

Requests go out on a fixed schedule from at most two sender threads (one
connection each), whatever the daemon's speed, and each latency runs from
the request's scheduled send time, so a stall also charges the requests
queued behind it.  The untraced daemon is the CLI (``python -m repro
serve``); the traced one is ``launcher.py``, which wraps the layer
functions before starting the same service.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from repro.certify import check_certificate
from repro.core.opp import solve_opp
from repro.io.serialize import instance_from_dict

import gen
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
#: Least time to the next send for a speed probe between requests.
PROBE_SLACK_S = 0.04


class Daemon:
    """One daemon subprocess on an OS-assigned port."""

    def __init__(self, src: str, state_dir: str,
                 trace_out: Optional[str] = None) -> None:
        env = dict(os.environ, PYTHONPATH=src)
        if trace_out is None:
            # Without fsync: on a shared disk its latency varied threefold
            # between runs and swamped the request path (see METRICS.md).
            argv = [sys.executable, "-m", "repro", "serve", "--no-fsync"]
        else:
            argv = [sys.executable, os.path.join(HERE, "launcher.py"),
                    "--trace-out", trace_out]
        argv += ["--dir", state_dir, "--port", "0"]
        self.trace_out = trace_out
        self.rusage = None
        self.proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        try:
            self.port = self._await_port()
        except BaseException:
            self.kill()
            raise

    def _await_port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith("serving on http://"):
                    address = line.split()[2]
                    return int(address.rsplit(":", 1)[1])
            elif self.proc.poll() is not None:
                break
        raise RuntimeError("the daemon did not announce its port")

    def request(self, method: str, path: str, body: bytes = b"") -> tuple:
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            conn.request(method, path, body=body or None,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def status(self) -> Dict[str, Any]:
        code, body = self.request("GET", "/v1/status")
        if code != 200:
            raise RuntimeError(f"/v1/status answered {code}")
        return json.loads(body)

    def stop(self) -> None:
        """Graceful shutdown; keeps the daemon's resource usage."""
        try:
            self.request("POST", "/v1/shutdown")
        except (OSError, http.client.HTTPException):
            self.proc.send_signal(signal.SIGTERM)
        self._reap(timeout=60.0)

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self._reap(timeout=10.0)

    def _reap(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while self.proc.returncode is None:
            try:
                pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            except ChildProcessError:  # already reaped by Popen.poll
                self.proc.returncode = -1
                break
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.rusage = rusage
            elif time.monotonic() > deadline:
                self.proc.kill()
                deadline = time.monotonic() + 10.0
            else:
                time.sleep(0.02)
        self.proc.stdout.close()

    def spans(self) -> List[list]:
        with open(self.trace_out) as handle:
            return json.load(handle)


def _post(daemon: Daemon, payload: bytes) -> tuple:
    try:
        code, body = daemon.request("POST", "/v1/solve", payload)
    except (OSError, http.client.HTTPException) as exc:
        return None, f"{type(exc).__name__}: {exc}"
    try:
        return code, json.loads(body)
    except ValueError:
        return code, None


def open_loop(daemon: Daemon, schedule: List[Dict[str, Any]],
              senders: int) -> Dict[str, Any]:
    """Send ``schedule`` on time from ``senders`` threads; returns per
    request ``(due, sent, done, code, body)`` on the client's clock, and
    ``(time, kernel seconds)`` speed probes (``speed.py``).

    A sender runs a probe after an answer only when no request is in
    flight and the next one is due at least :data:`PROBE_SLACK_S` later,
    so the probes neither slow the daemon nor delay a send."""
    payloads = [
        json.dumps(entry["request"]).encode("utf-8") for entry in schedule
    ]
    rows: List[Any] = [None] * len(schedule)
    probes = [(time.perf_counter(), speed.probe())]
    state = {"cursor": 0, "in_flight": 0}
    unsent = set()  # claimed by a sender that waits for its due time
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def sender() -> None:
        while True:
            with lock:
                index = state["cursor"]
                if index >= len(schedule):
                    return
                state["cursor"] += 1
                unsent.add(index)
            due = start + schedule[index]["at"]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            with lock:
                unsent.discard(index)
                state["in_flight"] += 1
            sent = time.perf_counter()
            code, body = _post(daemon, payloads[index])
            done = time.perf_counter()
            rows[index] = (due, sent, done, code, body)
            with lock:
                state["in_flight"] -= 1
                upcoming = min(unsent, default=state["cursor"])
                if state["in_flight"] == 0 and (
                    upcoming >= len(schedule)
                    or start + schedule[upcoming]["at"] - done >= PROBE_SLACK_S
                ):
                    probes.append((time.perf_counter(), speed.probe()))

    # Daemon threads: a terminated run must not wait out the schedule.
    threads = [threading.Thread(target=sender, daemon=True)
               for _ in range(senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"start": start, "rows": rows, "probes": probes}


def answer_problems(request: Dict[str, Any], code: Any, body: Any,
                    expected: str) -> List[str]:
    """Why one service answer is wrong (empty when it is right)."""
    if code != 200 or not isinstance(body, dict):
        return [f"HTTP {code}: {str(body)[:120]}"]
    answer = (body.get("response") or {}).get("answer") or {}
    status = answer.get("status")
    if status != expected:
        return [f"answered {status}, in-process solve_opp says {expected}"]
    if status == "sat":
        instance = request["instance"]
        d = len(instance["container"])
        return check_certificate({
            "boxes": [b["widths"] for b in instance["boxes"]],
            "container": instance["container"],
            "time_axis": instance["time_axis"] % d,
            "precedence": instance["precedence"] or [],
            "positions": answer.get("positions"),
        })
    return []


def reference_statuses(requests: List[Dict[str, Any]],
                       compare_telemetry: bool) -> Dict[str, Any]:
    """In-process ``solve_opp`` status of every distinct request instance;
    with ``compare_telemetry`` also the solve time with telemetry on and
    off (alternating which runs first)."""
    statuses: Dict[str, str] = {}
    seconds = {"plain": 0.0, "telemetry": 0.0}
    for turn, request in enumerate(requests):
        key = json.dumps(request["instance"], sort_keys=True)
        if key in statuses:
            continue
        instance = instance_from_dict(request["instance"])
        variants = ["plain", "telemetry"] if compare_telemetry else ["plain"]
        if turn % 2:
            variants.reverse()
        for variant in variants:
            began = time.perf_counter()
            result = solve_opp(instance, telemetry=variant == "telemetry" or None)
            seconds[variant] += time.perf_counter() - began
        statuses[key] = result.status
    return {"statuses": statuses, "seconds": seconds}


def expected_status(reference: Dict[str, Any], request: Dict[str, Any]) -> str:
    return reference["statuses"][json.dumps(request["instance"], sort_keys=True)]


class Daemons:
    """Boots, drives and stops daemons, always inside ``workdir``."""

    def __init__(self, src: str, workdir: str) -> None:
        self.src = src
        self.workdir = workdir
        self.booted: List[Daemon] = []
        self._count = 0

    def boot(self, traced: bool = False) -> Daemon:
        self._count += 1
        state = os.path.join(self.workdir, f"state{self._count}")
        trace_out = (
            os.path.join(self.workdir, f"spans{self._count}.json")
            if traced else None
        )
        daemon = Daemon(self.src, state, trace_out)
        self.booted.append(daemon)
        return daemon

    def close(self) -> None:
        for daemon in self.booted:
            daemon.kill()
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.workdir))
        except OSError:
            pass  # another run is still using it


def warm_up(daemon: Daemon, warm: List[Dict[str, Any]]) -> List[tuple]:
    """Send the warm-up requests one at a time (untimed)."""
    return [
        _post(daemon, json.dumps(request).encode("utf-8")) for request in warm
    ]


def senders() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def window_metrics(loop: Dict[str, Any], ok: List[bool]) -> Dict[str, Any]:
    """Latency, throughput, SLO and lag figures of one open-loop window.
    Latencies and pass times are in reference seconds (``speed.py``)."""
    rows = loop["rows"]
    limit = gen.SERVICE["latency_limit_ms"] / 1000.0
    factors = [speed.factor_between(loop["probes"], r[0], r[2]) for r in rows]
    latency = [(r[2] - r[0]) * f for r, f in zip(rows, factors)]
    answered = [lat for lat, r in zip(latency, rows) if r[3] == 200]
    hits = [lat for lat, r, good in zip(latency, rows, ok)
            if good and r[4]["response"]["cache_hit"]]
    misses = [lat for lat, r, good in zip(latency, rows, ok)
              if good and not r[4]["response"]["cache_hit"]]
    per_pass = gen.pass_requests()
    passes = [sum(latency[first:first + per_pass])
              for first in range(0, len(rows) - per_pass + 1, per_pass)]
    return {
        "latency": answered,
        "hit_latency": hits,
        "miss_latency": misses,
        "lag": [r[1] - r[0] for r in rows],
        "within_limit": sum(
            1 for lat, good in zip(latency, ok) if good and lat <= limit
        ),
        "completed": sum(ok),
        "undecided": sum(
            1 for r, good in zip(rows, ok)
            if good and r[4]["response"]["answer"]["status"] == "unknown"
        ),
        "seconds": max(r[2] for r in rows) - loop["start"],
        "pass_seconds": passes,
        "walls": [r[2] - r[0] for r in rows],
        "factors": factors,
        "probes": len(loop["probes"]),
    }
