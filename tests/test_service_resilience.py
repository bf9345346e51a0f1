"""Network-fault chaos against the daemon, through the resilient client.

The contract under test (docs/robustness.md):

* **Bounded blocking** — whatever the network does (resets, black holes,
  truncated or garbage responses, slow-loris drips), no client call ever
  blocks past its deadline plus the safety margin.
* **Correct or explicitly degraded** — every answer that does come back
  is either exact (and SAT answers certify independently) or carries the
  explicit ``degraded: {reason, gap}`` marker.
* **The breaker works** — consecutive failures open it (fast fails, no
  hammering), and it recovers through a half-open probe once the
  network heals — demonstrably, within one test.
* **Overload honesty** — at 2x queue capacity with per-request
  deadlines, the service admits what it can meet, refuses the rest up
  front (429 + Retry-After), and nothing hangs.

All chaos is deterministic: :class:`ChaosProxy` applies a scripted fault
plan connection by connection, and the soak uses fixed seeds.
"""

import threading
import time

import pytest

from repro.certify import certify_payload
from repro.client import (
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceeded,
    ReproClient,
    TransportError,
)
from repro.core.boxes import make_instance
from repro.core.deadline import DEFAULT_MARGIN, Deadline
from repro.io.backoff import BackoffPolicy
from repro.io.serialize import opp_result_from_dict
from repro.service.chaosproxy import ChaosProxy, Fault

from tests._service_helpers import (
    ServiceThread,
    precedence_instance,
    request_json,
    small_instance,
    solve_payload,
    unsat_instance,
)

#: Grace added to deadline-bound wall-clock assertions: Python thread
#: scheduling and loop wakeups, not solver work.
SLACK = 1.0


def make_client(port, **overrides):
    settings = dict(
        host="127.0.0.1",
        port=port,
        backoff=BackoffPolicy(base=0.02, cap=0.1),
        breaker=CircuitBreaker(failure_threshold=50, reset_timeout=0.05),
    )
    settings.update(overrides)
    return ReproClient(**settings)


def certified(body, instance):
    """Independently certify a wire answer (SAT or UNSAT)."""
    result = opp_result_from_dict(body["response"]["result"])
    verdict = certify_payload(result.certificate_payload(instance))
    return verdict.verdict == "certified"


class TestChaosFaults:
    def test_client_survives_fault_storm(self, tmp_path):
        """Resets, garbage, truncation, and a black hole ahead of one clean
        connection: the client retries through all of it and the final
        answer is exact and certifiable."""
        plan = [
            Fault("reset"),
            Fault("garbage"),
            Fault("truncate", limit=40),
            Fault("drop", hold=0.3),
            Fault("pass"),
        ]
        with ServiceThread(tmp_path) as st:
            with ChaosProxy(st.port, plan) as proxy:
                client = make_client(
                    proxy.port,
                    deadline=Deadline.after(30.0),
                    timeout=1.0,
                )
                body = client.solve(small_instance())
                assert body["response"]["answer"]["status"] == "sat"
                assert certified(body, small_instance())
                # Every scripted fault was actually served before the
                # clean connection answered.
                assert proxy.served[:5] == [
                    "reset", "garbage", "truncate", "drop", "pass",
                ]
                assert client.metrics.retries >= 4

    def test_unsat_survives_chaos_and_certifies(self, tmp_path):
        plan = [Fault("reset"), Fault("pass")]
        with ServiceThread(tmp_path) as st:
            with ChaosProxy(st.port, plan) as proxy:
                client = make_client(
                    proxy.port, deadline=Deadline.after(30.0)
                )
                body = client.solve(unsat_instance())
                assert body["response"]["answer"]["status"] == "unsat"
                assert certified(body, unsat_instance())

    @pytest.mark.parametrize(
        "fault",
        [
            Fault("drop", hold=10.0),
            Fault("delay", delay=10.0),
            Fault("slow", chunk_size=4, chunk_delay=0.2),
        ],
        ids=["black-hole", "stalled-connect", "slow-loris-response"],
    )
    def test_never_blocks_past_deadline(self, tmp_path, fault):
        """The core bound: a hostile network cannot make a call outlive
        its deadline + margin, whichever way it misbehaves."""
        with ServiceThread(tmp_path) as st:
            with ChaosProxy(st.port, [fault]) as proxy:
                deadline = Deadline.after(1.0, margin=0.25)
                client = make_client(
                    proxy.port, deadline=deadline, timeout=30.0
                )
                start = time.monotonic()
                with pytest.raises(DeadlineExceeded):
                    client.solve(small_instance())
                elapsed = time.monotonic() - start
                assert elapsed <= 1.0 + SLACK, (
                    f"call blocked {elapsed:.2f}s past a 1.0s deadline "
                    f"under {fault.mode}"
                )
                assert client.metrics.deadline_giveups == 1

    def test_hedged_get_beats_a_stalled_connection(self, tmp_path):
        plan = [Fault("delay", delay=5.0), Fault("pass")]
        with ServiceThread(tmp_path) as st:
            with ChaosProxy(st.port, plan) as proxy:
                client = make_client(
                    proxy.port,
                    deadline=Deadline.after(10.0),
                    hedge_delay=0.15,
                )
                start = time.monotonic()
                body = client.health()
                elapsed = time.monotonic() - start
                assert body["status"] == "ok"
                assert client.metrics.hedges == 1
                assert elapsed < 5.0  # the hedge won; we never waited out
                # the stalled first connection


class TestCircuitBreaker:
    def test_breaker_opens_fast_fails_and_recovers(self, tmp_path):
        """Two resets open the breaker; the next call fails fast without a
        connection; after the reset timeout the half-open probe hits the
        healed network and closes it again."""
        plan = [Fault("reset"), Fault("reset"), Fault("pass")]
        with ServiceThread(tmp_path) as st:
            with ChaosProxy(st.port, plan) as proxy:
                client = make_client(
                    proxy.port,
                    retries=0,
                    breaker=CircuitBreaker(
                        failure_threshold=2, reset_timeout=0.2
                    ),
                )
                for _ in range(2):
                    with pytest.raises(TransportError):
                        client.health()
                assert client.breaker.state == "open"
                connections_before = len(proxy.served)
                with pytest.raises(CircuitOpenError):
                    client.health()
                # Fast fail: no connection reached the network.
                assert len(proxy.served) == connections_before
                assert client.metrics.breaker_fastfails == 1

                time.sleep(0.25)  # past reset_timeout: half-open window
                body = client.health()
                assert body["status"] == "ok"
                assert client.breaker.state == "closed"
                assert client.metrics.breaker_transitions_total >= 3

    def test_open_breaker_with_deadline_waits_not_fails(self, tmp_path):
        """With time still on the clock, an open breaker waits for its
        half-open window instead of failing a request that could win."""
        plan = [Fault("reset"), Fault("reset"), Fault("pass")]
        with ServiceThread(tmp_path) as st:
            with ChaosProxy(st.port, plan) as proxy:
                client = make_client(
                    proxy.port,
                    retries=0,
                    breaker=CircuitBreaker(
                        failure_threshold=2, reset_timeout=0.2
                    ),
                )
                for _ in range(2):
                    with pytest.raises(TransportError):
                        client.health()
                assert client.breaker.state == "open"
                body = client.health(deadline=Deadline.after(5.0))
                assert body["status"] == "ok"


class TestDeadlineOverWire:
    def test_unmeetable_deadline_refused_up_front(self, tmp_path):
        """A deadline the server provably cannot meet (smaller than its
        own margin) is a structured 429 with Retry-After, not a doomed
        admission."""
        with ServiceThread(tmp_path) as st:
            status, body, headers = request_json(
                st.port,
                "POST",
                "/v1/solve",
                solve_payload(small_instance(), deadline_ms=100),
            )
            assert status == 429
            assert body["error"]["code"] == "deadline-unmeetable"
            assert "Retry-After" in headers
            assert float(headers["Retry-After"]) > 0

    def test_expired_budget_yields_explicit_degradation(self, tmp_path):
        """An admitted request whose budget dies before the solve starts
        gets an honest degraded unknown, never a silent wrong answer."""
        with ServiceThread(tmp_path, deadline_margin=0.0) as st:
            status, body, _ = request_json(
                st.port,
                "POST",
                "/v1/solve",
                solve_payload(small_instance(), deadline_ms=1),
            )
            assert status == 200
            answer = body["response"]["answer"]["status"]
            if answer == "sat":
                # The solve won the race against a 1 ms budget: the answer
                # must then be exact, not silently wrong.
                assert certified(body, small_instance())
            else:
                assert answer == "unknown"
                assert body["response"]["degraded"] == {"reason": "deadline", "gap": None}

    def test_hostile_symmetric_design_releases_the_slot(self, tmp_path):
        """Twenty parallel chains of identical modules take seconds to
        label canonically even with orbit pruning.  The labeling polls the
        request deadline, so the *server* frees the solver slot within
        deadline + margin (seen in /v1/status with the client not waiting),
        and the answer is exact or explicitly degraded."""
        chains = 20
        instance = make_instance(
            [(2, 2, 1)] * (2 * chains),
            (4, 4, 2),
            [(2 * i, 2 * i + 1) for i in range(chains)],
        )
        deadline_ms = 500
        with ServiceThread(tmp_path) as st:
            start = time.monotonic()
            status, body, _ = request_json(
                st.port,
                "POST",
                "/v1/solve",
                solve_payload(instance, deadline_ms=deadline_ms, wait=False),
            )
            assert status == 202
            limit = deadline_ms / 1000.0 + DEFAULT_MARGIN
            while True:
                _, snapshot, _ = request_json(st.port, "GET", "/v1/status")
                admission = snapshot["admission"]
                released = time.monotonic() - start
                if admission["in_flight"] == 0 and admission["running"] == 0:
                    break
                assert released <= limit, (
                    f"solver slot still held {released:.2f}s after submit"
                )
                time.sleep(0.01)
            assert released <= limit
            _, job, _ = request_json(st.port, "GET", f"/v1/status/{body['job']}")
            assert job["state"] == "done", job
            answer = job["response"]["answer"]["status"]
            if answer in ("sat", "unsat"):
                assert certified(job, instance)
            else:
                assert answer == "unknown"
                assert job["response"]["degraded"] == {
                    "reason": "deadline", "gap": None,
                }

    def test_malformed_deadline_is_a_structured_400(self, tmp_path):
        with ServiceThread(tmp_path) as st:
            for bad in (0, -5, "soon", True):
                status, body, _ = request_json(
                    st.port,
                    "POST",
                    "/v1/solve",
                    solve_payload(small_instance(), deadline_ms=bad),
                )
                assert status == 400, bad
                assert body["error"]["code"] == "bad-request"


class TestOverloadSoak:
    def test_soak_at_twice_capacity_never_hangs_or_lies(self, tmp_path):
        """30 concurrent submissions against a queue of 15: every call
        returns within its deadline + margin + slack, every 200 is exact
        or explicitly degraded, every 429 names its reason and carries
        Retry-After, and nothing is left hanging."""
        instances = [small_instance(), precedence_instance(), unsat_instance()]
        outcomes = []
        failures = []
        lock = threading.Lock()

        with ServiceThread(
            tmp_path, workers=2, queue_capacity=15
        ) as st:

            def submit(seed):
                instance = instances[seed % len(instances)]
                start = time.monotonic()
                try:
                    status, body, headers = request_json(
                        st.port,
                        "POST",
                        "/v1/solve",
                        solve_payload(
                            instance,
                            tenant=f"tenant-{seed % 5}",
                            deadline_ms=5000,
                        ),
                        timeout=10.0,
                    )
                except Exception as exc:  # noqa: BLE001 — collected below
                    with lock:
                        failures.append((seed, repr(exc)))
                    return
                elapsed = time.monotonic() - start
                with lock:
                    outcomes.append((seed, status, body, headers, elapsed))

            threads = [
                threading.Thread(target=submit, args=(seed,))
                for seed in range(30)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            hung = [t for t in threads if t.is_alive()]
            assert not hung, f"{len(hung)} submissions never returned"

        assert not failures, failures
        assert len(outcomes) == 30
        for seed, status, body, headers, elapsed in outcomes:
            # Bounded end to end: deadline (5 s) + slack, even when queued.
            assert elapsed <= 5.0 + SLACK, (
                f"seed {seed}: {elapsed:.2f}s past a 5s deadline"
            )
            if status == 200:
                answer = body["response"]["answer"]["status"]
                if answer in ("sat", "unsat"):
                    instance = instances[seed % len(instances)]
                    assert certified(body, instance), f"seed {seed}"
                else:
                    # Degraded answers must say so, explicitly.
                    assert answer == "unknown", f"seed {seed}: {answer}"
                    marker = body["response"].get("degraded")
                    assert marker is not None, f"seed {seed} lacked marker"
                    assert marker["reason"] == "deadline"
                    assert "gap" in marker
            else:
                assert status == 429, f"seed {seed}: HTTP {status}"
                code = body["error"]["code"]
                assert code in ("queue-full", "deadline-unmeetable"), code
                assert "Retry-After" in headers, f"seed {seed}"

        served = [o for o in outcomes if o[1] == 200]
        assert served, "overload refused everything"
