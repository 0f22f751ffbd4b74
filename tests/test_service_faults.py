"""Chaos battery for the fault-tolerance layer.

Exercises the serving stack's failure model with the deterministic fault
injector (:mod:`repro.testing.faults`):

* **deadlines** — a caller's wait is bounded by its timeout, expiry is a
  typed :class:`DeadlineExceededError`, queued-but-expired work is
  skipped before execution, and every miss is counted;
* **supervision** — a crashed worker's request is salvaged (no caller
  hangs), the watchdog restarts dead workers and retires-and-replaces
  wedged ones, and ``workers_live`` recovers;
* **circuit breaker** — consecutive failures open it, callers then fail
  fast with :class:`ShardUnavailableError` + ``retry_after``, a
  half-open probe closes it again (or re-opens it on failure);
* **graceful drain** — ``stop(timeout=...)`` cancels overdue queued work
  with :class:`ServiceDrainingError`, is idempotent, and a submit racing
  a stop gets a typed error instead of hanging forever;
* **retry** — idempotent asks retry transparently on
  :class:`TransientServingError`; updates never do;
* **HTTP taxonomy** — 503s carry ``Retry-After`` + a machine-readable
  ``reason``, deadline misses are 504s, and a draining server rejects
  new work with 503 while in-flight requests finish;
* **crash-recovery stress** — seeded random worker kills mid-burst lose
  no request, answer none wrongly, and leave the counters reconciled.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import (
    DeadlineExceededError,
    ServiceDrainingError,
    ShardUnavailableError,
    TransientServingError,
    UnavailableError,
)
from repro.service import (
    CircuitBreaker,
    ExplanationServer,
    ExplanationService,
    ServiceShard,
    ServiceStats,
    ShardedExplanationService,
)
from repro.testing import faults
from repro.testing.faults import Fault, FaultInjector, InjectedFault, injected

QUESTION = "Why should I eat Cauliflower Potato Curry?"


class _StubService:
    """Just enough of :class:`ExplanationService` for shard-level tests."""

    def stats(self):
        return ServiceStats()

    def latency_snapshot(self):
        return []


def _shard(**kwargs) -> ServiceShard:
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("queue_size", 8)
    shard = ServiceShard(0, _StubService(), **kwargs)
    shard.start()
    return shard


def _occupy(shard):
    """Park the shard's (single) worker on an event; returns (release, future)."""
    release = threading.Event()
    running = threading.Event()

    def block():
        running.set()
        assert release.wait(timeout=30)
        return "occupied"

    future = shard.submit(block)
    assert running.wait(timeout=30)
    return release, future


# ---------------------------------------------------------------------------
# Fault injector semantics
# ---------------------------------------------------------------------------
class TestFaultInjector:
    def test_disabled_by_default(self):
        assert faults.ACTIVE is None

    def test_spec_grammar(self):
        injector = FaultInjector.from_spec(
            "worker=crash@3,9; query=error@every=4; "
            "materialize=latency@p=0.5:25", seed=7)
        by_site = {fault.site: fault for fault in injector.faults}
        assert by_site["worker"].action == "crash"
        assert by_site["worker"].at == (3, 9)
        assert by_site["query"].every == 4
        assert by_site["materialize"].prob == 0.5
        assert by_site["materialize"].delay_ms == 25.0
        for bad in ("worker", "worker=crash", "worker=boom@1", "w=crash@x"):
            with pytest.raises(ValueError):
                FaultInjector.from_spec(bad)

    def test_index_trigger_fires_exactly_there(self):
        injector = FaultInjector([Fault(site="s", action="error", at=(1,))])
        injector.fire("s")  # hit 0: clean
        with pytest.raises(InjectedFault):
            injector.fire("s")  # hit 1
        injector.fire("s")  # hit 2: clean again
        assert injector.fired == [("s", "error", 1)]
        assert injector.count("s") == 3

    def test_probabilistic_trigger_is_seed_deterministic(self):
        def run(seed):
            injector = FaultInjector(
                [Fault(site="s", action="error", prob=0.3)], seed=seed)
            hits = []
            for i in range(50):
                try:
                    injector.fire("s")
                except InjectedFault:
                    hits.append(i)
            return hits

        assert run(11) == run(11)
        assert run(11) != run(12)

    def test_injected_fault_is_a_typed_transient(self):
        assert issubclass(InjectedFault, TransientServingError)
        assert issubclass(InjectedFault, UnavailableError)

    def test_context_manager_scopes_activation(self):
        injector = FaultInjector()
        with injected(injector) as active:
            assert faults.ACTIVE is active is injector
        assert faults.ACTIVE is None


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------
class TestDeadlines:
    def test_caller_wait_is_bounded_and_typed(self):
        shard = _shard()
        try:
            release, future = _occupy(shard)
            started = time.monotonic()
            with pytest.raises(DeadlineExceededError) as excinfo:
                shard.call(lambda: "late", timeout=0.1)
            assert time.monotonic() - started < 5.0
            assert excinfo.value.timeout == 0.1
            assert excinfo.value.shard == 0
            assert excinfo.value.to_payload()["error"] == "deadline_exceeded"
            assert shard.timed_out == 1
            release.set()
            assert future.result(timeout=30) == "occupied"
        finally:
            shard.stop(timeout=5.0)

    def test_expired_queued_work_is_skipped_not_executed(self):
        shard = _shard()
        try:
            release, blocked = _occupy(shard)
            executed = threading.Event()
            stale = shard.submit(executed.set, timeout=0.05)
            time.sleep(0.1)  # let the deadline lapse while still queued
            release.set()
            with pytest.raises(DeadlineExceededError):
                stale.result(timeout=30)
            assert not executed.is_set()
            assert shard.expired == 1
            assert blocked.result(timeout=30) == "occupied"
        finally:
            shard.stop(timeout=5.0)

    def test_timeout_counters_surface_in_stats(self):
        shard = _shard()
        try:
            release, _ = _occupy(shard)
            with pytest.raises(DeadlineExceededError):
                shard.call(lambda: None, timeout=0.05)
            release.set()
            stats = shard.stats()
            assert stats.requests_timed_out == 1
            assert "requests timed out:     1" in stats.to_text()
        finally:
            shard.stop(timeout=5.0)


# ---------------------------------------------------------------------------
# Supervision: dead and wedged workers
# ---------------------------------------------------------------------------
class TestSupervision:
    def test_crashed_worker_is_restarted_and_request_salvaged(self):
        shard = _shard(workers=1)
        try:
            with injected(FaultInjector(
                    [Fault(site="worker", action="crash", at=(0,))])):
                future = shard.submit(lambda: "survived")
                # The worker dies holding the request; the item is salvaged
                # back onto the queue, so nothing is lost.
                deadline = time.monotonic() + 5.0
                while shard.workers_live() > 0 and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert shard.workers_live() == 0
                assert shard.supervise() == 1
                assert shard.workers_live() == 1
                assert shard.workers_restarted == 1
                assert future.result(timeout=30) == "survived"
        finally:
            shard.stop(timeout=5.0)

    def test_wedged_worker_is_retired_and_replaced(self):
        shard = _shard(workers=1, wedge_timeout=0.05)
        try:
            release, wedged = _occupy(shard)
            time.sleep(0.1)  # past the wedge threshold
            assert shard.supervise() == 1
            assert shard.workers_restarted == 1
            # The replacement serves new work while the wedged thread is
            # still stuck (it cannot be killed, only abandoned).
            assert shard.call(lambda: "fresh", timeout=5.0) == "fresh"
            release.set()
            assert wedged.result(timeout=30) == "occupied"
        finally:
            shard.stop(timeout=5.0)

    def test_fleet_watchdog_restores_capacity(self, engine):
        sharded = ShardedExplanationService(
            num_shards=1, workers_per_shard=2, engine=engine,
            watchdog_interval=0.02, breaker_failure_threshold=100)
        try:
            with injected(FaultInjector(
                    [Fault(site="worker", action="crash", at=(0,))])):
                assert sharded.ask(QUESTION, persona="paper").explanation.text
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    stats = sharded.stats()
                    if stats.workers_live == 2 and stats.workers_restarted == 1:
                        break
                    time.sleep(0.01)
                stats = sharded.stats()
                assert stats.workers_live == 2
                assert stats.workers_restarted == 1
        finally:
            sharded.stop(timeout=5.0)


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def test_unit_state_machine(self):
        breaker = CircuitBreaker(0, failure_threshold=3, cooldown=0.01,
                                 max_cooldown=0.02, seed=1)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(ShardUnavailableError) as excinfo:
            breaker.acquire()
        assert excinfo.value.retry_after > 0
        assert excinfo.value.to_payload()["reason"] == "breaker_open"
        time.sleep(0.03)
        assert breaker.state == "half_open"
        breaker.acquire()  # the single probe is admitted
        with pytest.raises(ShardUnavailableError):
            breaker.acquire()  # a second concurrent probe is not
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.acquire()

    def test_failed_probe_reopens_with_longer_cooldown(self):
        breaker = CircuitBreaker(0, failure_threshold=1, cooldown=0.01,
                                 max_cooldown=10.0, seed=1)
        breaker.record_failure()
        assert breaker.state == "open"
        time.sleep(0.02)
        breaker.acquire()  # probe
        breaker.record_failure()  # probe failed
        assert breaker.state == "open"
        assert breaker.opens == 2

    def test_consecutive_shard_failures_fail_fast_then_recover(self):
        breaker = CircuitBreaker(0, failure_threshold=3, cooldown=0.05,
                                 max_cooldown=0.05, seed=1)
        shard = _shard(breaker=breaker)
        try:
            def boom():
                raise RuntimeError("internal bug")

            for _ in range(3):
                with pytest.raises(RuntimeError):
                    shard.call(boom)
            with pytest.raises(ShardUnavailableError) as excinfo:
                shard.call(lambda: "nope")
            assert excinfo.value.retry_after is not None
            assert shard.breaker.rejected_fast == 1
            assert shard.stats().breaker["state"] == "open"
            time.sleep(0.06)  # cooldown (jitter keeps it <= 0.05)
            assert shard.call(lambda: "probe ok") == "probe ok"
            assert shard.breaker.state == "closed"
            assert shard.stats().breaker["opens"] == 1
        finally:
            shard.stop(timeout=5.0)

    def test_request_errors_do_not_trip_the_breaker(self, engine):
        sharded = ShardedExplanationService(
            num_shards=1, workers_per_shard=1, engine=engine,
            breaker_failure_threshold=2, watchdog_interval=None)
        try:
            from repro.errors import RequestError

            for _ in range(4):
                with pytest.raises(RequestError):
                    sharded.ask("gibberish that parses to nothing")
            # Client errors are the client's fault; the shard stays open
            # for business.
            assert sharded.shards[0].breaker.state == "closed"
            assert sharded.ask(QUESTION, persona="paper").explanation.text
        finally:
            sharded.stop(timeout=5.0)


# ---------------------------------------------------------------------------
# Graceful drain and the submit/stop race
# ---------------------------------------------------------------------------
class TestGracefulDrain:
    def test_bounded_stop_cancels_overdue_queued_work(self):
        shard = _shard(queue_size=8)
        release, blocked = _occupy(shard)
        queued = [shard.submit(lambda i=i: i) for i in range(3)]
        stopper = threading.Thread(target=lambda: shard.stop(timeout=0.1),
                                   daemon=True)
        stopper.start()
        for future in queued:
            with pytest.raises(ServiceDrainingError) as excinfo:
                future.result(timeout=30)
            assert excinfo.value.to_payload()["reason"] == "draining"
        assert shard.cancelled == 3
        release.set()
        assert blocked.result(timeout=30) == "occupied"
        stopper.join(timeout=30)
        assert not stopper.is_alive()

    def test_unbounded_stop_drains_everything(self):
        shard = _shard(queue_size=8)
        results = [shard.submit(lambda i=i: i * 2) for i in range(5)]
        shard.stop()
        assert [f.result(timeout=1) for f in results] == [0, 2, 4, 6, 8]
        assert shard.cancelled == 0

    def test_stop_is_idempotent_and_concurrent_safe(self):
        shard = _shard()
        shard.stop(timeout=1.0)
        shard.stop(timeout=1.0)  # second stop: immediate no-op
        errors = []

        def stopper():
            try:
                shard.stop(timeout=1.0)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=stopper) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors

    def test_submit_racing_stop_gets_typed_error_never_hangs(self):
        shard = _shard(workers=2, queue_size=16)
        futures = []
        outcomes = []
        stop_barrier = threading.Barrier(5)

        def hammer():
            stop_barrier.wait()
            for _ in range(200):
                try:
                    futures.append(shard.submit(lambda: time.sleep(0.0005)))
                except (ServiceDrainingError, UnavailableError):
                    outcomes.append("rejected")
                    return

        def stopper():
            stop_barrier.wait()
            time.sleep(0.01)
            shard.stop(timeout=0.5)

        threads = [threading.Thread(target=hammer, daemon=True) for _ in range(4)]
        threads.append(threading.Thread(target=stopper, daemon=True))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        # Every accepted future resolves — served, cancelled, or expired —
        # within a bound.  Nothing waits forever on a stopped shard.
        for future in futures:
            try:
                future.result(timeout=10)
            except (ServiceDrainingError, DeadlineExceededError):
                pass

    def test_submit_after_stop_is_rejected(self):
        shard = _shard()
        shard.stop()
        with pytest.raises(ServiceDrainingError):
            shard.submit(lambda: None)
        with pytest.raises(ServiceDrainingError):
            shard.call(lambda: None)

    def test_fleet_stop_is_idempotent(self, engine):
        sharded = ShardedExplanationService(
            num_shards=2, workers_per_shard=1, engine=engine,
            watchdog_interval=None)
        assert sharded.ask(QUESTION, persona="paper").explanation.text
        sharded.stop(timeout=5.0)
        assert sharded.draining
        sharded.stop(timeout=5.0)
        with pytest.raises(ServiceDrainingError):
            sharded.ask(QUESTION, persona="paper")


# ---------------------------------------------------------------------------
# Internal retry: idempotent asks only
# ---------------------------------------------------------------------------
class TestRetry:
    def test_transient_ask_failures_are_retried(self, engine):
        sharded = ShardedExplanationService(
            num_shards=1, workers_per_shard=1, engine=engine,
            retry_attempts=2, retry_backoff=0.005, watchdog_interval=None)
        try:
            calls = []
            real_explain = sharded.shards[0].service.explain

            def flaky_explain(request):
                calls.append(request)
                if len(calls) == 1:
                    raise TransientServingError("simulated hiccup")
                return real_explain(request)

            sharded.shards[0].service.explain = flaky_explain
            response = sharded.ask(QUESTION, persona="paper")
            assert response.explanation.text
            assert len(calls) == 2
        finally:
            sharded.stop(timeout=5.0)

    def test_exhausted_retries_surface_the_transient(self, engine):
        sharded = ShardedExplanationService(
            num_shards=1, workers_per_shard=1, engine=engine,
            retry_attempts=1, retry_backoff=0.005, watchdog_interval=None,
            breaker_failure_threshold=100)
        try:
            calls = []

            def always_down(request):
                calls.append(request)
                raise TransientServingError("still down")

            sharded.shards[0].service.explain = always_down
            with pytest.raises(TransientServingError):
                sharded.ask(QUESTION, persona="paper")
            assert len(calls) == 2  # the original attempt + one retry
        finally:
            sharded.stop(timeout=5.0)

    def test_updates_are_never_retried(self, engine):
        sharded = ShardedExplanationService(
            num_shards=1, workers_per_shard=1, engine=engine,
            retry_attempts=3, watchdog_interval=None)
        try:
            calls = []

            def failing_update(*args, **kwargs):
                calls.append(args)
                raise TransientServingError("mid-update fault")

            sharded.shards[0].service.update_scenario = failing_update
            with pytest.raises(TransientServingError):
                sharded.update_scenario(QUESTION, persona="paper",
                                        likes=("Sushi",))
            assert len(calls) == 1  # not idempotent: exactly one attempt
        finally:
            sharded.stop(timeout=5.0)

    def test_injected_query_fault_recovers_transparently(self, engine):
        sharded = ShardedExplanationService(
            num_shards=1, workers_per_shard=1, engine=engine,
            retry_attempts=2, retry_backoff=0.005, watchdog_interval=None)
        try:
            with injected(FaultInjector(
                    [Fault(site="query", action="error", at=(0,))])) as injector:
                response = sharded.ask(QUESTION, persona="paper")
                assert response.explanation.text
                assert injector.fired == [("query", "error", 0)]
        finally:
            sharded.stop(timeout=5.0)


# ---------------------------------------------------------------------------
# HTTP transport taxonomy
# ---------------------------------------------------------------------------
def _request(url, path, payload=None, timeout=60):
    """(status, decoded JSON body, headers); errors are not raised."""
    if payload is None:
        request = urllib.request.Request(url + path)
    else:
        request = urllib.request.Request(
            url + path, data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


class TestHTTPFaultTaxonomy:
    @pytest.fixture()
    def server(self, engine):
        sharded = ShardedExplanationService(
            num_shards=1, workers_per_shard=1, queue_size=1, engine=engine,
            watchdog_interval=None)
        server = ExplanationServer(sharded, port=0).start()
        yield server
        server.stop(timeout=5.0)

    def test_503_carries_retry_after_and_reason(self, server):
        sharded = server.service
        sharded.ask(QUESTION, persona="paper")  # warm first
        release, blocked = _occupy(sharded.shards[0])
        filler = sharded.shards[0].submit(lambda: None)
        status, body, headers = _request(
            server.url, "/ask", {"question": QUESTION, "persona": "paper"})
        assert status == 503
        assert body["reason"] == "backpressure"
        assert body["retryable"] is True
        assert body["retry_after"] is not None
        assert int(headers["Retry-After"]) >= 1
        release.set()
        blocked.result(timeout=30)
        filler.result(timeout=30)

    def test_deadline_miss_is_a_504(self, server):
        sharded = server.service
        sharded.ask(QUESTION, persona="paper")  # warm first
        release, blocked = _occupy(sharded.shards[0])
        status, body, _ = _request(
            server.url, "/ask",
            {"question": QUESTION, "persona": "paper", "timeout": 0.1})
        assert status == 504
        assert body["error"] == "deadline_exceeded"
        assert body["retryable"] is True
        release.set()
        blocked.result(timeout=30)
        status, body, _ = _request(
            server.url, "/ask", {"question": QUESTION, "persona": "paper"})
        assert status == 200 and body["text"]

    def test_bad_timeout_is_a_400(self, server):
        for bad in ("soon", -1, 0, float("nan"), float("inf")):
            status, body, _ = _request(
                server.url, "/ask",
                {"question": QUESTION, "persona": "paper", "timeout": bad})
            assert status == 400
            assert "timeout" in body["message"]

    def test_draining_server_rejects_new_work_with_503(self, engine):
        sharded = ShardedExplanationService(
            num_shards=1, workers_per_shard=1, queue_size=4, engine=engine,
            watchdog_interval=None)
        server = ExplanationServer(sharded, port=0).start()
        sharded.ask(QUESTION, persona="paper")  # warm first
        release, blocked = _occupy(sharded.shards[0])
        stopper = threading.Thread(target=lambda: server.stop(timeout=10.0),
                                   daemon=True)
        stopper.start()
        deadline = time.monotonic() + 5.0
        while not sharded.draining and time.monotonic() < deadline:
            time.sleep(0.005)
        status, body, headers = _request(
            server.url, "/ask", {"question": QUESTION, "persona": "paper"})
        assert status == 503
        assert body["reason"] == "draining"
        assert "Retry-After" in headers
        release.set()
        blocked.result(timeout=30)
        stopper.join(timeout=30)
        assert not stopper.is_alive()


# ---------------------------------------------------------------------------
# Worker-crash recovery stress (satellite)
# ---------------------------------------------------------------------------
class TestCrashRecoveryStress:
    def test_random_worker_kills_lose_nothing(self, engine):
        """Seeded random kills mid-burst: the watchdog restores capacity,
        no request is lost or answered wrongly, and the counters reconcile."""
        personas = ("paper", "vegan_athlete", "diabetic_user")
        baseline = {}
        oracle = ExplanationService(engine=engine)
        for persona_key in personas:
            baseline[persona_key] = oracle.ask(
                QUESTION, persona=persona_key).explanation.text

        sharded = ShardedExplanationService(
            num_shards=2, workers_per_shard=2, queue_size=32, engine=engine,
            watchdog_interval=0.02, retry_attempts=3, retry_backoff=0.005,
            breaker_failure_threshold=1000)
        clients, per_client = 6, 10
        try:
            with injected(FaultInjector(
                    [Fault(site="worker", action="crash", prob=0.08)],
                    seed=42)) as injector:
                answers = []
                failures = []

                def client(worker_id):
                    for i in range(per_client):
                        persona_key = personas[(worker_id + i) % len(personas)]
                        try:
                            response = sharded.ask(QUESTION, persona=persona_key)
                            answers.append((persona_key,
                                            response.explanation.text))
                        except Exception as exc:  # noqa: BLE001 - asserted empty
                            failures.append(exc)

                threads = [threading.Thread(target=client, args=(n,), daemon=True)
                           for n in range(clients)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()

                assert not failures
                assert len(answers) == clients * per_client
                # Differential correctness: every answer matches the
                # fault-free oracle for its persona.
                for persona_key, text in answers:
                    assert text == baseline[persona_key]

                crashes = len(injector.fired_at("worker"))
                # The schedule must actually have fired, or this test is
                # vacuous.
                assert crashes > 0

                # The watchdog restores full capacity and accounts for
                # every kill.
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    stats = sharded.stats()
                    if (stats.workers_live == 4
                            and stats.workers_restarted == crashes):
                        break
                    time.sleep(0.02)
                stats = sharded.stats()
                assert stats.workers_live == 4
                assert stats.workers_restarted == crashes
                # Counters reconcile: every ask executed exactly once
                # (kills fire before execution, so salvage + retry never
                # double-serve).
                assert stats.requests_served == clients * per_client
        finally:
            sharded.stop(timeout=10.0)
