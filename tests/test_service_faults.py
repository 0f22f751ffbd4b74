"""Chaos battery for the fault-tolerance layer.

Exercises the serving stack's failure model with the deterministic fault
injector (:mod:`repro.testing.faults`):

* **inline admission** — shard work runs on the caller's thread, no
  thread is started, and waiters take freed slots in arrival order;
* **deadlines** — a caller's wait for a slot is bounded by its timeout,
  expiry is a typed :class:`DeadlineExceededError`, expired waiters are
  skipped before execution, late work raises when it finishes, and every
  miss is counted;
* **circuit breaker** — consecutive failures open it, callers then fail
  fast with :class:`ShardUnavailableError` + ``retry_after``, a
  half-open probe closes it again (or re-opens it on failure);
* **graceful drain** — ``stop(timeout=...)`` cancels overdue waiters
  with :class:`ServiceDrainingError`, is idempotent, and a submit racing
  a stop gets a typed error instead of hanging forever;
* **retry** — idempotent asks retry transparently on
  :class:`TransientServingError`; updates never do;
* **HTTP taxonomy** — 503s carry ``Retry-After`` + a machine-readable
  ``reason``, deadline misses are 504s, and a draining server rejects
  new work with 503 while in-flight requests finish.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import Future

import pytest

from repro.errors import (
    DeadlineExceededError,
    ServiceDrainingError,
    ShardUnavailableError,
    TransientServingError,
    UnavailableError,
)
from repro.service import (
    BackpressureError,
    CircuitBreaker,
    ExplanationServer,
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
    return ServiceShard(0, _StubService(), **kwargs)


def _in_thread(call) -> Future:
    """Run ``call()`` on a helper thread; the future resolves with its outcome."""
    future: Future = Future()

    def run():
        try:
            future.set_result(call())
        except BaseException as exc:  # noqa: BLE001 - relayed via the future
            future.set_exception(exc)

    threading.Thread(target=run, daemon=True).start()
    return future


def _wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


def _occupy(shard):
    """Hold the shard's (single) slot from a helper thread; (release, future)."""
    release = threading.Event()
    running = threading.Event()

    def block():
        running.set()
        assert release.wait(timeout=30)
        return "occupied"

    future = _in_thread(lambda: shard.submit(block))
    assert running.wait(timeout=30)
    return release, future


def _queue(shard, fn, *args, **kwargs) -> Future:
    """Submit from a helper thread and wait until the call is queued."""
    depth = shard.queue_depth()
    future = _in_thread(lambda: shard.submit(fn, *args, **kwargs))
    _wait_for(lambda: shard.queue_depth() > depth)
    return future


# ---------------------------------------------------------------------------
# Fault injector semantics
# ---------------------------------------------------------------------------
class TestFaultInjector:
    def test_disabled_by_default(self):
        assert faults.ACTIVE is None

    def test_spec_grammar(self):
        injector = FaultInjector.from_spec(
            "snapshot_write=error@3,9; query=latency@every=4:10; "
            "materialize=latency@p=0.5:25", seed=7)
        by_site = {fault.site: fault for fault in injector.faults}
        assert by_site["snapshot_write"].action == "error"
        assert by_site["snapshot_write"].at == (3, 9)
        assert by_site["query"].every == 4
        assert by_site["query"].delay_ms == 10.0
        assert by_site["materialize"].prob == 0.5
        assert by_site["materialize"].delay_ms == 25.0
        for bad in ("query", "query=error", "query=boom@1", "q=error@x",
                    "query=crash@1"):
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
        release, blocked = _occupy(shard)
        started = time.monotonic()
        with pytest.raises(DeadlineExceededError) as excinfo:
            shard.submit(lambda: "late", timeout=0.1)
        assert time.monotonic() - started < 5.0
        assert excinfo.value.timeout == 0.1
        assert excinfo.value.shard == 0
        assert excinfo.value.to_payload()["error"] == "deadline_exceeded"
        assert shard.timed_out == 1
        assert shard.queue_depth() == 0
        release.set()
        assert blocked.result(timeout=30) == "occupied"

    def test_expired_queued_work_is_skipped_not_executed(self):
        shard = _shard()
        release, blocked = _occupy(shard)
        executed = threading.Event()
        stale = _queue(shard, executed.set, timeout=0.05)
        with pytest.raises(DeadlineExceededError):
            stale.result(timeout=30)
        release.set()
        assert blocked.result(timeout=30) == "occupied"
        assert not executed.is_set()
        assert shard.timed_out == 1
        assert shard.breaker.timeouts == 1

    def test_late_work_raises_when_it_finishes_and_keeps_its_effects(self):
        shard = _shard()
        effects = []

        def slow():
            time.sleep(0.1)
            effects.append("cached")
            return "late"

        with pytest.raises(DeadlineExceededError):
            shard.submit(slow, timeout=0.02)
        assert effects == ["cached"]
        assert shard.timed_out == 1
        assert shard.breaker.timeouts == 1
        assert shard.submit(lambda: "next") == "next"

    def test_timeout_counters_surface_in_stats(self):
        shard = _shard()
        release, blocked = _occupy(shard)
        with pytest.raises(DeadlineExceededError):
            shard.submit(lambda: None, timeout=0.05)
        release.set()
        blocked.result(timeout=30)
        stats = shard.stats()
        assert stats.requests_timed_out == 1
        assert "requests timed out:     1" in stats.to_text()


# ---------------------------------------------------------------------------
# Inline admission: the caller's thread does the work
# ---------------------------------------------------------------------------
class TestInlineAdmission:
    def test_fn_runs_on_the_callers_thread(self):
        shard = _shard()
        assert shard.submit(threading.get_ident) == threading.get_ident()

    def test_fleet_starts_no_threads(self, engine):
        before = threading.active_count()
        sharded = ShardedExplanationService(
            num_shards=4, workers_per_shard=2, engine=engine)
        try:
            assert sharded.ask(QUESTION, persona="paper").explanation.text
            assert threading.active_count() == before
        finally:
            sharded.stop(timeout=5.0)

    def test_waiters_take_freed_slots_in_arrival_order(self):
        shard = _shard(workers=1)
        release, blocked = _occupy(shard)
        order = []
        waiters = [_queue(shard, order.append, n) for n in range(3)]
        assert shard.queue_depth() == 3
        release.set()
        for waiter in waiters:
            waiter.result(timeout=30)
        assert blocked.result(timeout=30) == "occupied"
        assert order == [0, 1, 2]
        assert shard.queue_depth() == 0

    def test_gate_bounds_concurrency_under_contention(self):
        """More callers than cores, a tiny switch interval: the gate never
        admits more than ``workers`` at once and loses no slot."""
        shard = _shard(workers=2, queue_size=64)
        lock = threading.Lock()
        active, peak, served = [0], [0], []

        def work(n):
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            time.sleep(0)
            with lock:
                active[0] -= 1
                served.append(n)

        def caller(slot):
            for n in range(50):
                shard.submit(work, (slot, n))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(slot,), daemon=True)
                       for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(served) == len(set(served)) == 8 * 50
        assert 1 <= peak[0] <= 2
        # Every slot came back and no waiter was left behind.
        assert (shard._running, shard.queue_depth(), shard.rejected) == (0, 0, 0)

    def test_full_queue_sheds_the_next_caller(self):
        shard = _shard(workers=1, queue_size=1)
        release, blocked = _occupy(shard)
        queued = _queue(shard, lambda: "queued")
        with pytest.raises(BackpressureError) as excinfo:
            shard.submit(lambda: "shed")
        assert (excinfo.value.shard, excinfo.value.queue_depth,
                excinfo.value.limit) == (0, 1, 1)
        assert shard.rejected == 1
        release.set()
        assert queued.result(timeout=30) == "queued"
        assert blocked.result(timeout=30) == "occupied"


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

        def boom():
            raise RuntimeError("internal bug")

        for _ in range(3):
            with pytest.raises(RuntimeError):
                shard.submit(boom)
        with pytest.raises(ShardUnavailableError) as excinfo:
            shard.submit(lambda: "nope")
        assert excinfo.value.retry_after is not None
        assert shard.breaker.rejected_fast == 1
        assert shard.stats().breaker["state"] == "open"
        time.sleep(0.06)  # cooldown (jitter keeps it <= 0.05)
        assert shard.submit(lambda: "probe ok") == "probe ok"
        assert shard.breaker.state == "closed"
        assert shard.stats().breaker["opens"] == 1

    def test_request_errors_do_not_trip_the_breaker(self, engine):
        sharded = ShardedExplanationService(
            num_shards=1, workers_per_shard=1, engine=engine,
            breaker_failure_threshold=2)
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
        queued = [_queue(shard, lambda i=i: i) for i in range(3)]
        stopper = threading.Thread(target=lambda: shard.stop(timeout=0.1),
                                   daemon=True)
        stopper.start()
        for future in queued:
            with pytest.raises(ServiceDrainingError) as excinfo:
                future.result(timeout=30)
            assert excinfo.value.to_payload()["reason"] == "draining"
        assert shard.cancelled == 3
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        release.set()
        assert blocked.result(timeout=30) == "occupied"

    def test_unbounded_stop_drains_everything(self):
        shard = _shard(queue_size=8)
        release, blocked = _occupy(shard)
        results = [_queue(shard, lambda i=i: i * 2) for i in range(5)]
        stopper = threading.Thread(target=shard.stop, daemon=True)
        stopper.start()
        _wait_for(lambda: shard._stopping)
        release.set()
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        assert blocked.result(timeout=1) == "occupied"
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
        outcomes = []
        stop_barrier = threading.Barrier(5)

        def hammer():
            stop_barrier.wait()
            for _ in range(200):
                try:
                    shard.submit(lambda: time.sleep(0.0005))
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
        # Every caller returns within a bound, and each hammer's next
        # submit after the stop began got the typed rejection: nothing
        # waits forever on a stopped shard.
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert outcomes == ["rejected"] * 4

    def test_submit_after_stop_is_rejected(self):
        shard = _shard()
        shard.stop()
        with pytest.raises(ServiceDrainingError):
            shard.submit(lambda: None)

    def test_fleet_stop_is_idempotent(self, engine):
        sharded = ShardedExplanationService(
            num_shards=2, workers_per_shard=1, engine=engine)
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
            retry_attempts=2, retry_backoff=0.005)
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
            retry_attempts=1, retry_backoff=0.005,
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
            retry_attempts=3)
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
            retry_attempts=2, retry_backoff=0.005)
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
            num_shards=1, workers_per_shard=1, queue_size=1, engine=engine)
        server = ExplanationServer(sharded, port=0).start()
        yield server
        server.stop(timeout=5.0)

    def test_503_carries_retry_after_and_reason(self, server):
        sharded = server.service
        sharded.ask(QUESTION, persona="paper")  # warm first
        release, blocked = _occupy(sharded.shards[0])
        filler = _queue(sharded.shards[0], lambda: None)
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
            num_shards=1, workers_per_shard=1, queue_size=4, engine=engine)
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
