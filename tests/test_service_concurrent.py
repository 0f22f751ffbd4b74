"""Concurrency battery for the multi-tenant serving layer.

Covers the serving-layer guarantees the sharded architecture makes:

* **snapshot isolation** — N reader threads racing one writer per session
  only ever observe *complete* scenario closures (each read's content
  fingerprint matches one of the states a serial replay of the same
  update sequence produces — no torn snapshots), post-update reads see
  the delta, and reads never wait on the update lock;
* **differential correctness** — a concurrent mixed ask/update trace
  through :class:`ShardedExplanationService` is response-for-response
  equal to a serial replay of the same trace on a plain
  :class:`ExplanationService` (the serial oracle);
* **load shedding** — a shard's admission gate surfaces the typed
  :class:`BackpressureError` (with counters), not a 500 or a traceback,
  through both ``ShardedExplanationService.ask`` and the HTTP API;
* **session lifecycle** — idle sessions are evicted (TTL and LRU cap)
  and persona-addressed sessions rebuild transparently afterwards.

The reader-thread count scales with ``REPRO_TEST_WORKERS`` (CI runs a
2/8 matrix).
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import Future
from dataclasses import replace

import pytest

from repro.core.engine import ExplanationEngine
from repro.owl import MaterializationCache, Reasoner
from repro.rdf.graph import FrozenGraphError, Graph
from repro.rdf.terms import IRI
from repro.service import (
    BackpressureError,
    ExplanationRequest,
    ExplanationServer,
    ExplanationService,
    ShardedExplanationService,
)
from repro.users.personas import paper_context, paper_user, persona
from repro.users.sessions import SessionRegistry
from test_generator_determinism import PAPER_QUESTIONS

#: Reader/worker thread count for the race tests (CI matrix: 2 and 8).
WORKERS = max(2, int(os.environ.get("REPRO_TEST_WORKERS", "4")))

QUESTION = "Why should I eat Cauliflower Potato Curry?"

#: One writer's update sequence; each step changes the scenario closure, so
#: the five states (base + four updates) have five distinct fingerprints.
UPDATES = (
    dict(allergies=("dairy",)),
    dict(conditions=("diabetes",)),
    dict(likes=("Spinach",)),
    dict(goals=("high_fiber",)),
)


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


def _fill_shard(shard):
    """Hold a one-slot, one-waiter shard full from helper threads.

    Returns ``(release, running_future, queued_future)``; ``queued_future``
    resolves to ``"queued"`` once the slot is released.
    """
    release = threading.Event()
    running = threading.Event()

    def occupy():
        running.set()
        assert release.wait(timeout=30)

    running_future = _in_thread(lambda: shard.submit(occupy))
    assert running.wait(timeout=30)
    queued_future = _in_thread(lambda: shard.submit(lambda: "queued"))
    deadline = time.monotonic() + 30
    while shard.queue_depth() < 1:
        assert time.monotonic() < deadline, "the waiter never queued"
        time.sleep(0.002)
    return release, running_future, queued_future


def _run_threads(targets, timeout=60.0):
    """Start one thread per target callable and join them all."""
    threads = [threading.Thread(target=target, daemon=True) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
        assert not thread.is_alive(), "worker thread did not finish in time"


# ---------------------------------------------------------------------------
# Snapshot-isolated reads
# ---------------------------------------------------------------------------
class TestSnapshotIsolation:
    def _serial_state_fingerprints(self, engine):
        """The oracle: fingerprints of every profile-prefix closure, serially."""
        oracle = ExplanationService(engine=engine)
        session = oracle.open_persona_session("paper")
        states = [oracle.ask(QUESTION, session_id=session.session_id)
                  .scenario.inferred.fingerprint()]
        for update in UPDATES:
            states.append(oracle.update_scenario(
                QUESTION, session_id=session.session_id, **update)
                .inferred.fingerprint())
        return states

    def test_readers_racing_one_writer_observe_no_torn_snapshots(self, engine):
        expected = self._serial_state_fingerprints(engine)
        assert len(set(expected)) == len(expected), \
            "oracle states must be distinguishable for the race to be checkable"

        service = ExplanationService(engine=engine)
        session = service.open_persona_session("paper")
        service.ask(QUESTION, session_id=session.session_id)  # prime state 0

        observed = [[] for _ in range(WORKERS)]
        errors = []
        stop = threading.Event()

        def reader(slot):
            try:
                while not stop.is_set():
                    response = service.ask(QUESTION, session_id=session.session_id)
                    observed[slot].append(response.scenario.inferred.fingerprint())
            except Exception as exc:  # pragma: no cover - surfaced via assert
                errors.append(exc)

        def writer():
            try:
                for update in UPDATES:
                    service.update_scenario(QUESTION, session_id=session.session_id,
                                            **update)
                    time.sleep(0.02)  # let readers sample this state
            except Exception as exc:  # pragma: no cover - surfaced via assert
                errors.append(exc)
            finally:
                stop.set()

        _run_threads([lambda slot=s: reader(slot) for s in range(WORKERS)] + [writer])

        assert not errors, f"concurrent requests failed: {errors[:3]}"
        valid = set(expected)
        total_reads = 0
        for sequence in observed:
            total_reads += len(sequence)
            # Every read saw a complete closure from the serial state space —
            # never a half-applied update.
            assert set(sequence) <= valid, "a read observed a torn snapshot"
            # A session's profile only advances, so each reader's view moves
            # monotonically through the state sequence.
            indices = [expected.index(fingerprint) for fingerprint in sequence]
            assert indices == sorted(indices), \
                "a reader travelled backwards through the update sequence"
        assert total_reads > 0, "readers never ran"

        # Post-update reads see the delta: after the writer finished, the
        # next read serves exactly the final state.
        final = service.ask(QUESTION, session_id=session.session_id)
        assert final.scenario.inferred.fingerprint() == expected[-1]

    def test_reads_proceed_while_the_update_lock_is_held(self, engine):
        """ask() must never wait on the update path's lock."""
        service = ExplanationService(engine=engine)
        session = service.open_persona_session("paper")
        service.ask(QUESTION, session_id=session.session_id)

        results = []
        with service._update_lock:  # an update is "in flight"
            thread = threading.Thread(
                target=lambda: results.append(
                    service.ask(QUESTION, session_id=session.session_id)),
                daemon=True)
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive(), "read blocked behind the update lock"
        assert results and results[0].explanation.text

    def test_snapshot_is_isolated_from_later_cache_state(self, engine):
        """The scenario handed back with a response is frozen: later updates
        do not reach it, and it cannot write into the service's caches."""
        service = ExplanationService(engine=engine)
        session = service.open_persona_session("paper")
        before = service.ask(QUESTION, session_id=session.session_id)
        fingerprint = before.scenario.inferred.fingerprint()
        service.update_scenario(QUESTION, session_id=session.session_id,
                                likes=("Sushi",))
        # The held snapshot is unaffected by the update, and mutating it
        # cannot leak back into the service's caches.
        assert before.scenario.inferred.fingerprint() == fingerprint
        with pytest.raises(FrozenGraphError):
            before.scenario.inferred.add(
                (before.scenario.user_iri, before.scenario.question_iri,
                 before.scenario.user_iri))
        # The paper persona already likes Sushi, so the next ask answers
        # from the same cached closure, unchanged by the refused write.
        after = service.ask(QUESTION, session_id=session.session_id)
        assert after.scenario.inferred is before.scenario.inferred
        assert after.scenario.inferred.fingerprint() == fingerprint


# ---------------------------------------------------------------------------
# Concurrent trace == serial replay (the differential oracle)
# ---------------------------------------------------------------------------
class TestShardedDifferential:
    N_SESSIONS = 8

    def _trace(self):
        """A mixed per-session op list over distinct tenant profiles."""
        base_user, context = paper_user(), paper_context()
        trace = []
        for index in range(self.N_SESSIONS):
            user = replace(base_user, identifier=f"tenant-{index}",
                           name=f"Tenant {index}")
            ops = [("ask", None)]
            if index % 2 == 0:
                ops.append(("update", {"likes": (f"Custom Delicacy {index}",)}))
                ops.append(("ask", None))
            ops.append(("ask", None))
            trace.append((user, context, ops))
        return trace

    @staticmethod
    def _signature(response):
        return (response.explanation.text,
                response.scenario.inferred.fingerprint())

    def _drive(self, ask, update, user, context, ops, sink, key):
        session = None
        for op_index, (op, payload) in enumerate(ops):
            if op == "ask":
                response = ask(user, context, key)
                sink[(key, op_index)] = self._signature(response)
            else:
                update(user, context, key, payload)
        return session

    def test_concurrent_mixed_trace_equals_serial_replay(self, engine):
        trace = self._trace()

        # -- concurrent run through the sharded service ------------------
        sharded = ShardedExplanationService(
            num_shards=3, workers_per_shard=max(1, WORKERS // 2), engine=engine)
        sessions = {}
        for index, (user, context, _) in enumerate(trace):
            sessions[index] = sharded.open_session(user, context).session_id
        concurrent_results = {}
        errors = []

        def client(chunk):
            try:
                for index, (user, context, ops) in chunk:
                    self._drive(
                        lambda u, c, key: sharded.ask(
                            QUESTION, session_id=sessions[key]),
                        lambda u, c, key, payload: sharded.update_scenario(
                            QUESTION, session_id=sessions[key], **payload),
                        user, context, ops, concurrent_results, index)
            except Exception as exc:  # pragma: no cover - surfaced via assert
                errors.append(exc)

        indexed = list(enumerate(trace))
        chunks = [indexed[i::WORKERS] for i in range(WORKERS)]
        _run_threads([lambda c=chunk: client(c) for chunk in chunks if chunk],
                     timeout=300.0)
        sharded.stop()
        assert not errors, f"concurrent trace failed: {errors[:3]}"

        # -- serial replay on a plain single-threaded service ------------
        serial = ExplanationService(engine=engine)
        serial_results = {}
        for index, (user, context, ops) in enumerate(trace):
            session = serial.open_session(user, context)
            self._drive(
                lambda u, c, key: serial.ask(QUESTION, session_id=session.session_id),
                lambda u, c, key, payload: serial.update_scenario(
                    QUESTION, session_id=session.session_id, **payload),
                user, context, ops, serial_results, index)

        assert concurrent_results.keys() == serial_results.keys()
        for key in serial_results:
            assert concurrent_results[key] == serial_results[key], \
                f"concurrent response diverged from serial replay at {key}"

    def test_sessions_route_stably_to_their_home_shard(self, engine):
        sharded = ShardedExplanationService(num_shards=4, engine=engine)
        session = sharded.open_persona_session("paper")
        home = sharded.shard_for_session(session.session_id)
        assert session.session_id in home.service.registry
        # The same persona always lands on the same shard.
        again = sharded.open_persona_session("paper")
        assert sharded.shard_for_session(again.session_id) is home
        # Every mint is parseable and in range.
        for key in ("pregnant_user", "paper"):
            sid = sharded.open_persona_session(key).session_id
            assert sharded.shard_for_session(sid).index < sharded.num_shards


# ---------------------------------------------------------------------------
# Load shedding (bounded queues + admission control)
# ---------------------------------------------------------------------------
class TestLoadShedding:
    def test_shard_queue_rejection_carries_shard_context(self, engine):
        sharded = ShardedExplanationService(
            num_shards=1, workers_per_shard=1, queue_size=1, engine=engine)
        try:
            release, worker_future, queued_future = _fill_shard(sharded.shards[0])
            with pytest.raises(BackpressureError) as excinfo:
                sharded.ask(QUESTION, persona="paper")
            assert excinfo.value.shard == 0
            assert excinfo.value.scope == "shard"
            assert excinfo.value.queue_depth == 1
            release.set()
            worker_future.result(timeout=30)
            assert queued_future.result(timeout=30) == "queued"
            stats = sharded.stats()
            assert stats.requests_rejected == 1
            assert "requests rejected:      1" in stats.to_text()
            assert [s.queue_depth for s in stats.per_shard] == [0]
            # Back to normal service after the burst drained.
            assert sharded.ask(QUESTION, persona="paper").explanation.text
        finally:
            sharded.stop()


# ---------------------------------------------------------------------------
# HTTP API (transport-level behaviour of the same guarantees)
# ---------------------------------------------------------------------------
def _request(url, path, payload=None):
    """(status, decoded JSON body) for one request; errors are not raised."""
    if payload is None:
        request = urllib.request.Request(url + path)
    else:
        request = urllib.request.Request(
            url + path, data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class _SendCounter:
    """A handler connection that records the size of every send on it."""

    def __init__(self, connection, sends):
        self._connection = connection
        self._sends = sends

    def send(self, data, *args):
        self._sends.append(len(data))
        return self._connection.send(data, *args)

    def sendall(self, data, *args):
        self._sends.append(len(data))
        return self._connection.sendall(data, *args)

    def __getattr__(self, name):
        return getattr(self._connection, name)


class TestHTTPServer:
    @pytest.fixture()
    def server(self, engine):
        sharded = ShardedExplanationService(
            num_shards=1, workers_per_shard=1, queue_size=1, engine=engine)
        server = ExplanationServer(sharded, port=0).start()
        yield server
        server.stop()

    @pytest.fixture()
    def sends(self, server):
        """Every socket send the server makes, recorded from here on."""
        recorded = []
        handler = server._httpd.RequestHandlerClass

        def setup(self):
            self.request = _SendCounter(self.request, recorded)
            handler.setup(self)

        server._httpd.RequestHandlerClass = type(
            "CountingHandler", (handler,), {"setup": setup})
        return recorded

    def test_each_response_is_one_socket_write(self, server, sends):
        """Headers and body leave in one send, so Nagle cannot hold the body back."""
        sharded = server.service
        connection = http.client.HTTPConnection(server.host, server.port, timeout=60)

        def exchange(method, path, body=None):
            before = len(sends)
            connection.request(method, path, body=body)
            response = connection.getresponse()
            payload = json.loads(response.read())
            return response, payload, len(sends) - before

        ask = json.dumps({"question": QUESTION, "persona": "paper"})
        response, payload, count = exchange("POST", "/ask", ask)
        assert (response.status, count) == (200, 1) and payload["text"]
        response, payload, count = exchange("POST", "/ask", "{not json")
        assert (response.status, payload["error"], count) == (400, "bad_request", 1)
        response, payload, count = exchange("GET", "/nope")
        assert (response.status, count) == (404, 1)

        release, worker_future, filler_future = _fill_shard(sharded.shards[0])
        try:
            response, payload, count = exchange("POST", "/ask", ask)
        finally:
            release.set()
            worker_future.result(timeout=30)
            filler_future.result(timeout=30)
        assert (response.status, payload["error"], count) == (503, "backpressure", 1)
        assert response.getheader("Retry-After") == "1"

        response, payload, count = exchange("GET", "/stats")
        assert (response.status, count) == (200, 1)
        # The same keep-alive connection still carries whole responses.
        response, payload, count = exchange("POST", "/ask", ask)
        assert (response.status, count) == (200, 1) and payload["text"]
        connection.close()
        assert server.internal_errors == 0

    @pytest.mark.parametrize("request_bytes,status", [
        (b"PUT /ask HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n\r\n", 501),
        (b"GET /" + b"a" * 65532, 414),
        (b"GET / extra HTTP/1.1\r\n", 400),
        (b"POST /ask HTTP/1.1\r\nHost: localhost\r\nContent-Length: -1\r\n\r\n", 400),
    ], ids=["unsupported-method", "request-line-too-long", "malformed-request-line",
            "negative-content-length"])
    def test_error_response_arrives_whole_before_close(self, server, sends,
                                                       request_bytes, status):
        with socket.create_connection((server.host, server.port), timeout=30) as sock:
            sock.sendall(request_bytes)
            response = http.client.HTTPResponse(sock)
            response.begin()
            body = response.read()
            closed = sock.recv(1) == b""
        assert response.status == status
        assert body and len(body) == int(response.getheader("Content-Length"))
        assert closed
        assert len(sends) == 1
        assert server.internal_errors == 0

    def test_interim_100_continue_is_sent_before_the_body(self, server):
        body = json.dumps({"question": QUESTION, "persona": "paper"}).encode()
        with socket.create_connection((server.host, server.port), timeout=30) as sock:
            sock.sendall(b"POST /ask HTTP/1.1\r\nHost: localhost\r\n"
                         b"Expect: 100-continue\r\n"
                         b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n")
            interim = sock.recv(4096)
            assert interim.startswith(b"HTTP/1.1 100 ")
            sock.sendall(body)
            response = http.client.HTTPResponse(sock)
            response.begin()
            payload = json.loads(response.read())
        assert response.status == 200 and payload["text"]

    def test_ask_sessions_update_and_stats_roundtrip(self, server):
        status, body = _request(server.url, "/healthz")
        assert (status, body["status"]) == (200, "ok")

        status, opened = _request(server.url, "/sessions", {"persona": "paper"})
        assert status == 200 and opened["session_id"].startswith("s0:")

        status, answer = _request(server.url, "/ask", {
            "question": QUESTION, "session_id": opened["session_id"]})
        assert status == 200
        assert answer["explanation_type"] == "contextual"
        assert answer["text"]

        status, updated = _request(server.url, "/update", {
            "question": QUESTION, "session_id": opened["session_id"],
            "likes": ["Sushi"]})
        assert status == 200 and "Sushi" in updated["likes"]

        status, stats = _request(server.url, "/stats")
        assert status == 200
        assert stats["requests_served"] >= 1
        assert stats["scenario_updates"] == 1
        assert len(stats["per_shard"]) == 1

    def test_client_errors_are_400_not_500(self, server):
        status, body = _request(server.url, "/ask", {"question": "gibberish"})
        assert status == 400 and body["error"] == "bad_request"
        status, body = _request(server.url, "/ask", {})
        assert status == 400
        status, body = _request(server.url, "/nope", {})
        assert status == 404
        status, body = _request(server.url, "/ask", {
            "question": QUESTION, "explanation_type": "bogus"})
        assert status == 400 and "bogus" in body["message"]
        # Wrongly typed JSON fields are the client's fault too.
        for path, payload in [
            ("/ask", {"question": 123}),
            ("/ask", {"question": ["x"]}),
            ("/update", {"question": 123}),
            ("/update", {"question": ["x"]}),
            ("/ask", {"question": QUESTION, "persona": []}),
            ("/sessions", {"persona": {"a": 1}}),
            ("/ask", {"question": QUESTION, "session_id": 9}),
            ("/ask", {"question": QUESTION, "explanation_type": 5}),
            ("/update", {"question": QUESTION, "persona": "paper", "likes": [1]}),
            ("/update", {"question": QUESTION, "persona": "paper",
                         "conditions": ["bogus"]}),
        ]:
            status, body = _request(server.url, path, payload)
            assert (status, body["error"]) == (400, "bad_request"), (path, payload)
        assert server.internal_errors == 0

    def test_negative_content_length_is_a_400_without_reading(self, server):
        with socket.create_connection((server.host, server.port), timeout=30) as sock:
            sock.sendall(b"POST /ask HTTP/1.1\r\nHost: localhost\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: -1\r\n\r\n{}")
            status_line = sock.recv(4096).split(b"\r\n", 1)[0]
        assert status_line.split()[1] == b"400"

    def test_deeply_nested_body_is_a_400(self, server):
        body = b"[" * 100000
        with socket.create_connection((server.host, server.port), timeout=30) as sock:
            sock.sendall(b"POST /ask HTTP/1.1\r\nHost: localhost\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: " + str(len(body)).encode() +
                         b"\r\n\r\n" + body)
            response = http.client.HTTPResponse(sock)
            response.begin()
            payload = json.loads(response.read())
        assert (response.status, payload["error"]) == (400, "bad_request")
        assert server.internal_errors == 0

    def test_backpressure_is_a_typed_503_then_recovers(self, server):
        sharded = server.service
        sharded.ask(QUESTION, persona="paper")  # warm all layers first

        release, worker_future, filler_future = _fill_shard(sharded.shards[0])
        status, body = _request(server.url, "/ask",
                                {"question": QUESTION, "persona": "paper"})
        assert status == 503
        assert body["error"] == "backpressure"
        assert body["retryable"] is True
        assert body["shard"] == 0

        release.set()
        worker_future.result(timeout=30)
        filler_future.result(timeout=30)
        status, body = _request(server.url, "/ask",
                                {"question": QUESTION, "persona": "paper"})
        assert status == 200 and body["text"]
        status, stats = _request(server.url, "/stats")
        assert stats["requests_rejected"] == 1


# ---------------------------------------------------------------------------
# Session eviction and transparent rebuild
# ---------------------------------------------------------------------------
class _SteppedClock:
    """A session registry clock that moves only when the test steps it."""

    def __init__(self) -> None:
        self.now = 1_000.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class TestSessionEviction:
    def test_idle_sessions_are_ttl_evicted(self):
        clock = _SteppedClock()
        registry = SessionRegistry(idle_ttl=0.05, clock=clock)
        user, context = persona("paper")
        registry.open(user, context, session_id="idle-1")
        registry.open(user, context, session_id="idle-2")
        assert len(registry) == 2
        clock.sleep(0.12)
        assert registry.evict_idle() == 2
        assert len(registry) == 0
        assert registry.ttl_evictions == 2

    def test_get_stamps_last_active_so_no_idle_session_hides_behind_a_fresher_one(self):
        clock = _SteppedClock()
        registry = SessionRegistry(idle_ttl=0.05, clock=clock)
        user, context = persona("paper")
        registry.open(user, context, session_id="A")
        clock.sleep(0.04)
        registry.open(user, context, session_id="B")
        assert registry.get("A").last_active == clock.now
        clock.sleep(0.04)
        registry.evict_idle()
        # Every session the sweep leaves live was active within the TTL.
        assert all(clock.now - session.last_active <= registry.idle_ttl
                   for session in registry.active())
        clock.sleep(0.02)
        assert registry.evict_idle() == 2

    def test_evicted_persona_session_rebuilds_transparently(self, engine):
        clock = _SteppedClock()
        service = ExplanationService(
            engine=engine, registry=SessionRegistry(idle_ttl=0.05, clock=clock))
        session = service.open_persona_session("paper")
        first = service.ask(QUESTION, session_id=session.session_id)
        clock.sleep(0.12)
        # The session is gone...
        assert service.registry.evict_idle() >= 1
        # ...but the same session id keeps working: the registry rebuilds it
        # from the recorded persona key instead of raising.
        second = service.ask(QUESTION, session_id=session.session_id)
        assert second.explanation.text == first.explanation.text
        assert service.registry.rebuilds == 1
        assert service.stats().session_rebuilds == 1
        rebuilt = service.registry.get(session.session_id)
        assert rebuilt is not session
        assert rebuilt.user == persona("paper")[0]

    def test_rebuild_restarts_from_the_persona_baseline(self, engine):
        """Documented trade-off: incremental profile growth dies with the TTL."""
        clock = _SteppedClock()
        service = ExplanationService(
            engine=engine, registry=SessionRegistry(idle_ttl=0.05, clock=clock))
        session = service.open_persona_session("paper")
        service.ask(QUESTION, session_id=session.session_id)
        service.update_scenario(QUESTION, session_id=session.session_id,
                                likes=("Black Bean Tacos",))
        assert "Black Bean Tacos" in service.registry.get(session.session_id).user.likes
        clock.sleep(0.12)
        service.registry.evict_idle()
        rebuilt = service.registry.get(session.session_id)
        assert "Black Bean Tacos" not in rebuilt.user.likes

    def test_explicit_profile_sessions_stay_evicted(self):
        registry = SessionRegistry(max_sessions=2)
        user, context = persona("paper")
        for n in range(3):
            registry.open(replace(user, identifier=f"u{n}"), context,
                          session_id=f"anon-{n}")
        assert registry.evictions == 1
        with pytest.raises(KeyError):
            registry.get("anon-0")

    def test_capacity_eviction_also_rebuilds_persona_sessions(self):
        registry = SessionRegistry(max_sessions=2)
        user, context = persona("paper")
        registry.open(user, context, session_id="p-0", persona="paper")
        registry.open(user, context, session_id="p-1", persona="paper")
        registry.open(user, context, session_id="p-2", persona="paper")
        assert len(registry) == 2 and registry.evictions == 1
        rebuilt = registry.get("p-0")
        assert rebuilt.persona == "paper" and registry.rebuilds == 1
        assert len(registry) == 2  # the cap still holds after the rebuild

    def test_closing_a_session_forgets_the_rebuild_spec(self):
        registry = SessionRegistry()
        user, context = persona("paper")
        registry.open(user, context, session_id="gone", persona="paper")
        registry.close("gone")
        with pytest.raises(KeyError):
            registry.get("gone")


# ---------------------------------------------------------------------------
# Single-flight materialisation (the cold-start dog-pile fix)
# ---------------------------------------------------------------------------
class TestSingleFlight:
    """Concurrent first-touch requests must share ONE materialisation.

    Before single-flight, N threads racing a cold cache key all found a
    miss and all ran the ~300ms reasoner — the thundering herd behind a
    cold shard multiplied its warm-up cost by the client count.
    """

    @staticmethod
    def _tiny_graph():
        graph = Graph()
        graph.add((IRI("urn:ex:s"), IRI("urn:ex:p"), IRI("urn:ex:o")))
        return graph

    def test_concurrent_first_touch_materialises_exactly_once(self):
        graph = self._tiny_graph()
        cache = MaterializationCache(max_size=4)
        release = threading.Event()
        runs = []

        class _BlockingReasoner:
            def __init__(self, target):
                self._target = target

            def run(self):
                runs.append(threading.get_ident())
                assert release.wait(timeout=30)
                return self._target.copy()

        results = []

        def worker():
            results.append(cache.materialize(
                graph, reasoner_factory=_BlockingReasoner))

        threads = [threading.Thread(target=worker, daemon=True)
                   for _ in range(WORKERS)]
        for thread in threads:
            thread.start()
        # The claimant is parked inside run(); wait until every other
        # thread is provably queued behind it, then let the build finish.
        deadline = time.time() + 30
        while cache.single_flight_waits < WORKERS - 1:
            assert time.time() < deadline, \
                f"only {cache.single_flight_waits} waiters queued up"
            time.sleep(0.005)
        release.set()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()

        assert len(runs) == 1, "the dog-pile ran the reasoner more than once"
        assert cache.misses == 1
        assert cache.hits == WORKERS - 1
        assert cache.single_flight_waits == WORKERS - 1
        assert all(result is results[0] for result in results), \
            "waiters must observe the one published closure"

    def test_failed_build_does_not_strand_waiters(self):
        graph = self._tiny_graph()
        cache = MaterializationCache(max_size=4)
        fail_release = threading.Event()
        calls = []

        class _FlakyReasoner:
            """First build crashes (after the waiter queues); retry works."""

            def __init__(self, target):
                self._target = target

            def run(self):
                calls.append(threading.get_ident())
                if len(calls) == 1:
                    assert fail_release.wait(timeout=30)
                    raise RuntimeError("reasoner crashed mid-build")
                return self._target.copy()

        results, errors = [], []

        def worker():
            try:
                results.append(cache.materialize(
                    graph, reasoner_factory=_FlakyReasoner))
            except RuntimeError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, daemon=True) for _ in range(2)]
        for thread in threads:
            thread.start()
        deadline = time.time() + 30
        while cache.single_flight_waits < 1:
            assert time.time() < deadline, "the waiter never queued"
            time.sleep(0.005)
        fail_release.set()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()

        # The claimant propagated its crash; the waiter woke to a missing
        # entry, claimed the build itself, and succeeded.
        assert len(errors) == 1 and "crashed" in str(errors[0])
        assert len(results) == 1 and len(calls) == 2
        assert cache.misses == 1

    def test_sharded_first_touch_dogpile_materialises_once(self, engine):
        sharded = ShardedExplanationService(
            num_shards=1, workers_per_shard=max(2, WORKERS),
            queue_size=64, engine=engine)
        try:
            user, context = paper_user(), paper_context()
            session_ids = [sharded.open_session(user, context).session_id
                           for _ in range(max(2, WORKERS))]
            barrier = threading.Barrier(len(session_ids))
            fingerprints, errors = [], []
            cache = sharded.shards[0].service.engine.builder.closure_cache
            post_process = cache._post_process

            def held_post_process(*args):
                # A miss that extends an already-built base closure takes a
                # few ms: hold the claimed build until the racing first
                # touches have queued behind it, so the race is not left to
                # the thread scheduler.
                deadline = time.time() + 30
                while cache.single_flight_waits < len(session_ids) - 1:
                    assert time.time() < deadline, "the racers never queued"
                    time.sleep(0.005)
                return post_process(*args)

            cache._post_process = held_post_process

            def client(session_id):
                try:
                    barrier.wait(timeout=30)
                    response = sharded.ask(QUESTION, session_id=session_id)
                    fingerprints.append(response.scenario.inferred.fingerprint())
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            _run_threads([lambda sid=sid: client(sid) for sid in session_ids])
            assert not errors, f"dog-pile clients failed: {errors[:3]}"
            stats = cache.stats()
            assert stats["misses"] == 1, \
                "N concurrent first-touch asks must cost one materialisation"
            assert stats["single_flight_waits"] >= 1
            assert len(set(fingerprints)) == 1
        finally:
            sharded.stop()


# ---------------------------------------------------------------------------
# One base closure per fleet: every shard's misses extend it
# ---------------------------------------------------------------------------
class TestSharedBaseClosure:
    """The ontology + KG is reasoned once per fleet, not once per miss or
    per shard: every closure miss on every shard is a COW copy of the one
    frozen base closure grown by ``Reasoner.extend``."""

    def test_fleet_reasons_the_base_once_and_every_miss_extends_it(
            self, catalog, monkeypatch):
        runs = []
        full_run = Reasoner.run

        def counting_run(reasoner):
            runs.append(threading.get_ident())
            return full_run(reasoner)

        monkeypatch.setattr(Reasoner, "run", counting_run)
        # A fresh engine: its base closure has not been built yet.
        engine = ExplanationEngine(catalog=catalog)
        fleet = ShardedExplanationService(
            num_shards=4, workers_per_shard=max(2, WORKERS), queue_size=64,
            engine=engine)
        try:
            # Two tenants per shard, so every shard misses, and all of them
            # ask at once so the first misses race for the base closure.
            tenants = {}
            for n in range(200):
                user = replace(paper_user(), identifier=f"tenant-{n}")
                homes = tenants.setdefault(fleet._shard_by_key(user.identifier).index, [])
                if len(homes) < 2:
                    homes.append(user)
            assert sorted(tenants) == [0, 1, 2, 3]
            users = [user for homes in tenants.values() for user in homes]
            barrier = threading.Barrier(len(users))
            errors = []

            def client(user):
                try:
                    barrier.wait(timeout=30)
                    for question in PAPER_QUESTIONS:
                        fleet.ask(question, user=user, context=paper_context())
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-4)  # interleave the racing first misses
            try:
                _run_threads([lambda u=user: client(u) for user in users])
            finally:
                sys.setswitchinterval(switch)
            assert not errors, f"clients failed: {errors[:3]}"

            assert len(runs) == 1, "only the base closure may run the full reasoner"
            base = engine.builder._base_closure
            base_closure = base.closure()
            assert base_closure.frozen
            for shard in fleet.shards:
                builder = shard.service.engine.builder
                assert builder._base_closure is base
                cache = builder.closure_cache
                assert cache.stats()["misses"] >= len(PAPER_QUESTIONS)
                for _, closure, _ in cache.export_entries():
                    assert closure.dictionary is base_closure.dictionary
                    # A COW child: index entries the delta never touched are
                    # the base closure's own objects, not copies.
                    assert any(closure._pos[p] is entry
                               for p, entry in base_closure._pos.items())
        finally:
            fleet.stop()


# ---------------------------------------------------------------------------
# Internal errors are honest 500s, never reclassified as client faults
# ---------------------------------------------------------------------------
class TestInternalErrors:
    @pytest.fixture()
    def server(self, engine):
        sharded = ShardedExplanationService(
            num_shards=1, workers_per_shard=1, queue_size=4, engine=engine)
        server = ExplanationServer(sharded, port=0).start()
        yield server
        server.stop()

    def test_handler_bug_is_500_with_counter(self, server, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("wiring bug")

        monkeypatch.setattr(server.service, "ask", boom)
        status, body = _request(server.url, "/ask",
                                {"question": QUESTION, "persona": "paper"})
        assert status == 500
        assert body["error"] == "internal_error"
        assert "wiring bug" not in body["message"], \
            "internal exception detail must stay in the server log"
        assert server.internal_errors == 1
        status, stats = _request(server.url, "/stats")
        assert status == 200 and stats["internal_errors"] == 1

    def test_raw_keyerror_is_a_500_not_a_400(self, server, monkeypatch):
        """The old transport mapped any KeyError to 400, masking bugs."""
        def boom(*args, **kwargs):
            raise KeyError("internal-lookup-key")

        monkeypatch.setattr(server.service, "ask", boom)
        status, body = _request(server.url, "/ask",
                                {"question": QUESTION, "persona": "paper"})
        assert status == 500 and body["error"] == "internal_error"
        assert server.internal_errors == 1

    def test_unknown_entities_stay_400_with_prose_message(self, server):
        # Unknown foods keep their full multi-word / accented / non-English
        # names through the question parser into the error message.
        for path, payload, name in (
                ("/sessions", {"persona": "nope"}, "nope"),
                ("/ask", {"question": "Why should I eat lait de coco?",
                          "persona": "paper"}, "lait de coco"),
                ("/ask", {"question": "Why should I eat 寿司 over crème brûlée?",
                          "persona": "paper"}, "寿司")):
            status, body = _request(server.url, path, payload)
            assert status == 400 and body["error"] == "bad_request"
            # UnknownEntityError renders as prose, not KeyError's quoted repr.
            assert body["message"].startswith("Unknown") and name in body["message"]
        assert server.internal_errors == 0
