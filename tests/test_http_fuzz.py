"""Property-based fuzzing of the HTTP transport's JSON bodies.

Whatever a client POSTs to ``/ask``, ``/sessions`` or ``/update`` —
wrong types, missing fields, unicode and very long strings, deep
nesting, bytes that are not JSON at all — the server answers with one
of 200/400/503/504 within a bounded time.  Never a 500, never a dropped
connection, never a hang.
"""

from __future__ import annotations

import http.client
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from test_generator_determinism import PAPER_QUESTIONS

from repro.service import ExplanationServer, ShardedExplanationService
from repro.users.personas import PERSONAS

#: Seconds a single response may take before the request counts as hung.
RESPONSE_BOUND = 30.0
ALLOWED = {200, 400, 503, 504}
FUZZ = settings(max_examples=30, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=40) | st.text(min_size=2000, max_size=5000))
_json = st.recursive(_scalars, lambda children: (
    st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4)), max_leaves=12)
_strings = st.sampled_from(PAPER_QUESTIONS) | st.text(max_size=200)
_fields = {
    "question": _strings | _json,
    "persona": st.sampled_from(PERSONAS) | _json,
    "session_id": st.sampled_from(["s0:1", "s9:x", ""]) | _json,
    "explanation_type": st.sampled_from(["contextual", "bogus"]) | _json,
    "timeout": st.sampled_from([1e-9, 5.0, -1, "soon"]) | _json,
    "likes": st.lists(st.sampled_from(["Spinach", "Sushi"]) | st.text(max_size=20),
                      max_size=3) | _json,
    "allergies": st.lists(st.text(max_size=20), max_size=3) | _json,
    "goals": st.lists(st.sampled_from(["high_fiber", "bogus"]), max_size=2) | _json,
}
_objects = st.fixed_dictionaries({}, optional=_fields).flatmap(
    lambda fixed: st.dictionaries(st.text(max_size=10), _json, max_size=2).map(
        lambda extra: {**extra, **fixed}))
_bodies = (_objects.map(lambda body: json.dumps(body).encode("utf-8"))
           | _json.map(lambda value: json.dumps(value).encode("utf-8"))
           | st.integers(1, 200000).map(lambda depth: b"[" * depth)
           | st.binary(max_size=200))


@pytest.fixture(scope="module")
def server(engine):
    fleet = ShardedExplanationService(num_shards=2, workers_per_shard=1,
                                      queue_size=4, engine=engine)
    server = ExplanationServer(fleet, port=0).start()
    yield server
    server.stop()
    assert server.internal_errors == 0


def _post(server, path: str, body: bytes) -> int:
    connection = http.client.HTTPConnection(server.host, server.port,
                                            timeout=RESPONSE_BOUND)
    try:
        connection.request("POST", path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        response.read()
        return response.status
    finally:
        connection.close()


@pytest.mark.parametrize("path", ["/ask", "/sessions", "/update"])
def test_any_body_gets_a_typed_status(server, path):
    @FUZZ
    @given(body=_bodies)
    def check(body):
        assert _post(server, path, body) in ALLOWED
        assert server.internal_errors == 0

    check()
