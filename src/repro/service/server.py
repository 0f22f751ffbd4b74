"""HTTP/JSON transport for the sharded explanation service.

:class:`ExplanationServer` exposes a
:class:`~repro.service.shards.ShardedExplanationService` over a small,
dependency-free HTTP API (stdlib ``http.server`` only, matching the
repo's no-new-dependencies rule):

====================  =====================================================
``GET  /healthz``     liveness probe → ``{"status": "ok"}``
``GET  /stats``       aggregated fleet + per-shard counters
``POST /sessions``    ``{"persona": "paper"}`` → ``{"session_id": "s2:7"}``
``POST /ask``         ``{"question": ..., "session_id"|"persona": ...,``
                      ``"explanation_type": ...?}`` → explanation summary
``POST /update``      ``{"question": ..., "session_id"|"persona": ...,``
                      ``"likes"|"dislikes"|"allergies"|"diets"|``
                      ``"conditions"|"goals": [...]}`` → updated profile
====================  =====================================================

Each response leaves in one socket write: the status line, headers and
body are held until the request is done, then sent with one ``sendall``
(:class:`_ResponseWriter`).  Written as two pieces, a keep-alive
response's second piece waits behind the server's Nagle algorithm for
the client's delayed ACK of the first (RFC 896; RFC 1122 §4.2.3.2):
about 40 ms per response.

Connection handling is threaded (one handler thread per connection), and
the handler thread runs its request itself once the home shard admits
it: each shard lets a bounded number of calls run and a bounded number
wait for a slot, so a full shard surfaces as an immediate **503**
carrying the typed :class:`~repro.service.api.BackpressureError`
payload — clients see a retryable JSON error, never a growing backlog
or a traceback.

The full status taxonomy mirrors ``repro.errors``:

* every :class:`~repro.errors.UnavailableError` — backpressure, an open
  circuit breaker, a draining fleet, a typed transient — maps to **503**
  with a ``Retry-After`` header and a machine-readable ``reason`` field
  in the JSON body, so clients can back off instead of hot-looping;
* a :class:`~repro.errors.DeadlineExceededError` maps to **504** (the
  per-request deadline comes from the fleet's ``request_timeout`` or the
  request's own ``"timeout"`` field, in seconds).  A request still
  waiting for a shard slot gets it at the deadline; a request already
  running is not interrupted, so its 504 comes when it finishes;
* malformed requests (bad JSON, including bodies nested too deeply to
  decode, unparseable questions, unknown foods/personas) raise the typed :class:`~repro.errors.RequestError`
  family and map to **400** with a JSON error body;
* *anything else* escaping a handler is an internal bug: it returns
  **500**, logs the full traceback, and bumps the ``internal_errors``
  counter surfaced by ``GET /stats`` — it is never reclassified as the
  client's fault (the transport used to map any ``KeyError``/
  ``ValueError``/``TypeError`` to 400, which masked real defects as bad
  requests).

:meth:`ExplanationServer.stop` drains gracefully: the service is marked
draining first (new ``POST`` work is rejected with a 503 ``reason:
"draining"`` while in-flight requests finish within the drain deadline),
and only then is the listener shut down.
"""

from __future__ import annotations

import io
import json
import logging
import math
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from ..errors import DeadlineExceededError, RequestError, UnavailableError
from .shards import ShardedExplanationService

__all__ = ["ExplanationServer"]

logger = logging.getLogger(__name__)

#: Profile-delta fields accepted by POST /update, in the order
#: :meth:`ExplanationService.update_scenario` declares them.
_UPDATE_FIELDS = ("likes", "dislikes", "allergies", "diets", "conditions", "goals")


class _ResponseWriter(io.BytesIO):
    """A handler's ``wfile``: holds a response and sends it on ``flush()``.

    ``handle_one_request`` flushes once per request and ``finish()`` on
    close, so each response, ``send_error`` pages included, reaches the
    socket in one ``sendall`` whatever its size.
    """

    def __init__(self, connection: socket.socket) -> None:
        super().__init__()
        self._connection = connection

    def flush(self) -> None:
        if self.tell():
            self._connection.sendall(self.getvalue())
            self.seek(0)
            self.truncate()


class _Handler(BaseHTTPRequestHandler):
    """One request handler bound to the server's sharded service."""

    #: Set by :class:`ExplanationServer` on the handler subclass.
    service: ShardedExplanationService = None  # type: ignore[assignment]
    quiet: bool = True
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    def setup(self) -> None:
        super().setup()
        self.wfile = _ResponseWriter(self.connection)

    def handle_expect_100(self) -> bool:
        # The interim 100 must reach the client before it sends the body.
        accepted = super().handle_expect_100()
        self.wfile.flush()
        return accepted

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.quiet:  # pragma: no cover - log plumbing
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_unavailable(self, exc: UnavailableError) -> None:
        """503 with the typed payload and an HTTP ``Retry-After`` header."""
        retry_after = exc.retry_after if exc.retry_after is not None else 1.0
        self._send_json(503, exc.to_payload(),
                        headers={"Retry-After": str(max(1, math.ceil(retry_after)))})

    def _read_json(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0:
            # rfile.read(-1) would block until the client hangs up, and the
            # unread body leaves the connection unusable for keep-alive.
            self.close_connection = True
            raise ValueError("Content-Length must not be negative")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except RecursionError:
            raise ValueError("request body is nested too deeply") from None
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            self._send_json(200, {"status": "ok"})
        elif self.path == "/stats":
            try:
                payload = self.service.stats().to_dict()
            except Exception:  # noqa: BLE001 - the honest 500 path
                self._send_json(500, self._internal_error("GET /stats"))
                return
            payload["internal_errors"] = self._internal_error_count()
            self._send_json(200, payload)
        else:
            self._send_json(404, {"error": "not_found", "path": self.path})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            payload = self._read_json()
        except (ValueError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": "bad_request", "message": str(exc)})
            return
        if self.service.draining:
            # Refuse new work during a graceful drain; in-flight requests
            # keep completing until the drain deadline.
            self._send_json(503, {
                "error": "draining", "reason": "draining",
                "message": "service is draining; retry against another instance",
                "retry_after": 1.0, "retryable": True,
            }, headers={"Retry-After": "1"})
            return
        try:
            if self.path == "/ask":
                self._send_json(*self._handle_ask(payload))
            elif self.path == "/sessions":
                self._send_json(*self._handle_open_session(payload))
            elif self.path == "/update":
                self._send_json(*self._handle_update(payload))
            else:
                self._send_json(404, {"error": "not_found", "path": self.path})
        except UnavailableError as exc:
            # The fail-fast 503 family: backpressure, breaker-open,
            # draining, typed transients — retryable, with Retry-After.
            self._send_unavailable(exc)
        except DeadlineExceededError as exc:
            self._send_json(504, exc.to_payload())
        except RequestError as exc:
            # Only the typed request-validation family is the client's
            # fault: unparseable questions, unknown personas/foods/
            # sessions/explanation types, inconsistent addressing.
            message = exc.args[0] if exc.args else str(exc)
            self._send_json(400, {"error": "bad_request", "message": str(message)})
        except Exception:  # noqa: BLE001 - the honest 500 path
            self._send_json(500, self._internal_error(f"POST {self.path}"))

    # ------------------------------------------------------------------
    def _internal_error_count(self) -> int:
        server = self.server
        with server.internal_error_lock:  # type: ignore[attr-defined]
            return server.internal_errors  # type: ignore[attr-defined]

    def _internal_error(self, where: str) -> Dict[str, Any]:
        """Log the active exception's traceback and count it; 500 payload."""
        server = self.server
        with server.internal_error_lock:  # type: ignore[attr-defined]
            server.internal_errors += 1  # type: ignore[attr-defined]
        logger.exception("internal error handling %s", where)
        return {"error": "internal_error",
                "message": "internal server error (see server log)"}

    # ------------------------------------------------------------------
    @staticmethod
    def _string_from(payload: Dict[str, Any], name: str) -> Optional[str]:
        """``payload[name]`` if it is a string, None if absent or null."""
        value = payload.get(name)
        if value is not None and not isinstance(value, str):
            raise RequestError(f"'{name}' must be a string, got {value!r}")
        return value

    @staticmethod
    def _timeout_from(payload: Dict[str, Any]) -> Optional[float]:
        """The request's own deadline (seconds), or None for the default."""
        raw = payload.get("timeout")
        if raw is None:
            return None
        try:
            timeout = float(raw)
        except (TypeError, ValueError):
            raise RequestError(f"'timeout' must be a number, got {raw!r}") from None
        if not math.isfinite(timeout) or timeout <= 0:
            raise RequestError(f"'timeout' must be a positive finite number, got {raw!r}")
        return timeout

    def _handle_ask(self, payload: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        question = self._string_from(payload, "question")
        if not question:
            return 400, {"error": "bad_request", "message": "missing 'question'"}
        response = self.service.ask(
            question,
            session_id=self._string_from(payload, "session_id"),
            persona=self._string_from(payload, "persona"),
            explanation_type=self._string_from(payload, "explanation_type"),
            timeout=self._timeout_from(payload),
        )
        return 200, response.summary()

    def _handle_open_session(self, payload: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        persona = self._string_from(payload, "persona") or self.service.default_persona
        session = self.service.open_persona_session(persona)
        return 200, {"session_id": session.session_id, "persona": persona,
                     "user": session.user.identifier}

    def _handle_update(self, payload: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        question = self._string_from(payload, "question")
        if not question:
            return 400, {"error": "bad_request", "message": "missing 'question'"}
        additions = {}
        for fieldname in _UPDATE_FIELDS:
            values = payload.get(fieldname)
            if values:
                if not isinstance(values, list) or not all(
                        isinstance(value, str) for value in values):
                    return 400, {"error": "bad_request",
                                 "message": f"'{fieldname}' must be a list of strings"}
                additions[fieldname] = tuple(values)
        updated = self.service.update_scenario(
            question,
            session_id=self._string_from(payload, "session_id"),
            persona=self._string_from(payload, "persona"),
            timeout=self._timeout_from(payload),
            **additions,
        )
        return 200, {
            "user": updated.user.identifier,
            "likes": list(updated.user.likes),
            "dislikes": list(updated.user.dislikes),
            "allergies": list(updated.user.allergies),
            "diets": list(updated.user.diets),
            "conditions": list(updated.user.conditions),
            "goals": list(updated.user.goals),
            "inferred_triples": len(updated.inferred),
        }


class ExplanationServer:
    """A threaded HTTP front-end over a sharded explanation service.

    ``port=0`` binds an ephemeral port (the bound port is exposed as
    :attr:`port`), which is what the tests and local tooling use.  The
    server can run inline (:meth:`serve_forever`) or on a background
    thread (:meth:`start` / :meth:`stop`).
    """

    def __init__(self, service: ShardedExplanationService,
                 host: str = "127.0.0.1", port: int = 8080,
                 quiet: bool = True,
                 drain_timeout: Optional[float] = None) -> None:
        self.service = service
        self.drain_timeout = drain_timeout
        handler = type("BoundHandler", (_Handler,), {"service": service, "quiet": quiet})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        # Internal-bug counter, shared by all handler threads (handlers
        # reach it via ``self.server``) and surfaced by GET /stats.
        self._httpd.internal_errors = 0
        self._httpd.internal_error_lock = threading.Lock()
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def internal_errors(self) -> int:
        """How many handler invocations crashed with a non-request error."""
        with self._httpd.internal_error_lock:
            return self._httpd.internal_errors

    def serve_forever(self) -> None:
        """Serve until interrupted (the CLI ``serve --port`` loop)."""
        self._httpd.serve_forever()

    def start(self) -> "ExplanationServer":
        """Serve on a daemon thread and return immediately."""
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="explanation-server", daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = None) -> None:
        """Drain gracefully, then shut the listener down.

        The service drains *before* the listener closes: from the first
        moment new ``POST`` work is rejected with 503 ``reason:
        "draining"`` while in-flight requests finish (bounded by
        ``timeout``, default ``drain_timeout``); requests still waiting
        for a shard slot at the deadline fail with a typed error.  Only then does the
        listener stop accepting connections.
        """
        self.service.stop(timeout=timeout if timeout is not None
                          else self.drain_timeout)
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
