"""Typed errors shared across the serving stack.

The HTTP transport used to map *any* ``KeyError``/``ValueError``/
``TypeError`` escaping a handler to a 400 — which meant an internal bug
(a broken index, a ``None`` where a graph was expected) masqueraded as a
client error and never surfaced in logs.  This module gives each failure
mode the transport has to distinguish its own exception family:

* :class:`RequestError` — the request itself is invalid (HTTP 400);
* :class:`UnavailableError` — the service cannot take the request right
  now but a retry may succeed (HTTP 503 with ``Retry-After``): shard
  queue backpressure, an open circuit breaker, a draining fleet, or a
  typed transient failure such as an injected fault;
* :class:`DeadlineExceededError` — the request's deadline expired before
  a result was produced (HTTP 504);
* anything else escaping a handler is an internal bug and must surface
  as a logged 500, never be reclassified as the client's fault.

The module is deliberately a leaf (no intra-package imports): it is
raised from the foodkg loaders, the user registry, the question parser,
the engine and the serving layer, and caught in the CLI and the HTTP
server, so it must be importable from anywhere without cycles.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = [
    "RequestError",
    "UnknownEntityError",
    "UnavailableError",
    "ShardUnavailableError",
    "ServiceDrainingError",
    "TransientServingError",
    "DeadlineExceededError",
]


class RequestError(ValueError):
    """The request itself is invalid; the caller should fix it and retry.

    Transports map this family — and only this family — to a client error
    (HTTP 400).  Anything else escaping a handler is an internal bug and
    must surface as a 500 with a logged traceback, never be silently
    reclassified as the client's fault.
    """


class UnknownEntityError(RequestError, KeyError):
    """A request names an entity that does not exist.

    Covers unknown foods, health conditions, personas, session ids and
    explanation types.  Subclasses :class:`KeyError` too, so existing
    lookup-style call sites (``except KeyError``) keep working unchanged
    while transports can narrow to :class:`RequestError`.
    """

    def __str__(self) -> str:
        # KeyError.__str__ renders repr(args[0]); these are prose messages.
        return Exception.__str__(self)


class UnavailableError(RuntimeError):
    """The service cannot take this request right now; retry later.

    The retryable 503 family: admission-control backpressure, an open
    per-shard circuit breaker, a draining fleet, and typed transient
    failures.  ``retry_after`` (seconds) tells a well-behaved client when
    a retry has a chance instead of letting it hot-loop; transports
    surface it both as the HTTP ``Retry-After`` header and as a
    machine-readable field of the JSON payload, alongside ``reason``.
    """

    #: Machine-readable discriminator for the 503 payload's ``reason``
    #: field; subclasses override it.
    reason = "unavailable"

    def __init__(self, message: str, *, reason: Optional[str] = None,
                 retry_after: Optional[float] = None,
                 scope: str = "service", shard: Optional[int] = None) -> None:
        super().__init__(message)
        if reason is not None:
            self.reason = reason
        self.retry_after = retry_after
        self.scope = scope
        self.shard = shard

    def to_payload(self) -> Dict[str, Any]:
        """The transport-friendly (JSON-serialisable) view of the rejection."""
        return {
            "error": self.reason,
            "reason": self.reason,
            "message": str(self),
            "scope": self.scope,
            "shard": self.shard,
            "retry_after": self.retry_after,
            "retryable": True,
        }


class ShardUnavailableError(UnavailableError):
    """A shard's circuit breaker is open: fail fast instead of queueing.

    Raised when sustained failures or deadline misses opened the shard's
    breaker (or while a half-open probe is already in flight).  Callers
    should back off for :attr:`retry_after` seconds — the cooldown the
    breaker will wait before probing the shard again.
    """

    reason = "breaker_open"


class ServiceDrainingError(UnavailableError):
    """The service is draining (or stopped): new work is rejected.

    Also raised to callers still waiting for a shard slot when a bounded
    :meth:`stop(timeout=...)` reaches its drain deadline.
    """

    reason = "draining"


class TransientServingError(UnavailableError):
    """A request failed for a reason unrelated to the request itself.

    The typed "infrastructure hiccup" family: the work was accepted but
    did not complete because of a fault in the serving machinery (such as
    an injected chaos fault) rather than anything the client
    sent.  An **idempotent** retry may succeed — the sharded service
    retries asks (never updates) on this family with jittered
    exponential backoff.
    """

    reason = "transient"


class DeadlineExceededError(RuntimeError):
    """The request's deadline expired before a result was produced.

    Raised to a caller whose deadline passes while it waits for a shard
    slot (the work is skipped, never executed), or whose work finishes
    after the deadline.  Transports map it to HTTP 504.
    """

    def __init__(self, message: str, *, timeout: Optional[float] = None,
                 shard: Optional[int] = None) -> None:
        super().__init__(message)
        self.timeout = timeout
        self.shard = shard

    def to_payload(self) -> Dict[str, Any]:
        """The transport-friendly (JSON-serialisable) view of the timeout."""
        return {
            "error": "deadline_exceeded",
            "reason": "deadline_exceeded",
            "message": str(self),
            "timeout": self.timeout,
            "shard": self.shard,
            "retryable": True,
        }
