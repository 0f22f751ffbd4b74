"""Serving layer: prepared queries, cached reasoning, concurrent multi-tenant APIs.

This package turns the single-request :class:`repro.core.engine.ExplanationEngine`
into a service suitable for heavy interactive traffic:

* :class:`ExplanationService` — one cached, session-aware instance;
* :class:`ShardedExplanationService` — N independent shards, each an
  admission gate that runs work on the caller's thread, with
  snapshot-isolated reads, typed :class:`BackpressureError` load
  shedding, per-request deadlines, per-shard :class:`CircuitBreaker`\\ s
  and graceful drain (see ``docs/architecture.md`` § Failure model);
* :class:`ExplanationServer` — the HTTP/JSON transport over the shards
  (503 + ``Retry-After`` for the unavailable family, 504 for deadline
  misses).

See ``docs/architecture.md`` for where the cache layers and the serving
topology sit in the request data flow.
"""

from ..errors import (
    DeadlineExceededError,
    ServiceDrainingError,
    ShardUnavailableError,
    TransientServingError,
    UnavailableError,
)
from .api import BackpressureError, ExplanationRequest, ExplanationResponse, ServiceStats
from .server import ExplanationServer
from .service import ExplanationService
from .shards import CircuitBreaker, ServiceShard, ShardedExplanationService

__all__ = [
    "BackpressureError",
    "CircuitBreaker",
    "DeadlineExceededError",
    "ExplanationRequest",
    "ExplanationResponse",
    "ExplanationServer",
    "ExplanationService",
    "ServiceDrainingError",
    "ServiceShard",
    "ServiceStats",
    "ShardUnavailableError",
    "ShardedExplanationService",
    "TransientServingError",
    "UnavailableError",
]
