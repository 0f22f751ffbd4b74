"""Request / response / statistics types for the explanation service.

These are plain dataclasses so that any transport (CLI, HTTP framework,
message queue) can construct requests and serialise responses without
importing engine internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..core.explanation import Explanation
from ..errors import UnavailableError
from ..users.context import SystemContext
from ..users.profile import UserProfile

__all__ = [
    "BackpressureError",
    "ExplanationRequest",
    "ExplanationResponse",
    "ServiceStats",
]


class BackpressureError(UnavailableError):
    """The service shed this request instead of queueing it.

    Raised by a shard's admission gate when its bounded queue of callers
    waiting for a slot is full
    (:class:`repro.service.shards.ShardedExplanationService`).  It is a
    *typed*, expected overload signal — part of the retryable
    :class:`~repro.errors.UnavailableError` 503 family, so transports map
    it to 503 + ``Retry-After`` instead of a traceback, and every
    rejection is counted in :attr:`ServiceStats.requests_rejected`.
    """

    reason = "backpressure"

    def __init__(self, message: str, *, scope: str = "service",
                 shard: Optional[int] = None,
                 queue_depth: Optional[int] = None,
                 limit: Optional[int] = None,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(message, retry_after=retry_after, scope=scope,
                         shard=shard)
        self.queue_depth = queue_depth
        self.limit = limit

    def to_payload(self) -> Dict[str, Any]:
        """The transport-friendly (JSON-serialisable) view of the rejection."""
        payload = super().to_payload()
        # Keep the pre-UnavailableError payload shape: clients key on
        # ``error == "backpressure"`` plus queue telemetry.
        payload["error"] = "backpressure"
        payload["queue_depth"] = self.queue_depth
        payload["limit"] = self.limit
        return payload


@dataclass(frozen=True)
class ExplanationRequest:
    """One explanation request, addressed by session, persona or explicit user.

    Exactly one addressing mode is needed: a ``session_id`` (for a session
    previously opened on the service), a ``persona`` key (one of
    :data:`repro.users.personas.PERSONAS`), or an explicit ``user`` +
    ``context`` pair.  ``explanation_type`` optionally overrides the
    engine's default question-type mapping.
    """

    question: str
    session_id: Optional[str] = None
    persona: Optional[str] = None
    user: Optional[UserProfile] = None
    context: Optional[SystemContext] = None
    explanation_type: Optional[str] = None


@dataclass
class ExplanationResponse:
    """The service's answer to one :class:`ExplanationRequest`."""

    request: ExplanationRequest
    explanation: Explanation
    session_id: Optional[str] = None
    scenario_cache_hit: bool = False
    elapsed_seconds: float = 0.0
    #: The scenario the explanation was generated from: the cached,
    #: published scenario itself.  Its graphs are frozen, so a write to
    #: them raises instead of reaching the service's caches or other
    #: requests.  In-process only; :meth:`summary` deliberately omits it.
    scenario: Optional[Any] = None

    @property
    def text(self) -> str:
        """The natural-language rendering of the explanation."""
        return self.explanation.text

    def summary(self) -> Dict[str, Any]:
        """A transport-friendly dictionary view of the response."""
        return {
            "question": self.request.question,
            "explanation_type": self.explanation.explanation_type,
            "text": self.explanation.text,
            "items": [item.describe() for item in self.explanation.items],
            "session_id": self.session_id,
            "scenario_cache_hit": self.scenario_cache_hit,
            "elapsed_seconds": self.elapsed_seconds,
        }


@dataclass
class ServiceStats:
    """Aggregate counters describing one service instance's lifetime.

    ``prepared_query_cache`` is the exception to "one instance": prepared
    queries are cached process-wide (see :func:`repro.sparql.prepare_cached`),
    so those counters include traffic from every service in the process.
    """

    requests_served: int = 0
    #: Requests shed by admission control (never served; see
    #: :class:`BackpressureError`).
    requests_rejected: int = 0
    #: Requests that missed their deadline
    #: (:class:`~repro.errors.DeadlineExceededError` raised to the caller):
    #: either still waiting for a shard slot, or finished too late.
    requests_timed_out: int = 0
    #: Callers still waiting for a shard slot when a bounded drain
    #: (``stop(timeout=...)``) reached its deadline; never run.
    requests_cancelled: int = 0
    #: Circuit-breaker telemetry for this instance's shard:
    #: ``{"state": "closed|open|half_open", "opens": ..., "failures": ...,
    #: "timeouts": ..., "rejected_fast": ...}`` (empty for an unsharded
    #: service).
    breaker: Dict[str, Any] = field(default_factory=dict)
    scenario_cache_hits: int = 0
    scenario_cache_misses: int = 0
    scenario_updates: int = 0
    closure_cache: Dict[str, int] = field(default_factory=dict)
    prepared_query_cache: Dict[str, int] = field(default_factory=dict)
    query_planner: Dict[str, int] = field(default_factory=dict)
    #: Storage-engine counters for the engine's base graph family: interned
    #: terms by kind plus the encoded triple count (empty until the lazy
    #: engine is built).
    term_store: Dict[str, int] = field(default_factory=dict)
    active_sessions: int = 0
    #: Sessions transparently rebuilt from their persona after eviction
    #: (see :class:`repro.users.sessions.SessionRegistry`).
    session_rebuilds: int = 0
    #: Serve-latency stats over a sliding window of recent requests:
    #: ``{"p50": ..., "p99": ..., "max_ms": ..., "samples": ...}``
    #: (milliseconds).  ``samples`` and ``max_ms`` keep the percentiles
    #: honest: the window mixes warm-up and steady-state requests, so a
    #: small sample count or an outsized max flags numbers not to trust
    #: as steady-state.
    latency_ms: Dict[str, float] = field(default_factory=dict)
    #: Callers waiting for a slot on this instance's shard (0 for an
    #: unsharded service, which has no admission gate).
    queue_depth: int = 0

    def to_text(self) -> str:
        """Render the counters as the ``serve --stats`` footer."""
        lines = [
            f"requests served:        {self.requests_served}",
            f"requests rejected:      {self.requests_rejected} (backpressure)",
            f"requests timed out:     {self.requests_timed_out} "
            f"({self.requests_cancelled} cancelled by drain)",
            f"breaker:                {self.breaker.get('state', 'n/a')} "
            f"({self.breaker.get('opens', 0)} opens, "
            f"{self.breaker.get('rejected_fast', 0)} fast-failed)",
            f"serve latency:          p50 {self.latency_ms.get('p50', 0.0):.1f} ms / "
            f"p99 {self.latency_ms.get('p99', 0.0):.1f} ms / "
            f"max {self.latency_ms.get('max_ms', 0.0):.1f} ms "
            f"({int(self.latency_ms.get('samples', 0))} samples)",
            f"scenario cache:         {self.scenario_cache_hits} hits / "
            f"{self.scenario_cache_misses} misses",
            f"scenario updates:       {self.scenario_updates}",
            f"closure cache:          {self.closure_cache.get('hits', 0)} hits / "
            f"{self.closure_cache.get('misses', 0)} misses "
            f"({self.closure_cache.get('size', 0)} entries, "
            f"{self.closure_cache.get('extensions', 0)} incremental extensions)",
            f"prepared-query cache:   {self.prepared_query_cache.get('hits', 0)} hits / "
            f"{self.prepared_query_cache.get('misses', 0)} misses "
            f"({self.prepared_query_cache.get('size', 0)} entries, process-wide)",
            f"query planner:          {self.query_planner.get('plan_cache_hits', 0)} plan-cache hits / "
            f"{self.query_planner.get('plans_compiled', 0)} compiled "
            f"({self.query_planner.get('reorderings_applied', 0)} join reorders, "
            f"{self.query_planner.get('filters_pushed', 0)} filters pushed, "
            f"{self.query_planner.get('encoded_bgps', 0)} encoded BGP joins, process-wide)",
            f"term store:             {self.term_store.get('interned_terms', 0)} interned terms "
            f"({self.term_store.get('iris', 0)} IRIs, "
            f"{self.term_store.get('bnodes', 0)} bnodes, "
            f"{self.term_store.get('literals', 0)} literals) / "
            f"{self.term_store.get('encoded_triples', 0)} encoded base triples",
            f"active sessions:        {self.active_sessions} "
            f"({self.session_rebuilds} rebuilt after eviction)",
        ]
        return "\n".join(lines)
