"""Request / response / statistics types for the explanation service.

These are plain dataclasses so that any transport (CLI, HTTP framework,
message queue) can construct requests and serialise responses without
importing engine internals.
"""

from __future__ import annotations

import math
import textwrap
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence

from ..core.explanation import Explanation
from ..errors import UnavailableError
from ..users.context import SystemContext
from ..users.profile import UserProfile

__all__ = [
    "BackpressureError",
    "ExplanationRequest",
    "ExplanationResponse",
    "ServiceStats",
    "latency_summary",
    "percentile",
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


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..1) of ``samples`` by rank (0.0 if empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def latency_summary(samples: Sequence[float]) -> Dict[str, float]:
    """``{"p50", "p99", "max_ms", "samples"}`` over latencies in seconds."""
    return {
        "p50": percentile(samples, 0.50) * 1000.0,
        "p99": percentile(samples, 0.99) * 1000.0,
        "max_ms": max(samples) * 1000.0 if samples else 0.0,
        "samples": float(len(samples)),
    }


#: Field metadata for a section that is the same on every shard of a
#: fleet (process-wide, or describing the one shared base graph): a fold
#: takes it once instead of summing it.
_ONCE = {"fold": "once"}
#: Field metadata for a field a fold computes itself instead of folding.
_DERIVED = {"fold": "derived"}


def _add(values: List[Any]) -> Any:
    """Sum ints; sum the numeric entries of dicts key by key."""
    if not isinstance(values[0], dict):
        return sum(values)
    total: Dict[str, Any] = {}
    for value in values:
        for key, item in value.items():
            if isinstance(item, (int, float)):
                total[key] = total.get(key, 0) + item
    return total


def _render(value: Any) -> str:
    if isinstance(value, dict):
        return " ".join(f"{key} {_render(item)}"
                        for key, item in sorted(value.items())) or "-"
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


@dataclass
class ServiceStats:
    """Counters of one service instance, one shard, or a whole fleet.

    A fleet's snapshot is its shards' snapshots folded by
    :meth:`combine`, which keeps them in :attr:`per_shard`.  Sections
    marked ``_ONCE`` are not per instance: prepared queries and query
    plans are cached process-wide (see :func:`repro.sparql.prepare_cached`)
    and the term store describes the base graph every shard shares.
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
    #: service; a fleet sums the counts and leaves ``state`` per shard).
    breaker: Dict[str, Any] = field(default_factory=dict)
    scenario_cache_hits: int = 0
    scenario_cache_misses: int = 0
    scenario_updates: int = 0
    closure_cache: Dict[str, int] = field(default_factory=dict)
    prepared_query_cache: Dict[str, int] = field(default_factory=dict, metadata=_ONCE)
    query_planner: Dict[str, int] = field(default_factory=dict, metadata=_ONCE)
    #: Storage-engine counters for the engine's base graph family: interned
    #: terms by kind plus the encoded triple count (empty until the lazy
    #: engine is built).
    term_store: Dict[str, int] = field(default_factory=dict, metadata=_ONCE)
    active_sessions: int = 0
    #: Sessions transparently rebuilt from their persona after eviction
    #: (see :class:`repro.users.sessions.SessionRegistry`).
    session_rebuilds: int = 0
    #: Serve-latency stats over a sliding window of recent requests (see
    #: :func:`latency_summary`; milliseconds).  ``samples`` and ``max_ms``
    #: keep the percentiles honest: the window mixes warm-up and
    #: steady-state requests, so a small sample count or an outsized max
    #: flags numbers not to trust as steady-state.
    latency_ms: Dict[str, float] = field(default_factory=dict, metadata=_DERIVED)
    #: Callers waiting for a slot on this instance's shard (0 for an
    #: unsharded service, which has no admission gate).
    queue_depth: int = 0
    #: The shard snapshots a fleet's totals were folded from (empty except
    #: on a fleet).
    per_shard: List["ServiceStats"] = field(default_factory=list, metadata=_DERIVED)

    @classmethod
    def combine(cls, parts: Sequence["ServiceStats"],
                latency_samples: Sequence[float]) -> "ServiceStats":
        """Fold shard snapshots into one fleet snapshot.

        Ints add, and so do the numeric entries of dict fields, key by
        key; non-numeric entries (a breaker's ``state``) stay per shard.
        ``_ONCE`` sections are taken from the first part, and
        ``latency_ms`` is recomputed over ``latency_samples`` (seconds),
        the shards' merged windows.
        """
        folded: Dict[str, Any] = {}
        for spec in fields(cls):
            rule = spec.metadata.get("fold")
            if rule == "derived":
                continue
            values = [getattr(part, spec.name) for part in parts]
            folded[spec.name] = dict(values[0]) if rule == "once" else _add(values)
        return cls(**folded, latency_ms=latency_summary(latency_samples),
                   per_shard=list(parts))

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-friendly view (the HTTP ``GET /stats`` payload)."""
        return asdict(self)

    def to_text(self) -> str:
        """Render one line per field: the ``serve --stats`` footer.

        Dicts render inline as sorted ``key value`` pairs; each
        :attr:`per_shard` record follows, indented under its index.
        """
        lines = []
        for spec in fields(self):
            value = getattr(self, spec.name)
            label = spec.name.replace("_", " ") + ":"
            if isinstance(value, list):
                if value:
                    lines.append(label)
                for index, part in enumerate(value):
                    lines.append(f"  [{index}]")
                    lines.append(textwrap.indent(part.to_text(), "    "))
                continue
            lines.append(f"{label:<24}{_render(value)}")
        return "\n".join(lines)
