"""Sharded, concurrent multi-tenant serving: N independent service shards.

:class:`ShardedExplanationService` is the horizontal layer above
:class:`~repro.service.service.ExplanationService`.  It partitions the
tenant population across ``num_shards`` fully independent shards, each
owning

* its **own** :class:`~repro.core.scenario.ScenarioBuilder` with a private
  :class:`~repro.owl.MaterializationCache` (closure cache), over **one
  shared, read-only base graph** — every shard's scenario graphs are COW
  :meth:`~repro.rdf.graph.Graph.copy` children of the same dictionary-
  encoded family, so the ontology + knowledge graph is stored once — and
  one shared :class:`~repro.owl.BaseClosure`: the base is reasoned once
  per fleet, and every shard's closure misses extend that closure;
* its own scenario cache, :class:`~repro.users.sessions.SessionRegistry`
  and statistics counters;
* an **admission gate** — the work runs on the calling thread, at most
  ``workers`` calls at once, with up to ``queue_size`` more waiting for a
  slot in arrival order; the next caller is shed with a typed
  :class:`~repro.service.api.BackpressureError` instead of letting
  latency grow without bound.  Under the GIL a separate worker pool
  would add a thread hop per request, not parallelism.

Routing is stable and stateless: a session id minted by this layer is
``s<shard>:<n>``, so any front-end thread can route a follow-up request
with one string parse; persona- or profile-addressed requests hash their
profile's ``identifier`` (CRC-32) so one tenant's traffic always lands on
the shard holding its warm caches.  Aggregate capacity therefore scales
linearly with the shard count — N shards hold N× the scenarios and
closures one instance can — which is what carries a working set that
thrashes a single serial service.

Reads are snapshot-isolated end to end: each shard's service answers
against its cached scenarios, whose graphs are frozen when published
(see :meth:`repro.rdf.graph.Graph.freeze`), so an ``ask`` racing an
``update_scenario`` on the same session observes either the pre- or the
post-update scenario, never a torn mixture, and never blocks behind the
update lock.

Failure model (see ``docs/architecture.md`` § Failure model):

* **Deadlines** — :meth:`ServiceShard.submit` takes a per-request
  ``timeout``; a caller whose deadline passes while it waits for a slot
  gets a typed :class:`~repro.errors.DeadlineExceededError` without
  running.  Work that has started is never interrupted: if it finishes
  past the deadline, the same error is raised then (its cache fills are
  kept).
* **Circuit breaker** — consecutive failures or sustained deadline
  misses open the shard's :class:`CircuitBreaker`; callers then fail
  fast with :class:`~repro.errors.ShardUnavailableError` carrying a
  ``retry_after`` instead of queueing behind a sick shard.  After a
  jittered exponential cooldown a single half-open probe decides whether
  to close it again.
* **Retry** — the fleet retries **idempotent asks** (never updates) on
  :class:`~repro.errors.TransientServingError` with jittered exponential
  backoff, within the request's deadline.
* **Graceful drain** — ``stop(timeout=...)`` first rejects new calls,
  lets running calls and waiters finish until the deadline, then fails
  the remaining waiters with a typed
  :class:`~repro.errors.ServiceDrainingError` so no caller is left
  hanging.  ``stop`` is idempotent and safe to call concurrently.
"""

from __future__ import annotations

import gc
import itertools
import random
import threading
import time
import zlib
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..core.engine import ExplanationEngine
from ..core.scenario import Scenario, ScenarioBuilder
from ..errors import (
    DeadlineExceededError,
    RequestError,
    ServiceDrainingError,
    ShardUnavailableError,
    TransientServingError,
    UnavailableError,
)
from ..foodkg.catalog import build_core_catalog
from ..foodkg.schema import FoodCatalog
from ..owl import MaterializationCache
from ..storage.snapshot import GraphSnapshot, load_snapshot
from ..users.context import SystemContext
from ..users.personas import persona as persona_lookup
from ..users.profile import UserProfile
from ..users.sessions import SessionRegistry, UserSession
from .api import BackpressureError, ExplanationRequest, ExplanationResponse, ServiceStats
from .service import ExplanationService

__all__ = ["CircuitBreaker", "ServiceShard", "ShardedExplanationService"]


class CircuitBreaker:
    """Fail-fast gate for one shard: closed → open → half-open → closed.

    Closed is the steady state; every completed request reports its
    outcome here.  ``failure_threshold`` consecutive failures or
    ``timeout_threshold`` consecutive deadline misses trip it **open**:
    :meth:`acquire` then raises :class:`ShardUnavailableError`
    immediately (no queueing behind a sick shard) with a ``retry_after``
    equal to the remaining cooldown.  The cooldown is jittered
    exponential — ``cooldown × 2^(open streak) × U[0.5, 1.0)`` from a
    seeded RNG, capped at ``max_cooldown`` — so a fleet of callers does
    not re-converge on the shard in lockstep.  When it elapses the
    breaker goes **half-open**: exactly one probe request is admitted;
    its success closes the breaker, its failure re-opens with a doubled
    cooldown.
    """

    def __init__(self, shard_index: int, *, failure_threshold: int = 5,
                 timeout_threshold: int = 8, cooldown: float = 0.25,
                 max_cooldown: float = 30.0, seed: int = 0) -> None:
        if failure_threshold <= 0 or timeout_threshold <= 0:
            raise ValueError("breaker thresholds must be positive")
        self.shard_index = shard_index
        self.failure_threshold = failure_threshold
        self.timeout_threshold = timeout_threshold
        self.cooldown = cooldown
        self.max_cooldown = max_cooldown
        # Distinct stream per shard from one fleet seed, deterministically.
        self._rng = random.Random((seed << 8) ^ shard_index)
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._consecutive_timeouts = 0
        self._open_streak = 0
        self._open_until = 0.0
        self._probe_in_flight = False
        # Lifetime telemetry (exported via stats()).
        self.opens = 0
        self.failures = 0
        self.timeouts = 0
        self.rejected_fast = 0

    # -- state ----------------------------------------------------------
    def _state_locked(self) -> str:
        if self._state == "open" and time.monotonic() >= self._open_until:
            self._state = "half_open"
            self._probe_in_flight = False
        return self._state

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _cooldown_locked(self) -> float:
        base = min(self.cooldown * (2 ** max(self._open_streak - 1, 0)),
                   self.max_cooldown)
        return base * (0.5 + self._rng.random() / 2.0)

    def _open_locked(self) -> None:
        self._state = "open"
        self._open_streak += 1
        self.opens += 1
        self._open_until = time.monotonic() + self._cooldown_locked()
        self._probe_in_flight = False
        self._consecutive_failures = 0
        self._consecutive_timeouts = 0

    # -- admission ------------------------------------------------------
    def acquire(self) -> None:
        """Admit one request, or fail fast with :class:`ShardUnavailableError`."""
        with self._lock:
            state = self._state_locked()
            if state == "closed":
                return
            if state == "half_open" and not self._probe_in_flight:
                self._probe_in_flight = True
                return
            self.rejected_fast += 1
            if state == "open":
                retry_after = max(self._open_until - time.monotonic(), 0.0)
            else:  # half-open with the probe already in flight
                retry_after = self.cooldown
            raise ShardUnavailableError(
                f"shard {self.shard_index} circuit breaker is "
                f"{'open' if state == 'open' else 'probing'}; "
                f"retry in {retry_after:.2f}s",
                scope="shard", shard=self.shard_index,
                retry_after=round(max(retry_after, 0.001), 3),
            )

    # -- outcomes -------------------------------------------------------
    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._probe_in_flight = False
            self._open_streak = 0
            self._consecutive_failures = 0
            self._consecutive_timeouts = 0

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1
            self._probe_in_flight = False
            if self._state_locked() != "closed":
                # A failed probe (or a failure while open) escalates.
                self._open_locked()
                return
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_threshold:
                self._open_locked()

    def record_timeout(self) -> None:
        with self._lock:
            self.timeouts += 1
            self._probe_in_flight = False
            if self._state_locked() != "closed":
                self._open_locked()
                return
            self._consecutive_timeouts += 1
            if self._consecutive_timeouts >= self.timeout_threshold:
                self._open_locked()

    def record_neutral(self) -> None:
        """An outcome that says nothing about shard health (shed work)."""
        with self._lock:
            self._probe_in_flight = False

    def stats_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "state": self._state_locked(),
                "opens": self.opens,
                "failures": self.failures,
                "timeouts": self.timeouts,
                "rejected_fast": self.rejected_fast,
            }


class _Waiter:
    """One caller queued for a shard slot."""

    __slots__ = ("event", "state")

    def __init__(self) -> None:
        self.event = threading.Event()
        #: ``"waiting"`` until a finishing call hands over its slot
        #: (``"granted"``) or a bounded drain gives up (``"cancelled"``).
        #: Written under the shard lock, then ``event`` is set.
        self.state = "waiting"


class ServiceShard:
    """One shard: a private :class:`ExplanationService` behind an admission gate.

    :meth:`submit` runs the work on the caller's thread.  At most
    ``workers`` calls execute at once; up to ``queue_size`` more wait for
    a slot in arrival order, and the next caller is shed with a typed
    :class:`BackpressureError`.
    """

    def __init__(self, index: int, service: ExplanationService,
                 queue_size: int = 64, workers: int = 2, *,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        if queue_size <= 0:
            raise ValueError("queue_size must be positive")
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.index = index
        self.service = service
        self.queue_size = queue_size
        self.workers = workers
        self.breaker = breaker if breaker is not None else CircuitBreaker(index)
        self.rejected = 0
        self.timed_out = 0
        self.cancelled = 0
        # One lock guards the running count, the waiter queue, the
        # draining flag and the counters above.  The draining check and
        # the admission are one critical section, so a call cannot slip
        # into a shard after stop() has begun.
        self._lock = threading.Lock()
        #: stop() waits on this for the running count to reach zero.
        self._idle = threading.Condition(self._lock)
        #: Calls holding a slot.  A finishing call hands its slot straight
        #: to the oldest waiter, so waiters exist only while all
        #: ``workers`` slots are held.
        self._running = 0
        self._waiters: Deque[_Waiter] = deque()
        self._stopping = False

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, fn, *args, timeout: Optional[float] = None, **kwargs):
        """Run ``fn(*args, **kwargs)`` on the caller's thread and return its result.

        ``timeout`` (seconds) sets the request's deadline.  A caller still
        waiting for a slot when it passes raises
        :class:`DeadlineExceededError` without running ``fn``.  Work that
        has started is never interrupted: if it finishes after the
        deadline it raises the same error then, and keeps its side
        effects (cache fills).  Raises :class:`ServiceDrainingError` once
        the shard is stopping, :class:`ShardUnavailableError` while its
        breaker is open and :class:`BackpressureError` when
        ``queue_size`` callers are already waiting.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        self._acquire(deadline, timeout)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._record_outcome(exc)
            raise
        finally:
            self._release()
        if deadline is not None and time.monotonic() > deadline:
            raise self._deadline_missed(timeout, "finished after")
        self._record_outcome(None)
        return result

    def _acquire(self, deadline: Optional[float], timeout: Optional[float]) -> None:
        """Take a slot, waiting in arrival order for one if all are held."""
        with self._lock:
            if self._stopping:
                raise ServiceDrainingError(
                    f"shard {self.index} is draining; new work rejected",
                    scope="shard", shard=self.index, retry_after=1.0)
            self.breaker.acquire()
            if self._running < self.workers:
                self._running += 1
                return
            if len(self._waiters) >= self.queue_size:
                self.rejected += 1
                self.breaker.record_neutral()
                raise BackpressureError(
                    f"shard {self.index} queue is full "
                    f"({self.queue_size} pending requests); retry later",
                    scope="shard",
                    shard=self.index,
                    queue_depth=self.queue_size,
                    limit=self.queue_size,
                    retry_after=0.1,
                )
            waiter = _Waiter()
            self._waiters.append(waiter)
        waiter.event.wait(None if deadline is None else deadline - time.monotonic())
        with self._lock:
            state = waiter.state
            if state == "waiting":
                self._waiters.remove(waiter)
        if state == "granted":
            return
        if state == "cancelled":
            error = ServiceDrainingError(
                f"shard {self.index} drained before this request ran",
                scope="shard", shard=self.index)
            self._record_outcome(error)
            raise error
        raise self._deadline_missed(timeout, "still waiting for a slot at")

    def _release(self) -> None:
        """Hand the caller's slot to the oldest waiter, or free it."""
        with self._lock:
            if self._waiters:
                waiter = self._waiters.popleft()
                waiter.state = "granted"
                waiter.event.set()
                return
            self._running -= 1
            if self._running == 0:
                self._idle.notify_all()

    def _deadline_missed(self, timeout: Optional[float], when: str) -> DeadlineExceededError:
        """Count one deadline miss, tell the breaker, and build the error."""
        with self._lock:
            self.timed_out += 1
        error = DeadlineExceededError(
            f"shard {self.index}: {when} the {timeout:.3f}s deadline",
            timeout=timeout, shard=self.index)
        self._record_outcome(error)
        return error

    def _record_outcome(self, exc: Optional[BaseException]) -> None:
        """Feed one completed request's outcome to the circuit breaker."""
        if exc is None or isinstance(exc, RequestError):
            # A served request — even an invalid one — proves the shard
            # healthy; client errors are the client's problem.
            self.breaker.record_success()
        elif isinstance(exc, DeadlineExceededError):
            self.breaker.record_timeout()
        elif isinstance(exc, TransientServingError):
            self.breaker.record_failure()
        elif isinstance(exc, UnavailableError):
            # Shed or drained work says nothing about this shard's health.
            self.breaker.record_neutral()
        else:
            # An unexpected internal error is a shard failure signal.
            self.breaker.record_failure()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def stop(self, timeout: Optional[float] = None) -> None:
        """Reject new calls, then let running calls and waiters finish.

        With ``timeout=None`` every waiter is served.  With a bounded
        timeout, callers still waiting for a slot when it passes fail
        with a typed :class:`ServiceDrainingError` and are counted in
        ``cancelled``; calls already running are left to finish.
        Idempotent and safe to call concurrently.
        """
        with self._lock:
            self._stopping = True
            if self._idle.wait_for(lambda: self._running == 0, timeout):
                return
            while self._waiters:
                waiter = self._waiters.popleft()
                waiter.state = "cancelled"
                waiter.event.set()
                self.cancelled += 1

    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        """Callers waiting for a slot."""
        return len(self._waiters)

    def stats(self) -> ServiceStats:
        stats = self.service.stats()
        stats.queue_depth = self.queue_depth()
        stats.requests_rejected = self.rejected
        stats.requests_timed_out = self.timed_out
        stats.requests_cancelled = self.cancelled
        stats.breaker = self.breaker.stats_dict()
        return stats


class ShardedExplanationService:
    """Hash-sharded, admission-controlled, snapshot-isolated explanation serving.

    One instance fans requests out across ``num_shards`` independent
    :class:`ExplanationService` shards (see the module docstring for the
    isolation, routing and failure model).  The public surface mirrors
    the single-instance service — :meth:`ask`, :meth:`explain`,
    :meth:`update_scenario`, session management, :meth:`stats` — so
    callers and transports can swap one for the other.

    ``workers_per_shard`` bounds the calls executing at once on each
    shard and ``queue_size`` the callers waiting there for a slot.
    Fault-tolerance knobs: ``request_timeout`` is the default per-request
    deadline (``None`` = unbounded; per-call ``timeout=`` overrides);
    ``drain_timeout`` bounds :meth:`stop`; ``retry_attempts``/
    ``retry_backoff`` govern the internal retry of idempotent asks on
    :class:`TransientServingError`; ``breaker_*`` configure each shard's
    :class:`CircuitBreaker`.  ``fault_seed`` seeds every jitter source so
    chaos runs are reproducible.
    """

    def __init__(
        self,
        num_shards: int = 4,
        workers_per_shard: int = 2,
        queue_size: int = 64,
        catalog: Optional[FoodCatalog] = None,
        engine: Optional[ExplanationEngine] = None,
        max_cached_scenarios: int = 64,
        closure_cache_size: int = 16,
        max_sessions_per_shard: int = 1024,
        session_ttl: Optional[float] = None,
        default_persona: str = "paper",
        snapshot=None,
        request_timeout: Optional[float] = None,
        drain_timeout: Optional[float] = None,
        retry_attempts: int = 2,
        retry_backoff: float = 0.05,
        breaker_failure_threshold: int = 5,
        breaker_timeout_threshold: int = 8,
        breaker_cooldown: float = 0.25,
        fault_seed: int = 0,
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if snapshot is not None and engine is not None:
            raise ValueError("pass either engine= or snapshot=, not both")
        loaded: Optional[GraphSnapshot] = None
        if snapshot is not None:
            # Cold-start from the persistent snapshot store: the base
            # graph (term dictionary, triples, indexes) is rebuilt from
            # the struct-packed image instead of re-parsed from turtle,
            # its stored closure becomes the fleet's base closure, and
            # any persisted closures are seeded into the shard caches
            # below so first-touch requests skip materialisation.  The
            # catalog must be the one the snapshot graph was loaded from
            # (the curated core catalog unless ``catalog=`` says
            # otherwise).
            loaded = snapshot if isinstance(snapshot, GraphSnapshot) else load_snapshot(snapshot)
            self._base_engine = ExplanationEngine(builder=ScenarioBuilder(
                catalog if catalog is not None else build_core_catalog(),
                base_graph=loaded.graph, base_closure=loaded.base_closure))
        else:
            # One base engine supplies the shared, read-only ontology + KG
            # graph (and its term dictionary); every shard's builder
            # copies it COW.
            self._base_engine = engine if engine is not None else ExplanationEngine(catalog=catalog)
        # Every shard's builder is a fork of the base engine's: one axiom
        # index and one base closure (reasoned on the fleet's first closure
        # miss) serve every shard.
        base_builder = self._base_engine.builder
        self.request_timeout = request_timeout
        self.drain_timeout = drain_timeout
        self.retry_attempts = retry_attempts
        self.retry_backoff = retry_backoff
        self._retry_rng = random.Random((fault_seed << 8) ^ 0xA5)
        self._retry_lock = threading.Lock()
        self._stop_lock = threading.Lock()
        self._stopped = False
        self._draining = False
        self._shards: List[ServiceShard] = []
        for index in range(num_shards):
            builder = base_builder.fork(MaterializationCache(max_size=closure_cache_size))
            shard_engine = ExplanationEngine(builder=builder)
            service = ExplanationService(
                engine=shard_engine,
                max_cached_scenarios=max_cached_scenarios,
                registry=SessionRegistry(max_sessions=max_sessions_per_shard,
                                         idle_ttl=session_ttl),
                default_persona=default_persona,
            )
            breaker = CircuitBreaker(
                index,
                failure_threshold=breaker_failure_threshold,
                timeout_threshold=breaker_timeout_threshold,
                cooldown=breaker_cooldown,
                seed=fault_seed,
            )
            self._shards.append(ServiceShard(index, service,
                                             queue_size=queue_size,
                                             workers=workers_per_shard,
                                             breaker=breaker))
        self._session_counter = itertools.count(1)
        self._round_robin = itertools.count()
        self.default_persona = default_persona
        self._froze_gc = False
        if loaded is not None:
            self._seed_closures(loaded)
            # The seeded working set (base graph, dictionary, closures) is
            # long-lived by construction: nothing in it dies before the
            # fleet does.  Left in the young/old generations it is exactly
            # the object population that tips the collector into a full
            # gen-2 pass mid-traffic — a multi-second stop-the-world that
            # stalls every in-flight request at once and lands squarely in
            # the tail.  Freeze it into the permanent generation so
            # steady-state collections never retrace it.  No collection
            # first: the load builds no throwaway graphs, so one would
            # find nearly nothing to free.
            gc.freeze()
            self._froze_gc = True

    def _seed_closures(self, loaded: GraphSnapshot) -> None:
        """Install snapshot closure entries into the shard caches.

        A labelled entry goes only to its label's home shard (the same
        CRC-32 routing requests use, so a closure labelled with a
        profile's ``identifier`` sits exactly where that tenant's traffic
        lands); unlabelled entries go to every shard.  The graphs are
        shared read-only between shards — the caches never mutate a
        published entry.
        """
        for entry in loaded.closures:
            if entry.label is None:
                targets = self._shards
            else:
                targets = [self._shards[self._hash_key(entry.label) % len(self._shards)]]
            for shard in targets:
                cache = shard.service.engine.builder.closure_cache
                if cache is not None:
                    cache.install(entry.asserted, entry.closure, entry.post_added)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        """True once a stop() has begun; transports 503 new work."""
        return self._draining

    def stop(self, timeout: Optional[float] = None) -> None:
        """Drain the fleet and stop every shard; see :meth:`ServiceShard.stop`.

        ``timeout`` (default ``drain_timeout``) bounds the *total* drain
        across all shards; callers still waiting for a slot at the
        deadline fail with :class:`ServiceDrainingError`.  Idempotent and
        safe to call concurrently — later callers wait for the first drain
        to finish.
        """
        if timeout is None:
            timeout = self.drain_timeout
        self._draining = True
        with self._stop_lock:
            if self._stopped:
                return
            deadline = None if timeout is None else time.monotonic() + timeout
            for shard in self._shards:
                remaining = (None if deadline is None
                             else max(deadline - time.monotonic(), 0.0))
                shard.stop(timeout=remaining)
            if self._froze_gc:
                # Hand the seeded working set back to the collector so a
                # process that retires one fleet and builds another (tests,
                # rolling restarts in-process) doesn't grow the permanent
                # generation without bound.
                gc.unfreeze()
                self._froze_gc = False
            self._stopped = True

    def __enter__(self) -> "ShardedExplanationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def warm(self, requests: Optional[Sequence[Tuple]] = None
             ) -> "ShardedExplanationService":
        """Pre-parse the competency templates; optionally pre-build scenarios.

        ``requests`` is an iterable of ``(question, user, context)``
        triples the fleet expects to serve (e.g. the tenants whose
        closures the snapshot seeded).  Each is routed to its tenant's
        home shard — the same CRC-32 routing live traffic uses — and its
        scenario is built into that shard's cache, so the opening burst
        after a cold start pays warm-path cost instead of convoying on
        first-touch scenario builds (see
        :meth:`ExplanationService.prewarm_scenario`).
        """
        for shard in self._shards:
            shard.service.warm()
        for question, user, context in requests or ():
            shard = self._shard_by_key(user.identifier)
            shard.service.prewarm_scenario(question, user, context)
        return self

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> Sequence[ServiceShard]:
        return tuple(self._shards)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    @staticmethod
    def _hash_key(key: str) -> int:
        # CRC-32 rather than hash(): stable across processes and runs
        # (str hashing is salted per interpreter), so a session id minted
        # by one front-end routes identically everywhere.
        return zlib.crc32(key.encode("utf-8"))

    def _shard_by_key(self, key: str) -> ServiceShard:
        return self._shards[self._hash_key(key) % len(self._shards)]

    def shard_for_session(self, session_id: str) -> ServiceShard:
        """The shard owning ``session_id`` (parse the ``s<i>:`` prefix)."""
        if session_id.startswith("s") and ":" in session_id:
            prefix = session_id[1:session_id.index(":")]
            if prefix.isdigit():
                return self._shards[int(prefix) % len(self._shards)]
        # Foreign ids (opened directly on a shard's registry) fall back to
        # a stable hash of the id itself.
        return self._shard_by_key(session_id)

    def _shard_for_request(self, request: ExplanationRequest) -> ServiceShard:
        if request.session_id is not None:
            return self.shard_for_session(request.session_id)
        # A persona routes by its profile's identifier, like the persona
        # sessions and the snapshot labels for it, so all of one tenant's
        # traffic meets the same warm caches.
        user = request.user
        if user is None:
            user, _ = persona_lookup(request.persona or self.default_persona)
        return self._shard_by_key(user.identifier)

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def _mint_session_id(self, shard: ServiceShard) -> str:
        return f"s{shard.index}:{next(self._session_counter)}"

    def open_session(self, user: UserProfile, context: SystemContext) -> UserSession:
        """Open a session on the shard owning this profile's tenant key."""
        shard = self._shard_by_key(user.identifier)
        return shard.service.open_session(
            user, context, session_id=self._mint_session_id(shard))

    def open_persona_session(self, persona_key: str) -> UserSession:
        """Open a persona session on that persona's home shard."""
        user, _ = persona_lookup(persona_key)
        shard = self._shard_by_key(user.identifier)
        return shard.service.open_persona_session(
            persona_key, session_id=self._mint_session_id(shard))

    def close_session(self, session_id: str) -> Optional[UserSession]:
        return self.shard_for_session(session_id).service.close_session(session_id)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _retry_delay(self, attempt: int) -> float:
        with self._retry_lock:
            jitter = 0.5 + self._retry_rng.random() / 2.0
        return min(self.retry_backoff * (2 ** attempt), 2.0) * jitter

    def explain(self, request: ExplanationRequest,
                timeout: Optional[float] = None) -> ExplanationResponse:
        """Serve one request on its home shard, on the caller's thread.

        ``timeout`` (default ``request_timeout``) bounds the whole call,
        retries included; expiry raises :class:`DeadlineExceededError`
        (for work already running, when it finishes).  Asks are
        idempotent, so a :class:`TransientServingError` (e.g. an injected
        fault) is retried up to ``retry_attempts`` times with jittered
        exponential backoff before surfacing.  Raises
        :class:`BackpressureError` if the shard's queue is full and
        :class:`ShardUnavailableError` while its breaker is open (neither
        is retried internally — the caller owns that backoff); request-
        level errors propagate exactly as the underlying service raises
        them.
        """
        if timeout is None:
            timeout = self.request_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        shard = self._shard_for_request(request)
        attempt = 0
        while True:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise DeadlineExceededError(
                    f"request deadline ({timeout:.3f}s) expired",
                    timeout=timeout, shard=shard.index)
            try:
                return shard.submit(shard.service.explain, request,
                                    timeout=remaining)
            except TransientServingError:
                if attempt >= self.retry_attempts:
                    raise
                delay = self._retry_delay(attempt)
                if deadline is not None and time.monotonic() + delay >= deadline:
                    raise
                time.sleep(delay)
                attempt += 1

    def ask(
        self,
        question: str,
        session_id: Optional[str] = None,
        persona: Optional[str] = None,
        user: Optional[UserProfile] = None,
        context: Optional[SystemContext] = None,
        explanation_type: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> ExplanationResponse:
        """Convenience wrapper mirroring :meth:`ExplanationService.ask`."""
        return self.explain(ExplanationRequest(
            question=question, session_id=session_id, persona=persona,
            user=user, context=context, explanation_type=explanation_type,
        ), timeout=timeout)

    def update_scenario(self, question: str, session_id: Optional[str] = None,
                        persona: Optional[str] = None,
                        timeout: Optional[float] = None, **additions) -> Scenario:
        """Apply a scenario update on the owning shard.

        Updates are **not** idempotent, so unlike :meth:`explain` they are
        never retried internally — a transient failure surfaces to the
        caller, who knows whether re-applying is safe.
        """
        if timeout is None:
            timeout = self.request_timeout
        request = ExplanationRequest(question=question, session_id=session_id,
                                     persona=persona)
        shard = self._shard_for_request(request)
        return shard.submit(shard.service.update_scenario, question,
                            session_id=session_id, persona=persona,
                            timeout=timeout, **additions)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def clear_caches(self) -> None:
        for shard in self._shards:
            shard.service.clear_caches()

    def stats(self) -> ServiceStats:
        """The shards' records folded by :meth:`ServiceStats.combine`."""
        samples: List[float] = []
        for shard in self._shards:
            samples.extend(shard.service.latency_snapshot())
        return ServiceStats.combine([shard.stats() for shard in self._shards], samples)
