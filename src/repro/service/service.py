"""The explanation service: a high-throughput, multi-user engine facade.

:class:`ExplanationService` is the serving layer the paper's interactive
health-coach scenario implies: one ontology + knowledge graph, many users,
many questions.  It wraps one :class:`~repro.core.engine.ExplanationEngine`
and layers the caches that make repeated traffic cheap:

* the **prepared-query cache** (:func:`repro.sparql.prepare_cached`):
  competency SPARQL templates are parsed — and their cost-based execution
  plans compiled (:mod:`repro.sparql.planner`) — once per process;
* the **closure cache** (:class:`repro.owl.MaterializationCache`, held by
  the engine's scenario builder): a repeated request skips OWL
  re-materialisation because its assembled graph has the same fingerprint;
* a **scenario cache** (this module): a repeated ``(user, context,
  question)`` skips assembly *and* annotation entirely, and a batch that
  asks several explanation types about one question builds its scenario
  once.

Sessions (:class:`repro.users.SessionRegistry`) give concurrent users
stable identifiers so follow-up questions ride the same profile/context
without re-sending them.

Typical use::

    service = ExplanationService()
    session = service.open_session(*persona("paper"))
    response = service.ask("Why should I eat Sushi?", session_id=session.session_id)
    responses = service.explain_batch([ExplanationRequest(question=q, persona="paper")
                                       for q in questions])
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..core.engine import ExplanationEngine
from ..core.questions import Question, parse_question
from ..errors import RequestError
from ..core.scenario import Scenario
from ..foodkg.schema import FoodCatalog
from ..sparql import planner_stats, prepared_cache
from ..testing import faults
from ..users.context import SystemContext
from ..users.personas import persona as persona_lookup
from ..users.profile import UserProfile
from ..users.sessions import SessionRegistry, UserSession
from .api import ExplanationRequest, ExplanationResponse, ServiceStats, latency_summary

__all__ = ["ExplanationService"]

#: Cache key identifying a scenario: all components are frozen dataclasses.
ScenarioKey = Tuple[Question, UserProfile, SystemContext]


class ExplanationService:
    """Serves explanation requests for many users against one shared engine."""

    def __init__(
        self,
        engine: Optional[ExplanationEngine] = None,
        catalog: Optional[FoodCatalog] = None,
        max_cached_scenarios: int = 64,
        registry: Optional[SessionRegistry] = None,
        default_persona: str = "paper",
        latency_window: int = 2048,
    ) -> None:
        if max_cached_scenarios <= 0:
            raise ValueError("max_cached_scenarios must be positive")
        self._engine = engine
        self._catalog = catalog
        self._engine_lock = threading.Lock()
        self.registry = registry if registry is not None else SessionRegistry()
        self.default_persona = default_persona
        self._scenarios: "OrderedDict[ScenarioKey, Scenario]" = OrderedDict()
        self._scenario_lock = threading.Lock()
        # Serialises update_scenario's fetch-grow-publish sequence so two
        # concurrent updates to one session cannot drop each other's facts;
        # plain serving never takes this lock.
        self._update_lock = threading.Lock()
        self.max_cached_scenarios = max_cached_scenarios
        # Guards the latency window: list(deque) raises if a concurrent
        # append mutates the deque mid-iteration, so both the record and
        # the snapshot take this lock.
        self._latency_lock = threading.Lock()
        self._latencies: Deque[float] = deque(maxlen=latency_window)
        self.requests_served = 0
        self.scenario_cache_hits = 0
        self.scenario_cache_misses = 0
        self.scenario_updates = 0

    # ------------------------------------------------------------------
    # Engine access / warm-up
    # ------------------------------------------------------------------
    @property
    def engine(self) -> ExplanationEngine:
        """The shared engine, built lazily on first use."""
        if self._engine is None:
            with self._engine_lock:
                if self._engine is None:
                    self._engine = ExplanationEngine(catalog=self._catalog)
        return self._engine

    def warm(self) -> "ExplanationService":
        """Eagerly build the engine and pre-parse the competency templates.

        Calling this before accepting traffic moves the one-off costs
        (ontology build, knowledge-graph load, query parsing) out of the
        first request's latency.
        """
        from ..core.queries import (
            contextual_template,
            contrastive_template,
            counterfactual_template,
        )
        from ..sparql import prepare_cached

        _ = self.engine
        prepare_cached(contextual_template(match_ecosystem=True))
        prepare_cached(contrastive_template())
        prepare_cached(counterfactual_template())
        return self

    def prewarm_scenario(self, question, user: UserProfile,
                         context: SystemContext) -> bool:
        """Build (and cache) the scenario one expected request will need.

        Cold-started processes answer their first request per tenant
        30-40 ms slower than steady state even with the closure seeded
        from a snapshot: the scenario graph assembly, fact annotation and
        cache insertion still run on the request path, and under a
        concurrent opening burst those first touches convoy behind each
        other.  Driving the expected ``(question, user, context)`` triples
        through this method before admitting traffic moves that work into
        the cold-start window.  Returns ``True`` if the scenario was
        already cached.
        """
        parsed = question if isinstance(question, Question) else parse_question(question)
        _, hit = self._scenario(parsed, user, context)
        return hit

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def open_session(self, user: UserProfile, context: SystemContext,
                     session_id: Optional[str] = None) -> UserSession:
        """Register a user session and return it."""
        return self.registry.open(user, context, session_id=session_id)

    def open_persona_session(self, persona_key: str,
                             session_id: Optional[str] = None) -> UserSession:
        """Open a session for a registered persona key.

        The key is recorded with the session, so if the registry later
        evicts it (capacity or idle TTL) a follow-up request on the same
        session id transparently rebuilds the session from the persona's
        canonical profile.
        """
        user, context = persona_lookup(persona_key)
        return self.registry.open(user, context, session_id=session_id,
                                  persona=persona_key)

    def close_session(self, session_id: str) -> Optional[UserSession]:
        """End a session; returns it (or ``None`` if unknown)."""
        return self.registry.close(session_id)

    # ------------------------------------------------------------------
    # Request resolution and the scenario cache
    # ------------------------------------------------------------------
    def _resolve(self, request: ExplanationRequest) -> Tuple[UserProfile, SystemContext,
                                                             Optional[UserSession]]:
        """Map a request to its (user, context, session) triple."""
        if request.session_id is not None:
            session = self.registry.get(request.session_id)
            return session.user, session.context, session
        if request.user is not None or request.context is not None:
            if request.user is None or request.context is None:
                raise RequestError(
                    "ExplanationRequest needs both user and context (or neither); "
                    "got only one — refusing to silently answer for the default persona"
                )
            return request.user, request.context, None
        user, context = persona_lookup(request.persona or self.default_persona)
        return user, context, None

    def _scenario(self, question: Question, user: UserProfile,
                  context: SystemContext) -> Tuple[Scenario, bool]:
        """Return the (possibly cached) scenario and whether it was a hit."""
        key: ScenarioKey = (question, user, context)
        with self._scenario_lock:
            cached = self._scenarios.get(key)
            if cached is not None:
                self.scenario_cache_hits += 1
                self._scenarios.move_to_end(key)
                return cached, True
        if faults.ACTIVE is not None:
            faults.ACTIVE.fire("materialize", question=question.question_type)
        scenario = self.engine.build_scenario(question, user, context)
        with self._scenario_lock:
            self.scenario_cache_misses += 1
            self._cache_scenario(key, scenario)
        return scenario, False

    def _cache_scenario(self, key: ScenarioKey, scenario: Scenario) -> None:
        """Cache ``scenario`` under ``key``; the caller holds ``_scenario_lock``.

        Entries are bounded by ``max_cached_scenarios`` and by the distinct
        closures they hold, which may not outnumber the closure cache's
        entries.  A closure is most of a scenario's memory: without the
        second bound the scenario cache kept closures alive long after
        the closure cache had evicted them.
        """
        self._scenarios[key] = scenario
        self._scenarios.move_to_end(key)
        closure_cache = self.engine.builder.closure_cache
        budget = closure_cache.max_size if closure_cache is not None else self.max_cached_scenarios
        while (len(self._scenarios) > self.max_cached_scenarios
               or len({id(cached.inferred) for cached in self._scenarios.values()}) > budget):
            self._scenarios.popitem(last=False)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def explain(self, request: ExplanationRequest) -> ExplanationResponse:
        """Serve one request through every cache layer.

        Reads are **snapshot-isolated**: the scenario is fetched (or built)
        once and the generators run against its graphs directly.  Published
        graphs are frozen and :meth:`update_scenario` publishes a new
        scenario instead of mutating one, so a concurrent update can never
        be observed mid-flight and reads never wait on the update lock.
        """
        start = time.perf_counter()
        user, context, session = self._resolve(request)
        question = parse_question(request.question)
        scenario, hit = self._scenario(question, user, context)
        if faults.ACTIVE is not None:
            faults.ACTIVE.fire("query", question=question.question_type)
        explanation = self.engine.explain(
            question, user, context,
            explanation_type=request.explanation_type,
            scenario=scenario,
        )
        if session is not None:
            session.record_question(request.question)
        elapsed = time.perf_counter() - start
        with self._scenario_lock:
            self.requests_served += 1
        with self._latency_lock:
            self._latencies.append(elapsed)
        return ExplanationResponse(
            request=request,
            explanation=explanation,
            session_id=session.session_id if session is not None else None,
            scenario_cache_hit=hit,
            elapsed_seconds=elapsed,
            scenario=scenario,
        )

    def ask(
        self,
        question: str,
        session_id: Optional[str] = None,
        persona: Optional[str] = None,
        user: Optional[UserProfile] = None,
        context: Optional[SystemContext] = None,
        explanation_type: Optional[str] = None,
    ) -> ExplanationResponse:
        """Convenience wrapper building the :class:`ExplanationRequest` inline."""
        return self.explain(ExplanationRequest(
            question=question, session_id=session_id, persona=persona,
            user=user, context=context, explanation_type=explanation_type,
        ))

    def update_scenario(
        self,
        question: str,
        session_id: Optional[str] = None,
        persona: Optional[str] = None,
        user: Optional[UserProfile] = None,
        context: Optional[SystemContext] = None,
        *,
        likes: Sequence[str] = (),
        dislikes: Sequence[str] = (),
        allergies: Sequence[str] = (),
        diets: Sequence[str] = (),
        conditions: Sequence[str] = (),
        goals: Sequence[str] = (),
        recommendation=None,
    ) -> Scenario:
        """Mutate a live scenario (new restriction/preference/recommendation)
        without rebuilding it.

        The scenario for ``question`` under the addressed user is fetched
        from (or, on a first ask, built into) the scenario cache, grown
        incrementally through the engine's delta-driven closure path, and
        re-cached under the updated profile.  **Durability depends on the
        addressing mode**: a session-addressed update advances the session's
        profile, so follow-up asks on that session resolve to the grown
        profile and hit the updated entry; persona- or explicit-user
        addressed updates cannot rewrite their (immutable) source profile —
        later asks under the same persona still serve the original scenario,
        and the caller should keep using the returned updated
        :class:`Scenario` (or ask with ``user=updated.user``) to see the new
        facts.  Returns the updated scenario.
        """
        request = ExplanationRequest(
            question=question, session_id=session_id, persona=persona,
            user=user, context=context,
        )
        with self._update_lock:
            resolved_user, resolved_context, session = self._resolve(request)
            parsed = parse_question(question)
            scenario, _ = self._scenario(parsed, resolved_user, resolved_context)
            updated = self.engine.update_scenario(
                scenario,
                likes=likes, dislikes=dislikes, allergies=allergies,
                diets=diets, conditions=conditions, goals=goals,
                recommendation=recommendation,
            )
            with self._scenario_lock:
                self.scenario_updates += 1
                self._cache_scenario((parsed, updated.user, resolved_context), updated)
            if session is not None:
                session.user = updated.user
        return updated

    def explain_batch(self, requests: Sequence[ExplanationRequest]) -> List[ExplanationResponse]:
        """Serve a batch, amortising scenario construction across requests.

        Requests that share a ``(user, context, question)`` triple — the
        same question asked under several explanation types, or by several
        sessions of the same persona — reuse one assembled-and-reasoned
        scenario; distinct triples still benefit from the closure and
        prepared-query caches underneath.
        """
        return [self.explain(request) for request in requests]

    def ask_batch(self, items: Sequence[Tuple[str, str]]) -> List[ExplanationResponse]:
        """Answer ``(persona_key, question)`` pairs as one batch."""
        return self.explain_batch([
            ExplanationRequest(question=question, persona=persona_key)
            for persona_key, question in items
        ])

    def explain_all_types(self, request: ExplanationRequest) -> Dict[str, ExplanationResponse]:
        """Answer one question under every supported explanation type.

        The scenario is built (or fetched) once; the nine generators then
        run against the shared reasoned graph.  A session-addressed
        request is recorded in the session history once, not once per
        type.
        """
        user, context, session = self._resolve(request)
        responses: Dict[str, ExplanationResponse] = {}
        for explanation_type in self.engine.supported_explanation_types:
            typed = ExplanationRequest(
                question=request.question, user=user, context=context,
                explanation_type=explanation_type,
            )
            response = self.explain(typed)
            if session is not None:
                response.session_id = session.session_id
            responses[explanation_type] = response
        if session is not None:
            session.record_question(request.question)
        return responses

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def clear_caches(self) -> None:
        """Drop the scenario cache and the engine's closure cache."""
        with self._scenario_lock:
            self._scenarios.clear()
        # Don't force a lazy engine build just to clear a cache it has not
        # populated yet.
        closure = self._engine.builder.closure_cache if self._engine is not None else None
        if closure is not None:
            closure.clear()

    def latency_snapshot(self) -> List[float]:
        """Recent serve latencies in seconds (bounded sliding window).

        Copied under the lock, so it is safe against concurrent
        :meth:`explain` calls appending to the window.
        """
        with self._latency_lock:
            return list(self._latencies)

    def stats(self) -> ServiceStats:
        """A snapshot of every cache layer's counters.

        Safe on an idle service: reading stats never triggers the lazy
        engine build.
        """
        closure = self._engine.builder.closure_cache if self._engine is not None else None
        return ServiceStats(
            requests_served=self.requests_served,
            scenario_cache_hits=self.scenario_cache_hits,
            scenario_cache_misses=self.scenario_cache_misses,
            scenario_updates=self.scenario_updates,
            closure_cache=closure.stats() if closure is not None else {},
            prepared_query_cache=prepared_cache().stats(),
            query_planner=planner_stats(),
            term_store=(self._engine.builder.store_stats()
                        if self._engine is not None else {}),
            active_sessions=len(self.registry),
            session_rebuilds=self.registry.rebuilds,
            latency_ms=latency_summary(self.latency_snapshot()),
        )
