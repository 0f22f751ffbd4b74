"""Multi-user session tracking for the explanation service.

The paper's health-coach scenario is interactive: one user asks a stream
of follow-up questions against the same ontology.  A :class:`UserSession`
pins a ``(profile, context)`` pair under a stable identifier so a service
can answer many questions for the same user without re-shipping the
profile on every request, and keeps a small interaction history for
conversational features (e.g. "explain that differently").

:class:`SessionRegistry` is the thread-safe container the
:class:`repro.service.ExplanationService` uses to serve concurrent
sessions.  Its population is bounded twice over:

* a **capacity cap** (``max_sessions``) evicts the least-recently-active
  session, as before;
* an **idle TTL** (``idle_ttl``) lazily expires sessions that have not
  been touched for that many seconds, so a long-lived service facing
  millions of short-lived users no longer accumulates every session it
  has ever opened up to the cap.

Eviction is **transparent** for persona-addressed sessions: opening a
session with a ``persona`` key records a tiny rebuild spec (the key, not
the session), and a later :meth:`SessionRegistry.get` for an evicted id
re-opens the session from its persona's canonical profile instead of
raising.  Incremental profile growth made through ``update_scenario`` is
lost on rebuild — the session restarts from the persona baseline, exactly
as if the user had signed in again — which is the documented trade-off
for bounding memory.  Sessions opened with an explicit profile have no
spec and still raise :class:`~repro.errors.UnknownEntityError` (a
:class:`KeyError` subclass) after eviction.

Idle time is read from the registry's ``clock`` (``time.time`` unless
one is injected), so a test can step time instead of sleeping.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..errors import UnknownEntityError
from .context import SystemContext
from .profile import UserProfile

__all__ = ["UserSession", "SessionRegistry"]

_session_counter = itertools.count(1)


@dataclass
class UserSession:
    """One user's live interaction with the explanation service."""

    session_id: str
    user: UserProfile
    context: SystemContext
    #: The persona key this session was opened from, if any — the rebuild
    #: handle that lets the registry resurrect the session after eviction.
    persona: Optional[str] = None
    created_at: float = field(default_factory=time.time)
    last_active: float = field(default_factory=time.time)
    questions_asked: int = 0
    history: List[str] = field(default_factory=list)
    #: The time source that stamps ``last_active`` (its registry's clock).
    clock: Callable[[], float] = field(default=time.time, repr=False, compare=False)

    def record_question(self, question_text: str, keep_last: int = 50) -> None:
        """Note that the session asked ``question_text`` (bounded history)."""
        self.questions_asked += 1
        self.last_active = self.clock()
        self.history.append(question_text)
        if len(self.history) > keep_last:
            del self.history[: len(self.history) - keep_last]

    def summary(self) -> Dict[str, object]:
        """A dictionary view for logs and the ``serve`` CLI."""
        return {
            "session_id": self.session_id,
            "user": self.user.identifier,
            "questions_asked": self.questions_asked,
            "last_active": self.last_active,
        }


class SessionRegistry:
    """Thread-safe registry of live :class:`UserSession` objects.

    Sessions are kept in least-recently-active order; opening a session
    beyond ``max_sessions`` evicts the stalest one, and (with ``idle_ttl``
    set) any access first expires sessions idle longer than the TTL.
    Evicted persona-addressed sessions rebuild transparently on the next
    :meth:`get` (see the module docstring).  ``clock`` returns the current
    time in seconds; it stamps sessions and drives the TTL.
    """

    def __init__(self, max_sessions: int = 1024,
                 idle_ttl: Optional[float] = None,
                 max_rebuild_specs: int = 8192,
                 clock: Callable[[], float] = time.time) -> None:
        if max_sessions <= 0:
            raise ValueError("max_sessions must be positive")
        if idle_ttl is not None and idle_ttl <= 0:
            raise ValueError("idle_ttl must be positive (or None to disable)")
        self.max_sessions = max_sessions
        self.idle_ttl = idle_ttl
        self.max_rebuild_specs = max_rebuild_specs
        self.clock = clock
        self._sessions: "OrderedDict[str, UserSession]" = OrderedDict()
        #: session_id -> persona key, for transparent post-eviction rebuilds.
        #: Bounded LRU of its own: a spec is a two-string entry, so the cap
        #: can comfortably exceed ``max_sessions``.
        self._rebuild_specs: "OrderedDict[str, str]" = OrderedDict()
        self._lock = threading.Lock()
        self.evictions = 0
        self.ttl_evictions = 0
        self.rebuilds = 0

    # ------------------------------------------------------------------
    def _expire_idle_locked(self, now: float) -> None:
        """Drop sessions idle beyond the TTL (caller holds the lock).

        The registry is ordered least-recently-*accessed* first and
        ``last_active`` only moves forward on access, so expiry scans from
        the front and stops at the first live session.
        """
        if self.idle_ttl is None:
            return
        horizon = now - self.idle_ttl
        while self._sessions:
            session = next(iter(self._sessions.values()))
            if session.last_active >= horizon:
                break
            self._sessions.popitem(last=False)
            self.ttl_evictions += 1

    def _record_spec_locked(self, session_id: str, persona: str) -> None:
        self._rebuild_specs.pop(session_id, None)
        self._rebuild_specs[session_id] = persona
        while len(self._rebuild_specs) > self.max_rebuild_specs:
            self._rebuild_specs.popitem(last=False)

    def _new_session(self, session_id: str, user: UserProfile,
                     context: SystemContext, persona: Optional[str]) -> UserSession:
        now = self.clock()
        return UserSession(session_id=session_id, user=user, context=context,
                           persona=persona, created_at=now, last_active=now,
                           clock=self.clock)

    # ------------------------------------------------------------------
    def open(self, user: UserProfile, context: SystemContext,
             session_id: Optional[str] = None,
             persona: Optional[str] = None) -> UserSession:
        """Create (or replace) a session for ``user`` and return it.

        ``persona`` (a :data:`repro.users.personas.PERSONAS` key) marks the
        session as rebuildable after eviction.
        """
        if session_id is None:
            session_id = f"session-{next(_session_counter)}"
        session = self._new_session(session_id, user, context, persona)
        with self._lock:
            self._expire_idle_locked(self.clock())
            self._sessions.pop(session_id, None)
            self._sessions[session_id] = session
            if persona is not None:
                self._record_spec_locked(session_id, persona)
            while len(self._sessions) > self.max_sessions:
                self._sessions.popitem(last=False)
                self.evictions += 1
        return session

    def get(self, session_id: str) -> UserSession:
        """Return the live session, marking it most-recently-active.

        The session moves to the most-recent end of the LRU and its
        ``last_active`` is stamped with the registry clock, so the order
        the TTL sweep scans stays the order of ``last_active``.
        An evicted persona-addressed session is transparently re-opened
        from its persona's canonical profile (counted in :attr:`rebuilds`).
        Raises :class:`~repro.errors.UnknownEntityError` for ids that were
        never opened, or whose
        profile cannot be rebuilt.
        """
        with self._lock:
            now = self.clock()
            self._expire_idle_locked(now)
            session = self._sessions.get(session_id)
            if session is not None:
                session.last_active = now
                self._sessions.move_to_end(session_id)
                return session
            persona_key = self._rebuild_specs.get(session_id)
            if persona_key is None:
                raise UnknownEntityError(f"Unknown session {session_id!r}")
        # Rebuild outside the lock: persona lookup builds fresh profile and
        # context objects.  A concurrent rebuild of the same id is harmless
        # (both produce equal sessions; last publish wins).
        from .personas import persona as persona_lookup

        user, context = persona_lookup(persona_key)
        session = self._new_session(session_id, user, context, persona_key)
        with self._lock:
            existing = self._sessions.get(session_id)
            if existing is not None:
                existing.last_active = self.clock()
                self._sessions.move_to_end(session_id)
                return existing
            self._sessions[session_id] = session
            self.rebuilds += 1
            while len(self._sessions) > self.max_sessions:
                self._sessions.popitem(last=False)
                self.evictions += 1
        return session

    def close(self, session_id: str) -> Optional[UserSession]:
        """Remove and return the session, or ``None`` if it was not live.

        Closing also drops the rebuild spec: an explicitly closed session
        stays closed.
        """
        with self._lock:
            self._rebuild_specs.pop(session_id, None)
            return self._sessions.pop(session_id, None)

    def evict_idle(self) -> int:
        """Force a TTL sweep now; returns how many sessions were expired."""
        with self._lock:
            before = self.ttl_evictions
            self._expire_idle_locked(self.clock())
            return self.ttl_evictions - before

    def active(self) -> List[UserSession]:
        """All live sessions, least-recently-active first."""
        with self._lock:
            return list(self._sessions.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, session_id: object) -> bool:
        with self._lock:
            return session_id in self._sessions
