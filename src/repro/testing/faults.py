"""Seeded, deterministic fault injection for the serving stack.

The chaos suite and ``benchmarks/test_scaling_faults.py`` need to prove
that the fleet keeps its correctness and latency promises *under*
faults — latency spikes, transient exceptions, torn snapshot writes.
Faults that depend on wall-clock timing or unseeded randomness make
those proofs flaky, so this module injects them on a
**schedule over invocation counts**: each hook site keeps a counter, and
a fault fires when the counter hits the indexes (or modulus, or seeded
probability) its :class:`Fault` declares.  The same plan over the same
workload therefore always injects at the same logical points.

Hook sites currently wired into the stack:

====================  ====================================================
``materialize``       the service's scenario-build boundary, on a
                      scenario-cache miss (``ExplanationService._scenario``)
``query``             the service's query/generation boundary, per served
                      request (``ExplanationService.explain``)
``snapshot_write``    the snapshot writer, before each chunk of the
                      temp-file write (``storage.snapshot.save_snapshot``)
====================  ====================================================

Actions:

* ``error`` — raise :class:`InjectedFault` (a typed
  :class:`~repro.errors.TransientServingError`, so the retry path and
  the 503 taxonomy treat it exactly like a real transient);
* ``latency`` — sleep ``delay_ms`` at the site (a latency spike).

**Zero overhead when disabled**: hook sites are guarded by
``if faults.ACTIVE is not None`` — one module-attribute load and an
identity check, no function call, no allocation.  Activation is explicit
(:func:`activate` / the :func:`injected` context manager) or env-driven
(:func:`install_from_env` reads ``REPRO_FAULTS`` + ``REPRO_FAULT_SEED``;
the CLI ``serve`` command calls it).

The ``REPRO_FAULTS`` spec is a semicolon-separated list of clauses::

    site=action@trigger[:delay_ms]
    trigger := i,j,k... | every=N | p=0.05

e.g. ``REPRO_FAULTS="query=error@40,90;query=latency@every=25:150"``
fails the 41st and 91st served requests with a transient error and adds
a 150 ms spike to every 25th.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import TransientServingError

__all__ = [
    "ACTIVE",
    "Fault",
    "FaultInjector",
    "InjectedFault",
    "activate",
    "deactivate",
    "injected",
    "install_from_env",
]

#: Actions a :class:`Fault` may take when it fires.
ACTIONS = ("error", "latency")


class InjectedFault(TransientServingError):
    """An injected transient exception (the ``error`` action).

    Subclasses :class:`~repro.errors.TransientServingError` so the whole
    stack treats it exactly like a genuine transient infrastructure
    failure: the breaker counts it, idempotent asks retry it, and the
    transport maps an unretried one to a retryable 503.
    """


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: where, what, and on which invocations.

    Exactly one trigger should be set: ``at`` (explicit 0-based
    invocation indexes of the site), ``every`` (fire when ``index %
    every == 0``), or ``prob`` (fire with seeded probability per
    invocation).  ``delay_ms`` parameterises the ``latency`` action.
    """

    site: str
    action: str
    at: Tuple[int, ...] = ()
    every: Optional[int] = None
    prob: float = 0.0
    delay_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r} "
                             f"(expected one of {ACTIONS})")

    def matches(self, index: int, rng: random.Random) -> bool:
        """Whether this fault fires on the site's ``index``-th invocation."""
        if self.at:
            return index in self.at
        if self.every is not None:
            return index % self.every == 0
        if self.prob > 0.0:
            return rng.random() < self.prob
        return False


@dataclass
class FaultInjector:
    """A seeded plan of :class:`Fault` entries over named hook sites.

    Thread-safe: the per-site invocation counters and the RNG are
    guarded by one lock; the fault itself (sleep/raise) happens outside
    it.  :attr:`fired` is the audit log tests assert against —
    ``(site, action, invocation_index)`` per injected fault.
    """

    faults: Sequence[Fault] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        self._by_site: Dict[str, List[Fault]] = {}
        for fault in self.faults:
            self._by_site.setdefault(fault.site, []).append(fault)
        self._counts: Dict[str, int] = {}
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()
        self.fired: List[Tuple[str, str, int]] = []

    # ------------------------------------------------------------------
    def fire(self, site: str, **info: object) -> None:
        """Hook-point entry: sleep or raise if the plan says so.

        ``info`` is free-form context (such as the question type) used
        only for the exception message.  Sites without scheduled faults
        cost one dict lookup and a counter bump.
        """
        with self._lock:
            index = self._counts.get(site, 0)
            self._counts[site] = index + 1
            pending = [fault for fault in self._by_site.get(site, ())
                       if fault.matches(index, self._rng)]
            for fault in pending:
                self.fired.append((site, fault.action, index))
        for fault in pending:
            detail = f"injected {fault.action} at {site} (hit #{index}"
            if info:
                detail += ", " + ", ".join(f"{k}={v}" for k, v in sorted(info.items()))
            detail += ")"
            if fault.action == "latency":
                time.sleep(fault.delay_ms / 1000.0)
            else:
                raise InjectedFault(detail)

    def count(self, site: str) -> int:
        """How many times ``site`` has been hit so far."""
        with self._lock:
            return self._counts.get(site, 0)

    def fired_at(self, site: str) -> List[Tuple[str, str, int]]:
        """The audit-log entries for one site."""
        with self._lock:
            return [entry for entry in self.fired if entry[0] == site]

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultInjector":
        """Parse the ``REPRO_FAULTS`` clause grammar (see module docstring)."""
        faults: List[Fault] = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            try:
                head, _, trigger = clause.partition("@")
                site, _, action = head.partition("=")
                if not site or not action or not trigger:
                    raise ValueError("expected site=action@trigger")
                delay_ms = 0.0
                if ":" in trigger:
                    trigger, _, delay = trigger.partition(":")
                    delay_ms = float(delay)
                if trigger.startswith("every="):
                    faults.append(Fault(site=site, action=action,
                                        every=int(trigger[6:]), delay_ms=delay_ms))
                elif trigger.startswith("p="):
                    faults.append(Fault(site=site, action=action,
                                        prob=float(trigger[2:]), delay_ms=delay_ms))
                else:
                    indexes = tuple(int(part) for part in trigger.split(","))
                    faults.append(Fault(site=site, action=action,
                                        at=indexes, delay_ms=delay_ms))
            except ValueError as exc:
                raise ValueError(f"bad REPRO_FAULTS clause {clause!r}: {exc}") from exc
        return cls(faults=tuple(faults), seed=seed)


#: The process-wide active injector; ``None`` (the default) means every
#: hook site is a no-op guarded by one identity check.
ACTIVE: Optional[FaultInjector] = None


def activate(injector: FaultInjector) -> FaultInjector:
    """Install ``injector`` as the process-wide active plan."""
    global ACTIVE
    ACTIVE = injector
    return injector


def deactivate() -> None:
    """Disable fault injection (hook sites return to zero-overhead)."""
    global ACTIVE
    ACTIVE = None


class injected:
    """``with injected(FaultInjector(...)) as inj:`` — scoped activation.

    Guarantees deactivation on exit so a failing chaos test can never
    leak its fault plan into the rest of the suite.
    """

    def __init__(self, injector: FaultInjector) -> None:
        self._injector = injector

    def __enter__(self) -> FaultInjector:
        return activate(self._injector)

    def __exit__(self, *exc_info: object) -> None:
        deactivate()


def install_from_env(environ: Optional[Mapping[str, str]] = None
                     ) -> Optional[FaultInjector]:
    """Activate an injector from ``REPRO_FAULTS`` / ``REPRO_FAULT_SEED``.

    Returns the active injector, or ``None`` (and deactivates nothing)
    when the env var is unset — the normal production case.
    """
    if environ is None:
        import os

        environ = os.environ
    spec = environ.get("REPRO_FAULTS")
    if not spec:
        return None
    seed = int(environ.get("REPRO_FAULT_SEED", "0"))
    return activate(FaultInjector.from_spec(spec, seed=seed))
