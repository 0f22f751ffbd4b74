"""Cached OWL materialisation keyed by graph fingerprint, grown from one base closure.

Running the :class:`~repro.owl.reasoner.Reasoner` over a whole scenario
graph is by far the most expensive stage of the explanation pipeline — it
iterates rule application over the ontology + knowledge graph + scenario
individuals until a fixed point.  Two facts make that avoidable:

* every scenario graph is the same **shared base** (FEO ontology + food
  KG) plus a few dozen asserted triples (user, system, ecosystem,
  question), and the axioms are monotone, so the closure of a scenario is
  the base's closure extended with the scenario's delta;
* an interactive service sees the *same* scenario graph over and over:
  the same user asking the same (or a re-asked) question assembles a
  triple-identical graph, so its deductive closure is also identical.

:class:`BaseClosure` exploits the first: it reasons the base graph once —
lazily, single-flight, consistency-checked — and freezes the result.  Its
:meth:`~BaseClosure.reasoner` hands out reasoners whose ``run()`` is a COW
:meth:`~repro.rdf.graph.Graph.copy` of that frozen closure grown by
:meth:`repro.owl.reasoner.Reasoner.extend` with the graph's asserted
triples beyond the base.  A full :meth:`Reasoner.run` happens only for the
base itself, or when the axioms are not monotone, or when the graph is not
the base plus data triples in the base's dictionary.

:class:`MaterializationCache` exploits the second: it keys the
materialised closure by :meth:`repro.rdf.graph.Graph.fingerprint` — an
O(1), incrementally-maintained content hash — so a repeated scenario build
skips reasoning entirely, and *any* mutation of the input graph changes the
fingerprint and naturally invalidates the entry.

Beyond exact repeats, the cache has an **incremental path**
(:meth:`MaterializationCache.extend`): when a scenario graph is a strict
superset of a graph whose closure is cached — a live scenario gained a
restriction, preference or recommendation — the cached closure is copied
and grown via :meth:`repro.owl.reasoner.Reasoner.extend` with just the
added triples, instead of re-materialising from scratch.  Each entry
remembers which triples its ``post_process`` pass appended so the
extension starts from the *pure* deductive closure (the closed-world
fact/foil annotations are stripped, the delta is reasoned in, and the
post-pass is re-run on the result).  When the base entry has been evicted,
``extend`` falls back to a miss; a miss through a
:meth:`BaseClosure.reasoner` factory is itself an extension, of the base
closure, so cached closures and misses alike are COW children of one
frozen graph and share its index leaf sets.

Published graphs are frozen (:meth:`repro.rdf.graph.Graph.freeze`): the
cached closure is shared between hits, and it and the asserted graph it
was reasoned from raise :class:`~repro.rdf.graph.FrozenGraphError` on any
write.  Deterministic post-passes that need to write into the closure
(e.g. :func:`repro.core.facts_foils.annotate_facts_and_foils`) are
supplied via ``post_process`` so they run *before* the graph is published
to the cache — hits never observe a partially-processed graph.  Callers
that need a mutable graph take a :meth:`~repro.rdf.graph.Graph.copy`.

Misses are **single-flight** (concurrent first-touch requests for one
fingerprint trigger exactly one materialisation), and entries round-trip
through the persistent snapshot store via
:meth:`MaterializationCache.export_entries` /
:meth:`MaterializationCache.install`, which is how shards cold-start
with warm closures.  The store keeps the base closure too, and a
:class:`BaseClosure` built over a loaded snapshot adopts it, so a
cold-started service's first miss extends it instead of reasoning the
base.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..rdf.graph import Graph, Triple
from .axioms import AxiomIndex
from .reasoner import Reasoner, _RuleTables

__all__ = ["BaseClosure", "MaterializationCache"]

Fingerprint = Tuple[int, int]


class BaseClosure:
    """The frozen closure of one shared base graph, and the reasoners that
    grow every superset's closure from it.

    Construction freezes ``base`` (a later write would leave the closure
    stale) and extracts its :class:`~repro.owl.axioms.AxiomIndex` once;
    scenario individuals never add schema triples, so that index serves
    every scenario graph.  The closure itself is reasoned on the first
    :meth:`closure` call only — a builder that never misses never pays for
    it — and every builder over the same base (a fleet's shards included)
    shares one instance.  So do the reasoners it hands out: the rule
    tables (compiled matchers, triggers and emitters) are built from the
    axiom index once, by the first reasoner, not once per request.

    ``closure``, when given, is the base's closure already reasoned
    elsewhere — a snapshot's stored base closure
    (:attr:`repro.storage.GraphSnapshot.base_closure`) — and is adopted
    (frozen) instead of reasoned, so a cold-started service never reasons
    the base.  It must share the base's term dictionary.
    """

    def __init__(self, base: Graph, closure: Optional[Graph] = None) -> None:
        if closure is not None and closure.dictionary is not base.dictionary:
            raise ValueError("a base closure must share its base graph's "
                             "term dictionary")
        self.base = base.freeze()
        self.axioms = AxiomIndex.from_graph(base)
        self._lock = threading.Lock()
        self._closure: Optional[Graph] = None if closure is None else closure.freeze()
        self._tables: Optional[_RuleTables] = None

    def closure(self) -> Graph:
        """The base's frozen deductive closure, reasoned (and checked for
        consistency) by the first caller while concurrent callers wait."""
        closure = self._closure
        if closure is None:
            with self._lock:
                closure = self._closure
                if closure is None:
                    closure = Reasoner(self.base, axioms=self.axioms).run().freeze()
                    self._closure = closure
        return closure

    def delta(self, graph: Graph) -> Optional[List[Triple]]:
        """``graph``'s triples beyond the base, or ``None`` when ``graph``
        is not a same-dictionary superset of it.

        Walks ``graph``'s SPO index but skips every subject entry and leaf
        set that *is* the base's own object: a COW copy of the frozen base
        shares those until it writes to them, so they hold base triples
        only.  ``graph`` is a superset exactly when all but the extra
        triples found are base triples — ``len(base)`` of them.
        """
        base = self.base
        if graph.dictionary is not base.dictionary:
            return None
        base_spo = base._spo
        extra = []
        for s, by_pred in graph._spo.items():
            base_by_pred = base_spo.get(s)
            if by_pred is base_by_pred:
                continue
            if base_by_pred is None:
                extra.extend((s, p, o) for p, objects in by_pred.items() for o in objects)
                continue
            for p, objects in by_pred.items():
                base_objects = base_by_pred.get(p)
                if objects is base_objects:
                    continue
                if base_objects is None:
                    extra.extend((s, p, o) for o in objects)
                else:
                    extra.extend((s, p, o) for o in objects if o not in base_objects)
        if len(graph) - len(extra) != len(base):
            return None
        return [graph.decode_triple(triple) for triple in extra]

    def reasoner(self, graph: Graph) -> Reasoner:
        """A reasoner over ``graph`` with the base's axiom index and rule
        tables, whose ``run()`` extends the base closure instead of
        re-closing the base."""
        return _BaseExtendingReasoner(graph, self)

    def tables(self) -> _RuleTables:
        """The rule tables of the base's axiom index, built on first use.
        Read-only once built, so a racing second build is only wasted work."""
        tables = self._tables
        if tables is None:
            tables = self._tables = _RuleTables(self.axioms)
        return tables


class _BaseExtendingReasoner(Reasoner):
    """``run()`` as a COW copy of the base closure plus :meth:`extend`.

    The result is the closure :meth:`Reasoner.run` would return, consistency
    check included: the base's check ran once when its closure was built,
    and a new disjointness violation needs a type the delta adds, which
    :meth:`extend` checks.  Falls back to :meth:`Reasoner.run` when the
    axioms are not monotone, and — with the graph's own axiom index, which
    the base's need not describe — when the graph is not the base plus
    data triples.
    """

    def __init__(self, graph: Graph, base: BaseClosure) -> None:
        super().__init__(graph, axioms=base.axioms)
        self._base = base
        self._tables = base.tables()

    def run(self) -> Graph:
        delta = self._base.delta(self.base_graph)
        if delta is None or any(self._is_schema_triple(triple) for triple in delta):
            self._use_axioms(AxiomIndex.from_graph(self.base_graph))
            return super().run()
        if not self.supports_incremental_extension:
            return super().run()
        closure = self._base.closure().copy()
        closure.identifier = self.base_graph.identifier
        closure.namespace_manager = self.base_graph.namespace_manager.copy()
        return self.extend(closure, delta)


@dataclass(frozen=True)
class _CacheEntry:
    """One published closure plus the triples its post-process pass added.

    ``post_added`` lets :meth:`MaterializationCache.extend` recover the pure
    reasoner output from the published (annotated) graph without storing a
    second copy of the closure.  ``source`` is the frozen asserted graph
    the closure was reasoned from; it is what lets
    :meth:`MaterializationCache.export_entries` hand warm closures to the
    snapshot store, which re-keys them by re-fingerprinting the asserted
    graph in the loading process.
    """

    closure: Graph
    source: Graph
    post_added: Tuple[Triple, ...] = ()


class MaterializationCache:
    """A bounded, thread-safe LRU cache of materialised closures.

    ``max_size`` bounds memory: each entry is a full closure graph (tens of
    thousands of triples for the core FEO knowledge graph), so the default
    is deliberately small — a service mostly benefits from the temporal
    locality of repeated and batched requests, not from an unbounded
    history.
    """

    def __init__(self, max_size: int = 16) -> None:
        if max_size <= 0:
            raise ValueError("max_size must be positive")
        self.max_size = max_size
        self._entries: "OrderedDict[Fingerprint, _CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self._in_flight: Dict[Fingerprint, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.extensions = 0
        self.single_flight_waits = 0

    def materialize(
        self,
        graph: Graph,
        reasoner_factory: Optional[Callable[[Graph], Reasoner]] = None,
        post_process: Optional[Callable[[Graph], object]] = None,
    ) -> Graph:
        """Return the deductive closure of ``graph``, reasoning only on a miss.

        ``reasoner_factory`` customises reasoner construction (defaults to
        ``Reasoner(graph)``).  ``post_process`` is applied to a freshly
        reasoned closure *before* it is cached, so concurrent hits can
        never observe a partially-processed graph; it must be
        deterministic for a given input fingerprint.  The closure is
        frozen, and so is ``graph`` after a miss: it is the entry's source.

        Misses are **single-flight**: when several threads ask for the
        same fingerprint at once (the first-touch dog-pile a cold shard
        sees), exactly one reasons while the rest wait on its result —
        each wait is counted in ``single_flight_waits``.  A waiter that
        wakes to find no entry (the build failed, or the entry was
        already evicted) claims the build itself, so a failure never
        strands the waiters.
        """
        key = graph.fingerprint()
        while True:
            claimed = False
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self.hits += 1
                    self._entries.move_to_end(key)
                    return cached.closure
                event = self._in_flight.get(key)
                if event is None:
                    event = self._in_flight[key] = threading.Event()
                    claimed = True
                else:
                    self.single_flight_waits += 1
            if claimed:
                break
            event.wait()
        try:
            reasoner = reasoner_factory(graph) if reasoner_factory is not None else Reasoner(graph)
            closure = reasoner.run()
            post_added = self._post_process(closure, post_process)
            with self._lock:
                self.misses += 1
                self._publish(key, _CacheEntry(closure, graph, post_added))
            return closure
        finally:
            with self._lock:
                self._in_flight.pop(key, None)
            event.set()

    def extend(
        self,
        graph: Graph,
        base_fingerprint: Fingerprint,
        added_triples: Iterable[Triple],
        reasoner_factory: Optional[Callable[[Graph], Reasoner]] = None,
        post_process: Optional[Callable[[Graph], object]] = None,
    ) -> Graph:
        """Frozen closure of ``graph`` by incremental extension of a cached base.

        ``graph`` is the already-mutated asserted graph, ``base_fingerprint``
        the fingerprint it had when the cached closure was materialised, and
        ``added_triples`` the delta between the two (e.g. a
        :class:`~repro.rdf.graph.ChangeJournal`'s additions).  If the target
        fingerprint is already cached this is a plain hit; if the base entry
        is gone (evicted or never built) it falls back to a full
        :meth:`materialize`.  Otherwise the base closure is copied, its
        post-process annotations stripped, the delta reasoned in with
        :meth:`Reasoner.extend`, and ``post_process`` re-applied — so the
        result is indistinguishable from a from-scratch materialisation of
        ``graph``.  The shared base entry itself is never mutated, and
        ``graph`` is frozen when the result is published.
        """
        key = graph.fingerprint()
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return cached.closure
            base = self._entries.get(base_fingerprint)
        if base is None:
            return self.materialize(
                graph, reasoner_factory=reasoner_factory, post_process=post_process)
        reasoner = reasoner_factory(graph) if reasoner_factory is not None else Reasoner(graph)
        if not reasoner.supports_incremental_extension:
            # Closed-world classification axioms make in-place extension
            # unsound (additions can invalidate matches); reason from the
            # asserted graph instead.
            return self.materialize(
                graph, reasoner_factory=reasoner_factory, post_process=post_process)
        extended = base.closure.copy()
        for triple in base.post_added:
            extended.remove(triple)
        reasoner.extend(extended, added_triples)
        post_added = self._post_process(extended, post_process)
        with self._lock:
            self.extensions += 1
            self._publish(key, _CacheEntry(extended, graph, post_added))
        return extended

    # ------------------------------------------------------------------
    @staticmethod
    def _post_process(closure: Graph,
                      post_process: Optional[Callable[[Graph], object]]) -> Tuple[Triple, ...]:
        """Run the post-pass, journalling what it adds for later stripping."""
        if post_process is None:
            return ()
        with closure.start_journal() as journal:
            post_process(closure)
            return journal.added()

    def _publish(self, key: Fingerprint, entry: _CacheEntry) -> None:
        """Freeze the entry's graphs and insert under the lock, enforcing
        the LRU bound."""
        entry.closure.freeze()
        entry.source.freeze()
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_size:
            self._entries.popitem(last=False)

    # ------------------------------------------------------------------
    def install(self, asserted: Graph, closure: Graph,
                post_added: Iterable[Triple] = ()) -> Fingerprint:
        """Publish an externally-built closure, keyed by ``asserted``'s
        current fingerprint.

        This is the snapshot cold-start hook: entries loaded from a
        snapshot file are installed here so the first request for the
        same scenario is a cache hit instead of a materialisation.
        Freezes ``asserted`` and ``closure``.  Counts as neither a hit
        nor a miss.  Returns the key used.
        """
        key = asserted.fingerprint()
        with self._lock:
            self._publish(key, _CacheEntry(closure, asserted, tuple(post_added)))
        return key

    def export_entries(self) -> "list[Tuple[Graph, Graph, Tuple[Triple, ...]]]":
        """``(asserted, closure, post_added)`` for every entry, ordered
        least- to most-recently used, like the underlying LRU.

        The graphs are the published (frozen) ones, not copies.
        """
        with self._lock:
            return [(entry.source, entry.closure, entry.post_added)
                    for entry in self._entries.values()]

    # ------------------------------------------------------------------
    def invalidate(self, graph: Graph) -> bool:
        """Drop the entry for ``graph``'s current fingerprint, if present."""
        with self._lock:
            return self._entries.pop(graph.fingerprint(), None) is not None

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.extensions = 0
            self.single_flight_waits = 0

    def stats(self) -> Dict[str, int]:
        """Current size / hit / miss / extension / single-flight counters."""
        with self._lock:
            return {
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "extensions": self.extensions,
                "single_flight_waits": self.single_flight_waits,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

