"""An indexed, in-memory, dictionary-encoded RDF graph.

The :class:`Graph` is the project's storage engine.  Internally every
term is an integer ID assigned by a shared
:class:`~repro.rdf.dictionary.TermDictionary`.  The SPO/POS/OSP
permutation indexes are keyed by those IDs, and the SPO index is the
graph's only record of its triples.  The size counter, the
per-predicate cardinality counters, the change journals and the O(1)
content fingerprint are maintained on the ``(int, int, int)`` ID tuples
as triples go in and out.  The public API stays term-level —
:meth:`add` encodes at the boundary and :meth:`triples` decodes on the
way out — so callers keep seeing :class:`~repro.rdf.terms.Term`
objects, while the OWL reasoner and the SPARQL planner ride the
encoded fast path (:meth:`triples_ids`, :meth:`add_encoded`, the raw
index attributes) and only decode for presentation.

One dictionary serves a whole graph family: :meth:`copy` shares it with
the clone, so scenario copies and cached closures reuse the base graph's
interned terms and encoded triples flow between family members without
re-encoding.  A copy shares every index entry copy-on-write, so it costs
only the three outer index dicts (O(distinct nodes)), not O(triples).

Mutations can be observed through a :class:`ChangeJournal`
(:meth:`Graph.start_journal`): callers capture "what was added since the
closure was built" and hand that delta to the incremental reasoning path
(:meth:`repro.owl.reasoner.Reasoner.extend`) instead of re-materialising.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from .dictionary import TermDictionary
from .namespace import RDF, NamespaceManager
from .terms import BNode, IRI, Literal, Term

__all__ = ["Triple", "EncodedTriple", "Graph", "ChangeJournal", "FrozenGraphError"]

Node = Union[IRI, BNode, Literal]
Triple = Tuple[Node, IRI, Node]
TriplePattern = Tuple[Optional[Node], Optional[IRI], Optional[Node]]
#: The internal storage form: three term IDs from the graph's dictionary.
EncodedTriple = Tuple[int, int, int]
EncodedPattern = Tuple[Optional[int], Optional[int], Optional[int]]


def _check_term(term: Any, position: str, allow_literal: bool) -> Node:
    if isinstance(term, Literal):
        if not allow_literal:
            raise TypeError(f"Literals are not allowed in the {position} position")
        return term
    if isinstance(term, (IRI, BNode)):
        return term
    raise TypeError(
        f"Invalid RDF term in {position} position: {term!r} (type {type(term).__name__})"
    )


class FrozenGraphError(TypeError):
    """Raised when a mutator is called on a graph after :meth:`Graph.freeze`."""


class ChangeJournal:
    """The net triple changes made to one :class:`Graph` since a point in time.

    Obtained from :meth:`Graph.start_journal`.  Only *effective* mutations
    are recorded (adding a triple the graph already holds, or removing an
    absent one, is invisible), and an add followed by a remove of the same
    triple cancels out — :meth:`added` and :meth:`removed` always describe
    the net difference from the graph state at journal start, in first-change
    order.  Recording happens in the encoded domain (ID tuples), so journals
    add no decode cost to mutations; the deltas are decoded once, when read.

    Usable as a context manager::

        with graph.start_journal() as journal:
            graph.add(...)
        delta = journal.added()
    """

    def __init__(self, graph: "Graph") -> None:
        self._graph: Optional["Graph"] = graph
        self._dict: TermDictionary = graph._dict
        self._added: Dict[EncodedTriple, None] = {}
        self._removed: Dict[EncodedTriple, None] = {}

    # Called by Graph on effective mutations only.
    def _record_add(self, triple: EncodedTriple) -> None:
        if triple in self._removed:
            del self._removed[triple]
        else:
            self._added[triple] = None

    def _record_remove(self, triple: EncodedTriple) -> None:
        if triple in self._added:
            del self._added[triple]
        else:
            self._removed[triple] = None

    # ------------------------------------------------------------------
    def added(self) -> Tuple[Triple, ...]:
        """Triples present now but not at journal start."""
        terms = self._dict.terms
        return tuple((terms[s], terms[p], terms[o]) for s, p, o in self._added)

    def removed(self) -> Tuple[Triple, ...]:
        """Triples present at journal start but not now."""
        terms = self._dict.terms
        return tuple((terms[s], terms[p], terms[o]) for s, p, o in self._removed)

    @property
    def clean(self) -> bool:
        """``True`` when the graph is (net) unchanged since journal start."""
        return not self._added and not self._removed

    @property
    def active(self) -> bool:
        """``True`` until :meth:`close` detaches the journal from its graph."""
        return self._graph is not None

    def close(self) -> None:
        """Stop recording; the captured delta stays readable."""
        if self._graph is not None:
            self._graph._journals.remove(self)
            self._graph = None

    def __enter__(self) -> "ChangeJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


#: The index entry of an absent key, shared by every bound-triple lookup
#: (``_spo.get(s, _EMPTY).get(p, ())``) so a miss allocates nothing, and
#: the shared index of a graph that shares nothing.  Never written.
_EMPTY: Dict = {}


class Graph:
    """A set of RDF triples with SPO/POS/OSP indexes and namespace bindings.

    Storage is dictionary-encoded: the three permutation indexes are
    keyed by term IDs, and the SPO index (``_spo[s][p] = {o, ...}``) is
    the only copy of each triple — membership tests descend it, full
    scans walk it, and a ``_size`` counter gives :func:`len`.  The
    encoded surface (``triples_ids`` / ``add_encoded`` / ``_spo`` /
    ``_pos`` / ``_osp`` and :attr:`dictionary`) is read by the reasoner
    and the query planner; everything else goes through the term-level
    methods, which encode/decode at the boundary.
    """

    def __init__(self, identifier: Optional[IRI] = None, bind_defaults: bool = True) -> None:
        self.identifier = identifier or IRI(f"urn:graph:{id(self)}")
        self.namespace_manager = NamespaceManager(bind_defaults=bind_defaults)
        self._dict = TermDictionary()
        self._size = 0
        self._spo: Dict[int, Dict[int, Set[int]]] = {}
        self._pos: Dict[int, Dict[int, Set[int]]] = {}
        self._osp: Dict[int, Dict[int, Set[int]]] = {}
        # Two-level copy-on-write bookkeeping per index: the read-only
        # outer index this graph's entries may share with its family
        # since the last copy() (the frozen source's own index, or a
        # snapshot both sides of the copy hold).  An entry dict, or a leaf
        # set, is shared exactly when it *is* the object that index holds
        # at the same place; anything else is private.  Un-sharing is lazy
        # at both levels, so a write costs one shallow dict copy plus the
        # touched leaf set — never a deep copy of a whole entry (the old
        # behaviour, which made the first write to a popular predicate's
        # POS entry copy thousands of leaf sets).
        self._spo_shared: Dict[int, Dict[int, Set[int]]] = _EMPTY
        self._pos_shared: Dict[int, Dict[int, Set[int]]] = _EMPTY
        self._osp_shared: Dict[int, Dict[int, Set[int]]] = _EMPTY
        # Total triple count per predicate, maintained incrementally so the
        # query planner's cardinality estimates stay O(1).
        self._pred_counts: Dict[int, int] = {}
        # Order-independent content hash, maintained incrementally so that
        # fingerprint() is O(1).  XOR is its own inverse, so add/remove of
        # the same triple cancel out exactly.  Each triple contributes a
        # hash derived from its terms' content hashes (cached per ID in the
        # dictionary), so equal triple sets fingerprint equally even across
        # graph families with different ID assignments.
        self._content_hash: int = 0
        self._journals: List[ChangeJournal] = []
        self._frozen = False

    # ------------------------------------------------------------------
    # The encoded surface
    # ------------------------------------------------------------------
    @property
    def dictionary(self) -> TermDictionary:
        """The term dictionary shared by this graph's family."""
        return self._dict

    def encode_triple(self, triple: Triple) -> Optional[EncodedTriple]:
        """The encoded form of a term triple, or ``None`` if any term is
        unknown to the dictionary (in which case the graph cannot hold it)."""
        lookup = self._dict.ids.get
        s = lookup(triple[0])
        if s is None:
            return None
        p = lookup(triple[1])
        if p is None:
            return None
        o = lookup(triple[2])
        if o is None:
            return None
        return (s, p, o)

    def decode_triple(self, triple: EncodedTriple) -> Triple:
        """The term form of an encoded triple."""
        terms = self._dict.terms
        return (terms[triple[0]], terms[triple[1]], terms[triple[2]])

    def add_encoded(self, triple: EncodedTriple) -> bool:
        """Add one already-encoded triple; ``True`` if it was genuinely new.

        The IDs must come from this graph's dictionary.  No term
        validation happens here — this is the internal fast path the
        reasoner's rule engine feeds derived triples through.
        """
        if self._frozen:
            self._refuse()
        s, p, o = triple
        if o in self._spo.get(s, _EMPTY).get(p, ()):
            return False
        self._size += 1
        hashes = self._dict.hashes
        self._content_hash ^= hash((hashes[s], hashes[p], hashes[o]))
        self._pred_counts[p] = self._pred_counts.get(p, 0) + 1
        self._index_add(self._spo, self._spo_shared, s, p, o)
        self._index_add(self._pos, self._pos_shared, p, o, s)
        self._index_add(self._osp, self._osp_shared, o, s, p)
        if self._journals:
            for journal in self._journals:
                journal._record_add(triple)
        return True

    @staticmethod
    def _index_add(index: Dict[int, Dict[int, Set[int]]],
                   shared: Dict[int, Dict[int, Set[int]]],
                   key: int, mid: int, leaf: int) -> None:
        """Insert into one permutation index, un-sharing COW state first.

        Un-sharing is lazy at both levels: the first write to a shared
        entry shallow-copies its dict (leaf sets stay shared), and each
        leaf set is copied only when *it* is first written.  A write is
        therefore O(buckets) once plus the touched bucket — never the sum
        of all buckets.
        """
        entry = index.get(key)
        if entry is None:
            index[key] = {mid: {leaf}}
            return
        original = shared.get(key)
        if original is not None:
            if entry is original:  # the entry dict itself is still shared
                entry = index[key] = dict(entry)
            leaves = entry.get(mid)
            if leaves is not None and leaves is original.get(mid):
                entry[mid] = {leaf, *leaves}
                return
        else:
            leaves = entry.get(mid)
        if leaves is None:
            entry[mid] = {leaf}
        else:
            leaves.add(leaf)

    def add_encoded_many(self, batch: Iterable[EncodedTriple],
                         out: Optional[List[EncodedTriple]] = None) -> int:
        """Add a batch of encoded triples with one set of bound locals.

        Returns the number of genuinely new triples; ``out`` (if given)
        collects them in order — the shape the reasoner's semi-naive
        rounds need for the next delta.
        """
        if self._frozen:
            self._refuse()
        spo, pos, osp = self._spo, self._pos, self._osp
        spo_get = spo.get
        spo_shared, pos_shared, osp_shared = self._spo_shared, self._pos_shared, self._osp_shared
        index_add = self._index_add
        pred_counts = self._pred_counts
        hashes = self._dict.hashes
        journals = self._journals
        content_hash = self._content_hash
        added = 0
        append = out.append if out is not None else None
        try:
            for triple in batch:
                s, p, o = triple
                if o in spo_get(s, _EMPTY).get(p, ()):
                    continue
                content_hash ^= hash((hashes[s], hashes[p], hashes[o]))
                pred_counts[p] = pred_counts.get(p, 0) + 1
                index_add(spo, spo_shared, s, p, o)
                index_add(pos, pos_shared, p, o, s)
                index_add(osp, osp_shared, o, s, p)
                if journals:
                    for journal in journals:
                        journal._record_add(triple)
                if append is not None:
                    append(triple)
                added += 1
        finally:
            # A batch that raises part-way (an invalid term in addN's
            # generator) keeps the counters in step with what went in.
            self._content_hash = content_hash
            self._size += added
        return added

    def triples_ids(self, pattern: EncodedPattern = (None, None, None)) -> Iterator[EncodedTriple]:
        """Yield encoded triples matching an encoded pattern (``None`` = wildcard)."""
        s, p, o = pattern
        if s is not None and p is not None and o is not None:
            if o in self._spo.get(s, _EMPTY).get(p, ()):
                yield (s, p, o)
            return
        if s is not None:
            by_pred = self._spo.get(s)
            if not by_pred:
                return
            if p is not None:
                for obj in by_pred.get(p, ()):
                    if o is None or obj == o:
                        yield (s, p, obj)
            else:
                for pred, objects in by_pred.items():
                    for obj in objects:
                        if o is None or obj == o:
                            yield (s, pred, obj)
            return
        if p is not None:
            by_obj = self._pos.get(p)
            if not by_obj:
                return
            if o is not None:
                for subj in by_obj.get(o, ()):
                    yield (subj, p, o)
            else:
                for obj, subjects in by_obj.items():
                    for subj in subjects:
                        yield (subj, p, obj)
            return
        if o is not None:
            by_subj = self._osp.get(o)
            if not by_subj:
                return
            for subj, preds in by_subj.items():
                for pred in preds:
                    yield (subj, pred, o)
            return
        for subj, by_pred in self._spo.items():
            for pred, objects in by_pred.items():
                for obj in objects:
                    yield (subj, pred, obj)

    def _encode_pattern(self, pattern: TriplePattern) -> Optional[EncodedPattern]:
        """Encode a term pattern; ``None`` if a bound term is unknown
        (no triple can match)."""
        lookup = self._dict.ids.get
        s, p, o = pattern
        if s is not None:
            s = lookup(s)
            if s is None:
                return None
        if p is not None:
            p = lookup(p)
            if p is None:
                return None
        if o is not None:
            o = lookup(o)
            if o is None:
                return None
        return (s, p, o)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def freeze(self) -> "Graph":
        """Make this graph read-only and return it: every mutator then
        raises :class:`FrozenGraphError` before touching the graph or its
        term dictionary."""
        self._frozen = True
        # A frozen graph never un-shares, so it need not keep (and keep
        # alive) the indexes it shares with.
        self._spo_shared = self._pos_shared = self._osp_shared = _EMPTY
        return self

    @property
    def frozen(self) -> bool:
        """``True`` once :meth:`freeze` has been called."""
        return self._frozen

    def _refuse(self) -> None:
        raise FrozenGraphError(f"graph {self.identifier} is frozen; copy() it to mutate")

    def add(self, triple: Triple) -> "Graph":
        """Add one ``(subject, predicate, object)`` triple."""
        if self._frozen:
            self._refuse()
        s, p, o = triple
        s = _check_term(s, "subject", allow_literal=False)
        p = _check_term(p, "predicate", allow_literal=False)
        o = _check_term(o, "object", allow_literal=True)
        if not isinstance(p, IRI):
            raise TypeError("Predicates must be IRIs")
        intern = self._dict.intern
        self.add_encoded((intern(s), intern(p), intern(o)))
        return self

    def addN(self, triples: Iterable[Triple]) -> "Graph":
        """Add many triples at once (bulk-load fast path).

        Encoding happens in one pass with locally-bound lookups; when the
        source is a same-family :class:`Graph` the already-encoded triples
        are inserted directly, skipping validation and re-encoding.
        Both paths end in :meth:`add_encoded_many`, which refuses a frozen
        graph before the first term is interned.
        """
        if isinstance(triples, Graph) and triples._dict is self._dict:
            self.add_encoded_many(triples.triples_ids())
            return self
        intern = self._dict.intern
        self.add_encoded_many(
            (intern(_check_term(s, "subject", allow_literal=False)),
             intern(_check_predicate(p)),
             intern(_check_term(o, "object", allow_literal=True)))
            for s, p, o in triples
        )
        return self

    def remove(self, pattern: TriplePattern) -> "Graph":
        """Remove every triple matching ``pattern`` (``None`` is a wildcard)."""
        if self._frozen:
            self._refuse()
        encoded = self._encode_pattern(pattern)
        if encoded is None:
            return self
        for triple in list(self.triples_ids(encoded)):
            self._discard(triple)
        return self

    def _discard(self, triple: EncodedTriple) -> None:
        if self._frozen:
            self._refuse()
        s, p, o = triple
        if o not in self._spo.get(s, _EMPTY).get(p, ()):
            return
        self._size -= 1
        hashes = self._dict.hashes
        self._content_hash ^= hash((hashes[s], hashes[p], hashes[o]))
        remaining = self._pred_counts.get(p, 0) - 1
        if remaining > 0:
            self._pred_counts[p] = remaining
        else:
            self._pred_counts.pop(p, None)
        for index, shared, key, mid in ((self._spo, self._spo_shared, s, p),
                                        (self._pos, self._pos_shared, p, o),
                                        (self._osp, self._osp_shared, o, s)):
            original = shared.get(key, _EMPTY)
            entry = index[key]
            if entry is original:  # un-share the entry dict, keep leaves shared
                entry = index[key] = dict(entry)
            if entry[mid] is original.get(mid):
                entry[mid] = set(entry[mid])
        self._spo[s][p].discard(o)
        if not self._spo[s][p]:
            del self._spo[s][p]
            if not self._spo[s]:
                del self._spo[s]
        self._pos[p][o].discard(s)
        if not self._pos[p][o]:
            del self._pos[p][o]
            if not self._pos[p]:
                del self._pos[p]
        self._osp[o][s].discard(p)
        if not self._osp[o][s]:
            del self._osp[o][s]
            if not self._osp[o]:
                del self._osp[o]
        if self._journals:
            for journal in self._journals:
                journal._record_remove(triple)

    def set(self, triple: Triple) -> "Graph":
        """Replace any existing ``(s, p, *)`` triples with the given one."""
        s, p, _ = triple
        self.remove((s, p, None))
        return self.add(triple)

    def clear(self) -> None:
        """Remove every triple (namespace bindings and dictionary are kept)."""
        if self._frozen:
            self._refuse()
        if self._journals:
            for triple in self.triples_ids():
                for journal in self._journals:
                    journal._record_remove(triple)
        self._size = 0
        self._spo.clear()
        self._pos.clear()
        self._osp.clear()
        self._spo_shared = self._pos_shared = self._osp_shared = _EMPTY
        self._pred_counts.clear()
        self._content_hash = 0

    def start_journal(self) -> ChangeJournal:
        """Attach and return a :class:`ChangeJournal` recording net mutations.

        Several journals can be active at once; :meth:`copy` does not carry
        journals over to the clone.  Close the journal when done so the
        graph stops paying the per-mutation recording cost.
        """
        journal = ChangeJournal(self)
        self._journals.append(journal)
        return journal

    def fingerprint(self) -> Tuple[int, int]:
        """A cheap ``(size, content-hash)`` key identifying the graph's contents.

        The hash is order-independent and maintained incrementally on every
        mutation, so this call is O(1).  Each triple contributes a hash built
        from its terms' content hashes (cached in the dictionary), not from
        its ID assignment, so two graphs with equal triple sets always
        produce the same fingerprint within one process — even when they
        belong to different graph families; any mutation changes it, which
        is what the materialisation cache in :mod:`repro.owl.closure` uses
        for invalidation.  Fingerprints are not stable across processes
        (Python string hashing is salted).
        """
        return (self._size, self._content_hash)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def triples(self, pattern: TriplePattern = (None, None, None)) -> Iterator[Triple]:
        """Yield every triple matching the pattern; ``None`` acts as a wildcard."""
        encoded = self._encode_pattern(pattern)
        if encoded is None:
            return
        terms = self._dict.terms
        for s, p, o in self.triples_ids(encoded):
            yield (terms[s], terms[p], terms[o])

    def cardinality(self, pattern: TriplePattern = (None, None, None)) -> int:
        """The exact number of triples matching ``pattern``, without scanning.

        Every answer comes from the permutation indexes (dictionary and set
        sizes) or the per-predicate counters, so the cost is O(1) for the
        common shapes and at worst O(distinct predicates of one node) for
        ``(s, ?, ?)`` / ``(?, ?, o)``.  This is the statistic the SPARQL
        query planner (:mod:`repro.sparql.planner`) uses to order joins.
        """
        encoded = self._encode_pattern(pattern)
        if encoded is None:
            return 0
        s, p, o = encoded
        if s is None and p is None and o is None:
            return self._size
        if s is not None and p is not None and o is not None:
            return 1 if o in self._spo.get(s, _EMPTY).get(p, ()) else 0
        if s is not None:
            by_pred = self._spo.get(s)
            if not by_pred:
                return 0
            if p is not None:
                return len(by_pred.get(p, ()))
            if o is not None:
                by_subj = self._osp.get(o)
                return len(by_subj.get(s, ())) if by_subj else 0
            return sum(len(objs) for objs in by_pred.values())
        if p is not None:
            if o is not None:
                by_obj = self._pos.get(p)
                return len(by_obj.get(o, ())) if by_obj else 0
            return self._pred_counts.get(p, 0)
        by_subj = self._osp.get(o)
        if not by_subj:
            return 0
        return sum(len(preds) for preds in by_subj.values())

    def index_stats(self) -> Dict[str, int]:
        """O(1) whole-graph statistics: distinct subjects/predicates/objects.

        Used by the query planner to approximate how much a bound join
        variable shrinks a pattern's result.
        """
        return {
            "triples": self._size,
            "subjects": len(self._spo),
            "predicates": len(self._pos),
            "objects": len(self._osp),
        }

    def predicate_stats(self, predicate: IRI) -> Dict[str, int]:
        """Per-predicate statistics: total triples and distinct objects."""
        pid = self._dict.ids.get(predicate)
        if pid is None:
            return {"count": 0, "distinct_objects": 0}
        return {
            "count": self._pred_counts.get(pid, 0),
            "distinct_objects": len(self._pos.get(pid, ())),
        }

    def store_stats(self) -> Dict[str, int]:
        """Storage-engine counters: dictionary interning plus triple count."""
        stats = self._dict.stats()
        stats["encoded_triples"] = self._size
        return stats

    def __contains__(self, pattern: TriplePattern) -> bool:
        encoded = self._encode_pattern(pattern)
        if encoded is None:
            return False
        return next(self.triples_ids(encoded), None) is not None

    def __iter__(self) -> Iterator[Triple]:
        terms = self._dict.terms
        return ((terms[s], terms[p], terms[o]) for s, p, o in self.triples_ids())

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def subjects(self, predicate: Optional[IRI] = None, obj: Optional[Node] = None) -> Iterator[Node]:
        """Yield distinct subjects of triples matching ``(?, predicate, obj)``."""
        encoded = self._encode_pattern((None, predicate, obj))
        if encoded is None:
            return
        terms = self._dict.terms
        seen: Set[int] = set()
        for s, _, _ in self.triples_ids(encoded):
            if s not in seen:
                seen.add(s)
                yield terms[s]

    def predicates(self, subject: Optional[Node] = None, obj: Optional[Node] = None) -> Iterator[IRI]:
        """Yield distinct predicates of triples matching ``(subject, ?, obj)``."""
        encoded = self._encode_pattern((subject, None, obj))
        if encoded is None:
            return
        terms = self._dict.terms
        seen: Set[int] = set()
        for _, p, _ in self.triples_ids(encoded):
            if p not in seen:
                seen.add(p)
                yield terms[p]

    def objects(self, subject: Optional[Node] = None, predicate: Optional[IRI] = None) -> Iterator[Node]:
        """Yield distinct objects of triples matching ``(subject, predicate, ?)``."""
        encoded = self._encode_pattern((subject, predicate, None))
        if encoded is None:
            return
        terms = self._dict.terms
        seen: Set[int] = set()
        for _, _, o in self.triples_ids(encoded):
            if o not in seen:
                seen.add(o)
                yield terms[o]

    def subject_objects(self, predicate: Optional[IRI] = None) -> Iterator[Tuple[Node, Node]]:
        """Yield ``(subject, object)`` pairs for every triple with ``predicate``."""
        for s, _, o in self.triples((None, predicate, None)):
            yield s, o

    def value(
        self,
        subject: Optional[Node] = None,
        predicate: Optional[IRI] = None,
        obj: Optional[Node] = None,
        default: Any = None,
    ) -> Any:
        """Return one term completing the pattern, or ``default``."""
        provided = sum(term is not None for term in (subject, predicate, obj))
        if provided != 2:
            raise ValueError("Graph.value requires exactly two bound positions")
        for s, p, o in self.triples((subject, predicate, obj)):
            if subject is None:
                return s
            if predicate is None:
                return p
            return o
        return default

    def types_of(self, node: Node) -> Set[IRI]:
        """Return all ``rdf:type`` values of ``node``."""
        return {o for o in self.objects(node, IRI(RDF.type)) if isinstance(o, IRI)}

    def instances_of(self, cls: IRI) -> Set[Node]:
        """Return all individuals declared with ``rdf:type cls``."""
        return set(self.subjects(IRI(RDF.type), cls))

    # ------------------------------------------------------------------
    # Namespaces
    # ------------------------------------------------------------------
    def bind(self, prefix: str, namespace: str, replace: bool = True) -> None:
        """Bind ``prefix`` to ``namespace`` for serialisation and qnames."""
        self.namespace_manager.bind(prefix, namespace, replace=replace)

    def namespaces(self) -> Iterator[Tuple[str, str]]:
        """Iterate over the bound ``(prefix, namespace)`` pairs."""
        return self.namespace_manager.namespaces()

    def qname(self, iri: IRI) -> str:
        """Compact ``iri`` to ``prefix:local`` form, or its N3 form if unbound."""
        compact = self.namespace_manager.qname(iri)
        return compact if compact is not None else iri.n3()

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Return an independent graph with the same triples and namespaces.

        The clone **shares this graph's term dictionary** (the dictionary
        is append-only, so sharing is safe) and the permutation indexes
        are copied **copy-on-write**: only the outer dictionaries are
        duplicated here, the per-key entries stay shared until one side
        mutates them (see :meth:`_index_add`).  The SPO index is the only
        record of the triples, so a copy costs the three outer index
        dicts (twice for a mutable source, which also snapshots them) and
        the predicate counters — O(distinct nodes), not O(triples).  The
        per-entry nested dict/set duplication is deferred to the entries a
        mutation actually touches.  Journals are not carried over to the
        clone, and the clone of a frozen graph is mutable.
        """
        clone = Graph(identifier=self.identifier)
        clone.namespace_manager = self.namespace_manager.copy()
        clone._dict = self._dict
        clone._size = self._size
        clone._content_hash = self._content_hash
        clone._spo = dict(self._spo)
        clone._pos = dict(self._pos)
        clone._osp = dict(self._osp)
        # Every inner entry (dict and leaf sets) is now shared between
        # the two graphs, so each side un-shares what the source's outer
        # indexes now hold before writing it.  A frozen source never
        # writes, so its own indexes serve; a mutable one hands both sides
        # a snapshot of them.  Either supersedes any finer-grained state
        # from an earlier copy — over-sharing is always safe, it only
        # costs the next write a shallow copy.
        if self._frozen:
            shared = (self._spo, self._pos, self._osp)
        else:
            shared = (dict(self._spo), dict(self._pos), dict(self._osp))
            self._spo_shared, self._pos_shared, self._osp_shared = shared
        clone._spo_shared, clone._pos_shared, clone._osp_shared = shared
        clone._pred_counts = dict(self._pred_counts)
        return clone

    def _membership_of(self, other: "Graph") -> Callable[[EncodedTriple], bool]:
        """A test "does ``other`` hold this triple?" for triples in *this*
        graph's ID space.

        Same-family graphs share IDs, so the test is a descent of
        ``other``'s SPO index; cross-family triples are first translated
        through ``other``'s dictionary (a term unknown to it cannot be in
        ``other``).
        """
        spo_get = other._spo.get
        if other._dict is self._dict:
            return lambda triple: triple[2] in spo_get(triple[0], _EMPTY).get(triple[1], ())
        lookup = other._dict.ids.get
        terms = self._dict.terms

        def holds(triple: EncodedTriple) -> bool:
            s = lookup(terms[triple[0]])
            if s is None:
                return False
            p = lookup(terms[triple[1]])
            if p is None:
                return False
            o = lookup(terms[triple[2]])
            return o is not None and o in spo_get(s, _EMPTY).get(p, ())
        return holds

    def __add__(self, other: "Graph") -> "Graph":
        result = self.copy()
        result.addN(other)
        return result

    def __iadd__(self, other: Iterable[Triple]) -> "Graph":
        self.addN(other)
        return self

    def __sub__(self, other: "Graph") -> "Graph":
        result = Graph()
        result.namespace_manager = self.namespace_manager.copy()
        result._dict = self._dict
        if isinstance(other, Graph):
            holds = self._membership_of(other)
            result.add_encoded_many(t for t in self.triples_ids() if not holds(t))
        else:
            other_set = set(other)
            result.addN(t for t in self if t not in other_set)
        return result

    def __and__(self, other: "Graph") -> "Graph":
        result = Graph()
        result.namespace_manager = self.namespace_manager.copy()
        result._dict = self._dict
        if isinstance(other, Graph):
            holds = self._membership_of(other)
            result.add_encoded_many(t for t in self.triples_ids() if holds(t))
        else:
            other_set = set(other)
            result.addN(t for t in self if t in other_set)
        return result

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Graph):
            if self._size != other._size:
                return False
            if other._dict is self._dict:
                # Entries are pruned when they empty, so equal triple sets
                # have equal SPO dicts; COW-shared entries compare by
                # identity without being walked.
                return self._spo == other._spo
            # Equal sizes, and every triple of this graph is in the other.
            holds = self._membership_of(other)
            return all(map(holds, self.triples_ids()))
        return NotImplemented

    def __hash__(self) -> int:  # identity hash: graphs are mutable containers
        return id(self)

    # ------------------------------------------------------------------
    # Serialisation entry points (implemented in the serializer modules)
    # ------------------------------------------------------------------
    def serialize(self, format: str = "turtle") -> str:
        """Serialise the graph to a string (``turtle`` or ``ntriples``)."""
        from . import ntriples, turtle

        if format in ("turtle", "ttl"):
            return turtle.serialize(self)
        if format in ("ntriples", "nt"):
            return ntriples.serialize(self)
        raise ValueError(f"Unsupported serialisation format: {format!r}")

    def parse(self, data: str, format: str = "turtle") -> "Graph":
        """Parse serialised RDF into this graph."""
        if self._frozen:
            self._refuse()
        from . import ntriples, turtle

        if format in ("turtle", "ttl"):
            turtle.parse(data, graph=self)
        elif format in ("ntriples", "nt"):
            ntriples.parse(data, graph=self)
        else:
            raise ValueError(f"Unsupported parse format: {format!r}")
        return self

    def query(self, query_text: str, initBindings: Optional[Dict[str, Node]] = None):
        """Evaluate a SPARQL query against this graph.

        Returns a :class:`repro.sparql.results.Result`.
        """
        from ..sparql import query as sparql_query

        return sparql_query(self, query_text, init_bindings=initBindings)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def all_nodes(self) -> Set[Node]:
        """Every subject and object appearing in the graph."""
        ids = self._spo.keys() | self._osp.keys()
        terms = self._dict.terms
        return {terms[i] for i in ids}

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Graph identifier={self.identifier} triples={len(self)}>"


def _check_predicate(p: Any) -> IRI:
    if isinstance(p, IRI):
        return p
    _check_term(p, "predicate", allow_literal=False)
    raise TypeError("Predicates must be IRIs")
