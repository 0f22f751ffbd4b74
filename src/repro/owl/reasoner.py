"""A forward-chaining OWL-RL-style materialising reasoner.

This is the project's substitute for the Pellet reasoner used in the paper.
The paper's pipeline is: *build ontology + instances → run reasoner → export
the graph with inferred axioms → run SPARQL over the inferred graph*.
:class:`Reasoner` implements exactly that contract:

>>> reasoner = Reasoner(graph)
>>> inferred = reasoner.run()          # graph including inferred triples
>>> inferred.query(...)                 # SPARQL over the materialisation

Supported inference (the fragment FEO exercises, see DESIGN.md):

* class hierarchy: ``rdfs:subClassOf`` transitivity and type propagation,
  ``owl:equivalentClass`` (both between named classes and to restrictions);
* property hierarchy: ``rdfs:subPropertyOf`` closure and assertion
  propagation, ``owl:equivalentProperty``;
* property semantics: ``owl:inverseOf``, ``owl:TransitiveProperty``,
  ``owl:SymmetricProperty``, ``owl:propertyChainAxiom``, ``rdfs:domain``,
  ``rdfs:range``;
* restriction classification: individuals satisfying ``someValuesFrom`` /
  ``hasValue`` / ``intersectionOf`` / ``unionOf`` / ``oneOf`` expressions
  that are equivalent to (or subclasses of) a named class are typed with
  that class, and the usual consequences flow the other way
  (``hasValue`` value assertion, ``allValuesFrom`` filler typing).

Evaluation strategy
-------------------

:meth:`Reasoner.run` uses **semi-naive (delta-driven) evaluation**: after an
initial round over the whole graph, each rule family consumes only the
triples derived in the previous round and joins them against the full graph
through the SPO/POS/OSP indexes, instead of rescanning every triple per
iteration.  Every rule family runs in the **encoded domain**: the graph's
dictionary-encoded ``(int, int, int)`` triples are joined through
integer-keyed indexes, with the axiom tables and class expressions
translated into the same ID space once per axiom index and dictionary
(:class:`_EncodedAxioms`, held by a shareable :class:`_RuleTables`).
Restriction classification is delta-directed too: past the first round,
each class expression is re-tested only on the individuals its compiled
trigger (:func:`~repro.owl.expressions.compile_trigger`) says the round's
new triples can reclassify.  The historical fixed-point loop over term
objects survives as :meth:`Reasoner.run_naive`, the reference oracle the
differential test suite compares against.

Because each round's work is proportional to its delta, the same machinery
supports **incremental closure maintenance**: :meth:`Reasoner.extend` grows
an already-materialised closure by seeding the delta queue with freshly
asserted triples, which is what the scenario-update path of the explanation
service rides on (see :mod:`repro.owl.closure`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..rdf.dictionary import KIND_IRI, KIND_LITERAL, TermDictionary
from ..rdf.graph import EncodedTriple, Graph, Triple
from ..rdf.terms import BNode, IRI, Literal
from .axioms import AxiomIndex
from .expressions import (
    AllValuesFrom,
    ClassExpression,
    ComplementOf,
    Delta,
    HasValue,
    IntersectionOf,
    NamedClass,
    SomeValuesFrom,
    UnionOf,
    compile_consequences,
    compile_matcher,
    compile_trigger,
)
from .vocabulary import (
    OWL_ALL_VALUES_FROM,
    OWL_CARDINALITY,
    OWL_CLASS,
    OWL_COMPLEMENT_OF,
    OWL_DATATYPE_PROPERTY,
    OWL_DISJOINT_WITH,
    OWL_EQUIVALENT_CLASS,
    OWL_EQUIVALENT_PROPERTY,
    OWL_FUNCTIONAL_PROPERTY,
    OWL_HAS_VALUE,
    OWL_INTERSECTION_OF,
    OWL_INVERSE_FUNCTIONAL_PROPERTY,
    OWL_INVERSE_OF,
    OWL_MAX_CARDINALITY,
    OWL_MIN_CARDINALITY,
    OWL_NOTHING,
    OWL_OBJECT_PROPERTY,
    OWL_ONE_OF,
    OWL_ON_PROPERTY,
    OWL_PROPERTY_CHAIN_AXIOM,
    OWL_RESTRICTION,
    OWL_SAME_AS,
    OWL_SOME_VALUES_FROM,
    OWL_SYMMETRIC_PROPERTY,
    OWL_THING,
    OWL_TRANSITIVE_PROPERTY,
    OWL_UNION_OF,
    RDF_FIRST,
    RDF_PROPERTY,
    RDF_REST,
    RDF_TYPE,
    RDFS_CLASS,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
)

__all__ = ["Reasoner", "ReasoningReport", "InconsistentOntologyError"]


class InconsistentOntologyError(Exception):
    """Raised when a consistency check fails (e.g. disjointness violation)."""


#: Predicates whose triples define the axiom schema.  A delta containing one
#: of these invalidates the :class:`AxiomIndex`, so :meth:`Reasoner.extend`
#: falls back to a full re-closure instead of a delta-proportional update.
_SCHEMA_PREDICATES = frozenset({
    RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF, RDFS_DOMAIN, RDFS_RANGE,
    OWL_EQUIVALENT_CLASS, OWL_EQUIVALENT_PROPERTY, OWL_INVERSE_OF,
    OWL_PROPERTY_CHAIN_AXIOM, OWL_DISJOINT_WITH, OWL_ON_PROPERTY,
    OWL_SOME_VALUES_FROM, OWL_ALL_VALUES_FROM, OWL_HAS_VALUE,
    OWL_MIN_CARDINALITY, OWL_MAX_CARDINALITY, OWL_CARDINALITY,
    OWL_INTERSECTION_OF, OWL_UNION_OF, OWL_COMPLEMENT_OF, OWL_ONE_OF,
    RDF_FIRST, RDF_REST,
})

#: ``rdf:type`` objects that turn a type assertion into a schema statement
#: (declaring a property characteristic or a class/restriction).
_SCHEMA_TYPES = frozenset({
    OWL_CLASS, OWL_RESTRICTION, OWL_TRANSITIVE_PROPERTY,
    OWL_SYMMETRIC_PROPERTY, OWL_FUNCTIONAL_PROPERTY,
    OWL_INVERSE_FUNCTIONAL_PROPERTY, OWL_OBJECT_PROPERTY,
    OWL_DATATYPE_PROPERTY, RDF_PROPERTY, RDFS_CLASS,
})

#: Predicates whose subjects/objects never count as individuals.
_SCHEMA_ONLY_PREDICATES = frozenset({RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF})


def _expression_is_monotone(expression: ClassExpression) -> bool:
    """Whether adding triples can only ever turn ``matches`` False -> True.

    ``AllValuesFrom`` and ``ComplementOf`` are closed-world: a new triple can
    *invalidate* a previously satisfied match, so classifications derived
    from them cannot be incrementally maintained by a monotone delta pass
    (a stale type in the base closure would need retraction).
    """
    if isinstance(expression, (AllValuesFrom, ComplementOf)):
        return False
    if isinstance(expression, (IntersectionOf, UnionOf)):
        return all(_expression_is_monotone(op) for op in expression.operands)
    if isinstance(expression, SomeValuesFrom):
        return _expression_is_monotone(expression.filler)
    return True


@dataclass
class ReasoningReport:
    """Statistics describing one materialisation run.

    ``rule_seconds`` is the time per rule family (``property``, ``type``,
    ``classification``, ``consequences``) and ``classification_checks``
    the number of class-expression membership tests classification made.
    """

    input_triples: int = 0
    inferred_triples: int = 0
    iterations: int = 0
    elapsed_seconds: float = 0.0
    rule_firings: Dict[str, int] = field(default_factory=dict)
    rule_seconds: Dict[str, float] = field(default_factory=dict)
    classification_checks: int = 0

    def record(self, rule: str, count: int = 1) -> None:
        if count:
            self.rule_firings[rule] = self.rule_firings.get(rule, 0) + count

    def time(self, family: str, seconds: float) -> None:
        self.rule_seconds[family] = self.rule_seconds.get(family, 0.0) + seconds


class _EncodedAxioms:
    """The axiom lookup tables translated into one dictionary's ID space.

    Built once per (axiom index, term dictionary) pair and cached on the
    :class:`_RuleTables`, so every semi-naive round joins its delta against
    plain integer-keyed dictionaries — no term hashing, no decoding.  The
    dictionary is append-only, so translated IDs stay valid for the life
    of the graph family.
    """

    __slots__ = (
        "dictionary", "superproperties", "inverse_of", "symmetric",
        "transitive", "chain_steps", "domains", "ranges",
        "rdf_type", "rdfs_subclassof", "owl_same_as",
        "classifications", "complex_superclasses",
        "has_restrictions", "schema_only_preds",
    )

    def __init__(self, axioms: AxiomIndex, dictionary: TermDictionary) -> None:
        intern = dictionary.intern
        self.dictionary = dictionary
        self.superproperties: Dict[int, Tuple[int, ...]] = {}
        for prop in axioms.subproperty_of:
            supers = axioms.superproperty_closure(prop) - {prop}
            if supers:
                self.superproperties[intern(prop)] = tuple(intern(sup) for sup in supers)
        self.inverse_of: Dict[int, Tuple[int, ...]] = {
            intern(prop): tuple(intern(inv) for inv in inverses)
            for prop, inverses in axioms.inverse_of.items() if inverses
        }
        self.symmetric: Set[int] = {intern(prop) for prop in axioms.symmetric}
        self.transitive: Set[int] = {intern(prop) for prop in axioms.transitive}
        # Each property maps to every (head, chain, position) it appears in,
        # so a delta triple can be joined into the chain at its position.
        self.chain_steps: Dict[int, List[Tuple[int, Tuple[int, ...], int]]] = {}
        for head, chains in axioms.property_chains.items():
            for chain in chains:
                links = tuple(intern(link) for link in chain)
                for position, step in enumerate(links):
                    self.chain_steps.setdefault(step, []).append(
                        (intern(head), links, position))
        self.domains: Dict[int, Tuple[int, ...]] = {
            intern(prop): tuple(intern(cls) for cls in classes)
            for prop, classes in axioms.domains.items() if classes
        }
        self.ranges: Dict[int, Tuple[int, ...]] = {
            intern(prop): tuple(intern(cls) for cls in classes)
            for prop, classes in axioms.ranges.items() if classes
        }
        self.rdf_type = intern(RDF_TYPE)
        self.rdfs_subclassof = intern(RDFS_SUBCLASSOF)
        self.owl_same_as = intern(OWL_SAME_AS)
        # Restriction machinery, compiled to ID space (see
        # repro.owl.expressions): for the classification direction, each
        # named class with the membership matcher of its expression and the
        # trigger naming the individuals a round's delta may reclassify; for
        # the consequence direction, each subclass with its consequence
        # emitter and the properties the emitter reads.
        classifications = [(axiom.named, axiom.expression) for axiom in axioms.equivalences]
        classifications.extend(
            (named, expression) for expression, named in axioms.complex_subclasses)
        self.classifications: List[Tuple[int, object, object]] = [
            (intern(named), compile_matcher(expression, dictionary),
             compile_trigger(expression, dictionary))
            for named, expression in classifications
        ]
        self.complex_superclasses: List[Tuple[int, object, Tuple[int, ...]]] = [
            (intern(axiom.sub),
             compile_consequences(axiom.super_expression, dictionary, self.rdf_type),
             tuple(intern(prop) for prop in axiom.super_expression.properties()))
            for axiom in axioms.complex_superclasses
        ]
        self.has_restrictions = bool(self.classifications or self.complex_superclasses)
        self.schema_only_preds: FrozenSet[int] = frozenset(
            (self.rdfs_subclassof, intern(RDFS_SUBPROPERTYOF)))


class _RuleTables:
    """Everything the rule families need from one :class:`AxiomIndex`.

    Holds the monotonicity verdict and, per term dictionary, the
    :class:`_EncodedAxioms`.  Read-only once built, so one instance can
    serve any number of reasoners over the same axioms and graph family:
    a :class:`~repro.owl.closure.BaseClosure` builds it on first use and
    every reasoner it hands out shares it.
    """

    __slots__ = ("axioms", "monotone", "_encoded")

    def __init__(self, axioms: AxiomIndex) -> None:
        self.axioms = axioms
        # Only the classification direction matters for monotonicity: the
        # consequence direction (complex_superclasses) derives triples from
        # established named-class membership, which additions never revoke.
        self.monotone = all(
            _expression_is_monotone(axiom.expression) for axiom in axioms.equivalences
        ) and all(
            _expression_is_monotone(expr) for expr, _ in axioms.complex_subclasses
        )
        self._encoded: Optional[_EncodedAxioms] = None

    def encoded(self, dictionary: TermDictionary) -> _EncodedAxioms:
        """The axiom tables in ``dictionary``'s ID space (cached)."""
        state = self._encoded
        if state is None or state.dictionary is not dictionary:
            state = self._encoded = _EncodedAxioms(self.axioms, dictionary)
        return state


class Reasoner:
    """Materialises the deductive closure of a graph under the axioms it contains."""

    def __init__(
        self,
        graph: Graph,
        axioms: Optional[AxiomIndex] = None,
        max_iterations: int = 100,
        check_consistency: bool = True,
    ) -> None:
        self.base_graph = graph
        self.axioms = axioms or AxiomIndex.from_graph(graph)
        self.max_iterations = max_iterations
        self.check_consistency = check_consistency
        self.report = ReasoningReport()
        # Built from :attr:`axioms` on first use (see :meth:`_rule_tables`).
        self._tables: Optional[_RuleTables] = None

    def _rule_tables(self) -> _RuleTables:
        tables = self._tables
        if tables is None:
            tables = self._tables = _RuleTables(self.axioms)
        return tables

    def _use_axioms(self, axioms: AxiomIndex) -> None:
        """Switch to ``axioms``, with tables of this reasoner's own."""
        self.axioms = axioms
        self._tables = None

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(self) -> Graph:
        """Return a new graph containing the input plus all inferred triples.

        Semi-naive evaluation over encoded triples: the first round treats
        every input triple as the delta; later rounds only process what the
        previous round derived.  The rule joins run on the graph's
        dictionary-encoded ID tuples (the copy shares the base graph's
        dictionary, so nothing is re-encoded).
        """
        start = time.perf_counter()
        working = self.base_graph.copy()
        self.report = ReasoningReport(input_triples=len(self.base_graph))

        self._materialise_schema(working)
        self.report.iterations = self._fixpoint_encoded(
            working, list(working.triples_ids()), initial=True)
        self.report.inferred_triples = len(working) - self.report.input_triples
        self.report.elapsed_seconds = time.perf_counter() - start

        if self.check_consistency:
            self._check_consistency(working)
        return working

    def extend(self, closure: Graph, added_triples: Iterable[Triple]) -> Graph:
        """Incrementally grow an existing materialised ``closure`` in place.

        ``closure`` must be a fixed point under this reasoner's axioms (a
        previous :meth:`run` / :meth:`extend` result) and ``added_triples``
        the newly asserted base triples; afterwards ``closure`` equals a
        full :meth:`run` over *base + added*.  Work is proportional to the
        consequences of the delta: each round re-tests only the individuals
        its new triples can reclassify (see :meth:`_fixpoint_encoded`) —
        unless the delta carries schema triples (new axioms), in which case
        the axiom index is rebuilt from the extended graph and everything
        is re-closed.

        Incremental extension requires every classification axiom to be
        monotone (see :attr:`supports_incremental_extension`): closed-world
        expressions like ``allValuesFrom`` / ``complementOf`` can be
        *invalidated* by additions, which a forward pass cannot retract.
        A :class:`ValueError` is raised otherwise — including when the delta
        itself introduces such an axiom, in which case ``closure`` has
        already been partially mutated and must be discarded.  (The cache
        layer checks the flag up front and falls back to a full
        materialisation from the asserted graph instead.)

        The caller owns ``closure``: pass a private copy when the original
        (e.g. a shared cache entry) must stay untouched.
        """
        if not self.supports_incremental_extension:
            raise ValueError(
                "incremental extension is unsound for closed-world "
                "(allValuesFrom/complementOf) classification axioms; "
                "re-run the reasoner over the asserted graph instead"
            )
        start = time.perf_counter()
        self.report = ReasoningReport(input_triples=len(closure))
        schema_changed = False
        journal = closure.start_journal()
        try:
            fresh: List[Triple] = []
            for triple in added_triples:
                before = len(closure)
                closure.add(triple)
                if len(closure) > before:
                    fresh.append(triple)
            if fresh:
                if any(self._is_schema_triple(triple) for triple in fresh):
                    # New axioms can re-fire any rule against any old triple, so
                    # a delta-proportional update is unsound here: rebuild the
                    # index and re-close everything.
                    schema_changed = True
                    self._use_axioms(AxiomIndex.from_graph(closure))
                    if not self.supports_incremental_extension:
                        raise ValueError(
                            "the delta introduces closed-world classification "
                            "axioms; the closure cannot be extended in place — "
                            "re-run the reasoner over the asserted graph"
                        )
                    self._materialise_schema(closure)
                    self.report.iterations = self._fixpoint_encoded(
                        closure, list(closure.triples_ids()), initial=True)
                else:
                    fresh_ids = [closure.encode_triple(triple) for triple in fresh]
                    self.report.iterations = self._fixpoint_encoded(closure, fresh_ids)
            all_added = journal.added()
        finally:
            journal.close()
        self.report.inferred_triples = len(closure) - self.report.input_triples
        self.report.elapsed_seconds = time.perf_counter() - start
        if self.check_consistency:
            if schema_changed:
                self._check_consistency(closure)
            else:
                # New violations need a newly added type, so only re-check
                # individuals the extension typed.
                self._check_consistency(
                    closure, {s for s, p, _ in all_added if p == RDF_TYPE})
        return closure

    @property
    def supports_incremental_extension(self) -> bool:
        """``True`` when :meth:`extend` is sound under the current axioms
        (every classification axiom is monotone)."""
        return self._rule_tables().monotone

    @staticmethod
    def _is_schema_triple(triple: Triple) -> bool:
        _, p, o = triple
        return p in _SCHEMA_PREDICATES or (p == RDF_TYPE and o in _SCHEMA_TYPES)

    def run_naive(self) -> Graph:
        """The original naive fixed-point loop (re-applies every rule family
        over the entire graph each iteration).

        Kept as the reference oracle for the differential test suite and the
        scaling benchmarks; :meth:`run` must produce the identical closure.
        """
        start = time.perf_counter()
        working = self.base_graph.copy()
        self.report = ReasoningReport(input_triples=len(self.base_graph))

        self._materialise_schema(working)

        iteration = 0
        changed = True
        while changed and iteration < self.max_iterations:
            iteration += 1
            before = len(working)
            self._naive_property_rules(working)
            self._naive_type_rules(working)
            self._naive_restriction_rules(working)
            changed = len(working) > before
        self.report.iterations = iteration
        self.report.inferred_triples = len(working) - self.report.input_triples
        self.report.elapsed_seconds = time.perf_counter() - start

        if self.check_consistency:
            self._check_consistency(working)
        return working

    # ------------------------------------------------------------------
    # Encoded semi-naive fixpoint
    # ------------------------------------------------------------------
    def _fixpoint_encoded(self, graph: Graph, delta: Sequence[EncodedTriple],
                          initial: bool = False) -> int:
        """Drive rule rounds over encoded ID triples until none derives a
        new triple.

        Each round hands the previous round's additions to every rule family;
        triples a family adds are seen by the other families next round (the
        round granularity only affects how firings are batched, not the fixed
        point).  ``initial`` marks a round whose delta is the whole graph, so
        restriction classification checks every individual, exactly like
        the naive first iteration; every later round groups its delta once
        (:meth:`_group_delta`) and re-tests only the individuals the
        compiled triggers name.  Time per rule family lands in the report.
        """
        enc = self._rule_tables().encoded(graph.dictionary)
        clock = time.perf_counter
        seconds = dict.fromkeys(("property", "type", "classification", "consequences"), 0.0)
        iteration = 0
        ancestor_cache: Dict[int, Tuple[int, ...]] = {}
        while delta and iteration < self.max_iterations:
            iteration += 1
            out: List[EncodedTriple] = []
            started = clock()
            self._apply_property_rules_encoded(graph, delta, out, enc)
            typed = clock()
            self._apply_type_rules_encoded(graph, delta, out, enc, ancestor_cache)
            classified = clock()
            seconds["property"] += typed - started
            seconds["type"] += classified - typed
            if enc.has_restrictions:
                grouped = None if initial and iteration == 1 else self._group_delta(delta, enc)
                self._apply_classification_encoded(graph, grouped, out, enc)
                consequences = clock()
                self._apply_consequences_encoded(graph, grouped, out, enc)
                seconds["classification"] += consequences - classified
                seconds["consequences"] += clock() - consequences
            delta = out
        for family, spent in seconds.items():
            self.report.time(family, spent)
        return iteration

    def _property_candidates_encoded(
            self, graph: Graph, delta: Sequence[EncodedTriple],
            enc: _EncodedAxioms) -> Tuple[List[EncodedTriple], ...]:
        """Property-family candidate triples derived from ``delta``.

        Pure candidate generation: every join reads the *pre-round* graph
        state and nothing is added here, so each family's candidates are a
        function of (delta, graph state at round start) only.
        """
        spo = graph._spo
        pos = graph._pos
        kinds = enc.dictionary.kinds
        superproperties = enc.superproperties
        inverse_of = enc.inverse_of
        symmetric = enc.symmetric
        transitive = enc.transitive
        chain_steps = enc.chain_steps
        sub_adds: List[EncodedTriple] = []
        inv_adds: List[EncodedTriple] = []
        sym_adds: List[EncodedTriple] = []
        trans_adds: List[EncodedTriple] = []
        chain_adds: List[EncodedTriple] = []

        for s, p, o in delta:
            # Sub-property propagation: (x p y), p ⊑ q  =>  (x q y)
            supers = superproperties.get(p)
            if supers:
                for sup in supers:
                    sub_adds.append((s, sup, o))
            if kinds[o] == KIND_LITERAL:
                continue
            # Inverse properties: (x p y), p inverseOf q  =>  (y q x)
            inverses = inverse_of.get(p)
            if inverses:
                for inverse in inverses:
                    inv_adds.append((o, inverse, s))
            # Symmetric properties.
            if p in symmetric:
                sym_adds.append((o, p, s))
            # Transitive properties: join the new edge with the closure on
            # both sides; multi-hop paths cascade through later rounds.
            if p in transitive:
                by_pred = spo.get(o)
                if by_pred:
                    for nxt in by_pred.get(p, ()):
                        if kinds[nxt] != KIND_LITERAL:
                            trans_adds.append((s, p, nxt))
                by_obj = pos.get(p)
                if by_obj:
                    for prev in by_obj.get(s, ()):
                        trans_adds.append((prev, p, o))
            # Property chains: p1 o p2 ⊑ q — plug the new edge into every
            # position it can occupy and walk the rest of the chain.
            steps = chain_steps.get(p)
            if steps:
                for head, chain, position in steps:
                    for left, right in self._chain_matches_encoded(
                            graph, chain, position, s, o, kinds):
                        chain_adds.append((left, head, right))
        return sub_adds, inv_adds, sym_adds, trans_adds, chain_adds

    def _apply_property_rules_encoded(self, graph: Graph,
                                      delta: Sequence[EncodedTriple],
                                      out: List[EncodedTriple],
                                      enc: _EncodedAxioms) -> None:
        """The property rule family joined through the integer indexes."""
        sub_adds, inv_adds, sym_adds, trans_adds, chain_adds = \
            self._property_candidates_encoded(graph, delta, enc)
        self._add_all_encoded(graph, sub_adds, "subPropertyOf", out, enc)
        self._add_all_encoded(graph, inv_adds, "inverseOf", out, enc)
        self._add_all_encoded(graph, sym_adds, "symmetric", out, enc)
        self._add_all_encoded(graph, trans_adds, "transitive", out, enc)
        self._add_all_encoded(graph, chain_adds, "propertyChain", out, enc)

    def _chain_matches_encoded(self, graph: Graph, chain: Tuple[int, ...],
                               position: int, s: int, o: int,
                               kinds: List[int]) -> List[Tuple[int, int]]:
        """(start, end) ID pairs completed by the edge ``(s, chain[position], o)``."""
        spo = graph._spo
        pos = graph._pos
        lefts: Set[int] = {s}
        for step in reversed(chain[:position]):
            previous: Set[int] = set()
            by_obj = pos.get(step)
            if by_obj:
                for node in lefts:
                    subjects = by_obj.get(node)
                    if subjects:
                        previous.update(subjects)
            lefts = previous
            if not lefts:
                return []
        rights: Set[int] = {o}
        for step in chain[position + 1:]:
            following: Set[int] = set()
            for node in rights:
                by_pred = spo.get(node)
                if by_pred:
                    for value in by_pred.get(step, ()):
                        if kinds[value] != KIND_LITERAL:
                            following.add(value)
            rights = following
            if not rights:
                return []
        return [(left, right) for left in lefts for right in rights]

    def _type_candidates_encoded(
            self, graph: Graph, delta: Sequence[EncodedTriple],
            enc: _EncodedAxioms,
            ancestor_cache: Dict[int, Tuple[int, ...]]
    ) -> Tuple[List[EncodedTriple], List[EncodedTriple]]:
        """Domain/range and subclass-propagation candidates from ``delta``.

        Like :meth:`_property_candidates_encoded` this is pure candidate
        generation.  The only graph state it consults is the subClassOf
        fragment, which is static for the whole fixpoint (no rule derives
        ``subClassOf``).
        """
        spo = graph._spo
        kinds = enc.dictionary.kinds
        terms = enc.dictionary.terms
        intern = enc.dictionary.intern
        domains = enc.domains
        ranges = enc.ranges
        rdf_type = enc.rdf_type
        rdfs_subclassof = enc.rdfs_subclassof
        dr_adds: List[EncodedTriple] = []
        type_adds: List[EncodedTriple] = []
        for s, p, o in delta:
            # Domain / range typing.
            domain_classes = domains.get(p)
            if domain_classes:
                for domain in domain_classes:
                    dr_adds.append((s, rdf_type, domain))
            if kinds[o] != KIND_LITERAL:
                range_classes = ranges.get(p)
                if range_classes:
                    for range_ in range_classes:
                        dr_adds.append((o, rdf_type, range_))
            # Type propagation along the class hierarchy (static per fixpoint:
            # no rule derives subClassOf, so the ancestor cache stays valid).
            if p == rdf_type and kinds[o] == KIND_IRI:
                ancestors = ancestor_cache.get(o)
                if ancestors is None:
                    found: Set[int] = set()
                    by_pred = spo.get(o)
                    if by_pred:
                        for ancestor in by_pred.get(rdfs_subclassof, ()):
                            if kinds[ancestor] == KIND_IRI:
                                found.add(ancestor)
                    for ancestor_term in self.axioms.superclass_closure(terms[o]):
                        ancestor = intern(ancestor_term)
                        if ancestor != o:
                            found.add(ancestor)
                    ancestors = tuple(found)
                    ancestor_cache[o] = ancestors
                for ancestor in ancestors:
                    type_adds.append((s, rdf_type, ancestor))
        return dr_adds, type_adds

    def _apply_type_rules_encoded(self, graph: Graph,
                                  delta: Sequence[EncodedTriple],
                                  out: List[EncodedTriple],
                                  enc: _EncodedAxioms,
                                  ancestor_cache: Dict[int, Tuple[int, ...]]) -> None:
        dr_adds, type_adds = self._type_candidates_encoded(
            graph, delta, enc, ancestor_cache)
        self._add_all_encoded(graph, dr_adds, "domain-range", out, enc)
        self._add_all_encoded(graph, type_adds, "subClassOf-types", out, enc)

    def _individuals_ids(self, graph: Graph, enc: _EncodedAxioms) -> Set[int]:
        """Every node the restriction rules may classify: subjects, and
        non-literal objects of non-type triples, outside the schema-only
        predicates (the ID-space twin of the naive :meth:`_individuals`)."""
        individuals: Set[int] = set()
        kinds = enc.dictionary.kinds
        rdf_type = enc.rdf_type
        schema_only = enc.schema_only_preds
        for s, by_pred in graph._spo.items():
            for p, objects in by_pred.items():
                if p in schema_only:
                    continue
                individuals.add(s)
                if p != rdf_type:
                    individuals.update(o for o in objects if kinds[o] != KIND_LITERAL)
        return individuals

    @staticmethod
    def _group_delta(delta: Sequence[EncodedTriple], enc: _EncodedAxioms) -> Delta:
        """Group a round's delta the way the compiled triggers read it.

        ``nodes`` mirrors :meth:`_individuals_ids`, so no node the naive
        pass would skip (e.g. a class appearing only as a type object) is
        ever a candidate.
        """
        kinds = enc.dictionary.kinds
        rdf_type = enc.rdf_type
        schema_only = enc.schema_only_preds
        by_pred: Dict[int, Set[int]] = {}
        typed: Dict[int, Set[int]] = {}
        nodes: Set[int] = set()
        for s, p, o in delta:
            if p in schema_only:
                continue
            nodes.add(s)
            subjects = by_pred.get(p)
            if subjects is None:
                by_pred[p] = {s}
            else:
                subjects.add(s)
            if p == rdf_type:
                if kinds[o] == KIND_IRI:
                    members = typed.get(o)
                    if members is None:
                        typed[o] = {s}
                    else:
                        members.add(s)
            elif kinds[o] != KIND_LITERAL:
                nodes.add(o)
        return Delta(by_pred, typed, nodes)

    def _apply_classification_encoded(self, graph: Graph, delta: Optional[Delta],
                                      out: List[EncodedTriple],
                                      enc: _EncodedAxioms) -> None:
        """Classification: expression ≡/⊒ named class — an individual that
        satisfies the expression gains the named type.

        Each class's candidates are what its compiled trigger names for the
        round's ``delta``, or every individual when ``delta`` is ``None``
        (the first round of a full run).  Named types are read from the
        graph's own SPO index, so no term is decoded and no type index is
        kept anywhere in this family.
        """
        spo = graph._spo
        rdf_type = enc.rdf_type
        everyone = self._individuals_ids(graph, enc) if delta is None else None
        additions: List[EncodedTriple] = []
        checks = 0
        for named, matcher, trigger in enc.classifications:
            candidates = everyone if delta is None else trigger(graph, delta)
            for individual in candidates:
                by_pred = spo.get(individual)
                if by_pred:
                    types = by_pred.get(rdf_type)
                    if types and named in types:
                        continue
                checks += 1
                if matcher(graph, individual):
                    additions.append((individual, rdf_type, named))
        self.report.classification_checks += checks
        self._add_all_encoded(graph, additions, "classification", out, enc)

    def _apply_consequences_encoded(self, graph: Graph, delta: Optional[Delta],
                                    out: List[EncodedTriple],
                                    enc: _EncodedAxioms) -> None:
        """The consequence direction: named class ⊑ expression.

        A member's consequences change only when it newly joins the class
        or gains a triple through a property the expression reads, so those
        are the candidates (every member when ``delta`` is ``None``).
        """
        spo = graph._spo
        rdf_type = enc.rdf_type
        by_class = graph._pos.get(rdf_type, {})
        additions: List[EncodedTriple] = []
        for sub, emit, properties in enc.complex_superclasses:
            if delta is None:
                members = by_class.get(sub, ())
            else:
                members = set(delta.typed.get(sub, ()))
                for prop in properties:
                    for subject in delta.by_pred.get(prop, ()):
                        types = spo[subject].get(rdf_type)
                        if types and sub in types:
                            members.add(subject)
            for member in members:
                emit(graph, member, additions)
        self._add_all_encoded(graph, additions, "restriction-consequences", out, enc)

    def _add_all_encoded(self, graph: Graph, triples: List[EncodedTriple],
                         rule: str, out: List[EncodedTriple],
                         enc: _EncodedAxioms) -> None:
        """Add encoded ``triples``, counting effective firings; genuinely new
        triples land in ``out`` as the next round's delta."""
        if not triples:
            return
        same_as = enc.owl_same_as
        batch = [t for t in triples if t[1] != same_as or t[0] != t[2]]
        self.report.record(rule, graph.add_encoded_many(batch, out))

    # ------------------------------------------------------------------
    # Schema closure
    # ------------------------------------------------------------------
    def _materialise_schema(self, graph: Graph) -> None:
        """Add the transitive closures of subClassOf / subPropertyOf."""
        added = 0
        for cls in list(self.axioms.named_subclass_of):
            for ancestor in self.axioms.superclass_closure(cls):
                if ancestor != cls:
                    before = len(graph)
                    graph.add((cls, RDFS_SUBCLASSOF, ancestor))
                    added += len(graph) - before
        for prop in list(self.axioms.subproperty_of):
            for ancestor in self.axioms.superproperty_closure(prop):
                if ancestor != prop:
                    before = len(graph)
                    graph.add((prop, RDFS_SUBPROPERTYOF, ancestor))
                    added += len(graph) - before
        self.report.record("schema-closure", added)

    # ------------------------------------------------------------------
    # Term-level helpers (run_naive and the consistency check)
    # ------------------------------------------------------------------
    def _type_index(self, graph: Graph) -> Dict[object, Set[IRI]]:
        index: Dict[object, Set[IRI]] = {}
        for s, _, o in graph.triples((None, RDF_TYPE, None)):
            if isinstance(o, IRI):
                index.setdefault(s, set()).add(o)
        return index

    def _individuals(self, graph: Graph) -> Set[object]:
        individuals: Set[object] = set()
        for s, p, o in graph:
            if p in _SCHEMA_ONLY_PREDICATES:
                continue
            if isinstance(s, (IRI, BNode)):
                individuals.add(s)
            if p == RDF_TYPE:
                continue
            if isinstance(o, (IRI, BNode)):
                individuals.add(o)
        return individuals

    def _expression_consequences(
        self,
        graph: Graph,
        individual,
        expression: ClassExpression,
        type_index,
    ) -> List[Triple]:
        """Triples entailed by ``individual`` being an instance of ``expression``."""
        out: List[Triple] = []
        if isinstance(expression, HasValue):
            out.append((individual, expression.property, expression.value))
        elif isinstance(expression, AllValuesFrom):
            filler = expression.filler
            if isinstance(filler, NamedClass):
                for _, _, value in graph.triples((individual, expression.property, None)):
                    if not isinstance(value, Literal):
                        out.append((value, RDF_TYPE, filler.iri))
        elif isinstance(expression, IntersectionOf):
            for operand in expression.operands:
                if isinstance(operand, NamedClass):
                    out.append((individual, RDF_TYPE, operand.iri))
                else:
                    out.extend(self._expression_consequences(graph, individual, operand, type_index))
        elif isinstance(expression, NamedClass):
            out.append((individual, RDF_TYPE, expression.iri))
        # SomeValuesFrom / UnionOf have no deterministic consequences without
        # introducing fresh individuals (beyond OWL-RL), so they are skipped.
        return out

    # ------------------------------------------------------------------
    # Naive rule families (reference oracle for run_naive)
    # ------------------------------------------------------------------
    def _naive_property_rules(self, graph: Graph) -> None:
        additions: List[Triple] = []

        # Sub-property propagation: (x p y), p ⊑ q  =>  (x q y)
        for prop in list(self.axioms.subproperty_of):
            supers = self.axioms.superproperty_closure(prop) - {prop}
            if not supers:
                continue
            for s, _, o in list(graph.triples((None, prop, None))):
                for sup in supers:
                    additions.append((s, sup, o))
        self._add_all(graph, additions, "subPropertyOf")

        # Inverse properties: (x p y), p inverseOf q  =>  (y q x)
        additions = []
        for prop, inverses in self.axioms.inverse_of.items():
            for s, _, o in list(graph.triples((None, prop, None))):
                if isinstance(o, Literal):
                    continue
                for inverse in inverses:
                    additions.append((o, inverse, s))
        self._add_all(graph, additions, "inverseOf")

        # Symmetric properties.
        additions = []
        for prop in self.axioms.symmetric:
            for s, _, o in list(graph.triples((None, prop, None))):
                if not isinstance(o, Literal):
                    additions.append((o, prop, s))
        self._add_all(graph, additions, "symmetric")

        # Transitive properties: closure via repeated join.
        additions = []
        for prop in self.axioms.transitive:
            pairs = [(s, o) for s, _, o in graph.triples((None, prop, None)) if not isinstance(o, Literal)]
            successors: Dict[object, Set[object]] = {}
            for s, o in pairs:
                successors.setdefault(s, set()).add(o)
            for s, o in pairs:
                for nxt in successors.get(o, ()):
                    additions.append((s, prop, nxt))
        self._add_all(graph, additions, "transitive")

        # Property chains: p1 o p2 ⊑ q.
        additions = []
        for prop, chains in self.axioms.property_chains.items():
            for chain in chains:
                pairs = self._evaluate_chain(graph, chain)
                for s, o in pairs:
                    additions.append((s, prop, o))
        self._add_all(graph, additions, "propertyChain")

    def _evaluate_chain(self, graph: Graph, chain: List[IRI]) -> Set[Tuple[object, object]]:
        current: Optional[Set[Tuple[object, object]]] = None
        for step in chain:
            step_pairs = {
                (s, o) for s, _, o in graph.triples((None, step, None)) if not isinstance(o, Literal)
            }
            if current is None:
                current = step_pairs
                continue
            by_mid: Dict[object, Set[object]] = {}
            for mid, o in step_pairs:
                by_mid.setdefault(mid, set()).add(o)
            joined: Set[Tuple[object, object]] = set()
            for s, mid in current:
                for o in by_mid.get(mid, ()):
                    joined.add((s, o))
            current = joined
        return current or set()

    def _naive_type_rules(self, graph: Graph) -> None:
        additions: List[Triple] = []

        # Domain / range typing.
        for prop, domains in self.axioms.domains.items():
            for s, _, _ in list(graph.triples((None, prop, None))):
                for domain in domains:
                    additions.append((s, RDF_TYPE, domain))
        for prop, ranges in self.axioms.ranges.items():
            for _, _, o in list(graph.triples((None, prop, None))):
                if isinstance(o, Literal):
                    continue
                for range_ in ranges:
                    additions.append((o, RDF_TYPE, range_))
        self._add_all(graph, additions, "domain-range")

        # Type propagation along the (already materialised) class hierarchy.
        additions = []
        superclass_cache: Dict[IRI, Set[IRI]] = {}
        for individual, _, cls in list(graph.triples((None, RDF_TYPE, None))):
            if not isinstance(cls, IRI):
                continue
            ancestors = superclass_cache.get(cls)
            if ancestors is None:
                ancestors = {
                    ancestor
                    for ancestor in graph.objects(cls, RDFS_SUBCLASSOF)
                    if isinstance(ancestor, IRI)
                }
                ancestors |= self.axioms.superclass_closure(cls) - {cls}
                superclass_cache[cls] = ancestors
            for ancestor in ancestors:
                additions.append((individual, RDF_TYPE, ancestor))
        self._add_all(graph, additions, "subClassOf-types")

    def _naive_restriction_rules(self, graph: Graph) -> None:
        type_index = self._type_index(graph)
        individuals = self._individuals(graph)

        additions: List[Triple] = []
        for axiom in self.axioms.equivalences:
            for individual in individuals:
                if axiom.named in type_index.get(individual, set()):
                    continue
                if axiom.expression.matches(graph, individual, type_index):
                    additions.append((individual, RDF_TYPE, axiom.named))
        for expression, named in self.axioms.complex_subclasses:
            for individual in individuals:
                if named in type_index.get(individual, set()):
                    continue
                if expression.matches(graph, individual, type_index):
                    additions.append((individual, RDF_TYPE, named))
        self._add_all(graph, additions, "classification")

        type_index = self._type_index(graph)
        additions = []
        for axiom in self.axioms.complex_superclasses:
            members = [ind for ind, types in type_index.items() if axiom.sub in types]
            if not members:
                continue
            for member in members:
                additions.extend(self._expression_consequences(graph, member, axiom.super_expression, type_index))
        self._add_all(graph, additions, "restriction-consequences")

    # ------------------------------------------------------------------
    def _check_consistency(self, graph: Graph,
                           individuals: Optional[Set[object]] = None) -> None:
        """Raise on disjointness violations; ``individuals`` scopes the check."""
        if individuals is None:
            type_index = self._type_index(graph)
        else:
            if not individuals:
                return
            type_index = {
                individual: {o for o in graph.objects(individual, RDF_TYPE)
                             if isinstance(o, IRI)}
                for individual in individuals
            }
        for left, right in self.axioms.disjoint_classes:
            for individual, types in type_index.items():
                if left in types and right in types:
                    raise InconsistentOntologyError(
                        f"{individual} is an instance of disjoint classes {left} and {right}"
                    )
        for individual, types in type_index.items():
            if OWL_NOTHING in types:
                raise InconsistentOntologyError(f"{individual} is typed owl:Nothing")

    # ------------------------------------------------------------------
    def _add_all(self, graph: Graph, triples: Iterable[Triple], rule: str) -> None:
        """Add ``triples``, counting effective firings."""
        added = 0
        for triple in triples:
            s, p, o = triple
            if s == o and p == OWL_SAME_AS:
                continue
            before = len(graph)
            graph.add(triple)
            added += len(graph) - before
        self.report.record(rule, added)

    # ------------------------------------------------------------------
    def inferred_only(self) -> Graph:
        """Return only the triples added by reasoning (for inspection/tests)."""
        closed = self.run()
        result = Graph()
        result.namespace_manager = self.base_graph.namespace_manager.copy()
        base = set(self.base_graph)
        result.addN(t for t in closed if t not in base)
        return result
