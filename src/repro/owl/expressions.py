"""Class expressions: the fragment of OWL the Food Explanation Ontology uses.

A class expression is either a named class, a property restriction
(``someValuesFrom`` / ``allValuesFrom`` / ``hasValue`` / ``minCardinality``),
a boolean combination (intersection, union, complement) or an enumeration
(``oneOf``).  Expressions are parsed out of their RDF encoding by
:func:`parse_class_expression` and the reasoner checks individual
membership with :meth:`ClassExpression.matches`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from ..rdf.collection import read_collection
from ..rdf.dictionary import KIND_LITERAL, TermDictionary
from ..rdf.graph import Graph
from ..rdf.terms import BNode, IRI, Literal
from .vocabulary import (
    OWL_ALL_VALUES_FROM,
    OWL_CARDINALITY,
    OWL_COMPLEMENT_OF,
    OWL_HAS_VALUE,
    OWL_INTERSECTION_OF,
    OWL_MIN_CARDINALITY,
    OWL_ON_PROPERTY,
    OWL_ONE_OF,
    OWL_RESTRICTION,
    OWL_SOME_VALUES_FROM,
    OWL_THING,
    OWL_UNION_OF,
    RDF_TYPE,
)

__all__ = [
    "ClassExpression",
    "NamedClass",
    "SomeValuesFrom",
    "AllValuesFrom",
    "HasValue",
    "MinCardinality",
    "IntersectionOf",
    "UnionOf",
    "ComplementOf",
    "OneOf",
    "Delta",
    "compile_consequences",
    "compile_matcher",
    "compile_trigger",
    "parse_class_expression",
]


class ClassExpression:
    """Base class for the supported OWL class expressions."""

    def matches(self, graph: Graph, individual, type_index) -> bool:
        """Return ``True`` if ``individual`` is an instance of this expression.

        ``type_index`` maps individuals to their (already inferred) set of
        named classes, so named-class membership checks are O(1).
        """
        raise NotImplementedError

    def named_classes(self) -> Set[IRI]:
        """All named classes referenced by this expression (for dependency tracking)."""
        return set()

    def properties(self) -> Set[IRI]:
        """All properties referenced by this expression."""
        return set()


@dataclass(frozen=True)
class NamedClass(ClassExpression):
    iri: IRI

    def matches(self, graph, individual, type_index) -> bool:
        if self.iri == OWL_THING:
            return True
        return self.iri in type_index.get(individual, ())

    def named_classes(self) -> Set[IRI]:
        return {self.iri}


@dataclass(frozen=True)
class SomeValuesFrom(ClassExpression):
    """``onProperty some filler`` — an existential restriction."""

    property: IRI
    filler: ClassExpression

    def matches(self, graph, individual, type_index) -> bool:
        for _, _, value in graph.triples((individual, self.property, None)):
            if self.filler.matches(graph, value, type_index):
                return True
        return False

    def named_classes(self) -> Set[IRI]:
        return self.filler.named_classes()

    def properties(self) -> Set[IRI]:
        return {self.property} | self.filler.properties()


@dataclass(frozen=True)
class AllValuesFrom(ClassExpression):
    """``onProperty only filler`` — a universal restriction.

    Membership checking uses the closed-world reading (every asserted value
    is in the filler); this matches how the explanation pipeline uses it.
    """

    property: IRI
    filler: ClassExpression

    def matches(self, graph, individual, type_index) -> bool:
        for _, _, value in graph.triples((individual, self.property, None)):
            if not self.filler.matches(graph, value, type_index):
                return False
        return True

    def named_classes(self) -> Set[IRI]:
        return self.filler.named_classes()

    def properties(self) -> Set[IRI]:
        return {self.property} | self.filler.properties()


@dataclass(frozen=True)
class HasValue(ClassExpression):
    """``onProperty value v``."""

    property: IRI
    value: object

    def matches(self, graph, individual, type_index) -> bool:
        return (individual, self.property, self.value) in graph

    def properties(self) -> Set[IRI]:
        return {self.property}


@dataclass(frozen=True)
class MinCardinality(ClassExpression):
    """``onProperty min n`` (unqualified)."""

    property: IRI
    cardinality: int

    def matches(self, graph, individual, type_index) -> bool:
        count = sum(1 for _ in graph.triples((individual, self.property, None)))
        return count >= self.cardinality

    def properties(self) -> Set[IRI]:
        return {self.property}


@dataclass(frozen=True)
class IntersectionOf(ClassExpression):
    operands: Tuple[ClassExpression, ...]

    def matches(self, graph, individual, type_index) -> bool:
        return all(op.matches(graph, individual, type_index) for op in self.operands)

    def named_classes(self) -> Set[IRI]:
        out: Set[IRI] = set()
        for operand in self.operands:
            out |= operand.named_classes()
        return out

    def properties(self) -> Set[IRI]:
        out: Set[IRI] = set()
        for operand in self.operands:
            out |= operand.properties()
        return out


@dataclass(frozen=True)
class UnionOf(ClassExpression):
    operands: Tuple[ClassExpression, ...]

    def matches(self, graph, individual, type_index) -> bool:
        return any(op.matches(graph, individual, type_index) for op in self.operands)

    def named_classes(self) -> Set[IRI]:
        out: Set[IRI] = set()
        for operand in self.operands:
            out |= operand.named_classes()
        return out

    def properties(self) -> Set[IRI]:
        out: Set[IRI] = set()
        for operand in self.operands:
            out |= operand.properties()
        return out


@dataclass(frozen=True)
class ComplementOf(ClassExpression):
    """Negation, read closed-world for membership checks."""

    operand: ClassExpression

    def matches(self, graph, individual, type_index) -> bool:
        return not self.operand.matches(graph, individual, type_index)

    def named_classes(self) -> Set[IRI]:
        return self.operand.named_classes()

    def properties(self) -> Set[IRI]:
        return self.operand.properties()


@dataclass(frozen=True)
class OneOf(ClassExpression):
    members: FrozenSet[object]

    def matches(self, graph, individual, type_index) -> bool:
        return individual in self.members


def parse_class_expression(graph: Graph, node) -> Optional[ClassExpression]:
    """Parse the class expression rooted at ``node`` in ``graph``.

    Returns ``None`` when ``node`` does not describe a supported expression
    (the caller then ignores the axiom rather than failing).
    """
    if isinstance(node, IRI):
        return NamedClass(node)
    if not isinstance(node, BNode):
        return None

    intersection = graph.value(node, OWL_INTERSECTION_OF)
    if intersection is not None:
        operands = _parse_operands(graph, intersection)
        return IntersectionOf(tuple(operands)) if operands else None
    union = graph.value(node, OWL_UNION_OF)
    if union is not None:
        operands = _parse_operands(graph, union)
        return UnionOf(tuple(operands)) if operands else None
    complement = graph.value(node, OWL_COMPLEMENT_OF)
    if complement is not None:
        inner = parse_class_expression(graph, complement)
        return ComplementOf(inner) if inner is not None else None
    one_of = graph.value(node, OWL_ONE_OF)
    if one_of is not None:
        members = read_collection(graph, one_of)
        return OneOf(frozenset(members))

    if (node, RDF_TYPE, OWL_RESTRICTION) in graph or graph.value(node, OWL_ON_PROPERTY) is not None:
        prop = graph.value(node, OWL_ON_PROPERTY)
        if not isinstance(prop, IRI):
            return None
        some = graph.value(node, OWL_SOME_VALUES_FROM)
        if some is not None:
            filler = parse_class_expression(graph, some)
            return SomeValuesFrom(prop, filler) if filler is not None else None
        only = graph.value(node, OWL_ALL_VALUES_FROM)
        if only is not None:
            filler = parse_class_expression(graph, only)
            return AllValuesFrom(prop, filler) if filler is not None else None
        has_value = graph.value(node, OWL_HAS_VALUE)
        if has_value is not None:
            return HasValue(prop, has_value)
        for predicate in (OWL_MIN_CARDINALITY, OWL_CARDINALITY):
            cardinality = graph.value(node, predicate)
            if isinstance(cardinality, Literal):
                try:
                    return MinCardinality(prop, int(cardinality.value))
                except (TypeError, ValueError):
                    return None
    return None


def _parse_operands(graph: Graph, list_head) -> List[ClassExpression]:
    operands: List[ClassExpression] = []
    for member in read_collection(graph, list_head):
        parsed = parse_class_expression(graph, member)
        if parsed is not None:
            operands.append(parsed)
    return operands


# ---------------------------------------------------------------------------
# Encoded-domain compilation
# ---------------------------------------------------------------------------
class Delta(NamedTuple):
    """One reasoning round's new triples, grouped once for the triggers.

    ``by_pred`` maps each predicate to the subjects of its new triples,
    ``typed`` each class to the individuals that gained that type, and
    ``nodes`` holds every individual the new triples touch (subjects, and
    non-literal objects of non-type triples).
    """

    by_pred: Dict[int, Set[int]]
    typed: Dict[int, Set[int]]
    nodes: Set[int]


_NONE: FrozenSet[int] = frozenset()


def compile_matcher(expression: ClassExpression, dictionary: TermDictionary):
    """Compile ``expression`` into a membership predicate over encoded IDs.

    The returned callable ``matcher(graph, individual_id)`` mirrors
    :meth:`ClassExpression.matches` exactly, but every operand is an
    integer from ``dictionary`` and named-class membership is read from
    the graph's own SPO index (``graph._spo[individual][rdf:type]``) — so
    the reasoner's classification loop probes the integer indexes
    directly instead of hashing terms or keeping a type index of its own.
    Expression constants are interned once, at compile time.
    """
    intern = dictionary.intern
    if isinstance(expression, NamedClass):
        if expression.iri == OWL_THING:
            return lambda graph, individual: True
        cls_id = intern(expression.iri)
        type_id = intern(RDF_TYPE)

        def named_matcher(graph, individual, _cls=cls_id, _t=type_id):
            by_pred = graph._spo.get(individual)
            if not by_pred:
                return False
            types = by_pred.get(_t)
            return types is not None and _cls in types
        return named_matcher
    if isinstance(expression, SomeValuesFrom):
        prop_id = intern(expression.property)
        named = expression.filler
        if isinstance(named, NamedClass) and named.iri != OWL_THING:
            # A hub individual can have thousands of ``p``-values: intersect
            # them with the filler's members (rdf:type's POS leaf) in C,
            # over the smaller set, instead of testing each value in turn.
            cls_id = intern(named.iri)
            type_id = intern(RDF_TYPE)

            def some_named_matcher(graph, individual, _p=prop_id, _cls=cls_id,
                                   _t=type_id):
                by_pred = graph._spo.get(individual)
                if not by_pred:
                    return False
                values = by_pred.get(_p)
                if not values:
                    return False
                by_class = graph._pos.get(_t)
                if not by_class:
                    return False
                members = by_class.get(_cls)
                return members is not None and not values.isdisjoint(members)
            return some_named_matcher
        filler = compile_matcher(expression.filler, dictionary)

        def some_matcher(graph, individual, _p=prop_id, _f=filler):
            by_pred = graph._spo.get(individual)
            if not by_pred:
                return False
            values = by_pred.get(_p)
            if not values:
                return False
            for value in values:
                if _f(graph, value):
                    return True
            return False
        return some_matcher
    if isinstance(expression, AllValuesFrom):
        prop_id = intern(expression.property)
        filler = compile_matcher(expression.filler, dictionary)

        def all_matcher(graph, individual, _p=prop_id, _f=filler):
            by_pred = graph._spo.get(individual)
            if not by_pred:
                return True
            for value in by_pred.get(_p, ()):
                if not _f(graph, value):
                    return False
            return True
        return all_matcher
    if isinstance(expression, HasValue):
        prop_id = intern(expression.property)
        value_id = intern(expression.value)

        def has_value_matcher(graph, individual, _p=prop_id, _v=value_id):
            by_pred = graph._spo.get(individual)
            return by_pred is not None and _v in by_pred.get(_p, ())
        return has_value_matcher
    if isinstance(expression, MinCardinality):
        prop_id = intern(expression.property)
        minimum = expression.cardinality

        def min_card_matcher(graph, individual, _p=prop_id, _n=minimum):
            by_pred = graph._spo.get(individual)
            if not by_pred:
                return 0 >= _n
            return len(by_pred.get(_p, ())) >= _n
        return min_card_matcher
    if isinstance(expression, IntersectionOf):
        operands = tuple(compile_matcher(op, dictionary) for op in expression.operands)

        def intersection_matcher(graph, individual, _ops=operands):
            for op in _ops:
                if not op(graph, individual):
                    return False
            return True
        return intersection_matcher
    if isinstance(expression, UnionOf):
        operands = tuple(compile_matcher(op, dictionary) for op in expression.operands)

        def union_matcher(graph, individual, _ops=operands):
            for op in _ops:
                if op(graph, individual):
                    return True
            return False
        return union_matcher
    if isinstance(expression, ComplementOf):
        operand = compile_matcher(expression.operand, dictionary)
        return lambda graph, individual, _op=operand: not _op(graph, individual)
    if isinstance(expression, OneOf):
        member_ids = frozenset(intern(member) for member in expression.members)
        return lambda graph, individual, _m=member_ids: individual in _m
    # Unknown expression kind: never matches (mirrors the conservative
    # behaviour of the parser, which drops unsupported axioms).
    return lambda graph, individual: False


def compile_trigger(expression: ClassExpression, dictionary: TermDictionary):
    """Compile the individuals whose membership in ``expression`` a round's
    :class:`Delta` may change.

    The returned callable ``trigger(graph, delta)`` gives a superset of the
    individuals whose :func:`compile_matcher` verdict can differ from the
    one before the round's triples were added (``graph`` already holds
    them), so a semi-naive round re-tests only those instead of every
    individual.  Callers must not mutate the returned set.

    * named class C: the individuals newly typed C;
    * ``∃p.F``: subjects of new ``p`` triples, plus the ``p``-subjects of
      every individual the filler's trigger yields (one backward hop
      through the POS index);
    * ``hasValue`` / ``minCardinality``: subjects of new ``p`` triples;
    * intersection and union: the union of the operands' triggers;
    * ``owl:Thing``, ``minCardinality 0`` and ``oneOf``: the round's new
      individuals (members only, for ``oneOf``), since they match from the
      moment they exist;
    * ``allValuesFrom`` and ``complementOf``: as ``∃p.F`` and the
      operand, plus the round's nodes, because both match vacuously.
    """
    intern = dictionary.intern
    if isinstance(expression, NamedClass):
        if expression.iri == OWL_THING:
            return lambda graph, delta: delta.nodes
        cls_id = intern(expression.iri)
        return lambda graph, delta, _c=cls_id: delta.typed.get(_c, _NONE)
    if isinstance(expression, (SomeValuesFrom, AllValuesFrom)):
        prop_id = intern(expression.property)
        filler = compile_trigger(expression.filler, dictionary)
        vacuous = isinstance(expression, AllValuesFrom)

        def edge_trigger(graph, delta, _p=prop_id, _f=filler, _vacuous=vacuous):
            found = set(delta.by_pred.get(_p, _NONE))
            changed = _f(graph, delta)
            if changed:
                by_obj = graph._pos.get(_p)
                if by_obj:
                    for value in changed:
                        subjects = by_obj.get(value)
                        if subjects:
                            found |= subjects
            if _vacuous:
                found |= delta.nodes
            return found
        return edge_trigger
    if isinstance(expression, MinCardinality) and expression.cardinality <= 0:
        return lambda graph, delta: delta.nodes
    if isinstance(expression, (HasValue, MinCardinality)):
        prop_id = intern(expression.property)
        return lambda graph, delta, _p=prop_id: delta.by_pred.get(_p, _NONE)
    if isinstance(expression, (IntersectionOf, UnionOf)):
        operands = tuple(compile_trigger(op, dictionary) for op in expression.operands)

        def operands_trigger(graph, delta, _ops=operands):
            found: Set[int] = set()
            for op in _ops:
                found |= op(graph, delta)
            return found
        return operands_trigger
    if isinstance(expression, ComplementOf):
        operand = compile_trigger(expression.operand, dictionary)
        return lambda graph, delta, _op=operand: _op(graph, delta) | delta.nodes
    if isinstance(expression, OneOf):
        member_ids = frozenset(intern(member) for member in expression.members)
        return lambda graph, delta, _m=member_ids: delta.nodes & _m
    # Unknown expression kind: its matcher never matches.
    return lambda graph, delta: _NONE


def compile_consequences(expression: ClassExpression, dictionary: TermDictionary,
                         rdf_type_id: Optional[int] = None):
    """Compile the *consequence* direction of ``expression`` into ID space.

    The returned callable ``emit(graph, individual_id, out)`` appends the
    encoded triples entailed by ``individual`` being an instance of the
    expression — the ID-domain mirror of the reasoner's
    ``_expression_consequences`` (``hasValue`` value assertion,
    ``allValuesFrom`` filler typing, intersection distribution).
    ``SomeValuesFrom`` / ``UnionOf`` have no deterministic consequences
    without introducing fresh individuals, so they emit nothing.
    """
    intern = dictionary.intern
    kinds = dictionary.kinds
    if rdf_type_id is None:
        rdf_type_id = intern(RDF_TYPE)
    if isinstance(expression, HasValue):
        prop_id = intern(expression.property)
        value_id = intern(expression.value)
        return lambda graph, individual, out, _p=prop_id, _v=value_id: out.append(
            (individual, _p, _v))
    if isinstance(expression, AllValuesFrom) and isinstance(expression.filler, NamedClass):
        prop_id = intern(expression.property)
        filler_id = intern(expression.filler.iri)

        def all_values_emit(graph, individual, out, _p=prop_id, _f=filler_id,
                            _t=rdf_type_id, _kinds=kinds):
            by_pred = graph._spo.get(individual)
            if by_pred:
                for value in by_pred.get(_p, ()):
                    if _kinds[value] != KIND_LITERAL:
                        out.append((value, _t, _f))
        return all_values_emit
    if isinstance(expression, IntersectionOf):
        emitters = []
        for operand in expression.operands:
            if isinstance(operand, NamedClass):
                operand_id = intern(operand.iri)
                emitters.append(
                    lambda graph, individual, out, _c=operand_id, _t=rdf_type_id:
                    out.append((individual, _t, _c)))
            else:
                emitters.append(compile_consequences(operand, dictionary, rdf_type_id))

        def intersection_emit(graph, individual, out, _emitters=tuple(emitters)):
            for emit in _emitters:
                emit(graph, individual, out)
        return intersection_emit
    if isinstance(expression, NamedClass):
        cls_id = intern(expression.iri)
        return lambda graph, individual, out, _c=cls_id, _t=rdf_type_id: out.append(
            (individual, _t, _c))
    return lambda graph, individual, out: None
