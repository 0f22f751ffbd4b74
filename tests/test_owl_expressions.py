"""Tests for OWL class-expression parsing and membership checking."""

import pytest

from repro.owl.expressions import (
    AllValuesFrom,
    ComplementOf,
    HasValue,
    IntersectionOf,
    MinCardinality,
    NamedClass,
    OneOf,
    SomeValuesFrom,
    UnionOf,
    parse_class_expression,
)
from repro.owl.vocabulary import OWL_THING, RDF_TYPE
from repro.rdf.graph import Graph
from repro.rdf.terms import BNode, IRI, Literal

EX = "http://example.org/"


def ex(name):
    return IRI(EX + name)


def parse_from_turtle(ttl, subject, predicate):
    graph = Graph()
    graph.parse(
        "@prefix ex: <http://example.org/> .\n"
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n" + ttl)
    node = graph.value(subject, predicate)
    return graph, parse_class_expression(graph, node)


def type_index(graph):
    index = {}
    for s, _, o in graph.triples((None, RDF_TYPE, None)):
        index.setdefault(s, set()).add(o)
    return index


class TestParsing:
    def test_named_class(self):
        graph = Graph()
        parsed = parse_class_expression(graph, ex("Person"))
        assert parsed == NamedClass(ex("Person"))

    def test_some_values_from(self):
        graph, parsed = parse_from_turtle(
            "ex:Parent owl:equivalentClass [ a owl:Restriction ; "
            "owl:onProperty ex:hasChild ; owl:someValuesFrom ex:Person ] .",
            ex("Parent"), IRI("http://www.w3.org/2002/07/owl#equivalentClass"))
        assert isinstance(parsed, SomeValuesFrom)
        assert parsed.property == ex("hasChild")
        assert parsed.named_classes() == {ex("Person")}
        assert parsed.properties() == {ex("hasChild")}

    def test_all_values_from(self):
        graph, parsed = parse_from_turtle(
            "ex:DogOwner owl:equivalentClass [ a owl:Restriction ; "
            "owl:onProperty ex:hasPet ; owl:allValuesFrom ex:Dog ] .",
            ex("DogOwner"), IRI("http://www.w3.org/2002/07/owl#equivalentClass"))
        assert isinstance(parsed, AllValuesFrom)

    def test_has_value(self):
        graph, parsed = parse_from_turtle(
            "ex:RedThing owl:equivalentClass [ a owl:Restriction ; "
            "owl:onProperty ex:color ; owl:hasValue ex:red ] .",
            ex("RedThing"), IRI("http://www.w3.org/2002/07/owl#equivalentClass"))
        assert parsed == HasValue(ex("color"), ex("red"))

    def test_min_cardinality(self):
        graph, parsed = parse_from_turtle(
            "ex:Parent owl:equivalentClass [ a owl:Restriction ; "
            "owl:onProperty ex:hasChild ; owl:minCardinality 2 ] .",
            ex("Parent"), IRI("http://www.w3.org/2002/07/owl#equivalentClass"))
        assert parsed == MinCardinality(ex("hasChild"), 2)

    def test_intersection_and_union(self):
        graph, parsed = parse_from_turtle(
            "ex:WorkingParent owl:equivalentClass [ owl:intersectionOf ( ex:Parent ex:Worker ) ] .",
            ex("WorkingParent"), IRI("http://www.w3.org/2002/07/owl#equivalentClass"))
        assert isinstance(parsed, IntersectionOf)
        assert parsed.named_classes() == {ex("Parent"), ex("Worker")}

        graph, parsed = parse_from_turtle(
            "ex:Pet owl:equivalentClass [ owl:unionOf ( ex:Cat ex:Dog ) ] .",
            ex("Pet"), IRI("http://www.w3.org/2002/07/owl#equivalentClass"))
        assert isinstance(parsed, UnionOf)

    def test_complement(self):
        graph, parsed = parse_from_turtle(
            "ex:NonMeat owl:equivalentClass [ owl:complementOf ex:Meat ] .",
            ex("NonMeat"), IRI("http://www.w3.org/2002/07/owl#equivalentClass"))
        assert isinstance(parsed, ComplementOf)

    def test_one_of(self):
        graph, parsed = parse_from_turtle(
            "ex:Primary owl:equivalentClass [ owl:oneOf ( ex:red ex:green ) ] .",
            ex("Primary"), IRI("http://www.w3.org/2002/07/owl#equivalentClass"))
        assert isinstance(parsed, OneOf)
        assert parsed.members == frozenset({ex("red"), ex("green")})

    def test_literal_returns_none(self):
        graph = Graph()
        assert parse_class_expression(graph, Literal("x")) is None

    def test_unrecognised_bnode_returns_none(self):
        graph = Graph()
        node = BNode()
        graph.add((node, ex("unrelated"), ex("x")))
        assert parse_class_expression(graph, node) is None


class TestMembership:
    def test_named_class_membership_uses_type_index(self):
        graph = Graph()
        graph.add((ex("felix"), RDF_TYPE, ex("Cat")))
        index = type_index(graph)
        assert NamedClass(ex("Cat")).matches(graph, ex("felix"), index)
        assert not NamedClass(ex("Dog")).matches(graph, ex("felix"), index)

    def test_owl_thing_matches_everything(self):
        graph = Graph()
        assert NamedClass(OWL_THING).matches(graph, ex("anything"), {})

    def test_some_values_from_membership(self):
        graph = Graph()
        graph.add((ex("ann"), ex("hasChild"), ex("kid")))
        graph.add((ex("kid"), RDF_TYPE, ex("Person")))
        expression = SomeValuesFrom(ex("hasChild"), NamedClass(ex("Person")))
        assert expression.matches(graph, ex("ann"), type_index(graph))
        assert not expression.matches(graph, ex("kid"), type_index(graph))

    def test_all_values_from_membership_closed_world(self):
        graph = Graph()
        graph.add((ex("ann"), ex("hasPet"), ex("rex")))
        graph.add((ex("rex"), RDF_TYPE, ex("Dog")))
        expression = AllValuesFrom(ex("hasPet"), NamedClass(ex("Dog")))
        assert expression.matches(graph, ex("ann"), type_index(graph))
        graph.add((ex("ann"), ex("hasPet"), ex("whiskers")))
        assert not expression.matches(graph, ex("ann"), type_index(graph))

    def test_has_value_membership(self):
        graph = Graph()
        graph.add((ex("apple"), ex("color"), ex("red")))
        assert HasValue(ex("color"), ex("red")).matches(graph, ex("apple"), {})
        assert not HasValue(ex("color"), ex("blue")).matches(graph, ex("apple"), {})

    def test_min_cardinality_membership(self):
        graph = Graph()
        graph.add((ex("ann"), ex("hasChild"), ex("a")))
        graph.add((ex("ann"), ex("hasChild"), ex("b")))
        assert MinCardinality(ex("hasChild"), 2).matches(graph, ex("ann"), {})
        assert not MinCardinality(ex("hasChild"), 3).matches(graph, ex("ann"), {})

    def test_boolean_combinations(self):
        graph = Graph()
        graph.add((ex("ann"), RDF_TYPE, ex("Parent")))
        graph.add((ex("ann"), RDF_TYPE, ex("Worker")))
        index = type_index(graph)
        both = IntersectionOf((NamedClass(ex("Parent")), NamedClass(ex("Worker"))))
        either = UnionOf((NamedClass(ex("Parent")), NamedClass(ex("Robot"))))
        negated = ComplementOf(NamedClass(ex("Robot")))
        assert both.matches(graph, ex("ann"), index)
        assert either.matches(graph, ex("ann"), index)
        assert negated.matches(graph, ex("ann"), index)

    def test_one_of_membership(self):
        expression = OneOf(frozenset({ex("red"), ex("green")}))
        assert expression.matches(Graph(), ex("red"), {})
        assert not expression.matches(Graph(), ex("blue"), {})


class TestCompiledSomeValuesFrom:
    """The compiled ∃p.C matcher intersects a hub's p-values with C's
    members instead of testing each value; it must agree with
    :meth:`ClassExpression.matches` on every shape of filler."""

    @staticmethod
    def hub(typed):
        graph = Graph()
        graph.addN((ex("hub"), ex("knows"), ex(f"v{n}")) for n in range(1000))
        graph.add((ex("hub"), ex("knows"), Literal("a literal value")))
        graph.add((ex("other"), RDF_TYPE, ex("Person")))  # a member, not a value
        if typed:
            graph.add((ex("v617"), RDF_TYPE, ex("Person")))
        return graph

    @staticmethod
    def compiled_matches(expression, graph, individual):
        from repro.owl.expressions import compile_matcher

        matcher = compile_matcher(expression, graph.dictionary)
        return matcher(graph, graph.dictionary.intern(individual))

    @pytest.mark.parametrize("typed", [True, False])
    @pytest.mark.parametrize("filler", [
        NamedClass(ex("Person")),
        NamedClass(ex("NeverDeclared")),
        NamedClass(OWL_THING),
        UnionOf((NamedClass(ex("Robot")), NamedClass(ex("Person")))),
    ], ids=["named", "undeclared", "thing", "union"])
    def test_hub_with_1000_values(self, typed, filler):
        graph = self.hub(typed)
        expression = SomeValuesFrom(ex("knows"), filler)
        expected = expression.matches(graph, ex("hub"), type_index(graph))
        assert self.compiled_matches(expression, graph, ex("hub")) == expected
        if filler == NamedClass(ex("Person")):
            assert expected == typed
        # No p-values at all: never a member, whatever the filler.
        assert not self.compiled_matches(expression, graph, ex("v617"))
        assert not self.compiled_matches(expression, graph, ex("stranger"))
