"""Tests for the SPARQL tokenizer and parser (query text → algebra)."""

import pytest

from repro.rdf.namespace import NamespaceManager
from repro.rdf.terms import IRI, Literal, Variable
from repro.sparql.algebra import (
    AskQuery,
    BGP,
    BindPattern,
    ConstructQuery,
    ExistsExpr,
    FilterPattern,
    GroupPattern,
    ModifiedPath,
    OptionalPattern,
    SelectQuery,
    SequencePath,
    TriplePattern,
    UnionPattern,
    ValuesPattern,
)
from repro.sparql.parser import parse_query
from repro.sparql.tokenizer import SparqlSyntaxError, tokenize

EX = "http://example.org/"


def parse(text):
    manager = NamespaceManager()
    manager.bind("ex", EX)
    return parse_query(text, manager)


class TestTokenizer:
    def test_keywords_case_insensitive(self):
        kinds = [t.value for t in tokenize("select Where FILTER") if t.kind == "KEYWORD"]
        assert kinds == ["SELECT", "WHERE", "FILTER"]

    def test_variables(self):
        tokens = tokenize("?x $y")
        assert [t.value for t in tokens if t.kind == "VAR"] == ["?x", "$y"]

    def test_iri_and_pname(self):
        tokens = tokenize("<http://example.org/a> ex:b")
        assert tokens[0].kind == "IRIREF"
        assert tokens[1].kind == "PNAME"

    def test_comments_skipped(self):
        tokens = tokenize("SELECT # comment\n ?x")
        assert [t.kind for t in tokens[:-1]] == ["KEYWORD", "VAR"]

    def test_operators(self):
        values = [t.value for t in tokenize("= != <= >= && || !") if t.kind == "OP"]
        assert values == ["=", "!=", "<=", ">=", "&&", "||", "!"]

    def test_unexpected_character_raises(self):
        with pytest.raises(SparqlSyntaxError):
            tokenize("SELECT ~ WHERE")


class TestSelectParsing:
    def test_simple_select(self):
        q = parse("SELECT ?s WHERE { ?s ?p ?o }")
        assert isinstance(q, SelectQuery)
        assert q.projections[0].variable == Variable("s")
        bgp = q.where.patterns[0]
        assert isinstance(bgp, BGP)
        assert len(bgp.triples) == 1

    def test_select_star(self):
        q = parse("SELECT * WHERE { ?s ?p ?o }")
        assert q.select_all

    def test_distinct_flag(self):
        q = parse("SELECT DISTINCT ?s WHERE { ?s ?p ?o }")
        assert q.distinct

    def test_where_keyword_optional(self):
        q = parse("SELECT ?s { ?s ?p ?o }")
        assert isinstance(q, SelectQuery)

    def test_prefixed_names_resolved(self):
        q = parse("PREFIX foo: <http://foo.org/> SELECT ?s WHERE { ?s a foo:Thing }")
        triple = q.where.patterns[0].triples[0]
        assert triple.object == IRI("http://foo.org/Thing")

    def test_fallback_namespace_manager(self):
        q = parse("SELECT ?s WHERE { ?s a ex:Thing }")
        assert q.where.patterns[0].triples[0].object == IRI(EX + "Thing")

    def test_unknown_prefix_raises(self):
        with pytest.raises(SparqlSyntaxError):
            parse("SELECT ?s WHERE { ?s a missing:Thing }")

    def test_expression_projection(self):
        q = parse("SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o }")
        assert q.projections[0].variable == Variable("n")
        assert q.projections[0].expression is not None

    def test_predicate_object_and_object_lists(self):
        q = parse("SELECT ?s WHERE { ?s ex:p ex:a , ex:b ; ex:q ex:c . }")
        assert len(q.where.patterns[0].triples) == 3

    def test_a_shorthand(self):
        q = parse("SELECT ?s WHERE { ?s a ex:Thing }")
        triple = q.where.patterns[0].triples[0]
        assert str(triple.predicate).endswith("#type")

    def test_literal_objects(self):
        q = parse('SELECT ?s WHERE { ?s ex:p "text" ; ex:q 5 ; ex:r true }')
        objects = [t.object for t in q.where.patterns[0].triples]
        assert Literal("text") in objects
        assert any(isinstance(o, Literal) and o.value == 5 for o in objects)
        assert any(isinstance(o, Literal) and o.value is True for o in objects)

    def test_solution_modifiers(self):
        q = parse("SELECT ?s WHERE { ?s ?p ?o } ORDER BY DESC(?s) LIMIT 5 OFFSET 2")
        assert q.limit == 5 and q.offset == 2
        assert q.order_by[0].descending

    def test_group_by_and_having(self):
        q = parse(
            "SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s ?p ?o } "
            "GROUP BY ?p HAVING (COUNT(?s) > 1)"
        )
        assert len(q.group_by) == 1
        assert len(q.having) == 1

    def test_trailing_garbage_raises(self):
        with pytest.raises(SparqlSyntaxError):
            parse("SELECT ?s WHERE { ?s ?p ?o } garbage")

    def test_missing_projection_raises(self):
        with pytest.raises(SparqlSyntaxError):
            parse("SELECT WHERE { ?s ?p ?o }")

    @pytest.mark.parametrize("call", ["isIRI()", "BOUND", "STR(?s, ?s)",
                                      "REGEX(?s)", "IF(?s, ?s)", "SUBSTR(?s, 1, 2, 3)"])
    def test_builtin_arity_is_checked(self, call):
        with pytest.raises(SparqlSyntaxError, match="wrong number of arguments"):
            parse(f"SELECT ?s WHERE {{ ?s ?p ?o FILTER ({call}) }}")


class TestPatternParsing:
    def test_filter_expression(self):
        q = parse("SELECT ?s WHERE { ?s ex:age ?a . FILTER (?a > 5) }")
        assert any(isinstance(p, FilterPattern) for p in q.where.patterns)

    def test_filter_not_exists(self):
        q = parse("SELECT ?s WHERE { ?s ?p ?o . FILTER NOT EXISTS { ?s a ex:Hidden } }")
        filter_pattern = [p for p in q.where.patterns if isinstance(p, FilterPattern)][0]
        assert isinstance(filter_pattern.expression, ExistsExpr)
        assert filter_pattern.expression.negated

    def test_optional(self):
        q = parse("SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { ?s ex:alt ?alt } }")
        assert any(isinstance(p, OptionalPattern) for p in q.where.patterns)

    def test_union(self):
        q = parse("SELECT ?s WHERE { { ?s a ex:A } UNION { ?s a ex:B } }")
        assert any(isinstance(p, UnionPattern) for p in q.where.patterns)

    def test_bind(self):
        q = parse("SELECT ?s WHERE { BIND (ex:a AS ?s) }")
        bind = q.where.patterns[0]
        assert isinstance(bind, BindPattern)
        assert bind.variable == Variable("s")

    @pytest.mark.parametrize("preceding", [
        "?c ex:p ?o .",
        "OPTIONAL { ?c ex:p ?o }",
        "{ ?x ex:p ?o } UNION { ?c ex:p ?o }",
        "{ ?c ex:p ?o }",
        "VALUES ?c { ex:a }",
        "BIND (ex:a AS ?c)",
    ])
    def test_bind_onto_in_scope_variable_is_a_syntax_error(self, preceding):
        # SPARQL 1.1 §18.2.1, independent of the data the query runs on.
        with pytest.raises(SparqlSyntaxError):
            parse("SELECT * WHERE { " + preceding + " BIND (ex:e0 AS ?c) }")

    def test_bind_after_filter_minus_or_in_inner_group_is_allowed(self):
        parse("SELECT * WHERE { ?s ex:p ?o . FILTER(?c) MINUS { ?c ex:p ?o } "
              "BIND (ex:e0 AS ?c) }")
        parse("SELECT * WHERE { ?c ex:p ?o . { BIND (ex:e0 AS ?c) } }")
        parse("SELECT * WHERE { BIND (ex:e0 AS ?c) ?c ex:p ?o }")

    def test_values_single_variable(self):
        q = parse("SELECT ?s WHERE { VALUES ?s { ex:a ex:b } }")
        values = q.where.patterns[0]
        assert isinstance(values, ValuesPattern)
        assert len(values.rows) == 2

    def test_values_multi_variable(self):
        q = parse("SELECT ?s WHERE { VALUES (?s ?o) { (ex:a 1) (ex:b UNDEF) } }")
        values = q.where.patterns[0]
        assert values.rows[1][1] is None

    def test_nested_group(self):
        q = parse("SELECT ?s WHERE { { ?s a ex:A . ?s ex:p ?o } }")
        assert isinstance(q.where.patterns[0], GroupPattern)

    def test_property_path_plus(self):
        q = parse("SELECT ?c WHERE { ?c ex:subClassOf+ ex:Root }")
        predicate = q.where.patterns[0].triples[0].predicate
        assert isinstance(predicate, ModifiedPath)
        assert predicate.modifier == "+"

    def test_property_path_sequence(self):
        q = parse("SELECT ?c WHERE { ?c ex:p/ex:q ?d }")
        assert isinstance(q.where.patterns[0].triples[0].predicate, SequencePath)

    def test_parenthesised_path(self):
        q = parse("SELECT ?c WHERE { ?c (ex:subClassOf+) ex:Root }")
        assert isinstance(q.where.patterns[0].triples[0].predicate, ModifiedPath)

    def test_blank_node_object(self):
        q = parse("SELECT ?s WHERE { ?s ex:p [ ex:q ex:r ] }")
        assert len(q.where.patterns[0].triples) == 2


class TestOtherQueryForms:
    def test_ask(self):
        q = parse("ASK { ?s a ex:Thing }")
        assert isinstance(q, AskQuery)

    def test_construct(self):
        q = parse("CONSTRUCT { ?s ex:copied ?o } WHERE { ?s ex:p ?o }")
        assert isinstance(q, ConstructQuery)
        assert len(q.template) == 1

    def test_unknown_query_form_raises(self):
        with pytest.raises(SparqlSyntaxError):
            parse("DELETE WHERE { ?s ?p ?o }")
