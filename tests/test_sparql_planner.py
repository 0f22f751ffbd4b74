"""Unit tests for the cost-based SPARQL query planner."""

import pytest

from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Variable
from repro.sparql import (
    parse_query,
    planner_stats,
    prepare,
    prepare_cached,
    prepared_cache,
    reset_planner_stats,
)
from repro.sparql.planner import (
    PlanEvaluator,
    PlannedBGP,
    PlannedGroup,
    _ChainSolution,
    compile_plan,
    expression_variables,
    pattern_variables,
)

EX = "http://example.org/"


def ex(name):
    return IRI(EX + name)


@pytest.fixture
def graph():
    g = Graph()
    g.bind("ex", EX)
    ttl = """
    @prefix ex: <http://example.org/> .
    ex:alice a ex:Person ; ex:age 34 ; ex:knows ex:bob, ex:carol .
    ex:bob a ex:Person ; ex:age 25 ; ex:knows ex:carol ; ex:city ex:Boston .
    ex:carol a ex:Person ; ex:age 41 ; ex:city ex:Troy .
    ex:dave a ex:Robot ; ex:age 2 .
    ex:Boston ex:inRegion ex:NewEngland .
    """
    return g.parse(ttl)


# ---------------------------------------------------------------------------
# Plan compilation
# ---------------------------------------------------------------------------
class TestCompilePlan:
    def test_bgps_merge_across_filters(self, graph):
        query = parse_query(
            "PREFIX ex: <http://example.org/> SELECT * WHERE { "
            "?p a ex:Person . FILTER(?a > 3) ?p ex:age ?a . }",
            graph.namespace_manager,
        )
        plan = compile_plan(query)
        group = plan.algebra.where
        assert isinstance(group, PlannedGroup)
        # One merged join space with both triples, filter held separately.
        assert len(group.elements) == 1
        bgp = group.elements[0][0]
        assert isinstance(bgp, PlannedBGP)
        assert len(bgp.triples) == 2
        assert len(group.filters) == 1

    def test_optional_is_a_merge_boundary(self, graph):
        query = parse_query(
            "PREFIX ex: <http://example.org/> SELECT * WHERE { "
            "?p a ex:Person . OPTIONAL { ?p ex:city ?c } ?p ex:age ?a . }",
            graph.namespace_manager,
        )
        group = compile_plan(query).algebra.where
        kinds = [type(element).__name__ for element, _ in group.elements]
        assert kinds == ["PlannedBGP", "OptionalPattern", "PlannedBGP"]

    def test_repeated_variable_pins_order(self, graph):
        query = parse_query(
            "PREFIX ex: <http://example.org/> SELECT * WHERE { "
            "?x ex:knows ?x . ?x ex:age ?a . }",
            graph.namespace_manager,
        )
        bgp = compile_plan(query).algebra.where.elements[0][0]
        assert bgp.reorderable is False

    def test_path_beside_variable_predicate_pins_order(self, graph):
        def first_bgp(text):
            query = parse_query(
                "PREFIX ex: <http://example.org/> SELECT * WHERE { " + text + " }",
                graph.namespace_manager,
            )
            return compile_plan(query).algebra.where.elements[0][0]

        assert first_bgp("?a ex:knows* ?b . ?c ?b ?d .").reorderable is False
        assert first_bgp("?a ex:knows* ?b . ?b ex:age ?d .").reorderable is True
        assert first_bgp("?a ex:knows ?b . ?c ?b ?d .").reorderable is True

    def test_plan_does_not_mutate_the_parsed_algebra(self, graph):
        query = parse_query(
            "PREFIX ex: <http://example.org/> SELECT * WHERE { ?p a ex:Person }",
            graph.namespace_manager,
        )
        original_where = query.where
        compile_plan(query)
        assert query.where is original_where

    def test_exists_variables_are_conservative(self, graph):
        query = parse_query(
            "PREFIX ex: <http://example.org/> SELECT * WHERE { "
            "?p a ex:Person . FILTER EXISTS { ?p ex:knows ?friend } }",
            graph.namespace_manager,
        )
        group = compile_plan(query).algebra.where
        # ?friend only appears inside EXISTS but still gates the pushdown.
        assert Variable("friend") in group.filters[0].vars


class TestVariableAnalysis:
    def test_pattern_variables_cover_nested_structures(self, graph):
        query = parse_query(
            "PREFIX ex: <http://example.org/> SELECT * WHERE { "
            "?a ex:p ?b . OPTIONAL { ?b ex:q ?c } "
            "{ ?d ex:r ?a } UNION { ?e ex:s 1 } "
            "BIND(?c + 1 AS ?f) VALUES ?g { 1 2 } }",
            graph.namespace_manager,
        )
        names = {str(v) for v in pattern_variables(query.where)}
        assert names == {"a", "b", "c", "d", "e", "f", "g"}

    def test_expression_variables(self, graph):
        query = parse_query(
            "PREFIX ex: <http://example.org/> SELECT * WHERE { "
            "?a ex:p ?b . FILTER(?a != ?b && BOUND(?c)) }",
            graph.namespace_manager,
        )
        info = compile_plan(query).algebra.where.filters[0]
        assert {str(v) for v in info.vars} == {"a", "b", "c"}


# ---------------------------------------------------------------------------
# Planned evaluation behaviour
# ---------------------------------------------------------------------------
class TestPlannedEvaluation:
    def test_adversarial_order_is_reordered(self, graph):
        reset_planner_stats()
        # Worst-first: the var-var-var pattern opens the query.
        result = graph.query(
            "PREFIX ex: <http://example.org/> SELECT * WHERE { "
            "?p ?any ?thing . ?p ex:city ex:Troy . ?p ex:age ?a . }"
        )
        assert len(list(result)) > 0
        stats = planner_stats()
        assert stats["reorderings_applied"] >= 1
        assert stats["actual_rows"] >= 1

    def test_filter_pushdown_counted_and_correct(self, graph):
        reset_planner_stats()
        result = graph.query(
            "PREFIX ex: <http://example.org/> SELECT ?p WHERE { "
            "?p a ex:Person . FILTER(?a > 30) ?p ex:age ?a . }"
        )
        names = sorted(str(row["p"]).rsplit("/", 1)[1] for row in result)
        assert names == ["alice", "carol"]
        assert planner_stats()["filters_pushed"] >= 1

    def test_filter_on_optional_variable_stays_late(self, graph):
        # BOUND(?c) must wait for the OPTIONAL that can bind ?c.
        result = graph.query(
            "PREFIX ex: <http://example.org/> SELECT ?p WHERE { "
            "?p a ex:Person . FILTER(BOUND(?c)) OPTIONAL { ?p ex:city ?c } }"
        )
        names = sorted(str(row["p"]).rsplit("/", 1)[1] for row in result)
        assert names == ["bob", "carol"]

    def test_hash_join_probe_reuse(self, graph):
        reset_planner_stats()
        # Every ?p probes ex:knows with distinct keys, but the second
        # pattern repeats probe keys across equal ?q bindings.
        graph.query(
            "PREFIX ex: <http://example.org/> SELECT * WHERE { "
            "?p ex:knows ?q . ?q ex:age ?a . }"
        )
        stats = planner_stats()
        assert stats["hash_join_probes"] >= 1
        assert stats["hash_join_reuses"] >= 1

    def test_empty_pattern_short_circuits(self, graph):
        reset_planner_stats()
        result = graph.query(
            "PREFIX ex: <http://example.org/> SELECT * WHERE { "
            "?p ex:age ?a . ?p ex:nonexistent ?x . }"
        )
        assert len(list(result)) == 0

    def test_every_bgp_joins_in_id_space(self, graph):
        reset_planner_stats()
        graph.query(
            "PREFIX ex: <http://example.org/> SELECT * WHERE { "
            "?p ex:knows+ ?q . OPTIONAL { ?q ex:city ?c } ?q ex:age ?a . }"
        )
        stats = planner_stats()
        assert stats["bgps_evaluated"] >= 2
        assert stats["encoded_bgps"] == stats["bgps_evaluated"]

    def test_zero_length_path_beside_variable_predicate_matches_naive(self, graph):
        # Naive order binds ?b to graph nodes only, none of which is a
        # predicate; running the variable-predicate triple first would
        # instead bind ?b to ex:knows and let the zero-length step match.
        prepared = prepare(
            "PREFIX ex: <http://example.org/> SELECT * WHERE { "
            "?a ex:knows* ?b . ?c ?b ?d . }"
        )
        assert len(list(prepared.evaluate_naive(graph))) == 0
        assert len(list(prepared.evaluate(graph))) == 0

    def test_init_bindings_drive_join_order(self, graph):
        result = graph.query(
            "PREFIX ex: <http://example.org/> SELECT ?city WHERE { "
            "?other ex:age ?a . ?p ex:knows ?other . ?other ex:city ?city . }",
            initBindings={"p": ex("bob")},
        )
        assert [str(row["city"]) for row in result] == [EX + "Troy"]


# ---------------------------------------------------------------------------
# Plan caching
# ---------------------------------------------------------------------------
class TestPlanCache:
    def test_prepared_query_compiles_once(self, graph):
        reset_planner_stats()
        prepared = prepare(
            "PREFIX ex: <http://example.org/> SELECT * WHERE { ?p ex:age ?a }",
            graph.namespace_manager,
        )
        prepared.evaluate(graph)
        prepared.evaluate(graph)
        prepared.evaluate(graph)
        stats = planner_stats()
        assert stats["plans_compiled"] == 1
        assert stats["plan_cache_hits"] == 2
        assert prepared.plan is prepared.plan

    def test_prepare_cached_shares_the_plan(self, graph):
        prepared_cache().clear()
        reset_planner_stats()
        text = "PREFIX ex: <http://example.org/> SELECT * WHERE { ?p ex:city ?c }"
        first = prepare_cached(text)
        second = prepare_cached(text)
        assert first is second
        first.evaluate(graph)
        second.evaluate(graph)
        assert planner_stats()["plans_compiled"] == 1
        assert planner_stats()["plan_cache_hits"] == 1

    def test_estimated_vs_actual_counters_advance(self, graph):
        reset_planner_stats()
        graph.query(
            "PREFIX ex: <http://example.org/> SELECT * WHERE { ?p ex:age ?a }"
        )
        stats = planner_stats()
        assert stats["bgps_evaluated"] == 1
        assert stats["estimated_rows"] >= 1
        assert stats["actual_rows"] == 4

    def test_naive_oracle_matches(self, graph):
        prepared = prepare(
            "PREFIX ex: <http://example.org/> SELECT * WHERE { "
            "?x a ?cls . ?p ex:knows ?x . }",
            graph.namespace_manager,
        )
        planned = sorted(tuple(str(v) for v in row) for row in prepared.evaluate(graph))
        naive = sorted(tuple(str(v) for v in row) for row in prepared.evaluate_naive(graph))
        assert planned == naive


# ---------------------------------------------------------------------------
# Chained solutions
# ---------------------------------------------------------------------------
class TestChainSolution:
    def test_mapping_protocol(self):
        base = {Variable("a"): ex("x")}
        chain = _ChainSolution(_ChainSolution(base, Variable("b"), ex("y")),
                               Variable("c"), Literal(1))
        assert chain[Variable("a")] == ex("x")
        assert chain.get(Variable("b")) == ex("y")
        assert chain.get(Variable("missing")) is None
        assert Variable("c") in chain
        assert len(chain) == 3
        assert set(chain) == {Variable("a"), Variable("b"), Variable("c")}

    def test_materialize_flattens_to_dict(self):
        base = {Variable("a"): ex("x")}
        chain = _ChainSolution(base, Variable("b"), ex("y"))
        flat = chain.materialize()
        assert flat == {Variable("a"): ex("x"), Variable("b"): ex("y")}
        assert isinstance(flat, dict)
        assert base == {Variable("a"): ex("x")}  # untouched

    def test_dict_conversion_for_exists(self):
        base = {Variable("a"): ex("x")}
        chain = _ChainSolution(base, Variable("b"), ex("y"))
        assert dict(chain) == chain.materialize()
