"""Differential tests: planned evaluation vs the naive left-to-right oracle.

Every case builds a randomized graph and a randomized query, evaluates it
through the cost-based planner (``PreparedQuery.evaluate``) and through
the naive evaluator (``PreparedQuery.evaluate_naive``), and asserts the
results are identical as multisets — or, under ORDER BY, that the sort-key
sequences also agree (ties among other columns may legally permute when
the join order changes).

The generator covers the planner's rewrite surface: BGP orderings (with
adversarial var-var and unbound-predicate patterns), FILTER placement
(including EXISTS and BOUND on possibly-unbound variables), OPTIONAL,
UNION, MINUS, BIND, VALUES, property paths, and ``init_bindings`` — and
the places where one solution mixes dictionary-ID and term cells: a BGP
after an OPTIONAL, path endpoints bound by a triple, VALUES or
``init_bindings``, zero-length paths from nodes absent from the graph,
and ``=`` / ``!=`` between a VALUES-bound and a join-bound variable.
"""

from __future__ import annotations

import random

import pytest

from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal
from repro.sparql import prepare

EX = "http://example.org/"
RDF_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"

N_CASES = 390

VARS = ["?a", "?b", "?c", "?d"]


# ---------------------------------------------------------------------------
# Random graphs
# ---------------------------------------------------------------------------
def build_graph(rng: random.Random):
    graph = Graph()
    graph.bind("ex", EX)
    subjects = [IRI(EX + f"e{i}") for i in range(rng.randint(6, 14))]
    predicates = [IRI(EX + f"p{i}") for i in range(rng.randint(2, 4))]
    classes = [IRI(EX + f"C{i}") for i in range(3)]
    rdf_type = IRI(RDF_TYPE.strip("<>"))
    objects = subjects + [Literal(n) for n in range(6)]
    for _ in range(rng.randint(30, 110)):
        graph.add((rng.choice(subjects), rng.choice(predicates), rng.choice(objects)))
    for subject in subjects:
        if rng.random() < 0.7:
            graph.add((subject, rdf_type, rng.choice(classes)))
    return graph, subjects, predicates, classes


# ---------------------------------------------------------------------------
# Random queries
# ---------------------------------------------------------------------------
def _term(rng, subjects, predicates, classes, bound_pool, kind):
    """One triple-pattern position: a variable or a constant."""
    if kind == "s":
        choices = [f"ex:{s.local_name()}" for s in subjects]
    elif kind == "p":
        choices = [f"ex:{p.local_name()}" for p in predicates] + ["a"]
    else:
        choices = (
            [f"ex:{s.local_name()}" for s in subjects]
            + [f"ex:{c.local_name()}" for c in classes]
            + [str(n) for n in range(6)]
        )
    if rng.random() < (0.55 if kind != "p" else 0.3):
        return rng.choice(bound_pool)
    return rng.choice(choices)


def _bgp(rng, subjects, predicates, classes, count, var_pool=VARS):
    lines = []
    for _ in range(count):
        s = _term(rng, subjects, predicates, classes, var_pool, "s")
        p = _term(rng, subjects, predicates, classes, var_pool, "p")
        o = _term(rng, subjects, predicates, classes, var_pool, "o")
        lines.append(f"  {s} {p} {o} .")
    return "\n".join(lines)


def _filter(rng):
    return rng.choice([
        "  FILTER ( ?a != ?b ) .",
        "  FILTER ( isIRI(?a) ) .",
        "  FILTER ( ?c > 2 ) .",
        "  FILTER ( BOUND(?c) ) .",
        "  FILTER ( !BOUND(?d) ) .",
        "  FILTER ( ?a IN (ex:e0, ex:e1, ex:e2) ) .",
        "  FILTER EXISTS { ?a ex:p0 ?z } .",
        "  FILTER NOT EXISTS { ?a ex:p1 ?c } .",
    ])


def _shape_bgp(rng, subjects, predicates, classes):
    body = _bgp(rng, subjects, predicates, classes, rng.randint(2, 4))
    distinct = "DISTINCT " if rng.random() < 0.4 else ""
    return f"SELECT {distinct}* WHERE {{\n{body}\n}}", None, False


def _shape_filters(rng, subjects, predicates, classes):
    parts = [_bgp(rng, subjects, predicates, classes, rng.randint(2, 3))]
    for _ in range(rng.randint(1, 2)):
        parts.insert(rng.randint(0, len(parts)), _filter(rng))
    return "SELECT * WHERE {\n" + "\n".join(parts) + "\n}", None, False


def _shape_optional(rng, subjects, predicates, classes):
    base = _bgp(rng, subjects, predicates, classes, 2)
    inner = _bgp(rng, subjects, predicates, classes, rng.randint(1, 2))
    extra = _filter(rng) if rng.random() < 0.5 else ""
    return (
        f"SELECT * WHERE {{\n{base}\n  OPTIONAL {{\n{inner}\n{extra}\n  }}\n}}",
        None,
        False,
    )


def _shape_union(rng, subjects, predicates, classes):
    left = _bgp(rng, subjects, predicates, classes, rng.randint(1, 2))
    right = _bgp(rng, subjects, predicates, classes, rng.randint(1, 2))
    tail = _bgp(rng, subjects, predicates, classes, 1) if rng.random() < 0.5 else ""
    return (
        f"SELECT * WHERE {{\n{tail}\n  {{\n{left}\n  }} UNION {{\n{right}\n  }}\n}}",
        None,
        False,
    )


def _shape_minus(rng, subjects, predicates, classes):
    base = _bgp(rng, subjects, predicates, classes, 2)
    inner = _bgp(rng, subjects, predicates, classes, rng.randint(1, 2))
    return f"SELECT * WHERE {{\n{base}\n  MINUS {{\n{inner}\n  }}\n}}", None, False


def _shape_path(rng, subjects, predicates, classes):
    path = rng.choice([
        "ex:p0/ex:p1", "ex:p0+", "ex:p1*", "^ex:p0", "(ex:p0|ex:p1)",
    ])
    endpoint = (
        f"ex:{rng.choice(subjects).local_name()}" if rng.random() < 0.4 else "?b"
    )
    extra = _bgp(rng, subjects, predicates, classes, 1)
    return f"SELECT * WHERE {{\n  ?a {path} {endpoint} .\n{extra}\n}}", None, False


def _shape_init_bindings(rng, subjects, predicates, classes):
    body = _bgp(rng, subjects, predicates, classes, rng.randint(2, 3))
    bindings = {"a": rng.choice(subjects)}
    return f"SELECT * WHERE {{\n{body}\n}}", bindings, False


def _shape_order_by(rng, subjects, predicates, classes):
    body = _bgp(rng, subjects, predicates, classes, rng.randint(2, 3))
    keys = rng.sample(["?a", "?b", "?c"], rng.randint(1, 2))
    rendered = " ".join(
        f"DESC({key})" if rng.random() < 0.5 else key for key in keys
    )
    return f"SELECT * WHERE {{\n{body}\n}} ORDER BY {rendered}", None, True


def _shape_mixed(rng, subjects, predicates, classes):
    base = _bgp(rng, subjects, predicates, classes, 2)
    inner = _bgp(rng, subjects, predicates, classes, 1)
    constraint = _filter(rng)
    bind = "  BIND ( ?c + 1 AS ?sum ) ." if rng.random() < 0.5 else ""
    values = (
        "  VALUES ?a { ex:e0 ex:e1 ex:e2 ex:e3 }" if rng.random() < 0.5 else ""
    )
    return (
        "SELECT * WHERE {\n" + values + "\n" + base + "\n" + constraint + "\n"
        + bind + "\n  OPTIONAL {\n" + inner + "\n  }\n}",
        None,
        False,
    )


_PATHS = ["ex:p0+", "ex:p1*", "^ex:p0", "ex:p0/ex:p1", "(ex:p0|ex:p1)", "(ex:p0/ex:p1)*"]


def _shape_bgp_after_optional(rng, subjects, predicates, classes):
    # The BGP after the OPTIONAL receives rows that bind different
    # variables: some carry the optional ones, some do not.
    base = _bgp(rng, subjects, predicates, classes, rng.randint(1, 2))
    inner = _bgp(rng, subjects, predicates, classes, rng.randint(1, 2))
    tail = _bgp(rng, subjects, predicates, classes, rng.randint(1, 2))
    extra = _filter(rng) if rng.random() < 0.4 else ""
    return (
        f"SELECT * WHERE {{\n{base}\n  OPTIONAL {{\n{inner}\n  }}\n{tail}\n{extra}\n}}",
        None,
        False,
    )


def _shape_path_bound_endpoint(rng, subjects, predicates, classes):
    path = rng.choice(_PATHS)
    subject = f"ex:{rng.choice(subjects).local_name()}"
    bindings = None
    how = rng.choice(["triple", "values", "init", "optional"])
    if how == "triple":
        body = f"  {subject} ex:p0 ?b .\n  ?b {path} ?c ."
    elif how == "values":
        body = (
            f"  VALUES ?b {{ {subject} ex:e1 ex:nowhere 3 }}\n"
            f"  ?b {path} ?c ."
        )
    elif how == "init":
        body = f"  ?b {path} ?c ."
        bindings = {"b": rng.choice(subjects + [IRI(EX + "nowhere")])}
    else:
        body = f"  ?a ex:p0 ?b .\n  OPTIONAL {{ ?b {path} ?c }}"
    extra = _bgp(rng, subjects, predicates, classes, 1) if rng.random() < 0.5 else ""
    return f"SELECT * WHERE {{\n{body}\n{extra}\n}}", bindings, False


def _shape_zero_length_absent(rng, subjects, predicates, classes):
    # A zero-length path from a node the graph has never seen still
    # matches the node itself.
    pattern = rng.choice([
        "  ex:nowhere ex:p0* ?o .",
        "  ?s ex:p1* ex:nowhere .",
        "  ex:nowhere (ex:p0|ex:p1)* ?o .",
        "  ex:nowhere ^ex:p1* ?o .",
        "  VALUES ?s { ex:nowhere ex:e0 } ?s ex:p0* ?o .",
    ])
    extra = "  OPTIONAL { ?o ex:p0 ?x }" if rng.random() < 0.5 else ""
    return f"SELECT * WHERE {{\n{pattern}\n{extra}\n}}", None, False


def _shape_mixed_equality(rng, subjects, predicates, classes):
    # ?a holds terms (bound by VALUES), ?b / ?c hold IDs (bound by the
    # join): a pushed-down =/!= compares a term cell with an ID cell.
    body = _bgp(rng, subjects, predicates, classes, rng.randint(1, 2),
                var_pool=["?b", "?c", "?d"])
    constraint = rng.choice([
        "FILTER ( ?a = ?b )",
        "FILTER ( ?a != ?b )",
        "FILTER ( ?a = ?c )",
        "FILTER ( ?a != ?c || ?b = ex:e1 )",
        "FILTER ( ?a = ?b && ?c != ex:e0 )",
    ])
    return (
        "SELECT * WHERE {\n  VALUES ?a { ex:e0 ex:e1 ex:e2 ex:nowhere 1 3 }\n"
        f"{body}\n  {constraint}\n}}",
        None,
        False,
    )


SHAPES = [
    _shape_bgp,
    _shape_filters,
    _shape_optional,
    _shape_union,
    _shape_minus,
    _shape_path,
    _shape_init_bindings,
    _shape_order_by,
    _shape_mixed,
    _shape_bgp_after_optional,
    _shape_path_bound_endpoint,
    _shape_zero_length_absent,
    _shape_mixed_equality,
]


# ---------------------------------------------------------------------------
# Result comparison
# ---------------------------------------------------------------------------
def _canon(value):
    if value is None:
        return ""
    return value.n3() if hasattr(value, "n3") else str(value)


def _multiset(result):
    return sorted(tuple(_canon(value) for value in row) for row in result)


def _order_key_sequences(result, query_text):
    """Per-row values of the ORDER BY variables, in result order."""
    order_vars = []
    clause = query_text.rsplit("ORDER BY", 1)[1]
    for token in clause.replace("DESC(", " ").replace(")", " ").split():
        if token.startswith("?"):
            order_vars.append(token[1:])
    return [tuple(_canon(row.get(v)) for v in order_vars) for row in result]


@pytest.mark.parametrize("case", range(N_CASES))
def test_planned_matches_naive(case):
    rng = random.Random(11000 + case)
    graph, subjects, predicates, classes = build_graph(rng)
    shape = SHAPES[case % len(SHAPES)]
    query_text, bindings, ordered = shape(rng, subjects, predicates, classes)
    query_text = f"PREFIX ex: <{EX}>\n{query_text}"

    prepared = prepare(query_text, graph.namespace_manager)
    planned = list(prepared.evaluate(graph, bindings))
    naive = list(prepared.evaluate_naive(graph, bindings))

    assert _multiset(planned) == _multiset(naive), query_text
    if ordered:
        assert _order_key_sequences(planned, query_text) == _order_key_sequences(
            naive, query_text
        ), query_text


# ---------------------------------------------------------------------------
# The paper's competency queries, differentially, on a real scenario graph
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("listing", ["contextual", "contrastive", "counterfactual"])
def test_competency_listings_match_naive(listing, cq1_scenario, cq2_scenario, cq3_scenario):
    from repro.core.queries import (
        contextual_template,
        contrastive_template,
        counterfactual_template,
    )

    scenario = {
        "contextual": cq1_scenario,
        "contrastive": cq2_scenario,
        "counterfactual": cq3_scenario,
    }[listing]
    template = {
        "contextual": contextual_template(),
        "contrastive": contrastive_template(),
        "counterfactual": counterfactual_template(),
    }[listing]
    prepared = prepare(template, scenario.inferred.namespace_manager)
    bindings = {"question": scenario.question_iri}
    planned = _multiset(prepared.evaluate(scenario.inferred, bindings))
    naive = _multiset(prepared.evaluate_naive(scenario.inferred, bindings))
    assert planned == naive
    assert planned  # the listings must keep answering on the paper scenario
