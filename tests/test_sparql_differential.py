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

A second generator covers the disjunctive-equality rewrite (Listing 1's
``FILTER(?c = ?x1 || … || ?c = ?xn)``): the shapes where it fires, where
one side's class is empty, and where it must not fire because the query
keeps multiplicities, projects an ``?xi`` or lets an ``?xi`` bind a
literal.
"""

from __future__ import annotations

import random

import pytest

from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal
from repro.rdf.terms import XSD_INTEGER
from repro.sparql import planner_stats, prepare, reset_planner_stats
from repro.sparql.planner import DisjunctiveUnion

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


# ---------------------------------------------------------------------------
# Disjunctive equality: FILTER(?c = ?x1 || … || ?c = ?xn)
# ---------------------------------------------------------------------------
N_DISJUNCTIVE_CASES = 150

DISJUNCTIVE_VARIANTS = ["fires", "ask", "empty", "bound", "bag", "projected", "literal"]


def _rewritten(prepared) -> bool:
    """Whether the compiled plan holds the disjunctive rewrite."""
    elements = getattr(prepared.plan.algebra.where, "elements", ())
    return any(isinstance(node, DisjunctiveUnion) for node, _ in elements)


def _disjunctive_case(rng, graph, subjects, predicates, classes, variant):
    """(query text, init bindings, whether the rewrite must fire)."""
    anchor = "?a" if rng.random() < 0.7 else "?b"
    xs = [f"?x{i}" for i in range(rng.choice([2, 3]))]
    sides = [f"{anchor} = {x}" if rng.random() < 0.5 else f"{x} = {anchor}" for x in xs]
    lines = [f"  ?a ex:{rng.choice(predicates).local_name()} ?b ."]
    if rng.random() < 0.3:
        lines.append("  ?a a ?t .")
    facts = [(p, o) for _, p, o in graph if isinstance(o, IRI) and p.startswith(EX)]
    if variant == "literal":
        # ?x0 is only an object: it can bind "01", which equals "1" by value.
        lines += ["  ?b ex:v ?k .", "  ex:e1 ex:w ?x0 ."] + [f"  {x} a ex:C0 ." for x in xs[1:]]
        sides = [f"?k = {x}" for x in xs]
    bindings = None
    for i, x in enumerate(xs if variant != "literal" else ()):
        cls = "Empty" if variant == "empty" and i == 0 else rng.choice(classes).local_name()
        if variant == "bound" and i == 0:
            # ?x0 arrives bound, to an instance of its class.
            value, typed = rng.choice([(s, o) for s, p, o in graph if str(p) == RDF_TYPE[1:-1]])
            bindings, cls = {"x0": value}, typed.local_name()
        lines.append(f"  {x} a ex:{cls} .")
        if rng.random() < 0.3 and bindings is None:
            predicate, obj = rng.choice(facts)
            lines.append(f"  {x} ex:{predicate.local_name()} ex:{obj.local_name()} .")
    if rng.random() < 0.5:
        lines.append(rng.choice(["  FILTER ( ?a != ex:e0 ) .",
                                 "  FILTER NOT EXISTS { ?a ex:p1 ?z } ."]))
    rng.shuffle(lines)
    lines.insert(rng.randint(0, len(lines)), "  FILTER ( " + " || ".join(sides) + " ) .")
    body = "\n".join(lines)
    head = {
        "ask": "ASK",
        "bag": "SELECT ?a ?b",
        "projected": "SELECT DISTINCT ?a ?x0",
        "literal": "SELECT DISTINCT ?k",
    }.get(variant, rng.choice(["SELECT DISTINCT ?a ?b", "SELECT DISTINCT ?a"]))
    where = "" if variant == "ask" else "WHERE "
    fires = variant in ("fires", "ask", "empty", "bound")
    return f"{head} {where}{{\n{body}\n}}", bindings, fires


@pytest.mark.parametrize("case", range(N_DISJUNCTIVE_CASES))
def test_disjunctive_equality_rewrite_matches_naive(case):
    rng = random.Random(23000 + case)
    graph, subjects, predicates, classes = build_graph(rng)
    graph.add((IRI(EX + "e0"), IRI(EX + "v"), Literal("1", datatype=XSD_INTEGER)))
    graph.add((IRI(EX + "e1"), IRI(EX + "w"), Literal("01", datatype=XSD_INTEGER)))
    graph.add((IRI(EX + "e2"), IRI(RDF_TYPE.strip("<>")), IRI(EX + "C0")))
    variant = DISJUNCTIVE_VARIANTS[case % len(DISJUNCTIVE_VARIANTS)]
    query_text, bindings, fires = _disjunctive_case(
        rng, graph, subjects, predicates, classes, variant)
    query_text = f"PREFIX ex: <{EX}>\n{query_text}"

    prepared = prepare(query_text, graph.namespace_manager)
    planned = prepared.evaluate(graph, bindings)
    naive = prepared.evaluate_naive(graph, bindings)

    assert _rewritten(prepared) == fires, query_text
    if variant == "ask":
        assert bool(planned) == bool(naive), query_text
    else:
        assert _multiset(planned) == _multiset(naive), query_text
    if variant == "empty":
        assert not list(planned) and not list(naive), query_text


def test_disjunctive_rewrite_keeps_an_equal_valued_literal():
    """An object-only ?x can bind "01", equal by value to "1": no rewrite."""
    graph = Graph()
    graph.add((IRI(EX + "e0"), IRI(EX + "v"), Literal("1", datatype=XSD_INTEGER)))
    graph.add((IRI(EX + "e1"), IRI(EX + "w"), Literal("01", datatype=XSD_INTEGER)))
    graph.add((IRI(EX + "e2"), IRI(RDF_TYPE.strip("<>")), IRI(EX + "C0")))
    prepared = prepare(
        f"PREFIX ex: <{EX}>\nSELECT DISTINCT ?k WHERE {{\n  ex:e0 ex:v ?k .\n"
        "  ex:e1 ex:w ?x .\n  ?y a ex:C0 .\n  FILTER ( ?k = ?x || ?k = ?y ) .\n}")
    assert not _rewritten(prepared)
    assert _multiset(prepared.evaluate(graph)) == _multiset(prepared.evaluate_naive(graph))
    assert len(prepared.evaluate(graph)) == 1


def test_listing1_rewrite_cuts_intermediate_rows(cq1_scenario):
    """Listing 1 joins ≥10× fewer rows, and still answers the golden rows."""
    import json

    from golden.regen import GOLDEN_PATH

    from repro.core.queries import contextual_template

    graph = cq1_scenario.inferred
    bindings = {"question": cq1_scenario.question_iri}
    listing = prepare(contextual_template(), graph.namespace_manager)
    # Without DISTINCT the rewrite may not fire: this is the written join.
    written = prepare(contextual_template().replace("SELECT DISTINCT", "SELECT"),
                      graph.namespace_manager)
    assert _rewritten(listing) and not _rewritten(written)

    def actual_rows(prepared):
        reset_planner_stats()
        result = prepared.evaluate(graph, bindings)
        return result, planner_stats()["actual_rows"]

    result, rewritten_rows = actual_rows(listing)
    _, written_rows = actual_rows(written)
    assert written_rows >= 10 * rewritten_rows > 0
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    rows = sorted([term.n3() for term in row] for row in result)
    assert rows == golden["listings"]["listing1_contextual"]["rows"]
