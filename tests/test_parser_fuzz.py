"""Property-based fuzzing of the SPARQL, Turtle and N-Triples text parsers.

Whatever text reaches a parser — a valid document with characters
deleted, inserted or repeated, a soup of the language's own tokens, or
arbitrary unicode — it either parses or raises that parser's typed error
(:class:`SparqlSyntaxError`, :class:`TurtleParseError`,
:class:`NTriplesParseError`).  A query that parses also evaluates, planned
and naive, over a small graph without an error escaping.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.queries import (
    contextual_template,
    contrastive_template,
    counterfactual_template,
)
from repro.rdf import Graph
from repro.rdf.ntriples import NTriplesParseError
from repro.rdf.turtle import TurtleParseError
from repro.sparql import SparqlSyntaxError, prepare

FUZZ = settings(max_examples=400, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

_PREFIXES = ("PREFIX ex: <http://example.org/> "
             "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> ")
SPARQL_SEEDS = [
    contextual_template(match_ecosystem=True),
    contrastive_template(),
    counterfactual_template(),
    _PREFIXES + "SELECT DISTINCT ?s (COUNT(?o) AS ?n) WHERE { ?s ex:p ?o ; a ex:A . "
    "FILTER (?o > 1 && !BOUND(?x) || REGEX(STR(?s), \"a\", \"i\")) } "
    "GROUP BY ?s HAVING (COUNT(?o) > 0) ORDER BY DESC(?n) LIMIT 5 OFFSET 1",
    _PREFIXES + "SELECT * WHERE { { ?s a ex:A } UNION { ?s ex:q/ex:p+ ?o } "
    "OPTIONAL { ?s ex:label ?l FILTER (LANG(?l) = \"en\") } "
    "MINUS { ?s ex:p \"x\"@en } BIND (CONCAT(STR(?s), \"!\") AS ?b) "
    "VALUES (?v ?w) { (1 ex:a) (UNDEF \"2\"^^xsd:integer) } "
    "FILTER NOT EXISTS { ?s ^ex:p [ a ex:B ] } }",
    _PREFIXES + "ASK { ?s (ex:p|ex:q)* ?o . FILTER (isIRI(?s) && ?o != 3.5e0) }",
    _PREFIXES + "CONSTRUCT { ?s ex:copied ?o } WHERE { ?s ex:p ?o . "
    "FILTER (?o IN (1, 2, ex:a)) }",
    # Every built-in over ill-typed, huge and non-finite values.
    _PREFIXES + "SELECT ?s (ROUND(?n * 1e300 * 1e300) AS ?r) (SUM(?n) AS ?t) WHERE { "
    "?s ex:n ?n . BIND (REPLACE(STR(?s), \"a(\", \"b\") AS ?x) "
    "FILTER (REGEX(STR(?s), \"[a\", \"i\") || ABS(?n) > CEIL(-1.5) "
    "|| FLOOR(?n) < ROUND(?n) || SUBSTR(STR(?s), 2, 3) = UCASE(LCASE(\"x\")) "
    "|| STRLEN(STR(?s)) >= -?n || CONTAINS(STR(?s), \"a\") || SAMETERM(?s, ?s) "
    "|| IF(ISNUMERIC(?n), ?n / 0, false) || COALESCE(?u, 1) = 1 "
    "|| DATATYPE(?n) = xsd:integer || LANGMATCHES(LANG(?n), \"*\") || ISBLANK(?s) "
    "|| ISLITERAL(?n) || STRSTARTS(STR(?s), \"h\") || IRI(STR(?s)) = ?s "
    "|| ENCODE_FOR_URI(STRAFTER(STR(?s), \"/\")) != STRBEFORE(\"a\", \"b\") "
    "|| CONCAT(STR(?n), STRENDS(\"a\", \"b\")) = BNODE()) } GROUP BY ?s ?n "
    "ORDER BY ?n",
]
SPARQL_TOKENS = ["{", "}", "(", ")", ".", ";", ",", "?s", "?o", "$x", "*", "+",
                 "/", "|", "^", "!", "=", "<", ">", "&&", "||", "a", "ex:p",
                 "<http://example.org/a>", "\"", "'", "\"\"\"", "@en", "^^", "_:b",
                 "[", "]", "#", "\\", "\\u00", "1e", "-", ":", "SELECT", "WHERE",
                 "FILTER", "OPTIONAL", "UNION", "MINUS", "BIND", "AS", "VALUES",
                 "UNDEF", "EXISTS", "NOT", "GROUP BY", "ORDER BY", "LIMIT",
                 "COUNT(", "PREFIX", "BASE", "DISTINCT", "IN", "\n", "\x00",
                 "1e400", "-0", "\"NaN\"^^xsd:double", "\"(\"", "\"[\"", "ROUND(",
                 "REGEX(", "SUBSTR(", "ISIRI()", "BOUND", "IF(", "?n"]

TURTLE_SEEDS = [
    "@prefix ex: <http://example.org/> .\n"
    "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
    "@base <http://example.org/base/> .\n"
    "ex:a a ex:Thing ; ex:p ex:b , ex:c ; ex:label \"chat\"@fr , 'x' .\n"
    "ex:b ex:n 5 , -2.5 , 1e3 , true , \"abc\"^^xsd:integer , \"NaN\"^^xsd:double ,"
    " \"1e999\"^^xsd:double ; ex:c \"5\"^^xsd:integer .\n"
    "<rel> ex:q [ ex:r _:n1 ] ; ex:list ( ex:a \"\"\"long\n text\"\"\" 7 ) .\n"
    "_:n1 ex:s \"esc \\\" \\n \\u00e9\"@en-GB .\n",
    "PREFIX ex: <http://example.org/>\nex:a ex:p ex:b .\n[] ex:p () .\n",
]
TURTLE_TOKENS = ["@prefix", "PREFIX", "@base", "ex:", "ex:a", "<", ">", "<>",
                 ".", ";", ",", "a", "[", "]", "(", ")", "\"", "'", "\"\"\"",
                 "@", "^^", "_:", "_:b", "#", "\\", "\\u", "\\U0001", "1e", "+",
                 "-", ".5", "true", "\n", "\x00"]

_NT_SOURCE = Graph().parse(TURTLE_SEEDS[0])
NTRIPLES_SEEDS = [_NT_SOURCE.serialize("nt")]
NTRIPLES_TOKENS = ["<", ">", "<http://example.org/a>", "_:b", "\"", "@en",
                   "^^", ".", " ", "\\", "\\u00", "\\U0010ffff", "#", "\n",
                   "\x00"]

#: The small graph fuzzed queries evaluate over.
_GRAPH = Graph().parse(TURTLE_SEEDS[0])


def _mutate(seed: str, edits) -> str:
    """Apply delete / insert / repeat edits at fractional positions."""
    text = seed
    for kind, where, span, payload in edits:
        start = int(where * len(text))
        end = min(len(text), start + 1 + int(span * 12))
        if kind == "delete":
            text = text[:start] + text[end:]
        elif kind == "insert":
            text = text[:start] + payload + text[start:]
        else:
            text = text[:end] + text[start:end] + text[end:]
    return text


def _texts(seeds, tokens):
    """Mutated seeds, token soup and arbitrary text, in that order of weight."""
    payload = st.sampled_from(tokens) | st.text(max_size=4)
    edit = st.tuples(st.sampled_from(["delete", "insert", "repeat"]),
                     st.floats(0, 1), st.floats(0, 1), payload)
    return (st.builds(_mutate, st.sampled_from(seeds), st.lists(edit, min_size=1, max_size=4))
            | st.lists(st.sampled_from(tokens), max_size=30).map(" ".join)
            | st.text(max_size=200))


def _parse_sparql(text):
    try:
        return prepare(text, _GRAPH.namespace_manager)
    except SparqlSyntaxError:
        return None


@FUZZ
@given(text=_texts(SPARQL_SEEDS, SPARQL_TOKENS))
def test_sparql_parses_or_raises_its_syntax_error_and_evaluates(text):
    prepared = _parse_sparql(text)
    if prepared is not None:
        prepared.evaluate(_GRAPH)
        prepared.evaluate_naive(_GRAPH)


@FUZZ
@given(text=_texts(TURTLE_SEEDS, TURTLE_TOKENS))
def test_turtle_parses_or_raises_its_parse_error(text):
    try:
        Graph().parse(text, format="turtle")
    except TurtleParseError:
        pass


@FUZZ
@given(text=_texts(NTRIPLES_SEEDS, NTRIPLES_TOKENS))
def test_ntriples_parses_or_raises_its_parse_error(text):
    try:
        Graph().parse(text, format="nt")
    except NTriplesParseError:
        pass


def test_seeds_are_valid():
    """The mutation seeds parse, so the fuzzers start from real documents."""
    for text in SPARQL_SEEDS:
        prepare(text, _GRAPH.namespace_manager).evaluate(_GRAPH)
    for text in TURTLE_SEEDS:
        assert len(Graph().parse(text)) > 0
    assert len(Graph().parse(NTRIPLES_SEEDS[0], format="nt")) == len(_NT_SOURCE)
