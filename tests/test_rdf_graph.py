"""Unit tests for the indexed triple store."""

import operator

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.rdf import FrozenGraphError
from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF
from repro.rdf.terms import BNode, IRI, Literal

EX = "http://example.org/"


def ex(name: str) -> IRI:
    return IRI(EX + name)


@pytest.fixture
def small_graph():
    g = Graph()
    g.add((ex("alice"), ex("knows"), ex("bob")))
    g.add((ex("alice"), ex("knows"), ex("carol")))
    g.add((ex("bob"), ex("knows"), ex("carol")))
    g.add((ex("alice"), ex("name"), Literal("Alice")))
    g.add((ex("alice"), IRI(RDF.type), ex("Person")))
    return g


class TestAddRemove:
    def test_len_counts_unique_triples(self, small_graph):
        assert len(small_graph) == 5

    def test_duplicate_add_is_idempotent(self, small_graph):
        small_graph.add((ex("alice"), ex("knows"), ex("bob")))
        assert len(small_graph) == 5

    def test_contains_full_triple(self, small_graph):
        assert (ex("alice"), ex("knows"), ex("bob")) in small_graph

    def test_contains_pattern_with_wildcards(self, small_graph):
        assert (ex("alice"), None, None) in small_graph
        assert (None, ex("knows"), ex("carol")) in small_graph
        assert (ex("carol"), None, None) not in small_graph

    def test_remove_specific_triple(self, small_graph):
        small_graph.remove((ex("alice"), ex("knows"), ex("bob")))
        assert (ex("alice"), ex("knows"), ex("bob")) not in small_graph
        assert len(small_graph) == 4

    def test_remove_with_wildcard(self, small_graph):
        small_graph.remove((ex("alice"), None, None))
        assert len(small_graph) == 1

    def test_remove_nonexistent_is_noop(self, small_graph):
        small_graph.remove((ex("zed"), None, None))
        assert len(small_graph) == 5

    def test_set_replaces_existing_values(self, small_graph):
        small_graph.set((ex("alice"), ex("knows"), ex("dave")))
        assert list(small_graph.objects(ex("alice"), ex("knows"))) == [ex("dave")]

    def test_clear(self, small_graph):
        small_graph.clear()
        assert len(small_graph) == 0

    def test_literal_subject_rejected(self):
        g = Graph()
        with pytest.raises(TypeError):
            g.add((Literal("x"), ex("p"), ex("o")))

    def test_literal_predicate_rejected(self):
        g = Graph()
        with pytest.raises(TypeError):
            g.add((ex("s"), Literal("p"), ex("o")))

    def test_bnode_predicate_rejected(self):
        g = Graph()
        with pytest.raises(TypeError):
            g.add((ex("s"), BNode(), ex("o")))

    def test_addN(self):
        g = Graph()
        g.addN([(ex("a"), ex("p"), ex("b")), (ex("a"), ex("p"), ex("c"))])
        assert len(g) == 2

    def test_addN_that_raises_part_way_keeps_its_counters(self):
        g = Graph()
        with pytest.raises(TypeError):
            g.addN([(ex("a"), ex("p"), ex("b")), (Literal("x"), ex("p"), ex("c"))])
        assert len(g) == 1 and set(g) == {(ex("a"), ex("p"), ex("b"))}
        rebuilt = Graph()
        rebuilt.add((ex("a"), ex("p"), ex("b")))
        assert g.fingerprint() == rebuilt.fingerprint()


class TestPatternMatching:
    def test_all_triples(self, small_graph):
        assert len(list(small_graph.triples((None, None, None)))) == 5

    def test_subject_bound(self, small_graph):
        assert len(list(small_graph.triples((ex("alice"), None, None)))) == 4

    def test_subject_predicate_bound(self, small_graph):
        assert len(list(small_graph.triples((ex("alice"), ex("knows"), None)))) == 2

    def test_predicate_bound(self, small_graph):
        assert len(list(small_graph.triples((None, ex("knows"), None)))) == 3

    def test_object_bound(self, small_graph):
        assert len(list(small_graph.triples((None, None, ex("carol"))))) == 2

    def test_predicate_object_bound(self, small_graph):
        assert len(list(small_graph.triples((None, ex("knows"), ex("carol"))))) == 2

    def test_no_match_returns_empty(self, small_graph):
        assert list(small_graph.triples((ex("nobody"), None, None))) == []

    def test_indexes_consistent_after_removal(self, small_graph):
        small_graph.remove((None, ex("knows"), ex("carol")))
        assert list(small_graph.triples((None, ex("knows"), ex("carol")))) == []
        assert (ex("alice"), ex("knows"), ex("bob")) in small_graph


class TestAccessors:
    def test_subjects(self, small_graph):
        assert set(small_graph.subjects(ex("knows"), ex("carol"))) == {ex("alice"), ex("bob")}

    def test_objects(self, small_graph):
        assert set(small_graph.objects(ex("alice"), ex("knows"))) == {ex("bob"), ex("carol")}

    def test_predicates(self, small_graph):
        assert ex("knows") in set(small_graph.predicates(ex("alice")))

    def test_value_returns_one_match(self, small_graph):
        assert small_graph.value(ex("alice"), ex("name")) == Literal("Alice")

    def test_value_default(self, small_graph):
        assert small_graph.value(ex("zed"), ex("name"), default="n/a") == "n/a"

    def test_value_requires_two_bound_positions(self, small_graph):
        with pytest.raises(ValueError):
            small_graph.value(ex("alice"))

    def test_types_of(self, small_graph):
        assert small_graph.types_of(ex("alice")) == {ex("Person")}

    def test_instances_of(self, small_graph):
        assert small_graph.instances_of(ex("Person")) == {ex("alice")}

    def test_subject_objects(self, small_graph):
        pairs = set(small_graph.subject_objects(ex("knows")))
        assert (ex("alice"), ex("bob")) in pairs

    def test_all_nodes(self, small_graph):
        nodes = small_graph.all_nodes()
        assert ex("alice") in nodes and Literal("Alice") in nodes


class TestSetOperations:
    def test_copy_is_independent(self, small_graph):
        clone = small_graph.copy()
        clone.add((ex("new"), ex("p"), ex("o")))
        assert len(clone) == len(small_graph) + 1

    def test_union(self, small_graph):
        other = Graph()
        other.add((ex("x"), ex("p"), ex("y")))
        union = small_graph + other
        assert len(union) == 6

    def test_difference(self, small_graph):
        other = Graph()
        other.add((ex("alice"), ex("knows"), ex("bob")))
        diff = small_graph - other
        assert len(diff) == 4

    def test_intersection(self, small_graph):
        other = Graph()
        other.add((ex("alice"), ex("knows"), ex("bob")))
        other.add((ex("unrelated"), ex("p"), ex("o")))
        inter = small_graph & other
        assert len(inter) == 1

    def test_equality_by_triple_set(self, small_graph):
        assert small_graph == small_graph.copy()

    def test_iadd(self, small_graph):
        small_graph += [(ex("x"), ex("p"), ex("y"))]
        assert (ex("x"), ex("p"), ex("y")) in small_graph


class TestCardinality:
    """The O(1) statistics API feeding the SPARQL query planner."""

    ALL_PATTERNS = [
        (None, None, None),
        ("alice", None, None),
        (None, "knows", None),
        (None, None, "carol"),
        ("alice", "knows", None),
        ("alice", None, "carol"),
        (None, "knows", "carol"),
        ("alice", "knows", "bob"),
        ("alice", "knows", "dave"),
        ("nobody", None, None),
        (None, "unknown", None),
        (None, None, "nothing"),
    ]

    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    def test_cardinality_matches_scan(self, small_graph, pattern):
        resolved = tuple(ex(part) if part else None for part in pattern)
        assert small_graph.cardinality(resolved) == len(list(small_graph.triples(resolved)))

    def test_cardinality_tracks_mutations(self, small_graph):
        before = small_graph.cardinality((None, ex("knows"), None))
        small_graph.add((ex("carol"), ex("knows"), ex("alice")))
        assert small_graph.cardinality((None, ex("knows"), None)) == before + 1
        small_graph.remove((None, ex("knows"), None))
        assert small_graph.cardinality((None, ex("knows"), None)) == 0
        assert small_graph.cardinality((None, None, None)) == len(small_graph)

    def test_cardinality_survives_copy_and_clear(self, small_graph):
        clone = small_graph.copy()
        assert clone.cardinality((None, ex("knows"), None)) == 3
        clone.clear()
        assert clone.cardinality((None, ex("knows"), None)) == 0
        assert clone.cardinality((None, None, None)) == 0
        # The original keeps its counters.
        assert small_graph.cardinality((None, ex("knows"), None)) == 3

    def test_index_stats(self, small_graph):
        stats = small_graph.index_stats()
        assert stats["triples"] == 5
        assert stats["subjects"] == 2  # alice, bob
        assert stats["predicates"] == 3  # knows, name, rdf:type
        assert stats["objects"] == 4  # bob, carol, "Alice", Person

    def test_predicate_stats(self, small_graph):
        stats = small_graph.predicate_stats(ex("knows"))
        assert stats == {"count": 3, "distinct_objects": 2}
        assert small_graph.predicate_stats(ex("unknown")) == {
            "count": 0, "distinct_objects": 0,
        }


#: A triple whose terms the fixture's dictionary has never seen.
_FRESH = (ex("dave"), ex("likes"), Literal("tea"))


def _encoded_fresh(graph):
    """An encoded triple the graph does not hold, from already-known IDs."""
    ids = graph.dictionary.lookup
    return (ids(ex("bob")), ids(ex("name")), ids(ex("alice")))


_MUTATORS = {
    "add": lambda g: g.add(_FRESH),
    "addN": lambda g: g.addN([_FRESH]),
    "addN_same_family": lambda g: g.addN(g.copy()),
    "iadd": lambda g: operator.iadd(g, [_FRESH]),
    "remove": lambda g: g.remove((ex("alice"), None, None)),
    "remove_absent": lambda g: g.remove((ex("nobody"), None, None)),
    "set": lambda g: g.set((ex("alice"), ex("name"), Literal("Al"))),
    "clear": lambda g: g.clear(),
    "parse_turtle": lambda g: g.parse('<http://example.org/dave> '
                                      '<http://example.org/likes> "tea" .'),
    "parse_ntriples": lambda g: g.parse('<http://example.org/dave> '
                                        '<http://example.org/likes> "tea" .',
                                        format="nt"),
    "add_encoded": lambda g: g.add_encoded(_encoded_fresh(g)),
    "add_encoded_many": lambda g: g.add_encoded_many([_encoded_fresh(g)]),
    "_discard": lambda g: g._discard(next(g.triples_ids())),
}


class TestFreeze:
    def test_freeze_returns_the_graph_and_sets_the_flag(self, small_graph):
        assert not small_graph.frozen
        assert small_graph.freeze() is small_graph
        assert small_graph.frozen
        assert issubclass(FrozenGraphError, TypeError)

    @pytest.mark.parametrize("mutate", list(_MUTATORS.values()), ids=list(_MUTATORS))
    def test_every_mutator_refuses_and_changes_nothing(self, small_graph, mutate):
        triples, fingerprint = set(small_graph), small_graph.fingerprint()
        terms = len(small_graph.dictionary)
        small_graph.freeze()
        with pytest.raises(FrozenGraphError):
            mutate(small_graph)
        assert set(small_graph) == triples
        assert small_graph.fingerprint() == fingerprint
        # Refused before interning: the shared dictionary gained no terms.
        assert len(small_graph.dictionary) == terms

    def test_reads_still_work(self, small_graph):
        small_graph.freeze()
        assert small_graph.value(ex("alice"), ex("name")) == Literal("Alice")
        assert len(small_graph.query("SELECT ?o WHERE { ?s <http://example.org/knows> ?o }")) == 3

    def test_copy_of_a_frozen_graph_is_mutable_and_private(self, small_graph):
        triples, fingerprint = set(small_graph), small_graph.fingerprint()
        small_graph.freeze()
        clone = small_graph.copy()
        assert not clone.frozen and clone == small_graph
        # Writes into index entries the clone still shares with the source.
        clone.add((ex("alice"), ex("knows"), ex("dave")))
        clone.remove((ex("bob"), ex("knows"), ex("carol")))
        clone.add(_FRESH)
        grandchild = clone.copy()
        grandchild.remove((ex("alice"), None, None))
        assert set(small_graph) == triples
        assert small_graph.fingerprint() == fingerprint
        assert small_graph.cardinality((ex("alice"), ex("knows"), None)) == 2
        assert clone.cardinality((ex("alice"), ex("knows"), None)) == 3


# ---------------------------------------------------------------------------
# Model test: one graph family against Python sets
# ---------------------------------------------------------------------------
_NODES = [ex(f"n{i}") for i in range(4)]
_PREDICATES = _NODES[:3]
_OBJECTS = _NODES + [Literal("v"), Literal(2)]
_UNIVERSE = [(s, p, o) for s in _NODES for p in _PREDICATES for o in _OBJECTS]
#: Every pattern over the universe's terms (plus one term no graph holds),
#: covering all 8 bound/unbound shapes.
_PATTERNS = [(s, p, o)
             for s in _NODES + [None]
             for p in _PREDICATES + [ex("absent"), None]
             for o in _OBJECTS + [None]]
_MAX_FAMILY = 6

_model_triples = st.sampled_from(_UNIVERSE)
_slot = st.integers(0, _MAX_FAMILY - 1)
_family_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), _slot, _model_triples),
    st.tuples(st.just("add_many"), _slot, st.lists(_model_triples, max_size=8)),
    st.tuples(st.just("remove"), _slot, _model_triples),
    st.tuples(st.just("remove_pattern"), _slot, st.sampled_from(_PATTERNS)),
    st.tuples(st.just("clear"), _slot),
    st.tuples(st.just("copy"), _slot),
    st.tuples(st.just("freeze"), _slot),
), max_size=40)


def _matches(triple, pattern):
    return all(bound is None or bound == term for term, bound in zip(triple, pattern))


def _fresh(model):
    """A graph in a family of its own holding ``model``."""
    graph = Graph()
    graph.addN(model)
    return graph


class TestGraphFamilyModel:
    """Random add/remove/copy/freeze sequences over one graph family agree
    with a Python ``set`` per graph: the SPO index is the only record of
    the triples, so every count, scan, membership test and set operation
    must read it (and its COW sharing) correctly."""

    @staticmethod
    def _apply(op, family, models):
        kind, slot = op[0], op[1] % len(family)
        graph, model = family[slot], models[slot]
        if kind == "copy":
            if len(family) < _MAX_FAMILY:
                family.append(graph.copy())
                models.append(set(model))
            return
        if kind == "freeze":
            graph.freeze()
            return
        if kind == "add":
            mutate, expected = (lambda: graph.add(op[2])), model | {op[2]}
        elif kind == "add_many":
            mutate, expected = (lambda: graph.addN(op[2])), model | set(op[2])
        elif kind == "remove":
            mutate, expected = (lambda: graph.remove(op[2])), model - {op[2]}
        elif kind == "remove_pattern":
            mutate = lambda: graph.remove(op[2])  # noqa: E731
            expected = {t for t in model if not _matches(t, op[2])}
        else:
            mutate, expected = graph.clear, set()
        if graph.frozen:
            with pytest.raises(FrozenGraphError):
                mutate()
        else:
            mutate()
            models[slot] = expected

    @given(st.lists(_model_triples, max_size=20), _family_ops)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_family_agrees_with_set_models(self, seed, ops):
        family = [_fresh(seed)]
        models = [set(seed)]
        for op in ops:
            self._apply(op, family, models)
            # A write to one member never shows in any other.
            for graph, model in zip(family, models):
                assert len(graph) == len(model)
                assert set(graph) == model
                assert set(graph.triples_ids()) == {
                    graph.encode_triple(t) for t in model}
        for graph, model in zip(family, models):
            assert graph.fingerprint() == _fresh(model).fingerprint()
            assert graph.index_stats()["triples"] == len(model)
            for triple in _UNIVERSE:
                assert (triple in graph) == (triple in model)
            for pattern in _PATTERNS:
                expected = sum(1 for t in model if _matches(t, pattern))
                assert graph.cardinality(pattern) == expected
                assert set(graph.triples(pattern)) == {
                    t for t in model if _matches(t, pattern)}
        others = list(zip(family, models)) + [(_fresh(m), m) for m in models]
        for graph, model in zip(family, models):
            for other, other_model in others:
                assert (graph == other) == (model == other_model)
                assert set(graph - other) == model - other_model
                assert set(graph & other) == model & other_model
