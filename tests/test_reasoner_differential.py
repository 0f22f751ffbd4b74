"""Differential tests: semi-naive evaluation against the naive oracle.

The reasoner's :meth:`~repro.owl.reasoner.Reasoner.run` (semi-naive,
delta-driven) and :meth:`~repro.owl.reasoner.Reasoner.extend` (incremental
closure maintenance) must be *extensionally indistinguishable* from the
naive fixed-point loop (:meth:`~repro.owl.reasoner.Reasoner.run_naive`).
This suite checks that triple-for-triple on randomized synthetic FoodKG
catalogs (seeded, via :mod:`repro.foodkg.generator`) and across hundreds of
randomized deltas — data facts, scenario-style profile updates, and
schema-bearing deltas that force the full-reclosure fallback.

Together the parametrized cases exceed the 200-randomized-case acceptance
floor; every case asserts exact set equality, so any divergence reports the
offending triples.
"""

from __future__ import annotations

import random

import pytest

from repro.foodkg.generator import generate_catalog
from repro.foodkg.loader import load_catalog
from repro.foodkg.schema import FoodCatalog
from repro.ontology import feo
from repro.ontology.feo import build_combined_ontology
from repro.owl import AxiomIndex, Reasoner
from repro.owl.vocabulary import (
    OWL_TRANSITIVE_PROPERTY,
    RDF_TYPE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
)
from repro.rdf.graph import Graph
from repro.rdf.namespace import FOOD
from repro.rdf.terms import IRI

FOOD_RECIPE = IRI(FOOD["Recipe"])
FOOD_INGREDIENT = IRI(FOOD["Ingredient"])


def build_random_kg(seed: int, ingredients: int = 8, recipes: int = 5) -> Graph:
    """Ontology + a small random synthetic catalogue (no curated entries)."""
    catalog = generate_catalog(
        base=FoodCatalog(), extra_ingredients=ingredients, extra_recipes=recipes,
        seed=seed,
    )
    graph = build_combined_ontology()
    load_catalog(catalog, graph)
    return graph


def assert_same_closure(left: Graph, right: Graph, label: str) -> None:
    left_set, right_set = set(left), set(right)
    missing = left_set - right_set
    extra = right_set - left_set
    assert not missing and not extra, (
        f"{label}: closures differ — {len(missing)} missing, {len(extra)} extra; "
        f"e.g. missing={sorted(missing)[:3]} extra={sorted(extra)[:3]}"
    )


# ---------------------------------------------------------------------------
# Random delta generation
# ---------------------------------------------------------------------------

def _data_delta(rng: random.Random, graph: Graph, size: int) -> list:
    """Random *data* (non-schema) triples over the graph's own vocabulary."""
    foods = sorted(graph.subjects(RDF_TYPE, FOOD_RECIPE)) + \
        sorted(graph.subjects(RDF_TYPE, FOOD_INGREDIENT))
    axioms = AxiomIndex.from_graph(graph)
    interesting_props = sorted(
        set(axioms.transitive) | set(axioms.symmetric) | set(axioms.inverse_of)
        | set(axioms.domains) | set(axioms.ranges) | set(axioms.subproperty_of)
    )
    classes = sorted(axioms.declared_classes)
    conditions = sorted(feo.HEALTH_CONDITIONS.values())
    delta = []
    for _ in range(size):
        kind = rng.randrange(4)
        user = IRI(f"http://example.org/user{rng.randrange(4)}")
        if kind == 0:  # a scenario-style profile fact
            prop = rng.choice((feo.likes, feo.dislikes, feo.allergicTo))
            delta.append((user, prop, rng.choice(foods)))
        elif kind == 1:  # a health condition (triggers restriction machinery)
            delta.append((user, feo.hasCondition, rng.choice(conditions)))
        elif kind == 2:  # an edge through an axiom-bearing property
            prop = rng.choice(interesting_props)
            delta.append((rng.choice(foods), prop, rng.choice(foods)))
        else:  # a raw type assertion
            delta.append((rng.choice(foods), RDF_TYPE, rng.choice(classes)))
    return delta


def _schema_delta(rng: random.Random, graph: Graph) -> list:
    """A delta carrying a schema axiom (must trigger the re-closure fallback)."""
    axioms = AxiomIndex.from_graph(graph)
    classes = sorted(axioms.declared_classes)
    data_props = sorted(
        {p for _, p, _ in graph if p not in (RDF_TYPE, RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF)}
    )
    kind = rng.randrange(3)
    if kind == 0:  # new subclass edge between existing classes
        sub, sup = rng.sample(classes, 2)
        return [(sub, RDFS_SUBCLASSOF, sup)]
    if kind == 1:  # declare an existing data property transitive
        return [(rng.choice(data_props), RDF_TYPE, OWL_TRANSITIVE_PROPERTY)]
    # new subproperty edge between existing data properties
    sub, sup = rng.sample(data_props, 2)
    return [(sub, RDFS_SUBPROPERTYOF, sup)]


# ---------------------------------------------------------------------------
# Closure equality: semi-naive vs naive
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_semi_naive_equals_naive_on_random_catalogs(seed):
    rng = random.Random(1000 + seed)
    graph = build_random_kg(seed, ingredients=rng.randint(4, 10),
                            recipes=rng.randint(3, 7))
    naive = Reasoner(graph, check_consistency=False).run_naive()
    semi = Reasoner(graph, check_consistency=False).run()
    assert_same_closure(naive, semi, f"seed={seed}")


def test_semi_naive_equals_naive_with_random_data_noise():
    """Catalog graphs salted with random extra data triples still agree."""
    for seed in range(6):
        rng = random.Random(2000 + seed)
        graph = build_random_kg(seed, ingredients=5, recipes=4)
        graph.addN(_data_delta(rng, graph, rng.randint(3, 10)))
        naive = Reasoner(graph, check_consistency=False).run_naive()
        semi = Reasoner(graph, check_consistency=False).run()
        assert_same_closure(naive, semi, f"noisy seed={seed}")


# ---------------------------------------------------------------------------
# Incremental extension vs full re-run
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def base_kg():
    graph = build_random_kg(seed=42, ingredients=8, recipes=5)
    closure = Reasoner(graph, check_consistency=False).run()
    return graph, closure


def _check_extension(base: Graph, closure: Graph, delta, label,
                     shared_axioms=None) -> None:
    updated = base.copy()
    updated.addN(delta)
    full = Reasoner(updated, check_consistency=False).run()
    axioms = shared_axioms  # None -> extracted from the updated graph
    extended = Reasoner(updated, axioms=axioms, check_consistency=False).extend(
        closure.copy(), delta)
    assert_same_closure(full, extended, label)


def test_extend_matches_full_rerun_on_single_fact_deltas(base_kg):
    """One added fact at a time — the scenario-update hot path."""
    base, closure = base_kg
    for case in range(110):
        rng = random.Random(3000 + case)
        delta = _data_delta(rng, base, 1)
        _check_extension(base, closure, delta, f"single-fact case={case}")


def test_extend_matches_full_rerun_on_batched_deltas(base_kg):
    """Multi-fact deltas (2-6 triples) applied in one extension."""
    base, closure = base_kg
    for case in range(60):
        rng = random.Random(4000 + case)
        delta = _data_delta(rng, base, rng.randint(2, 6))
        _check_extension(base, closure, delta, f"batch case={case}")


def test_extend_matches_full_rerun_with_shared_base_axioms(base_kg):
    """The builder's pattern: one AxiomIndex extracted once from the base."""
    base, closure = base_kg
    shared = AxiomIndex.from_graph(base)
    for case in range(20):
        rng = random.Random(5000 + case)
        delta = _data_delta(rng, base, rng.randint(1, 4))
        _check_extension(base, closure, delta, f"shared-axioms case={case}",
                         shared_axioms=shared)


def test_extend_matches_full_rerun_on_schema_deltas(base_kg):
    """Schema-bearing deltas must fall back to a full (still equal) re-closure."""
    base, closure = base_kg
    for case in range(24):
        rng = random.Random(6000 + case)
        delta = _schema_delta(rng, base)
        _check_extension(base, closure, delta, f"schema case={case}")


def test_chained_extensions_match_full_rerun(base_kg):
    """Repeated extend() calls (a mutating live scenario) stay convergent."""
    base, closure = base_kg
    for chain in range(8):
        rng = random.Random(7000 + chain)
        updated = base.copy()
        evolving = closure.copy()
        for _ in range(4):
            delta = _data_delta(rng, updated, rng.randint(1, 3))
            updated.addN(delta)
            Reasoner(updated, check_consistency=False).extend(evolving, delta)
        full = Reasoner(updated, check_consistency=False).run()
        assert_same_closure(full, evolving, f"chain={chain}")


def test_extend_with_empty_delta_is_identity(base_kg):
    base, closure = base_kg
    extended = Reasoner(base, check_consistency=False).extend(closure.copy(), [])
    assert_same_closure(closure, extended, "empty delta")


def test_extend_with_already_present_triples_is_identity(base_kg):
    """Re-asserting triples the closure already holds derives nothing new."""
    base, closure = base_kg
    rng = random.Random(8000)
    present = rng.sample(sorted(base), 5)
    extended = Reasoner(base, check_consistency=False).extend(closure.copy(), present)
    assert_same_closure(closure, extended, "present-triples delta")


# ---------------------------------------------------------------------------
# Non-monotone (closed-world) classification: extension must refuse
# ---------------------------------------------------------------------------

def _all_values_from_graph() -> Graph:
    """ann is a DogLover while every pet is a Dog — until felix arrives."""
    graph = Graph()
    graph.parse(
        "@prefix ex: <http://example.org/> .\n"
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "ex:DogLover owl:equivalentClass [ a owl:Restriction ;\n"
        "    owl:onProperty ex:hasPet ; owl:allValuesFrom ex:Dog ] .\n"
        "ex:ann ex:hasPet ex:rex . ex:rex a ex:Dog .\n"
    )
    return graph


def test_extend_refuses_closed_world_classification_axioms():
    """allValuesFrom matches can be *invalidated* by additions: a new non-Dog
    pet must retract ann's DogLover type, which a monotone delta pass cannot
    do — extend() must refuse rather than return a stale closure."""
    base = _all_values_from_graph()
    reasoner = Reasoner(base, check_consistency=False)
    closure = reasoner.run()
    assert not reasoner.supports_incremental_extension
    delta = [(IRI("http://example.org/ann"), IRI("http://example.org/hasPet"),
              IRI("http://example.org/felix"))]
    with pytest.raises(ValueError, match="closed-world"):
        reasoner.extend(closure.copy(), delta)


def test_closure_cache_falls_back_to_full_run_for_closed_world_axioms():
    """The cache detects the unsound case up front and re-reasons from the
    asserted graph, so callers still get the correct (retracted) closure."""
    from repro.owl import MaterializationCache

    base = _all_values_from_graph()
    cache = MaterializationCache()
    base_fingerprint = base.fingerprint()
    cache.materialize(base)
    delta = [(IRI("http://example.org/ann"), IRI("http://example.org/hasPet"),
              IRI("http://example.org/felix"))]
    updated = base.copy()
    updated.addN(delta)
    result = cache.extend(updated, base_fingerprint, delta)
    full = Reasoner(updated, check_consistency=False).run()
    assert_same_closure(full, result, "closed-world fallback")
    dog_lover = (IRI("http://example.org/ann"), RDF_TYPE,
                 IRI("http://example.org/DogLover"))
    assert dog_lover not in result  # the stale classification is gone
    assert cache.stats()["extensions"] == 0  # it never took the unsound path
