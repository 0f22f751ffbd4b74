"""Differential tests: semi-naive evaluation against the naive oracle.

The reasoner's :meth:`~repro.owl.reasoner.Reasoner.run` (semi-naive,
delta-driven) and :meth:`~repro.owl.reasoner.Reasoner.extend` (incremental
closure maintenance) must be *extensionally indistinguishable* from the
naive fixed-point loop (:meth:`~repro.owl.reasoner.Reasoner.run_naive`).
This suite checks that triple-for-triple on randomized synthetic FoodKG
catalogs (seeded, via :mod:`repro.foodkg.generator`) and across hundreds of
randomized deltas — data facts, scenario-style profile updates, and
schema-bearing deltas that force the full-reclosure fallback.

The scenario pipeline's closure miss is itself an extension: a COW copy of
the shared base closure (ontology + food KG, reasoned once) grown with the
scenario's asserted delta.  The last part of this suite checks that path
against ``run()`` and ``run_naive()`` for every persona × the paper's three
competency questions and for randomized recipes, what-if conditions and
profile deltas, and pins its fallbacks and its consistency check.

Classification re-tests only the individuals a compiled trigger names for
each round's delta.  A synthetic ontology with one axiom per class
expression kind, over randomized data, checks every trigger: ``run()``
against ``run_naive()``, and chained ``extend()`` calls against ``run()``
for the monotone kinds.

Together the parametrized cases exceed the 200-randomized-case acceptance
floor; every case asserts exact set equality, so any divergence reports the
offending triples.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from golden.regen import GOLDEN_PATH, collect
from test_generator_determinism import PAPER_QUESTIONS
from repro.core.engine import ExplanationEngine
from repro.core.facts_foils import annotate_facts_and_foils
from repro.core.questions import (
    ContrastiveQuestion,
    WhatIfConditionQuestion,
    WhatIfIngredientQuestion,
    WhyQuestion,
    parse_question,
)
from repro.core.scenario import ScenarioBuilder
from repro.foodkg.generator import generate_catalog
from repro.foodkg.loader import load_catalog
from repro.foodkg.schema import FoodCatalog
from repro.ontology import feo
from repro.ontology.feo import build_combined_ontology
from repro.owl import AxiomIndex, InconsistentOntologyError, Reasoner
from repro.owl.vocabulary import (
    OWL_TRANSITIVE_PROPERTY,
    RDF_TYPE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
)
from repro.rdf.graph import Graph
from repro.rdf.namespace import FEO, FOOD
from repro.rdf.terms import IRI
from repro.recommender.health_coach import HealthCoach
from repro.service import ExplanationService
from repro.users.personas import PERSONAS, persona

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


# ---------------------------------------------------------------------------
# Scenario closures grown from the shared base closure
# ---------------------------------------------------------------------------

@pytest.fixture
def full_runs(monkeypatch):
    """Every ``Reasoner.run`` call (the full semi-naive pass) is recorded."""
    runs = []
    full_run = Reasoner.run

    def counting_run(reasoner):
        runs.append(reasoner)
        return full_run(reasoner)

    monkeypatch.setattr(Reasoner, "run", counting_run)
    return runs


@pytest.fixture(scope="module")
def scenario_builder(catalog):
    builder = ScenarioBuilder(catalog, use_closure_cache=False)
    builder._base_closure.closure()
    return builder


def _check_scenario(builder, full_runs, question, user, context, recommendation=None):
    """The miss path's closure equals ``run()`` and ``run_naive()`` exactly,
    and it never ran the full reasoner."""
    asserted = builder.build(question, user, context, recommendation,
                             run_reasoner=False).asserted
    extended = builder._base_closure.reasoner(asserted).run()
    assert not full_runs
    label = f"{user.identifier}: {question.text}"
    assert_same_closure(Reasoner(asserted).run(), extended, label + " vs run()")
    assert_same_closure(Reasoner(asserted).run_naive(), extended, label + " vs run_naive()")


@pytest.mark.parametrize("text", PAPER_QUESTIONS)
@pytest.mark.parametrize("persona_key", PERSONAS)
def test_base_extension_equals_run_and_naive_for_paper_cqs(
        scenario_builder, full_runs, persona_key, text):
    user, context = persona(persona_key)
    _check_scenario(scenario_builder, full_runs, parse_question(text), user, context)


def _random_question(rng: random.Random, catalog):
    recipes = sorted(catalog.recipes)
    shape = rng.randrange(4)
    if shape == 0:
        recipe = rng.choice(recipes)
        return WhyQuestion(text=f"Why should I eat {recipe}?", recipe=recipe)
    if shape == 1:
        primary, secondary = rng.sample(recipes, 2)
        return ContrastiveQuestion(
            text=f"Why should I eat {primary} over {secondary}?",
            primary=primary, secondary=secondary)
    if shape == 2:
        condition = rng.choice(sorted(feo.HEALTH_CONDITIONS))
        return WhatIfConditionQuestion(text=f"What if I had {condition}?",
                                       condition=condition)
    ingredient = rng.choice(sorted(catalog.ingredients))
    recipe = rng.choice(recipes)
    return WhatIfIngredientQuestion(
        text=f"What if {recipe} had no {ingredient}?",
        ingredient=ingredient, recipe=recipe)


def _random_profile_delta(rng: random.Random, user, catalog):
    """The persona grown by a few random likes, dislikes, allergies, diets,
    conditions and goals."""
    foods = sorted(catalog.recipes) + sorted(catalog.ingredients)
    diets = sorted(catalog.diets)
    grown = dict(
        likes=rng.sample(foods, rng.randint(0, 2)),
        dislikes=rng.sample(foods, rng.randint(0, 2)),
        allergies=rng.sample(foods, rng.randint(0, 1)),
        diets=rng.sample(diets, rng.randint(0, 1)),
        conditions=rng.sample(sorted(feo.HEALTH_CONDITIONS), rng.randint(0, 2)),
        goals=rng.sample(sorted(feo.NUTRITIONAL_GOALS), rng.randint(0, 2)),
    )
    return replace(user, **{
        field: getattr(user, field) + tuple(v for v in values if v not in getattr(user, field))
        for field, values in grown.items()})


@pytest.mark.parametrize("case", range(18))
def test_base_extension_equals_run_and_naive_on_random_scenarios(
        scenario_builder, full_runs, case):
    rng = random.Random(9000 + case)
    catalog = scenario_builder.catalog
    user, context = persona(rng.choice(PERSONAS))
    user = _random_profile_delta(rng, user, catalog)
    recommendation = None
    if rng.random() < 0.5:
        recommendation = HealthCoach(catalog).recommend_one(user, context)
    _check_scenario(scenario_builder, full_runs, _random_question(rng, catalog),
                    user, context, recommendation)


def test_builder_miss_publishes_the_annotated_full_closure(catalog, full_runs):
    """Through the cache, a miss publishes exactly what a full run plus the
    fact/foil post-pass gives, and no miss runs the full reasoner."""
    builder = ScenarioBuilder(catalog)
    user, context = persona("paper")
    for text in PAPER_QUESTIONS:
        scenario = builder.build(parse_question(text), user, context)
        expected = Reasoner(scenario.asserted).run()
        annotate_facts_and_foils(expected, scenario.ecosystem_iri)
        assert_same_closure(expected, scenario.inferred, text)
    assert len(full_runs) == 1 + len(PAPER_QUESTIONS)  # the base, then one oracle per CQ
    assert full_runs[0].base_graph is builder._base
    assert builder.closure_cache.stats()["misses"] == len(PAPER_QUESTIONS)


def _base_with(catalog, turtle: str):
    graph = build_combined_ontology()
    load_catalog(catalog, graph)
    graph.parse(turtle)
    return graph


_PREFIXES = (
    "@prefix ex: <http://example.org/> .\n"
    "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
    "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
    "@prefix feo: <%s> .\n" % FEO
)


def test_inconsistent_scenario_delta_still_raises_on_the_miss_path(catalog, full_runs):
    """The base is checked once; a delta whose *inferred* types clash with a
    disjointness axiom is caught by the extension's scoped check."""
    builder = ScenarioBuilder(catalog, base_graph=_base_with(catalog, _PREFIXES + (
        "ex:Carnivore owl:disjointWith ex:Vegan .\n"
        "ex:StrictVegan rdfs:subClassOf ex:Vegan .\n")))
    user, context = persona("paper")
    scenario = builder.build(parse_question(PAPER_QUESTIONS[0]), user, context)
    graph = scenario.asserted.copy()
    graph.add((scenario.user_iri, RDF_TYPE, IRI("http://example.org/Carnivore")))
    graph.add((scenario.user_iri, RDF_TYPE, IRI("http://example.org/StrictVegan")))
    with pytest.raises(InconsistentOntologyError, match="disjoint"):
        builder.closure_cache.materialize(graph, reasoner_factory=builder._base_closure.reasoner)
    assert len(full_runs) == 1  # the base closure; the miss itself extended it


def test_non_monotone_base_takes_the_full_run_fallback(catalog, full_runs):
    """An allValuesFrom equivalence makes extension unsound: every miss runs
    the full reasoner, the base closure is never built, and the result is
    the full run's closure."""
    builder = ScenarioBuilder(catalog, base_graph=_base_with(catalog, _PREFIXES + (
        "ex:OnlyLikesRecipes owl:equivalentClass [ a owl:Restriction ;\n"
        "    owl:onProperty feo:likes ; owl:allValuesFrom <%s> ] .\n" % FOOD_RECIPE)))
    user, context = persona("paper")
    for text in PAPER_QUESTIONS:
        scenario = builder.build(parse_question(text), user, context)
        expected = Reasoner(scenario.asserted).run()
        annotate_facts_and_foils(expected, scenario.ecosystem_iri)
        assert_same_closure(expected, scenario.inferred, text)
    assert builder._base_closure._closure is None
    assert len(full_runs) == 2 * len(PAPER_QUESTIONS)  # each miss, then its oracle


def test_graph_that_is_not_a_superset_of_the_base_takes_the_full_run(
        scenario_builder, full_runs):
    """Extending the base closure is only sound for base + data triples: a
    graph missing a base triple (here a schema one), encoded in another
    dictionary, or adding an axiom is closed by ``Reasoner.run`` under its
    own axioms."""
    user, context = persona("paper")
    asserted = scenario_builder.build(parse_question(PAPER_QUESTIONS[0]), user, context,
                                      run_reasoner=False).asserted
    missing = asserted.copy()
    missing.remove(sorted(scenario_builder._base.triples((None, RDFS_SUBCLASSOF, None)))[0])
    foreign = Graph()
    foreign.addN(asserted)
    schema = asserted.copy()
    schema.add((FOOD_RECIPE, RDFS_SUBCLASSOF, IRI("http://example.org/Dish")))
    for graph in (missing, foreign, schema):
        closed = scenario_builder._base_closure.reasoner(graph).run()
        assert_same_closure(Reasoner(graph).run(), closed, "non-superset fallback")
    assert len(full_runs) == 6  # each fallback, then its oracle


def test_paper_goldens_are_byte_identical_through_base_extension(catalog, full_runs):
    """A fresh engine reproduces ``paper_answers.json`` byte for byte while
    running the full reasoner once, for the base closure."""
    engine = ExplanationEngine(catalog=catalog)
    assert collect(ExplanationService(engine=engine), engine) == \
        GOLDEN_PATH.read_text(encoding="utf-8")
    assert len(full_runs) == 1
    assert full_runs[0].base_graph is engine.builder._base


# ---------------------------------------------------------------------------
# Every class-expression kind, on a synthetic ontology
# ---------------------------------------------------------------------------

#: One classification axiom per expression kind the reasoner compiles, plus
#: consequence-direction axioms.  ``ex:feeds``' range and the subclass edge
#: derive ``ex:Pet`` memberships and the consequences derive ``ex:badge``
#: and ``ex:Kept`` triples, so triggers are exercised past the first round
#: of a full run as well as by extensions, whose deltas also bring new
#: individuals.
_MONOTONE_AXIOMS = """
ex:ownedBy owl:inverseOf ex:owns .
ex:adopts rdfs:subPropertyOf ex:owns .
ex:feeds rdfs:range ex:Pet .
ex:Kitten rdfs:subClassOf ex:Pet .
ex:RedThing owl:equivalentClass [ a owl:Restriction ;
    owl:onProperty ex:color ; owl:hasValue ex:red ] .
ex:Busy owl:equivalentClass [ a owl:Restriction ;
    owl:onProperty ex:owns ; owl:minCardinality "2"^^xsd:nonNegativeInteger ] .
ex:Anything owl:equivalentClass [ a owl:Restriction ;
    owl:onProperty ex:owns ; owl:minCardinality "0"^^xsd:nonNegativeInteger ] .
ex:GrandOwner owl:equivalentClass [ a owl:Restriction ; owl:onProperty ex:owns ;
    owl:someValuesFrom [ a owl:Restriction ; owl:onProperty ex:adopts ;
                         owl:someValuesFrom ex:Pet ] ] .
ex:RedOwner owl:equivalentClass [ owl:intersectionOf ( ex:RedThing
    [ a owl:Restriction ; owl:onProperty ex:owns ; owl:someValuesFrom ex:Pet ] ) ] .
ex:Notable owl:equivalentClass [ owl:unionOf ( ex:Kitten
    [ a owl:Restriction ; owl:onProperty ex:color ; owl:hasValue ex:gold ] ) ] .
ex:Owner owl:equivalentClass [ a owl:Restriction ;
    owl:onProperty ex:ownedBy ; owl:someValuesFrom owl:Thing ] .
ex:Entity owl:equivalentClass [ owl:unionOf ( owl:Thing ex:Pet ) ] .
ex:Founder owl:equivalentClass [ owl:oneOf ( ex:i0 ex:i1 ex:fresh0 ) ] .
[ a owl:Restriction ; owl:onProperty ex:feeds ; owl:someValuesFrom ex:Kitten ]
    rdfs:subClassOf ex:CatPerson .
ex:RedThing rdfs:subClassOf [ a owl:Restriction ;
    owl:onProperty ex:badge ; owl:hasValue ex:tag ] .
ex:Keeper rdfs:subClassOf [ owl:intersectionOf ( ex:Carer
    [ a owl:Restriction ; owl:onProperty ex:owns ; owl:allValuesFrom ex:Kept ] ) ] .
"""

#: Closed-world classification: sound for ``run()``, refused by ``extend()``.
#: Every node of the ontology is an individual from the first round on (it
#: is the object of some axiom triple), so the inverse of ``rdf:type`` is
#: what lets a full run meet new individuals in later rounds: a class
#: becomes one once it has a member.  Those match ``complementOf`` and
#: ``allValuesFrom`` vacuously.
_CLOSED_WORLD_AXIOMS = """
ex:hasMember owl:inverseOf rdf:type .
ex:NonPet owl:equivalentClass [ owl:complementOf ex:Pet ] .
ex:OnlyPets owl:equivalentClass [ a owl:Restriction ;
    owl:onProperty ex:owns ; owl:allValuesFrom ex:Pet ] .
"""

_EX = "http://example.org/"


def _ex(name: str) -> IRI:
    return IRI(_EX + name)


def _expression_ontology(closed_world: bool) -> Graph:
    graph = Graph()
    graph.parse(
        "@prefix ex: <http://example.org/> .\n"
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
        + _MONOTONE_AXIOMS + (_CLOSED_WORLD_AXIOMS if closed_world else ""))
    return graph


def _expression_data(rng: random.Random, size: int, fresh: int = 0) -> list:
    """Random data over ten individuals (plus ``fresh`` new ones)."""
    people = [_ex(f"i{n}") for n in range(10)] + [_ex(f"fresh{n}") for n in range(fresh)]
    data = []
    for _ in range(size):
        kind = rng.randrange(4)
        subject, value = rng.choice(people), rng.choice(people)
        if kind == 0:
            prop = rng.choice(("owns", "adopts", "ownedBy", "feeds"))
            data.append((subject, _ex(prop), value))
        elif kind == 1:
            data.append((subject, _ex("color"), _ex(rng.choice(("red", "gold", "blue")))))
        elif kind == 2:
            data.append((subject, RDF_TYPE, _ex(rng.choice(("Pet", "Kitten", "Keeper")))))
        else:
            data.append((subject, _ex("adopts"), value))
    return data


def test_synthetic_ontology_covers_every_expression_kind():
    from repro.owl.expressions import (
        AllValuesFrom, ComplementOf, HasValue, IntersectionOf, MinCardinality,
        NamedClass, OneOf, SomeValuesFrom, UnionOf)

    axioms = AxiomIndex.from_graph(_expression_ontology(closed_world=True))
    seen = set()

    def walk(expression):
        seen.add(type(expression))
        if isinstance(expression, MinCardinality):
            seen.add((MinCardinality, expression.cardinality))
        if isinstance(expression, SomeValuesFrom):
            if isinstance(expression.filler, SomeValuesFrom):
                seen.add("two hops")
            if expression.filler == NamedClass(IRI("http://www.w3.org/2002/07/owl#Thing")):
                seen.add("owl:Thing filler")
        for child in (getattr(expression, "filler", None), getattr(expression, "operand", None),
                      *getattr(expression, "operands", ())):
            if child is not None:
                walk(child)

    for axiom in axioms.equivalences:
        walk(axiom.expression)
    for expression, _ in axioms.complex_subclasses:
        walk(expression)
    assert seen >= {HasValue, (MinCardinality, 2), (MinCardinality, 0), SomeValuesFrom,
                    "two hops", "owl:Thing filler", IntersectionOf, UnionOf, OneOf,
                    ComplementOf, AllValuesFrom}
    assert len(axioms.complex_subclasses) == 1
    assert len(axioms.complex_superclasses) > len(axioms.equivalences)


@pytest.mark.parametrize("seed", range(40))
def test_every_expression_kind_run_equals_naive(seed):
    rng = random.Random(11000 + seed)
    graph = _expression_ontology(closed_world=True)
    graph.addN(_expression_data(rng, rng.randint(4, 18)))
    naive = Reasoner(graph, check_consistency=False).run_naive()
    semi = Reasoner(graph, check_consistency=False).run()
    assert_same_closure(naive, semi, f"expression kinds seed={seed}")


@pytest.mark.parametrize("seed", range(40))
def test_every_monotone_expression_kind_extend_equals_run(seed):
    rng = random.Random(12000 + seed)
    base = _expression_ontology(closed_world=False)
    base.addN(_expression_data(rng, rng.randint(4, 14)))
    reasoner = Reasoner(base, check_consistency=False)
    assert reasoner.supports_incremental_extension
    closure = reasoner.run()
    for step in range(3):
        delta = _expression_data(rng, rng.randint(1, 4), fresh=2)
        updated = base.copy()
        updated.addN(delta)
        Reasoner(updated, axioms=reasoner.axioms, check_consistency=False).extend(
            closure, delta)
        full = Reasoner(updated, check_consistency=False).run()
        assert_same_closure(full, closure, f"expression kinds seed={seed} step={step}")
        base = updated
