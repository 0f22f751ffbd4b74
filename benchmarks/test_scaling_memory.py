"""Storage-engine gate: dictionary encoding vs. term-tuple storage.

**Peak memory** — building the synthetic scaling fixture into the
dictionary-encoded :class:`~repro.rdf.graph.Graph` must allocate at least
30% less peak memory (tracemalloc) than a term-tuple baseline store using
the pre-encoding layout (term-keyed SPO/POS/OSP indexes and a set of term
tuples).  The fixture constructs a *fresh* term object per position, the
way parsers and the FoodKG loader do: the baseline retains every copy, the
encoded store interns one canonical term per distinct value and keeps
compact ``(int, int, int)`` tuples.

**Closure copies** — every answer after a profile update is served from
a :meth:`~repro.rdf.graph.Graph.copy` of a cached closure, so what a copy
and a cached scenario allocate is gated in bytes (tracemalloc), never in
time: a copy of the CQ1 closure at e2ebench's knowledge-graph scale must
allocate at most 0.3 MB, and each of 32 cached CQ1 scenarios at most
1.6 MB.  The SPO index is a graph's only copy of its triples, so a COW
copy duplicates the outer index dicts only (O(distinct nodes)).

The measurements land in ``BENCH_memory.json`` (CI uploads it as an
artifact next to ``BENCH_sparql.json``).  Closure speed is gated against
the naive oracle in ``test_scaling_reasoner.py``.
"""

from __future__ import annotations

import gc
import tracemalloc
from typing import Dict, Set, Tuple

import pytest
from conftest import record_bench, scaled

from repro.core.engine import ExplanationEngine
from repro.core.questions import parse_question
from repro.foodkg.generator import generate_catalog
from repro.rdf.graph import Graph
from repro.users.personas import persona
from repro.rdf.terms import IRI, Literal

_FOOD = "http://purl.org/heals/food/"
_KB = "http://idea.rpi.edu/heals/kb/"


class TermTupleStore:
    """The pre-encoding storage layout: term tuples and term-keyed indexes.

    A minimal reconstruction of what ``Graph`` stored before dictionary
    encoding — the baseline fixture the memory gate compares against.
    """

    def __init__(self) -> None:
        self._triples: Set[Tuple] = set()
        self._spo: Dict = {}
        self._pos: Dict = {}
        self._osp: Dict = {}
        self._pred_counts: Dict = {}

    def add(self, triple: Tuple) -> None:
        if triple in self._triples:
            return
        s, p, o = triple
        self._triples.add(triple)
        self._pred_counts[p] = self._pred_counts.get(p, 0) + 1
        self._spo.setdefault(s, {}).setdefault(p, set()).add(o)
        self._pos.setdefault(p, {}).setdefault(o, set()).add(s)
        self._osp.setdefault(o, {}).setdefault(s, set()).add(p)

    def __len__(self) -> int:
        return len(self._triples)


def _fixture_triples(scale: int):
    """Synthetic KG triples with freshly-constructed terms per *position*.

    Shaped like the FoodKG loader's output: each recipe links a handful of
    ingredients from a shared pool, carries a type, a label and a numeric
    nutrient literal, with realistic FoodKG-length IRIs.  Every position
    of every statement constructs a *new* term object even when its value
    repeats — exactly what the N-Triples/Turtle parsers and the catalog
    loader produce — so the baseline retains one copy per statement while
    the encoded store interns one canonical term per distinct value.
    """

    def recipe_iri(index: int) -> IRI:
        return IRI(f"{_KB}recipe/scaling-benchmark-recipe-{index:05d}")

    links_per_recipe = 8
    ingredient_pool = 40 + scale // 25
    for recipe_index in range(scale):
        yield (recipe_iri(recipe_index),
               IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
               IRI(_FOOD + "Recipe"))
        yield (recipe_iri(recipe_index),
               IRI("http://www.w3.org/2000/01/rdf-schema#label"),
               Literal(f"Scaling Recipe {recipe_index}"))
        yield (recipe_iri(recipe_index), IRI(_FOOD + "hasCookTime"),
               Literal(recipe_index % 120))
        for link in range(links_per_recipe):
            pool_slot = (recipe_index * links_per_recipe + link) % ingredient_pool
            yield (recipe_iri(recipe_index), IRI(_FOOD + "hasIngredient"),
                   IRI(f"{_KB}usda#scaling-benchmark-ingredient-"
                       f"{pool_slot:04d}-with-descriptive-usda-style-suffix"))


def _traced_build(builder):
    """(peak_bytes, retained_bytes, store) for one store-building callable."""
    gc.collect()
    tracemalloc.start()
    store = builder()
    retained, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, retained, store


def test_encoded_store_peak_memory_is_30pct_smaller():
    """Gate: >=30% peak-memory reduction vs. the term-tuple baseline."""
    scale = scaled(3000)

    def build_baseline():
        store = TermTupleStore()
        for triple in _fixture_triples(scale):
            store.add(triple)
        return store

    def build_encoded():
        graph = Graph(bind_defaults=False)
        graph.addN(_fixture_triples(scale))
        return graph

    baseline_peak, baseline_retained, baseline = _traced_build(build_baseline)
    encoded_peak, encoded_retained, encoded = _traced_build(build_encoded)

    assert len(encoded) == len(baseline), "stores diverged on the same fixture"
    reduction = 1.0 - encoded_peak / baseline_peak
    retained_reduction = 1.0 - encoded_retained / baseline_retained
    print(f"\nstorage fixture ({len(encoded)} triples): "
          f"baseline peak={baseline_peak / 1e6:.1f}MB "
          f"encoded peak={encoded_peak / 1e6:.1f}MB "
          f"-> {reduction:.0%} less (retained: {retained_reduction:.0%} less, "
          f"{len(encoded.dictionary)} interned terms)")
    record_bench("BENCH_memory.json", "storage_peak_memory", {
        "triples": len(encoded),
        "interned_terms": len(encoded.dictionary),
        "baseline_peak_bytes": baseline_peak,
        "encoded_peak_bytes": encoded_peak,
        "baseline_retained_bytes": baseline_retained,
        "encoded_retained_bytes": encoded_retained,
        "peak_reduction": round(reduction, 4),
        "retained_reduction": round(retained_reduction, 4),
    })
    assert reduction >= 0.30, (
        f"encoded storage must cut peak memory by >=30%, got {reduction:.0%}"
    )


@pytest.fixture(scope="module")
def served_engine():
    """An engine over e2ebench's knowledge graph (``KG_CONFIG``), unscaled,
    with the paper persona's CQ1 scenario built — so the shared base
    closure exists before anything is measured, as after a fleet's first
    miss."""
    engine = ExplanationEngine(
        catalog=generate_catalog(extra_recipes=100, extra_ingredients=50))
    user, context = persona("paper")
    scenario = engine.builder.build(
        parse_question("Why should I eat Cauliflower Potato Curry?"), user, context)
    return engine, scenario


def _traced_retained(fn):
    """(retained_bytes, result): what ``fn``'s result keeps alive."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained, result


def test_closure_copy_allocates_at_most_0_3mb(served_engine):
    """A COW copy of the CQ1 closure (18k triples) allocates <= 0.3 MB."""
    _, scenario = served_engine
    closure = scenario.inferred
    retained, copy = _traced_retained(closure.copy)
    assert copy == closure
    print(f"\nclosure copy: {retained / 1e6:.3f} MB for {len(closure)} triples")
    record_bench("BENCH_memory.json", "closure_copy", {
        "triples": len(closure), "copy_bytes": retained})
    assert retained <= 0.3e6, (
        f"a copy of the CQ1 closure must allocate <= 0.3 MB, got "
        f"{retained / 1e6:.3f} MB")


def test_cached_cq1_scenario_costs_at_most_1_6mb(served_engine):
    """Each of 32 distinct cached CQ1 scenarios costs <= 1.6 MB."""
    engine, _ = served_engine
    builder = engine.builder
    user, context = persona("paper")
    questions = [parse_question(f"Why should I eat {recipe}?")
                 for recipe in sorted(builder.catalog.recipes)[:32]]
    retained, scenarios = _traced_retained(
        lambda: [builder.build(question, user, context) for question in questions])
    assert len({id(s.inferred) for s in scenarios}) == 32
    per_scenario = retained / len(scenarios)
    print(f"\ncached CQ1 scenarios: {per_scenario / 1e6:.3f} MB each "
          f"over {len(scenarios)}")
    record_bench("BENCH_memory.json", "cached_cq1_scenario", {
        "scenarios": len(scenarios), "bytes_per_scenario": round(per_scenario)})
    assert per_scenario <= 1.6e6, (
        f"a cached CQ1 scenario must cost <= 1.6 MB, got "
        f"{per_scenario / 1e6:.3f} MB")
