"""Storage-engine gate: dictionary encoding vs. term-tuple storage.

**Peak memory** — building the synthetic scaling fixture into the
dictionary-encoded :class:`~repro.rdf.graph.Graph` must allocate at least
30% less peak memory (tracemalloc) than a term-tuple baseline store using
the pre-encoding layout (term-keyed SPO/POS/OSP indexes and a set of term
tuples).  The fixture constructs a *fresh* term object per position, the
way parsers and the FoodKG loader do: the baseline retains every copy, the
encoded store interns one canonical term per distinct value and keeps
compact ``(int, int, int)`` tuples.

The measurement lands in ``BENCH_memory.json`` (CI uploads it as an
artifact next to ``BENCH_sparql.json``).  Closure speed is gated against
the naive oracle in ``test_scaling_reasoner.py``.
"""

from __future__ import annotations

import gc
import tracemalloc
from typing import Dict, Set, Tuple

from conftest import record_bench, scaled

from repro.rdf.graph import Graph
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
