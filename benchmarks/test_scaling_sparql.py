"""Experiment E9b (ablation): SPARQL query cost vs. knowledge-graph size.

Measures the three competency-question queries over reasoned scenario
graphs built from increasingly large synthetic catalogues, plus the cost
split between parsing and evaluation (prepared vs. unprepared queries).
The paper stresses that its queries stay simple; this ablation shows they
also stay cheap as the knowledge graph grows.

The planner gates quantify the cost-based query planner
(:mod:`repro.sparql.planner`): an adversarially-ordered competency-style
query must run ≥ 5× faster planned than naive, and the paper's
well-ordered listings must not regress (≤ 1.1× naive).  Each gate appends
its measurements to ``BENCH_sparql.json`` (CI uploads it as an artifact).
"""

from __future__ import annotations


import pytest

from conftest import best_of, perf_gate, record_bench, scaled

from repro.core.engine import ExplanationEngine
from repro.core.queries import (
    PREFIXES,
    contextual_query,
    contextual_template,
    contrastive_template,
    counterfactual_template,
)
from repro.core.questions import ContrastiveQuestion, WhatIfConditionQuestion, WhyQuestion
from repro.foodkg import generate_catalog
from repro.sparql import parse_query, prepare
from repro.users.personas import paper_context, paper_user


def _scenario_for_scale(extra_recipes: int):
    catalog = generate_catalog(extra_ingredients=extra_recipes // 3, extra_recipes=extra_recipes)
    engine = ExplanationEngine(catalog=catalog)
    question = WhyQuestion(text="Why should I eat Cauliflower Potato Curry?",
                           recipe="Cauliflower Potato Curry")
    return engine.build_scenario(question, paper_user(), paper_context())


@pytest.mark.parametrize("extra_recipes", [0, 100, 300],
                         ids=["core", "core+100recipes", "core+300recipes"])
def test_contextual_query_scaling(benchmark, extra_recipes):
    scenario = _scenario_for_scale(extra_recipes)
    prepared = prepare(contextual_query(scenario.question_iri),
                       scenario.inferred.namespace_manager)

    result = benchmark(prepared.evaluate, scenario.inferred)

    pairs = {(row["characteristic"].local_name(), row["classes"].local_name()) for row in result}
    print(f"\ncontextual query over {len(scenario.inferred)} triples -> {len(pairs)} rows")
    # The paper's expected row must survive at every scale.
    assert ("Autumn", "SeasonCharacteristic") in pairs


def test_query_parse_cost(benchmark, cq1_scenario):
    query_text = contextual_query(cq1_scenario.question_iri)

    algebra = benchmark(parse_query, query_text, cq1_scenario.inferred.namespace_manager)
    assert algebra is not None


def test_prepared_query_amortises_parsing(benchmark, cq1_scenario):
    query_text = contextual_query(cq1_scenario.question_iri)
    prepared = prepare(query_text, cq1_scenario.inferred.namespace_manager)

    def run_five_times():
        return [len(list(prepared.evaluate(cq1_scenario.inferred))) for _ in range(5)]

    counts = benchmark(run_five_times)
    assert len(set(counts)) == 1


# ---------------------------------------------------------------------------
# Planner gates
# ---------------------------------------------------------------------------
#: The contextual competency question with its triple patterns ordered
#: worst-first: the unselective ``?characteristic a ?classes`` join space
#: opens the query and two cartesian patterns follow, so the naive
#: left-to-right evaluator carries |types| x |system| x |user| intermediate
#: rows before anything selective runs.  The planner must recover the
#: selective order (start from the bound ?question) from the indexes.
ADVERSARIAL_CONTEXTUAL = PREFIXES + """
SELECT DISTINCT ?characteristic ?classes
WHERE {
  ?characteristic a ?classes .
  ?systemChar a feo:SystemCharacteristic .
  ?userChar a feo:UserCharacteristic .
  ?classes rdfs:subClassOf feo:Characteristic .
  FILTER ( ?characteristic = ?systemChar || ?characteristic = ?userChar ) .
  FILTER NOT EXISTS { ?classes rdfs:subClassOf eo:knowledge } .
  ?characteristic feo:isInternal false .
  ?parameter feo:hasCharacteristic ?characteristic .
  ?question feo:hasParameter ?parameter .
}
"""


def test_planner_speedup_on_adversarial_order():
    """Planned evaluation must be ≥ 5× faster than naive on a bad ordering."""
    scenario = _scenario_for_scale(scaled(120))
    graph = scenario.inferred
    prepared = prepare(ADVERSARIAL_CONTEXTUAL, graph.namespace_manager)
    bindings = {"question": scenario.question_iri}
    prepared.evaluate(graph, bindings)  # compile + warm the plan

    planned_best, planned_result = best_of(3, lambda: prepared.evaluate(graph, bindings))
    naive_best, naive_result = best_of(2, lambda: prepared.evaluate_naive(graph, bindings))

    planned_rows = sorted(tuple(str(v) for v in row) for row in planned_result)
    naive_rows = sorted(tuple(str(v) for v in row) for row in naive_result)
    assert planned_rows == naive_rows and planned_rows

    speedup = naive_best / planned_best
    print(f"\nadversarial contextual over {len(graph)} triples: "
          f"naive {naive_best:.4f}s, planned {planned_best:.4f}s -> {speedup:.1f}x")
    record_bench("BENCH_sparql.json", "adversarial_contextual", {
        "triples": len(graph),
        "rows": len(planned_rows),
        "naive_seconds": naive_best,
        "planned_seconds": planned_best,
        "speedup": round(speedup, 2),
    })
    perf_gate(speedup >= 5.0,
              f"planner speedup {speedup:.1f}x below the 5x gate "
              f"(naive {naive_best:.4f}s, planned {planned_best:.4f}s)")


def _listing_cases():
    return [
        ("listing1_contextual", contextual_template(),
         WhyQuestion(text="Why should I eat Cauliflower Potato Curry?",
                     recipe="Cauliflower Potato Curry")),
        ("listing2_contrastive", contrastive_template(),
         ContrastiveQuestion(
             text="Why should I eat Butternut Squash Soup over a Broccoli Cheddar Soup?",
             primary="Butternut Squash Soup", secondary="Broccoli Cheddar Soup")),
        ("listing3_counterfactual", counterfactual_template(),
         WhatIfConditionQuestion(text="What if I was pregnant?", condition="pregnancy")),
    ]


@pytest.mark.parametrize("name,template,question",
                         _listing_cases(),
                         ids=[case[0] for case in _listing_cases()])
def test_planner_no_regression_on_paper_listings(name, template, question,
                                                 engine, user, context):
    """The already-well-ordered paper listings must not regress (≤ 1.1× naive)."""
    scenario = engine.build_scenario(question, user, context)
    graph = scenario.inferred
    prepared = prepare(template, graph.namespace_manager)
    bindings = {"question": scenario.question_iri}
    prepared.evaluate(graph, bindings)  # compile + warm the plan

    def planned_five():
        for _ in range(5):
            prepared.evaluate(graph, bindings)

    def naive_five():
        for _ in range(5):
            prepared.evaluate_naive(graph, bindings)

    planned_best, _ = best_of(5, planned_five)
    naive_best, _ = best_of(5, naive_five)

    planned_rows = sorted(tuple(str(v) for v in row)
                          for row in prepared.evaluate(graph, bindings))
    naive_rows = sorted(tuple(str(v) for v in row)
                        for row in prepared.evaluate_naive(graph, bindings))
    assert planned_rows == naive_rows

    ratio = planned_best / naive_best
    print(f"\n{name}: naive {naive_best:.4f}s, planned {planned_best:.4f}s "
          f"-> ratio {ratio:.2f}")
    record_bench("BENCH_sparql.json", name, {
        "triples": len(graph),
        "rows": len(planned_rows),
        "naive_seconds": naive_best,
        "planned_seconds": planned_best,
        "planned_over_naive": round(ratio, 3),
    })
    perf_gate(ratio <= 1.1,
              f"{name}: planned evaluation regressed to {ratio:.2f}x naive "
              f"(naive {naive_best:.4f}s, planned {planned_best:.4f}s)")
