"""Experiment E1 (Table I): explanation types and their example food questions.

The paper's Table I lists nine literature-derived explanation types with an
example user question each; the evaluation then claims FEO's modelling
covers contextual, contrastive and counterfactual, with the rest reachable
through the same structure.  This benchmark regenerates the table — for
every type: the example question, whether this reproduction implements a
generator for it, and whether the generator produces a non-empty
explanation for the paper's user — and measures the cost of generating all
nine explanations for one question.
"""

from __future__ import annotations

from repro.core.competency import EXTENDED_COMPETENCY_QUESTIONS, PAPER_COMPETENCY_QUESTIONS
from repro.core.questions import WhyQuestion
from repro.ontology.eo import EXPLANATION_TYPES

#: Table I of the paper: explanation type -> example user question.
TABLE1_QUESTIONS = {
    "case_based": "What results from other users recommend food A?",
    "contextual": "Why should I eat Food A?",
    "contrastive": "Why was Food A recommended over Food B?",
    "counterfactual": "What if we changed ingredient C?",
    "everyday": "What foods go together?",
    "scientific": "What literature recommends Food A?",
    "simulation_based": "What if I ate food A everyday?",
    "statistical": "What evidence from data suggests I follow diet D?",
    "trace_based": "What steps led to recommendation E?",
}

#: The subset the paper's initial modelling targets (Section V).
PAPER_PRIMARY_TYPES = {"contextual", "contrastive", "counterfactual"}


def _build_table(engine, user, context):
    """Generate one explanation per Table I row, using a question of the matching shape."""
    from repro.core.questions import ContrastiveQuestion, WhatIfConditionQuestion

    why = WhyQuestion(text="Why should I eat Lentil Soup?", recipe="Lentil Soup")
    questions = {
        type_key: why for type_key in TABLE1_QUESTIONS
    }
    questions["contrastive"] = ContrastiveQuestion(
        text="Why was Butternut Squash Soup recommended over Broccoli Cheddar Soup?",
        primary="Butternut Squash Soup", secondary="Broccoli Cheddar Soup")
    questions["counterfactual"] = WhatIfConditionQuestion(
        text="What if I was pregnant?", condition="pregnancy")
    questions["case_based"] = WhyQuestion(
        text="Why should I eat Spinach Frittata?", recipe="Spinach Frittata")

    recommendation = engine.recommender.recommend_one(user, context)
    rows = []
    for type_key in sorted(TABLE1_QUESTIONS):
        explanation = engine.explain(
            questions[type_key], user, context,
            explanation_type=type_key, recommendation=recommendation)
        rows.append({
            "explanation_type": type_key,
            "example_question": TABLE1_QUESTIONS[type_key],
            "paper_primary": type_key in PAPER_PRIMARY_TYPES,
            "implemented": type_key in engine.supported_explanation_types,
            "non_empty": not explanation.is_empty,
            "evidence_items": len(explanation.items),
            "text": explanation.text,
        })
    return rows


def test_table1_explanation_type_coverage(benchmark, engine, user, context):
    rows = benchmark.pedantic(_build_table, args=(engine, user, context), rounds=1, iterations=1)

    print("\nTable I — explanation types and reproduction coverage")
    header = f"{'type':<18} {'paper-primary':<14} {'implemented':<12} {'non-empty':<10} {'items':<6} example question"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['explanation_type']:<18} {str(row['paper_primary']):<14} "
              f"{str(row['implemented']):<12} {str(row['non_empty']):<10} "
              f"{row['evidence_items']:<6} {row['example_question']}")

    assert len(rows) == 9
    assert set(TABLE1_QUESTIONS) == set(EXPLANATION_TYPES)
    # Every type has an implemented generator...
    assert all(row["implemented"] for row in rows)
    # ...and the paper's three primary types must produce evidence for this scenario.
    for row in rows:
        if row["paper_primary"]:
            assert row["non_empty"], row


def test_table1_competency_question_pass_rate(benchmark, engine, user, context):
    from repro.core.competency import CompetencySuite

    suite = CompetencySuite(engine, user, context)
    results = benchmark.pedantic(
        suite.run, args=(tuple(PAPER_COMPETENCY_QUESTIONS) + tuple(EXTENDED_COMPETENCY_QUESTIONS),),
        rounds=1, iterations=1)

    print("\nCompetency-question pass matrix (paper CQ1-3 + extended Table I coverage)")
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"  [{status}] {result.question.identifier:<16} "
              f"({result.question.explanation_type}) items={len(result.explanation.items)}")
    assert all(result.passed for result in results)
