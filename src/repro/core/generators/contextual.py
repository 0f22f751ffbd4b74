"""Contextual explanations (competency question 1, Listing 1).

A contextual explanation surfaces the *external* factors — season,
location, budget, meal time — that support recommending the question's
parameter.  The generator runs the Listing 1 SPARQL query over the
scenario's inferred graph and renders the resulting characteristic /
class pairs.
"""

from __future__ import annotations

from typing import Dict, List

from ..explanation import Explanation, ExplanationItem
from ..queries import contextual_query, evaluate_contextual
from ..scenario import Scenario
from ..templates import render_contextual
from .base import ExplanationGenerator, local_name

__all__ = ["ContextualExplanationGenerator"]

#: Ranking used to pick the most specific class per characteristic when the
#: query returns several ancestor classes for the same individual.
_GENERIC_CLASSES = {"Characteristic", "SystemCharacteristic", "UserCharacteristic",
                    "EcosystemCharacteristic", "Parameter"}


class ContextualExplanationGenerator(ExplanationGenerator):
    """Generates contextual explanations for why-questions."""

    explanation_type = "contextual"

    def generate(self, scenario: Scenario, **kwargs) -> Explanation:
        # Evaluate via the prepared-query cache (parse once per process);
        # the substituted text is kept for display / --show-query.
        query_text = contextual_query(scenario.question_iri, match_ecosystem=True)
        result = evaluate_contextual(scenario.inferred, scenario.question_iri,
                                     match_ecosystem=True)

        # Group class bindings per characteristic and keep the most specific.
        classes_by_characteristic: Dict[str, List[str]] = {}
        for row in result:
            characteristic = local_name(row.get("characteristic"))
            cls = local_name(row.get("classes"))
            if not characteristic or not cls:
                continue
            classes_by_characteristic.setdefault(characteristic, [])
            if cls not in classes_by_characteristic[characteristic]:
                classes_by_characteristic[characteristic].append(cls)

        items: List[ExplanationItem] = []
        for characteristic, classes in sorted(classes_by_characteristic.items()):
            # The smallest name, not the first row: independent of row order.
            specific = [cls for cls in classes if cls not in _GENERIC_CLASSES]
            chosen = min(specific or classes)
            items.append(ExplanationItem(
                subject=characteristic,
                role="context",
                characteristic_type=chosen,
                detail=f"{characteristic} is an external ({chosen}) factor supporting the recommendation",
            ))

        recipe = getattr(scenario.question, "recipe", "") or local_name(
            scenario.parameter_iris[0] if scenario.parameter_iris else ""
        )
        return Explanation(
            explanation_type=self.explanation_type,
            question=scenario.question,
            items=items,
            text=render_contextual(recipe, items),
            query=query_text,
            bindings=[{k: local_name(v) for k, v in row.asdict().items()} for row in result],
        )
