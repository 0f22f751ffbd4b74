"""Counterfactual explanations (competency question 3, Listing 3).

A counterfactual explanation answers 'What if ...?' questions by exploring
the consequences of changing the user's profile (e.g. becoming pregnant):
which foods would be forbidden and which would be recommended, including
dishes inherited through their ingredients.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..explanation import Explanation, ExplanationItem
from ..queries import counterfactual_query, evaluate_counterfactual
from ..scenario import Scenario
from ..templates import render_counterfactual
from .base import ExplanationGenerator, local_name

__all__ = ["CounterfactualExplanationGenerator"]


class CounterfactualExplanationGenerator(ExplanationGenerator):
    """Generates counterfactual explanations for what-if questions."""

    explanation_type = "counterfactual"

    def generate(self, scenario: Scenario, **kwargs) -> Explanation:
        # Evaluate via the prepared-query cache (parse once per process);
        # the substituted text is kept for display / --show-query.
        query_text = counterfactual_query(scenario.question_iri)
        result = evaluate_counterfactual(scenario.inferred, scenario.question_iri)

        forbidden: Dict[str, Optional[str]] = {}
        recommended: Dict[str, Optional[str]] = {}
        for row in result:
            prop = local_name(row.get("property"))
            base_food = local_name(row.get("baseFood"))
            inherited = local_name(row.get("inheritedFood")) or None
            foods = {"forbids": forbidden, "recommends": recommended}.get(prop)
            if base_food and foods is not None:
                # The smallest non-empty inherited food: independent of row order.
                foods[base_food] = min(filter(None, (foods.get(base_food), inherited)),
                                       default=None)

        items: List[ExplanationItem] = []
        for food_name, inherited in sorted(forbidden.items()):
            items.append(ExplanationItem(
                subject=food_name, role="forbidden", value=inherited,
                characteristic_type="FoodCharacteristic",
                detail=f"{food_name} would be forbidden under the hypothetical change",
            ))
        for food_name, inherited in sorted(recommended.items()):
            items.append(ExplanationItem(
                subject=food_name, role="recommended", value=inherited,
                characteristic_type="FoodCharacteristic",
                detail=f"{food_name} would be recommended under the hypothetical change",
            ))

        hypothetical = (getattr(scenario.question, "condition", "")
                        or getattr(scenario.question, "ingredient", ""))
        return Explanation(
            explanation_type=self.explanation_type,
            question=scenario.question,
            items=items,
            text=render_counterfactual(hypothetical,
                                       [i for i in items if i.role == "forbidden"],
                                       [i for i in items if i.role == "recommended"]),
            query=query_text,
            bindings=[{k: local_name(v) for k, v in row.asdict().items()} for row in result],
        )
