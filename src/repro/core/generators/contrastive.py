"""Contrastive explanations (competency question 2, Listing 2).

A contrastive explanation compares two parameters of the same type: the
facts that support the primary parameter and the foils that count against
the secondary one (Figure 3 semantics).  The generator runs the Listing 2
query over the inferred graph, which relies on the reasoner having
classified individuals into ``eo:Fact`` and ``eo:Foil``.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..explanation import Explanation, ExplanationItem
from ..queries import contrastive_query, evaluate_contrastive
from ..scenario import Scenario
from ..templates import render_contrastive
from .base import ExplanationGenerator, local_name

__all__ = ["ContrastiveExplanationGenerator"]


class ContrastiveExplanationGenerator(ExplanationGenerator):
    """Generates contrastive explanations for 'Why A over B?' questions."""

    explanation_type = "contrastive"

    def generate(self, scenario: Scenario, **kwargs) -> Explanation:
        # Evaluate via the prepared-query cache (parse once per process);
        # the substituted text is kept for display / --show-query.
        query_text = contrastive_query(scenario.question_iri)
        result = evaluate_contrastive(scenario.inferred, scenario.question_iri)

        facts: Dict[str, str] = {}
        foils: Dict[str, str] = {}
        for row in result:
            fact = local_name(row.get("factA"))
            fact_type = local_name(row.get("factType"))
            foil = local_name(row.get("foilB"))
            foil_type = local_name(row.get("foilType"))
            # The smallest type per fact / foil: independent of row order.
            if fact and fact_type:
                facts[fact] = min(facts.get(fact, fact_type), fact_type)
            if foil and foil_type:
                foils[foil] = min(foils.get(foil, foil_type), foil_type)

        items: List[ExplanationItem] = []
        for fact, fact_type in sorted(facts.items()):
            items.append(ExplanationItem(
                subject=fact, role="fact", characteristic_type=fact_type,
                detail=f"{fact} ({fact_type}) supports the primary option",
            ))
        for foil, foil_type in sorted(foils.items()):
            items.append(ExplanationItem(
                subject=foil, role="foil", characteristic_type=foil_type,
                detail=f"{foil} ({foil_type}) counts against the alternative",
            ))

        primary = getattr(scenario.question, "primary", "")
        secondary = getattr(scenario.question, "secondary", "")
        return Explanation(
            explanation_type=self.explanation_type,
            question=scenario.question,
            items=items,
            text=render_contrastive(primary, secondary,
                                    [i for i in items if i.role == "fact"],
                                    [i for i in items if i.role == "foil"]),
            query=query_text,
            bindings=[{k: local_name(v) for k, v in row.asdict().items()} for row in result],
        )
