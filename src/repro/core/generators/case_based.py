"""Case-based explanations ('What results from other users recommend food A?').

Deferred to future work in the paper.  Our implementation runs the Health
Coach recommender for a population of comparison users (by default the
built-in personas) and reports which comparable users — those sharing a
diet, condition, goal or liked food with the asker — also received the
question's recipe among their top recommendations.

A population member's recommendations depend only on the member and the
catalogue, which is read-only once an engine is built, so each member's
``{recipe: rank}`` map is computed once, on first use, and shared by
every later ask; only the asker's similarity is computed per ask.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ...foodkg.schema import FoodCatalog
from ...recommender.health_coach import HealthCoach
from ...users.context import SystemContext
from ...users.personas import all_personas
from ...users.profile import UserProfile
from ..explanation import Explanation, ExplanationItem
from ..scenario import Scenario
from ..templates import render_case_based
from .base import ExplanationGenerator

__all__ = ["CaseBasedExplanationGenerator"]

Population = Sequence[Tuple[UserProfile, SystemContext]]


def _similarity(a: UserProfile, b: UserProfile) -> int:
    """Shared likes/diets/conditions/goals between two profiles."""
    return (
        len(set(a.likes) & set(b.likes))
        + len(set(a.diets) & set(b.diets))
        + len(set(a.conditions) & set(b.conditions))
        + len(set(a.goals) & set(b.goals))
    )


class CaseBasedExplanationGenerator(ExplanationGenerator):
    """Finds comparable users whose recommendations include the same recipe."""

    explanation_type = "case_based"

    def __init__(
        self,
        catalog: FoodCatalog,
        population: Optional[Population] = None,
        top_k: int = 5,
    ) -> None:
        self._coach = HealthCoach(catalog)
        self._population = list(population) if population is not None else [
            pair for pair in all_personas().values()
        ]
        self._top_k = top_k
        #: Per population member, its top-k ``{recipe: rank}``, or ``None``
        #: until first used.
        self._ranks: List[Optional[Dict[str, int]]] = [None] * len(self._population)

    def _ranks_for(self, index: int) -> Dict[str, int]:
        ranks = self._ranks[index]
        if ranks is None:
            # Assemble, then publish: concurrent first uses at worst both
            # build the same map.
            profile, context = self._population[index]
            ranks = {rec.recipe: rec.rank
                     for rec in self._coach.recommend(profile, context, top_k=self._top_k)}
            self._ranks[index] = ranks
        return ranks

    def generate(self, scenario: Scenario, **kwargs) -> Explanation:
        recipe = (getattr(scenario.question, "recipe", "")
                  or getattr(scenario.question, "primary", ""))
        items: List[ExplanationItem] = []
        if recipe:
            for index, (profile, _) in enumerate(self._population):
                if profile.identifier == scenario.user.identifier:
                    continue
                similarity = _similarity(scenario.user, profile)
                if similarity == 0:
                    continue
                rank = self._ranks_for(index).get(recipe)
                if rank is not None:
                    items.append(ExplanationItem(
                        subject=profile.name or profile.identifier,
                        role="case",
                        characteristic_type="UserCharacteristic",
                        detail=(f"{profile.name or profile.identifier} (similarity {similarity}) was "
                                f"also recommended {recipe} at rank {rank}"),
                        value=str(rank),
                    ))

        return Explanation(
            explanation_type=self.explanation_type,
            question=scenario.question,
            items=items,
            text=render_case_based(recipe or "this recipe", items),
            metadata={"population_size": len(self._population)},
        )
