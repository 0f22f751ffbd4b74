"""Everyday explanations ('What foods go together?').

Deferred to future work in the paper.  Everyday explanations appeal to
common knowledge rather than formal evidence; the closest knowledge-graph
signal is ingredient co-occurrence — foods that frequently appear in the
same recipes 'go together' in everyday cooking.

A name's pairings depend only on the catalogue, which is read-only once
an engine is built, so they are computed once per recipe or ingredient
name, on first ask; the memo holds at most one entry per catalogue name.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from ...foodkg.schema import FoodCatalog
from ..explanation import Explanation, ExplanationItem
from ..scenario import Scenario
from ..templates import render_everyday
from .base import ExplanationGenerator

__all__ = ["EverydayExplanationGenerator"]

#: Pantry staples excluded from pairings (they co-occur with everything).
_STAPLES = {"Salt", "Black Pepper", "Olive Oil", "Butter", "Onion", "Garlic",
            "Vegetable Broth", "Sugar", "Honey"}


class EverydayExplanationGenerator(ExplanationGenerator):
    """Reports the foods that most commonly co-occur with the question's foods."""

    explanation_type = "everyday"

    def __init__(self, catalog: FoodCatalog, max_pairings: int = 5) -> None:
        self._catalog = catalog
        self._max_pairings = max_pairings
        self._pairings: Dict[str, Tuple[str, ...]] = {}

    def pairings_for(self, food_name: str) -> List[str]:
        """Foods most frequently co-occurring with ``food_name`` across recipes."""
        pairings = self._pairings.get(food_name)
        if pairings is None:
            pairings = self._rank_pairings(food_name)
            if food_name in self._catalog.recipes or food_name in self._catalog.ingredients:
                self._pairings[food_name] = pairings
        return list(pairings)

    def _rank_pairings(self, food_name: str) -> Tuple[str, ...]:
        counter: Counter = Counter()
        if food_name in self._catalog.recipes:
            anchors = set(self._catalog.recipes[food_name].ingredients)
        else:
            anchors = {food_name}
        for recipe in self._catalog.recipes.values():
            ingredients = set(recipe.ingredients)
            if food_name in self._catalog.recipes and recipe.name == food_name:
                continue
            if anchors & ingredients or food_name in ingredients:
                for other in ingredients - anchors - {food_name}:
                    if other not in _STAPLES:
                        counter[other] += 1
        # Ties break by name, not by set iteration order (the hash seed).
        ranked = sorted(counter.items(), key=lambda item: (-item[1], item[0]))
        return tuple(name for name, _ in ranked[:self._max_pairings])

    def generate(self, scenario: Scenario, **kwargs) -> Explanation:
        subject = (getattr(scenario.question, "recipe", "")
                   or getattr(scenario.question, "primary", "")
                   or getattr(scenario.question, "ingredient", ""))
        items: List[ExplanationItem] = []
        if subject:
            for pairing in self.pairings_for(subject):
                items.append(ExplanationItem(
                    subject=pairing,
                    role="pairing",
                    characteristic_type="IngredientCharacteristic",
                    detail=f"{pairing} commonly appears alongside {subject} in recipes",
                ))
        return Explanation(
            explanation_type=self.explanation_type,
            question=scenario.question,
            items=items,
            text=render_everyday(subject or "this food", items),
        )
