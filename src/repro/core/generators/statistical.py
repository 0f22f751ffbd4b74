"""Statistical explanations ('What evidence from data suggests I follow diet D?').

Deferred to future work in the paper; the design sketch is to aggregate
data from the system's knowledge graph and user population.  This
generator computes aggregate statistics over the food knowledge graph
(share of catalogue recipes matching the user's diets, containing the
question's key ingredients, fitting the current season) and reports them
as evidence, beside the scenario graph's recipe count from a SPARQL
``COUNT`` query.

The catalogue is read-only once an engine is built, so its per-diet,
per-season and per-ingredient recipe counts are tallied once, on first
use.  The ``COUNT`` query is constant: it is prepared once and evaluated
against each scenario's closure.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Tuple

from ...foodkg.schema import FoodCatalog
from ...sparql import prepare_cached
from ..explanation import Explanation, ExplanationItem
from ..queries import PREFIXES
from ..scenario import Scenario
from ..templates import humanize, render_statistical
from .base import ExplanationGenerator

__all__ = ["StatisticalExplanationGenerator"]

#: The knowledge graph's recipe count (the explanation's ``query``).
_RECIPE_COUNT_QUERY = f"{PREFIXES}\nSELECT (COUNT(?r) AS ?n) WHERE {{ ?r a food:Recipe . }}"

#: Recipes per diet, per season (with an in-season ingredient) and per
#: ingredient.
_Counts = Tuple[Counter, Counter, Counter]


def _catalog_counts(catalog: FoodCatalog) -> _Counts:
    diets: Counter = Counter()
    seasons: Counter = Counter()
    ingredients: Counter = Counter()
    for recipe in catalog.recipes.values():
        diets.update(set(recipe.diets))
        seasons.update(catalog.recipe_seasons(recipe.name))
        ingredients.update(set(recipe.ingredients))
    return diets, seasons, ingredients


def _kg_recipe_count(scenario: Scenario) -> int:
    rows = list(prepare_cached(_RECIPE_COUNT_QUERY).evaluate(scenario.inferred))
    if not rows:
        return 0
    value = rows[0].get("n")
    try:
        return int(value.value) if value is not None else 0
    except (TypeError, ValueError):
        return 0


class StatisticalExplanationGenerator(ExplanationGenerator):
    """Aggregates knowledge-graph statistics supporting the recommendation."""

    explanation_type = "statistical"

    def __init__(self, catalog: FoodCatalog) -> None:
        self._catalog = catalog
        self._counts: Optional[_Counts] = None

    def generate(self, scenario: Scenario, **kwargs) -> Explanation:
        counts = self._counts
        if counts is None:
            # Assemble, then publish: concurrent first asks at worst both
            # tally the catalogue.
            counts = self._counts = _catalog_counts(self._catalog)
        diet_counts, season_counts, ingredient_counts = counts
        total_recipes = len(self._catalog.recipes)
        items: List[ExplanationItem] = []

        kg_total = _kg_recipe_count(scenario) or total_recipes

        for diet in scenario.user.diets:
            diet_count = diet_counts[diet]
            if diet_count:
                share = round(100.0 * diet_count / max(1, total_recipes))
                items.append(ExplanationItem(
                    subject=diet, role="statistic", characteristic_type="DietCharacteristic",
                    detail=(f"{diet_count} of {total_recipes} catalogue recipes ({share}%) are "
                            f"suitable for the {humanize(diet)} diet."),
                ))

        season = scenario.context.season
        seasonal_count = season_counts[season]
        if seasonal_count:
            share = round(100.0 * seasonal_count / max(1, total_recipes))
            items.append(ExplanationItem(
                subject=season, role="statistic", characteristic_type="SeasonCharacteristic",
                detail=(f"{seasonal_count} of {total_recipes} recipes ({share}%) use at least one "
                        f"ingredient that is in season in {season}."),
            ))

        recipe_name = getattr(scenario.question, "recipe", "") or getattr(scenario.question, "primary", "")
        if recipe_name and recipe_name in self._catalog.recipes:
            for ingredient in self._catalog.recipes[recipe_name].ingredients[:3]:
                containing = ingredient_counts[ingredient]
                if containing > 1:
                    items.append(ExplanationItem(
                        subject=ingredient, role="statistic",
                        characteristic_type="IngredientCharacteristic",
                        detail=(f"{ingredient} appears in {containing} of {total_recipes} "
                                f"catalogue recipes."),
                    ))

        subject = recipe_name or (scenario.user.diets[0] if scenario.user.diets else "the recommendation")
        return Explanation(
            explanation_type=self.explanation_type,
            question=scenario.question,
            items=items,
            text=render_statistical(subject, items),
            query=_RECIPE_COUNT_QUERY,
            metadata={"kg_recipe_count": kg_total},
        )
