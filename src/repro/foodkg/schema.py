"""Dataclasses describing the (synthetic) FoodKG content.

The public FoodKG is a large scraped knowledge graph (recipes from
Recipe1M, nutrition from USDA).  We cannot ship it, so the reproduction
uses these in-memory records: a curated core catalogue containing every
entity the paper names plus a seeded synthetic generator for scaling
experiments.  The RDF loader turns these records into FEO-conformant
triples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "slugify",
    "NutrientProfile",
    "IngredientRecord",
    "RecipeRecord",
    "ConditionRule",
    "FoodCatalog",
]


def slugify(name: str) -> str:
    """Turn a human-readable name into the CamelCase local name used in IRIs.

    >>> slugify("Cauliflower Potato Curry")
    'CauliflowerPotatoCurry'
    """
    words = re.split(r"[^A-Za-z0-9]+", name)
    return "".join(word.capitalize() if not word.isupper() else word for word in words if word)


@dataclass(frozen=True)
class NutrientProfile:
    """Per-serving nutrition facts (the subset the recommender scores on)."""

    calories: float = 0.0
    protein: float = 0.0
    carbohydrates: float = 0.0
    fat: float = 0.0
    fiber: float = 0.0
    sodium: float = 0.0

    def scaled(self, factor: float) -> "NutrientProfile":
        """Return a profile scaled by ``factor`` (e.g. per-portion adjustments)."""
        return NutrientProfile(
            calories=self.calories * factor,
            protein=self.protein * factor,
            carbohydrates=self.carbohydrates * factor,
            fat=self.fat * factor,
            fiber=self.fiber * factor,
            sodium=self.sodium * factor,
        )

    def combined(self, other: "NutrientProfile") -> "NutrientProfile":
        """Sum two profiles (used when aggregating ingredient nutrition)."""
        return NutrientProfile(
            calories=self.calories + other.calories,
            protein=self.protein + other.protein,
            carbohydrates=self.carbohydrates + other.carbohydrates,
            fat=self.fat + other.fat,
            fiber=self.fiber + other.fiber,
            sodium=self.sodium + other.sodium,
        )


@dataclass(frozen=True)
class IngredientRecord:
    """One ingredient with availability, allergen and nutrition annotations."""

    name: str
    seasons: Tuple[str, ...] = ()
    regions: Tuple[str, ...] = ()
    allergens: Tuple[str, ...] = ()
    nutrients: Tuple[str, ...] = ()
    nutrition: NutrientProfile = field(default_factory=NutrientProfile)
    tags: Tuple[str, ...] = ()

    @property
    def slug(self) -> str:
        return slugify(self.name)


@dataclass(frozen=True)
class RecipeRecord:
    """One recipe: ingredients plus meal/cuisine/diet/cost metadata."""

    name: str
    ingredients: Tuple[str, ...]
    cuisine: str = "international"
    meal_types: Tuple[str, ...] = ("dinner",)
    diets: Tuple[str, ...] = ()
    cost_level: str = "medium"
    cook_time_minutes: int = 30
    servings: int = 4
    nutrition: Optional[NutrientProfile] = None
    tags: Tuple[str, ...] = ()

    @property
    def slug(self) -> str:
        return slugify(self.name)


@dataclass(frozen=True)
class ConditionRule:
    """Health-domain knowledge: a condition or goal forbids / recommends foods."""

    subject: str            # condition or goal key, e.g. "pregnancy", "low_sodium"
    kind: str               # "condition" or "goal"
    forbids: Tuple[str, ...] = ()
    recommends: Tuple[str, ...] = ()
    rationale: str = ""


@dataclass
class FoodCatalog:
    """A complete catalogue: ingredients, recipes and health rules.

    Build the catalogue first, then hand it to an engine: once an
    :class:`~repro.core.engine.ExplanationEngine` (or a
    :class:`~repro.core.scenario.ScenarioBuilder`) is built over it, the
    catalogue is read-only.  The builder's frozen base graph is loaded
    from it once, and the generators derive catalogue-wide aggregates
    from it once (recipe counts, population rankings, pairings); an
    ``add_*`` call afterwards reaches neither.
    """

    ingredients: Dict[str, IngredientRecord] = field(default_factory=dict)
    recipes: Dict[str, RecipeRecord] = field(default_factory=dict)
    condition_rules: List[ConditionRule] = field(default_factory=list)
    diets: List[str] = field(default_factory=list)
    allergens: List[str] = field(default_factory=list)
    regions: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    def add_ingredient(self, ingredient: IngredientRecord) -> None:
        self.ingredients[ingredient.name] = ingredient
        for allergen in ingredient.allergens:
            if allergen not in self.allergens:
                self.allergens.append(allergen)
        for region in ingredient.regions:
            if region not in self.regions:
                self.regions.append(region)

    def add_recipe(self, recipe: RecipeRecord) -> None:
        missing = [name for name in recipe.ingredients if name not in self.ingredients]
        if missing:
            raise KeyError(f"Recipe {recipe.name!r} uses unknown ingredients: {missing}")
        self.recipes[recipe.name] = recipe
        for diet in recipe.diets:
            if diet not in self.diets:
                self.diets.append(diet)

    def add_rule(self, rule: ConditionRule) -> None:
        self.condition_rules.append(rule)

    # ------------------------------------------------------------------
    def recipe(self, name: str) -> RecipeRecord:
        return self.recipes[name]

    def ingredient(self, name: str) -> IngredientRecord:
        return self.ingredients[name]

    def recipe_ingredients(self, name: str) -> List[IngredientRecord]:
        return [self.ingredients[i] for i in self.recipes[name].ingredients]

    def recipe_allergens(self, name: str) -> List[str]:
        out: List[str] = []
        for ingredient in self.recipe_ingredients(name):
            for allergen in ingredient.allergens:
                if allergen not in out:
                    out.append(allergen)
        return out

    def recipe_seasons(self, name: str) -> List[str]:
        out: List[str] = []
        for ingredient in self.recipe_ingredients(name):
            for season in ingredient.seasons:
                if season not in out:
                    out.append(season)
        return out

    def recipe_nutrition(self, name: str) -> NutrientProfile:
        recipe = self.recipes[name]
        if recipe.nutrition is not None:
            return recipe.nutrition
        total = NutrientProfile()
        for ingredient in self.recipe_ingredients(name):
            total = total.combined(ingredient.nutrition)
        return total

    def recipes_containing(self, ingredient_name: str) -> List[RecipeRecord]:
        return [r for r in self.recipes.values() if ingredient_name in r.ingredients]

    def rules_for(self, subject: str) -> List[ConditionRule]:
        return [rule for rule in self.condition_rules if rule.subject == subject]

    def stats(self) -> Dict[str, int]:
        """Simple size statistics used by the scaling benchmarks."""
        return {
            "ingredients": len(self.ingredients),
            "recipes": len(self.recipes),
            "condition_rules": len(self.condition_rules),
            "diets": len(self.diets),
            "allergens": len(self.allergens),
            "regions": len(self.regions),
        }
