"""Generators that derive catalogue-wide aggregates once answer as a scan does.

``case_based`` keeps each population member's top-k ranks, ``statistical``
keeps per-diet, per-season and per-ingredient recipe counts and prepares
its ``COUNT`` query, and ``everyday`` memoises pairings per catalogue
name.  The oracles below recompute everything from the catalogue on every
ask, the way those generators did before they cached anything; each
explanation's text, items and metadata must match them exactly.

The scenarios cover every persona, the same personas grown with extra
diets, likes and allergies through ``update_scenario`` (as the
``live_updates`` benchmark workload grows them), why / contrastive /
what-if questions, and both the curated catalogue and a generated one at
the benchmark's knowledge-graph size.  The counter tests bound the work
directly: no timing is involved.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Tuple

import pytest

from repro.core.engine import ExplanationEngine
from repro.core.explanation import Explanation, ExplanationItem
from repro.core.generators import (
    CaseBasedExplanationGenerator,
    StatisticalExplanationGenerator,
)
from repro.core.queries import PREFIXES
from repro.core.questions import parse_question
from repro.core.templates import (
    humanize,
    render_case_based,
    render_everyday,
    render_statistical,
)
from repro.foodkg.generator import generate_catalog
from repro.recommender.health_coach import HealthCoach
from repro.sparql.planner import planner_stats
from repro.users.personas import all_personas

GENERATORS = ("case_based", "statistical", "everyday")

#: The benchmark's generated knowledge graph (curated core plus synthetic).
FOODKG_SIZE = {"extra_recipes": 100, "extra_ingredients": 50}

#: Diets a grown profile adds one of per update.
GROWTH_DIETS = ("vegetarian", "vegan", "gluten_free", "pescatarian", "keto", "paleo")

_STAPLES = {"Salt", "Black Pepper", "Olive Oil", "Butter", "Onion", "Garlic",
            "Vegetable Broth", "Sugar", "Honey"}


# ---------------------------------------------------------------------------
# Oracles: full catalogue scans on every ask
# ---------------------------------------------------------------------------
def _oracle_case_based(catalog, scenario, top_k: int = 5) -> Explanation:
    coach = HealthCoach(catalog)
    population = list(all_personas().values())
    recipe = (getattr(scenario.question, "recipe", "")
              or getattr(scenario.question, "primary", ""))
    items: List[ExplanationItem] = []
    if recipe:
        for profile, context in population:
            if profile.identifier == scenario.user.identifier:
                continue
            user = scenario.user
            similarity = (len(set(user.likes) & set(profile.likes))
                          + len(set(user.diets) & set(profile.diets))
                          + len(set(user.conditions) & set(profile.conditions))
                          + len(set(user.goals) & set(profile.goals)))
            if similarity == 0:
                continue
            matching = [rec for rec in coach.recommend(profile, context, top_k=top_k)
                        if rec.recipe == recipe]
            if matching:
                name = profile.name or profile.identifier
                items.append(ExplanationItem(
                    subject=name, role="case", characteristic_type="UserCharacteristic",
                    detail=(f"{name} (similarity {similarity}) was also recommended "
                            f"{recipe} at rank {matching[0].rank}"),
                    value=str(matching[0].rank),
                ))
    return Explanation(
        explanation_type="case_based", question=scenario.question, items=items,
        text=render_case_based(recipe or "this recipe", items),
        metadata={"population_size": len(population)},
    )


def _oracle_statistical(catalog, scenario) -> Explanation:
    total_recipes = len(catalog.recipes)
    query = f"{PREFIXES}\nSELECT (COUNT(?r) AS ?n) WHERE {{ ?r a food:Recipe . }}"
    rows = list(scenario.query(query))
    kg_total = (int(rows[0]["n"].value) if rows else 0) or total_recipes
    items: List[ExplanationItem] = []
    for diet in scenario.user.diets:
        count = sum(1 for r in catalog.recipes.values() if diet in r.diets)
        if count:
            share = round(100.0 * count / max(1, total_recipes))
            items.append(ExplanationItem(
                subject=diet, role="statistic", characteristic_type="DietCharacteristic",
                detail=(f"{count} of {total_recipes} catalogue recipes ({share}%) are "
                        f"suitable for the {humanize(diet)} diet."),
            ))
    season = scenario.context.season
    count = sum(1 for r in catalog.recipes.values()
                if season in catalog.recipe_seasons(r.name))
    if count:
        share = round(100.0 * count / max(1, total_recipes))
        items.append(ExplanationItem(
            subject=season, role="statistic", characteristic_type="SeasonCharacteristic",
            detail=(f"{count} of {total_recipes} recipes ({share}%) use at least one "
                    f"ingredient that is in season in {season}."),
        ))
    recipe_name = (getattr(scenario.question, "recipe", "")
                   or getattr(scenario.question, "primary", ""))
    if recipe_name and recipe_name in catalog.recipes:
        for ingredient in catalog.recipes[recipe_name].ingredients[:3]:
            containing = len(catalog.recipes_containing(ingredient))
            if containing > 1:
                items.append(ExplanationItem(
                    subject=ingredient, role="statistic",
                    characteristic_type="IngredientCharacteristic",
                    detail=(f"{ingredient} appears in {containing} of {total_recipes} "
                            f"catalogue recipes."),
                ))
    subject = recipe_name or (scenario.user.diets[0] if scenario.user.diets
                              else "the recommendation")
    return Explanation(
        explanation_type="statistical", question=scenario.question, items=items,
        text=render_statistical(subject, items), query=query,
        metadata={"kg_recipe_count": kg_total},
    )


def _oracle_pairings(catalog, food_name: str, max_pairings: int = 5) -> List[str]:
    counter: Counter = Counter()
    is_recipe = food_name in catalog.recipes
    anchors = set(catalog.recipes[food_name].ingredients) if is_recipe else {food_name}
    for recipe in catalog.recipes.values():
        if is_recipe and recipe.name == food_name:
            continue
        ingredients = set(recipe.ingredients)
        if anchors & ingredients or food_name in ingredients:
            for other in ingredients - anchors - {food_name}:
                if other not in _STAPLES:
                    counter[other] += 1
    ranked = sorted(counter.items(), key=lambda item: (-item[1], item[0]))
    return [name for name, _ in ranked[:max_pairings]]


def _oracle_everyday(catalog, scenario) -> Explanation:
    subject = (getattr(scenario.question, "recipe", "")
               or getattr(scenario.question, "primary", "")
               or getattr(scenario.question, "ingredient", ""))
    items = [ExplanationItem(
        subject=pairing, role="pairing", characteristic_type="IngredientCharacteristic",
        detail=f"{pairing} commonly appears alongside {subject} in recipes",
    ) for pairing in (_oracle_pairings(catalog, subject) if subject else [])]
    return Explanation(
        explanation_type="everyday", question=scenario.question, items=items,
        text=render_everyday(subject or "this food", items),
    )


ORACLES = {
    "case_based": _oracle_case_based,
    "statistical": _oracle_statistical,
    "everyday": _oracle_everyday,
}


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------
def _recommended(catalog) -> List[str]:
    """Recipes in some persona's top five: case-based answers name them."""
    coach = HealthCoach(catalog)
    return sorted({rec.recipe for profile, context in all_personas().values()
                   for rec in coach.recommend(profile, context)})


def _questions(catalog, rng: random.Random, recommended: List[str]) -> List[str]:
    recipes = sorted(catalog.recipes)
    first, second, third = rng.sample(recipes, 3)
    ingredient = rng.choice(sorted(catalog.recipes[third].ingredients))
    popular = rng.choice(recommended)
    return [
        "Why should I eat Cauliflower Potato Curry?",
        f"Why should I eat {popular}?",
        f"Why should I eat {popular} over {first}?",
        f"Why should I eat {first}?",
        f"Why should I eat {first} over {second}?",
        "Why should I eat Butternut Squash Soup over Broccoli Cheddar Soup?",
        "What if I was pregnant?",
        f"What if we changed {ingredient} in {third}?",
        f"What if we changed {ingredient}?",
    ]


def _scenarios(engine: ExplanationEngine, seed: int) -> List[Tuple[str, object]]:
    """(label, scenario) for every persona, plain and grown, over the questions."""
    catalog = engine.catalog
    rng = random.Random(seed)
    recommended = _recommended(catalog)
    recipes, ingredients = sorted(catalog.recipes), sorted(catalog.ingredients)
    out = []

    def ask(label, text, user, context):
        scenario = engine.build_scenario(parse_question(text), user, context)
        out.append((f"{label}: {text}", scenario))
        return scenario

    for key, (user, context) in all_personas().items():
        questions = _questions(catalog, rng, recommended)
        for text in questions:
            ask(key, text, user, context)
        for recipe in recommended:
            grown = ask(key, f"Why should I eat {recipe}?", user, context)
        # Grow the profile as live sessions do: one diet, like and allergy
        # per update, chained.
        diets = [d for d in GROWTH_DIETS if d not in user.diets]
        likes = [r for r in recipes if r not in user.likes]
        allergies = [i for i in ingredients if i not in user.allergies]
        for step, diet in enumerate(rng.sample(diets, 3)):
            grown = engine.update_scenario(
                grown, diets=(diet,), likes=(likes.pop(rng.randrange(len(likes))),),
                allergies=(allergies.pop(rng.randrange(len(allergies))),))
            out.append((f"{key} grown x{step + 1}: {grown.question.text}", grown))
        for text in questions[:5] + [f"Why should I eat {recipe}?"
                                     for recipe in rng.sample(recommended, 8)]:
            ask(f"{key} grown", text, grown.user, context)
    return out


# Engines of their own: the scenarios below fill and extend closure caches
# whose counters other suites read off the shared engine.
@pytest.fixture(scope="module")
def core_engine(catalog):
    return ExplanationEngine(catalog=catalog)


@pytest.fixture(scope="module")
def foodkg_engine():
    return ExplanationEngine(catalog=generate_catalog(**FOODKG_SIZE))


@pytest.fixture(scope="module", params=["core", "foodkg"])
def engine_and_scenarios(request, core_engine, foodkg_engine):
    chosen = core_engine if request.param == "core" else foodkg_engine
    return chosen, _scenarios(chosen, seed=len(chosen.catalog.recipes))


def _view(explanation: Explanation):
    return explanation.text, explanation.items, explanation.metadata


@pytest.mark.parametrize("name", GENERATORS)
def test_generator_matches_the_catalogue_scan(engine_and_scenarios, name):
    engine, scenarios = engine_and_scenarios
    generator = engine.generator(name)
    assert any(ORACLES[name](engine.catalog, s).items for _, s in scenarios)
    # Twice over: the first pass builds the aggregates, the second reads them.
    for _ in range(2):
        for label, scenario in scenarios:
            expected = ORACLES[name](engine.catalog, scenario)
            assert _view(generator.generate(scenario)) == _view(expected), label


def test_grown_profiles_differ_from_their_personas(engine_and_scenarios):
    _, scenarios = engine_and_scenarios
    baselines = {profile.identifier: profile for profile, _ in all_personas().values()}
    grown = [s for label, s in scenarios if " grown" in label]
    assert grown
    for scenario in grown:
        baseline = baselines[scenario.user.identifier]
        assert len(scenario.user.diets) > len(baseline.diets)
        assert len(scenario.user.likes) > len(baseline.likes)


def test_pairings_match_for_every_catalogue_name(engine_and_scenarios):
    engine, _ = engine_and_scenarios
    catalog = engine.catalog
    generator = engine.generator("everyday")
    names = sorted(set(catalog.recipes) | set(catalog.ingredients))
    for name in names + ["Unobtainium", "spinach"]:
        assert generator.pairings_for(name) == _oracle_pairings(catalog, name), name
    # The memo holds catalogue names only and hands out copies.
    assert set(generator._pairings) <= set(names)
    generator.pairings_for(names[0]).append("Mutated")
    assert generator.pairings_for(names[0]) == _oracle_pairings(catalog, names[0])


# ---------------------------------------------------------------------------
# Counters: each aggregate is derived once
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def fifty_scenarios(core_engine):
    """Fifty asks spread over every persona, plain and grown."""
    scenarios = [s for _, s in _scenarios(core_engine, seed=3)]
    return scenarios[::len(scenarios) // 50][:50]


def test_case_based_recommends_once_per_population_member(catalog, fifty_scenarios,
                                                          monkeypatch):
    calls: Dict[str, int] = Counter()
    recommend = HealthCoach.recommend

    def counting(self, user, context, top_k=5):
        calls[user.identifier] += 1
        return recommend(self, user, context, top_k=top_k)

    monkeypatch.setattr(HealthCoach, "recommend", counting)
    generator = CaseBasedExplanationGenerator(catalog)
    population = len(all_personas())
    for scenario in fifty_scenarios:
        generator.generate(scenario)
    assert 0 < sum(calls.values()) <= population
    assert max(calls.values()) == 1


def test_statistical_compiles_at_most_one_plan(catalog, fifty_scenarios):
    generator = StatisticalExplanationGenerator(catalog)
    before = planner_stats()["plans_compiled"]
    for scenario in fifty_scenarios:
        generator.generate(scenario)
    assert planner_stats()["plans_compiled"] - before <= 1

