"""The explanation engine: FEO's public facade.

:class:`ExplanationEngine` wires together everything a consumer-facing
application needs:

* the combined ontology (EO + food ontology + FEO) and the food knowledge
  graph, loaded once;
* the Health Coach substitute for producing recommendations;
* the scenario builder (assemble + reason) and the nine per-type
  explanation generators.

Typical use::

    engine = ExplanationEngine()
    user, context = paper_user(), paper_context()
    explanation = engine.ask("Why should I eat Cauliflower Potato Curry?", user, context)
    print(explanation.text)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import UnknownEntityError
from ..foodkg.catalog import build_core_catalog
from ..foodkg.schema import FoodCatalog
from ..recommender.health_coach import HealthCoach, Recommendation
from ..users.context import SystemContext
from ..users.profile import UserProfile
from .explanation import Explanation
from .generators import (
    CaseBasedExplanationGenerator,
    ContextualExplanationGenerator,
    ContrastiveExplanationGenerator,
    CounterfactualExplanationGenerator,
    EverydayExplanationGenerator,
    ScientificExplanationGenerator,
    SimulationExplanationGenerator,
    StatisticalExplanationGenerator,
    TraceBasedExplanationGenerator,
)
from .questions import (
    ContrastiveQuestion,
    Question,
    QuestionType,
    WhatIfConditionQuestion,
    WhatIfIngredientQuestion,
    WhyQuestion,
    parse_question,
)
from .scenario import Scenario, ScenarioBuilder

__all__ = ["ExplanationEngine"]

#: The explanation type the engine picks for each question type when the
#: caller does not request one explicitly (the paper's primary mapping).
DEFAULT_TYPE_FOR_QUESTION: Dict[QuestionType, str] = {
    QuestionType.WHY: "contextual",
    QuestionType.CONTRASTIVE: "contrastive",
    QuestionType.WHAT_IF_CONDITION: "counterfactual",
    QuestionType.WHAT_IF_INGREDIENT: "counterfactual",
}


class ExplanationEngine:
    """Generates FEO explanations for user questions about food recommendations.

    The catalogue is read-only once the engine is built: the builder's
    frozen base graph is loaded from it, and the generators cache
    aggregates derived from it on first use.
    """

    def __init__(
        self,
        catalog: Optional[FoodCatalog] = None,
        population: Optional[Sequence[Tuple[UserProfile, SystemContext]]] = None,
        builder: Optional[ScenarioBuilder] = None,
    ) -> None:
        if builder is not None:
            # An injected builder wins: a sharded service hands every shard
            # its own builder (own materialisation cache) over one shared
            # base graph, axiom index and base closure, so shards never
            # contend on a single closure cache.  The builder's catalog is
            # authoritative.
            self.catalog = builder.catalog
            self.builder = builder
        else:
            self.catalog = catalog if catalog is not None else build_core_catalog()
            self.builder = ScenarioBuilder(self.catalog)
        self.recommender = HealthCoach(self.catalog)
        self._generators = {
            "contextual": ContextualExplanationGenerator(),
            "contrastive": ContrastiveExplanationGenerator(),
            "counterfactual": CounterfactualExplanationGenerator(),
            "scientific": ScientificExplanationGenerator(self.catalog),
            "statistical": StatisticalExplanationGenerator(self.catalog),
            "case_based": CaseBasedExplanationGenerator(self.catalog, population=population),
            "trace_based": TraceBasedExplanationGenerator(),
            "everyday": EverydayExplanationGenerator(self.catalog),
            "simulation_based": SimulationExplanationGenerator(self.catalog),
        }

    # ------------------------------------------------------------------
    @property
    def supported_explanation_types(self) -> List[str]:
        """The explanation-type keys this engine can generate (Table I coverage)."""
        return sorted(self._generators)

    def generator(self, explanation_type: str):
        """Return the generator registered for ``explanation_type``.

        Raises :class:`~repro.errors.UnknownEntityError` (listing the supported
        types, and a ``KeyError`` subclass) for unknown keys.
        """
        try:
            return self._generators[explanation_type]
        except KeyError as exc:
            raise UnknownEntityError(
                f"Unknown explanation type {explanation_type!r}; "
                f"supported: {self.supported_explanation_types}"
            ) from exc

    # ------------------------------------------------------------------
    def build_scenario(
        self,
        question: Question,
        user: UserProfile,
        context: SystemContext,
        recommendation: Optional[Recommendation] = None,
    ) -> Scenario:
        """Assemble and reason over the scenario graph for ``question``."""
        return self.builder.build(question, user, context, recommendation)

    def update_scenario(self, scenario: Scenario, **additions) -> Scenario:
        """Incrementally grow a live scenario (new preferences, restrictions,
        recommendation) without re-materialising its closure.

        Keyword arguments are those of
        :meth:`repro.core.scenario.ScenarioBuilder.update_scenario`.
        """
        return self.builder.update_scenario(scenario, **additions)

    def explain(
        self,
        question: Question,
        user: UserProfile,
        context: SystemContext,
        explanation_type: Optional[str] = None,
        recommendation: Optional[Recommendation] = None,
        scenario: Optional[Scenario] = None,
    ) -> Explanation:
        """Produce an explanation for ``question``.

        ``explanation_type`` overrides the default mapping (e.g. ask for a
        scientific explanation of a why-question).  A pre-built ``scenario``
        can be supplied to amortise reasoning across several explanation
        types for the same question.
        """
        chosen_type = explanation_type or DEFAULT_TYPE_FOR_QUESTION[question.question_type]
        generator = self.generator(chosen_type)
        if scenario is None:
            scenario = self.build_scenario(question, user, context, recommendation)
        return generator.generate(scenario)

    def explain_all_types(
        self,
        question: Question,
        user: UserProfile,
        context: SystemContext,
        recommendation: Optional[Recommendation] = None,
    ) -> Dict[str, Explanation]:
        """Generate every supported explanation type for one question."""
        scenario = self.build_scenario(question, user, context, recommendation)
        return {
            name: generator.generate(scenario)
            for name, generator in sorted(self._generators.items())
        }

    def ask(
        self,
        question_text: str,
        user: UserProfile,
        context: SystemContext,
        explanation_type: Optional[str] = None,
    ) -> Explanation:
        """Parse a natural-language question and explain it."""
        question = parse_question(question_text)
        return self.explain(question, user, context, explanation_type=explanation_type)

    # ------------------------------------------------------------------
    # Convenience wrappers for the three paper competency questions
    # ------------------------------------------------------------------
    def contextual(self, recipe: str, user: UserProfile, context: SystemContext) -> Explanation:
        """CQ1: 'Why should I eat <recipe>?'"""
        question = WhyQuestion(text=f"Why should I eat {recipe}?", recipe=recipe)
        return self.explain(question, user, context, explanation_type="contextual")

    def contrastive(self, primary: str, secondary: str,
                    user: UserProfile, context: SystemContext) -> Explanation:
        """CQ2: 'Why should I eat <primary> over <secondary>?'"""
        question = ContrastiveQuestion(
            text=f"Why should I eat {primary} over {secondary}?",
            primary=primary, secondary=secondary,
        )
        return self.explain(question, user, context, explanation_type="contrastive")

    def counterfactual_condition(self, condition: str,
                                 user: UserProfile, context: SystemContext) -> Explanation:
        """CQ3: 'What if I was <condition>?'"""
        question = WhatIfConditionQuestion(
            text=f"What if I was {condition.replace('_', ' ')}?", condition=condition,
        )
        return self.explain(question, user, context, explanation_type="counterfactual")

    # ------------------------------------------------------------------
    def recommend_and_explain(
        self,
        user: UserProfile,
        context: SystemContext,
        top_k: int = 3,
        explanation_type: str = "contextual",
    ) -> List[Tuple[Recommendation, Explanation]]:
        """Run the Health Coach and explain each of its top recommendations."""
        out: List[Tuple[Recommendation, Explanation]] = []
        for recommendation in self.recommender.recommend(user, context, top_k=top_k):
            question = WhyQuestion(
                text=f"Why should I eat {recommendation.recipe}?",
                recipe=recommendation.recipe,
            )
            explanation = self.explain(
                question, user, context,
                explanation_type=explanation_type, recommendation=recommendation,
            )
            out.append((recommendation, explanation))
        return out
