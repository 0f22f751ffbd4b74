"""Scenario assembly: ontology + knowledge graph + user + system + question.

The paper's pipeline materialises a single RDF graph containing the FEO
schema, the food knowledge graph, the user's profile, the system's
context, and the question being asked — then runs the reasoner and queries
the inferred graph.  :class:`ScenarioBuilder` performs that assembly.

The ontology and the food knowledge graph are loaded once and shared
between scenarios; each :meth:`ScenarioBuilder.build` call copies them and
adds the scenario-specific individuals.  The shared base is also *reasoned*
once: the builder's :class:`~repro.owl.closure.BaseClosure` closes it on
the first closure miss and freezes the result, and every scenario closure
is a COW copy of that closure grown with the scenario's ~20 asserted
triples by :meth:`~repro.owl.reasoner.Reasoner.extend`, not a full
reasoning pass over the ontology + knowledge graph again.  Builders made
by :meth:`ScenarioBuilder.fork` (one per shard) share the base graph, its
axiom index and its closure.  A builder cold-started from a snapshot is
handed the snapshot's stored base closure and never reasons the base.

Closures go through a per-builder
:class:`~repro.owl.closure.MaterializationCache`: an identical request
(same user, context, question and recommendation) assembles a
triple-identical graph, whose fingerprint hits the cache and skips the
reasoner entirely.  This is what makes repeated and batched requests
served by :class:`repro.service.ExplanationService` cheap.

Live scenarios can also be **mutated incrementally**:
:meth:`ScenarioBuilder.update_scenario` adds restrictions, preferences or a
recommendation to an existing scenario, captures the delta with a
:class:`~repro.rdf.graph.ChangeJournal`, and grows the cached closure via
the cache's incremental :meth:`~repro.owl.closure.MaterializationCache.extend`
path instead of re-materialising the whole graph.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import UnknownEntityError
from ..foodkg.loader import FoodKGLoader
from ..foodkg.schema import FoodCatalog, slugify
from ..ontology import eo, feo, food
from ..owl import BaseClosure, MaterializationCache, Reasoner
from ..rdf.graph import Graph, Triple
from ..rdf.namespace import FEO, FOODKG, RDFS
from ..rdf.terms import IRI, Literal
from ..recommender.health_coach import Recommendation
from ..users.context import SystemContext
from ..users.profile import UserProfile
from .facts_foils import annotate_facts_and_foils
from .questions import (
    ContrastiveQuestion,
    Question,
    WhatIfConditionQuestion,
    WhatIfIngredientQuestion,
    WhyQuestion,
)

__all__ = ["Scenario", "ScenarioBuilder"]

_RDF_TYPE = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
_RDFS_LABEL = IRI(RDFS.label)


@dataclass(frozen=True)
class Scenario:
    """A fully assembled and reasoned explanation scenario.

    Immutable, graphs included (they are frozen on construction), so
    caches share one scenario with every read and updates build a new one.
    """

    question: Question
    question_iri: IRI
    user_iri: IRI
    system_iri: IRI
    ecosystem_iri: IRI
    asserted: Graph
    inferred: Graph
    user: UserProfile
    context: SystemContext
    recommendation: Optional[Recommendation] = None
    parameter_iris: Tuple[IRI, ...] = ()
    #: Custom data triples accumulated via update_scenario(extra_triples=...);
    #: carried so a later rebuild (e.g. a recommendation swap) can re-apply
    #: them instead of silently dropping facts the builder cannot re-derive.
    extra_triples: Tuple[Triple, ...] = ()

    def __post_init__(self) -> None:
        self.asserted.freeze()
        self.inferred.freeze()

    def query(self, sparql_text: str):
        """Run SPARQL over the inferred (post-reasoning) graph."""
        return self.inferred.query(sparql_text)

    def snapshot(self) -> "Scenario":
        """A read view of this scenario: itself, since published graphs are frozen."""
        return self


class ScenarioBuilder:
    """Builds reasoned scenario graphs for questions."""

    def __init__(
        self,
        catalog: FoodCatalog,
        base_graph: Optional[Graph] = None,
        closure_cache: Optional[MaterializationCache] = None,
        use_closure_cache: bool = True,
        base_closure: Optional[Graph] = None,
    ) -> None:
        self.catalog = catalog
        self.loader = FoodKGLoader()
        if base_graph is not None:
            self._base = base_graph
        else:
            self._base = feo.build_combined_ontology()
            self.loader.graph = self._base
            self.loader.load(catalog)
        # Freezes the base and extracts its axiom index once.  The base
        # closure is ``base_closure`` when given (a snapshot's stored
        # closure of ``base_graph``), else reasoned on the first miss.
        self._base_closure = BaseClosure(self._base, closure=base_closure)
        if closure_cache is not None:
            self.closure_cache: Optional[MaterializationCache] = closure_cache
        else:
            self.closure_cache = MaterializationCache() if use_closure_cache else None

    def fork(self, closure_cache: MaterializationCache) -> "ScenarioBuilder":
        """A builder over this one's base graph, axiom index and base
        closure, with its own closure cache (one per shard)."""
        twin = copy.copy(self)
        twin.closure_cache = closure_cache
        return twin

    def store_stats(self) -> Dict[str, int]:
        """Storage-engine counters for the shared base graph family.

        Every scenario graph is a :meth:`Graph.copy` of the base, so the
        base dictionary's interning counters describe the whole family:
        cached closures and incremental extensions reuse these IDs instead
        of re-encoding the ontology + knowledge graph per scenario.
        """
        return self._base.store_stats()

    # ------------------------------------------------------------------
    # IRI minting
    # ------------------------------------------------------------------
    def user_iri(self, user: UserProfile) -> IRI:
        return IRI(FOODKG["user/" + slugify(user.identifier)])

    def system_iri(self, context: SystemContext) -> IRI:
        return IRI(FOODKG["system/" + slugify(context.system_name)])

    def ecosystem_iri(self, user: UserProfile, context: SystemContext) -> IRI:
        return IRI(FOODKG["ecosystem/" + slugify(user.identifier)])

    def question_iri(self, question: Question) -> IRI:
        return IRI(FEO[question.local_name()])

    def food_iri(self, name: str) -> IRI:
        """IRI of a recipe or ingredient named in a profile or question."""
        return self.loader.food_iri(self.catalog, name)

    def _food_or_label_iri(self, name: str) -> IRI:
        try:
            return self.food_iri(name)
        except KeyError:
            # Unknown foods (e.g. free-text likes) still get an IRI so the
            # profile is fully represented; they simply carry no KG structure.
            return IRI(FOODKG[slugify(name)])

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def build(
        self,
        question: Question,
        user: UserProfile,
        context: SystemContext,
        recommendation: Optional[Recommendation] = None,
        run_reasoner: bool = True,
    ) -> Scenario:
        """Assemble, reason over and annotate the scenario for ``question``."""
        graph, user_iri, system_iri, ecosystem_iri, question_iri, parameters = \
            self._assemble(question, user, context, recommendation)

        if run_reasoner:
            if self.closure_cache is not None:
                # Identical requests assemble triple-identical graphs, so the
                # fingerprint-keyed cache skips re-materialisation.  The
                # fact/foil annotation runs as the cache's post-process: it
                # lands in the closure before the entry is published, so
                # cache hits share a fully-annotated, read-only graph.
                inferred = self.closure_cache.materialize(
                    graph,
                    reasoner_factory=self._base_closure.reasoner,
                    post_process=lambda closure: annotate_facts_and_foils(
                        closure, ecosystem_iri),
                )
            else:
                inferred = self._base_closure.reasoner(graph).run()
                annotate_facts_and_foils(inferred, ecosystem_iri)
        else:
            inferred = graph

        return Scenario(
            question=question,
            question_iri=question_iri,
            user_iri=user_iri,
            system_iri=system_iri,
            ecosystem_iri=ecosystem_iri,
            asserted=graph,
            inferred=inferred,
            user=user,
            context=context,
            recommendation=recommendation,
            parameter_iris=tuple(parameters),
        )

    def _assemble(
        self,
        question: Question,
        user: UserProfile,
        context: SystemContext,
        recommendation: Optional[Recommendation],
    ) -> Tuple[Graph, IRI, IRI, IRI, IRI, Dict[str, IRI]]:
        """Assemble the asserted scenario graph (no reasoning).

        Returns the graph plus the minted IRIs and question parameters
        :meth:`build` needs to construct the :class:`Scenario`.
        """
        graph = self._base.copy()
        user_iri = self.user_iri(user)
        system_iri = self.system_iri(context)
        ecosystem_iri = self.ecosystem_iri(user, context)

        self._assert_user(graph, user_iri, user)
        self._assert_system(graph, system_iri, context)
        self._assert_ecosystem(graph, ecosystem_iri, user_iri, system_iri)
        question_iri, parameters = self._assert_question(graph, question, user_iri)
        if recommendation is not None:
            self._assert_recommendation(graph, recommendation, system_iri, question_iri)
        return graph, user_iri, system_iri, ecosystem_iri, question_iri, parameters


    # ------------------------------------------------------------------
    # Incremental mutation
    # ------------------------------------------------------------------
    def update_scenario(
        self,
        scenario: Scenario,
        *,
        likes: Sequence[str] = (),
        dislikes: Sequence[str] = (),
        allergies: Sequence[str] = (),
        diets: Sequence[str] = (),
        conditions: Sequence[str] = (),
        goals: Sequence[str] = (),
        recommendation: Optional[Recommendation] = None,
        extra_triples: Iterable[Triple] = (),
    ) -> Scenario:
        """Return a new scenario with the additions applied incrementally.

        The input ``scenario`` (its graphs included) is left untouched: the
        asserted graph is copied, the new facts are asserted under a
        :class:`~repro.rdf.graph.ChangeJournal`, and the captured delta is
        folded into the existing closure through the cache's incremental
        :meth:`~repro.owl.closure.MaterializationCache.extend` path — the
        result is triple-identical to a from-scratch rebuild with the grown
        profile, at a cost proportional to the delta's consequences.

        ``extra_triples`` admits arbitrary additional *data* triples; schema
        axioms are rejected because they would invalidate the builder's
        shared axiom index for every later scenario (rebuild instead).
        """
        user = self._grow_profile(
            scenario.user, likes=likes, dislikes=dislikes, allergies=allergies,
            diets=diets, conditions=conditions, goals=goals)
        if recommendation is not None and scenario.recommendation is not None \
                and recommendation != scenario.recommendation:
            # Replacing a recommendation is a retraction, which the
            # monotone incremental path cannot express: rebuild instead so
            # the old recommendation's triples actually disappear, then fold
            # the scenario's accumulated extra triples (plus any new ones)
            # back in incrementally.
            rebuilt = self.build(scenario.question, user, scenario.context,
                                 recommendation=recommendation)
            carried = scenario.extra_triples + tuple(extra_triples)
            if carried:
                return self.update_scenario(rebuilt, extra_triples=carried)
            return rebuilt
        base_fingerprint = scenario.asserted.fingerprint()
        graph = scenario.asserted.copy()
        with graph.start_journal() as journal:
            self._assert_profile_facts(
                graph, scenario.user_iri, likes=likes, dislikes=dislikes,
                allergies=allergies, diets=diets, conditions=conditions,
                goals=goals)
            if recommendation is not None:
                self._assert_recommendation(
                    graph, recommendation, scenario.system_iri, scenario.question_iri)
            graph.addN(extra_triples)
            added = journal.added()
        schema = [triple for triple in added if Reasoner._is_schema_triple(triple)]
        if schema:
            raise ValueError(
                f"update_scenario only accepts data triples; {schema[0]} is a "
                "schema axiom — build a new scenario (and builder) instead"
            )

        ecosystem_iri = scenario.ecosystem_iri
        if self.closure_cache is not None:
            inferred = self.closure_cache.extend(
                graph, base_fingerprint, added,
                reasoner_factory=self._base_closure.reasoner,
                post_process=lambda closure: annotate_facts_and_foils(
                    closure, ecosystem_iri),
            )
        else:
            # Without a cache there is no record of which closure triples are
            # closed-world annotations, so close the grown graph afresh (from
            # the base closure, like any miss).
            inferred = self._base_closure.reasoner(graph).run()
            annotate_facts_and_foils(inferred, ecosystem_iri)

        return Scenario(
            question=scenario.question,
            question_iri=scenario.question_iri,
            user_iri=scenario.user_iri,
            system_iri=scenario.system_iri,
            ecosystem_iri=ecosystem_iri,
            asserted=graph,
            inferred=inferred,
            user=user,
            context=scenario.context,
            recommendation=recommendation if recommendation is not None else scenario.recommendation,
            parameter_iris=scenario.parameter_iris,
            extra_triples=scenario.extra_triples + tuple(extra_triples),
        )

    @staticmethod
    def _grow_profile(
        user: UserProfile,
        *,
        likes: Sequence[str],
        dislikes: Sequence[str],
        allergies: Sequence[str],
        diets: Sequence[str],
        conditions: Sequence[str],
        goals: Sequence[str],
    ) -> UserProfile:
        """The profile after the additions (validated by UserProfile itself)."""

        def merge(existing: Tuple[str, ...], new: Sequence[str]) -> Tuple[str, ...]:
            return existing + tuple(n for n in new if n not in existing)

        return replace(
            user,
            likes=merge(user.likes, likes),
            dislikes=merge(user.dislikes, dislikes),
            allergies=merge(user.allergies, allergies),
            diets=merge(user.diets, diets),
            conditions=merge(user.conditions, conditions),
            goals=merge(user.goals, goals),
        )

    # ------------------------------------------------------------------
    def _assert_user(self, graph: Graph, user_iri: IRI, user: UserProfile) -> None:
        graph.add((user_iri, _RDF_TYPE, food.User))
        graph.add((user_iri, _RDFS_LABEL, Literal(user.name or user.identifier, language="en")))
        self._assert_profile_facts(
            graph, user_iri, likes=user.likes, dislikes=user.dislikes,
            allergies=user.allergies, diets=user.diets,
            conditions=user.conditions, goals=user.goals)
        if user.budget:
            graph.add((user_iri, feo.hasBudget, feo.BUDGET_LEVELS[user.budget]))

    def _assert_profile_facts(
        self,
        graph: Graph,
        user_iri: IRI,
        *,
        likes: Sequence[str] = (),
        dislikes: Sequence[str] = (),
        allergies: Sequence[str] = (),
        diets: Sequence[str] = (),
        conditions: Sequence[str] = (),
        goals: Sequence[str] = (),
    ) -> None:
        """Assert one slice of profile facts (shared by build and update)."""
        for name in likes:
            graph.add((user_iri, feo.likes, self._food_or_label_iri(name)))
        for name in dislikes:
            graph.add((user_iri, feo.dislikes, self._food_or_label_iri(name)))
        for name in allergies:
            graph.add((user_iri, feo.allergicTo, self._food_or_label_iri(name)))
        for diet in diets:
            graph.add((user_iri, feo.followsDiet, self.loader.diet_iri(diet)))
        for condition in conditions:
            condition_iri = feo.HEALTH_CONDITIONS.get(condition)
            if condition_iri is not None:
                graph.add((user_iri, feo.hasCondition, condition_iri))
        for goal in goals:
            goal_iri = feo.NUTRITIONAL_GOALS.get(goal)
            if goal_iri is not None:
                graph.add((user_iri, feo.hasGoal, goal_iri))

    def _assert_system(self, graph: Graph, system_iri: IRI, context: SystemContext) -> None:
        graph.add((system_iri, _RDF_TYPE, feo.RecommenderSystem))
        graph.add((system_iri, _RDFS_LABEL, Literal(context.system_name, language="en")))
        graph.add((system_iri, feo.currentSeason, feo.SEASONS[context.season]))
        region_iri = self.loader.region_iri(context.region)
        graph.add((region_iri, _RDF_TYPE, feo.LocationCharacteristic))
        graph.add((system_iri, feo.locatedIn, region_iri))
        if context.meal_time:
            graph.add((system_iri, feo.currentMealTime, feo.MEAL_TIMES[context.meal_time]))
        if context.budget:
            graph.add((system_iri, feo.hasBudget, feo.BUDGET_LEVELS[context.budget]))

    def _assert_ecosystem(self, graph: Graph, ecosystem_iri: IRI, user_iri: IRI, system_iri: IRI) -> None:
        graph.add((ecosystem_iri, _RDF_TYPE, feo.Ecosystem))
        graph.add((ecosystem_iri, feo.hasUser, user_iri))
        graph.add((ecosystem_iri, feo.hasSystem, system_iri))

    def _assert_question(self, graph: Graph, question: Question, user_iri: IRI):
        question_iri = self.question_iri(question)
        graph.add((question_iri, _RDFS_LABEL, Literal(question.text, language="en")))
        graph.add((question_iri, feo.askedBy, user_iri))
        parameters: List[IRI] = []

        if isinstance(question, WhyQuestion):
            graph.add((question_iri, _RDF_TYPE, feo.WhyQuestion))
            parameter = self.food_iri(question.recipe)
            graph.add((question_iri, feo.hasParameter, parameter))
            parameters.append(parameter)
        elif isinstance(question, ContrastiveQuestion):
            graph.add((question_iri, _RDF_TYPE, feo.ContrastiveQuestion))
            primary = self.food_iri(question.primary)
            secondary = self.food_iri(question.secondary)
            graph.add((question_iri, feo.hasPrimaryParameter, primary))
            graph.add((question_iri, feo.hasSecondaryParameter, secondary))
            parameters.extend([primary, secondary])
        elif isinstance(question, WhatIfConditionQuestion):
            graph.add((question_iri, _RDF_TYPE, feo.WhatIfQuestion))
            condition_iri = feo.HEALTH_CONDITIONS.get(question.condition)
            if condition_iri is None:
                raise UnknownEntityError(f"Unknown health condition {question.condition!r}")
            graph.add((question_iri, feo.hasHypothetical, condition_iri))
            parameters.append(condition_iri)
        elif isinstance(question, WhatIfIngredientQuestion):
            graph.add((question_iri, _RDF_TYPE, feo.WhatIfQuestion))
            ingredient_iri = self.food_iri(question.ingredient)
            graph.add((question_iri, feo.hasHypothetical, ingredient_iri))
            parameters.append(ingredient_iri)
            if question.recipe:
                recipe_iri = self.food_iri(question.recipe)
                graph.add((question_iri, feo.hasParameter, recipe_iri))
                parameters.append(recipe_iri)
        else:  # pragma: no cover - all Question subclasses handled above
            raise TypeError(f"Unsupported question type: {type(question).__name__}")
        return question_iri, parameters

    def _assert_recommendation(
        self,
        graph: Graph,
        recommendation: Recommendation,
        system_iri: IRI,
        question_iri: IRI,
    ) -> None:
        rec_iri = IRI(FOODKG["recommendation/" + slugify(recommendation.recipe)])
        graph.add((rec_iri, _RDF_TYPE, eo.SystemRecommendation))
        graph.add((rec_iri, eo.generatedBy, system_iri))
        graph.add((rec_iri, eo.inRelationTo, self.food_iri(recommendation.recipe)))
        graph.add((question_iri, feo.aboutRecommendation, rec_iri))
