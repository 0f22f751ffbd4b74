"""Tests for the serving layer: caches, sessions and the ExplanationService."""

from __future__ import annotations

import pytest

from repro.core.engine import ExplanationEngine
from repro.core.queries import contextual_template, contrastive_template
from repro.core.scenario import ScenarioBuilder
from repro.owl import MaterializationCache, Reasoner
from repro.rdf.graph import Graph
from repro.rdf.namespace import FEO
from repro.rdf.terms import IRI
from repro.service import ExplanationRequest, ExplanationService
from repro.sparql import PreparedQueryCache, prepare_cached, prepared_cache
from repro.users.personas import paper_context, paper_user, persona
from repro.users.sessions import SessionRegistry


def _triple(n: int):
    return (IRI(f"urn:s{n}"), IRI("urn:p"), IRI(f"urn:o{n}"))


class TestGraphFingerprint:
    def test_equal_content_equal_fingerprint(self):
        a, b = Graph(), Graph()
        for graph in (a, b):
            graph.add(_triple(1))
            graph.add(_triple(2))
        assert a.fingerprint() == b.fingerprint()

    def test_insertion_order_is_irrelevant(self):
        a, b = Graph(), Graph()
        a.add(_triple(1)).add(_triple(2))
        b.add(_triple(2)).add(_triple(1))
        assert a.fingerprint() == b.fingerprint()

    def test_mutation_changes_and_reverting_restores(self):
        graph = Graph().add(_triple(1))
        before = graph.fingerprint()
        graph.add(_triple(2))
        assert graph.fingerprint() != before
        graph.remove(_triple(2))
        assert graph.fingerprint() == before

    def test_duplicate_add_is_a_noop(self):
        graph = Graph().add(_triple(1))
        before = graph.fingerprint()
        graph.add(_triple(1))
        assert graph.fingerprint() == before

    def test_copy_preserves_fingerprint(self):
        graph = Graph().add(_triple(1)).add(_triple(2))
        assert graph.copy().fingerprint() == graph.fingerprint()

    def test_clear_resets(self):
        graph = Graph().add(_triple(1))
        graph.clear()
        assert graph.fingerprint() == Graph().fingerprint()


class TestPreparedQueryCache:
    def test_hit_returns_same_prepared_object(self):
        cache = PreparedQueryCache()
        text = contextual_template()
        first = cache.get(text)
        second = cache.get(text)
        assert first is second
        assert cache.stats() == {"size": 1, "hits": 1, "misses": 1}

    def test_distinct_texts_are_distinct_entries(self):
        cache = PreparedQueryCache()
        assert cache.get(contextual_template()) is not cache.get(contrastive_template())
        assert len(cache) == 2

    def test_lru_eviction(self):
        cache = PreparedQueryCache(max_size=2)
        q1 = "SELECT ?s WHERE { ?s ?p1 ?o . }"
        q2 = "SELECT ?s WHERE { ?s ?p2 ?o . }"
        q3 = "SELECT ?s WHERE { ?s ?p3 ?o . }"
        first = cache.get(q1)
        cache.get(q2)
        cache.get(q3)  # evicts q1
        assert len(cache) == 2
        assert cache.get(q1) is not first  # re-parsed after eviction

    def test_module_level_cache_is_shared(self):
        text = "SELECT ?s WHERE { ?s a ?cls . }"
        assert prepare_cached(text) is prepare_cached(text)
        assert prepared_cache().stats()["size"] >= 1

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            PreparedQueryCache(max_size=0)


class TestMaterializationCache:
    def _graph(self):
        graph = Graph()
        subclassof = IRI("http://www.w3.org/2000/01/rdf-schema#subClassOf")
        rdf_type = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        graph.add((IRI("urn:Dog"), subclassof, IRI("urn:Animal")))
        graph.add((IRI("urn:rex"), rdf_type, IRI("urn:Dog")))
        return graph

    def test_hit_skips_reasoning_and_shares_the_closure(self):
        cache = MaterializationCache()
        graph = self._graph()
        first = cache.materialize(graph)
        second = cache.materialize(graph)
        assert first is second
        assert cache.stats() == {"size": 1, "hits": 1, "misses": 1,
                                 "extensions": 0, "single_flight_waits": 0}
        # The closure is a real materialisation.
        rdf_type = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        assert (IRI("urn:rex"), rdf_type, IRI("urn:Animal")) in first

    def test_matches_uncached_reasoner_output(self):
        graph = self._graph()
        assert set(MaterializationCache().materialize(graph)) == set(Reasoner(graph).run())

    def test_mutation_invalidates_via_fingerprint(self):
        cache = MaterializationCache()
        graph = self._graph()
        cache.materialize(graph)
        graph = graph.copy().add(_triple(9))
        cache.materialize(graph)
        assert cache.stats()["misses"] == 2

    def test_copy_of_cached_closure_is_private_and_mutable(self):
        cache = MaterializationCache()
        graph = self._graph()
        shared = cache.materialize(graph)
        fingerprint = shared.fingerprint()
        private = shared.copy()
        assert private is not shared and private == shared
        assert not private.frozen
        private.add(_triple(9))
        assert shared.fingerprint() == fingerprint
        assert cache.materialize(graph) is shared

    def test_every_path_returns_a_frozen_closure(self):
        cache = MaterializationCache()
        graph = self._graph()
        base_fingerprint = graph.fingerprint()
        miss = cache.materialize(graph)
        hit = cache.materialize(graph)
        grown = graph.copy().add(_triple(9))
        extended = cache.extend(grown, base_fingerprint, [_triple(9)])
        installed_source = self._graph().add(_triple(5))
        installed = Reasoner(installed_source).run()
        cache.install(installed_source, installed)
        assert cache.stats()["misses"] == 1 and cache.stats()["extensions"] == 1
        for closure in (miss, hit, extended, installed):
            assert closure.frozen
        # The asserted graphs are published too, so they freeze with them.
        assert graph.frozen and grown.frozen and installed_source.frozen

    def test_export_entries_hands_out_the_published_graphs(self):
        cache = MaterializationCache()
        graph = self._graph()
        closure = cache.materialize(graph)
        [(asserted, exported, post_added)] = cache.export_entries()
        assert asserted is graph and exported is closure and post_added == ()

    def test_lru_bound(self):
        cache = MaterializationCache(max_size=1)
        g1, g2 = self._graph(), self._graph().add(_triple(5))
        cache.materialize(g1)
        cache.materialize(g2)
        assert len(cache) == 1
        cache.materialize(g1)  # evicted above -> re-reasons
        assert cache.stats()["misses"] == 3

    def test_post_process_runs_once_before_publication(self):
        cache = MaterializationCache()
        graph = self._graph()
        marker = (IRI("urn:marker"), IRI("urn:p"), IRI("urn:done"))
        calls = []

        def post(closure):
            calls.append(1)
            closure.add(marker)

        first = cache.materialize(graph, post_process=post)
        second = cache.materialize(graph, post_process=post)
        assert first is second
        assert marker in first
        assert calls == [1]  # a hit never re-runs (or observes partial) post-processing

    def test_explicit_invalidate(self):
        cache = MaterializationCache()
        graph = self._graph()
        cache.materialize(graph)
        assert cache.invalidate(graph) is True
        assert cache.invalidate(graph) is False


class TestMaterializationCacheExtension:
    """The incremental (extend) path of the closure cache."""

    def _graph(self):
        graph = Graph()
        subclassof = IRI("http://www.w3.org/2000/01/rdf-schema#subClassOf")
        rdf_type = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        graph.add((IRI("urn:Dog"), subclassof, IRI("urn:Animal")))
        graph.add((IRI("urn:rex"), rdf_type, IRI("urn:Dog")))
        return graph

    def _delta(self):
        rdf_type = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        return [(IRI("urn:bella"), rdf_type, IRI("urn:Dog"))]

    def test_extend_matches_full_materialisation(self):
        cache = MaterializationCache()
        graph = self._graph()
        base_fingerprint = graph.fingerprint()
        cache.materialize(graph)
        delta = self._delta()
        graph = graph.copy().addN(delta)
        extended = cache.extend(graph, base_fingerprint, delta)
        assert set(extended) == set(Reasoner(graph).run())
        assert cache.stats()["extensions"] == 1

    def test_extend_does_not_mutate_the_shared_base_closure(self):
        cache = MaterializationCache()
        graph = self._graph()
        base_fingerprint = graph.fingerprint()
        base_closure = cache.materialize(graph)
        snapshot = set(base_closure)
        fingerprint = base_closure.fingerprint()
        graph = graph.copy().addN(self._delta())
        extended = cache.extend(graph, base_fingerprint, self._delta())
        assert extended is not base_closure
        assert set(base_closure) == snapshot
        assert base_closure.fingerprint() == fingerprint

    def test_extend_falls_back_to_full_materialisation_without_base(self):
        cache = MaterializationCache()
        graph = self._graph()
        missing_fingerprint = (0, 0)
        delta = self._delta()
        graph.addN(delta)
        closure = cache.extend(graph, missing_fingerprint, delta)
        assert set(closure) == set(Reasoner(graph).run())
        assert cache.stats()["misses"] == 1 and cache.stats()["extensions"] == 0

    def test_extend_on_cached_target_is_a_plain_hit(self):
        cache = MaterializationCache()
        graph = self._graph()
        base_fingerprint = graph.fingerprint()
        cache.materialize(graph)
        delta = self._delta()
        graph = graph.copy().addN(delta)
        first = cache.extend(graph, base_fingerprint, delta)
        second = cache.extend(graph, base_fingerprint, delta)
        assert first is second
        assert cache.stats()["hits"] == 1 and cache.stats()["extensions"] == 1

    def test_extend_reruns_post_process_on_the_extended_closure(self):
        """Annotations are stripped, the delta reasoned in, the pass re-run."""
        cache = MaterializationCache()
        graph = self._graph()
        base_fingerprint = graph.fingerprint()
        rdf_type = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        annotation_class = IRI("urn:Seen")

        def post(closure):
            # Closed-world pass: tag every Dog instance (not OWL-derivable).
            for dog in list(closure.subjects(rdf_type, IRI("urn:Dog"))):
                closure.add((dog, rdf_type, annotation_class))

        cache.materialize(graph, post_process=post)
        delta = self._delta()
        graph = graph.copy().addN(delta)
        extended = cache.extend(graph, base_fingerprint, delta, post_process=post)
        assert (IRI("urn:rex"), rdf_type, annotation_class) in extended
        assert (IRI("urn:bella"), rdf_type, annotation_class) in extended
        # The extension result must be exactly full-reason + fresh post-pass.
        expected = Reasoner(graph).run()
        post(expected)
        assert set(extended) == set(expected)


class TestServiceScenarioUpdates:
    """End-to-end: closure-cache hits stay annotated, updates stay incremental."""

    @pytest.fixture()
    def service(self, engine):
        return ExplanationService(engine=engine)

    def test_closure_cache_hit_serves_annotated_facts_and_foils(self, service):
        from repro.ontology import eo

        question = "Why should I eat Cauliflower Potato Curry?"
        first = service.ask(question, persona="paper")
        hits_before = service.stats().closure_cache.get("hits", 0)
        # A second session of the same persona assembles a triple-identical
        # graph: the closure cache hit must still expose the fact/foil types
        # the post-process pass wrote before publication.
        second = service.ask(question, persona="paper")
        assert service.stats().closure_cache.get("hits", 0) >= hits_before
        assert first.explanation.text == second.explanation.text
        key = next(iter(service._scenarios))
        scenario = service._scenarios[key]
        rdf_type = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        assert list(scenario.inferred.triples((None, rdf_type, eo.Fact)))

    def test_update_scenario_is_differentially_correct(self, service):
        from repro.core.facts_foils import annotate_facts_and_foils
        from repro.owl import Reasoner as FreshReasoner

        question = "Why should I eat Cauliflower Potato Curry?"
        service.ask(question, persona="paper")
        updated = service.update_scenario(
            question, persona="paper", allergies=("dairy",), conditions=("diabetes",))
        assert "dairy" in updated.user.allergies
        assert "diabetes" in updated.user.conditions
        # The incremental closure must be triple-identical to reasoning the
        # grown asserted graph from scratch and re-annotating.
        fresh = FreshReasoner(updated.asserted).run()
        annotate_facts_and_foils(fresh, updated.ecosystem_iri)
        assert set(updated.inferred) == set(fresh)
        assert service.stats().scenario_updates == 1
        assert service.stats().closure_cache.get("extensions", 0) == 1

    def test_update_scenario_leaves_the_shared_closure_untouched(self, service):
        question = "Why should I eat Cauliflower Potato Curry?"
        response = service.ask(question, persona="paper")
        original = next(iter(service._scenarios.values()))
        inferred_before = original.inferred.fingerprint()
        asserted_before = original.asserted.fingerprint()
        service.update_scenario(question, persona="paper", likes=("Sushi",))
        # Another session still sharing the original cached closure must not
        # observe the mutation.
        assert original.inferred.fingerprint() == inferred_before
        assert original.asserted.fingerprint() == asserted_before
        repeat = service.ask(question, persona="paper")
        assert repeat.explanation.text == response.explanation.text

    def test_update_scenario_advances_the_session_profile(self, service):
        session = service.open_persona_session("paper")
        question = "Why should I eat Cauliflower Potato Curry?"
        service.ask(question, session_id=session.session_id)
        service.update_scenario(question, session_id=session.session_id,
                                goals=("high_fiber",))
        assert "high_fiber" in session.user.goals
        # The follow-up ask under the grown profile hits the updated entry.
        follow_up = service.ask(question, session_id=session.session_id)
        assert follow_up.scenario_cache_hit

    def test_update_scenario_rejects_unknown_restrictions(self, service):
        question = "Why should I eat Cauliflower Potato Curry?"
        service.ask(question, persona="paper")
        with pytest.raises(ValueError):
            service.update_scenario(question, persona="paper",
                                    conditions=("square_wheels",))

    def test_update_scenario_rejects_schema_extra_triples(self, service):
        """Schema axioms would invalidate the builder's shared axiom index."""
        from repro.core.questions import parse_question
        from repro.owl.vocabulary import RDFS_SUBCLASSOF

        question = parse_question("Why should I eat Cauliflower Potato Curry?")
        user, context = persona("paper")
        scenario = service.engine.build_scenario(question, user, context)
        with pytest.raises(ValueError, match="schema axiom"):
            service.engine.update_scenario(
                scenario,
                extra_triples=[(IRI("urn:A"), RDFS_SUBCLASSOF, IRI("urn:B"))])

    def test_update_scenario_replacing_recommendation_rebuilds(self, service):
        """Swapping recommendations is a retraction: the old one must vanish."""
        from repro.core.questions import parse_question
        from repro.foodkg.schema import slugify
        from repro.rdf.namespace import FOODKG

        user, context = persona("paper")
        first, second = service.engine.recommender.recommend(user, context, top_k=2)
        question = parse_question("Why should I eat Cauliflower Potato Curry?")
        scenario = service.engine.build_scenario(question, user, context,
                                                 recommendation=first)
        updated = service.engine.update_scenario(scenario, recommendation=second)
        fresh = service.engine.build_scenario(question, user, context,
                                              recommendation=second)
        assert updated.recommendation == second
        assert set(updated.asserted) == set(fresh.asserted)
        assert set(updated.inferred) == set(fresh.inferred)
        old_rec_iri = IRI(FOODKG["recommendation/" + slugify(first.recipe)])
        assert not list(updated.asserted.triples((old_rec_iri, None, None)))

    def test_update_scenario_replacement_keeps_extra_triples(self, service):
        """The rebuild taken for a recommendation swap must not drop extras."""
        from repro.core.questions import parse_question

        user, context = persona("paper")
        first, second = service.engine.recommender.recommend(user, context, top_k=2)
        question = parse_question("Why should I eat Cauliflower Potato Curry?")
        scenario = service.engine.build_scenario(question, user, context,
                                                 recommendation=first)
        extra = (IRI("urn:note"), IRI("urn:about"), IRI("urn:lunch"))
        updated = service.engine.update_scenario(
            scenario, recommendation=second, extra_triples=[extra])
        assert updated.recommendation == second
        assert extra in updated.asserted
        assert extra in updated.inferred

    def test_update_scenario_swap_carries_earlier_extra_triples(self, service):
        """Extras from earlier updates survive a later recommendation swap."""
        from repro.core.questions import parse_question

        user, context = persona("paper")
        first, second = service.engine.recommender.recommend(user, context, top_k=2)
        question = parse_question("Why should I eat Cauliflower Potato Curry?")
        scenario = service.engine.build_scenario(question, user, context,
                                                 recommendation=first)
        extra = (IRI("urn:note"), IRI("urn:about"), IRI("urn:dinner"))
        grown = service.engine.update_scenario(scenario, extra_triples=[extra])
        swapped = service.engine.update_scenario(grown, recommendation=second)
        assert swapped.recommendation == second
        assert extra in swapped.asserted
        assert extra in swapped.inferred


class TestSessionRegistry:
    def test_open_get_close_roundtrip(self):
        registry = SessionRegistry()
        session = registry.open(paper_user(), paper_context())
        assert registry.get(session.session_id) is session
        assert session.session_id in registry
        assert registry.close(session.session_id) is session
        assert session.session_id not in registry

    def test_unknown_session_raises(self):
        with pytest.raises(KeyError):
            SessionRegistry().get("no-such-session")

    def test_eviction_drops_least_recently_active(self):
        registry = SessionRegistry(max_sessions=2)
        first = registry.open(paper_user(), paper_context())
        second = registry.open(paper_user(), paper_context())
        registry.get(first.session_id)  # refresh first
        registry.open(paper_user(), paper_context())  # evicts second
        assert first.session_id in registry
        assert second.session_id not in registry
        assert registry.evictions == 1

    def test_history_is_recorded_and_bounded(self):
        session = SessionRegistry().open(paper_user(), paper_context())
        for n in range(7):
            session.record_question(f"question {n}", keep_last=5)
        assert session.questions_asked == 7
        assert session.history == [f"question {n}" for n in range(2, 7)]


class TestExplanationService:
    @pytest.fixture()
    def service(self, engine):
        # Reuses the session-scoped engine: only service-layer state is fresh.
        return ExplanationService(engine=engine)

    def test_ask_with_persona(self, service):
        response = service.ask("Why should I eat Cauliflower Potato Curry?",
                               persona="paper")
        assert response.explanation.explanation_type == "contextual"
        assert "Autumn" in [item.subject for item in response.explanation.items]
        assert response.session_id is None

    def test_repeat_hits_scenario_cache_with_identical_answer(self, service):
        question = "Why should I eat Cauliflower Potato Curry?"
        first = service.ask(question, persona="paper")
        second = service.ask(question, persona="paper")
        assert not first.scenario_cache_hit
        assert second.scenario_cache_hit
        assert first.explanation.text == second.explanation.text
        # Reads share the published scenario: no per-ask copy.
        assert second.scenario.inferred is first.scenario.inferred

    def test_scenarios_without_a_closure_cache_are_published_frozen(self, engine):
        builder = ScenarioBuilder(engine.catalog, base_graph=engine.builder._base,
                                  use_closure_cache=False)
        service = ExplanationService(engine=ExplanationEngine(builder=builder))
        scenario = service.ask("What if I was pregnant?", persona="paper").scenario
        assert scenario.asserted.frozen and scenario.inferred.frozen

    def test_batch_amortises_scenarios(self, service):
        requests = [ExplanationRequest(question="What if I was pregnant?",
                                       persona="pregnant_user")] * 3
        responses = service.explain_batch(requests)
        assert [r.scenario_cache_hit for r in responses] == [False, True, True]
        assert service.stats().scenario_cache_misses == 1

    def test_explanation_type_override_reuses_scenario(self, service):
        question = "Why should I eat Cauliflower Potato Curry?"
        contextual = service.ask(question, persona="paper")
        scientific = service.ask(question, persona="paper",
                                 explanation_type="scientific")
        assert scientific.explanation.explanation_type == "scientific"
        assert scientific.scenario_cache_hit  # same scenario, different generator

    def test_session_flow_records_history(self, service):
        session = service.open_persona_session("pregnant_user")
        response = service.ask("What if I was pregnant?",
                               session_id=session.session_id)
        assert response.session_id == session.session_id
        assert session.questions_asked == 1
        assert session.history == ["What if I was pregnant?"]
        assert service.close_session(session.session_id) is session

    def test_unknown_session_raises(self, service):
        with pytest.raises(KeyError):
            service.ask("Why should I eat Sushi?", session_id="missing")

    def test_explicit_user_and_context(self, service):
        user, context = persona("paper")
        response = service.ask("Why should I eat Cauliflower Potato Curry?",
                               user=user, context=context)
        assert not response.explanation.is_empty

    def test_partial_user_context_is_rejected(self, service):
        user, context = persona("paper")
        with pytest.raises(ValueError):
            service.ask("Why should I eat Sushi?", user=user)  # context missing
        with pytest.raises(ValueError):
            service.ask("Why should I eat Sushi?", context=context)  # user missing

    def test_explain_all_types_builds_one_scenario(self, service):
        request = ExplanationRequest(question="Why should I eat Cauliflower Potato Curry?",
                                     persona="paper")
        responses = service.explain_all_types(request)
        assert set(responses) == set(service.engine.supported_explanation_types)
        assert service.stats().scenario_cache_misses == 1

    def test_explain_all_types_records_session_question_once(self, service):
        session = service.open_persona_session("paper")
        request = ExplanationRequest(question="Why should I eat Cauliflower Potato Curry?",
                                     session_id=session.session_id)
        responses = service.explain_all_types(request)
        assert session.questions_asked == 1
        assert all(r.session_id == session.session_id for r in responses.values())

    def test_stats_snapshot(self, service):
        service.ask("Why should I eat Cauliflower Potato Curry?", persona="paper")
        stats = service.stats()
        assert stats.requests_served == 1
        assert stats.scenario_cache_misses == 1
        assert "hits" in stats.prepared_query_cache
        text = stats.to_text()
        assert "requests served" in text and "closure cache" in text
        assert "query planner" in text
        assert "term store" in text

    def test_stats_expose_term_store_counters(self, service):
        service.ask("Why should I eat Cauliflower Potato Curry?", persona="paper")
        stats = service.stats()
        store = stats.term_store
        # The engine's base graph family: thousands of interned terms, and
        # the kind breakdown accounts for every one of them.
        assert store["interned_terms"] > 0
        assert store["encoded_triples"] > 0
        assert (store["iris"] + store["bnodes"] + store["literals"]
                == store["interned_terms"])
        # The competency queries ran through the encoded join fast path.
        assert stats.query_planner.get("encoded_bgps", 0) > 0

    def test_stats_report_plan_cache_reuse_across_requests(self, service):
        from repro.sparql import reset_planner_stats

        reset_planner_stats()
        question = "Why should I eat Cauliflower Potato Curry?"
        service.ask(question, persona="paper")
        first = service.stats().query_planner
        # A fresh user defeats the scenario cache, so the competency query
        # re-evaluates — through the already-compiled plan.
        user, context = persona("pregnant_user")
        service.ask(question, user=user, context=context)
        second = service.stats().query_planner
        assert second["plan_cache_hits"] > first["plan_cache_hits"]
        assert second["plans_compiled"] == first["plans_compiled"]

    def test_scenario_cache_lru_bound(self, engine):
        service = ExplanationService(engine=engine, max_cached_scenarios=1)
        service.ask("Why should I eat Cauliflower Potato Curry?", persona="paper")
        service.ask("What if I was pregnant?", persona="pregnant_user")
        repeat = service.ask("Why should I eat Cauliflower Potato Curry?",
                             persona="paper")
        assert not repeat.scenario_cache_hit  # evicted by the second question

    def test_scenario_cache_keeps_no_more_closures_than_the_closure_cache(self, engine):
        # The scenario cache may not keep closures alive after the closure
        # cache evicted them: both are bounded by the closure budget.
        builder = ScenarioBuilder(engine.catalog, base_graph=engine.builder._base,
                                  closure_cache=MaterializationCache(max_size=2))
        service = ExplanationService(engine=ExplanationEngine(builder=builder),
                                     max_cached_scenarios=8)
        question = "Why should I eat Cauliflower Potato Curry?"
        for key in ("paper", "pregnant_user", "diabetic_user"):
            service.ask(question, persona=key)
        assert len({id(s.inferred) for s in service._scenarios.values()}) == 2
        assert service.ask(question, persona="diabetic_user").scenario_cache_hit
        assert service.ask(question, persona="pregnant_user").scenario_cache_hit
        assert not service.ask(question, persona="paper").scenario_cache_hit

    def test_stats_on_idle_service_does_not_build_the_engine(self):
        service = ExplanationService()  # no engine injected
        stats = service.stats()
        assert stats.requests_served == 0 and stats.closure_cache == {}
        assert service._engine is None  # still lazy after reading stats
        service.clear_caches()
        assert service._engine is None

    def test_warm_prepares_competency_templates(self, engine):
        baseline = prepared_cache().stats()["size"]
        ExplanationService(engine=engine).warm()
        assert prepared_cache().stats()["size"] >= max(baseline, 3)


class TestServeRequestLineParsing:
    def test_bare_question_uses_default_persona(self):
        from repro.cli import _parse_request_line

        assert _parse_request_line("Why should I eat Sushi?\n", "paper") == \
            ("paper", "Why should I eat Sushi?")

    def test_persona_prefix(self):
        from repro.cli import _parse_request_line

        assert _parse_request_line("pregnant_user: What if I was pregnant?", "paper") == \
            ("pregnant_user", "What if I was pregnant?")

    def test_unknown_prefix_is_part_of_the_question(self):
        from repro.cli import _parse_request_line

        persona_key, question = _parse_request_line("note: odd question", "paper")
        assert persona_key == "paper" and question == "note: odd question"

    def test_blank_and_comment_lines_are_skipped(self):
        from repro.cli import _parse_request_line

        assert _parse_request_line("   \n", "paper") is None
        assert _parse_request_line("# comment", "paper") is None
