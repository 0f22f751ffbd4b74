"""Experiment E11: incremental closure maintenance vs. full re-materialisation.

A multi-user service mutates live scenarios constantly — one more dietary
restriction, one more liked recipe — and before the semi-naive rework every
single-fact change forced a full re-materialisation (the fingerprint cache
can only hit on byte-identical graphs).  These benchmarks gate the payoff
of the delta-driven path: a single-fact update through
:meth:`repro.owl.reasoner.Reasoner.extend` must be **at least 5x faster**
than re-running the reasoner over the whole graph (the ISSUE acceptance
criterion; measured headroom grows with catalogue size because the update
cost tracks the delta's consequences, not the graph).

Every timed comparison also asserts closure equality, so the speed gate can
never pass on wrong answers.
"""

from __future__ import annotations

import time

from repro.core.engine import ExplanationEngine
from repro.core.facts_foils import annotate_facts_and_foils
from repro.core.questions import parse_question
from repro.foodkg.generator import generate_catalog
from repro.owl import AxiomIndex, Reasoner
from repro.rdf.namespace import FEO, FOOD, FOODKG
from repro.rdf.terms import IRI
from repro.service import ExplanationService
from repro.users.personas import persona

from conftest import best_of as _best_of, build_kg, perf_gate, scaled

_RDF_TYPE = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")


def test_single_fact_update_is_5x_faster_than_rematerialisation():
    """Acceptance criterion: >= 5x speedup for a single-fact scenario update."""
    _, graph = build_kg(extra_recipes=scaled(160), extra_ingredients=scaled(80))
    axioms = AxiomIndex.from_graph(graph)
    closure = Reasoner(graph, axioms=axioms).run()

    user = IRI(FOODKG["user/bench-user"])
    recipe = sorted(graph.subjects(_RDF_TYPE, IRI(FOOD["Recipe"])))[0]
    delta = [(user, IRI(FEO["likes"]), recipe)]
    updated = graph.copy()
    updated.addN(delta)

    full_seconds, full = _best_of(
        3, lambda: Reasoner(updated, axioms=axioms).run())

    def incremental():
        extended = closure.copy()  # what the cache does to protect the shared entry
        return Reasoner(updated, axioms=axioms).extend(extended, delta)

    incremental_seconds, extended = _best_of(3, incremental)

    assert set(extended) == set(full), "incremental closure diverged from full re-run"
    speedup = full_seconds / incremental_seconds
    print(f"\nsingle-fact update: full={full_seconds * 1000:.1f}ms "
          f"incremental={incremental_seconds * 1000:.1f}ms -> {speedup:.1f}x "
          f"(asserted={len(graph)}, closed={len(closure)})")
    perf_gate(speedup >= 5.0,
              f"single-fact update must be >=5x faster than re-materialisation, "
              f"got {speedup:.1f}x")


def test_update_cost_tracks_the_delta_not_the_graph():
    """Incremental cost stays near-flat while full-run cost grows with scale."""
    timings = []
    for extra_recipes, extra_ingredients in [(scaled(40), scaled(20)),
                                             (scaled(160), scaled(80))]:
        _, graph = build_kg(extra_recipes=extra_recipes,
                            extra_ingredients=extra_ingredients)
        axioms = AxiomIndex.from_graph(graph)
        closure = Reasoner(graph, axioms=axioms).run()
        user = IRI(FOODKG["user/bench-user"])
        recipe = sorted(graph.subjects(_RDF_TYPE, IRI(FOOD["Recipe"])))[0]
        delta = [(user, IRI(FEO["likes"]), recipe)]
        updated = graph.copy()
        updated.addN(delta)
        full_seconds, _ = _best_of(3, lambda: Reasoner(updated, axioms=axioms).run())
        incremental_seconds, _ = _best_of(
            3, lambda: Reasoner(updated, axioms=axioms).extend(closure.copy(), delta))
        timings.append((len(graph), full_seconds, incremental_seconds))
        print(f"\nscale asserted={len(graph)}: full={full_seconds * 1000:.1f}ms "
              f"incremental={incremental_seconds * 1000:.1f}ms")
    (_, small_full, small_inc), (_, large_full, large_inc) = timings
    # Full re-materialisation pays the growth; the incremental path's growth
    # (closure copy + index upkeep) must stay well below it.
    perf_gate(large_inc < large_full / 5.0,
              f"large-graph incremental {large_inc * 1000:.1f} ms must be under 1/5 "
              f"of its full run {large_full * 1000:.1f} ms")
    # And updating the LARGE graph incrementally beats even the SMALL full run.
    perf_gate(large_inc < small_full,
              f"large-graph incremental {large_inc * 1000:.1f} ms must beat the "
              f"small-graph full run {small_full * 1000:.1f} ms")


def test_service_scenario_update_beats_rebuild():
    """End-to-end: ExplanationService.update_scenario vs a cold rebuild."""
    service = ExplanationService().warm()
    session = service.open_persona_session("paper")
    question = "Why should I eat Cauliflower Potato Curry?"
    service.ask(question, session_id=session.session_id)  # prime the caches

    # Session-addressed updates are cumulative: each one extends the closure
    # published by the previous one (a chain of incremental extensions).
    updates = [
        {"allergies": ("dairy",)},
        {"conditions": ("diabetes",)},
        {"likes": ("Butternut Squash Soup",)},
        {"goals": ("high_fiber",)},
    ]
    update_timings = []
    for update in updates:
        start = time.perf_counter()
        updated = service.update_scenario(
            question, session_id=session.session_id, **update)
        update_timings.append(time.perf_counter() - start)
    # Each update is a distinct delta, so they cannot be repeated for a
    # best-of measurement; the minimum over the four is the steady-state
    # cost (matching the best-of-3 rebuild measurement below).
    incremental_seconds = min(update_timings)

    # The pre-rework cost of the same edit: full re-materialisation of the
    # grown scenario graph (Reasoner.run plus the fact/foil post-pass).  A
    # cold builder.build no longer is one — its miss extends the base closure.
    axioms = service.engine.builder._base_closure.axioms

    def rematerialise():
        closure = Reasoner(updated.asserted, axioms=axioms).run()
        annotate_facts_and_foils(closure, updated.ecosystem_iri)
        return closure

    rebuild_seconds, rebuilt = _best_of(3, rematerialise)

    assert set(rebuilt) == set(updated.inferred)
    speedup = rebuild_seconds / incremental_seconds
    print(f"\nscenario update: rebuild={rebuild_seconds * 1000:.1f}ms "
          f"incremental={incremental_seconds * 1000:.1f}ms -> {speedup:.1f}x")
    perf_gate(speedup >= 2.0,
              f"live scenario edits must be >=2x faster than rebuilds, got {speedup:.1f}x")
    assert service.stats().closure_cache["extensions"] == len(updates)


def test_scenario_closure_miss_is_4x_faster_than_a_full_run():
    """A closure miss is a COW copy of the shared base closure grown with the
    scenario's ~20 asserted triples, not a reasoning pass over the whole
    ontology + KG.  Measured on the paper's CQ1 scenario over the served
    knowledge graph's scale (e2ebench's ``KG_CONFIG``), unscaled: the base
    closure is built once beforehand, as the first miss of a fleet does."""
    engine = ExplanationEngine(
        catalog=generate_catalog(extra_recipes=100, extra_ingredients=50))
    builder = engine.builder
    user, context = persona("paper")
    builder.build(parse_question("What if I was pregnant?"), user, context)
    question = parse_question("Why should I eat Cauliflower Potato Curry?")
    asserted = builder.build(question, user, context, run_reasoner=False).asserted

    def miss():
        builder.closure_cache.invalidate(asserted)
        return builder.build(question, user, context)

    miss_seconds, scenario = _best_of(3, miss)

    def full_run():
        closure = Reasoner(asserted, axioms=builder._base_closure.axioms).run()
        annotate_facts_and_foils(closure, scenario.ecosystem_iri)
        return closure

    full_seconds, full = _best_of(3, full_run)
    assert set(full) == set(scenario.inferred)
    speedup = full_seconds / miss_seconds
    print(f"\nscenario closure miss: full run={full_seconds * 1000:.1f}ms "
          f"miss={miss_seconds * 1000:.1f}ms -> {speedup:.1f}x "
          f"(asserted={len(asserted)}, closed={len(full)})")
    perf_gate(speedup >= 4.0,
              f"a closure miss must be >=4x faster than Reasoner.run, got {speedup:.1f}x")


def test_profile_update_extend_p50_is_under_5ms(monkeypatch):
    """ROADMAP item 5's absolute gate: ``Reasoner.extend`` for a profile
    update (a diet, a like and an allergy, as e2ebench's live_updates
    sends) over the served knowledge graph's scale (e2ebench's
    ``KG_CONFIG``), unscaled, has a p50 of at most 5 ms.  Each update is a
    distinct delta folded into the cached CQ1 closure of the paper persona;
    every result is checked against a full run of the grown graph."""
    import statistics

    engine = ExplanationEngine(
        catalog=generate_catalog(extra_recipes=100, extra_ingredients=50))
    builder = engine.builder
    catalog = builder.catalog
    user, context = persona("paper")
    scenario = builder.build(
        parse_question("Why should I eat Cauliflower Potato Curry?"), user, context)
    timings = []
    extend = Reasoner.extend

    def timed_extend(reasoner, closure, added):
        start = time.perf_counter()
        result = extend(reasoner, closure, added)
        timings.append(time.perf_counter() - start)
        return result

    monkeypatch.setattr(Reasoner, "extend", timed_extend)
    diets = [diet for diet in sorted(catalog.diets) if diet not in user.diets]
    likes = [r for r in sorted(catalog.recipes) if r not in user.likes]
    allergies = [i for i in sorted(catalog.ingredients) if i not in user.allergies]
    axioms = builder._base_closure.axioms
    for index in range(21):
        updated = builder.update_scenario(
            scenario, diets=(diets[index % len(diets)],),
            likes=(likes[7 * index % len(likes)],),
            allergies=(allergies[5 * index % len(allergies)],))
        if index % 5 == 0:
            full = Reasoner(updated.asserted, axioms=axioms).run()
            annotate_facts_and_foils(full, updated.ecosystem_iri)
            assert set(full) == set(updated.inferred)
    assert len(timings) == 21
    p50_ms = statistics.median(timings) * 1000
    print(f"\nprofile-update extend: p50={p50_ms:.2f}ms "
          f"max={max(timings) * 1000:.2f}ms over {len(timings)} updates "
          f"(closed={len(scenario.inferred)})")
    perf_gate(p50_ms <= 5.0,
              f"a profile update's Reasoner.extend must have p50 <= 5 ms, "
              f"got {p50_ms:.2f} ms")
