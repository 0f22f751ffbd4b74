"""Generator text is a function of the knowledge graph alone.

It must not depend on the hash seed (set iteration order) or on the
order SPARQL rows come back in (join order, closure storage order), so
the same question renders the same text in every process and from every
closure a scenario can be answered from.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import repro
from repro.core.engine import ExplanationEngine
from repro.core.questions import parse_question
from repro.core.scenario import ScenarioBuilder
from repro.owl import MaterializationCache
from repro.rdf.graph import Graph
from repro.storage import ClosureEntry, load_snapshot, save_snapshot
from repro.users.personas import paper_context, paper_user

PAPER_QUESTIONS = (
    "Why should I eat Cauliflower Potato Curry?",
    "Why should I eat Butternut Squash Soup over Broccoli Cheddar Soup?",
    "What if I was pregnant?",
)

_PAIRINGS_SCRIPT = """
import json
from repro.core.generators import EverydayExplanationGenerator
from repro.foodkg.catalog import build_core_catalog

catalog = build_core_catalog()
generator = EverydayExplanationGenerator(catalog)
names = sorted(set(catalog.recipes) | set(catalog.ingredients))
print(json.dumps({name: generator.pairings_for(name) for name in names}))
"""


def _pairings_under_seed(seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", _PAIRINGS_SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(completed.stdout)


def test_everyday_pairings_do_not_depend_on_the_hash_seed():
    first = _pairings_under_seed("0")
    assert any(first.values())
    assert _pairings_under_seed("1") == first


def test_text_does_not_depend_on_closure_storage_order(engine):
    user, context = paper_user(), paper_context()
    for question in PAPER_QUESTIONS:
        scenario = engine.build_scenario(parse_question(question), user, context)
        # The same triples in a fresh store, interned and inserted in
        # reverse order: every index iterates differently.
        restored = Graph()
        restored.namespace_manager = scenario.inferred.namespace_manager
        for triple in sorted(scenario.inferred, key=lambda t: tuple(map(str, t)),
                             reverse=True):
            restored.add(triple)
        reordered = replace(scenario, inferred=restored)
        for name in engine.supported_explanation_types:
            generator = engine.generator(name)
            assert generator.generate(reordered).text == generator.generate(scenario).text, (
                question, name)


def _texts(engine: ExplanationEngine) -> dict:
    user, context = paper_user(), paper_context()
    return {
        (question, name): explanation.text
        for question in PAPER_QUESTIONS
        for name, explanation in engine.explain_all_types(
            parse_question(question), user, context
        ).items()
    }


def test_snapshot_closures_render_the_same_text_as_fresh_ones(catalog, tmp_path):
    fresh = ExplanationEngine(catalog=catalog)
    expected = _texts(fresh)
    assert len(expected) == 3 * 9

    builder = fresh.builder
    path = str(tmp_path / "paper.snap")
    save_snapshot(path, builder._base, closures=[
        ClosureEntry(asserted=asserted, closure=closure, post_added=post_added)
        for asserted, closure, post_added in builder.closure_cache.export_entries()
    ])
    loaded = load_snapshot(path)
    pinned = MaterializationCache(max_size=max(1, len(loaded.closures)))
    for entry in loaded.closures:
        pinned.install(entry.asserted, entry.closure, entry.post_added)
    restored = ExplanationEngine(builder=ScenarioBuilder(
        catalog, base_graph=loaded.graph, closure_cache=pinned))

    assert _texts(restored) == expected
    # Every scenario was answered from a snapshot closure, not re-reasoned.
    assert pinned.stats()["misses"] == 0
