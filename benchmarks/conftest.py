"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one artefact of the paper (table, figure or
listing result) and measures the cost of the pipeline stage behind it.
Expensive shared state (engine, reasoned scenarios) is session-scoped so a
``pytest benchmarks/ --benchmark-only`` run stays fast.
"""

from __future__ import annotations

import json
import os
import warnings

import pytest

from repro.core.engine import ExplanationEngine
from repro.core.questions import ContrastiveQuestion, WhatIfConditionQuestion, WhyQuestion
from repro.foodkg import build_core_catalog, generate_catalog, load_catalog
from repro.ontology.feo import build_combined_ontology
from repro.owl import Reasoner
from repro.users.personas import paper_context, paper_user


#: Global size multiplier for the synthetic-scale benchmarks.  CI's smoke
#: job sets REPRO_BENCH_SCALE below 1 so the scaling gates run on every PR
#: without dominating the wall clock; locally the default exercises the
#: full sizes.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))


#: Wall-clock gates assert only under REPRO_BENCH_GATES=1, which CI's
#: benchmark jobs set.  Elsewhere — the tier-1 command among them — a missed
#: gate is a warning, so pass or fail depends on answers, counters and
#: memory, never on a timing ratio taken on a noisy box.
BENCH_GATES = os.environ.get("REPRO_BENCH_GATES") == "1"


def perf_gate(ok: bool, message: str) -> None:
    """Check one wall-clock floor; ``message`` gives the measured value and
    the floor.

    Asserts under ``REPRO_BENCH_GATES=1``; otherwise a miss emits a
    warning with the same message.
    """
    if BENCH_GATES:
        assert ok, message
    elif not ok:
        warnings.warn(f"perf gate missed (not enforced without "
                      f"REPRO_BENCH_GATES=1): {message}", stacklevel=2)


def scaled(value: int) -> int:
    """Scale a synthetic entity count by REPRO_BENCH_SCALE (at least 1)."""
    return max(1, int(value * BENCH_SCALE))


def best_of(repeats, fn):
    """``(best_seconds, last_result)`` over ``repeats`` timed calls.

    The timing-ratio gates compare minima so that one noisy-neighbour burst
    on a shared CI runner cannot fail an otherwise healthy ratio.
    """
    import time

    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def record_bench(filename: str, key: str, payload: dict) -> None:
    """Merge one gate's measurements under ``key`` into ``filename``."""
    data = {}
    if os.path.exists(filename):
        try:
            with open(filename) as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
    data[key] = payload
    with open(filename, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)


@pytest.fixture(scope="session")
def engine():
    return ExplanationEngine()


@pytest.fixture(scope="session")
def user():
    return paper_user()


@pytest.fixture(scope="session")
def context():
    return paper_context()


@pytest.fixture(scope="session")
def cq1_scenario(engine, user, context):
    question = WhyQuestion(text="Why should I eat Cauliflower Potato Curry?",
                           recipe="Cauliflower Potato Curry")
    return engine.build_scenario(question, user, context)


@pytest.fixture(scope="session")
def cq2_scenario(engine, user, context):
    question = ContrastiveQuestion(
        text="Why should I eat Butternut Squash Soup over a Broccoli Cheddar Soup?",
        primary="Butternut Squash Soup", secondary="Broccoli Cheddar Soup")
    return engine.build_scenario(question, user, context)


@pytest.fixture(scope="session")
def cq3_scenario(engine, user, context):
    question = WhatIfConditionQuestion(text="What if I was pregnant?", condition="pregnancy")
    return engine.build_scenario(question, user, context)


def build_kg(extra_recipes: int = 0, extra_ingredients: int = 0):
    """Build (asserted) ontology + knowledge graph at a chosen synthetic scale."""
    catalog = generate_catalog(extra_ingredients=extra_ingredients, extra_recipes=extra_recipes)
    graph = build_combined_ontology()
    load_catalog(catalog, graph)
    return catalog, graph


@pytest.fixture(scope="session")
def inferred_core_kg():
    """The curated knowledge graph, reasoned (no scenario individuals)."""
    _, graph = build_kg()
    return Reasoner(graph).run()
