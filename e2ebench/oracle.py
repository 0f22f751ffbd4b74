"""The answer oracle: every distinct response, recomputed serially.

After the timed window each distinct response is checked against an
in-process :class:`ExplanationEngine` over the same knowledge graph.  An
ask must match the explanation text and items.  An update is rebuilt
from scratch with the grown profile: the returned profile must equal the
expected one and the from-scratch closure size must equal the
``inferred_triples`` the server reported after its incremental extend.

The oracle loads the same snapshot file the server cold-starts from and
answers the snapshot's warm scenarios from their stored closures; every
other scenario is reasoned from scratch.  That is not a shortcut: some
explanation text depends on SPARQL row order (the counterfactual
generator keeps the first row per food), and row order follows the
closure graph's storage order, which a snapshot round-trip does not
preserve, so a freshly reasoned closure can render a warm scenario's
answer differently.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import Dict, List, Tuple

from client import Record

PROFILE_FIELDS = ("likes", "dislikes", "allergies", "diets", "conditions", "goals")
#: Scenarios the oracle keeps; answers and closure sizes are kept for every key.
SCENARIO_CACHE = 16


class Oracle:
    def __init__(self, catalog, snapshot_path: str, warm) -> None:
        from repro.core.engine import ExplanationEngine
        from repro.core.questions import parse_question
        from repro.core.scenario import ScenarioBuilder
        from repro.owl import MaterializationCache
        from repro.storage import load_snapshot
        from repro.users.personas import persona

        loaded = load_snapshot(snapshot_path)
        pinned = MaterializationCache(max_size=max(1, len(loaded.closures)))
        for entry in loaded.closures:
            pinned.install(entry.asserted, entry.closure, entry.post_added)
        #: Answers the snapshot's warm scenarios from their stored closures.
        self._warm_engine = ExplanationEngine(builder=ScenarioBuilder(
            catalog, base_graph=loaded.graph, closure_cache=pinned))
        #: Reasons every other scenario from scratch.
        self._engine = ExplanationEngine(builder=ScenarioBuilder(
            catalog, base_graph=loaded.graph, use_closure_cache=False))
        self._warm = set(warm)
        self._parse = parse_question
        self._persona = persona
        self._scenarios: "OrderedDict[tuple, object]" = OrderedDict()
        self._answers: Dict[tuple, Tuple[str, str, List[str]]] = {}
        self._closure_sizes: Dict[tuple, int] = {}

    def user(self, persona: str, state: Tuple[tuple, ...]):
        """The persona's profile after ``state``'s additions, in order."""
        user, context = self._persona(persona)
        for additions in state:
            for name, values in additions:
                existing = getattr(user, name)
                user = replace(user, **{name: existing + tuple(
                    v for v in values if v not in existing)})
        return user, context

    def _scenario(self, persona: str, state: Tuple[tuple, ...], question: str):
        key = (persona, state, question)
        scenario = self._scenarios.get(key)
        if scenario is None:
            user, context = self.user(persona, state)
            engine = (self._warm_engine if not state and (persona, question) in self._warm
                      else self._engine)
            scenario = engine.build_scenario(self._parse(question), user, context)
            self._scenarios[key] = scenario
            if len(self._scenarios) > SCENARIO_CACHE:
                self._scenarios.popitem(last=False)
        else:
            self._scenarios.move_to_end(key)
        return scenario

    def answer(self, persona: str, state: Tuple[tuple, ...], question: str,
               explanation_type) -> Tuple[str, str, List[str]]:
        key = (persona, state, question, explanation_type)
        answer = self._answers.get(key)
        if answer is None:
            scenario = self._scenario(persona, state, question)
            explanation = self._engine.explain(
                scenario.question, scenario.user, scenario.context,
                explanation_type=explanation_type, scenario=scenario)
            answer = (explanation.explanation_type, explanation.text,
                      [item.describe() for item in explanation.items])
            self._answers[key] = answer
        return answer

    def check(self, record: Record) -> str:
        """An empty string if ``record`` is right, else why it is wrong."""
        op, body = record.op, record.body
        if record.status != 200:
            return f"HTTP {record.status}"
        if op.kind == "session":
            return ""
        if body is None:
            return "no JSON body"
        if op.kind == "ask":
            kind, text, items = self.answer(record.persona, record.state,
                                            op.question, op.explanation_type)
            for name, expected in (("explanation_type", kind), ("text", text),
                                   ("items", items)):
                if body.get(name) != expected:
                    return (f"{op.explanation_type or 'default'} answer: {name} "
                            f"{body.get(name)!r} != oracle {expected!r}")
            return ""
        state = record.state + (op.additions,)
        user, _ = self.user(record.persona, state)
        for name in PROFILE_FIELDS:
            if body.get(name) != list(getattr(user, name)):
                return f"updated profile field {name!r} differs"
        key = (record.persona, state, op.question)
        inferred = self._closure_sizes.get(key)
        if inferred is None:
            inferred = len(self._scenario(*key).inferred)
            self._closure_sizes[key] = inferred
        if body.get("inferred_triples") != inferred:
            return (f"closure size {body.get('inferred_triples')} != "
                    f"{inferred} rebuilt from scratch")
        return ""

    def observes_update(self, record: Record) -> bool:
        """Whether a follow-up's answer differs from the pre-update answer."""
        op = record.op
        before = self.answer(record.persona, record.state[:-1], op.question,
                             op.explanation_type)
        after = self.answer(record.persona, record.state, op.question,
                            op.explanation_type)
        return before != after
