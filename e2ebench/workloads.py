"""Seeded request streams for the three workloads.

The workload seed drives only the request stream: which scenarios form
the hot set, the order sessions walk the catalogue in, and what each
profile update adds.  The knowledge graph and fleet are fixed (see
``common.py``).  Every session's script is an endless generator, so the
timed window decides how much of it is used; :func:`stream_digest` hashes
a fixed-length prefix of every script, which is what "the same seed
gives the same stream" is checked against.

Why each workload exists:

* ``hot_sessions`` — six persona sessions ask a hot set of 24
  (persona, question) scenarios, primed during setup; every ask is a
  scenario-cache hit, so the time goes to HTTP, the shard queue, the COW
  snapshot, SPARQL and the generators, and the reasoner is idle.
* ``tenant_churn`` — the same sessions walk all recipes in seeded
  shuffled order, so reuse distance exceeds every cache and nearly every
  ask pays a full ``Reasoner.run``.  It is not listed in
  ``BENCHMARK.json``: about half of its window is gen-2 garbage
  collection over a heap that grows with every cached scenario, so its
  figures move 15-25% between runs of one seed, more than a regression
  bound can allow.  Run it by name to analyse the reasoner and the GC.
* ``live_updates`` — sessions interleave profile updates with asks: ask,
  ``/update`` (a diet, a like and an allergy), a follow-up ask whose
  statistical explanation shows the added diet, and plain re-asks.
  Updates grow the cached closure through
  ``MaterializationCache.extend``; a session restarts after
  :data:`CHAIN_LENGTH` updates, so the first update of each chain
  rebuilds from a base closure that later updates have evicted.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

WORKLOADS = ("hot_sessions", "tenant_churn", "live_updates")

#: The six personas every workload opens one session for.
PERSONAS = ("paper", "pregnant_user", "diabetic_user", "hypertensive_user",
            "vegan_athlete", "gluten_free_user")

EXPLANATION_TYPES = ("case_based", "contextual", "contrastive", "counterfactual",
                     "everyday", "scientific", "simulation_based", "statistical",
                     "trace_based")

#: Conditions as the question parser spells them (CQ3 "What if I was ...?").
CONDITION_PHRASES = ("pregnant", "diabetic", "hypertensive", "lactose intolerant",
                     "celiac", "high cholesterol")

#: Diets every update adds one of: each shows as a line of the
#: statistical explanation, so a follow-up ask can observe the update
#: (likes and allergies show in no explanation text).
DIETS = ("vegetarian", "vegan", "gluten_free", "pescatarian", "keto", "paleo")

#: Updates per live session before it is replaced by a fresh one.
CHAIN_LENGTH = 5
#: Plain re-asks after each follow-up in ``live_updates``.
REASKS = 3
#: Ops per session hashed by :func:`stream_digest`.
DIGEST_PREFIX = 400


@dataclass(frozen=True)
class Op:
    """One HTTP operation of a session script.

    ``kind`` is ``ask``, ``update`` or ``session`` (open a fresh session
    for the persona, replacing the current one).  ``role`` labels asks:
    ``ask``, ``followup`` (must reflect the preceding update) or
    ``reask``.  ``additions`` is the update's profile delta as
    ``(field, values)`` pairs.
    """

    kind: str
    question: str = ""
    explanation_type: Optional[str] = None
    role: str = "ask"
    additions: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()

    def body(self) -> Dict[str, object]:
        """The JSON body, minus the session id the client adds."""
        payload: Dict[str, object] = {"question": self.question}
        if self.explanation_type is not None:
            payload["explanation_type"] = self.explanation_type
        for name, values in self.additions:
            payload[name] = list(values)
        return payload


@dataclass
class SessionPlan:
    """One user session: its persona and an endless op script."""

    persona: str
    script: Callable[[], Iterator[Op]]


@dataclass
class Workload:
    name: str
    seed: int
    sessions: List[SessionPlan]
    #: (session index, question) asked once over HTTP during setup.
    priming: List[Tuple[int, str]] = field(default_factory=list)

    def warm_scenarios(self) -> List[Tuple[str, str]]:
        """(persona, question) pairs whose closures the snapshot carries."""
        return [(self.sessions[index].persona, question)
                for index, question in self.priming]


def _recipes_and_ingredients(catalog) -> Tuple[List[str], List[str]]:
    return sorted(catalog.recipes), sorted(catalog.ingredients)


def _why(recipe: str) -> str:
    return f"Why should I eat {recipe}?"


def _over(primary: str, secondary: str) -> str:
    return f"Why should I eat {primary} over {secondary}?"


def _hot_sessions(seed: int, catalog) -> Workload:
    rng = random.Random(f"hot_sessions:{seed}")
    recipes, _ = _recipes_and_ingredients(catalog)
    hot: Dict[str, List[str]] = {}   # 6 personas x 4 questions = 24 scenarios
    for persona in PERSONAS:
        first, second, third, fourth = rng.sample(recipes, 4)
        hot[persona] = [_why(first), _why(second), _over(third, fourth),
                        f"What if I was {rng.choice(CONDITION_PHRASES)}?"]

    def script(persona: str, index: int) -> Callable[[], Iterator[Op]]:
        def ops() -> Iterator[Op]:
            local = random.Random(f"hot_sessions:{seed}:{index}")
            while True:
                yield Op("ask", local.choice(hot[persona]),
                         local.choice(EXPLANATION_TYPES))
        return ops

    sessions = [SessionPlan(p, script(p, i)) for i, p in enumerate(PERSONAS)]
    priming = [(i, q) for i, p in enumerate(PERSONAS) for q in hot[p]]
    return Workload("hot_sessions", seed, sessions, priming)


def _tenant_churn(seed: int, catalog) -> Workload:
    recipes, _ = _recipes_and_ingredients(catalog)

    def script(index: int) -> Callable[[], Iterator[Op]]:
        def ops() -> Iterator[Op]:
            local = random.Random(f"tenant_churn:{seed}:{index}")
            while True:
                order = list(recipes)
                local.shuffle(order)
                for recipe in order:
                    if local.random() < 0.5:
                        yield Op("ask", _why(recipe))
                    else:
                        other = local.choice([r for r in recipes if r != recipe])
                        yield Op("ask", _over(recipe, other))
        return ops

    sessions = [SessionPlan(p, script(i)) for i, p in enumerate(PERSONAS)]
    return Workload("tenant_churn", seed, sessions)


def _live_updates(seed: int, catalog) -> Workload:
    from repro.users.personas import persona as persona_lookup

    rng = random.Random(f"live_updates:{seed}")
    recipes, ingredients = _recipes_and_ingredients(catalog)
    live = {p: (_why(rng.choice(recipes)) if k % 2 == 0
                else _over(*rng.sample(recipes, 2)))
            for k, p in enumerate(PERSONAS)}

    def script(persona: str, index: int) -> Callable[[], Iterator[Op]]:
        user, _ = persona_lookup(persona)
        diets = [d for d in DIETS if d not in user.diets]
        question = live[persona]

        def ops() -> Iterator[Op]:
            local = random.Random(f"live_updates:{seed}:{index}")
            first = True
            while True:
                if not first:
                    yield Op("session")
                first = False
                likes = [r for r in recipes if r not in user.likes]
                allergies = [i for i in ingredients if i not in user.allergies]
                for diet in local.sample(diets, CHAIN_LENGTH):
                    like = likes.pop(local.randrange(len(likes)))
                    allergy = allergies.pop(local.randrange(len(allergies)))
                    yield Op("ask", question, local.choice(EXPLANATION_TYPES))
                    yield Op("update", question, role="update", additions=(
                        ("allergies", (allergy,)), ("diets", (diet,)), ("likes", (like,))))
                    yield Op("ask", question, "statistical", role="followup")
                    for _ in range(REASKS):
                        yield Op("ask", question, local.choice(EXPLANATION_TYPES),
                                 role="reask")
        return ops

    sessions = [SessionPlan(p, script(p, i)) for i, p in enumerate(PERSONAS)]
    priming = [(i, live[p]) for i, p in enumerate(PERSONAS)]
    return Workload("live_updates", seed, sessions, priming)


_BUILDERS = {"hot_sessions": _hot_sessions, "tenant_churn": _tenant_churn,
             "live_updates": _live_updates}


def build_workload(name: str, seed: int, catalog) -> Workload:
    """The named workload's sessions and priming asks for ``seed``."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return _BUILDERS[name](seed, catalog)


def stream_digest(workload: Workload, prefix: int = DIGEST_PREFIX) -> str:
    """SHA-256 over the priming asks and every session's first ``prefix`` ops."""
    digest = hashlib.sha256()
    digest.update(json.dumps([workload.name, workload.priming]).encode())
    for plan in workload.sessions:
        digest.update(plan.persona.encode())
        for op in itertools.islice(plan.script(), prefix):
            digest.update(json.dumps([op.kind, op.role, op.body()],
                                     sort_keys=True).encode())
    return digest.hexdigest()
