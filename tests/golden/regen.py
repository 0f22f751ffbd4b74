"""Regenerate the paper goldens in ``paper_answers.json``.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regen.py

The file pins the rendered text of every explanation type for the
paper's three competency questions under every persona, plus the sorted
rows of Listings 1-3 for the paper persona.  ``tests/test_paper_goldens.py``
asserts that the single service and the sharded fleet reproduce it byte
for byte, so a change that alters any answer must regenerate it and say
why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "paper_answers.json"

sys.path.insert(0, str(HERE.parent))
from test_generator_determinism import PAPER_QUESTIONS  # noqa: E402

from repro.core.queries import (  # noqa: E402
    contextual_query,
    contrastive_query,
    counterfactual_query,
)
from repro.users.personas import PERSONAS  # noqa: E402

#: Listing name -> (query builder, the paper question it answers).
LISTINGS = {
    "listing1_contextual": (contextual_query, PAPER_QUESTIONS[0]),
    "listing2_contrastive": (contrastive_query, PAPER_QUESTIONS[1]),
    "listing3_counterfactual": (counterfactual_query, PAPER_QUESTIONS[2]),
}


def _rows(scenario, query_builder):
    result = scenario.query(query_builder(scenario.question_iri))
    rows = sorted(([None if term is None else term.n3() for term in row]
                   for row in result), key=lambda row: [term or "" for term in row])
    return {"variables": [str(variable) for variable in result.variables],
            "rows": rows}


def collect(service, explanation_types) -> str:
    """The goldens as served by ``service``, rendered as the file's text.

    ``service`` is anything with the ``ask`` of
    :class:`repro.service.ExplanationService`; the sharded fleet
    qualifies.
    """
    answers = {}
    scenarios = {}
    for persona in PERSONAS:
        answers[persona] = {}
        for question in PAPER_QUESTIONS:
            answers[persona][question] = texts = {}
            for explanation_type in explanation_types:
                response = service.ask(question, persona=persona,
                                       explanation_type=explanation_type)
                texts[explanation_type] = response.explanation.text
                if persona == "paper":
                    scenarios[question] = response.scenario
    listings = {name: dict(question=question, **_rows(scenarios[question], builder))
                for name, (builder, question) in LISTINGS.items()}
    golden = {"questions": list(PAPER_QUESTIONS), "answers": answers,
              "listings": listings}
    return json.dumps(golden, indent=1, sort_keys=True, ensure_ascii=False) + "\n"


def main() -> None:
    from repro.service import ExplanationService

    service = ExplanationService()
    GOLDEN_PATH.write_text(
        collect(service, service.engine.supported_explanation_types),
        encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
