"""Regenerate the paper goldens in ``paper_answers.json``.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regen.py

The file pins the rendered text of every explanation type for the
paper's three competency questions under every persona, plus, for the
paper persona, the sorted rows of Listings 1-3, the Table 1 rows (the
benchmark's row questions, with their rendered text) and Figs 1-4: the
``feo:Characteristic`` subtree, the property lattice, the fact/foil
matrix and the CQ1 neighbourhood as sorted N-Triples.
``tests/test_paper_goldens.py`` asserts that the single service and the
sharded fleet reproduce it byte for byte, so a change that alters any
answer must regenerate it and say why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "paper_answers.json"

sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "benchmarks"))
from test_fig4_cq1_subgraph import _neighbourhood_query  # noqa: E402
from test_generator_determinism import PAPER_QUESTIONS  # noqa: E402
from test_table1_explanation_types import _build_table  # noqa: E402

from repro.core.facts_foils import fact_foil_matrix  # noqa: E402
from repro.core.questions import parse_question  # noqa: E402
from repro.core.queries import (  # noqa: E402
    contextual_query,
    contrastive_query,
    counterfactual_query,
    property_lattice_query,
)
from repro.ontology import feo  # noqa: E402
from repro.owl import ClassHierarchy, render_tree  # noqa: E402
from repro.users.personas import PERSONAS, persona  # noqa: E402

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


def artefacts(engine) -> dict:
    """Table 1 and Figs 1-4 for the paper persona, built on ``engine``."""
    user, context = persona("paper")
    cq1 = engine.build_scenario(parse_question(PAPER_QUESTIONS[0]), user, context)
    inferred = cq1.inferred
    hierarchy = ClassHierarchy(inferred).tree(feo.Characteristic)
    lattice = cq1.query(property_lattice_query())
    neighbourhood = cq1.query(_neighbourhood_query(cq1.question_iri)).graph
    return {
        "table1": _build_table(engine, user, context),
        "fig1_characteristic_tree":
            render_tree(hierarchy, inferred.namespace_manager).splitlines(),
        "fig2_property_lattice": sorted(
            [row["property"].n3(), row["superProperty"].n3()] for row in lattice),
        "fig3_fact_foil_matrix": fact_foil_matrix(),
        "fig4_cq1_neighbourhood": sorted(
            neighbourhood.serialize("ntriples").splitlines()),
    }


def collect(service, engine) -> str:
    """The goldens as served by ``service``, rendered as the file's text.

    ``service`` is anything with the ``ask`` of
    :class:`repro.service.ExplanationService`; the sharded fleet
    qualifies.  Table 1 and the figures come from ``engine``.
    """
    answers = {}
    scenarios = {}
    for persona_key in PERSONAS:
        answers[persona_key] = {}
        for question in PAPER_QUESTIONS:
            answers[persona_key][question] = texts = {}
            for explanation_type in engine.supported_explanation_types:
                response = service.ask(question, persona=persona_key,
                                       explanation_type=explanation_type)
                texts[explanation_type] = response.explanation.text
                if persona_key == "paper":
                    scenarios[question] = response.scenario
    listings = {name: dict(question=question, **_rows(scenarios[question], builder))
                for name, (builder, question) in LISTINGS.items()}
    golden = {"questions": list(PAPER_QUESTIONS), "answers": answers,
              "listings": listings, **artefacts(engine)}
    return json.dumps(golden, indent=1, sort_keys=True, ensure_ascii=False) + "\n"


def main() -> None:
    from repro.service import ExplanationService

    service = ExplanationService()
    GOLDEN_PATH.write_text(collect(service, service.engine), encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
