"""The paper's answers are pinned: every serving path reproduces the goldens.

``tests/golden/paper_answers.json`` holds the rendered text of the nine
explanation types for the paper's three competency questions under all
six personas, plus, for the paper persona, the sorted rows of Listings
1-3, the Table 1 rows and Figs 1-4.  Regenerate it with
``PYTHONPATH=src python tests/golden/regen.py``.
"""

import json

from golden.regen import GOLDEN_PATH, artefacts, collect

from repro.ontology.eo import EXPLANATION_TYPES
from repro.service import ExplanationService, ShardedExplanationService


def _golden() -> str:
    return GOLDEN_PATH.read_text(encoding="utf-8")


def test_single_service_reproduces_the_goldens(engine):
    service = ExplanationService(engine=engine)
    assert collect(service, engine) == _golden()


def test_sharded_fleet_reproduces_the_goldens(engine):
    fleet = ShardedExplanationService(num_shards=4, engine=engine)
    try:
        assert collect(fleet, engine) == _golden()
    finally:
        fleet.stop()


def test_table1_and_figures_match_the_goldens(engine):
    golden = json.loads(_golden())
    pinned = json.loads(json.dumps(artefacts(engine)))
    for section, value in pinned.items():
        assert value == golden[section], section
    assert [row["explanation_type"] for row in pinned["table1"]] == sorted(EXPLANATION_TYPES)
