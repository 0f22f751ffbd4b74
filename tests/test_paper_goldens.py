"""The paper's answers are pinned: every serving path reproduces the goldens.

``tests/golden/paper_answers.json`` holds the rendered text of the nine
explanation types for the paper's three competency questions under all
six personas, plus the sorted rows of Listings 1-3 for the paper
persona.  Regenerate it with ``PYTHONPATH=src python tests/golden/regen.py``.
"""

from golden.regen import GOLDEN_PATH, collect

from repro.service import ExplanationService, ShardedExplanationService


def _golden() -> str:
    return GOLDEN_PATH.read_text(encoding="utf-8")


def test_single_service_reproduces_the_goldens(engine):
    service = ExplanationService(engine=engine)
    assert collect(service, engine.supported_explanation_types) == _golden()


def test_sharded_fleet_reproduces_the_goldens(engine):
    fleet = ShardedExplanationService(num_shards=4, engine=engine)
    try:
        assert collect(fleet, engine.supported_explanation_types) == _golden()
    finally:
        fleet.stop()
