"""One stats type from a single service up to a fleet, and one home shard per tenant.

A fleet's :meth:`~repro.service.ShardedExplanationService.stats` is its
shards' :class:`ServiceStats` folded by :meth:`ServiceStats.combine`:
per-instance counters add, process-wide and shared-base sections are
taken once.  Routing sends every request of a persona — addressed by
session, by persona key or by default — to the shard that also holds the
closures a ``snapshot save --warm-persona`` labelled for it.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from collections import Counter

import pytest

from repro.cli import main
from repro.errors import RequestError
from repro.service import (
    ExplanationServer,
    ExplanationService,
    ServiceStats,
    ShardedExplanationService,
)
from repro.users.personas import PERSONAS

QUESTION = "Why should I eat Sushi?"
TENANTS = ("paper", "pregnant_user", "diabetic_user", "hypertensive_user")


@pytest.fixture(scope="module")
def fleet(engine):
    fleet = ShardedExplanationService(num_shards=4, engine=engine)
    for persona in TENANTS:
        fleet.ask(QUESTION, persona=persona)
        fleet.ask(QUESTION, persona=persona)
    yield fleet
    fleet.stop()


class TestFleetStats:
    def test_a_fleet_reports_service_stats(self, fleet):
        stats = fleet.stats()
        assert isinstance(stats, ServiceStats)
        assert len(stats.per_shard) == 4
        assert all(isinstance(part, ServiceStats) for part in stats.per_shard)
        assert stats.requests_served == 2 * len(TENANTS)

    def test_closure_cache_is_summed_key_by_key(self, fleet):
        stats = fleet.stats()
        total = Counter()
        for part in stats.per_shard:
            total.update(part.closure_cache)
        assert stats.closure_cache == dict(total)
        assert stats.closure_cache["misses"] >= 1

    def test_shared_sections_are_taken_once(self, fleet):
        stats = fleet.stats()
        first = stats.per_shard[0]
        assert stats.term_store == first.term_store
        assert stats.term_store["interned_terms"] > 0
        assert stats.query_planner == first.query_planner
        assert stats.prepared_query_cache == first.prepared_query_cache

    def test_breaker_counts_add_and_states_stay_per_shard(self, fleet):
        stats = fleet.stats()
        assert "state" not in stats.breaker
        assert stats.breaker["opens"] == sum(p.breaker["opens"] for p in stats.per_shard)
        assert [p.breaker["state"] for p in stats.per_shard] == ["closed"] * 4

    def test_latency_is_recomputed_over_the_merged_windows(self, fleet):
        stats = fleet.stats()
        assert stats.latency_ms["samples"] == sum(
            p.latency_ms["samples"] for p in stats.per_shard)
        assert stats.latency_ms["max_ms"] == max(
            p.latency_ms["max_ms"] for p in stats.per_shard)

    def test_text_has_one_line_per_field_and_the_shards_indented(self, fleet):
        stats = fleet.stats()
        lines = stats.to_text().splitlines()
        assert f"requests served:        {stats.requests_served}" in lines
        assert any(line.startswith("closure cache:          ") for line in lines)
        assert any(line.startswith("term store:             ") for line in lines)
        assert "per shard:" in lines
        assert any(line.startswith("    breaker:") and "state closed" in line
                   for line in lines)

    def test_dict_is_the_full_record(self, fleet):
        payload = fleet.stats().to_dict()
        json.dumps(payload)
        assert payload["per_shard"][0]["breaker"]["state"] == "closed"
        for gone in ("shards", "breaker_opens", "breaker_states", "queue_depths"):
            assert gone not in payload

    def test_an_unsharded_service_renders_without_a_shard_section(self, engine):
        text = ExplanationService(engine=engine).stats().to_text()
        assert "per shard" not in text
        assert "breaker:                -" in text.splitlines()


def test_http_stats_carries_every_section(fleet):
    server = ExplanationServer(fleet, port=0).start()
    try:
        with urllib.request.urlopen(server.url + "/stats", timeout=60) as response:
            stats = json.loads(response.read())
        ask = urllib.request.Request(
            server.url + "/ask", headers={"Content-Type": "application/json"},
            data=json.dumps({"question": QUESTION, "persona": "nope"}).encode())
        with pytest.raises(urllib.error.HTTPError) as rejected:
            urllib.request.urlopen(ask, timeout=60)
        assert rejected.value.code == 400
    finally:
        server.stop()
    per_shard = stats["per_shard"]
    assert len(per_shard) == 4
    assert stats["closure_cache"]["misses"] == sum(
        part["closure_cache"]["misses"] for part in per_shard)
    for section in ("term_store", "query_planner", "prepared_query_cache"):
        assert stats[section] == per_shard[0][section]
    assert all(part["breaker"]["state"] == "closed" for part in per_shard)
    assert stats["queue_depth"] == 0
    assert stats["internal_errors"] == 0


class TestTenantRouting:
    @pytest.fixture(scope="class")
    def fleet(self, engine):
        fleet = ShardedExplanationService(num_shards=4, engine=engine)
        yield fleet
        fleet.stop()

    def _served_by(self, fleet, **address):
        before = [p.requests_served for p in fleet.stats().per_shard]
        fleet.ask(QUESTION, **address)
        after = [p.requests_served for p in fleet.stats().per_shard]
        (shard,) = [i for i, (a, b) in enumerate(zip(before, after)) if b > a]
        return shard

    @pytest.mark.parametrize("persona", PERSONAS)
    def test_persona_and_session_asks_share_a_shard(self, fleet, persona):
        session = fleet.open_persona_session(persona)
        home = fleet.shard_for_session(session.session_id).index
        assert self._served_by(fleet, persona=persona) == home
        assert self._served_by(fleet, session_id=session.session_id) == home

    def test_an_unknown_persona_is_a_request_error(self, fleet):
        with pytest.raises(RequestError):
            fleet.ask(QUESTION, persona="nobody")

    def test_default_persona_routes_like_its_session(self, fleet):
        session = fleet.open_persona_session(fleet.default_persona)
        assert self._served_by(fleet) == fleet.shard_for_session(session.session_id).index

    def test_cli_warmed_snapshot_serves_the_first_session_ask_from_cache(
            self, engine, tmp_path, capsys):
        path = str(tmp_path / "warm.snap")
        assert main(["snapshot", "save", path, "--warm-persona", "paper"],
                    engine=engine) == 0
        capsys.readouterr()
        fleet = ShardedExplanationService(num_shards=4, snapshot=path)
        try:
            session = fleet.open_persona_session("paper")
            fleet.ask(QUESTION, session_id=session.session_id)
            closure = fleet.shard_for_session(session.session_id).stats().closure_cache
            assert (closure["hits"], closure["misses"]) == (1, 0)
        finally:
            fleet.stop()
