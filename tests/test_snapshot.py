"""Unit tests for the persistent snapshot store (`repro.storage.snapshot`).

Covers the graph-family round-trip (terms, triples, namespaces, index
metadata), closure-entry persistence — entries stored against the base
closure and rebuilt as its COW children, the cold-start ``install`` path
and a fleet cold-started onto the stored base closure — and the
fail-closed behaviour on corrupted, truncated or wrong-version files.
"""

from __future__ import annotations

import struct

import pytest

from repro.cli import main
from repro.core.engine import ExplanationEngine
from repro.core.questions import parse_question
from repro.owl import BaseClosure, MaterializationCache, Reasoner
from repro.owl.vocabulary import RDF_TYPE, RDFS_SUBCLASSOF
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal
from repro.service import ShardedExplanationService
from repro.storage import (
    ClosureEntry,
    FORMAT_VERSION,
    MAGIC,
    SnapshotError,
    load_snapshot,
    save_snapshot,
)
from repro.users.personas import persona

EX = "http://example.org/"


def _family_graph() -> Graph:
    """A small graph exercising every term kind and a subclass chain."""
    graph = Graph()
    graph.namespace_manager.bind("ex", EX)
    graph.add((IRI(EX + "Dog"), RDFS_SUBCLASSOF, IRI(EX + "Animal")))
    graph.add((IRI(EX + "Animal"), RDFS_SUBCLASSOF, IRI(EX + "Thing")))
    graph.add((IRI(EX + "rex"), RDF_TYPE, IRI(EX + "Dog")))
    graph.add((IRI(EX + "rex"), IRI(EX + "name"), Literal("Rex")))
    graph.add((IRI(EX + "rex"), IRI(EX + "age"), Literal(7)))
    graph.add((IRI(EX + "rex"), IRI(EX + "motto"), Literal("wuff", language="de")))
    return graph


def _scenario(base: Graph, tag: str) -> Graph:
    """A per-tenant variant of ``base`` (same family, small delta)."""
    scenario = base.copy()
    scenario.add((IRI(EX + tag), RDF_TYPE, IRI(EX + "Dog")))
    return scenario


class TestGraphRoundTrip:
    def test_graph_round_trips(self, tmp_path):
        graph = _family_graph()
        path = str(tmp_path / "family.snap")
        stats = save_snapshot(path, graph)
        assert stats["triples"] == len(graph)
        loaded = load_snapshot(path).graph
        assert set(loaded) == set(graph)
        assert loaded.fingerprint() == graph.fingerprint()
        assert loaded.index_stats() == graph.index_stats()
        assert loaded.serialize("ntriples") == graph.serialize("ntriples")

    def test_namespace_bindings_survive(self, tmp_path):
        graph = _family_graph()
        path = str(tmp_path / "family.snap")
        save_snapshot(path, graph)
        loaded = load_snapshot(path).graph
        assert dict(loaded.namespaces())["ex"] == IRI(EX)
        assert loaded.qname(IRI(EX + "Dog")) == "ex:Dog"

    def test_loaded_graph_is_independently_mutable(self, tmp_path):
        graph = _family_graph()
        path = str(tmp_path / "family.snap")
        save_snapshot(path, graph)
        loaded = load_snapshot(path).graph
        probe = (IRI(EX + "probe"), IRI(EX + "p"), IRI(EX + "o"))
        loaded.add(probe)
        loaded.remove((IRI(EX + "rex"), IRI(EX + "name"), Literal("Rex")))
        assert probe in loaded and probe not in graph
        assert len(loaded) == len(graph)

    def test_empty_graph_round_trips(self, tmp_path):
        path = str(tmp_path / "empty.snap")
        save_snapshot(path, Graph())
        loaded = load_snapshot(path).graph
        assert len(loaded) == 0
        assert loaded.fingerprint() == Graph().fingerprint()


class TestClosurePersistence:
    def _entries(self, base):
        """Three reasoned closure entries over ``base`` (shared family)."""
        entries = []
        for n, tag in enumerate(("tenant-a", "tenant-b", "tenant-c")):
            asserted = _scenario(base, tag)
            closure = Reasoner(asserted).run()
            entries.append(ClosureEntry(asserted=asserted, closure=closure,
                                        label=tag if n else None))
        return entries

    def test_closure_entries_round_trip(self, tmp_path):
        base = _family_graph()
        entries = self._entries(base)
        path = str(tmp_path / "warm.snap")
        stats = save_snapshot(path, base, closures=entries)
        assert stats["closures"] == len(entries)
        loaded = load_snapshot(path)
        assert len(loaded.closures) == len(entries)
        for saved, restored in zip(entries, loaded.closures):
            assert set(restored.asserted) == set(saved.asserted)
            assert set(restored.closure) == set(saved.closure)
            assert restored.label == saved.label
            assert restored.asserted.fingerprint() == saved.asserted.fingerprint()
            assert restored.closure.fingerprint() == saved.closure.fingerprint()
            # Restored graphs are one family with the loaded base.
            assert restored.asserted.dictionary is loaded.graph.dictionary

    def test_sibling_closures_round_trip_over_the_base_closure(self, tmp_path):
        """Near-identical sibling closures (the fleet-snapshot shape) are
        each the stored base closure plus a sliver, and restore exactly."""
        base = _family_graph()
        entries = []
        for n in range(6):
            asserted = _scenario(base, f"sibling-{n}")
            closure = Reasoner(asserted).run()
            entries.append(ClosureEntry(asserted=asserted, closure=closure,
                                        label=f"sibling-{n}"))
        path = str(tmp_path / "siblings.snap")
        save_snapshot(path, base, closures=entries)
        assert not base.frozen
        loaded = load_snapshot(path)
        assert set(loaded.base_closure) == set(Reasoner(base).run())
        for saved, restored in zip(entries, loaded.closures):
            assert set(restored.closure) == set(saved.closure)
            assert restored.closure.fingerprint() == saved.closure.fingerprint()
            assert set(loaded.base_closure) < set(restored.closure)

    def test_entry_closures_are_cow_children_of_the_base_closure(self, tmp_path):
        base = _family_graph()
        path = str(tmp_path / "warm.snap")
        save_snapshot(path, base, closures=self._entries(base))
        loaded = load_snapshot(path)
        base_closure = loaded.base_closure
        assert base_closure.frozen
        assert base_closure.dictionary is loaded.graph.dictionary
        # No entry's delta touches rex, so every closure shares its SPO entry.
        rex = loaded.graph.dictionary.ids[IRI(EX + "rex")]
        for entry in loaded.closures:
            assert entry.closure._spo[rex] is base_closure._spo[rex]

    def test_a_graph_only_snapshot_has_no_base_closure(self, tmp_path):
        path = str(tmp_path / "family.snap")
        save_snapshot(path, _family_graph())
        assert load_snapshot(path).base_closure is None

    def test_loaded_entries_install_as_cache_hits(self, tmp_path):
        base = _family_graph()
        entries = self._entries(base)
        path = str(tmp_path / "warm.snap")
        save_snapshot(path, base, closures=entries)
        loaded = load_snapshot(path)
        cache = MaterializationCache(max_size=8)
        for entry in loaded.closures:
            cache.install(entry.asserted, entry.closure, entry.post_added)
        # Re-building the same scenario over the *loaded* family is a hit.
        scenario = _scenario(loaded.graph, "tenant-b")
        closure = cache.materialize(scenario)
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 0
        assert set(closure) == set(Reasoner(scenario).run())

    def test_foreign_family_closures_are_rejected(self, tmp_path):
        base = _family_graph()
        foreign = _family_graph()  # same content, different dictionary
        entry = ClosureEntry(asserted=foreign, closure=Reasoner(foreign).run())
        with pytest.raises(SnapshotError, match="family"):
            save_snapshot(str(tmp_path / "bad.snap"), base, closures=[entry])


class TestFailClosed:
    def _saved(self, tmp_path, closures=False):
        base = _family_graph()
        entries = []
        if closures:
            asserted = _scenario(base, "tenant-a")
            entries = [ClosureEntry(asserted=asserted,
                                    closure=Reasoner(asserted).run())]
        path = tmp_path / "family.snap"
        save_snapshot(str(path), base, closures=entries)
        return path

    def test_bad_magic(self, tmp_path):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="not a graph snapshot"):
            load_snapshot(str(path))

    def test_wrong_version(self, tmp_path):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, len(MAGIC), FORMAT_VERSION + 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="version"):
            load_snapshot(str(path))

    def test_a_version_2_file_is_a_snapshot_error(self, tmp_path):
        path = self._saved(tmp_path, closures=True)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, len(MAGIC), 2)
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="version 2"):
            load_snapshot(str(path))

    def test_truncated_header_and_payload(self, tmp_path):
        path = self._saved(tmp_path)
        blob = path.read_bytes()
        for keep in (0, 10, len(blob) // 2, len(blob) - 1):
            path.write_bytes(blob[:keep])
            with pytest.raises(SnapshotError):
                load_snapshot(str(path))

    def test_payload_corruption_fails_the_crc(self, tmp_path):
        path = self._saved(tmp_path, closures=True)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="CRC"):
            load_snapshot(str(path))

    def test_missing_file_is_a_snapshot_error(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(str(tmp_path / "does-not-exist.snap"))


class TestAtomicWrites:
    """A failed save must never damage an existing snapshot on disk."""

    def test_torn_write_leaves_previous_snapshot_intact(self, tmp_path):
        from repro.testing.faults import Fault, FaultInjector, InjectedFault, injected

        base = _family_graph()
        path = tmp_path / "family.snap"
        save_snapshot(str(path), base)
        good = path.read_bytes()

        bigger = _family_graph()
        bigger.add((IRI(EX + "extra"), RDF_TYPE, IRI(EX + "Dog")))
        torn = FaultInjector(
            faults=[Fault(site="snapshot_write", action="error", at=(0,))]
        )
        with injected(torn):
            with pytest.raises(InjectedFault):
                save_snapshot(str(path), bigger)

        # The original file is byte-identical and still loads.
        assert path.read_bytes() == good
        loaded = load_snapshot(str(path))
        assert len(loaded.graph) == len(base)

    def test_failed_save_leaves_no_temp_files(self, tmp_path):
        from repro.testing.faults import Fault, FaultInjector, InjectedFault, injected

        path = tmp_path / "family.snap"
        torn = FaultInjector(
            faults=[Fault(site="snapshot_write", action="error", at=(0,))]
        )
        with injected(torn):
            with pytest.raises(InjectedFault):
                save_snapshot(str(path), _family_graph())

        assert list(tmp_path.iterdir()) == []

    def test_successful_save_replaces_atomically(self, tmp_path):
        path = tmp_path / "family.snap"
        save_snapshot(str(path), _family_graph())

        bigger = _family_graph()
        bigger.add((IRI(EX + "extra"), RDF_TYPE, IRI(EX + "Dog")))
        save_snapshot(str(path), bigger)

        loaded = load_snapshot(str(path))
        assert len(loaded.graph) == len(bigger)
        # No stray temp files once the replace lands.
        assert [p.name for p in tmp_path.iterdir()] == ["family.snap"]


SEEDED_QUESTION = "Why should I eat Sushi?"


@pytest.fixture(scope="module")
def warm_snapshot(engine, tmp_path_factory):
    """A snapshot of the core KG with one closure entry: the paper
    persona's CQ1 about Sushi, labelled with its profile identifier."""
    builder = engine.builder.fork(MaterializationCache())
    user, context = persona("paper")
    scenario = ExplanationEngine(builder=builder).build_scenario(
        parse_question(SEEDED_QUESTION), user, context)
    path = str(tmp_path_factory.mktemp("cold-start") / "warm.snap")
    save_snapshot(path, builder._base, closures=[
        ClosureEntry(asserted=asserted, closure=closure, post_added=post_added,
                     label=user.identifier)
        for asserted, closure, post_added in builder.closure_cache.export_entries()])
    assert scenario.asserted.fingerprint() == load_snapshot(path).closures[0].asserted.fingerprint()
    return path


@pytest.fixture
def full_runs(monkeypatch):
    """Every full ``Reasoner.run`` made while the test runs (a base-closure
    extension is a ``run`` override that calls none)."""
    runs = []
    original = Reasoner.run

    def counting_run(self):
        runs.append(self)
        return original(self)

    monkeypatch.setattr(Reasoner, "run", counting_run)
    return runs


class TestColdStartOntoTheStoredBaseClosure:
    def test_a_fleet_serves_a_non_seeded_miss_without_reasoning_the_base(
            self, warm_snapshot, full_runs, engine):
        loaded = load_snapshot(warm_snapshot)
        fleet = ShardedExplanationService(num_shards=2, snapshot=loaded)
        try:
            base = fleet.shards[0].service.engine.builder._base_closure
            assert base.closure() is loaded.base_closure
            assert all(shard.service.engine.builder._base_closure is base
                       for shard in fleet.shards)
            question = "Why should I eat Cauliflower Potato Curry?"
            response = fleet.ask(question, persona="paper")
            assert fleet.stats().closure_cache["misses"] == 1
            assert full_runs == []
        finally:
            fleet.stop()
        reference = engine.build_scenario(parse_question(question), *persona("paper"))
        assert set(response.scenario.inferred) == set(reference.inferred)

    def test_line_mode_serve_hits_the_seeded_closure_and_adopts_the_base_closure(
            self, warm_snapshot, full_runs, tmp_path, monkeypatch, capsys):
        built = []
        original_init = BaseClosure.__init__

        def recording_init(self, base, closure=None):
            original_init(self, base, closure=closure)
            built.append(self)

        monkeypatch.setattr(BaseClosure, "__init__", recording_init)
        requests = tmp_path / "requests.txt"
        requests.write_text(f"paper: {SEEDED_QUESTION}\n")
        assert main(["serve", "--snapshot", warm_snapshot,
                     "--requests", str(requests), "--stats"]) == 0
        out = capsys.readouterr().out
        (line,) = [line for line in out.splitlines() if line.startswith("closure cache:")]
        assert " hits 1 " in line and " misses 0 " in line
        (base,) = built
        assert base._closure is not None and base._closure.frozen
        assert set(base._closure) == set(load_snapshot(warm_snapshot).base_closure)
        assert full_runs == []
