"""Snapshot store gate: cold-starting from a snapshot vs. re-parsing turtle.

The persistent snapshot store exists so that service shards can cold-start
with **zero warm-up**: instead of re-parsing the ontology + knowledge graph
from turtle (re-tokenising every term, re-interning every IRI, re-deriving
every index entry) and re-materialising closures, a shard ``mmap``s-in-spirit
one struct-packed file and rebuilds the dictionary-encoded graph family in
a single bulk pass.

This gate measures both halves of that claim on the synthetic benchmark KG:

* **speed** — ``load_snapshot`` must beat the turtle re-parse by >=10x at
  full benchmark scale (the smoke-scale CI run uses a relaxed 5x floor:
  fixed per-call overheads weigh more on a graph a quarter the size);
* **fidelity** — the loaded graph must be *indistinguishable* from the
  parsed one: same fingerprint, byte-identical N-Triples serialisation,
  identical index statistics and identical SPARQL results, so serving
  from a snapshot can never change an answer.

Measurements land in ``BENCH_snapshot.json`` (CI uploads it as an artifact
next to ``BENCH_concurrent.json`` / ``BENCH_sparql.json``).
"""

from __future__ import annotations


import pytest
from conftest import BENCH_SCALE, best_of, build_kg, perf_gate, record_bench, scaled

from repro.rdf.graph import Graph
from repro.storage import load_snapshot, save_snapshot

#: Scaled with REPRO_BENCH_SCALE: full scale is the fixed-size KG the
#: concurrent gate serves (about 12k triples / 3.9k terms); the CI smoke
#: scale shrinks it 4x.
KG_EXTRA_RECIPES = scaled(400)
KG_EXTRA_INGREDIENTS = scaled(200)

#: The load-vs-parse speedup floor.  Fixed per-call overheads (file IO,
#: header validation, index bootstrap) are amortised over 4x fewer triples
#: at smoke scale, so the floor relaxes there; the honest >=10x claim is
#: gated at full scale (where the measured ratio is ~13x).
SPEEDUP_FLOOR = 10.0 if BENCH_SCALE >= 1.0 else 5.0

REPEATS = 5

#: A planner-exercising query both graphs must answer identically.
PROBE_QUERY = """
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
SELECT ?s ?label WHERE {
    ?s rdf:type ?cls .
    ?s rdfs:label ?label .
}
"""


@pytest.fixture(scope="module")
def bench_graph():
    """The synthetic benchmark KG (catalog is not needed here)."""
    _, graph = build_kg(extra_recipes=KG_EXTRA_RECIPES,
                        extra_ingredients=KG_EXTRA_INGREDIENTS)
    return graph


def test_snapshot_load_is_10x_faster_than_turtle_rebuild(bench_graph, tmp_path):
    graph = bench_graph
    turtle = graph.serialize("turtle")
    snap_path = str(tmp_path / "bench.snap")

    save_seconds, save_stats = best_of(
        REPEATS, lambda: save_snapshot(snap_path, graph))

    parse_seconds, parsed = best_of(REPEATS, lambda: Graph().parse(turtle))
    load_seconds, loaded_snapshot = best_of(
        REPEATS, lambda: load_snapshot(snap_path))
    loaded = loaded_snapshot.graph

    ratio = parse_seconds / load_seconds

    # --- fidelity: the snapshot round-trip must be invisible -----------
    assert len(loaded) == len(graph) == len(parsed)
    assert loaded.fingerprint() == graph.fingerprint()
    assert loaded.index_stats() == graph.index_stats()
    # N-Triples serialisation is sorted, so byte equality is a full
    # content comparison that is independent of term IDs.
    assert loaded.serialize("ntriples") == parsed.serialize("ntriples")
    probe_loaded = {tuple(map(str, row)) for row in loaded.query(PROBE_QUERY)}
    probe_parsed = {tuple(map(str, row)) for row in parsed.query(PROBE_QUERY)}
    assert probe_loaded == probe_parsed and probe_loaded, \
        "snapshot-loaded graph answered the probe query differently"

    print(f"\nsnapshot store: {len(graph)} triples / {save_stats['terms']} terms; "
          f"turtle parse {parse_seconds * 1000:.1f} ms vs snapshot load "
          f"{load_seconds * 1000:.1f} ms -> {ratio:.1f}x "
          f"(save {save_seconds * 1000:.1f} ms, {save_stats['bytes']} bytes)")
    record_bench("BENCH_snapshot.json", "snapshot_load_vs_turtle_parse", {
        "triples": len(graph),
        "terms": save_stats["terms"],
        "snapshot_bytes": save_stats["bytes"],
        "turtle_bytes": len(turtle.encode("utf-8")),
        "save_ms": round(save_seconds * 1000, 2),
        "parse_ms": round(parse_seconds * 1000, 2),
        "load_ms": round(load_seconds * 1000, 2),
        "speedup": round(ratio, 2),
        "speedup_floor": SPEEDUP_FLOOR,
        "bench_scale": BENCH_SCALE,
    })
    perf_gate(ratio >= SPEEDUP_FLOOR,
              f"snapshot load must be >={SPEEDUP_FLOOR:.0f}x faster than the "
              f"turtle rebuild, got {ratio:.1f}x "
              f"(parse {parse_seconds:.4f}s vs load {load_seconds:.4f}s)")
