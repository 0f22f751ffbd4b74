"""Property-based fuzzing of snapshot bytes (`repro.storage.load_snapshot`).

The seed is a small real snapshot: a base graph, its stored base closure
and two labelled closure entries stored against it.  Each example mutates it
(byte flips, truncation, insertion, rewritten header counters) and loads
the mutant twice: once with its stored CRC-32, and once with the CRC
recomputed over the edited bytes, so the decoder's own structural checks
are reached instead of stopping at the checksum.  Whatever the bytes, a
load returns within a few seconds and either succeeds with the header's
triple count or raises :class:`SnapshotError` — never another exception.
"""

from __future__ import annotations

import struct
import time
import zlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.owl import Reasoner
from repro.owl.vocabulary import RDF_TYPE, RDFS_SUBCLASSOF
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal
from repro.storage import ClosureEntry, SnapshotError, load_snapshot, save_snapshot

FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

EX = "http://example.org/"
HEADER_SIZE = 48
CRC_OFFSET = 44
#: Header counters the decoder trusts after the CRC: name -> (offset, format).
HEADER_FIELDS = {
    "term_count": (8, "<Q"),
    "triple_count": (16, "<Q"),
    "payload_len": (24, "<Q"),
    "closure_count": (40, "<I"),
}
LOAD_SECONDS = 5.0


def _seed_graphs():
    base = Graph()
    base.namespace_manager.bind("ex", EX)
    chain = ["Puppy", "Dog", "Canine", "Mammal", "Animal", "Thing"]
    for child, parent in zip(chain, chain[1:]):
        base.add((IRI(EX + child), RDFS_SUBCLASSOF, IRI(EX + parent)))
    base.add((IRI(EX + "rex"), RDF_TYPE, IRI(EX + "Puppy")))
    base.add((IRI(EX + "rex"), IRI(EX + "name"), Literal("Rex")))
    base.add((IRI(EX + "rex"), IRI(EX + "age"), Literal(7)))
    base.add((IRI(EX + "rex"), IRI(EX + "motto"), Literal("wuff", language="de")))
    entries = []
    for tag in ("tenant-a", "tenant-b"):
        asserted = base.copy()
        asserted.add((IRI(EX + tag), RDF_TYPE, IRI(EX + "Dog")))
        entries.append(ClosureEntry(asserted=asserted, closure=Reasoner(asserted).run(),
                                    label=tag))
    return base, entries


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("snapshot-fuzz")


@pytest.fixture(scope="module")
def seed(scratch):
    base, entries = _seed_graphs()
    path = scratch / "seed.snap"
    save_snapshot(str(path), base, closures=entries)
    return path.read_bytes()


def _with_crc(data: bytes) -> bytes:
    """``data`` with its CRC field recomputed over the (edited) bytes."""
    if len(data) < HEADER_SIZE:
        return data
    crc = zlib.crc32(data[HEADER_SIZE:], zlib.crc32(data[:CRC_OFFSET])) & 0xFFFFFFFF
    return data[:CRC_OFFSET] + struct.pack("<I", crc) + data[HEADER_SIZE:]


def _mutate(data: bytes, mutations) -> bytes:
    out = bytearray(data)
    for kind, *args in mutations:
        if kind == "flip":
            position, mask = args
            if out:
                out[position % len(out)] ^= mask
        elif kind == "truncate":
            del out[args[0] % (len(out) + 1):]
        elif kind == "insert":
            position, chunk = args
            out[position % (len(out) + 1):position % (len(out) + 1)] = chunk
        else:
            name, (how, value) = args
            offset, fmt = HEADER_FIELDS[name]
            size = struct.calcsize(fmt)
            if len(out) < offset + size:
                continue
            (current,) = struct.unpack_from(fmt, out, offset)
            limit = (1 << (8 * size)) - 1
            new = current + value if how == "delta" else value
            struct.pack_into(fmt, out, offset, min(max(new, 0), limit))
    return bytes(out)


def _load(path, data: bytes, crc_recomputed: bool) -> None:
    path.write_bytes(data)
    start = time.perf_counter()
    try:
        snapshot = load_snapshot(str(path))
    except SnapshotError as error:
        if crc_recomputed:
            assert "CRC" not in str(error), "a recomputed CRC must pass the checksum"
    else:
        (triple_count,) = struct.unpack_from("<Q", data, HEADER_FIELDS["triple_count"][0])
        assert len(snapshot.graph) == triple_count
    assert time.perf_counter() - start < LOAD_SECONDS


_POSITION = st.integers(0, 1 << 20)
MUTATION = st.one_of(
    st.tuples(st.just("flip"), _POSITION, st.integers(1, 255)),
    st.tuples(st.just("truncate"), _POSITION),
    st.tuples(st.just("insert"), _POSITION, st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("rewrite"), st.sampled_from(sorted(HEADER_FIELDS)),
              st.one_of(st.tuples(st.just("delta"), st.integers(-4, 4)),
                        st.tuples(st.just("set"), st.sampled_from(
                            [0, 1, 2, 1 << 31, (1 << 32) - 1, (1 << 63) - 1,
                             (1 << 64) - 1])))),
)


def test_seed_has_a_base_closure_section_and_two_labelled_entries(seed, scratch):
    base, (first, second) = _seed_graphs()
    path = scratch / "seed-check.snap"
    path.write_bytes(seed)
    loaded = load_snapshot(str(path))
    assert loaded.base_closure is not None
    assert set(loaded.base_closure) == set(Reasoner(base).run())
    assert len(loaded.base_closure) > len(base)
    assert [entry.label for entry in loaded.closures] == ["tenant-a", "tenant-b"]
    assert set(loaded.closures[0].closure) == set(first.closure)
    assert set(loaded.closures[1].closure) == set(second.closure)


@FUZZ
@given(mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_mutated_snapshots_load_or_raise_snapshot_error(seed, scratch, mutations):
    data = _mutate(seed, mutations)
    path = scratch / "mutant.snap"
    _load(path, data, crc_recomputed=False)
    _load(path, _with_crc(data), crc_recomputed=True)


@FUZZ
@given(position=st.integers(HEADER_SIZE, 1 << 20), mask=st.integers(1, 255))
def test_payload_flips_past_the_crc_reach_the_decoder(seed, scratch, position, mask):
    data = bytearray(seed)
    data[HEADER_SIZE + position % (len(seed) - HEADER_SIZE)] ^= mask
    _load(scratch / "flipped.snap", _with_crc(bytes(data)), crc_recomputed=True)
