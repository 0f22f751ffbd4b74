"""Struct-packed binary snapshots of a graph family, closures included.

A snapshot is the on-disk image of one dictionary-encoded graph family:
the append-only term table (with kind codes), the encoded triple set as a
flat ID array, the SPO/POS/OSP index metadata and per-predicate counters
used to validate the rebuild, the namespace bindings, and any cached
deductive closures stored as ID-deltas.  Loading re-interns the term
table in ID order (the fresh dictionary assigns the identical IDs
0..n-1) and bulk-inserts the triple array through the graph's encoded
fast path — no tokenising, no term validation, no re-reasoning — which
is why a snapshot load beats a turtle re-parse by an order of magnitude
and a closure-bearing snapshot skips materialisation entirely.

Closures are stored against the **base closure**: every scenario closure
is the base graph's closure plus a per-scenario sliver (see
:class:`repro.owl.closure.BaseClosure`).  A snapshot with closure entries
stores that closure once, as the triples it adds to the base graph, and
each entry's closure as its added/removed triples against it.  The loader
rebuilds the base closure as a frozen COW child of the base graph and each
entry's closure as a COW child of that; a service that adopts it
(``ScenarioBuilder(base_closure=...)``) extends it on its first miss
instead of reasoning the base.  Without entries there is no such section.

File layout (all integers little-endian)::

    header   magic "RSNP" | u16 version | u16 flags | u64 term_count
             | u64 triple_count | u64 payload_len | i64 fingerprint_hash
             | u32 closure_count | u32 crc32
    payload  namespaces | term table | triple IDs (u32[3*n]) | index metadata
             | base closure delta (if closure_count > 0) | closure entries
    entry    label flag [label] | asserted delta vs the base graph
             | closure delta vs the base closure | post-process triples
    delta    added | removed triples (each u32 count + u32[3*count])

Validation happens *before* any data is trusted: the magic and format
version gate decoding, ``payload_len`` catches truncation, and the CRC-32
— seeded over the header prefix, then run across the payload, so it
covers every file byte except its own field — catches corruption.  After the rebuild the triple
count, the distinct subject/predicate/object counts and the per-predicate
counters are compared against the stored metadata, so a decode bug can
never hand back a silently different graph.  Every failure raises a typed
:class:`SnapshotError` and the caller receives **no graph at all** —
never a partial one.

The header also carries the base graph's O(1)
:meth:`~repro.rdf.graph.Graph.fingerprint` hash.  Within one process a
reloaded graph reproduces it exactly (the content hash is term-content
based, not ID based), which is what the round-trip property tests pin
down; *across* processes Python's salted string hashing makes the hash
incomparable, so cross-process integrity rests on the CRC and the
structural checks, and closure entries are re-keyed by recomputing their
rebuilt asserted graphs' fingerprints in the loading process.
"""

from __future__ import annotations

import gc
import os
import struct
import sys
import tempfile
import zlib
from array import array
from collections import Counter
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from functools import reduce
from operator import xor
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..owl.reasoner import Reasoner
from ..rdf.dictionary import KIND_BNODE, KIND_IRI, KIND_LITERAL
from ..rdf.graph import EncodedTriple, Graph, Triple
from ..rdf.terms import (
    BNode,
    IRI,
    Literal,
    Term,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_FLOAT,
    XSD_INTEGER,
    XSD_STRING,
)

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "SnapshotError",
    "ClosureEntry",
    "GraphSnapshot",
    "save_snapshot",
    "load_snapshot",
]

MAGIC = b"RSNP"
#: Version 3 stores the base closure once and every entry's closure as a
#: delta against it.  Version 2 chained each closure to the base graph or
#: to the previous entry's closure; its files are rejected.
FORMAT_VERSION = 3

#: magic, version, flags, term_count, triple_count, payload_len,
#: fingerprint_hash, closure_count, payload_crc32
_HEADER = struct.Struct("<4sHHQQQqII")
_U32 = struct.Struct("<I")

#: Term-table kind codes.  Literals split into plain / language-tagged /
#: datatyped so decoding never has to sniff which optional field follows.
_T_IRI = 0
_T_BNODE = 1
_T_LIT_PLAIN = 2
_T_LIT_LANG = 3
_T_LIT_TYPED = 4

_U32_MAX = 0xFFFFFFFF


def _bool_value(text: str):
    if text in ("true", "1"):
        return True
    if text in ("false", "0"):
        return False
    return text


def _int_value(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def _float_value(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _decimal_value(text: str):
    try:
        return Decimal(text)
    except InvalidOperation:
        return text


#: Datatype-string → value parser, mirroring ``Literal._parse_value``
#: exactly but dispatched once per datatype instead of via a chain of IRI
#: equality tests per literal.  Absent datatypes fall back to the lexical
#: form, as ``_parse_value`` does.
_VALUE_PARSERS = {
    str(XSD_BOOLEAN): _bool_value,
    str(XSD_INTEGER): _int_value,
    str(XSD_DOUBLE): _float_value,
    str(XSD_FLOAT): _float_value,
    str(XSD_DECIMAL): _decimal_value,
}


class SnapshotError(RuntimeError):
    """A snapshot could not be written or is not loadable as saved.

    Raised for wrong magic/version, truncation, CRC mismatch, malformed
    payloads and post-rebuild consistency failures.  A failed load never
    returns a partially-populated graph.
    """


@dataclass(frozen=True)
class ClosureEntry:
    """One persisted closure: an asserted graph and its reasoned closure.

    Both graphs must belong to the snapshot base graph's family (share its
    term dictionary); they are stored as ID-deltas against the base graph
    and the base closure respectively, and load as COW children of them.
    ``post_added`` records the triples the closure's post-process pass
    appended (see :class:`repro.owl.closure.MaterializationCache`), so the
    incremental-extension path keeps working after a reload.  ``label`` is
    an optional routing key — a sharded service seeds a labelled entry
    only onto the label's home shard, unlabelled entries onto every shard.
    """

    asserted: Graph
    closure: Graph
    post_added: Tuple[Triple, ...] = ()
    label: Optional[str] = None


@dataclass
class GraphSnapshot:
    """A loaded snapshot: the rebuilt base graph plus its closure entries."""

    graph: Graph
    closures: List[ClosureEntry] = field(default_factory=list)
    #: The base graph's frozen closure, parent of every entry's closure
    #: (``None`` without entries).
    base_closure: Optional[Graph] = None
    #: The fingerprint recorded at save time.  Comparable to
    #: ``graph.fingerprint()`` only within the saving process (hash salt).
    saved_fingerprint: Tuple[int, int] = (0, 0)
    #: Header/term/triple counters for display (``repro snapshot load``).
    stats: Dict[str, int] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def _pack_str(out: List[bytes], text: str) -> None:
    raw = text.encode("utf-8")
    out.append(_U32.pack(len(raw)))
    out.append(raw)


def _pack_term(out: List[bytes], term: Term) -> None:
    if isinstance(term, Literal):
        if term.language is not None:
            out.append(bytes((_T_LIT_LANG,)))
            _pack_str(out, term.lexical)
            _pack_str(out, term.language)
        elif term.datatype is not None:
            out.append(bytes((_T_LIT_TYPED,)))
            _pack_str(out, term.lexical)
            _pack_str(out, str(term.datatype))
        else:
            out.append(bytes((_T_LIT_PLAIN,)))
            _pack_str(out, term.lexical)
    elif isinstance(term, IRI):
        out.append(bytes((_T_IRI,)))
        _pack_str(out, str(term))
    elif isinstance(term, BNode):
        out.append(bytes((_T_BNODE,)))
        _pack_str(out, str(term))
    else:  # pragma: no cover - the dictionary only interns the three kinds
        raise SnapshotError(f"cannot serialise term {term!r}")


def _pack_id_array(ids: Sequence[int]) -> bytes:
    arr = array("I", ids)
    if sys.byteorder == "big":  # pragma: no cover - LE hosts everywhere we run
        arr.byteswap()
    return arr.tobytes()


def _pack_triples(out: List[bytes], triples: Iterable[EncodedTriple]) -> int:
    """Append ``u32 count`` + flattened sorted triple IDs; return the count."""
    ordered = sorted(triples)
    flat: List[int] = []
    for s, p, o in ordered:
        flat.append(s)
        flat.append(p)
        flat.append(o)
    out.append(_U32.pack(len(ordered)))
    out.append(_pack_id_array(flat))
    return len(ordered)


def _pack_delta(out: List[bytes], triples: Set[EncodedTriple],
                reference: Set[EncodedTriple]) -> None:
    """Append ``triples`` as what it adds to and removes from ``reference``."""
    _pack_triples(out, triples - reference)
    _pack_triples(out, reference - triples)


def _encode_term_triples(graph: Graph, triples: Iterable[Triple],
                         what: str) -> List[EncodedTriple]:
    encoded: List[EncodedTriple] = []
    lookup = graph._dict.ids.get
    for s, p, o in triples:
        es, ep, eo = lookup(s), lookup(p), lookup(o)
        if es is None or ep is None or eo is None:
            raise SnapshotError(
                f"{what} triple ({s!r}, {p!r}, {o!r}) uses terms unknown to "
                "the snapshot base graph's dictionary"
            )
        encoded.append((es, ep, eo))
    return encoded


def save_snapshot(path: Union[str, "object"], graph: Graph,
                  closures: Iterable[ClosureEntry] = ()) -> Dict[str, int]:
    """Write ``graph`` (and optional closure entries) to ``path``, atomically.

    The bytes go to a same-directory temporary file which is flushed,
    ``os.fsync``'d and then ``os.replace``'d onto ``path`` — so a crash
    (or an injected torn write) at any point leaves either the old
    snapshot or the new one at ``path``, never a partial file that would
    clobber the last good image.  The temp file is removed on failure.

    Returns a summary dict (term/triple/closure counts and file size).
    Raises :class:`SnapshotError` if a closure entry does not share the
    base graph's term dictionary, or if the family is too large for the
    u32 ID encoding (never in practice: 4.3 billion terms).
    """
    closure_list = list(closures)
    for entry in closure_list:
        if entry.asserted._dict is not graph._dict or entry.closure._dict is not graph._dict:
            raise SnapshotError(
                "closure entries must belong to the snapshot base graph's "
                "family (share its term dictionary)"
            )

    dictionary = graph._dict
    term_count = len(dictionary.terms)
    triple_count = len(graph)
    if term_count > _U32_MAX or triple_count > _U32_MAX:
        raise SnapshotError("graph family exceeds the u32 snapshot encoding")

    out: List[bytes] = []
    # 1. Namespace bindings.
    bindings = list(graph.namespaces())
    out.append(_U32.pack(len(bindings)))
    for prefix, namespace in bindings:
        _pack_str(out, prefix)
        _pack_str(out, str(namespace))
    # 2. Term table, in ID order: re-interning in this order reassigns the
    #    identical IDs, so the triple arrays need no translation.
    for term in dictionary.terms:
        _pack_term(out, term)
    # 3. The base triple set.
    base_triples = set(graph.triples_ids())
    _pack_triples(out, base_triples)
    # 4. Index metadata: the rebuild must reproduce these exactly.
    index_stats = graph.index_stats()
    out.append(struct.pack("<III", index_stats["subjects"],
                           index_stats["predicates"], index_stats["objects"]))
    pred_counts = graph._pred_counts
    out.append(_U32.pack(len(pred_counts)))
    for pid in sorted(pred_counts):
        out.append(struct.pack("<II", pid, pred_counts[pid]))
    # 5. Closures as ID-deltas: the base closure (reasoned as
    #    BaseClosure.closure() does, on a copy, so ``graph`` stays as it
    #    is) against the base, then each entry against base and closure.
    if closure_list:
        base_closure = set(Reasoner(graph).run().triples_ids())
        _pack_delta(out, base_closure, base_triples)
    for entry in closure_list:
        if entry.label is None:
            out.append(b"\x00")
        else:
            out.append(b"\x01")
            _pack_str(out, entry.label)
        _pack_delta(out, set(entry.asserted.triples_ids()), base_triples)
        _pack_delta(out, set(entry.closure.triples_ids()), base_closure)
        _pack_triples(out, _encode_term_triples(graph, entry.post_added,
                                                "post-process"))

    payload = b"".join(out)
    size, content_hash = graph.fingerprint()
    # The CRC is the last header field and covers everything else in the
    # file — header prefix and payload — so any single corrupted byte is
    # a typed load failure.
    prefix = _HEADER.pack(MAGIC, FORMAT_VERSION, 0, term_count, triple_count,
                          len(payload), content_hash, len(closure_list),
                          0)[:-_U32.size]
    crc = zlib.crc32(payload, zlib.crc32(prefix)) & 0xFFFFFFFF
    _write_atomic(str(path), prefix + _U32.pack(crc) + payload)
    return {
        "terms": term_count,
        "triples": triple_count,
        "closures": len(closure_list),
        "bytes": _HEADER.size + len(payload),
    }


#: Chunk size for the atomic writer.  Chunked writes give the fault
#: injector (site ``snapshot_write``, fired once per chunk) realistic torn
#: -write points mid-image, exactly like a crash partway through a save.
_WRITE_CHUNK = 1 << 20


def _write_atomic(path: str, data: bytes) -> None:
    """Spill ``data`` to a same-directory temp file, fsync, then rename.

    ``os.replace`` is atomic on POSIX and Windows for same-filesystem
    paths, which the same-directory temp file guarantees; the fsync
    before it makes sure the rename can never publish a file whose bytes
    are still in the page cache only.
    """
    from ..testing import faults

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(prefix=os.path.basename(path) + ".tmp.",
                                    dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            for offset in range(0, len(data), _WRITE_CHUNK):
                if faults.ACTIVE is not None:
                    faults.ACTIVE.fire("snapshot_write", path=path,
                                       offset=offset)
                handle.write(data[offset:offset + _WRITE_CHUNK])
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
class _Reader:
    """A bounds-checked cursor over the payload bytes.

    Used for the cold sections (namespaces, index metadata, closure
    deltas).  The hot term-table loop bypasses it — see
    :func:`_rebuild_dictionary` — because per-field method calls dominate
    an order-of-magnitude load at scale.
    """

    __slots__ = ("data", "offset")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def take(self, count: int) -> bytes:
        end = self.offset + count
        if end > len(self.data):
            raise SnapshotError("snapshot payload is truncated")
        chunk = self.data[self.offset:end]
        self.offset = end
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def text(self) -> str:
        return self.take(self.u32()).decode("utf-8")

    def id_array(self, count: int) -> array:
        arr = array("I")
        arr.frombytes(self.take(4 * count))
        if sys.byteorder == "big":  # pragma: no cover - LE hosts
            arr.byteswap()
        return arr

    def triples(self, term_count: int) -> List[EncodedTriple]:
        count = self.u32()
        flat = self.id_array(3 * count)
        if flat and max(flat) >= term_count:
            raise SnapshotError("snapshot triple references an unknown term ID")
        it = iter(flat)
        return list(zip(it, it, it))


def _rebuild_dictionary(graph: Graph, reader: _Reader, term_count: int) -> None:
    """Populate the fresh graph's dictionary with IDs 0..term_count-1.

    This is the hottest decode loop, so it runs on flat local offsets
    with ``struct.unpack_from`` and builds the common term shapes by
    direct slot assignment instead of the public constructors (the
    constructors re-derive exactly the fields the snapshot already
    stores).  The CRC-32 has validated the payload byte-for-byte before
    this runs, and the bijectivity check below plus the caller's count
    comparisons reject any structurally inconsistent table.
    """
    data = reader.data
    pos = reader.offset
    unpack_u32 = _U32.unpack_from
    terms: List[Term] = []
    kinds: List[int] = []
    append_term = terms.append
    append_kind = kinds.append
    kind_counts = [0, 0, 0]
    str_new = str.__new__
    lit_new = Literal.__new__
    parsers = _VALUE_PARSERS.get
    datatype_cache: Dict[str, IRI] = {}
    for _ in range(term_count):
        kind = data[pos]
        (length,) = unpack_u32(data, pos + 1)
        pos += 5
        end = pos + length
        text = data[pos:end].decode("utf-8")
        pos = end
        if kind == _T_IRI:
            append_term(str_new(IRI, text))
            append_kind(KIND_IRI)
            kind_counts[KIND_IRI] += 1
            continue
        if kind == _T_LIT_PLAIN:
            literal = lit_new(Literal)
            literal._lexical = text
            literal._language = None
            literal._datatype = None
            literal._value = text
            literal._hash = None
            append_term(literal)
            append_kind(KIND_LITERAL)
            kind_counts[KIND_LITERAL] += 1
            continue
        if kind == _T_LIT_LANG or kind == _T_LIT_TYPED:
            (length,) = unpack_u32(data, pos)
            pos += 4
            end = pos + length
            extra = data[pos:end].decode("utf-8")
            pos = end
            literal = lit_new(Literal)
            literal._lexical = text
            literal._hash = None
            if kind == _T_LIT_LANG:
                # Saved from a constructed Literal, so already lowercased.
                literal._language = extra
                literal._datatype = None
                literal._value = text
            else:
                datatype = datatype_cache.get(extra)
                if datatype is None:
                    datatype = datatype_cache[extra] = IRI(extra)
                literal._language = None
                literal._datatype = datatype
                parser = parsers(extra)
                literal._value = text if parser is None else parser(text)
            append_term(literal)
            append_kind(KIND_LITERAL)
            kind_counts[KIND_LITERAL] += 1
            continue
        if kind == _T_BNODE:
            append_term(str_new(BNode, text))
            append_kind(KIND_BNODE)
            kind_counts[KIND_BNODE] += 1
            continue
        raise SnapshotError(f"unknown term kind code {kind} in snapshot")
    if pos > len(data):
        raise SnapshotError("snapshot payload is truncated")
    reader.offset = pos
    ids = {term: tid for tid, term in enumerate(terms)}
    if len(ids) != term_count:
        raise SnapshotError("snapshot term table is not bijective "
                            "(duplicate terms would remap IDs)")
    dictionary = graph._dict
    dictionary.terms = terms
    dictionary.kinds = kinds
    dictionary.hashes = list(map(hash, terms))
    dictionary.ids = ids
    dictionary._kind_counts = kind_counts


def _bulk_insert(graph: Graph, triples: List[EncodedTriple],
                 flat: array) -> None:
    """Insert a duplicate-free batch into a *fresh* graph.

    A snapshot rebuild starts from an empty graph with no journals and no
    shared (COW) index entries, so the general ``add_encoded_many`` path
    pays for checks that cannot fire here.  The content-hash fold and the
    per-predicate counters run as C-level passes over the flat ID array;
    one Python loop builds the three permutation indexes.
    """
    hashes = graph._dict.hashes
    hash_it = iter(map(hashes.__getitem__, flat))
    graph._content_hash = reduce(
        xor, map(hash, zip(hash_it, hash_it, hash_it)), graph._content_hash)
    graph._pred_counts.update(Counter(flat[1::3]))
    spo, pos_idx, osp = graph._spo, graph._pos, graph._osp
    for s, p, o in triples:
        entry = spo.get(s)
        if entry is None:
            spo[s] = {p: {o}}
        else:
            leaves = entry.get(p)
            if leaves is None:
                entry[p] = {o}
            else:
                leaves.add(o)
        entry = pos_idx.get(p)
        if entry is None:
            pos_idx[p] = {o: {s}}
        else:
            leaves = entry.get(o)
            if leaves is None:
                entry[o] = {s}
            else:
                leaves.add(s)
        entry = osp.get(o)
        if entry is None:
            osp[o] = {s: {p}}
        else:
            leaves = entry.get(s)
            if leaves is None:
                entry[s] = {p}
            else:
                leaves.add(p)
    # The leaf sets dedup, so the size is what they hold, not len(triples).
    graph._size = sum(len(objects) for by_pred in spo.values()
                      for objects in by_pred.values())


def _apply_delta(base: Graph, added: List[EncodedTriple],
                 removed: List[EncodedTriple]) -> Graph:
    clone = base.copy()
    for triple in removed:
        clone._discard(triple)
    clone.add_encoded_many(added)
    return clone


def load_snapshot(path: Union[str, "object"]) -> GraphSnapshot:
    """Load a snapshot written by :func:`save_snapshot`.

    Every validation failure — wrong magic or format version, truncation,
    CRC mismatch, malformed payload, or a rebuild that does not reproduce
    the stored counters — raises :class:`SnapshotError`; a partial graph
    is never returned.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    if len(data) < _HEADER.size:
        raise SnapshotError("snapshot file is truncated (incomplete header)")
    (magic, version, _flags, term_count, triple_count, payload_len,
     content_hash, closure_count, crc) = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise SnapshotError(f"not a graph snapshot (magic {magic!r})")
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot format version {version} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    if _flags:
        raise SnapshotError(
            f"unsupported snapshot flags 0x{_flags:04x} "
            f"(format version {FORMAT_VERSION} defines none)"
        )
    payload = data[_HEADER.size:]
    if len(payload) != payload_len:
        raise SnapshotError(
            f"snapshot payload is {len(payload)} bytes, header promises "
            f"{payload_len} (truncated or trailing garbage)"
        )
    if zlib.crc32(payload, zlib.crc32(data[:_HEADER.size - _U32.size])) \
            & 0xFFFFFFFF != crc:
        raise SnapshotError("snapshot failed its CRC-32 check "
                            "(corrupted header or payload)")

    # Everything decoded here is long-lived graph structure, so cyclic-GC
    # passes triggered by the allocation burst are pure overhead; pausing
    # collection for the duration is a significant win on large graphs.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        return _decode_payload(_Reader(payload), term_count, triple_count,
                               content_hash, closure_count)
    except SnapshotError:
        raise
    except Exception as exc:
        raise SnapshotError(f"malformed snapshot payload: {exc}") from exc
    finally:
        if gc_was_enabled:
            gc.enable()


def _decode_payload(reader: _Reader, term_count: int, triple_count: int,
                    content_hash: int, closure_count: int) -> GraphSnapshot:
    graph = Graph()
    # 1. Namespaces.
    for _ in range(reader.u32()):
        prefix = reader.text()
        graph.bind(prefix, reader.text())
    # 2. Term table.
    _rebuild_dictionary(graph, reader, term_count)
    # 3. Triples, through the fresh-graph bulk insert path.
    stored_count = reader.u32()
    flat = reader.id_array(3 * stored_count)
    if flat and max(flat) >= term_count:
        raise SnapshotError("snapshot triple references an unknown term ID")
    it = iter(flat)
    triples: List[EncodedTriple] = list(zip(it, it, it))
    if len(triples) != triple_count:
        raise SnapshotError(
            f"snapshot holds {len(triples)} triples, header promises "
            f"{triple_count}"
        )
    _bulk_insert(graph, triples, flat)
    # The index insert dedups, so a length mismatch means duplicates.
    if len(graph) != triple_count:
        raise SnapshotError("snapshot triple set contains duplicates")
    # 4. Index metadata must match the rebuild exactly.
    subjects, predicates, objects = struct.unpack("<III", reader.take(12))
    index_stats = graph.index_stats()
    if (index_stats["subjects"], index_stats["predicates"],
            index_stats["objects"]) != (subjects, predicates, objects):
        raise SnapshotError(
            "rebuilt SPO/POS/OSP indexes do not match the snapshot's stored "
            f"metadata (got {index_stats}, stored subjects={subjects} "
            f"predicates={predicates} objects={objects})"
        )
    stored_counts: Dict[int, int] = {}
    for _ in range(reader.u32()):
        pid, count = struct.unpack("<II", reader.take(8))
        stored_counts[pid] = count
    if stored_counts != graph._pred_counts:
        raise SnapshotError("rebuilt per-predicate counters do not match "
                            "the snapshot's stored counters")
    # 5. Closures, rebuilt as COW children: the base closure of the base
    #    graph, then each entry's closure of the frozen base closure.
    base_closure: Optional[Graph] = None
    if closure_count:
        added = reader.triples(term_count)
        if reader.triples(term_count):
            raise SnapshotError("the stored base closure removes base-graph "
                                "triples (a closure contains its graph)")
        base_closure = _apply_delta(graph, added, []).freeze()
    closures: List[ClosureEntry] = []
    for _ in range(closure_count):
        label: Optional[str] = None
        flag = reader.u8()
        if flag == 1:
            label = reader.text()
        elif flag != 0:
            raise SnapshotError(f"invalid closure label flag {flag}")
        asserted = _apply_delta(graph, reader.triples(term_count),
                                reader.triples(term_count))
        closure = _apply_delta(base_closure, reader.triples(term_count),
                               reader.triples(term_count))
        post_added = tuple(graph.decode_triple(t)
                           for t in reader.triples(term_count))
        closures.append(ClosureEntry(asserted=asserted, closure=closure,
                                     post_added=post_added, label=label))
    if reader.offset != len(reader.data):
        raise SnapshotError("snapshot payload has trailing bytes after the "
                            "last closure entry")
    return GraphSnapshot(
        graph=graph,
        closures=closures,
        base_closure=base_closure,
        saved_fingerprint=(triple_count, content_hash),
        stats={
            "terms": term_count,
            "triples": triple_count,
            "closures": closure_count,
            "bytes": _HEADER.size + len(reader.data),
        },
    )
