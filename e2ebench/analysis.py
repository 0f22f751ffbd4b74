"""Metrics from client records and from the traced server's spans."""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence

from client import Record
from workloads import EXPLANATION_TYPES

#: Layers of the ask path, keyed by the span name's first dotted part.
LAYERS = (
    ("server", "service.server"),
    ("shards", "service.shards"),
    ("service", "service.service"),
    ("questions", "core.questions"),
    ("scenario", "core.scenario"),
    ("closure", "owl.closure"),
    ("reasoner", "owl.reasoner"),
    ("sparql", "sparql"),
    ("generate", "core.generators"),
    ("graph", "rdf.graph"),
)
LAYER_OF = dict(LAYERS)
TEMPLATES = ("contextual", "contrastive", "counterfactual", "adhoc")
PLANNER_KEYS = ("plans_compiled", "plan_cache_hits", "reorderings_applied",
                "filters_pushed", "bgps_evaluated", "encoded_bgps", "hash_join_probes",
                "hash_join_reuses", "estimated_rows", "actual_rows")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _ms(values: Iterable[float]) -> List[float]:
    return [v * 1000.0 for v in values]


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------
def client_metrics(records: List[Record], start: float, end: float,
                   wrong: int) -> Dict[str, float]:
    """End-to-end numbers as the client saw them in one window.

    ``wrong`` counts 2xx answers the oracle rejected.
    """
    ok = [r for r in records if r.status == 200]
    asks = _ms(r.seconds for r in ok if r.op.kind == "ask")
    updates = _ms(r.seconds for r in ok if r.op.kind == "update")
    non_2xx = len(records) - len(ok)
    return {
        "asks": float(len(asks)),
        "updates": float(len(updates)),
        "throughput_ops_s": (len(ok) - wrong) / max(end - start, 1e-9),
        "ask_p50_ms": percentile(asks, 0.50),
        "ask_p90_ms": percentile(asks, 0.90),
        "ask_p95_ms": percentile(asks, 0.95),
        "ask_p99_ms": percentile(asks, 0.99),
        "update_p50_ms": percentile(updates, 0.50),
        "update_p95_ms": percentile(updates, 0.95),
        "error_ratio": (non_2xx + wrong) / max(len(records), 1),
    }


# ----------------------------------------------------------------------
# Trace side
# ----------------------------------------------------------------------
class Trace:
    """The spans of one traced window, indexed for self-time queries."""

    def __init__(self, payload: dict) -> None:
        self.payload = payload
        begin, finish = payload["window"]
        self.spans = {s[0]: s for s in payload["spans"]
                      if s[3] >= begin and s[4] <= finish}
        self.children: Dict[int, List[int]] = defaultdict(list)
        for span_id, parent, _, _, _ in self.spans.values():
            if parent is not None:
                self.children[parent].append(span_id)
        self.begin, self.finish = begin, finish

    def duration(self, span_id: int) -> float:
        span = self.spans[span_id]
        return span[4] - span[3]

    def self_time(self, span_id: int) -> float:
        own = self.duration(span_id) - sum(
            self.duration(c) for c in self.children.get(span_id, ()))
        return max(own, 0.0)

    def named(self, name: str) -> List[int]:
        return [s[0] for s in self.spans.values() if s[2] == name]

    def prefixed(self, prefix: str) -> List[int]:
        return [s[0] for s in self.spans.values() if s[2].startswith(prefix)]

    def durations_ms(self, ids: Iterable[int]) -> List[float]:
        return _ms(self.duration(i) for i in ids)

    def self_ms(self, ids: Iterable[int]) -> List[float]:
        return _ms(self.self_time(i) for i in ids)

    def counter(self, name: str) -> float:
        counters = self.payload["counters"]
        return counters["end"].get(name, 0.0) - counters["start"].get(name, 0.0)

    def in_window(self, stamp: float) -> bool:
        return self.begin <= stamp <= self.finish

    def ask_breakdown(self) -> Dict[str, List[float]]:
        """Per /ask request: self time summed by layer (seconds)."""
        paths = {sid: path for sid, path, _ in self.payload["requests"]}
        per_layer: Dict[str, List[float]] = defaultdict(list)
        for root in self.named("server"):
            if paths.get(root) != "/ask":
                continue
            totals: Dict[str, float] = defaultdict(float)
            pending = [root]
            while pending:
                span_id = pending.pop()
                layer = LAYER_OF[self.spans[span_id][2].split(".")[0]]
                totals[layer] += self.self_time(span_id)
                pending.extend(self.children.get(span_id, ()))
            totals["total"] = self.duration(root)
            for _, layer in LAYERS + (("", "total"),):
                per_layer[layer].append(totals.get(layer, 0.0))
        return per_layer


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace: Trace) -> Dict[str, float]:
    """Every per-layer metric of one traced window."""
    m: Dict[str, float] = {}
    statuses = [status for sid, _, status in trace.payload["requests"]
                if sid in trace.spans]
    servers = trace.named("server")
    m["server.requests"] = float(len(servers))
    m["server.self_ms_p50"] = percentile(trace.self_ms(servers), 0.50)
    m["server.status_4xx"] = float(sum(1 for s in statuses if 400 <= s < 500))
    m["server.status_5xx"] = float(sum(1 for s in statuses if s >= 500))

    waits = trace.durations_ms(trace.named("shards.queue"))
    m["shards.queue_wait_ms_p50"] = percentile(waits, 0.50)
    m["shards.queue_wait_ms_p95"] = percentile(waits, 0.95)
    m["shards.rejected"] = trace.counter("shards.rejected")
    m["shards.retries"] = float(sum(1 for t in trace.payload["retries"]
                                    if trace.in_window(t)))

    hits = trace.counter("service.scenario_hits")
    m["service.scenario_hit_ratio"] = _ratio(
        hits, hits + trace.counter("service.scenario_misses"))
    m["service.explain_self_ms_p50"] = percentile(
        trace.self_ms(trace.named("service.explain")), 0.50)

    m["questions.parse_ms_p50"] = percentile(
        trace.durations_ms(trace.named("questions.parse")), 0.50)

    for kind, plural in (("build", "builds"), ("update", "updates")):
        ids = trace.named(f"scenario.{kind}")
        m[f"scenario.{plural}"] = float(len(ids))
        m[f"scenario.{kind}_ms_p50"] = percentile(trace.durations_ms(ids), 0.50)
    m["scenario.snapshot_ms_p50"] = percentile(
        trace.durations_ms(trace.named("scenario.snapshot")), 0.50)

    closure_hits = trace.counter("closure.hits")
    m["closure.misses"] = trace.counter("closure.misses")
    m["closure.extensions"] = trace.counter("closure.extensions")
    m["closure.hit_ratio"] = _ratio(
        closure_hits, closure_hits + m["closure.misses"] + m["closure.extensions"])
    m["closure.single_flight_waits"] = trace.counter("closure.single_flight_waits")

    runs = trace.durations_ms(trace.named("reasoner.run"))
    m["reasoner.runs"] = float(len(runs))
    m["reasoner.run_ms_p50"] = percentile(runs, 0.50)
    m["reasoner.run_ms_total"] = sum(runs)
    reports = [r for r in trace.payload["reasoner_reports"] if trace.in_window(r[0])]
    m["reasoner.inferred_per_s"] = _ratio(sum(r[1] for r in reports),
                                          sum(r[2] for r in reports))
    extends = trace.durations_ms(trace.named("reasoner.extend"))
    m["reasoner.extends"] = float(len(extends))
    m["reasoner.extend_ms_p50"] = percentile(extends, 0.50)

    evals = trace.prefixed("sparql.")
    m["sparql.evals"] = float(len(evals))
    m["sparql.eval_ms_p50"] = percentile(trace.durations_ms(evals), 0.50)
    for template in TEMPLATES:
        m[f"sparql.{template}.eval_ms_p50"] = percentile(
            trace.durations_ms(trace.named(f"sparql.{template}")), 0.50)
    rows = [n for sid, n in trace.payload["rows"] if sid in trace.spans]
    m["sparql.rows_per_eval"] = _ratio(sum(rows), len(rows))
    prepared_hits = trace.counter("prepared.hits")
    m["sparql.prepared_hit_ratio"] = _ratio(
        prepared_hits, prepared_hits + trace.counter("prepared.misses"))
    for key in PLANNER_KEYS:
        m[f"sparql.planner.{key}"] = trace.counter(f"planner.{key}")

    for kind in EXPLANATION_TYPES:
        m[f"generate.{kind}.self_ms_p50"] = percentile(
            trace.self_ms(trace.named(f"generate.{kind}")), 0.50)

    copies = trace.durations_ms(trace.named("graph.copy"))
    m["graph.copies"] = float(len(copies))
    m["graph.copy_ms_total"] = sum(copies)
    m["store.terms_interned"] = trace.counter("store.interned_terms")

    snapshot = trace.payload["snapshot"]
    m["snapshot.load_ms"] = snapshot.get("load_ms", 0.0)
    m["snapshot.bytes"] = snapshot.get("bytes", 0.0)

    pauses = [p for p in trace.payload["gc_pauses"] if trace.in_window(p[0])]
    m["gc.gen2_collections"] = float(sum(1 for p in pauses if p[2] == 2))
    m["gc.pause_ms_total"] = sum(p[1] for p in pauses) * 1000.0
    m["gc.pause_ms_max"] = max((p[1] for p in pauses), default=0.0) * 1000.0

    breakdown = trace.ask_breakdown()
    total = sum(breakdown.get("total", ()))
    for _, layer in LAYERS:
        m[f"ask_share.{layer}"] = _ratio(sum(breakdown.get(layer, ())), total)
    return m


def breakdown_table(trace: Trace) -> List[str]:
    """The "where an ask's time goes" table, one line per layer."""
    breakdown = trace.ask_breakdown()
    asks = len(breakdown.get("total", ()))
    total = sum(breakdown.get("total", ()))
    lines = [f"where an ask's time goes ({asks} traced asks, "
             f"mean {_ratio(total, asks) * 1000.0:.2f} ms in the handler):",
             f"  {'layer':18s} {'self ms/ask':>12s} {'p50 ms':>8s} {'share':>7s}"]
    for _, layer in LAYERS:
        values = breakdown.get(layer, [])
        lines.append(f"  {layer:18s} {_ratio(sum(values), asks) * 1000.0:12.3f} "
                     f"{percentile(values, 0.5) * 1000.0:8.3f} "
                     f"{_ratio(sum(values), total):7.1%}")
    return lines
