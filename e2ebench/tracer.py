"""Out-of-tree instrumentation for the traced server run.

:meth:`Tracer.install` wraps the public entry points of each layer —
HTTP handler, fleet, shard queue, service, question parser, scenario
builder, closure cache, reasoner, prepared SPARQL queries, explanation
generators, graph copies and the snapshot loader — without touching the
library.  Each call becomes a span ``(id, parent, name, start, end)``
kept in memory; parents come from a per-thread span stack, and a request
handed to a shard worker carries its fleet span as the parent across the
queue, so one ask's spans form one tree.  Process GC pauses are recorded
through ``gc.callbacks``.  Counters the library already keeps (cache
hits, planner stats, interned terms) are read at the window's start and
end and reported as differences.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.requests: List[tuple] = []   # (server span id, path, status)
        self.retries: List[float] = []
        self.rows: List[tuple] = []               # (sparql span id, rows)
        self.reasoner_reports: List[tuple] = []   # (end, inferred, seconds)
        self.gc_pauses: List[tuple] = []          # (start, seconds, generation)
        self.snapshot: Dict[str, float] = {}
        self.window: List[Optional[float]] = [None, None]
        self.counters: Dict[str, Dict[str, float]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._gc_start = 0.0
        self._fleet = None

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, owner, attr: str, name, after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a callable of the call's arguments;
        ``after(span_id, args, result)`` runs once the call returned.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = name(args) if callable(name) else name
                tracer.spans.append((span_id, parent, label, start, end))
            if after is not None:
                after(span_id, args, result)
            return result

        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's entry points; call before building anything."""
        from repro.core import generators
        from repro.core.queries import (contextual_template, contrastive_template,
                                        counterfactual_template)
        from repro.core.scenario import Scenario, ScenarioBuilder
        from repro.owl import MaterializationCache, Reasoner
        from repro.rdf.graph import Graph
        from repro.service import server, service, shards
        from repro.sparql import PreparedQuery

        tracer = self
        handler = server._Handler

        self._wrap(handler, "do_POST", "server",
                   after=lambda sid, args, _: tracer.requests.append(
                       (sid, args[0].path, getattr(tracer._local, "status", 0))))
        send_json = handler._send_json

        def capture_status(handler_self, status, *args, **kwargs):
            tracer._local.status = status
            return send_json(handler_self, status, *args, **kwargs)

        handler._send_json = capture_status

        fleet = shards.ShardedExplanationService
        self._wrap(fleet, "explain", "shards.explain")
        self._wrap(fleet, "update_scenario", "shards.update")
        self._wrap(fleet, "open_persona_session", "shards.session")
        retry_delay = fleet._retry_delay

        def count_retry(fleet_self, attempt):
            tracer.retries.append(clock())
            return retry_delay(fleet_self, attempt)

        fleet._retry_delay = count_retry
        submit = shards.ServiceShard.submit

        def traced_submit(shard_self, fn, *args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            queued = clock()

            def run_on_worker(*fn_args, **fn_kwargs):
                tracer.spans.append((next(tracer._ids), parent, "shards.queue",
                                     queued, clock()))
                worker_stack = tracer._stack()
                worker_stack.append(parent)
                try:
                    return fn(*fn_args, **fn_kwargs)
                finally:
                    worker_stack.pop()

            return submit(shard_self, run_on_worker, *args, **kwargs)

        shards.ServiceShard.submit = traced_submit

        self._wrap(service.ExplanationService, "explain", "service.explain")
        self._wrap(service.ExplanationService, "update_scenario", "service.update")
        self._wrap(service, "parse_question", "questions.parse")
        self._wrap(ScenarioBuilder, "build", "scenario.build")
        self._wrap(ScenarioBuilder, "update_scenario", "scenario.update")
        self._wrap(Scenario, "snapshot", "scenario.snapshot")
        self._wrap(MaterializationCache, "materialize", "closure.materialize")
        self._wrap(MaterializationCache, "extend", "closure.extend")
        self._wrap(Reasoner, "run", "reasoner.run",
                   after=lambda sid, args, _: tracer.reasoner_reports.append(
                       (clock(), args[0].report.inferred_triples,
                        args[0].report.elapsed_seconds)))
        self._wrap(Reasoner, "extend", "reasoner.extend")
        self._wrap(Graph, "copy", "graph.copy")

        templates = {
            contextual_template(match_ecosystem=True): "contextual",
            contextual_template(match_ecosystem=False): "contextual",
            contrastive_template(): "contrastive",
            counterfactual_template(): "counterfactual",
        }
        self._wrap(PreparedQuery, "evaluate",
                   lambda args: "sparql." + templates.get(args[0].text, "adhoc"),
                   after=lambda sid, args, result: tracer.rows.append((sid, len(result))))
        for cls in generators.__dict__.values():
            if (isinstance(cls, type) and issubclass(cls, generators.ExplanationGenerator)
                    and cls is not generators.ExplanationGenerator):
                self._wrap(cls, "generate", f"generate.{cls.explanation_type}")

        def traced_load(path, *args, **kwargs):
            start = clock()
            loaded = load(path, *args, **kwargs)
            tracer.snapshot = {"load_ms": (clock() - start) * 1000.0,
                               "bytes": float(os.path.getsize(path))}
            return loaded

        load = shards.load_snapshot
        shards.load_snapshot = traced_load
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = clock()
        else:
            self.gc_pauses.append((self._gc_start, clock() - self._gc_start,
                                   info.get("generation", -1)))

    # ------------------------------------------------------------------
    def attach(self, fleet) -> None:
        """Remember the fleet whose counters the window reads."""
        self._fleet = fleet

    def _read_counters(self) -> Dict[str, float]:
        from repro.sparql import planner_stats, prepared_cache

        out: Dict[str, float] = {}

        def add(prefix: str, values: Dict[str, Any]) -> None:
            for key, value in values.items():
                if isinstance(value, (int, float)):
                    out[f"{prefix}{key}"] = out.get(f"{prefix}{key}", 0.0) + value

        for shard in self._fleet.shards:
            svc = shard.service
            add("service.", {"scenario_hits": svc.scenario_cache_hits,
                             "scenario_misses": svc.scenario_cache_misses})
            add("shards.", {"rejected": shard.rejected})
            add("closure.", svc.engine.builder.closure_cache.stats())
        add("prepared.", prepared_cache().stats())
        add("planner.", planner_stats())
        add("store.", self._fleet.shards[0].service.engine.builder.store_stats())
        return out

    def mark_window(self) -> None:
        self.window[0] = clock()
        self.counters["start"] = self._read_counters()

    def close_window(self) -> None:
        self.window[1] = clock()
        self.counters["end"] = self._read_counters()

    def dump(self, path: str) -> None:
        gc.callbacks.remove(self._on_gc)
        payload = {
            "window": self.window,
            "spans": self.spans,
            "requests": self.requests,
            "retries": self.retries,
            "rows": self.rows,
            "reasoner_reports": self.reasoner_reports,
            "gc_pauses": self.gc_pauses,
            "snapshot": self.snapshot,
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
