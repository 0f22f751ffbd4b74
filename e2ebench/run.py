"""End-to-end HTTP benchmark of the sharded explanation service.

Usage (from the root of a source checkout)::

    python3 e2ebench/run.py --workload hot_sessions --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --smoke

Workloads are ``hot_sessions``, ``live_updates`` (the two ``BENCHMARK.json``
gates) and ``tenant_churn`` (run by name; ``workloads.py`` says why it
is not gated).

One run writes a snapshot of the knowledge graph (with the closures of
the workload's priming scenarios), then launches the real
``ExplanationServer`` over a ``ShardedExplanationService`` in a separate
process that cold-starts from it.  A single client process drives
closed-loop HTTP traffic over ``min(2, cores)`` keep-alive connections
for ``--seconds``, then every distinct answer is checked against a
serial in-process ``ExplanationEngine`` and the workload's defining
property is asserted (see ``workloads.py``).

``--trace 0`` sets the server up several times (``setup_s`` is their
median) and reports the end-to-end metrics of one timed window.
``--trace 1`` runs an untraced window and then a window against a server
whose layers are instrumented from outside (``tracer.py``), and reports
the per-layer metrics plus the tracing overhead.  Human-readable lines,
including the environment stamp and the "where an ask's time goes"
table, come first; the last line is the JSON result.  ``--smoke`` runs
each workload once, briefly, checks the answers and that every metric
named in ``BENCHMARK.json`` is reported, and makes no timing assertion.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import FLEET_CONFIG, KG_CONFIG, ROOT, build_catalog, use_source_tree  # noqa: E402

#: Server set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3


def _git_sha() -> Optional[str]:
    """The checkout's commit, read from ``.git`` without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over ``src/``, identifying the code where git is absent."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def write_snapshot(engine, workload, path: str) -> Dict[str, int]:
    """Save the base graph plus the closures of the priming scenarios.

    Each closure is labelled with its persona's ``user.identifier``: the
    key sessions route by, so the fleet seeds it on the shard that the
    priming asks will reach.
    """
    from repro.core.questions import parse_question
    from repro.storage import ClosureEntry, save_snapshot
    from repro.users.personas import persona

    builder = engine.builder
    labels = {}
    for persona_key, question in workload.warm_scenarios():
        user, context = persona(persona_key)
        scenario = engine.build_scenario(parse_question(question), user, context)
        labels[scenario.asserted.fingerprint()] = user.identifier
    closures = [ClosureEntry(asserted=asserted, closure=closure, post_added=post_added,
                             label=labels[asserted.fingerprint()])
                for asserted, closure, post_added in builder.closure_cache.export_entries()
                if asserted.fingerprint() in labels]
    return save_snapshot(path, builder._base, closures=closures)


def environment(engine, workload, digest: str, connections: int) -> dict:
    """The stamp printed at the head of every result."""
    from repro.core.questions import parse_question
    from repro.users.personas import persona

    user, context = persona("paper")
    recipe = sorted(engine.catalog.recipes)[0]
    reference = engine.build_scenario(parse_question(f"Why should I eat {recipe}?"),
                                      user, context)
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "kg": dict(KG_CONFIG, asserted_triples=len(engine.builder._base),
                   scenario_closure_triples=len(reference.inferred)),
        "fleet": FLEET_CONFIG,
        "connections": connections,
        "workload": workload.name,
        "seed": workload.seed,
        "stream_sha256": digest,
    }


@dataclass
class Window:
    """One server's set-up(s) plus its timed window."""

    records: list
    start: float
    end: float
    setups: List[float]
    rss_mb: float
    trace: Optional[dict]
    stats: Dict[str, float] = field(default_factory=dict)


def measure(workload, snapshot: str, seconds: float, connections: int,
            setups: int = 1, trace_out: Optional[str] = None) -> Window:
    from client import ServerProcess, drive

    times: List[float] = []
    for attempt in range(setups):
        last = attempt == setups - 1
        server = ServerProcess(snapshot, trace_out if last else None)
        try:
            sessions = server.start(workload)
            times.append(server.setup_seconds)
            if not last:
                continue
            server.mark_window()
            records, start, end = drive(server, workload, sessions, seconds, connections)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
    trace = None
    if trace_out:
        with open(trace_out, encoding="utf-8") as handle:
            trace = json.load(handle)
    return Window(records, start, end, times, rss, trace)


def check_answers(oracle, window: Window) -> Tuple[int, List[str]]:
    """Count failed ops (non-2xx or wrong); return (count, first few reasons)."""
    wrong, reasons = 0, []
    for record in window.records:
        reason = oracle.check(record)
        if reason:
            wrong += 1
            if len(reasons) < 5:
                reasons.append(f"{record.op.kind} {record.op.question!r} "
                               f"({record.persona}): {reason}")
    return wrong, reasons


def workload_guard(name: str, oracle, window: Window) -> Tuple[bool, str]:
    """Assert the property the workload exists for."""
    asks = [r for r in window.records if r.op.kind == "ask" and r.status == 200]
    hits = sum(1 for r in asks if r.body.get("scenario_cache_hit"))
    if name == "hot_sessions":
        share = hits / max(len(asks), 1)
        return share >= 0.99, f"scenario-cache hits on {share:.1%} of {len(asks)} asks (need >= 99%)"
    if name == "tenant_churn":
        share = 1 - hits / max(len(asks), 1)
        return share >= 0.80, f"scenario-cache misses on {share:.1%} of {len(asks)} asks (need >= 80%)"
    followups = [r for r in asks if r.op.role == "followup"]
    observed = sum(1 for r in followups
                   if not oracle.check(r) and oracle.observes_update(r))
    return (bool(followups) and observed == len(followups),
            f"{observed} of {len(followups)} follow-up asks observe their update")


def check_windows(name: str, oracle, windows: List[Window],
                  lines: List[str]) -> Tuple[int, int, bool]:
    """Check every window's answers and guard; fill each ``window.stats``.

    Returns (ops attempted, ops failed, whether every guard held).
    """
    from analysis import client_metrics

    attempted = failed = 0
    valid = True
    for label, window in zip(("untraced", "traced"), windows):
        wrong, reasons = check_answers(oracle, window)
        non_2xx = sum(1 for r in window.records if r.status != 200)
        attempted += len(window.records)
        failed += wrong
        ok, detail = workload_guard(name, oracle, window)
        valid = valid and ok
        window.stats = client_metrics(window.records, window.start, window.end,
                                      wrong - non_2xx)
        lines.append(f"{label} window: {len(window.records)} ops, {non_2xx} non-2xx, "
                     f"{wrong} wrong answers; guard {'ok' if ok else 'FAILED'}: {detail}")
        lines.extend(f"  wrong: {reason}" for reason in reasons)
    return attempted, failed, valid


def run(name: str, seed: int, seconds: float, traced: bool,
        setups: int = SETUPS) -> Tuple[dict, Dict[str, float], List[str]]:
    """One benchmark run; returns (result, end-to-end metrics, report lines)."""
    from analysis import Trace, breakdown_table, layer_metrics
    from oracle import Oracle
    from workloads import build_workload, stream_digest

    from repro.core.engine import ExplanationEngine
    from repro.core.scenario import ScenarioBuilder
    from repro.owl import MaterializationCache

    began = time.perf_counter()
    connections = max(1, min(2, os.cpu_count() or 1))
    catalog = build_catalog()
    # Big enough to keep every warm closure until the snapshot is written.
    engine = ExplanationEngine(builder=ScenarioBuilder(
        catalog, closure_cache=MaterializationCache(max_size=64)))
    workload = build_workload(name, seed, catalog)
    lines: List[str] = []
    work = os.path.join(ROOT, ".e2ebench")
    os.makedirs(work, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=work)
    try:
        snapshot = os.path.join(work, "kg.snap")
        snap_stats = write_snapshot(engine, workload, snapshot)
        env = environment(engine, workload, stream_digest(workload), connections)
        lines.append("env " + json.dumps(env, sort_keys=True))
        lines.append(f"snapshot: {snap_stats['triples']} triples, "
                     f"{snap_stats['closures']} warm closures, {snap_stats['bytes']} bytes")
        oracle = Oracle(catalog, snapshot, workload.warm_scenarios())
        prepared = time.perf_counter()
        windows = [measure(workload, snapshot, seconds, connections,
                           setups=1 if traced else setups)]
        if traced:
            windows.append(measure(workload, snapshot, seconds, connections,
                                   trace_out=os.path.join(work, "trace.json")))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = time.perf_counter()
    attempted, failed, valid = check_windows(name, oracle, windows, lines)
    lines.append(f"phases: prepare {prepared - began:.1f} s, serve {measured - prepared:.1f} s, "
                 f"check {time.perf_counter() - measured:.1f} s")
    plain = windows[0]
    stats = plain.stats
    e2e = {
        "setup_s": statistics.median(plain.setups),
        "throughput_ops_s": stats["throughput_ops_s"],
        "ask_p50_ms": stats["ask_p50_ms"],
        "ask_p95_ms": stats["ask_p95_ms"],
        "server_rss_mb": plain.rss_mb,
    }
    units = {m["name"]: m["unit"] for m in _declared_metrics()}
    for key, value in e2e.items():
        lines.append(f"{key} = {value:.4f} {units[key]}")
    asks = int(stats["asks"])
    for key, share in (("ask_p90_ms", 0.10), ("ask_p99_ms", 0.01)):
        lines.append(f"{key} = " + (f"{stats[key]:.4f} ms" if asks * share >= 10
                                    else "n/a (fewer than 10 samples beyond it)"))
    lines.append(f"ask samples = {asks}")
    if stats["updates"]:
        lines.append(f"update_p50_ms = {stats['update_p50_ms']:.4f} ms; "
                     f"update_p95_ms = {stats['update_p95_ms']:.4f} ms "
                     f"({int(stats['updates'])} updates)")
    lines.append(f"error_ratio = {stats['error_ratio']:.4f}")

    layers = {}
    if traced:
        trace = Trace(windows[1].trace)
        layers = layer_metrics(trace)
        layers["trace.overhead_ratio"] = (windows[1].stats["throughput_ops_s"]
                                          / max(stats["throughput_ops_s"], 1e-9))
        layers["client.update_p50_ms"] = stats["update_p50_ms"]
        layers["client.update_p95_ms"] = stats["update_p95_ms"]
        lines.extend(breakdown_table(trace))
        lines.append(f"trace.overhead_ratio = {layers['trace.overhead_ratio']:.4f}")
    result = {
        "correct": valid and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in (layers if traced else e2e).items()},
    }
    return result, e2e, lines


def _declared_metrics() -> List[dict]:
    """Every metric ``BENCHMARK.json`` declares (end-to-end and per-layer)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["end_to_end"] + spec["per_layer"]


def smoke() -> int:
    """Each workload once, traced and briefly: answers right, every metric reported.

    The traced run also measures an untraced window, so it reports the
    end-to-end metrics as well as the per-layer ones.
    """
    from workloads import WORKLOADS

    expected = {m["name"] for m in _declared_metrics()}
    status = 0
    for name in WORKLOADS:
        result, e2e, lines = run(name, seed=0, seconds=1.0, traced=True)
        reported = set(result["metrics"]) | set(e2e)
        missing, extra = sorted(expected - reported), sorted(reported - expected)
        good = result["correct"] and not missing and not extra
        print(f"smoke {name}: {'ok' if good else 'FAILED'} ({result['attempted']} ops, "
              f"{result['failed']} failed, missing {missing}, extra {extra})")
        if not good:
            print("\n".join(lines))
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="hot_sessions")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    use_source_tree()
    if args.smoke:
        return smoke()
    result, _, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The everyday generator breaks count ties in set iteration order,
        # which follows the per-process string hash seed; the server (which
        # inherits this environment) and the oracle must share one seed.
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())
