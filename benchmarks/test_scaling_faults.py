"""Fault-tolerance gate: seeded chaos against the sharded serving fleet.

The robustness claim the serving layer makes is *differential*: under
injected latency spikes and transient query errors the fleet may slow
down, but it must never return a wrong answer, never hang
a request, and must recover to within 2x of its fault-free tail latency
once the faults stop.  This gate measures exactly that, with the
deterministic seeded injector from :mod:`repro.testing.faults`:

1. **Oracle phase** — a fault-free serial service answers every tenant
   once; those texts are the ground truth every later answer is compared
   against.  The warm closures are persisted with
   :func:`repro.storage.save_snapshot` (the atomic-write path), and a
   deliberately *torn* second save must leave that snapshot byte-intact.
2. **Fault-free baseline** — the fleet cold-starts from the snapshot and
   serves the mixed-tenant workload cleanly; client-side p99 recorded.
3. **Chaos phase** — the same fleet, same workload, with seeded
   latency spikes and transient query errors active.  Clients are
   well-behaved: they honour ``Retry-After`` on 503-family errors
   instead of hot-looping.  Every request must eventually succeed with
   the oracle's exact text.
4. **Breaker phase** — a dense burst of injected failures at one
   tenant's home shard must open its circuit breaker (fast typed
   rejections, no queue pile-up), and the shard must close again via a
   half-open probe once the faults stop.
5. **Recovery phase** — injection disabled again; client-side p99 must
   land within ``RECOVERY_P99_FACTOR``x of the fault-free baseline.

Injection is off by default (``faults.ACTIVE is None``) and the hooks
are single pointer checks, so the fault machinery adds no measurable
overhead to ``BENCH_concurrent`` — that gate's >=3x throughput floor is
what enforces the no-regression budget.  Updates are deliberately absent
here (they are never retried internally; the chaos unit suite covers
them) — this gate drives idempotent asks, where transparent retry is
sound.

Measurements land in ``BENCH_faults.json`` (CI uploads it as an artifact
next to ``BENCH_concurrent.json``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import pytest
from conftest import BENCH_SCALE, build_kg, perf_gate, record_bench, scaled

from repro.core.engine import ExplanationEngine
from repro.core.questions import parse_question
from repro.core.scenario import ScenarioBuilder
from repro.owl import MaterializationCache
from repro.service import (
    DeadlineExceededError,
    ExplanationService,
    ShardedExplanationService,
    UnavailableError,
)
from repro.storage import ClosureEntry, load_snapshot, save_snapshot
from repro.testing import faults
from repro.testing.faults import Fault, FaultInjector, InjectedFault, injected
from repro.users.personas import paper_context, paper_user

QUESTION = "Why should I eat Cauliflower Potato Curry?"

#: Fixed-size KG: sets the per-request reasoning cost (the thing retries
#: re-pay); the smoke scale shrinks traffic volume.
KG_EXTRA_RECIPES = 120
KG_EXTRA_INGREDIENTS = 60

NUM_SHARDS = 4
WORKERS_PER_SHARD = 2
QUEUE_SIZE = 32
CLIENT_THREADS = 6
TENANTS = max(8, scaled(24))
#: Requests per measured phase (baseline / chaos / recovery).
PHASE_REQUESTS = max(48, scaled(300))
#: One seed drives the injector, the breaker jitter and the retry jitter.
SEED = 1337
#: Chaos mix: latency spikes stretch the query path, transient errors
#: exercise the internal idempotent-ask retry.
SPIKE_PROB = 0.08
SPIKE_MS = 40.0
ERROR_PROB = 0.03
REQUEST_TIMEOUT = 10.0
#: Per-request client retry budget (chaos clients back off, not hot-loop).
CLIENT_RETRY_BUDGET = 30.0
#: Recovered tail must land within this factor of the fault-free tail.
RECOVERY_P99_FACTOR = 2.0
#: Noise floor for the tail comparison: sub-50ms p99s on a loaded CI
#: runner are scheduler jitter, not serving-layer regressions.
P99_FLOOR_SECONDS = 0.05
#: A phase that has not finished in this long has hung requests.
PHASE_WALL_LIMIT = 240.0


def _tenants(count):
    base = paper_user()
    return [replace(base, identifier=f"fault-tenant-{n:04d}", name=f"Tenant {n}")
            for n in range(count)]


def _p99(samples):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]


def _drive(fleet, tenants, context, requests, clients=CLIENT_THREADS):
    """Run ``requests`` asks through well-behaved retrying clients.

    Returns ``(latencies, answers, failures, retries, hung)`` where
    ``latencies`` are per-request client-side seconds (first attempt to
    final success), ``answers`` maps request index to
    ``(tenant_id, text)``, ``failures`` collects requests that exhausted
    their retry budget, ``retries`` counts backoff-and-retry events, and
    ``hung`` lists client threads still alive after the wall limit.
    """
    lock = threading.Lock()
    latencies, answers, failures = [], {}, []
    retry_count = [0]

    def client(slot):
        for n in range(slot, requests, clients):
            tenant = tenants[n % len(tenants)]
            budget = time.monotonic() + CLIENT_RETRY_BUDGET
            started = time.perf_counter()
            while True:
                try:
                    response = fleet.ask(QUESTION, user=tenant, context=context,
                                         timeout=REQUEST_TIMEOUT)
                except UnavailableError as exc:
                    if time.monotonic() >= budget:
                        with lock:
                            failures.append((n, exc))
                        break
                    # Honour the server's backoff hint instead of hot-looping.
                    time.sleep(min(exc.retry_after or 0.05, 0.5))
                    with lock:
                        retry_count[0] += 1
                except DeadlineExceededError as exc:
                    if time.monotonic() >= budget:
                        with lock:
                            failures.append((n, exc))
                        break
                    with lock:
                        retry_count[0] += 1
                else:
                    elapsed = time.perf_counter() - started
                    with lock:
                        latencies.append(elapsed)
                        answers[n] = (tenant.identifier, response.explanation.text)
                    break

    threads = [threading.Thread(target=client, args=(slot,), daemon=True)
               for slot in range(clients)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + PHASE_WALL_LIMIT
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    hung = [thread.name for thread in threads if thread.is_alive()]
    return latencies, answers, failures, retry_count[0], hung


def _check_phase(name, oracle, latencies, answers, failures, hung, expected):
    assert not hung, f"{name}: client threads hung: {hung}"
    assert not failures, f"{name}: requests exhausted retries: {failures[:3]}"
    assert len(answers) == expected, \
        f"{name}: {expected - len(answers)} requests vanished"
    wrong = [n for n, (tenant_id, text) in answers.items()
             if text != oracle[tenant_id]]
    assert not wrong, \
        f"{name}: {len(wrong)} answers diverged from the fault-free oracle " \
        f"(first: request {wrong[0]})"
    assert len(latencies) == expected


def test_fleet_serves_correctly_under_seeded_chaos(tmp_path):
    assert faults.ACTIVE is None, \
        "fault injection must be off by default (zero-overhead guarantee)"

    catalog, graph = build_kg(extra_recipes=KG_EXTRA_RECIPES,
                              extra_ingredients=KG_EXTRA_INGREDIENTS)
    tenants = _tenants(TENANTS)
    context = paper_context()
    question = parse_question(QUESTION)

    # ------------------------------------------------------------------
    # Phase 1: fault-free oracle + atomic snapshot (with a torn save).
    # ------------------------------------------------------------------
    oracle_builder = ScenarioBuilder(
        catalog, base_graph=graph,
        closure_cache=MaterializationCache(max_size=TENANTS + 8))
    oracle_service = ExplanationService(
        engine=ExplanationEngine(builder=oracle_builder),
        max_cached_scenarios=TENANTS + 8)
    oracle = {}
    labels = {}
    for tenant in tenants:
        response = oracle_service.ask(QUESTION, user=tenant, context=context)
        oracle[tenant.identifier] = response.explanation.text
    for tenant in tenants:
        scenario = oracle_service.engine.build_scenario(question, tenant, context)
        labels[scenario.asserted.fingerprint()] = tenant.identifier
    closures = [
        ClosureEntry(asserted=asserted, closure=closure, post_added=post_added,
                     label=labels[asserted.fingerprint()])
        for asserted, closure, post_added in oracle_builder.closure_cache.export_entries()
    ]
    snap_path = str(tmp_path / "fleet.snap")
    snap_stats = save_snapshot(snap_path, graph, closures=closures)
    good_bytes = open(snap_path, "rb").read()

    # A torn write mid-save must leave the existing snapshot byte-intact.
    torn = FaultInjector(
        faults=[Fault(site="snapshot_write", action="error", at=(0,))],
        seed=SEED)
    with injected(torn):
        with pytest.raises(InjectedFault):
            save_snapshot(snap_path, graph, closures=closures)
    assert open(snap_path, "rb").read() == good_bytes, \
        "torn snapshot write damaged the previous snapshot"
    assert len(load_snapshot(snap_path).closures) == len(closures)

    # ------------------------------------------------------------------
    # Phase 2: fault-free baseline on the snapshot-seeded fleet.
    # ------------------------------------------------------------------
    fleet = ShardedExplanationService(
        num_shards=NUM_SHARDS,
        workers_per_shard=WORKERS_PER_SHARD,
        queue_size=QUEUE_SIZE,
        snapshot=snap_path,
        catalog=catalog,
        max_cached_scenarios=TENANTS + 8,
        closure_cache_size=TENANTS + 8,
        request_timeout=REQUEST_TIMEOUT,
        retry_attempts=3,
        retry_backoff=0.02,
        breaker_failure_threshold=4,
        breaker_cooldown=0.2,
        fault_seed=SEED,
    )
    fleet.warm([(question, tenant, context) for tenant in tenants])

    base_lat, base_ans, base_fail, base_retries, base_hung = _drive(
        fleet, tenants, context, PHASE_REQUESTS)
    _check_phase("baseline", oracle, base_lat, base_ans, base_fail,
                 base_hung, PHASE_REQUESTS)
    assert base_retries == 0, "fault-free baseline should never need retries"
    p99_clean = _p99(base_lat)

    # ------------------------------------------------------------------
    # Phase 3: seeded chaos — latency spikes, transient errors.
    # ------------------------------------------------------------------
    chaos = FaultInjector(faults=[
        Fault(site="query", action="latency", prob=SPIKE_PROB,
              delay_ms=SPIKE_MS),
        Fault(site="query", action="error", prob=ERROR_PROB),
        # The query site is the only one drawing from the seeded stream,
        # so the draws are a fixed sequence: with SEED none of the first
        # 60 hits errors, which leaves a smoke-scale phase without one.
        # One error and one spike on the first hits keep both recovery
        # paths exercised at every scale.
        Fault(site="query", action="error", at=(0,)),
        Fault(site="query", action="latency", at=(1,), delay_ms=SPIKE_MS),
    ], seed=SEED)
    with injected(chaos):
        chaos_lat, chaos_ans, chaos_fail, chaos_retries, chaos_hung = _drive(
            fleet, tenants, context, PHASE_REQUESTS)
    _check_phase("chaos", oracle, chaos_lat, chaos_ans, chaos_fail,
                 chaos_hung, PHASE_REQUESTS)
    spikes = sum(1 for _, action, _ in chaos.fired_at("query")
                 if action == "latency")
    errors = sum(1 for _, action, _ in chaos.fired_at("query")
                 if action == "error")
    assert spikes > 0 and errors > 0, "the seeded chaos run was too quiet"

    # ------------------------------------------------------------------
    # Phase 4: a dense failure burst opens one shard's breaker, which
    # then recovers through a half-open probe.
    # ------------------------------------------------------------------
    victim = tenants[0]
    burst = FaultInjector(
        faults=[Fault(site="query", action="error", every=1)], seed=SEED)
    opened = False
    with injected(burst):
        for _ in range(8):
            try:
                fleet.ask(QUESTION, user=victim, context=context,
                          timeout=REQUEST_TIMEOUT)
            except UnavailableError as exc:
                if exc.reason == "breaker_open":
                    opened = True
                    break
            except InjectedFault:
                continue
    assert opened, "sustained failures never opened the victim shard's breaker"
    breaker_opens = fleet.stats().breaker["opens"]
    assert breaker_opens >= 1

    # With faults gone, honouring Retry-After must get the tenant served
    # again (the half-open probe closes the breaker).
    closed_deadline = time.monotonic() + 30.0
    recovered_text = None
    while time.monotonic() < closed_deadline:
        try:
            recovered_text = fleet.ask(QUESTION, user=victim, context=context,
                                       timeout=REQUEST_TIMEOUT).explanation.text
            break
        except UnavailableError as exc:
            time.sleep(min(exc.retry_after or 0.05, 0.5))
    assert recovered_text == oracle[victim.identifier], \
        "the victim shard never recovered from its open breaker"

    # ------------------------------------------------------------------
    # Phase 5: recovered steady state — tail must be near the baseline.
    # Best-of-two rounds, mirroring conftest.best_of: with phase-sized
    # samples p99 degenerates to the max, and one noisy-neighbour burst
    # on a shared runner must not fail an otherwise healthy recovery.
    # ------------------------------------------------------------------
    recovery_p99s = []
    for _round in range(2):
        rec_lat, rec_ans, rec_fail, _rec_retries, rec_hung = _drive(
            fleet, tenants, context, PHASE_REQUESTS)
        _check_phase("recovery", oracle, rec_lat, rec_ans, rec_fail,
                     rec_hung, PHASE_REQUESTS)
        recovery_p99s.append(_p99(rec_lat))
    p99_recovered = min(recovery_p99s)
    p99_ceiling = max(RECOVERY_P99_FACTOR * p99_clean, P99_FLOOR_SECONDS)

    final = fleet.stats()
    fleet.stop(timeout=10.0)
    assert faults.ACTIVE is None

    print(f"\nfault gate: {3 * PHASE_REQUESTS} requests over {TENANTS} tenants "
          f"(scale {BENCH_SCALE}); chaos injected "
          f"{spikes} spikes / {errors} errors, {chaos_retries} client retries; "
          f"{final.breaker['opens']} breaker opens; "
          f"p99 clean {p99_clean * 1000:.1f} ms -> chaos "
          f"{_p99(chaos_lat) * 1000:.1f} ms -> recovered "
          f"{p99_recovered * 1000:.1f} ms (ceiling {p99_ceiling * 1000:.1f} ms)")
    record_bench("BENCH_faults.json", "chaos_serving", {
        "tenants": TENANTS,
        "shards": NUM_SHARDS,
        "workers_per_shard": WORKERS_PER_SHARD,
        "phase_requests": PHASE_REQUESTS,
        "seed": SEED,
        "spike_prob": SPIKE_PROB,
        "spike_ms": SPIKE_MS,
        "error_prob": ERROR_PROB,
        "injected_spikes": spikes,
        "injected_errors": errors,
        "client_retries_under_chaos": chaos_retries,
        "breaker_opens": final.breaker["opens"],
        "incorrect_answers": 0,
        "hung_requests": 0,
        "p99_clean_ms": round(p99_clean * 1000, 2),
        "p99_chaos_ms": round(_p99(chaos_lat) * 1000, 2),
        "p99_recovered_ms": round(p99_recovered * 1000, 2),
        "p99_recovery_factor": RECOVERY_P99_FACTOR,
        "snapshot_bytes": snap_stats["bytes"],
    })
    perf_gate(p99_recovered <= p99_ceiling,
              f"recovered p99 {p99_recovered * 1000:.1f} ms exceeds "
              f"{p99_ceiling * 1000:.1f} ms "
              f"({RECOVERY_P99_FACTOR}x the fault-free tail)")
