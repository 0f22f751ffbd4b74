"""Concurrent serving gate: the sharded fleet vs. one serial service.

The multi-tenant workload the paper's interactive health-coach scenario
implies is *capacity*-bound, not CPU-bound: each tenant's scenario closure
is ~300ms to materialise but ~10ms to serve warm, so what decides
aggregate throughput is whether the serving layer can keep the working
set's closures cached.  A single :class:`ExplanationService` with
realistic per-instance cache caps thrashes once the tenant working set
exceeds them — every request pays the full re-materialisation — while
:class:`ShardedExplanationService` holds N× the closures (each shard owns
a private scenario + closure cache over the one shared base graph) and
keeps tenant traffic pinned to its home shard by stable hashing.

The fleet **cold-starts from the persistent snapshot store**: an offline
warm phase materialises every tenant's closure once, saves the graph
family plus the labelled closures with
:func:`repro.storage.save_snapshot`, and the fleet boots with
``ShardedExplanationService(snapshot=...)`` — each seeded closure lands
on exactly the shard its tenant's traffic hashes to.  This is what fixed
the cold-start tail: before the snapshot store, every tenant's *first*
request paid the full materialisation and the thundering herd behind it
queued, which put p99 around 10 **seconds**; with seeded shards (plus
single-flight collapsing of duplicate in-flight materialisations) p99 is
gated **under 1 second** at full scale.

The gate drives **thousands of simulated sessions** of mixed ask/update
traffic through the sharded fleet with concurrent client threads and
requires **>=3x aggregate throughput** over the serial capped loop
(measured on a sampled slice of the same round-robin workload — serial
per-op cost is uniform because every op misses, so sampling is sound; a
full serial run would take ~10 minutes).  The same run asserts
update-under-read correctness: every response's scenario fingerprint must
be a complete closure its session was allowed to observe, and follow-up
asks after an update must see the delta.  A final thundering-herd phase
slams concurrent first-touch sessions of tenants *missing* from the
snapshot at their (cold) home shard and asserts single-flight served the
herd with exactly one materialisation per tenant.

Honesty note: the speedup is a *cache-capacity* effect, deliberately.
Python's GIL means worker threads do not add CPU parallelism for this
pure-Python reasoner; the ≥3x comes from N shards holding a working set
one instance cannot, which is also how the layer behaves in production
for cache-dominated traffic.

Measurements land in ``BENCH_concurrent.json`` (CI uploads it as an
artifact next to ``BENCH_sparql.json`` / ``BENCH_memory.json``).
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
from repro.owl import MaterializationCache, Reasoner
from repro.service import ExplanationService, ShardedExplanationService
from repro.storage import ClosureEntry, save_snapshot
from repro.users.personas import paper_context, paper_user

QUESTION = "Why should I eat Cauliflower Potato Curry?"

#: The benchmark KG is *fixed-size* (not REPRO_BENCH_SCALE-scaled): it sets
#: the per-request reasoning cost the serving layer amortises (~300ms per
#: closure miss vs ~10ms per warm hit at this size), so shrinking it would
#: change what is being measured.  The smoke scale shrinks the traffic
#: volume instead.
KG_EXTRA_RECIPES = 400
KG_EXTRA_INGREDIENTS = 200

NUM_SHARDS = 8
CLIENT_THREADS = 8
#: Per-instance cache caps — identical for the serial baseline and for
#: *each* shard, so the contrast isolates what sharding adds.  Sized so a
#: shard's tenant share *plus its update-churn keys* fits (update keys
#: concentrate on few shards because every UPDATE_EVERY-th session is the
#: same few tenants; overflowing would evict seeded base closures and
#: turn later incremental extends into full re-materialisations), while
#: the whole tenant working set still cannot fit one instance.
SCENARIO_CAP = max(8, scaled(32))
CLOSURE_CAP = max(16, scaled(40))
#: Distinct tenants (the working set) and simulated sessions over them.
TENANTS = max(16, scaled(80))
SESSIONS = max(64, scaled(2000))
#: Every UPDATE_EVERY-th session grows its profile mid-stream and asks a
#: follow-up, so update traffic races reads on warm shards.  Each update
#: mints a fresh scenario/closure key (the grown profile), so the rate is
#: set to keep tenants + update-churn within the fleet's per-shard cache
#: headroom — while the same working set still drowns the serial caps.
UPDATE_EVERY = 40
#: Serial sample size: distinct tenants round-robin, every op a miss.
SERIAL_SAMPLE = max(8, min(16, TENANTS))
#: Tenants deliberately *left out* of the snapshot, hit by a concurrent
#: thundering herd after the main traffic: their first touch must cost
#: exactly one materialisation each (single-flight), never one per client.
HERD_TENANTS = 2
HERD_CLIENTS = 6
#: The p99 tail gate: the cold-start fix's acceptance number.  Warm-seeded
#: shards keep the tail at warm-serving cost; before the snapshot store
#: the same workload measured ~10s.  The smoke floor is looser because a
#: quarter-scale run amortises the (fixed-size) herd materialisations over
#: far fewer warm ops.
P99_CEILING_MS = 1000.0 if BENCH_SCALE >= 1.0 else 2500.0


def _tenants(count):
    """Distinct tenant profiles: same needs, distinct identity individuals.

    A distinct identifier is enough to force a distinct scenario graph
    (and therefore a distinct closure) per tenant — exactly the working
    set a multi-tenant deployment carries.
    """
    base = paper_user()
    return [replace(base, identifier=f"bench-tenant-{n:04d}", name=f"Tenant {n}")
            for n in range(count)]


def _capped_serial_service(base_engine):
    """One ExplanationService with the same per-instance caps as a shard."""
    builder = ScenarioBuilder(
        base_engine.catalog,
        base_graph=base_engine.builder._base,
        closure_cache=MaterializationCache(max_size=CLOSURE_CAP),
    )
    return ExplanationService(engine=ExplanationEngine(builder=builder),
                              max_cached_scenarios=SCENARIO_CAP)


@pytest.fixture(scope="module")
def bench_engine():
    """An engine over the fixed-size synthetic KG both contestants share."""
    catalog, graph = build_kg(extra_recipes=KG_EXTRA_RECIPES,
                              extra_ingredients=KG_EXTRA_INGREDIENTS)
    return ExplanationEngine(builder=ScenarioBuilder(catalog, base_graph=graph))


_extend = Reasoner.extend


def _slow_extend(reasoner, closure, added_triples):
    time.sleep(0.02)
    return _extend(reasoner, closure, added_triples)


def test_sharded_fleet_is_3x_serial_capacity_under_mixed_traffic(bench_engine, tmp_path,
                                                               monkeypatch):
    engine = bench_engine
    tenants = _tenants(TENANTS)
    context = paper_context()

    # ------------------------------------------------------------------
    # Serial baseline: the capped single service thrashes on this working
    # set — sample its steady-state per-op cost on distinct tenants (each
    # op a guaranteed cache miss, like every op of the full serial run).
    # ------------------------------------------------------------------
    serial = _capped_serial_service(engine)
    serial_started = time.perf_counter()
    for tenant in tenants[:SERIAL_SAMPLE]:
        serial.ask(QUESTION, user=tenant, context=context)
    serial_elapsed = time.perf_counter() - serial_started
    serial_throughput = SERIAL_SAMPLE / serial_elapsed

    # ------------------------------------------------------------------
    # Offline warm phase: materialise every tenant's closure once and
    # persist the graph family + labelled closures to the snapshot store
    # (what a deployment does before rolling new serving capacity).
    # ------------------------------------------------------------------
    question = parse_question(QUESTION)
    warm_builder = ScenarioBuilder(
        engine.catalog,
        base_graph=engine.builder._base,
        closure_cache=MaterializationCache(max_size=TENANTS + 8),
    )
    warm_engine = ExplanationEngine(builder=warm_builder)
    labels = {}
    warm_started = time.perf_counter()
    for tenant in tenants:
        scenario = warm_engine.build_scenario(question, tenant, context)
        labels[scenario.asserted.fingerprint()] = tenant.identifier
    warm_seconds = time.perf_counter() - warm_started
    closures = [
        ClosureEntry(asserted=asserted, closure=closure, post_added=post_added,
                     label=labels[asserted.fingerprint()])
        for asserted, closure, post_added in warm_builder.closure_cache.export_entries()
    ]
    assert len(closures) == TENANTS, "warm cache evicted a tenant closure"
    snap_path = str(tmp_path / "fleet.snap")
    save_started = time.perf_counter()
    snap_stats = save_snapshot(snap_path, engine.builder._base, closures=closures)
    save_seconds = time.perf_counter() - save_started

    # ------------------------------------------------------------------
    # Sharded fleet, cold-started from the snapshot: same caps per shard,
    # whole working set seeded warm before the first request arrives.
    # ------------------------------------------------------------------
    cold_started = time.perf_counter()
    fleet = ShardedExplanationService(
        num_shards=NUM_SHARDS,
        workers_per_shard=2,
        queue_size=64,
        snapshot=snap_path,
        catalog=engine.catalog,
        max_cached_scenarios=SCENARIO_CAP,
        closure_cache_size=CLOSURE_CAP,
    )
    # Before admitting traffic, pre-build every seeded tenant's scenario
    # on its home shard (part of the cold-start window): the seeded
    # closures make each build cheap, and the opening burst then runs
    # entirely on the warm path instead of convoying on first touches.
    fleet.warm([(question, tenant, context) for tenant in tenants])
    cold_start_seconds = time.perf_counter() - cold_started
    seeded = sum(shard.service.engine.builder.closure_cache.stats()["size"]
                 for shard in fleet.shards)
    assert seeded == TENANTS, \
        f"snapshot seeding placed {seeded} closures, expected {TENANTS}"
    perf_gate(cold_start_seconds < warm_seconds,
              f"cold-starting from the snapshot ({cold_start_seconds:.2f} s) must beat "
              f"re-materialising the working set ({warm_seconds:.2f} s)")
    sessions = []
    for n in range(SESSIONS):
        tenant = tenants[n % TENANTS]
        sessions.append((n, fleet.open_session(tenant, context).session_id,
                         tenant.identifier, n % UPDATE_EVERY == 0))

    results = {}   # session index -> list of (stage, fingerprint)
    updates = {}   # session index -> fingerprint returned by the update
    errors = []
    ops_done = [0] * CLIENT_THREADS

    def client(slot):
        try:
            count = 0
            for index, session_id, _, does_update in sessions[slot::CLIENT_THREADS]:
                observed = []
                response = fleet.ask(QUESTION, session_id=session_id)
                observed.append(("pre", response.scenario.inferred.fingerprint()))
                count += 1
                if does_update:
                    updated = fleet.update_scenario(
                        QUESTION, session_id=session_id,
                        likes=(f"Benchmark Delicacy {index}",))
                    updates[index] = updated.inferred.fingerprint()
                    count += 1
                    follow_up = fleet.ask(QUESTION, session_id=session_id)
                    observed.append(("post",
                                     follow_up.scenario.inferred.fingerprint()))
                    count += 1
                results[index] = observed
            ops_done[slot] = count
        except Exception as exc:  # pragma: no cover - surfaced via assert
            errors.append(exc)

    started = time.perf_counter()
    threads = [threading.Thread(target=client, args=(slot,), daemon=True)
               for slot in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    # ------------------------------------------------------------------
    # Thundering herd on tenants missing from the snapshot: concurrent
    # first-touch sessions of one cold tenant must be served by a single
    # materialisation (single-flight), with every waiter observing it.
    # ------------------------------------------------------------------
    herd_users = [replace(paper_user(), identifier=f"bench-herd-{n:02d}",
                          name=f"Herd Tenant {n}")
                  for n in range(HERD_TENANTS)]
    for herd_user in herd_users:
        session_ids = [fleet.open_session(herd_user, context).session_id
                       for _ in range(HERD_CLIENTS)]
        barrier = threading.Barrier(HERD_CLIENTS)
        herd_prints, herd_errors = [], []

        def herd_client(session_id):
            try:
                barrier.wait()
                response = fleet.ask(QUESTION, session_id=session_id)
                herd_prints.append(response.scenario.inferred.fingerprint())
            except Exception as exc:  # pragma: no cover - surfaced via assert
                herd_errors.append(exc)

        herd_threads = [threading.Thread(target=herd_client, args=(sid,),
                                         daemon=True)
                        for sid in session_ids]
        # A miss extends the shared base closure in ~3 ms, often less than
        # the gap between two herd clients' first touches: stretch each
        # build by a GIL-releasing sleep so the herd provably piles up on
        # it, as it did when a miss was a full reasoning pass.
        with monkeypatch.context() as patch:
            patch.setattr(Reasoner, "extend", _slow_extend)
            for thread in herd_threads:
                thread.start()
            for thread in herd_threads:
                thread.join()
        assert not herd_errors, f"herd clients failed: {herd_errors[:3]}"
        assert len(herd_prints) == HERD_CLIENTS
        assert len(set(herd_prints)) == 1, \
            "herd clients observed different closures for one tenant"

    stats = fleet.stats()
    fleet.stop()

    assert not errors, f"concurrent clients failed: {errors[:3]}"
    total_ops = sum(ops_done)
    throughput = total_ops / elapsed
    speedup = throughput / serial_throughput

    # --- update-under-read correctness --------------------------------
    # Every tenant's sessions that never updated must all have observed
    # one single, identical closure (racing updates elsewhere on the
    # shard can never tear or leak into it) ...
    baseline_by_tenant = {}
    for index, session_id, tenant_id, does_update in sessions:
        for stage, fingerprint in results[index]:
            if stage == "pre" and not does_update:
                baseline_by_tenant.setdefault(tenant_id, set()).add(fingerprint)
    torn = {tenant: prints for tenant, prints in baseline_by_tenant.items()
            if len(prints) != 1}
    assert not torn, f"tenants observed inconsistent closures: {list(torn)[:3]}"
    # ... and every updating session's follow-up ask saw exactly its own
    # update's delta, not the pre-update state.
    for index, session_id, tenant_id, does_update in sessions:
        if not does_update:
            continue
        stages = dict(results[index])
        assert stages["post"] == updates[index], \
            f"session {session_id} did not see its update's delta"
        assert stages["post"] != stages["pre"], \
            f"session {session_id}'s update changed nothing observable"

    # --- service-health assertions -------------------------------------
    expected_asks = SESSIONS + sum(1 for s in sessions if s[3]) \
        + HERD_TENANTS * HERD_CLIENTS
    assert stats.requests_served == expected_asks
    assert stats.scenario_updates == sum(1 for s in sessions if s[3])
    assert stats.requests_rejected == 0, \
        "benchmark clients are self-throttling; nothing should be shed"
    assert [s.queue_depth for s in stats.per_shard] == [0] * NUM_SHARDS

    # --- zero-warm-up + single-flight accounting ------------------------
    # Every materialisation the whole run paid is one herd tenant's first
    # touch: the seeded working set never missed (updates take the
    # incremental extend path), and single-flight collapsed each herd to
    # exactly one build with the other in-flight ask waiting on it.
    closure_misses = sum(s.closure_cache.get("misses", 0) for s in stats.per_shard)
    single_flight_waits = sum(s.closure_cache.get("single_flight_waits", 0)
                              for s in stats.per_shard)
    assert closure_misses == HERD_TENANTS, \
        f"expected only the {HERD_TENANTS} herd tenants to materialise, " \
        f"got {closure_misses} closure misses"
    assert single_flight_waits >= HERD_TENANTS, \
        "the herd should have produced at least one single-flight wait per tenant"

    print(f"\nconcurrent serving: {total_ops} ops over {SESSIONS} sessions "
          f"({TENANTS} tenants) in {elapsed:.1f}s -> {throughput:.1f} ops/s; "
          f"serial capped loop {serial_throughput:.1f} ops/s -> {speedup:.1f}x "
          f"(p50 {stats.latency_ms['p50']:.1f} ms / "
          f"p99 {stats.latency_ms['p99']:.1f} ms / "
          f"max {stats.latency_ms['max_ms']:.1f} ms); "
          f"cold start {cold_start_seconds:.2f}s from {snap_stats['bytes']} B "
          f"snapshot (warm build {warm_seconds:.1f}s), "
          f"{closure_misses} misses / {single_flight_waits} single-flight waits")
    record_bench("BENCH_concurrent.json", "sharded_vs_serial_throughput", {
        "sessions": SESSIONS,
        "tenants": TENANTS,
        "shards": NUM_SHARDS,
        "workers_per_shard": 2,
        "scenario_cap": SCENARIO_CAP,
        "closure_cap": CLOSURE_CAP,
        "total_ops": total_ops,
        "updates": sum(1 for s in sessions if s[3]),
        "elapsed_seconds": round(elapsed, 3),
        "throughput_ops_per_s": round(throughput, 2),
        "serial_sample_ops": SERIAL_SAMPLE,
        "serial_throughput_ops_per_s": round(serial_throughput, 2),
        "speedup": round(speedup, 2),
        "latency_p50_ms": round(stats.latency_ms["p50"], 2),
        "latency_p99_ms": round(stats.latency_ms["p99"], 2),
        "latency_max_ms": round(stats.latency_ms["max_ms"], 2),
        "p99_ceiling_ms": P99_CEILING_MS,
        "requests_rejected": stats.requests_rejected,
        "snapshot_bytes": snap_stats["bytes"],
        "snapshot_closures": snap_stats["closures"],
        "snapshot_save_seconds": round(save_seconds, 3),
        "warm_build_seconds": round(warm_seconds, 3),
        "cold_start_seconds": round(cold_start_seconds, 3),
        "closure_misses": closure_misses,
        "single_flight_waits": single_flight_waits,
        "herd_tenants": HERD_TENANTS,
        "herd_clients": HERD_CLIENTS,
    })
    perf_gate(speedup >= 3.0,
              f"sharded serving must sustain >=3x the serial capped throughput, "
              f"got {speedup:.1f}x")
    perf_gate(stats.latency_ms["p99"] < P99_CEILING_MS,
              f"snapshot-seeded cold start must keep p99 under "
              f"{P99_CEILING_MS:.0f} ms, got {stats.latency_ms['p99']:.1f} ms")
