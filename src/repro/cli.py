"""Command-line interface for the FEO reproduction.

Usage (after ``pip install -e .``)::

    python -m repro ask "Why should I eat Cauliflower Potato Curry?" --persona paper
    python -m repro recommend --persona pregnant_user --top-k 3 --explain
    python -m repro competency --extended
    python -m repro coverage
    python -m repro export --output feo_foodkg.ttl --reasoned
    python -m repro serve --requests requests.txt --stats
    python -m repro snapshot save feo.snap --warm-persona paper
    python -m repro serve --snapshot feo.snap --port 8080

The CLI is a thin layer over :class:`repro.core.engine.ExplanationEngine`
and the evaluation harness; every command prints plain text so the tool is
usable in shells and CI logs without extra dependencies.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.competency import CompetencySuite
from .core.engine import ExplanationEngine
from .core.questions import parse_question
from .errors import RequestError
from .evaluation import compute_coverage, run_evaluation
from .users.personas import PERSONAS, persona

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Food Explanation Ontology (FEO) reproduction — explanation toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    ask = subparsers.add_parser("ask", help="answer a food-recommendation question")
    ask.add_argument("question", help='e.g. "Why should I eat Sushi?"')
    ask.add_argument("--persona", default="paper", choices=PERSONAS)
    ask.add_argument("--type", dest="explanation_type", default=None,
                     help="force an explanation type (contextual, contrastive, ...)")
    ask.add_argument("--show-evidence", action="store_true",
                     help="print the structured evidence items as well")
    ask.add_argument("--show-query", action="store_true",
                     help="print the SPARQL query used (when applicable)")

    recommend = subparsers.add_parser("recommend", help="run the Health Coach substitute")
    recommend.add_argument("--persona", default="paper", choices=PERSONAS)
    recommend.add_argument("--top-k", type=int, default=3)
    recommend.add_argument("--explain", action="store_true",
                           help="attach a contextual explanation to every recommendation")

    competency = subparsers.add_parser("competency",
                                       help="run the paper's competency questions")
    competency.add_argument("--extended", action="store_true",
                            help="also run the extended Table I coverage questions")
    competency.add_argument("--persona", default="paper", choices=PERSONAS)

    subparsers.add_parser("coverage", help="print the persona x explanation-type coverage matrix")

    evaluate = subparsers.add_parser("evaluate", help="run the full evaluation report")
    evaluate.add_argument("--skip-extended", action="store_true")

    export = subparsers.add_parser("export", help="export the ontology + knowledge graph")
    export.add_argument("--output", default="-", help="output file (default: stdout)")
    export.add_argument("--format", default="turtle", choices=["turtle", "ntriples"])
    export.add_argument("--reasoned", action="store_true",
                        help="export the materialised (post-reasoning) graph")

    serve = subparsers.add_parser(
        "serve",
        help="serve explanation requests (line stream, or HTTP with --port)",
        description="Without --port: answer one request per line, read from "
                    "--requests or stdin. A line is either a bare question "
                    "(answered as --persona) or 'persona: question' to address "
                    "another registered persona. Blank lines and lines starting "
                    "with '#' are skipped. With --port: run the concurrent "
                    "sharded HTTP/JSON server (POST /ask, /sessions, /update; "
                    "GET /stats, /healthz) until interrupted.",
    )
    serve.add_argument("--requests", default="-",
                       help="file with one request per line (default: stdin)")
    serve.add_argument("--persona", default="paper", choices=PERSONAS,
                       help="persona answering bare-question lines")
    serve.add_argument("--type", dest="explanation_type", default=None,
                       help="force an explanation type for every request")
    serve.add_argument("--stats", action="store_true",
                       help="print cache/session statistics after the stream ends")
    serve.add_argument("--port", type=int, default=None,
                       help="run the concurrent HTTP server on this port "
                            "(0 picks a free port) instead of the line stream")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for --port mode (default: 127.0.0.1)")
    serve.add_argument("--shards", type=int, default=4,
                       help="independent service shards in --port mode (default: 4)")
    serve.add_argument("--workers", type=int, default=2,
                       help="requests running at once per shard in --port mode; "
                            "each runs on its connection's thread (default: 2)")
    serve.add_argument("--queue-size", type=int, default=64,
                       help="requests that may wait per shard for a free slot; "
                            "the next one is shed with a 503 backpressure error "
                            "(default: 64)")
    serve.add_argument("--session-ttl", type=float, default=None,
                       help="evict sessions idle for this many seconds "
                            "(default: no TTL)")
    serve.add_argument("--request-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-request deadline in --port mode: a miss "
                            "returns a typed 504 and a request still waiting "
                            "for a slot is skipped (default: unbounded; a "
                            "request's own 'timeout' field overrides)")
    serve.add_argument("--drain-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="graceful-drain bound on shutdown in --port mode: "
                            "in-flight work gets this long, requests still "
                            "waiting are cancelled with a typed 503 (default: "
                            "drain fully)")
    serve.add_argument("--snapshot", default=None, metavar="PATH",
                       help="cold-start from a snapshot file (see 'repro "
                            "snapshot save') instead of rebuilding the "
                            "ontology + knowledge graph from source")

    subparsers.add_parser(
        "close",
        help="materialise the knowledge-graph closure and print its stats",
        description="Runs the OWL reasoner to a fixed point over the "
                    "combined ontology + knowledge graph and prints the "
                    "reasoning report.",
    )

    snapshot = subparsers.add_parser(
        "snapshot",
        help="save/load the persistent knowledge-graph snapshot store",
        description="'save' serialises the engine's term dictionary, encoded "
                    "triples, indexes and (optionally pre-warmed) reasoning "
                    "closures into one binary snapshot file; 'load' verifies "
                    "a snapshot and prints its stats. A saved snapshot lets "
                    "'serve --snapshot' cold-start shards without re-parsing "
                    "turtle or re-running the reasoner.",
    )
    snapshot_sub = snapshot.add_subparsers(dest="snapshot_command", required=True)
    snap_save = snapshot_sub.add_parser("save", help="write a snapshot file")
    snap_save.add_argument("output", help="snapshot file to write")
    snap_save.add_argument("--warm-persona", action="append", default=[],
                           choices=PERSONAS, metavar="PERSONA",
                           help="pre-materialise closures for this persona "
                                "(repeatable; default: paper when "
                                "--warm-question is given)")
    snap_save.add_argument("--warm-question", action="append", default=[],
                           metavar="QUESTION",
                           help="question to warm each persona with "
                                "(repeatable; default: a canonical 'why' "
                                "question when --warm-persona is given)")
    snap_load = snapshot_sub.add_parser(
        "load", help="verify a snapshot file and print its stats")
    snap_load.add_argument("input", help="snapshot file to read")

    return parser


def _cmd_ask(engine: ExplanationEngine, args: argparse.Namespace) -> int:
    user, context = persona(args.persona)
    explanation = engine.ask(args.question, user, context,
                             explanation_type=args.explanation_type)
    print(f"[{explanation.explanation_type} explanation]")
    print(explanation.text)
    if args.show_evidence:
        print()
        for item in explanation.items:
            print("  -", item.describe())
    if args.show_query and explanation.query:
        print()
        print(explanation.query)
    return 0


def _cmd_recommend(engine: ExplanationEngine, args: argparse.Namespace) -> int:
    user, context = persona(args.persona)
    recommendations = engine.recommender.recommend(user, context, top_k=args.top_k)
    if not recommendations:
        print("No recipe satisfies this user's hard constraints.")
        return 1
    for recommendation in recommendations:
        print(f"#{recommendation.rank}  {recommendation.recipe}  (score {recommendation.score:.2f})")
        for reason in recommendation.reasons():
            print(f"     - {reason}")
        if args.explain:
            explanation = engine.contextual(recommendation.recipe, user, context)
            print(f"     => {explanation.text}")
    return 0


def _cmd_competency(engine: ExplanationEngine, args: argparse.Namespace) -> int:
    user, context = persona(args.persona)
    suite = CompetencySuite(engine, user, context)
    results = suite.run_all() if args.extended else suite.run()
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        if not result.passed:
            failures += 1
        print(f"[{status}] {result.question.identifier}: {result.question.question.text} "
              f"({len(result.explanation.items)} evidence items)")
        if result.missing:
            print(f"       missing: {[binding.subject for binding in result.missing]}")
    print(f"\n{len(results) - failures}/{len(results)} competency questions passed")
    return 0 if failures == 0 else 1


def _cmd_coverage(engine: ExplanationEngine, args: argparse.Namespace) -> int:
    matrix = compute_coverage(engine)
    print(matrix.to_table())
    print(f"\noverall coverage: {matrix.overall_coverage():.0%}")
    return 0


def _cmd_evaluate(engine: ExplanationEngine, args: argparse.Namespace) -> int:
    report = run_evaluation(engine, include_extended=not args.skip_extended)
    print(report.to_text())
    return 0 if report.all_passed else 1


def _cmd_export(engine: ExplanationEngine, args: argparse.Namespace) -> int:
    graph = engine.builder._base
    if args.reasoned:
        from .owl import Reasoner

        graph = Reasoner(graph.copy()).run()
    text = graph.serialize(args.format)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(graph)} triples to {args.output}", file=sys.stderr)
    return 0


#: Question used by ``snapshot save --warm-persona`` when no
#: ``--warm-question`` is given: a canonical Table-I "why" question that
#: every persona can answer from the core catalog.
_DEFAULT_WARM_QUESTION = "Why should I eat Sushi?"


def _cmd_snapshot(engine: Optional[ExplanationEngine], args: argparse.Namespace) -> int:
    from .storage import ClosureEntry, SnapshotError, load_snapshot, save_snapshot

    if args.snapshot_command == "load":
        try:
            loaded = load_snapshot(args.input)
        except (OSError, SnapshotError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        stats = loaded.stats
        labelled = sum(1 for entry in loaded.closures if entry.label is not None)
        print(f"snapshot OK: {args.input}")
        print(f"  terms:      {stats['terms']}")
        print(f"  triples:    {stats['triples']}")
        print(f"  closures:   {stats['closures']} ({labelled} labelled)")
        print(f"  namespaces: {len(list(loaded.graph.namespaces()))}")
        print(f"  bytes:      {stats['bytes']}")
        return 0

    # save: build (or reuse) the engine, optionally pre-warm closures so
    # `serve --snapshot` shards answer first-touch requests from cache.
    engine = engine if engine is not None else ExplanationEngine()
    builder = engine.builder
    warm_personas = list(args.warm_persona)
    warm_questions = list(args.warm_question)
    if warm_questions and not warm_personas:
        warm_personas = ["paper"]
    if warm_personas and not warm_questions:
        warm_questions = [_DEFAULT_WARM_QUESTION]
    labels = {}
    for persona_key in warm_personas:
        user, context = persona(persona_key)
        for question_text in warm_questions:
            scenario = engine.build_scenario(
                parse_question(question_text), user, context)
            # The closure cache keys entries by the asserted graph's
            # fingerprint; label each warm entry with the profile it
            # serves so the sharded service seeds it on the shard that
            # routes that profile's traffic.
            labels[scenario.asserted.fingerprint()] = user.identifier
    closures = []
    cache = builder.closure_cache
    if cache is not None:
        closures = [
            ClosureEntry(asserted=asserted, closure=closure,
                         post_added=post_added,
                         label=labels.get(asserted.fingerprint()))
            for asserted, closure, post_added in cache.export_entries()
        ]
    try:
        stats = save_snapshot(args.output, builder._base, closures=closures)
    except (OSError, SnapshotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.output}: {stats['terms']} terms, "
          f"{stats['triples']} triples, {stats['closures']} warm closures, "
          f"{stats['bytes']} bytes", file=sys.stderr)
    return 0


def _cmd_close(engine: ExplanationEngine, args: argparse.Namespace) -> int:
    """Materialise the base KG closure and print the reasoning report."""
    from .owl import Reasoner

    base = engine.builder._base
    reasoner = Reasoner(base.copy())
    closure = reasoner.run()
    report = reasoner.report
    print(f"closure: {len(closure)} triples "
          f"({report.input_triples} asserted, "
          f"{report.inferred_triples} inferred)")
    print(f"iterations: {report.iterations}  "
          f"elapsed: {report.elapsed_seconds:.3f}s")
    for rule in sorted(report.rule_firings):
        print(f"  {rule}: {report.rule_firings[rule]}")
    print("seconds per rule family: " + "  ".join(
        f"{family} {seconds:.3f}s" for family, seconds in report.rule_seconds.items()))
    print(f"classification checks: {report.classification_checks}")
    return 0


def _parse_request_line(line: str, default_persona: str):
    """Split a ``serve`` input line into (persona, question); None to skip."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    if ":" in stripped:
        head, _, tail = stripped.partition(":")
        if head.strip() in PERSONAS:
            return head.strip(), tail.strip()
    return default_persona, stripped


def _serve_http(engine: Optional[ExplanationEngine], args: argparse.Namespace) -> int:
    """The --port mode: the sharded, concurrent HTTP/JSON server."""
    from .service import ExplanationServer, ShardedExplanationService
    from .testing import faults

    # Chaos knobs: REPRO_FAULTS="site=action@trigger[:ms];..." plus
    # REPRO_FAULT_SEED activate the deterministic fault injector for this
    # process (zero overhead when unset).
    injector = faults.install_from_env()
    if injector is not None:
        print(f"fault injection active: {len(injector.faults)} scheduled "
              f"faults (seed {injector.seed})", file=sys.stderr)
    common = dict(
        num_shards=args.shards,
        workers_per_shard=args.workers,
        queue_size=args.queue_size,
        session_ttl=args.session_ttl,
        default_persona=args.persona,
        request_timeout=args.request_timeout,
        drain_timeout=args.drain_timeout,
    )
    if args.snapshot is not None:
        # Zero-warm-up cold start: shards rebuild the graph family from
        # the snapshot file and seed any persisted closures instead of
        # re-parsing turtle and re-running the reasoner.
        service = ShardedExplanationService(snapshot=args.snapshot, **common).warm()
    else:
        service = ShardedExplanationService(engine=engine, **common).warm()
    server = ExplanationServer(service, host=args.host, port=args.port,
                               drain_timeout=args.drain_timeout)
    print(f"serving on {server.url} "
          f"({args.shards} shards x {args.workers} concurrent requests, "
          f"queue {args.queue_size}/shard)", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        if args.stats:
            print()
            print(service.stats().to_text())
    return 0


def _cmd_serve(engine: Optional[ExplanationEngine], args: argparse.Namespace) -> int:
    from .service import ExplanationRequest, ExplanationService

    if args.port is not None:
        return _serve_http(engine, args)

    if engine is None and args.snapshot is not None:
        # Line-stream mode can cold-start from a snapshot too: rebuild the
        # base graph family, adopt its stored base closure and seed every
        # persisted closure into the builder's cache (a single service has
        # no shard routing).
        from .core.scenario import ScenarioBuilder
        from .foodkg import build_core_catalog
        from .storage import SnapshotError, load_snapshot

        try:
            loaded = load_snapshot(args.snapshot)
        except (OSError, SnapshotError) as exc:
            print(f"error: cannot load snapshot: {exc}", file=sys.stderr)
            return 2
        builder = ScenarioBuilder(build_core_catalog(), base_graph=loaded.graph,
                                  base_closure=loaded.base_closure)
        if builder.closure_cache is not None:
            for entry in loaded.closures:
                builder.closure_cache.install(entry.asserted, entry.closure,
                                              entry.post_added)
        engine = ExplanationEngine(builder=builder)

    service = ExplanationService(engine=engine).warm()
    if args.requests == "-":
        source, owns_source = sys.stdin, False
    else:
        try:
            source, owns_source = open(args.requests, "r", encoding="utf-8"), True
        except OSError as exc:
            print(f"error: cannot read requests file: {exc}", file=sys.stderr)
            return 2

    failures = 0
    sessions = {}
    try:
        # Stream line-by-line: each request is answered as it arrives, and a
        # malformed one degrades to an error line instead of aborting.
        for line in source:
            parsed = _parse_request_line(line, args.persona)
            if parsed is None:
                continue
            persona_key, question = parsed
            # One session per persona: follow-up questions share the profile.
            if persona_key not in sessions:
                sessions[persona_key] = service.open_persona_session(persona_key)
            request = ExplanationRequest(
                question=question,
                session_id=sessions[persona_key].session_id,
                explanation_type=args.explanation_type,
            )
            try:
                response = service.explain(request)
            except RequestError as exc:
                # The typed request-error family covers unparseable
                # questions, unknown foods, conditions and --type values.
                failures += 1
                print(f"[error] {question}")
                print(f"  {exc.args[0] if exc.args else exc}")
                continue
            print(f"[{persona_key} | {response.explanation.explanation_type}"
                  f"{' | cached' if response.scenario_cache_hit else ''}] "
                  f"{question}")
            print(f"  {response.explanation.text}")
    finally:
        if owns_source:
            source.close()
    if args.stats:
        print()
        print(service.stats().to_text())
    return 0 if failures == 0 else 1


_COMMANDS = {
    "ask": _cmd_ask,
    "recommend": _cmd_recommend,
    "competency": _cmd_competency,
    "coverage": _cmd_coverage,
    "evaluate": _cmd_evaluate,
    "export": _cmd_export,
    "serve": _cmd_serve,
    "snapshot": _cmd_snapshot,
    "close": _cmd_close,
}


def _needs_eager_engine(args: argparse.Namespace) -> bool:
    """Whether ``main`` should build the default engine up front.

    ``snapshot load`` never needs one, and snapshot-backed serving (and
    ``snapshot save``, which may reuse an injected engine) builds lazily —
    eager construction would re-parse the whole ontology just to throw it
    away.
    """
    if args.command == "snapshot":
        return False
    if args.command == "serve" and args.snapshot is not None:
        return False
    return True


def main(argv: Optional[List[str]] = None, engine: Optional[ExplanationEngine] = None) -> int:
    """CLI entry point; ``engine`` can be injected to reuse a prebuilt one in tests."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if engine is None and _needs_eager_engine(args):
        engine = ExplanationEngine()
    handler = _COMMANDS[args.command]
    return handler(engine, args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
