"""``python -m repro`` — the command-line face of the catalog and service.

Subcommands::

    repro catalog add FILE [FILE ...]    ingest record files (kind auto-detected)
    repro catalog list                   list stored entries (latest versions)
    repro catalog show KIND NAME         print a stored record text
    repro catalog gc                     bound disk usage (checkpoints, results)
    repro compose [FILE]                 compose a problem/chain record file or
                                         a stored catalog entry (--name/--kind)
    repro serve                          start the HTTP composition service
    repro serve --follow TARGET          start as a replication follower that
                                         tails TARGET (a primary's catalog root
                                         or its http:// URL) and mirrors it
    repro serve --follow T --election    also run leader election: self-promote
                                         (with a fresh fencing epoch) when the
                                         primary goes silent — no operator call
    repro route --backend URL ...        start the health-routing front tier
                                         over one primary and its followers
    repro metrics URL                    fetch and pretty-print a running
                                         service's /metrics (and, on a router,
                                         /router/status)
    repro trace FILE [FILE ...]          merge trace JSONL sinks (router,
                                         primary, followers) into one tree per
                                         trace id; --verify asserts every tree
                                         is complete and orphan-free

Every subcommand operates on one catalog root directory (``--root``,
defaulting to ``$REPRO_CATALOG_ROOT`` or ``./repro-catalog``).  ``compose``
threads the catalog's *persistent* checkpoint store through chained
compositions, so recomposing a stored chain after a process restart replays
only the hops that changed — run ``repro compose --kind chain --name X``
twice and compare the ``reused hops`` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from repro.exceptions import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mapping catalog and composition service (VLDB 2006 reproduction).",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="catalog root directory (default: $REPRO_CATALOG_ROOT or ./repro-catalog)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    catalog = commands.add_parser("catalog", help="inspect and grow the mapping catalog")
    catalog_commands = catalog.add_subparsers(dest="catalog_command", required=True)

    add = catalog_commands.add_parser("add", help="ingest record files into the catalog")
    add.add_argument("files", nargs="+", metavar="FILE", help="record text files")
    add.add_argument("--name", help="store under this name (default: the record's # name:)")
    add.add_argument("--kind", help="force a record kind instead of auto-detection")

    listing = catalog_commands.add_parser("list", help="list stored entries")
    listing.add_argument("--kind", help="only this kind")
    listing.add_argument("--json", action="store_true", help="machine-readable output")

    show = catalog_commands.add_parser("show", help="print one stored record")
    show.add_argument("kind", help="schema | mapping | chain | problem | result")
    show.add_argument("name")
    show.add_argument("--version", type=int, help="a specific version (default: latest)")

    gc = catalog_commands.add_parser(
        "gc", help="garbage-collect checkpoints and old result versions"
    )
    gc.add_argument(
        "--max-checkpoint-files", type=int, default=None, metavar="N",
        help="keep at most N checkpoint files (least recently used evicted first)",
    )
    gc.add_argument(
        "--checkpoint-max-age", type=float, default=None, metavar="SECONDS",
        help="evict checkpoints not used for this many seconds",
    )
    gc.add_argument(
        "--result-max-age", type=float, default=None, metavar="SECONDS",
        help="prune stored result versions older than this (latest always kept)",
    )
    gc.add_argument(
        "--keep-result-versions", type=int, default=None, metavar="N",
        help="always retain the newest N versions of each result (default 1)",
    )
    gc.add_argument(
        "--chain-max-age", type=float, default=None, metavar="SECONDS",
        help="prune stored chain versions older than this (delta bases that "
        "newer versions still reference are never evicted)",
    )
    gc.add_argument(
        "--keep-chain-versions", type=int, default=None, metavar="N",
        help="always retain the newest N versions of each chain (default 1)",
    )
    gc.add_argument(
        "--journal-max-segments", type=int, default=None, metavar="N",
        help="keep at most N replication-journal segments per shard",
    )
    gc.add_argument(
        "--journal-max-age", type=float, default=None, metavar="SECONDS",
        help="drop journal segments not written to for this long",
    )
    gc.add_argument(
        "--grace", type=float, default=0.0, metavar="SECONDS",
        help="never evict checkpoints/results used or written this recently",
    )
    gc.add_argument(
        "--dry-run", action="store_true", help="report what would be removed only"
    )
    gc.add_argument("--json", action="store_true", help="machine-readable report")

    compose = commands.add_parser(
        "compose", help="compose a record file or a stored catalog entry"
    )
    compose.add_argument(
        "file", nargs="?", metavar="FILE", help="a problem or chain record file"
    )
    compose.add_argument("--name", help="compose a stored catalog entry instead of a file")
    compose.add_argument(
        "--kind", choices=("problem", "chain"), default="problem",
        help="kind of the stored entry named by --name (default: problem)",
    )
    compose.add_argument("--version", type=int, help="catalog version (default: latest)")
    compose.add_argument(
        "--order", choices=("fixed", "cost"), default="fixed",
        help="elimination order: the paper's fixed order or the cost-guided planner",
    )
    compose.add_argument("--store", metavar="NAME", help="store the result in the catalog")

    serve = commands.add_parser("serve", help="start the HTTP composition service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8075)
    serve.add_argument("--max-pending", type=int, default=1024)
    serve.add_argument(
        "--admission", choices=("reject", "block"), default="reject",
        help="past --max-pending: reject with 429, or block until space frees",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="with --admission block: how long a request may wait for queue space",
    )
    serve.add_argument("--timeout", type=float, default=None, metavar="SECONDS")
    serve.add_argument(
        "--gc-interval", type=float, default=None, metavar="SECONDS",
        help="run a catalog GC sweep this often in the background",
    )
    serve.add_argument(
        "--gc-max-checkpoint-files", type=int, default=None, metavar="N",
        help="GC sweep policy: keep at most N checkpoint files",
    )
    serve.add_argument(
        "--gc-checkpoint-max-age", type=float, default=None, metavar="SECONDS",
        help="GC sweep policy: evict checkpoints unused for this long",
    )
    serve.add_argument(
        "--gc-result-max-age", type=float, default=None, metavar="SECONDS",
        help="GC sweep policy: prune result versions older than this",
    )
    serve.add_argument(
        "--gc-grace", type=float, default=5.0, metavar="SECONDS",
        help="GC sweeps never evict entries used/written this recently (default 5)",
    )
    serve.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="claim each request across processes with leases of this TTL "
        "and wait up to 4x the TTL for a peer's live claim before composing "
        "anyway (enables cross-process dedup; unset disables)",
    )
    serve.add_argument(
        "--follow", metavar="TARGET", default=None,
        help="run as a replication follower of TARGET: a primary's catalog "
        "root directory or its http(s):// base URL (tails the journal, "
        "mirrors every entry, serves reads; POST /admin/promote promotes)",
    )
    serve.add_argument(
        "--follow-poll", type=float, default=0.2, metavar="SECONDS",
        help="how often a follower polls its source's journal (default 0.2)",
    )
    serve.add_argument(
        "--election", nargs="?", const="", default=None, metavar="DIR",
        help="run lease-based leader election: a follower self-promotes when "
        "the primary goes silent; a primary holds the leader lease.  DIR is "
        "the shared election directory (default: <root>/election)",
    )
    serve.add_argument(
        "--election-timeout", type=float, default=5.0, metavar="SECONDS",
        help="primary silence threshold before candidates race to promote "
        "(default 5.0)",
    )
    serve.add_argument(
        "--ack-level", choices=("journal", "replica"), default="journal",
        help="write acks: 'journal' after the local WAL fsync (default), "
        "'replica' once a follower confirms the entry applied (degrades to "
        "202 + x-repro-ack-pending past the ack timeout)",
    )
    serve.add_argument(
        "--replica-ack-timeout", type=float, default=2.0, metavar="SECONDS",
        help="with --ack-level replica: how long a write waits for a "
        "follower's confirmation (default 2.0)",
    )
    serve.add_argument("--verbose", action="store_true", help="log every request")
    serve.add_argument(
        "--access-log", metavar="FILE", default=None,
        help="append one JSONL access record per request (method, path, "
        "status, duration, trace id) to FILE; off by default",
    )
    serve.add_argument(
        "--slow-trace", type=float, default=None, metavar="SECONDS",
        help="dump the full span tree of any request slower than this to "
        "stderr (also counted in tracing.slow_requests)",
    )
    serve.add_argument(
        "--trace-log", metavar="FILE", default=None,
        help="append every recorded span to FILE as JSONL (default: "
        "$REPRO_TRACE_LOG); merge sinks later with `repro trace`",
    )

    router = commands.add_parser(
        "route", help="start the health-routing front tier over service backends"
    )
    router.add_argument(
        "--backend", action="append", required=True, metavar="URL", dest="backends",
        help="a backend service base URL (repeat for each primary/follower)",
    )
    router.add_argument("--host", default="127.0.0.1")
    router.add_argument("--port", type=int, default=8076)
    router.add_argument(
        "--health-interval", type=float, default=0.5, metavar="SECONDS",
        help="how often each backend's /healthz is polled (default 0.5)",
    )
    router.add_argument(
        "--min-consecutive-ok", type=int, default=2, metavar="N",
        help="flap damping: healthy polls in a row a recovering backend needs "
        "before re-entering rotation (default 2)",
    )
    router.add_argument("--verbose", action="store_true", help="log every request")
    router.add_argument(
        "--trace-log", metavar="FILE", default=None,
        help="append every recorded span to FILE as JSONL (default: "
        "$REPRO_TRACE_LOG); merge sinks later with `repro trace`",
    )

    metrics = commands.add_parser(
        "metrics", help="fetch and pretty-print a running service's metrics"
    )
    metrics.add_argument("url", metavar="URL", help="service or router base URL")
    metrics.add_argument(
        "--prometheus", action="store_true",
        help="fetch the Prometheus text exposition instead of JSON",
    )
    metrics.add_argument(
        "--timeout", type=float, default=5.0, metavar="SECONDS",
        help="per-request HTTP timeout (default 5.0)",
    )

    trace = commands.add_parser(
        "trace", help="merge per-process trace JSONL sinks into trees"
    )
    trace.add_argument(
        "files", nargs="+", metavar="FILE",
        help="trace sink files (REPRO_TRACE_LOG / --trace-log output) from "
        "router, primary, and follower processes",
    )
    trace.add_argument("--trace-id", default=None, help="show only this trace")
    trace.add_argument(
        "--verify", action="store_true",
        help="exit 1 unless every merged trace tree is orphan-free",
    )
    trace.add_argument(
        "--require", action="append", default=None, metavar="SPAN",
        help="with --verify: at least one trace must contain ALL of these "
        "span names (repeatable)",
    )
    trace.add_argument("--json", action="store_true", help="machine-readable output")

    return parser


def _catalog_root(args) -> Path:
    import os

    if args.root:
        return Path(args.root)
    return Path(os.environ.get("REPRO_CATALOG_ROOT", "repro-catalog"))


def _open_catalog(args):
    from repro.catalog import MappingCatalog

    return MappingCatalog(_catalog_root(args))


def _cmd_catalog_add(args) -> int:
    catalog = _open_catalog(args)
    for file in args.files:
        text = Path(file).read_text(encoding="utf-8")
        entry = catalog.add_text(text, name=args.name, kind=args.kind)
        print(f"{entry.kind}/{entry.name} v{entry.version}  {entry.fingerprint[:12]}  {file}")
    return 0


def _cmd_catalog_list(args) -> int:
    catalog = _open_catalog(args)
    entries = catalog.entries(args.kind)
    if args.json:
        payload = [
            {
                "kind": entry.kind,
                "name": entry.name,
                "version": entry.version,
                "fingerprint": entry.fingerprint,
                "created_at": entry.created_at,
            }
            for entry in entries
        ]
        print(json.dumps(payload, indent=2))
        return 0
    if not entries:
        print("catalog is empty", file=sys.stderr)
        return 0
    width = max(len(f"{entry.kind}/{entry.name}") for entry in entries)
    for entry in entries:
        label = f"{entry.kind}/{entry.name}"
        print(f"{label:<{width}}  v{entry.version}  {entry.fingerprint[:12]}  {entry.created_at}")
    return 0


def _cmd_catalog_show(args) -> int:
    catalog = _open_catalog(args)
    sys.stdout.write(catalog.text(args.kind, args.name, args.version))
    return 0


def _cmd_catalog_gc(args) -> int:
    from repro.catalog import GcPolicy

    policy = GcPolicy(
        checkpoint_max_files=args.max_checkpoint_files,
        checkpoint_max_age_seconds=args.checkpoint_max_age,
        result_max_age_seconds=args.result_max_age,
        result_keep_versions=args.keep_result_versions,
        chain_max_age_seconds=args.chain_max_age,
        chain_keep_versions=args.keep_chain_versions,
        journal_max_segments=args.journal_max_segments,
        journal_max_age_seconds=args.journal_max_age,
        grace_seconds=args.grace,
    )
    report = _open_catalog(args).gc(policy, dry_run=args.dry_run)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    verb = "would remove" if args.dry_run else "removed"
    for label, key in (
        ("checkpoints", "checkpoints"),
        ("results", "results"),
        ("chains", "chains"),
        ("journal", "journal"),
    ):
        section = report[key]
        print(
            f"{label + ':':<13}{verb} {section['removed']}, "
            f"retained {section['retained']} (examined {section['examined']})"
        )
    return 0


def _composer_config(order: str):
    from repro.compose.config import ComposerConfig

    return ComposerConfig.cost_guided() if order == "cost" else ComposerConfig()


def _cmd_compose(args) -> int:
    from repro.compose.composer import compose
    from repro.engine.chain import compose_chain
    from repro.textio.records import mapping_to_text, parse_record, read_record, result_to_text

    catalog = _open_catalog(args)
    config = _composer_config(args.order)

    if args.name:
        kind = args.kind
        payload = (
            catalog.get_chain(args.name, args.version)
            if kind == "chain"
            else catalog.get_problem(args.name, args.version)
        )
    elif args.file:
        record = parse_record(Path(args.file).read_text(encoding="utf-8"))
        kind = record.require_kind()
        if kind not in ("problem", "chain"):
            print(f"error: cannot compose a {kind!r} record", file=sys.stderr)
            return 1
        payload = read_record(record)
    else:
        print("error: pass a FILE or --name", file=sys.stderr)
        return 1

    if kind == "chain":
        chain_result = compose_chain(payload, config, checkpoints=catalog.checkpoints)
        print(chain_result.summary(), file=sys.stderr)
        print(
            f"reused hops: {chain_result.reused_hops}/{len(chain_result.hops)} "
            "(persistent checkpoints)",
            file=sys.stderr,
        )
        composed = chain_result.to_mapping_with_residue()
        if args.store:
            entry = catalog.put_mapping(args.store, composed)
            print(f"stored mapping/{entry.name} v{entry.version}", file=sys.stderr)
        sys.stdout.write(mapping_to_text(composed, name=args.store or ""))
        return 0

    result = compose(payload, config)
    print(result.summary(), file=sys.stderr)
    if args.store:
        entry = catalog.put_result(args.store, result)
        print(f"stored result/{entry.name} v{entry.version}", file=sys.stderr)
    sys.stdout.write(result_to_text(result, name=args.store or ""))
    return 0


def _configure_tracing(default_service: str, trace_log: Optional[str]) -> None:
    """Point the process trace recorder at its sink before serving starts.

    The CLI flag wins over ``$REPRO_TRACE_LOG``; the service label defaults
    to ``$REPRO_TRACE_SERVICE`` so drill harnesses can name each process.
    """
    import os

    from repro import obs

    service = os.environ.get(obs.SERVICE_ENV_VAR) or default_service
    obs.configure(service=service, log_path=trace_log)


def _cmd_serve(args) -> int:
    from repro.catalog import GcPolicy
    from repro.service import (
        CompositionService,
        LeaderElector,
        ReplicationFollower,
        ServiceConfig,
        ServiceHTTPServer,
        open_source,
    )

    config = ServiceConfig(
        max_pending=args.max_pending,
        admission=args.admission,
        deadline_seconds=args.deadline,
        timeout_seconds=args.timeout,
        gc_interval_seconds=args.gc_interval,
        gc_policy=GcPolicy(
            checkpoint_max_files=args.gc_max_checkpoint_files,
            checkpoint_max_age_seconds=args.gc_checkpoint_max_age,
            result_max_age_seconds=args.gc_result_max_age,
            grace_seconds=args.gc_grace,
        ),
        lease_ttl_seconds=args.lease_ttl,
        ack_level=args.ack_level,
        replica_ack_timeout_seconds=args.replica_ack_timeout,
        slow_trace_seconds=args.slow_trace,
    )
    _configure_tracing(f"serve:{args.port}", args.trace_log)
    catalog = _open_catalog(args)
    service = CompositionService(catalog, config)
    # Build every part before starting any, so a refused setting leaves no
    # thread behind.
    follower = None
    if args.follow:
        follower = ReplicationFollower(
            catalog,
            open_source(args.follow),
            poll_interval_seconds=args.follow_poll,
        )
    elector = None
    if args.election is not None:
        source_root = None
        primary_url = None
        if args.follow:
            target = str(args.follow)
            if target.startswith(("http://", "https://")):
                primary_url = target
            else:
                source_root = Path(target)
        elector = LeaderElector(
            catalog,
            follower=follower,
            election_dir=Path(args.election) if args.election else None,
            source_root=source_root,
            primary_url=primary_url,
            election_timeout_seconds=args.election_timeout,
        )
    server = ServiceHTTPServer(
        service,
        host=args.host,
        port=args.port,
        verbose=args.verbose,
        follower=follower,
        elector=elector,
        access_log=args.access_log,
    )
    if follower is not None:
        follower.start()
    if elector is not None:
        elector.start()
    service.start()
    host, port = server.address
    print(f"repro composition service on http://{host}:{port}", flush=True)
    print(f"catalog root: {catalog.root}", flush=True)
    if follower is not None:
        print(f"following: {follower.source.origin}", flush=True)
    if elector is not None:
        print(f"election: {elector.leases.directory}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        # Release the port before draining: serve_forever closes on clean
        # exits, but a KeyboardInterrupt can land outside its try block, so
        # close here too (idempotent) — otherwise the socket leaks while
        # service.stop() drains the queue.
        server.close()
        if elector is not None:
            elector.stop()
        if follower is not None and not follower.promoted:
            follower.stop()
        service.stop()
    return 0


def _cmd_route(args) -> int:
    from repro.service import RouterHTTPServer

    _configure_tracing(f"router:{args.port}", args.trace_log)
    router = RouterHTTPServer(
        args.backends,
        host=args.host,
        port=args.port,
        health_interval_seconds=args.health_interval,
        min_consecutive_ok=args.min_consecutive_ok,
        verbose=args.verbose,
    )
    host, port = router.address
    print(f"repro router on http://{host}:{port}", flush=True)
    for backend in router.backends:
        print(f"backend: {backend.url}", flush=True)
    try:
        router.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        router.close()
    return 0


def _cmd_metrics(args) -> int:
    from repro.service.wire import TRANSPORT_ERRORS, PooledClient

    base = args.url.rstrip("/")
    client = PooledClient()
    try:
        if args.prometheus:
            try:
                status, _, body = client.request(
                    "GET", f"{base}/metrics?format=prometheus", timeout=args.timeout
                )
            except TRANSPORT_ERRORS as exc:
                print(f"error: cannot fetch {base}/metrics: {exc}", file=sys.stderr)
                return 1
            if status != 200:
                print(f"error: cannot fetch {base}/metrics: HTTP {status}", file=sys.stderr)
                return 1
            sys.stdout.write(body.decode("utf-8"))
            return 0
        # A service answers /metrics; a router additionally answers its own
        # /router/status (and proxies /metrics to a backend).  Print whatever
        # the target actually serves.
        printed = False
        for path in ("/metrics", "/router/status"):
            try:
                status, _, body = client.request("GET", base + path, timeout=args.timeout)
                if status != 200:
                    continue
                payload = json.loads(body.decode("utf-8"))
            except (*TRANSPORT_ERRORS, ValueError) as exc:
                print(f"error: cannot fetch {base}{path}: {exc}", file=sys.stderr)
                return 1
            print(f"# {path}")
            print(json.dumps(payload, indent=2, sort_keys=True))
            printed = True
    finally:
        client.close()
    if not printed:
        print(f"error: {base} answers neither /metrics nor /router/status", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args) -> int:
    from repro import obs

    spans = obs.load_spans(args.files)
    traces = obs.merge_spans(spans)
    if args.trace_id is not None:
        traces = {k: v for k, v in traces.items() if k == args.trace_id}
        if not traces:
            print(f"error: trace {args.trace_id} not found in the sinks", file=sys.stderr)
            return 1
    if args.verify:
        problems = obs.verify(traces, require=args.require)
        if problems:
            for problem in problems:
                print(f"verify: {problem}", file=sys.stderr)
            print(
                f"verify: FAILED ({len(problems)} problems across "
                f"{len(traces)} traces)",
                file=sys.stderr,
            )
            return 1
        total = sum(len(records) for records in traces.values())
        print(f"verify: ok — {len(traces)} traces, {total} spans, no orphans")
        return 0
    if args.json:
        print(json.dumps(traces, indent=2, sort_keys=True))
        return 0
    if not traces:
        print("no traces in the given sinks", file=sys.stderr)
        return 0
    for trace_id, records in sorted(traces.items()):
        print(obs.format_trace(trace_id, records))
        print()
    return 0


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "catalog":
            if args.catalog_command == "add":
                return _cmd_catalog_add(args)
            if args.catalog_command == "list":
                return _cmd_catalog_list(args)
            if args.catalog_command == "gc":
                return _cmd_catalog_gc(args)
            return _cmd_catalog_show(args)
        if args.command == "compose":
            return _cmd_compose(args)
        if args.command == "route":
            return _cmd_route(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        if args.command == "trace":
            return _cmd_trace(args)
        return _cmd_serve(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
