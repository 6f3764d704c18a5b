"""Command-line interface: a usable AA-Dedupe backup tool.

::

    python -m repro backup  ~/Documents --store /backups/cloud
    python -m repro ls      --store /backups/cloud
    python -m repro restore 0 /tmp/out --store /backups/cloud
    python -m repro gc      --store /backups/cloud --keep-last 4
    python -m repro scrub   --store /backups/cloud
    python -m repro backup  ~/Documents --store /backups/cloud \
        --replication 2 --fault-domains d0,d1,d2
    python -m repro repair  --store /backups/cloud
    python -m repro schemes
    python -m repro fleet   --clients 8 --sessions 3
    python -m repro backup  ~/Documents --store /backups/cloud \
        --profile --trace-out /tmp/backup.trace.jsonl
    python -m repro trace-profile /tmp/backup.trace.jsonl
    python -m repro jobs run --config jobs.yaml --store /backups/cloud
    python -m repro jobs run --config jobs.yaml --list-jobs

The store is a directory-backed object store
(:class:`repro.cloud.LocalDirectoryBackend`); clients are stateless —
each invocation resumes dedup state from the synced cloud index.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.baselines import all_scheme_configs
from repro.cloud.local import LocalDirectoryBackend
from repro.core import naming
from repro.core.backup import BackupClient
from repro.core.gc import collect_garbage
from repro.core.options import SchemeConfig
from repro.core.recipe import Manifest
from repro.core.restore import RestoreClient
from repro.core.retention import keep_last
from repro.core.scrub import scrub_cloud
from repro.core.source import DirectorySource
from repro.metrics.report import Table
from repro.util.units import format_bytes, format_seconds, parse_size

__all__ = ["main", "build_parser"]


def _scheme_by_name(name: str) -> SchemeConfig:
    for config in all_scheme_configs():
        if config.name.lower() == name.lower():
            return config
    names = ", ".join(c.name for c in all_scheme_configs())
    raise SystemExit(f"unknown scheme {name!r}; available: {names}")


# ----------------------------------------------------------------------
def cmd_backup(args) -> int:
    """Run one backup session of SOURCE into the store."""
    config = _scheme_by_name(args.scheme)
    if args.container_size:
        config = config.with_(container_size=parse_size(
            args.container_size))
    if args.chunker:
        from repro.errors import ConfigError
        try:
            config = config.with_chunker(args.chunker)
        except ConfigError as exc:
            raise SystemExit(f"--chunker: {exc}")
    if args.delta is not None:
        config = config.with_(delta_compress=args.delta)
    if args.stat_cache is not None:
        config = config.with_(stat_cache=args.stat_cache)
    if args.parallel is not None:
        if args.parallel < 1:
            raise SystemExit("--parallel: must be >= 1")
        config = config.with_(parallel_workers=args.parallel)
    if args.pipeline is not None:
        config = config.with_(pipeline_uploads=args.pipeline)
    tracer = None
    if args.profile:
        from repro.obs import Tracer
        tracer = Tracer()  # wall clock: profiles the real run
    client = BackupClient(LocalDirectoryBackend(args.store), config,
                          tracer=tracer)
    recovered = client.resume_from_cloud()
    if recovered and not args.quiet:
        print(f"resumed {recovered} index entries from the store")
    stats = client.backup(DirectorySource(args.source))
    client.close()
    print(stats.summary())
    if args.replication:
        from repro.durability import (DurabilityPolicy, default_domains,
                                      replicate_cloud)
        domains = (tuple(d for d in args.fault_domains.split(",") if d)
                   if args.fault_domains else default_domains())
        policy = DurabilityPolicy(
            base_replicas=args.replication,
            max_replicas=max(args.replication + 1, 3))
        rep = replicate_cloud(LocalDirectoryBackend(args.store),
                              policy=policy, domains=domains,
                              tracer=tracer)
        print(f"replication: {rep.containers_replicated} of "
              f"{rep.containers_considered} containers tiered up, "
              f"{rep.replicas_written} replicas written "
              f"({format_bytes(rep.replica_bytes)}) across "
              f"{len(domains)} fault domains")
        for problem in rep.problems:
            print(f"PROBLEM: {problem}", file=sys.stderr)
    if not args.quiet:
        print(f"  saved {format_bytes(stats.bytes_saved)} "
              f"({stats.files_tiny} tiny files filtered, "
              f"{stats.chunks_unique} new chunks, "
              f"dedup {format_seconds(stats.dedup_wall_seconds)})")
        if config.stat_cache and stats.files_unchanged:
            print(f"  stat cache: {stats.files_unchanged} unchanged "
                  f"files replayed without re-chunking "
                  f"({stats.statcache_stale} stale, "
                  f"{format_bytes(stats.ops.read_bytes)} read of "
                  f"{format_bytes(stats.bytes_scanned)} scanned)")
        if config.delta_compress:
            print(f"  delta: {stats.chunks_delta} chunks stored as "
                  f"deltas, {format_bytes(stats.delta_bytes_saved)} "
                  f"saved beyond exact dedup "
                  f"({stats.delta_rejected} rejected by cutoff)")
        if stats.stage_busy_seconds:
            order = ("read", "chunk", "hash", "commit", "pack", "upload")
            busy = stats.stage_busy_seconds
            parts = [f"{name} {format_seconds(busy[name])}"
                     for name in order if name in busy]
            parts.extend(f"{name} {format_seconds(value)}"
                         for name, value in sorted(busy.items())
                         if name not in order)
            print(f"  stages: {', '.join(parts)}")
    if tracer is not None:
        from repro.obs import render_profile

        trace_out = args.trace_out or "backup.trace.jsonl"
        tracer.write_jsonl(trace_out)
        print(f"trace written to {trace_out} "
              f"({len(tracer.spans())} spans)")
        print(render_profile(tracer.spans()))
        metrics = tracer.metrics.render()
        if metrics and not args.quiet:
            print(metrics)
    return 0


def cmd_trace_profile(args) -> int:
    """Summarise a JSONL trace: stage + per-application breakdown."""
    from repro.obs import load_spans, render_profile

    try:
        with open(args.trace, encoding="utf-8") as fh:
            spans = load_spans(fh)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 1
    print(render_profile(spans))
    return 0


def cmd_restore(args) -> int:
    """Restore a session (or selected paths) into DEST."""
    cloud = LocalDirectoryBackend(args.store)
    client = RestoreClient(cloud, verify=not args.no_verify)
    report = client.restore_to_directory(
        args.session, args.dest, paths=args.path or None)
    print(f"restored {report.files_restored} files "
          f"({format_bytes(report.bytes_restored)}) from session "
          f"{args.session}; {report.chunks_verified} chunks verified")
    return 0


def cmd_ls(args) -> int:
    """List sessions stored in the store."""
    cloud = LocalDirectoryBackend(args.store)
    ids = naming.session_ids(cloud)
    if not ids:
        print("no sessions in store")
        return 0
    table = Table(["session", "scheme", "files", "bytes"])
    for sid in ids:
        manifest = Manifest.from_json(cloud.get(naming.manifest_key(sid)))
        table.add_row([sid, manifest.scheme, len(manifest),
                       format_bytes(manifest.total_bytes())])
    print(table.render())
    return 0


def cmd_gc(args) -> int:
    """Delete old sessions and sweep dead containers/objects."""
    cloud = LocalDirectoryBackend(args.store)
    ids = naming.session_ids(cloud)
    if args.retain is not None:
        retain = {int(s) for s in args.retain.split(",") if s}
    elif args.retain_last is not None:
        # Timestamp-ordered retention (the service layer's policy):
        # newest N by manifest creation time, session id as tiebreak —
        # robust to id gaps, unlike the positional --keep-last.
        from repro.core.gc import session_catalog
        from repro.core.retention import RetainLastN
        from repro.errors import ConfigError, ReproError
        try:
            catalog = session_catalog(cloud)
            retain = RetainLastN(args.retain_last).select(catalog)
        except ConfigError as exc:
            print(f"--retain-last: {exc}", file=sys.stderr)
            return 2
        except ReproError as exc:
            print(f"PROBLEM: {exc}", file=sys.stderr)
            print("nothing deleted: session ages could not be proven",
                  file=sys.stderr)
            return 1
    else:
        retain = keep_last(ids, args.keep_last)
    report = collect_garbage(cloud, retain)
    print(f"retained sessions: {sorted(retain) or 'none'}")
    if report.problems:
        for problem in report.problems:
            print(f"PROBLEM: {problem}", file=sys.stderr)
        print("nothing deleted: the mark phase was incomplete",
              file=sys.stderr)
        return 1
    print(f"deleted {report.deleted_manifests} manifests, "
          f"{report.deleted_containers} containers, "
          f"{report.deleted_objects} objects; "
          f"{report.live_containers} containers live")
    if report.statcache_invalidated:
        print(f"stat caches invalidated "
              f"({report.statcache_blobs_deleted} blobs dropped, "
              f"GC epoch bumped)")
    return 0


def cmd_scrub(args) -> int:
    """Verify container CRCs, extent fingerprints, manifest refs and
    durability replicas."""
    cloud = LocalDirectoryBackend(args.store)
    report = scrub_cloud(cloud, verify_extents=not args.fast)
    print(f"checked {report.containers_checked} containers "
          f"({report.extents_verified} extents verified), "
          f"{report.replicas_checked} replicas, "
          f"{report.manifests_checked} manifests "
          f"({report.refs_resolved} refs resolved), "
          f"{report.index_replicas_checked} index replicas")
    print(report.summary_line())
    if report.clean:
        print("store is clean")
        return 0
    for finding in report.findings:
        tag = "DEGRADED" if finding.repairable else "PROBLEM"
        print(f"{tag}: {finding.message}", file=sys.stderr)
    if any(f.repairable for f in report.findings):
        print("repairable findings: run `repro repair` to restore "
              "full replication", file=sys.stderr)
    return 1


def cmd_repair(args) -> int:
    """Rebuild missing/corrupt container copies from survivors."""
    from repro.durability import repair_cloud

    cloud = LocalDirectoryBackend(args.store)
    report = repair_cloud(cloud)
    print(f"checked {report.containers_checked} replicated containers: "
          f"{report.primaries_restored} primaries promoted, "
          f"{report.replicas_restored} replicas rebuilt "
          f"({format_bytes(report.bytes_copied)} copied)")
    if report.ok:
        return 0
    for message in report.unrepairable:
        print(f"UNREPAIRABLE: {message}", file=sys.stderr)
    return 1


def cmd_estimate(args) -> int:
    """Predict dedup ratio / upload time / cost for a directory."""
    from repro.analysis.estimate import estimate_directory

    est = estimate_directory(args.source, delta=args.delta)
    print(f"{est.files} files, {format_bytes(est.bytes_scanned)} scanned "
          f"({est.tiny_files} tiny)")
    print(f"predicted unique data: {format_bytes(est.bytes_unique)} "
          f"(dedup ratio {est.dedup_ratio:.2f})")
    if args.delta:
        print(f"delta stage: {est.delta_chunks} chunks stored as deltas, "
              f"{format_bytes(est.delta_bytes_saved)} saved beyond "
              f"exact dedup")
    table = Table(["category", "scanned", "unique", "DR"])
    for category, (scanned, unique) in sorted(est.by_category.items()):
        table.add_row([category, format_bytes(scanned),
                       format_bytes(unique),
                       scanned / unique if unique else float("inf")])
    print(table.render())
    print(f"first backup over a 500 KB/s uplink: "
          f"~{format_seconds(est.upload_seconds())}; first-month bill "
          f"~${est.monthly_cost():.2f} (April-2011 S3 prices)")
    return 0


def cmd_fleet(args) -> int:
    """Simulate a fleet of clients backing up to one shared store."""
    from repro.fleet import (FleetService, GlobalDedupDirectory,
                             generated_fleet_sources,
                             synthetic_fleet_sources)

    tracer = None
    if args.profile:
        from repro.obs import Tracer
        tracer = Tracer()
    if args.bytes_per_client:
        sources = generated_fleet_sources(
            args.clients, args.sessions,
            bytes_per_client=parse_size(args.bytes_per_client),
            seed=args.seed)
    else:
        sources = synthetic_fleet_sources(args.clients, args.sessions,
                                          seed=args.seed)

    def config(_rank):
        cfg = _scheme_by_name(args.scheme)
        if args.container_size:
            cfg = cfg.with_(container_size=parse_size(args.container_size))
        return cfg

    index_factory = None
    if args.sparse_shards:
        from repro.index.sparse import SparseShardIndex

        def index_factory(_app, _bucket):
            return SparseShardIndex()
    directory = GlobalDedupDirectory(
        shards_per_app=args.shards,
        index_factory=index_factory,
        cache_capacity=args.shard_cache,
        filter_capacity=args.shard_filter,
        shard_split_entries=args.shard_split,
        tracer=tracer)
    service = FleetService(clients=args.clients,
                           config_factory=config,
                           directory=directory,
                           waves=args.waves,
                           tracer=tracer)
    try:
        report = service.run(sources, max_workers=args.workers)
    finally:
        service.close()
    print(report.render())
    if tracer is not None:
        from repro.obs import render_profile
        print(render_profile(tracer.spans()))
    return 0


def cmd_jobs(args) -> int:
    """Run declarative backup jobs from a YAML/JSON config.

    Exit codes: 0 — every job succeeded; 1 — at least one job failed
    (the report is still printed/written); 2 — configuration error.
    """
    from repro.errors import ConfigError
    from repro.service import BackupService, load_config

    try:
        spec = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.list_jobs:
        table = Table(["job", "scheme", "schedule", "retention",
                       "hooks", "source"], title="configured jobs")
        for job in spec.jobs:
            schedule = (f"every {job.schedule.interval:g}s"
                        + (f" +{job.schedule.offset:g}s"
                           if job.schedule.offset else "")
                        if job.schedule else "manual")
            if job.retention is None:
                retention = "-"
            else:
                retention = repr(job.retention)
            hooks = len(job.hooks.pre) + len(job.hooks.post)
            table.add_row([job.name, job.scheme, schedule, retention,
                           hooks or "-", job.describe_source()])
        print(table.render())
        return 0
    if not args.store:
        print("jobs run needs --store (or --list-jobs)", file=sys.stderr)
        return 2
    tracer = None
    if args.profile:
        from repro.obs import Tracer
        tracer = Tracer()
    backend = LocalDirectoryBackend(args.store)
    try:
        service = BackupService(spec, backend=backend, tracer=tracer,
                                jobs=args.job or None)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = service.run(until=args.until)
        if args.report:
            service.write_report(args.report)
    finally:
        service.close()
    print(report.render())
    for run in report.failed:
        print(f"FAILED: {run.job} run {run.run_index}: {run.error}",
              file=sys.stderr)
    if tracer is not None:
        from repro.obs import render_profile
        print(render_profile(tracer.spans()))
    return report.exit_code


def cmd_schemes(_args) -> int:
    """List the available backup schemes."""
    table = Table(["scheme", "granularity", "index", "containers",
                   "tiny filter"])
    for config in all_scheme_configs():
        if config.incremental_only:
            granularity = "whole file (incremental)"
        elif config.policy_table is not None:
            granularity = "per-category (adaptive)"
        else:
            granularity = config.fixed_policy.chunker.upper()
        table.add_row([config.name, granularity, config.index_layout,
                       "yes" if config.use_containers else "no",
                       format_bytes(config.tiny_file_threshold)
                       if config.tiny_file_threshold else "no"])
    print(table.render())
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AA-Dedupe: application-aware source deduplication "
                    "backup tool (CLUSTER 2011 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def store_arg(p):
        p.add_argument("--store", required=True,
                       help="directory-backed object store")

    p = sub.add_parser("backup", help=cmd_backup.__doc__)
    p.add_argument("source", help="directory to back up")
    store_arg(p)
    p.add_argument("--scheme", default="AA-Dedupe",
                   help="backup scheme (see `repro schemes`)")
    p.add_argument("--container-size", default=None,
                   help="override container size, e.g. 1MB")
    p.add_argument("--chunker", default=None,
                   help="content-defined boundary engine for dynamic "
                        "files: cdc (Rabin, the paper default), gear, "
                        "fastcdc or seqcdc (see docs/CHUNKING.md)")
    p.add_argument("--delta", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="enable/disable similarity + delta compression "
                        "of unique chunks (default: scheme setting)")
    p.add_argument("--stat-cache", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="enable/disable the cross-session unchanged-"
                        "file recipe cache (default: scheme setting)")
    p.add_argument("--parallel", type=int, default=None, metavar="N",
                   help="run the staged read/chunk/hash pipeline with "
                        "N-wide chunk and hash stages (default: serial; "
                        "manifests are byte-identical either way)")
    p.add_argument("--pipeline", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="enable/disable overlapping container pack + "
                        "upload with dedup (default: scheme setting)")
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--profile", action="store_true",
                   help="trace the run; print a stage profile and write "
                        "a Chrome-compatible JSONL trace")
    p.add_argument("--trace-out", default=None,
                   help="trace output path (default backup.trace.jsonl)")
    p.add_argument("--replication", type=int, default=0, metavar="N",
                   help="after the session, replicate every live "
                        "container to at least N copies across fault "
                        "domains (criticality may add more)")
    p.add_argument("--fault-domains", default=None, metavar="D0,D1,...",
                   help="comma-separated fault domain names for "
                        "--replication (default d0,d1,d2)")
    p.set_defaults(func=cmd_backup)

    p = sub.add_parser("restore", help=cmd_restore.__doc__)
    p.add_argument("session", type=int)
    p.add_argument("dest")
    store_arg(p)
    p.add_argument("--path", action="append",
                   help="restore only this path (repeatable)")
    p.add_argument("--no-verify", action="store_true",
                   help="skip fingerprint verification")
    p.set_defaults(func=cmd_restore)

    p = sub.add_parser("ls", help=cmd_ls.__doc__)
    store_arg(p)
    p.set_defaults(func=cmd_ls)

    p = sub.add_parser("gc", help=cmd_gc.__doc__)
    store_arg(p)
    p.add_argument("--keep-last", type=int, default=7,
                   help="retain the N most recent sessions (default 7)")
    p.add_argument("--retain", default=None,
                   help="explicit comma-separated session ids to retain")
    p.add_argument("--retain-last", type=int, default=None, metavar="N",
                   help="retain the N newest sessions by manifest "
                        "creation time (the service retention policy)")
    p.set_defaults(func=cmd_gc)

    p = sub.add_parser("scrub", help=cmd_scrub.__doc__)
    store_arg(p)
    p.add_argument("--fast", action="store_true",
                   help="CRC/structure checks only (skip re-hashing)")
    p.set_defaults(func=cmd_scrub)

    p = sub.add_parser("repair", help=cmd_repair.__doc__)
    store_arg(p)
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("estimate", help=cmd_estimate.__doc__)
    p.add_argument("source", help="directory to analyse")
    p.add_argument("--delta", action="store_true",
                   help="also model the similarity + delta stage")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("fleet", help=cmd_fleet.__doc__)
    p.add_argument("--clients", type=int, default=8,
                   help="number of concurrent backup clients")
    p.add_argument("--sessions", type=int, default=3,
                   help="backup sessions (rounds) per client")
    p.add_argument("--workers", type=int, default=4,
                   help="thread pool size per wave (performance knob "
                        "only; results are identical for any value)")
    p.add_argument("--waves", type=int, default=2,
                   help="staggered backup windows per round")
    p.add_argument("--shards", type=int, default=4,
                   help="directory shards per application label")
    p.add_argument("--shard-cache", type=int, default=0,
                   help="HPDedup-style locality-prioritized cache entries "
                        "fronting each directory shard")
    p.add_argument("--shard-filter", type=int, default=0,
                   help="Bloom-filter front capacity per shard; cold "
                        "misses are absorbed without touching the index")
    p.add_argument("--shard-split", type=int, default=0,
                   help="split a shard's consistent-hash arc once its "
                        "committed entries exceed this (0 = never)")
    p.add_argument("--sparse-shards", action="store_true",
                   help="back shards with the FAST'09 sampling-based "
                        "sparse index (approximate dedup, tiny RAM)")
    p.add_argument("--scheme", default="AA-Dedupe")
    p.add_argument("--container-size", default=None,
                   help="override container size, e.g. 256KiB")
    p.add_argument("--seed", type=int, default=2011)
    p.add_argument("--bytes-per-client", default=None,
                   help="use the paper workload generator at this scale "
                        "per client (e.g. 64MB); default is a compact "
                        "synthetic corpus")
    p.add_argument("--profile", action="store_true",
                   help="trace the fleet run and print a stage profile")
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser("jobs", help=cmd_jobs.__doc__)
    p.add_argument("action", nargs="?", default="run", choices=["run"],
                   help="what to do with the configured jobs")
    p.add_argument("--config", required=True,
                   help="YAML (or JSON) service configuration file")
    p.add_argument("--store", default=None,
                   help="directory-backed object store shared by all "
                        "jobs (required unless --list-jobs)")
    p.add_argument("--job", action="append", metavar="NAME",
                   help="run only this job (repeatable; default all)")
    p.add_argument("--list-jobs", action="store_true",
                   help="print the configured jobs and exit")
    p.add_argument("--until", type=float, default=None, metavar="T",
                   help="drive schedules up to virtual time T seconds "
                        "(default: config 'until', else run each job "
                        "once)")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="also write the run report as JSON to PATH")
    p.add_argument("--profile", action="store_true",
                   help="trace the run and print a stage profile")
    p.set_defaults(func=cmd_jobs)

    p = sub.add_parser("schemes", help=cmd_schemes.__doc__)
    p.set_defaults(func=cmd_schemes)

    p = sub.add_parser("trace-profile", help=cmd_trace_profile.__doc__)
    p.add_argument("trace", help="JSONL trace written by backup --profile")
    p.set_defaults(func=cmd_trace_profile)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
