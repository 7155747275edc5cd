"""CLI entry points: exec / generate / replay / verify / compact / show /
erase / vacuum.

The `ray job submit`-able surface (reference analog: the `tenzir` CLI,
``builtins/commands/exec.cpp``; `rebuild` command
``builtins/commands/rebuild.cpp``). This module OWNS its Ray session
(the library never calls ray.init).

    python -m tenzir_ray.cli generate --binlog /tmp/bl --events 100000
    python -m tenzir_ray.cli replay   --binlog /tmp/bl --lake /tmp/lake
    python -m tenzir_ray.cli verify   --binlog /tmp/bl --lake /tmp/lake
    python -m tenzir_ray.cli compact  --lake /tmp/lake --out /tmp/lake2 --buckets 8
    python -m tenzir_ray.cli show     --lake /tmp/lake

Stdout carries result data only: `exec` rows as NDJSON, and one JSON
summary line for every other command. Everything else -- Ray's
driver-side prints (raylet warnings, forwarded worker output) and the
CLI's own diagnostics -- goes to stderr. Ray writes those prints to
whatever ``sys.stdout`` is at print time, so while a command runs
``sys.stdout`` points at stderr and results go to the saved real
stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _init_ray():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tenzir_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    x = sub.add_parser(
        "exec",
        help="run a TQL pipeline over input files (the `tenzir 'pipeline'` analog)",
    )
    x.add_argument("pipeline", help="e.g. 'where x > 1 | summarize n=count(.) by g | sort g'")
    x.add_argument("--input", required=True, help="parquet/csv/json/text path or glob")
    x.add_argument(
        "--format", default="parquet",
        choices=["parquet", "csv", "json", "lines", "pcap", "http"],
    )
    x.add_argument(
        "--output", default="-",
        help="output dir (parquet) or '-' for stdout NDJSON; stdout carries "
        "result rows only, Ray/driver diagnostics go to stderr",
    )
    x.add_argument("--limit", type=int, default=None, help="stdout row cap (default 100)")

    g = sub.add_parser("generate", help="generate a deterministic synthetic binlog")
    g.add_argument("--binlog", required=True)
    g.add_argument("--events", type=int, default=100_000)
    g.add_argument("--repos", type=int, default=100)
    g.add_argument("--paths-per-repo", type=int, default=50)
    g.add_argument("--shard-events", type=int, default=100_000)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--content-median", type=int, default=512)
    g.add_argument("--evolution-offset", type=int, default=None)

    r = sub.add_parser("replay", help="tail the binlog and apply pending chunks to the lake")
    r.add_argument("--binlog", required=True)
    r.add_argument("--lake", required=True)
    r.add_argument("--buckets", type=int, default=64)
    r.add_argument("--chunk-shards", type=int, default=8)
    r.add_argument("--salt-threshold", type=int, default=200_000)
    r.add_argument("--stop-after-chunks", type=int, default=None)

    v = sub.add_parser("verify", help="compare the lake against the DuckDB oracle")
    v.add_argument("--binlog", required=True)
    v.add_argument("--lake", required=True)

    c = sub.add_parser("compact", help="rebucket/compact the lake (rebuild analog)")
    c.add_argument("--lake", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--buckets", type=int, required=True)

    s = sub.add_parser("show", help="introspection: manifest summary (show-operator analog)")
    s.add_argument("--lake", required=True)

    e = sub.add_parser("erase", help="retention: delete rows matching a predicate (eraser analog)")
    e.add_argument("--lake", required=True)
    e.add_argument("--where", required=True, help='predicate, e.g. \'repo == "repo-0001"\'')

    vac = sub.add_parser("vacuum", help="delete data files not in the latest manifest")
    vac.add_argument("--lake", required=True)
    return p


def _emit(out, obj) -> None:
    """Write one result line (JSON) to the data stream."""
    print(json.dumps(obj, default=str), file=out)


def _exec(args, out) -> int:
    from tenzir_ray import sources, tql
    from tenzir_ray.pcap import read_pcap
    from tenzir_ray.sources.http import read_http

    readers = {
        "parquet": sources.read_parquet,
        "csv": sources.read_csv,
        "json": sources.read_json,
        "lines": sources.read_lines,
        "pcap": read_pcap,
        "http": read_http,  # --input is the URL; NDJSON body
    }
    if args.input == "-":
        # stdin pipe (`dash` connector, builtins/connectors/dash.cpp:13-49):
        # one driver-side read of the pipe, parsed per --format
        import pyarrow as pa

        import ray.data as _rd

        raw = sys.stdin.read()
        lines = [ln for ln in raw.splitlines() if ln.strip()]
        if args.format == "json":
            ds = _rd.from_items([json.loads(ln) for ln in lines])
        elif args.format == "lines":
            ds = _rd.from_arrow(pa.table({"text": pa.array(lines)}))
        else:
            print("error: stdin input supports --format json|lines", file=sys.stderr)
            return 2
    else:
        ds = readers[args.format](args.input)
    try:
        stage = tql.compile_pipeline(args.pipeline)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    res = stage(ds)
    if args.output == "-":
        limit = args.limit if args.limit is not None else 100
        for row in res.limit(limit).take(limit):
            _emit(out, row)
    else:
        sources.write_parquet(res, args.output)
        print(json.dumps({"rows": res.count(), "output": args.output}), file=sys.stderr)
    return 0


def _generate(args, out) -> int:
    from tenzir_ray.cdc.binlog import generate_binlog

    meta = generate_binlog(
        args.binlog,
        n_events=args.events,
        n_repos=args.repos,
        paths_per_repo=args.paths_per_repo,
        shard_events=args.shard_events,
        seed=args.seed,
        content_median=args.content_median,
        evolution_offset=args.evolution_offset,
    )
    _emit(out, {"shards": len(meta["shards"]), "n_events": meta["n_events"]})
    return 0


def _replay(args, out) -> int:
    from tenzir_ray.cdc.engine import replay

    stats = replay(
        args.binlog,
        args.lake,
        num_buckets=args.buckets,
        chunk_shards=args.chunk_shards,
        salt_threshold=args.salt_threshold,
        stop_after_chunks=args.stop_after_chunks,
    )
    _emit(out, stats)
    return 0


def _verify(args, out) -> int:
    from tenzir_ray.cdc import oracle
    from tenzir_ray.cdc.lake import Lake

    meta_path = os.path.join(args.binlog, "_binlog_meta.json")
    with open(meta_path) as f:
        evolved = json.load(f)["evolution_offset"] is not None
    res = oracle.compare_states(
        Lake(args.lake).to_arrow(), oracle.materialize(args.binlog, evolved=evolved)
    )
    _emit(out, {k: v for k, v in res.items() if k != "mismatches"})
    if not res.get("ok"):
        print(json.dumps(res["mismatches"][:3], default=str), file=sys.stderr)
    return 0 if res.get("ok") else 1


def _compact(args, out) -> int:
    from tenzir_ray.cdc.engine import rebucket

    man = rebucket(args.lake, args.out, args.buckets)
    _emit(out, {"version": man["version"], "buckets": len(man["files"])})
    return 0


def _erase(args, out) -> int:
    from tenzir_ray.cdc.engine import erase

    man = erase(args.lake, args.where)
    _emit(out, man["lineage"][-1])
    return 0


def _vacuum(args, out) -> int:
    from tenzir_ray.cdc.lake import Lake

    _emit(out, {"removed": len(Lake(args.lake).vacuum())})
    return 0


def _show(args, out) -> int:
    from tenzir_ray.cdc.lake import Lake

    man = Lake(args.lake).latest_manifest()
    _emit(
        out,
        {
            "version": man["version"],
            "num_buckets": man["num_buckets"],
            "files": len(man["files"]),
            "rows": sum(f["rows"] for f in man["files"].values()),
            "bytes": sum(f["bytes"] for f in man["files"].values()),
            "applied_through": man["applied_through"],
            "applied_chunks": len(man["applied_chunks"]),
            "schema": [f["name"] for f in man["schema"]],
            "last_lineage": man["lineage"][-1] if man["lineage"] else None,
        },
    )
    return 0


# command -> (handler, owns a Ray session)
_COMMANDS = {
    "exec": (_exec, True),
    "generate": (_generate, False),
    "replay": (_replay, True),
    "verify": (_verify, True),
    "compact": (_compact, True),
    "erase": (_erase, True),
    "vacuum": (_vacuum, False),
    "show": (_show, False),
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler, owns_ray = _COMMANDS[args.cmd]
    # the real stdout is the data stream; anything else that prints to
    # sys.stdout while the command runs (Ray's listener threads included)
    # lands on stderr
    data_out = sys.stdout
    sys.stdout = sys.stderr
    try:
        if not owns_ray:
            return handler(args, data_out)
        _init_ray()
        try:
            return handler(args, data_out)
        finally:
            import ray

            # joins Ray's printing threads while stdout still points at stderr
            ray.shutdown()
    finally:
        sys.stdout = data_out


if __name__ == "__main__":
    sys.exit(main())
