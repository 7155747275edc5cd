"""True kill -9 resume test (BASELINE.json resume criterion: "kill +
rerun resumes from per-partition high-water marks with zero
duplicate/lost applies").

A SEPARATE PROCESS runs the CLI replay; this test SIGKILLs it the
moment the first manifest version lands (mid-job, between commits),
then reruns to completion and asserts byte-parity with the oracle plus
a duplicate-free applied-chunk log. Unlike the in-process
crash-injection test (test_cdc.py), nothing here cooperates with the
kill."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tenzir_ray.cdc import generate_binlog, oracle
from tenzir_ray.cdc.lake import Lake

BL = "/tmp/tzr_kill_bl"
LAKE = "/tmp/tzr_kill_lake"
# the checkout under test: the CLI subprocess imports tenzir_ray from here
REPO_ROOT = str(Path(__file__).resolve().parents[1])


def test_sigkill_mid_replay_then_rerun():
    shutil.rmtree(BL, ignore_errors=True)
    shutil.rmtree(LAKE, ignore_errors=True)
    generate_binlog(
        BL, n_events=40_000, n_repos=40, paths_per_repo=30,
        shard_events=5_000, content_median=128,
    )

    env = dict(os.environ, RAY_GRAFT_CPUS="4", PYTHONPATH=REPO_ROOT)
    cmd = [
        sys.executable, "-m", "tenzir_ray.cli", "replay",
        "--binlog", BL, "--lake", LAKE, "--buckets", "8", "--chunk-shards", "1",
    ]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    # wait for the first committed manifest (v1), then kill -9 mid-job
    manifest_dir = os.path.join(LAKE, "manifests")
    deadline = time.time() + 120
    first_version = None
    while time.time() < deadline and proc.poll() is None:
        if os.path.isdir(manifest_dir):
            # committed versions only: the engine's tmp file lives in
            # this directory during the fsync window and must not match
            versions = [
                n for n in os.listdir(manifest_dir)
                if n.startswith("manifest-") and n.endswith(".json")
            ]
            done = [v for v in versions if int(v[9:15]) >= 1]
            if done:
                first_version = max(int(v[9:15]) for v in done)
                break
        time.sleep(0.1)
    assert proc.poll() is None, "replay finished before we could kill it; grow the binlog"
    assert first_version is not None, "no manifest appeared within 120s"
    proc.send_signal(signal.SIGKILL)
    proc.wait()

    man = Lake(LAKE).latest_manifest()
    applied_before = list(man["applied_chunks"])
    assert 0 < len(applied_before) < 8, "kill landed outside the mid-job window"

    # rerun to completion in a fresh process
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=240)
    assert out.returncode == 0, out.stderr[-500:]
    stats = json.loads(out.stdout.strip().splitlines()[-1])
    assert stats["chunks"] == 8 - len(applied_before)  # only the remainder applied

    man = Lake(LAKE).latest_manifest()
    assert len(man["applied_chunks"]) == 8
    assert len(set(man["applied_chunks"])) == 8  # zero duplicate applies
    assert man["applied_chunks"][: len(applied_before)] == applied_before

    res = oracle.compare_states(Lake(LAKE).to_arrow(), oracle.materialize(BL))
    assert res["ok"], res["mismatches"][:3]
