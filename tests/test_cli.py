"""The CLI's stdout carries result data only; Ray's driver-side prints
go to stderr."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = str(Path(__file__).resolve().parents[1])

# Runs `cli.main(["exec", ...])` with a pipeline stage that prints a
# raylet-style message through the same Ray call that forwards real
# raylet warnings to the driver (they arrive at timing-dependent moments;
# this one arrives while the command runs, every time).
_CHILD = """
import sys

from ray._private import worker

from tenzir_ray import cli, tql


def compile_pipeline(text):
    def stage(ds):
        worker.print_to_stdstream(
            {"lines": ["WARNING injected"], "pid": "raylet", "is_err": False},
            ignore_prefix=False,
        )
        return ds

    return stage


tql.compile_pipeline = compile_pipeline
sys.exit(cli.main(["exec", "head 3", "--input", "-", "--format", "json"]))
"""


def test_exec_stdout_is_data_only_under_driver_prints():
    lines = "\n".join(json.dumps({"x": i}) for i in range(3))
    r = subprocess.run(
        [sys.executable, "-c", _CHILD],
        input=lines, capture_output=True, text=True, timeout=300, cwd=REPO_ROOT,
        env=dict(os.environ, RAY_GRAFT_CPUS="1"),
    )
    assert r.returncode == 0, r.stderr[-2000:]
    rows = [json.loads(ln) for ln in r.stdout.strip().splitlines()]
    assert sorted(row["x"] for row in rows) == [0, 1, 2]
    assert "WARNING injected" in r.stderr
