"""The benchmark's probe contract: every attribute that perfbench/spans.py
wraps still exists and its counter hooks can still read the calls.

A probe whose target is gone is recorded as missing, and every benchmark
metric that depends on it then reads null; this test fails first.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

from graphmem import graphs

SRC = str(Path(graphs.__file__).resolve().parents[1])
PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")

SCRIPT = """
import json, os, sys
import spans
import graphmem.cli as cli

rec = spans.Recorder("probe-contract", spans=True)
spans.install(rec, full=True)
os.chdir(sys.argv[1])
for argv in (
    ["reproduce", "--suite", "complete", "--sizes", "12,16,20", "--trials", "5",
     "--seed", "0", "--out", "reproduce.csv"],
    ["gen", "--model", "gnp", "--n", "60", "--p", "0.2", "--seed", "1",
     "--out", "g.txt"],
    ["capacity", "--graph", "g.txt", "--trials", "20", "--seed", "2",
     "--out", "capacity.csv"],
    ["dynamics", "--graph", "g.txt", "--patterns", "3", "--start", "corrupt:0.2",
     "--mode", "sequential", "--seed", "3", "--out", "dynamics.json"],
):
    assert cli.main(argv) == 0, argv
print(json.dumps({"missing": sorted(rec.missing), "counts": dict(rec.counts),
                  "spans": sorted({span[2] for span in rec.spans})}))
"""


def test_every_benchmark_probe_finds_its_target(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, PERFBENCH, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["missing"] == []
    counts = got["counts"]
    for key in ("capacity.trials", "hopfield.field_evals", "hopfield.dynamics_runs"):
        assert counts.get(key, 0) > 0, key
    # the sequential dynamics run sweeps through the wrapped entry point
    assert "hopfield.sequential_sweep" in got["spans"]
