"""graphmem benchmark: end-to-end metrics per workload, or per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload in turn

Workloads: ladder-complete, capacity-sparse, graph-io, verify-mix (see
perfbench/README.md for why each was chosen and which layer it loads).

--trace 0 starts passes of the workload, each in a fresh process, on the
inputs of --seed and of one seed derived from it in turn, until both have
run and --seconds have gone, then sets up alone until it has at least five
set-up samples.  It reports the medians of setup_s, wall_s and peak_rss_mb
over the samples, and work_per_s and trials_per_s as the work of one pass
on each of the two inputs over their mean wall times, so a faster program
averages over the same inputs as a slower one.  setup_s, work_per_s and
peak_rss_mb are the gated metrics; wall_s, trials_per_s and fail_frac are
printed alongside.  A throughput whose work count the probes could not
take is reported as missing, with a failed operation.

--trace 1 runs one untraced pass and two traced passes: one with the CLI
defaults (pool workers run out of sight, so their time shows as
capacity.pool_wait_s) and one with --deterministic-order (every field
evaluation and dynamics run is traced).  Each per-layer metric names the
pass it comes from.

Human-readable lines go first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Full
results, the environment and the spans are written under .perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("ladder-complete", "capacity-sparse", "graph-io", "verify-mix")
CAPACITY_WORKLOADS = ("ladder-complete", "capacity-sparse")
BUDGET_S = 165.0        # one run must end within 180 s
SETUP_SAMPLES = 5
PASS_SEEDS = 2          # input seeds a --trace 0 run cycles through

sys.path.insert(0, str(HERE))
import spans  # noqa: E402  (imports no graphmem at module level)


def run_worker(name: str, seed: int, tag: str, deadline: float, *flags) -> dict:
    """One pass in a fresh process group; killed at the deadline."""
    out = OUT / f"pass-{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--out", str(out), "--run-id", tag, *flags]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.wait()
        return {"error": f"pass {tag} killed at the time budget"}
    _kill_group(proc.pid)       # strays the pass left behind, if any
    if proc.returncode != 0 or not out.exists():
        return {"error": f"pass {tag} exited {proc.returncode}"}
    return json.loads(out.read_text())


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _median(xs):
    return statistics.median(xs) if xs else None


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, res: dict) -> bool:
        """Fold one pass in; False if the pass itself did not complete."""
        if "error" in res:
            self.attempted += 1
            self.failed += 1
            self.errors.append(res["error"])
            return False
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.errors.extend(res["errors"])
        return True


def pass_seed(seed: int, k: int) -> int:
    """Input seed of pass k: the run's seed and one seed derived from it,
    in turn, so that the throughput also spans inputs."""
    return seed + 1_000_000 * (k % PASS_SEEDS)


def balanced_rate(passes: list, key: str):
    """Work ``key`` of one pass per input seed over the summed mean wall
    times of those seeds, or None if a pass has no work count."""
    if not passes or any(p[key] is None for p in passes):
        return None
    by_seed = {}
    for p in passes:
        by_seed.setdefault(p["seed"], []).append(p)
    work = sum(statistics.fmean(p[key] for p in ps) for ps in by_seed.values())
    wall = sum(statistics.fmean(p["wall_s"] for p in ps) for ps in by_seed.values())
    return work / wall


def measure(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """--trace 0: (gated metrics, full record)."""
    deadline = time.monotonic() + BUDGET_S
    tally = Tally()
    passes, setups = [], []
    t_first = time.monotonic()
    while True:
        k = len(passes)
        extra = ["--full-checks"] if k == 0 else []
        res = run_worker(name, pass_seed(seed, k), f"{name}-s{seed}-p{k}",
                         deadline, *extra)
        if not tally.add(res):
            break
        passes.append(dict(res, seed=pass_seed(seed, k)))
        setups.append(res["setup_s"])
        if k + 1 >= PASS_SEEDS and time.monotonic() - t_first >= seconds:
            break
    while passes and len(setups) < SETUP_SAMPLES and time.monotonic() < deadline - 20:
        res = run_worker(name, seed, f"{name}-s{seed}-setup{len(setups)}",
                         deadline, "--setup-only")
        if not tally.add(res):
            break
        setups.append(res["setup_s"])
    per_pass = {key: [p[key] for p in passes]
                for key in ("wall_s", "units", "trials", "peak_rss_mb")}
    shown = {
        "setup_s": (_median(setups), "s"),
        "wall_s": (_median(per_pass["wall_s"]), "s"),
        # throughput over the whole run: more passes average the machine's
        # speed swings better than a median of two or three would
        "work_per_s": (balanced_rate(passes, "units"), "1/s"),
        "peak_rss_mb": (_median(per_pass["peak_rss_mb"]), "MB"),
        "fail_frac": (tally.failed / max(tally.attempted, 1), "ratio"),
    }
    if name in CAPACITY_WORKLOADS:
        shown["trials_per_s"] = (balanced_rate(passes, "trials"), "1/s")
    gated = {k: shown[k] for k in ("setup_s", "work_per_s", "peak_rss_mb")}
    record = {"passes": len(passes), "pass_seeds": [p["seed"] for p in passes],
              "setup_samples": setups, "per_pass": per_pass, "shown": shown,
              "env": passes[0]["env"] if passes else None,
              "attempted": tally.attempted,
              "failed": tally.failed, "errors": tally.errors}
    return gated, record


def trace(name: str, seed: int) -> tuple[dict, dict]:
    """--trace 1: (per-layer metrics, full record)."""
    deadline = time.monotonic() + BUDGET_S
    tally = Tally()
    tag = f"{name}-s{seed}"
    base = run_worker(name, seed, f"{tag}-untraced", deadline)
    runs = {"default": run_worker(name, seed, f"{tag}-default", deadline, "--trace"),
            "det": run_worker(name, seed, f"{tag}-det", deadline, "--trace", "--det")}
    ok = all([tally.add(base)] + [tally.add(r) for r in runs.values()])
    metrics, source = {}, {}
    if ok:
        values = {p: spans.pass_values(r["trace"]) for p, r in runs.items()}
        values["default"]["trace.wall_s"] = runs["default"]["wall_s"]
        values["default"]["trace.overhead_s"] = runs["default"]["wall_s"] - base["wall_s"]
        values["det"]["trace.det_wall_s"] = runs["det"]["wall_s"]
        for metric, unit, pass_name, needs in spans.PER_LAYER:
            missing = set(runs[pass_name]["trace"]["missing"])
            value = None if missing.intersection(needs) else values[pass_name][metric]
            metrics[metric] = (value, unit)
            source[metric] = pass_name
    record = {"env": base.get("env"), "source": source, "shown": metrics,
              "untraced_wall_s": base.get("wall_s"),
              "det_flag_missing": runs["det"].get("det_flag_missing"),
              "attempted": tally.attempted, "failed": tally.failed,
              "errors": tally.errors}
    return metrics, record


def report(name: str, seed: int, traced: bool, metrics: dict, record: dict) -> None:
    print(f"# perfbench {name} seed={seed} trace={int(traced)}")
    env = dict(record.get("env") or {}, seed=seed)
    print("# env " + json.dumps(env, sort_keys=True))
    source = record.get("source", {})
    for metric, (value, unit) in record["shown"].items():
        text = "missing" if value is None else f"{value:.6g}"
        where = f"  [{source[metric]} pass]" if metric in source else ""
        print(f"{name:16s} {metric:30s} {text:>14s} {unit}{where}")
    print(f"{name:16s} {'attempted':30s} {record['attempted']:>14d}")
    print(f"{name:16s} {'failed':30s} {record['failed']:>14d}")
    for err in record["errors"][:10]:
        print(f"# error: {err}")
    if record.get("det_flag_missing"):
        print("# note: --deterministic-order is gone; the det pass ran with defaults")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(dict(record, workload=name, seed=seed,
                                    metrics=metrics), indent=1, default=str))
    print(f"# full record: {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "graphmem" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no graphmem sources under {ROOT / 'src'}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        if args.trace:
            metrics, record = trace(name, args.seed)
        else:
            metrics, record = measure(name, args.seed, args.seconds)
        report(name, args.seed, bool(args.trace), metrics, record)
        total["attempted"] += max(record["attempted"], 1)
        total["failed"] += record["failed"]
        total["correct"] = total["correct"] and record["failed"] == 0 and bool(metrics)
        prefix = "" if len(names) == 1 else name + "."
        for metric, (value, unit) in metrics.items():
            total["metrics"][prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
