"""One pass of one workload in a fresh process.

Set-up (importing graphmem and writing the workload's inputs) and the
timed section both run here, so the pass's peak memory is this process
plus its largest child (the CLI's pool workers).  The result goes to the
JSON file named by --out; run.py starts this script and reads that file.

    python3 perfbench/worker.py --workload NAME --seed N --out FILE
        [--trace] [--det] [--setup-only] [--full-checks]
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--run-id", default="")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--det", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--full-checks", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import graphmem
    if Path(graphmem.__file__).resolve().parent != SRC / "graphmem":
        raise SystemExit(f"graphmem imported from {graphmem.__file__}, not {SRC}")
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_out" / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.Context(args.seed, work, args.det, args.full_checks)
        rec = spans.Recorder(args.run_id, spans=args.trace)
        spans.install(rec, full=args.trace)
        wl.setup(ctx)
        t1 = time.perf_counter()
        result = {"setup_s": t1 - _T0}
        if not args.setup_only:
            wl.run(ctx)
            wall = time.perf_counter() - t1
            result["wall_s"] = wall
            result["peak_rss_mb"] = peak_rss_mb()
            rec.active = False      # checks are not part of the workload
            wl.check(ctx)
            workloads.dynamics_oracle_check(ctx)
            if wl.counts_trials:
                workloads.count_trials(ctx, rec)
            result["units"] = wl.units(ctx, rec.counts)
            result["trials"] = ctx.trials
            if args.trace:
                result["trace"] = spans.summarize(rec, wall)
                dump = ROOT / ".perfbench_out" / f"spans-{args.run_id}.json"
                dump.write_text(json.dumps(rec.dump()))
        result.update(attempted=ctx.attempted, failed=ctx.failed,
                      errors=ctx.errors[:20], det_flag_missing=ctx.det_missing)
        if not args.setup_only:
            import envinfo
            result["env"] = envinfo.collect(ROOT)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
