"""The four benchmark workloads and their correctness checks.

Each workload writes its inputs in ``setup`` (timed as set-up), runs its
timed section in ``run``, and checks the outputs in ``check``.  Every CLI
invocation uses the default flags, so it measures what users run.  The
seed given to the benchmark is the only source of the inputs.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

import graphmem
import graphmem.cli
import graphmem.graphs

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

DET_FLAG = "--deterministic-order"
# the probes that count retrieval trials (see spans.install)
TRIAL_PROBES = ("capacity.recovery_rate", "capacity.spot")


class Context:
    """Inputs, output paths and the operation tally of one pass.

    An operation fails if it raises, exits non-zero or fails a check.
    """

    def __init__(self, seed: int, work: Path, det: bool, full_checks: bool):
        self.seed = seed
        self.work = work
        self.det = det and _cli_has_flag(DET_FLAG)
        self.det_missing = det and not self.det
        self.full_checks = full_checks
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.keep: dict = {}
        self.trials = 0     # retrieval trials counted; None if they could not be

    def path(self, name: str) -> str:
        return str(self.work / name)

    def cli(self, *argv) -> int | None:
        """Run ``graphmem <argv>`` in this process; exit 1 (violations)
        counts as a failure like any other non-zero status."""
        argv = [str(a) for a in argv] + ([DET_FLAG] if self.det else [])
        rc = self.call(" ".join(argv[:3]), graphmem.cli.main, argv)
        if rc not in (None, 0):
            self.fail(f"graphmem {' '.join(argv)} exited {rc}")
        return rc

    def call(self, label: str, fn, *args):
        """One operation; returns fn's result, or None if it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # any raise is a failed operation
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def fail(self, message: str) -> None:
        # the operation was already counted by call()
        self.failed += 1
        self.errors.append(message)

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check {label} failed {detail}".rstrip())


def _cli_has_flag(flag: str) -> bool:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        graphmem.cli.main(["capacity", "--help"])
    return flag in out.getvalue()


def read_csv(path: str) -> tuple[dict, list[dict]]:
    """(``# key=value`` comment fields, body rows keyed by header name)."""
    keys = {}
    body = []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                k, sep, v = line[1:].strip().partition("=")
                if sep:
                    keys[k.strip()] = v.strip()
            else:
                body.append(line)
    return keys, list(csv.DictReader(body))


def dynamics_oracle_check(ctx: Context) -> None:
    """run_dynamics on one small input against a brute-force dense
    J = A o (Xi^T Xi) iteration of the parallel sign map."""
    seed = ctx.seed
    g = graphmem.gen_erdos_renyi(60, 0.2, seed)
    pats = graphmem.sample_patterns(4, g.n, seed + 1)
    start = graphmem.corrupt(pats.pattern(0), 0.2, seed + 2)
    k_max = 1000        # run_dynamics' default step cap
    out = ctx.call("run_dynamics", graphmem.run_dynamics, g, pats, start)
    if out is None:
        return
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for i in range(g.n):
        a[i, g.indices[g.indptr[i]:g.indptr[i + 1]]] = 1
    xi = pats.bits.astype(np.int64)
    j = a * (xi.T @ xi)
    s = start.astype(np.int64)
    prev = None
    terminal, steps = "step_cap", k_max
    for k in range(1, k_max + 1):
        nxt = np.where(j @ s >= 0, 1, -1)
        if np.array_equal(nxt, s):
            terminal, steps = "fixed_point", k
            break
        if prev is not None and np.array_equal(nxt, prev):
            terminal, steps = "two_cycle", k
            break
        prev, s = s, nxt
    s = nxt if terminal != "step_cap" else s
    ok = (out.terminal == terminal and out.steps == steps
          and np.array_equal(out.final.astype(np.int64), s))
    ctx.check("run_dynamics == dense oracle", ok,
              f"got {out.terminal}/{out.steps}, oracle {terminal}/{steps}")


def count_trials(ctx: Context, rec) -> None:
    """Set ``ctx.trials`` from the trial-counting probes, or to None, with a
    failed check, if a probe is gone or no longer readable, or if
    ``recovery_rate`` was never called: a rewritten search must show as a
    broken count, not as a throughput drop."""
    lost = sorted(set(TRIAL_PROBES) & rec.missing)
    calls = rec.counts.get("capacity.recovery_calls", 0)
    ok = not lost and calls > 0
    ctx.check("retrieval trials counted", ok,
              f"(probes lost: {lost}, recovery_rate calls: {calls})")
    ctx.trials = rec.counts.get("capacity.trials", 0) if ok else None


def _reference(workload: str, seed: int):
    if seed != REFERENCE["seed"]:
        return None
    return REFERENCE[workload]


class LadderComplete:
    name = "ladder-complete"
    counts_trials = True
    sizes = (272, 288, 304)

    def setup(self, ctx):
        pass

    def run(self, ctx):
        ctx.cli("reproduce", "--suite", "complete",
                "--sizes", ",".join(map(str, self.sizes)), "--trials", 100,
                "--seed", ctx.seed, "--out", ctx.path("ladder.csv"))

    def check(self, ctx):
        _, rows = ctx.call("read ladder.csv", read_csv, ctx.path("ladder.csv")) or ({}, [])
        got = {int(r["n"]): int(r["m_hat"]) for r in rows}
        ctx.check("ladder sizes", sorted(got) == list(self.sizes), str(sorted(got)))
        for n, m in got.items():
            # m_hat log N / N sits near 0.5 on K_n; this only rules out
            # nonsense, since a failed spot trial can halve m_hat
            ratio = m * math.log(n) / n
            ctx.check(f"K_{n} m_hat in range", 0.1 <= ratio <= 1.0, f"m_hat={m}")
        ref = _reference(self.name, ctx.seed)
        if ref is not None:
            want = {int(k): v for k, v in ref.items()}
            ctx.check("ladder m_hat == reference", got == want, f"{got} != {want}")

    def units(self, ctx, counts):
        # pattern-trials: a trial with M stored patterns counts M.  A field
        # costs O(M |E|), and the seed moves the search's mix of M values
        # more than its trial count; weighting halves the spread across seeds.
        return None if ctx.trials is None else counts["capacity.pattern_trials"]


class CapacitySparse:
    name = "capacity-sparse"
    counts_trials = True
    n, p = 5000, 0.008
    # Power-iteration time varies 8-15 s across graph seeds, far beyond any
    # usable bound, so the graph is generated from one fixed seed and the
    # run's seed drives the patterns and the corrupted trials.  At p = 0.008
    # the search evaluates M = 1, 2, 4, 3 on nearly every seed; at p = 0.01
    # half the seeds also evaluate 5, 6 and 8, which adds 15-20 % of wall.
    graph_seed = 0

    def setup(self, ctx):
        ctx.cli("gen", "--model", "gnp", "--n", self.n, "--p", self.p,
                "--seed", self.graph_seed, "--out", ctx.path("sparse.txt"))

    def run(self, ctx):
        ctx.cli("capacity", "--graph", ctx.path("sparse.txt"), "--trials", 200,
                "--seed", ctx.seed, "--out", ctx.path("capacity.csv"))

    def check(self, ctx):
        keys, rows = ctx.call("read capacity.csv", read_csv,
                              ctx.path("capacity.csv")) or ({}, [])
        m_hat = int(keys.get("m_hat", -1))
        rate = {int(r["M"]): float(r["rate"]) for r in rows}
        ctx.check("m_hat >= 1", m_hat >= 1, f"m_hat={m_hat}")
        ctx.check("rate at m_hat >= threshold", rate.get(m_hat, 0.0) >= 0.95)
        ref = _reference(self.name, ctx.seed)
        if ref is not None:
            ctx.check("m_hat == reference", m_hat == ref["m_hat"],
                      f"{m_hat} != {ref['m_hat']}")

    def units(self, ctx, counts):
        # one capacity answer: the seed changes how many M the search
        # evaluates, but the fixed graph's spectrum dominates the time
        return 1


class GraphIO:
    name = "graph-io"
    counts_trials = False
    n = 50_000
    p = 4e-4
    beta, davg, mbar = 3.5, 20.0, 200.0

    def setup(self, ctx):
        pass

    def run(self, ctx):
        ctx.cli("gen", "--model", "gnp", "--n", self.n, "--p", self.p,
                "--seed", ctx.seed, "--out", ctx.path("gnp.txt"))
        ctx.cli("gen", "--model", "chunglu", "--n", self.n, "--beta", self.beta,
                "--davg", self.davg, "--mbar", self.mbar,
                "--seed", ctx.seed, "--out", ctx.path("chunglu.txt"))
        for kind in ("gnp", "chunglu"):
            g = ctx.call(f"load {kind}", graphmem.graphs.load_edge_list,
                         ctx.path(f"{kind}.txt"))
            if g is not None:
                ctx.call(f"validate {kind}", graphmem.graphs.validate_graph, g)
            ctx.keep[kind] = g

    def expected_edges(self) -> dict:
        """(mean, sd) of the edge count of each model."""
        pairs = self.n * (self.n - 1) / 2
        out = {"gnp": (pairs * self.p, math.sqrt(pairs * self.p * (1 - self.p)))}
        w = graphmem.powerlaw_weights(self.n, self.beta, self.davg, self.mbar)
        x, r = w.weights, w.rho_norm
        s1, s2, s4 = x.sum(), (x ** 2).sum(), (x ** 4).sum()
        mean = r * (s1 * s1 - s2) / 2        # sum over i<j of r w_i w_j
        sq = r * r * (s2 * s2 - s4) / 2      # sum over i<j of (r w_i w_j)^2
        out["chunglu"] = (mean, math.sqrt(mean - sq))
        return out

    def regenerate(self, kind: str, seed: int):
        if kind == "gnp":
            return graphmem.gen_erdos_renyi(self.n, self.p, seed)
        w = graphmem.powerlaw_weights(self.n, self.beta, self.davg, self.mbar)
        return graphmem.gen_chung_lu(w, seed)

    def check(self, ctx):
        expect = self.expected_edges()
        for kind, g in ctx.keep.items():
            if g is None:
                continue
            mean, sd = expect[kind]
            ctx.check(f"{kind} edge count within 5 sd", abs(g.edge_count - mean) <= 5 * sd,
                      f"{g.edge_count} vs {mean:.0f} +- {sd:.0f}")
            if ctx.full_checks:
                ctx.check(f"{kind} load == generated", g == self.regenerate(kind, ctx.seed))

    def units(self, ctx, counts):
        return sum(g.edge_count for g in ctx.keep.values() if g is not None)


class VerifyMix:
    name = "verify-mix"
    counts_trials = False
    runs = [
        ("energy", ["--trials", 1000]),
        ("tails", ["--samples", 100_000]),
        ("mgf", ["--samples", 100_000]),
        ("subgraph", ["--trials", 200]),
    ]
    degrees = ["--n", 2000, "--p", 0.05, "--trials", 50]

    def setup(self, ctx):
        ctx.cli("gen", "--model", "gnp", "--n", 500, "--p", 0.1,
                "--seed", ctx.seed, "--out", ctx.path("g500.txt"))

    def run(self, ctx):
        for check, flags in self.runs:
            ctx.cli("verify", "--check", check, "--graph", ctx.path("g500.txt"),
                    *flags, "--seed", ctx.seed, "--out", ctx.path(f"{check}.json"))
        ctx.cli("verify", "--check", "degrees", *self.degrees,
                "--seed", ctx.seed, "--out", ctx.path("degrees.json"))

    def check(self, ctx):
        for check in [c for c, _ in self.runs] + ["degrees"]:
            doc = ctx.call(f"read {check}.json", _read_json, ctx.path(f"{check}.json"))
            ctx.check(f"{check} report", doc is not None and doc.get("check") == check
                      and doc.get("violations") == 0)

    def units(self, ctx, counts):
        return len(self.runs) + 1       # verify reports written


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


WORKLOADS = {w.name: w for w in (LadderComplete(), CapacitySparse(), GraphIO(), VerifyMix())}
