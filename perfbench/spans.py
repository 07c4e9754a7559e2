"""Span and counter recording around graphmem's public functions.

Every probe replaces one attribute where graphmem's callers look it up
(for example ``graphmem.capacity.run_dynamics``, which capacity.py binds
in its own namespace) with a wrapper that records a span (name, start,
end, parent span, run id) and updates counters from the call's arguments
and result.  Spans stay in memory until the pass ends.

A probe whose target no longer exists is recorded as missing, and so is
one whose arguments or result its counter hooks can no longer read; every
metric that depends on it is then reported as missing (null), never as
zero.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import Counter


class Recorder:
    """Spans and counters for one pass of one workload.

    With ``spans=False`` the probes only update counters; no clock is read
    and no span is kept.  The untraced passes use that mode to count the
    retrieval trials that ``trials_per_s`` and ``work_per_s`` divide by.
    """

    def __init__(self, run_id: str, spans: bool = True):
        self.run_id = run_id
        self.keep_spans = spans
        self.active = True      # False: wrappers pass calls straight through
        self.spans: list[tuple] = []     # (id, parent, name, start, end, ok)
        self.counts: Counter = Counter()
        self.missing: set[str] = set()  # probes gone or no longer readable
        self._stack: list[int] = []
        self._next_id = 0
        self._search: dict | None = None  # open capacity_search, if any

    # ------------------------------------------------------------ wrapping

    def wrap(self, owner, attr: str, probe: str, name=None,
             before=None, after=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``name`` is the span name, or a callable of the bound arguments
        that returns one; ``before`` and ``after`` update counters from the
        bound arguments (and the result).
        """
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            self.missing.add(probe)
            return
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None
        rec = self

        def bind(args, kwargs) -> dict:
            try:
                return sig.bind(*args, **kwargs).arguments
            except (AttributeError, TypeError):
                rec.missing.add(probe)
                return {}

        def hook(fn, *args) -> None:
            # a hook that cannot read the call marks its probe missing
            # instead of failing the workload or counting nothing silently
            try:
                fn(rec, *args)
            except (AttributeError, KeyError, TypeError, ValueError):
                rec.missing.add(probe)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            bound = bind(args, kwargs) if (before or after or callable(name)) else {}
            if before is not None:
                hook(before, bound)
            if not rec.keep_spans:
                result = fn(*args, **kwargs)
                if after is not None:
                    hook(after, bound, result)
                return result
            span_name = name(bound) if callable(name) else (name or probe)
            sid = rec._next_id
            rec._next_id += 1
            parent = rec._stack[-1] if rec._stack else None
            rec._stack.append(sid)
            ok = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter()
                rec._stack.pop()
                rec.spans.append((sid, parent, span_name, t0, t1, ok))
            if after is not None:
                hook(after, bound, result)
            return result

        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------ summaries

    def durations(self) -> tuple[Counter, Counter]:
        """(total, self) seconds per span name.  Self time is a span's
        duration minus the time its child spans cover; children of one
        span run one after another, so their durations simply add."""
        child = Counter()
        for _, parent, _, t0, t1, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        total = Counter()
        self_t = Counter()
        for sid, _, name, t0, t1, _ in self.spans:
            total[name] += t1 - t0
            self_t[name] += (t1 - t0) - child[sid]
        return total, self_t

    def failures(self, prefix: str) -> int:
        return sum(1 for s in self.spans if not s[5] and s[2].startswith(prefix))

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "fields": ["id", "parent", "name", "start", "end", "ok"],
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
            "missing": sorted(self.missing),
        }


# ------------------------------------------------------------ counter hooks

def _search_open(rec, b):
    rec._search = {"first": {}}     # M -> trials of its first estimate


def _search_done(rec, b, est):
    rec._search = None


def _recovery_done(rec, b, est):
    c = rec.counts
    m, trials, successes = int(b["p"].m_patterns), int(est.trials), int(est.successes)
    c["capacity.recovery_calls"] += 1
    c["capacity.trials"] += trials
    c["capacity.pattern_trials"] += m * trials
    c["capacity.recovered"] += successes
    search = rec._search
    if search is None:
        c["capacity.m_evaluated"] += 1
        return
    if m in search["first"]:
        # second estimate at the same M: the first one is discarded
        c["capacity.remeasures"] += 1
        c["capacity.wasted_trials"] += search["first"][m]
    else:
        search["first"][m] = trials
        c["capacity.m_evaluated"] += 1


def _spot_done(rec, b, ok):
    m = int(b["p"].m_patterns)
    rec.counts["capacity.trials"] += 1
    rec.counts["capacity.pattern_trials"] += m
    rec.counts["capacity.recovered"] += int(bool(ok))


def _dynamics_done(rec, b, out):
    c = rec.counts
    c["hopfield.dynamics_runs"] += 1
    c["hopfield.steps"] += int(out.steps)
    c["hopfield." + str(out.terminal)] += 1


def _fields_done(rec, b, h):
    s = b["s"]
    ndim = getattr(s, "ndim", 1)
    rec.counts["hopfield.field_evals"] += 1
    rec.counts["hopfield.field_cols"] += 1 if ndim == 1 else int(s.shape[1])


def _engine_done(rec, b, _):
    rec.counts["hopfield.engine_builds"] += 1
    if rec._search is not None:
        rec.counts["capacity.engine_builds"] += 1


def _graph_done(rec, b, g):
    rec.counts["graphs.edges"] += int(g.edge_count)


def _samples_done(rec, b, rep):
    rec.counts["bounds.samples"] += int(rep.samples)


def _cli_name(b):
    argv = b.get("argv") or ["?"]
    return "cli." + str(argv[0])


def install(rec: Recorder, full: bool) -> None:
    """Install the probes.  With ``full=False`` only the capacity probes
    that count retrieval trials go in."""
    import graphmem.capacity as capacity
    import graphmem.cli as cli
    import graphmem.graphs as graphs
    import graphmem.hopfield as hopfield
    import graphmem.spectral as spectral
    import graphmem.bounds as bounds

    w = rec.wrap
    w(capacity, "capacity_search", "capacity.search",
      before=_search_open, after=_search_done)
    w(capacity, "recovery_rate", "capacity.recovery_rate", after=_recovery_done)
    w(capacity, "_spot_trial", "capacity.spot", after=_spot_done)
    if not full:
        return
    w(cli, "main", "cli", name=_cli_name)
    engine = getattr(hopfield, "FieldEngine", None)
    w(engine, "__init__", "hopfield.engine_build", after=_engine_done)
    w(engine, "fields", "hopfield.fields", after=_fields_done)
    for mod in (hopfield, capacity):
        w(mod, "run_dynamics", "hopfield.run_dynamics", after=_dynamics_done)
    w(hopfield, "sequential_sweep", "hopfield.sequential_sweep")
    for mod in (spectral, capacity):
        w(mod, "spectrum_summary", "spectral.spectrum")
    w(spectral, "subgraph_bounds", "spectral.subgraph")
    for attr in ("gen_complete", "gen_erdos_renyi", "gen_chung_lu"):
        w(graphs, attr, "graphs.gen", after=_graph_done)
    w(bounds, "gen_erdos_renyi", "graphs.gen")
    w(graphs, "save_edge_list", "graphs.save")
    w(graphs, "load_edge_list", "graphs.load", after=_graph_done)
    w(graphs, "validate_graph", "graphs.validate")
    w(bounds, "quadratic_form_tail", "bounds.tail", after=_samples_done)
    w(bounds, "mgf_check", "bounds.mgf", after=_samples_done)
    w(bounds, "degree_tail_experiment", "bounds.degree_tail")


# ------------------------------------------------------------ per-layer table

_CLI_COMMANDS = ("gen", "reproduce", "capacity", "verify")

# (metric, unit, pass it is read from, probes it needs).  "default" is the
# traced pass with the CLI's default worker count, "det" the traced pass
# with --deterministic-order, whose single worker keeps every field
# evaluation and dynamics run in the traced process.
PER_LAYER = [
    ("hopfield.fields_s", "s", "det", ["hopfield.fields"]),
    ("hopfield.fields_share", "ratio", "det", ["hopfield.fields"]),
    ("hopfield.field_evals", "count", "det", ["hopfield.fields"]),
    ("hopfield.field_cols", "count", "det", ["hopfield.fields"]),
    ("hopfield.engine_builds", "count", "det", ["hopfield.engine_build"]),
    ("hopfield.engine_build_s", "s", "det", ["hopfield.engine_build"]),
    ("hopfield.dynamics_runs", "count", "det", ["hopfield.run_dynamics"]),
    ("hopfield.steps", "count", "det", ["hopfield.run_dynamics"]),
    ("hopfield.fixed_point", "count", "det", ["hopfield.run_dynamics"]),
    ("hopfield.two_cycle", "count", "det", ["hopfield.run_dynamics"]),
    ("hopfield.step_cap", "count", "det", ["hopfield.run_dynamics"]),
    ("hopfield.sequential_sweep_s", "s", "det", ["hopfield.sequential_sweep"]),
    ("capacity.engine_builds_per_m", "ratio", "det",
     ["hopfield.engine_build", "capacity.search", "capacity.recovery_rate"]),
    ("capacity.recovered", "count", "det",
     ["capacity.recovery_rate", "capacity.spot"]),
    ("capacity.search_s", "s", "default", ["capacity.search"]),
    ("capacity.m_evaluated", "count", "default",
     ["capacity.search", "capacity.recovery_rate"]),
    ("capacity.recovery_calls", "count", "default", ["capacity.recovery_rate"]),
    ("capacity.remeasures", "count", "default",
     ["capacity.search", "capacity.recovery_rate"]),
    ("capacity.trials", "count", "default",
     ["capacity.recovery_rate", "capacity.spot"]),
    ("capacity.wasted_trial_frac", "ratio", "default",
     ["capacity.search", "capacity.recovery_rate", "capacity.spot"]),
    ("capacity.spot_s", "s", "default", ["capacity.spot"]),
    ("capacity.pool_wait_s", "s", "default", ["capacity.recovery_rate"]),
    ("spectral.spectrum_s", "s", "default", ["spectral.spectrum"]),
    ("spectral.spectrum_share", "ratio", "default", ["spectral.spectrum"]),
    ("spectral.calls", "count", "default", ["spectral.spectrum"]),
    ("spectral.failures", "count", "default", ["spectral.spectrum"]),
    ("spectral.subgraph_s", "s", "default", ["spectral.subgraph"]),
    ("graphs.gen_s", "s", "default", ["graphs.gen"]),
    ("graphs.save_s", "s", "default", ["graphs.save"]),
    ("graphs.load_s", "s", "default", ["graphs.load"]),
    ("graphs.validate_s", "s", "default", ["graphs.validate"]),
    ("graphs.edges", "count", "default", ["graphs.gen", "graphs.load"]),
    ("bounds.tail_s", "s", "default", ["bounds.tail"]),
    ("bounds.mgf_s", "s", "default", ["bounds.mgf"]),
    ("bounds.degree_tail_s", "s", "default", ["bounds.degree_tail"]),
    ("bounds.samples", "count", "default", ["bounds.tail", "bounds.mgf"]),
] + [
    (f"cli.{cmd}_s", "s", "default", ["cli"]) for cmd in _CLI_COMMANDS
] + [
    ("cli.self_s", "s", "default", ["cli"]),
    ("trace.wall_s", "s", "default", []),
    ("trace.det_wall_s", "s", "det", []),
    ("trace.overhead_s", "s", "default", []),
]


def pass_values(summary: dict) -> dict:
    """Per-layer values of one traced pass, from its worker summary."""
    total = summary["total_s"]
    self_t = summary["self_s"]
    c = summary["counts"]
    wall = summary["wall_s"]
    trials = c.get("capacity.trials", 0)
    builds_m = c.get("capacity.engine_builds", 0)
    m_eval = c.get("capacity.m_evaluated", 0)
    v = {
        "hopfield.fields_s": total.get("hopfield.fields", 0.0),
        "hopfield.fields_share": total.get("hopfield.fields", 0.0) / wall,
        "hopfield.engine_build_s": total.get("hopfield.engine_build", 0.0),
        "hopfield.sequential_sweep_s": total.get("hopfield.sequential_sweep", 0.0),
        "capacity.engine_builds_per_m": builds_m / m_eval if m_eval else 0.0,
        "capacity.search_s": total.get("capacity.search", 0.0),
        "capacity.wasted_trial_frac":
            c.get("capacity.wasted_trials", 0) / trials if trials else 0.0,
        "capacity.spot_s": total.get("capacity.spot", 0.0),
        "capacity.pool_wait_s": self_t.get("capacity.recovery_rate", 0.0),
        "spectral.spectrum_s": total.get("spectral.spectrum", 0.0),
        "spectral.spectrum_share": total.get("spectral.spectrum", 0.0) / wall,
        "spectral.calls": summary["calls"].get("spectral.spectrum", 0),
        "spectral.failures": summary["spectral_failures"],
        "spectral.subgraph_s": total.get("spectral.subgraph", 0.0),
        "graphs.gen_s": total.get("graphs.gen", 0.0),
        "graphs.save_s": total.get("graphs.save", 0.0),
        "graphs.load_s": total.get("graphs.load", 0.0),
        "graphs.validate_s": total.get("graphs.validate", 0.0),
        "bounds.tail_s": total.get("bounds.tail", 0.0),
        "bounds.mgf_s": total.get("bounds.mgf", 0.0),
        "bounds.degree_tail_s": total.get("bounds.degree_tail", 0.0),
        "cli.self_s": sum(t for k, t in self_t.items() if k.startswith("cli.")),
    }
    for key in ("hopfield.field_evals", "hopfield.field_cols",
                "hopfield.engine_builds", "hopfield.dynamics_runs",
                "hopfield.steps", "hopfield.fixed_point", "hopfield.two_cycle",
                "hopfield.step_cap", "capacity.recovered", "capacity.m_evaluated",
                "capacity.recovery_calls", "capacity.remeasures",
                "capacity.trials", "graphs.edges", "bounds.samples"):
        v[key] = c.get(key, 0)
    for cmd in _CLI_COMMANDS:
        v[f"cli.{cmd}_s"] = total.get(f"cli.{cmd}", 0.0)
    return v


def summarize(rec: Recorder, wall_s: float) -> dict:
    """Compact, JSON-ready summary of one pass for the parent process."""
    total, self_t = rec.durations()
    calls = Counter(s[2] for s in rec.spans)
    return {
        "wall_s": wall_s,
        "total_s": dict(total),
        "self_s": dict(self_t),
        "calls": dict(calls),
        "spectral_failures": rec.failures("spectral."),
        "counts": dict(rec.counts),
        "missing": sorted(rec.missing),
    }
