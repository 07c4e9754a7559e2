"""Command-line front end: graph generation, spectra, dynamics, capacity
experiments, theory tables, bound verification, and the capacity scaling
reproduction suites.

Every artifact embeds a schema version and the fully resolved
configuration, so a run can be reproduced from its own output.  CSV bodies
are byte-identical across repeated runs with the same config and seed;
JSON reports carry the wall-clock time of the graph load and the
computation in the elapsed_seconds field, which is the one field excluded
from that guarantee.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from . import capacity as capacity_mod
from . import graphs as graphs_mod
from . import hopfield as hopfield_mod
from . import spectral as spectral_mod

SCHEMA_VERSION = 1

_EXIT_OK = 0
_EXIT_VIOLATIONS = 1
_EXIT_USAGE = 2
_EXIT_IO = 3


@dataclass
class ExperimentConfig:
    """Resolved run configuration: command, parameters, seed, output."""

    command: str
    params: dict
    master_seed: int
    output_path: str | None

    @property
    def format(self) -> str:
        """The artifact format the command writes."""
        if self.command in ("capacity", "reproduce"):
            return "csv"
        return "edgelist" if self.command == "gen" else "json"

    def to_dict(self) -> dict:
        # output_path is where the artifact lands, not part of the
        # experiment, so it stays out of the reproducibility echo.
        return {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "params": dict(sorted(self.params.items())),
            "master_seed": self.master_seed,
            "format": self.format,
        }

    def echo(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def parse_config_echo(text: str) -> dict:
    """Recover the resolved config dict from an artifact's header."""
    for line in text.splitlines():
        if line.startswith("# config="):
            return json.loads(line[len("# config="):])
        if line.lstrip().startswith('"config"') or line.startswith("{"):
            doc = json.loads(text)
            return doc["config"]
    raise ValueError("no config echo found")


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path, config: ExperimentConfig, kind: str, header: list[str],
               rows: list[tuple], extra_comments: list[str] = ()) -> None:
    lines = [f"# schema=graphmem/{kind}/v{SCHEMA_VERSION}",
             f"# config={config.echo()}"]
    lines.extend(extra_comments)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path, config: ExperimentConfig, kind: str, payload: dict,
                elapsed: float) -> None:
    doc = {
        "schema": f"graphmem/{kind}/v{SCHEMA_VERSION}",
        "config": config.to_dict(),
        "elapsed_seconds": elapsed,
    }
    doc.update(payload)
    _write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _load_graph(config: ExperimentConfig) -> graphs_mod.Graph | None:
    """The command's --graph, or None for a command that reads none:
    gen and reproduce build their own graphs, and verify's degrees check
    draws its own."""
    pr = config.params
    if config.command in ("gen", "reproduce") or pr.get("check") == "degrees":
        return None
    if "graph" not in pr:
        # only verify's parser leaves --graph optional
        raise ValueError(f"--check {pr['check']} needs --graph")
    return graphs_mod.load_edge_list(pr["graph"])


# ---------------------------------------------------------------- commands
#
# Each handler takes the resolved config and the loaded graph (None for
# gen and reproduce) and returns the artifact's data only: the generated
# graph, a JSON payload, or a CSV's (header, rows, comment lines).  `run`
# times it and writes the artifact.

def _cmd_gen(config: ExperimentConfig, g: None) -> graphs_mod.Graph:
    params, seed = config.params, config.master_seed
    model = params["model"]
    if model == "complete":
        return graphs_mod.gen_complete(params["n"])
    if model == "gnp":
        return graphs_mod.gen_erdos_renyi(params["n"], params["p"], seed)
    if model == "chunglu":
        w = graphs_mod.powerlaw_weights(params["n"], params["beta"],
                                        params["davg"], params["mbar"])
        return graphs_mod.gen_chung_lu(w, seed)
    if model == "twoclique":
        return graphs_mod.gen_two_cliques(params["msmall"], params["n"],
                                          params.get("bridged", False))
    raise ValueError(f"unknown model {model!r}")


def _cmd_spectrum(config: ExperimentConfig, g: graphs_mod.Graph) -> dict:
    s = spectral_mod.spectrum_summary(g, tol=config.params["tol"])
    d = graphs_mod.degree_stats(g)
    return {
        "lambda1": s.lambda1, "kappa": s.kappa, "gap": s.gap,
        "method": s.method, "residual": s.residual,
        "degrees": {"delta": d.delta, "m": d.m, "d_avg": d.d_avg,
                    "d_tilde": d.d_tilde, "edge_count": d.edge_count},
    }


def _cmd_dynamics(config: ExperimentConfig, g: graphs_mod.Graph) -> dict:
    pr = config.params
    pats = hopfield_mod.sample_patterns(
        pr["patterns"], g.n, np.random.SeedSequence(entropy=(config.master_seed, 1)))
    mu = pr["mu"]
    if not 0 <= mu < pats.m_patterns:
        raise ValueError("--mu out of range")
    start_spec = pr["start"]
    if start_spec == "pattern":
        s0 = pats.pattern(mu)
    elif start_spec.startswith("corrupt:"):
        rho = float(start_spec.split(":", 1)[1])
        s0 = hopfield_mod.corrupt(pats.pattern(mu), rho,
                                  np.random.SeedSequence(entropy=(config.master_seed, 2)))
    else:
        raise ValueError("--start must be 'pattern' or 'corrupt:RHO'")
    out = hopfield_mod.run_dynamics(g, pats, s0, mode=pr["mode"], k_max=pr["kmax"])
    payload = {
        "terminal": out.terminal,
        "steps": out.steps,
        "final": out.final.tolist(),
        "hamming_to_target": hopfield_mod.hamming(out.final, pats.pattern(mu)),
    }
    if pr["trace"]:
        payload["energy_trace"] = out.energy_trace.tolist()
    return payload


def _cmd_capacity(config: ExperimentConfig, g: graphs_mod.Graph) -> tuple:
    pr = config.params
    k_max = None if pr["kmax"] == "auto" else int(pr["kmax"])
    est = capacity_mod.capacity_search(
        g, rho=pr["rho"], k_max=k_max, trials=pr["trials"],
        threshold=pr["threshold"], seed=config.master_seed)
    header = ["M", "trials", "successes", "rate", "ci_lo", "ci_hi", "mean_steps"]
    rows = [(c.m, c.trials, c.successes, c.rate, c.ci_lo, c.ci_hi, c.mean_steps)
            for c in est.curve]
    return header, rows, [f"# m_hat={est.m_hat}", f"# k_max={est.k_max}"]


def _cmd_theory(config: ExperimentConfig, g: graphs_mod.Graph) -> dict:
    pr = config.params
    params = capacity_mod.TheoryParams(c1=pr["c1"], c2=pr["c2"],
                                       c_steps=pr["c_steps"])
    s = spectral_mod.spectrum_summary(g)
    d = graphs_mod.degree_stats(g)
    m_pat = pr["m"]
    cap = capacity_mod.theoretical_capacity(s, d, g.n, pr["alpha"])
    r0 = capacity_mod.rho_zero(s, d, m_pat, params)
    grid = [x for x in (0.01, 0.02, 0.05, 0.1) if x > r0] or [min(0.49, max(2 * r0, 1e-6))]
    table = []
    for rho in grid:
        f = capacity_mod.f_rho(rho, s, d, m_pat, params)
        table.append({"rho": rho, "value": f.value, "branch": f.branch,
                      "contracts": f.value <= rho})
    try:
        pred = capacity_mod.predict_steps(s, m_pat, g.n, pr["rho_start"], params)
        pred_doc = {"n0": pred.n0, "diverged": pred.diverged, "counts": pred.counts}
    except ValueError as exc:
        pred_doc = {"error": str(exc)}
    return {
        "theoretical_capacity": cap,
        "capacity_feasible": cap > 0,
        "rho_zero": r0,
        "f_rho_table": table,
        "predict_steps": pred_doc,
        "k_max_default": capacity_mod.default_k_max(s, g.n),
        "h1": vars(spectral_mod.check_h1(s, d, pr["c1_h1"])),
        "h2": vars(spectral_mod.check_h2(s, g.n, pr["c_h2"])),
    }


def _cmd_verify(config: ExperimentConfig, g: graphs_mod.Graph | None) -> dict:
    pr = config.params
    check, seed = pr["check"], config.master_seed
    if check in ("energy", "subgraph") and pr["trials"] < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    s = spectral_mod.spectrum_summary(g) if check in ("subgraph", "tails", "mgf") else None
    violations = 0
    if check == "energy":
        e = bounds_mod._energy_check(g, pr["trials"], rng)
        violations = int(np.count_nonzero(e[:, 1] > e[:, 0])
                         + np.count_nonzero(e[:, 3] > e[:, 2]))
        detail = {"trials": pr["trials"]}
    elif check == "subgraph":
        for _ in range(pr["trials"]):
            I = rng.choice(g.n, size=int(rng.integers(1, g.n + 1)), replace=False)
            J = rng.choice(g.n, size=int(rng.integers(1, g.n + 1)), replace=False)
            if not spectral_mod.subgraph_bounds(g, s, I, J).holds:
                violations += 1
        detail = {"trials": pr["trials"]}
    elif check in ("tails", "mgf"):
        if check == "tails":
            root_l = math.sqrt(max(g.edge_count, 1))
            grid = [0.5 * root_l, root_l, 2 * root_l, 4 * root_l]
            rep = bounds_mod.quadratic_form_tail(g, s, grid, pr["samples"], seed)
        else:
            lam = max(s.lambda1, 1e-9)
            grid = np.linspace(0.0, 0.9 / lam, 10)
            rep = bounds_mod.mgf_check(g, s, grid, pr["samples"], seed)
        violations = rep.violations
        # one list per column, one entry per grid point
        est, lo, hi = rep.empirical.T.tolist()
        detail = {"method": rep.method, "samples": rep.samples,
                  "grid": [float(x) for x in grid], "estimate": est,
                  "ci_lo": lo, "ci_hi": hi, "analytic": rep.analytic.tolist()}
    elif check == "degrees":
        rep = bounds_mod.degree_tail_experiment(pr["n"], pr["p"], pr["trials"], seed)
        violations = rep.violations
        detail = {"epsilon": rep.epsilon, "in_validity_range": rep.in_validity_range,
                  "max_exceed_freq": rep.max_exceed_freq,
                  "min_exceed_freq": rep.min_exceed_freq,
                  "upper_bound": rep.upper_bound, "lower_bound": rep.lower_bound}
    else:
        raise ValueError(f"unknown check {check!r}")
    return {"check": check, "violations": violations, "detail": detail}


def reproduce_corollaries(suite: str, sizes: list[int], seed: int, rho: float,
                          threshold: float, trials: int, p: float, beta: float,
                          davg: float, mbar: float, c0: float,
                          c_pl: float) -> dict:
    """Run generate -> spectrum -> condition checks -> capacity_search over
    a size ladder and fit m_hat against the predicted scaling variable.
    The reproduce parser holds every parameter's default.

    Predictors: N/log N (complete), pN/log N (gnp), d^2/(m_bar log N)
    (powerlaw).  Suite hypotheses are enforced up front: gnp needs
    0 < p <= 1 and p >= c0 (log N)^2 / N at every size, powerlaw needs
    beta > 3 and d > c_pl sqrt(m_bar) (log N)^(3/2) (or m_bar > (log N)^4
    with the weaker d > c_pl sqrt(m_bar) log N) and a feasible weight
    sequence, max(w)^2 < sum(w).  Every size must be an integer >= 3 that appears
    once, and every size is checked before any search runs.
    """
    if len(sizes) < 3:
        raise ValueError("need a ladder of at least 3 sizes")
    if suite not in ("complete", "gnp", "powerlaw"):
        raise ValueError(f"unknown suite {suite!r}")
    for i, n in enumerate(sizes):
        if not isinstance(n, (int, np.integer)) or n < 3:
            raise ValueError(f"ladder sizes must be integers >= 3, got {n}")
        if n in sizes[:i]:
            raise ValueError(f"ladder size N={n} appears more than once")
    if suite == "gnp":
        if not 0.0 < p <= 1.0:
            raise ValueError(f"gnp suite needs 0 < p <= 1, got p={p}")
        for n in sizes:
            floor = c0 * math.log(n) ** 2 / n
            if p < floor:
                raise ValueError(
                    f"gnp suite needs p >= c0 (log N)^2/N; at N={n} that is "
                    f"{floor:.4g} > p={p}")
    weights = {}
    if suite == "powerlaw":
        if beta <= 3.0:
            raise ValueError("powerlaw suite requires beta > 3 (the capacity "
                             "statement only covers that regime)")
        for n in sizes:
            logn = math.log(n)
            main = davg > c_pl * math.sqrt(mbar) * logn ** 1.5
            alt = mbar > logn ** 4 and davg > c_pl * math.sqrt(mbar) * logn
            if not (main or alt):
                raise ValueError(
                    f"powerlaw suite needs d > c sqrt(m_bar) (log N)^(3/2) or "
                    f"the m_bar >> (log N)^4 branch; violated at N={n}")
            try:
                weights[n] = graphs_mod.powerlaw_weights(n, beta, davg, mbar)
            except graphs_mod.InfeasibleWeightsError as e:
                raise graphs_mod.InfeasibleWeightsError(f"N={n}: {e}") from None
    rows = []
    for n in sizes:
        gseed = capacity_mod._derived_seed(seed, n, 0)
        if suite == "complete":
            g = graphs_mod.gen_complete(n)
            predictor = n / math.log(n)
        elif suite == "gnp":
            g = graphs_mod.gen_erdos_renyi(n, p, gseed)
            predictor = p * n / math.log(n)
        else:
            g = graphs_mod.gen_chung_lu(weights[n], gseed)
            predictor = davg ** 2 / (mbar * math.log(n))
        s = spectral_mod.spectrum_summary(g)
        d = graphs_mod.degree_stats(g)
        h1 = spectral_mod.check_h1(s, d, 0.5)
        h2 = spectral_mod.check_h2(s, g.n, 1.0)
        est = capacity_mod.capacity_search(
            g, rho=rho, k_max=capacity_mod.default_k_max(s, g.n), trials=trials,
            threshold=threshold, seed=capacity_mod._derived_seed(seed, n, 1))
        steps = [c.mean_steps for c in est.curve
                 if c.m == est.m_hat and not math.isnan(c.mean_steps)]
        rows.append({
            "n": n, "lambda1": s.lambda1, "kappa": s.kappa,
            "h1_holds": h1.holds, "h2_holds": h2.holds,
            "predictor": predictor, "m_hat": est.m_hat,
            "ratio": est.m_hat / predictor,
            "mean_steps": steps[0] if steps else math.nan,
        })
    xs = [r["predictor"] for r in rows if r["m_hat"] > 0]
    ys = [r["m_hat"] for r in rows if r["m_hat"] > 0]
    if len(xs) >= 2:
        slope = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
    else:
        slope = math.nan
    ratios = [r["ratio"] for r in rows if r["m_hat"] > 0]
    spread = max(ratios) / min(ratios) if ratios else math.nan
    return {"rows": rows, "slope": slope, "ratio_spread": spread}


def _cmd_reproduce(config: ExperimentConfig, g: None) -> tuple:
    result = reproduce_corollaries(seed=config.master_seed, **config.params)
    header = ["n", "lambda1", "kappa", "h1_holds", "h2_holds", "predictor",
              "m_hat", "ratio", "mean_steps"]
    rows = [tuple(r[k] for k in header) for r in result["rows"]]
    return header, rows, [f"# slope={_fmt(result['slope'])}",
                          f"# ratio_spread={_fmt(result['ratio_spread'])}"]


_HANDLERS = {
    "gen": _cmd_gen,
    "spectrum": _cmd_spectrum,
    "dynamics": _cmd_dynamics,
    "capacity": _cmd_capacity,
    "theory": _cmd_theory,
    "verify": _cmd_verify,
    "reproduce": _cmd_reproduce,
}


def run(config: ExperimentConfig) -> int:
    """Execute a resolved config; returns the process exit status.

    The one place that loads the command's graph, times the command
    (elapsed_seconds covers the graph load and the computation) and
    writes the artifact that ``config.format`` names.
    """
    handler = _HANDLERS.get(config.command)
    if handler is None:
        sys.stderr.write(f"unknown command {config.command!r}\n")
        return _EXIT_USAGE
    path = config.output_path
    try:
        t0 = time.perf_counter()
        data = handler(config, _load_graph(config))
        elapsed = time.perf_counter() - t0
        if config.format == "edgelist":
            graphs_mod.save_edge_list(data, path)
            sys.stdout.write(config.echo() + "\n")
        elif config.format == "csv":
            header, rows, comments = data
            _write_csv(path, config, config.command, header, rows, comments)
        else:
            _write_json(path, config, config.command, data, elapsed)
    except OSError as exc:
        sys.stderr.write(f"i/o failure: {exc}\n")
        return _EXIT_IO
    except (ValueError, spectral_mod.SpectralSolverError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_USAGE
    if config.command == "verify" and data["violations"]:
        return _EXIT_VIOLATIONS
    return _EXIT_OK


# the flags each verify check reads; it rejects the others
_VERIFY_READS = {
    "energy": ("graph", "trials"),
    "subgraph": ("graph", "trials"),
    "tails": ("graph", "samples"),
    "mgf": ("graph", "samples"),
    "degrees": ("n", "p", "trials"),
}
_VERIFY_DEFAULTS = {"trials": 200, "samples": 20000, "n": 500, "p": 0.1}


def _reject_unread_flags(params: dict) -> None:
    """Raise ValueError naming the first flag given to verify that its
    check does not read.  A graph check given no --graph is left to run,
    whose error says that it needs one."""
    check = params["check"]
    reads = _VERIFY_READS[check]
    if "graph" in reads and "graph" not in params:
        return
    for flag in ("graph", *_VERIFY_DEFAULTS):
        if flag in params and flag not in reads:
            raise ValueError(f"--check {check} does not read --{flag}")


def _add_common(sub, with_out=True):
    sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    if with_out:
        sub.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="graphmem",
        description="Associative memory on graphs: generators, spectra, "
                    "dynamics, capacity experiments, bound verification.")
    sp = ap.add_subparsers(dest="command", required=True)

    g = sp.add_parser("gen", help="generate a graph and write its edge list")
    g.add_argument("--model", required=True,
                   choices=["complete", "gnp", "chunglu", "twoclique"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--p", type=float, default=0.1)
    g.add_argument("--beta", type=float, default=3.5)
    g.add_argument("--davg", type=float, default=20.0)
    g.add_argument("--mbar", type=float, default=100.0)
    g.add_argument("--msmall", type=int, default=50)
    g.add_argument("--bridged", action="store_true")
    g.add_argument("--out", required=True)
    _add_common(g, with_out=False)

    s = sp.add_parser("spectrum", help="extreme eigenvalues and degree stats")
    s.add_argument("--graph", required=True)
    s.add_argument("--tol", type=float, default=1e-8)
    _add_common(s)

    d = sp.add_parser("dynamics", help="run retrieval dynamics from a start state")
    d.add_argument("--graph", required=True)
    d.add_argument("--patterns", type=int, required=True)
    d.add_argument("--mu", type=int, default=0)
    d.add_argument("--start", default="pattern",
                   help="'pattern' or 'corrupt:RHO' (default pattern)")
    d.add_argument("--mode", choices=["parallel", "sequential"], default="parallel")
    d.add_argument("--kmax", type=int, default=1000)
    d.add_argument("--trace", action="store_true", help="include the energy trace")
    _add_common(d)

    c = sp.add_parser("capacity", help="binary-search the empirical capacity")
    c.add_argument("--graph", required=True)
    c.add_argument("--rho", type=float, default=0.05)
    c.add_argument("--threshold", type=float, default=0.95)
    c.add_argument("--trials", type=int, default=200)
    c.add_argument("--kmax", default="auto", help="step budget or 'auto'")
    _add_common(c)

    t = sp.add_parser("theory", help="theoretical capacity, rho0, f(rho), steps")
    t.add_argument("--graph", required=True)
    t.add_argument("--alpha", type=float, default=0.05)
    t.add_argument("--m", type=int, required=True, help="pattern count M")
    t.add_argument("--rho-start", type=float, default=1.0 / math.e, dest="rho_start")
    t.add_argument("--c1", type=float, default=1.0)
    t.add_argument("--c2", type=float, default=1.0)
    t.add_argument("--c-steps", type=float, default=1.0, dest="c_steps")
    t.add_argument("--c1-h1", type=float, default=0.5, dest="c1_h1")
    t.add_argument("--c-h2", type=float, default=1.0, dest="c_h2")
    _add_common(t)

    v = sp.add_parser("verify", help="empirically check an invariant family")
    v.add_argument("--check", required=True,
                   choices=["energy", "subgraph", "tails", "mgf", "degrees"])
    # no parser defaults, so that config_from_args sees which flags were
    # given; it fills in _VERIFY_DEFAULTS
    v.add_argument("--graph", help="every check but degrees")
    for flag, kind in (("trials", int), ("samples", int), ("n", int), ("p", float)):
        checks = ", ".join(c for c, reads in _VERIFY_READS.items() if flag in reads)
        v.add_argument(f"--{flag}", type=kind,
                       help=f"{checks} (default {_VERIFY_DEFAULTS[flag]})")
    _add_common(v)

    r = sp.add_parser("reproduce", help="scaling-law suite across a size ladder")
    r.add_argument("--suite", required=True, choices=["complete", "gnp", "powerlaw"])
    r.add_argument("--sizes", default="256,512,1024",
                   help="comma-separated ladder, at least 3 sizes")
    r.add_argument("--rho", type=float, default=0.05)
    r.add_argument("--threshold", type=float, default=0.95)
    r.add_argument("--trials", type=int, default=100)
    r.add_argument("--p", type=float, default=0.15)
    r.add_argument("--beta", type=float, default=3.5)
    r.add_argument("--davg", type=float, default=32.0)
    r.add_argument("--mbar", type=float, default=128.0)
    r.add_argument("--c0", type=float, default=0.5)
    r.add_argument("--c-pl", type=float, default=0.1, dest="c_pl")
    _add_common(r)
    return ap


def config_from_args(ns: argparse.Namespace) -> ExperimentConfig:
    skip = {"command", "seed", "out"}
    params = {k: v for k, v in vars(ns).items() if k not in skip and v is not None}
    if ns.command == "verify":
        _reject_unread_flags(params)
        params = {**_VERIFY_DEFAULTS, **params}
    if "sizes" in params and isinstance(params["sizes"], str):
        try:
            params["sizes"] = [int(x) for x in params["sizes"].split(",") if x]
        except ValueError:
            raise ValueError(f"--sizes must be comma-separated integers, got "
                             f"{params['sizes']!r}") from None
    return ExperimentConfig(command=ns.command, params=params, master_seed=ns.seed,
                            output_path=getattr(ns, "out", None))


def main(argv=None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _EXIT_USAGE
    try:
        config = config_from_args(ns)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_USAGE
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
