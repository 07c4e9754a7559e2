"""Command-line front end: graph generation, spectra, dynamics, capacity
experiments, theory tables, bound verification, and the capacity scaling
reproduction suites.

Every artifact embeds a schema version and the fully resolved
configuration, so a run can be reproduced from its own output.  CSV bodies
are byte-identical across repeated runs with the same config and seed;
JSON reports carry wall-clock timing in the elapsed_seconds field, which
is the one field excluded from that guarantee.
"""
from __future__ import annotations

import argparse
import json
import math
import os
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
    _write_text(path, json.dumps(doc, sort_keys=True, indent=2, default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IoFailure(str(exc)) from exc


class _IoFailure(Exception):
    pass


def _load_graph(path) -> graphs_mod.Graph:
    try:
        return graphs_mod.load_edge_list(path)
    except OSError as exc:
        raise _IoFailure(str(exc)) from exc


def _build_graph(params: dict, seed: int) -> graphs_mod.Graph:
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


# ---------------------------------------------------------------- commands

def _cmd_gen(config: ExperimentConfig) -> int:
    g = _build_graph(config.params, config.master_seed)
    try:
        graphs_mod.save_edge_list(g, config.output_path)
    except OSError as exc:
        raise _IoFailure(str(exc)) from exc
    sys.stdout.write(config.echo() + "\n")
    return _EXIT_OK


def _cmd_spectrum(config: ExperimentConfig) -> int:
    t0 = time.perf_counter()
    g = _load_graph(config.params["graph"])
    s = spectral_mod.spectrum_summary(g, tol=config.params["tol"])
    d = graphs_mod.degree_stats(g)
    payload = {
        "lambda1": s.lambda1, "kappa": s.kappa, "gap": s.gap,
        "method": s.method, "residual": s.residual,
        "degrees": {"delta": d.delta, "m": d.m, "d_avg": d.d_avg,
                    "d_tilde": d.d_tilde, "edge_count": d.edge_count},
    }
    _write_json(config.output_path, config, "spectrum", payload,
                time.perf_counter() - t0)
    return _EXIT_OK


def _cmd_dynamics(config: ExperimentConfig) -> int:
    t0 = time.perf_counter()
    g = _load_graph(config.params["graph"])
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
    _write_json(config.output_path, config, "dynamics", payload,
                time.perf_counter() - t0)
    return _EXIT_OK


def _cmd_capacity(config: ExperimentConfig) -> int:
    g = _load_graph(config.params["graph"])
    pr = config.params
    k_max = None if pr["kmax"] == "auto" else int(pr["kmax"])
    est = capacity_mod.capacity_search(
        g, rho=pr["rho"], k_max=k_max, trials=pr["trials"],
        threshold=pr["threshold"], seed=config.master_seed)
    header = ["M", "trials", "successes", "rate", "ci_lo", "ci_hi", "mean_steps"]
    rows = [(c.m, c.trials, c.successes, c.rate, c.ci_lo, c.ci_hi, c.mean_steps)
            for c in est.curve]
    _write_csv(config.output_path, config, "capacity", header, rows,
               extra_comments=[f"# m_hat={est.m_hat}", f"# k_max={est.k_max}"])
    return _EXIT_OK


def _cmd_theory(config: ExperimentConfig) -> int:
    t0 = time.perf_counter()
    g = _load_graph(config.params["graph"])
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
    payload = {
        "theoretical_capacity": cap,
        "capacity_feasible": cap > 0,
        "rho_zero": r0,
        "f_rho_table": table,
        "predict_steps": pred_doc,
        "k_max_default": capacity_mod.default_k_max(s, g.n),
        "h1": vars(spectral_mod.check_h1(s, d, pr["c1_h1"])),
        "h2": vars(spectral_mod.check_h2(s, g.n, pr["c_h2"])),
    }
    _write_json(config.output_path, config, "theory", payload,
                time.perf_counter() - t0)
    return _EXIT_OK


def _cmd_verify(config: ExperimentConfig) -> int:
    t0 = time.perf_counter()
    pr = config.params
    check = pr["check"]
    rng_seed = config.master_seed
    violations = 0
    detail: dict = {}
    if check != "degrees" and "graph" not in pr:
        raise ValueError(f"--check {check} needs --graph")
    if check == "energy":
        g = _load_graph(pr["graph"])
        rng = np.random.default_rng(rng_seed)
        for _ in range(pr["trials"]):
            m_pat = int(rng.integers(1, 5))
            pats = hopfield_mod.sample_patterns(m_pat, g.n, rng)
            eng = hopfield_mod.FieldEngine(g, pats)
            s0 = (rng.integers(0, 2, g.n, dtype=np.int8) * 2 - 1)
            swept = hopfield_mod.sequential_sweep(eng, s0)
            if hopfield_mod.energy_S(eng, swept) > hopfield_mod.energy_S(eng, s0):
                violations += 1
            stepped = hopfield_mod.parallel_step(eng, s0)
            if hopfield_mod.energy_T(eng, stepped) > hopfield_mod.energy_T(eng, s0):
                violations += 1
        detail = {"trials": pr["trials"]}
    elif check == "subgraph":
        g = _load_graph(pr["graph"])
        s = spectral_mod.spectrum_summary(g)
        rng = np.random.default_rng(rng_seed)
        for _ in range(pr["trials"]):
            I = rng.choice(g.n, size=int(rng.integers(1, g.n + 1)), replace=False)
            J = rng.choice(g.n, size=int(rng.integers(1, g.n + 1)), replace=False)
            rep = spectral_mod.subgraph_bounds(g, s, I, J)
            if not rep.holds:
                violations += 1
        detail = {"trials": pr["trials"]}
    elif check == "tails":
        g = _load_graph(pr["graph"])
        s = spectral_mod.spectrum_summary(g)
        root_l = math.sqrt(max(g.edge_count, 1))
        rep = bounds_mod.quadratic_form_tail(
            g, s, [0.5 * root_l, root_l, 2 * root_l, 4 * root_l],
            pr["samples"], rng_seed)
        violations = rep.violations
        detail = {"method": rep.method, "samples": rep.samples}
    elif check == "mgf":
        g = _load_graph(pr["graph"])
        s = spectral_mod.spectrum_summary(g)
        lam = max(s.lambda1, 1e-9)
        rep = bounds_mod.mgf_check(
            g, s, np.linspace(0.0, 0.9 / lam, 10), pr["samples"], rng_seed)
        violations = rep.violations
        detail = {"method": rep.method, "samples": rep.samples}
    elif check == "degrees":
        rep = bounds_mod.degree_tail_experiment(pr["n"], pr["p"], pr["trials"],
                                                rng_seed)
        violations = rep.violations
        detail = {"epsilon": rep.epsilon, "in_validity_range": rep.in_validity_range,
                  "max_exceed_freq": rep.max_exceed_freq,
                  "min_exceed_freq": rep.min_exceed_freq,
                  "upper_bound": rep.upper_bound, "lower_bound": rep.lower_bound}
    else:
        raise ValueError(f"unknown check {check!r}")
    payload = {"check": check, "violations": violations, "detail": detail}
    _write_json(config.output_path, config, "verify", payload,
                time.perf_counter() - t0)
    return _EXIT_OK if violations == 0 else _EXIT_VIOLATIONS


def reproduce_corollaries(suite: str, sizes: list[int], seed: int,
                          rho: float = 0.05, threshold: float = 0.95,
                          trials: int = 100, p: float = 0.15,
                          beta: float = 3.5, davg: float = 32.0,
                          mbar: float = 128.0, c0: float = 0.5,
                          c_pl: float = 0.1) -> dict:
    """Run generate -> spectrum -> condition checks -> capacity_search over
    a size ladder and fit m_hat against the predicted scaling variable.

    Predictors: N/log N (complete), pN/log N (gnp), d^2/(m_bar log N)
    (powerlaw).  Suite hypotheses are enforced up front: gnp needs
    p >= c0 (log N)^2 / N at every size, powerlaw needs beta > 3 and
    d > c_pl sqrt(m_bar) (log N)^(3/2) (or m_bar > (log N)^4 with the
    weaker d > c_pl sqrt(m_bar) log N) and a feasible weight sequence,
    max(w)^2 < sum(w).  Every size is checked before any search runs.
    """
    if len(sizes) < 3:
        raise ValueError("need a ladder of at least 3 sizes")
    if suite not in ("complete", "gnp", "powerlaw"):
        raise ValueError(f"unknown suite {suite!r}")
    if suite == "gnp":
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
        gseed = int(np.random.SeedSequence(entropy=(seed, n, 0)).generate_state(1)[0])
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
        cseed = int(np.random.SeedSequence(entropy=(seed, n, 1)).generate_state(1)[0])
        est = capacity_mod.capacity_search(
            g, rho=rho, k_max=capacity_mod.default_k_max(s, g.n), trials=trials,
            threshold=threshold, seed=cseed)
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


def _cmd_reproduce(config: ExperimentConfig) -> int:
    pr = config.params
    result = reproduce_corollaries(
        suite=pr["suite"], sizes=pr["sizes"], seed=config.master_seed,
        rho=pr["rho"], threshold=pr["threshold"], trials=pr["trials"],
        p=pr["p"], beta=pr["beta"], davg=pr["davg"], mbar=pr["mbar"],
        c0=pr["c0"], c_pl=pr["c_pl"])
    header = ["n", "lambda1", "kappa", "h1_holds", "h2_holds", "predictor",
              "m_hat", "ratio", "mean_steps"]
    rows = [tuple(r[k] for k in header) for r in result["rows"]]
    _write_csv(config.output_path, config, "reproduce", header, rows,
               extra_comments=[f"# slope={_fmt(result['slope'])}",
                               f"# ratio_spread={_fmt(result['ratio_spread'])}"])
    return _EXIT_OK


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
    """Execute a resolved config; returns the process exit status."""
    handler = _HANDLERS.get(config.command)
    if handler is None:
        sys.stderr.write(f"unknown command {config.command!r}\n")
        return _EXIT_USAGE
    try:
        return handler(config)
    except _IoFailure as exc:
        sys.stderr.write(f"i/o failure: {exc}\n")
        return _EXIT_IO
    except (ValueError, graphs_mod.EdgeListParseError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_USAGE


def _default_seed() -> int:
    env = os.environ.get("GRAPHMEM_SEED")
    return int(env) if env else 0


def _add_common(sub, with_out=True):
    sub.add_argument("--seed", type=int, default=None,
                     help="master seed (default: GRAPHMEM_SEED or 0)")
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
    v.add_argument("--graph")
    v.add_argument("--trials", type=int, default=200)
    v.add_argument("--samples", type=int, default=20000)
    v.add_argument("--n", type=int, default=500)
    v.add_argument("--p", type=float, default=0.1)
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
    seed = ns.seed if ns.seed is not None else _default_seed()
    skip = {"command", "seed", "out"}
    params = {k: v for k, v in vars(ns).items() if k not in skip and v is not None}
    if "sizes" in params and isinstance(params["sizes"], str):
        try:
            params["sizes"] = [int(x) for x in params["sizes"].split(",") if x]
        except ValueError:
            raise ValueError(f"--sizes must be comma-separated integers, got "
                             f"{params['sizes']!r}") from None
    return ExperimentConfig(command=ns.command, params=params, master_seed=seed,
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
