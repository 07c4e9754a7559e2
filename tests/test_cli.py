import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphmem
from graphmem import bounds, cli, graphs, spectral

SRC = str(Path(graphs.__file__).resolve().parents[1])
GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"

# One small run of every command that writes an artifact.  Every config
# echo holds the --graph path, so the runs use paths relative to the
# directory they run in.
ARTIFACT_RUNS = [
    ["gen", "--model", "complete", "--n", "6", "--out", "k6.txt"],
    ["gen", "--model", "gnp", "--n", "40", "--p", "0.25", "--seed", "4",
     "--out", "g.txt"],
    ["gen", "--model", "chunglu", "--n", "60", "--davg", "6", "--mbar", "12",
     "--seed", "2", "--out", "cl.txt"],
    ["gen", "--model", "twoclique", "--n", "12", "--msmall", "5", "--bridged",
     "--out", "tc.txt"],
    ["spectrum", "--graph", "g.txt", "--out", "spectrum.json"],
    ["dynamics", "--graph", "g.txt", "--patterns", "2", "--start", "corrupt:0.1",
     "--kmax", "50", "--trace", "--seed", "7", "--out", "dynamics.json"],
    ["dynamics", "--graph", "g.txt", "--patterns", "3", "--mode", "sequential",
     "--seed", "7", "--out", "dynamics_seq.json"],
    ["capacity", "--graph", "g.txt", "--trials", "30", "--kmax", "10",
     "--threshold", "0.9", "--seed", "11", "--out", "capacity.csv"],
    ["theory", "--graph", "g.txt", "--m", "3", "--out", "theory.json"],
    ["verify", "--check", "energy", "--graph", "g.txt", "--trials", "20",
     "--seed", "3", "--out", "energy.json"],
    ["verify", "--check", "tails", "--graph", "g.txt", "--samples", "2000",
     "--seed", "3", "--out", "tails.json"],
    ["verify", "--check", "mgf", "--graph", "g.txt", "--samples", "2000",
     "--seed", "3", "--out", "mgf.json"],
    ["verify", "--check", "tails", "--graph", "tc.txt", "--samples", "1000",
     "--out", "tails_tc.json"],
    ["verify", "--check", "mgf", "--graph", "tc.txt", "--samples", "1000",
     "--out", "mgf_tc.json"],
    ["verify", "--check", "subgraph", "--graph", "g.txt", "--trials", "20",
     "--seed", "3", "--out", "subgraph.json"],
    ["verify", "--check", "degrees", "--n", "300", "--p", "0.1", "--trials",
     "10", "--seed", "3", "--out", "degrees.json"],
    ["reproduce", "--suite", "complete", "--sizes", "16,24,32", "--trials", "20",
     "--threshold", "0.9", "--seed", "5", "--out", "reproduce.csv"],
]


def run_artifacts(workdir):
    """Run ARTIFACT_RUNS in workdir.  Returns every artifact's text, less
    its elapsed_seconds line, by file name, and the runs' joint stdout
    (gen's config echoes) as "stdout.txt"."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            for argv in ARTIFACT_RUNS:
                assert cli.main(argv) == 0, argv
    finally:
        os.chdir(cwd)
    texts = {"stdout.txt": out.getvalue()}
    for argv in ARTIFACT_RUNS:
        name = argv[argv.index("--out") + 1]
        lines = (Path(workdir) / name).read_text().splitlines(keepends=True)
        texts[name] = "".join(ln for ln in lines
                              if not ln.startswith('  "elapsed_seconds": '))
    return texts


def run_cli(*args):
    return cli.main(list(args))


def without_elapsed(path):
    """The bytes of the artifact at path, less its elapsed_seconds line."""
    return b"".join(ln for ln in path.read_bytes().splitlines(keepends=True)
                    if not ln.startswith(b'  "elapsed_seconds": '))


def gen_graph_file(tmp_path, name="g.txt", n=40, p=0.25, seed=4):
    path = tmp_path / name
    code = run_cli("gen", "--model", "gnp", "--n", str(n), "--p", str(p),
                   "--seed", str(seed), "--out", str(path))
    assert code == 0
    return path


def test_artifacts_match_recorded_texts(tmp_path):
    # tests/golden holds the texts these runs wrote before the command
    # runner took over loading, timing and writing
    texts = run_artifacts(tmp_path)
    assert sorted(texts) == sorted(p.name for p in GOLDEN.iterdir())
    for name, text in texts.items():
        assert text == (GOLDEN / name).read_text(), name


def test_every_artifact_reruns_from_its_own_config_echo(tmp_path):
    # a run is reproduced from its own output: the echo that gen prints,
    # or the config in every other artifact, run again through
    # graphmem.run, writes the same bytes but for elapsed_seconds
    stdout = run_artifacts(tmp_path)["stdout.txt"]
    gen_echoes = iter(stdout.splitlines(keepends=True))
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        for argv in ARTIFACT_RUNS:
            name = argv[argv.index("--out") + 1]
            old, new = tmp_path / name, tmp_path / ("rerun-" + name)
            echo = next(gen_echoes) if argv[0] == "gen" else None
            conf = json.loads(echo) if echo else cli.parse_config_echo(old.read_text())
            config = graphmem.ExperimentConfig(conf["command"], conf["params"],
                                               conf["master_seed"], new.name)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert graphmem.run(config) == 0, argv
            assert out.getvalue() == (echo or "")
            assert without_elapsed(new) == without_elapsed(old), argv
    finally:
        os.chdir(cwd)


def test_gen_writes_loadable_graph(tmp_path):
    path = gen_graph_file(tmp_path)
    g = graphs.load_edge_list(path)
    graphs.validate_graph(g)
    assert g.n == 40


def test_gen_matches_library_call(tmp_path):
    path = gen_graph_file(tmp_path, n=30, p=0.2, seed=9)
    assert graphs.load_edge_list(path) == graphs.gen_erdos_renyi(30, 0.2, 9)


def test_gen_two_clique_model(tmp_path):
    path = tmp_path / "tc.txt"
    assert run_cli("gen", "--model", "twoclique", "--n", "20", "--msmall", "5",
                   "--bridged", "--out", str(path)) == 0
    assert graphs.load_edge_list(path) == graphs.gen_two_cliques(5, 20, True)


def test_spectrum_report(tmp_path):
    gpath = gen_graph_file(tmp_path)
    out = tmp_path / "spectrum.json"
    assert run_cli("spectrum", "--graph", str(gpath), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "graphmem/spectrum/v1"
    assert doc["method"] == "iterative"
    assert doc["lambda1"] >= doc["kappa"] >= 0.0
    assert doc["gap"] == pytest.approx(doc["lambda1"] - doc["kappa"])
    assert "lambda2" not in doc and "lambdaN" not in doc
    assert doc["degrees"]["edge_count"] > 0
    assert "elapsed_seconds" in doc


def test_config_echo_round_trip(tmp_path):
    gpath = gen_graph_file(tmp_path)
    out = tmp_path / "spectrum.json"
    argv = ["spectrum", "--graph", str(gpath), "--seed", "3", "--out", str(out)]
    assert run_cli(*argv) == 0
    echoed = cli.parse_config_echo(out.read_text())
    ns = cli.build_parser().parse_args(argv)
    rebuilt = cli.config_from_args(ns).to_dict()
    assert echoed == rebuilt
    assert "worker_count" not in echoed


def test_config_echo_of_csv_artifacts(tmp_path):
    for name, command, seed in (("capacity.csv", "capacity", 11),
                                ("reproduce.csv", "reproduce", 5)):
        echoed = cli.parse_config_echo((GOLDEN / name).read_text())
        assert echoed["command"] == command and echoed["master_seed"] == seed
        assert echoed["format"] == "csv"
    with pytest.raises(ValueError, match="no config echo found"):
        cli.parse_config_echo(gen_graph_file(tmp_path).read_text())


def test_dynamics_report(tmp_path):
    gpath = gen_graph_file(tmp_path)
    out = tmp_path / "dyn.json"
    assert run_cli("dynamics", "--graph", str(gpath), "--patterns", "2",
                   "--seed", "7", "--start", "corrupt:0.1", "--kmax", "50",
                   "--trace", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["terminal"] in ("fixed_point", "two_cycle", "step_cap")
    assert doc["steps"] >= 1
    assert len(doc["final"]) == 40
    assert set(doc["final"]) <= {-1, 1}
    assert len(doc["energy_trace"]) == doc["steps"] + 1
    assert doc["hamming_to_target"] >= 0


def test_dynamics_without_trace_flag(tmp_path):
    gpath = gen_graph_file(tmp_path)
    out = tmp_path / "dyn.json"
    assert run_cli("dynamics", "--graph", str(gpath), "--patterns", "1",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert "energy_trace" not in doc


def test_capacity_csv_layout_and_determinism(tmp_path):
    gpath = gen_graph_file(tmp_path, n=32, p=0.5)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["capacity", "--graph", str(gpath), "--rho", "0.05", "--trials",
            "30", "--threshold", "0.9", "--kmax", "10", "--seed", "11"]
    assert run_cli(*argv, "--out", str(out1)) == 0
    assert run_cli(*argv, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "# schema=graphmem/capacity/v1"
    assert lines[1].startswith("# config=")
    assert lines[2].startswith("# m_hat=")
    assert lines[3].startswith("# k_max=")
    assert lines[4] == "M,trials,successes,rate,ci_lo,ci_hi,mean_steps"
    first = lines[5].split(",")
    # trials is 4x the request when the interval straddled the threshold
    assert first[0] == "1" and first[1] in ("30", "120")


def test_capacity_seed_changes_nothing_but_seed_does(tmp_path):
    gpath = gen_graph_file(tmp_path, n=32, p=0.5)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["capacity", "--graph", str(gpath), "--trials", "20",
            "--kmax", "8", "--threshold", "0.9"]
    assert run_cli(*base, "--seed", "1", "--out", str(out1)) == 0
    assert run_cli(*base, "--seed", "2", "--out", str(out2)) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_theory_report(tmp_path):
    path = tmp_path / "k.txt"
    assert run_cli("gen", "--model", "complete", "--n", "64",
                   "--out", str(path)) == 0
    out = tmp_path / "th.json"
    assert run_cli("theory", "--graph", str(path), "--m", "3",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["capacity_feasible"] is (doc["theoretical_capacity"] > 0)
    assert 0.0 < doc["rho_zero"] < 1.0
    assert doc["predict_steps"]["n0"] >= 1
    assert doc["k_max_default"] >= 1
    for row in doc["f_rho_table"]:
        assert {"rho", "value", "branch", "contracts"} <= row.keys()
    assert doc["h1"]["holds"] and doc["h2"]["holds"]


def test_capacity_auto_kmax_on_a_sparse_graph_does_not_load_the_eigensolver(tmp_path):
    # G(300, 0.02)'s cheap spectral bound fixes the default step budget,
    # so the run never imports ARPACK, nor the component search that only
    # the Lanczos path runs
    gpath = gen_graph_file(tmp_path, n=300, p=0.02, seed=0)
    code = ("import sys\n"
            "from graphmem import cli\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print(any(m in sys.modules for m in\n"
            "          ('scipy.sparse.linalg', 'scipy.sparse.csgraph')))\n")
    out = subprocess.run(
        [sys.executable, "-c", code, "capacity", "--graph", str(gpath),
         "--trials", "20", "--out", str(tmp_path / "c.csv")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "False"
    assert "# k_max=571\n" in (tmp_path / "c.csv").read_text()


@pytest.mark.parametrize("check", ["tails", "mgf"])
def test_verify_form_detail_carries_the_report(tmp_path, check):
    # one entry per grid point for each column of the library's report
    gpath = gen_graph_file(tmp_path)
    out = tmp_path / "v.json"
    assert run_cli("verify", "--check", check, "--graph", str(gpath),
                   "--samples", "2000", "--seed", "3", "--out", str(out)) == 0
    detail = json.loads(out.read_text())["detail"]
    g = graphs.load_edge_list(gpath)
    s = spectral.spectrum_summary(g)
    if check == "tails":
        rep = bounds.quadratic_form_tail(g, s, detail["grid"], 2000, 3)
    else:
        rep = bounds.mgf_check(g, s, detail["grid"], 2000, 3)
    assert detail["method"] == rep.method and detail["samples"] == rep.samples
    assert np.array_equal(np.column_stack([detail["estimate"], detail["ci_lo"],
                                           detail["ci_hi"]]), rep.empirical)
    assert detail["analytic"] == rep.analytic.tolist()


def test_verify_energy_clean(tmp_path):
    gpath = gen_graph_file(tmp_path, n=20, p=0.4)
    out = tmp_path / "v.json"
    assert run_cli("verify", "--check", "energy", "--graph", str(gpath),
                   "--trials", "25", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["violations"] == 0


def test_verify_energy_spans_trial_blocks(tmp_path, monkeypatch):
    # 400 trials on G(500, 0.1) hold about 1000 pattern columns, about twice
    # the 2^18 / 500 that one block of the batched check takes
    from graphmem import bounds as bounds_mod

    gpath = gen_graph_file(tmp_path, n=500, p=0.1, seed=0)
    sizes, real = [], bounds_mod._energy_block

    def spy(engine, xis, starts):
        sizes.append(len(xis))
        return real(engine, xis, starts)

    monkeypatch.setattr(bounds_mod, "_energy_block", spy)
    out = tmp_path / "v.json"
    assert run_cli("verify", "--check", "energy", "--graph", str(gpath),
                   "--trials", "400", "--seed", "5", "--out", str(out)) == 0
    assert len(sizes) > 1 and sum(sizes) == 400
    doc = json.loads(out.read_text())
    assert doc["violations"] == 0 and doc["detail"] == {"trials": 400}


def test_verify_subgraph_clean(tmp_path):
    gpath = gen_graph_file(tmp_path, n=30, p=0.3)
    out = tmp_path / "v.json"
    assert run_cli("verify", "--check", "subgraph", "--graph", str(gpath),
                   "--trials", "40", "--out", str(out)) == 0


def test_verify_degrees_clean(tmp_path):
    out = tmp_path / "v.json"
    assert run_cli("verify", "--check", "degrees", "--n", "200", "--p", "0.2",
                   "--trials", "80", "--seed", "3", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["detail"]["in_validity_range"] is True


def test_verify_exit_code_signals_violations(tmp_path, monkeypatch):
    # exit-status plumbing: force the checker to report one violation
    from graphmem import bounds as bounds_mod

    gpath = gen_graph_file(tmp_path, n=20, p=0.4)
    real = bounds_mod.degree_tail_experiment

    def rigged(n, p, trials, seed, z=1.959964):
        rep = real(n, p, trials, seed, z)
        return type(rep)(**{**rep.__dict__, "violations": 1})

    monkeypatch.setattr(cli.bounds_mod, "degree_tail_experiment", rigged)
    out = tmp_path / "v.json"
    code = run_cli("verify", "--check", "degrees", "--n", "50", "--p", "0.3",
                   "--trials", "10", "--out", str(out))
    assert code == 1


@pytest.mark.parametrize("check", ["energy", "subgraph", "tails", "mgf"])
def test_verify_graph_checks_need_graph(tmp_path, capsys, check):
    # --n/--p feed only the degrees check; the others read a graph file
    out = tmp_path / "v.json"
    assert run_cli("verify", "--check", check, "--n", "100", "--p", "0.1",
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: --check {check} needs --graph\n"
    assert not out.exists()


# every flag a verify check does not read: energy and subgraph read
# --graph and --trials, tails and mgf --graph and --samples, degrees --n,
# --p and --trials.  A value equal to the default is still rejected.
UNREAD_FLAGS = [
    ("degrees", "--graph", "nosuch.txt"),
    *[(check, flag, value) for check in ("energy", "subgraph", "tails", "mgf")
      for flag, value in (("--n", "100"), ("--p", "0.1"))],
    ("tails", "--trials", "200"),
    ("mgf", "--trials", "5"),
    ("energy", "--samples", "20000"),
    ("subgraph", "--samples", "100"),
    ("degrees", "--samples", "100"),
]


@pytest.mark.parametrize("check,flag,value", UNREAD_FLAGS)
def test_verify_rejects_a_flag_its_check_does_not_read(tmp_path, capsys, check,
                                                       flag, value):
    out = tmp_path / "v.json"
    argv = ["verify", "--check", check, flag, value, "--out", str(out)]
    if check != "degrees":
        argv += ["--graph", str(gen_graph_file(tmp_path, n=20, p=0.4))]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: --check {check} does not read {flag}\n"
    assert not out.exists()


def test_verify_echo_holds_every_default():
    # the echo lists the flags a check does not read, at their defaults
    def params(*argv):
        ns = cli.build_parser().parse_args(["verify", "--check", *argv])
        return cli.config_from_args(ns).params

    defaults = {"n": 500, "p": 0.1, "samples": 20000, "trials": 200}
    assert params("degrees") == {"check": "degrees", **defaults}
    assert params("tails", "--graph", "g.txt", "--samples", "10") == \
        {"check": "tails", "graph": "g.txt", **defaults, "samples": 10}


@pytest.mark.parametrize("check", ["energy", "subgraph"])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_trial_checks_reject_no_trials(tmp_path, capsys, check, trials):
    gpath = gen_graph_file(tmp_path, n=20, p=0.4)
    out = tmp_path / "v.json"
    assert run_cli("verify", "--check", check, "--graph", str(gpath),
                   "--trials", trials, "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: trials must be >= 1\n"
    assert not out.exists()


def test_verify_tails_on_edgeless_graph_is_silent(tmp_path):
    # the analytic tail is 0 there, not a division by zero
    gpath = tmp_path / "e.txt"
    gpath.write_text("5 0\n")
    out = tmp_path / "v.json"
    done = subprocess.run(
        [sys.executable, "-m", "graphmem", "verify", "--check", "tails",
         "--graph", str(gpath), "--samples", "1000", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0
    assert done.stderr == ""
    assert json.loads(out.read_text())["violations"] == 0


def test_theory_rejects_nonpositive_alpha(tmp_path, capsys):
    path = tmp_path / "k.txt"
    assert run_cli("gen", "--model", "complete", "--n", "16", "--out", str(path)) == 0
    assert run_cli("theory", "--graph", str(path), "--m", "3", "--alpha", "0",
                   "--out", str(tmp_path / "th.json")) == 2
    assert "alpha must be positive" in capsys.readouterr().err


def test_usage_errors_exit_2(tmp_path):
    gpath = gen_graph_file(tmp_path)
    assert run_cli("gen", "--model", "nosuch", "--n", "5", "--out", "x") == 2
    assert run_cli("spectrum", "--graph", str(gpath), "--method", "dense") == 2
    assert run_cli("capacity", "--graph", str(gpath), "--rho", "0.7",
                   "--out", str(tmp_path / "c.csv")) == 2
    assert run_cli("reproduce", "--suite", "powerlaw", "--beta", "2.5",
                   "--sizes", "64,96,128", "--out", str(tmp_path / "r.csv")) == 2
    assert run_cli("reproduce", "--suite", "complete", "--sizes", "64,96",
                   "--out", str(tmp_path / "r.csv")) == 2
    assert run_cli("reproduce", "--suite", "complete", "--sizes", "a,b,c",
                   "--out", str(tmp_path / "r.csv")) == 2


def test_solver_failure_exits_2_without_traceback(tmp_path):
    # 1e-18 is below float64 resolution, so the residual gate must fail
    gpath = gen_graph_file(tmp_path, n=100, p=0.3, seed=9)
    out = tmp_path / "s.json"
    done = subprocess.run(
        [sys.executable, "-m", "graphmem", "spectrum", "--graph", str(gpath),
         "--tol", "1e-18", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 2
    assert done.stderr.startswith("error: Lanczos residual above tolerance")
    assert "Traceback" not in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "0", "-1"])
def test_meaningless_tolerance_exits_2(tmp_path, capsys, tol):
    gpath = gen_graph_file(tmp_path)
    out = tmp_path / "s.json"
    assert run_cli("spectrum", "--graph", str(gpath), "--tol", tol,
                   "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: tol must be finite and positive")
    assert not out.exists()


def test_gnp_suite_density_floor_enforced(tmp_path):
    # p below c0 (log N)^2 / N at the smallest size must be refused
    assert run_cli("reproduce", "--suite", "gnp", "--p", "0.01",
                   "--sizes", "64,96,128",
                   "--out", str(tmp_path / "r.csv")) == 2


@pytest.mark.parametrize("p", ["0", "-0.1", "1.5", "nan"])
def test_gnp_suite_checks_p_before_any_search(tmp_path, monkeypatch, capsys, p):
    # with c0 = 0 the density floor admits p = 0, whose predictor p N / log N
    # is 0; the p range must be refused before the first search
    def no_search(*args, **kwargs):
        raise AssertionError("capacity_search ran before p was checked")

    monkeypatch.setattr(cli.capacity_mod, "capacity_search", no_search)
    out = tmp_path / "r.csv"
    assert run_cli("reproduce", "--suite", "gnp", "--p", p, "--c0", "0",
                   "--sizes", "64,96,128", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"error: gnp suite needs 0 < p <= 1, got p={float(p)}\n"
    assert not out.exists()


def test_powerlaw_weights_checked_before_any_search(tmp_path, monkeypatch, capsys):
    # the default m_bar = 128 is infeasible at N = 512 and N = 256; with
    # those sizes last the run must still fail before searching N = 1024
    def no_search(*args, **kwargs):
        raise AssertionError("capacity_search ran before every size was checked")

    monkeypatch.setattr(cli.capacity_mod, "capacity_search", no_search)
    assert run_cli("reproduce", "--suite", "powerlaw", "--sizes", "1024,512,256",
                   "--out", str(tmp_path / "r.csv")) == 2
    err = capsys.readouterr().err
    assert "max weight squared" in err and "N=512" in err
    assert not (tmp_path / "r.csv").exists()


def test_powerlaw_degree_hypothesis_checked_before_any_search(tmp_path, monkeypatch,
                                                              capsys):
    def no_search(*args, **kwargs):
        raise AssertionError("capacity_search ran before the hypothesis was checked")

    monkeypatch.setattr(cli.capacity_mod, "capacity_search", no_search)
    out = tmp_path / "r.csv"
    assert run_cli("reproduce", "--suite", "powerlaw", "--sizes", "300,400,500",
                   "--davg", "16", "--mbar", "40", "--c-pl", "100", "--trials", "5",
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: powerlaw suite needs d > c sqrt(m_bar)")
    assert "violated at N=300" in err
    assert not out.exists()


def test_reproduce_without_two_recovered_sizes_fits_nothing(tmp_path):
    # G(N, 0.02) at these sizes stores no pattern, so no row enters the fit
    out = tmp_path / "r.csv"
    assert run_cli("reproduce", "--suite", "gnp", "--sizes", "40,50,60",
                   "--p", "0.02", "--c0", "0", "--trials", "5", "--seed", "0",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[2:4] == ["# slope=nan", "# ratio_spread=nan"]
    header = lines[4].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[5:]]
    assert [r["n"] for r in rows] == ["40", "50", "60"]
    assert all(r["m_hat"] == "0" for r in rows)


@pytest.mark.parametrize("sizes, bad", [
    ("64,128,-5", "got -5"), ("2,64,128", "got 2"), ("64,64,64", "N=64 appears"),
    ("64,128,96,128", "N=128 appears")])
def test_reproduce_checks_ladder_sizes_before_any_search(tmp_path, monkeypatch,
                                                        capsys, sizes, bad):
    def no_search(*args, **kwargs):
        raise AssertionError("capacity_search ran before every size was checked")

    monkeypatch.setattr(cli.capacity_mod, "capacity_search", no_search)
    out = tmp_path / "r.csv"
    assert run_cli("reproduce", "--suite", "complete", "--sizes", sizes,
                   "--trials", "5", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ladder size") and bad in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_complete_ladder_pins_reference_m_hat(tmp_path):
    # the seed-0 values the benchmark's reference holds for this ladder
    out = tmp_path / "r.csv"
    assert run_cli("reproduce", "--suite", "complete", "--sizes", "272,288,304",
                   "--trials", "100", "--seed", "0", "--out", str(out)) == 0
    body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    head = body[0].split(",")
    m_hat = {int(r.split(",")[0]): int(r.split(",")[head.index("m_hat")])
             for r in body[1:]}
    assert m_hat == {272: 23, 288: 22, 304: 15}


def test_sparse_capacity_pins_reference_m_hat(tmp_path):
    # the seed-0 value the benchmark's reference holds for capacity on its
    # fixed G(5000, 0.008)
    gpath, out = tmp_path / "sparse.txt", tmp_path / "c.csv"
    assert run_cli("gen", "--model", "gnp", "--n", "5000", "--p", "0.008",
                   "--seed", "0", "--out", str(gpath)) == 0
    assert run_cli("capacity", "--graph", str(gpath), "--trials", "200",
                   "--seed", "0", "--out", str(out)) == 0
    assert "# m_hat=3\n" in out.read_text()


def test_io_errors_exit_3(tmp_path):
    assert run_cli("spectrum", "--graph", str(tmp_path / "missing.txt"),
                   "--out", str(tmp_path / "s.json")) == 3
    gpath = gen_graph_file(tmp_path)
    assert run_cli("spectrum", "--graph", str(gpath),
                   "--out", str(tmp_path / "nodir" / "s.json")) == 3


def test_seed_ignores_environment(tmp_path, monkeypatch):
    # --seed defaults to 0; no environment variable moves it
    gpath = gen_graph_file(tmp_path)
    out = tmp_path / "s.json"
    monkeypatch.setenv("GRAPHMEM_SEED", "77")
    assert run_cli("spectrum", "--graph", str(gpath), "--out", str(out)) == 0
    assert cli.parse_config_echo(out.read_text())["master_seed"] == 0
    assert run_cli("spectrum", "--graph", str(gpath), "--seed", "5",
                   "--out", str(out)) == 0
    assert cli.parse_config_echo(out.read_text())["master_seed"] == 5


def test_undecodable_graph_file_exits_2_naming_its_line(tmp_path, capsys):
    gpath = tmp_path / "bad.txt"
    gpath.write_bytes(b"3 1\n0 \xff1\n")
    out = tmp_path / "c.csv"
    assert run_cli("capacity", "--graph", str(gpath), "--out", str(out)) == 2
    # the byte is quoted as its escape, which the message's repr doubles
    assert capsys.readouterr().err == "error: line 2: non-integer vertex in '0 \\\\xff1'\n"
    assert not out.exists()


def test_reproduce_complete_suite(tmp_path):
    out = tmp_path / "rep.csv"
    assert run_cli("reproduce", "--suite", "complete", "--sizes", "48,64,96",
                   "--trials", "25", "--threshold", "0.9", "--seed", "5",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema=graphmem/reproduce/v1"
    assert lines[2].startswith("# slope=")
    assert lines[3].startswith("# ratio_spread=")
    header = lines[4].split(",")
    assert header[:3] == ["n", "lambda1", "kappa"]
    body = [ln.split(",") for ln in lines[5:]]
    assert [row[0] for row in body] == ["48", "64", "96"]
    for row in body:
        assert int(row[6]) >= 1      # m_hat column


def test_readme_powerlaw_ladder_runs_with_default_flags(tmp_path):
    # the --sizes default (256,512,1024) is infeasible for powerlaw's
    # default weights, so README gives the suite a ladder that runs; at
    # seed 0 no row of it is in the theorem's regime
    line, = [ln for ln in README.read_text().splitlines()
             if ln.startswith("graphmem reproduce --suite powerlaw") and "--out" in ln]
    argv = shlex.split(line)[1:]
    out = tmp_path / "powerlaw.csv"
    argv[argv.index("--out") + 1] = str(out)
    assert run_cli(*argv, "--trials", "20") == 0
    lines = out.read_text().splitlines()
    header = lines[4].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[5:]]
    assert [r["n"] for r in rows] == ["1024", "2048", "4096"]
    assert all(r["h1_holds"] == r["h2_holds"] == "false" for r in rows)


@pytest.mark.parametrize("argv, predictor", [
    (["--suite", "gnp", "--sizes", "64,96,128", "--p", "0.3"],
     lambda n: 0.3 * n / math.log(n)),
    (["--suite", "powerlaw", "--sizes", "300,400,500", "--davg", "16", "--mbar", "40"],
     lambda n: 16.0 ** 2 / (40.0 * math.log(n))),
], ids=["gnp", "powerlaw"])
def test_reproduce_sparse_suite_end_to_end(tmp_path, argv, predictor):
    # the whole ladder runs: every row carries the suite's predictor and
    # m_hat over it, and a rerun writes the same bytes
    texts = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert run_cli("reproduce", *argv, "--trials", "20", "--seed", "1",
                       "--out", str(out)) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    lines = texts[0].splitlines()
    assert lines[2].startswith("# slope=") and lines[3].startswith("# ratio_spread=")
    header = lines[4].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[5:]]
    assert [r["n"] for r in rows] == argv[3].split(",")
    for r in rows:
        m_hat, x = int(r["m_hat"]), predictor(int(r["n"]))
        assert m_hat >= 1
        assert float(r["predictor"]) == x
        assert float(r["ratio"]) == m_hat / x


def reproduce_params(*argv):
    """The reproduce parameters its parser fills in for argv, defaults
    included: the parser is their one source."""
    ns = cli.build_parser().parse_args(["reproduce", *argv])
    return cli.config_from_args(ns).params


def test_reproduce_complete_ladder_golden():
    # the seed -> (pattern, corruption) mapping of every retrieval trial
    # is pinned by these m_hat, which the ladder-complete benchmark also
    # checks against its reference
    params = reproduce_params("--suite", "complete", "--sizes", "272,288,304")
    out = cli.reproduce_corollaries(seed=0, **params)
    assert [r["m_hat"] for r in out["rows"]] == [23, 22, 15]


def test_reproduce_function_validates_suite():
    params = reproduce_params("--suite", "complete", "--sizes", "48,64,96")
    with pytest.raises(ValueError):
        cli.reproduce_corollaries(seed=0, **{**params, "suite": "nosuch"})
    with pytest.raises(ValueError):
        cli.reproduce_corollaries(seed=0, **{**params, "sizes": [48, 64]})


def test_stdout_output_when_no_path(tmp_path, capsys):
    gpath = gen_graph_file(tmp_path)
    capsys.readouterr()
    assert run_cli("spectrum", "--graph", str(gpath)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "graphmem/spectrum/v1"


def test_module_entry_point(tmp_path):
    # python -m graphmem runs the command line without the runpy warning
    # that python -m graphmem.cli prints
    out = tmp_path / "k5.txt"
    done = subprocess.run(
        [sys.executable, "-m", "graphmem", "gen", "--model", "complete", "--n", "5",
         "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0
    assert done.stderr == ""
    assert graphs.load_edge_list(out) == graphs.gen_complete(5)
