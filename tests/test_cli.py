import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphmem import cli, graphs

SRC = str(Path(graphs.__file__).resolve().parents[1])


def run_cli(*args):
    return cli.main(list(args))


def gen_graph_file(tmp_path, name="g.txt", n=40, p=0.25, seed=4):
    path = tmp_path / name
    code = run_cli("gen", "--model", "gnp", "--n", str(n), "--p", str(p),
                   "--seed", str(seed), "--out", str(path))
    assert code == 0
    return path


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


def test_verify_energy_clean(tmp_path):
    gpath = gen_graph_file(tmp_path, n=20, p=0.4)
    out = tmp_path / "v.json"
    assert run_cli("verify", "--check", "energy", "--graph", str(gpath),
                   "--trials", "25", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["violations"] == 0


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


def test_gnp_suite_density_floor_enforced(tmp_path):
    # p below c0 (log N)^2 / N at the smallest size must be refused
    assert run_cli("reproduce", "--suite", "gnp", "--p", "0.01",
                   "--sizes", "64,96,128",
                   "--out", str(tmp_path / "r.csv")) == 2


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


def test_io_errors_exit_3(tmp_path):
    assert run_cli("spectrum", "--graph", str(tmp_path / "missing.txt"),
                   "--out", str(tmp_path / "s.json")) == 3
    gpath = gen_graph_file(tmp_path)
    assert run_cli("spectrum", "--graph", str(gpath),
                   "--out", str(tmp_path / "nodir" / "s.json")) == 3


def test_seed_env_fallback(tmp_path, monkeypatch):
    gpath = gen_graph_file(tmp_path)
    out = tmp_path / "s.json"
    monkeypatch.setenv("GRAPHMEM_SEED", "77")
    assert run_cli("spectrum", "--graph", str(gpath), "--out", str(out)) == 0
    assert cli.parse_config_echo(out.read_text())["master_seed"] == 77
    # explicit flag wins over the environment
    assert run_cli("spectrum", "--graph", str(gpath), "--seed", "5",
                   "--out", str(out)) == 0
    assert cli.parse_config_echo(out.read_text())["master_seed"] == 5


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


def test_reproduce_function_validates_suite():
    with pytest.raises(ValueError):
        cli.reproduce_corollaries("nosuch", [48, 64, 96], 0)
    with pytest.raises(ValueError):
        cli.reproduce_corollaries("complete", [48, 64], 0)


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
