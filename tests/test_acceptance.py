"""End-to-end acceptance checks.

One test per criterion; `pytest -v` prints one pass/fail line for each.
Each also emits a short summary line (visible with -s) so a transcript of
the run reads as a checklist.
"""
import math

import numpy as np
import pytest

import graphmem as gm
from graphmem import cli, spectral


def report(num, msg):
    print(f"criterion {num:02d} PASS: {msg}")


def test_criterion_01_complete_graph_spectrum():
    # K_100: lambda1 = 99, kappa = 1, 1e-6, from the closed form that
    # spectrum_summary reports and from Lanczos on the same graph
    g = gm.gen_complete(100)
    s = gm.spectrum_summary(g)
    assert s.method == "closed_form"
    lam1, kappa1, _ = spectral._lambda1_kappa_iterative(g, 1e-8)
    for route, l1, kappa in (("closed_form", s.lambda1, s.kappa),
                             ("iterative", lam1, kappa1)):
        assert abs(l1 - 99.0) <= 1e-6, (route, l1)
        assert abs(kappa - 1.0) <= 1e-6, (route, kappa)
    report(1, "K_100 spectrum exact to 1e-6 in closed form and by Lanczos")


def test_criterion_02_gnp_spectrum_and_degree_windows():
    # G(2000, 0.05), 5 seeds: lambda1 within 10% of Np, kappa <= 3 sqrt(Np),
    # min and max degree inside the (1 +- eps) Np window
    n, p = 2000, 0.05
    np_mean = n * p
    eps = 2.0 * math.sqrt(math.log(n) / (p * n))
    for seed in range(5):
        g = gm.gen_erdos_renyi(n, p, seed)
        s = gm.spectrum_summary(g)
        d = gm.degree_stats(g)
        assert abs(s.lambda1 / np_mean - 1.0) <= 0.10, (seed, s.lambda1)
        assert s.kappa <= 3.0 * math.sqrt(np_mean), (seed, s.kappa)
        lo, hi = (1.0 - eps) * np_mean, (1.0 + eps) * np_mean
        assert lo <= d.delta <= hi, (seed, d.delta)
        assert lo <= d.m <= hi, (seed, d.m)
    report(2, "G(2000,0.05) spectrum and degree windows hold on 5 seeds")


def test_criterion_03_two_clique_blocking_state():
    # all-ones pattern, corruption exactly on the small clique: the
    # corrupted state is a fixed point, reproduced exactly
    for bridged in (False, True):
        g = gm.gen_two_cliques(50, 500, bridged=bridged)
        p = gm.PatternSet(np.ones((1, 500), dtype=np.int8))
        start = np.ones(500, dtype=np.int8)
        start[:50] = -1
        out = gm.run_dynamics(g, p, start, mode="parallel", k_max=50)
        assert out.terminal == "fixed_point"
        assert out.steps == 1
        assert np.array_equal(out.final, start)
    report(3, "two-clique corrupted state is an exact fixed point")


def test_criterion_04_energy_monotonicity_bulk():
    # 10^4 random (graph, patterns, start) triples over every generator;
    # exact comparisons, zero tolerance
    rng = np.random.default_rng(404)
    checked = 0
    while checked < 10_000:
        kind = checked % 4
        n = int(rng.integers(4, 28))
        if kind == 0:
            g = gm.gen_complete(n)
        elif kind == 1:
            g = gm.gen_erdos_renyi(n, float(rng.uniform(0.05, 0.95)),
                                   int(rng.integers(2 ** 31)))
        elif kind == 2:
            base = np.sort(rng.uniform(0.5, math.sqrt(n) * 0.9, n))[::-1]
            g = gm.gen_chung_lu(gm.WeightSequence(base), int(rng.integers(2 ** 31)))
        else:
            small = int(rng.integers(2, n - 1))
            g = gm.gen_two_cliques(small, n, bridged=bool(rng.integers(2)))
        p = gm.sample_patterns(int(rng.integers(1, 6)), n,
                               int(rng.integers(2 ** 31)))
        s = (rng.integers(0, 2, n, dtype=np.int8) * 2 - 1).astype(np.int8)
        eng = gm.FieldEngine(g, p)
        assert gm.energy_S(eng, gm.sequential_sweep(eng, s)) <= gm.energy_S(eng, s)
        assert gm.energy_T(eng, gm.parallel_step(eng, s)) <= gm.energy_T(eng, s)
        checked += 1
    report(4, "10^4 triples: zero energy-monotonicity violations")


def test_criterion_05_subgraph_bounds_bulk():
    # 10^3 random (I, J) pairs per graph, both deterministic bounds
    w = gm.powerlaw_weights(500, 3.5, 20.0, 60.0)
    hosts = [
        gm.gen_complete(200),
        gm.gen_erdos_renyi(500, 0.1, 0),
        gm.gen_chung_lu(w, 0),
    ]
    rng = np.random.default_rng(505)
    for g in hosts:
        s = gm.spectrum_summary(g)
        for _ in range(1000):
            I = rng.choice(g.n, size=int(rng.integers(1, g.n + 1)), replace=False)
            J = rng.choice(g.n, size=int(rng.integers(1, g.n + 1)), replace=False)
            rep = gm.subgraph_bounds(g, s, I, J)
            assert rep.edge_ok and rep.eigen_ok, (g.n, I.size, J.size)
    report(5, "3x10^3 subgraph bound checks: zero violations")


def test_criterion_06_tail_and_mgf_bounds():
    # exhaustive 50-instance suite at n <= 12, then Monte Carlo consistency
    # on G(200, 0.1) with 10^5 samples at 3 sigma
    rng = np.random.default_rng(606)
    built = 0
    while built < 50:
        n = int(rng.integers(4, 13))
        g = gm.gen_erdos_renyi(n, float(rng.uniform(0.2, 0.9)),
                               int(rng.integers(2 ** 31)))
        if g.edge_count == 0:
            continue
        built += 1
        s = gm.spectrum_summary(g)
        root_l = math.sqrt(g.edge_count)
        y_grid = np.linspace(0.5 * root_l, 4.0 * root_l, 20)
        tail = gm.quadratic_form_tail(g, s, y_grid, 1000, 0)
        assert tail.method == "exhaustive"
        assert tail.violations == 0, (n, g.edge_count)
        t_grid = np.linspace(0.0, 0.9 / s.lambda1, 20)
        mgf = gm.mgf_check(g, s, t_grid, 1000, 0)
        assert mgf.method == "exhaustive"
        assert mgf.violations == 0, (n, g.edge_count)
    g = gm.gen_erdos_renyi(200, 0.1, 1)
    s = gm.spectrum_summary(g)
    root_l = math.sqrt(g.edge_count)
    tail = gm.quadratic_form_tail(g, s, np.linspace(0.5 * root_l, 4.0 * root_l, 20),
                                  100_000, 2, z=3.0)
    assert tail.method == "monte_carlo"
    assert tail.violations == 0
    mgf = gm.mgf_check(g, s, np.linspace(0.0, 0.9 / s.lambda1, 20),
                       100_000, 3, z=3.0)
    assert mgf.method == "monte_carlo"
    assert mgf.violations == 0
    report(6, "tail and MGF bounds: exhaustive suite and 3-sigma MC clean")


def test_criterion_07_capacity_scaling_ladder():
    # m_hat log N / N stable within a factor 2 over N in {256, 512, 1024},
    # recovery in O(log log N)-like step counts
    ratios = []
    for n in (256, 512, 1024):
        g = gm.gen_complete(n)
        est = gm.capacity_search(g, rho=0.05, k_max=None, trials=100,
                                 threshold=0.95, seed=707)
        assert est.m_hat >= 1, n
        ratios.append(est.m_hat * math.log(n) / n)
        at_cap = [c for c in est.curve if c.m == est.m_hat]
        assert at_cap and at_cap[0].mean_steps <= 10.0, (n, at_cap)
    assert max(ratios) / min(ratios) <= 2.0, ratios
    report(7, f"capacity ratios {[round(r, 3) for r in ratios]} within 2x, "
              "steps <= 10")


def test_criterion_08_corruption_repair_monotonicity():
    # K_512, M = 10: more corruption never helps, and light corruption is
    # repaired essentially always
    g = gm.gen_complete(512)
    p = gm.sample_patterns(10, 512, 808)
    light = gm.recovery_rate(g, p, rho=0.02, k_max=20, trials=400, seed=11)
    heavy = gm.recovery_rate(g, p, rho=0.10, k_max=20, trials=400, seed=12)
    assert light.rate >= 0.99, light
    assert light.rate >= heavy.rate or light.ci_hi >= heavy.ci_lo, (light, heavy)
    report(8, f"repair rate {light.rate:.3f} at rho=0.02 vs "
              f"{heavy.rate:.3f} at rho=0.10")


def test_criterion_09_step_predictor_loglog_growth():
    # closed-form complete-graph spectra: growth from N=10^3 to N=10^6 is
    # at most 2x, and no sequence ever fails to decrease
    def k_summary(n):
        return gm.SpectralSummary(lambda1=float(n - 1), kappa=1.0,
                                  method="closed_form", residual=0.0)

    small = gm.predict_steps(k_summary(10 ** 3), 10, 10 ** 3, 1.0 / math.e)
    big = gm.predict_steps(k_summary(10 ** 6), 10, 10 ** 6, 1.0 / math.e)
    assert not small.diverged and not big.diverged
    assert small.n0 >= 1 and big.n0 >= 1
    assert big.n0 <= 2 * small.n0, (small.n0, big.n0)
    report(9, f"predicted steps {small.n0} -> {big.n0} across three decades")


def test_criterion_10_byte_identical_artifacts(tmp_path):
    # identical config and seed give byte-identical CSV bodies
    gpath = tmp_path / "g.txt"
    assert cli.main(["gen", "--model", "gnp", "--n", "48", "--p", "0.4",
                     "--seed", "6", "--out", str(gpath)]) == 0
    cap = ["capacity", "--graph", str(gpath), "--rho", "0.05", "--trials",
           "40", "--threshold", "0.9", "--kmax", "12", "--seed", "21"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(cap + ["--out", str(a)]) == 0
    assert cli.main(cap + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rep = ["reproduce", "--suite", "complete", "--sizes", "32,48,64",
           "--trials", "25", "--threshold", "0.9", "--seed", "3"]
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert cli.main(rep + ["--out", str(c)]) == 0
    assert cli.main(rep + ["--out", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()
    report(10, "capacity and ladder CSV bodies byte-identical across reruns")
