import math
from dataclasses import dataclass

import numpy as np
import pytest

from graphmem import bounds, capacity, graphs, hopfield, spectral


def summary(lambda1, kappa):
    return spectral.SpectralSummary(lambda1=lambda1, kappa=kappa, method="dense",
                                    residual=0.0)


def stats(m):
    return graphs.DegreeStats(delta=m, m=m, d_avg=float(m), d_tilde=float(m),
                              edge_count=m)


def test_theory_params_validation():
    capacity.TheoryParams(c1=2.0)
    with pytest.raises(ValueError):
        capacity.TheoryParams(c1=-0.1)
    with pytest.raises(ValueError):
        capacity.TheoryParams(c2=0.0)


def test_theoretical_capacity_formula():
    s = summary(100.0, 10.0)
    d = stats(20)
    want = 0.05 * 100.0 ** 2 / (20 * math.log(1000)) - 10.0 * 100.0 / 20.0
    assert capacity.theoretical_capacity(s, d, 1000, 0.05) == pytest.approx(want)
    assert want < 0.0    # kappa-dominated regime is reported, not clamped


def test_theoretical_capacity_complete_graph_form():
    # lambda1 = m = n - 1 and kappa = 1 collapse the formula to
    # alpha (n-1) / log n - 1
    n = 1024
    s = summary(float(n - 1), 1.0)
    d = stats(n - 1)
    want = 0.05 * (n - 1) / math.log(n) - 1.0
    assert capacity.theoretical_capacity(s, d, n, 0.05) == pytest.approx(want)
    assert want > 0.0


def test_theoretical_capacity_validates():
    s = summary(10.0, 1.0)
    with pytest.raises(ValueError):
        capacity.theoretical_capacity(s, stats(5), 2, 0.05)
    with pytest.raises(ValueError):
        capacity.theoretical_capacity(s, stats(5), 100, 0.0)
    with pytest.raises(ValueError):
        capacity.theoretical_capacity(s, stats(0), 100, 0.05)


def test_rho_zero_formula():
    s = summary(100.0, 5.0)
    d = stats(20)
    want = math.exp(-100.0 / (5.0 + 4 * 20.0 / 100.0))
    assert capacity.rho_zero(s, d, 4) == pytest.approx(want)
    doubled = capacity.rho_zero(s, d, 4, capacity.TheoryParams(c2=2.0))
    assert doubled == pytest.approx(want ** 2)
    with pytest.raises(ValueError):
        capacity.rho_zero(s, d, 0)


def test_f_rho_branches_and_argmax():
    s = summary(50.0, 5.0)
    d = stats(10)
    rho, M = 0.1, 3
    res = capacity.f_rho(rho, s, d, M)
    h = bounds.entropy(rho)
    want = {
        "kappa_sq": rho * (5.0 / 50.0) ** 2,
        "rho_entropy": rho * h,
        "kappa_entropy": (5.0 / 50.0) * h,
        "pattern_term": rho * (M * 5.0 / 50.0 ** 2 * math.log(1 / rho)) ** (2 / 3),
        "rho_zero": capacity.rho_zero(s, d, M),
    }
    for name, val in want.items():
        assert res.branches[name] == pytest.approx(val)
    best = max(want, key=want.get)
    assert res.branch == best
    assert res.value == pytest.approx(want[best])
    with pytest.raises(ValueError):
        capacity.f_rho(0.0, s, d, M)
    with pytest.raises(ValueError):
        capacity.f_rho(0.5, s, d, M)


def test_f_rho_contracts_in_good_regime():
    # strong gap: one application of f already shrinks rho
    s = summary(1000.0, 10.0)
    d = stats(1000)
    res = capacity.f_rho(0.2, s, d, 5)
    assert res.value < 0.2


def oracle_counts(lambda1, kappa, M, n, rho_start, c=1.0):
    # direct restatement of the four contraction recursions
    ratio = kappa / lambda1
    target = 1.0 / n
    steps = {
        "w": lambda v: c * v * ratio ** 2,
        "x": lambda v: c * v * bounds.entropy(v),
        "y": lambda v: c * ratio * bounds.entropy(v),
        "z": lambda v: c * v * (M * kappa / lambda1 ** 2 * math.log(1 / v)) ** (2 / 3),
    }
    out = {}
    for name, f in steps.items():
        v, k = rho_start, 0
        while v >= target:
            v = f(v)
            k += 1
        out[name] = k
    return out


def test_predict_steps_matches_recursion_oracle():
    s = summary(1000.0, 10.0)
    pred = capacity.predict_steps(s, 10, 10 ** 6, 1.0 / math.e)
    want = oracle_counts(1000.0, 10.0, 10, 10 ** 6, 1.0 / math.e)
    assert not pred.diverged
    assert pred.counts == want
    assert pred.n0 == max(want.values())
    # geometric sequence count has a closed form
    a = (10.0 / 1000.0) ** 2
    want_w = math.ceil(math.log((1.0 / math.e) * 10 ** 6) / math.log(1.0 / a))
    assert pred.counts["w"] == want_w == 2


def test_predict_steps_monotone_in_gap():
    # a larger lambda1/kappa ratio never needs more iterations
    prev = None
    for lam in (200.0, 400.0, 800.0, 1600.0):
        pred = capacity.predict_steps(summary(lam, 10.0), 5, 10 ** 4, 1.0 / math.e)
        assert not pred.diverged
        if prev is not None:
            assert pred.n0 <= prev
        prev = pred.n0


def test_predict_steps_flags_divergence():
    # c_steps large enough that the x-recursion stops contracting
    s = summary(1000.0, 10.0)
    pred = capacity.predict_steps(s, 5, 10 ** 4, 1.0 / math.e,
                                  params=capacity.TheoryParams(c_steps=3.0))
    assert pred.diverged
    assert pred.n0 is None


def test_predict_steps_validates():
    s = summary(100.0, 20.0)
    with pytest.raises(ValueError):
        capacity.predict_steps(s, 5, 10 ** 4, 0.5)       # rho_start > 1/e
    with pytest.raises(ValueError):
        capacity.predict_steps(summary(100.0, 90.0), 5, 10 ** 4, 1.0 / math.e)
    good = summary(1000.0, 10.0)
    assert not capacity.predict_steps(good, 5, 10 ** 4, 1.0 / math.e).diverged


def test_default_k_max_complete_1024():
    s = summary(1023.0, 1.0)
    assert capacity.default_k_max(s, 1024) == 20
    # edgeless: only the log log term remains
    s0 = spectral.SpectralSummary(0.0, 0.0, "dense", 0.0)
    assert capacity.default_k_max(s0, 100) >= 1


@dataclass(frozen=True)
class TrialResult:
    recovered: bool
    steps: int
    terminal: str
    target_mu: int
    rho: float
    final_distance: int    # Hamming miss, recorded for diagnostics only


def basin_trial(g, p, mu, rho, k_max, seed):
    """One corrupted-retrieval trial, run alone: the per-trial oracle for
    recovery_rate's block run.  Corrupt pattern mu by exactly floor(rho*n)
    uniform flips, run the parallel dynamics, and report exact recovery."""
    if not 0 <= mu < p.m_patterns:
        raise ValueError("mu out of range")
    if not 0.0 <= rho < 0.5:
        raise ValueError("rho must lie in [0, 1/2)")
    target = p.pattern(mu)
    start = hopfield.corrupt(target, rho, seed)
    out = hopfield.run_dynamics(g, p, start, mode="parallel", k_max=k_max)
    recovered = out.terminal == "fixed_point" and np.array_equal(out.final, target)
    return TrialResult(recovered=recovered, steps=out.steps, terminal=out.terminal,
                       target_mu=mu, rho=rho,
                       final_distance=hopfield.hamming(out.final, target))


def test_basin_trial_recovers_single_pattern():
    g = graphs.gen_complete(30)
    p = hopfield.sample_patterns(1, 30, 2)
    res = basin_trial(g, p, 0, 0.2, 10, 5)
    assert res.recovered
    assert res.final_distance == 0
    assert res.terminal == "fixed_point"
    assert res.steps <= 4
    with pytest.raises(ValueError):
        basin_trial(g, p, 1, 0.2, 10, 5)
    with pytest.raises(ValueError):
        basin_trial(g, p, 0, 0.5, 10, 5)


def test_recovery_rate_deterministic_and_bounded():
    g = graphs.gen_complete(40)
    p = hopfield.sample_patterns(3, 40, 8)
    a = capacity.recovery_rate(g, p, 0.1, 10, trials=60, seed=4)
    b = capacity.recovery_rate(g, p, 0.1, 10, trials=60, seed=4)
    assert a == b
    assert a.rate == a.successes / a.trials
    assert 0.0 <= a.ci_lo <= a.rate <= a.ci_hi <= 1.0
    assert a.rate == 1.0
    assert a.mean_steps <= 4.0


def test_recovery_rate_matches_per_trial_loop():
    # the block run must reproduce, trial by trial, basin_trial on the
    # pattern and corruption drawn from SeedSequence((seed, t)); an
    # overloaded memory and a tight cap mix in 2-cycles and step caps
    cases = ((graphs.gen_complete(24), 2, 0.1, 8),
             (graphs.gen_complete(40), 12, 0.2, 3),
             (graphs.gen_complete(30), 25, 0.3, 2),
             (graphs.gen_erdos_renyi(40, 0.3, 2), 3, 0.2, 4))
    for g, m, rho, k_max in cases:
        n = g.n
        p = hopfield.sample_patterns(m, n, 3)
        est = capacity.recovery_rate(g, p, rho, k_max, trials=30, seed=11)
        runs = []
        for t in range(30):
            rng = np.random.default_rng(capacity._trial_seed(11, t))
            mu = int(rng.integers(p.m_patterns))
            runs.append(basin_trial(g, p, mu, rho, k_max, rng))
        wins = [r for r in runs if r.recovered]
        assert est.successes == len(wins)
        if wins:
            assert est.mean_steps == sum(r.steps for r in wins) / len(wins)
        else:
            assert math.isnan(est.mean_steps)


def test_capacity_search_builds_one_engine_per_m(monkeypatch):
    built = []
    init = hopfield.FieldEngine.__init__

    def counting_init(self, g, p):
        built.append(p.m_patterns)
        init(self, g, p)

    monkeypatch.setattr(hopfield.FieldEngine, "__init__", counting_init)
    # threshold 0.9 with 30 trials straddles often enough to force 4x
    # re-measures, which must reuse the engine of their M
    est = capacity.capacity_search(graphs.gen_complete(48), rho=0.05, k_max=8,
                                   trials=30, threshold=0.9, seed=13)
    assert any(c.trials == 120 for c in est.curve)
    assert sorted(built) == sorted(c.m for c in est.curve)


def test_recovery_rate_zero_success_mean_steps_nan():
    # rho large on an overloaded memory: recovery never happens
    g = graphs.gen_complete(12)
    p = hopfield.sample_patterns(40, 12, 5)
    est = capacity.recovery_rate(g, p, 0.4, 6, trials=10, seed=0)
    if est.successes == 0:
        assert math.isnan(est.mean_steps)
    assert est.rate <= 0.5


def test_capacity_search_on_complete_graph():
    g = graphs.gen_complete(64)
    est = capacity.capacity_search(g, rho=0.05, k_max=None, trials=60,
                                   threshold=0.9, seed=7)
    assert est.m_hat >= 1
    assert est.k_max == capacity.default_k_max(spectral.spectrum_summary(g), 64)
    ms = [c.m for c in est.curve]
    assert len(ms) == len(set(ms))
    got = max((c.m for c in est.curve if c.spot_ok and c.rate >= 0.9), default=0)
    assert est.m_hat == got
    # the reported capacity itself must have passed
    winner = [c for c in est.curve if c.m == est.m_hat]
    assert winner and winner[0].rate >= 0.9 and winner[0].spot_ok


def test_capacity_search_deterministic():
    g = graphs.gen_complete(32)
    a = capacity.capacity_search(g, rho=0.05, k_max=8, trials=30,
                                 threshold=0.9, seed=13)
    b = capacity.capacity_search(g, rho=0.05, k_max=8, trials=30,
                                 threshold=0.9, seed=13)
    assert a.m_hat == b.m_hat
    assert a.curve == b.curve


def test_capacity_zero_on_split_cliques_with_large_corruption():
    # corruption can cover the small clique, whose flipped copy is locally
    # stable, so no pattern count passes the structured spot check
    g = graphs.gen_two_cliques(12, 120, bridged=False)
    est = capacity.capacity_search(g, rho=0.11, k_max=40, trials=30,
                                   threshold=0.9, seed=5)
    assert est.m_hat == 0
    assert est.curve[0].m == 1
    assert not est.curve[0].spot_ok


def test_capacity_search_validates():
    g = graphs.gen_complete(16)
    with pytest.raises(ValueError):
        capacity.capacity_search(g, rho=0.6, k_max=5, trials=10,
                                 threshold=0.9, seed=0)
    with pytest.raises(ValueError):
        capacity.capacity_search(g, rho=0.1, k_max=5, trials=10,
                                 threshold=1.5, seed=0)
    with pytest.raises(ValueError):
        capacity.capacity_search(g, rho=0.1, k_max=5, trials=0,
                                 threshold=0.9, seed=0)
