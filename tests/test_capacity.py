import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_f_rho_and_predict_steps_keep_their_own_constants():
    # f_rho scales its terms by c1 and predict_steps by c_steps; at c = 0.8
    # the x and y counts (6, 5) differ from those at c = 0.5 (5, 4)
    s, d, M, n = summary(1000.0, 10.0), stats(1000), 10, 10 ** 6
    params = capacity.TheoryParams(c1=0.5, c_steps=0.8)
    rho = 0.1
    res = capacity.f_rho(rho, s, d, M, params)
    h = bounds.entropy(rho)
    want = {
        "kappa_sq": 0.5 * rho * (10.0 / 1000.0) ** 2,
        "rho_entropy": 0.5 * rho * h,
        "kappa_entropy": 0.5 * (10.0 / 1000.0) * h,
        "pattern_term": 0.5 * rho * (M * 10.0 / 1000.0 ** 2 * math.log(1 / rho)) ** (2 / 3),
        "rho_zero": capacity.rho_zero(s, d, M, params),
    }
    assert list(res.branches) == list(want)
    for name, val in want.items():
        assert res.branches[name] == pytest.approx(val)
    assert res.branch == max(want, key=want.get)
    pred = capacity.predict_steps(s, M, n, 1.0 / math.e, params)
    want_counts = oracle_counts(1000.0, 10.0, M, n, 1.0 / math.e, c=0.8)
    assert want_counts != oracle_counts(1000.0, 10.0, M, n, 1.0 / math.e, c=0.5)
    assert not pred.diverged
    assert pred.counts == want_counts
    assert pred.n0 == max(want_counts.values())


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


def block_draws(seed, trials, m, stable, n, k):
    """The draws of recovery_rate's block, replayed by its stated rule with
    one Python set per trial: default_rng(int(seed)) draws every trial's
    target, integers(M, size=trials), and then the flips of the trials
    whose target is stable (a fixed point of T), in trial order.  Those b
    trials start from the rows of integers(n, size=(b, k)); while any holds
    fewer than k distinct values, each round draws integers(n, size=b) and
    a trial that is still short takes its own entry.  Returns the targets
    and, per stable trial, its set of flipped vertices."""
    rng = np.random.default_rng(int(seed))
    drawn = rng.integers(m, size=trials).tolist()
    b = sum(bool(stable[mu]) for mu in drawn)
    # a row of k draws holds at most k distinct values: all of them count
    held = [set(row) for row in rng.integers(n, size=(b, k)).tolist()]
    while any(len(h) < k for h in held):
        for h, v in zip(held, rng.integers(n, size=b).tolist()):
            if len(h) < k:
                h.add(v)
    return drawn, held


def flipped(target, flips):
    start = np.array(target, dtype=np.int8)
    for i in flips:
        start[i] = -start[i]
    return start


def retrieval_trial(g, p, mu, rho, start, k_max):
    """Run the parallel dynamics from start, pattern mu corrupted at rate
    rho, alone and report exact recovery: the per-trial oracle for
    recovery_rate's block run."""
    target = p.pattern(mu)
    out = hopfield.run_dynamics(g, p, start, mode="parallel", k_max=k_max)
    recovered = out.terminal == "fixed_point" and np.array_equal(out.final, target)
    return TrialResult(recovered=recovered, steps=out.steps, terminal=out.terminal,
                       target_mu=mu, rho=rho,
                       final_distance=hopfield.hamming(out.final, target))


def basin_trial(g, p, mu, rho, k_max, seed):
    """One corrupted-retrieval trial, run alone: corrupt pattern mu by
    exactly floor(rho*n) uniform flips, run the parallel dynamics, and
    report exact recovery."""
    if not 0 <= mu < p.m_patterns:
        raise ValueError("mu out of range")
    if not 0.0 <= rho < 0.5:
        raise ValueError("rho must lie in [0, 1/2)")
    start = hopfield.corrupt(p.pattern(mu), rho, seed)
    return retrieval_trial(g, p, mu, rho, start, k_max)


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


def test_recovery_rate_rejects_an_engine_of_another_pair():
    # an engine of two patterns would be indexed by five patterns' draws
    g = graphs.gen_erdos_renyi(30, 0.3, 1)
    p2, p5 = hopfield.sample_patterns(2, 30, 0), hopfield.sample_patterns(5, 30, 0)
    for engine in (hopfield.FieldEngine(g, p2),
                   hopfield.FieldEngine(graphs.gen_erdos_renyi(30, 0.3, 2), p5)):
        with pytest.raises(ValueError, match="another graph or pattern set"):
            capacity.recovery_rate(g, p5, 0.1, 20, 50, 0, engine=engine)


def dense_fixed_points(g, p, rows=256):
    """Which patterns are fixed points of T, from the dense int64 fields
    (A o Xi^T Xi) Xi^T, taken a block of rows at a time."""
    a = graphs.adjacency_matrix(g)
    xi = p.bits.astype(np.int64)
    h = np.empty((g.n, p.m_patterns), dtype=np.int64)
    for lo in range(0, g.n, rows):
        w = a[lo:lo + rows].toarray().astype(np.int64) * (xi[:, lo:lo + rows].T @ xi)
        h[lo:lo + rows] = w @ xi.T
    return (np.where(h >= 0, 1, -1) == xi.T).all(axis=0)


def test_recovery_rate_matches_per_trial_loop():
    # the block run must reproduce, trial by trial, retrieval_trial on the
    # patterns and the flips that block_draws replays from the same seed;
    # an overloaded memory and a tight cap mix in 2-cycles and step caps.
    # Seeds of 2 and 3 words, rho = 0 (no flips) and k >= n/4 ride along.
    # The CSR graphs G(40, 0.3) and G(40, 0.5) store some patterns that
    # are fixed points of T and some that are not, so their block runs
    # only part of the trials; the others draw no flips and fail whatever
    # their corruption.
    cases = ((graphs.gen_complete(24), 2, 0.1, 8, 11),
             (graphs.gen_complete(40), 12, 0.2, 3, 11),
             (graphs.gen_complete(30), 25, 0.3, 2, 11),
             (graphs.gen_erdos_renyi(40, 0.3, 2), 3, 0.2, 4, 11),
             (graphs.gen_erdos_renyi(40, 0.5, 3), 6, 0.1, 6, 5),
             (graphs.gen_complete(32), 4, 0.25, 5, 2**40 + 3),
             (graphs.gen_complete(36), 9, 0.0, 6, 2**64 + 9),
             (graphs.gen_erdos_renyi(48, 0.4, 5), 2, 0.0, 6, 2**32))
    mixed = 0
    for g, m, rho, k_max, seed in cases:
        n = g.n
        p = hopfield.sample_patterns(m, n, 3)
        est = capacity.recovery_rate(g, p, rho, k_max, trials=30, seed=seed)
        fixed = dense_fixed_points(g, p)
        drawn, held = block_draws(seed, 30, m, fixed, n, hopfield._flip_count(rho, n))
        flips = iter(held)
        runs = []
        for t, mu in enumerate(drawn):
            if fixed[mu]:
                start = flipped(p.pattern(mu), next(flips))
                runs.append(retrieval_trial(g, p, mu, rho, start, k_max))
            else:
                runs.append(basin_trial(g, p, mu, rho, k_max, t))
        assert next(flips, None) is None
        assert not any(r.recovered for r, mu in zip(runs, drawn) if not fixed[mu])
        wins = [r for r in runs if r.recovered]
        assert est.successes == len(wins)
        if wins:
            assert est.mean_steps == sum(r.steps for r in wins) / len(wins)
        else:
            assert math.isnan(est.mean_steps)
        stable = fixed[drawn]
        if not g.is_complete and 0 < stable.sum() < stable.size:
            mixed += 1
    assert mixed == 2


def spy_on_run_block(monkeypatch):
    """Record the (starts, mus) of every block recovery_rate runs."""
    seen = []
    run_block = capacity.run_block

    def spy(engine, starts, k_max, mus):
        seen.append((np.array(starts), np.array(mus)))
        return run_block(engine, starts, k_max, mus)

    monkeypatch.setattr(capacity, "run_block", spy)
    return seen


def test_recovery_rate_starts_match_per_trial_draws(monkeypatch):
    # the block's columns are exactly the trials whose target is a fixed
    # point of T, in trial order, each flipped at the set block_draws
    # replays for it.  The other trials, those whose target fails the
    # dense fixed-point test, draw nothing past their mu and never run.
    seen = spy_on_run_block(monkeypatch)
    # n = 12000 makes the block's flip bitmap far wider than it is tall
    k40, big = graphs.gen_complete(40), graphs.gen_erdos_renyi(12000, 6e-3, 1)
    skipped = ran = 0
    for g, m, rho, seed, trials in ((k40, 6, 0.1, 7, 25), (k40, 6, 0.45, 2**96 + 1, 25),
                                    (k40, 6, 0.0, 0, 25), (big, 5, 0.02, 3, 6)):
        p = hopfield.sample_patterns(m, g.n, 1)
        stable = dense_fixed_points(g, p)
        assert 0 < stable.sum() < m
        seen.clear()
        capacity.recovery_rate(g, p, rho, 1, trials=trials, seed=seed)
        drawn, held = block_draws(seed, trials, m, stable, g.n,
                                  hopfield._flip_count(rho, g.n))
        want_mus = [mu for mu in drawn if stable[mu]]
        want = [flipped(p.pattern(mu), flips) for mu, flips in zip(want_mus, held)]
        (starts, mus), = seen
        assert mus.tolist() == want_mus
        assert np.array_equal(starts, np.stack(want, axis=1))
        skipped += trials - len(want)
        ran += len(want)
    assert skipped and ran


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 120), rho=st.floats(0.0, 0.49), b=st.integers(1, 40),
       seed=st.integers(0, 2 ** 64))
def test_recovery_rate_starts_flip_exactly_floor_rho_n(n, rho, b, seed):
    # one pattern on K_n is a fixed point of T, so every trial runs
    p = hopfield.sample_patterns(1, n, 0)
    with pytest.MonkeyPatch.context() as mp:
        seen = spy_on_run_block(mp)
        capacity.recovery_rate(graphs.gen_complete(n), p, rho, 1, trials=b, seed=seed)
    (starts, _), = seen
    assert starts.shape == (n, b)
    miss = (starts != p.pattern(0)[:, np.newaxis]).sum(axis=0)
    assert (miss == hopfield._flip_count(rho, n)).all()


def test_recovery_rate_flips_every_pair_evenly(monkeypatch):
    # K_6, one stable pattern, k = floor(0.34 * 6) = 2: the 1500 trials'
    # flipped pairs cover all 15 pairs, and their chi-square statistic
    # against 100 per pair stays below 36.12, the 0.999 quantile of
    # chi-square with 14 degrees of freedom
    seen = spy_on_run_block(monkeypatch)
    p = hopfield.sample_patterns(1, 6, 0)
    capacity.recovery_rate(graphs.gen_complete(6), p, 0.34, 1, trials=1500, seed=0)
    (starts, mus), = seen
    counts = {}
    for col in (starts != p.pattern(0)[:, np.newaxis]).T:
        pair = tuple(np.flatnonzero(col))
        counts[pair] = counts.get(pair, 0) + 1
    assert sorted(counts) == sorted(itertools.combinations(range(6), 2))
    chi2 = sum((c - 100) ** 2 / 100 for c in counts.values())
    assert chi2 < 36.12


def test_recovery_rate_seeds_as_seed_sequence_takes_them():
    g = graphs.gen_complete(24)
    p = hopfield.sample_patterns(5, 24, 2)
    # int() truncates a float seed, and a negative one is rejected
    assert (capacity.recovery_rate(g, p, 0.2, 4, trials=20, seed=1.5)
            == capacity.recovery_rate(g, p, 0.2, 4, trials=20, seed=1))
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    for seed in (-1, -2**40, -1.5):
        with pytest.raises(ValueError):
            capacity.recovery_rate(g, p, 0.2, 4, trials=5, seed=seed)


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


def test_auto_k_max_runs_lanczos_only_where_the_bound_cannot_decide(monkeypatch):
    # G(300, 0.02) has lambda1 / (kappa log n) = 0.24, which the cheap
    # bound (0.53) already places under the floor e^0.1; G(200, 0.3) has
    # 0.89, under the floor too, but its bound (1.76) is not, so only that
    # graph pays for the Lanczos solve
    real = spectral.spectrum_summary
    calls = []
    monkeypatch.setattr(capacity, "spectrum_summary",
                        lambda g: calls.append(g.n) or real(g))
    for n, p, solved in ((300, 0.02, []), (200, 0.3, [200])):
        g = graphs.gen_erdos_renyi(n, p, 0)
        est = capacity.capacity_search(g, rho=0.05, k_max=None, trials=20,
                                       threshold=0.9, seed=1)
        assert est.k_max == capacity.default_k_max(real(g), n)
        assert calls == solved
        calls.clear()


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


def test_spot_trial_without_flips_needs_a_stable_target():
    # at rho < 1/n the spot trial flips nothing, so it passes exactly when
    # pattern 0 is a fixed point of T; on K_100 with these 20 patterns it
    # is not, and a stable pattern 0 still passes
    g = graphs.gen_complete(100)
    p = hopfield.sample_patterns(20, 100, 1)
    eng = hopfield.FieldEngine(g, p)
    assert not eng._targets[0]
    for rho in (0.0, 0.009):
        assert capacity._spot_trial(g, p, rho, 10, eng) is False
    stable = hopfield.PatternSet(p.bits[:1])
    assert capacity._spot_trial(g, stable, 0.0, 10, hopfield.FieldEngine(g, stable))


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
