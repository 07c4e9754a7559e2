import dataclasses
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from graphmem import bounds, graphs, hopfield, spectral


def load_lines(tmp_path, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    return graphs.load_edge_list(path)


def test_entropy_values():
    assert bounds.entropy(0.0) == 0.0
    assert bounds.entropy(1.0) == 0.0
    assert bounds.entropy(0.5) == pytest.approx(math.log(2.0))
    for x in (0.1, 0.25, 0.7):
        want = float(-special.xlogy(x, x) - special.xlogy(1 - x, 1 - x))
        assert bounds.entropy(x) == pytest.approx(want)
        assert bounds.entropy(x) == pytest.approx(bounds.entropy(1 - x))
    with pytest.raises(ValueError):
        bounds.entropy(-0.01)
    with pytest.raises(ValueError):
        bounds.entropy(1.01)


def test_rel_entropy_values():
    for a, p in ((0.2, 0.1), (0.05, 0.3), (0.5, 0.5)):
        want = float(special.rel_entr(a, p) + special.rel_entr(1 - a, 1 - p))
        assert bounds.rel_entropy(a, p) == pytest.approx(want)
    assert bounds.rel_entropy(0.3, 0.3) == pytest.approx(0.0)
    assert bounds.rel_entropy(0.4, 0.1) > 0.0
    with pytest.raises(ValueError):
        bounds.rel_entropy(0.0, 0.5)
    with pytest.raises(ValueError):
        bounds.rel_entropy(0.5, 1.0)


def test_wilson_interval_textbook_value():
    lo, hi = bounds.wilson_interval(5, 10, z=1.96)
    assert lo == pytest.approx(0.2366, abs=2e-4)
    assert hi == pytest.approx(0.7634, abs=2e-4)


def test_wilson_interval_properties():
    # both limits are exact at the ends; 4 of 4 is where center + half
    # rounds to 1 - 2^-53
    for t in (1, 4, 40, 1000, 2000):
        assert bounds.wilson_interval(0, t)[0] == 0.0
        assert bounds.wilson_interval(t, t)[1] == 1.0
    for k, t in ((3, 20), (150, 200), (1, 1000)):
        lo, hi = bounds.wilson_interval(k, t)
        assert 0.0 <= lo <= k / t <= hi <= 1.0
    # interval shrinks as trials grow at fixed frequency
    w_small = bounds.wilson_interval(10, 50)
    w_big = bounds.wilson_interval(200, 1000)
    assert w_big[1] - w_big[0] < w_small[1] - w_small[0]


def test_analytic_bound_formulas():
    assert bounds.tail_bound(2.0, 3, 1.5) == pytest.approx(math.exp(-4.0 / 12.0))
    assert bounds.mgf_bound(0.5, 3, 1.5) == pytest.approx(math.exp(1.5))
    assert bounds.mgf_bound(0.0, 3, 1.5) == 1.0
    with pytest.raises(ValueError):
        bounds.mgf_bound(2.0 / 3.0, 3, 1.5)   # t at 1/lambda1
    with pytest.raises(ValueError):
        bounds.mgf_bound(-0.1, 3, 1.5)


def test_tail_bound_is_zero_without_edges():
    # S is identically 0 on an edgeless graph, so P[S > y] = 0 for y > 0
    assert bounds.tail_bound(1.0, 0, 0.0) == 0.0
    assert bounds.tail_bound(np.float64(2.5), 0, 0.0) == 0.0
    with pytest.raises(ValueError):
        bounds.tail_bound(0.0, 0, 0.0)


def test_tail_on_edgeless_graph():
    g = graphs.gen_erdos_renyi(30, 0.0, 0)
    s = spectral.spectrum_summary(g)
    rep = bounds.quadratic_form_tail(g, s, [0.5, 1.0, 2.0], 2_000, 0)
    assert rep.method == "monte_carlo"
    assert np.array_equal(rep.analytic, [0.0, 0.0, 0.0])
    assert np.array_equal(rep.empirical[:, 0], [0.0, 0.0, 0.0])
    assert rep.violations == 0


def test_tail_exhaustive_single_edge(tmp_path):
    g = load_lines(tmp_path, "2 1\n0 1\n")
    s = spectral.spectrum_summary(g)
    rep = bounds.quadratic_form_tail(g, s, [0.5, 0.9, 1.5], 1000, 0)
    assert rep.method == "exhaustive"
    assert rep.samples == 4
    assert np.allclose(rep.empirical[:, 0], [0.5, 0.5, 0.0])
    assert rep.violations == 0


def test_tail_exhaustive_triangle():
    g = graphs.gen_complete(3)
    s = spectral.spectrum_summary(g)
    # S takes value 3 on the two aligned states and -1 elsewhere
    rep = bounds.quadratic_form_tail(g, s, [0.1, 2.9, 3.0], 1000, 0)
    assert np.allclose(rep.empirical[:, 0], [0.25, 0.25, 0.0])
    assert rep.violations == 0


def test_tail_monte_carlo_agrees_with_enumeration(tmp_path):
    # same 14-vertex core; three isolated vertices push n over the
    # enumeration limit without changing the form's distribution
    core = graphs.gen_erdos_renyi(14, 0.4, 77)
    lines = [f"{u} {v}" for u, v in zip(*graphs.edge_endpoints(core)) if u < v]
    g_big = load_lines(tmp_path, f"17 {core.edge_count}\n" + "\n".join(lines) + "\n")
    s = spectral.spectrum_summary(core)
    root_l = math.sqrt(core.edge_count)
    grid = [0.5 * root_l, root_l, 2.0 * root_l]
    exact = bounds.quadratic_form_tail(core, s, grid, 1000, 0)
    mc = bounds.quadratic_form_tail(g_big, spectral.spectrum_summary(g_big),
                                    grid, 40_000, 5, z=3.0)
    assert exact.method == "exhaustive"
    assert mc.method == "monte_carlo"
    for k in range(len(grid)):
        assert mc.empirical[k, 1] <= exact.empirical[k, 0] <= mc.empirical[k, 2]
    assert mc.violations == 0


def test_tail_detector_fires_on_understated_spectrum():
    # an adversarial summary (top eigenvalue deliberately understated)
    # shrinks the bound below the exact tail; the detector must count it
    g = graphs.gen_complete(3)
    fake = spectral.SpectralSummary(lambda1=-1.4, kappa=1.4, method="dense",
                                    residual=0.0)
    rep = bounds.quadratic_form_tail(g, fake, [2.0], 1000, 0)
    assert rep.violations == 1


def test_tail_rejects_bad_grid_and_samples():
    g = graphs.gen_complete(3)
    s = spectral.spectrum_summary(g)
    with pytest.raises(ValueError):
        bounds.quadratic_form_tail(g, s, [0.0, 1.0], 2000, 0)
    with pytest.raises(ValueError):
        bounds.quadratic_form_tail(g, s, [1.0], 10, 0)


def test_mgf_exhaustive_single_edge(tmp_path):
    g = load_lines(tmp_path, "2 1\n0 1\n")
    s = spectral.spectrum_summary(g)
    grid = np.linspace(0.0, 0.9, 7)
    rep = bounds.mgf_check(g, s, grid, 1000, 0)
    assert rep.method == "exhaustive"
    assert np.allclose(rep.empirical[:, 0], np.cosh(grid))
    assert rep.violations == 0


def test_mgf_monte_carlo_brackets_exact(tmp_path):
    # isolated vertices push n over the enumeration limit without touching
    # the form, so the sampling path must bracket the enumerated answer
    core = graphs.gen_erdos_renyi(14, 0.4, 77)
    lines = [f"{u} {v}" for u, v in zip(*graphs.edge_endpoints(core)) if u < v]
    g_big = load_lines(tmp_path, f"17 {core.edge_count}\n" + "\n".join(lines) + "\n")
    s = spectral.spectrum_summary(core)
    grid = np.linspace(0.0, 0.2 / s.lambda1, 5)
    exact = bounds.mgf_check(core, s, grid, 1000, 0)
    mc = bounds.mgf_check(g_big, spectral.spectrum_summary(g_big), grid,
                          50_000, 3, z=3.0)
    assert exact.method == "exhaustive"
    assert mc.method == "monte_carlo"
    for k in range(len(grid)):
        assert mc.empirical[k, 1] <= exact.empirical[k, 0] <= mc.empirical[k, 2]
    assert exact.violations == 0
    assert mc.violations == 0


def test_mgf_grid_validation():
    g = graphs.gen_complete(3)
    s = spectral.spectrum_summary(g)          # lambda1 = 2
    with pytest.raises(ValueError):
        bounds.mgf_check(g, s, [0.0, 0.6], 2000, 0)
    with pytest.raises(ValueError):
        bounds.mgf_check(g, s, [0.1], 100, 0)


def test_mgf_monte_carlo_on_large_graph():
    g = graphs.gen_erdos_renyi(60, 0.2, 4)
    s = spectral.spectrum_summary(g)
    grid = np.linspace(0.0, 0.5 / s.lambda1, 6)
    rep = bounds.mgf_check(g, s, grid, 20_000, 9, z=3.0)
    assert rep.method == "monte_carlo"
    assert rep.violations == 0
    # estimates are means of a positive variable
    assert np.all(rep.empirical[:, 0] >= 1.0 - 1e-9) or rep.empirical[0, 0] == pytest.approx(1.0)


def test_mgf_check_draws_only_the_samples_its_batches_use():
    # the 100 batch means use 1000 of 1099 samples, and a shorter int8 draw
    # is a prefix of a longer one, so the report is the 1000-sample one
    g = graphs.gen_erdos_renyi(60, 0.2, 4)
    s = spectral.spectrum_summary(g)
    grid = np.linspace(0.0, 0.5 / s.lambda1, 6)
    a = bounds.mgf_check(g, s, grid, 1099, 0)
    b = bounds.mgf_check(g, s, grid, 1000, 0)
    for field in dataclasses.fields(bounds.FormReport):
        assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name
    assert a.samples == 1000


def test_mgf_detector_fires_on_understated_spectrum():
    # on K_3, S is 3 on two of the eight states and -1 elsewhere; an
    # understated top eigenvalue shrinks the bound below the exact MGF
    g = graphs.gen_complete(3)
    fake = spectral.SpectralSummary(lambda1=-1.4, kappa=1.4, method="dense",
                                    residual=0.0)
    rep = bounds.mgf_check(g, fake, [0.0, 1.0], 1000, 0)
    assert rep.method == "exhaustive"
    assert rep.empirical[1, 0] == pytest.approx((math.exp(3) + 3 * math.exp(-1)) / 4)
    assert np.array_equal(rep.empirical[:, 0], rep.empirical[:, 1])
    assert rep.violations == 1


def int64_forms(g, bits):
    """S(x) = sum over edges {u, v} of x_u x_v in int64, for each row of
    0/1 bits turned into signs."""
    x = bits.astype(np.int64) * 2 - 1
    src, dst = graphs.edge_endpoints(g)
    want = np.zeros(bits.shape[0], dtype=np.int64)
    for u, v in zip(src[src < dst], dst[src < dst]):
        want += x[:, u] * x[:, v]
    return want


def sampled_bits(n, samples, seed):
    """The 0/1 rows _form_values draws: blocks of 5e6 // n rows of n signs."""
    rng = np.random.default_rng(seed)
    rows = 5_000_000 // n
    return np.concatenate([
        rng.integers(0, 2, size=(min(rows, samples - lo), n), dtype=np.int8)
        for lo in range(0, samples, rows)])


@pytest.fixture(scope="module")
def pools():
    """A 1-worker and a 2-worker thread pool to stand in for hopfield's."""
    made = {w: ThreadPoolExecutor(max_workers=w) for w in (1, 2)}
    yield made
    for pool in made.values():
        pool.shutdown()


def forms_on_each_pool(g, samples, seed, pools, mp):
    """_form_values(g, samples, seed) run on the 1-worker and the 2-worker
    pool, which must give the same bytes; returns the first."""
    runs = []
    for pool in pools.values():
        mp.setattr(hopfield, "_POOL", pool)
        runs.append(bounds._form_values(g, samples, seed))
    assert runs[0].dtype == np.float64
    assert runs[0].tobytes() == runs[1].tobytes()
    return runs[0]


# n = 333 is odd, so the 5e6-sign draw blocks end mid-word and both draw
# blocks leave a partial form block
@pytest.mark.parametrize("g, samples", [
    (graphs.gen_erdos_renyi(333, 0.1, 2), 16_000),
    (graphs.gen_complete(40), 4_096),
    (graphs.gen_erdos_renyi(30, 0.0, 0), 4_096),
    (graphs.gen_two_cliques(5, 60, True), 4_096),
    (graphs.gen_erdos_renyi(50, 0.3, 1), 1_001),
], ids=["gnp333", "K40", "edgeless30", "two_clique", "ragged1001"])
def test_sampled_forms_match_brute_force_across_chunks(g, samples, pools, monkeypatch):
    # every sampled S(x) must equal the sum over edges for the signs the
    # seed draws, bit for bit whether the blocks run on one worker or two
    want = int64_forms(g, sampled_bits(g.n, samples, 7))
    assert np.array_equal(forms_on_each_pool(g, samples, 7, pools, monkeypatch), want)


@settings(max_examples=200, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 41)), min_size=1,
                       max_size=5),
       seed=st.integers(0, 2 ** 64 - 1))
def test_sign_bits_are_numpys_int8_draws(shapes, seed):
    # the seed -> sample mapping of _form_values is numpy's int8 draw: the
    # same bits and the same generator state after every call, where a
    # call leaves part of its last 32-bit word unused and where a 32-bit
    # draw between calls takes the half of a 64-bit output PCG64 buffers
    want, got = np.random.default_rng(seed), np.random.default_rng(seed)
    for shape in shapes:
        bits = bounds._sign_bits(got, shape)
        assert np.array_equal(bits, want.integers(0, 2, shape, dtype=np.int8))
        assert bits.shape == shape
        assert got.bit_generator.state == want.bit_generator.state
        assert got.integers(2 ** 32, dtype=np.uint32) == want.integers(2 ** 32, dtype=np.uint32)


def isolated_vertices_graph(n, density, seed, extra=3):
    """G(n, density) on vertices 0..n-1, then `extra` vertices with no edges."""
    inner = graphs.gen_erdos_renyi(n, density, seed)
    src, dst = graphs.edge_endpoints(inner)
    return graphs._from_pairs(n + extra, [src[src < dst], dst[src < dst]])


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["complete", "gnp", "twoclique", "edgeless", "isolated"]),
       n=st.integers(2, 40), density=st.floats(0.0, 1.0), samples=st.integers(1, 700),
       block=st.sampled_from([1, 7, 256]), seed=st.integers(0, 2 ** 31))
def test_form_values_property(kind, n, density, samples, block, seed, pools):
    # the exhaustive path (n <= 16) and the sampled one, with any form
    # block and a ragged sample count, must give the int64 sum over edges
    if kind == "complete":
        g = graphs.gen_complete(n)
    elif kind == "gnp":
        g = graphs.gen_erdos_renyi(n, density, seed)
    elif kind == "twoclique":
        g = graphs.gen_two_cliques(max(2, n // 3), max(n, 4), bridged=seed % 2 == 0)
    elif kind == "edgeless":
        g = graphs.gen_erdos_renyi(n, 0.0, seed)
    else:
        g = isolated_vertices_graph(n, density, seed)
    if g.n <= bounds._EXHAUSTIVE_LIMIT:
        bits = (np.arange(2 ** g.n)[:, np.newaxis] >> np.arange(g.n)) & 1
    else:
        bits = sampled_bits(g.n, samples, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "_FORM_BLOCK", block)
        got = forms_on_each_pool(g, samples, seed, pools, mp)
    assert np.array_equal(got, int64_forms(g, bits))


def test_form_values_memory_stays_within_one_draw_chunk():
    # the 5e6-sign draw chunk is the one large array: each form block is
    # converted to int16 on its own, and a chunk is dropped before the next
    # is drawn.  An int16 copy of a whole chunk alone would take 10 MB.
    g = graphs.gen_erdos_renyi(500, 0.1, 0)
    bounds._form_values(g, 1_000, 0)
    tracemalloc.start()
    try:
        bounds._form_values(g, 100_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12_000_000


@pytest.mark.parametrize("g", [graphs.gen_complete(16), graphs.gen_erdos_renyi(16, 0.5, 3),
                               graphs.gen_erdos_renyi(9, 0.0, 0), graphs.gen_complete(1)],
                         ids=["K16", "gnp16", "edgeless9", "K1"])
def test_enumerated_forms_match_int64_oracle(g):
    # the exhaustive path: sign vector k has x_i = +1 when bit i of k is set
    bits = (np.arange(2 ** g.n)[:, np.newaxis] >> np.arange(g.n)) & 1
    got = bounds._form_values(g, 1000, 0)
    assert got.dtype == np.float64
    assert np.array_equal(got, int64_forms(g, bits))


def test_degree_tail_main_regime():
    rep = bounds.degree_tail_experiment(400, 0.15, 300, 0)
    assert rep.in_validity_range
    assert rep.violations == 0
    eps = 2.0 * math.sqrt(math.log(400) / (0.15 * 400))
    assert rep.epsilon == pytest.approx(eps)
    assert rep.upper_threshold == pytest.approx((1 + eps) * 60)
    assert rep.lower_threshold == pytest.approx((1 - eps) * 60)
    want_up = 400 * math.exp(-400 * bounds.rel_entropy((1 + eps) * 0.15, 0.15))
    want_lo = 400 * math.exp(-400 * bounds.rel_entropy((1 - eps) * 0.15, 0.15))
    assert rep.upper_bound == pytest.approx(want_up)
    assert rep.lower_bound == pytest.approx(want_lo)
    assert 0.0 <= rep.max_exceed_freq <= 1.0
    assert 0.0 <= rep.min_exceed_freq <= 1.0


def test_degree_tail_is_deterministic():
    a = bounds.degree_tail_experiment(80, 0.2, 50, 7)
    b = bounds.degree_tail_experiment(80, 0.2, 50, 7)
    assert a == b


def test_degree_tail_dense_p_flagged_not_failed():
    rep = bounds.degree_tail_experiment(50, 1.0, 20, 0)
    assert not rep.in_validity_range
    assert rep.upper_bound is None
    assert rep.max_exceed_freq == 0.0
    assert rep.violations == 0


def test_degree_tail_sparse_p_flagged():
    # eps >= 1 pushes the lower threshold to zero or below
    rep = bounds.degree_tail_experiment(50, 0.05, 20, 0)
    assert rep.epsilon >= 1.0
    assert not rep.in_validity_range


# the reports of degree_tail_experiment(n, p, trials, seed) when every
# trial still built its graph
DEGREE_REPORTS = {
    (2000, 0.05, 50, 0): dict(
        epsilon=0.5513946847600939, upper_threshold=155.1394684760094,
        lower_threshold=44.86053152399061, ci=(0.0, 0.07134760017861413),
        upper_bound=0.0020340093206540726, lower_bound=4.242746215886811e-06,
        in_validity_range=True),
    (80, 0.2, 50, 7): dict(
        epsilon=1.0466645397014605, upper_threshold=32.746632635223364,
        lower_threshold=-0.7466326352233672, ci=(0.0, 0.07134760017861413),
        upper_bound=0.008767151104948256, lower_bound=None, in_validity_range=False),
    (50, 1.0, 20, 0): dict(
        epsilon=0.5594299245073074, upper_threshold=77.97149622536537,
        lower_threshold=22.02850377463463, ci=(0.0, 0.16112516018512965),
        upper_bound=None, lower_bound=None, in_validity_range=False),
    (2, 0.5, 10, 3): dict(
        epsilon=1.6651092223153954, upper_threshold=2.6651092223153956,
        lower_threshold=-0.6651092223153954, ci=(0.0, 0.2775328030260577),
        upper_bound=None, lower_bound=None, in_validity_range=False),
}


@pytest.mark.parametrize("args", list(DEGREE_REPORTS), ids=lambda a: "-".join(map(str, a)))
def test_degree_tail_reports_are_unchanged(args):
    rec = DEGREE_REPORTS[args]
    want = bounds.DegreeTailReport(
        epsilon=rec["epsilon"],
        upper_threshold=rec["upper_threshold"], lower_threshold=rec["lower_threshold"],
        max_exceed_freq=0.0, max_exceed_ci=rec["ci"], min_exceed_freq=0.0,
        min_exceed_ci=rec["ci"], upper_bound=rec["upper_bound"],
        lower_bound=rec["lower_bound"], in_validity_range=rec["in_validity_range"],
        violations=0)
    assert bounds.degree_tail_experiment(*args) == want


@pytest.mark.parametrize("n, p, trials, seed", [
    (2000, 0.05, 6, 0), (80, 0.2, 20, 7), (50, 1.0, 3, 0), (2, 0.5, 10, 3), (300, 0.7, 5, 11),
])
def test_degree_tail_trials_take_the_generated_degrees(n, p, trials, seed, monkeypatch):
    # trial t reads the degrees of gen_erdos_renyi on the t-th spawned
    # child of the seed, though it builds no graph (but K_n at p = 1)
    seen = []
    real = bounds._gnp_degrees

    def spy(n_, p_, rng):
        d = real(n_, p_, rng)
        seen.append(d)
        return d

    monkeypatch.setattr(bounds, "_gnp_degrees", spy)
    bounds.degree_tail_experiment(n, p, trials, seed)
    children = np.random.SeedSequence(seed).spawn(trials)
    assert len(seen) == trials
    for d, child in zip(seen, children):
        g = graphs.gen_erdos_renyi(n, p, np.random.default_rng(child))
        assert np.array_equal(d, g.degrees)


@pytest.mark.parametrize("n, p", [(1, 0.5), (7, 0.0), (1, 1.0), (9, 1.0), (40, 0.3)])
def test_gnp_degrees_cover_the_special_cases(n, p):
    # p = 0, n = 1 and p = 1 draw nothing; gen_erdos_renyi and the degree
    # path share their handling, and the generator is left as it would be
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    want = graphs.gen_erdos_renyi(n, p, a).degrees
    assert np.array_equal(bounds._gnp_degrees(n, p, b), want)
    assert a.bit_generator.state == b.bit_generator.state


def test_degree_tail_validates_args():
    with pytest.raises(ValueError):
        bounds.degree_tail_experiment(1, 0.5, 10, 0)
    with pytest.raises(ValueError):
        bounds.degree_tail_experiment(10, 0.0, 10, 0)
    with pytest.raises(ValueError):
        bounds.degree_tail_experiment(10, 0.5, 0, 0)


def per_trial_energies(g, trials, rng):
    """The energy check as one FieldEngine per trial: the draws, the swept
    and stepped states as (n, trials) blocks, and the (trials, 4) energies
    H_S(s0), H_S(S s0), H_T(s0), H_T(T s0)."""
    patterns, starts, swept, stepped, rows = [], [], [], [], []
    for _ in range(trials):
        m = int(rng.integers(1, 5))
        p = hopfield.sample_patterns(m, g.n, rng)
        eng = hopfield.FieldEngine(g, p)
        s0 = rng.integers(0, 2, g.n, dtype=np.int8) * 2 - 1
        a, b = hopfield.sequential_sweep(eng, s0), hopfield._sign(eng.fields(s0))
        patterns.append(p.bits)
        starts.append(s0)
        swept.append(a)
        stepped.append(b)
        rows.append((hopfield.energy_S(eng, s0), hopfield.energy_S(eng, a),
                     hopfield.energy_T(eng, s0), hopfield.energy_T(eng, b)))
    return patterns, starts, np.column_stack(swept), np.column_stack(stepped), np.array(rows)


def batched_energies(g, trials, rng, monkeypatch, block):
    """bounds._energy_check with _ENERGY_BLOCK set to block, and what each
    of its blocks took and gave: (patterns, starts, _energy_block's
    result)."""
    monkeypatch.setattr(bounds, "_ENERGY_BLOCK", block)
    calls = []
    real = bounds._energy_block

    def spy(engine, xis, starts):
        out = real(engine, xis, starts)
        calls.append((list(xis), list(starts), out))
        return out

    monkeypatch.setattr(bounds, "_energy_block", spy)
    got = bounds._energy_check(g, trials, rng)
    monkeypatch.undo()
    return got, calls


def assert_matches_per_trial(g, trials, seed, block, monkeypatch):
    want = per_trial_energies(g, trials, np.random.default_rng(seed))
    got, calls = batched_energies(g, trials, np.random.default_rng(seed), monkeypatch, block)
    assert got.dtype == np.float64 and got.shape == (trials, 4)
    assert np.array_equal(got, want[4])
    assert np.array_equal(np.hstack([out[0] for *_, out in calls]), want[2])
    assert np.array_equal(np.hstack([out[1] for *_, out in calls]), want[3])
    # a block holds one trial or stays within n * (total M) <= block
    for xis, _, _ in calls:
        assert len(xis) == 1 or g.n * sum(x.shape[0] for x in xis) <= block
    return want, calls


ENERGY_GRAPHS = [graphs.gen_erdos_renyi(40, 0.3, 2), graphs.gen_complete(12),
                 graphs.gen_two_cliques(5, 14, True), isolated_vertices_graph(20, 0.3, 5, 5),
                 graphs.gen_erdos_renyi(6, 0.0, 0)]


@pytest.mark.parametrize("block", [1, 7, 150, 2 ** 18])
@pytest.mark.parametrize("g", ENERGY_GRAPHS,
                         ids=["gnp40", "K12", "two_clique", "isolated", "edgeless6"])
def test_energy_check_matches_per_trial_engines(g, block, monkeypatch):
    # every trial's swept and stepped state and all four energies must be
    # those of one FieldEngine per trial, however the trials are blocked
    want, calls = assert_matches_per_trial(g, 40, 11, block, monkeypatch)
    assert {x.shape[0] for x in want[0]} == {1, 2, 3, 4}
    if block < 2 ** 18:
        assert len(calls) > 2
    else:
        assert len(calls) == 1
    if g.is_complete:
        # K_n's adjacency engine takes the "complete" storage, and its
        # sweep runs over weights of ones, one vertex per run
        assert hopfield.FieldEngine(g, hopfield.PatternSet(np.ones((1, g.n), np.int8))
                                    ).storage == "complete"
        assert len(g._runs) == g.n + 1
    if g.edge_count == 0:
        assert np.all(want[2] == 1) and np.all(want[3] == 1)    # sgn(0) = +1
    assert np.all(want[4][:, 1] <= want[4][:, 0])
    assert np.all(want[4][:, 3] <= want[4][:, 2])


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["complete", "gnp", "twoclique", "isolated"]),
       n=st.integers(2, 16), density=st.floats(0.0, 1.0), trials=st.integers(1, 12),
       block=st.sampled_from([1, 7, 40, 2 ** 18]), seed=st.integers(0, 2 ** 31))
def test_energy_check_property_small_graphs(kind, n, density, trials, block, seed):
    if kind == "complete":
        g = graphs.gen_complete(n)
    elif kind == "gnp":
        g = graphs.gen_erdos_renyi(n, density, seed)
    elif kind == "twoclique":
        g = graphs.gen_two_cliques(max(2, n // 3), max(n, 4), bridged=seed % 2 == 0)
    else:
        g = isolated_vertices_graph(n, density, seed)
    with pytest.MonkeyPatch.context() as mp:
        assert_matches_per_trial(g, trials, seed, block, mp)


@pytest.mark.parametrize("seed", [3, 2 ** 64 + 12345])
def test_energy_check_consumes_the_per_trial_draws(seed, monkeypatch):
    # the same rng calls in the same order: each block gets exactly the
    # patterns and starts of the per-trial loop, and the generator ends in
    # the same state
    g = graphs.gen_erdos_renyi(30, 0.2, 1)
    want_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    patterns, starts = per_trial_energies(g, 25, want_rng)[:2]
    _, calls = batched_energies(g, 25, rng, monkeypatch, block=100)
    assert len(calls) > 1
    got_patterns = [x for xis, _, _ in calls for x in xis]
    got_starts = [s for _, ss, _ in calls for s in ss]
    assert len(got_patterns) == len(got_starts) == 25
    for a, b in zip(got_patterns + got_starts, patterns + starts):
        assert a.dtype == b.dtype == np.int8 and np.array_equal(a, b)
    assert rng.bit_generator.state == want_rng.bit_generator.state


def test_exact_type_at_its_edge():
    # a product whose partial sums reach 2^15 no longer fits int16
    assert hopfield._exact_type(0) is np.int16
    assert hopfield._exact_type(2 ** 15 - 1) is np.int16
    assert hopfield._exact_type(2 ** 15) is np.int32


@pytest.fixture(scope="module")
def star():
    """A star with 2^15 leaves: its centre's degree is the first that needs
    int32 products."""
    leaves = 2 ** 15
    return graphs._from_pairs(leaves + 1, [np.zeros(leaves, np.int32),
                                           np.arange(1, leaves + 1, dtype=np.int32)])


def product_types(monkeypatch):
    """Record the (weights, block) types of every hopfield._product call."""
    seen, real = set(), hopfield._product

    def spy(indptr, indices, data, x, out):
        seen.add((data.dtype, x.dtype))
        real(indptr, indices, data, x, out)

    monkeypatch.setattr(hopfield, "_product", spy)
    return seen


def test_form_values_take_int32_past_int16(star, monkeypatch):
    # 200 samples span two draw chunks of 5e6 // n = 152 rows
    assert int(star.degrees.max()) == 2 ** 15
    seen = product_types(monkeypatch)
    got = bounds._form_values(star, 200, 5)
    assert seen == {(np.dtype(np.int32), np.dtype(np.int32))}
    assert np.array_equal(got, int64_forms(star, sampled_bits(star.n, 200, 5)))


def test_energy_check_takes_int32_past_int16(star, monkeypatch):
    # every state and energy is the per-trial engines' value, and the
    # adjacency engine's weights, the block products and the sweep's ones
    # are all int32
    _, calls = assert_matches_per_trial(star, 12, 4, 2 ** 18, monkeypatch)
    assert len(calls) > 1
    seen = product_types(monkeypatch)
    bounds._energy_check(star, 12, np.random.default_rng(4))
    assert seen == {(np.dtype(np.int32), np.dtype(np.int32))}
