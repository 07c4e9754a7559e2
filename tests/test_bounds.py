import math

import numpy as np
import pytest
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


# n = 333 is odd, so the 5e6-sign draw blocks end mid-word and both draw
# blocks leave a partial field block; K_40 takes the engine's complete
# storage, every other graph its CSR storage
@pytest.mark.parametrize("g, samples", [
    (graphs.gen_erdos_renyi(333, 0.1, 2), 16_000),
    (graphs.gen_complete(40), 4_096),
    (graphs.gen_erdos_renyi(30, 0.0, 0), 4_096),
    (graphs.gen_two_cliques(5, 60, True), 4_096),
    (graphs.gen_erdos_renyi(50, 0.3, 1), 1_001),
], ids=["gnp333", "K40", "edgeless30", "two_clique", "ragged1001"])
def test_sampled_forms_match_brute_force_across_chunks(g, samples, monkeypatch):
    # every sampled S(x) must equal the sum over edges for the signs the
    # seed draws, bit for bit whether the product runs on one row block or two
    want = int64_forms(g, sampled_bits(g.n, samples, 7))
    runs = []
    for threads in (1, 2):
        monkeypatch.setattr(hopfield, "_THREADS", threads)
        runs.append(bounds._form_values(g, samples, 7))
    for got in runs:
        assert got.dtype == np.float64
        assert np.array_equal(got, want)
    assert runs[0].tobytes() == runs[1].tobytes()


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


def test_degree_tail_validates_args():
    with pytest.raises(ValueError):
        bounds.degree_tail_experiment(1, 0.5, 10, 0)
    with pytest.raises(ValueError):
        bounds.degree_tail_experiment(10, 0.0, 10, 0)
    with pytest.raises(ValueError):
        bounds.degree_tail_experiment(10, 0.5, 0, 0)
