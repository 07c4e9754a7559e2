import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphmem import graphs, spectral


def load_lines(tmp_path, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    return graphs.load_edge_list(path)


SRC = str(Path(graphs.__file__).resolve().parents[1])
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def dense_lambda1_kappa(g):
    # the oracle every spectrum_summary result is checked against
    ev = np.linalg.eigvalsh(graphs.adjacency_matrix(g).toarray())
    if ev.size < 2:
        return 0.0, 0.0
    return float(ev[-1]), float(max(abs(ev[-2]), abs(ev[0])))


def assert_matches_dense(s, g, tol=1e-9):
    lam1, kappa = dense_lambda1_kappa(g)
    scale = max(1.0, abs(lam1))
    assert abs(s.lambda1 - lam1) < tol * scale, (s, lam1)
    assert abs(s.kappa - kappa) < tol * scale, (s, kappa)
    assert abs(s.gap - (lam1 - kappa)) < tol * scale, (s, lam1 - kappa)
    assert s.gap == s.lambda1 - s.kappa


def checked_summary(g):
    s = spectral.spectrum_summary(g)
    assert_matches_dense(s, g)
    return s


def all_graphs(n):
    # every labelled graph on n vertices, one bit per vertex pair
    iu, iv = np.triu_indices(n, k=1)
    for code in range(2 ** iu.size):
        keep = (code >> np.arange(iu.size)) & 1 == 1
        yield graphs._from_pairs(n, iu[keep], iv[keep])


def cycle(n):
    u = np.arange(n, dtype=np.int64)
    v = (u + 1) % n
    return graphs._from_pairs(n, np.minimum(u, v), np.maximum(u, v))


def complete_bipartite(a, b):
    u, v = np.meshgrid(np.arange(a), a + np.arange(b), indexing="ij")
    return graphs._from_pairs(a + b, u.ravel(), v.ravel())


def copies(g, k):
    # disjoint union of k copies of g
    src, dst = graphs.edge_endpoints(g)
    keep = src < dst
    shift = np.repeat(np.arange(k) * g.n, int(keep.sum()))
    return graphs._from_pairs(k * g.n, np.tile(src[keep], k) + shift,
                              np.tile(dst[keep], k) + shift)


def test_complete_graph_spectrum_dense():
    # K_n in closed form matches the dense solve: n - 1, then -1 twice
    for n in range(2, 65):
        g = graphs.gen_complete(n)
        s = checked_summary(g)
        assert s.method == "closed_form"
        assert (s.lambda1, s.kappa, s.gap, s.residual) == (n - 1, 1.0, n - 2, 0.0)


def test_complete_graph_spectrum_iterative():
    g = graphs.gen_complete(8)
    lam1, kappa, residual = spectral._lambda1_kappa_iterative(g, 1e-8)
    assert lam1 == pytest.approx(7.0, abs=1e-9)
    assert kappa == pytest.approx(1.0, abs=1e-9)
    assert 0.0 <= residual <= 1e-8 * 7.0


def test_lanczos_matches_dense_on_small_graphs_and_clique_unions():
    # every graph on up to 5 vertices, then disjoint unions of 2-6 equal
    # cliques, whose top eigenvalue is repeated
    cases = [g for n in range(1, 6) for g in all_graphs(n)]
    for k in range(2, 7):
        for size in (3, 5, 8):
            cases.append(copies(graphs.gen_complete(size), k))
    for g in cases:
        s = checked_summary(g)
        if g.edge_count == 0:
            assert (s.lambda1, s.kappa, s.gap) == (0, 0, 0)
            continue
        assert s.method == ("closed_form" if g.is_complete else "iterative")


# (graph, lambda1, kappa) where the two largest magnitudes are a trap: C_9's
# kappa is |lambda_N| > lambda_2; bipartite graphs have lambda_N = -lambda1;
# unions of bipartite copies repeat both +lambda1 and -lambda1; K_50 + K_450
# puts the second magnitude on the smaller clique's top
ADVERSARIAL = {
    "C9": (cycle(9), 2.0, -2.0 * math.cos(8.0 * math.pi / 9.0)),
    "C8": (cycle(8), 2.0, 2.0),
    "K3,40": (complete_bipartite(3, 40), math.sqrt(120.0), math.sqrt(120.0)),
    "star": (complete_bipartite(1, 9), 3.0, 3.0),
    "2xC8": (copies(cycle(8), 2), 2.0, 2.0),
    "2xK1,7": (copies(complete_bipartite(1, 7), 2), math.sqrt(7.0), math.sqrt(7.0)),
    "2xK3,3": (copies(complete_bipartite(3, 3), 2), 3.0, 3.0),
    "3xK3,3": (copies(complete_bipartite(3, 3), 3), 3.0, 3.0),
    "K50+K450": (graphs.gen_two_cliques(50, 500), 449.0, 49.0),
    "bridged 2xK20": (graphs.gen_two_cliques(20, 40, bridged=True), None, None),
}


@pytest.mark.parametrize("name", ADVERSARIAL)
def test_lanczos_matches_dense_on_adversarial_graphs(name):
    g, lam1, kappa = ADVERSARIAL[name]
    s = checked_summary(g)
    assert s.method == "iterative"
    if lam1 is not None:
        assert s.lambda1 == pytest.approx(lam1, abs=1e-9)
        assert s.kappa == pytest.approx(kappa, abs=1e-9)


def test_one_lanczos_call_per_spectrum(monkeypatch):
    import scipy.sparse.linalg as sla

    calls = []
    real = sla.eigsh

    def recording(a, k, **kwargs):
        calls.append((k, kwargs.get("which")))
        return real(a, k, **kwargs)

    monkeypatch.setattr(sla, "eigsh", recording)
    spectral.spectrum_summary(graphs.gen_erdos_renyi(100, 0.3, 9))
    assert calls == [(2, "LM")]


def test_star_spectrum_both_methods(tmp_path):
    # K_{1,9}: eigenvalues are +-3 and a 0 of multiplicity 8
    text = "10 9\n" + "".join(f"0 {j}\n" for j in range(1, 10))
    g = load_lines(tmp_path, text)
    s = checked_summary(g)
    assert s.method == "iterative"
    assert s.lambda1 == pytest.approx(3.0, abs=1e-9)
    assert s.kappa == pytest.approx(3.0, abs=1e-9)
    assert s.gap == pytest.approx(0.0, abs=1e-9)


def test_path_p4_spectrum(tmp_path):
    # P_4 eigenvalues are 2 cos(k pi / 5): the golden ratio and its relatives
    g = load_lines(tmp_path, "4 3\n0 1\n1 2\n2 3\n")
    s = checked_summary(g)
    assert s.lambda1 == pytest.approx(GOLDEN, abs=1e-9)
    assert s.kappa == pytest.approx(GOLDEN, abs=1e-9)


def test_cycle_c6_spectrum(tmp_path):
    # C_6 is bipartite: +-2 at the ends, so kappa = lambda1
    g = load_lines(tmp_path, "6 6\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n")
    s = checked_summary(g)
    assert s.lambda1 == pytest.approx(2.0, abs=1e-9)
    assert s.kappa == pytest.approx(2.0, abs=1e-9)


def test_disconnected_cliques_have_degenerate_top():
    g = graphs.gen_two_cliques(4, 8, bridged=False)
    s = checked_summary(g)
    assert s.lambda1 == pytest.approx(3.0, abs=1e-9)
    assert s.kappa == pytest.approx(3.0, abs=1e-9)
    assert s.gap == pytest.approx(0.0, abs=1e-9)


def test_empty_graph_and_singleton():
    s = checked_summary(graphs.gen_erdos_renyi(5, 0.0, 0))
    assert (s.lambda1, s.kappa, s.gap) == (0, 0, 0)
    s1 = checked_summary(graphs.gen_complete(1))
    assert s1.lambda1 == 0.0
    assert s1.kappa == 0.0


def test_methods_agree_on_random_graphs():
    rng = np.random.default_rng(20)
    for _ in range(20):
        n = int(rng.integers(20, 120))
        p = float(rng.uniform(0.05, 0.6))
        checked_summary(graphs.gen_erdos_renyi(n, p, int(rng.integers(2 ** 31))))


def test_summary_invariants_hold():
    rng = np.random.default_rng(21)
    for _ in range(20):
        g = graphs.gen_erdos_renyi(int(rng.integers(5, 80)),
                                   float(rng.uniform(0.0, 0.9)),
                                   int(rng.integers(2 ** 31)))
        s = checked_summary(g)
        assert s.lambda1 >= s.kappa >= 0.0
        assert s.gap == s.lambda1 - s.kappa
        assert s.residual >= 0.0


def test_unreachable_tolerance_raises():
    # 1e-18 is below float64 resolution: no residual can reach it
    g = graphs.gen_erdos_renyi(100, 0.3, 9)
    with pytest.raises(spectral.SpectralSolverError) as exc:
        spectral.spectrum_summary(g, tol=1e-18)
    assert exc.value.residual > 0.0


def test_arpack_non_convergence_is_a_solver_error(monkeypatch):
    import scipy.sparse.linalg as sla

    def stalled(a, k, **kwargs):
        raise sla.ArpackNoConvergence("no convergence", np.empty(0),
                                      np.empty((a.shape[0], 0)))

    monkeypatch.setattr(sla, "eigsh", stalled)
    g = graphs.gen_erdos_renyi(100, 0.3, 9)
    with pytest.raises(spectral.SpectralSolverError) as exc:
        spectral.spectrum_summary(g)
    assert exc.value.residual == math.inf


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_iterative_on_small_complete_graphs(n):
    # K_n: n - 1 once and -1 with multiplicity n - 1; K_1 has no edges.
    # spectrum_summary never sends K_n to Lanczos, which for two eigenpairs
    # needs n >= 3; from there Lanczos agrees with the closed form
    g = graphs.gen_complete(n)
    s = checked_summary(g)
    assert s.method == "closed_form"
    top, kappa = (n - 1, 1.0) if n > 1 else (0.0, 0.0)
    assert (s.lambda1, s.kappa, s.gap) == (top, kappa, top - kappa)
    if n >= 3:
        lam1, kappa1, _ = spectral._lambda1_kappa_iterative(g, 1e-8)
        assert lam1 == pytest.approx(top, abs=1e-9)
        assert kappa1 == pytest.approx(kappa, abs=1e-9)


def test_iterative_on_large_sparse_graph():
    # G(20000, 0.002) has about 400k arcs, too many for the dense oracle;
    # three separate Lanczos runs at the two ends of the spectrum check it
    from scipy.sparse.linalg import eigsh

    g = graphs.gen_erdos_renyi(20_000, 0.002, 3)
    s = spectral.spectrum_summary(g)
    assert s.method == "iterative"
    assert s.gap == s.lambda1 - s.kappa
    assert 0.0 <= s.residual <= 1e-8 * s.lambda1
    a = graphs.adjacency_matrix(g)
    top = eigsh(a, k=2, which="LA", return_eigenvectors=False)
    low = eigsh(a, k=1, which="SA", return_eigenvectors=False)
    assert s.lambda1 == pytest.approx(top.max(), abs=1e-9 * s.lambda1)
    assert s.kappa == pytest.approx(max(abs(top.min()), abs(low[0])),
                                    abs=1e-9 * s.lambda1)
    # lambda1 sits near the mean degree 40, the bulk edge near 2 sqrt(40)
    assert 39.0 < s.lambda1 < 43.0
    assert 0.0 < s.kappa < 15.0


def test_complete_graph_spectrum_does_not_load_the_sparse_eigensolver():
    code = ("import sys, graphmem\n"
            "graphmem.spectrum_summary(graphmem.gen_complete(50))\n"
            "print('scipy.sparse.linalg' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "False"


def test_min_degree_condition_report():
    g = graphs.gen_complete(16)
    s = checked_summary(g)
    d = graphs.degree_stats(g)
    rep = spectral.check_h1(s, d, 0.5)
    assert rep.holds
    assert rep.lhs == 15
    assert rep.rhs == pytest.approx(7.5)
    assert rep.margin == pytest.approx(7.5)
    assert rep.constant_used == 0.5
    with pytest.raises(ValueError):
        spectral.check_h1(s, d, 0.0)
    with pytest.raises(ValueError):
        spectral.check_h1(s, d, 1.0)


def test_expansion_condition_report():
    g = graphs.gen_complete(64)
    s = checked_summary(g)
    rep = spectral.check_h2(s, g.n, 1.0)
    assert rep.holds
    assert rep.lhs == pytest.approx(63.0)
    assert rep.rhs == pytest.approx(math.log(64))
    # degenerate top eigenvalue: two disjoint cliques fail the condition
    g2 = graphs.gen_two_cliques(8, 16, bridged=False)
    rep2 = spectral.check_h2(checked_summary(g2), 16, 1.0)
    assert not rep2.holds
    with pytest.raises(ValueError):
        spectral.check_h2(s, 1, 1.0)
    with pytest.raises(ValueError):
        spectral.check_h2(s, 64, 0.0)


def brute_pair_count(g, J, I):
    a = graphs.adjacency_matrix(g).toarray()
    return int(a[np.ix_(J, I)].sum())


def brute_crossing_top_eig(g, J, I):
    # symmetrized graph on the edges with one endpoint in J, the other in I
    a = graphs.adjacency_matrix(g).toarray()
    mask_i = np.zeros(g.n, dtype=bool)
    mask_i[np.asarray(I)] = True
    mask_j = np.zeros(g.n, dtype=bool)
    mask_j[np.asarray(J)] = True
    keep = a.astype(bool) & (np.outer(mask_j, mask_i) | np.outer(mask_i, mask_j))
    return float(np.linalg.eigvalsh(keep.astype(float))[-1])


def test_subgraph_bounds_exact_on_complete_graph():
    n = 30
    g = graphs.gen_complete(n)
    s = checked_summary(g)
    I = np.arange(6)
    J = np.arange(3, 13)
    rep = spectral.subgraph_bounds(g, s, I, J)
    assert rep.e_count == brute_pair_count(g, J, I)
    rho, rho_p = 6 / n, 10 / n
    assert rep.rho == pytest.approx(rho)
    assert rep.rho_prime == pytest.approx(rho_p)
    assert rep.e_bound == pytest.approx(
        (rho * rho_p * s.lambda1 + math.sqrt(rho * rho_p) * s.kappa) * n)
    assert rep.lambda_h == pytest.approx(brute_crossing_top_eig(g, J, I), abs=1e-9)
    assert rep.lambda_bound == pytest.approx(
        2 * (math.sqrt(rho * rho_p) * s.lambda1
             + (1 - math.sqrt(rho * rho_p)) * s.kappa))
    assert rep.edge_ok and rep.eigen_ok and rep.holds


def test_subgraph_bounds_full_sets_on_k10():
    g = graphs.gen_complete(10)
    s = checked_summary(g)
    every = np.arange(10)
    rep = spectral.subgraph_bounds(g, s, every, every)
    assert rep.e_count == 90
    assert rep.e_bound == pytest.approx(100.0, abs=1e-6)
    assert rep.holds


def test_subgraph_bounds_random_sets_never_violate():
    rng = np.random.default_rng(33)
    g = graphs.gen_erdos_renyi(80, 0.25, 17)
    s = checked_summary(g)
    for k in range(200):
        I = rng.choice(80, size=int(rng.integers(1, 81)), replace=False)
        J = rng.choice(80, size=int(rng.integers(1, 81)), replace=False)
        rep = spectral.subgraph_bounds(g, s, I, J)
        assert rep.holds
        assert rep.e_count == brute_pair_count(g, np.unique(J), np.unique(I))
        if k % 20 == 0:
            assert rep.lambda_h == pytest.approx(
                brute_crossing_top_eig(g, J, I), abs=1e-8)


def test_subgraph_lambda_h_on_small_supports():
    # crossing graphs down to a single edge, checked against dense solves
    rng = np.random.default_rng(34)
    g = graphs.gen_erdos_renyi(12, 0.4, 5)
    s = checked_summary(g)
    for _ in range(100):
        I = rng.choice(12, size=int(rng.integers(1, 4)), replace=False)
        J = rng.choice(12, size=int(rng.integers(1, 4)), replace=False)
        rep = spectral.subgraph_bounds(g, s, I, J)
        assert rep.lambda_h == pytest.approx(
            brute_crossing_top_eig(g, J, I), abs=1e-9)


def test_subgraph_bounds_validates_sets():
    g = graphs.gen_complete(10)
    s = checked_summary(g)
    with pytest.raises(ValueError):
        spectral.subgraph_bounds(g, s, [], [1])
    with pytest.raises(ValueError):
        spectral.subgraph_bounds(g, s, [1, 1], [2])
    with pytest.raises(ValueError):
        spectral.subgraph_bounds(g, s, [0], [10])
