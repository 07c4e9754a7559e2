import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphmem import capacity, graphs, spectral


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
        yield graphs._from_pairs(n, [iu[keep], iv[keep]])


def cycle(n):
    u = np.arange(n, dtype=np.int64)
    v = (u + 1) % n
    return graphs._from_pairs(n, [np.minimum(u, v), np.maximum(u, v)])


def complete_bipartite(a, b):
    u, v = np.meshgrid(np.arange(a), a + np.arange(b), indexing="ij")
    return graphs._from_pairs(a + b, [u.ravel(), v.ravel()])


def union(*parts):
    # disjoint union, each part's vertices numbered after the previous ones
    us, vs, base = [], [], 0
    for g in parts:
        src, dst = graphs.edge_endpoints(g)
        keep = src < dst
        us.append(src[keep] + base)
        vs.append(dst[keep] + base)
        base += g.n
    return graphs._from_pairs(base, [np.concatenate(us), np.concatenate(vs)])


def copies(g, k):
    # disjoint union of k copies of g
    return union(*[g] * k)


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


def test_unions_of_random_components_match_dense():
    # one Lanczos run cannot see a top repeated across equal components:
    # it gave two copies of G(60, 0.05) too small a kappa at 28 of these
    # 40 seeds (3.5675 against 4.5334 at seed 0).  G(60, 0.05) itself
    # often has several components, and the three-part union puts the
    # repeated top beside a different component
    for seed in range(40):
        g = graphs.gen_erdos_renyi(60, 0.05, seed)
        checked_summary(copies(g, 2))
        checked_summary(union(g, graphs.gen_erdos_renyi(60, 0.05, seed + 40), g))


def recorded_eigsh(monkeypatch):
    """A list that records (k, which, tol) of every eigsh call."""
    import scipy.sparse.linalg as sla

    calls = []
    real = sla.eigsh

    def recording(a, k, **kwargs):
        calls.append((k, kwargs.get("which"), kwargs.get("tol")))
        return real(a, k, **kwargs)

    monkeypatch.setattr(sla, "eigsh", recording)
    return calls


def test_components_are_solved_only_while_they_can_change_the_top_two(monkeypatch):
    calls = recorded_eigsh(monkeypatch)
    big = graphs.gen_erdos_renyi(100, 0.3, 9)
    k2, isolated = graphs.gen_complete(2), graphs.gen_erdos_renyi(5, 0.0, 0)
    # one component with an edge, isolated vertices aside: the single call
    # on the whole adjacency, whatever the labels
    for g in (union(big, isolated), union(isolated, big, isolated)):
        checked_summary(g)
        assert calls == [(2, "LM", 1e-8)]
        calls.clear()
    # each copy of big takes a call; after the second, lambda1 is the
    # second magnitude, and neither C_8 (lambda1 <= 2) nor a K_2 can
    # beat it
    s = checked_summary(union(cycle(8), big, *[k2] * 20, big, isolated))
    assert calls == [(2, "LM", 1e-8)] * 2
    assert s.kappa == s.lambda1
    calls.clear()
    # cliques in closed form, exactly: K_2 (+-1), K_7 (6, then -1)
    s = checked_summary(union(*[k2] * 30, graphs.gen_complete(7), isolated))
    assert (s.lambda1, s.kappa, s.residual, calls) == (6.0, 1.0, 0.0, [])
    s = checked_summary(union(cycle(9), graphs.gen_complete(3)))
    assert len(calls) == 1 and s.lambda1 == pytest.approx(2.0, abs=1e-9)


def test_one_lanczos_call_per_spectrum(monkeypatch):
    # one call per spectrum, stopped at the tolerance its residual gate
    # checks; the crossing subgraph's solve stops at the default 1e-8
    calls = recorded_eigsh(monkeypatch)
    g = graphs.gen_erdos_renyi(100, 0.3, 9)
    s = spectral.spectrum_summary(g)
    assert calls == [(2, "LM", 1e-8)]
    spectral.spectrum_summary(g, tol=3e-6)
    assert calls[1:] == [(2, "LM", 3e-6)]
    spectral.subgraph_bounds(g, s, np.arange(40), np.arange(30, 90))
    assert calls[2:] == [(1, "LA", 1e-8)]


@st.composite
def lanczos_graphs(draw):
    # G(n, p), Chung-Lu on feasible non-increasing weights, and the bridged
    # two-clique, whose two top eigenvalues nearly meet for equal halves
    n = draw(st.integers(3, 150))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    model = draw(st.sampled_from(["gnp", "chunglu", "twoclique"]))
    if model == "gnp":
        return graphs.gen_erdos_renyi(n, draw(st.floats(0.0, 1.0)), seed)
    if model == "chunglu":
        raw = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, n))[::-1] + 1e-3
        scale = draw(st.floats(0.05, 0.95)) * raw.sum() / raw[0] ** 2
        return graphs.gen_chung_lu(graphs.WeightSequence(scale * raw), seed)
    n = max(n, 4)
    return graphs.gen_two_cliques(draw(st.integers(2, n - 2)), n, bridged=True)


@settings(max_examples=100, deadline=None)
@given(lanczos_graphs())
def test_default_tolerance_matches_dense(g):
    # at the default tol ARPACK stops early, yet the eigenvalues it
    # returns stay within 1e-9 * max(1, lambda1) of the dense solve
    checked_summary(g)


@st.composite
def bound_graphs(draw):
    # lanczos_graphs' families, sparse G(n, p), the two-clique graph with
    # and without its bridge, even cycles (bipartite), and disjoint unions
    # of those, some with isolated vertices
    family = draw(st.sampled_from(["lanczos", "sparse", "twoclique", "cycle",
                                   "union"]))
    if family == "lanczos":
        return draw(lanczos_graphs())
    if family == "sparse":
        return graphs.gen_erdos_renyi(draw(st.integers(3, 300)),
                                      draw(st.floats(0.0, 0.05)),
                                      draw(st.integers(0, 2 ** 32 - 1)))
    if family == "twoclique":
        n = draw(st.integers(4, 150))
        return graphs.gen_two_cliques(draw(st.integers(2, n - 2)), n,
                                      bridged=draw(st.booleans()))
    if family == "cycle":
        return cycle(2 * draw(st.integers(2, 75)))
    isolated = st.integers(1, 20).map(lambda k: graphs.gen_erdos_renyi(k, 0.0, 0))
    return union(*draw(st.lists(bound_graphs() | isolated, min_size=2,
                                max_size=3)))


@settings(max_examples=150, deadline=None)
@given(bound_graphs())
def test_ratio_bound_holds_and_leaves_the_auto_budget_unchanged(g):
    # the cheap bound never falls below lambda1 / kappa (up to the 1e-6
    # margin the step budget leaves it), so the budget capacity_search takes
    # without Lanczos is the one Lanczos gives.  The bound is held to the
    # dense solve: on a union of equal components Lanczos can miss the
    # repeated top and return too small a kappa
    if g.edge_count and not g.is_complete:
        lam1, kappa = dense_lambda1_kappa(g)
        assert spectral._ratio_bound(g) >= lam1 / kappa * (1.0 - 1e-6)
    if g.n >= 3:
        s = spectral.spectrum_summary(g)
        assert capacity._auto_k_max(g) == capacity.default_k_max(s, g.n)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_meaningless_tolerance_is_rejected(tol):
    # rejected before any solve, K_n's closed form included
    for g in (graphs.gen_erdos_renyi(100, 0.3, 9), graphs.gen_complete(5)):
        with pytest.raises(ValueError, match="tol"):
            spectral.spectrum_summary(g, tol=tol)


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


def test_spectrum_scratch_per_arc():
    # a connected graph's spectrum holds the float64 adjacency data, 8
    # bytes per arc, beside the O(n) Lanczos vectors: 9.3 per arc on the
    # first graph.  The component search reads the adjacency in place; a
    # search that built its transpose peaked at 20 there, one gathering
    # each breadth-first level's arcs as int64 indices at 23.  Two equal
    # components are each solved from their own copy of their rows (20.1)
    import scipy.sparse.csgraph  # noqa: F401  (imported first: modules are not scratch)
    import scipy.sparse.linalg  # noqa: F401

    two = copies(graphs.gen_erdos_renyi(1500, 0.2, 0), 2)
    for g, bound in ((graphs.gen_erdos_renyi(3000, 0.1, 0), 10), (two, 22)):
        tracemalloc.start()
        try:
            s = spectral.spectrum_summary(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * g.indices.size
    assert s.kappa == s.lambda1


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


@settings(max_examples=100, deadline=None)
@given(bound_graphs())
def test_spectrum_on_unions_matches_dense(g):
    checked_summary(g)
