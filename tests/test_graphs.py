import hashlib
import math
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from graphmem import graphs


def nbrs(g, v):
    """Vertex v's neighbours: its slice of the CSR indices."""
    return g.indices[g.indptr[v]:g.indptr[v + 1]]


def brute_degrees(g):
    a = graphs.adjacency_matrix(g).toarray()
    return a.sum(axis=1).astype(int)


def test_complete_graph_structure():
    g = graphs.gen_complete(7)
    graphs.validate_graph(g)
    assert g.n == 7
    assert g.edge_count == 21
    assert np.all(brute_degrees(g) == 6)
    assert list(nbrs(g, 3)) == [0, 1, 2, 4, 5, 6]
    # degrees are read off indptr once, and are read-only like it
    assert np.array_equal(g.degrees, np.diff(g.indptr))
    assert g.degrees is g.degrees
    with pytest.raises(ValueError, match="read-only"):
        g.degrees[0] = 0


def test_complete_graph_n1_is_empty():
    g = graphs.gen_complete(1)
    graphs.validate_graph(g)
    assert g.edge_count == 0


def test_gen_complete_rejects_bad_n():
    with pytest.raises(ValueError):
        graphs.gen_complete(0)


def loop_complete_arrays(n):
    # oracle: K_n's CSR arrays built one row at a time
    indices = np.empty(n * (n - 1), dtype=np.int32)
    row = np.arange(n, dtype=np.int32)
    for i in range(n):
        indices[i * (n - 1):(i + 1) * (n - 1)] = np.concatenate([row[:i], row[i + 1:]])
    indptr = np.arange(0, n * (n - 1) + 1, n - 1, dtype=np.int32) if n > 1 \
        else np.zeros(2, dtype=np.int32)
    return indptr, indices


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 257])
def test_gen_complete_matches_row_loop(n):
    g = graphs.gen_complete(n)
    indptr, indices = loop_complete_arrays(n)
    for got, want in ((g.indptr, indptr), (g.indices, indices)):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_int32_arc_limit_is_checked_before_allocating():
    # K_46342 has 46342 * 46341 >= 2^31 arcs: an int32 indptr would wrap,
    # and building it would take about 17 GB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2147534622 arcs"):
            graphs.gen_complete(46342)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    assert graphs.gen_complete(2).indptr.dtype == np.int32
    # 2^30 pairs are 2^31 arcs; zero-stride arrays hold them in no memory
    u, v = (np.broadcast_to(np.int32(k), (2 ** 30,)) for k in (0, 1))
    with pytest.raises(ValueError, match="2147483648 arcs"):
        graphs._from_pairs(2, [u, v])


def traced_peak(f, *args):
    """f(*args) and the peak bytes tracemalloc saw during the call."""
    tracemalloc.start()
    try:
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_scratch_per_arc(tmp_path):
    # int32 pairs and CSR arrays, and for n <= 2^16 one uint32 sort key per
    # arc; the generators and the loader alike drop their pairs before the
    # sort, so each holds pairs and keys, then keys and targets, about 8
    # bytes per arc at its peak.  int64 keys took 12.5, holding the pairs
    # through the sort 16, int64 arrays throughout 24, and the two-clique
    # graph's int64 triu_indices 22.6
    g, peak = traced_peak(graphs.gen_erdos_renyi, 20_000, 1e-3, 0)
    assert peak <= 10.5 * g.indices.size
    w = graphs.powerlaw_weights(20_000, 3.5, 20.0, 200.0)
    c, peak = traced_peak(graphs.gen_chung_lu, w, 0)
    assert peak <= 10.5 * c.indices.size
    t, peak = traced_peak(graphs.gen_two_cliques, 300, 900, True)
    assert peak <= 10.5 * t.indices.size
    path = tmp_path / "g.txt"
    graphs.save_edge_list(g, path)
    back, peak = traced_peak(graphs.load_edge_list, path)
    assert back == g
    assert peak <= 10.5 * g.indices.size


@pytest.mark.parametrize("m_small, n, bridged", [
    (2, 4, False), (2, 4, True), (2, 5, True), (3, 9, True), (5, 12, False),
    (30, 61, True), (40, 42, False)])
def test_two_cliques_match_triu_indices(m_small, n, bridged):
    # the running-sum pairs are the upper triangles of both cliques, as
    # np.triu_indices lists them
    want = []
    for lo, hi in ((0, m_small), (m_small, n)):
        iu, iv = np.triu_indices(hi - lo, k=1)
        want += list(zip((iu + lo).tolist(), (iv + lo).tolist()))
    if bridged:
        want.append((m_small - 1, m_small))
    assert graphs.gen_two_cliques(m_small, n, bridged) == pairs_graph(n, want)


def test_gnp_extreme_p():
    g0 = graphs.gen_erdos_renyi(20, 0.0, 1)
    assert g0.edge_count == 0
    g1 = graphs.gen_erdos_renyi(20, 1.0, 1)
    assert g1 == graphs.gen_complete(20)


def test_gnp_without_pairs_draws_nothing():
    # p = 0 and n = 1 go through the sampler, which draws no number
    for n, p in ((7, 0.0), (1, 0.3)):
        rng = np.random.default_rng(5)
        assert graphs.gen_erdos_renyi(n, p, rng).edge_count == 0
        assert rng.random() == np.random.default_rng(5).random()


def test_subnormal_probabilities_draw_no_edge_without_warning():
    # log1p(-p) is subnormal too, so the geometric skip overflows to +inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert graphs.gen_erdos_renyi(10, 5e-324, 0).edge_count == 0
        w = graphs.WeightSequence([1.0, 1.0, 1.0, 1e-160, 1e-160])
        g = graphs.gen_chung_lu(w, 0)
    assert g.degrees[3] == 0 and g.degrees[4] == 0


def test_gnp_rejects_bad_args():
    with pytest.raises(ValueError):
        graphs.gen_erdos_renyi(10, -0.1, 0)
    with pytest.raises(ValueError):
        graphs.gen_erdos_renyi(10, 1.5, 0)


def test_gnp_is_deterministic_and_valid():
    a = graphs.gen_erdos_renyi(200, 0.1, 42)
    b = graphs.gen_erdos_renyi(200, 0.1, 42)
    c = graphs.gen_erdos_renyi(200, 0.1, 43)
    graphs.validate_graph(a)
    assert a == b
    assert a != c


def test_gnp_edge_count_concentrates():
    # mean = C(n,2) p, sd = sqrt(C(n,2) p (1-p)); 12 seeds, 4 sigma on the mean
    n, p = 600, 0.05
    pairs = n * (n - 1) // 2
    mean, sd = pairs * p, math.sqrt(pairs * p * (1 - p))
    counts = [graphs.gen_erdos_renyi(n, p, s).edge_count for s in range(12)]
    assert abs(np.mean(counts) - mean) < 4 * sd / math.sqrt(len(counts))


@pytest.mark.parametrize("weights,rho", [
    # pair probabilities clamped at 1 among the heavy rows, and a zero weight
    ([3.0, 2.5, 2.0, 1.2, 1.0, 0.7, 0.3, 0.0], 0.2),
    # G(8, 0.3): constant weights, every candidate kept
    ([1.0] * 8, 0.3),
], ids=["chung-lu", "gnp"])
def test_edge_sampler_is_exact(weights, rho):
    # per-pair inclusion frequency against P_ij = min(rho w_i w_j, 1), and
    # the edge-count variance against sum P (1 - P), each within 5 sd
    w = np.array(weights)
    n, reps = w.size, 3000
    iu, iv = np.triu_indices(n, k=1)
    prob = np.minimum(rho * w[iu] * w[iv], 1.0)
    rng = np.random.default_rng(7)
    keys, counts = [], np.empty(reps)
    for r in range(reps):
        u, v = graphs._edge_pairs(w, rho, rng)
        keys.append(u * n + v)
        counts[r] = u.size
    freq = np.bincount(np.concatenate(keys), minlength=n * n)[iu * n + iv] / reps
    var = prob * (1 - prob)
    assert np.all(np.abs(freq - prob) <= 5 * np.sqrt(var / reps))
    # Var(s^2) ~ (sum of Bernoulli 4th cumulants + 2 sigma^4) / reps
    sigma2 = var.sum()
    kappa4 = (var * (1 - 6 * var)).sum()
    assert abs(counts.var(ddof=1) - sigma2) < 5 * math.sqrt((kappa4 + 2 * sigma2 ** 2) / reps)


def test_edge_counts_at_20000_vertices():
    # 4 seeds per model, 5 sd on the mean edge count
    n, p = 20_000, 5e-4
    pairs = n * (n - 1) // 2
    counts = [graphs.gen_erdos_renyi(n, p, s).edge_count for s in range(4)]
    assert abs(np.mean(counts) - pairs * p) < 5 * math.sqrt(pairs * p * (1 - p) / 4)
    w = graphs.powerlaw_weights(n, 3.5, 10.0, 100.0)
    x, rho = w.weights, w.rho_norm
    # sum over i < j of P = rho w_i w_j and of P^2, in closed form
    s1 = rho * (x.sum() ** 2 - (x ** 2).sum()) / 2
    s2 = rho ** 2 * ((x ** 2).sum() ** 2 - (x ** 4).sum()) / 2
    counts = [graphs.gen_chung_lu(w, s).edge_count for s in range(4)]
    assert abs(np.mean(counts) - s1) < 5 * math.sqrt((s1 - s2) / 4)


def test_seed_fixes_the_graph(tmp_path):
    # pins the seed -> graph mapping: changing the sampler or the order of
    # its draws changes these digests
    path = tmp_path / "g.txt"
    digests = []
    for g in (graphs.gen_erdos_renyi(50, 0.1, 0),
              graphs.gen_chung_lu(graphs.WeightSequence(np.linspace(8.0, 0.0, 50)), 0)):
        graphs.save_edge_list(g, path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests == [
        "4880887c18483cae46c6c6f75f3cb1803ea0ef424e812bc17e6972e0c72c553c",  # 106 edges
        "1cb8c7019dc35716cf207441ae713f1ff41b9679d2060d802d8dabb673a93bcd",  # 73 edges
    ]


def test_weight_sequence_copies_and_validates():
    raw = np.array([3.0, 2.0, 2.0, 2.0, 1.0])
    w = graphs.WeightSequence(raw)
    raw[0] = 99.0
    assert w.weights[0] == 3.0
    assert not w.weights.flags.writeable
    with pytest.raises(ValueError):
        graphs.WeightSequence([])                # empty
    with pytest.raises(ValueError):
        graphs.WeightSequence([[1.0], [0.5]])    # not 1-d
    with pytest.raises(ValueError):
        graphs.WeightSequence([1.0, 2.0])        # increasing
    with pytest.raises(ValueError):
        graphs.WeightSequence([1.0, -1.0])       # negative
    with pytest.raises(ValueError):
        graphs.WeightSequence([0.0, 0.0])        # no mass
    with pytest.raises(graphs.InfeasibleWeightsError):
        graphs.WeightSequence([10.0, 1.0])       # max^2 >= total mass


def test_weight_sequence_compares_by_value():
    w = graphs.WeightSequence([2.0, 2.0, 1.0])
    assert w == graphs.WeightSequence(np.array([2.0, 2.0, 1.0]))
    assert w != graphs.WeightSequence([2.0, 2.0, 0.5])
    assert w != graphs.WeightSequence([2.0, 2.0, 1.0, 1.0])
    assert w.__eq__([2.0, 2.0, 1.0]) is NotImplemented
    assert w != [2.0, 2.0, 1.0]
    with pytest.raises(TypeError):
        hash(w)                                  # as for Graph: arrays inside


def test_weight_sequence_expected_degrees():
    w = graphs.WeightSequence([4.0, 3.0, 3.0, 3.0, 2.0, 2.0])
    assert w.n == 6
    assert w.rho_norm == pytest.approx(1.0 / 17.0)


def test_powerlaw_weights_match_target_moments():
    n, beta, d_avg, m_bar = 100_000, 3.5, 10.0, 100.0
    w = graphs.powerlaw_weights(n, beta, d_avg, m_bar)
    # the construction is exact up to the cutoff rounding: the top weight
    # should sit within 10% of the max-degree target and the average within
    # a few percent of d_avg
    assert 0.9 * m_bar <= w.weights[0] <= 1.1 * m_bar
    assert abs(w.weights.mean() - d_avg) / d_avg < 0.05
    # closed form: w_i = c (i0 + i)^(-1/(beta-1)), with c and i0 as the
    # docstring defines them
    c = (beta - 2.0) / (beta - 1.0) * d_avg * n ** (1.0 / (beta - 1.0))
    i0 = max(1, round(n * (d_avg * (beta - 2.0) / (m_bar * (beta - 1.0))) ** (beta - 1.0)))
    i = np.array([0, 1000, n - 1])
    assert w.weights[i] == pytest.approx(c * (i0 + i) ** (-1.0 / (beta - 1.0)))
    with pytest.raises(ValueError):
        graphs.powerlaw_weights(100, 1.9, 5.0, 20.0)
    with pytest.raises(ValueError):
        graphs.powerlaw_weights(100, 3.5, 30.0, 20.0)


def test_powerlaw_second_order_average_exceeds_first():
    w = graphs.powerlaw_weights(100_000, 3.5, 10.0, 100.0)
    d = w.weights.mean()
    d2 = (w.weights ** 2).sum() / w.weights.sum()
    assert 1.2 < d2 / d < 2.0


def test_chung_lu_rejects_increasing_weights():
    # the sampler needs non-increasing weights; no WeightSequence can be
    # built without them
    with pytest.raises(ValueError, match="non-increasing"):
        graphs.WeightSequence(np.array([1.0, 2.0, 3.0]))


def test_chung_lu_matches_expected_degrees():
    # E[deg i] = w_i rho sum_{j != i} w_j = w_i (1 - rho w_i) under the
    # normalization rho = 1/sum(w); average over many draws, 5 sigma window
    w = graphs.WeightSequence(np.linspace(8.0, 1.0, 60))
    reps = 400
    acc = np.zeros(60)
    for s in range(reps):
        acc += brute_degrees(graphs.gen_chung_lu(w, s))
    emp = acc / reps
    expect = w.weights * (1.0 - w.rho_norm * w.weights)
    sd = np.sqrt(np.maximum(expect, 1e-9) / reps)
    assert np.all(np.abs(emp - expect) < 5 * sd + 0.05)


def test_chung_lu_zero_weight_vertices_are_isolated():
    w = graphs.WeightSequence([2.0, 2.0, 1.0, 1.0, 0.0, 0.0])
    for s in range(20):
        g = graphs.gen_chung_lu(w, s)
        graphs.validate_graph(g)
        assert len(nbrs(g, 4)) == 0
        assert len(nbrs(g, 5)) == 0


def test_chung_lu_uniform_weights_reduce_to_gnp():
    # constant weights w := pn make every pair probability w^2/sum(w) = p
    from scipy import stats
    n, p = 300, 0.1
    w = graphs.WeightSequence(np.full(n, p * n))
    deg_cl = np.concatenate([brute_degrees(graphs.gen_chung_lu(w, s)) for s in range(8)])
    deg_er = np.concatenate([brute_degrees(graphs.gen_erdos_renyi(n, p, 900 + s)) for s in range(8)])
    res = stats.ks_2samp(deg_cl, deg_er)
    assert res.pvalue > 0.01


def test_two_cliques_structure():
    g = graphs.gen_two_cliques(4, 10, bridged=False)
    graphs.validate_graph(g)
    assert g.edge_count == 6 + 15
    assert set(nbrs(g, 0)) == {1, 2, 3}
    assert set(nbrs(g, 4)) == {5, 6, 7, 8, 9}
    gb = graphs.gen_two_cliques(4, 10, bridged=True)
    graphs.validate_graph(gb)
    assert gb.edge_count == 6 + 15 + 1
    assert set(nbrs(gb, 3)) == {0, 1, 2, 4}
    with pytest.raises(ValueError):
        graphs.gen_two_cliques(1, 10)
    with pytest.raises(ValueError):
        graphs.gen_two_cliques(9, 10)


def test_degree_stats_on_edgeless_graphs():
    for g in (graphs.gen_erdos_renyi(7, 0.0, 0), graphs.gen_complete(1)):
        assert graphs.degree_stats(g) == graphs.DegreeStats(0, 0, 0.0, 0.0, 0)


def test_degree_stats_on_path(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    g = graphs.load_edge_list(path)
    d = graphs.degree_stats(g)
    assert d.delta == 1
    assert d.m == 2
    assert d.d_avg == pytest.approx(4.0 / 3.0)
    assert d.d_tilde == pytest.approx(6.0 / 4.0)
    assert d.edge_count == 2


def test_edge_endpoints_lists_every_arc():
    g = graphs.gen_erdos_renyi(30, 0.2, 3)
    src, dst = graphs.edge_endpoints(g)
    assert src.shape == dst.shape == (2 * g.edge_count,)
    arcs = set(zip(src.tolist(), dst.tolist()))
    assert len(arcs) == 2 * g.edge_count
    assert all((v, u) in arcs for u, v in arcs)


def test_adjacency_matrix_sparse_and_dense_agree():
    g = graphs.gen_erdos_renyi(25, 0.3, 11)
    a = graphs.adjacency_matrix(g)
    # scipy keeps int32 index arrays as given, so nothing is copied
    assert np.shares_memory(a.indices, g.indices)
    assert np.shares_memory(a.indptr, g.indptr)
    a_d = a.toarray()
    want = np.zeros((g.n, g.n))
    for i in range(g.n):
        want[i, nbrs(g, i)] = 1.0
    assert np.array_equal(a_d, want)
    assert np.array_equal(a_d, a_d.T)
    assert np.all(np.diag(a_d) == 0)


def test_graph_arrays_are_frozen():
    g = graphs.gen_complete(5)
    with pytest.raises(ValueError):
        g.indices[0] = 3


def test_edge_list_round_trip(tmp_path):
    for g in (graphs.gen_complete(7),
              graphs.gen_erdos_renyi(40, 0.3, 5),
              graphs.gen_erdos_renyi(12, 0.0, 5)):
        path = tmp_path / "g.txt"
        graphs.save_edge_list(g, path)
        assert graphs.load_edge_list(path) == g


def test_zero_vertex_edge_list_loads(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 0\n")
    g = graphs.load_edge_list(path)
    graphs.validate_graph(g)
    assert g.n == 0 and g.edge_count == 0


def test_edge_list_format(tmp_path):
    g = graphs.gen_two_cliques(2, 5, bridged=True)
    path = tmp_path / "g.txt"
    graphs.save_edge_list(g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "5 5"
    pairs = [tuple(map(int, ln.split())) for ln in lines[1:]]
    assert all(i < j for i, j in pairs)
    assert pairs == sorted(pairs)


@pytest.mark.parametrize("text,lineno", [
    ("", 1),                                  # no header
    ("abc\n", 1),                             # malformed header
    ("3\n", 1),                               # header missing field
    ("3 1\n\n0 1\n", 2),                      # blank line
    ("3 1\n0 x\n", 2),                        # non-integer vertex
    ("3 1\n0 5\n", 2),                        # out of range
    ("3 1\n1 1\n", 2),                        # self-loop
    ("3 1\n1 0\n", 2),                        # endpoints out of order
    ("3 2\n0 1\n0 1\n", 3),                   # duplicate edge
    ("3 2\n0 1\n", 2),                        # fewer edges than declared
    ("3 1\n0 1\n0 2\n", 3),                   # more edges than declared
    ("3 1\r\n0 x\r\n", 2),                    # CRLF line ends
    ("3 2\r\n0 1\r\n", 2),                    # CRLF, fewer edges
])
def test_edge_list_parse_errors(tmp_path, text, lineno):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(graphs.EdgeListParseError) as exc:
        graphs.load_edge_list(path)
    assert exc.value.line_number == lineno


def test_crlf_edge_list_matches_lf(tmp_path):
    g = graphs.gen_two_cliques(3, 7, bridged=True)
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    graphs.save_edge_list(g, lf)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert graphs.load_edge_list(crlf) == g
    for text, want in [("abc\n", "line 1: expected 'n edge_count', got 'abc'"),
                       ("3 2\n0 1\n", "line 2: header declares 2 edges, found 1"),
                       ("3 1\n0 1\n0 2\n", "line 3: more than 1 edges declared in header"),
                       ("3 1\n1 0\n", "line 2: vertices out of order in '1 0'")]:
        for ending in ("\n", "\r\n"):
            lf.write_bytes(text.replace("\n", ending).encode())
            with pytest.raises(graphs.EdgeListParseError) as exc:
                graphs.load_edge_list(lf)
            assert str(exc.value) == want


@pytest.mark.parametrize("text,message", [
    ("2147483648 0\n", "line 1: 2147483648 vertices: int32 CSR arrays hold fewer than 2^31"),
    ("3 1\n0 2147483648\n", "line 2: vertex out of range in '0 2147483648'"),
    ("3 1\n-2147483649 1\n", "line 2: vertex out of range in '-2147483649 1'"),
])
def test_labels_past_int32_are_rejected(tmp_path, text, message):
    path = tmp_path / "g.txt"
    path.write_text(text)
    with pytest.raises(graphs.EdgeListParseError) as exc:
        graphs.load_edge_list(path)
    assert str(exc.value) == message


def text_mode_lines(path):
    """The number of lines of a file as text mode reads them."""
    with open(path) as fh:
        text = fh.read()
    return text.count("\n") + (text[-1:] not in ("", "\n"))


@pytest.mark.parametrize("ending, final", [("\n", True), ("\r\n", True), ("\r", True),
                                           ("\n", False)],
                         ids=["lf", "crlf", "lone-cr", "no-final-newline"])
def test_lines_counted_in_bytes_as_text_mode_reads_them(tmp_path, monkeypatch, ending, final):
    # reads of 1, 2 and 3 bytes split a "\r\n" between two reads
    g = graphs.gen_two_cliques(3, 7, bridged=True)
    path = tmp_path / "g.txt"
    graphs.save_edge_list(g, path)

    def write(text):
        data = text.replace("\n", ending).encode()
        path.write_bytes(data if final else data[:-len(ending)])

    write(path.read_text())
    for chunk in (1, 2, 3, graphs._READ_CHUNK):
        monkeypatch.setattr(graphs, "_READ_CHUNK", chunk)
        assert graphs._count_lines(path) == text_mode_lines(path) == g.edge_count + 1
        assert graphs.load_edge_list(path) == g
    for text, want in [("3 2\n0 1\n", "line 2: header declares 2 edges, found 1"),
                       ("3 1\n0 1\n0 2\n", "line 3: more than 1 edges declared in header"),
                       ("3 1\n0 x\n", "line 2: non-integer vertex in '0 x'")]:
        write(text)
        with pytest.raises(graphs.EdgeListParseError) as exc:
            graphs.load_edge_list(path)
        assert str(exc.value) == want


def test_duplicate_edge_names_its_first_line(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("5 4\n0 1\n1 2\n2 3\n1 2\n")
    with pytest.raises(graphs.EdgeListParseError,
                       match=r"^line 5: duplicate edge 1 2 \(first at line 3\)$"):
        graphs.load_edge_list(path)


@st.composite
def any_graph(draw):
    """A graph from one of the generators, edgeless and one-vertex graphs
    included."""
    kind = draw(st.sampled_from(["complete", "gnp", "chunglu", "twoclique"]))
    seed = draw(st.integers(0, 2 ** 31))
    if kind == "complete":
        return graphs.gen_complete(draw(st.integers(1, 30)))
    if kind == "gnp":
        p = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
        return graphs.gen_erdos_renyi(draw(st.integers(1, 40)), p, seed)
    if kind == "chunglu":
        n = draw(st.integers(1, 40))
        base = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, n))[::-1]
        base /= base[0]
        base[n - draw(st.integers(0, n - 1)):] = 0.0   # isolated tail
        # scale t < sum(base) keeps max(w)^2 = t^2 below sum(w) = t sum(base)
        scale = draw(st.floats(0.05, 0.95)) * base.sum()
        return graphs.gen_chung_lu(graphs.WeightSequence(scale * base), seed)
    n = draw(st.integers(4, 30))
    return graphs.gen_two_cliques(draw(st.integers(2, n - 2)), n,
                                  bridged=draw(st.booleans()))


@settings(max_examples=100, deadline=None)
@given(any_graph())
@example(graphs.gen_complete(1))
@example(graphs.gen_erdos_renyi(1, 0.5, 0))
@example(graphs.gen_erdos_renyi(12, 0.0, 0))
@example(graphs.gen_two_cliques(3, 9, bridged=True))
def test_edge_list_round_trip_every_generator(g):
    graphs.validate_graph(g)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        graphs.save_edge_list(g, path)
        back = graphs.load_edge_list(path)
    graphs.validate_graph(back)
    assert back == g
    assert np.array_equal(back.degrees, g.degrees)
    for a in (g.indptr, g.indices, back.indptr, back.indices):
        assert a.dtype == np.int32


def pairs_graph(n, pairs):
    e = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    return graphs._from_pairs(n, [e[:, 0], e[:, 1]])


def oracle_runs(g):
    """The run cuts by their definition, in plain Python: scanning j
    upward, j starts a new run when it has a lower-indexed neighbour in
    the current run."""
    cuts = [0]
    for j in range(1, g.n):
        if any(cuts[-1] <= i < j for i in nbrs(g, j).tolist()):
            cuts.append(j)
    return cuts + [g.n] if g.n else cuts


@settings(max_examples=100, deadline=None)
@given(any_graph())
@example(pairs_graph(12, [(i, i + 1) for i in range(11)]))
@example(pairs_graph(12, [(0, j) for j in range(1, 12)]))
@example(pairs_graph(12, [(j, 11) for j in range(11)]))
@example(pairs_graph(12, []))
@example(graphs.gen_complete(1))
@example(pairs_graph(0, []))
def test_runs_match_their_definition(g):
    cuts = g._runs
    assert list(cuts) == oracle_runs(g)
    assert cuts[0] == 0 and cuts[-1] == g.n
    assert all(lo < hi for lo, hi in zip(cuts[:-1], cuts[1:]))
    run = np.repeat(np.arange(len(cuts) - 1), np.diff(cuts))
    src, dst = graphs.edge_endpoints(g)
    assert np.all(run[src] != run[dst])         # no edge inside a run
    # every cut is forced: its vertex has a neighbour in the run it ends
    for lo, hi in zip(cuts[:-2], cuts[1:-1]):
        assert np.any((nbrs(g, hi) >= lo) & (nbrs(g, hi) < hi))


ZIGZAG = [v for k in range(6) for v in (k, 11 - k)]


@pytest.mark.parametrize("pairs,runs", [
    ([(i, i + 1) for i in range(11)], 12),
    # the path 0, 11, 1, 10, 2, 9, ...: 0..5 see only higher vertices
    ([tuple(sorted(e)) for e in zip(ZIGZAG[:-1], ZIGZAG[1:])], 2),
    ([(0, j) for j in range(1, 12)], 2),
    ([(j, 11) for j in range(11)], 2),
    # each of 0..3 ends a run, 4 joins 3's, each of 5..8 ends one, and
    # the isolated 9..11 join 8's
    ([(i, j) for c in (range(4), range(4, 9)) for i in c for j in c if i < j], 8),
    ([], 1),
], ids=["path", "path_zigzag", "star_first", "star_last", "cliques", "edgeless"])
def test_run_count(pairs, runs):
    g = pairs_graph(12, pairs)
    assert len(g._runs) - 1 == runs
    assert g._runs is g._runs


def test_integer_fields_are_ascii_digits(tmp_path):
    # np.loadtxt reads neither "_" separators nor other scripts' digits,
    # although Python's int() reads both; a byte that is not UTF-8 (written
    # here as its surrogate, \udcff for 0xff) is a malformed field too, not
    # a decode error, and the message quotes it as its escape \xff
    path = tmp_path / "g.txt"
    for text, want in [("3 1\n0 1_0\n", "line 2: non-integer vertex in '0 1_0'"),
                       ("3 1\n0 ٢\n", "line 2: non-integer vertex in '0 ٢'"),
                       ("1_0 0\n", "line 1: non-integer header field in '1_0 0'"),
                       ("3 1\n0 \udcff1\n", "line 2: non-integer vertex in '0 \\\\xff1'"),
                       ("3 \udcff\n0 1\n", "line 1: non-integer header field in '3 \\\\xff'")]:
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(graphs.EdgeListParseError) as exc:
            graphs.load_edge_list(path)
        assert str(exc.value) == want
    path.write_bytes(b"3 1\n0 \xff1\n")
    assert graphs._parse_pairs(path) is None
    path.write_text("+3 1\n-0 +2\n")
    assert graphs.load_edge_list(path) == raw_graph([[2], [], [0]])


@pytest.mark.parametrize("text", ["0 0\n", "5 0\n", "5 0"])
def test_edgeless_edge_list_loads_without_warning(tmp_path, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = graphs.load_edge_list(path)
    assert g.edge_count == 0 and g.n == int(text.split()[0])
    path.write_text(text.rstrip("\n") + "\n \t\n")   # a body np.loadtxt finds empty
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(graphs.EdgeListParseError, match="^line 2: blank line$"):
            graphs.load_edge_list(path)


def test_valid_edge_list_is_not_read_line_by_line(tmp_path, monkeypatch):
    def scan(*args):
        raise AssertionError("line scan of a valid file")
    monkeypatch.setattr(graphs, "_raise_first_bad_line", scan)
    path = tmp_path / "g.txt"
    for g in (graphs.gen_erdos_renyi(60, 0.2, 3), graphs.gen_complete(1)):
        graphs.save_edge_list(g, path)
        assert graphs.load_edge_list(path) == g
    path.write_text("4 1\r\n 0\t 3  \r\n")
    assert graphs.load_edge_list(path).edge_count == 1


def test_save_edge_list_chunks_match_one_line_per_edge(tmp_path, monkeypatch):
    g = graphs.gen_erdos_renyi(40, 0.3, 1)
    path = tmp_path / "g.txt"
    src, dst = graphs.edge_endpoints(g)
    want = f"{g.n} {g.edge_count}\n" + "".join(
        f"{i} {j}\n" for i, j in zip(src.tolist(), dst.tolist()) if i < j)
    for chunk in (1, 7, 1 << 16):
        monkeypatch.setattr(graphs, "_ARC_CHUNK", chunk)
        graphs.save_edge_list(g, path)
        assert path.read_text() == want


def oracle_load(path):
    """The per-line edge-list loader that load_edge_list replaced, kept as
    the oracle for its graphs and its errors."""
    with open(path) as fh:
        header = fh.readline()
        if not header:
            raise graphs.EdgeListParseError(1, "missing header line")
        header = header.rstrip("\n")
        head = header.split()
        if len(head) != 2:
            raise graphs.EdgeListParseError(1, f"expected 'n edge_count', got {header!r}")
        try:
            n, count = int(head[0]), int(head[1])
        except ValueError:
            raise graphs.EdgeListParseError(
                1, f"non-integer header field in {header!r}") from None
        if n < 0 or count < 0:
            raise graphs.EdgeListParseError(1, "negative header field")
        seen = set()
        edges = []
        lineno = 1
        for lineno, raw in enumerate(fh, start=2):
            raw = raw.rstrip("\n")
            if not raw.strip():
                raise graphs.EdgeListParseError(lineno, "blank line")
            parts = raw.split()
            if len(parts) != 2:
                raise graphs.EdgeListParseError(lineno, f"expected 'i j', got {raw!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise graphs.EdgeListParseError(
                    lineno, f"non-integer vertex in {raw!r}") from None
            if not (0 <= i < n and 0 <= j < n):
                raise graphs.EdgeListParseError(lineno, f"vertex out of range in {raw!r}")
            if i == j:
                raise graphs.EdgeListParseError(lineno, f"self-loop {i}")
            if i > j:
                raise graphs.EdgeListParseError(lineno, f"vertices out of order in {raw!r}")
            if (i, j) in seen:
                # edge k sits on line k + 2, after the header
                first = edges.index((i, j)) + 2
                raise graphs.EdgeListParseError(
                    lineno, f"duplicate edge {i} {j} (first at line {first})")
            seen.add((i, j))
            if len(edges) >= count:
                raise graphs.EdgeListParseError(
                    lineno, f"more than {count} edges declared in header")
            edges.append((i, j))
    if len(edges) != count:
        raise graphs.EdgeListParseError(
            lineno, f"header declares {count} edges, found {len(edges)}")
    rows = [[] for _ in range(n)]
    for i, j in edges:
        rows[i].append(j)
        rows[j].append(i)
    return raw_graph([sorted(r) for r in rows])


MUTATIONS = ["blank", "whitespace", "one_field", "three_fields", "non_integer",
             "hash", "negative", "out_of_range", "self_loop", "swapped",
             "duplicate", "header_plus_one", "header_minus_one", "crlf",
             "no_final_newline", "tabs_and_spaces"]


def mutate(lines, n, kind, data):
    """Apply one mutation to the lines (without line ends) of a saved edge
    list; returns the file's text."""
    body = len(lines) - 1
    at = data.draw(st.integers(1, max(body, 1)))          # a body line
    where = data.draw(st.integers(1, body + 1))            # an insertion point
    edge = lines[at].split() if body else ["0", "1"]
    put = lines.__setitem__ if body else (lambda k, line: lines.append(line))
    field = data.draw(st.integers(0, 1))
    if kind == "blank":
        lines.insert(where, "")
    elif kind == "whitespace":
        lines.insert(where, data.draw(st.sampled_from([" ", "\t", " \t  "])))
    elif kind == "one_field":
        put(at, edge[field])
    elif kind == "three_fields":
        put(at, " ".join(edge + [str(data.draw(st.integers(0, n + 1)))]))
    elif kind in ("non_integer", "hash", "negative", "out_of_range"):
        edge[field] = {
            "non_integer": data.draw(st.sampled_from(["x", "1.0", "0x1", "1e3", "--1", "1-"])),
            "hash": data.draw(st.sampled_from(["#", "#0", "0#"])),
            "negative": str(-data.draw(st.integers(1, 3))),
            "out_of_range": str(n + data.draw(st.integers(0, 3))),
        }[kind]
        put(at, " ".join(edge))
    elif kind == "self_loop":
        put(at, f"{edge[field]} {edge[field]}")
    elif kind == "swapped":
        put(at, f"{edge[1]} {edge[0]}")
    elif kind == "duplicate":
        if body:
            lines.insert(data.draw(st.integers(at + 1, body + 1)), lines[at])
    elif kind in ("header_plus_one", "header_minus_one"):
        count = int(lines[0].split()[1]) + (1 if kind == "header_plus_one" else -1)
        lines[0] = f"{n} {count}"
    elif kind == "tabs_and_spaces":
        ws = st.text(" \t", min_size=1, max_size=3)
        k = data.draw(st.integers(0, body))
        a, b = lines[k].split()
        lines[k] = (data.draw(st.sampled_from(["", " ", "\t "])) + a + data.draw(ws) + b
                    + data.draw(st.sampled_from(["", " ", " \t"])))
    text = "\n".join(lines) + "\n"
    if kind == "crlf":
        text = text.replace("\n", "\r\n")
    elif kind == "no_final_newline":
        text = text[:-1]
    return text


def load_outcome(load, path):
    """The graph load(path) returns, or the line and message it raises."""
    try:
        g = load(path)
    except graphs.EdgeListParseError as exc:
        return exc.line_number, str(exc)
    return g.n, g.indptr.tolist(), g.indices.tolist(), g.degrees.tolist()


@settings(max_examples=300, deadline=None)
@given(any_graph(), st.sampled_from(MUTATIONS), st.data())
def test_loader_matches_per_line_oracle(g, kind, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        graphs.save_edge_list(g, path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        text = mutate(lines, g.n, kind, data)
        with open(path, "w", newline="") as fh:
            fh.write(text)
        want = load_outcome(oracle_load, path)
        assert load_outcome(graphs.load_edge_list, path) == want
    if kind in ("crlf", "no_final_newline", "tabs_and_spaces"):
        assert want[:2] == (g.n, g.indptr.tolist())



def raw_graph(rows, indptr=None):
    """A Graph built straight from adjacency lists, unchecked."""
    indices = np.array([j for row in rows for j in row], dtype=np.int64)
    if indptr is None:
        indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
    return graphs.Graph(np.asarray(indptr, dtype=np.int64), indices)


K4 = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]


REJECTIONS = pytest.mark.parametrize("g,message", [
    (raw_graph(K4, indptr=[1, 3, 6, 9, 12]), "indptr inconsistent"),
    (raw_graph(K4, indptr=[0, 3, 6, 9, 11]), "indptr inconsistent"),
    (graphs.Graph(np.empty(0, np.int64), np.empty(0, np.int64)), "indptr inconsistent"),
    (raw_graph([[1], [0, 4], [], []]), "out of range"),
    (raw_graph([[1], [-1, 0], [], []]), "out of range"),
    (raw_graph([[1], [0, 1], [], []]), "self-loop"),
    (raw_graph([[1, 2, 3], [0, 2, 3], [3, 1, 0], [0, 1, 2]]),
     r"^neighbor list of 2 not strictly increasing$"),
    (raw_graph([[1, 2, 3], [0, 2, 2, 3], [0, 1, 3], [0, 1, 2]]),
     r"^neighbor list of 1 not strictly increasing$"),
    (raw_graph([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1]]), "not symmetric"),
    (raw_graph(K4, indptr=[0, 3, 2, 9, 12]), "indptr inconsistent"),
    (raw_graph([[2, 1, 3], [0, 2, 3], [0, 1, 2], [0, 1, 2]]), "self-loop"),
    (raw_graph([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2], [], [6, 0], [5]]),
     r"^neighbor list of 5 not strictly increasing$"),
], ids=["indptr-start", "indptr-end", "indptr-empty", "index-high",
        "index-negative", "self-loop", "unsorted", "repeated", "asymmetric",
        "indptr-decreasing", "self-loop-after-unsorted", "unsorted-after-empty-row"])


@REJECTIONS
def test_validate_graph_rejections(g, message):
    with pytest.raises(ValueError, match=message):
        graphs.validate_graph(g)
    graphs.validate_graph(raw_graph(K4))


@REJECTIONS
@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_validate_graph_rejections_across_key_blocks(g, message, chunk, monkeypatch):
    # the keys go in blocks of _ARC_CHUNK arcs: a fault that straddles two
    # blocks, or sits in a later block than another, reads the same
    monkeypatch.setattr(graphs, "_ARC_CHUNK", chunk)
    with pytest.raises(ValueError, match=message):
        graphs.validate_graph(g)
    graphs.validate_graph(raw_graph(K4))
    graphs.validate_graph(graphs.gen_two_cliques(3, 9, bridged=True))


def test_validate_graph_scratch_is_about_one_key_per_arc():
    # the reversed keys are the one arc-sized array, uint32 for n <= 2^16;
    # the forward keys and the sources are formed a block of _ARC_CHUNK
    # arcs at a time
    g = graphs.gen_erdos_renyi(4096, 0.15, 0)
    graphs.validate_graph(graphs.gen_complete(3))
    tracemalloc.start()
    try:
        graphs.validate_graph(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.indices.dtype == np.int32
    assert peak <= 1.3 * 4 * g.indices.size


# edges at the labels where the decimal width grows
WIDTH_EDGES = [(0, 1), (8, 9), (9, 10), (0, 10), (10, 11), (9, 99), (99, 100),
               (10, 100), (100, 101), (1, 99999), (99999, 100000), (9, 100000),
               (100000, 100001)]


@pytest.mark.parametrize("n", [0, 1, 2, 10, 11, 100, 101, 100_001])
def test_save_edge_list_bytes_match_per_line_reference(tmp_path, monkeypatch, n):
    edges = sorted((i, j) for i, j in WIDTH_EDGES if j < n)
    g = pairs_graph(n, edges)
    want = (f"{n} {len(edges)}\n" + "".join(f"{i} {j}\n" for i, j in edges)).encode()
    path = tmp_path / "g.txt"
    for chunk in (1, 7, graphs._ARC_CHUNK):
        monkeypatch.setattr(graphs, "_ARC_CHUNK", chunk)
        graphs.save_edge_list(g, path)
        assert path.read_bytes() == want, chunk


def rewired(g, *moves):
    """g with each arc v -> old of the moves (v, old, new) pointed at new
    instead, or dropped where new is None; every row stays sorted."""
    rows = [nbrs(g, v).tolist() for v in range(g.n)]
    for v, old, new in moves:
        rows[v].remove(old)
        if new is not None:
            rows[v] = sorted(rows[v] + [new])
    return raw_graph(rows)


def unreached(g, v):
    """The vertices other than v that v has no arc to."""
    return np.setdiff1d(np.arange(g.n), np.append(nbrs(g, v), v))


@settings(max_examples=100, deadline=None)
@given(any_graph(), st.integers(0, 2 ** 31), st.integers(0, 2 ** 31))
@example(graphs.gen_two_cliques(3, 9, bridged=True), 0, 0)
@example(graphs.gen_erdos_renyi(30, 0.3, 1), 2 ** 31, 5)
@example(pairs_graph(4, [(0, 1), (2, 3)]), 0, 2)
def test_validate_graph_finds_one_broken_reverse_arc(g, a, b):
    with pytest.MonkeyPatch.context() as mp:
        # blocks of 3 arcs put the broken arc and its partner in different
        # key blocks on all but the smallest graphs
        mp.setattr(graphs, "_ARC_CHUNK", 3 if a % 2 else graphs._ARC_CHUNK)
        check_one_broken_reverse_arc(g, a, b)


def check_one_broken_reverse_arc(g, a, b):
    graphs.validate_graph(g)
    if not g.edge_count:
        return
    src, dst = graphs.edge_endpoints(g)
    i, j = int(src[a % src.size]), int(dst[a % src.size])
    broken = [rewired(g, (j, i, None))]
    # retarget j -> i to a vertex j does not reach yet, so no row repeats
    free = unreached(g, j)
    if free.size:
        broken.append(rewired(g, (j, i, int(free[b % free.size]))))
    # swap the targets of i -> j and k -> l: every degree stays the same
    k, l = int(src[b % src.size]), int(dst[b % src.size])
    if k != i and l in unreached(g, i) and j in unreached(g, k):
        broken.append(rewired(g, (i, j, l), (k, l, j)))
    for h in broken:
        with pytest.raises(ValueError, match="not symmetric"):
            graphs.validate_graph(h)


def test_keys_past_int32_round_trip_and_stay_exact(tmp_path):
    # n^2 > 2^31: a key src * n + dst computed in 32 bits would wrap
    check_keys_round_trip(tmp_path, 70_000)


@pytest.mark.parametrize("n", [2 ** 16, 2 ** 16 + 1])
def test_keys_at_the_uint32_limit_round_trip(tmp_path, n):
    # n = 2^16 is the largest n with uint32 keys, and its last arc
    # (n - 1) -> (n - 2) has the largest, 2^32 - 2; one vertex more and
    # the keys are int64
    keys = check_keys_round_trip(tmp_path, n)
    assert keys.dtype == (np.uint32 if n == 2 ** 16 else np.int64)
    assert int(keys[-1]) == (n - 1) * n + n - 2


def check_keys_round_trip(tmp_path, n):
    """Build, validate, save and reload a graph whose arcs reach the
    largest keys of n vertices, and reject two asymmetric rewires of it,
    with int64 and with int32 indices; returns its sorted arc keys."""
    pairs = [(0, 1), (1, n - 1), (12_345, n - 2), (n - 2, n - 1)]
    e = np.array(pairs, dtype=np.int32)
    keys = np.sort(graphs._arc_keys(n, e[:, 0], e[:, 1]))
    g = pairs_graph(n, pairs)
    assert g == graphs._from_keys(n, keys)
    assert g.indptr[n - 1] == 6 and g.indptr[n] == 8
    graphs.validate_graph(g)
    path = tmp_path / "g.txt"
    graphs.save_edge_list(g, path)
    back = graphs.load_edge_list(path)
    graphs.validate_graph(back)
    assert back == g
    assert nbrs(back, n - 1).tolist() == [1, n - 2]
    # the same graphs with int32 indices: the keys must still not wrap
    graphs.validate_graph(graphs.Graph(g.indptr, g.indices.astype(np.int32)))
    for asym in (rewired(g, (n - 1, n - 2, None)), rewired(g, (n - 2, n - 1, 3))):
        with pytest.raises(ValueError, match="not symmetric"):
            graphs.validate_graph(asym)
        with pytest.raises(ValueError, match="not symmetric"):
            graphs.validate_graph(graphs.Graph(asym.indptr, asym.indices.astype(np.int32)))
    return keys
