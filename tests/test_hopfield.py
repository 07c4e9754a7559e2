import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from graphmem import graphs, hopfield

SRC = str(Path(graphs.__file__).resolve().parents[1])


def brute_weights(g, p):
    # W_ij = a_ij * sum_mu xi_i xi_j, exact integers
    a = graphs.adjacency_matrix(g).toarray().astype(np.int64)
    xi = p.bits.astype(np.int64)
    return a * (xi.T @ xi)


def brute_fields(g, p, s):
    return brute_weights(g, p) @ np.asarray(s, dtype=np.int64)


def brute_sweep(g, p, s):
    # the sequential map vertex by vertex on the dense couplings
    w = brute_weights(g, p)
    out = np.array(s, dtype=np.int64)
    for i in range(g.n):
        out[i] = 1 if w[i] @ out >= 0 else -1
    return out


def brute_energy_pair(g, p, s):
    w = brute_weights(g, p)
    s64 = np.asarray(s, dtype=np.int64)
    h_s = -float(s64 @ w @ s64) / g.n
    h_t = -float(np.abs(w @ s64).sum()) / g.n
    return h_s, h_t


def random_state(rng, n):
    return (rng.integers(0, 2, n, dtype=np.int8) * 2 - 1).astype(np.int8)


def test_sample_patterns_shape_and_determinism():
    p = hopfield.sample_patterns(4, 50, 9)
    assert p.bits.shape == (4, 50)
    assert set(np.unique(p.bits)) <= {-1, 1}
    assert np.array_equal(p.bits, hopfield.sample_patterns(4, 50, 9).bits)
    assert not np.array_equal(p.bits, hopfield.sample_patterns(4, 50, 10).bits)
    assert np.array_equal(p.pattern(2), p.bits[2])
    assert p.m_patterns == 4 and p.n == 50


def test_pattern_bits_are_frozen():
    p = hopfield.sample_patterns(2, 10, 0)
    with pytest.raises(ValueError):
        p.bits[0, 0] = 1


# pattern counts on both sides of the byte and 64-bit word boundaries of
# the packed patterns
PACK_M = (1, 7, 8, 9, 63, 64, 65, 128, 129)


def oracle_edge_weights(g, p):
    """The per-arc pattern product that the popcount build replaced, kept
    as the oracle for its weights."""
    bits = p.bits
    src, dst = graphs.edge_endpoints(g)
    out = np.empty(dst.size, dtype=np.int32)
    chunk = max(1, int(4e6 // max(bits.shape[0], 1)))
    for lo in range(0, dst.size, chunk):
        hi = min(lo + chunk, dst.size)
        prod = bits[:, src[lo:hi]] * bits[:, dst[lo:hi]]
        out[lo:hi] = prod.sum(axis=0, dtype=np.int32)
    return out


# density 1 gives K_n and the closed-form storage; every other graph,
# near-complete ones included, takes CSR
@pytest.mark.parametrize("storage,density", [("complete", (1.0, 1.0)),
                                             ("csr", (0.1, 0.4)),
                                             ("csr", (0.7, 0.95))],
                         ids=["complete", "csr", "near_complete"])
def test_fields_match_brute_force(storage, density):
    # every pack boundary of M, and n down to 1, so that some graphs have
    # fewer rows than the engine has threads
    rng = np.random.default_rng(5)
    for m in PACK_M:
        for n in (1, 2, 3, int(rng.integers(4, 30))):
            if storage == "csr" and n == 1:
                continue    # the one graph on one vertex is K_1
            while True:
                g = graphs.gen_erdos_renyi(n, float(rng.uniform(*density)),
                                           int(rng.integers(2 ** 31)))
                if storage == "complete" or g.indices.size < n * (n - 1):
                    break   # else a sparse draw came out complete: redraw
            p = hopfield.sample_patterns(m, n, int(rng.integers(2 ** 31)))
            eng = hopfield.FieldEngine(g, p)
            assert eng.storage == storage
            s = random_state(rng, n)
            got = eng.fields(s)
            assert got.dtype == np.int32
            assert np.array_equal(got, brute_fields(g, p, s))
            swept = hopfield.sequential_sweep(eng, s)
            assert swept.dtype == np.int8
            assert np.array_equal(swept, brute_sweep(g, p, s))
            block = np.stack([random_state(rng, n) for _ in range(4)], axis=1)
            for cols in (block[:, :1], block):
                got = eng.fields(cols)
                assert got.dtype == np.int32
                assert np.array_equal(got, brute_weights(g, p) @ cols)


# the two examples hold about 575k arcs of one word and 187k arcs of three
# words: both pass 4 MB of gathered words, so the build takes two row runs
@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), density=st.floats(0.0, 1.0),
       m=st.one_of(st.sampled_from(PACK_M), st.integers(1, 200)),
       seed=st.integers(0, 2 ** 31))
@example(n=1200, density=0.4, m=1, seed=3)
@example(n=500, density=0.75, m=129, seed=3)
def test_popcount_weights_match_per_arc_product(n, density, m, seed):
    g = graphs.gen_erdos_renyi(n, density, seed)
    p = hopfield.sample_patterns(m, n, seed + 1)
    got = hopfield.FieldEngine(g, p)._edge_weights()
    want = oracle_edge_weights(g, p)
    assert np.array_equal(got, want)
    # the weights come in the narrowest type exact for the largest row sum
    row_sums = np.bincount(graphs.edge_endpoints(g)[0], np.abs(want), minlength=n)
    assert got.dtype == hopfield._exact_type(int(row_sums.max(initial=0)))


def test_thread_count_does_not_change_results(monkeypatch):
    # one, two and three row blocks give bit-identical fields and block
    # runs, down to graphs with fewer rows than threads.  The last graph
    # repeats each of its 9 patterns 4096 times, so J is 4096 times the
    # 9-pattern couplings and every vertex of degree 8 or more has a row
    # sum of at least 2^15: its engine computes in int32, the others in int16
    rng = np.random.default_rng(11)
    for n, density, reps in ((2, 0.0, 1), (3, 0.5, 1), (40, 0.3, 1), (300, 0.05, 1),
                             (300, 0.05, 4096)):
        g = graphs.gen_erdos_renyi(n, density, int(rng.integers(2 ** 31)))
        assert not g.is_complete
        base = hopfield.sample_patterns(9, n, int(rng.integers(2 ** 31)))
        p = hopfield.PatternSet(np.repeat(base.bits, reps, axis=0))
        starts = np.stack([hopfield.corrupt(base.pattern(mu % 9), 0.2, mu)
                           for mu in range(16)], axis=1)
        runs = []
        for threads in (1, 2, 3):
            monkeypatch.setattr(hopfield, "_THREADS", threads)
            eng = hopfield.FieldEngine(g, p)
            assert eng._data.dtype == (np.int32 if reps > 1 else np.int16)
            if n >= 40:
                assert len(eng._rows) == threads
            else:   # blocks split the arcs, so an edgeless graph is one block
                assert 1 <= len(eng._rows) <= min(threads, n)
            runs.append((eng.fields(starts), hopfield.run_block(eng, starts, 30)))
        h, out = runs[0]
        assert np.array_equal(h, reps * brute_weights(g, base) @ starts)
        for h_t, out_t in runs[1:]:
            assert h_t.dtype == h.dtype and np.array_equal(h_t, h)
            assert np.array_equal(out_t.terminal, out.terminal)
            assert np.array_equal(out_t.steps, out.steps)
            assert np.array_equal(out_t.final, out.final)


@pytest.mark.parametrize("reps", [1, 4096], ids=["int16", "int32"])
@pytest.mark.parametrize("ptr_dtype,idx_dtype",
                         [(np.int64, np.int32), (np.int32, np.int32)],
                         ids=["int32-indices", "int32-both"])
def test_int32_graph_arrays_give_the_same_results(ptr_dtype, idx_dtype, reps, monkeypatch):
    # the engine's products read the graph's own indptr and indices, so a
    # graph stored in int32 must give what the int64 one gives, on one and
    # two row runs
    g32 = graphs.gen_erdos_renyi(300, 0.05, 21)
    g = graphs.Graph(g32.indptr.astype(np.int64), g32.indices.astype(np.int64))
    narrow = graphs.Graph(g.indptr.astype(ptr_dtype), g.indices.astype(idx_dtype))
    graphs.validate_graph(narrow)
    base = hopfield.sample_patterns(9, g.n, 22)
    p = hopfield.PatternSet(np.repeat(base.bits, reps, axis=0))
    rng = np.random.default_rng(23)
    block = np.stack([hopfield.corrupt(base.pattern(mu), 0.2, mu) for mu in range(4)],
                     axis=1)
    states = [random_state(rng, g.n) for _ in range(3)] + [base.pattern(0)]
    for threads in (1, 2):
        monkeypatch.setattr(hopfield, "_THREADS", threads)
        wide, eng = hopfield.FieldEngine(g, p), hopfield.FieldEngine(narrow, p)
        assert eng._data.dtype == wide._data.dtype == (np.int32 if reps > 1 else np.int16)
        assert len(eng._rows) == threads
        assert np.array_equal(eng.fields(block), wide.fields(block))
        assert np.array_equal(eng.fields(block), reps * brute_weights(g, base) @ block)
        assert np.array_equal(eng._targets, wide._targets)
        for s in states:
            h = eng.fields(s)
            assert h.dtype == np.int32 and np.array_equal(h, wide.fields(s))
            assert np.array_equal(hopfield.sequential_sweep(eng, s),
                                  hopfield.sequential_sweep(wide, s))
            assert np.array_equal(hopfield.sequential_sweep(eng, s),
                                  brute_sweep(g, base, s))


class MatmulLog(np.ndarray):
    """An ndarray that records the ndim of every right operand of @."""

    ndims = []

    def __matmul__(self, other):
        MatmulLog.ndims.append(np.ndim(other))
        return np.asarray(self) @ other


def test_complete_one_column_block_runs_as_a_state():
    # on K_n a one-column block takes the 1-D state path and gets its
    # column shape back: an (n, 1) float32 matmul was seen to raise a
    # spurious "invalid value encountered in matmul"
    rng = np.random.default_rng(3)
    for n, m in ((2, 1), (17, 3), (40, 9), (300, 20)):
        g = graphs.gen_complete(n)
        p = hopfield.sample_patterns(m, n, int(rng.integers(2 ** 31)))
        eng = hopfield.FieldEngine(g, p)
        eng._xi = eng._xi.view(MatmulLog)
        s = random_state(rng, n)
        MatmulLog.ndims.clear()
        col = eng.fields(s[:, np.newaxis])
        assert MatmulLog.ndims == [1, 1]
        assert col.dtype == np.int32 and col.shape == (n, 1)
        assert np.array_equal(col[:, 0], eng.fields(s))
        assert np.array_equal(col[:, 0], brute_fields(g, p, s))


def check_all_block_shapes(eng, oracle, rng):
    """fields() on the all-ones state as one state, as a one-column block
    and in a block with a random and an all-minus column, against
    oracle(s) in int64, and always returned as int32."""
    n = eng.g.n
    ones = np.ones(n, dtype=np.int8)
    block = np.stack([ones, random_state(rng, n), -ones], axis=1)
    for s in (ones, ones[:, np.newaxis], block):
        got = eng.fields(s)
        assert got.dtype == np.int32
        assert np.array_equal(got, oracle(s.astype(np.int64)))


@pytest.mark.parametrize("hub_degree,dtype", [(2 ** 15 - 1, np.int16), (2 ** 15, np.int32)])
def test_csr_row_sum_bound_picks_exact_type(hub_degree, dtype):
    # a star with one all-ones pattern has J = A, so the hub's row sum is
    # its degree: int16 holds 2^15 - 1, and at 2^15 the engine must widen
    # to int32, or the hub's field on the all-ones state wraps to -2^15
    n = hub_degree + 1
    g = graphs._from_pairs(n, [np.zeros(n - 1, dtype=np.int64), np.arange(1, n)])
    eng = hopfield.FieldEngine(g, hopfield.PatternSet(np.ones((1, n), dtype=np.int8)))
    assert eng.storage == "csr" and eng._data.dtype == dtype
    a = graphs.adjacency_matrix(g).astype(np.int64)
    check_all_block_shapes(eng, lambda s: a @ s, np.random.default_rng(0))
    ones = np.ones(n, dtype=np.int8)
    assert eng.fields(ones)[0] == hub_degree
    assert np.array_equal(hopfield.sequential_sweep(eng, ones), ones)


def lean_complete(n):
    """K_n whose neighbor array is a zero-stride stand-in of the right
    length: the "complete" storage reads only K_n's size and degrees, and
    the real array would take 8 n (n - 1) bytes."""
    return graphs.Graph(indptr=np.arange(n + 1, dtype=np.int64) * (n - 1),
                        indices=np.broadcast_to(np.int64(0), (n * (n - 1),)))


@pytest.mark.parametrize("n,m,dtype", [(4096, 4095, np.float32), (4097, 4097, np.float64)])
def test_complete_product_bound_picks_exact_type(n, m, dtype):
    # all-ones patterns put M n into Xi^T (Xi s) on the all-ones state.
    # 4095 * 4096 is below 2^24; 4097^2 = 2^24 + 8193 is odd, so float32
    # would round it and the field M (n - 1) would come out one off.  The
    # patterns take no memory; Xi as float64 is the test's 134 MB peak.
    small = lean_complete(5)
    assert np.array_equal(small.indptr, graphs.gen_complete(5).indptr)
    g = lean_complete(n)
    assert g.is_complete and g.indptr[-1] == g.indices.size
    eng = hopfield.FieldEngine(g, hopfield.PatternSet(np.broadcast_to(np.int8(1), (m, n))))
    assert eng.storage == "complete" and eng._xi.dtype == dtype
    check_all_block_shapes(eng, lambda s: m * (s.sum(axis=0) - s), np.random.default_rng(1))
    assert eng.fields(np.ones(n, dtype=np.int8))[0] == m * (n - 1)


def test_complete_fields_peak_within_six_blocks():
    # the float copy of the block is freed before the product's buffer
    # exists, and M s is subtracted and the result widened into that
    # buffer 2^16 entries at a time, so a call holds about 5x the int8 block
    n, m = 2048, 120
    p = hopfield.sample_patterns(m, n, 1)
    eng = hopfield.FieldEngine(lean_complete(n), p)
    s = np.stack([random_state(np.random.default_rng(c), n) for c in range(400)], axis=1)
    eng.fields(s[:, :2])
    tracemalloc.start()
    try:
        h = eng.fields(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * s.nbytes
    xi = p.bits.astype(np.int64)
    assert h.dtype == np.int32
    assert np.array_equal(h, xi.T @ (xi @ s) - m * s.astype(np.int64))


def test_field_budget_guard_raises_before_allocating():
    # M * max degree = 2^21 * 2^10 reaches 2^31 on K_1025 and on a star.
    # The broadcast patterns take no memory, and the child's address space
    # is capped far below the 17 GB that a float64 copy of them would need,
    # so the guard must fire before either storage allocates anything.
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 ** 32, 2 ** 32))\n"
            "import numpy as np\n"
            "from graphmem import graphs, hopfield\n"
            "n = 1025\n"
            "ones = np.ones(n, dtype=np.int8)\n"
            "p = hopfield.PatternSet(np.broadcast_to(ones, (2 ** 21, n)))\n"
            "hub = np.zeros(n - 1, dtype=np.int64)\n"
            "star = graphs._from_pairs(n, [hub, np.arange(1, n)])\n"
            "for g in (graphs.gen_complete(n), star):\n"
            "    try:\n"
            "        hopfield.FieldEngine(g, p)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.splitlines() == [
        "pattern count times max degree overflows the field budget"] * 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_block_fields():
    # the child inherits the thread pool without its threads; it must get a
    # new pool rather than wait forever on a block's second row block
    code = ("import os, signal\n"
            "import numpy as np\n"
            "from graphmem import graphs, hopfield\n"
            "hopfield._THREADS = 2\n"
            "g = graphs.gen_erdos_renyi(200, 0.1, 0)\n"
            "p = hopfield.sample_patterns(3, 200, 1)\n"
            "eng = hopfield.FieldEngine(g, p)\n"
            "s = np.stack([p.pattern(mu) for mu in range(3)], axis=1)\n"
            "h = eng.fields(s)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(30)\n"
            "    os._exit(0 if np.array_equal(eng.fields(s), h) else 1)\n"
            "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.split() == ["0"]


def test_engine_rejects_mismatched_sizes():
    g = graphs.gen_complete(10)
    p = hopfield.sample_patterns(2, 11, 0)
    with pytest.raises(ValueError):
        hopfield.FieldEngine(g, p)


def test_run_dynamics_rejects_an_engine_of_another_pair():
    # an engine of g would run g's couplings on g2 of the same size and
    # report where they lead; equal patterns are not the engine's own
    g = graphs.gen_erdos_renyi(30, 0.3, 1)
    g2 = graphs.gen_erdos_renyi(30, 0.3, 2)
    p5, p5_copy = hopfield.sample_patterns(5, 30, 0), hopfield.sample_patterns(5, 30, 0)
    for engine in (hopfield.FieldEngine(g, p5), hopfield.FieldEngine(g2, p5_copy)):
        for mode in ("parallel", "sequential"):
            with pytest.raises(ValueError, match="another graph or pattern set"):
                hopfield.run_dynamics(g2, p5, p5.pattern(0), mode=mode, engine=engine)


def test_local_field_singleton():
    # one sequential sweep on both storages, from a state it changes
    s = random_state(np.random.default_rng(0), 12)
    for g in (graphs.gen_complete(12), graphs.gen_erdos_renyi(12, 0.3, 1)):
        p = hopfield.sample_patterns(3, 12, 2)
        swept = hopfield.sequential_sweep(hopfield.FieldEngine(g, p), s)
        assert np.array_equal(swept, brute_sweep(g, p, s))
        assert not np.array_equal(swept, s)


def test_zero_field_resolves_to_plus_one():
    # isolated vertices have zero field; the update sends them to +1
    g = graphs.gen_erdos_renyi(6, 0.0, 0)
    p = hopfield.sample_patterns(2, 6, 3)
    eng = hopfield.FieldEngine(g, p)
    s = -np.ones(6, dtype=np.int8)
    assert np.all(hopfield._sign(eng.fields(s)) == 1)
    assert np.all(hopfield.sequential_sweep(eng, s) == 1)


def test_energies_match_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 25))
        g = graphs.gen_erdos_renyi(n, float(rng.uniform(0.1, 0.9)),
                                   int(rng.integers(2 ** 31)))
        p = hopfield.sample_patterns(int(rng.integers(1, 5)), n,
                                     int(rng.integers(2 ** 31)))
        eng = hopfield.FieldEngine(g, p)
        s = random_state(rng, n)
        want_s, want_t = brute_energy_pair(g, p, s)
        assert hopfield.energy_S(eng, s) == pytest.approx(want_s)
        assert hopfield.energy_T(eng, s) == pytest.approx(want_t)


def test_sign_of_fields_matches_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(2, 30))
        g = graphs.gen_erdos_renyi(n, float(rng.uniform(0.0, 1.0)),
                                   int(rng.integers(2 ** 31)))
        p = hopfield.sample_patterns(int(rng.integers(1, 5)), n,
                                     int(rng.integers(2 ** 31)))
        s = random_state(rng, n)
        h = brute_fields(g, p, s)
        want = np.where(h >= 0, 1, -1)
        assert np.array_equal(hopfield._sign(hopfield.FieldEngine(g, p).fields(s)), want)


def test_sequential_sweep_uses_updated_prefix(tmp_path):
    # single edge, one all-ones pattern, start (-1, +1): the sweep first
    # flips vertex 0 (field +1), then vertex 1 sees the updated vertex 0;
    # the parallel map from the same start just swaps the two coordinates
    path = tmp_path / "e.txt"
    path.write_text("2 1\n0 1\n")
    g = graphs.load_edge_list(path)
    p = hopfield.PatternSet(np.array([[1, 1]], dtype=np.int8))
    eng = hopfield.FieldEngine(g, p)
    s = np.array([-1, 1], dtype=np.int8)
    assert np.array_equal(hopfield.sequential_sweep(eng, s), [1, 1])
    assert np.array_equal(hopfield._sign(eng.fields(s)), [1, -1])


def pairs_graph(n, pairs):
    e = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    return graphs._from_pairs(n, [e[:, 0], e[:, 1]])


def repeated(base, reps):
    """base's patterns each repeated reps times: J is reps times base's
    couplings, so every sweep is base's sweep.  An odd pattern count makes
    every base coupling odd, so with reps = 2^15 every non-isolated
    vertex's row sum is at least 2^15, which forces int32."""
    return hopfield.PatternSet(np.repeat(base.bits, reps, axis=0))


def check_sweep_type(eng, g, reps):
    if eng.storage == "csr" and g.edge_count:
        assert eng._data.dtype == (np.int16 if reps == 1 else np.int32)


# the CSR sweep runs by edge-free runs of the index order (Graph._runs):
# these graphs take n runs (path), 2 (stars), 1 plus the sum of each
# clique's size less one, and 1
SWEEP_GRAPHS = {
    "path": pairs_graph(13, [(i, i + 1) for i in range(12)]),
    "star_first": pairs_graph(13, [(0, j) for j in range(1, 13)]),
    "star_last": pairs_graph(13, [(j, 12) for j in range(12)]),
    "cliques_and_isolated": pairs_graph(14, [(i, j) for c in (range(0, 4), range(5, 10),
                                                               range(11, 13))
                                              for i in c for j in c if i < j]),
    "edgeless": pairs_graph(9, []),
}


@pytest.mark.parametrize("reps", [1, 2 ** 15], ids=["int16", "int32"])
@pytest.mark.parametrize("name", SWEEP_GRAPHS)
def test_sweep_matches_oracle_on_structured_graphs(name, reps):
    g = SWEEP_GRAPHS[name]
    rng = np.random.default_rng(13)
    for m in (1, 3, 5):
        base = hopfield.sample_patterns(m, g.n, int(rng.integers(2 ** 31)))
        eng = hopfield.FieldEngine(g, repeated(base, reps))
        assert eng.storage == "csr"
        check_sweep_type(eng, g, reps)
        for _ in range(40):
            s = random_state(rng, g.n)
            assert np.array_equal(hopfield.sequential_sweep(eng, s),
                                  brute_sweep(g, base, s))


@pytest.mark.parametrize("reps", [1, 2 ** 15], ids=["int16", "int32"])
def test_sweep_matches_oracle_on_every_small_graph(reps):
    # every graph on 1 to 3 vertices from every state; K_1, K_2 and K_3
    # take the closed-form storage, the others CSR
    rng = np.random.default_rng(14)
    for n in (1, 2, 3):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        states = [np.array(bits, dtype=np.int8) * 2 - 1
                  for bits in np.ndindex(*(2,) * n)]
        for mask in range(2 ** len(pairs)):
            g = pairs_graph(n, [e for k, e in enumerate(pairs) if mask >> k & 1])
            base = hopfield.sample_patterns(int(rng.choice([1, 3])), n,
                                            int(rng.integers(2 ** 31)))
            eng = hopfield.FieldEngine(g, repeated(base, reps))
            check_sweep_type(eng, g, reps)
            for s in states:
                assert np.array_equal(hopfield.sequential_sweep(eng, s),
                                      brute_sweep(g, base, s))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), density=st.floats(0.0, 1.0), m=st.sampled_from([1, 3, 5]),
       reps=st.sampled_from([1, 2 ** 15]), seed=st.integers(0, 2 ** 31))
def test_sweep_matches_oracle(n, density, m, reps, seed):
    g = graphs.gen_erdos_renyi(n, density, seed)
    base = hopfield.sample_patterns(m, n, seed + 1)
    eng = hopfield.FieldEngine(g, repeated(base, reps))
    check_sweep_type(eng, g, reps)
    rng = np.random.default_rng(seed)
    for s in (random_state(rng, n), base.pattern(0),
              hopfield.corrupt(base.pattern(0), 0.3, seed)):
        assert np.array_equal(hopfield.sequential_sweep(eng, s), brute_sweep(g, base, s))


@pytest.mark.parametrize("reps", [1, 2 ** 15], ids=["int16", "int32"])
def test_sweep_cascades_along_a_path(reps):
    # with one all-ones pattern J = A, and a vertex between a +1 and a -1
    # neighbour has field 0 and goes to +1.  Two +1 spins at the start of
    # the path spread to its end in one sweep, which updates in index
    # order; two at its end spread back one vertex per sweep
    g = SWEEP_GRAPHS["path"]
    n = g.n
    base = hopfield.PatternSet(np.ones((1, n), dtype=np.int8))
    eng = hopfield.FieldEngine(g, repeated(base, reps))
    check_sweep_type(eng, g, reps)
    for plus, sweeps in (((0, 1), 1), ((n - 2, n - 1), n - 2)):
        s = -np.ones(n, dtype=np.int8)
        s[list(plus)] = 1
        for _ in range(sweeps):
            nxt = hopfield.sequential_sweep(eng, s)
            assert np.array_equal(nxt, brute_sweep(g, base, s))
            assert not np.array_equal(nxt, s)
            s = nxt
        assert np.all(s == 1)


def test_sweep_builds_one_schedule_per_graph_and_only_when_it_sweeps(monkeypatch):
    calls = []
    build = graphs._run_cuts
    monkeypatch.setattr(graphs, "_run_cuts", lambda g: calls.append(g) or build(g))
    rng = np.random.default_rng(15)
    g = graphs.gen_erdos_renyi(60, 0.2, 4)
    engines = [hopfield.FieldEngine(g, hopfield.sample_patterns(m, g.n, m)) for m in (3, 5)]
    block = np.stack([random_state(rng, g.n) for _ in range(4)], axis=1)
    for eng in engines:
        eng.fields(block[:, 0])
        eng.fields(block)
        hopfield.run_block(eng, block, 10)
        hopfield.run_dynamics(g, eng.p, block[:, 0], k_max=10, engine=eng)
        hopfield.energy_S(eng, block[:, 0])
    assert calls == []
    # each engine sweeps its own weights over the one shared set of runs
    for eng in engines:
        for s in block.T:
            assert np.array_equal(hopfield.sequential_sweep(eng, s),
                                  brute_sweep(g, eng.p, s))
    assert calls == [g]


def test_energy_never_increases():
    # exact monotonicity, no tolerance: H^S under the sweep, H^T under the
    # parallel map
    rng = np.random.default_rng(9)
    for _ in range(300):
        n = int(rng.integers(2, 25))
        g = graphs.gen_erdos_renyi(n, float(rng.uniform(0.0, 1.0)),
                                   int(rng.integers(2 ** 31)))
        p = hopfield.sample_patterns(int(rng.integers(1, 6)), n,
                                     int(rng.integers(2 ** 31)))
        eng = hopfield.FieldEngine(g, p)
        s = random_state(rng, n)
        assert hopfield.energy_S(eng, hopfield.sequential_sweep(eng, s)) \
            <= hopfield.energy_S(eng, s)
        assert hopfield.energy_T(eng, hopfield._sign(eng.fields(s))) \
            <= hopfield.energy_T(eng, s)


def test_stored_pattern_is_fixed_point_at_low_load():
    g = graphs.gen_complete(40)
    p = hopfield.sample_patterns(1, 40, 4)
    out = hopfield.run_dynamics(g, p, p.pattern(0))
    assert out.terminal == "fixed_point"
    assert out.steps == 1
    assert np.array_equal(out.final, p.pattern(0))
    assert out.energy_trace.shape == (2,)
    assert out.energy_trace[0] == out.energy_trace[1]


def test_parallel_two_cycle_detected(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("2 1\n0 1\n")
    g = graphs.load_edge_list(path)
    p = hopfield.PatternSet(np.array([[1, 1]], dtype=np.int8))
    s = np.array([1, -1], dtype=np.int8)
    out = hopfield.run_dynamics(g, p, s)
    assert out.terminal == "two_cycle"
    assert out.steps == 2
    assert out.energy_trace.shape == (3,)
    assert out.energy_trace[0] == out.energy_trace[2]
    assert np.array_equal(out.final, s)


def test_step_cap_reported(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("2 1\n0 1\n")
    g = graphs.load_edge_list(path)
    p = hopfield.PatternSet(np.array([[1, 1]], dtype=np.int8))
    s = np.array([-1, 1], dtype=np.int8)
    out = hopfield.run_dynamics(g, p, s, mode="sequential", k_max=1)
    assert out.terminal == "step_cap"
    assert out.steps == 1
    assert np.array_equal(out.final, [1, 1])


def test_sequential_always_reaches_fixed_point():
    # monotone energy on a finite state space forces termination
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(2, 20))
        g = graphs.gen_erdos_renyi(n, float(rng.uniform(0.1, 1.0)),
                                   int(rng.integers(2 ** 31)))
        p = hopfield.sample_patterns(int(rng.integers(1, 4)), n,
                                     int(rng.integers(2 ** 31)))
        out = hopfield.run_dynamics(g, p, random_state(rng, n),
                                    mode="sequential", k_max=4 * n + 8)
        assert out.terminal == "fixed_point"
        fixed = hopfield.sequential_sweep(hopfield.FieldEngine(g, p), out.final)
        assert np.array_equal(fixed, out.final)


def test_parallel_terminates_in_cycle_or_fixed_point():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 20))
        g = graphs.gen_erdos_renyi(n, float(rng.uniform(0.1, 1.0)),
                                   int(rng.integers(2 ** 31)))
        p = hopfield.sample_patterns(int(rng.integers(1, 4)), n,
                                     int(rng.integers(2 ** 31)))
        out = hopfield.run_dynamics(g, p, random_state(rng, n), k_max=2 ** n + 4)
        assert out.terminal in ("fixed_point", "two_cycle")


def test_run_dynamics_validates_input():
    g = graphs.gen_complete(5)
    p = hopfield.sample_patterns(1, 5, 0)
    with pytest.raises(ValueError):
        hopfield.run_dynamics(g, p, p.pattern(0), mode="async")
    with pytest.raises(ValueError):
        hopfield.run_dynamics(g, p, np.zeros(5, dtype=np.int8))
    with pytest.raises(ValueError):
        hopfield.run_dynamics(g, p, np.ones(4, dtype=np.int8))


def test_hamming_distance():
    a = np.array([1, 1, -1, -1], dtype=np.int8)
    b = np.array([1, -1, -1, 1], dtype=np.int8)
    assert hopfield.hamming(a, b) == 2
    assert hopfield.hamming(a, a) == 0


def test_corrupt_flips_exact_count():
    rng_seed = 12
    s = np.ones(100, dtype=np.int8)
    for rho, k in ((0.0, 0), (0.01, 1), (0.29, 29), (0.5, 50)):
        out = hopfield.corrupt(s, rho, rng_seed)
        assert hopfield.hamming(out, s) == k
    # deterministic given the seed
    assert np.array_equal(hopfield.corrupt(s, 0.2, 3), hopfield.corrupt(s, 0.2, 3))
    assert not np.array_equal(hopfield.corrupt(s, 0.2, 3), hopfield.corrupt(s, 0.2, 4))


def brute_parallel(g, p, s0, k_max):
    """Reference loop for the parallel map on dense int64 couplings:
    (terminal, steps, final, energy trace)."""
    w = brute_weights(g, p)
    s = np.asarray(s0, dtype=np.int64)
    prev = None
    trace = []
    for k in range(1, k_max + 1):
        h = w @ s
        trace.append(-float(np.abs(h).sum()) / g.n)
        nxt = np.where(h >= 0, 1, -1)
        if np.array_equal(nxt, s):
            return "fixed_point", k, nxt, trace + [trace[-1]]
        if prev is not None and np.array_equal(nxt, prev):
            return "two_cycle", k, nxt, trace + [trace[-2]]
        prev, s = s, nxt
    return "step_cap", k_max, s, trace + [-float(np.abs(w @ s).sum()) / g.n]


def brute_sequential(g, p, s0, k_max):
    """Reference loop for the sequential map on dense int64 couplings:
    (terminal, steps, final, H_S trace)."""
    w = brute_weights(g, p)
    s = np.asarray(s0, dtype=np.int64)
    trace = []
    for k in range(1, k_max + 1):
        trace.append(-float(s @ w @ s) / g.n)
        nxt = brute_sweep(g, p, s)
        if np.array_equal(nxt, s):
            return "fixed_point", k, nxt, trace + [trace[-1]]
        s = nxt
    return "step_cap", k_max, s, trace + [-float(s @ w @ s) / g.n]


@st.composite
def small_memories(draw):
    """A small graph from one of the generators, patterns up to well past
    capacity, and a seed for whatever else the case draws."""
    kind = draw(st.sampled_from(["complete", "gnp", "chunglu", "twoclique"]))
    n = draw(st.integers(4, 24))
    seed = draw(st.integers(0, 2 ** 31))
    if kind == "complete":
        g = graphs.gen_complete(n)
    elif kind == "gnp":
        g = graphs.gen_erdos_renyi(n, draw(st.floats(0.05, 1.0)), seed)
    elif kind == "chunglu":
        base = np.sort(np.random.default_rng(seed).uniform(0.5, 0.9 * np.sqrt(n), n))
        g = graphs.gen_chung_lu(graphs.WeightSequence(base[::-1]), seed)
    else:
        g = graphs.gen_two_cliques(draw(st.integers(2, n - 2)), n,
                                   bridged=draw(st.booleans()))
    m = draw(st.integers(1, 2 * n))
    return g, hopfield.sample_patterns(m, n, seed + 1), seed


@st.composite
def block_cases(draw):
    """small_memories with a block of starts and a step cap small enough
    to bind."""
    g, p, seed = draw(small_memories())
    n = g.n
    b = draw(st.integers(1, 6))
    rng = np.random.default_rng(seed + 2)
    starts = np.stack([random_state(rng, n) for _ in range(b)], axis=1)
    k_max = draw(st.one_of(st.sampled_from([1, 2, 3]), st.integers(4, 40)))
    return g, p, starts, k_max


@settings(max_examples=150, deadline=None)
@given(block_cases())
def test_run_block_columns_match_single_runs(case):
    g, p, starts, k_max = case
    out = hopfield.run_block(hopfield.FieldEngine(g, p), starts, k_max)
    for c in range(starts.shape[1]):
        single = hopfield.run_dynamics(g, p, starts[:, c], k_max=k_max)
        assert out.terminal[c] == single.terminal
        assert out.steps[c] == single.steps
        assert np.array_equal(out.final[:, c], single.final)
        terminal, steps, final, trace = brute_parallel(g, p, starts[:, c], k_max)
        assert (single.terminal, single.steps) == (terminal, steps)
        assert np.array_equal(single.final, final)
        assert single.energy_trace.tolist() == trace


@settings(max_examples=150, deadline=None)
@given(block_cases())
def test_sequential_run_matches_brute_force(case):
    g, p, starts, k_max = case
    eng = hopfield.FieldEngine(g, p)
    for s0 in starts.T:
        out = hopfield.run_dynamics(g, p, s0, mode="sequential", k_max=k_max, engine=eng)
        terminal, steps, final, trace = brute_sequential(g, p, s0, k_max)
        assert (out.terminal, out.steps) == (terminal, steps)
        assert np.array_equal(out.final, final)
        assert out.energy_trace.tolist() == trace


def test_run_block_reaches_every_terminal():
    # the two-vertex graph with one all-ones pattern: (1, 1) is fixed,
    # (1, -1) swaps forever, and a cap of 1 stops (-1, 1) before the cycle
    # closes
    g = graphs.gen_complete(2)
    p = hopfield.PatternSet(np.array([[1, 1]], dtype=np.int8))
    eng = hopfield.FieldEngine(g, p)
    starts = np.array([[1, 1, -1], [1, -1, 1]], dtype=np.int8)
    out = hopfield.run_block(eng, starts, k_max=5)
    assert out.terminal.tolist() == ["fixed_point", "two_cycle", "two_cycle"]
    assert out.steps.tolist() == [1, 2, 2]
    capped = hopfield.run_block(eng, starts, k_max=1)
    assert capped.terminal.tolist() == ["fixed_point", "step_cap", "step_cap"]
    assert np.array_equal(capped.final[:, 1:], [[-1, 1], [1, -1]])
    with pytest.raises(ValueError):
        hopfield.run_block(eng, starts[:1], k_max=5)
    with pytest.raises(ValueError):
        hopfield.run_block(eng, starts, k_max=0)


def same_outcome(a, b):
    return (np.array_equal(a.terminal, b.terminal) and np.array_equal(a.steps, b.steps)
            and np.array_equal(a.final, b.final))


@st.composite
def targeted_cases(draw):
    """small_memories with a target pattern per column, each start its
    target itself, its target with a few flips, or uniform, and a step cap
    of 1, 2, 3 or 50."""
    g, p, seed = draw(small_memories())
    rng = np.random.default_rng(seed + 3)
    b = draw(st.integers(1, 6))
    mus = rng.integers(p.m_patterns, size=b)
    starts = p.bits[mus].T.copy()
    for c in range(b):
        kind = draw(st.sampled_from(["target", "near", "uniform"]))
        if kind == "near":
            flip = rng.choice(g.n, size=draw(st.integers(1, 3)), replace=False)
            starts[flip, c] *= -1
        elif kind == "uniform":
            starts[:, c] = random_state(rng, g.n)
    return g, p, starts, mus, draw(st.sampled_from([1, 2, 3, 50]))


@settings(max_examples=200, deadline=None)
@given(targeted_cases())
def test_run_block_targets_change_no_outcome(case):
    g, p, starts, mus, k_max = case
    eng = hopfield.FieldEngine(g, p)
    assert same_outcome(hopfield.run_block(eng, starts, k_max, mus),
                        hopfield.run_block(eng, starts, k_max))


def test_run_block_targets_retire_without_confirming(monkeypatch):
    # per engine: a pattern that is a fixed point of T and one that is not,
    # each as a start equal to itself and one flip away.  Every column that
    # ends in its stable target saves exactly the confirming field
    # evaluation, the unstable target's columns run as before, and every
    # cap gives the same outcome either way.
    cols = []
    fields = hopfield.FieldEngine.fields
    monkeypatch.setattr(hopfield.FieldEngine, "fields", lambda self, s: (
        cols.append(1 if s.ndim == 1 else s.shape[1]) or fields(self, s)))
    for g, m, seed in ((graphs.gen_complete(40), 9, 0),
                       (graphs.gen_erdos_renyi(40, 0.5, 3), 4, 2)):
        p = hopfield.sample_patterns(m, g.n, seed)
        eng = hopfield.FieldEngine(g, p)
        stable = (np.where(brute_fields(g, p, p.bits.T) >= 0, 1, -1) == p.bits.T).all(axis=0)
        assert np.array_equal(eng._targets, stable)
        assert 0 < stable.sum() < m
        mus = np.array([np.argmax(stable), np.argmin(stable)] * 2)
        starts = p.bits[mus].T.copy()
        starts[0, 2:] *= -1
        for k_max in (1, 2, 3, 50):
            cols.clear()
            fast = hopfield.run_block(eng, starts, k_max, mus)
            fast_cols = sum(cols)
            slow = hopfield.run_block(eng, starts, k_max)
            slow_cols = sum(cols) - fast_cols
            assert same_outcome(fast, slow)
            assert fast.terminal[0] == "fixed_point" and fast.steps[0] == 1
            at_target = ((fast.terminal == "fixed_point") & stable[mus]
                         & (fast.final == p.bits[mus].T).all(axis=0))
            assert slow_cols - fast_cols == at_target.sum() >= 1
            assert at_target[2] == (k_max >= 3)
