import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


# density 1 gives K_n and the closed-form storage; every other graph,
# near-complete ones included, takes CSR
@pytest.mark.parametrize("storage,density", [("complete", (1.0, 1.0)),
                                             ("csr", (0.1, 0.4)),
                                             ("csr", (0.7, 0.95))],
                         ids=["complete", "csr", "near_complete"])
def test_fields_match_brute_force(storage, density):
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 20:
        n = int(rng.integers(3, 30))
        g = graphs.gen_erdos_renyi(n, float(rng.uniform(*density)),
                                   int(rng.integers(2 ** 31)))
        if storage == "csr" and g.indices.size == n * (n - 1):
            continue    # a sparse draw that came out complete
        p = hopfield.sample_patterns(int(rng.integers(1, 6)), n,
                                     int(rng.integers(2 ** 31)))
        eng = hopfield.FieldEngine(g, p)
        assert eng.storage == storage
        s = random_state(rng, n)
        want = brute_fields(g, p, s)
        got = eng.fields(s)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        swept = hopfield.sequential_sweep(eng, s)
        assert swept.dtype == np.int8
        assert np.array_equal(swept, brute_sweep(g, p, s))
        block = np.stack([random_state(rng, n) for _ in range(4)], axis=1)
        assert np.array_equal(eng.fields(block), brute_weights(g, p) @ block)
        checked += 1


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
            "star = graphs._from_pairs(n, hub, np.arange(1, n))\n"
            "for g in (graphs.gen_complete(n), star):\n"
            "    try:\n"
            "        hopfield.FieldEngine(g, p)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.splitlines() == [
        "pattern count times max degree overflows the field budget"] * 2


def test_engine_rejects_mismatched_sizes():
    g = graphs.gen_complete(10)
    p = hopfield.sample_patterns(2, 11, 0)
    with pytest.raises(ValueError):
        hopfield.FieldEngine(g, p)


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
    assert np.all(hopfield.parallel_step(eng, s) == 1)
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


def test_parallel_step_matches_sign_of_field():
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
        assert np.array_equal(hopfield.parallel_step(hopfield.FieldEngine(g, p), s), want)


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
    assert np.array_equal(hopfield.parallel_step(eng, s), [1, -1])


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
        assert hopfield.energy_T(eng, hopfield.parallel_step(eng, s)) \
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


@st.composite
def block_cases(draw):
    """A small graph from one of the generators, patterns up to well past
    capacity, a block of starts, and a step cap small enough to bind."""
    kind = draw(st.sampled_from(["complete", "gnp", "chunglu", "twoclique"]))
    n = draw(st.integers(4, 24))
    seed = draw(st.integers(0, 2 ** 31))
    if kind == "complete":
        g = graphs.gen_complete(n)
    elif kind == "gnp":
        g = graphs.gen_erdos_renyi(n, draw(st.floats(0.05, 1.0)), seed)
    elif kind == "chunglu":
        base = np.sort(np.random.default_rng(seed).uniform(0.5, 0.9 * np.sqrt(n), n))
        g = graphs.gen_chung_lu(graphs.make_weights(base[::-1]), seed)
    else:
        g = graphs.gen_two_cliques(draw(st.integers(2, n - 2)), n,
                                   bridged=draw(st.booleans()))
    m = draw(st.integers(1, 2 * n))
    p = hopfield.sample_patterns(m, n, seed + 1)
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
        assert np.array_equal(out.energy[:single.steps, c], single.energy_trace[:-1])
        terminal, steps, final, trace = brute_parallel(g, p, starts[:, c], k_max)
        assert (single.terminal, single.steps) == (terminal, steps)
        assert np.array_equal(single.final, final)
        assert single.energy_trace.tolist() == trace


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
