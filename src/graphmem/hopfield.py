"""Sign-field dynamics for pattern storage on a graph.

States are +-1 int8 vectors.  With patterns xi^1..xi^M, the local field at
vertex i is

    h_i(sigma) = sum_j a_ij sigma_j sum_mu xi_i^mu xi_j^mu,

an exact integer of magnitude at most M * max degree, which FieldEngine's
guard keeps below 2^31, so fields are returned as int32.  The couplings are
built by popcount over bit-packed patterns, and a block of states is
multiplied on every available CPU by splitting the couplings into row
blocks (see FieldEngine).  The parallel map T flips every spin to sgn(h_i)
simultaneously (sgn(0) = +1); the sequential sweep S applies the same rule
vertex by vertex in index order.  Energies use the 1/n normalization:
H_S = -(1/n) sum_{i,j} sigma_i sigma_j a_ij sum_mu xi_i xi_j over ordered
pairs, H_T = -(1/n) sum_i |h_i|.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .graphs import Graph


@dataclass(frozen=True)
class PatternSet:
    """M stored patterns as rows of an (M, n) +-1 int8 matrix."""

    bits: np.ndarray

    def __post_init__(self):
        self.bits.setflags(write=False)

    @property
    def m_patterns(self) -> int:
        return self.bits.shape[0]

    @property
    def n(self) -> int:
        return self.bits.shape[1]

    def pattern(self, mu: int) -> np.ndarray:
        return self.bits[mu]


@dataclass(frozen=True)
class DynamicsOutcome:
    terminal: str          # "fixed_point" | "two_cycle" | "step_cap"
    steps: int
    final: np.ndarray
    energy_trace: np.ndarray


def sample_patterns(m: int, n: int, seed) -> PatternSet:
    """Draw m independent uniform +-1 patterns of length n."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    rng = np.random.default_rng(seed)
    bits = (rng.integers(0, 2, size=(m, n), dtype=np.int8) * 2 - 1).astype(np.int8)
    return PatternSet(bits)


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _start_pool() -> None:
    global _POOL
    _POOL = ThreadPoolExecutor(max_workers=_THREADS)


# One row block of J per available CPU.  The executor starts its threads on
# the first submit, not at import; scipy's CSR kernel releases the GIL, so
# the blocks run in parallel.  A forked child inherits the executor but not
# its threads, and would wait forever on it, so the child gets a new one.
_THREADS = _cpu_count()
_start_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_start_pool)


def _pack(bits: np.ndarray) -> np.ndarray:
    """(n, ceil(M/64)) uint64 words; bit mu of vertex i is set when
    xi_i^mu = -1, and the padding bits are 0 for every vertex."""
    m, n = bits.shape
    packed = np.zeros((n, 8 * -(-m // 64)), dtype=np.uint8)
    packed[:, :-(-m // 8)] = np.packbits(bits.T < 0, axis=1, bitorder="little")
    return packed.view(np.uint64)


def _row_cuts(indptr: np.ndarray, parts: int) -> list:
    """Row boundaries 0 = r_0 < ... < r_k = n that split the arcs into at
    most max(parts, 1) runs of about equal size.  A run exceeds its share by
    less than one row, and every run holds an arc unless there are none."""
    nnz, parts = indptr[-1], max(parts, 1)
    cuts = np.searchsorted(indptr, np.arange(1, parts) * (nnz / parts))
    cuts = cuts[indptr[cuts] < nnz]
    return np.unique(np.concatenate(([0], cuts, [indptr.size - 1]))).tolist()


class FieldEngine:
    """Exact local fields for a fixed (graph, patterns) pair.

    The couplings J_ij = a_ij sum_mu xi_i^mu xi_j^mu are held as:

    - "complete" on K_n, where J = Xi^T Xi - M I: only Xi is kept, as
      float64, and h(s) = Xi^T (Xi s) - M s takes two GEMMs, with no n x n
      array.  They are exact: every partial sum is an integer of magnitude
      at most n M, which the 2^31 guard keeps far inside float64's 2^53.
    - "csr" on every other graph: int32 per-arc weights aligned with the
      graph's CSR arrays, built by popcount: with x_i vertex i's pattern
      signs packed into 64-bit words, J_ij = M - 2 popcount(x_i XOR x_j).
      The int32 product holds every partial sum exactly under the same
      guard.  A block of states is multiplied as one row block of J per
      available CPU, each a view of J's arrays, on a shared thread pool;
      a single state takes one direct product.

    fields() accepts one state (n,) or a block of states (n, B) and
    returns exact int32 fields of the same shape; sweep() runs the
    sequential map once over a single state.
    """

    def __init__(self, g: Graph, p: PatternSet):
        if p.n != g.n:
            raise ValueError(f"patterns have length {p.n}, graph has {g.n} vertices")
        m_deg = int(g.degrees.max()) if g.n else 0
        if p.m_patterns * max(m_deg, 1) >= 2 ** 31:
            raise ValueError("pattern count times max degree overflows the field budget")
        self.g = g
        self.p = p
        if g.is_complete:
            self.storage = "complete"
            self._xi = p.bits.astype(np.float64)
        else:
            self.storage = "csr"
            self._j = sp.csr_array(
                (self._edge_weights(), g.indices, g.indptr), shape=(g.n, g.n))
            self._blocks = self._row_blocks()

    def _edge_weights(self) -> np.ndarray:
        """Per-arc pattern products M - 2 popcount(x_i XOR x_j), aligned with
        g.indices.  Rows go in runs of about 4 MB of gathered words each."""
        indptr, indices = self.g.indptr, self.g.indices
        x = _pack(self.p.bits)
        out = np.empty(indices.size, dtype=np.int32)
        gathered = indices.size * x.shape[1] * x.itemsize     # bytes per side
        rows = _row_cuts(indptr, -(-gathered // 4_000_000))
        for lo, hi in zip(rows[:-1], rows[1:]):
            a, b = indptr[lo], indptr[hi]
            words = np.repeat(x[lo:hi], np.diff(indptr[lo:hi + 1]), axis=0)
            words ^= np.take(x, indices[a:b], axis=0)
            diff = np.bitwise_count(words).sum(axis=1, dtype=np.int32)
            out[a:b] = self.p.m_patterns - 2 * diff
        return out

    def _row_blocks(self) -> list:
        """J split into up to _THREADS row blocks of about equal arc counts:
        (first row, last row + 1, rebased indptr, indices view, data view)."""
        indptr = self._j.indptr
        rows = _row_cuts(indptr, _THREADS)
        return [(lo, hi, indptr[lo:hi + 1] - indptr[lo],
                 self._j.indices[indptr[lo]:indptr[hi]],
                 self._j.data[indptr[lo]:indptr[hi]])
                for lo, hi in zip(rows[:-1], rows[1:])]

    def _block_product(self, block, x: np.ndarray, out: np.ndarray) -> None:
        # out[lo:hi] += J[lo:hi] @ x, as scipy's own 2-D CSR product calls it
        lo, hi, indptr, indices, data = block
        _sparsetools.csr_matvecs(hi - lo, self.g.n, x.shape[1], indptr, indices,
                                 data, x.reshape(-1), out[lo:hi].reshape(-1))

    def fields(self, s: np.ndarray) -> np.ndarray:
        """h(s) for a state (n,) or each column of a block (n, B), exact int32."""
        if self.storage == "complete":
            x = s.astype(np.float64)
            return (self._xi.T @ (self._xi @ x) - self.p.m_patterns * x).astype(np.int32)
        if s.ndim == 1:
            return self._j @ s.astype(np.int32)
        x = np.ascontiguousarray(s, dtype=np.int32)
        out = np.zeros(x.shape, dtype=np.int32)
        first, *rest = self._blocks
        futures = [_POOL.submit(self._block_product, b, x, out) for b in rest]
        try:
            self._block_product(first, x, out)
        finally:
            for f in futures:
                f.result()
        return out

    def sweep(self, s: np.ndarray) -> np.ndarray:
        """One sequential sweep of the (n,) state s: vertices update in
        index order, each seeing every earlier update.  On "complete" it
        keeps u = Xi s and adds 2 s_i Xi[:, i] when spin i flips to s_i, so
        a vertex costs O(M); u's entries are integers of magnitude <= n."""
        out = np.array(s, dtype=np.int8)
        if self.storage == "complete":
            u = self._xi @ out.astype(np.float64)
            for i, col in enumerate(np.ascontiguousarray(self._xi.T)):
                new = 1 if col @ u >= self.p.m_patterns * int(out[i]) else -1
                if new != out[i]:
                    out[i] = new
                    u += 2 * new * col
            return out
        indptr, indices, data = self.g.indptr, self.g.indices, self._j.data
        for i in range(self.g.n):
            lo, hi = indptr[i], indptr[i + 1]
            out[i] = 1 if data[lo:hi] @ out[indices[lo:hi]] >= 0 else -1
        return out


def _sign(h: np.ndarray) -> np.ndarray:
    # sgn(0) = +1 by convention
    return (h >= 0).view(np.int8) * 2 - 1


def parallel_step(engine: FieldEngine, s) -> np.ndarray:
    """One application of the parallel map T."""
    return _sign(engine.fields(np.asarray(s, dtype=np.int8)))


def sequential_sweep(engine: FieldEngine, s) -> np.ndarray:
    """One full sweep of the sequential map S = T_n ... T_2 T_1: each vertex
    updates in index order seeing all earlier updates."""
    return engine.sweep(s)


def energy_S(engine: FieldEngine, s) -> float:
    s = np.asarray(s, dtype=np.int8)
    return -float(np.dot(s.astype(np.int64), engine.fields(s))) / engine.g.n


def energy_T(engine: FieldEngine, s) -> float:
    s = np.asarray(s, dtype=np.int8)
    return -float(np.abs(engine.fields(s)).sum()) / engine.g.n


@dataclass(frozen=True)
class BlockOutcome:
    """Per-column result of run_block.  Column c ended as terminal[c]
    after steps[c] applications of T, in state final[:, c]; energy[k, c]
    is H_T of the state column c held before application k + 1, and nan
    once the column has retired."""

    terminal: np.ndarray    # (B,) "fixed_point" | "two_cycle" | "step_cap"
    steps: np.ndarray       # (B,) int64
    final: np.ndarray       # (n, B) int8
    energy: np.ndarray      # (max steps, B) float64


def run_block(engine: FieldEngine, states, k_max: int) -> BlockOutcome:
    """Iterate the parallel map T on every column of the (n, B) block
    states at once.  A column retires on a fixed point (checked first), a
    2-cycle, or the step cap, exactly as run_dynamics would end it; the
    live columns share one field evaluation per step."""
    n = engine.g.n
    s = np.array(states, dtype=np.int8)
    if s.ndim != 2 or s.shape[0] != n:
        raise ValueError("states must be an (n, B) block")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    b = s.shape[1]
    terminal = np.full(b, "step_cap", dtype="U11")
    steps = np.full(b, k_max, dtype=np.int64)
    final = s.copy()
    energy = []
    live = np.arange(b)
    prev = None
    for k in range(1, k_max + 1):
        if not live.size:
            break
        h = engine.fields(s)
        nxt = _sign(h)
        row = np.full(b, np.nan)
        row[live] = -np.abs(h, out=h).sum(axis=0) / n
        energy.append(row)
        fixed = (nxt == s).all(axis=0)
        done = fixed if prev is None else fixed | (nxt == prev).all(axis=0)
        if done.any():
            idx = live[done]
            terminal[idx] = np.where(fixed[done], "fixed_point", "two_cycle")
            steps[idx] = k
            final[:, idx] = nxt[:, done]
            keep = ~done
            live, s, nxt = live[keep], s[:, keep], nxt[:, keep]
        prev, s = s, nxt
    final[:, live] = s
    return BlockOutcome(terminal, steps, final, np.array(energy).reshape(len(energy), b))


def run_dynamics(g: Graph, p: PatternSet, s0, mode: str = "parallel",
                 k_max: int = 1000, engine: FieldEngine | None = None) -> DynamicsOutcome:
    """Iterate the dynamics from s0 until a fixed point, a 2-cycle (parallel
    mode only), or the step cap.

    steps counts update applications performed, so a start that is already
    a fixed point reports steps=1 (the detecting application).  The energy
    trace holds H_T (parallel) or H_S (sequential) for every visited state
    including the start.  Parallel mode is run_block on a one-column block.
    """
    if mode not in ("parallel", "sequential"):
        raise ValueError(f"unknown mode {mode!r}")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    s = np.array(s0, dtype=np.int8)
    if s.size != g.n:
        raise ValueError("state length does not match graph")
    if not np.all(np.abs(s) == 1):
        raise ValueError("state entries must be +-1")
    eng = engine if engine is not None else FieldEngine(g, p)
    if mode == "parallel":
        out = run_block(eng, s[:, np.newaxis], k_max)
        terminal, steps, final = str(out.terminal[0]), int(out.steps[0]), out.final[:, 0]
        trace = out.energy[:steps, 0].tolist()
        if terminal == "fixed_point":
            trace.append(trace[-1])
        elif terminal == "two_cycle":
            trace.append(trace[-2])
        else:
            trace.append(energy_T(eng, final))
        return DynamicsOutcome(terminal, steps, final, np.asarray(trace))
    # sequential
    trace = []
    for k in range(1, k_max + 1):
        trace.append(energy_S(eng, s))
        nxt = sequential_sweep(eng, s)
        if np.array_equal(nxt, s):
            trace.append(trace[-1])
            return DynamicsOutcome("fixed_point", k, nxt, np.asarray(trace))
        s = nxt
    trace.append(energy_S(eng, s))
    return DynamicsOutcome("step_cap", k_max, s, np.asarray(trace))


def hamming(a, b) -> int:
    """d_H(a, b) = (n - <a, b>) / 2 = number of disagreeing coordinates."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("states differ in length")
    return int(np.count_nonzero(a != b))


def corrupt(s, rho: float, seed) -> np.ndarray:
    """Flip exactly floor(rho * n) coordinates, chosen uniformly without
    replacement."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    s = np.array(s, dtype=np.int8)
    # the 1e-9 absorbs representation error in rho*n (e.g. 0.29 * 100)
    k = int(math.floor(rho * s.size + 1e-9))
    if k:
        rng = np.random.default_rng(seed)
        idx = rng.choice(s.size, size=k, replace=False)
        s[idx] = -s[idx]
    return s

