"""Sign-field dynamics for pattern storage on a graph.

States are +-1 int8 vectors.  With patterns xi^1..xi^M, the local field at
vertex i is

    h_i(sigma) = sum_j a_ij sigma_j sum_mu xi_i^mu xi_j^mu,

an exact integer of magnitude at most M * max degree, which FieldEngine's
guard keeps below 2^31, so fields are returned as int32.  Inside the engine
the product runs in the narrowest type that an exact bound allows for this
graph and these patterns: int16 couplings when every row's absolute sum is
below 2^15, and float32 patterns on K_n when M n is below 2^24.  The
couplings are built by popcount over bit-packed patterns, and every sparse
product, of one state or of a block, goes through one CSR kernel
(_product), split by rows over every available CPU (see FieldEngine).  The
parallel map T flips every spin to sgn(h_i) simultaneously (sgn(0) = +1);
the sequential sweep S applies the same rule vertex by vertex in index
order.  Energies use the 1/n normalization, from exact int64 sums:
H_S = -(1/n) sum_{i,j} sigma_i sigma_j a_ij sum_mu xi_i xi_j over ordered
pairs, H_T = -(1/n) sum_i |h_i| (_h_s and _h_t, which bounds shares).
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
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
    bits = rng.integers(0, 2, size=(m, n), dtype=np.int8) * 2 - 1
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
# the first submit, not at import; the CSR kernel (_product) releases the
# GIL, so the blocks run in parallel.  A forked child inherits the executor
# but not its threads, and would wait forever on it, so the child gets a
# new one.
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


def _product(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
             x: np.ndarray, out: np.ndarray) -> None:
    """out += M x for an (n, B) block x and the CSR rows of M that indptr
    delimits, into the C-contiguous (rows, B) block out.  indptr's offsets
    index the whole of indices and data, so an indptr slice needs no
    rebasing.  One column takes scipy's vector kernel, 3-4x faster there."""
    rows, (n, b), x, out = indptr.size - 1, x.shape, x.reshape(-1), out.reshape(-1)
    if b == 1:
        _sparsetools.csr_matvec(rows, n, indptr, indices, data, x, out)
    else:
        _sparsetools.csr_matvecs(rows, n, b, indptr, indices, data, x, out)


def _run_sweep(g: Graph, data: np.ndarray, y: np.ndarray, update) -> None:
    """Sweep the (n, B) block y in index order, a run of g at a time
    (Graph._runs): rows lo:hi of y become update(lo, hi, P), P the product
    of the run's rows of J (weights data, aligned with g.indices) with y,
    in y's type.  No two vertices of a run are adjacent, so this is exactly
    the index-order sweep."""
    p = np.zeros_like(y)
    cuts = g._runs
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        _product(g.indptr[lo:hi + 1], g.indices, data, y, p[lo:hi])
        y[lo:hi] = update(lo, hi, p[lo:hi])


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

    - "complete" on K_n, where J = Xi^T Xi - M I: only Xi is kept and
      h(s) = Xi^T (Xi s) - M s takes two GEMMs, with no n x n array.  Every
      partial sum of Xi s is an integer of magnitude at most n, and every
      partial sum of Xi^T (Xi s) one of magnitude at most M n, so Xi is
      held as float32 when M n < 2^24 and as float64 otherwise (the 2^31
      guard keeps M n far inside float64's 2^53).
    - "csr" on every other graph: per-arc weights aligned with the graph's
      CSR arrays, built by popcount: with x_i vertex i's pattern signs
      packed into 64-bit words, J_ij = M - 2 popcount(x_i XOR x_j).  Every
      partial sum the product accumulates for row i is bounded by
      r_i = sum_j |J_ij|, so the weights and the product take
      _exact_type(max_i r_i), int16 or int32 (r_i <= M deg_i < 2^31 under
      the guard).  A state is a one-column block, and a block is split
      into one row run of J per available CPU (_rows), each one _product
      call on a shared thread pool.

    fields() accepts one state (n,) or a block of states (n, B) and
    returns exact fields of the same shape, widened to int32 whatever the
    type of the product.
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
            exact32 = p.m_patterns * g.n < 2 ** 24
            self._xi = p.bits.astype(np.float32 if exact32 else np.float64)
        else:
            self.storage = "csr"
            self._data = self._edge_weights()
            cuts = _row_cuts(g.indptr, _THREADS)
            self._rows = list(zip(cuts[:-1], cuts[1:]))

    def _edge_weights(self) -> np.ndarray:
        """Per-arc pattern products M - 2 popcount(x_i XOR x_j), aligned
        with g.indices, in _exact_type(max_i r_i).  Rows go in runs of
        about 4 MB of gathered words each."""
        indptr, indices = self.g.indptr, self.g.indices
        x = _pack(self.p.bits)
        out, top = np.empty(indices.size, dtype=np.int32), 0
        gathered = indices.size * x.shape[1] * x.itemsize     # bytes per side
        rows = _row_cuts(indptr, -(-gathered // 4_000_000))
        for lo, hi in zip(rows[:-1], rows[1:]):
            a, b = indptr[lo], indptr[hi]
            deg = np.diff(indptr[lo:hi + 1])
            words = np.repeat(x[lo:hi], deg, axis=0)
            words ^= np.take(x, indices[a:b], axis=0)
            diff = np.bitwise_count(words).sum(axis=1, dtype=np.int32)
            out[a:b] = self.p.m_patterns - 2 * diff
            # r_i <= M deg_i < 2^31, so the int32 row sums are exact; empty
            # rows are left out, so each segment is one row's arcs
            row_sums = np.add.reduceat(np.abs(out[a:b]), (indptr[lo:hi] - a)[deg > 0])
            top = max(top, int(row_sums.max(initial=0)))
        return out.astype(_exact_type(top), copy=False)

    def fields(self, s: np.ndarray) -> np.ndarray:
        """h(s) for a state (n,) or each column of a block (n, B), exact
        int32: the product runs in the engine's type, widened once here."""
        x = s[:, np.newaxis] if s.ndim == 1 else s
        if self.storage == "complete":
            # the float copy of s is gone once Xi s exists; M s is subtracted
            # and the result widened about 2^16 entries at a time, into the
            # product's own buffer when it is float32.  A state, and a
            # one-column block, run 1-D: an (n, 1) float32 matmul was seen
            # to raise a spurious invalid value
            v = x[:, 0] if x.shape[1] == 1 else x
            h = self._xi.T @ (self._xi @ v.astype(self._xi.dtype))
            out = h.view(np.int32) if h.itemsize == 4 else np.empty(h.shape, np.int32)
            m, step = h.dtype.type(self.p.m_patterns), max(1, 2 ** 16 // max(x.shape[1], 1))
            for lo in range(0, h.shape[0], step):
                out[lo:lo + step] = h[lo:lo + step] - m * v[lo:lo + step]
            return out.reshape(s.shape)
        x = np.ascontiguousarray(x, dtype=self._data.dtype)
        out = np.zeros(x.shape, dtype=x.dtype)
        indptr, indices = self.g.indptr, self.g.indices
        (lo, hi), *rest = self._rows
        futures = [_POOL.submit(_product, indptr[a:b + 1], indices, self._data, x, out[a:b])
                   for a, b in rest]
        try:
            _product(indptr[lo:hi + 1], indices, self._data, x, out[lo:hi])
        finally:
            for f in futures:
                f.result()
        del x       # free the input copy before the widened output exists
        return out.astype(np.int32, copy=False).reshape(s.shape)

    @cached_property
    def _targets(self) -> np.ndarray:
        """For each stored pattern xi^mu, whether it is a fixed point of T,
        read off the exact (n, M) product H = J Xi^T; computed on first use,
        so engines that run no trials pay nothing, and H itself is not
        kept."""
        return (_sign(self.fields(self.p.bits.T)) == self.p.bits.T).all(axis=0)


def _exact_type(bound: int) -> type:
    """The narrowest integer type of a CSR product whose every partial sum
    has magnitude at most bound: int16 below 2^15, int32 otherwise."""
    return np.int16 if bound < 2 ** 15 else np.int32


def _sign(h: np.ndarray) -> np.ndarray:
    """sgn(h) as int8, with sgn(0) = +1 by convention."""
    return (h >= 0).view(np.int8) * 2 - 1


def _h_s(s: np.ndarray, h: np.ndarray) -> np.ndarray:
    """H_S = -(1/n) sum_i s_i h_i per column, from the exact int64 sum."""
    return -(s * h).sum(axis=0, dtype=np.int64) / h.shape[0]


def _h_t(h: np.ndarray) -> np.ndarray:
    """H_T = -(1/n) sum_i |h_i| per column, from the exact int64 sum."""
    return -np.abs(h).sum(axis=0, dtype=np.int64) / h.shape[0]


def sequential_sweep(engine: FieldEngine, s) -> np.ndarray:
    """One full sweep of the sequential map S = T_n ... T_2 T_1 over the
    (n,) state s: each vertex updates in index order seeing all earlier
    updates.  On "complete" it keeps u = Xi s and adds 2 s_i Xi[:, i] when
    spin i flips to s_i, so a vertex costs O(M); u's entries are integers
    of magnitude <= n.

    On "csr" it runs _run_sweep on the +-1 state: a run's new spins are the
    signs of its product.  Every partial sum of J s is bounded by r_i, so
    both storages compute in the type, and under the bound, of fields()."""
    out = np.array(s, dtype=np.int8)
    if engine.storage == "complete":
        u = engine._xi @ out.astype(engine._xi.dtype)
        for i, col in enumerate(np.ascontiguousarray(engine._xi.T)):
            new = 1 if col @ u >= engine.p.m_patterns * int(out[i]) else -1
            if new != out[i]:
                out[i] = new
                u += 2 * new * col
        return out
    y = out[:, np.newaxis].astype(engine._data.dtype)
    _run_sweep(engine.g, engine._data, y, lambda lo, hi, h: _sign(h))
    return y[:, 0].astype(np.int8)


def energy_S(engine: FieldEngine, s) -> float:
    s = np.asarray(s, dtype=np.int8)
    return float(_h_s(s, engine.fields(s)))


def energy_T(engine: FieldEngine, s) -> float:
    return float(_h_t(engine.fields(np.asarray(s, dtype=np.int8))))


@dataclass(frozen=True)
class BlockOutcome:
    """Per-column result of run_block: column c ended as terminal[c] after
    steps[c] applications of T, in state final[:, c]."""

    terminal: np.ndarray    # (B,) "fixed_point" | "two_cycle" | "step_cap"
    steps: np.ndarray       # (B,) int64
    final: np.ndarray       # (n, B) int8


def run_block(engine: FieldEngine, states, k_max: int, mus=None) -> BlockOutcome:
    """Iterate the parallel map T on every column of the (n, B) block
    states at once.  A column retires on a fixed point (checked first), a
    2-cycle, or the step cap, exactly as run_dynamics would end it; the
    live columns share one field evaluation per step.

    mus, if given, holds each column's target pattern index.  A column
    whose state after k < k_max steps equals its target, where the target
    is a fixed point of T (engine._targets, from the exact product
    J Xi^T), retires without the confirming field evaluation: as
    fixed_point after k + 1 steps, in the target.  That is the outcome
    application k + 1 would give, so the result is the same as without
    mus; only the work shrinks."""
    n = engine.g.n
    s = np.asarray(states, dtype=np.int8)
    if s.ndim != 2 or s.shape[0] != n:
        raise ValueError("states must be an (n, B) block")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    b = s.shape[1]
    terminal = np.full(b, "step_cap", dtype="U11")
    steps = np.full(b, k_max, dtype=np.int64)
    final = np.empty((n, b), dtype=np.int8)
    live = np.arange(b)
    if mus is not None:
        mus = np.asarray(mus, dtype=np.int64)
    prev = None
    for k in range(1, k_max + 1):
        if mus is not None:
            # application k would find these columns fixed at their target
            at = engine._targets[mus[live]] & (s == engine.p.bits[mus[live]].T).all(axis=0)
            if at.any():
                idx = live[at]
                terminal[idx] = "fixed_point"
                steps[idx] = k
                final[:, idx] = s[:, at]
                keep = ~at
                live, s = live[keep], s[:, keep]
                if prev is not None:
                    prev = prev[:, keep]
        if not live.size:
            break
        nxt = _sign(engine.fields(s))
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
    return BlockOutcome(terminal, steps, final)


def run_dynamics(g: Graph, p: PatternSet, s0, mode: str = "parallel",
                 k_max: int = 1000, engine: FieldEngine | None = None) -> DynamicsOutcome:
    """Iterate the dynamics from s0 until a fixed point, a 2-cycle (parallel
    mode only), or the step cap.

    steps counts update applications performed, so a start that is already
    a fixed point reports steps=1 (the detecting application).  The energy
    trace holds H_T (parallel) or H_S (sequential) for every visited state
    including the start; parallel mode reads H_T off the fields that give
    the step.
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
    if engine is not None and (engine.g is not g or engine.p is not p):
        raise ValueError("engine was built from another graph or pattern set")
    eng = engine if engine is not None else FieldEngine(g, p)
    parallel = mode == "parallel"
    trace, prev = [], None
    for k in range(1, k_max + 1):
        if parallel:
            h = eng.fields(s)
            trace.append(float(_h_t(h)))
            nxt = _sign(h)
        else:
            trace.append(energy_S(eng, s))
            nxt = sequential_sweep(eng, s)
        if np.array_equal(nxt, s):
            trace.append(trace[-1])
            return DynamicsOutcome("fixed_point", k, nxt, np.asarray(trace))
        if parallel and prev is not None and np.array_equal(nxt, prev):
            trace.append(trace[-2])
            return DynamicsOutcome("two_cycle", k, nxt, np.asarray(trace))
        prev, s = s, nxt
    trace.append((energy_T if parallel else energy_S)(eng, s))
    return DynamicsOutcome("step_cap", k_max, s, np.asarray(trace))


def hamming(a, b) -> int:
    """d_H(a, b) = (n - <a, b>) / 2 = number of disagreeing coordinates."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("states differ in length")
    return int(np.count_nonzero(a != b))


def _flip_count(rho: float, n: int) -> int:
    """floor(rho * n), the number of coordinates a corruption flips; the
    1e-9 absorbs representation error in rho*n (e.g. 0.29 * 100)."""
    return int(math.floor(rho * n + 1e-9))


def corrupt(s, rho: float, seed) -> np.ndarray:
    """Flip exactly floor(rho * n) coordinates, chosen uniformly without
    replacement."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    s = np.array(s, dtype=np.int8)
    k = _flip_count(rho, s.size)
    if k:
        rng = np.random.default_rng(seed)
        idx = rng.choice(s.size, size=k, replace=False)
        s[idx] = -s[idx]
    return s

