"""Graph architectures: generators, degree statistics, and edge-list I/O.

All graphs are finite, undirected and simple (no loops, no multi-edges),
stored in CSR form with sorted neighbor lists.  Vertex labels are 0-based
integers.  Randomized generators take an explicit seed and are
deterministic given it.
"""
from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, NoReturn

import numpy as np

# save_edge_list formats this many edges per write
_WRITE_CHUNK = 1 << 16
# load_edge_list counts lines in reads of this many characters
_READ_CHUNK = 1 << 16


class EdgeListParseError(ValueError):
    """Malformed edge-list file.  Carries the offending 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class InfeasibleWeightsError(ValueError):
    """Weight sequence would assign some pair an edge probability >= 1."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph in CSR form.

    The neighbors of vertex ``i`` are ``indices[indptr[i]:indptr[i+1]]``,
    sorted ascending.  Every undirected edge {i, j} appears twice, once in
    each endpoint's list.  The vertex count ``n`` and the ``degrees`` are
    read off indptr.  Arrays are read-only; a Graph never mutates.
    """

    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        for a in (self.indptr, self.indices):
            a.setflags(write=False)

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @cached_property
    def degrees(self) -> np.ndarray:
        d = np.diff(self.indptr)
        d.setflags(write=False)
        return d

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    @property
    def is_complete(self) -> bool:
        """True for K_n: the graph is simple, so only K_n has n (n - 1) arcs."""
        return self.indices.size == self.n * (self.n - 1)

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    @cached_property
    def _levels(self) -> _Levels:
        # built on the first sequential sweep and kept: it depends only on
        # the graph, so every engine on it shares one schedule
        return _level_schedule(self)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"


class _Levels(NamedTuple):
    """The rows of a graph in level order (see _level_schedule).  Level k
    is the vertices order[cuts[k]:cuts[k + 1]].  Row r of the reordered CSR
    is vertex order[r]: arcs[indptr[r]:indptr[r + 1]] are its arcs'
    positions in the graph's indices, and cols, aligned with arcs, holds
    each arc's target as a row of the reordered CSR."""

    order: np.ndarray
    cuts: tuple
    arcs: np.ndarray
    indptr: np.ndarray
    cols: np.ndarray


def _spans(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The ranges [starts[k], stops[k]) concatenated into one array."""
    lengths = stops - starts
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


def _level_schedule(g: Graph) -> _Levels:
    """Levels for the index-order sweep.  Vertex j's level is 0 when it has
    no neighbour of lower index, and otherwise 1 + the largest level among
    those neighbours.  So no two adjacent vertices share a level, every
    lower-indexed neighbour of a vertex sits on an earlier level and every
    higher-indexed one on a later level: updating whole levels in turn is
    the index-order sweep.  The levels are Kahn waves over the arcs i -> j,
    i < j; within a level, vertices keep index order."""
    n, indptr, indices = g.n, g.indptr, g.indices
    src, dst = edge_endpoints(g)
    lower = np.bincount(src[dst < src], minlength=n)
    pending = lower.copy()
    level = np.empty(n, dtype=np.int64)
    wave, depth = np.flatnonzero(lower == 0), 0
    while wave.size:
        level[wave] = depth
        # rows are sorted, so a vertex's higher neighbours end its row
        above = indices[_spans(indptr[wave] + lower[wave], indptr[wave + 1])]
        above, hits = np.unique(above, return_counts=True)
        pending[above] -= hits
        wave, depth = above[pending[above] == 0], depth + 1
    order = np.argsort(level, kind="stable")
    cuts = np.searchsorted(level[order], np.arange(depth + 1))
    row = np.empty(n, dtype=np.int64)
    row[order] = np.arange(n)
    arcs = _spans(indptr[order], indptr[order + 1])
    out = _Levels(order, tuple(cuts.tolist()), arcs,
                  np.concatenate(([0], np.cumsum(g.degrees[order]))), row[indices[arcs]])
    for a in (out.order, out.arcs, out.indptr, out.cols):
        a.setflags(write=False)
    return out


@dataclass(frozen=True)
class DegreeStats:
    """Degree summary: min, max, average, and the size-biased average
    d_tilde = sum(d_i^2) / sum(d_i) (0 for an edgeless graph)."""

    delta: int
    m: int
    d_avg: float
    d_tilde: float
    edge_count: int


@dataclass(frozen=True)
class WeightSequence:
    """Expected-degree sequence for the random graph model G(w).

    Pair {i, j} is an edge with probability rho_norm * w_i * w_j, where
    rho_norm = 1 / sum(w).  The constructor copies the weights and checks
    them: non-negative, non-increasing (the order the edge sampler walks),
    with a positive entry, and feasible, max(w)^2 < sum(w), so that every
    pair probability stays below 1.

    Raises
    ------
    ValueError
        If the weights are empty, not 1-d, negative somewhere, increasing
        somewhere, or all zero.
    InfeasibleWeightsError
        If max(w)^2 >= sum(w).
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        if np.any(np.diff(w) > 0):
            raise ValueError("weights must be non-increasing")
        total = float(w.sum())
        if total <= 0:
            raise ValueError("weights must contain a positive entry")
        if float(w[0]) ** 2 >= total:
            raise InfeasibleWeightsError(
                f"max weight squared {w[0] ** 2:.6g} >= total weight {total:.6g}"
            )
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def rho_norm(self) -> float:
        return 1.0 / float(self.weights.sum())


def _arc_keys(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One int64 key src * n + dst per arc of the undirected pairs
    (u[k], v[k]), sorted: the order is by source, then target."""
    keys = np.concatenate([u * n + v, v * n + u])
    keys.sort()
    return keys


def _from_keys(n: int, keys: np.ndarray) -> Graph:
    """Build CSR arrays from the sorted arc keys of a simple graph.  Reuses
    ``keys`` as the targets."""
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    keys %= n
    return Graph(indptr, keys)


def _from_pairs(n: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """Build CSR arrays from unique undirected pairs (u[k] < v[k])."""
    return _from_keys(n, _arc_keys(n, u, v))


def gen_complete(n: int) -> Graph:
    """Complete graph K_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    indices = np.empty(n * (n - 1), dtype=np.int64)
    row = np.arange(n, dtype=np.int64)
    for i in range(n):
        indices[i * (n - 1):(i + 1) * (n - 1)] = np.concatenate([row[:i], row[i + 1:]])
    indptr = np.arange(0, n * (n - 1) + 1, n - 1, dtype=np.int64) if n > 1 \
        else np.zeros(2, dtype=np.int64)
    return Graph(indptr, indices)


def gen_erdos_renyi(n: int, p: float, seed) -> Graph:
    """Erdos-Renyi graph G(n, p): each of the n-choose-2 pairs is an edge
    independently with probability p.

    Drawn by the same sampler as ``gen_chung_lu``, with every weight 1 and
    rho = p, in O(n + |E|) expected time.

    Parameters
    ----------
    n : int
        Vertex count, >= 1.
    p : float
        Edge probability in [0, 1].
    seed : int or numpy Generator
        Randomness source; a given int seed fixes the graph.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p == 0.0 or n == 1:
        return _from_pairs(n, np.empty(0, np.int64), np.empty(0, np.int64))
    if p == 1.0:
        return gen_complete(n)
    rng = np.random.default_rng(seed)
    return _from_pairs(n, *_edge_pairs(np.ones(n), p, rng))


def _edge_pairs(weights, rho, rng) -> tuple[np.ndarray, np.ndarray]:
    """Miller-Hagberg sampler, run on all rows at once: pair {i, j}, i < j,
    is an edge with probability P_ij = min(rho * w_i * w_j, 1).

    Row i walks j = i+1, i+2, ... with a bound p_i >= P_ij: it skips a
    geometric(p_i) number of candidates, accepts the one it lands on with
    probability P_ij / p_i, and lowers its bound to P_ij.  The bound holds
    because the weights are non-increasing.  Each round draws one uniform
    per live row for the skip and one per surviving row for the
    acceptance, in ascending row order.
    """
    n = weights.size
    rows = np.flatnonzero(weights[:-1] > 0)
    j = rows + 1
    p = np.minimum(rho * weights[rows] * weights[j], 1.0)
    us, vs = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    while rows.size:
        live = p > 0
        rows, j, p = rows[live], j[live], p[live]
        # log(1 - p) = -inf at p = 1; at a subnormal p the skip overflows
        # to +inf, which the clamp to n turns into no edge, as at p = 1
        with np.errstate(divide="ignore", over="ignore"):
            skip = np.floor(np.log1p(-rng.random(rows.size)) / np.log1p(-p))
        j = np.minimum(j + skip, n).astype(np.int64)
        live = j < n
        rows, j, p = rows[live], j[live], p[live]
        q = np.minimum(rho * weights[rows] * weights[j], 1.0)
        hit = rng.random(rows.size) < q / p
        us.append(rows[hit])
        vs.append(j[hit])
        j, p = j + 1, q
        live = j < n
        rows, j, p = rows[live], j[live], p[live]
    return np.concatenate(us), np.concatenate(vs)


def powerlaw_weights(n: int, beta: float, d_avg: float, m_bar: float) -> WeightSequence:
    """Power-law expected-degree sequence with exponent beta, mean degree
    d_avg and max degree m_bar.

    w_i = c * i^(-1/(beta-1)) on the index window i0 .. i0+n-1, with
    c = ((beta-2)/(beta-1)) * d_avg * n^(1/(beta-1)) and
    i0 = n * (d_avg*(beta-2) / (m_bar*(beta-1)))^(beta-1), rounded to the
    nearest integer >= 1.  The resulting fraction of vertices with weight
    >= x decays like x^(1-beta).

    Raises
    ------
    ValueError
        If beta <= 2 or the degree parameters are not 0 < d_avg < m_bar < n.
    InfeasibleWeightsError
        If max(w)^2 >= sum(w).
    """
    if beta <= 2.0:
        raise ValueError("beta must exceed 2")
    if not (0.0 < d_avg < m_bar < n):
        raise ValueError("need 0 < d_avg < m_bar < n")
    inv = 1.0 / (beta - 1.0)
    c = (beta - 2.0) / (beta - 1.0) * d_avg * n ** inv
    i0_real = n * (d_avg * (beta - 2.0) / (m_bar * (beta - 1.0))) ** (beta - 1.0)
    i0 = max(1, int(math.floor(i0_real + 0.5)))
    idx = i0 + np.arange(n, dtype=np.float64)
    return WeightSequence(c * idx ** (-inv))


def gen_chung_lu(w: WeightSequence, seed) -> Graph:
    """Random graph G(w) with independent edges P[{i,j}] = rho * w_i * w_j.

    Self-pairs are never considered, so vertex i has expected degree
    w_i * (1 - rho * w_i), which is w_i up to the excluded self-loop term.

    The Miller-Hagberg sampler draws the graph in O(n + |E|) expected time;
    it relies on the weights being non-increasing, which WeightSequence
    checks when it is built.
    """
    rng = np.random.default_rng(seed)
    return _from_pairs(w.n, *_edge_pairs(w.weights, w.rho_norm, rng))


def gen_two_cliques(m_small: int, n: int, bridged: bool = False) -> Graph:
    """Disjoint union of K_{m_small} on vertices 0..m_small-1 and
    K_{n-m_small} on the rest, optionally joined by the single bridge edge
    {m_small-1, m_small}."""
    if not 2 <= m_small <= n - 2:
        raise ValueError("need 2 <= m_small <= n - 2")
    us, vs = [], []
    for lo, hi in ((0, m_small), (m_small, n)):
        idx = np.arange(lo, hi, dtype=np.int64)
        iu, iv = np.triu_indices(hi - lo, k=1)
        us.append(idx[iu])
        vs.append(idx[iv])
    if bridged:
        us.append(np.array([m_small - 1], dtype=np.int64))
        vs.append(np.array([m_small], dtype=np.int64))
    return _from_pairs(n, np.concatenate(us), np.concatenate(vs))


def degree_stats(g: Graph) -> DegreeStats:
    d = g.degrees
    total = int(d.sum())
    if total == 0:
        return DegreeStats(delta=int(d.min()) if g.n else 0, m=0, d_avg=0.0,
                           d_tilde=0.0, edge_count=0)
    return DegreeStats(
        delta=int(d.min()),
        m=int(d.max()),
        d_avg=total / g.n,
        d_tilde=float((d.astype(np.float64) ** 2).sum() / total),
        edge_count=total // 2,
    )


def edge_endpoints(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Directed incidence arrays (src, dst): every undirected edge appears
    as both (i, j) and (j, i), aligned with g.indices."""
    src = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    return src, g.indices


def adjacency_matrix(g: Graph):
    """Adjacency matrix as a scipy CSR float64 matrix."""
    import scipy.sparse as sp

    data = np.ones(g.indices.size, dtype=np.float64)
    return sp.csr_matrix((data, g.indices, g.indptr), shape=(g.n, g.n))


def validate_graph(g: Graph) -> None:
    """Raise ValueError unless g is a well-formed undirected simple graph."""
    if g.indptr.size == 0 or g.indptr[0] != 0 or g.indptr[-1] != g.indices.size:
        raise ValueError("indptr inconsistent with indices")
    if g.indices.size and (g.indices.min() < 0 or g.indices.max() >= g.n):
        raise ValueError("neighbor index out of range")
    src, dst = edge_endpoints(g)
    if np.any(src == dst):
        raise ValueError("self-loop present")
    # consecutive arcs of one source must have increasing targets
    bad = np.flatnonzero((np.diff(dst) <= 0) & (src[1:] == src[:-1]))
    if bad.size:
        raise ValueError(f"neighbor list of {src[bad[0]]} not strictly increasing")
    # symmetry: the set of (src, dst) arcs must equal its transpose
    fwd = src * g.n + dst
    bwd = dst * g.n + src
    if not np.array_equal(np.sort(fwd), np.sort(bwd)):
        raise ValueError("adjacency not symmetric")


def save_edge_list(g: Graph, path) -> None:
    """Write the text edge-list format: header line "n edge_count", then one
    "i j" line per undirected edge with i < j, 0-based, ascending."""
    src, dst = edge_endpoints(g)
    keep = src < dst
    pairs = np.column_stack([src[keep], dst[keep]])
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.edge_count}\n")
        for k in range(0, len(pairs), _WRITE_CHUNK):
            chunk = pairs[k:k + _WRITE_CHUNK]
            fh.write(("{} {}\n" * len(chunk)).format(*chunk.ravel().tolist()))


def load_edge_list(path) -> Graph:
    r"""Parse the edge-list format written by save_edge_list.

    Syntax: a header line "n edge_count", then one "i j" line per edge.
    Fields are ASCII integers with an optional sign, separated by
    whitespace; lines end in "\n" or "\r\n", the last one optionally in
    neither; there are no comments and no blank lines.

    The body is parsed by one ``np.loadtxt`` call and checked with
    whole-array tests.  Only a file that fails them is read again, line by
    line, to find and quote its first bad line.

    Raises EdgeListParseError (with the 1-based line number) on a malformed
    line, an out-of-range vertex, a self-loop, an out-of-order pair, a
    duplicate edge, or an edge count that disagrees with the header.  On a
    line with several faults the first of that list is reported.
    """
    with open(path) as fh:
        n, count = _read_header(fh)
        lines = _count_lines(fh)
    pairs = _parse_pairs(path) if lines else np.empty((0, 2), np.int64)
    # np.loadtxt skips blank lines: a blank line leaves fewer rows than lines
    if pairs is not None and pairs.shape == (count, 2) and lines == count:
        u, v = pairs[:, 0], pairs[:, 1]
        if not np.any((u < 0) | (v >= n) | (u >= v)):
            keys = _arc_keys(n, u, v)
            # a repeated edge leaves two equal neighbouring keys
            if not np.any(keys[1:] == keys[:-1]):
                return _from_keys(n, keys)
    _raise_first_bad_line(path, n, count)


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _to_int(field: str) -> int:
    """int(field) for the integers np.loadtxt reads: no "_" separators and
    no digits outside ASCII."""
    if not _INTEGER.fullmatch(field):
        raise ValueError(field)
    return int(field)


def _read_header(fh) -> tuple[int, int]:
    """Read and check the "n edge_count" line of an open edge-list file."""
    header = fh.readline()
    if not header:
        raise EdgeListParseError(1, "missing header line")
    header = header.rstrip("\n")
    head = header.split()
    if len(head) != 2:
        raise EdgeListParseError(1, f"expected 'n edge_count', got {header!r}")
    try:
        n, count = _to_int(head[0]), _to_int(head[1])
    except ValueError:
        raise EdgeListParseError(1, f"non-integer header field in {header!r}") from None
    if n < 0 or count < 0:
        raise EdgeListParseError(1, "negative header field")
    return n, count


def _count_lines(fh) -> int:
    """Number of lines left in the text file fh."""
    lines, last = 0, "\n"
    for chunk in iter(lambda: fh.read(_READ_CHUNK), ""):
        lines += chunk.count("\n")
        last = chunk[-1]
    return lines + (last != "\n")


def _parse_pairs(path) -> np.ndarray | None:
    """The body of an edge-list file as an int64 array of rows, or None
    where np.loadtxt fails."""
    with warnings.catch_warnings():
        # a whitespace-only body is "no data" to loadtxt; the line count
        # already tells it from an empty one
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            return np.loadtxt(path, dtype=np.int64, comments=None, ndmin=2, skiprows=1)
        except ValueError:
            return None


def _raise_first_bad_line(path, n: int, count: int) -> NoReturn:
    """Raise the EdgeListParseError of the first bad line of an edge-list
    file that failed load_edge_list's whole-array checks."""
    first: dict[int, int] = {}     # i * n + j -> the line it first appears on
    lineno = 1
    with open(path) as fh:
        fh.readline()
        for lineno, raw in enumerate(fh, start=2):
            raw = raw.rstrip("\n")
            if not raw.strip():
                raise EdgeListParseError(lineno, "blank line")
            parts = raw.split()
            if len(parts) != 2:
                raise EdgeListParseError(lineno, f"expected 'i j', got {raw!r}")
            try:
                i, j = _to_int(parts[0]), _to_int(parts[1])
            except ValueError:
                raise EdgeListParseError(lineno, f"non-integer vertex in {raw!r}") from None
            if not (0 <= i < n and 0 <= j < n):
                raise EdgeListParseError(lineno, f"vertex out of range in {raw!r}")
            if i == j:
                raise EdgeListParseError(lineno, f"self-loop {i}")
            if i > j:
                raise EdgeListParseError(lineno, f"vertices out of order in {raw!r}")
            key = i * n + j
            if key in first:
                raise EdgeListParseError(
                    lineno, f"duplicate edge {i} {j} (first at line {first[key]})")
            if len(first) >= count:
                raise EdgeListParseError(lineno, f"more than {count} edges declared in header")
            first[key] = lineno
    # every line is sound, so the checks failed on the edge count
    raise EdgeListParseError(lineno, f"header declares {count} edges, found {len(first)}")
