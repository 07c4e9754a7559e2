"""Graph architectures: generators, degree statistics, and edge-list I/O.

All graphs are finite, undirected and simple (no loops, no multi-edges),
stored in CSR form with sorted neighbor lists.  Vertex labels are 0-based
integers.  Every graph built here stores int32 ``indptr`` and ``indices``,
so its arc count and its vertex labels stay below 2^31.  Randomized
generators take an explicit seed and are deterministic given it.
"""
from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NoReturn

import numpy as np

# save_edge_list and validate_graph read the CSR arcs this many at a time
_ARC_CHUNK = 1 << 17
# load_edge_list counts lines in reads of this many bytes
_READ_CHUNK = 1 << 16
# the CSR arrays are int32: vertex and arc counts stay below this
_INT32_LIMIT = 2 ** 31


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
    read off indptr.  The arrays are kept as given, in whatever integer
    type (the generators and the loader give int32).  They are read-only;
    a Graph never mutates.
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

    @cached_property
    def _runs(self) -> tuple:
        # built on the first sequential sweep and kept: it depends only on
        # the graph, so every engine on it shares one set of runs
        return _run_cuts(self)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _run_cuts(g: Graph) -> tuple:
    """Cuts 0 = c_0 < ... < c_k = n of the index order into maximal runs of
    consecutive vertices with no edge inside a run.  Scanning upward,
    vertex j starts a new run when its largest lower-indexed neighbour lies
    in the current run.  So every lower-indexed neighbour of a vertex sits
    in an earlier run and every higher-indexed one in a later run: updating
    whole runs in turn is the index-order sweep.  The neighbours are read
    off the arcs in blocks of _ARC_CHUNK, then one pass over the vertices
    places the cuts."""
    # in the targets' own type: maximum.at is many times slower when it
    # has to cast them
    low = np.full(g.n, -1, dtype=g.indices.dtype)
    for _, _, src, dst in _arc_blocks(g, _ARC_CHUNK):
        below = dst < src
        np.maximum.at(low, src[below], dst[below])
    cuts = []
    for j, i in enumerate(low.tolist()):
        if not cuts or i >= cuts[-1]:
            cuts.append(j)
    return tuple(cuts + [g.n])


@dataclass(frozen=True)
class DegreeStats:
    """Degree summary: min, max, average, and the size-biased average
    d_tilde = sum(d_i^2) / sum(d_i) (0 for an edgeless graph)."""

    delta: int
    m: int
    d_avg: float
    d_tilde: float
    edge_count: int


@dataclass(frozen=True, eq=False)
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

    def __eq__(self, other):
        if not isinstance(other, WeightSequence):
            return NotImplemented
        return np.array_equal(self.weights, other.weights)


def _check_arcs(arcs: int) -> None:
    if arcs >= _INT32_LIMIT:
        raise ValueError(f"{arcs} arcs: int32 CSR arrays hold fewer than 2^31")


def _key_type(n: int) -> type:
    """The type of the arc keys src * n + dst of an n-vertex graph: uint32
    while every key, below n^2, fits (n <= 2^16), so a sort moves half the
    bytes; int64 beyond."""
    return np.uint32 if n <= 1 << 16 else np.int64


def _arc_keys(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One key src * n + dst per arc of the undirected pairs (u[k], v[k]),
    in _key_type(n), unsorted (sorted, they order the arcs by source, then
    target).  Both halves are written in place."""
    _check_arcs(2 * u.size)
    keys = np.empty(2 * u.size, dtype=_key_type(n))
    _put_keys(u, v, n, keys[:u.size])
    _put_keys(v, u, n, keys[u.size:])
    return keys


def _put_keys(src: np.ndarray, dst: np.ndarray, n: int, out: np.ndarray) -> None:
    """out = src * n + dst, computed in out's type (the key type) whatever
    the type of the labels, which lie in [0, n)."""
    kt = out.dtype
    np.multiply(src, kt.type(n), out=out, dtype=kt, casting="unsafe")
    np.add(out, dst, out=out, dtype=kt, casting="unsafe")


def _from_keys(n: int, keys: np.ndarray) -> Graph:
    """Build int32 CSR arrays from the sorted arc keys of a simple graph,
    given in _key_type(n).  Rows are found by probes in the keys' own type
    (other probes would make searchsorted copy the keys); the last, n^2,
    can overflow uint32 and is keys.size anyway."""
    kt = keys.dtype.type
    indptr = np.empty(n + 1, dtype=np.int32)
    indptr[:n] = np.searchsorted(keys, np.arange(n, dtype=kt) * kt(n))
    indptr[n] = keys.size
    indices = np.empty(keys.size, dtype=np.int32)
    np.remainder(keys, kt(n), out=indices)
    return Graph(indptr, indices)


def _from_pairs(n: int, pairs: list) -> Graph:
    """Build CSR arrays from the unique undirected pairs (u[k] < v[k]) of
    pairs = [u, v].  The list is emptied once the arc keys exist, so a
    caller that keeps no other reference frees the pairs before the sort."""
    keys = _arc_keys(n, *pairs)
    pairs.clear()
    keys.sort()
    return _from_keys(n, keys)


def gen_complete(n: int) -> Graph:
    """Complete graph K_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_arcs(n * (n - 1))
    # row i's targets are j + (j >= i) for j < n - 1: every vertex but i
    j = np.arange(n - 1, dtype=np.int32)
    indices = (j + (j >= np.arange(n, dtype=np.int32)[:, None])).ravel()
    return Graph(np.arange(n + 1, dtype=np.int32) * (n - 1), indices)


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
    pairs = _erdos_renyi_pairs(n, p, seed)
    return gen_complete(n) if pairs is None else _from_pairs(n, pairs)


def _erdos_renyi_pairs(n: int, p: float, seed) -> list[np.ndarray] | None:
    """The edges [u, v], u < v, of gen_erdos_renyi(n, p, seed), drawn from
    seed exactly as it draws them, or None for p = 1, which is K_n and
    draws nothing.  Checks the arguments as gen_erdos_renyi documents."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p == 1.0:
        return None
    return _edge_pairs(np.ones(n), p, np.random.default_rng(seed))


def _edge_pairs(weights, rho, rng) -> list[np.ndarray]:
    """Miller-Hagberg sampler, run on all rows at once: pair {i, j}, i < j,
    is an edge with probability P_ij = min(rho * w_i * w_j, 1).

    Row i walks j = i+1, i+2, ... with a bound p_i >= P_ij: it skips a
    geometric(p_i) number of candidates, accepts the one it lands on with
    probability P_ij / p_i, and lowers its bound to P_ij.  The bound holds
    because the weights are non-increasing.  Each round draws one uniform
    per live row for the skip and one per surviving row for the
    acceptance, in ascending row order.  Rows and targets stay int64 in
    the loop, since numpy indexes more slowly with int32 arrays; each
    round's edges are kept as int32, and returned as [u, v].
    """
    n = weights.size
    rows = np.flatnonzero(weights[:-1] > 0)
    j = rows + 1
    p = np.minimum(rho * weights[rows] * weights[j], 1.0)
    us, vs = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
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
        us.append(rows[hit].astype(np.int32))
        vs.append(j[hit].astype(np.int32))
        j, p = j + 1, q
        live = j < n
        rows, j, p = rows[live], j[live], p[live]
    return [np.concatenate(us), np.concatenate(vs)]


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
    return _from_pairs(w.n, _edge_pairs(w.weights, w.rho_norm, rng))


def gen_two_cliques(m_small: int, n: int, bridged: bool = False) -> Graph:
    """Disjoint union of K_{m_small} on vertices 0..m_small-1 and
    K_{n-m_small} on the rest, optionally joined by the single bridge edge
    {m_small-1, m_small}."""
    if not 2 <= m_small <= n - 2:
        raise ValueError("need 2 <= m_small <= n - 2")
    cliques = ((0, m_small), (m_small, n - m_small))
    edges = sum(k * (k - 1) // 2 for _, k in cliques) + bridged
    _check_arcs(2 * edges)
    # no name but the list holds the pairs, so _from_pairs frees them
    pairs = [np.empty(edges, np.int32), np.empty(edges, np.int32)]
    at = 0
    for lo, k in cliques:
        e = k * (k - 1) // 2
        _clique_pairs(lo, k, *(p[at:at + e] for p in pairs))
        at += e
    if bridged:
        pairs[0][-1], pairs[1][-1] = m_small - 1, m_small
    return _from_pairs(n, pairs)


def _clique_pairs(lo: int, k: int, u: np.ndarray, v: np.ndarray) -> None:
    """Write the pairs (lo + i, lo + j), i < j < k, of a k-clique into u
    and v, row i after row i - 1, as running sums in their own type: row
    i's targets are i + 1 .. k - 1, so where a row starts u steps up by
    one and v drops back from k - 1 to i + 1; elsewhere v steps up by one."""
    starts = np.cumsum(np.arange(k - 1, 1, -1))     # rows 1 .. k - 2
    u.fill(0)
    u[0], u[starts] = lo, 1
    v.fill(1)
    v[0], v[starts] = lo + 1, np.arange(3 - k, 1)
    np.cumsum(u, dtype=u.dtype, out=u)
    np.cumsum(v, dtype=v.dtype, out=v)


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
    """Adjacency matrix as a scipy CSR float64 matrix.  It shares g's
    int32 index arrays, which scipy keeps as they are."""
    import scipy.sparse as sp

    data = np.ones(g.indices.size, dtype=np.float64)
    return sp.csr_matrix((data, g.indices, g.indptr), shape=(g.n, g.n))


def validate_graph(g: Graph) -> None:
    """Raise ValueError unless g is a well-formed undirected simple graph.

    Symmetry costs one sort: once the indices are in range and every row
    strictly increases, the arc keys src * n + dst are already in
    ascending order, so only the reversed keys dst * n + src are sorted
    before the two are compared.  The arcs are read in blocks of
    _ARC_CHUNK: the reversed keys fill one preallocated array, sorted in
    place, and the forward keys are formed and compared a block at a
    time, so the scratch memory is about one key per arc, 4 bytes in
    _key_type(n) up to n = 2^16 and 8 beyond.
    """
    indptr, indices = g.indptr, g.indices
    if (indptr.size == 0 or indptr[0] != 0 or indptr[-1] != indices.size
            or np.any(indptr[1:] < indptr[:-1])):
        raise ValueError("indptr inconsistent with indices")
    if indices.size and (indices.min() < 0 or indices.max() >= g.n):
        raise ValueError("neighbor index out of range")
    # with every target below n, the key src * n + dst orders the arcs by
    # source, then target: each row strictly increases exactly when the
    # keys do
    n = g.n
    bwd = np.empty(indices.size, dtype=_key_type(n))
    fwd = np.empty(min(indices.size, _ARC_CHUNK), dtype=bwd.dtype)
    loop, unsorted, last = False, None, None
    for a, b, src, dst in _arc_blocks(g, _ARC_CHUNK):
        loop = loop or bool(np.any(src == dst))
        key = fwd[:b - a]
        _put_keys(src, dst, n, key)
        if unsorted is None:
            bad = np.flatnonzero(key[1:] <= key[:-1])
            # a fault at the block's first arc lies in the last block's row
            if last is not None and key[0] <= last:
                unsorted = last // n
            elif bad.size:
                unsorted = src[bad[0]]
        last = key[-1]
        _put_keys(dst, src, n, bwd[a:b])
    if loop:
        raise ValueError("self-loop present")
    if unsorted is not None:
        raise ValueError(f"neighbor list of {unsorted} not strictly increasing")
    # symmetry: the set of (src, dst) arcs must equal its transpose
    bwd.sort()
    for a, b, src, dst in _arc_blocks(g, _ARC_CHUNK):
        key = fwd[:b - a]
        _put_keys(src, dst, n, key)
        if not np.array_equal(key, bwd[a:b]):
            raise ValueError("adjacency not symmetric")


def _arc_blocks(g: Graph, chunk: int):
    """(a, b, src, dst) for the arcs a..b-1 of g, `chunk` at a time: dst
    is g.indices[a:b] and src, aligned with it, each arc's source row.
    Needs a non-decreasing indptr."""
    for a in range(0, g.indices.size, chunk):
        b = min(a + chunk, g.indices.size)
        # the rows r0 .. r1 the block meets, and their arcs within it
        r0, r1 = np.searchsorted(g.indptr, [a, b - 1], side="right") - 1
        cuts = np.clip(g.indptr[r0:r1 + 2], a, b)
        src = np.repeat(np.arange(r0, r1 + 1, dtype=np.int64), np.diff(cuts))
        yield a, b, src, g.indices[a:b]


def save_edge_list(g: Graph, path) -> None:
    """Write the text edge-list format: header line "n edge_count", then one
    "i j" line per undirected edge with i < j, 0-based, ascending, in plain
    decimal with "\n" line ends.

    The arcs are read in blocks of _ARC_CHUNK, and each block's edges
    i -> j, i < j, are formatted into one byte buffer by _edge_lines, so
    the writer's scratch memory is bounded by the block, not the graph.
    """
    with open(path, "wb") as fh:
        fh.write(f"{g.n} {g.edge_count}\n".encode())
        for _, _, src, dst in _arc_blocks(g, _ARC_CHUNK):
            keep = src < dst
            fh.write(_edge_lines(np.column_stack([src[keep], dst[keep]])))


def _edge_lines(pairs: np.ndarray) -> np.ndarray:
    """The ASCII lines "i j\n" of the rows (i, j) of an array of
    non-negative integers, as one uint8 array.

    Each value is first written as a fixed-width field of digits, taken by
    repeated // 10 from the right, then its leading zeros are masked out:
    a column is kept when it lies within the value's digit count, that is
    while the value left to divide is non-zero, and the units column
    always.
    """
    top = pairs.max(initial=0)
    width = len(str(int(top)))
    # the divisions are the cost, and they run faster on a narrower type
    x = pairs.astype(np.min_scalar_type(top))
    # row r of text is i's field and " ", then j's field and "\n"
    text = np.empty((len(pairs), 2, width + 1), np.uint8)
    keep = np.empty(text.shape, bool)
    text[:, 0, width] = ord(" ")
    text[:, 1, width] = ord("\n")
    keep[:, :, width] = True
    for c in range(width - 1, -1, -1):
        keep[:, :, c] = x > 0
        q = x // 10
        text[:, :, c] = x - 10 * q + ord("0")
        x = q
    keep[:, :, width - 1] = True
    return text[keep]


def load_edge_list(path) -> Graph:
    r"""Parse the edge-list format written by save_edge_list.

    Syntax: a header line "n edge_count", then one "i j" line per edge.
    Fields are ASCII integers with an optional sign, separated by
    whitespace; lines end in "\n", "\r\n" or a lone "\r", the last one
    optionally in none of them; there are no comments and no blank lines.

    The body is parsed by one int32 ``np.loadtxt`` call and checked with
    whole-array tests; the parsed pairs are dropped once their arc keys
    exist, before the keys are sorted.  Only a file that fails the tests
    (a vertex label past int32 fails the parse) is read again, line by
    line, to find and quote its first bad line.

    Raises EdgeListParseError (with the 1-based line number) on a malformed
    line, an out-of-range vertex, a self-loop, an out-of-order pair, a
    duplicate edge, or an edge count that disagrees with the header.  On a
    line with several faults the first of that list is reported.  A byte
    that is not UTF-8 is read as its escape (\xff), so its field is malformed.
    """
    with open(path, encoding="utf-8", errors="backslashreplace") as fh:
        n, count = _read_header(fh)
    lines = _count_lines(path) - 1
    pairs = _parse_pairs(path) if lines else np.empty((0, 2), np.int32)
    # np.loadtxt skips blank lines: a blank line leaves fewer rows than lines
    if pairs is not None and pairs.shape == (count, 2) and lines == count:
        u, v = pairs[:, 0], pairs[:, 1]
        if not np.any((u < 0) | (v >= n) | (u >= v)):
            keys = _arc_keys(n, u, v)
            del pairs, u, v
            keys.sort()
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
    if n >= _INT32_LIMIT:
        raise EdgeListParseError(1, f"{n} vertices: int32 CSR arrays hold fewer than 2^31")
    return n, count


def _count_lines(path) -> int:
    r"""Number of lines of the file at path as text mode reads them, counted
    in its bytes without decoding them: "\n", "\r\n" and a lone "\r" each
    end a line, and the last line may end in none."""
    lines, last = 0, b"\n"
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_READ_CHUNK), b""):
            # numpy counts a byte several times faster than bytes.count
            lines += np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n"))
            if b"\r" in chunk:
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            # a "\r\n" split between two reads
            if last == b"\r" and chunk[:1] == b"\n":
                lines -= 1
            last = chunk[-1:]
    return lines + (last not in (b"\n", b"\r"))


def _parse_pairs(path) -> np.ndarray | None:
    """The body of an edge-list file as an int32 array of rows, or None
    where np.loadtxt fails."""
    with warnings.catch_warnings():
        # a whitespace-only body is "no data" to loadtxt; the line count
        # already tells it from an empty one
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            return np.loadtxt(path, dtype=np.int32, comments=None, ndmin=2, skiprows=1)
        except ValueError:
            return None


def _raise_first_bad_line(path, n: int, count: int) -> NoReturn:
    """Raise the EdgeListParseError of the first bad line of an edge-list
    file that failed load_edge_list's whole-array checks."""
    first: dict[int, int] = {}     # i * n + j -> the line it first appears on
    lineno = 1
    with open(path, encoding="utf-8", errors="backslashreplace") as fh:
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
