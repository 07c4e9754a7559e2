"""Entropy helpers and empirical checks of the concentration bounds.

The quadratic form S = sum_{{i,j} in E} X_i X_j over i.i.d. +-1 signs
satisfies E[exp(tS)] <= exp(l t^2 / (2 (1 - lambda1 t))) for
0 <= t < 1/lambda1 (l = |E|), and hence
P[S > y] <= exp(-y^2 / (2 (l + lambda1 y))).  Both hold deterministically
for every graph, so the checkers here enumerate all sign vectors when n is
small and fall back to seeded Monte Carlo with confidence intervals above.
S is x^T U x, one exact integer product with U, the strict upper triangle
of the adjacency, so every edge is taken once.  The fields of the energy
check behind `verify --check energy` go through FieldEngine's exact
product, with no n x n array, and all of its trials' sweeps and steps run
as blocks on that one product.  The degree check reads each G(n, p)
sample's degrees off its drawn edges, without building the graph.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hopfield
from .graphs import Graph, _erdos_renyi_pairs, edge_endpoints, gen_erdos_renyi
from .hopfield import (FieldEngine, PatternSet, _exact_type, _h_s, _h_t, _sign,
                       sample_patterns)
from .spectral import SpectralSummary

# 2^16 states is the largest full enumeration worth doing
_EXHAUSTIVE_LIMIT = 16
# batch means behind the Monte Carlo interval of mgf_check
_MGF_BATCHES = 100
# sign vectors per product with U (one pool task, converted to int16 on its
# own), and signs per random draw: numpy packs four int8 draws into a
# 32-bit word, so the draw block size is part of the seed -> sample mapping
_FORM_BLOCK = 256
_DRAW_CHUNK = 5_000_000
# the most n times the pattern columns of one block of energy-check trials
_ENERGY_BLOCK = 2 ** 18


def entropy(x: float) -> float:
    """Binary entropy h(x) = -x log x - (1-x) log(1-x) in nats, with
    h(0) = h(1) = 0 by continuity."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("entropy argument must lie in [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


def rel_entropy(a: float, p: float) -> float:
    """Relative entropy H(a, p) = a log(a/p) + (1-a) log((1-a)/(1-p))
    between Bernoulli(a) and Bernoulli(p), both in the open interval."""
    if not (0.0 < a < 1.0 and 0.0 < p < 1.0):
        raise ValueError("rel_entropy arguments must lie in (0, 1)")
    return a * math.log(a / p) + (1.0 - a) * math.log((1.0 - a) / (1.0 - p))


def wilson_interval(successes: int, trials: int, z: float = 1.959964) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    # exact at the ends: at 0 successes center - half leaves a ~1e-19
    # residue, and at all successes center + half can round to 1 - 2^-53
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class FormReport:
    """Empirical vs analytic values of the edge quadratic form's tail or
    moment generating function, one row per grid point."""

    empirical: np.ndarray      # columns: estimate, ci_lo, ci_hi
    analytic: np.ndarray
    violations: int
    method: str                # "exhaustive" | "monte_carlo"
    samples: int


@dataclass(frozen=True)
class DegreeTailReport:
    """Frequencies of extreme-degree events in G(n, p) against the
    union-bound predictions."""

    epsilon: float
    upper_threshold: float
    lower_threshold: float
    max_exceed_freq: float
    max_exceed_ci: tuple[float, float]
    min_exceed_freq: float
    min_exceed_ci: tuple[float, float]
    upper_bound: float | None
    lower_bound: float | None
    in_validity_range: bool
    violations: int


def _form_values(g: Graph, samples: int, seed) -> np.ndarray:
    """S(x) = x^T U x, U the strict upper triangle of A, exact integers as
    float64, for every sign vector x when n <= _EXHAUSTIVE_LIMIT, else for
    `samples` uniform draws seeded by seed.

    Rows are held as 0/1 bits, drawn _DRAW_CHUNK signs at a time; each
    _FORM_BLOCK of them becomes, on its own, the columns of a sign block
    x, and one call of hopfield's CSR kernel with U's arcs (all ones)
    gives U x.  U's arcs are the arcs i -> j of edge_endpoints with j > i,
    still in CSR order, so each edge is taken once.  |(U x)_i| <= max
    degree, so U x and x o U x are exact in hopfield._exact_type of the
    max degree, and the columns are summed in int64.
    The blocks are spread over hopfield's thread pool, and come back in
    order."""
    n = g.n
    src, dst = edge_endpoints(g)
    up = dst > src
    up_cols = dst[up]
    # offsets in the columns' own type, so the kernel converts neither
    up_ptr = np.concatenate(([0], np.cumsum(np.bincount(src[up], minlength=n))),
                            dtype=up_cols.dtype)
    ones = np.ones(up_cols.size, _exact_type(int(g.degrees.max(initial=0))))

    def forms(bits):
        x = np.empty((n, bits.shape[0]), dtype=ones.dtype)
        np.multiply(bits.T, 2, out=x)
        x -= 1
        ux = np.zeros_like(x)
        hopfield._product(up_ptr, up_cols, ones, x, ux)
        ux *= x
        return ux.sum(axis=0, dtype=np.int64)

    if n <= _EXHAUSTIVE_LIMIT:
        codes = np.arange(2 ** n, dtype=np.uint32)[:, np.newaxis]
        chunks = [((codes >> np.arange(n, dtype=np.uint32)) & 1).astype(np.int8)]
    else:
        rng = np.random.default_rng(seed)
        draw = max(1, _DRAW_CHUNK // n)
        chunks = (_sign_bits(rng, (min(draw, samples - lo), n))
                  for lo in range(0, samples, draw))
    out = []
    for bits in chunks:
        out.extend(hopfield._POOL.map(forms, (bits[lo:lo + _FORM_BLOCK] for lo
                                              in range(0, bits.shape[0], _FORM_BLOCK))))
        del bits        # or it would still be held while the next chunk is drawn
    return np.concatenate(out, dtype=np.float64)


def _sign_bits(rng, shape: tuple) -> np.ndarray:
    """rng.integers(0, 2, shape, dtype=np.int8) as uint8: one raw uint32
    draw per four signs, bit 7 of each of its little-endian bytes.  numpy
    draws each int8 in [0, 2) as bit 7 of one byte of a 32-bit word, the
    lowest byte first, and drops a call's unused bytes at its end, so these
    are the same random words, the same bits and the same generator state
    after the call; the gain is skipping numpy's per-element bounded-draw
    (Lemire) loop, not fewer draws."""
    size = math.prod(shape)
    words = rng.integers(0, 2 ** 32, -(-size // 4), dtype=np.uint32)
    bits = words.astype("<u4", copy=False).view(np.uint8)
    bits >>= 7
    return bits[:size].reshape(shape)


def _energy_check(g: Graph, trials: int, rng) -> np.ndarray:
    """H_S(s0), H_S(S s0), H_T(s0) and H_T(T s0) of `trials` random
    memories on g, as rows of a (trials, 4) array, each taken by
    hopfield's _h_s and _h_t, as energy_S and energy_T take it.  Trial k
    draws from rng, in turn, its pattern count M in 1..4, its M patterns
    (sample_patterns) and its start s0, the draws of one FieldEngine per
    trial.

    Every field goes through one adjacency engine (one all-ones pattern,
    so J is A): h(s) = sum_mu xi^mu o A (xi^mu o s), so a
    trial's fields are its M pattern-signed states' A-products, signed
    back and summed (see _energy_block).  Trials are taken in their draw
    order, in blocks whose n * (total M) stays at or below
    _ENERGY_BLOCK = 2^18 (a block holds at least one trial), which bounds
    the memory of a block's products whatever the trial count.  Needs
    trials >= 1."""
    engine = FieldEngine(g, PatternSet(np.ones((1, g.n), dtype=np.int8)))
    out, xis, starts, cols = [], [], [], 0
    for _ in range(trials):
        m = int(rng.integers(1, 5))
        xi = sample_patterns(m, g.n, rng).bits
        s0 = rng.integers(0, 2, g.n, dtype=np.int8) * 2 - 1
        if xis and g.n * (cols + m) > _ENERGY_BLOCK:
            out.append(_energy_block(engine, xis, starts)[2])
            xis, starts, cols = [], [], 0
        xis.append(xi)
        starts.append(s0)
        cols += m
    out.append(_energy_block(engine, xis, starts)[2])
    return np.concatenate(out)


def _energy_block(engine: FieldEngine, xis: list, starts: list) -> tuple:
    """The swept states S s0, the stepped states T s0 (both (n, trials)
    int8) and the (trials, 4) energies of _energy_check for the trials
    with patterns xis[k] ((M_k, n)) and starts starts[k] ((n,)).

    The trials' patterns stand side by side as the columns of Xi, with
    owner[c] the trial of column c, and y = Xi o s[:, owner] holds every
    pattern-signed state.  A trial's field is the sum over its columns of
    Xi o (A y), one np.add.reduceat; |(A y)_i| <= deg_i and M <= 4, so
    |h_i| <= 4 deg_i and every field is exact in int32.  The sequential
    sweep runs every trial at once through hopfield._run_sweep: per run,
    one product of A's run rows (all ones) with y, then the run's new
    spins _sign(h) and its rows of y rewritten.  y and the sweep's own
    array of ones take hopfield._exact_type of the maximum degree, the
    bound on every partial sum of A y."""
    g = engine.g
    ms = [x.shape[0] for x in xis]
    xi = np.ascontiguousarray(np.concatenate(xis).T)
    owner = np.repeat(np.arange(len(ms)), ms)
    first = np.cumsum([0] + ms[:-1])
    s0 = np.column_stack(starts)

    def trial_fields(s):
        ay = engine.fields(xi * s[:, owner])
        ay *= xi
        return np.add.reduceat(ay, first, axis=1)

    h = trial_fields(s0)
    es0, et0, stepped = _h_s(s0, h), _h_t(h), _sign(h)
    del h
    ones = np.ones(g.indices.size, _exact_type(int(g.degrees.max(initial=0))))
    swept = s0.copy()
    y = (xi * swept[:, owner]).astype(ones.dtype)

    def update(lo, hi, ay):
        ay *= xi[lo:hi]
        swept[lo:hi] = _sign(np.add.reduceat(ay, first, axis=1, dtype=np.int32))
        return xi[lo:hi] * swept[lo:hi, owner]

    hopfield._run_sweep(g, ones, y, update)
    del y
    es1, et1 = _h_s(swept, trial_fields(swept)), _h_t(trial_fields(stepped))
    return swept, stepped, np.column_stack([es0, es1, et0, et1])


def tail_bound(y: float, l: int, lambda1: float) -> float:
    """exp(-y^2 / (2 (l + lambda1 y))) for y > 0; 0 when l = 0 (S = 0)."""
    if y <= 0:
        raise ValueError("y must be positive")
    if l == 0:
        return 0.0
    return math.exp(-y * y / (2.0 * (l + lambda1 * y)))


def mgf_bound(t: float, l: int, lambda1: float) -> float:
    """exp(l t^2 / (2 (1 - lambda1 t))) for 0 <= t < 1/lambda1."""
    if t < 0 or lambda1 * t >= 1.0:
        raise ValueError("t must lie in [0, 1/lambda1)")
    if t == 0.0:
        return 1.0
    return math.exp(l * t * t / (2.0 * (1.0 - lambda1 * t)))


def _compare(g: Graph, grid, bound, samples: int, seed, exact, sampled) -> FormReport:
    """Check a statistic of S = x^T U x against bound(x) at each grid point
    x.  When n <= _EXHAUSTIVE_LIMIT, exact(vals, x) over all 2^n sign
    vectors gives the point and its interval; otherwise sampled(vals, x)
    gives (estimate, ci_lo, ci_hi) from `samples` draws.  A grid point
    counts as violated when its lower limit exceeds the bound."""
    analytic = np.array([bound(x) for x in grid])
    vals = _form_values(g, samples, seed)
    if g.n <= _EXHAUSTIVE_LIMIT:
        method = "exhaustive"
        rows = [(e, e, e) for e in (exact(vals, x) for x in grid)]
    else:
        method = "monte_carlo"
        rows = [sampled(vals, x) for x in grid]
    emp = np.array(rows, dtype=float).reshape(-1, 3)
    violations = int(np.count_nonzero(emp[:, 1] > analytic))
    return FormReport(emp, analytic, violations, method, int(vals.size))


def quadratic_form_tail(g: Graph, s: SpectralSummary, y_grid, samples: int,
                        seed, z: float = 1.959964) -> FormReport:
    """Compare P[S > y] on a grid against the analytic tail bound.

    Exact enumeration when n <= 16, otherwise Monte Carlo with Wilson
    intervals; a grid point counts as violated when the lower confidence
    limit (or the exact value) exceeds the bound.
    """
    y_grid = np.asarray(y_grid, dtype=float)
    if np.any(y_grid <= 0):
        raise ValueError("y grid must be positive")
    if samples < 1000:
        raise ValueError("need at least 1000 samples")

    def exact(vals, y):
        return np.count_nonzero(vals > y) / vals.size

    def sampled(vals, y):
        k = int(np.count_nonzero(vals > y))
        return (k / vals.size, *wilson_interval(k, vals.size, z))

    l = g.edge_count
    return _compare(g, y_grid, lambda y: tail_bound(y, l, s.lambda1), samples,
                    seed, exact, sampled)


def mgf_check(g: Graph, s: SpectralSummary, t_grid, samples: int, seed,
              z: float = 1.959964) -> FormReport:
    """Compare E[exp(tS)] on a grid against the analytic bound.

    Every t must satisfy 0 <= t < 1/lambda1.  The Monte Carlo path gets its
    confidence interval from the means of 100 batches, and draws (and
    reports) the largest multiple of 100 samples, the most they use.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    for t in t_grid:
        if t < 0 or s.lambda1 * t >= 1.0:
            raise ValueError(f"t={t} outside [0, 1/lambda1)")

    def exact(vals, t):
        return np.mean(np.exp(t * vals))

    def sampled(vals, t):
        means = np.exp(t * vals.reshape(_MGF_BATCHES, -1)).mean(axis=1)
        est = float(means.mean())
        half = z * float(means.std(ddof=1)) / math.sqrt(_MGF_BATCHES)
        return est, est - half, est + half

    l = g.edge_count
    return _compare(g, t_grid, lambda t: mgf_bound(t, l, s.lambda1),
                    samples // _MGF_BATCHES * _MGF_BATCHES, seed, exact, sampled)


def _gnp_degrees(n: int, p: float, seed) -> np.ndarray:
    """The degrees of gen_erdos_renyi(n, p, seed), from the same draws but
    without building the graph: each drawn edge {u, v} counts once at u
    and once at v."""
    pairs = _erdos_renyi_pairs(n, p, seed)
    if pairs is None:       # K_n draws nothing
        return gen_erdos_renyi(n, p, seed).degrees
    u, v = pairs
    return np.bincount(u, minlength=n) + np.bincount(v, minlength=n)


def degree_tail_experiment(n: int, p: float, trials: int, seed,
                           z: float = 1.959964) -> DegreeTailReport:
    """Sample G(n, p) repeatedly and record how often the max degree reaches
    (1+eps)pn or the min degree drops to (1-eps)pn, eps = 2 sqrt(log n / (p n)).

    The analytic prediction for either event is n * exp(-n * H(b, p)) with
    b the rescaled threshold; when eps >= 1 or (1+eps)p >= 1 the thresholds
    leave the formula's validity range, which is flagged rather than failed.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    eps = 2.0 * math.sqrt(math.log(n) / (p * n))
    up_t = (1.0 + eps) * p * n
    lo_t = (1.0 - eps) * p * n
    hi_hits = 0
    lo_hits = 0
    root = np.random.SeedSequence(seed)
    for t in range(trials):
        d = _gnp_degrees(n, p, np.random.default_rng(root.spawn(1)[0]))
        if int(d.max()) >= up_t:
            hi_hits += 1
        if int(d.min()) <= lo_t:
            lo_hits += 1
    a_up = (1.0 + eps) * p
    a_lo = (1.0 - eps) * p
    valid = 0.0 < a_lo and a_up < 1.0 and p < 1.0
    upper_bound = n * math.exp(-n * rel_entropy(a_up, p)) if (p < 1.0 and a_up < 1.0) else None
    lower_bound = n * math.exp(-n * rel_entropy(a_lo, p)) if (p < 1.0 and a_lo > 0.0) else None
    up_ci = wilson_interval(hi_hits, trials, z)
    lo_ci = wilson_interval(lo_hits, trials, z)
    violations = 0
    if upper_bound is not None and up_ci[0] > upper_bound:
        violations += 1
    if lower_bound is not None and lo_ci[0] > lower_bound:
        violations += 1
    return DegreeTailReport(
        epsilon=eps,
        upper_threshold=up_t, lower_threshold=lo_t,
        max_exceed_freq=hi_hits / trials, max_exceed_ci=up_ci,
        min_exceed_freq=lo_hits / trials, min_exceed_ci=lo_ci,
        upper_bound=upper_bound, lower_bound=lower_bound,
        in_validity_range=valid, violations=violations,
    )
