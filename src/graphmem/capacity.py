"""Corrupted-retrieval experiments and the theoretical capacity predictors.

The predictor M = alpha * lambda1^2 / (m log n) - kappa * lambda1 / m says
how many patterns survive corrupted retrieval; rho_zero, f_rho and the
four contraction sequences, which iterate f's first four terms, bound the
error fraction the dynamics must shrink per step.  The empirical side
estimates the largest pattern count M whose recovery rate from
floor(rho*n) uniform flips stays above a threshold.

Success means exact recovery: the run ends in a fixed point equal to the
target pattern.  Corruption draws are uniform over floor(rho*n)-subsets,
a deliberate relaxation of worst-case corruption over the whole Hamming
sphere; the search additionally spot-checks one structured corruption
(the lowest-degree vertices) per M, the flip pattern that defeats
retrieval on the two-clique graph.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import entropy, wilson_interval
from .graphs import Graph, DegreeStats
from .hopfield import (FieldEngine, PatternSet, _flip_count, run_block,
                       run_dynamics, sample_patterns)
from .spectral import SpectralSummary, _ratio_bound, spectrum_summary

_DIVERGE_CAP = 10_000
# safety factor on the analytic step bound in default_k_max, and the floor
# there on log(lambda1 / (kappa log n))
_C_ITER = 10.0
_LOG_RATIO_FLOOR = 0.1


@dataclass(frozen=True)
class TheoryParams:
    """Unspecified constants of the theory, exposed rather than hidden.

    c1 scales the contraction function f, c2 the floor rho_zero, and
    c_steps the sequence recursions.  The capacity prefactor alpha is an
    argument of theoretical_capacity.
    """

    c1: float = 1.0
    c2: float = 1.0
    c_steps: float = 1.0

    def __post_init__(self):
        for name in ("c1", "c2", "c_steps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


_DEFAULTS = TheoryParams()


@dataclass(frozen=True)
class RateEstimate:
    rate: float
    ci_lo: float
    ci_hi: float
    successes: int
    trials: int
    mean_steps: float      # over successful trials; nan if none


@dataclass(frozen=True)
class CurvePoint(RateEstimate):
    """The search's estimate at m patterns, and whether its spot trial
    recovered."""

    m: int
    spot_ok: bool


@dataclass(frozen=True)
class CapacityEstimate:
    m_hat: int
    k_max: int
    curve: list[CurvePoint]


@dataclass(frozen=True)
class FRhoResult:
    value: float
    branch: str
    branches: dict[str, float]


@dataclass(frozen=True)
class StepPrediction:
    """n0 = max over the four sequences of iterations needed to drop below
    1/n; None with diverged=True if any sequence stops decreasing."""

    n0: int | None
    diverged: bool
    counts: dict[str, int]


def theoretical_capacity(s: SpectralSummary, d: DegreeStats, n: int,
                         alpha: float) -> float:
    """alpha * lambda1^2 / (m log n) - kappa * lambda1 / m.

    Can come out non-positive (kappa term dominating); that regime is
    infeasible for retrieval and reported as-is.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if d.m < 1:
        raise ValueError("graph must have at least one edge")
    return alpha * s.lambda1 ** 2 / (d.m * math.log(n)) - s.kappa * s.lambda1 / d.m


def rho_zero(s: SpectralSummary, d: DegreeStats, M: int,
             params: TheoryParams = _DEFAULTS) -> float:
    """Contraction floor exp(-c2 * lambda1 / (kappa + M m / lambda1))."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if s.lambda1 <= 0:
        raise ValueError("lambda1 must be positive")
    return math.exp(-params.c2 * s.lambda1 / (s.kappa + M * d.m / s.lambda1))


# f's four terms before rho_zero, in the order f_rho reports them (and
# breaks ties between them) and predict_steps iterates them as w, x, y, z
_TERMS = ("kappa_sq", "rho_entropy", "kappa_entropy", "pattern_term")


def _terms(x: float, s: SpectralSummary, M: int, c: float) -> tuple:
    """f's terms _TERMS at x, each scaled by c."""
    ratio = s.kappa / s.lambda1
    h = entropy(x)
    return (c * x * ratio ** 2, c * x * h, c * ratio * h,
            c * x * (M * s.kappa / s.lambda1 ** 2 * math.log(1.0 / x)) ** (2.0 / 3.0))


def f_rho(rho: float, s: SpectralSummary, d: DegreeStats, M: int,
          params: TheoryParams = _DEFAULTS) -> FRhoResult:
    """Evaluate the five-branch contraction function

        f(rho) = max{ c1 rho (kappa/lambda1)^2, c1 rho h(rho),
                      c1 (kappa/lambda1) h(rho),
                      c1 rho (M kappa / lambda1^2 * log(1/rho))^(2/3),
                      rho_zero }

    and report which branch attains the max.
    """
    if not 0.0 < rho < 0.5:
        raise ValueError("rho must lie in (0, 1/2)")
    branches = dict(zip(_TERMS, _terms(rho, s, M, params.c1)))
    branches["rho_zero"] = rho_zero(s, d, M, params)
    branch = max(branches, key=branches.get)
    return FRhoResult(value=branches[branch], branch=branch, branches=branches)


def predict_steps(s: SpectralSummary, M: int, n: int, rho_start: float,
                  params: TheoryParams = _DEFAULTS) -> StepPrediction:
    """Iterate the four contraction sequences from rho_start down to 1/n.
    They are f's first four terms (_terms) with c = c_steps in place of c1:

        w' = c w (kappa/lambda1)^2          x' = c x h(x)
        y' = c (kappa/lambda1) h(y)         z' = c z (M kappa/lambda1^2 log(1/z))^(2/3)

    Each must decrease strictly every iteration; a sequence that fails to,
    or takes more than 10^4 iterations, marks the prediction diverged.
    lambda1/kappa must exceed log n.
    """
    if not 0.0 < rho_start <= 1.0 / math.e:
        raise ValueError("rho_start must lie in (0, 1/e]")
    if n < 2:
        raise ValueError("n must be >= 2")
    if M < 1:
        raise ValueError("M must be >= 1")
    if s.lambda1 <= 0:
        raise ValueError("lambda1 must be positive")
    need = math.log(n)
    if s.kappa > 0 and s.lambda1 / s.kappa <= need:
        raise ValueError(f"lambda1/kappa = {s.lambda1 / s.kappa:.3g} "
                         f"below the required ratio {need:.3g}")
    target = 1.0 / n
    counts = {}
    diverged = False
    for i, name in enumerate("wxyz"):
        val = rho_start
        k = 0
        while val >= target:
            if k >= _DIVERGE_CAP:
                diverged = True
                break
            nxt = _terms(val, s, M, params.c_steps)[i]
            if not nxt < val:
                diverged = True
                break
            val = nxt
            k += 1
        counts[name] = k
        if diverged:
            break
    if diverged:
        return StepPrediction(n0=None, diverged=True, counts=counts)
    return StepPrediction(n0=max(counts.values()), diverged=False, counts=counts)


def default_k_max(s: SpectralSummary, n: int) -> int:
    """Step budget: ceil(C * max(log log n, log n / max(log(lambda1 /
    (kappa log n)), F))), the analytic step bound with safety factor
    C = _C_ITER and floor F = _LOG_RATIO_FLOOR."""
    if n < 3:
        raise ValueError("n must be >= 3")
    log_n = math.log(n)
    if s.kappa > 0:
        arg = s.lambda1 / (s.kappa * log_n)
        denom = max(math.log(arg), _LOG_RATIO_FLOOR) if arg > 0 else _LOG_RATIO_FLOOR
        second = log_n / denom
    else:
        second = 0.0
    return max(1, math.ceil(_C_ITER * max(math.log(log_n), second)))


def _auto_k_max(g: Graph) -> int:
    """default_k_max(spectrum_summary(g), g.n), without the Lanczos solve
    where it cannot change the answer.  Whenever lambda1 / (kappa log n) <=
    e^_LOG_RATIO_FLOOR the budget is the floor's, whatever lambda1 and
    kappa are, so a certified bound U >= lambda1 / kappa below that line
    fixes it: the budget is computed from lambda1 = U, kappa = 1.  The
    1e-6 relative margin covers U's float rounding and Lanczos' 1e-8
    tolerance.  K_n and edgeless graphs keep their closed forms."""
    if g.edge_count and not g.is_complete:
        u = _ratio_bound(g)
        if u <= math.exp(_LOG_RATIO_FLOOR) * math.log(g.n) * (1.0 - 1e-6):
            return default_k_max(SpectralSummary(u, 1.0, "bound", math.nan), g.n)
    return default_k_max(spectrum_summary(g), g.n)


def _flip_signs(rng: np.random.Generator, b: int, n: int, k: int) -> np.ndarray:
    """(b, n) int8, -1 where row t flips and +1 elsewhere: trial t flips the
    first k distinct values of its own sequence of draws from rng.

    The sequences start as the rows of rng.integers(n, size=(b, k)).  While
    any row holds fewer than k distinct values, every row draws one more,
    rng.integers(n, size=b), and a row that is already full discards its
    own.  The first k distinct values of a sequence of uniform draws are a
    uniform k-subset.  A (b, n) bitmap tracks which values each row holds,
    so a round is a few array operations on the rows still short."""
    seen = np.zeros((b, n), dtype=bool)
    flat = seen.reshape(-1)     # row t holds value v where flat[t n + v]
    first = rng.integers(n, size=(b, k))
    first += np.arange(0, b * n, n)[:, np.newaxis]
    flat[first] = True
    # the rows still short, how many values each lacks, and their offsets
    lack = k - np.count_nonzero(seen, axis=1)
    short = np.flatnonzero(lack)
    lack, base = lack[short], short * n
    while short.size:
        at = rng.integers(n, size=b)[short] + base
        new = ~flat[at]
        flat[at[new]] = True
        lack -= new
        keep = np.flatnonzero(lack)
        short, lack, base = short[keep], lack[keep], base[keep]
    return 1 - 2 * seen.view(np.int8)


def recovery_rate(g: Graph, p: PatternSet, rho: float, k_max: int,
                  trials: int, seed: int,
                  engine: FieldEngine | None = None) -> RateEstimate:
    """Exact-recovery fraction over uniformly drawn (mu, corruption) pairs,
    with a 95% Wilson interval.

    One generator rng = default_rng(int(seed)) draws the whole block:
    first every trial's mu, rng.integers(M, size=trials), then the
    floor(rho*n) flipped vertices of each trial that can succeed, all of
    them at once (_flip_signs).  A trial can succeed only if its target
    xi^mu is a fixed point of T, which the engine reads once from the
    exact product J Xi^T; a trial whose target is not is a failure without
    dynamics and draws no flips.  The other trials run together as one
    block of the parallel dynamics, each retiring as soon as it reaches
    its target (run_block's mus).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 <= rho < 0.5:
        raise ValueError("rho must lie in [0, 1/2)")
    n, k = g.n, _flip_count(rho, g.n)
    if engine is not None and (engine.g is not g or engine.p is not p):
        raise ValueError("engine was built from another graph or pattern set")
    eng = engine if engine is not None else FieldEngine(g, p)
    rng = np.random.default_rng(int(seed))
    mus = rng.integers(p.m_patterns, size=trials)
    mus = mus[eng._targets[mus]]
    rows = p.bits[mus]
    targets = rows.T
    starts = (rows * _flip_signs(rng, mus.size, n, k)).T
    out = run_block(eng, starts, k_max, mus)
    recovered = ((out.terminal == "fixed_point")
                 & (out.final == targets).all(axis=0))
    succ = int(recovered.sum())
    step_sum = int(out.steps[recovered].sum())
    lo, hi = wilson_interval(succ, trials)
    mean_steps = step_sum / succ if succ else math.nan
    return RateEstimate(rate=succ / trials, ci_lo=lo, ci_hi=hi,
                        successes=succ, trials=trials, mean_steps=mean_steps)


def _spot_trial(g: Graph, p: PatternSet, rho: float, k_max: int,
                engine: FieldEngine) -> bool:
    """Structured corruption: flip the floor(rho*n) lowest-degree vertices
    (ties by index) of pattern 0.  On the two-clique graph this is the
    corruption that retrieval provably cannot undo.  Success needs pattern
    0 to be a fixed point of T, so when the engine's exact product says it
    is not, the trial fails without dynamics."""
    k = _flip_count(rho, g.n)
    if not engine._targets[0]:
        return False
    order = np.argsort(g.degrees, kind="stable")
    target = p.pattern(0)
    start = np.array(target, dtype=np.int8)
    start[order[:k]] = -start[order[:k]]
    out = run_dynamics(g, p, start, mode="parallel", k_max=k_max, engine=engine)
    return out.terminal == "fixed_point" and np.array_equal(out.final, target)


def _derived_seed(*entropy: int) -> int:
    """One integer seed drawn from np.random.SeedSequence(entropy)."""
    return int(np.random.SeedSequence(entropy=entropy).generate_state(1)[0])


def capacity_search(g: Graph, rho: float, k_max: int | None, trials: int,
                    threshold: float, seed: int) -> CapacityEstimate:
    """Largest pattern count M with recovery rate >= threshold.

    Doubles M, up to max(4, 4n), until the rate drops below the threshold
    (exponential bracket), then bisects.  A rate whose 95% interval straddles
    the threshold is re-measured once with 4x trials.  Each M must also
    pass the structured spot trial; a failed spot check counts as a fail
    regardless of the uniform rate.  The couplings for each M are built
    once and shared by its estimates and its spot trial, and so is the
    engine's cached product J Xi^T: a trial (the spot trial included)
    whose target pattern is not a fixed point of T fails without
    dynamics, and the others retire on reaching their target.  k_max None
    takes default_k_max's budget, through _auto_k_max.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    if not 0.0 <= rho < 0.5:
        raise ValueError("rho must lie in [0, 1/2)")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if k_max is None:
        k_max = _auto_k_max(g)
    m_cap = max(4, 4 * g.n)

    curve: dict[int, CurvePoint] = {}

    def passes(m: int) -> bool:
        p = sample_patterns(m, g.n, np.random.SeedSequence(entropy=(seed, m, 1)))
        engine = FieldEngine(g, p)
        est = recovery_rate(g, p, rho, k_max, trials, _derived_seed(seed, m, 2),
                            engine=engine)
        if est.ci_lo <= threshold <= est.ci_hi:
            est = recovery_rate(g, p, rho, k_max, 4 * trials, _derived_seed(seed, m, 3),
                                engine=engine)
        spot_ok = _spot_trial(g, p, rho, k_max, engine)
        curve[m] = CurvePoint(**vars(est), m=m, spot_ok=spot_ok)
        return spot_ok and est.rate >= threshold

    # lo is the largest passing M evaluated so far: the bracket passes 1,
    # 2, 4, ..., lo and each passing midpoint becomes lo
    lo = 0
    m = 1
    while m <= m_cap and passes(m):
        lo = m
        m *= 2
    hi = m  # first failing M (or just beyond the cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid > m_cap:
            break
        if passes(mid):
            lo = mid
        else:
            hi = mid
    points = sorted(curve.values(), key=lambda c: c.m)
    return CapacityEstimate(m_hat=lo, k_max=k_max, curve=points)
