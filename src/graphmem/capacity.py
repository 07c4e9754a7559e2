"""Corrupted-retrieval experiments and the theoretical capacity predictors.

The predictor M = alpha * lambda1^2 / (m log n) - kappa * lambda1 / m says
how many patterns survive corrupted retrieval; rho_zero, f_rho and the
four contraction sequences bound the error fraction the dynamics must
shrink per step.  The empirical side estimates the largest pattern count M
whose recovery rate from floor(rho*n) uniform flips stays above a
threshold.

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
from .hopfield import (FieldEngine, PatternSet, corrupt, run_block, run_dynamics,
                       sample_patterns)
from .spectral import SpectralSummary, spectrum_summary

_DIVERGE_CAP = 10_000
# safety factor on the analytic step bound in default_k_max
_C_ITER = 10.0


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
class CurvePoint:
    m: int
    trials: int
    successes: int
    rate: float
    ci_lo: float
    ci_hi: float
    mean_steps: float
    spot_ok: bool


@dataclass(frozen=True)
class CapacityEstimate:
    m_hat: int
    threshold: float
    trials_per_m: int
    rho: float
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
    ratio = s.kappa / s.lambda1
    h = entropy(rho)
    branches = {
        "kappa_sq": params.c1 * rho * ratio ** 2,
        "rho_entropy": params.c1 * rho * h,
        "kappa_entropy": params.c1 * ratio * h,
        "pattern_term": params.c1 * rho * (M * s.kappa / s.lambda1 ** 2
                                           * math.log(1.0 / rho)) ** (2.0 / 3.0),
        "rho_zero": rho_zero(s, d, M, params),
    }
    branch = max(branches, key=branches.get)
    return FRhoResult(value=branches[branch], branch=branch, branches=branches)


def predict_steps(s: SpectralSummary, M: int, n: int, rho_start: float,
                  params: TheoryParams = _DEFAULTS) -> StepPrediction:
    """Iterate the four contraction sequences from rho_start down to 1/n.

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
    ratio = s.kappa / s.lambda1
    need = math.log(n)
    if s.kappa > 0 and s.lambda1 / s.kappa <= need:
        raise ValueError(f"lambda1/kappa = {s.lambda1 / s.kappa:.3g} "
                         f"below the required ratio {need:.3g}")
    c = params.c_steps
    target = 1.0 / n

    def w_next(w):
        return c * w * ratio ** 2

    def x_next(x):
        return c * x * entropy(x)

    def y_next(y):
        return c * ratio * entropy(y)

    def z_next(z):
        return c * z * (M * s.kappa / s.lambda1 ** 2 * math.log(1.0 / z)) ** (2.0 / 3.0)

    counts = {}
    diverged = False
    for name, step in (("w", w_next), ("x", x_next), ("y", y_next), ("z", z_next)):
        val = rho_start
        k = 0
        while val >= target:
            if k >= _DIVERGE_CAP:
                diverged = True
                break
            nxt = step(val)
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
    (kappa log n)), 0.1))), the analytic step bound with safety factor
    C = _C_ITER."""
    if n < 3:
        raise ValueError("n must be >= 3")
    log_n = math.log(n)
    if s.kappa > 0:
        arg = s.lambda1 / (s.kappa * log_n)
        denom = max(math.log(arg) if arg > 0 else 0.1, 0.1)
        second = log_n / denom
    else:
        second = 0.0
    return max(1, math.ceil(_C_ITER * max(math.log(log_n), second)))


def _trial_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    # splittable scheme: pure function of (master seed, trial index)
    return np.random.SeedSequence(entropy=(int(master_seed), int(index)))


def recovery_rate(g: Graph, p: PatternSet, rho: float, k_max: int,
                  trials: int, seed: int,
                  engine: FieldEngine | None = None) -> RateEstimate:
    """Exact-recovery fraction over uniformly drawn (mu, corruption) pairs,
    with a 95% Wilson interval.

    Trial t draws its pattern mu, then floor(rho*n) uniform flips of it,
    from its own generator, a pure function of (seed, t); all starts then
    run together as one block of the parallel dynamics.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 <= rho < 0.5:
        raise ValueError("rho must lie in [0, 1/2)")
    mus = np.empty(trials, dtype=np.int64)
    starts = np.empty((g.n, trials), dtype=np.int8)
    for t in range(trials):
        rng = np.random.default_rng(_trial_seed(seed, t))
        mus[t] = rng.integers(p.m_patterns)
        starts[:, t] = corrupt(p.pattern(mus[t]), rho, rng)
    eng = engine if engine is not None else FieldEngine(g, p)
    out = run_block(eng, starts, k_max)
    recovered = ((out.terminal == "fixed_point")
                 & (out.final == p.bits[mus].T).all(axis=0))
    succ = int(recovered.sum())
    step_sum = int(out.steps[recovered].sum())
    lo, hi = wilson_interval(succ, trials)
    mean_steps = step_sum / succ if succ else math.nan
    return RateEstimate(rate=succ / trials, ci_lo=lo, ci_hi=hi,
                        successes=succ, trials=trials, mean_steps=mean_steps)


def _spot_trial(g: Graph, p: PatternSet, rho: float, k_max: int,
                engine: FieldEngine | None) -> bool:
    """Structured corruption: flip the floor(rho*n) lowest-degree vertices
    (ties by index) of pattern 0.  On the two-clique graph this is the
    corruption that retrieval provably cannot undo."""
    k = int(math.floor(rho * g.n + 1e-9))
    if k == 0:
        return True
    order = np.argsort(g.degrees, kind="stable")
    target = p.pattern(0)
    start = np.array(target, dtype=np.int8)
    start[order[:k]] = -start[order[:k]]
    out = run_dynamics(g, p, start, mode="parallel", k_max=k_max, engine=engine)
    return out.terminal == "fixed_point" and np.array_equal(out.final, target)


def capacity_search(g: Graph, rho: float, k_max: int | None, trials: int,
                    threshold: float, seed: int) -> CapacityEstimate:
    """Largest pattern count M with recovery rate >= threshold.

    Doubles M, up to max(4, 4n), until the rate drops below the threshold
    (exponential bracket), then bisects.  A rate whose 95% interval straddles
    the threshold is re-measured once with 4x trials.  Each M must also
    pass the structured spot trial; a failed spot check counts as a fail
    regardless of the uniform rate.  The couplings for each M are built
    once and shared by its estimates and its spot trial.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    if not 0.0 <= rho < 0.5:
        raise ValueError("rho must lie in [0, 1/2)")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if k_max is None:
        k_max = default_k_max(spectrum_summary(g), g.n)
    m_cap = max(4, 4 * g.n)

    curve: dict[int, CurvePoint] = {}

    def passes(m: int) -> bool:
        pat_seed = np.random.SeedSequence(entropy=(seed, m, 1))
        p = sample_patterns(m, g.n, pat_seed)
        engine = FieldEngine(g, p)
        rate_seed = int(np.random.SeedSequence(entropy=(seed, m, 2)).generate_state(1)[0])
        est = recovery_rate(g, p, rho, k_max, trials, rate_seed, engine=engine)
        if est.ci_lo <= threshold <= est.ci_hi:
            retry_seed = int(np.random.SeedSequence(entropy=(seed, m, 3)).generate_state(1)[0])
            est = recovery_rate(g, p, rho, k_max, 4 * trials, retry_seed,
                                engine=engine)
        spot_ok = _spot_trial(g, p, rho, k_max, engine)
        curve[m] = CurvePoint(m=m, trials=est.trials, successes=est.successes,
                              rate=est.rate, ci_lo=est.ci_lo, ci_hi=est.ci_hi,
                              mean_steps=est.mean_steps, spot_ok=spot_ok)
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
    return CapacityEstimate(m_hat=lo, threshold=threshold, trials_per_m=trials,
                            rho=rho, k_max=k_max, curve=points)
