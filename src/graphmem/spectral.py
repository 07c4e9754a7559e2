"""Adjacency spectra and the spectral conditions they feed.

kappa = max(|lambda_2|, |lambda_N|) is the largest eigenvalue magnitude
away from the top; lambda_1 - kappa is the spectral gap.  K_n's spectrum
is known in closed form (n - 1 once, -1 with multiplicity n - 1).  Every
other graph whose edges lie in one connected component gets one call of
ARPACK's implicitly restarted Lanczos (scipy.sparse.linalg.eigsh;
Lehoucq, Sorensen and Yang, ARPACK Users' Guide, 1998) for the two
eigenpairs of largest magnitude, from a fixed start vector, stopped at
the same tolerance its residuals ||A v - lambda v|| are then checked
against.  For a
non-negative symmetric A, Perron-Frobenius gives lambda_1 = rho(A) >=
|lambda_N|, so those two magnitudes are lambda_1 and kappa.  Where an
upper bound on lambda_1 / kappa is enough, _ratio_bound gives a certified
one from a few sparse products, without the solve.  A graph whose edges
span several components has its components solved one by one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import Graph, adjacency_matrix, DegreeStats, edge_endpoints


class SpectralSolverError(RuntimeError):
    """The Lanczos solver did not converge, or its residual exceeds the
    requested tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class SpectralSummary:
    """The top adjacency eigenvalue lambda1 and the largest magnitude kappa
    of the others, with gap = lambda1 - kappa."""

    lambda1: float
    kappa: float
    method: str          # "closed_form" | "iterative" | "bound"
    residual: float

    @property
    def gap(self) -> float:
        return self.lambda1 - self.kappa


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a one-sided spectral condition check.

    holds is margin > 0 with margin = lhs - rhs; constant_used echoes the
    multiplicative constant the caller picked.
    """

    holds: bool
    lhs: float
    rhs: float
    margin: float
    constant_used: float


@dataclass(frozen=True)
class BoundReport:
    """Edge-count and top-eigenvalue bounds for an induced pair of vertex
    sets (I, J) against the host spectrum."""

    e_count: int
    e_bound: float
    lambda_h: float
    lambda_bound: float
    edge_ok: bool
    eigen_ok: bool
    rho: float
    rho_prime: float

    @property
    def holds(self) -> bool:
        return self.edge_ok and self.eigen_ok


def spectrum_summary(g: Graph, tol: float = 1e-8) -> SpectralSummary:
    """Compute lambda1, kappa and the gap of g's adjacency.

    Edgeless graphs and K_n have exact spectra ("closed_form").  Every other
    graph has n >= 3, as ARPACK needs, and goes to Lanczos ("iterative").
    tol is both ARPACK's stopping tolerance and the residual gate: the
    call raises SpectralSolverError if Lanczos does not converge or its
    residual exceeds tol * max(1, |lambda1|).

    Raises
    ------
    ValueError
        If tol is not a finite positive number.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if g.edge_count == 0:
        return SpectralSummary(0.0, 0.0, "closed_form", 0.0)
    if g.is_complete:
        return SpectralSummary(float(g.n - 1), 1.0, "closed_form", 0.0)
    lam1, kappa, residual = _lambda1_kappa_iterative(g, tol)
    return SpectralSummary(lambda1=lam1, kappa=kappa, method="iterative",
                           residual=residual)


def _lambda1_kappa_iterative(g: Graph, tol: float) -> tuple[float, float, float]:
    """lambda1 and kappa as the two largest eigenvalue magnitudes, with the
    largest residual ||A v - lambda v|| of the Lanczos pairs they come from.

    Where one connected component carries every edge, one Lanczos call
    gives both (_top_two).  One run from one start vector cannot see an
    eigenvalue repeated across components, as two equal components repeat
    their top, so otherwise each component is solved on its own (a clique
    in closed form) and the two largest magnitudes of all are kept.  Every
    magnitude of a component is at most its lambda1, which is at most both
    its largest degree and sqrt(2m - n + 1) (Hong, 1988): components are
    taken in descending order of that bound, and the rest are skipped once
    it cannot beat the second magnitude found."""
    # imported here, as scipy.sparse.linalg is: the closed-form spectra and
    # the bound path never need it
    from scipy.sparse.csgraph import connected_components

    a = adjacency_matrix(g)
    # a is symmetric, so its strong components are its connected ones; the
    # strong search reads a as it is, where the undirected one first builds
    # its transpose, 12 bytes per arc
    count, labels = connected_components(a, directed=True, connection="strong")
    deg = g.degrees
    carried = np.unique(labels[deg > 0])
    if carried.size == 1:
        return _top_two(a, tol)
    # component c's vertices, ascending: order[ends[c] - size[c]:ends[c]]
    order = np.argsort(labels, kind="stable")
    size = np.bincount(labels, minlength=count)
    ends = np.cumsum(size)
    arcs = np.bincount(labels, weights=deg, minlength=count)
    top = np.zeros(count)
    np.maximum.at(top, labels, deg)
    bound = np.minimum(top, np.sqrt(arcs - size + 1))
    mags, residual = [], 0.0
    for c in carried[np.argsort(-bound[carried], kind="stable")]:
        if len(mags) == 2 and bound[c] <= mags[1]:
            break
        k = int(size[c])
        if arcs[c] == k * (k - 1):
            found = (k - 1.0, 1.0, 0.0)
        else:
            part = order[int(ends[c]) - k:int(ends[c])]
            found = _top_two(a[part][:, part], tol)
        mags = sorted(mags + list(found[:2]), reverse=True)[:2]
        residual = max(residual, found[2])
    return mags[0], mags[1], residual


def _top_two(a, tol: float) -> tuple[float, float, float]:
    """The larger and smaller magnitude of the two eigenvalues of largest
    magnitude of the adjacency a, from one Lanczos call, and the residual.
    Magnitudes, not signs, so a bipartite graph (+-lambda1) or a repeated
    top gives kappa = lambda1 whichever pair ARPACK returns.  The residual
    is the largest ||A v - lambda v|| over the two returned pairs."""
    w, v = _lanczos(a, 2, "LM", tol)
    residual = float(np.linalg.norm(a @ v - v * w, axis=0).max())
    mags = np.abs(w)
    lam1 = float(mags.max())
    if residual > tol * max(1.0, lam1):
        raise SpectralSolverError("Lanczos residual above tolerance", residual)
    return lam1, float(mags.min()), residual


def _lanczos(a, k: int, which: str, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The k eigenpairs of the symmetric sparse matrix a selected by which
    ("LA" top, "LM" largest magnitude), eigenvalues ascending.

    ARPACK needs n > k.  It runs from a fixed start vector, so the result
    does not depend on earlier calls, and stops once each Ritz pair's
    residual estimate is below tol times its Ritz value's magnitude.
    """
    # imported here: scipy.sparse.linalg costs about 0.1 s and 7 MB
    # resident, which the closed-form spectra (the whole complete suite)
    # never need
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    v0 = np.random.default_rng(0x5EED).standard_normal(a.shape[0])
    try:
        return eigsh(a, k=k, which=which, v0=v0, tol=tol)
    except ArpackNoConvergence as exc:
        raise SpectralSolverError("ARPACK did not converge", math.inf) from exc


# products of A in _ratio_bound: on a 50 000-vertex Chung-Lu graph the
# bound falls from 2.08 log n (the degree vector alone) to 0.61 log n by
# the eighth, and further steps move it less than 1 %
_CW_STEPS = 8


def _ratio_bound(g: Graph) -> float:
    """A certified upper bound on lambda1 / kappa for a graph with an edge,
    from _CW_STEPS sparse products and no eigensolver.

    lambda1 <= U by Collatz-Wielandt: rho(A) <= max_i (A x)_i / x_i for
    any x > 0 on the n' non-isolated vertices.  U is the least such ratio
    over the degree vector and its power steps (a step divides the least
    entry over the largest by at most the top degree, so no entry comes
    near underflow).  Those n' vertices carry every non-zero eigenvalue,
    and tr(A^2) = 2|E| is the sum of their squares, so kappa^2 >= (2|E| -
    U^2) / (n' - 1); and kappa >= 1, since a graph with an edge has an
    eigenvalue <= -1 (interlacing with the edge's 2 x 2 block).  The bound
    is U / max(1, sqrt of that)."""
    a = adjacency_matrix(g)
    x = g.degrees.astype(np.float64)
    live = x > 0
    u = math.inf
    for _ in range(_CW_STEPS):
        y = a @ x
        u = min(u, float((y[live] / x[live]).max()))
        x = y / y.max()
    kappa_sq = (2.0 * g.edge_count - u * u) / (np.count_nonzero(live) - 1)
    return u / math.sqrt(max(1.0, kappa_sq))


def check_h1(s: SpectralSummary, d: DegreeStats, c1: float) -> ConditionReport:
    """Minimum-degree condition: delta > c1 * lambda1 with c1 in (0, 1)."""
    if not 0.0 < c1 < 1.0:
        raise ValueError("c1 must lie in (0, 1)")
    lhs = float(d.delta)
    rhs = c1 * s.lambda1
    return ConditionReport(holds=lhs - rhs > 0, lhs=lhs, rhs=rhs,
                           margin=lhs - rhs, constant_used=c1)


def check_h2(s: SpectralSummary, n: int, c: float) -> ConditionReport:
    """Gap condition: lambda1 > c * log(n) * kappa."""
    if c <= 0:
        raise ValueError("c must be positive")
    if n < 2:
        raise ValueError("n must be >= 2")
    lhs = s.lambda1
    rhs = c * math.log(n) * s.kappa
    return ConditionReport(holds=lhs - rhs > 0, lhs=lhs, rhs=rhs,
                           margin=lhs - rhs, constant_used=c)


def subgraph_bounds(g: Graph, s: SpectralSummary, I, J) -> BoundReport:
    """Check the two (I, J) subgraph bounds against the host spectrum.

    With rho = |I|/n and rho' = |J|/n:

      e(J, I) <= [rho*rho'*lambda1 + sqrt(rho*rho')*kappa] * n,

    where e(J, I) counts ordered pairs (j in J, k in I) joined by an edge
    (an edge inside I and J counts twice), and

      lambda1(H) <= 2 * [sqrt(rho*rho')*lambda1 + (1 - sqrt(rho*rho'))*kappa],

    where H is the undirected graph on the edges with one endpoint in J and
    the other in I.
    """
    I = np.asarray(I, dtype=np.int64)
    J = np.asarray(J, dtype=np.int64)
    if I.size == 0 or J.size == 0:
        raise ValueError("I and J must be non-empty")
    for name, S in (("I", I), ("J", J)):
        if np.unique(S).size != S.size:
            raise ValueError(f"{name} has repeated vertices")
        if S.min() < 0 or S.max() >= g.n:
            raise ValueError(f"{name} has a vertex out of range")
    in_i = np.zeros(g.n, dtype=bool)
    in_i[I] = True
    in_j = np.zeros(g.n, dtype=bool)
    in_j[J] = True

    src, dst = edge_endpoints(g)
    # three lookups below: one cast beats numpy's slower int32 index path
    dst = dst.astype(np.intp)
    hit = in_j[src] & in_i[dst]
    e_count = int(np.count_nonzero(hit))

    rho = I.size / g.n
    rho_p = J.size / g.n
    root = math.sqrt(rho * rho_p)
    e_bound = (rho * rho_p * s.lambda1 + root * s.kappa) * g.n
    lam_bound = 2.0 * (root * s.lambda1 + (1.0 - root) * s.kappa)

    # H's arcs are the host arcs with one end in J and the other in I, in
    # either direction: symmetric, without duplicates, in CSR row order.
    # Isolated vertices do not move the top eigenvalue, so H is solved on
    # its support only; by symmetry every arc's head lies in that support
    cross = hit | (in_i[src] & in_j[dst])
    if not cross.any():
        lam_h = 0.0
    else:
        deg_h = np.bincount(src[cross], minlength=g.n)
        support = deg_h > 0
        label = np.cumsum(support) - 1
        indptr = np.concatenate([[0], np.cumsum(deg_h[support])])
        k = indptr.size - 1
        h = sp.csr_array((np.ones(indptr[-1]), label[dst[cross]], indptr), shape=(k, k))
        # stopped at the spectrum's default tolerance: the eigenvalue error
        # goes as the residual squared, so on G(500, 0.1) lam_h is within
        # 2e-15 (relative) of a machine-precision solve, inside the 1e-9 slop
        lam_h = float(_lanczos(h, 1, "LA", 1e-8)[0][0])

    # float slop on the count comparison only guards against roundoff in
    # the bound itself; the count is exact
    return BoundReport(
        e_count=e_count, e_bound=e_bound, lambda_h=lam_h, lambda_bound=lam_bound,
        edge_ok=e_count <= e_bound + 1e-9, eigen_ok=lam_h <= lam_bound + 1e-9,
        rho=rho, rho_prime=rho_p,
    )
