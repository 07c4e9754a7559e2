"""Adjacency spectra and the spectral conditions they feed.

kappa = max(|lambda_2|, |lambda_N|) is the largest eigenvalue magnitude
away from the top; lambda_1 - kappa is the spectral gap.  K_n's spectrum
is known in closed form (n - 1 once, -1 with multiplicity n - 1).  Every
other graph with an edge gets one call of ARPACK's implicitly restarted
Lanczos (scipy.sparse.linalg.eigsh; Lehoucq, Sorensen and Yang, ARPACK
Users' Guide, 1998) for the two eigenpairs of largest magnitude, from a
fixed start vector, checked by their residuals ||A v - lambda v||.  For a
non-negative symmetric A, Perron-Frobenius gives lambda_1 = rho(A) >=
|lambda_N|, so those two magnitudes are lambda_1 and kappa.
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
    method: str          # "closed_form" | "iterative"
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
    graph has n >= 3, as ARPACK needs, and goes to Lanczos ("iterative"),
    which raises SpectralSolverError if it does not converge or its
    residual exceeds tol * max(1, |lambda1|).
    """
    if g.edge_count == 0:
        return SpectralSummary(0.0, 0.0, "closed_form", 0.0)
    if g.is_complete:
        return SpectralSummary(float(g.n - 1), 1.0, "closed_form", 0.0)
    lam1, kappa, residual = _lambda1_kappa_iterative(g, tol)
    return SpectralSummary(lambda1=lam1, kappa=kappa, method="iterative",
                           residual=residual)


def _lambda1_kappa_iterative(g: Graph, tol: float) -> tuple[float, float, float]:
    """lambda1 and kappa as the larger and smaller magnitude of the two
    eigenvalues of largest magnitude, from one Lanczos call.  Magnitudes,
    not signs, so a bipartite graph (+-lambda1) or a repeated top gives
    kappa = lambda1 whichever pair ARPACK returns.  The residual is the
    largest ||A v - lambda v|| over the two returned pairs."""
    a = adjacency_matrix(g)
    w, v = _lanczos(a, 2, "LM")
    residual = float(np.linalg.norm(a @ v - v * w, axis=0).max())
    mags = np.abs(w)
    lam1 = float(mags.max())
    if residual > tol * max(1.0, lam1):
        raise SpectralSolverError("Lanczos residual above tolerance", residual)
    return lam1, float(mags.min()), residual


def _lanczos(a, k: int, which: str) -> tuple[np.ndarray, np.ndarray]:
    """The k eigenpairs of the symmetric sparse matrix a selected by which
    ("LA" top, "LM" largest magnitude), eigenvalues ascending.

    ARPACK needs n > k.  It runs from a fixed start vector, so the result
    does not depend on earlier calls.
    """
    # imported here: scipy.sparse.linalg costs about 0.1 s and 7 MB
    # resident, which the closed-form spectra (the whole complete suite)
    # never need
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    v0 = np.random.default_rng(0x5EED).standard_normal(a.shape[0])
    try:
        return eigsh(a, k=k, which=which, v0=v0)
    except ArpackNoConvergence as exc:
        raise SpectralSolverError("ARPACK did not converge", math.inf) from exc


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
        lam_h = float(_lanczos(h, 1, "LA")[0][0])

    # float slop on the count comparison only guards against roundoff in
    # the bound itself; the count is exact
    return BoundReport(
        e_count=e_count, e_bound=e_bound, lambda_h=lam_h, lambda_bound=lam_bound,
        edge_ok=e_count <= e_bound + 1e-9, eigen_ok=lam_h <= lam_bound + 1e-9,
        rho=rho, rho_prime=rho_p,
    )
