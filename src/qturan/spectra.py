"""Adjacency and signless Laplacian spectral radii with Perron vectors.

q(G) is the largest eigenvalue of Q(G) = D(G) + A(G).  The fast path is
deterministic power iteration (Q is PSD, so its top eigenvalue dominates;
the adjacency iteration is run on A + delta*I to avoid sign flips on
bipartite spectra).  Dense symmetric eigensolve is the fallback and the
cross-check oracle at small n.  Each component is solved on its block of
one adjacency matrix: the largest value wins, an exact tie goes to the
component with the smaller canonical form, and the Perron vector is zero
off the winner.

The iteration is ``_kernels.power_iteration``, which stops once the
residual ||Mx - theta x|| is at most ``TOL``.  It sums the Rayleigh
quotient and the residual in Python loops over Python floats, left to
right; that fixed order pins the last bits of the reported value and
vector, and so of CLI output such as the checkers' slacks, the
``residual`` line of ``spectrum`` and the ``mu_sq_times_n`` column of
``table``.  ``sum``, ``math.fsum`` or a numpy ``dot`` in place of those
loops would move them.  Extremal search itself evaluates with
``dense_*_value`` (LAPACK).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graphs
from ._kernels import power_iteration

ADJACENCY = "adjacency"
SIGNLESS_LAPLACIAN = "q"

_KIND_ALIASES = {
    "adjacency": ADJACENCY,
    "a": ADJACENCY,
    "lambda": ADJACENCY,
    "q": SIGNLESS_LAPLACIAN,
    "signless_laplacian": SIGNLESS_LAPLACIAN,
}

TOL = 1e-10


class SpectralError(ValueError):
    pass


@dataclass
class SpectralResult:
    value: float
    vector: np.ndarray
    residual: float
    iterations: int
    method: str


def normalize_kind(kind: str) -> str:
    try:
        return _KIND_ALIASES[kind.lower()]
    except KeyError:
        raise SpectralError(f"unknown matrix kind {kind!r}") from None


def _with_degrees(a: np.ndarray, kind: str) -> np.ndarray:
    """Q = D + A for the signless Laplacian, A itself for the adjacency."""
    return a + np.diag(a.sum(axis=1)) if kind == SIGNLESS_LAPLACIAN else a


def matrix_of(g: graphs.Graph, kind: str = SIGNLESS_LAPLACIAN) -> np.ndarray:
    return _with_degrees(g.adjacency_matrix(), normalize_kind(kind))


def _radius_of_matrix(adj: np.ndarray, kind: str):
    """Dominant eigenpair of A or D+A for one (assumed connected) block."""
    n = adj.shape[0]
    if n == 1:
        return 0.0, np.array([1.0]), 0.0, 0, "dense"
    degrees = adj.sum(axis=1)
    mat = _with_degrees(adj, kind)
    shift = 0.0 if kind == SIGNLESS_LAPLACIAN else float(degrees.max())
    x0 = degrees + 1.0
    max_iter = max(100, int(100 * n * math.log(n + 1)))
    shifted = mat if kind == SIGNLESS_LAPLACIAN else mat + shift * np.eye(n)
    value, vec, resid, iters, ok = power_iteration(shifted, x0, TOL, max_iter)
    if ok:
        return float(value) - shift, vec, float(resid), int(iters), "power"
    vals, vecs = np.linalg.eigh(mat)
    value = float(vals[-1])
    vec = np.abs(vecs[:, -1])
    vec /= np.linalg.norm(vec)
    resid = float(np.linalg.norm(mat @ vec - value * vec))
    return value, vec, resid, int(iters), "dense"


def spectral_radius(g: graphs.Graph, kind: str = SIGNLESS_LAPLACIAN) -> SpectralResult:
    """Largest eigenvalue of A(G) or Q(G) with a unit nonnegative eigenvector.

    Each component is solved on its own block of the matrix.  The largest
    value wins; on an exact tie the component with the smaller canonical
    form wins, and only then are components labelled.  The vector is zero
    off the winning component.
    """
    kind = normalize_kind(kind)
    a = g.adjacency_matrix()
    comps = g.components()
    best = best_form = None
    for comp in comps:
        idx = [v for v in range(g.n) if (comp >> v) & 1]
        block = a if len(comps) == 1 else a[np.ix_(idx, idx)]
        entry = (_radius_of_matrix(block, kind), comp, idx)
        if best is None or entry[0][0] > best[0][0]:
            best, best_form = entry, None
        elif entry[0][0] == best[0][0]:
            form = graphs.canonical_form(g.induced_subgraph(comp))
            if best_form is None:
                best_form = graphs.canonical_form(g.induced_subgraph(best[1]))
            if form < best_form:
                best, best_form = entry, form
    (value, vec, resid, iters, method), _, idx = best
    if len(comps) > 1:
        full = np.zeros(g.n)
        full[idx] = vec
        vec = full
        resid = np.linalg.norm(_with_degrees(a, kind) @ vec - value * vec)
    return SpectralResult(
        value=float(value),
        vector=vec,
        residual=float(resid),
        iterations=iters,
        method=method,
    )


def q_radius(g: graphs.Graph) -> float:
    return spectral_radius(g, SIGNLESS_LAPLACIAN).value


def lambda_radius(g: graphs.Graph) -> float:
    return spectral_radius(g, ADJACENCY).value


def dense_q_value(g: graphs.Graph) -> float:
    """Exact-arithmetic-free but LAPACK-accurate q(G); oracle for small n."""
    return float(np.linalg.eigvalsh(matrix_of(g, SIGNLESS_LAPLACIAN))[-1])


def dense_lambda_value(g: graphs.Graph) -> float:
    return float(np.linalg.eigvalsh(g.adjacency_matrix())[-1])


def rayleigh_q(g: graphs.Graph, x) -> float:
    """x^T Q(G) x / x^T x for nonzero x, via the edge sum of (x_i + x_j)^2."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise SpectralError(f"vector length {x.shape} does not match n={g.n}")
    norm_sq = float(x @ x)
    if norm_sq == 0.0:
        raise SpectralError("rayleigh_q needs a nonzero vector")
    total = 0.0
    for u, v in g.edges():
        total += (x[u] + x[v]) ** 2
    return total / norm_sq
