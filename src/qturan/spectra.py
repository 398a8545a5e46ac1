"""Adjacency and signless Laplacian spectral radii, and Perron vectors.

q(G) is the top eigenvalue of Q(G) = D(G) + A(G), lambda(G) that of A(G).
Q is a copy of A with its diagonal set to the degrees.  Values come from
LAPACK's ``eigvalsh`` through two entry points, to the bits of one call
per matrix: ``top_eigenvalues`` solves a list of graphs in stacked blocks,
and ``lambda_and_q`` (read by verify's ``bound_chain``) solves the stack
of one graph's A and Q.  Perron vectors come from ``spectral_radius``,
which runs power iteration (``_kernels``, one ``ndarray.dot`` per step,
the same BLAS gemv as ``@``; on A + delta*I for the adjacency, against
sign flips on bipartite spectra, with the diagonal set to delta; ``eigh``
is the fallback) on each component's block.  Components within ``VALUE_TOL`` of
the largest value tie, the tie goes to the smallest canonical form
whatever the solver's last bits, and the vector is zero off the winner.
``_kernels.power_iteration`` stops at residual ``TOL`` and sums in a
fixed order, which pins the last bits of the printed fields read from it:
``mu_sq_times_n`` of ``table``, the values of ``lemma22``, the bound of
``vertex_deletion``, ``monotone`` and ``spectrum``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

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

# two values within VALUE_TOL are equal: the component tie of spectral_radius,
# the witness window of search and verify's star check all decide by it
VALUE_TOL = 1e-9

# graphs per stacked eigvalsh call of top_eigenvalues, which bounds its memory
BLOCK = 256


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
    """Q = D + A for the signless Laplacian, else A; ``a`` may be a stack.
    Q is a copy of A with its zero diagonal set to the row sums."""
    if kind != SIGNLESS_LAPLACIAN:
        return a
    n = a.shape[-1]
    q = a.copy()
    q.reshape(-1, n * n)[:, :: n + 1] = a.sum(axis=-1).reshape(-1, n)
    return q


def _radius_of_matrix(adj: np.ndarray, kind: str) -> SpectralResult:
    """Dominant eigenpair of A or D+A for one (assumed connected) block."""
    n = adj.shape[0]
    if n == 1:
        return SpectralResult(0.0, np.array([1.0]), 0.0, 0, "dense")
    degrees = adj.sum(axis=1)
    shift = 0.0 if kind == SIGNLESS_LAPLACIAN else float(degrees.max())
    x0 = degrees + 1.0
    max_iter = max(100, int(100 * n * math.log(n + 1)))
    # Q, or A + shift*I: A with its zero diagonal set
    shifted = adj.copy()
    shifted.flat[:: n + 1] = degrees if kind == SIGNLESS_LAPLACIAN else shift
    value, vec, resid, iters, ok = power_iteration(shifted, x0, TOL, max_iter)
    if ok:
        return SpectralResult(float(value) - shift, vec, float(resid), iters, "power")
    mat = shifted if kind == SIGNLESS_LAPLACIAN else adj
    vals, vecs = np.linalg.eigh(mat)
    value = float(vals[-1])
    vec = np.abs(vecs[:, -1])
    vec /= np.linalg.norm(vec)
    resid = float(np.linalg.norm(mat @ vec - value * vec))
    return SpectralResult(value, vec, resid, iters, "dense")


def spectral_radius(g: graphs.Graph, kind: str = SIGNLESS_LAPLACIAN) -> SpectralResult:
    """Largest eigenvalue of A(G) or Q(G) with a unit nonnegative eigenvector.

    A connected graph is solved whole.  Otherwise each component is solved
    on its own block, and the winner is the component of smallest canonical
    form among those within ``VALUE_TOL`` of the largest value; components
    are labelled only when two or more fall in that window.  The vector is
    zero off the winning component.
    """
    kind = normalize_kind(kind)
    a = g.adjacency_matrix()
    comps = g.components()
    if len(comps) == 1:
        return _radius_of_matrix(a, kind)
    solved = {}
    for comp in comps:
        idx = [v for v in range(g.n) if (comp >> v) & 1]
        solved[comp] = _radius_of_matrix(a[np.ix_(idx, idx)], kind), idx
    top = max(r.value for r, _ in solved.values())
    ties = [c for c in comps if solved[c][0].value >= top - VALUE_TOL]
    if len(ties) > 1:
        ties.sort(key=lambda c: graphs.canonical_form(g.induced_subgraph(c)))
    best, idx = solved[ties[0]]
    vec = np.zeros(g.n)
    vec[idx] = best.vector
    resid = np.linalg.norm(_with_degrees(a, kind) @ vec - best.value * vec)
    return replace(best, vector=vec, residual=float(resid))


def top_eigenvalues(gs, kind: str = SIGNLESS_LAPLACIAN) -> list:
    """Top eigenvalue of A(G) or Q(G) for each graph of ``gs``, the same bits
    as one ``eigvalsh`` call per graph: each run of same-n graphs is solved
    ``BLOCK`` matrices per call."""
    kind = normalize_kind(kind)
    values = []
    for n, run in itertools.groupby(gs, key=lambda g: g.n):
        run = list(run)
        for i in range(0, len(run), BLOCK):
            a = graphs.adjacency_matrices(run[i : i + BLOCK], n)
            values += np.linalg.eigvalsh(_with_degrees(a, kind))[:, -1].tolist()
    return values


def lambda_and_q(g: graphs.Graph) -> tuple[float, float]:
    """(lambda(G), q(G)) from one ``eigvalsh`` call on the stack of A and Q,
    the same bits as ``top_eigenvalues([g], kind)`` for each kind."""
    a = g.adjacency_matrix()
    stack = np.stack((a, _with_degrees(a, SIGNLESS_LAPLACIAN)))
    lam, q = np.linalg.eigvalsh(stack)[:, -1].tolist()
    return lam, q


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
