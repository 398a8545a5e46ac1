"""Hot inner loops: bitmask subgraph matching and power iteration.

Each kernel has one plain implementation.  The matcher works on the
``Graph.adj`` rows as Python ints; power iteration works on numpy arrays but
sums the Rayleigh quotient and the residual in Python loops, whose order
fixes the last bits of every reported value (and so the CLI's output).
"""

from __future__ import annotations

import numpy as np


def subgraph_search(host_adj, pat_adj, order, first_mask):
    """Backtracking injective-homomorphism search over bitmask rows.

    ``order`` fixes the assignment order of pattern vertices; candidates for
    pattern slot d+1 are intersected with the host neighborhoods of every
    already-placed pattern neighbor.  ``first_mask`` restricts the host
    candidates of ``order[0]`` (used to anchor the new vertex during
    augmentation; pass an all-ones mask for an unrestricted search).
    """
    k = len(order)
    if k > len(host_adj):
        return False
    host_deg = [row.bit_count() for row in host_adj]
    allowed = []
    back = []
    for d, pv in enumerate(order):
        need = pat_adj[pv].bit_count()
        allowed.append(sum(1 << v for v, deg in enumerate(host_deg) if deg >= need))
        back.append([j for j in range(d) if (pat_adj[pv] >> order[j]) & 1])
    assign = [0] * k
    cands = [0] * k
    cands[0] = allowed[0] & first_mask
    used = 0
    d = 0
    while d >= 0:
        m = cands[d]
        if not m:
            d -= 1
            if d >= 0:
                used &= ~(1 << assign[d])
            continue
        low = m & -m
        cands[d] = m ^ low
        if d == k - 1:
            return True
        assign[d] = low.bit_length() - 1
        used |= low
        d += 1
        nm = allowed[d] & ~used
        for j in back[d]:
            nm &= host_adj[assign[j]]
        cands[d] = nm
    return False


def power_iteration(mat, x0, tol, max_iter):
    """Dominant eigenpair of a symmetric PSD matrix by power iteration.

    Returns (value, vector, residual, iterations, converged).  Residual is
    the 2-norm of ``mat@x - value*x`` at the reported iterate.
    """
    n = mat.shape[0]
    x = x0 / np.linalg.norm(x0)
    theta = 0.0
    resid = 0.0
    it = 0
    for it in range(max_iter):
        y = mat @ x
        theta = 0.0
        for i in range(n):
            theta += x[i] * y[i]
        r2 = 0.0
        for i in range(n):
            diff = y[i] - theta * x[i]
            r2 += diff * diff
        resid = np.sqrt(r2)
        if resid <= tol:
            return theta, x, resid, it + 1, True
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0, x, 0.0, it + 1, True
        x = y / ny
    return theta, x, resid, max_iter, False
