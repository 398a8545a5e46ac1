"""Power iteration, the one numeric inner loop.

It works on numpy arrays but sums the Rayleigh quotient and the residual
in Python loops, whose order fixes the last bits of every reported value
(and so the CLI's output).  The embedding search lives in ``patterns``.
"""

from __future__ import annotations

import numpy as np


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
