"""Power iteration, the one numeric inner loop.

``spectra.spectral_radius`` passes Q, or A + delta*I, each built as A
with its diagonal set, and reads its Perron vectors from here.

The product ``mat.dot(x)`` (the same BLAS gemv as ``mat @ x``, at about
half the per-call cost of the ``matmul`` gufunc on these small matrices)
and the scaling of y in place by its norm run in numpy.  The Rayleigh
quotient and the residual are summed in Python loops over Python floats
(one ``.tolist()`` of x and of y per iteration), each left to right with
``+=``.  That fixed order pins the last bits of every reported value and
vector, and so the CLI's output.  Neither loop may become ``sum`` (Python
3.12+ compensates its rounding), ``math.fsum`` or ``x.dot(y)``: each
sums in another order and moves those bits.  The norms of x0 and y are
``math.sqrt(v.dot(v))``, which is exactly what ``np.linalg.norm`` computes
for a 1-D float array.
"""

from __future__ import annotations

import math

import numpy as np


def power_iteration(mat, x0, tol, max_iter):
    """Dominant eigenpair of a symmetric PSD matrix by power iteration.

    Returns (value, vector, residual, iterations, converged).  Residual is
    the 2-norm of ``mat@x - value*x`` at the reported iterate.
    """
    x = x0 / math.sqrt(x0.dot(x0))
    theta = 0.0
    resid = 0.0
    for it in range(max_iter):
        y = mat.dot(x)
        xs = x.tolist()
        ys = y.tolist()
        theta = 0.0
        for xi, yi in zip(xs, ys):
            theta += xi * yi
        r2 = 0.0
        for xi, yi in zip(xs, ys):
            diff = yi - theta * xi
            r2 += diff * diff
        resid = math.sqrt(r2)
        if resid <= tol:
            return theta, x, resid, it + 1, True
        ny = math.sqrt(y.dot(y))
        if ny == 0.0:
            return 0.0, x, 0.0, it + 1, True
        x = np.divide(y, ny, out=y)
    return theta, x, resid, max_iter, False
