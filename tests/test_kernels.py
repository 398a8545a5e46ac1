"""The power iteration kernel against its numpy-indexing original.

``reference_power_iteration`` is the kernel as it was written before its
loops moved to Python floats: it indexes the numpy arrays element by
element and takes ``np.linalg.norm``.  Both must give the same bits.
"""

import numpy as np
import pytest

from qturan import _kernels, graphs, search, spectra
from tests.conftest import reference_adjacency_matrix, reference_with_degrees

KINDS = (spectra.SIGNLESS_LAPLACIAN, spectra.ADJACENCY)


def reference_power_iteration(mat, x0, tol, max_iter):
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


def _bits(r: spectra.SpectralResult):
    return (repr(r.value), r.vector.tobytes(), repr(r.residual), r.iterations, r.method)


@pytest.fixture(scope="module")
def hosts():
    out = [g for n in range(1, 7) for g in search.enumerate_free(n)]
    rng = np.random.default_rng(20261018)
    out += [graphs.random_graph(n, 0.5, rng) for n in range(8, 13) for _ in range(20)]
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_spectral_radius_bits_match_reference(hosts, kind, monkeypatch):
    new = [_bits(spectra.spectral_radius(g, kind)) for g in hosts]
    monkeypatch.setattr(spectra, "power_iteration", reference_power_iteration)
    old = [_bits(spectra.spectral_radius(g, kind)) for g in hosts]
    assert len(new) == len(hosts)
    for g, a, b in zip(hosts, new, old):
        assert a == b, (kind, graphs.to_graph6(g))


def test_unconverged_bits_match_reference():
    # too few iterations to converge: the last iterate and its residual
    # are returned with converged False
    for g in (graphs.path(6), graphs.star(5), graphs.petersen()):
        mat = reference_with_degrees(reference_adjacency_matrix(g))
        x0 = np.arange(1.0, g.n + 1.0)
        a = _kernels.power_iteration(mat, x0, 1e-10, 4)
        b = reference_power_iteration(mat, x0, 1e-10, 4)
        assert a[4] is b[4] is False
        assert (repr(float(a[0])), a[1].tobytes(), repr(float(a[2])), a[3]) == (
            repr(float(b[0])), b[1].tobytes(), repr(float(b[2])), b[3]
        )


def test_inputs_are_left_unchanged():
    # the kernel scales each product in place; that must never reach mat or x0
    for g in (graphs.path(6), graphs.petersen()):
        mat = reference_with_degrees(reference_adjacency_matrix(g))
        x0 = np.arange(1.0, g.n + 1.0)
        mat_kept, x0_kept = mat.copy(), x0.copy()
        for max_iter in (1, 4, 1000):
            value, x, *_ = _kernels.power_iteration(mat, x0, 1e-10, max_iter)
            assert mat.tobytes() == mat_kept.tobytes()
            assert x0.tobytes() == x0_kept.tobytes()
            assert not np.shares_memory(x, x0) and not np.shares_memory(x, mat)
