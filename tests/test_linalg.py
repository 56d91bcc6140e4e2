import numpy as np
import pytest

from chandisc import linalg
from chandisc.errors import NonSquareError, NotHermitianError


def _rand_herm(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


def test_hermitian_eigen_reconstructs():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5, 8):
        h = _rand_herm(d, rng)
        w, v = linalg.hermitian_eigen(h)
        assert np.allclose((v * w) @ v.conj().T, h, atol=1e-10)
        assert np.allclose(v.conj().T @ v, np.eye(d), atol=1e-10)
        assert np.all(np.diff(w) >= 0)


def test_hermitian_eigen_rejects_nonhermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitianError):
        linalg.hermitian_eigen(m)
    with pytest.raises(NonSquareError):
        linalg.hermitian_eigen(np.zeros((2, 3)))


def test_support_contained_on_spectrum():
    # p is the projector onto its own support
    p = np.diag([1.0, 1.0, 0.0])
    spectrum = linalg.hermitian_eigen(p)
    a = np.diag([0.5, 0.5, 0.0])
    b = np.diag([0.2, 0.0, 0.8])
    assert linalg.support_contained(a, spectrum)
    assert not linalg.support_contained(b, spectrum)
    assert linalg.support_contained(np.zeros((3, 3)), spectrum)
    # weight 1e-12 outside the support, with cross terms of size 1e-6
    v = np.array([1.0, 0.0, 1e-6]) / np.sqrt(1.0 + 1e-12)
    assert np.linalg.norm(np.outer(v, v) - p @ np.outer(v, v) @ p) > 1e-7
    assert linalg.support_contained(np.outer(v, v), spectrum)
    # weight 1e-6 outside the support is not contained
    v = np.array([1.0, 0.0, 1e-3]) / np.sqrt(1.0 + 1e-6)
    assert not linalg.support_contained(np.outer(v, v), spectrum)
