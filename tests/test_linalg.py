import numpy as np
import pytest

from chandisc import linalg
from chandisc.errors import DimensionOverflowError, NonSquareError, NotHermitianError


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


def test_kron_and_partial_trace_inverse():
    rng = np.random.default_rng(2)
    a = _rand_herm(2, rng)
    b = _rand_herm(3, rng)
    b = b / np.trace(b)
    k = linalg.kron(a, b)
    assert k.shape == (6, 6)
    # tracing out the second factor recovers a (b has unit trace)
    red = linalg.partial_trace(k, [2, 3], keep=[0])
    assert np.allclose(red, a, atol=1e-12)
    red_b = linalg.partial_trace(k, [2, 3], keep=[1])
    assert np.allclose(red_b, np.trace(a) * b, atol=1e-12)


def test_kron_dimension_cap():
    with pytest.raises(DimensionOverflowError):
        linalg.kron(np.eye(100), np.eye(100))


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


def test_partial_trace_multi_factor():
    rng = np.random.default_rng(3)
    ms = [_rand_herm(2, rng) for _ in range(3)]
    full = linalg.kron(linalg.kron(ms[0], ms[1]), ms[2])
    keep = linalg.partial_trace(full, [2, 2, 2], keep=[1])
    expect = np.trace(ms[0]) * np.trace(ms[2]) * ms[1]
    assert np.allclose(keep, expect, atol=1e-10)
