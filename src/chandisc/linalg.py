"""Dense complex matrix kernel: Hermitian eigendecompositions, Kronecker
products, partial traces and the support-containment test (on one pair or
a stack).

Everything downstream (states, channels, divergences) sits on top of these
few routines, so the tolerances used here are the global numerical knobs of
the whole library.
"""

from __future__ import annotations

import numpy as np

# Absolute eigenvalue tolerance used everywhere a PSD check or a support
# projection occurs.
PSD_TOL = 1e-9

# Hard cap on matrix dimension produced by kron / tensor powers.
DIM_CAP = 4096

HERMITICITY_RTOL = 1e-9

from .errors import (
    DimensionMismatchError,
    DimensionOverflowError,
    NonSquareError,
    NotHermitianError,
)


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def frobs(a: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of a stack (..., m, n)."""
    return np.linalg.norm(a, axis=(-2, -1))


def check_square(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {h.shape}")
    return h


def hermitian_eigen(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary of eigenvectors as columns).
    The input is symmetrized internally; a deviation from Hermiticity
    beyond tolerance raises NotHermitianError.
    """
    h = check_square(h)
    dev = frob(h - h.conj().T)
    if dev > HERMITICITY_RTOL * max(1.0, frob(h)):
        raise NotHermitianError(f"matrix deviates from Hermiticity by {dev:.3e}")
    hs = 0.5 * (h + h.conj().T)
    w, v = np.linalg.eigh(hs)
    return w, v


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; a result beyond DIM_CAP on either side raises."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[0] * b.shape[0] > DIM_CAP or a.shape[1] * b.shape[1] > DIM_CAP:
        raise DimensionOverflowError(
            f"kron result {a.shape[0] * b.shape[0]}x{a.shape[1] * b.shape[1]} "
            f"exceeds cap {DIM_CAP}"
        )
    return np.kron(a, b)


def partial_trace(m: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Trace out the tensor factors not listed in keep.

    dims lists the factor dimensions in tensor order; keep holds the indices
    of the factors to retain.  The result acts on the kept factors in their
    original order.
    """
    m = check_square(m)
    dims = list(dims)
    total = int(np.prod(dims))
    if total != m.shape[0]:
        raise DimensionMismatchError(
            f"product of dims {dims} is {total}, matrix dim is {m.shape[0]}"
        )
    keep = sorted(keep)
    if any(k < 0 or k >= len(dims) for k in keep):
        raise DimensionMismatchError(f"keep indices {keep} out of range for {dims}")
    n = len(dims)
    t = m.reshape(dims + dims)
    traced = 0
    for i in range(n):
        if i not in keep:
            axis = i - traced
            t = np.trace(t, axis1=axis, axis2=axis + n - traced)
            traced += 1
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def support_contained(a: np.ndarray, spectrum_b):
    """Whether supp(a) is contained in supp(b), both Hermitian PSD, from b's
    spectrum (eigenvalues, eigenvectors as columns); for one pair a bool,
    for a stack (..., d, d) a bool array with one entry per pair.

    Compares the weight a puts outside supp(b), Tr[a - P_b a P_b], to
    1e-7 max(1, ||a||_F).  For PSD a it vanishes exactly when a - P_b a P_b
    does; the norm of that residual would also count cross terms of size
    sqrt(weight), so nearly rank-deficient pairs would read as not contained.
    """
    w, v = spectrum_b
    cols = v * (w > PSD_TOL)[..., None, :]
    pb = cols @ np.swapaxes(cols.conj(), -1, -2)
    return np.trace(a - pb @ a @ pb, axis1=-2, axis2=-1).real <= 1e-7 * np.maximum(1.0, frobs(a))
