"""Dense complex matrix kernel: Frobenius norms, the square check and the
support-containment test (on one pair or a stack; a b of full rank is
answered from its eigenvalues alone).  It wraps no eigendecomposition: each
caller takes numpy's eigh where it holds the matrix, and DensityMatrix
stores the one decomposition of a state.

Everything downstream (states, channels, divergences) sits on top of these
few routines, so the tolerances used here are the global numerical knobs of
the whole library.  Tensor products and partial traces are taken with numpy
where they are needed; the one dimension cap, on tensor powers of channels,
is quantum.DIM_CAP, checked by quantum.tensor_power_channel.
"""

from __future__ import annotations

import numpy as np

# Absolute eigenvalue tolerance used everywhere a PSD check or a support
# projection occurs.
PSD_TOL = 1e-9

from .errors import NonSquareError


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


def support_contained(a: np.ndarray, spectrum_b):
    """Whether supp(a) is contained in supp(b), both Hermitian PSD, from b's
    spectrum (eigenvalues, eigenvectors as columns); for one pair a bool,
    for a stack (..., d, d) a bool array with one entry per pair.

    Compares the weight a puts outside supp(b), Tr[a - P_b a P_b], to
    1e-7 max(1, ||a||_F).  For PSD a it vanishes exactly when a - P_b a P_b
    does; the norm of that residual would also count cross terms of size
    sqrt(weight), so nearly rank-deficient pairs would read as not contained.
    When every eigenvalue of every b exceeds PSD_TOL, P_b is the identity up
    to rounding, the weight is rounding, and the answer is True for every
    pair without building a projector: O(d) instead of O(d^3).
    """
    w, v = spectrum_b
    if (w > PSD_TOL).all():
        return np.ones(np.broadcast_shapes(np.shape(a)[:-2], w.shape[:-1]), dtype=bool)[()]
    cols = v * (w > PSD_TOL)[..., None, :]
    pb = cols @ np.swapaxes(cols.conj(), -1, -2)
    return np.trace(a - pb @ a @ pb, axis1=-2, axis2=-1).real <= 1e-7 * np.maximum(1.0, frobs(a))
