import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chandisc import linalg
from chandisc.errors import NonSquareError
from chandisc.quantum import DensityMatrix


def test_density_matrix_rejects_a_non_square_matrix():
    with pytest.raises(NonSquareError):
        DensityMatrix(np.zeros((2, 3)))


def test_support_contained_on_spectrum():
    # p is the projector onto its own support
    p = np.diag([1.0, 1.0, 0.0])
    spectrum = np.linalg.eigh(p)
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


def _reference_contained(a, spectrum_b):
    """support_contained's rule, always through b's support projector."""
    w, v = spectrum_b
    cols = v * (w > linalg.PSD_TOL)[..., None, :]
    pb = cols @ np.swapaxes(cols.conj(), -1, -2)
    return np.trace(a - pb @ a @ pb, axis1=-2, axis2=-1).real <= 1e-7 * np.maximum(1.0, linalg.frobs(a))


def _psd(d, rank, leak, rng, support=None):
    """A unit-trace PSD matrix of the given rank, inside the span of support's
    columns when given, plus leak times a full-rank one."""
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    if support is not None:
        g = support @ (support.conj().T @ g)
    m = g @ g.conj().T + leak * np.eye(d)
    return m / np.trace(m).real


@given(
    d=st.integers(1, 6),
    full=st.booleans(),
    ranks=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    leak=st.sampled_from([0.0, 1e-9, 1e-6, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_support_contained_matches_the_projector_rule(d, full, ranks, leak, seed):
    """For one pair and for a stack, with b of full rank (answered from its
    eigenvalues) or rank-deficient (through its projector), and a inside
    supp b up to a leak: the same answers as the projector rule, a bool for
    one pair and one entry per pair of a stack, also against one b."""
    rng = np.random.default_rng(seed)
    ranks = [d if full else min(r, d) for r in ranks]
    bs = [_psd(d, r, 0.0, rng) for r in ranks]
    spectra = [np.linalg.eigh(b) for b in bs]
    as_ = [_psd(d, d, leak, rng, v[:, w > linalg.PSD_TOL]) for w, v in spectra]
    for a, spectrum in zip(as_, spectra):
        got = linalg.support_contained(a, spectrum)
        assert isinstance(got, np.bool_) and got == _reference_contained(a, spectrum)
    stacked = (np.stack([w for w, _ in spectra]), np.stack([v for _, v in spectra]))
    got = linalg.support_contained(np.stack(as_), stacked)
    assert got.shape == (len(bs),) and np.array_equal(got, _reference_contained(np.stack(as_), stacked))
    one_b = [x[:1] for x in stacked]
    got = linalg.support_contained(np.stack(as_), one_b)
    assert got.shape == (len(bs),) and np.array_equal(got, _reference_contained(np.stack(as_), one_b))
