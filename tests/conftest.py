import math

import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, so a failure always
# reproduces and a pass is not a lucky draw that the next run may lose.
settings.register_profile("chandisc", derandomize=True)
settings.load_profile("chandisc")


def _assert_gradient_matches(objective, theta, tol=1e-6, h=1e-6):
    """objective(X) -> (values, gradients) on a batch of rows, called here on
    a batch of one: the gradient at theta must match central differences of
    the value to tol, relative to the largest component."""

    def one(t):
        f, g = objective(t[None])
        return f[0], g[0]

    _, grad = one(theta)
    ref = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        ref[i] = (one(theta + e)[0] - one(theta - e)[0]) / (2 * h)
    assert np.max(np.abs(grad - ref)) <= tol * max(1.0, np.max(np.abs(ref)))


@pytest.fixture
def assert_gradient_matches():
    return _assert_gradient_matches


def _scalar_kl(p, q):
    """The classical KL of one pair of laws in scalar form: the outcomes with
    p > 1e-15 compacted into one array and summed by one np.sum, +inf when
    q is at or below 1e-300 on one of them.  The bit-for-bit oracle of the
    stacked kernel optimize.kl_rows."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 1e-15
    if np.any(q[mask] <= 1e-300):
        return math.inf
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


@pytest.fixture
def scalar_kl():
    return _scalar_kl
