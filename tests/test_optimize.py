import numpy as np
import pytest

from chandisc.optimize import (
    OptimizerConfig,
    _exp_kernel,
    _log_kernel,
    _phase_kernel,
    _power_kernel,
    _pvm_objective,
    _variational_terms,
    hermitian_grad_to_params,
    hermitian_to_params,
    multistart_maximize,
    params_to_hermitian,
)
from chandisc.quantum import random_density_matrix, random_unitary


def _loop_params_to_hermitian(theta, d):
    """Element-by-element reference for the parameter layout."""
    h = np.zeros((d, d), dtype=complex)
    h[np.diag_indices(d)] = theta[:d]
    idx = d
    for i in range(d):
        for j in range(i + 1, d):
            h[i, j] = theta[idx] + 1j * theta[idx + 1]
            h[j, i] = theta[idx] - 1j * theta[idx + 1]
            idx += 2
    return h


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_hermitian_params_round_trip(d):
    rng = np.random.default_rng(d)
    theta = rng.standard_normal(d * d)
    h = params_to_hermitian(theta, d)
    assert np.array_equal(h, _loop_params_to_hermitian(theta, d))
    assert np.array_equal(hermitian_to_params(h), theta)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_hermitian_grad_is_adjoint_of_parametrization(d):
    # <hermitian_grad_to_params(G), theta> = Tr[G H(theta)] for Hermitian G
    rng = np.random.default_rng(10 + d)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    g = a + a.conj().T
    theta = rng.standard_normal(d * d)
    lhs = hermitian_grad_to_params(g) @ theta
    rhs = np.trace(g @ params_to_hermitian(theta, d))
    assert abs(lhs - rhs.real) < 1e-12 and abs(rhs.imag) < 1e-12


def _difference_quotients(f, df, w):
    n = w.size
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = df(w[i]) if i == j else (f(w[i]) - f(w[j])) / (w[i] - w[j])
    return out


def test_divided_difference_kernels_match_quotients():
    w = np.array([0.05, 0.3, 0.9, 2.5])
    support = np.ones(4, dtype=bool)
    gamma = -1.0 / 6.0
    cases = [
        (_exp_kernel(w), np.exp, np.exp),
        (_phase_kernel(w) * 1j, lambda x: np.exp(1j * x), lambda x: 1j * np.exp(1j * x)),
        (_log_kernel(w, support), np.log, lambda x: 1.0 / x),
        (_power_kernel(w, support, gamma), lambda x: x**gamma, lambda x: gamma * x ** (gamma - 1)),
    ]
    for kernel, f, df in cases:
        assert np.allclose(kernel, _difference_quotients(f, df, w), rtol=1e-12, atol=0)
    # pairs touching the kernel of the state carry no weight
    support[0] = False
    assert not np.any(_log_kernel(w, support)[0]) and not np.any(_power_kernel(w, support, gamma)[:, 0])


def test_variational_gradient_matches_central_differences(assert_gradient_matches):
    rng = np.random.default_rng(5)
    r0 = random_density_matrix(3, rng).mat
    r1 = random_density_matrix(3, rng).mat

    def objective(theta):
        f, g, _, _ = _variational_terms(theta, r0, r1)
        return f, g

    assert_gradient_matches(objective, 0.5 * rng.standard_normal(9))


def test_pvm_gradient_matches_central_differences(assert_gradient_matches):
    rng = np.random.default_rng(6)
    for d in (2, 4):
        r0 = random_density_matrix(d, rng).mat
        r1 = random_density_matrix(d, rng).mat
        objective = _pvm_objective(r0, r1, random_unitary(d, rng))
        assert_gradient_matches(objective, 0.5 * rng.standard_normal(d * d))


def test_multistart_maximize_concave_quadratic():
    target = np.array([0.3, -1.2, 2.0])

    def objective(theta):
        diff = theta - target
        return -float(diff @ diff), -2.0 * diff

    x, f = multistart_maximize(objective, 3, OptimizerConfig(restarts=3, max_iters=50))
    assert np.allclose(x, target, atol=1e-8) and abs(f) < 1e-14


def test_multistart_maximize_lowest_start_wins_ties():
    def objective(theta):
        return -float((theta[0] ** 2 - 1.0) ** 2), np.array([-4.0 * theta[0] * (theta[0] ** 2 - 1.0)])

    cfg = OptimizerConfig(restarts=2, max_iters=50)
    x, _ = multistart_maximize(objective, 1, cfg, starts=[np.array([2.0]), np.array([-2.0])])
    assert abs(x[0] - 1.0) < 1e-6
    x, _ = multistart_maximize(objective, 1, cfg, starts=[np.array([-2.0]), np.array([2.0])])
    assert abs(x[0] + 1.0) < 1e-6


def test_multistart_maximize_raises_when_every_start_fails():
    from chandisc.errors import OptimizerFailure

    def objective(theta):
        raise FloatingPointError("overflow")

    with pytest.raises(OptimizerFailure, match="all 2 restarts failed"):
        multistart_maximize(objective, 2, OptimizerConfig(restarts=2))
