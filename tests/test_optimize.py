import logging

import numpy as np
import pytest
from scipy.optimize import minimize

from chandisc.divergences import _input_objectives
from chandisc.errors import OptimizerFailure
from chandisc.optimize import (
    NEGLIGIBLE_PROB,
    ROUNDING_TOL,
    _exp_kernel,
    _log_kernel,
    _power_kernel,
    _variational_terms,
    basis_witness,
    hermitian_grad_to_params,
    hermitian_to_params,
    kl_divergence,
    kl_rows,
    multistart_maximize,
    params_to_hermitian,
)
from chandisc.quantum import depolarizing_channel, random_density_matrix


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
        f, g, _ = _variational_terms(theta, r0, r1)
        return f, g

    assert_gradient_matches(objective, 0.5 * rng.standard_normal(9))


def _one_search(objective, starts, max_iters):
    """(x, value) of the one search of a plain objective(X) -> (values,
    gradients) from the given starts."""
    return multistart_maximize(lambda batch: objective(batch[0]), [starts], max_iters)[0]


def test_multistart_maximize_concave_quadratic():
    target = np.array([0.3, -1.2, 2.0])

    def objective(theta):
        diff = theta - target
        return -np.sum(diff * diff, axis=1), -2.0 * diff

    x, f = _one_search(objective, list(np.random.default_rng(0).standard_normal((3, 3))), 50)
    assert np.allclose(x, target, atol=1e-8) and abs(f) < 1e-14


def test_multistart_maximize_lowest_start_wins_ties():
    def objective(theta):
        t = theta[:, :1]
        return -((t[:, 0] ** 2 - 1.0) ** 2), -4.0 * t * (t**2 - 1.0)

    x, _ = _one_search(objective, [np.array([2.0]), np.array([-2.0])], 50)
    assert abs(x[0] - 1.0) < 1e-6
    x, _ = _one_search(objective, [np.array([-2.0]), np.array([2.0])], 50)
    assert abs(x[0] + 1.0) < 1e-6


def test_multistart_maximize_raises_when_every_start_fails():
    def objective(theta):
        raise FloatingPointError("overflow")

    with pytest.raises(OptimizerFailure, match="all 2 restarts failed"):
        _one_search(objective, [np.zeros(2), np.ones(2)], 50)


def test_multistart_maximize_raises_without_starts():
    objective, calls = _blockwise(_quadratic, _quadratic)
    for searches in ([[]], [[np.zeros(3)], []]):
        with pytest.raises(OptimizerFailure, match="all 0 restarts failed"):
            multistart_maximize(objective, searches, 50)
    assert calls == []


# ---------------------------------------------------------------------------
# The lockstep driver against scipy.optimize.minimize, one start at a time
# ---------------------------------------------------------------------------


def _quadratic(theta):
    diff = theta - np.array([0.3, -1.2, 2.0])
    return -np.sum(diff * diff, axis=1), -2.0 * diff


def _quartic(theta):
    """Nonconvex: a double well in each coordinate, tilted and coupled."""
    x, y = theta[:, 0], theta[:, 1]
    f = -((x**2 - 1.0) ** 2) - (y**2 - 1.0) ** 2 + 0.3 * x + 0.2 * x * y
    g = np.stack([-4.0 * x * (x**2 - 1.0) + 0.3 + 0.2 * y, -4.0 * y * (y**2 - 1.0) + 0.2 * x], axis=1)
    return f, g


def _rosenbrock(theta):
    x, y = theta[:, 0], theta[:, 1]
    f = -((1.0 - x) ** 2) - 100.0 * (y - x**2) ** 2
    g = np.stack([2.0 * (1.0 - x) + 400.0 * x * (y - x**2), -200.0 * (y - x**2)], axis=1)
    return f, g


def _driver_case(case):
    """(objective, starts, max_iters)."""
    rng = np.random.default_rng(53)
    if case == "quadratic":
        return _quadratic, list(rng.standard_normal((3, 3))), 50
    if case == "quartic":
        return _quartic, list(1.5 * rng.standard_normal((4, 2))), 100
    if case == "stationary_start":
        return _quadratic, [np.array([0.3, -1.2, 2.0]), rng.standard_normal(3)], 50
    if case == "max_iters":
        return _rosenbrock, [np.array([-1.2, 1.0]), np.array([2.0, -1.0])], 5
    objective = _input_objectives(depolarizing_channel(0.3), depolarizing_channel(0.7), "measured", None, [False])
    # a measured row holds H on the qubit pair's output R (x) B: (2 * 2)^2 parameters
    return (lambda theta: objective((theta, np.zeros(len(theta), dtype=int)))), list(rng.standard_normal((3, 16))), 60


def _negated_one(objective):
    """The negated batched objective on one point, as minimize takes it."""

    def negated(theta):
        f, g = objective(theta[None])
        return -f[0], -g[0]

    return negated


@pytest.mark.parametrize("case", ["quadratic", "quartic", "stationary_start", "max_iters", "measured_input"])
def test_lockstep_driver_matches_scipy_minimize(case, caplog):
    objective, starts, max_iters = _driver_case(case)
    with caplog.at_level(logging.DEBUG, logger="chandisc.optimize"):
        _one_search(objective, starts, max_iters)
    (record,) = caplog.records
    stats = record.multistart
    for i, x0 in enumerate(starts):
        ref = minimize(
            _negated_one(objective),
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": max_iters, "gtol": 1e-10, "ftol": ROUNDING_TOL},
        )
        # the start run with all others in lockstep, and on its own
        assert (stats["nfev"][i], stats["nit"][i], stats["values"][i]) == (ref.nfev, ref.nit, -ref.fun)
        x, f = _one_search(objective, [x0], max_iters)
        assert np.array_equal(x, ref.x) and f == -ref.fun
    if case == "stationary_start":
        assert (stats["nfev"][0], stats["nit"][0]) == (1, 0)
    if case == "max_iters":
        assert stats["nit"] == [max_iters, max_iters]


def test_failed_start_is_dropped_and_the_others_go_on(caplog):
    def objective(theta):
        if np.any(np.abs(theta) > 50.0):
            raise FloatingPointError("overflow")
        x = theta[:, 0]
        return -((x**2 - 1.0) ** 2) + 0.1 * x, (-4.0 * x * (x**2 - 1.0) + 0.1)[:, None]

    good = [np.array([-2.0]), np.array([2.0])]
    x_ref, f_ref = _one_search(objective, good, 50)
    with caplog.at_level(logging.DEBUG, logger="chandisc.optimize"):
        x, f = _one_search(objective, [good[0], np.array([100.0]), good[1]], 50)
    assert np.array_equal(x, x_ref) and f == f_ref and x[0] > 0.9
    stats = caplog.records[0].multistart
    assert stats["failed"] == 1 and stats["winner"] == 2 and stats["nfev"][1] is None


def test_multistart_logs_one_debug_record(caplog):
    starts = list(np.random.default_rng(0).standard_normal((3, 3)))
    _one_search(_quadratic, starts, 50)
    assert not caplog.records  # nothing at the default level
    with caplog.at_level(logging.DEBUG, logger="chandisc.optimize"):
        _one_search(_quadratic, starts, 50)
    (record,) = caplog.records
    assert record.name == "chandisc.optimize" and record.levelno == logging.DEBUG
    stats = record.multistart
    assert stats["starts"] == 3 and stats["failed"] == 0 and stats["winner"] in (0, 1, 2)
    assert len(stats["nfev"]) == len(stats["nit"]) == 3 and min(stats["nit"]) >= 1
    # every start is evaluated once per batched call while it is live
    assert stats["batched_calls"] == max(stats["nfev"])


# ---------------------------------------------------------------------------
# Several searches in one lockstep run
# ---------------------------------------------------------------------------


def _blockwise(*objectives):
    """A multi-search objective from one plain objective per search, each
    taking the rows its search owns, and the list of calls it receives (the
    owner of each row)."""
    calls = []

    def objective(batch):
        x, owner = batch
        calls.append(owner.tolist())
        f, g = np.zeros(len(x)), np.zeros(x.shape)
        for s, fn in enumerate(objectives):
            f[owner == s], g[owner == s] = fn(x[owner == s])
        return f, g

    return objective, calls


def _alone(objective, starts, max_iters, caplog):
    """(x, value) and the DEBUG stats of one search run on its own."""
    caplog.clear()
    x, f = _one_search(objective, starts, max_iters)
    (record,) = caplog.records
    return x, f, record.multistart


def test_searches_ending_in_different_rounds_equal_their_runs_alone(caplog):
    rng = np.random.default_rng(61)
    starts = [list(1.5 * rng.standard_normal((3, 2))), [np.array([-1.2, 1.0]), np.array([2.0, -1.0])]]
    objective, calls = _blockwise(_quartic, _rosenbrock)
    with caplog.at_level(logging.DEBUG, logger="chandisc.optimize"):
        found = multistart_maximize(objective, starts, 80)
        together = [r.multistart for r in caplog.records]
        alone = [_alone(fn, pts, 80, caplog) for fn, pts in zip((_quartic, _rosenbrock), starts)]
    assert len(found) == len(together) == 2
    for (x, f), stats, (x_ref, f_ref, stats_ref) in zip(found, together, alone):
        assert np.array_equal(x, x_ref) and f == f_ref
        # every field, nfev and nit of each start and batched_calls included
        assert stats == stats_ref
        assert stats["batched_calls"] == max(stats["nfev"])
    # one call per round while either search is live; the quartic ends first
    rounds = [stats["batched_calls"] for stats in together]
    assert rounds[0] < rounds[1] == len(calls)
    # no row of search 0 after the quartic ends
    assert all(0 not in owners for owners in calls[rounds[0] :])


def test_a_failing_row_retires_only_its_start(caplog):
    def fragile(theta):
        if np.any(np.abs(theta) > 50.0):
            raise FloatingPointError("overflow")
        return _quartic(theta)

    good = [np.array([-2.0, 0.5]), np.array([2.0, -0.5])]
    starts = [[good[0], np.array([100.0, 0.0]), good[1]], list(good)]
    objective, _ = _blockwise(fragile, fragile)
    with caplog.at_level(logging.DEBUG, logger="chandisc.optimize"):
        (x0, f0), (x1, f1) = multistart_maximize(objective, starts, 50)
        stats = [r.multistart for r in caplog.records]
        x_ref, f_ref, _ = _alone(fragile, good, 50, caplog)
    assert np.array_equal(x0, x_ref) and f0 == f_ref
    assert np.array_equal(x1, x_ref) and f1 == f_ref
    assert (stats[0]["failed"], stats[0]["nfev"][1], stats[1]["failed"]) == (1, None, 0)
    assert stats[0]["nfev"][::2] == stats[1]["nfev"]


def test_every_search_keeps_its_own_tie_rule():
    def well(theta):
        t = theta[:, :1]
        return -((t[:, 0] ** 2 - 1.0) ** 2), -4.0 * t * (t**2 - 1.0)

    objective, _ = _blockwise(well, well)
    plus, minus = np.array([2.0]), np.array([-2.0])
    (x0, f0), (x1, f1) = multistart_maximize(objective, [[plus, minus], [minus, plus]], 50)
    assert f0 == f1 and abs(x0[0] - 1.0) < 1e-6 and abs(x1[0] + 1.0) < 1e-6


def test_basis_witness_merges_negligible_outcomes_and_orders_by_increment():
    """Outcomes negligible under both states join the outcome of largest
    rho1 probability; the effects run by ascending log p0 - log p1, equal
    increments in index order; the value is the KL of the merged laws."""
    p = np.diag([0.6, 0.0, 0.3, 3e-17, 0.1]).astype(complex)
    q = np.diag([0.1, 0.0, 0.6, 0.0, 0.3]).astype(complex)
    value, povm = basis_witness(np.eye(5, dtype=complex), p, q)
    # increments log(1/3) < log(1/2) (outcome 2 with 1 and 3 merged in) < log 6
    e = np.eye(5)
    assert povm.is_pvm and len(povm.effects) == 3
    for got, want in zip(povm.effects, (np.diag(e[4]), np.diag(e[1] + e[2] + e[3]), np.diag(e[0]))):
        assert np.array_equal(got, want)
    assert value == pytest.approx(kl_divergence(np.array([0.1, 0.3, 0.6]), np.array([0.3, 0.6, 0.1])), abs=1e-15)
    # equal increments keep their index order
    flat = np.diag([0.5, 0.2, 0.3]).astype(complex)
    _, tied = basis_witness(np.eye(3, dtype=complex), flat, flat)
    assert [int(np.argmax(np.real(np.diag(t)))) for t in tied.effects] == [0, 1, 2]


@pytest.mark.parametrize("k", [2, 4, 7, 8, 9, 16])
def test_kl_rows_equal_the_scalar_kl_bit_for_bit(k, scalar_kl):
    """kl_rows gives every row's KL bit for bit as the scalar form, on rows
    without masked outcomes, with outcomes masked under p (at or below
    NEGLIGIBLE_PROB), under p and q alike, with q at or below 1e-300 where p
    is kept (inf), and fully masked (0).  Below 8 outcomes the masked terms
    are zeros in one sum; from 8 on each masked row is summed on its own."""
    rng = np.random.default_rng(k)
    n = 500
    p = rng.dirichlet(np.full(k, 0.7), n)
    q = rng.dirichlet(np.full(k, 0.7), n)
    picked = rng.random((n, k)) < 0.3
    picked[:, 0] = True
    group = np.arange(n) % 5
    under_p = picked & (group[:, None] == 1)
    under_both = picked & (group[:, None] == 2)
    under_q = picked & (group[:, None] == 3)
    p[under_p | under_both] = rng.choice([0.0, 1e-16, NEGLIGIBLE_PROB], (under_p | under_both).sum())
    q[under_both | under_q] = rng.choice([0.0, 1e-301, 1e-300], (under_both | under_q).sum())
    p[group == 4] = rng.choice([0.0, 1e-17, NEGLIGIBLE_PROB], ((group == 4).sum(), k))
    got = kl_rows(p, q)
    want = np.array([scalar_kl(a, b) for a, b in zip(p, q)])
    assert got.shape == (n,) and got.tobytes() == want.tobytes()
    assert np.all(np.isinf(got[group == 3])) and np.all(got[group == 4] == 0.0)
    assert np.all(np.isfinite(got[group != 3]))
    # leading axes are kept, and kl_divergence is the batch of one
    assert kl_rows(p.reshape(5, -1, k), q.reshape(5, -1, k)).tobytes() == got.tobytes()
    assert [kl_divergence(a, b) for a, b in zip(p[:20], q[:20])] == want[:20].tolist()
