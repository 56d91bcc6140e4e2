import logging
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chandisc import divergences, optimize
from chandisc.divergences import (
    ConvergenceWarning,
    DivergenceValue,
    _input_objectives,
    _max_divs,
    _relative_terms,
    _renyi_terms,
    _sandwich,
    _state_value,
    channel_divergence,
    channel_divergence_pair,
    max_div_states,
    measured_rel_entropy_states,
    product_input_vector,
    rel_entropy_states,
    sandwiched_renyi_states,
)
from chandisc.errors import DimensionMismatchError, InvalidAlphaError, OptimizerFailure
from chandisc.linalg import support_contained
from chandisc.optimize import (
    ROUNDING_TOL,
    OptimizerConfig,
    hermitian_to_params,
    params_to_hermitian,
    _safe_log_state,
    _variational_terms,
    basis_witness,
    kl_divergence,
    multistart_maximize,
    variational_measured,
)
from chandisc.quantum import (
    DensityMatrix,
    _apply_to_pure,
    amplitude_damping_channel,
    bernoulli_replacer,
    classical_channel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    max_entangled_vector,
    outcome_distribution,
    pure_state,
    random_channel,
    random_density_matrix,
    random_unitary,
    tensor_power_channel,
)

CFG = OptimizerConfig(restarts=4, max_iters=100)


def diag(*ps):
    return DensityMatrix(np.diag(ps))


def test_rel_entropy_classical_oracle():
    # D((0.5,0.5) || (0.25,0.75)) = 0.5 log 2 + 0.5 log(2/3)
    expect = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    got = rel_entropy_states(diag(0.5, 0.5), diag(0.25, 0.75)).value
    assert abs(got - expect) < 1e-12
    assert abs(expect - 0.14384103622589045) < 1e-12


def test_rel_entropy_pure_vs_mixed():
    got = rel_entropy_states(diag(1.0, 0.0), diag(0.5, 0.5)).value
    assert abs(got - math.log(2.0)) < 1e-12


def test_rel_entropy_infinite_direction():
    dv = rel_entropy_states(diag(0.5, 0.5), diag(1.0, 0.0))
    assert not dv.is_finite and math.isinf(dv.value)


def test_state_divergences_of_a_leaking_pair_read_no_lower_than_zero():
    """A rho0 that leaks 1e-9 onto a kernel vector of rho1 passes the
    support rule, and the formulas, read on supp rho1 without
    renormalizing, give about -1e-9 (relative) and -1.1e-8 (Renyi at
    alpha = 1.1).  The state-level values are floored at 0, as channel and
    measured values are; the value a channel bracket reads as its lower end,
    _state_value's, is not, so that such a bracket stays open."""
    leaky, r1 = diag(1 - 1e-9, 1e-9), diag(1.0, 0.0)
    assert rel_entropy_states(leaky, r1).value == 0.0
    assert _state_value("relative", None, leaky, r1) < 0.0
    for alpha in (1.1, 1.5, 2.0, 3.0):
        assert sandwiched_renyi_states(leaky, r1, alpha).value == 0.0, alpha
        assert _state_value("renyi", alpha, leaky, r1) < 0.0, alpha


def test_max_div_oracle_one_bit():
    dv = max_div_states(diag(1.0, 0.0), diag(0.5, 0.5))
    assert abs(dv.in_bits() - 1.0) < 1e-12
    assert abs(dv.value - math.log(2.0)) < 1e-12


def test_max_div_states_on_common_kernel():
    # rho1^{-1/2} is taken on supp(rho1) only; the shared kernel adds nothing
    dv = max_div_states(diag(0.8, 0.2, 0.0), diag(0.5, 0.5, 0.0))
    assert abs(dv.value - math.log(1.6)) <= 1e-14


def test_state_readers_reuse_the_stored_spectrum(monkeypatch):
    """D_max and the support test read the spectra the states were built
    with: neither state is decomposed again."""
    rng = np.random.default_rng(5)
    states = [random_density_matrix(3, rng), random_density_matrix(3, rng, rank=2)]
    seen = []

    def recording(fn):
        def wrapped(a, *args, **kwargs):
            seen.append((fn.__name__, np.array(a)))
            return fn(a, *args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", recording(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh))
    for r0, r1 in (states, states[::-1]):
        max_div_states(r0, r1)
        support_contained(r0.mat, r1.spectrum)
    # one pair is not contained; the finite one decomposes rho1^{-1/2} rho0 rho1^{-1/2} only
    assert [name for name, _ in seen] == ["eigvalsh"]
    assert not any(np.array_equal(a, r.mat) for _, a in seen for r in states)


def test_sandwiched_renyi_alpha_to_one_limit():
    rng = np.random.default_rng(11)
    r0 = random_density_matrix(2, rng)
    r1 = random_density_matrix(2, rng)
    d = rel_entropy_states(r0, r1).value
    prev = None
    for alpha in (1.5, 1.1, 1.01, 1.001):
        v = sandwiched_renyi_states(r0, r1, alpha).value
        assert v >= d - 1e-9
        if prev is not None:
            assert v <= prev + 1e-9  # monotone in alpha
        prev = v
    assert abs(prev - d) < 5e-3


def test_sandwiched_renyi_rejects_alpha_below_one():
    r = diag(0.5, 0.5)
    with pytest.raises(InvalidAlphaError):
        sandwiched_renyi_states(r, r, 0.9)
    with pytest.raises(InvalidAlphaError):
        sandwiched_renyi_states(r, r, 1.0)


def test_renyi_classical_oracle():
    # diagonal states: D̃_α reduces to the classical Rényi divergence
    p = np.array([0.3, 0.7])
    q = np.array([0.6, 0.4])
    alpha = 2.0
    expect = math.log(float(np.sum(p**alpha * q ** (1 - alpha)))) / (alpha - 1)
    got = sandwiched_renyi_states(diag(*p), diag(*q), alpha).value
    assert abs(got - expect) < 1e-12


def test_measured_equals_kl_on_diagonal():
    p = np.array([0.2, 0.8])
    q = np.array([0.7, 0.3])
    dv = measured_rel_entropy_states(diag(*p), diag(*q), CFG)
    assert abs(dv.value - kl_divergence(p, q)) < 1e-8
    w = dv.witness
    assert abs(w.variational_value - w.pvm_value) < 1e-6


def test_measured_pairs_inside_the_support_tolerance_are_certified_on_the_support():
    """A pair whose rho0 leaks 1e-9 onto a kernel vector of rho1 passes the
    support rule, but every candidate basis has an outcome with p = 1e-9
    and q = 0.  Its value is certified on supp rho1: it equals, bit for
    bit, the value of rho0 compressed by rho1's support projector and
    renormalized, and its witness is a PVM."""
    for leaky, r1 in ((diag(1 - 1e-9, 1e-9), diag(1.0, 0.0)),
                      (diag(0.5, 0.5 - 1e-9, 1e-9), diag(0.25, 0.75, 0.0))):
        dv = measured_rel_entropy_states(leaky, r1, CFG)
        compressed = np.diag(np.diag(leaky.mat)[:-1].tolist() + [0.0])
        on_support = measured_rel_entropy_states(DensityMatrix(compressed / np.trace(compressed).real), r1, CFG)
        assert math.isfinite(dv.value) and dv.is_lower_bound and dv.witness.povm.is_pvm
        assert (dv.value, dv.witness.variational_value, dv.witness.pvm_value, dv.warnings) == (
            on_support.value, on_support.witness.variational_value, on_support.witness.pvm_value, [])
    assert abs(dv.value - kl_divergence([0.5, 0.5], [0.25, 0.75])) <= 1e-8


def test_leaky_classical_pairs_give_a_value_below_the_upper_end_or_fail():
    """The classical pair W0 = [[1 - eps, .5], [eps, .5]], W1 = [[1, q],
    [0, 1 - q]] passes the support rule on its Choi states for these leaks.
    At q = .5 each searched kind's value, both directions, lies at or below
    its upper end under the rounding rule.  At eps = 1.2e-7 the measured
    search's witness leaks more than the state-level rule allows, at q = .5
    and at q = .4999, and D(N0||N1) raises OptimizerFailure naming the
    direction and the cause.  At q = .5 the bracket at the maximally
    entangled input reads its lower end, about -1.06e-6, unfloored, so it
    stays open and the search runs."""
    def pair(eps, q=0.5):
        return _classical_channels(([[1 - eps, 0.5], [eps, 0.5]], [[1.0, q], [0.0, 1 - q]]))

    for eps in (1e-9, 4e-8, 6e-8):
        for kind, alpha in (("relative", None), ("measured", None), ("renyi", 1.5)):
            for dv in channel_divergence_pair(*pair(eps), kind=kind, alpha=alpha, cfg=CFG):
                assert dv.is_finite and dv.value <= dv.upper + 1e-12 * max(1.0, dv.upper), (eps, kind, dv)
    for q in (0.5, 0.4999):
        with pytest.raises(OptimizerFailure, match=r"^measured D\(N0\|\|N1\): the state-level support rule reads"):
            channel_divergence_pair(*pair(1.2e-7, q), kind="measured", cfg=CFG)


def test_measured_below_relative():
    rng = np.random.default_rng(13)
    for _ in range(10):
        r0 = random_density_matrix(2, rng)
        r1 = random_density_matrix(2, rng)
        dm = measured_rel_entropy_states(r0, r1, CFG).value
        d = rel_entropy_states(r0, r1).value
        assert dm <= d + 1e-6
        assert dm >= 0.0


def test_variational_measured_is_lower_bound_of_relative(monkeypatch):
    """The program's value lies below D, and the basis it returns is
    unitary and diagonalizes omega = exp(H) at the optimal H, the winner of
    its lockstep search."""
    rng = np.random.default_rng(17)
    r0 = random_density_matrix(3, rng)
    r1 = random_density_matrix(3, rng)
    log_ratio = _safe_log_state(r0.spectrum) - _safe_log_state(r1.spectrum)
    found, real = [], optimize._lockstep

    def lockstep(*args):
        found.extend(real(*args))
        return found

    monkeypatch.setattr(optimize, "_lockstep", lockstep)
    (v,), (basis,) = variational_measured(r0.mat[None], r1.mat[None], [[hermitian_to_params(log_ratio), np.zeros(9)]])
    assert v <= rel_entropy_states(r0, r1).value + 1e-8
    ((theta, value),) = found
    assert value == v
    assert np.allclose(basis.conj().T @ basis, np.eye(3), rtol=0, atol=1e-12)
    omega = scipy.linalg.expm(params_to_hermitian(theta, 3))
    in_basis = basis.conj().T @ omega @ basis
    assert np.allclose(in_basis, np.diag(np.diag(in_basis)), rtol=0, atol=1e-10 * np.linalg.norm(omega))


def test_channel_divergence_replacer_reduces_to_states():
    n0 = bernoulli_replacer(0.2)
    n1 = bernoulli_replacer(0.8)
    kl = kl_divergence([0.2, 0.8], [0.8, 0.2])
    for kind in ("relative", "measured"):
        dv = channel_divergence(n0, n1, kind=kind, cfg=CFG)
        assert abs(dv.value - kl) < 1e-6
        assert dv.is_lower_bound
    dv_renyi = channel_divergence(n0, n1, kind="renyi", alpha=2.0, cfg=CFG)
    expect = math.log(0.2**2 / 0.8 + 0.8**2 / 0.2)
    assert abs(dv_renyi.value - expect) < 1e-6


def test_channel_max_divergence_exact_on_choi():
    n0 = depolarizing_channel(0.3)
    n1 = depolarizing_channel(0.7)
    dv = channel_divergence(n0, n1, kind="max")
    direct = max_div_states(n0.choi_state(), n1.choi_state()).value
    assert dv.value == direct
    assert not dv.is_lower_bound


def test_channel_divergence_infinite_pair():
    """D(dep(0.5)||id) is infinite and carries no witness in every kind, max
    included; D(id||dep(0.5)) is finite and carries one."""
    for kind, alpha in (("relative", None), ("measured", None), ("max", None), ("renyi", 1.5)):
        dv = channel_divergence(depolarizing_channel(0.5), identity_channel(2), kind=kind, alpha=alpha)
        assert not dv.is_finite and math.isinf(dv.value) and dv.witness is None, kind
        dv = channel_divergence(identity_channel(2), depolarizing_channel(0.5), kind=kind, alpha=alpha, cfg=CFG)
        assert dv.is_finite and dv.witness is not None, kind


def test_channel_divergence_rejects_wrong_length_extra_start():
    n0, n1 = depolarizing_channel(0.3), depolarizing_channel(0.7)
    for bad in (np.ones(3), np.ones(16), np.ones((4, 1))):
        for kind in ("relative", "measured", "max"):
            with pytest.raises(DimensionMismatchError, match="length 4"):
                channel_divergence(n0, n1, kind=kind, cfg=OptimizerConfig(extra_starts=[bad]))


def test_block_divergence_rejects_wrong_length_extra_start():
    n0, n1 = depolarizing_channel(0.3), depolarizing_channel(0.7)
    for bad in (np.ones(3), np.ones(64)):
        with pytest.raises(DimensionMismatchError, match="length 4, on its 2-fold block 16"):
            channel_divergence(n0, n1, kind="relative", cfg=OptimizerConfig(extra_starts=[bad]), l=2)


@pytest.mark.parametrize("bad", [np.zeros(4), np.array([0.5, np.nan, 0.5, 0.0])], ids=["zero", "nan"])
def test_extra_starts_without_a_finite_nonzero_norm_raise(bad):
    """A zero or NaN extra start raises ValueError naming it, for every kind
    at l = 1 and for a block value at l = 2, whose lifted start meets the
    same check.  The relative and Renyi searches used to drop it as a failed
    restart with a RuntimeWarning, and the measured one read the zero vector
    as an input.  A bad block start ahead of a length-d^2 one is named start
    0: each start keeps its place when the d^2 ones are lifted (lifting them
    ahead of the block ones named it start 1)."""
    rng = np.random.default_rng(1)
    n0, n1 = random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng)
    cfg = replace(CFG, extra_starts=[max_entangled_vector(2), bad])
    for kind, alpha in (("relative", None), ("measured", None), ("max", None), ("renyi", 1.5)):
        with pytest.raises(ValueError, match="extra start 1 "):
            channel_divergence(n0, n1, kind=kind, alpha=alpha, cfg=cfg)
    with pytest.raises(ValueError, match="extra start 1 "):
        channel_divergence(n0, n1, kind="relative", cfg=cfg, l=2)
    with pytest.raises(ValueError, match="extra start 0 "):
        channel_divergence(n0, n1, kind="relative", cfg=replace(CFG, extra_starts=[np.kron(bad, bad), np.ones(4)]),
                           l=2)


def test_block_divergence_rejects_a_column_start_as_l1_does():
    """A (4, 1) column start is not a vector on R (x) A at any block size:
    it raises at l = 2 as it does at l = 1.  The block path checked sizes
    alone and lifted it."""
    n0, n1 = depolarizing_channel(0.3), depolarizing_channel(0.7)
    for l in (1, 2):
        with pytest.raises(DimensionMismatchError, match=r"\(4, 1\)"):
            channel_divergence(n0, n1, kind="relative", cfg=OptimizerConfig(extra_starts=[np.ones((4, 1))]), l=l)


def test_arguments_are_checked_before_the_tensor_power():
    """An unknown kind, a bad alpha or a mismatched pair raises its own
    error at a block size whose tensor power would overflow the dimension
    cap: no tensor power is built before the checks."""
    n0, n1 = depolarizing_channel(0.3), depolarizing_channel(0.7)
    for l in (1, 13):
        with pytest.raises(ValueError, match="unknown divergence kind 'bogus'"):
            channel_divergence(n0, n1, kind="bogus", l=l)
        with pytest.raises(InvalidAlphaError):
            channel_divergence(n0, n1, kind="renyi", alpha=1.0, l=l)
        with pytest.raises(DimensionMismatchError, match="channel pair has mismatched dimensions"):
            channel_divergence(n0, identity_channel(3), kind="max", l=l)


def test_a_tiny_winning_start_keeps_its_direction():
    """An extra start scaled by 1e-13 stands for the same input as the unit
    start: the relative value is the unit start's, and the witness is that
    input, not |0...0>.  A winner of norm below 1e-12 used to be replaced
    by |0...0>, which read 0.574 against 2.036."""
    rng = np.random.default_rng(7)
    n0, n1 = random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng)
    cfg = OptimizerConfig(restarts=4, max_iters=100)
    unit = channel_divergence(n0, n1, cfg=cfg)
    tiny = channel_divergence(n0, n1, cfg=replace(cfg, extra_starts=[1e-13 * unit.witness.input_vector]))
    assert tiny.value == pytest.approx(unit.value, rel=1e-12)
    w = tiny.witness.input_vector
    assert np.linalg.norm(w) == pytest.approx(1.0)
    assert abs(np.vdot(unit.witness.input_vector, w)) == pytest.approx(1.0, abs=1e-9)
    assert abs(w[0]) < 0.9


def test_measured_states_outside_the_support_read_inf():
    """rho0 off the support of rho1: the measured value is inf, not finite,
    and has no witness."""
    dv = measured_rel_entropy_states(diag(0.5, 0.5), diag(1.0, 0.0), CFG)
    assert math.isinf(dv.value) and not dv.is_finite and dv.witness is None
    assert measured_rel_entropy_states(diag(1.0, 0.0), diag(0.5, 0.5), CFG).is_finite


def test_is_finite_reads_the_value():
    """DivergenceValue.is_finite is the finiteness of value, not a separate
    field that can disagree with it."""
    assert DivergenceValue(1.0).is_finite and not DivergenceValue(math.inf).is_finite
    dv = replace(DivergenceValue(math.inf), value=2.0)
    assert dv.is_finite


def test_equal_channels_zero():
    ch = depolarizing_channel(0.4)
    for kind, alpha in (("relative", None), ("measured", None), ("max", None), ("renyi", 2.0)):
        dv = channel_divergence(ch, ch, kind=kind, alpha=alpha, cfg=CFG)
        assert abs(dv.value) < 1e-9


def test_identity_vs_depolarizing_closed_form():
    # (id ⊗ dep_p)(Φ+) has eigenvalues 1-p+p/4 and p/4 (x3); relative entropy
    # against the maximally entangled output is -log(1 - 3p/4)
    p = 0.5
    expect = -math.log(1.0 - 0.75 * p)
    dv = channel_divergence(identity_channel(2), depolarizing_channel(p), kind="relative", cfg=CFG)
    assert abs(dv.value - expect) < 1e-3
    assert dv.is_lower_bound


def test_witness_certifies_value():
    n0 = depolarizing_channel(0.3)
    n1 = depolarizing_channel(0.7)
    dv = channel_divergence(n0, n1, kind="relative", cfg=CFG)
    psi = dv.witness.input_vector
    s0 = DensityMatrix(_apply_to_pure(n0, psi))
    s1 = DensityMatrix(_apply_to_pure(n1, psi))
    assert abs(rel_entropy_states(s0, s1).value - dv.value) < 1e-9


def test_product_input_vector_reorders_correctly():
    # product of two copies of a bipartite vector equals the permuted kron
    rng = np.random.default_rng(19)
    d = 2
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    vec = product_input_vector(psi, d, 2)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    # check via density matrices: tracing out copy 2 must give copy 1's state
    rho = np.outer(vec, vec.conj()).reshape((2,) * 8)
    red = np.einsum("abcdebfd->acef", rho)
    single = np.outer(psi, psi.conj()).reshape(2, 2, 2, 2)
    assert np.allclose(red, single, atol=1e-12)


def test_block_divergence_additivity_on_replacers():
    n0 = bernoulli_replacer(0.2)
    n1 = bernoulli_replacer(0.8)
    kl = kl_divergence([0.2, 0.8], [0.8, 0.2])
    cfg = OptimizerConfig(restarts=2, max_iters=60)
    est = channel_divergence(n0, n1, kind="measured", cfg=cfg, l=2)
    assert abs(est.value - kl) < 1e-5
    assert abs(2 * est.value - 2 * kl) < 2e-5


def test_block_divergence_dominates_single_use():
    n0 = depolarizing_channel(0.3)
    n1 = depolarizing_channel(0.7)
    cfg1 = OptimizerConfig(restarts=4, max_iters=80)
    dv1 = channel_divergence(n0, n1, kind="measured", cfg=cfg1)
    cfg2 = OptimizerConfig(restarts=2, max_iters=40)
    cfg2.extra_starts = [dv1.witness.input_vector]
    est = channel_divergence(n0, n1, kind="measured", cfg=cfg2, l=2)
    assert est.value >= dv1.value - 1e-5


def _npar(n0, kind) -> int:
    """The number of real parameters of an input-search row: H on the
    output R (x) B for the measured kind, else (Re, Im) of psi on R (x) A."""
    return (n0.in_dim * n0.out_dim) ** 2 if kind == "measured" else 2 * n0.in_dim**2


def _owned_by(s, theta):
    """The owner array of a batch whose rows all belong to search s."""
    return np.full(len(theta), s)


def _one_direction(n0, n1, kind, alpha):
    """The input objective of D(N0||N1) as one search, on a plain batch of
    rows (B, P) -> (values, gradients), and its number of parameters."""
    objective = _input_objectives(n0, n1, kind, alpha, [False])
    return (lambda theta: objective((theta, _owned_by(0, theta)))), _npar(n0, kind)


def _gradient_pairs():
    rng = np.random.default_rng(23)
    return {
        "random_full_rank": (random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng)),
        "dephasing_rank2": (dephasing_channel(0.2), dephasing_channel(0.6)),
        "bernoulli_replacers": (bernoulli_replacer(0.2), bernoulli_replacer(0.8)),
    }


@pytest.mark.parametrize("pair", ["random_full_rank", "dephasing_rank2", "bernoulli_replacers"])
@pytest.mark.parametrize("kind,alpha", [("relative", None), ("renyi", 1.5), ("renyi", 2.0), ("measured", None)])
def test_input_objective_gradient_matches_central_differences(pair, kind, alpha, assert_gradient_matches):
    n0, n1 = _gradient_pairs()[pair]
    objective, npar = _one_direction(n0, n1, kind, alpha)
    rng = np.random.default_rng(29)
    for _ in range(2):
        assert_gradient_matches(objective, 0.5 * rng.standard_normal(npar))


@pytest.mark.parametrize("flip", [False, True])
def test_measured_rows_take_the_best_input_in_closed_form(flip):
    """A measured row of the input search holds H alone, and its value is
    the variational value at the best unit input, 1 + lambda_max(M(H)) with
    M(H) = sum_k A0_k^dag H A0_k - sum_k A1_k^dag exp(H) A1_k (A0 on the
    channel read as "0", N1 for the rows of D(N1||N0)): checked against M
    built here from the Kraus operators and scipy's expm, and against the
    variational value at 50 random unit inputs."""
    from scipy.linalg import expm

    rng = np.random.default_rng(97)
    n0, n1 = random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng)
    lifted = [[np.kron(np.eye(2), k) for k in ch.kraus] for ch in ((n1, n0) if flip else (n0, n1))]
    theta = rng.standard_normal((6, 16))
    values = _input_objectives(n0, n1, "measured", None, [flip])((theta, _owned_by(0, theta)))[0]
    psis = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    for row, value in zip(theta, values):
        h = params_to_hermitian(row, 4)
        e = expm(h)
        m = sum(a.conj().T @ h @ a for a in lifted[0]) - sum(a.conj().T @ e @ a for a in lifted[1])
        tol = 1e-12 * max(1.0, abs(value))
        assert abs(value - (1.0 + np.linalg.eigvalsh(m)[-1])) <= tol
        for psi in psis:
            s0, s1 = (sum(a @ np.outer(psi, psi.conj()) @ a.conj().T for a in ks) for ks in lifted)
            assert np.trace(s0 @ h).real + 1.0 - np.trace(s1 @ e).real <= value + tol


def _one_start_cases():
    """(n0, n1, l): seeded random qubit and qutrit pairs, whose brackets
    stay open, and a random qubit pair's l = 2 blocks."""
    rng = np.random.default_rng(2027)
    cases = [pytest.param(random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng), 1, id=f"qubit{i}")
             for i in range(3)]
    cases += [pytest.param(random_channel(3, 3, rng=rng), random_channel(3, 3, rng=rng), 1, id=f"qutrit{i}")
              for i in range(2)]
    return cases + [pytest.param(random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng), 2, id="qubit-blocks")]


@pytest.mark.parametrize("n0,n1,l", _one_start_cases())
def test_one_start_reaches_the_optimum(n0, n1, l, caplog):
    """The relative and Renyi-1.5 values, searched from the maximally
    entangled input alone, are at least the best of 8 random starts of the
    same objective (run through multistart_maximize at 400 iterations), in
    both directions, within 10 ROUNDING_TOL max(1, |value|) per use: their
    objective is concave in the input marginal.  The margin is rounding:
    on qutrit1 the Renyi value of the reported input reads 3.4e-12
    relative higher in the search objective than certified, the 8 starts
    stop 2.7e-12 relative apart, and the value lies 4.8e-12 relative under
    their best (the four-start search read 2.4e-12).  Started at the
    product input |00> instead, a search never leaves the product inputs
    and reads far below."""
    b0, b1 = tensor_power_channel(n0, l), tensor_power_channel(n1, l)
    rng = np.random.default_rng(5)
    for kind, alpha in (("relative", None), ("renyi", 1.5)):
        with caplog.at_level(logging.DEBUG, logger="chandisc.optimize"):
            pair = channel_divergence_pair(n0, n1, kind=kind, alpha=alpha, cfg=CFG, l=l)
        # one search per direction, each from the maximally entangled input alone
        assert [r.multistart["starts"] for r in caplog.records] == [1, 1], kind
        caplog.clear()
        starts = list(rng.standard_normal((8, 2 * b0.in_dim**2)))
        found = multistart_maximize(_input_objectives(b0, b1, kind, alpha, [False, True]), [starts, starts], 400)
        for dv, (_, best) in zip(pair, found):
            assert dv.warnings == [] and dv.value >= best / l - 10 * ROUNDING_TOL * max(1.0, abs(dv.value)), (
                kind, dv.value, best / l)


def test_open_searches_stop_at_the_rounding_floor(caplog):
    """On a seeded random qubit pair at the region chain's budget (4 starts,
    100 iterations), each search of a pair run stays within a bound of
    batched objective calls: the relative and Renyi input searches, the
    measured one over H alone and the measured certifier's variational
    programs.  The relative and Renyi searches run one start, the maximally
    entangled input; the measured one runs CFG.restarts, and each of its
    certifier programs one start, the search's winning H.  They read 13
    and 9, 10 and 10, 20 and 22, 3 and 3 (certifier programs started cold
    from log sigma0 - log sigma1 and H = 0, 30 and 31; with four starts
    each, 13 and 11, 13 and 10; with ftol = 1e-15 and the joint (psi, H)
    measured search, 43 and 47, 23 and 30, 97 and 93, 46 and 35)."""
    rng = np.random.default_rng(11)
    n0, n1 = random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng)
    # (kind, alpha): the bound of each input search, and of each variational program
    bounds = {("relative", None): (15, None), ("renyi", 1.5): (15, None), ("measured", None): (25, 5)}
    for (kind, alpha), (search_bound, program_bound) in bounds.items():
        with caplog.at_level(logging.DEBUG, logger="chandisc.optimize"):
            channel_divergence_pair(n0, n1, kind=kind, alpha=alpha, cfg=CFG)
        stats = [r.multistart for r in caplog.records]
        caplog.clear()
        # both searches log first, then the programs, one warm start each
        starts = CFG.restarts if kind == "measured" else 1
        assert [s["starts"] for s in stats] == [starts] * 2 + ([1] * 2 if program_bound else []), (kind, stats)
        searches = [s["batched_calls"] for s in stats[:2]]
        programs = [s["batched_calls"] for s in stats[2:]]
        assert max(searches) <= search_bound, (kind, searches)
        assert not programs or max(programs) <= program_bound, (kind, programs)


# float.hex of (value, upper end) of each direction, (D(N0||N1), D(N1||N0)),
# on the pair of test_open_searches_stop_at_the_rounding_floor, whose
# brackets stay open: every value below comes from an input search.
SEARCHED_BITS = {
    ("relative", None): [("0x1.f9d32f3721400p-1", "0x1.8347ae75832dbp+0"),
                         ("0x1.ae806783a5e5ap-1", "0x1.46b4e1b6d1dfap+0")],
    ("measured", None): [("0x1.c7544f0a712d3p-1", "0x1.8347ae75832dbp+0"),
                         ("0x1.876c03f17e8e6p-1", "0x1.46b4e1b6d1dfap+0")],
    ("renyi", 1.5): [("0x1.8b02e5d4b28f8p+0", "0x1.081bd2945eaa1p+1"),
                     ("0x1.2ee93d848cad5p+0", "0x1.9a9a65f2f3edap+0")],
    "block l=2 relative, per use": [("0x1.fafc8541803e6p-1", "0x1.8347ae7583319p+0"),
                                    ("0x1.aee9062f9d3c9p-1", "0x1.46b4e1b6d1e08p+0")],
}


def test_open_searches_keep_their_bits():
    """The searched values and upper ends of a random qubit pair, in both
    directions, bit for bit: channel_divergence_pair of the relative,
    measured and Renyi-1.5 kinds, and of the relative kind per use at
    l = 2, at 4 starts and 100 iterations.  The relative and Renyi
    searches run from the maximally entangled input alone; both measured
    searches of a pair start from the same seeded draws, and padding the
    second from another generator state moves its values."""
    rng = np.random.default_rng(11)
    n0, n1 = random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng)
    got = {(kind, alpha): [(dv.value.hex(), dv.upper.hex())
                           for dv in channel_divergence_pair(n0, n1, kind=kind, alpha=alpha, cfg=CFG)]
           for kind, alpha in (("relative", None), ("measured", None), ("renyi", 1.5))}
    got["block l=2 relative, per use"] = [(est.value.hex(), est.upper.hex())
                                          for est in channel_divergence_pair(n0, n1, kind="relative", cfg=CFG, l=2)]
    assert got == SEARCHED_BITS


def _assert_batch_size_independent(objective, x):
    """objective(X)[i] equals objective(X[i:i+1]) bit for bit, value and
    gradient: what makes the lockstep iterates equal the sequential ones."""
    f, g = objective(x)
    for i in range(len(x)):
        fi, gi = objective(x[i : i + 1])
        assert np.array_equal(f[i : i + 1], fi) and np.array_equal(g[i : i + 1], gi)


def _check_batched_objectives(n0, n1, l, rng):
    if l > 1:
        n0, n1 = tensor_power_channel(n0, l), tensor_power_channel(n1, l)
    for kind, alpha in [("relative", None), ("renyi", 1.5), ("renyi", 2.0), ("measured", None)]:
        objective, npar = _one_direction(n0, n1, kind, alpha)
        _assert_batch_size_independent(objective, 0.5 * rng.standard_normal((4, npar)))
    psi = rng.standard_normal(n0.in_dim**2) + 1j * rng.standard_normal(n0.in_dim**2)
    psi /= np.linalg.norm(psi)
    s0, s1 = _apply_to_pure(n0, psi), _apply_to_pure(n1, psi)
    m = s0.shape[0]
    _assert_batch_size_independent(lambda t: _variational_terms(t, s0, s1)[:2], rng.standard_normal((4, m * m)))
    # the state-level formulas on a stack of output pairs
    outs = [(_apply_to_pure(n0, p), _apply_to_pure(n1, p)) for p in rng.standard_normal((3, n0.in_dim**2))]
    stack0, stack1 = np.stack([a for a, _ in outs]), np.stack([b for _, b in outs])
    for terms in (_relative_terms, lambda a, b: _renyi_terms(a, b, 1.5)):
        whole = terms(stack0, stack1)
        for i in range(3):
            one = terms(stack0[i : i + 1], stack1[i : i + 1])
            assert all(np.array_equal(w[i : i + 1], o) for w, o in zip(whole, one))


@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("pair", ["random_full_rank", "dephasing_rank2", "bernoulli_replacers"])
def test_batched_objectives_are_batch_size_independent_on_zoo(pair, l):
    n0, n1 = _gradient_pairs()[pair]
    _check_batched_objectives(n0, n1, l, np.random.default_rng(47))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), l=st.sampled_from([1, 2]))
def test_batched_objectives_are_batch_size_independent_on_random_pairs(seed, l):
    rng = np.random.default_rng(seed)
    n0, n1 = random_channel(2, 2, 3, rng), random_channel(2, 2, 3, rng)
    _check_batched_objectives(n0, n1, l, rng)


def _assert_rows_equal(got, *want):
    """The (values, gradients) of a flat batch equal those of the given
    batches, stacked in order, bit for bit."""
    f, g = got
    assert np.array_equal(f, np.concatenate([w[0] for w in want]))
    assert np.array_equal(g, np.concatenate([w[1] for w in want]))


def _check_two_direction_rows(n0, n1, l, rng):
    """Every row of a batch that carries both directions equals the row of
    the one-direction objective, for the input objectives of every kind and
    for the variational objective with states per row."""
    if l > 1:
        n0, n1 = tensor_power_channel(n0, l), tensor_power_channel(n1, l)
    for kind, alpha in [("relative", None), ("renyi", 1.5), ("renyi", 2.0), ("measured", None)]:
        both, npar = _input_objectives(n0, n1, kind, alpha, [False, True]), _npar(n0, kind)
        x, y = 0.5 * rng.standard_normal((3, npar)), 0.5 * rng.standard_normal((2, npar))
        forward, backward = _one_direction(n0, n1, kind, alpha)[0], _one_direction(n1, n0, kind, alpha)[0]
        owner = np.repeat([0, 1], [len(x), len(y)])
        _assert_rows_equal(both((np.concatenate([x, y]), owner)), forward(x), backward(y))
        _assert_rows_equal(both((y, _owned_by(1, y))), backward(y))
        _assert_rows_equal(_input_objectives(n0, n1, kind, alpha, [True])((y, _owned_by(0, y))), backward(y))
    psi = rng.standard_normal(n0.in_dim**2) + 1j * rng.standard_normal(n0.in_dim**2)
    s0, s1 = _apply_to_pure(n0, psi / np.linalg.norm(psi)), _apply_to_pure(n1, psi / np.linalg.norm(psi))
    m = s0.shape[0]
    x, y = rng.standard_normal((3, m * m)), rng.standard_normal((2, m * m))
    owner = np.repeat([0, 1], [len(x), len(y)])
    got = _variational_terms(np.concatenate([x, y]), np.stack([s0, s1])[owner], np.stack([s1, s0])[owner])[:2]
    _assert_rows_equal(got, _variational_terms(x, s0, s1)[:2], _variational_terms(y, s1, s0)[:2])


def _assert_rows_alone(objective, x, owner):
    """objective((x, owner))'s row i equals objective on row i alone, bit
    for bit, value and gradient."""
    f, g = objective((x, owner))
    for i in range(len(x)):
        fi, gi = objective((x[i : i + 1], owner[i : i + 1]))
        assert np.array_equal(f[i : i + 1], fi) and np.array_equal(g[i : i + 1], gi)


def _variational_objective(rho0, rho1):
    """The objective that variational_measured hands multistart_maximize
    for the state pairs rho0, rho1 (k, d, d), one search per pair."""
    captured = []

    def lockstep(objective, searches, max_iters):
        captured.append(objective)
        return [(starts[0], 0.0) for starts in searches]

    with mock.patch.object(optimize, "_lockstep", lockstep):
        variational_measured(rho0, rho1, [[np.zeros(rho0.shape[-1] ** 2)]] * len(rho0))
    return captured[0]


@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("pair", ["random_full_rank", "dephasing_rank2", "bernoulli_replacers"])
def test_interleaved_rows_equal_row_by_row_calls(pair, l):
    """Rows stay independent under the flat batch: a batch whose owner
    entries interleave the searches, not grouped by search, equals
    row-by-row calls bit for bit.  Checked for the input objectives of
    every kind in both directions, and for the variational objective with
    one state pair per row, so multistart_maximize may order its rows freely."""
    n0, n1 = _gradient_pairs()[pair]
    if l > 1:
        n0, n1 = tensor_power_channel(n0, l), tensor_power_channel(n1, l)
    rng = np.random.default_rng(83)
    owner = np.array([1, 0, 0, 1, 0, 1, 1])
    for kind, alpha in [("relative", None), ("renyi", 1.5), ("renyi", 2.0), ("measured", None)]:
        for flips in ([False, True], [True, False]):
            x = 0.5 * rng.standard_normal((len(owner), _npar(n0, kind)))
            _assert_rows_alone(_input_objectives(n0, n1, kind, alpha, flips), x, owner)
    psis = rng.standard_normal((5, n0.in_dim**2)) + 1j * rng.standard_normal((5, n0.in_dim**2))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    rho0, rho1 = (np.stack([_apply_to_pure(ch, p) for p in psis]) for ch in (n0, n1))
    m = rho0.shape[-1]
    _assert_rows_alone(_variational_objective(rho0, rho1), rng.standard_normal((5, m * m)), np.array([3, 0, 4, 1, 2]))


@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("pair", ["random_full_rank", "dephasing_rank2", "bernoulli_replacers"])
def test_two_direction_rows_equal_one_direction_rows_on_zoo(pair, l):
    n0, n1 = _gradient_pairs()[pair]
    _check_two_direction_rows(n0, n1, l, np.random.default_rng(71))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), l=st.sampled_from([1, 2]))
def test_two_direction_rows_equal_one_direction_rows_on_random_pairs(seed, l):
    rng = np.random.default_rng(seed)
    n0, n1 = random_channel(2, 2, 3, rng), random_channel(2, 2, 3, rng)
    _check_two_direction_rows(n0, n1, l, rng)


def _same_value(a, b):
    """Two DivergenceValues agree bit for bit, witness input and POVM
    included."""
    assert (a.value, a.is_lower_bound, a.is_finite, a.warnings) == (b.value, b.is_lower_bound, b.is_finite, b.warnings)
    if a.witness is None:
        assert b.witness is None
        return
    assert np.array_equal(a.witness.input_vector, b.witness.input_vector)
    effects = [[] if w.povm is None else w.povm.effects for w in (a.witness, b.witness)]
    assert len(effects[0]) == len(effects[1]) and all(map(np.array_equal, *effects))


def _records(caplog) -> list[str]:
    """The multistart DEBUG records, as a sorted list: a pair run logs each
    search's record, in another order than two one-direction runs."""
    out = sorted(repr(r.multistart) for r in caplog.records)
    caplog.clear()
    return out


@pytest.mark.parametrize("pair", ["bernoulli", "depolarizing"])
def test_measured_pair_equals_two_one_direction_runs(pair, caplog):
    """build_sprt's pairs under the default config: both values, witnesses
    and the DEBUG record of every search equal those of the two directions
    run one after the other."""
    n0, n1 = {
        "bernoulli": (bernoulli_replacer(0.2), bernoulli_replacer(0.8)),
        "depolarizing": (depolarizing_channel(0.3), depolarizing_channel(0.7)),
    }[pair]
    with caplog.at_level(logging.DEBUG, logger="chandisc.optimize"):
        both = channel_divergence_pair(n0, n1, kind="measured")
        together = _records(caplog)
        alone = (channel_divergence(n0, n1, kind="measured"), channel_divergence(n1, n0, kind="measured"))
        separate = _records(caplog)
    # input search and variational program of each direction
    assert together == separate and len(together) == 4
    for a, b in zip(both, alone):
        _same_value(a, b)


def test_every_kind_of_pair_equals_two_one_direction_runs():
    rng = np.random.default_rng(73)
    pairs = [
        (random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng)),
        (depolarizing_channel(0.5), identity_channel(2)),  # D(dep||id) is infinite, D(id||dep) is not
    ]
    for n0, n1 in pairs:
        for kind, alpha in (("relative", None), ("renyi", 1.5), ("max", None), ("measured", None)):
            both = channel_divergence_pair(n0, n1, kind=kind, alpha=alpha, cfg=PROPERTY_CFG)
            for a, (x, y) in zip(both, ((n0, n1), (n1, n0))):
                _same_value(a, channel_divergence(x, y, kind=kind, alpha=alpha, cfg=PROPERTY_CFG))
        short = OptimizerConfig(restarts=2, max_iters=20)
        est = channel_divergence_pair(n0, n1, kind="renyi", alpha=2.0, cfg=short, l=2)
        for a, (x, y) in zip(est, ((n0, n1), (n1, n0))):
            _same_value(a, channel_divergence(x, y, kind="renyi", alpha=2.0, cfg=short, l=2))
    assert not channel_divergence_pair(*pairs[1], kind="relative")[0].is_finite


def test_apply_to_pure_matches_kraus_sum():
    rng = np.random.default_rng(37)
    ch = random_channel(2, 3, 2, rng)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    ref = sum(np.outer(v, v.conj()) for v in (np.kron(np.eye(2), k) @ psi for k in ch.kraus))
    assert np.allclose(_apply_to_pure(ch, psi), ref, atol=1e-14)


def test_nearly_rank_deficient_outputs_stay_finite():
    """Outputs whose smallest eigenvalues lie between 1e-15 and 1e-9 keep
    the finite divergences of their neighbours on both sides."""
    rng = np.random.default_rng(6335)
    n0, n1 = random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng)
    for s in (0.0, 1e-9, 1e-7, 1e-6, 1e-5, 1e-4):
        psi = np.array([math.sqrt(1.0 - s * s), 0.0, 0.0, s])
        s0 = DensityMatrix(_apply_to_pure(n0, psi))
        s1 = DensityMatrix(_apply_to_pure(n1, psi))
        assert rel_entropy_states(s0, s1).value == pytest.approx(0.974839, abs=1e-6), s
        assert measured_rel_entropy_states(s0, s1).value == pytest.approx(0.831486, abs=1e-6), s


PROPERTY_CFG = OptimizerConfig(restarts=2, max_iters=60)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=6335)  # the measured optimum sits on the product boundary
def test_channel_divergence_bounds_and_witnesses(seed):
    """Relative and Renyi values lie between their value at the maximally
    entangled input and the Choi D_max; every witness re-evaluates to the
    reported value."""
    rng = np.random.default_rng(seed)
    n0, n1 = random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng)
    j0, j1 = n0.choi_state(), n1.choi_state()
    d_max = max_div_states(j0, j1).value
    tol = PROPERTY_CFG.cross_check_tol
    for kind, alpha in (("relative", None), ("renyi", 1.5), ("renyi", 2.0), ("measured", None), ("max", None)):
        dv = channel_divergence(n0, n1, kind=kind, alpha=alpha, cfg=PROPERTY_CFG)
        psi = dv.witness.input_vector
        s0 = DensityMatrix(_apply_to_pure(n0, psi))
        s1 = DensityMatrix(_apply_to_pure(n1, psi))
        if kind == "relative":
            floor, again = rel_entropy_states(j0, j1).value, rel_entropy_states(s0, s1).value
        elif kind == "renyi":
            floor = sandwiched_renyi_states(j0, j1, alpha).value
            again = sandwiched_renyi_states(s0, s1, alpha).value
        elif kind == "measured":
            floor = 0.0
            p0 = outcome_distribution(n0, pure_state(psi), 2, dv.witness.povm)
            p1 = outcome_distribution(n1, pure_state(psi), 2, dv.witness.povm)
            again = kl_divergence(p0, p1)
        else:
            floor, again = d_max, max_div_states(s0, s1).value
        assert floor - 1e-9 <= dv.value <= d_max + 1e-9, (kind, alpha, floor, dv.value, d_max)
        assert abs(again - dv.value) <= tol, (kind, alpha, again, dv.value)


def _strict_laws(ch, psi: np.ndarray, povm) -> np.ndarray:
    """Outcome law of povm on (id (x) ch)(|psi><psi|), the output built
    from Kronecker products instead of the library's channel map; negative
    rounding is clipped to 0."""
    rho = np.outer(psi, psi.conj())
    lifted = [np.kron(np.eye(psi.size // k.shape[1]), k) for k in ch.kraus]
    out = sum(a @ rho @ a.conj().T for a in lifted)
    p = np.array([float(np.trace(out @ e).real) for e in povm.effects])
    return np.clip(p, 0.0, None) / p.sum()


def _strict_kl(p: np.ndarray, q: np.ndarray) -> float:
    """KL counting every outcome with p > 0: inf where q reads 0 there."""
    keep = p > 0
    with np.errstate(divide="ignore"):
        return float(np.sum(p[keep] * np.log(p[keep] / q[keep])))


def _witness_pairs():
    rng = np.random.default_rng(5)
    # the 5th pair's witness put 6.9e-18 under N0 on an outcome where N1 reads 0
    randoms = [(random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng)) for _ in range(5)]
    zoo = [
        (depolarizing_channel(0.3), depolarizing_channel(0.7)),
        (dephasing_channel(0.2), dephasing_channel(0.6)),
        (bernoulli_replacer(0.2), bernoulli_replacer(0.8)),
        (amplitude_damping_channel(0.2), amplitude_damping_channel(0.6)),
        (identity_channel(2), depolarizing_channel(0.5)),
    ]
    return [(pair, CFG) for pair in zoo + randoms] + [(pair, OptimizerConfig()) for pair in zoo[1:3]]


def _assert_strict_reevaluation(n0, n1, psi, dv, tol):
    """dv's witness PVM, measured on the outputs of n0 and n1 at psi, gives
    dv.value within tol under _strict_kl, and lists its outcomes by
    ascending increment log p0 - log p1."""
    p0, p1 = (_strict_laws(ch, psi, dv.witness.povm) for ch in (n0, n1))
    again = _strict_kl(p0, p1)
    assert abs(again - dv.value) <= tol, (n0.label, n1.label, again, dv.value)
    live = (p0 > 1e-12) & (p1 > 1e-12)
    increments = np.log(p0[live]) - np.log(p1[live])
    assert np.all(np.diff(increments) >= -1e-9), increments


def test_measured_channel_witnesses_reevaluate_under_strict_kl():
    """Every finite measured channel value re-evaluates within
    cross_check_tol from its witness under a KL that counts every outcome
    of positive probability, and the witness lists its outcomes by
    ascending increment log p0 - log p1.  So does the state-level value on
    the outputs of the 5th random pair at its witness input."""
    finite = 0
    for (n0, n1), cfg in _witness_pairs():
        for dv, (a, b) in zip(channel_divergence_pair(n0, n1, kind="measured", cfg=cfg), ((n0, n1), (n1, n0))):
            if dv.is_finite:
                finite += 1
                _assert_strict_reevaluation(a, b, dv.witness.input_vector, dv, cfg.cross_check_tol)
    assert finite >= 20
    (n0, n1), cfg = _witness_pairs()[9]
    psi = channel_divergence(n0, n1, kind="measured", cfg=cfg).witness.input_vector
    dv = measured_rel_entropy_states(*(DensityMatrix(_apply_to_pure(ch, psi)) for ch in (n0, n1)), cfg)
    _assert_strict_reevaluation(n0, n1, psi, dv, cfg.cross_check_tol)


def test_measured_channel_values_carry_the_cross_check_notes(certifier_witnesses):
    """A channel value lists the note of its certifier's cross-check: at a
    cross_check_tol of a third of the gap that the value's own certifier
    reads on the witness outputs, the note fires and reaches
    DivergenceValue.warnings, and the value stays the same."""
    (n0, n1), cfg = _witness_pairs()[5]
    dv = channel_divergence(n0, n1, kind="measured", cfg=cfg)
    (w,) = certifier_witnesses
    gap = abs(w.variational_value - w.pvm_value)
    assert gap > 0 and dv.warnings == []
    with pytest.warns(ConvergenceWarning):
        noted = channel_divergence(n0, n1, kind="measured", cfg=replace(cfg, cross_check_tol=gap / 3))
    assert noted.value == dv.value
    assert noted.warnings == [f"estimators disagree by {gap:.2e}"]


def test_the_cross_check_fails_only_a_program_above_its_witness(monkeypatch):
    """The measured cross-check raises only where the variational value
    exceeds the witness PVM's KL by more than 10 cross_check_tol: with
    basis_witness lowered by 11 tolerances it raises.  Raised by as much,
    the KL is reported with a note: in omega's eigenbasis the classical
    variational formula gives KL >= the program's value, so a KL above it
    only shows a program that stopped short, and the KL is still a lower
    bound.  Both used to raise."""
    rng = np.random.default_rng(3)
    rho0, rho1 = random_density_matrix(3, rng), random_density_matrix(3, rng)
    cfg = OptimizerConfig()
    real = divergences.basis_witness

    def shifted(shift):
        def witness(*args):
            value, povm = real(*args)
            return value + shift, povm

        return witness

    monkeypatch.setattr(divergences, "basis_witness", shifted(-11 * cfg.cross_check_tol))
    with pytest.raises(OptimizerFailure, match="estimators disagree: variational"):
        measured_rel_entropy_states(rho0, rho1, cfg)
    monkeypatch.setattr(divergences, "basis_witness", shifted(11 * cfg.cross_check_tol))
    with pytest.warns(ConvergenceWarning):
        dv = measured_rel_entropy_states(rho0, rho1, cfg)
    w = dv.witness
    assert dv.value == w.pvm_value > w.variational_value + 10 * cfg.cross_check_tol
    assert dv.warnings == [f"estimators disagree by {w.pvm_value - w.variational_value:.2e}"]


def _supported_state_pair(kind: int, d: int, rank: int, rng) -> tuple[DensityMatrix, DensityMatrix]:
    """A zoo Choi pair (kind 0) or a random pair whose rho1 has the given
    rank and whose rho0 lies in its support (kind 1)."""
    if kind == 0:
        zoo = [(depolarizing_channel(0.3), depolarizing_channel(0.7)), (dephasing_channel(0.2), dephasing_channel(0.6)),
               (bernoulli_replacer(0.2), bernoulli_replacer(0.8)), (identity_channel(2), depolarizing_channel(0.5))]
        a, b = zoo[rank % len(zoo)]
        return a.choi_state(), b.choi_state()
    rank = min(rank, d)
    g1 = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    g0 = g1 @ (rng.standard_normal((rank, d)) + 1j * rng.standard_normal((rank, d)))
    return tuple(DensityMatrix(m / np.trace(m).real) for m in (g0 @ g0.conj().T, g1 @ g1.conj().T))


def _sampled_pvm_kls(rho0: np.ndarray, rho1: np.ndarray, rng) -> np.ndarray:
    """KL of the outcome laws of many rank-one PVMs, computed without the
    library's basis code.  On a qubit: the PVMs {(I + n.s)/2, (I - n.s)/2}
    for the Bloch directions n of a 181 x 360 polar grid, with the laws
    read off the Bloch vectors.  At d = 3 and 4: 2000 Haar-random bases,
    the phase-fixed Q factors of complex Ginibre matrices."""
    d = rho0.shape[0]
    if d == 2:
        theta, phi = np.meshgrid(np.linspace(0.0, np.pi, 181), np.linspace(0.0, 2 * np.pi, 360, endpoint=False))
        n = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1).reshape(-1, 3)
        laws = []
        for rho in (rho0, rho1):
            bloch = np.array([2 * rho[0, 1].real, -2 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real])
            laws.append(np.stack([(1 + n @ bloch) / 2, (1 - n @ bloch) / 2], axis=-1))
    else:
        q, r = np.linalg.qr(rng.standard_normal((2000, d, d)) + 1j * rng.standard_normal((2000, d, d)))
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        bases = q * (diag / np.abs(diag))[:, None, :]
        laws = [np.einsum("kai,ab,kbi->ki", bases.conj(), rho, bases).real for rho in (rho0, rho1)]
    p, q = (np.clip(law, 0.0, None) for law in laws)
    p, q = p / p.sum(axis=-1, keepdims=True), q / q.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sum(np.where(p > 0, p * np.log(p / q), 0.0), axis=-1)


@settings(max_examples=60, deadline=None)
@given(kind=st.integers(0, 1), d=st.integers(2, 4), rank=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_no_sampled_rank_one_pvm_beats_the_certified_measured_value(kind, d, rank, seed):
    """On supported state pairs no rank-one PVM of a dense sample (a
    Bloch-sphere grid on qubits, Haar-random bases at d = 3 and 4) has a KL
    above the value the measured witness PVM certifies by more than
    cross_check_tol: the candidate bases reach the optimum."""
    rng = np.random.default_rng(seed)
    rho0, rho1 = _supported_state_pair(kind, d, rank, rng)
    cfg = OptimizerConfig()
    dv = measured_rel_entropy_states(rho0, rho1, cfg)
    sampled = _sampled_pvm_kls(rho0.mat, rho1.mat, rng)
    assert dv.witness.pvm_value <= dv.value
    assert sampled.max() <= dv.witness.pvm_value + cfg.cross_check_tol, (sampled.max(), dv.witness.pvm_value)


def test_renyi_rejects_an_invalid_order_before_the_support_test():
    """An order outside (1, inf) raises even where every value would be
    infinite: amplitude damping(0.2) and (0.6) have disjoint Choi supports
    both ways."""
    n0, n1 = amplitude_damping_channel(0.2), amplitude_damping_channel(0.6)
    with pytest.raises(InvalidAlphaError):
        channel_divergence(n0, n1, kind="renyi", alpha=0.5)
    with pytest.raises(InvalidAlphaError):
        channel_divergence(n0, n1, kind="renyi", alpha=None, l=2)


def test_block_values_are_per_use_divergence_values():
    """A block value at l = 2 is the DivergenceValue of the tensor-power pair
    with its value and upper end divided by 2, bit for bit, and its labels
    kept: finite values of the searched kinds are lower bounds, the max kind
    is exact, and an infinite direction reads is_finite False."""
    n0, n1 = identity_channel(2), depolarizing_channel(0.5)
    b0, b1 = tensor_power_channel(n0, 2), tensor_power_channel(n1, 2)
    for kind, alpha in (("relative", None), ("measured", None), ("max", None), ("renyi", 1.5)):
        blocks = channel_divergence_pair(n0, n1, kind=kind, alpha=alpha, cfg=CFG, l=2)
        for est, dv in zip(blocks, channel_divergence_pair(b0, b1, kind=kind, alpha=alpha, cfg=CFG)):
            assert type(est) is DivergenceValue
            assert (est.value, est.upper) == (dv.value / 2, dv.upper / 2)
            assert (est.is_lower_bound, est.is_finite, est.warnings) == (dv.is_lower_bound, dv.is_finite, dv.warnings)
        assert blocks[0].is_finite and blocks[0].is_lower_bound == (kind != "max"), kind
        assert not blocks[1].is_finite and blocks[1].value == math.inf, kind


def test_block_values_keep_the_channel_value_warnings_and_upper_end(certifier_witnesses):
    """A block value at l = 2 lists the measured certifier's cross-check
    notes of the tensor-power pair's channel value, and its value and upper
    end are that value's divided by 2.  The note fires at a cross_check_tol
    of a third of the gap that the channel value's own certifier reads on
    the witness outputs."""
    (n0, n1), cfg = _witness_pairs()[5]
    b0, b1 = tensor_power_channel(n0, 2), tensor_power_channel(n1, 2)
    channel_divergence(b0, b1, kind="measured", cfg=cfg)
    (w,) = certifier_witnesses
    gap = abs(w.variational_value - w.pvm_value)
    assert gap > 0
    cfg = replace(cfg, cross_check_tol=gap / 3)
    with pytest.warns(ConvergenceWarning):
        dv = channel_divergence(b0, b1, kind="measured", cfg=cfg)
        est = channel_divergence(n0, n1, kind="measured", cfg=cfg, l=2)
    assert dv.warnings and est.warnings == dv.warnings
    assert (est.value, est.upper) == (dv.value / 2, dv.upper / 2)


BRACKET_KINDS = (("relative", None), ("measured", None), ("renyi", 1.1), ("renyi", 1.5), ("renyi", 2.0))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d_l=st.sampled_from([(2, 1), (3, 1), (2, 2)]))
def test_channel_values_lie_below_their_upper_ends(seed, d_l):
    """Every kind's per-use value on a random pair of full Kraus rank is at
    most its certified upper end, at d = 2 and 3 for l = 1 and d = 2 for
    l = 2; the max kind's upper end is its value."""
    d, l = d_l
    rng = np.random.default_rng(seed)
    n0, n1 = random_channel(d, d, d * d, rng), random_channel(d, d, d * d, rng)
    for kind, alpha in BRACKET_KINDS + (("renyi", 3.0), ("max", None)):
        for est in channel_divergence_pair(n0, n1, kind=kind, alpha=alpha, cfg=PROPERTY_CFG, l=l):
            assert est.value <= est.upper + 1e-12, (kind, alpha, est.value, est.upper)
            if kind == "max":
                assert est.upper == est.value


def _geometric_operator(rho: np.ndarray, sigma: np.ndarray, g) -> np.ndarray:
    """sigma^1/2 g(sigma^-1/2 rho sigma^-1/2) sigma^1/2 for a full-rank
    sigma; its trace is the geometric quasi-divergence of g: with
    g(x) = x log x the Belavkin-Staszewski divergence, with g(x) = x^alpha
    the trace whose log / (alpha - 1) is the geometric Renyi divergence."""
    w, v = np.linalg.eigh(sigma)
    root, inv_root = (v * w**0.5) @ v.conj().T, (v * w**-0.5) @ v.conj().T
    x = inv_root @ rho @ inv_root
    xw, xv = np.linalg.eigh(0.5 * (x + x.conj().T))
    return root @ ((xv * g(np.maximum(xw, 0.0))) @ xv.conj().T) @ root


ONE_START = OptimizerConfig(restarts=1, max_iters=1)

# (kind, alpha) -> (g, the value read off the trace of _geometric_operator)
GEOMETRIC_UPPER_ENDS = {
    ("relative", None): (lambda x: x * np.log(np.where(x > 0, x, 1.0)), lambda q: q),
    ("renyi", 1.5): (lambda x: x**1.5, lambda q: math.log(q) / 0.5),
    ("renyi", 2.0): (lambda x: x**2, lambda q: math.log(q)),
}


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d_l=st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]))
@example(seed=0, d_l=(2, 2))
@example(seed=0, d_l=(3, 2))
def test_channel_chain_bs_lies_below_the_max_divergence(seed, d_l):
    """The closed-form upper ends, D_BS(N0||N1) of the relative kind and the
    geometric Renyi divergence of the renyi kind at alpha = 1.5 and 2, lie
    just above the value of the outputs at an input that nearly attains
    them, and below the channel max-divergence, on random pairs at d = 2, 3
    for l = 1, 2.  With M = Tr_B of the Choi pair's _geometric_operator, the
    outputs at the input of reduced state rho_R on R have the trace d Tr[rho_R
    M]; rho_R = (1 - 1e-4) P + 1e-4 I / d, with P the top eigenprojector of
    M, reads within 1e-3 max(1, upper) of the upper end.  An upper end that
    is too large fails that gap even where it stays below D_max."""
    d, l = d_l
    rng = np.random.default_rng(seed)
    b0, b1 = (tensor_power_channel(random_channel(d, d, d * d, rng), l) for _ in range(2))
    dim = b0.in_dim
    d_max = channel_divergence(b0, b1, kind="max").value
    for (kind, alpha), (g, value) in GEOMETRIC_UPPER_ENDS.items():
        q = _geometric_operator(b0.choi_state().mat, b1.choi_state().mat, g)
        w, v = np.linalg.eigh(np.einsum("abcb->ac", q.reshape(dim, b0.out_dim, dim, b0.out_dim)))
        rho_r = (1 - 1e-4) * np.outer(v[:, -1], v[:, -1].conj()) + 1e-4 * np.eye(dim) / dim
        rw, rv = np.linalg.eigh(rho_r)
        psi = ((rv * np.sqrt(rw)) @ rv.conj().T).reshape(-1)
        outputs = (_apply_to_pure(b0, psi), _apply_to_pure(b1, psi))
        attained = value(float(np.trace(_geometric_operator(*outputs, g)).real))
        upper = channel_divergence(b0, b1, kind=kind, alpha=alpha, cfg=ONE_START).upper
        assert attained <= upper + 1e-7 * max(1.0, upper), (kind, alpha, attained, upper)
        assert upper - attained <= 1e-3 * max(1.0, upper), (kind, alpha, attained, upper)
        assert upper <= d_max + 1e-12 * max(1.0, d_max), (kind, alpha, upper, d_max)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]))
def test_bracket_values_are_invariant_under_ancilla_unitaries(seed, d):
    """The value of the outputs at (U_R (x) I)|Phi> equals the value at the
    maximally entangled |Phi> within 1e-12, for random unitaries U_R on the
    ancilla: relative, sandwiched Renyi (alpha = 1.5, 2), measured and max
    kinds, on random pairs at d = 2, 3."""
    rng = np.random.default_rng(seed)
    n0, n1 = random_channel(d, d, d * d, rng), random_channel(d, d, d * d, rng)
    phi = max_entangled_vector(d)
    values = []
    for psi in (phi, np.kron(random_unitary(d, rng), np.eye(d)) @ phi):
        s0, s1 = (DensityMatrix(_apply_to_pure(ch, psi)) for ch in (n0, n1))
        values.append([rel_entropy_states(s0, s1).value, sandwiched_renyi_states(s0, s1, 1.5).value,
                       sandwiched_renyi_states(s0, s1, 2.0).value, measured_rel_entropy_states(s0, s1, CFG).value,
                       max_div_states(s0, s1).value])
    for a, b in zip(*values):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), values


def test_closed_measured_brackets_compute_each_relative_value_once(monkeypatch):
    """A measured direction whose bracket closes hands the relative value at
    the maximally entangled input to the certifier as its upper end: one
    _relative_terms row per direction.  The state-level certifier computes
    its own."""
    rows = []
    real = divergences._relative_terms

    def counting(s0, s1, *spectra):
        rows.append(len(s0))
        return real(s0, s1, *spectra)

    monkeypatch.setattr(divergences, "_relative_terms", counting)
    channel_divergence_pair(depolarizing_channel(0.3), depolarizing_channel(0.7), kind="measured", cfg=CFG)
    assert sum(rows) == 2
    rows.clear()
    measured_rel_entropy_states(diag(0.2, 0.8), diag(0.6, 0.4), CFG)
    assert rows == [1]


def test_certified_values_take_no_decomposition_the_code_already_holds(eig_calls):
    """The state-level relative entropy reads both states' stored spectra
    and takes no eigendecomposition, and the sandwiched Renyi divergence
    takes one, its sandwich's.  The measured pair dep(0.3)/dep(0.7), whose
    brackets close, takes at most 9 on fresh channels (2 of them their Choi
    states) and 7 once the Choi states are cached, at l = 1 and at l = 2:
    its witness reads the log-ratio start's eigenbasis, which is also its
    omega's."""
    rng = np.random.default_rng(5)
    rho0, rho1 = random_density_matrix(3, rng), random_density_matrix(3, rng)
    eig_calls.clear()
    rel_entropy_states(rho0, rho1)
    assert eig_calls == []
    sandwiched_renyi_states(rho0, rho1, 1.5)
    assert eig_calls == ["eigh"]
    for l in (1, 2):
        n0, n1 = depolarizing_channel(0.3), depolarizing_channel(0.7)
        for most in (9, 7):
            eig_calls.clear()
            for dv in channel_divergence_pair(n0, n1, kind="measured", cfg=CFG, l=l):
                assert abs(dv.upper - dv.value) <= 1e-12, (l, dv)
            assert len(eig_calls) <= most, (l, eig_calls)


def test_state_measured_values_carry_their_relative_entropy_as_upper_end():
    """A finite state-level measured value carries its bracket's upper end,
    D(rho0||rho1), and lies at or below it under the rounding rule: on the
    output corpus's six pairs, and on leaking pairs, certified on rho1's
    support, where the upper end is D of the compressed pair.  An
    unsupported pair keeps an infinite value and upper end."""
    rng = np.random.default_rng(3)
    for i, d in enumerate((2, 2, 3, 3, 4, 4)):
        rho0, rho1 = random_density_matrix(d, rng, rank=d - i % 2), random_density_matrix(d, rng)
        dv = measured_rel_entropy_states(rho0, rho1, CFG)
        assert dv.upper == rel_entropy_states(rho0, rho1).value
        assert dv.value <= dv.upper + ROUNDING_TOL * max(1.0, dv.upper), (i, dv)
    for leaky, r1 in ((diag(1 - 1e-9, 1e-9), diag(1.0, 0.0)),
                      (diag(0.5, 0.5 - 1e-9, 1e-9), diag(0.25, 0.75, 0.0))):
        dv = measured_rel_entropy_states(leaky, r1, CFG)
        compressed = np.diag(np.diag(leaky.mat)[:-1].tolist() + [0.0])
        on_support = DensityMatrix(compressed / np.trace(compressed).real)
        assert dv.upper == rel_entropy_states(on_support, r1).value
        assert dv.value <= dv.upper + ROUNDING_TOL * max(1.0, dv.upper), dv
    dv = measured_rel_entropy_states(diag(0.5, 0.5), diag(1.0, 0.0), CFG)
    assert (dv.value, dv.upper) == (math.inf, math.inf)


@pytest.mark.parametrize("l", [1, 2])
def test_brackets_close_on_covariant_pairs(l):
    """On depolarizing, dephasing and Bernoulli-replacer pairs the value at
    the maximally entangled input meets the closed-form upper end, in both
    directions, for the relative, measured and Renyi (alpha <= 2) kinds."""
    zoo = [(depolarizing_channel(0.3), depolarizing_channel(0.7)), (dephasing_channel(0.2), dephasing_channel(0.6)),
           (bernoulli_replacer(0.2), bernoulli_replacer(0.8))]
    for n0, n1 in zoo:
        for kind, alpha in BRACKET_KINDS:
            for est in channel_divergence_pair(n0, n1, kind=kind, alpha=alpha, cfg=CFG, l=l):
                gap = est.upper - est.value
                assert abs(gap) <= 1e-12 and est.warnings == [], (n0.label, n1.label, kind, alpha, gap)


def test_renyi_upper_end_above_order_two_is_the_choi_max_divergence():
    rng = np.random.default_rng(1)
    pairs = [(depolarizing_channel(0.3), depolarizing_channel(0.7)),
             (random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng))]
    for n0, n1 in pairs:
        dv = channel_divergence(n0, n1, kind="renyi", alpha=3.0, cfg=PROPERTY_CFG)
        assert dv.upper == max_div_states(n0.choi_state(), n1.choi_state()).value
        assert dv.value < dv.upper - 0.1


def test_open_brackets_run_the_search_unchanged(monkeypatch, caplog):
    """On a random pair, whose brackets stay open, an upper end forced to
    inf changes no value, witness, warning or DEBUG record."""
    rng = np.random.default_rng(1)
    n0, n1 = random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng)

    def run():
        with caplog.at_level(logging.DEBUG, logger="chandisc.optimize"):
            values = [dv for kind, alpha in BRACKET_KINDS
                      for dv in channel_divergence_pair(n0, n1, kind=kind, alpha=alpha, cfg=CFG)]
        return values, _records(caplog)

    values, records = run()
    monkeypatch.setattr(divergences, "_channel_upper", lambda *args: math.inf)
    forced, forced_records = run()
    assert forced_records == records and "'starts': 0" not in "".join(records)
    for a, b in zip(values, forced):
        _same_value(a, b)
        assert math.isfinite(a.upper) and b.upper == math.inf


def test_closed_brackets_skip_the_input_search(monkeypatch, caplog):
    """dep(0.3)/dep(0.7) makes no input-search objective call, and each
    direction logs one record with its bracket; a random pair's search is
    still counted."""
    calls = []
    make = divergences._input_objectives

    def counting(*args):
        objective = make(*args)

        def counted(batch):
            calls.append(len(batch[0]))
            return objective(batch)

        return counted

    monkeypatch.setattr(divergences, "_input_objectives", counting)
    n0, n1 = depolarizing_channel(0.3), depolarizing_channel(0.7)
    for kind, alpha in BRACKET_KINDS:
        with caplog.at_level(logging.DEBUG, logger="chandisc.optimize"):
            both = channel_divergence_pair(n0, n1, kind=kind, alpha=alpha)
        skipped = [r.multistart for r in caplog.records
                   if r.multistart["starts"] == 0 and r.msg.startswith("input search skipped")]
        caplog.clear()
        brackets = [(dv.value, dv.upper, dv.upper - dv.value) for dv in both]
        assert [(s["lower"], s["upper"], s["gap"]) for s in skipped] == brackets
    assert calls == []
    rng = np.random.default_rng(1)
    channel_divergence(random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng), cfg=CFG)
    assert calls


def test_a_lower_end_above_the_upper_end_is_noted_and_searched(monkeypatch, caplog):
    """An upper end below the value at the maximally entangled input never
    closes the bracket: the search runs and the value notes the excess."""
    n0, n1 = depolarizing_channel(0.3), depolarizing_channel(0.7)
    monkeypatch.setattr(divergences, "_channel_upper", lambda *args: 0.1)
    with caplog.at_level(logging.DEBUG, logger="chandisc.optimize"):
        dv = channel_divergence(n0, n1, kind="relative", cfg=CFG)
    assert [r.multistart["starts"] for r in caplog.records] == [1]
    assert dv.warnings == [f"value at the {at} exceeds the upper end by {dv.value - 0.1:.2e}"
                           for at in ("maximally entangled input", "searched input")]


def _classical_channels(pair) -> tuple:
    return tuple(classical_channel(np.array(w)) for w in pair)


def test_a_searched_value_above_its_upper_end_is_noted(monkeypatch):
    """An upper end lowered by 1e-6 below the exact max_x KL of the
    pure-letter classical pair stays above the value at the maximally
    entangled input, so the relative kind's search runs, and its value,
    which meets the exact upper end, reads the margin above the lowered
    one: the value carries a note.  As shipped, it carries none."""
    n0, n1 = _classical_channels(([[0.5, 0.9], [0.5, 0.1]], [[0.02, 0.6], [0.98, 0.4]]))
    assert channel_divergence(n0, n1).warnings == []
    upper = divergences._channel_upper
    monkeypatch.setattr(divergences, "_channel_upper", lambda *args: upper(*args) - 1e-6)
    dv = channel_divergence(n0, n1)
    assert dv.value - dv.upper > 1e-12 * max(1.0, dv.upper)
    assert abs(dv.value - dv.upper - 1e-6) <= 1e-12, dv.value - dv.upper
    assert dv.warnings == [f"value at the searched input exceeds the upper end by {dv.value - dv.upper:.2e}"]


def test_classical_pairs_meet_their_closed_forms(classical_pair, classical_closed_forms):
    """D_M = D = D_BS = max_x KL(W0(x)||W1(x)) and D_max = max_x log max_y
    W0(y|x) / W1(y|x) on classical pairs, in both directions.  The upper ends
    of the relative and measured kinds, the max kind and the measured value
    meet them within 1e-12.  The relative value, at l = 1 and per use at
    l = 2, lies within 1e-12 max(1, KL) of its closed form and at or below
    its upper end under the rounding rule value <= upper + 1e-12 max(1,
    upper), with no note.  Searched from four starts, the pure-letter
    pair's relative value stopped 1.2e-9 relative below the exact value,
    under the measured value, and its l = 2 D(N1||N0) read 7.5e-9 per use
    above its upper end, with a note; from the maximally entangled input
    alone both meet it."""
    n0, n1 = _classical_channels(classical_pair)
    values = {kind: channel_divergence_pair(n0, n1, kind=kind) for kind in ("relative", "measured", "max")}
    blocks = channel_divergence_pair(n0, n1, kind="relative", l=2)
    w0, w1 = classical_pair
    for i, forms in enumerate((classical_closed_forms(w0, w1), classical_closed_forms(w1, w0))):
        kl, d_max = forms.corner[1], forms.d_max
        rel, meas, mx = (values[kind][i] for kind in ("relative", "measured", "max"))
        block = blocks[i]
        assert abs(block.value - kl) <= 1e-12 * max(1.0, kl), (i, block.value, kl)
        assert block.value <= block.upper + 1e-12 * max(1.0, block.upper) and block.warnings == [], (i, block)
        assert abs(rel.upper - kl) <= 1e-12 and abs(meas.upper - kl) <= 1e-12, (i, rel.upper, meas.upper, kl)
        assert abs(mx.value - d_max) <= 1e-12 and abs(meas.value - kl) <= 1e-12, (i, mx.value, meas.value)
        assert abs(rel.value - kl) <= 1e-12 * max(1.0, kl), (i, rel.value, kl)
        assert rel.value <= rel.upper + 1e-12 * max(1.0, rel.upper), (i, rel.value)
        assert rel.warnings == meas.warnings == [], (i, rel.warnings, meas.warnings)


def test_channel_values_are_plain_floats(classical_pair):
    """Every kind's channel values and their upper ends are plain floats,
    not numpy scalars; a measured value found by the input search was an
    np.float64."""
    n0, n1 = _classical_channels(classical_pair)
    for kind, alpha in (("relative", None), ("measured", None), ("max", None), ("renyi", 1.5)):
        values = channel_divergence_pair(n0, n1, kind=kind, alpha=alpha)
        assert [type(v) for b in values for v in (b.value, b.upper)] == 4 * [float], kind


def _full_space_max_div(rho0: DensityMatrix, rho1: DensityMatrix) -> float:
    """D_max from a full-space rho1^{-1/2} on supp rho1, one pair at a time:
    the reference the stacked sandwich keeps bit for bit."""
    w, v = rho1.spectrum
    inv_sqrt = (v * np.where(w > 1e-9, np.maximum(w, 1e-9) ** -0.5, 0.0)) @ v.conj().T
    m = inv_sqrt @ rho0.mat @ inv_sqrt
    return math.log(max(float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[-1]), 1e-300))


def _stack(pairs):
    """rho0 of each pair as a stack, and the stacked spectra of the rho1."""
    return np.stack([r0.mat for r0, _ in pairs]), tuple(np.stack(a) for a in zip(*(r1.spectrum for _, r1 in pairs)))


def test_sandwich_rows_equal_their_batches_of_one():
    """Each row of a stacked _sandwich (X and rho1^{1/2}) and of _max_divs
    equals its batch of one bit for bit, and D_max equals the full-space
    reference, on d = 3 pairs whose rho1 has rank 3, 2 or 1.  In a mixed
    stack an unsupported row reads inf and its neighbours are unchanged."""
    rng = np.random.default_rng(2)
    pairs = [_supported_state_pair(1, 3, rank, rng) for rank in (3, 2, 1, 3, 2)]
    s0, spectrum = _stack(pairs)
    x, root = _sandwich(s0, spectrum)
    for xi, ri, (r0, r1) in zip(x, root, pairs):
        want_x, want_root = _sandwich(r0.mat, r1.spectrum)
        assert np.array_equal(xi, want_x) and np.array_equal(ri, want_root)
    values = _max_divs(s0, spectrum).tolist()
    assert values == [max_div_states(*p).value for p in pairs] == [_full_space_max_div(*p) for p in pairs]
    unsupported = (random_density_matrix(3, rng), random_density_matrix(3, rng, rank=1))
    mixed = _max_divs(*_stack(pairs[:2] + [unsupported] + pairs[2:])).tolist()
    assert mixed == values[:2] + [math.inf] + values[2:]
    assert max_div_states(*unsupported).value == math.inf


@pytest.mark.parametrize("l", [1, 2])
def test_max_values_on_the_zoo_equal_the_full_space_reference(l, classical_pairs):
    """The max kind reads the full-space D_max of the Choi pair bit for bit
    on the zoo and classical pairs, and inf, flagged not finite, where a
    Choi support is not contained."""
    pairs = _covariant_zoo() + [(identity_channel(2), depolarizing_channel(0.5)),
                                (amplitude_damping_channel(0.2), amplitude_damping_channel(0.6))]
    for n0, n1 in pairs + [_classical_channels(p) for p in classical_pairs]:
        b0, b1 = tensor_power_channel(n0, l), tensor_power_channel(n1, l)
        dvs = channel_divergence_pair(b0, b1, kind="max")
        for dv, (a, b) in zip(dvs, ((b0, b1), (b1, b0))):
            want = _full_space_max_div(a.choi_state(), b.choi_state()) if dv.is_finite else math.inf
            assert dv.value == want, (n0.label, n1.label, l, dv.value, want)
            assert dv.is_finite == support_contained(a.choi_state().mat, b.choi_state().spectrum)


def _covariant_zoo():
    return [(depolarizing_channel(0.3), depolarizing_channel(0.7)), (dephasing_channel(0.2), dephasing_channel(0.6)),
            (bernoulli_replacer(0.2), bernoulli_replacer(0.8))]


def _count_programs(monkeypatch) -> list[int]:
    """The number of state pairs of every variational_measured call that
    the measured certifier makes from now on."""
    calls = []
    real = divergences.variational_measured

    def counting(rho0, rho1, starts):
        calls.append(len(rho0))
        return real(rho0, rho1, starts)

    monkeypatch.setattr(divergences, "variational_measured", counting)
    return calls


def _force_certifier_upper(monkeypatch, upper):
    """Replace the upper end of every bracket the measured certifier reads
    at its log-ratio start by upper(lower end); channel brackets keep
    theirs."""
    real = divergences._closes

    def forced(lower, up, notes, at=None):
        return real(lower, upper(lower), notes, at=at) if at else real(lower, up, notes)

    monkeypatch.setattr(divergences, "_closes", forced)


def test_closed_measured_brackets_skip_the_variational_program(monkeypatch, caplog):
    """On dep, dephasing and the replacers, at l = 1 and 2, the measured
    certifier's value at its log-ratio start meets D(rho0||rho1) in both
    directions: the variational program never runs and each pair logs one
    record with its bracket.  So does the state-level certifier on their
    Choi states.  A random pair still runs the program."""
    calls = _count_programs(monkeypatch)
    for n0, n1 in _covariant_zoo():
        for l in (1, 2):
            with caplog.at_level(logging.DEBUG, logger="chandisc.optimize"):
                channel_divergence_pair(n0, n1, kind="measured", cfg=CFG, l=l)
            skipped = [r.multistart for r in caplog.records if r.msg.startswith("variational program skipped")]
            caplog.clear()
            assert len(skipped) == 2, (n0.label, l)
            for s in skipped:
                assert s["starts"] == 0 and s["gap"] == s["upper"] - s["lower"]
                assert abs(s["gap"]) <= 1e-12 * max(1.0, s["upper"]), (n0.label, l, s)
        rho0, rho1 = n0.choi_state(), n1.choi_state()
        with caplog.at_level(logging.DEBUG, logger="chandisc.optimize"):
            dv = measured_rel_entropy_states(rho0, rho1, CFG)
        (s,) = [r.multistart for r in caplog.records]
        caplog.clear()
        assert (s["lower"], s["upper"]) == (dv.witness.variational_value, rel_entropy_states(rho0, rho1).value)
    assert calls == []
    rng = np.random.default_rng(1)
    channel_divergence_pair(random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng), kind="measured", cfg=CFG)
    assert calls and min(calls) >= 1


def _output_pairs() -> list[tuple[DensityMatrix, DensityMatrix]]:
    """Output pairs of the covariant zoo at the maximally entangled input,
    at l = 1 and 2, and of five random qubit pairs at random inputs."""
    pairs = []
    for n0, n1 in _covariant_zoo():
        for l in (1, 2):
            b0, b1 = tensor_power_channel(n0, l), tensor_power_channel(n1, l)
            psi = max_entangled_vector(b0.in_dim)
            pairs += [tuple(DensityMatrix(_apply_to_pure(ch, psi)) for ch in (b0, b1))]
    rng = np.random.default_rng(5)
    for _ in range(5):
        n0, n1 = random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        pairs += [tuple(DensityMatrix(_apply_to_pure(ch, psi / np.linalg.norm(psi))) for ch in (n0, n1))]
    return pairs + [pair[::-1] for pair in pairs]


def test_open_measured_brackets_run_the_program_unchanged(monkeypatch, caplog):
    """With the certifier's upper end forced to inf, every measured value
    comes from the variational program's optimum: on the zoo and random
    output pairs, in both directions, the value, both estimates, the
    witness and the warnings equal those of variational_measured and
    basis_witness run on all pairs, on the candidates omega's eigenbasis,
    the log-ratio start's and the identity.  On a random
    channel pair, whose brackets stay open, forcing changes no value,
    witness, warning or DEBUG record."""
    rng = np.random.default_rng(1)
    n0, n1 = random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng)

    def run():
        with caplog.at_level(logging.DEBUG, logger="chandisc.optimize"):
            values = channel_divergence_pair(n0, n1, kind="measured", cfg=CFG)
        return values, _records(caplog)

    values, records = run()
    _force_certifier_upper(monkeypatch, lambda lower: math.inf)
    forced, forced_records = run()
    assert forced_records == records and "variational program skipped" not in "".join(records)
    for a, b in zip(values, forced):
        _same_value(a, b)

    for a, b in _output_pairs():
        r0, r1 = a.mat[None], b.mat[None]
        log_ratio = (_safe_log_state(a.spectrum) - _safe_log_state(b.spectrum))[None]
        start = hermitian_to_params(log_ratio[0])
        (var,), (omega_basis,) = variational_measured(r0, r1, [[start, np.zeros(log_ratio.size)]])
        log_basis = np.linalg.eigh(params_to_hermitian(start, a.dim))[1]
        pvm, povm = basis_witness(a.mat, b.mat, [omega_basis, log_basis, np.eye(a.dim, dtype=complex)])
        dv = measured_rel_entropy_states(a, b, CFG)
        assert (dv.value, dv.witness.variational_value, dv.witness.pvm_value, dv.warnings) == (
            max(var, pvm, 0.0), var, pvm, [])
        assert len(dv.witness.povm.effects) == len(povm.effects)
        assert all(map(np.array_equal, dv.witness.povm.effects, povm.effects))


def test_a_log_ratio_start_above_the_upper_end_is_noted_and_searched(monkeypatch):
    """An upper end below the value at the log-ratio start never closes the
    certifier's bracket: the variational program runs and the value notes
    the excess."""
    calls = _count_programs(monkeypatch)
    _force_certifier_upper(monkeypatch, lambda lower: lower - 0.1)
    n0, n1 = depolarizing_channel(0.3), depolarizing_channel(0.7)
    dv = measured_rel_entropy_states(n0.choi_state(), n1.choi_state(), CFG)
    assert calls == [1]
    assert dv.warnings == ["value at the log-ratio start exceeds the upper end by 1.00e-01"]


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 3), full=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_state_divergences_are_ordered(d, full, seed):
    """measured <= relative <= sandwiched Renyi at alpha = 1.1, 1.5, 2, 3
    <= max-divergence within 1e-12, on full-rank pairs and on pairs whose
    rho0 lies in the support of a rank-deficient rho1, at d = 2 and 3: the
    chain that the measured certifier's upper end rests on."""
    rng = np.random.default_rng(seed)
    rho0, rho1 = _supported_state_pair(1, d, d if full else int(rng.integers(1, d)), rng)
    chain = [measured_rel_entropy_states(rho0, rho1, CFG).value, rel_entropy_states(rho0, rho1).value]
    chain += [sandwiched_renyi_states(rho0, rho1, alpha).value for alpha in (1.1, 1.5, 2.0, 3.0)]
    chain.append(max_div_states(rho0, rho1).value)
    for a, b in zip(chain, chain[1:]):
        assert a <= b + 1e-12 * max(1.0, abs(b)), chain


def test_rel_entropy_rejects_mismatched_dimensions():
    with pytest.raises(DimensionMismatchError, match="mismatched dimensions"):
        rel_entropy_states(diag(0.5, 0.5), diag(0.25, 0.25, 0.25, 0.25))
