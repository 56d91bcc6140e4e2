import math

import numpy as np
import pytest

from chandisc import divergences
from chandisc.divergences import channel_divergence, channel_divergence_pair
from chandisc.errors import (
    InfiniteDivergenceError,
    SupportMismatchError,
    TauTooLargeError,
)
from chandisc.optimize import OptimizerConfig, kl_divergence
from chandisc.quantum import (
    amplitude_damping_channel,
    basis_pvm,
    bernoulli_replacer,
    classical_channel,
    depolarizing_channel,
    identity_channel,
    pure_state,
    random_channel,
)
from chandisc import strategies
from chandisc.strategies import (
    DECISION_H0,
    DECISION_H1,
    Arm,
    SprtStrategy,
    StrategyTrace,
    arm_laws,
    build_non_adaptive,
    build_sprt,
    outcome_cdf,
    rate_pair,
    sample_outcome,
    step_sprt,
)

CFG = OptimizerConfig(restarts=2, max_iters=60)


def classical_pair():
    return bernoulli_replacer(0.2), bernoulli_replacer(0.8)


def test_build_sprt_classical_rates_and_thresholds():
    n0, n1 = classical_pair()
    kl = kl_divergence([0.2, 0.8], [0.8, 0.2])
    strat = build_sprt(n0, n1, n=400, tau=0.08, cfg=CFG)
    assert abs(strat.rate0 - kl) < 1e-9
    assert abs(strat.rate1 - kl) < 1e-9
    assert abs(strat.threshold_a - 400 * (kl - 0.08)) < 1e-6
    assert strat.threshold_a > 0 and strat.threshold_b > 0


def test_default_tau_positive_thresholds():
    strat = build_sprt(depolarizing_channel(0.3), depolarizing_channel(0.7), n=100, cfg=CFG)
    assert strat.tau == pytest.approx(0.1 * min(strat.rate0, strat.rate1))
    assert strat.threshold_a > 0 and strat.threshold_b > 0


def test_tau_too_large_rejected():
    n0, n1 = classical_pair()
    with pytest.raises(TauTooLargeError):
        build_sprt(n0, n1, n=100, tau=5.0, cfg=CFG)


def test_infinite_pair_rejected():
    with pytest.raises(InfiniteDivergenceError):
        build_sprt(identity_channel(2), depolarizing_channel(0.5), n=100, cfg=CFG)


def test_max_kind_pair_reads_finiteness():
    d01, d10 = channel_divergence_pair(identity_channel(2), depolarizing_channel(0.5), kind="max")
    assert d01.is_finite and not d10.is_finite
    assert not (d01.is_finite and d10.is_finite)
    e01, e10 = channel_divergence_pair(depolarizing_channel(0.3), depolarizing_channel(0.7), kind="max")
    assert e01.is_finite and e10.is_finite
    assert np.isfinite(e01.value) and np.isfinite(e10.value)


def test_infinite_pair_rejected_before_any_input_search(monkeypatch):
    """Amplitude damping(0.3) against a full-rank random channel: the
    reverse direction is infinite, and the finite one's measured bracket is
    open (1.473 at the maximally entangled input against the upper end
    2.550), so only a finiteness check ahead of the measured pair keeps the
    input search from running."""
    n0, n1 = amplitude_damping_channel(0.3), random_channel(2, 2, 4, np.random.default_rng(1))
    calls = []
    real = divergences._input_search

    def spy(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(divergences, "_input_search", spy)
    with pytest.raises(InfiniteDivergenceError, match=r"finite 0\|\|1: True, 1\|\|0: False"):
        build_sprt(n0, n1, n=100, cfg=CFG)
    assert calls == []
    channel_divergence(n0, n1, kind="measured", cfg=CFG)
    assert calls == ["measured"]


def test_arm_rule_sign_with_ties_to_zero():
    """After the first step, arm is 0 iff the running sum is >= 0."""
    n0, n1 = classical_pair()
    strat = build_sprt(n0, n1, n=1000, tau=0.08, cfg=CFG)
    rng = np.random.default_rng(123)
    trace = StrategyTrace()
    for _ in range(200):
        if trace.stopped:
            break
        prev = trace.cumulative if trace.steps else None
        step_sprt(strat, n0, trace, rng)
        step = trace.steps[-1]
        if prev is not None:
            assert step.arm == (0 if prev >= 0 else 1)


def test_step_on_a_channel_that_is_neither_hypothesis_raises():
    """step_sprt samples from the strategy's tables, which hold the laws of
    strategy.n0 and strategy.n1 alone: an equal but distinct channel object
    raises ValueError, and the trace and the generator are left untouched."""
    n0, n1 = classical_pair()
    strat = build_sprt(n0, n1, n=1000, tau=0.08, cfg=CFG)
    other, _ = classical_pair()
    rng = np.random.default_rng(5)
    trace = StrategyTrace()
    with pytest.raises(ValueError, match="neither of the strategy's hypotheses"):
        step_sprt(strat, other, trace, rng)
    assert not trace.steps
    assert rng.random() == np.random.default_rng(5).random()


def test_first_arm_is_fair_coin():
    n0, n1 = classical_pair()
    strat = build_sprt(n0, n1, n=1000, tau=0.08, cfg=CFG)
    arms = []
    for t in range(400):
        rng = np.random.default_rng(t)
        trace = StrategyTrace()
        step_sprt(strat, n0, trace, rng)
        arms.append(trace.steps[0].arm)
    frac = np.mean(arms)
    assert 0.4 < frac < 0.6


def test_decision_rule_matches_thresholds():
    n0, n1 = classical_pair()
    strat = build_sprt(n0, n1, n=20, tau=0.08, cfg=CFG)
    for hyp, ch in ((0, n0), (1, n1)):
        for t in range(50):
            rng = np.random.default_rng((hyp, t))
            trace = StrategyTrace()
            while not trace.stopped:
                step_sprt(strat, ch, trace, rng)
            s = trace.cumulative
            if trace.decision == DECISION_H0:
                assert s >= strat.threshold_b
            else:
                assert trace.decision == DECISION_H1
                assert s <= -strat.threshold_a
            # no earlier exit
            for step in trace.steps[:-1]:
                assert -strat.threshold_a < step.cumulative < strat.threshold_b


def test_classical_sprt_increments_oracle():
    """Arm increments equal log-likelihood ratios of the Bernoulli pair."""
    n0, n1 = classical_pair()
    strat = build_sprt(n0, n1, n=100, tau=0.08, cfg=CFG)
    inc = strat.tables.increments
    expected = {round(math.log(0.2 / 0.8), 9), round(math.log(0.8 / 0.2), 9)}
    for arm in range(2):
        got = {round(float(z), 9) for z in inc[arm]}
        assert got == expected


def test_non_adaptive_strategy():
    n0, n1 = classical_pair()
    rho = pure_state(np.array([1.0, 0.0, 0.0, 0.0]))
    m = basis_pvm(np.eye(4))
    strat = build_non_adaptive(n0, n1, rho, m, n=100)
    assert not strat.adaptive
    assert len(strat.arms) == 1
    rng = np.random.default_rng(1)
    trace = StrategyTrace()
    while not trace.stopped and len(trace.steps) < 2000:
        step_sprt(strat, n0, trace, rng)
    assert trace.decision == DECISION_H0


def test_non_adaptive_support_mismatch_rejected():
    n0 = bernoulli_replacer(1.0)  # deterministic outcome 0
    n1 = bernoulli_replacer(0.5)
    rho = pure_state(np.array([1.0, 0.0, 0.0, 0.0]))
    m = basis_pvm(np.eye(4))
    with pytest.raises(SupportMismatchError):
        build_non_adaptive(n0, n1, rho, m, n=100)


def _letter_zero_strategy(law0, law1):
    """build_non_adaptive on the classical channels whose input letter 0
    has the outcome laws law0 and law1 (letter 1 uniform), read from input
    |0> in the computational basis."""
    n0, n1 = (classical_channel(np.array([law, [0.5, 0.5]]).T) for law in (law0, law1))
    return build_non_adaptive(n0, n1, pure_state(np.array([1.0, 0.0])), basis_pvm(np.eye(2)), n=100)


def test_non_adaptive_support_check_keeps_small_positive_outcomes():
    """The support check drops only the outcomes the tables and rates drop,
    those at or below NEGLIGIBLE_PROB: laws positive on every outcome pass
    it, however small an outcome, and the rates stay finite."""
    strat = _letter_zero_strategy([1e-13, 1.0 - 1e-13], [0.5, 0.5])
    p0, p1 = strat.tables.dists[0]
    assert (strat.rate0, strat.rate1) == rate_pair(p0, p1)
    assert math.isfinite(strat.rate0) and math.isfinite(strat.rate1) and p0[0] > 0.0


def test_non_adaptive_support_check_rejects_small_one_sided_outcomes():
    """An outcome of probability 1e-13 under one law and 0 under the other
    is a support mismatch: the tables keep it, and a run would reach it
    with an infinite increment."""
    with pytest.raises(SupportMismatchError):
        _letter_zero_strategy([0.0, 1.0], [1e-13, 1.0 - 1e-13])


def test_uninformative_measurement_rejected():
    n0, n1 = classical_pair()
    rho = pure_state(np.array([1.0, 0.0, 0.0, 0.0]))
    m = basis_pvm(np.kron(np.eye(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2)))
    # measuring in the +/- basis of the replacer output gives identical
    # distributions under both hypotheses
    with pytest.raises(TauTooLargeError):
        build_non_adaptive(n0, n1, rho, m, n=100)


def test_lift_to_blocks():
    n0, n1 = classical_pair()
    strat = build_sprt(n0, n1, l=2, n=100, tau=0.08, cfg=CFG)
    assert strat.block_size == 2
    assert strat.n == 50
    # per-use rate doubles at the block level, tau scales with l
    kl = kl_divergence([0.2, 0.8], [0.8, 0.2])
    assert abs(strat.rate0 - 2 * kl) < 1e-5
    assert strat.tau == pytest.approx(0.16)


def _fixed_classical(n0, n1):
    rho = pure_state(np.array([1.0, 0.0, 0.0, 0.0]))
    return build_non_adaptive(n0, n1, rho, basis_pvm(np.eye(4)), n=100, tau=0.08)


@pytest.mark.parametrize("adaptive", [True, False], ids=["adaptive", "non-adaptive"])
def test_with_budget_rescales_thresholds(adaptive):
    n0, n1 = classical_pair()
    strat = build_sprt(n0, n1, n=100, tau=0.08, cfg=CFG) if adaptive else _fixed_classical(n0, n1)
    bigger = strat.with_budget(200)
    assert bigger.threshold_a == pytest.approx(2 * strat.threshold_a)
    assert bigger.rate0 == strat.rate0 and bigger.tau == strat.tau
    assert bigger.n == 200 and bigger.adaptive == strat.adaptive == adaptive
    assert len(bigger.arms) == len(strat.arms) == (2 if adaptive else 1)
    assert all(a is b for a, b in zip(bigger.arms, strat.arms))
    assert np.array_equal(bigger.tables.increments, strat.tables.increments)
    # the tables do not depend on n, so a new budget shares them
    assert bigger.tables is strat.tables
    assert strat.n == 100 and strat.threshold_a == pytest.approx(bigger.threshold_a / 2)


def test_sample_outcome_inverse_cdf():
    cdf = np.array([0.25, 0.75, 1.0])
    assert sample_outcome(cdf, 0.1) == 0
    assert sample_outcome(cdf, 0.25) == 1  # right-continuous
    assert sample_outcome(cdf, 0.5) == 1
    assert sample_outcome(cdf, 0.99) == 2


def test_outcome_cdf_ends_at_exactly_one():
    p = np.append(np.full(10, 0.1), 0.0)  # a padded slot after the last outcome
    assert np.cumsum(p)[-1] < 1.0  # the float sum falls short
    cdf = outcome_cdf(p)
    assert cdf[-2] == cdf[-1] == 1.0
    assert np.array_equal(cdf[:-2], np.cumsum(p)[:-2])
    assert sample_outcome(cdf, np.nextafter(1.0, 0.0)) == 9


def _random_pair():
    rng = np.random.default_rng(3)
    return random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng), 1


@pytest.mark.parametrize(
    "pair",
    [
        lambda: (depolarizing_channel(0.3), depolarizing_channel(0.7), 1),
        _random_pair,
        lambda: (depolarizing_channel(0.3), depolarizing_channel(0.7), 2),
    ],
    ids=["depolarizing", "random", "block-l2"],
)
def test_strategy_cdfs_sample_every_uniform(pair):
    """The largest uniform below 1 samples an outcome that has positive
    probability, under every arm and hypothesis."""
    n0, n1, l = pair()
    tables = build_sprt(n0, n1, l=l, n=20, cfg=CFG).tables
    assert np.all(tables.cdfs[..., -1] == 1.0)
    for arm in range(tables.cdfs.shape[0]):
        for hyp in (0, 1):
            y = sample_outcome(tables.cdfs[arm, hyp], np.nextafter(1.0, 0.0))
            assert tables.dists[arm, hyp, y] > 0


def test_arm_laws_on_replacers():
    n0, n1 = classical_pair()
    arm = Arm(pure_state(np.array([1.0, 0.0, 0.0, 0.0])), basis_pvm(np.eye(4)), 2)
    kl = kl_divergence([0.2, 0.8], [0.8, 0.2])
    r0, r1 = rate_pair(*arm_laws(arm, n0, n1))
    assert abs(r0 - kl) < 1e-12 and abs(r1 - kl) < 1e-12


@pytest.mark.parametrize(
    "pair",
    [lambda: (depolarizing_channel(0.3), depolarizing_channel(0.7)), lambda: _random_pair()[:2]],
    ids=["depolarizing", "random"],
)
def test_arm_laws_match_witness_trace(pair):
    """The laws of a measured witness arm are Tr[sigma_i E_y], with sigma_i
    the Kraus sum of N_i on the witness input."""
    n0, n1 = pair()
    w = channel_divergence(n0, n1, kind="measured", cfg=CFG).witness
    d = n0.in_dim
    psi = w.input_vector
    laws = arm_laws(Arm(w.input_state, w.povm, d), n0, n1)
    for ch, p in zip((n0, n1), laws):
        sigma = sum(np.outer(v, v.conj()) for v in (np.kron(np.eye(d), k) @ psi for k in ch.kraus))
        direct = [np.trace(sigma @ e).real for e in w.povm.effects]
        assert np.allclose(p, direct, rtol=0.0, atol=1e-12)


def test_build_sprt_computes_each_arm_law_once(monkeypatch):
    calls = []
    real = strategies.outcome_distribution

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(strategies, "outcome_distribution", spy)
    strat = build_sprt(depolarizing_channel(0.3), depolarizing_channel(0.7), n=100, cfg=CFG)
    # two arms, each under both channels
    assert len(calls) == 4
    # the tables built from those laws equal the ones a fresh strategy computes
    fresh = SprtStrategy(
        n0=strat.n0,
        n1=strat.n1,
        arm_zero=strat.arm_zero,
        arm_one=strat.arm_one,
        rate0=strat.rate0,
        rate1=strat.rate1,
        tau=strat.tau,
        n=strat.n,
    )
    for name in ("dists", "cdfs", "increments"):
        assert np.array_equal(getattr(fresh.tables, name), getattr(strat.tables, name))


def test_stepping_a_stopped_trace_raises():
    strat = _fixed_classical(*classical_pair())
    rng = np.random.default_rng(2)
    trace = StrategyTrace()
    while not trace.stopped:
        step_sprt(strat, strat.n0, trace, rng)
    steps = len(trace.steps)
    with pytest.raises(ValueError, match="trace already stopped"):
        step_sprt(strat, strat.n0, trace, rng)
    assert len(trace.steps) == steps


@pytest.mark.parametrize("n, l", [(401, 2), (1, 2)])
def test_build_sprt_budget_is_a_positive_multiple_of_the_block_size(n, l):
    """n counts channel uses: a budget off the block size or below one block
    is rejected by the sweep's budget rule, before any divergence runs."""
    n0, n1 = classical_pair()
    with pytest.raises(ValueError, match=rf"budgets \[{n}\] are not multiples of the block size {l} \(positive ints\)"):
        build_sprt(n0, n1, n=n, l=l, tau=0.08, cfg=CFG)


def _replacer_kwargs(**changes):
    """Constructor arguments of a non-adaptive SPRT on the Bernoulli
    replacers 0.25 and 0.75, read from |0> in the computational basis."""
    arm = Arm(pure_state(np.array([1.0, 0.0])), basis_pvm(np.eye(2)), 1)
    rate = 0.5 * math.log(3)
    kwargs = dict(n0=bernoulli_replacer(0.25), n1=bernoulli_replacer(0.75), arm_zero=arm, rate0=rate, rate1=rate,
                  tau=0.08, n=100)
    return {**kwargs, **changes}


@pytest.mark.parametrize("n", [0, -5, 2.5, True])
def test_strategy_budget_and_block_size_are_counts(n):
    with pytest.raises(ValueError, match=rf"n must be an int >= 1, got {n!r}"):
        SprtStrategy(**_replacer_kwargs(n=n))
    with pytest.raises(ValueError, match=rf"block_size must be an int >= 1, got {n!r}"):
        SprtStrategy(**_replacer_kwargs(block_size=n))
    strat = SprtStrategy(**_replacer_kwargs(n=np.int64(3)))
    with pytest.raises(ValueError, match="n must be an int >= 1, got 0"):
        strat.with_budget(0)
    assert strat.n == 3


def test_strategy_default_tau_is_a_tenth_of_the_smaller_rate():
    strat = SprtStrategy(**_replacer_kwargs(rate0=0.5, rate1=0.4, tau=None))
    assert strat.tau == 0.1 * 0.4
    assert strat.threshold_a == 100 * (0.5 - 0.04)


@pytest.mark.parametrize(
    "changes",
    [{"rate0": 1e-16, "tau": None}, {"rate1": math.nan}, {"rate0": math.nan, "tau": None}, {"tau": math.nan}],
)
def test_uninformative_or_nan_rates_and_tau_rejected_by_the_constructor(changes):
    """A NaN rate or tau would make the thresholds NaN, which no running sum
    crosses: every trace would be censored."""
    with pytest.raises(TauTooLargeError):
        SprtStrategy(**_replacer_kwargs(**changes))


def test_one_sided_laws_rejected_at_construction():
    """An arm whose laws are not mutually absolutely continuous: letter 0 of
    W0 = [[1, .5], [0, .5]] gives outcome 1 probability 0, and of
    W1 = [[.9, .5], [.1, .5]] probability 0.1, so that outcome's increment
    is -inf.  build_non_adaptive on the same arm raises from the same
    check."""
    w0, w1 = (classical_channel(np.array(w)) for w in ([[1.0, 0.5], [0.0, 0.5]], [[0.9, 0.5], [0.1, 0.5]]))
    arm = Arm(pure_state(np.array([1.0, 0.0])), basis_pvm(np.eye(2)), 1)
    with pytest.raises(SupportMismatchError):
        SprtStrategy(n0=w0, n1=w1, arm_zero=arm, rate0=math.inf, rate1=math.log(1 / 0.9), tau=0.01, n=100)
    with pytest.raises(SupportMismatchError):
        build_non_adaptive(w0, w1, arm.input_state, arm.povm, n=100)
