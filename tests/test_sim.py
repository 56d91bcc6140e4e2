import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from chandisc import sim
from chandisc.errors import ExcessiveCensoringError
from chandisc.optimize import OptimizerConfig
from chandisc.quantum import (
    DensityMatrix,
    basis_pvm,
    bernoulli_replacer,
    depolarizing_channel,
    max_entangled_state,
    random_unitary,
    random_channel,
)
from chandisc.sim import (
    EXPECTATION,
    PROBABILISTIC,
    HypothesisStats,
    SimulationPlan,
    _draws,
    _outcome_index,
    _PresetSeed,
    _run,
    _seed_words,
    _simulate_hypothesis,
    check_constraint,
    run_trials,
    sweep_budgets,
    trial_rng,
)
from chandisc.strategies import (
    CENSORED,
    Arm,
    SprtStrategy,
    StrategyTrace,
    build_non_adaptive,
    build_sprt,
    outcome_cdf,
    step_sprt,
)

CFG = OptimizerConfig(restarts=2, max_iters=60)


@pytest.fixture(scope="module")
def classical_strategy():
    return build_sprt(bernoulli_replacer(0.2), bernoulli_replacer(0.8), n=100, tau=0.08, cfg=CFG)


def test_determinism(classical_strategy):
    plan = SimulationPlan(strategy=classical_strategy, trials=300, base_seed=5)
    assert run_trials(plan) == run_trials(plan)


def test_seed_changes_results(classical_strategy):
    p1 = SimulationPlan(strategy=classical_strategy, trials=300, base_seed=5)
    p2 = SimulationPlan(strategy=classical_strategy, trials=300, base_seed=6)
    assert run_trials(p1) != run_trials(p2)


@pytest.fixture(scope="module")
def fixed_strategy():
    zero = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    comp = basis_pvm(np.eye(2, dtype=complex))
    return build_non_adaptive(bernoulli_replacer(0.2), bernoulli_replacer(0.8), zero, comp, n=100, tau=0.08)


@pytest.fixture(scope="module")
def block_strategy():
    return build_sprt(
        bernoulli_replacer(0.2), bernoulli_replacer(0.8), l=2, n=100, tau=0.08, cfg=CFG
    )


@pytest.fixture(scope="module")
def depolarizing_strategy():
    """Two distinct arms whose increments lie on no common lattice."""
    strat = build_sprt(depolarizing_channel(0.3), depolarizing_channel(0.7), n=60, cfg=CFG)
    assert not np.array_equal(strat.tables.increments[0], strat.tables.increments[1])
    return strat


@pytest.fixture(scope="module")
def tie_strategy():
    """Two distinct analytic arms, one with its outcomes swapped, whose
    increments are exactly +-log 3: running sums return to exactly 0, so the
    coin, the sign rule and its tie to arm zero all act."""
    zero = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    comp = Arm(zero, basis_pvm(np.eye(2, dtype=complex)), 1)
    swapped = Arm(zero, basis_pvm(np.eye(2, dtype=complex)[:, ::-1]), 1)
    rate = 0.5 * math.log(3)
    strat = SprtStrategy(
        n0=bernoulli_replacer(0.25),
        n1=bernoulli_replacer(0.75),
        arm_zero=comp,
        arm_one=swapped,
        rate0=rate,
        rate1=rate,
        tau=0.08,
        n=3,
    )
    assert np.array_equal(strat.tables.increments[0], -strat.tables.increments[1])
    return strat


@pytest.fixture(scope="module")
def many_outcome_strategy():
    """Distinct random arms on a 12-dimensional system and its ancilla:
    144-outcome laws, more cuts than _outcome_index compares one by one."""
    rng = np.random.default_rng(5)
    n0, n1 = random_channel(12, rng=rng), random_channel(12, rng=rng)
    arm_zero, arm_one = (Arm(max_entangled_state(12), basis_pvm(random_unitary(144, rng)), 12) for _ in range(2))
    strat = SprtStrategy(
        n0=n0, n1=n1, arm_zero=arm_zero, arm_one=arm_one, rate0=1.0, rate1=1.0, tau=0.1, n=20
    )
    assert np.all(np.sum(strat.tables.cdfs < 1.0, axis=-1) > sim._COUNT_MAX)
    return strat


@pytest.fixture
def stage_draws(monkeypatch):
    """(traces, offset j0, uniforms k) of every vectorised stage draw the
    engine makes from now on, in call order; a call that draws no uniform
    only continues the streams for generators."""
    seen = []
    real = sim._draws

    def spy(words, j0, k):
        if k:
            seen.append((len(words), j0, k))
        return real(words, j0, k)

    monkeypatch.setattr(sim, "_draws", spy)
    return seen


def _stops(t_stop, decision):
    """Stop times of the traces that exit their last band."""
    return t_stop[-1][decision[-1] != CENSORED]


def _stage_end(draws):
    """Uniforms of each stream, coin included, that the stages drew."""
    return max((j0 + k for _, j0, k in draws), default=0)


def _has_censored(t_stop, decision, draws):
    return bool(np.any(decision == CENSORED))


def _crosses_chunk(t_stop, decision, draws):
    return not draws and bool(np.any(_stops(t_stop, decision) > sim._CHUNK))


def _stops_at_stage_ends(t_stop, decision, draws):
    """Every stage ran, and a trace stops on the last step of each."""
    ends = np.cumsum(sim._STAGES)
    return len({j0 for _, j0, _ in draws}) == len(ends) and set(ends) <= set(_stops(t_stop, decision))


def _floor_mid_schedule(t_stop, decision, draws):
    """The stages stopped before the schedule's end with few enough traces
    left for generators."""
    ran = sorted({j0 for _, j0, _ in draws})
    live = np.sum(t_stop[-1] > sum(sim._STAGES[: len(ran)]))
    return 0 < len(ran) < len(sim._STAGES) and 0 < live <= sim._FLOOR


def _straight_to_generators(t_stop, decision, draws):
    """More traces than the floor, yet no stage: the bands are too far."""
    return not draws and t_stop.shape[1] > sim._FLOOR


def _stage_across_passes(t_stop, decision, draws):
    """A later stage drew its traces in two passes."""
    return any(n == sim._PASS and j0 > 0 for n, j0, _ in draws)


def _outlives_stages(t_stop, decision, draws):
    """A stage ran, and a trace walks on past it on a generator."""
    return bool(draws) and bool(np.any(_stops(t_stop, decision) > _stage_end(draws)))


@pytest.mark.parametrize(
    "fixture, budget, trials, cap_factor, exercised",
    [
        ("classical_strategy", None, 100, 20, _straight_to_generators),
        ("fixed_strategy", None, 100, 20, _straight_to_generators),
        ("block_strategy", None, 100, 20, None),
        ("depolarizing_strategy", None, 100, 20, None),
        ("tie_strategy", None, 200, 20, None),
        ("classical_strategy", None, 100, 1, _has_censored),
        ("classical_strategy", 300, 30, 20, _crosses_chunk),
        ("fixed_strategy", 10, sim._ROWS + 44, 20, _outlives_stages),
        ("fixed_strategy", 14, sim._PASS + 276, 20, _stage_across_passes),
        ("many_outcome_strategy", None, 60, 20, None),
        ("classical_strategy", 1, 100, 20, None),
        ("classical_strategy", None, 1, 20, None),
        ("fixed_strategy", None, 1, 20, None),
        ("fixed_strategy", 13, 2000, 20, _stops_at_stage_ends),
        ("classical_strategy", 13, 2000, 20, _stops_at_stage_ends),
        ("fixed_strategy", 4, 200, 20, _floor_mid_schedule),
        ("tie_strategy", 3, 500, 20, _floor_mid_schedule),
    ],
    ids=[
        "adaptive",
        "non-adaptive",
        "block-l2",
        "distinct-arms-non-lattice",
        "exact-ties",
        "censored",
        "chunk-boundary",
        "row-blocks",
        "pass-blocks",
        "many-outcomes",
        "cap-below-stages",
        "one-trace-adaptive",
        "one-trace-non-adaptive",
        "stage-ends-non-adaptive",
        "stage-ends-adaptive",
        "floor-mid-schedule",
        "floor-mid-schedule-distinct-arms",
    ],
)
def test_batch_engine_matches_single_step(request, stage_draws, fixture, budget, trials, cap_factor, exercised):
    """The batch engine must consume uniforms exactly like step_sprt: equal
    stop times and decisions, trace by trace."""
    strat = request.getfixturevalue(fixture)
    if budget is not None:
        strat = strat.with_budget(budget)
    plan = SimulationPlan(strategy=strat, trials=trials, base_seed=21, step_cap_factor=cap_factor)
    cap = cap_factor * strat.n
    for hyp, ch in ((0, strat.n0), (1, strat.n1)):
        stage_draws.clear()
        (t_stop,), (decision,), _ = _simulate_hypothesis(plan, hyp, [strat.n])
        for t in range(plan.trials):
            rng = trial_rng(plan.base_seed, hyp, t)
            trace = StrategyTrace()
            while not trace.stopped and len(trace.steps) < cap:
                step_sprt(strat, ch, trace, rng)
            if trace.stopped:
                assert (t_stop[t], decision[t]) == (trace.stopping_time, trace.decision)
            else:
                assert (t_stop[t], decision[t]) == (cap, CENSORED)
        if exercised is not None:
            assert exercised(t_stop[None], decision[None], stage_draws)


def _replay(strat, hyp, plan):
    """(stop time, decision) of every trace of plan under hyp, stepped by
    step_sprt."""
    cap = plan.step_cap_factor * strat.n
    out = []
    for t in range(plan.trials):
        rng = trial_rng(plan.base_seed, hyp, t)
        trace = StrategyTrace()
        while not trace.stopped and len(trace.steps) < cap:
            step_sprt(strat, (strat.n0, strat.n1)[hyp], trace, rng)
        out.append((trace.stopping_time, trace.decision) if trace.stopped else (cap, CENSORED))
    return out


def _smallest_censored(t_stop, decision, draws):
    return bool(np.any(decision[0] == CENSORED))


def _capped_stage(t_stop, decision, draws):
    """A later stage was cut short at a budget's cap."""
    return any(k not in sim._STAGES for _, j0, k in draws if j0 > 0)


@pytest.mark.parametrize(
    "fixture, budgets, trials, cap_factor, exercised",
    [
        ("depolarizing_strategy", [20, 60, 61], 60, 20, None),
        ("tie_strategy", [3, 3, 8], 200, 20, None),
        ("block_strategy", [10, 50], 60, 20, None),
        ("fixed_strategy", [4, 10], sim._ROWS + 44, 20, _outlives_stages),
        ("classical_strategy", [100, 300], 30, 20, _crosses_chunk),
        ("classical_strategy", [100, 200], 100, 1, _smallest_censored),
        ("classical_strategy", [1, 100], 100, 20, _outlives_stages),
        ("fixed_strategy", [1, 100], 100, 20, _outlives_stages),
        ("classical_strategy", [4, 100], 1, 20, None),
        ("fixed_strategy", [6, 13], 2000, 20, _stops_at_stage_ends),
        ("fixed_strategy", [6, 12], 1000, 1, _capped_stage),
        ("classical_strategy", [100, 200], 200, 20, _straight_to_generators),
        ("tie_strategy", [3, 6], 500, 20, _floor_mid_schedule),
    ],
    ids=[
        "distinct-arms",
        "exact-ties-duplicate",
        "block-l2",
        "row-blocks",
        "past-a-chunk",
        "censored-smallest",
        "first-cap-below-stages-adaptive",
        "first-cap-below-stages-non-adaptive",
        "one-trace",
        "stage-ends",
        "stage-cut-at-cap",
        "far-bands",
        "floor-mid-schedule",
    ],
)
def test_multi_budget_walk_matches_single_step(request, stage_draws, fixture, budgets, trials, cap_factor, exercised):
    """One walk for several budgets stops every trace, for every budget, where
    step_sprt with that budget's thresholds and cap stops it."""
    strat = request.getfixturevalue(fixture)
    plan = SimulationPlan(strategy=strat, trials=trials, base_seed=33, step_cap_factor=cap_factor)
    for hyp in (0, 1):
        stage_draws.clear()
        t_stop, decision, drawn = _simulate_hypothesis(plan, hyp, budgets)
        assert drawn >= t_stop[-1].sum()
        for b, n in enumerate(budgets):
            assert list(zip(t_stop[b], decision[b])) == _replay(strat.with_budget(n), hyp, plan)
        if exercised is not None:
            assert exercised(t_stop, decision, stage_draws)


def test_pinned_summary(tie_strategy):
    """Fixed streams and walk: a change to either shows here."""
    summary = run_trials(SimulationPlan(strategy=tie_strategy, trials=200, base_seed=2**33 + 7))
    assert summary.per_hyp == [
        HypothesisStats(200, 16, 0, 3.27, 0.15177450378769156, 0.38, 0.03432200460346103),
        HypothesisStats(200, 16, 0, 3.03, 0.12327002879856888, 0.325, 0.03311910324872942),
    ]


def test_pinned_sweep(tie_strategy):
    """Fixed streams and one walk for three budgets: a change to either shows
    here.  The n = 3 record is test_pinned_summary's."""
    recs = sweep_budgets(tie_strategy, [3, 6, 12], trials=200, base_seed=2**33 + 7)
    assert [r.summary.per_hyp for r in recs] == [
        [
            HypothesisStats(200, 16, 0, 3.27, 0.15177450378769156, 0.38, 0.03432200460346103),
            HypothesisStats(200, 16, 0, 3.03, 0.12327002879856888, 0.325, 0.03311910324872942),
        ],
        [
            HypothesisStats(200, 5, 0, 5.53, 0.22648509884758422, 0.34, 0.03349626844888845),
            HypothesisStats(200, 9, 0, 5.56, 0.24785479620132428, 0.325, 0.03311910324872942),
        ],
        [
            HypothesisStats(200, 0, 0, 11.43, 0.41937513040236424, 0.275, 0.031573327350787724),
            HypothesisStats(200, 0, 0, 11.74, 0.4217368847990414, 0.3, 0.0324037034920393),
        ],
    ]


def test_sweep_records_equal_run_trials(depolarizing_strategy, block_strategy):
    for strat, budgets in ((depolarizing_strategy, [20, 60]), (block_strategy, [40, 100])):
        recs = sweep_budgets(strat, budgets, trials=80, base_seed=4)
        for rec in recs:
            plan = SimulationPlan(strategy=strat.with_budget(rec.n // strat.block_size), trials=80, base_seed=4)
            assert rec.summary == run_trials(plan)
            assert rec.summary.budget == rec.n


@pytest.mark.parametrize("budget", [0, -5, 10.5, True])
def test_sweep_rejects_budgets_that_are_not_positive_ints(classical_strategy, budget):
    with pytest.raises(ValueError, match="multiples of the block size 1"):
        sweep_budgets(classical_strategy, [budget, 20], trials=10, base_seed=0)


@pytest.mark.parametrize("budget", [5, 11, 1])
def test_sweep_rejects_budgets_off_the_block_size(block_strategy, budget):
    # a budget of 11 uses would run 5 blocks and report a budget of 10
    with pytest.raises(ValueError, match="multiples of the block size 2"):
        sweep_budgets(block_strategy, [budget, 40], trials=10, base_seed=0)


def test_sweep_of_no_budgets(classical_strategy):
    assert sweep_budgets(classical_strategy, [], trials=10, base_seed=0) == []


def test_first_over_censored_budget_raises(classical_strategy):
    capped = SimulationPlan(strategy=classical_strategy, trials=200, base_seed=9, step_cap_factor=1)
    with pytest.raises(ExcessiveCensoringError) as alone:
        run_trials(capped)
    with pytest.raises(ExcessiveCensoringError) as walked:
        _run(capped, [classical_strategy.n, 300])
    assert str(walked.value) == str(alone.value)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"constraint": "median"},
        {"step_cap_factor": 0},
        {"step_cap_factor": -3},
        {"step_cap_factor": 1.5},
        {"trials": 2.5},
        {"trials": 0},
        {"trials": True},
        {"step_cap_factor": True},
        {"constraint": PROBABILISTIC, "epsilon": 0.0},
        {"constraint": PROBABILISTIC, "epsilon": 1.0},
        {"constraint": PROBABILISTIC, "epsilon": 1.5},
    ],
)
def test_plan_rejects_bad_constraint_and_cap(classical_strategy, kwargs):
    with pytest.raises(ValueError):
        SimulationPlan(**{"strategy": classical_strategy, "trials": 10, "base_seed": 0, **kwargs})


def test_monte_carlo_logs_one_debug_record(classical_strategy, caplog):
    plan = SimulationPlan(strategy=classical_strategy, trials=300, base_seed=5)
    summary = run_trials(plan)
    assert not caplog.records  # nothing at the default level
    with caplog.at_level(logging.DEBUG, logger="chandisc.sim"):
        run_trials(plan)
    (record,) = caplog.records
    assert record.name == "chandisc.sim" and record.levelno == logging.DEBUG
    mc = record.mc
    assert (mc["trials"], mc["budgets"]) == (300, [100])
    assert mc["steps"] == round(sum(s.mean_stop * s.trials for s in summary.per_hyp))
    assert mc["steps"] <= mc["drawn"] <= 2 * 300 * 20 * 100
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="chandisc.sim"):
        sweep_budgets(classical_strategy, [50, 100, 200], trials=300, base_seed=5)
    (record,) = caplog.records
    assert record.mc["budgets"] == [50, 100, 200] and record.mc["steps"] <= record.mc["drawn"]


@settings(max_examples=200, deadline=None)
@given(
    weights=hst.lists(hst.sampled_from([0.0, 0.0, 1e-300, 0.1, 0.5, 1.0, 3.0, 7.25]), min_size=2, max_size=64),
    pad=hst.integers(0, 5),
    seed=hst.integers(0, 2**32 - 1),
)
@example(weights=[1.0] * (sim._COUNT_MAX + 1), pad=0, seed=0)
def test_outcome_index_is_searchsorted(weights, pad, seed):
    """The comparison count is searchsorted(side="right") on uniforms in
    [0, 1), also on ties with cdf entries, zero-probability outcomes and the
    zero-padded laws of a shorter arm."""
    p = np.array(weights)
    if not p.any():
        p[-1] = 1.0
    q = p[: p.size // 2 + 1] if p[: p.size // 2 + 1].any() else np.ones(1)
    dists = np.zeros((2, p.size + pad))  # the second arm's law is padded to the first's outcomes
    dists[0, : p.size] = p / p.sum()
    dists[1, : q.size] = q / q.sum()
    rng = np.random.default_rng(seed)
    for cdf in outcome_cdf(dists):
        u = np.concatenate([rng.random(64), cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0), [0.0]])
        u = u[u < 1.0]
        u = np.resize(u, (3, u.size))
        assert np.array_equal(_outcome_index(cdf, u), np.searchsorted(cdf, u, side="right"))


@settings(max_examples=60, deadline=None)
@given(
    base=hst.integers(0, 2**128 - 1),
    hyp=hst.sampled_from([0, 1]),
    trial=hst.integers(0, 3000),
)
@example(base=2**32 - 1, hyp=0, trial=0)
@example(base=2**32, hyp=1, trial=1)
@example(base=2**64, hyp=0, trial=2999)
def test_batch_seed_words_match_seed_sequence(base, hyp, trial):
    words = _seed_words(base, hyp, trial + 1)[trial]
    expect = np.random.SeedSequence(entropy=base, spawn_key=(hyp, trial)).generate_state(4, np.uint64)
    assert np.array_equal(words, expect)
    rng = np.random.Generator(np.random.PCG64(_PresetSeed(words)))
    assert np.array_equal(rng.random(300), trial_rng(base, hyp, trial).random(300))


@settings(max_examples=60, deadline=None)
@given(
    base=hst.integers(0, 2**128 - 1),
    hyp=hst.sampled_from([0, 1]),
    trials=hst.integers(1, 40),
    j0=hst.integers(0, 64),
    k=hst.integers(1, 33),
)
@example(base=2**32 - 1, hyp=0, trials=1, j0=0, k=33)
@example(base=2**32, hyp=1, trials=3, j0=0, k=1)
@example(base=2**64, hyp=0, trials=40, j0=9, k=32)
@example(base=2**128 - 1, hyp=1, trials=7, j0=64, k=21)
def test_draws_match_numpy(base, hyp, trials, j0, k):
    """The vectorised draws give each trace uniforms j0..j0 + k - 1 as
    numpy's PCG64 does, and their continuation seeds start each stream where
    PCG64.advance(j0 + k) does."""
    words = _seed_words(base, hyp, trials)
    u, later = _draws(words, j0, k)
    assert u.shape == (trials, k)
    for w, row, v in zip(words, u, later):
        assert np.array_equal(row, np.random.Generator(np.random.PCG64(_PresetSeed(w))).random(j0 + k)[j0:])
        assert np.random.PCG64(_PresetSeed(v)).state == np.random.PCG64(_PresetSeed(w)).advance(j0 + k).state
    t = trials - 1
    expect = trial_rng(base, hyp, t).random(j0 + k + 300)[j0 + k :]
    advanced = np.random.Generator(np.random.PCG64(_PresetSeed(words[t])).advance(j0 + k))
    assert np.array_equal(advanced.random(300), expect)
    assert np.array_equal(np.random.Generator(np.random.PCG64(_PresetSeed(later[t]))).random(300), expect)


@pytest.mark.parametrize("base_seed", [-1, -(2**40), 1.5, "3", None, True, False])
def test_base_seed_must_be_nonnegative_int(classical_strategy, base_seed):
    with pytest.raises(ValueError):
        SimulationPlan(strategy=classical_strategy, trials=10, base_seed=base_seed)


def test_wald_bounds_hold(classical_strategy):
    plan = SimulationPlan(strategy=classical_strategy, trials=2000, base_seed=1)
    s = run_trials(plan)
    assert s.alpha_hat <= math.exp(-s.threshold_a) + 3 * s.alpha_se
    assert s.beta_hat <= math.exp(-s.threshold_b) + 3 * s.beta_se


def test_stop_times_below_budget(classical_strategy):
    plan = SimulationPlan(strategy=classical_strategy, trials=1000, base_seed=2)
    s = run_trials(plan)
    for stats in s.per_hyp:
        assert stats.mean_stop < s.budget
    rep = check_constraint(s, plan)
    assert rep.constraint == EXPECTATION
    assert rep.passed


def test_probabilistic_constraint_report(classical_strategy):
    plan = SimulationPlan(
        strategy=classical_strategy, trials=500, base_seed=3, constraint=PROBABILISTIC, epsilon=0.5
    )
    s = run_trials(plan)
    rep = check_constraint(s, plan)
    assert rep.constraint == PROBABILISTIC
    assert rep.passed  # overshoot is far below 0.5 for this pair
    assert all(m > 0 for m in rep.margins)


def test_exponent_estimates(classical_strategy):
    plan = SimulationPlan(strategy=classical_strategy, trials=200, base_seed=4)
    s = run_trials(plan)
    if s.per_hyp[0].errors == 0:
        assert math.isinf(s.empirical_exponent(0, corrected=False))
        expect = -math.log(1.0 / (2 * 200)) / s.budget
        assert s.empirical_exponent(0) == pytest.approx(expect)


def test_censoring_triggers_guard(classical_strategy):
    # generous cap: no censoring
    plan = SimulationPlan(strategy=classical_strategy, trials=200, base_seed=9)
    assert run_trials(plan).censored_count == 0
    # cap at n steps: roughly a fifth of the traces for this pair are still
    # running at n, so the 5% censoring guard must trip
    plan_capped = SimulationPlan(
        strategy=classical_strategy, trials=200, base_seed=9, step_cap_factor=1
    )
    with pytest.raises(ExcessiveCensoringError):
        run_trials(plan_capped)


def test_sweep_budgets(classical_strategy):
    recs = sweep_budgets(classical_strategy, [50, 100, 200], trials=300, base_seed=8)
    assert [r.n for r in recs] == [50, 100, 200]
    for r in recs:
        assert r.bound_exponent_alpha == pytest.approx(r.summary.threshold_a / r.summary.budget)
        assert r.summary.budget == r.n
    # overshoot probability shrinks with n
    over = [r.summary.per_hyp[0].overshoot for r in recs]
    assert over[0] >= over[-1]


def test_sweep_requires_ascending(classical_strategy):
    """Budgets ascend strictly: a repeated budget would run and report the
    same record twice."""
    for budgets in ([200, 100], [100, 100, 200]):
        with pytest.raises(ValueError, match="are not ascending"):
            sweep_budgets(classical_strategy, budgets, trials=10, base_seed=0)


def test_trial_rng_streams_independent():
    a = trial_rng(0, 0, 0).random(4)
    b = trial_rng(0, 0, 1).random(4)
    c = trial_rng(0, 1, 0).random(4)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)
    assert np.allclose(a, trial_rng(0, 0, 0).random(4))


def test_block_strategy_stop_times_in_uses(block_strategy):
    strat = block_strategy
    plan = SimulationPlan(strategy=strat, trials=200, base_seed=12)
    s = run_trials(plan)
    assert s.budget == 100
    assert s.alpha_hat == 0.0 and s.beta_hat == 0.0
    # stopping times are counted in channel uses: with pairs of uses per
    # block step, the mean over any trial set has at most .5 fractional part
    (t_steps,), _, _ = _simulate_hypothesis(plan, 0, [strat.n])
    assert np.all((t_steps * strat.block_size) % 2 == 0)
