"""Seeded Monte-Carlo harness for discrimination strategies.

Each trace owns an independent RNG stream, trial_rng(base seed, hypothesis,
trial index), so summaries are bit-identical for a fixed seed regardless of
execution order or batching.  The batch engine consumes uniforms in exactly
the same order as strategies.step_sprt: one coin for the first arm of an
adaptive strategy, then one uniform per step.

The engine builds the same streams without a SeedSequence per trace:
_seed_words runs numpy's SeedSequence hash and mix for every trial index of
a hypothesis in one uint32 pass, and PCG64 seeds itself from those words as
it would from the SeedSequence.  Traces are walked in row blocks, a chunk of
uniforms per trace at a time; PCG64 spends one word per double, so chunked
draws continue the stream exactly.  Each chunk maps to increments with one
searchsorted per arm.  When every playable arm has the same table the running
sums are one cumsum, a sequential add.accumulate, so they are the floats of
step-by-step addition.  Distinct adaptive arms take a per-step loop, since
the arm rule is a recurrence on the sign of the sum.  The first crossing of
a threshold in the chunk is the stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ExcessiveCensoringError, ZeroProbabilityOutcomeError
from .strategies import CENSORED, DECISION_H0, DECISION_H1, SprtStrategy

EXPECTATION = "expectation"
PROBABILISTIC = "probabilistic"

CENSOR_FRACTION_LIMIT = 0.05

_CHUNK = 256  # uniforms drawn per trace and pass
_ROWS = 256  # traces walked together


@dataclass
class SimulationPlan:
    strategy: SprtStrategy
    trials: int
    base_seed: int
    constraint: str = EXPECTATION
    epsilon: float = 0.05
    step_cap_factor: int = 20

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not isinstance(self.base_seed, (int, np.integer)) or self.base_seed < 0:
            raise ValueError(f"base_seed must be an int >= 0, got {self.base_seed!r}")
        if self.constraint == PROBABILISTIC and not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")

    @property
    def budget(self) -> int:
        return self.strategy.n * self.strategy.block_size


@dataclass
class HypothesisStats:
    """Per-hypothesis tallies; stop times counted in channel uses."""

    trials: int
    errors: int  # wrong decisions, censored trials included
    censored: int
    mean_stop: float
    stop_se: float
    overshoot: float  # fraction with T > n
    overshoot_se: float

    @property
    def error_rate(self) -> float:
        return self.errors / self.trials

    @property
    def error_se(self) -> float:
        p = self.error_rate
        return math.sqrt(p * (1.0 - p) / self.trials)


@dataclass
class SimulationSummary:
    budget: int
    per_hyp: list[HypothesisStats]
    threshold_a: float
    threshold_b: float

    @property
    def alpha_hat(self) -> float:
        return self.per_hyp[0].error_rate

    @property
    def beta_hat(self) -> float:
        return self.per_hyp[1].error_rate

    @property
    def alpha_se(self) -> float:
        return self.per_hyp[0].error_se

    @property
    def beta_se(self) -> float:
        return self.per_hyp[1].error_se

    def empirical_exponent(self, hyp: int, corrected: bool = True) -> float:
        """-(1/n) log of the error estimate.

        With zero observed errors the raw exponent is +inf; the corrected
        variant substitutes 1/(2 trials) to keep tables finite.
        """
        stats = self.per_hyp[hyp]
        if stats.errors == 0:
            if not corrected:
                return math.inf
            est = 1.0 / (2.0 * stats.trials)
        else:
            est = stats.error_rate
        return -math.log(est) / self.budget

    @property
    def censored_count(self) -> int:
        return sum(s.censored for s in self.per_hyp)


@dataclass
class ConstraintReport:
    constraint: str
    passed: bool
    margins: list[float]  # per hypothesis; positive = satisfied
    detail: str


@dataclass
class SweepRecord:
    n: int
    summary: SimulationSummary
    report: ConstraintReport
    exponent_alpha: float
    exponent_beta: float
    bound_exponent_alpha: float  # A_n / n
    bound_exponent_beta: float  # B_n / n


def trial_rng(base_seed: int, hypothesis: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=base_seed, spawn_key=(hypothesis, trial))
    )


_MASK32 = 0xFFFFFFFF


def _hasher(const: int, mult: int):
    """numpy SeedSequence's hashmix on uint32 arrays; const advances per call."""

    def hashmix(v):
        nonlocal const
        v = v ^ np.uint32(const)
        const = const * mult & _MASK32
        v = v * np.uint32(const)
        return v ^ (v >> np.uint32(16))

    return hashmix


def _seed_words(base_seed: int, hyp: int, trials: int) -> np.ndarray:
    """Row t is SeedSequence(entropy=base_seed, spawn_key=(hyp, t))
    .generate_state(4, np.uint64), for every t < trials in one uint32 pass."""
    seed = int(base_seed)
    entropy = [seed & _MASK32]
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)
    entropy += [0] * (4 - len(entropy))  # a spawn key pads the entropy to the pool size
    # arrays, not scalars: numpy wraps uint32 arrays silently but warns on scalar overflow
    words = [np.full(1, w, np.uint32) for w in entropy + [hyp]] + [np.arange(trials, dtype=np.uint32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x, y):
        r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return r ^ (r >> np.uint32(16))

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    out = _hasher(0x8B51F9DD, 0x58F38DED)
    state = np.stack([out(pool[i % 4]) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _PresetSeed(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 seed words computed ahead of time by _seed_words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _simulate_hypothesis(plan: SimulationPlan, hyp: int) -> tuple[np.ndarray, np.ndarray]:
    """Simulate all trials under hypothesis hyp, _ROWS traces at a time, each
    drawing _CHUNK uniforms per pass.  Distinct adaptive arms stay a per-step
    loop: the arm rule is a recurrence on the sign of the running sum.

    Returns (stop times in steps, decisions)."""
    strategy = plan.strategy
    tables = strategy.tables
    cap = plan.step_cap_factor * strategy.n
    incs = tables.increments
    cdfs = tables.cdfs[:, hyp, :]
    if not np.all(np.isfinite(incs[tables.dists[:, hyp, :] > 0])):
        raise ZeroProbabilityOutcomeError(
            "an outcome with zero probability under one hypothesis is reachable"
        )
    arms = range(len(incs))
    if all(np.array_equal(cdfs[a], cdfs[0]) and np.array_equal(incs[a], incs[0]) for a in arms):
        arms = range(1)  # one law for every step
    hi, lo = strategy.threshold_b, -strategy.threshold_a
    seeds = _seed_words(plan.base_seed, hyp, plan.trials)
    t_stop = np.full(plan.trials, cap, dtype=np.int64)
    decision = np.full(plan.trials, CENSORED, dtype=np.int64)

    for start in range(0, plan.trials, _ROWS):
        rows = np.arange(start, min(start + _ROWS, plan.trials))
        gens = [np.random.Generator(np.random.PCG64(_PresetSeed(w))) for w in seeds[rows]]
        if strategy.adaptive:
            first_arm = np.array([g.random() for g in gens]) >= 0.5
        s = np.zeros(rows.size)
        step = 0
        while rows.size and step < cap:
            width = min(_CHUNK, cap - step)
            u = np.empty((rows.size, width))
            for g, row in zip(gens, u):
                g.random(out=row)
            # steps down, traces across: each step's values are contiguous
            z = [incs[a][np.searchsorted(cdfs[a], u.T, side="right")] for a in arms]
            if len(arms) == 1:  # sequential add.accumulate: the sums of step-by-step addition
                path = z[0]
                path[0] += s
                np.cumsum(path, axis=0, out=path)
            else:  # the arm depends on the sign of the running sum
                path = np.empty_like(z[0])
                arm_one = first_arm if step == 0 else s < 0
                for z0, z1, out in zip(*z, path):
                    s = np.add(s, np.where(arm_one, z1, z0), out=out)
                    arm_one = s < 0
            crossed = (path >= hi) | (path <= lo)
            first = crossed.argmax(axis=0)
            hit = crossed[first, np.arange(rows.size)]
            done = rows[hit]
            t_stop[done] = step + first[hit] + 1
            decision[done] = np.where(path[first[hit], hit] >= hi, DECISION_H0, DECISION_H1)
            left = ~hit
            rows, s, step = rows[left], path[-1, left], step + width
            gens = [g for g, keep in zip(gens, left) if keep]
    return t_stop, decision


def run_trials(plan: SimulationPlan) -> SimulationSummary:
    """Estimate error probabilities, stopping times and overshoot under both
    hypotheses.  Deterministic for a fixed base seed."""
    strategy = plan.strategy
    l = strategy.block_size
    n_uses = plan.budget
    per_hyp = []
    for hyp in (0, 1):
        t_steps, decision = _simulate_hypothesis(plan, hyp)
        t_uses = t_steps * l
        wrong = DECISION_H1 if hyp == 0 else DECISION_H0
        errors = int(np.sum(decision == wrong) + np.sum(decision == CENSORED))
        censored = int(np.sum(decision == CENSORED))
        over = float(np.mean(t_uses > n_uses))
        per_hyp.append(
            HypothesisStats(
                trials=plan.trials,
                errors=errors,
                censored=censored,
                mean_stop=float(np.mean(t_uses)),
                stop_se=float(np.std(t_uses) / math.sqrt(plan.trials)),
                overshoot=over,
                overshoot_se=math.sqrt(over * (1.0 - over) / plan.trials),
            )
        )
    summary = SimulationSummary(
        budget=n_uses,
        per_hyp=per_hyp,
        threshold_a=strategy.threshold_a,
        threshold_b=strategy.threshold_b,
    )
    frac = summary.censored_count / (2 * plan.trials)
    if frac > CENSOR_FRACTION_LIMIT:
        raise ExcessiveCensoringError(f"censored fraction {frac:.3f} exceeds 5%")
    return summary


def check_constraint(summary: SimulationSummary, plan: SimulationPlan) -> ConstraintReport:
    """Expectation: max mean stop time <= n + 3 SE.  Probabilistic:
    max P(T > n) + 3 SE < epsilon."""
    n = summary.budget
    if plan.constraint == EXPECTATION:
        margins = [n + 3 * s.stop_se - s.mean_stop for s in summary.per_hyp]
        passed = all(m >= 0 for m in margins)
        detail = "mean stop times " + ", ".join(
            f"{s.mean_stop:.2f}" for s in summary.per_hyp
        ) + f" vs budget {n}"
    elif plan.constraint == PROBABILISTIC:
        margins = [
            plan.epsilon - (s.overshoot + 3 * s.overshoot_se) for s in summary.per_hyp
        ]
        passed = all(m > 0 for m in margins)
        detail = "overshoot probabilities " + ", ".join(
            f"{s.overshoot:.4f}" for s in summary.per_hyp
        ) + f" vs epsilon {plan.epsilon}"
    else:
        raise ValueError(f"unknown constraint {plan.constraint!r}")
    return ConstraintReport(
        constraint=plan.constraint, passed=passed, margins=margins, detail=detail
    )


def sweep_budgets(
    strategy: SprtStrategy,
    budgets: list[int],
    trials: int,
    base_seed: int,
    constraint: str = EXPECTATION,
    epsilon: float = 0.05,
) -> list[SweepRecord]:
    """Re-run the same arms at a list of budgets for convergence curves.

    Arms and rates are reused; only the thresholds scale with n.
    """
    if list(budgets) != sorted(budgets):
        raise ValueError("budgets must be ascending")
    records = []
    for n in budgets:
        strat_n = strategy.with_budget(max(1, n // strategy.block_size))
        plan = SimulationPlan(
            strategy=strat_n,
            trials=trials,
            base_seed=base_seed,
            constraint=constraint,
            epsilon=epsilon,
        )
        summary = run_trials(plan)
        report = check_constraint(summary, plan)
        records.append(
            SweepRecord(
                n=n,
                summary=summary,
                report=report,
                exponent_alpha=summary.empirical_exponent(0),
                exponent_beta=summary.empirical_exponent(1),
                bound_exponent_alpha=strat_n.threshold_a / summary.budget,
                bound_exponent_beta=strat_n.threshold_b / summary.budget,
            )
        )
    return records
