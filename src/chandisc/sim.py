"""Seeded Monte-Carlo harness for discrimination strategies.

Each trace owns an independent RNG stream, trial_rng(base seed, hypothesis,
trial index), so summaries are bit-identical for a fixed seed regardless of
execution order or batching.  The batch engine consumes uniforms in exactly
the same order as strategies.step_sprt: one coin for the first arm of an
adaptive strategy, then one uniform per step.

The engine builds the same streams without a SeedSequence per trace:
_seed_words runs numpy's SeedSequence hash and mix for every trial index of
a hypothesis in one uint32 pass, and PCG64 seeds itself from those words as
it would from the SeedSequence.  PCG64 spends one word per double, so
uniform j of a stream is one jump of its 128-bit LCG from the seed, and
_draws computes uniforms j0..j0 + k - 1 of many streams at once on uint64
words.  The walk is one loop of rounds; each round walks every live trace
on uniforms from one of two sources of the same streams:

- Vectorised stages of _STAGES uniforms, each drawn by _draws for every
  trace still walking, _PASS traces at a time; the first also draws the
  coin.  Most short traces stop in them, so no generator is built for them.
- Generators: a trace that outlives the stages gets a numpy PCG64 seeded
  with words whose stream starts where the stages stopped, the state of
  PCG64.advance by the uniforms drawn, coin included, without its cost; a
  trace that skipped the stages gets one on its own seed words and draws
  its coin first.  Each round walks _ROWS traces at a time, _CHUNK
  uniforms each, traces down and steps across.

The stages end, and the generators take over, when the schedule ends, when
_FLOOR or fewer traces are live (building that many generators costs less
than a stage), or when no live trace can leave its open band or reach its
cap within the next stage, judged from the largest reachable |increment|:
such a stage ends nothing, so it only adds a pass.  Long walks therefore go
straight to generators.  The hand-off is a cost decision: both sources give
each trace the same uniforms in the same order, so it cannot change a
result.

The outcome of a uniform is the index searchsorted(side="right") gives:
the count of cdf entries at or below it, one comparison pass per entry
below 1, for laws of up to _COUNT_MAX such entries, and searchsorted's
binary search itself for larger laws.  When every playable arm has the same
table the running sums are one cumsum along each row, a sequential
add.accumulate, so they are the floats of step-by-step addition.  Distinct
adaptive arms take a per-step loop, since the arm rule is a recurrence on
the sign of the sum.

One walk serves every budget of a sweep: the budgets share the seed and the
tables, and differ only in the band (-A_n, B_n) and the cap.  As 0 < tau <
rate, the bands are nested, a trace exits them in order and its open bands
are a suffix.  A trace walks until it exits its last band or reaches the
largest cap, and records the first exit of each band.  run_trials is the
one-budget case.

The walk trusts the strategy: SprtStrategy's constructor admits only
mutually absolutely continuous laws, so every reachable increment is finite
and the walk makes no support check.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ExcessiveCensoringError
from .optimize import check_count
from .strategies import CENSORED, DECISION_H0, DECISION_H1, SprtStrategy, check_budgets

EXPECTATION = "expectation"
PROBABILISTIC = "probabilistic"

CENSOR_FRACTION_LIMIT = 0.05

_STAGES = (8, 8, 16)  # uniforms per trace of each vectorised stage: short plans stop in them
_FLOOR = 64  # live traces at or below which generators cost less than a stage
_CHUNK = 256  # uniforms drawn per trace and generator at a time
_ROWS = 256  # traces walked together on generators
_PASS = 4 * _ROWS  # traces one vectorised PCG64 pass draws for: its uint64 work arrays stay near 150 kB
_COUNT_MAX = 128  # cdf cuts up to which one comparison pass per cut beats a binary search

logger = logging.getLogger("chandisc.sim")


@dataclass
class SimulationPlan:
    strategy: SprtStrategy
    trials: int
    base_seed: int
    constraint: str = EXPECTATION
    epsilon: float = 0.05
    step_cap_factor: int = 20

    def __post_init__(self):
        check_count("trials", self.trials)
        check_count("base_seed", self.base_seed, least=0)
        if self.constraint not in (EXPECTATION, PROBABILISTIC):
            raise ValueError(f"unknown constraint {self.constraint!r}")
        if self.constraint == PROBABILISTIC and not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        check_count("step_cap_factor", self.step_cap_factor)


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
    """numpy SeedSequence's hashmix on ints or uint32 arrays; const advances per call."""

    def hashmix(v):
        nonlocal const
        v = v ^ const
        const = const * mult & _MASK32
        v = v * const & _MASK32
        return v ^ (v >> 16)

    return hashmix


def _seed_words(base_seed: int, hyp: int, trials: int) -> np.ndarray:
    """Row t is SeedSequence(entropy=base_seed, spawn_key=(hyp, t))
    .generate_state(4, np.uint64), for every t < trials in one uint32 pass.
    Every word but the trial index is shared, so the pool is mixed on ints
    until the trial indices enter it."""
    seed = int(base_seed)
    entropy = [seed & _MASK32]
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)
    entropy += [0] * (4 - len(entropy))  # a spawn key pads the entropy to the pool size
    words = entropy + [hyp, np.arange(trials, dtype=np.uint32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x, y):
        r = (0xCA01F9DD * x & _MASK32) - (0x4973F715 * y & _MASK32) & _MASK32
        return r ^ (r >> 16)

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


_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # the multiplier of numpy PCG64's 128-bit LCG
_U32 = np.uint64(_MASK32)


@functools.cache
def _jumps(j0: int, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Multipliers a and b, as (high, low) uint64 words with one row each,
    such that a (s + inc) + b inc is the state of PCG64(seed s, increment
    inc) after j draws, for j = j0 + 1..j0 + k, and in the last row is the
    seed s' whose PCG64 starts after j0 + k draws.

    Seeding starts the LCG X <- M X + inc at M (s + inc) + inc, so after j
    draws X = M^(j+1) (s + inc) + S_(j+1) inc, S_j = 1 + M + ... + M^(j-1);
    and M (s' + inc) + inc equals it at j = n for s' = M^n (s + inc) + (S_n - 1) inc."""
    n = j0 + k
    pows, sums = [1], [0]
    for _ in range(n + 1):
        sums.append(sums[-1] + pows[-1])
        pows.append(pows[-1] * _PCG_MULT % (1 << 128))
    rows = (pows[j0 + 2 : n + 2] + [pows[n]], sums[j0 + 2 : n + 2] + [sums[n] - 1])
    rows = [np.array(r, dtype=object)[:, None] % (1 << 128) for r in rows]
    return [((r >> 64).astype(np.uint64), (r & (1 << 64) - 1).astype(np.uint64)) for r in rows]


def _mul_add(x, c, hi, lo):
    """(hi, lo) += x c mod 2**128 on (high, low) uint64 words, x one per
    trace and c one per row, with 32-bit limbs for the high word of the low
    words' product."""
    (xh, xl), (ch, cl) = x, c
    x0, x1, c0, c1 = xl & _U32, xl >> 32, cl & _U32, cl >> 32
    mid = c0 * x0 >> 32
    for ci, xi in ((c0, x1), (c1, x0)):
        p = ci * xi
        mid += p & _U32
        hi += p >> 32
    hi += (mid >> 32) + c1 * x1 + ch * xl + cl * xh
    p = cl * xl
    lo += p
    hi += lo < p  # the carry of the low words


def _draws(words: np.ndarray, j0: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniforms j0..j0 + k - 1 of Generator(PCG64(_PresetSeed(w))) for every
    row w of words, one row per trace, and the seed words of the PCG64s that
    continue each stream after j0 + k draws.

    As numpy's pcg64_set_seed, the seed s is words 0-1 and the increment is
    inc = 2 (words 2-3) + 1, high words first.  A draw steps the LCG and
    turns its state into a double by XSL-RR, then (x >> 11) 2^-53.  Every
    state is one jump from the seed (_jumps), so the draws are computed
    across all traces and draws at once, draws down and traces across."""
    w0, w1, w2, w3 = words.T
    inc = ((w2 << 1) | (w3 >> 63), (w3 << 1) | 1)
    lo = w1 + inc[1]
    y = (w0 + inc[0] + (lo < w1), lo)  # s + inc
    a, b = _jumps(j0, k)
    hi, lo = np.zeros((2, k + 1, len(words)), np.uint64)
    _mul_add(y, a, hi, lo)
    _mul_add(inc, b, hi, lo)
    later = words.copy()
    later[:, 0], later[:, 1] = hi[k], lo[k]
    x, rot = lo[:k] ^ hi[:k], hi[:k] >> 58  # XSL-RR: fold the words, rotate right by the top 6 bits
    return np.multiply(((x >> rot) | (x << (-rot & 63))).T >> 11, 2.0**-53, order="C"), later


def _outcome_index(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome of each uniform u in [0, 1): searchsorted(cdf, u, side="right").
    Up to _COUNT_MAX cuts it is the count of cdf entries <= u, ties and
    repeated entries included; entries of 1.0 never count and are skipped."""
    cuts = cdf[cdf < 1.0]
    if cuts.size > _COUNT_MAX:
        return np.searchsorted(cdf, u, side="right")
    idx = np.zeros(u.shape, np.uint8)
    for c in cuts:
        idx += u >= c
    return idx


def _simulate_hypothesis(plan: SimulationPlan, hyp: int, ns: list[int]) -> tuple[np.ndarray, np.ndarray, int]:
    """Walk all trials of plan under hypothesis hyp once for every budget n
    in ns, ascending and counted in steps: plan's strategy at budget n has
    the band (-A_n, B_n) and the cap step_cap_factor * n.

    Returns (stop times in steps, decisions), one row per budget, and the
    number of outcome uniforms drawn."""
    strategy, trials = plan.strategy, plan.trials
    tables = strategy.tables
    incs = tables.increments
    cdfs = tables.cdfs[:, hyp, :]
    z_max = np.abs(incs).max()  # the longest step a trace can take
    arms = range(len(incs))
    if all(np.array_equal(cdfs[a], cdfs[0]) and np.array_equal(incs[a], incs[0]) for a in arms):
        arms = range(1)  # one law for every step
    hi = np.array([strategy.with_budget(n).threshold_b for n in ns])
    lo = -np.array([strategy.with_budget(n).threshold_a for n in ns])
    caps = plan.step_cap_factor * np.array(ns)
    t_stop = np.repeat(caps[:, None], trials, axis=1)
    decision = np.full(t_stop.shape, CENSORED, dtype=np.int64)
    drawn = 0
    coin = int(strategy.adaptive)

    def walk(rows, band, s, arm_one, u, step):
        """Walk the traces rows, after step steps at the sums s, on the
        uniforms u, traces down and steps across; arm_one is each trace's
        arm for its first step here.  Records each first band exit, moves
        band past the exited and capped bands in place, and returns the sums
        after the last step."""
        nonlocal drawn
        drawn += u.size
        idx = [_outcome_index(cdfs[a], u) for a in arms]
        # arm zero's increments overwrite the uniforms; mode="clip" takes unbuffered
        z = [np.take(incs[a], i, out=u if a == 0 else None, mode="clip") for a, i in zip(arms, idx)]
        path = u
        if len(arms) == 1:  # sequential add.accumulate: the sums of step-by-step addition
            path[:, 0] += s
            np.cumsum(path, axis=1, out=path)
        else:  # the arm depends on the sign of the running sum
            for j in range(u.shape[1]):
                s = np.add(s, np.where(arm_one, z[1][:, j], z[0][:, j]), out=path[:, j])
                arm_one = s < 0
        # first exit of each trace's open band; the bands are nested, so no
        # trace leaves its next band before this one, and the traces that
        # exit are searched again for the next
        hit = np.arange(rows.size)
        while hit.size:
            k = band[hit]
            p = path if hit.size == rows.size else path[hit]
            crossed = (p >= hi[k, None]) | (p <= lo[k, None])
            at = crossed.argmax(axis=1)
            ok = crossed[np.arange(hit.size), at]
            hit, at, k = hit[ok], at[ok], k[ok]
            t_stop[k, rows[hit]] = step + at + 1
            decision[k, rows[hit]] = np.where(path[hit, at] >= hi[k], DECISION_H0, DECISION_H1)
            band[hit] += 1
            hit = hit[band[hit] < len(ns)]
        # censored at their caps
        np.maximum(band, np.searchsorted(caps, step + u.shape[1], side="right"), out=band)
        return path[:, -1]

    # each round walks every live trace, _PASS at a time on a vectorised
    # stage and _ROWS at a time on generators; the draws at step 0 start with
    # the coin.  streams holds each live trace's seed words, then its generator
    # band is each trace's first open band: the open ones are a suffix
    rows, band, s, step = np.arange(trials), np.zeros(trials, np.intp), np.zeros(trials), 0
    streams = _seed_words(plan.base_seed, hyp, trials)
    stages, staged = iter(_STAGES), True
    while rows.size:
        b = band.min()  # the narrowest open band, whose cap is the nearest
        cap = caps[b] - step
        width = min(next(stages, 0) if staged else _CHUNK, cap)
        if staged and (
            not width  # the schedule ended
            or rows.size <= _FLOOR  # building a few generators costs less than a stage
            # no trace can end in the stage, so it would only add a pass
            or width < cap and np.abs(s).max() + width * z_max < min(hi[b], -lo[b])
        ):
            if step:  # continue the streams where the stages stopped
                streams = _draws(streams, coin + step, 0)[1]
            streams = np.array([np.random.Generator(np.random.PCG64(_PresetSeed(w))) for w in streams])
            staged, width = False, min(_CHUNK, cap)
        j0, k = (0, coin + width) if step == 0 else (coin + step, width)
        per = _PASS if staged else _ROWS
        for p in range(0, rows.size, per):
            part = slice(p, p + per)
            if staged:
                u = _draws(streams[part], j0, k)[0]
            else:
                u = np.empty((len(streams[part]), k))  # traces down, steps across
                for g, row in zip(streams[part], u):
                    g.random(out=row)
            arm_one = u[:, 0] >= 0.5 if k > width else s[part] < 0
            s[part] = walk(rows[part], band[part], s[part], arm_one, u[:, k - width :], step)
        step += width
        left = band < len(ns)
        rows, band, s, streams = rows[left], band[left], s[left], streams[left]
    return t_stop, decision, drawn


def _run(plan: SimulationPlan, ns: list[int]) -> list[SimulationSummary]:
    """Summaries of plan's strategy at each budget n in ns, ascending and
    counted in steps, from one walk per hypothesis."""
    trials, l = plan.trials, plan.strategy.block_size
    walks = [_simulate_hypothesis(plan, hyp, ns) for hyp in (0, 1)]
    if logger.isEnabledFor(logging.DEBUG):
        steps = int(sum(t_stop[-1].sum() for t_stop, _, _ in walks))
        stats = dict(trials=trials, budgets=[n * l for n in ns], steps=steps, drawn=sum(w[2] for w in walks))
        logger.debug("monte-carlo walk %s", stats, extra={"mc": stats})
    summaries = []
    for b, n in enumerate(ns):
        strategy = plan.strategy.with_budget(n)
        per_hyp = []
        for hyp, (t_steps, decision, _) in enumerate(walks):
            t_uses = t_steps[b] * l
            wrong = DECISION_H1 if hyp == 0 else DECISION_H0
            censored = int(np.sum(decision[b] == CENSORED))
            over = float(np.mean(t_uses > n * l))
            per_hyp.append(
                HypothesisStats(
                    trials=trials,
                    errors=int(np.sum(decision[b] == wrong)) + censored,
                    censored=censored,
                    mean_stop=float(np.mean(t_uses)),
                    stop_se=float(np.std(t_uses) / math.sqrt(trials)),
                    overshoot=over,
                    overshoot_se=math.sqrt(over * (1.0 - over) / trials),
                )
            )
        summary = SimulationSummary(
            budget=n * l,
            per_hyp=per_hyp,
            threshold_a=strategy.threshold_a,
            threshold_b=strategy.threshold_b,
        )
        frac = summary.censored_count / (2 * trials)
        if frac > CENSOR_FRACTION_LIMIT:
            raise ExcessiveCensoringError(f"censored fraction {frac:.3f} exceeds 5%")
        summaries.append(summary)
    return summaries


def run_trials(plan: SimulationPlan) -> SimulationSummary:
    """Estimate error probabilities, stopping times and overshoot under both
    hypotheses.  Deterministic for a fixed base seed."""
    return _run(plan, [plan.strategy.n])[0]


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
    else:
        margins = [
            plan.epsilon - (s.overshoot + 3 * s.overshoot_se) for s in summary.per_hyp
        ]
        passed = all(m > 0 for m in margins)
        detail = "overshoot probabilities " + ", ".join(
            f"{s.overshoot:.4f}" for s in summary.per_hyp
        ) + f" vs epsilon {plan.epsilon}"
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
    step_cap_factor: int = 20,
) -> list[SweepRecord]:
    """The same arms at a list of strictly ascending budgets, for
    convergence curves.

    Arms and rates are reused; only the thresholds and caps scale with n.
    Every budget shares the base seed, so one walk per trace serves them all:
    each record equals run_trials of that budget's plan.  Budgets count
    channel uses and must be int multiples of the block size, so that each
    record's n is its summary's budget.  step_cap_factor caps the traces as
    in run_trials: at budget n a trace still undecided after
    step_cap_factor * n uses is censored, and a budget with more than 5 % of
    its traces censored raises ExcessiveCensoringError.
    """
    l = strategy.block_size
    check_budgets(budgets, l)
    plan = SimulationPlan(
        strategy=strategy,
        trials=trials,
        base_seed=base_seed,
        constraint=constraint,
        epsilon=epsilon,
        step_cap_factor=step_cap_factor,
    )
    ns = [n // l for n in budgets]
    return [
        SweepRecord(
            n=n,
            summary=summary,
            report=check_constraint(summary, plan),
            exponent_alpha=summary.empirical_exponent(0),
            exponent_beta=summary.empirical_exponent(1),
            bound_exponent_alpha=summary.threshold_a / summary.budget,
            bound_exponent_beta=summary.threshold_b / summary.budget,
        )
        for n, summary in zip(budgets, _run(plan, ns) if ns else [])
    ]
