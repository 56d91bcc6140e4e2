"""Executable discrimination strategies.

One Wald SPRT type with one or two arms, each an (input state, POVM) pair.
The adaptive SPRT plays two arms, each witnessing one direction of the
measured channel divergence at the strategy's block size (witness_arms, the
one stage that the adaptive rectangle rates too), and picks one by the sign
of the running sum (ties to arm zero); the non-adaptive SPRT plays its one
arm every round.  The accumulated sum of per-step log-likelihood
increments drives the stopping rule (first exit from (-A_n, B_n)).
arm_laws is the one map from an arm to its outcome laws.

SprtStrategy's constructor is the one place that decides whether a strategy
is valid: a budget n of whole steps and a block size that are positive ints,
arms whose outcome laws are mutually absolutely continuous (so every
increment is finite), informative rates and tau in (0, min rate).  The
builders, the loader, step_sprt and the Monte-Carlo walk trust it and
re-check none of these.
"""

from __future__ import annotations

import copy
from dataclasses import InitVar, dataclass, field

import numpy as np

from .divergences import DivergenceValue, channel_divergence_pair
from .errors import InfiniteDivergenceError, SupportMismatchError, TauTooLargeError
from .optimize import NEGLIGIBLE_PROB, OptimizerConfig, check_count, is_int, kl_rows
from .quantum import (
    DensityMatrix,
    Povm,
    QuantumChannel,
    outcome_distribution,
    tensor_power_channel,
)

DECISION_H0 = 0
DECISION_H1 = 1
CENSORED = 2


def check_budgets(budgets: list[int], block_size: int) -> None:
    """The rule every budget in channel uses is held to, by build_sprt and
    sweep_budgets: strictly ascending int multiples of the block size, each
    at least one block; else ValueError."""
    bad = [n for n in budgets if not is_int(n) or n < block_size or n % block_size]
    if bad:
        raise ValueError(f"budgets {bad} are not multiples of the block size {block_size} (positive ints)")
    if any(a >= b for a, b in zip(budgets, budgets[1:])):
        raise ValueError(f"budgets {list(budgets)} are not ascending: each must exceed the one before")


@dataclass
class Arm:
    """An input state and a measurement, fixed for as long as the arm is
    played."""

    input_state: DensityMatrix
    povm: Povm
    ancilla_dim: int


@dataclass
class StrategyTables:
    """Precomputed outcome distributions and increments for fast stepping.

    dists[arm][hyp] is the outcome distribution when the true channel is
    N_hyp; increments[arm][y] = log p0(y) - log p1(y) for that arm, where
    p_i is the distribution induced by N_i.
    """

    dists: np.ndarray  # (n_arms, 2, n_outcomes)
    cdfs: np.ndarray  # (n_arms, 2, n_outcomes)
    increments: np.ndarray  # (n_arms, n_outcomes)


def arm_laws(arm: Arm, *channels: QuantumChannel) -> list[np.ndarray]:
    """Outcome law p_y = Tr[(id (x) N)(input) E_y] of the arm under each
    channel N, in order."""
    return [outcome_distribution(ch, arm.input_state, arm.ancilla_dim, arm.povm) for ch in channels]


def rate_pairs(p0: np.ndarray, p1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D(P1||P0), D(P0||P1)) for each row of the stacked outcome laws p0, p1
    (..., k): the per-step rates (rate0, rate1) that the arm with those laws
    witnesses.  Each lower-bounds the measured channel divergence in its
    direction."""
    return kl_rows(p1, p0), kl_rows(p0, p1)


def rate_pair(p0: np.ndarray, p1: np.ndarray) -> tuple[float, float]:
    """The rates (rate0, rate1) of one arm with outcome laws p0, p1 (k,): the
    batch of one of rate_pairs."""
    return tuple(map(float, rate_pairs(p0, p1)))


def _build_tables(laws: list[tuple[np.ndarray, np.ndarray]]) -> StrategyTables:
    """Tables from the outcome laws (p0, p1) of each arm.  Entries at or below
    NEGLIGIBLE_PROB are rounding noise: set to 0, as the rates drop them.
    An outcome left positive under one law only has an infinite increment:
    SupportMismatchError."""
    dists = np.zeros((len(laws), 2, max(law[0].size for law in laws)))
    for i, law in enumerate(laws):
        dists[i, :, : law[0].size] = law
    dists = np.where(dists > NEGLIGIBLE_PROB, dists, 0.0)
    positive = dists > 0
    if np.any(positive[:, 0] != positive[:, 1]):
        raise SupportMismatchError("induced distributions not mutually absolutely continuous")
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(dists)
        # outcomes of probability 0 under both laws are never sampled
        incs = np.where(positive[:, 0], logs[:, 0] - logs[:, 1], 0.0)
    return StrategyTables(dists=dists, cdfs=outcome_cdf(dists), increments=incs)


def outcome_cdf(dists: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, exactly 1.0 from the last outcome
    of positive probability on.

    A plain cumsum often ends at 1 - 2**-53; a uniform at or above that
    would sample past the last outcome.
    """
    cdf = np.cumsum(dists, axis=-1)
    k = dists.shape[-1]
    last = k - 1 - np.argmax(dists[..., ::-1] > 0, axis=-1)
    cdf[np.arange(k) >= last[..., None]] = 1.0
    return cdf


@dataclass
class TraceStep:
    arm: int
    outcome: int
    increment: float
    cumulative: float


@dataclass
class StrategyTrace:
    steps: list[TraceStep] = field(default_factory=list)
    stopping_time: int | None = None
    decision: int | None = None  # DECISION_H0 / DECISION_H1 / CENSORED

    @property
    def cumulative(self) -> float:
        return self.steps[-1].cumulative if self.steps else 0.0

    @property
    def stopped(self) -> bool:
        return self.decision is not None


@dataclass(kw_only=True)
class SprtStrategy:
    """Wald SPRT with one or two arms.

    With arm_one set the strategy is adaptive: arm zero or arm one is played
    by the sign of the running sum.  With arm_one None, arm_zero is played
    every round and no coin is drawn.

    rate0 is the witnessed per-step rate governing the type-I exponent
    (D(P1||P0) of arm one, or of the only arm); rate1 governs the type-II
    exponent (D(P0||P1) of arm zero).  threshold_a = n (rate0 - tau),
    threshold_b = n (rate1 - tau).  laws, when given, holds each arm's
    outcome laws (p0, p1) already computed, so the tables reuse them.

    The constructor checks, in order: n and block_size are ints >= 1
    (ValueError); each arm's laws are mutually absolutely continuous
    (SupportMismatchError); rate0 and rate1 > 1e-15 (TauTooLargeError);
    tau, which defaults to 0.1 min(rate0, rate1), lies in
    (0, min(rate0, rate1)) (TauTooLargeError).  Nothing downstream
    re-checks them.
    """

    n0: QuantumChannel
    n1: QuantumChannel
    arm_zero: Arm
    arm_one: Arm | None = None
    rate0: float
    rate1: float
    tau: float | None = None
    n: int
    block_size: int = 1
    tables: StrategyTables = field(init=False, repr=False)
    laws: InitVar[list | None] = None

    def __post_init__(self, laws):
        check_count("n", self.n)
        check_count("block_size", self.block_size)
        if laws is None:
            laws = [arm_laws(arm, self.n0, self.n1) for arm in self.arms]
        self.tables = _build_tables(laws)
        # written so that a NaN fails each check
        if not (self.rate0 > 1e-15 and self.rate1 > 1e-15):
            raise TauTooLargeError(f"rates ({self.rate0}, {self.rate1}) not both above 1e-15: the arms are uninformative")
        rate = min(self.rate0, self.rate1)
        if self.tau is None:
            self.tau = 0.1 * rate
        if not 0 < self.tau < rate:
            raise TauTooLargeError(f"tau {self.tau} not in (0, {rate})")

    @property
    def threshold_a(self) -> float:
        return self.n * (self.rate0 - self.tau)

    @property
    def threshold_b(self) -> float:
        return self.n * (self.rate1 - self.tau)

    @property
    def adaptive(self) -> bool:
        return self.arm_one is not None

    @property
    def arms(self) -> list[Arm]:
        return [self.arm_zero, self.arm_one] if self.adaptive else [self.arm_zero]

    def with_budget(self, n: int) -> SprtStrategy:
        """The same strategy with budget n, an int >= 1.  The thresholds
        follow n; the tables do not depend on it and are shared, never
        rebuilt."""
        check_count("n", n)
        strategy = copy.copy(self)
        strategy.n = n
        return strategy


def witness_arms(
    n0: QuantumChannel,
    n1: QuantumChannel,
    l: int = 1,
    cfg: OptimizerConfig | None = None,
) -> tuple[tuple[DivergenceValue, DivergenceValue], list[tuple[Arm, list[np.ndarray]] | None]]:
    """The witness arms of the measured channel pair at block size l.

    Returns the per-use values (D_M(N0||N1), D_M(N1||N0)) of one
    channel_divergence_pair, and for each direction in that order its
    witness arm on the l-fold tensor powers with the arm's outcome laws
    (p0, p1) under them, or None where the witness has no POVM (an infinite
    value).  The adaptive SPRT plays these arms and the adaptive rectangle
    rates them.
    """
    values = channel_divergence_pair(n0, n1, "measured", cfg=cfg, l=l)
    b0, b1 = tensor_power_channel(n0, l), tensor_power_channel(n1, l)
    arms = []
    for dv in values:
        if dv.witness is None or dv.witness.povm is None:
            arms.append(None)
            continue
        arm = Arm(dv.witness.input_state, dv.witness.povm, b0.in_dim)
        arms.append((arm, arm_laws(arm, b0, b1)))
    return values, arms


def build_sprt(
    n0: QuantumChannel,
    n1: QuantumChannel,
    n: int,
    tau: float | None = None,
    cfg: OptimizerConfig | None = None,
    l: int = 1,
) -> SprtStrategy:
    """Construct the adaptive SPRT from measured-divergence witnesses, on
    the l-fold tensor powers with budget n // l block steps.

    n counts channel uses and must be a positive multiple of l
    (check_budgets, ValueError).  Thresholds are computed from the
    witnessed (achieved) arm rates rather than the unknown true suprema, so
    the simulated exponents and the thresholds stay on the same footing.
    tau is per channel use and scaled to the block level; None leaves
    SprtStrategy's default, 0.1 x min(rates).  The reported stopping times
    are per use (block steps x l).  Both directions of the block pair's
    max-divergence must be finite; the max kind's pair is checked before
    the measured pair runs.  Every other rule is SprtStrategy's.
    """
    check_budgets([n], l)
    d01, d10 = channel_divergence_pair(n0, n1, kind="max", l=l)
    if not (d01.is_finite and d10.is_finite):
        raise InfiniteDivergenceError(
            f"max-divergence infinite (finite 0||1: {d01.is_finite}, "
            f"1||0: {d10.is_finite}); the SPRT needs both directions finite"
        )
    _, ((arm_zero, laws0), (arm_one, laws1)) = witness_arms(n0, n1, l, cfg)
    # achieved per-step rates of the arms (certified lower bounds)
    _, rate1 = rate_pair(*laws0)
    rate0, _ = rate_pair(*laws1)
    return SprtStrategy(
        n0=tensor_power_channel(n0, l),
        n1=tensor_power_channel(n1, l),
        arm_zero=arm_zero,
        arm_one=arm_one,
        rate0=rate0,
        rate1=rate1,
        tau=None if tau is None else l * tau,
        n=n // l,
        block_size=l,
        laws=[laws0, laws1],
    )


def build_non_adaptive(
    n0: QuantumChannel,
    n1: QuantumChannel,
    input_state: DensityMatrix,
    m: Povm,
    n: int,
    tau: float | None = None,
) -> SprtStrategy:
    """Fixed-pair SPRT; thresholds from the pair's classical KLs.  Every
    rule (support, rates, tau and its default, n) is SprtStrategy's."""
    arm = Arm(input_state, m, input_state.dim // n0.in_dim)
    p0, p1 = arm_laws(arm, n0, n1)
    rate0, rate1 = rate_pair(p0, p1)
    return SprtStrategy(
        n0=n0, n1=n1, arm_zero=arm, rate0=rate0, rate1=rate1, tau=tau, n=n, laws=[(p0, p1)]
    )


def sample_outcome(cdf: np.ndarray, u: float) -> int:
    return int(np.searchsorted(cdf, u, side="right"))


def step_sprt(
    strategy: SprtStrategy,
    true_channel: QuantumChannel,
    trace: StrategyTrace,
    rng: np.random.Generator,
) -> StrategyTrace:
    """Advance a trace by one step.

    true_channel is one of the strategy's hypotheses, the object
    strategy.n0 or strategy.n1, whose outcome laws the strategy's tables
    hold; any other channel raises ValueError before a uniform is consumed.
    Arm choice: fair coin at k = 1 (adaptive strategies only; one uniform
    consumed), afterwards arm zero iff the running sum is >= 0.  One further
    uniform is consumed per step to sample the outcome.  Its increment is
    finite: the constructor admits only mutually absolutely continuous laws.
    """
    if trace.stopped:
        raise ValueError("trace already stopped")
    hyp = _hypothesis_index(strategy, true_channel)
    if strategy.adaptive:
        if not trace.steps:
            arm = 0 if rng.random() < 0.5 else 1
        else:
            arm = 0 if trace.cumulative >= 0 else 1
    else:
        arm = 0
    tables = strategy.tables
    y = sample_outcome(tables.cdfs[arm, hyp], rng.random())
    z = float(tables.increments[arm, y])
    s = trace.cumulative + z
    trace.steps.append(TraceStep(arm=arm, outcome=y, increment=z, cumulative=s))
    if s >= strategy.threshold_b:
        trace.decision = DECISION_H0
        trace.stopping_time = len(trace.steps)
    elif s <= -strategy.threshold_a:
        trace.decision = DECISION_H1
        trace.stopping_time = len(trace.steps)
    return trace


def _hypothesis_index(strategy: SprtStrategy, true_channel: QuantumChannel) -> int:
    if true_channel is strategy.n0:
        return 0
    if true_channel is strategy.n1:
        return 1
    raise ValueError("true_channel is neither of the strategy's hypotheses, strategy.n0 or strategy.n1")
