"""Executable discrimination strategies.

One Wald SPRT type with one or two arms, each an (input state, POVM) pair.
The adaptive SPRT plays two arms, each witnessing one direction of the
measured channel divergence at the strategy's block size (witness_arms, the
one stage that the adaptive rectangle rates too), and picks one by the sign
of the running sum (ties to arm zero); the non-adaptive SPRT plays its one
arm every round.  The accumulated sum of per-step log-likelihood
increments drives the stopping rule (first exit from (-A_n, B_n)).
arm_laws is the one map from an arm to its outcome laws.
"""

from __future__ import annotations

import copy
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .divergences import DivergenceValue, channel_divergence_pair
from .errors import (
    DimensionOverflowError,
    InfiniteDivergenceError,
    SupportMismatchError,
    TauTooLargeError,
    ZeroProbabilityOutcomeError,
)
from .optimize import NEGLIGIBLE_PROB, OptimizerConfig, kl_rows
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
    NEGLIGIBLE_PROB are rounding noise: set to 0, as the rates drop them."""
    dists = np.zeros((len(laws), 2, max(law[0].size for law in laws)))
    for i, law in enumerate(laws):
        dists[i, :, : law[0].size] = law
    dists = np.where(dists > NEGLIGIBLE_PROB, dists, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(dists)
        # outcomes of probability 0 under both laws are never sampled
        incs = np.where((dists <= 0).all(axis=1), 0.0, logs[:, 0] - logs[:, 1])
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
    """

    n0: QuantumChannel
    n1: QuantumChannel
    arm_zero: Arm
    arm_one: Arm | None = None
    rate0: float
    rate1: float
    tau: float
    n: int
    block_size: int = 1
    tables: StrategyTables = field(init=False, repr=False)
    laws: InitVar[list | None] = None

    def __post_init__(self, laws):
        if self.tau <= 0 or self.tau >= min(self.rate0, self.rate1):
            raise TauTooLargeError(
                f"tau {self.tau} not in (0, {min(self.rate0, self.rate1)})"
            )
        if laws is None:
            laws = [arm_laws(arm, self.n0, self.n1) for arm in self.arms]
        self.tables = _build_tables(laws)

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
        """The same strategy with budget n.  The thresholds follow n; the
        tables do not depend on it and are shared, never rebuilt."""
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
    the l-fold tensor powers with budget floor(n/l) block steps.

    Thresholds are computed from the witnessed (achieved) arm rates rather
    than the unknown true suprema, so the simulated exponents and the
    thresholds stay on the same footing.  tau is per channel use and scaled
    to the block level; it defaults to 0.1 x min(rates).  The reported
    stopping times are per use (block steps x l).  Both directions of the
    block pair's max-divergence must be finite; the max kind's pair is
    checked before the measured pair runs.
    """
    if l > 1 and n < l:
        raise DimensionOverflowError(f"budget {n} smaller than block size {l}")
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
    if min(rate0, rate1) <= 0:
        raise TauTooLargeError("witnessed rates are zero; channels indistinguishable")
    return SprtStrategy(
        n0=tensor_power_channel(n0, l),
        n1=tensor_power_channel(n1, l),
        arm_zero=arm_zero,
        arm_one=arm_one,
        rate0=rate0,
        rate1=rate1,
        tau=0.1 * min(rate0, rate1) if tau is None else l * tau,
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
    """Fixed-pair SPRT; thresholds from the pair's classical KLs."""
    arm = Arm(input_state, m, input_state.dim // n0.in_dim)
    p0, p1 = arm_laws(arm, n0, n1)
    if np.any((p0 > NEGLIGIBLE_PROB) != (p1 > NEGLIGIBLE_PROB)):
        raise SupportMismatchError("induced distributions not mutually absolutely continuous")
    rate0, rate1 = rate_pair(p0, p1)
    if min(rate0, rate1) <= 1e-15:
        raise TauTooLargeError("measurement is uninformative (zero KL both ways)")
    if tau is None:
        tau = 0.1 * min(rate0, rate1)
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

    Arm choice: fair coin at k = 1 (adaptive strategies only; one uniform
    consumed), afterwards arm zero iff the running sum is >= 0.  One further
    uniform is consumed per step to sample the outcome.
    """
    if trace.stopped:
        raise ValueError("trace already stopped")
    if strategy.adaptive:
        if not trace.steps:
            arm = 0 if rng.random() < 0.5 else 1
        else:
            arm = 0 if trace.cumulative >= 0 else 1
    else:
        arm = 0
    tables = strategy.tables
    hyp = _hypothesis_index(strategy, true_channel)
    if hyp is None:
        p, = arm_laws(strategy.arms[arm], true_channel)
        cdf = outcome_cdf(p)
    else:
        cdf = tables.cdfs[arm, hyp]
    y = sample_outcome(cdf, rng.random())
    z = float(tables.increments[arm, y])
    if not math.isfinite(z):
        raise ZeroProbabilityOutcomeError(
            f"outcome {y} has zero probability under one hypothesis"
        )
    s = trace.cumulative + z
    trace.steps.append(TraceStep(arm=arm, outcome=y, increment=z, cumulative=s))
    if s >= strategy.threshold_b:
        trace.decision = DECISION_H0
        trace.stopping_time = len(trace.steps)
    elif s <= -strategy.threshold_a:
        trace.decision = DECISION_H1
        trace.stopping_time = len(trace.steps)
    return trace


def _hypothesis_index(strategy: SprtStrategy, true_channel: QuantumChannel) -> int | None:
    if true_channel is strategy.n0:
        return 0
    if true_channel is strategy.n1:
        return 1
    return None
