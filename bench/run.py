#!/usr/bin/env python3
"""chandisc benchmark: one workload per invocation.

    python3 bench/run.py --workload tester_mc --seed 1 --seconds 10 --trace 0

Builds nothing: it imports chandisc from the checkout's src/ and calls only
the public library API, in this one process, with BLAS pinned to one
thread.  The run computes its oracles (bench/oracles.py, no chandisc), sets
up the workload several times and keeps the median set-up time, then repeats
whole rounds of the workload's operations while the next round still fits in
--seconds (at least one round).  Every operation is checked against the
oracles; a failed check or an exception counts the operation as failed, and
any failure makes the exit code 1.  Times are reference-speed seconds
(bench/clock.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 the layers are wrapped
(bench/tracing.py) and the metrics are the per-layer metrics, per round.
"""

import os

# pin BLAS before numpy loads so timings measure one thread of the program
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
from scipy.stats import binom  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from clock import CalibratedClock  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

SETUP_REPEATS = 25
# standard errors allowed between a Monte-Carlo mean and its exact value, and
# the smallest tail probability accepted for a Monte-Carlo count; a correct
# program fails either about once in 10^9 checks
Z_MC = 6.0
P_MC = 1e-9
# a certified lower bound may exceed the exact value by float rounding only
ROUND_TOL = 1e-9
# an optimizer lower bound on a covariant pair must reach the closed form
MATCH_TOL = 1e-6


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Ledger:
    """Operations attempted and failed; a failure keeps its message."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run(self, label: str, op, *args):
        self.attempted += 1
        try:
            return op(*args)
        except Exception as exc:  # an operation's failure must not end the run
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: " + "".join(traceback.format_exception_only(exc)).strip())
            return None


def import_chandisc() -> SimpleNamespace:
    """Import (again) every chandisc layer from this checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "chandisc" or m.startswith("chandisc.")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"chandisc.{layer}") for layer in LAYERS}
    if Path(mods["linalg"].__file__).resolve().parent != (SRC / "chandisc").resolve():
        raise SystemExit(f"error: chandisc was imported from {mods['linalg'].__file__}")
    return SimpleNamespace(layers=mods, **mods)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def to_block_order(vec: np.ndarray) -> np.ndarray:
    """(R1 A1 R2 A2) -> (R1 R2 A1 A2) for qubit factors."""
    return np.asarray(vec).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(-1)


def effects_of(povm) -> list:
    return [np.asarray(e) for e in povm.effects]


def strategy_round_trip(lib, strategies: list) -> None:
    """Serialize each strategy to JSON text and back; the rebuilt strategy
    must have the same thresholds and identical tables."""
    ser = lib.serialize
    for s in strategies:
        back = ser.strategy_from_json(ser.loads(ser.dumps(ser.strategy_to_json(s))))
        check(back.threshold_a == s.threshold_a and back.threshold_b == s.threshold_b,
              f"thresholds changed in the JSON round trip of {s.n0.label}")
        for field in ("dists", "cdfs", "increments"):
            check(np.array_equal(getattr(back.tables, field), getattr(s.tables, field)),
                  f"tables.{field} changed in the JSON round trip of {s.n0.label}")


def binomial_plausible(count: int, trials: int, p: float) -> bool:
    """Whether `count` successes in `trials` draws are plausible at the exact
    probability p: neither tail of Binomial(trials, p) beyond it is below
    P_MC."""
    return min(binom.cdf(count, trials, p), binom.sf(count - 1, trials, p)) >= P_MC


def wald_ok(summary) -> bool:
    return (summary.alpha_hat <= math.exp(-summary.threshold_a) + 3 * summary.alpha_se
            and summary.beta_hat <= math.exp(-summary.threshold_b) + 3 * summary.beta_se)


def check_wald_and_expectation(summary, what: str) -> None:
    check(wald_ok(summary), f"{what}: Wald bound violated (alpha {summary.alpha_hat}, "
                            f"beta {summary.beta_hat})")
    for h, st in enumerate(summary.per_hyp):
        check(st.mean_stop <= summary.budget + 3 * st.stop_se,
              f"{what}: E[T | H{h}] = {st.mean_stop} over budget {summary.budget}")


# ---------------------------------------------------------------------------
# tester_mc
# ---------------------------------------------------------------------------


class TesterMc:
    """Seeded Monte-Carlo of SPRTs built from analytic arms (no optimizer).

    Bernoulli(0.2)/(0.8) replacers, computational basis: increments +-log 4,
    a lattice walk checked against the exact DP.  dep(0.3)/dep(0.7), Bell
    basis on the maximally entangled input: non-lattice increments, checked
    against the Wald bounds and the expectation constraint.  The l = 2
    product Bell arm on the tensor squares: a block strategy.
    """

    SHORT = (4, 8)
    LONG = (400, 800, 1600)
    SHORT_TRIALS = 4000
    LONG_TRIALS = 1000
    STREAMS = 1000
    BLOCK_TRACES = 8
    TAU_BERN = 0.08

    def __init__(self, seed: int):
        self.seed = seed
        self.figures = Counter()
        self.delta = math.log(4.0)
        pb = (np.array([0.2, 0.8]), np.array([0.8, 0.2]))
        self.rate_bern = oracles.kl(pb[0], pb[1])
        self.laws = {}
        for n in self.SHORT + self.LONG:
            a = n * (self.rate_bern - self.TAU_BERN)
            units = oracles.lattice_units(a, self.delta)
            walk = oracles.LatticeSprt(({1: 0.8, -1: 0.2}, {1: 0.2, -1: 0.8}), units, units, cap=20 * n)
            self.laws[n] = oracles.solve_lattice(walk, budgets=[n])
        # Bell measurement on the maximally entangled input
        self.bell = oracles.bell_basis()
        bell_effects = [np.outer(c, c.conj()) for c in self.bell.T]
        self.p_dep = [oracles.outcome_distribution(oracles.depolarizing(p).choi(), bell_effects)
                      for p in (0.3, 0.7)]
        self.rate0_dep = oracles.kl(self.p_dep[1], self.p_dep[0])
        self.rate1_dep = oracles.kl(self.p_dep[0], self.p_dep[1])
        self.tau_dep = 0.1 * min(self.rate0_dep, self.rate1_dep)
        # product Bell arm on the l = 2 block: product outcome laws
        self.p_block = [np.outer(p, p).reshape(-1) for p in self.p_dep]

    def setup(self, lib):
        q, st = lib.quantum, lib.strategies
        b0, b1 = q.bernoulli_replacer(0.2), q.bernoulli_replacer(0.8)
        d0, d1 = q.depolarizing_channel(0.3), q.depolarizing_channel(0.7)
        zero = q.DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        comp = q.basis_pvm(np.eye(2, dtype=complex), label="computational")
        comp_arm = st.Arm(input_state=zero, povm=comp, ancilla_dim=1)

        def bern_adaptive(n):
            return st.SprtStrategy(n0=b0, n1=b1, arm_zero=comp_arm, arm_one=comp_arm,
                                   rate0=self.rate_bern, rate1=self.rate_bern, tau=self.TAU_BERN, n=n)

        def bern_fixed(n):
            return st.build_non_adaptive(b0, b1, zero, comp, n=n, tau=self.TAU_BERN)

        bell_arm = st.Arm(input_state=q.pure_state(oracles.max_entangled(2)),
                          povm=q.basis_pvm(self.bell, label="bell"), ancilla_dim=2)
        dep = st.SprtStrategy(n0=d0, n1=d1, arm_zero=bell_arm, arm_one=bell_arm, rate0=self.rate0_dep,
                              rate1=self.rate1_dep, tau=self.tau_dep, n=self.LONG[0])
        product = np.stack([to_block_order(np.kron(a, b)) for a in self.bell.T for b in self.bell.T], axis=1)
        phi2 = to_block_order(np.kron(oracles.max_entangled(2), oracles.max_entangled(2)))
        block_arm = st.Arm(input_state=q.pure_state(phi2), povm=q.basis_pvm(product, label="bell^2"),
                           ancilla_dim=4)
        block = st.SprtStrategy(n0=q.tensor_power_channel(d0, 2), n1=q.tensor_power_channel(d1, 2),
                                arm_zero=block_arm, arm_one=block_arm, rate0=2 * self.rate0_dep,
                                rate1=2 * self.rate1_dep, tau=2 * self.tau_dep, n=self.LONG[0] // 2,
                                block_size=2)
        short = [(f"bernoulli adaptive n={n}", bern_adaptive(n)) for n in self.SHORT]
        short += [(f"bernoulli non-adaptive n={n}", bern_fixed(n)) for n in self.SHORT]
        return SimpleNamespace(short=short, bern=bern_adaptive(self.LONG[0]), dep=dep, block=block)

    # -- checks ------------------------------------------------------------

    def check_against_dp(self, summary, n: int, what: str) -> None:
        law = self.laws[n]
        for h, st in enumerate(summary.per_hyp):
            check(binomial_plausible(st.errors, st.trials, law.error[h]),
                  f"{what}: error rate under H{h} {st.error_rate} vs exact {law.error[h]}")
            check(binomial_plausible(round(st.overshoot * st.trials), st.trials, law.over[n][h]),
                  f"{what}: P(T > n | H{h}) {st.overshoot} vs exact {law.over[n][h]}")
            stop_se = math.sqrt(law.var_stop[h] / st.trials)
            check(abs(st.mean_stop - law.mean_stop[h]) <= Z_MC * stop_se + 1e-9,
                  f"{what}: E[T | H{h}] {st.mean_stop} vs exact {law.mean_stop[h]}")

    def check_tables(self, ctx) -> None:
        for s in [s for _, s in ctx.short] + [ctx.bern]:
            expect = np.array([[0.2, 0.8], [0.8, 0.2]])
            check(np.allclose(s.tables.dists[0], expect, rtol=0, atol=1e-12),
                  "Bernoulli outcome laws differ from the replacer outputs")
            check(np.allclose(s.tables.increments[0], [-self.delta, self.delta], rtol=0, atol=1e-12),
                  "Bernoulli increments are not +-log 4")
        for s, laws in ((ctx.dep, self.p_dep), (ctx.block, self.p_block)):
            for h in (0, 1):
                check(np.allclose(s.tables.dists[0, h], laws[h], rtol=0, atol=1e-12),
                      f"{s.n0.label}: outcome law under H{h} differs from the oracle")

    # -- one round ---------------------------------------------------------

    def simulate(self, clock, fn, *args):
        """Call a Monte-Carlo entry point, adding its time, channel uses and
        traces to the round's figures."""
        t0 = clock.now()
        out = fn(*args)
        self.figures["mc_s"] += clock.now() - t0
        for summary in [out] if hasattr(out, "per_hyp") else [rec.summary for rec in out]:
            for st in summary.per_hyp:
                self.figures["uses"] += round(st.mean_stop * st.trials)
                self.figures["trials"] += st.trials
        return out

    def report(self, scale: float, rounds: int) -> dict:
        mc_s = self.figures["mc_s"] * scale
        return {"mc_uses_per_s": (self.figures["uses"] / mc_s, "1/s"),
                "mc_trials_per_s": (self.figures["trials"] / mc_s, "1/s")}

    def round(self, lib, ctx, ledger: Ledger, clock) -> None:
        sim = lib.sim
        seed = self.seed
        first = {}

        def short_plan(label, strat):
            summary = self.simulate(clock, sim.run_trials, sim.SimulationPlan(
                strategy=strat, trials=self.SHORT_TRIALS, base_seed=seed))
            self.check_against_dp(summary, strat.n, label)
            check(wald_ok(summary), f"{label}: Wald bound violated")
            first[label] = summary
            return summary

        for label, strat in ctx.short:
            ledger.run(label, short_plan, label, strat)

        def sweep_lattice():
            recs = self.simulate(clock, sim.sweep_budgets, ctx.bern, list(self.LONG), self.LONG_TRIALS, seed + 1)
            for rec in recs:
                self.check_against_dp(rec.summary, rec.n, f"bernoulli sweep n={rec.n}")
                check_wald_and_expectation(rec.summary, f"bernoulli sweep n={rec.n}")
            return recs

        def sweep_plain(strat, label, base_seed):
            recs = self.simulate(clock, sim.sweep_budgets, strat, list(self.LONG), self.LONG_TRIALS, base_seed)
            for rec in recs:
                check(rec.summary.budget == rec.n, f"{label}: budget {rec.summary.budget} != {rec.n}")
                check_wald_and_expectation(rec.summary, f"{label} n={rec.n}")
            return recs

        def block_stops():
            # a one-trace plan's mean stop is that trace's stop time
            strat = ctx.block
            for k in range(self.BLOCK_TRACES):
                summary = self.simulate(clock, sim.run_trials, sim.SimulationPlan(
                    strategy=strat, trials=1, base_seed=seed + 4 + k))
                for h, st in enumerate(summary.per_hyp):
                    check(st.mean_stop % strat.block_size == 0,
                          f"block l={strat.block_size}: trace {k} under H{h} stops after "
                          f"{st.mean_stop} uses")

        lattice = ledger.run("bernoulli sweep", sweep_lattice)
        dep = ledger.run("depolarizing sweep", sweep_plain, ctx.dep, "depolarizing", seed + 2)
        block = ledger.run("block sweep", sweep_plain, ctx.block, "block l=2", seed + 3)
        ledger.run("block stop times", block_stops)

        def rerun():
            label, strat = ctx.short[-1]
            again = self.simulate(clock, sim.run_trials, sim.SimulationPlan(
                strategy=strat, trials=self.SHORT_TRIALS, base_seed=seed))
            check(label in first and again == first[label],
                  f"{label}: a rerun with the same seed gives another summary")
            # every (hypothesis, trial) owns its own stream; the unwrapped
            # function keeps the traced sim.trial_rng figures to run_trials
            trial_rng = getattr(sim.trial_rng, "__wrapped__", sim.trial_rng)
            draws = {trial_rng(seed, h, t).random() for h in (0, 1) for t in range(self.STREAMS)}
            check(len(draws) == 2 * self.STREAMS, "trial RNG streams repeat")

        ledger.run("rerun", rerun)

        def serialize():
            self.check_tables(ctx)
            strategy_round_trip(lib, [s for _, s in ctx.short] + [ctx.bern, ctx.dep, ctx.block])
            ser = lib.serialize
            texts = [ser.summary_to_csv(summary) for summary in first.values()]
            texts += [ser.sweep_to_csv(recs) for recs in (lattice, dep, block) if recs]
            check(all(texts), "empty CSV")

        ledger.run("serialize", serialize)


# ---------------------------------------------------------------------------
# qubit_divergence
# ---------------------------------------------------------------------------


class QubitDivergence:
    """channel_divergence of every kind on qubit pairs, and build_sprt with
    the default optimizer config; no Monte-Carlo.

    --seed draws the random full-rank pair.  The optimizer keeps seed 0, as
    in block_regions, so that the covariant pairs cost the same in every run
    and the spread of the runs stays small.
    """

    KINDS = (("relative", None), ("measured", None), ("max", None), ("renyi", 1.5), ("renyi", 2.0))
    # channel_divergence runs with the optimizer budget of the region chain
    RESTARTS, MAX_ITERS = 4, 100
    SPRT_N = 400

    def __init__(self, seed: int):
        self.seed = seed
        self.figures = Counter()
        self.sprt_s: list[float] = []
        rng = np.random.default_rng([seed, 0x51])
        self.random_kraus = (oracles.haar_channel_kraus(rng), oracles.haar_channel_kraus(rng))
        ch = {
            "dep(0.3)": oracles.depolarizing(0.3),
            "dep(0.7)": oracles.depolarizing(0.7),
            "dephasing(0.2)": oracles.dephasing(0.2),
            "dephasing(0.6)": oracles.dephasing(0.6),
            "random0": oracles.kraus_channel(self.random_kraus[0]),
            "random1": oracles.kraus_channel(self.random_kraus[1]),
            "bern(0.2)": oracles.bernoulli_replacer(0.2),
            "bern(0.8)": oracles.bernoulli_replacer(0.8),
        }
        self.oracle_ch = ch
        self.pairs = [("dep(0.3)", "dep(0.7)"), ("dep(0.7)", "dep(0.3)"),
                      ("dephasing(0.2)", "dephasing(0.6)"), ("random0", "random1")]
        self.values = {}
        for a, b in self.pairs + [("bern(0.2)", "bern(0.8)"), ("bern(0.8)", "bern(0.2)")]:
            self.values[a, b] = oracles.choi_values(ch[a].choi(), ch[b].choi())
        # for the random pair: the measured value of the eigenbasis measurement
        # of log J0 - log J1 at the maximally entangled input (a lower bound)
        j0, j1 = ch["random0"].choi(), ch["random1"].choi()
        _, basis = np.linalg.eigh(_logm(j0) - _logm(j1))
        self.random_measured_floor = oracles.kl(
            oracles.outcome_distribution(j0, [np.outer(c, c.conj()) for c in basis.T]),
            oracles.outcome_distribution(j1, [np.outer(c, c.conj()) for c in basis.T]))

    def setup(self, lib):
        q = lib.quantum
        chans = {
            "dep(0.3)": q.depolarizing_channel(0.3),
            "dep(0.7)": q.depolarizing_channel(0.7),
            "dephasing(0.2)": q.dephasing_channel(0.2),
            "dephasing(0.6)": q.dephasing_channel(0.6),
            "random0": q.QuantumChannel(list(self.random_kraus[0]), label="random0"),
            "random1": q.QuantumChannel(list(self.random_kraus[1]), label="random1"),
            "bern(0.2)": q.bernoulli_replacer(0.2),
            "bern(0.8)": q.bernoulli_replacer(0.8),
        }
        cfg = lib.optimize.OptimizerConfig(restarts=self.RESTARTS, max_iters=self.MAX_ITERS)
        return SimpleNamespace(ch=chans, cfg=cfg)

    def check_divergence(self, dv, a: str, b: str, kind: str, alpha, tol: float) -> None:
        what = f"{kind}{'' if alpha is None else alpha}({a}||{b})"
        vals = self.values[a, b]
        check(dv.is_finite and math.isfinite(dv.value), f"{what}: not finite")
        exact = {"relative": vals.relative, "max": vals.max}.get(kind)
        if kind == "renyi":
            exact = vals.renyi[alpha]
        if kind == "max":
            check(not dv.is_lower_bound and abs(dv.value - exact) <= ROUND_TOL,
                  f"{what}: {dv.value} vs the Choi D_max {exact}")
        elif vals.commuting:
            # covariant pair: the maximally entangled input is optimal, D_M = D
            if kind == "measured":
                exact = vals.measured
            check(dv.is_lower_bound and dv.value <= exact + ROUND_TOL,
                  f"{what}: lower bound {dv.value} above the closed form {exact}")
            check(dv.value >= exact - MATCH_TOL, f"{what}: {dv.value} misses the closed form {exact}")
        else:
            floor = self.random_measured_floor if kind == "measured" else exact
            check(dv.is_lower_bound and floor - ROUND_TOL <= dv.value <= vals.max + ROUND_TOL,
                  f"{what}: {dv.value} outside [{floor}, D_max {vals.max}]")
        # the witness re-evaluates to the reported value
        s0 = self.oracle_ch[a].at_pure(dv.witness.input_vector)
        s1 = self.oracle_ch[b].at_pure(dv.witness.input_vector)
        if kind == "measured":
            eff = effects_of(dv.witness.povm)
            again = oracles.kl(oracles.outcome_distribution(s0, eff), oracles.outcome_distribution(s1, eff))
        elif kind == "relative":
            again = oracles.rel_entropy(s0, s1)
        elif kind == "renyi":
            again = oracles.sandwiched_renyi(s0, s1, alpha)
        else:
            again = oracles.max_divergence(s0, s1)
        check(abs(again - dv.value) <= tol, f"{what}: witness re-evaluates to {again}, reported {dv.value}")

    def check_sprt(self, s, a: str, b: str) -> None:
        arms = (s.arm_zero, s.arm_one)
        laws = []
        for arm in arms:
            eff = effects_of(arm.povm)
            laws.append([oracles.outcome_distribution(self.oracle_ch[c].apply(arm.input_state.mat), eff)
                         for c in (a, b)])
        rate1 = oracles.kl(laws[0][0], laws[0][1])
        rate0 = oracles.kl(laws[1][1], laws[1][0])
        check(math.isclose(s.rate1, rate1, rel_tol=1e-9) and math.isclose(s.rate0, rate0, rel_tol=1e-9),
              f"build_sprt({a}, {b}): rates ({s.rate0}, {s.rate1}) vs arm KLs ({rate0}, {rate1})")
        for got, exact in ((s.rate0, self.values[b, a].measured), (s.rate1, self.values[a, b].measured)):
            check(exact - MATCH_TOL <= got <= exact + ROUND_TOL,
                  f"build_sprt({a}, {b}): rate {got} vs D_M {exact}")
        check(s.threshold_a == s.n * (s.rate0 - s.tau) and s.threshold_b == s.n * (s.rate1 - s.tau),
              f"build_sprt({a}, {b}): thresholds")

    def report(self, scale: float, rounds: int) -> dict:
        return {"divergence_s": (self.figures["divergence_s"] * scale / rounds, "s"),
                "build_sprt_s": (statistics.median(self.sprt_s or [math.nan]) * scale, "s")}

    def round(self, lib, ctx, ledger: Ledger, clock) -> None:
        div = lib.divergences
        for a, b in self.pairs:
            for kind, alpha in self.KINDS:

                def op(a=a, b=b, kind=kind, alpha=alpha):
                    t0 = clock.now()
                    dv = div.channel_divergence(ctx.ch[a], ctx.ch[b], kind=kind, alpha=alpha, cfg=ctx.cfg)
                    self.figures["divergence_s"] += clock.now() - t0
                    self.check_divergence(dv, a, b, kind, alpha, ctx.cfg.cross_check_tol)

                ledger.run(f"{kind} {a}||{b}", op)
        built = []
        for a, b in (("bern(0.2)", "bern(0.8)"), ("dep(0.3)", "dep(0.7)")):

            def op(a=a, b=b):
                t0 = clock.now()
                s = lib.strategies.build_sprt(ctx.ch[a], ctx.ch[b], n=self.SPRT_N)
                self.sprt_s.append(clock.now() - t0)
                self.check_sprt(s, a, b)
                built.append(s)

            ledger.run(f"build_sprt {a}||{b}", op)
        ledger.run("serialize", strategy_round_trip, lib, built)


def _logm(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * np.log(w)) @ v.conj().T


# ---------------------------------------------------------------------------
# block_regions
# ---------------------------------------------------------------------------


class BlockRegions:
    """region_chain(dep(0.3), dep(0.7), l_max=2) with the acceptance suite's
    optimizer config: 16-dimensional block inputs, the Renyi converse stage,
    tensor powers and hull sampling.  The alpha grid keeps two of the
    acceptance suite's three orders: each order costs about a fifth of the
    chain, and with two a run stays near a minute on a slow 2-core machine.

    The inputs do not depend on --seed: the config keeps its own optimizer
    seed (0), because the converse stage's cost moves by half from one
    optimizer seed to another (38k to 57k objective evaluations), which would
    drown every change in the spread of the runs.
    """

    ALPHAS = (1.1, 1.5)
    RESTARTS, MAX_ITERS = 4, 100
    SAMPLES = 256
    SLACK = 1e-3

    def __init__(self, seed: int):
        self.figures = Counter()
        j0, j1 = oracles.depolarizing(0.3).choi(), oracles.depolarizing(0.7).choi()
        v01 = oracles.choi_values(j0, j1, alphas=self.ALPHAS)
        v10 = oracles.choi_values(j1, j0, alphas=self.ALPHAS)
        # per-use coordinates (R0, R1) = (direction 1||0, direction 0||1); all
        # are additive on the tensor powers of this covariant pair
        self.measured = (v10.measured, v01.measured)
        self.renyi_min = (min(v10.renyi.values()), min(v01.renyi.values()))
        self.dmax = (v10.max, v01.max)

    def setup(self, lib):
        q = lib.quantum
        cfg = lib.optimize.OptimizerConfig(restarts=self.RESTARTS, max_iters=self.MAX_ITERS)
        return SimpleNamespace(n0=q.depolarizing_channel(0.3), n1=q.depolarizing_channel(0.7), cfg=cfg)

    def check_chain(self, chain) -> None:
        for l, region in chain.adaptive.items():
            (x, y), = region.frontier
            for got, exact, axis in ((x, self.measured[0], "R0"), (y, self.measured[1], "R1")):
                check(exact - MATCH_TOL <= got <= exact + ROUND_TOL,
                      f"adaptive l={l} {axis} corner {got} vs closed-form D_M {exact}")
        for x, y in chain.non_adaptive.frontier:
            check(x <= self.measured[0] + ROUND_TOL and y <= self.measured[1] + ROUND_TOL
                  and x <= self.dmax[0] and y <= self.dmax[1],
                  f"hull vertex ({x}, {y}) above the channel D_M / D_max")
        (cx, cy), = chain.converse.frontier
        check(cx <= self.renyi_min[0] + ROUND_TOL and cy <= self.renyi_min[1] + ROUND_TOL
              and cx <= self.dmax[0] and cy <= self.dmax[1],
              f"converse corner ({cx}, {cy}) above min_alpha D_alpha {self.renyi_min}")
        (ax, ay), = chain.adaptive[max(chain.adaptive)].frontier
        check(cx >= ax and cy >= ay, f"converse corner ({cx}, {cy}) misses the adaptive corner ({ax}, {ay})")
        for key, rep in chain.containments.items():
            check(rep.contained, f"containment {key} fails: {rep.violations}")

    def report(self, scale: float, rounds: int) -> dict:
        return {"region_chain_s": (self.figures["region_chain_s"] * scale / rounds, "s")}

    def round(self, lib, ctx, ledger: Ledger, clock) -> None:
        def op():
            t0 = clock.now()
            chain = lib.regions.region_chain(ctx.n0, ctx.n1, cfg=ctx.cfg, l_max=2, alpha_grid=self.ALPHAS,
                                             samples=self.SAMPLES, slack=self.SLACK)
            self.figures["region_chain_s"] += clock.now() - t0
            self.check_chain(chain)
            return chain

        chain = ledger.run("region_chain", op)

        def serialize():
            ser = lib.serialize
            named = [("nonAdaptive", chain.non_adaptive), ("converse", chain.converse)]
            named += [(f"adaptive{l}", r) for l, r in chain.adaptive.items()]
            for name, region in named:
                back = ser.region_from_json(ser.loads(ser.dumps(ser.region_to_json(region))))
                check(back.frontier == [tuple(map(float, v)) for v in region.frontier],
                      f"{name}: frontier changed in the JSON round trip")
                check(len(ser.region_to_csv(region, name)) > 0, f"{name}: empty CSV")
            check(len(ser.regions_long_csv(named).splitlines()) == 1 + sum(len(r.frontier) for _, r in named),
                  "long CSV row count")

        if chain is None:
            ledger.run("serialize", _skipped, "region_chain failed")
        else:
            ledger.run("serialize", serialize)


def _skipped(why: str) -> None:
    raise CheckFailed(why)


WORKLOADS = {"tester_mc": TesterMc, "qubit_divergence": QubitDivergence, "block_regions": BlockRegions}


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "chandisc" / "__init__.py").is_file():
        raise SystemExit(f"error: no chandisc sources under {SRC}")
    spec = load_spec()

    bad_oracles = oracles.self_test()
    for msg in bad_oracles:
        print(f"oracle self-test failed: {msg}", file=sys.stderr)
    workload = WORKLOADS[args.workload](args.seed)

    clock = CalibratedClock()
    setup_times = []
    with clock:
        for _ in range(SETUP_REPEATS):
            t0 = clock.now()
            lib = import_chandisc()
            ctx = workload.setup(lib)
            setup_times.append(clock.now() - t0)
    setup_s = statistics.median(setup_times) * clock.scale

    def timed_round() -> float:
        """One round, in reference-speed seconds; each round is scaled by the
        machine's speed while it ran."""
        with clock:
            t0 = clock.now()
            workload.round(lib, ctx, ledger, clock)
            elapsed = clock.now() - t0
        scales.append(clock.scale)
        return elapsed * clock.scale

    ledger = Ledger()
    scales: list[float] = []
    tracer = None
    if args.trace:
        tracer = Tracer(clock.now)
        tracer.install(lib.layers)
    rounds = []
    wall_start = time.perf_counter()
    last_raw = 0.0
    try:
        # whole rounds while the next one, as long as the last, still fits
        while not rounds or time.perf_counter() - wall_start + last_raw <= args.seconds:
            t0 = time.perf_counter()
            rounds.append(timed_round())
            last_raw = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall_raw = time.perf_counter() - wall_start
    wall_s = statistics.median(rounds)
    scale = statistics.fmean(scales)

    if tracer is None:
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    else:
        values = per_layer_values(tracer.metrics(), len(rounds), scale)
        values["trace.wall_s"] = wall_s
        wanted = spec["per_layer"]
    metrics = {}
    for m in wanted:
        if tracer is None and m["name"] not in values:
            raise SystemExit(f"error: metric {m['name']} was not measured")
        # a span or counter that a workload never reaches reads 0
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}

    correct = ledger.failed == 0 and not bad_oracles
    for msg in ledger.messages:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={len(rounds)} "
          f"attempted={ledger.attempted} failed={ledger.failed}")
    print(f"# timed section {wall_raw:.3f} s of wall time; machine speed factor {scale:.4f} "
          f"(reference-speed s per wall s, bench/clock.py)")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    if tracer is None:
        for name, (value, unit) in workload.report(scale, len(rounds)).items():
            print(f"# {name} = {value:.6g} {unit} (not in the result line: {args.workload} only)")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def per_layer_values(raw: dict, rounds: int, scale: float) -> dict:
    """Per-round values of the traced run, times in reference-speed seconds.
    Counts of identical rounds divide exactly; names never called read 0."""
    out = {}
    for key, v in raw.items():
        if key.endswith((".s", "_s")):
            out[key] = v * scale / rounds
        else:
            out[key] = v // rounds if v % rounds == 0 else v / rounds
    div_s = sum(out.get(f"divergences.channel_divergence.{k}.s", 0.0)
                for k in ("relative", "measured", "renyi", "max"))
    out["divergences.channel_divergence.s"] = div_s
    sim_s = out.get("sim.run_trials.s", 0.0)
    out["sim.uses_per_s"] = out.get("sim.uses", 0) / sim_s if sim_s else 0.0
    out["sim.trials_per_s"] = out.get("sim.trials", 0) / sim_s if sim_s else 0.0
    return out


if __name__ == "__main__":
    sys.exit(main())
