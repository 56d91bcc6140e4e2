"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line (visible with pytest -s / in failure
output) and asserts the criterion.  Criterion 1 contains a sub-check that is
mathematically unattainable for this channel pair (see the assertion message
in test_acceptance_1); it is kept faithful rather than weakened.
"""

import json
import math
import time

import numpy as np
import pytest

from chandisc.divergences import (
    _dot_rows,
    _max_divs,
    channel_divergence,
    max_div_states,
    measured_rel_entropy_states,
    rel_entropy_states,
    sandwiched_renyi_states,
)
from chandisc.optimize import OptimizerConfig, _adjoint, kl_divergence
from chandisc.quantum import (
    DensityMatrix,
    _apply_to_pure,
    bernoulli_replacer,
    depolarizing_channel,
    identity_channel,
    max_entangled_vector,
    random_channel,
    random_density_matrix,
)
from chandisc.regions import region_chain
from chandisc.sim import SimulationPlan, run_trials, sweep_budgets, trial_rng
from chandisc.strategies import StrategyTrace, build_sprt, step_sprt

CLASSICAL_KL = 0.2 * math.log(0.2 / 0.8) + 0.8 * math.log(0.8 / 0.2)  # 0.83178 nats


def report(criterion: int, passed: bool, detail: str = "") -> str:
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return line


@pytest.fixture(scope="module")
def classical_sprt():
    n0 = bernoulli_replacer(0.2)
    n1 = bernoulli_replacer(0.8)
    return build_sprt(n0, n1, n=400, tau=0.08, cfg=OptimizerConfig(restarts=2, max_iters=60))


def test_acceptance_1_classical_sprt(classical_sprt):
    """Bernoulli(0.2) vs Bernoulli(0.8) replacer pair: Wald bounds, mean
    stopping time below budget, and overshoot probability below 5%."""
    t0 = time.time()
    strat = classical_sprt
    assert abs(strat.rate0 - CLASSICAL_KL) < 1e-9
    assert abs(strat.rate1 - CLASSICAL_KL) < 1e-9

    plan = SimulationPlan(strategy=strat, trials=5000, base_seed=20240823)
    summary = run_trials(plan)
    elapsed = time.time() - t0

    wald_ok = (
        summary.alpha_hat <= math.exp(-summary.threshold_a) + 3 * summary.alpha_se
        and summary.beta_hat <= math.exp(-summary.threshold_b) + 3 * summary.beta_se
    )
    mean_ok = all(s.mean_stop < 400 for s in summary.per_hyp)
    overshoot = [s.overshoot for s in summary.per_hyp]
    overshoot_ok = all(p < 0.05 for p in overshoot)
    time_ok = elapsed < 60.0

    detail = (
        f"wald={wald_ok} mean_stop={mean_ok} "
        f"P(T>n)={overshoot} overshoot_ok={overshoot_ok} runtime={elapsed:.1f}s"
    )
    report(1, wald_ok and mean_ok and overshoot_ok and time_ok, detail)
    assert wald_ok, "Wald bounds violated"
    assert mean_ok, "mean stopping time exceeds budget"
    assert time_ok, f"runtime {elapsed:.1f}s over 60s target"
    # Unattainable for this pair: the increments are +/- log 4, so the sum is
    # a lattice random walk; exact first-passage computation gives
    # P(T > 400) = 0.0719 at thresholds 400*(0.8318 - 0.08), which exceeds
    # the 0.05 target (the expectation constraint holds with room: E[T]
    # is about 0.90 n).  Kept faithful instead of loosening the bound.
    assert overshoot_ok, f"P(T > n) = {overshoot} not below 0.05"


def test_acceptance_2_divergence_ordering():
    """D_M <= D <= D_1.5 <= D_2 <= D_max over random qubit pairs; D_M = D on
    commuting pairs."""
    rng = np.random.default_rng(7)
    cfg = OptimizerConfig(restarts=4)
    violations = []
    for i in range(200):
        r0 = random_density_matrix(2, rng)
        r1 = random_density_matrix(2, rng)
        dm = measured_rel_entropy_states(r0, r1, cfg).value
        d = rel_entropy_states(r0, r1).value
        d15 = sandwiched_renyi_states(r0, r1, 1.5).value
        d2 = sandwiched_renyi_states(r0, r1, 2.0).value
        dmax = max_div_states(r0, r1).value
        chain = [dm, d, d15, d2, dmax]
        if any(a > b + 1e-6 for a, b in zip(chain, chain[1:])):
            violations.append((i, chain))
    commuting_worst = 0.0
    for _ in range(50):
        p, q = rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98)
        r0 = DensityMatrix(np.diag([p, 1 - p]))
        r1 = DensityMatrix(np.diag([q, 1 - q]))
        dm = measured_rel_entropy_states(r0, r1, cfg).value
        d = rel_entropy_states(r0, r1).value
        commuting_worst = max(commuting_worst, abs(dm - d))
    ok = not violations and commuting_worst <= 1e-5
    report(2, ok, f"{len(violations)} ordering violations, commuting gap {commuting_worst:.2e}")
    assert not violations, violations[:3]
    assert commuting_worst <= 1e-5


def test_acceptance_3_measured_cross_validation():
    """The variational program and the KL of its witness PVM agree on
    random qubit pairs and reproduce the classical KL on diagonal pairs."""
    rng = np.random.default_rng(11)
    cfg = OptimizerConfig(restarts=4)
    worst_gap = 0.0
    for _ in range(100):
        r0 = random_density_matrix(2, rng)
        r1 = random_density_matrix(2, rng)
        w = measured_rel_entropy_states(r0, r1, cfg).witness
        worst_gap = max(worst_gap, abs(w.variational_value - w.pvm_value))
    worst_diag = 0.0
    for _ in range(20):
        p, q = rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98)
        kl = kl_divergence([p, 1 - p], [q, 1 - q])
        w = measured_rel_entropy_states(
            DensityMatrix(np.diag([p, 1 - p])), DensityMatrix(np.diag([q, 1 - q])), cfg
        ).witness
        worst_diag = max(worst_diag, abs(w.variational_value - kl), abs(w.pvm_value - kl))
    ok = worst_gap <= 1e-4 and worst_diag <= 1e-6
    report(3, ok, f"estimator gap {worst_gap:.2e}, diagonal gap {worst_diag:.2e}")
    assert worst_gap <= 1e-4
    assert worst_diag <= 1e-6


def test_acceptance_4_channel_max_divergence():
    """The Choi-pair max-divergence dominates every sampled input and is
    attained at the maximally entangled input.  Each pair's 10,000 inputs
    are rated as one stack: one pure-input map per channel and one stacked
    D_max."""
    rng = np.random.default_rng(13)
    phi = max_entangled_vector(2)
    worst_margin = math.inf
    worst_attain = 0.0
    for _ in range(20):
        a = random_channel(2, 2, 4, rng)
        b = random_channel(2, 2, 4, rng)
        choi_val = channel_divergence(a, b, kind="max").value
        # the draws of 10,000 inputs taken one at a time (real, then imaginary
        # parts), normalized and made Hermitian as DensityMatrix does each
        parts = rng.standard_normal((10_000, 2, 4))
        v = parts[:, 0] + 1j * parts[:, 1]
        v /= np.sqrt(_dot_rows(v.real, v.real) + _dot_rows(v.imag, v.imag))[:, None]
        s0, s1 = (0.5 * (s + _adjoint(s)) for s in (_apply_to_pure(a, v), _apply_to_pure(b, v)))
        sampled = _max_divs(s0, np.linalg.eigh(s1)).max()
        at_phi = max_div_states(
            DensityMatrix(_apply_to_pure(a, phi)), DensityMatrix(_apply_to_pure(b, phi))
        ).value
        worst_margin = min(worst_margin, choi_val - sampled)
        worst_attain = max(worst_attain, abs(choi_val - at_phi))
    ok = worst_margin >= -1e-6 and worst_attain <= 1e-3
    report(4, ok, f"dominance margin {worst_margin:.2e}, attainment gap {worst_attain:.2e}")
    assert worst_margin >= -1e-6
    assert worst_attain <= 1e-3


def test_acceptance_5_covariant_optimizer_check():
    """Identity vs depolarizing(0.5): the input optimizer reaches the
    closed-form relative entropy -log(0.625)."""
    expect = -math.log(0.625)
    dv = channel_divergence(
        identity_channel(2),
        depolarizing_channel(0.5),
        kind="relative",
        cfg=OptimizerConfig(restarts=4, max_iters=100),
    )
    phi = max_entangled_vector(2)
    at_phi = rel_entropy_states(
        DensityMatrix(_apply_to_pure(identity_channel(2), phi)),
        DensityMatrix(_apply_to_pure(depolarizing_channel(0.5), phi)),
    ).value
    ok = abs(dv.value - expect) <= 1e-3 and abs(at_phi - expect) <= 1e-12
    report(5, ok, f"optimized {dv.value:.6f} vs closed form {expect:.6f}")
    assert abs(dv.value - expect) <= 1e-3
    assert abs(at_phi - expect) <= 1e-12


def test_acceptance_6_region_chain():
    """Containment chain nonAdaptive <= adaptive(1) <= adaptive(2) <=
    converse on identity-vs-depolarizing and a random full-rank pair."""
    cfg = OptimizerConfig(restarts=4, max_iters=100)
    rng = np.random.default_rng(20240823)
    pairs = {
        "id_vs_dep": (identity_channel(2), depolarizing_channel(0.5)),
        "random_full_rank": (random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng)),
    }
    failures = []
    for name, (n0, n1) in pairs.items():
        chain = region_chain(
            n0, n1, cfg=cfg, l_max=2, alpha_grid=(1.05, 1.1, 1.5), samples=256, slack=1e-3
        )
        for key, rep in chain.containments.items():
            if not rep.contained:
                failures.append((name, key, rep.violations))
    report(6, not failures, f"{len(failures)} containment failures")
    assert not failures, failures


def test_acceptance_7_finite_n_convergence(classical_sprt):
    """Budget sweep on the classical pair: exponents reach 85% of the
    threshold rates at n=800 and constraints hold for n >= 200."""
    records = sweep_budgets(classical_sprt, [100, 200, 400, 800], trials=5000, base_seed=31)
    last = records[-1]
    exp_a = last.summary.empirical_exponent(0, corrected=False)
    exp_b = last.summary.empirical_exponent(1, corrected=False)
    exponents_ok = exp_a >= 0.85 * last.bound_exponent_alpha and exp_b >= 0.85 * last.bound_exponent_beta
    constraint_ok = all(r.report.passed for r in records if r.n >= 200)
    overshoots = [max(s.overshoot for s in r.summary.per_hyp) for r in records]
    shrinking = all(a >= b for a, b in zip(overshoots, overshoots[1:]))
    ok = exponents_ok and constraint_ok and shrinking
    report(
        7,
        ok,
        f"exponents n=800 ({exp_a}, {exp_b}) vs 85% bounds "
        f"({0.85 * last.bound_exponent_alpha:.4f}, {0.85 * last.bound_exponent_beta:.4f}); "
        f"overshoot by n {overshoots}",
    )
    assert exponents_ok
    assert constraint_ok
    assert shrinking


def test_acceptance_8_cli_determinism(tmp_path):
    """Replaying a CLI run with the same seed produces byte-identical files."""
    from click.testing import CliRunner

    from chandisc.cli import main

    cfg = {
        "channels": {
            "n0": {"name": "bernoulliReplacer", "params": {"q": 0.2}},
            "n1": {"name": "bernoulliReplacer", "params": {"q": 0.8}},
        },
        "seed": 99,
        "optimizer": {"restarts": 2, "max_iters": 60},
        "simulate": {"mode": "adaptive", "n": 100, "tau": 0.08, "trials": 200},
        "divergence": {"kinds": ["relative", "measured", "max"]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    runner = CliRunner()
    identical = True
    for command in ("simulate", "divergence"):
        outs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{command}_{rep}"
            res = runner.invoke(
                main,
                ["--config", str(cfg_path), "--out", str(out), "--no-timestamp", command],
            )
            assert res.exit_code == 0, res.output
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        if names != sorted(p.name for p in outs[1].iterdir()):
            identical = False
        else:
            for name in names:
                if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                    identical = False
    report(8, identical)
    assert identical


def test_acceptance_9_first_exit_integrity():
    """No trace crosses a threshold before its recorded stopping time, and
    every decision matches the exit side."""
    n0 = bernoulli_replacer(0.2)
    n1 = bernoulli_replacer(0.8)
    strat = build_sprt(n0, n1, n=50, tau=0.08, cfg=OptimizerConfig(restarts=2, max_iters=60))
    bad = 0
    total = 0
    for hyp, ch in ((0, n0), (1, n1)):
        for t in range(5000):
            rng = trial_rng(77, hyp, t)
            trace = StrategyTrace()
            while not trace.stopped and len(trace.steps) < 20 * strat.n:
                step_sprt(strat, ch, trace, rng)
            total += 1
            if not trace.stopped:
                continue
            final = trace.steps[-1].cumulative
            exit_zero = final >= strat.threshold_b
            exit_one = final <= -strat.threshold_a
            if not (exit_zero or exit_one):
                bad += 1
                continue
            if trace.decision != (0 if exit_zero else 1):
                bad += 1
                continue
            if trace.stopping_time != len(trace.steps):
                bad += 1
                continue
            for step in trace.steps[:-1]:
                if not (-strat.threshold_a < step.cumulative < strat.threshold_b):
                    bad += 1
                    break
    report(9, bad == 0, f"{bad} bad traces out of {total}")
    assert bad == 0
