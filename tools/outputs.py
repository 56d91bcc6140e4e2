"""Print the numbers the library reports on a fixed corpus, one line each.

    python tools/outputs.py                  # this tree's corpus
    python tools/outputs.py --tree DIR       # the corpus of the tree at DIR
    python tools/outputs.py --against DIR    # the lines where DIR's corpus and this tree's differ

Each line is a label, a colon and the values.  Floats are written by repr,
which round-trips, ints as ints, booleans as true/false, text as JSON
strings and region metadata as one JSON object.  The corpus:

- channel_divergence_pair of every kind (relative, measured, renyi at
  alpha 1.5, max) at l = 1 and 2 on the qubit_divergence benchmark's seed-1
  random pair, a random_channel(2, 2, 4) pair, dep(0.3)/(0.7), Bernoulli
  0.2/0.8 and amplitude damping 0.2/0.6: each value, its upper end, its
  notes, and its witness as the Schmidt spectrum of the input and the
  number of outcomes of the POVM;
- the measured pair at l = 1 and 2 on the 8th of eight random_channel(2, 2, 3)
  / random_channel(2, 2, 4) pairs from seed 7, whose l = 2 search is
  start-bound: l = 2 starts from the finite l = 1 witness with restarts=1,
  as region_chain's block stage does;
- measured_rel_entropy_states on six random state pairs: the value, the
  upper end and the two cross-checked estimators;
- region_chain on dep(0.3)/(0.7) at the block_regions benchmark's config
  and on acceptance-6's random pair: every frontier vertex, the
  documents' metadata, the witness rates and each containment verdict;
- the strategies of tests/test_sim.py's fixtures and of the tester_mc
  benchmark: rates, tau, thresholds, the outcome count, and for each arm
  the first moment of each outcome law and the sum and absolute sum of its
  increments, then the run_trials summary of a 200-trial plan under both
  hypotheses (or the error it raises), plus two sweep_budgets runs.

Searches run at OptimizerConfig(restarts=4, max_iters=100), and test_sim's
fixtures at their own (2, 60).  BLAS is pinned to one thread, as in the
tests and the benchmark, so the corpus is bit for bit that of a test run.
tests/data/outputs.txt holds the committed corpus, which
tests/test_outputs.py compares with numbers within 1e-12 max(1, |v|) and
text exactly.  --against runs the corpus of DIR in its own process, with
DIR/src first on the import path, and prints a unified diff of the lines
that differ, DIR's first.  One summary line ends it: the number of lines
that differ, the largest relative move |new - old| / max(1, |old|) of any
number paired with DIR's, and whether every line still pairs with DIR's
with its label, text and count of numbers unchanged and every number
within 1e-12 max(1, |old|): the golden rule below, which the tests hold
committed outputs to.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import difflib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "data" / "outputs.txt"


# The golden rule every committed output is held to (tests/conftest.py reads
# it from here): the text between numbers equal, which also means as many
# numbers, and each number within GOLDEN_TOL max(1, |golden|).  inf and nan
# are text.
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
GOLDEN_TOL = 1e-12


def golden_pairs(text: str, golden: str) -> list[tuple[float, float]] | None:
    """The (new, golden) number pairs of text against golden, or None where
    the text between their numbers differs."""
    if NUMBER.split(text) != NUMBER.split(golden):
        return None
    return [(float(a), float(b)) for a, b in zip(NUMBER.findall(text), NUMBER.findall(golden))]


def within(new: float, golden: float) -> bool:
    return abs(new - golden) <= GOLDEN_TOL * max(1.0, abs(golden))


def summary(old: list[str], new: list[str]) -> str:
    """The summary line of a diff of two corpora.  Lines pair as the diff
    pairs them: a changed block of as many lines on both sides pairs line
    for line; any other change leaves lines unpaired."""
    differ, largest, kept = 0, 0.0, True
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, old, new, autojunk=False).get_opcodes():
        if tag == "equal":
            continue
        differ += max(i2 - i1, j2 - j1)
        kept &= i2 - i1 == j2 - j1
        for a, b in zip(old[i1:i2], new[j1:j2]):
            pairs = golden_pairs(b, a)
            kept &= pairs is not None and a.partition(":")[0] == b.partition(":")[0]
            for v, u in pairs or []:
                largest = max(largest, abs(v - u) / max(1.0, abs(u)))
                kept &= within(v, u)
    verdict = "yes" if kept else "no"
    return (f"summary: {differ} lines differ; largest relative move {largest:.2g}; every line keeps its label, "
            f"text and count of numbers, each number within {GOLDEN_TOL:g} max(1, |old|): {verdict}")


def _tokens(x) -> list[str]:
    if isinstance(x, (bool, np.bool_)):
        return ["true" if x else "false"]
    if isinstance(x, (int, np.integer)):
        return [str(int(x))]
    if isinstance(x, (float, np.floating)):
        return [repr(float(x))]
    if isinstance(x, str):
        return [json.dumps(x)]
    return [t for a in x for t in _tokens(a)]


def divergence_pairs() -> dict:
    """The channel pairs of the corpus's divergence lines, built afresh on
    every call, by name."""
    from chandisc import quantum as q

    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    import run as bench

    kraus = bench.QubitDivergence(1).random_kraus
    rng = np.random.default_rng(1)
    return {
        "bench-random": (q.QuantumChannel(list(kraus[0])), q.QuantumChannel(list(kraus[1]))),
        "random": (q.random_channel(2, 2, 4, rng), q.random_channel(2, 2, 4, rng)),
        "dep": (q.depolarizing_channel(0.3), q.depolarizing_channel(0.7)),
        "bernoulli": (q.bernoulli_replacer(0.2), q.bernoulli_replacer(0.8)),
        "amplitude-damping": (q.amplitude_damping_channel(0.2), q.amplitude_damping_channel(0.6)),
    }


def corpus() -> list[str]:
    """The corpus lines of the chandisc on the import path."""
    from chandisc import quantum as q
    from chandisc import serialize, sim, strategies
    from chandisc.divergences import channel_divergence_pair, measured_rel_entropy_states
    from chandisc.errors import ExcessiveCensoringError
    from chandisc.optimize import OptimizerConfig
    from chandisc.regions import region_chain

    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    import run as bench

    lines = []

    def put(label, *values):
        lines.append(" ".join([f"{label}:"] + _tokens(values)))

    def schmidt(vec, d_r):
        return np.linalg.svd(np.asarray(vec).reshape(d_r, -1), compute_uv=False) ** 2

    cfg = OptimizerConfig(restarts=4, max_iters=100)
    pairs = divergence_pairs()

    def put_pair(name, kind, l, values, d_r):
        for direction, dv in zip(("01", "10"), values):
            at = f"divergence {name} {kind} l={l} {direction}"
            put(f"{at} value upper", dv.value, dv.upper)
            put(f"{at} notes", dv.warnings)
            if dv.witness is not None:
                effects = [] if dv.witness.povm is None else [len(dv.witness.povm.effects)]
                put(f"{at} witness schmidt effects", schmidt(dv.witness.input_vector, d_r), effects)

    for name, (n0, n1) in pairs.items():
        for kind, alpha in (("relative", None), ("measured", None), ("renyi", 1.5), ("max", None)):
            for l in (1, 2):
                put_pair(name, kind, l, channel_divergence_pair(n0, n1, kind, alpha, cfg, l), n0.in_dim**l)

    rng = np.random.default_rng(7)
    n0, n1 = [(q.random_channel(2, 2, 3, rng), q.random_channel(2, 2, 4, rng)) for _ in range(8)][-1]
    one = channel_divergence_pair(n0, n1, "measured", None, cfg, 1)
    put_pair("start-bound", "measured", 1, one, n0.in_dim)
    block_cfg = replace(cfg, extra_starts=[dv.witness.input_vector for dv in one if dv.is_finite], restarts=1)
    with warnings.catch_warnings():
        # its estimators disagree, which the notes line records
        warnings.simplefilter("ignore")
        two = channel_divergence_pair(n0, n1, "measured", None, block_cfg, 2)
    put_pair("start-bound", "measured", 2, two, n0.in_dim**2)

    rng = np.random.default_rng(3)
    for i, d in enumerate((2, 2, 3, 3, 4, 4)):
        rho0, rho1 = q.random_density_matrix(d, rng, rank=d - i % 2), q.random_density_matrix(d, rng)
        dv = measured_rel_entropy_states(rho0, rho1, cfg)
        put(f"states {i} d={d} value upper", dv.value, dv.upper)
        if dv.witness is not None:
            put(f"states {i} variational pvm", dv.witness.variational_value, dv.witness.pvm_value)

    acceptance6 = np.random.default_rng(20240823)
    chains = {
        "dep": (pairs["dep"], (1.1, 1.5)),
        "acceptance6": ((q.random_channel(2, 2, 4, acceptance6), q.random_channel(2, 2, 4, acceptance6)),
                        (1.05, 1.1, 1.5)),
    }
    for name, ((n0, n1), grid) in chains.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            chain = region_chain(n0, n1, cfg=cfg, l_max=2, alpha_grid=grid, samples=256, slack=1e-3)
        named = [("nonAdaptive", chain.non_adaptive), ("converse", chain.converse)]
        named += [(f"adaptive{l}", r) for l, r in chain.adaptive.items()]
        for region_name, region in named:
            at = f"chain {name} {region_name}"
            put(f"{at} frontier", [c for v in region.frontier for c in v])
            lines.append(f"{at} metadata: {json.dumps(serialize.region_to_json(region)['metadata'], sort_keys=True)}")
            for key, rates in sorted(region.metadata.get("witness_rates", {}).items()):
                put(f"{at} {key} rates", rates)
        for key, rep in sorted(chain.containments.items()):
            put(f"chain {name} {key} contained violations", rep.contained, len(rep.violations))

    fixed_cfg = OptimizerConfig(restarts=2, max_iters=60)
    b0, b1 = q.bernoulli_replacer(0.2), q.bernoulli_replacer(0.8)
    zero = q.DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    comp = q.basis_pvm(np.eye(2, dtype=complex))
    tie_arms = [strategies.Arm(zero, q.basis_pvm(basis), 1) for basis in (np.eye(2, dtype=complex),
                                                                           np.eye(2, dtype=complex)[:, ::-1])]
    many = np.random.default_rng(5)
    n12 = (q.random_channel(12, rng=many), q.random_channel(12, rng=many))
    many_arms = [strategies.Arm(q.max_entangled_state(12), q.basis_pvm(q.random_unitary(144, many)), 12)
                 for _ in range(2)]
    tester = bench.TesterMc(1).setup(SimpleNamespace(quantum=q, strategies=strategies))
    strats = {
        "sim classical": strategies.build_sprt(b0, b1, n=100, tau=0.08, cfg=fixed_cfg),
        "sim fixed": strategies.build_non_adaptive(b0, b1, zero, comp, n=100, tau=0.08),
        "sim block": strategies.build_sprt(b0, b1, l=2, n=100, tau=0.08, cfg=fixed_cfg),
        "sim depolarizing": strategies.build_sprt(*pairs["dep"], n=60, cfg=fixed_cfg),
        "sim tie": strategies.SprtStrategy(n0=q.bernoulli_replacer(0.25), n1=q.bernoulli_replacer(0.75),
                                           arm_zero=tie_arms[0], arm_one=tie_arms[1], rate0=0.5 * math.log(3),
                                           rate1=0.5 * math.log(3), tau=0.08, n=3),
        "sim many-outcomes": strategies.SprtStrategy(n0=n12[0], n1=n12[1], arm_zero=many_arms[0],
                                                     arm_one=many_arms[1], rate0=1.0, rate1=1.0, tau=0.1, n=20),
        "tester_mc bernoulli": tester.bern,
        "tester_mc dep": tester.dep,
        "tester_mc block": tester.block,
    } | {f"tester_mc {label}": s for label, s in tester.short}
    for name, s in strats.items():
        put(f"strategy {name} rates tau n l", s.rate0, s.rate1, s.tau, s.n, s.block_size)
        put(f"strategy {name} thresholds outcomes", s.threshold_a, s.threshold_b, s.tables.dists.shape[-1])
        for arm, (dists, increments) in enumerate(zip(s.tables.dists, s.tables.increments)):
            put(f"strategy {name} arm{arm} law-moments increment-sum increment-abs-sum",
                [math.fsum(law * np.arange(1, law.size + 1)) for law in dists], math.fsum(increments),
                math.fsum(np.abs(increments)))
        try:
            summary = sim.run_trials(sim.SimulationPlan(strategy=s, trials=200, base_seed=5))
        except ExcessiveCensoringError as exc:
            put(f"strategy {name} run", str(exc))
            continue
        for hyp, st in enumerate(summary.per_hyp):
            put(f"strategy {name} run h{hyp} errors censored mean_stop stop_se overshoot", st.errors,
                st.censored, st.mean_stop, st.stop_se, st.overshoot)
    for name, budgets in (("sim classical", [50, 100, 200]), ("tester_mc block", [100, 400])):
        for rec in sim.sweep_budgets(strats[name], budgets, trials=200, base_seed=31):
            put(f"sweep {name} n={rec.n} alpha beta exponents passed", rec.summary.alpha_hat,
                rec.summary.beta_hat, rec.exponent_alpha, rec.exponent_beta, rec.report.passed)
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", type=Path, default=ROOT, metavar="DIR",
                    help="print the corpus of the chandisc in DIR/src")
    ap.add_argument("--against", type=Path, metavar="DIR",
                    help="print the lines where DIR's corpus differs from --tree's")
    args = ap.parse_args(argv)
    if args.against is not None:
        other, mine = (subprocess.run([sys.executable, __file__, "--tree", str(tree)], check=True, capture_output=True,
                                      text=True).stdout.splitlines() for tree in (args.against, args.tree))
        sys.stdout.writelines(line + "\n" for line in difflib.unified_diff(
            other, mine, str(args.against), str(args.tree), n=0, lineterm=""))
        print(summary(other, mine))
        return 0
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    print("\n".join(corpus()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
