"""Config-driven command-line front end.

Every command reads a JSON config (validated against the packaged schema),
runs the requested computation and writes its results into one run
directory: a config snapshot, a manifest (version, seed, optional
timestamp), and the result files described in docs/formats.md.  With a fixed
seed and --no-timestamp the emitted files are byte-identical across runs.

Exit codes: 0 success, 2 configuration error (an invalid channel spec or a
pair with mismatched dimensions included), 3 numerical failure.
"""

from __future__ import annotations

import dataclasses
import datetime
import importlib.resources
import json
import sys
from pathlib import Path

import click
import jsonschema
import numpy as np

from . import __version__, serialize
from .divergences import channel_divergence, channel_divergence_pair
from .errors import ChandiscError, ConfigError, ExcessiveCensoringError, InfiniteDivergenceError
from .optimize import OptimizerConfig
from .quantum import (
    DensityMatrix,
    amplitude_damping_channel,
    bernoulli_replacer,
    classical_channel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    replacer_channel,
)
from .regions import region_chain
from .sim import SimulationPlan, check_constraint, run_trials, sweep_budgets
from .strategies import build_non_adaptive, build_sprt, check_budgets

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
_TRIALS = 1000  # Monte-Carlo traces per hypothesis, when the config gives none
_SWEEP_BUDGETS = [100, 200, 400, 800]  # channel uses, when the config gives none


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def _schema() -> dict:
    text = importlib.resources.files("chandisc").joinpath("config_schema.json").read_text()
    return json.loads(text)


# "integer" means a JSON integer literal: draft 7 alone also accepts 100.0
_INTEGER = jsonschema.Draft7Validator.TYPE_CHECKER.redefine("integer", lambda _, x: type(x) is int)
_Validator = jsonschema.validators.extend(jsonschema.Draft7Validator, type_checker=_INTEGER)


def load_config(path: str | None, overrides: dict) -> dict:
    if path is None:
        raise ConfigError("--config is required")
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    try:
        jsonschema.validate(cfg, _schema(), cls=_Validator)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config rejected by schema: {exc.message}") from exc
    cfg.setdefault("seed", 0)
    cfg.setdefault("log_base", "e")
    cfg.setdefault("out", "run")
    return cfg


_ZOO = {
    "identity": lambda p: identity_channel(int(p.get("dim", 2))),
    "depolarizing": lambda p: depolarizing_channel(float(p["p"])),
    "amplitudeDamping": lambda p: amplitude_damping_channel(float(p["gamma"])),
    "dephasing": lambda p: dephasing_channel(float(p["p"])),
    "bernoulliReplacer": lambda p: bernoulli_replacer(float(p["q"])),
    "replacer": lambda p: replacer_channel(
        DensityMatrix(serialize.matrix_from_json(p["sigma"])),
        int(p["in_dim"]) if "in_dim" in p else None,
    ),
    "classical": lambda p: classical_channel(np.asarray(p["stochastic"], dtype=float)),
}


def build_channel(spec: dict):
    """The channel a spec names, a zoo name or a channel file; a spec the
    library rejects is a config error."""
    name = spec.get("name", spec.get("file"))
    if "file" in spec and not Path(name).is_file():
        raise ConfigError(f"channel file not found: {name}")
    try:
        if "file" in spec:
            return serialize.channel_from_json(json.loads(Path(name).read_text()))
        return _ZOO[name](spec.get("params", {}))
    except KeyError as exc:
        raise ConfigError(f"channel {name!r} missing parameter {exc}") from exc
    except (TypeError, ValueError, ChandiscError) as exc:
        raise ConfigError(f"invalid channel {name!r}: {type(exc).__name__}: {exc}") from exc


def build_pair(cfg: dict):
    n0, n1 = build_channel(cfg["channels"]["n0"]), build_channel(cfg["channels"]["n1"])
    if (n0.in_dim, n0.out_dim) != (n1.in_dim, n1.out_dim):
        raise ConfigError(
            f"channels map different dimensions: n0 {n0.in_dim} -> {n0.out_dim}, n1 {n1.in_dim} -> {n1.out_dim}"
        )
    return n0, n1


def optimizer_config(cfg: dict) -> OptimizerConfig:
    opt = dict(cfg.get("optimizer", {}))
    opt.setdefault("seed", cfg.get("seed", 0))
    try:
        return OptimizerConfig(**opt)
    except ValueError as exc:
        # the schema's bounds let NaN and Infinity through
        raise ConfigError(f"optimizer {exc}") from exc


def _given(opts: dict, *keys: str) -> dict:
    """The entries of opts under keys, so the library's defaults fill the keys
    opts leaves out."""
    return {k: opts[k] for k in keys if k in opts}


# ---------------------------------------------------------------------------
# run directory
# ---------------------------------------------------------------------------


def start_run(cfg: dict, command: str, no_timestamp: bool) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    # the output path is implied by the directory itself; omitting it keeps
    # replayed run directories byte-identical
    snapshot = {k: v for k, v in cfg.items() if k != "out"}
    (out / "config_snapshot.json").write_text(serialize.dumps(snapshot))
    manifest = {"version": __version__, "seed": cfg["seed"], "command": command}
    if not no_timestamp:
        manifest["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    (out / "manifest.json").write_text(serialize.dumps(manifest))
    return out


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------


@click.group()
@click.option("--config", "config_path", type=str, default=None, help="JSON experiment config (see docs/formats.md for keys).")
@click.option("--seed", type=int, default=None, help="Master RNG seed; overrides the config key.")
@click.option("--out", type=str, default=None, help="Run directory; overrides the config key.")
@click.option("--log-base", type=click.Choice(["e", "2"]), default=None, help="Report divergences in nats (e) or bits (2).")
@click.option("--no-timestamp", is_flag=True, help="Omit the timestamp from the manifest (byte-identical replays).")
@click.pass_context
def main(ctx, config_path, seed, out, log_base, no_timestamp):
    """Sequential discrimination of quantum channels: divergences, SPRT
    simulation, and error-exponent regions.

    Config keys: channels.n0/.n1 (zoo name + params, or a channel JSON
    file), seed, log_base, out, optimizer (restarts, max_iters = L-BFGS
    iterations per start, cross_check_tol, seed), divergence (kinds,
    alpha), simulate (mode, n, l, tau, trials, constraint, epsilon,
    step_cap_factor: a trace still undecided after step_cap_factor x n
    channel uses is censored and counts as an error, and more than 5%
    censored traces exit 3; the cap binds each budget of sweep too), sweep
    (budgets, trials, constraint, epsilon), regions (which, l_max,
    alpha_grid, samples, slack).

    Exit codes: 0 success, 2 configuration error (an invalid channel spec or
    a pair with mismatched dimensions included), 3 numerical failure.
    """
    ctx.ensure_object(dict)
    ctx.obj["config_path"] = config_path
    ctx.obj["overrides"] = {"seed": seed, "out": out, "log_base": log_base}
    ctx.obj["no_timestamp"] = no_timestamp


def _run_command(ctx, command: str, fn, budgets=None) -> None:
    """Run fn(cfg, pair, run directory).  budgets(cfg), when given, are the
    budgets the command runs: they must hold check_budgets' rule at the
    run's block size."""
    try:
        cfg = load_config(ctx.obj["config_path"], ctx.obj["overrides"])
        # channels, the optimizer config and the budgets are checked before
        # the run directory exists, so a rejected config leaves nothing behind
        pair = build_pair(cfg)
        optimizer_config(cfg)
        if budgets is not None:
            try:
                check_budgets(budgets(cfg), _budget(cfg)[1])
            except ValueError as exc:
                raise ConfigError(f"{command} {exc}") from exc
        fn(cfg, pair, start_run(cfg, command, ctx.obj["no_timestamp"]))
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except ExcessiveCensoringError as exc:
        click.echo(f"simulation failed: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    except ChandiscError as exc:
        click.echo(f"{command} failed: {type(exc).__name__}: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)


def _in_unit(dv, cfg) -> float:
    """The value of dv in the run's unit: bits at log_base 2, else nats."""
    return dv.in_bits() if cfg["log_base"] == "2" else dv.value


@main.command()
@click.pass_context
def divergence(ctx):
    """Compute the requested channel divergences and their witnesses."""

    def run(cfg, pair, out):
        n0, n1 = pair
        opts = cfg.get("divergence", {})
        kinds = opts.get("kinds", ["relative", "measured", "max"])
        alphas = opts.get("alpha", [2.0])
        unit = "bits" if cfg["log_base"] == "2" else "nats"
        ocfg = optimizer_config(cfg)
        rows = []
        for kind in kinds:
            for alpha in alphas if kind == "renyi" else [None]:
                dv = channel_divergence(n0, n1, kind=kind, alpha=alpha, cfg=ocfg)
                value = _in_unit(dv, cfg)
                row = {
                    "kind": kind,
                    "value": serialize._num_to_json(value),
                    "unit": unit,
                    "is_lower_bound": dv.is_lower_bound,
                    "is_finite": dv.is_finite,
                }
                if alpha is not None:
                    row["alpha"] = alpha
                if dv.witness is not None:
                    row["witness_input"] = serialize.vector_to_json(dv.witness.input_vector)
                    if dv.witness.povm is not None:
                        row["witness_povm"] = serialize.povm_to_json(dv.witness.povm)
                rows.append(row)
                label = f"{kind}" + (f"(alpha={alpha})" if alpha is not None else "")
                shown = "inf" if not dv.is_finite else f"{value:.6f}"
                flag = " (lower bound)" if dv.is_lower_bound else ""
                click.echo(f"{label}: {shown} {unit}{flag}")
        (out / "divergences.json").write_text(serialize.dumps({"rows": rows}))

    _run_command(ctx, "divergence", run)


def _budget(cfg) -> tuple[int, int]:
    """simulate.n (default 400) and the block size: simulate.l (default 2)
    in block mode, else 1.  simulate.l in another mode is a config error,
    not a setting that is dropped."""
    sim = cfg.get("simulate", {})
    block = sim.get("mode") == "block"
    if "l" in sim and not block:
        raise ConfigError("simulate.l is read in block mode only")
    return sim.get("n", 400), sim.get("l", 2) if block else 1


def _build_strategy(cfg, pair, n: int):
    """The strategy simulate.mode names, at budget n channel uses."""
    n0, n1 = pair
    ocfg = optimizer_config(cfg)
    opts = cfg.get("simulate", {})
    l = _budget(cfg)[1]
    tau = opts.get("tau")
    if opts.get("mode") != "nonAdaptive":
        return build_sprt(n0, n1, n, tau, ocfg, l)
    # non-adaptive: play the measured-divergence witness arm of the 0-vs-1
    # direction at every step
    dv = channel_divergence(n0, n1, kind="measured", cfg=ocfg)
    if not dv.is_finite:
        raise InfiniteDivergenceError("measured D(N0||N1) is infinite: no witness arm for the non-adaptive SPRT")
    return build_non_adaptive(n0, n1, dv.witness.input_state, dv.witness.povm, n, tau)


@main.command()
@click.pass_context
def simulate(ctx):
    """Build a strategy, run Monte-Carlo trials and write the summary.

    Exits 0 whether or not the stopping-time constraint holds; the
    constraint report records the outcome."""

    def run(cfg, pair, out):
        opts = cfg.get("simulate", {})
        strategy = _build_strategy(cfg, pair, _budget(cfg)[0])
        plan = SimulationPlan(
            strategy=strategy,
            trials=opts.get("trials", _TRIALS),
            base_seed=cfg["seed"],
            **_given(opts, "constraint", "epsilon", "step_cap_factor"),
        )
        summary = run_trials(plan)
        report = check_constraint(summary, plan)
        (out / "strategy.json").write_text(serialize.dumps(serialize.strategy_to_json(strategy)))
        (out / "summary.csv").write_text(serialize.summary_to_csv(summary))
        (out / "constraint_report.json").write_text(serialize.dumps(dataclasses.asdict(report)))
        status = "satisfied" if report.passed else "violated"
        click.echo(
            f"alpha_hat={summary.alpha_hat:.3e} beta_hat={summary.beta_hat:.3e} "
            f"constraint {status} ({report.detail})"
        )

    _run_command(ctx, "simulate", run, lambda cfg: _budget(cfg)[:1])


@main.command()
@click.pass_context
def sweep(ctx):
    """Re-run one strategy over a list of budgets for convergence curves."""

    def run(cfg, pair, out):
        opts = cfg.get("sweep", {})
        budgets = opts.get("budgets", _SWEEP_BUDGETS)
        # sweep_budgets sets every budget itself and never reads
        # simulate.n; one block is a valid budget at every block size
        strategy = _build_strategy(cfg, pair, _budget(cfg)[1])
        records = sweep_budgets(
            strategy,
            budgets,
            trials=opts.get("trials", _TRIALS),
            base_seed=cfg["seed"],
            **_given(opts, "constraint", "epsilon"),
            **_given(cfg.get("simulate", {}), "step_cap_factor"),
        )
        (out / "sweep.csv").write_text(serialize.sweep_to_csv(records))
        for rec in records:
            click.echo(
                f"n={rec.n} exponents=({rec.exponent_alpha:.4f}, {rec.exponent_beta:.4f}) "
                f"bounds=({rec.bound_exponent_alpha:.4f}, {rec.bound_exponent_beta:.4f}) "
                f"constraint_passed={rec.report.passed}"
            )

    _run_command(ctx, "sweep", run, lambda cfg: cfg.get("sweep", {}).get("budgets", _SWEEP_BUDGETS))


@main.command()
@click.pass_context
def regions(ctx):
    """Compute the exponent regions and the containment matrix.

    region_chain always runs whole, so every region document equals that of
    a full run; regions.which only names the region documents written, and
    the containment matrix always holds the chain's verdicts.
    """

    def run(cfg, pair, out):
        opts = cfg.get("regions", {})
        which = opts.get("which", ["nonAdaptive", "adaptive", "converse"])
        chain = region_chain(*pair, cfg=optimizer_config(cfg),
                             **_given(opts, "l_max", "alpha_grid", "samples", "slack"))
        named = []
        if "nonAdaptive" in which:
            named.append(("nonAdaptive", chain.non_adaptive))
        if "adaptive" in which:
            for l, region in sorted(chain.adaptive.items()):
                named.append((f"adaptive_l{l}", region))
        if "converse" in which:
            named.append(("converse", chain.converse))
        for name, region in named:
            (out / f"region_{name}.csv").write_text(serialize.region_to_csv(region, name))
            (out / f"region_{name}.json").write_text(
                serialize.dumps(serialize.region_to_json(region))
            )
        (out / "regions_long.csv").write_text(serialize.regions_long_csv(named))
        matrix = {key: dataclasses.asdict(rep) for key, rep in chain.containments.items()}
        (out / "containment_matrix.json").write_text(serialize.dumps(matrix))
        for key, rep in chain.containments.items():
            click.echo(f"{key}: {'holds' if rep.contained else 'VIOLATED'}")
        for name, region in named:
            click.echo(f"{name}: {len(region.frontier)} frontier vertices")

    _run_command(ctx, "regions", run)


@main.command()
@click.pass_context
def validate(ctx):
    """Validate the config and report finiteness of the channel pair."""

    def run(cfg, pair, out):
        d01, d10 = channel_divergence_pair(*pair, kind="max")
        doc = {
            "finite_01": d01.is_finite,
            "finite_10": d10.is_finite,
            "both_finite": d01.is_finite and d10.is_finite,
            "max_div_01": serialize._num_to_json(_in_unit(d01, cfg)),
            "max_div_10": serialize._num_to_json(_in_unit(d10, cfg)),
        }
        (out / "finiteness.json").write_text(serialize.dumps(doc))
        click.echo(
            f"config valid; max-divergence finite 0||1: {d01.is_finite}, "
            f"1||0: {d10.is_finite}"
        )

    _run_command(ctx, "validate", run)


if __name__ == "__main__":
    main()
