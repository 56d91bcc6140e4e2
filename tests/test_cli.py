import dataclasses
import datetime
import importlib.resources
import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from chandisc.cli import main
from chandisc.optimize import OptimizerConfig


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "channels": {
            "n0": {"name": "bernoulliReplacer", "params": {"q": 0.2}},
            "n1": {"name": "bernoulliReplacer", "params": {"q": 0.8}},
        },
        "seed": 7,
        "optimizer": {"restarts": 2, "max_iters": 60},
        "simulate": {"mode": "adaptive", "n": 100, "tau": 0.08, "trials": 100},
        "sweep": {"budgets": [50, 100], "trials": 50},
        "divergence": {"kinds": ["relative", "measured", "max"]},
        "regions": {"which": ["nonAdaptive", "adaptive", "converse"], "l_max": 2, "samples": 32},
    }
    cfg.update(overrides)
    p = path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


@pytest.fixture()
def runner():
    return CliRunner()


def test_divergence_command(tmp_path, runner):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "--no-timestamp", "divergence"])
    assert res.exit_code == 0, res.output
    assert "relative:" in res.output and "measured:" in res.output
    doc = json.loads((out / "divergences.json").read_text())
    values = {row["kind"]: row["value"] for row in doc["rows"]}
    assert values["measured"] <= values["relative"] + 1e-6
    assert values["relative"] <= values["max"] + 1e-6
    assert (out / "manifest.json").exists()
    assert (out / "config_snapshot.json").exists()


def test_divergence_infinite_direction_exits_zero(tmp_path, runner):
    cfg = write_config(
        tmp_path,
        channels={
            "n0": {"name": "depolarizing", "params": {"p": 0.5}},
            "n1": {"name": "identity"},
        },
        divergence={"kinds": ["relative", "measured", "max", "renyi"], "alpha": [1.5]},
    )
    out = tmp_path / "run"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "--no-timestamp", "divergence"])
    assert res.exit_code == 0, res.output
    assert "inf" in res.output
    doc = json.loads((out / "divergences.json").read_text())
    assert [row["kind"] for row in doc["rows"]] == ["relative", "measured", "max", "renyi"]
    for row in doc["rows"]:
        assert row["value"] == "inf"
        assert row["is_finite"] is False
        # an infinite value has no witness, whatever its kind
        assert "witness_input" not in row and "witness_povm" not in row


def test_log_base_flag(tmp_path, runner):
    cfg = write_config(tmp_path, divergence={"kinds": ["max"]})
    out_e = tmp_path / "rune"
    out_2 = tmp_path / "run2"
    res_e = runner.invoke(main, ["--config", str(cfg), "--out", str(out_e), "--no-timestamp", "divergence"])
    res_2 = runner.invoke(
        main, ["--config", str(cfg), "--out", str(out_2), "--no-timestamp", "--log-base", "2", "divergence"]
    )
    assert res_e.exit_code == 0 and res_2.exit_code == 0
    v_e = json.loads((out_e / "divergences.json").read_text())["rows"][0]["value"]
    v_2 = json.loads((out_2 / "divergences.json").read_text())["rows"][0]["value"]
    import math

    assert v_2 == pytest.approx(v_e / math.log(2))


def test_simulate_writes_summary_and_reports_constraint(tmp_path, runner):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "--no-timestamp", "simulate"])
    assert res.exit_code == 0, res.output
    assert (out / "summary.csv").exists()
    assert (out / "strategy.json").exists()
    report = json.loads((out / "constraint_report.json").read_text())
    assert report["constraint"] == "expectation"
    header = (out / "summary.csv").read_text().splitlines()[0]
    assert "wald_bound" in header and "wald_ok" in header


def test_sweep_command(tmp_path, runner):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "--no-timestamp", "sweep"])
    assert res.exit_code == 0, res.output
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("50,") and lines[2].startswith("100,")


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_rounding_noise_outcomes_are_not_reachable(tmp_path, runner, command):
    # the dephasing pair's witness arm has outcomes of probability ~1e-17
    # under N_0 and exactly 0 under N_1; they must not read as reachable
    channels = {
        "n0": {"name": "dephasing", "params": {"p": 0.2}},
        "n1": {"name": "dephasing", "params": {"p": 0.6}},
    }
    cfg = write_config(tmp_path, channels=channels)
    out = tmp_path / "run"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "--no-timestamp", command])
    assert res.exit_code == 0, res.output


def test_regions_command_and_rectangle_only(tmp_path, runner):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "--no-timestamp", "regions"])
    assert res.exit_code == 0, res.output
    for name in ("nonAdaptive", "adaptive_l1", "adaptive_l2", "converse"):
        assert (out / f"region_{name}.csv").exists()
    matrix = json.loads((out / "containment_matrix.json").read_text())
    assert all(entry["contained"] for entry in matrix.values())

    cfg2 = write_config(tmp_path, regions={"which": ["adaptive"], "l_max": 1})
    out2 = tmp_path / "rect"
    res2 = runner.invoke(main, ["--config", str(cfg2), "--out", str(out2), "--no-timestamp", "regions"])
    assert res2.exit_code == 0, res2.output
    files = sorted(p.name for p in out2.glob("region_*.csv"))
    assert files == ["region_adaptive_l1.csv"]


def test_validate_command(tmp_path, runner):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "--no-timestamp", "validate"])
    assert res.exit_code == 0, res.output
    doc = json.loads((out / "finiteness.json").read_text())
    assert doc["both_finite"] is True


def test_validate_reports_in_the_run_unit(tmp_path, runner):
    """finiteness.json writes the max-divergences in the run's unit: the
    Bernoulli replacers' Choi D_max is ln 4 nats, 2 bits.  It read ln 4
    whatever the log base."""
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "--no-timestamp", "--log-base", "2",
                               "validate"])
    assert res.exit_code == 0, res.output
    doc = json.loads((out / "finiteness.json").read_text())
    assert abs(doc["max_div_01"] - 2.0) <= 1e-12 and abs(doc["max_div_10"] - 2.0) <= 1e-12, doc


def test_regions_adaptive_only_writes_the_full_runs_documents(tmp_path, runner):
    """regions with which ["adaptive"] runs the whole chain: its adaptive
    documents and containment matrix are byte for byte those of a full run,
    on acceptance-6's random pair.  It used to call adaptive_region at each
    l with no witness chaining or floors, so its l = 2 corner differed and
    the matrix was empty."""
    from chandisc import serialize
    from chandisc.quantum import random_channel

    rng = np.random.default_rng(20240823)
    channels = {}
    for key in ("n0", "n1"):
        path = tmp_path / f"{key}.json"
        path.write_text(serialize.dumps(serialize.channel_to_json(random_channel(2, 2, 4, rng))))
        channels[key] = {"file": str(path)}
    runs = {}
    for which in (["nonAdaptive", "adaptive", "converse"], ["adaptive"]):
        out = tmp_path / "_".join(which)
        cfg = write_config(tmp_path, channels=channels, regions={"which": which, "l_max": 2, "samples": 32})
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "--no-timestamp", "regions"])
        assert res.exit_code == 0, res.output
        runs[len(which)] = out
    names = [f"region_adaptive_l{l}.{ext}" for l in (1, 2) for ext in ("csv", "json")] + ["containment_matrix.json"]
    for name in names:
        assert (runs[1] / name).read_bytes() == (runs[3] / name).read_bytes(), name
    assert json.loads((runs[1] / "containment_matrix.json").read_text())


def test_block_sweep_budgets_off_the_block_size_exit_2(tmp_path, runner):
    """A block-mode sweep runs whole blocks only: a budget that is not a
    multiple of l is a config error, caught before the run directory exists."""
    block = {"mode": "block", "l": 2, "n": 100, "tau": 0.08, "trials": 100}
    for sweep, l in (({"budgets": [50, 101], "trials": 50}, 2), ({"trials": 50}, 3)):
        out = tmp_path / f"run{l}"
        cfg = write_config(tmp_path, simulate={**block, "l": l}, sweep=sweep)
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "--no-timestamp", "sweep"])
        assert res.exit_code == 2, res.output
        assert "not multiples of the block size" in res.output
        assert not out.exists()


def test_sweep_budgets_must_ascend_exit_2(tmp_path, runner):
    """sweep reads the budget rule sweep_budgets holds: budgets that do not
    ascend strictly are a config error, caught before the run directory
    exists.  A repeated budget, [50, 50], ran twice and wrote two identical
    rows."""
    out = tmp_path / "run"
    for budgets in ([100, 50], [50, 50]):
        cfg = write_config(tmp_path, sweep={"budgets": budgets, "trials": 50})
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "--no-timestamp", "sweep"])
        assert res.exit_code == 2, res.output
        assert f"config error: sweep budgets {budgets} are not ascending" in res.output
        assert not out.exists()


def test_block_simulate_budget_off_the_block_size_exit_2(tmp_path, runner):
    """simulate.n counts channel uses: in block mode it must be a multiple
    of l, checked before the run directory exists, instead of running
    n // l blocks."""
    block = {"mode": "block", "l": 2, "n": 101, "tau": 0.08, "trials": 20}
    for sim in (block, {**block, "n": 1}, {**block, "l": 3, "n": 100},
                {k: v for k, v in block.items() if k != "n"} | {"l": 3}):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, simulate=sim)
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "--no-timestamp", "simulate"])
        assert res.exit_code == 2, (sim, res.output)
        n, l = sim.get("n", 400), sim["l"]
        assert f"config error: simulate budgets [{n}] are not multiples of the block size {l}" in res.output
        assert not out.exists()
    cfg = write_config(tmp_path, simulate={**block, "n": 100})
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "ok"), "--no-timestamp", "simulate"])
    assert res.exit_code == 0, res.output
    assert json.loads((tmp_path / "ok" / "strategy.json").read_text())["n"] == 50


def test_block_sweep_never_reads_simulate_n(tmp_path, runner):
    """sweep runs its own budgets: a block-mode sweep whose simulate.n is
    off the block size (the default 400 at l = 3, or 101 and 1 at l = 2)
    still runs, and its records equal those of a simulate.n on the block
    size."""
    sweep = {"budgets": [30, 60], "trials": 50}
    block = {"mode": "block", "tau": 0.08, "trials": 20}
    rows = {}
    for l, n in ((3, None), (3, 300), (2, 101), (2, 1), (2, 100)):
        sim = {**block, "l": l} | ({} if n is None else {"n": n})
        out = tmp_path / f"run_{l}_{n}"
        cfg = write_config(tmp_path, simulate=sim, sweep=sweep)
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "--no-timestamp", "sweep"])
        assert res.exit_code == 0, (sim, res.output)
        rows.setdefault(l, set()).add((out / "sweep.csv").read_text())
    assert all(len(texts) == 1 for texts in rows.values())


def test_block_size_outside_block_mode_exit_2(tmp_path, runner):
    """simulate.l sets the block size of block mode alone: in another mode,
    or with no mode, it is a config error, caught by simulate and sweep
    before the run directory exists, instead of a run at l = 1."""
    for mode in ("adaptive", "nonAdaptive", None):
        sim = {"n": 100, "l": 2, "tau": 0.08, "trials": 20} | ({"mode": mode} if mode else {})
        for command in ("simulate", "sweep"):
            out = tmp_path / "run"
            cfg = write_config(tmp_path, simulate=sim, sweep={"budgets": [50, 100], "trials": 20})
            res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "--no-timestamp", command])
            assert res.exit_code == 2, (mode, command, res.output)
            assert "config error: simulate.l is read in block mode only" in res.output
            assert not out.exists()


@pytest.mark.parametrize("tol", ["NaN", "Infinity"])
def test_non_finite_cross_check_tol_is_a_config_error(tmp_path, runner, tol):
    """The schema's exclusiveMinimum lets NaN and Infinity through; the
    optimizer config rejects them before the run directory exists.  NaN
    switched the measured cross-check off."""
    cfg = write_config(tmp_path)
    cfg.write_text(cfg.read_text().replace('"max_iters": 60', f'"max_iters": 60, "cross_check_tol": {tol}'))
    out = tmp_path / "run"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "divergence"])
    assert res.exit_code == 2, res.output
    assert "config error: optimizer cross_check_tol must be a finite float > 0" in res.output
    assert not out.exists()


def test_config_errors_exit_2(tmp_path, runner):
    out = tmp_path / "run"
    res = runner.invoke(main, ["--config", str(tmp_path / "nope.json"), "--out", str(out), "validate"])
    assert res.exit_code == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"channels": {"n0": {"name": "identity"}, "n1": {"name": "identity"}}, "junk": 1}))
    res2 = runner.invoke(main, ["--config", str(bad), "--out", str(out), "validate"])
    assert res2.exit_code == 2
    assert "schema" in res2.output
    missing = tmp_path / "missing_param.json"
    missing.write_text(
        json.dumps({"channels": {"n0": {"name": "depolarizing"}, "n1": {"name": "identity"}}})
    )
    res3 = runner.invoke(main, ["--config", str(missing), "--out", str(out), "validate"])
    assert res3.exit_code == 2
    # the divergence command has no block size, so the schema rejects one
    block = write_config(tmp_path, divergence={"kinds": ["max"], "l": 2})
    res4 = runner.invoke(main, ["--config", str(block), "--out", str(out), "divergence"])
    assert res4.exit_code == 2
    assert "schema" in res4.output
    # pvm_restarts is not an optimizer key
    pvm = write_config(tmp_path, optimizer={"restarts": 2, "pvm_restarts": 8})
    res6 = runner.invoke(main, ["--config", str(pvm), "--out", str(out), "divergence"])
    assert res6.exit_code == 2
    assert "schema" in res6.output
    # "integer" keys take JSON integer literals only: an integral float is a
    # config error for the command that reads the key
    base = json.loads(write_config(tmp_path).read_text())
    floats = [
        ("simulate", ("simulate", "trials"), 100.0),
        ("simulate", ("simulate", "step_cap_factor"), 4.0),
        ("simulate", ("simulate", "l"), 2.0),
        ("simulate", ("simulate", "n"), 100.0),
        ("simulate", ("seed",), 7.0),
        ("sweep", ("sweep", "trials"), 50.0),
        ("sweep", ("sweep", "budgets"), [50.0, 100]),
        ("regions", ("regions", "l_max"), 2.0),
        ("regions", ("regions", "samples"), 32.0),
        ("divergence", ("optimizer", "restarts"), 2.0),
    ]
    for command, key, value in floats:
        cfg = json.loads(json.dumps(base))
        node = cfg
        for k in key[:-1]:
            node = node[k]
        node[key[-1]] = value
        path = tmp_path / "float.json"
        path.write_text(json.dumps(cfg))
        res5 = runner.invoke(main, ["--config", str(path), "--out", str(out), "--no-timestamp", command])
        assert res5.exit_code == 2, (key, res5.output)
        assert "config rejected by schema" in res5.output, key
    # a rejected config leaves no run directory behind
    assert not out.exists()


_DIAG = [[[1.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.2, 0.0]]]


@pytest.mark.parametrize(
    "channels",
    [
        {"n0": {"name": "replacer", "params": {"sigma": _DIAG}}, "n1": {"name": "bernoulliReplacer", "params": {"q": 0.5}}},
        {"n0": {"name": "identity", "params": {"dim": 3}}, "n1": {"name": "depolarizing", "params": {"p": 0.5}}},
        {"n0": {"name": "identity", "params": {"dim": 0}}, "n1": {"name": "identity", "params": {"dim": 0}}},
        {"n0": {"file": "twice_identity.json"}, "n1": {"name": "identity"}},
        {"n0": {"file": "not_json.json"}, "n1": {"name": "identity"}},
    ],
    ids=["sigma_not_a_state", "dimensions_differ", "zero_dimension", "file_not_a_channel", "file_not_json"],
)
def test_channel_specs_the_library_rejects_exit_2(tmp_path, runner, monkeypatch, channels):
    """A channel spec the library rejects, or a pair whose channels map
    different dimensions, is a config error caught before the run
    directory exists."""
    monkeypatch.chdir(tmp_path)
    twice = [[[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]]  # sum K^dag K = 4 I
    (tmp_path / "twice_identity.json").write_text(json.dumps({"type": "channel", "kraus": twice}))
    (tmp_path / "not_json.json").write_text("{")
    out = tmp_path / "run"
    cfg = write_config(tmp_path, channels=channels)
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "--no-timestamp", "validate"])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("config error: ")
    assert not out.exists()


def test_every_config_key_is_documented():
    """Each key the schema admits appears in docs/formats.md, in backticks
    or as a JSON key, alone or at the end of a dotted path."""
    schema = json.loads(importlib.resources.files("chandisc").joinpath("config_schema.json").read_text())
    docs = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()

    def keys(node):
        for key, sub in node.get("properties", {}).items():
            yield key
            yield from keys(sub)
        for sub in node.get("definitions", {}).values():
            yield from keys(sub)
        for sub in node.get("oneOf", []):
            yield from keys(sub)

    missing = [k for k in keys(schema) if not re.search(rf"[`\"](?:\w+\.)*{k}[`\"]", docs)]
    assert missing == []


def test_cli_passes_only_the_keys_it_is_given(tmp_path, runner, monkeypatch):
    """SimulationPlan, sweep_budgets and region_chain get an optional key
    only when the config sets it, unchanged; their own defaults fill the
    rest.  simulate.step_cap_factor reaches both SimulationPlan and
    sweep_budgets."""
    calls = {}

    class Recorded(Exception):
        pass

    def recorder(name):
        def record(*args, **kwargs):
            calls[name] = {k: v for k, v in kwargs.items() if k not in ("strategy", "cfg")}
            raise Recorded

        return record

    for name in ("SimulationPlan", "sweep_budgets", "region_chain"):
        monkeypatch.setattr(f"chandisc.cli.{name}", recorder(name))

    def run(cfg):
        for command in ("simulate", "sweep", "regions"):
            res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "run"), "--no-timestamp", command])
            assert isinstance(res.exception, Recorded), res.output

    run(write_config(tmp_path))
    assert calls == {
        "SimulationPlan": {"trials": 100, "base_seed": 7},
        "sweep_budgets": {"trials": 50, "base_seed": 7},
        "region_chain": {"l_max": 2, "samples": 32},
    }
    given = {"constraint": "probabilistic", "epsilon": 0.1}
    run(
        write_config(
            tmp_path,
            simulate={"mode": "adaptive", "n": 100, "tau": 0.08, "trials": 100, **given, "step_cap_factor": 4},
            sweep={"budgets": [50, 100], "trials": 50, **given},
            regions={"which": ["converse"], "l_max": 1, "alpha_grid": [1.2, 1.7], "samples": 8, "slack": 0.01},
        )
    )
    assert calls == {
        "SimulationPlan": {"trials": 100, "base_seed": 7, **given, "step_cap_factor": 4},
        "sweep_budgets": {"trials": 50, "base_seed": 7, **given, "step_cap_factor": 4},
        "region_chain": {"l_max": 1, "alpha_grid": [1.2, 1.7], "samples": 8, "slack": 0.01},
    }


def test_optimizer_schema_keys_are_the_config_fields():
    """Every optimizer key the schema admits is an OptimizerConfig field and
    every field but the library-only extra_starts is a key, so a config
    that passes the schema builds an OptimizerConfig."""
    schema = json.loads(importlib.resources.files("chandisc").joinpath("config_schema.json").read_text())
    keys = set(schema["properties"]["optimizer"]["properties"])
    assert keys == {f.name for f in dataclasses.fields(OptimizerConfig)} - {"extra_starts"}


def test_numerical_failure_exits_3(tmp_path, runner):
    # infinite pair: simulate must refuse to build the SPRT
    cfg = write_config(
        tmp_path,
        channels={
            "n0": {"name": "identity"},
            "n1": {"name": "depolarizing", "params": {"p": 0.5}},
        },
    )
    out = tmp_path / "run"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "--no-timestamp", "simulate"])
    assert res.exit_code == 3
    assert "InfiniteDivergence" in res.output


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("mode", ["adaptive", "nonAdaptive"])
def test_infinite_direction_exits_3_in_every_mode(tmp_path, runner, command, mode):
    """D(dep(0.5)||id) is infinite in every kind, so there is no witness arm
    to play: both modes exit 3 with InfiniteDivergenceError.  nonAdaptive
    read the missing witness and died with AttributeError and exit 1."""
    cfg = write_config(
        tmp_path,
        channels={"n0": {"name": "depolarizing", "params": {"p": 0.5}}, "n1": {"name": "identity"}},
        simulate={"mode": mode, "n": 100, "tau": 0.08, "trials": 20},
    )
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "run"), "--no-timestamp", command])
    assert res.exit_code == 3, (res.output, res.exception)
    assert f"{command} failed: InfiniteDivergenceError" in res.output


def test_non_adaptive_simulate_and_sweep(tmp_path, runner):
    """nonAdaptive plays the measured witness arm of D(N0||N1) at every step:
    on the Bernoulli pair both rates are KL(0.2||0.8) = 0.6 log 4, and the
    sweep writes one row per budget."""
    cfg = write_config(tmp_path, simulate={"mode": "nonAdaptive", "n": 100, "tau": 0.08, "trials": 100})
    out = tmp_path / "sim"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "--no-timestamp", "simulate"])
    assert res.exit_code == 0, res.output
    strategy = json.loads((out / "strategy.json").read_text())
    assert strategy["adaptive"] is False and "arm" in strategy and "arm_one" not in strategy
    assert strategy["rate0"] == strategy["rate1"] == pytest.approx(0.6 * np.log(4.0), rel=1e-12)
    assert (out / "summary.csv").exists() and (out / "constraint_report.json").exists()
    out = tmp_path / "sweep"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "--no-timestamp", "sweep"])
    assert res.exit_code == 0, res.output
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["50", "100"]


def test_unreadable_config_and_missing_channel_file_exit_2(tmp_path, runner):
    """A config that is not JSON, and a channel file that does not exist,
    are config errors caught before the run directory exists."""
    out = tmp_path / "run"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = runner.invoke(main, ["--config", str(bad), "--out", str(out), "--no-timestamp", "validate"])
    assert res.exit_code == 2, res.output
    assert "config error: config is not valid JSON" in res.output
    cfg = write_config(tmp_path, channels={"n0": {"file": str(tmp_path / "absent.json")}, "n1": {"name": "identity"}})
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "--no-timestamp", "validate"])
    assert res.exit_code == 2, res.output
    assert "config error: channel file not found" in res.output
    assert not out.exists()


def _rare_jump_config(tmp_path, **sections):
    """Replacer channels diag(0.9945, 0.005, 0.0005) against
    diag(0.9945, 0.0005, 0.005), n 100, 200 trials, a step cap of 2 n."""

    def replacer(*p):
        sigma = [[[p[i] if i == j else 0.0, 0.0] for j in range(3)] for i in range(3)]
        return {"name": "replacer", "params": {"sigma": sigma, "in_dim": 2}}

    return write_config(
        tmp_path,
        channels={"n0": replacer(0.9945, 0.005, 0.0005), "n1": replacer(0.9945, 0.0005, 0.005)},
        simulate={"n": 100, "trials": 200, "step_cap_factor": 2},
        **sections,
    )


def test_excessive_censoring_exits_3(tmp_path, runner):
    """A pair whose informative outcomes are rare: one net jump of
    log 10 crosses a threshold (100 (rate - tau) = 0.93), but 0.55 % of the
    uses give a jump, so about exp(-1.1) = 33 % of the traces reach the cap
    of 2 n uses (the seeded run reads 0.367), far above the 5 % limit."""
    cfg = _rare_jump_config(tmp_path)
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "run"), "--no-timestamp", "simulate"])
    assert res.exit_code == 3, res.output
    frac = re.search(r"simulation failed: censored fraction (\S+) exceeds 5%", res.output)
    assert frac and float(frac[1]) > 0.2, res.output


def test_sweep_keeps_the_step_cap(tmp_path, runner):
    """sweep caps its traces at simulate.step_cap_factor x n, as simulate
    does: at the one budget 100, with 200 trials, it censors the same traces
    and exits 3 with the same fraction, instead of running them to the
    default cap of 20 n (mean stops past 200 uses)."""
    cfg = _rare_jump_config(tmp_path, sweep={"budgets": [100], "trials": 200})
    fracs = []
    for command in ("simulate", "sweep"):
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / command), "--no-timestamp", command])
        assert res.exit_code == 3, (command, res.output)
        fracs.append(re.search(r"simulation failed: censored fraction (\S+) exceeds 5%", res.output)[1])
    assert fracs[0] == fracs[1] == "0.367", fracs


def test_divergence_on_pairs_near_the_support_rule(tmp_path, runner):
    """A classical pair whose W0 leaks eps onto an output that W1 never
    gives: at eps = 2e-9, inside the support rule, the measured value is
    certified on the support and the run exits 0; at eps = 1.2e-7 the
    search's witness leaks past the state-level rule, and the run exits 3
    with a one-line message naming the direction."""
    for eps, code in ((2e-9, 0), (1.2e-7, 3)):
        channels = {"n0": {"name": "classical", "params": {"stochastic": [[1 - eps, 0.5], [eps, 0.5]]}},
                    "n1": {"name": "classical", "params": {"stochastic": [[1.0, 0.5], [0.0, 0.5]]}}}
        cfg = write_config(tmp_path, channels=channels, divergence={"kinds": ["measured"]})
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / f"run{code}"), "--no-timestamp",
                                   "divergence"])
        assert res.exit_code == code, (eps, res.output, res.exception)
        lines = res.output.strip().splitlines()
        want = ("measured: 0.000000 nats (lower bound)" if code == 0
                else "divergence failed: OptimizerFailure: measured D(N0||N1)")
        assert len(lines) == 1 and lines[0].startswith(want), (eps, res.output)


def test_seed_flag_overrides_config(tmp_path, runner):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    runner.invoke(main, ["--config", str(cfg), "--seed", "99", "--out", str(out1), "--no-timestamp", "simulate"])
    runner.invoke(main, ["--config", str(cfg), "--seed", "100", "--out", str(out2), "--no-timestamp", "simulate"])
    assert (out1 / "summary.csv").read_text() != (out2 / "summary.csv").read_text()


def test_replay_is_byte_identical(tmp_path, runner):
    cfg = write_config(tmp_path)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "--no-timestamp", "simulate"])
        assert res.exit_code == 0, res.output
        outs.append(out)
    files = sorted(p.name for p in outs[0].iterdir())
    assert files == sorted(p.name for p in outs[1].iterdir())
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_channel_file_loading(tmp_path, runner):
    from chandisc import serialize
    from chandisc.quantum import depolarizing_channel

    ch_path = tmp_path / "chan.json"
    ch_path.write_text(serialize.dumps(serialize.channel_to_json(depolarizing_channel(0.3))))
    cfg = write_config(
        tmp_path,
        channels={
            "n0": {"file": str(ch_path)},
            "n1": {"name": "depolarizing", "params": {"p": 0.7}},
        },
    )
    out = tmp_path / "run"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "--no-timestamp", "validate"])
    assert res.exit_code == 0, res.output


# Golden run directories: the --no-timestamp output of each command on
# write_config's config.  A deliberate change of any output regenerates them.
REPLAY = Path(__file__).parent / "data" / "replay"


@pytest.mark.parametrize("command", ["divergence", "simulate", "sweep", "regions", "validate"])
def test_golden_replay(tmp_path, runner, assert_matches_golden, command):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "--no-timestamp", command])
    assert res.exit_code == 0, res.output
    golden = REPLAY / command
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert_matches_golden((out / name).read_text(), (golden / name).read_text(), name)


def test_missing_config_exits_2(tmp_path, runner):
    res = runner.invoke(main, ["--out", str(tmp_path / "run"), "validate"])
    assert res.exit_code == 2
    assert "config error: --config is required" in res.output


def test_manifest_timestamp_is_iso_8601(tmp_path, runner):
    cfg = write_config(tmp_path, divergence={"kinds": ["max"]})
    out = tmp_path / "run"
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "divergence"])
    assert res.exit_code == 0, res.output
    stamp = datetime.datetime.fromisoformat(json.loads((out / "manifest.json").read_text())["timestamp"])
    assert stamp.tzinfo is not None
