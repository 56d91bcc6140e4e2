import csv
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chandisc import serialize
from chandisc.errors import InvalidStateError, SupportMismatchError
from chandisc.optimize import OptimizerConfig
from chandisc.quantum import (
    DensityMatrix,
    basis_pvm,
    bernoulli_replacer,
    classical_channel,
    random_channel,
    random_density_matrix,
    random_unitary,
)
from chandisc.regions import ExponentRegion, adaptive_region
from chandisc.sim import SimulationPlan, run_trials, sweep_budgets
from chandisc.strategies import build_non_adaptive, build_sprt

CFG = OptimizerConfig(restarts=2, max_iters=60)


def test_matrix_roundtrip_exact():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = serialize.matrix_from_json(serialize.matrix_to_json(m))
    assert np.array_equal(m, back)


def test_complex_writers_give_the_pairs_of_each_entry():
    """The writers give [float(z.real), float(z.imag)] of every entry, also
    for signed zeros, subnormal-range and non-finite parts, of real,
    complex and non-contiguous input."""
    special = [-0.0, 0.0, 1e-300, -1e-300, 5e-324, math.inf, -math.inf, math.nan, 1.5]
    m = np.empty((len(special), len(special)), dtype=complex)
    m.real, m.imag = np.array(special)[:, None], special[::-1]
    for a in (m, m.T, m[::2, 1::3], m.real, np.array([[1, -2]])):
        expect = [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(a, dtype=complex)]
        got = serialize.matrix_to_json(a)
        assert repr(got) == repr(expect) and json.dumps(got) == json.dumps(expect)
        assert all(type(x) is float for row in got for pair in row for x in pair)
        vec = serialize.vector_to_json(a[0])
        assert repr(vec) == repr(expect[0])


def test_state_roundtrip():
    s = random_density_matrix(3, np.random.default_rng(1))
    doc = serialize.state_to_json(s)
    back = serialize.state_from_json(doc)
    assert np.array_equal(s.mat, back.mat)


def test_channel_roundtrip():
    ch = random_channel(2, 2, 4, np.random.default_rng(2))
    text = serialize.dumps(serialize.channel_to_json(ch))
    back = serialize.channel_from_json(serialize.loads(text))
    assert len(back.kraus) == len(ch.kraus)
    for a, b in zip(ch.kraus, back.kraus):
        assert np.array_equal(a, b)
    assert np.array_equal(ch.choi, back.choi)


def test_povm_roundtrip():
    m = basis_pvm(random_unitary(3, np.random.default_rng(3)))
    back = serialize.povm_from_json(serialize.povm_to_json(m))
    assert back.is_pvm
    for a, b in zip(m.effects, back.effects):
        assert np.array_equal(a, b)


def test_povm_without_effects_rejected():
    with pytest.raises(InvalidStateError):
        serialize.povm_from_json({"type": "povm", "label": "empty", "effects": []})


def _fixed_strategy(n0, n1):
    zero = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    return build_non_adaptive(n0, n1, zero, basis_pvm(np.eye(2, dtype=complex)), n=50, tau=0.08)


@pytest.mark.parametrize(
    "build",
    [
        lambda n0, n1: build_sprt(n0, n1, n=50, tau=0.08, cfg=CFG),
        _fixed_strategy,
        lambda n0, n1: build_sprt(n0, n1, l=2, n=50, tau=0.08, cfg=CFG),
    ],
    ids=["adaptive", "non-adaptive", "block-l2"],
)
def test_strategy_roundtrip_reproduces_tables(build):
    strat = build(bernoulli_replacer(0.2), bernoulli_replacer(0.8))
    doc = serialize.strategy_to_json(strat)
    # a non-adaptive strategy stores its one arm as "arm"
    assert ("arm" in doc) == (not strat.adaptive) == ("arm_zero" not in doc)
    text = serialize.dumps(doc)
    back = serialize.strategy_from_json(serialize.loads(text))
    assert serialize.dumps(serialize.strategy_to_json(back)) == text
    assert back.adaptive == strat.adaptive
    assert len(back.arms) == len(strat.arms)
    for a, b in zip(back.arms, strat.arms):
        assert a.ancilla_dim == b.ancilla_dim
        assert np.array_equal(a.input_state.mat, b.input_state.mat)
        assert all(np.array_equal(x, y) for x, y in zip(a.povm.effects, b.povm.effects))
    assert back.threshold_a == strat.threshold_a
    assert back.threshold_b == strat.threshold_b
    assert np.array_equal(back.tables.dists, strat.tables.dists)
    assert np.array_equal(back.tables.increments, strat.tables.increments)
    assert np.array_equal(back.tables.cdfs, strat.tables.cdfs)
    # identical simulation results
    p1 = SimulationPlan(strategy=strat, trials=100, base_seed=3)
    p2 = SimulationPlan(strategy=back, trials=100, base_seed=3)
    assert run_trials(p1) == run_trials(p2)


def test_region_roundtrip_with_infinities():
    region = ExponentRegion(
        kind="rectangle",
        frontier=[(math.inf, 0.47)],
        metadata={"l": 2, "bound": "inner"},
    )
    back = serialize.region_from_json(serialize.loads(serialize.dumps(serialize.region_to_json(region))))
    assert back.kind == region.kind
    assert back.frontier == region.frontier
    assert back.metadata["l"] == 2


@pytest.mark.parametrize("bad", ["nan", "Infinity", "-Infinity", "inff", ""])
def test_region_from_json_rejects_unknown_number_strings(bad):
    doc = serialize.region_to_json(ExponentRegion(kind="rectangle", frontier=[(math.inf, -math.inf)]))
    assert serialize.region_from_json(doc).frontier == [(math.inf, -math.inf)]
    doc["frontier"] = [[bad, 0.5]]
    with pytest.raises(ValueError, match=repr(bad)):
        serialize.region_from_json(doc)


def test_region_csv_contains_metadata_and_vertices():
    region = ExponentRegion(kind="hull", frontier=[(0.0, 1.0), (1.0, 0.0)], metadata={"samples": 8})
    text = serialize.region_to_csv(region, name="test")
    assert "# kind=hull" in text
    assert "# samples=8" in text
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "r0_nats_per_use,r1_nats_per_use"
    assert len(lines) == 3


def test_summary_csv_schema():
    strat = build_sprt(
        bernoulli_replacer(0.2),
        bernoulli_replacer(0.8),
        n=50,
        tau=0.08,
        cfg=OptimizerConfig(restarts=2, max_iters=60),
    )
    s = run_trials(SimulationPlan(strategy=strat, trials=50, base_seed=0))
    text = serialize.summary_to_csv(s)
    lines = text.splitlines()
    assert lines[0].split(",") == serialize.SUMMARY_COLUMNS
    assert len(lines) == 3  # header + one row per hypothesis
    recs = sweep_budgets(strat, [50, 100], trials=50, base_seed=0)
    sweep_text = serialize.sweep_to_csv(recs)
    assert sweep_text.splitlines()[0].split(",") == serialize.SWEEP_COLUMNS
    assert len(sweep_text.splitlines()) == 3


def test_csv_cells_are_numbers_or_labels():
    """Every cell of summary.csv and sweep.csv parses as a number, or is the
    constraint label, also when the strategy's rates are numpy floats."""
    rate = np.float64(0.6 * np.log(4))  # D(bern(0.2)||bern(0.8)) both ways
    strat = dataclasses.replace(_fixed_strategy(bernoulli_replacer(0.2), bernoulli_replacer(0.8)), rate0=rate, rate1=rate)
    summary = run_trials(SimulationPlan(strategy=strat, trials=50, base_seed=0))
    records = sweep_budgets(strat, [50, 100], trials=50, base_seed=0)
    for text in (serialize.summary_to_csv(summary), serialize.sweep_to_csv(records)):
        header, *rows = csv.reader(io.StringIO(text))
        for row in rows:
            for column, cell in zip(header, row, strict=True):
                if column == "constraint":
                    assert cell == "expectation"
                else:
                    float(cell)


def test_dumps_is_canonical():
    doc = {"b": 1.5, "a": [1, 2]}
    assert serialize.dumps(doc) == serialize.dumps({"a": [1, 2], "b": 1.5})
    assert serialize.dumps(doc).endswith("\n")


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(st.floats(), st.floats()).map(list)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@given(doc=_JSON)
@example(doc={"a": [-0.0, 1e16, 1e-05], "b": [math.nan, math.inf, -math.inf], "c": []})
@example(doc={"é\u2603\n\"\\\x00": [[], {}, [[1.5, -2.0]], True, False, None, 3, -(2**70)]})
@example(doc=[1.0, 2.0])
@example(doc=math.nan)
def test_dumps_equals_the_stdlib_encoder(doc):
    assert serialize.dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_dumps_writes_numpy_scalars_and_rejects_other_types_and_keys():
    """numpy integer and floating scalars are written as the int and float
    they hold; other types and keys that are not str raise TypeError, and a
    circular reference RecursionError."""
    doc = {"s": np.float64(0.25), "t": (1, [])}
    assert serialize.dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    numbers = {"i": np.int64(-2), "u": np.uint8(7), "f": np.float32(0.5), "g": [np.float64(0.1), np.int32(3)]}
    assert serialize.dumps(numbers) == serialize.dumps({"i": -2, "u": 7, "f": 0.5, "g": [0.1, 3]})
    for doc in ({"arr": np.zeros(2)}, {"b": np.bool_(True)}, {1: "a"}, {"b": True, 1: None}, {"o": object()}):
        with pytest.raises(TypeError):
            serialize.dumps(doc)
    loop: list = []
    loop.append(loop)
    with pytest.raises(RecursionError):
        serialize.dumps(loop)


def test_strategy_with_a_numpy_budget_writes_the_bytes_of_an_int_budget():
    """SprtStrategy accepts a numpy integer n, and its document is the one
    of the int n.  dumps raised TypeError on the np.int64."""
    zero = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    comp = basis_pvm(np.eye(2, dtype=complex))
    b0, b1 = bernoulli_replacer(0.2), bernoulli_replacer(0.8)
    text = serialize.dumps(serialize.strategy_to_json(build_non_adaptive(b0, b1, zero, comp, n=np.int64(40),
                                                                         tau=0.08)))
    assert text == serialize.dumps(serialize.strategy_to_json(build_non_adaptive(b0, b1, zero, comp, n=40, tau=0.08)))
    assert serialize.strategy_from_json(serialize.loads(text)).n == 40


def test_region_documents_keep_a_numpy_block_size():
    """adaptive_region at l = np.int64(2) writes the JSON and CSV of l = 2,
    l included.  Both writers dropped the np.int64."""
    b0, b1 = bernoulli_replacer(0.2), bernoulli_replacer(0.8)
    r64, r2 = adaptive_region(b0, b1, l=np.int64(2), cfg=CFG), adaptive_region(b0, b1, l=2, cfg=CFG)
    text = serialize.dumps(serialize.region_to_json(r64))
    assert serialize.loads(text)["metadata"]["l"] == 2
    assert text == serialize.dumps(serialize.region_to_json(r2))
    assert "# l=2\n" in serialize.region_to_csv(r64)
    assert serialize.region_to_csv(r64) == serialize.region_to_csv(r2)


@pytest.mark.parametrize("path", sorted(Path(__file__).parent.glob("data/replay/*/*.json")), ids=lambda p: p.parent.name + "/" + p.name)
def test_replay_documents_redump_to_their_bytes(path):
    text = path.read_text()
    assert serialize.dumps(serialize.loads(text)) == text


def test_region_roundtrip_keeps_number_metadata_and_drops_rich_objects():
    """Float metadata and lists of numbers round-trip, the lists as floats;
    other objects, such as witnesses, are not part of the document."""
    metadata = {"slack": 1e-3, "corner": (1, 2.5), "witness": object()}
    region = ExponentRegion(kind="hull", frontier=[(0.0, 1.0)], metadata=metadata)
    back = serialize.region_from_json(serialize.loads(serialize.dumps(serialize.region_to_json(region))))
    assert back.metadata == {"slack": 1e-3, "corner": [1.0, 2.5]}


def test_strategy_document_breaking_a_rule_fails_on_load():
    """A strategy document is checked as a constructed strategy is: the
    classical channels W0 = [[1, .5], [0, .5]] and W1 = [[.9, .5], [.1, .5]]
    give the arm |0>, computational basis, one-sided outcome laws, which
    raise SupportMismatchError."""
    w0, w1 = (classical_channel(np.array(w)) for w in ([[1.0, 0.5], [0.0, 0.5]], [[0.9, 0.5], [0.1, 0.5]]))
    doc = serialize.strategy_to_json(_fixed_strategy(bernoulli_replacer(0.2), bernoulli_replacer(0.8)))
    doc.update(n0=serialize.channel_to_json(w0), n1=serialize.channel_to_json(w1), rate0="inf",
               rate1=math.log(1 / 0.9), tau=0.01)
    with pytest.raises(SupportMismatchError):
        serialize.strategy_from_json(serialize.loads(serialize.dumps(doc)))


@pytest.mark.parametrize("n", [0, 2.5])
def test_strategy_document_with_a_budget_that_is_not_a_count_fails_on_load(n):
    doc = serialize.strategy_to_json(_fixed_strategy(bernoulli_replacer(0.2), bernoulli_replacer(0.8)))
    doc["n"] = n
    with pytest.raises(ValueError, match=rf"n must be an int >= 1, got {n!r}"):
        serialize.strategy_from_json(serialize.loads(serialize.dumps(doc)))
