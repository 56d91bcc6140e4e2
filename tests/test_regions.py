import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chandisc import divergences, quantum, regions, strategies
from chandisc.divergences import ConvergenceWarning, channel_divergence_pair
from chandisc.errors import DegenerateSamplingError
from chandisc.optimize import OptimizerConfig, kl_divergence
from chandisc.quantum import (
    basis_pvm,
    bernoulli_replacer,
    depolarizing_channel,
    max_entangled_vector,
    pure_state,
    random_channel,
    random_unitary,
)
from chandisc.regions import (
    ExponentRegion,
    adaptive_region,
    containment,
    converse_region,
    non_adaptive_region,
    pareto_hull,
    region_chain,
)
from chandisc.serialize import region_to_json
from chandisc.strategies import Arm, arm_laws, rate_pair, rate_pairs

CFG = OptimizerConfig(restarts=2, max_iters=60)


def _route_pair_calls(monkeypatch, spy):
    """Route the channel_divergence_pair calls of the region stages through
    spy: the witness arms' (in strategies) and the converse's."""
    for module in (strategies, regions):
        monkeypatch.setattr(module, "channel_divergence_pair", spy)


def test_containment_trivialities():
    rect = ExponentRegion(kind="rectangle", frontier=[(1.0, 2.0)])
    assert containment(rect, rect, slack=0.0).contained
    origin = ExponentRegion(kind="rectangle", frontier=[(0.0, 0.0)])
    assert containment(origin, rect, slack=0.0).contained
    bigger = ExponentRegion(kind="rectangle", frontier=[(1.5, 2.5)])
    rep = containment(bigger, rect, slack=0.0)
    assert not rep.contained
    assert rep.violations == [(1.5, 2.5)]
    assert containment(bigger, rect, slack=0.6).contained


def test_containment_with_infinite_coordinates():
    a = ExponentRegion(kind="rectangle", frontier=[(math.inf, 0.4)])
    b = ExponentRegion(kind="converseRectangle", frontier=[(math.inf, 0.5)])
    assert containment(a, b, slack=0.0).contained
    assert not containment(b, a, slack=1e-3).contained


def test_hull_boundary_interpolates():
    hull = ExponentRegion(kind="hull", frontier=[(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)])
    assert hull.boundary_r1(0.5) == pytest.approx(1.5)
    assert hull.boundary_r1(1.5) == pytest.approx(0.5)
    assert hull.contains_point(0.5, 1.5)
    assert not hull.contains_point(0.5, 1.51, slack=1e-3)


def test_a_nan_rate_lies_in_no_region():
    """A NaN r0 passes none of boundary_r1's comparisons, so it falls
    through to -inf, and contains_point reads False, on a hull and on a
    rectangle."""
    for region in (ExponentRegion(kind="hull", frontier=[(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)]),
                   ExponentRegion(kind="rectangle", frontier=[(1.0, 2.0)])):
        assert region.boundary_r1(math.nan) == -math.inf
        assert not region.contains_point(math.nan, 0.5)


def test_pareto_hull_staircase_properties():
    pts = [(1.0, 1.0), (0.5, 1.5), (2.0, 0.2), (0.1, 0.1), (1.0, 0.9)]
    frontier = pareto_hull(pts)
    xs = [p[0] for p in frontier]
    ys = [p[1] for p in frontier]
    assert xs == sorted(xs)
    assert ys == sorted(ys, reverse=True)
    region = ExponentRegion(kind="hull", frontier=frontier)
    for p in pts:
        assert region.contains_point(p[0], p[1], slack=1e-12)


def test_rectangle_boundary_is_its_corner_down_closure():
    # values the per-vertex staircase rule gave for single-corner regions
    rect = ExponentRegion(kind="rectangle", frontier=[(1.0, 2.0)])
    assert rect.boundary_r1(-1.0) == 2.0
    assert rect.boundary_r1(0.0) == 2.0
    assert rect.boundary_r1(0.5) == 2.0
    assert rect.boundary_r1(1.0) == 2.0
    assert rect.boundary_r1(1.0 + 1e-12) == -math.inf
    assert rect.boundary_r1(math.inf) == -math.inf
    wide = ExponentRegion(kind="rectangle", frontier=[(math.inf, 0.4)])
    assert wide.boundary_r1(5.0) == 0.4
    assert wide.boundary_r1(math.inf) == 0.4
    tall = ExponentRegion(kind="converseRectangle", frontier=[(0.3, math.inf)])
    assert tall.boundary_r1(0.2) == math.inf
    assert tall.boundary_r1(0.3) == math.inf
    assert tall.boundary_r1(0.4) == -math.inf
    both = ExponentRegion(kind="converseRectangle", frontier=[(math.inf, math.inf)])
    assert both.boundary_r1(math.inf) == math.inf
    assert both.boundary_r1(0.0) == math.inf


def test_pareto_hull_keeps_nearly_tied_pair():
    # each point lies within 1e-15 of dominating the other; neither does
    a = (0.8317766166719346, 0.8317766166719341)
    b = (0.831776616671934, 0.8317766166719348)
    assert pareto_hull([a, b]) == [b, a]
    assert pareto_hull([a, b, (0.4518, 0.4206), (0.0, 0.0)]) == [b, a]


@st.composite
def _jittered_clouds(draw):
    """A few base points in the nonnegative quadrant, each repeated up to
    three times with 1e-16-scale jitter (zero jitter gives exact repeats)."""
    coord = st.floats(0.0, 1.0)
    base = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6))
    jitter = st.integers(-4, 4).map(lambda k: k * 1e-16)
    pts = []
    for x, y in base:
        for _ in range(draw(st.integers(1, 3))):
            pts.append((max(x + draw(jitter), 0.0), max(y + draw(jitter), 0.0)))
    return pts


@settings(max_examples=300, deadline=None)
@given(pts=_jittered_clouds())
def test_pareto_hull_properties(pts):
    frontier = pareto_hull(pts)
    for (x0, y0), (x1, y1) in zip(frontier, frontier[1:]):
        assert x0 < x1 and y0 > y1
    assert set(frontier) <= set(pts)
    assert frontier[0][1] == max(y for _, y in pts)
    assert frontier[-1][0] == max(x for x, _ in pts)
    region = ExponentRegion(kind="hull", frontier=frontier)
    for x, y in pts:
        assert region.contains_point(x, y, slack=1e-12)
    for (ox, oy), (vx, vy), (nx, ny) in zip(frontier, frontier[1:], frontier[2:]):
        # a clockwise turn: v lies strictly above the chord from o to n
        assert (vx - ox) * (ny - oy) - (vy - oy) * (nx - ox) < 0


def test_adaptive_region_equal_channels_degenerate():
    ch = depolarizing_channel(0.4)
    r = adaptive_region(ch, ch, l=1, cfg=CFG)
    assert r.kind == "rectangle"
    (x, y), = r.frontier
    assert abs(x) < 1e-8 and abs(y) < 1e-8


def test_adaptive_region_commuting_classical_corner():
    n0 = bernoulli_replacer(0.2)
    n1 = bernoulli_replacer(0.8)
    r = adaptive_region(n0, n1, l=1, cfg=CFG)
    kl01 = kl_divergence([0.2, 0.8], [0.8, 0.2])
    kl10 = kl_divergence([0.8, 0.2], [0.2, 0.8])
    (x, y), = r.frontier
    assert x == pytest.approx(kl10, abs=1e-6)
    assert y == pytest.approx(kl01, abs=1e-6)


def test_adaptive_region_l2_dominates_l1():
    n0 = depolarizing_channel(0.3)
    n1 = depolarizing_channel(0.7)
    r1 = adaptive_region(n0, n1, l=1, cfg=OptimizerConfig(restarts=4, max_iters=80))
    cfg2 = OptimizerConfig(restarts=2, max_iters=40)
    cfg2.extra_starts = [
        r1.metadata["witness_10"].input_vector,
        r1.metadata["witness_01"].input_vector,
    ]
    r2 = adaptive_region(n0, n1, l=2, cfg=cfg2)
    assert r2.frontier[0][0] >= r1.frontier[0][0] - 1e-3
    assert r2.frontier[0][1] >= r1.frontier[0][1] - 1e-3


def test_non_adaptive_region_inside_adaptive():
    n0 = bernoulli_replacer(0.2)
    n1 = bernoulli_replacer(0.8)
    adapt = adaptive_region(n0, n1, l=1, cfg=CFG)
    hull = non_adaptive_region(n0, n1, cfg=CFG, samples=64)
    assert hull.kind == "hull"
    assert containment(hull, adapt, slack=1e-6).contained


def _qutrit_pair():
    rng = np.random.default_rng(5)
    return random_channel(3, 3, 9, rng), random_channel(3, 3, 9, rng)


@pytest.mark.parametrize(
    "pair",
    [lambda: (depolarizing_channel(0.3), depolarizing_channel(0.7)), _qutrit_pair],
    ids=["qubit", "qutrit"],
)
def test_non_adaptive_samples_match_per_sample_arms(pair, monkeypatch):
    """The batched hull rates equal those of one Arm per sample on the same
    seeded draws (per sample: the Ginibre input, then the PVM's unitary).
    The qutrit pair has 9 outcomes per law."""
    n0, n1 = pair()
    got = []

    def spy(p0, p1):
        rates = rate_pairs(p0, p1)
        got.extend(zip(*rates))
        return rates

    monkeypatch.setattr(regions, "rate_pairs", spy)
    cfg = OptimizerConfig(seed=3)
    hull = non_adaptive_region(n0, n1, cfg=cfg, samples=64)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x5A)))
    d = n0.in_dim
    want = []
    for _ in range(64):
        psi = quantum._ginibre(d * d, 1, rng)[:, 0]
        arm = Arm(pure_state(psi), basis_pvm(random_unitary(d * n0.out_dim, rng)), d)
        want.append(rate_pair(*arm_laws(arm, n0, n1)))
    assert len(got) == len(want) == 64
    for g, w in zip(np.ravel(got), np.ravel(want)):
        assert abs(g - w) <= 1e-14 * max(1.0, abs(w)), (g, w)
    skipped = sum(not (math.isfinite(a) and math.isfinite(b)) for a, b in want)
    assert hull.metadata["skipped_infinite"] == skipped


def _acceptance_6_random_pair():
    rng = np.random.default_rng(20240823)
    return random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng)


def _zero_transition_pair():
    """Classical channels where 0 never becomes 1 under N0 only."""
    w0, w1 = np.array([[1.0, 0.5], [0.0, 0.5]]), np.full((2, 2), 0.5)
    return quantum.classical_channel(w0), quantum.classical_channel(w1)


@pytest.mark.parametrize(
    "pair",
    [
        lambda: (depolarizing_channel(0.3), depolarizing_channel(0.7)),
        _acceptance_6_random_pair,
        lambda: (quantum.amplitude_damping_channel(0.2), quantum.amplitude_damping_channel(0.6)),
        _qutrit_pair,
        _zero_transition_pair,
    ],
    ids=["dep", "random", "amplitude-damping", "qutrit", "zero-transition"],
)
def test_non_adaptive_hull_equals_rating_each_sample_alone(pair, monkeypatch, scalar_kl):
    """Rating every sample in one pass gives the frontier and
    skipped_infinite of rating them one at a time with the scalar KL, with
    an arm's rates passed as a point either way.  Amplitude damping has
    infinite channel divergences, though its sampled rates are finite; the
    qutrit laws have 9 outcomes; the classical pair with a zero transition
    makes the computational arm's rate infinite."""
    n0, n1 = pair()
    d = n0.in_dim
    laws = arm_laws(Arm(pure_state(quantum.max_entangled_vector(d)), basis_pvm(np.eye(d * n0.out_dim)), d), n0, n1)
    cfg = OptimizerConfig(seed=3)
    got = non_adaptive_region(n0, n1, cfg=cfg, samples=256, points=[rate_pair(*laws)])

    def one_at_a_time(p0, p1):
        rates = [(scalar_kl(a, b), scalar_kl(b, a)) for a, b in zip(np.atleast_2d(p1), np.atleast_2d(p0))]
        return tuple(np.array(r).reshape(np.shape(p0)[:-1]) for r in zip(*rates))

    monkeypatch.setattr(regions, "rate_pairs", one_at_a_time)
    want = non_adaptive_region(n0, n1, cfg=cfg, samples=256, points=[tuple(map(float, one_at_a_time(*laws)))])
    assert got.frontier == want.frontier and got.metadata == want.metadata
    assert got.metadata["skipped_infinite"] == (n0.label == "classical")


def test_non_adaptive_samples_make_no_per_sample_objects(monkeypatch):
    calls = []
    real = quantum.outcome_distribution

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(quantum, "outcome_distribution", spy)
    monkeypatch.setattr(strategies, "outcome_distribution", spy)
    n0, n1 = depolarizing_channel(0.3), depolarizing_channel(0.7)
    non_adaptive_region(n0, n1, cfg=CFG, samples=64)
    assert calls == []
    # an arm is rated by its caller, two laws; the hull takes its rates as a point
    arm = Arm(pure_state(quantum.max_entangled_vector(2)), basis_pvm(np.eye(4)), 2)
    point = rate_pair(*arm_laws(arm, n0, n1))
    assert len(calls) == 2
    hull = non_adaptive_region(n0, n1, cfg=CFG, samples=64, points=[point, point])
    assert len(calls) == 2 and hull.contains_point(*point)


def test_non_adaptive_region_degenerate_pair_has_full_metadata():
    ch = depolarizing_channel(0.3)
    flat = non_adaptive_region(ch, ch, cfg=CFG, samples=16)
    assert flat.frontier == [(0.0, 0.0)]
    normal = non_adaptive_region(ch, depolarizing_channel(0.7), cfg=CFG, samples=16)
    assert flat.metadata == {"samples": 16, "skipped_infinite": 0, "bound": "inner"}
    assert flat.metadata.keys() == normal.metadata.keys()


def test_non_adaptive_region_without_samples_is_its_points():
    """With no samples and no points no finite pair exists, which raises
    DegenerateSamplingError; with one point the hull is that point."""
    n0, n1 = depolarizing_channel(0.3), depolarizing_channel(0.7)
    with pytest.raises(DegenerateSamplingError, match="no finite KL pairs sampled"):
        non_adaptive_region(n0, n1, samples=0)
    hull = non_adaptive_region(n0, n1, samples=0, points=[(1.0, 2.0)])
    assert hull.frontier == [(1.0, 2.0)]
    assert hull.metadata == {"samples": 0, "skipped_infinite": 0, "bound": "inner"}


def test_converse_dominates_adaptive():
    n0 = bernoulli_replacer(0.2)
    n1 = bernoulli_replacer(0.8)
    adapt = adaptive_region(n0, n1, l=1, cfg=CFG)
    conv = converse_region(n0, n1, [1.05, 1.1, 1.5], l=1, cfg=CFG)
    assert conv.kind == "converseRectangle"
    assert containment(adapt, conv, slack=1e-3).contained


def test_converse_rejects_bad_alpha(monkeypatch):
    """The converse and the chain name a bad grid; the chain raises before
    the adaptive searches, the hull or the converse run, so no block pair
    call is made."""
    ch = depolarizing_channel(0.5)
    for grid in ([0.9], [], [1.5, 1.0]):
        with pytest.raises(ValueError, match=rf"alpha grid \[{', '.join(map(str, grid))}\]"):
            converse_region(ch, ch, grid, l=1, cfg=CFG)
    calls = []
    _route_pair_calls(monkeypatch, lambda *args, **kwargs: calls.append(args))
    for grid in ((0.9,), ()):
        with pytest.raises(ValueError, match=r"alpha grid \["):
            region_chain(depolarizing_channel(0.3), depolarizing_channel(0.7), cfg=CFG, alpha_grid=grid, samples=8)
    assert calls == []


def test_a_nan_order_in_the_grid_raises(monkeypatch):
    """A NaN order is not above 1: the converse and the chain name a grid
    holding one and raise ValueError before any block pair call.  The check
    read a <= 1, which NaN passes."""
    calls = []
    _route_pair_calls(monkeypatch, lambda *args, **kwargs: calls.append(args))
    for grid in ([math.nan], [1.5, math.nan]):
        with pytest.raises(ValueError, match=rf"alpha grid \[{', '.join(map(str, grid))}\]"):
            converse_region(depolarizing_channel(0.5), depolarizing_channel(0.5), grid, l=1, cfg=CFG)
        with pytest.raises(ValueError, match=r"alpha grid \["):
            region_chain(depolarizing_channel(0.3), depolarizing_channel(0.7), cfg=CFG, alpha_grid=grid, samples=8)
    assert calls == []


def test_an_infinite_order_in_the_grid_raises(monkeypatch):
    """An infinite order is outside (1, inf): the converse and the chain
    name a grid holding one and raise ValueError before any block pair
    call.  The chain died in a LinAlgError in its converse stage."""
    calls = []
    _route_pair_calls(monkeypatch, lambda *args, **kwargs: calls.append(args))
    for grid in ([math.inf], [1.5, math.inf]):
        with pytest.raises(ValueError, match=rf"alpha grid \[{', '.join(map(str, grid))}\]"):
            converse_region(depolarizing_channel(0.5), depolarizing_channel(0.5), grid, l=1, cfg=CFG)
        with pytest.raises(ValueError, match=r"alpha grid \["):
            region_chain(depolarizing_channel(0.3), depolarizing_channel(0.7), cfg=CFG, alpha_grid=grid, samples=8)
    assert calls == []


def test_a_nan_negative_or_infinite_slack_raises(monkeypatch):
    """containment and the chain take a slack in [0, inf) alone, and the
    chain checks it before any stage runs.  A NaN slack read every vertex
    as outside, so the chain reported each containment as violated."""
    rect = ExponentRegion(kind="rectangle", frontier=[(1.0, 2.0)])
    calls = []
    _route_pair_calls(monkeypatch, lambda *args, **kwargs: calls.append(args))
    for slack in (math.nan, -1e-3, math.inf):
        with pytest.raises(ValueError, match=f"slack {slack} must be finite and >= 0"):
            containment(rect, rect, slack)
        with pytest.raises(ValueError, match=f"slack {slack} must be finite and >= 0"):
            region_chain(depolarizing_channel(0.3), depolarizing_channel(0.7), cfg=CFG, samples=8, slack=slack)
    assert calls == []


def test_converse_evaluates_the_smallest_order_of_the_grid():
    """On a shuffled grid the converse equals the per-use values at its
    smallest order bit for bit, and the grid is recorded whole.  The
    sandwiched divergence rises with alpha on this pair, so the value at the
    grid's first or largest order (1.5) would differ."""
    n0, n1 = depolarizing_channel(0.3), depolarizing_channel(0.7)
    conv = converse_region(n0, n1, (1.5, 1.05, 1.1), l=1, cfg=CFG)
    per_order = {a: channel_divergence_pair(n0, n1, "renyi", a, CFG) for a in (1.05, 1.1, 1.5)}
    e01, e10 = per_order[1.05]
    assert conv.frontier == [(e10.value, e01.value)]
    assert conv.metadata["alpha_grid"] == [1.5, 1.05, 1.1]
    for i in (0, 1):
        values = [per_order[a][i].value for a in (1.05, 1.1, 1.5)]
        assert values[0] < values[1] < values[2]


def test_region_chain_makes_one_renyi_call(monkeypatch):
    """Whatever the grid's length and order, the chain evaluates the
    converse once, at the smallest order and at l_max.

    On identity vs dep(0.5) the renyi value is -log 0.625 at every order up
    to rounding, so the adaptive floor decides the converse coordinate at
    rounding level: at this config the chain reads 0.4700036292457379, the
    l = 2 adaptive corner, against 0.4700036292457342 at alpha = 1.05
    (-log 0.625 = 0.4700036292457356).  Its last bit is not asserted."""
    seen = []

    def spy(n0, n1, kind="relative", alpha=None, cfg=None, l=1):
        seen.append((l, kind, alpha))
        return channel_divergence_pair(n0, n1, kind, alpha, cfg, l)

    _route_pair_calls(monkeypatch, spy)
    cfg = OptimizerConfig(restarts=4, max_iters=100)
    region_chain(depolarizing_channel(0.3), depolarizing_channel(0.7), cfg=cfg, l_max=2,
                 alpha_grid=(1.5, 1.05, 1.1), samples=32)
    assert [c for c in seen if c[1] == "renyi"] == [(2, "renyi", 1.05)]
    seen.clear()
    chain = region_chain(quantum.identity_channel(2), depolarizing_channel(0.5), cfg=cfg, l_max=2,
                         alpha_grid=(1.1, 1.05), samples=32)
    assert [c for c in seen if c[1] == "renyi"] == [(2, "renyi", 1.05)]
    (cx, cy), = chain.converse.frontier
    assert math.isinf(cx) and cy >= chain.adaptive[2].frontier[0][1]
    assert cy == pytest.approx(-math.log(0.625), abs=1e-12)


def test_region_chain_keeps_a_witness_pvm_above_the_program():
    """The 8th of eight random_channel(2, 2, 3) / random_channel(2, 2, 4)
    pairs drawn from default_rng(7): at l = 2 one direction's witness PVM
    reads more than 10 cross_check_tol above its variational program.  That
    is no fault of the value, which the PVM's KL certifies, so the chain
    completes with the certifier's note and its containments hold.  It
    raised OptimizerFailure from the l = 2 stage."""
    rng = np.random.default_rng(7)
    n0, n1 = [(random_channel(2, 2, 3, rng), random_channel(2, 2, 4, rng)) for _ in range(8)][7]
    cfg = OptimizerConfig(restarts=4, max_iters=100)
    with pytest.warns(ConvergenceWarning):
        chain = region_chain(n0, n1, cfg=cfg)
    assert "warnings" not in chain.adaptive[1].metadata
    (note,) = chain.adaptive[2].metadata["warnings"]
    assert note.startswith("estimators disagree by ") and float(note.split()[-1]) > 10 * cfg.cross_check_tol
    assert all(rep.contained for rep in chain.containments.values()), chain.containments


def test_region_chain_completes_where_a_cut_block_search_left_the_support_rule():
    """The 7th of eight random_channel(2, 2, 4) pairs drawn from
    default_rng(19), at the benchmark's budget.  A block search cut at
    max_iters // 2 = 50 iterations stopped at an input whose outputs
    straddle PSD_TOL, which the support rule read as unsupported, and the
    chain raised OptimizerFailure from its l = 2 stage.  Block searches run
    at the caller's max_iters, so it completes and its containments hold."""
    rng = np.random.default_rng(19)
    n0, n1 = [(random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng)) for _ in range(8)][6]
    chain = region_chain(n0, n1, cfg=OptimizerConfig(restarts=4, max_iters=100), samples=256)
    assert all(rep.contained for rep in chain.containments.values()), chain.containments


def test_region_chain_classical_pair():
    n0 = bernoulli_replacer(0.2)
    n1 = bernoulli_replacer(0.8)
    chain = region_chain(n0, n1, cfg=CFG, l_max=2, samples=64)
    for key, rep in chain.containments.items():
        assert rep.contained, (key, rep.violations)
    # classical pair: the commuting corner is the classical KL pair
    kl = kl_divergence([0.2, 0.8], [0.8, 0.2])
    (x, y), = chain.adaptive[1].frontier
    assert x == pytest.approx(kl, abs=1e-5)
    assert y == pytest.approx(kl, abs=1e-5)


def test_region_chain_handles_infinite_direction():
    from chandisc.quantum import identity_channel

    chain = region_chain(identity_channel(2), depolarizing_channel(0.5), cfg=CFG, samples=32)
    (x, y), = chain.adaptive[1].frontier
    assert math.isinf(x)  # dep-vs-id direction has no support containment
    assert y == pytest.approx(-math.log(0.625), abs=1e-3)
    for key, rep in chain.containments.items():
        assert rep.contained, (key, rep.violations)


def test_region_chain_depolarizing_hull_is_not_collapsed():
    chain = region_chain(
        depolarizing_channel(0.3), depolarizing_channel(0.7), cfg=CFG, l_max=1, samples=32
    )
    frontier = chain.non_adaptive.frontier
    assert frontier != [(0.0, 0.0)]
    # the witness arms reach the adaptive corner, so the hull does too
    (x, y), = chain.adaptive[1].frontier
    assert chain.non_adaptive.max_r0() == pytest.approx(x, abs=1e-9)
    assert chain.non_adaptive.max_r1() == pytest.approx(y, abs=1e-9)
    for key, rep in chain.containments.items():
        assert rep.contained, (key, rep.violations)


def test_region_chain_passes_each_block_size_the_witnesses_that_fit(monkeypatch):
    """Every adaptive block stage l >= 2 takes the caller's starts and the
    two l = 1 witnesses, in that order, never the witnesses of a block.
    The converse takes the caller's config itself: its Renyi search needs no
    carried start."""
    seen = []

    def spy(n0, n1, kind="relative", alpha=None, cfg=None, l=1):
        seen.append((l, kind, [np.asarray(v).size for v in cfg.extra_starts], cfg))
        return channel_divergence_pair(n0, n1, kind, alpha, cfg, l)

    _route_pair_calls(monkeypatch, spy)
    start = max_entangled_vector(2) / math.sqrt(2.0)
    cfg = OptimizerConfig(restarts=1, max_iters=5, extra_starts=[start])
    chain = region_chain(bernoulli_replacer(0.2), bernoulli_replacer(0.8), cfg=cfg, l_max=3, alpha_grid=(1.5,),
                         samples=8)
    assert [(l, kind) for l, kind, _, _ in seen] == [(1, "measured"), (2, "measured"), (3, "measured"), (3, "renyi")]
    witnesses = [chain.adaptive[1].metadata[key].input_vector for key in ("witness_10", "witness_01")]
    for l, kind, sizes, sub in seen:
        if l == 1 or kind == "renyi":
            assert sub is cfg
            continue
        assert sizes == [4, 4, 4]
        assert all(map(np.array_equal, sub.extra_starts, [start] + witnesses))
def test_region_chain_builds_each_tensor_power_once(monkeypatch):
    """Every l >= 2 power of each channel is built once for that channel's
    lifetime: by the first chain, for the adaptive stage and the converse
    together, and neither by a second chain on the same channels nor by
    build_sprt at l = 2.  New channels build their own."""
    built = []
    real = quantum.QuantumChannel

    def spy(kraus, label=None):
        built.append(label)
        return real(kraus, label)

    cfg = OptimizerConfig(restarts=1, max_iters=5)

    def chains(n0, n1):
        monkeypatch.setattr(quantum, "QuantumChannel", spy)
        for _ in range(2):
            region_chain(n0, n1, cfg=cfg, l_max=3, alpha_grid=(1.1, 1.5), samples=8)
        strategies.build_sprt(n0, n1, n=20, cfg=cfg, l=2)
        monkeypatch.setattr(quantum, "QuantumChannel", real)

    powers = [f"replacer(bern({q}))^(x){l}" for q in (0.2, 0.8) for l in (2, 3)]
    chains(bernoulli_replacer(0.2), bernoulli_replacer(0.8))
    assert sorted(built) == powers
    chains(bernoulli_replacer(0.2), bernoulli_replacer(0.8))
    assert sorted(built) == sorted(2 * powers)


def test_region_chain_takes_no_decomposition_the_code_already_holds(eig_calls):
    """The chain of the block_regions benchmark's config on dep(0.3)/dep(0.7)
    takes at most 16 eigh on fresh channels: the converse's Renyi upper end
    at l_max reads the sandwich decomposition the adaptive stage's D_BS
    left there.  Run again on the same channels, which then hold their
    powers, Choi states and every bracket's ends, it takes at most 6 eigh
    and no eigvalsh: only the measured certifiers' programs decompose, and
    every measured witness is the eigenbasis the certifier's log-ratio
    start already decomposed."""
    n0, n1 = depolarizing_channel(0.3), depolarizing_channel(0.7)
    cfg = OptimizerConfig(restarts=4, max_iters=100)
    for most in (16, 6):
        eig_calls.clear()
        region_chain(n0, n1, cfg=cfg, l_max=2, alpha_grid=(1.1, 1.5), samples=256, slack=1e-3)
        assert eig_calls.count("eigh") <= most, eig_calls
    assert eig_calls.count("eigvalsh") == 0, eig_calls


def test_region_chain_rates_each_witness_arm_once(monkeypatch):
    """On the block_regions benchmark config a chain computes 8 outcome laws:
    each of the four witness arms (l = 1 and 2) under both channels.  The
    hull computes none; it takes the l = 1 arms' rates as points."""
    calls, in_hull = [], []
    real_law, real_hull = quantum.outcome_distribution, regions.non_adaptive_region

    def law(*args):
        calls.append(args)
        return real_law(*args)

    def hull(*args, **kwargs):
        before = len(calls)
        region = real_hull(*args, **kwargs)
        in_hull.append(len(calls) - before)
        return region

    monkeypatch.setattr(strategies, "outcome_distribution", law)
    monkeypatch.setattr(regions, "non_adaptive_region", hull)
    region_chain(depolarizing_channel(0.3), depolarizing_channel(0.7), cfg=OptimizerConfig(restarts=4, max_iters=100),
                 l_max=2, alpha_grid=(1.1, 1.5), samples=256, slack=1e-3)
    assert len(calls) == 8 and in_hull == [0]


def test_region_chain_with_pair_searches_equals_one_direction_runs(monkeypatch, caplog):
    """The chain of the block_regions benchmark config: frontiers, witnesses,
    verdicts and every search's DEBUG record equal those of a chain that runs
    each direction's block search on its own."""
    cfg = OptimizerConfig(restarts=4, max_iters=100)

    def chain():
        caplog.clear()
        c = region_chain(depolarizing_channel(0.3), depolarizing_channel(0.7), cfg=cfg, l_max=2,
                         alpha_grid=(1.1, 1.5), samples=256, slack=1e-3)
        return c, sorted(repr(r.multistart) for r in caplog.records)

    def one_direction_runs(n0, n1, kind="relative", alpha=None, cfg=None, l=1):
        return tuple(divergences.channel_divergence(*pair, kind, alpha, cfg, l) for pair in ((n0, n1), (n1, n0)))

    with caplog.at_level(logging.DEBUG, logger="chandisc.optimize"):
        paired, together = chain()
        _route_pair_calls(monkeypatch, one_direction_runs)
        alone, separate = chain()
    assert together == separate and len(together) > 0
    for a, b in zip(_regions_of(paired), _regions_of(alone)):
        assert a.frontier == b.frontier
        assert {k: v for k, v in a.metadata.items() if not k.startswith("witness")} == {
            k: v for k, v in b.metadata.items() if not k.startswith("witness")
        }
        for key in ("witness_01", "witness_10"):
            if key in a.metadata:
                wa, wb = a.metadata[key], b.metadata[key]
                assert np.array_equal(wa.input_vector, wb.input_vector)
                assert all(map(np.array_equal, wa.povm.effects, wb.povm.effects))
    assert {k: (r.contained, r.violations) for k, r in paired.containments.items()} == {
        k: (r.contained, r.violations) for k, r in alone.containments.items()
    }


def _regions_of(chain) -> list:
    return [chain.non_adaptive, chain.converse] + [chain.adaptive[l] for l in sorted(chain.adaptive)]


def _in_down_closed_hull(point, points, tol) -> bool:
    """Whether point lies within tol in the down-closed convex hull of points:
    lam r0 + (1 - lam) r1 stays within tol of the hull's support function at
    every lam in [0, 1].  The gap is concave and piecewise linear in lam, so
    the ends and the lams where two points' values cross decide it."""
    lams = [0.0, 1.0] + [(b1 - b0) / ((a0 - b0) - (a1 - b1)) for a0, b0 in points for a1, b1 in points
                         if a0 - b0 != a1 - b1]
    return all(lam * point[0] + (1 - lam) * point[1] <= max(lam * a + (1 - lam) * b for a, b in points) + tol
               for lam in lams if 0.0 <= lam <= 1.0)


def test_region_chain_meets_the_classical_closed_forms(classical_pair, classical_closed_forms):
    """Every tier of region_chain on a classical pair against its closed
    form, at l_max = 2 on the two-letter pairs and 1 on the three-letter
    pair: the adaptive corners equal the exact corner (max_x KL per
    coordinate), every hull vertex lies in the exact hull of the per-letter
    points and its extremes meet the corner, and build_sprt's rates equal the
    corner, all within 1e-12.  Every frontier coordinate is a plain float.
    The hull of the three-letter pair misses the exact middle vertex
    (1.2142, 1.2142): its Haar samples do not reach it, and the witness arms
    give only the outer two."""
    w0, w1 = classical_pair
    forms = classical_closed_forms(w0, w1)
    n0, n1 = (quantum.classical_channel(w) for w in classical_pair)
    cfg = OptimizerConfig(restarts=4, max_iters=100)
    chain = region_chain(n0, n1, cfg=cfg, l_max=2 if w0.shape[1] == 2 else 1)
    for l, region in chain.adaptive.items():
        (x, y), = region.frontier
        assert max(abs(x - forms.corner[0]), abs(y - forms.corner[1])) <= 1e-12, (l, x, y, forms.corner)
    hull = chain.non_adaptive
    assert all(_in_down_closed_hull(v, forms.points, 1e-12) for v in hull.frontier), (hull.frontier, forms.points)
    assert abs(hull.max_r0() - forms.corner[0]) <= 1e-12 and abs(hull.max_r1() - forms.corner[1]) <= 1e-12
    strat = strategies.build_sprt(n0, n1, n=100, cfg=cfg)
    assert abs(strat.rate0 - forms.corner[0]) <= 1e-12 and abs(strat.rate1 - forms.corner[1]) <= 1e-12
    assert {type(c) for region in _regions_of(chain) for v in region.frontier for c in v} == {float}


@pytest.mark.parametrize(
    "pair",
    [
        lambda: (quantum.amplitude_damping_channel(0.2), quantum.amplitude_damping_channel(0.6)),
        lambda: (quantum.identity_channel(2), depolarizing_channel(0.5)),
        lambda: (bernoulli_replacer(0.2), bernoulli_replacer(0.8)),
    ],
    ids=["amplitude-damping", "id-vs-dep", "replacers"],
)
def test_region_documents_keep_their_keys(pair):
    """Each region document of a chain holds the metadata keys of the
    scalar fields only: the witnesses, their rates and the certifier's notes
    stay out, also where no witness has a POVM (amplitude damping) and the
    rates are empty."""
    chain = region_chain(*pair(), cfg=CFG, samples=32)
    keys = {name: set(region_to_json(r)["metadata"]) for name, r in
            [("hull", chain.non_adaptive), ("converse", chain.converse)]
            + [(f"adaptive{l}", r) for l, r in chain.adaptive.items()]}
    assert keys == {"hull": {"samples", "skipped_infinite", "bound"}, "converse": {"l", "alpha_grid", "bound"},
                    "adaptive1": {"l", "bound"}, "adaptive2": {"l", "bound"}}


def test_adaptive_region_keeps_the_certifier_notes(certifier_witnesses):
    """An adaptive rectangle lists the cross-check notes of its two
    measured values in metadata["warnings"], and has no such key when there
    are none; the region document leaves the notes out.  The first
    random_channel(2, 2, 4, default_rng(5)) pair at a cross_check_tol of a
    third of the larger gap that the certifiers of its two measured values
    read on their witness outputs, so no gap exceeds ten times it."""
    rng = np.random.default_rng(5)
    n0, n1 = random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng)
    cfg = OptimizerConfig(restarts=4, max_iters=100)
    channel_divergence_pair(n0, n1, kind="measured", cfg=cfg)
    gap = max(abs(w.variational_value - w.pvm_value) for w in certifier_witnesses)
    quiet = adaptive_region(n0, n1, cfg=cfg)
    assert gap > 0 and "warnings" not in quiet.metadata
    noted_cfg = replace(cfg, cross_check_tol=gap / 3)
    with pytest.warns(ConvergenceWarning):
        noted = adaptive_region(n0, n1, cfg=noted_cfg)
        e01, e10 = channel_divergence_pair(n0, n1, kind="measured", cfg=noted_cfg)
    assert f"estimators disagree by {gap:.2e}" in noted.metadata["warnings"]
    assert noted.metadata["warnings"] == e10.warnings + e01.warnings
    assert noted.frontier == quiet.frontier and region_to_json(noted) == region_to_json(quiet)
