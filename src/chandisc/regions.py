"""Error-exponent regions: adaptive rectangles, the non-adaptive convex
hull, and the finite-block converse estimate.

The converse estimate reads the block sandwiched Renyi divergence at the
smallest order of its alpha grid only: the sandwiched divergence is
non-decreasing in alpha (Mueller-Lennert et al., arXiv:1306.3142), so that
order gives the grid's minimum in each direction.  The grid's other orders
are recorded in the region's metadata but not evaluated.

Regions are down-closed subsets of the nonnegative quadrant represented by
their Pareto frontier vertices (R0 strictly ascending, R1 strictly
descending).  Rectangles have a single corner vertex, and are its
down-closure.  Coordinates may be +inf when the corresponding
channel direction has infinite max-divergence (the chain of inclusions is
still meaningful in the finite coordinate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .divergences import channel_divergence_pair
from .errors import DegenerateSamplingError
from .optimize import OptimizerConfig
from .quantum import QuantumChannel, _apply_to_pure, _basis_laws, _haar_unitaries
from .strategies import rate_pair, rate_pairs, witness_arms

RECTANGLE = "rectangle"
HULL = "hull"
CONVERSE = "converseRectangle"


@dataclass
class ExponentRegion:
    kind: str
    frontier: list[tuple[float, float]]
    metadata: dict = field(default_factory=dict)

    def max_r0(self) -> float:
        return max(v[0] for v in self.frontier)

    def max_r1(self) -> float:
        return max(v[1] for v in self.frontier)

    def boundary_r1(self, r0: float) -> float:
        """Largest R1 such that (r0, R1) lies in the region.

        One rule serves every kind, since a rectangle is the down-closure of
        its one corner: -inf right of the last vertex, the first vertex's R1
        at or left of it, and linear interpolation between vertices.
        """
        r0 = max(r0, 0.0)
        verts = self.frontier
        if r0 > verts[-1][0]:
            return -math.inf
        if r0 <= verts[0][0]:
            return verts[0][1]
        for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
            if r0 <= x1:
                t = (r0 - x0) / (x1 - x0)
                return y0 + t * (y1 - y0)
        return -math.inf

    def contains_point(self, r0: float, r1: float, slack: float = 0.0) -> bool:
        if r0 <= slack and r1 <= slack:
            return True
        bound = self.boundary_r1(max(r0 - slack, 0.0))
        return r1 <= bound + slack


@dataclass
class ContainmentReport:
    contained: bool
    slack: float
    violations: list[tuple[float, float]]


def containment(a: ExponentRegion, b: ExponentRegion, slack: float = 0.0) -> ContainmentReport:
    """True iff every frontier vertex of a lies in b within slack."""
    violations = [v for v in a.frontier if not b.contains_point(v[0], v[1], slack)]
    return ContainmentReport(contained=not violations, slack=slack, violations=violations)


def adaptive_region(
    n0: QuantumChannel,
    n1: QuantumChannel,
    l: int = 1,
    cfg: OptimizerConfig | None = None,
) -> ExponentRegion:
    """Rectangle with corner (D_M(N1||N0), D_M(N0||N1)) per use at block
    size l; witness-certified inner bound.  The divergences and the arms are
    those of witness_arms, the stage the adaptive SPRT plays.

    Each direction's witness arm also certifies a lower bound in the other
    direction (any single measurement lower-bounds both measured
    divergences), so the corner takes the max over both arms per coordinate.
    metadata["witness_rates"] maps the key of each witness with a POVM to
    its arm's per-use rates (r0, r1), finite or not, so the arms are rated
    once.  The measured certifier's notes on either direction, if any, are
    listed in metadata["warnings"].  Region documents leave out both.
    """
    (e01, e10), (arm01, arm10) = witness_arms(n0, n1, l, cfg)
    r0, r1 = e10.value, e01.value
    rates = {}
    for key, arm in (("witness_10", arm10), ("witness_01", arm01)):
        if arm is None:
            continue
        a0, a1 = rates[key] = tuple(a / l for a in rate_pair(*arm[1]))
        if math.isfinite(a0):
            r0 = max(r0, a0)
        if math.isfinite(a1):
            r1 = max(r1, a1)
    metadata = {"l": l, "bound": "inner", "witness_10": e10.witness, "witness_01": e01.witness,
                "witness_rates": rates}
    if e10.warnings or e01.warnings:
        # the certifier's notes; region documents drop lists of strings
        metadata["warnings"] = e10.warnings + e01.warnings
    return ExponentRegion(kind=RECTANGLE, frontier=[(r0, r1)], metadata=metadata)


def non_adaptive_region(
    n0: QuantumChannel,
    n1: QuantumChannel,
    cfg: OptimizerConfig | None = None,
    samples: int = 512,
    points: list[tuple[float, float]] | None = None,
) -> ExponentRegion:
    """Down-closure of the convex hull of sampled classical KL pairs and of
    caller-supplied rate pairs.

    Each sample is a Ginibre input on R (x) A, then a Haar random rank-one
    PVM; every sample's normals come from one draw and its unitary from one
    stacked QR, all samples' laws from one batched pass of the pure-input
    map and the basis-law kernel, and all samples are rated by one
    rate_pairs call on the stacked laws.  points are the rates (r0, r1) of
    arms the caller has already rated (e.g. the l = 1 witness arms, from
    adaptive_region's metadata["witness_rates"]); they join the samples'
    rates first.  Pairs with an infinite rate count as skipped_infinite.
    Inner bound by construction, and (0, 0) when no rate exceeds 1e-12.
    """
    cfg = cfg or OptimizerConfig()
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x5A)))
    d_in = n0.in_dim
    d_meas = d_in * n0.out_dim
    n, m = d_in * d_in, d_meas * d_meas
    # each row holds one sample's normals in the order of a Ginibre input
    # and then a Ginibre matrix, real parts first: the stream of drawing
    # them sample by sample
    draws = rng.standard_normal((samples, 2 * n + 2 * m))
    psis = draws[:, :n] + 1j * draws[:, n : 2 * n]
    ginibre = draws[:, 2 * n : 2 * n + m] + 1j * draws[:, 2 * n + m :]
    bases = _haar_unitaries(ginibre.reshape(samples, d_meas, d_meas))
    # the kernel normalizes each law, so the inputs need not be unit vectors
    p0, p1 = _basis_laws(bases, _apply_to_pure(n0, psis), _apply_to_pure(n1, psis))
    rates = np.concatenate([np.reshape(points or [], (-1, 2)), np.column_stack(rate_pairs(p0, p1))])
    finite = rates[np.isfinite(rates).all(axis=1)]
    if not finite.size:
        raise DegenerateSamplingError("no finite KL pairs sampled")
    frontier = pareto_hull(finite.tolist()) if finite.max() > 1e-12 else [(0.0, 0.0)]
    return ExponentRegion(
        kind=HULL,
        frontier=frontier,
        metadata={"samples": samples, "skipped_infinite": len(rates) - len(finite), "bound": "inner"},
    )


def pareto_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Pareto frontier of the down-closed convex hull of points.

    One walk over the distinct points sorted by (R0 ascending, R1
    descending): start at the largest-R1 point (largest R0 among ties), skip
    everything left of it and every repeated R0, and keep an upper chain
    that pops its last vertex until the turn to the next point is strictly
    clockwise.  The chain ends at the largest-R0 point.  Every vertex is an
    input point, R0 rises and R1 falls strictly along it, and each interior
    vertex lies strictly above the chord of its neighbours.
    """
    pts = sorted({(float(x), float(y)) for x, y in points}, key=lambda p: (p[0], -p[1]))
    chain = [max(pts, key=lambda p: (p[1], p[0]))]
    for p in pts:
        if p[0] <= chain[-1][0]:
            continue
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) >= 0:
            chain.pop()
        chain.append(p)
    return chain


def _cross(o, a, b) -> float:
    """z-component of (a - o) x (b - o): negative for a clockwise turn."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def converse_region(
    n0: QuantumChannel,
    n1: QuantumChannel,
    alpha_grid: list[float],
    l: int = 2,
    cfg: OptimizerConfig | None = None,
) -> ExponentRegion:
    """Converse estimate from the sandwiched Renyi channel divergence on
    l-fold blocks, minimized over the alpha grid.

    The sandwiched divergence is non-decreasing in alpha, so the minimum
    over the grid is its value at the smallest order, and that one order is
    evaluated: the corner is the .value of the two per-use DivergenceValues
    of one channel_divergence_pair call at block size l.
    metadata["alpha_grid"] records the whole grid.  Finite-block values only
    approximate the regularized quantity from below, so the region is labeled an estimate
    rather than a certified outer bound.
    """
    _check_alpha_grid(alpha_grid)
    e01, e10 = channel_divergence_pair(n0, n1, "renyi", min(alpha_grid), cfg, l)
    return ExponentRegion(
        kind=CONVERSE,
        frontier=[(e10.value, e01.value)],
        metadata={"l": l, "alpha_grid": list(alpha_grid), "bound": "converse estimate"},
    )


def _check_alpha_grid(alpha_grid) -> None:
    """Raise ValueError, naming the grid, unless it is a nonempty grid of
    orders strictly above 1 (a NaN order is not)."""
    if not alpha_grid or not all(a > 1.0 for a in alpha_grid):
        raise ValueError(f"alpha grid {list(alpha_grid)} must be nonempty and lie strictly above 1")


@dataclass
class RegionChain:
    non_adaptive: ExponentRegion
    adaptive: dict[int, ExponentRegion]
    converse: ExponentRegion
    containments: dict[str, ContainmentReport]


def region_chain(
    n0: QuantumChannel,
    n1: QuantumChannel,
    cfg: OptimizerConfig | None = None,
    l_max: int = 2,
    alpha_grid: tuple[float, ...] = (1.05, 1.1, 1.5),
    samples: int = 512,
    slack: float = 1e-3,
) -> RegionChain:
    """Compute the whole inclusion chain with witness chaining, from the
    public stages: adaptive_region at each l up to l_max, non_adaptive_region
    and converse_region at l_max.  The block stages read the tensor powers
    that n0 and n1 cache, so each power is built once per channel.

    The l = 1 witness inputs, lifted to product inputs, join the caller's
    starts at every block size l >= 2.  Those searches run at the caller's
    max_iters from the maximally entangled input, the caller's starts and
    the witnesses alone: they add no seeded starts, so cfg.restarts and
    cfg.seed do not reach them.  The converse takes the caller's cfg alone:
    its Renyi search is concave in the input marginal, so the maximally
    entangled start already reaches its optimum.  The l = 1 witness arms
    are rated once, by adaptive_region, and the hull takes those rates as
    points.  One floor pass then makes the adaptive corners monotone: each
    corner is raised to the running maximum over the hull extremes and the
    corners of all smaller blocks, every one of which certifies it.  The converse estimate is floored by the largest
    adaptive corner.  It is evaluated at the grid's smallest order alone,
    since the sandwiched divergence is non-decreasing in alpha; the other
    orders are recorded, not evaluated.  The grid is checked before any
    stage runs.
    """
    _check_alpha_grid(alpha_grid)
    cfg = cfg or OptimizerConfig()
    adaptive = {1: adaptive_region(n0, n1, 1, cfg)}
    witnesses = [w.input_vector for w in (adaptive[1].metadata[key] for key in ("witness_10", "witness_01"))
                 if w is not None]
    # block searches run at the caller's max_iters from the maximally
    # entangled input, the caller's starts and the l = 1 witnesses, lifted
    # to product inputs, alone: restarts=1 adds no seeded start
    sub = replace(cfg, extra_starts=list(cfg.extra_starts) + witnesses, restarts=1)
    for l in range(2, l_max + 1):
        adaptive[l] = adaptive_region(n0, n1, l, sub)

    points = list(adaptive[1].metadata["witness_rates"].values())
    non_adapt = non_adaptive_region(n0, n1, cfg=cfg, samples=samples, points=points)

    # every sampled (input, POVM) pair certifies lower bounds on both
    # measured divergences, so the hull extremes are valid floors for the
    # adaptive corners; blocks are superadditive, so each corner is also a
    # floor for every larger block
    hull_x, hull_y = non_adapt.max_r0(), non_adapt.max_r1()
    floor_x, floor_y = hull_x, hull_y
    for l in range(1, l_max + 1):
        (x, y), = adaptive[l].frontier
        floor_x, floor_y = max(x, floor_x), max(y, floor_y)
        adaptive[l].frontier = [(floor_x, floor_y)]

    conv = converse_region(n0, n1, alpha_grid, l_max, cfg)
    # the sandwiched divergence dominates the measured one pointwise, so the
    # adaptive corner is also a certified floor for the converse estimate
    (ax, ay), = adaptive[l_max].frontier
    (cx, cy), = conv.frontier
    conv.frontier = [(max(cx, ax), max(cy, ay))]

    containments = {
        "nonAdaptive_in_adaptive1": containment(non_adapt, adaptive[1], slack),
        "converse_covers_adaptive_max": containment(adaptive[l_max], conv, slack),
    }
    for l in range(1, l_max):
        containments[f"adaptive{l}_in_adaptive{l + 1}"] = containment(
            adaptive[l], adaptive[l + 1], slack
        )
    return RegionChain(
        non_adaptive=non_adapt,
        adaptive=adaptive,
        converse=conv,
        containments=containments,
    )
