import os

# One BLAS thread, set before numpy loads: with another process busy on the
# machine, OpenBLAS's thread pool made scipy's L-BFGS-B steps over ten times
# slower, so the suite's time followed the machine's load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import importlib.util
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from chandisc import divergences

# Property tests draw the same examples on every run, so a failure always
# reproduces and a pass is not a lucky draw that the next run may lose.
settings.register_profile("chandisc", derandomize=True)
settings.load_profile("chandisc")


def _assert_gradient_matches(objective, theta, tol=1e-6, h=1e-6):
    """objective(X) -> (values, gradients) on a batch of rows, called here on
    a batch of one: the gradient at theta must match central differences of
    the value to tol, relative to the largest component."""

    def one(t):
        f, g = objective(t[None])
        return f[0], g[0]

    _, grad = one(theta)
    ref = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        ref[i] = (one(theta + e)[0] - one(theta - e)[0]) / (2 * h)
    assert np.max(np.abs(grad - ref)) <= tol * max(1.0, np.max(np.abs(ref)))


@pytest.fixture
def assert_gradient_matches():
    return _assert_gradient_matches


def _load_tool(name: str):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


# tools/outputs.py: the corpus generator, and the one definition of the golden rule
OUTPUTS_TOOL = _load_tool("outputs")
# tools/eig_counts.py: the one definition of counting eigendecompositions
EIG_COUNTS_TOOL = _load_tool("eig_counts")


def _assert_matches_golden(text: str, golden: str, name: str) -> None:
    """Text between numbers must match exactly; each number must agree
    within 1e-12 max(1, |golden|)."""
    pairs = OUTPUTS_TOOL.golden_pairs(text, golden)
    assert pairs is not None, name
    for a, b in pairs:
        assert OUTPUTS_TOOL.within(a, b), (name, a, b)


@pytest.fixture
def assert_matches_golden():
    """The rule every committed output is held to: the CLI replays and the
    output corpus."""
    return _assert_matches_golden


@pytest.fixture
def outputs_tool():
    return OUTPUTS_TOOL


def _scalar_kl(p, q):
    """The classical KL of one pair of laws in scalar form: the outcomes with
    p > 1e-15 compacted into one array and summed by one np.sum, +inf when
    q is at or below 1e-300 on one of them.  The bit-for-bit oracle of the
    stacked kernel optimize.kl_rows."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 1e-15
    if np.any(q[mask] <= 1e-300):
        return math.inf
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


@pytest.fixture
def scalar_kl():
    return _scalar_kl


# Classical channel pairs (letters x, transition columns W(x)), exact oracles
# for every tier: the first has its relative optimum at a pure letter, the
# second is symmetric, and the third has three letters, each a vertex of the
# exact non-adaptive hull.
CLASSICAL_PAIRS = {
    "pure-letter": ([[0.5, 0.9], [0.5, 0.1]], [[0.02, 0.6], [0.98, 0.4]]),
    "symmetric": ([[0.5, 0.99], [0.5, 0.01]], [[0.99, 0.5], [0.01, 0.5]]),
    "three-letter": ([[0.5, 0.99, 0.15], [0.5, 0.01, 0.85]], [[0.99, 0.5, 0.85], [0.01, 0.5, 0.15]]),
}


@pytest.fixture(params=list(CLASSICAL_PAIRS.values()), ids=list(CLASSICAL_PAIRS))
def classical_pair(request):
    """(W0, W1) of each classical pair, as arrays."""
    return tuple(np.array(w) for w in request.param)


@pytest.fixture
def classical_pairs():
    """(W0, W1) of every classical pair, for tests that loop over them."""
    return [tuple(np.array(w) for w in pair) for pair in CLASSICAL_PAIRS.values()]


class ClassicalClosedForms(NamedTuple):
    points: list  # per letter x: (KL(W1(x)||W0(x)), KL(W0(x)||W1(x)))
    corner: tuple  # (max_x, max_x) of the points: the adaptive and memory corner
    d_max: float  # D_max(N0||N1) = max_x log max_y W0(y|x) / W1(y|x)


def _classical_closed_forms(w0, w1) -> ClassicalClosedForms:
    """The closed forms of a classical pair with transition columns W0(x),
    W1(x), all entries positive.  The non-adaptive region is the down-closed
    convex hull of the points, by joint convexity of KL over the letters an
    input weighs."""
    w0, w1 = np.asarray(w0, dtype=float), np.asarray(w1, dtype=float)

    def kl(p, q):
        return float(np.sum(p * np.log(p / q)))

    points = [(kl(w1[:, x], w0[:, x]), kl(w0[:, x], w1[:, x])) for x in range(w0.shape[1])]
    d_max = max(math.log(np.max(w0[:, x] / w1[:, x])) for x in range(w0.shape[1]))
    return ClassicalClosedForms(points, tuple(max(c) for c in zip(*points)), d_max)


@pytest.fixture
def classical_closed_forms():
    return _classical_closed_forms


@pytest.fixture
def certifier_witnesses(monkeypatch):
    """The MeasuredWitness of every finite value that the measured
    certifier returns from now on, in call order: a channel value's
    cross-check notes read the gap between its two estimates."""
    seen = []
    real = divergences._measured_values

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.extend(dv.witness for dv in out if dv.witness)
        return out

    monkeypatch.setattr(divergences, "_measured_values", spy)
    return seen


@pytest.fixture
def eig_calls():
    """The name of every numpy.linalg.eigh and eigvalsh call from now on, in
    call order: the eigendecompositions a computation takes."""
    with EIG_COUNTS_TOOL.eig_calls() as seen:
        yield seen
