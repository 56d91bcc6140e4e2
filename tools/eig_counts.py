"""Print the eigendecompositions that reference operations take, one line each.

    python tools/eig_counts.py               # this tree's counts
    python tools/eig_counts.py --tree DIR    # the counts of the chandisc in DIR/src

Each line is a label, a colon and two counts: the numpy.linalg.eigh and
numpy.linalg.eigvalsh calls the operation made, counted by wrapping both
functions for its duration.  The operations, all at
OptimizerConfig(restarts=4, max_iters=100):

- channel_divergence_pair(dep(0.3), dep(0.7), "measured") at l = 1 and 2,
  first on fresh channels, then again on the same channels, which by then
  cache their Choi states, tensor powers and Choi-pair closed forms;
- channel_divergence_pair of the measured kind on the qubit_divergence
  benchmark's seed-1 random pair (tools/outputs.py's "bench-random") at
  l = 1 and 2, on fresh channels: its brackets stay open, so these lines
  count the input search and the certifier's program;
- region_chain(dep(0.3), dep(0.7)) at the block_regions benchmark's config
  (l_max 2, alpha grid (1.1, 1.5), 256 samples, slack 1e-3), first on
  fresh channels, then again on the same channels.

tests/test_divergences.py and tests/test_regions.py hold ceilings on these
counts.  BLAS is pinned to one thread, as in the tests and the benchmark.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
NAMES = ("eigh", "eigvalsh")


@contextmanager
def eig_calls():
    """The name of every numpy.linalg.eigh and eigvalsh call made in the
    with block, in call order; tests/conftest.py's eig_calls fixture is
    this."""
    seen = []
    real = {name: getattr(np.linalg, name) for name in NAMES}

    def counting(name):
        def call(*args, **kwargs):
            seen.append(name)
            return real[name](*args, **kwargs)

        return call

    try:
        for name in NAMES:
            setattr(np.linalg, name, counting(name))
        yield seen
    finally:
        for name in NAMES:
            setattr(np.linalg, name, real[name])


def counted(op) -> list[int]:
    """The eigh and eigvalsh calls that op() makes."""
    with eig_calls() as seen:
        op()
    return [seen.count(name) for name in NAMES]


def counts() -> list[str]:
    """The count lines of the chandisc on the import path."""
    from chandisc.divergences import channel_divergence_pair
    from chandisc.optimize import OptimizerConfig
    from chandisc.quantum import depolarizing_channel
    from chandisc.regions import region_chain
    from outputs import divergence_pairs

    cfg = OptimizerConfig(restarts=4, max_iters=100)
    lines = []

    def put(label, op):
        lines.append(f"{label} eigh eigvalsh: " + " ".join(map(str, counted(op))))

    for l in (1, 2):
        n0, n1 = depolarizing_channel(0.3), depolarizing_channel(0.7)
        for run in ("fresh", "cached"):
            put(f"measured dep l={l} {run}", lambda: channel_divergence_pair(n0, n1, "measured", None, cfg, l))

    for l in (1, 2):
        n0, n1 = divergence_pairs()["bench-random"]
        put(f"measured bench-random l={l} fresh", lambda: channel_divergence_pair(n0, n1, "measured", None, cfg, l))

    n0, n1 = depolarizing_channel(0.3), depolarizing_channel(0.7)
    for run in ("first", "second"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            put(f"block_regions chain {run}", lambda: region_chain(n0, n1, cfg=cfg, l_max=2, alpha_grid=(1.1, 1.5),
                                                                   samples=256, slack=1e-3))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", type=Path, default=ROOT, metavar="DIR",
                    help="count the calls of the chandisc in DIR/src")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    print("\n".join(counts()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
