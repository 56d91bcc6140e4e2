"""A clock that measures the program in reference-speed seconds.

The benchmark runs on shared machines whose speed drifts by tens of percent
from one minute to the next, the same code taking 15 ms in one stretch and
27 ms in the next.  To keep runs comparable, `CalibratedClock` samples the
machine's current speed while the program runs: a timer signal interrupts
the program every `INTERVAL_S` and runs a fixed calibration chunk of the
kinds of work the program does (see `calibration_chunk`; no chandisc).
The time the chunks take is left out of `now()`, and `scale` converts the
program's time to seconds at the reference speed, at which one chunk takes
`CHUNK_REF_S`: program seconds * CHUNK_REF_S / mean chunk time.

Across ten 6 s blocks of one divergence computation on a 2-core machine the
raw times spread 19 % (quartile distance over median), the scaled ones 6 %.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.01
# about the chunk's time on the quiet 2-core machine of README.md's figures;
# it only sets the unit, and changing it would make old and new figures differ
CHUNK_REF_S = 3.0e-4

_g = np.random.default_rng(12345).standard_normal((2, 4, 4))
_H = _g[0] + _g[0].T + 1j * (_g[1] - _g[1].T)
_CDF = np.array([0.1, 0.35, 0.7, 1.0])


def calibration_chunk() -> float:
    """Interpreted arithmetic, small eigensolves, a seeded generator's
    set-up and small-array numpy: the steps the workloads spend their time
    in."""
    acc = 0.0
    for j in range(400):
        acc += j * 0.5
    for _ in range(6):
        w, v = np.linalg.eigh(_H)
        acc += float(np.trace((v * w) @ v.conj().T).real)
    u = np.random.default_rng(np.random.SeedSequence(entropy=1, spawn_key=(0, 1))).random(512)
    for _ in range(4):
        live = u > 0.05
        acc += float(np.searchsorted(_CDF, u[live], side="right").sum())
    return acc


class CalibratedClock:
    """`now()` is perf_counter time without the calibration chunks; inside
    a `with` block the machine's speed is sampled, and on leaving it `scale`
    holds the factor from program seconds to reference-speed seconds."""

    def __init__(self):
        self.stolen = 0.0
        self.samples: list[float] = []
        self.scale = 1.0
        self._old_handler = None

    def now(self) -> float:
        return time.perf_counter() - self.stolen

    def _sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        calibration_chunk()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.stolen += dt

    def __enter__(self) -> "CalibratedClock":
        self.samples = []
        self._sample()
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._sample()
        self.scale = CHUNK_REF_S / statistics.fmean(self.samples)
