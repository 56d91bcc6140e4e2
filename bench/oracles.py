"""Independent reference values for the benchmark, written with numpy and
scipy only (nothing here imports chandisc).

Two families:

* Closed forms on Choi matrices built from the channel formulas: relative
  entropy, sandwiched Renyi and max divergences, the state pair at any
  ancilla-assisted pure input, and outcome distributions of any
  (input, POVM) witness.  For a pair whose Choi matrices commute the
  measured relative entropy equals the relative entropy, and for the
  covariant qubit pairs used here every channel divergence is attained at
  the maximally entangled input, so these are exact channel values.
* An exact forward dynamic program for an SPRT whose log-likelihood
  increments lie on a lattice k * delta: the walk's law is propagated over
  (step, lattice position) and gives the error probabilities, E[T], Var[T]
  and P(T > n) without sampling.

Convention (the library's): a bipartite vector on R (x) A is indexed
r * d_A + a, and a Choi matrix is the output of id_R (x) N applied to the
normalized maximally entangled vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

EIG_TOL = 1e-12
# surviving probability below which the lattice DP stops early
NEGLIGIBLE = 1e-18

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


# ---------------------------------------------------------------------------
# Channel formulas as Choi matrices
# ---------------------------------------------------------------------------


def max_entangled(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)


def _projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def partial_trace_a(rho: np.ndarray, d: int) -> np.ndarray:
    """Tr_A of a matrix on R (x) A with |A| = d."""
    r = rho.shape[0] // d
    return np.trace(rho.reshape(r, d, r, d), axis1=1, axis2=3)


@dataclass(frozen=True)
class Channel:
    """A qubit (or qudit) channel given by its action on R (x) A."""

    apply: Callable[[np.ndarray], np.ndarray]
    d: int = 2

    def choi(self) -> np.ndarray:
        return self.apply(_projector(max_entangled(self.d)))

    def at_pure(self, psi: np.ndarray) -> np.ndarray:
        return self.apply(_projector(np.asarray(psi, dtype=complex)))


def _local(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """(I_R (x) op) rho (I_R (x) op)^dagger."""
    big = np.kron(np.eye(rho.shape[0] // op.shape[1]), op)
    return big @ rho @ big.conj().T


def depolarizing(p: float) -> Channel:
    """rho -> (1 - p) rho + p Tr(rho) I/2."""
    return Channel(lambda rho: (1 - p) * rho + p * np.kron(partial_trace_a(rho, 2), np.eye(2) / 2))


def dephasing(p: float) -> Channel:
    """rho -> (1 - p) rho + p Z rho Z."""
    return Channel(lambda rho: (1 - p) * rho + p * _local(PAULI_Z, rho))


def bernoulli_replacer(q: float) -> Channel:
    """rho -> Tr(rho) diag(q, 1 - q)."""
    sigma = np.diag([q, 1 - q]).astype(complex)
    return Channel(lambda rho: np.kron(partial_trace_a(rho, 2), sigma))


def identity() -> Channel:
    return Channel(lambda rho: rho)


def kraus_channel(kraus: list[np.ndarray]) -> Channel:
    return Channel(lambda rho: sum(_local(k, rho) for k in kraus), d=kraus[0].shape[1])


def haar_channel_kraus(rng: np.random.Generator, d: int = 2, env: int = 4) -> list[np.ndarray]:
    """Kraus operators of a Haar-random isometry A -> B (x) E with E traced
    out; full-rank Choi matrix almost surely when env >= d * d."""
    g = rng.standard_normal((d * env, d)) + 1j * rng.standard_normal((d * env, d))
    iso, _ = np.linalg.qr(g)
    return [iso.reshape(d, env, d)[:, e, :] for e in range(env)]


def bell_basis() -> np.ndarray:
    """Columns: Phi+, Phi-, Psi+, Psi- on R (x) A."""
    phi = max_entangled(2)
    return np.stack(
        [phi] + [np.kron(np.eye(2), s) @ phi for s in (PAULI_Z, PAULI_X, PAULI_Y)],
        axis=1,
    )


# ---------------------------------------------------------------------------
# State divergences (nats)
# ---------------------------------------------------------------------------


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.linalg.eigh(0.5 * (m + m.conj().T))


def _power(m: np.ndarray, expo: float) -> np.ndarray:
    """m^expo on the support of a PSD matrix."""
    w, v = _eigh(m)
    on = w > EIG_TOL
    fw = np.where(on, np.where(on, w, 1.0) ** expo, 0.0)
    return (v * fw) @ v.conj().T


def rel_entropy(r: np.ndarray, s: np.ndarray) -> float:
    """Tr r (log r - log s); +inf unless supp(r) lies in supp(s)."""
    wr, _ = _eigh(r)
    ws, vs = _eigh(s)
    on = ws > EIG_TOL
    off = vs[:, ~on]
    if float(np.linalg.norm(off.conj().T @ r @ off)) > 1e-10:
        return math.inf
    log_s = (vs[:, on] * np.log(ws[on])) @ vs[:, on].conj().T
    keep = wr > EIG_TOL
    return float(np.sum(wr[keep] * np.log(wr[keep])) - np.trace(r @ log_s).real)


def sandwiched_renyi(r: np.ndarray, s: np.ndarray, alpha: float) -> float:
    g = _power(s, (1 - alpha) / (2 * alpha))
    w, _ = _eigh(g @ r @ g)
    return math.log(float(np.sum(np.maximum(w, 0.0) ** alpha))) / (alpha - 1)


def max_divergence(r: np.ndarray, s: np.ndarray) -> float:
    g = _power(s, -0.5)
    w, _ = _eigh(g @ r @ g)
    return math.log(float(w[-1]))


def commute(a: np.ndarray, b: np.ndarray, tol: float = 1e-12) -> bool:
    return float(np.linalg.norm(a @ b - b @ a)) <= tol


def kl(p: np.ndarray, q: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    keep = p > 0
    return float(np.sum(p[keep] * np.log(p[keep] / q[keep])))


def outcome_distribution(state: np.ndarray, effects: list[np.ndarray]) -> np.ndarray:
    p = np.array([float(np.trace(state @ e).real) for e in effects])
    return np.clip(p, 0.0, None) / p.sum()


@dataclass(frozen=True)
class ChoiValues:
    """Closed-form values of one ordered channel pair (n0 || n1) on its
    Choi matrices."""

    relative: float
    renyi: dict
    max: float
    commuting: bool

    @property
    def measured(self) -> float:
        """D_M of the Choi pair; equal to D when the Choi matrices commute."""
        if not self.commuting:
            raise ValueError("no closed form for D_M of a non-commuting pair")
        return self.relative


def choi_values(j0: np.ndarray, j1: np.ndarray, alphas=(1.05, 1.1, 1.5, 2.0)) -> ChoiValues:
    return ChoiValues(
        relative=rel_entropy(j0, j1),
        renyi={a: sandwiched_renyi(j0, j1, a) for a in alphas},
        max=max_divergence(j0, j1),
        commuting=commute(j0, j1),
    )


# ---------------------------------------------------------------------------
# Exact SPRT on a lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeSprt:
    """Exact law of a two-sided SPRT whose increments are k * delta.

    steps_h[h] maps a lattice step k to its probability under hypothesis h;
    the walk stops at the first k-sum >= upper (decide H0) or <= -lower
    (decide H1), both in lattice units, and is censored at cap steps.
    """

    steps_h: tuple[dict, dict]
    upper: int
    lower: int
    cap: int


@dataclass(frozen=True)
class LatticeLaw:
    error: tuple[float, float]  # P(wrong decision or censored | H_h)
    mean_stop: tuple[float, float]  # E[T] in channel uses
    var_stop: tuple[float, float]
    over: dict  # budget in uses -> (P(T > budget | H0), P(T > budget | H1))


def lattice_units(threshold: float, delta: float) -> int:
    """Smallest k with k * delta >= threshold; refuses thresholds that sit
    within float rounding of a lattice point, where a floating-point
    running sum could resolve the comparison either way."""
    x = threshold / delta
    k = math.ceil(x)
    if abs(x - round(x)) < 1e-7:
        raise ValueError(f"threshold {threshold} is on the lattice ({x})")
    return k


def solve_lattice(sprt: LatticeSprt, budgets=()) -> LatticeLaw:
    """Forward dynamic program over (step, position); exact up to float
    rounding."""
    lo, hi = -sprt.lower, sprt.upper
    width = hi - lo - 1  # open interval (lo, hi)
    errors, means, variances, over = [], [], [], {}
    budgets = sorted(budgets)
    for h in (0, 1):
        mass = np.zeros(width)
        mass[-lo - 1] = 1.0  # position 0
        stop_upper = stop_lower = 0.0
        t1 = t2 = 0.0
        alive_at = {}
        for t in range(1, sprt.cap + 1):
            new = np.zeros(width)
            for k, pk in sprt.steps_h[h].items():
                # index i holds position lo + 1 + i and moves to i + k
                if k >= 0:
                    new[k:] += pk * mass[: width - k]
                    up, down = pk * float(mass[width - k:].sum()), 0.0
                else:
                    new[:k] += pk * mass[-k:]
                    up, down = 0.0, pk * float(mass[:-k].sum())
                stop_upper += up
                stop_lower += down
                t1 += (up + down) * t
                t2 += (up + down) * t * t
            mass = new
            alive = float(mass.sum())
            alive_at[t] = alive
            if alive < NEGLIGIBLE:
                break
        censored = float(mass.sum())
        t1 += censored * sprt.cap
        t2 += censored * sprt.cap * sprt.cap
        wrong = stop_lower if h == 0 else stop_upper
        errors.append(wrong + censored)
        means.append(t1)
        variances.append(max(t2 - t1 * t1, 0.0))
        for b in budgets:
            over.setdefault(b, [None, None])[h] = alive_at.get(b, 1.0) if b <= max(alive_at) else censored
    return LatticeLaw(
        error=tuple(errors),
        mean_stop=tuple(means),
        var_stop=tuple(variances),
        over={b: tuple(v) for b, v in over.items()},
    )


def gamblers_ruin(p_up: float, a: int, b: int) -> tuple[float, float]:
    """Simple +-1 walk from 0 absorbed at -a and +b: (P(hit -a first), E[T])."""
    q = 1.0 - p_up
    n = a + b
    if p_up == q:
        return b / n, float(a * b)
    r = q / p_up
    win = (1 - r**a) / (1 - r**n)
    mean = a / (q - p_up) - n / (q - p_up) * win
    return 1.0 - win, mean


# ---------------------------------------------------------------------------
# Self-test against further closed forms
# ---------------------------------------------------------------------------


def self_test() -> list[str]:
    """Return a description of every failed oracle self-check."""
    bad = []
    # gambler's ruin: a +-1 walk is the lattice SPRT with steps {+1, -1}
    for p_up, a, b in ((0.8, 3, 5), (0.35, 7, 4), (0.5, 6, 6)):
        walk = LatticeSprt(({1: p_up, -1: 1 - p_up}, {1: p_up, -1: 1 - p_up}), b, a, cap=4000)
        law = solve_lattice(walk)
        ruin, mean = gamblers_ruin(p_up, a, b)
        if abs(law.error[0] - ruin) > 1e-12 or abs(law.mean_stop[0] - mean) > 1e-9 * max(1, mean):
            bad.append(f"gambler's ruin p={p_up} a={a} b={b}: DP ({law.error[0]}, "
                       f"{law.mean_stop[0]}) vs ({ruin}, {mean})")
    # the first-passage probability quoted for the classical SPRT at n = 400
    rate = 0.6 * math.log(4.0)
    delta = math.log(4.0)
    n, tau = 400, 0.08
    units = lattice_units(n * (rate - tau), delta)
    law = solve_lattice(
        LatticeSprt(({1: 0.8, -1: 0.2}, {1: 0.2, -1: 0.8}), units, units, cap=20 * n),
        budgets=[n],
    )
    if round(law.over[n][0], 4) != 0.0719 or round(law.over[n][1], 4) != 0.0719:
        bad.append(f"P(T > 400) = {law.over[n]}, expected 0.0719")
    # identity vs depolarizing(0.5): D = -log 0.625
    d = rel_entropy(identity().choi(), depolarizing(0.5).choi())
    if abs(d + math.log(0.625)) > 1e-12:
        bad.append(f"D(id || dep(0.5)) = {d}, expected {-math.log(0.625)}")
    # Renyi limits and ordering on a commuting pair
    j0, j1 = depolarizing(0.3).choi(), depolarizing(0.7).choi()
    v = choi_values(j0, j1, alphas=(1.0 + 1e-6, 1.5, 2.0))
    if abs(v.renyi[1.0 + 1e-6] - v.relative) > 1e-5 or not (
        v.relative <= v.renyi[1.5] <= v.renyi[2.0] <= v.max
    ):
        bad.append(f"Renyi chain broken on dep(0.3)/dep(0.7): {v}")
    # outcome distribution of the Bell measurement on the Choi state
    p = outcome_distribution(j0, [_projector(c) for c in bell_basis().T])
    if np.max(np.abs(p - [0.775, 0.075, 0.075, 0.075])) > 1e-12:
        bad.append(f"Bell outcome law of dep(0.3) = {p}")
    return bad
