"""Shared optimization machinery: Hermitian / pure-state parametrizations,
divided-difference kernels of Frechet derivatives, a lockstep multi-start
L-BFGS-B driver on analytic gradients, and the pieces of the measured
relative entropy: the variational program, which returns the eigenbasis of
each optimal omega = exp(H) from the decomposition of H it already holds,
and basis_witness, which rates a pair's candidate bases once each and
builds the PVM that certifies the best of them.

Every objective multistart_maximize ascends is batched: objective((X,
owner)) takes one flat batch, the parameter rows X of shape (B, P) and each
row's search index owner of shape (B,), and returns the values f of shape
(B,) and the gradients g of shape (B, P).  Each row is computed by the same sequence of
floating-point operations whatever the batch and the order of its rows, so
row i equals objective((X[i:i+1], owner[i:i+1])) bit for bit and the
lockstep iterates equal those of running each start on its own.  The batch
is one argument, never two, because bench/tracing.py wraps each search
objective as a one-argument counter; all rows of one run have the same
length P.

The driver runs the start lists it is given, one per search, and several
searches can share it, such as the two directions of a channel pair: each
round makes one objective call on the rows of every live start, only
multistart_maximize maps rows back to searches and starts, and every search
keeps its own starts, winner and DEBUG record.  The variational program
takes stacks of state pairs this way, each row reading the pair of its
owner.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import _lbfgsb

from .errors import OptimizerFailure
from .quantum import Povm, _basis_laws

logger = logging.getLogger("chandisc.optimize")


def is_int(x) -> bool:
    """An int or numpy integer; bools are not counts."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_count(name: str, x, least: int = 1) -> None:
    """ValueError unless x is an int, not a bool, and x >= least."""
    if not is_int(x) or x < least:
        raise ValueError(f"{name} must be an int >= {least}, got {x!r}")


@dataclass
class OptimizerConfig:
    """Knobs for every numerical maximization in the library.

    All channel-divergence and measured-entropy values produced under this
    config are certified lower bounds; raising the budgets tightens them.
    max_iters caps the L-BFGS iterations of each start.  restarts sets the
    starts of the measured kind's input search alone, and seed draws its
    random starts and the non-adaptive hull's samples: the relative and
    Renyi values are concave in the input marginal, so their searches run
    from the maximally entangled input and extra_starts only.  The region
    chain's block searches take no seeded starts either.  The constructor
    checks the fields: restarts and max_iters are ints >= 1, seed an int
    >= 0 and cross_check_tol a finite float > 0; else ValueError.
    """

    restarts: int = 16
    max_iters: int = 400
    cross_check_tol: float = 1e-4
    seed: int = 0
    # extra deterministic starting vectors for the input-state search
    extra_starts: list = field(default_factory=list)

    def __post_init__(self):
        check_count("restarts", self.restarts)
        check_count("max_iters", self.max_iters)
        check_count("seed", self.seed, least=0)
        # written so that NaN fails
        if not (self.cross_check_tol > 0 and math.isfinite(self.cross_check_tol)):
            raise ValueError(f"cross_check_tol must be a finite float > 0, got {self.cross_check_tol!r}")


# ---------------------------------------------------------------------------
# Parametrizations.  Each works on a stack: theta (..., d^2) <-> H (..., d, d).
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _upper_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle, row-major."""
    return np.triu_indices(d, 1)


def params_to_hermitian(theta: np.ndarray, d: int) -> np.ndarray:
    """Real vectors of length d^2 -> Hermitian d x d matrices: the diagonal,
    then (Re, Im) of each upper entry in row-major order."""
    rows, cols = _upper_indices(d)
    upper = np.zeros(theta.shape[:-1] + (d, d), dtype=complex)
    upper[..., rows, cols] = theta[..., d::2] + 1j * theta[..., d + 1 :: 2]
    diag = np.zeros(theta.shape[:-1] + (d, d))
    diag[..., range(d), range(d)] = theta[..., :d]
    return upper + np.swapaxes(upper.conj(), -1, -2) + diag


def hermitian_to_params(h: np.ndarray) -> np.ndarray:
    d = h.shape[-1]
    upper = h[(...,) + _upper_indices(d)]
    theta = np.empty(h.shape[:-2] + (d * d,))
    theta[..., :d] = np.real(np.diagonal(h, axis1=-2, axis2=-1))
    theta[..., d::2] = upper.real
    theta[..., d + 1 :: 2] = upper.imag
    return theta


def hermitian_grad_to_params(g: np.ndarray) -> np.ndarray:
    """Gradient of f wrt the real parameters, given the matrix gradient G
    (Hermitian, df = Tr[G dH])."""
    out = hermitian_to_params(g)
    out[..., g.shape[-1] :] *= 2.0
    return out


def params_to_pure_vector(theta: np.ndarray, d: int) -> np.ndarray:
    """The unit vector v / |v| of v = theta[:d] + i theta[d:], however small
    |v| is: a search's row is read as the input it stands for, so a winner
    of tiny norm keeps its direction.  A zero row has no direction."""
    v = theta[:d] + 1j * theta[d:]
    return v / np.linalg.norm(v)


def pure_vector_to_params(v: np.ndarray) -> np.ndarray:
    return np.concatenate([v.real, v.imag])


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return np.swapaxes(a.conj(), -1, -2)


# ---------------------------------------------------------------------------
# Divided differences: for f applied to a Hermitian matrix with eigenvalues
# w, the Frechet derivative in the eigenbasis is the Hadamard product with
# [f(w_i) - f(w_j)] / (w_i - w_j) (f'(w_i) on the diagonal).  Each kernel is
# written without a difference quotient, so close eigenvalues lose no digits.
# The eigenvalues may carry leading batch axes.
# ---------------------------------------------------------------------------


def _ratio(num: np.ndarray, x: np.ndarray, fn) -> np.ndarray:
    """num * fn(x) / x, with fn(x) / x continued by 1 at x = 0 (fn is sinh
    or arctanh)."""
    safe = np.where(x == 0.0, 0.5, x)
    return np.where(x == 0.0, 1.0, fn(safe) / safe) * num


def _exp_kernel(lam: np.ndarray) -> np.ndarray:
    half = 0.5 * (lam[..., :, None] - lam[..., None, :])
    return _ratio(np.exp(0.5 * (lam[..., :, None] + lam[..., None, :])), half, np.sinh)


def _support_pairs(w: np.ndarray, mask: np.ndarray):
    """Mean and relative half-difference u of each pair of support
    eigenvalues (placeholders elsewhere) and the support-pair mask."""
    ws = np.where(mask, w, 1.0)
    mean = 0.5 * (ws[..., :, None] + ws[..., None, :])
    u = 0.5 * (ws[..., :, None] - ws[..., None, :]) / mean
    return mean, u, mask[..., :, None] & mask[..., None, :]


def _log_kernel(w: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Divided differences of log on the support eigenvalues; 0 on pairs
    touching the kernel."""
    mean, u, pairs = _support_pairs(w, mask)
    return np.where(pairs, _ratio(1.0 / mean, u, np.arctanh), 0.0)


def _power_kernel(w: np.ndarray, mask: np.ndarray, gamma: float) -> np.ndarray:
    """Divided differences of x^gamma on the support eigenvalues; 0 on
    pairs touching the kernel."""
    mean, u, pairs = _support_pairs(w, mask)
    t = np.arctanh(u)
    k = gamma * mean ** (gamma - 1.0) * (1.0 - u * u) ** (0.5 * gamma)
    return np.where(pairs, _ratio(_ratio(k, gamma * t, np.sinh), u, np.arctanh), 0.0)


# ---------------------------------------------------------------------------
# Lockstep multi-start L-BFGS-B
# ---------------------------------------------------------------------------

# The rounding floor of the objectives' values, relative to max(1, |value|):
# a search stops once a step gains less (its ftol below), and divergences
# closes a bracket whose ends meet within it.
ROUNDING_TOL = 1e-12

# The options every search runs with, as scipy.optimize.minimize spells them
# for method="L-BFGS-B": maxcor 10, maxls 20, maxfun 15000, ftol ROUNDING_TOL
# and gtol 1e-10.  L-BFGS-B stops when (f_k - f_{k+1}) / max(|f_k|,
# |f_{k+1}|, 1) <= ftol, so a smaller ftol only buys line searches that move
# the last digits.
_LBFGS_MEMORY = 10
_LBFGS_MAX_LINE_SEARCH = 20
_LBFGS_MAX_EVALS = 15000
_LBFGS_FACTR = ROUNDING_TOL / np.finfo(float).eps
_LBFGS_PGTOL = 1e-10


def _lbfgsb_start(x0: np.ndarray, max_iters: int):
    """One start of L-BFGS-B minimization, unbounded, as a generator.

    It runs the reverse-communication loop of scipy's _minimize_lbfgsb step
    for step, including the evaluation at x0 that ScalarFunction makes when
    it is created and its cache of the last evaluated x.  Each new x that
    needs f and g is yielded, and (f, g) is sent back.  The generator
    returns (x, f, nfev, nit), the fields of minimize's result.
    """
    n = x0.size
    m = _LBFGS_MEMORY
    x = np.array(x0, dtype=np.float64)
    seen_x = x.copy()
    seen_f, seen_g = yield seen_x
    nfev = 1
    f = np.array(0.0, dtype=np.float64)
    g = np.zeros(n, dtype=np.float64)
    low, up, nbd = np.zeros(n), np.zeros(n), np.zeros(n, np.int32)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m, np.float64)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29, np.float64)
    nit = 0
    while True:
        g = g.astype(np.float64)
        _lbfgsb.setulb(m, x, low, up, nbd, f, g, _LBFGS_FACTR, _LBFGS_PGTOL, wa, iwa, task, lsave, isave, dsave,
                       _LBFGS_MAX_LINE_SEARCH, ln_task)
        if task[0] == 3:  # f and g wanted at x
            if not np.array_equal(x, seen_x):
                seen_x = x.copy()
                seen_f, seen_g = yield seen_x
                nfev += 1
            f, g = seen_f, seen_g
        elif task[0] == 1:  # a new iterate
            nit += 1
            # stop (5) with scipy's codes for the iteration and evaluation limits
            if nit >= max_iters:
                task[:] = 5, 504
            elif nfev > _LBFGS_MAX_EVALS:
                task[:] = 5, 502
        else:
            return x, f, nfev, nit


def _evaluate(objective, x: np.ndarray, owner: np.ndarray):
    """objective((x, owner)) as (f, g, failed).  When the call raises
    ValueError or FloatingPointError, each row is evaluated alone, and the
    rows that raise are marked failed."""
    try:
        f, g = objective((x, owner))
        return f, g, np.zeros(len(x), dtype=bool)
    except (ValueError, FloatingPointError):
        pass
    f, g = np.zeros(len(x)), np.zeros(x.shape)
    failed = np.zeros(len(x), dtype=bool)
    for i in range(len(x)):
        try:
            fi, gi = objective((x[i : i + 1], owner[i : i + 1]))
            f[i], g[i] = fi[0], gi[0]
        except (ValueError, FloatingPointError):
            failed[i] = True
    return f, g, failed


def multistart_maximize(objective, searches: list[list[np.ndarray]], max_iters: int) -> list[tuple[np.ndarray, float]]:
    """Maximize a batched objective with L-BFGS-B from the start lists of
    one or more searches, run as given, in lockstep: each round, the points
    that the live starts need evaluated are stacked into one flat batch x
    (B, P), with owner (B,) giving each row's search index, and one call
    objective((x, owner)) returns the values (B,) and gradients (B, P).
    The batch stays one argument, for the one-argument wrappers of
    bench/tracing.py, and all starts of all searches have the same length
    P.  Only this function maps rows back to searches and starts.  Each
    start follows the iterates that scipy.optimize.minimize(method="L-BFGS-B",
    options={"maxiter": max_iters, "gtol": 1e-10, "ftol": ROUNDING_TOL})
    takes from it on the negated objective, so a start stops once a step
    gains less than ROUNDING_TOL max(1, |value|), and its result is at least
    its starting value.  A start whose evaluation raises ValueError or
    FloatingPointError is dropped as a failed restart.  Returns each
    search's best (x, value), the lowest start index winning ties, and logs
    one DEBUG record of each search's starts on the chandisc.optimize
    logger.  A search without starts, or whose starts all fail, raises
    OptimizerFailure.
    """
    if not all(searches):
        raise OptimizerFailure("all 0 restarts failed")
    runs = [[_lbfgsb_start(np.asarray(x0, dtype=float), max_iters) for x0 in starts] for starts in searches]
    # (x, f, nfev, nit) of each start; a failed start keeps a NaN f
    results = [[(None, math.nan, None, None)] * len(r) for r in runs]
    live = {(s, i): run.send(None) for s, r in enumerate(runs) for i, run in enumerate(r)}
    failures, batches = [0] * len(runs), [0] * len(runs)
    while live:
        (asked, x), live = zip(*live.items()), {}
        for s in {s for s, _ in asked}:
            batches[s] += 1
        f, g, failed = _evaluate(objective, np.stack(x), np.array([s for s, _ in asked]))
        for j, (s, i) in enumerate(asked):
            if failed[j]:
                failures[s] += 1
                continue
            try:
                live[s, i] = runs[s][i].send((-f[j], -g[j]))
            except StopIteration as done:
                results[s][i] = done.value
    return [_best_start(*args) for args in zip(results, failures, batches)]


# bench/tracing.py wraps the public names a layer module binds, and counts
# optimize's multistart_maximize as a PVM search; the variational program
# reaches the driver under this private name, so only its own span counts it.
_lockstep = multistart_maximize


def _best_start(results: list, failures: int, batches: int) -> tuple[np.ndarray, float]:
    """The best (x, value) of one search's starts, the lowest start index
    winning ties; logs the search's DEBUG record."""
    xs, fs, nfev, nit = zip(*results)
    best_i, best_f = None, -math.inf
    for i, f_i in enumerate(fs):
        if -f_i > best_f:
            best_i, best_f = i, -f_i
    if logger.isEnabledFor(logging.DEBUG):
        stats = dict(starts=len(results), nfev=list(nfev), nit=list(nit), values=(-np.array(fs)).tolist())
        stats.update(failed=failures, winner=best_i, batched_calls=batches)
        logger.debug("multistart search %s", stats, extra={"multistart": stats})
    if best_i is None:
        raise OptimizerFailure(f"all {failures} restarts failed")
    return xs[best_i], best_f


# ---------------------------------------------------------------------------
# Measured relative entropy
# ---------------------------------------------------------------------------


# Outcome probabilities at or below this are rounding noise: the KL rates
# drop them, and the SPRT tables treat them as unreachable.
NEGLIGIBLE_PROB = 1e-15


def kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Classical KL in nats of each pair of laws p, q (..., k), shape (...):
    the sum of p log(p / q) over the outcomes where p > NEGLIGIBLE_PROB,
    +inf where q is at or below 1e-300 on one of them.

    Each row sums its kept terms in order, as one compacted array would:
    masked terms are zeros, which leave numpy's sequential sum of fewer than
    8 terms unchanged; rows of 8 or more are summed from their kept terms
    one by one, since pairwise summation would regroup them."""
    p, q = np.ascontiguousarray(p, float), np.ascontiguousarray(q, float)
    mask = p > NEGLIGIBLE_PROB
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(mask, p * (np.log(p) - np.log(q)), 0.0)
    out = np.asarray(terms.sum(axis=-1))
    if p.shape[-1] >= 8:
        for i in np.ndindex(p.shape[:-1]):
            out[i] = terms[i][mask[i]].sum()
    out[(mask & (q <= 1e-300)).any(axis=-1)] = math.inf
    return out


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Classical KL in nats; +inf on support mismatch.  The batch of one of
    kl_rows."""
    return float(kl_rows(p, q))


def _safe_log_state(spectrum: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """log of a state from its spectrum, eigenvalues floored at 1e-12."""
    w, v = spectrum
    w = np.maximum(w, 1e-12)
    return (v * np.log(w)) @ v.conj().T


def _exponential(theta: np.ndarray, d: int):
    """H = H(theta) for each row of theta (B, d^2), its eigenvalues (clipped
    to [-200, 200]) and eigenvectors, which are those of exp(H): one eigh
    per row."""
    h = params_to_hermitian(theta, d)
    lam, u = np.linalg.eigh(h)
    return h, np.clip(lam, -200.0, 200.0), u


def _variational_at(exp, rho0: np.ndarray, rho1: np.ndarray):
    """Tr[rho0 H] + 1 - Tr[rho1 exp(H)] and its gradient in theta, for each H
    of _exponential's exp and state pair (B, d, d) or (d, d)."""
    h, lam, u = exp
    elam = np.exp(lam)
    uh = _adjoint(u)
    b = uh @ rho1 @ u
    tr0 = np.real(np.sum(rho0 * np.swapaxes(h, -1, -2), axis=(-2, -1)))
    f = tr0 + 1.0 - np.sum(np.real(np.diagonal(b, axis1=-2, axis2=-1)) * elam, axis=-1)
    g = rho0 - u @ (b * _exp_kernel(lam)) @ uh
    return f, hermitian_grad_to_params(0.5 * (g + _adjoint(g)))


def _variational_terms(theta: np.ndarray, rho0: np.ndarray, rho1: np.ndarray):
    """Tr[rho0 H] + 1 - Tr[rho1 exp(H)] at H = H(theta), its gradient in
    theta and the eigenvectors of H, the eigenbasis of omega = exp(H), for
    each row of theta (B, d^2) and state pair (B, d, d) or (d, d).  The
    value lower-bounds the measured relative entropy for every theta."""
    exp = _exponential(theta, rho0.shape[-1])
    return *_variational_at(exp, rho0, rho1), exp[2]


def variational_measured(rho0: np.ndarray, rho1: np.ndarray, starts: list[list[np.ndarray]]):
    """Concave programs sup_H Tr[rho0 H] + 1 - Tr[rho1 exp(H)], one for each
    state pair of the stacks rho0, rho1 (k, d, d), each run from its own
    list of starts (parameter rows of H, length d^2) as multistart_maximize
    runs start lists, sharing every objective call.

    Each optimum equals the measured relative entropy; any iterate gives a
    lower bound.  Every start runs at most 2000 iterations, and the first
    wins ties.  Returns (the k values in nats, the eigenbases (k, d, d) of
    the optimal omegas = exp(H), eigenvectors as columns).
    """

    def objective(batch):
        x, owner = batch
        return _variational_terms(x, rho0[owner], rho1[owner])[:2]

    found = _lockstep(objective, starts, 2000)
    return [float(value) for _, value in found], _exponential(np.stack([x for x, _ in found]), rho0.shape[-1])[2]


def basis_witness(rho0: np.ndarray, rho1: np.ndarray, candidates: list[np.ndarray]) -> tuple[float, Povm] | None:
    """The PVM that certifies the best candidate basis of one state pair,
    and its value: the classical KL of its outcome laws.

    The best candidate is the one whose rank-one PVM has the largest finite
    KL, the first of equal KLs winning; a candidate equal to an earlier one
    is not rated again.  When every candidate's KL is infinite the result is
    None.  Outcomes at or below NEGLIGIBLE_PROB under both states carry
    rounding mass only, which a strict re-evaluation can read under rho0
    alone (an infinite KL).  They are merged into the outcome of largest
    rho1 probability, whose effect becomes the sum of their projectors.  The
    effects are ordered by ascending increment log p0 - log p1, as the SPRT
    tables read it, ties in index order."""
    best, best_val, rated = None, -math.inf, []
    for basis in candidates:
        if any(np.array_equal(basis, seen) for seen in rated):
            continue
        rated.append(basis)
        laws = _basis_laws(basis, rho0, rho1)
        val = kl_divergence(*laws)
        if math.isfinite(val) and val > best_val:
            best, best_val = (basis, *laws), val
    if best is None:
        return None
    basis, p, q = best
    effects = basis.T[:, :, None] * basis.T.conj()[:, None, :]
    merged = (p <= NEGLIGIBLE_PROB) & (q <= NEGLIGIBLE_PROB)
    if merged.any():
        t = int(np.argmax(q))
        effects[t] += effects[merged].sum(axis=0)
        p[t] += p[merged].sum()
        q[t] += q[merged].sum()
        p, q, effects = p[~merged], q[~merged], effects[~merged]
    with np.errstate(divide="ignore"):
        increments = np.log(np.where(p > NEGLIGIBLE_PROB, p, 0.0)) - np.log(np.where(q > NEGLIGIBLE_PROB, q, 0.0))
    order = np.argsort(increments, kind="stable")
    return kl_divergence(p[order], q[order]), Povm(list(effects[order]), label="measured-witness")
