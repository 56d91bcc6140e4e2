"""Shared optimization machinery: Hermitian / pure-state parametrizations,
divided-difference kernels of Frechet derivatives, a multi-start L-BFGS
driver on analytic gradients, and the two measured relative entropy
estimators (variational program and direct PVM search).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize

from .errors import OptimizerFailure
from .linalg import hermitian_eigen
from .quantum import Povm, basis_pvm


@dataclass
class OptimizerConfig:
    """Knobs for every numerical maximization in the library.

    All channel-divergence and measured-entropy values produced under this
    config are certified lower bounds; raising the budgets tightens them.
    max_iters caps the L-BFGS iterations of each start.
    """

    restarts: int = 16
    max_iters: int = 400
    cross_check_tol: float = 1e-4
    seed: int = 0
    pvm_restarts: int = 8
    # extra deterministic starting vectors for the input-state search
    extra_starts: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Parametrizations
# ---------------------------------------------------------------------------


def params_to_hermitian(theta: np.ndarray, d: int) -> np.ndarray:
    """Real vector of length d^2 -> Hermitian d x d matrix: the diagonal,
    then (Re, Im) of each upper entry in row-major order."""
    iu = np.triu_indices(d, 1)
    upper = np.zeros((d, d), dtype=complex)
    upper[iu] = theta[d::2] + 1j * theta[d + 1 :: 2]
    return upper + upper.conj().T + np.diag(theta[:d])


def hermitian_to_params(h: np.ndarray) -> np.ndarray:
    d = h.shape[0]
    upper = h[np.triu_indices(d, 1)]
    theta = np.empty(d * d)
    theta[:d] = np.real(np.diagonal(h))
    theta[d::2] = upper.real
    theta[d + 1 :: 2] = upper.imag
    return theta


def hermitian_grad_to_params(g: np.ndarray) -> np.ndarray:
    """Gradient of f wrt the real parameters, given the matrix gradient G
    (Hermitian, df = Tr[G dH])."""
    out = hermitian_to_params(g)
    out[g.shape[0] :] *= 2.0
    return out


def params_to_pure_vector(theta: np.ndarray, d: int) -> np.ndarray:
    v = theta[:d] + 1j * theta[d:]
    nrm = np.linalg.norm(v)
    if nrm < 1e-12:
        v = np.zeros(d, dtype=complex)
        v[0] = 1.0
        return v
    return v / nrm


def pure_vector_to_params(v: np.ndarray) -> np.ndarray:
    return np.concatenate([v.real, v.imag])


# ---------------------------------------------------------------------------
# Divided differences: for f applied to a Hermitian matrix with eigenvalues
# w, the Frechet derivative in the eigenbasis is the Hadamard product with
# [f(w_i) - f(w_j)] / (w_i - w_j) (f'(w_i) on the diagonal).  Each kernel is
# written without a difference quotient, so close eigenvalues lose no digits.
# ---------------------------------------------------------------------------


def _ratio(num: np.ndarray, x: np.ndarray, fn) -> np.ndarray:
    """num * fn(x) / x, with fn(x) / x continued by 1 at x = 0 (fn is sinh
    or arctanh)."""
    safe = np.where(x == 0.0, 0.5, x)
    return np.where(x == 0.0, 1.0, fn(safe) / safe) * num


def _exp_kernel(lam: np.ndarray) -> np.ndarray:
    half = 0.5 * (lam[:, None] - lam[None, :])
    return _ratio(np.exp(0.5 * (lam[:, None] + lam[None, :])), half, np.sinh)


def _phase_kernel(lam: np.ndarray) -> np.ndarray:
    """Divided differences of exp at i lam: (e^{i a} - e^{i b}) / (i a - i b)."""
    mean = 0.5 * (lam[:, None] + lam[None, :])
    return np.exp(1j * mean) * np.sinc((lam[:, None] - lam[None, :]) / (2.0 * np.pi))


def _support_pairs(w: np.ndarray, mask: np.ndarray):
    """Mean and relative half-difference u of each pair of support
    eigenvalues (placeholders elsewhere) and the support-pair mask."""
    ws = np.where(mask, w, 1.0)
    mean = 0.5 * (ws[:, None] + ws[None, :])
    u = 0.5 * (ws[:, None] - ws[None, :]) / mean
    return mean, u, mask[:, None] & mask[None, :]


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
# Multi-start L-BFGS
# ---------------------------------------------------------------------------


def multistart_maximize(
    objective,
    dim: int,
    cfg: OptimizerConfig,
    starts: list[np.ndarray] | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, float]:
    """Maximize objective(theta) -> (value, gradient) with L-BFGS-B from
    several starts, at most cfg.max_iters iterations each.

    The starts are the given ones, padded with seeded standard normal draws
    up to cfg.restarts.  L-BFGS-B only accepts ascending steps, so each start's
    result is at least its starting value.  Deterministic for a fixed
    cfg.seed; restarts are combined by max with the lowest restart index
    winning ties.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    pts = list(starts or [])
    while len(pts) < cfg.restarts:
        pts.append(rng.standard_normal(dim))

    def negated(theta):
        f, g = objective(theta)
        return -f, -g

    best_x, best_f = None, -math.inf
    failures = 0
    for x0 in pts:
        try:
            res = minimize(
                negated,
                np.asarray(x0, dtype=float),
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": cfg.max_iters, "gtol": 1e-10, "ftol": 1e-15},
            )
        except (ValueError, FloatingPointError):
            failures += 1
            continue
        if -res.fun > best_f:
            best_f = -res.fun
            best_x = res.x
    if best_x is None:
        raise OptimizerFailure(f"all {failures} restarts failed")
    return best_x, best_f


# ---------------------------------------------------------------------------
# Measured relative entropy estimators
# ---------------------------------------------------------------------------


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Classical KL in nats; +inf on support mismatch."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 1e-15
    if np.any(q[mask] <= 1e-300):
        return math.inf
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def _safe_log_state(rho: np.ndarray) -> np.ndarray:
    w, v = hermitian_eigen(rho)
    w = np.maximum(w, 1e-12)
    return (v * np.log(w)) @ v.conj().T


def _variational_terms(theta: np.ndarray, rho0: np.ndarray, rho1: np.ndarray):
    """Tr[rho0 H] + 1 - Tr[rho1 exp(H)] at H = H(theta), its gradient in
    theta, H and exp(H).  The value lower-bounds the measured relative
    entropy for every theta."""
    h = params_to_hermitian(theta, rho0.shape[0])
    lam, u = np.linalg.eigh(h)
    lam = np.clip(lam, -200.0, 200.0)
    elam = np.exp(lam)
    b = u.conj().T @ rho1 @ u
    f = float(np.real(np.sum(rho0 * h.T))) + 1.0 - float(np.sum(np.real(np.diagonal(b)) * elam))
    g = rho0 - u @ (b * _exp_kernel(lam)) @ u.conj().T
    return f, hermitian_grad_to_params(0.5 * (g + g.conj().T)), h, (u * elam) @ u.conj().T


def variational_measured(rho0: np.ndarray, rho1: np.ndarray) -> tuple[float, np.ndarray]:
    """Concave program sup_H Tr[rho0 H] + 1 - Tr[rho1 exp(H)].

    The optimum equals the measured relative entropy; any iterate gives a
    lower bound.  Returns (value in nats, optimal omega = exp(H)).
    """
    d = rho0.shape[0]

    def negf_and_grad(theta: np.ndarray):
        f, g, _, _ = _variational_terms(theta, rho0, rho1)
        return -f, -g

    best = None
    for theta0 in (hermitian_to_params(_safe_log_state(rho0) - _safe_log_state(rho1)), np.zeros(d * d)):
        res = minimize(
            negf_and_grad,
            theta0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 2000, "gtol": 1e-10, "ftol": 1e-15},
        )
        if best is None or res.fun < best.fun:
            best = res
    _, _, _, omega = _variational_terms(best.x, rho0, rho1)
    return float(-best.fun), omega


def basis_kl(basis: np.ndarray, rho0: np.ndarray, rho1: np.ndarray) -> float:
    """Classical KL of the two outcome distributions in a rank-one PVM built
    from the columns of basis."""
    p, q, _, _ = _basis_laws(basis, rho0, rho1)
    return kl_divergence(p, q)


def _basis_laws(basis: np.ndarray, rho0: np.ndarray, rho1: np.ndarray):
    """Normalized outcome laws of the basis PVM, and basis^dag rho_i."""
    left0 = basis.conj().T @ rho0
    left1 = basis.conj().T @ rho1
    p = np.maximum(np.real(np.sum(left0 * basis.T, axis=1)), 0.0)
    q = np.maximum(np.real(np.sum(left1 * basis.T, axis=1)), 0.0)
    return p / max(p.sum(), 1e-300), q / max(q.sum(), 1e-300), left0, left1


def _pvm_objective(rho0: np.ndarray, rho1: np.ndarray, base: np.ndarray):
    """theta -> (KL of the outcome laws in the basis exp(i H(theta)) base,
    gradient in theta).  An infinite KL reads -1e6 with a zero gradient."""
    d = rho0.shape[0]

    def objective(theta: np.ndarray):
        lam, v = np.linalg.eigh(params_to_hermitian(theta, d))
        basis = (v * np.exp(1j * lam)) @ v.conj().T @ base
        p, q, left0, left1 = _basis_laws(basis, rho0, rho1)
        val = kl_divergence(p, q)
        if not math.isfinite(val):
            return -1e6, np.zeros_like(theta)
        # dKL/dp_i and dKL/dq_i; empty outcomes are stationary (dp_i = 0)
        live = p > 1e-15
        qs = np.where(live, q, 1.0)
        dp = np.where(live, np.log(np.where(live, p, 1.0)) + 1.0 - np.log(qs), 0.0)
        dq = np.where(live, -p / qs, 0.0)
        # dKL = 2 Re Tr[Z dW] with W = exp(i H), Z = base (D_p U^dag rho0 + D_q U^dag rho1)
        z = base @ (dp[:, None] * left0 + dq[:, None] * left1)
        c = 1j * v @ ((v.conj().T @ z @ v) * _phase_kernel(lam)) @ v.conj().T
        return val, hermitian_grad_to_params(c + c.conj().T)

    return objective


# The unitary search is only worthwhile for small systems; above this
# dimension the estimator evaluates the candidate bases only.
_PVM_SEARCH_MAX_DIM = 6


def pvm_search_measured(
    rho0: np.ndarray,
    rho1: np.ndarray,
    cfg: OptimizerConfig,
    extra_bases: list[np.ndarray] | None = None,
) -> tuple[float, Povm]:
    """Maximize the classical KL of the outcome distributions over rank-one
    PVMs, parametrized as exp(i H) applied to a reference basis, by seeded
    multi-start L-BFGS on the analytic gradient.

    Candidate reference bases always include the eigenbasis of
    log rho0 - log rho1 (optimal in the commuting case) plus any caller
    supplied bases, e.g. the eigenbasis of the variational optimizer's omega
    (whose basis KL always dominates the variational value)."""
    d = rho0.shape[0]
    npar = d * d
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x9E)))

    _, base = hermitian_eigen(_safe_log_state(rho0) - _safe_log_state(rho1))
    bases = [base, np.eye(d, dtype=complex)]
    if extra_bases:
        bases = list(extra_bases) + bases

    best_val, best_u = -math.inf, None
    for base_u in bases:
        val = basis_kl(base_u, rho0, rho1)
        if math.isfinite(val) and val > best_val:
            best_val, best_u = val, base_u

    if d <= _PVM_SEARCH_MAX_DIM:
        starts = [np.zeros(npar)]
        for _ in range(max(cfg.pvm_restarts - 1, 1)):
            starts.append(0.5 * rng.standard_normal(npar))
        sub = replace(cfg, restarts=len(starts))
        x, _ = multistart_maximize(_pvm_objective(rho0, rho1, best_u), npar, sub, starts=starts, rng=rng)
        lam, v = np.linalg.eigh(params_to_hermitian(x, d))
        found = (v * np.exp(1j * lam)) @ v.conj().T @ best_u
        val = basis_kl(found, rho0, rho1)
        if val > best_val:
            best_val, best_u = val, found
    return best_val, basis_pvm(best_u, label="measured-witness")
