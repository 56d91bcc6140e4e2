"""Divergences between states and channels.

State level: quantum relative entropy, max-divergence, sandwiched Renyi
divergence (1 < alpha < inf) and the measured relative entropy (the
variational program, cross-checked against its witness PVM).  The relative
and Renyi values have one formula each (_relative_terms, _renyi_terms),
which maps a stack of state pairs to the values with their matrix
gradients: the input search ascends it on a batch of inputs and the
state-level functions certify with it on a batch of one, from the stored
spectra of their DensityMatrix arguments.  Channel level: ancilla-assisted
input optimization over pure bipartite states by lockstep L-BFGS on analytic
gradients, each round of the search one batched objective call
(outputs sigma_i = sum_k A_k psi psi^dag A_k^dag with the stack
A_k = I_R (x) K_k that quantum applies every channel with, matrix
gradients pulled back through the A_k).  Every channel entry takes a block
size l: at l > 1 it returns the DivergenceValue of the l-fold tensor powers
per use.  The measured kind searches the variational observable H alone:
at a fixed H the value Tr[sigma0 H] + 1 - Tr[sigma1 exp(H)] is linear in
psi psi^dag, so the best input is the top eigenvector of
sum_k A0_k^dag H A0_k - sum_k A1_k^dag exp(H) A1_k and the value 1 + its
top eigenvalue (_top_inputs).  Every search stops once a step gains less than
ROUNDING_TOL max(1, |value|), the rule that closes brackets below.
channel_divergence_pair returns (D(N0||N1), D(N1||N0)) from one lockstep
run: every row computes both outputs N0(psi) and N1(psi) anyway, so each
objective call carries the rows of both directions, and the variational
programs of both measured certifications share their calls too.
channel_divergence is the one-direction case.

The relative and Renyi input searches run one start.  For an input psi on
R (x) A with marginal rho = Tr_R psi psi^dag, f(psi) =
D(N0(psi)||N1(psi)) depends on psi only through rho: two purifications of
rho on R (x) A differ by a unitary U on R, and U (x) I commutes with both
channels and leaves D unchanged.  So f(psi) = F(rho), and F is concave for
Umegaki's D and for Q_alpha = exp((alpha - 1) D_alpha) with alpha > 1.
For rho = p rho_a + (1 - p) rho_b with purifications psi_a and psi_b, the
flagged state p |0><0| (x) psi_a + (1 - p) |1><1| (x) psi_b on F R A has
marginal rho too, so a channel C on R takes any purification of rho to
it.  Data processing under C (for the sandwiched family at alpha > 1,
Frank & Lieb, arXiv:1306.5358) and the flag's direct sum, over which D
and Q_alpha both average with weights p and 1 - p, give
F(rho) >= p F(rho_a) + (1 - p) F(rho_b).  D_alpha =
log Q_alpha / (alpha - 1) is then concave too.  The map psi -> rho is
open: psi = (U (x) rho^{1/2}) sum_i |ii> for some unitary U on R, and
rho^{1/2} is continuous, so every marginal near rho is that of an input
near psi.  A local maximum over psi is therefore a local maximum of F over
rho, and so global.  A stationary point need not be: at a product input
a (x) b both outputs are |a><a| (x) N_i(|b><b|), whose matrix gradients
are block diagonal in R, so the gradient lies in a (x) A: every direction
that entangles the input has derivative zero, and a search started there
never leaves the product inputs.  The searches therefore start at the
maximally entangled input, whose marginal I/d has full rank, plus the
caller's extra starts.  The measured kind's search over H is not concave,
and it keeps cfg.restarts seeded starts.

A measured value, of a state pair or of a channel pair at its witness
input, is the value of one certifier (_measured_values), which needs no
search over measurements: measuring in the eigenbasis of the optimal omega
already reaches the variational value sup_omega Tr rho0 log omega + 1 -
Tr rho1 omega over positive definite omega (Berta, Fawzi & Tomamichel,
arXiv:1512.02615), and the best of that basis, the eigenbasis of
log rho0 - log rho1 and the identity is the witness, with the outcomes
negligible under both states merged (optimize.basis_witness, which rates
each distinct candidate once).  Omega = exp(H) shares H's eigenvectors,
which the program already holds, so no candidate is decomposed again.
The certifier brackets each pair before it runs the program: D(rho0||rho1)
bounds D_M from above, and the variational value at the program's first
start from below.  A pair whose bracket closes within ROUNDING_TOL
max(1, upper) keeps that start; the program runs on the other pairs only.
A state pair's program starts at H = log rho0 - log rho1, where the
bracket closes whenever the states commute, then at H = 0; that start's
eigenbasis is the log-ratio candidate, and on a closed pair omega's too.

A searched channel direction's program starts at the search's winning H
alone, and that start is warm.  The program is concave in omega.  H ->
exp(H) maps the Hermitian matrices one-to-one and smoothly onto the
positive definite ones, with a smooth inverse, so a stationary point in H
is one in omega, and every local maximum in H is global.  At the winning
H the search's value 1 + lambda_max(M(H)) is the maximum over inputs of
the program's value on their outputs, attained at the top eigenvector
psi(H), the witness input.  By Danskin's theorem its gradient in H is the
program's gradient on the outputs of psi(H), which vanishes where the
search stops, so where the search ended stationary, H is stationary for
the certifier's program on the witness outputs and the program only
confirms its optimum (3 batched calls on a random qubit pair, against 30
from the state-level starts).  A search that stopped at cfg.max_iters
first leaves the program the rest of the ascent on the fixed witness
outputs: 1,212 batched calls for both directions of a random qubit pair
at l = 2 and max_iters 100.

All values are in nats.  Channel divergences obtained by numerical
maximization are certified lower bounds; the channel max-divergence is exact
(it is attained at the maximally entangled input, equivalently on the Choi
pair).

Every channel value carries a certified upper end (DivergenceValue.upper),
in closed form on the unit-trace Choi states (_channel_upper): the
Belavkin-Staszewski channel divergence D_BS for the relative and measured
kinds (D_M <= D <= D_BS), the geometric Renyi divergence for the renyi kind
with alpha in (1, 2], and the Choi D_max above that and for the max kind.
D_max, of states and of channels, and both geometric traces read one
sandwich kernel (_sandwich: X = s1^{-1/2} s0 s1^{-1/2} and s1^{1/2} on
supp s1, for one pair or a stack).  The value's bracket has that upper end
and, as its lower end, the value at the maximally entangled input, read on
the same cached Choi states: they are the outputs of that input, the unit
vector of quantum._max_entangled_input, so both ends of every bracket sit
on one state pair and the bracket decomposes no state of its own.  The max
kind's value there is its upper end, so its bracket closes by construction,
and it runs through the same bracket as every other kind.  Each of these
closed forms (the sandwich's eigendecomposition, the upper ends D_BS, the
geometric Renyi divergence at each order and D_max, and the relative and
Renyi values at the Choi pair) is computed once per ordered pair of channel
objects and held on the numerator channel, keyed by its partner
(_on_choi_pair): the relative and measured kinds share theirs, every Renyi
order reads one sandwich decomposition, and a block pair holds its own on
the cached tensor powers.  Nothing that depends on cfg or a search is
held: searched values, the measured certifier's program and witness.

When the two ends meet within ROUNDING_TOL max(1, upper) (the measured
kind runs its certifier only once the relative value there meets it), that
input is the winner and the direction skips the input search; on the
covariant zoo (depolarizing, dephasing, replacers) every bracket closes.
Directions whose bracket stays open run the search unchanged, and a
searched value above the upper end beyond that tolerance gets a note.  A
searched direction whose witness outputs the state-level support rule
reads as unsupported, though the Choi states pass it, raises
OptimizerFailure: there the measured search's objective is unbounded, and
its value would be no bound.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidAlphaError,
    OptimizerFailure,
)
from .linalg import PSD_TOL, support_contained
from .optimize import (
    ROUNDING_TOL,
    OptimizerConfig,
    _adjoint,
    _exponential,
    _log_kernel,
    _power_kernel,
    _safe_log_state,
    _variational_at,
    _variational_terms,
    basis_witness,
    hermitian_to_params,
    logger,
    multistart_maximize,
    params_to_pure_vector,
    pure_vector_to_params,
    variational_measured,
)
from .quantum import (
    STATE_TOL,
    DensityMatrix,
    Povm,
    QuantumChannel,
    _apply_to_pure,
    _lifted_kraus,
    _max_entangled_input,
    _output,
    max_entangled_vector,
    pure_state,
    tensor_power_channel,
)

LN2 = math.log(2.0)


class ConvergenceWarning(UserWarning):
    pass


@dataclass(eq=False)
class MeasuredWitness:
    """Measurement achieving the reported measured relative entropy, plus
    the two values that were cross-checked: the variational program's and
    the KL of the witness PVM's outcome laws."""

    povm: Povm | None
    variational_value: float
    pvm_value: float


@dataclass(eq=False)
class ChannelWitness:
    """Input (and measurement, for the measured kind) achieving the
    reported channel divergence value."""

    input_vector: np.ndarray
    povm: Povm | None = None

    @property
    def input_state(self) -> DensityMatrix:
        return pure_state(self.input_vector)


@dataclass
class DivergenceValue:
    """A divergence in nats with its certified upper end.  Values and upper
    ends meet at rounding, so the rule every check of the two reads is
    value <= upper + 1e-12 max(1, upper) (ROUNDING_TOL); a channel value
    beyond it carries a note in warnings."""

    value: float  # nats; math.inf when not finite
    is_lower_bound: bool = False
    witness: object | None = None
    warnings: list[str] = field(default_factory=list)
    upper: float = math.inf  # nats; a certified upper end of the value

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)

    def in_bits(self) -> float:
        return self.value / LN2


def _unsupported(rho0: DensityMatrix, rho1: DensityMatrix) -> DivergenceValue | None:
    """The infinite value of a pair whose rho0 leaves the support of rho1,
    else None; mismatched dimensions raise."""
    if rho0.dim != rho1.dim:
        raise DimensionMismatchError("state pair has mismatched dimensions")
    return None if support_contained(rho0.mat, rho1.spectrum) else DivergenceValue(math.inf)


# ---------------------------------------------------------------------------
# State-level divergences
# ---------------------------------------------------------------------------


def _spectrum(s: np.ndarray, stored=None):
    """Eigenvalues, eigenvectors and support mask of each state: from its
    eigh, or from stored, the (eigenvalues, eigenvectors) stacks a caller
    already holds (DensityMatrix.spectrum, equal to that eigh bit for bit),
    with no eigendecomposition."""
    w, u = np.linalg.eigh(s) if stored is None else stored
    return w, u, w > PSD_TOL


def _relative_terms(s0: np.ndarray, s1: np.ndarray, spectra=(None, None)):
    """D(s0||s1) on the support of s1, and its matrix gradients in s0 and
    s1: log s0 - log s1 and -Dlog_{s1}[s0], for each pair of a stack
    (B, d, d).  A caller that holds both stacks' spectra passes them as
    spectra, a pair of (eigenvalues, eigenvectors), and the formula takes no
    eigendecomposition; the input search, whose outputs are new on every
    call, passes none."""
    w0, u0, m0 = _spectrum(s0, spectra[0])
    w1, u1, m1 = _spectrum(s1, spectra[1])
    l0 = np.log(np.where(m0, w0, 1.0)) * m0
    l1 = np.log(np.where(m1, w1, 1.0)) * m1
    u1h = _adjoint(u1)
    log1 = (u1 * l1[:, None, :]) @ u1h
    f = np.sum(w0 * l0, axis=-1) - np.real(np.sum(s0 * np.swapaxes(log1, -1, -2), axis=(-2, -1)))
    g0 = (u0 * l0[:, None, :]) @ _adjoint(u0) - log1
    g1 = -u1 @ ((u1h @ s0 @ u1) * _log_kernel(w1, m1)) @ u1h
    return f, g0, g1


def _renyi_terms(s0: np.ndarray, s1: np.ndarray, alpha: float, spectrum1=None):
    """Sandwiched D_alpha(s0||s1) on the support of s1, and its matrix
    gradients in s0 and s1 (the latter through the divided-difference
    adjoint of s1^gamma, gamma = (1 - alpha) / 2 alpha), for each pair of a
    stack (B, d, d).  A caller that holds s1's spectrum passes it as
    spectrum1, and the formula takes one eigendecomposition, that of the
    sandwich."""
    gamma = (1.0 - alpha) / (2.0 * alpha)
    w1, u1, m1 = _spectrum(s1, spectrum1)
    u1h = _adjoint(u1)
    p = np.where(m1, np.where(m1, w1, 1.0) ** gamma, 0.0)
    g = (u1 * p[:, None, :]) @ u1h
    wm, um = np.linalg.eigh(g @ s0 @ g)
    wm = np.maximum(wm, 0.0)
    q = np.maximum(np.sum(wm**alpha, axis=-1), 1e-300)
    mpow = (um * (wm ** (alpha - 1.0))[:, None, :]) @ _adjoint(um)
    c = (alpha / ((alpha - 1.0) * q))[:, None, None]
    x = s0 @ g @ mpow
    x = x + _adjoint(x)
    g0 = c * (g @ mpow @ g)
    g1 = c * (u1 @ ((u1h @ x @ u1) * _power_kernel(w1, m1, gamma)) @ u1h)
    f = np.array([math.log(qi) for qi in q.tolist()]) / (alpha - 1.0)
    return f, g0, g1


def _state_value(kind: str, alpha: float | None, s0: DensityMatrix, s1: DensityMatrix) -> float:
    """The sandwiched Renyi divergence for the renyi kind, else the relative
    entropy, unfloored: the value of _renyi_terms or _relative_terms, the
    formula the input search ascends, on the states' stored spectra; inf
    where s0 leaves supp s1.  A rho0 that leaks within the support rule can
    read below 0 by rounding, and a channel bracket whose lower end is that
    value stays open, so the search runs."""
    if _unsupported(s0, s1):
        return math.inf
    if kind == "renyi":
        f = _renyi_terms(s0.mat[None], s1.mat[None], alpha, [a[None] for a in s1.spectrum])[0]
    else:
        f = _relative_terms(s0.mat[None], s1.mat[None], [[a[None] for a in rho.spectrum] for rho in (s0, s1)])[0]
    return float(f[0])


def rel_entropy_states(rho0: DensityMatrix, rho1: DensityMatrix) -> DivergenceValue:
    """Quantum relative entropy Tr[rho0 (log rho0 - log rho1)] in nats:
    _state_value's, floored at 0 as channel and measured values are."""
    return DivergenceValue(max(_state_value("relative", None, rho0, rho1), 0.0))


def _sandwich(s0, spectrum):
    """The Hermitian X = s1^{-1/2} s0 s1^{-1/2} and s1^{1/2}, for one pair
    or each pair of a stack (B, d, d), with both powers of s1 taken on
    supp s1 from s1's spectrum (eigenvalues, eigenvectors as columns): the
    one sandwich that D_max and the closed-form upper ends read."""
    w, v = spectrum
    scale = np.where(w > PSD_TOL, np.maximum(w, PSD_TOL) ** -0.5, 0.0)[..., None, :]
    vh = _adjoint(v)
    inv_sqrt = (v * scale) @ vh
    m = inv_sqrt @ s0 @ inv_sqrt
    return 0.5 * (m + _adjoint(m)), (v * (scale * w[..., None, :])) @ vh


def _max_divs(s0, spectrum):
    """D_max of each pair of a stack (B, d, d), s1 given by its spectrum:
    the log of the top eigenvalue of _sandwich's X, or +inf where s0 leaves
    supp s1 by support_contained's rule."""
    top = np.linalg.eigvalsh(_sandwich(s0, spectrum)[0])[:, -1].tolist()
    return np.where(support_contained(s0, spectrum), [math.log(max(t, 1e-300)) for t in top], math.inf)


def max_div_states(rho0: DensityMatrix, rho1: DensityMatrix) -> DivergenceValue:
    """Max-divergence: log of the largest generalized eigenvalue of
    (rho0, rho1) on the support of rho1, in nats; the batch of one of
    _max_divs."""
    return _unsupported(rho0, rho1) or DivergenceValue(
        float(_max_divs(rho0.mat[None], [a[None] for a in rho1.spectrum])[0]))


def _check_alpha(alpha) -> None:
    """Raise InvalidAlphaError unless 1 < alpha < inf, the orders of the
    sandwiched Renyi divergence this module evaluates (None and NaN are
    not)."""
    if alpha is None or not 1.0 < alpha < math.inf:
        raise InvalidAlphaError(f"a Renyi order must lie in (1, inf), got {alpha}")


def sandwiched_renyi_states(
    rho0: DensityMatrix, rho1: DensityMatrix, alpha: float
) -> DivergenceValue:
    """Sandwiched Renyi divergence, 1 < alpha < inf:
    (1/(alpha-1)) log Tr[(rho1^{(1-a)/2a} rho0 rho1^{(1-a)/2a})^a];
    _state_value's, floored at 0 as rel_entropy_states is."""
    _check_alpha(alpha)
    return DivergenceValue(max(_state_value("renyi", alpha, rho0, rho1), 0.0))


def measured_rel_entropy_states(
    rho0: DensityMatrix,
    rho1: DensityMatrix,
    cfg: OptimizerConfig | None = None,
) -> DivergenceValue:
    """Measured relative entropy: best classical KL obtainable by a common
    measurement.  The batch of one of _measured_values, the certifier that
    channel values of the measured kind use too; a finite value's upper end
    is its bracket's, D(rho0||rho1)."""
    return _measured_values([(rho0, rho1)], cfg or OptimizerConfig())[0]


def _measured_values(pairs: list[tuple[DensityMatrix, DensityMatrix]], cfg: OptimizerConfig,
                     upper: list[float] | None = None, starts: list[list[np.ndarray]] | None = None
                     ) -> list[DivergenceValue]:
    """The certified measured relative entropy of every state pair, all of
    one dimension: inf where the support is not contained.

    Elsewhere each pair runs the variational program from its start list,
    by default H = log rho0 - log rho1 then H = 0.  Each pair's bracket is
    evaluated first: its upper end is D(rho0||rho1) >= D_M, from the
    stacked _relative_terms on the states' stored spectra, its lower end
    the variational value at its first start.  A caller that holds every
    pair's finite _state_value passes them as upper: they equal those rows
    bit for bit.  Such a caller may also pass each pair's start
    list (parameter rows of H) as starts.  Every finite value carries its
    bracket's upper end as upper.  A pair whose bracket closes (_closes)
    keeps that start's value and omega's eigenbasis, H's, and logs one
    DEBUG record with its bracket; from the log-ratio start this holds
    whenever the two states commute.  The variational program runs on the
    other pairs only, sharing each of its objective calls, and returns the
    eigenbasis of each optimal omega.  Then basis_witness rates the
    candidates, that basis, the eigenbasis of log rho0 - log rho1 and the
    identity, and gives the witness PVM of the best and the KL of its
    outcome laws.  The log-ratio basis is the log-ratio start's, already
    decomposed, when starts is None, and one eigh of log rho0 - log rho1
    when the caller passes starts.  A pair on which no candidate basis has
    a finite KL passes the support rule with rho0 leaking mass onto
    outcomes that rho1 reads as exactly 0; it is certified again, from its
    log-ratio start, on the support of rho1, as _relative_terms reads the
    pair: rho0 compressed by rho1's support projector and renormalized, so
    that D_M <= D still brackets it, and its upper end is D of the
    compressed pair.  The
    reported value is the larger of the witness KL and the variational
    value (both are lower bounds); disagreement beyond cfg.cross_check_tol
    attaches a ConvergenceWarning, and a variational value above the
    witness KL by more than 10x that raises OptimizerFailure.  The other way
    round nothing is wrong with the value: in omega's eigenbasis the
    classical variational formula gives KL >= the variational value at
    omega, so a witness KL above the program's value only shows a program
    that stopped short, and the KL is still a certified lower bound.
    """
    out = [_unsupported(rho0, rho1) for rho0, rho1 in pairs]
    live = [i for i, dv in enumerate(out) if dv is None]
    if not live:
        return out
    r0 = np.stack([pairs[i][0].mat for i in live])
    r1 = np.stack([pairs[i][1].mat for i in live])
    log_ratio = np.stack([_safe_log_state(pairs[i][0].spectrum) - _safe_log_state(pairs[i][1].spectrum)
                          for i in live])
    if upper is None:
        spectra = [[np.stack(a) for a in zip(*(pairs[i][k].spectrum for i in live))] for k in (0, 1)]
        upper = _relative_terms(r0, r1, spectra)[0].tolist()
    log_start = starts is None
    at = "the log-ratio start" if log_start else "the searched H"
    if log_start:
        starts = [[hermitian_to_params(lr), np.zeros(lr.size)] for lr in log_ratio]
    var_vals, _, omega_bases = _variational_terms(np.stack([s[0] for s in starts]), r0, r1)
    # the log-ratio candidate: the log-ratio start's eigenbasis, or one eigh
    # of log rho0 - log rho1 where the caller's starts are searched H's
    log_bases = omega_bases.copy() if log_start else np.linalg.eigh(log_ratio)[1]
    var_vals, all_notes = var_vals.tolist(), [[] for _ in live]
    searched = []
    for j, notes in enumerate(all_notes):
        if _closes(var_vals[j], upper[j], notes, at=at):
            _log_closed("variational program", var_vals[j], upper[j])
        else:
            searched.append(j)
    if searched:
        found, omega_bases[searched] = variational_measured(r0[searched], r1[searched],
                                                            [starts[j] for j in searched])
        for j, value in zip(searched, found):
            var_vals[j] = value
    eye = np.eye(r0.shape[-1], dtype=complex)
    for i, var_val, up, omega_basis, log_basis, s0, s1, notes in zip(live, var_vals, upper, omega_bases, log_bases,
                                                                     r0, r1, all_notes):
        witness = basis_witness(s0, s1, [omega_basis, log_basis, eye])
        if witness is None:
            # rho1's support projector; the identity basis is finite on the
            # compressed pair, so the recursion ends there
            w, v = pairs[i][1].spectrum
            p = (v * (w > PSD_TOL)) @ _adjoint(v)
            compressed = p @ s0 @ p
            out[i] = _measured_values([(DensityMatrix(compressed / compressed.trace().real), pairs[i][1])], cfg)[0]
            continue
        pvm_val, povm = witness
        gap = abs(var_val - pvm_val)
        if gap > cfg.cross_check_tol:
            if var_val - pvm_val > 10 * cfg.cross_check_tol:
                raise OptimizerFailure(
                    f"measured-entropy estimators disagree: variational {var_val:.6f} vs witness PVM {pvm_val:.6f}"
                )
            notes.append(f"estimators disagree by {gap:.2e}")
            warnings.warn(notes[-1], ConvergenceWarning)
        out[i] = DivergenceValue(
            float(max(var_val, pvm_val, 0.0)),
            is_lower_bound=True,
            witness=MeasuredWitness(povm=povm, variational_value=var_val, pvm_value=pvm_val),
            warnings=notes,
            upper=up,
        )
    return out


# ---------------------------------------------------------------------------
# Channel-level divergences
# ---------------------------------------------------------------------------

KINDS = ("relative", "measured", "max", "renyi")


def _pull_back(a: np.ndarray, v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradients in psi of Tr[G sigma(psi)] for Hermitian G, on a stack: the
    vectors 2 sum_k A_k^dag G A_k psi, with d Tr[G sigma] = Re <gradient,
    d psi>."""
    return 2.0 * np.einsum("kma,bkm->ba", a.conj(), v @ np.swapaxes(g, -1, -2))


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] . b[i] for real rows, each as a 1 x n @ n x 1 product: the BLAS
    dot that np.dot and np.linalg.norm take on one vector."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _pick(flip, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a on the rows of D(N0||N1) and b on those of D(N1||N0); flip is one
    bool for every row, or a mask (B, 1, 1) of the rows of D(N1||N0)."""
    if flip is True:
        return b
    if flip is False:
        return a
    return np.where(flip, b, a)


def _top_inputs(a0, a1, theta, flip):
    """The unit inputs psi(H) that maximize the variational value
    Tr[sigma0 H] + 1 - Tr[sigma1 exp(H)] at H = H(theta) for each row of
    theta, and _exponential's parts of each H.  The value is linear in
    psi psi^dag, so its maximum is 1 + lambda_max(M) at the top eigenvector
    of M = Phi0^dag(X0) + Phi1^dag(X1), with X = H on the channel read as
    "0" (N1 where flip) and X = -exp(H) on the other: the two terms are
    summed in the same order whatever the direction."""
    exp = h, lam, u = _exponential(theta, a0.shape[1])
    neg = -((u * np.exp(lam)[..., None, :]) @ _adjoint(u))
    # the adjoint channels, Phi^dag(X) = sum_k A_k^dag X A_k
    m0, m1 = ((_adjoint(a) @ _pick(flip, x, y)[:, None] @ a).sum(axis=1) for a, x, y in ((a0, h, neg), (a1, neg, h)))
    return np.linalg.eigh(m0 + m1)[1][..., -1], exp


def _input_objectives(n0: QuantumChannel, n1: QuantumChannel, kind: str, alpha: float | None, flips: list[bool]):
    """The input search's objective over the flat batch of one or more
    searches.

    The objective takes one argument, the batch (theta, owner): parameter
    rows theta (B, P) and each row's search index owner (B,).  It stays one
    argument because multistart_maximize passes it so and bench/tracing.py
    wraps it as a one-argument counter; every row of every search has the
    same length P.  A row of search s searches D(N1||N0) when flips[s] and
    D(N0||N1) otherwise.  For relative / renyi each row theta holds
    v = theta[:n] + i theta[n:], normalized to psi on R (x) A, and its value
    is D(sigma0||sigma1) / D_alpha.  For measured each row parametrizes a
    Hermitian H on the output, and its value is the variational lower bound
    Tr[sigma0 H] + 1 - Tr[sigma1 exp(H)] on D_M at the best input psi(H)
    (_top_inputs), 1 + lambda_max(M(H)); psi(H) is stationary, so the
    gradient is the one at fixed outputs.  Every row's outputs N0(psi) and
    N1(psi) come from one pass; the direction only decides which is "0".
    The objective returns the values (B,) and analytic gradients (B, P),
    each row computed alone whatever the order of owner.
    """
    d_r = n0.in_dim
    n = d_r * n0.in_dim
    m = d_r * n0.out_dim
    a0, a1 = _lifted_kraus(n0, d_r), _lifted_kraus(n1, d_r)
    flips = np.asarray(flips)

    def objective(batch):
        theta, owner = batch
        flip = flips[owner]
        # one direction in every row: a plain bool picks whole stacks
        flip = bool(flip[0]) if flip.all() or not flip.any() else flip[:, None, None]
        if kind == "measured":
            psi, exp = _top_inputs(a0, a1, theta, flip)
        else:
            v = theta[:, :n] + 1j * theta[:, n:]
            # |v| as np.linalg.norm takes it: two BLAS dots on the strided parts
            nrm = np.sqrt(_dot_rows(v.real, v.real) + _dot_rows(v.imag, v.imag))
            psi = v / nrm[:, None]
        out0, v0 = _output(a0, psi)
        out1, v1 = _output(a1, psi)
        s0, s1 = _pick(flip, out0, out1), _pick(flip, out1, out0)
        if kind == "measured":
            return _variational_at(exp, s0, s1)
        f, g0, g1 = _relative_terms(s0, s1) if kind == "relative" else _renyi_terms(s0, s1, alpha)
        # IEEE addition commutes, so a flipped row sums the same two terms
        g = _pull_back(a0, v0, _pick(flip, g0, g1)) + _pull_back(a1, v1, _pick(flip, g1, g0))
        gr = np.concatenate([g.real, g.imag], axis=-1)
        pr = np.concatenate([psi.real, psi.imag], axis=-1)
        # chain rule through psi = v / |v|: project onto the sphere's tangent
        return f, (gr - pr * _dot_rows(pr, gr)[:, None]) / nrm[:, None]

    return objective


# The relative and Renyi searches stall on the product boundary: where an
# input's Schmidt weight puts an output eigenvalue near PSD_TOL, the formulas'
# support mask makes the objective jump by about PSD_TOL log PSD_TOL, and a
# search whose optimum is a product input (a classical pair's best letter)
# stops with Schmidt residues of 1e-5 to 1e-4, up to 1e-9 below that optimum
# or 3e-8 above its upper end.  Coefficients below this floor are dropped
# before the value is certified; near an optimum this moves the value by
# O(floor^2).  The measured kind's input psi(H) is an eigenvector, certified
# as it is.
_SCHMIDT_FLOOR = 1e-4


def _drop_schmidt_residue(psi: np.ndarray, d_in: int) -> np.ndarray:
    u, s, vh = np.linalg.svd(psi.reshape(-1, d_in), full_matrices=False)
    s = np.where(s >= _SCHMIDT_FLOOR * s[0], s, 0.0)
    return ((u * (s / np.linalg.norm(s))) @ vh).reshape(-1)


def _on_choi_pair(a: QuantumChannel, b: QuantumChannel, key, compute):
    """The closed form named key of the Choi pair (a, b): compute() on the
    first call, then the value held on a under b (QuantumChannel._pairs).
    compute must read the two cached Choi states alone, so every later call
    gets the same bits a fresh pair of channels would.  a holds b weakly,
    and b's entries go with b: a long-lived channel keeps no partner alive,
    and two channels that hold each other form no reference cycle."""
    entries = a._pairs.setdefault(b, {})
    if key not in entries:
        entries[key] = compute()
    return entries[key]


def _geometric_trace(a, b, g) -> float:
    """d lambda_max(Tr_B[(C1^{1/2} U) g(w) (C1^{1/2} U)^dag]) with
    eigh(X) = (w, U) for _sandwich's X = C1^{-1/2} C0 C1^{-1/2} of the
    unit-trace Choi states C0, C1 of channels a, b with input dimension d:
    the channel value of the geometric divergence of the operator function g
    (g(0) = 0), maximized over inputs in closed form (Fang & Fawzi,
    arXiv:1909.05758).  The pair (w, C1^{1/2} U) is decomposed once per
    Choi pair, held read-only under "sandwich", and read by every g."""

    def decompose():
        x, root = _sandwich(a.choi_state().mat, b.choi_state().spectrum)
        xw, xu = np.linalg.eigh(x)
        r = root @ xu
        xw.flags.writeable = r.flags.writeable = False
        return xw, r

    xw, r = _on_choi_pair(a, b, "sandwich", decompose)
    d, n = a.in_dim, a.out_dim
    marginal = np.trace(((r * g(np.maximum(xw, 0.0))) @ r.conj().T).reshape(d, n, d, n), axis1=1, axis2=3)
    return d * float(np.linalg.eigvalsh(marginal)[-1])


def _channel_upper(a: QuantumChannel, b: QuantumChannel, kind: str, alpha: float | None) -> float:
    """A certified upper end of the channel value D(a||b) of any kind, for a
    pair with supp J_a in supp J_b: the Belavkin-Staszewski channel
    divergence for D_M <= D <= D_BS, the geometric Renyi one for alpha in
    (1, 2], which dominates the sandwiched divergence, and the Choi D_max
    above that and for the max kind, whose value it is.  Each is computed
    once per Choi pair (_on_choi_pair), under "bs" for the relative and
    measured kinds, ("geo", alpha) and "max"; D_max takes its own eigvalsh
    of the sandwich, not the held eigh, whose values can differ in the
    last bit."""
    if kind in ("relative", "measured"):
        return _on_choi_pair(a, b, "bs",
                             lambda: _geometric_trace(a, b, lambda x: x * np.log(np.where(x > 0.0, x, 1.0))))
    if kind == "max" or alpha > 2.0:
        return _on_choi_pair(a, b, "max", lambda: max_div_states(a.choi_state(), b.choi_state()).value)
    return _on_choi_pair(a, b, ("geo", alpha),
                         lambda: math.log(max(_geometric_trace(a, b, lambda x: x**alpha), 1e-300)) / (alpha - 1.0))


def _closes(lower: float, upper: float, notes: list[str], at: str = "the maximally entangled input") -> bool:
    """Whether the bracket [lower, upper], whose lower end is the value at
    the start at, is closed within ROUNDING_TOL.  A lower end beyond it
    above the upper end adds a note to notes."""
    tol = ROUNDING_TOL * max(1.0, upper)
    if lower - upper > tol:
        notes.append(f"value at {at} exceeds the upper end by {lower - upper:.2e}")
    return math.isfinite(upper) and abs(upper - lower) <= tol


def _log_closed(skipped, lower, upper):
    """Log the one DEBUG record of a closed bracket: the search named
    skipped did not run."""
    if logger.isEnabledFor(logging.DEBUG):
        stats = dict(starts=0, lower=lower, upper=upper, gap=upper - lower)
        logger.debug(f"{skipped} skipped, bracket closed %s", stats, extra={"multistart": stats})


def _input_search(n0, n1, kind, alpha, cfg, extra: list[np.ndarray], flips: list[bool]):
    """The best (input vector, parameter row) of each of one or more
    lockstep input searches over the pair's inputs, of D(N1||N0) where
    flips[s] and of D(N0||N1) otherwise.  Every search starts from the
    maximally entangled input and the extra starts.  Relative and renyi
    search those inputs' parameters alone: their objective is concave in
    the input marginal (module docstring), so one start of full Schmidt
    rank reaches the optimum.  The measured kind, whose search over H is
    not concave, pads the list up to cfg.restarts inputs with standard
    normal rows of length 2 d^2 from the seeded generator, each normalized
    as params_to_pure_vector reads it.  It searches H alone, from
    H = log sigma0 - log sigma1 at each input, read from the spectra of the
    output DensityMatrix pair, each state built and decomposed by the one
    rule every state is (an extra start whose squared norm is off 1 by
    more than STATE_TOL is scaled to its unit vector first; H is
    scale-free, and a start within that keeps its bits); its input is
    psi(H) at the best H, and its parameter row that H's."""
    dim_psi = n0.in_dim**2
    objective = _input_objectives(n0, n1, kind, alpha, flips)
    inputs = [max_entangled_vector(n0.in_dim)] + extra
    if kind != "measured":
        found = multistart_maximize(objective, [[pure_vector_to_params(psi) for psi in inputs]] * len(flips),
                                    cfg.max_iters)
        return [(params_to_pure_vector(theta, dim_psi), theta) for theta, _ in found]
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xC4)))
    inputs += [params_to_pure_vector(rng.standard_normal(2 * dim_psi), dim_psi)
               for _ in range(cfg.restarts - len(inputs))]
    # H starts at the variational program's warm start for each input, read
    # from the spectra of its output states
    inputs = [psi if abs(np.vdot(psi, psi).real - 1.0) <= STATE_TOL else psi / np.linalg.norm(psi) for psi in inputs]
    logs = [[_safe_log_state(DensityMatrix(_apply_to_pure(ch, psi)).spectrum) for ch in (n0, n1)] for psi in inputs]
    searches = [[hermitian_to_params(lg[f] - lg[1 - f]) for lg in logs] for f in flips]
    found = multistart_maximize(objective, searches, cfg.max_iters)
    a0, a1 = (_lifted_kraus(ch, n0.in_dim) for ch in (n0, n1))
    return [(_top_inputs(a0, a1, theta[None], f)[0][0], theta) for (theta, _), f in zip(found, flips)]


def channel_divergence(
    n0: QuantumChannel,
    n1: QuantumChannel,
    kind: str = "relative",
    alpha: float | None = None,
    cfg: OptimizerConfig | None = None,
    l: int = 1,
) -> DivergenceValue:
    """Divergence D(N0||N1) between channels, maximized over pure bipartite
    inputs with the ancilla isomorphic to the input system; at block size
    l > 1, the per-use value D(N0^l||N1^l) / l of the l-fold tensor powers.

    kind "max" is optimization-free and exact: the supremum is attained at
    the maximally entangled input, i.e. on the unit-trace Choi pair, so its
    value is the Choi D_max, which is also its upper end, and its witness is
    that unit input, as for any closed bracket.  An infinite value of any
    kind carries no witness.  The other kinds use L-BFGS on analytic gradients
    and return certified lower bounds with the best input as witness; each
    start stops once a step gains less than 1e-12 max(1, |value|).
    Relative and renyi search unit input vectors from the maximally
    entangled input and cfg.extra_starts alone: their value is concave in
    the input marginal, so that start reaches the optimum.  The measured
    kind, whose search is not concave, also takes seeded random starts up
    to cfg.restarts.  It ascends the variational formula in the observable
    H alone, each H paired with its best input, the top eigenvector of
    sum_k A0_k^dag H A0_k - sum_k A1_k^dag exp(H) A1_k.  Its value is that
    of measured_rel_entropy_states' certifier on the outputs of the input
    at the best H, with the certifier's program started at that H alone
    (module docstring): the witness measurement is the best candidate
    basis (the optimal omega's eigenbasis first), with the outcomes
    negligible under both outputs merged into one effect, and the value is
    the larger of the KL of its outcome laws and the variational value,
    cross-checked against each other; the cross-check's notes are the
    value's warnings.  Relative and renyi certify their best input with
    its Schmidt residue dropped.  A searched input whose outputs the
    state-level support rule reads as unsupported raises OptimizerFailure.
    This is the one-direction case of channel_divergence_pair.

    Every argument is checked first, by the same rule at every l, before
    any tensor power is built or any start is lifted: an unknown kind raises ValueError, a renyi alpha
    outside (1, inf) InvalidAlphaError, and a pair of mismatched dimensions
    DimensionMismatchError.  So does an extra start whose shape is neither
    (d^2,), a vector on R (x) A, nor at l > 1 (d^{2l},), a vector on the
    block system; one without a finite nonzero norm raises ValueError,
    naming its index in cfg.extra_starts.

    The value's upper field is a certified upper end in closed form on the
    Choi pair (D_BS for relative and measured, the geometric Renyi
    divergence for renyi with alpha <= 2, D_max above that and for max).
    Before the search, the value at the maximally entangled input is
    certified on the same cached Choi states (for max it is the upper end
    itself); when it meets the upper end within 1e-12 max(1, upper), that
    input is the witness and no search runs.  A value there above the upper
    end by more than that never skips the search and adds a note to the
    warnings, and so does a searched value above it.

    At l > 1 the searches run on the tensor powers that n0 and n1 cache,
    and the value and its upper end are divided by l; the labels, the
    witness on the block system and the warnings are the block pair's.  An
    extra start of length d^2 (an l = 1 witness, say) is lifted to its
    l-fold product input, so a relative or Renyi per-use value never drops
    below the l = 1 estimate (up to optimizer tolerance); the measured
    kind's search over H only starts there and can end below it.  A start
    on the block system is used as it is, and every start keeps its index
    in the caller's list.
    """
    return _channel_divergences(n0, n1, kind, alpha, cfg, l, pair=False)[0]


def channel_divergence_pair(
    n0: QuantumChannel,
    n1: QuantumChannel,
    kind: str = "relative",
    alpha: float | None = None,
    cfg: OptimizerConfig | None = None,
    l: int = 1,
) -> tuple[DivergenceValue, DivergenceValue]:
    """(D(N0||N1), D(N1||N0)) at block size l, each equal to its
    channel_divergence.  The two input searches share every objective call,
    and so do the two measured certifications."""
    return tuple(_channel_divergences(n0, n1, kind, alpha, cfg, l, pair=True))


def _channel_divergences(n0, n1, kind, alpha, cfg, l: int, pair: bool) -> list[DivergenceValue]:
    """[D(N0||N1)], or with pair [D(N0||N1), D(N1||N0)], each with its
    upper end, per use at block size l.  Every kind brackets each direction
    on the cached Choi pair, with both ends held on the direction's
    numerator channel after their first call (_on_choi_pair): a later call
    on the same channel objects, of any kind that shares them, reads them
    without a decomposition.  The directions whose bracket stays open there
    share one lockstep search, and a searched value above its upper end
    beyond ROUNDING_TOL max(1, upper) gets a note."""
    cfg = cfg or OptimizerConfig()
    if kind not in KINDS:
        raise ValueError(f"unknown divergence kind {kind!r}")
    if kind == "renyi":
        _check_alpha(alpha)
    if (n0.in_dim, n0.out_dim) != (n1.in_dim, n1.out_dim):
        raise DimensionMismatchError("channel pair has mismatched dimensions")
    d = n0.in_dim
    dim_psi = d * d
    extra = [np.asarray(v, dtype=complex) for v in cfg.extra_starts]
    if any(v.shape not in {(dim_psi,), (dim_psi**l,)} for v in extra):
        block = f", on its {l}-fold block {dim_psi**l}" if l > 1 else ""
        raise DimensionMismatchError(
            f"extra starts {[v.shape for v in extra]}: input vectors on R (x) A have length {dim_psi}{block}"
        )
    for i, v in enumerate(extra):
        if not 0.0 < np.linalg.norm(v) < math.inf:
            raise ValueError(f"extra start {i} {v}: an input vector needs a finite nonzero norm")
    if l != 1:
        # each start keeps the caller's index, which the start checks name
        cfg = replace(cfg, extra_starts=[product_input_vector(v, d, l) if v.size == dim_psi else v for v in extra])
        dvs = _channel_divergences(tensor_power_channel(n0, l), tensor_power_channel(n1, l), kind, alpha, cfg, 1, pair)
        return [replace(dv, value=dv.value / l, upper=dv.upper / l) for dv in dvs]
    directions = [(n0, n1), (n1, n0)] if pair else [(n0, n1)]
    out = [_unsupported(a.choi_state(), b.choi_state()) for a, b in directions]
    live = [i for i, dv in enumerate(out) if dv is None]
    if not live:
        return out

    # The bracket of each direction, on the cached Choi pair, the outputs of
    # the maximally entangled unit input: the upper end, and as the lower end
    # the value there as the certification below reads it.  The max kind's
    # value there is its upper end, so its bracket closes by construction.
    # The lower ends are held per Choi pair as the upper ends are: the
    # measured kind's is the relative value there, under the same name.
    key = ("renyi", alpha) if kind == "renyi" else "relative"
    psis, states, values, upper, notes, measured = {}, {}, {}, {}, {}, {}
    for i in live:
        psis[i], states[i], notes[i] = _max_entangled_input(d), tuple(ch.choi_state() for ch in directions[i]), []
        upper[i] = _channel_upper(*directions[i], kind, alpha)
        values[i] = upper[i] if kind == "max" else _on_choi_pair(
            *directions[i], key, lambda: _state_value(kind, alpha, *states[i]))
    closed = [i for i in live if _closes(values[i], upper[i], notes[i])]
    if kind == "measured" and closed:
        # D_M <= D: only a closed relative bracket can close the measured one,
        # and its relative value is the certifier's upper end
        measured = dict(zip(closed, _measured_values([states[i] for i in closed], cfg, [values[i] for i in closed])))
        closed = [i for i in closed if _closes(measured[i].value, upper[i], notes[i])]
        values.update((i, measured[i].value) for i in closed)
    for i in closed:
        _log_closed("input search", values[i], upper[i])
    searched = [i for i in live if i not in closed]
    found = _input_search(n0, n1, kind, alpha, cfg, extra, [i == 1 for i in searched]) if searched else []
    for i, (psi, _) in zip(searched, found):
        psis[i] = psi if kind == "measured" else _drop_schmidt_residue(psi, d)
        states[i] = tuple(DensityMatrix(_apply_to_pure(ch, psis[i])) for ch in directions[i])
        values[i] = _state_value(kind, alpha, *states[i])
        if math.isinf(values[i]):
            raise OptimizerFailure(
                f"{kind} D(N{i}||N{1 - i}): the state-level support rule reads the searched input's outputs as "
                "unsupported, though the Choi states pass it"
            )
    if kind == "measured" and searched:
        # the relative values are the certifier's upper ends, and each of its
        # programs runs one start, the search's winning H (module docstring)
        measured.update(zip(searched, _measured_values([states[i] for i in searched], cfg,
                                                       [values[i] for i in searched], [[h] for _, h in found])))

    for i in live:
        witness = ChannelWitness(input_vector=psis[i])
        if kind == "measured":
            values[i], witness.povm = measured[i].value, measured[i].witness.povm
            notes[i] += measured[i].warnings
        # a closed direction meets its upper end, so only searched ones can note
        _closes(values[i], upper[i], notes[i], at="the searched input")
        out[i] = DivergenceValue(float(max(values[i], 0.0)), is_lower_bound=kind != "max", witness=witness,
                                 warnings=notes[i], upper=upper[i])
    return out


def product_input_vector(psi: np.ndarray, d: int, l: int) -> np.ndarray:
    """l-fold product of a bipartite input vector on R (x) A, reordered to
    live on R^l (x) A^l as the block channel expects."""
    vec = psi.copy()
    for _ in range(l - 1):
        vec = np.kron(vec, psi)
    d_r = psi.size // d
    t = vec.reshape([d_r, d] * l)
    order = [2 * i for i in range(l)] + [2 * i + 1 for i in range(l)]
    return t.transpose(order).reshape(-1)
