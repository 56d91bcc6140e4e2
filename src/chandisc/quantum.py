"""States, channels and measurements for finite-dimensional systems.

Channels are stored as Kraus operator lists.  Every application of
id_R (x) N goes through one map: the stacked operators A_k = I_R (x) K_k
built by _lifted_kraus, applied as sum_k A_k rho A_k^dag (by _output on pure
inputs, one vector or a stack).  The stack is built once per ancilla
dimension and cached, read-only, on the channel.  The cached unit-trace Choi
state is that map's output on the maximally entangled input:
J = (id (x) N)(|w><w|) with |w> = w / |w| for w = max_entangled_vector(d),
so J is itself a density matrix.  _max_entangled_input is that unit vector,
the one input at which the library reads a channel's closed forms: the Choi
states, and with them every divergence bracket's lower end and the witness
of a direction whose bracket closes.  Each channel also keeps, per partner
channel, the closed forms the divergences module reads on their Choi pair
(QuantumChannel._pairs), so each is computed once.  _basis_laws gives the
outcome laws of every rank-one PVM.  A POVM whose effects are projectors is
proved positive by its idempotence residual, so its validation takes no
eigendecomposition.
Every constructor check is written so that a NaN fails it, and a state, a
channel or a POVM with a non-finite entry is rejected.  States, channels
and POVMs hold arrays, so they compare by identity and are hashable, as
are the divergences module's witnesses and the strategies module's arms
and tables: == on two equal arrays has no single truth value.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    DimensionOverflowError,
    InvalidStateError,
    NormalizationError,
)
from .linalg import PSD_TOL, frob, frobs

STATE_TOL = 1e-9
CHANNEL_TOL = 1e-8
POVM_TOL = 1e-8

# Hard cap on either dimension of a tensor-power channel.
DIM_CAP = 4096


@dataclass(eq=False)
class DensityMatrix:
    """Hermitian PSD unit-trace matrix; validated on construction, where a
    NaN or infinite entry fails the Hermiticity check.  mat is
    stored exactly Hermitian, the mean of the matrix given and its adjoint,
    and spectrum is its one eigendecomposition, numpy's eigh of mat, which
    validation and readers use."""

    mat: np.ndarray
    label: str | None = None
    dim: int = field(init=False)
    spectrum: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        m = linalg.check_square(np.asarray(self.mat, dtype=complex))
        if not frob(m - m.conj().T) <= STATE_TOL * max(1.0, frob(m)) < math.inf:
            raise InvalidStateError("state is not Hermitian within tolerance, or not finite")
        self.mat = 0.5 * (m + m.conj().T)
        self.spectrum = np.linalg.eigh(self.mat)
        w = self.spectrum[0]
        if not w[0] >= -PSD_TOL:
            raise InvalidStateError(f"state has negative eigenvalue {w[0]:.3e}")
        tr = float(np.trace(m).real)
        if not abs(tr - 1.0) <= STATE_TOL * 10:
            raise InvalidStateError(f"state trace {tr} differs from 1")
        self.dim = m.shape[0]


def pure_state(vec: np.ndarray, label: str | None = None) -> DensityMatrix:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()), label=label)


def max_entangled_vector(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)


def _max_entangled_input(d: int) -> np.ndarray:
    """w / |w| for w = max_entangled_vector(d): the unit input of
    choi_state(), which the divergence brackets read too."""
    w = max_entangled_vector(d)
    return w / np.linalg.norm(w)


def max_entangled_state(d: int) -> DensityMatrix:
    return pure_state(max_entangled_vector(d), label=f"max-entangled({d})")


@dataclass(eq=False)
class QuantumChannel:
    """CPTP map held as a Kraus list; its Choi state, the tensor powers
    that tensor_power_channel builds and the lifted Kraus stacks of
    _lifted_kraus, cached lazily.  _pairs holds the closed forms that the
    divergences module computes on the Choi pair (this channel, partner):
    it maps the partner, held weakly, to a dict from a name to a value of
    the two Choi states alone, so an entry lives as long as its partner
    does.  A pickled or copied channel leaves those entries behind, since
    a weak mapping does not pickle."""

    kraus: list[np.ndarray]
    label: str | None = None
    in_dim: int = field(init=False)
    out_dim: int = field(init=False)
    _choi_state: DensityMatrix | None = field(init=False, default=None, repr=False)
    _powers: dict[int, QuantumChannel] = field(init=False, default_factory=dict, repr=False)
    _lifted: dict[int, np.ndarray] = field(init=False, default_factory=dict, repr=False)
    _pairs: weakref.WeakKeyDictionary = field(init=False, default_factory=weakref.WeakKeyDictionary, repr=False)

    def __post_init__(self):
        self.kraus = [np.asarray(k, dtype=complex) for k in self.kraus]
        if not self.kraus:
            raise InvalidStateError("channel needs at least one Kraus operator")
        out_dim, in_dim = self.kraus[0].shape
        if not (out_dim and in_dim):
            raise InvalidStateError(f"channel needs nonzero dimensions, got out {out_dim}, in {in_dim}")
        for k in self.kraus:
            if k.shape != (out_dim, in_dim):
                raise DimensionMismatchError("Kraus operators have mixed shapes")
        acc = sum(k.conj().T @ k for k in self.kraus)
        # a non-finite Kraus entry makes the residual inf or NaN, which fails
        if not frob(acc - np.eye(in_dim)) <= CHANNEL_TOL * in_dim:
            raise InvalidStateError(
                f"sum K^dag K deviates from identity by {frob(acc - np.eye(in_dim)):.3e}"
            )
        self.in_dim = in_dim
        self.out_dim = out_dim

    def __getstate__(self):
        return {**self.__dict__, "_pairs": None}

    def __setstate__(self, state):
        self.__dict__.update(state, _pairs=weakref.WeakKeyDictionary())

    @property
    def choi(self) -> np.ndarray:
        """The Hermitian matrix of choi_state()."""
        return self.choi_state().mat

    def choi_state(self) -> DensityMatrix:
        """Unit-trace Choi state J = (id (x) ch)(|w><w|) at the unit input
        |w> of _max_entangled_input, built once and cached: the state pair
        of every divergence bracket."""
        if self._choi_state is None:
            j = _apply_to_pure(self, _max_entangled_input(self.in_dim))
            self._choi_state = DensityMatrix(j, label=f"choi({self.label})")
        return self._choi_state


@dataclass(eq=False)
class Povm:
    """Finite family of PSD effects summing to the identity.

    Validation works on the effects as one stack (n, d, d): one Frobenius
    norm per effect for Hermiticity, and one idempotence residual
    ||E^2 - E||_F per effect of the symmetrized stack.  is_pvm holds when
    every residual is at most 1e-8 d.  When every residual is at most 1e-8,
    the residual also proves positivity: it bounds |lambda^2 - lambda| for
    every eigenvalue lambda, and |lambda^2 - lambda| >= |lambda| when
    lambda < 0, so no eigenvalue lies below -1e-8.  Only other POVMs run
    the stacked eigvalsh for positivity.  The effects stay a list."""

    effects: list[np.ndarray]
    label: str | None = None
    dim: int = field(init=False)
    is_pvm: bool = field(init=False)

    def __post_init__(self):
        self.effects = [np.asarray(e, dtype=complex) for e in self.effects]
        if not self.effects:
            raise InvalidStateError("POVM needs at least one effect")
        dim = self.effects[0].shape[0]
        if any(e.shape != (dim, dim) for e in self.effects):
            raise DimensionMismatchError("POVM effects have mixed shapes")
        e = np.stack(self.effects)
        eh = np.swapaxes(e.conj(), 1, 2)
        if not (frobs(e - eh) <= POVM_TOL * np.maximum(1.0, frobs(e))).all():
            raise InvalidStateError("POVM effect is not Hermitian")
        # a non-finite entry fails this check if it passed the one above
        if not frob(e.sum(axis=0) - np.eye(dim)) <= POVM_TOL * dim:
            raise InvalidStateError("POVM effects do not sum to identity")
        h = 0.5 * (e + eh)
        residual = frobs(h @ h - h).max()
        if not residual <= 1e-8:
            w = np.linalg.eigvalsh(h).min()
            if not w >= -1e-8:
                raise InvalidStateError(f"POVM effect has eigenvalue {w:.3e}")
        self.dim = dim
        self.is_pvm = bool(residual <= 1e-8 * dim)


def basis_pvm(basis: np.ndarray, label: str | None = None) -> Povm:
    """Rank-one PVM from the columns of a unitary."""
    return Povm([np.outer(c, c.conj()) for c in basis.T], label=label)


def _lifted_kraus(ch: QuantumChannel, d_r: int) -> np.ndarray:
    """The operators A_k = I_R (x) K_k with |R| = d_r, stacked along the
    first axis; built once per d_r, cached on ch and read-only."""
    if d_r not in ch._lifted:
        a = np.einsum("rs,koi->krosi", np.eye(d_r), np.asarray(ch.kraus))
        a = a.reshape(len(ch.kraus), d_r * ch.out_dim, d_r * ch.in_dim)
        a.flags.writeable = False
        ch._lifted[d_r] = a
    return ch._lifted[d_r]


def _channel_sum(ch, state, ancilla_dim):
    """sum_k A_k state A_k^dag for a state on R (x) A with |R| =
    ancilla_dim, as a plain matrix."""
    if state.dim != ancilla_dim * ch.in_dim:
        raise DimensionMismatchError(
            f"state dim {state.dim} != ancilla {ancilla_dim} * channel input {ch.in_dim}"
        )
    a = _lifted_kraus(ch, ancilla_dim)
    return (a @ state.mat @ a.conj().transpose(0, 2, 1)).sum(axis=0)


def apply_channel(ch: QuantumChannel, state: DensityMatrix, ancilla_dim: int = 1) -> DensityMatrix:
    """(id_R (x) ch)(state) = sum_k A_k state A_k^dag for a state on R (x) A
    with |R| = ancilla_dim."""
    return DensityMatrix(_channel_sum(ch, state, ancilla_dim))


def _output(a: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma = sum_k A_k |psi><psi| A_k^dag, and the rows V_k = A_k psi, for
    one input vector psi or a stack (B, n) of them."""
    v = (a @ psi[..., None, :, None])[..., 0]
    return np.swapaxes(v, -1, -2) @ v.conj(), v


def _apply_to_pure(ch: QuantumChannel, psi: np.ndarray) -> np.ndarray:
    """(id_R (x) ch)(|psi><psi|) for psi (or a stack of them) on R (x) A."""
    return _output(_lifted_kraus(ch, psi.shape[-1] // ch.in_dim), psi)[0]


def _basis_laws(basis: np.ndarray, rho0: np.ndarray, rho1: np.ndarray):
    """Normalized outcome laws of the rank-one PVMs on the columns of basis
    (..., d, d) in rho0 and in rho1."""
    bh, bt = np.swapaxes(basis.conj(), -1, -2), np.swapaxes(basis, -1, -2)
    p, q = (np.maximum(np.real(np.sum((bh @ rho) * bt, axis=-1)), 0.0) for rho in (rho0, rho1))
    p_total, q_total = (np.maximum(x.sum(axis=-1, keepdims=True), 1e-300) for x in (p, q))
    return p / p_total, q / q_total


def tensor_power_channel(ch: QuantumChannel, l: int) -> QuantumChannel:
    """l-fold tensor power; Kraus set is all l-fold products, in the order
    and with the bits of the Kronecker products kron(...kron(kron(1, K_a),
    K_b)..., K_z), the first factor's index running slowest: each step is
    one broadcast multiply of the stack so far with the stacked K_k, which
    makes np.kron's products, reshaped.

    The power is built once and cached on ch, as its Choi state is, so every
    caller gets the same block channel, with its own Choi state cached; l = 1
    is ch itself.  A power with either dimension above DIM_CAP raises
    DimensionOverflowError before any product is built: this is the
    library's one dimension cap, and every partial product is at most
    out_dim^l x in_dim^l."""
    if l < 1:
        raise ValueError("l must be >= 1")
    if ch.in_dim**l > DIM_CAP or ch.out_dim**l > DIM_CAP:
        raise DimensionOverflowError(f"tensor power {l} exceeds dimension cap")
    if l == 1:
        return ch
    if l not in ch._powers:
        k = np.asarray(ch.kraus)
        kraus = np.ones((1, 1, 1), dtype=complex)
        for _ in range(l):
            n, o, i = kraus.shape
            kraus = (kraus[:, None, :, None, :, None] * k[None, :, None, :, None, :]).reshape(
                n * len(k), o * ch.out_dim, i * ch.in_dim)
        ch._powers[l] = QuantumChannel(list(kraus), label=f"{ch.label}^(x){l}" if ch.label else None)
    return ch._powers[l]


def outcome_distribution(
    ch: QuantumChannel, state: DensityMatrix, ancilla_dim: int, m: Povm
) -> np.ndarray:
    """Probability vector p_y = Tr[(id (x) ch)(state) m_y], from the
    unvalidated channel sum and one stacked trace over the effects."""
    if m.dim != ancilla_dim * ch.out_dim:
        raise DimensionMismatchError(
            f"POVM dim {m.dim} != ancilla {ancilla_dim} * channel output {ch.out_dim}"
        )
    p = np.clip(np.einsum("ij,yji->y", _channel_sum(ch, state, ancilla_dim), np.asarray(m.effects)).real, 0.0, 1.0)
    s = p.sum()
    if abs(s - 1.0) > 1e-8:
        raise NormalizationError(f"outcome probabilities sum to {s}")
    return p / s


# ---------------------------------------------------------------------------
# Channel zoo
# ---------------------------------------------------------------------------

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def identity_channel(d: int = 2) -> QuantumChannel:
    return QuantumChannel([np.eye(d, dtype=complex)], label=f"identity({d})")


def depolarizing_channel(p: float) -> QuantumChannel:
    """Qubit depolarizing: rho -> (1-p) rho + p I/2."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    kraus = [math.sqrt(1 - 3 * p / 4) * _PAULI["I"]]
    kraus += [math.sqrt(p / 4) * _PAULI[s] for s in ("X", "Y", "Z")]
    return QuantumChannel([k for k in kraus if frob(k) > 0], label=f"depolarizing({p})")


def amplitude_damping_channel(gamma: float) -> QuantumChannel:
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return QuantumChannel([k0, k1], label=f"amplitude-damping({gamma})")


def dephasing_channel(p: float) -> QuantumChannel:
    """Qubit phase flip with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    kraus = [math.sqrt(1 - p) * _PAULI["I"], math.sqrt(p) * _PAULI["Z"]]
    return QuantumChannel([k for k in kraus if frob(k) > 0], label=f"dephasing({p})")


def replacer_channel(sigma: DensityMatrix, in_dim: int | None = None) -> QuantumChannel:
    """rho -> Tr(rho) sigma; reduces channel discrimination to states."""
    if in_dim is None:
        in_dim = sigma.dim
    w, v = sigma.spectrum
    kraus = []
    for i, lam in enumerate(w):
        if lam <= PSD_TOL:
            continue
        for j in range(in_dim):
            k = math.sqrt(lam) * np.outer(v[:, i], np.eye(in_dim)[j])
            kraus.append(k)
    return QuantumChannel(kraus, label=f"replacer({sigma.label})")


def classical_channel(stochastic: np.ndarray) -> QuantumChannel:
    """Embed a column-stochastic matrix W[y, x] as a quantum channel.

    Diagonal inputs map to diagonal outputs with the classical transition law.
    """
    w = np.asarray(stochastic, dtype=float)
    ny, nx = w.shape
    if np.any(w < 0) or frob(w.sum(axis=0) - np.ones(nx)) > 1e-10:
        raise ValueError("matrix must be column-stochastic")
    kraus = []
    for y in range(ny):
        for x in range(nx):
            if w[y, x] > 0:
                k = np.zeros((ny, nx), dtype=complex)
                k[y, x] = math.sqrt(w[y, x])
                kraus.append(k)
    return QuantumChannel(kraus, label="classical")


def bernoulli_replacer(q: float) -> QuantumChannel:
    """Replacer channel whose fixed output is diag(q, 1-q)."""
    sigma = DensityMatrix(np.diag([q, 1 - q]).astype(complex), label=f"bern({q})")
    return replacer_channel(sigma)


# ---------------------------------------------------------------------------
# Random objects
# ---------------------------------------------------------------------------


def _ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_density_matrix(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    g = _ginibre(dim, rank or dim, rng)
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def _haar_unitaries(g: np.ndarray) -> np.ndarray:
    """Haar-random unitaries from Ginibre matrices g (..., d, d): the Q of
    each QR decomposition, its columns rephased by the diagonal of R."""
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    return _haar_unitaries(_ginibre(dim, dim, rng))


def random_channel(
    in_dim: int,
    out_dim: int | None = None,
    env_dim: int | None = None,
    rng: np.random.Generator | None = None,
) -> QuantumChannel:
    """Haar-random isometry into out (x) env, environment traced out.

    With env_dim >= in_dim * out_dim the Choi state is full rank almost
    surely, which is the default.
    """
    if rng is None:
        rng = np.random.default_rng()
    out_dim = out_dim or in_dim
    env_dim = env_dim or in_dim * out_dim
    iso, _ = np.linalg.qr(_ginibre(out_dim * env_dim, in_dim, rng))
    # Kraus operators K_e = (I (x) <e|) V with V viewed on out (x) env
    kraus = [iso.reshape(out_dim, env_dim, in_dim)[:, e, :] for e in range(env_dim)]
    return QuantumChannel([k for k in kraus if frob(k) > 1e-14], label="random")
