import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chandisc import quantum
from chandisc.errors import DimensionMismatchError, DimensionOverflowError, InvalidStateError, NormalizationError
from chandisc.linalg import frob
from chandisc.quantum import (
    DensityMatrix,
    Povm,
    QuantumChannel,
    amplitude_damping_channel,
    apply_channel,
    basis_pvm,
    bernoulli_replacer,
    classical_channel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    max_entangled_state,
    max_entangled_vector,
    outcome_distribution,
    pure_state,
    random_channel,
    random_density_matrix,
    random_unitary,
    replacer_channel,
    tensor_power_channel,
)


def test_density_matrix_validation():
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue
    with pytest.raises(InvalidStateError, match="not Hermitian"):
        DensityMatrix([[0.5, 0.1], [0.0, 0.5]])
    s = DensityMatrix(np.diag([0.25, 0.75]))
    assert s.dim == 2


@given(
    dim=st.integers(1, 16),
    rank_cut=st.integers(0, 15),
    seed=st.integers(0, 2**32 - 1),
)
def test_stored_spectrum_is_the_eigendecomposition(dim, rank_cut, seed):
    """A state's one decomposition equals eigh of its matrix bit for bit,
    full rank or not, so every reader gets the floats it would compute
    itself."""
    rank = max(1, dim - rank_cut)
    s = random_density_matrix(dim, np.random.default_rng(seed), rank=rank)
    w, v = s.spectrum
    w_ref, v_ref = np.linalg.eigh(s.mat)
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)


def test_channel_validation_and_choi():
    ch = depolarizing_channel(0.5)
    total = sum(k.conj().T @ k for k in ch.kraus)
    assert np.allclose(total, np.eye(2), atol=1e-12)
    choi = ch.choi
    assert abs(np.trace(choi) - 1.0) < 1e-12
    w = np.linalg.eigvalsh(choi)
    assert w.min() > -1e-12
    with pytest.raises(InvalidStateError):
        QuantumChannel([np.eye(2), np.eye(2)])  # sum K†K = 2I
    for shape in ((0, 0), (0, 2), (2, 0)):
        with pytest.raises(InvalidStateError, match="nonzero dimensions"):
            QuantumChannel([np.zeros(shape)])
    with pytest.raises(InvalidStateError, match="at least one Kraus operator"):
        QuantumChannel([])
    with pytest.raises(DimensionMismatchError, match="mixed shapes"):
        QuantumChannel([np.eye(2) / np.sqrt(2), np.ones((3, 2)) / np.sqrt(6)])


def test_zoo_rejects_parameters_outside_the_unit_interval():
    for make in (depolarizing_channel, amplitude_damping_channel, dephasing_channel):
        for p in (-0.1, 1.1):
            with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
                make(p)
    # a column summing to 1.1, and a column with a negative entry
    for w in ([[0.5, 0.5], [0.6, 0.5]], [[1.2, 0.0], [-0.2, 1.0]]):
        with pytest.raises(ValueError, match="column-stochastic"):
            classical_channel(np.array(w))


def test_identity_choi_is_max_entangled():
    ch = identity_channel(2)
    assert np.allclose(ch.choi, max_entangled_state(2).mat, atol=1e-12)


def test_depolarizing_action():
    ch = depolarizing_channel(0.3)
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    out = apply_channel(ch, rho)
    expect = 0.7 * rho.mat + 0.3 * np.eye(2) / 2
    assert np.allclose(out.mat, expect, atol=1e-12)


def test_replacer_ignores_input():
    sigma = DensityMatrix(np.diag([0.2, 0.8]))
    ch = replacer_channel(sigma)
    rng = np.random.default_rng(5)
    for _ in range(5):
        rho = random_density_matrix(2, rng)
        assert np.allclose(apply_channel(ch, rho).mat, sigma.mat, atol=1e-12)


def test_classical_channel_matches_stochastic_matrix():
    w = np.array([[0.9, 0.3], [0.1, 0.7]])  # column-stochastic W[y, x]
    ch = classical_channel(w)
    for x in range(2):
        e = np.zeros((2, 2))
        e[x, x] = 1.0
        out = apply_channel(ch, DensityMatrix(e)).mat
        assert np.allclose(np.diagonal(out).real, w[:, x], atol=1e-12)
        assert np.allclose(out, np.diag(np.diagonal(out)), atol=1e-12)


def test_bernoulli_replacer_distribution():
    ch = bernoulli_replacer(0.2)
    rho = random_density_matrix(2, np.random.default_rng(0))
    out = apply_channel(ch, rho).mat
    assert np.allclose(out, np.diag([0.2, 0.8]), atol=1e-12)


def test_apply_channel_with_ancilla():
    # (id_R ⊗ N)(Φ+) is the Choi state
    ch = depolarizing_channel(0.4)
    out = apply_channel(ch, max_entangled_state(2), ancilla_dim=2)
    assert np.allclose(out.mat, ch.choi, atol=1e-12)


@pytest.mark.parametrize("ancilla_dim", [1, 2, 3])
def test_apply_channel_matches_kron_loop(ancilla_dim):
    # reference: sum_k (I (x) K_k) rho (I (x) K_k)^dag, one kron per Kraus operator
    rng = np.random.default_rng(11)
    ch = random_channel(2, 3, 2, rng)
    rho = random_density_matrix(ancilla_dim * 2, rng)
    eye = np.eye(ancilla_dim)
    ref = sum((a := np.kron(eye, k)) @ rho.mat @ a.conj().T for k in ch.kraus)
    out = apply_channel(ch, rho, ancilla_dim).mat
    assert out.shape == (ancilla_dim * 3, ancilla_dim * 3)
    assert np.max(np.abs(out - ref)) <= 1e-14


def test_choi_matches_kraus_outer_products():
    # 16 Kraus operators; (I (x) K)|w> has entry K[b, a] / sqrt(d) at (a, b)
    ch = tensor_power_channel(depolarizing_channel(0.3), 2)
    assert len(ch.kraus) == 16
    d = ch.in_dim
    ref = np.zeros((d * ch.out_dim, d * ch.out_dim), dtype=complex)
    for k in ch.kraus:
        vec = (k.T / np.sqrt(d)).reshape(-1)
        ref += np.outer(vec, vec.conj())
    assert np.max(np.abs(ch.choi - ref)) <= 1e-14


def test_tensor_power_channel():
    ch = depolarizing_channel(0.5)
    ch2 = tensor_power_channel(ch, 2)
    assert ch2.in_dim == 4 and ch2.out_dim == 4
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    single = apply_channel(ch, rho).mat
    joint = apply_channel(ch2, DensityMatrix(np.kron(rho.mat, rho.mat))).mat
    assert np.allclose(joint, np.kron(single, single), atol=1e-12)


def test_tensor_power_checks_its_order_and_the_cap_first():
    """l < 1 raises; a qubit power past DIM_CAP (2^13 = 8192 > 4096) raises
    before any Kraus product is built."""
    ch = depolarizing_channel(0.3)
    with pytest.raises(ValueError, match="l must be >= 1"):
        tensor_power_channel(ch, 0)
    with pytest.raises(DimensionOverflowError, match="tensor power 13 exceeds dimension cap"):
        tensor_power_channel(ch, 13)
    assert not ch._powers


def test_tensor_powers_are_cached_on_the_channel():
    """Each power is built once and cached on its channel, so every caller
    gets the same block channel with the same cached Choi state; l = 1 is
    the channel itself, and another channel builds its own powers."""
    ch = depolarizing_channel(0.5)
    assert tensor_power_channel(ch, 1) is ch
    ch2 = tensor_power_channel(ch, 2)
    assert tensor_power_channel(ch, 2) is ch2 and tensor_power_channel(ch, 3) is tensor_power_channel(ch, 3)
    assert tensor_power_channel(ch, 2).choi_state() is ch2.choi_state()
    other = depolarizing_channel(0.5)
    assert tensor_power_channel(other, 2) is not ch2
    assert all(np.array_equal(a, b) for a, b in zip(tensor_power_channel(other, 2).kraus, ch2.kraus))


def test_povm_validation_and_pvm_flag():
    m = basis_pvm(np.eye(2))
    assert m.is_pvm
    assert len(m.effects) == 2
    smeared = Povm([0.5 * np.eye(2), 0.5 * np.eye(2)])
    assert not smeared.is_pvm
    with pytest.raises(InvalidStateError):
        Povm([np.eye(2), 0.5 * np.eye(2)])
    with pytest.raises(InvalidStateError):
        Povm([])


def _faulty_effects(fault: str, where: int) -> list[np.ndarray]:
    """A rank-one PVM on C^4 with at most one fault, at effect where: a wrong
    shape, an anti-Hermitian part (added there and taken from the next
    effect, so the sum stays the identity), a negative eigenvalue (a tenth
    of the next projector moved there) or a halved effect, whose sum misses
    the identity."""
    effects = list(basis_pvm(random_unitary(4, np.random.default_rng(7))).effects)
    nxt = (where + 1) % 4
    if fault == "shape":
        effects[where] = np.eye(3)
    elif fault == "hermitian":
        b = np.random.default_rng(8).standard_normal((4, 4))
        effects[where] = effects[where] + 1e-3 * (b - b.T)
        effects[nxt] = effects[nxt] - 1e-3 * (b - b.T)
    elif fault == "eigenvalue":
        effects[where] = effects[where] - 0.1 * effects[nxt]
        effects[nxt] = 1.1 * effects[nxt]
    elif fault == "sum":
        effects[where] = 0.5 * effects[where]
    return effects


@pytest.mark.parametrize("where", [0, 2, 3])
@pytest.mark.parametrize(
    "fault, error, message",
    [
        ("shape", DimensionMismatchError, "mixed shapes"),
        ("hermitian", InvalidStateError, "not Hermitian"),
        ("eigenvalue", InvalidStateError, "eigenvalue -1.000e-01"),
        ("sum", InvalidStateError, "do not sum to identity"),
    ],
)
def test_povm_validation_raises_each_error_on_a_single_fault(fault, error, message, where):
    """The stacked validation finds a single fault wherever it sits."""
    assert Povm(_faulty_effects("none", where)).is_pvm
    with pytest.raises(error, match=message):
        Povm(_faulty_effects(fault, where))


def test_is_pvm_agrees_with_the_per_effect_rule():
    """is_pvm holds exactly when every effect E has ||E^2 - E||_F <= 1e-8 d,
    on zoo POVMs and on the witness POVMs of measured values."""
    from chandisc.divergences import channel_divergence, measured_rel_entropy_states
    from chandisc.optimize import OptimizerConfig

    rng = np.random.default_rng(3)
    cfg = OptimizerConfig(restarts=2, max_iters=60)
    trine = [2 / 3 * np.outer(v, v) for v in ([1, 0], [-0.5, 3**0.5 / 2], [-0.5, -(3**0.5) / 2])]
    povms = [basis_pvm(np.eye(2)), basis_pvm(random_unitary(4, rng)), basis_pvm(random_unitary(16, rng)),
             Povm([0.5 * np.eye(2), 0.5 * np.eye(2)]), Povm(trine), Povm([np.eye(3)]),
             Povm([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])])]
    pairs = [(depolarizing_channel(0.3), depolarizing_channel(0.7)),
             (random_channel(2, 2, 4, rng), random_channel(2, 2, 4, rng))]
    for n0, n1 in pairs:
        for l in (1, 2):
            b0, b1 = tensor_power_channel(n0, l), tensor_power_channel(n1, l)
            povms.append(channel_divergence(b0, b1, kind="measured", cfg=cfg).witness.povm)
    state_pairs = [(random_density_matrix(3, rng), random_density_matrix(3, rng)),
                   (DensityMatrix(np.diag([0.5, 0.5, 0.0])), DensityMatrix(np.diag([0.2, 0.8, 0.0])))]
    povms += [measured_rel_entropy_states(rho0, rho1, cfg).witness.povm for rho0, rho1 in state_pairs]
    flags = [m.is_pvm for m in povms]
    assert flags == [all(frob(e @ e - e) <= 1e-8 * m.dim for e in m.effects) for m in povms]
    assert any(flags) and not all(flags)


def test_projective_povms_are_proved_positive_by_their_idempotence_residual(eig_calls):
    """An effect with ||E^2 - E||_F <= 1e-8 has no eigenvalue below -1e-8,
    since |l^2 - l| >= |l| for l < 0, so a POVM whose every residual is that
    small validates without eigvalsh, even with an eigenvalue of -5e-9.
    Every other POVM runs the stacked eigvalsh: an effect that is not
    idempotent with an eigenvalue of -2e-8 still raises, a trine is no PVM,
    and a PVM with a residual above 1e-8 but within 1e-8 d is checked too."""
    rng = np.random.default_rng(11)
    assert basis_pvm(random_unitary(16, rng)).is_pvm and eig_calls == []
    assert Povm([np.diag([1.0, -5e-9]), np.diag([0.0, 1.0 + 5e-9])]).is_pvm and eig_calls == []
    with pytest.raises(InvalidStateError, match="eigenvalue -2.000e-08"):
        Povm([np.diag([0.5, -2e-8]), np.diag([0.5, 1.0 + 2e-8])])
    assert eig_calls == ["eigvalsh"]
    trine = [2 / 3 * np.outer(v, v) for v in ([1, 0], [-0.5, 3**0.5 / 2], [-0.5, -(3**0.5) / 2])]
    assert not Povm(trine).is_pvm and eig_calls == ["eigvalsh"] * 2
    assert Povm([np.diag([1.0, 1.5e-8]), np.diag([0.0, 1.0 - 1.5e-8])]).is_pvm and eig_calls == ["eigvalsh"] * 3


def test_lifted_kraus_stacks_are_cached_read_only():
    """Each ancilla dimension's stack A_k = I_R (x) K_k is built once and
    cached on its channel: repeat calls return the same array, which no
    caller can write, and it holds the Kronecker products."""
    ch = amplitude_damping_channel(0.3)
    a = quantum._lifted_kraus(ch, 2)
    assert quantum._lifted_kraus(ch, 2) is a and not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        a[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        a *= 2.0
    b = quantum._lifted_kraus(ch, 3)
    assert b is not a and quantum._lifted_kraus(ch, 3) is b
    for lifted, d_r in ((a, 2), (b, 3)):
        assert np.array_equal(lifted, np.stack([np.kron(np.eye(d_r), k) for k in ch.kraus]))


def test_outcome_distribution_normalizes():
    ch = identity_channel(2)
    rho = pure_state(np.array([1.0, 0.0]))
    m = basis_pvm(np.eye(2))
    p = outcome_distribution(ch, rho, 1, m)
    assert abs(p.sum() - 1.0) < 1e-15
    assert np.allclose(p, [1.0, 0.0], atol=1e-12)
    with pytest.raises(DimensionMismatchError, match="POVM dim 2 != ancilla 2"):
        outcome_distribution(ch, rho, 2, m)
    with pytest.raises(DimensionMismatchError, match="state dim 4 != ancilla 1"):
        outcome_distribution(ch, pure_state(np.ones(4)), 1, m)
    # sum K^dag K = (1 + 1.4e-8) I passes the channel check (1.98e-8 <= 2e-8),
    # but the outcome law then sums to 1 + 1.4e-8, past its 1e-8 tolerance
    scaled = QuantumChannel([np.sqrt(1 + 1.4e-8) * np.eye(2)])
    with pytest.raises(NormalizationError, match="sum to 1.0000000139999996"):
        outcome_distribution(scaled, pure_state(np.ones(2)), 1, m)


def test_pure_input_map_and_basis_laws_on_a_stack():
    """The stacked pure-input map equals the map on each input bit for bit,
    and the basis-law kernel agrees with outcome_distribution to rounding."""
    rng = np.random.default_rng(11)
    ch = random_channel(2, 3, 4, rng)
    psis = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    bases = np.array([random_unitary(6, rng) for _ in psis])
    outs = quantum._apply_to_pure(ch, psis)
    assert outs.shape == (5, 6, 6)
    for psi, out in zip(psis, outs):
        assert np.array_equal(out, quantum._apply_to_pure(ch, psi))
    p, q = quantum._basis_laws(bases, outs, outs[::-1])
    for i, (psi, basis) in enumerate(zip(psis, bases)):
        want = outcome_distribution(ch, pure_state(psi), 2, basis_pvm(basis))
        assert np.max(np.abs(p[i] - want)) <= 1e-15
        want_q = outcome_distribution(ch, pure_state(psis[4 - i]), 2, basis_pvm(basis))
        assert np.max(np.abs(q[i] - want_q)) <= 1e-15


def test_random_channel_is_cptp():
    rng = np.random.default_rng(9)
    for _ in range(5):
        ch = random_channel(2, 3, 4, rng)
        total = sum(k.conj().T @ k for k in ch.kraus)
        assert np.allclose(total, np.eye(2), atol=1e-10)
        w = np.linalg.eigvalsh(ch.choi)
        assert w.min() > -1e-10


def test_random_generators_are_seeded():
    a = pure_state(quantum._ginibre(4, 1, np.random.default_rng(7)).reshape(-1))
    b = pure_state(quantum._ginibre(4, 1, np.random.default_rng(7)).reshape(-1))
    assert np.allclose(a.mat, b.mat)


def test_max_entangled_vector_normalized():
    v = max_entangled_vector(3)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-14


def test_random_channel_without_a_generator_is_a_channel():
    ch = random_channel(2)
    assert (ch.in_dim, ch.out_dim) == (2, 2)
    assert np.allclose(sum(k.conj().T @ k for k in ch.kraus), np.eye(2), atol=1e-10)
    assert np.linalg.eigvalsh(ch.choi).min() > -1e-10
