"""Propagated-amplitude oracle: conservation laws and closed-form twins."""

import math
import tracemalloc

import numpy as np
import pytest

from cavqmem import statesim
from cavqmem.errors import InvalidField, ZeroProbability
from cavqmem.metrics import (
    qm_fidelity,
    qm_success,
    retrieval_success,
    storage_retrieval_fidelity,
    storage_success,
    swap_fidelity,
    swap_target_atom,
    swap_target_photon,
    transfer_fidelity,
)
from cavqmem.params import (
    AtomQubit,
    DetectorModel,
    PhotonQubit,
    Profile,
    PulseSpec,
    SystemParams,
    as_detector,
)
from cavqmem.scattering import t_elements
from cavqmem.spectral import DEFAULT_QUAD, QuadratureConfig, build_grid, spectral_average
from cavqmem.statesim import (
    ATOM_L,
    ATOM_R,
    POL_L,
    POL_R,
    JointState,
    MemoryRecord,
    PhotonPair,
    TwoCavityState,
    apply_scattering,
    atomic_readout_via_third_photon,
    detect_photon_L,
    entanglement_storage,
    prepare_input,
    prepare_pair,
    retrieve,
    run_memory_protocol,
    scatter_pair,
    swap_transfer_fidelity,
)

LOSSY = SystemParams(lambda_L=1.2, lambda_R=2.1, theta_L=0.4, theta_R=-0.9,
                     kappa=1.7, gamma=0.8, k_c=0.3, delta_e=2.5)
GAUSS = PulseSpec(profile=Profile.GAUSSIAN, delta_p=0.2, kappa_p=0.3)
LORENTZ = PulseSpec(profile=Profile.LORENTZIAN, delta_p=-0.1, kappa_p=0.15)
ATOM_START = AtomQubit(0.0, 1.0)
BALANCED = PhotonQubit(1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))


def ideal_point():
    # huge cooperativity, balanced couplings, narrow resonant pulse
    lam = 1000.0
    params = SystemParams(lambda_L=lam, lambda_R=lam, theta_L=0.7,
                          theta_R=-0.4)
    pulse = PulseSpec(kappa_p=2e-4)
    return params, pulse


@pytest.mark.parametrize("pulse", [GAUSS, LORENTZ])
def test_prepared_state_is_normalized_with_envelope_marginal(pulse):
    grid = build_grid(pulse, k_c=LOSSY.k_c)
    state = prepare_input(AtomQubit(0.6, 0.8j), PhotonQubit(0.28, 0.96), grid)
    assert state.norm == pytest.approx(1.0, abs=1e-12)
    assert state.loss_weight == 0.0
    # per-node marginal reproduces the pulse intensity times |c_p|^2
    marg_l = np.einsum("aj,aj->j", state.amps[:, POL_L, :],
                       np.conjugate(state.amps[:, POL_L, :]))
    np.testing.assert_allclose(marg_l, 0.28**2 * np.abs(grid.f) ** 2,
                               rtol=1e-12)


def test_prepare_input_requires_normalized_qubits():
    grid = build_grid(GAUSS)
    with pytest.raises(ValueError):
        prepare_input(AtomQubit(1.0, 1.0), PhotonQubit(0.0, 1.0), grid)
    with pytest.raises(ValueError):
        prepare_input(ATOM_START, PhotonQubit(0.5, 0.5), grid)


@pytest.mark.parametrize("pulse", [GAUSS, LORENTZ])
def test_scattering_preserves_trace_including_loss(pulse):
    grid = build_grid(pulse, k_c=LOSSY.k_c)
    state = apply_scattering(prepare_input(ATOM_START, BALANCED, grid), LOSSY)
    assert state.loss_weight > 0.0
    assert state.norm + state.loss_weight == pytest.approx(1.0, abs=1e-10)
    # a second pass keeps pooling decay mass
    again = apply_scattering(state, LOSSY)
    assert again.norm + again.loss_weight == pytest.approx(1.0, abs=1e-10)


def test_lossless_scattering_leaves_loss_weight_bitwise_zero():
    clean = SystemParams(lambda_L=1.2, lambda_R=2.1, gamma=0.0, delta_e=1.0)
    grid = build_grid(GAUSS)
    state = apply_scattering(prepare_input(ATOM_START, BALANCED, grid), clean)
    assert state.loss_weight == 0.0
    assert state.norm == pytest.approx(1.0, abs=1e-12)
    record = run_memory_protocol(clean, GAUSS, photon=BALANCED)
    assert record.loss_weight == 0.0


def test_cross_channels_are_transparent():
    grid = build_grid(GAUSS)
    state = prepare_input(AtomQubit(0.6, 0.8), PhotonQubit(0.6, 0.8), grid)
    out = apply_scattering(state, LOSSY)
    np.testing.assert_array_equal(out.amps[ATOM_L, POL_R],
                                  state.amps[ATOM_L, POL_R])
    np.testing.assert_array_equal(out.amps[ATOM_R, POL_L],
                                  state.amps[ATOM_R, POL_L])


def test_ideal_swap_produces_the_product_state():
    params, pulse = ideal_point()
    atom = AtomQubit(0.6, 0.8j)
    photon = PhotonQubit(0.28, -0.96)
    grid = build_grid(pulse, k_c=params.k_c)
    state = apply_scattering(prepare_input(atom, photon, grid), params)

    psi = swap_target_atom(photon, params)      # atomic image of the photon
    phi = swap_target_photon(atom, params)      # photonic image of the atom
    joint_phase = np.exp(-1j * (params.theta_L + params.theta_R))
    expected = np.zeros_like(state.amps)
    for a, qa in ((ATOM_L, psi.a_L), (ATOM_R, psi.a_R)):
        expected[a, POL_L] = joint_phase * qa * phi.c_L * grid.f
        expected[a, POL_R] = joint_phase * qa * phi.c_R * grid.f
    overlap = np.einsum("apj,apj,j->", np.conjugate(expected), state.amps,
                        grid.w)
    assert abs(overlap) ** 2 >= 1.0 - 1e-5
    assert abs(np.angle(overlap)) < 1e-2


def test_detection_at_ideal_point_is_certain():
    params, pulse = ideal_point()
    grid = build_grid(pulse, k_c=params.k_c)
    state = apply_scattering(prepare_input(ATOM_START, BALANCED, grid), params)
    ensemble, prob = detect_photon_L(state)
    assert prob == pytest.approx(1.0, abs=1e-5)
    rho = ensemble.density()
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_detection_with_no_support_is_refused():
    # lambda_L = 0 never converts a |k_R> photon into the k_L channel
    params = SystemParams(lambda_L=0.0, lambda_R=2.0)
    grid = build_grid(GAUSS)
    state = apply_scattering(
        prepare_input(ATOM_START, PhotonQubit(0.0, 1.0), grid), params)
    with pytest.raises(ZeroProbability):
        detect_photon_L(state)


@pytest.mark.parametrize("pulse", [GAUSS, LORENTZ])
def test_simulated_cycle_matches_closed_forms(pulse):
    params = SystemParams(lambda_L=1.4, lambda_R=1.9, theta_L=0.5,
                          theta_R=-0.2, kappa=1.3, gamma=0.6, delta_e=1.2)
    photon = PhotonQubit(0.6, 0.8j)
    eta = 0.7
    record = run_memory_protocol(params, pulse, photon=photon, detector=eta)
    assert isinstance(record, MemoryRecord)
    assert record.p_k_l == pytest.approx(
        storage_success(params, pulse, photon=photon, detector=eta), abs=1e-9)
    assert record.p_l == pytest.approx(
        retrieval_success(params, pulse, photon=photon, detector=eta),
        abs=1e-9)
    assert record.p_qm == pytest.approx(
        qm_success(params, pulse, eta=eta), abs=1e-9)
    assert record.fidelity == pytest.approx(
        storage_retrieval_fidelity(params, pulse, photon=photon, detector=eta),
        abs=1e-9)
    assert record.p_total == record.p_qm
    assert record.p_readout is None
    data = record.to_dict()
    assert set(data) == {"P_kL", "P_L", "P_qm", "fidelity", "loss_weight",
                         "readout", "P_total"}


def test_retrieval_endpoint_inputs():
    params = SystemParams(lambda_L=1.8, lambda_R=1.8, gamma=1.0, delta_e=0.5)
    f_qm = qm_fidelity(params, GAUSS)
    pure_r = run_memory_protocol(params, GAUSS, photon=PhotonQubit(0.0, 1.0))
    assert pure_r.fidelity == pytest.approx(1.0, abs=1e-10)
    pure_l = run_memory_protocol(params, GAUSS, photon=PhotonQubit(1.0, 0.0))
    assert pure_l.fidelity == pytest.approx(f_qm, abs=1e-10)


def test_memory_record_is_stable_under_node_doubling():
    params = SystemParams(lambda_L=2.0, lambda_R=1.5, gamma=0.9, delta_e=1.0)
    for pulse in (GAUSS, LORENTZ):
        coarse = run_memory_protocol(params, pulse, photon=BALANCED)
        fine = run_memory_protocol(params, pulse, photon=BALANCED,
                                   quad=DEFAULT_QUAD.doubled())
        for field in ("p_k_l", "p_l", "p_qm", "fidelity"):
            assert getattr(fine, field) == pytest.approx(
                getattr(coarse, field), abs=1e-8)


def test_protocol_ignores_global_qubit_phase():
    params = SystemParams(lambda_L=1.4, lambda_R=1.9, gamma=0.6, delta_e=1.2)
    base = run_memory_protocol(params, GAUSS, photon=PhotonQubit(0.6, 0.8))
    rot = np.exp(0.77j)
    turned = run_memory_protocol(
        params, GAUSS, photon=PhotonQubit(0.6 * rot, 0.8 * rot))
    for field in ("p_k_l", "p_l", "p_qm", "fidelity"):
        assert getattr(turned, field) == pytest.approx(
            getattr(base, field), abs=1e-12)


def test_retrieval_outcome_reports_released_photon_density():
    params = SystemParams(lambda_L=1.5, lambda_R=1.5, gamma=0.7)
    grid = build_grid(GAUSS)
    state = apply_scattering(prepare_input(ATOM_START, BALANCED, grid), params)
    stored, _ = detect_photon_L(state)
    outcome = retrieve(stored, params, GAUSS, target=BALANCED)
    rho = outcome.photon_density()
    trace = sum(np.real(np.sum(outcome.grid.w * np.diagonal(rho[p, :, p, :])))
                for p in (POL_L, POL_R))
    assert trace == pytest.approx(1.0, abs=1e-10)
    assert outcome.loss > 0.0


def test_third_photon_click_never_fires_on_the_transparent_atom():
    params = SystemParams(lambda_L=1.5, lambda_R=1.5)
    out = atomic_readout_via_third_photon(AtomQubit(0.0, 1.0), params, GAUSS)
    assert out.probability == 0.0
    assert out.conditioned is None


def test_third_photon_click_rate_and_conditioning():
    params = SystemParams(lambda_L=1.5, lambda_R=1.5, gamma=0.8)
    atom = AtomQubit(0.6, 0.8j)
    out = atomic_readout_via_third_photon(atom, params, GAUSS, detector=0.9)
    expected = 0.36 * qm_success(params, GAUSS, eta=0.9)
    assert out.probability == pytest.approx(expected, abs=1e-12)
    assert out.conditioned == AtomQubit(0.0, 1.0)


def test_heralded_readout_multiplies_success_probabilities():
    params = SystemParams(lambda_L=1.8, lambda_R=1.8, gamma=0.5, delta_e=0.3)
    record = run_memory_protocol(params, GAUSS, photon=BALANCED,
                                 readout="third_photon")
    assert record.readout == "third_photon"
    assert record.p_readout == pytest.approx(qm_success(params, GAUSS),
                                             abs=1e-12)
    assert record.p_total == pytest.approx(record.p_qm * record.p_readout,
                                           abs=1e-15)
    assert "P_readout" in record.to_dict()
    with pytest.raises(ValueError):
        run_memory_protocol(params, GAUSS, readout="homodyne")


@pytest.mark.parametrize("readout", ["projective", "third_photon"])
def test_memory_cycle_builds_one_grid_and_scatters_once(monkeypatch, readout):
    calls = {"build_grid": 0, "t_elements": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(statesim, "build_grid",
                        counting("build_grid", statesim.build_grid))
    monkeypatch.setattr(statesim, "t_elements",
                        counting("t_elements", statesim.t_elements))
    run_memory_protocol(LOSSY, LORENTZ, photon=BALANCED, detector=0.7,
                        readout=readout)
    assert calls == {"build_grid": 1, "t_elements": 1}


@pytest.mark.parametrize("pulse", [GAUSS, LORENTZ], ids=["gaussian",
                                                         "lorentzian"])
@pytest.mark.parametrize("readout", ["projective", "third_photon"])
def test_memory_cycle_equals_the_public_steps(pulse, readout):
    photon, eta = PhotonQubit(0.6, 0.8j), 0.7
    grid = build_grid(pulse, DEFAULT_QUAD, k_c=LOSSY.k_c)
    state = apply_scattering(prepare_input(ATOM_START, photon, grid), LOSSY)
    stored, p_k_l = detect_photon_L(state, eta)
    outcome = retrieve(stored, LOSSY, pulse, DEFAULT_QUAD, target=photon)
    p_qm = p_k_l * outcome.probability
    p_readout = p_total = None
    if readout == "third_photon":
        p_readout = atomic_readout_via_third_photon(
            AtomQubit(1.0, 0.0), LOSSY, pulse, DEFAULT_QUAD, eta).probability
        p_total = p_qm * p_readout
    by_hand = MemoryRecord(
        p_k_l=p_k_l, p_l=outcome.probability, p_qm=p_qm,
        fidelity=outcome.fidelity,
        loss_weight=state.loss_weight + outcome.loss, readout=readout,
        p_readout=p_readout, p_total=p_qm if p_total is None else p_total)
    record = run_memory_protocol(LOSSY, pulse, photon=photon, detector=eta,
                                 readout=readout)
    assert record == by_hand


def test_swap_transfer_twin_matches_closed_form():
    params = SystemParams(lambda_L=1.6, lambda_R=1.6, theta_L=0.9,
                          theta_R=0.1, gamma=0.7, delta_e=-1.0)
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = AtomQubit(*(rng.normal(size=2) + 1j * rng.normal(size=2))).normalized()
        c = PhotonQubit(*(rng.normal(size=2) + 1j * rng.normal(size=2))).normalized()
        sim = swap_transfer_fidelity(a, c, params, GAUSS)
        closed = transfer_fidelity(params, GAUSS, atom=a, photon=c)
        assert sim == pytest.approx(closed, abs=1e-10)


def test_pair_state_bookkeeping():
    pair = PhotonPair(0.6, 0.8j)
    assert pair.norm_sq == pytest.approx(1.0)
    assert PhotonPair(1.0, 1.0).normalized().norm_sq == pytest.approx(1.0)
    grid = build_grid(GAUSS)
    state = prepare_pair(pair, grid, grid)
    assert isinstance(state, TwoCavityState)
    assert state.norm == pytest.approx(1.0, abs=1e-12)
    assert state.loss_weight == 0.0
    with pytest.raises(ValueError):
        prepare_pair(PhotonPair(1.0, 1.0), grid, grid)


def test_pair_scattering_preserves_trace_including_loss():
    grid = build_grid(GAUSS)
    other = SystemParams(lambda_L=2.0, lambda_R=1.0, gamma=0.4, delta_e=-0.7)
    state = scatter_pair(prepare_pair(PhotonPair(0.6, 0.8j), grid, grid),
                         LOSSY, other)
    assert state.loss_weight > 0.0
    assert state.norm + state.loss_weight == pytest.approx(1.0, abs=1e-10)
    clean_1 = SystemParams(lambda_L=1.2, lambda_R=2.1, gamma=0.0)
    clean_2 = SystemParams(lambda_L=2.0, lambda_R=1.0, gamma=0.0)
    lossless = scatter_pair(prepare_pair(PhotonPair(0.6, 0.8j), grid, grid),
                            clean_1, clean_2)
    assert lossless.loss_weight == 0.0


def test_heralded_pair_storage_matches_single_qubit_fidelity():
    # identical cavities: the heralded two-node fidelity collapses to the
    # single-memory fidelity, for any pair amplitudes
    params = SystemParams(lambda_L=1.7, lambda_R=1.3, theta_L=0.2,
                          theta_R=-0.5, gamma=0.8, delta_e=1.5)
    f_qm = qm_fidelity(params, GAUSS)
    for pair in (PhotonPair(0.6, 0.8j), PhotonPair(1.0, 0.0).normalized(),
                 PhotonPair(1.0, -1.0).normalized()):
        out = entanglement_storage(pair, params, params, GAUSS, GAUSS,
                                   detector_1=0.9, detector_2=0.7)
        assert out.mode == "postselect"
        assert out.fidelity == pytest.approx(f_qm, abs=1e-8)
        assert 0.0 < out.probability < 1.0


def test_unheralded_pair_storage_lies_between_the_spectral_bounds():
    params = SystemParams(lambda_L=1.5, lambda_R=1.5, gamma=0.6, delta_e=0.8)
    t_lr_mean = spectral_average(
        lambda k: t_elements(k, params)[2], GAUSS)
    t2_mean = spectral_average(
        lambda k: np.abs(t_elements(k, params)[2]) ** 2, GAUSS)
    pair = PhotonPair(1.0, 1.0).normalized()
    out = entanglement_storage(pair, params, params, GAUSS, GAUSS, mode="swap")
    assert out.mode == "swap"
    lo = abs(t_lr_mean) ** 2
    hi = float(np.real(t2_mean))
    assert lo - 1e-12 <= out.fidelity <= hi + 1e-12
    # balanced couplings: the incoherent bound is the swap fidelity itself
    assert hi == pytest.approx(swap_fidelity(params, GAUSS), abs=1e-12)


def test_ideal_pair_storage_is_nearly_perfect():
    params, pulse = ideal_point()
    bell = PhotonPair(1.0, 1.0).normalized()
    out = entanglement_storage(bell, params, params, pulse, pulse)
    assert out.fidelity == pytest.approx(1.0, abs=1e-5)
    assert out.probability == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError):
        entanglement_storage(bell, params, params, pulse, pulse,
                             mode="teleport")


def test_unknown_mode_strings_raise_typed_errors():
    params, pulse = ideal_point()
    with pytest.raises(InvalidField):
        run_memory_protocol(params, pulse, readout="homodyne")
    with pytest.raises(InvalidField):
        entanglement_storage(PhotonPair(1.0, 0.0), params, params, pulse,
                             pulse, mode="teleport")


# Dense reference: the two-grid code as it stood before the states were kept
# as factors, with every n1 x n2 array built in full.  Test-only.

def _dense_norm(amps, grid_1, grid_2):
    return float(np.real(np.einsum("abpqjk,abpqjk,j,k->", amps,
                                   np.conjugate(amps), grid_1.w, grid_2.w)))


def _dense_prepare_pair(pair, grid_1, grid_2):
    amps = np.zeros((2, 2, 2, 2, grid_1.n, grid_2.n), dtype=complex)
    envelope = grid_1.f[:, None] * grid_2.f[None, :]
    amps[ATOM_R, ATOM_R, POL_L, POL_R] = pair.c_LR * envelope
    amps[ATOM_R, ATOM_R, POL_R, POL_L] = pair.c_RL * envelope
    return amps


def _dense_scatter_pair(amps, grid_1, grid_2, params_1, params_2):
    """Returns the scattered amplitudes and the decay mass shed."""
    before = _dense_norm(amps, grid_1, grid_2)
    psi = amps.copy()
    t_ll, t_rr, t_lr, t_rl = t_elements(grid_1.k, params_1)
    bright_l = psi[ATOM_L, :, POL_L, :].copy()
    bright_r = psi[ATOM_R, :, POL_R, :].copy()
    psi[ATOM_L, :, POL_L, :] = (t_ll[None, None, :, None] * bright_l
                                + t_lr[None, None, :, None] * bright_r)
    psi[ATOM_R, :, POL_R, :] = (t_rl[None, None, :, None] * bright_l
                                + t_rr[None, None, :, None] * bright_r)
    t_ll, t_rr, t_lr, t_rl = t_elements(grid_2.k, params_2)
    bright_l = psi[:, ATOM_L, :, POL_L].copy()
    bright_r = psi[:, ATOM_R, :, POL_R].copy()
    psi[:, ATOM_L, :, POL_L] = (t_ll[None, None, None, :] * bright_l
                                + t_lr[None, None, None, :] * bright_r)
    psi[:, ATOM_R, :, POL_R] = (t_rl[None, None, None, :] * bright_l
                                + t_rr[None, None, None, :] * bright_r)
    if params_1.gamma == 0.0 and params_2.gamma == 0.0:
        return psi, 0.0
    return psi, before - _dense_norm(psi, grid_1, grid_2)


def _dense_entanglement_storage(pair, params_1, params_2, pulse_1, pulse_2,
                                quad, detector_1, detector_2, mode):
    """Returns (probability, fidelity)."""
    grid_1 = build_grid(pulse_1, quad, k_c=params_1.k_c)
    grid_2 = build_grid(pulse_2, quad, k_c=params_2.k_c)
    envelope = grid_1.f[:, None] * grid_2.f[None, :]
    psi, _ = _dense_scatter_pair(_dense_prepare_pair(pair, grid_1, grid_2),
                                 grid_1, grid_2, params_1, params_2)
    w1, w2 = grid_1.w, grid_2.w
    if mode == "swap":
        rho4 = np.einsum("abpqjk,cdpqjk,j,k->abcd", psi, np.conjugate(psi),
                         w1, w2)
        target = np.zeros((2, 2), dtype=complex)
        target[ATOM_R, ATOM_L] = pair.c_LR
        target[ATOM_L, ATOM_R] = pair.c_RL
        fidelity = float(np.real(np.einsum("ab,abcd,cd->",
                                           np.conjugate(target), rho4, target)))
        return float(np.real(np.einsum("abab->", rho4))), fidelity
    root_eta_1 = np.sqrt(as_detector(detector_1)(grid_1.k))
    root_eta_2 = np.sqrt(as_detector(detector_2)(grid_2.k))
    root_eta = root_eta_1[:, None] * root_eta_2[None, :]
    sel = psi[:, :, POL_L, POL_L] * root_eta[None, None]
    prob = float(np.real(np.einsum("abjk,abjk,j,k->", sel, np.conjugate(sel),
                                   w1, w2)))
    overlap = np.einsum("jk,jk,j,k->", np.conjugate(envelope) * root_eta,
                        np.conjugate(pair.c_RL) * sel[ATOM_L, ATOM_R]
                        + np.conjugate(pair.c_LR) * sel[ATOM_R, ATOM_L],
                        w1, w2)
    weight = (float(np.real(grid_1.average(root_eta_1 ** 2)))
              * float(np.real(grid_2.average(root_eta_2 ** 2))))
    return prob, float(abs(overlap) ** 2 / (weight * prob))


def _dense_retrieve(stored, params, pulse, quad, target):
    """Returns (probability, fidelity, loss, photon density)."""
    grid2 = build_grid(pulse, quad, k_c=params.k_c)
    _, t_rr, t_lr, _ = t_elements(grid2.k, params)
    gam_l = stored.beta[ATOM_R][:, None] * (t_lr * grid2.f)[None, :]
    gam_r = stored.beta[ATOM_L][:, None] * grid2.f[None, :]
    w1 = stored.grid.w
    w2 = grid2.w
    mass = float(np.real(
        np.einsum("ja,ja,j,a->", gam_l, np.conjugate(gam_l), w1, w2)
        + np.einsum("ja,ja,j,a->", gam_r, np.conjugate(gam_r), w1, w2)))
    ovl = (gam_l @ (w2 * np.conjugate(target.c_L * grid2.f))
           + gam_r @ (w2 * np.conjugate(target.c_R * grid2.f)))
    fidelity = float(np.real(np.sum(w1 * np.abs(ovl) ** 2)) / mass)
    survive = float(np.real(np.sum(
        w2 * np.abs(grid2.f) ** 2 * (np.abs(t_rr) ** 2 + np.abs(t_lr) ** 2))))
    decay = (0.0 if params.gamma == 0.0 else
             float(np.sum(w1 * np.abs(stored.beta[ATOM_R]) ** 2) * (1.0 - survive)))
    stack = (gam_l, gam_r)
    rho = np.empty((2, grid2.n, 2, grid2.n), dtype=complex)
    for p in (POL_L, POL_R):
        for q in (POL_L, POL_R):
            rho[p, :, q, :] = np.einsum("ja,jb,j->ab", stack[p],
                                        np.conjugate(stack[q]), w1)
    return (mass / stored.probability, fidelity,
            decay / stored.probability, rho / mass)


LORENTZ_104 = QuadratureConfig(n_lorentz=104)
OTHER = SystemParams(lambda_L=2.0, lambda_R=1.0, theta_L=-1.1, theta_R=0.6,
                     gamma=0.4, k_c=-0.2, delta_e=-0.7)
CLEAN_1 = SystemParams(lambda_L=1.2, lambda_R=2.1, theta_L=0.4, gamma=0.0)
CLEAN_2 = SystemParams(lambda_L=2.0, lambda_R=1.0, theta_R=-0.3, gamma=0.0,
                       delta_e=0.9)
TABULATED = DetectorModel.tabulated([-3.0, 0.0, 4.0], [0.3, 0.9, 0.6])
PULSE_PAIRS = [(GAUSS, GAUSS), (LORENTZ, LORENTZ), (GAUSS, LORENTZ)]
PULSE_IDS = ["gaussian", "lorentzian", "mixed"]


@pytest.mark.parametrize("cavities", [(LOSSY, OTHER), (CLEAN_1, CLEAN_2)],
                         ids=["lossy", "lossless"])
@pytest.mark.parametrize("pulses", PULSE_PAIRS, ids=PULSE_IDS)
def test_factored_pair_matches_dense_reference(pulses, cavities):
    (pulse_1, pulse_2), (params_1, params_2) = pulses, cavities
    pair = PhotonPair(0.6, 0.8j)
    grid_1 = build_grid(pulse_1, LORENTZ_104, k_c=params_1.k_c)
    grid_2 = build_grid(pulse_2, LORENTZ_104, k_c=params_2.k_c)
    assert {grid_1.n, grid_2.n} <= {64, 104}
    dense = _dense_prepare_pair(pair, grid_1, grid_2)
    state = prepare_pair(pair, grid_1, grid_2)
    assert state.norm == pytest.approx(_dense_norm(dense, grid_1, grid_2),
                                       abs=1e-12)
    dense, loss = _dense_scatter_pair(dense, grid_1, grid_2, params_1,
                                      params_2)
    state = scatter_pair(state, params_1, params_2)
    assert state.norm == pytest.approx(_dense_norm(dense, grid_1, grid_2),
                                       abs=1e-12)
    assert state.loss_weight == pytest.approx(loss, abs=1e-12)
    if loss == 0.0:
        assert state.loss_weight == 0.0
    amps = np.einsum("rapj,rbqk->abpqjk", state.left, state.right)
    np.testing.assert_allclose(amps, dense, rtol=0.0, atol=1e-12)
    for mode in ("postselect", "swap"):
        for detectors in ((1.0, 1.0), (0.9, TABULATED)):
            out = entanglement_storage(pair, params_1, params_2, pulse_1,
                                       pulse_2, LORENTZ_104, *detectors,
                                       mode=mode)
            prob, fid = _dense_entanglement_storage(
                pair, params_1, params_2, pulse_1, pulse_2, LORENTZ_104,
                *detectors, mode)
            assert out.probability == pytest.approx(prob, abs=1e-12)
            assert out.fidelity == pytest.approx(fid, abs=1e-12)


@pytest.mark.parametrize("params", [LOSSY, CLEAN_1], ids=["lossy", "lossless"])
@pytest.mark.parametrize("pulse", [GAUSS, LORENTZ], ids=["gaussian",
                                                         "lorentzian"])
def test_factored_retrieval_matches_dense_reference(pulse, params):
    grid = build_grid(pulse, LORENTZ_104, k_c=params.k_c)
    state = apply_scattering(prepare_input(ATOM_START, BALANCED, grid),
                             params)
    stored, _ = detect_photon_L(state, TABULATED)
    target = PhotonQubit(0.28, 0.96j)
    outcome = retrieve(stored, params, pulse, LORENTZ_104, target=target)
    prob, fid, loss, rho = _dense_retrieve(stored, params, pulse,
                                           LORENTZ_104, target)
    assert outcome.probability == pytest.approx(prob, abs=1e-12)
    assert outcome.fidelity == pytest.approx(fid, abs=1e-12)
    assert outcome.loss == pytest.approx(loss, abs=1e-12)
    assert (outcome.loss == 0.0) == (params.gamma == 0.0)
    np.testing.assert_allclose(outcome.photon_density(), rho, rtol=0.0,
                               atol=1e-12)


def _peak_bytes(call) -> int:
    call()  # warm the node tables
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("which", ["pair", "protocol"])
def test_state_memory_grows_linearly_in_the_node_count(which):
    def peak(n):
        quad = QuadratureConfig(n_lorentz=n)
        if which == "pair":
            return _peak_bytes(lambda: entanglement_storage(
                PhotonPair(0.6, 0.8j), LOSSY, OTHER, LORENTZ, LORENTZ, quad,
                mode="swap"))
        return _peak_bytes(lambda: run_memory_protocol(
            LOSSY, LORENTZ, quad, photon=BALANCED, detector=0.8))

    # a 1040 x 1040 complex array alone takes 17 MB
    assert peak(1040) < 2e6
    # linear growth gives 4x from 520 to 2080 nodes, quadratic 16x
    assert peak(2080) < 6 * peak(520)
