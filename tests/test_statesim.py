"""State oracle: conservation laws, closed-form twins and long-way
references (`longway`)."""

import ast
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from functools import cached_property
from pathlib import Path

import longway
import mpmath
import numpy as np
import pytest
from longway import ATOM_L, ATOM_R, POL_L, POL_R

from cavqmem import params as params_module
from cavqmem import statesim
from cavqmem.errors import InvalidField, NonFiniteIntegrand, ZeroProbability
from cavqmem.metrics import (
    cycle_closed_forms,
    metric_columns,
    qm_fidelity,
    swap_target_atom,
    transfer_fidelity,
)
from cavqmem.params import (
    AtomQubit,
    PhotonQubit,
    Profile,
    PulseSpec,
    SystemParams,
    point_rows,
)
from cavqmem.scattering import t_elements
from cavqmem.spectral import DEFAULT_QUAD, QuadratureConfig, build_grid, spectral_average
from cavqmem.statesim import (
    Cavity,
    MemoryRecord,
    PhotonPair,
    entanglement_storage,
    run_memory_protocol,
    swap_transfer_fidelity,
)

LOSSY = SystemParams(lambda_L=1.2, lambda_R=2.1, theta_L=0.4, theta_R=-0.9,
                     kappa=1.7, gamma=0.8, k_c=0.3, delta_e=2.5)
GAUSS = PulseSpec(profile=Profile.GAUSSIAN, delta_p=0.2, kappa_p=0.3)
LORENTZ = PulseSpec(profile=Profile.LORENTZIAN, delta_p=-0.1, kappa_p=0.15)
ATOM_START = AtomQubit(0.0, 1.0)
BALANCED = PhotonQubit(1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))

LORENTZ_104 = QuadratureConfig(n_lorentz=104)
OTHER = SystemParams(lambda_L=2.0, lambda_R=1.0, theta_L=-1.1, theta_R=0.6,
                     gamma=0.4, k_c=-0.2, delta_e=-0.7)
CLEAN_1 = SystemParams(lambda_L=1.2, lambda_R=2.1, theta_L=0.4, gamma=0.0)
CLEAN_2 = SystemParams(lambda_L=2.0, lambda_R=1.0, theta_R=-0.3, gamma=0.0,
                       delta_e=0.9)
PULSE_PAIRS = [(GAUSS, GAUSS), (LORENTZ, LORENTZ), (GAUSS, LORENTZ)]
PULSE_IDS = ["gaussian", "lorentzian", "mixed"]


def unit_qubit(kind, amplitudes):
    """A qubit of type `kind` along the amplitudes, scaled to unit norm."""
    return kind(*(amplitudes / np.linalg.norm(amplitudes)))


def ideal_point():
    # huge cooperativity, balanced couplings, narrow resonant pulse
    lam = 1000.0
    params = SystemParams(lambda_L=lam, lambda_R=lam, theta_L=0.7,
                          theta_R=-0.4)
    pulse = PulseSpec(kappa_p=2e-4)
    return params, pulse


@pytest.mark.parametrize("pulse", [GAUSS, LORENTZ])
def test_prepared_state_is_normalized_with_envelope_marginal(pulse):
    # the long-way input: a normalized product state on the envelope
    f, w = longway.envelope(pulse)
    amps = longway.prepare(AtomQubit(0.6, 0.8j), PhotonQubit(0.28, 0.96), f)
    assert longway.norm(amps, w) == pytest.approx(1.0, abs=1e-12)
    # per-node marginal reproduces the pulse intensity times |c_p|^2
    marg_l = np.einsum("aj,aj->j", amps[:, POL_L, :],
                       np.conjugate(amps[:, POL_L, :]))
    np.testing.assert_allclose(marg_l, 0.28**2 * np.abs(f) ** 2, rtol=1e-12)


def test_swap_transfer_fidelity_requires_normalized_qubits():
    for atom, photon in ((AtomQubit(1.0, 1.0), PhotonQubit(0.0, 1.0)),
                         (ATOM_START, PhotonQubit(0.5, 0.5))):
        with pytest.raises(InvalidField, match="not normalized"):
            swap_transfer_fidelity(atom, photon, LOSSY, GAUSS)
        # after the cavity is checked
        with pytest.raises(NonFiniteIntegrand, match="overflows"):
            swap_transfer_fidelity(atom, photon, LOSSY,
                                   PulseSpec(kappa_p=1e200))


@pytest.mark.parametrize("pulse", [GAUSS, LORENTZ])
def test_scattering_preserves_trace_including_loss(pulse):
    cav = Cavity.of(LOSSY, pulse)
    f, w = longway.envelope(pulse)
    prepared = longway.prepare(ATOM_START, BALANCED, f)
    state, loss = longway.pass_through(prepared, cav, w)
    assert loss > 0.0
    assert longway.norm(state, w) + loss == pytest.approx(1.0, abs=1e-10)
    # a second pass keeps pooling decay mass
    again, more = longway.pass_through(state, cav, w)
    assert longway.norm(again, w) + loss + more == pytest.approx(1.0,
                                                                 abs=1e-10)


def test_lossless_scattering_leaves_loss_weight_bitwise_zero():
    clean = SystemParams(lambda_L=1.2, lambda_R=2.1, gamma=0.0, delta_e=1.0)
    cav = Cavity.of(clean, GAUSS)
    f, w = longway.envelope(GAUSS)
    prepared = longway.prepare(ATOM_START, BALANCED, f)
    state, loss = longway.pass_through(prepared, cav, w)
    assert loss == 0.0
    assert longway.norm(state, w) == pytest.approx(1.0, abs=1e-12)
    assert cav.decay == 0.0
    record = run_memory_protocol(clean, GAUSS, photon=BALANCED)
    assert record.loss_weight == 0.0


def test_cross_channels_are_transparent():
    cav = Cavity.of(LOSSY, GAUSS)
    f, _ = longway.envelope(GAUSS)
    state = longway.prepare(AtomQubit(0.6, 0.8), PhotonQubit(0.6, 0.8), f)
    out = longway.scatter(state, cav.elements)
    np.testing.assert_array_equal(out[ATOM_L, POL_R], state[ATOM_L, POL_R])
    np.testing.assert_array_equal(out[ATOM_R, POL_L], state[ATOM_R, POL_L])


def test_ideal_swap_produces_the_product_state():
    params, pulse = ideal_point()
    atom = AtomQubit(0.6, 0.8j)
    photon = PhotonQubit(0.28, -0.96)
    cav = Cavity.of(params, pulse)
    f, w = longway.envelope(pulse)
    state = longway.scatter(longway.prepare(atom, photon, f), cav.elements)

    psi = swap_target_atom(photon, params)      # atomic image of the photon
    phi = PhotonQubit(                          # photonic image of the atom
        c_L=-atom.a_R * np.exp(1j * params.theta_R),
        c_R=atom.a_L * np.exp(1j * params.theta_L))
    joint_phase = np.exp(-1j * (params.theta_L + params.theta_R))
    expected = joint_phase * longway.prepare(psi, phi, f)
    overlap = np.einsum("apj,apj,j->", np.conjugate(expected), state, w)
    assert abs(overlap) ** 2 >= 1.0 - 1e-5
    assert abs(np.angle(overlap)) < 1e-2


def test_detection_at_ideal_point_is_certain():
    # the storage step counts the scattered photon in k_L, and almost
    # nothing decays
    params, pulse = ideal_point()
    record = run_memory_protocol(params, pulse, photon=BALANCED)
    assert record.p_k_l == pytest.approx(1.0, abs=1e-5)
    assert 0.0 < record.loss_weight < 1e-5


def test_detection_with_no_support_is_refused():
    # lambda_L = 0 never converts a |k_R> photon into the k_L channel
    params = SystemParams(lambda_L=0.0, lambda_R=2.0)
    with pytest.raises(ZeroProbability, match="k_L photon"):
        run_memory_protocol(params, GAUSS, photon=PhotonQubit(0.0, 1.0))
    # nor, in a pair, photon 1 of the c_RL term, the only one sent on k_R
    with pytest.raises(ZeroProbability, match="two-photon"):
        entanglement_storage(PhotonPair(0.0, 1.0), params, LOSSY, GAUSS,
                             GAUSS)
    assert entanglement_storage(PhotonPair(0.0, 1.0), params, LOSSY, GAUSS,
                                GAUSS, mode="swap").fidelity == 0.0


@pytest.mark.parametrize("pulse", [GAUSS, LORENTZ])
def test_simulated_cycle_matches_closed_forms(pulse):
    params = SystemParams(lambda_L=1.4, lambda_R=1.9, theta_L=0.5,
                          theta_R=-0.2, kappa=1.3, gamma=0.6, delta_e=1.2)
    photon = PhotonQubit(0.6, 0.8j)
    eta = 0.7
    record = run_memory_protocol(params, pulse, photon=photon, detector=eta)
    assert isinstance(record, MemoryRecord)
    closed, = cycle_closed_forms(params, pulse, photons=[photon], detector=eta)
    assert record.p_k_l == pytest.approx(closed["P_kL"], abs=1e-9)
    assert record.p_l == pytest.approx(closed["P_L"], abs=1e-9)
    assert record.p_qm == pytest.approx(closed["P_qm"], abs=1e-9)
    assert record.fidelity == pytest.approx(closed["fidelity"], abs=1e-9)
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
                                   quad=QuadratureConfig(128, 2080))
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


def test_third_photon_click_rate():
    # the probe's click on the released |L> atom is counted with the same
    # efficiency as the storage photon
    params = SystemParams(lambda_L=1.5, lambda_R=1.5, gamma=0.8)
    click = run_memory_protocol(params, GAUSS, photon=BALANCED, detector=0.9,
                                readout="third_photon").p_readout
    p_qm = cycle_closed_forms(params, GAUSS, detector=0.9)[0]["P_qm"]
    assert click == pytest.approx(p_qm, abs=1e-12)


def test_heralded_readout_multiplies_success_probabilities():
    params = SystemParams(lambda_L=1.8, lambda_R=1.8, gamma=0.5, delta_e=0.3)
    record = run_memory_protocol(params, GAUSS, photon=BALANCED,
                                 readout="third_photon")
    assert record.readout == "third_photon"
    assert record.p_readout == pytest.approx(
        cycle_closed_forms(params, GAUSS)[0]["P_qm"], abs=1e-12)
    assert record.p_total == pytest.approx(record.p_qm * record.p_readout,
                                           abs=1e-15)
    assert "P_readout" in record.to_dict()
    with pytest.raises(ValueError):
        run_memory_protocol(params, GAUSS, readout="homodyne")


ONE_PATH = ("build_grid", "detuned_elements")


@pytest.mark.parametrize("readout", ["projective", "third_photon"])
def test_memory_cycle_builds_one_grid_and_scatters_once(monkeypatch, readout):
    # every entry point builds its cavities once
    calls = dict.fromkeys(ONE_PATH + ("Cavity",), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ONE_PATH:
        monkeypatch.setattr(statesim, name,
                            counting(name, getattr(statesim, name)))
    monkeypatch.setattr(Cavity, "of", counting("Cavity", Cavity.of))
    run_memory_protocol(LOSSY, LORENTZ, photon=BALANCED, detector=0.7,
                        readout=readout)
    assert calls == {"build_grid": 1, "detuned_elements": 1, "Cavity": 1}
    mode = "swap" if readout == "projective" else "postselect"
    # identical nodes share one cavity; nodes that differ in any one field
    # of the params or of the pulse build one each
    nodes = [((LOSSY, LORENTZ), (LOSSY, LORENTZ), 1),
             ((LOSSY, LORENTZ), (OTHER, GAUSS), 2)]
    nodes += [((LOSSY, LORENTZ), (_one_field_off(LOSSY, field), LORENTZ), 2)
              for field in fields(SystemParams)]
    nodes += [((LOSSY, LORENTZ), (LOSSY, _one_field_off(LORENTZ, field)), 2)
              for field in fields(PulseSpec)]
    for (params_1, pulse_1), (params_2, pulse_2), builds in nodes:
        calls.update(dict.fromkeys(calls, 0))
        entanglement_storage(PhotonPair(0.6, 0.8j), params_1, params_2,
                             pulse_1, pulse_2, mode=mode)
        assert calls == {**dict.fromkeys(calls, 0), "build_grid": builds,
                         "detuned_elements": builds, "Cavity": builds}


def _one_field_off(point, field):
    """`point` with one field moved: the other profile, or the value plus a
    quarter (valid for every field)."""
    value = getattr(point, field.name)
    if isinstance(value, Profile):
        return replace(point, **{field.name: next(
            profile for profile in Profile if profile is not value)})
    return replace(point, **{field.name: value + 0.25})


def test_only_cavity_of_builds_grids_and_elements():
    # the one path: every step takes its grid and elements from a Cavity,
    # so a second build_grid or t_elements call in statesim would be a
    # second implementation of a step
    def callers(node, scope=()):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                yield from callers(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in ("build_grid", "t_elements", "detuned_elements"):
                    yield ".".join(scope), name
            yield from callers(child, scope)

    tree = ast.parse(Path(statesim.__file__).read_text(encoding="utf-8"))
    assert sorted(callers(tree)) == [("Cavity.of", "build_grid"),
                                     ("Cavity.of", "detuned_elements")]


def test_cavity_of_builds_no_second_params(monkeypatch):
    # the elements are evaluated at the grid's detunings, so no SystemParams
    # with k_c = 0 is built, and checked, beside the caller's
    calls = []
    check = params_module.validate

    def counting(params):
        calls.append(params)
        return check(params)

    monkeypatch.setattr(params_module, "validate", counting)
    SystemParams()
    assert len(calls) == 1  # the count sees every SystemParams built
    calls.clear()
    for pulse in (GAUSS, LORENTZ):
        cav = Cavity.of(OTHER, pulse)  # OTHER sits at k_c = -0.2
        entanglement_storage(PhotonPair(0.6, 0.8j), LOSSY, OTHER, pulse,
                             GAUSS, mode="swap")
        assert calls == []
        # the same elements, bit for bit, as at the shifted parameters
        shifted = t_elements(cav.grid.k, replace(OTHER, k_c=0.0))
        for got, ref in zip(cav.elements, shifted):
            np.testing.assert_array_equal(got, ref)
        calls.clear()


@pytest.mark.parametrize("mode", ["postselect", "swap"])
def test_shared_cavity_equals_two_built_cavities(mode):
    # identical nodes take one cavity; two separately built cavities take
    # the same node sums, bit for bit, and the stacked path on them gives
    # the same outcome
    pair, (eta_1, eta_2) = PhotonPair(0.6, 0.8j), (0.9, 0.6)
    for pulse in (GAUSS, LORENTZ):
        out = entanglement_storage(pair, LOSSY, LOSSY, pulse, pulse,
                                   detector_1=eta_1, detector_2=eta_2,
                                   mode=mode)
        cav_1, cav_2 = Cavity.of(LOSSY, pulse), Cavity.of(LOSSY, pulse)
        assert cav_1.grid is not cav_2.grid
        for name in NODE_SUMS:
            assert getattr(cav_1, name) == getattr(cav_2, name)
        prob, fid = longway.stacked_entanglement_storage(
            pair, LOSSY, LOSSY, pulse, pulse, DEFAULT_QUAD, eta_1, eta_2,
            mode)
        assert out.probability == pytest.approx(prob, rel=1e-14, abs=0.0)
        assert out.fidelity == pytest.approx(fid, rel=1e-14, abs=0.0)


RULE_520 = QuadratureConfig(n_gauss=128, n_lorentz=520)


@pytest.mark.parametrize("quad", [DEFAULT_QUAD, RULE_520],
                         ids=["default", "rule520"])
@pytest.mark.parametrize("readout", ["projective", "third_photon"])
@pytest.mark.parametrize("pulse", [GAUSS, LORENTZ], ids=["gaussian",
                                                         "lorentzian"])
def test_memory_cycle_matches_the_stepwise_reference(pulse, readout, quad):
    # the cycle on the channels it fills against the full state, step by
    # step: every figure agrees to rounding, and the decay weight to the
    # few ulp of 1 that the reference's difference of norms leaves
    photons = (PhotonQubit(0.6, 0.8j), BALANCED, PhotonQubit(0.28, -0.96))
    for gamma in (0.0, 0.05, 0.8):
        for ratio in (0.1, 0.5, 1.0, 3.0, 10.0):
            params = replace(LOSSY, lambda_L=ratio * LOSSY.lambda_R,
                             gamma=gamma)
            for photon, eta in zip(photons, (0.7, 1.0, 0.35)):
                got = run_memory_protocol(params, pulse, quad, photon, eta,
                                          readout)
                ref = longway.stepwise_cycle(params, pulse, quad, photon,
                                             eta, readout)
                assert got.readout == ref.readout
                assert (got.p_readout is None) == (ref.p_readout is None)
                for field in ("p_k_l", "p_l", "p_qm", "fidelity", "p_total",
                              "p_readout"):
                    value = getattr(ref, field)
                    if value is not None:
                        assert getattr(got, field) == pytest.approx(
                            value, rel=1e-14, abs=0.0), field
                assert got.loss_weight == pytest.approx(
                    ref.loss_weight, rel=0.0, abs=1e-14)
                assert (got.loss_weight == 0.0) == (gamma == 0.0)


def _loss_weight_40_digits(params, pulse, quad, photon, eta):
    """`loss_weight` of the cycle to 40 digits on the same rule: the
    per-node decay weight 1 - |t_RR|^2 - |t_LR|^2 and the branch masses
    summed exactly over the rule's float nodes and weights (mpmath, from
    the scattering map's definition, not the package's forms)."""
    grid = Cavity.of(params, pulse, quad).grid
    with mpmath.workdps(40):
        mpf = mpmath.mpf
        kappa, gamma = mpf(params.kappa), mpf(params.gamma)
        delta_e = mpf(params.delta_e)
        lam_l, lam_r = mpf(params.lambda_L), mpf(params.lambda_R)
        lam_sq = lam_l**2 + lam_r**2
        cos_sq, sin_2xi = lam_r**2 / lam_sq, 2 * lam_l * lam_r / lam_sq
        ik = mpmath.mpc(0, kappa)
        decay = converted = norm = mpf(0)
        for s, omega in zip(grid.k.tolist(), grid.omega.tolist()):
            s, omega = mpf(s), mpf(omega)
            w_minus = (s - delta_e + mpmath.mpc(0, gamma)) * (s + ik) - lam_sq
            h = -ik * lam_sq / ((s - ik) * w_minus)
            t_lr_sq = sin_2xi**2 * abs(h) ** 2
            decay += omega * (1 - abs(1 + 2 * cos_sq * h) ** 2 - t_lr_sq)
            converted += omega * t_lr_sq
            norm += omega
        c_l_sq, c_r_sq = abs(photon.c_L) ** 2, abs(photon.c_R) ** 2
        p_k_l = eta * (c_l_sq * norm + c_r_sq * converted)
        return float(c_r_sq * decay + eta * c_l_sq * norm * decay / p_k_l)


@pytest.mark.parametrize("pulse", [GAUSS, LORENTZ], ids=["gaussian",
                                                         "lorentzian"])
def test_loss_weight_keeps_its_digits(pulse):
    # the decay weight is summed per node from a form that does not
    # cancel, so a small loss keeps its digits: a difference of norms is
    # off by up to 9e-3 relative here at gamma = 1e-9
    photon, eta = PhotonQubit(0.6, 0.8j), 0.7
    for gamma in (1e-9, 1e-6, 1e-3, 0.1, 1.0):
        for params in (replace(LOSSY, gamma=gamma),
                       replace(OTHER, gamma=gamma, lambda_L=20.0)):
            got = run_memory_protocol(params, pulse, LORENTZ_104, photon,
                                      eta).loss_weight
            ref = _loss_weight_40_digits(params, pulse, LORENTZ_104, photon,
                                         eta)
            assert 0.0 < ref < 1.0
            assert got == pytest.approx(ref, rel=1e-13, abs=0.0), gamma


def test_swap_transfer_twin_matches_closed_form():
    params = SystemParams(lambda_L=1.6, lambda_R=1.6, theta_L=0.9,
                          theta_R=0.1, gamma=0.7, delta_e=-1.0)
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = unit_qubit(AtomQubit, rng.normal(size=2) + 1j * rng.normal(size=2))
        c = unit_qubit(PhotonQubit,
                       rng.normal(size=2) + 1j * rng.normal(size=2))
        sim = swap_transfer_fidelity(a, c, params, GAUSS)
        closed = transfer_fidelity(params, GAUSS, atom=a, photon=c)
        assert sim == pytest.approx(closed, abs=1e-10)


@pytest.mark.parametrize("pulse", [GAUSS, LORENTZ], ids=["gaussian",
                                                         "lorentzian"])
def test_swap_transfer_fidelity_matches_the_long_way_off_balance(pulse):
    # the node sums against the scattered (2, 2, n) state, where no closed
    # form holds: coupling ratios from 0.1 to 10, gamma = 0 among the
    # draws, random phases and random atom and photon qubits
    rng = np.random.default_rng(26)

    def qubit(kind):
        return unit_qubit(kind, rng.normal(size=2) + 1j * rng.normal(size=2))

    for draw, ratio in enumerate(np.geomspace(0.1, 10.0, 24)):
        lam = rng.uniform(0.3, 4.0)
        params = SystemParams(
            lambda_L=ratio * lam, lambda_R=lam,
            theta_L=rng.uniform(-np.pi, np.pi),
            theta_R=rng.uniform(-np.pi, np.pi), kappa=rng.uniform(0.5, 3.0),
            gamma=0.0 if draw % 3 == 0 else rng.uniform(0.05, 2.0),
            delta_e=rng.uniform(-2.0, 2.0))
        atom, photon = qubit(AtomQubit), qubit(PhotonQubit)
        got = swap_transfer_fidelity(atom, photon, params, pulse)
        ref = longway.swap_transfer_fidelity(atom, photon, params, pulse)
        assert got == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_pair_state_bookkeeping():
    pair = PhotonPair(0.6, 0.8j)
    assert pair.norm_sq == pytest.approx(1.0)
    assert PhotonPair(1.0, 1.0).norm_sq == pytest.approx(2.0)
    # an unnormalized pair is refused in both modes, after the efficiencies
    # and the cavities are checked
    wide = PulseSpec(kappa_p=1e200)
    for mode in ("postselect", "swap"):
        with pytest.raises(InvalidField, match="not normalized"):
            entanglement_storage(PhotonPair(1.0, 1.0), LOSSY, OTHER, GAUSS,
                                 LORENTZ, mode=mode)
        with pytest.raises(InvalidField, match="efficiency"):
            entanglement_storage(PhotonPair(1.0, 1.0), LOSSY, OTHER, GAUSS,
                                 wide, detector_2=0.0, mode=mode)
        with pytest.raises(NonFiniteIntegrand, match="overflows"):
            entanglement_storage(PhotonPair(1.0, 1.0), LOSSY, OTHER, GAUSS,
                                 wide, mode=mode)


def test_pair_scattering_preserves_trace_including_loss():
    # swap mode reports the surviving branches: all of them without decay,
    # a visible share less with it
    other = SystemParams(lambda_L=2.0, lambda_R=1.0, gamma=0.4, delta_e=-0.7)
    clean_1 = SystemParams(lambda_L=1.2, lambda_R=2.1, gamma=0.0)
    clean_2 = SystemParams(lambda_L=2.0, lambda_R=1.0, gamma=0.0)
    for params_1, params_2, lossy in ((LOSSY, other, True),
                                      (clean_1, clean_2, False)):
        for pulse_2 in (GAUSS, LORENTZ):
            kept = entanglement_storage(PhotonPair(0.6, 0.8j), params_1,
                                        params_2, GAUSS, pulse_2,
                                        mode="swap").probability
            if lossy:
                assert 0.0 < kept < 1.0 - 1e-3
            else:
                assert kept == pytest.approx(1.0, rel=0.0, abs=1e-12)


NODE_SUMS = ("norm", "mean", "converted", "kept")


@pytest.mark.parametrize("mode", ["postselect", "swap"])
def test_pair_storage_takes_each_cavitys_sums_once(monkeypatch, mode):
    # every figure is arithmetic on the cavities' node sums: each distinct
    # cavity takes each sum the mode needs once, and identical nodes share
    # theirs
    calls = []
    for name in NODE_SUMS:
        def counting(cav, name=name, func=getattr(Cavity, name).func):
            calls.append((id(cav), name))
            return func(cav)
        prop = cached_property(counting)
        prop.__set_name__(Cavity, name)
        monkeypatch.setattr(Cavity, name, prop)
    needed = {"norm", "mean", "converted"} | ({"kept"} if mode == "swap"
                                              else set())
    for params_2, pulse_2, cavities in ((LOSSY, GAUSS, 1), (OTHER, GAUSS, 2),
                                        (LOSSY, LORENTZ, 2)):
        calls.clear()
        entanglement_storage(PhotonPair(0.6, 0.8j), LOSSY, params_2, GAUSS,
                             pulse_2, mode=mode)
        assert len(set(calls)) == len(calls) == cavities * len(needed)
        assert {name for _, name in calls} == needed


@pytest.mark.parametrize("channels", [1, 2])
def test_gram_contraction_matches_the_einsum_reference(channels):
    # the stacked reference's (X w) X^H product per side, on random stacks
    # over unequal grids: the same sums as the einsums, taken in another
    # order
    rng = np.random.default_rng(17)

    def stack(rank, n):
        shape = (rank, 2, channels, n)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    for rank, n_1, n_2 in ((2, 64, 64), (2, 104, 1040), (3, 520, 37)):
        left, right = stack(rank, n_1), stack(rank, n_2)
        w_1, w_2 = rng.uniform(0.0, 2.0, n_1), rng.uniform(0.0, 2.0, n_2)
        got = longway.pair_density(left, right, w_1, w_2)
        ref = _einsum_pair_density(left, right, w_1, w_2)
        assert got.shape == ref.shape == (2, 2, 2, 2)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def _einsum_pair_density(left, right, w_1, w_2):
    """Each side's Gram matrix by a three-operand einsum, then their product
    summed over r and s."""
    gram_1 = np.einsum("rapj,scpj,j->rsac", left, np.conjugate(left), w_1)
    gram_2 = np.einsum("rbqj,sdqj,j->rsbd", right, np.conjugate(right), w_2)
    return np.einsum("rsac,rsbd->abcd", gram_1, gram_2)


WIDE_GAUSS = PulseSpec(profile=Profile.GAUSSIAN, delta_p=-0.4, kappa_p=0.7)


@pytest.mark.parametrize("mode", ["postselect", "swap"])
@pytest.mark.parametrize("pulses", PULSE_PAIRS + [(GAUSS, WIDE_GAUSS)],
                         ids=PULSE_IDS + ["unequal"])
@pytest.mark.parametrize("cavities",
                         [(LOSSY, OTHER), (CLEAN_1, CLEAN_2), (LOSSY, LOSSY)],
                         ids=["lossy", "lossless", "equal"])
def test_pair_storage_matches_the_stacked_reference(cavities, pulses, mode):
    # the node sums against the rank-2 factor stacks, scattered and
    # contracted: every figure agrees to rounding, for equal nodes (one
    # shared cavity) and for nodes that differ in params, pulse or profile
    (params_1, params_2), (pulse_1, pulse_2) = cavities, pulses
    for pair in (PhotonPair(0.6, 0.8j), PhotonPair(1.0, 0.0),
                 PhotonPair(0.0, 1.0)):
        for detectors in ((1.0, 1.0), (0.9, 0.6)):
            out = entanglement_storage(pair, params_1, params_2, pulse_1,
                                       pulse_2, DEFAULT_QUAD, *detectors,
                                       mode=mode)
            prob, fid = longway.stacked_entanglement_storage(
                pair, params_1, params_2, pulse_1, pulse_2, DEFAULT_QUAD,
                *detectors, mode)
            assert out.mode == mode
            assert out.probability == pytest.approx(prob, rel=1e-14, abs=0.0)
            assert out.fidelity == pytest.approx(fid, rel=1e-14, abs=0.0)


# Every case of the thread-count check: (pulse profile, Lorentzian node
# count, pair mode or memory readout).  At 26 x 1024 nodes a BLAS dot or
# matrix product over the nodes is long enough to be split between
# threads; the cycle, the swap and the pair take no such product, only
# pairwise sums, so none of their outputs may move.
_THREAD_CASES = [(profile, n, mode) for profile in ("gaussian", "lorentzian")
                 for n in (1040, 26 * 1024) for mode in ("postselect", "swap")]
_THREAD_CYCLES = [(profile, n, readout)
                  for profile in ("gaussian", "lorentzian")
                  for n in (1040, 26 * 1024)
                  for readout in ("projective", "third_photon")]

_THREAD_PROBE = """
from cavqmem import (AtomQubit, PhotonPair, PhotonQubit, PulseSpec,
                     QuadratureConfig, SystemParams, entanglement_storage,
                     run_memory_protocol, swap_transfer_fidelity)
one = SystemParams(lambda_L=1.2, lambda_R=2.1, theta_L=0.4, gamma=0.8,
                   delta_e=0.7)
two = SystemParams(lambda_L=2.0, lambda_R=1.0, theta_L=-1.1, gamma=0.4,
                   k_c=-0.2, delta_e=-0.7)
for profile, n, mode in {cases!r}:
    pulse = PulseSpec(profile=profile, delta_p=0.1, kappa_p=0.3)
    # an identical second node, then another one
    for params, other in ((one, pulse), (two, PulseSpec(kappa_p=0.2))):
        out = entanglement_storage(PhotonPair(0.6, 0.8j), one, params, pulse,
                                   other, QuadratureConfig(n_lorentz=n), 0.9,
                                   0.7, mode)
        print(repr(out.probability), repr(out.fidelity))
for profile, n, readout in {cycles!r}:
    pulse = PulseSpec(profile=profile, delta_p=0.1, kappa_p=0.3)
    print(run_memory_protocol(one, pulse, QuadratureConfig(n_lorentz=n),
                              PhotonQubit(0.6, 0.8j), 0.9, readout))
    print(repr(swap_transfer_fidelity(AtomQubit(0.6, 0.8j),
                                      PhotonQubit(0.28, -0.96), two, pulse,
                                      QuadratureConfig(n_lorentz=n))))
"""


def test_pair_storage_does_not_depend_on_the_blas_thread_count():
    # node sums are pairwise sums, never a BLAS product, whose threads may
    # split a long sum: outputs of the pair storage, the memory cycle and
    # the swap must not move, bit for bit, with the thread count
    src = str(Path(statesim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path,
               "OPENBLAS_NUM_THREADS": threads}
        run = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE.format(
                cases=_THREAD_CASES, cycles=_THREAD_CYCLES)],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        outputs.append(run.stdout)
    assert outputs[0].count("\n") == 2 * (len(_THREAD_CASES)
                                           + len(_THREAD_CYCLES))
    assert outputs[0] == outputs[1]


def test_heralded_pair_storage_matches_single_qubit_fidelity():
    # identical cavities: the heralded two-node fidelity collapses to the
    # single-memory fidelity, for any pair amplitudes
    params = SystemParams(lambda_L=1.7, lambda_R=1.3, theta_L=0.2,
                          theta_R=-0.5, gamma=0.8, delta_e=1.5)
    f_qm = qm_fidelity(params, GAUSS)
    for pair in (PhotonPair(0.6, 0.8j), PhotonPair(1.0, 0.0),
                 PhotonPair(math.sqrt(0.5), -math.sqrt(0.5))):
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
    pair = PhotonPair(math.sqrt(0.5), math.sqrt(0.5))
    out = entanglement_storage(pair, params, params, GAUSS, GAUSS, mode="swap")
    assert out.mode == "swap"
    lo = abs(t_lr_mean) ** 2
    hi = float(np.real(t2_mean))
    assert lo - 1e-12 <= out.fidelity <= hi + 1e-12
    # balanced couplings: the incoherent bound is the swap fidelity itself
    f_swap = metric_columns(point_rows([(params, GAUSS)])).F_swap[0]
    assert hi == pytest.approx(f_swap, abs=1e-12)


def test_ideal_pair_storage_is_nearly_perfect():
    params, pulse = ideal_point()
    bell = PhotonPair(math.sqrt(0.5), math.sqrt(0.5))
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
    # a pulse too wide for double precision: every entry point refuses it
    # (no NaN, and no RuntimeWarning, an error in this suite)
    for profile in Profile:
        wide = PulseSpec(profile=profile, kappa_p=1e200)
        entries = [
            lambda: run_memory_protocol(params, wide),
            lambda: swap_transfer_fidelity(ATOM_START, BALANCED, params, wide),
            *(lambda mode=mode: entanglement_storage(
                PhotonPair(1.0, 0.0), params, params, pulse, wide, mode=mode)
              for mode in ("postselect", "swap"))]
        for entry in entries:
            with pytest.raises(NonFiniteIntegrand, match="overflows"):
                entry()


# Dense reference: the two-grid code as it stood before the states were kept
# as factors, with every n1 x n2 array built in full, on the envelopes and
# plain weights of `longway.envelope`.  Test-only.

def _dense_norm(amps, w_1, w_2):
    return float(np.real(np.einsum("abpqjk,abpqjk,j,k->", amps,
                                   np.conjugate(amps), w_1, w_2)))


def _dense_prepare_pair(pair, f_1, f_2):
    amps = np.zeros((2, 2, 2, 2, f_1.size, f_2.size), dtype=complex)
    envelope = f_1[:, None] * f_2[None, :]
    amps[ATOM_R, ATOM_R, POL_L, POL_R] = pair.c_LR * envelope
    amps[ATOM_R, ATOM_R, POL_R, POL_L] = pair.c_RL * envelope
    return amps


def _dense_scatter_pair(amps, k_1, k_2, params_1, params_2):
    """The amplitudes after each photon met its cavity, at nodes k_1 and
    k_2."""
    psi = amps.copy()
    t_ll, t_rr, t_lr, t_rl = t_elements(k_1, params_1)
    bright_l = psi[ATOM_L, :, POL_L, :].copy()
    bright_r = psi[ATOM_R, :, POL_R, :].copy()
    psi[ATOM_L, :, POL_L, :] = (t_ll[None, None, :, None] * bright_l
                                + t_lr[None, None, :, None] * bright_r)
    psi[ATOM_R, :, POL_R, :] = (t_rl[None, None, :, None] * bright_l
                                + t_rr[None, None, :, None] * bright_r)
    t_ll, t_rr, t_lr, t_rl = t_elements(k_2, params_2)
    bright_l = psi[:, ATOM_L, :, POL_L].copy()
    bright_r = psi[:, ATOM_R, :, POL_R].copy()
    psi[:, ATOM_L, :, POL_L] = (t_ll[None, None, None, :] * bright_l
                                + t_lr[None, None, None, :] * bright_r)
    psi[:, ATOM_R, :, POL_R] = (t_rl[None, None, None, :] * bright_l
                                + t_rr[None, None, None, :] * bright_r)
    return psi


def _dense_entanglement_storage(pair, params_1, params_2, pulse_1, pulse_2,
                                quad, detector_1, detector_2, mode):
    """Returns (probability, fidelity)."""
    grid_1 = build_grid(pulse_1, quad, k_c=params_1.k_c)
    grid_2 = build_grid(pulse_2, quad, k_c=params_2.k_c)
    (f_1, w1), (f_2, w2) = (longway.envelope(pulse, quad)
                            for pulse in (pulse_1, pulse_2))
    envelope = f_1[:, None] * f_2[None, :]
    psi = _dense_scatter_pair(_dense_prepare_pair(pair, f_1, f_2), grid_1.k,
                              grid_2.k, params_1, params_2)
    if mode == "swap":
        rho4 = np.einsum("abpqjk,cdpqjk,j,k->abcd", psi, np.conjugate(psi),
                         w1, w2)
        target = np.zeros((2, 2), dtype=complex)
        target[ATOM_R, ATOM_L] = pair.c_LR
        target[ATOM_L, ATOM_R] = pair.c_RL
        fidelity = float(np.real(np.einsum("ab,abcd,cd->",
                                           np.conjugate(target), rho4, target)))
        return float(np.real(np.einsum("abab->", rho4))), fidelity
    root_eta = math.sqrt(detector_1 * detector_2)
    sel = psi[:, :, POL_L, POL_L] * root_eta
    prob = float(np.real(np.einsum("abjk,abjk,j,k->", sel, np.conjugate(sel),
                                   w1, w2)))
    overlap = np.einsum("jk,jk,j,k->", np.conjugate(envelope) * root_eta,
                        np.conjugate(pair.c_RL) * sel[ATOM_L, ATOM_R]
                        + np.conjugate(pair.c_LR) * sel[ATOM_R, ATOM_L],
                        w1, w2)
    weight = (detector_1 * float(np.real(grid_1.average(1.0)))
              * detector_2 * float(np.real(grid_2.average(1.0))))
    return prob, float(abs(overlap) ** 2 / (weight * prob))


def _dense_retrieve(photon, eta, params, pulse, quad):
    """Returns (P_L, fidelity, loss_weight) of the memory cycle of `photon`
    at efficiency `eta`, in the detuning coordinates of `Cavity` (nodes at
    k - k_c): the storage branches are built on the storage nodes j, and
    each released photon on the retrieval nodes a; the fidelity is against
    the input photon, and the loss adds the storage pass's decay to the
    retrieval's."""
    grid = build_grid(pulse, quad)
    f, w = longway.envelope(pulse, quad)
    _, t_rr, t_lr, _ = t_elements(grid.k, replace(params, k_c=0.0))
    # atom in |L>: the converted branch; atom in |R>: the dark one
    beta_l = math.sqrt(eta) * photon.c_R * t_lr * f
    beta_r = math.sqrt(eta) * photon.c_L * f
    p_k_l = float(np.sum(w * (np.abs(beta_l) ** 2 + np.abs(beta_r) ** 2)))
    gam_l = beta_r[:, None] * (t_lr * f)[None, :]
    gam_r = beta_l[:, None] * f[None, :]
    mass = float(np.real(
        np.einsum("ja,ja,j,a->", gam_l, np.conjugate(gam_l), w, w)
        + np.einsum("ja,ja,j,a->", gam_r, np.conjugate(gam_r), w, w)))
    ovl = (gam_l @ (w * np.conjugate(photon.c_L * f))
           + gam_r @ (w * np.conjugate(photon.c_R * f)))
    fidelity = float(np.real(np.sum(w * np.abs(ovl) ** 2)) / mass)
    survive = float(np.real(np.sum(
        w * np.abs(f) ** 2 * (np.abs(t_rr) ** 2 + np.abs(t_lr) ** 2))))
    if params.gamma == 0.0:
        return mass / p_k_l, fidelity, 0.0
    stored_decay = abs(photon.c_R) ** 2 * (1.0 - survive)
    decay = float(np.sum(w * np.abs(beta_r) ** 2) * (1.0 - survive))
    return mass / p_k_l, fidelity, stored_decay + decay / p_k_l


@pytest.mark.parametrize("cavities",
                         [(LOSSY, OTHER), (CLEAN_1, CLEAN_2), (LOSSY, LOSSY)],
                         ids=["lossy", "lossless", "equal"])
@pytest.mark.parametrize("pulses", PULSE_PAIRS, ids=PULSE_IDS)
def test_factored_pair_matches_dense_reference(pulses, cavities):
    (pulse_1, pulse_2), (params_1, params_2) = pulses, cavities
    pair = PhotonPair(0.6, 0.8j)
    cav_1 = Cavity.of(params_1, pulse_1, LORENTZ_104)
    cav_2 = Cavity.of(params_2, pulse_2, LORENTZ_104)
    (f_1, w_1), (f_2, w_2) = (longway.envelope(pulse, LORENTZ_104)
                              for pulse in (pulse_1, pulse_2))
    assert {f_1.size, f_2.size} <= {64, 104}
    dense = _dense_prepare_pair(pair, f_1, f_2)
    prepared = longway.prepare_pair(pair, f_1, f_2)
    norm = longway.pair_norm(*prepared, w_1, w_2)
    assert norm == pytest.approx(_dense_norm(dense, w_1, w_2), abs=1e-12)
    # the cavities' grids are in detuning coordinates (nodes at k - k_c)
    scattered = _dense_scatter_pair(dense, cav_1.grid.k, cav_2.grid.k,
                                    replace(params_1, k_c=0.0),
                                    replace(params_2, k_c=0.0))
    loss = _dense_norm(dense, w_1, w_2) - _dense_norm(scattered, w_1, w_2)
    left, right = longway.scatter_pair(prepared, cav_1, cav_2)
    kept = longway.pair_norm(left, right, w_1, w_2)
    assert kept == pytest.approx(_dense_norm(scattered, w_1, w_2), abs=1e-12)
    assert norm - kept == pytest.approx(loss, abs=1e-12)
    amps = np.einsum("rapj,rbqk->abpqjk", left, right)
    np.testing.assert_allclose(amps, scattered, rtol=0.0, atol=1e-12)
    for mode in ("postselect", "swap"):
        for detectors in ((1.0, 1.0), (0.9, 0.6)):
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
    record = run_memory_protocol(params, pulse, LORENTZ_104, BALANCED, 0.6)
    prob, fid, loss = _dense_retrieve(BALANCED, 0.6, params, pulse,
                                      LORENTZ_104)
    assert record.p_l == pytest.approx(prob, abs=1e-12)
    assert record.fidelity == pytest.approx(fid, abs=1e-12)
    assert record.loss_weight == pytest.approx(loss, abs=1e-12)
    assert (record.loss_weight == 0.0) == (params.gamma == 0.0)


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
