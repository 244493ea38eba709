"""End-to-end acceptance gate: one test per published performance claim.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Frozen numeric targets come from independent adaptive
integration (scipy.integrate.quad), not from the package's own quadrature.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from cavqmem import invariants, metrics
from cavqmem.cli import fig2_rows, fig3_rows, fig4_rows
from cavqmem.params import (
    PhotonQubit,
    Profile,
    PulseSpec,
    SystemParams,
    point_rows,
)
from cavqmem.scattering import t_elements
from cavqmem.spectral import spectral_average
from cavqmem.statesim import (
    PhotonPair,
    entanglement_storage,
    run_memory_protocol,
)


def balanced_point(coop, width_ratio, profile=Profile.GAUSSIAN, delta_e=0.0,
                   delta_p=0.0):
    lam = math.sqrt(coop)  # kappa = 2, gamma = 1
    params = SystemParams(lambda_L=lam, lambda_R=lam, delta_e=delta_e)
    pulse = PulseSpec(profile=profile, delta_p=delta_p,
                      kappa_p=width_ratio * 2.0)
    return params, pulse


def test_a1_narrow_gaussian_pulse_reaches_three_nines_memory_fidelity():
    params, pulse = balanced_point(20.0, 0.05)
    assert metrics.qm_fidelity(params, pulse) >= 0.999


def test_a2_bandwidth_limited_memory_fidelity_plateau():
    for coop in (10.0, 100.0):
        params, pulse = balanced_point(coop, 0.1)
        assert metrics.qm_fidelity(params, pulse) == pytest.approx(0.995,
                                                                   abs=0.003)


def test_a3_leading_order_swap_fidelity_and_exact_detuning_tuning():
    params, pulse = balanced_point(200.0, 1e-3)
    f_swap = metrics.metric_columns(point_rows([(params, pulse)])).F_swap[0]
    assert abs(f_swap - 0.99) <= 1e-3
    assert abs(f_swap - metrics.swap_fidelity_leading(params, pulse)) <= 1e-3
    # retuning the carrier to delta_p = -(kappa/lambda)^2 delta_e removes the
    # detuning penalty from the leading form identically
    detuned, _ = balanced_point(200.0, 1e-3, delta_e=3.7)
    tuned = PulseSpec(delta_p=-detuned.kappa**2 * detuned.delta_e
                      / detuned.lambda_sq, kappa_p=pulse.kappa_p)
    lossy_floor = 1.0 - 2.0 * detuned.kappa * detuned.gamma / detuned.lambda_sq
    assert metrics.swap_fidelity_leading(detuned, tuned) == lossy_floor


def test_a4_state_oracle_matches_closed_forms_across_random_points():
    rng = np.random.default_rng(41019)
    worst = invariants.oracle_equivalence([
        (*invariants.draw_equivalence_point(rng),
         [invariants.random_photon_qubit(rng) for _ in range(3)])
        for _ in range(20)])
    assert set(worst) == {"F_qm", "P_kL", "P_L", "P_qm", "fidelity"}
    for key, value in worst.items():
        assert value <= 1e-6, f"{key} oracle gap {value:.3e}"


def test_a5_exact_scattering_and_average_identities():
    rng = np.random.default_rng(55011)

    def sample_params(gamma=None):
        lam = math.sqrt(10.0 ** rng.uniform(-1.0, 1.5))
        xi = rng.uniform(0.02, math.pi / 2 - 0.02)
        return SystemParams(
            lambda_L=lam * math.sin(xi), lambda_R=lam * math.cos(xi),
            theta_L=rng.uniform(-math.pi, math.pi),
            theta_R=rng.uniform(-math.pi, math.pi),
            kappa=10.0 ** rng.uniform(-0.5, 0.7),
            gamma=rng.uniform(0.0, 3.0) if gamma is None else gamma,
            k_c=rng.uniform(-2.0, 2.0), delta_e=rng.uniform(-8.0, 8.0))

    # pointwise identities, 100 parameter sets x 100 wavenumbers each
    lossy, lossless = [], []
    for _ in range(100):
        params = sample_params()
        k = params.k_c + params.kappa * rng.uniform(-15.0, 15.0, 100)
        lossy.append((params, k))
        lossless.append((sample_params(gamma=0.0), k))
    residuals = invariants.scattering_identities(lossy)
    assert max(residuals.values()) < 1e-12, residuals
    assert invariants.lossless_unitarity(lossless) < 1e-12

    # averaged identities on 1e4 random parameter sets (plus a slower
    # Lorentzian-profile sprinkle): success-probability factorization and
    # coupling-ratio invariance of the memory fidelity
    points, groups = [], []
    for i in range(10_200):
        profile = Profile.LORENTZIAN if i >= 10_000 else Profile.GAUSSIAN
        params = sample_params(gamma=rng.uniform(0.0, 3.0))
        pulse = PulseSpec(profile=profile, delta_p=rng.uniform(-2.0, 2.0),
                          kappa_p=params.kappa * 10.0 ** rng.uniform(-2.0,
                                                                     -0.3))
        points.append((params, pulse, rng.uniform(0.1, 1.0)))
        groups.append([(params, pulse)] + [
            (replace(params, lambda_L=params.lam * math.sin(xi),
                     lambda_R=params.lam * math.cos(xi)), pulse)
            for xi in (0.3, 1.2)])
    assert invariants.success_dual_route(points) < 1e-12
    assert invariants.coupling_ratio_invariance(groups) < 1e-12


def test_a6_curve_family_orderings():
    # memory fidelity never drops below the swap fidelity
    for _, _, f_qm, f_swap in zip(*fig2_rows()):
        assert f_qm >= f_swap
    # the Gaussian envelope is never the worse profile at equal bandwidth
    by_profile = {}
    for x, profile, case, f_qm in zip(*fig3_rows()):
        by_profile[(profile, case, x)] = f_qm
    for (profile, case, x), value in by_profile.items():
        if profile == "lorentzian":
            assert by_profile[("gaussian", case, x)] >= value
    # success probability peaks at balanced couplings, and grows with the
    # cooperativity at every coupling ratio
    curves = {}
    for ratio, coop, case, p_qm in zip(*fig4_rows()):
        curves.setdefault((case, coop), []).append((ratio, p_qm))
    for (case, coop), points in curves.items():
        peak_ratio, _ = max(points, key=lambda rp: rp[1])
        assert peak_ratio == 1.0
    for ratio, coop, case, p_qm in zip(*fig4_rows()):
        if coop > 1.0:
            weaker = curves[(case, coop / 10.0)]
            match = [p for r, p in weaker if r == ratio]
            assert len(match) == 1 and p_qm >= match[0]


def test_a7_two_cavity_storage_matches_single_memory_and_swap_bounds():
    params = SystemParams(lambda_L=1.9, lambda_R=1.4, theta_L=0.3,
                          theta_R=-0.8, gamma=0.9, delta_e=2.0)
    pulse = PulseSpec(kappa_p=0.4)
    f_qm = metrics.qm_fidelity(params, pulse)
    rng = np.random.default_rng(7303)
    for _ in range(4):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        pair = PhotonPair(z[0], z[1]).normalized()
        heralded = entanglement_storage(pair, params, params, pulse, pulse,
                                        detector_1=0.8, detector_2=0.6)
        assert abs(heralded.fidelity - f_qm) <= 1e-8

    balanced = SystemParams(lambda_L=1.6, lambda_R=1.6, gamma=0.7,
                            delta_e=1.0)
    # bounds straight from the spectral averages of the flip element
    t_lr = lambda k: t_elements(k, balanced)[2]
    lo = abs(spectral_average(t_lr, pulse)) ** 2
    hi = float(np.real(spectral_average(lambda k: np.abs(t_lr(k)) ** 2,
                                        pulse)))
    swap = entanglement_storage(PhotonPair(1.0, 1.0).normalized(), balanced,
                                balanced, pulse, pulse, mode="swap")
    assert lo - 1e-12 <= swap.fidelity <= hi + 1e-12


def test_a8_ideal_limit_probabilities_and_heralded_composition():
    lam = 1000.0  # cooperativity 1e6 at kappa = 2, gamma = 1
    params = SystemParams(lambda_L=lam, lambda_R=lam)
    pulse = PulseSpec(kappa_p=2e-4)  # kappa_p / kappa = 1e-4
    photon = PhotonQubit(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    record = run_memory_protocol(params, pulse, photon=photon)
    assert record.p_k_l >= 0.999
    assert record.p_l >= 0.999
    assert record.p_qm >= 0.999
    assert record.fidelity >= 0.999

    p_qm = metrics.cycle_closed_forms(params, pulse)[0]["P_qm"]
    heralded = run_memory_protocol(params, pulse, photon=photon,
                                   readout="third_photon")
    assert abs(heralded.p_readout - p_qm) <= 1e-8
    assert abs(heralded.p_total - p_qm**2) <= 1e-8
