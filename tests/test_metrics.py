"""Closed-form metrics against frozen adaptive-integration oracles.

Every ORACLE literal below was produced by scipy.integrate.quad on the
analytic integrands, independently of the package's fixed quadrature rules.
"""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from cavqmem import cli, metrics
from cavqmem.cli import SweepAxis, SweepSpec, sweep_rows
from cavqmem.invariants import (
    coupling_ratio_invariance,
    draw_equivalence_point,
    exact_route_agreement,
    success_dual_route,
)
from cavqmem.errors import (DegenerateDenominator, InvalidField,
                            NonFiniteIntegrand, PrecisionLoss,
                            UnequalCouplings, ZeroScatteringWeight)
from cavqmem.metrics import (
    CHUNK_ROWS,
    cycle_closed_forms,
    metric_columns,
    qm_fidelity,
    spectral_moments,
    swap_fidelity_leading,
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
from cavqmem.scattering import pole_expansion, scattered_amplitude
from cavqmem.spectral import DEFAULT_QUAD, spectral_average


def family_point(coop, width_ratio, profile=Profile.GAUSSIAN, delta_e=0.0,
                 delta_p=0.0):
    """kappa = 2, gamma = 1, balanced couplings at the given cooperativity."""
    lam = math.sqrt(coop)
    params = SystemParams(lambda_L=lam, lambda_R=lam, delta_e=delta_e)
    pulse = PulseSpec(profile=profile, delta_p=delta_p,
                      kappa_p=width_ratio * 2.0)
    return params, pulse


def row_of(params, pulse, **kwargs):
    """The `metric_columns` row of one point, as Python scalars."""
    columns = metric_columns(point_rows([(params, pulse)]), **kwargs)
    return {name: column[0].item()
            for name, column in columns._asdict().items()}


def cycle_of(params, pulse, photon=PhotonQubit(0.0, 1.0), detector=1.0):
    """The `cycle_closed_forms` of one point and one input qubit."""
    return cycle_closed_forms(params, pulse, photons=[photon],
                              detector=detector)[0]


class TestFrozenOracles:
    # ORACLE F_qm, Gaussian pulse, C = 20, kappa_p/kappa = 0.05
    def test_memory_fidelity_gaussian_narrow(self):
        params, pulse = family_point(20.0, 0.05)
        assert qm_fidelity(params, pulse) == pytest.approx(
            0.9990852267621237, abs=1e-12)

    # ORACLE F_qm, Gaussian pulse, kappa_p/kappa = 0.1, C = 10 and C = 100
    def test_memory_fidelity_gaussian_moderate_width(self):
        params, pulse = family_point(10.0, 0.1)
        assert qm_fidelity(params, pulse) == pytest.approx(
            0.9974018650177763, abs=1e-12)
        params, pulse = family_point(100.0, 0.1)
        assert qm_fidelity(params, pulse) == pytest.approx(
            0.995361662613666, abs=1e-12)

    # ORACLE F_swap, Gaussian pulse, C = 200, kappa_p/kappa = 1e-3
    def test_swap_fidelity_near_narrow_limit(self):
        params, pulse = family_point(200.0, 1e-3)
        assert row_of(params, pulse)["F_swap"] == pytest.approx(
            0.9900740178110451, abs=1e-12)
        assert swap_fidelity_leading(params, pulse) == pytest.approx(
            0.99, abs=1e-15)

    # ORACLE F_qm, Lorentzian pulse, C = 20, kappa_p/kappa = 0.1 and 0.01
    def test_memory_fidelity_lorentzian(self):
        params, pulse = family_point(20.0, 0.1, Profile.LORENTZIAN)
        assert qm_fidelity(params, pulse) == pytest.approx(
            0.9372720120163074, abs=1e-11)
        params, pulse = family_point(20.0, 0.01, Profile.LORENTZIAN)
        assert qm_fidelity(params, pulse) == pytest.approx(
            0.9931317236649821, abs=1e-11)

    # ORACLE [h]_f, Lorentzian pulse: resonant and strongly detuned
    def test_mean_scattered_amplitude_lorentzian(self):
        params, pulse = family_point(20.0, 0.1, Profile.LORENTZIAN)
        mean = spectral_average(lambda k: scattered_amplitude(k, params), pulse)
        assert mean == pytest.approx(-0.8869179600886916, abs=1e-11)

        params, pulse = family_point(20.0, 0.2, Profile.LORENTZIAN,
                                     delta_e=10.0)
        mean = spectral_average(lambda k: scattered_amplitude(k, params), pulse)
        assert mean == pytest.approx(
            -0.6813408803611194 + 0.3336868524383667j, abs=1e-11)


def test_tuned_carrier_cancels_detuning_penalty_exactly():
    # delta_p = -(kappa/lambda)^2 delta_e makes the penalty term identically
    # zero in floating point when kappa is a power of two
    for delta_e in (3.7, -8.25, 1e-3):
        params = SystemParams(lambda_L=3.0, lambda_R=3.0, kappa=2.0,
                              delta_e=delta_e)
        pulse = PulseSpec(delta_p=-params.kappa**2 * delta_e / params.lambda_sq,
                          kappa_p=0.01)
        expected = 1.0 - 2.0 * params.kappa * params.gamma / params.lambda_sq
        assert swap_fidelity_leading(params, pulse) == expected


def test_memory_fidelity_ignores_coupling_ratio():
    pulse = PulseSpec(kappa_p=0.3)
    # h depends on the couplings only through lambda^2
    assert coupling_ratio_invariance([[
        (SystemParams(lambda_L=1.0, lambda_R=1.5), pulse),
        (SystemParams(lambda_L=1.5, lambda_R=1.0), pulse)]]) == 0.0


def test_success_probability_dual_route():
    params = SystemParams(lambda_L=1.0, lambda_R=2.0, delta_e=1.5)
    pulse = PulseSpec(profile=Profile.LORENTZIAN, kappa_p=0.4, delta_p=0.2)
    assert success_dual_route([(params, pulse, 0.7)]) < 1e-12
    assert cycle_of(params, pulse, detector=0.7)["P_qm"] == pytest.approx(
        0.7 * params.sin_2xi**2 * row_of(params, pulse)["F_swap"], abs=1e-12)


def test_success_probability_validates_efficiency():
    params, pulse = family_point(10.0, 0.1)
    for eta in (0.0, -0.2, 1.0001):
        with pytest.raises(InvalidField):
            metric_columns(point_rows([(params, pulse)]), eta=eta)


def test_vanishing_scattering_weight_is_reported():
    # with lambda_L = 0 the polarization-flip element is identically zero,
    # so conditioning on a |k_R>-only input has nothing to normalize by
    params = SystemParams(lambda_L=0.0, lambda_R=2.0)
    pulse = PulseSpec(kappa_p=0.1)
    photon = PhotonQubit(0.0, 1.0)
    with pytest.raises(ZeroScatteringWeight):
        row_of(params, pulse, photon=photon)
    with pytest.raises(ZeroScatteringWeight):
        cycle_of(params, pulse, photon=photon)
    # a |k_L> input is stored with certainty and never retrieved, so only
    # the retrieved photon's fidelity is undefined
    photon = PhotonQubit(1.0, 0.0)
    assert row_of(params, pulse, photon=photon)["P_L"] == 0.0
    with pytest.raises(ZeroScatteringWeight):
        cycle_of(params, pulse, photon=photon)


qubit_angles = st.tuples(st.floats(min_value=0.0, max_value=math.pi / 2),
                         st.floats(min_value=-math.pi, max_value=math.pi))


def qubit_from(angles) -> PhotonQubit:
    mix, phase = angles
    return PhotonQubit(math.cos(mix), math.sin(mix) * np.exp(1j * phase))


@settings(deadline=None, max_examples=40)
@given(qubit_angles, st.floats(min_value=1.0, max_value=60.0),
       st.floats(min_value=0.05, max_value=0.5))
def test_retrieved_fidelity_reduces_to_memory_fidelity_form(angles, coop, x):
    params, pulse = family_point(coop, x)
    photon = qubit_from(angles)
    f_qm = qm_fidelity(params, pulse)
    full = cycle_of(params, pulse, photon)["fidelity"]
    cl2 = abs(photon.c_L) ** 2
    assert full == pytest.approx(f_qm + (1.0 - f_qm) * (1.0 - cl2) ** 2,
                                 abs=1e-12)
    assert full >= f_qm - 1e-12


def test_retrieved_fidelity_endpoints():
    params, pulse = family_point(10.0, 0.2)
    f_qm = qm_fidelity(params, pulse)
    # pure |k_R> input: the stored excitation sits in |L> and the retrieval
    # pulse passes through it untouched
    assert cycle_of(params, pulse, PhotonQubit(0.0, 1.0))["fidelity"] == \
        pytest.approx(1.0, abs=1e-12)
    # pure |k_L> input rides the scattering channel twice
    assert cycle_of(params, pulse, PhotonQubit(1.0, 0.0))["fidelity"] == \
        pytest.approx(f_qm, abs=1e-12)
    balanced = PhotonQubit(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    assert cycle_of(params, pulse, balanced)["fidelity"] == pytest.approx(
        f_qm + (1.0 - f_qm) / 4.0, abs=1e-12)


def test_qubit_must_be_normalized():
    params, pulse = family_point(10.0, 0.2)
    with pytest.raises(ValueError):
        cycle_of(params, pulse, PhotonQubit(1.0, 1.0))


@settings(deadline=None, max_examples=40)
@given(qubit_angles, st.floats(min_value=0.1, max_value=1.0))
def test_storage_times_retrieval_is_total_success(angles, eta):
    # P(k_L) P(L) = P_qm for constant efficiency, whatever the input qubit
    params, pulse = family_point(15.0, 0.25)
    photon = qubit_from(angles)
    forms = cycle_of(params, pulse, photon, eta)
    assert forms["P_kL"] * forms["P_L"] == pytest.approx(forms["P_qm"],
                                                         abs=1e-12)


def test_constant_efficiency_cancels_in_conditional_probability():
    params, pulse = family_point(8.0, 0.3)
    photon = PhotonQubit(0.6, 0.8j)
    lo = cycle_of(params, pulse, photon, 0.25)["P_L"]
    hi = cycle_of(params, pulse, photon, 1.0)["P_L"]
    assert lo == pytest.approx(hi, abs=1e-14)


def test_swap_targets_are_inverse_maps():
    params = SystemParams(theta_L=0.7, theta_R=-0.3)
    photon = PhotonQubit(0.6, 0.8j)
    atom = swap_target_atom(photon, params)
    assert atom.norm_sq == pytest.approx(1.0, abs=1e-12)
    # the photonic image of the atom: -a_R e^{i theta_R} |k_L>
    # + a_L e^{i theta_L} |k_R>
    back = PhotonQubit(c_L=-atom.a_R * np.exp(1j * params.theta_R),
                       c_R=atom.a_L * np.exp(1j * params.theta_L))
    # the double swap returns the qubit up to the expected joint phase
    ratio = back.c_L / photon.c_L
    assert back.c_R / photon.c_R == pytest.approx(ratio, abs=1e-12)
    assert abs(ratio) == pytest.approx(1.0, abs=1e-12)


def test_transfer_fidelity_is_anchored_by_the_swap_target():
    params, pulse = family_point(30.0, 0.1)
    photon = PhotonQubit(0.6, 0.8j).normalized()
    target = swap_target_atom(photon, params)
    f_swap = row_of(params, pulse)["F_swap"]
    assert transfer_fidelity(params, pulse, atom=target, photon=photon) == \
        pytest.approx(1.0, abs=1e-12)
    # orthogonal pre-state realizes the bare swap fidelity
    orth = AtomQubit(-np.conjugate(target.a_R), np.conjugate(target.a_L))
    assert transfer_fidelity(params, pulse, atom=orth, photon=photon) == \
        pytest.approx(f_swap, abs=1e-12)


def test_transfer_fidelity_sum_rule():
    params, pulse = family_point(12.0, 0.2)
    atom = AtomQubit(0.28, 0.96j)
    total = (transfer_fidelity(params, pulse, atom=atom,
                               photon=PhotonQubit(1.0, 0.0))
             + transfer_fidelity(params, pulse, atom=atom,
                                 photon=PhotonQubit(0.0, 1.0)))
    assert total == pytest.approx(1.0 + row_of(params, pulse)["P_qm"],
                                  abs=1e-12)


def test_transfer_fidelity_requires_balanced_couplings():
    pulse = PulseSpec(kappa_p=0.2)
    with pytest.raises(UnequalCouplings):
        transfer_fidelity(SystemParams(lambda_L=1.0, lambda_R=2.0), pulse)


def test_quadrature_health_margin_on_family_points():
    # the default rule's error on [h], F_qm and F_swap against the exact
    # route, its moments from spectral_average
    points = [family_point(coop, 0.1) for coop in (1.0, 20.0, 100.0)]
    points.append(family_point(20.0, 0.01, Profile.LORENTZIAN))
    assert exact_route_agreement(points) < 1e-9


def test_report_bundles_consistent_values():
    params, pulse = family_point(10.0, 0.1)
    report = row_of(params, pulse, eta=0.8)
    assert report["F_qm"] == qm_fidelity(params, pulse)
    assert report["P_qm"] == pytest.approx(
        report["P_kL"] * report["P_L"], abs=1e-12)
    assert report["P_qm_conditional"] == report["P_qm"]**2
    assert report["f_swap_meaningful"] is True

    lopsided = row_of(SystemParams(lambda_L=1.0, lambda_R=2.0), pulse)
    assert lopsided["f_swap_meaningful"] is False

    # one array per figure, one entry per point
    columns = metric_columns(point_rows([(params, pulse)] * 3), eta=0.8)
    assert [column.dtype for column in columns] == [np.float64] * 7 + [bool]
    assert all(column.shape == (3,) for column in columns)


def _per_point_reference(params, pulse, eta, photon, mean_h, mean_h2):
    """The closed forms of one point, written apart from the helpers of
    `metrics` from the flip element's averages [t_LR] = e^{-i(theta_L -
    theta_R)} sin(2 xi) [h] and [|t_LR|^2] = sin^2(2 xi) [|h|^2]."""
    cross = np.exp(-1j * (params.theta_L - params.theta_R)) * params.sin_2xi
    cl2, cr2 = abs(photon.c_L) ** 2, abs(photon.c_R) ** 2
    mean_t, mean_t2 = cross * mean_h, params.sin_2xi ** 2 * mean_h2
    mean_eta_t, mean_eta_t2 = eta * mean_t, eta * mean_t2
    p_kl = eta * (cl2 + cr2 * mean_t2)
    joint = cr2 * mean_eta_t2 + cl2 * mean_t2 * eta
    fidelity = (cr2 * cr2 * mean_eta_t2
                + 2.0 * cr2 * cl2 * (np.conjugate(mean_t) * mean_eta_t).real
                + cl2 * cl2 * abs(mean_t) ** 2 * eta) / joint
    return {"F_swap": mean_h2,
            "F_swap_leading": swap_fidelity_leading(params, pulse),
            "F_qm": abs(mean_h) ** 2 / mean_h2,
            "P_kL": p_kl, "P_L": joint / p_kl, "P_qm": mean_eta_t2,
            "P_qm_conditional": mean_eta_t2 ** 2, "fidelity": fidelity}


@pytest.mark.parametrize("detector", [0.8], ids=["constant"])
@pytest.mark.parametrize("profile", list(Profile))
def test_batching_does_not_change_results(profile, detector):
    rng = np.random.default_rng(31)
    count = 2 * CHUNK_ROWS + 1  # the exact pass spans 3 chunks
    points = []
    for _ in range(count):
        params, pulse, _ = draw_equivalence_point(rng)
        points.append((params, PulseSpec(profile, pulse.delta_p, pulse.kappa_p,
                                         pulse.x_0)))
    photon = PhotonQubit(0.6, 0.8 * np.exp(0.7j))
    batch = metric_columns(point_rows(points), detector, photon)
    moments = spectral_moments(point_rows(points))
    for i, (params, pulse) in enumerate(points):
        alone = metric_columns(point_rows([(params, pulse)]), detector,
                               photon)
        # every column, floats bit for bit
        assert [column[i] for column in batch] \
            == [column[0] for column in alone]
        forms, = cycle_closed_forms(params, pulse, [photon], detector)
        ref = _per_point_reference(params, pulse, detector, photon,
                                   moments.h[i], moments.h2[i])
        for name, value in ref.items():
            got = (forms[name] if name == "fidelity"
                   else getattr(batch, name)[i])
            assert got == pytest.approx(value, abs=1e-12), name

    # a point that never flips the polarization poisons the conditioning of
    # a |k_R> input wherever it sits in the batch
    dark = (SystemParams(lambda_L=0.0, lambda_R=2.0), points[1][1])
    with pytest.raises(ZeroScatteringWeight):
        metric_columns(point_rows(points[:-1] + [dark] + points[-1:]),
                       detector, PhotonQubit(0.0, 1.0))


@pytest.mark.parametrize("quad", [None], ids=["exact"])
@pytest.mark.parametrize("detector", [0.8], ids=["constant"])
@pytest.mark.parametrize("profile", list(Profile))
def test_cycle_closed_forms_equal_the_scalar_calls(profile, detector, quad):
    rng = np.random.default_rng(47)
    params, pulse, _ = draw_equivalence_point(rng)
    pulse = PulseSpec(profile, pulse.delta_p, pulse.kappa_p, pulse.x_0)
    photons = [PhotonQubit(1.0, 0.0), PhotonQubit(0.0, 1.0),
               PhotonQubit(0.6, 0.8 * np.exp(0.7j))]
    forms = cycle_closed_forms(params, pulse, photons, detector)
    assert len(forms) == len(photons)
    f_qm = qm_fidelity(params, pulse, quad)
    for photon, got in zip(photons, forms):
        # bit for bit: the cycle's forms, the qubit's row of the batch entry
        # and the scalar F_qm come from one arithmetic on one moment pass
        row = metric_columns(point_rows([(params, pulse)]), detector, photon)
        assert got["F_qm"] == f_qm
        for key in ("F_qm", "P_kL", "P_L", "P_qm"):
            assert got[key] == getattr(row, key)[0].item(), key


def _mixed_points(count, rng, lorentzian):
    """`count` equivalence-range points, the i-th Lorentzian where
    lorentzian(i), else Gaussian."""
    points = []
    for i in range(count):
        params, pulse, _ = draw_equivalence_point(rng)
        profile = Profile.LORENTZIAN if lorentzian(i) else Profile.GAUSSIAN
        points.append((params, PulseSpec(profile, pulse.delta_p,
                                         pulse.kappa_p, pulse.x_0)))
    return points


def test_mixed_profile_batches_equal_each_row_alone():
    # the profiles interleave, so the exact pass selects each profile's rows
    # and gathers its chunks back (2 Gaussian chunks, 1 Lorentzian); every
    # row still equals the batch of one that cycle_closed_forms and a
    # one-row metric_columns pass straight to the kernel, bit for bit
    points = _mixed_points(2 * CHUNK_ROWS + 1, np.random.default_rng(37),
                           lambda i: i % 2)
    photon = PhotonQubit(0.6, 0.8 * np.exp(0.7j))
    batch = metric_columns(point_rows(points), eta=0.8, photon=photon)
    for i, (params, pulse) in enumerate(points):
        alone = metric_columns(point_rows([(params, pulse)]), eta=0.8,
                               photon=photon)
        assert [column[i] for column in batch] \
            == [column[0] for column in alone]
        forms, = cycle_closed_forms(params, pulse, photons=[photon],
                                    detector=0.8)
        for key in ("F_qm", "P_kL", "P_L", "P_qm"):
            assert forms[key] == getattr(batch, key)[i].item(), key


#: Every entry that evaluates one point, called on (params, pulse, photon).
ONE_POINT_ENTRIES = {
    "cycle_closed_forms": lambda params, pulse, photon: cycle_closed_forms(
        params, pulse, photons=[photon], detector=0.8),
    "qm_fidelity": lambda params, pulse, photon: qm_fidelity(params, pulse),
    "transfer_fidelity": lambda params, pulse, photon: transfer_fidelity(
        params, pulse, photon=photon),
    "metric_columns": lambda params, pulse, photon: metric_columns(
        point_rows([(params, pulse)]), eta=0.8, photon=photon),
}


@pytest.mark.parametrize("name", ONE_POINT_ENTRIES)
@pytest.mark.parametrize("profile", list(Profile))
def test_one_point_entries_raise_typed_errors(name, profile):
    # the batch-of-one path keeps every typed error of the batch path, and
    # warns of nothing on the way (warnings are errors in this suite)
    entry = ONE_POINT_ENTRIES[name]
    pulse = PulseSpec(profile=profile)
    k_r = PhotonQubit(0.0, 1.0)
    with pytest.raises(NonFiniteIntegrand):
        entry(SystemParams(kappa=1e200), pulse, k_r)
    with pytest.raises(PrecisionLoss):
        entry(SystemParams(kappa=1e16), pulse, k_r)
    # a |k_R> photon never flips at lambda_L = 0, so nothing is stored and
    # retrieval is undefined; F_qm does not depend on the coupling ratio,
    # and the swap fidelity needs balanced couplings
    dark = SystemParams(lambda_L=0.0, lambda_R=2.0)
    if name == "qm_fidelity":
        assert 0.0 < entry(dark, pulse, k_r) <= 1.0
    elif name == "transfer_fidelity":
        with pytest.raises(UnequalCouplings):
            entry(dark, pulse, k_r)
    else:
        with pytest.raises(ZeroScatteringWeight):
            entry(dark, pulse, k_r)


def test_one_point_takes_one_kernel_call(monkeypatch):
    # a batch of one goes straight to the chunk kernel: one pole expansion,
    # one set of pole averages and no rows selected into a new batch; a
    # mixed batch makes one call per profile per chunk
    calls = dict.fromkeys(("pole_expansion", "pole_averages", "ParamRows"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(metrics, name, counting(name,
                                                    getattr(metrics, name)))
    photon = PhotonQubit(0.6, 0.8)
    for profile in Profile:
        point = (SystemParams(), PulseSpec(profile=profile))
        for entry in (lambda: cycle_closed_forms(*point, photons=[photon]),
                      lambda: qm_fidelity(*point),
                      lambda: metric_columns(point_rows([point]))):
            calls.update(dict.fromkeys(calls, 0))
            entry()
            assert calls == {"pole_expansion": 1, "pole_averages": 1,
                             "ParamRows": 0}
    # every third row Lorentzian, the batch sized so the Gaussian rows fill
    # one chunk and spill into a second; the Lorentzian ones fit in one
    count = 3 * (CHUNK_ROWS // 2 + 1)
    points = _mixed_points(count, np.random.default_rng(41),
                           lambda i: i % 3 == 0)
    lorentzian = count // 3
    chunks = (math.ceil(lorentzian / CHUNK_ROWS)
              + math.ceil((count - lorentzian) / CHUNK_ROWS))
    assert chunks == 3
    calls.update(dict.fromkeys(calls, 0))
    metric_columns(point_rows(points))
    assert calls == dict.fromkeys(calls, chunks)


def _sweep_peak(pulse, count):
    """Peak traced allocation of a `count`-point delta_e sweep."""
    spec = SweepSpec(params=SystemParams(), pulse=pulse,
                     axes=(SweepAxis("delta_e", "linear", -5.0, 5.0, count),))
    tracemalloc.start()
    try:
        sweep_rows(spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_stays_bounded():
    # chunking keeps the moment pass's arrays independent of the batch size:
    # one Lorentzian sweep point alone holds 1040 complex nodes (17 kB)
    pulse = PulseSpec(profile=Profile.LORENTZIAN, kappa_p=0.2)
    _sweep_peak(pulse, 10)  # warm the node tables
    small, large = _sweep_peak(pulse, 100), _sweep_peak(pulse, 400)
    assert large < 2e6
    # the 300 extra result rows take ~0.1 MB; their nodes would take 5 MB
    assert large - small < 0.25e6


def test_gaussian_sweep_memory_stays_bounded():
    # a Gaussian chunk allocates its Faddeeva table, 3 x CHUNK_ROWS x 36
    # complex values; further chunks reuse that room, so past one chunk a
    # row adds only its output cells
    pulse = PulseSpec(kappa_p=0.2)
    _sweep_peak(pulse, 10)
    one = _sweep_peak(pulse, CHUNK_ROWS)
    four = _sweep_peak(pulse, 4 * CHUNK_ROWS)
    assert one < 1.5e6
    assert four - one < 0.2e3 * 3 * CHUNK_ROWS


def _moments_by_adaptive_integration(params, pulse):
    """[h]_f and [|h|^2]_f by scipy.integrate.quad on the analytic
    integrand, split at the real parts of the poles of h."""
    kp, sp = pulse.kappa_p, params.k_c + pulse.delta_p
    roots = np.roots([1.0, -(params.delta_e - 1j * (params.gamma
                                                    + params.kappa)),
                      -params.lambda_sq - 1j * params.kappa
                      * (params.delta_e - 1j * params.gamma)])
    centers = [params.k_c] + [params.k_c + r.real for r in roots]
    if pulse.profile is Profile.GAUSSIAN:
        def to_k(u):
            return sp + kp * u

        def weight(u):
            return math.exp(-u * u) / math.sqrt(math.pi)
        lo, hi = -12.0, 12.0
        breaks = [(c - sp) / kp for c in centers]
    else:
        def to_k(theta):
            return sp + kp * math.tan(theta)

        def weight(theta):
            return 1.0 / math.pi
        lo, hi = -math.pi / 2, math.pi / 2
        breaks = [math.atan((c - sp) / kp) for c in centers]
    breaks = sorted(b for b in breaks if lo < b < hi)

    def average(g):
        return integrate.quad(lambda x: weight(x) * g(complex(
            scattered_amplitude(to_k(x), params))), lo, hi, points=breaks,
            limit=2000, epsabs=1e-14, epsrel=1e-13)[0]
    mean = complex(average(lambda h: h.real), average(lambda h: h.imag))
    return mean, average(lambda h: abs(h) ** 2)


def _balanced(lam, **fields):
    return SystemParams(lambda_L=lam / math.sqrt(2.0),
                        lambda_R=lam / math.sqrt(2.0), **fields)


# The frozen-oracle points, a point where the 64-node Hermite rule misses
# [|h|^2]_f by 1.3e-3, and the exceptional point of w_- (delta_e = 0,
# kappa - gamma = 2 lambda) with points just beside it, for both profiles.
EXACT_ROUTE_POINTS = [
    (family_point(20.0, 0.05)[0], 0.1, 0.0),
    (family_point(10.0, 0.1)[0], 0.2, 0.0),
    (family_point(100.0, 0.1)[0], 0.2, 0.0),
    (family_point(200.0, 1e-3)[0], 2e-3, 0.0),
    (family_point(20.0, 0.01)[0], 0.02, 0.0),
    (family_point(20.0, 0.2, delta_e=10.0)[0], 0.4, 0.0),
    (SystemParams(lambda_L=0.805, lambda_R=1.129, kappa=4.957, gamma=0.119,
                  delta_e=0.742), 2.10, 0.454),
    *[(_balanced(2.0 * (1.0 + offset), kappa=5.0, gamma=1.0), kappa_p, 0.3)
      for offset in (0.0, -1e-9, 1e-9, -1e-5, 1e-5)
      for kappa_p in (1.0, 0.05)],
]


@pytest.mark.parametrize("profile", list(Profile))
@pytest.mark.parametrize("params, kappa_p, delta_p", EXACT_ROUTE_POINTS)
def test_exact_moments_match_adaptive_integration(params, kappa_p, delta_p,
                                                  profile):
    pulse = PulseSpec(profile=profile, delta_p=delta_p, kappa_p=kappa_p)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        m = spectral_moments(point_rows([(params, pulse)]))
    mean, power = _moments_by_adaptive_integration(params, pulse)
    assert abs(m.h[0] - mean) <= 1e-12
    assert abs(m.h2[0] - power) <= 1e-12


def test_exact_route_is_batch_independent():
    # chunks of the exact pass, and the batch a point sits in, leave its
    # moments unchanged bit for bit
    rng = np.random.default_rng(61)
    points = []
    for _ in range(2 * CHUNK_ROWS + 3):
        params, pulse, _ = draw_equivalence_point(rng)
        points.append((params, pulse))
    points.append((_balanced(2.0, kappa=5.0, gamma=1.0), PulseSpec()))
    batch = spectral_moments(point_rows(points))
    for i, point in enumerate(points):
        alone = spectral_moments(point_rows([point]))
        assert (alone.h[0], alone.h2[0]) == (batch.h[i], batch.h2[i])


def test_constant_efficiency_factors_out_of_the_exact_moments():
    # the moments are [h] and [|h|^2] alone; eta multiplies them afterwards
    params, pulse = family_point(10.0, 0.3, Profile.LORENTZIAN, delta_e=1.0)
    m = spectral_moments(point_rows([(params, pulse)]))
    assert list(vars(m)) == ["h", "h2"]
    assert cycle_of(params, pulse, detector=0.7)["P_qm"] \
        == params.sin_2xi ** 2 * (0.7 * m.h2[0])
    assert cycle_of(params, pulse, PhotonQubit(1.0, 0.0), 0.7)["P_kL"] == 0.7


@pytest.mark.parametrize("profile", list(Profile))
def test_on_rule_moments_ignore_the_carrier(profile):
    # qm_fidelity's rule averages h at the pulse's detunings (nodes at
    # k - k_c), so a large carrier cannot round the pulse's width away
    pulse = PulseSpec(profile=profile, kappa_p=0.5)
    base = qm_fidelity(SystemParams(k_c=0.0), pulse, DEFAULT_QUAD)
    for k_c in (1e8, 1e12, 1e17):
        assert qm_fidelity(SystemParams(k_c=k_c), pulse, DEFAULT_QUAD) \
            == pytest.approx(base, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("quad", [None, DEFAULT_QUAD],
                         ids=["exact", "quadrature"])
@pytest.mark.parametrize("profile", list(Profile))
def test_overflowing_moments_raise_a_typed_error(profile, quad):
    # kappa^2 overflows in the exact pass and on qm_fidelity's rule; neither
    # warns (warnings are errors in this suite) nor hands NaN on
    point = (SystemParams(kappa=1e200), PulseSpec(profile=profile))
    with pytest.raises(NonFiniteIntegrand):
        qm_fidelity(*point, quad)
    with pytest.raises(NonFiniteIntegrand, match="overflow"):
        spectral_moments(point_rows([point]))
    with pytest.raises(NonFiniteIntegrand):
        metric_columns(point_rows([(SystemParams(),
                                    PulseSpec(profile=profile)), point]))


@pytest.mark.parametrize("profile", list(Profile))
def test_lost_precision_raises_a_typed_error(profile, monkeypatch):
    # at kappa = 1e16 the exact pole sums cancel to [|h|^2] far below 0,
    # which passivity (0 <= |h|^2 <= 1) rules out
    stiff = (SystemParams(kappa=1e16), PulseSpec(profile=profile))
    with pytest.raises(PrecisionLoss, match="double precision is lost"):
        spectral_moments(point_rows([stiff]))
    with pytest.raises(PrecisionLoss):
        qm_fidelity(*stiff)
    # qm_fidelity's rule meets the same bound
    for h2 in (-1e-300, 1.0 + 2e-12):
        monkeypatch.setattr(metrics, "spectral_average",
                            lambda G, pulse, quad: complex(h2))
        with pytest.raises(PrecisionLoss):
            qm_fidelity(SystemParams(), PulseSpec(profile=profile),
                        DEFAULT_QUAD)


def test_passivity_bound_holds_on_the_validated_ranges():
    # the defaults, the curve families and the equivalence ranges (those of
    # the benchmark plans) stay clear of the lost-precision check
    rng = np.random.default_rng(12)
    points = [(SystemParams(), PulseSpec(profile=profile))
              for profile in Profile]
    points += [draw_equivalence_point(rng)[:2] for _ in range(400)]
    h2 = spectral_moments(point_rows(points)).h2
    assert ((h2 >= 0.0) & (h2 <= 1.0)).all()
    # and on the default rule, h at the pulse's detunings
    for params, pulse in points:
        params = replace(params, k_c=0.0)
        assert 0.0 <= spectral_average(lambda s: np.abs(scattered_amplitude(
            s, params)) ** 2, pulse).real <= 1.0
    for columns in (cli.fig2_rows(), cli.fig3_rows(), cli.fig4_rows()):
        assert min(map(len, columns)) > 100


def test_pole_outside_the_lower_half_plane_is_reported():
    # only a non-physical kappa < 0 puts a root of w_- above the axis
    with pytest.raises(DegenerateDenominator):
        pole_expansion(kappa=np.array([-2.0]), gamma=np.array([0.5]),
                       delta_e=np.array([0.0]), lambda_sq=np.array([10.0]))
