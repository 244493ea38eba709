"""Pulse envelopes and the fixed quadrature rules behind spectral averages."""

import dataclasses
import math

import numpy as np
import pytest
from longway import envelope, profile_amplitude
from scipy.integrate import quad
from scipy.special import wofz

from cavqmem.errors import NonFiniteIntegrand
from cavqmem.params import PhotonQubit, Profile, PulseSpec, SystemParams
from cavqmem.scattering import scattered_amplitude
from cavqmem.spectral import (
    DEFAULT_QUAD,
    KGrid,
    QuadratureConfig,
    build_grid,
    faddeeva,
    faddeeva_difference,
    pole_averages,
    quadrature_rule,
    spectral_average,
)
from cavqmem.statesim import (PhotonPair, entanglement_storage,
                              run_memory_protocol)

GAUSS = PulseSpec(profile=Profile.GAUSSIAN, kappa_p=0.2)
LORENTZ = PulseSpec(profile=Profile.LORENTZIAN, kappa_p=0.2)


# Frozen peak amplitudes at kappa_p = 0.2:
#   Gaussian    f(k_p) = (sqrt(pi) kappa_p)^(-1/2)  = 1.6795677770601523
#   Lorentzian  f(k_p) = -i (pi kappa_p)^(-1/2)     = -1.2615662610100802 i
def test_peak_amplitudes():
    assert profile_amplitude(0.0, GAUSS) == pytest.approx(
        1.6795677770601523, abs=1e-15)
    assert profile_amplitude(0.0, LORENTZ) == pytest.approx(
        -1.2615662610100802j, abs=1e-15)


@pytest.mark.parametrize("pulse", [
    PulseSpec(profile=Profile.GAUSSIAN, delta_p=0.3, kappa_p=0.07, x_0=2.0),
    PulseSpec(profile=Profile.LORENTZIAN, delta_p=-0.4, kappa_p=0.15, x_0=1.0),
])
def test_profiles_are_unit_normalized(pulse):
    val, _ = quad(lambda k: abs(profile_amplitude(k, pulse, k_c=0.5)) ** 2,
                  -np.inf, np.inf, limit=400)
    assert val == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("pulse", [GAUSS, LORENTZ])
def test_weights_sum_to_one(pulse):
    grid = build_grid(pulse)
    assert np.sum(grid.omega) == pytest.approx(1.0, abs=1e-12)
    assert spectral_average(lambda k: np.ones_like(k), pulse) == pytest.approx(
        1.0, abs=1e-12)


@pytest.mark.parametrize("pulse", [GAUSS, LORENTZ])
def test_nodes_are_symmetric_and_odd_moments_cancel(pulse):
    grid = build_grid(pulse, k_c=1.0)
    k_p = 1.0 + pulse.delta_p
    np.testing.assert_allclose(grid.k + grid.k[::-1], 2.0 * k_p, atol=1e-12)
    assert abs(spectral_average(lambda k: k - k_p, pulse, k_c=1.0)) < 1e-10


def test_gaussian_second_moment():
    # [ (k - k_p)^2 ] = kappa_p^2 / 2 for the Gaussian intensity
    val = spectral_average(lambda k: (k - GAUSS.delta_p) ** 2, GAUSS)
    assert val == pytest.approx(GAUSS.kappa_p**2 / 2.0, abs=1e-14)


def test_lorentzian_matched_filter_average():
    # [ kappa_p^2 / ((k - k_p)^2 + kappa_p^2) ] = 1/2 for the Cauchy intensity
    kp = LORENTZ.kappa_p
    val = spectral_average(lambda k: kp**2 / (k**2 + kp**2), LORENTZ)
    assert val == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("pulse", [GAUSS, LORENTZ])
def test_average_is_linear(pulse):
    # bounded test functions: the Cauchy intensity has no finite moments
    g = spectral_average(lambda k: np.cos(k), pulse)
    h = spectral_average(lambda k: 1.0 / (1.0 + k * k), pulse)
    combo = spectral_average(
        lambda k: 1.75 * np.cos(k) - 0.5 / (1.0 + k * k), pulse)
    assert combo == pytest.approx(1.75 * g - 0.5 * h, abs=1e-12)


@pytest.mark.parametrize("pulse", [GAUSS, LORENTZ])
def test_initial_position_never_reaches_averages(pulse):
    # the wavepacket center would be a pure linear phase on f, which every
    # output pairs with its own conjugate: no grid array and no simulated
    # figure reads it, bit for bit
    params = SystemParams(lambda_L=1.2, lambda_R=2.1, theta_L=0.4,
                          gamma=0.8, delta_e=0.7)
    moved = dataclasses.replace(pulse, x_0=17.5)
    for a, b in zip(dataclasses.astuple(build_grid(pulse)),
                    dataclasses.astuple(build_grid(moved))):
        np.testing.assert_array_equal(a, b)
    photon, pair = PhotonQubit(0.6, 0.8j), PhotonPair(0.6, 0.8j)
    assert run_memory_protocol(params, moved, photon=photon) == \
        run_memory_protocol(params, pulse, photon=photon)
    for mode in ("postselect", "swap"):
        assert entanglement_storage(pair, params, params, moved, moved,
                                    mode=mode) == \
            entanglement_storage(pair, params, params, pulse, pulse, mode=mode)


@pytest.mark.parametrize("pulse", [
    PulseSpec(profile=Profile.GAUSSIAN, kappa_p=0.1),
    PulseSpec(profile=Profile.LORENTZIAN, kappa_p=0.1),
    PulseSpec(profile=Profile.LORENTZIAN, kappa_p=0.01, delta_p=0.3),
])
def test_node_doubling_residual_is_tiny(pulse):
    params = SystemParams(delta_e=2.0)  # C = 10 with a detuned atom
    h = lambda k: scattered_amplitude(k, params)
    coarse = spectral_average(h, pulse, DEFAULT_QUAD)
    fine = spectral_average(h, pulse, DEFAULT_QUAD.doubled())
    assert abs(fine - coarse) < 1e-9


def test_lorentzian_grid_size_is_panel_multiple():
    grid = build_grid(LORENTZ, QuadratureConfig(n_lorentz=1000))
    assert grid.n == 26 * (1000 // 26)
    assert build_grid(LORENTZ, DEFAULT_QUAD).n == 1040
    assert build_grid(GAUSS, QuadratureConfig(n_gauss=48)).n == 48


@pytest.mark.parametrize("pulse", [GAUSS, LORENTZ])
def test_grid_arrays_are_immutable(pulse):
    grid = build_grid(pulse)
    for arr in (grid.k, grid.omega):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("pulse", [GAUSS, LORENTZ])
def test_plain_weights_invert_intensity(pulse):
    # the long-way envelope's w = omega / |f|^2, so amplitude-space sums
    # with an explicit f factor reproduce intensity averages
    grid = build_grid(pulse)
    f, w = envelope(pulse)
    values = np.cos(grid.k)
    assert np.sum(w * np.abs(f) ** 2 * values) == pytest.approx(
        complex(grid.average(values)).real, abs=1e-12)


@pytest.mark.parametrize("profile", list(Profile))
def test_grid_scales_the_unit_width_pulse(profile):
    # the long-way envelope scales the unit-width pulse at the rule's nodes
    # to kappa_p; the envelope and plain weights must be the profile's at
    # the grid's nodes.  The direct
    # evaluation reads f at the rounded node k, the grid at the exact
    # delta_p + kappa_p x, so beyond 1e-12 the two may part by the slope of
    # log f times that rounding: |x|/kappa_p (Gaussian) or
    # 1/(kappa_p |x + i|) (Lorentzian) times a unit in the last place
    eps = np.finfo(float).eps
    for quad in (DEFAULT_QUAD, QuadratureConfig(n_gauss=370, n_lorentz=260)):
        x, _ = quadrature_rule(profile, quad)
        for kappa_p in (1e-3, 0.05, 1.0, 30.0):
            slope = (np.abs(x) / kappa_p if profile is Profile.GAUSSIAN
                     else 1.0 / (kappa_p * np.abs(x + 1j)))
            for delta_p in (-20.0, -0.3, 0.0, 7.5, 20.0):
                pulse = PulseSpec(profile=profile, delta_p=delta_p,
                                  kappa_p=kappa_p)
                grid = build_grid(pulse, quad)
                f_x, w_x = envelope(pulse, quad)
                f = profile_amplitude(grid.k, pulse)
                w = grid.omega / np.abs(f) ** 2
                shift = slope * (np.spacing(np.abs(grid.k))
                                 + np.spacing(np.abs(kappa_p * x)))
                assert np.all(np.abs(f_x - f) <= (1e-12 + shift) * np.abs(f))
                assert np.all(np.abs(w_x - w) <= (1e-12 + 2 * shift) * w)
                # the plain weights invert the intensity to a few ulp
                assert np.all(np.abs(w_x * np.abs(f_x) ** 2 - grid.omega)
                              <= 6 * eps * grid.omega)


def test_non_finite_integrand_is_reported():
    with np.errstate(divide="ignore"):
        with pytest.raises(NonFiniteIntegrand):
            spectral_average(lambda k: 1.0 / (k - k[0]), GAUSS)


def test_quadrature_config_guards_and_doubling():
    with pytest.raises(ValueError):
        QuadratureConfig(n_gauss=4)
    with pytest.raises(ValueError):
        QuadratureConfig(n_lorentz=0)
    d = QuadratureConfig(16, 260).doubled()
    assert (d.n_gauss, d.n_lorentz) == (32, 520)


def test_grid_average_returns_complex_scalar():
    grid = build_grid(GAUSS)
    out = grid.average(np.exp(1j * grid.k))
    assert isinstance(out, complex)
    assert isinstance(grid, KGrid)


def test_faddeeva_matches_scipy_in_the_upper_half_plane():
    # |Re z| <= 1e5 and 1e-6 <= Im z <= 1e5: a log grid plus random points
    rng = np.random.default_rng(11)
    re = np.concatenate([[0.0], np.geomspace(1e-3, 1e5, 60)])
    re = np.concatenate([-re[::-1], re])
    im = np.geomspace(1e-6, 1e5, 60)
    grid = (re[:, None] + 1j * im[None, :]).ravel()
    scatter = (rng.uniform(-1.0, 1.0, 20000) * 10.0 ** rng.uniform(-3, 5, 20000)
               + 1j * 10.0 ** rng.uniform(-6, 5, 20000))
    for z in (grid, scatter, scatter.reshape(200, 100)):
        ref = wofz(z)
        assert np.max(np.abs(faddeeva(z) - ref) / np.abs(ref)) <= 5e-14


@pytest.mark.parametrize("count", [1, 7, 128, 1537])
def test_faddeeva_value_does_not_depend_on_its_batch(count):
    # the polynomial is a matrix-vector product, and BLAS kernels treat a
    # table's tail rows, and a one-row table, apart: each value must still
    # equal the argument's value alone, bit for bit
    rng = np.random.default_rng(13)
    z = (rng.uniform(-1.0, 1.0, count) * 10.0 ** rng.uniform(-3, 3, count)
         + 1j * 10.0 ** rng.uniform(-4, 2, count))
    batch = faddeeva(z)
    for i in range(count):
        assert faddeeva(z[i:i + 1])[0] == batch[i]


def test_faddeeva_difference_is_smooth_through_the_confluent_limit():
    rng = np.random.default_rng(12)
    z = rng.uniform(-6.0, 6.0, 200) + 1j * 10.0 ** rng.uniform(-3, 0.7, 200)
    # derivatives from w' = -2 z w + 2i/sqrt(pi)
    w0 = wofz(z)
    w1 = -2.0 * z * w0 + 2j / math.sqrt(math.pi)
    w2 = -2.0 * w0 - 2.0 * z * w1
    w3 = -4.0 * w1 - 2.0 * z * w2
    w4 = -6.0 * w2 - 2.0 * z * w3
    w5 = -8.0 * w3 - 2.0 * z * w4
    for gap in (0.0, 1e-12, 1e-8, 1e-6, 1e-3, 5e-3, 2e-2, 0.3):
        step = gap * (1 + 1j) / math.sqrt(2.0)
        z1, z2 = z + 0.5 * step, z - 0.5 * step
        got = faddeeva_difference(z1, z2, faddeeva(z1), faddeeva(z2))
        # close: the Taylor series of the divided difference about the
        # midpoint, exact to O(gap^6); wide: the plain quotient of scipy's
        # values, whose rounding is then small
        h2 = step * step
        ref = (w1 + w3 * h2 / 24.0 + w5 * h2 * h2 / 1920.0 if gap < 1e-2
               else (wofz(z1) - wofz(z2)) / step)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-11, gap


def _pole_average_by_quadrature(pulse, g):
    """[g]_f by adaptive integration, for g with no pole on the axis."""
    kp, sp = pulse.kappa_p, pulse.delta_p
    if pulse.profile is Profile.GAUSSIAN:
        def weighted(u):
            return math.exp(-u * u) / math.sqrt(math.pi) * g(sp + kp * u)
        lo, hi = -12.0, 12.0
    else:
        def weighted(theta):
            return g(sp + kp * math.tan(theta)) / math.pi
        lo, hi = -math.pi / 2, math.pi / 2
    parts = [quad(lambda x: f(weighted(x)), lo, hi, limit=1000,
                  epsabs=1e-14, epsrel=1e-13)[0]
             for f in (lambda v: v.real, lambda v: v.imag)]
    return complex(*parts)


@pytest.mark.parametrize("profile", list(Profile))
def test_pole_averages_match_adaptive_integration(profile):
    pulse = PulseSpec(profile=profile, delta_p=0.4, kappa_p=0.7)
    z0, z1, z2 = 0.3 + 1.1j, -0.8 - 0.5j, 1.3 - 0.9j
    col = lambda v: np.array([[v]])
    got = pole_averages(profile, col(pulse.delta_p), col(pulse.kappa_p),
                        col(z0), (col(z1), col(z2)))
    expected = [
        _pole_average_by_quadrature(pulse, lambda s: 1.0 / (s - z0)),
        _pole_average_by_quadrature(pulse, lambda s: 1.0 / (s - z2)),
        _pole_average_by_quadrature(pulse,
                                    lambda s: 1.0 / ((s - z1) * (s - z2))),
    ]
    for value, ref in zip(got, expected):
        assert value.shape == (1, 1)
        assert abs(value[0, 0] - ref) < 1e-13
