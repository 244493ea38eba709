"""Single-wavenumber scattering map: frozen values and algebraic identities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cavqmem.errors import DegenerateDenominator
from cavqmem.params import PulseSpec, SystemParams, point_rows
from cavqmem.scattering import (
    bright_phase_factor,
    coupling_amplitude,
    detuned_decay,
    scattered_amplitude,
    t_elements,
)

angles = st.floats(min_value=-math.pi, max_value=math.pi)


def random_params(draw_tuple):
    lam_l, lam_r, th_l, th_r, kappa, gamma, k_c, delta_e = draw_tuple
    return SystemParams(lambda_L=lam_l, lambda_R=lam_r, theta_L=th_l,
                        theta_R=th_r, kappa=kappa, gamma=gamma, k_c=k_c,
                        delta_e=delta_e)


params_tuples = st.tuples(
    st.floats(min_value=0.05, max_value=4.0),
    st.floats(min_value=0.05, max_value=4.0),
    angles,
    angles,
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-8.0, max_value=8.0),
)
wavenumbers = st.floats(min_value=-12.0, max_value=12.0)


# Frozen: on resonance the phase factor collapses to -(C - 1)/(C + 1).
def test_resonant_phase_factor_at_cooperativity_ten():
    p = SystemParams()  # lambda^2 = 20, kappa = 2, gamma = 1, so C = 10
    assert bright_phase_factor(0.0, p) == pytest.approx(-9.0 / 11.0, abs=1e-15)
    t_ll, t_rr, t_lr, t_rl = t_elements(0.0, p)
    assert t_ll == pytest.approx(1.0 / 11.0, abs=1e-15)
    assert t_rr == pytest.approx(1.0 / 11.0, abs=1e-15)
    assert t_lr == pytest.approx(-10.0 / 11.0, abs=1e-14)
    assert t_rl == pytest.approx(-10.0 / 11.0, abs=1e-14)


# Frozen: g_L(k_c) = lambda_L sqrt(kappa/pi) / (i kappa).
def test_coupling_amplitude_on_resonance():
    p = SystemParams(lambda_L=1.0, lambda_R=1.0, kappa=1.0)
    g = coupling_amplitude(0.0, p, "L")
    assert g == pytest.approx(-1j / math.sqrt(math.pi), abs=1e-15)


def test_coupling_amplitude_norm_is_coupling_strength_squared():
    # independent adaptive integration of the Lorentzian filter
    p = SystemParams(lambda_L=1.3, lambda_R=0.4, theta_L=0.7, kappa=0.7,
                     k_c=1.5)
    for pol, lam in (("L", p.lambda_L), ("R", p.lambda_R)):
        val, err = quad(lambda k: abs(coupling_amplitude(k, p, pol)) ** 2,
                        -np.inf, np.inf, limit=200)
        assert val == pytest.approx(lam**2, rel=1e-7)


def test_coupling_amplitude_rejects_unknown_polarization():
    with pytest.raises(ValueError):
        coupling_amplitude(0.0, SystemParams(), "H")


def test_phase_factor_broadcasts_over_arrays():
    p = SystemParams()
    k = np.linspace(-4.0, 4.0, 17)
    vec = bright_phase_factor(k, p)
    assert vec.shape == k.shape
    for i, ki in enumerate(k):
        # vectorized and scalar paths may round the complex division
        # differently by one ulp
        assert vec[i] == pytest.approx(bright_phase_factor(float(ki), p),
                                       abs=1e-14)


def test_degenerate_denominator_is_reported():
    # no cavity, no coupling: no SystemParams can hold this corner, so it
    # enters as a raw batch row
    hollow = point_rows([(SystemParams(), PulseSpec())])._replace(
        gamma=0.0, kappa=0.0, lambda_sq=0.0)
    with pytest.raises(DegenerateDenominator):
        bright_phase_factor(0.0, hollow)


@settings(deadline=None, max_examples=200)
@given(params_tuples, wavenumbers)
def test_determinant_equals_phase_factor(tup, k):
    p = random_params(tup)
    t_ll, t_rr, t_lr, t_rl = t_elements(k, p)
    det = t_ll * t_rr - t_lr * t_rl
    assert det == pytest.approx(bright_phase_factor(k, p), abs=1e-12)


@settings(deadline=None, max_examples=200)
@given(params_tuples, wavenumbers)
def test_trace_equals_one_plus_phase_factor(tup, k):
    p = random_params(tup)
    t_ll, t_rr, t_lr, t_rl = t_elements(k, p)
    assert t_ll + t_rr == pytest.approx(1.0 + bright_phase_factor(k, p),
                                        abs=1e-12)


@settings(deadline=None, max_examples=200)
@given(params_tuples, wavenumbers)
def test_cross_elements_share_magnitude(tup, k):
    p = random_params(tup)
    _, _, t_lr, t_rl = t_elements(k, p)
    assert abs(t_lr) == pytest.approx(abs(t_rl), abs=1e-13)
    assert abs(t_lr) == pytest.approx(
        p.sin_2xi * abs(scattered_amplitude(k, p)), abs=1e-13)


@settings(deadline=None, max_examples=200)
@given(params_tuples, wavenumbers)
def test_map_is_passive(tup, k):
    # no column of the polarization map ever gains probability
    p = random_params(tup)
    t_ll, t_rr, t_lr, t_rl = t_elements(k, p)
    assert abs(bright_phase_factor(k, p)) <= 1.0 + 1e-12
    assert abs(t_ll) ** 2 + abs(t_rl) ** 2 <= 1.0 + 1e-12
    assert abs(t_rr) ** 2 + abs(t_lr) ** 2 <= 1.0 + 1e-12
    # the decay weight is the passivity loss of a |R, k_R> photon
    decay = detuned_decay(k - p.k_c, p)
    assert decay >= 0.0
    assert decay == pytest.approx(1.0 - abs(t_rr) ** 2 - abs(t_lr) ** 2,
                                  abs=1e-12)


def test_decay_weight_reads_zero_where_w_minus_overflows():
    p = SystemParams(lambda_L=1.2, lambda_R=2.1, gamma=0.8, delta_e=0.7)
    with np.errstate(over="ignore"):
        weight = detuned_decay(np.array([0.3, 1e160, -1e200]), p)
    assert weight[0] > 0.0
    assert weight[1:].tolist() == [0.0, 0.0]


@settings(deadline=None, max_examples=150)
@given(params_tuples, wavenumbers)
def test_lossless_map_is_unitary(tup, k):
    p = random_params(tup)
    p = SystemParams(**{**{f: getattr(p, f) for f in (
        "lambda_L", "lambda_R", "theta_L", "theta_R", "kappa", "k_c",
        "delta_e")}, "gamma": 0.0})
    assert abs(bright_phase_factor(k, p)) == pytest.approx(1.0, abs=1e-12)
    t_ll, t_rr, t_lr, t_rl = t_elements(k, p)
    arr = np.array([[t_ll, t_lr], [t_rl, t_rr]])
    np.testing.assert_allclose(arr.conj().T @ arr, np.eye(2), atol=1e-12)


@settings(deadline=None, max_examples=150)
@given(params_tuples, wavenumbers, angles)
def test_coupling_phase_shift_only_rotates_cross_elements(tup, k, alpha):
    p = random_params(tup)
    shifted = SystemParams(**{**{f: getattr(p, f) for f in (
        "lambda_L", "lambda_R", "theta_R", "kappa", "gamma", "k_c",
        "delta_e")}, "theta_L": p.theta_L + alpha})
    t_ll, t_rr, t_lr, t_rl = t_elements(k, p)
    s_ll, s_rr, s_lr, s_rl = t_elements(k, shifted)
    assert s_ll == pytest.approx(t_ll, abs=1e-12)
    assert s_rr == pytest.approx(t_rr, abs=1e-12)
    assert s_lr == pytest.approx(t_lr * np.exp(-1j * alpha), abs=1e-12)
    assert s_rl == pytest.approx(t_rl * np.exp(1j * alpha), abs=1e-12)


@settings(deadline=None, max_examples=150)
@given(st.floats(min_value=0.05, max_value=4.0), angles, angles,
       st.floats(min_value=0.1, max_value=5.0),
       st.floats(min_value=0.0, max_value=3.0), wavenumbers)
def test_balanced_couplings_pin_diagonal_minus_cross(lam, th_l, th_r, kappa,
                                                     gamma, k):
    # with lambda_L = lambda_R the combination below is exactly the identity
    # acting on the dark superposition
    p = SystemParams(lambda_L=lam, lambda_R=lam, theta_L=th_l, theta_R=th_r,
                     kappa=kappa, gamma=gamma)
    t_ll, t_rr, t_lr, t_rl = t_elements(k, p)
    cross = np.exp(1j * (th_l - th_r))
    assert t_ll - cross * t_lr == pytest.approx(1.0, abs=1e-12)
    assert t_rr - np.conjugate(cross) * t_rl == pytest.approx(1.0, abs=1e-12)


def test_single_sided_coupling_leaves_other_channel_untouched():
    p = SystemParams(lambda_L=0.0, lambda_R=2.0)
    t_ll, t_rr, t_lr, t_rl = t_elements(0.7, p)
    assert t_ll == 1.0
    assert t_lr == 0.0 and t_rl == 0.0
    assert t_rr == pytest.approx(bright_phase_factor(0.7, p), abs=1e-15)


def _docstring_map(k, p):
    """The phase factor and the four elements from the module docstring's
    w_pm, term by term, with no algebra applied."""
    s = np.asarray(k, dtype=float) - p.k_c
    a = p.delta_e - 1j * p.gamma
    w_plus = s**2 - (a + 1j * p.kappa) * s - p.lambda_sq + 1j * p.kappa * a
    w_minus = s**2 - (a - 1j * p.kappa) * s - p.lambda_sq - 1j * p.kappa * a
    phase = (s + 1j * p.kappa) * w_plus / ((s - 1j * p.kappa) * w_minus)
    sin_xi, cos_xi = p.lambda_L / p.lam, p.lambda_R / p.lam
    cross = np.exp(-1j * (p.theta_L - p.theta_R))
    return phase, (phase * sin_xi**2 + cos_xi**2,
                   sin_xi**2 + phase * cos_xi**2,
                   cross * sin_xi * cos_xi * (phase - 1.0),
                   np.conjugate(cross) * sin_xi * cos_xi * (phase - 1.0))


def test_phase_factor_and_elements_match_the_docstring_form():
    rng = np.random.default_rng(41)
    draws = [SystemParams(lambda_L=rng.uniform(0.05, 4.0),
                          lambda_R=rng.uniform(0.05, 4.0),
                          theta_L=rng.uniform(-math.pi, math.pi),
                          theta_R=rng.uniform(-math.pi, math.pi),
                          kappa=rng.uniform(0.1, 5.0),
                          gamma=rng.uniform(0.0, 3.0) * (i % 3 != 0),
                          k_c=rng.uniform(-3.0, 3.0),
                          delta_e=rng.uniform(-8.0, 8.0)) for i in range(60)]
    # the exceptional point, where the roots of w_- merge: delta_e = 0,
    # kappa - gamma = 2 lambda
    draws.append(SystemParams(lambda_L=0.6, lambda_R=0.8, theta_L=0.3,
                              kappa=2.5, gamma=0.5, delta_e=0.0))
    assert abs(draws[-1].kappa - draws[-1].gamma - 2.0 * draws[-1].lam) < 1e-15
    for p in draws:
        s = rng.choice([-1.0, 1.0], 48) * 10.0 ** rng.uniform(-3.0, 3.0, 48)
        k = s + p.k_c
        phase, elements = _docstring_map(k, p)
        got = bright_phase_factor(k, p)
        assert (np.abs(got - phase) <= 1e-13 * np.abs(phase)).all()
        if p.gamma == 0.0:
            assert (np.abs(np.abs(got) - 1.0) <= 1e-14).all()
        # the reference's t_LR and t_RL carry phase - 1, which cancels to
        # ~|s|^-3 far from resonance (the code's h does not), so the
        # elements are compared on the scale of the map: passivity bounds
        # every entry by 1
        for value, ref in zip(t_elements(k, p), elements):
            assert (np.abs(value - ref) <= 1e-13).all()


def _exact_h(s, p):
    """h(s) = -i kappa lambda^2 / ((s - i kappa) w_-(s)) in exact rationals,
    from the float inputs and p.lambda_sq, w_- term by term as the module
    docstring writes it.  Returns (Re h, Im h)."""
    s, kappa, gamma, delta_e, lam2 = map(Fraction, (
        s, p.kappa, p.gamma, p.delta_e, p.lambda_sq))

    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    # w_- = s^2 - (a - i kappa) s - lambda^2 - i kappa a, a = delta_e - i gamma
    b = mul((delta_e, -gamma - kappa), (s, 0))
    c = mul((0, kappa), (delta_e, -gamma))
    w_minus = (s * s - b[0] - lam2 - c[0], -b[1] - c[1])
    den = mul((s, -kappa), w_minus)
    num = mul((0, -kappa * lam2), (den[0], -den[1]))
    norm = den[0] ** 2 + den[1] ** 2
    return num[0] / norm, num[1] / norm


def test_scattered_amplitude_keeps_full_precision_against_exact_rationals():
    # weak coupling and far detuning, where h is small and the phase factor
    # is near 1: h taken as (phase - 1)/2 loses these digits
    rng = np.random.default_rng(73)
    draws = []
    for i in range(60):
        lam2, share = 10.0 ** rng.uniform(-12.0, 3.0), rng.uniform(0.05, 0.95)
        draws.append(SystemParams(lambda_L=math.sqrt(share * lam2),
                                  lambda_R=math.sqrt((1.0 - share) * lam2),
                                  kappa=rng.uniform(0.1, 5.0),
                                  gamma=rng.uniform(0.0, 3.0) * (i % 3 != 0),
                                  delta_e=rng.uniform(-8.0, 8.0)))
    # the exceptional point: delta_e = 0, kappa - gamma = 2 lambda
    draws.append(SystemParams(lambda_L=0.6, lambda_R=0.8, kappa=2.5,
                              gamma=0.5, delta_e=0.0))
    worst = 0.0
    for p in draws:
        s = rng.choice([-1.0, 1.0], 48) * 10.0 ** rng.uniform(-3.0, 3.0, 48)
        for sj, hj in zip(s.tolist(), scattered_amplitude(s, p).tolist()):
            re, im = _exact_h(sj, p)
            err = ((Fraction(hj.real) - re) ** 2 + (Fraction(hj.imag) - im) ** 2
                   ) / (re * re + im * im)
            worst = max(worst, math.sqrt(err))
    assert worst <= 1e-14
