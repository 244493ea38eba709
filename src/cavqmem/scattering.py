"""Frequency-resolved scattering of a single photon off the atom-cavity system.

Amplitude conventions: a photon of polarization p and wavenumber k couples to
one ground-state transition with

    g_p(k) = lambda_p sqrt(kappa/pi) e^{i theta_p} / (k - k_c + i kappa),

and the bright superposition of the two ground states acquires the phase
factor

    e^{i phi_s(k)} = (k - k_c + i kappa) w_+(k - k_c)
                     / [(k - k_c - i kappa) w_-(k - k_c)],
    w_pm(s) = s^2 - (delta_e - i gamma pm i kappa) s
              - lambda^2 pm i kappa (delta_e - i gamma),

while the dark superposition is untouched.  For gamma > 0 the phase factor is
sub-unimodular (|w_+|^2 - |w_-|^2 = -4 kappa gamma lambda^2), so the 2x2
polarization map below is a contraction; the missing weight is the photon
lost to free-space emission.

The code evaluates none of this ratio.  With s = k - k_c the phase factor is
1 + 2 h(s), where

    h(s) = -i kappa lambda^2 / ((s - i kappa) w_-(s)),

and every pointwise element of the map (the phase factor and the four
t_xy) is linear in h.  So h is the only rational function the map
evaluates at a point, and w_+ stays here as documentation: the tests check
the code against the ratio above.  The one other pointwise function is the
decay weight 1 - |t_RR|^2 - |t_LR|^2 (`detuned_decay`), which passivity
turns into a product over |w_-| that keeps its digits where the loss is
small.

All wavenumber arguments accept scalars or numpy arrays and broadcast;
`detuned_elements` takes detunings s in their place, as a grid built around
the resonance holds them.  The phase factor and h(k) also take a
`params.ParamRows` in place of SystemParams: a batch of parameter points as
column arrays, so that with (B, 1) columns row i of a (B, n) wavenumber
array is evaluated at point i in one call.  `pole_expansion` takes the four
(B,) columns that h depends on.  Nothing here checks a row: `params`
checked each one when the batch was built.

h is a rational function with three simple poles: i kappa above the real
axis and the two roots of w_- below it.  `pole_expansion` writes h and
|h|^2 as sums over those poles, which turns every spectral average of them
into a finite sum of exact pole averages (`spectral.pole_averages`).
"""

from __future__ import annotations

import cmath
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDenominator, InvalidField
from .params import ParamRows, SystemParams


def coupling_amplitude(k, params: SystemParams, pol: str):
    """Cavity-filtered coupling g_pol(k) for pol in {"L", "R"}."""
    if pol == "L":
        strength, phase = params.lambda_L, params.theta_L
    elif pol == "R":
        strength, phase = params.lambda_R, params.theta_R
    else:
        raise InvalidField(str(pol), "pol must be 'L' or 'R'")
    s = np.asarray(k, dtype=float) - params.k_c
    out = strength * np.sqrt(params.kappa / np.pi) * np.exp(1j * phase) / (s + 1j * params.kappa)
    return out if out.ndim else complex(out)


def scattered_amplitude(k, params: SystemParams | ParamRows):
    """h(k) = (e^{i phi_s} - 1)/2, the amplitude with which the bright
    component is rephased, taken from its denominator (s - i kappa) w_-(s)
    and never from the phase factor: it keeps full relative precision at
    weak coupling and far from resonance, where it falls like |s|^-3.
    Where the denominator overflows h reads 0, until (kappa + gamma) s^2
    overflows (|s| ~ 1e154) and h reads NaN.
    """
    return _detuned_amplitude(np.asarray(k, dtype=float) - params.k_c, params)


def _detuned_amplitude(s, params: SystemParams | ParamRows):
    """h at the detunings s = k - k_c (see `scattered_amplitude`)."""
    ik = 1j * params.kappa
    lambda_sq = params.lambda_sq
    den = (s - ik) * _w_minus(s, params, lambda_sq)
    if np.count_nonzero(np.abs(den) < 1e-300):
        raise DegenerateDenominator()
    out = -ik * lambda_sq / den
    return out if out.ndim else complex(out)


def _w_minus(s, params: SystemParams | ParamRows, lambda_sq):
    """w_-(s) = (s - delta_e + i gamma)(s + i kappa) - lambda^2, factored:
    expanded, its terms cancel near s = delta_e at weak coupling and
    gamma = 0, where one root nears the real axis."""
    return ((s - (params.delta_e - 1j * params.gamma)) * (s + 1j * params.kappa)
            - lambda_sq)


def bright_phase_factor(k, params: SystemParams | ParamRows):
    """Phase factor e^{i phi_s(k)} = 1 + 2 h(k) of the bright ground-state
    superposition."""
    return 1.0 + 2.0 * scattered_amplitude(k, params)


def t_elements(k, params: SystemParams):
    """The four polarization-map elements at wavenumber(s) k.

    Returns (t_ll, t_rr, t_lr, t_rl) with the convention t_xy = amplitude for
    the incoming channel |y, k_y> to leave in |x, k_x>.  The cross channels
    |L, k_R> and |R, k_L> are invariant and carry no element here.  Each is
    linear in h: t_ll = 1 + 2 sin^2(xi) h, t_rr = 1 + 2 cos^2(xi) h, and
    t_lr and t_rl are e^{-+i(theta_L - theta_R)} sin(2 xi) h.
    """
    return detuned_elements(np.asarray(k, dtype=float) - params.k_c, params)


def detuned_elements(s, params: SystemParams):
    """`t_elements` at the detunings s = k - k_c, the coordinates of a grid
    built around the cavity resonance: no wavenumber is shifted."""
    h = _detuned_amplitude(np.asarray(s, dtype=float), params)
    lam = params.lam                       # sin_xi and cos_xi, one sqrt
    sin_xi, cos_xi = params.lambda_L / lam, params.lambda_R / lam
    # e^{-i(theta_L - theta_R)} sin(2 xi), one Python complex
    cross = (cmath.exp(-1j * (params.theta_L - params.theta_R))
             * (2.0 * sin_xi * cos_xi))
    return (1.0 + (2.0 * sin_xi**2) * h, 1.0 + (2.0 * cos_xi**2) * h,
            cross * h, cross.conjugate() * h)


def detuned_decay(s, params: SystemParams):
    """The decay weight 1 - |t_RR|^2 - |t_LR|^2 at the detunings s: the share
    of a |R, k_R> photon that the atom sheds into spontaneous emission on
    one pass.  By passivity it equals 4 cos^2(xi) kappa gamma lambda^2 /
    |w_-(s)|^2 = (4 lambda_R^2 kappa/|w_-|)(gamma/|w_-|), a product with
    no cancellation, so a small loss keeps its digits where 1 minus the
    surviving weight would leave a few ulp of 1.  Where |w_-| overflows the
    weight reads 0."""
    size = np.abs(_w_minus(np.asarray(s, dtype=float), params,
                           params.lambda_sq))
    return (4.0 * params.lambda_R**2 * params.kappa / size) * (
        params.gamma / size)


class PoleExpansion(NamedTuple):
    """h and |h|^2 on the real axis as sums over the poles of h, for a batch
    of parameter points, each field a (B,) column.  With z0 = i kappa and
    z1, z2 the roots of w_-,

        h(s)     = a0 [1/(s - z0) - 1/(s - z2)] + a12/((s - z1)(s - z2)),
        |h(s)|^2 = -Re h(s) + Re[l2/(s - z2) + l12/((s - z1)(s - z2))].

    The second line is passivity, |1 + 2h|^2 = 1 - 4 kappa gamma lambda^2 /
    |w_-|^2, with the loss term split between w_- and its mirror image.  The
    roots of w_- stay together in the pair terms, so no coefficient grows
    where they merge (at delta_e = 0, |kappa - gamma| = 2 lambda).
    """

    z0: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    a0: np.ndarray
    a12: np.ndarray
    l2: np.ndarray
    l12: np.ndarray


def pole_expansion(kappa, gamma, delta_e, lambda_sq) -> PoleExpansion:
    """The pole sums of h and |h|^2 for a batch of parameter points, given
    as the (B,) columns of the four fields that h depends on.

    Raises DegenerateDenominator if a root of w_- is not strictly below the
    real axis (never for a valid point: the roots have Im < 0 when
    kappa > 0 and gamma >= 0).
    """
    # numpy fuses a complex product with FMA, so a product's bits depend on
    # its operand order (and on which operand numpy reuses in place): the
    # order of every product below is part of the result
    z0 = _I * kappa
    rate = gamma + kappa
    # w_-(s) = s^2 - b s + c = (s - z1)(s - z2); the sign of the root keeps
    # b + root clear of cancellation, and z2 follows from z1 z2 = c
    b = delta_e - _I * rate
    root = np.sqrt((b + (z0 + z0)) ** 2 + _FOUR * lambda_sq)
    root = root * np.copysign(_ONE, (b * root.conj()).real)
    z1 = _HALF * (b + root)
    z2 = (-lambda_sq - z0 * (b + z0)) / z1
    if np.count_nonzero(np.maximum(z1.imag, z2.imag) >= _ZERO):
        raise DegenerateDenominator()
    # h = g / ((s - z0) w_-(s)), g = -z0 lambda^2; its w_- part is
    # P(s)/w_-(s), P the line through g/(s - z0) at z1 and z2
    minus_g = z0 * lambda_sq
    z01, z02 = z0 - z1, z0 - z2
    a0 = -minus_g / (z01 * z02)
    # 1/|w_-|^2 = 1/(w_-(s) w~(s)), w~(s) = (s - conj z1)(s - conj z2): its
    # w_- part is the line through 1/w~ at z1 and z2, where w~(z1) = u1,
    # w~(z2) = u2 and w~[z1, z2] = z1 + z2 - conj(z1 + z2) = -2i(gamma + kappa).
    # l12 and l2 carry the -2 of the loss term: -2 kappa gamma lambda^2 / u1
    # is kappa gamma lambda^2 over -u1/2 = -i Im(z1) d, exactly.
    conj_z2 = z2.conj()
    d = z1 - conj_z2
    loss = kappa * gamma * lambda_sq / (_MINUS_I * z1.imag * d)
    u2 = (conj_z2 - z2) * d.conj()                  # -2i Im(z2) conj(d)
    return PoleExpansion(z0, z1, z2, a0, minus_g / z01,
                         _2I * rate * loss / u2, loss)


# Constants as 0-d arrays: on short columns a step with a 0-d operand costs
# what a step between two columns does, one with a Python number more.
_I = np.array(1j)
_MINUS_I = np.array(-1j)
_2I = np.array(2j)
_HALF = np.array(0.5 + 0j)
_FOUR = np.array(4.0)
_ONE = np.array(1.0)
_ZERO = np.array(0.0)
