"""Pulse spectra and the quadrature rules used for every spectral average.

Averages are taken against the pulse intensity, [G]_f = integral |f(k)|^2 G(k) dk.
For a Gaussian envelope the substitution u = (k - k_p)/kappa_p turns this into
a Gauss-Hermite sum; for a Lorentzian the substitution k = k_p + kappa_p tan(theta)
maps the Cauchy weight exactly onto a flat measure on (-pi/2, pi/2), which is
integrated by composite Gauss-Legendre with panels graded geometrically toward
the endpoints.  The grading matters: for a narrow pulse the cavity and
polariton structure of the integrand lives deep in the Cauchy tails, i.e. in
thin layers next to theta = +-pi/2, where a single Legendre panel converges
only algebraically.  Node tables are cached and immutable, and each average is
a fixed-order vectorized sum, so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidField, NonFiniteIntegrand
from .params import Profile, PulseSpec


def profile_amplitude(k, pulse: PulseSpec, k_c: float = 0.0):
    """Spectral amplitude f(k), unit-normalized: integral |f|^2 dk = 1."""
    k_p = k_c + pulse.delta_p
    d = np.asarray(k, dtype=float) - k_p
    kp = pulse.kappa_p
    if pulse.profile is Profile.GAUSSIAN:
        envelope = np.exp(-(d * d) / (2.0 * kp * kp)) / np.sqrt(np.sqrt(np.pi) * kp)
    else:
        envelope = np.sqrt(kp / np.pi) / (d + 1j * kp)
    out = envelope * np.exp(1j * d * pulse.x_0)
    return out if out.ndim else complex(out)


@dataclass(frozen=True)
class QuadratureConfig:
    """Node counts per profile family.  Doubling either count is the
    convergence check; at the defaults the doubling residual is far below
    1e-9 for the parameter ranges exercised here.

    The Lorentzian budget is spread over the 26 graded panels (at least two
    nodes per panel), so the realized grid size is the largest multiple of 26
    not exceeding n_lorentz."""

    n_gauss: int = 64
    n_lorentz: int = 1040

    def __post_init__(self):
        for name in ("n_gauss", "n_lorentz"):
            if getattr(self, name) < 8:
                raise InvalidField(name, "quadrature needs at least 8 nodes")

    def node_count(self, profile: Profile) -> int:
        return self.n_gauss if profile is Profile.GAUSSIAN else self.n_lorentz

    def doubled(self) -> "QuadratureConfig":
        return QuadratureConfig(2 * self.n_gauss, 2 * self.n_lorentz)


DEFAULT_QUAD = QuadratureConfig()


@lru_cache(maxsize=32)
def _hermite_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite rule normalized to the Gaussian intensity measure:
    (u, weight) with sum(weight) = 1 and wavenumber nodes k_p + kappa_p * u.
    Raises InvalidField where `hermgauss` underflows (numpy 2.4: n > 370)."""
    with np.errstate(all="ignore"):
        u, w = np.polynomial.hermite.hermgauss(n)
    omega = w / np.sqrt(np.pi)
    if not (np.all(omega > 0.0) and abs(omega.sum() - 1.0) <= 1e-12):
        raise InvalidField("n_gauss", "Gauss-Hermite weights underflow")
    u.flags.writeable = False
    omega.flags.writeable = False
    return u, omega


#: Geometric grading depth of the Lorentzian panels: each endpoint gets
#: panels shrinking by factors of two down to (pi/2) 2^-12 ~ 4e-4 rad, which
#: keeps the narrowest structure of kappa_p/kappa >= 0.01 pulses resolved.
_LORENTZ_GRADING = 12


@lru_cache(maxsize=32)
def _lorentz_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule for (1/pi) d(theta) on (-pi/2, pi/2).

    Returns (cot, weight) with sum(weight) = 1; the wavenumber nodes are
    k_p + kappa_p * cot.  Values of cot are computed from the panel-local
    endpoint distance t as 1/tan(t), which stays accurate arbitrarily close
    to theta = +-pi/2.
    """
    m = max(2, n // (2 * (_LORENTZ_GRADING + 1)))
    x, w = np.polynomial.legendre.leggauss(m)
    edges = (np.pi / 2) * 2.0 ** -np.arange(_LORENTZ_GRADING + 1)
    lower = np.concatenate(([0.0], edges[:0:-1]))
    upper = edges[::-1]
    cots, weights = [], []
    for a, b in zip(lower, upper):
        t = 0.5 * (b - a) * x + 0.5 * (a + b)
        wt = 0.5 * (b - a) * w / np.pi
        c = 1.0 / np.tan(t)
        cots.extend((c, -c))
        weights.extend((wt, wt))
    cot = np.concatenate(cots)
    weight = np.concatenate(weights)
    order = np.argsort(cot)
    cot, weight = cot[order], weight[order]
    cot.flags.writeable = False
    weight.flags.writeable = False
    return cot, weight


@dataclass(frozen=True)
class KGrid:
    """Quadrature grid for one pulse.

    k      : node wavenumbers
    omega  : intensity-measure weights, sum(omega) = 1 and
             [G]_f = sum(omega * G(k))
    f      : pulse amplitude f(k) at the nodes
    w      : plain-dk weights, w = omega / |f|^2, so amplitude-space sums
             sum(w * |psi(k)|^2) reproduce intensity averages when psi
             carries an explicit factor of f
    """

    k: np.ndarray
    omega: np.ndarray
    f: np.ndarray
    w: np.ndarray

    @property
    def n(self) -> int:
        return self.k.size

    def average(self, values) -> complex:
        """Intensity-weighted average of node values."""
        v = np.asarray(values)
        return complex(np.sum(self.omega * v))


def quadrature_rule(profile: Profile, quad: QuadratureConfig = DEFAULT_QUAD
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The profile's cached, read-only node table (x, omega).

    A pulse of this profile has nodes k = k_c + delta_p + kappa_p * x and
    intensity weights omega, sum(omega) = 1.  Every spectral average in the
    package takes its nodes from here.
    """
    if profile is Profile.GAUSSIAN:
        return _hermite_table(quad.n_gauss)
    return _lorentz_table(quad.n_lorentz)


def build_grid(pulse: PulseSpec, quad: QuadratureConfig = DEFAULT_QUAD,
               k_c: float = 0.0) -> KGrid:
    """Quadrature nodes, weights and pulse amplitudes for one pulse."""
    x, omega = quadrature_rule(pulse.profile, quad)
    k = k_c + pulse.delta_p + pulse.kappa_p * x
    f = profile_amplitude(k, pulse, k_c)
    w = omega / np.abs(f) ** 2
    for arr in (k, omega, f, w):
        arr.flags.writeable = False
    return KGrid(k=k, omega=omega, f=f, w=w)


def spectral_average(G, pulse: PulseSpec, quad: QuadratureConfig = DEFAULT_QUAD,
                     k_c: float = 0.0) -> complex:
    """[G]_f = integral |f(k)|^2 G(k) dk by the profile's quadrature rule.

    G must accept a numpy array of wavenumbers.  Raises NonFiniteIntegrand if
    any node value is NaN or infinite.
    """
    x, omega = quadrature_rule(pulse.profile, quad)
    values = np.asarray(G(k_c + pulse.delta_p + pulse.kappa_p * x))
    if not np.all(np.isfinite(values)):
        raise NonFiniteIntegrand()
    return complex(np.sum(omega * values))
