"""Pulse spectra, the quadrature rules, and exact averages of poles.

Averages are taken against the pulse intensity, [G]_f = integral |f(k)|^2 G(k) dk.
There are two ways to take one.

Quadrature, for any integrand: for a Gaussian envelope the substitution
u = (k - k_p)/kappa_p turns the average into a Gauss-Hermite sum; for a
Lorentzian the substitution k = k_p + kappa_p tan(theta) maps the Cauchy
weight exactly onto a flat measure on (-pi/2, pi/2), which is integrated by
composite Gauss-Legendre with panels graded geometrically toward the
endpoints.  The grading matters: for a narrow pulse the cavity and polariton
structure of the integrand lives deep in the Cauchy tails, i.e. in thin
layers next to theta = +-pi/2, where a single Legendre panel converges only
algebraically.  Node tables are cached and immutable, and each average is a
fixed-order vectorized sum, so results are deterministic.

Exact, for rational integrands: `pole_averages` gives [1/(s - z)]_f for a
pole z off the real axis and [1/((s - z1)(s - z2))]_f for a pair of poles
on one side of it, in closed form.  A Lorentzian average of 1/(s - z) is
1/(s_p +- i kappa_p - z), the pulse pole taken on the side away from z.  A
Gaussian one is +-i sqrt(pi) w(t)/kappa_p with t = +-(z - s_p)/kappa_p in
the upper half plane, where w is the Faddeeva function, computed here
(`faddeeva`) by Weideman's rational approximation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidField, NonFiniteIntegrand
from .params import Profile, PulseSpec


@dataclass(frozen=True)
class QuadratureConfig:
    """Node counts per profile family.  Doubling either count is the
    convergence check; at the defaults the doubling residual is far below
    1e-9 for the parameter ranges exercised here.

    The Lorentzian budget is spread over the 26 graded panels, at least two
    nodes each, so the realized grid size is 26 max(2, n_lorentz // 26):
    52 nodes for n_lorentz up to 77, 988 for 1000.  Each count is an
    integer from 8 to its cap, checked before any node table is built."""

    n_gauss: int = 64
    n_lorentz: int = 1040

    def __post_init__(self):
        # the caps: Hermite weights underflow past 370 nodes, and 26
        # Lorentzian panels of order 1024 already take an 8 MB table
        for name, cap in (("n_gauss", 370), ("n_lorentz", 26 * 1024)):
            n = getattr(self, name)
            if not isinstance(n, numbers.Integral):
                raise InvalidField(name, f"node count {n!r} is not an integer")
            if not 8 <= n <= cap:
                raise InvalidField(name, f"quadrature needs 8 to {cap} nodes")

    def doubled(self) -> "QuadratureConfig":
        return QuadratureConfig(2 * self.n_gauss, 2 * self.n_lorentz)


DEFAULT_QUAD = QuadratureConfig()


@lru_cache(maxsize=32)
def _hermite_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite rule normalized to the Gaussian intensity measure:
    (u, weight), both read-only, with sum(weight) = 1 and wavenumber nodes
    k_p + kappa_p * u.  Raises InvalidField where `hermgauss` underflows
    (numpy 2.4: n > 370)."""
    with np.errstate(all="ignore"):
        u, w = np.polynomial.hermite.hermgauss(n)
    omega = w / np.sqrt(np.pi)
    if not (np.all(omega > 0.0) and abs(omega.sum() - 1.0) <= 1e-12):
        raise InvalidField("n_gauss", "Gauss-Hermite weights underflow")
    u.flags.writeable = omega.flags.writeable = False
    return u, omega


#: Geometric grading depth of the Lorentzian panels: each endpoint gets
#: panels shrinking by factors of two down to (pi/2) 2^-12 ~ 4e-4 rad, which
#: keeps the narrowest structure of kappa_p/kappa >= 0.01 pulses resolved.
_LORENTZ_GRADING = 12


@lru_cache(maxsize=32)
def _lorentz_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule for (1/pi) d(theta) on (-pi/2, pi/2).

    Returns (cot, weight), both read-only, with sum(weight) = 1 and
    wavenumber nodes k_p + kappa_p * cot.  Values of cot are computed from
    the panel-local endpoint distance t as 1/tan(t), which stays accurate
    arbitrarily close to theta = +-pi/2.
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
    cot.flags.writeable = weight.flags.writeable = False
    return cot, weight


@dataclass(frozen=True)
class KGrid:
    """Quadrature grid for one pulse.

    k      : node wavenumbers
    omega  : intensity-measure weights, sum(omega) = 1 and
             [G]_f = sum(omega * G(k))
    """

    k: np.ndarray
    omega: np.ndarray

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
    """Quadrature nodes k = k_c + delta_p + kappa_p x and intensity weights
    for one pulse, on the profile's cached rule (x, omega)."""
    x, omega = quadrature_rule(pulse.profile, quad)
    k = k_c + pulse.delta_p + pulse.kappa_p * x
    k.flags.writeable = False
    return KGrid(k=k, omega=omega)


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


# ---------------------------------------------------------------------------
# exact averages of poles

#: Terms of Weideman's rational approximation of the Faddeeva function
#: (SIAM J. Numer. Anal. 31, 1497 (1994)): relative error below 5e-14 for
#: |Re z| <= 1e5 and 1e-6 <= Im z <= 1e5 (tested against scipy).
FADDEEVA_TERMS = 36
_W_L = math.sqrt(FADDEEVA_TERMS / math.sqrt(2.0))


def _weideman_coefficients() -> np.ndarray:
    """The N = 36 coefficients a_n of w(z) = 2 p(Z)/(L - iz)^2 + 1/(sqrt(pi)
    (L - iz)), p(Z) = sum_n a_n Z^(n-1), Z = (L + iz)/(L - iz): the cosine
    transform of exp(-t^2) (L^2 + t^2) sampled at t = L tan(theta/2),
    theta = k pi/M for |k| < M = 2N.  Highest power first, the order of
    `np.vander`."""
    m = 2 * FADDEEVA_TERMS
    k = np.arange(1 - m, m)
    t = _W_L * np.tan(k * np.pi / (2 * m))
    f = np.exp(-t * t) * (_W_L ** 2 + t * t)
    n = np.arange(FADDEEVA_TERMS, 0, -1)
    out = np.cos(np.outer(n, k) * (np.pi / m)) @ f / (2 * m)
    out.flags.writeable = False
    return out


_W_COEF = _weideman_coefficients()
#: 2 a_n as complex numbers, so `faddeeva` multiplies its complex table of
#: powers with them in one BLAS product, converting nothing; the factor 2
#: of w is exact in every term.
_W_COEF_2 = (2.0 * _W_COEF).astype(complex)
_W_COEF_2.flags.writeable = False
#: Hankel table H[j, k] = c_{j+k+1}, with c_i the coefficient of Z^i in p:
#: the divided difference (p(X) - p(Y))/(X - Y) is sum_{j,k} H[j, k] X^j Y^k,
#: which stays exact at X = Y.
_W_HANKEL = np.array([[_W_COEF[::-1][j + k + 1] if j + k + 1 < FADDEEVA_TERMS
                       else 0.0 for k in range(FADDEEVA_TERMS - 1)]
                      for j in range(FADDEEVA_TERMS - 1)])
_W_HANKEL.flags.writeable = False
# Constants as 0-d arrays: on short columns a step with a 0-d operand costs
# what a step between two columns does, one with a Python number more.  A
# real constant is complex here, as numpy would promote it.
_I = np.array(1j)
_ONE = np.array(1.0 + 0j)
_W_L_C = np.array(_W_L + 0j)
_INV_SQRT_PI = np.array(1.0 / math.sqrt(math.pi) + 0j)
_I_SQRT_PI = np.array(1j * math.sqrt(math.pi))

#: Separation, relative to max(1, |z|), below which `faddeeva_difference`
#: takes the confluent form: beyond it the plain quotient of two values
#: loses at most ~1e-14 to rounding.
_CONFLUENT_GAP = np.array(1e-2)
_UNIT = np.array(1.0)


def _weideman_parts(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, Z) = (1/(L - iz), (L + iz)/(L - iz)); |Z| <= 1 for Im z >= 0."""
    iz = _I * z
    u = _ONE / (_W_L_C - iz)
    return u, (_W_L_C + iz) * u


def faddeeva(z) -> np.ndarray:
    """The Faddeeva function w(z) = exp(-z^2) erfc(-iz), for Im z >= 0.

    Weideman's N = 36 rational approximation, numpy only.  The polynomial is
    the product of the table of powers, one row per argument, with the
    coefficient vector: a matrix-vector product, which forms each row's sum
    on its own, so each value is independent of the others in z.  The
    product needs no temporary the size of the table.
    """
    z = np.asarray(z, dtype=complex)
    u, big_z = _weideman_parts(z)
    count = big_z.size
    # np.vander(Z, N) without its argument handling, which costs more than
    # the products for a few arguments: Z^(N-1), ..., Z, 1 as running
    # products, highest power first.  A lone argument gets a second, equal
    # row: BLAS takes a one-row product through its dot kernel, which
    # rounds unlike the matrix-vector kernel of every longer table.
    table = np.empty((count + (count == 1), FADDEEVA_TERMS), dtype=complex)
    table[:, -1] = 1.0
    powers = table[:, -2::-1]
    powers[...] = big_z.reshape(-1, 1)
    np.multiply.accumulate(powers, axis=1, out=powers)
    p2 = (table @ _W_COEF_2)[:count]
    return (p2.reshape(z.shape) * u + _INV_SQRT_PI) * u


def faddeeva_difference(z1, z2, w1, w2) -> np.ndarray:
    """The divided difference (w(z1) - w(z2))/(z1 - z2), and w'(z1) where
    z1 = z2, for Im z1, Im z2 >= 0, given w1 = w(z1) and w2 = w(z2).

    Close arguments take the divided difference of the rational approximant
    itself, term by term, which stays exact in the confluent limit.
    """
    gap = z1 - z2
    close = np.abs(gap) < _CONFLUENT_GAP * np.maximum(_UNIT, np.abs(z1))
    if not np.count_nonzero(close):
        return (w1 - w2) / gap
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (w1 - w2) / gap
    out[close] = _confluent_difference(z1[close], z2[close])
    return out


def _confluent_difference(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Divided difference of the approximant 2 p(Z) u^2 + u/sqrt(pi) at
    (z1, z2) by the product and chain rules: u[z1, z2] = i u1 u2,
    Z[z1, z2] = 2 i L u1 u2, and p[Z1, Z2] from the Hankel table."""
    u1, big_z1 = _weideman_parts(z1)
    u2, big_z2 = _weideman_parts(z2)
    n = FADDEEVA_TERMS - 1
    v1 = np.vander(big_z1, n, increasing=True)
    v2 = np.vander(big_z2, n + 1, increasing=True)
    p2 = (v2 * _W_COEF[::-1]).sum(axis=1)
    p_diff = np.einsum("bj,jk,bk->b", v1, _W_HANKEL, v2[:, :n])
    u_diff = 1j * u1 * u2
    return (2.0 * (p_diff * 2.0 * _W_L * u_diff * u1 * u1
                   + p2 * u_diff * (u1 + u2))
            + u_diff * _INV_SQRT_PI)


def pole_averages(profile: Profile, center, width, upper, pair
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact intensity averages of a pole above the real axis and of a pair
    of poles below it, over pulses of one profile.

    center and width are the pulse centres s_p and widths kappa_p in the
    variable s of the poles, upper a pole z0 with Im z0 > 0 and pair = (z1,
    z2) two poles with Im < 0, equal or not; all are columns of one shape,
    best complex (a real column is promoted at every step that reads it).
    Returns [1/(s - z0)]_f, [1/(s - z2)]_f and [1/((s - z1)(s - z2))]_f,
    each entry from its own pulse.
    """
    z1, z2 = pair
    if profile is Profile.LORENTZIAN:
        # the pulse intensity has its poles at s_p +- i kappa_p
        pulse_pole = _I * width
        below, above = center - pulse_pole, center + pulse_pole
        return (_ONE / (below - upper), _ONE / (above - z2),
                _ONE / ((above - z1) * (above - z2)))
    # Gaussian: [1/(s - z)]_f = +-i sqrt(pi) w(+-(z - s_p)/kappa_p)/kappa_p,
    # the sign taking the argument into the upper half plane
    tau = np.array((upper - center, center - z1, center - z2)) / width
    w = faddeeva(tau)
    scale = _I_SQRT_PI / width
    diff = faddeeva_difference(tau[1], tau[2], w[1], w[2])
    return scale * w[0], -scale * w[2], scale * diff / width
