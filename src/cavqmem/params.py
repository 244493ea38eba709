"""System parameters, pulse profiles, detector models and qubit amplitudes.

Unit convention: every rate and frequency is a dimensionless multiple of one
global rate unit (the CLI fixes gamma = 1).  Frequencies enter the formulas
only relative to the cavity resonance k_c, which is retained purely so that
displayed wavenumbers can be absolute; all defaults put k_c = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from .errors import (
    InvalidField,
    NegativeGamma,
    NonFiniteField,
    NonPositiveKappa,
    ZeroCoupling,
    GammaZero,
)


class Profile(str, Enum):
    """Spectral envelope family of the single-photon pulse."""

    GAUSSIAN = "gaussian"
    LORENTZIAN = "lorentzian"


@dataclass(frozen=True)
class SystemParams:
    """Atom-cavity parameters.

    lambda_L / lambda_R are the coupling strengths of the two circular
    polarizations to their respective ground-state transitions, theta_L /
    theta_R the corresponding coupling phases.  kappa is the cavity linewidth,
    gamma the free-space atomic decay rate, delta_e = omega_e - k_c the
    excited-state detuning from the cavity resonance.
    """

    lambda_L: float = math.sqrt(10.0)
    lambda_R: float = math.sqrt(10.0)
    theta_L: float = 0.0
    theta_R: float = 0.0
    kappa: float = 2.0
    gamma: float = 1.0
    k_c: float = 0.0
    delta_e: float = 0.0

    @property
    def lambda_sq(self) -> float:
        """Total coupling lambda^2 = lambda_L^2 + lambda_R^2."""
        return self.lambda_L**2 + self.lambda_R**2

    @property
    def lam(self) -> float:
        return math.sqrt(self.lambda_sq)

    @property
    def xi(self) -> float:
        """Mixing angle: sin(xi) = lambda_L/lambda, cos(xi) = lambda_R/lambda."""
        return math.atan2(self.lambda_L, self.lambda_R)

    @property
    def sin_xi(self) -> float:
        return self.lambda_L / self.lam

    @property
    def cos_xi(self) -> float:
        return self.lambda_R / self.lam

    @property
    def sin_2xi(self) -> float:
        return 2.0 * self.lambda_L * self.lambda_R / self.lambda_sq


@dataclass(frozen=True)
class PulseSpec:
    """Single-photon spectral envelope.

    delta_p is the pulse-carrier detuning from the cavity resonance
    (k_p = k_c + delta_p), kappa_p the spectral width, x_0 the initial
    wavepacket center (a pure linear phase; it drops out of every
    probability and fidelity).
    """

    profile: Profile = Profile.GAUSSIAN
    delta_p: float = 0.0
    kappa_p: float = 0.2
    x_0: float = 0.0

    def __post_init__(self):
        # Accept the plain string spelling from JSON.
        if not isinstance(self.profile, Profile):
            object.__setattr__(self, "profile", Profile(self.profile))


def validate(params: SystemParams) -> SystemParams:
    """Check a parameter set and return it unchanged (validation is idempotent).

    Raises NonFiniteField, NonPositiveKappa, NegativeGamma or ZeroCoupling.
    """
    for f in fields(params):
        value = getattr(params, f.name)
        if not math.isfinite(value):
            raise NonFiniteField(f.name)
    if params.kappa <= 0.0:
        raise NonPositiveKappa("kappa")
    if params.gamma < 0.0:
        raise NegativeGamma()
    try:
        lambda_sq = params.lambda_sq
    except OverflowError:
        raise NonFiniteField("lambda_sq") from None
    if lambda_sq <= 0.0:
        raise ZeroCoupling()
    return params


def validate_pulse(pulse: PulseSpec) -> PulseSpec:
    """Check a pulse spec and return it unchanged."""
    for name in ("delta_p", "kappa_p", "x_0"):
        if not math.isfinite(getattr(pulse, name)):
            raise NonFiniteField(name)
    if pulse.kappa_p <= 0.0:
        raise NonPositiveKappa("kappa_p")
    return pulse


#: kappa of every bundled curve family, in units of gamma = 1.
FAMILY_KAPPA = 2.0

#: (label, delta_e, delta_p) triples of the detuning cases on the
#: cooperativity and coupling-ratio curve families.
FIG2_CASES: tuple[tuple[str, float, float], ...] = (
    ("solid", 0.0, 0.0),
    ("dashed", 5.0, 0.0),
    ("dotted", 0.0, 0.5),
)

#: Detuning cases of the pulse-bandwidth family (larger detunings there).
FIG3_CASES: tuple[tuple[str, float, float], ...] = (
    ("solid", 0.0, 0.0),
    ("dashed", 10.0, 0.0),
    ("dotted", 0.0, 2.0),
)


def family_params(coop: float, ratio: float = 1.0,
                  delta_e: float = 0.0) -> SystemParams:
    """Curve-family parameter point: lambda^2 = coop * kappa * gamma with the
    given coupling ratio lambda_L/lambda_R, kappa = 2, gamma = 1."""
    lam_sq = coop * FAMILY_KAPPA
    lam_r = math.sqrt(lam_sq / (1.0 + ratio * ratio))
    return SystemParams(lambda_L=ratio * lam_r, lambda_R=lam_r,
                        kappa=FAMILY_KAPPA, gamma=1.0, delta_e=delta_e)


def cooperativity(params: SystemParams) -> float:
    """C = lambda^2 / (kappa * gamma).  Raises GammaZero at gamma = 0."""
    if params.gamma == 0.0:
        raise GammaZero()
    return params.lambda_sq / (params.kappa * params.gamma)


#: Field names of the two dataclasses in declaration order: the key order
#: of `point_to_dict` and the parameter columns of the sweep CSV.
SYSTEM_FIELDS = tuple(f.name for f in fields(SystemParams))
PULSE_FIELDS = tuple(f.name for f in fields(PulseSpec))


def point_to_dict(params: SystemParams, pulse: PulseSpec) -> dict:
    """Flatten one parameter point into a JSON-ready dict."""
    out = {name: getattr(params, name) for name in SYSTEM_FIELDS}
    out.update({name: getattr(pulse, name) for name in PULSE_FIELDS})
    out["profile"] = pulse.profile.value
    return out


def _number(key: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidField(key, f"not a number: {value!r}") from None


def point_from_dict(data: dict) -> tuple[SystemParams, PulseSpec]:
    """Build (SystemParams, PulseSpec) from a flat dict.

    Missing fields take their defaults; anything but a dict, unknown keys
    and values that are not numbers (or a profile name) raise InvalidField.
    Both halves are validated.
    """
    if not isinstance(data, dict):
        raise InvalidField("params", "expected an object of parameter fields")
    sys_kwargs, pulse_kwargs = {}, {}
    for key, value in data.items():
        if key in SYSTEM_FIELDS:
            sys_kwargs[key] = _number(key, value)
        elif key == "profile":
            try:
                pulse_kwargs[key] = Profile(value)
            except ValueError:
                raise InvalidField(str(value), "unknown profile") from None
        elif key in PULSE_FIELDS:
            pulse_kwargs[key] = _number(key, value)
        else:
            raise InvalidField(key)
    params = validate(SystemParams(**sys_kwargs))
    pulse = validate_pulse(PulseSpec(**pulse_kwargs))
    return params, pulse


@dataclass(frozen=True)
class AtomQubit:
    """Ground-state atomic qubit amplitudes on (|L>, |R>)."""

    a_L: complex
    a_R: complex

    @property
    def norm_sq(self) -> float:
        return abs(self.a_L) ** 2 + abs(self.a_R) ** 2

    def normalized(self) -> "AtomQubit":
        n = math.sqrt(self.norm_sq)
        return AtomQubit(self.a_L / n, self.a_R / n)


@dataclass(frozen=True)
class PhotonQubit:
    """Polarization qubit amplitudes on (|k_L>, |k_R>) for a fixed envelope."""

    c_L: complex
    c_R: complex

    @property
    def norm_sq(self) -> float:
        return abs(self.c_L) ** 2 + abs(self.c_R) ** 2

    def normalized(self) -> "PhotonQubit":
        n = math.sqrt(self.norm_sq)
        return PhotonQubit(self.c_L / n, self.c_R / n)


def require_normalized(qubit, tol: float = 1e-9) -> None:
    """Raise InvalidField unless |amplitudes|^2 sum to 1 within tol."""
    if abs(qubit.norm_sq - 1.0) > tol:
        raise InvalidField("qubit", f"not normalized, |a|^2 = {qubit.norm_sq!r}")


class DetectorModel:
    """Quantum efficiency eta(k) of the polarization-resolving photon counter.

    Either a constant efficiency or a tabulated curve interpolated linearly in
    k (held flat beyond the table ends).  Efficiencies must lie in (0, 1] on
    every wavenumber where the model is evaluated; every check raises
    InvalidField.
    """

    def __init__(self, eta: float | None = None,
                 k_table: np.ndarray | None = None,
                 eta_table: np.ndarray | None = None):
        if eta is not None:
            if not (0.0 < eta <= 1.0):
                raise InvalidField(
                    "eta", f"constant efficiency must be in (0, 1], got {eta!r}")
            self._eta = float(eta)
            self._k_table = None
            self._eta_table = None
        else:
            k_arr = np.asarray(k_table, dtype=float)
            e_arr = np.asarray(eta_table, dtype=float)
            if k_arr.ndim != 1 or k_arr.shape != e_arr.shape or k_arr.size < 2:
                raise InvalidField("eta_table", "tabulated model needs matching "
                                                "1-d tables, >= 2 points")
            if np.any(np.diff(k_arr) <= 0.0):
                raise InvalidField("k_table", "must be strictly increasing")
            self._eta = None
            self._k_table = k_arr
            self._eta_table = e_arr

    @classmethod
    def constant(cls, eta: float) -> "DetectorModel":
        return cls(eta=eta)

    @classmethod
    def tabulated(cls, k_table, eta_table) -> "DetectorModel":
        return cls(k_table=k_table, eta_table=eta_table)

    @property
    def is_constant(self) -> bool:
        return self._eta is not None

    def __call__(self, k) -> np.ndarray:
        """Evaluate eta on an array of wavenumbers, checking 0 < eta <= 1."""
        k_arr = np.asarray(k, dtype=float)
        if self._eta is not None:
            return np.full(k_arr.shape, self._eta)
        out = np.interp(k_arr, self._k_table, self._eta_table)
        if np.any(out <= 0.0) or np.any(out > 1.0):
            raise InvalidField("eta", "tabulated efficiency leaves (0, 1] on "
                                      "the requested support")
        return out

    def to_json(self) -> float | dict:
        """The constant efficiency, or the table as {"k": [...], "eta": [...]}."""
        if self._eta is not None:
            return self._eta
        return {"k": self._k_table.tolist(), "eta": self._eta_table.tolist()}


def as_detector(detector) -> DetectorModel:
    """Coerce a float or DetectorModel argument into a DetectorModel."""
    if isinstance(detector, DetectorModel):
        return detector
    return DetectorModel.constant(float(detector))


def rescaled(params: SystemParams, pulse: PulseSpec, factor: float
             ) -> tuple[SystemParams, PulseSpec]:
    """Scale every rate-like quantity by a common positive factor.

    Dimensionless outputs (fidelities, probabilities, xi, C) are invariant
    under this map; it exists mainly so the invariance can be tested.
    """
    if factor <= 0.0:
        raise InvalidField("factor", "scale factor must be > 0")
    new_params = replace(
        params,
        lambda_L=params.lambda_L * factor,
        lambda_R=params.lambda_R * factor,
        kappa=params.kappa * factor,
        gamma=params.gamma * factor,
        k_c=params.k_c * factor,
        delta_e=params.delta_e * factor,
    )
    new_pulse = replace(
        pulse,
        delta_p=pulse.delta_p * factor,
        kappa_p=pulse.kappa_p * factor,
        x_0=pulse.x_0 / factor,
    )
    return new_params, new_pulse
