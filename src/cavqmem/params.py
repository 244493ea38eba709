"""System parameters, pulse profiles, the detector efficiency and qubit
amplitudes.

Unit convention: every rate and frequency is a dimensionless multiple of one
global rate unit (the CLI fixes gamma = 1).  Frequencies enter the formulas
only relative to the cavity resonance k_c, which is retained purely so that
displayed wavenumbers can be absolute; all defaults put k_c = 0.

SystemParams and PulseSpec check themselves when they are built, so every
point that exists is physical and nothing downstream re-checks one.  The
detector efficiency eta is one float in (0, 1], checked by
`check_efficiency` where it enters a public function.

A batch of points is a `ParamRows`: one float array per field, lambda^2
computed once.  The sweeps and curve families build theirs from field
columns with `grid_rows`, whose one vectorised row check stands in for the
per-point checks and raises, for the first failing row, the error that
row's own SystemParams or PulseSpec would raise.  `point_rows` turns a list
of points, already checked, into the same batch.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from enum import Enum
from operator import attrgetter
from typing import Mapping, NamedTuple, Sequence

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

    def __post_init__(self):
        validate(self)

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
    wavepacket center.  x_0 is checked and echoed, but no computation reads
    it: it would be a pure linear phase on f, and every output pairs f with
    its own conjugate at the same wavenumber.
    """

    profile: Profile = Profile.GAUSSIAN
    delta_p: float = 0.0
    kappa_p: float = 0.2
    x_0: float = 0.0

    def __post_init__(self):
        # Accept the plain string spelling from JSON.
        if not isinstance(self.profile, Profile):
            try:
                profile = Profile(self.profile)
            except ValueError:
                raise InvalidField(str(self.profile),
                                   "unknown profile") from None
            object.__setattr__(self, "profile", profile)
        validate_pulse(self)


#: Field names of the two dataclasses in declaration order: the key order
#: of `point_to_dict` and the parameter columns of the sweep CSV.
SYSTEM_FIELDS = tuple(f.name for f in fields(SystemParams))
PULSE_FIELDS = tuple(f.name for f in fields(PulseSpec))
#: The numeric pulse fields; with SYSTEM_FIELDS, the directly sweepable ones.
PULSE_NUMERIC_FIELDS = tuple(f for f in PULSE_FIELDS if f != "profile")


def _require_finite(point, names: tuple[str, ...]) -> None:
    """Raise InvalidField for a field that is not a real number and
    NonFiniteField for one that is NaN or infinite."""
    for name in names:
        try:
            finite = math.isfinite(getattr(point, name))
        except TypeError:
            raise InvalidField(name, "not a number") from None
        if not finite:
            raise NonFiniteField(name)


def validate(params: SystemParams) -> SystemParams:
    """Check a parameter set and return it unchanged; every SystemParams runs
    this when it is built, so an unphysical point cannot exist.

    Raises InvalidField, NonFiniteField, NonPositiveKappa, NegativeGamma or
    ZeroCoupling.
    """
    _require_finite(params, SYSTEM_FIELDS)
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
    """Check a pulse spec and return it unchanged; every PulseSpec runs this
    when it is built.  Raises InvalidField, NonFiniteField or
    NonPositiveKappa."""
    _require_finite(pulse, PULSE_NUMERIC_FIELDS)
    if pulse.kappa_p <= 0.0:
        raise NonPositiveKappa("kappa_p")
    return pulse


#: The numeric fields of a parameter row, in ParamRows order.
ROW_FIELDS = SYSTEM_FIELDS + PULSE_NUMERIC_FIELDS


class ParamRows(NamedTuple):
    """A batch of parameter points as columns: one float array per field of
    ROW_FIELDS, entry i of each belonging to point i, then the bool column
    `lorentzian` (the pulse profile) and lambda^2, computed once."""

    lambda_L: np.ndarray
    lambda_R: np.ndarray
    theta_L: np.ndarray
    theta_R: np.ndarray
    kappa: np.ndarray
    gamma: np.ndarray
    k_c: np.ndarray
    delta_e: np.ndarray
    delta_p: np.ndarray
    kappa_p: np.ndarray
    x_0: np.ndarray
    lorentzian: np.ndarray
    lambda_sq: np.ndarray


def coupling_sq(lambda_L, lambda_R) -> tuple[np.ndarray, np.ndarray]:
    """lambda_L^2 + lambda_R^2 of coupling columns, and the rows where a
    finite coupling's square overflows (where `SystemParams.lambda_sq`
    raises OverflowError).  Each square is libm's pow, as Python's ** takes
    it; numpy's x**2 and x*x round differently in the last bit."""
    with np.errstate(all="ignore"):
        sq_l, sq_r = np.float_power(lambda_L, 2.0), np.float_power(lambda_R, 2.0)
        overflow = ((np.isinf(sq_l) & np.isfinite(lambda_L))
                    | (np.isinf(sq_r) & np.isfinite(lambda_R)))
        return sq_l + sq_r, overflow


def grid_rows(columns: Mapping[str, float | np.ndarray], lorentzian,
              failures: Sequence[tuple[np.ndarray, Exception]] = ()
              ) -> ParamRows:
    """Checked rows from field columns: `columns` maps every name of
    ROW_FIELDS to a float or a 1-d array, the arrays of one length, and
    `lorentzian` is a bool or such an array.

    One vectorised check stands in for the checks of SystemParams and
    PulseSpec.  `failures` are (mask, error) pairs for rows that failed
    before they were built (a derived sweep axis that cannot apply), in the
    order they were met.  The first row that fails raises: its first
    failure if it has one, else the error of its own SystemParams or
    PulseSpec build, so the typed error and message are the scalar ones.
    """
    table = np.array(np.broadcast_arrays(
        *(np.asarray(columns[name], dtype=float) for name in ROW_FIELDS)))
    table = table.reshape(len(ROW_FIELDS), -1)
    lambda_sq, overflow = coupling_sq(table[0], table[1])
    rows = ParamRows(*table, np.array(np.broadcast_to(lorentzian,
                                                      table.shape[1:])),
                     lambda_sq)
    with np.errstate(invalid="ignore"):
        ok = (np.isfinite(table).all(axis=0) & (rows.kappa > 0.0)
              & (rows.gamma >= 0.0) & ~overflow & (lambda_sq > 0.0)
              & (rows.kappa_p > 0.0))
    for mask, _ in failures:
        ok &= ~mask
    if not ok.all():
        _raise_row_error(rows, int(np.argmin(ok)), failures)
    return rows


def _raise_row_error(rows: ParamRows, row: int,
                     failures: Sequence[tuple[np.ndarray, Exception]]):
    """Raise the error of one row of `grid_rows`: its first failure, else
    the error of building it as a point."""
    for mask, error in failures:
        if mask[row]:
            raise error
    SystemParams(*(float(getattr(rows, name)[row]) for name in SYSTEM_FIELDS))
    PulseSpec(**{name: float(getattr(rows, name)[row])
                 for name in PULSE_NUMERIC_FIELDS})


_SYSTEM_VALUES = attrgetter(*SYSTEM_FIELDS)
_PULSE_VALUES = attrgetter(*PULSE_NUMERIC_FIELDS)


def point_rows(points: Sequence[tuple[SystemParams, PulseSpec]]
               ) -> ParamRows:
    """The rows of (params, pulse) points, which checked themselves when
    they were built, so no row check runs."""
    table = np.array([_SYSTEM_VALUES(params) + _PULSE_VALUES(pulse)
                      + (pulse.profile is Profile.LORENTZIAN,
                         params.lambda_sq)
                      for params, pulse in points], dtype=float)
    table = table.reshape(-1, len(ParamRows._fields)).T
    return ParamRows(*table[:-2], table[-2].astype(bool), table[-1])


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


def split_coupling(lambda_sq, ratio):
    """(lambda_L, lambda_R) with lambda_L^2 + lambda_R^2 = lambda_sq and
    lambda_L / lambda_R = ratio, elementwise on floats or arrays; NaN where
    lambda_sq < 0, which the point or row check then names."""
    with np.errstate(invalid="ignore"):
        lam_r = np.sqrt(lambda_sq / (1.0 + ratio * ratio))
    return ratio * lam_r, lam_r


def family_params(coop: float, ratio: float = 1.0,
                  delta_e: float = 0.0) -> SystemParams:
    """Curve-family parameter point: lambda^2 = coop * kappa * gamma with the
    given coupling ratio lambda_L/lambda_R, kappa = 2, gamma = 1."""
    lam_l, lam_r = split_coupling(coop * FAMILY_KAPPA, ratio)
    return SystemParams(lambda_L=float(lam_l), lambda_R=float(lam_r),
                        kappa=FAMILY_KAPPA, gamma=1.0, delta_e=delta_e)


def family_rows(blocks: Sequence[tuple[bool, float, float]], coop, ratio,
                width) -> ParamRows:
    """Checked rows of a curve family: the samples (coop, ratio, width),
    each a float or an array of one length, once per (lorentzian, delta_e,
    delta_p) block, block major.  coop and ratio set the couplings as in
    `family_params`, and width is kappa_p / kappa."""
    coop, ratio, width = np.broadcast_arrays(coop, ratio, width)
    lorentzian, delta_e, delta_p = (np.repeat(column, coop.size)
                                    for column in zip(*blocks))
    lam_l, lam_r = split_coupling(np.tile(coop, len(blocks)) * FAMILY_KAPPA,
                                  np.tile(ratio, len(blocks)))
    return grid_rows({"lambda_L": lam_l, "lambda_R": lam_r, "theta_L": 0.0,
                      "theta_R": 0.0, "kappa": FAMILY_KAPPA, "gamma": 1.0,
                      "k_c": 0.0, "delta_e": delta_e, "delta_p": delta_p,
                      "kappa_p": np.tile(width, len(blocks)) * FAMILY_KAPPA,
                      "x_0": 0.0}, lorentzian)


def cooperativity(params: SystemParams) -> float:
    """C = lambda^2 / (kappa * gamma).  Raises GammaZero at gamma = 0."""
    if params.gamma == 0.0:
        raise GammaZero()
    return params.lambda_sq / (params.kappa * params.gamma)


def point_to_dict(params: SystemParams, pulse: PulseSpec) -> dict:
    """Flatten one parameter point into a JSON-ready dict."""
    out = {name: getattr(params, name) for name in SYSTEM_FIELDS}
    out.update({name: getattr(pulse, name) for name in PULSE_FIELDS})
    out["profile"] = pulse.profile.value
    return out


def _number(key: str, value) -> float:
    # float() would also read a string or a bool; a plain float skips the
    # ABC check, which costs microseconds on a cold cache
    if type(value) is float:
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise InvalidField(key, f"not a number: {value!r}")


def point_from_dict(data: dict) -> tuple[SystemParams, PulseSpec]:
    """Build (SystemParams, PulseSpec) from a flat dict.

    Missing fields take their defaults; anything but a dict, unknown keys
    and values that are not numbers (or a profile name) raise InvalidField;
    an unphysical point raises its typed error when it is built.
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
    return SystemParams(**sys_kwargs), PulseSpec(**pulse_kwargs)


@dataclass(frozen=True)
class AtomQubit:
    """Ground-state atomic qubit amplitudes on (|L>, |R>)."""

    a_L: complex
    a_R: complex

    @property
    def norm_sq(self) -> float:
        return abs(self.a_L) ** 2 + abs(self.a_R) ** 2

    def normalized(self) -> "AtomQubit":
        n = qubit_norm(self)
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
        n = qubit_norm(self)
        return PhotonQubit(self.c_L / n, self.c_R / n)


def qubit_norm(qubit) -> float:
    """sqrt(|amplitudes|^2), the divisor of `normalized`.  Raises InvalidField
    when it is zero or non-finite, as no unit vector is then in reach."""
    n = math.sqrt(qubit.norm_sq)
    if not 0.0 < n < math.inf:
        raise InvalidField("qubit",
                           f"cannot be normalized, |a|^2 = {qubit.norm_sq!r}")
    return n


def require_normalized(qubit, tol: float = 1e-9) -> None:
    """Raise InvalidField unless |amplitudes|^2 sum to 1 within tol (a
    non-finite amplitude never does)."""
    if not abs(qubit.norm_sq - 1.0) <= tol:
        raise InvalidField("qubit", f"not normalized, |a|^2 = {qubit.norm_sq!r}")


def check_efficiency(eta) -> float:
    """The detector efficiency eta as a float.  Raises InvalidField unless it
    is a real number in (0, 1]."""
    # a plain float skips the ABC check, which costs microseconds on a cold
    # cache
    if type(eta) is float:
        if 0.0 < eta <= 1.0:
            return eta
    elif isinstance(eta, numbers.Real) and 0.0 < eta <= 1.0:
        return float(eta)
    raise InvalidField(
        "eta", f"constant efficiency must be in (0, 1], got {eta!r}")
