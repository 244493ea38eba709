"""Closed-form fidelities and success probabilities of the memory protocol.

Protocol reminder: the atom starts in |R>, the qubit photon
c_L |k_L> + c_R |k_R> scatters, the outgoing photon is detected in the k_L
polarization channel (efficiency eta), which leaves the qubit on the atom; a
later retrieval photon |k_R> scatters and a projective measurement finds the
atom in |L>, releasing the qubit onto the retrieval photon.

The polarization-flip element is T_LR = e^{-i(theta_L - theta_R)} sin(2 xi)
h(k), and the detector efficiency eta is one number in (0, 1], so every
closed form is arithmetic on eta and two intensity averages of the scattered
amplitude h(k) over the pulse,

    [h]_f and [|h|^2]_f.

`spectral_moments` computes both exactly for a batch of parameter points, a
`params.ParamRows`: h has three poles, so [h]_f and [|h|^2]_f are finite
sums of exact pole averages (`scattering.pole_expansion`,
`spectral.pole_averages`).  Nothing here integrates on a quadrature rule
but `qm_fidelity`'s optional `quad` (see there); the state oracle does.

A moment that overflows to NaN or infinity raises NonFiniteIntegrand, and
a [|h|^2]_f outside [0, 1] (passivity bounds |h|^2 by 1
pointwise) raises PrecisionLoss.

The exact pass works in row chunks of at most CHUNK_ROWS (512) points, so
memory stays flat in the batch size: it is bounded by one Gaussian chunk's
Faddeeva table.  With cold caches a chunk's fixed cost outweighs its
per-row work, so a chunk is large enough to take a curve family, or a
sweep of up to 512 points, in one pass.  A batch of one profile that fits
in one chunk, a single point above all, is passed to the chunk's kernel as
it is: no row is selected and no output gathered.
Two entries hand out the closed forms.  `metric_columns` evaluates every
figure of merit of a batch as columns, one array per figure, the arithmetic
on the parameters (lambda^2, sin^2 2xi, the leading-order swap fidelity,
the balanced flag) included; the CSV columns and the `point` JSON of `cli`
are its arrays.  `cycle_closed_forms` evaluates one store-and-retrieve
cycle, one dict per input qubit, for the state oracle to be compared with.
It, `qm_fidelity` and `transfer_fidelity` turn their point into a batch of
one with `params.point_rows` and take its moments from the one kernel every
batch size runs; the first two then do their arithmetic on the row's two
moments as Python numbers.  The closed-form helpers are written once and
serve both: they run elementwise on a batch's columns and on one row's
numbers, which round alike, so a point's figures do not depend on the
batch it is evaluated in, bit for bit.  Every row was checked when its
batch was built (`params.grid_rows`, or the points' own constructors), so
nothing here re-checks one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (NonFiniteIntegrand, PrecisionLoss, UnequalCouplings,
                     ZeroScatteringWeight)
from .params import (
    AtomQubit,
    ParamRows,
    PhotonQubit,
    Profile,
    PulseSpec,
    SystemParams,
    check_efficiency,
    point_rows,
    require_normalized,
)
from .scattering import pole_expansion, scattered_amplitude
from .spectral import QuadratureConfig, pole_averages, spectral_average

#: Relative coupling asymmetry below which lambda_L and lambda_R count as equal.
EQUAL_COUPLING_RTOL = 1e-12

#: Probability mass below which conditioning and fidelity ratios are refused.
TINY_WEIGHT = 1e-300

#: Parameter points per chunk of the exact pass.  A chunk pays a fixed cost
#: (~150-250 us with cold caches) whatever its size, so one chunk holds a
#: whole curve family (fig4 has 369 rows) or a sweep of up to 512 points;
#: its largest array, the Faddeeva table of a Gaussian chunk (3 x 512 x 36
#: complex, 0.88 MB), bounds the pass's memory.
CHUNK_ROWS = 512

#: Rounding slack of the passivity bound [|h|^2]_f <= 1.
PASSIVITY_SLACK = 1e-12

# the passivity bounds as 0-d arrays, which short columns compare with at
# the cost of a column, where a Python float costs more
_ZERO = np.array(0.0)
_PASSIVE_MAX = np.array(1.0 + PASSIVITY_SLACK)

Point = tuple[SystemParams, PulseSpec]


@dataclass(frozen=True)
class SpectralMoments:
    """Intensity averages of h(k) for a batch of points, one entry per point."""

    h: np.ndarray       # [h]_f, complex
    h2: np.ndarray      # [|h|^2]_f


def spectral_moments(rows: ParamRows) -> SpectralMoments:
    """[h]_f and [|h|^2]_f of every row of the batch, exactly (see the
    module docstring).  `rows` comes from `params.point_rows` (or
    `params.grid_rows`), which checked every row.

    Raises DegenerateDenominator from the scattering map,
    NonFiniteIntegrand where a moment overflows (a rate or detuning too
    large for double precision), and PrecisionLoss where [|h|^2]_f leaves
    [0, 1] (the exact pole sums cancel catastrophically, e.g. at
    kappa = 1e16).
    """
    with np.errstate(all="ignore"):
        h, h2 = _exact_moments(rows)
    # passivity, 0 <= [|h|^2] <= 1 up to rounding; NaN fails it too
    passive = (h2 >= _ZERO) & (h2 <= _PASSIVE_MAX)
    if np.count_nonzero(passive & np.isfinite(h)) < passive.size:
        if not (np.isfinite(h).all() and np.isfinite(h2).all()):
            raise NonFiniteIntegrand("the spectral moments [h], [|h|^2] "
                                     "overflow at this parameter point")
        raise PrecisionLoss(float(h2[~passive][0]))
    return SpectralMoments(h=h, h2=h2)


def _exact_moments(rows: ParamRows) -> tuple[np.ndarray, np.ndarray]:
    """[h]_f and [|h|^2]_f of every row from the pole sums of h, each
    profile's rows in chunks of at most CHUNK_ROWS.  A batch of one profile
    that fits in a chunk (a single point among them) is that chunk: no row
    is selected and no output is gathered."""
    count = len(rows.kappa)
    lorentzian = np.count_nonzero(rows.lorentzian)
    if count <= CHUNK_ROWS and lorentzian in (0, count):
        return _chunk_exact(Profile.LORENTZIAN if lorentzian
                            else Profile.GAUSSIAN, rows)
    h = np.empty(count, dtype=complex)
    h2 = np.empty(count)
    for profile, mask in ((Profile.GAUSSIAN, ~rows.lorentzian),
                          (Profile.LORENTZIAN, rows.lorentzian)):
        index = mask.nonzero()[0]
        for start in range(0, index.size, CHUNK_ROWS):
            chunk = index[start:start + CHUNK_ROWS]
            h[chunk], h2[chunk] = _chunk_exact(
                profile, ParamRows(*(column[chunk] for column in rows)))
    return h, h2


def _chunk_exact(profile: Profile, rows: ParamRows
                 ) -> tuple[np.ndarray, np.ndarray]:
    """[h]_f and [|h|^2]_f of rows sharing a profile, from the pole sums of
    `scattering.pole_expansion` and the averages of each pole."""
    e = pole_expansion(rows.kappa, rows.gamma, rows.delta_e, rows.lambda_sq)
    center, width = np.array((rows.delta_p, rows.kappa_p), dtype=complex)
    a_0, a_2, a_12 = pole_averages(profile, center, width, e.z0,
                                   (e.z1, e.z2))
    h = e.a0 * (a_0 - a_2) + e.a12 * a_12
    h2 = (e.l2 * a_2 + e.l12 * a_12).real - h.real
    return h, h2


# Closed forms on the moments, written once: elementwise on a batch's
# columns for `metric_columns`, and on one row's Python numbers for
# `cycle_closed_forms` and `qm_fidelity`, where a step on a one-entry array
# costs ~0.5-1 us and one on numbers ~0.03 us.  Both round alike (IEEE
# steps, and numpy promotes a real to x + 0i as Python does), so a row's
# figures equal its column entries bit for bit.  h is [h]_f, h2 [|h|^2]_f,
# sin2 sin^2(2 xi), eta the detector efficiency, cl2 and cr2 the input
# weights |c_L|^2 and |c_R|^2.  Squares are x * x, the rounding numpy's
# x ** 2 has on arrays (Python's ** takes libm's pow, which may differ).

def _sin2(lambda_L, lambda_R, lambda_sq):
    ratio = 2.0 * lambda_L * lambda_R / lambda_sq
    return ratio * ratio


def _leading(kappa, gamma, delta_e, delta_p, lam2):
    """The leading-order swap fidelity (see `swap_fidelity_leading`)."""
    penalty = kappa * delta_e / lam2 + delta_p / kappa
    return 1.0 - 2.0 * kappa * gamma / lam2 - penalty * penalty


def _balanced(lambda_L, lambda_R, lambda_sq):
    """lambda_L = lambda_R to EQUAL_COUPLING_RTOL."""
    return (abs(lambda_L - lambda_R)
            <= EQUAL_COUPLING_RTOL * np.sqrt(lambda_sq))


def _weight(value):
    """`value`, refusing it (ZeroScatteringWeight) where it is below
    TINY_WEIGHT: a figure conditioned on it is undefined."""
    below = value < TINY_WEIGHT   # a bool for a number, a bool column else
    if below is not False and np.count_nonzero(below):
        raise ZeroScatteringWeight()
    return value


def _memory_fidelity(h, h2):
    return (h.real * h.real + h.imag * h.imag) / _weight(h2)


def _success(h2, sin2, eta):
    """P_qm = eta [|T_LR|^2]_f."""
    return sin2 * (eta * h2)


def _storage(h2, sin2, eta, cl2, cr2):
    """P(k_L) = eta (|c_L|^2 + |c_R|^2 [|T_LR|^2]_f)."""
    return cl2 * eta + cr2 * _success(h2, sin2, eta)


def _retrieved_weight(h2, sin2, eta, cl2, cr2):
    """eta (|c_R|^2 + |c_L|^2) [|T_LR|^2]_f: the joint probability of
    storage and retrieval."""
    return cr2 * _success(h2, sin2, eta) + cl2 * sin2 * h2 * eta


def _retrieval(h2, sin2, eta, cl2, cr2):
    return (_retrieved_weight(h2, sin2, eta, cl2, cr2)
            / _weight(_storage(h2, sin2, eta, cl2, cr2)))


def _retrieved_fidelity(h, h2, sin2, eta, cl2, cr2):
    denominator = _weight(_retrieved_weight(h2, sin2, eta, cl2, cr2))
    eta_h = eta * h
    cross = h.real * eta_h.real + h.imag * eta_h.imag
    numerator = sin2 * (cr2 * cr2 * (eta * h2) + 2.0 * cr2 * cl2 * cross
                        + cl2 * cl2 * (h.real * h.real + h.imag * h.imag)
                        * eta)
    return numerator / denominator


def _input_weights(photon: PhotonQubit) -> tuple[float, float]:
    require_normalized(photon)
    return abs(photon.c_L) ** 2, abs(photon.c_R) ** 2


def swap_fidelity_leading(params: SystemParams, pulse: PulseSpec) -> float:
    """Narrow-pulse, strong-coupling expansion of the swap fidelity:

        1 - 2 kappa gamma / lambda^2
          - (kappa delta_e / lambda^2 + delta_p / kappa)^2.

    Choosing delta_p = -(kappa/lambda)^2 delta_e cancels the detuning penalty
    identically.
    """
    return _leading(params.kappa, params.gamma, params.delta_e, pulse.delta_p,
                    params.lambda_sq)


def qm_fidelity(params: SystemParams, pulse: PulseSpec,
                quad: QuadratureConfig | None = None) -> float:
    """Memory fidelity of the full store-and-retrieve cycle,

        F_qm = |[h(k)]_f|^2 / [|h(k)|^2]_f.

    Independent of the coupling ratio lambda_L/lambda_R (only lambda^2 enters
    h) and of the detection efficiency.  Raises ZeroScatteringWeight when the
    pulse effectively never scatters.

    Exact for quad=None.  An explicit rule averages h over the pulse's
    detunings (`spectral_average`), refusing what `spectral_moments` does,
    for the benchmark's pair check, which compares the state oracle on that
    rule; the rule goes when that check moves to the exact forms.
    """
    if quad is None:
        m = spectral_moments(point_rows([(params, pulse)]))
        return _memory_fidelity(m.h.item(), m.h2.item())
    detuned = replace(params, k_c=0.0)

    def power(s):
        amp = scattered_amplitude(s, detuned)
        return amp.real ** 2 + amp.imag ** 2
    with np.errstate(all="ignore"):   # an overflow raises NonFiniteIntegrand
        h = spectral_average(lambda s: scattered_amplitude(s, detuned), pulse,
                             quad)
        h2 = spectral_average(power, pulse, quad).real
    if not 0.0 <= h2 <= 1.0 + PASSIVITY_SLACK:
        raise PrecisionLoss(h2)
    return _memory_fidelity(h, h2)


def cycle_closed_forms(params: SystemParams, pulse: PulseSpec,
                       photons: Sequence[PhotonQubit] = (PhotonQubit(0.0, 1.0),),
                       detector: float = 1.0) -> list[dict[str, float]]:
    """Every closed form of one store-and-retrieve cycle, per input qubit,
    from a single moment pass.

    Entry i holds, for photons[i] and eta = detector: "F_qm"; "P_kL" =
    eta (|c_L|^2 + |c_R|^2 [|T_LR|^2]_f); "P_L", retrieval's chance to find
    the atom in |L> given storage; "P_qm" = P_kL P_L; and "fidelity" = F_qm
    + (1 - F_qm)(1 - |c_L|^2)^2, the retrieved photon's.  The first four
    equal the point's `metric_columns` row for that qubit, bit for bit.
    """
    weights = [_input_weights(photon) for photon in photons]
    eta = check_efficiency(detector)
    m = spectral_moments(point_rows([(params, pulse)]))
    h, h2 = m.h.item(), m.h2.item()
    sin2 = _sin2(params.lambda_L, params.lambda_R, params.lambda_sq)
    f_qm = float(_memory_fidelity(h, h2))
    p_qm = float(_success(h2, sin2, eta))
    return [{"F_qm": f_qm,
             "P_kL": float(_storage(h2, sin2, eta, cl2, cr2)),
             "P_L": float(_retrieval(h2, sin2, eta, cl2, cr2)),
             "P_qm": p_qm,
             "fidelity": float(_retrieved_fidelity(h, h2, sin2, eta, cl2,
                                                   cr2))}
            for cl2, cr2 in weights]


def swap_target_atom(photon: PhotonQubit, params: SystemParams) -> AtomQubit:
    """Atomic state onto which an ideal swap maps the photonic qubit:
    c_R e^{i theta_R} |L> - c_L e^{i theta_L} |R>."""
    return AtomQubit(
        a_L=photon.c_R * np.exp(1j * params.theta_R),
        a_R=-photon.c_L * np.exp(1j * params.theta_L),
    )


def transfer_fidelity(params: SystemParams, pulse: PulseSpec,
                      atom: AtomQubit = AtomQubit(0.0, 1.0),
                      photon: PhotonQubit = PhotonQubit(0.0, 1.0)) -> float:
    """One-shot swap fidelity for an arbitrary atomic pre-state,

        F = F_swap + (1 - F_swap) |<swap target | atom>|^2,

    valid for lambda_L = lambda_R only (raises UnequalCouplings otherwise).
    Summed over the photon inputs |k_L> and |k_R> at any fixed atom this
    yields 1 + [|T_LR|^2]_f.
    """
    if not _balanced(params.lambda_L, params.lambda_R, params.lambda_sq):
        raise UnequalCouplings(params.lambda_L, params.lambda_R)
    require_normalized(atom)
    require_normalized(photon)
    f_swap = float(spectral_moments(point_rows([(params, pulse)])).h2[0])
    target = swap_target_atom(photon, params)
    overlap = (np.conjugate(target.a_L) * atom.a_L
               + np.conjugate(target.a_R) * atom.a_R)
    return float(f_swap + (1.0 - f_swap) * abs(overlap) ** 2)


_BALANCED = PhotonQubit(1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))


class MetricColumns(NamedTuple):
    """The closed-form figures of merit of a batch, one array per figure
    (float64, bool for f_swap_meaningful), entry i belonging to point i.
    F_swap = [|h|^2]_f is a swap fidelity only where f_swap_meaningful; F_qm
    to P_qm are those of `cycle_closed_forms` for the batch's input qubit."""

    F_swap: np.ndarray
    F_swap_leading: np.ndarray
    F_qm: np.ndarray
    P_kL: np.ndarray
    P_L: np.ndarray
    P_qm: np.ndarray
    P_qm_conditional: np.ndarray
    f_swap_meaningful: np.ndarray


def metric_columns(rows: ParamRows,
                   eta: float = 1.0,
                   photon: PhotonQubit = _BALANCED) -> MetricColumns:
    """Every closed-form metric of every row of the batch (from
    `params.grid_rows` or `params.point_rows`) from one moment pass, as
    columns.  Raises InvalidField unless 0 < eta <= 1, and
    ZeroScatteringWeight where any metric is undefined."""
    cl2, cr2 = _input_weights(photon)
    eta = check_efficiency(eta)
    m = spectral_moments(rows)
    h, h2 = m.h, m.h2
    sin2 = _sin2(rows.lambda_L, rows.lambda_R, rows.lambda_sq)
    p_qm = _success(h2, sin2, eta)
    # float semantics, as in the scalar swap_fidelity_leading: an overflow
    # gives inf (or NaN) without a warning
    with np.errstate(all="ignore"):
        leading = _leading(rows.kappa, rows.gamma, rows.delta_e,
                           rows.delta_p, rows.lambda_sq)
    return MetricColumns(
        F_swap=h2,
        F_swap_leading=leading,
        F_qm=_memory_fidelity(h, h2),
        P_kL=_storage(h2, sin2, eta, cl2, cr2),
        P_L=_retrieval(h2, sin2, eta, cl2, cr2),
        P_qm=p_qm,
        P_qm_conditional=p_qm * p_qm,
        f_swap_meaningful=_balanced(rows.lambda_L, rows.lambda_R,
                                    rows.lambda_sq),
    )
