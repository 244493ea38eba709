"""Invariant families of the cavity memory, each computed in one place.

The exact algebra of the polarization map T(k) (det T = trace T - 1 = the
bright phase, |T_LR| = sin(2 xi) |h|, passivity, lossless unitarity, the
left-unit relation, dependence on lambda^2 only) and the averaged claims
(quadrature normalization, agreement of the exact closed forms with a rule,
F_qm independent of the coupling ratio, the factored success probability,
memory >= swap, oracle agreement).  Each family maps given inputs to its
worst residual; the averaged ones take their closed forms from one
`metrics` batch, which is exact.  The families that check an identity on
one rule (normalization, the factored success probability) or measure its
error (exact-route agreement) take their on-rule moments from
`spectral_average`; oracle agreement runs the state oracle on the rule.
`validate_suite` draws the inputs and applies the bounds of
`cavqmem validate`; the acceptance tests call the same families on their
own draws.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from . import metrics
from .errors import InvalidField
from .metrics import Point
from .params import (FAMILY_KAPPA, FIG2_CASES, FIG3_CASES, PhotonQubit,
                     Profile, PulseSpec, SystemParams, family_params,
                     point_rows)
from .scattering import (bright_phase_factor, detuned_elements,
                         scattered_amplitude, t_elements)
from .spectral import (DEFAULT_QUAD, QuadratureConfig, quadrature_rule,
                       spectral_average)
from .statesim import run_memory_protocol

#: The simulated-cycle quantities that `oracle` and `validate` compare with
#: their closed forms.
ORACLE_KEYS = ("P_kL", "P_L", "P_qm", "fidelity")

Samples = Sequence[tuple[SystemParams, np.ndarray]]

#: Residuals of identities that hold exactly are rounding below this:
#: `validate` prints such a residual as "< 1e-13", so an ulp-level change in
#: the code leaves its output alone.  A residual above it, and every
#: failure, prints its figure.
ROUNDING_FLOOR = 1e-13


def _determinant_residual(t_ll, t_rr, t_lr, t_rl, phase) -> float:
    return float(np.max(np.abs(t_ll * t_rr - t_lr * t_rl - phase)))


def scattering_identities(samples: Samples) -> dict[str, float]:
    """Worst residuals of det T = e^{i phi}, trace T = 1 + e^{i phi} and
    |T_LR| = sin(2 xi) |h|, and the passivity excess max |e^{i phi}| - 1."""
    rows = []
    for params, k in samples:
        t_ll, t_rr, t_lr, t_rl = t_elements(k, params)
        phase = bright_phase_factor(k, params)
        h = scattered_amplitude(k, params)
        rows.append((_determinant_residual(t_ll, t_rr, t_lr, t_rl, phase),
                     np.max(np.abs(t_ll + t_rr - 1.0 - phase)),
                     np.max(np.abs(np.abs(t_lr) - params.sin_2xi * np.abs(h))),
                     np.max(np.abs(phase)) - 1.0))
    return dict(zip(("determinant", "trace", "cross", "passivity"),
                    np.max(rows, axis=0).tolist()))


def left_unit_relation(samples: Samples) -> float:
    """Worst |T_LL - e^{i(theta_L - theta_R)} T_LR - 1| over samples with
    equal couplings."""
    worst = 0.0
    for params, k in samples:
        t_ll, _, t_lr, _ = t_elements(k, params)
        shift = np.exp(1j * (params.theta_L - params.theta_R))
        worst = max(worst, float(np.max(np.abs(t_ll - shift * t_lr - 1.0))))
    return worst


def lossless_unitarity(samples: Samples) -> float:
    """Worst deviation from |e^{i phi}| = 1 and from unit, orthogonal
    columns of T over samples with gamma = 0."""
    worst = 0.0
    for params, k in samples:
        t_ll, t_rr, t_lr, t_rl = t_elements(k, params)
        for residual in (np.abs(bright_phase_factor(k, params)) - 1.0,
                         np.abs(t_ll) ** 2 + np.abs(t_rl) ** 2 - 1.0,
                         np.abs(t_lr) ** 2 + np.abs(t_rr) ** 2 - 1.0,
                         t_ll * np.conjugate(t_lr) + t_rl * np.conjugate(t_rr)):
            worst = max(worst, float(np.max(np.abs(residual))))
    return worst


def phase_ratio_spread(k: np.ndarray, variants: Sequence[SystemParams]) -> float:
    """Worst |e^{i phi}| difference of variants[1:] from variants[0], all with
    one lambda^2 split differently between the couplings."""
    ref = bright_phase_factor(k, variants[0])
    return max(float(np.max(np.abs(bright_phase_factor(k, other) - ref)))
               for other in variants[1:])


def quadrature_normalization(quad: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Worst |sum(omega) - 1| over the node tables of both profiles."""
    return max(abs(float(np.sum(quadrature_rule(profile, quad)[1])) - 1.0)
               for profile in Profile)


def _on_rule(moment, params: SystemParams, pulse: PulseSpec,
             quad: QuadratureConfig) -> complex:
    """[moment(h)]_f on the rule `quad`, h at the pulse's detunings as on the
    state oracle's grid."""
    detuned = replace(params, k_c=0.0)
    return spectral_average(
        lambda s: moment(scattered_amplitude(s, detuned)), pulse, quad)


def exact_route_agreement(points: Sequence[Point],
                          quad: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Worst |exact - quadrature on `quad`| of [h]_f, F_qm and F_swap over
    the points: the error of the rule the state oracle integrates on."""
    exact = metrics.spectral_moments(point_rows(points))
    h = np.array([_on_rule(lambda a: a, *point, quad) for point in points])
    h2 = np.array([_on_rule(lambda a: np.abs(a) ** 2, *point, quad).real
                   for point in points])
    f_qm = abs(exact.h) ** 2 / exact.h2 - abs(h) ** 2 / h2
    return float(max(np.max(np.abs(exact.h - h)), np.max(np.abs(f_qm)),
                     np.max(np.abs(exact.h2 - h2))))


def success_dual_route(points: Sequence[tuple[SystemParams, PulseSpec, float]],
                       quad: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Worst |eta [|T_LR|^2]_f - eta sin^2(2 xi) [|h|^2]_f| over (params,
    pulse, eta) points, both averages on the rule `quad`."""
    worst = 0.0
    for params, pulse, eta in points:
        direct = eta * spectral_average(
            lambda s: np.abs(detuned_elements(s, params)[2]) ** 2, pulse,
            quad).real
        swap = _on_rule(lambda a: np.abs(a) ** 2, params, pulse, quad).real
        worst = max(worst, abs(direct - eta * params.sin_2xi ** 2 * swap))
    return worst


def coupling_ratio_invariance(groups: Sequence[Sequence[Point]]) -> float:
    """Worst |F_qm - F_qm of the group's first point| over equal-length
    groups of points that differ only in the coupling ratio."""
    f_qm = metrics.metric_columns(point_rows(
        [point for group in groups for point in group])).F_qm
    f_qm = f_qm.reshape(len(groups), -1)
    return float(np.max(np.abs(f_qm[:, 1:] - f_qm[:, :1])))


def memory_swap_margin(points: Sequence[Point]) -> float:
    """Smallest F_qm - F_swap over the points."""
    columns = metrics.metric_columns(point_rows(points))
    return float(np.min(columns.F_qm - columns.F_swap))


def oracle_equivalence(cases: Sequence[tuple[SystemParams, PulseSpec, float,
                                             Sequence[PhotonQubit]]],
                       quad: QuadratureConfig = DEFAULT_QUAD) -> dict[str, float]:
    """Worst |state oracle on `quad` - exact closed form| per quantity over
    (params, pulse, eta, qubits) cases, the rule's error included: F_qm from
    a |k_L> input, the `ORACLE_KEYS` from each qubit."""
    worst = dict.fromkeys(("F_qm",) + ORACLE_KEYS, 0.0)
    k_l = PhotonQubit(1.0, 0.0)
    for params, pulse, eta, qubits in cases:
        base, *closed = metrics.cycle_closed_forms(params, pulse,
                                                   [k_l, *qubits], eta)
        record = run_memory_protocol(params, pulse, quad, photon=k_l,
                                     detector=eta)
        worst["F_qm"] = max(worst["F_qm"], abs(record.fidelity - base["F_qm"]))
        for qubit, forms in zip(qubits, closed):
            record = run_memory_protocol(params, pulse, quad, photon=qubit,
                                         detector=eta).to_dict()
            for key in ORACLE_KEYS:
                worst[key] = max(worst[key], abs(record[key] - forms[key]))
    return worst


def mutation_sensitivity(params: SystemParams, k: np.ndarray) -> float:
    """The determinant residual with T_LL corrupted the classic way (the
    angle squared instead of the sine); a working check puts it far from 0."""
    t_ll, t_rr, t_lr, t_rl = t_elements(k, params)
    phase = bright_phase_factor(k, params)
    mutant = phase * np.sin(params.xi ** 2) ** 2 + params.cos_xi ** 2
    return _determinant_residual(mutant, t_rr, t_lr, t_rl, phase)


# ---------------------------------------------------------------------------
# inputs of the `validate` suite

def _random_sample(rng: np.random.Generator, gamma: float | None = None
                   ) -> tuple[SystemParams, np.ndarray]:
    params = SystemParams(
        lambda_L=rng.uniform(0.05, 5.0), lambda_R=rng.uniform(0.05, 5.0),
        theta_L=rng.uniform(-math.pi, math.pi),
        theta_R=rng.uniform(-math.pi, math.pi), kappa=rng.uniform(0.2, 5.0),
        gamma=rng.uniform(0.0, 3.0) if gamma is None else gamma,
        k_c=rng.uniform(-3.0, 3.0), delta_e=rng.uniform(-8.0, 8.0))
    return params, params.k_c + params.kappa * rng.uniform(-20.0, 20.0, 100)


def draw_equivalence_point(rng: np.random.Generator
                           ) -> tuple[SystemParams, PulseSpec, float]:
    """Random parameter set in the oracle-equivalence ranges: cooperativity
    in [1, 100], kappa_p/kappa in [0.01, 0.3], delta_e in [-10, 10] gamma,
    delta_p in [-2, 2] gamma, mixing angle inside (0, pi/2), either profile,
    constant detector efficiency in (0.25, 1]."""
    kappa, gamma = 2.0, 1.0
    lam = math.sqrt(10.0 ** rng.uniform(0.0, 2.0) * kappa * gamma)
    xi = rng.uniform(0.05, math.pi / 2 - 0.05)
    params = SystemParams(
        lambda_L=lam * math.sin(xi), lambda_R=lam * math.cos(xi),
        theta_L=rng.uniform(-math.pi, math.pi),
        theta_R=rng.uniform(-math.pi, math.pi), kappa=kappa, gamma=gamma,
        k_c=rng.uniform(-2.0, 2.0), delta_e=rng.uniform(-10.0, 10.0))
    profile = Profile.GAUSSIAN if rng.random() < 0.5 else Profile.LORENTZIAN
    pulse = PulseSpec(
        profile=profile, delta_p=rng.uniform(-2.0, 2.0),
        kappa_p=kappa * 10.0 ** rng.uniform(-2.0, math.log10(0.3)),
        x_0=rng.uniform(0.0, 5.0))
    return params, pulse, float(rng.uniform(0.25, 1.0))


def random_photon_qubit(rng: np.random.Generator) -> PhotonQubit:
    c_l_sq = rng.uniform(0.0, 1.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return PhotonQubit(math.sqrt(c_l_sq),
                       math.sqrt(1.0 - c_l_sq) * complex(math.cos(phase),
                                                         math.sin(phase)))


def _fig2_points(ratio: float = 1.0) -> list[Point]:
    """The cooperativity family's grid at one coupling ratio."""
    return [(family_params(coop, ratio, delta_e),
             PulseSpec(delta_p=delta_p, kappa_p=0.1 * FAMILY_KAPPA))
            for _, delta_e, delta_p in FIG2_CASES for coop in (1.0, 10.0, 100.0)]


def _gate_points() -> list[Point]:
    """Representative points of the three curve families."""
    return (_fig2_points()
            + [(family_params(20.0, delta_e=delta_e),
                PulseSpec(profile=profile, delta_p=delta_p,
                          kappa_p=x * FAMILY_KAPPA))
               for profile in Profile for _, delta_e, delta_p in FIG3_CASES
               for x in (0.01, 0.1, 0.5)]
            + [(family_params(10.0, ratio),
                PulseSpec(kappa_p=0.1 * FAMILY_KAPPA))
               for ratio in (0.1, 1.0, 10.0)])


def validate_suite(trials: int = 20, seed: int = 20112,
                   quad: QuadratureConfig = DEFAULT_QUAD
                   ) -> tuple[bool, list[str]]:
    """Every invariant family on seeded inputs, with `trials` randomized
    oracle-equivalence cases.

    Returns (all_passed, one report line per family).  The last family
    demands that the determinant identity notices a corrupted element, so a
    silently weakened check cannot pass.  Raises InvalidField for trials < 1
    or a negative seed.
    """
    if trials < 1:
        raise InvalidField("trials", "need at least one equivalence trial")
    if seed < 0:
        raise InvalidField("seed", "must be >= 0")
    rng = np.random.default_rng(seed)
    pointwise = scattering_identities([_random_sample(rng)
                                       for _ in range(100)])
    left_unit = left_unit_relation([
        (replace(params, lambda_R=params.lambda_L), k)
        for params, k in (_random_sample(rng) for _ in range(30))])
    unitarity = lossless_unitarity([_random_sample(rng, gamma=0.0)
                                    for _ in range(30)])
    cases = [(*draw_equivalence_point(rng),
              [random_photon_qubit(rng) for _ in range(3)])
             for _ in range(trials)]
    eq = oracle_equivalence(cases, quad)
    worst = max(eq, key=eq.get)
    grid = _fig2_points()
    groups = list(zip(grid, _fig2_points(0.1), _fig2_points(10.0)))
    spread = phase_ratio_spread(np.linspace(-6.0, 6.0, 121), [
        family_params(10.0, ratio) for ratio in (1.0, 0.1, 0.5, 2.0, 10.0)])
    norm = quadrature_normalization(quad)
    agreement = exact_route_agreement(
        _gate_points() + [case[:2] for case in cases], quad)
    dual = success_dual_route([(*point, 1.0) for point in grid], quad)
    ratio = coupling_ratio_invariance(groups)
    margin = memory_swap_margin(grid)
    mutant = mutation_sensitivity(family_params(10.0),
                                  np.linspace(-3.0, 3.0, 241))
    over = " over 10000 samples"

    def exact(value: float, name: str, label: str, sep: str = "",
              tail: str = "") -> tuple[bool, str, str]:
        # an identity that holds to rounding: bound 1e-12, and a passing
        # residual below ROUNDING_FLOOR prints as that floor
        passed = value < 1e-12
        floored = passed and value < ROUNDING_FLOOR
        figure = (f"< {ROUNDING_FLOOR:.0e}" if floored
                  else f"{sep}{value:.2e}")
        return passed, name, f"{label} {figure}{tail}"

    checks = [
        exact(pointwise["determinant"], "determinant identity",
              "max residual", tail=over),
        exact(pointwise["trace"], "trace identity", "max residual", tail=over),
        exact(pointwise["cross"], "cross-element magnitude", "max residual",
              tail=over),
        (pointwise["passivity"] < 1e-12, "passivity of the bright phase",
         f"max |phase|-1 = {pointwise['passivity']:.2e}{over}"),
        exact(left_unit, "left-unit relation at equal couplings",
              "max residual"),
        exact(unitarity, "lossless-limit unitarity", "max residual"),
        exact(spread, "phase depends on couplings via their sum of squares",
              "max spread"),
        exact(norm, "quadrature normalization", "max |sum(omega) - 1|",
              sep="= "),
        (agreement < 1e-9, "exact closed forms against the quadrature rule",
         f"max |[h], F_qm, F_swap delta| {agreement:.2e} at the curve-family "
         f"points and the {trials} parameter sets"),
        exact(dual, "success-probability dual path", "max |direct - factored|",
              sep="= "),
        exact(ratio, "memory-fidelity ratio invariance", "max spread"),
        (margin >= 0.0, "memory >= swap ordering on the family grid",
         f"min margin {margin:.2e}"),
        (eq[worst] <= 1e-6, "state-oracle equivalence",
         f"{trials} parameter sets, worst |delta| "
         + (f"= {eq[worst]:.2e} ({worst})" if eq[worst] >= 1e-12
            else "< 1e-12")),
        (mutant > 1e-6, "mutation sensitivity of the determinant identity",
         f"corrupted element shifts the residual to {mutant:.2e}"),
    ]
    lines = [f"{'ok  ' if passed else 'FAIL'} {name}: {detail}"
             for passed, name, detail in checks]
    return all(passed for passed, _, _ in checks), lines
