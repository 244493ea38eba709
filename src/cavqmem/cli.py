"""Command-line front end: argument handling, curve-family and sweep rows,
and the CSV writer.

Subcommands: `point` (closed-form metrics and scattering amplitudes at one
parameter point), `fig2` / `fig3` / `fig4` (the bundled curve families as
CSV data), `sweep` (generic one- or two-axis parameter scans), `oracle` (one
simulated storage/retrieval cycle cross-checked against the closed forms),
and `validate` (the suite of `invariants`; exit status 1 on failure).
Every input failure is a `CavqmemError` and exits with status 2.

Unit convention: the spontaneous-emission rate gamma is the unit (gamma = 1),
so "kappa = 2 gamma" is simply kappa = 2; wavenumbers are measured in the
same unit relative to k = 0.  No MHz <-> rate conversion is provided.

CSV outputs are deterministic byte for byte at fixed configuration: fixed
sampling order, fixed summation order, floats serialized with repr.  The
first line of every CSV is a '#'-prefixed JSON comment recording the full
configuration including the quadrature node counts.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import metrics
from .errors import CavqmemError, InvalidField
from .invariants import ORACLE_KEYS, validate_suite
from .params import (
    FAMILY_KAPPA,
    FIG2_CASES,
    FIG3_CASES,
    PULSE_FIELDS,
    SYSTEM_FIELDS,
    PhotonQubit,
    Profile,
    PulseSpec,
    SystemParams,
    family_params,
    point_from_dict,
    point_to_dict,
)
from .scattering import coupling_amplitude, t_matrix
from .spectral import DEFAULT_QUAD, QuadratureConfig
from .statesim import run_memory_protocol

PARAM_COLUMNS = SYSTEM_FIELDS + PULSE_FIELDS
SWEEP_HEADER = PARAM_COLUMNS + (
    "eta", "F_swap", "F_swap_leading", "F_qm", "P_qm", "P_qm_conditional",
)
#: The numeric pulse fields; with SYSTEM_FIELDS, the directly sweepable ones.
PULSE_FIELD_NAMES = tuple(name for name in PULSE_FIELDS if name != "profile")
#: Derived sweep axes: coupling ratio at fixed lambda^2, and lambda^2/kappa
#: gamma at fixed ratio.
VIRTUAL_FIELD_NAMES = ("lambda_ratio", "cooperativity")


def fig2_rows(quad: QuadratureConfig = DEFAULT_QUAD, count: int = 61
              ) -> list[tuple]:
    """Memory and swap fidelity versus cooperativity, Gaussian pulse with
    kappa_p = 0.1 kappa, one row block per detuning case."""
    coops = np.geomspace(1.0, 100.0, count)
    rows = []
    for case, delta_e, delta_p in FIG2_CASES:
        pulse = PulseSpec(profile=Profile.GAUSSIAN, delta_p=delta_p,
                          kappa_p=0.1 * FAMILY_KAPPA)
        points = [(family_params(float(coop), delta_e=delta_e), pulse)
                  for coop in coops]
        for coop, report in zip(coops, metrics.compute_reports(points, quad)):
            rows.append((float(coop), case, report.F_qm, report.F_swap))
    return rows


def fig3_rows(quad: QuadratureConfig = DEFAULT_QUAD, count: int = 25
              ) -> list[tuple]:
    """Memory fidelity versus pulse bandwidth for both spectral profiles at
    cooperativity 20."""
    ratios = np.geomspace(0.01, 0.5, count)
    rows = []
    for profile in (Profile.GAUSSIAN, Profile.LORENTZIAN):
        for case, delta_e, delta_p in FIG3_CASES:
            params = family_params(20.0, delta_e=delta_e)
            points = [(params, PulseSpec(profile=profile, delta_p=delta_p,
                                         kappa_p=float(x) * FAMILY_KAPPA))
                      for x in ratios]
            for x, report in zip(ratios, metrics.compute_reports(points, quad)):
                rows.append((float(x), profile.value, case, report.F_qm))
    return rows


def fig4_rows(quad: QuadratureConfig = DEFAULT_QUAD, count: int = 41
              ) -> list[tuple]:
    """Success probability versus coupling ratio at eta = 1 for cooperativity
    1, 10, 100, Gaussian pulse with kappa_p = 0.1 kappa."""
    ratios = np.geomspace(0.1, 10.0, count)
    # Pin the symmetric midpoint so the grid contains ratio 1 exactly.
    ratios[np.abs(ratios - 1.0) < 1e-9] = 1.0
    rows = []
    for case, delta_e, delta_p in FIG2_CASES:
        pulse = PulseSpec(profile=Profile.GAUSSIAN, delta_p=delta_p,
                          kappa_p=0.1 * FAMILY_KAPPA)
        keys = list(itertools.product((1.0, 10.0, 100.0), ratios))
        points = [(family_params(coop, ratio=float(ratio), delta_e=delta_e),
                   pulse) for coop, ratio in keys]
        for (coop, ratio), report in zip(keys,
                                         metrics.compute_reports(points, quad)):
            rows.append((float(ratio), coop, case, report.P_qm))
    return rows


@dataclass(frozen=True)
class SweepAxis:
    """One swept field: linear or log sampling of [lo, hi] at `count` points."""

    field: str
    scale: str
    lo: float
    hi: float
    count: int

    def __post_init__(self) -> None:
        known = SYSTEM_FIELDS + PULSE_FIELD_NAMES + VIRTUAL_FIELD_NAMES
        if self.field not in known:
            raise InvalidField(self.field, "not a sweepable field")
        if self.scale not in ("linear", "log"):
            raise InvalidField(self.field, f"unknown scale {self.scale!r}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidField(self.field, "axis bounds must be finite")
        if self.count < 2:
            raise InvalidField(self.field, "axis count must be >= 2")
        if self.scale == "log" and (self.lo <= 0.0 or self.hi <= 0.0):
            raise InvalidField(self.field, "log axis requires positive bounds")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """A one- or two-axis scan around a base parameter point."""

    params: SystemParams
    pulse: PulseSpec
    axes: tuple[SweepAxis, ...]
    eta: float = 1.0
    quad: QuadratureConfig = DEFAULT_QUAD

    def __post_init__(self) -> None:
        if not 1 <= len(self.axes) <= 2:
            raise InvalidField("axes", "one or two sweep axes required")


def parse_axis(text: str) -> SweepAxis:
    """Parse the CLI axis syntax FIELD,SCALE,MIN,MAX,COUNT."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 5:
        raise InvalidField(text, "expected FIELD,SCALE,MIN,MAX,COUNT")
    try:
        lo, hi, count = float(parts[2]), float(parts[3]), int(parts[4])
    except ValueError:
        raise InvalidField(text, "MIN and MAX must be numbers, COUNT an "
                                 "integer") from None
    return SweepAxis(field=parts[0], scale=parts[1], lo=lo, hi=hi,
                     count=count)


def _with_field(params: SystemParams, pulse: PulseSpec, field: str,
                value: float) -> tuple[SystemParams, PulseSpec]:
    if field in SYSTEM_FIELDS:
        return replace(params, **{field: value}), pulse
    if field in PULSE_FIELD_NAMES:
        return params, replace(pulse, **{field: value})
    if field == "lambda_ratio":
        lam_r = math.sqrt(params.lambda_sq / (1.0 + value * value))
        return replace(params, lambda_L=value * lam_r, lambda_R=lam_r), pulse
    if field == "cooperativity":
        if value <= 0.0:
            raise InvalidField(field, "cooperativity must be > 0")
        scale = math.sqrt(value * params.kappa * params.gamma
                          / params.lambda_sq)
        return replace(params, lambda_L=scale * params.lambda_L,
                       lambda_R=scale * params.lambda_R), pulse
    raise InvalidField(field, "not a sweepable field")


def sweep_rows(spec: SweepSpec) -> list[tuple]:
    """Evaluate the metric columns on the sweep grid, outer axis major."""
    grids = [axis.values() for axis in spec.axes]
    points = []
    for values in itertools.product(*grids):
        params, pulse = spec.params, spec.pulse
        for axis, value in zip(spec.axes, values):
            params, pulse = _with_field(params, pulse, axis.field,
                                        float(value))
        points.append((params, pulse))
    rows = []
    for report in metrics.compute_reports(points, spec.quad, spec.eta):
        echo = report.to_dict()
        rows.append(tuple(echo[c] for c in PARAM_COLUMNS)
                    + (spec.eta, report.F_swap, report.F_swap_leading,
                       report.F_qm, report.P_qm, report.P_qm_conditional))
    return rows


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str, meta: dict, header: tuple[str, ...],
              rows: list[tuple]) -> None:
    """'#'-prefixed JSON metadata line, header row, then the data rows."""
    lines = ["# " + json.dumps(meta, sort_keys=True), ",".join(header)]
    lines.extend(",".join(_format_cell(v) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# argument handling

def _load_point(path: str | None) -> tuple[SystemParams, PulseSpec]:
    if path is None:
        return SystemParams(), PulseSpec()
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise InvalidField(path, f"not a JSON file ({exc})") from None
    return point_from_dict(data)


def _quad_config(args: argparse.Namespace) -> QuadratureConfig:
    n = getattr(args, "quad_n", None)
    if n is None:
        return DEFAULT_QUAD
    return QuadratureConfig(n_gauss=n, n_lorentz=n)


def _photon_qubit(args: argparse.Namespace) -> PhotonQubit:
    c_l = args.c_l
    if not 0.0 <= c_l <= 1.0:
        raise InvalidField("c_l", "the k_L amplitude magnitude must lie in [0, 1]")
    if not math.isfinite(args.phase):
        raise InvalidField("phase", "must be finite")
    c_r = math.sqrt(1.0 - c_l * c_l)
    return PhotonQubit(c_l, c_r * complex(math.cos(args.phase),
                                          math.sin(args.phase)))


def _emit_json(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _quad_meta(quad: QuadratureConfig) -> dict:
    return {"n_gauss": quad.n_gauss, "n_lorentz": quad.n_lorentz}


def _cmd_point(args: argparse.Namespace) -> int:
    params, pulse = _load_point(args.params)
    quad = _quad_config(args)
    k = args.k if args.k is not None else params.k_c + pulse.delta_p
    if not math.isfinite(k):
        raise InvalidField("k", "must be finite")
    report = metrics.compute_report(params, pulse, quad, args.eta,
                                    _photon_qubit(args))
    out = report.to_dict()
    matrix = t_matrix(k, params)
    out["scattering"] = {
        "k": k,
        "g_L": _pair(coupling_amplitude(k, params, "L")),
        "g_R": _pair(coupling_amplitude(k, params, "R")),
        "phase_factor": _pair(matrix.phase_factor),
        "T_LL": _pair(matrix.t_ll),
        "T_RR": _pair(matrix.t_rr),
        "T_LR": _pair(matrix.t_lr),
        "T_RL": _pair(matrix.t_rl),
    }
    if args.quad_check:
        out["quad_check_delta"] = metrics.convergence_delta(params, pulse,
                                                            quad)
    _emit_json(out, args.out)
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    family = args.family
    quad = _quad_config(args)
    builders = {"fig2": (fig2_rows, ("C", "case", "F_qm", "F_swap"), 61),
                "fig3": (fig3_rows, ("kappa_p_over_kappa", "profile", "case",
                                     "F_qm"), 25),
                "fig4": (fig4_rows, ("lambda_ratio", "C", "case", "P_qm"), 41)}
    build, header, default_count = builders[family]
    count = args.points if args.points is not None else default_count
    if count < 2:
        raise InvalidField("points", "need at least two samples")
    cases = FIG3_CASES if family == "fig3" else FIG2_CASES
    meta = {
        "family": family,
        "kappa": FAMILY_KAPPA,
        "gamma": 1.0,
        "cases": {name: {"delta_e": de, "delta_p": dp}
                  for name, de, dp in cases},
        "points": count,
        "quad": _quad_meta(quad),
    }
    if family == "fig2":
        meta.update(profile="gaussian", kappa_p_over_kappa=0.1,
                    cooperativity_range=[1.0, 100.0])
    elif family == "fig3":
        meta.update(cooperativity=20.0, kappa_p_over_kappa_range=[0.01, 0.5])
    else:
        meta.update(profile="gaussian", kappa_p_over_kappa=0.1, eta=1.0,
                    cooperativities=[1.0, 10.0, 100.0],
                    lambda_ratio_range=[0.1, 10.0])
    write_csv(args.out, meta, header, build(quad, count))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    params, pulse = _load_point(args.params)
    quad = _quad_config(args)
    axes = tuple(parse_axis(text) for text in args.axis)
    spec = SweepSpec(params=params, pulse=pulse, axes=axes, eta=args.eta,
                     quad=quad)
    meta = {
        "base": point_to_dict(params, pulse),
        "axes": [{"field": a.field, "scale": a.scale, "min": a.lo,
                  "max": a.hi, "count": a.count} for a in axes],
        "eta": args.eta,
        "quad": _quad_meta(quad),
    }
    write_csv(args.out, meta, SWEEP_HEADER, sweep_rows(spec))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    params, pulse = _load_point(args.params)
    quad = _quad_config(args)
    photon = _photon_qubit(args)
    record = run_memory_protocol(params, pulse, quad, photon=photon,
                                 detector=args.eta, readout=args.readout)
    closed = metrics.cycle_closed_forms(params, pulse, quad, [photon],
                                        args.eta)[0]
    out = record.to_dict()
    out["closed_form_deltas"] = {key: abs(out[key] - closed[key])
                                 for key in ORACLE_KEYS}
    _emit_json(out, args.out)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    ok, lines = validate_suite(args.trials, args.seed, _quad_config(args))
    for line in lines:
        print(line)
    print("all invariant families passed" if ok
          else "INVARIANT FAILURES, see above")
    return 0 if ok else 1


def _add_quad_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quad-n", type=int, default=None, metavar="N",
                        help="override the quadrature node count for both "
                             "profiles (defaults: 64 Gaussian, 1040 "
                             "Lorentzian)")


def _add_point_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--params", metavar="JSON",
                        help="parameter point as a flat JSON file "
                             "(missing fields take their defaults)")
    _add_quad_flag(parser)
    parser.add_argument("--eta", type=float, default=1.0,
                        help="constant detector efficiency in (0, 1]")
    parser.add_argument("--c-l", type=float, default=math.sqrt(0.5),
                        dest="c_l", metavar="MAG",
                        help="magnitude of the k_L amplitude of the input "
                             "qubit (default: balanced)")
    parser.add_argument("--phase", type=float, default=0.0,
                        help="relative phase of the k_R amplitude, radians")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write JSON here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared by every
    `main` call in the process; parsing leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="cavqmem",
        description="Atomic quantum memory for polarization qubits via "
                    "cavity scattering: closed-form metrics, curve families, "
                    "sweeps, and a state-vector cross-check. All rates are "
                    "in units of gamma = 1.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser(
        "point", help="closed-form metrics and scattering amplitudes at one "
                      "parameter point")
    _add_point_flags(p_point)
    p_point.add_argument("--k", type=float, default=None,
                         help="wavenumber for the scattering amplitudes "
                              "(default: the pulse peak)")
    p_point.add_argument("--quad-check", action="store_true",
                         help="also report the node-doubling delta of the "
                              "averaged scattered amplitude")
    p_point.set_defaults(func=_cmd_point)

    for family, blurb in (("fig2", "fidelities versus cooperativity"),
                          ("fig3", "memory fidelity versus pulse bandwidth"),
                          ("fig4", "success probability versus coupling "
                                   "ratio")):
        p_fig = sub.add_parser(family, help=blurb + " (CSV)")
        p_fig.add_argument("--out", metavar="PATH", default=f"{family}.csv",
                           help=f"output CSV path (default {family}.csv)")
        p_fig.add_argument("--points", type=int, default=None,
                           help="samples per curve")
        _add_quad_flag(p_fig)
        p_fig.set_defaults(func=_cmd_fig, family=family)

    p_sweep = sub.add_parser(
        "sweep", help="scan one or two fields and emit metric rows as CSV")
    p_sweep.add_argument("--params", metavar="JSON",
                         help="base parameter point as a flat JSON file")
    p_sweep.add_argument("--axis", action="append", required=True,
                         metavar="FIELD,SCALE,MIN,MAX,COUNT",
                         help="swept axis; SCALE is linear or log; repeat "
                              "for a two-axis grid; FIELD may also be "
                              "lambda_ratio or cooperativity")
    p_sweep.add_argument("--out", metavar="PATH", required=True,
                         help="output CSV path")
    p_sweep.add_argument("--eta", type=float, default=1.0,
                         help="constant detector efficiency in (0, 1]")
    _add_quad_flag(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser(
        "oracle", help="simulate one storage/retrieval cycle and compare "
                       "with the closed forms")
    _add_point_flags(p_oracle)
    p_oracle.add_argument("--readout", choices=("projective", "third_photon"),
                          default="projective",
                          help="atomic measurement: ideal projection or the "
                               "heralding probe photon")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_validate = sub.add_parser(
        "validate", help="run the invariant families and oracle-equivalence "
                         "trials; nonzero exit on failure")
    p_validate.add_argument("--trials", type=int, default=20,
                            help="number of randomized equivalence trials")
    p_validate.add_argument("--seed", type=int, default=20112,
                            help="seed of the randomized families")
    _add_quad_flag(p_validate)
    p_validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CavqmemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
