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

The closed forms are always exact: no `metrics` call here passes a
quadrature rule.  Only the state-vector oracle of `oracle` and `validate`
integrates on a rule, `--quad-n`'s, else DEFAULT_QUAD; `oracle` compares it
with the exact closed forms, so its deltas include the rule's error.

A sweep grid or curve family is one batch, a `params.ParamRows`: one
float array per field, outer axis major, and no SystemParams or PulseSpec
per row.  The sweep axes act on those arrays; `params.grid_rows` checks
every row at once and raises, for the first row that fails, the error of
that row's own point.  `sweep_rows` and `fig2_rows`-`fig4_rows` return
their CSV columns, not rows: float64 arrays straight from the grid, the
axes and `metrics.metric_columns`, and lists of text for the labels.
`write_csv` formats each distinct float of a column once and places the
cells in the file's rows without building a row.  CSV outputs are
deterministic byte for byte at fixed configuration: fixed sampling order,
fixed summation order, floats serialized with repr.  The
first line of every CSV is a '#'-prefixed JSON comment recording the full
configuration, with "closed_forms": "exact" and the node counts of
DEFAULT_QUAD ("quad"), the rule a state-oracle check of the rows
integrates on.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import metrics
from .errors import (CavqmemError, GammaZero, InvalidField, NonFiniteField,
                     ZeroCoupling)
from .invariants import ORACLE_KEYS, validate_suite
from .params import (
    FAMILY_KAPPA,
    FIG2_CASES,
    FIG3_CASES,
    PULSE_FIELDS,
    PULSE_NUMERIC_FIELDS,
    SYSTEM_FIELDS,
    PhotonQubit,
    Profile,
    PulseSpec,
    SystemParams,
    coupling_sq,
    family_rows,
    grid_rows,
    point_from_dict,
    point_rows,
    point_to_dict,
    split_coupling,
)
from .scattering import bright_phase_factor, coupling_amplitude, t_elements
from .spectral import DEFAULT_QUAD, QuadratureConfig
from .statesim import run_memory_protocol

PARAM_COLUMNS = SYSTEM_FIELDS + PULSE_FIELDS
SWEEP_HEADER = PARAM_COLUMNS + (
    "eta", "F_swap", "F_swap_leading", "F_qm", "P_qm", "P_qm_conditional",
)
#: Derived sweep axes: coupling ratio at fixed lambda^2, and lambda^2/kappa
#: gamma at fixed ratio.
VIRTUAL_FIELD_NAMES = ("lambda_ratio", "cooperativity")
#: CSV header keys: the route of the closed forms, and the rule that a
#: state-oracle check of the rows integrates on.
CSV_ROUTE_META = {"closed_forms": "exact",
                  "quad": {"n_gauss": DEFAULT_QUAD.n_gauss,
                           "n_lorentz": DEFAULT_QUAD.n_lorentz}}


def _case_cells(cases, count: int) -> list[str]:
    """The case column of a family: each case's label `count` times."""
    return [case for case, _, _ in cases for _ in range(count)]


def fig2_rows(count: int = 61) -> list:
    """Memory and swap fidelity versus cooperativity, Gaussian pulse with
    kappa_p = 0.1 kappa, one row block per detuning case: the columns of
    ("C", "case", "F_qm", "F_swap")."""
    coops = np.geomspace(1.0, 100.0, count)
    columns = metrics.metric_columns(family_rows(
        [(False, delta_e, delta_p) for _, delta_e, delta_p in FIG2_CASES],
        coops, 1.0, 0.1))
    return [np.tile(coops, len(FIG2_CASES)), _case_cells(FIG2_CASES, count),
            columns.F_qm, columns.F_swap]


def fig3_rows(count: int = 25) -> list:
    """Memory fidelity versus pulse bandwidth for both spectral profiles at
    cooperativity 20: the columns of ("kappa_p_over_kappa", "profile",
    "case", "F_qm")."""
    ratios = np.geomspace(0.01, 0.5, count)
    blocks = [(profile is Profile.LORENTZIAN, delta_e, delta_p)
              for profile in Profile for _, delta_e, delta_p in FIG3_CASES]
    columns = metrics.metric_columns(family_rows(blocks, 20.0, 1.0, ratios))
    return [np.tile(ratios, len(blocks)),
            [profile.value for profile in Profile
             for _ in range(len(FIG3_CASES) * count)],
            _case_cells(FIG3_CASES, count) * len(Profile), columns.F_qm]


def fig4_rows(count: int = 41) -> list:
    """Success probability versus coupling ratio at eta = 1 for cooperativity
    1, 10, 100, Gaussian pulse with kappa_p = 0.1 kappa: the columns of
    ("lambda_ratio", "C", "case", "P_qm")."""
    ratios = np.geomspace(0.1, 10.0, count)
    # Pin the symmetric midpoint so the grid contains ratio 1 exactly.
    ratios[np.abs(ratios - 1.0) < 1e-9] = 1.0
    coops = np.repeat([1.0, 10.0, 100.0], count)
    ratios = np.tile(ratios, 3)
    columns = metrics.metric_columns(family_rows(
        [(False, delta_e, delta_p) for _, delta_e, delta_p in FIG2_CASES],
        coops, ratios, 0.1))
    blocks = len(FIG2_CASES)
    return [np.tile(ratios, blocks), np.tile(coops, blocks),
            _case_cells(FIG2_CASES, coops.size), columns.P_qm]


@dataclass(frozen=True)
class SweepAxis:
    """One swept field: linear or log sampling of [lo, hi] at `count` points."""

    field: str
    scale: str
    lo: float
    hi: float
    count: int

    def __post_init__(self) -> None:
        known = SYSTEM_FIELDS + PULSE_NUMERIC_FIELDS + VIRTUAL_FIELD_NAMES
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


def _apply_axis(columns: dict, field: str, values: np.ndarray,
                failures: list) -> None:
    """Apply one axis to the field columns of a sweep grid.  A derived axis
    appends to `failures` the (mask, error) of every check it makes, in the
    order it makes them."""
    if field not in VIRTUAL_FIELD_NAMES:
        columns[field] = values
        return
    lam_sq, overflow = coupling_sq(columns["lambda_L"], columns["lambda_R"])
    failures.append((overflow, NonFiniteField("lambda_sq")))
    if field == "lambda_ratio":
        columns["lambda_L"], columns["lambda_R"] = split_coupling(lam_sq,
                                                                  values)
        return
    gamma = columns["gamma"]
    failures += [(values <= 0.0,
                  InvalidField(field, "cooperativity must be > 0")),
                 (lam_sq == 0.0, ZeroCoupling()),
                 (gamma == 0.0, GammaZero())]
    ratio = values * columns["kappa"] * gamma / lam_sq
    # ratio <= 0 means kappa <= 0 or gamma < 0: the row check says so
    scale = np.sqrt(np.where(ratio > 0.0, ratio, 1.0))
    columns["lambda_L"] = scale * columns["lambda_L"]
    columns["lambda_R"] = scale * columns["lambda_R"]


def sweep_rows(spec: SweepSpec) -> list:
    """The CSV columns of the sweep grid, in SWEEP_HEADER order, outer axis
    major.  The axes act in turn on one column per field, and
    `params.grid_rows` checks every row at once: the first row that cannot
    be built raises the error of its own point, before any metric is
    evaluated."""
    grids = np.meshgrid(*(axis.values() for axis in spec.axes),
                        indexing="ij")
    base = {name: value if name == "profile" else float(value)
            for name, value in point_to_dict(spec.params, spec.pulse).items()}
    columns = dict(base)
    failures = []
    with np.errstate(all="ignore"):
        for axis, values in zip(spec.axes, grids):
            _apply_axis(columns, axis.field, values.ravel(), failures)
    size = grids[0].size
    rows = grid_rows(columns, spec.pulse.profile is Profile.LORENTZIAN,
                     [(np.broadcast_to(mask, size), error)
                      for mask, error in failures])
    metric = metrics.metric_columns(rows, eta=spec.eta)
    # a field no axis touched repeats the base point's float
    echo = [[base[name]] * size if name == "profile" else getattr(rows, name)
            for name in PARAM_COLUMNS]
    return echo + [np.full(size, spec.eta, dtype=float), metric.F_swap,
                   metric.F_swap_leading, metric.F_qm, metric.P_qm,
                   metric.P_qm_conditional]


def _format_column(column) -> list[str]:
    """The cells of one CSV column as text.  A float64 array is formatted
    once per distinct bit pattern (so 0.0 and -0.0 stay apart) with str,
    which for a float is its repr; any other column is its text cells.  A
    column of one bit pattern (a field no sweep axis touches, eta) is
    formatted once and repeated, without the sort the dedupe takes."""
    if not isinstance(column, np.ndarray):
        return column
    bits = column.view(np.int64)
    if bits.size and not np.count_nonzero(bits != bits[0]):
        return [str(column[0].item())] * bits.size
    bits, index = np.unique(bits, return_inverse=True)
    text = np.array(list(map(str, bits.view(np.float64).tolist())),
                    dtype=object)
    return text[index].tolist()


def write_csv(path: str, meta: dict, header: tuple[str, ...],
              columns: list) -> None:
    """'#'-prefixed JSON metadata line, header row, then the data rows,
    from `columns` in header order: float64 arrays, or lists of text.  Each
    column's cells go straight to their places in one list of the file's
    cells and separators, which is joined once."""
    rows = len(columns[0])
    width = 2 * len(columns)
    cells = [","] * (rows * width)
    for place, column in enumerate(columns):
        cells[2 * place::width] = _format_column(column)
    cells[width - 1::width] = ["\n"] * rows
    text = "# " + json.dumps(meta, sort_keys=True) + "\n" + ",".join(header)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text + "\n" + "".join(cells))


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


def _oracle_rule(args: argparse.Namespace,
                 profile: Profile | None = None) -> QuadratureConfig:
    """The state oracle's rule, else DEFAULT_QUAD: `--quad-n` nodes for
    `profile`, whose count alone is checked against its cap, or for both
    profiles when no profile is given."""
    if args.quad_n is None:
        return DEFAULT_QUAD
    if profile is Profile.GAUSSIAN:
        return QuadratureConfig(n_gauss=args.quad_n)
    if profile is Profile.LORENTZIAN:
        return QuadratureConfig(n_lorentz=args.quad_n)
    return QuadratureConfig(n_gauss=args.quad_n, n_lorentz=args.quad_n)


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
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _cmd_point(args: argparse.Namespace) -> int:
    params, pulse = _load_point(args.params)
    k = args.k if args.k is not None else params.k_c + pulse.delta_p
    if not math.isfinite(k):
        raise InvalidField("k", "must be finite")
    photon = _photon_qubit(args)
    columns = metrics.metric_columns(point_rows([(params, pulse)]),
                                     eta=args.eta, photon=photon)
    # one flat dict: the point, the input qubit and every metric of its row
    out = point_to_dict(params, pulse)
    out.update(eta=args.eta, input_c_L=_pair(photon.c_L),
               input_c_R=_pair(photon.c_R), closed_forms="exact")
    out.update((name, column.item())
               for name, column in columns._asdict().items())
    with np.errstate(all="ignore"):
        phase = bright_phase_factor(k, params)
        t_ll, t_rr, t_lr, t_rl = t_elements(k, params)
    if not cmath.isfinite(phase):
        raise InvalidField("k", "the scattering map overflows there")
    out["scattering"] = {
        "k": k,
        "g_L": _pair(coupling_amplitude(k, params, "L")),
        "g_R": _pair(coupling_amplitude(k, params, "R")),
        "phase_factor": _pair(phase),
        "T_LL": _pair(t_ll),
        "T_RR": _pair(t_rr),
        "T_LR": _pair(t_lr),
        "T_RL": _pair(t_rl),
    }
    _emit_json(out, args.out)
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    family = args.family
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
        **CSV_ROUTE_META,
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
    write_csv(args.out, meta, header, build(count))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    params, pulse = _load_point(args.params)
    axes = tuple(parse_axis(text) for text in args.axis)
    spec = SweepSpec(params=params, pulse=pulse, axes=axes, eta=args.eta)
    meta = {
        "base": point_to_dict(params, pulse),
        "axes": [{"field": a.field, "scale": a.scale, "min": a.lo,
                  "max": a.hi, "count": a.count} for a in axes],
        "eta": args.eta,
        **CSV_ROUTE_META,
    }
    write_csv(args.out, meta, SWEEP_HEADER, sweep_rows(spec))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    params, pulse = _load_point(args.params)
    photon = _photon_qubit(args)
    closed = metrics.cycle_closed_forms(params, pulse, photons=[photon],
                                        detector=args.eta)[0]
    record = run_memory_protocol(params, pulse,
                                 _oracle_rule(args, pulse.profile),
                                 photon=photon, detector=args.eta,
                                 readout=args.readout)
    out = record.to_dict()
    out["closed_forms"] = "exact"
    out["closed_form_deltas"] = {key: abs(out[key] - closed[key])
                                 for key in ORACLE_KEYS}
    _emit_json(out, args.out)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    ok, lines = validate_suite(args.trials, args.seed, _oracle_rule(args))
    for line in lines:
        print(line)
    print("all invariant families passed" if ok
          else "INVARIANT FAILURES, see above")
    return 0 if ok else 1


def _add_quad_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quad-n", type=int, default=None, metavar="N",
                        help="integrate the state-vector oracle on N "
                             "Gaussian nodes, or 26*max(2, N//26) Lorentzian "
                             "nodes (default rule: 64 Gaussian, 1040 "
                             "Lorentzian nodes); the closed forms are exact "
                             "either way")


def _add_point_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--params", metavar="JSON",
                        help="parameter point as a flat JSON file "
                             "(missing fields take their defaults)")
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
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser(
        "oracle", help="simulate one storage/retrieval cycle and compare "
                       "with the closed forms")
    _add_point_flags(p_oracle)
    p_oracle.add_argument("--readout", choices=("projective", "third_photon"),
                          default="projective",
                          help="atomic measurement: ideal projection or the "
                               "heralding probe photon")
    _add_quad_flag(p_oracle)
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
