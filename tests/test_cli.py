"""Command-line front end: CSV determinism, JSON reports, exit codes."""

import ast
import dataclasses
import inspect
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavqmem import cli, invariants, metrics, params
from cavqmem.cli import (
    PARAM_COLUMNS,
    SWEEP_HEADER,
    VIRTUAL_FIELD_NAMES,
    SweepAxis,
    SweepSpec,
    build_parser,
    main,
    parse_axis,
    sweep_rows,
    write_csv,
)
from cavqmem.errors import (CavqmemError, GammaZero, InvalidField,
                            NegativeGamma, NonFiniteField, NonPositiveKappa,
                            ZeroCoupling)
from cavqmem.invariants import validate_suite
from cavqmem.params import (
    FAMILY_KAPPA,
    FIG2_CASES,
    FIG3_CASES,
    PULSE_NUMERIC_FIELDS,
    SYSTEM_FIELDS,
    PhotonQubit,
    Profile,
    PulseSpec,
    SystemParams,
    family_params,
    point_from_dict,
    point_rows,
    point_to_dict,
)


def read_csv(path):
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n") and "\r" not in text
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    meta = json.loads(lines[0][2:])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return meta, header, rows


def test_curve_family_csv_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["fig3", "--out", str(a), "--points", "5"]) == 0
    assert main(["fig3", "--out", str(b), "--points", "5"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cooperativity_family_layout(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["fig2", "--out", str(out), "--points", "9"]) == 0
    meta, header, rows = read_csv(out)
    assert header == ["C", "case", "F_qm", "F_swap"]
    assert len(rows) == 3 * 9
    assert meta["family"] == "fig2"
    assert meta["kappa"] == FAMILY_KAPPA and meta["gamma"] == 1.0
    assert meta["quad"] == {"n_gauss": 64, "n_lorentz": 1040}
    assert set(meta["cases"]) == {"solid", "dashed", "dotted"}
    # cells round-trip: repr serialization loses nothing
    pulse = PulseSpec(kappa_p=0.1 * FAMILY_KAPPA)
    for cell_c, case, cell_fqm, _ in rows[:9]:
        assert case == "solid"
        expected = metrics.qm_fidelity(family_params(float(cell_c)), pulse)
        assert float(cell_fqm) == expected
    # memory fidelity never drops below the swap fidelity on the grid
    for _, _, f_qm, f_swap in rows:
        assert float(f_qm) >= float(f_swap) - 1e-12


def test_bandwidth_family_layout(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["fig3", "--out", str(out), "--points", "4"]) == 0
    meta, header, rows = read_csv(out)
    assert header == ["kappa_p_over_kappa", "profile", "case", "F_qm"]
    assert len(rows) == 2 * 3 * 4
    assert meta["cooperativity"] == 20.0
    assert [r[1] for r in rows] == ["gaussian"] * 12 + ["lorentzian"] * 12
    # resolved pulses: the Gaussian profile is never the worse envelope
    gauss = {(r[0], r[2]): float(r[3]) for r in rows[:12]}
    lorentz = {(r[0], r[2]): float(r[3]) for r in rows[12:]}
    for key, value in gauss.items():
        assert value >= lorentz[key]


def test_ratio_family_pins_symmetric_point(tmp_path):
    out = tmp_path / "fig4.csv"
    assert main(["fig4", "--out", str(out), "--points", "5"]) == 0
    meta, header, rows = read_csv(out)
    assert header == ["lambda_ratio", "C", "case", "P_qm"]
    assert len(rows) == 3 * 3 * 5
    assert meta["eta"] == 1.0
    pulse = PulseSpec(kappa_p=0.1 * FAMILY_KAPPA)
    mid = [r for r in rows if r[0] == "1.0" and r[2] == "solid"]
    assert len(mid) == 3  # one per cooperativity: the log grid hits 1 exactly
    f_swap = metrics.metric_columns(point_rows(
        [(family_params(float(cell_c)), pulse) for _, cell_c, _, _ in mid]))
    for (_, _, _, cell_p), swap in zip(mid, f_swap.F_swap):
        assert float(cell_p) == pytest.approx(swap, abs=1e-12)


def test_sweep_single_axis(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["sweep", "--axis", "kappa_p,linear,0.1,0.5,5",
                 "--out", str(out), "--eta", "0.8"]) == 0
    meta, header, rows = read_csv(out)
    assert header == list(SWEEP_HEADER)
    assert len(rows) == 5
    assert meta["eta"] == 0.8
    assert meta["axes"] == [{"field": "kappa_p", "scale": "linear",
                             "min": 0.1, "max": 0.5, "count": 5}]
    kp = header.index("kappa_p")
    np.testing.assert_allclose([float(r[kp]) for r in rows],
                               np.linspace(0.1, 0.5, 5), rtol=1e-15)
    # non-swept fields echo the default base point
    assert all(float(r[header.index("kappa")]) == 2.0 for r in rows)
    assert all(r[header.index("profile")] == "gaussian" for r in rows)


def test_sweep_two_axes_outer_major(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--axis", "delta_e,linear,-1,1,3",
                 "--axis", "delta_p,linear,-0.5,0.5,2",
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert len(rows) == 3 * 2
    de = [float(r[header.index("delta_e")]) for r in rows]
    dp = [float(r[header.index("delta_p")]) for r in rows]
    assert de == [-1.0, -1.0, 0.0, 0.0, 1.0, 1.0]
    assert dp == [-0.5, 0.5] * 3


def test_shared_parser_carries_no_state_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(["sweep", "--axis", "kappa_p,linear,0.1,0.5,3",
                 "--out", str(first)]) == 0
    assert main(["sweep", "--axis", "delta_e,linear,-1,1,4",
                 "--out", str(second)]) == 0
    assert [a["field"] for a in read_csv(first)[0]["axes"]] == ["kappa_p"]
    assert [a["field"] for a in read_csv(second)[0]["axes"]] == ["delta_e"]
    assert len(read_csv(second)[2]) == 4
    # calls that leave through argparse do not leak into the next one
    with pytest.raises(SystemExit):
        main(["sweep"])
    with pytest.raises(SystemExit):
        main(["--help"])
    again = tmp_path / "again.csv"
    assert main(["sweep", "--axis", "delta_e,linear,-1,1,4",
                 "--out", str(again)]) == 0
    assert again.read_bytes() == second.read_bytes()
    capsys.readouterr()


def test_sweep_over_coupling_ratio_keeps_memory_fidelity_flat(tmp_path):
    out = tmp_path / "ratio.csv"
    assert main(["sweep", "--axis", "lambda_ratio,log,0.1,10,7",
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    lam_l = np.array([float(r[header.index("lambda_L")]) for r in rows])
    lam_r = np.array([float(r[header.index("lambda_R")]) for r in rows])
    # the ratio axis moves the split but not the total coupling
    np.testing.assert_allclose(lam_l**2 + lam_r**2,
                               SystemParams().lambda_sq, rtol=1e-12)
    np.testing.assert_allclose(lam_l / lam_r, np.geomspace(0.1, 10.0, 7),
                               rtol=1e-12)
    f_qm = [float(r[header.index("F_qm")]) for r in rows]
    assert max(f_qm) - min(f_qm) < 1e-12


def test_coupling_ratio_past_the_square_overflow_keeps_both_couplings(
        tmp_path):
    # ratio^2 overflows past |ratio| ~ 1.3e154; the split still keeps the
    # total coupling and the ratio, with no RuntimeWarning (an error here)
    out = tmp_path / "ratio.csv"
    assert main(["sweep", "--axis", "lambda_ratio,log,1e100,1e200,3",
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert len(rows) == 3
    lam_l = np.array([float(r[header.index("lambda_L")]) for r in rows])
    lam_r = np.array([float(r[header.index("lambda_R")]) for r in rows])
    np.testing.assert_allclose(lam_l**2 + lam_r**2,
                               SystemParams().lambda_sq, rtol=1e-12)
    np.testing.assert_allclose(lam_l / lam_r, [1e100, 1e150, 1e200],
                               rtol=1e-12)
    params = family_params(10.0, ratio=1e200)
    assert params.lambda_L / params.lambda_R == pytest.approx(1e200,
                                                              rel=1e-12)
    assert params.lambda_sq == pytest.approx(10.0 * params.kappa, rel=1e-12)


def test_sweep_over_cooperativity_axis(tmp_path):
    out = tmp_path / "coop.csv"
    assert main(["sweep", "--axis", "cooperativity,log,1,100,5",
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    lam_l = np.array([float(r[header.index("lambda_L")]) for r in rows])
    lam_r = np.array([float(r[header.index("lambda_R")]) for r in rows])
    kappa = float(rows[0][header.index("kappa")])
    np.testing.assert_allclose((lam_l**2 + lam_r**2) / kappa,
                               np.geomspace(1.0, 100.0, 5), rtol=1e-12)
    np.testing.assert_allclose(lam_l / lam_r, 1.0, rtol=1e-12)


def test_axis_parsing_rejects_malformed_specs():
    for text in ("kappa_p,linear,0.1,0.5",        # wrong arity
                 "resonance,linear,0,1,5",        # unknown field
                 "kappa_p,cubic,0.1,0.5,5",       # unknown scale
                 "kappa_p,log,0,0.5,5",           # log needs positive bounds
                 "kappa_p,linear,0.1,0.5,1",      # need two samples
                 "kappa_p,linear,a,1,3",          # bounds must be numbers
                 "kappa_p,linear,0,inf,3",        # and finite
                 "kappa_p,linear,0,1,2.5"):       # count must be an integer
        with pytest.raises(InvalidField):
            parse_axis(text)
    axis = parse_axis(" delta_e , linear , -1 , 1 , 3 ")
    assert axis == SweepAxis("delta_e", "linear", -1.0, 1.0, 3)
    with pytest.raises(InvalidField):
        SweepSpec(params=SystemParams(), pulse=PulseSpec(), axes=())


def _bits(rows):
    """Rows as the repr of every cell: equal only for equal bits and types."""
    return [[repr(cell) for cell in row] for row in rows]


def _rows(columns):
    """The rows of CSV columns, each cell a Python float or str.  Every
    column is a float64 array or a list of str."""
    for column in columns:
        assert (isinstance(column, np.ndarray) and column.dtype == np.float64
                or all(isinstance(cell, str) for cell in column))
    return list(zip(*(column.tolist() if isinstance(column, np.ndarray)
                      else column for column in columns)))


def _metric_rows(points, **kwargs) -> list[dict]:
    """The `metric_columns` rows of the points, as dicts of Python
    scalars."""
    columns = metrics.metric_columns(point_rows(points), **kwargs)
    return [dict(zip(columns._fields, cells))
            for cells in zip(*(column.tolist() for column in columns))]


def test_sweep_rows_match_metric_calls():
    axis = SweepAxis("delta_e", "linear", -2.0, 2.0, 3)
    spec = SweepSpec(params=SystemParams(), pulse=PulseSpec(kappa_p=0.2),
                     axes=(axis,), eta=0.9)
    columns = sweep_rows(spec)
    assert len(columns) == len(SWEEP_HEADER)
    rows = _rows(columns)
    assert len(rows) == 3
    for value, row in zip(axis.values(), rows):
        params = SystemParams(delta_e=float(value))
        assert row[SWEEP_HEADER.index("delta_e")] == float(value)
        assert row[SWEEP_HEADER.index("F_qm")] == metrics.qm_fidelity(
            params, PulseSpec(kappa_p=0.2))
        assert row[SWEEP_HEADER.index("P_qm")] == metrics.cycle_closed_forms(
            params, PulseSpec(kappa_p=0.2), detector=0.9)[0]["P_qm"]

    # a virtual axis crossed with a pulse axis: every cell, bit for bit
    base = SystemParams(lambda_L=2.0, lambda_R=3.0, delta_e=0.5)
    pulse = PulseSpec(profile=Profile.LORENTZIAN, delta_p=0.3)
    coops = SweepAxis("cooperativity", "log", 1.0, 100.0, 4)
    widths = SweepAxis("kappa_p", "linear", 0.1, 0.5, 3)
    rows = _rows(sweep_rows(SweepSpec(params=base, pulse=pulse,
                                      axes=(coops, widths), eta=0.8)))
    points = []
    for coop in coops.values().tolist():
        scale = math.sqrt(coop * base.kappa * base.gamma / base.lambda_sq)
        params = dataclasses.replace(base, lambda_L=scale * base.lambda_L,
                                     lambda_R=scale * base.lambda_R)
        points += [(params, dataclasses.replace(pulse, kappa_p=width))
                   for width in widths.values().tolist()]
    expected = []
    for point, cells in zip(points, _metric_rows(points, eta=0.8)):
        cells.update(point_to_dict(*point), eta=0.8)
        assert cells["F_swap_leading"] == metrics.swap_fidelity_leading(
            *point)
        expected.append(tuple(cells[c] for c in SWEEP_HEADER))
    assert _bits(rows) == _bits(expected)
    assert {row[PARAM_COLUMNS.index("kappa_p")] for row in rows} == set(
        widths.values().tolist())

    # the curve families, every row
    gauss = PulseSpec(kappa_p=0.1 * FAMILY_KAPPA)
    coops = np.geomspace(1.0, 100.0, 5).tolist()
    expected = []
    for case, delta_e, delta_p in FIG2_CASES:
        pulse = dataclasses.replace(gauss, delta_p=delta_p)
        reports = _metric_rows(
            [(family_params(c, delta_e=delta_e), pulse) for c in coops])
        expected += [(c, case, r["F_qm"], r["F_swap"])
                     for c, r in zip(coops, reports)]
    assert _bits(_rows(cli.fig2_rows(5))) == _bits(expected)

    ratios = np.geomspace(0.01, 0.5, 4).tolist()
    expected = []
    for profile in Profile:
        for case, delta_e, delta_p in FIG3_CASES:
            params = family_params(20.0, delta_e=delta_e)
            reports = _metric_rows(
                [(params, PulseSpec(profile=profile, delta_p=delta_p,
                                    kappa_p=x * FAMILY_KAPPA))
                 for x in ratios])
            expected += [(x, profile.value, case, r["F_qm"])
                         for x, r in zip(ratios, reports)]
    assert _bits(_rows(cli.fig3_rows(4))) == _bits(expected)

    ratios = [0.1, 1.0, 10.0]
    expected = []
    for case, delta_e, delta_p in FIG2_CASES:
        pulse = dataclasses.replace(gauss, delta_p=delta_p)
        keys = [(c, x) for c in (1.0, 10.0, 100.0) for x in ratios]
        reports = _metric_rows(
            [(family_params(c, ratio=x, delta_e=delta_e), pulse)
             for c, x in keys])
        expected += [(x, c, case, r["P_qm"])
                     for (c, x), r in zip(keys, reports)]
    assert _bits(_rows(cli.fig4_rows(3))) == _bits(expected)


def test_point_report_structure(tmp_path, capsys):
    assert main(["point", "--k", "0.5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {
        "lambda_L", "lambda_R", "theta_L", "theta_R", "kappa", "gamma",
        "k_c", "delta_e", "profile", "delta_p", "kappa_p", "x_0", "eta",
        "input_c_L", "input_c_R", "F_swap", "F_swap_leading", "F_qm", "P_kL",
        "P_L", "P_qm", "P_qm_conditional", "f_swap_meaningful",
        "closed_forms", "scattering"}
    assert out["profile"] == "gaussian"
    assert out["closed_forms"] == "exact"
    assert out["scattering"]["k"] == 0.5
    for key in ("g_L", "g_R", "phase_factor", "T_LL", "T_RR", "T_LR", "T_RL"):
        value = out["scattering"][key]
        assert isinstance(value, list) and len(value) == 2

    path = tmp_path / "point.json"
    assert main(["point", "--out", str(path)]) == 0
    saved = json.loads(path.read_text(encoding="utf-8"))
    # default probe wavenumber is the pulse peak
    assert saved["scattering"]["k"] == 0.0

    # the input echoes, and every metric is the point's row of the batch
    # entry, bit for bit
    assert main(["point", "--eta", "0.7", "--c-l", "0.3",
                 "--phase", "2.2"]) == 0
    out = json.loads(capsys.readouterr().out)
    c_r = math.sqrt(1.0 - 0.3 * 0.3) * complex(math.cos(2.2), math.sin(2.2))
    assert out["eta"] == 0.7
    assert out["input_c_L"] == [0.3, 0.0]
    assert out["input_c_R"] == [c_r.real, c_r.imag]
    row, = _metric_rows([(SystemParams(), PulseSpec())], eta=0.7,
                        photon=PhotonQubit(0.3, c_r))
    for name, value in row.items():
        assert type(out[name]) is type(value), name
        assert out[name] == value, name


def test_point_far_off_resonance_reads_the_limit(capsys):
    # the denominator of h overflows to inf (its s^3 term), so h reads 0
    # and the map is the identity, as it is in the limit
    assert main(["point", "--k", "1e120"]) == 0
    scattering = json.loads(capsys.readouterr().out)["scattering"]
    for key in ("phase_factor", "T_LL", "T_RR"):
        assert scattering[key] == [1.0, 0.0]
    for key in ("T_LR", "T_RL"):
        assert scattering[key] == [0.0, 0.0]


def test_point_accepts_parameter_file(tmp_path, capsys):
    src = tmp_path / "point.json"
    src.write_text(json.dumps({"kappa": 2.5, "delta_e": 1.0,
                               "profile": "lorentzian", "kappa_p": 0.3}),
                   encoding="utf-8")
    assert main(["point", "--params", str(src)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kappa"] == 2.5
    assert out["profile"] == "lorentzian"
    assert out["lambda_L"] == pytest.approx(math.sqrt(10.0))


def test_quad_override_reaches_the_metadata(tmp_path):
    out = tmp_path / "f.csv"
    # only the state oracle integrates on a rule; the closed forms have none
    for argv in (["point"], ["fig2", "--out", str(out)],
                 ["sweep", "--axis", "delta_e,linear,0,1,2", "--out",
                  str(out)]):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--quad-n", "32"])
        assert exit_.value.code == 2
    # "quad" names the rule that an oracle check of the rows integrates on
    assert main(["fig2", "--out", str(out), "--points", "3"]) == 0
    meta, _, _ = read_csv(out)
    assert meta["closed_forms"] == "exact"
    assert meta["quad"] == {"n_gauss": 64, "n_lorentz": 1040}
    assert main(["sweep", "--axis", "delta_e,linear,0,1,2",
                 "--out", str(out)]) == 0
    meta, _, _ = read_csv(out)
    assert meta["closed_forms"] == "exact"
    assert meta["quad"] == {"n_gauss": 64, "n_lorentz": 1040}
    for argv in (["point"], ["oracle"], ["oracle", "--quad-n", "32"]):
        path = tmp_path / "out.json"
        assert main([*argv, "--out", str(path)]) == 0
        assert json.loads(path.read_text(encoding="utf-8"))[
            "closed_forms"] == "exact"


def test_cli_closed_forms_pass_no_rule():
    # the command line's closed forms are exact: no metrics call in cli.py
    # passes a quadrature rule, positionally or as quad=
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and getattr(node.func.value, "id", None) == "metrics"]
    assert len(calls) >= 5
    for call in calls:
        names = list(inspect.signature(
            getattr(metrics, call.func.attr)).parameters)
        assert "quad" not in [kw.arg for kw in call.keywords], call.lineno
        if "quad" in names:
            assert len(call.args) <= names.index("quad"), call.lineno


def test_oracle_report_agrees_with_closed_forms(capsys):
    assert main(["oracle", "--eta", "0.9", "--c-l", "0.6",
                 "--phase", "1.1"]) == 0
    out = json.loads(capsys.readouterr().out)
    for key in ("P_kL", "P_L", "P_qm", "fidelity", "loss_weight", "P_total"):
        assert key in out
    assert out["readout"] == "projective"
    assert max(out["closed_form_deltas"].values()) < 1e-9

    assert main(["oracle", "--readout", "third_photon"]) == 0
    heralded = json.loads(capsys.readouterr().out)
    assert heralded["P_total"] == pytest.approx(
        heralded["P_qm"] * heralded["P_readout"], abs=1e-15)


def test_oracle_deltas_measure_the_rule_against_the_exact_forms(tmp_path,
                                                                capsys):
    # a coarse rule on a Lorentzian pulse is off the exact values by ~1e-5;
    # the deltas must show that, not a comparison of the rule with itself
    src = tmp_path / "point.json"
    src.write_text('{"profile": "lorentzian", "kappa_p": 0.2}',
                   encoding="utf-8")
    assert main(["oracle", "--params", str(src), "--quad-n", "104"]) == 0
    out = json.loads(capsys.readouterr().out)
    params, pulse = point_from_dict({"profile": "lorentzian", "kappa_p": 0.2})
    c_l = math.sqrt(0.5)  # the default --c-l, as the CLI builds the qubit
    balanced = PhotonQubit(c_l, complex(math.sqrt(1.0 - c_l * c_l)))
    exact = metrics.cycle_closed_forms(params, pulse, photons=[balanced])[0]
    deltas = out["closed_form_deltas"]
    assert deltas == {key: abs(out[key] - exact[key]) for key in deltas}
    assert max(deltas.values()) > 1e-7


def test_lorentzian_oracle_takes_counts_past_the_gaussian_cap(tmp_path,
                                                              capsys):
    # a Lorentzian pulse reads only n_lorentz, so --quad-n is held to the
    # Lorentzian cap (26624), not to the Gaussian one (370)
    src = tmp_path / "point.json"
    src.write_text('{"profile": "lorentzian"}', encoding="utf-8")
    assert main(["oracle", "--params", str(src), "--quad-n", "1000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert max(out["closed_form_deltas"].values()) < 1e-9
    assert main(["oracle", "--params", str(src), "--quad-n", "26625"]) == 2
    assert main(["oracle", "--quad-n", "1000"]) == 2
    assert main(["validate", "--quad-n", "1000"]) == 2


@pytest.mark.parametrize("k_c", [1e12, 1e17])
def test_oracle_keeps_its_grid_at_a_large_carrier(tmp_path, capsys, k_c):
    # the cavity works in detuning coordinates, so a carrier far above the
    # pulse width leaves the simulated cycle on the exact forms
    src = tmp_path / "point.json"
    src.write_text(json.dumps({"k_c": k_c, "kappa_p": 0.5}),
                   encoding="utf-8")
    assert main(["oracle", "--params", str(src)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert max(out["closed_form_deltas"].values()) <= 1e-12


def test_error_paths_exit_with_status_two(tmp_path, capsys, monkeypatch):
    assert main(["point", "--eta", "1.5"]) == 2
    assert main(["point", "--c-l", "1.5"]) == 2
    assert main(["fig2", "--out", str(tmp_path / "x.csv"),
                 "--points", "1"]) == 2
    assert main(["sweep", "--axis", "resonance,linear,0,1,5",
                 "--out", str(tmp_path / "y.csv")]) == 2
    assert main(["sweep", "--axis", "kappa_p,linear,a,1,3",
                 "--out", str(tmp_path / "y.csv")]) == 2
    assert main(["sweep", "--axis", "cooperativity,linear,-1,1,3",
                 "--out", str(tmp_path / "y.csv")]) == 2
    # P_L's denominator is below TINY_WEIGHT; P_L is no CSV column
    assert main(["sweep", "--eta", "1e-310", "--axis", "delta_e,linear,-1,1,3",
                 "--out", str(tmp_path / "y.csv")]) == 2
    for base, message in (('{"lambda_R": 0.0}', "lambda_R**2 must be > 0"),
                          ('{"gamma": 0.0}', "at gamma = 0")):
        (tmp_path / "base.json").write_text(base, encoding="utf-8")
        capsys.readouterr()
        assert main(["sweep", "--params", str(tmp_path / "base.json"),
                     "--axis", "lambda_L,linear,0,1,2",
                     "--axis", "cooperativity,log,1,10,2",
                     "--out", str(tmp_path / "y.csv")]) == 2
        assert message in capsys.readouterr().err
    for derived in ("cooperativity,log,1,10,2", "lambda_ratio,log,1,10,2"):
        assert main(["sweep", "--axis", "lambda_L,linear,1,1e200,2",
                     "--axis", derived, "--out", str(tmp_path / "y.csv")]) == 2
    bad = tmp_path / "bad.json"
    for text in ('{"kapa": 1.0}', '{"kappa": null}', "[1, 2]",
                 '{"kappa": "abc"}', '{"kappa": 2', '{"kappa": 1e999}',
                 "[" * 100_000):
        bad.write_text(text, encoding="utf-8")
        assert main(["point", "--params", str(bad)]) == 2, text[:20]
    assert main(["point", "--params", str(tmp_path / "absent.json")]) == 2
    assert main(["point", "--phase", "inf"]) == 2
    assert main(["point", "--k", "inf"]) == 2
    assert main(["point", "--k", "nan"]) == 2
    # finite, but s^2 in the scattering map overflows
    assert main(["point", "--k", "1e200"]) == 2
    # the exact moment pass overflows: no NaN cells, no CSV at all
    for field in ("kappa", "gamma", "delta_e"):
        (tmp_path / "huge.json").write_text(f'{{"{field}": 1e200}}',
                                            encoding="utf-8")
        out = tmp_path / f"{field}.csv"
        assert main(["sweep", "--params", str(tmp_path / "huge.json"),
                     "--axis", "kappa_p,log,0.1,1,3", "--out", str(out)]) == 2
        assert not out.exists()
        assert main(["point", "--params", str(tmp_path / "huge.json")]) == 2
        assert main(["oracle", "--params", str(tmp_path / "huge.json")]) == 2
    # the closed forms stay finite, the simulated cycle overflows: a typed
    # error, not a NaN in the JSON (nor a RuntimeWarning, an error here)
    for profile in ("gaussian", "lorentzian"):
        (tmp_path / "wide.json").write_text(
            f'{{"kappa_p": 1e200, "profile": "{profile}"}}', encoding="utf-8")
        capsys.readouterr()
        assert main(["oracle", "--params", str(tmp_path / "wide.json")]) == 2
        assert "simulated cycle overflows" in capsys.readouterr().err
    # the exact pass cancels to [|h|^2] = -8.86: lost precision, not a
    # pulse that never scatters
    (tmp_path / "stiff.json").write_text('{"kappa": 1e16}', encoding="utf-8")
    assert main(["point", "--params", str(tmp_path / "stiff.json")]) == 2
    assert "double precision is lost" in capsys.readouterr().err
    assert main(["sweep", "--eta", "0", "--axis", "kappa_p,log,0.1,1,3",
                 "--out", str(tmp_path / "eta.csv")]) == 2
    assert not (tmp_path / "eta.csv").exists()
    assert main(["oracle", "--eta", "nan"]) == 2
    assert main(["oracle", "--quad-n", "4"]) == 2
    assert main(["oracle", "--quad-n", "400"]) == 2
    # a count past the cap is refused before any node table is built
    with monkeypatch.context() as patch:
        def refuse(n):
            raise AssertionError(f"a {n}-node table was built")
        patch.setattr(np.polynomial.hermite, "hermgauss", refuse)
        patch.setattr(np.polynomial.legendre, "leggauss", refuse)
        assert main(["oracle", "--quad-n", "100000"]) == 2
        assert main(["validate", "--quad-n", "100000"]) == 2
    assert main(["validate", "--trials", "0"]) == 2
    assert main(["validate", "--trials", "-3"]) == 2
    assert main(["validate", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_invariant_suite_passes_and_reports(capsys):
    ok, lines = validate_suite(trials=2)
    assert ok
    assert len(lines) == 14
    assert all(line.startswith("ok  ") for line in lines)
    assert main(["validate", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "all invariant families passed" in out


def test_validate_prints_no_rounding_noise_for_the_oracle(monkeypatch,
                                                           capsys):
    # at the default seed the state oracle agrees with the closed forms to
    # rounding, which the report states as a bound, so an ulp-level change
    # in either route leaves validate's output alone
    assert main(["validate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 15
    assert ("ok   state-oracle equivalence: 20 parameter sets, worst |delta| "
            "< 1e-12") in lines
    # so do the nine identities that hold to rounding
    floored = [
        "determinant identity: max residual < 1e-13 over 10000 samples",
        "trace identity: max residual < 1e-13 over 10000 samples",
        "cross-element magnitude: max residual < 1e-13 over 10000 samples",
        "left-unit relation at equal couplings: max residual < 1e-13",
        "lossless-limit unitarity: max residual < 1e-13",
        "phase depends on couplings via their sum of squares: max spread "
        "< 1e-13",
        "quadrature normalization: max |sum(omega) - 1| < 1e-13",
        "success-probability dual path: max |direct - factored| < 1e-13",
        "memory-fidelity ratio invariance: max spread < 1e-13",
    ]
    assert all(f"ok   {line}" in lines for line in floored)
    assert sum("< 1e-13" in line for line in lines) == len(floored)
    # a delta past rounding still prints with its figure
    monkeypatch.setattr(invariants, "oracle_equivalence",
                        lambda cases, quad: {"F_qm": 1e-15, "P_L": 3e-9})
    assert main(["validate", "--trials", "1"]) == 0
    assert ("ok   state-oracle equivalence: 1 parameter sets, worst |delta| "
            "= 3.00e-09 (P_L)") in capsys.readouterr().out.splitlines()
    # and so does a residual above the floor, passing or failing
    for residual, verdict in ((2.5e-13, "ok  "), (3e-12, "FAIL")):
        monkeypatch.setattr(invariants, "quadrature_normalization",
                            lambda quad, residual=residual: residual)
        main(["validate", "--trials", "1"])
        assert (f"{verdict} quadrature normalization: max |sum(omega) - 1| "
                f"= {residual:.2e}") in capsys.readouterr().out.splitlines()


def test_validate_exits_one_when_a_family_fails(monkeypatch, capsys):
    monkeypatch.setattr(invariants, "quadrature_normalization",
                        lambda quad: 1.0)
    assert main(["validate", "--trials", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL quadrature normalization: max |sum(omega) - 1| = 1.00e+00" in out
    assert sum(line.startswith("FAIL") for line in out.splitlines()) == 1
    assert "INVARIANT FAILURES" in out


numbers = st.floats().map(repr) | st.integers().map(str)
fields = st.sampled_from(SYSTEM_FIELDS + PULSE_NUMERIC_FIELDS
                         + ("lambda_ratio", "cooperativity", "profile"))


@settings(deadline=None, max_examples=100)
@given(st.text() | st.tuples(fields | st.text(), st.sampled_from(
    ("linear", "log", "cubic")), numbers | st.text(), numbers,
    numbers | st.text()).map(",".join))
def test_axis_parsing_raises_only_typed_errors(text):
    try:
        assert isinstance(parse_axis(text), SweepAxis)
    except CavqmemError:
        pass


def test_csv_writer_format(tmp_path):
    path = tmp_path / "w.csv"
    write_csv(str(path), {"b": 1, "a": 2}, ("x", "y"),
              [np.array([0.1, 2.0]), ["lab", "el"]])
    text = path.read_text(encoding="utf-8")
    assert text == '# {"a": 2, "b": 1}\nx,y\n0.1,lab\n2.0,el\n'
    # column by column: signed zeros kept apart, a column of one value,
    # bools as text, and numpy scalars printed as their value
    third = 1.0 / 3.0
    write_csv(str(path), {}, ("z", "r", "b", "n"),
              [np.array([0.0, -0.0, 0.0]), np.full(3, third),
               [str(flag) for flag in (True, False, True)],
               np.array([np.float64(0.1), np.float64(1e-310), 2])])
    assert path.read_text(encoding="utf-8") == (
        "# {}\nz,r,b,n\n0.0,0.3333333333333333,True,0.1\n"
        "-0.0,0.3333333333333333,False,1e-310\n"
        "0.0,0.3333333333333333,True,2.0\n")
    write_csv(str(path), {}, ("x",), [np.array([])])
    assert path.read_text(encoding="utf-8") == "# {}\nx\n"


#: Floats a CSV column repeats: both zeros, subnormals, the largest
#: magnitudes, integral floats, and the non-finite values.
CELL_FLOATS = (0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308,
               1.7976931348623157e308, 1.0, -3.0, 2.0 ** 53, 1e16, 0.1,
               1.0 / 3.0, math.inf, -math.inf, math.nan)


@st.composite
def csv_columns(draw):
    rows = draw(st.integers(0, 30))
    pool = st.sampled_from(CELL_FLOATS) | st.floats()
    columns = [np.array(draw(st.lists(pool, min_size=rows, max_size=rows)),
                        dtype=np.float64)
               for _ in range(draw(st.integers(1, 4)))]
    text = st.text(st.characters(blacklist_categories=("Cs",)))
    columns.insert(draw(st.integers(0, len(columns))),
                   draw(st.lists(text, min_size=rows, max_size=rows)))
    return columns


@settings(deadline=None, max_examples=200)
@given(csv_columns())
def test_csv_writer_equals_a_row_by_row_reference(tmp_path_factory, columns):
    path = tmp_path_factory.mktemp("csv") / "w.csv"
    header = tuple(f"c{i}" for i in range(len(columns)))
    write_csv(str(path), {"k": 1}, header, columns)
    expected = "".join(",".join(map(str, row)) + "\n"
                       for row in _rows(columns))
    assert path.read_bytes().decode("utf-8") == (
        '# {"k": 1}\n' + ",".join(header) + "\n" + expected)


def test_csv_writer_formats_each_distinct_value_once(tmp_path, monkeypatch):
    calls = []

    def counting_str(value):
        calls.append(value)
        return str(value)

    monkeypatch.setattr(cli, "str", counting_str, raising=False)
    out = tmp_path / "s.csv"
    assert main(["sweep", "--axis", "delta_e,linear,-5,5,20",
                 "--axis", "x_0,linear,0,5,20", "--out", str(out)]) == 0
    monkeypatch.undo()
    _, header, rows = read_csv(out)
    assert len(rows) == 400 and len(header) == 18
    distinct = sum(len(set(column)) for column in zip(*rows))
    # x_0 moves no metric, so each metric column holds 20 distinct values
    assert distinct < 200
    assert 0 < len(calls) <= distinct + len(header)


def test_sweep_request_memory_stays_bounded(tmp_path):
    # the whole request, the CSV writer included
    base = tmp_path / "base.json"
    base.write_text('{"profile": "lorentzian"}', encoding="utf-8")
    argv = ["sweep", "--params", str(base),
            "--axis", "delta_e,linear,-5,5,20",
            "--axis", "kappa_p,log,0.05,1,20",
            "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 0  # warm the parser and the tables
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    assert len(read_csv(tmp_path / "s.csv")[2]) == 400


def test_sweep_builds_each_point_once(tmp_path):
    # (lambda_L, lambda_R) passes through (0, 0) on the way to each point,
    # but every point the sweep evaluates is physical
    base = tmp_path / "base.json"
    base.write_text('{"lambda_R": 0.0}', encoding="utf-8")
    out = tmp_path / "s.csv"
    assert main(["sweep", "--params", str(base),
                 "--axis", "lambda_L,linear,0,1,2",
                 "--axis", "lambda_R,linear,0.5,1,2", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    couplings = [(float(r[header.index("lambda_L")]),
                  float(r[header.index("lambda_R")])) for r in rows]
    assert couplings == [(0.0, 0.5), (0.0, 1.0), (1.0, 0.5), (1.0, 1.0)]


def _reference_set_field(fields: dict, field: str, value: float) -> None:
    """One axis value applied to the flat field dict of one sweep point,
    the scalar way, checks and all."""
    if field not in VIRTUAL_FIELD_NAMES:
        fields[field] = value
        return
    try:
        lam_sq = fields["lambda_L"] ** 2 + fields["lambda_R"] ** 2
    except OverflowError:
        raise NonFiniteField("lambda_sq") from None
    if field == "lambda_ratio":
        ratio_sq = value * value
        lam_r = (math.sqrt(lam_sq) / abs(value) if math.isinf(ratio_sq)
                 else math.sqrt(lam_sq / (1.0 + ratio_sq)))
        fields.update(lambda_L=value * lam_r, lambda_R=lam_r)
        return
    if value <= 0.0:
        raise InvalidField(field, "cooperativity must be > 0")
    if lam_sq == 0.0:
        raise ZeroCoupling()
    if fields["gamma"] == 0.0:
        raise GammaZero()
    ratio = value * fields["kappa"] * fields["gamma"] / lam_sq
    if ratio > 0.0:
        scale = math.sqrt(ratio)
        fields.update(lambda_L=scale * fields["lambda_L"],
                      lambda_R=scale * fields["lambda_R"])


def _reference_rows(spec: SweepSpec) -> list[tuple]:
    """The rows of `sweep_rows` built point by point: every axis applied to
    a field dict, then one SystemParams and PulseSpec per point, then
    `metrics.metric_columns` over the points."""
    base = {name: value if name == "profile" else float(value)
            for name, value in point_to_dict(spec.params, spec.pulse).items()}
    points, echoes = [], []
    for values in itertools.product(*(a.values().tolist() for a in spec.axes)):
        fields = dict(base)
        for axis, value in zip(spec.axes, values):
            _reference_set_field(fields, axis.field, value)
        points.append((
            SystemParams(*(fields[name] for name in SYSTEM_FIELDS)),
            PulseSpec(profile=spec.pulse.profile,
                      **{name: fields[name] for name in PULSE_NUMERIC_FIELDS})))
        echoes.append(tuple(fields.values()))
    rows = []
    for echo, point, report in zip(echoes, points,
                                   _metric_rows(points, eta=spec.eta)):
        assert report["F_swap_leading"] == metrics.swap_fidelity_leading(
            *point)
        rows.append(echo + (spec.eta, report["F_swap"],
                            report["F_swap_leading"], report["F_qm"],
                            report["P_qm"], report["P_qm_conditional"]))
    return rows


def _outcome(build, spec):
    """The rows as the repr of every cell, or the class and message of the
    typed error that building them raises."""
    try:
        return _bits(build(spec))
    except CavqmemError as exc:
        return type(exc), str(exc)


def _sweep_cells(spec: SweepSpec) -> list[tuple]:
    """The rows of `sweep_rows`' columns."""
    return _rows(sweep_rows(spec))


SWEEPABLE = SYSTEM_FIELDS + PULSE_NUMERIC_FIELDS + VIRTUAL_FIELD_NAMES


@st.composite
def sweep_specs(draw):
    floats = lambda lo, hi: st.floats(lo, hi, allow_subnormal=False)
    params = SystemParams(
        lambda_L=draw(floats(0.0, 8.0)), lambda_R=draw(floats(0.1, 8.0)),
        theta_L=draw(floats(-math.pi, math.pi)),
        theta_R=draw(floats(-math.pi, math.pi)),
        kappa=draw(floats(0.2, 8.0)), gamma=draw(floats(0.0, 3.0)),
        k_c=draw(floats(-2.0, 2.0)), delta_e=draw(floats(-10.0, 10.0)))
    pulse = PulseSpec(profile=draw(st.sampled_from(Profile)),
                      delta_p=draw(floats(-2.0, 2.0)),
                      kappa_p=draw(floats(0.02, 1.0)),
                      x_0=draw(floats(-5.0, 5.0)))
    axes = []
    for _ in range(draw(st.integers(1, 2))):
        scale = draw(st.sampled_from(("linear", "log")))
        bounds = floats(1e-2, 1e2) if scale == "log" else floats(-1.0, 10.0)
        axes.append(SweepAxis(draw(st.sampled_from(SWEEPABLE)), scale,
                              draw(bounds), draw(bounds),
                              draw(st.integers(2, 6))))
    return SweepSpec(params=params, pulse=pulse, axes=tuple(axes),
                     eta=draw(floats(0.01, 1.0)))


@settings(deadline=None, max_examples=150)
@given(sweep_specs())
def test_sweep_rows_equal_a_point_by_point_reference(spec):
    # the columns, the derived axes and the row check reproduce the scalar
    # build of every point, cell by cell, and so does a failure
    assert _outcome(_sweep_cells, spec) == _outcome(_reference_rows, spec)


@pytest.mark.parametrize("base, axes, error", [
    # a derived axis that cannot apply to the first bad row
    ({}, ["cooperativity,linear,-1,1,3"], InvalidField),
    ({"lambda_R": 0.0}, ["lambda_L,linear,0,1,2",
                         "cooperativity,log,1,10,2"], ZeroCoupling),
    ({"gamma": 0.0}, ["cooperativity,log,1,10,2"], GammaZero),
    ({}, ["lambda_L,linear,1,1e200,2", "cooperativity,log,1,10,2"],
     NonFiniteField),
    ({}, ["lambda_R,linear,1,1e200,2", "lambda_ratio,log,1,10,2"],
     NonFiniteField),
    # a row that fails its own point checks
    ({}, ["kappa,linear,-1,1,3"], NonPositiveKappa),
    ({}, ["gamma,linear,-1,1,3"], NegativeGamma),
    ({}, ["kappa_p,linear,-1,1,3"], NonPositiveKappa),
    ({"lambda_R": 0.0}, ["lambda_L,linear,0,1,2"], ZeroCoupling),
    ({}, ["kappa,log,1e200,1e300,2", "cooperativity,log,1e100,1e200,2"],
     NonFiniteField),
    # the first bad row decides, whichever stage it fails in
    ({}, ["kappa,linear,1,-1,2", "cooperativity,linear,1,-1,2"],
     InvalidField),
    ({}, ["cooperativity,linear,1,-1,2", "kappa,linear,1,-1,2"],
     NonPositiveKappa),
])
def test_sweep_errors_are_those_of_the_first_bad_point(base, axes, error):
    spec = SweepSpec(*point_from_dict(base), tuple(map(parse_axis, axes)))
    outcome = _outcome(_sweep_cells, spec)
    assert outcome == _outcome(_reference_rows, spec)
    assert outcome[0] is error


def test_sweeps_and_families_build_no_point_per_row(tmp_path, monkeypatch):
    # the grid is checked as columns; only the base point runs the checks
    calls = []
    for name in ("validate", "validate_pulse"):
        real = getattr(params, name)
        monkeypatch.setattr(params, name, lambda point, real=real, name=name:
                            calls.append(name) or real(point))
    counts = []
    for count in (2, 20):
        calls.clear()
        axis = f"delta_e,linear,-5,5,{count}"
        assert main(["sweep", "--axis", axis, "--axis",
                     f"cooperativity,log,1,100,{count}",
                     "--out", str(tmp_path / "s.csv")]) == 0
        counts.append(len(calls))
        calls.clear()
        assert main(["fig4", "--points", str(count),
                     "--out", str(tmp_path / "f.csv")]) == 0
        counts.append(len(calls))
    assert counts[:2] == counts[2:]
    assert counts[0] <= 2 and counts[1] == 0


def test_largest_gauss_hermite_rule_still_works(capsys):
    assert main(["oracle", "--quad-n", "370"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 < out["fidelity"] <= 1.0
    assert max(out["closed_form_deltas"].values()) < 1e-9


def test_non_finite_json_output_is_a_bug_not_a_result(monkeypatch):
    real = metrics.metric_columns

    def nan_columns(*args, **kwargs):
        return real(*args, **kwargs)._replace(F_qm=np.array([math.nan]))

    monkeypatch.setattr(metrics, "metric_columns", nan_columns)
    with pytest.raises(ValueError, match="JSON compliant"):
        main(["point"])
