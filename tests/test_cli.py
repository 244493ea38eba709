"""Command-line front end: CSV determinism, JSON reports, exit codes."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavqmem import invariants, metrics
from cavqmem.cli import (
    PULSE_FIELD_NAMES,
    SWEEP_HEADER,
    SweepAxis,
    SweepSpec,
    build_parser,
    main,
    parse_axis,
    sweep_rows,
    write_csv,
)
from cavqmem.errors import CavqmemError, InvalidField
from cavqmem.invariants import validate_suite
from cavqmem.params import (
    FAMILY_KAPPA,
    SYSTEM_FIELDS,
    PulseSpec,
    SystemParams,
    family_params,
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
    for _, cell_c, _, cell_p in mid:
        f_swap = metrics.swap_fidelity(family_params(float(cell_c)), pulse)
        assert float(cell_p) == pytest.approx(f_swap, abs=1e-12)


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


def test_sweep_rows_match_metric_calls():
    axis = SweepAxis("delta_e", "linear", -2.0, 2.0, 3)
    spec = SweepSpec(params=SystemParams(), pulse=PulseSpec(kappa_p=0.2),
                     axes=(axis,), eta=0.9)
    rows = sweep_rows(spec)
    assert len(rows) == 3
    for value, row in zip(axis.values(), rows):
        params = SystemParams(delta_e=float(value))
        assert row[SWEEP_HEADER.index("delta_e")] == float(value)
        assert row[SWEEP_HEADER.index("F_qm")] == metrics.qm_fidelity(
            params, PulseSpec(kappa_p=0.2))
        assert row[SWEEP_HEADER.index("P_qm")] == metrics.qm_success(
            params, PulseSpec(kappa_p=0.2), eta=0.9)


def test_point_report_structure(tmp_path, capsys):
    assert main(["point", "--k", "0.5", "--quad-check"]) == 0
    out = json.loads(capsys.readouterr().out)
    for key in ("lambda_L", "profile", "F_swap", "F_swap_leading", "F_qm",
                "P_kL", "P_L", "P_qm", "P_qm_conditional",
                "f_swap_meaningful", "scattering", "quad_check_delta"):
        assert key in out
    assert out["scattering"]["k"] == 0.5
    for key in ("g_L", "g_R", "phase_factor", "T_LL", "T_RR", "T_LR", "T_RL"):
        value = out["scattering"][key]
        assert isinstance(value, list) and len(value) == 2
    assert out["quad_check_delta"] < 1e-9

    path = tmp_path / "point.json"
    assert main(["point", "--out", str(path)]) == 0
    saved = json.loads(path.read_text(encoding="utf-8"))
    # default probe wavenumber is the pulse peak
    assert saved["scattering"]["k"] == 0.0
    assert "quad_check_delta" not in saved


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
    assert main(["fig2", "--out", str(out), "--points", "3",
                 "--quad-n", "32"]) == 0
    meta, _, _ = read_csv(out)
    assert meta["quad"] == {"n_gauss": 32, "n_lorentz": 32}


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


def test_error_paths_exit_with_status_two(tmp_path, capsys):
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
    assert main(["point", "--quad-n", "4"]) == 2
    assert main(["validate", "--trials", "0"]) == 2
    assert main(["validate", "--trials", "-3"]) == 2
    assert main(["validate", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_invariant_suite_passes_and_reports(capsys):
    ok, lines = validate_suite(trials=2)
    assert ok
    assert len(lines) == 15
    assert all(line.startswith("ok  ") for line in lines)
    assert main(["validate", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "all invariant families passed" in out


def test_validate_exits_one_when_a_family_fails(monkeypatch, capsys):
    monkeypatch.setattr(invariants, "quadrature_normalization",
                        lambda quad: 1.0)
    assert main(["validate", "--trials", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL quadrature normalization: max |sum(omega) - 1| = 1.00e+00" in out
    assert sum(line.startswith("FAIL") for line in out.splitlines()) == 1
    assert "INVARIANT FAILURES" in out


numbers = st.floats().map(repr) | st.integers().map(str)
fields = st.sampled_from(SYSTEM_FIELDS + PULSE_FIELD_NAMES
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
              [(0.1, "lab"), (2.0, "el")])
    text = path.read_text(encoding="utf-8")
    assert text == '# {"a": 2, "b": 1}\nx,y\n0.1,lab\n2.0,el\n'
