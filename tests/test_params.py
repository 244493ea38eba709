"""Parameter containers, validation, serialization and the detector efficiency."""

import ast
import inspect
import math
from dataclasses import astuple, replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cavqmem
from cavqmem import metrics, statesim
from cavqmem.errors import (
    GammaZero,
    InvalidField,
    NegativeGamma,
    NonFiniteField,
    NonPositiveKappa,
    ZeroCoupling,
)
from cavqmem.params import (
    ROW_FIELDS,
    AtomQubit,
    ParamRows,
    PhotonQubit,
    Profile,
    PulseSpec,
    SystemParams,
    check_efficiency,
    cooperativity,
    family_params,
    point_from_dict,
    point_rows,
    point_to_dict,
    require_normalized,
    validate,
    validate_pulse,
)
from cavqmem.scattering import coupling_amplitude
from cavqmem.spectral import QuadratureConfig
from cavqmem.statesim import PhotonPair

PACKAGE_DIR = Path(cavqmem.__file__).parent


def test_defaults_describe_symmetric_strong_coupling():
    p = SystemParams()
    assert p.lambda_L == p.lambda_R == pytest.approx(math.sqrt(10.0))
    assert p.kappa == 2.0 and p.gamma == 1.0
    assert cooperativity(p) == pytest.approx(10.0)
    assert p.xi == pytest.approx(math.pi / 4)
    assert p.sin_2xi == 1.0


def test_mixing_angle_matches_coupling_ratio():
    p = SystemParams(lambda_L=3.0, lambda_R=4.0)
    assert p.lambda_sq == pytest.approx(25.0)
    assert p.sin_xi == pytest.approx(3.0 / 5.0)
    assert p.cos_xi == pytest.approx(4.0 / 5.0)
    assert p.sin_2xi == pytest.approx(24.0 / 25.0)
    assert p.xi == pytest.approx(math.atan2(3.0, 4.0))


BAD_SYSTEM = [
    (dict(kappa=0.0), NonPositiveKappa),
    (dict(kappa=-1.0), NonPositiveKappa),
    (dict(gamma=-0.5), NegativeGamma),
    (dict(lambda_L=0.0, lambda_R=0.0), ZeroCoupling),
    (dict(delta_e=math.nan), NonFiniteField),
    (dict(k_c=math.inf), NonFiniteField),
]
BAD_PULSE = [
    (dict(kappa_p=0.0), NonPositiveKappa),
    (dict(kappa_p=-0.2), NonPositiveKappa),
    (dict(delta_p=math.nan), NonFiniteField),
]


@pytest.mark.parametrize("bad, exc", BAD_SYSTEM)
def test_validate_rejects_unphysical_fields(bad, exc):
    with pytest.raises(exc):
        validate(SystemParams(**bad))


def test_validate_accepts_zero_gamma():
    # gamma = 0 is the lossless limit, not an error
    validate(SystemParams(gamma=0.0))
    with pytest.raises(GammaZero):
        cooperativity(SystemParams(gamma=0.0))


@pytest.mark.parametrize("bad, exc", BAD_PULSE)
def test_validate_pulse_rejects_unphysical_fields(bad, exc):
    with pytest.raises(exc):
        validate_pulse(PulseSpec(**bad))


@pytest.mark.parametrize("build, bad, exc", [
    *[(SystemParams, bad, exc) for bad, exc in BAD_SYSTEM],
    *[(PulseSpec, bad, exc) for bad, exc in BAD_PULSE],
    (PulseSpec, dict(kappa_p=math.nan), NonFiniteField),
    (PulseSpec, dict(x_0=math.nan), NonFiniteField),
])
def test_invalid_points_cannot_be_constructed(build, bad, exc):
    # an unphysical point raises its typed error before it exists, so no
    # function that takes a point has to check it again
    with pytest.raises(exc):
        build(**bad)


#: Fields of the wrong type, which a library caller can pass directly (the
#: CLI's point_from_dict types every value first).
MISTYPED = [
    (SystemParams, dict(kappa="2")),
    (PulseSpec, dict(profile="boxcar")),
    (PulseSpec, dict(kappa_p=None)),
]


@pytest.mark.parametrize("build, bad", MISTYPED)
def test_mistyped_fields_raise_typed_errors(build, bad):
    with pytest.raises(InvalidField) as err:
        build(**bad)
    assert isinstance(err.value, ValueError)


def test_only_params_calls_the_point_checks():
    # the constructors run validate and validate_pulse; a call anywhere
    # else would be a redundant re-check
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem == "params":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = [node.func for node in ast.walk(tree)
                 if isinstance(node, ast.Call)]
        names = {getattr(f, "id", getattr(f, "attr", None)) for f in calls}
        assert not names & {"validate", "validate_pulse"}, path.name


def test_param_rows_hold_every_numeric_field():
    # a new SystemParams or PulseSpec field has to reach the batch type too
    assert ParamRows._fields == ROW_FIELDS + ("lorentzian", "lambda_sq")
    rows = point_rows([(SystemParams(lambda_L=3.0, lambda_R=4.0),
                        PulseSpec(profile="lorentzian", kappa_p=0.3))])
    assert rows.lambda_sq.tolist() == [25.0]
    assert rows.kappa_p.tolist() == [0.3]
    assert rows.lorentzian.tolist() == [True]


def _package_imports(stem: str) -> set[str]:
    """Modules of the package that module `stem` imports directly."""
    tree = ast.parse((PACKAGE_DIR / f"{stem}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if not node.level:
                if parts[0] != "cavqmem":
                    continue
                parts = parts[1:]
            names |= ({parts[0]} if parts and parts[0]
                      else {alias.name for alias in node.names})
        elif isinstance(node, ast.Import):
            names |= {(alias.name.split(".") + ["__init__"])[1]
                      for alias in node.names
                      if alias.name.split(".")[0] == "cavqmem"}
    return {name for name in names if (PACKAGE_DIR / f"{name}.py").exists()}


def _package_closure(stem: str) -> set[str]:
    """Modules of the package that module `stem` loads, directly or not."""
    seen, todo = set(), [stem]
    while todo:
        fresh = _package_imports(todo.pop()) - seen
        seen |= fresh
        todo.extend(fresh)
    return seen


def test_oracle_and_closed_forms_stay_independent():
    # the state-vector oracle checks the closed forms only while neither
    # route borrows from the other
    assert not _package_closure("statesim") & {"metrics", "invariants"}
    assert "statesim" not in _package_closure("metrics")
    # the walk does see relative imports, so the checks above are not vacuous
    assert {"params", "scattering", "spectral"} <= _package_closure("statesim")


def _statesim_names_imported(path: Path) -> set[str]:
    """Names that the module at `path` imports from `cavqmem.statesim`,
    directly or through the package; a plain import of the package or of
    `cavqmem.statesim` counts as its dotted name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names
                      if alias.name.split(".")[0] == "cavqmem"}
        elif isinstance(node, ast.ImportFrom) and node.module in (
                "cavqmem", statesim.__name__):
            names |= {alias.name for alias in node.names
                      if node.module == statesim.__name__
                      or alias.name == "statesim"
                      or getattr(getattr(cavqmem, alias.name, None),
                                 "__module__", None) == statesim.__name__}
    return names


def test_long_way_reference_borrows_no_oracle_figure():
    # tests/longway.py checks the state oracle only while it computes every
    # figure itself: from statesim it takes the cavity (grid and elements)
    # and the record type, nothing that computes a figure
    borrowed = _statesim_names_imported(
        Path(__file__).with_name("longway.py"))
    assert borrowed <= {"Cavity", "MemoryRecord"}
    # the walk does see the imports it allows, so the check is not vacuous
    assert "Cavity" in borrowed


def test_closed_forms_take_no_quadrature_rule():
    # only the state oracle integrates on a rule: qm_fidelity's `quad` is
    # the one rule left in `metrics`, which builds no grid
    assert {name for name, fn in inspect.getmembers(metrics, callable)
            if not name.startswith("_") and fn.__module__ == metrics.__name__
            and "quad" in inspect.signature(fn).parameters} == {"qm_fidelity"}
    assert not {"build_grid", "KGrid"} & set(vars(metrics))


def test_pulse_accepts_profile_as_string():
    assert PulseSpec(profile="lorentzian").profile is Profile.LORENTZIAN


def test_point_dict_round_trip():
    params = SystemParams(lambda_L=1.5, lambda_R=0.5, theta_L=0.3,
                          theta_R=-0.2, kappa=1.1, gamma=0.7, k_c=2.0,
                          delta_e=-3.0)
    pulse = PulseSpec(profile=Profile.LORENTZIAN, delta_p=0.4, kappa_p=0.05,
                      x_0=7.0)
    data = point_to_dict(params, pulse)
    assert data["profile"] == "lorentzian"
    back_p, back_u = point_from_dict(data)
    assert back_p == params
    assert back_u == pulse


def test_point_from_dict_fills_defaults_and_rejects_unknown_keys():
    params, pulse = point_from_dict({"kappa": 3.0})
    assert params.kappa == 3.0
    assert params.lambda_L == SystemParams().lambda_L
    assert pulse == PulseSpec()
    with pytest.raises(InvalidField):
        point_from_dict({"kapa": 3.0})
    with pytest.raises(InvalidField):
        point_from_dict({"profile": "boxcar"})
    # a value must be a JSON number, not a string float() parses or a bool
    for data in ({"kappa": "3.5"}, {"delta_p": " 1e1 "}, {"kappa": "1_0"},
                 {"kappa": True}, {"kappa_p": False}, {"gamma": None}):
        with pytest.raises(InvalidField, match="not a number"):
            point_from_dict(data)


def test_qubit_normalization_helpers():
    q = PhotonQubit(3.0, 4.0j)
    assert q.norm_sq == pytest.approx(25.0)
    n = q.normalized()
    assert n.norm_sq == pytest.approx(1.0)
    require_normalized(n)
    with pytest.raises(ValueError):
        require_normalized(q)
    a = AtomQubit(1.0, 1.0).normalized()
    assert a.norm_sq == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
@pytest.mark.parametrize("qubit", [PhotonQubit, AtomQubit, PhotonPair])
def test_non_finite_amplitudes_are_not_normalized(qubit, bad):
    with pytest.raises(InvalidField):
        require_normalized(qubit(bad, 0.0))
    with pytest.raises(InvalidField):
        require_normalized(qubit(0.0, bad))


@pytest.mark.parametrize("qubit", [PhotonQubit, AtomQubit, PhotonPair])
def test_normalized_refuses_zero_and_non_finite_norms(qubit):
    # no unit vector lies along a zero or non-finite one: a typed error, not
    # a ZeroDivisionError or NaN amplitudes
    for bad in ((0.0, 0.0), (math.nan, 1.0), (0.0, math.inf)):
        with pytest.raises(InvalidField):
            qubit(*bad).normalized()
    unit = astuple(qubit(3.0, 4.0).normalized())
    assert unit == (0.6, 0.8)
    assert all(type(a) is float for a in unit)


def test_constant_detector_bounds():
    # any real number in (0, 1], returned as a float; a plain float takes
    # a fast path that must accept and refuse exactly as the general one
    class Real(float):
        pass

    for good in (0.8, 1.0, 1e-310, 5e-324, math.nextafter(0.0, 1.0),
                 Real(0.5), np.float64(0.25), np.float32(0.5),
                 np.float16(1.0), 1, True, np.int64(1), Fraction(1, 3)):
        assert check_efficiency(good) == float(good)
        assert type(check_efficiency(good)) is float
    for bad in (0.0, -0.0, -0.1, 1.2, math.nextafter(1.0, 2.0), math.nan,
                -math.nan, math.inf, -math.inf, Real(1.5), np.float64(0.0),
                np.float64(math.nan), np.float32(1.5), 0, 2, -1, False,
                np.int64(0), Fraction(3, 2), Fraction(0), "0.5", "1", b"1",
                None, 0.5j, complex(0.5, 0.0), np.complex128(0.5),
                Decimal("0.5"), [0.5]):
        with pytest.raises(InvalidField, match=r"must be in \(0, 1\]"):
            check_efficiency(bad)


_POINT = (SystemParams(), PulseSpec())
_PAIR = (PhotonPair(0.6, 0.8), SystemParams(), SystemParams(), PulseSpec(),
         PulseSpec())


#: Every public function that takes the detector efficiency, called with it.
EFFICIENCY_ENTRIES = {
    "cycle_closed_forms": lambda eta: metrics.cycle_closed_forms(
        *_POINT, detector=eta),
    "metric_columns": lambda eta: metrics.metric_columns(
        point_rows([_POINT]), eta=eta),
    "run_memory_protocol": lambda eta: statesim.run_memory_protocol(
        *_POINT, detector=eta),
    **{f"entanglement_storage-{mode}-{side}": (
        lambda eta, mode=mode, side=side: statesim.entanglement_storage(
            *_PAIR, mode=mode, **{side: eta}))
       for mode in ("postselect", "swap")
       for side in ("detector_1", "detector_2")},
}


@pytest.mark.parametrize("entry", EFFICIENCY_ENTRIES.values(),
                         ids=EFFICIENCY_ENTRIES.keys())
def test_efficiency_is_refused_at_every_public_entry(entry):
    entry(0.8)  # a valid efficiency passes
    for bad in (0.0, -0.1, 1.5, math.nan, math.inf, "0.5"):
        with pytest.raises(InvalidField, match=r"must be in \(0, 1\]"):
            entry(bad)


@settings(deadline=None, max_examples=50)
@given(factor=st.floats(min_value=0.05, max_value=20.0))
def test_rescaling_preserves_dimensionless_combinations(factor):
    params, pulse = SystemParams(delta_e=1.3, k_c=0.4), PulseSpec(delta_p=0.7)
    # every rate-like field times one positive factor
    sp = replace(params, **{name: factor * getattr(params, name) for name in
                            ("lambda_L", "lambda_R", "kappa", "gamma", "k_c",
                             "delta_e")})
    su = replace(pulse, delta_p=factor * pulse.delta_p,
                 kappa_p=factor * pulse.kappa_p)
    assert cooperativity(sp) == pytest.approx(cooperativity(params), rel=1e-12)
    assert sp.xi == pytest.approx(params.xi, rel=1e-12)
    assert su.kappa_p / sp.kappa == pytest.approx(pulse.kappa_p / params.kappa,
                                                 rel=1e-12)
    assert sp.delta_e / sp.gamma == pytest.approx(params.delta_e / params.gamma,
                                                  rel=1e-12)


def test_input_failures_are_typed_and_still_value_errors():
    with pytest.raises(InvalidField) as err:
        require_normalized(PhotonQubit(1.0, 1.0))
    assert isinstance(err.value, ValueError)
    for make in (lambda: QuadratureConfig(n_lorentz=4),
                 # counts past the caps, refused before a table is built
                 lambda: QuadratureConfig(n_gauss=10**6),
                 lambda: QuadratureConfig(n_lorentz=10**8),
                 # counts that are not integers
                 lambda: QuadratureConfig(n_gauss=64.5),
                 lambda: QuadratureConfig(n_gauss="64"),
                 lambda: coupling_amplitude(0.0, SystemParams(), "H")):
        with pytest.raises(InvalidField):
            make()
    # a negative cooperativity splits into NaN couplings, which the point
    # check names (no RuntimeWarning: warnings are errors in this suite)
    with pytest.raises(NonFiniteField):
        family_params(-1.0)
    for name in ("NonPositiveKappa", "NegativeGamma", "ZeroCoupling",
                 "GammaZero", "PrecisionLoss"):
        assert issubclass(getattr(cavqmem, name), cavqmem.CavqmemError)
        assert name in cavqmem.__all__


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from([p.value for p in Profile]),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=8)


field_names = st.sampled_from(sorted(point_to_dict(SystemParams(),
                                                  PulseSpec())))


@settings(deadline=None, max_examples=100)
@given(json_values | st.dictionaries(field_names | st.text(), json_values)
       | st.dictionaries(field_names, st.floats() | st.integers()))
@example({"lambda_L": 1e200})  # lambda^2 overflows
@example({"kappa": 10**400})   # too large for a float
def test_point_from_dict_raises_only_typed_errors(data):
    try:
        params, pulse = point_from_dict(data)
    except cavqmem.CavqmemError:
        return
    assert point_from_dict(point_to_dict(params, pulse)) == (params, pulse)
