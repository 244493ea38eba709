"""Correctness checks of every operation's output; run after timing ends.

`check_op` returns None for a correct output and a one-line reason otherwise.
Numeric checks compare the program against itself by an independent route:

* scan:   structure of every CSV; on a seeded sample of requests, one
          seeded row re-evaluated with the state-vector oracle
          `run_memory_protocol`, F_qm and P_qm agreeing within 1e-6.
          Curve-family points are rebuilt from the CSV's own metadata line.
* oracle: the program's `closed_form_deltas` are all <= 1e-6.
* pair:   postselect fidelity equals `metrics.qm_fidelity` within 1e-8;
          swap fidelity lies between |[T_LR]_f|^2 and [|T_LR|^2]_f (the
          spectral bounds of tests/test_statesim.py).
"""

from __future__ import annotations

import json
import math

import numpy as np

from cavqmem import (
    CavqmemError,
    PhotonQubit,
    QuadratureConfig,
    build_grid,
    point_from_dict,
    qm_fidelity,
    run_memory_protocol,
    t_elements,
)

ORACLE_TOL = 1e-6
PAIR_TOL = 1e-8
BOUND_TOL = 1e-12

PARAM_COLUMNS = ("lambda_L", "lambda_R", "theta_L", "theta_R", "kappa",
                 "gamma", "k_c", "delta_e", "profile", "delta_p", "kappa_p",
                 "x_0")
FIG_HEADERS = {
    "fig2": ["C", "case", "F_qm", "F_swap"],
    "fig3": ["kappa_p_over_kappa", "profile", "case", "F_qm"],
    "fig4": ["lambda_ratio", "C", "case", "P_qm"],
}


def _family_point(meta: dict, coop: float, ratio: float, case: str,
                  profile: str, kappa_p_over_kappa: float) -> dict:
    """Curve-family parameter point: lambda^2 = C kappa gamma split by the
    coupling ratio, detunings from the named case."""
    kappa, gamma = meta["kappa"], meta["gamma"]
    lam_r = math.sqrt(coop * kappa * gamma / (1.0 + ratio * ratio))
    return {"lambda_L": ratio * lam_r, "lambda_R": lam_r, "kappa": kappa,
            "gamma": gamma, "delta_e": meta["cases"][case]["delta_e"],
            "delta_p": meta["cases"][case]["delta_p"], "profile": profile,
            "kappa_p": kappa_p_over_kappa * kappa}


def _row_claim(kind: str, meta: dict, row: dict) -> tuple[dict, float, dict]:
    """(parameter point, eta, {metric: claimed value}) of one CSV row."""
    if kind == "sweep":
        point = {c: (row[c] if c == "profile" else float(row[c]))
                 for c in PARAM_COLUMNS}
        return point, float(row["eta"]), {"F_qm": float(row["F_qm"]),
                                          "P_qm": float(row["P_qm"])}
    if kind == "fig2":
        point = _family_point(meta, float(row["C"]), 1.0, row["case"],
                              "gaussian", meta["kappa_p_over_kappa"])
        return point, 1.0, {"F_qm": float(row["F_qm"])}
    if kind == "fig3":
        point = _family_point(meta, meta["cooperativity"], 1.0, row["case"],
                              row["profile"], float(row["kappa_p_over_kappa"]))
        return point, 1.0, {"F_qm": float(row["F_qm"])}
    point = _family_point(meta, float(row["C"]), float(row["lambda_ratio"]),
                          row["case"], "gaussian", meta["kappa_p_over_kappa"])
    return point, meta["eta"], {"P_qm": float(row["P_qm"])}


def check_csv(op: dict, text: str, rng: np.random.Generator,
              oracle: bool) -> str | None:
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("# "):
        return "CSV lacks its metadata line or rows"
    meta = json.loads(lines[0][2:])
    header = lines[1].split(",")
    kind = op["kind"]
    required = (FIG_HEADERS[kind] if kind in FIG_HEADERS
                else list(PARAM_COLUMNS) + ["eta", "F_qm", "P_qm"])
    if kind in FIG_HEADERS and header != required:
        return f"{kind} header {header}"
    if not set(required) <= set(header):
        return f"sweep header lacks {sorted(set(required) - set(header))}"
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    if len(rows) != op["points"] or any(len(r) != len(header) for r in rows):
        return f"{len(rows)} rows of {op['points']} expected"
    for name in ("F_qm", "P_qm", "F_swap"):
        if name in header:
            values = [float(r[name]) for r in rows]
            if not all(0.0 <= v <= 1.0 + 1e-12 for v in values):
                return f"{name} outside [0, 1]"
    if not oracle:
        return None
    row = rows[int(rng.integers(len(rows)))]
    point, eta, claims = _row_claim(kind, meta, row)
    params, pulse = point_from_dict(point)
    quad = QuadratureConfig(**meta["quad"])
    record = run_memory_protocol(params, pulse, quad,
                                 photon=PhotonQubit(1.0, 0.0), detector=eta)
    simulated = {"F_qm": record.fidelity, "P_qm": record.p_qm}
    for name, claimed in claims.items():
        if not abs(simulated[name] - claimed) <= ORACLE_TOL:
            return f"{name} {claimed!r} vs state oracle {simulated[name]!r}"
    return None


def check_oracle(op: dict, text: str) -> str | None:
    out = json.loads(text)
    readout = op["argv"][op["argv"].index("--readout") + 1]
    if out.get("readout") != readout:
        return f"readout {out.get('readout')!r}, asked {readout!r}"
    for key in ("P_kL", "P_L", "P_qm", "fidelity", "P_total"):
        if not 0.0 <= out[key] <= 1.0 + 1e-12:
            return f"{key} = {out[key]!r} outside [0, 1]"
    deltas = out["closed_form_deltas"]
    if set(deltas) != {"P_kL", "P_L", "P_qm", "fidelity"}:
        return f"closed_form_deltas keys {sorted(deltas)}"
    worst = max(deltas, key=lambda k: deltas[k])
    if not deltas[worst] <= ORACLE_TOL:
        return f"closed_form_deltas[{worst}] = {deltas[worst]!r}"
    return None


def check_pair(op: dict, out: dict) -> str | None:
    if out["mode"] != op["mode"]:
        return f"mode {out['mode']!r}, asked {op['mode']!r}"
    if not 0.0 < out["probability"] <= 1.0 + 1e-12:
        return f"probability {out['probability']!r}"
    params, pulse = point_from_dict(op["point"])
    quad = QuadratureConfig(n_gauss=op["n_gauss"], n_lorentz=op["n_lorentz"])
    fidelity = out["fidelity"]
    if op["mode"] == "postselect":
        expected = qm_fidelity(params, pulse, quad)
        if not abs(fidelity - expected) <= PAIR_TOL:
            return f"postselect fidelity {fidelity!r} vs F_qm {expected!r}"
        return None
    grid = build_grid(pulse, quad, k_c=params.k_c)
    t_lr = t_elements(grid.k, params)[2]
    lo = abs(grid.average(t_lr)) ** 2
    hi = float(np.real(grid.average(np.abs(t_lr) ** 2)))
    if not lo - BOUND_TOL <= fidelity <= hi + BOUND_TOL:
        return f"swap fidelity {fidelity!r} outside [{lo!r}, {hi!r}]"
    return None


def check_op(op: dict, output, rng: np.random.Generator,
             oracle: bool = True) -> str | None:
    """None if the output of `op` is correct, else the reason it is not.
    `oracle` selects whether a CSV gets a row re-evaluated by the state
    oracle; `rng` picks that row."""
    try:
        if op["kind"] == "pair":
            return check_pair(op, output)
        if op["kind"] == "oracle":
            return check_oracle(op, output)
        return check_csv(op, output, rng, oracle)
    except (CavqmemError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def corrupt(op: dict, output):
    """A copy of a correct output with one reported quantity off by 1e-3
    (the fidelity of a pair storage, a closed-form delta of an oracle
    cycle, F_qm or else P_qm in every row of a CSV)."""
    if op["kind"] == "pair":
        return dict(output, fidelity=output["fidelity"] - 1e-3)
    if op["kind"] == "oracle":
        out = json.loads(output)
        out["closed_form_deltas"]["P_qm"] += 1e-3
        return json.dumps(out)
    lines = output.splitlines()
    header = lines[1].split(",")
    col = header.index("F_qm" if "F_qm" in header else "P_qm")
    for i in range(2, len(lines)):
        cells = lines[i].split(",")
        cells[col] = repr(float(cells[col]) - 1e-3)
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"
