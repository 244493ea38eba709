"""Seeded workload plans: every input an operation needs, drawn before timing.

A plan is a list of blocks, each block a list of operations (plain dicts that
survive a JSON round trip).  Every block of a workload holds the same fixed
multiset of operation shapes in a seed-permuted order; only the parameter
values are random.  Timed runs execute whole blocks, so the latency quantiles
of a run fall inside one shape's group (see README.md) and compare across
seeds.  The first operation of block 0 has a fixed shape per workload because
it is also the set-up probe.

All parameter draws stay inside the oracle-equivalence ranges of
`cavqmem.cli.draw_equivalence_point`: cooperativity in [1, 100],
kappa_p/kappa in [0.01, 0.3], delta_e in [-10, 10], delta_p in [-2, 2],
mixing angle in [0.05, pi/2 - 0.05], detector efficiency in (0.25, 1].
The ranges are restated here so that the inputs do not change when the
program's own helpers move.
"""

from __future__ import annotations

import math

import numpy as np

KAPPA, GAMMA = 2.0, 1.0

#: Sweepable fields and the (scale, lo, hi) range each axis is drawn inside.
SWEEP_FIELDS = {
    "cooperativity": ("log", 1.0, 100.0),
    "kappa_p": ("log", 0.01 * KAPPA, 0.3 * KAPPA),
    "delta_e": ("linear", -10.0, 10.0),
    "delta_p": ("linear", -2.0, 2.0),
    "lambda_ratio": ("log", 0.1, 10.0),
    "theta_L": ("linear", -math.pi, math.pi),
    "theta_R": ("linear", -math.pi, math.pi),
    "k_c": ("linear", -2.0, 2.0),
    "x_0": ("linear", 0.0, 5.0),
}

#: Request shapes of one `scan` block, in increasing cost order on the
#: reference machine: ("fig", family) or ("sweep", profile, axis counts).
#: Ranks 5-6 share a cost (the median) and ranks 8-10 share a cost (the
#: 75th to 95th percentiles), so every quantile the benchmark reports falls
#: inside one cost group.
SCAN_SHAPES = (
    ("fig", "fig3"),                       # 150 rows, both profiles
    ("sweep", "gaussian", (50,)),
    ("fig", "fig2"),                       # 183 rows
    ("fig", "fig4"),                       # 369 rows
    ("sweep", "gaussian", (12, 12)),
    ("sweep", "gaussian", (12, 12)),
    ("sweep", "lorentzian", (120,)),
    ("sweep", "lorentzian", (400,)),
    ("sweep", "lorentzian", (20, 20)),
    ("sweep", "lorentzian", (16, 25)),
)

#: Rows emitted by each curve family at its default sample count.
FIG_ROWS = {"fig2": 3 * 61, "fig3": 2 * 3 * 25, "fig4": 3 * 3 * 41}

#: `oracle` block: (profile, readout); three in four pulses are Lorentzian.
ORACLE_SHAPES = (
    ("lorentzian", "projective"),
    ("lorentzian", "projective"),
    ("lorentzian", "projective"),
    ("lorentzian", "third_photon"),
    ("lorentzian", "third_photon"),
    ("lorentzian", "third_photon"),
    ("gaussian", "projective"),
    ("gaussian", "third_photon"),
)

#: `pair` block: (profile, node count, mode), both modes at every node
#: count.  In cost order the two Lorentzian-260 swaps sit at ranks 5-6 (the
#: median) and the three Lorentzian-520 swaps at ranks 8-10 (the 75th to
#: 95th percentiles).
PAIR_SHAPES = (
    ("lorentzian", 260, "postselect"),
    ("gaussian", 64, "postselect"),
    ("gaussian", 64, "swap"),
    ("gaussian", 64, "postselect"),
    ("lorentzian", 260, "swap"),
    ("lorentzian", 260, "swap"),
    ("lorentzian", 520, "postselect"),
    ("lorentzian", 520, "swap"),
    ("lorentzian", 520, "swap"),
    ("lorentzian", 520, "swap"),
)

#: Rough cost of one block on a 2-core x86 machine, seconds; only used to
#: size the plan (a run that outlasts its plan cycles through it again).
BLOCK_SECONDS = {"scan": 1.8, "oracle": 0.4, "pair": 2.0}

WORKLOADS = ("scan", "oracle", "pair")


def draw_point(rng: np.random.Generator, profile: str) -> dict:
    """One flat parameter point (the CLI's --params format)."""
    lam = math.sqrt(10.0 ** rng.uniform(0.0, 2.0) * KAPPA * GAMMA)
    xi = rng.uniform(0.05, math.pi / 2 - 0.05)
    return {
        "lambda_L": lam * math.sin(xi),
        "lambda_R": lam * math.cos(xi),
        "theta_L": rng.uniform(-math.pi, math.pi),
        "theta_R": rng.uniform(-math.pi, math.pi),
        "kappa": KAPPA,
        "gamma": GAMMA,
        "k_c": rng.uniform(-2.0, 2.0),
        "delta_e": rng.uniform(-10.0, 10.0),
        "profile": profile,
        "delta_p": rng.uniform(-2.0, 2.0),
        "kappa_p": KAPPA * 10.0 ** rng.uniform(-2.0, math.log10(0.3)),
        "x_0": rng.uniform(0.0, 5.0),
    }


def _draw_eta(rng: np.random.Generator) -> float:
    return float(1.0 - 0.75 * rng.random())  # in (0.25, 1]


def _draw_axis(rng: np.random.Generator, field: str, count: int) -> str:
    scale, lo, hi = SWEEP_FIELDS[field]
    if scale == "log":
        lo, hi = math.log(lo), math.log(hi)
    a = lo + (hi - lo) * rng.uniform(0.0, 0.4)
    b = a + (hi - a) * rng.uniform(0.5, 1.0)
    if scale == "log":
        a, b = math.exp(a), math.exp(b)
    return f"{field},{scale},{a!r},{b!r},{count}"


def _scan_op(rng: np.random.Generator, shape: tuple) -> dict:
    if shape[0] == "fig":
        family = shape[1]
        return {"kind": family, "argv": [family], "points": FIG_ROWS[family]}
    _, profile, counts = shape
    fields = rng.choice(sorted(SWEEP_FIELDS), size=len(counts), replace=False)
    argv = ["sweep", "--eta", repr(_draw_eta(rng))]
    for field, count in zip(fields, counts):
        argv += ["--axis", _draw_axis(rng, str(field), count)]
    return {"kind": "sweep", "argv": argv, "point": draw_point(rng, profile),
            "points": math.prod(counts)}


def _oracle_op(rng: np.random.Generator, shape: tuple) -> dict:
    profile, readout = shape
    argv = ["oracle", "--eta", repr(_draw_eta(rng)),
            "--c-l", repr(float(rng.random())),
            "--phase", repr(float(rng.uniform(0.0, 2.0 * math.pi))),
            "--readout", readout]
    return {"kind": "oracle", "argv": argv, "point": draw_point(rng, profile),
            "points": 1}


def _pair_op(rng: np.random.Generator, shape: tuple) -> dict:
    profile, nodes, mode = shape
    c = rng.normal(size=4)
    norm = math.sqrt(float(np.sum(c * c)))
    return {"kind": "pair", "point": draw_point(rng, profile),
            "n_gauss": nodes if profile == "gaussian" else 64,
            "n_lorentz": nodes if profile == "lorentzian" else 1040,
            "pair": [float(x) / norm for x in c],  # re/im of c_LR, c_RL
            "eta": [_draw_eta(rng), _draw_eta(rng)], "mode": mode,
            "points": 1}


_SHAPES = {"scan": SCAN_SHAPES, "oracle": ORACLE_SHAPES, "pair": PAIR_SHAPES}
_MAKERS = {"scan": _scan_op, "oracle": _oracle_op, "pair": _pair_op}


def make_plan(workload: str, seed: int, blocks: int) -> list[list[dict]]:
    """`blocks` blocks of seeded operations; block 0 starts with shape 0."""
    shapes, make = _SHAPES[workload], _MAKERS[workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    plan = []
    for b in range(blocks):
        order = list(rng.permutation(len(shapes)))
        if b == 0:
            order.remove(0)
            order.insert(0, 0)
        plan.append([make(rng, shapes[i]) for i in order])
    return plan


def plan_blocks(workload: str, seconds: float) -> int:
    """Blocks to draw for a run of `seconds`: four times the expected need."""
    return max(4, math.ceil(4.0 * seconds / BLOCK_SECONDS[workload]))


def node_counts(workload: str) -> dict | None:
    """Quadrature node counts per profile of a workload that sets its own;
    None for workloads that run at the program's defaults."""
    if workload != "pair":
        return None
    return {profile: sorted({n for p, n, _ in PAIR_SHAPES if p == profile})
            for profile in ("gaussian", "lorentzian")}
