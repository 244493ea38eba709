"""Reference kernels that gauge the machine's momentary speed.

The reference machine is a shared 2-vCPU VM whose speed drifts by up to
about 1.6x for seconds to minutes at a time (see README.md).  The worker
runs one pass of a workload's gauge kernels after every operation, outside
the operation's clock.  Each kernel imitates one kind of work the program
does, without calling the program, so no change to the program moves them.
A workload is gauged by the kernels of the kind of work it does (`GAUGES`).

Timings are reported at reference speed: an operation that took t seconds
between two gauge passes that took k seconds on average is reported as
t * reference / k, where reference is what one pass takes at reference
speed.  A program change moves t and leaves k alone; a slow spell of the
machine moves both alike.  Set-up is gauged the same way by a fresh
interpreter that only imports numpy (`START_COMMAND`), timed before and
after each set-up probe.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20112)
_K = np.linspace(-6.0, 6.0, 1040)
_A = _RNG.standard_normal(360) + 1j * _RNG.standard_normal(360)
_B = _RNG.standard_normal(360) + 1j * _RNG.standard_normal(360)
_M = np.empty((360, 360), dtype=complex)


def interp() -> None:
    """Interpreter-bound: small-object churn, as in argument parsing,
    dataclass validation and CSV formatting."""
    rows = []
    for i in range(600):
        x = i * 0.37
        rows.append(",".join((repr(x), str(i), repr(x * x))))
    d = {}
    for i, row in enumerate(rows):
        d[row[:6]] = d.get(row[:6], 0) + i


def small() -> None:
    """Dispatch-bound numpy: complex elementwise work on one node grid, as
    in the closed-form spectral averages."""
    for _ in range(40):
        h = 1.0 / (1.0 + 1j * (_K - 0.3)) - 0.5
        w = np.exp(-_K * _K)
        float(np.real(np.sum(w * np.abs(h) ** 2)))


def large() -> None:
    """Cache- and memory-bound numpy: n x n complex outer products and
    reductions, as in the state-vector oracle.  It writes into a buffer of
    its own, so its time does not depend on how the program left the
    allocator (fresh large allocations cost page faults)."""
    for _ in range(2):
        np.multiply(_A[:, None], _B[None, :], out=_M)
        np.multiply(_M, _B[None, :], out=_M)
        float(np.vdot(_M, _M).real)


KERNELS = {"interp": interp, "small": small, "large": large}

#: Seconds each kernel takes at reference speed (about the reference
#: machine's typical speed, 2-vCPU x86_64, Python 3.11, numpy 2.4).
REFERENCE_S = {"interp": 1.4e-3, "small": 1.5e-3, "large": 1.5e-3}

#: Gauge kernels per workload: `scan` is the closed-form path (CLI and
#: small per-grid arrays); `oracle` and `pair` are dominated by n x n state
#: arrays, with small-array closed forms and grid set-up around them.
GAUGES = {"scan": ("interp", "small"), "oracle": ("small", "large"),
          "pair": ("small", "large")}

#: The set-up gauge, run as [sys.executable, *START_COMMAND], and the seconds
#: it takes at reference speed.
START_COMMAND = ("-c", "import numpy")
START_REFERENCE_S = 0.2


def sample(workload: str) -> float:
    """Seconds one pass of the workload's gauge kernels took."""
    kernels = [KERNELS[name] for name in GAUGES[workload]]
    t0 = time.perf_counter()
    for kernel in kernels:
        kernel()
    return time.perf_counter() - t0


def reference(workload: str) -> float:
    """Seconds one pass of the workload's gauge takes at reference speed."""
    return sum(REFERENCE_S[name] for name in GAUGES[workload])


def at_reference(times: list[float], passes: list[float],
                 reference: float) -> list[float]:
    """times[i] at reference speed, gauged by passes[i] and passes[i + 1]
    (the gauge timed just before and just after it)."""
    return [t * 2.0 * reference / (passes[i] + passes[i + 1])
            for i, t in enumerate(times)]
