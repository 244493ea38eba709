"""Workload process: runs a plan's operations against cavqmem and times them.

    python3 bench/worker.py --workload W --plan PLAN.json --work DIR
                            --seconds S [--trace SPANS.txt] [--probe]

With --probe it imports cavqmem, runs the plan's first operation, prints
"done" and exits; the parent times that as set-up.  Otherwise it runs one
untimed warm-up of the first operation, then whole blocks until S seconds
have passed, and writes its record to DIR/result.json.  After every
operation, off its clock, it times one pass of the reference kernels in
`calib.py` that gauge workload W; the parent turns the passes on either side
of an operation into the machine's speed while it ran.  With --trace each
block is replayed right after it ran, with every layer's public function
traced; the worker then writes the spans and runs the first block once more
under tracemalloc.

The worker only feeds inputs and records what comes back; the parent checks
the outputs.  It imports nothing of the program but the public `cavqmem`
package from the source tree next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import cavqmem  # noqa: E402
from cavqmem import cli, statesim  # noqa: E402

PEAK_FUNCTIONS = ("statesim.retrieve", "statesim.entanglement_storage")


class Runner:
    """Turns plan operations into calls and keeps what they return."""

    def __init__(self, work: str):
        self.work = work

    def out_path(self, index: int) -> str:
        return os.path.join(self.work, f"op{index}.out")

    def prepare(self, index: int, op: dict):
        """Everything an operation needs, built before its clock starts."""
        if op["kind"] == "pair":
            params, pulse = cavqmem.point_from_dict(op["point"])
            c = op["pair"]
            pair = cavqmem.PhotonPair(complex(c[0], c[1]), complex(c[2], c[3]))
            quad = cavqmem.QuadratureConfig(n_gauss=op["n_gauss"],
                                            n_lorentz=op["n_lorentz"])
            return (pair, params, params, pulse, pulse, quad,
                    op["eta"][0], op["eta"][1], op["mode"])
        argv = list(op["argv"]) + ["--out", self.out_path(index)]
        if "point" in op:
            path = os.path.join(self.work, f"op{index}.params.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(op["point"], handle)
            argv += ["--params", path]
        return argv

    @staticmethod
    def call(op: dict, prepared):
        """Run one operation; return its in-memory output (pair) or None."""
        if op["kind"] == "pair":
            out = statesim.entanglement_storage(*prepared)
            return {"probability": out.probability, "fidelity": out.fidelity,
                    "mode": out.mode}
        code = cli.main(prepared)
        if code != 0:
            raise RuntimeError(f"cli.main exited with status {code}")
        return None


def run_ops(runner: Runner, ops: list[tuple[int, dict]], tracer=None,
            gauge=None) -> list:
    """Time each operation; returns [latency_s, error or None, output,
    reference-kernel seconds].  Inputs are prepared first, so a tracer
    installed only around the calls records nothing of the preparation.
    `gauge` (calib.sample) runs after each operation, off its clock."""
    prepared = [runner.prepare(index, op) for index, op in ops]
    records = []
    clock = time.perf_counter
    if tracer is not None:
        tracer.install()
    try:
        for (index, op), args in zip(ops, prepared):
            if tracer is not None:
                tracer.op = index
            error = output = None
            t0 = clock()
            try:
                output = runner.call(op, args)
            except Exception as exc:  # a failed operation is a result
                error = f"{type(exc).__name__}: {exc}"
            elapsed = clock() - t0
            records.append([elapsed, error, output,
                            gauge() if gauge is not None else None])
    finally:
        if tracer is not None:
            tracer.uninstall()
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", default=None, metavar="SPANS")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    with open(args.plan, encoding="utf-8") as handle:
        plan = json.load(handle)
    runner = Runner(args.work)
    first = [(0, plan[0][0])]
    if args.probe:
        (_, error, _, _), = run_ops(runner, first)
        print("done" if error is None else f"failed {error}", flush=True)
        return 0 if error is None else 1

    import calib

    def gauge() -> float:
        return calib.sample(args.workload)

    # Warm-up: lazy tables, first-call costs and the reference kernels;
    # its kernel pass is the one before the first timed operation.
    (_, _, _, warm_pass), = run_ops(runner, first, gauge=gauge)
    tracer = None
    if args.trace:
        from spans import Tracer, peak_pass

        tracer = Tracer()
    clock = time.perf_counter
    ops, records, traced = [], [], []
    start = clock()
    block = 0
    # Whole blocks only, cycling through the plan if the run outlasts it.
    # A traced run replays each block traced right after running it
    # untraced, so a slow spell of the machine hits both passes alike.
    while block == 0 or clock() - start < args.seconds:
        chunk = [(block * len(plan[0]) + i, op)
                 for i, op in enumerate(plan[block % len(plan)])]
        records += run_ops(runner, chunk, gauge=gauge)
        if tracer is not None:
            traced += run_ops(runner, chunk, tracer, gauge=gauge)
        ops += chunk
        block += 1
    result = {
        "blocks": block,
        "wall_s": clock() - start,
        "latency_s": [r[0] for r in records],
        "errors": [r[1] for r in records],
        "outputs": [r[2] for r in records],
        "calib_s": [warm_pass] + [r[3] for r in records],
        "indices": [i for i, _ in ops],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "package": os.path.dirname(os.path.abspath(cavqmem.__file__)),
    }
    if tracer is not None:
        tracer.write(args.trace)
        result["traced_latency_s"] = [r[0] for r in traced]
        result["traced_errors"] = [r[1] for r in traced]
        result["summary"] = tracer.summary()
        first_block = [(i, op) for i, op in enumerate(plan[0])]
        result["peak_bytes"] = peak_pass(
            lambda: run_ops(runner, first_block), PEAK_FUNCTIONS)
    with open(os.path.join(args.work, "result.json"), "w",
              encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
