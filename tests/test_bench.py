"""The benchmark's contract with the package: every operation of each
workload's first block runs through the benchmark's own worker and passes
its output checks, and a corrupted output fails them.  A change that
removes a name the benchmark uses (a function, an argument, a parameter
field) fails here.  The test only reads `bench/`."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import worker  # noqa: E402  (first: it puts the source tree on the path)
import checks  # noqa: E402
import plan  # noqa: E402


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_benchmark_operations_run_and_pass_their_checks(workload, tmp_path):
    ops = list(enumerate(plan.make_plan(workload, seed=1, blocks=1)[0]))
    runner = worker.Runner(str(tmp_path))
    records = worker.run_ops(runner, ops)
    rng = np.random.default_rng(0)
    for (index, op), (_, error, output, _) in zip(ops, records):
        assert error is None, error
        if op["kind"] != "pair":
            output = Path(runner.out_path(index)).read_text(encoding="utf-8")
        assert checks.check_op(op, output, rng, oracle=True) is None
        if op.get("mode") == "swap":
            continue  # the swap check bounds the fidelity, 1e-3 stays inside
        reason = checks.check_op(op, checks.corrupt(op, output), rng,
                                 oracle=True)
        assert reason is not None, f"corrupted {op['kind']} output passed"
