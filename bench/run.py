"""cavqmem benchmark: one closed-loop client per workload, outputs checked.

    python3 bench/run.py --workload {scan,oracle,pair} --seed N \
                         --seconds S --trace {0,1}
    python3 bench/run.py --smoke

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/` tree and nowhere else.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}: with --trace 0
the end-to-end metrics, timings at reference speed (see calib.py), with
--trace 1 the per-layer metrics of a traced replay.  The line before it
records provenance and the details behind the metrics (the end-to-end
metrics as measured, tail percentile and sample count, error rate, tracing
overhead).
Spans of a traced run are written to bench/out/spans-<workload>.txt.
--smoke runs every workload briefly, asserts that every metric named in
BENCHMARK.json is emitted, and asserts that a corrupted output fails its
check.  See README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads here or in any child process, so
# the timings measure the program rather than thread scheduling.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 7

#: Requests of a `scan` run whose CSV gets a row re-evaluated by the state
#: oracle (every CSV gets the structural checks).
SCAN_ORACLE_SAMPLES = 48

#: Candidate tail percentiles, highest first; the first one with at least
#: ten samples beyond it is reported as op_tail_ms.  Every rung from 70 up
#: falls inside the costliest 30% of a `scan` or `pair` block, so a run a
#: few operations short of the next rung reports nearly the same latency.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)

#: Every run must end within this many seconds of starting.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


@dataclass
class Run:
    result: dict
    details: dict
    ops: list
    outputs: list


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks, p in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    for p in TAIL_LADDER:
        if n * (100.0 - p) >= 1000.0 - 1e-9:
            return p
    return TAIL_LADDER[-1]


def provenance(workload: str, seed: int) -> dict:
    import cavqmem
    import numpy as np
    import plan

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cavqmem": cavqmem.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
        "quad_nodes": plan.node_counts(workload) or {
            "gaussian": [cavqmem.DEFAULT_QUAD.n_gauss],
            "lorentzian": [cavqmem.DEFAULT_QUAD.n_lorentz]},
    }


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    return left


def _timed(cmd: list[str], what: str, deadline: float
           ) -> tuple[float, str, str, int]:
    """Run cmd; (seconds until its first line of output or its exit, that
    line, its standard error, its exit status)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    try:
        _, err = proc.communicate(timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{what} timed out") from None
    return elapsed, line, err, proc.returncode


def probe_setup(workload: str, plan_path: str, work: str,
                deadline: float) -> float:
    """Seconds from starting a fresh interpreter to the end of the first
    operation: interpreter, numpy and cavqmem import, lazy tables, first op."""
    elapsed, line, err, code = _timed(
        [sys.executable, WORKER, "--probe", "--workload", workload, "--plan",
         plan_path, "--work", work], "set-up probe", deadline)
    if line.strip() != "done" or code != 0:
        raise BenchError(f"set-up probe failed: {line.strip()} {err[-2000:]}")
    return elapsed


def gauge_start(deadline: float) -> float:
    """Seconds a fresh interpreter takes to import numpy and exit."""
    import calib

    elapsed, _, err, code = _timed([sys.executable, *calib.START_COMMAND],
                                   "set-up gauge", deadline)
    if code != 0:
        raise BenchError(f"set-up gauge failed: {err[-2000:]}")
    return elapsed


def time_setup(workload: str, plan_path: str, work: str, deadline: float
               ) -> tuple[list[float], list[float]]:
    """SETUP_PROBES set-up probes, each between two runs of the set-up
    gauge: (probe seconds, gauge seconds, one more than probes)."""
    gauges = [gauge_start(deadline)]
    probes = []
    for _ in range(SETUP_PROBES):
        probes.append(probe_setup(workload, plan_path, work, deadline))
        gauges.append(gauge_start(deadline))
    return probes, gauges


def run_worker(workload: str, plan_path: str, work: str, seconds: float,
               spans: str | None, deadline: float) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--plan",
           plan_path, "--work", work, "--seconds", repr(seconds)]
    if spans:
        cmd += ["--trace", spans]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process failed:\n{proc.stderr[-4000:]}")
    with open(os.path.join(work, "result.json"), encoding="utf-8") as handle:
        record = json.load(handle)
    if record["package"] != os.path.join(SRC, "cavqmem"):
        raise BenchError(f"imported cavqmem from {record['package']}")
    return record


def end_to_end(workload: str, record: dict, ops: list[dict],
               setup: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    """(metrics at reference speed, the same metrics as measured); see
    calib.py for how a time is brought to reference speed."""
    import calib

    lat = record["latency_s"]
    per = len(lat) // record["blocks"]
    p_tail = tail_percentile(len(lat))

    def summarize(lat: list[float], setup: list[float]) -> dict:
        rates = [sum(op["points"] for op in ops[i:i + per]) / sum(lat[i:i + per])
                 for i in range(0, len(lat), per)]
        return {
            "setup_s": statistics.median(setup),
            "points_per_s": statistics.median(rates),
            "op_p50_ms": percentile(lat, 50.0) * 1e3,
            "op_tail_ms": percentile(lat, p_tail) * 1e3,
            "peak_rss_mb": record["maxrss_kb"] / 1024.0,
        }

    probes, gauges = setup
    metrics = summarize(
        calib.at_reference(lat, record["calib_s"], calib.reference(workload)),
        calib.at_reference(probes, gauges, calib.START_REFERENCE_S))
    measured = summarize(lat, probes)
    measured["gauge_pass_ms"] = statistics.median(record["calib_s"]) * 1e3
    measured["setup_gauge_s"] = statistics.median(gauges)
    return metrics, measured


def per_layer(record: dict, points: int) -> dict:
    n = len(record["traced_latency_s"])
    summary = record["summary"]
    by_name = summary["by_name"]

    def field(name: str, key: str) -> float:
        return by_name.get(name, {}).get(key, 0)

    def self_ms(prefix: str) -> float:
        total = sum(rec["self_s"] for name, rec in by_name.items()
                    if name == prefix or name.startswith(prefix + "."))
        return total * 1e3 / n

    out = {
        "metrics.grid_builds_per_point": summary["metrics_grid_builds"] / points,
        "metrics.k_evals_per_point": summary["metrics_k_evals"] / points,
        "spectral.build_grid.calls": field("spectral.build_grid", "calls") / n,
        "scattering.t_elements.calls": field("scattering.t_elements", "calls") / n,
        "scattering.k_evals": summary["scattering_k_evals"] / n,
        "params.validate.calls_per_point": field("params.validate", "calls") / points,
        "cli.write_csv.bytes": field("cli.write_csv", "work") / n,
        "statesim.retrieve.peak_mb": record["peak_bytes"]["statesim.retrieve"] / 2**20,
        "statesim.entanglement_storage.peak_mb":
            record["peak_bytes"]["statesim.entanglement_storage"] / 2**20,
        "trace.overhead_ms": (sum(record["traced_latency_s"])
                              - sum(record["latency_s"])) * 1e3 / n,
    }
    for name in ("params", "spectral", "scattering", "metrics", "statesim",
                 "cli", "spectral.build_grid", "statesim.retrieve",
                 "statesim.run_memory_protocol", "statesim.scatter_pair",
                 "statesim.entanglement_storage", "cli.main",
                 "cli.sweep_rows", "cli.write_csv"):
        out[f"{name}.self_ms"] = self_ms(name)
    return out


def _units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _op_at(blocks: list, index: int) -> dict:
    per = len(blocks[0])
    return blocks[(index // per) % len(blocks)][index % per]


def run(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    import numpy as np

    import checks
    import plan

    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        blocks = plan.make_plan(workload, seed, plan.plan_blocks(workload, seconds))
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as handle:
            json.dump(blocks, handle)
        setup = None if trace else time_setup(workload, plan_path, work,
                                                  deadline)
        spans = os.path.join(OUT, f"spans-{workload}.txt") if trace else None
        record = run_worker(workload, plan_path, work, seconds, spans,
                            deadline)
        ops = [_op_at(blocks, i) for i in record["indices"]]
        outputs = []
        for index, op, output in zip(record["indices"], ops, record["outputs"]):
            if op["kind"] != "pair":
                path = os.path.join(work, f"op{index}.out")
                output = None
                if os.path.exists(path):
                    with open(path, encoding="utf-8") as handle:
                        output = handle.read()
            outputs.append(output)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rng = np.random.default_rng([seed, 99])
    errors = list(record["errors"])
    if trace:
        errors = [e or (f"traced: {t}" if t else None)
                  for e, t in zip(errors, record["traced_errors"])]
    sampled = set(rng.permutation(len(ops))[:SCAN_ORACLE_SAMPLES].tolist())
    failures = []
    for i, (op, output, error) in enumerate(zip(ops, outputs, errors)):
        if error is None and output is None:
            error = "no output"
        if error is None:
            error = checks.check_op(op, output, rng, oracle=i in sampled)
        if error is not None:
            failures.append(f"op {record['indices'][i]} ({op['kind']}): {error}")
    points = sum(op["points"] for op in ops)
    if trace:
        metrics = per_layer(record, points)
    else:
        metrics, measured = end_to_end(workload, record, ops, setup)
    units = _units()
    n = len(ops)
    result = {
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    details = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "provenance": provenance(workload, seed),
        "samples": n, "blocks": record["blocks"], "wall_s": record["wall_s"],
        "points": points, "error_rate": len(failures) / n,
        "failures": failures[:5],
    }
    if trace:
        untraced = sum(record["latency_s"])
        details["trace_overhead_pct"] = (
            100.0 * (sum(record["traced_latency_s"]) - untraced) / untraced)
        details["spans"] = record["summary"]["spans"]
        details["spans_file"] = os.path.relpath(spans, ROOT)
    else:
        details["setup_probes_s"] = setup[0]
        details["measured"] = measured
        details["op_tail_percentile"] = tail_percentile(n)
        details["op_tail_samples_beyond"] = n * (1 - details["op_tail_percentile"] / 100)
    return Run(result=result, details=details, ops=ops, outputs=outputs)


def smoke() -> int:
    """Every workload briefly, both modes: all named metrics present and
    finite, outputs correct, and a corrupted output caught by its check."""
    import numpy as np

    import checks
    import plan

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(plan.WORKLOADS)
    for workload in plan.WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            got = run(workload, seed=1, seconds=0.5, trace=trace)
            want = {m["name"]: m["unit"] for m in spec[group]}
            metrics = got.result["metrics"]
            assert set(metrics) == set(want), (workload, set(metrics) ^ set(want))
            for name, entry in metrics.items():
                assert entry["unit"] == want[name], name
                assert math.isfinite(entry["value"]), (name, entry)
            assert got.result["correct"] and got.result["failed"] == 0, got.details
            print(f"smoke {workload} trace={int(trace)}: "
                  f"{len(metrics)} metrics, {got.result['attempted']} ops ok")
        rng = np.random.default_rng(0)
        op, output = next((op, out) for op, out in zip(got.ops, got.outputs)
                          if op.get("mode", "postselect") == "postselect")
        assert checks.check_op(op, output, rng, oracle=True) is None
        reason = checks.check_op(op, checks.corrupt(op, output), rng,
                                 oracle=True)
        assert reason is not None, f"{workload}: corrupted output passed"
        print(f"smoke {workload}: corrupted {op['kind']} output caught ({reason})")
    print("smoke ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("scan", "oracle", "pair"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cavqmem", "__init__.py")):
        print(f"error: no cavqmem source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        got = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(got.details))
    print(json.dumps(got.result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
