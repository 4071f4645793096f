"""clusterforge benchmark: time CLI ops in a fresh child process per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload, untraced

An op is one in-process ``clusterforge.cli.main(argv)`` call; workloads, their
seed-derived op inputs and the per-op output checks are in ``workloads.py``.

An untraced run (``--trace 0``) runs ops one after another (a closed loop with
one client).  Its op count is fixed by the workload and ``--seconds``: about
``--seconds`` of ops on the reference machine, and at least ``MIN_OPS``
(``workloads.op_count``), so a seed always replays the same ops.  It reports:

* ``setup_s``: median over ``SETUP_SAMPLES`` child starts of the time until
  ``clusterforge`` is imported and the child is ready for its first op;
* ``ops_per_s``: completed ops divided by the summed time of all timed ops;
* ``op_p50_ms``, ``op_p90_ms``: op latency percentiles, a failed op counting at
  the op time budget;
* ``peak_rss_mb``: the child's ``ru_maxrss``;
* ``ok_ratio``: completed ops divided by attempted ops (1 - failure ratio).

The op times behind ``ops_per_s``, ``op_p50_ms`` and ``op_p90_ms`` are each
divided by the op's ``slowdown`` (see ``worker.py``): fixed reference work
timed between the ops tells how much slower than the reference machine the
shared host ran around the op.  On a 2-vCPU VM that speed drifts by up to 1.5x
over minutes and swings within seconds, which would otherwise swamp changes in
the program.  The metrics are thus op times at the reference machine's speed;
the unscaled figures, op times and reference samples go to the run record.

A traced run (``--trace 1``) runs the workload's fixed op count twice, each in
a fresh child, untraced and then traced, and reports per-layer calls, self
time and counters (``tracing.py``) plus ``trace_overhead_s``, the traced minus
the untraced op time.  The last stdout line is the result as JSON; a run
record and, for traced runs, the spans go to ``perfbench/out/``.

Every failed op counts in ``failed`` and ``ok_ratio`` and is listed on
stderr and in the run record; none is retried or dropped.  ``correct`` is
false, and the exit code 1, when an op's result was wrong (see
``worker.run_op``); an op that gave no result (attempt cap, op time budget,
crash) fails without making the run incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

from tracing import COUNTERS, SPAN_NAMES  # noqa: E402
from workloads import OP_BUDGET_S, WORKLOADS, op_count  # noqa: E402

# p90 needs ten or more samples beyond it
MIN_OPS = 100
# child starts measured per run; the median is setup_s
SETUP_SAMPLES = 5
# a run that has not finished by then is killed and exits with an error
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "setup_s": "s",
}


def per_layer_units() -> dict:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    return {**units, **COUNTERS, "trace_overhead_s": "s"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def _start_child(arg: str, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns it and its set-up seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), arg],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT,
    )
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        _, err = _finish(proc, deadline)
        raise BenchError(f"worker did not start: {err.strip()[-2000:]}")
    return proc, setup


def _finish(proc: subprocess.Popen, deadline: float) -> tuple[str, str]:
    try:
        return proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"run exceeded {RUN_DEADLINE_S:g} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def run_child(job: dict, deadline: float) -> tuple[dict, float]:
    """Run one job in a fresh worker; returns its result and set-up seconds."""
    proc, setup = _start_child(json.dumps(job), deadline)
    out, err = _finish(proc, deadline)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1]), setup


def setup_seconds(first: float, deadline: float) -> float:
    """Median set-up time of ``first`` and ``SETUP_SAMPLES - 1`` more child starts."""
    times = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = _start_child("probe", deadline)
        _finish(proc, deadline)
        times.append(setup)
    return statistics.median(times)


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def latency_metrics(latencies: list, failed_ops: set) -> dict:
    """``ops_per_s``, ``op_p50_ms`` and ``op_p90_ms`` of one run's op times."""
    # a failed op counts at the op time budget, the worst latency it could have had
    ranked = sorted(OP_BUDGET_S if i in failed_ops else t for i, t in enumerate(latencies))
    return {
        "ops_per_s": (len(latencies) - len(failed_ops)) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(ranked),
        "op_p90_ms": 1e3 * statistics.quantiles(ranked, n=10, method="inclusive")[8],
    }


def measure(
    workload: str, seed: int, seconds: float, trace: bool, ops: int | None = None
) -> tuple[dict, list]:
    """One benchmark run; returns the result object and the failed ops, and writes the run record.

    ``ops`` overrides the op count; by default an untraced run takes
    ``op_count`` ops and a traced run the workload's fixed traced op count.
    """
    if not (ROOT / "src" / "clusterforge" / "__init__.py").is_file():
        raise BenchError(f"no clusterforge sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    job = {"workload": workload, "seed": seed}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": _commit(), "nproc": os.cpu_count(), "blas_threads": 1,
        "wait_time": "none: the layers are single-threaded and have no queues, "
                     "so busy time is self time",
    }
    if trace:
        job["ops"] = ops or WORKLOADS[workload].trace_ops
        plain, _ = run_child(job, deadline)
        spans_path = str(OUT_DIR / f"{tag}-spans.json")
        traced, _ = run_child({**job, "trace": True, "spans_path": spans_path}, deadline)
        metrics = dict(traced["layers"])
        metrics["trace_overhead_s"] = sum(traced["latencies_s"]) - sum(plain["latencies_s"])
        units = per_layer_units()
        failures = plain["failures"] + traced["failures"]
        attempted = len(plain["latencies_s"]) + len(traced["latencies_s"])
        record.update(spans=traced["spans"], spans_file=f"{tag}-spans.json")
        child = traced
    else:
        job["ops"] = op_count(workload, seconds, MIN_OPS) if ops is None else ops
        child, first_setup = run_child(job, deadline)
        failures = child["failures"]
        attempted = len(child["latencies_s"])
        failed_ops = {f["op"] for f in failures}
        record.update(unscaled=latency_metrics(child["latencies_s"], failed_ops),
                      median_slowdown=statistics.median(child["slowdowns"]),
                      latencies_s=child["latencies_s"], reference_s=child["reference_s"])
        scaled = [t / s for t, s in zip(child["latencies_s"], child["slowdowns"])]
        metrics = {
            **latency_metrics(scaled, failed_ops),
            "peak_rss_mb": child["peak_rss_kb"] / 1024.0,
            "ok_ratio": (attempted - len(failures)) / attempted,
            "setup_s": setup_seconds(first_setup, deadline),
        }
        units = END_TO_END_UNITS
    record.update(python=child["python"], numpy=child["numpy"], clusterforge=child["clusterforge"],
                  attempted=attempted, failures=failures)
    result = {
        "correct": not any(f["kind"] == "wrong_output" for f in failures),
        "attempted": attempted,
        "failed": len(failures),  # one entry per failed op
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record["result"] = result
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result, failures


def _report(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{workload} attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name], failures = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"benchmark error on {name}: {exc}", file=sys.stderr)
            return 2
        for f in failures:
            print(f"FAILED {name} op {f['op']} ({f['kind']}): {' '.join(f['argv'])}: {f['detail']}",
                  file=sys.stderr)
        _report(name, results[name])
    correct = all(r["correct"] for r in results.values())
    if not correct:
        print("INCORRECT: an op gave a wrong result; see the FAILED lines", file=sys.stderr)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
