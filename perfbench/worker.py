"""Child process of the benchmark: imports clusterforge, then runs one workload's ops.

Usage: ``worker.py probe`` only sets up and exits; ``worker.py JOB_JSON`` runs
the job.  Either way the child prints ``ready`` as soon as ``clusterforge`` is
imported, which the parent takes as the end of set-up.  A job's result is the
last stdout line, as JSON.

Each op is one in-process ``clusterforge.cli.main(argv)`` call with stdout and
stderr captured, run under a per-op time budget.  The op's correctness check
runs after its timing stops.

Between ops the child times ``reference_work``, a fixed piece of CPU work that
does not touch ``clusterforge``, about every ``REFERENCE_EVERY_S`` seconds.
An op's ``slowdown``, how much slower than the reference machine the host ran
around it, is the median of the ``REFERENCE_WINDOW`` samples nearest the op
(half before it, half after) over ``REFERENCE_S``.  A window this short follows
a shared host's speed, which changes within seconds.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import math
import resource
import signal
import statistics
import sys
import time

import clusterforge.cli as cli
import numpy as np
from clusterforge.protocol import RetryLimitError

import workloads
from tracing import Tracer

# a run starts no op after this, whatever its op count
RUN_LIMIT_S = 120.0
# reference_work's median seconds on the reference machine (2-vCPU Xeon VM)
REFERENCE_S = 0.0100
REFERENCE_EVERY_S = 0.25
REFERENCE_WINDOW = 6

_REF_GATE = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_REF_STATE = np.full((2,) * 13, 2 ** -6.5, dtype=complex)


def reference_work() -> float:
    """Seconds taken by fixed interpreter and NumPy work, the two kinds an op does."""
    t0 = time.perf_counter()
    table = {}
    for i in range(20000):
        table[i & 1023] = table.get(i & 1023, 0) + i * i % 7
    state = _REF_STATE
    for _ in range(6):
        for axis in range(13):
            state = np.moveaxis(np.tensordot(_REF_GATE, state, axes=([1], [axis])), 0, axis)
    return time.perf_counter() - t0


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so that no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_op(argv: list) -> tuple[str, str, str]:
    """Run one CLI op; returns (stdout, failure kind or "", detail).

    Kinds: ``wrong_output`` when the program reports a wrong result (exit 1
    from its own verification, or an ``AssertionError`` from an invariant
    check); ``attempt_cap``, ``timeout`` and ``crash`` (any other exception or
    exit code) when it gives no result.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        signal.setitimer(signal.ITIMER_REAL, workloads.OP_BUDGET_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return out.getvalue(), "timeout", f"exceeded the {workloads.OP_BUDGET_S:g} s op budget"
    except RetryLimitError as exc:
        return out.getvalue(), "attempt_cap", f"RetryLimitError: {exc}"
    except AssertionError as exc:
        return out.getvalue(), "wrong_output", f"AssertionError: {exc}"
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an op boundary: every failure is recorded, none retried
        return out.getvalue(), "crash", f"{type(exc).__name__}: {exc}"
    if code != 0:
        kind = "wrong_output" if code == 1 else "crash"
        return out.getvalue(), kind, f"exit {code}: {err.getvalue().strip()[-300:]}"
    return out.getvalue(), "", ""


def slowdowns(reference: list, ops: int) -> list:
    """Each op's slowdown from the reference samples nearest it."""
    next_op = [i for i, _ in reference]
    seconds = [s for _, s in reference]
    half = REFERENCE_WINDOW // 2
    out = []
    for op in range(ops):
        before = bisect.bisect_right(next_op, op)  # samples taken before the op
        window = seconds[max(0, before - half):before + half]
        out.append(statistics.median(window) / REFERENCE_S)
    return out


def run_job(job: dict) -> dict:
    name = job["workload"]
    count = job["ops"]
    tracer = Tracer() if job.get("trace") else None
    if tracer:
        tracer.install()

    latencies, failures = [], []
    first = None
    # (index of the next op, seconds); the first samples also warm the reference up
    reference = [(0, reference_work()) for _ in range(REFERENCE_WINDOW)]
    last_reference = start = time.perf_counter()
    argvs = workloads.op_argvs(name, job["seed"])
    for i, argv in enumerate(argvs):
        if i == count or time.perf_counter() - start >= RUN_LIMIT_S:
            break
        if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
            reference.append((i, reference_work()))
            last_reference = time.perf_counter()
        if tracer:
            tracer.op = i
        t0 = time.perf_counter()
        stdout, kind, detail = run_op(argv)
        latencies.append(time.perf_counter() - t0)
        if not kind:
            try:
                workloads.check_output(name, argv, stdout)
            except (workloads.WrongOutput, ValueError, KeyError) as exc:
                kind, detail = "wrong_output", str(exc)
        if kind:
            failures.append({"op": i, "argv": argv, "kind": kind, "detail": detail})
        if tracer:
            tracer.counts["cli.stdout_bytes"] += len(stdout.encode())
            if kind == "attempt_cap":
                tracer.counts["growth.retry_limit_errors"] += 1
        if i == 0:
            first = (argv, stdout, kind)

    reference.extend((len(latencies), reference_work()) for _ in range(REFERENCE_WINDOW // 2))
    result = {"latencies_s": latencies, "failures": failures, "reference_s": reference,
              "slowdowns": slowdowns(reference, len(latencies))}
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        result["spans"] = len(tracer.spans)
        tracer.write_spans(job["spans_path"])

    # determinism: the first op, re-run in the same process, prints the same bytes
    if first is not None:
        argv, stdout, kind = first
        again, again_kind, _ = run_op(argv)
        if (again, again_kind) != (stdout, kind) and not any(f["op"] == 0 for f in failures):
            failures.insert(0, {"op": 0, "argv": argv, "kind": "wrong_output",
                                "detail": "re-run printed different stdout"})

    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["python"] = sys.version.split()[0]
    result["numpy"] = np.__version__
    result["clusterforge"] = cli.__file__
    return result


if __name__ == "__main__":
    print("ready", flush=True)
    if sys.argv[1] != "probe":
        signal.signal(signal.SIGALRM, _on_alarm)
        print(json.dumps(run_job(json.loads(sys.argv[1]))), flush=True)
