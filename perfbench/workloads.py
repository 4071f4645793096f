"""Benchmark workloads: the CLI argument lists each op runs and the checks on its output.

Every op is one ``clusterforge`` command with ``--trials 1``.  Op inputs come
only from the workload seed (grow2d's N = 5 ops use fixed seeds, see there),
and a run's op count only from the workload and ``--seconds`` (``op_count``),
so the same seed replays the same ops, including any op that fails.  A check
raises ``WrongOutput`` when a completed op printed a wrong result.
"""

from __future__ import annotations

import csv
import io
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

# 2D growth at N >= 6 does not finish; the budget turns such a hang into a
# failed op.  The slowest op here (N = 5) takes about 3 s.
OP_BUDGET_S = 20.0
FIDELITY_FLOOR = 1.0 - 1e-9
P0_TOLERANCE = 1e-12
RETRY_N = 5
RETRY_MAX_FAILURES = 10


class WrongOutput(Exception):
    """A completed op printed a result that fails its workload's check."""


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[random.Random], Iterator[list]]  # op rng -> endless CLI argvs
    check: Callable[[list, list], None]  # (argv, parsed CSV rows) -> None or raise
    block: int  # an untraced run's op count is a whole number of blocks
    rate: float  # ops per second on the reference machine, which sizes an untraced run
    trace_ops: int  # op count of a traced run; fixed so per-layer counts repeat


def _rows(stdout: str) -> list:
    return list(csv.DictReader(io.StringIO(stdout)))


def _arg(argv: list, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _one_row(rows: list) -> dict:
    if len(rows) != 1:
        raise WrongOutput(f"expected one CSV row, got {len(rows)}")
    return rows[0]


def _seed(rng: random.Random) -> list:
    return ["--trials", "1", "--seed", str(rng.getrandbits(31))]


def _pipeline13_ops(rng):
    while True:
        yield ["pipeline13", "--theta", "1.0", *_seed(rng)]


def _pipeline13_check(argv, rows):
    fidelity = float(_one_row(rows)["fidelity"])
    if not fidelity >= FIDELITY_FLOOR:
        raise WrongOutput(f"fidelity {fidelity!r} below {FIDELITY_FLOOR!r}")


def _grow1d_ops(rng):
    while True:
        yield ["grow", "--mode", "1d", "--target-length", "200", "--theta", "0.3", *_seed(rng)]


def _grow1d_check(argv, rows):
    row = _one_row(rows)
    if int(row["target_length"]) != 200 or not float(row["protocols_per_length_raw"]) > 0.0:
        raise WrongOutput(f"implausible 1D growth row {row!r}")


# One op in twenty builds a 5 x 5 lattice: finalization there is exponential
# and the 500k attempt cap is sometimes hit, while the N = 4 ops exercise row
# truncation, spare leaves and restarts.  Keeping the N = 5 ops to a fixed
# twentieth keeps p90 inside the N = 4 ops; the cliff shows in ops_per_s.
# The k-th N = 5 op of every run uses CLI seed k: an N = 5 op takes 0.7 s when
# it hits the cap and about 2.6 s otherwise, and with a handful per run,
# seed-drawn N = 5 ops gave an ops_per_s spread (IQR / median) of 0.36 over
# five seeds, against 0.17 with these fixed ones.  Seeds 0 and 2 hit the cap,
# so every run shows it.  Even so, op_p50_ms ranged from 54 to 96 ms over
# eight seeds in 20 s runs, as N = 4 op times spread widely, so grow2d is left
# out of the workloads BENCHMARK.json gates on; run it with --workload grow2d
# or all.
GROW2D_BLOCK = 20


def _grow2d_ops(rng):
    for block in itertools.count():
        for _ in range(GROW2D_BLOCK - 1):
            yield ["grow", "--mode", "2d", "--size", "4", "--theta", "0.3", *_seed(rng)]
        seed = ["--trials", "1", "--seed", str(block)]
        yield ["grow", "--mode", "2d", "--size", "5", "--theta", "0.3", *seed]


def _grow2d_check(argv, rows):
    completed = int(_one_row(rows)["grids_completed"])
    if completed != 1:
        raise WrongOutput(f"grids_completed {completed} != 1")


# An op's time depends on theta, unevenly (from about 250 to 420 ms), so theta
# is drawn by stratified sampling: each block of RETRY_STRATA ops takes one
# theta, uniform within its slice, from each of RETRY_STRATA equal slices of
# the range, in random order.  Every theta is still uniform over the range,
# but each run covers the range evenly and its op mix varies less with the seed.
RETRY_THETA = (0.2, 2.5)
RETRY_STRATA = 50


def _retry_ops(rng):
    low, high = RETRY_THETA
    width = (high - low) / RETRY_STRATA
    while True:
        strata = list(range(RETRY_STRATA))
        rng.shuffle(strata)
        for k in strata:
            theta = low + (k + rng.random()) * width
            yield [
                "retry", "--n", str(RETRY_N), "--max-failures", str(RETRY_MAX_FAILURES),
                "--theta", repr(theta), *_seed(rng),
            ]


def _retry_check(argv, rows):
    from clusterforge.protocol import success_probability_closed

    if len(rows) != RETRY_MAX_FAILURES + 1:
        raise WrongOutput(f"expected {RETRY_MAX_FAILURES + 1} rows, got {len(rows)}")
    p0 = float(rows[0]["probability"])
    closed = success_probability_closed(RETRY_N, float(_arg(argv, "--theta")))
    if not abs(p0 - closed) <= P0_TOLERANCE:
        raise WrongOutput(f"P0 {p0!r} differs from the closed form {closed!r}")
    top = max(float(r["cumulative"]) for r in rows)
    if top > 1.0:
        raise WrongOutput(f"cumulative probability {top!r} above 1")


# why each gated workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipeline13", _pipeline13_ops, _pipeline13_check, block=1, rate=23.0,
                 trace_ops=100),
        Workload("grow1d", _grow1d_ops, _grow1d_check, block=1, rate=5.8, trace_ops=40),
        # two blocks, so the traced N = 5 ops include one that reaches finalization
        Workload("grow2d", _grow2d_ops, _grow2d_check, block=GROW2D_BLOCK, rate=6.0,
                 trace_ops=40),
        Workload("retry", _retry_ops, _retry_check, block=RETRY_STRATA, rate=3.2,
                 trace_ops=12),
    )
}


def op_count(name: str, seconds: float, min_ops: int) -> int:
    """Ops in an untraced run: about ``seconds`` of them on the reference machine.

    The count is fixed rather than cut off by the clock, so two runs with one
    seed attempt the same ops and the same ones fail, whatever the host's speed.
    """
    workload = WORKLOADS[name]
    count = max(min_ops, round(seconds * workload.rate))
    return -(-count // workload.block) * workload.block


def op_argvs(name: str, seed: int) -> Iterator[list]:
    """Endless, seed-determined sequence of CLI argument lists for one workload."""
    return WORKLOADS[name].ops(random.Random(f"{name}:{seed}"))


def check_output(name: str, argv: list, stdout: str) -> None:
    WORKLOADS[name].check(argv, _rows(stdout))
