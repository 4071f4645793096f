"""Smoke test of the benchmark: a few ops per workload emit every metric with its unit.

Run with ``python3 -m pytest perfbench/test_smoke.py``.
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_spec_lists_every_workload_and_metric():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


def test_movers_name_known_metrics_and_workloads():
    movers = json.loads((BENCH_DIR / "movers.json").read_text())
    layer = {m["name"] for m in SPEC["per_layer"]}
    for entry in movers["layers"]:
        assert set(entry["layer_metrics"]) <= layer
        named = [*entry["moves"], *entry["no_change"], *entry["negligible"]]
        assert set(named) <= set(run.WORKLOADS) and len(named) == len(set(named))
        assert all(set(ms) <= set(run.END_TO_END_UNITS) for ms in entry["moves"].values())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_seed_fixes_the_ops(workload):
    count = workloads.op_count(workload, 30, run.MIN_OPS)
    assert count >= run.MIN_OPS and count % run.WORKLOADS[workload].block == 0
    ops = list(itertools.islice(workloads.op_argvs(workload, 5), count))
    assert ops == list(itertools.islice(workloads.op_argvs(workload, 5), count))
    assert ops != list(itertools.islice(workloads.op_argvs(workload, 6), count))


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_emits_every_metric(workload):
    result, failures = run.measure(workload, seed=7, seconds=0, trace=False, ops=3)
    assert (result["correct"], result["attempted"], failures) == (True, 3, [])
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced, failures = run.measure(workload, seed=7, seconds=0, trace=True, ops=2)
    assert (traced["correct"], traced["attempted"], failures) == (True, 4, [])
    assert _units(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    calls = {k: m["value"] for k, m in traced["metrics"].items() if k.endswith(".calls")}
    assert calls["cli.main.calls"] == 2
    statevector_calls = sum(v for k, v in calls.items() if k.startswith("statevector."))
    # growth runs on abstract graphs; only the pipeline and retry touch amplitudes
    assert (statevector_calls > 0) == (workload in ("pipeline13", "retry"))
