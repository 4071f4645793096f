"""Thirteen-qubit selective-entanglement pipeline."""

import contextlib
import time

import numpy as np
import pytest

from clusterforge import growth as gr
from clusterforge import protocol as pr
from clusterforge import statevector as sv


def run(theta, seed, **kw):
    return gr.run_thirteen_qubit_pipeline(theta, np.random.default_rng(seed), **kw)


def fusion_success_probability_reference(state, theta):
    """Slow route: re-initialize middles, re-entangle, enumerate branches."""
    probe = state.copy()
    mids = gr._FUSION_CHAIN[1:-1]
    sv.reset_qubits(probe, {q: "+" for q in mids})
    pr.entangle_chain(probe, theta)
    for q in mids:
        sv.apply_gate(probe, q, "H")
    tens = probe.tensor()
    total = 0.0
    for seq in pr.enumerate_success_sequences(3):
        idx = [slice(None)] * 13
        for q, b in zip(mids, seq):
            idx[q] = int(b)
        branch = tens[tuple(idx)]
        total += float(np.vdot(branch, branch).real)
    return total


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
def test_pipeline_fast_probability(theta, monkeypatch):
    """The restart decision's fast probability matches re-running the chain.

    The pipeline evaluates it only after a failed fusion attempt, so each
    state checked here was left behind by such a failure.
    """
    fast = gr._fusion_success_probability
    deviations = []

    def checked(state, th):
        prob = fast(state, th)
        deviations.append(abs(prob - fusion_success_probability_reference(state, th)))
        return prob

    monkeypatch.setattr(gr, "_fusion_success_probability", checked)
    for seed in range(6):
        with contextlib.suppress(gr.RetryLimitError):  # the cap keeps theta = 2.5 short
            run(theta, seed=seed, retry_cap=300)
    assert len(deviations) >= 20
    assert max(deviations) < 1e-12


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.5])
def test_pipeline_reaches_growth_unit(theta):
    start = time.monotonic()
    state, stats = run(theta, seed=20)
    assert time.monotonic() - start < 10.0

    # checkpoint before the final Hadamard: the fused trapped-Hadamard state
    checkpoint = state.copy()
    sv.apply_gate(checkpoint, 8, "H")
    reduced = sv.extract_qubits(checkpoint, [0, 4, 8, 12])
    assert (
        sv.fidelity_up_to_global_phase(reduced, gr.thirteen_qubit_target()) >= 1 - 1e-9
    )

    # final state is the four-qubit growth unit with hub 4 and leaf 8
    reduced = sv.extract_qubits(state, [0, 4, 8, 12])
    assert sv.fidelity_up_to_global_phase(reduced, gr.three_node_target()) >= 1 - 1e-9
    assert stats.final_length == 3

    # removing the leaf yields the perfect three-qubit linear cluster
    rec, state = sv.measure(state, 8, basis="z", rng=np.random.default_rng(1))
    if rec.outcome:
        sv.apply_gate(state, 4, "Z")
    final = sv.extract_qubits(state, [0, 4, 12])
    assert sv.fidelity_up_to_global_phase(final, gr.linear_cluster_target(3)) >= 1 - 1e-9


def test_weak_entanglement_still_succeeds():
    state, stats = run(2.8, seed=1, retry_cap=200_000)
    reduced = sv.extract_qubits(state, [0, 4, 8, 12])
    assert sv.fidelity_up_to_global_phase(reduced, gr.three_node_target()) >= 1 - 1e-9
    assert stats.protocol_applications > 10  # weak entanglement needs retries


def test_stats_accounting():
    state, stats = run(0.3, seed=21)
    assert stats.protocol_applications >= 3  # two chains plus one fusion
    assert stats.time_steps % gr.STEPS_PROTOCOL_ROUND == 0
    assert stats.physical_qubits_used == 13


def test_deterministic_given_seed():
    a = run(1.0, seed=33)
    b = run(1.0, seed=33)
    np.testing.assert_allclose(a[0].amps, b[0].amps, atol=0)
    assert a[1] == b[1]


def test_retry_cap_enforced():
    with pytest.raises(gr.RetryLimitError):
        run(3.1, seed=2, retry_cap=5)
