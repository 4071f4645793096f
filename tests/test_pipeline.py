"""Thirteen-qubit selective-entanglement pipeline."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterforge import growth as gr
from clusterforge import protocol as pr
from clusterforge import statevector as sv
from reference import draw_x_run, linear_cluster_target, thirteen_qubit_target, x_weights
from strategies import normalized_ends, thetas


def run(theta, seed, **kw):
    return gr.run_thirteen_qubit_pipeline(theta, np.random.default_rng(seed), **kw)


# ---------------------------------------------------------------------------
# Dense reference: the pipeline on the whole 13-qubit register, every guard in
# place and the entangler on every neighbour pair

_CHAIN_A = list(range(0, 5))
_CHAIN_B = list(range(8, 13))
_FUSION_CHAIN = list(range(4, 9))
_GUARD_A = {1: "1", 2: "0", 3: "0"}     # protects the (0, 4) pair
_GUARD_B = {9: "1", 10: "0", 11: "0"}   # protects the (8, 12) pair


def selective_layout(total_qubits: int, chain_starts, n: int, first_input=None) -> list:
    """Initializer tokens that isolate (n+2)-qubit chains from the rest.

    Gap qubits take |1> directly right of a chain and |0> elsewhere, so every
    pair bridging a gap is inert under the global entangler: the phase only
    acts on the |1>|0> component, which for definite-bit pairs is a global
    phase.  ``first_input`` optionally replaces the first qubit of the first
    chain with an arbitrary state.
    """
    starts = sorted(chain_starts)
    if not starts:
        raise ValueError("need at least one chain")
    span = n + 2
    prev_end = None
    for s in starts:
        if s < 0 or s + span > total_qubits:
            raise ValueError("chain does not fit in the register")
        if prev_end is not None and s < prev_end + n:
            raise ValueError("chains overlap or leave fewer than n separator qubits")
        prev_end = s + span
    tokens = ["0"] * total_qubits
    for s in starts:
        for q in range(s, s + span):
            tokens[q] = "+"
        if s + span < total_qubits:
            tokens[s + span] = "1"
    if first_input is not None:
        tokens[starts[0]] = first_input
    return tokens


def measure_chain_middles(state, chain, rng):
    """Per-qubit route: measure a chain's middles in sigma_x one at a time."""
    bits = []
    for q in chain[1:-1]:
        rec, state = sv.measure(state, q, basis="xi", xi=0.0, rng=rng)
        bits.append(str(rec.outcome))
    return "".join(bits), state


def _dense_fusion_success_probability(state, theta):
    marg = sv.pair_marginals(state, _FUSION_CHAIN[0], _FUSION_CHAIN[-1])
    return 2.0 * pr.success_probability_closed(3, theta) * float(marg[0, 0] + marg[1, 1])


def dense_pipeline_reference(theta, rng, retry_cap=10_000):
    """``run_thirteen_qubit_pipeline`` on the dense 13-qubit register."""
    stats = gr.GrowthStats()
    stats.physical_qubits_used = 13

    while True:
        if stats.protocol_applications >= retry_cap:
            raise gr.RetryLimitError("pipeline retry cap exhausted")
        state = sv.init_register(selective_layout(13, [0, 8], 3))

        # stage 1: distill both chains into Bell-form pairs, simultaneously
        pending = {0: _CHAIN_A, 1: _CHAIN_B}
        parities = {}
        while pending and stats.protocol_applications < retry_cap:
            stats.time_steps += gr.STEPS_PROTOCOL_ROUND
            stats.protocol_applications += len(pending)
            pr.entangle_chain(state, theta)
            for key, chain in list(pending.items()):
                seq, state = measure_chain_middles(state, chain, rng)
                if seq in pr.enumerate_success_sequences(3):
                    parities[key] = seq.count("1") & 1
                    sv.reset_qubits(state, _GUARD_A if key == 0 else _GUARD_B)
                    del pending[key]
                else:
                    # isolated chain: collapse the ends onto an outcome they can
                    # take, which draws nothing, and rebuild the chain fresh
                    for q in (chain[0], chain[-1]):
                        p0, _ = sv.measurement_probabilities(state, q)
                        _, state = sv.measure(state, q, basis="z", outcome=int(p0 <= sv.PROB_TOL))
                    sv.reset_qubits(state, {q: "+" for q in chain})
        if pending:
            raise gr.RetryLimitError("pipeline retry cap exhausted")

        # stage 2: Bell pairs -> two-qubit cluster states (corrections on tips)
        for key, tip in ((0, 4), (1, 12)):
            if parities[key]:
                sv.apply_gate(state, tip, "Z")
            sv.apply_gate(state, tip, "H")

        # stage 3: fuse tip 4 to tail 8 through re-initialized middles
        fusion_parity = 0
        fused = False
        while stats.protocol_applications < retry_cap:
            sv.reset_qubits(state, {5: "+", 6: "+", 7: "+"})
            stats.time_steps += gr.STEPS_PROTOCOL_ROUND
            stats.protocol_applications += 1
            pr.entangle_chain(state, theta)
            seq, state = measure_chain_middles(state, _FUSION_CHAIN, rng)
            fusion_parity ^= seq.count("1") & 1
            if seq in pr.enumerate_success_sequences(3):
                fused = True
                break
            if _dense_fusion_success_probability(state, theta) < 1e-9:
                stats.restarts += 1
                break  # dead end: rebuild everything
        if not fused:
            if stats.protocol_applications >= retry_cap:
                raise gr.RetryLimitError("pipeline retry cap exhausted")
            continue

        # stage 4: local corrections; tail 8 becomes the growth-unit leaf
        if fusion_parity:
            sv.apply_gate(state, 4, "Z")
        sv.apply_gate(state, 8, "H")
        stats.final_length = 3
        return state, stats


# ---------------------------------------------------------------------------
# Block route: one stage-3 attempt on the 7-qubit fusion block (0, 4, 5, 6, 7,
# 8, 12), whose middles 5-7 are its positions 2-4

_PLUS_MIDDLES = np.full((1, 8, 1), 8.0 ** -0.5)


def entangle_fusion_block(block, theta):
    """The register-wide entangler on the 7-qubit fusion block, in place.

    Only the register pairs (4, 5) ... (7, 8), block positions (1, 2) ...
    (4, 5), are neighbours; the block's (0, 4) and (8, 12) pairs are not and
    get no phase.  It is one CSX gate per neighbour pair.
    """
    for q in range(1, 5):
        sv.apply_controlled_phase(block, q, q + 1, math.pi + theta)
    return block


def fusion_block(ends, theta):
    """The entangled 7-qubit fusion block: ends (0, 4, 8, 12) with fresh |+++> middles."""
    amps = ends.amps.reshape(4, 1, 4) * _PLUS_MIDDLES
    return entangle_fusion_block(sv.PureState(7, amps), theta)


def random_ends(rng):
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    return sv.PureState(4, amps / np.linalg.norm(amps))


def fusion_success_probability_reference(ends, theta):
    """Slow route: embed fresh middles, re-entangle, enumerate branches.

    ``ends`` holds register qubits (0, 4, 8, 12); they are re-embedded as
    the 7-qubit fusion block (0, 4, 5, 6, 7, 8, 12), whose fusion chain is
    positions 1-5, with middles 2-4.
    """
    probe = sv.PureState(
        7, np.einsum("abcd,m->abmcd", ends.amps.reshape(2, 2, 2, 2), sv.init_register(["+"] * 3).amps)
    )
    mids = [2, 3, 4]
    for q in range(1, 5):
        sv.apply_controlled_phase(probe, q, q + 1, np.pi + theta, "CSX")
    for q in mids:
        sv.apply_gate(probe, q, "H")
    tens = probe.amps.reshape([2] * 7)
    total = 0.0
    for seq in pr.enumerate_success_sequences(3):
        idx = [slice(None)] * 7
        for q, b in zip(mids, seq):
            idx[q] = int(b)
        branch = tens[tuple(idx)]
        total += float(np.vdot(branch, branch).real)
    return total


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
def test_pipeline_fast_probability(theta, monkeypatch):
    """The dead-link probability matches re-running the chain.

    ``held_pair_retry`` evaluates it on its tracked marginals after every
    failed attempt.  Run one attempt at a time (``limit=1``), each failure
    leaves its state in the register, and that is the state checked here.
    """
    fast = pr.held_pair_success_probability
    seen = []

    def recorded(marginals, p):
        seen.append(fast(marginals, p))
        return seen[-1]

    monkeypatch.setattr(pr, "held_pair_success_probability", recorded)
    rng = np.random.default_rng(17)
    deviations = []
    for _ in range(24):
        ends = random_ends(rng)
        for _ in range(6):
            if pr.held_pair_retry(ends, 1, 2, 3, theta, rng, 1)[2]:
                break
            deviations.append(abs(seen[-1] - fusion_success_probability_reference(ends, theta)))
    assert len(deviations) >= 20
    assert max(deviations) < 1e-12


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.5])
def test_pipeline_reaches_growth_unit(theta):
    start = time.monotonic()
    state, stats = run(theta, seed=20)
    assert time.monotonic() - start < 10.0

    # checkpoint before the final Hadamard: the fused trapped-Hadamard state
    checkpoint = state.copy()
    sv.apply_gate(checkpoint, 2, "H")
    assert (
        sv.fidelity_up_to_global_phase(checkpoint, thirteen_qubit_target()) >= 1 - 1e-9
    )

    # final state is the four-qubit growth unit with hub 4 and leaf 8
    assert sv.fidelity_up_to_global_phase(state, gr.three_node_target()) >= 1 - 1e-9
    assert stats.final_length == 3

    # removing the leaf yields the perfect three-qubit linear cluster
    rec, state = sv.measure(state, 2, basis="z", rng=np.random.default_rng(1))
    if rec.outcome:
        sv.apply_gate(state, 1, "Z")
    final = sv.extract_qubits(state, [0, 1, 3])
    assert sv.fidelity_up_to_global_phase(final, linear_cluster_target(3)) >= 1 - 1e-9


def test_three_node_target_is_shared_and_read_only():
    target = gr.three_node_target()
    assert gr.three_node_target() is target
    with pytest.raises(ValueError):
        target.amps[0] = 0.0
    expected = gr.graph_state_target(4, [(0, 1), (1, 2), (1, 3)])
    np.testing.assert_array_equal(target.amps, expected.amps)


def test_weak_entanglement_still_succeeds():
    state, stats = run(2.8, seed=1, retry_cap=200_000)
    assert sv.fidelity_up_to_global_phase(state, gr.three_node_target()) >= 1 - 1e-9
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


def _run_route(route, theta, seed, retry_cap):
    rng = np.random.default_rng([seed, 5])
    try:
        result = route(theta, rng, retry_cap=retry_cap)
    except gr.RetryLimitError:
        result = None
    return result, rng.bit_generator.state


@pytest.mark.parametrize("theta, seeds, retry_cap", [(0.3, 40, 20), (1.0, 40, 40), (2.5, 4, 300)])
def test_sub_registers_match_dense_reference(theta, seeds, retry_cap):
    """The 5-qubit chains and the 7-qubit block replay the dense 13-qubit run.

    Same cap outcome, stats and random draws, and the same final state up to
    global phase, so the guards really do isolate the live qubits.
    """
    outcomes = set()
    for seed in range(seeds):
        fast, fast_rng = _run_route(gr.run_thirteen_qubit_pipeline, theta, seed, retry_cap)
        dense, dense_rng = _run_route(dense_pipeline_reference, theta, seed, retry_cap)
        assert (fast is None) == (dense is None), seed
        assert fast_rng == dense_rng, seed
        outcomes.add(fast is None)
        if fast is not None:
            assert fast[1] == dense[1], seed
            dense_ends = sv.extract_qubits(dense[0], [0, 4, 8, 12])
            assert sv.fidelity_up_to_global_phase(fast[0], dense_ends) >= 1 - 1e-12, seed
    assert outcomes == {False, True}  # both completed runs and capped ones


@pytest.mark.parametrize("theta", [0.0, 0.3, 2.8])
def test_fusion_block_entangler(theta):
    """CSX on the block pairs (1, 2) ... (4, 5), none on (0, 1) or (5, 6).

    The expected state is a diagonal read off the index bits, not built from
    gates: an amplitude gains ``exp(i (pi + theta))`` once per block pair
    whose bits read 10.
    """
    rng = np.random.default_rng(5)
    amps = rng.normal(size=128) + 1j * rng.normal(size=128)
    state = sv.PureState(7, amps / np.linalg.norm(amps))
    bits = (np.arange(128)[:, None] >> np.arange(6, -1, -1)) & 1  # column q is qubit q
    k = np.count_nonzero((bits[:, 1:5] == 1) & (bits[:, 2:6] == 0), axis=1)
    expected = state.amps * np.exp(1j * (np.pi + theta) * k)
    every_pair = pr.entangle_chain(state.copy(), theta)
    entangle_fusion_block(state, theta)
    np.testing.assert_allclose(state.amps, expected, rtol=0, atol=1e-12)
    assert not np.allclose(every_pair.amps, expected, rtol=0, atol=1e-6)


def check_fusion_maps(theta, ends, seed):
    """The held-pair maps give the block's outcome weights and kept ends.

    For every outcome sequence of the middles, forced, and for drawn ones,
    which must also consume the same draws.
    """
    _, map_weights = pr.held_pair_maps(3, theta)
    branches = sv.x_branches(fusion_block(ends, theta), 2, 3)
    weights = map_weights @ sv.pair_marginals(ends, 1, 2).reshape(4)
    np.testing.assert_allclose(weights, x_weights(branches), rtol=0, atol=1e-12)
    for m, w in enumerate(weights):
        if w <= 1e-6:  # the kept ends are rescaled by 1/sqrt(w), magnifying rounding
            continue
        seq = format(m, "03b")
        kept = ends.copy()
        assert pr.held_pair_attempt(kept, 1, 2, 3, theta, outcomes=seq)[0] == m
        _, _, expected = draw_x_run(branches, seq)
        np.testing.assert_allclose(kept.amps, expected.amps, rtol=0, atol=1e-12)
    fast_rng, block_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(4):
        kept = ends.copy()
        seq = format(pr.held_pair_attempt(kept, 1, 2, 3, theta, rng=fast_rng)[0], "03b")
        expected_seq, _, expected = draw_x_run(branches, rng=block_rng)
        assert seq == expected_seq
        assert fast_rng.bit_generator.state == block_rng.bit_generator.state
        np.testing.assert_allclose(kept.amps, expected.amps, rtol=0, atol=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, 2.8])
def test_fusion_maps_match_block_route(theta):
    rng = np.random.default_rng(11)
    for seed in range(8):
        check_fusion_maps(theta, random_ends(rng), seed)


@settings(max_examples=30)
@given(
    theta=thetas,
    ends=normalized_ends(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fusion_maps_match_block_route_property(theta, ends, seed):
    check_fusion_maps(theta, ends, seed)


def test_fusion_attempt_checks_the_norm():
    """One attempt and a retry run both check the register's norm first, and
    leave the register as it was: amplitudes, then norm^2, off by 1e-6."""
    for factor in (1.0 + 1e-6, math.sqrt(1.0 + 1e-6)):
        ends = random_ends(np.random.default_rng(3))
        ends.amps *= factor
        before = ends.amps.copy()
        with pytest.raises(sv.NormalizationError):
            pr.held_pair_attempt(ends, 1, 2, 3, 1.0, rng=np.random.default_rng(1))
        with pytest.raises(sv.NormalizationError):
            pr.held_pair_retry(ends, 1, 2, 3, 1.0, np.random.default_rng(1), 5)
        np.testing.assert_array_equal(ends.amps, before)


def test_fusion_attempt_absorbs_norm_drift():
    """Ends whose norm^2 drifted by -3e-12 pass the check and come back
    renormalized: the kept branch is rescaled by its own weight."""
    for seed in range(20):
        ends = random_ends(np.random.default_rng([seed, 12]))
        ends.amps *= math.sqrt(1.0 - 3e-12)
        pr.held_pair_attempt(ends, 1, 2, 3, 1.0, rng=np.random.default_rng(seed))
        assert abs(ends.norm_squared() - 1.0) <= 1e-15, seed


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.8])
def test_chain_table_replays_draw_x_run(theta):
    """Stage 1's weights and kept pairs from the held-pair table replay
    ``draw_x_run`` on the branches of a fresh entangled ``|+>^5`` chain."""
    maps, map_weights = pr.held_pair_maps(3, theta)
    fresh = (map_weights.sum(axis=1) / 4.0).tolist()
    chain = pr.entangle_chain(sv.init_register(["+"] * 5), theta)
    branches = sv.x_branches(chain, 1, 3)
    for seed in range(200):
        fast_rng, ref_rng = np.random.default_rng([seed, 9]), np.random.default_rng([seed, 9])
        for _ in range(4):
            m, _ = sv.draw_outcome(fresh, rng=fast_rng)
            seq, _, pair = draw_x_run(branches, rng=ref_rng)
            assert format(m, "03b") == seq
            assert fast_rng.bit_generator.state == ref_rng.bit_generator.state
            kept = maps[m] * (0.5 / math.sqrt(fresh[m]))
            np.testing.assert_allclose(kept, pair.amps, rtol=0, atol=1e-12)


def test_stage_caches_are_bounded_and_read_only():
    for theta in np.linspace(0.0, 3.0, 7):
        maps, map_weights = pr.held_pair_maps(3, theta)
        info = pr.held_pair_maps.cache_info()
        assert info.maxsize == 2 and info.currsize <= info.maxsize
        np.testing.assert_allclose(map_weights.sum() / 4.0, 1.0, rtol=0, atol=1e-12)
        for array in (maps, map_weights):
            with pytest.raises(ValueError):
                array[0] = 0.0


def is_dead(ends, n, theta):
    marginals = sv.pair_marginals(ends, 1, 2).reshape(4)
    return pr.held_pair_success_probability(marginals, pr.success_probability_closed(n, theta)) < 1e-9


def attempt_loop(ends, a, b, n, theta, rng, limit):
    """``held_pair_retry`` as a loop of ``held_pair_attempt`` calls, each
    updating the register and each dead-link check reading it."""
    success = pr.success_mask(n)
    parity = 0
    for attempts in range(1, limit + 1):
        m, _ = pr.held_pair_attempt(ends, a, b, n, theta, rng=rng)
        parity ^= m.bit_count() & 1
        if success[m] or is_dead(ends, n, theta):
            break
    return attempts, parity, bool(success[m])


def run_recorded(route, ends, n, theta, seed, limit):
    """One route on a copy of ``ends``: its result, the drawn outcomes,
    the generator's state after it and the register it leaves."""
    state, rng, draws = ends.copy(), np.random.default_rng(seed), []
    real = sv.draw_outcome

    def recorded(*args):
        draws.append(real(*args)[0])
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sv, "draw_outcome", recorded)
        result = route(state, 1, 2, n, theta, rng, limit)
    return result, draws, rng.bit_generator.state, state


@settings(max_examples=40)
@given(
    ends=normalized_ends(),
    theta=thetas,
    n=st.sampled_from([1, 3, 5]),
    limit=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_retry_matches_attempt_loop_property(ends, theta, n, limit, seed):
    """The retry on four marginals replays a loop of single attempts: the
    same outcomes and parity, the same draws and the same final register."""
    fast, fast_draws, fast_rng, fast_state = run_recorded(pr.held_pair_retry, ends, n, theta, seed, limit)
    slow, slow_draws, slow_rng, slow_state = run_recorded(attempt_loop, ends, n, theta, seed, limit)
    assert fast == slow
    assert fast_draws == slow_draws and len(fast_draws) == fast[0]
    assert fast_rng == slow_rng
    np.testing.assert_allclose(fast_state.amps, slow_state.amps, rtol=0, atol=1e-12)


def dying_ends(rng):
    """Random ends with almost no tip-tail |00> or |11> weight: few attempts
    can succeed before the link dies."""
    ends = random_ends(rng)
    ends.amps.reshape(2, 4, 2)[:, ::3] *= 1e-4
    ends.amps /= math.sqrt(ends.norm_squared())
    return ends


def test_retry_in_single_attempts_replays_one_call():
    """k calls with ``limit=1``, stopped where the run stops, replay one
    call with ``limit=k``, whichever way it stops."""
    k = 12
    stops = set()
    for theta, make_ends in ((0.3, random_ends), (2.5, random_ends), (0.3, dying_ends)):
        for seed in range(10):
            ends = make_ends(np.random.default_rng([seed, 4]))
            whole, whole_rng = ends.copy(), np.random.default_rng(seed)
            result = pr.held_pair_retry(whole, 1, 2, 3, theta, whole_rng, k)
            parts, parts_rng = ends.copy(), np.random.default_rng(seed)
            attempts, parity, fused = 0, 0, False
            while attempts < k and not fused and not (attempts and is_dead(parts, 3, theta)):
                _, bit, fused = pr.held_pair_retry(parts, 1, 2, 3, theta, parts_rng, 1)
                attempts, parity = attempts + 1, parity ^ bit
            assert (attempts, parity, fused) == result, seed
            assert parts_rng.bit_generator.state == whole_rng.bit_generator.state
            np.testing.assert_allclose(parts.amps, whole.amps, rtol=0, atol=1e-12)
            stops.add("success" if fused else "limit" if attempts == k else "dead link")
    assert stops == {"success", "limit", "dead link"}
    with pytest.raises(pr.RetryLimitError):  # a limit of 0 leaves no attempt
        pr.held_pair_retry(random_ends(np.random.default_rng(3)), 1, 2, 3, 1.0, np.random.default_rng(1), 0)
