"""Thirteen-qubit selective-entanglement pipeline."""

import contextlib
import copy
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterforge import growth as gr
from clusterforge import protocol as pr
from clusterforge import statevector as sv
from reference import (
    draw_x_run,
    linear_cluster_target,
    probability_of_bit,
    retry_walk_reference,
    thirteen_qubit_target,
    x_weights,
)
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
    """Dense route: draw a chain's middles' joint sigma_x outcome by
    ``sv.draw_outcome`` on the register's own weights, then collapse the
    middles one at a time with forced ``sv.measure`` calls."""
    middles = chain[1:-1]
    weights = x_weights(sv.x_branches(state, middles[0], len(middles)))
    seq = format(sv.draw_outcome(weights, rng=rng)[0], f"0{len(middles)}b")
    for q, bit in zip(middles, seq):
        _, state = sv.measure(state, q, basis="xi", xi=0.0, outcome=int(bit))
    return seq, state


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
                        p0 = probability_of_bit(state, q, 0)
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
            if _dense_fusion_success_probability(state, theta) * gr._restart_cost(theta) < 1.0:
                stats.restarts += 1
                break  # a restart is cheaper: rebuild everything
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


def retry_on_register(state, a, b, n, theta, rng, limit, cost):
    """``pr.held_pair_retry`` on the Born marginals of the held pair ``a < b``
    of a register, at restart cost ``cost``, whose basis states take its four
    factors on a success.  Returns the attempts, the parity and success."""
    marginals = sv.pair_marginals(state, a, b).reshape(4).tolist()
    attempts, parity, scales = pr.held_pair_retry(marginals, n, theta, rng, limit, cost)
    if scales is not None:
        sv._split_pair(state, a, b)[...] *= np.array(scales).reshape(1, 2, 1, 2, 1)
    return attempts, parity, scales is not None


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
def test_pipeline_fast_probability(theta, monkeypatch):
    """The give-up rule's success probability matches re-running the chain.

    ``held_pair_retry`` evaluates it on its tracked marginals after every
    failed attempt.  Run one attempt at a time (``limit=1``), each failure
    is replayed on the register, and that is the state checked here.
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
            replay = copy.deepcopy(rng)  # the generator as the retry found it
            if retry_on_register(ends, 1, 2, 3, theta, rng, 1, gr._restart_cost(theta))[2]:
                break
            pr.held_pair_attempt(ends, 1, 2, 3, theta, rng=replay)  # its failure, on the register
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


@pytest.mark.parametrize("theta, seeds, retry_cap", [(0.3, 40, 20), (1.0, 40, 40), (2.5, 4, 500)])
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
    """One attempt and a retry run on the register's marginals both check
    the norm first, and leave the register as it was: amplitudes, then
    norm^2, off by 1e-6."""
    for factor in (1.0 + 1e-6, math.sqrt(1.0 + 1e-6)):
        ends = random_ends(np.random.default_rng(3))
        ends.amps *= factor
        before = ends.amps.copy()
        with pytest.raises(sv.NormalizationError):
            pr.held_pair_attempt(ends, 1, 2, 3, 1.0, rng=np.random.default_rng(1))
        with pytest.raises(sv.NormalizationError):
            retry_on_register(ends, 1, 2, 3, 1.0, np.random.default_rng(1), 5, 25.0)
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
    ``draw_x_run`` on the branches of a fresh entangled ``|+>^5`` chain, and
    so does its draw on the cached running sums."""
    maps, map_weights = pr.held_pair_maps(3, theta)
    fresh = (map_weights.sum(axis=1) / 4.0).tolist()
    table_fresh, cumulative, _, _ = gr._chain_tables(theta)
    assert list(table_fresh) == fresh
    chain = pr.entangle_chain(sv.init_register(["+"] * 5), theta)
    branches = sv.x_branches(chain, 1, 3)
    for seed in range(200):
        fast_rng, table_rng, ref_rng = (np.random.default_rng([seed, 9]) for _ in range(3))
        for _ in range(4):
            m, path = sv.draw_outcome(fresh, rng=fast_rng)
            assert sv.draw_index(table_fresh, cumulative, table_rng) == (m, path)
            seq, _, pair = draw_x_run(branches, rng=ref_rng)
            assert format(m, "03b") == seq
            assert fast_rng.bit_generator.state == ref_rng.bit_generator.state
            assert table_rng.bit_generator.state == ref_rng.bit_generator.state
            kept = maps[m] * (0.5 / math.sqrt(fresh[m]))
            np.testing.assert_allclose(kept, pair.amps, rtol=0, atol=1e-12)


def test_stage_caches_are_bounded_and_read_only():
    for theta in np.linspace(0.0, 3.0, 7):
        maps, map_weights = pr.held_pair_maps(3, theta)
        fresh, cumulative, cluster_pairs, fusion_marginals = gr._chain_tables(theta)
        pr._retry_tables(3, theta)
        for cached in (pr.held_pair_maps, pr._retry_tables, gr._chain_tables):
            info = cached.cache_info()
            assert info.maxsize == 2 and info.currsize <= info.maxsize
        assert cumulative == tuple(itertools.accumulate(fresh))
        np.testing.assert_allclose(map_weights.sum() / 4.0, 1.0, rtol=0, atol=1e-12)
        kept = [pair for pair in cluster_pairs if pair is not None]
        assert len(cluster_pairs) == 8 and len(kept) == np.count_nonzero(pr.success_mask(3))
        for array in (maps, map_weights, *kept):
            with pytest.raises(ValueError):
                array[0] = 0.0
        for table in (fresh, cumulative, cluster_pairs, fusion_marginals, *fusion_marginals,
                      *pr._retry_tables(3, theta)[:3]):
            assert isinstance(table, tuple)


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, 2.5, 3.1])
def test_cluster_pair_table_is_the_gate_route(theta):
    """Every success m's stage-2 entry is, byte for byte, its kept pair
    taken through ``sv.apply_gate``: Z on qubit 1 at odd parity, then H."""
    maps = pr.held_pair_maps(3, theta)[0]
    fresh = pr.branch_probabilities(3, theta).tolist()
    cluster_pairs = gr._chain_tables(theta)[2]
    for m, success in enumerate(pr.success_mask(3).tolist()):
        if not success:
            assert cluster_pairs[m] is None
            continue
        pair = sv.PureState(2, maps[m] * (0.5 / math.sqrt(fresh[m])))
        if m.bit_count() & 1:
            sv.apply_gate(pair, 1, "Z")
        sv.apply_gate(pair, 1, "H")
        assert cluster_pairs[m].tobytes() == pair.amps.tobytes(), m


def gives_up(ends, n, theta, cost):
    """The retry rule on a register's held pair (1, 2): one more attempt is
    worth less than a restart that costs ``cost``, s * C < 1."""
    marginals = sv.pair_marginals(ends, 1, 2).reshape(4)
    return pr.held_pair_success_probability(marginals, pr.success_probability_closed(n, theta)) * cost < 1.0


def attempt_loop(ends, a, b, n, theta, rng, limit, cost):
    """``held_pair_retry`` as a loop of ``held_pair_attempt`` calls, each
    updating the register and each give-up check reading it."""
    success = pr.success_mask(n)
    parity = 0
    for attempts in range(1, limit + 1):
        m, _ = pr.held_pair_attempt(ends, a, b, n, theta, rng=rng)
        parity ^= m.bit_count() & 1
        if success[m] or gives_up(ends, n, theta, cost):
            break
    return attempts, parity, bool(success[m])


def run_recorded(route, ends, n, theta, seed, limit, cost):
    """One route on a copy of ``ends``: its result, the drawn outcomes,
    the generator's state after it and the register it leaves."""
    state, rng, draws = ends.copy(), np.random.default_rng(seed), []
    real = sv.draw_outcome

    def recorded(*args):
        result = real(*args)
        draws.append(result[0])
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sv, "draw_outcome", recorded)
        result = route(state, 1, 2, n, theta, rng, limit, cost)
    return result, draws, rng.bit_generator.state, state


@settings(max_examples=40)
@given(
    ends=normalized_ends(),
    theta=thetas,
    n=st.sampled_from([1, 3, 5]),
    limit=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    cost=st.floats(1.0, 1e6),
)
def test_retry_matches_attempt_loop_property(ends, theta, n, limit, seed, cost):
    """The retry on four marginals replays a loop of single attempts: the
    same outcomes and parity, the same draws and, on a success, the same
    final register.  A link given up leaves no register to compare."""
    args = ends, n, theta, seed, limit, cost
    fast, fast_draws, fast_rng, fast_state = run_recorded(retry_on_register, *args)
    slow, slow_draws, slow_rng, slow_state = run_recorded(attempt_loop, *args)
    assert fast == slow
    assert fast_draws == slow_draws and len(fast_draws) == fast[0]
    assert fast_rng == slow_rng
    if fast[2]:
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
    call with ``limit=k``, whichever way it stops.  Each failed call is
    replayed on the register, whose marginals the next call reads."""
    k = 12
    stops = set()
    for theta, make_ends in ((0.3, random_ends), (2.5, random_ends), (0.3, dying_ends)):
        cost = gr._restart_cost(theta)
        for seed in range(10):
            ends = make_ends(np.random.default_rng([seed, 4]))
            whole, whole_rng = ends.copy(), np.random.default_rng(seed)
            result = retry_on_register(whole, 1, 2, 3, theta, whole_rng, k, cost)
            parts, parts_rng = ends.copy(), np.random.default_rng(seed)
            attempts, parity, fused = 0, 0, False
            while attempts < k and not fused and not (attempts and gives_up(parts, 3, theta, cost)):
                replay = copy.deepcopy(parts_rng)
                _, bit, fused = retry_on_register(parts, 1, 2, 3, theta, parts_rng, 1, cost)
                if not fused:
                    pr.held_pair_attempt(parts, 1, 2, 3, theta, rng=replay)
                attempts, parity = attempts + 1, parity ^ bit
            assert (attempts, parity, fused) == result, seed
            assert parts_rng.bit_generator.state == whole_rng.bit_generator.state
            if fused:
                np.testing.assert_allclose(parts.amps, whole.amps, rtol=0, atol=1e-12)
            stops.add("success" if fused else "limit" if attempts == k else "given up")
    assert stops == {"success", "limit", "given up"}
    with pytest.raises(pr.RetryLimitError):  # a limit of 0 leaves no attempt
        pr.held_pair_retry([0.25] * 4, 3, 1.0, np.random.default_rng(1), 0, 25.0)


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
def test_retry_gives_up_where_a_restart_is_worth_more(theta):
    """After a failed first attempt the retry goes on where s * C = 1.5 and
    gives up where s * C = 0.5, s the pair's next success chance."""
    p, judged = pr.success_probability_closed(3, theta), 0
    for seed in range(20):
        ends = random_ends(np.random.default_rng([seed, 5]))
        marginals = sv.pair_marginals(ends, 1, 2).reshape(4).tolist()
        m, _ = pr.held_pair_attempt(ends, 1, 2, 3, theta, rng=np.random.default_rng(seed))
        if pr.success_mask(3)[m]:
            continue
        s = pr.held_pair_success_probability(sv.pair_marginals(ends, 1, 2).reshape(4), p)
        for worth, attempts in ((1.5, 2), (0.5, 1)):
            result = pr.held_pair_retry(marginals, 3, theta, np.random.default_rng(seed), 2, worth / s)
            assert result[0] == attempts, (seed, worth)
        judged += 1
    assert judged >= 5


@pytest.mark.parametrize("theta", [0.5, 1.5, 2.5])
def test_fusion_starts_from_the_product_registers_marginals(theta, monkeypatch):
    """Stage 3's retry starts from the table marginals of the two kept
    cluster pairs, bit for bit those ``sv.pair_marginals`` reads on the four
    ends built from them, in the order (chain A, chain B).  At these angles
    the table is not symmetric in the two pairs."""
    _, _, cluster_pairs, fusion_marginals = gr._chain_tables(theta)
    successes = np.flatnonzero(pr.success_mask(3)).tolist()
    assert any(fusion_marginals[a][b] != fusion_marginals[b][a] for a in successes for b in successes)
    events, retrying = [], []
    real_draw, real_retry = sv.draw_index, pr.held_pair_retry

    def draw(*args):
        result = real_draw(*args)
        if not retrying:  # a stage-1 draw, not one of the retry's own
            events.append(("draw", result[0]))
        return result

    def retry(marginals, *args):
        events.append(("retry", marginals))
        retrying.append(True)
        try:
            return real_retry(marginals, *args)
        finally:
            retrying.clear()

    monkeypatch.setattr(sv, "draw_index", draw)
    monkeypatch.setattr(pr, "held_pair_retry", retry)
    mixed = 0
    for seed in range(40):
        events.clear()
        with contextlib.suppress(gr.RetryLimitError):
            run(theta, seed, retry_cap=2_000)
        # replay stage 1 on the drawn outcomes: each round draws for the
        # chains still pending, chain A first, and a retry follows once both
        # have succeeded
        pending, queue, kept = [0, 1], [], [None, None]
        for kind, value in events:
            if kind == "draw":
                queue = queue or list(pending)
                key = queue.pop(0)
                if cluster_pairs[value] is not None:
                    kept[key] = value
                    pending.remove(key)
                continue
            assert not pending and not queue
            ends = sv.PureState(4, np.multiply.outer(cluster_pairs[kept[0]], cluster_pairs[kept[1]]))
            assert value == tuple(sv.pair_marginals(ends, 1, 2).reshape(4).tolist())
            mixed += value != fusion_marginals[kept[1]][kept[0]]
            pending = [0, 1]
    assert mixed > 0


# ---------------------------------------------------------------------------
# The give-up rule s * C < 1 and its restart cost C(theta)

def walk_rows(theta):
    """The walk's rows as ``_restart_cost`` reads them: outcome 000's (x, y)
    and the other four failures' summed (x, y)."""
    failures = pr.held_pair_maps(3, theta)[1][~pr.success_mask(3)]
    return failures[0, :2], failures[1:, :2].sum(axis=0)


def exact_law(theta):
    """A run's mean protocol applications, time steps and restarts from the
    dict walk at the program's C: stage 1 takes 2 / p applications in
    ``expected_pair_prep_attempts`` rounds, stage 3 one round per attempt, and
    a run repeats both until stage 3 succeeds, with chance 1 - P_g."""
    p = pr.success_probability_closed(3, theta)
    attempts, given_up = retry_walk_reference(theta, gr._restart_cost(theta))
    rounds = gr.expected_pair_prep_attempts(p) + attempts
    return {
        "protocol_applications": (2.0 / p + attempts) / (1.0 - given_up),
        "time_steps": gr.STEPS_PROTOCOL_ROUND * rounds / (1.0 - given_up),
        "restarts": given_up / (1.0 - given_up),
    }


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, 2.5, 3.0])
def test_fusion_starts_at_uniform_marginals(theta):
    """The walk behind C starts where every fusion does: each entry of the
    fusion-marginal table is (1/4, 1/4, 1/4, 1/4) to 12 digits."""
    starts = [m for row in gr._chain_tables(theta)[3] for m in row if m is not None]
    np.testing.assert_allclose(starts, 0.25, rtol=0, atol=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, 2.0])
def test_restart_cost_matches_dict_walk(theta):
    """C(theta) is the fixed point of the dict walk, which applies all five
    failure rows on their own: at the program's C the walk's cost is C."""
    cost = gr._restart_cost(theta)
    assert exact_law(theta)["protocol_applications"] == pytest.approx(cost, rel=1e-9, abs=0)


def test_restart_cost_values():
    """The costs the rule was sized by: 13 exactly at theta = 0, where a
    failure either leaves a perfect pair (000) or a dead one, and 13.875,
    24.368 and 1,653.2 applications at theta = 0.3, 1.0 and 2.5, against
    18.82, 40.38 and 3,210.5 when only a 1e-9 success chance gives a link up."""
    assert gr._restart_cost(0.0) == pytest.approx(13.0, rel=1e-15)
    for theta, new, old in ((0.3, 13.875, 18.82), (1.0, 24.368, 40.38), (2.5, 1653.2, 3210.5)):
        p = pr.success_probability_closed(3, theta)
        attempts, given_up, _, _ = gr._retry_walk(walk_rows(theta), p, 1.0 / pr.DEAD_LINK_PROBABILITY)
        assert gr._restart_cost(theta) == pytest.approx(new, abs=1e-3 if theta < 2 else 0.1)
        assert (2.0 / p + attempts) / (1.0 - given_up) == pytest.approx(old, abs=1e-2 if theta < 2 else 0.1)


@pytest.mark.parametrize("theta", [0.3, 1.0])
def test_pipeline_means_match_exact_law(theta):
    """Seeded Monte-Carlo means of the three cost columns lie within four
    standard errors of the exact law."""
    runs = [run(theta, [seed, 51])[1] for seed in range(3000)]
    for column, exact in exact_law(theta).items():
        values = np.array([getattr(stats, column) for stats in runs], dtype=float)
        error = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - exact) < 4.0 * error, (column, values.mean(), error, exact)


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.0])
def test_one_step_rule_near_best_threshold(theta):
    """No fixed give-up threshold s < tau beats the rule's C by 0.5%: a
    threshold tau is the rule at restart cost 1 / tau, scanned over a factor
    of ten around C."""
    p = pr.success_probability_closed(3, theta)
    cost = gr._restart_cost(theta)
    best = min(
        (2.0 / p + attempts) / (1.0 - given_up)
        for scale in np.geomspace(0.3, 3.0, 61)
        for attempts, given_up, _, _ in [gr._retry_walk(walk_rows(theta), p, cost * scale)]
    )
    assert best <= cost <= 1.005 * best


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, 2.5])
def test_fidelity_at_verify_thetas(theta):
    """Runs under the rule still end in the growth unit, at every theta that
    ``verify`` checks and under its cap."""
    for seed in range(10):
        state, _ = run(theta, [seed, 52], retry_cap=100_000)
        assert sv.fidelity_up_to_global_phase(state, gr.three_node_target()) >= 1 - 1e-9, seed


def test_restart_cost_is_cheap_and_bounded():
    """C(theta) takes at most 2 ms at theta = 1.0, the benchmark's angle,
    and 0.1 s at theta = 2.5; it is finite at theta = 3.0, where a run takes
    about 6.6e5 applications."""
    for theta, budget in ((1.0, 0.002), (2.5, 0.1)):
        gr._chain_tables(theta)
        took = []
        for _ in range(5):
            gr._restart_cost.cache_clear()
            start = time.perf_counter()
            gr._restart_cost(theta)
            took.append(time.perf_counter() - start)
        assert min(took) <= budget, (theta, took)
    cost = gr._restart_cost(3.0)
    assert math.isfinite(cost) and 6e5 < cost < 7e5


def test_restart_cost_is_solved_lazily():
    """A run solves C at its first stage-3 retry and caches it; a run that
    never reaches stage 3 never solves it."""
    gr._restart_cost.cache_clear()
    with pytest.raises(gr.RetryLimitError):
        run(3.1, seed=2, retry_cap=5)
    assert gr._restart_cost.cache_info().currsize == 0
    run(1.0, seed=3)
    run(1.0, seed=4)
    info = gr._restart_cost.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (2, 1, 1) and info.hits >= 1
