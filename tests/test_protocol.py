"""Protocol layer: chains, the sequence oracle, probabilities, derivations."""

import math

import numpy as np
import pytest

from clusterforge import protocol as pr
from clusterforge import statevector as sv
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    PROBE_INPUTS,
    dense_chain,
    dense_held_pair_maps,
    dense_retry,
    heralded_pair,
    loop_oracle,
    measurement_probabilities,
)
from strategies import normalized_states, thetas

PSI = (0.6, 0.8j)

N5_SEQUENCES = {
    "00100", "01001", "01011", "01110", "10010",
    "10101", "10111", "11010", "11101", "11111",
}


class TestChainConstruction:
    def test_matches_perfect_entangler_at_theta_zero(self):
        chain = pr.build_imperfect_chain("+", 1, 0.0)
        expect = sv.init_register(["+"] * 3)
        for q in (0, 1):
            sv.apply_controlled_phase(expect, q, q + 1, math.pi, "CSX")
        np.testing.assert_allclose(chain.amps, expect.amps, atol=1e-12)

    def test_entangler_order_is_irrelevant(self):
        theta = 0.9
        forward = pr.build_imperfect_chain(PSI, 3, theta)
        reverse = sv.init_register([PSI] + ["+"] * 4)
        for q in (3, 2, 1, 0):
            sv.apply_controlled_phase(reverse, q, q + 1, math.pi + theta, "CSX")
        np.testing.assert_allclose(forward.amps, reverse.amps, atol=1e-12)

    def test_even_n_rejected(self):
        with pytest.raises(ValueError):
            pr.build_imperfect_chain("+", 2, 0.1)

    def test_failure_branch_termwise(self):
        # m = 0 on the three-qubit chain leaves the documented distorted state
        theta = 0.7
        a, b = PSI
        pair = sv.init_register([PSI, "+"])
        m, _ = pr.held_pair_attempt(pair, 0, 1, 1, theta, outcomes="0")
        assert not pr.success_mask(1)[m]
        phase = np.exp(1j * theta)
        expect = np.array(
            [(1 - phase) * a / 4, a / 2, -phase * b / 2, (1 - phase) * b / 4]
        )
        expect /= np.linalg.norm(expect)
        target = sv.PureState(2, expect)
        assert sv.fidelity_up_to_global_phase(pair, target) > 1 - 1e-12
        # termwise: phase-align and compare amplitudes
        overlap = np.vdot(pair.amps, target.amps)
        np.testing.assert_allclose(pair.amps * overlap / abs(overlap), target.amps, atol=1e-10)

    def test_success_branch_collapses_theta(self):
        theta = 1.1
        a, b = PSI
        pair = sv.init_register([PSI, "+"])
        m, _ = pr.held_pair_attempt(pair, 0, 1, 1, theta, outcomes="1")
        assert pr.success_mask(1)[m]
        target = sv.PureState(2, np.array([a, 0, 0, -b]))
        assert sv.fidelity_up_to_global_phase(pair, target) > 1 - 1e-12

    def test_n3_success_probability_total(self):
        theta = 0.3
        total = pr.oracle_success_probability(3, theta)
        assert total == pytest.approx(0.375 * math.cos(0.15) ** 4, abs=1e-12)


class TestOracle:
    def test_n1(self):
        assert pr.enumerate_success_sequences(1) == frozenset({"1"})

    def test_n3(self):
        assert pr.enumerate_success_sequences(3) == frozenset({"010", "101", "111"})

    def test_n5(self):
        assert pr.enumerate_success_sequences(5) == frozenset(N5_SEQUENCES)

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
    def test_counts(self, n):
        assert len(pr.enumerate_success_sequences(n)) == math.comb(n, (n + 1) // 2)

    @pytest.mark.parametrize("n", range(1, 14, 2))
    def test_mask_matches_sequence_loop(self, n):
        assert pr.enumerate_success_sequences(n) == loop_oracle(n)

    def test_mask_is_read_only_and_cached(self):
        mask = pr.success_mask(5)
        assert mask.dtype == bool and mask.shape == (32,)
        assert set(np.flatnonzero(mask).tolist()) == {int(s, 2) for s in N5_SEQUENCES}
        with pytest.raises(ValueError):
            mask[0] = True
        assert pr.success_mask(5) is mask

    def test_branch_tensor_equals_sequential_forcing(self):
        theta = 0.8
        chain = pr.build_imperfect_chain(PSI, 3, theta)
        tens = pr.branch_tensor(chain)
        for seq in ("000", "010", "101", "110"):
            pair = sv.init_register([PSI, "+"])
            m, path = pr.held_pair_attempt(pair, 0, 1, 3, theta, outcomes=seq)
            branch = tens[:, m, :].reshape(-1)
            prob = float(np.vdot(branch, branch).real)
            assert m == int(seq, 2) and prob == pytest.approx(path, abs=1e-12)
            target = sv.PureState(2, branch / math.sqrt(prob))
            assert sv.fidelity_up_to_global_phase(pair, target) > 1 - 1e-12

    def test_success_states_match_heralded_map(self):
        # every successful branch of the mask, which one |+> chain decides, on
        # all four probe inputs and on seeded random inputs, at other angles
        raw = np.random.default_rng(27).normal(size=(3, 2, 2)) @ (1.0, 1j)
        inputs = [*PROBE_INPUTS, *(raw / np.linalg.norm(raw, axis=1, keepdims=True))]
        for theta in (0.9, 2.2):
            for n in (1, 3, 5):
                for probe in inputs:
                    tens = pr.branch_tensor(pr.build_imperfect_chain(probe, n, theta))
                    for seq in pr.enumerate_success_sequences(n):
                        branch = tens[:, int(seq, 2), :].reshape(-1)
                        state = sv.PureState(2, branch / np.linalg.norm(branch))
                        target = heralded_pair(probe, seq.count("1"))
                        assert sv.fidelity_up_to_global_phase(state, target) >= 1 - 1e-10

    def test_success_branches_have_uniform_probability(self):
        theta = 1.3
        probs = pr.branch_probabilities(5, theta)
        per_branch = math.cos(theta / 2) ** 6 / 32
        for seq in pr.enumerate_success_sequences(5):
            assert probs[int(seq, 2)] == pytest.approx(per_branch, abs=1e-12)


class TestRuleGenerator:
    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 15, 17])  # 15, 17: past the loop reference
    def test_equals_oracle(self, n):
        assert np.array_equal(pr.rule_based_sequences(n), pr.success_mask(n))

    def test_zero_wrapping_example(self):
        assert pr.rule_based_sequences(5)[0b00100]

    def test_sandwich_examples(self):
        five = pr.rule_based_sequences(5)
        assert five[0b01001] and five[0b01011]

    def test_count_n7(self):
        assert pr.rule_based_sequences(7).sum() == 35

    def test_mask_is_read_only(self):
        with pytest.raises(ValueError):
            pr.rule_based_sequences(5)[0] = True

    def test_past_the_oracle_tests(self):
        # the mask tests stop at n = 17; past it, the rules must carry the
        # closed-form probability and the binomial count on their own
        rules = pr.rule_based_sequences(19)
        for theta in (0.3, 1.0):
            weights = pr.held_pair_maps(19, theta)[1].sum(axis=1) / 4.0
            closed = pr.success_probability_closed(19, theta)
            assert abs(math.fsum(weights[rules].tolist()) - closed) < 1e-12
        assert pr.rule_based_sequences(21).sum() == math.comb(21, 11) == 352_716


class TestProbabilities:
    def test_closed_values(self):
        assert pr.success_probability_closed(1, 0.0) == pytest.approx(0.5)
        assert pr.success_probability_closed(3, 0.0) == pytest.approx(0.375)
        assert pr.success_probability_closed(3, 0.3) == pytest.approx(
            0.375 * math.cos(0.15) ** 4
        )

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, 2.5])
    def test_oracle_agrees_with_closed_form(self, n, theta):
        assert abs(
            pr.oracle_success_probability(n, theta) - pr.success_probability_closed(n, theta)
        ) < 1e-10

    @pytest.mark.parametrize("n", [1, 3, 5])
    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, 2.5, 3.0])
    def test_success_weights_closed_form(self, n, theta):
        """Summed over success sequences, the map weights are 2 p diag(1, 1)."""
        _, w = pr.held_pair_maps(n, theta)
        success = [int(s, 2) for s in pr.enumerate_success_sequences(n)]
        weights = w[success].sum(axis=0).reshape(2, 2)
        expect = 2 * pr.success_probability_closed(n, theta) * np.eye(2)
        np.testing.assert_allclose(weights, expect, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [-1, 0, 2])
    def test_tables_reject_n_first(self, n):
        with pytest.raises(ValueError, match="n must be an odd integer"):
            pr.held_pair_maps(n, 0.3)
        misses = pr.held_pair_maps.cache_info().misses
        with pytest.raises(ValueError, match="n must be an odd integer"):
            pr.retry_probabilities(n, 0.3, 3)
        assert pr.held_pair_maps.cache_info().misses == misses  # no table built for n

    def test_tables_reject_n_above_register_cap(self):
        # n = 23 would need a 25-qubit chain; its table would take over 1 GB
        with pytest.raises(ValueError, match="n must be <= 21"):
            pr.held_pair_maps(23, 0.3)
        # closed forms allocate nothing and take any odd n
        assert pr.success_probability_closed(23, 0.3) > 0.0

    def test_asymptotic_at_n1(self):
        assert pr.success_probability_asymptotic(1, 0.0) == pytest.approx(math.sqrt(2 / math.pi))

    def test_asymptotic_converges(self):
        # exact binomial as the independent reference
        ratio = pr.success_probability_asymptotic(101, 0.0) / (
            math.comb(101, 51) / 2**101
        )
        assert abs(ratio - 1.0) < 0.01

    def test_asymptotic_error_decreases(self):
        errors = [
            abs(
                pr.success_probability_asymptotic(n, 0.0)
                / pr.success_probability_closed(n, 0.0)
                - 1.0
            )
            for n in range(3, 53, 2)
        ]
        assert all(a > b for a, b in zip(errors, errors[1:]))


def _check_table_against_dense(n, theta):
    maps, weights = pr.held_pair_maps(n, theta)
    dense_maps, dense_weights = dense_held_pair_maps(n, theta)
    np.testing.assert_allclose(maps, dense_maps, rtol=0, atol=1e-12)
    np.testing.assert_allclose(weights, dense_weights, rtol=0, atol=1e-12)
    np.testing.assert_allclose(weights.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    assert not maps.flags.writeable and not weights.flags.writeable
    info = pr.held_pair_maps.cache_info()
    assert info.maxsize == 2 and info.currsize <= 2


@pytest.mark.parametrize("n", range(1, 14, 2))
@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, 2.8, 3.1])
def test_held_pair_table_matches_dense_chain(n, theta):
    """The transfer-matrix table against the dense chain on the four basis pairs."""
    _check_table_against_dense(n, theta)


@settings(max_examples=40)
@given(n=st.sampled_from([1, 3, 5, 7, 9]), theta=thetas)
def test_held_pair_table_matches_dense_chain_property(n, theta):
    _check_table_against_dense(n, theta)


class TestRunProtocol:
    """One protocol run: a ``held_pair_attempt`` on the pair ``psi ⊗ |+>``,
    successful where the oracle's mask holds the drawn sequence."""

    def test_forced_sequence_wrong_length(self):
        with pytest.raises(ValueError):
            pr.held_pair_attempt(sv.init_register(["+", "+"]), 0, 1, 3, 0.3, outcomes="01")

    def test_path_probability_matches_enumeration(self):
        m, path = pr.held_pair_attempt(sv.init_register(["+", "+"]), 0, 1, 3, 0.7, outcomes="010")
        assert m == 0b010 and pr.success_mask(3)[m]
        assert path == pytest.approx(pr.branch_probabilities(3, 0.7)[m], abs=1e-12)

    def test_sampled_outcomes_reproducible(self):
        pairs = [sv.init_register([PSI, "+"]) for _ in range(2)]
        runs = [
            pr.held_pair_attempt(pair, 0, 1, 3, 0.9, rng=np.random.default_rng(21))
            for pair in pairs
        ]
        assert runs[0] == runs[1]
        np.testing.assert_array_equal(pairs[0].amps, pairs[1].amps)


def _spectator_between(pair, spectator):
    """3-qubit register: ``pair`` on qubits 0 and 2, ``spectator`` on qubit 1."""
    amps = np.einsum("ab,s->asb", pair.amps.reshape(2, 2), spectator)
    return sv.PureState(3, amps)


@pytest.mark.parametrize("n", [1, 3, 5, 7])
@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, 2.8])
def test_held_pair_attempt_matches_dense_route(n, theta):
    """The table route against the dense one (fresh middles, the chain
    entangler, ``measure_x_run``), on a pair and on qubits (0, 2) of a
    3-qubit register: every forced outcome, including those that raise,
    and drawn ones, which must consume the same draws."""
    rng = np.random.default_rng([n, round(10 * theta)])
    pairs = [sv.PureState(2, np.array([0, 1, 0, 0], dtype=complex))]  # |01>: no success
    for _ in range(3):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        pairs.append(sv.PureState(2, raw / np.linalg.norm(raw)))
    raised = 0
    for pair in pairs:
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        spectator = raw / np.linalg.norm(raw)
        for state, a, b in ((pair, 0, 1), (_spectator_between(pair, spectator), 0, 2)):
            for m in range(1 << n):
                seq = format(m, f"0{n}b")
                try:
                    _, path, kept = dense_retry(state, a, b, n, theta, outcomes=seq)
                except sv.ForcedOutcomeError:
                    raised += 1
                    with pytest.raises(sv.ForcedOutcomeError):
                        pr.held_pair_attempt(state.copy(), a, b, n, theta, outcomes=seq)
                    continue
                got = state.copy()
                assert pr.held_pair_attempt(got, a, b, n, theta, outcomes=seq) == (
                    m, pytest.approx(path, rel=0, abs=1e-10))
                np.testing.assert_allclose(got.amps, kept.amps, rtol=0, atol=1e-10)
            for seed in range(4):
                fast_rng, dense_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = state.copy()
                seq = format(pr.held_pair_attempt(got, a, b, n, theta, rng=fast_rng)[0], f"0{n}b")
                expected_seq, _, kept = dense_retry(state, a, b, n, theta, rng=dense_rng)
                assert seq == expected_seq
                assert fast_rng.bit_generator.state == dense_rng.bit_generator.state
                np.testing.assert_allclose(got.amps, kept.amps, rtol=0, atol=1e-10)
    assert raised > 0


@settings(max_examples=40)
@given(
    state=normalized_states(min_qubits=2),
    n=st.sampled_from([1, 3, 5]),
    theta=thetas,
    data=st.data(),
)
def test_held_pair_attempt_matches_dense_route_property(state, n, theta, data):
    """Random qubits a < b of a random register, n middles built between
    them on the dense route: a forced outcome of non-negligible weight gives
    the same m, path probability and register, and a drawn one also the same
    generator state."""
    a = data.draw(st.integers(0, state.num_qubits - 2))
    b = data.draw(st.integers(a + 1, state.num_qubits - 1))
    weights = pr.held_pair_maps(n, theta)[1] @ sv.pair_marginals(state, a, b).reshape(4)
    m = data.draw(st.sampled_from(np.flatnonzero(weights > 1e-6).tolist()))
    seq = format(m, f"0{n}b")
    _, path, kept = dense_retry(state, a, b, n, theta, outcomes=seq)
    got = state.copy()
    assert pr.held_pair_attempt(got, a, b, n, theta, outcomes=seq) == (
        m, pytest.approx(path, rel=0, abs=1e-10))
    np.testing.assert_allclose(got.amps, kept.amps, rtol=0, atol=1e-10)

    seed = data.draw(st.integers(0, 2**32 - 1))
    rng, dense_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = state.copy()
    drawn, _ = pr.held_pair_attempt(got, a, b, n, theta, rng=rng)
    expected_seq, _, kept = dense_retry(state, a, b, n, theta, rng=dense_rng)
    assert format(drawn, f"0{n}b") == expected_seq
    assert rng.bit_generator.state == dense_rng.bit_generator.state
    np.testing.assert_allclose(got.amps, kept.amps, rtol=0, atol=1e-10)


@settings(max_examples=40)
@given(state=normalized_states(min_qubits=2), theta=thetas, data=st.data())
def test_dead_link_rule_matches_dense_outcome_probability_property(state, theta, data):
    """The rule both retry loops give a link up by, 2p (P00 + P11) on held
    qubits a < b of a random register, is the outcome-1 probability of the
    dense n = 1 chain with a |+> middle between them, the one outcome that
    heralds.  At theta = 0 a failed attempt leaves it exactly 0."""
    a = data.draw(st.integers(0, state.num_qubits - 2))
    b = data.draw(st.integers(a + 1, state.num_qubits - 1))
    marginals = sv.pair_marginals(state, a, b).reshape(4).tolist()
    rule = pr.held_pair_success_probability(marginals, pr.success_probability_closed(1, theta))
    _, p1 = measurement_probabilities(dense_chain(state, a, b, 1, theta), a + 1, "xi")
    assert rule == pytest.approx(p1, rel=0, abs=1e-12)

    if marginals[1] + marginals[2] > 1e-6:  # the failure m = 0 is possible at theta = 0
        pr.held_pair_attempt(state, a, b, 1, 0.0, outcomes=[0])
        marginals = sv.pair_marginals(state, a, b).reshape(4).tolist()
        assert pr.held_pair_success_probability(marginals, 0.5) == 0.0


class TestConcatenationDerivations:
    """Direct simulation of the two sequence-construction arguments."""

    @pytest.mark.parametrize("n", [1, 3])
    def test_zero_wrap_intermediate_state(self, n):
        # chain of n+4 qubits; a successful odd-weight run on the inner n
        # qubits leaves the displayed four-qubit operator state
        theta = 0.6
        seq = next(s for s in pr.enumerate_success_sequences(n) if s.count("1") % 2 == 1)
        chain = sv.init_register([PSI] + ["+"] * (n + 3))
        pr.entangle_chain(chain, theta)
        for i, bit in enumerate(seq):
            sv.measure(chain, 2 + i, basis="xi", xi=0.0, outcome=int(bit))
        got = sv.extract_qubits(chain, [0, 1, n + 2, n + 3])

        expect = sv.init_register([PSI, "+", "+", "+"])
        sv.apply_controlled_phase(expect, 0, 1, math.pi + theta, "CSX")
        sv.apply_controlled_phase(expect, 1, 2, math.pi, "CS")
        sv.apply_gate(expect, 2, "H")
        sv.apply_gate(expect, 2, "Z")
        sv.apply_controlled_phase(expect, 2, 3, math.pi + theta, "CSX")
        assert sv.fidelity_up_to_global_phase(got, expect) > 1 - 1e-10

        # measuring the outer pair with outcomes 0, 0 reproduces the heralded
        # map for the grown sequence 0 + seq + 0
        sv.measure(chain, 1, basis="xi", xi=0.0, outcome=0)
        sv.measure(chain, n + 2, basis="xi", xi=0.0, outcome=0)
        ends = sv.extract_qubits(chain, [0, n + 3])
        target = heralded_pair(PSI, seq.count("1"))
        assert sv.fidelity_up_to_global_phase(ends, target) > 1 - 1e-10
        assert "0" + seq + "0" in pr.enumerate_success_sequences(n + 2)

    @pytest.mark.parametrize("n,n2", [(1, 1), (1, 3)])
    def test_sandwich_intermediate_state(self, n, n2):
        # two successful runs separated by one junction qubit leave the
        # displayed three-qubit operator state
        theta = 0.45
        seq_a = sorted(pr.enumerate_success_sequences(n))[0]
        seq_b = sorted(pr.enumerate_success_sequences(n2))[-1]
        total = n + n2 + 3
        chain = sv.init_register([PSI] + ["+"] * (total - 1))
        pr.entangle_chain(chain, theta)
        for i, bit in enumerate(seq_a):
            sv.measure(chain, 1 + i, basis="xi", xi=0.0, outcome=int(bit))
        for i, bit in enumerate(seq_b):
            sv.measure(chain, n + 2 + i, basis="xi", xi=0.0, outcome=int(bit))
        got = sv.extract_qubits(chain, [0, n + 1, total - 1])

        q_a, q_b = seq_a.count("1"), seq_b.count("1")
        expect = sv.init_register([PSI, "+", "+"])
        sv.apply_controlled_phase(expect, 0, 1, math.pi, "CS")
        sv.apply_gate(expect, 1, "H")
        for _ in range(q_a):
            sv.apply_gate(expect, 1, "Z")
        sv.apply_controlled_phase(expect, 1, 2, math.pi, "CS")
        sv.apply_gate(expect, 2, "H")
        for _ in range(q_b):
            sv.apply_gate(expect, 2, "Z")
        assert sv.fidelity_up_to_global_phase(got, expect) > 1 - 1e-10

        # an arbitrary junction outcome m completes a larger heralded run
        for m in (0, 1):
            probe = chain.copy()
            sv.measure(probe, n + 1, basis="xi", xi=0.0, outcome=m)
            ends = sv.extract_qubits(probe, [0, total - 1])
            target = heralded_pair(PSI, q_a + q_b + m)
            assert sv.fidelity_up_to_global_phase(ends, target) > 1 - 1e-10
            grown = seq_a + str(m) + seq_b
            assert grown in pr.enumerate_success_sequences(n + n2 + 1)

    def test_trapped_hadamard_state(self):
        # two concatenated successes leave H CZ H CZ with Z byproducts, exactly
        theta = 0.85
        chain = sv.init_register([PSI] + ["+"] * 4)
        for q in range(4):
            sv.apply_controlled_phase(chain, q, q + 1, math.pi + theta, "CSX")
        sv.measure(chain, 1, basis="xi", xi=0.0, outcome=1)
        sv.measure(chain, 3, basis="xi", xi=0.0, outcome=1)
        got = sv.extract_qubits(chain, [0, 2, 4])

        expect = sv.init_register([PSI, "+", "+"])
        sv.apply_controlled_phase(expect, 0, 1, math.pi, "CS")
        sv.apply_gate(expect, 1, "H")
        sv.apply_gate(expect, 1, "Z")  # weight-1 byproduct of the first run
        sv.apply_controlled_phase(expect, 1, 2, math.pi, "CS")
        sv.apply_gate(expect, 2, "H")
        sv.apply_gate(expect, 2, "Z")
        assert sv.fidelity_up_to_global_phase(got, expect) > 1 - 1e-12
