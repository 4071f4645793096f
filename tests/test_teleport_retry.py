"""Teleportation primitives, fail-and-retry dynamics, GHZ concatenation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterforge import protocol as pr
from clusterforge import statevector as sv
from reference import DegenerateInputError, dense_retry, retry_protocol
from strategies import thetas

PSI = (0.6, 0.8j)


def haar_pairs(count, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def teleport_infidelity_exact(input_state, theta):
    """Outcome-weighted teleport infidelity of one input, branch by branch.

    Runs both forced branches through the simulator; the slow reference the
    vectorized Monte-Carlo loop is tested against.
    """
    infidelity = 1.0
    for m in (0, 1):
        try:
            rec, out = pr.one_bit_teleport(input_state, 0.0, theta, outcome=m)
        except sv.ForcedOutcomeError:
            continue
        target = pr.teleport_target(input_state, 0.0, m)
        infidelity -= rec.probability * sv.fidelity_up_to_global_phase(out, target)
    return infidelity


class TestOneBitTeleport:
    def test_h_of_zero(self):
        rec, out = pr.one_bit_teleport("0", 0.0, 0.0, outcome=0)
        np.testing.assert_allclose(out.amps, sv.init_register(["+"]).amps, atol=1e-12)

    @pytest.mark.parametrize("m", [0, 1])
    def test_exact_at_theta_zero(self, m):
        for pair in haar_pairs(5, seed=m):
            xi = 1.1
            _, out = pr.one_bit_teleport(pair, xi, 0.0, outcome=m)
            target = pr.teleport_target(pair, xi, m)
            assert sv.fidelity_up_to_global_phase(out, target) > 1 - 1e-12

    def test_per_input_infidelity_formula(self):
        # outcome-weighted infidelity equals |beta|^2 sin^2(theta/2) exactly
        theta = 0.8
        for pair in haar_pairs(6, seed=11):
            got = teleport_infidelity_exact(pair, theta)
            assert got == pytest.approx(abs(pair[1]) ** 2 * math.sin(theta / 2) ** 2, abs=1e-12)

    def test_average_infidelity_zero_at_theta_zero(self):
        assert pr.average_teleport_infidelity(0.0, 2000, seed=5) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.1, 0.3, 1.0])
    def test_average_infidelity_converges(self, theta):
        samples = 100_000
        est = pr.average_teleport_infidelity(theta, samples, seed=1234)
        target = 0.5 * math.sin(theta / 2) ** 2
        se = math.sin(theta / 2) ** 2 / math.sqrt(12.0) / math.sqrt(samples)
        assert abs(est - target) < 3 * se

    def test_theta_pi_endpoint(self):
        est = pr.average_teleport_infidelity(math.pi, 40_000, seed=8)
        assert est == pytest.approx(0.5, abs=0.005)

    def test_sampled_run_matches_forced_run(self):
        # a drawn outcome gives the forced run's record and state, and the
        # outcomes come at the record's probability
        theta, xi, seeds = 0.7, 0.4, 400
        counts, probability = [0, 0], [None, None]
        for seed in range(seeds):
            rec, out = pr.one_bit_teleport(PSI, xi, theta, rng=np.random.default_rng(seed))
            forced_rec, forced_out = pr.one_bit_teleport(PSI, xi, theta, outcome=rec.outcome)
            assert rec == forced_rec
            np.testing.assert_array_equal(out.amps, forced_out.amps)
            counts[rec.outcome] += 1
            probability[rec.outcome] = rec.probability
        assert probability[0] + probability[1] == pytest.approx(1.0, abs=1e-12)
        for m in (0, 1):
            p = probability[m]
            assert abs(counts[m] / seeds - p) < 4 * math.sqrt(p * (1 - p) / seeds)

    def test_vectorized_matches_simulator_path(self):
        theta = 0.62
        pairs = haar_pairs(50, seed=17)
        slow = np.mean([teleport_infidelity_exact(p, theta) for p in pairs])
        fast = np.mean([abs(p[1]) ** 2 for p in pairs]) * math.sin(theta / 2) ** 2
        assert slow == pytest.approx(fast, abs=1e-12)


class TestStochasticTeleport:
    def test_success_branch_is_perfect(self):
        for theta in (0.3, 0.8, 2.0):
            run = pr.stochastic_teleport(PSI, 0.0, theta, outcomes=(1, 1))
            assert run.success and run.m1 == 1
            target = pr.stochastic_teleport_target(PSI, 0.0, 1)
            assert sv.fidelity_up_to_global_phase(run.output, target) > 1 - 1e-10

    def test_byproduct_bookkeeping(self):
        run = pr.stochastic_teleport(PSI, 0.9, 0.5, outcomes=(1, 0))
        target = pr.stochastic_teleport_target(PSI, 0.9, 0)
        assert sv.fidelity_up_to_global_phase(run.output, target) > 1 - 1e-10

    @pytest.mark.parametrize("probe", ["0", "1", "+"])
    def test_probe_inputs_at_large_theta(self, probe):
        run = pr.stochastic_teleport(probe, 0.4, 0.8, outcomes=(1, 1))
        target = pr.stochastic_teleport_target(probe, 0.4, 1)
        assert sv.fidelity_up_to_global_phase(run.output, target) > 1 - 1e-10

    def test_success_rate(self):
        theta = 0.8
        rng = np.random.default_rng(42)
        trials = 4000
        wins = sum(
            pr.stochastic_teleport(PSI, 0.0, theta, rng=rng).success for _ in range(trials)
        )
        p = 0.5 * math.cos(theta / 2) ** 2
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(wins / trials - p) < 3 * sigma


class TestRetryProtocol:
    def test_ratio_preserved_on_success(self):
        pair = sv.PureState(2, np.array([0.6, 0.0, 0.0, 0.8j]))
        m, _, kept = retry_protocol(pair, 3, 0.7, outcomes="010")
        assert pr.success_mask(3)[m]
        amps = kept.amps
        assert amps[1] == pytest.approx(0.0, abs=1e-12)
        assert amps[2] == pytest.approx(0.0, abs=1e-12)
        # weight-1 success flips the relative sign once
        assert amps[3] / amps[0] == pytest.approx(-(0.8j / 0.6), abs=1e-10)

    def test_failure_then_retry_matches_direct_success(self):
        theta = 0.9
        first, direct = sv.init_register([PSI, "+"]), sv.init_register([PSI, "+"])
        failed, _ = pr.held_pair_attempt(first, 0, 1, 1, theta, outcomes="0")
        assert not pr.success_mask(1)[failed]
        retried, _, kept = retry_protocol(first, 1, theta, outcomes="1")
        pr.held_pair_attempt(direct, 0, 1, 1, theta, outcomes="1")
        assert pr.success_mask(1)[retried]
        assert sv.fidelity_up_to_global_phase(kept, direct) > 1 - 1e-10

    @pytest.mark.parametrize("n", [1, 3])
    def test_sampled_run_matches_forced_run(self, n):
        # a drawn run gives the forced run with its bits; it succeeds with
        # probability 2p (P00 + P11) on the pair, p the closed form
        theta, seeds = 1.0, 400
        amps = np.array([0.5, 0.3, 0.4j, 0.6 - 0.2j])
        pair = sv.PureState(2, amps / np.linalg.norm(amps))
        wins = 0
        for seed in range(seeds):
            m, path, kept = retry_protocol(pair, n, theta, rng=np.random.default_rng(seed))
            forced_m, forced_path, forced_kept = retry_protocol(
                pair, n, theta, outcomes=format(m, f"0{n}b")
            )
            assert (m, path) == (forced_m, forced_path)
            np.testing.assert_array_equal(kept.amps, forced_kept.amps)
            wins += pr.success_mask(n)[m]
        equal = abs(pair.amps[0]) ** 2 + abs(pair.amps[3]) ** 2
        p = 2 * pr.success_probability_closed(n, theta) * equal
        assert abs(wins / seeds - p) < 4 * math.sqrt(p * (1 - p) / seeds)

    def test_degenerate_input_rejected(self):
        pair = sv.PureState(2, np.array([0.0, 1.0, 0.0, 0.0]))
        with pytest.raises(DegenerateInputError):
            retry_protocol(pair, 1, 0.3)

    @pytest.mark.parametrize("n", [1, 3])
    def test_failures_scale_ratio_by_sign_only(self, n):
        # any outcome multiplies the |00>/|11> ratio by exactly (-1)^weight
        theta = 1.2
        pair = sv.PureState(2, np.array([0.6, 0.0, 0.0, 0.8j]))
        ratio0 = 0.8j / 0.6
        for m in range(len(pr.branch_probabilities(n, theta))):
            seq = format(m, f"0{n}b")
            try:
                _, _, kept = retry_protocol(pair, n, theta, outcomes=seq)
            except sv.ForcedOutcomeError:
                continue
            amps = kept.amps
            if abs(amps[0]) < 1e-9:
                continue
            sign = (-1) ** seq.count("1")
            assert amps[3] / amps[0] == pytest.approx(sign * ratio0, abs=1e-9)


class TestRetryProbabilities:
    def test_n1_matches_closed_form(self):
        for theta in (0.3, 1.0, 2.0):
            probs, _ = pr.retry_probabilities(1, theta, 15)
            expect = [pr.retry_probability_closed_n1(theta, k) for k in range(16)]
            np.testing.assert_allclose(probs, expect, atol=1e-14)

    def test_n1_theta_zero_single_row(self):
        probs, total = pr.retry_probabilities(1, 0.0, 10)
        assert probs[0] == pytest.approx(0.5, abs=1e-12)
        assert probs[1:] == [0.0] * 10  # exact: the bond phase is exactly -1
        assert total == pytest.approx(0.5, abs=1e-12)

    def test_n1_sum_limit(self):
        _, total = pr.retry_probabilities(1, 1.0, 60)
        assert total == pytest.approx(0.5, abs=1e-9)

    def test_n1_slope(self):
        for theta in (0.3, 1.0, 2.0):
            probs, _ = pr.retry_probabilities(1, theta, 8)
            slope = np.polyfit(range(1, 7), np.log(probs[1:7]), 1)[0]
            assert slope == pytest.approx(2 * math.log(math.sin(theta / 2)), rel=1e-9)

    def test_n3_theta_zero_values(self):
        # The all-plus failure branch (probability 1/8) leaves a perfect
        # Bell-form pair at theta = 0, so retries stay live with per-attempt
        # success 3/4 and the N >= 1 tail is geometric.  (The literature's
        # single-row expectation does not survive the exact probabilities.)
        probs, total = pr.retry_probabilities(3, 0.0, 12)
        assert probs[0] == pytest.approx(0.375, abs=1e-12)
        assert probs[1] == pytest.approx(3.0 / 32.0, abs=1e-12)
        for k in range(1, 11):
            assert probs[k + 1] / probs[k] == pytest.approx(0.25, abs=1e-10)
        assert total == pytest.approx(0.5, abs=1e-4)

    @pytest.mark.parametrize("theta", [0.3, 1.0])
    def test_n3_sum_converges_to_half(self, theta):
        _, total = pr.retry_probabilities(3, theta, 45)
        assert total == pytest.approx(0.5, abs=1e-6)

    def test_probabilities_are_a_distribution_prefix(self):
        probs, total = pr.retry_probabilities(3, 0.9, 25)
        assert all(p >= 0 for p in probs)
        assert total <= 1.0

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, 2.0, 2.5, 3.0])
    def test_matches_closed_form(self, n, theta):
        # diagonal maps with s = 2p(1, 0, 0, 1) and s + f = 1 give p(1 - 2p)^N
        p = pr.success_probability_closed(n, theta)
        probs, _ = pr.retry_probabilities(n, theta, 60)
        expect = [p * (1 - 2 * p) ** k for k in range(61)]
        np.testing.assert_allclose(probs, expect, rtol=1e-9, atol=1e-30)

    @settings(max_examples=40)
    @given(n=st.sampled_from([1, 3, 5, 7]), theta=thetas, max_failures=st.integers(0, 40))
    def test_matches_closed_form_property(self, n, theta, max_failures):
        p = pr.success_probability_closed(n, theta)
        probs, _ = pr.retry_probabilities(n, theta, max_failures)
        expect = [p * (1 - 2 * p) ** k for k in range(max_failures + 1)]
        np.testing.assert_allclose(probs, expect, rtol=1e-9, atol=1e-30)

    @pytest.mark.parametrize("theta", [0.0, 0.6, 1.0, 2.5])
    def test_matches_independent_tree_walk(self, theta):
        # brute-force walk over failure histories with the dense simulator
        # route, no diagonal-map shortcut
        n = 3
        success = pr.enumerate_success_sequences(n)
        sequences = (format(m, f"0{n}b") for m in range(len(pr.branch_probabilities(n, theta))))
        failures = [s for s in sequences if s not in success]

        def walk(end_pair, weight, depth, acc):
            success_here = 0.0
            for seq in success:
                try:
                    _, path, _ = dense_retry(end_pair, 0, 1, n, theta, outcomes=seq)
                except sv.ForcedOutcomeError:
                    continue
                success_here += path
            acc[depth] += weight * success_here
            if depth == len(acc) - 1:
                return
            for seq in failures:
                try:
                    _, path, kept = dense_retry(end_pair, 0, 1, n, theta, outcomes=seq)
                except sv.ForcedOutcomeError:
                    continue
                walk(kept, weight * path, depth + 1, acc)

        acc = [0.0, 0.0, 0.0, 0.0]
        walk(sv.init_register(["+", "+"]), 1.0, 0, acc)
        probs, _ = pr.retry_probabilities(n, theta, 3)
        np.testing.assert_allclose(acc, probs, atol=1e-10)


class TestGhzConcatenation:
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_fidelity_after_corrections(self, N):
        run = pr.concatenated_ghz(N, 0.7, rng=np.random.default_rng(N + 100))
        assert run.state.num_qubits == 2 * N - 1
        fid = sv.fidelity_up_to_global_phase(run.state, pr.ghz_target(2 * N - 1))
        assert fid >= 1 - 1e-10

    def test_forced_success_theta_zero_exact(self):
        # at theta = 0 a failed link is dead, so these seeds also rebuild the
        # register: 0 to 3 restarts before the GHZ state comes out exact
        restarts = set()
        for seed in range(5):
            run = pr.concatenated_ghz(2, 0.0, rng=np.random.default_rng(seed))
            restarts.add(run.restarts)
            amps = run.state.amps
            assert abs(amps[0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
            assert abs(amps[-1]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
            assert abs(amps[-1] / amps[0] - 1.0) < 1e-12  # corrected relative sign
            np.testing.assert_allclose(amps[1:-1], 0.0, atol=1e-12)
        assert 0 in restarts and max(restarts) > 0

    def test_five_qubit_case(self):
        run = pr.concatenated_ghz(3, 0.5, rng=np.random.default_rng(9))
        assert run.state.num_qubits == 5

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            pr.concatenated_ghz(1, 0.3, rng=np.random.default_rng(0))
