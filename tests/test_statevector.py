"""Simulator core: initialization, gates, measurements, comparisons."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterforge import protocol as pr
from clusterforge import statevector as sv
from reference import (
    embed_pair_with_plus_middles,
    is_product_across_cut,
    measure_x_run,
    phase_from_interaction,
    probability_of_bit,
)
from strategies import normalized_states

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def random_state(num_qubits, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return sv.PureState(num_qubits, raw / np.linalg.norm(raw))


class TestInitRegister:
    def test_plus_plus(self):
        state = sv.init_register(["+", "+"])
        np.testing.assert_allclose(state.amps, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_basis(self):
        np.testing.assert_allclose(sv.init_register(["0"]).amps, [1, 0], atol=1e-15)

    def test_arbitrary_tensor(self):
        state = sv.init_register([(0.6, 0.8j), "+"])
        expect = [0.6 * INV_SQRT2, 0.6 * INV_SQRT2, 0.8j * INV_SQRT2, 0.8j * INV_SQRT2]
        np.testing.assert_allclose(state.amps, expect, atol=1e-15)

    def test_unnormalized_rejected(self):
        with pytest.raises(sv.NormalizationError):
            sv.init_register([(0.6, 0.9)])

    def test_qubit_zero_is_most_significant(self):
        state = sv.init_register(["1", "0"])
        assert state.amps[0b10] == 1.0

    def test_does_not_alias_caller_array(self):
        pair = np.array([1.0, 0.0], dtype=complex)
        state = sv.init_register([pair])
        sv.apply_gate(state, 0, "X")
        np.testing.assert_allclose(pair, [1.0, 0.0])


class TestGates:
    def test_h_on_zero(self):
        state = sv.apply_gate(sv.init_register(["0"]), 0, "H")
        np.testing.assert_allclose(state.amps, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_z_on_plus(self):
        state = sv.apply_gate(sv.init_register(["+"]), 0, "Z")
        np.testing.assert_allclose(state.amps, [INV_SQRT2, -INV_SQRT2], atol=1e-15)

    def test_rz_on_plus(self):
        xi = 0.83
        state = sv.apply_gate(sv.init_register(["+"]), 0, "RZ", xi)
        np.testing.assert_allclose(
            state.amps, [INV_SQRT2, np.exp(1j * xi) * INV_SQRT2], atol=1e-15
        )

    def test_cs_is_cz_at_pi(self):
        state = sv.init_register(["1", "1"])
        sv.apply_controlled_phase(state, 0, 1, math.pi, "CS")
        np.testing.assert_allclose(state.amps, [0, 0, 0, -1], atol=1e-12)

    def test_csx_leaves_01_alone(self):
        state = sv.init_register(["0", "1"])
        sv.apply_controlled_phase(state, 0, 1, 1.234, "CSX")
        np.testing.assert_allclose(state.amps, [0, 1, 0, 0], atol=1e-15)

    def test_csx_phases_10(self):
        theta = 0.4
        state = sv.init_register(["+", "0"])
        sv.apply_controlled_phase(state, 0, 1, math.pi + theta, "CSX")
        expect = [INV_SQRT2, 0, np.exp(1j * (math.pi + theta)) * INV_SQRT2, 0]
        np.testing.assert_allclose(state.amps, expect, atol=1e-15)

    @pytest.mark.parametrize("phi", [0.0, 0.3, math.pi, 4.2])
    def test_csx_identity(self, phi):
        # CSX_phi == (I x X) CS_phi (I x X), componentwise
        a = random_state(2, seed=hash(phi) % 2**31)
        b = a.copy()
        sv.apply_controlled_phase(a, 0, 1, phi, "CSX")
        sv.apply_gate(b, 1, "X")
        sv.apply_controlled_phase(b, 0, 1, phi, "CS")
        sv.apply_gate(b, 1, "X")
        np.testing.assert_allclose(a.amps, b.amps, atol=1e-12)

    def test_control_equals_target_rejected(self):
        with pytest.raises(ValueError):
            sv.apply_controlled_phase(sv.init_register(["+", "+"]), 1, 1, 0.3)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            sv.apply_gate(sv.init_register(["+"]), 1, "H")

    def test_norm_preserved_by_gate_sequences(self):
        state = random_state(4, seed=3)
        rng = np.random.default_rng(4)
        for _ in range(60):
            q = int(rng.integers(4))
            gate = ["H", "X", "Z", "RZ"][int(rng.integers(4))]
            sv.apply_gate(state, q, gate, angle=float(rng.uniform(0, 7)))
            if rng.random() < 0.5:
                t = int(rng.integers(4))
                if t != q:
                    sv.apply_controlled_phase(state, q, t, float(rng.uniform(0, 7)))
        assert abs(state.norm_squared() - 1.0) < 1e-12


class TestKernelReference:
    """Each kernel against an explicit kron matrix or an index-bit diagonal."""

    N = 5
    H = np.array([[1.0, 1.0], [1.0, -1.0]]) * INV_SQRT2
    GATES = {
        "H": (None, H),
        "X": (None, np.array([[0.0, 1.0], [1.0, 0.0]])),
        "Z": (None, np.diag([1.0, -1.0])),
        "RZ": (0.7, np.diag([1.0, np.exp(0.7j)])),
    }

    def on_qubit(self, q, m):
        return np.kron(np.kron(np.eye(1 << q), m), np.eye(1 << (self.N - q - 1)))

    def bit(self, q):
        return (np.arange(1 << self.N) >> (self.N - 1 - q)) & 1

    @pytest.mark.parametrize("gate", ["H", "X", "Z", "RZ"])
    @pytest.mark.parametrize("q", range(N))
    def test_single_qubit_gates(self, gate, q):
        angle, m = self.GATES[gate]
        state = random_state(self.N, 11)
        expect = self.on_qubit(q, m) @ state.amps
        sv.apply_gate(state, q, gate, angle)
        np.testing.assert_allclose(state.amps, expect, atol=1e-14)

    @pytest.mark.parametrize("variant", ["CS", "CSX"])
    @pytest.mark.parametrize("control, target", list(itertools.permutations(range(N), 2)))
    def test_controlled_phase(self, variant, control, target):
        state = random_state(self.N, 12)
        on = (self.bit(control) == 1) & (self.bit(target) == (1 if variant == "CS" else 0))
        expect = np.where(on, np.exp(0.9j), 1.0) * state.amps
        sv.apply_controlled_phase(state, control, target, 0.9, variant)
        np.testing.assert_allclose(state.amps, expect, atol=1e-14)

    def test_probability_of_bit(self):
        state = random_state(self.N, 13)
        probs = np.abs(state.amps) ** 2
        for q in range(self.N):
            for b in (0, 1):
                expect = probs[self.bit(q) == b].sum()
                assert abs(probability_of_bit(state, q, b) - expect) < 1e-14

    def test_pair_marginals(self):
        state = random_state(self.N, 14)
        probs = np.abs(state.amps) ** 2
        for a in range(self.N):
            for b in range(a + 1, self.N):
                got = sv.pair_marginals(state, a, b)
                expect = [
                    [probs[(self.bit(a) == i) & (self.bit(b) == j)].sum() for j in (0, 1)]
                    for i in (0, 1)
                ]
                np.testing.assert_allclose(got, expect, atol=1e-14)

    @pytest.mark.parametrize("a, b", [(2, 2), (3, 1), (-1, 2), (0, 5)])
    def test_pair_marginals_rejects_bad_pair(self, a, b):
        with pytest.raises(ValueError):
            sv.pair_marginals(random_state(self.N, 15), a, b)


def per_pair_entangle(state, phi, variant):
    for q in range(state.num_qubits - 1):
        sv.apply_controlled_phase(state, q, q + 1, phi, variant)


def gate_route_measure(state, q, basis, xi, outcome):
    """Rz(xi), H, then a Z readout that renormalizes the whole register."""
    if basis == "xi":
        sv.apply_gate(state, q, "RZ", xi)
        sv.apply_gate(state, q, "H")
    prob = probability_of_bit(state, q, outcome)
    state.amps.reshape(1 << q, 2, -1)[:, 1 - outcome] = 0.0
    state.amps /= math.sqrt(prob)
    return prob


def per_qubit_reset(state, assignments):
    for q in sorted(assignments):
        pair = sv._as_pair(assignments[q])
        v = state.amps.reshape(1 << q, 2, -1)
        core = v[:, int(probability_of_bit(state, q, 1) > 0.5)].copy()
        v[:, 0] = core * pair[0]
        v[:, 1] = core * pair[1]


def sliced_extract(state, discard):
    """Slice each discarded qubit down to its definite bit, the highest first,
    so that every lower qubit keeps its place in the index."""
    amps = state.amps
    for q in sorted(discard, reverse=True):
        amps = amps.reshape(1 << q, 2, -1)[:, int(probability_of_bit(state, q, 1) > 0.5)]
    return amps.reshape(-1) / np.linalg.norm(amps)


class TestFusedKernels:
    """The one-pass kernels against the per-gate routes they replace."""

    @pytest.mark.parametrize("theta", [0.0, 0.3, 2.8])
    @pytest.mark.parametrize("variant", ["CS", "CSX"])
    @pytest.mark.parametrize("n", range(2, 14))
    def test_entangle_chain_equals_per_pair_gates(self, n, variant, theta):
        state = random_state(n, 20 + n)
        expect = state.copy()
        per_pair_entangle(expect, math.pi + theta, variant)
        if variant == "CSX":
            pr.entangle_chain(state, theta)
        else:
            # the entangler is CSX only; a CS_phi chain is the CSX chain at
            # -phi = pi - theta (mod 2 pi) times RZ(phi) on all but the last qubit
            pr.entangle_chain(state, -theta)
            for q in range(n - 1):
                sv.apply_gate(state, q, "RZ", math.pi + theta)
        np.testing.assert_allclose(state.amps, expect.amps, rtol=0, atol=1e-12)

    def test_oracle_keeps_no_chain_sized_vector(self):
        # the oracle caches its mask, and nothing else outlives the call: less
        # than one 17-qubit complex vector stays allocated after success_mask(15)
        pr.success_mask.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pr.success_mask(15)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 16 * (1 << 17)

    # tilt: an RZ on the measured qubit first, the rotation that
    # `verify --corrupt-gate` applies to the states it checks
    @pytest.mark.parametrize("tilt", [0.0, 1e-3])
    @pytest.mark.parametrize("basis, xi", [("z", 0.0), ("xi", 0.0), ("xi", 0.31)])
    @pytest.mark.parametrize("outcome", [0, 1])
    @pytest.mark.parametrize("q", range(13))
    def test_measure_equals_gate_route(self, q, outcome, basis, xi, tilt):
        state = random_state(13, 30)
        if tilt:
            sv.apply_gate(state, q, "RZ", tilt)
        expect = state.copy()
        expect_prob = gate_route_measure(expect, q, basis, xi, outcome)
        p0, p1 = sv.measurement_probabilities(state, q, basis, xi)
        assert abs((p0, p1)[outcome] - expect_prob) < 1e-12
        rec, _ = sv.measure(state, q, basis, xi, outcome=outcome)
        assert abs(rec.probability - expect_prob) < 1e-12
        # equal outright, not only up to global phase
        np.testing.assert_allclose(state.amps, expect.amps, rtol=0, atol=1e-12)

    @settings(max_examples=40)
    @given(state=normalized_states(), data=st.data())
    def test_measure_equals_gate_route_property(self, state, data):
        """Every qubit of a random register, the last three included."""
        basis = data.draw(st.sampled_from(["z", "xi"]))
        xi = data.draw(st.floats(-math.pi, math.pi)) if basis == "xi" else 0.0
        for q in range(state.num_qubits):
            rotated = state.copy()
            if basis == "xi":
                sv.apply_gate(rotated, q, "RZ", xi)
                sv.apply_gate(rotated, q, "H")
            probs = [probability_of_bit(rotated, q, m) for m in (0, 1)]
            np.testing.assert_allclose(
                sv.measurement_probabilities(state, q, basis, xi), probs, rtol=0, atol=1e-12
            )
            outcome = data.draw(st.integers(0, 1))
            if probs[outcome] < 1e-3:  # a forced outcome must be possible
                outcome = 1 - outcome
            got, expect = state.copy(), state.copy()
            expect_prob = gate_route_measure(expect, q, basis, xi, outcome)
            rec, _ = sv.measure(got, q, basis, xi, outcome=outcome)
            assert abs(rec.probability - expect_prob) < 1e-12
            np.testing.assert_allclose(got.amps, expect.amps, rtol=0, atol=1e-12)

    @settings(max_examples=40)
    @given(state=normalized_states(), data=st.data())
    def test_reset_and_extract_equal_references_property(self, state, data):
        n = state.num_qubits
        measured = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for q in sorted(measured):
            sv.measure(state, q, rng=rng)
        keep = [q for q in range(n) if q not in measured]
        if keep:
            got = sv.extract_qubits(state, keep)
            np.testing.assert_allclose(
                got.amps, sliced_extract(state, measured), rtol=0, atol=1e-12
            )
        tokens = ["+", "-", "0", "1", (0.6, 0.8j)]
        assignments = {q: data.draw(st.sampled_from(tokens)) for q in sorted(measured)}
        expect = state.copy()
        per_qubit_reset(expect, assignments)
        sv.reset_qubits(state, assignments)
        np.testing.assert_allclose(state.amps, expect.amps, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "targets", [(6,), (0, 5, 12), (1, 2, 3), (2, 3, 9, 10, 12), (8, 9, 10, 11, 12)]
    )
    def test_reset_equals_per_qubit_reset(self, targets):
        state = random_state(13, 40)
        for q in targets:
            sv.measure(state, q, outcome=q % 2)
        tokens = ["+", "-", "0", "1", (0.6, 0.8j)]
        assignments = {q: tokens[i % len(tokens)] for i, q in enumerate(targets)}
        expect = state.copy()
        per_qubit_reset(expect, assignments)
        sv.reset_qubits(state, assignments)
        np.testing.assert_allclose(state.amps, expect.amps, rtol=0, atol=1e-12)

    def test_reset_rejects_non_definite_target(self):
        state = random_state(13, 41)
        sv.measure(state, 4, outcome=0)
        with pytest.raises(ValueError):
            sv.reset_qubits(state, {4: "+", 7: "+"})

    @pytest.mark.parametrize("target", [13, 20, -1, -13])
    def test_reset_rejects_out_of_range_target(self, target):
        state = random_state(13, 42)
        sv.measure(state, 4, outcome=0)
        before = state.amps.copy()
        with pytest.raises(IndexError):
            sv.reset_qubits(state, {4: "+", target: "+"})
        assert np.array_equal(state.amps, before)

    def test_init_register_equals_kron_fold(self):
        rng = np.random.default_rng(50)
        entries = ["+", "-", "0", "1"] + [
            tuple(v / np.linalg.norm(v)) for v in rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        ]
        expect = sv._as_pair(entries[0])
        for e in entries[1:]:
            expect = np.kron(expect, sv._as_pair(e))
        assert np.array_equal(sv.init_register(entries).amps, expect)


class TestPhaseFromInteraction:
    def test_values(self):
        assert phase_from_interaction(1.0, math.pi, 1.0) == pytest.approx(math.pi)
        assert phase_from_interaction(2.0, 1.0, 1.0) == pytest.approx(2.0)
        assert phase_from_interaction(1.0, math.pi + 0.3, 1.0) == pytest.approx(math.pi + 0.3)

    def test_zero_hbar_rejected(self):
        with pytest.raises(ValueError):
            phase_from_interaction(1.0, 1.0, 0.0)


class TestMeasure:
    def test_z_on_plus_probabilities(self):
        p0, p1 = sv.measurement_probabilities(sv.init_register(["+"]), 0)
        assert p0 == pytest.approx(0.5, abs=1e-12)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_completeness_random(self):
        state = random_state(3, seed=9)
        p0, p1 = sv.measurement_probabilities(state, 1, "xi", 0.31)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_collapse_and_record(self):
        state = sv.init_register(["+", "0"])
        rec, state = sv.measure(state, 0, outcome=1)
        assert rec.outcome == 1 and rec.probability == pytest.approx(0.5)
        assert probability_of_bit(state, 0, 1) == pytest.approx(1.0)

    def test_xi_basis_eigenstate(self):
        # m = 0 eigenstate (|0> + e^{-i xi}|1>)/sqrt(2) is deterministic
        xi = 0.77
        state = sv.PureState(1, np.array([INV_SQRT2, np.exp(-1j * xi) * INV_SQRT2]))
        p0, p1 = sv.measurement_probabilities(state, 0, "xi", xi)
        assert p0 == pytest.approx(1.0, abs=1e-12)

    def test_forced_zero_probability_rejected(self):
        state = sv.init_register(["0"])
        with pytest.raises(sv.ForcedOutcomeError):
            sv.measure(state, 0, outcome=1)

    def test_deterministic_streams(self):
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            state = random_state(3, seed=5)
            outs.append([sv.measure(state, q, rng=rng)[0].outcome for q in range(3)])
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("basis", ["z", "xi"])
    def test_unlikely_outcomes_keep_the_norm(self, basis):
        # the kept half is rescaled by its own norm: a rare outcome must not
        # amplify round-off, however many measure/reset rounds follow
        state = random_state(5, seed=7)
        sv.measure(state, 2, outcome=0)
        pair = (math.sqrt(0.05), math.sqrt(0.95))
        if basis == "xi":  # the same p0 in the sigma_x basis
            pair = ((pair[0] + pair[1]) * INV_SQRT2, (pair[0] - pair[1]) * INV_SQRT2)
        for _ in range(50):
            sv.reset_qubits(state, {2: pair})
            rec, _ = sv.measure(state, 2, basis, outcome=0)
            assert rec.probability == pytest.approx(0.05, abs=1e-12)
            assert abs(state.norm_squared() - 1.0) < 1e-13

    @pytest.mark.parametrize("basis", ["z", "xi"])
    def test_drifted_input_rejected(self, basis):
        state = random_state(5, seed=8)
        state.amps *= 1.0 + 1e-6
        with pytest.raises(sv.NormalizationError):
            sv.measure(state, 1, basis, outcome=0)


def per_qubit_x_run(state, first, count, outcomes=None, rng=None):
    """Reference: measure the run in sigma_x one qubit at a time, then slice it away."""
    bits, path = [], 1.0
    for i, q in enumerate(range(first, first + count)):
        forced = None if outcomes is None else outcomes[i]
        rec, state = sv.measure(state, q, "xi", 0.0, outcome=forced, rng=rng)
        bits.append(str(rec.outcome))
        path *= rec.probability
    rest = [q for q in range(state.num_qubits) if not first <= q < first + count]
    return "".join(bits), path, sv.extract_qubits(state, rest)


def every_run(num_qubits):
    """Every (first, count) with count 1-4 that leaves a qubit unmeasured."""
    return [
        (first, count)
        for count in range(1, 5)
        for first in range(num_qubits - count + 1)
        if count < num_qubits
    ]


class TestXRunKernel:
    """One kernel call against the per-qubit measure loop it replaces."""

    @pytest.mark.parametrize("n", range(5, 10))
    def test_sampled_draws_match_per_qubit_loop(self, n):
        for first, count in every_run(n):
            for seed in range(4):
                state = random_state(n, 100 * n + 10 * first + count + seed)
                before = state.amps.copy()
                rng = np.random.default_rng([n, first, count, seed])
                seq, path, kept = measure_x_run(state, first, count, rng=rng)
                assert np.array_equal(state.amps, before)  # the input is not touched
                ref_rng = np.random.default_rng([n, first, count, seed])
                ref_seq, ref_path, ref_kept = per_qubit_x_run(state, first, count, rng=ref_rng)
                assert seq == ref_seq, (first, count, seed)
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                assert path == pytest.approx(ref_path, rel=0, abs=1e-12)
                np.testing.assert_allclose(kept.amps, ref_kept.amps, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [5, 7])
    def test_every_forced_sequence_matches(self, n):
        for first, count in every_run(n):
            state = random_state(n, 10 * first + count)
            total = 0.0
            for m in range(1 << count):
                seq = format(m, f"0{count}b")
                got, path, kept = measure_x_run(state, first, count, outcomes=seq)
                ref_seq, ref_path, ref_kept = per_qubit_x_run(state.copy(), first, count, seq)
                assert got == ref_seq == seq
                assert path == pytest.approx(ref_path, rel=0, abs=1e-12)
                np.testing.assert_allclose(kept.amps, ref_kept.amps, rtol=0, atol=1e-12)
                total += path
            assert total == pytest.approx(1.0, rel=0, abs=1e-12)

    def test_forced_outcomes_as_bits(self):
        state = random_state(5, 3)
        as_str = measure_x_run(state, 1, 3, outcomes="101")
        as_bits = measure_x_run(state, 1, 3, outcomes=(1, 0, 1))
        assert as_str[:2] == as_bits[:2]
        assert np.array_equal(as_str[2].amps, as_bits[2].amps)

    @pytest.mark.parametrize("seq", ["010", "110", "111"])
    def test_zero_probability_forced_outcome_raises(self, seq):
        # qubit 2 holds |+>, so its sigma_x outcome 1 is impossible
        state = sv.init_register([(0.6, 0.8j), "-", "+", "0", "+"])
        with pytest.raises(sv.ForcedOutcomeError):
            measure_x_run(state, 1, 3, outcomes=seq)
        with pytest.raises(sv.ForcedOutcomeError):
            per_qubit_x_run(state.copy(), 1, 3, seq)

    @pytest.mark.parametrize("outcomes", ["01", "0101", "012", [0, 1, 2]])
    def test_malformed_forced_outcomes_rejected(self, outcomes):
        with pytest.raises(ValueError):
            measure_x_run(random_state(5, 4), 1, 3, outcomes=outcomes)

    def test_needs_rng_or_outcomes(self):
        with pytest.raises(ValueError):
            measure_x_run(random_state(5, 4), 1, 3)

    @pytest.mark.parametrize("first, count", [(-1, 2), (4, 2), (0, 0), (3, 3)])
    def test_run_out_of_range_rejected(self, first, count):
        with pytest.raises(IndexError):
            sv.x_branches(random_state(5, 5), first, count)

    def test_whole_register_run_rejected(self):
        with pytest.raises(ValueError):
            measure_x_run(random_state(5, 5), 0, 5, outcomes="00000")

    @pytest.mark.parametrize("outcomes", [None, "011"])
    def test_drifted_input_rejected(self, outcomes):
        state = random_state(5, 6)
        state.amps *= 1.0 + 1e-6
        with pytest.raises(sv.NormalizationError):
            measure_x_run(state, 1, 3, outcomes, rng=np.random.default_rng(1))

    @pytest.mark.parametrize("count", [5, 9])
    def test_long_runs_rotate_in_blocks(self, count):
        # runs longer than one Walsh-Hadamard block equal per-qubit Hadamards
        state = random_state(count + 2, 9)
        expect = state.copy()
        for q in range(1, count + 1):
            sv.apply_gate(expect, q, "H")
        np.testing.assert_allclose(
            sv.x_branches(state, 1, count).reshape(-1), expect.amps, rtol=0, atol=1e-12
        )

    def test_fresh_chain_cache_is_bounded_and_read_only(self):
        # on the fresh |+>|+> pair, whose amplitudes are all 1/2, the maps
        # are the x_branches of a fresh chain
        for theta in np.linspace(0.0, 3.0, 7):
            maps, _ = pr.held_pair_maps(3, theta)
            info = pr.held_pair_maps.cache_info()
            assert info.maxsize == 2 and info.currsize <= info.maxsize
            chain = pr.entangle_chain(sv.init_register(["+"] * 5), theta)
            branches = sv.x_branches(chain, 1, 3).transpose(1, 0, 2).reshape(8, 4)
            np.testing.assert_allclose(0.5 * maps, branches, rtol=0, atol=1e-15)
        with pytest.raises(ValueError):
            pr.held_pair_maps(3, 1.0)[0][0, 0] = 0.0


class TestComparisons:
    def test_global_phase_invisible(self):
        state = random_state(2, seed=1)
        rotated = sv.PureState(2, state.amps * np.exp(0.5j))
        assert sv.fidelity_up_to_global_phase(state, rotated) == pytest.approx(1.0)

    def test_orthogonal(self):
        a = sv.init_register(["0"])
        b = sv.init_register(["1"])
        assert sv.fidelity_up_to_global_phase(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_plus_vs_zero(self):
        assert sv.fidelity_up_to_global_phase(
            sv.init_register(["+"]), sv.init_register(["0"])
        ) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sv.fidelity_up_to_global_phase(sv.init_register(["0"]), sv.init_register(["0", "0"]))


class TestProductCut:
    def test_product(self):
        assert is_product_across_cut(sv.init_register(["0", "+"]), [0])

    def test_bell_is_entangled(self):
        bell = sv.PureState(2, np.array([INV_SQRT2, 0, 0, INV_SQRT2]))
        assert not is_product_across_cut(bell, [0])

    def test_csx_on_chi_one_stays_product(self):
        state = sv.init_register([(0.6, 0.8j), "1"])
        sv.apply_controlled_phase(state, 0, 1, math.pi + 0.4, "CSX")
        assert is_product_across_cut(state, [0])

    def test_trivial_cut_rejected(self):
        with pytest.raises(ValueError):
            is_product_across_cut(sv.init_register(["0", "0"]), [])
        with pytest.raises(ValueError):
            is_product_across_cut(sv.init_register(["0", "0"]), [0, 1])


class TestExtractReset:
    def test_extract_after_measure(self):
        state = sv.init_register([(0.6, 0.8j), "+"])
        sv.measure(state, 1, outcome=0)
        reduced = sv.extract_qubits(state, [0])
        np.testing.assert_allclose(reduced.amps, [0.6, 0.8j], atol=1e-12)

    def test_extract_after_norm_drift(self):
        # gate and measurement round-off leaves norm^2 a few 1e-12 below 1;
        # a definite bit must still read as definite
        state = sv.init_register([(0.6, 0.8j), "1"])
        state.amps *= math.sqrt(1.0 - 3e-12)
        reduced = sv.extract_qubits(state, [0])
        np.testing.assert_allclose(reduced.amps, [0.6, 0.8j], atol=1e-12)

    def test_extract_requires_definite_rest(self):
        with pytest.raises(ValueError):
            sv.extract_qubits(sv.init_register(["+", "+"]), [0])

    def test_reset_roundtrip(self):
        state = sv.init_register(["+", "0", "1"])
        sv.reset_qubits(state, {1: "+", 2: "+"})
        np.testing.assert_allclose(state.amps, sv.init_register(["+", "+", "+"]).amps, atol=1e-12)

    def test_reset_preserves_entangled_rest(self):
        state = sv.init_register(["+", "+", "1"])
        sv.apply_controlled_phase(state, 0, 1, math.pi, "CS")
        sv.reset_qubits(state, {2: "0"})
        expect = sv.init_register(["+", "+", "0"])
        sv.apply_controlled_phase(expect, 0, 1, math.pi, "CS")
        np.testing.assert_allclose(state.amps, expect.amps, atol=1e-12)


def test_embed_pair_with_middles():
    pair = sv.PureState(2, np.array([0.6, 0.0, 0.0, 0.8j]))
    chain = embed_pair_with_plus_middles(pair, 2)
    assert chain.num_qubits == 4
    # ends are qubits 0 and 3; middles uniform
    t = chain.amps.reshape(2, 2, 2, 2)
    np.testing.assert_allclose(t[0, :, :, 0].ravel(), [0.3, 0.3, 0.3, 0.3], atol=1e-12)
    np.testing.assert_allclose(t[1, :, :, 1].ravel(), [0.4j, 0.4j, 0.4j, 0.4j], atol=1e-12)
    assert abs(chain.norm_squared() - 1.0) < 1e-12
