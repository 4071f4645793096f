"""The heralded distillation protocol on an imperfect chain.

A chain of n+2 qubits starts as ``psi ⊗ |+>^(n+1)`` and is entangled by
controlled-phase gates of angle pi + theta between consecutive pairs (left
qubit is the control).  Measuring the middle n qubits in the sigma_x basis
either heralds a perfectly entangled end pair (the theta dependence collapses
to a global phase) or fails, leaving a non-maximally entangled remainder that
can be retried.

Success is decided operationally: an outcome sequence of Hamming weight q
is successful when, at a generic probe angle, it maps every input
``alpha|0> + beta|1>`` to the heralded pair ``(I ⊗ Z^q H) CZ (psi ⊗ |+>) =
alpha|00> + (-1)^q beta|11>`` up to global phase.  The input |+> alone
decides it: the input qubit is never measured and every entangler is
diagonal on it, so the |+> chain's two Z halves on that qubit are the images
of |0> and |1>, and by Cauchy-Schwarz its end pair matches the heralded one
exactly when both images do with one common factor.  The paper's two
construction rules, a recursion on boolean masks, reproduce the same mask
and are compared with it mask to mask; the oracle is canonical.

A dense chain only defines the oracle: the one |+> chain (one
``apply_controlled_phase`` per pair) gives every outcome branch at once
(``branch_tensor``), so ``success_mask``, the one representation of success,
decides all 2**n sequences in one pass.  Every probability reads the
held-pair table: each outcome sequence maps the two held qubits diagonally
(``held_pair_maps``, a product of 2x2 transfer matrices, one per middle),
and ``held_pair_attempt``, the one attempt routine, draws one attempt from
it in place; the heralded teleport's link calls it.  ``held_pair_retry``
draws a run of attempts as those calls would, on the pair's four Born
marginals alone, and returns the factors its basis states take on a
success: the pipeline's fusion retries with it.  ``retry_probabilities``
reads the table.  A retry gives a link up where s * C < 1, s its next success
chance and C the caller's restart cost; ``concatenated_ghz``, retrying on its
dense register, takes C = 1 / ``DEAD_LINK_PROBABILITY``.

All randomness flows through numpy Generators supplied by the caller, so
runs are pure functions of their outcome sources; nothing here shares
mutable state between runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import statevector as sv
from .statevector import (
    PureState,
    apply_controlled_phase,
    apply_gate,
    extract_qubits,
    init_register,
    measure,
)

# Generic probe angle for the oracle; deliberately incommensurate with pi so
# that an accidental phase coincidence cannot fake a success.
PROBE_THETA = 1.2345

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class RetryLimitError(RuntimeError):
    """A run stopped before it completed: a retry cap was exhausted, or a 2D
    growth failure run ate a row back to lattice structure it must keep."""


def _check_odd_n(n: int, bounded: bool = True) -> None:
    """Reject a middle-qubit count the protocol is not defined for and, unless
    the caller allocates nothing (``bounded=False``), one whose (n+2)-qubit
    chain exceeds ``sv.MAX_QUBITS``, before anything is allocated."""
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be an odd integer >= 1")
    largest = sv.MAX_QUBITS - 3 + sv.MAX_QUBITS % 2  # the largest odd n <= MAX_QUBITS - 2
    if bounded and n > largest:
        raise ValueError(f"n must be <= {largest} (MAX_QUBITS={sv.MAX_QUBITS})")


def _input_pair(input_state) -> np.ndarray:
    if isinstance(input_state, PureState):
        if input_state.num_qubits != 1:
            raise ValueError("input must be a single-qubit state")
        return input_state.amps.copy()
    return sv._as_pair(input_state)


def build_imperfect_chain(input_state, n: int, theta: float) -> PureState:
    """(n+2)-qubit chain: psi on qubit 0, |+> elsewhere, entangled left to right.

    All the controlled-phase factors commute, so the application order is
    irrelevant; the test suite asserts this on small cases.
    """
    _check_odd_n(n)
    pair = _input_pair(input_state)
    state = init_register([pair] + ["+"] * (n + 1))
    return entangle_chain(state, theta)


def entangle_chain(state: PureState, theta: float) -> PureState:
    """Apply the imperfect CSX entangler to every consecutive pair of the register."""
    for q in range(state.num_qubits - 1):
        apply_controlled_phase(state, q, q + 1, math.pi + theta)
    return state


def branch_tensor(chain: PureState) -> np.ndarray:
    """Exact amplitudes of every middle-outcome branch at once.

    Rotating each middle qubit by a Hadamard turns its computational index
    into the sigma_x outcome bit, so entry ``[b0, m, bE]`` of the returned
    ``(2, 2**n, 2)`` tensor is the joint amplitude of ends ``(b0, bE)`` with
    the forced outcome sequence ``m`` (qubit 1 is the most significant bit of
    m).  Column norms are branch probabilities.  The oracle reads it; the
    tests check it against forcing the outcomes one measurement at a time.
    """
    return sv.x_branches(chain, 1, chain.num_qubits - 2)


def _odd_parity(n: int) -> np.ndarray:
    """Boolean mask over the 2**n outcome sequences m, true at odd weight."""
    return reduce(np.kron, [np.array([1, -1], dtype=np.int8)] * n) < 0


@lru_cache(maxsize=None)
def success_mask(n: int) -> np.ndarray:
    """The oracle: a read-only boolean mask over the 2**n outcome sequences,
    true where a sequence m heralds the |+> chain's pair: its branch t has
    probability above 1e-12 and fidelity at least 1 - 1e-9 with the heralded
    pair ``(|00> + (-1)^q |11>)/sqrt(2)``, q the parity of m, that is
    ``|t[0, m, 0] + (-1)^q t[1, m, 1]|^2 / 2 >= (1 - 1e-9) * prob``.  All
    branches come from one chain."""
    _check_odd_n(n)
    tens = branch_tensor(build_imperfect_chain("+", n, PROBE_THETA))
    sign = np.where(_odd_parity(n), -1.0, 1.0)  # (-1)^q
    fidelity = np.abs(tens[0, :, 0] + sign * tens[1, :, 1]) ** 2 / 2.0
    prob = (np.abs(tens) ** 2).sum(axis=(0, 2))
    mask = (prob > 1e-12) & (fidelity >= (1.0 - 1e-9) * prob)
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=None)
def enumerate_success_sequences(n: int) -> frozenset:
    """The oracle's success set as bit strings (leftmost character is the
    outcome of the qubit next to the input): the indices of
    :func:`success_mask`, for verify's literal n = 1 and 3 checks and the
    tests."""
    return frozenset(format(m, f"0{n}b") for m in np.flatnonzero(success_mask(n)).tolist())


@lru_cache(maxsize=None)
def rule_based_sequences(n: int) -> np.ndarray:
    """The two construction rules as a read-only boolean mask over the 2**n
    outcome sequences, indexed as :func:`success_mask`: rule (ii)'s words
    ``atom (bit atom)*``, each a shorter such word, either bit and an atom.
    An atom is the seed "1" or, by rule (i), an odd-weight such word s
    wrapped in a pair of 0s, the index ``s << 1``.  No chain and no table."""
    _check_odd_n(n)
    atoms = [np.array([False, True])]  # atoms[k] has length 2k + 1
    for length in range(3, n + 1, 2):
        atom = np.zeros(1 << length, dtype=bool)
        atom[: 1 << (length - 1) : 2] = rule_based_sequences(length - 2) & _odd_parity(length - 2)
        atoms.append(atom)
    mask = atoms[-1].copy()
    for alen in range(1, n - 1, 2):  # prefix, either bit, atom
        mask |= np.kron(rule_based_sequences(n - alen - 1), np.tile(atoms[alen // 2], 2))
    mask.flags.writeable = False
    return mask


def success_probability_closed(n: int, theta: float) -> float:
    """Closed-form success probability C(n,(n+1)/2) cos^(n+1)(theta/2) / 2^n."""
    _check_odd_n(n, bounded=False)
    return math.comb(n, (n + 1) // 2) / (1 << n) * math.cos(theta / 2.0) ** (n + 1)


def success_probability_asymptotic(n: int, theta: float) -> float:
    """Stirling approximation sqrt(2/(pi n)) cos^(n+1)(theta/2)."""
    _check_odd_n(n, bounded=False)
    return math.sqrt(2.0 / (math.pi * n)) * math.cos(theta / 2.0) ** (n + 1)


def branch_probabilities(n: int, theta: float) -> np.ndarray:
    """Exact branch probability of every outcome sequence for input |+>, as
    one array indexed by the sequence m: the ends start as ``|+>|+>``, so it
    is the sequence's held-pair weights / 4."""
    return held_pair_maps(n, theta)[1].sum(axis=1) / 4.0


def oracle_success_probability(n: int, theta: float) -> float:
    """Sum of :func:`branch_probabilities` over the oracle's success mask,
    correctly rounded, so no summation order shows."""
    return math.fsum(branch_probabilities(n, theta)[success_mask(n)].tolist())


# ---------------------------------------------------------------------------
# Teleportation

def teleport_target(input_state, xi: float, m: int) -> PureState:
    """Ideal one-bit teleport output ``X^m H Rz(xi) psi``."""
    out = PureState(1, _input_pair(input_state))
    apply_gate(out, 0, "RZ", xi)
    apply_gate(out, 0, "H")
    if m:
        apply_gate(out, 0, "X")
    return out


def one_bit_teleport(
    input_state,
    xi: float,
    theta: float,
    outcome: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[sv.MeasurementRecord, PureState]:
    """One-bit teleportation across a single imperfect controlled-phase link.

    At theta = 0 the output is exactly ``X^m H Rz(xi) psi``; otherwise it is
    the distorted state the link produces, which no input-independent unitary
    can repair.
    """
    state = init_register([_input_pair(input_state), "+"])
    apply_controlled_phase(state, 0, 1, math.pi + theta, "CS")
    rec, state = measure(state, 0, basis="xi", xi=xi, outcome=outcome, rng=rng)
    return rec, extract_qubits(state, [1])


def average_teleport_infidelity(theta: float, sample_count: int, seed: int) -> float:
    """Monte-Carlo infidelity of one-bit teleportation over Haar inputs.

    Both measurement branches are enumerated exactly for each sample and
    weighted by their Born probabilities, so sampling noise comes only from
    the Haar draw.  Converges to sin^2(theta/2) / 2, independently of the
    measurement-basis angle (fixed to 0 here).
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(sample_count, 2)) + 1j * rng.normal(size=(sample_count, 2))
    psi = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    a, b = psi[:, 0], psi[:, 1]

    # chain = CS_(pi+theta) (psi ⊗ |+>); a Hadamard on qubit 0 turns its two
    # index values into the sigma_x outcome, exactly as measure() would.
    phase = np.exp(1j * (math.pi + theta))
    u0 = np.stack([a + b, a + phase * b], axis=1) * 0.5    # outcome 0, unnormalized
    u1 = np.stack([a - b, a - phase * b], axis=1) * 0.5
    t0 = np.stack([a + b, a - b], axis=1) * _INV_SQRT2     # H psi
    t1 = np.stack([a - b, a + b], axis=1) * _INV_SQRT2     # X H psi
    # |<t_m|u_m>|^2 with u unnormalized equals p_m * fidelity_m
    fid = (
        np.abs(np.einsum("sk,sk->s", t0.conj(), u0)) ** 2
        + np.abs(np.einsum("sk,sk->s", t1.conj(), u1)) ** 2
    )
    return float(np.mean(1.0 - fid))


@dataclass
class StochasticTeleportRun:
    success: bool
    m1: int | None
    output: PureState | None


def stochastic_teleport_target(input_state, xi: float, m1: int) -> PureState:
    """Heralded teleport output ``Z^(1-m1) Rz(xi) psi``."""
    out = PureState(1, _input_pair(input_state))
    apply_gate(out, 0, "RZ", xi)
    if (1 - m1) % 2:
        apply_gate(out, 0, "Z")
    return out


def stochastic_teleport(
    input_state,
    xi: float,
    theta: float,
    outcomes=None,
    rng: np.random.Generator | None = None,
) -> StochasticTeleportRun:
    """Heralded perfect teleportation via the n=1 protocol.

    The link is one :func:`held_pair_attempt` on the pair ``psi ⊗ |+>``;
    it heralds where the oracle's mask holds its outcome m2.  ``outcomes``
    may force ``(m2, m1)``.  On success the third qubit holds
    ``Z^(1-m1) Rz(xi) psi`` with fidelity 1 for any theta.
    """
    forced_m2, forced_m1 = (None, None) if outcomes is None else outcomes
    forced = None if forced_m2 is None else (forced_m2,)
    pair = init_register([_input_pair(input_state), "+"])
    m, _ = held_pair_attempt(pair, 0, 1, 1, theta, forced, rng)
    if not success_mask(1)[m]:
        return StochasticTeleportRun(False, None, None)
    rec1, pair = measure(pair, 0, basis="xi", xi=xi, outcome=forced_m1, rng=rng)
    return StochasticTeleportRun(True, rec1.outcome, extract_qubits(pair, [1]))


# ---------------------------------------------------------------------------
# Fail and retry

def held_pair_maps(n: int, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal maps of the outcome sequences on a held end pair, built per call.

    Re-running the protocol between two held qubits maps their joint
    amplitudes elementwise: outcome sequence m scales basis state ``2a + b``
    by ``maps[m, 2a + b]``, unnormalized, because basis ends stay basis ends
    under the diagonal entanglers.  Summing the chain over the middles'
    computational bits makes that factor a product of 2x2 matrices,

        maps[m, 2a + b] = (B S_{m1} B S_{m2} ... S_{mn} B)[a, b] / 2^n,

    with the bond ``B[x, y] = exp(i (pi + theta))`` for ``(x, y) = (1, 0)``
    and 1 otherwise, one CSX link, and ``S_m = diag(1, (-1)^m)`` the sigma_x
    outcome m of a ``|+>`` middle (Gross & Eisert, quant-ph/0609149).  Each
    middle is one matmul of the rows ``(a, m)`` built so far against the
    pair ``(S_0 B, S_1 B) / 2`` side by side, its bit the next least
    significant of m.  The second table is ``|maps|^2``, so the outcome
    weights of a pair are that matrix times its Born marginals; each of its
    columns is a basis pair's outcome distribution and sums to 1.
    """
    _check_odd_n(n)
    # a success map, ~cos(theta/2)^((n+1)/2), is a sum of O(1) terms: where they
    # cancel to three digits or fewer, the product runs in extended precision
    wide = abs(math.cos(theta / 2.0)) ** ((n + 1) / 2) < 1e-3
    phase = -np.exp(1j * (np.longdouble(theta) if wide else theta))  # exactly -1 at theta = 0
    bond = np.array([[1.0, 1.0], [phase, 1.0]])
    # rows b, columns 2 m_j + b': S_1 negates the bond's row 1
    step = np.array([[1.0, 1.0, 1.0, 1.0], [phase, 1.0, -phase, -1.0]]) / 2.0
    partial = bond[:, None]  # [a, m, b], m over the middles so far
    for _ in range(n):
        partial = (partial.reshape(-1, 2) @ step).reshape(2, -1, 2)
    maps = partial.transpose(1, 0, 2).reshape(-1, 4).astype(complex)
    weights = np.abs(maps) ** 2
    for total in weights.sum(axis=0).tolist():
        sv._check_norm_squared(total, 1 << n)
    return maps, weights


def _held_pair_draw(rows, marginals, size: int, outcomes, rng) -> tuple[int, float, float]:
    """The held pair's draw: ``sv.draw_outcome`` on the weight ``rows``
    against the Born marginals, norm-checked as a register of ``size``
    amplitudes.  Returns m, its probability and its weight."""
    p00, p01, p10, p11 = marginals
    weights = [w00 * p00 + w01 * p01 + w10 * p10 + w11 * p11 for w00, w01, w10, w11 in rows]
    sv._check_norm_squared(sum(weights), size)
    m, probability = sv.draw_outcome(weights, outcomes, rng)
    return m, probability, weights[m]


def held_pair_attempt(
    state: PureState, a: int, b: int, n: int, theta: float, outcomes=None, rng=None
) -> tuple[int, float]:
    """One protocol attempt through n fresh middles between held qubits ``a < b``, in place.

    The middles' joint sigma_x outcome is drawn (or forced by ``outcomes``)
    by ``sv.draw_outcome`` on the :func:`held_pair_maps` weights against the
    pair's Born marginals, and the drawn map, rescaled by its own weight,
    updates every amplitude of the register; no middle qubit is built.
    Returns the outcome index m, its first bit the most significant, and its
    probability.  :func:`held_pair_retry` draws a run of them the same way.
    """
    maps, map_weights = held_pair_maps(n, theta)
    marginals = sv.pair_marginals(state, a, b).reshape(4).tolist()
    m, path, w = _held_pair_draw(map_weights.tolist(), marginals, state.amps.size, outcomes, rng)
    sv._split_pair(state, a, b)[...] *= (maps[m] / math.sqrt(w)).reshape(1, 2, 1, 2, 1)
    return m, path


DEAD_LINK_PROBABILITY = 1e-9  # a GHZ link is given up below this success chance


def held_pair_success_probability(marginals: list, p: float) -> float:
    """Chance that one more attempt succeeds on a held pair with Born marginals
    ``(P00, P01, P10, P11)``: the table's success rows sum to ``2p (1, 0, 0, 1)``."""
    return 2.0 * p * (marginals[0] + marginals[3])


@lru_cache(maxsize=2)  # a run reads one (n, theta)
def _retry_tables(n: int, theta: float) -> tuple[tuple, tuple, tuple, float]:
    """:func:`held_pair_retry`'s reads: both tables and the mask as tuples, and p."""
    cells, rows = (tuple(map(tuple, table.tolist())) for table in held_pair_maps(n, theta))
    return cells, rows, tuple(success_mask(n).tolist()), success_probability_closed(n, theta)


def held_pair_retry(
    marginals, n: int, theta: float, rng, limit: int, restart_cost: float
) -> tuple[int, int, tuple | None]:
    """:func:`held_pair_attempt` until one succeeds, on a held pair's four Born
    marginals ``(P00, P01, P10, P11)`` alone, norm-checked as the pipeline's
    16-amplitude ends.  The drawn map rescales them as ``P_k <- w[m, k] P_k /
    weight_m``.  The run stops on a success, after ``limit`` attempts or where
    a restart is worth more: s * C < 1, s the link's next success chance
    (:func:`held_pair_success_probability`), C ``restart_cost``.  Returns the
    attempts, the drawn outcomes' parity and, on a success, the four factors
    the pair's basis states take: the product of the drawn maps, each over the
    square root of its weight.  A link given up returns None in their place."""
    if limit < 1:
        raise RetryLimitError("retry cap exhausted")
    cells, rows, success, p = _retry_tables(n, theta)
    s00, s01, s10, s11, parity = 1.0, 1.0, 1.0, 1.0, 0
    for attempts in range(1, limit + 1):
        m, _, weight = _held_pair_draw(rows, marginals, 16, None, rng)
        parity ^= m.bit_count() & 1
        (w00, w01, w10, w11), (g00, g01, g10, g11) = rows[m], cells[m]
        p00, p01, p10, p11 = marginals
        marginals = (w00 * p00 / weight, w01 * p01 / weight, w10 * p10 / weight, w11 * p11 / weight)
        root = math.sqrt(weight)
        s00, s01, s10, s11 = s00 * g00 / root, s01 * g01 / root, s10 * g10 / root, s11 * g11 / root
        if success[m]:
            return attempts, parity, (s00, s01, s10, s11)
        if held_pair_success_probability(marginals, p) * restart_cost < 1.0:
            break
    return attempts, parity, None


def retry_probabilities(n: int, theta: float, max_failures: int) -> tuple[list, float]:
    """Exact success probabilities after N = 0..max_failures consecutive failures.

    Every branch map g is diagonal on the end pair (``held_pair_maps``), so
    failures f_1..f_N followed by a success s scale end basis state k in
    {00, 01, 10, 11} by ``g[f_1, k] ... g[f_N, k] g[s, k]``.  The probability
    of a history is therefore a sum over k, and the sum over all histories
    factorises per k:

        P_N = sum_k 1/4 * s_k * f_k**N

    with ``w = |g|^2`` the second table, ``s_k`` and ``f_k`` the sums of w
    over the oracle's success and failure sequences, and 1/4 the weight of
    each k in the starting ``|+>|+>`` pair.  As ``s = 2p (1, 0, 0, 1)`` and
    ``s + f = 1``, this equals ``p (1 - 2p)**N``, which sums to 1/2 for every
    p > 0.  Returns the list of P_N values and their partial sum.
    """
    _check_odd_n(n)
    if max_failures < 0:
        raise ValueError("max_failures must be >= 0")
    w = held_pair_maps(n, theta)[1]
    success = success_mask(n)
    s, f = w[success].sum(axis=0), w[~success].sum(axis=0)
    probs = [float(0.25 * np.dot(s, f**k)) for k in range(max_failures + 1)]
    return probs, float(sum(probs))


def retry_probability_closed_n1(theta: float, n_failures: int) -> float:
    """Exact n=1 value cos^2(theta/2) sin^(2N)(theta/2) / 2, used as an oracle."""
    c2 = math.cos(theta / 2.0) ** 2
    s2 = math.sin(theta / 2.0) ** 2
    return 0.5 * c2 * s2**n_failures


# ---------------------------------------------------------------------------
# GHZ concatenation

GHZ_RETRY_CAP = 100_000  # protocol attempts, over every restart of one run


@dataclass
class GhzRun:
    state: PureState  # unmeasured qubits, byproducts already corrected
    restarts: int


def concatenated_ghz(N: int, theta: float, rng: np.random.Generator) -> GhzRun:
    """Chain 2(N-1) successful n=1 protocols into a (2N-1)-qubit GHZ state.

    The register holds 4N-3 qubits; every odd qubit is a protocol middle.
    Failures are retried by re-initializing the middle and re-entangling,
    which never disturbs the amplitude ratio of the qubits already linked.
    A link given up by :func:`held_pair_retry`'s rule on its held qubits, at
    C = 1 / ``DEAD_LINK_PROBABILITY``, rebuilds the whole register.  An n = 1 link
    heralds only on m = 1, so each linked qubit takes one Z byproduct,
    corrected in the returned state.  More than ``GHZ_RETRY_CAP`` protocol
    attempts raise ``RetryLimitError``.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    total = 4 * N - 3
    p = success_probability_closed(1, theta)

    attempts = restarts = 0
    while True:
        state = init_register(["+"] * total)
        for left in range(0, total - 1, 2):
            mid, right = left + 1, left + 2
            outcome = 0
            while not outcome:
                attempts += 1
                if attempts > GHZ_RETRY_CAP:
                    raise RetryLimitError("GHZ retry cap exhausted")
                apply_controlled_phase(state, left, mid, math.pi + theta, "CSX")
                apply_controlled_phase(state, mid, right, math.pi + theta, "CSX")
                marginals = sv.pair_marginals(state, left, right).reshape(4).tolist()
                if held_pair_success_probability(marginals, p) < DEAD_LINK_PROBABILITY:
                    break
                outcome = measure(state, mid, basis="xi", rng=rng)[0].outcome
                if not outcome:
                    sv.reset_qubits(state, {mid: "+"})
            if not outcome:
                break  # the link is dead: rebuild everything
        else:
            reduced = extract_qubits(state, list(range(0, total, 2)))
            for q in range(1, reduced.num_qubits):
                apply_gate(reduced, q, "Z")
            return GhzRun(reduced, restarts)
        restarts += 1


def ghz_target(num_qubits: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2)."""
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[0] = amps[-1] = _INV_SQRT2
    return PureState(num_qubits, amps)
