"""Reference routes that only the tests call.

The program never runs these: outcome probabilities read without
collapsing, the four probe inputs, the heralded pair for any input and the
per-sequence loop that the one-chain vectorized oracle is checked against,
the dense sigma_x run kernel, the dense protocol attempt and the dense
held-pair table that the table is checked against, the
Monte-Carlo fail-and-retry route on a held pair, Monte-Carlo cross-checks
of the closed-form cost model, 1D growth with one draw per attach, target
states of the pipeline's intermediate and reduced stages, the net-growth
threshold, a Schmidt-rank product test, two probes of a graph or a
state, stage 3's retry law by a dict walk on its marginals, the
row-dict writer that the columnar CSV and JSON writer is checked against,
and the Pauli frame of the graph rewrites at every outcome.
Import them as ``from reference import ...``, like the other test-side
helpers.
"""

import math

import numpy as np

from clusterforge import protocol as pr
from clusterforge import statevector as sv
from clusterforge.cli import _fmt, _json_pieces
from clusterforge.growth import (
    STEPS_PROTOCOL_ROUND,
    ClusterGraph,
    GrowthStats,
    _build_three_node_unit,
    _check_growth,
    _fresh_unit_row,
    _row_attach,
    _row_length,
    fuse,
    graph_state_target,
    x_measure_shorten,
    y_join,
    z_remove_leaf,
)
from clusterforge.statevector import PureState, apply_controlled_phase, apply_gate


# ---------------------------------------------------------------------------
# Statevector probes

def probability_of_bit(state: PureState, qubit: int, bit: int) -> float:
    """Z-basis probability of reading ``bit`` on ``qubit``."""
    sl = sv._split(state, qubit)[:, bit].reshape(-1)
    return float(np.vdot(sl, sl).real)


def measurement_probabilities(state: PureState, qubit: int, basis: str = "z", xi: float = 0.0):
    """Outcome probabilities ``(p0, p1)`` of measuring ``qubit``, without
    collapsing: the norms^2 of the state's projections on the basis states,
    ``|0>, |1>`` or ``(|0> +/- exp(-i xi)|1>)/sqrt(2)``."""
    if basis == "z":
        bras = np.eye(2)
    else:
        bras = np.array([[1.0, np.exp(1j * xi)], [1.0, -np.exp(1j * xi)]]) / math.sqrt(2.0)
    halves = np.einsum("mk,ikj->mij", bras, sv._split(state, qubit)).reshape(2, -1)
    return tuple(float(np.vdot(h, h).real) for h in halves)


def phase_from_interaction(g: float, t: float, hbar: float) -> float:
    """Accumulated phase g*t/hbar of an always-on pairwise interaction."""
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    return g * t / hbar


def schmidt_coefficients(state: PureState, left_qubits) -> np.ndarray:
    """Descending Schmidt coefficients across the given bipartition."""
    left = sorted(set(left_qubits))
    n = state.num_qubits
    if any(not 0 <= q < n for q in left):
        raise IndexError("left cut contains an out-of-range qubit")
    if not left or len(left) == n:
        raise ValueError("cut must be a nontrivial bipartition")
    right = [q for q in range(n) if q not in left]
    mat = state.amps.reshape([2] * n).transpose(left + right).reshape(1 << len(left), 1 << len(right))
    return np.linalg.svd(mat, compute_uv=False)


def is_product_across_cut(state: PureState, left_qubits) -> bool:
    """True when the Schmidt rank across the cut is 1 (to tolerance 1e-10)."""
    s = schmidt_coefficients(state, left_qubits)
    return bool(s[0] ** 2 > 1.0 - 1e-10)


# ---------------------------------------------------------------------------
# The oracle, one sequence at a time

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Four states with pairwise independence determine a single-qubit linear map
# up to global phase.
PROBE_INPUTS = (
    (1.0, 0.0),
    (0.0, 1.0),
    (_INV_SQRT2, _INV_SQRT2),
    (_INV_SQRT2, 1j * _INV_SQRT2),
)


def heralded_pair(input_state, q: int) -> PureState:
    """The heralded end-pair state ``(I ⊗ Z^q H) CZ (psi ⊗ |+>)``.

    Works out to ``alpha|00> + (-1)^q beta|11>`` for input
    ``alpha|0> + beta|1>``.
    """
    a, b = pr._input_pair(input_state)
    sign = -1.0 if q % 2 else 1.0
    return PureState(2, np.array([a, 0.0, 0.0, sign * b], dtype=complex))


def loop_oracle(n: int) -> frozenset:
    """``pr.enumerate_success_sequences`` deciding each of the 2**n sequences
    in turn: a sequence succeeds iff for every probe input its branch has
    probability above 1e-12 and its normalized end pair matches the heralded
    map with fidelity at least 1 - 1e-9."""
    alive = {format(m, f"0{n}b") for m in range(1 << n)}
    for probe in PROBE_INPUTS:
        tens = pr.branch_tensor(pr.build_imperfect_chain(probe, n, pr.PROBE_THETA))
        for seq in list(alive):
            branch = tens[:, int(seq, 2), :].reshape(-1)
            prob = float(np.vdot(branch, branch).real)
            if prob <= 1e-12:
                alive.discard(seq)
                continue
            end = PureState(2, branch / math.sqrt(prob))
            target = heralded_pair(probe, seq.count("1"))
            if sv.fidelity_up_to_global_phase(end, target) < 1.0 - 1e-9:
                alive.discard(seq)
    return frozenset(alive)


# ---------------------------------------------------------------------------
# The dense sigma_x run kernel and the dense protocol attempt

def x_weights(branches: np.ndarray) -> list:
    """The outcome weights of ``sv.x_branches``: its column norms^2, as floats."""
    flat = branches.view(float)
    return np.einsum("imj,imj->m", flat, flat).tolist()


def draw_x_run(branches: np.ndarray, outcomes=None, rng=None) -> tuple[str, float, PureState]:
    """Measure a run of qubits in sigma_x, given its ``sv.x_branches``.

    The outcomes are drawn, or forced by ``outcomes``, by ``sv.draw_outcome``
    on the branches' column norms^2.  Those sum to the input's norm^2, which
    must lie within the tolerance of ``sv.measure``'s norm check.  Returns
    the outcome bits, the path probability and the kept column: the
    unmeasured qubits, rescaled by their own norm.
    """
    weights = x_weights(branches)
    sv._check_norm_squared(sum(weights), branches.size)
    index, path = sv.draw_outcome(weights, outcomes, rng)
    kept = branches[:, index, :] / math.sqrt(weights[index])
    seq = format(index, f"0{len(weights).bit_length() - 1}b")
    return seq, path, PureState(kept.size.bit_length() - 1, kept)


def measure_x_run(state: PureState, first: int, count: int, outcomes=None, rng=None):
    """``draw_x_run`` on ``sv.x_branches``: the run's outcome bits, path
    probability and the normalized state of the qubits outside the run."""
    if count >= state.num_qubits:
        raise ValueError("the run must leave at least one qubit unmeasured")
    return draw_x_run(sv.x_branches(state, first, count), outcomes, rng)


def embed_plus_middles(state: PureState, a: int, n_middles: int) -> PureState:
    """The register with ``n_middles`` fresh ``|+>`` qubits inserted after qubit ``a``.

    Qubit a keeps its index and every later qubit moves up by n_middles;
    this is the layout used when a chain is re-entangled between two held
    qubits, a and a later one.
    """
    if not 0 <= a < state.num_qubits - 1:
        raise ValueError("a held qubit must follow qubit a")
    if n_middles < 1:
        raise ValueError("need at least one middle qubit")
    mid = np.full(1 << n_middles, (0.5) ** (n_middles / 2.0), dtype=complex)
    t = state.amps.reshape(2 << a, -1)  # [qubits up to a, the rest]
    amps = (t[:, None, :] * mid[None, :, None]).reshape(-1)
    return PureState(state.num_qubits + n_middles, amps)


def dense_chain(state: PureState, a: int, b: int, n: int, theta: float) -> PureState:
    """n fresh ``|+>`` middles after qubit ``a``, entangled along a, the
    middles and ``b`` (now qubit ``b + n``): the dense protocol chain between
    two held qubits, before its middles are measured."""
    chain = embed_plus_middles(state, a, n)
    for q in range(a, a + n):
        apply_controlled_phase(chain, q, q + 1, math.pi + theta)
    apply_controlled_phase(chain, a + n, b + n, math.pi + theta)
    return chain


def dense_retry(state: PureState, a: int, b: int, n: int, theta: float, outcomes=None, rng=None):
    """``pr.held_pair_attempt`` built densely: ``measure_x_run`` on the
    middles of ``dense_chain``.  Returns the bits, the path probability and
    the kept register, its qubits in their original order."""
    return measure_x_run(dense_chain(state, a, b, n, theta), a + 1, n, outcomes, rng)


def dense_held_pair_maps(n: int, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """``pr.held_pair_maps`` built densely: the chain run on each of the four
    basis end pairs, every outcome branch read off ``pr.branch_tensor``.
    Raises unless every off-diagonal end component vanishes."""
    maps = np.empty((1 << n, 4), dtype=complex)
    for k in range(4):
        a, b = divmod(k, 2)
        chain = embed_plus_middles(PureState(2, np.eye(4, dtype=complex)[k]), 0, n)
        tens = pr.branch_tensor(pr.entangle_chain(chain, theta))
        other = tens.copy()
        other[a, :, b] = 0.0
        if np.max(np.abs(other)) > 1e-12:
            raise AssertionError("held-pair map is not diagonal")
        maps[:, k] = tens[a, :, b]
    return maps, np.abs(maps) ** 2


# ---------------------------------------------------------------------------
# Fail and retry, one Monte-Carlo attempt at a time

class DegenerateInputError(ValueError):
    """The end pair has no amplitude left on |00> and |11>; success is impossible."""


def retry_protocol(
    end_pair: PureState,
    n: int,
    theta: float,
    outcomes=None,
    rng: np.random.Generator | None = None,
) -> tuple[int, float, PureState]:
    """Re-run the protocol between two held end qubits in an arbitrary joint state.

    It is one ``pr.held_pair_attempt`` on a copy of the pair: the sampled
    route beside the exact ``pr.retry_probabilities``.  Returns the outcome
    index m, its path probability and the kept pair; the attempt succeeds
    where ``pr.success_mask(n)`` holds m.  A successful sequence of weight q
    leaves the ends in
    ``(alpha|00> + (-1)^q delta|11>) / sqrt(|alpha|^2 + |delta|^2)``
    regardless of how many earlier attempts failed.  A pair with no
    ``|00>``/``|11>`` amplitude raises :class:`DegenerateInputError`.
    """
    if end_pair.num_qubits != 2:
        raise ValueError("end pair must be a 2-qubit state")
    a00, a11 = end_pair.amps[0], end_pair.amps[3]
    if abs(a00) ** 2 + abs(a11) ** 2 < 1e-12:
        raise DegenerateInputError(
            "no |00>/|11> amplitude left on the end pair; success is impossible"
        )
    pair = end_pair.copy()
    m, path_probability = pr.held_pair_attempt(pair, 0, 1, n, theta, outcomes, rng)
    return m, path_probability, pair


def retry_walk_reference(theta: float, cost: float, floor: float = 1e-16) -> tuple[float, float]:
    """Stage 3 of the pipeline under the rule s * ``cost`` < 1, by a walk on
    its four marginals with every outcome row applied on its own: no failure
    classes are assumed or merged, and states meet only where their
    marginals agree to 14 decimals.  It starts from (1/4, 1/4, 1/4, 1/4) and
    drops states below ``floor``.  Returns the expected attempts and the
    chance of giving up."""
    weights = pr.held_pair_maps(3, theta)[1].tolist()
    success = pr.success_mask(3).tolist()
    p = pr.success_probability_closed(3, theta)
    states = {None: ((0.25, 0.25, 0.25, 0.25), 1.0)}
    attempts = given_up = 0.0
    while states:
        following = {}
        for marginals, mass in states.values():
            attempts += mass
            for row, succeeds in zip(weights, success):
                weight = sum(w * m for w, m in zip(row, marginals))
                if succeeds or not weight:
                    continue
                after = tuple(w * m / weight for w, m in zip(row, marginals))
                if pr.held_pair_success_probability(after, p) * cost < 1.0:
                    given_up += mass * weight
                    continue
                key = tuple(round(m, 14) for m in after)
                following[key] = (after, following.get(key, (None, 0.0))[1] + mass * weight)
        states = {key: state for key, state in following.items() if state[1] > floor}
    return attempts, given_up


# ---------------------------------------------------------------------------
# Graph probes and targets

def check_invariants(graph: ClusterGraph):
    """Every edge is listed at both of its ends, and no node lists itself."""
    for a, nbs in graph._adj.items():
        if a in nbs:
            raise AssertionError("self edge")
        for b in nbs:
            if a not in graph._adj.get(b, ()):
                raise AssertionError(f"edge {a}-{b} is listed only at {a}")


def thirteen_qubit_target() -> PureState:
    """Fused four-qubit state on (0, 4, 8, 12) before the final corrections."""
    state = sv.init_register(["+"] * 4)
    apply_controlled_phase(state, 0, 1, math.pi, "CS")   # CZ(0,4)
    apply_controlled_phase(state, 1, 2, math.pi, "CS")   # CZ(4,8)
    apply_gate(state, 2, "H")                            # trapped Hadamard on 8
    apply_controlled_phase(state, 2, 3, math.pi, "CS")   # CZ(8,12)
    return state


def linear_cluster_target(k: int) -> PureState:
    return graph_state_target(k, [(q, q + 1) for q in range(k - 1)])


# ---------------------------------------------------------------------------
# The Pauli frame of the graph rewrites

class FramedGraph(ClusterGraph):
    """A ``ClusterGraph`` with its Pauli frame, for rewrites at any outcome.

    The program's rewrites are the outcome-0 ones.  Here ``measure_out``
    takes an outcome, and the framed ``fuse``, ``x_measure_shorten``,
    ``z_remove_leaf`` and ``y_join`` take outcomes and fusion parities; each
    runs the program's rewrite for the edge change and adds the byproducts.

    ``z_parity`` is the Pauli frame: applied as Z corrections, it turns the
    physical state into the graph state of the graph.  Outcome 1 of a Z
    measurement leaves a Z byproduct on each former neighbor; a fusion's Z
    byproduct of parity q (the outcome weight summed over every attempt of
    the link) lands on the tip; sigma_x shortening's outcome 1 leaves a Z on
    the new leaf and on its former far neighbors; the Y join's outcome 1
    leaves a Z on both neighbors.  A pending Z moves with the rewrites as
    follows (Hein, Eisert & Briegel, quant-ph/0307130):

    * it commutes with Z measurements and with the diagonal entangling gates of
      a fusion, so it stays put, and one on a measured-out node goes with it;
    * on an X- or Y-measured qubit it flips the outcome, so sigma_x shortening
      and the Y join charge ``outcome ^ parity(node)``;
    * a dangler takes a Hadamard, which turns its Z into an X, and on a leaf X
      equals a Z on the one neighbor (the leaf's stabilizer is X_leaf Z_nb), so
      ``hand_over`` moves the dangler's parity onto the inheritor.
    """

    def __init__(self):
        super().__init__()
        self.z_parity: dict[int, int] = {}

    def flip_parity(self, node: int, bit: int = 1):
        if bit % 2:
            self.z_parity[node] = self.z_parity.get(node, 0) ^ 1

    def _charge(self, nodes, bit: int):
        for node in nodes:
            self.flip_parity(node, bit)

    def measure_out(self, node: int, outcome: int = 0):
        self._charge(self._adj[node], outcome)
        super().measure_out(node)
        self.z_parity.pop(node, None)

    def hand_over(self, dangler: int, inheritor: int):
        super().hand_over(dangler, inheritor)
        self.flip_parity(inheritor, self.z_parity.pop(dangler, 0))

    def fuse(self, tip: int, tail: int, success: bool, parity: int = 0, z_outcomes=(0, 0)):
        """``fuse``: on success the tip takes ``parity``; on failure tip and
        tail are measured out with the given Z outcomes, in that order."""
        before = [(self.neighbors(node), out) for node, out in zip((tip, tail), z_outcomes)]
        fuse(self, tip, tail, success)
        if success:
            self.flip_parity(tip, parity)
        else:
            for nbs, out in before:
                self._charge(nbs & self.nodes, out)

    def x_measure_shorten(self, node: int, keep: int, outcome: int = 0):
        """``x_measure_shorten``: the outcome, flipped by a pending Z on
        ``node``, charges the new leaf and its former far neighbors."""
        outcome ^= self.z_parity.get(node, 0)
        specials = self.neighbors(node) - {keep}
        charged = set().union(specials, *map(self.neighbors, specials)) - {node}
        x_measure_shorten(self, node, keep)
        self._charge(charged, outcome)

    def z_remove_leaf(self, node: int, outcome: int = 0):
        nbs = self.neighbors(node)
        z_remove_leaf(self, node)
        self._charge(nbs, outcome)

    def y_join(self, node: int, outcome: int = 0):
        """``y_join``: the outcome, flipped by a pending Z on ``node``,
        charges both neighbors."""
        outcome ^= self.z_parity.get(node, 0)
        nbs = self.neighbors(node)
        y_join(self, node)
        self._charge(nbs, outcome)


# ---------------------------------------------------------------------------
# Monte-Carlo cross-checks of the cost model

def net_growth_condition(l: int, p: float) -> bool:
    """True when fusing l-link clusters grows the link count on average."""
    if l < 1:
        raise ValueError("l must be >= 1")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    return l > 1.0 / p - 2.0


def mc_pair_prep_attempts(p: float, trials: int, seed: int) -> float:
    """Simultaneous rounds until both of two chains have succeeded."""
    rng = np.random.default_rng([seed, 1])
    return float(np.mean(np.maximum(rng.geometric(p, trials), rng.geometric(p, trials))))


def mc_three_node_protocols(p: float, trials: int, seed: int) -> float:
    """Pair-prep rounds summed over fusion cycles until one unit forms."""
    rng = np.random.default_rng([seed, 2])
    cycles = rng.geometric(p, trials)
    total = int(np.sum(cycles))
    rounds = np.maximum(rng.geometric(p, total), rng.geometric(p, total))
    bounds = np.concatenate(([0], np.cumsum(cycles)[:-1]))
    return float(np.mean(np.add.reduceat(rounds, bounds)))


def mc_length_gain(p: float, trials: int, seed: int) -> float:
    """Two fusion attempts from a freshly buffered chain end, per trial.

    This is the experiment the closed-form gain averages over: a fresh unit
    end buffers exactly one failure.  Uses the real graph rewrites, not the
    formula.
    """
    rng = np.random.default_rng([seed, 3])
    total = 0.0
    for _ in range(trials):
        graph = ClusterGraph()
        row = _fresh_unit_row(graph)
        before = _row_length(row)
        for _attempt in range(2):
            _row_attach(graph, row, iter([bool(rng.random() < p)]))
        total += 0.5 * (_row_length(row) - before)
    return total / trials


def mc_link_balance(p: float, l: int, attempts: int, seed: int) -> float:
    """Mean link change of a growing cluster when fusing l-link path clusters.

    Success merges the small cluster (its l links plus the new bond); failure
    measures out the growing cluster's end qubit.  Each outcome's change is
    counted once on the growing component with the real rewrite, then
    weighted by the number of successes among ``attempts`` Bernoulli draws.
    """
    change = {}
    for success in (False, True):
        graph = ClusterGraph()
        chain = [graph.new_node() for _ in range(4)]
        for a, b in zip(chain, chain[1:]):
            graph.add_edge(a, b)
        small = [graph.new_node() for _ in range(l + 1)]
        for a, b in zip(small, small[1:]):
            graph.add_edge(a, b)
        before = _component_edges(graph, chain[0])
        fuse(graph, chain[-1], small[0], success)
        change[success] = _component_edges(graph, chain[0]) - before
    rng = np.random.default_rng([seed, 4])
    wins = int(np.count_nonzero(rng.random(attempts) < p))
    return (wins * change[True] + (attempts - wins) * change[False]) / attempts


def _component_edges(graph: ClusterGraph, node: int) -> int:
    """Edge count of the component of ``node``: half its degree sum."""
    return graph._sweep(node)[3] // 2


# ---------------------------------------------------------------------------
# 1D growth, one draw per attach

def grow_1d_per_attach(target_length: int, p: float, n: int, rng: np.random.Generator):
    """``growth.grow_1d`` drawing each fusion outcome when its attach runs.

    One ``rng.random() < p`` per growth attempt, then the batched unit
    charge and the paired-gain trace: the results and the stream position
    ``grow_1d`` must match, however it draws its outcomes.
    """
    _check_growth(p)
    if target_length < 3:
        raise ValueError("target_length must be >= 3")
    stats = GrowthStats()
    graph = ClusterGraph()
    row = _fresh_unit_row(graph, n)
    outcomes = iter(lambda: bool(rng.random() < p), None)
    trace = []
    length = _row_length(row)
    while length < target_length:
        success = _row_attach(graph, row, outcomes)
        if success is None:  # a restart opens a gain pair as a success does
            stats.restarts += 1
            success = True
        else:
            stats.growth_attempts += 1
            stats.protocol_applications += 1
            stats.time_steps += STEPS_PROTOCOL_ROUND
        length = _row_length(row)
        trace.append((success, length))
    _build_three_node_unit(stats, p, rng, units=1 + len(trace))

    i = 0
    while i + 1 < len(trace):
        before = trace[i - 1][1] if i else 3
        if (i == 0 or trace[i - 1][0]) and before <= target_length - 5:
            stats.paired_gain_sum += 0.5 * (trace[i + 1][1] - before)
            stats.paired_gain_pairs += 1
            i += 2
        else:
            i += 1

    stats.physical_qubits_used = row.frontier
    stats.final_length = length
    return graph, stats


# ---------------------------------------------------------------------------
# CLI output, one dict per row

def emit_rows(rows: list, args) -> list:
    """``cli._emit`` on a list of row dicts, the form every command built
    before the columnar writer: CSV text with the first row's keys as the
    header, or the JSON text in pieces."""
    if args.fmt == "json":
        return list(_json_pieces(rows))
    if not rows:
        return ["\n"]
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[k]) for k in header))
    return ["\n".join(lines) + "\n"]
