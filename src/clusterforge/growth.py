"""Cluster growth: fusion bookkeeping, the 13-qubit pipeline, 1D/2D growth.

Two levels of description are used and cross-validated:

* amplitude-exact statevector runs for small instances (the 13-qubit
  demonstration pipeline, the rewrite consistency checks), and
* abstract graph rewriting driven by Bernoulli(p) fusion outcomes for large
  Monte-Carlo growth runs, where p is the closed-form protocol success
  probability.

Graph rewrite semantics (verified against the statevector in the tests).
Every rewrite is built from two ``ClusterGraph`` primitives: ``measure_out``
(a Z measurement: the node and its edges go) and ``hand_over`` (the
inheritor takes every edge of the dangler, which stays behind as a leaf on
it).  Each is the outcome-0 rewrite, the one every build runs; the tests'
framed reference carries the Pauli frame of the other outcomes.

* fuse success: the tail always dangles; it hands its edges over to the tip.
* fuse failure: tip and tail are both measured out.
* sigma_x shortening: the measured interior qubit goes; its non-kept
  neighbor hands its far edges over to the kept one and dangles from it.
* Z removal: a degree-1 qubit is measured out.
* Y join: a degree-2 qubit is measured in the Y basis.  Its two neighbors
  become adjacent (local complementation, then deletion) and each takes an
  S^dagger correction.

Cluster length is the node count of the longest simple path.  It is defined
here on forests only, where it is the largest tree diameter and its ends are
degree-1 nodes, so the four-qubit growth unit (a degree-3 hub with three
degree-1 arms) has length 3, not 4.  A finished 2D build is the verified
N x N lattice and reports N * N, its snake path.

A 1D row is a Markov chain on spare flags, one per backbone node below the
end, which never holds a spare.  A success pushes 1, 1 (the old end and the
new hub); a failure clears a flagged top, pops an unflagged one, and on an
empty stack empties the row, which the next step restarts from [0, 1].  The
length is len(flags) + 1 + flags[0].  ``grow_1d`` walks the flags without a
graph; a witness ``ClusterGraph`` mirrors each step through ``_row_attach``,
the graph step ``grow_2d`` moves its rows with, and must agree with the walk.

Both builders take their fusion outcomes from one stream,
``_fusion_outcomes``: blocks of uniforms, rewound after the build to one
uniform per outcome taken.  A unit's preparation cost never changes the
row, so each build then charges all its units in one batched draw.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import KeysView
from dataclasses import dataclass

import numpy as np

from . import statevector as sv
from . import protocol as pr
from .statevector import PureState, apply_controlled_phase, apply_gate
from .protocol import RetryLimitError

# time-step accounting per round of simultaneous operations
STEPS_PROTOCOL_ROUND = 5   # initialize, entangle, rotate, measure, correct
STEPS_SHORTEN_ROUND = 3    # rotate, measure, correct
STEPS_REMOVE_ROUND = 2     # measure, correct

# A 2D row grows MARGIN / gain backbone nodes past the node it works on, gain
# being the mean length gain per attempt.  The row end walks with drift gain,
# so the depth a failure run reaches scales as 1 / gain, and this keeps the
# chance that one eats back to lattice structure about the same at every p:
# 24 nodes at n = 3, theta = 0.3 and 85 at theta = 1.0.
MARGIN = 12.0

# fusion outcomes (growth attempts and 2D link attempts) after which a build
# stops with RetryLimitError where its next block, at most this size, is due
ATTEMPT_CAP = 500_000


# ---------------------------------------------------------------------------
# Abstract graph state

class ClusterGraph:
    """Abstract graph-state bookkeeping: the adjacency of the cluster."""

    def __init__(self):
        self._adj: dict[int, set[int]] = {}
        self._next = 0

    def new_node(self) -> int:
        node = self._next
        self._next += 1
        self._adj[node] = set()
        return node

    @property
    def nodes(self) -> KeysView[int]:
        """Live set-like view of the nodes still in the cluster."""
        return self._adj.keys()

    def neighbors(self, node: int) -> set[int]:
        return set(self._adj[node])

    def degree(self, node: int) -> int:
        return len(self._adj[node])

    def edge_count(self) -> int:
        return sum(len(nb) for nb in self._adj.values()) // 2

    def edges(self) -> set:
        return {frozenset((a, b)) for a, nbs in self._adj.items() for b in nbs}

    def add_edge(self, a: int, b: int):
        if a == b:
            raise ValueError("self edges are not allowed")
        self._adj[a].add(b)
        self._adj[b].add(a)

    def measure_out(self, node: int):
        """Measure ``node`` in the Z basis: drop it and its edges."""
        for nb in self._adj.pop(node):
            self._adj[nb].discard(node)

    def hand_over(self, dangler: int, inheritor: int):
        """Give ``inheritor`` every edge of ``dangler``, which stays as its leaf."""
        for nb in self._adj[dangler]:
            self._adj[nb].discard(dangler)
            if nb != inheritor:  # the even-parity projection toggles a shared edge
                self._adj[inheritor] ^= {nb}
                self._adj[nb] ^= {inheritor}
        self._adj[dangler] = set()
        self.add_edge(inheritor, dangler)

    def longest_segment_length(self) -> int:
        """Node count of the longest simple path.

        On a forest, where a longest path ends at degree-1 nodes, this is
        the largest tree diameter (double BFS; the first sweep also finds
        the component and counts its edges).  A graph with a cycle raises
        ValueError: its longest path is a Hamiltonian-path search,
        exponential in the graph size.
        """
        best = 0
        seen: set[int] = set()
        for start in self._adj:
            if start in seen:
                continue
            far, _, comp, degrees = self._sweep(start)
            seen |= comp
            if degrees // 2 >= len(comp):
                raise ValueError("segment length is defined on forests only")
            best = max(best, self._sweep(far)[1] + 1)
        return best

    def _sweep(self, start: int) -> tuple[int, int, set[int], int]:
        """Breadth-first sweep from ``start``, layer by layer.

        Returns a farthest node (the last one reached), its distance, the
        component of ``start`` and the component's degree sum.
        """
        seen = {start}
        layer = [start]
        depth = degrees = 0
        while True:
            nxt = []
            for v in layer:
                nbs = self._adj[v]
                degrees += len(nbs)
                for nb in nbs:
                    if nb not in seen:
                        seen.add(nb)
                        nxt.append(nb)
            if not nxt:
                return layer[-1], depth, seen, degrees
            layer = nxt
            depth += 1


def three_node(graph: ClusterGraph) -> tuple[int, int, int, int]:
    """Append a fresh growth unit: arms u, w on hub c plus a spare leaf.

    Returns (u, c, w, leaf); the unit has length 3 and one spare leaf.
    """
    u = graph.new_node()
    c = graph.new_node()
    w = graph.new_node()
    lf = graph.new_node()
    graph.add_edge(u, c)
    graph.add_edge(c, w)
    graph.add_edge(c, lf)
    return u, c, w, lf


def fuse(graph: ClusterGraph, tip: int, tail: int, success: bool) -> ClusterGraph:
    """Apply the fusion rewrite for one protocol attempt between tip and tail.

    The tail must be a leaf (degree 1); the tip may have any degree.  On
    success the tail hands its edges over to the tip and dangles from it.
    On failure both qubits are measured out.
    """
    if graph.degree(tail) != 1:
        raise ValueError("tail is not a leaf")
    if tip == tail:
        raise ValueError("tip and tail must differ")
    if success:
        graph.hand_over(tail, tip)
    else:
        graph.measure_out(tip)
        graph.measure_out(tail)
    return graph


def x_measure_shorten(graph: ClusterGraph, node: int, keep: int) -> ClusterGraph:
    """Measure an interior chain qubit in the sigma_x basis.

    Removes two qubits of horizontal length: ``node`` disappears and the
    non-kept neighbor turns into a fresh leaf dangling from the kept one,
    handing its far edges over.
    """
    nbs = graph.neighbors(node)
    if len(nbs) != 2:
        raise ValueError("node is not interior to a linear segment")
    if keep not in nbs:
        raise ValueError("keep must be one of the node's neighbors")
    (special,) = nbs - {keep}
    graph.measure_out(node)
    graph.hand_over(special, keep)
    return graph


def z_remove_leaf(graph: ClusterGraph, node: int) -> ClusterGraph:
    """Disentangle a degree-1 qubit with a sigma_z measurement."""
    if graph.degree(node) != 1:
        raise ValueError("node is not a leaf")
    graph.measure_out(node)
    return graph


def y_join(graph: ClusterGraph, node: int) -> ClusterGraph:
    """Measure a degree-2 qubit in the Y basis, joining its two neighbors.

    The S^dagger each neighbor takes is applied at once.
    """
    nbs = graph.neighbors(node)
    if len(nbs) != 2:
        raise ValueError("node does not have degree 2")
    a, b = nbs
    if b in graph.neighbors(a):
        raise ValueError("the node's neighbors are already adjacent")
    graph.measure_out(node)
    graph.add_edge(a, b)
    return graph


# ---------------------------------------------------------------------------
# Growth statistics and the closed-form cost model

@dataclass
class GrowthStats:
    protocol_applications: int = 0
    time_steps: int = 0
    final_length: int = 0
    physical_qubits_used: int = 0
    # counters used by the cost-model comparisons
    prep_rounds: int = 0
    pair_fusion_attempts: int = 0
    growth_attempts: int = 0
    three_nodes_built: int = 0
    paired_gain_sum: float = 0.0
    paired_gain_pairs: int = 0
    restarts: int = 0


class NoGrowthError(ValueError):
    """A row cannot grow at this success probability."""


def _check_growth(p: float) -> None:
    """Reject a fusion success probability at which a row cannot grow.

    An attach adds four qubits to the row on success (the unit's hub, arm
    and spare, plus its tail, left dangling on the old end) and measures the
    end out on failure, so a row's node count walks with drift 5p - 1, and
    its length, which never exceeds that count, grows only if 5p > 1.  The
    paired-average gain ``expected_length_gain(p)`` crosses zero lower,
    at p = 3 - 2 sqrt(2) ~ 0.172; between the two a build, 1D or 2D, never
    completes and takes fusion outcomes until ``ATTEMPT_CAP`` stops it.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    if 5.0 * p <= 1.0:
        raise NoGrowthError(f"a row cannot grow at p = {p!r}: it needs 5p > 1")


def expected_pair_prep_attempts(p: float) -> float:
    """Mean simultaneous protocol rounds until two neighboring pairs exist."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    return (1.0 + (1.0 - p) / (2.0 - p)) / p


def expected_three_node_protocols(p: float) -> float:
    """Mean pair-preparation rounds summed over the fusion cycles of one unit."""
    return expected_pair_prep_attempts(p) / p


def expected_length_gain(p: float) -> float:
    """Mean length gain per fusion attempt, averaged over attempt pairs.

    Averages the four outcomes of two consecutive attempts from a freshly
    buffered end, each attaching a three-node unit: two successes gain 4,
    exactly one gains 2, two failures cost one unit.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    return 3.0 * p - 0.5 * (1.0 + p * p)


def time_steps_1d(target_length: float, p: float) -> float:
    """Five steps per counted protocol, times protocols per unit length."""
    _check_growth(p)
    gain = expected_length_gain(p)
    return 5.0 * (target_length / gain) * (expected_three_node_protocols(p) + 1.0)


def time_steps_2d(N: int, p: float) -> float:
    """Row growth to length 2N/p plus the constant ten-step assembly tail."""
    if N < 0:
        raise ValueError("N must be >= 0")
    _check_growth(p)  # before 2N / p divides by it
    return time_steps_1d(2 * N / p, p) + 10.0


# ---------------------------------------------------------------------------
# Row machinery shared by 1D and 2D growth

def _frontier(n: int, peak: int) -> int:
    """High-water mark of lattice sites a row spans: truncated territory is
    re-used, so this is the span of its longest backbone, ``peak`` nodes."""
    return (3 * n + 4) + ((peak - 3) // 2) * (4 * n + 4)


@dataclass
class _Row:
    """A row on a graph; ``backbone[i] in spares`` below its end are its 1D flags."""
    backbone: list    # node ids in chain order
    spares: dict      # backbone node id -> spare leaf hanging on it
    n: int = 3           # middle qubits per protocol chain, sets the site count
    protected: int = 0   # backbone prefix length that must survive
    peak: int = 3        # high-water mark of the backbone length

    @property
    def frontier(self) -> int:
        return _frontier(self.n, self.peak)


def _fresh_unit_row(graph: ClusterGraph, n: int = 3) -> _Row:
    u, c, w, lf = three_node(graph)
    return _Row(backbone=[u, c, w], spares={c: lf}, n=n)


def _row_length(row: _Row) -> int:
    """Cluster length of a 1D row: its backbone plus a spare on its start.

    The row end never holds a spare (``_row_attach`` keeps it so), so only
    the start can add a leaf to the longest path: len(flags) + 1 + flags[0].
    """
    if not row.backbone:
        return 0
    return len(row.backbone) + (row.backbone[0] in row.spares)


def _build_three_node_unit(stats: GrowthStats, p: float, rng, units: int) -> None:
    """Account for preparing ``units`` growth units: pair rounds plus pair fusions.

    Each fusion cycle prepares two pairs in simultaneous rounds; a pair takes
    a Geometric(p) number of protocol applications, so the cycle takes the
    larger of two draws in rounds and their sum in applications, plus one
    fusion attempt.  A unit takes a Geometric(p) number of cycles.  One call
    draws all its units' cycle counts, then all their pairs: the distribution
    of one call per unit, drawn from the stream in another order.
    """
    cycles = int(rng.geometric(p, size=units).sum())
    chains = rng.geometric(p, size=(cycles, 2))
    rounds = int(np.maximum(chains[:, 0], chains[:, 1]).sum())
    stats.prep_rounds += rounds
    stats.pair_fusion_attempts += cycles
    stats.protocol_applications += int(chains.sum()) + cycles
    stats.time_steps += STEPS_PROTOCOL_ROUND * (rounds + cycles)
    stats.three_nodes_built += units


def _fusion_outcomes(rng: np.random.Generator, p: float, block: int):
    """The Bernoulli(p) fusion outcomes of one build, ``block`` uniforms at a time.

    Returns ``(outcomes, rewind)``: an iterator of bools, which raises
    ``RetryLimitError`` where a block is due after more than ``ATTEMPT_CAP``
    outcomes, and a function that returns the number of outcomes taken and
    leaves the generator where it stood before them, advanced by one uniform
    per outcome taken.  The unused rest of the last block is never consumed,
    so the stream reads exactly as if each outcome had drawn its own uniform.
    A block holds 1 to ``ATTEMPT_CAP`` outcomes: a build stops within twice the cap.
    """
    block = max(1, min(block, ATTEMPT_CAP))
    start = rng.bit_generator.state
    drawn = 0
    current = iter(())  # the block being read

    def blocks():
        nonlocal drawn, current
        while True:
            if drawn > ATTEMPT_CAP:
                raise RetryLimitError("growth attempt cap exhausted")
            current = iter((rng.random(block) < p).tolist())
            drawn += block
            yield current

    def rewind() -> int:
        taken = drawn - operator.length_hint(current)
        rng.bit_generator.state = start
        rng.random(taken)
        return taken

    return itertools.chain.from_iterable(blocks()), rewind


def _row_attach(graph: ClusterGraph, row: _Row, outcomes) -> bool | None:
    """Fuse a fresh growth unit onto the end of a row on ``graph``.

    The fusion outcome is the next bool of ``outcomes``; it is returned.  An
    emptied row instead restarts, in place, from the fresh unit, takes no
    outcome and returns None.  No cost is accounted here: the builders
    charge the unit, the attempt or the restart.  The row end never holds a
    spare.  A failure builds no unit (its remnant would not be recycled) and
    measures out the end qubit; the end is then re-derived by promoting the
    spare leaf of the new end node when one exists.  This is the flag walk
    of ``grow_1d`` on node ids.  An attach on a protected end raises
    ``RetryLimitError``: a failure run has eaten the row back to lattice
    structure it must keep.
    """
    backbone = row.backbone
    if backbone:
        success = next(outcomes)
        if len(backbone) <= row.protected:
            raise RetryLimitError("growth failure run reached protected lattice structure")
        if not success:
            graph.measure_out(backbone.pop())
            promoted = row.spares.pop(backbone[-1], None) if backbone else None
            if promoted is not None:
                backbone.append(promoted)
            return False

    u, c, w, lf = three_node(graph)
    if not backbone:  # an emptied row restarts from the fresh unit
        backbone += u, c, w
        row.spares[c] = lf
        return None
    end = backbone[-1]
    fuse(graph, end, u, True)
    row.spares[end] = u
    row.spares[c] = lf
    backbone += c, w
    if len(backbone) > row.peak:  # only a success lengthens the backbone
        row.peak = len(backbone)
    return True


def _row_discard(graph: ClusterGraph, row: _Row, start: int, stop: int | None = None):
    """Measure out the backbone nodes at positions start..stop-1 and their spares."""
    for node in row.backbone[start:stop]:
        spare = row.spares.pop(node, None)
        if spare is not None:
            graph.measure_out(spare)
        graph.measure_out(node)
    del row.backbone[start:stop]


def _shorten_after(graph: ClusterGraph, row: _Row, node: int) -> int:
    """Cut the two backbone nodes after ``node``; return the leaf left on it.

    Their spares are measured out, then a sigma_x measurement of the first
    turns the second into a leaf dangling on ``node``.
    """
    idx = row.backbone.index(node)
    y, z = row.backbone[idx + 1], row.backbone[idx + 2]
    for v in (y, z):
        spare = row.spares.pop(v, None)
        if spare is not None:
            z_remove_leaf(graph, spare)
    x_measure_shorten(graph, y, keep=node)
    del row.backbone[idx + 1 : idx + 3]
    return z


# ---------------------------------------------------------------------------
# 1D growth

def grow_1d(
    target_length: int,
    p: float,
    n: int,
    rng: np.random.Generator,
    graph: ClusterGraph | None = None,
) -> tuple[ClusterGraph | None, GrowthStats]:
    """Monte-Carlo 1D growth by fusing fresh growth units onto a chain.

    Every attempt first builds a unit: two two-qubit clusters prepared in
    simultaneous protocol rounds, then fused (the pair is re-prepared when
    that fusion fails).  A failed growth fusion measures out the chain end,
    which costs length only when the previous attempt also failed.  Stats
    carry both the raw application count and the accounting used by the
    closed-form model (preparation rounds and growth attempts).  ``p`` is
    the fusion success probability and ``n`` the middle-qubit count, which
    sets the qubits a unit spans; a ``p`` at which a row cannot grow raises
    ``NoGrowthError`` before any draw.  The row is its stack of spare flags,
    walked in this loop; a caller that passes an empty ``ClusterGraph`` gets
    a witness row on it that mirrors each step through ``_row_attach``, and
    an ``AssertionError`` where the witness's outcome, length, peak or final
    diameter differs from the walk's.  Returns (graph, stats).

    Every outcome taken from ``_fusion_outcomes`` is a growth attempt.
    After the loop the stream is rewound to one uniform per attempt, and the
    seed unit and one unit per attach are charged in one batched draw.  This
    is exact: a unit's cost is independent of the fusion outcomes and never
    changes the row, so drawing it later changes the order in which the
    stream is consumed, not the stats' distribution.  A row still short of
    its target past ``ATTEMPT_CAP`` attempts raises ``RetryLimitError``.
    """
    _check_growth(p)
    if target_length < 3:
        raise ValueError("target_length must be >= 3")

    row = None if graph is None else _fresh_unit_row(graph, n)
    flags = [0, 1]  # the fresh unit's; [] for a lone end, None for an emptied row
    length = peak = 3
    # one or two blocks at theta = 0.3, n = 3
    outcomes, rewind = _fusion_outcomes(rng, p, 2 * target_length)
    restarts = pairs = 0
    gain_sum = 0.0
    # non-overlapping attempt pairs anchored right after a success measure
    # exactly the quantity the closed-form length gain averages over; pairs
    # too close to the stopping boundary are skipped because their second
    # attempt only exists conditioned on the first one failing
    opened = None  # the row length before the open pair's first attempt
    may_open = True  # at the start, or right after a success or a restart
    while length < target_length:
        before = length
        if flags is None:  # an emptied row restarts from the fresh unit
            flags, success = [0, 1], None
        elif success := next(outcomes):
            flags += 1, 1
            if len(flags) >= peak:
                peak = len(flags) + 1
        elif not flags:
            flags = None
        elif flags[-1]:
            flags[-1] = 0
        else:
            flags.pop()
        length = len(flags) + 1 + flags[0] if flags else 0 if flags is None else 1
        if row is not None and (_row_attach(graph, row, iter([success])) is not success
                                or (_row_length(row), row.peak) != (length, peak)):
            raise AssertionError("the witness row left the flag walk")
        if success is None:  # a restart, which may open a pair as a success does
            restarts += 1
            success = True
        if opened is not None:
            gain_sum += 0.5 * (length - opened)
            pairs += 1
            opened = None
        elif may_open and before <= target_length - 5:
            opened = before
        may_open = success
    attempts = rewind()  # every outcome taken is a growth attempt
    stats = GrowthStats(
        protocol_applications=attempts, time_steps=STEPS_PROTOCOL_ROUND * attempts,
        final_length=length, physical_qubits_used=_frontier(n, peak), growth_attempts=attempts,
        paired_gain_sum=gain_sum, paired_gain_pairs=pairs, restarts=restarts,
    )
    _build_three_node_unit(stats, p, rng, units=1 + attempts + restarts)

    if graph is not None and graph.longest_segment_length() != length:
        raise AssertionError("row length disagrees with the graph diameter")
    return graph, stats


# ---------------------------------------------------------------------------
# Thirteen-qubit demonstration pipeline


def graph_state_target(num_qubits: int, edges) -> PureState:
    """Canonical graph state: |+> everywhere, a CZ per edge."""
    state = sv.init_register(["+"] * num_qubits)
    for a, b in edges:
        apply_controlled_phase(state, a, b, math.pi, "CS")
    return state


@functools.cache
def three_node_target() -> PureState:
    """Graph state of the growth unit on (0, 4, 8, 12): hub at qubit 4.

    Built once and shared, so its amplitudes are read-only."""
    target = graph_state_target(4, [(0, 1), (1, 2), (1, 3)])
    target.amps.flags.writeable = False
    return target


@functools.lru_cache(maxsize=2)  # as pr.held_pair_maps: a run reads one theta
def _chain_tables(theta: float) -> tuple:
    """The tuples :func:`run_thirteen_qubit_pipeline` reads at ``theta``: a
    fresh chain's outcome weights and their running sums, per outcome m the
    read-only cluster pair it leaves (None where m fails), and per pair of
    kept outcomes ``[a][b]`` (chain A's, chain B's) the fusion's tip-tail
    marginals, read off their product as ``sv.pair_marginals`` rounds them."""
    maps = pr.held_pair_maps(3, theta)[0]
    fresh = tuple(pr.branch_probabilities(3, theta).tolist())
    pairs = [None] * len(fresh)
    successes = np.flatnonzero(pr.success_mask(3)).tolist()
    for m in successes:
        pair = PureState(2, maps[m] * (0.5 / math.sqrt(fresh[m])))
        if m.bit_count() & 1:
            apply_gate(pair, 1, "Z")
        pairs[m] = apply_gate(pair, 1, "H").amps
        pairs[m].flags.writeable = False
    fusion_marginals = [[None] * len(fresh) for _ in fresh]
    for a, b in itertools.product(successes, repeat=2):
        ends = PureState(4, np.multiply.outer(pairs[a], pairs[b]))
        fusion_marginals[a][b] = tuple(sv.pair_marginals(ends, 1, 2).reshape(4).tolist())
    cumulative = tuple(itertools.accumulate(fresh))
    return fresh, cumulative, tuple(pairs), tuple(map(tuple, fusion_marginals))


def _retry_walk(rows, p: float, cost: float) -> tuple[float, float, float, float]:
    """Stage 3 under the rule s * ``cost`` < 1.  Its failure rows are (x, y, y, x):
    class 0 (outcome 000) and class 1 (the rest, summed) fail with ``rows[c]``, x
    in sector X (P00 + P11 = 1; 2p succeeds) and y in Y, weight 1/2 each.  The rule
    keeps j class-1 failures up to a rising line J(t) in the attempt t, and j's
    distribution moves from one rise to the next.  Returns the expected attempts,
    the chance of giving up and the range [low, high) of log(2pC - 1) with its cuts."""
    rho = np.array(rows)[:, :, None]  # rho[class][sector]
    (x0, y0), (x1, y1) = rows  # x0 > 0 and y1 > 0; y0 and x1 are 0 at theta = 0
    gain, loss = math.log(x0 / max(y0, 1e-300)), math.log(max(x1, 1e-300) / y1)
    odds, width = math.log(2.0 * p * cost - 1.0), gain - loss
    last = math.floor(odds / width)  # J(0) >= 0, as 2pC >= 4
    low, high, t, rise, attempts, tables = last * width, (last + 1) * width, 0, 0, np.zeros(2), {}
    mass = 0.5 * np.eye(1, last + 1)[[0, 0]]
    while mass.sum() > 1e-16:  # the rest is left out
        if t + 1 == rise:  # the next failure lands under the raised line
            mass, last = np.hstack([mass, np.zeros((2, 1))]), last + 1
        rise = math.ceil(((last + 1) * width - odds) / gain)  # J(rise) = last + 1
        low = max(low, (last + 1) * width - rise * gain)
        high = min(high, (last + 1) * width - (rise - 1) * gain)
        steps = min(rise - t - 1, 4096)  # failures that all land under J = last
        if steps not in tables:  # j's spread over them, cut below 1e-30, and attempts at j or less
            spread, visits = np.eye(2, steps + 1)[[0, 0]], np.zeros((2, steps + 1))
            for _ in range(steps):
                visits += spread
                spread = rho[0] * spread + np.hstack([np.zeros((2, 1)), rho[1] * spread[:, :-1]])
            kept = 1 + np.flatnonzero(spread.max(0) > 1e-30).max()
            tables[steps] = spread[:, :kept], visits.cumsum(1)
        spread, visited = tables[steps]
        attempts += (mass * visited[:, np.minimum(np.arange(last, -1, -1), steps)]).sum(axis=1)
        mass = np.array([np.convolve(m, s)[: last + 1] for m, s in zip(mass, spread)])
        t += steps
    return float(attempts.sum()), float(1.0 - 2.0 * p * attempts[0] - mass.sum()), low, high


@functools.lru_cache(maxsize=2)  # as _chain_tables
def _restart_cost(theta: float) -> float:
    """C(theta), a run's expected protocol applications when its fusion gives up where
    s * C < 1: the fixed point of C = (2/p + E3) / (1 - P_g), E3 and P_g from the walk,
    which starts where every fusion does, at marginals (1/4, 1/4, 1/4, 1/4)."""
    p = pr.success_probability_closed(3, theta)
    w = pr.held_pair_maps(3, theta)[1][~pr.success_mask(3)]  # the failure rows
    if not (np.abs(w - w[:, ::-1]).max() <= 1e-15 >= np.abs(w[1:] - w[1]).max()
            and w[0, 0] > w[0, 1] and w[1, 0] <= w[1, 1]):
        raise AssertionError("stage 3's failure rows are not two classes of the form (x, y, y, x)")
    rows, cost = (w[0, :2], w[1:, :2].sum(axis=0)), 6.0 / p  # a guess
    for _ in range(100):
        attempts, given_up, low, high = _retry_walk(rows, p, cost)
        cost = (2.0 / p + attempts) / (1.0 - given_up)
        if low <= math.log(2.0 * p * cost - 1.0) < high:  # the walk's own rule: a fixed point
            return cost
    raise AssertionError("the restart cost found no fixed point")


def run_thirteen_qubit_pipeline(
    theta: float,
    rng: np.random.Generator,
    retry_cap: int = 10_000,
) -> tuple[PureState, GrowthStats]:
    """Full selective-entanglement demonstration on a 13-qubit register.

    Two five-qubit chains are distilled into two-qubit cluster states behind
    guard qubits, reconnected tip-to-tail through re-initialized middles, and
    fused into the four-qubit growth unit (hub qubit 4, leaf qubit 8).  Chain
    failures rebuild that chain from scratch; fusion failures retry with
    fresh middles until a restart of the whole register is worth more: s * C
    < 1, s the next success chance and C = :func:`_restart_cost` (theta).
    Each simultaneous protocol round costs five time steps.  Returns
    ``(ends, stats)``: ``ends`` is the 4-qubit state of register qubits (0,
    4, 8, 12) with all local corrections applied, hub 4 at position 1 and
    leaf 8, still attached, at position 2; ``stats`` are the run statistics.

    Each stage runs on the qubits live in it: stage 1 on the 5-qubit chains
    0-4 and 8-12, stage 3 on the ends (0, 4, 8, 12) alone.  This is exact
    because whenever the register-wide entangler runs, guard triples holding
    |100> (5-7 in stage 1, a distilled chain's middles 1-3 or 9-11) separate
    the live qubits, and a CSX pair picks up its phase only on |10>: a pair
    whose right qubit is a |1> guard never does, the guard pair (|1>, |0>)
    always does, which is only a global phase, and a pair whose left qubit
    is a |0> guard never does.  So the guards and the fusion record on 5-7
    are never built.

    Every attempt draws one joint sigma_x outcome of its three middles
    (``sv.draw_index``: one uniform, against the outcomes' running weights)
    from one per-theta table, ``pr.held_pair_maps(3, theta)``: X-measured
    middles leave a graph state's chain ends with a diagonal map per outcome
    (Hein, Eisert & Briegel, quant-ph/0307130).

    * Stages 1-2: a failed chain keeps nothing, so every chain attempt is the
      held pair ``|+>|+>`` with fresh middles: its weights are
      ``pr.branch_probabilities``, and a success keeps its map times 1/2,
      rescaled by its weight, which stage 2 turns into a cluster pair (Z on
      qubit 1 at odd parity, then H).  A round is one draw per pending
      chain, chain A first; a failed chain's ends are never drawn.
    * Stage 3: the fusion's retries are one ``pr.held_pair_retry`` on the
      four Born marginals of the tip-tail pair (tip 4, tail 8).  Only a
      successful fusion builds the ends: the two cluster pairs' outer
      product, whose tip-tail basis states then take the retry's factors.

    ``_chain_tables`` holds each stage's reads per theta.  The retry cap is
    checked before every round; stage 3's limit is the applications left.
    """
    stats = GrowthStats()
    stats.physical_qubits_used = 13
    fresh, cumulative, cluster_pairs, fusion_marginals = _chain_tables(theta)

    def protocol_round(attempts: int):
        if stats.protocol_applications >= retry_cap:
            raise RetryLimitError("pipeline retry cap exhausted")
        stats.time_steps += STEPS_PROTOCOL_ROUND
        stats.protocol_applications += attempts

    while True:
        # stages 1-2: distill chains A and B, simultaneously, into cluster pairs
        pending, kept = [0, 1], [0, 0]
        while pending:
            protocol_round(len(pending))
            for key in list(pending):
                kept[key] = sv.draw_index(fresh, cumulative, rng)[0]
                if cluster_pairs[kept[key]] is not None:
                    pending.remove(key)

        # stage 3: fuse tip 4 to tail 8 through fresh middles 5-7, one round per attempt
        limit = retry_cap - stats.protocol_applications  # below 1 raises RetryLimitError
        marginals, cost = fusion_marginals[kept[0]][kept[1]], _restart_cost(theta)  # C once a theta
        attempts, fusion_parity, scales = pr.held_pair_retry(marginals, 3, theta, rng, limit, cost)
        stats.time_steps += STEPS_PROTOCOL_ROUND * attempts
        stats.protocol_applications += attempts
        if scales is None:
            stats.restarts += 1  # a link given up, or the cap, which the next round raises
            continue  # rebuild everything
        ends = PureState(4, np.multiply.outer(cluster_pairs[kept[0]], cluster_pairs[kept[1]]))
        sv._split_pair(ends, 1, 2)[...] *= np.array(scales).reshape(1, 2, 1, 2, 1)

        # stage 4: local corrections; tail 8 becomes the growth-unit leaf
        if fusion_parity:
            apply_gate(ends, 1, "Z")
        apply_gate(ends, 2, "H")
        stats.final_length = 3  # the growth unit: arms 0 and 12 on hub 4, leaf 8
        return ends, stats


# ---------------------------------------------------------------------------
# 2D growth

def grow_2d(
    N: int,
    p: float,
    n: int,
    rng: np.random.Generator,
) -> tuple[ClusterGraph, GrowthStats]:
    """Grow an exact N x N cluster lattice from N horizontal rows.

    Rows grow by growth-unit fusion, and the lattice is linked column by
    column, top to bottom.  A row's next grid node is the first backbone
    node an odd distance past its newest one that carries a spare leaf, so
    that the even gap between them can later be closed by sigma_x shortening.
    Below row 0, that spare (tip) is fused to a spare of the grid node above
    (tail), which is shortened out of the upper row when it has none.  A link
    success leaves the tail dangling on the tip and the tip between the two
    grid nodes; the tail is Z-removed and the tip Y-joined, which makes the
    grid nodes adjacent.  A failure measures out only the two leaves, so no
    row is cut, and the next candidate is tried.  Every growth call grows the
    row ``MARGIN / gain`` backbone nodes past the node it works on, gain being
    the mean length gain per attempt; a failure run that still eats back to a
    grid node raises ``RetryLimitError``, as the attempt cap does, and a
    ``p`` at which a row cannot grow raises ``NoGrowthError`` before any
    draw.  Finally the rows are shortened until consecutive grid nodes are
    adjacent and every dangling qubit is measured out, leaving exactly the
    N x N lattice.  ``p`` is the fusion success probability and ``n`` the
    middle-qubit count of the vertical links.

    The row attaches and the vertical links take their outcomes from one
    ``_fusion_outcomes`` stream.  After the build it is rewound to one
    uniform per outcome taken, and the N seed units and one unit per attach,
    restarts included, are charged in one batched draw, as in ``grow_1d``.
    """
    _check_growth(p)
    if N < 2:
        raise ValueError("N must be >= 2")
    margin = math.ceil(MARGIN / expected_length_gain(p))  # positive where 5p > 1
    stats = GrowthStats()
    graph = ClusterGraph()
    rows = [_fresh_unit_row(graph, n) for _ in range(N)]
    # about 30 outcomes per site at theta = 0.3, n = 3: one or two blocks
    outcomes, rewind = _fusion_outcomes(rng, p, 32 * N * N)

    def grow_to(row, length):
        while len(row.backbone) < length:
            if _row_attach(graph, row, outcomes) is None:
                stats.restarts += 1
            else:
                stats.growth_attempts += 1

    grid: dict[tuple[int, int], int] = {}
    for j in range(N):
        for r, row in enumerate(rows):
            idx = row.protected  # one past the row's newest grid node
            while True:
                grow_to(row, idx + margin)
                node = row.backbone[idx]
                if node not in row.spares:
                    idx += 2
                    continue
                if r == 0:
                    break
                upper, above = grid[(r - 1, j)], rows[r - 1]
                tail = above.spares.pop(upper, None)
                if tail is None:  # shorten the upper row to leave a leaf on its grid node
                    grow_to(above, above.backbone.index(upper) + 3 + margin)
                    stats.time_steps += STEPS_SHORTEN_ROUND
                    tail = _shorten_after(graph, above, upper)
                tip = row.spares.pop(node)
                success = next(outcomes)
                fuse(graph, tip, tail, success)
                if success:
                    # both measurements commute with the rest of the build, so
                    # they run in the final rounds that _trim_to_grid charges
                    z_remove_leaf(graph, tail)
                    y_join(graph, tip)
                    break
                idx += 2
            grid[(r, j)] = node
            row.protected = idx + 1

    taken = rewind()  # the growth attempts and the vertical link attempts
    stats.protocol_applications += taken
    stats.time_steps += STEPS_PROTOCOL_ROUND * taken
    # the seed unit of every row and one unit per attach, restarts included
    _build_three_node_unit(stats, p, rng, units=N + stats.growth_attempts + stats.restarts)
    _trim_to_grid(graph, rows, grid, N, stats)
    _verify_grid(graph, grid, N)
    # every row band owns its chain row plus the n spacer rows used as
    # middles for the vertical fusions below it
    stats.physical_qubits_used = sum(row.frontier for row in rows) * (n + 1)
    # the build ends in the verified lattice, whose longest path is the N * N
    # snake
    stats.final_length = N * N
    return graph, stats


def _trim_to_grid(graph, rows, grid, N, stats):
    # a row's grid nodes sit an odd distance apart and keep no spare: each fed a link
    shorten_waves = 0
    for r in range(N):
        row = rows[r]
        for j in range(N - 1):
            left, right = grid[(r, j)], grid[(r, j + 1)]
            waves = (row.backbone.index(right) - row.backbone.index(left)) // 2
            for _ in range(waves):
                z_remove_leaf(graph, _shorten_after(graph, row, left))
            shorten_waves = max(shorten_waves, waves)
        _row_discard(graph, row, row.backbone.index(grid[(r, N - 1)]) + 1)
        _row_discard(graph, row, 0, row.backbone.index(grid[(r, 0)]))
    stats.time_steps += STEPS_SHORTEN_ROUND * max(1, shorten_waves)
    # the round that runs the links' deferred Z removals and Y joins
    stats.time_steps += STEPS_REMOVE_ROUND


def _verify_grid(graph: ClusterGraph, grid: dict, N: int):
    expected = set()
    for r in range(N):
        for j in range(N):
            if j + 1 < N:
                expected.add(frozenset((grid[(r, j)], grid[(r, j + 1)])))
            if r + 1 < N:
                expected.add(frozenset((grid[(r, j)], grid[(r + 1, j)])))
    if graph.nodes != set(grid.values()) or graph.edges() != expected:
        raise AssertionError("2D growth did not terminate in the exact lattice")
