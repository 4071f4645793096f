"""Graph rewrites, their statevector counterparts, growth and cost model."""

import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterforge import cli
from clusterforge import growth as gr
from clusterforge import protocol as pr
from clusterforge import statevector as sv
from reference import (
    check_invariants,
    grow_1d_per_attach,
    is_product_across_cut,
    linear_cluster_target,
    mc_length_gain,
    mc_link_balance,
    mc_pair_prep_attempts,
    mc_three_node_protocols,
    net_growth_condition,
)
from strategies import graphs, outcome_lists
from test_pipeline import selective_layout

P1, P3, P5 = (pr.success_probability_closed(n, 0.3) for n in (1, 3, 5))


def path_graph(k):
    graph = gr.ClusterGraph()
    nodes = [graph.new_node() for _ in range(k)]
    for a, b in zip(nodes, nodes[1:]):
        graph.add_edge(a, b)
    return graph, nodes


class TestClusterGraph:
    def test_unit_length_is_three(self):
        graph = gr.ClusterGraph()
        gr.three_node(graph)
        assert graph.longest_segment_length() == 3
        assert len(graph.nodes) == 4

    def test_leaf_invariant_checked(self):
        graph, nodes = path_graph(3)
        graph.leaf_flags.add(nodes[1])  # interior node wrongly flagged
        with pytest.raises(AssertionError):
            check_invariants(graph)

    def test_cycle_rejected(self):
        # longest paths are only searched on forests; a cycle would need an
        # exhaustive Hamiltonian-path search
        graph, nodes = path_graph(4)
        graph.add_edge(nodes[0], nodes[-1])
        with pytest.raises(ValueError):
            graph.longest_segment_length()

    def test_segment_length_on_random_forests(self):
        # reference: the largest eccentricity over all nodes, one BFS each
        def diameter_nodes(graph):
            best = 0
            for start in graph.nodes:
                dist, layer = 0, {start}
                seen = set(layer)
                while layer:
                    layer = {nb for v in layer for nb in graph.neighbors(v)} - seen
                    seen |= layer
                    dist += bool(layer)
                best = max(best, dist + 1)
            return best

        rng = np.random.default_rng(61)
        for _ in range(40):
            graph = gr.ClusterGraph()
            nodes = [graph.new_node() for _ in range(int(rng.integers(1, 30)))]
            for i in range(1, len(nodes)):
                if rng.random() < 0.8:  # else node i starts a new tree
                    graph.add_edge(nodes[i], nodes[int(rng.integers(i))])
            assert graph.longest_segment_length() == diameter_nodes(graph)
            if graph.edge_count() < len(nodes) - 1:
                continue
            # a cycle in a later component still raises
            extra = [graph.new_node() for _ in range(3)]
            for a, b in zip(extra, extra[1:] + extra[:1]):
                graph.add_edge(a, b)
            with pytest.raises(ValueError):
                graph.longest_segment_length()

    def test_self_edge_rejected(self):
        graph, nodes = path_graph(2)
        with pytest.raises(ValueError):
            graph.add_edge(nodes[0], nodes[0])


class TestFuseRewrite:
    def test_failure_on_two_pairs(self):
        graph, nodes = path_graph(2)
        other = [graph.new_node() for _ in range(2)]
        graph.add_edge(*other)
        gr.fuse(graph, nodes[1], other[0], success=False)
        assert graph.degree(nodes[0]) == 0 and graph.degree(other[1]) == 0
        assert nodes[1] not in graph.nodes and other[0] not in graph.nodes

    def test_success_designates_tail_leaf(self):
        graph, nodes = path_graph(2)
        other = [graph.new_node() for _ in range(2)]
        graph.add_edge(*other)
        gr.fuse(graph, nodes[1], other[0], success=True)
        # tail's old edge moved onto the tip; tail dangles
        assert graph.neighbors(other[0]) == {nodes[1]}
        assert other[1] in graph.neighbors(nodes[1])
        assert other[0] in graph.leaf_flags
        check_invariants(graph)

    def test_vertical_link_between_leaves(self):
        # fusing a chain node (tip) to a leaf of another chain leaves one leaf
        graph, row_a = path_graph(3)
        row_b_graph = [graph.new_node() for _ in range(3)]
        for a, b in zip(row_b_graph, row_b_graph[1:]):
            graph.add_edge(a, b)
        leaf = graph.new_node(leaf=True)
        graph.add_edge(row_b_graph[1], leaf)
        gr.fuse(graph, row_a[1], leaf, success=True)
        assert row_b_graph[1] in graph.neighbors(row_a[1])  # direct link
        assert graph.neighbors(leaf) == {row_a[1]}
        check_invariants(graph)

    def test_tail_must_be_leaf(self):
        graph, nodes = path_graph(3)
        with pytest.raises(ValueError):
            gr.fuse(graph, nodes[0], nodes[1], success=True)


class TestShortenRewrite:
    def test_five_chain_shortens_by_two(self):
        # measuring the middle qubit turns the 5-chain into a 3-chain + leaf
        graph, nodes = path_graph(5)
        gr.x_measure_shorten(graph, nodes[2], keep=nodes[1])
        assert graph.longest_segment_length() == 3
        assert nodes[3] in graph.leaf_flags
        check_invariants(graph)

    def test_twice_shortens_by_four(self):
        graph, nodes = path_graph(7)
        gr.x_measure_shorten(graph, nodes[5], keep=nodes[4])
        gr.z_remove_leaf(graph, nodes[6])
        gr.x_measure_shorten(graph, nodes[3], keep=nodes[2])
        gr.z_remove_leaf(graph, nodes[4])
        assert graph.longest_segment_length() == 3

    def test_minimal_chain(self):
        graph, nodes = path_graph(3)
        gr.x_measure_shorten(graph, nodes[1], keep=nodes[0])
        assert set(graph.nodes) == {nodes[0], nodes[2]}
        assert nodes[2] in graph.leaf_flags
        assert graph.degree(nodes[0]) == 1

    def test_non_interior_rejected(self):
        graph, nodes = path_graph(3)
        with pytest.raises(ValueError):
            gr.x_measure_shorten(graph, nodes[0], keep=nodes[1])


class TestZRemoval:
    def test_unit_becomes_linear_cluster(self):
        graph = gr.ClusterGraph()
        u, c, w, lf = gr.three_node(graph)
        gr.z_remove_leaf(graph, lf, outcome=1)
        assert graph.longest_segment_length() == 3
        assert graph.z_parity.get(c) == 1
        assert graph.edges() == {frozenset((u, c)), frozenset((c, w))}

    def test_two_chain_leaf(self):
        graph, nodes = path_graph(2)
        gr.z_remove_leaf(graph, nodes[1])
        assert graph.degree(nodes[0]) == 0

    def test_non_leaf_rejected(self):
        graph, nodes = path_graph(3)
        with pytest.raises(ValueError):
            gr.z_remove_leaf(graph, nodes[1])


# ---------------------------------------------------------------------------
# Graph rewrites against the statevector


def fuse_physical(graph_edges_a, graph_edges_b, qubits_a, qubits_b, tip, tail,
                  outcomes, theta=0.3):
    """Run a fusion protocol between two explicit graph states.

    Register layout: qubits_a, one middle, qubits_b.  Returns the corrected
    post-fusion state (success) or the two remnants (failure), plus outcome
    weight parity.
    """
    na, nb = len(qubits_a), len(qubits_b)
    mid = na
    offset_b = na + 1
    total = na + 1 + nb
    state = sv.init_register(["+"] * na + ["+"] + ["+"] * nb)
    for a, b in graph_edges_a:
        sv.apply_controlled_phase(state, qubits_a.index(a), qubits_a.index(b), math.pi, "CS")
    for a, b in graph_edges_b:
        sv.apply_controlled_phase(
            state, offset_b + qubits_b.index(a), offset_b + qubits_b.index(b), math.pi, "CS"
        )
    tip_q = qubits_a.index(tip)
    tail_q = offset_b + qubits_b.index(tail)
    sv.apply_controlled_phase(state, tip_q, mid, math.pi + theta, "CSX")
    sv.apply_controlled_phase(state, mid, tail_q, math.pi + theta, "CSX")
    rec, state = sv.measure(state, mid, basis="xi", xi=0.0, outcome=outcomes)
    return state, rec.outcome, tip_q, tail_q


# rewrite -> (edges of the graph it acts on, its outcomes); fuse failure
# measures tip and tail, so its outcome is the pair of their Z outcomes
FRAME_REWRITES = {
    "fuse_success": ([(0, 1), (2, 3), (3, 4)], (0, 1)),
    "fuse_failure": ([(0, 1), (2, 3), (3, 4)], ((0, 0), (0, 1), (1, 0), (1, 1))),
    "x_shorten": ([(0, 1), (1, 2), (2, 3), (3, 4)], (0, 1)),
    "z_remove": ([(0, 1), (1, 2), (1, 3)], (0, 1)),
    "y_join": ([(0, 1), (1, 2), (2, 3), (3, 4)], (0, 1)),
}
FRAME_CASES = [
    (rewrite, pending, outcome)
    for rewrite, (edges, outcomes) in FRAME_REWRITES.items()
    for pending in (None, *range(1 + max(map(max, edges))))
    for outcome in outcomes
]


def frame_case(rewrite, pending, outcome, theta=0.3):
    """Run one rewrite physically and on the graph, with a pending Z byproduct.

    A Z on node ``pending`` (if any) is applied to the register and recorded
    in ``z_parity`` before the rewrite.  Fusions run the real three-middle
    protocol between tip 1 and tail 2 (success sequences 101 and 010 give
    parity 0 and 1; 000 fails); x_shorten measures node 2 keeping node 1;
    z_remove measures leaf 3; y_join measures node 2 in the Y basis and
    applies S^dagger, RZ(-pi/2), to nodes 1 and 3.  The recorded ``z_parity``
    is then applied as the Z corrections.  Returns the corrected state of the
    live nodes and the rewritten graph.
    """
    edges, _ = FRAME_REWRITES[rewrite]
    size = 1 + max(map(max, edges))
    fusion = rewrite.startswith("fuse")
    qubit = [0, 1, 5, 6, 7] if fusion else list(range(size))  # middles 2..4
    graph = gr.ClusterGraph()
    for _ in range(size):
        graph.new_node()
    for a, b in edges:
        graph.add_edge(a, b)
    state = gr.graph_state_target(qubit[-1] + 1, [(qubit[a], qubit[b]) for a, b in edges])
    if pending is not None:
        sv.apply_gate(state, qubit[pending], "Z")
        graph.flip_parity(pending)

    if fusion:
        tip, tail = 1, 2
        success = rewrite == "fuse_success"
        seq = ("101", "010")[outcome] if success else "000"
        chain = [qubit[tip], 2, 3, 4, qubit[tail]]
        for a, b in zip(chain, chain[1:]):
            sv.apply_controlled_phase(state, a, b, math.pi + theta, "CSX")
        for q, bit in zip(chain[1:-1], seq):
            _, state = sv.measure(state, q, basis="xi", xi=0.0, outcome=int(bit))
        if success:
            sv.apply_gate(state, qubit[tail], "H")  # the tail dangles
            gr.fuse(graph, tip, tail, True, parity=seq.count("1"))
        else:
            for node, bit in zip((tip, tail), outcome):
                _, state = sv.measure(state, qubit[node], basis="z", outcome=bit)
            gr.fuse(graph, tip, tail, False, z_outcomes=outcome)
    elif rewrite == "x_shorten":
        _, state = sv.measure(state, 2, basis="xi", xi=0.0, outcome=outcome)
        sv.apply_gate(state, 3, "H")  # the special neighbor dangles
        gr.x_measure_shorten(graph, 2, keep=1, outcome=outcome)
    elif rewrite == "y_join":
        _, state = sv.measure(state, 2, basis="xi", xi=-math.pi / 2, outcome=outcome)
        for q in (1, 3):
            sv.apply_gate(state, q, "RZ", -math.pi / 2)
        gr.y_join(graph, 2, outcome=outcome)
    else:
        _, state = sv.measure(state, 3, basis="z", outcome=outcome)
        gr.z_remove_leaf(graph, 3, outcome=outcome)

    for node, bit in graph.z_parity.items():
        if bit:
            sv.apply_gate(state, qubit[node], "Z")
    live = sorted(graph.nodes)
    return sv.extract_qubits(state, [qubit[v] for v in live]), graph


class TestRewriteConsistency:
    """Each abstract rewrite matches the corrected physical sequence."""

    def test_fuse_success(self):
        # two 2-qubit cluster states, n = 1 fusion, forced success (weight 1)
        state, q, tip_q, tail_q = fuse_physical(
            [(0, 1)], [(2, 3)], [0, 1], [2, 3], tip=1, tail=2, outcomes=1,
        )
        sv.apply_gate(state, tip_q, "Z")  # weight-1 byproduct
        sv.apply_gate(state, tail_q, "H")
        got = sv.extract_qubits(state, [0, 1, 3, 4])

        graph = gr.ClusterGraph()
        ids = [graph.new_node() for _ in range(4)]
        graph.add_edge(ids[0], ids[1])
        graph.add_edge(ids[2], ids[3])
        gr.fuse(graph, ids[1], ids[2], success=True, parity=1)
        # rebuild the canonical state of the rewritten graph on (0,1,2,3)
        edges = [(ids.index(a), ids.index(b)) for a, b in map(tuple, graph.edges())]
        target = gr.graph_state_target(4, edges)
        assert sv.fidelity_up_to_global_phase(got, target) > 1 - 1e-9

    def test_fuse_failure_leaves_smaller_perfect_clusters(self):
        # 3-chain fused to a 2-chain, forced failure, both ends measured out
        state, q, tip_q, tail_q = fuse_physical(
            [(0, 1), (1, 2)], [(3, 4)], [0, 1, 2], [3, 4], tip=2, tail=3,
            outcomes=0,
        )
        rng = np.random.default_rng(7)
        rec_tip, state = sv.measure(state, tip_q, basis="z", rng=rng)
        rec_tail, state = sv.measure(state, tail_q, basis="z", rng=rng)
        # Z byproducts on the neighbors of the measured qubits
        if rec_tip.outcome:
            sv.apply_gate(state, 1, "Z")
        if rec_tail.outcome:
            sv.apply_gate(state, 5, "Z")
        remnants = sv.extract_qubits(state, [0, 1, 5])
        # left remnant: perfect 2-qubit cluster; right remnant: bare |+>
        target = gr.graph_state_target(3, [(0, 1)])
        assert sv.fidelity_up_to_global_phase(remnants, target) > 1 - 1e-9
        assert is_product_across_cut(remnants, [0, 1])

    @pytest.mark.parametrize("outcome", [0, 1])
    def test_shorten_interior(self, outcome):
        # path of 5, measure qubit 2 (neighbors 1 and 3; 3 is the special one)
        state = linear_cluster_target(5)
        rec, state = sv.measure(state, 2, basis="xi", xi=0.0, outcome=outcome)
        sv.apply_gate(state, 3, "H")
        if outcome:
            sv.apply_gate(state, 3, "Z")
            sv.apply_gate(state, 4, "Z")  # former far neighbor of the special
        got = sv.extract_qubits(state, [0, 1, 3, 4])

        graph, nodes = path_graph(5)
        gr.x_measure_shorten(graph, nodes[2], keep=nodes[1], outcome=outcome)
        assert graph.longest_segment_length() == 3
        edges = sorted(tuple(sorted(e)) for e in graph.edges())
        # expected rewire: 3 dangles on 1, far edge (3,4) moved to (1,4)
        assert edges == [(0, 1), (1, 3), (1, 4)]
        target = gr.graph_state_target(4, [(0, 1), (1, 2), (1, 3)])
        assert sv.fidelity_up_to_global_phase(got, target) > 1 - 1e-9

    @pytest.mark.parametrize("outcome", [0, 1])
    def test_zremove_leaf(self, outcome):
        # growth unit on 4 qubits: hub 1, leaf 3; removing the leaf leaves a
        # 3-qubit linear cluster after the Z byproduct correction
        state = gr.graph_state_target(4, [(0, 1), (1, 2), (1, 3)])
        rec, state = sv.measure(state, 3, basis="z", outcome=outcome)
        if outcome:
            sv.apply_gate(state, 1, "Z")
        got = sv.extract_qubits(state, [0, 1, 2])
        assert sv.fidelity_up_to_global_phase(got, linear_cluster_target(3)) > 1 - 1e-9

    @pytest.mark.parametrize("outcome", [0, 1])
    def test_y_join(self, outcome):
        # path of 5, measure qubit 2 in the Y basis: its neighbors 1 and 3
        # become adjacent after S^dagger on both, and Z on both for outcome 1
        state = linear_cluster_target(5)
        rec, state = sv.measure(state, 2, basis="xi", xi=-math.pi / 2, outcome=outcome)
        assert rec.probability == pytest.approx(0.5)
        for q in (1, 3):
            sv.apply_gate(state, q, "RZ", -math.pi / 2)
            if outcome:
                sv.apply_gate(state, q, "Z")
        got = sv.extract_qubits(state, [0, 1, 3, 4])

        graph, nodes = path_graph(5)
        gr.y_join(graph, nodes[2], outcome=outcome)
        edges = sorted(tuple(sorted(e)) for e in graph.edges())
        assert edges == [(0, 1), (1, 3), (3, 4)]
        assert graph.z_parity == ({1: 1, 3: 1} if outcome else {})
        assert sv.fidelity_up_to_global_phase(got, linear_cluster_target(4)) > 1 - 1e-9

    def test_y_join_needs_two_unjoined_neighbors(self):
        graph, nodes = path_graph(4)
        for node in (nodes[0], nodes[3]):  # degree 1
            with pytest.raises(ValueError):
                gr.y_join(graph, node)
        hub = graph.new_node()
        for node in nodes[:3]:
            graph.add_edge(hub, node)
        with pytest.raises(ValueError):  # degree 3
            gr.y_join(graph, hub)
        triangle, corners = path_graph(3)
        triangle.add_edge(corners[0], corners[2])
        with pytest.raises(ValueError):  # neighbors already adjacent
            gr.y_join(triangle, corners[1])
        assert triangle.edge_count() == 3

    @pytest.mark.parametrize(
        "rewrite, pending, outcome", FRAME_CASES,
        ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_pauli_frame(self, rewrite, pending, outcome):
        """The recorded z_parity is the whole Pauli frame after a rewrite.

        With a pending Z anywhere (or none) and either outcome, applying the
        recorded parities as Z corrections gives the graph state of the
        rewritten graph, and no parity is left on a measured node.
        """
        got, graph = frame_case(rewrite, pending, outcome)
        live = sorted(graph.nodes)
        edges = [(live.index(a), live.index(b)) for a, b in map(tuple, graph.edges())]
        target = gr.graph_state_target(len(live), edges)
        assert sv.fidelity_up_to_global_phase(got, target) > 1 - 1e-9
        assert set(graph.z_parity) <= set(live)

    @settings(max_examples=40)
    @given(graph=graphs(), data=st.data())
    def test_primitives_match_statevector_property(self, graph, data):
        """``measure_out``, ``hand_over`` and ``y_join`` on a random graph with
        random pending Zs, each where it applies, against its physical
        operation on the graph state: a Z measurement; the even-parity
        projection of dangler and inheritor, then a Hadamard on the dangler
        (valid when they share no edge; a shared neighbor's edges toggle, and
        at least one drawn pair shares one when any can); a Y measurement and
        S^dagger on both neighbors (valid when those are not adjacent).  With
        the recorded ``z_parity`` applied as Z corrections, the live qubits
        hold the graph state of the rewritten graph."""
        size = len(graph.nodes)
        start = gr.graph_state_target(size, [tuple(e) for e in graph.edges()])
        for node, bit in graph.z_parity.items():
            if bit:
                sv.apply_gate(start, node, "Z")
        handovers = [
            (d, i) for d, i in itertools.permutations(range(size), 2) if i not in graph.neighbors(d)
        ]
        overlaps = [(d, i) for d, i in handovers if graph.neighbors(d) & graph.neighbors(i)]
        joins = []
        for v in range(size):
            if graph.degree(v) == 2:
                a, b = graph.neighbors(v)
                if b not in graph.neighbors(a):
                    joins.append(v)
        rewrites = ["measure_out"] + ["hand_over"] * bool(handovers) + ["overlap"] * bool(overlaps)
        for rewrite in rewrites + ["y_join"] * bool(joins):
            rewritten, state = copy.deepcopy(graph), start.copy()
            outcome = data.draw(st.integers(0, 1))
            if rewrite == "measure_out":
                node = data.draw(st.integers(0, size - 1))
                sv.measure(state, node, outcome=outcome)
                rewritten.measure_out(node, outcome)
            elif rewrite in ("hand_over", "overlap"):
                pairs = handovers if rewrite == "hand_over" else overlaps
                dangler, inheritor = data.draw(st.sampled_from(pairs))
                view = state.amps.reshape([2] * size)
                for bits in ((0, 1), (1, 0)):
                    index = [slice(None)] * size
                    index[dangler], index[inheritor] = bits
                    view[tuple(index)] = 0.0
                state.amps /= math.sqrt(state.norm_squared())
                sv.apply_gate(state, dangler, "H")
                rewritten.hand_over(dangler, inheritor)
            else:
                node = data.draw(st.sampled_from(joins))
                sv.measure(state, node, basis="xi", xi=-math.pi / 2, outcome=outcome)
                for q in graph.neighbors(node):
                    sv.apply_gate(state, q, "RZ", -math.pi / 2)
                gr.y_join(rewritten, node, outcome=outcome)
            for node, bit in rewritten.z_parity.items():
                if bit:
                    sv.apply_gate(state, node, "Z")
            live = sorted(rewritten.nodes)
            got = sv.extract_qubits(state, live)
            edges = [(live.index(a), live.index(b)) for a, b in map(tuple, rewritten.edges())]
            target = gr.graph_state_target(len(live), edges)
            assert sv.fidelity_up_to_global_phase(got, target) > 1 - 1e-9


class TestRandomizedFuseConsistency:
    @pytest.mark.parametrize("trial", range(8))
    def test_random_trees_and_sequences(self, trial):
        """Fusion rewrite vs physical protocol on random tree pairs.

        Random shapes and a random heralded sequence (weights 1..3); the
        corrected physical state must match the canonical
        state of the rewritten graph.
        """
        rng = np.random.default_rng([55, trial])
        theta = float(rng.uniform(0.1, 1.4))

        def random_tree(size):
            edges = [(int(rng.integers(node)), node) for node in range(1, size)]
            return edges

        size_a = int(rng.integers(2, 5))
        size_b = int(rng.integers(2, 4))
        edges_a = random_tree(size_a)
        edges_b = random_tree(size_b)
        tip = int(rng.integers(size_a))
        leaves_b = [v for v in range(size_b) if sum(v in e for e in edges_b) == 1]
        tail = leaves_b[int(rng.integers(len(leaves_b)))]
        seq = sorted(pr.enumerate_success_sequences(3))[int(rng.integers(3))]

        # physical run: register = A qubits, three middles, B qubits
        mids = [size_a, size_a + 1, size_a + 2]
        off = size_a + 3
        state = sv.init_register(["+"] * (size_a + 3 + size_b))
        for a, b in edges_a:
            sv.apply_controlled_phase(state, a, b, math.pi, "CS")
        for a, b in edges_b:
            sv.apply_controlled_phase(state, off + a, off + b, math.pi, "CS")
        chain = [tip] + mids + [off + tail]
        for a, b in zip(chain, chain[1:]):
            sv.apply_controlled_phase(state, a, b, math.pi + theta, "CSX")
        for q, bit in zip(mids, seq):
            sv.measure(state, q, basis="xi", xi=0.0, outcome=int(bit))
        q_weight = seq.count("1")
        for _ in range(q_weight):
            sv.apply_gate(state, tip, "Z")
        sv.apply_gate(state, off + tail, "H")
        keep = list(range(size_a)) + [off + a for a in range(size_b)]
        got = sv.extract_qubits(state, keep)

        # abstract rewrite on the same shapes
        graph = gr.ClusterGraph()
        ids = [graph.new_node() for _ in range(size_a + size_b)]
        for a, b in edges_a:
            graph.add_edge(ids[a], ids[b])
        for a, b in edges_b:
            graph.add_edge(ids[size_a + a], ids[size_a + b])
        gr.fuse(graph, ids[tip], ids[size_a + tail], True, parity=q_weight)
        target_edges = [
            (ids.index(a), ids.index(b)) for a, b in map(tuple, graph.edges())
        ]
        target = gr.graph_state_target(size_a + size_b, target_edges)
        assert sv.fidelity_up_to_global_phase(got, target) > 1 - 1e-9


class TestSquareClusterEndToEnd:
    def test_four_cycle_from_protocols(self):
        """Statevector growth of the smallest closed lattice at theta = 0.3.

        Builds a five-qubit linear cluster by repeated heralded fusions of
        freshly distilled pairs, then fuses its ends together and removes the
        dangler, leaving the four-qubit square cluster state.  Forced success
        outcomes keep the register small; every fusion is the real protocol.
        """
        theta = 0.3
        # five-qubit path on qubits (0..4) plus two work qubits
        state = sv.init_register(["+"] * 5)
        for q in range(4):
            sv.apply_controlled_phase(state, q, q + 1, math.pi, "CS")
        # append the middle and close the loop: tip = 0, tail = 4
        state = sv.PureState(6, np.kron(state.amps, sv.init_register(["+"]).amps))
        sv.apply_controlled_phase(state, 0, 5, math.pi + theta, "CSX")
        sv.apply_controlled_phase(state, 5, 4, math.pi + theta, "CSX")
        rec, state = sv.measure(state, 5, basis="xi", xi=0.0, outcome=1)
        sv.apply_gate(state, 0, "Z")  # weight-1 byproduct on the tip
        sv.apply_gate(state, 4, "H")  # tail becomes the dangler
        rec, state = sv.measure(state, 4, basis="z", outcome=0)
        got = sv.extract_qubits(state, [0, 1, 2, 3])
        target = gr.graph_state_target(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert sv.fidelity_up_to_global_phase(got, target) > 1 - 1e-9

        # the same moves on the abstract graph end in the same 4-cycle
        graph, nodes = path_graph(5)
        gr.fuse(graph, nodes[0], nodes[4], success=True, parity=1)
        gr.z_remove_leaf(graph, nodes[4])
        assert graph.edges() == {
            frozenset((nodes[0], nodes[1])),
            frozenset((nodes[1], nodes[2])),
            frozenset((nodes[2], nodes[3])),
            frozenset((nodes[0], nodes[3])),
        }


class TestGrow1D:
    def test_deterministic_limit(self):
        graph, stats = gr.grow_1d(31, 1.0, 3, np.random.default_rng(0))
        assert stats.final_length == 31
        assert stats.growth_attempts == 14  # +2 per attempt from length 3
        assert stats.prep_rounds == 15      # one round per unit, 15 units
        assert stats.pair_fusion_attempts == 15

    def test_no_net_growth_rejected(self):
        # the 1D twin of TestGrow2D.test_no_net_growth_rejected
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(gr.NoGrowthError):
            gr.grow_1d(200, 0.19, 3, rng)
        assert rng.bit_generator.state == state
        _, stats = gr.grow_1d(200, 0.21, 3, rng)
        assert stats.final_length >= 200

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda rng: gr.grow_1d(1000, 0.21, 3, rng), id="1d"),
            pytest.param(lambda rng: gr.grow_2d(3, 0.21, 3, rng), id="2d"),
        ],
    )
    def test_attempt_cap(self, monkeypatch, build):
        """Just above p = 0.2 a row creeps: 1000 sites take about 30,000
        attempts, and a 3 x 3 lattice takes more than its first block of
        outcomes.  Past ``ATTEMPT_CAP`` the next block is never drawn."""
        monkeypatch.setattr(gr, "ATTEMPT_CAP", 100)
        with pytest.raises(gr.RetryLimitError, match=r"^growth attempt cap exhausted$"):
            build(np.random.default_rng(1))

    @pytest.mark.parametrize(
        "build, cap",
        [
            pytest.param(lambda rng: gr.grow_1d(200, 0.6, 3, rng), 100, id="1d"),
            pytest.param(lambda rng: gr.grow_2d(2, 0.6, 3, rng), 12, id="2d"),
        ],
    )
    def test_attempt_cap_is_checked_per_block(self, monkeypatch, build, cap):
        """The cap is read only where a block is drawn: a run past the cap
        that ends inside its second block of outcomes is the uncapped run."""
        _, uncapped = build(np.random.default_rng(2))
        assert cap < uncapped.growth_attempts <= 2 * cap
        monkeypatch.setattr(gr, "ATTEMPT_CAP", cap)
        _, capped = build(np.random.default_rng(2))
        assert capped == uncapped

    @pytest.mark.parametrize(
        "build, cap",
        [
            pytest.param(lambda rng: gr.grow_1d(1000, 0.21, 3, rng), 100, id="1d"),
            pytest.param(lambda rng: gr.grow_2d(3, 0.21, 3, rng), 500, id="2d-block-below-cap"),
            pytest.param(lambda rng: gr.grow_2d(4, 0.21, 3, rng), 200, id="2d-block-above-cap"),
        ],
    )
    def test_capped_build_takes_at_most_two_caps(self, monkeypatch, build, cap):
        """A build's blocks hold at most ``ATTEMPT_CAP`` outcomes, so a build
        that never completes stops after more than the cap and at most twice
        it, whether its size asks for a smaller block (2D N = 3: 288) or a
        larger one (1D: 2000 and 2D N = 4: 512, both over twice the cap)."""
        taken = 0
        fusion_outcomes = gr._fusion_outcomes

        def counted(rng, p, block):
            outcomes, rewind = fusion_outcomes(rng, p, block)

            def count():
                nonlocal taken
                for outcome in outcomes:
                    taken += 1
                    yield outcome

            return count(), rewind

        monkeypatch.setattr(gr, "_fusion_outcomes", counted)
        monkeypatch.setattr(gr, "ATTEMPT_CAP", cap)
        with pytest.raises(gr.RetryLimitError, match=r"^growth attempt cap exhausted$"):
            build(np.random.default_rng(1))
        assert cap < taken <= 2 * cap

    def test_length_decreases_only_after_two_consecutive_failures(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            graph = gr.ClusterGraph()
            row = gr._fresh_unit_row(graph)
            prev_len = graph.longest_segment_length()
            prev_failed = False
            for _ in range(60):
                success = bool(rng.random() < 0.4)
                gr._row_attach(graph, row, iter([success]))
                if not row.backbone:
                    break
                length = graph.longest_segment_length()
                if length < prev_len:
                    assert not success and prev_failed
                prev_failed = not success
                prev_len = length

    def test_steady_state_gain_below_paired_average(self):
        """Long-run growth rate of the real process vs the paired average.

        The end-anchored pair average reproduces the closed-form gain
        exactly, but the unconditional per-attempt gain is lower: short
        failure runs cost exactly floor(k/2) length units (spares buffer
        every other loss), while runs of five or more cost extra because a
        success landing on a promoted end leaves a spare-less node below the
        attach point.  A two-state alternation argument therefore gives only
        an upper bound 2p - (1-p)^2/(2-p); both bounds are pinned here so
        the distinction from the closed form stays visible.
        """
        p = P3
        rng = np.random.default_rng(404)
        graph = gr.ClusterGraph()
        row = gr._fresh_unit_row(graph)
        adj = graph._adj  # membership without copying the node set
        attempts = 150_000

        def length():
            ends = int(row.spares.get(row.backbone[0]) in adj)
            ends += int(row.spares.get(row.backbone[-1]) in adj)
            return len(row.backbone) + ends

        run_costs: dict[int, set] = {}
        start = prev = length()
        fail_run, cost = 0, 0
        for _ in range(attempts):
            success = bool(rng.random() < p)
            gr._row_attach(graph, row, iter([success]))
            cur = length()
            if success:
                if fail_run:
                    run_costs.setdefault(fail_run, set()).add(cost)
                fail_run, cost = 0, 0
            else:
                fail_run += 1
                cost += prev - cur
            prev = cur

        for k in (1, 2, 3, 4):
            assert run_costs[k] == {k // 2}, f"run of {k} failures: {run_costs[k]}"
        raw_gain = (length() - start) / attempts
        upper = 2 * p - (1 - p) ** 2 / (2 - p)
        paired = gr.expected_length_gain(p)
        assert 0.9 * upper < raw_gain < upper
        assert raw_gain < 0.95 * paired  # the two conventions genuinely differ

    def test_backbone_tracks_graph_diameter(self):
        # the graph length is the backbone plus a spare hanging off either
        # endpoint (a degree-1 leaf is a valid path endpoint)
        rng = np.random.default_rng(5)
        graph = gr.ClusterGraph()
        row = gr._fresh_unit_row(graph)
        for _ in range(80):
            gr._row_attach(graph, row, iter([bool(rng.random() < 0.5)]))
            if not row.backbone:
                break
            expected = len(row.backbone)
            expected += int(row.spares.get(row.backbone[0]) in graph.nodes)
            expected += int(row.spares.get(row.backbone[-1]) in graph.nodes)
            assert graph.longest_segment_length() == expected

    def test_restarts_are_counted(self):
        # each attach call builds one unit: a growth attempt, or the fresh
        # unit that restarts an emptied row
        restarts = 0
        for seed in range(3):
            _, stats = gr.grow_1d(200, 0.21, 3, np.random.default_rng([7, seed]))
            assert stats.three_nodes_built == 1 + stats.growth_attempts + stats.restarts
            restarts += stats.restarts
        assert restarts > 0

    def test_row_length_tracks_graph_diameter_through_restarts(self):
        # the O(1) row length, which counts only a spare on the row start,
        # against the graph diameter after every attach; at p = 0.22 rows
        # empty and restart from a fresh unit
        restarts = 0
        for seed in range(10):
            rng = np.random.default_rng([6, seed])
            outcomes = iter(lambda: bool(rng.random() < 0.22), None)
            graph = gr.ClusterGraph()
            row = gr._fresh_unit_row(graph)
            for _ in range(200):
                restarts += not row.backbone
                gr._row_attach(graph, row, outcomes)
                assert gr._row_length(row) == graph.longest_segment_length()
        assert restarts > 0

    @pytest.mark.parametrize(
        "target_length, p, n, seeds",
        [
            (200, P3, 3, range(20)),
            (200, 0.21, 3, range(3)),  # rows empty and restart; about nine blocks
            (200, 1.0, 3, range(2)),
            (3, P3, 3, range(2)),  # the seed unit reaches the target: no draw
            (2000, P3, 3, range(2)),  # about 4,300 attempts: two blocks of 4,000
            (8, P3, 3, range(20)),  # a gain pair opens only from length 3 or less
            # the frontier depends on n
            (200, P1, 1, range(5)),
            (200, 0.21, 1, range(3)),
            (200, P5, 5, range(5)),
            (200, 0.21, 5, range(3)),
        ],
    )
    def test_matches_draw_per_attach_reference(self, target_length, p, n, seeds):
        # outcomes drawn in blocks, then rewound, leave the stats, the graph
        # and the generator exactly where one draw per attach leaves them
        for seed in seeds:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            graph, stats = gr.grow_1d(target_length, p, n, rng, graph=gr.ClusterGraph())
            ref_graph, ref_stats = grow_1d_per_attach(target_length, p, n, ref_rng)
            assert stats == ref_stats
            assert graph.nodes == ref_graph.nodes
            assert graph.edges() == ref_graph.edges()
            assert graph.leaf_flags == ref_graph.leaf_flags
            assert graph.z_parity == ref_graph.z_parity
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            if target_length == 3:
                assert stats.growth_attempts == 0

    @pytest.mark.parametrize(
        "target_length, p, n, seeds",
        [
            (200, P3, 3, range(20)),
            (200, 0.21, 3, range(3)),  # rows empty and restart
            (200, 1.0, 3, range(2)),
            (8, P3, 3, range(5)),
            (2000, P3, 3, range(2)),
            (200, P1, 1, range(5)),
            (200, 0.21, 1, range(3)),
            (200, P5, 5, range(5)),
            (200, 0.21, 5, range(3)),
        ],
    )
    def test_graph_free_matches_witness(self, target_length, p, n, seeds):
        # the row grown without a graph gives the stats and stream position of
        # the same row grown on a witness graph, whose diameter is its length
        for seed in seeds:
            rng, witness_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            none, stats = gr.grow_1d(target_length, p, n, rng)
            graph, witness_stats = gr.grow_1d(
                target_length, p, n, witness_rng, graph=gr.ClusterGraph()
            )
            assert none is None
            assert stats == witness_stats
            assert rng.bit_generator.state == witness_rng.bit_generator.state
            assert graph.longest_segment_length() == stats.final_length

    def test_graph_free_path_builds_no_graph(self, monkeypatch, capsys):
        # the CLI's 1D runs read every column off the row: no graph node is
        # made or measured out on the way
        def refuse(*args, **kwargs):
            raise AssertionError("1D growth touched a graph")

        monkeypatch.setattr(gr.ClusterGraph, "new_node", refuse)
        monkeypatch.setattr(gr.ClusterGraph, "measure_out", refuse)
        monkeypatch.setattr(gr, "_row_attach", refuse)
        _, stats = gr.grow_1d(200, P3, 3, np.random.default_rng(3))
        assert stats.final_length >= 200
        argv = ["grow", "--mode", "1d", "--target-length", "200", "--trials", "2"]
        assert cli.main(argv) == 0
        assert "protocols_per_length_raw" in capsys.readouterr().out


    def test_one_unit_charged_per_attach(self, monkeypatch):
        # the batched charge after the loop covers the seed unit and every
        # attach; each unit cycle and growth attempt is one five-step round.
        # A witness build mirrors every step of the flag walk with one attach
        attach = gr._row_attach
        calls = []

        def counting_attach(*args):
            calls.append(1)
            return attach(*args)

        monkeypatch.setattr(gr, "_row_attach", counting_attach)
        for i in range(20):
            calls.clear()
            _, stats = gr.grow_1d(200, P3, 3, np.random.default_rng([23, i]), gr.ClusterGraph())
            assert stats.three_nodes_built == 1 + len(calls)
            assert stats.time_steps == gr.STEPS_PROTOCOL_ROUND * (
                stats.prep_rounds + stats.pair_fusion_attempts + stats.growth_attempts
            )
            assert stats.final_length >= 200


class TestRowInvariant:
    """What every attach leaves behind, in 1D and in 2D growth.

    The row end holds no spare, before an attach as well as after it (a 2D
    link measures out only leaves, so it never cuts a row back to a node
    that carries one), and every recorded spare is a live flagged leaf on
    its backbone node, so spares need no liveness check.  A 1D graph holds
    nothing else: its nodes are the backbone and the spares.
    """

    def test_after_every_attach(self, monkeypatch):
        attach = gr._row_attach
        checked = []
        one_row = True

        def checking_attach(graph, row, outcomes):
            if not row.backbone:  # a restart
                return attach(graph, row, outcomes)
            assert row.backbone[-1] not in row.spares
            before = len(graph.nodes)
            success = attach(graph, row, outcomes)
            if row.backbone:
                assert row.backbone[-1] not in row.spares
            for node, spare in row.spares.items():
                assert spare in graph.nodes and spare in graph.leaf_flags
                assert graph.neighbors(spare) == {node}
            if one_row:
                assert set(graph.nodes) == {*row.backbone, *row.spares.values()}
                # the walk growth._check_growth rests on: +4 or -1 per attach
                assert len(graph.nodes) - before == (4 if success else -1)
            checked.append(success)
            return success

        monkeypatch.setattr(gr, "_row_attach", checking_attach)
        for i in range(20):
            gr.grow_1d(200, P3, 3, np.random.default_rng([21, i]), graph=gr.ClusterGraph())
        grown_1d = len(checked)
        one_row = False
        for i in range(20):
            gr.grow_2d(3, P3, 3, np.random.default_rng([22, i]))
        assert grown_1d > 0 and len(checked) > grown_1d
        assert not all(checked) and any(checked)

    @settings(max_examples=50)
    @given(outcomes=outcome_lists, n=st.sampled_from([1, 3, 5]))
    @example(outcomes=[False] * 5 + [True] * 3, n=3)  # empties the row: a restart
    def test_flag_walk_matches_witness_property(self, outcomes, n):
        """``grow_1d``'s flag walk, fed ``outcomes`` and then successes up to
        its target, and the witness row that mirrors it, step by step.
        ``grow_1d`` checks each step's success, length and peak against the
        witness; here the witness's success is the outcome fed, its length
        is its graph's diameter, its peak is its longest backbone, and its
        frontier is the running max of the lattice sites the backbone spans
        after each success.  The walk's final length and frontier match."""
        target = 2 * len(outcomes) + 5  # past any length the outcomes reach
        stream = [*outcomes, *[True] * target]
        fed, expected = iter(stream), iter(stream)
        steps = []
        frontier, peak = 3 * n + 4, 3
        attach = gr._row_attach

        def fusion_outcomes(rng, p, block):
            return fed, lambda: sum(step is not None for step in steps)

        def checked_attach(graph, row, step_outcomes):
            nonlocal frontier, peak
            restart = not row.backbone
            success = attach(graph, row, step_outcomes)
            assert success is None if restart else success is next(expected)
            assert gr._row_length(row) == graph.longest_segment_length()
            peak = max(peak, len(row.backbone))
            assert row.peak == peak
            if success:
                extent = (3 * n + 4) + ((len(row.backbone) - 3) // 2) * (4 * n + 4)
                frontier = max(frontier, extent)
            assert row.frontier == frontier
            steps.append(success)
            return success

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gr, "_fusion_outcomes", fusion_outcomes)
            mp.setattr(gr, "_row_attach", checked_attach)
            graph, stats = gr.grow_1d(target, 0.5, n, np.random.default_rng(0), gr.ClusterGraph())
        assert stats.growth_attempts >= len(outcomes)  # every outcome was fed
        assert stats.restarts == steps.count(None)
        assert stats.final_length == graph.longest_segment_length() >= target
        assert stats.physical_qubits_used == frontier

    @pytest.mark.parametrize("success", [True, False])
    def test_attach_on_protected_end_raises(self, success):
        # a failure run that eats a row back to its newest grid node stops
        # the build, as the attempt cap does
        graph = gr.ClusterGraph()
        row = gr._fresh_unit_row(graph)
        row.protected = len(row.backbone)
        with pytest.raises(pr.RetryLimitError):
            gr._row_attach(graph, row, iter([success]))


class TestCostModel:
    def test_pair_prep_values(self):
        assert gr.expected_pair_prep_attempts(1.0) == pytest.approx(1.0)
        assert gr.expected_pair_prep_attempts(0.5) == pytest.approx(8.0 / 3.0)
        assert gr.expected_pair_prep_attempts(P3) == pytest.approx(3.8802, abs=5e-4)

    def test_unit_cost_identity(self):
        for p in np.linspace(0.05, 1.0, 12):
            assert gr.expected_three_node_protocols(p) * p == pytest.approx(
                gr.expected_pair_prep_attempts(p), abs=1e-12
            )
        assert gr.expected_three_node_protocols(1.0) == pytest.approx(1.0)
        assert gr.expected_three_node_protocols(P3) == pytest.approx(10.825, abs=1e-3)

    def test_length_gain_values(self):
        assert gr.expected_length_gain(1.0) == pytest.approx(2.0)
        assert gr.expected_length_gain(P3) == pytest.approx(0.5111, abs=1e-4)
        assert gr.expected_length_gain(1e-9) == pytest.approx(-0.5, abs=1e-6)

    def test_net_growth_condition(self):
        assert net_growth_condition(3, 0.375)
        assert not net_growth_condition(1, 0.25)
        assert net_growth_condition(1, 1.0)

    def test_time_steps_1d(self):
        assert gr.time_steps_1d(10.0, 1.0) == pytest.approx(50.0)
        per_len = gr.time_steps_1d(1.0, P3)
        assert per_len == pytest.approx(115.7, abs=0.1)
        with pytest.raises(gr.NoGrowthError):
            gr.time_steps_1d(10.0, 0.05)

    def test_time_steps_share_the_growth_threshold(self):
        # the paired gain is still positive at p = 0.19, but no row grows at
        # 5p <= 1, so the cost model raises where grow_1d and grow_2d do
        assert gr.expected_length_gain(0.19) > 0
        with pytest.raises(gr.NoGrowthError):
            gr.time_steps_1d(1.0, 0.19)
        with pytest.raises(gr.NoGrowthError):
            gr.time_steps_2d(1, 0.19)

    def test_time_steps_2d(self):
        assert gr.time_steps_2d(1, 1.0) == pytest.approx(20.0)
        assert gr.time_steps_2d(0, 1.0) == pytest.approx(10.0)
        coeff = (gr.time_steps_2d(1, P3) - 10.0)
        assert coeff == pytest.approx(645.5, abs=0.5)


class TestMonteCarloCrossChecks:
    def test_pair_prep(self):
        est = mc_pair_prep_attempts(P3, 100_000, seed=101)
        assert abs(est / gr.expected_pair_prep_attempts(P3) - 1) < 0.01

    def test_unit_protocols(self):
        est = mc_three_node_protocols(P3, 100_000, seed=101)
        assert abs(est / gr.expected_three_node_protocols(P3) - 1) < 0.01

    def test_length_gain(self):
        est = mc_length_gain(P3, 40_000, seed=101)
        assert abs(est / gr.expected_length_gain(P3) - 1) < 0.02

    def test_link_balance_signs(self):
        # mean link change positive above the threshold, negative below
        for p, l_lo, l_hi in ((0.2, 2, 4), (0.25, 1, 3), (0.4, None, 1)):
            if l_lo is not None:
                assert net_growth_condition(l_lo, p) is False
                assert mc_link_balance(p, l_lo, 20_000, seed=3) < 0
            assert net_growth_condition(l_hi, p) is True
            assert mc_link_balance(p, l_hi, 20_000, seed=3) > 0

    def test_link_balance_near_boundary(self):
        # exactly at l = 1/p - 2 the mean link change vanishes
        p, l = 0.25, 2  # boundary: 1/0.25 - 2 = 2
        mean = mc_link_balance(p, l, 60_000, seed=4)
        # per-attempt spread is l+2 = 4; allow 3 standard errors
        assert abs(mean) < 3 * (l + 2) * math.sqrt(p * (1 - p)) / math.sqrt(60_000)

    def test_unit_accounting_means(self):
        # per unit: Geometric(p) fusion cycles, each the max of two
        # Geometric(p) pair preparations in rounds and their sum plus the
        # fusion in applications
        units = 50_000
        for p in (0.2, 0.5):
            stats = gr.GrowthStats()
            rng = np.random.default_rng([31, round(10 * p)])
            for _ in range(units):
                gr._build_three_node_unit(stats, p, rng, 1)
            assert stats.three_nodes_built == units
            assert stats.prep_rounds / units == pytest.approx(
                gr.expected_three_node_protocols(p), rel=0.02
            )
            assert stats.pair_fusion_attempts / units == pytest.approx(1 / p, rel=0.02)
            assert stats.protocol_applications / units == pytest.approx(
                (2 / p + 1) / p, rel=0.02
            )
            assert stats.time_steps == gr.STEPS_PROTOCOL_ROUND * (
                stats.prep_rounds + stats.pair_fusion_attempts
            )

    def test_unit_accounting_matches_numpy_reductions(self):
        # reference: the per-cycle max and the total taken as numpy reductions
        def reference_unit(stats, p, rng):
            cycles = int(rng.geometric(p))
            chains = rng.geometric(p, size=(cycles, 2))
            rounds = int(chains.max(axis=1).sum())
            stats.prep_rounds += rounds
            stats.pair_fusion_attempts += cycles
            stats.protocol_applications += int(chains.sum()) + cycles
            stats.time_steps += gr.STEPS_PROTOCOL_ROUND * (rounds + cycles)
            stats.three_nodes_built += 1

        for p in (0.2, 0.358, 0.9):
            got, want = gr.GrowthStats(), gr.GrowthStats()
            rng = np.random.default_rng([37, round(1000 * p)])
            rng_ref = np.random.default_rng([37, round(1000 * p)])
            for _ in range(5_000):
                gr._build_three_node_unit(got, p, rng, 1)
                reference_unit(want, p, rng_ref)
                assert got == want
            assert rng.bit_generator.state == rng_ref.bit_generator.state


    def test_batched_unit_accounting_means(self):
        # one call for every unit meets the per-unit means above
        units = 50_000
        for p in (0.2, 0.5):
            stats = gr.GrowthStats()
            gr._build_three_node_unit(stats, p, np.random.default_rng([31, round(10 * p)]), units)
            assert stats.three_nodes_built == units
            assert stats.prep_rounds / units == pytest.approx(
                gr.expected_three_node_protocols(p), rel=0.02
            )
            assert stats.pair_fusion_attempts / units == pytest.approx(1 / p, rel=0.02)
            assert stats.protocol_applications / units == pytest.approx(
                (2 / p + 1) / p, rel=0.02
            )
            assert stats.time_steps == gr.STEPS_PROTOCOL_ROUND * (
                stats.prep_rounds + stats.pair_fusion_attempts
            )

    def test_batched_unit_accounting_matches_python_reference(self):
        # reference: every unit's cycle count first, then every cycle's two
        # pair draws, one scalar draw at a time
        def reference_units(stats, p, rng, units):
            cycles = [int(rng.geometric(p)) for _ in range(units)]
            for _ in range(sum(cycles)):
                a, b = int(rng.geometric(p)), int(rng.geometric(p))
                stats.prep_rounds += max(a, b)
                stats.protocol_applications += a + b + 1
                stats.time_steps += gr.STEPS_PROTOCOL_ROUND * (max(a, b) + 1)
            stats.pair_fusion_attempts += sum(cycles)
            stats.three_nodes_built += units

        for p in (0.2, 0.358, 1.0):
            for units in (1, 2, 7, 500):
                got, want = gr.GrowthStats(), gr.GrowthStats()
                rng = np.random.default_rng([41, round(1000 * p), units])
                rng_ref = np.random.default_rng([41, round(1000 * p), units])
                gr._build_three_node_unit(got, p, rng, units)
                reference_units(want, p, rng_ref, units)
                assert got == want
                assert rng.bit_generator.state == rng_ref.bit_generator.state


class TestGrow2D:
    def test_minimal_grid_deterministic_limit(self):
        graph, stats = gr.grow_2d(2, 1.0, 3, np.random.default_rng(1))
        assert len(graph.nodes) == 4 and graph.edge_count() == 4
        degrees = sorted(graph.degree(v) for v in graph.nodes)
        assert degrees == [2, 2, 2, 2]
        assert stats.restarts == 0

    def test_seed_units_are_charged(self):
        # at p = 1 every unit takes one preparation round and one pair fusion
        _, stats = gr.grow_2d(3, 1.0, 3, np.random.default_rng(1))
        assert stats.three_nodes_built == stats.prep_rounds == stats.pair_fusion_attempts

    def test_minimal_grid_theta_zero(self):
        p = pr.success_probability_closed(3, 0.0)
        graph, stats = gr.grow_2d(2, p, 3, np.random.default_rng(1))
        assert len(graph.nodes) == 4 and graph.edge_count() == 4

    def test_three_by_three(self):
        graph, stats = gr.grow_2d(3, P3, 3, np.random.default_rng(2))
        assert len(graph.nodes) == 9 and graph.edge_count() == 12
        degrees = sorted(graph.degree(v) for v in graph.nodes)
        assert degrees == [2, 2, 2, 2, 3, 3, 3, 3, 4]
        assert stats.physical_qubits_used > 0
        assert stats.final_length == 9  # snake path through the verified lattice
        check_invariants(graph)

    def test_seeded_batch(self):
        for i in range(25):
            graph, _ = gr.grow_2d(3, P3, 3, np.random.default_rng([11, i]))
            assert len(graph.nodes) == 9 and graph.edge_count() == 12

    def test_seeded_stream_pinned(self):
        # 2D draws its fusion outcomes in blocks, rewinds to one uniform per
        # outcome taken, then charges every unit in one batch; these counts
        # pin the order in which a seeded build consumes its stream
        _, stats = gr.grow_2d(3, P3, 3, np.random.default_rng(2))
        assert stats == gr.GrowthStats(
            protocol_applications=5071, time_steps=19200, final_length=9,
            physical_qubits_used=3740, prep_rounds=2836, pair_fusion_attempts=722,
            growth_attempts=255, three_nodes_built=258, restarts=0,
        )
        _, stats = gr.grow_2d(4, P3, 3, np.random.default_rng([22, 0]))
        assert stats == gr.GrowthStats(
            protocol_applications=7587, time_steps=28820, final_length=16,
            physical_qubits_used=5392, prep_rounds=4235, pair_fusion_attempts=1086,
            growth_attempts=400, three_nodes_built=404, restarts=0,
        )

    @pytest.mark.parametrize("p", [P3, 0.25], ids=["theta0.3", "p0.25"])  # rows restart at both
    def test_stream_replays_as_outcomes_then_one_charge(self, monkeypatch, p):
        """A build consumes one uniform per fusion outcome it takes, then one
        batched charge of its N seed units and one unit per attach, restarts
        included: a fresh generator that draws the same gives the same
        state and unit counts."""
        helper = gr._fusion_outcomes
        taken = []

        def counting(*args):
            outcomes, rewind = helper(*args)
            taken.append(0)

            def counted():
                for outcome in outcomes:
                    taken[-1] += 1
                    yield outcome

            return counted(), rewind

        monkeypatch.setattr(gr, "_fusion_outcomes", counting)
        restarts = 0
        for s in range(5):
            N = 3 + s % 2
            rng = np.random.default_rng([s, 20, 0])
            _, stats = gr.grow_2d(N, p, 3, rng)
            restarts += stats.restarts
            replay = np.random.default_rng([s, 20, 0])
            replay.random(taken[-1])
            units = gr.GrowthStats()
            gr._build_three_node_unit(units, p, replay, N + stats.growth_attempts + stats.restarts)
            assert rng.bit_generator.state == replay.bit_generator.state
            assert stats.prep_rounds == units.prep_rounds
            assert stats.pair_fusion_attempts == units.pair_fusion_attempts
            assert stats.three_nodes_built == units.three_nodes_built
            assert stats.protocol_applications == units.protocol_applications + taken[-1]
            # the links draw from the same stream: one or more per vertical edge
            assert taken[-1] - stats.growth_attempts >= N * (N - 1)
        assert restarts > 0

    def test_cost_per_site_flat_in_size(self):
        # with no whole-lattice restart a build costs the same per site at
        # every size; every build here completes under the default cap
        per_site = {}
        for N, seeds in ((3, range(5)), (10, range(5)), (16, range(1))):
            per_site[N] = []
            for s in seeds:
                graph, stats = gr.grow_2d(N, P3, 3, np.random.default_rng([s, 20, 0]))
                assert len(graph.nodes) == N * N and graph.edge_count() == 2 * N * (N - 1)
                per_site[N].append(stats.protocol_applications / (N * N))
        ratio = np.median(per_site[10]) / np.median(per_site[3])
        assert 0.75 < ratio < 1.25

    def test_no_net_growth_rejected(self):
        # a row's node count walks +4 / -1 per attach (TestRowInvariant), so
        # no row grows at 5p <= 1; the check comes before any draw.  Near
        # 5p = 1 a build can still stop at the attempt cap, so the completing
        # case sits a little higher
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(gr.NoGrowthError):
            gr.grow_2d(3, 0.19, 3, rng)
        assert rng.bit_generator.state == state
        for p in (0.0, 3.0):  # 3.0: an n, theta order passed where p, n now go
            with pytest.raises(ValueError):
                gr.grow_2d(3, p, 3, rng)
        graph, _ = gr.grow_2d(3, 0.25, 3, rng)
        assert len(graph.nodes) == 9 and graph.edge_count() == 12

    def test_deterministic_given_seed(self):
        runs = [gr.grow_2d(3, P3, 3, np.random.default_rng(77)) for _ in range(2)]
        assert runs[0][0].edges() == runs[1][0].edges()
        assert runs[0][1] == runs[1][1]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            gr.grow_2d(1, P3, 3, np.random.default_rng(0))


class TestSelectiveLayout:
    def test_thirteen_qubit_layout(self):
        tokens = selective_layout(13, [0, 8], 3)
        assert tokens == ["+"] * 5 + ["1", "0", "0"] + ["+"] * 5

    def test_cuts_stay_product_after_global_entangler(self):
        state = sv.init_register(selective_layout(13, [0, 8], 3))
        pr.entangle_chain(state, 0.4)
        assert is_product_across_cut(state, list(range(5)))
        assert is_product_across_cut(state, list(range(8)))

    def test_single_chain_in_five(self):
        # one three-qubit chain in five qubits: the gap pattern isolates it
        tokens = selective_layout(5, [0], 1)
        assert tokens == ["+", "+", "+", "1", "0"]
        state = sv.init_register(tokens)
        pr.entangle_chain(state, 0.7)
        assert is_product_across_cut(state, [0, 1, 2])

    def test_full_span_is_all_plus(self):
        assert selective_layout(5, [0], 3) == ["+"] * 5

    def test_arbitrary_first_input(self):
        tokens = selective_layout(5, [0], 3, first_input=(0.6, 0.8j))
        assert tokens[0] == (0.6, 0.8j)
        assert tokens[1:] == ["+"] * 4

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            selective_layout(13, [0, 5], 3)
