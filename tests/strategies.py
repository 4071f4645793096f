"""Hypothesis strategies shared by the property tests."""

import itertools
import math

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clusterforge import statevector as sv
from reference import FramedGraph

# the protocol's error angle: success is likeliest at 0 and impossible at pi
thetas = st.floats(0.0, math.pi)

# fusion outcomes of successive growth attempts on one row
outcome_lists = st.lists(st.booleans(), max_size=40)


def _normalized(draw, num_qubits):
    size = 1 << num_qubits
    parts = draw(arrays(np.float64, 2 * size, elements=st.floats(-1.0, 1.0)))
    amps = parts[:size] + 1j * parts[size:]
    norm = np.linalg.norm(amps)
    assume(norm > 0.1)
    return sv.PureState(num_qubits, amps / norm)


@st.composite
def normalized_ends(draw):
    """A random 4-qubit state: 16 complex amplitudes, normalized."""
    return _normalized(draw, 4)


@st.composite
def normalized_states(draw, min_qubits=1):
    """A random state of ``min_qubits`` to 8 qubits, normalized."""
    return _normalized(draw, draw(st.integers(min_qubits, 8)))


@st.composite
def graphs(draw, max_nodes=10):
    """A random ``FramedGraph`` on nodes 0 .. k-1, 2 <= k <= ``max_nodes``:
    a forest, each node joined to an earlier one or starting a tree, plus
    up to three extra edges, which may close cycles; and a pending Z in its
    Pauli frame (``z_parity``) on any set of nodes."""
    size = draw(st.integers(2, max_nodes))
    graph = FramedGraph()
    for node in range(size):
        graph.new_node()
        parent = draw(st.integers(-1, node - 1))
        if parent >= 0:
            graph.add_edge(parent, node)
    pairs = list(itertools.combinations(range(size), 2))
    for a, b in draw(st.sets(st.sampled_from(pairs), max_size=3)):
        graph.add_edge(a, b)
    for node in draw(st.sets(st.integers(0, size - 1))):
        graph.flip_parity(node)
    return graph


# CSV cells: floats of every magnitude and sign (infinities, nan and -0.0
# among them), ints and strings
cells = st.floats() | st.integers() | st.text(max_size=6)


@st.composite
def column_sets(draw):
    """Columns as ``cli._emit`` takes them, and the row dicts they stand
    for: one or more columns, each a constant or a list of one value per
    row, over 0, 1 or many rows.  Without a list column there is one row."""
    names = draw(st.lists(st.text(max_size=6), min_size=1, max_size=6, unique=True))
    count = draw(st.sampled_from([0, 1]) | st.integers(2, 30))
    is_list = draw(st.lists(st.booleans(), min_size=len(names), max_size=len(names)))
    is_list[0] |= count != 1
    columns = {
        name: draw(st.lists(cells, min_size=count, max_size=count)) if listed else draw(cells)
        for name, listed in zip(names, is_list)
    }
    rows = [
        {name: value[i] if isinstance(value, list) else value for name, value in columns.items()}
        for i in range(count)
    ]
    return columns, rows
