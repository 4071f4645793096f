"""Hypothesis strategies shared by the property tests."""

import math

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clusterforge import statevector as sv

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
def normalized_states(draw):
    """A random state of 1 to 8 qubits, normalized."""
    return _normalized(draw, draw(st.integers(1, 8)))
