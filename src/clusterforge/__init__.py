"""Toolkit for distilling perfect cluster states from imperfect global entangling gates.

Layers:

* :mod:`clusterforge.statevector` - dense simulator, gates, measurements.
* :mod:`clusterforge.protocol`    - the heralded distillation protocol on a chain:
  sequence oracle and generator, probabilities, teleportation, fail-and-retry,
  GHZ concatenation.
* :mod:`clusterforge.growth`      - fusion bookkeeping on abstract cluster graphs,
  the thirteen-qubit demonstration pipeline, Monte-Carlo 1D/2D growth and the
  closed-form cost model.
* :mod:`clusterforge.cli`         - command-line front end.
"""

from .statevector import (
    PureState,
    MeasurementRecord,
    init_register,
    apply_gate,
    apply_controlled_phase,
    measure,
    fidelity_up_to_global_phase,
)
from .protocol import (
    ProtocolSpec,
    ProtocolRun,
    build_imperfect_chain,
    run_protocol,
    enumerate_success_sequences,
    rule_based_sequences,
    success_probability_closed,
    success_probability_asymptotic,
    one_bit_teleport,
    average_teleport_infidelity,
    stochastic_teleport,
    retry_protocol,
    retry_probabilities,
    concatenated_ghz,
)
from .growth import (
    ClusterGraph,
    GrowthStats,
    fuse,
    x_measure_shorten,
    z_remove_leaf,
    y_join,
    run_thirteen_qubit_pipeline,
    grow_1d,
    grow_2d,
    expected_pair_prep_attempts,
    expected_three_node_protocols,
    expected_length_gain,
    time_steps_1d,
    time_steps_2d,
)

__all__ = [
    "PureState",
    "MeasurementRecord",
    "init_register",
    "apply_gate",
    "apply_controlled_phase",
    "measure",
    "fidelity_up_to_global_phase",
    "ProtocolSpec",
    "ProtocolRun",
    "build_imperfect_chain",
    "run_protocol",
    "enumerate_success_sequences",
    "rule_based_sequences",
    "success_probability_closed",
    "success_probability_asymptotic",
    "one_bit_teleport",
    "average_teleport_infidelity",
    "stochastic_teleport",
    "retry_protocol",
    "retry_probabilities",
    "concatenated_ghz",
    "ClusterGraph",
    "GrowthStats",
    "fuse",
    "x_measure_shorten",
    "z_remove_leaf",
    "y_join",
    "run_thirteen_qubit_pipeline",
    "grow_1d",
    "grow_2d",
    "expected_pair_prep_attempts",
    "expected_three_node_protocols",
    "expected_length_gain",
    "time_steps_1d",
    "time_steps_2d",
]

__version__ = "0.1.0"
