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
