"""Dense pure-state simulator for small qubit registers.

Conventions, fixed here and used by every other module:

* Qubit 0 is the most significant bit of the amplitude index, so
  ``amps.reshape([2] * num_qubits)`` places qubit q on tensor axis q.
* ``Rz(xi) = diag(1, exp(i xi))``: the phase sits on ``|1>`` only.
* The rotated measurement basis with angle xi has the m=0 eigenstate
  ``(|0> + exp(-i xi)|1>)/sqrt(2)``.  Measuring in it applies Rz(xi), then a
  Hadamard, then a sigma_z readout, and leaves the measured qubit in the
  computational state ``|m>`` (a classical record, convenient for later
  extraction).  xi = 0 is the sigma_x basis with m=0 for ``|+>``.

States are small dense complex vectors.  Every kernel works in place on a
reshape view of the amplitudes: ``(2^q, 2, 2^(n-q-1))`` for qubit q, whose
axis 1 is the qubit, or ``(2^a, 2, 2^(b-a-1), 2, 2^(n-b-1))`` for a qubit
pair a < b.  None of them moves data or copies the state.  The one entangler
kernel is :func:`apply_controlled_phase`, an in-place multiply of the quarter
of the amplitudes its pair selects; a chain's entangler layer is one call per
pair.  A rotated :func:`measure` applies no Rz or H: with
``r = exp(i xi) v1`` it writes ``(v0 -/+ r)/sqrt(2)``, rescaled by the kept
half's own norm, into the kept half.  :func:`reset_qubits` and
:func:`extract_qubits` read the bits of measured-out qubits off the largest
amplitude component, copy that one definite core of the ``[2] * n`` view and
check that it holds the state.

:func:`x_branches` rotates a run of adjacent qubits into the sigma_x basis
with cached Walsh-Hadamard matrices (one matmul per four qubits), giving
every outcome branch at once as a ``(2^first, 2^count, rest)`` array; the
protocol's oracle reads it, on the one |+> chain.  Every outcome is
drawn by :func:`draw_outcome`, on any list of joint outcome weights: it
draws the outcome bits left to right against the conditional p0 of each
prefix (one ``rng.random()`` each), so the protocol runs draw what a
per-qubit :func:`measure` loop would, and :func:`measure` is
:func:`draw_outcome` on its two weights.
The dense sigma_x run kernel and the dense chain that the tests check the
held-pair table against live in the tests.  One thread touches a state;
parallelism belongs to the trial level above this module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 24

NORM_TOL = 1e-12
PROB_TOL = 1e-12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class NormalizationError(ValueError):
    """An input amplitude pair is not normalized."""


class ForcedOutcomeError(ValueError):
    """A forced measurement outcome has (numerically) zero probability."""


@dataclass
class PureState:
    """Dense amplitude vector over ``num_qubits`` qubits."""

    num_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(
                f"register size {self.num_qubits} outside 1..{MAX_QUBITS}"
            )
        self.amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if self.amps.size != 1 << self.num_qubits:
            raise ValueError("amplitude vector length is not 2**num_qubits")

    def norm_squared(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def copy(self) -> "PureState":
        return PureState(self.num_qubits, self.amps.copy())


def _check_qubit(state: PureState, qubit: int):
    if not 0 <= qubit < state.num_qubits:
        raise IndexError(f"qubit {qubit} out of range for {state.num_qubits}-qubit register")


def _split(state: PureState, qubit: int) -> np.ndarray:
    """View ``(2^q, 2, rest)``; axis 1 is the qubit."""
    _check_qubit(state, qubit)
    return state.amps.reshape(1 << qubit, 2, -1)


def _split_pair(state: PureState, a: int, b: int) -> np.ndarray:
    """View as ``(2^a, 2, 2^(b-a-1), 2, rest)``; axes 1 and 3 are ``a < b``."""
    if not 0 <= a < b < state.num_qubits:
        raise ValueError(f"need 0 <= a < b < {state.num_qubits}, got a={a}, b={b}")
    return state.amps.reshape(1 << a, 2, 1 << (b - a - 1), 2, -1)


def pair_marginals(state: PureState, a: int, b: int) -> np.ndarray:
    """2x2 Z-basis probabilities ``P[bit_a, bit_b]`` of the qubits ``a < b``."""
    return (np.abs(_split_pair(state, a, b)) ** 2).sum(axis=(0, 2, 4))


def _check_norm_squared(norm_squared: float, size: int):
    """Raise unless a register of ``size`` amplitudes has norm^2 within tolerance of 1."""
    if abs(norm_squared - 1.0) > max(NORM_TOL, 1e-12 * size):
        raise NormalizationError("state norm drifted beyond tolerance")


def _check_norm(state: PureState):
    _check_norm_squared(state.norm_squared(), state.amps.size)


def _as_pair(entry) -> np.ndarray:
    """Normalize a single-qubit initializer to an amplitude pair."""
    if isinstance(entry, str):
        if entry == "0":
            return np.array([1.0, 0.0], dtype=complex)
        if entry == "1":
            return np.array([0.0, 1.0], dtype=complex)
        if entry == "+":
            return np.array([_INV_SQRT2, _INV_SQRT2], dtype=complex)
        if entry == "-":
            return np.array([_INV_SQRT2, -_INV_SQRT2], dtype=complex)
        raise ValueError(f"unknown initializer token {entry!r}")
    pair = np.array(entry, dtype=complex, copy=True).reshape(-1)
    if pair.size != 2:
        raise ValueError("arbitrary initializer must have two amplitudes")
    n2 = float(np.vdot(pair, pair).real)
    if abs(n2 - 1.0) > 1e-9:
        raise NormalizationError(f"|alpha|^2+|beta|^2 = {n2!r}, expected 1")
    return pair


def init_register(assignments) -> PureState:
    """Product state from per-qubit initializers.

    Each entry is one of the tokens ``"0" | "1" | "+" | "-"`` or an arbitrary
    normalized amplitude pair ``(alpha, beta)``.  Entry 0 is the leftmost
    tensor factor (qubit 0, most significant index bit).
    """
    pairs = [_as_pair(a) for a in assignments]
    if not pairs:
        raise ValueError("empty register")
    if len(pairs) > MAX_QUBITS:
        raise ValueError(f"register size {len(pairs)} exceeds MAX_QUBITS={MAX_QUBITS}")
    return PureState(len(pairs), functools.reduce(np.multiply.outer, pairs).reshape(-1))


def apply_gate(state: PureState, qubit: int, gate: str, angle: float | None = None) -> PureState:
    """Apply one of H, X, Z, RZ(angle) to ``qubit`` in place."""
    v = _split(state, qubit)
    if gate == "H":
        top = v[:, 0].copy()
        v[:, 0] = (top + v[:, 1]) * _INV_SQRT2
        v[:, 1] = (top - v[:, 1]) * _INV_SQRT2
    elif gate == "X":
        np.copyto(v, v[:, ::-1])
    elif gate == "Z":
        v[:, 1] *= -1.0
    elif gate == "RZ":
        if angle is None:
            raise ValueError("RZ requires an angle")
        v[:, 1] *= np.exp(1j * angle)
    else:
        raise ValueError(f"unknown gate {gate!r}")
    return state


def apply_controlled_phase(
    state: PureState, control: int, target: int, phi: float, variant: str = "CSX"
) -> PureState:
    """Diagonal controlled-phase gate on an ordered qubit pair, in place.

    ``CS`` multiplies the ``|11>`` component of (control, target) by
    ``exp(i phi)``; ``CSX`` multiplies ``|10>`` (control = 1, target = 0)
    instead, i.e. CSX_phi = (I ⊗ X) CS_phi (I ⊗ X).
    """
    _check_qubit(state, control)
    _check_qubit(state, target)
    if control == target:
        raise ValueError("control and target must differ")
    if variant not in ("CS", "CSX"):
        raise ValueError(f"unknown controlled-phase variant {variant!r}")
    bits = {control: 1, target: 1 if variant == "CS" else 0}
    lo, hi = sorted(bits)
    _split_pair(state, lo, hi)[:, bits[lo], :, bits[hi]] *= np.exp(1j * phi)
    return state


@dataclass(frozen=True)
class MeasurementRecord:
    qubit: int
    basis: str  # "z" or "xi"
    xi: float
    outcome: int
    probability: float


def measurement_probabilities(
    state: PureState, qubit: int, basis: str = "z", xi: float = 0.0
) -> tuple[float, float]:
    """Outcome probabilities (p0, p1) without collapsing the state."""
    p1 = _halves(_split(state, qubit), basis, xi)[1][1]
    return 1.0 - p1, p1


def _halves(v: np.ndarray, basis: str, xi: float):
    """The two outcome halves of a qubit's :func:`_split` view and their weights.

    A Z readout's halves are the views ``v[:, m]``; in the rotated basis they
    are ``(v0 + r)/sqrt(2)`` and ``(v0 - r)/sqrt(2)`` with ``r = exp(i xi) v1``.
    Each weight is its half's norm^2, so w0 + w1 is the state's norm^2.
    """
    if basis == "z":
        halves = (v[:, 0], v[:, 1])
    elif basis == "xi":
        top = v[:, 0] * _INV_SQRT2
        rot = v[:, 1] * (np.exp(1j * xi) * _INV_SQRT2)
        halves = (top + rot, top - rot)
    else:
        raise ValueError(f"unknown basis {basis!r}")
    weights = tuple(float(np.vdot(h, h).real) for h in halves)
    return halves, weights


def measure(
    state: PureState,
    qubit: int,
    basis: str = "z",
    xi: float = 0.0,
    outcome: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[MeasurementRecord, PureState]:
    """Projective measurement with Born-rule sampling or a forced outcome.

    The measured qubit is left in the computational state ``|m>`` (for the
    rotated basis this is the post-rotation frame), so it can later be
    sliced away with :func:`extract_qubits`.  The outcome is drawn, or
    forced, by :func:`draw_outcome` on the two outcome weights, after the
    input norm is checked; the kept half is rescaled by its own norm, so a
    norm error in the input is not carried over (let alone amplified by
    1/p0).  Forcing an outcome whose probability is at most ``PROB_TOL``
    raises :class:`ForcedOutcomeError`.
    """
    v = _split(state, qubit)
    halves, weights = _halves(v, basis, xi)
    _check_norm_squared(weights[0] + weights[1], state.amps.size)
    forced = None if outcome is None else (outcome,)
    outcome, prob = draw_outcome(list(weights), forced, rng)

    np.multiply(halves[outcome], 1.0 / math.sqrt(weights[outcome]), out=v[:, outcome])
    v[:, 1 - outcome] = 0.0
    return MeasurementRecord(qubit, basis, xi, outcome, prob), state


# Walsh-Hadamard blocks: x_branches rotates at most this many qubits per matmul
_X_BLOCK = 4


@functools.lru_cache(maxsize=_X_BLOCK)
def _walsh_hadamard(k: int) -> np.ndarray:
    """Read-only ``H^(⊗k)``: entry [m, j] is ``(-1)^popcount(m & j) / 2^(k/2)``."""
    signs = functools.reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * k)
    mat = (signs * 2.0 ** (-k / 2)).astype(complex)
    mat.flags.writeable = False
    return mat


def x_branches(state: PureState, first: int, count: int) -> np.ndarray:
    """Every sigma_x outcome branch of the qubits ``first .. first+count-1`` at once.

    Returns a new ``(2^first, 2^count, rest)`` array: the amplitudes with the
    run rotated by Hadamards, so entry ``[i, m, j]`` is the joint amplitude
    of outcome sequence m (qubit ``first`` the most significant bit; 1 is
    the ``|->`` result) with the unmeasured qubits at ``(i, j)``.  Column
    norms^2 are the outcome probabilities.  The state is not touched.
    """
    stop = first + count
    if not 0 <= first < stop <= state.num_qubits:
        raise IndexError(
            f"run of {count} from qubit {first} out of range for {state.num_qubits}-qubit register"
        )
    out = state.amps
    for lo in range(first, stop, _X_BLOCK):
        k = min(_X_BLOCK, stop - lo)
        out = np.matmul(_walsh_hadamard(k), out.reshape(1 << lo, 1 << k, -1))
    return out.reshape(1 << first, 1 << count, -1)


def draw_outcome(
    weights: list, outcomes=None, rng: np.random.Generator | None = None
) -> tuple[int, float]:
    """Draw one of ``2^count`` joint outcomes bit by bit from their weights.

    ``weights[m]`` is the weight of outcome sequence m, its first bit the most
    significant.  The bits are drawn left to right, one ``rng.random()`` each,
    against the conditional p0 of the prefix drawn so far, by the rule
    ``bit = int(u >= p0)``; ``outcomes`` forces them
    instead (a bit string or a sequence of bits).  A bit of probability at
    most ``PROB_TOL`` raises :class:`ForcedOutcomeError`.  The caller checks
    the weights' norm.  Returns the outcome index m and the path probability
    (the product of the conditional probabilities).
    """
    width = len(weights)
    count = width.bit_length() - 1
    if outcomes is not None:
        outcomes = [int(b) for b in outcomes]
        if len(outcomes) != count or set(outcomes) - {0, 1}:
            raise ValueError(f"forced outcomes must be {count} bits")
    elif rng is None:
        raise ValueError("drawing outcomes needs either forced outcomes or an rng")
    lo, hi = 0, width
    path = 1.0
    for i in range(count):
        mid = (lo + hi) >> 1
        w1 = sum(weights[mid:hi])
        p1 = w1 / (sum(weights[lo:mid]) + w1)
        p0 = 1.0 - p1
        bit = rng.random() >= p0 if outcomes is None else outcomes[i]
        if bit:
            lo, prob = mid, p1
        else:
            hi, prob = mid, p0
        if prob <= PROB_TOL:
            raise ForcedOutcomeError(
                f"outcome {int(bit)} at position {i} of the run has probability {prob:.3e}"
            )
        path *= prob
    return lo, path


def fidelity_up_to_global_phase(a: PureState, b: PureState) -> float:
    """|<a|b>|^2, which is 1 exactly when the states agree up to global phase."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states have different register sizes")
    na = math.sqrt(a.norm_squared())
    nb = math.sqrt(b.norm_squared())
    if na < 1e-15 or nb < 1e-15:
        raise ValueError("cannot compare a zero vector")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2 / (na * nb) ** 2)


def _definite_core(state: PureState, qubits) -> tuple[np.ndarray, np.ndarray]:
    """Per-qubit ``[2] * n`` view of the amplitudes and a copy of its definite core.

    The core keeps each unlisted qubit's axis whole and each listed qubit at
    its bit in the amplitude with the largest real or imaginary part, as a
    length-1 axis.  It must hold all but 1e-12 of the state's own norm^2
    (which may drift within ``_check_norm``); the mass off the core bounds
    every listed qubit's, and an off-core amplitude that small can never hold
    the largest part.
    """
    listed = set(qubits)
    n = state.num_qubits
    if any(not 0 <= q < n for q in listed):
        raise IndexError(f"qubits {sorted(listed)} out of range for {n}-qubit register")
    top = int(np.abs(state.amps.view(float)).argmax()) >> 1
    index = []
    for q in range(n):
        b = (top >> (n - 1 - q)) & 1
        index.append(slice(b, b + 1) if q in listed else slice(None))
    view = state.amps.reshape([2] * n)
    core = view[tuple(index)].copy()
    held = float(np.vdot(core, core).real)
    if held < (1.0 - 1e-12) * state.norm_squared():
        raise ValueError(f"qubits {sorted(listed)} are not in a definite computational state")
    return view, core


def extract_qubits(state: PureState, keep) -> PureState:
    """Slice down to ``keep`` (ascending order).

    Every discarded qubit must hold a definite computational bit, e.g. the
    frozen record left behind by :func:`measure`.
    """
    keep = sorted(set(keep))
    n = state.num_qubits
    if any(not 0 <= q < n for q in keep):
        raise IndexError("keep contains an out-of-range qubit")
    if not keep:
        raise ValueError("must keep at least one qubit")
    sub = _definite_core(state, [q for q in range(n) if q not in keep])[1].reshape(-1)
    norm = math.sqrt(float(np.vdot(sub, sub).real))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError("extraction lost amplitude; discarded qubits not definite")
    return PureState(len(keep), sub / norm)


def reset_qubits(state: PureState, assignments: dict) -> PureState:
    """Re-initialize a subset of qubits to fresh product factors, in place.

    The reset qubits must currently be in definite computational states (they
    were measured out); the rest of the register is untouched.
    """
    targets = sorted(assignments)
    if not targets:
        return state
    view, core = _definite_core(state, targets)
    fresh = functools.reduce(np.multiply.outer, [_as_pair(assignments[q]) for q in targets])
    # a reset qubit is a length-1 axis of the core and a length-2 axis of fresh
    fresh = fresh.reshape([2 if q in assignments else 1 for q in range(state.num_qubits)])
    np.multiply(core, fresh, out=view)
    _check_norm(state)
    return state
