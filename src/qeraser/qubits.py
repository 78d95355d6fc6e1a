"""Dense state-vector engine for small spin-1/2 registers.

Conventions used throughout the package:

* Basis states are indexed with qubit 0 as the *most significant* bit of
  the computational index.  For a two-qubit register the index 0b01 is
  the state ``|up down>``.
* ``up`` denotes the sigma_z eigenstate with eigenvalue +1 and is written
  ``|0>``; ``down`` is the eigenvalue -1 state ``|1>``.
* ``right``/``left`` denote the sigma_x eigenstates
  (|up> +- |down>)/sqrt(2) with eigenvalues +1 and -1.
* In the three-particle splitter experiments the registers (A, B, C)
  map to qubit indices (0, 1, 2).  In the phase-estimation register the
  control particle is the highest qubit index.

States are immutable: every operation returns a new ``StateVector``.
"""

from __future__ import annotations

import math

from . import _numpy as np
from ._record import Record

__all__ = [
    "StateVector",
    "identity",
    "sigma_x",
    "sigma_y",
    "sigma_z",
    "analyzer_observable",
    "rotation_y",
    "phase_rotation",
    "ghz_state",
    "bell_relative_state",
    "tripartite_spin_state",
    "spectral_projectors",
    "apply_single_qubit",
    "project_qubit",
    "expectation",
]

# Largest register the dense engine will allocate.  2**24 complex doubles
# is 256 MiB; anything beyond that is a caller error, not a use case.
MAX_QUBITS = 24

ATOL = 1e-12


def identity() -> np.ndarray:
    return np.eye(2, dtype=complex)


def sigma_x() -> np.ndarray:
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def sigma_y() -> np.ndarray:
    return np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def sigma_z() -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def analyzer_observable(theta: float | np.ndarray) -> np.ndarray:
    """Spin observable measured by a correlation analyzer set to ``theta``.

    Equal to cos(theta) sigma_x - sin(theta) sigma_y: Hermitian with
    eigenvalues exactly +-1 for every theta, the equatorial spin component
    at angle -theta from the x axis.  The sense is chosen so that the
    two-analyzer correlator on the phase-phi pair states
    (:func:`bell_relative_state`) comes out as +-cos(theta_a - theta_b + phi);
    the mirror convention would flip the sign of phi in every conditional
    table.  An array of angles gives the observables stacked in shape
    (..., 2, 2), each bit-identical to the one of its scalar angle.
    """
    angles = np.asarray(theta, dtype=float)
    # math.cos/math.sin, not np.cos/np.sin, whose last bit may differ
    cos, sin = (
        np.fromiter(map(function, angles.flat), float, angles.size).reshape(*angles.shape, 1, 1)
        for function in (math.cos, math.sin)
    )
    return cos * sigma_x() - sin * sigma_y()


def rotation_y(angle: float) -> np.ndarray:
    """Rotation exp(-i sigma_y angle / 2); real-valued 2x2 unitary."""
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def phase_rotation(theta: float) -> np.ndarray:
    """Phase shift exp(-i sigma_z theta / 2) applied to a single spin."""
    return np.array(
        [[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]], dtype=complex
    )


def spectral_projectors(observable: np.ndarray) -> dict[int, np.ndarray]:
    """Projectors {+1: P+, -1: P-} onto the eigenspaces of a +-1 observable."""
    return {o: 0.5 * (identity() + o * observable) for o in (+1, -1)}


def _control_amplitudes(control_angle: float) -> dict[int, tuple[float, float]]:
    """(up, down) components of the control readout's +1 and -1 eigenstates.

    The control is read in the sigma_z basis rotated by exp(-i sigma_y
    control_angle / 2): angle 0 reads up/down, pi/2 reads right/left with
    +1 on right.  Plain ``math``, so analytic phase estimation loads no
    numpy; :func:`_control_projectors` is the same readout as matrices.
    """
    half = control_angle / 2.0
    c, s = math.cos(half), math.sin(half)
    return {+1: (c, s), -1: (-s, c)}


def _control_projectors(control_angle: float) -> dict[int, np.ndarray]:
    """Projectors {+1: P+, -1: P-} of the readout of :func:`_control_amplitudes`.

    Angle 0 gives ``spectral_projectors(sigma_z())`` bit for bit.
    """
    rotation = rotation_y(-control_angle)
    observable = rotation.conj().T @ sigma_z() @ rotation
    return spectral_projectors(0.5 * (observable + observable.conj().T))


class StateVector(Record):
    """Normalized pure state of ``num_qubits`` spins.

    ``amplitudes[i]`` is the coefficient of the basis state whose bits,
    read from qubit 0 downward, are the binary digits of ``i`` most
    significant first.  The array is read-only.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(
                f"register size {self.num_qubits} outside supported range "
                f"1..{MAX_QUBITS}"
            )
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"amplitude vector of length {amps.shape} does not match "
                f"{self.num_qubits} qubits"
            )
        amps.setflags(write=False)
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state not normalized: |psi| = {norm!r}")
        object.__setattr__(self, "amplitudes", amps)


def ghz_state(num_qubits: int, phi: float) -> StateVector:
    """(|up...up> + e^{i phi} |down...down>) / sqrt(2).

    For a single qubit this degenerates to (|up> + e^{i phi} |down>)/sqrt(2).
    """
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(
            f"register size {num_qubits} outside supported range 1..{MAX_QUBITS}"
        )
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[0] = 1.0 / math.sqrt(2.0)
    amps[-1] = np.exp(1.0j * phi) / math.sqrt(2.0)
    return StateVector(num_qubits, amps)


def bell_relative_state(phi: float, sign: int) -> StateVector:
    """Two-qubit pair state (|up down> + sign e^{i phi} |down up>)/sqrt(2)."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    amps = np.zeros(4, dtype=complex)
    amps[0b01] = 1.0 / math.sqrt(2.0)
    amps[0b10] = sign * np.exp(1.0j * phi) / math.sqrt(2.0)
    return StateVector(2, amps)


def tripartite_spin_state(phi: float) -> StateVector:
    """Spin state of the two interfering particles plus the control.

    Qubits (A, B, C) = (0, 1, 2):

        (|up down>|right> + e^{i phi} |down up>|left>) / sqrt(2)

    Expanding the control in the up/down basis gives the equivalent
    relative-state form (|pair+>|up> + |pair->|down>)/sqrt(2) with
    |pair+-> = (|up down> +- e^{i phi} |down up>)/sqrt(2), which is what
    delayed conditioning on the control outcome exposes.
    """
    phase = np.exp(1.0j * phi)
    amps = np.zeros(8, dtype=complex)
    amps[0b010] = 0.5  # |up down up>
    amps[0b011] = 0.5  # |up down down>
    amps[0b100] = 0.5 * phase  # |down up up>
    amps[0b101] = -0.5 * phase  # |down up down>
    return StateVector(3, amps)


def _apply_factor(
    amplitudes: np.ndarray, num_qubits: int, index: int, matrix: np.ndarray
) -> np.ndarray:
    """Apply an arbitrary 2x2 matrix to one qubit of a raw amplitude array."""
    left = 2**index
    right = 2 ** (num_qubits - index - 1)
    cube = amplitudes.reshape(left, 2, right)
    return np.einsum("ts,lsr->ltr", matrix, cube).reshape(-1)


def _check_qubit_index(num_qubits: int, index: int) -> None:
    if not 0 <= index < num_qubits:
        raise ValueError(f"qubit index {index} outside register of {num_qubits}")


def _is_unitary(matrix: np.ndarray) -> bool:
    return bool(np.abs(matrix.conj().T @ matrix - np.eye(2)).max() <= ATOL)


def _is_hermitian(matrix: np.ndarray) -> bool:
    return bool(np.abs(matrix - matrix.conj().T).max() <= ATOL)


def apply_single_qubit(state: StateVector, index: int, op: np.ndarray) -> StateVector:
    """Apply a single-qubit unitary to ``state`` at ``index``."""
    _check_qubit_index(state.num_qubits, index)
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError("single-qubit operator must be 2x2")
    if not _is_unitary(op):
        raise ValueError("operator is not unitary within 1e-12")
    amps = _apply_factor(state.amplitudes, state.num_qubits, index, op)
    return StateVector(state.num_qubits, amps)


def _check_binary_observable(basis: np.ndarray) -> np.ndarray:
    basis = np.asarray(basis, dtype=complex)
    if basis.shape != (2, 2):
        raise ValueError("measurement basis must be a 2x2 operator")
    if not _is_hermitian(basis):
        raise ValueError("measurement basis is not Hermitian")
    if np.abs(basis @ basis - np.eye(2)).max() > ATOL:
        raise ValueError("measurement basis must square to the identity")
    return basis


def project_qubit(
    state: StateVector, index: int, basis: np.ndarray, outcome: int
) -> tuple[float, StateVector | None]:
    """Probability and conditional state for one outcome of a +-1 observable.

    Returns ``(probability, conditional_state)``; the conditional state is
    ``None`` when the branch has probability below 1e-14, since no
    normalized state can be conditioned on it.
    """
    _check_qubit_index(state.num_qubits, index)
    basis = _check_binary_observable(basis)
    if outcome not in (+1, -1):
        raise ValueError("outcome must be +1 or -1")
    projector = spectral_projectors(basis)[outcome]
    branch = _apply_factor(state.amplitudes, state.num_qubits, index, projector)
    probability = float(np.vdot(branch, branch).real)
    if probability < 1e-14:
        return probability, None
    return probability, StateVector(state.num_qubits, branch / math.sqrt(probability))


def expectation(state: StateVector, factors: list[np.ndarray]) -> float:
    """Expectation value of a tensor product of per-qubit Hermitian factors.

    ``factors`` must contain exactly one 2x2 Hermitian matrix per qubit;
    pass :func:`identity` for qubits the observable does not touch.
    """
    if len(factors) != state.num_qubits:
        raise ValueError(
            f"need one factor per qubit: got {len(factors)} for "
            f"{state.num_qubits} qubits"
        )
    transformed = state.amplitudes
    for index, factor in enumerate(factors):
        factor = np.asarray(factor, dtype=complex)
        if factor.shape != (2, 2):
            raise ValueError("observable factors must be 2x2")
        if not _is_hermitian(factor):
            raise ValueError(f"factor for qubit {index} is not Hermitian")
        transformed = _apply_factor(transformed, state.num_qubits, index, factor)
    value = complex(np.vdot(state.amplitudes, transformed))
    if abs(value.imag) > ATOL:
        raise ValueError(f"expectation has imaginary residue {value.imag!r}")
    return float(value.real)
