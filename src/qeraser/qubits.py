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
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StateVector",
    "DensityMatrix",
    "identity",
    "sigma_x",
    "sigma_y",
    "sigma_z",
    "hadamard",
    "sigma_theta",
    "analyzer_observable",
    "rotation_y",
    "phase_rotation",
    "basis_state",
    "ghz_state",
    "bell_relative_state",
    "tripartite_spin_state",
    "spectral_projectors",
    "apply_single_qubit",
    "project_qubit",
    "measure_qubit",
    "expectation",
    "partial_trace",
    "fix_global_phase",
    "states_equal",
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


def hadamard() -> np.ndarray:
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def sigma_theta(theta: float) -> np.ndarray:
    """Equatorial spin component cos(theta) sigma_x + sin(theta) sigma_y.

    Hermitian with eigenvalues exactly +-1 for every theta.
    """
    return math.cos(theta) * sigma_x() + math.sin(theta) * sigma_y()


def analyzer_observable(theta: float) -> np.ndarray:
    """Spin observable measured by a correlation analyzer set to ``theta``.

    Equal to cos(theta) sigma_x - sin(theta) sigma_y, i.e. the equatorial
    component with the opposite rotation sense of :func:`sigma_theta`.
    The sense is chosen so that the two-analyzer correlator on the
    phase-phi pair states (:func:`bell_relative_state`) comes out as
    +-cos(theta_a - theta_b + phi); the mirror convention would flip the
    sign of phi in every conditional table.
    """
    return math.cos(theta) * sigma_x() - math.sin(theta) * sigma_y()


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


def _frozen_amplitudes(num_qubits: int, amplitudes: np.ndarray) -> np.ndarray:
    """Read-only complex copy of ``amplitudes``, checked against the size."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"register size {num_qubits} outside supported range 1..{MAX_QUBITS}")
    amps = np.array(amplitudes, dtype=complex)
    if amps.shape != (2**num_qubits,):
        raise ValueError(
            f"amplitude vector of length {amps.shape} does not match {num_qubits} qubits"
        )
    amps.setflags(write=False)
    return amps


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of ``num_qubits`` spins.

    ``amplitudes[i]`` is the coefficient of the basis state whose bits,
    read from qubit 0 downward, are the binary digits of ``i`` most
    significant first.  The array is read-only.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _frozen_amplitudes(self.num_qubits, self.amplitudes)
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state not normalized: |psi| = {norm!r}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _evolved(cls, num_qubits: int, amplitudes: np.ndarray) -> "StateVector":
        """Result of a unitary step or a renormalized projection, norm unchecked.

        Rounding drift over the gates of a 20-qubit pipeline passes 1e-12.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "num_qubits", num_qubits)
        object.__setattr__(state, "amplitudes", _frozen_amplitudes(num_qubits, amplitudes))
        return state

    def bit(self, index: int, basis_index: int) -> int:
        """Bit of qubit ``index`` inside computational ``basis_index``."""
        return (basis_index >> (self.num_qubits - 1 - index)) & 1


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator."""

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 2**self.num_qubits
        if mat.shape != (dim, dim):
            raise ValueError("density matrix shape does not match qubit count")
        if np.abs(mat - mat.conj().T).max() > ATOL:
            raise ValueError("density matrix not Hermitian")
        if abs(np.trace(mat).real - 1.0) > ATOL:
            raise ValueError("density matrix trace differs from one")
        eigenvalues = np.linalg.eigvalsh(mat)
        if eigenvalues.min() < -1e-10:
            raise ValueError(
                f"density matrix has negative eigenvalue {eigenvalues.min()!r}"
            )
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


_SPIN_CHARS = {"u": 0, "d": 1}


def basis_state(pattern: str) -> StateVector:
    """Computational basis state from a string such as ``"ud"``.

    Each character is ``u`` (up) or ``d`` (down), qubit 0 first.
    """
    try:
        bits = [_SPIN_CHARS[ch] for ch in pattern]
    except KeyError as err:
        raise ValueError(f"unknown spin character in {pattern!r}") from err
    if not bits:
        raise ValueError("empty basis pattern")
    index = 0
    for b in bits:
        index = (index << 1) | b
    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[index] = 1.0
    return StateVector(len(bits), amps)


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
    return StateVector._evolved(state.num_qubits, amps)


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
    ``None`` when the branch has probability below 1e-14 (such a branch is
    never selected by :func:`measure_qubit`).
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
    return probability, StateVector._evolved(
        state.num_qubits, branch / math.sqrt(probability)
    )


def measure_qubit(
    state: StateVector, index: int, basis: np.ndarray, random_draw: float
) -> tuple[int, float, StateVector]:
    """Projective measurement of a +-1 observable on one qubit.

    ``random_draw`` must be uniform on [0, 1).  The +1 outcome is selected
    exactly when ``random_draw`` falls below the +1 branch probability, so
    a zero-probability branch can never be chosen.
    """
    if not 0.0 <= random_draw < 1.0:
        raise ValueError("random draw must lie in [0, 1)")
    p_plus, state_plus = project_qubit(state, index, basis, +1)
    if random_draw < p_plus:
        assert state_plus is not None
        return +1, p_plus, state_plus
    p_minus, state_minus = project_qubit(state, index, basis, -1)
    assert state_minus is not None
    return -1, p_minus, state_minus


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


def partial_trace(state: StateVector, keep: tuple[int, ...]) -> DensityMatrix:
    """Reduced density matrix over the qubits in ``keep`` (ascending order)."""
    keep = tuple(keep)
    if len(set(keep)) != len(keep) or not keep:
        raise ValueError("keep must be a nonempty set of distinct qubit indices")
    for index in keep:
        _check_qubit_index(state.num_qubits, index)
    keep = tuple(sorted(keep))
    traced = tuple(i for i in range(state.num_qubits) if i not in keep)
    tensor = state.amplitudes.reshape([2] * state.num_qubits)
    tensor = np.transpose(tensor, keep + traced)
    matrix = tensor.reshape(2 ** len(keep), 2 ** len(traced))
    return DensityMatrix(len(keep), matrix @ matrix.conj().T)


def fix_global_phase(state: StateVector) -> StateVector:
    """Rotate the global phase so the largest-magnitude amplitude is real > 0.

    Ties are broken by the lowest basis index among the maxima, making the
    representative unique for any fixed tolerance.
    """
    magnitudes = np.abs(state.amplitudes)
    pivot = int(np.argmax(magnitudes))
    phase = state.amplitudes[pivot] / magnitudes[pivot]
    return StateVector(state.num_qubits, state.amplitudes / phase)


def states_equal(first: StateVector, second: StateVector, tol: float = 1e-12) -> bool:
    """Equality of pure states up to global phase, within ``tol``."""
    if first.num_qubits != second.num_qubits:
        return False
    a = fix_global_phase(first).amplitudes
    b = fix_global_phase(second).amplitudes
    return bool(np.abs(a - b).max() <= tol)
