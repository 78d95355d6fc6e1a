"""State-vector engine unit tests."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qeraser import qubits
from qeraser.qubits import (
    StateVector,
    analyzer_observable,
    apply_single_qubit,
    bell_relative_state,
    expectation,
    ghz_state,
    identity,
    phase_rotation,
    project_qubit,
    rotation_y,
    sigma_x,
    sigma_y,
    sigma_z,
    spectral_projectors,
    tripartite_spin_state,
)
from qeraser.verify import partial_trace

import oracles

ANGLES = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
UP = np.array([1.0, 0.0])


def random_state(rng: np.random.Generator, num_qubits: int) -> StateVector:
    raw = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(num_qubits, raw / np.linalg.norm(raw))


class TestOperators:
    def test_pauli_matrices(self):
        assert np.array_equal(sigma_x(), [[0, 1], [1, 0]])
        assert np.array_equal(sigma_y(), [[0, -1j], [1j, 0]])
        assert np.array_equal(sigma_z(), [[1, 0], [0, -1]])

    @given(theta=ANGLES)
    def test_sigma_theta_binary(self, theta):
        # sigma_theta = cos(theta) sigma_x + sin(theta) sigma_y, the analyzer
        # observable at -theta
        matrix = analyzer_observable(-theta)
        assert np.abs(matrix - matrix.conj().T).max() < 1e-12
        assert np.abs(matrix @ matrix - np.eye(2)).max() < 1e-12

    @given(theta=ANGLES)
    def test_analyzer_observable_form(self, theta):
        # off-diagonal phases e^{+i theta} / e^{-i theta}
        matrix = analyzer_observable(theta)
        assert abs(matrix[0, 1] - np.exp(1j * theta)) < 1e-12
        assert abs(matrix[1, 0] - np.exp(-1j * theta)) < 1e-12
        mirrored = math.cos(-theta) * sigma_x() + math.sin(-theta) * sigma_y()
        assert np.abs(matrix - mirrored).max() < 1e-12

    @given(pairs=st.lists(st.tuples(ANGLES, ANGLES), max_size=12))
    def test_analyzer_observable_stacks_the_scalar_results(self, pairs):
        # the sampler's tables, and so the stream digests, rest on these bits
        grid = np.array(pairs + [(0.0, -0.0), (math.pi, -math.pi)], dtype=float)
        formula = [math.cos(t) * sigma_x() - math.sin(t) * sigma_y() for t in grid.ravel()]
        scalars = [analyzer_observable(float(t)) for t in grid.ravel()]
        stacked = analyzer_observable(grid)
        assert stacked.shape == grid.shape + (2, 2)
        # bit for bit, signed zeros included
        assert np.array(scalars).tobytes() == np.array(formula).tobytes()
        assert stacked.tobytes() == np.array(formula).tobytes()

    def test_rotation_y_quarter_turn(self):
        # the pi/2 rotation sends right to down and up to right
        right = np.array([1.0, 1.0]) / math.sqrt(2.0)
        rotated = rotation_y(math.pi / 2) @ right
        assert np.abs(rotated - np.array([0.0, 1.0])).max() < 1e-12

    @given(angle=ANGLES)
    def test_rotation_y_unitary(self, angle):
        matrix = rotation_y(angle)
        assert np.abs(matrix.conj().T @ matrix - np.eye(2)).max() < 1e-12

    @given(theta=ANGLES)
    def test_phase_rotation_diagonal(self, theta):
        matrix = phase_rotation(theta)
        assert matrix[0, 1] == 0 and matrix[1, 0] == 0
        assert abs(matrix[0, 0] - np.exp(-0.5j * theta)) < 1e-12
        assert abs(matrix[1, 1] - np.exp(0.5j * theta)) < 1e-12


class TestStateVector:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="does not match"):
            StateVector(2, np.array([1.0, 0.0]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(1, np.array([1.0, 1.0]))

    def test_rejects_oversized_register(self):
        with pytest.raises(ValueError, match="outside supported range"):
            StateVector(qubits.MAX_QUBITS + 1, np.zeros(2))

    def test_amplitudes_read_only(self):
        state = StateVector(1, UP)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestConstructors:
    @pytest.mark.parametrize("phi", [0.0, 0.5, math.pi, 4.0])
    def test_ghz_amplitudes(self, phi):
        state = ghz_state(3, phi)
        assert abs(state.amplitudes[0] - 1 / math.sqrt(2)) < 1e-15
        assert abs(state.amplitudes[-1] - np.exp(1j * phi) / math.sqrt(2)) < 1e-15
        assert np.abs(state.amplitudes[1:-1]).max() == 0.0

    def test_ghz_size_limits(self):
        with pytest.raises(ValueError):
            ghz_state(0, 0.0)
        with pytest.raises(ValueError):
            ghz_state(qubits.MAX_QUBITS + 1, 0.0)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_bell_relative_state(self, sign):
        phi = 0.7
        state = bell_relative_state(phi, sign)
        assert abs(state.amplitudes[0b01] - 1 / math.sqrt(2)) < 1e-15
        assert abs(state.amplitudes[0b10] - sign * np.exp(1j * phi) / math.sqrt(2)) < 1e-15

    def test_bell_relative_state_sign_checked(self):
        with pytest.raises(ValueError):
            bell_relative_state(0.0, 2)

    @pytest.mark.parametrize("phi", [0.0, 1.1, math.pi])
    def test_tripartite_amplitudes(self, phi):
        state = tripartite_spin_state(phi)
        phase = np.exp(1j * phi)
        assert abs(state.amplitudes[0b010] - 0.5) < 1e-15
        assert abs(state.amplitudes[0b011] - 0.5) < 1e-15
        assert abs(state.amplitudes[0b100] - 0.5 * phase) < 1e-15
        assert abs(state.amplitudes[0b101] + 0.5 * phase) < 1e-15

    @pytest.mark.parametrize("phi", np.linspace(0, 2 * math.pi, 8, endpoint=False))
    def test_tripartite_equals_relative_state_form(self, phi):
        up = np.array([1.0, 0.0], dtype=complex)
        down = np.array([0.0, 1.0], dtype=complex)
        rhs = (
            np.kron(bell_relative_state(phi, +1).amplitudes, up)
            + np.kron(bell_relative_state(phi, -1).amplitudes, down)
        ) / math.sqrt(2.0)
        assert np.abs(tripartite_spin_state(phi).amplitudes - rhs).max() < 1e-15


class TestApply:
    def test_hadamard_on_up(self):
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        state = apply_single_qubit(StateVector(1, UP), 0, hadamard)
        expected = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert np.abs(state.amplitudes - expected).max() < 1e-15

    def test_msb_target_selection(self):
        # flipping qubit 0 of |up up> must set the high bit, not the low one
        up_up = StateVector(2, np.array([1.0, 0.0, 0.0, 0.0]))
        state = apply_single_qubit(up_up, 0, sigma_x())
        assert abs(state.amplitudes[0b10] - 1.0) < 1e-15

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            apply_single_qubit(StateVector(1, UP), 0, np.array([[1, 0], [0, 2.0]]))

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError, match="outside register"):
            apply_single_qubit(StateVector(1, UP), 1, sigma_x())

    @given(
        seed=st.integers(0, 2**32 - 1),
        num_qubits=st.integers(1, 4),
        angle=ANGLES,
    )
    def test_unitary_preserves_norm(self, seed, num_qubits, angle):
        state = random_state(np.random.default_rng(seed), num_qubits)
        index = seed % num_qubits
        rotated = apply_single_qubit(state, index, rotation_y(angle))
        assert abs(np.linalg.norm(rotated.amplitudes) - 1.0) < 1e-12


class TestMeasurement:
    def test_projection_probabilities_sum(self):
        state = random_state(np.random.default_rng(0), 3)
        for index in range(3):
            p_plus, _ = project_qubit(state, index, analyzer_observable(-0.3), +1)
            p_minus, _ = project_qubit(state, index, analyzer_observable(-0.3), -1)
            assert abs(p_plus + p_minus - 1.0) < 1e-12

    def test_zero_probability_branch_is_none(self):
        probability, conditional = project_qubit(StateVector(1, UP), 0, sigma_z(), -1)
        assert probability < 1e-14
        assert conditional is None

    def test_conditional_state_normalized(self):
        state = random_state(np.random.default_rng(7), 2)
        for outcome in (+1, -1):
            _, conditional = project_qubit(state, 1, sigma_x(), outcome)
            assert abs(np.linalg.norm(conditional.amplitudes) - 1.0) < 1e-12

    def test_basis_must_be_binary_observable(self):
        with pytest.raises(ValueError, match="square to the identity"):
            project_qubit(StateVector(1, UP), 0, np.diag([1.0, 2.0]), +1)
        with pytest.raises(ValueError, match="Hermitian"):
            project_qubit(StateVector(1, UP), 0, np.array([[0, 1], [0, 0.0]]), +1)


class TestControlReadout:
    """The control readout's two forms: amplitudes in ``math``, dense projectors."""

    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    def test_projectors_are_the_outer_products_of_the_amplitudes(self, angle):
        amplitudes = qubits._control_amplitudes(angle)
        projectors = qubits._control_projectors(angle)
        for outcome in (+1, -1):
            outer = np.outer(amplitudes[outcome], amplitudes[outcome])
            assert np.abs(projectors[outcome] - outer).max() <= 1e-15

    def test_angle_zero_reads_sigma_z_bit_for_bit(self):
        projectors = qubits._control_projectors(0.0)
        for outcome, expected in spectral_projectors(sigma_z()).items():
            assert projectors[outcome].tobytes() == expected.tobytes()
        assert qubits._control_amplitudes(0.0) == {+1: (1.0, 0.0), -1: (-0.0, 1.0)}


class TestExpectation:
    def test_known_values(self):
        state = ghz_state(2, 0.0)
        assert abs(expectation(state, [sigma_x(), sigma_x()]) - 1.0) < 1e-12
        assert abs(expectation(state, [sigma_z(), identity()])) < 1e-12
        assert abs(expectation(state, [sigma_z(), sigma_z()]) - 1.0) < 1e-12

    def test_arity_checked(self):
        with pytest.raises(ValueError, match="one factor per qubit"):
            expectation(ghz_state(2, 0.0), [sigma_z()])

    def test_hermiticity_checked(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            expectation(StateVector(1, UP), [np.array([[0, 1], [0, 0.0]])])

    @given(seed=st.integers(0, 2**32 - 1), theta=ANGLES)
    def test_single_qubit_expectation_bounded(self, seed, theta):
        state = random_state(np.random.default_rng(seed), 2)
        value = expectation(state, [analyzer_observable(-theta), identity()])
        assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


class TestPartialTrace:
    @pytest.mark.parametrize("phi", np.linspace(0, 2 * math.pi, 16, endpoint=False))
    def test_pair_marginal_classical_mixture(self, phi):
        reduced = partial_trace(tripartite_spin_state(phi), (0, 1))
        assert np.abs(reduced - oracles.pair_marginal_density()).max() < 1e-12

    def test_single_qubit_of_ghz_is_maximally_mixed(self):
        reduced = partial_trace(ghz_state(3, 0.4), (1,))
        assert np.abs(reduced - np.eye(2) / 2).max() < 1e-12

    def test_keep_validation(self):
        state = ghz_state(2, 0.0)
        with pytest.raises(ValueError):
            partial_trace(state, ())
        with pytest.raises(ValueError):
            partial_trace(state, (0, 0))
        with pytest.raises(ValueError):
            partial_trace(state, (0, 5))

    def test_unordered_keep_is_sorted(self):
        state = random_state(np.random.default_rng(3), 3)
        a = partial_trace(state, (0, 2))
        b = partial_trace(state, (2, 0))
        assert np.abs(a - b).max() == 0.0

