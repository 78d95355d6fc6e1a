"""Tests for the three experiment pipelines against frozen closed forms.

Every comparison target lives in tests/oracles.py and was derived by hand,
so these tests check the operator pipelines against expressions the code
under test never touches.
"""

import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qeraser import protocols, verify
from qeraser.fock import Statistics
from qeraser.protocols import (
    CHSH_OUTCOMES,
    CONDITIONS,
    HOM_OUTCOMES,
    TABLE_COLUMNS,
    TSIRELSON_BOUND,
    ChshSettings,
    MetrologySetup,
    ProbabilityTable,
    _chsh_columns,
    _chsh_correlators,
    _hom_columns,
    chsh_table,
    chsh_value,
    conditional_correlator,
    hom_table,
    optimal_chsh_angles,
    parity_branch_statistics,
    parity_expectation,
    phase_sensitivity,
)
from qeraser.qubits import (
    StateVector,
    apply_single_qubit,
    ghz_state,
    phase_rotation,
    project_qubit,
    rotation_y,
    sigma_z,
)
from qeraser.verify import (
    dense_chsh_values,
    ghz_decomposition_residual,
    parity_via_rotation,
    parity_via_x_product,
)

PHI_GRID = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
ANGLE = st.floats(0.0, 2.0 * math.pi, allow_nan=False, allow_infinity=False)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
FINITE_ANGLE = st.floats(-20.0, 20.0)
# SHA-256 of the _hom_columns bytes over the grid of test_columns_are_pinned_to_the_bit
HOM_COLUMNS_SHA256 = "3dae7cbf161d96e0c9ef6eea3594076a96bfb4e16b6be032d01a6761cc3d54ee"


def float_bits(value: float) -> bytes:
    return struct.pack("<d", value)


def random_state(rng: np.random.Generator, num_qubits: int) -> StateVector:
    raw = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(num_qubits, raw / np.linalg.norm(raw))


class TestProbabilityTable:
    def test_shape_must_match_labels(self):
        with pytest.raises(ValueError, match="shape does not match"):
            ProbabilityTable(("x", "y"), TABLE_COLUMNS, np.zeros((3, 3)))

    def test_values_are_read_only(self):
        table = hom_table(0.3, "boson")
        with pytest.raises(ValueError):
            table.values[0, 0] = 1.0

    def test_value_and_column_lookup(self):
        table = ProbabilityTable(
            ("r0", "r1"), ("c0", "c1"), np.array([[1.0, 2.0], [3.0, 4.0]])
        )
        assert table.value("r1", "c0") == 3.0
        assert table.column("c1").tolist() == [2.0, 4.0]

    def test_validate_rejects_foreign_columns(self):
        table = ProbabilityTable(("r",), ("a", "b"), np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match="not a conditional table"):
            table.validate_conditional()

    def test_validate_rejects_bad_column_sums(self):
        values = np.array([[0.4, 0.5, 0.9], [0.2, 0.0, 0.2], [0.0, 0.0, 0.0]])
        table = ProbabilityTable(HOM_OUTCOMES, TABLE_COLUMNS, values)
        with pytest.raises(ValueError, match="sum to 1/2"):
            table.validate_conditional()

    def test_validate_rejects_broken_sum_rule(self):
        values = np.array([[0.5, 0.5, 0.9], [0.0, 0.0, 0.1], [0.0, 0.0, 0.0]])
        table = ProbabilityTable(HOM_OUTCOMES, TABLE_COLUMNS, values)
        with pytest.raises(ValueError, match="sum of the conditioned"):
            table.validate_conditional()

    def test_csv_header_and_roundtrip(self):
        table = hom_table(0.8, "boson")
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == "outcome,C=up,C=down,C=?"
        for line, label, row in zip(lines[1:], table.row_labels, table.values):
            cells = line.split(",")
            assert cells[0] == label
            # repr floats must reparse to the exact binary values
            assert [float(c) for c in cells[1:]] == row.tolist()

    def test_summary_lists_all_outcomes(self):
        text = hom_table(0.1, "fermion").summary()
        for label in HOM_OUTCOMES + TABLE_COLUMNS:
            assert label in text


class TestHomTable:
    @pytest.mark.parametrize("statistics", ["boson", "fermion"])
    def test_conditioned_columns_match_closed_form(self, statistics):
        shift = oracles.hom_phase_shift(statistics)
        for phi in PHI_GRID:
            table = hom_table(phi, statistics)
            table.validate_conditional()
            np.testing.assert_allclose(
                table.column("C=up"),
                oracles.hom_conditioned_column(phi + shift),
                atol=1e-12,
            )
            np.testing.assert_allclose(
                table.column("C=down"),
                oracles.hom_conditioned_column(phi + shift + math.pi),
                atol=1e-12,
            )

    @pytest.mark.parametrize("statistics", ["boson", "fermion", "distinguishable"])
    def test_unjoined_column_is_phase_flat(self, statistics):
        # ignoring the control must hide the fringe: no signaling backwards
        for phi in PHI_GRID:
            table = hom_table(phi, statistics)
            np.testing.assert_allclose(
                table.column("C=?"), [0.5, 0.25, 0.25], atol=1e-12
            )

    def test_distinguishable_conditioning_recovers_nothing(self):
        for phi in (0.0, 1.0, 2.5):
            table = hom_table(phi, "distinguishable")
            table.validate_conditional()
            np.testing.assert_allclose(
                table.column("C=up"), oracles.hom_distinguishable_column(), atol=1e-12
            )
            np.testing.assert_allclose(
                table.column("C=down"),
                oracles.hom_distinguishable_column(),
                atol=1e-12,
            )

    def test_boson_bunching_at_zero_phase(self):
        table = hom_table(0.0, "boson")
        assert table.value("AB", "C=up") == pytest.approx(0.0, abs=1e-12)
        # C=down flips the fringe: full coincidence on that branch
        assert table.value("AB", "C=down") == pytest.approx(0.5, abs=1e-12)

    def test_fermion_antibunching_at_zero_phase(self):
        table = hom_table(0.0, "fermion")
        assert table.value("AB", "C=up") == pytest.approx(0.5, abs=1e-12)
        assert table.value("AA", "C=up") == pytest.approx(0.0, abs=1e-12)

    def test_row_labels(self):
        assert hom_table(0.0, "boson").row_labels == HOM_OUTCOMES == ("AB", "AA", "BB")

    def test_columns_are_pinned_to_the_bit(self):
        # the byte matrix pins a handful of phases; this pins 2007 of them at
        # four readout angles, so a reordered product or sum in fock shows
        phases = [0.0, -0.0, math.pi, -math.pi, 1e6, -1e6]
        phases += [-50.0 + 0.05 * k for k in range(2001)]
        digest = hashlib.sha256()
        for phi in phases:
            for statistics in Statistics:
                for angle in (0.0, math.pi / 2, 0.7, -2.3):
                    digest.update(_hom_columns(phi, statistics, angle).tobytes())
        assert digest.hexdigest() == HOM_COLUMNS_SHA256


class TestChshSettings:
    def test_angles_reduced_modulo_two_pi(self):
        settings = ChshSettings(2.0 * math.pi + 0.5, -0.5, 0.0, 7.0)
        assert settings.theta_a0 == pytest.approx(0.5)
        assert settings.theta_a1 == pytest.approx(2.0 * math.pi - 0.5)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ChshSettings(math.nan, 0.0, 0.0, 0.0)

    def test_pair_lookup(self):
        settings = ChshSettings(0.1, 0.2, 0.3, 0.4)
        assert settings.pair(0, 1) == (pytest.approx(0.1), pytest.approx(0.4))
        assert settings.pair(1, 0) == (pytest.approx(0.2), pytest.approx(0.3))


class TestChshTable:
    @pytest.mark.parametrize(
        "theta_a,theta_b,phi",
        [(0.0, 0.0, 0.0), (0.3, 1.1, 0.7), (math.pi / 4, -math.pi / 4, 2.0)],
    )
    def test_joint_probabilities_match_closed_form(self, theta_a, theta_b, phi):
        table = chsh_table(theta_a, theta_b, phi)
        table.validate_conditional()
        for label in CHSH_OUTCOMES:
            a = +1 if label[0] == "u" else -1
            b = +1 if label[1] == "u" else -1
            for column, branch in (("C=up", +1), ("C=down", -1)):
                assert table.value(label, column) == pytest.approx(
                    oracles.chsh_joint_probability(a, b, theta_a, theta_b, phi, branch),
                    abs=1e-12,
                )

    def test_aligned_analyzers_correlate_perfectly(self):
        table = chsh_table(0.0, 0.0, 0.0)
        np.testing.assert_allclose(
            table.column("C=up"), [0.25, 0.0, 0.0, 0.25], atol=1e-12
        )
        np.testing.assert_allclose(
            table.column("C=down"), [0.0, 0.25, 0.25, 0.0], atol=1e-12
        )

    def test_unjoined_column_is_flat(self):
        for theta_a, theta_b, phi in [(0.0, 0.0, 0.0), (1.0, 0.2, 0.5)]:
            table = chsh_table(theta_a, theta_b, phi)
            np.testing.assert_allclose(table.column("C=?"), [0.25] * 4, atol=1e-12)


class TestConditionalCorrelator:
    def test_matches_closed_form(self):
        for theta_a in (0.0, 0.4, 1.7):
            for theta_b in (0.0, 0.9, 2.6):
                for phi in (0.0, 0.5, 3.9):
                    for condition, branch in (("up", +1), ("down", -1)):
                        assert conditional_correlator(
                            theta_a, theta_b, phi, condition
                        ) == pytest.approx(
                            oracles.chsh_correlator(theta_a, theta_b, phi, branch),
                            abs=1e-12,
                        )

    def test_unjoined_correlator_vanishes(self):
        for theta_a, theta_b, phi in [(0.0, 0.0, 0.0), (0.7, 1.9, 2.2)]:
            assert conditional_correlator(theta_a, theta_b, phi, "?") == pytest.approx(
                0.0, abs=1e-12
            )


    def test_unknown_condition_rejected(self):
        for condition in ("UP", "maybe", None):
            with pytest.raises(ValueError, match="condition must be one of"):
                conditional_correlator(0.0, 0.0, 0.0, condition)

    @settings(max_examples=300)
    @given(theta_a=FINITE_ANGLE, theta_b=FINITE_ANGLE, phi=FINITE_ANGLE, readout=FINITE_ANGLE)
    def test_correlators_at_any_readout_match_the_closed_form(
        self, theta_a, theta_b, phi, readout
    ):
        up, down, unjoined = _chsh_correlators(theta_a, theta_b, phi, readout)
        for value, branch in ((up, +1), (down, -1)):
            expected = oracles.chsh_readout_correlator(theta_a, theta_b, phi, readout, branch)
            assert abs(value - expected) <= 1e-12
        assert abs(unjoined) <= 1e-12
        weights = np.sum(_chsh_columns(theta_a, theta_b, phi, readout), axis=0)
        np.testing.assert_allclose(weights, [0.5, 0.5, 1.0], rtol=0, atol=1e-12)


class TestVerifyChshDenseRoute:
    """``chsh-dense-route`` holds ``chsh_table`` and the correlators to the dense cells."""

    def test_passes_on_the_library(self):
        verify._check_chsh_dense_route()

    @pytest.mark.parametrize(
        "name, message", [("chsh_table", "chsh_table off"), ("conditional_correlator", "correlator")]
    )
    def test_a_drifted_route_fails_it(self, monkeypatch, name, message):
        exact = getattr(protocols, name)

        def drifted(theta_a, theta_b, phi, *condition):
            return exact(theta_a, theta_b, phi + 1e-6, *condition)

        monkeypatch.setattr(protocols, name, drifted)
        with pytest.raises(AssertionError, match=message):
            verify._check_chsh_dense_route()


class TestChshValue:
    def test_matches_combination_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            angles = tuple(rng.uniform(0.0, 2.0 * math.pi, size=4))
            phi = rng.uniform(0.0, 2.0 * math.pi)
            settings = ChshSettings(*angles)
            for condition, branch in (("up", +1), ("down", -1)):
                assert chsh_value(settings, phi, condition) == pytest.approx(
                    oracles.chsh_combination(angles, phi, branch), abs=1e-12
                )

    def test_unjoined_value_is_zero(self):
        settings = ChshSettings(0.0, math.pi / 2, math.pi / 4, -math.pi / 4)
        assert chsh_value(settings, 0.0, "?") == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_settings_stay_classical(self):
        settings = ChshSettings(0.3, 0.3, 0.3, 0.3)
        for phi in (0.0, 0.9):
            assert chsh_value(settings, phi, "up") <= 2.0 + 1e-12

    def test_invalid_condition_rejected(self):
        with pytest.raises(ValueError, match="condition"):
            chsh_value(ChshSettings(0, 0, 0, 0), 0.0, "maybe")

    @settings(max_examples=60)
    @given(
        a0=ANGLE, a1=ANGLE, b0=ANGLE, b1=ANGLE,
        phi=ANGLE,
        condition=st.sampled_from(CONDITIONS),
    )
    def test_never_exceeds_tsirelson(self, a0, a1, b0, b1, phi, condition):
        value = chsh_value(ChshSettings(a0, a1, b0, b1), phi, condition)
        assert value <= TSIRELSON_BOUND + 1e-9


class TestOptimalChshAngles:
    # one optimum serves both branches: the C=down block is minus the C=up one
    @pytest.mark.parametrize("phi", [0.0, 0.7, math.pi / 3])
    @pytest.mark.parametrize("condition", ["up", "down"])
    def test_reaches_tsirelson(self, phi, condition):
        best = optimal_chsh_angles(phi)
        assert chsh_value(best, phi, condition) == pytest.approx(
            TSIRELSON_BOUND, abs=1e-9
        )

    def test_phi_zero_settings_are_pinned(self):
        # sampled chsh runs without --angles write these settings into
        # their streams, so they must not move by a single bit
        expected = ChshSettings(0.0, math.pi / 2, 5 * math.pi / 4, 3 * math.pi / 4)
        assert optimal_chsh_angles(0.0) == expected

    @settings(max_examples=200)
    @given(phi=st.floats(-50.0, 50.0))
    def test_saturates_tsirelson_everywhere(self, phi):
        best = optimal_chsh_angles(phi)
        for condition in ("up", "down"):
            value = chsh_value(best, phi, condition)
            assert abs(value - TSIRELSON_BOUND) <= 1e-12

    def test_beats_exhaustive_grid(self):
        phi = 1.3
        best = chsh_value(optimal_chsh_angles(phi), phi, "up")
        assert oracles.grid_chsh_maximum(phi) <= best + 1e-12


class TestDenseChshValues:
    def test_matches_chsh_value_row_by_row(self):
        samples = np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, size=(64, 5))
        values = dense_chsh_values(samples)
        assert values.shape == (2, 64)
        for branch, condition in enumerate(("up", "down")):
            for row, value in zip(samples, values[branch]):
                reference = chsh_value(ChshSettings(*row[:4]), row[4], condition)
                assert value == pytest.approx(reference, abs=1e-12)


class TestGhzDecomposition:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_residual_vanishes(self, n):
        for phi in (0.0, 0.9, math.pi, 4.4):
            assert ghz_decomposition_residual(n, phi) < 1e-12

    @pytest.mark.parametrize("n", [0, 20])
    def test_size_bounds(self, n):
        with pytest.raises(ValueError, match="outside supported range"):
            ghz_decomposition_residual(n, 0.0)


class TestMetrologySetup:
    @pytest.mark.parametrize("n", [0, 21])
    def test_register_size_bounds(self, n):
        with pytest.raises(ValueError, match="outside supported range"):
            MetrologySetup(n, 0.0, 0.0, 0.0)

    def test_nonfinite_angles_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            MetrologySetup(2, math.inf, 0.0, 0.0)

    @pytest.mark.parametrize("n", [2.5, 2.0, True])
    def test_register_size_is_an_integer(self, n):
        # True would compute as n = 1, a float fail later in the engine
        with pytest.raises(ValueError, match="n must be an integer"):
            MetrologySetup(n, 0.0, 0.0, 0.0)


def eraser_setup(n: int, theta: float, phi: float) -> MetrologySetup:
    return MetrologySetup(n, theta, phi, math.pi / 2)


class TestParityFringe:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_conditioned_fringe_matches_closed_form(self, n):
        for theta in np.linspace(0.0, 2.0 * math.pi, 9):
            for phi in (0.0, 0.8, 2.9):
                setup = eraser_setup(n, theta, phi)
                for outcome, branch in ((+1, +1), (-1, -1)):
                    assert parity_expectation(setup, outcome) == pytest.approx(
                        oracles.parity_fringe(n, theta, phi, branch), abs=1e-10
                    )

    def test_reference_point(self):
        # two spins, no imprint, no preparation phase: fringe sits at +1
        assert parity_expectation(eraser_setup(2, 0.0, 0.0), +1) == pytest.approx(1.0)

    def test_unjoined_fringe_vanishes(self):
        for n in (1, 2, 3):
            for theta in (0.0, 0.5, 1.9):
                setup = eraser_setup(n, theta, 0.7)
                assert parity_expectation(setup, None) == pytest.approx(0.0, abs=1e-12)

    def test_which_way_readout_kills_the_fringe(self):
        for outcome in (+1, -1):
            setup = MetrologySetup(3, 0.4, 0.9, 0.0)
            assert parity_expectation(setup, outcome) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("control_angle", [0.0, 0.4, math.pi / 2, 2.0])
    def test_control_branches_are_equiprobable(self, control_angle):
        # the two heralded registers are orthogonal, so every control basis
        # sees a 50/50 split and the record leaks nothing by itself
        setup = MetrologySetup(3, 0.8, 1.1, control_angle)
        branches = parity_branch_statistics(setup)
        assert branches[+1][0] == pytest.approx(0.5, abs=1e-12)
        assert branches[-1][0] == pytest.approx(0.5, abs=1e-12)

    def test_each_call_returns_the_callers_own_branches(self):
        setup = MetrologySetup(3, 0.8, 1.1, math.pi / 2)
        first = parity_branch_statistics(setup)
        expected = dict(first)
        first[+1] = (0.0, 0.0)
        assert parity_branch_statistics(setup) == expected

    @pytest.mark.parametrize("theta", [0.3, 2.0])
    def test_largest_registers_keep_the_fringe(self, theta):
        # 19 register spins plus the control, past the n <= 12 of the dense
        # reference: the two-amplitude route must keep the closed-form fringe
        value = parity_expectation(eraser_setup(19, theta, 0.0), +1)
        assert value == pytest.approx(oracles.parity_fringe(19, theta, 0.0, +1), abs=1e-10)

    def test_invalid_outcome_rejected(self):
        with pytest.raises(ValueError, match=r"\+1, -1 or None"):
            parity_expectation(eraser_setup(2, 0.0, 0.0), 0)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 10), theta=ANGLE, phi=ANGLE, control_angle=ANGLE)
    def test_branches_match_the_dense_pipeline(self, n, theta, phi, control_angle):
        # reference: the full 2^(n+1) state vector run gate by gate, each
        # control branch projected out and closed by the y rotation
        state = ghz_state(n + 1, phi)
        for qubit in range(n):
            state = apply_single_qubit(state, qubit, phase_rotation(theta))
        state = apply_single_qubit(state, n, rotation_y(-control_angle))
        register = tuple(range(n))
        setup = MetrologySetup(n, theta, phi, control_angle)
        branches = parity_branch_statistics(setup)
        for outcome in (+1, -1):
            probability, conditional = project_qubit(state, n, sigma_z(), outcome)
            assert branches[outcome][0] == pytest.approx(probability, abs=1e-12)
            assert branches[outcome][1] == pytest.approx(
                parity_via_rotation(conditional, register), abs=1e-12
            )
        assert parity_expectation(setup, None) == pytest.approx(
            parity_via_rotation(state, register), abs=1e-12
        )

    @settings(max_examples=500)
    @given(
        n=st.integers(1, 20),
        theta=st.one_of(ANGLE, FINITE),
        phi=st.one_of(ANGLE, FINITE),
        control_angle=st.one_of(ANGLE, FINITE),
    )
    def test_branches_equal_the_numpy_route_bit_for_bit(self, n, theta, phi, control_angle):
        # analytic and sampled outputs print these values with repr, so
        # equal to the last bit (signed zeros included) is the contract
        branches = parity_branch_statistics(MetrologySetup(n, theta, phi, control_angle))
        expected = oracles.numpy_parity_branch_statistics(n, theta, phi, control_angle)
        assert [float_bits(v) for o in (+1, -1) for v in branches[o]] == [
            float_bits(v) for o in (+1, -1) for v in expected[o]
        ]

    @given(seed=st.integers(0, 2**32 - 1), num_qubits=st.integers(1, 4))
    def test_rotation_route_equals_signed_x_product(self, seed, num_qubits):
        # closing the interferometer arms is the same observable as the
        # x-basis parity, up to one sign per rotated spin
        state = random_state(np.random.default_rng(seed), num_qubits)
        qubits = tuple(range(num_qubits))
        rotated = parity_via_rotation(state, qubits)
        plain = parity_via_x_product(state, qubits)
        assert rotated == pytest.approx((-1.0) ** num_qubits * plain, abs=1e-10)


class TestPhaseSensitivity:
    @pytest.mark.parametrize("n", list(range(1, 9)))
    def test_heisenberg_scaling(self, n):
        for theta in (0.3, 1.0):
            setup = eraser_setup(n, theta, 0.4)
            assert phase_sensitivity(setup) == pytest.approx(
                oracles.heisenberg_variance(n), rel=1e-9
            )

    def test_near_stationary_point_at_large_n(self):
        # near a stationary point a finite difference of the fringe misses the
        # closed-form slope by more than 1e-6 relative; the result must not care
        n, theta = 14, 3.1416
        variance = phase_sensitivity(eraser_setup(n, theta, 0.0))
        slope = n * math.sin(n * theta)
        assert variance * slope**2 == pytest.approx(math.sin(n * theta) ** 2, abs=1e-9)

    def test_stationary_point_diverges(self):
        assert math.isinf(phase_sensitivity(eraser_setup(3, 0.0, 0.0)))

    def test_requires_erasing_readout(self):
        with pytest.raises(ValueError, match="erasing readout"):
            phase_sensitivity(MetrologySetup(2, 0.3, 0.0, 0.0))
