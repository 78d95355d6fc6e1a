"""Self-contained invariant suite behind ``qeraser verify``.

Every physical and structural invariant the library promises is encoded
here as a named check with its own local reference formulas, so a single
command can audit an installation end to end without the test suite.
Checks raise AssertionError with a diagnostic; :func:`run_all` collects
the results.  The dense reference routes the checks compare against
(partial trace, GHZ decomposition, parity by closing rotations) live here
too, since no pipeline uses them.
"""

from __future__ import annotations

import io
import math
import operator
from typing import Callable

from . import _numpy as np
from . import fock, protocols, qubits, sampler
from ._record import Record
from .fock import Statistics
from .protocols import ChshSettings, MetrologySetup
from .sampler import ExperimentConfig

TWO_PI = 2.0 * math.pi
_PHI_GRID = np.linspace(0.0, TWO_PI, 16, endpoint=False)


def _closed_form_hom_column(phi_prime: float) -> np.ndarray:
    """(AB, AA, BB) joint probabilities conditioned on one control outcome."""
    return np.array(
        [
            0.5 * math.sin(phi_prime / 2.0) ** 2,
            0.25 * math.cos(phi_prime / 2.0) ** 2,
            0.25 * math.cos(phi_prime / 2.0) ** 2,
        ]
    )


# Dense reference routes: full 2**n state-vector computations that the
# checks below compare the library against.  No pipeline calls them.


def partial_trace(state: qubits.StateVector, keep: tuple[int, ...]) -> np.ndarray:
    """Reduced density matrix over the qubits in ``keep`` (ascending order)."""
    keep = tuple(keep)
    if len(set(keep)) != len(keep) or not keep:
        raise ValueError("keep must be a nonempty set of distinct qubit indices")
    for index in keep:
        if not 0 <= index < state.num_qubits:
            raise ValueError(
                f"qubit index {index} outside register of {state.num_qubits}"
            )
    keep = tuple(sorted(keep))
    traced = tuple(i for i in range(state.num_qubits) if i not in keep)
    tensor = state.amplitudes.reshape([2] * state.num_qubits)
    tensor = np.transpose(tensor, keep + traced)
    matrix = tensor.reshape(2 ** len(keep), 2 ** len(traced))
    return matrix @ matrix.conj().T


_RIGHT = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
_LEFT = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)


def ghz_decomposition_residual(n: int, phi: float) -> float:
    """Norm distance between an (n+1)-spin GHZ state and its relative-state form.

    The (n+1)-spin state splits over the sigma_x basis of its last spin into
    two n-spin GHZ states whose phases differ by pi:

        GHZ(n+1, phi) = [ GHZ(n, phi) (x) |right>
                          + GHZ(n, phi + pi) (x) |left> ] / sqrt(2)

    Returns ||lhs - rhs||_2, which should vanish to machine precision.
    """
    if not 1 <= n <= 19:
        raise ValueError(f"register size {n} outside supported range 1..19")
    lhs = qubits.ghz_state(n + 1, phi).amplitudes
    rhs = (
        np.kron(qubits.ghz_state(n, phi).amplitudes, _RIGHT)
        + np.kron(qubits.ghz_state(n, phi + math.pi).amplitudes, _LEFT)
    ) / math.sqrt(2.0)
    return float(np.linalg.norm(lhs - rhs))


def parity_via_rotation(state: qubits.StateVector, register: tuple[int, ...]) -> float:
    """Register parity measured the way an interferometer closes.

    Applies the closing rotation exp(-i sigma_y pi/4) to each listed qubit
    and takes the expectation of the product of their sigma_z readouts.
    Equivalent to the x-basis parity of :func:`parity_via_x_product` times
    (-1)**len(register).
    """
    rotated = state
    gate = qubits.rotation_y(math.pi / 2)
    for qubit in register:
        rotated = qubits.apply_single_qubit(rotated, qubit, gate)
    factors = [
        qubits.sigma_z() if q in register else qubits.identity()
        for q in range(state.num_qubits)
    ]
    return qubits.expectation(rotated, factors)


def parity_via_x_product(state: qubits.StateVector, register: tuple[int, ...]) -> float:
    """Expectation of the plain product of sigma_x over the listed qubits."""
    factors = [
        qubits.sigma_x() if q in register else qubits.identity()
        for q in range(state.num_qubits)
    ]
    return qubits.expectation(state, factors)


def _prepared_register(setup: MetrologySetup) -> qubits.StateVector:
    """Dense GHZ register after the phase imprint and the control rotation."""
    state = qubits.ghz_state(setup.n + 1, setup.phi)
    shift = qubits.phase_rotation(setup.theta)
    for qubit in range(setup.n):
        state = qubits.apply_single_qubit(state, qubit, shift)
    return qubits.apply_single_qubit(
        state, setup.n, qubits.rotation_y(-setup.control_angle)
    )


def dense_chsh_columns(
    theta_a: float, theta_b: float, phi: float, control_angle: float
) -> list[tuple[float, float, float]]:
    """:func:`protocols._chsh_columns` as projector expectations on the three-spin state."""
    state = qubits.tripartite_spin_state(phi)
    a, b = (qubits.spectral_projectors(qubits.analyzer_observable(t)) for t in (theta_a, theta_b))
    control = qubits._control_projectors(control_angle)
    sign, rows = protocols._OUTCOME_SIGN, []
    for s, t in protocols.CHSH_OUTCOMES:
        factors = [a[sign[s]], b[sign[t]]]
        up, down = (qubits.expectation(state, [*factors, control[k]]) for k in (+1, -1))
        rows.append((up, down, up + down))
    return rows


def _check_state_constructors() -> None:
    for phi in _PHI_GRID:
        for state in (
            qubits.ghz_state(3, phi),
            qubits.bell_relative_state(phi, +1),
            qubits.bell_relative_state(phi, -1),
            qubits.tripartite_spin_state(phi),
        ):
            norm = np.linalg.norm(state.amplitudes)
            assert abs(norm - 1.0) < 1e-12, f"norm {norm} at phi={phi}"


def _check_relative_state_identity() -> None:
    # the three-spin state splits over the control z basis into the two
    # pair branches with equal weight
    up = np.array([1.0, 0.0], dtype=complex)
    down = np.array([0.0, 1.0], dtype=complex)
    for phi in _PHI_GRID:
        lhs = qubits.tripartite_spin_state(phi).amplitudes
        rhs = (
            np.kron(qubits.bell_relative_state(phi, +1).amplitudes, up)
            + np.kron(qubits.bell_relative_state(phi, -1).amplitudes, down)
        ) / math.sqrt(2.0)
        residual = np.linalg.norm(lhs - rhs)
        assert residual < 1e-12, f"residual {residual} at phi={phi}"


def _check_unitary_preserves_norm() -> None:
    rng = np.random.default_rng(11)
    for _ in range(20):
        num_qubits = int(rng.integers(1, 5))
        raw = rng.normal(size=(2**num_qubits,)) + 1j * rng.normal(size=(2**num_qubits,))
        state = qubits.StateVector(num_qubits, raw / np.linalg.norm(raw))
        matrix, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        index = int(rng.integers(0, num_qubits))
        rotated = qubits.apply_single_qubit(state, index, matrix)
        norm = np.linalg.norm(rotated.amplitudes)
        assert abs(norm - 1.0) < 1e-12, f"norm {norm} after unitary on {index}"


def _check_measurement_completeness() -> None:
    rng = np.random.default_rng(12)
    bases = [qubits.sigma_x(), qubits.sigma_y(), qubits.sigma_z()]
    for _ in range(20):
        num_qubits = int(rng.integers(1, 4))
        raw = rng.normal(size=(2**num_qubits,)) + 1j * rng.normal(size=(2**num_qubits,))
        state = qubits.StateVector(num_qubits, raw / np.linalg.norm(raw))
        index = int(rng.integers(0, num_qubits))
        basis = bases[int(rng.integers(0, 3))]
        p_plus, cond_plus = qubits.project_qubit(state, index, basis, +1)
        p_minus, cond_minus = qubits.project_qubit(state, index, basis, -1)
        assert abs(p_plus + p_minus - 1.0) < 1e-12, "outcome probabilities must sum to 1"
        for probability, conditional in ((p_plus, cond_plus), (p_minus, cond_minus)):
            if conditional is not None and probability > 1e-14:
                norm = np.linalg.norm(conditional.amplitudes)
                assert abs(norm - 1.0) < 1e-12, "conditional state must be normalized"


def _check_partial_trace_density() -> None:
    for phi in _PHI_GRID:
        reduced = partial_trace(qubits.tripartite_spin_state(phi), (0, 1))
        asymmetry = np.abs(reduced - reduced.conj().T).max()
        assert asymmetry <= 1e-12, f"reduced matrix not Hermitian: {asymmetry}"
        trace = np.trace(reduced)
        assert abs(trace - 1.0) < 1e-12, f"trace {trace}"
        eigenvalues = np.linalg.eigvalsh(reduced)
        assert eigenvalues.min() > -1e-10, f"negative eigenvalue {eigenvalues.min()}"


def _check_splitter_preserves_norm() -> None:
    for statistics in Statistics:
        for phi in _PHI_GRID:
            state = fock.hom_input_state(phi, statistics)
            out = fock.beam_splitter_substitute(state)
            assert abs(state.norm_squared() - 1.0) < 1e-12
            assert (
                abs(out.norm_squared() - state.norm_squared()) < 1e-12
            ), f"splitter changed the norm for {statistics}"


def _check_hom_closed_form() -> None:
    for statistics, shift in ((Statistics.BOSON, 0.0), (Statistics.FERMION, math.pi)):
        for phi in _PHI_GRID:
            table = protocols.hom_table(phi, statistics)
            expected_up = _closed_form_hom_column(phi + shift)
            expected_down = _closed_form_hom_column(phi + shift + math.pi)
            assert np.abs(table.column("C=up") - expected_up).max() < 1e-12
            assert np.abs(table.column("C=down") - expected_down).max() < 1e-12


def _check_hom_distinguishable_flat() -> None:
    expected = np.array([0.25, 0.125, 0.125])
    for phi in _PHI_GRID:
        table = protocols.hom_table(phi, Statistics.DISTINGUISHABLE)
        assert np.abs(table.column("C=up") - expected).max() < 1e-12
        assert np.abs(table.column("C=down") - expected).max() < 1e-12


def _check_hom_marginal_flat() -> None:
    expected = np.array([0.5, 0.25, 0.25])
    for statistics in Statistics:
        for phi in _PHI_GRID:
            table = protocols.hom_table(phi, statistics)
            table.validate_conditional()
            assert (
                np.abs(table.column("C=?") - expected).max() < 1e-12
            ), f"marginal not flat for {statistics} at phi={phi}"


def _check_chsh_unconditioned_zero() -> None:
    rng = np.random.default_rng(15)
    for _ in range(50):
        settings = ChshSettings(*rng.uniform(0.0, TWO_PI, size=4))
        phi = float(rng.uniform(0.0, TWO_PI))
        value = protocols.chsh_value(settings, phi, "?")
        assert abs(value) < 1e-12, f"unjoined CHSH value {value}"


def dense_chsh_values(samples: np.ndarray) -> np.ndarray:
    """Batched :func:`protocols.chsh_value` for rows (a0, a1, b0, b1, phi).

    The stacked analyzer observables of all rows meet the dense pair states
    ``bell_relative_state(phi, +-1)``, built as one amplitude array, in one
    einsum.  Returns shape (2, rows): the up branch, then the down branch.
    """
    analyzers = qubits.analyzer_observable(samples[:, :4]).reshape(
        -1, 2, 2, 2, 2
    )  # (row, side a/b, setting 0/1, 2, 2)
    # (|up down> + sign e^{i phi} |down up>)/sqrt(2) of every row, both signs
    phase = np.exp(1.0j * samples[:, 4]) / math.sqrt(2.0)
    pairs = np.zeros((2, len(samples), 4), dtype=complex)
    pairs[:, :, 0b01] = 1.0 / math.sqrt(2.0)
    pairs[:, :, 0b10] = np.stack([phase, -phase])
    pairs = pairs.reshape(2, -1, 2, 2)  # (branch, row, spin a, spin b)
    e = np.einsum(
        "cnst,nisu,njtv,cnuv->cnij",
        pairs.conj(), analyzers[:, 0], analyzers[:, 1], pairs, optimize=True,
    ).real
    return np.abs(e[..., 0, 0] + e[..., 0, 1] + e[..., 1, 0] - e[..., 1, 1])


def _check_tsirelson_bound() -> None:
    # row k holds the stream's draws 5k..5k+4: settings a0, a1, b0, b1, then phi
    samples = np.random.default_rng(16).uniform(0.0, TWO_PI, size=(10_000, 5))
    bound = protocols.TSIRELSON_BOUND + 1e-9
    for condition, values in zip(("up", "down"), dense_chsh_values(samples)):
        worst = float(values.max())
        assert worst <= bound, f"CHSH value {worst} beyond the quantum bound ({condition})"


def _check_chsh_optimum() -> None:
    phis = (0.0, 0.9, -2.5, 4.0)
    # a seeded random search over settings, blind to the optimizer's formula:
    # rows (a0, a1, b0, b1, phi), the same 4096 settings at every phi
    rows = 4096
    settings = np.random.default_rng(17).uniform(0.0, TWO_PI, size=(rows, 4))
    samples = np.concatenate([np.column_stack([settings, np.full(rows, phi)]) for phi in phis])
    searched = dense_chsh_values(samples).reshape(2, len(phis), rows).max(axis=2)
    for k, phi in enumerate(phis):
        optimum = protocols.optimal_chsh_angles(phi)
        for branch, condition in enumerate(("up", "down")):
            value = protocols.chsh_value(optimum, phi, condition)
            best = float(searched[branch, k])
            assert (
                abs(value - protocols.TSIRELSON_BOUND) < 1e-9
            ), f"optimizer reached {value} at phi={phi}, {condition}"
            assert value >= best - 1e-12, f"search found {best} > {value} at phi={phi}"
            # the search comes near the bound, so beating it says something
            assert best > protocols.TSIRELSON_BOUND - 0.02, f"search reached only {best}"


def _check_ghz_decomposition() -> None:
    for n in range(1, 9):
        for phi in (0.0, math.pi / 3, 1.234):
            residual = ghz_decomposition_residual(n, phi)
            assert residual < 1e-12, f"residual {residual} at n={n}, phi={phi}"


def _check_parity_fringe() -> None:
    for n in range(1, 7):
        for theta in np.linspace(0.0, TWO_PI, 16, endpoint=False):
            for phi in (0.0, 1.1):
                setup = MetrologySetup(n, float(theta), phi, math.pi / 2)
                for outcome, branch_sign in ((+1, 1.0), (-1, -1.0)):
                    value = protocols.parity_expectation(setup, outcome)
                    expected = branch_sign * (-1.0) ** n * math.cos(n * theta + phi)
                    assert abs(value - expected) < 1e-10, (
                        f"fringe {value} vs {expected} at n={n}, theta={theta}"
                    )


def _check_parity_route_relation() -> None:
    # closing the interferometer with the collective y rotation and reading
    # z products equals the plain x product up to the sign (-1)^n
    rng = np.random.default_rng(17)
    for _ in range(12):
        num_qubits = int(rng.integers(1, 5))
        raw = rng.normal(size=(2**num_qubits,)) + 1j * rng.normal(size=(2**num_qubits,))
        state = qubits.StateVector(num_qubits, raw / np.linalg.norm(raw))
        register = tuple(range(num_qubits))
        rotated = parity_via_rotation(state, register)
        direct = parity_via_x_product(state, register)
        assert abs(rotated - (-1.0) ** num_qubits * direct) < 1e-12


def _check_parity_unconditioned_zero() -> None:
    for n in (1, 2, 3):
        for control_angle in (0.0, 0.3, math.pi / 2):
            for theta in (0.0, 0.7):
                setup = MetrologySetup(n, theta, 0.4, control_angle)
                value = protocols.parity_expectation(setup, None)
                assert abs(value) < 1e-12, f"unconditioned parity {value}"


def _check_parity_which_way_zero() -> None:
    for n in (1, 2, 4):
        for theta in np.linspace(0.0, TWO_PI, 8, endpoint=False):
            setup = MetrologySetup(n, float(theta), 0.0, 0.0)
            for outcome in (+1, -1):
                value = protocols.parity_expectation(setup, outcome)
                assert abs(value) < 1e-12, f"which-way parity {value}"


def _check_control_marginal_half() -> None:
    for n in (1, 2, 3):
        for control_angle in (0.0, 0.4, math.pi / 2, 2.2):
            branches = protocols.parity_branch_statistics(
                MetrologySetup(n, 0.3, 0.7, control_angle)
            )
            for outcome in (+1, -1):
                assert abs(branches[outcome][0] - 0.5) < 1e-12, (
                    f"control marginal {branches[outcome][0]} at angle {control_angle}"
                )


def _check_metrology_dense_route() -> None:
    # the branch statistics evolved on the two-amplitude GHZ support must
    # match the same gates run on the dense 2^(n+1) state vector
    for n in range(1, 13):
        for control_angle in (0.0, 0.4, math.pi / 2, 2.2):
            setup = MetrologySetup(n, 0.7, 1.3, control_angle)
            state = _prepared_register(setup)
            register = tuple(range(n))
            branches = protocols.parity_branch_statistics(setup)
            for outcome in (+1, -1):
                probability, conditional = qubits.project_qubit(
                    state, n, qubits.sigma_z(), outcome
                )
                dense = (probability, parity_via_rotation(conditional, register))
                assert np.abs(np.subtract(branches[outcome], dense)).max() < 1e-12, (
                    f"branch {outcome}: {branches[outcome]} vs dense {dense} "
                    f"at n={n}, control angle {control_angle}"
                )
            unjoined = protocols.parity_expectation(setup, None)
            dense_unjoined = parity_via_rotation(state, register)
            assert abs(unjoined - dense_unjoined) < 1e-12, (
                f"unjoined parity {unjoined} vs dense {dense_unjoined} "
                f"at n={n}, control angle {control_angle}"
            )


def _check_chsh_dense_route() -> None:
    # closed-form chsh cells against the dense route: random settings, random and erasing
    # readouts; the loop ends at the erasing one, whose dense cells also hold the analytic
    # table and the conditional correlators
    rng = np.random.default_rng(18)
    erasing = protocols._ERASING_ANGLE["chsh"]
    sign = protocols._OUTCOME_SIGN
    signs = [sign[s] * sign[t] for s, t in protocols.CHSH_OUTCOMES]
    for _ in range(64):
        theta_a, theta_b, phi, readout = rng.uniform(-TWO_PI, TWO_PI, size=4).tolist()
        for control_angle in (readout, erasing):
            settings = (theta_a, theta_b, phi, control_angle)
            closed, dense = protocols._chsh_columns(*settings), dense_chsh_columns(*settings)
            distance = np.abs(np.subtract(closed, dense)).max()
            assert distance <= 1e-15, f"closed form off the dense route by {distance} at {settings}"
        table = protocols.chsh_table(theta_a, theta_b, phi)
        table.validate_conditional()
        distance = np.abs(table.values - np.array(dense)).max()
        assert distance <= 1e-15, f"chsh_table off the dense route by {distance} at {settings}"
        for column, condition in enumerate(("up", "down")):
            cells = [row[column] for row in dense]
            expected = math.fsum(map(operator.mul, signs, cells)) / math.fsum(cells)
            value = protocols.conditional_correlator(theta_a, theta_b, phi, condition)
            assert abs(value - expected) <= 1e-14, (
                f"{condition} correlator {value} vs dense {expected} at {settings}"
            )


def _check_phase_sensitivity() -> None:
    for n in range(1, 21):
        theta = 0.4 / n  # keeps sin(n theta + phi) well away from zero
        setup = MetrologySetup(n, theta, 0.3, math.pi / 2)
        sensitivity = protocols.phase_sensitivity(setup)
        assert abs(sensitivity * n**2 - 1.0) < 1e-9, (
            f"sensitivity {sensitivity} misses 1/n^2 at n={n}"
        )
    diverging = MetrologySetup(2, 0.0, 0.0, math.pi / 2)
    assert math.isinf(protocols.phase_sensitivity(diverging))


def _check_fringe_slope() -> None:
    # the closed-form slope that phase_sensitivity divides by must match a
    # central finite difference of the full state-evolution pipeline
    step, phi = 1e-6, 0.3
    for n in range(1, 21):
        theta = 0.4 / n
        plus, minus = (
            protocols.parity_expectation(MetrologySetup(n, t, phi, math.pi / 2), +1)
            for t in (theta + step, theta - step)
        )
        finite_difference = (plus - minus) / (2.0 * step)
        slope = -((-1.0) ** n) * n * math.sin(n * theta + phi)
        assert abs(finite_difference - slope) <= 1e-6 * abs(slope) + 1e-8, (
            f"slope {slope!r} vs finite difference {finite_difference!r} at n={n}"
        )


def _check_zero_discord_marginal() -> None:
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = 0.5  # |up down><up down|
    expected[2, 2] = 0.5  # |down up><down up|
    for phi in _PHI_GRID:
        reduced = partial_trace(qubits.tripartite_spin_state(phi), (0, 1))
        assert np.abs(reduced - expected).max() < 1e-12, (
            f"pair marginal depends on phi={phi}"
        )


def _without_global_phase(amplitudes: np.ndarray) -> np.ndarray:
    """Amplitudes turned so the first largest-magnitude one is real and positive."""
    pivot = int(np.argmax(np.abs(amplitudes)))
    return amplitudes * (abs(amplitudes[pivot]) / amplitudes[pivot])


def _check_local_unitary_equivalence() -> None:
    # one fixed local rotation maps the three-spin state onto the GHZ form
    # for every phi, so the two presentations are the same entanglement class
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    transform = np.kron(np.kron(qubits.identity(), qubits.sigma_x()), hadamard)
    for phi in _PHI_GRID:
        mapped = transform @ qubits.tripartite_spin_state(phi).amplitudes
        target = qubits.ghz_state(3, phi).amplitudes
        distance = np.abs(
            _without_global_phase(mapped) - _without_global_phase(target)
        ).max()
        assert distance <= 1e-12, f"local map misses GHZ form at phi={phi}: {distance}"


def _check_sampler_determinism() -> None:
    config = ExperimentConfig(experiment="hom", shots=64, seed=987, phi=0.4)
    outputs = []
    for _ in range(2):
        system, control = sampler.run_experiment(config)
        sys_csv, ctl_csv = io.StringIO(), io.StringIO()
        sampler.write_stream_csv(sys_csv, system, config)
        sampler.write_stream_csv(ctl_csv, control, config)
        outputs.append((sys_csv.getvalue(), ctl_csv.getvalue()))
    assert outputs[0] == outputs[1], "identical config+seed must give identical bytes"


def _check_sampler_substream_stability() -> None:
    short = sampler.run_experiment(ExperimentConfig(experiment="hom", shots=50, seed=5))
    long = sampler.run_experiment(ExperimentConfig(experiment="hom", shots=200, seed=5))
    assert short[0] == long[0][:50], "per-shot substreams must not depend on shot count"
    assert short[1] == long[1][:50]


def _check_join_completeness() -> None:
    config = ExperimentConfig(experiment="chsh", shots=40, seed=3,
                              settings=ChshSettings(0.0, 1.0, 2.0, 3.0))
    system, control = sampler.run_experiment(config)
    joined = sampler.delayed_join(system, control)
    sizes = len(joined.labeled(+1)) + len(joined.labeled(-1))
    assert sizes == 40, "labeled sets must partition the shots"
    assert len(joined.control.outcome) == 40
    try:
        sampler.delayed_join(system[:-1], control)
    except sampler.JoinError as error:
        assert error.orphaned_control == (39,)
    else:
        raise AssertionError("orphaned control record must raise a join error")


def _check_empirical_table() -> None:
    settings = ({"phi": 0.0, "statistics": "boson"},)
    outcomes = np.array([0, 0, 1, 2])  # AB, AB, AA, BB
    records = sampler.SystemStream(
        np.arange(4), outcomes, np.zeros(4, int), "hom", protocols.HOM_OUTCOMES, settings
    )
    table = sampler.empirical_table(records)
    assert np.allclose(table.column("C=?"), [0.5, 0.25, 0.25])
    assert not table.flagged.any()
    single = sampler.empirical_table(records[:1])
    assert single.value("AB", "C=?") == 1.0
    assert int(single.flagged.sum()) == 2


def _check_no_signaling_analytic() -> None:
    # the unjoined system distribution cannot depend on the control basis
    for experiment in ("hom", "chsh", "metrology"):
        distributions = []
        for control_angle in (0.0, 0.9, math.pi / 2):
            config = ExperimentConfig(
                experiment=experiment,
                shots=1,
                seed=0,
                phi=0.6,
                n=3,
                theta=0.2,
                settings=ChshSettings(0.1, 0.9, 0.4, 1.8),
                control_basis_angle=control_angle,
            )
            dists = sampler.sampling_table(config)
            # sum over the control outcome: even/odd cells pair up
            marginal = dists[..., 0::2] + dists[..., 1::2]
            distributions.append(marginal)
        for other in distributions[1:]:
            assert np.abs(other - distributions[0]).max() < 1e-12, (
                f"{experiment}: system marginal leaks the control basis choice"
            )


class CheckResult(Record):
    name: str
    passed: bool
    detail: str


CHECKS: tuple[tuple[str, Callable[[], None]], ...] = (
    ("state-constructors-normalized", _check_state_constructors),
    ("relative-state-identity", _check_relative_state_identity),
    ("unitary-preserves-norm", _check_unitary_preserves_norm),
    ("measurement-completeness", _check_measurement_completeness),
    ("partial-trace-density", _check_partial_trace_density),
    ("splitter-preserves-norm", _check_splitter_preserves_norm),
    ("hom-closed-form", _check_hom_closed_form),
    ("hom-distinguishable-flat", _check_hom_distinguishable_flat),
    ("hom-marginal-flat", _check_hom_marginal_flat),
    ("chsh-unconditioned-zero", _check_chsh_unconditioned_zero),
    ("tsirelson-bound", _check_tsirelson_bound),
    ("chsh-optimum", _check_chsh_optimum),
    ("ghz-decomposition", _check_ghz_decomposition),
    ("parity-fringe", _check_parity_fringe),
    ("parity-route-relation", _check_parity_route_relation),
    ("parity-unconditioned-zero", _check_parity_unconditioned_zero),
    ("parity-which-way-zero", _check_parity_which_way_zero),
    ("control-marginal-half", _check_control_marginal_half),
    ("metrology-dense-route", _check_metrology_dense_route),
    ("chsh-dense-route", _check_chsh_dense_route),
    ("phase-sensitivity-heisenberg", _check_phase_sensitivity),
    ("fringe-slope-finite-difference", _check_fringe_slope),
    ("zero-discord-marginal", _check_zero_discord_marginal),
    ("local-unitary-equivalence", _check_local_unitary_equivalence),
    ("sampler-determinism", _check_sampler_determinism),
    ("sampler-substream-stability", _check_sampler_substream_stability),
    ("join-completeness", _check_join_completeness),
    ("empirical-table", _check_empirical_table),
    ("no-signaling-analytic", _check_no_signaling_analytic),
)


def run_all() -> list[CheckResult]:
    results = []
    for name, check in CHECKS:
        try:
            check()
        except AssertionError as error:
            results.append(CheckResult(name, False, str(error)))
        except Exception as error:  # noqa: BLE001 - surfaced as a failed check
            results.append(CheckResult(name, False, f"{type(error).__name__}: {error}"))
        else:
            results.append(CheckResult(name, True, ""))
    return results
