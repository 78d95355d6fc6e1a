"""Acceptance criteria for the delayed-choice simulation package.

Ten numbered criteria, one test each, covering closed-form reproduction,
optimizer saturation, sampled significance, classical equivalence and
byte-level determinism.  Tolerances and shot counts are part of the
contract; do not relax them to make a failing pipeline pass.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.stats import chi2_contingency

import oracles
from qeraser.cli import main
from qeraser.protocols import (
    CHSH_OUTCOMES,
    HOM_OUTCOMES,
    MetrologySetup,
    chsh_table,
    chsh_value,
    hom_table,
    optimal_chsh_angles,
    parity_expectation,
    phase_sensitivity,
)
from qeraser.qubits import tripartite_spin_state
from qeraser.sampler import (
    ExperimentConfig,
    chsh_statistic,
    delayed_join,
    empirical_table,
    joint_counts,
    run_experiment,
)
from qeraser.verify import ghz_decomposition_residual, partial_trace

PHI_32 = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
PHI_16 = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
THETA_16 = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
FULL_SHOTS = 100_000


def test_criterion_01_hom_table_closed_form():
    started = time.perf_counter()
    for statistics in ("boson", "fermion"):
        shift = oracles.hom_phase_shift(statistics)
        for phi in PHI_32:
            table = hom_table(phi, statistics)
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
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"closed-form sweep took {elapsed:.2f} s"
    print(f"PASS criterion 1: conditional interference table, 64 tables in {elapsed:.2f} s")


def test_criterion_02_chsh_table_closed_form():
    triples = list(
        itertools.product(
            (0.0, 0.6, math.pi / 4, 2.2), (0.3, 1.8), (0.0, 0.9)
        )
    )
    assert len(triples) == 16
    for theta_a, theta_b, phi in triples:
        table = chsh_table(theta_a, theta_b, phi)
        for label in CHSH_OUTCOMES:
            a = +1 if label[0] == "u" else -1
            b = +1 if label[1] == "u" else -1
            for column, branch in (("C=up", +1), ("C=down", -1)):
                assert table.value(label, column) == pytest.approx(
                    oracles.chsh_joint_probability(a, b, theta_a, theta_b, phi, branch),
                    abs=1e-12,
                )
        np.testing.assert_allclose(table.column("C=?"), [0.25] * 4, atol=1e-12)
    print("PASS criterion 2: conditional analyzer-pair table over 16 settings triples")


def test_criterion_03_chsh_saturation_and_sampled_violation():
    started = time.perf_counter()
    for phi in (0.0, 0.7, math.pi / 3):
        best = optimal_chsh_angles(phi)
        assert chsh_value(best, phi, "up") == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-9
        )
    best = optimal_chsh_angles(0.0)
    config = ExperimentConfig(
        experiment="chsh", shots=FULL_SHOTS, seed=77, phi=0.0, settings=best
    )
    joined = delayed_join(*run_experiment(config))
    counts = joint_counts(joined.system, joined.control.outcome)
    s_up, err_up = chsh_statistic(counts[..., 0])
    assert abs(s_up) - 2.0 >= 5.0 * err_up, f"violation only {(abs(s_up)-2)/err_up:.1f} sigma"
    s_all, err_all = chsh_statistic(counts.sum(axis=2))
    assert abs(s_all) <= 5.0 * err_all, "unjoined data shows spurious correlations"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"saturation check took {elapsed:.1f} s"
    print(
        "PASS criterion 3: CHSH saturation and sampled violation "
        f"({(abs(s_up) - 2.0) / err_up:.0f} sigma, {elapsed:.1f} s)"
    )


def test_criterion_04_ghz_relative_state_decomposition():
    for n in range(1, 13):
        for phi in (0.0, math.pi / 3, 1.234):
            assert ghz_decomposition_residual(n, phi) < 1e-12
    print("PASS criterion 4: GHZ relative-state decomposition residual, n up to 12")


def test_criterion_05_parity_fringes():
    for n in range(1, 11):
        for theta in THETA_16:
            erasing = MetrologySetup(n, float(theta), 0.9, math.pi / 2)
            assert parity_expectation(erasing, +1) == pytest.approx(
                oracles.parity_fringe(n, theta, 0.9, +1), abs=1e-10
            )
            assert parity_expectation(erasing, None) == pytest.approx(0.0, abs=1e-12)
            which_way = MetrologySetup(n, float(theta), 0.9, 0.0)
            assert parity_expectation(which_way, +1) == pytest.approx(0.0, abs=1e-12)
            assert parity_expectation(which_way, -1) == pytest.approx(0.0, abs=1e-12)
    print("PASS criterion 5: conditional parity fringes, n 1..10 x 16 phases")


def test_criterion_06_heisenberg_limit():
    phi = 0.7
    for n in range(1, 11):
        for k in range(8):
            # fringe arguments strictly inside (0, pi): slope never vanishes
            theta = ((k + 0.5) * math.pi / 8.0 - phi) / n
            setup = MetrologySetup(n, theta, phi, math.pi / 2)
            assert phase_sensitivity(setup) * n**2 == pytest.approx(1.0, abs=1e-9)
    print("PASS criterion 6: phase variance at the 1/n^2 limit, n 1..10")


def test_criterion_07_marginal_flatness():
    for statistics in ("boson", "fermion", "distinguishable"):
        for phi in PHI_32:
            table = hom_table(phi, statistics)
            np.testing.assert_allclose(
                table.column("C=?"), [0.5, 0.25, 0.25], atol=1e-12
            )
    config = ExperimentConfig(experiment="hom", shots=FULL_SHOTS, seed=88, phi=0.9)
    system, _ = run_experiment(config)
    empirical = empirical_table(system.labels, joint_counts(system)[0, :, :1])
    for pattern, expected in zip(HOM_OUTCOMES, (0.5, 0.25, 0.25)):
        band = 5.0 * math.sqrt(expected * (1.0 - expected) / FULL_SHOTS)
        assert abs(empirical.value(pattern, "C=?") - expected) <= band
    print("PASS criterion 7: unjoined splitter statistics flat, analytic and sampled")


def test_criterion_08_zero_discord_pair_marginal():
    for phi in PHI_16:
        state = tripartite_spin_state(float(phi))
        rho = partial_trace(state, keep=(0, 1))
        np.testing.assert_allclose(
            rho, oracles.pair_marginal_density(), atol=1e-12
        )
    print("PASS criterion 8: pair marginal is the phase-free classical mixture")


def _joint_counts(config: ExperimentConfig) -> list[int]:
    joined = delayed_join(*run_experiment(config))
    counts: dict[tuple, int] = {}
    for label in (+1, -1):
        labeled = joined.system[joined.control.outcome == label]
        for row, code in zip(labeled.setting_row, labeled.outcome):
            settings, outcome = labeled.settings[row], labeled.labels[code]
            if config.experiment == "chsh":
                cell = (settings["setting_a"], settings["setting_b"], outcome, label)
            else:
                cell = (outcome, label)
            counts[cell] = counts.get(cell, 0) + 1
    return [counts.get(cell, 0) for cell in sorted(counts | _all_cells(config))]


def _all_cells(config: ExperimentConfig) -> dict[tuple, int]:
    if config.experiment == "hom":
        outcomes: tuple = HOM_OUTCOMES
    elif config.experiment == "chsh":
        outcomes = tuple(
            (i, j, o) for i in (0, 1) for j in (0, 1) for o in CHSH_OUTCOMES
        )
        return {(*o, label): 0 for o in outcomes for label in (+1, -1)}
    else:
        outcomes = ("+1", "-1")
    return {(o, label): 0 for o in outcomes for label in (+1, -1)}


def test_criterion_09_classical_mixture_equivalence():
    best = optimal_chsh_angles(0.0)
    runs = {
        "hom": dict(experiment="hom", phi=0.9, control_basis_angle=0.0),
        "chsh": dict(experiment="chsh", phi=0.0, settings=best, control_basis_angle=0.0),
        "metrology": dict(
            experiment="metrology", n=3, theta=0.7, phi=0.4,
            control_basis_angle=math.pi / 2,
        ),
    }
    for name, fields in runs.items():
        quantum = ExperimentConfig(shots=FULL_SHOTS, seed=1001, **fields)
        classical = ExperimentConfig(
            shots=FULL_SHOTS, seed=2002, mode="classical_mixture", **fields
        )
        contingency = np.array([_joint_counts(quantum), _joint_counts(classical)])
        contingency = contingency[:, contingency.sum(axis=0) > 0]
        _, p_value, _, _ = chi2_contingency(contingency)
        assert p_value > 0.001, f"{name}: joined mixtures differ (p = {p_value:.2e})"
    print("PASS criterion 9: classical mixture indistinguishable after joining, 3 experiments")


def test_criterion_10_byte_identical_reruns(tmp_path, capsys):
    invocations = {
        "hom": ["hom", "--mode", "sample", "--shots", "2000", "--seed", "5",
                "--phi", "0.9", "--format", "csv"],
        "chsh": ["chsh", "--mode", "sample", "--shots", "2000", "--seed", "5",
                 "--angles", "0,1.5707963,0.7853981,2.3561944", "--format", "csv"],
        "phase": ["phase-est", "--mode", "sample", "--shots", "2000", "--seed", "5",
                  "--n", "2", "--theta-scan", "0:3:4", "--format", "csv"],
    }
    for name, argv in invocations.items():
        outputs = []
        for attempt in ("first", "second"):
            path = tmp_path / f"{name}.{attempt}.csv"
            assert main(argv + ["--output", str(path)]) == 0
            blobs = [path.read_bytes()]
            control = path.with_name(path.stem + ".control.csv")
            if control.exists():
                blobs.append(control.read_bytes())
            outputs.append(blobs)
        capsys.readouterr()
        # header embeds the config but no timestamps; bytes must repeat
        first, second = outputs
        assert len(first) == len(second)
        for blob_a, blob_b in zip(first, second):
            assert blob_a == blob_b
    print("PASS criterion 10: identical config and seed give byte-identical files")
