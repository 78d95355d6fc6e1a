"""Tests for the shot sampler, the delayed join and the stream writers.

Statistical assertions use 5 sigma bands around the analytic values, so a
false failure needs a one-in-a-million fluctuation on a frozen seed; any
real regression in the sampling pipeline lands far outside the band.
"""

import io
import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

import oracles
from qeraser import cli, fock, sampler
from qeraser._record import replace
from qeraser.protocols import (
    _ERASING_ANGLE,
    _OUTCOME_SIGN,
    CHSH_OUTCOMES,
    HOM_OUTCOMES,
    ChshSettings,
    optimal_chsh_angles,
)
from qeraser.sampler import (
    EXPERIMENTS,
    GENERATOR_ID,
    ControlStream,
    ExperimentConfig,
    JoinError,
    SystemStream,
    _shot_uniforms,
    chsh_statistic,
    classical_mixture_run,
    config_to_dict,
    delayed_join,
    empirical_parity,
    empirical_table,
    joint_counts,
    metadata_header,
    run_counts,
    run_experiment,
    write_stream_csv,
)

SETTINGS = ChshSettings(0.0, math.pi / 2, math.pi / 4, 3.0 * math.pi / 4)


def hom_config(**overrides):
    base = dict(experiment="hom", shots=200, seed=7, phi=0.9)
    base.update(overrides)
    return ExperimentConfig(**base)


def chsh_config(**overrides):
    base = dict(experiment="chsh", shots=200, seed=7, phi=0.0, settings=SETTINGS)
    base.update(overrides)
    return ExperimentConfig(**base)


def metrology_config(**overrides):
    base = dict(
        experiment="metrology",
        shots=200,
        seed=7,
        phi=0.4,
        n=3,
        theta=0.7,
        control_basis_angle=math.pi / 2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


ALL_CONFIGS = {
    "hom": hom_config,
    "chsh": chsh_config,
    "metrology": metrology_config,
}


class TestConfigValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="experiment must be one of"):
            ExperimentConfig("bell", 10, 0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            hom_config(mode="thermal")

    @pytest.mark.parametrize("shots", [0, -5, 2.5])
    def test_bad_shots(self, shots):
        with pytest.raises(ValueError, match="positive integer"):
            hom_config(shots=shots)

    def test_shots_end_where_int64_shot_indices_do(self):
        assert hom_config(shots=2**63).shots == 2**63  # indices 0 .. 2**63 - 1; nothing drawn
        with pytest.raises(ValueError, match=r"positive integer at most 2\*\*63"):
            hom_config(shots=2**63 + 1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 0.5])
    def test_bad_seed(self, seed):
        with pytest.raises(ValueError, match="64-bit unsigned"):
            hom_config(seed=seed)

    def test_nonfinite_angle(self):
        with pytest.raises(ValueError, match="finite"):
            hom_config(phi=math.nan)

    def test_hom_needs_known_statistics(self):
        with pytest.raises(ValueError):
            hom_config(statistics="anyon")

    def test_chsh_needs_settings(self):
        with pytest.raises(ValueError, match="analyzer settings"):
            ExperimentConfig("chsh", 10, 0)

    @pytest.mark.parametrize(
        "field, value",
        [("shots", True), ("shots", 3.0), ("seed", False), ("seed", True), ("n", 2.5), ("n", True)],
    )
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_integer_fields_take_only_integers(self, experiment, field, value):
        # a bool would be written to the header as true/false, a float fail in the engine
        with pytest.raises(ValueError, match=field):
            ALL_CONFIGS[experiment](**{field: value})

    @pytest.mark.parametrize("n", [0, 21])
    def test_metrology_register_bounds(self, n):
        with pytest.raises(ValueError, match="outside supported range"):
            metrology_config(n=n)

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_classical_mixture_takes_only_the_erasing_angle(self, experiment):
        # the mixture's plan reads the erasing readout, so the header must say so
        erasing = _ERASING_ANGLE[experiment]
        config = ALL_CONFIGS[experiment](mode="classical_mixture", control_basis_angle=erasing)
        assert config_to_dict(config)["control_basis_angle"] == erasing
        with pytest.raises(ValueError, match="control_basis_angle .* erasing angle"):
            ALL_CONFIGS[experiment](mode="classical_mixture", control_basis_angle=erasing + 0.3)


class TestDeterminism:
    def test_generator_id_is_frozen(self):
        # part of the file format: changing it invalidates archived streams
        assert GENERATOR_ID == "philox4x64/block-per-shot/v1"

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    @pytest.mark.parametrize("mode", ["quantum", "classical_mixture"])
    def test_identical_runs(self, experiment, mode):
        config = ALL_CONFIGS[experiment](mode=mode)
        assert run_experiment(config) == run_experiment(config)

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    @pytest.mark.parametrize("mode", ["quantum", "classical_mixture"])
    def test_shot_count_extension_keeps_prefix(self, experiment, mode):
        # per-shot counter blocks: shot i's draws never depend on the total
        short = run_experiment(ALL_CONFIGS[experiment](shots=50, mode=mode))
        long = run_experiment(ALL_CONFIGS[experiment](shots=200, mode=mode))
        assert long[0][:50] == short[0]
        assert long[1][:50] == short[1]

    def test_seed_changes_the_stream(self):
        a = run_experiment(hom_config(seed=0, shots=500))
        b = run_experiment(hom_config(seed=1, shots=500))
        assert a != b

    def test_control_stream_carries_basis(self):
        _, control = run_experiment(hom_config(control_basis_angle=0.25))
        assert control.basis_angle == 0.25

    def test_chsh_records_expose_settings_not_control(self):
        system, _ = run_experiment(chsh_config())
        for template in system.settings:
            assert set(template) == {
                "setting_a",
                "setting_b",
                "theta_a",
                "theta_b",
                "phi",
            }
        # analyzer pairs are drawn roughly uniformly
        drawn = [system.settings[row] for row in set(system.setting_row.tolist())]
        pairs = {(s["setting_a"], s["setting_b"]) for s in drawn}
        assert pairs == {(0, 0), (0, 1), (1, 0), (1, 1)}


class TestGeneratorContract:
    """``philox4x64/block-per-shot/v1`` against a plain-Python Philox4x64-10."""

    @given(seed=st.integers(0, 2**64 - 1))
    @example(seed=0)
    @example(seed=2**64 - 1)
    def test_the_raw_words_of_the_first_shots(self, seed):
        words = np.random.Philox(key=seed).random_raw(12).tolist()
        assert words == [w for shot in range(3) for w in oracles.philox_shot_words(seed, shot)]

    @given(seed=st.integers(0, 2**64 - 1), start=st.integers(0, 2**66))
    @example(seed=0, start=0)
    @example(seed=2**64 - 1, start=2**64 - 2)  # the counter carries into its second word
    @example(seed=2**64 - 1, start=999)
    def test_advance_reaches_shot_start(self, seed, start):
        generator = np.random.Philox(key=seed)
        generator.advance(start)
        words = generator.random_raw(8).tolist()
        assert words == [*oracles.philox_shot_words(seed, start),
                         *oracles.philox_shot_words(seed, start + 1)]

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_shot_uniforms_read_the_leading_words(self, seed):
        uniforms = _shot_uniforms(np.random.Philox(key=seed), 5, 3)
        expected = [[oracles.shot_uniform(oracles.philox_shot_words(seed, shot)[k])
                     for shot in range(5)] for k in range(3)]
        assert uniforms.tolist() == expected

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("mode", ["quantum", "classical_mixture"])
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_runs_rebuilt_from_the_oracle_write_the_same_csv(self, experiment, mode, seed):
        # quantum runs read a control angle that is not the erasing one
        angle = {"hom": 0.3, "chsh": 0.2, "metrology": 1.1}[experiment]
        if mode == "classical_mixture":
            angle = _ERASING_ANGLE[experiment]
        config = ALL_CONFIGS[experiment](
            shots=64, seed=seed, mode=mode, control_basis_angle=angle
        )
        header = metadata_header(config)
        for rebuilt, records in zip(oracle_streams(config), run_experiment(config)):
            buffer = io.StringIO()
            write_stream_csv(buffer, records, config)
            assert buffer.getvalue() == oracles.stream_csv(rebuilt, header)


def oracle_streams(config):
    """``config``'s run rebuilt shot by shot in plain Python from the oracle's words.

    The uniforms follow the frozen layout of the ``sampler`` docstring,
    and each shot's cell is selected by half-open intervals of the
    cumulative row of the plan's table that the leading uniforms picked.
    """
    plan = sampler._plan(config)
    keyed = config.mode == "classical_mixture"
    paired = config.experiment == "chsh"
    cumulative = [
        list(itertools.accumulate(max(p, 0.0) for p in row)) for row in plan.table.tolist()
    ]
    outcomes, rows, controls = [], [], []
    for shot in range(config.shots):
        words = oracles.philox_shot_words(config.seed, shot)
        uniforms = [oracles.shot_uniform(word) for word in words]
        row = 0
        if keyed:  # key +1 on the first block of rows
            row = 0 if uniforms[0] < 0.5 else 1
        if paired:
            row = 4 * row + min(int(uniforms[keyed] * 4), 3)
        bounds = cumulative[row]
        scaled = uniforms[keyed + paired] * bounds[-1]
        cell = min(sum(scaled >= bound for bound in bounds), len(bounds) - 1)
        if keyed:
            outcome, control = cell, 1 if row < len(cumulative) // 2 else -1
        else:  # joint cells: system-major, control +1 first
            outcome, control = cell // 2, 1 - 2 * (cell % 2)
        outcomes.append(outcome)
        rows.append(row % len(plan.settings))  # the setting pair: a mixture's key is not in it
        controls.append(control)
    shots = np.arange(config.shots)
    return (
        SystemStream(
            shots, np.array(outcomes), np.array(rows), config.experiment,
            plan.labels, tuple(plan.settings),
        ),
        ControlStream(shots, np.array(controls), None if keyed else config.control_basis_angle),
    )


class TestDelayedJoin:
    def test_partition_covers_every_shot(self):
        system, control = run_experiment(hom_config())
        joined = delayed_join(system, control)
        labeled = joint_counts(joined.system, joined.control.outcome).sum(axis=(0, 1))
        signs = control.outcome.tolist()
        assert labeled.tolist() == [signs.count(+1), signs.count(-1)]
        assert joined.system == system
        assert len(joined.control.outcome) == len(system)
        assert set(joined.control.outcome.tolist()) <= {+1, -1}

    def test_join_ignores_stream_order(self):
        system, control = run_experiment(hom_config())
        shuffled = control[np.random.default_rng(3).permutation(len(control))]
        assert delayed_join(system, shuffled) == delayed_join(system, control)

    def test_missing_control_shot(self):
        system, control = run_experiment(hom_config(shots=5))
        with pytest.raises(JoinError) as info:
            delayed_join(system, control[:-1])
        assert info.value.orphaned_system == (4,)
        assert info.value.orphaned_control == ()

    def test_missing_system_shot(self):
        system, control = run_experiment(hom_config(shots=5))
        with pytest.raises(JoinError) as info:
            delayed_join(system[1:], control)
        assert info.value.orphaned_control == (0,)

    def test_duplicate_shot_rejected(self):
        system, control = run_experiment(hom_config(shots=5))
        with pytest.raises(JoinError):
            delayed_join(system[[0, 1, 2, 3, 4, 0]], control)
        with pytest.raises(JoinError):
            delayed_join(system, control[[0, 1, 2, 3, 4, 0]])

    def test_foreign_control_outcome_rejected(self):
        system, control = run_experiment(hom_config(shots=3))
        outcome = control.outcome.copy()
        outcome[1] = 0
        bad = ControlStream(control.shot_index, outcome, control.basis_angle)
        with pytest.raises(JoinError):
            delayed_join(system, bad)


def _shuffled_side(draw, shots):
    """Shot indices 0..shots-1 with a few deleted or repeated, in random order."""
    deleted = draw(st.sets(st.integers(0, shots - 1), max_size=2))
    repeated = draw(st.lists(st.integers(0, shots - 1), max_size=2))
    indices = [i for i in range(shots) if i not in deleted]
    indices += [i for i in repeated if i not in deleted]
    return draw(st.permutations(indices)), draw(st.permutations(indices))


@st.composite
def join_inputs(draw):
    shots = draw(st.integers(1, 12))
    foreign = draw(st.sets(st.integers(0, shots - 1), max_size=1))
    return shots, foreign, _shuffled_side(draw, shots), _shuffled_side(draw, shots)


def control_value(shot, foreign):
    return 0 if shot in foreign else (+1 if shot % 2 == 0 else -1)


def join_result(system_indices, control_indices, foreign):
    system = SystemStream(
        np.array(system_indices, dtype=int),
        np.array([i % 3 for i in system_indices], dtype=int),
        np.zeros(len(system_indices), dtype=int),
        "hom",
        HOM_OUTCOMES,
        ({"phi": 0.0, "statistics": "boson"},),
    )
    control = ControlStream(
        np.array(control_indices, dtype=int),
        np.array([control_value(i, foreign) for i in control_indices], dtype=int),
        0.0,
    )
    try:
        return delayed_join(system, control)
    except JoinError as error:
        return error.orphaned_system, error.orphaned_control


def reference_errors(system_indices, control_indices, foreign):
    """What a set-based join reports, or None when the streams pair up."""
    for side, indices in ((0, system_indices), (1, control_indices)):
        repeated = tuple(sorted(i for i, n in Counter(indices).items() if n > 1))
        if repeated:
            return (repeated, ()) if side == 0 else ((), repeated)
    system_only = tuple(sorted(set(system_indices) - set(control_indices)))
    control_only = tuple(sorted(set(control_indices) - set(system_indices)))
    if system_only or control_only:
        return system_only, control_only
    foreign_shots = tuple(sorted(foreign & set(control_indices)))
    return ((), foreign_shots) if foreign_shots else None


class TestDelayedJoinProperties:
    @settings(max_examples=300, deadline=None)
    @given(join_inputs())
    def test_join_matches_a_set_based_reference_in_any_order(self, inputs):
        _, foreign, (system_a, system_b), (control_a, control_b) = inputs
        result = join_result(system_a, control_a, foreign)
        assert result == join_result(system_b, control_b, foreign)
        expected = reference_errors(system_a, control_a, foreign)
        if expected is not None:
            assert result == expected
            return
        joined = sorted(system_a)
        assert result.system.shot_index.tolist() == joined
        assert result.system.outcome.tolist() == [i % 3 for i in joined]
        assert result.control.outcome.tolist() == [control_value(i, foreign) for i in joined]


def stream_of(experiment, labels, outcomes, templates, rows=None):
    """A hand-built system stream; ``rows`` index ``templates`` (all 0 if None)."""
    return SystemStream(
        np.arange(len(outcomes)),
        np.array([labels.index(o) for o in outcomes], dtype=int),
        np.zeros(len(outcomes), dtype=int) if rows is None else np.array(rows, dtype=int),
        experiment,
        labels,
        tuple(templates),
    )


def hand_records():
    base = {"phi": 0.0, "statistics": "boson"}
    outcomes = ["AB", "AB", "AA", "BB"]
    return stream_of("hom", HOM_OUTCOMES, outcomes, [base])


def table_of(records, control_outcome=None):
    """The empirical table of a system stream: split by ``control_outcome``, or one C=?."""
    counts = joint_counts(records, control_outcome).sum(axis=0)
    return empirical_table(records.labels, counts if control_outcome is not None else counts[:, :1])


def set_counts(joined):
    """(plan rows, outcomes, 2) counts of a join: C=up is ``[..., 0]``, C=down ``[..., 1]``."""
    return joint_counts(joined.system, joined.control.outcome)


class TestEmpiricalTable:
    def test_hand_counted_partition(self):
        records = hand_records()
        table = table_of(records, np.array([+1, -1, +1, -1]))
        assert table.column_labels == ("C=up", "C=down")
        assert table.total == 4
        assert table.value("AB", "C=up") == 0.25
        assert table.value("AB", "C=down") == 0.25
        assert table.value("AA", "C=up") == 0.25
        assert table.value("AA", "C=down") == 0.0
        assert table.counts[table.row_labels.index("BB"), 1] == 1
        expected_error = math.sqrt(0.25 * 0.75 / 4)
        assert table.standard_errors[0, 0] == pytest.approx(expected_error)
        assert table.flagged[table.row_labels.index("AA"), 1]

    def test_unpartitioned_single_column(self):
        table = table_of(hand_records())
        assert table.column_labels == ("C=?",)
        assert table.column("C=?").sum() == pytest.approx(1.0)

    def test_single_record_flags_the_rest(self):
        table = table_of(hand_records()[:1])
        assert table.value("AB", "C=?") == 1.0
        assert int(table.flagged.sum()) == 2
        assert "*" in table.summary()

    def test_summary_shows_errors_and_total(self):
        text = table_of(hand_records()).summary()
        assert "+-" in text
        assert "total shots: 4" in text

    def test_partition_must_cover_all_shots(self):
        with pytest.raises(ValueError, match="control column covers 1 of 4 shots"):
            joint_counts(hand_records(), np.array([+1]))

    @pytest.mark.parametrize("foreign", [0, 2, -2])
    def test_control_column_must_hold_signs(self, foreign):
        with pytest.raises(ValueError, match=r"control outcomes must be \+1 or -1"):
            joint_counts(hand_records(), np.array([+1, -1, foreign, +1]))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty record set"):
            table_of(hand_records()[:0])

    def test_unknown_outcome_rejected(self):
        record = SystemStream([0], [3], [0], "hom", HOM_OUTCOMES, ({"phi": 0.0},))
        with pytest.raises(ValueError, match="unknown outcome"):
            joint_counts(record)

    @pytest.mark.parametrize("shape", [(3,), (3, 3), (2, 1), (1, 3, 2), (4, 2)])
    def test_counts_of_another_shape_are_rejected(self, shape):
        with pytest.raises(ValueError, match="empirical_table needs counts of shape"):
            empirical_table(HOM_OUTCOMES, np.ones(shape, dtype=int))

    @pytest.mark.parametrize("counts", [[[1.0], [2.0], [0.0]], [[1], [-1], [2]]])
    def test_counts_must_be_non_negative_integers(self, counts):
        with pytest.raises(ValueError, match="non-negative integer counts"):
            empirical_table(HOM_OUTCOMES, np.array(counts))


def chsh_records(*shots):
    """A chsh system stream from (setting pair, outcome) shots."""
    templates = [
        {"setting_a": a, "setting_b": b, "theta_a": 0.0, "theta_b": 0.0, "phi": 0.0}
        for a in (0, 1)
        for b in (0, 1)
    ]
    outcomes = [outcome for _, outcome in shots]
    rows = [2 * a + b for (a, b), _ in shots]
    return stream_of("chsh", CHSH_OUTCOMES, outcomes, templates, rows)


class TestChshStatistic:
    def test_hand_counted_value(self):
        records = chsh_records(
            ((0, 0), "uu"),
            ((0, 0), "ud"),
            ((0, 1), "uu"),
            ((1, 0), "dd"),
            ((1, 1), "ud"),
        )
        value, error = chsh_statistic(joint_counts(records)[..., 0])
        # E00 = 0, E01 = 1, E10 = 1, E11 = -1
        assert value == pytest.approx(3.0)
        assert error == pytest.approx(math.sqrt(0.5))

    def test_missing_pair_rejected(self):
        with pytest.raises(ValueError, match="no records for setting pair"):
            chsh_statistic(joint_counts(chsh_records(((0, 0), "uu")))[..., 0])

    def test_wrong_experiment_rejected(self):
        with pytest.raises(ValueError, match=r"needs counts of shape \(4, 4\), got \(1, 3\)"):
            chsh_statistic(joint_counts(hand_records())[..., 0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty record set"):
            chsh_statistic(joint_counts(chsh_records())[..., 0])


def parity_records(*outcomes):
    templates = [{"n": 1, "theta": 0.0, "phi": 0.0}]
    return stream_of("metrology", ("+1", "-1"), outcomes, templates)


class TestEmpiricalParity:
    def test_mean_and_error(self):
        records = parity_records("+1", "+1", "-1", "+1")
        mean, error = empirical_parity(joint_counts(records)[0, :, 0])
        assert mean == pytest.approx(0.5)
        assert error == pytest.approx(1.0 / 2.0)  # std((1,1,-1,1), ddof=1) / sqrt(4)

    def test_single_record(self):
        assert empirical_parity(joint_counts(parity_records("-1"))[0, :, 0]) == (-1.0, 1.0)

    def test_empty_set_reads_nan(self):
        mean, error = empirical_parity(joint_counts(parity_records())[0, :, 0])
        assert math.isnan(mean) and math.isnan(error)

    def test_non_parity_records_rejected(self):
        with pytest.raises(ValueError, match=r"needs counts of shape \(2,\), got \(3,\)"):
            empirical_parity(joint_counts(hand_records())[0, :, 0])


@given(st.integers(0, 200_000), st.integers(0, 200_000), st.integers(0, 2**32 - 1))
@example(0, 0, 0)
@example(1, 0, 0)
@example(0, 1, 0)
@example(1, 1, 0)
@example(2, 0, 0)
@example(0, 2, 0)
@example(150_000, 0, 1)
@example(0, 150_000, 1)
def test_parity_estimate_is_numpys_mean_and_std(plus, minus, seed):
    """The closed form from counts against ``np.mean`` and ``np.std(ddof=1)`` of the set."""
    values = np.random.default_rng(seed).permutation(np.repeat([1.0, -1.0], [plus, minus]))
    mean, error = empirical_parity((plus, minus))
    n = plus + minus
    if n == 0:
        assert math.isnan(mean) and math.isnan(error)
        return
    assert mean == float(np.mean(values))
    expected = 1.0 if n == 1 else float(np.std(values, ddof=1) / math.sqrt(n))
    assert math.isclose(error, expected, rel_tol=1e-15)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_swapped_counts_negate_the_mean_and_keep_the_error(plus, minus):
    mean, error = empirical_parity((plus, minus))
    swapped_mean, swapped_error = empirical_parity((minus, plus))
    if plus + minus == 0:
        assert all(map(math.isnan, (mean, error, swapped_mean, swapped_error)))
        return
    assert swapped_mean == -mean
    assert swapped_error == error


def test_parity_estimate_of_int64_counts_past_int64_products():
    """4 n+ n- of these counts overflows int64; the estimate multiplies Python ints."""
    half = 2**40
    n = 2 * half
    mean, error = empirical_parity(np.array([half, half], dtype=np.int64))
    assert mean == 0.0
    assert math.isclose(error, 1.0 / math.sqrt(n - 1), rel_tol=1e-15)


def test_a_theta_point_draws_its_chunks_once(monkeypatch, capsys):
    draws = []
    sample = sampler._sample

    def counted(config):
        draws.append(config)
        return sample(config)

    monkeypatch.setattr(sampler, "_sample", counted)
    shots = 3 * sampler._CHUNK + 5
    argv = ["phase-est", "--n", "5", "--theta", "1.5", "--control-angle", "1.2",
            "--mode", "sample", "--shots", str(shots), "--seed", "7", "--format", "csv"]
    assert cli.main(argv) == 0
    assert [(c.shots, c.seed, c.theta) for c in draws] == [(shots, 7, 1.5)]
    *_, row = capsys.readouterr().out.splitlines()
    estimates = list(map(float, row.split(",")[1:]))
    assert len(estimates) == 6 and not any(map(math.isnan, estimates))


def estimates(counts) -> list[str]:
    """Parity and error of the C=up, C=down and unjoined sets of metrology counts."""
    up, down = counts[0].T
    return [repr(v) for branch in (up, down, up + down) for v in empirical_parity(branch)]


@pytest.mark.parametrize(
    "shots, n, theta, angle, seed",
    [
        (1, 3, 0.3, 0.0, 4),  # one empty branch and two one-shot sets
        (2, 3, 0.3, 0.0, 4),
        (9000, 5, 1.5, 1.2, 7),  # three chunks, the last one ragged
        (3 * sampler._CHUNK, 10, 0.3, 0.0, 11),
    ],
)
def test_streamed_estimates_are_empirical_parity_of_each_joined_set(shots, n, theta, angle, seed):
    config = sampler.ExperimentConfig(
        "metrology", shots, seed, n=n, theta=theta, control_basis_angle=angle
    )
    joined = delayed_join(*run_experiment(config))
    assert estimates(run_counts(config)) == estimates(set_counts(joined))


class TestRunColumns:
    """``run_experiment`` keeps the chunks' int8 codes; every statistic reads them as int64."""

    @pytest.mark.parametrize("mode", ["quantum", "classical_mixture"])
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_int8_columns_give_the_statistics_of_int64_copies(self, experiment, mode):
        erasing = {"control_basis_angle": _ERASING_ANGLE[experiment]}
        config = ALL_CONFIGS[experiment](shots=3 * sampler._CHUNK + 5, mode=mode, **erasing)
        system, control = run_experiment(config)
        assert system.shot_index.dtype == np.int64
        assert system.outcome.dtype == system.setting_row.dtype == control.outcome.dtype == np.int8
        wide_system = replace(
            system,
            outcome=system.outcome.astype(np.int64),
            setting_row=system.setting_row.astype(np.int64),
        )
        wide_control = replace(control, outcome=control.outcome.astype(np.int64))
        narrow, wide = delayed_join(system, control), delayed_join(wide_system, wide_control)
        for split in (False, True):
            tables = [
                table_of(joined.system, joined.control.outcome if split else None)
                for joined in (narrow, wide)
            ]
            assert tables[0].column_labels == tables[1].column_labels
            for name in ("values", "counts", "standard_errors", "flagged"):
                np.testing.assert_array_equal(getattr(tables[0], name), getattr(tables[1], name))
        counts = (set_counts(narrow), set_counts(wide))
        np.testing.assert_array_equal(*counts)
        for k in (0, 1):
            if experiment == "chsh":
                assert chsh_statistic(counts[0][..., k]) == chsh_statistic(counts[1][..., k])
            if experiment == "metrology":
                assert empirical_parity(counts[0][0, :, k]) == empirical_parity(counts[1][0, :, k])


def hom_joint_probability(phi, statistics, control_angle, pattern, outcome):
    state = fock.beam_splitter_substitute(fock.hom_input_state(phi, statistics))
    return fock.event_probability(state, pattern, outcome, control_angle)


class TestSampledStatistics:
    SHOTS = 20000

    def test_hom_joint_frequencies_track_the_analytic_table(self):
        # eraser basis for the splitter experiment: control angle 0
        config = hom_config(shots=self.SHOTS, seed=101, control_basis_angle=0.0)
        joined = delayed_join(*run_experiment(config))
        table = table_of(joined.system, joined.control.outcome)
        for pattern in HOM_OUTCOMES:
            for column, outcome in (("C=up", +1), ("C=down", -1)):
                expected = hom_joint_probability(
                    config.phi, "boson", 0.0, pattern, outcome
                )
                band = 5.0 * math.sqrt(expected * (1.0 - expected) / self.SHOTS)
                assert abs(table.value(pattern, column) - expected) <= band

    def test_metrology_fringe_and_flat_unjoined(self):
        config = metrology_config(shots=self.SHOTS, seed=202)
        (counts,) = set_counts(delayed_join(*run_experiment(config)))
        expected = oracles.parity_fringe(config.n, config.theta, config.phi, +1)
        mean, error = empirical_parity(counts[:, 0])
        assert abs(mean - expected) <= 5.0 * error
        unjoined_mean, unjoined_error = empirical_parity(counts.sum(axis=1))
        assert abs(unjoined_mean) <= 5.0 * unjoined_error

    def test_chsh_violation_appears_only_after_joining(self):
        best = optimal_chsh_angles(0.0)
        config = chsh_config(shots=self.SHOTS, seed=303, settings=best)
        counts = set_counts(delayed_join(*run_experiment(config)))
        s_up, err_up = chsh_statistic(counts[..., 0])
        assert abs(abs(s_up) - 2.0 * math.sqrt(2.0)) <= 5.0 * err_up
        assert abs(s_up) - 2.0 > 5.0 * err_up  # a genuine violation, not noise
        s_all, err_all = chsh_statistic(counts.sum(axis=2))
        assert abs(s_all) <= 5.0 * err_all

    def test_unjoined_hom_marginal_ignores_the_control_basis(self):
        # no signaling: the system stream alone cannot reveal the late choice
        counts = []
        for seed, angle in ((404, 0.0), (405, math.pi / 2)):
            config = hom_config(shots=self.SHOTS, seed=seed, control_basis_angle=angle)
            system, _ = run_experiment(config)
            table = table_of(system)
            counts.append([int(c) for c in table.counts[:, 0]])
        _, p_value, _, _ = chi2_contingency(np.array(counts))
        assert p_value > 1e-3


class TestClassicalMixture:
    SHOTS = 20000

    def test_requires_matching_mode(self):
        with pytest.raises(ValueError, match="classical_mixture"):
            classical_mixture_run(hom_config())

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_the_system_stream_does_not_carry_the_key(self, experiment):
        erasing = {"control_basis_angle": _ERASING_ANGLE[experiment]}
        config = ALL_CONFIGS[experiment](shots=20, seed=3, mode="classical_mixture", **erasing)
        system, keys = run_experiment(config)
        quantum, _ = run_experiment(replace(config, mode="quantum"))
        assert system.settings == quantum.settings  # one template per setting pair
        assert system.setting_row.max() < (4 if experiment == "chsh" else 1)
        assert set(keys.outcome.tolist()) == {+1, -1}

    def test_key_stream_shape(self):
        system, keys = run_experiment(hom_config(mode="classical_mixture"))
        assert keys.basis_angle is None
        assert set(keys.outcome.tolist()) == {+1, -1}
        assert len(system) == len(keys)

    def test_hom_key_join_reproduces_the_conditional_table(self):
        config = hom_config(shots=self.SHOTS, seed=11, mode="classical_mixture")
        joined = delayed_join(*run_experiment(config))
        table = table_of(joined.system, joined.control.outcome)
        for pattern in HOM_OUTCOMES:
            for column, outcome in (("C=up", +1), ("C=down", -1)):
                expected = hom_joint_probability(
                    config.phi, "boson", 0.0, pattern, outcome
                )
                band = 5.0 * math.sqrt(expected * (1.0 - expected) / self.SHOTS)
                assert abs(table.value(pattern, column) - expected) <= band

    def test_metrology_key_join_recovers_the_fringe(self):
        config = metrology_config(shots=self.SHOTS, seed=12, mode="classical_mixture")
        (counts,) = set_counts(delayed_join(*run_experiment(config)))
        expected = oracles.parity_fringe(config.n, config.theta, config.phi, +1)
        mean, error = empirical_parity(counts[:, 0])
        assert abs(mean - expected) <= 5.0 * error
        unjoined_mean, unjoined_error = empirical_parity(counts.sum(axis=1))
        assert abs(unjoined_mean) <= 5.0 * unjoined_error

    def test_chsh_mixture_is_indistinguishable_from_the_eraser_run(self):
        best = optimal_chsh_angles(0.0)
        quantum = chsh_config(shots=self.SHOTS, seed=21, settings=best)
        classical = chsh_config(
            shots=self.SHOTS, seed=22, settings=best, mode="classical_mixture"
        )
        rows = []
        for config in (quantum, classical):
            joined = delayed_join(*run_experiment(config))
            counts: dict[tuple, int] = {}
            for label in (+1, -1):
                labeled = joined.system[joined.control.outcome == label]
                for row, code in zip(labeled.setting_row, labeled.outcome):
                    template = labeled.settings[row]
                    key = (
                        template["setting_a"],
                        template["setting_b"],
                        labeled.labels[code],
                        label,
                    )
                    counts[key] = counts.get(key, 0) + 1
            cells = sorted(
                (i, j, outcome, label)
                for i in (0, 1)
                for j in (0, 1)
                for outcome in CHSH_OUTCOMES
                for label in (+1, -1)
            )
            rows.append([counts.get(cell, 0) for cell in cells])
        _, p_value, _, _ = chi2_contingency(np.array(rows))
        assert p_value > 1e-3


ANGLES = st.floats(-7.0, 7.0)
STATISTICS = st.sampled_from([s.value for s in fock.Statistics])


class TestMixturePlan:
    """A mixture's rows are the quantum joint cells of its key, doubled."""

    @given(
        phi=ANGLES,
        statistics=STATISTICS,
        angles=st.tuples(ANGLES, ANGLES, ANGLES, ANGLES),
        n=st.integers(1, 20),
        theta=ANGLES,
    )
    @settings(deadline=None)
    def test_rows_are_the_closed_form_conditionals(self, phi, statistics, angles, n, theta):
        mixture = dict(mode="classical_mixture", phi=phi)
        hom = sampler._plan(hom_config(statistics=statistics, **mixture)).table
        for key_row, key in enumerate((+1, -1)):
            if statistics == "distinguishable":
                column = oracles.hom_distinguishable_column()
            else:
                shift = oracles.hom_phase_shift(statistics) + (key < 0) * math.pi
                column = oracles.hom_conditioned_column(phi + shift)
            np.testing.assert_allclose(hom[key_row], 2.0 * column, rtol=0, atol=1e-12)

        config = chsh_config(settings=ChshSettings(*angles), **mixture)
        chsh = sampler._plan(config).table
        for key_row, key in enumerate((+1, -1)):
            for pair, (i, j) in enumerate(itertools.product((0, 1), (0, 1))):
                theta_a, theta_b = config.settings.pair(i, j)
                expected = [
                    2.0 * oracles.chsh_joint_probability(
                        _OUTCOME_SIGN[a], _OUTCOME_SIGN[b], theta_a, theta_b, phi, key
                    )
                    for a, b in CHSH_OUTCOMES
                ]
                np.testing.assert_allclose(chsh[4 * key_row + pair], expected, rtol=0, atol=1e-12)

        metrology = sampler._plan(metrology_config(n=n, theta=theta, **mixture)).table
        for key_row, key in enumerate((+1, -1)):
            fringe = oracles.parity_fringe(n, theta, phi, key)
            expected = [0.5 * (1.0 + parity * fringe) for parity in (+1, -1)]
            np.testing.assert_allclose(metrology[key_row], expected, rtol=0, atol=1e-12)

    @given(phi=st.floats(-50.0, 50.0), statistics=STATISTICS)
    def test_hom_rows_double_the_quantum_cells_bit_for_bit(self, phi, statistics):
        fields = dict(phi=phi, statistics=statistics)
        quantum = sampler._plan(hom_config(**fields)).table[0]
        mixture = sampler._plan(hom_config(mode="classical_mixture", **fields)).table
        assert mixture.tolist() == [(2.0 * quantum[0::2]).tolist(), (2.0 * quantum[1::2]).tolist()]


class TestWriters:
    def render(self, writer, config):
        system, control = run_experiment(config)
        system_buffer, control_buffer = io.StringIO(), io.StringIO()
        writer(system_buffer, system, config)
        writer(control_buffer, control, config)
        return system_buffer.getvalue(), control_buffer.getvalue()

    def test_csv_metadata_line(self):
        config = hom_config(shots=3)
        text, _ = self.render(write_stream_csv, config)
        first = text.split("\n", 1)[0]
        assert first.startswith("# ")
        payload = json.loads(first[2:])
        assert set(payload) == {"config", "generator", "version"}
        assert payload["generator"] == GENERATOR_ID
        assert payload["config"] == config_to_dict(config)

    def test_csv_headers(self):
        config = hom_config(shots=3)
        system_text, control_text = self.render(write_stream_csv, config)
        assert system_text.split("\n")[1] == "shot_index,experiment,outcome,phi,statistics"
        assert control_text.split("\n")[1] == "shot_index,control_outcome,basis_angle"

    def test_csv_float_fields_reparse_exactly(self):
        config = hom_config(shots=3, phi=0.1 + 0.2)  # not representable prettily
        system_text, _ = self.render(write_stream_csv, config)
        row = system_text.strip().split("\n")[2].split(",")
        assert float(row[3]) == config.phi

    def test_csv_byte_determinism(self):
        config = metrology_config(shots=25)
        assert self.render(write_stream_csv, config) == self.render(
            write_stream_csv, config
        )

    def test_csv_classical_key_leaves_basis_empty(self):
        config = hom_config(shots=2, mode="classical_mixture")
        _, control_text = self.render(write_stream_csv, config)
        data_lines = control_text.strip().split("\n")[2:]
        assert all(line.endswith(",") for line in data_lines)

    def test_csv_rejects_inconsistent_settings(self):
        templates = [{"phi": 0.0}, {"phi": 0.0, "statistics": "boson"}]
        records = stream_of("hom", HOM_OUTCOMES, ["AB", "AB"], templates, [0, 1])
        with pytest.raises(ValueError, match="disagree on setting fields"):
            write_stream_csv(io.StringIO(), records, hom_config(shots=2))

    def test_metadata_header_is_sorted_and_stable(self):
        config = hom_config(shots=1)
        header = metadata_header(config)
        assert header == metadata_header(config)
        keys = list(json.loads(header[2:]))
        assert keys == sorted(keys)
