"""The stream rules, each checked by every consumer that relies on it.

A control outcome is +1 or -1, in any dtype.  A system outcome indexes
the run's ``labels`` and a setting row indexes its ``settings``.  Every
consumer of a malformed stream (``joint_counts`` and
``write_stream_csv``) raises ``ValueError``: never ``IndexError`` or
``TypeError``, and never a result built from a value the run cannot
hold.  ``joint_counts`` also reads what the labels and templates mean:
it needs the experiment's own outcomes, in order, and for chsh a setting
pair in every template.  The estimators read count arrays, and each
refuses the counts of an experiment it does not read by their shape.
"""

import io
import math

import numpy as np
import pytest

from qeraser._record import replace
from qeraser.protocols import HOM_OUTCOMES, ChshSettings
from qeraser.sampler import (
    ExperimentConfig,
    JoinError,
    chsh_statistic,
    delayed_join,
    empirical_parity,
    empirical_table,
    joint_counts,
    run_counts,
    run_experiment,
    write_stream_csv,
)

CONFIGS = {
    "hom": ExperimentConfig(experiment="hom", shots=200, seed=3, phi=0.4),
    "chsh": ExperimentConfig(
        experiment="chsh", shots=200, seed=3, settings=ChshSettings(0.0, 1.6, 0.8, -0.8)
    ),
    "metrology": ExperimentConfig(
        experiment="metrology", shots=200, seed=3, n=3, theta=0.5, control_basis_angle=1.0
    ),
}


def csv_of(records, config):
    buffer = io.StringIO()
    write_stream_csv(buffer, records, config)
    return buffer.getvalue()


# consumer name -> (experiments it reads, call on a system stream)
SYSTEM_CONSUMERS = {
    "joint_counts": (("hom", "chsh", "metrology"), lambda records, config: joint_counts(records)),
    "write_stream_csv": (("hom", "chsh", "metrology"), csv_of),
}

# (column, the last shot's code as a function of the stream); a float code
# turns the whole column into floats, which index nothing
BAD_CODES = {
    "outcome -1": ("outcome", lambda records: -1),
    "outcome len(labels)": ("outcome", lambda records: len(records.labels)),
    "outcome 0.5": ("outcome", lambda records: 0.5),
    "setting row -1": ("setting_row", lambda records: -1),
    "setting row len(settings)": ("setting_row", lambda records: len(records.settings)),
    "setting row 0.0": ("setting_row", lambda records: 0.0),
}


def system_cases():
    for consumer, (experiments, _) in SYSTEM_CONSUMERS.items():
        for experiment in experiments:
            for bad in BAD_CODES:
                yield pytest.param(consumer, experiment, bad, id=f"{consumer}-{experiment}-{bad}")


@pytest.mark.parametrize("consumer, experiment, bad", system_cases())
def test_a_code_outside_the_run_is_rejected(consumer, experiment, bad):
    config = CONFIGS[experiment]
    records, _ = run_experiment(config)
    call = SYSTEM_CONSUMERS[consumer][1]
    call(records, config)  # the well-formed stream passes, so the failure below is the code's
    column, code_of = BAD_CODES[bad]
    values = np.append(getattr(records, column)[:-1], code_of(records))
    name = "outcome code" if column == "outcome" else "setting row"
    with pytest.raises(ValueError, match=f"unknown {name} for {experiment}"):
        call(replace(records, **{column: values}), config)


# labels a stream of the experiment does not have: another experiment's, or its own reordered
def foreign_labels():
    for experiment in sorted(CONFIGS):
        for other in sorted(CONFIGS):
            if other != experiment:
                yield pytest.param(experiment, other, id=f"{experiment}-{other} labels")
        yield pytest.param(experiment, None, id=f"{experiment}-reversed labels")


@pytest.mark.parametrize("experiment, other", foreign_labels())
def test_joint_counts_refuses_labels_that_are_not_the_experiments_outcomes(experiment, other):
    records, _ = run_experiment(CONFIGS[experiment])
    joint_counts(records)
    if other is None:
        labels = records.labels[::-1]
    else:
        labels = run_experiment(replace(CONFIGS[other], shots=1))[0].labels
    with pytest.raises(ValueError, match=f"unknown outcome labels for {experiment}"):
        joint_counts(replace(records, labels=labels))


@pytest.mark.parametrize(
    "template",
    [{"phi": 0.0}, {"setting_a": 1, "phi": 0.0}, {"setting_a": 0, "setting_b": 2, "phi": 0.0}],
    ids=["no pair", "setting_a only", "setting_b 2"],
)
def test_joint_counts_refuses_a_chsh_template_without_a_setting_pair(template):
    records, _ = run_experiment(CONFIGS["chsh"])
    joint_counts(records)
    settings = records.settings[:-1] + (template,)
    with pytest.raises(ValueError, match="unknown setting pair for chsh"):
        joint_counts(replace(records, settings=settings))


# estimator -> (the experiment it reads, call on a run's (plan rows, outcomes, 2) counts)
ESTIMATORS = {
    "empirical_table": ("hom", lambda counts: empirical_table(HOM_OUTCOMES, counts[0])),
    "chsh_statistic": ("chsh", lambda counts: chsh_statistic(counts[..., 0])),
    "empirical_parity": ("metrology", lambda counts: empirical_parity(counts[0, :, 0])),
}


@pytest.mark.parametrize("experiment", sorted(CONFIGS))
@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
def test_an_estimator_reads_only_its_experiments_counts(estimator, experiment):
    reads, call = ESTIMATORS[estimator]
    counts = run_counts(CONFIGS[experiment])
    if experiment == reads:
        call(counts)
        return
    with pytest.raises(ValueError, match=f"{estimator} needs counts of shape"):
        call(counts)


def two_shot_control(second):
    """A hom run of two shots whose second control outcome is ``second``."""
    config = replace(CONFIGS["hom"], shots=2)
    system, control = run_experiment(config)
    outcome = np.array([control.outcome[0], second])
    return config, system, replace(control, outcome=outcome)


@pytest.mark.parametrize("second", [0, 2, 0.5, math.nan], ids=["0", "2", "0.5", "nan"])
def test_a_control_outcome_other_than_a_sign_is_rejected(second):
    config, system, control = two_shot_control(second)
    with pytest.raises(JoinError) as caught:
        delayed_join(system, control)
    assert caught.value.orphaned_control == (1,)
    with pytest.raises(ValueError, match=r"control outcomes must be \+1 or -1"):
        joint_counts(system, control.outcome)
    with pytest.raises(ValueError, match=r"control outcomes must be \+1 or -1"):
        csv_of(control, config)


@pytest.mark.parametrize("second", [+1, -1])
def test_a_float_sign_column_reads_as_the_int_column(second):
    config, system, control = two_shot_control(second)
    floats = replace(control, outcome=control.outcome.astype(float))
    joined, float_joined = delayed_join(system, control), delayed_join(system, floats)
    assert float_joined == joined
    counts = joint_counts(system, floats.outcome)
    assert counts.sum() == 2
    np.testing.assert_array_equal(counts, joint_counts(system, control.outcome))
    assert csv_of(floats, config) == csv_of(control, config)


@pytest.mark.parametrize(
    "column, values",
    [
        ("outcome", np.array([0, 1, 2, 2, 2])),
        ("setting_row", np.zeros(5, int)),
        ("outcome", np.zeros((3, 1), int)),
        ("shot_index", np.arange(3).reshape(1, 3)),
        ("shot_index", np.int64(0)),
    ],
    ids=["long outcome", "long setting row", "2-D outcome", "2-D shot index", "0-d shot index"],
)
def test_a_column_off_the_shot_index_is_rejected(column, values):
    system, _ = run_experiment(replace(CONFIGS["hom"], shots=3))
    with pytest.raises(ValueError, match=f"{column} column has shape"):
        replace(system, **{column: values})
