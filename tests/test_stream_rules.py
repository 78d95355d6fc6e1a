"""The stream rules, each checked by every consumer that relies on it.

A control outcome is +1 or -1, in any dtype.  A system outcome indexes
the run's ``labels`` and a setting row indexes its ``settings``.  Every
consumer of a malformed stream raises ``ValueError``: never
``IndexError`` or ``TypeError``, and never a result built from a value
the run cannot hold.
"""

import io
import math

import numpy as np
import pytest

from qeraser._record import replace
from qeraser.protocols import ChshSettings
from qeraser.sampler import (
    ExperimentConfig,
    JoinError,
    chsh_statistic,
    delayed_join,
    empirical_parity,
    empirical_table,
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
    "empirical_table": (
        ("hom", "chsh", "metrology"),
        lambda records, config: empirical_table(records),
    ),
    "chsh_statistic": (("chsh",), lambda records, config: chsh_statistic(records)),
    "empirical_parity": (("metrology",), lambda records, config: empirical_parity(records)),
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
        empirical_table(system, control.outcome)
    with pytest.raises(ValueError, match=r"control outcomes must be \+1 or -1"):
        csv_of(control, config)


@pytest.mark.parametrize("second", [+1, -1])
def test_a_float_sign_column_reads_as_the_int_column(second):
    config, system, control = two_shot_control(second)
    floats = replace(control, outcome=control.outcome.astype(float))
    joined, float_joined = delayed_join(system, control), delayed_join(system, floats)
    for sign in (+1, -1):
        assert float_joined.labeled(sign) == joined.labeled(sign)
    assert len(float_joined.labeled(+1)) + len(float_joined.labeled(-1)) == 2
    assert empirical_table(system, floats.outcome).summary() == (
        empirical_table(system, control.outcome).summary()
    )
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
