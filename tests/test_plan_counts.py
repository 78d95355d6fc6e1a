"""Every sampled statistic is a projection of one plan-count matrix.

The sampler codes each shot, in either mode, as its flat index into
(setting pairs, outcomes, 2): ``(pair * outcomes + outcome) * 2 +
control``, with control +1 at 0; a classical mixture's key bit is its
control.  ``run_counts`` counts each chunk's drawn codes and views the
sum as that joint (settings row, outcome, control) count.  The same
counts follow from the whole-run streams, joined by shot index and
counted shot by shot by ``joint_counts``.  The properties below hold
each drawn code equal to its shot's index in the streams, and the two
count routes equal, over every (experiment, mode) pair, at shot counts
on both sides of the sampler's chunk seams and at the erasing and
another control readout.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from qeraser import sampler
from qeraser.protocols import _ERASING_ANGLE, ChshSettings
from qeraser.sampler import (
    ExperimentConfig,
    delayed_join,
    joint_counts,
    run_counts,
    run_experiment,
)

CHUNK = sampler._CHUNK
FIELDS = {
    "hom": dict(phi=0.8, statistics="fermion"),
    "chsh": dict(phi=0.5, settings=ChshSettings(0.3, 1.9, 0.7, 2.6)),
    "metrology": dict(n=3, theta=0.7, phi=0.2),
}
# a quantum readout other than the erasing one, at which the branches differ
OFF_ERASING = {"hom": 0.3, "chsh": 0.2, "metrology": 1.1}

SHOTS = st.one_of(
    st.integers(1, 40),
    st.integers(1, 3).flatmap(lambda k: st.integers(k * CHUNK - 3, k * CHUNK + 3)),
)


def record_counts(config: ExperimentConfig) -> np.ndarray:
    """The run's counts from the whole-run streams, joined and counted shot by shot."""
    joined = delayed_join(*run_experiment(config))
    return joint_counts(joined.system, joined.control.outcome)


def run_config(experiment, mode, erasing, seed, shots) -> ExperimentConfig:
    # a classical mixture mixes the branches of the erasing readout
    erasing = erasing or mode == "classical_mixture"
    angle = _ERASING_ANGLE[experiment] if erasing else OFF_ERASING[experiment]
    return ExperimentConfig(
        experiment=experiment,
        shots=shots,
        seed=seed,
        mode=mode,
        control_basis_angle=angle,
        **FIELDS[experiment],
    )


def every_pair(test):
    """``test`` over every (experiment, mode) pair, seed and chunk seam."""
    test = given(
        st.sampled_from(sorted(FIELDS)),
        st.sampled_from(["quantum", "classical_mixture"]),
        st.booleans(),
        st.integers(0, 2**64 - 1),
        SHOTS,
    )(test)
    for case in [
        ("hom", "quantum", False, 0, CHUNK + 1),
        ("hom", "classical_mixture", True, 2**64 - 1, 2 * CHUNK - 1),
        ("chsh", "quantum", True, 2**64 - 1, 3 * CHUNK + 3),
        ("chsh", "classical_mixture", True, 0, 2 * CHUNK + 2),
        ("metrology", "quantum", False, 2**64 - 1, CHUNK),
        ("metrology", "classical_mixture", True, 0, 3 * CHUNK - 3),
    ]:
        test = example(*case)(test)
    return test


@every_pair
def test_each_drawn_code_is_its_shots_index_in_the_streams(
    experiment, mode, erasing, seed, shots
):
    config = run_config(experiment, mode, erasing, seed, shots)
    _, chunks = sampler._sample(config)
    codes = np.concatenate(list(chunks))
    system, control = run_experiment(config)
    shape = (len(system.settings), len(system.labels), 2)
    fields = (system.setting_row, system.outcome, control.outcome == -1)
    np.testing.assert_array_equal(codes, np.ravel_multi_index(fields, shape))


@every_pair
def test_summed_plan_counts_are_the_joined_streams_counts(
    experiment, mode, erasing, seed, shots
):
    config = run_config(experiment, mode, erasing, seed, shots)
    counts = run_counts(config)
    expected = record_counts(config)
    assert counts.shape == expected.shape
    assert np.array_equal(counts, expected)
    assert counts.sum() == shots  # every shot is counted once
