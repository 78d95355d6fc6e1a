"""Every sampled statistic is a projection of one plan-count matrix.

A sampled summary counts each chunk's drawn plan codes, ``row * cells +
cell``, and views the sum as a joint (settings row, outcome, control)
count: quantum cells hold (outcome, control) pairs, and a classical
mixture's key bit, the leading part of its row, is the control.  The same
counts follow from the whole-run streams, joined by shot index and
counted shot by shot.  The property below holds the two routes equal
over every (experiment, mode) pair, at shot counts on both sides of the
sampler's chunk seams and at the erasing and another control readout.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from qeraser import sampler
from qeraser.protocols import _ERASING_ANGLE, ChshSettings
from qeraser.sampler import ExperimentConfig, delayed_join, run_experiment

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
    """The summary's counts from the whole-run streams, joined and counted shot by shot."""
    joined = delayed_join(*run_experiment(config))
    joint = sampler._joint_counts(joined.system, joined.control.outcome)
    if config.experiment == "chsh":
        return sampler._pair_sums(joined.system.labels, joint)
    return joint.sum(axis=0)


@given(
    st.sampled_from(sorted(FIELDS)),
    st.sampled_from(["quantum", "classical_mixture"]),
    st.booleans(),
    st.integers(0, 2**64 - 1),
    SHOTS,
)
@example("hom", "quantum", False, 0, CHUNK + 1)
@example("hom", "classical_mixture", True, 2**64 - 1, 2 * CHUNK - 1)
@example("chsh", "quantum", True, 2**64 - 1, 3 * CHUNK + 3)
@example("chsh", "classical_mixture", True, 0, 2 * CHUNK + 2)
@example("metrology", "quantum", False, 2**64 - 1, CHUNK)
@example("metrology", "classical_mixture", True, 0, 3 * CHUNK - 3)
def test_summed_plan_counts_are_the_joined_streams_counts(
    experiment, mode, erasing, seed, shots
):
    # a classical mixture mixes the branches of the erasing readout
    erasing = erasing or mode == "classical_mixture"
    angle = _ERASING_ANGLE[experiment] if erasing else OFF_ERASING[experiment]
    config = ExperimentConfig(
        experiment=experiment,
        shots=shots,
        seed=seed,
        mode=mode,
        control_basis_angle=angle,
        **FIELDS[experiment],
    )
    counts = sampler._summed_counts(config)
    expected = record_counts(config)
    assert counts.shape == expected.shape
    assert np.array_equal(counts, expected)
    # every shot is counted once: chsh sums hold the pair counts, then the product sums
    assert (counts[:, 0] if experiment == "chsh" else counts).sum() == shots
