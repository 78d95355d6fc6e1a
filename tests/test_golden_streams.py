"""Golden bytes of the sampled CSV streams.

The SHA-256 of each stream body (the metadata line is skipped because it
carries the code version) is pinned for every (experiment, mode) pair at
two seeds.  The digests were recorded from the two-branch sampler that
predates the shared sampling path, so any change to the per-shot uniform
layout, the distribution tables or the line formatting shows up here as
a mismatch.
"""

import hashlib
import io

import pytest

from qeraser.protocols import _ERASING_ANGLE, ChshSettings
from qeraser.sampler import ExperimentConfig, run_experiment, write_stream_csv

SHOTS = 3000
SEEDS = (0, 18446744073709551557)

# non-default angles everywhere, so every table entry matters; a classical
# mixture takes the erasing angle instead
BASE = {
    "hom": dict(phi=0.8, statistics="fermion", control_basis_angle=0.3),
    "chsh": dict(
        phi=0.5,
        settings=ChshSettings(0.3, 1.9, 0.7, 2.6),
        control_basis_angle=0.2,
    ),
    "metrology": dict(n=3, theta=0.7, phi=0.2, control_basis_angle=1.1),
}

GOLDEN = {
    ("hom", "quantum", 0): (
        "77d6cd5b888abca640295c402999ccd14708427a8c16576f09bc86499a80913f",
        "6593965b1a19ff0886c6bb70a3eaea3b717fb9a215378111eb9188091043fc21",
    ),
    ("hom", "quantum", 18446744073709551557): (
        "a5cfe15945559c1e45e065f9df9525a0f9aa4081c397eadfce8489add5b9f0b0",
        "67f260f78c84f0c8d64dc26920b0935b5456e3d997bc53e5b7debb6a7def9e1d",
    ),
    ("hom", "classical_mixture", 0): (
        "752656b1e7971e64442a4ec314a60d5f395288a6df453358b053c973dffcc042",
        "b49c48c5ae7a00a13a3c9dc1300c08cb1f4b35c921353da6a87ea87af610670a",
    ),
    ("hom", "classical_mixture", 18446744073709551557): (
        "9687ab7e61371c2dcf49ec8f71cc6c8774ff3b8b97c8e3190c4786ac0edbf601",
        "4eaccc2b24d8d5a9f9942f63f0fd9142228481589964819a950fecce33f235ff",
    ),
    ("chsh", "quantum", 0): (
        "c7f6447eb420b6dd25f10e20a8c11c8c19bf712e50f3084f28313ac2cc434983",
        "858cfa79c81c863e23c2da6c6a976048f621a55aa797ab6dede48eaa79970abe",
    ),
    ("chsh", "quantum", 18446744073709551557): (
        "4399de453d87fce5e182851756e47eae579a62f7fc42c9feb782da7014079b39",
        "49a62e4f88d384b9e97f2f2c88107384b281df311eb5bcc90e59949e52eaa50c",
    ),
    ("chsh", "classical_mixture", 0): (
        "b48b5e2a82fab38a8c10061ee4a03c12598a4c35c1f886c2406f75d624419a52",
        "b49c48c5ae7a00a13a3c9dc1300c08cb1f4b35c921353da6a87ea87af610670a",
    ),
    ("chsh", "classical_mixture", 18446744073709551557): (
        "606cb29ec617a50a01cecf1907f6d0de9af8ce70ced44edea626dcf7487bd8d2",
        "4eaccc2b24d8d5a9f9942f63f0fd9142228481589964819a950fecce33f235ff",
    ),
    ("metrology", "quantum", 0): (
        "9e5428128dec120c63c2004eb319bbc8ef0c62de132ba2f3dad555461085a972",
        "4deb7f5be16bc8de1d23fdaec2ccfda994911b815a1b3b9ecc3c53a6eac75f71",
    ),
    ("metrology", "quantum", 18446744073709551557): (
        "2b85e64e7efeff34784d478b5c6c2f58783c7c0e39c2c3ebd9278bcc7377b2b0",
        "196d88b5f69b9f8ad3ebca8870bbbef20e4829a5b38d32c1a94c0ae392181f6a",
    ),
    ("metrology", "classical_mixture", 0): (
        "352f9136874d56bf59a9f9e20678f75d3d9692d674057b20089df7ff20c4ccc6",
        "b49c48c5ae7a00a13a3c9dc1300c08cb1f4b35c921353da6a87ea87af610670a",
    ),
    ("metrology", "classical_mixture", 18446744073709551557): (
        "8e55c0442112f994c5ab857113121f2556cfe07538faec1b996bbb791149a8bd",
        "4eaccc2b24d8d5a9f9942f63f0fd9142228481589964819a950fecce33f235ff",
    ),
}


def body_digest(records, config):
    buffer = io.StringIO()
    write_stream_csv(buffer, records, config)
    _, body = buffer.getvalue().split("\n", 1)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", ["quantum", "classical_mixture"])
@pytest.mark.parametrize("experiment", ["hom", "chsh", "metrology"])
def test_csv_stream_bodies_are_pinned(experiment, mode, seed):
    fields = dict(BASE[experiment])
    if mode == "classical_mixture":  # it mixes the branches of the erasing readout
        fields["control_basis_angle"] = _ERASING_ANGLE[experiment]
    config = ExperimentConfig(experiment=experiment, shots=SHOTS, seed=seed, mode=mode, **fields)
    system, control = run_experiment(config)
    assert (
        body_digest(system, config),
        body_digest(control, config),
    ) == GOLDEN[experiment, mode, seed]

