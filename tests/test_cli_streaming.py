"""Sampled ``hom``/``chsh`` CLI runs: pinned bytes and the whole-run route.

The digests below were recorded from the CLI that held both whole
streams in memory, at 3 * 2**16 + 17 shots, so every run spans several
sampling chunks and ends in a ragged one.  They cover the bodies (the
metadata header line skipped) of both ``--format csv`` files and of the
``--format summary`` output.  The properties then shrink the chunk to a
few shots, and the CSV render block to a few lines, and compare the
streamed CLI with the whole-run route: ``run_experiment``, ``delayed_join``,
then ``empirical_table`` or ``chsh_statistic``, and the CSV of each stream
written line by line with an f-string (``oracles.stream_csv``).
"""

import contextlib
import hashlib
import io
import os
import re
import tempfile
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qeraser import cli, sampler
from qeraser.cli import main
from qeraser.protocols import _ERASING_ANGLE, ChshSettings
from qeraser.sampler import (
    ExperimentConfig,
    chsh_statistic,
    delayed_join,
    empirical_table,
    metadata_header,
    run_experiment,
)

SHOTS = 3 * (1 << 16) + 17
SEED = 7

FLAGS = {
    "hom": ["--phi", "0.8", "--statistics", "fermion"],
    "chsh": ["--phi", "0.5", "--angles", "0.3,1.9,0.7,2.6"],
}
# control angles of the quantum runs; a classical-mixture run measures no control
CONTROL_ANGLES = {"hom": 0.3, "chsh": 0.2}

# (system CSV, control CSV, summary) body digests
GOLDEN = {
    ("hom", "sample"): (
        "e4d64c8924645b5ac2e930b0b2d1ddfc55234a4a3831c65ecce4cf9d7e95db28",
        "f9986e4e2f7e3ff59b0466c702807d876f88095fcf2e57b2f62aa23c5c8852bb",
        "1c6b268933533ea07d5d8b7c1452115d44c7bb1d7482d39f88432c7878876b69",
    ),
    ("hom", "classical-mixture"): (
        "c2a4ee6409c7de4809b3a5d6c71b62f73f6f4aa1ff0bc565e0532ac4cfd59b83",
        "e26885abd860e1c05107d8fed9846960ec6ed244135108100599a04623ad9724",
        "aa7c8f33d85025e4b0ecbb3e60ab6b8b18dec1132db16a7a4d47a4e5ee8179b2",
    ),
    ("chsh", "sample"): (
        "83af4da24cfd2e81983fc75d3aa5b2a304aa5028091e736bf99d327aff78a433",
        "0fab52d26171f9ce847448278f3a5e241badbe24de7d55cddcc184f2ba2aacd4",
        "be20b37822042d8747073896cd4a80aa6ca4e174a685f4d574389c78cbdcab20",
    ),
    ("chsh", "classical-mixture"): (
        "030e3e950959e90bb7321df48cb5e81b2523ce6d22b86778e1d7860aa24b6683",
        "e26885abd860e1c05107d8fed9846960ec6ed244135108100599a04623ad9724",
        "d8fe8b28ec07bf522b9286a5c97e63fad021695ca71708593bb42f0d9887dc48",
    ),
}


def body_digest(text: str) -> str:
    _, body = text.split("\n", 1)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def sampled_argv(command, mode, shots, seed, form):
    argv = [command, "--mode", mode, "--shots", str(shots), "--seed", str(seed),
            "--format", form, *FLAGS[command]]
    if mode == "sample":
        argv += ["--control-angle", repr(CONTROL_ANGLES[command])]
    return argv


@pytest.mark.parametrize("mode", ["sample", "classical-mixture"])
@pytest.mark.parametrize("command", ["hom", "chsh"])
def test_cli_stream_and_summary_bodies_are_pinned(command, mode, tmp_path, capsys):
    output = tmp_path / "run.csv"
    argv = sampled_argv(command, mode, SHOTS, SEED, "csv")
    assert main([*argv, "--output", str(output)]) == 0
    capsys.readouterr()
    assert main(sampled_argv(command, mode, SHOTS, SEED, "summary")) == 0
    summary = capsys.readouterr().out
    assert (
        body_digest(output.read_text(encoding="utf-8")),
        body_digest((tmp_path / "run.control.csv").read_text(encoding="utf-8")),
        body_digest(summary),
    ) == GOLDEN[command, mode]


BASE = {
    "hom": dict(phi=0.8, statistics="fermion"),
    "chsh": dict(phi=0.5, settings=ChshSettings(0.3, 1.9, 0.7, 2.6)),
}
MODES = {"sample": "quantum", "classical-mixture": "classical_mixture"}
CHUNKS = st.sampled_from([1, 7, 64, sampler._CHUNK])
ROW_BLOCKS = st.sampled_from([1, 7, 64, sampler._ROW_BLOCK])


def run_cli(argv) -> str:
    """Stdout of an in-process CLI run that must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue()


def whole_run_tables(config):
    """Joined and unjoined summaries of the whole run, as the CLI printed them."""
    joined = delayed_join(*run_experiment(config))
    tables = (
        empirical_table(joined.system, joined.control.outcome),
        empirical_table(joined.system),
    )
    return (
        f"\njoined empirical table:\n{tables[0].summary()}"
        f"\nunjoined empirical table:\n{tables[1].summary()}"
    )


def whole_run_chsh_lines(config):
    """Last four summary lines of the CLI that tabulated the whole run."""
    joined = delayed_join(*run_experiment(config))
    branches = (
        ("empirical S (joined C=up):   ", joined.labeled(+1)),
        ("empirical S (joined C=down): ", joined.labeled(-1)),
        ("empirical S (unjoined):      ", joined.system),
    )
    lines, significance = [], []
    for prefix, records in branches:
        try:
            s, err = chsh_statistic(records)
        except ValueError as error:
            value = sigmas = f"n/a ({error})"
        else:
            value = f"{s:+.4f} +- {err:.4f}"
            if err == 0:
                sigmas = "n/a (zero standard error)"
            else:
                sigmas = f"{(abs(s) - 2.0) / err:.2f} standard errors"
        lines.append(f"{prefix}{value} ({len(records)} shots)")
        significance.append(sigmas)
    return [*lines, f"violation of |S| <= 2 (C=up branch): {significance[0]}"]


@given(
    st.sampled_from(["hom", "chsh"]),
    st.sampled_from(sorted(MODES)),
    st.integers(1, 300),
    st.integers(0, 2**64 - 1),
    CHUNKS,
    ROW_BLOCKS,
)
@example("chsh", "classical-mixture", 1, 0, 1, 1)  # C=down and its pairs are empty
@example("chsh", "classical-mixture", 150, 0, 64, 7)  # blocks end inside and at seams
def test_streamed_cli_equals_the_whole_run_route(command, mode, shots, seed, chunk, row_block):
    angle = CONTROL_ANGLES[command] if mode == "sample" else 0.0
    config = ExperimentConfig(
        experiment=command,
        shots=shots,
        seed=seed,
        mode=MODES[mode],
        control_basis_angle=angle,
        **BASE[command],
    )
    blocks = mock.patch.multiple(sampler, _CHUNK=chunk, _ROW_BLOCK=row_block)
    with blocks, tempfile.TemporaryDirectory() as tmp:
        summary = run_cli(sampled_argv(command, mode, shots, seed, "summary"))
        output = os.path.join(tmp, "run.csv")
        run_cli([*sampled_argv(command, mode, shots, seed, "csv"), "--output", output])
        with open(output, encoding="utf-8") as handle:
            system_text = handle.read()
        with open(os.path.join(tmp, "run.control.csv"), encoding="utf-8") as handle:
            control_text = handle.read()
    header = metadata_header(config)
    expected = [oracles.stream_csv(records, header) for records in run_experiment(config)]
    assert [system_text, control_text] == expected
    assert summary.startswith(metadata_header(config) + "\n")
    if command == "hom":
        assert summary.endswith(whole_run_tables(config))
    else:
        assert summary.splitlines()[-4:] == whole_run_chsh_lines(config)


@st.composite
def chunked_runs(draw, experiment):
    """A whole run beside its shots cut into consecutive parts."""
    shots = draw(st.integers(1, 400))
    seed = draw(st.integers(0, 2**64 - 1))
    mode = draw(st.sampled_from(sorted(MODES.values())))
    # a classical mixture mixes the branches of the erasing readout
    angle = CONTROL_ANGLES[experiment] if mode == "quantum" else _ERASING_ANGLE[experiment]
    config = ExperimentConfig(
        experiment=experiment,
        shots=shots,
        seed=seed,
        mode=mode,
        control_basis_angle=angle,
        **BASE[experiment],
    )
    cuts = sorted(draw(st.sets(st.integers(0, config.shots), max_size=6)))
    bounds = [0, *cuts, config.shots]
    return config, [slice(a, b) for a, b in zip(bounds, bounds[1:])]


@given(chunked_runs("hom"))
def test_summed_outcome_counts_give_the_whole_run_tables(run):
    config, parts = run
    joined = delayed_join(*run_experiment(config))
    counts = sum(
        sampler._joint_counts(joined.system[part], joined.control.outcome[part]).sum(axis=0)
        for part in parts
    )
    for table, expected in (
        (sampler._counts_table(joined.system.labels, counts),
         empirical_table(joined.system, joined.control.outcome)),
        (sampler._counts_table(joined.system.labels, counts.sum(axis=1, keepdims=True)),
         empirical_table(joined.system)),
    ):
        assert table.column_labels == expected.column_labels
        assert table.total == expected.total
        for name in ("counts", "values", "standard_errors", "flagged"):
            assert np.array_equal(getattr(table, name), getattr(expected, name))


@given(chunked_runs("chsh"), st.sampled_from([+1, -1, None]))
def test_summed_pair_sums_give_the_whole_run_statistic(run, label):
    config, parts = run
    joined = delayed_join(*run_experiment(config))
    keep = np.ones(config.shots, dtype=bool)
    records = joined.system
    if label is not None:
        keep = joined.control.outcome == label
        records = joined.labeled(label)
    labels = joined.system.labels
    masked = sum(
        sampler._pair_sums(labels, sampler._joint_counts(joined.system[part][keep[part]]))
        .sum(axis=0)
        for part in parts
    )
    # the control-split form sums both labeled sets at once, C=up first
    split = sum(
        sampler._pair_sums(
            labels, sampler._joint_counts(joined.system[part], joined.control.outcome[part])
        )
        for part in parts
    )
    from_split = {+1: split[0], -1: split[1], None: split.sum(axis=0)}[label]
    try:
        expected = chsh_statistic(records)
    except ValueError as error:
        for sums in (masked, from_split):
            with pytest.raises(ValueError, match=re.escape(str(error))):
                sampler._chsh_from_sums(sums)
    else:
        for sums in (masked, from_split):
            assert sampler._chsh_from_sums(sums) == expected  # bit for bit


@pytest.mark.parametrize("form", ["csv", "summary"])
@pytest.mark.parametrize("mode", ["sample", "classical-mixture"])
def test_a_failing_plan_opens_no_file(mode, form, tmp_path, capsys):
    # a mixture reads the quantum plan, so a bad quantum plan fails both modes
    def unnormalized(config):
        return sampler._Plan(np.full((1, 6), 0.5), sampler.HOM_OUTCOMES, [{}])

    output = tmp_path / "run.csv"
    with mock.patch.object(sampler, "_hom_quantum", unnormalized):
        code = main(sampled_argv("hom", mode, 10, 0, form) + ["--output", str(output)])
    assert code == 1
    assert "does not sum to 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("earlier", [True, False], ids=["earlier run", "no earlier run"])
def test_a_control_path_that_cannot_open_leaves_the_system_file(earlier, tmp_path, capsys):
    output = tmp_path / "run.csv"
    if earlier:
        output.write_bytes(b"an earlier run's system stream\n")
    (tmp_path / "run.control.csv").mkdir()
    drawing = mock.patch.object(sampler, "_shot_uniforms", side_effect=AssertionError("drew"))
    with drawing:
        code = main(sampled_argv("hom", "sample", 10, 0, "csv") + ["--output", str(output)])
    assert code == 1
    assert "IsADirectoryError" in capsys.readouterr().err
    if earlier:
        assert output.read_bytes() == b"an earlier run's system stream\n"
    else:
        assert not output.exists()


@pytest.mark.parametrize("kind", ["device", "pipe", "directory"])
def test_a_stream_output_that_is_not_a_regular_file_is_refused(kind, tmp_path, capsys):
    # its control stream would land beside it: /dev/null.control, say
    if kind == "device":
        output = os.devnull
    else:
        output = str(tmp_path / "run.csv")
        if kind == "pipe":
            if not hasattr(os, "mkfifo"):
                pytest.skip("no named pipes on this platform")
            os.mkfifo(output)
        else:
            os.mkdir(output)
    control_existed = os.path.lexists(cli._control_path(output))
    opening = mock.patch.object(cli, "_stream_files", side_effect=AssertionError("opened"))
    with opening:
        code = main(sampled_argv("hom", "sample", 10, 0, "csv") + ["--output", output])
    assert code == 2
    assert "is not a regular file" in capsys.readouterr().err
    assert os.path.lexists(cli._control_path(output)) == control_existed
    if kind != "device":
        assert [path.name for path in tmp_path.iterdir()] == ["run.csv"]


def test_a_device_beside_a_file_is_written_and_not_emptied(tmp_path):
    # a device or a pipe cannot be truncated; mode "wb" skips them, and so must the pair
    control = tmp_path / "run.control.csv"
    control.write_bytes(b"an earlier run's control stream\n")
    with cli._stream_files([os.devnull, str(control)]) as files:
        for file in files:
            file.write(b"0,+1\n")
    assert control.read_bytes() == b"0,+1\n"


def test_a_summary_opens_its_output_before_sampling(tmp_path, capsys):
    output = tmp_path / "missing" / "run.txt"
    drawing = mock.patch.object(sampler, "_shot_uniforms", side_effect=AssertionError("drew"))
    with drawing:
        code = main(sampled_argv("hom", "sample", 10, 0, "summary") + ["--output", str(output)])
    assert code == 1
    assert "FileNotFoundError" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["sample", "classical-mixture"])
@pytest.mark.parametrize("command", ["hom", "chsh"])
def test_a_summary_counts_plan_codes_and_builds_no_stream(command, mode):
    """A summary counts the drawn plan codes: it joins, builds and checks no stream record."""
    argv = sampled_argv(command, mode, 3 * sampler._CHUNK - 5, SEED, "summary")  # 3 chunks
    expected = run_cli(argv)

    def refused(*args, **kwargs):
        raise AssertionError("a summary used stream records")

    names = ("delayed_join", "SystemStream", "ControlStream", "_signs_only", "_check_codes")
    with contextlib.ExitStack() as stack:
        for name in names:
            stack.enter_context(mock.patch.object(sampler, name, refused))
        assert run_cli(argv) == expected
