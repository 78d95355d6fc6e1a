"""Memory bounds of the sampled path.

In process, with tracemalloc: numpy reports its array buffers to
tracemalloc, so a traced peak counts every column and temporary a call
allocates.  Generation and writing work in chunks of shots and the join
of shot-ordered streams copies nothing, so the only allocations of a
library run that grow with the shot count are its finished stream
columns.  The sampled CLI runs and the sampled columns of the figure
scripts hold no whole-run column at all: they hold one chunk of shots
at a time, in one pass, and their peak RSS, read from a fresh child's
own ``wait4`` rusage, does not grow with the shot count.
"""

import io
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from qeraser import cli, sampler
from qeraser.protocols import _ERASING_ANGLE, ChshSettings
from qeraser.sampler import (
    ControlStream,
    ExperimentConfig,
    SystemStream,
    delayed_join,
    run_experiment,
    write_stream_csv,
)

MIB = 1 << 20
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# full-precision angles give the longest CSV lines
CHSH = dict(settings=ChshSettings(0.0, math.pi / 2, 5 * math.pi / 4, 3 * math.pi / 4))


class ByteCounter(io.TextIOBase):
    """Text sink that keeps only the number of characters written."""

    def __init__(self) -> None:
        self.written = 0

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.written += len(text)
        return len(text)


def traced_peak(call):
    """(result, peak bytes allocated above the start) of ``call()``."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start


def held_bytes(*streams: SystemStream | ControlStream) -> int:
    """Bytes of the distinct column buffers the streams hold."""
    buffers = {}
    for stream in streams:
        for name in stream._COLUMNS:
            column = getattr(stream, name)
            base = column if column.base is None else column.base
            buffers[id(base)] = base.nbytes
    return sum(buffers.values())


def test_csv_writer_peak_does_not_grow_with_the_stream():
    config = ExperimentConfig(experiment="chsh", shots=1_000_000, seed=5, **CHSH)
    system, _ = run_experiment(config)
    sink = ByteCounter()
    _, peak = traced_peak(lambda: write_stream_csv(sink, system, config))
    assert sink.written > 50 * MIB
    assert peak < 16 * MIB


def test_run_peak_above_its_columns_is_independent_of_the_shot_count():
    excess = []
    for shots in (200_000, 1_000_000):
        config = ExperimentConfig(experiment="chsh", shots=shots, seed=5, **CHSH)
        streams, peak = traced_peak(lambda: run_experiment(config))
        excess.append(peak - held_bytes(*streams))
    assert abs(excess[1] - excess[0]) < 2 * MIB


def sampled_config(experiment: str, mode: str, shots: int) -> ExperimentConfig:
    """A sampled run as the CLI configures it; chsh at the full-precision angles."""
    return ExperimentConfig(
        experiment=experiment,
        shots=shots,
        seed=5,
        mode=mode,
        control_basis_angle=_ERASING_ANGLE[experiment] if mode == "classical_mixture" else 0.0,
        **(CHSH if experiment == "chsh" else {}),
    )


MODES = pytest.mark.parametrize("mode", ["quantum", "classical_mixture"])


@MODES
@pytest.mark.parametrize("experiment", ["hom", "chsh"])
def test_a_dropped_chunk_is_freed_before_the_next_draw(experiment, mode):
    _, chunks = sampler._sample(sampled_config(experiment, mode, 2 * sampler._CHUNK))
    codes = next(chunks)
    chunk = weakref.ref(codes)
    del codes
    draw, alive = sampler._shot_uniforms, []

    def watched(*args):
        alive.append(chunk() is not None)
        return draw(*args)

    with mock.patch.object(sampler, "_shot_uniforms", watched):
        next(chunks)
    assert alive == [False]  # chunk 0's plan codes, as chunk 1 is drawn
    assert chunk() is None


@MODES
@pytest.mark.parametrize("experiment", ["hom", "chsh"])
def test_sampled_cli_paths_hold_one_chunk_of_working_set(experiment, mode):
    """The CSV writer and the summary sums of the CLI, as ``cli._run_sampled`` runs them.

    With chunks of one 2**12-shot raw draw, the CSV path peaks at 0.29
    to 0.36 MiB and the summary path at 0.22 to 0.29 MiB.  Chunks of
    2**14 shots, each drawn in four blocks, peak at 0.75 to 1.03 MiB and
    0.44 to 0.69 MiB; a sampler that holds each chunk while it draws the
    next, or builds int64 columns and whole-chunk byte matrices (about
    370 bytes per shot), peaks at 2.7 to 4.5 MiB and 1.6 to 1.9 MiB.
    """
    config = sampled_config(experiment, mode, 1_000_000)
    sampler._sample(config)  # the first plan loads modules; no chunk loop does
    writes = (lambda data: None,) * 2
    _, csv = traced_peak(
        lambda: sampler._write_csv_chunks(writes, sampler._sample(config), config)
    )
    summary = {"hom": cli._hom_summary, "chsh": cli._chsh_summary}[experiment]
    _, sums = traced_peak(lambda: summary(config, sampler._summed_counts(config)))
    assert csv <= 0.75 * MIB and sums <= 0.75 * MIB, (csv / MIB, sums / MIB)


@MODES
@pytest.mark.parametrize("experiment", ["hom", "chsh"])
def test_index_digits_are_rendered_one_row_block_at_a_time(experiment, mode):
    """Both streams of a full chunk share digits made per row block, never per chunk.

    Rendered per chunk, the digits and their integer temporaries take
    about 32 bytes per shot: a 2**12-shot chunk then peaks about 100 KB
    above a chunk of one row block.
    """
    writes = (lambda data: None,) * 2
    decimal_bytes, digit_rows = sampler._decimal_bytes, []

    def watched(values, width):
        digits = decimal_bytes(values, width)  # one (rows, width) uint8 matrix
        assert digits.shape == (len(values), width)
        digit_rows.append(len(digits))
        return digits

    peaks = []
    for shots in (sampler._ROW_BLOCK, sampler._CHUNK):
        config = sampled_config(experiment, mode, shots)
        plan, chunks = sampler._sample(config)
        chunks = [next(chunks)]
        sampler._write_csv_chunks(writes, (plan, iter(chunks)), config)  # builds the tables
        digit_rows.clear()
        with mock.patch.object(sampler, "_decimal_bytes", watched):
            _, peak = traced_peak(
                lambda: sampler._write_csv_chunks(writes, (plan, iter(chunks)), config)
            )
        assert sum(digit_rows) == shots  # once per shot, for both streams
        peaks.append(peak)
    assert max(digit_rows) == sampler._ROW_BLOCK
    # the larger chunk adds no buffer bigger than a row block's digits
    assert peaks[1] - peaks[0] < 16 * sampler._ROW_BLOCK, peaks


def test_join_of_a_run_copies_no_column():
    config = ExperimentConfig(experiment="hom", shots=1_000_000, seed=5)
    system, control = run_experiment(config)
    joined, peak = traced_peak(lambda: delayed_join(system, control))
    assert peak < 1 * MIB
    assert np.shares_memory(joined.system.outcome, system.outcome)


# Spawns Python on its arguments (the CLI module or a script) and prints the
# child's exit code and its own wait4 peak RSS in KiB.
LAUNCHER = """
import os, sys
argv = [sys.executable, *sys.argv[1:]]
quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_RDWR, 0) for fd in (0, 1, 2)]
pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=quiet)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def child_peak_mib(argv, script: str | None = None) -> float:
    """Peak RSS of a fresh ``qeraser`` CLI child, or of ``scripts/SCRIPT``, that must exit 0.

    Linux carries a process's peak RSS across fork and exec into the
    child's ``ru_maxrss``, so a CLI child of this test process would
    report at least the test process's own peak.  A small launcher
    process spawns the child instead and reads its ``wait4`` rusage.
    """
    command = [str(SCRIPTS / script)] if script else ["-m", "qeraser.cli"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
    launched = subprocess.run(
        [sys.executable, "-c", LAUNCHER, *command, *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    code, peak_kib = map(int, launched.stdout.split())
    assert code == 0, argv
    return peak_kib / 1024.0


def test_sampled_cli_peak_rss_does_not_grow_with_the_shot_count(tmp_path):
    output = str(tmp_path / "run.csv")
    commands = (
        (["hom", "--mode", "sample"], 4_000_000),
        (["chsh", "--mode", "sample", "--format", "csv", "--output", output], 2_000_000),
    )
    for argv, shots in commands:
        small = child_peak_mib([*argv, "--shots", "250000"])
        large = child_peak_mib([*argv, "--shots", str(shots)])
        assert large - small < 4.0, (argv, small, large)
    for path in tmp_path.iterdir():  # about 130 MB of CSV
        path.unlink()


def test_phase_est_sample_peak_rss_does_not_grow_with_the_shot_count():
    """One pass over the chunks replaces whole-run columns of about 52 bytes per shot.

    Those columns peaked at 44.4 MiB at 2.5e5 shots and at 233.7 MiB at 4e6.
    """
    argv = ["phase-est", "--n", "10", "--mode", "sample", "--theta", "0.3"]
    small = child_peak_mib([*argv, "--shots", "250000"])
    large = child_peak_mib([*argv, "--shots", "4000000"])
    assert abs(large - small) < 1.0, (small, large)


def test_sampled_figure_column_peak_rss_does_not_grow_with_the_shot_count():
    """The sampled fringe reads the run's summed chunk counts, never whole-run columns.

    Whole-run columns peaked at 124 MiB at 4e6 shots.
    """
    argv = ["--points", "2", "--sizes", "10"]
    small = child_peak_mib([*argv, "--shots", "250000"], script="metrology_fringes.py")
    large = child_peak_mib([*argv, "--shots", "4000000"], script="metrology_fringes.py")
    assert large - small < 4.0, (small, large)
