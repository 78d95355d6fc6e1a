"""Chunked sampling, writing and joining against their monolithic forms.

The pinned runs in ``test_golden_streams.py`` are smaller than one chunk
of the sampler, so they cannot see a seam between chunks.  The digests
below were recorded from the monolithic sampler and line writer that
predate chunking, at 3 * 2**16 + 17 shots: three full chunks of the
default size plus a ragged tail.  The properties then shrink the chunk
to a few shots and compare streams, bytes and joins with the monolithic
reference code kept here: a one-pass sampler, and a CSV formatter that
writes each shot's line with an f-string of its own.
"""

import hashlib
import io
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qeraser import sampler
from qeraser._record import replace
from qeraser.protocols import _ERASING_ANGLE, ChshSettings
from qeraser.sampler import (
    ControlStream,
    ExperimentConfig,
    JoinError,
    SystemStream,
    delayed_join,
    metadata_header,
    run_experiment,
    write_stream_csv,
)

SHOTS = 3 * (1 << 16) + 17
SEED = 7

BASE = {
    "hom": dict(phi=0.8, statistics="fermion", control_basis_angle=0.3),
    "chsh": dict(
        phi=0.5,
        settings=ChshSettings(0.3, 1.9, 0.7, 2.6),
        control_basis_angle=0.2,
    ),
    "metrology": dict(n=3, theta=0.7, phi=0.2, control_basis_angle=1.1),
}


def base_config(experiment: str, mode: str, **fields) -> ExperimentConfig:
    """``BASE[experiment]`` in ``mode``; a classical mixture takes the erasing angle."""
    base = dict(BASE[experiment], **fields)
    if mode == "classical_mixture":
        base["control_basis_angle"] = _ERASING_ANGLE[experiment]
    return ExperimentConfig(experiment=experiment, mode=mode, **base)

# (system CSV, control CSV) body digests
GOLDEN = {
    ("hom", "quantum"): (
        "e4d64c8924645b5ac2e930b0b2d1ddfc55234a4a3831c65ecce4cf9d7e95db28",
        "f9986e4e2f7e3ff59b0466c702807d876f88095fcf2e57b2f62aa23c5c8852bb",
    ),
    ("hom", "classical_mixture"): (
        "c2a4ee6409c7de4809b3a5d6c71b62f73f6f4aa1ff0bc565e0532ac4cfd59b83",
        "e26885abd860e1c05107d8fed9846960ec6ed244135108100599a04623ad9724",
    ),
    ("chsh", "quantum"): (
        "83af4da24cfd2e81983fc75d3aa5b2a304aa5028091e736bf99d327aff78a433",
        "0fab52d26171f9ce847448278f3a5e241badbe24de7d55cddcc184f2ba2aacd4",
    ),
    ("chsh", "classical_mixture"): (
        "030e3e950959e90bb7321df48cb5e81b2523ce6d22b86778e1d7860aa24b6683",
        "e26885abd860e1c05107d8fed9846960ec6ed244135108100599a04623ad9724",
    ),
    ("metrology", "quantum"): (
        "a5ef1115fa0ffe54d95dbeb9658e0e97608031e3f8505ac43088a16ec9611c89",
        "1c4e12e01eb16297d541a92ed012055dad7c4610c497b8a68ebe0ba8ad8cfe5d",
    ),
    ("metrology", "classical_mixture"): (
        "8263476cc3f374b189a22469a427ef8a5f316c3df927e4f9ba55138bf134ee05",
        "e26885abd860e1c05107d8fed9846960ec6ed244135108100599a04623ad9724",
    ),
}


def body_digest(records, config):
    _, body = rendered(records, config).split("\n", 1)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("mode", ["quantum", "classical_mixture"])
@pytest.mark.parametrize("experiment", ["hom", "chsh", "metrology"])
def test_multi_chunk_stream_bodies_are_pinned(experiment, mode):
    config = base_config(experiment, mode, shots=SHOTS, seed=SEED)
    system, control = run_experiment(config)
    assert (
        body_digest(system, config),
        body_digest(control, config),
    ) == GOLDEN[experiment, mode]


CHUNKS = st.sampled_from([1, 7, 64, sampler._CHUNK])
# lines per CSV render block, so that blocks also end inside a chunk
ROW_BLOCK_SIZES = [1, 7, 64, sampler._ROW_BLOCK]
ROW_BLOCKS = st.sampled_from(ROW_BLOCK_SIZES)


def chunked(chunk: int, row_block: int = sampler._ROW_BLOCK):
    """Patch the sampler's chunk and CSV row block sizes together."""
    return mock.patch.multiple(sampler, _CHUNK=chunk, _ROW_BLOCK=row_block)


def test_golden_runs_span_several_chunks():
    assert SHOTS > 3 * sampler._CHUNK


def reference_uniforms(seed: int, shots: int) -> np.ndarray:
    """The monolithic draw: (shots, 4) uniforms, row i from Philox block i."""
    raw = np.random.Philox(key=seed).random_raw(4 * shots).reshape(shots, 4)
    return (raw >> np.uint64(11)) * (2.0**-53)


def reference_streams(config: ExperimentConfig) -> tuple[SystemStream, ControlStream]:
    """The one-pass sampling body that predates chunking."""
    plan = sampler._plan(config)
    keyed = config.mode == "classical_mixture"
    uniforms = reference_uniforms(config.seed, config.shots)
    rows = np.zeros(config.shots, dtype=int)
    column = 0
    if keyed:
        rows = (uniforms[:, column] >= 0.5).astype(int)
        column += 1
    if config.experiment == "chsh":
        rows = rows * 4 + np.minimum((uniforms[:, column] * 4).astype(int), 3)
        column += 1
    cumulative = np.cumsum(np.clip(plan.table, 0.0, None), axis=1)
    scaled = uniforms[:, column] * cumulative[rows, -1]
    chosen = (scaled[:, None] >= cumulative[rows]).sum(axis=1)
    chosen = np.minimum(chosen, plan.table.shape[1] - 1)
    shots = np.arange(config.shots)
    if keyed:
        outcome, basis_angle = chosen, None
        control = np.where(rows < len(plan.table) // 2, 1, -1)
    else:
        outcome, basis_angle = chosen // 2, config.control_basis_angle
        control = np.where(chosen % 2 == 0, 1, -1)
    pair = rows % len(plan.settings)  # a mixture's system row is its setting pair, not its key
    system = SystemStream(
        shots, outcome, pair, config.experiment, plan.labels, tuple(plan.settings)
    )
    return system, ControlStream(shots, control, basis_angle)


def reference_csv(records: SystemStream | ControlStream, config: ExperimentConfig) -> str:
    """The CSV text of a stream, formatted shot by shot with one f-string each."""
    return oracles.stream_csv(records, metadata_header(config))


def assert_same_text(actual: str, expected: str) -> None:
    """Byte-exact comparison that reports the line count, then the first differing line.

    pytest's rewritten ``==`` on two long multi-line strings builds a line
    diff that can take minutes when every line differs.
    """
    actual_lines, expected_lines = actual.split("\n"), expected.split("\n")
    assert len(actual_lines) == len(expected_lines), "line counts differ"
    for number, (line, wanted) in enumerate(zip(actual_lines, expected_lines)):
        assert line == wanted, f"first difference at line {number}"


def rendered(records, config) -> str:
    buffer = io.StringIO()
    write_stream_csv(buffer, records, config)
    return buffer.getvalue()


@st.composite
def configs(draw, max_shots=300):
    return base_config(
        draw(st.sampled_from(["hom", "chsh", "metrology"])),
        draw(st.sampled_from(["quantum", "classical_mixture"])),
        shots=draw(st.integers(1, max_shots)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


@given(configs(), CHUNKS, ROW_BLOCKS)
def test_chunked_runs_equal_the_monolithic_reference(config, chunk, row_block):
    expected = reference_streams(config)
    with chunked(chunk, row_block):
        streams = run_experiment(config)
        assert streams == expected
        for records in streams:
            assert_same_text(rendered(records, config), reference_csv(records, config))


def selections(draw, shots: int) -> np.ndarray:
    """Shot positions: all, a subset, reversed, permuted, empty or single."""
    kind = draw(st.sampled_from(["all", "subset", "reversed", "permuted", "empty", "single"]))
    positions = np.arange(shots)
    if kind == "subset":
        keep = draw(st.lists(st.booleans(), min_size=shots, max_size=shots))
        return positions[np.array(keep, dtype=bool)]
    if kind == "reversed":
        return positions[::-1]
    if kind == "permuted":
        return np.array(draw(st.permutations(positions.tolist())), dtype=int)
    if kind == "empty":
        return positions[:0]
    if kind == "single":
        return positions[[draw(st.integers(0, shots - 1))]]
    return positions


@given(st.data(), configs(max_shots=150), CHUNKS, ROW_BLOCKS)
def test_chunked_writer_bytes_on_reordered_streams(data, config, chunk, row_block):
    system, control = run_experiment(config)
    order = selections(data.draw, config.shots)
    with chunked(chunk, row_block):
        for records in (system[order], control[order]):
            assert_same_text(rendered(records, config), reference_csv(records, config))


INT64 = st.integers(-(2**63), 2**63 - 1)


@given(st.lists(INT64, max_size=40), CHUNKS, ROW_BLOCKS)
@example([0, -1, 2**63 - 1, -(2**63), 10**18, -(10**18) + 1, 9, -10], 1, 1)
@example([0, -1, 2**63 - 1, -(2**63), 10**18, -(10**18) + 1, 9, -10], 64, 7)
@example([0], 64, 64)
def test_chunked_writer_renders_every_int64_index(indices, chunk, row_block):
    config = ExperimentConfig(experiment="hom", shots=1, seed=0, **BASE["hom"])
    shots = np.array(indices, dtype=np.int64)
    signs = np.where(np.arange(len(shots)) % 3 == 0, -1, 1)
    system = SystemStream(
        shots,
        np.arange(len(shots)) % 3,
        np.zeros(len(shots), dtype=int),
        "hom",
        ("AB", "AA", "BB"),
        ({"phi": 0.8, "statistics": "fermion"},),
    )
    streams = (system, ControlStream(shots, signs, 0.3), ControlStream(shots, signs, None))
    with chunked(chunk, row_block):
        for records in streams:
            assert_same_text(rendered(records, config), reference_csv(records, config))


# one CSV field: any text UTF-8 encodes (no surrogates) but the line break
FIELDS = st.text(st.characters(codec="utf-8", exclude_characters="\n"), max_size=5)


@st.composite
def text_streams(draw):
    """A system stream of unsorted int64 indices whose per-run values are any text."""
    keys = draw(st.lists(FIELDS, min_size=1, max_size=3, unique=True))
    row = st.fixed_dictionaries({key: FIELDS for key in keys})
    settings = draw(st.lists(row, min_size=1, max_size=3))
    labels = draw(st.lists(FIELDS, min_size=1, max_size=4))
    shots = draw(st.lists(INT64, min_size=1, max_size=30))
    size = dict(min_size=len(shots), max_size=len(shots))
    outcomes = draw(st.lists(st.integers(0, len(labels) - 1), **size))
    rows = draw(st.lists(st.integers(0, len(settings) - 1), **size))
    return SystemStream(
        np.array(shots, dtype=np.int64),
        np.array(outcomes),
        np.array(rows),
        draw(FIELDS),
        tuple(labels),
        tuple(settings),
    )


@given(text_streams(), CHUNKS, ROW_BLOCKS)
@example(
    SystemStream(
        np.array([5, -(2**63), 0, 2**63 - 1, -7, 10], dtype=np.int64),
        np.array([0, 1, 2, 0, 1, 2]),
        np.array([0, 1, 0, 1, 0, 1]),
        "",
        ("\x00", "ñ", ""),
        ({"k": "\x00\x00", "\x85": ""}, {"k": "é ", "\x85": "\x00x"}),
    ),
    1,
    7,
)
def test_each_row_is_its_index_decimal_and_its_tail(records, chunk, row_block):
    """Tails of any text, NUL and multi-byte characters too, and any int64 index order."""
    config = ExperimentConfig(experiment="hom", shots=1, seed=0)
    with chunked(chunk, row_block):
        lines = rendered(records, config).split("\n")
    keys = sorted(records.settings[0])
    assert lines[0] == metadata_header(config)
    assert lines[1] == ",".join(["shot_index", "experiment", "outcome", *keys])
    assert lines[-1] == ""
    expected = [
        ",".join([str(index), records.experiment, records.labels[outcome]])
        + "".join("," + records.settings[row][k] for k in keys)
        for index, outcome, row in zip(
            records.shot_index.tolist(), records.outcome.tolist(), records.setting_row.tolist()
        )
    ]
    assert lines[2:-1] == expected


def test_writer_rejects_foreign_control_outcomes():
    control = ControlStream(np.arange(3), np.array([1, 0, -1]), 0.0)
    config = ExperimentConfig(experiment="hom", shots=3, seed=0)
    with pytest.raises(ValueError, match="control outcomes"):
        write_stream_csv(io.StringIO(), control, config)


@given(st.lists(INT64, max_size=40))
@example([-(2**63), -1, 0, 2**63 - 1])
@example([-(10**8), 10**9 - 1, 2**32, 10**10 - 1])
@example([])
def test_decimal_bytes_are_the_right_aligned_decimals(values):
    decimals = [str(v) for v in values]
    for width in range(max(map(len, decimals), default=1), 22):
        text = sampler._decimal_bytes(np.array(values, dtype=np.int64), width)
        assert text.shape == (len(values), width)
        # the pad byte fills each row up to its decimal and is dropped whole
        assert [bytes(row).lstrip(b"\xff").decode() for row in text] == decimals
        assert [bytes(row).replace(b"\xff", b"") for row in text] == [d.encode() for d in decimals]


@given(
    st.integers(0, 2**64 - 1),
    st.lists(st.sampled_from([1, 7, sampler._CHUNK - 1, sampler._CHUNK + 3]), max_size=3),
    st.integers(1, 4),
)
def test_shot_uniforms_are_the_leading_columns_of_the_whole_block(seed, counts, columns):
    generator = np.random.Philox(key=seed)
    expected = reference_uniforms(seed, sum(counts))
    start = 0
    for count in counts:
        uniforms = sampler._shot_uniforms(generator, count, columns)
        assert uniforms.shape == (columns, count)
        assert all(column.flags.c_contiguous for column in uniforms)
        np.testing.assert_array_equal(uniforms, expected[start : start + count, :columns].T)
        start += count


@given(st.data(), configs(max_shots=150))
def test_mask_selection_equals_index_selection(data, config):
    kind = data.draw(st.sampled_from(["none", "all", "random"]))
    if kind == "random":
        flags = st.lists(st.booleans(), min_size=config.shots, max_size=config.shots)
        mask = np.array(data.draw(flags), dtype=bool)
    else:
        mask = np.full(config.shots, kind == "all")
    for records in run_experiment(config):
        selected = records[mask]
        assert selected == records[np.flatnonzero(mask)]
        for name in records._COLUMNS:
            np.testing.assert_array_equal(getattr(selected, name), getattr(records, name)[mask])
        # a mask of another length fails as numpy's does, never selects silently
        for size in (config.shots - 1, config.shots + 1):
            if size > 0:
                with pytest.raises(IndexError):
                    records[np.ones(size, dtype=bool)]


@pytest.mark.parametrize("mode", ["quantum", "classical_mixture"])
@pytest.mark.parametrize("experiment", ["hom", "chsh"])
@pytest.mark.parametrize("shots, chunk", [(25, 7), (130, 45), (1003, 334)])
def test_chunks_across_a_power_of_ten_render_the_reference_bytes(experiment, mode, shots, chunk):
    """Short, mixed-width and full-width chunks, with equal (hom) and ragged (chsh) tails.

    The CLI writes both files in one pass of the chunk writer, which renders
    each chunk's index digits once for both; ``write_stream_csv`` is its
    one-stream case.  Every row block size is tried, so render blocks end
    inside chunks and at their seams.
    """
    config = base_config(experiment, mode, shots=shots, seed=SEED)
    expected = [reference_csv(records, config) for records in run_experiment(config)]
    for row_block in ROW_BLOCK_SIZES:
        files = (io.BytesIO(), io.BytesIO())
        with chunked(chunk, row_block):
            writes = [handle.write for handle in files]
            sampler._write_csv_chunks(writes, sampler._sample(config), config)
            for records, wanted in zip(run_experiment(config), expected):
                assert_same_text(rendered(records, config), wanted)
        for handle, wanted in zip(files, expected):
            assert_same_text(handle.getvalue().decode("utf-8"), wanted)


@given(st.integers(1, 19), st.integers(0, 2**64 - 1), ROW_BLOCKS)
@example(19, 0, 7)
def test_narrow_chunk_codes_render_at_every_index_width(width, seed, row_block):
    """A classical-mixture chsh run has 4 setting rows of 4 outcomes: tail codes 0..15.

    Its rows and outcomes are int8, and the largest code renders beside
    indices of every length up to ``width``, each padded to ``width``.
    """
    config = base_config("chsh", "classical_mixture", shots=300, seed=seed)
    system, control = run_experiment(config)
    assert system.outcome.dtype == system.setting_row.dtype == np.int8
    rows, outcomes = system.setting_row.copy(), system.outcome.copy()
    rows[-1], outcomes[-1] = 3, 3  # the largest code
    # indices of every length up to ``width``, the first one that long
    generator = np.random.default_rng(seed)
    shots = generator.integers(0, min(10**width, 2**63 - 1), size=len(system), dtype=np.int64)
    shots[0] = 10 ** (width - 1)
    shots[1:20] //= 10 ** generator.integers(0, width, size=19)
    streams = (
        replace(system, shot_index=shots, setting_row=rows, outcome=outcomes),
        replace(control, shot_index=shots),
    )
    with chunked(sampler._CHUNK, row_block):
        for records in streams:
            assert_same_text(rendered(records, config), reference_csv(records, config))


def join_outcome(system_indices, control_indices):
    system = SystemStream(
        np.array(system_indices, dtype=int),
        np.array(system_indices, dtype=int) % 3,
        np.zeros(len(system_indices), dtype=int),
        "hom",
        ("AB", "AA", "BB"),
        ({"phi": 0.0, "statistics": "boson"},),
    )
    control = ControlStream(
        np.array(control_indices, dtype=int),
        np.where(np.array(control_indices, dtype=int) % 2 == 0, 1, -1),
        0.0,
    )
    try:
        return delayed_join(system, control)
    except JoinError as error:
        return error.orphaned_system, error.orphaned_control


@st.composite
def nearly_sorted_pairs(draw):
    """Sorted shot lists that may break order, repeat or differ at any position."""
    indices = sorted(draw(st.sets(st.integers(-50, 50), max_size=12)))
    sides = []
    for _ in range(2):
        side = list(indices)
        edit = draw(st.sampled_from(["none", "swap", "repeat", "drop"]))
        if side and edit != "none":
            k = draw(st.integers(0, len(side) - 1))
            if edit == "swap" and k + 1 < len(side):
                side[k], side[k + 1] = side[k + 1], side[k]
            elif edit == "repeat":
                side.insert(k, side[k])
            elif edit == "drop":
                del side[k]
        sides.append(side)
    return sides


@given(nearly_sorted_pairs(), st.sampled_from([1, 2, 3]))
def test_join_is_independent_of_the_chunk_size(sides, chunk):
    with mock.patch.object(sampler, "_CHUNK", chunk):
        chunked = join_outcome(*sides)
    with mock.patch.object(sampler, "_CHUNK", 1 << 30):
        assert chunked == join_outcome(*sides)
