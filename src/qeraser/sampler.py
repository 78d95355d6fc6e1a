"""Seeded shot-by-shot sampling with delayed joining of the control record.

Every experiment emits two independent streams of per-shot numpy columns:
a :class:`SystemStream` (detector pattern, analyzer outcomes, or register
parity) and a :class:`ControlStream` for the late measurement on the
control particle.  The system stream never carries the control basis
angle or outcome; labeled data sets exist only after :func:`delayed_join`
pairs the streams by shot index.  The classical baseline
(:func:`classical_mixture_run`) replaces the control particle by a random
preparation bit retained by a classical agent, which plays the role of
the control stream.  Each experiment has one plan, a table of the joint
(system, control) distributions of its quantum run; a mixture reads the
same table at the erasing readout, split by the key bit.  Both modes run
the same sampling body over it: the leading uniforms of a shot pick its
row (key bit, then setting pair) and the next one its cell.

Randomness contract (``GENERATOR_ID``): Philox 4x64 keyed by the run
seed; shot ``i`` owns counter block ``i``, i.e. the four raw 64-bit words
``random_raw[4*i : 4*i+4]``, mapped to uniforms in [0, 1) as
``(word >> 11) * 2**-53``.  Substreams are therefore independent per
shot and order-independent, and a shot is invariant under changes of the
total shot count.  The key is ``(seed, 0)``, and shot ``i`` is Random123
counter ``i + 1``, because numpy increments the counter before it
generates; ``Philox(key=seed).advance(i)`` starts at shot ``i``.
Per-shot uniform layout (a frozen part of the stream format):

    quantum      hom/metrology  u0 = joint outcome cell
                 chsh           u0 = setting pair, u1 = joint outcome cell
    classical    key bit        u0 (< 1/2 selects the +1 preparation)
                 hom/metrology  u1 = system outcome
                 chsh           u1 = setting pair, u2 = system outcome

Outcome cells are selected by half-open cumulative intervals, so a
zero-probability cell is never selected.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from typing import IO, Callable, Iterator, Mapping, NamedTuple, Sequence

from . import _numpy as np
from ._record import Record, astuple, replace
from ._version import __version__
from .fock import Statistics
from .protocols import (
    _CHSH_PAIRS,
    _ERASING_ANGLE,
    _OUTCOME_SIGN,
    CHSH_OUTCOMES,
    HOM_OUTCOMES,
    ChshSettings,
    MetrologySetup,
    ProbabilityTable,
    _chsh_columns,
    _chsh_combination,
    _hom_columns,
    _is_integer,
    parity_branch_statistics,
)

__all__ = [
    "GENERATOR_ID",
    "EXPERIMENTS",
    "SystemStream",
    "ControlStream",
    "ExperimentConfig",
    "JoinError",
    "JoinedStreams",
    "EmpiricalTable",
    "run_experiment",
    "classical_mixture_run",
    "sampling_table",
    "delayed_join",
    "empirical_table",
    "chsh_statistic",
    "empirical_parity",
    "config_to_dict",
    "metadata_header",
    "write_stream_csv",
]

GENERATOR_ID = "philox4x64/block-per-shot/v1"
EXPERIMENTS = ("hom", "chsh", "metrology")
MODES = ("quantum", "classical_mixture")

_PARITY_ROWS = ("+1", "-1")


class _Stream(Record):
    """Read-only per-shot numpy columns (``_COLUMNS``) beside per-run values.

    Row k of every column is one shot; indexing with a slice, an index
    array or a boolean mask selects shots.
    """

    shot_index: np.ndarray
    outcome: np.ndarray

    _COLUMNS = ("shot_index", "outcome")

    def __post_init__(self) -> None:
        shots = np.shape(self.shot_index)
        for name in self._COLUMNS:
            column = np.asarray(getattr(self, name)).view()
            if column.ndim != 1 or column.shape != shots:
                raise ValueError(
                    f"{name} column has shape {column.shape}: "
                    "every column must be 1-D and as long as shot_index"
                )
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.shot_index)

    def __getitem__(self, index):
        if isinstance(index, np.ndarray) and index.dtype == bool and index.shape == (len(self),):
            index = np.flatnonzero(index)  # one mask scan, then a take per column
        return replace(self, **{name: getattr(self, name)[index] for name in self._COLUMNS})

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and all(
            np.array_equal(mine, theirs) for mine, theirs in zip(astuple(self), astuple(other))
        )


class SystemStream(_Stream):
    """System half of a run.  ``settings`` never includes the control basis.

    Shot k has outcome ``labels[outcome[k]]`` and the settings template
    ``settings[setting_row[k]]`` (one template per sampling row).
    """

    setting_row: np.ndarray
    experiment: str
    labels: tuple[str, ...]
    settings: tuple[Mapping[str, float | int | str], ...]

    _COLUMNS = ("shot_index", "outcome", "setting_row")


class ControlStream(_Stream):
    """Control half of a run: ``outcome`` is +1 or -1 per shot.

    ``basis_angle`` is None when the outcome is a classical key bit.
    """

    basis_angle: float | None


class ExperimentConfig(Record):
    """Full parameter set of a sampled run.

    ``control_basis_angle`` is the analyzer angle of the late control
    measurement.  In classical-mixture mode, where a preparation bit
    replaces the control particle, it must be the experiment's erasing
    angle, the readout whose two branches the bit mixes.  ``settings``
    is required for the chsh experiment, ``n``/``theta`` apply to
    metrology, ``statistics`` to hom.
    """

    experiment: str
    shots: int
    seed: int
    phi: float = 0.0
    statistics: str = str(Statistics.BOSON.value)
    n: int = 1
    theta: float = 0.0
    settings: ChshSettings | None = None
    control_basis_angle: float = 0.0
    mode: str = "quantum"

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"experiment must be one of {EXPERIMENTS}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not _is_integer(self.shots) or self.shots < 1:
            raise ValueError("shots must be a positive integer")
        if not _is_integer(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not _is_integer(self.n):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        for name in ("phi", "theta", "control_basis_angle"):
            if not math.isfinite(float(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        erasing = _ERASING_ANGLE[self.experiment]
        if self.mode == "classical_mixture" and self.control_basis_angle != erasing:
            raise ValueError(
                f"control_basis_angle of a classical_mixture {self.experiment} run "
                f"must be its erasing angle {erasing!r}"
            )
        if self.experiment == "hom":
            Statistics(self.statistics)  # raises on unknown value
        if self.experiment == "chsh" and not isinstance(self.settings, ChshSettings):
            raise ValueError("chsh runs require analyzer settings")
        if self.experiment == "metrology" and not 1 <= self.n <= 20:
            raise ValueError(f"register size {self.n} outside supported range 1..20")


# shots per chunk of draws, selection, joins, counts and line writing, each
# chunk one raw Philox draw (128 KiB): every per-shot temporary is O(_CHUNK);
# only whole-run columns are O(shots)
_CHUNK = 1 << 12
_ROW_BLOCK = 1 << 10  # CSV lines rendered at once, into buffers each block reuses


def _chunks(total: int) -> Iterator[slice]:
    """Consecutive slices of at most ``_CHUNK`` items covering ``range(total)``."""
    for start in range(0, total, _CHUNK):
        yield slice(start, min(start + _CHUNK, total))


def _shot_uniforms(generator: np.random.Philox, shots: int, columns: int) -> np.ndarray:
    """(columns, shots) leading uniforms in [0,1) of the generator's next ``shots`` blocks.

    Column i of the result is the private substream of the i-th shot not
    yet drawn, since consecutive ``random_raw`` calls continue one counter
    sequence.  All four words of every block are drawn, in one call, so the
    counter moves on by ``shots`` blocks; only the leading ``columns`` are
    converted.
    """
    raw = generator.random_raw(4 * shots).reshape(-1, 4)
    uniforms = np.empty((columns, shots))
    for k, row in enumerate(uniforms):
        np.multiply(raw[:, k] >> np.uint64(11), 2.0**-53, out=row)
    return uniforms


def _cumulative(distributions: np.ndarray) -> np.ndarray:
    """Checked (k, cells) cumulative sums of the rows of ``distributions``."""
    if np.any(distributions < -1e-12):
        raise ArithmeticError("negative probability in sampling distribution")
    cumulative = np.cumsum(np.clip(distributions, 0.0, None), axis=1)
    if np.any(np.abs(cumulative[:, -1] - 1.0) > 1e-9):
        raise ArithmeticError("sampling distribution does not sum to 1")
    return cumulative


def _cell_indices(uniforms: np.ndarray, cumulative: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Half-open cumulative-interval selection, vectorized over shots.

    ``cumulative`` comes from :func:`_cumulative`; ``rows`` picks the
    distribution per shot.  Cell c is selected when the draw, scaled in
    place, lands in [cum[c-1], cum[c]); a zero-width interval is unselectable.
    """
    bounds = cumulative.T  # bounds[c] holds cum[c] of every distribution
    rows = rows.astype(np.intp)
    bound = bounds[-1].take(rows)
    scaled = np.multiply(uniforms, bound, out=uniforms)
    indices = np.zeros(len(rows), dtype=np.int8)  # a plan has at most 8 cells
    # bounds never decrease, so a draw at or past the last one, which rounding
    # can give, passes every earlier one too and takes the last cell
    for column in bounds[:-1]:
        indices += scaled >= column.take(rows, out=bound, mode="clip")
    return indices


class _Plan(NamedTuple):
    """What one run hands to the shared sampling body: see :func:`_plan`.

    ``table`` holds one outcome distribution per row, with cells as
    :func:`sampling_table` orders them.  ``labels`` are the system
    outcomes; ``settings`` has one template per row.
    """

    table: np.ndarray
    labels: tuple[str, ...]
    settings: Sequence[Mapping[str, float | int | str]]


def _hom_quantum(config: ExperimentConfig) -> _Plan:
    columns = _hom_columns(config.phi, config.statistics, config.control_basis_angle)
    settings = {"phi": config.phi, "statistics": config.statistics}
    # one row of joint cells: pattern-major, control +1 first
    return _Plan(columns[:, :2].reshape(1, -1), HOM_OUTCOMES, [settings])


def _chsh_quantum(config: ExperimentConfig) -> _Plan:
    pairs, rows = [], []
    for i, j in _CHSH_PAIRS:
        theta_a, theta_b = config.settings.pair(i, j)
        pair = dict(setting_a=i, setting_b=j, theta_a=theta_a, theta_b=theta_b, phi=config.phi)
        pairs.append(pair)
        columns = _chsh_columns(theta_a, theta_b, config.phi, config.control_basis_angle)
        rows.append([cell for row in columns for cell in row[:2]])  # outcome-major, +1 first
    return _Plan(np.array(rows), CHSH_OUTCOMES, pairs)


def _metrology_quantum(config: ExperimentConfig) -> _Plan:
    branches = parity_branch_statistics(
        MetrologySetup(config.n, config.theta, config.phi, config.control_basis_angle)
    )
    # cells parity-major, control +1 first: P(c) * P(parity | c)
    joint = [
        branches[c][0] * (0.5 * (1.0 + int(parity) * branches[c][1]))
        for parity in _PARITY_ROWS
        for c in (+1, -1)
    ]
    settings = {"n": config.n, "theta": config.theta, "phi": config.phi}
    return _Plan(np.array([joint]), _PARITY_ROWS, [settings])


def _plan(config: ExperimentConfig) -> _Plan:
    """The quantum plan of ``config``'s experiment, read in ``config``'s mode.

    A classical mixture is the quantum plan of the same config, whose
    control readout :class:`ExperimentConfig` fixes at the erasing angle:
    its rows are (key, pair) with key +1 first, each ``2.0 *`` the joint
    cells of control = key, and its settings templates are doubled.
    """
    build = {"hom": _hom_quantum, "chsh": _chsh_quantum, "metrology": _metrology_quantum}
    plan = build[config.experiment](config)
    if config.mode == "quantum":
        return plan
    table = 2.0 * np.concatenate([plan.table[:, 0::2], plan.table[:, 1::2]])
    return _Plan(table, plan.labels, [*plan.settings] * 2)


def sampling_table(config: ExperimentConfig) -> np.ndarray:
    """(rows, cells) distributions the sampler draws ``config``'s shots from.

    Quantum mode: one row per setting pair (a single row unless chsh),
    cells are joint (system outcome, control outcome) pairs ordered
    system-major with control +1 first.  Classical mode: rows are (key,
    setting pair) with key +1 first, cells are system outcomes.
    """
    return _plan(config).table


def _sample(config: ExperimentConfig) -> Iterator[tuple[SystemStream, ControlStream]]:
    """The one sampling body shared by every experiment and mode, chunk by chunk.

    Builds and checks the run's plan at once, then returns an iterator of
    each chunk's (system, control) pair in shot order; chunk k covers
    ``shot_index`` ``k * _CHUNK`` up to the next chunk's first shot, with
    int8 rows, outcomes and control signs.  A chunk the consumer drops is
    freed before the next one is drawn.
    """
    plan = _plan(config)
    cumulative = _cumulative(plan.table)
    keyed = config.mode == "classical_mixture"
    basis_angle = None if keyed else config.control_basis_angle
    settings = tuple(plan.settings)
    paired = config.experiment == "chsh"
    generator = np.random.Philox(key=config.seed)

    def drawn(part: slice) -> tuple[SystemStream, ControlStream]:
        count = part.stop - part.start
        uniforms = _shot_uniforms(generator, count, keyed + paired + 1)
        # leading uniforms pick the row in the frozen layout: key bit, then pair
        row = np.zeros(count, dtype=np.int8)
        if keyed:  # key +1 (row block 0) below 1/2
            row = (uniforms[0] >= 0.5).astype(np.int8)
        if paired:
            pair = uniforms[int(keyed)]
            pair *= 4
            row = row * 4 + np.minimum(pair.astype(np.int8), 3)
        chosen = _cell_indices(uniforms[-1], cumulative, row)
        if keyed:  # the key bit of the row is the control outcome
            outcome = chosen
            control = np.where(row < len(plan.table) // 2, np.int8(1), np.int8(-1))
        else:  # joint cells: system-major, control +1 first
            outcome = chosen >> 1
            control = 1 - 2 * (chosen & 1)
        shots = np.arange(part.start, part.stop)
        return (
            SystemStream(shots, outcome, row, config.experiment, plan.labels, settings),
            ControlStream(shots, control, basis_angle),
        )

    return map(drawn, _chunks(config.shots))


def run_experiment(config: ExperimentConfig) -> tuple[SystemStream, ControlStream]:
    """Sample a run, returning the system stream and the control stream.

    Each shot's joint (system, control) outcome is drawn from the exact
    joint distribution of the requested experiment; the two halves are
    then written to separate streams that share only the shot index.
    Identical (config, seed) reproduces identical streams.  The chunks of
    :func:`_sample` are gathered into whole-run columns, in either mode.
    """
    shots = np.arange(config.shots)
    # int8 as the chunks are: outcomes, rows and signs are small codes
    outcome = np.empty(config.shots, dtype=np.int8)
    rows = np.empty(config.shots, dtype=np.int8)
    control_outcome = np.empty(config.shots, dtype=np.int8)
    for part, (system, control) in zip(_chunks(config.shots), _sample(config)):
        outcome[part] = system.outcome
        rows[part] = system.setting_row
        control_outcome[part] = control.outcome
    return (
        replace(system, shot_index=shots, outcome=outcome, setting_row=rows),
        replace(control, shot_index=shots, outcome=control_outcome),
    )


def classical_mixture_run(config: ExperimentConfig) -> tuple[SystemStream, ControlStream]:
    """Sample the classical baseline: a random preparation instead of a control.

    Per shot a fair bit selects one of the two pure preparations (+1 picks
    the branch the erasing control readout +1 would herald: the plus pair
    state, or the register phase ``phi``).  System outcomes are sampled
    from that branch, whose distribution is twice the quantum joint cells
    of control = bit at the erasing readout; the bit stream is returned in
    place of the control stream, with ``basis_angle`` None since nothing
    was measured.
    """
    if config.mode != "classical_mixture":
        raise ValueError("classical_mixture_run requires mode='classical_mixture'")
    return run_experiment(config)


class JoinError(ValueError):
    """Streams cannot be joined; carries the orphaned shot indices."""

    def __init__(
        self, orphaned_system: tuple[int, ...], orphaned_control: tuple[int, ...]
    ) -> None:
        self.orphaned_system = orphaned_system
        self.orphaned_control = orphaned_control
        super().__init__(
            "streams do not cover the same shots: "
            f"system-only {list(orphaned_system)}, control-only {list(orphaned_control)}"
        )


class JoinedStreams(Record):
    """Both streams in shot order; ``control.outcome`` labels each system shot."""

    system: SystemStream
    control: ControlStream

    def labeled(self, outcome: int) -> SystemStream:
        return self.system[self.control.outcome == outcome]


def delayed_join(
    system_stream: SystemStream, control_stream: ControlStream
) -> JoinedStreams:
    """Merge the two streams by shot index, after the fact.

    Every shot must appear exactly once in each stream with a +1/-1
    control outcome; otherwise a :class:`JoinError` lists the repeated,
    orphaned or foreign shot indices.  The result keeps the unjoined view
    (the whole system stream) beside the control outcomes that label it.
    Streams already in the same strictly increasing shot order, as
    :func:`run_experiment` writes them, are returned as they are.
    """
    if _same_increasing(system_stream.shot_index, control_stream.shot_index):
        system, control = system_stream, control_stream
    else:
        system, control = _sorted_pair(system_stream, control_stream)
    if not _signs_only(control.outcome):
        foreign = control.shot_index[(control.outcome != 1) & (control.outcome != -1)]
        raise JoinError((), tuple(foreign.tolist()))
    return JoinedStreams(system, control)


def _signs_only(values: np.ndarray) -> bool:
    """Whether every entry is +1 or -1; an integer column builds no per-shot temporary."""
    if values.dtype.kind not in "iu":
        return bool(np.all((values == 1) | (values == -1)))
    return len(values) == 0 or bool(
        values.min() >= -1 and values.max() <= 1 and np.count_nonzero(values) == len(values)
    )


def _same_increasing(first: np.ndarray, second: np.ndarray) -> bool:
    """Whether two index columns are equal and strictly increasing, chunk by chunk."""
    if len(first) != len(second):
        return False
    for part in _chunks(len(first)):
        if not np.array_equal(first[part], second[part]):
            return False
        # compare across the seam with the previous chunk's last index too
        window = first[max(part.start - 1, 0) : part.stop]
        if np.any(window[1:] <= window[:-1]):
            return False
    return True


def _sorted_pair(
    system_stream: SystemStream, control_stream: ControlStream
) -> tuple[SystemStream, ControlStream]:
    """Both streams reordered by shot index; JoinError on repeated or orphaned shots."""
    system_index, system_order, repeats = np.unique(
        system_stream.shot_index, return_index=True, return_counts=True
    )
    if np.any(repeats > 1):
        raise JoinError(tuple(system_index[repeats > 1].tolist()), ())
    control_index, control_order, repeats = np.unique(
        control_stream.shot_index, return_index=True, return_counts=True
    )
    if np.any(repeats > 1):
        raise JoinError((), tuple(control_index[repeats > 1].tolist()))
    if not np.array_equal(system_index, control_index):
        raise JoinError(
            tuple(np.setdiff1d(system_index, control_index, assume_unique=True).tolist()),
            tuple(np.setdiff1d(control_index, system_index, assume_unique=True).tolist()),
        )
    return system_stream[system_order], control_stream[control_order]


class EmpiricalTable(ProbabilityTable):
    """Relative frequencies with per-cell binomial errors and zero-count flags."""

    counts: np.ndarray
    total: int
    standard_errors: np.ndarray
    flagged: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("counts", "standard_errors", "flagged"):
            array = np.asarray(getattr(self, name)).copy()
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def summary(self) -> str:
        width = max(len(label) for label in self.row_labels + ("outcome",)) + 2
        header = "outcome".ljust(width) + "".join(
            c.rjust(22) for c in self.column_labels
        )
        lines = [header, f"(total shots: {self.total})"]
        for r, label in enumerate(self.row_labels):
            cells = []
            for c in range(len(self.column_labels)):
                text = f"{self.values[r, c]:.4f} +- {self.standard_errors[r, c]:.4f}"
                if self.flagged[r, c]:
                    text += " *"
                cells.append(text.rjust(22))
            lines.append(label.ljust(width) + "".join(cells))
        lines.append("(* = empty cell, no events observed)")
        return "\n".join(lines) + "\n"


def empirical_table(
    records: SystemStream, control_outcome: np.ndarray | None = None
) -> EmpiricalTable:
    """Relative outcome frequencies of a system stream.

    ``control_outcome`` gives each shot's +1/-1 control outcome in stream
    order (as ``JoinedStreams.control.outcome``) and splits the table
    into the ``C=up``/``C=down`` columns that occur; ``None`` puts
    everything into a single ``C=?`` column.  Frequencies are joint: cell
    count over the total shot count, so conditioned columns keep their
    ensemble weight.  Empty cells are flagged rather than treated as errors.
    """
    if len(records) == 0:
        raise ValueError("cannot tabulate an empty record set")
    if control_outcome is None:
        return _counts_table(records.labels, _outcome_counts(records).sum(axis=1, keepdims=True))
    return _counts_table(records.labels, _outcome_counts(records, control_outcome))


def _outcome_counts(
    records: SystemStream, control_outcome: np.ndarray | None = None
) -> np.ndarray:
    """(outcomes, 2) shot counts of each outcome beside control +1 and -1.

    Without ``control_outcome`` every shot counts as +1.  Counts of
    disjoint shot sets add up to the counts of their union.
    """
    _check_codes(records)
    # intp codes are what bincount reads, so it makes no copy of its own
    codes = np.multiply(records.outcome, 2, dtype=np.intp)
    codes += _down_mask(records, control_outcome)
    return np.bincount(codes, minlength=2 * len(records.labels)).reshape(-1, 2)


def _down_mask(records: SystemStream, control_outcome: np.ndarray | None) -> np.ndarray | int:
    """Per shot of ``records``, whether its control outcome is -1; 0 without a column."""
    if control_outcome is None:
        return 0
    control_outcome = np.asarray(control_outcome)
    if control_outcome.shape != records.outcome.shape:
        raise ValueError(f"control column covers {control_outcome.size} of {len(records)} shots")
    if not _signs_only(control_outcome):
        raise ValueError("control outcomes must be +1 or -1")
    return control_outcome == -1


def _check_codes(records: SystemStream) -> None:
    """ValueError unless outcomes index ``labels`` and rows ``settings``; no per-shot temporary."""
    for name, codes, size in (
        ("outcome code", records.outcome, len(records.labels)),
        ("setting row", records.setting_row, len(records.settings)),
    ):
        if codes.dtype.kind not in "iu" or len(codes) and (codes.min() < 0 or codes.max() >= size):
            raise ValueError(f"unknown {name} for {records.experiment}")


def _counts_table(labels: Sequence[str], counts: np.ndarray) -> EmpiricalTable:
    """Table of (outcomes, 1) ``C=?`` or (outcomes, 2) up/down counts.

    A split table keeps only the control columns that have shots.
    """
    if counts.shape[1] == 1:
        columns: tuple[str, ...] = ("C=?",)
    else:
        seen = counts.sum(axis=0) > 0
        columns = tuple(c for c, present in zip(("C=up", "C=down"), seen) if present)
        counts = counts[:, seen]
    total = int(counts.sum())
    values = counts / total
    standard_errors = np.sqrt(values * (1.0 - values) / total)
    return EmpiricalTable(
        row_labels=tuple(labels),
        column_labels=columns,
        values=values,
        counts=counts,
        total=total,
        standard_errors=standard_errors,
        flagged=counts == 0,
    )


def chsh_statistic(records: SystemStream) -> tuple[float, float]:
    """Empirical CHSH combination E00 + E01 + E10 - E11 and its standard error.

    ``records`` should be one labeled set from :func:`delayed_join` (or a
    key-joined classical set).  Per setting pair the correlator variance
    is estimated as (1 - E^2)/count and propagated in quadrature.  The
    value is signed; compare its magnitude against bounds.
    """
    return _chsh_from_sums(_pair_sums(records).sum(axis=0))


def _pair_sums(records: SystemStream, control_outcome: np.ndarray | None = None) -> np.ndarray:
    """(2, 2, 4) record counts and +-1 product sums of the four setting pairs.

    Axis 0 is control +1, then -1, as in :func:`_outcome_counts`; axis 1
    holds the counts, then the product sums.  Every entry is an exact
    integer, so the sums of disjoint record sets add up to those of their
    union whatever the order.
    """
    if records.experiment != "chsh":
        raise ValueError("chsh_statistic needs chsh records")
    _check_codes(records)
    # code = 8 * (product is -1) + 2 * pair + (control is -1), counted as intp
    pairs = [(s["setting_a"], s["setting_b"]) for s in records.settings]
    pair_of_row = [2 * _CHSH_PAIRS.index(pair) for pair in pairs]
    negative_of = [8 * (_OUTCOME_SIGN[a] != _OUTCOME_SIGN[b]) for a, b in records.labels]
    codes = np.array(pair_of_row, dtype=np.intp).take(records.setting_row)
    codes += np.array(negative_of, dtype=np.int8).take(records.outcome)
    codes += _down_mask(records, control_outcome)
    signed = np.bincount(codes, minlength=16).reshape(2, 4, 2)  # (product, pair, control)
    return np.stack([signed[0] + signed[1], signed[0] - signed[1]]).transpose(2, 0, 1)


def _chsh_from_sums(sums: np.ndarray) -> tuple[float, float]:
    """:func:`chsh_statistic` of one labeled set from its (2, 4) branch of :func:`_pair_sums`."""
    counts, products = sums.tolist()
    if not any(counts):
        raise ValueError("cannot estimate CHSH from an empty record set")
    if 0 in counts:
        raise ValueError(f"no records for setting pair {_CHSH_PAIRS[counts.index(0)]}")
    correlators = [product / count for product, count in zip(products, counts)]
    variance = 0.0
    for correlator, count in zip(correlators, counts):
        variance += (1.0 - correlator**2) / count
    return _chsh_combination(correlators), math.sqrt(variance)


def empirical_parity(records: SystemStream) -> tuple[float, float]:
    """Mean register parity of a system stream and its standard error."""
    if len(records) == 0:
        raise ValueError("cannot estimate parity from an empty record set")
    parity = _Parity(records.labels, _outcome_counts(records)[:, 0])
    parity.add(records.outcome)
    return parity.estimate()


class _Parity:
    """Mean parity of a set of shots and its standard error, ``np.std(ddof=1) / sqrt(n)``.

    ``counts`` holds the set's shots per outcome code, so the mean is
    exact and independent of shot order.  The standard error is not: the
    set's outcome codes are then added, in shot order and in pieces of any
    size, and their squared deviations summed as ``np.std`` sums them.
    """

    def __init__(self, labels: Sequence[str], counts: np.ndarray) -> None:
        parities = [int(label) for label in labels]
        self.count = int(sum(counts))
        total = sum(p * int(c) for p, c in zip(parities, counts))
        self.mean = total / self.count if self.count else math.nan
        deviations = np.array(parities, dtype=float) - self.mean
        self._squares = deviations * deviations
        self._square_sum = _PairwiseSum(self.count)

    def add(self, codes: np.ndarray) -> None:
        self._square_sum.add(self._squares.take(codes))

    def estimate(self) -> tuple[float, float]:
        """(mean, standard error); 1.0 for one shot, nan for none."""
        if self.count < 2:
            return self.mean, (1.0 if self.count else math.nan)
        variance = self._square_sum.total() / (self.count - 1)
        return self.mean, math.sqrt(variance) / math.sqrt(self.count)


# terms of the largest subtree that _PairwiseSum hands numpy whole, in one
# np.add.reduce call; at least numpy's own 128-term leaf
_SUM_RUN = 1 << 12


def _subtrees(n: int, depth: int = 0) -> Iterator[tuple[int, int]]:
    """(terms, depth) of the subtrees of numpy's sum of ``n`` terms that
    :class:`_PairwiseSum` adds whole, in order."""
    if n <= _SUM_RUN:
        yield n, depth
    else:
        half = n // 2 - n // 2 % 8
        yield from _subtrees(half, depth + 1)
        yield from _subtrees(n - half, depth + 1)


class _PairwiseSum:
    """``np.add.reduce`` of ``n`` float64 terms, bit for bit, fed in order in pieces.

    numpy adds a contiguous float64 reduction pairwise: at most 128 terms
    in 8 lanes, and a longer run as the sum of its halves, split at
    ``n // 2`` rounded down to a multiple of 8.  That tree depends on
    ``n`` alone.  So this sum splits as numpy does down to subtrees of at
    most ``_SUM_RUN`` terms, adds each with one ``np.add.reduce`` call as
    soon as its terms are in, and adds the subtree sums along the tree.
    It holds the terms of one unfinished subtree, and one sum per level.
    """

    def __init__(self, n: int) -> None:
        self._runs = _subtrees(n)
        self._run: tuple[int, int] | None = next(self._runs)
        self._held = [np.empty(0)]  # pieces of terms in no finished subtree yet
        self._count = 0  # terms in them
        self._sums: list[tuple[float, int]] = []  # (sum, depth) of finished left subtrees

    def add(self, terms: np.ndarray) -> None:
        if len(terms):
            if not self._count:
                self._held = []
            self._held.append(np.asarray(terms, dtype=float))
            self._count += len(terms)
        while self._run is not None and self._run[0] <= self._count:
            held = self._held[0] if len(self._held) == 1 else np.concatenate(self._held)
            length, depth = self._run
            total = float(np.add.reduce(held[:length]))
            # a subtree as deep as the last finished one is its right sibling
            while self._sums and self._sums[-1][1] == depth:
                total = self._sums.pop()[0] + total
                depth -= 1
            self._sums.append((total, depth))
            self._held, self._count = [held[length:]], self._count - length
            self._run = next(self._runs, None)

    def total(self) -> float:
        """The sum of all ``n`` terms; ValueError if fewer or more were added."""
        self.add(())  # the sum of 0 terms is its one empty subtree
        if self._run is not None or self._count:
            raise ValueError("the terms added are not as many as the sum was made for")
        return 0.0 + self._sums[0][0]  # numpy starts a sum at +0.0, so -0.0 reads +0.0


def _parity_sets(chunks: Iterator[tuple[SystemStream, ControlStream]]) -> Iterator[tuple]:
    """Per chunk, the outcome codes of its C=up, C=down and unjoined shots, in shot order."""
    for system, control in chunks:
        outcome, up = system.outcome, control.outcome == 1
        # index lists take each set faster than a boolean mask selects it
        yield outcome.take(np.flatnonzero(up)), outcome.take(np.flatnonzero(~up)), outcome


def _parity_estimates(config: ExperimentConfig) -> list[float]:
    """Mean parity and standard error of a metrology run's C=up, C=down and unjoined sets, flat.

    Two passes over the run's chunks, which hold one chunk at a time.  The
    first counts each set's parities, which fix its size and exact mean.
    The second replays the same counter-based chunks, splits them the same
    way and adds each set's squared deviations in shot order, as
    ``np.std(ddof=1)`` adds them, so every value equals
    :func:`empirical_parity` of the set bit for bit.  An empty set reads nan.
    """
    counts = np.zeros((3, len(_PARITY_ROWS)), dtype=np.int64)
    for codes in _parity_sets(_sample(config)):
        counts += [np.bincount(c, minlength=len(_PARITY_ROWS)) for c in codes]
    sets = [_Parity(_PARITY_ROWS, per_code) for per_code in counts]
    for codes in _parity_sets(_sample(config)):  # the chunks counted above
        for parity, c in zip(sets, codes):
            parity.add(c)
    return [value for parity in sets for value in parity.estimate()]


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-ready view of a config; sufficient to rebuild it exactly."""
    view = dict(zip(ExperimentConfig._fields, astuple(config)))
    if config.settings is not None:
        view["settings"] = list(astuple(config.settings))
    return view


def _header_line(metadata: dict) -> str:
    """The first line of every output: ``# `` and ``metadata`` as sorted-key JSON."""
    return "# " + json.dumps(metadata, sort_keys=True)


def metadata_header(config: ExperimentConfig) -> str:
    """One-line reproducibility header: config, generator id, code version."""
    metadata = {
        "config": config_to_dict(config),
        "generator": GENERATOR_ID,
        "version": __version__,
    }
    return _header_line(metadata)


def _format_field(value: float | int | str | None) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


@functools.cache
def _digit_groups() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII digits of the 10**4 groups 0000 .. 9999 and the powers of ten.

    Group ``g``'s four digits are the bytes of entry ``g`` of the uint32
    table.  The powers are 0, 10, 10**2, ..., 10**19 in uint64: the
    number of them at most a magnitude is its count of decimal digits.
    Built once, at the first CSV line.
    """
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    table = np.empty((10,) * 4 + (4,), dtype=np.uint8)  # 40 KB, and no larger temporary
    for place in range(4):
        table[..., place] = digits.reshape((1,) * place + (10,) + (1,) * (3 - place))
    powers = np.array([0] + [10**k for k in range(1, 20)], dtype=np.uint64)
    return table.reshape(10_000, 4).view(np.uint32).ravel(), powers


@functools.lru_cache(maxsize=4)
def _full_lengths(count: int, width: int) -> np.ndarray:
    """``count`` decimal lengths that all equal ``width``, shared and read-only."""
    lengths = np.full(count, width)
    lengths.setflags(write=False)
    return lengths


def _decimal_bytes(values: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """``str(int(v))`` of every int64 ``v`` as right-aligned uint8 rows.

    Returns a (len(values), width) matrix whose row k ends with the ASCII
    decimal of ``values[k]`` (zero-padded on the left), and the length of
    that decimal.  ``width`` must fit the longest decimal.  Each group of
    four digits is read from the :func:`_digit_groups` table, so a row
    block costs a few numpy calls per group and none per digit.
    """
    table, powers = _digit_groups()
    values = values.astype(np.int64, copy=False)
    low = np.minimum.reduce(values) if len(values) else 0
    # |v| overflows only at -2**63, whose uint64 view is its exact magnitude 2**63
    magnitude = values if low >= 0 else np.abs(values).view(np.uint64)
    if low >= 10 ** (width - 1):
        lengths = _full_lengths(len(values), width)
    else:
        lengths = powers[:width].searchsorted(magnitude.view(np.uint64), side="right")
    groups = -(-width // 4)
    text = np.empty((len(values), groups), dtype=np.uint32)
    for column in range(groups - 1, 0, -1):
        quotient = magnitude // 10_000
        text[:, column] = table[magnitude - quotient * 10_000]
        magnitude = quotient
    text[:, 0] = table[magnitude]
    text = text.view(np.uint8)[:, 4 * groups - width :]
    if low < 0:
        signed = np.flatnonzero(values < 0)
        lengths[signed] += 1
        text[signed, width - lengths[signed]] = ord("-")
    return text, lengths


def _padded(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Left-aligned uint8 rows of the UTF-8 ``texts`` and the mask of their bytes."""
    encoded = [text.encode("utf-8") for text in texts]
    lengths = np.array([len(data) for data in encoded])
    rows = np.zeros((len(encoded), int(lengths.max())), dtype=np.uint8)
    for row, data in zip(rows, encoded):
        row[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    return rows, np.arange(rows.shape[1]) < lengths[:, None]


def _csv_renderer(
    records: SystemStream | ControlStream, width: int
) -> tuple[str, Callable[[SystemStream | ControlStream], None], Callable[..., np.ndarray]]:
    """Column header line, ``check(chunk)`` and ``render(chunk, rows, digits, lengths)``.

    A line is the shot's decimal index followed by a tail that only the
    per-run values of ``records`` decide: one tail per (settings row,
    outcome) of a system stream, one per outcome of a control stream.
    Each tail is formatted once.  ``chunk`` is any part of a stream with
    those per-run values whose shot indices have at most ``width``
    characters; ``check`` raises ValueError on codes the tails do not
    cover.  ``render`` makes the lines of the block ``rows`` of a checked
    chunk, at most ``_ROW_BLOCK`` shots, and ``digits, lengths`` is
    ``_decimal_bytes(chunk.shot_index[rows], width)``, so streams that
    share their shot indices share it too.  Each shot's right-aligned
    index digits and its tail fill one row of a uint8 matrix; dropping
    the padding bytes leaves the block's UTF-8 text, returned as a 1-D
    uint8 array.  When every tail has one length and every index fills
    ``width``, no row has padding and the matrix already is the text,
    valid until the next block refills that buffer.
    """
    if isinstance(records, SystemStream):
        keys = sorted(records.settings[0])
        if any(sorted(settings) != keys for settings in records.settings):
            raise ValueError("records disagree on setting fields")
        columns = "shot_index,experiment,outcome," + ",".join(keys) + "\n"
        tails = [
            ",".join(["", records.experiment, label, *(_format_field(settings[k]) for k in keys)])
            + "\n"
            for settings in records.settings
            for label in records.labels
        ]
        outcomes = len(records.labels)
        check = _check_codes

        def codes_of(chunk: SystemStream, rows: slice) -> np.ndarray:
            codes = np.multiply(chunk.setting_row[rows], outcomes, dtype=np.intp)
            codes += chunk.outcome[rows]
            return codes

    else:
        columns = "shot_index,control_outcome,basis_angle\n"
        angle = _format_field(records.basis_angle)
        tails = [f",{value:+d},{angle}\n" for value in (1, -1)]

        def check(chunk: ControlStream) -> None:
            if not _signs_only(chunk.outcome):
                raise ValueError("control outcomes must be +1 or -1")

        def codes_of(chunk: ControlStream, rows: slice) -> np.ndarray:
            return (chunk.outcome[rows] == -1).astype(np.intp)  # +1 -> 0, -1 -> 1

    tail_bytes, tail_mask = _padded(tails)
    equal_tails = bool(tail_mask.all())
    blank = np.zeros((len(tails), width), dtype=np.uint8)
    templates = np.concatenate([blank, tail_bytes], axis=1)
    # row code * (width + 1) + n: the mask of a line whose index has n characters
    suffixes = np.arange(width) >= width - np.arange(width + 1)[:, None]
    masks = np.concatenate(
        [np.tile(suffixes, (len(tails), 1)), np.repeat(tail_mask, width + 1, axis=0)],
        axis=1,
    )

    lines = np.empty((_ROW_BLOCK, templates.shape[1]), dtype=np.uint8)
    keep = np.empty(lines.shape, dtype=bool)
    # each line's index field as one opaque item: numpy copies an item per line
    # where a (lines, width) uint8 copy loops over every byte
    fields = lines[:, :width].view(f"V{width}")

    def render(
        chunk: SystemStream | ControlStream, rows: slice, digits: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        codes = codes_of(chunk, rows)
        # mode="clip" fills ``out`` itself; checked codes are in range anyway
        text = templates.take(codes, axis=0, out=lines[: len(codes)], mode="clip")
        fields[: len(codes)] = digits.view(fields.dtype)
        if not equal_tails or np.minimum.reduce(lengths, initial=width) < width:
            codes *= width + 1
            codes += lengths
            text = text[masks.take(codes, axis=0, out=keep[: len(codes)], mode="clip")]
        return text.reshape(-1)

    return columns, check, render


def write_stream_csv(
    stream: IO[str],
    records: SystemStream | ControlStream,
    config: ExperimentConfig,
) -> None:
    """CSV serialization with the metadata header; byte-deterministic."""
    if len(records) == 0:
        stream.write(metadata_header(config) + "\n")
        return
    shots = records.shot_index
    # the longest decimal belongs to the smallest or the largest index
    width = max(len(str(int(shots.min()))), len(str(int(shots.max()))))
    chunks = ((records[part],) for part in _chunks(len(records)))
    _write_csv_chunks((lambda data: stream.write(str(data, "utf-8")),), chunks, config, width)


def _write_csv_chunks(
    writes: Sequence[Callable[[bytes], object]],
    chunks: Iterator[tuple[SystemStream | ControlStream, ...]],
    config: ExperimentConfig,
    width: int,
) -> None:
    """Write streams whose chunks share shot indices as CSV, one ``write`` per stream.

    ``chunks`` yields at least one tuple of stream chunks, one per stream,
    such as the (system, control) chunks of :func:`_sample`; every shot
    index has at most ``width`` characters.  Each ``write`` gets the
    header line and the column line, then the bytes of each block of
    ``_ROW_BLOCK`` lines, in a buffer that the next block reuses.
    """
    first = next(chunks)
    header = metadata_header(config) + "\n"
    checks, renderers = [], []
    for write, records in zip(writes, first):
        columns, check, render = _csv_renderer(records, width)
        write((header + columns).encode("utf-8"))
        checks.append(check)
        renderers.append(render)
    chunks = itertools.chain([first], chunks)
    del first
    for parts in chunks:
        for check, records in zip(checks, parts):
            check(records)
        shots = parts[0].shot_index
        for start in range(0, len(shots), _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            # the streams of a chunk share its shot indices, so their digits too
            digits, lengths = _decimal_bytes(shots[rows], width)
            for write, render, records in zip(writes, renderers, parts):
                write(render(records, rows, digits, lengths))
        del parts, records, shots  # hold no chunk while the next is drawn
