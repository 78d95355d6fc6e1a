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
        # shot indices are int64, and np.arange past 2**63 - 1 returns float64
        if not _is_integer(self.shots) or not 1 <= self.shots <= 2**63:
            raise ValueError("shots must be a positive integer at most 2**63")
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
_ROW_BLOCK = 1 << 10  # CSV lines rendered at once, into a buffer each block reuses
_PAD = 0xFF  # pads CSV line blocks; no UTF-8 text holds this byte (RFC 3629)


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


def _sample(config: ExperimentConfig) -> tuple[_Plan, Iterator[np.ndarray]]:
    """The one sampling body shared by every experiment and mode, chunk by chunk.

    Builds and checks the run's plan at once, and returns it beside an
    iterator of each chunk's intp plan codes ``row * cells + cell``, one
    per shot in shot order; chunk k covers shots ``k * _CHUNK`` up to the
    next chunk's first shot.  A chunk the consumer drops is freed before
    the next one is drawn.
    """
    plan = _plan(config)
    cumulative = _cumulative(plan.table)
    keyed = config.mode == "classical_mixture"
    paired = config.experiment == "chsh"
    cells = plan.table.shape[1]
    generator = np.random.Philox(key=config.seed)

    def drawn(part: slice) -> np.ndarray:
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
        code = np.multiply(row, cells, dtype=np.intp)
        code += _cell_indices(uniforms[-1], cumulative, row)
        return code

    return plan, map(drawn, _chunks(config.shots))


def _code_fields(config: ExperimentConfig, plan: _Plan) -> np.ndarray:
    """(3, rows * cells) int8 settings row, system outcome and control sign of each plan code.

    Quantum cells are system-major with control +1 first; a mixture's
    rows are key-major, and its key bit, +1 first, is the control.
    """
    rows, cells = plan.table.shape
    if config.mode == "quantum":
        row, outcome, down = np.indices((rows, cells // 2, 2), dtype=np.int8).reshape(3, -1)
    else:
        down, pair, outcome = np.indices((2, rows // 2, cells), dtype=np.int8).reshape(3, -1)
        row = down * (rows // 2) + pair
    return np.stack([row, outcome, 1 - 2 * down])


def run_experiment(config: ExperimentConfig) -> tuple[SystemStream, ControlStream]:
    """Sample a run, returning the system stream and the control stream.

    Each shot's joint (system, control) outcome is drawn from the exact
    joint distribution of the requested experiment; the two halves are
    then written to separate streams that share only the shot index.
    Identical (config, seed) reproduces identical streams.  The plan codes
    of :func:`_sample` are gathered into whole-run columns, in either mode.
    """
    plan, chunks = _sample(config)
    fields = _code_fields(config, plan)
    # int8 as the fields are: rows, outcomes and signs are small codes
    rows, outcome, control_outcome = (np.empty(config.shots, dtype=np.int8) for _ in fields)
    for part, codes in zip(_chunks(config.shots), chunks):
        for column, field in zip((rows, outcome, control_outcome), fields):
            column[part] = field.take(codes)
    shots = np.arange(config.shots)
    basis_angle = None if config.mode == "classical_mixture" else config.control_basis_angle
    return (
        SystemStream(shots, outcome, rows, config.experiment, plan.labels, tuple(plan.settings)),
        ControlStream(shots, control_outcome, basis_angle),
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
        return _counts_table(records.labels, _joint_counts(records).sum(axis=(0, 2))[:, None])
    control_outcome = np.asarray(control_outcome)
    if control_outcome.shape != records.outcome.shape:
        raise ValueError(f"control column covers {control_outcome.size} of {len(records)} shots")
    if not _signs_only(control_outcome):
        raise ValueError("control outcomes must be +1 or -1")
    return _counts_table(records.labels, _joint_counts(records, control_outcome).sum(axis=0))


def _joint_counts(
    records: SystemStream, control_outcome: np.ndarray | None = None
) -> np.ndarray:
    """(plan rows, outcomes, 2) shot counts of each outcome beside control +1 and -1.

    A chsh shot's plan row is its setting pair, in ``_CHSH_PAIRS`` order;
    the other experiments have one plan row.  These are the counts that
    :func:`_summed_counts` reads from plan codes.  ``control_outcome`` is
    a checked +1/-1 column, as a join's is; without it every shot counts
    as +1.  Counts of disjoint sets add up to their union's.
    """
    _check_codes(records)
    rows, outcomes = len(_CHSH_PAIRS) if records.experiment == "chsh" else 1, len(records.labels)
    pairs = [(s.get("setting_a"), s.get("setting_b")) for s in records.settings]
    plan_rows = [_CHSH_PAIRS.index(pair) if rows > 1 else 0 for pair in pairs]
    # code = (plan row * outcomes + outcome) * 2 + (control is -1), counted as intp
    codes = np.array(plan_rows, dtype=np.intp).take(records.setting_row)
    codes *= outcomes
    codes += records.outcome
    codes *= 2
    if control_outcome is not None:
        codes += control_outcome == -1
    return np.bincount(codes, minlength=2 * rows * outcomes).reshape(rows, outcomes, 2)


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
    if records.experiment != "chsh":
        raise ValueError("chsh_statistic needs chsh records")
    return _chsh_from_sums(_pair_sums(records.labels, _joint_counts(records)).sum(axis=0))


def _pair_sums(labels: Sequence[str], joint: np.ndarray) -> np.ndarray:
    """(2, 2, 4) counts and +-1 product sums of the four setting pairs.

    ``joint`` holds chsh (pair, outcome, control) counts, as
    :func:`_joint_counts` gives them.  Axis 0 is control +1, then -1;
    axis 1 holds the counts, then the product sums.  Every entry is an
    exact integer, so the sums of disjoint record sets add up to those of
    their union whatever the order.
    """
    signs = np.array([_OUTCOME_SIGN[a] * _OUTCOME_SIGN[b] for a, b in labels])
    return np.stack([joint.sum(axis=1), signs @ joint]).transpose(2, 0, 1)


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
    if tuple(records.labels) != _PARITY_ROWS:
        raise ValueError("empirical_parity needs metrology records")
    return _parity_estimate(_joint_counts(records).sum(axis=0)[:, 0])


def _parity_estimate(counts: Sequence[int]) -> tuple[float, float]:
    """Mean and standard error of a set of +-1 parities from its (+1, -1) counts.

    The mean is (n+ - n-) / n.  The error is ``std(ddof=1) / sqrt(n)`` in
    closed form: the squared deviations of the set sum to 4 n+ n- / n, and
    Python rounds the int quotient 4 n+ n- / (n (n - 1)) correctly at any
    size.  One shot reads an error of 1.0; no shot reads nan for both.
    """
    plus, minus = map(int, counts)
    n = plus + minus
    if n < 2:
        return ((plus - minus) / n, 1.0) if n else (math.nan, math.nan)
    return (plus - minus) / n, math.sqrt(4 * plus * minus / (n * (n - 1))) / math.sqrt(n)


def _summed_counts(
    config: ExperimentConfig, sample: tuple[_Plan, Iterator[np.ndarray]] | None = None
) -> np.ndarray:
    """The run's (outcomes, 2) C=up/C=down outcome counts, or its :func:`_pair_sums` (chsh).

    ``sample`` is ``_sample(config)``, drawn here when None.  Its chunks'
    summed plan-code counts, viewed as (settings row, outcome, control),
    are :func:`_joint_counts` of the run's joined streams, exactly.
    """
    plan, chunks = _sample(config) if sample is None else sample
    rows, cells = plan.table.shape
    # map, unlike a generator expression, holds no chunk while it draws the next
    counts = sum(map(functools.partial(np.bincount, minlength=rows * cells), chunks))
    if config.mode == "quantum":  # cells: system-major, control +1 first
        joint = counts.reshape(rows, cells // 2, 2)
    else:  # rows: key-major, and the key bit is the control
        joint = counts.reshape(2, rows // 2, cells).transpose(1, 2, 0)
    return _pair_sums(plan.labels, joint) if config.experiment == "chsh" else joint.sum(axis=0)


def _parity_estimates(config: ExperimentConfig) -> list[float]:
    """Mean parity and standard error of a metrology run's C=up, C=down and unjoined sets, flat.

    One pass over the chunks; the unjoined set is the sum of the labeled
    ones, and an empty set reads nan.
    """
    up, down = _summed_counts(config).T  # (+1, -1) counts per control outcome
    return [*_parity_estimate(up), *_parity_estimate(down), *_parity_estimate(up + down)]


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
def _digit_groups() -> np.ndarray:
    """The ASCII digits of the 10**4 groups 0000 .. 9999.

    Group ``g``'s four digits are the bytes of entry ``g`` of the uint32
    table.  Built once, at the first CSV line.
    """
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    table = np.empty((10,) * 4 + (4,), dtype=np.uint8)  # 40 KB, and no larger temporary
    for place in range(4):
        table[..., place] = digits.reshape((1,) * place + (10,) + (1,) * (3 - place))
    return table.reshape(10_000, 4).view(np.uint32).ravel()


def _decimal_bytes(values: np.ndarray, width: int) -> np.ndarray:
    """``str(int(v))`` of every int64 ``v`` as right-aligned uint8 rows.

    Returns a (len(values), width) matrix whose row k ends with the ASCII
    decimal of ``values[k]`` and holds ``_PAD`` before it.  ``width`` must
    fit the longest decimal.  Each group of four digits is read from the
    :func:`_digit_groups` table, and the padding is filled one column at
    a time, so a row block costs a few numpy calls per group and column.
    """
    table = _digit_groups()
    values = values.astype(np.int64, copy=False)
    low = np.minimum.reduce(values) if len(values) else 0
    # |v| overflows only at -2**63, whose uint64 view is its exact magnitude 2**63
    magnitude = values if low >= 0 else np.abs(values).view(np.uint64)
    groups = -(-width // 4)
    text = np.empty((len(values), groups), dtype=np.uint32)
    rest = magnitude
    for column in range(groups - 1, 0, -1):
        quotient = rest // 10_000
        text[:, column] = table[rest - quotient * 10_000]
        rest = quotient
    text[:, 0] = table[rest]
    text = text.view(np.uint8)[:, 4 * groups - width :]
    # column ``place`` pads magnitudes under 10**(width - 1 - place): all left of
    # the longest decimal, none right of the shortest (that of ``low`` if >= 0)
    shortest = len(str(low)) if low >= 0 else 1
    longest = len(str(np.maximum.reduce(magnitude, initial=0))) if shortest < width else width
    for place in range(width - longest):
        text[:, place] = _PAD
    for place in range(width - longest, width - shortest):
        np.copyto(text[:, place], _PAD, where=magnitude < 10 ** (width - 1 - place))
    if low < 0:  # "-" on the last padding byte, which ``width`` leaves every negative
        signed = np.flatnonzero(values < 0)
        text[signed, np.count_nonzero(text[signed] == _PAD, axis=1) - 1] = ord("-")
    return text


def _system_layout(experiment: str, labels: Sequence[str], settings: Sequence[Mapping]):
    """Column line of a system stream and the tail of each (settings row, outcome), row-major."""
    keys = sorted(settings[0])
    if any(sorted(template) != keys for template in settings):
        raise ValueError("records disagree on setting fields")
    tails = [
        ",".join(["", experiment, label, *(_format_field(template[k]) for k in keys)]) + "\n"
        for template in settings
        for label in labels
    ]
    return "shot_index,experiment,outcome," + ",".join(keys) + "\n", tails


def _control_layout(basis_angle: float | None):
    """Column line of a control stream and the line tails of +1 and -1."""
    angle = _format_field(basis_angle)
    return "shot_index,control_outcome,basis_angle\n", [f",{v:+d},{angle}\n" for v in (1, -1)]


def write_stream_csv(
    stream: IO[str], records: SystemStream | ControlStream, config: ExperimentConfig
) -> None:
    """CSV serialization with the metadata header; byte-deterministic."""
    if len(records) == 0:
        stream.write(metadata_header(config) + "\n")
        return
    if isinstance(records, SystemStream):
        _check_codes(records)
        layout = _system_layout(records.experiment, records.labels, records.settings)
        outcomes = len(records.labels)

        def codes_of(block: slice) -> np.ndarray:  # the tail of (settings row, outcome)
            return records.setting_row[block].astype(np.intp) * outcomes + records.outcome[block]

    else:
        if not _signs_only(records.outcome):
            raise ValueError("control outcomes must be +1 or -1")
        layout = _control_layout(records.basis_angle)

        def codes_of(block: slice) -> np.ndarray:  # +1 -> 0, -1 -> 1
            return (records.outcome[block] == -1).view(np.int8)

    shots = records.shot_index
    # the longest decimal belongs to the smallest or the largest index
    width = max(len(str(int(shots.min()))), len(str(int(shots.max()))))
    write = (lambda data: stream.write(str(data, "utf-8")),)
    write_block = _csv_writer(write, [layout], config, width)
    for start in range(0, len(records), _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        write_block(shots[block], codes_of(block))


def _write_csv_chunks(
    writes: Sequence[Callable[[bytes], object]],
    sample: tuple[_Plan, Iterator[np.ndarray]],
    config: ExperimentConfig,
) -> None:
    """Write the system stream, then the control stream, of ``sample``, ``_sample(config)``.

    Both streams render each chunk's plan codes through one tail per
    code: the system tail of the code's (settings row, outcome), and the
    control tail of its sign, at the index width of the run's last shot.
    """
    plan, chunks = sample
    rows, outcomes, signs = _code_fields(config, plan).tolist()
    columns, tails = _system_layout(config.experiment, plan.labels, plan.settings)
    system = columns, [tails[r * len(plan.labels) + o] for r, o in zip(rows, outcomes)]
    keyed = config.mode == "classical_mixture"
    columns, tails = _control_layout(None if keyed else config.control_basis_angle)
    control = columns, [tails[sign == -1] for sign in signs]
    write_block = _csv_writer(writes, [system, control], config, len(str(config.shots - 1)))
    start = 0
    for codes in chunks:
        for first in range(0, len(codes), _ROW_BLOCK):
            block = codes[first : first + _ROW_BLOCK]
            write_block(np.arange(start + first, start + first + len(block)), block)
        start += len(codes)
        del codes, block  # hold no chunk while the next is drawn


def _csv_writer(
    writes: Sequence[Callable[[bytes], object]],
    layouts: Sequence[tuple[str, Sequence[str]]],
    config: ExperimentConfig,
    width: int,
) -> Callable[[np.ndarray, np.ndarray], None]:
    """Write the header of streams that share shot indices; return ``write_block(shots, codes)``.

    ``writes[k]`` gets the header and the column line of ``layouts[k]``
    at once, then from each ``write_block`` the lines of at most
    ``_ROW_BLOCK`` shots, in a buffer that the next block refills.  A
    line is the shot's decimal index, of at most ``width`` characters,
    followed by ``tails[code]``.  The index digits, rendered once for
    every stream, and the tail fill one row of a uint8 matrix, padded
    with ``_PAD``; dropping every ``_PAD`` byte leaves the UTF-8 text.
    Where no row has padding, the matrix already is the text.
    """
    header = metadata_header(config) + "\n"
    streams = []
    for write, (columns, tails) in zip(writes, layouts):
        write((header + columns).encode("utf-8"))
        encoded = [tail.encode("utf-8") for tail in tails]
        # the index field, then the tail and its right padding
        templates = np.full((len(tails), width + max(map(len, encoded))), _PAD, dtype=np.uint8)
        for template, data in zip(templates, encoded):
            template[width : width + len(data)] = np.frombuffer(data, dtype=np.uint8)
        lines = np.empty((_ROW_BLOCK, templates.shape[1]), dtype=np.uint8)
        # each line's index field as one opaque item: numpy copies an item per line
        # where a (lines, width) uint8 copy loops over every byte
        fields = lines[:, :width].view(f"V{width}")
        ragged = len(set(map(len, encoded))) > 1
        streams.append((write, templates, lines, fields, ragged))

    def write_block(shots: np.ndarray, codes: np.ndarray) -> None:
        digits = _decimal_bytes(shots, width)
        short = np.maximum.reduce(digits[:, 0]) == _PAD  # padding starts in column 0
        for write, templates, lines, fields, ragged in streams:
            # mode="clip" fills ``out`` itself; the codes are in range anyway
            text = templates.take(codes, axis=0, out=lines[: len(codes)], mode="clip")
            fields[: len(codes)] = digits.view(fields.dtype)
            write(text[text != _PAD] if short or ragged else text.reshape(-1))

    return write_block
