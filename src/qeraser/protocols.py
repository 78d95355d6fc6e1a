"""The three delayed-choice experiment pipelines.

Each experiment produces statistics of a *system* that was measured first,
conditioned on the outcome of a *control* particle measured later.  The
module computes

* conditional coincidence tables behind the two-particle splitter
  (:func:`hom_table`),
* conditional correlation tables and CHSH values for a spin pair
  (:func:`chsh_table`, :func:`chsh_value`, :func:`optimal_chsh_angles`),
* conditional parity fringes and the phase sensitivity of an entangled
  interferometer register (:func:`parity_expectation`,
  :func:`phase_sensitivity`).

Tables are laid out with one row per system outcome and the three columns
``C=up`` (control found up), ``C=down`` and ``C=?`` (control ignored).
Entries are joint probabilities: each conditioned column sums to 1/2 and
the ``C=?`` column is the sum of the other two.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Iterable

from . import _numpy as np
from . import fock
from ._record import Record
from .fock import Statistics, _control_amplitudes

__all__ = [
    "ProbabilityTable",
    "ChshSettings",
    "MetrologySetup",
    "CONDITIONS",
    "TABLE_COLUMNS",
    "HOM_OUTCOMES",
    "CHSH_OUTCOMES",
    "hom_table",
    "chsh_table",
    "chsh_value",
    "conditional_correlator",
    "optimal_chsh_angles",
    "parity_expectation",
    "parity_branch_statistics",
    "phase_sensitivity",
]

CONDITIONS = ("up", "down", "?")
TABLE_COLUMNS = ("C=up", "C=down", "C=?")
HOM_OUTCOMES = fock.DETECTION_PATTERNS  # ("AB", "AA", "BB")
# joint analyzer outcomes (A result, B result), d = -1, u = +1
CHSH_OUTCOMES = ("dd", "du", "ud", "uu")
_OUTCOME_SIGN = {"d": -1, "u": +1}
# setting pairs (a index, b index) in a-major order, the order of a chsh
# run's sampling rows, and their signs in S = E00 + E01 + E10 - E11
_CHSH_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
_CHSH_SIGNS = (1, 1, 1, -1)

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

# control readout angle that erases which-way information, per experiment:
# the analytic tables read the control there, and a classical mixture mixes
# the two branches it heralds
_ERASING_ANGLE = {"hom": 0.0, "chsh": 0.0, "metrology": math.pi / 2}


class ProbabilityTable(Record):
    """Joint outcome probabilities, rows = system outcomes, columns = control."""

    row_labels: tuple[str, ...]
    column_labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.shape != (len(self.row_labels), len(self.column_labels)):
            raise ValueError("table shape does not match labels")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def value(self, row: str, column: str) -> float:
        return float(
            self.values[self.row_labels.index(row), self.column_labels.index(column)]
        )

    def column(self, column: str) -> np.ndarray:
        return self.values[:, self.column_labels.index(column)].copy()

    def validate_conditional(self, tol: float = 1e-12) -> None:
        """Check the joint-table structure for the standard three columns."""
        if self.column_labels != TABLE_COLUMNS:
            raise ValueError(f"not a conditional table: columns {self.column_labels}")
        up, down, both = (self.column(c) for c in TABLE_COLUMNS)
        if abs(up.sum() - 0.5) > tol or abs(down.sum() - 0.5) > tol:
            raise ValueError("conditioned columns must each sum to 1/2")
        if np.abs(up + down - both).max() > tol:
            raise ValueError("C=? column must equal the sum of the conditioned ones")
        if abs(both.sum() - 1.0) > tol:
            raise ValueError("joint probabilities must sum to 1")

    def to_csv(self) -> str:
        lines = ["outcome," + ",".join(self.column_labels)]
        for label, row in zip(self.row_labels, self.values):
            lines.append(label + "," + ",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        width = max(len(label) for label in self.row_labels + ("outcome",)) + 2
        header = "outcome".ljust(width) + "".join(
            c.rjust(12) for c in self.column_labels
        )
        lines = [header]
        for label, row in zip(self.row_labels, self.values):
            lines.append(
                label.ljust(width) + "".join(f"{float(v):12.6f}" for v in row)
            )
        return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=64)
def _routed_hom_state(phi: float, statistics: Statistics) -> fock.FockPolynomial:
    """The hom input state pushed through the splitter, once per (phi, statistics).

    The routed state does not depend on the control readout angle, so the
    table, a sampled run's plan and its summary's reference share it.
    Callers only read it.  The two floats that compare equal, 0.0 and
    -0.0, route to the same bits.
    """
    return fock.beam_splitter_substitute(fock.hom_input_state(phi, statistics))


def _hom_columns(phi: float, statistics: Statistics | str, control_angle: float) -> np.ndarray:
    """(patterns, 3) joint probabilities with the control read at ``control_angle``.

    Rows follow ``HOM_OUTCOMES`` and columns ``TABLE_COLUMNS``: the control
    read +1, read -1, and their sum, which no control angle changes.  The
    one route to a hom table, analytic or sampled.
    """
    state = _routed_hom_state(float(phi), Statistics(statistics))
    up, down = (
        np.array([fock.event_probability(state, ports, c, control_angle) for ports in HOM_OUTCOMES])
        for c in (+1, -1)
    )
    return np.column_stack([up, down, up + down])


def hom_table(phi: float, statistics: Statistics | str) -> ProbabilityTable:
    """Coincidence table behind the splitter, conditioned on the control spin.

    Rows are the detection patterns AB (one particle per output port), AA
    and BB (both in one port); spins at the detectors are summed over.
    The table is derived by pushing the input state through the operator
    substitution of the splitter, never from a closed-form shortcut.
    """
    values = _hom_columns(phi, statistics, _ERASING_ANGLE["hom"])
    return ProbabilityTable(HOM_OUTCOMES, TABLE_COLUMNS, values)


class ChshSettings(Record):
    """Two analyzer angles per side; stored reduced into [0, 2pi)."""

    theta_a0: float
    theta_a1: float
    theta_b0: float
    theta_b1: float

    def __post_init__(self) -> None:
        for name in ("theta_a0", "theta_a1", "theta_b0", "theta_b1"):
            angle = float(getattr(self, name))
            if not math.isfinite(angle):
                raise ValueError(f"{name} must be finite")
            reduced = angle % (2.0 * math.pi)
            # a negative angle nearer 0 than half an ulp of 2pi reduces to 2pi itself
            object.__setattr__(self, name, reduced if reduced < 2.0 * math.pi else 0.0)

    def pair(self, a_index: int, b_index: int) -> tuple[float, float]:
        return (
            (self.theta_a0, self.theta_a1)[a_index],
            (self.theta_b0, self.theta_b1)[b_index],
        )


def _chsh_columns(
    theta_a: float, theta_b: float, phi: float, control_angle: float
) -> list[tuple[float, float, float]]:
    """(up, down, up + down) joint probabilities per outcome, control read at ``control_angle``.

    Rows follow ``CHSH_OUTCOMES``: the one route to a chsh table, analytic
    or sampled.  Read at angle a, the control leaves the pair in
    cos(a/2)|pair+> + sin(a/2)|pair-> on +1 and -sin(a/2)|pair+> +
    cos(a/2)|pair-> on -1, each with weight 1/2.  Since |pair+-> correlate
    as +-E(theta_a, theta_b) (:func:`optimal_chsh_angles`) with flat marginals
    and no real cross term, outcomes s, t of A, B and k of the control have
    p(s, t, k) = (1 + k s t cos(a) cos(theta_a - theta_b + phi)) / 8.
    Plain ``math``: no array or BLAS kernel sets the bits.  ``qeraser
    verify`` holds it to the dense route (``chsh-dense-route``).
    """
    correlation = math.cos(control_angle) * math.cos(theta_a - theta_b + phi)
    rows = []
    for s, t in CHSH_OUTCOMES:
        product = _OUTCOME_SIGN[s] * _OUTCOME_SIGN[t] * correlation
        up, down = (1.0 + product) / 8.0, (1.0 - product) / 8.0
        rows.append((up, down, up + down))
    return rows


def chsh_table(theta_a: float, theta_b: float, phi: float) -> ProbabilityTable:
    """Joint analyzer-outcome probabilities for one pair of settings.

    Both spins of the pair state are measured along equatorial analyzer
    axes while the control is read in the up/down basis.  Rows order the
    (A, B) outcomes as dd, du, ud, uu.
    """
    values = _chsh_columns(theta_a, theta_b, phi, _ERASING_ANGLE["chsh"])
    return ProbabilityTable(CHSH_OUTCOMES, TABLE_COLUMNS, values)


def _chsh_correlators(
    theta_a: float, theta_b: float, phi: float, control_angle: float
) -> tuple[float, ...]:
    """C=up, C=down and unjoined <A x B> of one setting pair, control read at ``control_angle``.

    Each column of :func:`_chsh_columns` is summed with the outcome signs,
    by ``math.fsum`` so no BLAS call or Python version sets the bits, and
    divided by its weight: 1/2 per control branch at every readout, 1 unjoined.
    """
    signs = [_OUTCOME_SIGN[a] * _OUTCOME_SIGN[b] for a, b in CHSH_OUTCOMES]
    columns = zip(*_chsh_columns(theta_a, theta_b, phi, control_angle))
    return tuple(math.fsum(map(operator.mul, signs, c)) / math.fsum(c) for c in columns)


def _chsh_combination(correlators: Iterable[float]) -> float:
    """Signed S of one set's correlators in ``_CHSH_PAIRS`` order, summed left to right."""
    return functools.reduce(operator.add, map(operator.mul, _CHSH_SIGNS, correlators), 0.0)


def conditional_correlator(theta_a: float, theta_b: float, phi: float, condition: str) -> float:
    """<analyzer_a x analyzer_b> on the ensemble selected by the control."""
    if condition not in CONDITIONS:
        raise ValueError(f"condition must be one of {CONDITIONS}")
    column = CONDITIONS.index(condition)  # the order of TABLE_COLUMNS
    return _chsh_correlators(theta_a, theta_b, phi, _ERASING_ANGLE["chsh"])[column]


def chsh_value(settings: ChshSettings, phi: float, condition: str) -> float:
    """CHSH combination |E00 + E01 + E10 - E11| on a conditioned ensemble.

    ``condition`` selects the control outcome the pair ensemble is joined
    on: ``"up"``, ``"down"``, or ``"?"`` for the unconditioned ensemble,
    whose correlators all vanish.
    """
    pairs = (settings.pair(*p) for p in _CHSH_PAIRS)
    return abs(_chsh_combination(conditional_correlator(*pair, phi, condition) for pair in pairs))


def optimal_chsh_angles(phi: float) -> ChshSettings:
    """Analyzer settings maximizing the CHSH value on both control branches.

    With n(theta) = (cos theta, sin theta), E(a, b) = n(a)^T T n(b) for
    the 2x2 block T = <P_i x P_j>, P in (sigma_x, -sigma_y), of the C=up
    pair state ``bell_relative_state(phi, +1)`` = |pair+> =
    (|up down> + e^{i phi} |down up>)/sqrt(2).  Its only nonzero
    amplitudes are the swapped pair, so <sigma_x sigma_x> = <sigma_y
    sigma_y> = Re e^{i phi} = cos phi and <sigma_x sigma_y> =
    -<sigma_y sigma_x> = -Im e^{i phi} = -sin phi, which makes T the
    rotation [[cos phi, sin phi], [-sin phi, cos phi]] and
    E(a, b) = cos(a - b + phi).  Both singular values of T are 1, so the
    optimum (Horodecki et al., Phys. Lett. A 200, 340 (1995)) is
    degenerate and phi only relabels it: with alpha_i = a_i + phi = 0 and
    pi/2, S = E00 + E01 + E10 - E11 = sqrt(2) (cos(b0 - pi/4) +
    cos(b1 + pi/4)), whose extreme -2 sqrt(2) sits at b0 = 5pi/4 and
    b1 = 3pi/4.  So a0 = -phi, a1 = pi/2 - phi, reduced into [0, 2pi) by
    :class:`ChshSettings`.  The C=down block is -T, so the same settings
    reach |S| = 2 sqrt(2) there too.  phi = 0 gives
    (0, pi/2, 5pi/4, 3pi/4) bit for bit, the settings of sampled streams
    written without --angles.  The unconditioned ensemble is flat at 0
    and has no optimum.  Closed form, so no LAPACK pick of a degenerate
    SVD makes the settings depend on the machine, and no array is built.
    """
    return ChshSettings(-phi, math.pi / 2 - phi, 5 * math.pi / 4, 3 * math.pi / 4)


def _is_integer(value: object) -> bool:
    """Whether ``value`` is an int and not a bool, the values an integer field takes."""
    return isinstance(value, int) and not isinstance(value, bool)


class MetrologySetup(Record):
    """Phase-estimation run: n register spins plus one control spin.

    ``theta`` is the phase accumulated per register spin, ``phi`` the
    preparation phase of the register, and ``control_angle`` the analyzer
    rotation applied to the control before its sigma_z readout
    (0 = which-way readout, pi/2 = erasing readout in the sigma_x basis).
    """

    n: int
    theta: float
    phi: float
    control_angle: float

    def __post_init__(self) -> None:
        if not _is_integer(self.n):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if not 1 <= self.n <= 20:
            raise ValueError(f"register size {self.n} outside supported range 1..20")
        for name in ("theta", "phi", "control_angle"):
            if not math.isfinite(float(getattr(self, name))):
                raise ValueError(f"{name} must be finite")


def _exp_imaginary(argument: complex) -> complex:
    """numpy's exp of a complex with zero real part: (cos, sin) of the imaginary part."""
    return complex(math.cos(argument.imag), math.sin(argument.imag))


def parity_branch_statistics(
    setup: MetrologySetup,
) -> dict[int, tuple[float, float]]:
    """Control-outcome probabilities and conditional parity expectations.

    Returns {control_outcome: (probability, conditional <parity>)}.

    The (n+1)-spin register starts as GHZ(n+1, phi), with the control as
    the highest qubit.  The phase imprint and the control analyzer rotation
    exp(+i sigma_y control_angle / 2) never take it off the span of
    |0...0>|0> and |1...1>|1>, so the state is evolved as those two
    amplitudes: O(n) work in place of a 2**(n+1) state vector.  The
    rotation's sense makes the +1 readout at control_angle = pi/2 herald
    the branch carrying phase ``phi`` (rather than phi + pi).  The rows of
    that rotation are the readout vectors of ``qubits._control_amplitudes``;
    control outcome k leaves the register in alpha |0...0> + beta |1...1>.  Its
    parity, read the way the interferometer closes (exp(-i sigma_y pi/4)
    on every register spin, then the product of the sigma_z readouts), is
    (-1)**n 2 Re(conj(alpha) beta) / p.

    The amplitudes are Python complex numbers, combined in the order of
    numpy's scalar arithmetic on the phase shift exp(-i sigma_z theta / 2)
    and the rotation matrix, so every bit matches that route (kept as
    the oracle of the tests) without importing numpy.
    """
    scale = 1.0 / math.sqrt(2.0)
    phase = _exp_imaginary(1.0j * setup.phi)
    # numpy divides a complex by a real as a product with its reciprocal
    low, high = complex(scale, 0.0), complex(phase.real * scale, phase.imag * scale)
    shift_low, shift_high = _exp_imaginary(-0.5j * setup.theta), _exp_imaginary(0.5j * setup.theta)
    for _ in range(setup.n):
        low, high = low * shift_low, high * shift_high
    sign = (-1.0) ** setup.n
    branches: dict[int, tuple[float, float]] = {}
    for outcome, (to_low, to_high) in _control_amplitudes(setup.control_angle).items():
        alpha, beta = complex(to_low, 0.0) * low, complex(to_high, 0.0) * high
        probability = abs(alpha) ** 2 + abs(beta) ** 2
        parity = sign * 2.0 * (alpha.conjugate() * beta).real / probability
        branches[outcome] = (probability, parity)
    return branches


def parity_expectation(setup: MetrologySetup, control_outcome: int | None) -> float:
    """Parity fringe of the register, conditioned on the control readout.

    ``control_outcome`` of +1 or -1 selects the matching control branch;
    ``None`` ignores the control record entirely (the unjoined data set),
    which averages the two branches and kills the fringe.
    """
    branches = parity_branch_statistics(setup)
    if control_outcome is None:
        return sum(probability * value for probability, value in branches.values())
    if control_outcome not in (+1, -1):
        raise ValueError("control outcome must be +1, -1 or None")
    probability, value = branches[control_outcome]
    if probability < 1e-14:
        raise ValueError("conditioning on a zero-probability control branch")
    return value


def phase_sensitivity(setup: MetrologySetup) -> float:
    """Squared phase uncertainty of the eraser-conditioned parity fringe.

    Method of moments: Var(parity) / (d<parity>/d theta)^2, evaluated on
    the control +1 branch.  The parity squares to the identity, so
    Var = 1 - <parity>^2.  The derivative of the fringe
    (-1)^n cos(n theta + phi) is used in closed form; ``qeraser verify``
    cross-checks it against a finite difference of the full pipeline.  At
    a stationary fringe point (|slope| < 1e-9) the sensitivity diverges
    and ``inf`` is returned instead of a meaningless large number.
    """
    if abs(setup.control_angle - _ERASING_ANGLE["metrology"]) > 1e-9:
        raise ValueError("phase sensitivity is defined for the erasing readout")
    fringe = parity_expectation(setup, +1)
    n = setup.n
    slope = -((-1.0) ** n) * n * math.sin(n * setup.theta + setup.phi)
    if abs(slope) < 1e-9:
        return math.inf
    variance = 1.0 - fringe**2
    return variance / slope**2
