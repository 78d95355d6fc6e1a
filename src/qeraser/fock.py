"""Second-quantized creation-operator algebra for the splitter experiments.

The two interfering particles enter a 50/50 splitter through input ports
``a`` and ``b`` and are detected at output ports ``A`` and ``B``; a third
particle sits in the side port ``c`` and is never routed through the
splitter.  Each port carries a spin-1/2 label, so the mode alphabet is
{a, b, A, B, c} x {up, down}.

States are polynomials in creation operators applied to the vacuum.  The
exchange statistics enter only through the canonical ordering rules:

* bosons      commute; a doubly occupied mode contributes the usual
              sqrt(n!) normalization to the basis-state norm,
* fermions    anticommute; reordering tracks the transposition parity and
              a repeated mode annihilates the term,
* distinguishable particles carry an explicit particle label; operators
              belonging to different labels simply commute and no
              (anti)symmetrization is applied, which reproduces
              first-quantized propagation of labeled particles.

Monomials are kept in canonical order (port-major, spin-minor, then
label), so equal-state terms always merge.
"""

from __future__ import annotations

import math
from enum import Enum

from . import _numpy as np
from ._record import Record
from .qubits import _control_amplitudes

__all__ = [
    "Statistics",
    "Mode",
    "FockMonomial",
    "FockPolynomial",
    "canonicalize",
    "beam_splitter_substitute",
    "event_probability",
    "hom_input_state",
    "PORTS",
    "SPINS",
    "DETECTION_PATTERNS",
]

PORTS = ("a", "b", "A", "B", "c")
SPINS = ("up", "down")
INPUT_PORTS = ("a", "b")
OUTPUT_PORTS = ("A", "B")
CONTROL_PORT = "c"
DETECTION_PATTERNS = ("AB", "AA", "BB")

_PORT_RANK = {port: rank for rank, port in enumerate(PORTS)}
_SPIN_RANK = {spin: rank for rank, spin in enumerate(SPINS)}


class Statistics(str, Enum):
    BOSON = "boson"
    FERMION = "fermion"
    DISTINGUISHABLE = "distinguishable"


class Mode(Record):
    """One creation-operator mode: an output/input port plus a spin."""

    port: str
    spin: str

    def __post_init__(self) -> None:
        if self.port not in _PORT_RANK:
            raise ValueError(f"unknown port {self.port!r}")
        if self.spin not in _SPIN_RANK:
            raise ValueError(f"unknown spin {self.spin!r}")

    def rank(self) -> tuple[int, int]:
        return (_PORT_RANK[self.port], _SPIN_RANK[self.spin])

    def __str__(self) -> str:
        return f"{self.port}_{self.spin}"


class FockMonomial(Record):
    """Product of creation operators with a complex coefficient.

    ``labels`` attaches a particle identity to each factor and is used
    only with distinguishable statistics.
    """

    factors: tuple[Mode, ...]
    coefficient: complex
    labels: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.labels is not None and len(self.labels) != len(self.factors):
            raise ValueError("labels must align with factors")


def _sort_rank(mode: Mode, label: int | None) -> tuple[int, int, int]:
    return (*mode.rank(), -1 if label is None else label)


def canonicalize(monomial: FockMonomial, statistics: Statistics) -> FockMonomial:
    """Reorder the factors into canonical order.

    Bosonic factors commute freely.  Fermionic reordering multiplies the
    coefficient by the transposition parity, and a repeated fermionic mode
    collapses the coefficient to zero (Pauli exclusion).  Labeled factors
    (distinguishable statistics) commute and sort by (mode, label).
    """
    statistics = Statistics(statistics)
    if statistics is Statistics.DISTINGUISHABLE:
        if monomial.labels is None and monomial.factors:
            raise ValueError("distinguishable monomials need particle labels")
    elif monomial.labels is not None:
        raise ValueError(f"particle labels are invalid for {statistics.value} factors")

    labels = monomial.labels or (None,) * len(monomial.factors)
    pairs = list(zip(monomial.factors, labels))
    swaps = 0
    # insertion sort; registers stay tiny so the quadratic cost is irrelevant
    for i in range(1, len(pairs)):
        j = i
        while j > 0 and _sort_rank(*pairs[j - 1]) > _sort_rank(*pairs[j]):
            pairs[j - 1], pairs[j] = pairs[j], pairs[j - 1]
            swaps += 1
            j -= 1

    coefficient = complex(monomial.coefficient)
    if statistics is Statistics.FERMION:
        if swaps % 2:
            coefficient = -coefficient
        for first, second in zip(pairs, pairs[1:]):
            if first[0] == second[0]:
                coefficient = 0.0
                break

    factors = tuple(mode for mode, _ in pairs)
    sorted_labels = tuple(label for _, label in pairs)
    if monomial.labels is None:
        return FockMonomial(factors, coefficient)
    return FockMonomial(factors, coefficient, sorted_labels)


def _term_key(monomial: FockMonomial) -> tuple:
    labels = monomial.labels or (None,) * len(monomial.factors)
    return tuple(zip(monomial.factors, labels))


def _basis_norm_squared(key: tuple, statistics: Statistics) -> float:
    """Squared norm of the canonical basis state key applied to the vacuum."""
    if statistics is Statistics.FERMION:
        return 1.0
    counts: dict = {}
    for entry in key:
        # distinguishable particles are distinct species: count (mode, label)
        counter_key = entry if statistics is Statistics.DISTINGUISHABLE else entry[0]
        counts[counter_key] = counts.get(counter_key, 0) + 1
    weight = 1.0
    for count in counts.values():
        weight *= math.factorial(count)
    return weight


class FockPolynomial:
    """Linear combination of canonical creation-operator monomials."""

    def __init__(self, statistics: Statistics) -> None:
        self.statistics = Statistics(statistics)
        self._terms: dict[tuple, complex] = {}

    @classmethod
    def from_monomials(
        cls, monomials: list[FockMonomial], statistics: Statistics
    ) -> "FockPolynomial":
        poly = cls(statistics)
        for monomial in monomials:
            poly._add(canonicalize(monomial, poly.statistics))
        poly._prune()
        return poly

    def _add(self, canonical: FockMonomial) -> None:
        key = _term_key(canonical)
        self._terms[key] = self._terms.get(key, 0.0) + canonical.coefficient

    def _prune(self) -> None:
        self._terms = {k: c for k, c in self._terms.items() if c != 0.0}

    def monomials(self) -> list[FockMonomial]:
        """Canonical terms in a deterministic order."""
        out = []
        for key in sorted(self._terms, key=lambda k: [_sort_rank(m, l) for m, l in k]):
            modes = tuple(mode for mode, _ in key)
            labels = tuple(label for _, label in key)
            if all(label is None for label in labels):
                out.append(FockMonomial(modes, self._terms[key]))
            else:
                out.append(FockMonomial(modes, self._terms[key], labels))
        return out

    def coefficient(
        self, factors: tuple[Mode, ...], labels: tuple[int, ...] | None = None
    ) -> complex:
        canonical = canonicalize(FockMonomial(factors, 1.0, labels), self.statistics)
        key = _term_key(canonical)
        return canonical.coefficient * self._terms.get(key, 0.0)

    def norm_squared(self) -> float:
        total = 0.0
        for key, coeff in self._terms.items():
            total += abs(coeff) ** 2 * _basis_norm_squared(key, self.statistics)
        return total

    def ports_used(self) -> set[str]:
        return {mode.port for key in self._terms for mode, _ in key}


def _substitute(
    poly: FockPolynomial, port_map: dict[str, list[tuple[complex, str]]]
) -> FockPolynomial:
    """Replace every creation operator on a mapped port by a superposition.

    The replacement preserves spin and particle label, so the same code
    path serves all three statistics.
    """
    result = FockPolynomial(poly.statistics)
    for key, coeff in poly._terms.items():
        expansions: list[list[tuple[complex, Mode, int | None]]] = []
        for mode, label in key:
            if mode.port in port_map:
                expansions.append(
                    [
                        (weight, Mode(new_port, mode.spin), label)
                        for weight, new_port in port_map[mode.port]
                    ]
                )
            else:
                expansions.append([(1.0, mode, label)])
        # distribute the product of per-factor superpositions
        partial: list[tuple[complex, list[Mode], list[int | None]]] = [
            (coeff, [], [])
        ]
        for options in expansions:
            partial = [
                (c * w, modes + [m], labels + [l])
                for c, modes, labels in partial
                for w, m, l in options
            ]
        for c, modes, labels in partial:
            label_tuple = (
                tuple(labels) if any(l is not None for l in labels) else None
            )
            result._add(
                canonicalize(
                    FockMonomial(tuple(modes), c, label_tuple), poly.statistics
                )
            )
    result._prune()
    return result


# 50/50 splitter: each input creation operator feeds both output ports with
# the reflected path picking up the -i phase,
#   a_s -> (A_s - i B_s)/sqrt(2),   b_s -> (-i A_s + B_s)/sqrt(2).
# Which path carries -i rather than +i is a labeling choice (the mirror
# convention permutes amplitudes without changing any detection
# probability); this one is fixed package-wide.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_SPLITTER_MAP = {
    "a": [(_INV_SQRT2, "A"), (-1.0j * _INV_SQRT2, "B")],
    "b": [(-1.0j * _INV_SQRT2, "A"), (_INV_SQRT2, "B")],
}


def beam_splitter_substitute(poly: FockPolynomial) -> FockPolynomial:
    """Route the input ports a, b of a state through the 50/50 splitter.

    The side port ``c`` passes through untouched.  States already written
    in output ports are rejected: the splitter acts once.
    """
    used = poly.ports_used()
    if used & set(OUTPUT_PORTS):
        raise ValueError("state already references output ports A/B")
    return _substitute(poly, _SPLITTER_MAP)


def _split_system_control(
    key: tuple,
) -> tuple[tuple, tuple | None]:
    system = []
    control = None
    for mode, label in key:
        if mode.port == CONTROL_PORT:
            if control is not None:
                raise ValueError("state carries more than one control excitation")
            control = (mode, label)
        else:
            system.append((mode, label))
    return tuple(system), control


def event_probability(
    state: FockPolynomial,
    ports: str,
    control_outcome: int | None = None,
    control_angle: float = 0.0,
    spins: tuple[str, str] | None = None,
) -> float:
    """Born probability of a detection pattern on a post-splitter state.

    ``ports`` is one of ``AB``, ``AA``, ``BB``.  ``spins``, when given,
    fixes the spin found at each listed port (aligned with ``ports``);
    otherwise spins are summed over.  ``control_outcome`` of +1/-1
    conditions on the control analyzer result at ``control_angle``
    (0 = up/down basis, pi/2 = right/left basis); ``None`` sums over the
    control, which also covers states carrying no control particle.

    Distinct canonical monomials are orthogonal, so the probability is the
    squared coefficient times the basis-state norm, accumulated over every
    monomial compatible with the pattern.
    """
    if ports not in DETECTION_PATTERNS:
        raise ValueError(
            f"pattern must be one of {DETECTION_PATTERNS}, got {ports!r}"
        )
    if state.ports_used() & set(INPUT_PORTS):
        raise ValueError("state still references input ports; apply the splitter")
    if control_outcome not in (None, +1, -1):
        raise ValueError("control outcome must be +1 or -1")
    wanted_ports = tuple(sorted(ports))
    wanted_pattern = None
    if spins is not None:
        if len(spins) != len(ports):
            raise ValueError("spins must align with the ports pattern")
        for spin in spins:
            if spin not in SPINS:
                raise ValueError(f"unknown spin {spin!r}")
        wanted_pattern = tuple(sorted(zip(ports, spins)))

    # group coefficients of matching monomials by everything except the
    # control spin, so conditioning can superpose the two control components
    groups: dict[tuple, dict[str, complex]] = {}
    weights: dict[tuple, float] = {}
    for key, coeff in state._terms.items():
        system, control = _split_system_control(key)
        system_ports = tuple(sorted(mode.port for mode, _ in system))
        if system_ports != wanted_ports:
            continue
        if wanted_pattern is not None:
            found = tuple(sorted((mode.port, mode.spin) for mode, _ in system))
            if found != wanted_pattern:
                continue
        if control is None:
            if control_outcome is not None:
                raise ValueError(
                    "cannot condition on a control: state has no control particle"
                )
            group_key = (system, None)
            spin_slot = "none"
        else:
            group_key = (system, control[1])
            spin_slot = control[0].spin
        groups.setdefault(group_key, {})[spin_slot] = coeff
        weights[group_key] = _basis_norm_squared(key, state.statistics)

    probability = 0.0
    for group_key, by_spin in groups.items():
        weight = weights[group_key]
        if control_outcome is None:
            probability += sum(abs(c) ** 2 for c in by_spin.values()) * weight
        else:
            up, down = _control_amplitudes(control_angle)[control_outcome]
            amp = (
                np.conj(up) * by_spin.get("up", 0.0)
                + np.conj(down) * by_spin.get("down", 0.0)
            )
            probability += abs(amp) ** 2 * weight
    return float(probability)


def hom_input_state(phi: float, statistics: Statistics) -> FockPolynomial:
    """Two-particle input state with the phase-tagged control particle.

    One particle enters each input port with anticorrelated spins, and the
    control particle records which spin arrangement occurred, in its
    right/left basis:

        ( a_up b_down c_right  +  e^{i phi} a_down b_up c_left ) / sqrt(2)

    expanded here over the control's up/down components.  For
    distinguishable statistics the same state is built from labeled
    particles 0 (port a), 1 (port b) and 2 (control).
    """
    statistics = Statistics(statistics)
    phase = np.exp(1.0j * phi)
    half = 0.5
    specs = [
        (half, ("up", "down", "up")),
        (half, ("up", "down", "down")),
        (half * phase, ("down", "up", "up")),
        (-half * phase, ("down", "up", "down")),
    ]
    labels = (0, 1, 2) if statistics is Statistics.DISTINGUISHABLE else None
    monomials = [
        FockMonomial(
            (Mode("a", sa), Mode("b", sb), Mode("c", sc)),
            coefficient,
            labels,
        )
        for coefficient, (sa, sb, sc) in specs
    ]
    return FockPolynomial.from_monomials(monomials, statistics)
