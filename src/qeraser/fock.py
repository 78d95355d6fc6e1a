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

A term is a tuple of ``(port, spin, label)`` factors, where ``label`` is
the particle label of distinguishable statistics and ``None`` otherwise.
``FockPolynomial(statistics, terms)`` builds a state from
``(factors, coefficient)`` pairs and keeps each term in canonical order
(port-major, spin-minor, then label), so equal-state terms always merge.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from enum import Enum

from . import _numpy as np
from .qubits import _control_amplitudes

__all__ = [
    "Statistics",
    "FockPolynomial",
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


def _rank(factor: tuple) -> tuple[int, int, int]:
    port, spin, label = factor
    return (_PORT_RANK[port], _SPIN_RANK[spin], -1 if label is None else label)


def _checked_factor(factor: tuple, statistics: Statistics) -> tuple:
    """``(port, spin)`` or ``(port, spin, label)`` as a checked ``(port, spin, label)``."""
    port, spin, label = factor if len(factor) == 3 else (*factor, None)
    if port not in _PORT_RANK:
        raise ValueError(f"unknown port {port!r}")
    if spin not in _SPIN_RANK:
        raise ValueError(f"unknown spin {spin!r}")
    if statistics is Statistics.DISTINGUISHABLE:
        if label is None:
            raise ValueError("distinguishable factors need particle labels")
    elif label is not None:
        raise ValueError(f"particle labels are invalid for {statistics.value} factors")
    return (port, spin, label)


def _canonical(
    factors: tuple, coefficient: complex, statistics: Statistics
) -> tuple[tuple, complex]:
    """Reorder the factors into canonical order; return them and the coefficient.

    Bosonic factors commute freely.  Fermionic reordering multiplies the
    coefficient by the transposition parity, and a repeated fermionic mode
    collapses the coefficient to zero (Pauli exclusion).  Labeled factors
    (distinguishable statistics) commute and sort by (mode, label).
    """
    ranked = [(_rank(factor), factor) for factor in factors]
    swaps = 0
    # insertion sort; registers stay tiny so the quadratic cost is irrelevant
    for i in range(1, len(ranked)):
        j = i
        while j > 0 and ranked[j - 1][0] > ranked[j][0]:
            ranked[j - 1], ranked[j] = ranked[j], ranked[j - 1]
            swaps += 1
            j -= 1

    coefficient = complex(coefficient)
    if statistics is Statistics.FERMION:
        if swaps % 2:
            coefficient = -coefficient
        for first, second in zip(ranked, ranked[1:]):
            if first[1] == second[1]:
                coefficient = 0.0
                break
    return tuple(factor for _, factor in ranked), coefficient


def _basis_norm_squared(key: tuple, statistics: Statistics) -> float:
    """Squared norm of the canonical basis state key applied to the vacuum."""
    if statistics is Statistics.FERMION:
        return 1.0
    # a factor carries its label, so distinguishable particles count per species
    counts: dict = {}
    for factor in key:
        counts[factor] = counts.get(factor, 0) + 1
    weight = 1.0
    for count in counts.values():
        weight *= math.factorial(count)
    return weight


class FockPolynomial:
    """Linear combination of canonical creation-operator terms.

    ``terms`` holds ``(factors, coefficient)`` pairs; a factor is
    ``(port, spin)``, or ``(port, spin, label)`` for distinguishable
    particles.  Terms equal after canonical ordering merge.
    """

    def __init__(
        self, statistics: Statistics, terms: Iterable[tuple[tuple, complex]] = ()
    ) -> None:
        self.statistics = Statistics(statistics)
        self._terms: dict[tuple, complex] = {}
        for factors, coefficient in terms:
            checked = tuple(_checked_factor(f, self.statistics) for f in factors)
            self._add(*_canonical(checked, coefficient, self.statistics))
        self._prune()

    def _add(self, key: tuple, coefficient: complex) -> None:
        self._terms[key] = self._terms.get(key, 0.0) + coefficient

    def _prune(self) -> None:
        self._terms = {k: c for k, c in self._terms.items() if c != 0.0}

    def terms(self) -> dict[tuple, complex]:
        """``{canonical factors: coefficient}`` in canonical order."""
        order = sorted(self._terms, key=lambda key: [_rank(f) for f in key])
        return {key: self._terms[key] for key in order}

    def norm_squared(self) -> float:
        total = 0.0
        for key, coeff in self._terms.items():
            total += abs(coeff) ** 2 * _basis_norm_squared(key, self.statistics)
        return total

    def ports_used(self) -> set[str]:
        return {port for key in self._terms for port, _, _ in key}


def _substitute(
    poly: FockPolynomial, port_map: dict[str, list[tuple[complex, str]]]
) -> FockPolynomial:
    """Replace every creation operator on a mapped port by a superposition.

    The replacement preserves spin and particle label, so the same code
    path serves all three statistics.
    """
    result = FockPolynomial(poly.statistics)
    for key, coeff in poly._terms.items():
        expansions: list[list[tuple[complex, tuple]]] = []
        for port, spin, label in key:
            if port in port_map:
                expansions.append(
                    [(weight, (new_port, spin, label)) for weight, new_port in port_map[port]]
                )
            else:
                expansions.append([(1.0, (port, spin, label))])
        # distribute the product of per-factor superpositions
        partial: list[tuple[complex, tuple]] = [(coeff, ())]
        for options in expansions:
            partial = [
                (c * w, factors + (factor,))
                for c, factors in partial
                for w, factor in options
            ]
        for c, factors in partial:
            result._add(*_canonical(factors, c, poly.statistics))
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
    for factor in key:
        if factor[0] == CONTROL_PORT:
            if control is not None:
                raise ValueError("state carries more than one control excitation")
            control = factor
        else:
            system.append(factor)
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

    Distinct canonical terms are orthogonal, so the probability is the
    squared coefficient times the basis-state norm, accumulated over every
    term compatible with the pattern.
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

    # group coefficients of matching terms by everything except the
    # control spin, so conditioning can superpose the two control components
    groups: dict[tuple, dict[str, complex]] = {}
    weights: dict[tuple, float] = {}
    for key, coeff in state._terms.items():
        system, control = _split_system_control(key)
        system_ports = tuple(sorted(port for port, _, _ in system))
        if system_ports != wanted_ports:
            continue
        if wanted_pattern is not None:
            found = tuple(sorted((port, spin) for port, spin, _ in system))
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
            _, spin_slot, control_label = control
            group_key = (system, control_label)
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
    ports = (*INPUT_PORTS, CONTROL_PORT)
    labels = (0, 1, 2) if statistics is Statistics.DISTINGUISHABLE else (None,) * 3
    terms = [(tuple(zip(ports, spins, labels)), coefficient) for coefficient, spins in specs]
    return FockPolynomial(statistics, terms)
