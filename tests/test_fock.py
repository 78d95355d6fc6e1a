"""Unit tests for the creation-operator algebra and splitter pipeline.

The splitter expansions asserted here were expanded by hand from
    a_s -> (A_s - i B_s)/sqrt(2),   b_s -> (-i A_s + B_s)/sqrt(2)
and are kept as literal coefficient dictionaries so a regression in the
canonical ordering or sign bookkeeping cannot hide behind the same code
that produced it.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qeraser.fock import (
    DETECTION_PATTERNS,
    PORTS,
    SPINS,
    FockPolynomial,
    Statistics,
    beam_splitter_substitute,
    event_probability,
    hom_input_state,
)


def modes(*names, labels=None):
    """Shorthand: modes("A_up", "B_down") -> (("A", "up"), ("B", "down")).

    With ``labels`` each factor is ``(port, spin, label)``.
    """
    out = [tuple(name.split("_")) for name in names]
    if labels is not None:
        out = [(*factor, label) for factor, label in zip(out, labels)]
    return tuple(out)


def key(*names, labels=None):
    """A canonical term key: every factor carries its label, ``None`` if unlabeled."""
    return modes(*names, labels=labels or (None,) * len(names))


def poly_terms(poly):
    """Polynomial contents as {(mode names): coefficient} for literal compares."""
    return {
        tuple(f"{port}_{spin}" for port, spin, _ in factors): coefficient
        for factors, coefficient in poly.terms().items()
    }


def permutation_parity(perm):
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1.0 if inversions % 2 else 1.0


ALPHABET = [(port, spin) for port in PORTS for spin in SPINS]


class TestMode:
    def test_rejects_unknown_port(self):
        with pytest.raises(ValueError, match="unknown port"):
            FockPolynomial(Statistics.BOSON, [(modes("x_up"), 1.0)])

    def test_rejects_unknown_spin(self):
        with pytest.raises(ValueError, match="unknown spin"):
            FockPolynomial(Statistics.BOSON, [(modes("a_sideways"), 1.0)])

    def test_rank_orders_port_major_spin_minor(self):
        poly = FockPolynomial(Statistics.BOSON, [(tuple(reversed(ALPHABET)), 1.0)])
        assert list(poly.terms()) == [tuple((*mode, None) for mode in ALPHABET)]


class TestCanonicalize:
    def test_boson_reorder_keeps_coefficient(self):
        poly = FockPolynomial(Statistics.BOSON, [(modes("B_up", "a_down", "A_up"), 2.0 - 1.0j)])
        assert poly.terms() == {key("a_down", "A_up", "B_up"): 2.0 - 1.0j}

    def test_fermion_single_swap_flips_sign(self):
        poly = FockPolynomial(Statistics.FERMION, [(modes("B_up", "A_up"), 1.0)])
        assert poly.terms() == {key("A_up", "B_up"): -1.0}

    def test_fermion_repeated_mode_annihilates(self):
        poly = FockPolynomial(Statistics.FERMION, [(modes("A_up", "B_down", "A_up"), 3.0)])
        assert poly.terms() == {}

    def test_boson_repeated_mode_survives(self):
        poly = FockPolynomial(Statistics.BOSON, [(modes("A_up", "A_up"), 1.0)])
        assert poly.terms() == {key("A_up", "A_up"): 1.0}

    def test_distinguishable_requires_labels(self):
        for factors in (modes("a_up", "b_down"), modes("a_up", "b_down", labels=(0, None))):
            with pytest.raises(ValueError, match="need particle labels"):
                FockPolynomial(Statistics.DISTINGUISHABLE, [(factors, 1.0)])

    def test_labels_invalid_for_identical_particles(self):
        factors = modes("a_up", "b_down", labels=(0, 1))
        for statistics in (Statistics.BOSON, Statistics.FERMION):
            with pytest.raises(ValueError, match="labels are invalid"):
                FockPolynomial(statistics, [(factors, 1.0)])

    def test_unlabeled_factor_may_spell_out_none(self):
        poly = FockPolynomial(Statistics.FERMION, [(key("B_up", "A_up"), 1.0)])
        assert poly.terms() == {key("A_up", "B_up"): -1.0}

    def test_labels_sorted_with_their_factors(self):
        poly = FockPolynomial(
            Statistics.DISTINGUISHABLE, [(modes("B_up", "A_up", labels=(1, 0)), 1.0)]
        )
        assert poly.terms() == {key("A_up", "B_up", labels=(0, 1)): 1.0}

    def test_same_mode_sorts_by_label(self):
        poly = FockPolynomial(
            Statistics.DISTINGUISHABLE, [(modes("A_up", "A_up", labels=(1, 0)), 1.0)]
        )
        assert poly.terms() == {key("A_up", "A_up", labels=(0, 1)): 1.0}

    def test_accepts_statistics_by_value(self):
        poly = FockPolynomial("fermion", [(modes("B_up", "A_up"), 1.0)])
        assert poly.statistics is Statistics.FERMION
        assert poly.terms() == {key("A_up", "B_up"): -1.0}

    @given(
        indices=st.lists(st.integers(0, 9), min_size=2, max_size=5, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_boson_shuffle_invariance(self, indices, seed):
        base = [ALPHABET[i] for i in sorted(indices)]
        perm = np.random.default_rng(seed).permutation(len(base))
        shuffled = tuple(base[i] for i in perm)
        poly = FockPolynomial(Statistics.BOSON, [(shuffled, 1.0)])
        assert poly.terms() == {tuple((*mode, None) for mode in base): 1.0}

    @given(
        indices=st.lists(st.integers(0, 9), min_size=2, max_size=5, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fermion_shuffle_tracks_parity(self, indices, seed):
        # distinct modes, so the sign is exactly the permutation parity
        base = [ALPHABET[i] for i in sorted(indices)]
        perm = list(np.random.default_rng(seed).permutation(len(base)))
        shuffled = tuple(base[i] for i in perm)
        poly = FockPolynomial(Statistics.FERMION, [(shuffled, 1.0)])
        assert poly.terms() == {
            tuple((*mode, None) for mode in base): permutation_parity(perm)
        }


class TestPolynomial:
    def test_equal_terms_merge(self):
        poly = FockPolynomial(
            Statistics.BOSON,
            [(modes("a_up", "b_down"), 0.25), (modes("b_down", "a_up"), 0.75)],
        )
        assert poly_terms(poly) == {("a_up", "b_down"): 1.0}

    def test_cancelling_terms_prune(self):
        poly = FockPolynomial(
            Statistics.BOSON,
            [(modes("a_up", "b_up"), 1.0), (modes("b_up", "a_up"), -1.0)],
        )
        assert poly_terms(poly) == {}

    def test_fermion_merge_respects_reorder_sign(self):
        poly = FockPolynomial(
            Statistics.FERMION,
            [(modes("a_up", "b_up"), 1.0), (modes("b_up", "a_up"), 1.0)],
        )
        assert poly_terms(poly) == {}

    def test_terms_come_in_canonical_order(self):
        poly = FockPolynomial(
            Statistics.BOSON,
            [(modes("B_up"), 1.0), (modes("A_down"), 2.0), (modes("A_up", "B_up"), 3.0)],
        )
        assert list(poly_terms(poly)) == [("A_up", "B_up"), ("A_down",), ("B_up",)]

    def test_norm_squared_counts_double_occupation(self):
        # |c|^2 * 2! for a doubly occupied bosonic mode
        amp = 1.0 / math.sqrt(2.0)
        poly = FockPolynomial(Statistics.BOSON, [(modes("A_up", "A_up"), amp)])
        assert poly.norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_norm_squared_distinguishable_labels_are_species(self):
        same_mode = FockPolynomial(
            Statistics.DISTINGUISHABLE, [(modes("A_up", "A_up", labels=(0, 1)), 1.0)]
        )
        assert same_mode.norm_squared() == pytest.approx(1.0, abs=1e-12)
        same_label = FockPolynomial(
            Statistics.DISTINGUISHABLE, [(modes("A_up", "A_up", labels=(0, 0)), 1.0)]
        )
        assert same_label.norm_squared() == pytest.approx(2.0, abs=1e-12)

    def test_ports_used(self):
        poly = FockPolynomial(Statistics.BOSON, [(modes("a_up", "c_down"), 1.0)])
        assert poly.ports_used() == {"a", "c"}


# Hand-expanded splitter output for the cross-spin input a_up b_down.
# Signs follow from -i on each reflection plus, for fermions, one
# anticommutation when B_up A_down is put back into canonical order.
BOSON_CROSS_SPIN = {
    ("A_up", "A_down"): -0.5j,
    ("A_up", "B_down"): 0.5,
    ("A_down", "B_up"): -0.5,
    ("B_up", "B_down"): -0.5j,
}
FERMION_CROSS_SPIN = {
    ("A_up", "A_down"): -0.5j,
    ("A_up", "B_down"): 0.5,
    ("A_down", "B_up"): 0.5,
    ("B_up", "B_down"): -0.5j,
}
# Same-spin input a_up b_up: bosons bunch (the coincidence term cancels),
# fermions antibunch (the bunched terms vanish by exclusion).
BOSON_SAME_SPIN = {
    ("A_up", "A_up"): -0.5j,
    ("B_up", "B_up"): -0.5j,
}
FERMION_SAME_SPIN = {
    ("A_up", "B_up"): 1.0,
}


class TestBeamSplitter:
    def _routed(self, spins, statistics):
        sa, sb = spins
        poly = FockPolynomial(statistics, [((("a", sa), ("b", sb)), 1.0)])
        return beam_splitter_substitute(poly)

    def test_boson_cross_spin_expansion(self):
        out = self._routed(("up", "down"), Statistics.BOSON)
        assert poly_terms(out) == pytest.approx(BOSON_CROSS_SPIN)
        assert list(poly_terms(out)) == list(BOSON_CROSS_SPIN)

    def test_fermion_cross_spin_expansion(self):
        out = self._routed(("up", "down"), Statistics.FERMION)
        assert poly_terms(out) == pytest.approx(FERMION_CROSS_SPIN)

    def test_boson_same_spin_bunches(self):
        out = self._routed(("up", "up"), Statistics.BOSON)
        assert poly_terms(out) == pytest.approx(BOSON_SAME_SPIN)

    def test_fermion_same_spin_antibunches(self):
        out = self._routed(("up", "up"), Statistics.FERMION)
        assert poly_terms(out) == pytest.approx(FERMION_SAME_SPIN)

    def test_side_port_passes_through(self):
        poly = FockPolynomial(Statistics.BOSON, [(modes("a_up", "c_down"), 1.0)])
        routed = beam_splitter_substitute(poly)
        assert routed.ports_used() == {"A", "B", "c"}
        assert poly_terms(routed)[("A_up", "c_down")] == pytest.approx(
            1.0 / math.sqrt(2.0)
        )

    def test_rejects_output_port_input(self):
        poly = FockPolynomial(Statistics.BOSON, [(modes("A_up"), 1.0)])
        with pytest.raises(ValueError, match="already references output ports"):
            beam_splitter_substitute(poly)

    @pytest.mark.parametrize(
        "statistics",
        [Statistics.BOSON, Statistics.FERMION, Statistics.DISTINGUISHABLE],
    )
    def test_norm_preserved(self, statistics):
        labels = (0, 1, 2) if statistics is Statistics.DISTINGUISHABLE else None
        poly = FockPolynomial(
            statistics,
            [
                (modes("a_up", "b_down", "c_up", labels=labels), 0.5),
                (modes("a_down", "b_up", "c_down", labels=labels), 0.5j),
                (modes("a_up", "b_up", "c_up", labels=labels), -0.5),
                (modes("a_down", "b_down", "c_down", labels=labels), 0.5),
            ],
        )
        routed = beam_splitter_substitute(poly)
        assert routed.norm_squared() == pytest.approx(poly.norm_squared(), abs=1e-12)


class TestEventProbability:
    def _same_spin_routed(self, statistics):
        poly = FockPolynomial(statistics, [(modes("a_up", "b_up"), 1.0)])
        return beam_splitter_substitute(poly)

    def test_boson_same_spin_signature(self):
        routed = self._same_spin_routed(Statistics.BOSON)
        probabilities = [event_probability(routed, p) for p in DETECTION_PATTERNS]
        assert probabilities == pytest.approx([0.0, 0.5, 0.5], abs=1e-12)

    def test_fermion_same_spin_signature(self):
        routed = self._same_spin_routed(Statistics.FERMION)
        probabilities = [event_probability(routed, p) for p in DETECTION_PATTERNS]
        assert probabilities == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)

    def test_spin_resolved_pattern(self):
        routed = beam_splitter_substitute(
            FockPolynomial(Statistics.BOSON, [(modes("a_up", "b_down"), 1.0)])
        )
        both = event_probability(routed, "AB")
        up_down = event_probability(routed, "AB", spins=("up", "down"))
        down_up = event_probability(routed, "AB", spins=("down", "up"))
        assert up_down + down_up == pytest.approx(both, abs=1e-12)
        assert up_down == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize(
        "statistics",
        [Statistics.BOSON, Statistics.FERMION, Statistics.DISTINGUISHABLE],
    )
    @pytest.mark.parametrize("phi", [0.0, 0.9, math.pi / 2, 2.0])
    def test_patterns_sum_to_one(self, statistics, phi):
        routed = beam_splitter_substitute(hom_input_state(phi, statistics))
        total = sum(event_probability(routed, p) for p in DETECTION_PATTERNS)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_conditional_outcomes_partition_the_marginal(self):
        routed = beam_splitter_substitute(hom_input_state(0.7, Statistics.BOSON))
        for angle in (0.0, math.pi / 2, 1.1):
            for pattern in DETECTION_PATTERNS:
                plus = event_probability(routed, pattern, +1, angle)
                minus = event_probability(routed, pattern, -1, angle)
                marginal = event_probability(routed, pattern)
                assert plus + minus == pytest.approx(marginal, abs=1e-12)

    def test_rejects_unknown_pattern(self):
        routed = self._same_spin_routed(Statistics.BOSON)
        with pytest.raises(ValueError, match="pattern must be one of"):
            event_probability(routed, "BA")

    def test_rejects_unrouted_state(self):
        poly = FockPolynomial(Statistics.BOSON, [(modes("a_up", "b_up"), 1.0)])
        with pytest.raises(ValueError, match="apply the splitter"):
            event_probability(poly, "AB")

    def test_rejects_conditioning_without_control(self):
        routed = self._same_spin_routed(Statistics.BOSON)
        with pytest.raises(ValueError, match="no control particle"):
            event_probability(routed, "AA", control_outcome=+1)

    def test_rejects_bad_control_outcome(self):
        routed = beam_splitter_substitute(hom_input_state(0.0, Statistics.BOSON))
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            event_probability(routed, "AB", control_outcome=0)

    def test_rejects_misaligned_spins(self):
        routed = self._same_spin_routed(Statistics.BOSON)
        with pytest.raises(ValueError, match="align with the ports"):
            event_probability(routed, "AB", spins=("up",))
        with pytest.raises(ValueError, match="unknown spin"):
            event_probability(routed, "AB", spins=("up", "left"))

    def test_rejects_two_control_excitations(self):
        poly = FockPolynomial(Statistics.BOSON, [(modes("A_up", "c_up", "c_down"), 1.0)])
        with pytest.raises(ValueError, match="more than one control"):
            event_probability(poly, "AB")


class TestDistinguishable:
    def test_unconditioned_pattern_probabilities(self):
        routed = beam_splitter_substitute(
            hom_input_state(1.3, Statistics.DISTINGUISHABLE)
        )
        probabilities = [event_probability(routed, p) for p in DETECTION_PATTERNS]
        assert probabilities == pytest.approx([0.5, 0.25, 0.25], abs=1e-12)

    @pytest.mark.parametrize("outcome", [+1, -1])
    def test_conditioned_probabilities_are_phase_flat(self, outcome):
        # labeled particles leave no interference for the eraser to recover
        for phi in (0.0, 0.9, 2.4):
            routed = beam_splitter_substitute(
                hom_input_state(phi, Statistics.DISTINGUISHABLE)
            )
            column = [
                event_probability(routed, p, outcome, math.pi / 2)
                for p in DETECTION_PATTERNS
            ]
            assert column == pytest.approx([0.25, 0.125, 0.125], abs=1e-12)

    def test_spin_resolved_coincidence(self):
        # both labeled histories land on A_up B_down with weight 1/8 each
        routed = beam_splitter_substitute(
            hom_input_state(0.4, Statistics.DISTINGUISHABLE)
        )
        value = event_probability(routed, "AB", spins=("up", "down"))
        assert value == pytest.approx(0.25, abs=1e-12)


class TestHomInputState:
    @pytest.mark.parametrize("phi", [0.0, 0.5, math.pi, 5.0])
    def test_coefficients(self, phi):
        poly = hom_input_state(phi, Statistics.BOSON)
        phase = np.exp(1.0j * phi)
        assert poly_terms(poly) == pytest.approx(
            {
                ("a_up", "b_down", "c_up"): 0.5,
                ("a_up", "b_down", "c_down"): 0.5,
                ("a_down", "b_up", "c_up"): 0.5 * phase,
                ("a_down", "b_up", "c_down"): -0.5 * phase,
            }
        )

    @pytest.mark.parametrize(
        "statistics",
        [Statistics.BOSON, Statistics.FERMION, Statistics.DISTINGUISHABLE],
    )
    def test_normalized(self, statistics):
        poly = hom_input_state(1.7, statistics)
        assert poly.norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_distinguishable_carries_labels(self):
        poly = hom_input_state(0.0, Statistics.DISTINGUISHABLE)
        assert len(poly.terms()) == 4
        for factors in poly.terms():
            assert tuple(label for _, _, label in factors) == (0, 1, 2)

    def test_only_input_and_control_ports(self):
        poly = hom_input_state(0.3, Statistics.FERMION)
        assert poly.ports_used() == {"a", "b", "c"}
