"""The tree sum of the streamed parity estimates against numpy itself.

``sampler._PairwiseSum`` repeats numpy's pairwise summation of float64
terms fed in pieces, so that ``phase-est --mode sample`` can print
``np.std(ddof=1)`` of each labeled set, bit for bit, without holding the
set.  These properties hold it to ``np.add.reduce`` and to ``np.std`` of
the whole array, for lengths up to 3e5 fed in pieces of 1 to 2**16
terms.  A numpy release or a CPU dispatch that sums another way fails
here instead of moving printed bytes.  ``tests/test_plan_bits.py`` runs
the same properties again under lowered CPU dispatch.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qeraser import sampler

PARITY_LABELS = ("+1", "-1")


@st.composite
def split_lengths(draw):
    """A length of 1 to 3e5 terms and a piece size of 1 to 2**16, at most 1 024 pieces."""
    length = draw(st.integers(1, 300_000))
    return length, draw(st.integers(max(1, length >> 10), 1 << 16))


def summed_in_pieces(terms: np.ndarray, piece: int) -> float:
    total = sampler._PairwiseSum(len(terms))
    for start in range(0, len(terms), piece):
        total.add(terms[start : start + piece])
    return total.total()


def signs(length: int, seed: int, plus: float) -> np.ndarray:
    """±1.0 terms, each +1 with probability ``plus``."""
    return np.where(np.random.default_rng(seed).random(length) < plus, 1.0, -1.0)


@given(split_lengths(), st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e-8, 1e10]))
@example((1024, 1), 0, 1.0)
@example((129, 128), 1, 1.0)
@example((300_000, 1 << 16), 2, 1e10)
def test_tree_sum_is_numpys_sum(split, seed, scale):
    length, piece = split
    terms = np.random.default_rng(seed).normal(0.3, scale, length)
    assert summed_in_pieces(terms, piece) == float(np.add.reduce(terms))


@given(split_lengths(), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_parity_estimate_is_numpys_mean_and_std(split, seed, plus):
    length, piece = split
    values = signs(length, seed, plus)
    codes = (values < 0).astype(np.int8)
    parity = sampler._Parity(PARITY_LABELS, np.bincount(codes, minlength=2))
    for start in range(0, length, piece):
        parity.add(codes[start : start + piece])
    expected_error = 1.0 if length == 1 else float(values.std(ddof=1) / math.sqrt(length))
    assert parity.estimate() == (float(values.mean()), expected_error)


@given(st.integers(129, 5_000), st.integers(0, 2**32 - 1))
def test_tree_splits_as_numpy_down_to_its_own_leaves(length, seed):
    """With every subtree above 128 terms split here, only numpy's leaves are left to it."""
    terms = np.random.default_rng(seed).normal(0.0, 1.0, length)
    with mock.patch.object(sampler, "_SUM_RUN", 128):
        assert max(size for size, _ in sampler._subtrees(length)) <= 128
        assert summed_in_pieces(terms, 97) == float(np.add.reduce(terms))


def test_signed_zero_and_empty_sums_read_as_numpy():
    assert math.copysign(1.0, summed_in_pieces(np.array([-0.0] * 5000), 7)) == 1.0
    assert summed_in_pieces(np.empty(0), 1) == 0.0
    empty = sampler._Parity(PARITY_LABELS, np.zeros(2, dtype=int)).estimate()
    assert all(math.isnan(value) for value in empty)


@pytest.mark.parametrize("fed", [9, 11])
def test_a_sum_fed_more_or_fewer_terms_refuses_to_total(fed):
    total = sampler._PairwiseSum(10)
    total.add(np.ones(fed))
    with pytest.raises(ValueError, match="not as many"):
        total.total()


def expected_estimates(config: sampler.ExperimentConfig) -> list[str]:
    joined = sampler.delayed_join(*sampler.run_experiment(config))
    values = []
    for records in (joined.labeled(+1), joined.labeled(-1), joined.system):
        values += sampler.empirical_parity(records) if len(records) else (math.nan, math.nan)
    return list(map(repr, values))


@pytest.mark.parametrize(
    "shots, n, theta, angle, seed",
    [
        (1, 3, 0.3, 0.0, 4),  # one empty branch and two one-shot sets
        (2, 3, 0.3, 0.0, 4),
        (9000, 5, 1.5, 1.2, 7),  # three chunks, the last one ragged
        (3 * sampler._CHUNK, 10, 0.3, 0.0, 11),
    ],
)
def test_streamed_estimates_are_empirical_parity_of_each_joined_set(shots, n, theta, angle, seed):
    config = sampler.ExperimentConfig(
        "metrology", shots, seed, n=n, theta=theta, control_basis_angle=angle
    )
    assert list(map(repr, sampler._parity_estimates(config))) == expected_estimates(config)
