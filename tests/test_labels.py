import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soclabel.errors import ShapeMismatch, ZeroMass
from soclabel.labels import (
    NOT_A_VECTOR,
    InvalidRow,
    check_rows,
    entropy,
    obj1_score,
    obj2_score,
    restrict,
)


def prob(*values):
    p = np.array(values, dtype=float)
    check_rows(p[None])
    return p


def indicator(classes, n):
    mask = np.zeros(n, dtype=bool)
    mask[list(classes)] = True
    return mask


class TestProbVector:
    """check_rows on one row, the check prob() makes; it replaced the
    deleted ProbVector class."""

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            prob(0.5, 0.6, -0.1)

    def test_rejects_bad_sum(self):
        # NaN and inf sums fail the tolerance check only by an explicit test.
        for values in ((0.5, 0.6), (math.nan, 1.0), (math.nan, math.nan), (math.inf, 0.0)):
            with pytest.raises(ValueError):
                prob(*values)

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            prob(1.0)


class TestCheckRows:
    """check_rows, the one probability check, behind the log parser."""

    def test_first_bad_row_and_its_message(self):
        uniform = np.full((5, 3), 1 / 3)
        for row, message in (
            ([math.nan, -1.0, 2.0], "probabilities must be finite"),
            ([-0.5, 1.0, 0.5], "probabilities must be non-negative"),
            ([0.5, 0.6, 0.1], f"probabilities sum to {np.sum([0.5, 0.6, 0.1])}, not 1"),
        ):
            batch = uniform.copy()
            batch[2] = row
            batch[4] = [2.0, 0.0, 0.0]
            with pytest.raises(InvalidRow) as exc:
                check_rows(batch)
            assert (exc.value.row, str(exc.value)) == (2, message)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                prob(*row)
        check_rows(uniform)

    def test_sum_in_message_is_the_lone_rows(self):
        rng = np.random.default_rng(5)
        for K in (2, 7, 8, 9, 32, 127, 128, 129, 200):
            batch = rng.dirichlet(np.full(K, 0.3), size=40) * (1 + 1e-6)
            for i in range(40):
                with pytest.raises(InvalidRow) as exc:
                    check_rows(batch[i:])
                assert exc.value.row == 0
                assert str(exc.value) == f"probabilities sum to {batch[i].sum()}, not 1"

    def test_shape(self):
        for bad in (np.ones(3) / 3, np.ones((4, 1)), np.ones((2, 2, 2)) / 2):
            with pytest.raises(InvalidRow, match=NOT_A_VECTOR):
                check_rows(bad)
        for bad in (np.ones((2, 2)) / 2, np.float64(1.0)):
            with pytest.raises(ValueError, match=NOT_A_VECTOR):
                check_rows(np.asarray(bad)[None])


class TestSelectLabel:
    """restrict: the selected soft label of each row."""

    def test_hand_renormalization(self):
        out = restrict(prob(0.5, 0.3, 0.2), indicator({0, 1}, 3))
        assert np.allclose(out, [0.625, 0.375, 0.0])
        assert out[2] == 0.0
        # A batch renormalizes each row on its own.
        probs = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
        mask = np.array([indicator({0, 1}, 3), indicator({1, 2}, 3)])
        assert np.allclose(restrict(probs, mask), [[0.625, 0.375, 0.0], [0.0, 2 / 3, 1 / 3]])

    def test_all_ones_is_identity(self):
        p = prob(0.1, 0.2, 0.3, 0.4)
        out = restrict(p, indicator(set(range(4)), 4))
        assert np.array_equal(out, p)

    def test_single_class_degenerate(self):
        out = restrict(prob(0.5, 0.3, 0.2), indicator({2}, 3))
        assert out.tolist() == [0.0, 0.0, 1.0]

    def test_zero_mass(self):
        with pytest.raises(ZeroMass):
            restrict(prob(0.5, 0.5, 0.0), indicator({2}, 3))

    def test_empty_mask_rejected(self):
        with pytest.raises(ZeroMass):
            restrict(prob(0.5, 0.5, 0.0), np.zeros(3, dtype=bool))

    def test_mask_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            restrict(prob(0.5, 0.3, 0.2), indicator({0}, 4))


def lone_row_entropy(row):
    """The sum a lone row gets on its own, the oracle for the batch."""
    nz = row[row > 0]
    return -np.sum(nz * np.log(nz))


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert entropy(prob(0.0, 1.0, 0.0)) == 0.0

    def test_uniform_is_log_k(self):
        assert entropy(prob(0.25, 0.25, 0.25, 0.25)) == pytest.approx(math.log(4))

    def test_hand_value(self):
        # -(0.625 ln 0.625 + 0.375 ln 0.375)
        assert entropy(prob(0.625, 0.375, 0.0)) == pytest.approx(0.66156, abs=1e-4)

    @pytest.mark.parametrize("K", [2, 7, 8, 9, 32, 127, 128, 129, 200, 300])
    def test_batch_equals_each_row_bit_for_bit(self, K):
        # Supports of every size from 0 to K, so rows are summed in groups
        # of many lengths, across the sum's 8- and 128-term block edges.
        rng = np.random.default_rng(K)
        for _ in range(20):
            n = int(rng.integers(1, 60))
            probs = rng.random((n, K)) ** 3
            probs /= probs.sum(axis=1, keepdims=True)
            support = rng.random((n, K)) < rng.random((n, 1))
            support[rng.integers(0, n)] = rng.random() < 0.5  # an empty or full row
            batch = np.where(support, probs, 0.0)
            rows = np.array([lone_row_entropy(row) for row in batch])
            assert entropy(batch).tobytes() == rows.tobytes()
            assert [entropy(row) for row in batch] == rows.tolist()


def selected(classes, probs):
    """One-row batch: probs restricted to classes."""
    probs = np.asarray(probs, dtype=float)[None, :]
    return probs, restrict(probs, indicator(classes, probs.shape[1])[None, :])


class TestObjectives:
    def test_obj1_selected(self):
        probs, targets = selected({0, 1}, [0.5, 0.3, 0.2])
        assert obj1_score(probs, targets, [1]).tolist() == [pytest.approx(0.3)]

    def test_obj1_excluded(self):
        probs, targets = selected({0, 1}, [0.5, 0.3, 0.2])
        assert obj1_score(probs, targets, [2]).tolist() == [0.0]
        with pytest.raises(ValueError):
            obj1_score(probs, targets, [3])

    def test_obj1_full_selection(self):
        probs, targets = selected(set(range(3)), [0.5, 0.3, 0.2])
        y = np.arange(3)
        out = obj1_score(np.repeat(probs, 3, axis=0), np.repeat(targets, 3, axis=0), y)
        assert out == pytest.approx(probs[0])

    def test_obj2(self):
        assert obj2_score(selected({0, 2}, np.full(4, 0.25))[1]).tolist() == [2]
        assert obj2_score(selected(set(range(200)), np.full(200, 0.005))[1]).tolist() == [200]
        assert obj2_score(selected({7}, np.full(10, 0.1))[1]).tolist() == [1]


@st.composite
def prob_and_candidates(draw, max_k=16):
    k = draw(st.integers(2, max_k))
    raw = draw(
        st.lists(st.floats(1e-6, 1.0), min_size=k, max_size=k)
    )
    p = prob(*(np.array(raw) / np.sum(raw)))
    am = int(np.argmax(p))
    size = draw(st.integers(1, k))
    others = [c for c in range(k) if c != am]
    extra = draw(st.permutations(others))[: size - 1]
    return p, indicator([am, *extra], k)


@given(prob_and_candidates())
@settings(max_examples=200)
def test_selection_properties(case):
    p, mask = case
    out = restrict(p, mask)
    assert abs(out.sum() - 1.0) <= 1e-9
    assert np.all(out >= 0)
    # Support stays inside the mask.
    assert np.all((out > 0) <= mask)
    # Argmax preserved when selected.
    assert np.argmax(out) == np.argmax(p)
    # Entropy never increases in the proven regime.
    if mask.sum() <= 11:
        assert entropy(out) <= entropy(p) + 1e-12
