import math

import numpy as np
import pytest

from edgesign.errors import DataError
from edgesign.metrics import ConfusionCounts, accuracy, confusion, mcc


class TestConfusion:
    def test_all_correct(self):
        pred = np.array([1] * 5 + [-1] * 5)
        c = confusion(pred, pred)
        assert (c.tp, c.tn, c.fp, c.fn) == (5, 5, 0, 0)

    def test_all_flipped(self):
        truth = np.array([1] * 5 + [-1] * 5)
        c = confusion(-truth, truth)
        assert (c.tp, c.tn, c.fp, c.fn) == (0, 0, 5, 5)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(0)
        pred = rng.choice([-1, 1], size=200)
        truth = rng.choice([-1, 1], size=200)
        c = confusion(pred, truth)
        tp = sum(1 for a, b in zip(pred, truth) if a == 1 and b == 1)
        tn = sum(1 for a, b in zip(pred, truth) if a == -1 and b == -1)
        fp = sum(1 for a, b in zip(pred, truth) if a == 1 and b == -1)
        fn = sum(1 for a, b in zip(pred, truth) if a == -1 and b == 1)
        assert (c.tp, c.tn, c.fp, c.fn) == (tp, tn, fp, fn)
        assert c.total == 200

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_four_mask_definition(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(0, 400))
        dtype = [np.int8, np.int64, np.float64][seed % 3]
        pred, truth = (rng.choice([-1, 1], size=size).astype(dtype) for _ in range(2))
        c = confusion(pred, truth)
        expected = tuple(int(np.count_nonzero((pred == p) & (truth == t)))
                         for p, t in ((1, 1), (-1, -1), (1, -1), (-1, 1)))
        assert (c.tp, c.tn, c.fp, c.fn) == expected
        assert all(type(count) is int for count in (c.tp, c.tn, c.fp, c.fn))

    @pytest.mark.parametrize("stray", [0, 2, -2, math.nan])
    def test_a_label_outside_plus_minus_one_is_refused(self, stray):
        labels, truth = np.array([1.0, -1.0, stray]), np.array([1.0, -1.0, 1.0])
        with pytest.raises(DataError, match="predicted labels must be"):
            confusion(labels, truth)
        with pytest.raises(DataError, match="true labels must be"):
            confusion(truth, labels)

    def test_coverage_mismatch(self):
        with pytest.raises(DataError):
            confusion(np.ones(3), np.ones(4))


class TestMcc:
    def test_extremes(self):
        assert mcc(ConfusionCounts(5, 5, 0, 0)) == 1.0
        assert mcc(ConfusionCounts(0, 0, 5, 5)) == -1.0

    def test_hand_value(self):
        assert abs(mcc(ConfusionCounts(4, 2, 1, 1)) - 7.0 / 15.0) < 1e-15

    def test_zero_denominator_convention(self):
        assert mcc(ConfusionCounts(0, 0, 0, 0)) == 0.0
        assert mcc(ConfusionCounts(3, 0, 2, 0)) == 0.0  # all predicted positive

    def test_swap_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            tp, tn, fp, fn = rng.integers(0, 30, size=4)
            a = mcc(ConfusionCounts(int(tp), int(tn), int(fp), int(fn)))
            b = mcc(ConfusionCounts(int(tn), int(tp), int(fn), int(fp)))
            assert abs(a - b) < 1e-14

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            tp, tn, fp, fn = (int(x) for x in rng.integers(0, 20, size=4))
            k = int(rng.integers(2, 9))
            a = mcc(ConfusionCounts(tp, tn, fp, fn))
            b = mcc(ConfusionCounts(k * tp, k * tn, k * fp, k * fn))
            assert abs(a - b) < 1e-12

    def test_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            tp, tn, fp, fn = (int(x) for x in rng.integers(0, 50, size=4))
            assert abs(mcc(ConfusionCounts(tp, tn, fp, fn))) <= 1.0 + 1e-12


class TestAccuracy:
    def test_values(self):
        assert accuracy(ConfusionCounts(5, 5, 0, 0)) == 1.0
        assert accuracy(ConfusionCounts(0, 0, 5, 5)) == 0.0
        assert abs(accuracy(ConfusionCounts(4, 2, 1, 1)) - 0.75) < 1e-15
