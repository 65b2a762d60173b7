"""Confusion accounting, Matthews correlation coefficient, accuracy."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass
class ConfusionCounts:
    """Binary confusion counts with +1 as the positive class."""

    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self):
        return self.tp + self.tn + self.fp + self.fn


def _plus_mask(labels, name):
    """``labels == 1`` and its count; a label other than +1 or -1 is a DataError."""
    plus = labels == 1
    count = int(np.count_nonzero(plus))
    if count + np.count_nonzero(labels == -1) != labels.size:
        stray = labels[(labels != 1) & (labels != -1)].flat[0].item()
        raise DataError(f"{name} labels must be +1 or -1, got {stray!r}")
    return plus, count


def confusion(predicted_labels, true_labels):
    """Count tp/tn/fp/fn between two ±1 label arrays of equal length.

    The +1 masks of both arrays and their ``&`` give tp, and the other counts
    follow by subtraction. A label other than +1 or -1 would then count as
    -1, so it is a DataError.
    """
    pred = np.asarray(predicted_labels)
    truth = np.asarray(true_labels)
    if pred.shape != truth.shape:
        raise DataError(f"prediction covers {pred.size} edges, truth has {truth.size}")
    pred_plus, n_pred_plus = _plus_mask(pred, "predicted")
    true_plus, n_true_plus = _plus_mask(truth, "true")
    tp = int(np.count_nonzero(pred_plus & true_plus))
    fp, fn = n_pred_plus - tp, n_true_plus - tp
    return ConfusionCounts(tp=tp, tn=pred.size - tp - fp - fn, fp=fp, fn=fn)


def mcc(c):
    """Matthews correlation coefficient in [-1, 1].

    (tp·tn − fp·fn) / sqrt((tp+fp)(tp+fn)(tn+fp)(tn+fn)), with the standard
    convention that a zero factor in the denominator yields 0 (degenerate
    single-class predictions).
    """
    denom = (c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn)
    if denom == 0:
        return 0.0
    return (c.tp * c.tn - c.fp * c.fn) / math.sqrt(denom)


def accuracy(c):
    """Fraction of correct predictions (nan on empty counts)."""
    if c.total == 0:
        return float("nan")
    return (c.tp + c.tn) / c.total
