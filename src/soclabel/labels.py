"""Probability rows, label restriction, entropy and selection scores.

Class indices are 0-based throughout. Everything works on batches: one
row per sample, one column per class.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch, ZeroMass

PROB_SUM_TOL = 1e-9
NOT_A_VECTOR = "need a 1-D vector over K >= 2 classes"


class InvalidRow(ValueError):
    """A row of a batch is not a probability vector; `row` is its index."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def check_rows(p: np.ndarray) -> None:
    """Raise InvalidRow for the first row of the 2-D batch p that is not a
    distribution over K >= 2 classes: finite, non-negative, and summing to
    1 within PROB_SUM_TOL. A row failing several checks reports the first.

    Each row is summed along axis 1 of a C-contiguous array, so its sum,
    in the test and in the message, is bit for bit the one a lone row
    would give.
    """
    p = np.ascontiguousarray(p, dtype=float)
    if p.ndim != 2 or p.shape[1] < 2:
        raise InvalidRow(0, NOT_A_VECTOR)
    nonfinite = ~np.isfinite(p).all(axis=1)
    negative = (p < 0).any(axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        sums = p.sum(axis=1)
    off = np.abs(sums - 1.0) > PROB_SUM_TOL
    bad = nonfinite | negative | off
    if not bad.any():
        return
    i = int(bad.argmax())
    if nonfinite[i]:
        raise InvalidRow(i, "probabilities must be finite")
    if negative[i]:
        raise InvalidRow(i, "probabilities must be non-negative")
    raise InvalidRow(i, f"probabilities sum to {sums[i]}, not 1")


def restrict(probs: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Zero the entries outside the boolean mask and renormalize each row.

    Raises ZeroMass when a row's selected entries carry no probability; in
    the pipeline this cannot happen because the mask always keeps the
    argmax class.
    """
    probs = np.asarray(probs, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != probs.shape:
        raise ShapeMismatch("mask and probabilities shapes differ")
    masked = np.where(mask, probs, 0.0)
    total = masked.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise ZeroMass("selected classes have zero total probability")
    return masked / total


def entropy(p: np.ndarray) -> float | np.ndarray:
    """Shannon entropy in nats, with 0 * ln 0 = 0.

    A 2-D batch gives one entropy per row; a 1-D vector runs as a one-row
    batch and gives a float. Rows with the same number of nonzeros are
    summed together, their nonzeros packed in column order, so each row is
    reduced in the order a lone row would be: a row's entropy is the same
    bit for bit in any batch.
    """
    v = np.asarray(p, dtype=float)
    batch = v[None] if v.ndim == 1 else v
    positive = batch > 0
    counts = positive.sum(axis=1)
    out = np.empty(batch.shape[0])
    for m in np.flatnonzero(np.bincount(counts)).tolist():
        rows = np.flatnonzero(counts == m)
        nz = batch[rows][positive[rows]].reshape(rows.size, m)
        out[rows] = -np.sum(nz * np.log(nz), axis=1)
    return float(out[0]) if v.ndim == 1 else out


def obj1_score(probs: np.ndarray, targets: np.ndarray, y_star: np.ndarray) -> np.ndarray:
    """Per-sample ground-truth mass kept by the selection: probs[i, y] when
    class y is in the support of targets[i], else 0 (simulator-only metric)."""
    y_star = np.asarray(y_star, dtype=int)
    if np.any((y_star < 0) | (y_star >= probs.shape[1])):
        raise ValueError("ground-truth class out of range")
    rows = np.arange(y_star.size)
    return probs[rows, y_star] * (targets[rows, y_star] > 0)


def obj2_score(targets: np.ndarray) -> np.ndarray:
    """Per-sample number of selected classes (the support size)."""
    return (np.asarray(targets) > 0).sum(axis=-1)
