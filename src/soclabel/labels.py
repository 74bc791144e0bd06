"""Probability vectors, label restriction and selection scores.

Class indices are 0-based throughout. Restriction and the scores work on
batches: one row per sample, one column per class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, ZeroMass

PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ProbVector:
    """A length-K distribution over classes (post-softmax output)."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1 or p.size < 2:
            raise ValueError("need a 1-D vector over K >= 2 classes")
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
        if np.any(p < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(float(p.sum()) - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")

    def argmax(self) -> int:
        # np.argmax returns the first maximum: ties break to the lowest index.
        return int(np.argmax(self.probs))

    def confidence(self) -> float:
        return float(self.probs.max())


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


def entropy(p: ProbVector | np.ndarray) -> float | np.ndarray:
    """Shannon entropy in nats, with 0 * ln 0 = 0.

    A 2-D batch gives one entropy per row, each equal bit for bit to the
    row's own: rows with the same number of nonzeros are summed together,
    their nonzeros packed in column order, so each row is reduced in the
    order a lone row would be.
    """
    v = p.probs if isinstance(p, ProbVector) else np.asarray(p, dtype=float)
    if v.ndim == 2:
        positive = v > 0
        counts = positive.sum(axis=1)
        out = np.empty(v.shape[0])
        for m in np.flatnonzero(np.bincount(counts)).tolist():
            rows = np.flatnonzero(counts == m)
            nz = v[rows][positive[rows]].reshape(rows.size, m)
            out[rows] = -np.sum(nz * np.log(nz), axis=1)
        return out
    nz = v[v > 0]
    return float(-np.sum(nz * np.log(nz)))


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
