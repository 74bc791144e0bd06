"""Cross-entropy losses for the training harness, with analytic gradients.

All losses consume raw logits for the model branch and apply a
log-sum-exp stabilized softmax internally.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyBatch, ShapeMismatch


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def cross_entropy_terms(
    target: np.ndarray, logits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cross-entropy -sum(target * log softmax(logits)) over the class axis,
    one value per row, and its gradient w.r.t. logits, softmax(logits) -
    target, both from a single log_softmax. Each target row is a
    distribution."""
    target = np.asarray(target, dtype=float)
    logits = np.asarray(logits, dtype=float)
    if target.shape != logits.shape:
        raise ShapeMismatch("target and logits shapes differ")
    log_p = log_softmax(logits)
    return -np.sum(target * log_p, axis=-1), np.exp(log_p) - target


def cross_entropy(target: np.ndarray, logits: np.ndarray) -> float:
    """Mean of cross_entropy_terms' per-row losses over the batch."""
    per_sample, _ = cross_entropy_terms(target, logits)
    if per_sample.size == 0:
        raise EmptyBatch("cross-entropy of an empty batch")
    return float(per_sample.mean())


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def fixmatch_weights(probs_weak: np.ndarray, tau: float) -> np.ndarray:
    """FixMatch's confidence mask (Sohn et al., arXiv 2001.07685): 1.0 for
    samples with max(p) >= tau, else 0.0. Masked samples still count in
    the batch mean."""
    return (np.asarray(probs_weak, dtype=float).max(axis=1) >= tau).astype(float)
