"""Cross-entropy losses for the training harness, with analytic gradients.

All losses consume raw logits for the model branch and apply a
log-sum-exp stabilized softmax internally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, ShapeMismatch


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def cross_entropy_per_sample(target: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """-sum(target * log softmax(logits)) over the class axis, one value per
    row; each target row is a distribution."""
    target = np.asarray(target, dtype=float)
    logits = np.asarray(logits, dtype=float)
    if target.shape != logits.shape:
        raise ShapeMismatch("target and logits shapes differ")
    return -np.sum(target * log_softmax(logits), axis=-1)


def cross_entropy(target: np.ndarray, logits: np.ndarray) -> float:
    """Mean of cross_entropy_per_sample over the batch."""
    per_sample = cross_entropy_per_sample(target, logits)
    if per_sample.size == 0:
        raise EmptyBatch("cross-entropy of an empty batch")
    return float(per_sample.mean())


def cross_entropy_grad(target: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """Gradient of cross_entropy w.r.t. logits: softmax(logits) - target."""
    return softmax(logits) - np.asarray(target, dtype=float)


def cross_entropy_terms(
    target: np.ndarray, logits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(cross_entropy_per_sample, cross_entropy_grad) of one batch from a
    single log_softmax, bit for bit the two functions' results."""
    target = np.asarray(target, dtype=float)
    logits = np.asarray(logits, dtype=float)
    if target.shape != logits.shape:
        raise ShapeMismatch("target and logits shapes differ")
    log_p = log_softmax(logits)
    return -np.sum(target * log_p, axis=-1), np.exp(log_p) - target


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


def total_loss(sup: float, cos: float, lambda_cos: float) -> float:
    return sup + lambda_cos * cos


@dataclass(frozen=True)
class LossReport:
    sup: float
    cos: float
    total: float
    lambda_cos: float

    def __post_init__(self):
        parts = (self.sup, self.cos, self.total)
        if not all(np.isfinite(parts)):
            raise ValueError("loss components must be finite")
        if abs(self.total - (self.sup + self.lambda_cos * self.cos)) > 1e-9:
            raise ValueError("total does not match sup + lambda_cos * cos")
