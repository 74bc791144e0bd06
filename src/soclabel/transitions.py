"""Streaming class-transition statistics over a rolling batch window.

A transition is recorded whenever the model's argmax prediction for a
sample changes between consecutive observations. Per-batch events are kept
as sparse lists; the windowed sum is maintained densely so similarity
queries stay O(1).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InvalidClass, SchemaError

UNOBSERVED = -1
MAX_SIM = np.inf
SNAPSHOT_MAGIC = "SOC-CTT-v1"


class PredictionBank:
    """Last argmax prediction per sample id (UNOBSERVED before the first)."""

    def __init__(self):
        self.last_pred: dict = {}

    def get(self, sample_id) -> int:
        return self.last_pred.get(sample_id, UNOBSERVED)

    def set(self, sample_id, pred: int) -> None:
        self.last_pred[sample_id] = int(pred)

    def __len__(self) -> int:
        return len(self.last_pred)


@dataclass(frozen=True)
class BatchTransitions:
    """Sparse (from_class, to_class) events of one batch; never from == to."""

    events: tuple

    def __post_init__(self):
        if any(m == n for m, n in self.events):
            raise ValueError("self-transitions are not allowed")

    def __len__(self) -> int:
        return len(self.events)


class TransitionLedger:
    """Rolling window of the most recent batches of transition events."""

    def __init__(self, n_classes: int, window_size: int):
        if n_classes < 2:
            raise ValueError("need at least 2 classes")
        if window_size < 1:
            raise ValueError("window size must be positive")
        self.n_classes = n_classes
        self.window_size = window_size
        self.window: deque[BatchTransitions] = deque()
        self.running_sum = np.zeros((n_classes, n_classes), dtype=np.int64)
        self.version = 0

    def observe_batch(self, bank: PredictionBank, batch) -> BatchTransitions:
        """Record one batch of (sample_id, predicted_class) observations.

        A sample's first observation updates the bank without counting a
        transition. The oldest batch is evicted once the window is full.
        """
        events = []
        for sample_id, pred in batch:
            pred = int(pred)
            if not 0 <= pred < self.n_classes:
                raise InvalidClass(f"class {pred} >= K={self.n_classes}")
            prev = bank.get(sample_id)
            if prev != UNOBSERVED and prev != pred:
                events.append((prev, pred))
            bank.set(sample_id, pred)
        recorded = BatchTransitions(tuple(events))

        if len(self.window) == self.window_size:
            oldest = self.window.popleft()
            for m, n in oldest.events:
                self.running_sum[m, n] -= 1
        self.window.append(recorded)
        for m, n in recorded.events:
            self.running_sum[m, n] += 1
        self.version += 1
        return recorded

    def similarity_matrix(self) -> "SimilarityMatrix":
        """Dense symmetric pairwise similarity with MAX_SIM diagonal."""
        if self.window:
            avg = self.running_sum / len(self.window)
            values = (avg + avg.T) / 2.0
        else:
            values = np.zeros((self.n_classes, self.n_classes))
        np.fill_diagonal(values, MAX_SIM)
        return SimilarityMatrix(values, self.version)

    def to_json(self) -> str:
        snap = {
            "magic": SNAPSHOT_MAGIC,
            "n_classes": self.n_classes,
            "window_size": self.window_size,
            "version": self.version,
            "window": [[list(e) for e in b.events] for b in self.window],
        }
        return json.dumps(snap)

    @classmethod
    def from_json(cls, text: str) -> "TransitionLedger":
        try:
            snap = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"snapshot is not valid JSON: {exc}") from exc
        if not isinstance(snap, dict) or snap.get("magic") != SNAPSHOT_MAGIC:
            raise SchemaError(f"expected magic {SNAPSHOT_MAGIC!r}")
        try:
            ledger = cls(snap["n_classes"], snap["window_size"])
            K = ledger.n_classes
            if len(snap["window"]) > ledger.window_size:
                # observe_batch evicts only at exactly window_size batches.
                raise SchemaError(
                    f"window holds {len(snap['window'])} batches > window_size "
                    f"{ledger.window_size}"
                )
            for batch in snap["window"]:
                bt = BatchTransitions(tuple((int(m), int(n)) for m, n in batch))
                # Negative indices would wrap into the running sum.
                if not all(0 <= c < K for event in bt.events for c in event):
                    raise SchemaError(f"class index outside [0, {K})")
                ledger.window.append(bt)
                for m, n in bt.events:
                    ledger.running_sum[m, n] += 1
            ledger.version = int(snap["version"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed snapshot: {type(exc).__name__}: {exc}") from exc
        return ledger


@dataclass(frozen=True)
class SimilarityMatrix:
    """Similarity snapshot tagged with the ledger version it came from."""

    values: np.ndarray
    ledger_version: int


def rebuild_running_sum(ledger: TransitionLedger) -> np.ndarray:
    """From-scratch recount of the window; oracle for the incremental sum."""
    total = np.zeros((ledger.n_classes, ledger.n_classes), dtype=np.int64)
    for batch in ledger.window:
        for m, n in batch.events:
            total[m, n] += 1
    return total
