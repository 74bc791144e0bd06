"""Streaming class-transition statistics over a rolling batch window.

A transition is recorded whenever the model's argmax prediction for a
sample changes between consecutive observations. Each batch's events are
kept as the (from, to) rows of a read-only (n, 2) int64 array, in batch
order and never with from == to; the window's counts C are summed densely,
and the similarity C + C^T is integer-valued, so its sums are exact.
"""

from __future__ import annotations

import json
from collections import deque

import numpy as np

from .errors import InvalidClass, SchemaError

UNOBSERVED = -1
MAX_SIM = np.inf
SNAPSHOT_MAGIC = "SOC-CTT-v1"
# The ledger keeps dense K x K int64 counts: 2 GiB at this many classes.
MAX_SNAPSHOT_CLASSES = 2**14


class PredictionBank:
    """Last argmax prediction per sample id (UNOBSERVED before the first).

    Ids are the integers 0..n_ids-1; `last_pred[i]` is id i's prediction.
    """

    def __init__(self, n_ids: int):
        self.last_pred = np.full(n_ids, UNOBSERVED, dtype=np.int64)


class TransitionLedger:
    """Rolling window of the most recent batches of transition events."""

    def __init__(self, n_classes: int, window_size: int):
        if n_classes < 2:
            raise ValueError("need at least 2 classes")
        if window_size < 1:
            raise ValueError("window size must be positive")
        self.n_classes = n_classes
        self.window_size = window_size
        self.window: deque[np.ndarray] = deque()
        self.running_sum = np.zeros((n_classes, n_classes), dtype=np.int64)
        self.version = 0

    def observe_batch(self, bank: PredictionBank, ids, preds) -> np.ndarray:
        """Record one batch, sample ids[i] predicted as class preds[i], and
        return its events.

        A sample's first observation updates the bank without counting a
        transition. An id seen twice in one batch moves from its earlier
        prediction to its later one, and the bank keeps the last. The
        oldest batch is evicted once the window is full.
        """
        ids = np.asarray(ids, dtype=np.intp).reshape(-1)
        preds = np.asarray(preds, dtype=np.int64).reshape(-1)
        if ids.shape != preds.shape:
            raise ValueError("need one prediction per id")
        bad = (preds < 0) | (preds >= self.n_classes)
        if bad.any():
            raise InvalidClass(f"class {preds[bad.argmax()]} >= K={self.n_classes}")
        n_ids = bank.last_pred.size
        if ids.size and (ids.min() < 0 or ids.max() >= n_ids):
            raise ValueError(f"sample id outside [0, {n_ids})")

        # In id order (stable, so repeats keep batch order), each
        # observation's previous prediction is the bank's for an id's
        # first occurrence and the one before it otherwise.
        order = np.argsort(ids, kind="stable")
        sorted_ids, sorted_preds = ids[order], preds[order]
        first = np.ones(ids.size, dtype=bool)
        first[1:] = sorted_ids[1:] != sorted_ids[:-1]
        last = np.ones(ids.size, dtype=bool)
        last[:-1] = first[1:]
        prev_sorted = bank.last_pred[sorted_ids]
        prev_sorted[1:] = np.where(first[1:], prev_sorted[1:], sorted_preds[:-1])
        prev = np.empty_like(preds)
        prev[order] = prev_sorted
        bank.last_pred[sorted_ids[last]] = sorted_preds[last]

        moved = (prev != UNOBSERVED) & (prev != preds)
        recorded = np.stack([prev[moved], preds[moved]], axis=1)
        # Eviction subtracts the array's events again: it must not change.
        recorded.flags.writeable = False

        if len(self.window) == self.window_size:
            self._count(self.window.popleft(), -1)
        self.window.append(recorded)
        self._count(recorded, 1)
        self.version += 1
        return recorded

    def _count(self, pairs: np.ndarray, delta: int) -> None:
        np.add.at(self.running_sum, (pairs[:, 0], pairs[:, 1]), delta)

    def similarity_matrix(self) -> np.ndarray:
        """The window's symmetrized counts C + C^T as floats, with a MAX_SIM
        diagonal."""
        sim = (self.running_sum + self.running_sum.T).astype(float)
        np.fill_diagonal(sim, MAX_SIM)
        return sim

    def to_json(self) -> str:
        snap = {
            "magic": SNAPSHOT_MAGIC,
            "n_classes": self.n_classes,
            "window_size": self.window_size,
            "version": self.version,
            "window": [b.tolist() for b in self.window],
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
            n_classes, window_size, version = (
                snap["n_classes"], snap["window_size"], snap["version"])
            # A float window size would never fill; a bool is an int to Python.
            if any(type(v) is not int for v in (n_classes, window_size, version)):
                raise SchemaError("n_classes, window_size and version must be integers")
            # Checked before the constructor allocates the counts.
            if n_classes > MAX_SNAPSHOT_CLASSES:
                raise SchemaError(f"n_classes {n_classes} > {MAX_SNAPSHOT_CLASSES}")
            # Training seeds k-medoids with seed + version.
            if version < 0:
                raise SchemaError(f"version {version} is negative")
            ledger = cls(n_classes, window_size)
            K = ledger.n_classes
            if len(snap["window"]) > ledger.window_size:
                # observe_batch evicts only at exactly window_size batches.
                raise SchemaError(
                    f"window holds {len(snap['window'])} batches > window_size "
                    f"{ledger.window_size}"
                )
            for batch in snap["window"]:
                pairs = np.array([(int(m), int(n)) for m, n in batch], dtype=np.int64)
                pairs = pairs.reshape(-1, 2)
                if np.any(pairs[:, 0] == pairs[:, 1]):
                    raise ValueError("self-transitions are not allowed")
                # Negative indices would wrap into the running sum.
                if np.any((pairs < 0) | (pairs >= K)):
                    raise SchemaError(f"class index outside [0, {K})")
                pairs.flags.writeable = False
                ledger.window.append(pairs)
                ledger._count(pairs, 1)
            ledger.version = version
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"malformed snapshot: {type(exc).__name__}: {exc}") from exc
        return ledger


def rebuild_running_sum(ledger: TransitionLedger) -> np.ndarray:
    """From-scratch recount of the window; oracle for the incremental sum."""
    total = np.zeros((ledger.n_classes, ledger.n_classes), dtype=np.int64)
    for batch in ledger.window:
        for m, n in batch.tolist():
            total[m, n] += 1
    return total
