"""Streaming class-transition statistics over a rolling batch window.

A transition is recorded whenever the model's argmax prediction for a
sample changes between consecutive observations. Each batch's events are
kept as the (from, to) rows of a read-only (n, 2) array, in batch order and
never with from == to. Its dtype is the ledger's `event_dtype`,
`np.min_scalar_type(K - 1)`: uint8 up to K=256 and uint16 up to 65536, so
a held transition costs 2 bytes at the paper's K, where int64 cost 16. The
window's counts C are summed densely in int64, and the similarity C + C^T
is integer-valued, so its sums are exact.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import InvalidClass

UNOBSERVED = -1
MAX_SIM = np.inf
# The window N_b, in batches, of a training run and of `soclabel select`
# and `cluster` unless --nb sets it.
DEFAULT_WINDOW = 512


class TransitionLedger:
    """Each sample's last argmax and a rolling window of the most recent
    batches of transition events.

    Ids are the integers 0..n_ids-1; `last_pred[i]` is id i's latest
    prediction, UNOBSERVED before its first.
    """

    def __init__(self, n_classes: int, window_size: int, n_ids: int):
        if n_classes < 2:
            raise ValueError("need at least 2 classes")
        if window_size < 1:
            raise ValueError("window size must be positive")
        self.n_classes = n_classes
        self.window_size = window_size
        self.event_dtype = np.min_scalar_type(n_classes - 1)
        self.window: deque[np.ndarray] = deque()
        self.running_sum = np.zeros((n_classes, n_classes), dtype=np.int64)
        self.version = 0
        self.last_pred = np.full(n_ids, UNOBSERVED, dtype=np.int64)

    def observe_batch(self, ids, preds) -> np.ndarray:
        """Record one batch, sample ids[i] predicted as class preds[i], and
        return its events.

        A sample's first observation updates last_pred without counting a
        transition. An id seen twice in one batch moves from its earlier
        prediction to its later one, and last_pred keeps the last. The
        oldest batch is evicted once the window is full.

        ids and preds must hold integers: a float or bool array raises
        TypeError, since a cast would record 1.7 as class 1. An empty
        list, which numpy types as float64, is an empty batch.
        """
        ids = np.asarray(ids).reshape(-1)
        preds = np.asarray(preds).reshape(-1)
        for name, values in (("ids", ids), ("preds", preds)):
            if values.size and values.dtype.kind not in "iu":
                raise TypeError(f"{name} must be integers, got {values.dtype}")
        if ids.shape != preds.shape:
            raise ValueError("need one prediction per id")
        # Checked in the given dtype: the int64 cast wraps a uint64 2**63.
        bad = (preds < 0) | (preds >= self.n_classes)
        if bad.any():
            raise InvalidClass(f"class {preds[bad.argmax()]} outside [0, {self.n_classes})")
        ids = ids.astype(np.intp, copy=False)
        preds = preds.astype(np.int64, copy=False)
        n_ids = self.last_pred.size
        if ids.size and (ids.min() < 0 or ids.max() >= n_ids):
            raise ValueError(f"sample id outside [0, {n_ids})")

        # In id order (stable, so repeats keep batch order), each
        # observation's previous prediction is last_pred's for an id's
        # first occurrence and the one before it otherwise.
        order = np.argsort(ids, kind="stable")
        sorted_ids, sorted_preds = ids[order], preds[order]
        first = np.ones(ids.size, dtype=bool)
        first[1:] = sorted_ids[1:] != sorted_ids[:-1]
        last = np.ones(ids.size, dtype=bool)
        last[:-1] = first[1:]
        prev_sorted = self.last_pred[sorted_ids]
        prev_sorted[1:] = np.where(first[1:], prev_sorted[1:], sorted_preds[:-1])
        prev = np.empty_like(preds)
        prev[order] = prev_sorted
        self.last_pred[sorted_ids[last]] = sorted_preds[last]

        moved = (prev != UNOBSERVED) & (prev != preds)
        # Both columns are classes in [0, K), so the narrow cast is exact.
        recorded = np.empty((np.count_nonzero(moved), 2), dtype=self.event_dtype)
        recorded[:, 0] = prev[moved]
        recorded[:, 1] = preds[moved]
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
        diagonal. The sum is taken in float64 without an int64 temporary;
        it is exact for counts below 2**53."""
        sim = np.add(self.running_sum, self.running_sum.T, dtype=float)
        np.fill_diagonal(sim, MAX_SIM)
        return sim


def rebuild_running_sum(ledger: TransitionLedger) -> np.ndarray:
    """From-scratch recount of the window; oracle for the incremental sum."""
    total = np.zeros((ledger.n_classes, ledger.n_classes), dtype=np.int64)
    for batch in ledger.window:
        for m, n in batch.tolist():
            total[m, n] += 1
    return total
