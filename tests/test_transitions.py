import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soclabel.errors import InvalidClass
from soclabel.transitions import MAX_SIM, TransitionLedger, rebuild_running_sum


def make(n_classes=6, window=4, n_ids=8):
    return TransitionLedger(n_classes, window, n_ids)


def observe(ledger, batch):
    """observe_batch on a list of (sample_id, predicted_class) pairs."""
    ids = [sample_id for sample_id, _ in batch]
    preds = [pred for _, pred in batch]
    return ledger.observe_batch(ids, preds)


A, B, C, X = range(4)  # sample ids


class TestObserveBatch:
    def test_first_observation_records_nothing(self):
        ledger = make()
        bt = observe(ledger, [(A, 3)])
        assert len(bt) == 0
        assert ledger.last_pred[A] == 3

    def test_transition_recorded(self):
        ledger = make()
        observe(ledger, [(A, 3)])
        bt = observe(ledger, [(A, 5)])
        assert bt.tolist() == [[3, 5]]
        assert ledger.last_pred[A] == 5

    def test_same_class_not_recorded(self):
        ledger = make()
        observe(ledger, [(A, 3)])
        bt = observe(ledger, [(A, 3)])
        assert len(bt) == 0

    def test_invalid_class(self):
        ledger = make(n_classes=4)
        with pytest.raises(InvalidClass):
            observe(ledger, [(A, 4)])

    def test_version_increments(self):
        ledger = make()
        for i in range(5):
            observe(ledger, [(A, i % 3)])
            assert ledger.version == i + 1


class TestSimilarity:
    def test_hand_value_two_batches(self):
        # counts m->n of 3 then 1, n->m of 1 then 1
        ledger = make(n_classes=4, window=8)
        m, n = 0, 1
        observe(ledger, [(A, m), (B, m), (C, m), (X, n)])
        observe(ledger, [(A, n), (B, n), (C, n), (X, m)])
        observe(ledger, [(A, m), (X, n)])
        # window now holds 3 batches: events {} ; {3x mn, 1x nm} ; {1x nm, 1x mn}
        # C[m, n] + C[n, m] = 4 + 2, whatever the window's length.
        assert ledger.similarity_matrix()[m, n] == 6.0

    def test_empty_window_is_zero(self):
        ledger = make()
        assert ledger.similarity_matrix()[0, 1] == 0.0

    def test_diagonal_sentinel(self):
        ledger = make()
        assert ledger.similarity_matrix()[2, 2] == MAX_SIM

    def test_single_event_matrix(self):
        ledger = make()
        observe(ledger, [(A, 3)])
        observe(ledger, [(A, 5)])
        sim = ledger.similarity_matrix()
        assert ledger.version == 2
        # one event in a 2-batch window: C[3, 5] + C[5, 3] = 1
        assert sim[3, 5] == 1.0
        assert sim[5, 3] == 1.0
        off = ~np.eye(6, dtype=bool)
        others = sim[off]
        assert np.count_nonzero(others) == 2

    def test_empty_matrix(self):
        ledger = make()
        sim = ledger.similarity_matrix()
        off = ~np.eye(6, dtype=bool)
        assert np.all(sim[off] == 0.0)
        assert np.all(np.diag(sim) == MAX_SIM)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_window_oracle_and_symmetry(data):
    K = data.draw(st.integers(3, 8))
    window = data.draw(st.sampled_from([1, 2, 3, 4]))
    n_batches = data.draw(st.integers(1, 12))
    ledger = make(K, window)
    for _ in range(n_batches):
        batch = data.draw(
            st.lists(
                st.tuples(st.integers(0, 4), st.integers(0, K - 1)), max_size=8
            )
        )
        observe(ledger, batch)
    assert np.array_equal(ledger.running_sum, rebuild_running_sum(ledger))
    assert np.all(np.diag(ledger.running_sum) == 0)
    assert len(ledger.window) <= window
    assert ledger.version == n_batches
    values = ledger.similarity_matrix()
    assert np.array_equal(values, values.T)
    # Exact counts off the diagonal, C + C^T, for any window length.
    counts = rebuild_running_sum(ledger)
    off = ~np.eye(K, dtype=bool)
    assert np.array_equal(values[off], (counts + counts.T)[off])


def reference_observe(last_pred: dict, window: list, window_size: int, running_sum, batch):
    """The per-sample dict loop observe_batch replaced, on a dict of last
    predictions and a list of event tuples per batch. Returns the batch's
    events."""
    events = []
    for sample_id, pred in batch:
        prev = last_pred.get(sample_id, -1)
        if prev != -1 and prev != pred:
            events.append((prev, pred))
        last_pred[sample_id] = pred
    if len(window) == window_size:
        for m, n in window.pop(0):
            running_sum[m, n] -= 1
    window.append(events)
    for m, n in events:
        running_sum[m, n] += 1
    return events


class TestObserveOracle:
    @given(
        K=st.sampled_from([2, 3, 7, 32, 200]),
        window=st.sampled_from([1, 2, 5]),
        n_ids=st.integers(1, 40),
        data_seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_dict_loop(self, K, window, n_ids, data_seed):
        # Batches of 0 to 60 draws from n_ids ids repeat ids often; every
        # other batch is drawn without replacement, as training draws them.
        rng = np.random.default_rng(data_seed)
        ledger = make(K, window, n_ids)
        ref_last, ref_window = {}, []
        ref_sum = np.zeros((K, K), dtype=np.int64)
        for i in range(int(rng.integers(1, 12))):
            size = int(rng.integers(0, 61))
            if i % 2:
                ids = rng.choice(n_ids, size=min(size, n_ids), replace=False)
            else:
                ids = rng.integers(0, n_ids, size=size)
            preds = rng.integers(0, K, size=ids.size)
            bt = ledger.observe_batch(ids, preds)
            events = reference_observe(ref_last, ref_window, window, ref_sum,
                                       list(zip(ids.tolist(), preds.tolist())))
            assert [tuple(e) for e in bt.tolist()] == events
            assert np.array_equal(ledger.running_sum, ref_sum)
            expected = np.full(n_ids, -1)
            expected[list(ref_last)] = list(ref_last.values())
            assert ledger.last_pred.tolist() == expected.tolist()
        assert [b.tolist() for b in ledger.window] == [
            [list(e) for e in events] for events in ref_window
        ]

    def test_events_are_read_only(self):
        # Eviction subtracts a batch's events again, so a write into one
        # would leave the running counts out of step with the window.
        ledger = make(window=2)
        observe(ledger, [(A, 1), (B, 2)])
        bt = observe(ledger, [(A, 3), (B, 4)])
        assert bt.dtype == np.int64 and bt.shape == (2, 2)
        for events in (bt, ledger.window[-1]):
            with pytest.raises(ValueError, match="read-only"):
                events[0, 1] = 5
        observe(ledger, [(A, 0)])
        observe(ledger, [(B, 0)])
        assert np.array_equal(ledger.running_sum, rebuild_running_sum(ledger))

    def test_seeded_ledger_bytes(self):
        # 40 batches of 0 to 24 draws from 30 ids, repeats included, at K=12
        # and window 5. The digests were made with the per-sample dict loop's
        # events and with a separate last-prediction array.
        rng = np.random.default_rng(2024)
        ledger = make(n_classes=12, window=5, n_ids=30)
        for _ in range(40):
            ids = rng.integers(0, 30, size=int(rng.integers(0, 25)))
            ledger.observe_batch(ids, rng.integers(0, 12, size=ids.size))
        window = json.dumps([b.tolist() for b in ledger.window])
        assert hashlib.sha256(window.encode()).hexdigest() == (
            "3e1752868f5edbc8d3ce305a5c03b1a994dda4ac85f666e3daa981d1f3f2c566"
        )
        assert hashlib.sha256(ledger.last_pred.tobytes()).hexdigest() == (
            "ca173f2e2b439cfbf5348a5388b4810fcdba4402c0afd197aad192cce55dcf1a"
        )
        assert ledger.version == 40

    def test_repeated_id_moves_within_the_batch(self):
        ledger = make()
        bt = observe(ledger, [(A, 1), (B, 2), (A, 3), (A, 3), (A, 0)])
        assert bt.tolist() == [[1, 3], [3, 0]]
        assert ledger.last_pred[[A, B]].tolist() == [0, 2]

    def test_id_outside_bank_rejected(self):
        ledger = make(n_ids=4)
        for bad in (4, -1):
            with pytest.raises(ValueError):
                observe(ledger, [(bad, 1)])
        assert ledger.version == 0
