import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soclabel.errors import InvalidClass, SchemaError
from soclabel.transitions import (
    MAX_SIM,
    PredictionBank,
    TransitionLedger,
    rebuild_running_sum,
)


def make(n_classes=6, window=4, n_ids=8):
    return TransitionLedger(n_classes, window), PredictionBank(n_ids)


def observe(ledger, bank, batch):
    """observe_batch on a list of (sample_id, predicted_class) pairs."""
    ids = [sample_id for sample_id, _ in batch]
    preds = [pred for _, pred in batch]
    return ledger.observe_batch(bank, ids, preds)


A, B, C, X = range(4)  # sample ids


class TestObserveBatch:
    def test_first_observation_records_nothing(self):
        ledger, bank = make()
        bt = observe(ledger, bank, [(A, 3)])
        assert len(bt) == 0
        assert bank.last_pred[A] == 3

    def test_transition_recorded(self):
        ledger, bank = make()
        observe(ledger, bank, [(A, 3)])
        bt = observe(ledger, bank, [(A, 5)])
        assert bt.tolist() == [[3, 5]]
        assert bank.last_pred[A] == 5

    def test_same_class_not_recorded(self):
        ledger, bank = make()
        observe(ledger, bank, [(A, 3)])
        bt = observe(ledger, bank, [(A, 3)])
        assert len(bt) == 0

    def test_invalid_class(self):
        ledger, bank = make(n_classes=4)
        with pytest.raises(InvalidClass):
            observe(ledger, bank, [(A, 4)])

    def test_version_increments(self):
        ledger, bank = make()
        for i in range(5):
            observe(ledger, bank, [(A, i % 3)])
            assert ledger.version == i + 1


class TestSimilarity:
    def test_hand_value_two_batches(self):
        # counts m->n of 3 then 1, n->m of 1 then 1
        ledger, bank = make(n_classes=4, window=8)
        m, n = 0, 1
        observe(ledger, bank, [(A, m), (B, m), (C, m), (X, n)])
        observe(ledger, bank, [(A, n), (B, n), (C, n), (X, m)])
        observe(ledger, bank, [(A, m), (X, n)])
        # window now holds 3 batches: events {} ; {3x mn, 1x nm} ; {1x nm, 1x mn}
        # C[m, n] + C[n, m] = 4 + 2, whatever the window's length.
        assert ledger.similarity_matrix()[m, n] == 6.0

    def test_empty_window_is_zero(self):
        ledger, _ = make()
        assert ledger.similarity_matrix()[0, 1] == 0.0

    def test_diagonal_sentinel(self):
        ledger, _ = make()
        assert ledger.similarity_matrix()[2, 2] == MAX_SIM

    def test_single_event_matrix(self):
        ledger, bank = make()
        observe(ledger, bank, [(A, 3)])
        observe(ledger, bank, [(A, 5)])
        sim = ledger.similarity_matrix()
        assert ledger.version == 2
        # one event in a 2-batch window: C[3, 5] + C[5, 3] = 1
        assert sim[3, 5] == 1.0
        assert sim[5, 3] == 1.0
        off = ~np.eye(6, dtype=bool)
        others = sim[off]
        assert np.count_nonzero(others) == 2

    def test_empty_matrix(self):
        ledger, _ = make()
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
    ledger, bank = make(K, window)
    for _ in range(n_batches):
        batch = data.draw(
            st.lists(
                st.tuples(st.integers(0, 4), st.integers(0, K - 1)), max_size=8
            )
        )
        observe(ledger, bank, batch)
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


class TestSnapshot:
    def test_round_trip(self):
        ledger, bank = make()
        for step in range(7):
            observe(ledger, bank, [(A, step % 4), (B, (step + 1) % 3)])
        restored = TransitionLedger.from_json(ledger.to_json())
        assert restored.n_classes == ledger.n_classes
        assert restored.window_size == ledger.window_size
        assert restored.version == ledger.version
        assert np.array_equal(restored.running_sum, ledger.running_sum)
        assert [b.tolist() for b in restored.window] == [
            b.tolist() for b in ledger.window
        ]

    def test_seeded_ledger_bytes(self):
        # 40 batches of 0 to 24 draws from 30 ids, repeats included, at K=12
        # and window 5. The digest was made with the per-sample dict loop.
        rng = np.random.default_rng(2024)
        ledger, bank = make(n_classes=12, window=5, n_ids=30)
        for _ in range(40):
            ids = rng.integers(0, 30, size=int(rng.integers(0, 25)))
            ledger.observe_batch(bank, ids, rng.integers(0, 12, size=ids.size))
        assert hashlib.sha256(ledger.to_json().encode()).hexdigest() == (
            "f05ea3726e1063048ce908c65870a646e93d92421f7b6da3e48b75dbc765f1e6"
        )

    def test_magic_required(self):
        with pytest.raises(SchemaError):
            TransitionLedger.from_json('{"magic": "nope"}')

    def test_bad_json(self):
        with pytest.raises(SchemaError):
            TransitionLedger.from_json("{not json")

    @staticmethod
    def snapshot(**override) -> dict:
        ledger, bank = make(n_classes=4, window=2)
        observe(ledger, bank, [(A, 1)])
        observe(ledger, bank, [(A, 2)])
        snap = json.loads(ledger.to_json())
        snap.update(override)
        return snap

    def test_class_index_out_of_range(self):
        # -1 used to wrap onto the last class and (2, -1) onto the diagonal.
        for event in ([2, -1], [-1, 2], [1, 4]):
            with pytest.raises(SchemaError):
                TransitionLedger.from_json(json.dumps(self.snapshot(window=[[event]])))

    def test_window_longer_than_window_size(self):
        snap = self.snapshot(window=[[], [[1, 2]], [[2, 1]]])
        with pytest.raises(SchemaError):
            TransitionLedger.from_json(json.dumps(snap))

    def test_missing_field(self):
        for field in ("n_classes", "window_size", "version", "window"):
            snap = self.snapshot()
            del snap[field]
            with pytest.raises(SchemaError, match=field):
                TransitionLedger.from_json(json.dumps(snap))

    def test_impossible_n_classes_rejected_before_allocation(self):
        # 10**7 classes would need 728 TiB of counts.
        for n_classes in (10**7, 2**14 + 1):
            with pytest.raises(SchemaError, match="n_classes"):
                TransitionLedger.from_json(json.dumps(self.snapshot(n_classes=n_classes)))

    def test_negative_version_rejected(self):
        with pytest.raises(SchemaError, match="version"):
            TransitionLedger.from_json(json.dumps(self.snapshot(version=-1)))
        assert TransitionLedger.from_json(json.dumps(self.snapshot(version=0))).version == 0

    def test_malformed_fields(self):
        for override in (
            {"window": [[[2, 2]]]},  # self-transition
            {"window": [[[1, 2, 3]]]},
            {"window": [[["a", 2]]]},
            {"window": [3]},
            {"window": 3},
            {"n_classes": 1},
            {"n_classes": "4"},
            {"window_size": 0},
            {"version": "x"},
        ):
            with pytest.raises(SchemaError):
                TransitionLedger.from_json(json.dumps(self.snapshot(**override)))


def reference_observe(bank: dict, window: list, window_size: int, running_sum, batch):
    """The per-sample dict loop observe_batch replaced, on a dict bank and
    a list of event tuples per batch. Returns the batch's events."""
    events = []
    for sample_id, pred in batch:
        prev = bank.get(sample_id, -1)
        if prev != -1 and prev != pred:
            events.append((prev, pred))
        bank[sample_id] = pred
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
        # Batches of 0 to 60 draws from n_ids ids repeat ids often.
        rng = np.random.default_rng(data_seed)
        ledger, bank = make(K, window, n_ids)
        ref_bank, ref_window = {}, []
        ref_sum = np.zeros((K, K), dtype=np.int64)
        for _ in range(int(rng.integers(1, 12))):
            ids = rng.integers(0, n_ids, size=int(rng.integers(0, 61)))
            preds = rng.integers(0, K, size=ids.size)
            bt = ledger.observe_batch(bank, ids, preds)
            events = reference_observe(ref_bank, ref_window, window, ref_sum,
                                       list(zip(ids.tolist(), preds.tolist())))
            assert [tuple(e) for e in bt.tolist()] == events
            assert np.array_equal(ledger.running_sum, ref_sum)
        assert [b.tolist() for b in ledger.window] == [
            [list(e) for e in events] for events in ref_window
        ]
        expected = np.full(n_ids, -1)
        expected[list(ref_bank)] = list(ref_bank.values())
        assert bank.last_pred.tolist() == expected.tolist()

    def test_events_are_read_only(self):
        # Eviction subtracts a batch's events again, so a write into one
        # would leave the running counts out of step with the window.
        ledger, bank = make(window=2)
        observe(ledger, bank, [(A, 1), (B, 2)])
        bt = observe(ledger, bank, [(A, 3), (B, 4)])
        assert bt.dtype == np.int64 and bt.shape == (2, 2)
        restored = TransitionLedger.from_json(ledger.to_json())
        for events in (bt, ledger.window[-1], restored.window[-1]):
            with pytest.raises(ValueError, match="read-only"):
                events[0, 1] = 5
        observe(ledger, bank, [(A, 0)])
        observe(ledger, bank, [(B, 0)])
        assert np.array_equal(ledger.running_sum, rebuild_running_sum(ledger))

    def test_repeated_id_moves_within_the_batch(self):
        ledger, bank = make()
        bt = observe(ledger, bank, [(A, 1), (B, 2), (A, 3), (A, 3), (A, 0)])
        assert bt.tolist() == [[1, 3], [3, 0]]
        assert bank.last_pred[[A, B]].tolist() == [0, 2]

    def test_id_outside_bank_rejected(self):
        ledger, bank = make(n_ids=4)
        for bad in (4, -1):
            with pytest.raises(ValueError):
                observe(ledger, bank, [(bad, 1)])
        assert ledger.version == 0


SNAPSHOT_KEYS = ("n_classes", "window_size", "version", "window", "magic")
# Values of the wrong type or range. Integers stay small, because a valid
# n_classes allocates an n_classes x n_classes count matrix.
ODD_VALUES = st.one_of(
    st.sampled_from((None, True, False, 0, -1, 1.5, 3.0, math.inf, -math.inf, math.nan,
                     10**30, -(10**30), "3", [], {})),
    st.integers(-3, 40), st.floats(), st.text(max_size=4),
    st.lists(st.integers(-2, 5), max_size=3),
)


@st.composite
def mutated_snapshots(draw):
    """A valid snapshot's text after one to three mutations."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    K, window = draw(st.integers(2, 8)), draw(st.integers(1, 4))
    ledger, bank = make(n_classes=K, window=window, n_ids=6)
    for _ in range(draw(st.integers(0, 6))):
        ids = rng.integers(0, 6, size=int(rng.integers(0, 8)))
        ledger.observe_batch(bank, ids, rng.integers(0, K, size=ids.size))
    snap = json.loads(ledger.to_json())
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ("class", "retype", "pair", "batch", "drop", "long_window", "truncate")))
        if kind == "drop":
            snap.pop(draw(st.sampled_from(SNAPSHOT_KEYS)), None)
        elif kind == "retype":
            snap[draw(st.sampled_from(SNAPSHOT_KEYS[:-1]))] = draw(ODD_VALUES)
        elif kind in ("class", "pair", "batch") and isinstance(snap.get("window"), list):
            value = draw(st.one_of(st.integers(-3, K + 3), ODD_VALUES))
            event = [draw(st.integers(0, K - 1)), draw(st.integers(0, K - 1))]
            if kind == "class":
                event[draw(st.integers(0, 1))] = value
            elif kind == "pair":
                event = draw(st.sampled_from(([], [0], [0, 1, 1], "01", value)))
            batch = [event] if kind != "batch" else value
            # Replace a batch, so that a full window stays full.
            at = draw(st.integers(0, max(len(snap["window"]) - 1, 0)))
            snap["window"][at:at + 1] = [batch]
        elif kind == "long_window":
            snap["window"] = [[] for _ in range(window + draw(st.integers(1, 3)))]
    text = json.dumps(snap)
    if kind == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


class TestSnapshotFuzz:
    @given(text=mutated_snapshots())
    @settings(max_examples=300, deadline=None)
    def test_loads_valid_or_raises_schema_error(self, text):
        try:
            ledger = TransitionLedger.from_json(text)
        except SchemaError:
            return
        # Whatever loads keeps the invariants observe_batch relies on.
        K = ledger.n_classes
        assert type(K) is int and K >= 2
        assert type(ledger.window_size) is int and ledger.window_size >= 1
        assert type(ledger.version) is int
        assert len(ledger.window) <= ledger.window_size
        for batch in ledger.window:
            assert np.all((batch >= 0) & (batch < K))
            assert np.all(batch[:, 0] != batch[:, 1])
        assert np.array_equal(ledger.running_sum, rebuild_running_sum(ledger))
