import json

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


def make(n_classes=6, window=4):
    return TransitionLedger(n_classes, window), PredictionBank()


class TestObserveBatch:
    def test_first_observation_records_nothing(self):
        ledger, bank = make()
        bt = ledger.observe_batch(bank, [("a", 3)])
        assert len(bt) == 0
        assert bank.get("a") == 3

    def test_transition_recorded(self):
        ledger, bank = make()
        ledger.observe_batch(bank, [("a", 3)])
        bt = ledger.observe_batch(bank, [("a", 5)])
        assert bt.events == ((3, 5),)
        assert bank.get("a") == 5

    def test_same_class_not_recorded(self):
        ledger, bank = make()
        ledger.observe_batch(bank, [("a", 3)])
        bt = ledger.observe_batch(bank, [("a", 3)])
        assert len(bt) == 0

    def test_invalid_class(self):
        ledger, bank = make(n_classes=4)
        with pytest.raises(InvalidClass):
            ledger.observe_batch(bank, [("a", 4)])

    def test_version_increments(self):
        ledger, bank = make()
        for i in range(5):
            ledger.observe_batch(bank, [("a", i % 3)])
            assert ledger.version == i + 1


class TestSimilarity:
    def test_hand_value_two_batches(self):
        # counts m->n of 3 then 1 (avg 2), n->m of 1 then 1 (avg 1)
        ledger, bank = make(n_classes=4, window=8)
        m, n = 0, 1
        ledger.observe_batch(bank, [("a", m), ("b", m), ("c", m), ("x", n)])
        ledger.observe_batch(bank, [("a", n), ("b", n), ("c", n), ("x", m)])
        ledger.observe_batch(bank, [("a", m), ("x", n)])
        # window now holds 3 batches: events {} ; {3x mn, 1x nm} ; {1x nm, 1x mn}
        w = len(ledger.window)
        expected = (4 / w + 2 / w) / 2
        assert ledger.similarity_matrix().values[m, n] == pytest.approx(expected)

    def test_empty_window_is_zero(self):
        ledger, _ = make()
        assert ledger.similarity_matrix().values[0, 1] == 0.0

    def test_diagonal_sentinel(self):
        ledger, _ = make()
        assert ledger.similarity_matrix().values[2, 2] == MAX_SIM

    def test_single_event_matrix(self):
        ledger, bank = make()
        ledger.observe_batch(bank, [("a", 3)])
        ledger.observe_batch(bank, [("a", 5)])
        sim = ledger.similarity_matrix()
        assert sim.ledger_version == 2
        # one event over a 2-batch window: avg 0.5, symmetrized 0.25
        assert sim.values[3, 5] == pytest.approx(0.25)
        assert sim.values[5, 3] == pytest.approx(0.25)
        off = ~np.eye(6, dtype=bool)
        others = sim.values[off]
        assert np.count_nonzero(others) == 2

    def test_empty_matrix(self):
        ledger, _ = make()
        sim = ledger.similarity_matrix()
        off = ~np.eye(6, dtype=bool)
        assert np.all(sim.values[off] == 0.0)
        assert np.all(np.diag(sim.values) == MAX_SIM)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_window_oracle_and_symmetry(data):
    K = data.draw(st.integers(3, 8))
    window = data.draw(st.sampled_from([1, 2, 4]))
    n_batches = data.draw(st.integers(1, 12))
    ledger, bank = make(K, window)
    for _ in range(n_batches):
        batch = data.draw(
            st.lists(
                st.tuples(st.integers(0, 4), st.integers(0, K - 1)), max_size=8
            )
        )
        ledger.observe_batch(bank, batch)
    assert np.array_equal(ledger.running_sum, rebuild_running_sum(ledger))
    assert np.all(np.diag(ledger.running_sum) == 0)
    assert len(ledger.window) <= window
    assert ledger.version == n_batches
    values = ledger.similarity_matrix().values
    assert np.array_equal(values, values.T)


class TestSnapshot:
    def test_round_trip(self):
        ledger, bank = make()
        for step in range(7):
            ledger.observe_batch(bank, [("a", step % 4), ("b", (step + 1) % 3)])
        restored = TransitionLedger.from_json(ledger.to_json())
        assert restored.n_classes == ledger.n_classes
        assert restored.window_size == ledger.window_size
        assert restored.version == ledger.version
        assert np.array_equal(restored.running_sum, ledger.running_sum)
        assert [b.events for b in restored.window] == [b.events for b in ledger.window]

    def test_magic_required(self):
        with pytest.raises(SchemaError):
            TransitionLedger.from_json('{"magic": "nope"}')

    def test_bad_json(self):
        with pytest.raises(SchemaError):
            TransitionLedger.from_json("{not json")

    @staticmethod
    def snapshot(**override) -> dict:
        ledger, bank = make(n_classes=4, window=2)
        ledger.observe_batch(bank, [("a", 1)])
        ledger.observe_batch(bank, [("a", 2)])
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
