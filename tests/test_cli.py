import contextlib
import errno
import importlib.util
import io
import json
import math
import os
import sys
import subprocess
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soclabel import cli, clustering, sim, verify
from soclabel import labels as lb
from soclabel.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    LOG_SCHEMA,
    READ_BLOCK,
    _read_log,
    main,
)
from soclabel.clustering import cluster_labels
from soclabel.errors import SchemaError, UnknownSuite
from soclabel.kselect import select_k
from soclabel.losses import softmax
from soclabel.sim import EVAL_BLOCK

DATA = Path(__file__).parent / "data"
TOY_LOG = str(DATA / "toy_log.ndjson")
GOLDEN = DATA / "golden_select.ndjson"
# K=32 log from perfbench/loggen.py: generate_log(7, n_ids=24, n_steps=4,
# groups=8, group_size=4). Its final step uses five distinct k and
# non-singleton clusters, so any change in how selection sums shows here.
MULTI_LOG = str(DATA / "multi_log.ndjson")
GOLDEN_MULTI = DATA / "golden_multi_select.ndjson"
# `cluster MULTI_LOG --seed 0` output with --k 4 and with --policy linear.
GOLDEN_CLUSTER = {
    ("--k", "4"): DATA / "golden_multi_cluster_k4.json",
    ("--policy", "linear"): DATA / "golden_multi_cluster_linear.json",
}
LOGGEN = Path(__file__).resolve().parent.parent / "perfbench" / "loggen.py"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_select(tmp_path, *extra, log=TOY_LOG):
    out = tmp_path / "out.ndjson"
    code = main(["select", log, "--seed", "0", "--out", str(out), *extra])
    return code, out


class TestSelect:
    def test_golden_round_trip_bytes(self, tmp_path):
        for log, golden in ((TOY_LOG, GOLDEN), (MULTI_LOG, GOLDEN_MULTI)):
            code, out = run_select(tmp_path, log=log)
            assert code == EXIT_OK
            assert out.read_bytes() == golden.read_bytes()

    def test_bad_policy_exits_usage(self, capsys):
        for command in ("select", "cluster"):
            for flags in (["--policy", "fixed"], ["--policy", "fixed", "--k", "9"],
                          ["--alpha", "1.0"], ["--alpha", "nan"], ["--alpha", "inf"],
                          ["--policy", "exp", "--beta=-inf"]):
                assert main([command, TOY_LOG, *flags]) == EXIT_USAGE
                err = capsys.readouterr().err
                assert err.startswith("config error: --policy "), (command, flags, err)
                assert err.count("\n") == 1, err

    def test_policy_flags_checked_before_reading_the_log(self, capsys, monkeypatch):
        # Types, and flags the policy does not read, need no K. A lone
        # --k is cluster's cluster count, so it is not among these.
        monkeypatch.setattr(cli, "_read_log", no_training)
        for command, flags, message in (
            ("select", ["--policy", "fixed"], "fixed: k must be an integer, got None"),
            ("select", ["--alpha", "nan"], "linear: alpha must be a finite number, got nan"),
            ("select", ["--alpha", "inf"], "linear: alpha must be a finite number, got inf"),
            ("cluster", ["--policy", "exp", "--beta=-inf"],
             "exp: beta must be a finite number, got -inf"),
            ("select", ["--k", "2"], "linear: policy linear reads alpha, not k"),
            ("select", ["--policy", "exp", "--alpha", "3"], "exp: policy exp reads beta, not alpha"),
            ("select", ["--policy", "fixed", "--k", "3", "--beta", "0.3"],
             "fixed: policy fixed reads k, not beta"),
            ("cluster", ["--policy", "fixed"], "fixed: k must be an integer, got None"),
            ("cluster", ["--policy", "linear", "--k", "2"],
             "linear: policy linear reads alpha, not k"),
            ("cluster", ["--k", "2", "--beta", "0.3"], "linear: policy linear reads alpha, not beta, k"),
        ):
            assert main([command, TOY_LOG, *flags]) == EXIT_USAGE
            assert capsys.readouterr().err == f"config error: --policy {message}\n"

    def test_non_positive_window_exits_usage_before_reading(self, capsys):
        # The log does not exist: the window is checked first.
        for nb in ("0", "-1"):
            assert main(["select", "missing.ndjson", "--nb", nb]) == EXIT_USAGE
            assert capsys.readouterr().err == f"config error: --nb must be positive, got {nb}\n"

    def test_replay_twice_identical(self, tmp_path):
        _, first = run_select(tmp_path)
        second = tmp_path / "again.ndjson"
        main(["select", TOY_LOG, "--seed", "0", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_output_rows_are_valid_selections(self, tmp_path):
        _, out = run_select(tmp_path)
        for line in out.read_text().splitlines():
            rec = json.loads(line)
            p = rec["p_tilde"]
            assert sum(p) == pytest.approx(1.0, abs=1e-9)
            support = {i for i, v in enumerate(p) if v > 0}
            assert support <= set(rec["candidate_classes"])
            assert rec["entropy_after"] <= rec["entropy_before"] + 1e-12

    def test_hand_traced_similarity_edge(self, tmp_path, capsys):
        # Samples a and b swap between classes 0 and 1, so those classes
        # cluster together. At k=2 the partition is {0,1},{2,3} from any
        # start, so b (k=2) keeps {0, 1}. At k=3 both {0,1},{2},{3} and
        # {0},{1},{2,3} are fixed points, so a (k=3) keeps {0, 1} or {0},
        # by seed, with its input mass renormalized on them.
        a_probs = [0.7, 0.2, 0.06, 0.04]
        for seed in range(20):
            out = tmp_path / "out.ndjson"
            assert main(["select", TOY_LOG, "--seed", str(seed), "--out", str(out)]) == EXIT_OK
            by_id = {json.loads(l)["id"]: json.loads(l) for l in out.read_text().splitlines()}
            a, b = by_id["a"], by_id["b"]
            assert (a["k"], b["k"]) == (3, 2)
            assert b["candidate_classes"] == [0, 1]
            assert a["candidate_classes"] in ([0, 1], [0])
            mass = sum(a_probs[c] for c in a["candidate_classes"])
            expected = [a_probs[c] / mass if c in a["candidate_classes"] else 0.0
                        for c in range(4)]
            assert a["p_tilde"] == pytest.approx(expected)

            assert main(["cluster", TOY_LOG, "--k", "2", "--seed", str(seed)]) == EXIT_OK
            clusters = json.loads(capsys.readouterr().out)["clusters"]
            assert {frozenset(c) for c in clusters} == {frozenset({0, 1}), frozenset({2, 3})}

    def test_single_step_log_warns(self, tmp_path, capsys):
        log = tmp_path / "single.ndjson"
        log.write_text(
            '{"schema": "soc-log-v1", "id": "a", "step": 0, "probs": [0.5, 0.3, 0.2]}\n'
        )
        code = main(["select", str(log), "--seed", "0", "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        assert "cold" in capsys.readouterr().err

    def test_steps_span_int64(self, tmp_path):
        # Replay orders steps numerically across the whole int64 range:
        # a moves from class 0 at the lowest step to class 1 at the highest.
        log = tmp_path / "wide.ndjson"
        line = '{"schema": "soc-log-v1", "id": "a", "step": %d, "probs": %s}\n'
        log.write_text(line % (2**63 - 1, "[0.1, 0.8, 0.1]") + line % (-2**63, "[0.8, 0.1, 0.1]"))
        records, names, final_probs, n_classes = _read_log(str(log))
        assert records.tolist() == [[2**63 - 1, -2**63], [0, 0], [1, 0]]
        ledger = cli._replay(records, n_classes, 4)
        assert ledger.running_sum.tolist() == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
        assert final_probs.argmax(axis=1).tolist() == [1]
        code, _ = run_select(tmp_path, log=str(log))
        assert code == EXIT_OK

    def test_soc_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOC_SEED", "0")
        out = tmp_path / "env.ndjson"
        code = main(["select", TOY_LOG, "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_bytes() == GOLDEN.read_bytes()


class TestLogErrors:
    def test_empty_log(self, tmp_path):
        log = tmp_path / "empty.ndjson"
        log.write_text("")
        assert main(["select", str(log)]) == EXIT_DATA

    def test_missing_file(self):
        assert main(["select", "/nonexistent/log.ndjson"]) == EXIT_DATA

    def test_unreadable_log(self, tmp_path, capsys, monkeypatch):
        def assert_cannot_read(path, reason):
            for command in ("select", "cluster"):
                assert main([command, path]) == EXIT_DATA
                assert capsys.readouterr().err == f"data error: cannot read {path}: {reason}\n"

        assert_cannot_read("/nonexistent/log.ndjson", "No such file or directory")
        assert_cannot_read(str(tmp_path), "Is a directory")
        # The tests may run as root, whom file modes do not stop.
        monkeypatch.setattr(cli, "open", denied, raising=False)
        assert_cannot_read(TOY_LOG, "Permission denied")

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        log = tmp_path / "bad.ndjson"
        bad_lines = (
            "{not json",
            '{"schema": "soc-log-v1", "id": "b", "step": 0, "probs": [0.0, 0.0]}',
            '{"schema": "soc-log-v1", "id": "b", "step": 0, "probs": [1.5, -0.5]}',
            # Not an object, an infinite step, a probability too large for a float.
            "[1.0, 0.0]",
            '{"schema": "soc-log-v1", "id": "b", "step": Infinity, "probs": [1, 0]}',
            '{"schema": "soc-log-v1", "id": "b", "step": 0, "probs": [1' + "0" * 400
            + ", 0]}",
            # A step past Python's integer digit limit.
            '{"schema": "soc-log-v1", "id": "b", "step": 1' + "0" * 5000 + ', "probs": [1, 0]}',
        )
        # An id must be a JSON string and a step a JSON integer: int() would
        # take 1.7, true and "0", and str() would merge 5 with "5".
        wrong_types = {
            '"id": 5, "step": 0': "id must be a string, got 5",
            '"id": null, "step": 0': "id must be a string, got None",
            '"id": "b", "step": 1.7': "step must be an integer, got 1.7",
            '"id": "b", "step": 1.0': "step must be an integer, got 1.0",
            '"id": "b", "step": true': "step must be an integer, got True",
            '"id": "b", "step": "0"': "step must be an integer, got '0'",
            # Steps are kept as int64.
            '"id": "b", "step": 9223372036854775808':
                "step must be in [-2**63, 2**63), got 9223372036854775808",
            '"id": "b", "step": -9223372036854775809':
                "step must be in [-2**63, 2**63), got -9223372036854775809",
        }
        cases = [(bad, None) for bad in bad_lines] + [
            ('{"schema": "soc-log-v1", %s, "probs": [1, 0]}' % fields, message)
            for fields, message in wrong_types.items()]
        for bad, message in cases:
            log.write_text(
                '{"schema": "soc-log-v1", "id": "a", "step": 0, "probs": [1.0, 0.0]}\n'
                + bad + "\n"
            )
            assert main(["select", str(log)]) == EXIT_DATA
            err = capsys.readouterr().err
            assert "line 2" in err
            if message:
                assert err == f"data error: line 2: bad record fields ({message})\n"

    def test_probs_hold_json_numbers_only(self, tmp_path, capsys):
        # np.asarray would read a numeric string and true as numbers, and
        # null as NaN.
        log = tmp_path / "types.ndjson"
        line = '{"schema": "soc-log-v1", "id": "%s", "step": 0, "probs": %s}\n'
        for probs, bad in (('["0.5", "0.25", "0.25"]', "'0.5'"),
                           ("[true, false, false]", "True"),
                           ("[0.5, true, 0.5]", "True"),
                           ("[0.5, 0.5, false]", "False"),
                           ("[0.5, null, 0.5]", "None")):
            log.write_text(line % ("a", "[0.5, 0.25, 0.25]") + line % ("b", probs))
            assert main(["select", str(log)]) == EXIT_DATA
            assert capsys.readouterr().err == (
                f"data error: line 2: bad record fields (probs must hold numbers, got {bad})\n")
        # JSON integers are numbers.
        log.write_text(line % ("a", "[1, 0, 0]") + line % ("b", "[0.5, 0.25, 0.25]"))
        assert main(["select", str(log)]) == EXIT_OK
        capsys.readouterr()

    def test_deep_nesting_is_malformed_json(self, tmp_path, capsys):
        # json.loads raises RecursionError past about 1000 levels.
        deep = "[" * 100_000 + "]" * 100_000
        log = tmp_path / "deep.ndjson"
        good = '{"schema": "soc-log-v1", "id": "a", "step": 0, "probs": [0.5, 0.5]}\n'
        for bad in (deep,
                    '{"schema": "soc-log-v1", "id": "b", "step": 0, "probs": %s}' % deep,
                    '{"schema": "soc-log-v1", "id": "b", "step": 0, "x": %s}' % deep):
            log.write_text(good + bad + "\n")
            for command in ("select", "cluster"):
                assert main([command, str(log)]) == EXIT_DATA
                err = capsys.readouterr().err
                assert err.startswith("data error: line 2: malformed JSON (maximum recursion")
                assert err.count("\n") == 1

    def test_line_not_utf8_reports_number(self, tmp_path, capsys):
        # The first undecodable line is named, whether it is the first
        # line or follows good ones; a good line after it changes nothing.
        good = b'{"schema": "soc-log-v1", "id": "%s", "step": 0, "probs": [0.5, 0.5]}\n'
        bad = b'\xff\xfe{"schema": "soc-log-v1", "id": "x", "step": 0, "probs": [1, 0]}\n'
        log = tmp_path / "latin.ndjson"
        for lines, lineno in (([bad, good % b"a"], 1),
                              ([good % b"a", good % b"b", bad, bad], 3),
                              ([good % b"a", good % b"\xe9"], 2)):
            log.write_bytes(b"".join(lines))
            assert main(["select", str(log)]) == EXIT_DATA
            err = capsys.readouterr().err
            assert err == f"data error: line {lineno}: not UTF-8\n"

    def test_overflowing_row_prints_one_line(self, tmp_path):
        # Finite probabilities whose sum overflows, and a row normalized
        # to +-inf, fail with the data error alone: no numpy warning. A
        # fresh interpreter prints warnings as a user would see them.
        log = tmp_path / "overflow.ndjson"
        for probs, message in (("[1e308, 1e308, 0.5]", "sum to 0.0, not 1"),
                               ("[1.0, -1.0]", "must be finite")):
            log.write_text('{"schema": "soc-log-v1", "id": "a", "step": 0, "probs": %s}\n'
                           % probs)
            done = subprocess.run(
                [sys.executable, "-m", "soclabel.cli", "select", str(log)],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
            )
            assert done.returncode == EXIT_DATA
            assert done.stderr == (
                f"data error: line 1: bad probabilities (probabilities {message})\n")

    def test_k_mismatch(self, tmp_path):
        log = tmp_path / "mismatch.ndjson"
        log.write_text(
            '{"schema": "soc-log-v1", "id": "a", "step": 0, "probs": [1.0, 0.0]}\n'
            '{"schema": "soc-log-v1", "id": "b", "step": 0, "probs": [0.5, 0.3, 0.2]}\n'
        )
        assert main(["select", str(log)]) == EXIT_DATA

    def test_duplicate_id_step(self, tmp_path):
        line = '{"schema": "soc-log-v1", "id": "a", "step": 0, "probs": [1.0, 0.0]}\n'
        log = tmp_path / "dup.ndjson"
        log.write_text(line + line)
        assert main(["select", str(log)]) == EXIT_DATA

    def test_wrong_schema(self, tmp_path):
        log = tmp_path / "schema.ndjson"
        log.write_text('{"schema": "v0", "id": "a", "step": 0, "probs": [1.0, 0.0]}\n')
        assert main(["select", str(log)]) == EXIT_DATA

    def test_probability_error_before_structural_error_in_one_block(self, tmp_path):
        # Line 3's row waits in the block when line 5 fails its own check;
        # the earlier line is the one reported.
        good = '{"schema": "soc-log-v1", "id": "%s", "step": 0, "probs": [0.5, 0.5]}'
        lines = [good % "a", good % "b",
                 '{"schema": "soc-log-v1", "id": "c", "step": 0, "probs": [-1.0, 2.0]}',
                 good % "d", good % "a"]
        log = tmp_path / "two_faults.ndjson"
        log.write_text("\n".join(lines) + "\n")
        for read in (_read_log, reference_read_log):
            with pytest.raises(SchemaError) as exc:
                read(str(log))
            assert str(exc.value) == (
                "line 3: bad probabilities (probabilities must be non-negative)"
            )

    def test_repeat_comes_before_shape_and_probabilities(self, tmp_path):
        # A line that repeats an earlier (id, step) fails as a repeat even
        # when its probabilities are also bad; a bad row waiting in the
        # block comes before a later line's shape or repeat.
        line = '{"schema": "soc-log-v1", "id": "a", "step": 0, "probs": %s}'
        good, bad = line % "[0.5, 0.5]", line % "[-1.0, 2.0]"
        bad_b = bad.replace('"a"', '"b"')
        nested = '{"schema": "soc-log-v1", "id": "%s", "step": 0, "probs": [[0.5, 0.5]]}'
        log = tmp_path / "repeat.ndjson"
        for lines, message in (
            ([good, line % "[[0.5, 0.5]]"], "line 2: duplicate (id, step)"),
            ([good, bad], "line 2: duplicate (id, step)"),
            ([bad, good], "line 1: bad probabilities (probabilities must be non-negative)"),
            # A waiting bad row comes before a later line's shape, and
            # before a later line's repeat of an earlier key.
            ([good, bad_b, nested % "c"], "line 2: bad probabilities "
                                          "(probabilities must be non-negative)"),
            ([good, bad_b, nested % "a"], "line 2: bad probabilities "
                                          "(probabilities must be non-negative)"),
        ):
            log.write_text("\n".join(lines) + "\n")
            for read in (_read_log, reference_read_log):
                with pytest.raises(SchemaError) as exc:
                    read(str(log))
                assert str(exc.value) == message


def reference_read_log(path: str):
    """The record-by-record parser that _read_log replaced, kept as the
    oracle. It returns (records, final_step, n_classes), where final_step
    holds (id, probability row) for the records of the highest step."""
    records = []
    final_step = []
    top_step = None
    n_classes = None
    seen = set()
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"line {lineno}: malformed JSON ({exc.msg})") from exc
            if rec.get("schema") != LOG_SCHEMA:
                raise SchemaError(f"line {lineno}: expected schema {LOG_SCHEMA!r}")
            try:
                sample_id, step = rec["id"], rec["step"]
                if type(sample_id) is not str:
                    raise TypeError(f"id must be a string, got {sample_id!r}")
                if type(step) is not int:
                    raise TypeError(f"step must be an integer, got {step!r}")
                if not -2**63 <= step < 2**63:
                    raise ValueError(f"step must be in [-2**63, 2**63), got {step}")
                probs = np.asarray(rec["probs"], dtype=float)
                # JSON numbers only: asarray would take "0.5", true and null.
                for value in rec["probs"] if isinstance(rec["probs"], list) else ():
                    if type(value) in (str, bool, type(None)):
                        raise TypeError(f"probs must hold numbers, got {value!r}")
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f"line {lineno}: bad record fields ({exc})") from exc
            if n_classes is None:
                n_classes = probs.size
            elif probs.size != n_classes:
                raise SchemaError(
                    f"line {lineno}: K mismatch ({probs.size} != {n_classes})"
                )
            if (sample_id, step) in seen:
                raise SchemaError(f"line {lineno}: duplicate (id, step)")
            seen.add((sample_id, step))
            try:
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    p = probs / probs.sum()
                lb.check_rows(p[None])
            except ValueError as exc:
                raise SchemaError(f"line {lineno}: bad probabilities ({exc})") from exc
            records.append((step, sample_id, int(np.argmax(p))))
            if top_step is None or step > top_step:
                top_step, final_step = step, []
            if step == top_step:
                final_step.append((sample_id, p))
    if not records:
        raise SchemaError("log contains no records")
    return records, final_step, n_classes


PROB_FAULTS = ("nan", "inf", "-inf", "negative", "zero_row", "overflow", "nested")
LINE_FAULTS = ("string_probs", "non_numbers", "missing_field", "field_types", "k_mismatch",
               "duplicate", "schema", "malformed")
# A repeated (id, step) whose probabilities are also bad: the repeat is
# the line's error.
REPEAT_FAULTS = tuple(f"duplicate+{fault}" for fault in PROB_FAULTS)


def valid_rows(rng, n, K):
    """Rows as a logger might write them: rounded to 6 decimals, scaled off
    a sum of 1, small integers full of ties, or a top pair one ulp apart
    that normalizing may tie, larger at the later index."""
    rows = rng.dirichlet(np.full(K, rng.choice([0.1, 1.0, 10.0])), size=n)
    style = rng.integers(0, 5, size=n)
    rows[style == 1] = np.round(rows[style == 1], 6)
    rows[style == 2] *= rng.uniform(0.5, 3.0, size=(int((style == 2).sum()), 1))
    ties = rng.integers(0, 3, size=(int((style == 3).sum()), K)).astype(float)
    ties[:, 0] += 1.0
    rows[style == 3] = ties
    near = rows[style == 4]
    near[:, 0] = near.max(axis=1) * 1.7
    near[:, 1] = np.nextafter(near[:, 0], np.inf)
    rows[style == 4] = near
    return rows


def inject(rec: dict, kind: str, rng, K: int, keys: list, i: int) -> str:
    """Record i's line with a fault of the given kind; "duplicate+F"
    repeats line i - 1's key on line i and adds fault F."""
    if kind.startswith("duplicate+"):
        rec["id"], rec["step"] = keys[i - 1]
        kind = kind.removeprefix("duplicate+")
    probs = rec["probs"]
    j = int(rng.integers(K))
    if kind in ("nan", "inf", "-inf", "negative"):
        probs[j] = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
                    "negative": -0.25}[kind]
    elif kind == "zero_row":
        rec["probs"] = [0.0] * K
    elif kind == "overflow":
        rec["probs"] = [1e308] * K
    elif kind == "nested":
        rec["probs"] = [probs]
    elif kind == "string_probs":
        rec["probs"] = ["abc", "0.5", ["x"] * K][j % 3]
    elif kind == "non_numbers":
        if j % 4 == 3:
            rec["probs"] = [c == j for c in range(K)]
        else:
            probs[j] = (str(probs[j]), True, None)[j % 4]
    elif kind == "missing_field":
        del rec[("schema", "id", "step", "probs")[j % 4]]
    elif kind == "field_types":
        key, value = (("id", 5), ("id", None), ("step", 1.5), ("step", 1.0),
                      ("step", True), ("step", "0"), ("step", 2**63),
                      ("step", -2**63 - 1))[j % 8]
        rec[key] = value
    elif kind == "k_mismatch":
        rec["probs"] = probs + [0.0] if j % 2 else probs[:-1]
    elif kind == "duplicate" and len(keys) > 1:
        rec["id"], rec["step"] = keys[i - 1] if i else keys[1]
    elif kind == "schema":
        rec["schema"] = "soc-log-v0"
    line = json.dumps(rec)
    if kind == "malformed":
        line = line[: 1 + j % (len(line) - 1)]
    return line


@st.composite
def fault_logs(draw):
    """A log text near the block boundaries, with steps in or out of
    order, blank lines, LF, CRLF or CR line ends, and up to three faults:
    at times a repeated (id, step) with bad probabilities, and at times a
    probability fault followed by a line fault, often a repeat, in the
    same block."""
    K = draw(st.sampled_from((2, 3, 7, 8, 9, 32, 127, 128, 129, 200)))
    n = draw(st.sampled_from(
        (1, 2, 5, READ_BLOCK - 1, READ_BLOCK, READ_BLOCK + 1, 2 * READ_BLOCK + 1)))
    n_ids = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = [(f"s{i % n_ids}", i // n_ids) for i in range(n)]
    if draw(st.booleans()):
        keys = [keys[i] for i in rng.permutation(n)]
    at = st.one_of(st.sampled_from((0, READ_BLOCK - 1, READ_BLOCK, n - 1)),
                   st.integers(0, n - 1)).map(lambda i: min(i, n - 1))
    faults = dict(draw(st.lists(
        st.tuples(at, st.sampled_from(PROB_FAULTS + LINE_FAULTS)), max_size=2)))
    if n > 1 and draw(st.booleans()):
        first = draw(st.integers(0, n - 2))
        room = min(n - 1, (first // READ_BLOCK + 1) * READ_BLOCK - 1) - first
        if room:
            second = first + draw(st.integers(1, room))
            faults = {first: draw(st.sampled_from(PROB_FAULTS)),
                      second: draw(st.one_of(st.just("duplicate"),
                                             st.sampled_from(LINE_FAULTS)))}
    if n > 1 and draw(st.booleans()):
        faults[draw(at.map(lambda i: max(i, 1)))] = draw(st.sampled_from(REPEAT_FAULTS))
    blanks = draw(st.lists(st.tuples(st.integers(0, n), st.sampled_from(("", "  ", "\t"))),
                           max_size=3))

    lines = []
    for i, ((sample_id, step), row) in enumerate(zip(keys, valid_rows(rng, n, K).tolist())):
        rec = {"schema": LOG_SCHEMA, "id": sample_id, "step": step, "probs": row}
        lines.append(inject(rec, faults[i], rng, K, keys, i) if i in faults
                     else json.dumps(rec))
    for pos, blank in sorted(blanks, reverse=True):
        lines.insert(pos, blank)
    # Both readers number lines by Python's universal newlines.
    end = draw(st.sampled_from(("\n", "\r\n", "\r")))
    return end.join(lines) + end


class TestReadLogOracle:
    """_read_log against the record-by-record parser: the same records,
    final-step rows and K, or the same error and exit code."""

    @given(text=fault_logs())
    @settings(max_examples=200, deadline=None)
    def test_matches_record_by_record_parser(self, tmp_path_factory, text):
        log = tmp_path_factory.mktemp("oracle") / "log.ndjson"
        log.write_bytes(text.encode())
        try:
            expected = reference_read_log(str(log))
        except SchemaError as exc:
            expected = str(exc)
        try:
            got = _read_log(str(log))
        except SchemaError as exc:
            assert str(exc) == expected
        else:
            records, final_step, n_classes = expected
            got_records, names, final_probs, got_classes = got
            # Every record's step, id and argmax; ids are numbered in order
            # of first appearance.
            steps, ids, preds = got_records.tolist()
            assert list(zip(steps, [names[i] for i in ids], preds)) == records
            assert names == list(dict.fromkeys(sample_id for _, sample_id, _ in records))
            top = max(steps)
            assert [names[i] for s, i in zip(steps, ids) if s == top] == [
                sample_id for sample_id, _ in final_step]
            want = np.stack([p for _, p in final_step])
            assert final_probs.dtype == want.dtype and final_probs.shape == want.shape
            assert final_probs.tobytes() == want.tobytes()
            assert got_classes == n_classes
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["select", str(log), "--policy", "fixed", "--k", "2",
                         "--seed", "0", "--out", str(log.with_suffix(".out"))])
        if isinstance(expected, str):
            assert (code, stderr.getvalue()) == (EXIT_DATA, f"data error: {expected}\n")
        else:
            # Every k-policy needs K >= 3, so a valid K = 2 log is a usage error.
            assert code == (EXIT_OK if expected[2] >= 3 else EXIT_USAGE)


def load_loggen():
    spec = importlib.util.spec_from_file_location("perfbench_loggen", LOGGEN)
    module = importlib.util.module_from_spec(spec)
    # Its dataclass looks its module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
def test_read_log_memory_stays_near_the_final_step(tmp_path):
    # K=200, 1000 ids x 10 steps: the final step's rows take 1.6 MB, a
    # stack of the whole log 16 MB.
    log = tmp_path / "k200.ndjson"
    log.write_text(load_loggen().generate_log(0).text)
    tracemalloc.start()
    try:
        _read_log(str(log))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000


def read_side_memory(path: str) -> tuple[int, int]:
    """tracemalloc's (live, peak) bytes after _read_log and _replay of the
    log at path, with their results still held."""
    tracemalloc.start()
    try:
        records, names, final_probs, n_classes = _read_log(path)
        ledger = cli._replay(records, n_classes, 512)
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


@pytest.mark.slow
def test_read_side_memory_per_record(tmp_path):
    # 1000 ids over 10 and over 40 steps. What a record costs does not
    # depend on K (its probabilities are dropped once checked, and the
    # final step's rows are the same size in both logs), so K=32 keeps
    # the log small; K=200 reads the same to 1 B live and 5 B at peak.
    loggen = load_loggen()
    use = []
    for n_steps in (10, 40):
        log = tmp_path / f"steps{n_steps}.ndjson"
        log.write_text(loggen.generate_log(0, n_steps=n_steps, groups=8, group_size=4).text)
        use.append(read_side_memory(str(log)))
    added = 30 * 1000
    live, peak = ((more - less) / added for less, more in zip(*use))
    # Live: three int64s a record, and the ledger's window of transitions.
    # Peak: the read's four int64s a record (its line number too), stacked
    # at the end of the read, and the sort that finds repeated keys.
    assert live < 40 and peak < 100, (live, peak)


@pytest.mark.slow
def test_select_memory_grows_with_the_final_rows_only(tmp_path):
    # K=200, 3 steps: 3000 more final ids add 4.8 MB of probability rows.
    # Targets, masks and entropies are built a block at a time, so the
    # peak grows by the rows kept and their output, not by several
    # (rows x K) arrays at once.
    loggen = load_loggen()
    peaks = []
    for n_ids in (1000, 4000):
        log = tmp_path / f"ids{n_ids}.ndjson"
        log.write_text(loggen.generate_log(0, n_ids=n_ids, n_steps=3).text)
        tracemalloc.start()
        try:
            code = main(["select", str(log), "--seed", "0", "--out", str(tmp_path / "out")])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
    rows = 3000 * 200 * 8
    assert peaks[1] - peaks[0] < 2.5 * rows, peaks


def test_k200_clustering_call_memory(tmp_path):
    # generate_log(0)'s final step asks for 24 distinct ks up to k=29, 375
    # real clusters. They run in groups of BLOCK_ELEMENTS // (K * 29) = 2
    # partitions, whose gather and lockstep arrays each span at most
    # BLOCK_ELEMENTS values, so the call holds little beyond its two K x K
    # copies (640 KB): 0.89 MB. All in one pass, it peaked at 2.6 MB.
    log = tmp_path / "k200.ndjson"
    log.write_text(load_loggen().generate_log(0).text)
    records, _, probs, n_classes = _read_log(str(log))
    sim_matrix = cli._replay(records, n_classes, 512).similarity_matrix()
    policy = cli._policy({"policy": "linear", "alpha": 5.0}, n_classes)
    ks = sorted(set(select_k(policy, probs.max(axis=1)).tolist()))
    assert (len(ks), max(ks), sum(ks)) == (24, 29, 375)
    # A partition above BLOCK_ELEMENTS values is a group alone, taken
    # whole: for k=200, a K x k gather and lockstep arrays, 1.34 MB.
    peaks = []
    for call_ks in (ks, [150, 200]):
        tracemalloc.start()
        try:
            cluster_labels(sim_matrix, call_ks, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 1_050_000 and peaks[1] < 1_500_000, peaks


def test_select_output_does_not_depend_on_its_blocks(tmp_path, monkeypatch):
    # K=200 with 300 final rows: 81-row output blocks by default, one row or
    # one block of all rows here.
    log = tmp_path / "k200.ndjson"
    log.write_text(load_loggen().generate_log(3, n_ids=300, n_steps=3).text)
    outputs = []
    for budget in (cli.BLOCK_ELEMENTS, 200, 10**9):
        monkeypatch.setattr(cli, "BLOCK_ELEMENTS", budget)
        code, out = run_select(tmp_path, log=str(log))
        assert code == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


class TestCluster:
    def test_golden_output(self, capsys):
        for flags, golden in GOLDEN_CLUSTER.items():
            assert main(["cluster", MULTI_LOG, "--seed", "0", *flags]) == EXIT_OK
            assert capsys.readouterr().out == golden.read_text()

    def test_k_equals_n_singletons(self, capsys):
        code = main(["cluster", TOY_LOG, "--k", "4", "--seed", "0"])
        assert code == EXIT_OK
        dump = json.loads(capsys.readouterr().out)
        assert sorted(dump["medoids"]) == [0, 1, 2, 3]
        assert all(len(c) == 1 for c in dump["clusters"])

    def test_k2_recovers_blocks_any_seed(self, capsys):
        partitions = []
        for seed in ("0", "7"):
            assert main(["cluster", TOY_LOG, "--k", "2", "--seed", seed]) == EXIT_OK
            dump = json.loads(capsys.readouterr().out)
            partitions.append({frozenset(c) for c in dump["clusters"]})
        assert partitions[0] == partitions[1] == {frozenset({0, 1}), frozenset({2, 3})}

    def test_k_above_n_exits_usage(self, capsys):
        assert main(["cluster", TOY_LOG, "--k", "5"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: k=5 outside [2, 4]\n"

    def test_non_positive_window_exits_usage_before_reading(self, capsys):
        for nb in ("0", "-1"):
            assert main(["cluster", "missing.ndjson", "--nb", nb]) == EXIT_USAGE
            assert capsys.readouterr().err == f"config error: --nb must be positive, got {nb}\n"


class TestSim:
    def small_args(self, tmp_path, *extra, unlabeled_per_class=20):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "dataset": {
                "n_super": 2, "fine_per_super": 2, "dim": 8,
                "intra_spread": 1.0, "inter_spread": 4.0,
                "labels_per_class": 8, "unlabeled_per_class": unlabeled_per_class,
                "test_per_class": 10, "seed": 0,
            },
            "sim": {
                "batch_size": 8, "mu": 2, "window": 16,
                "iters": 60, "eval_every": 30, "seed": 0,
            },
        }))
        out = tmp_path / "metrics.csv"
        return ["sim", "--config", str(config), "--out", str(out), *extra], out

    def test_writes_metrics_and_summary(self, tmp_path, capsys):
        args, out = self.small_args(tmp_path)
        assert main(args) == EXIT_OK
        assert "final top1=" in capsys.readouterr().out
        header = out.read_text().splitlines()[0]
        assert header.startswith("iter,test_top1,pl_acc")

    def test_baseline_flag(self, tmp_path):
        args, _ = self.small_args(tmp_path, "--baseline", "fixmatch", "--tau", "0.95")
        assert main(args) == EXIT_OK

    def test_pairs_out(self, tmp_path):
        pairs = tmp_path / "pairs.csv"
        args, _ = self.small_args(tmp_path, "--pairs-out", str(pairs))
        assert main(args) == EXIT_OK
        lines = pairs.read_text().splitlines()
        assert lines[0] == "zobj1,entropy"
        assert len(lines) == 1 + 4 * 20

    def test_pairs_out_equals_whole_array_pass(self, tmp_path, monkeypatch):
        # 4 classes x 150 = 600 unlabeled rows: full blocks and a short one.
        # The first block mixes several ks.
        assert (4 * 150) % EVAL_BLOCK
        runs = []
        real_run = sim.run

        def keep_state(config, dataset):
            state = real_run(config, dataset)
            runs.append((config, dataset, state))
            return state

        monkeypatch.setattr(sim, "run", keep_state)
        pairs = tmp_path / "pairs.csv"
        args, _ = self.small_args(tmp_path, "--pairs-out", str(pairs), unlabeled_per_class=150)
        assert main(args) == EXIT_OK
        (config, ds, state), = runs
        assert config.baseline == "soc"
        model = state.model
        probs = softmax(ds.x_unlabeled @ model.weights.T + model.bias)
        targets, ks = sim.build_targets(probs, config, state.ledger)
        assert len(set(ks[:EVAL_BLOCK].tolist())) > 1
        zobj1 = lb.obj1_score(probs, targets, ds.y_unlabeled)
        expected = "zobj1,entropy\n" + "".join(
            f"{z},{h}\n" for z, h in zip(zobj1, lb.entropy(targets).tolist()))
        assert pairs.read_bytes() == expected.encode()

    def test_pairs_out_clusters_once(self, tmp_path, monkeypatch):
        # After training, one cluster_labels call takes the ks of all 600
        # rows, which span five blocks.
        calls = []
        real = clustering.cluster_labels
        real_run = sim.run

        def counted(sim, ks, *args, **kwargs):
            calls.append(list(ks))
            return real(sim, ks, *args, **kwargs)

        def run_then_count(config, dataset):
            state = real_run(config, dataset)
            monkeypatch.setattr(clustering, "cluster_labels", counted)
            return state

        monkeypatch.setattr(sim, "run", run_then_count)
        pairs = tmp_path / "pairs.csv"
        args, _ = self.small_args(tmp_path, "--pairs-out", str(pairs), unlabeled_per_class=150)
        assert main(args) == EXIT_OK
        assert len(calls) == 1 and len(calls[0]) > 1

    def test_config_k_policy_holds_without_policy_flag(self, tmp_path):
        config = tmp_path / "fixed.json"
        config.write_text(json.dumps({
            "dataset": {"n_super": 2, "fine_per_super": 2, "unlabeled_per_class": 100},
            "sim": {"k_policy": {"policy": "fixed", "k": 4}, "iters": 300,
                    "eval_every": 100},
        }))
        out = tmp_path / "metrics.csv"
        for flags, k in (([], 4.0), (["--policy", "fixed", "--k", "3"], 3.0)):
            args = ["sim", "--config", str(config), "--out", str(out), *flags]
            assert main(args) == EXIT_OK
            rows = out.read_text().splitlines()
            assert rows[0].endswith(",k_mean")
            assert [float(row.split(",")[-1]) for row in rows[1:]] == [k] * 3

    def test_bad_config_exits_usage(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sim, "run", no_training)
        config = tmp_path / "bad.json"
        for bad in (
            {"sim": {"baseline": "mystery"}},
            {"sim": {"eval_every": 0}},
            {"sim": {"window": 0}},
            {"dataset": {"labels_per_class": 0}},
            {"sim": {"mu": 7, "batch_size": 64}, "dataset": {"unlabeled_per_class": 10}},
            {"sim": 3},
            [],
            # Wrong-typed fields.
            {"sim": {"k_policy": 5}},
            {"sim": {"k_policy": {"policy": "linear", "alpha": None}}},
            {"sim": {"k_policy": {"policy": "fixed", "k": 2.7}}},
            # Python's json reads Infinity and -Infinity as floats.
            {"sim": {"k_policy": {"policy": "linear", "alpha": math.inf}}},
            {"sim": {"k_policy": {"policy": "exp", "beta": -math.inf}}},
            # A key the policy does not read.
            {"sim": {"k_policy": {"policy": "linear", "alpha": 5, "beta": 0.3}}},
            {"sim": {"iters": 1.5}},
            {"sim": {"lr": "x"}},
            {"sim": {"lambda_cos": "x"}},
            # Out-of-range fields.
            {"sim": {"lr": -0.05}},
            {"sim": {"lr": 0.0}},
            {"sim": {"lambda_cos": -1.0}},
            {"sim": {"warmup_epochs": -3}},
            {"sim": {"k_policy": {"policy": "fixed", "k": 99}}},
            # A removed field is an unknown one.
            {"sim": {"cluster_max_iter": 1.5}},
            {"sim": {"momentum": 1.5}},
            {"sim": {"weight_decay": -1.0}},
            {"sim": {"sigma_weak": -0.3}},
            {"sim": {"sigma_strong": 1.0}},
            {"sim": {"drop_frac": 2.0}},
            {"sim": {"window": 2.5}},
            {"sim": {"eval_every": 2.5}},
            {"dataset": {"n_super": 2.5}},
            {"dataset": {"n_super": -2, "fine_per_super": -2}},
            {"dataset": {"intra_spread": -5.0}},
        ):
            config.write_text(json.dumps(bad))
            assert main(["sim", "--config", str(config)]) == EXIT_USAGE, bad
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1, err

    def test_negative_class_counts_exit_usage(self, tmp_path):
        # Their product is 4 fine classes; the dataset's draw cannot
        # shape them. A fresh interpreter shows any traceback a user would.
        config = tmp_path / "negative.json"
        config.write_text(json.dumps({"dataset": {"n_super": -2, "fine_per_super": -2}}))
        done = subprocess.run(
            [sys.executable, "-m", "soclabel.cli", "sim", "--config", str(config),
             "--out", str(tmp_path / "metrics.csv")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.returncode == EXIT_USAGE
        assert done.stderr == ("config error: dataset: n_super and fine_per_super "
                               "must be positive, got -2 and -2\n")

    def test_allocation_too_large_exits_usage(self, tmp_path, capsys):
        # 8 super-class centers of 10**15 float64s: numpy is refused the
        # 56.8 PiB at once, before any training. The largest split, 32 x 5
        # rows of them, fits a numpy array, so the spec is accepted.
        config = tmp_path / "huge.json"
        config.write_text(json.dumps({"dataset": {
            "dim": 10**15, "labels_per_class": 1, "unlabeled_per_class": 5,
            "test_per_class": 1}}))
        argv = ["sim", "--config", str(config), "--out", str(tmp_path / "metrics.csv")]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory (Unable to allocate 56.8 PiB")
        assert err.count("\n") == 1 and "Traceback" not in err, err

    def test_numbers_too_large_exit_usage(self, tmp_path, capsys, monkeypatch):
        # Each crashed with a traceback and exit 1: an int too large for a
        # float, an int beyond Python's 4300-digit limit, and a split too
        # large for any numpy array.
        monkeypatch.setattr(sim, "generate_dataset", no_training)
        big = 10**400
        config = tmp_path / "big.json"
        for text, message in (
            (json.dumps({"sim": {"lr": big}}), "lr must be a finite number"),
            (json.dumps({"sim": {"tau": big}}), "tau must be a finite number"),
            (json.dumps({"sim": {"k_policy": {"policy": "linear", "alpha": big}}}),
             "sim.k_policy: alpha must be a finite number"),
            (json.dumps({"sim": {"k_policy": {"policy": "exp", "beta": big}}}),
             "sim.k_policy: beta must be a finite number"),
            (json.dumps({"dataset": {"intra_spread": big}}),
             "dataset: intra_spread must be a finite number"),
            (json.dumps({"sim": {"iters": big}}), "iters must convert to a finite float"),
            ('{"sim": {"iters": 1%s}}' % ("0" * 5000,), "config has a number too long to read"),
            (json.dumps({"dataset": {"dim": big}}), "dataset: the largest split"),
            (json.dumps({"dataset": {"dim": 2**62}}), "dataset: the largest split"),
            (json.dumps({"dataset": {"n_super": big}}), "dataset: the largest split"),
        ):
            config.write_text(text)
            assert main(["sim", "--config", str(config)]) == EXIT_USAGE, message
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {message}") and err.count("\n") == 1, err

    def test_split_beyond_numpy_exits_usage(self, tmp_path):
        # np.repeat crashed the process on this count (exit 139), so it
        # runs in a fresh interpreter: a regression fails this test alone.
        config = tmp_path / "split.json"
        config.write_text(json.dumps({"dataset": {"test_per_class": 2**62}}))
        done = subprocess.run(
            [sys.executable, "-m", "soclabel.cli", "sim", "--config", str(config),
             "--out", str(tmp_path / "metrics.csv")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.returncode == EXIT_USAGE, done.stderr
        assert done.stderr == (
            "config error: dataset: the largest split, K x per-class count x dim "
            f"float64s, exceeds numpy's largest array ({np.iinfo(np.intp).max} bytes)\n")

    def test_bad_policy_flags_exit_usage(self, capsys, monkeypatch):
        monkeypatch.setattr(sim, "run", no_training)
        for flags, message in (
            (["--policy", "fixed", "--k", "99"], "fixed k must be in [2, 32]"),
            (["--policy", "fixed"], "k must be an integer, got None"),
            (["--policy", "linear", "--alpha", "1.0"], "alpha must be >= K/(K-2)"),
            (["--policy", "fixed", "--k", "3", "--alpha", "5"], "policy fixed reads k, not alpha"),
            (["--policy", "linear", "--alpha", "inf"], "alpha must be a finite number, got inf"),
        ):
            assert main(["sim", *flags]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith(f"config error: sim.k_policy: {message}"), err
            assert err.count("\n") == 1, err
        # Without --policy the config's policy holds, which reads no flag.
        for flag, value in (("alpha", "1.0"), ("beta", "0.3"), ("k", "3")):
            assert main(["sim", f"--{flag}", value, "--iters", "100"]) == EXIT_USAGE
            assert capsys.readouterr().err == (
                f"config error: --{flag} needs --policy; without it the config's "
                "sim.k_policy holds\n")

    def test_unknown_baseline_flag_exits_usage(self, capsys, monkeypatch):
        # sim.config_from_dict checks the flag, as it checks a config's.
        monkeypatch.setattr(sim, "run", no_training)
        assert main(["sim", "--baseline", "bogus"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "config error: baseline must be one of ('soc', 'fixmatch', 'soft'), "
            "got 'bogus'\n")

    def test_config_not_json(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("{")
        assert main(["sim", "--config", str(config)]) == EXIT_USAGE

    def test_deeply_nested_config_exits_usage(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sim, "run", no_training)
        deep = "[" * 100_000 + "]" * 100_000
        config = tmp_path / "deep.json"
        for text in (deep, '{"sim": %s}' % deep):
            config.write_text(text)
            for command in ("sim", "entropy-sweep"):
                assert main([command, "--config", str(config)]) == EXIT_USAGE
                err = capsys.readouterr().err
                assert err.startswith("config error: config nests too deeply (")
                assert err.count("\n") == 1

    def test_unreadable_config_exits_usage(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sim, "run", no_training)

        def assert_cannot_read(path, reason):
            for command in ("sim", "entropy-sweep"):
                assert main([command, "--config", path]) == EXIT_USAGE
                assert capsys.readouterr().err == f"config error: cannot read {path}: {reason}\n"

        assert_cannot_read(str(tmp_path / "missing.json"), "No such file or directory")
        assert_cannot_read(str(tmp_path), "Is a directory")
        config = tmp_path / "ok.json"
        config.write_text("{}")
        monkeypatch.setattr(cli, "open", denied, raising=False)
        assert_cannot_read(str(config), "Permission denied")

    def test_config_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_bytes(b"\xff\xfe{}")
        assert main(["sim", "--config", str(config)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: config is not UTF-8")
        assert err.count("\n") == 1


def no_training(*args):
    raise AssertionError("trained before checking the arguments")


def denied(path, *args, **kwargs):
    """open() on a file its reader may not read."""
    raise PermissionError(13, "Permission denied", path)


class TestOutputPath:
    """An output path that cannot be written exits 2 with one line; sim
    finds it before training and leaves no file behind."""

    def bad_paths(self, tmp_path):
        return [str(tmp_path), str(tmp_path / "missing" / "out.csv")]

    def assert_cannot_write(self, argv, path, capsys):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {path}: ") and err.count("\n") == 1

    def test_select_out(self, tmp_path, capsys):
        for path in self.bad_paths(tmp_path):
            self.assert_cannot_write(["select", TOY_LOG, "--out", path], path, capsys)

    def test_select_checks_out_before_reading_the_log(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_read_log", no_training)
        for path in self.bad_paths(tmp_path):
            self.assert_cannot_write(["select", TOY_LOG, "--out", path], path, capsys)
        assert list(tmp_path.iterdir()) == []

    def test_select_bad_log_keeps_existing_out(self, tmp_path, capsys):
        log, out = tmp_path / "bad.ndjson", tmp_path / "out.ndjson"
        log.write_text("{\n")
        out.write_text("kept\n")
        assert main(["select", str(log), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: line 1: malformed JSON")
        assert out.read_text() == "kept\n"
        assert sorted(tmp_path.iterdir()) == [log, out]

    def test_sim_out_and_pairs_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sim, "run", no_training)
        metrics, pairs = tmp_path / "metrics.csv", tmp_path / "pairs.csv"
        metrics.write_text("kept\n")
        for path in self.bad_paths(tmp_path):
            self.assert_cannot_write(["sim", "--out", path], path, capsys)
            for out in (metrics, pairs):
                self.assert_cannot_write(
                    ["sim", "--out", str(out), "--pairs-out", path], path, capsys)
        assert list(tmp_path.iterdir()) == [metrics]
        assert metrics.read_text() == "kept\n"

    def test_sim_out_and_pairs_out_name_one_file(self, tmp_path, capsys, monkeypatch):
        # The pairs would overwrite the metrics.
        monkeypatch.setattr(sim, "run", no_training)
        (tmp_path / "sub").mkdir()
        out = str(tmp_path / "out.csv")
        for pairs in (out, str(tmp_path / "sub" / ".." / "out.csv")):
            assert main(["sim", "--out", out, "--pairs-out", pairs]) == EXIT_USAGE
            assert capsys.readouterr().err == (
                f"config error: --out and --pairs-out both name {pairs}\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "sub"]

    def test_select_out_names_the_log(self, tmp_path, capsys, monkeypatch):
        # The output would replace the log it is read from.
        monkeypatch.setattr(cli, "_read_log", no_training)
        (tmp_path / "sub").mkdir()
        log = tmp_path / "log.ndjson"
        log.write_bytes(Path(TOY_LOG).read_bytes())
        for out in (str(log), str(tmp_path / "sub" / ".." / "log.ndjson")):
            assert main(["select", str(log), "--out", out]) == EXIT_USAGE
            assert capsys.readouterr().err == (
                f"config error: the log and --out both name {out}\n")
        assert log.read_bytes() == Path(TOY_LOG).read_bytes()

    def test_sim_out_names_the_config(self, tmp_path, capsys, monkeypatch):
        # The metrics or the pairs would replace the config.
        monkeypatch.setattr(sim, "run", no_training)
        config = tmp_path / "config.json"
        config.write_text('{"sim": {"iters": 5}}\n')
        for flag in ("--out", "--pairs-out"):
            argv = ["sim", "--config", str(config), flag, str(config)]
            assert main(argv) == EXIT_USAGE
            assert capsys.readouterr().err == (
                f"config error: --config and {flag} both name {config}\n")
        assert config.read_text() == '{"sim": {"iters": 5}}\n'
        assert list(tmp_path.iterdir()) == [config]


def full_disk(full_path: str):
    """open() on a disk where full_path takes no bytes: opening it works,
    and its first write fails."""
    def opener(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if str(path) == full_path:
            def no_space(text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            fh.write = no_space
        return fh
    return opener


class TestWriteFailure:
    """A write that fails exits 2 with one line naming the file or stdout;
    a closed stdout keeps its own exit code."""

    def test_output_files(self, tmp_path, capsys, monkeypatch):
        out, metrics = str(tmp_path / "out"), str(tmp_path / "metrics.csv")
        for argv in (["select", MULTI_LOG, "--out", out],
                     ["sim", "--iters", "3", "--out", out],
                     ["sim", "--iters", "3", "--out", metrics, "--pairs-out", out]):
            # sim's metrics CSV is written by sim.write_metrics_csv.
            for module in (cli, sim):
                monkeypatch.setattr(module, "open", full_disk(out), raising=False)
            assert main(argv) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.err == (
                f"config error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n")
            assert captured.out == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("argv", [
        ["select", MULTI_LOG], ["cluster", MULTI_LOG, "--k", "4"],
        ["verify", "lemma1", "--trials", "5"],
    ], ids=["select", "cluster", "verify"])
    def test_full_stdout(self, argv):
        # The flush at exit must not fail again on what stdout still buffers.
        with open("/dev/full", "w") as full:
            child = subprocess.run(
                [sys.executable, "-m", "soclabel.cli", *argv], stdout=full,
                stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(SRC)},
            )
        assert child.returncode == EXIT_USAGE
        assert child.stderr == (
            f"config error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n".encode())


class TestEntropySweep:
    def test_bad_input_exits_usage(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("{")
        assert main(["entropy-sweep", "--config", str(config)]) == EXIT_USAGE
        with pytest.raises(SystemExit) as exc:
            main(["entropy-sweep", "--ks", "2,x"])
        assert exc.value.code == EXIT_USAGE

    def test_non_soc_config_exits_before_training(self, tmp_path, monkeypatch, capsys):
        # Only soc tracks class transitions; another arm's ledger stays empty.
        monkeypatch.setattr(sim, "run", no_training)
        config = tmp_path / "fixmatch.json"
        for baseline in ("fixmatch", "soft"):
            config.write_text(json.dumps({"sim": {"baseline": baseline}}))
            assert main(["entropy-sweep", "--config", str(config)]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"config error: entropy-sweep needs baseline 'soc', got '{baseline}'\n")

    def test_k_out_of_range_exits_before_training(self, monkeypatch, capsys):
        monkeypatch.setattr(sim, "run", no_training)
        for ks, bad in (("2,50", 50), ("1", 1)):
            assert main(["entropy-sweep", "--ks", ks]) == EXIT_USAGE
            assert capsys.readouterr().err == f"error: k={bad} outside [2, 32]\n"


class TestVerify:
    def test_small_suite_passes(self, capsys):
        assert main(["verify", "lemma1", "--trials", "50", "--seed", "1"]) == EXIT_OK
        assert "pass" in capsys.readouterr().out

    def test_uniform_mass_suite_passes(self, capsys):
        assert main(["verify", "uniform_mass", "--trials", "50"]) == EXIT_OK
        assert capsys.readouterr().out == "uniform_mass: 50/50 pass\n"

    def test_unknown_suite(self, capsys):
        # verify.run_suite rejects it against the registered suites.
        assert main(["verify", "nonsense"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: unknown suite 'nonsense' (choose from "
            f"{', '.join(verify.SUITES)}, all)\n")

    def test_run_suite_rejects_bad_arguments(self):
        # Before any suite runs: a run of no trials would pass.
        with pytest.raises(UnknownSuite, match="unknown suite 'nonsense'"):
            verify.run_suite("nonsense")
        for name in ("lemma1", "uniform_mass", "cluster", "all"):
            for trials in (0, -3):
                with pytest.raises(ValueError, match=f"trials must be positive, got {trials}"):
                    verify.run_suite(name, trials=trials)

    def test_trials_reach_krange(self, monkeypatch, capsys):
        # krange's trials are its confidence grid's size.
        calls = []

        def spy(**kwargs):
            calls.append(kwargs)
            return verify.SuiteResult("krange", 1, 1)

        monkeypatch.setitem(verify.SUITES, "krange", spy)
        assert main(["verify", "krange", "--trials", "5", "--seed", "3"]) == EXIT_OK
        assert calls == [{"trials": 5, "seed": 3}]
        assert capsys.readouterr().out == "krange: 1/1 pass\n"

    def test_failures_are_printed(self, monkeypatch, capsys):
        # Each kept failure detail follows its FAIL line, indented.
        def failing(**kwargs):
            res = verify.SuiteResult("krange", 0, 0)
            for ok, detail in ((True, None), (False, "k=1 at conf 0.5"), (False, 0.25)):
                res.record(ok, detail)
            return res

        monkeypatch.setitem(verify.SUITES, "krange", failing)
        assert main(["verify", "krange"]) == EXIT_VERIFY_FAIL
        assert capsys.readouterr().out == (
            "krange: 1/3 FAIL\n  k=1 at conf 0.5\n  0.25\n")

    def test_trials_below_one_exits_usage(self, capsys):
        for suite, trials in (("lemma1", "-3"), ("cluster", "0")):
            assert main(["verify", suite, "--trials", trials]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"config error: --trials must be positive, got {trials}\n"


class TestImportBoundary:
    """Each command imports only the layers it runs: select and cluster
    load neither the simulator nor the verification suites, and verify
    loads no simulator."""

    # Runs the CLI on its arguments, then lists the soclabel modules loaded.
    CHILD = (
        "import sys\n"
        "from soclabel import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(*sorted(m for m in sys.modules if m.startswith('soclabel.')), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )

    def loaded(self, *argv) -> set:
        child = subprocess.run(
            [sys.executable, "-c", self.CHILD, *argv], capture_output=True, check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        return set(child.stderr.decode().split())

    @pytest.mark.parametrize("command", ["select", "cluster"])
    def test_select_and_cluster_skip_sim_and_verify(self, command):
        loaded = self.loaded(command, TOY_LOG)
        assert {"soclabel.cli", "soclabel.clustering", "soclabel.transitions"} <= loaded
        assert not loaded & {"soclabel.sim", "soclabel.verify", "soclabel.losses"}

    def test_verify_skips_sim(self):
        loaded = self.loaded("verify", "lemma1", "--trials", "5")
        assert "soclabel.verify" in loaded and "soclabel.sim" not in loaded


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ["select", TOY_LOG], ["cluster", TOY_LOG], ["verify", "lemma1", "--trials", "5"],
    ], ids=["select", "cluster", "verify"])
    def test_exits_pipe_without_traceback(self, argv):
        # The reader closes its end before the child writes, as `| head`
        # does once it has its lines.
        child = subprocess.Popen(
            [sys.executable, "-m", "soclabel.cli", *argv], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        child.stdout.close()
        with child.stderr:
            err = child.stderr.read()
        assert child.wait() == EXIT_PIPE
        assert err == b""


class TestBadSeed:
    """A negative or malformed seed exits 2 with one error line, before any
    training or log reading."""

    ENTRY_POINTS = {
        "select": ["select", "missing.ndjson"],
        "cluster": ["cluster", "missing.ndjson"],
        "verify": ["verify", "lemma1"],
        "entropy-sweep": ["entropy-sweep"],
        "sim": ["sim", "--out", "unwritten.csv"],
    }

    def assert_usage_error(self, argv, capsys, expected):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"config error: {expected}\n"

    @pytest.mark.parametrize("command", sorted(ENTRY_POINTS))
    def test_negative_flag(self, command, capsys, monkeypatch):
        monkeypatch.setattr(sim, "run", no_training)
        # sim passes the flag on to its config's sim.seed.
        expected = "seed must be a non-negative integer, got -1" if command == "sim" else (
            "--seed must be a non-negative integer, got '-1'")
        self.assert_usage_error([*self.ENTRY_POINTS[command], "--seed", "-1"], capsys, expected)

    @pytest.mark.parametrize("command", ["select", "cluster", "verify", "entropy-sweep"])
    def test_bad_soc_seed_env(self, command, capsys, monkeypatch):
        monkeypatch.setattr(sim, "run", no_training)
        for value in ("-2", "abc", "1.5", ""):
            monkeypatch.setenv("SOC_SEED", value)
            self.assert_usage_error(self.ENTRY_POINTS[command], capsys,
                                    f"SOC_SEED must be a non-negative integer, got {value!r}")

    @pytest.mark.parametrize("command", ["sim", "entropy-sweep"])
    def test_bad_config_seed(self, command, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sim, "run", no_training)
        config = tmp_path / "seed.json"
        for section, seed in (("sim", -1), ("sim", 1.5), ("sim", "0"), ("sim", True),
                              ("dataset", -1)):
            config.write_text(json.dumps({section: {"seed": seed}}))
            prefix = "dataset: " if section == "dataset" else ""
            self.assert_usage_error([command, "--config", str(config)], capsys,
                                    f"{prefix}seed must be a non-negative integer, got {seed!r}")
