"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

import checks
import loggen
import run
import tracer
from soclabel import cli

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = run.Sizes(iters=30, train_seeds=2, logs=2, log_ids=40, log_steps=3)
TINY_SELECT = run.Sizes(iters=30, train_seeds=1, logs=1, log_ids=20, log_steps=3)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace, work, monkeypatch, capsys):
    monkeypatch.setattr(run, "FULL", TINY)
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_benchmark_json_matches_the_code():
    assert [m["name"] for m in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        tracer.LAYER_METRICS)


def test_log_generator_is_byte_identical_per_seed():
    a, b = loggen.generate_log(7, 30, 4), loggen.generate_log(7, 30, 4)
    assert a.text == b.text
    assert a.text != loggen.generate_log(8, 30, 4).text
    assert a.n_records == len(a.text.splitlines()) == 120


def _fake_worker(corrupt_line=None, lie_when_traced=False):
    """A stand-in for call_worker that runs `soclabel select` in-process,
    then optionally damages the output or reports a wrong digest."""

    def call(spec, timeout):
        code = cli.main(["select", spec["log"], "--seed", str(spec["seed"]),
                         "--out", spec["out"]])
        assert code == 0
        out = Path(spec["out"])
        if corrupt_line is not None:
            lines = out.read_text().splitlines()
            lines[corrupt_line] = corrupt(lines[corrupt_line])
            out.write_text("\n".join(lines) + "\n")
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if lie_when_traced and spec["trace"]:
            digest = "0" * 64
        return {"wall_s": 0.5, "setup_s": 0.1, "cal_s": 0.03, "maxrss_mb": 50.0,
                "digest": digest,
                "layer": {}, "absent": [], "unobserved": []}, None

    return call


def corrupt(line: str) -> str:
    """Move all of p_tilde's mass to a class outside the candidate set."""
    rec = json.loads(line)
    outside = next(c for c in range(len(rec["p_tilde"]))
                   if c not in rec["candidate_classes"])
    rec["p_tilde"] = [0.0] * len(rec["p_tilde"])
    rec["p_tilde"][outside] = 1.0
    return json.dumps(rec, sort_keys=True)


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def test_clean_select_output_passes(work, monkeypatch):
    monkeypatch.setattr(run, "call_worker", _fake_worker())
    result, _ = run.run_benchmark("select_k200", 3, 1e-3, False, TINY_SELECT)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1


def test_corrupted_select_line_counts_as_failed(work, monkeypatch):
    monkeypatch.setattr(run, "call_worker", _fake_worker(corrupt_line=4))
    result, detail = run.run_benchmark("select_k200", 3, 1e-3, False, TINY_SELECT)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert "line 5" in detail["failures"][0]


def test_wrong_traced_digest_counts_as_failed(work, monkeypatch):
    monkeypatch.setattr(run, "call_worker", _fake_worker(lie_when_traced=True))
    result, detail = run.run_benchmark("select_k200", 3, 1e-3, True, TINY_SELECT)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert "digest" in detail["failures"][0]


def test_metrics_csv_check():
    header = "iter,test_top1,k_mean"
    assert checks.check_metrics_csv(f"{header}\n100,0.5,4.2\n", 32) == []
    assert checks.check_metrics_csv(f"{header}\n100,nan,4.2\n", 32)
    assert checks.check_metrics_csv(f"{header}\n100,0.5,33\n", 32)
    assert checks.check_metrics_csv(header + "\n", 32)


def test_absent_targets_are_reported_not_raised():
    t = tracer.install([("cli.gone", "soclabel.cli", "_no_such_function"),
                        ("nope.f", "soclabel.no_such_module", "f")])
    assert t.absent == ["cli.gone", "nope.f"]
    assert tracer.layer_metrics(t)["cli.replay.busy_s"] == 0.0


def test_self_time_excludes_child_spans(monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    monkeypatch.setattr(tracer, "perf_counter", lambda: next(clock))
    t = tracer.Tracer()
    inner = t.wrap("a.inner", lambda: None)
    outer = t.wrap("b.outer", lambda: (inner(), inner()))
    outer()
    stats = tracer.span_stats(t)
    assert stats["names"]["b.outer"]["busy_s"] == 10.0
    assert stats["names"]["b.outer"]["self_s"] == 10.0 - 2.0 - 2.0
    assert stats["names"]["a.inner"]["calls"] == 2
    assert stats["layers"] == {"a": 4.0, "b": 10.0}
