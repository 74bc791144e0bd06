import json
from pathlib import Path

import pytest

from soclabel.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main

DATA = Path(__file__).parent / "data"
TOY_LOG = str(DATA / "toy_log.ndjson")
GOLDEN = DATA / "golden_select.ndjson"
# K=32 log from perfbench/loggen.py: generate_log(7, n_ids=24, n_steps=4,
# groups=8, group_size=4). Its final step uses five distinct k and
# non-singleton clusters, so any change in how selection sums shows here.
MULTI_LOG = str(DATA / "multi_log.ndjson")
GOLDEN_MULTI = DATA / "golden_multi_select.ndjson"


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
        for flags in (["--policy", "fixed"], ["--alpha", "1.0"]):
            assert main(["select", TOY_LOG, *flags]) == EXIT_USAGE
            assert "Traceback" not in capsys.readouterr().err

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

    def test_hand_traced_similarity_edge(self, tmp_path):
        # Samples a and b swap between classes 0 and 1, so those classes
        # cluster together and both samples keep mass on {0, 1} only.
        _, out = run_select(tmp_path)
        by_id = {json.loads(l)["id"]: json.loads(l) for l in out.read_text().splitlines()}
        assert by_id["a"]["candidate_classes"] == [0, 1]
        assert by_id["b"]["candidate_classes"] == [0, 1]
        assert by_id["a"]["p_tilde"][0] == pytest.approx(0.7 / 0.9)

    def test_single_step_log_warns(self, tmp_path, capsys):
        log = tmp_path / "single.ndjson"
        log.write_text(
            '{"schema": "soc-log-v1", "id": "a", "step": 0, "probs": [0.5, 0.3, 0.2]}\n'
        )
        code = main(["select", str(log), "--seed", "0", "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        assert "cold" in capsys.readouterr().err

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

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        log = tmp_path / "bad.ndjson"
        bad_lines = (
            "{not json",
            '{"schema": "soc-log-v1", "id": "b", "step": 0, "probs": [0.0, 0.0]}',
            '{"schema": "soc-log-v1", "id": "b", "step": 0, "probs": [1.5, -0.5]}',
        )
        for bad in bad_lines:
            log.write_text(
                '{"schema": "soc-log-v1", "id": "a", "step": 0, "probs": [1.0, 0.0]}\n'
                + bad + "\n"
            )
            assert main(["select", str(log)]) == EXIT_DATA
            assert "line 2" in capsys.readouterr().err

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


class TestCluster:
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


class TestSim:
    def small_args(self, tmp_path, *extra):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "dataset": {
                "n_super": 2, "fine_per_super": 2, "dim": 8,
                "intra_spread": 1.0, "inter_spread": 4.0,
                "labels_per_class": 8, "unlabeled_per_class": 20,
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

    def test_bad_config_exits_usage(self, tmp_path):
        config = tmp_path / "bad.json"
        for bad in (
            {"sim": {"baseline": "mystery"}},
            {"sim": {"eval_every": 0}},
            {"sim": {"window": 0}},
            {"dataset": {"labels_per_class": 0}},
            {"sim": {"mu": 7, "batch_size": 64}, "dataset": {"unlabeled_per_class": 10}},
            {"sim": 3},
            [],
        ):
            config.write_text(json.dumps(bad))
            assert main(["sim", "--config", str(config)]) == EXIT_USAGE

    def test_config_not_json(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("{")
        assert main(["sim", "--config", str(config)]) == EXIT_USAGE


class TestEntropySweep:
    def test_bad_input_exits_usage(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("{")
        assert main(["entropy-sweep", "--config", str(config)]) == EXIT_USAGE
        with pytest.raises(SystemExit) as exc:
            main(["entropy-sweep", "--ks", "2,x"])
        assert exc.value.code == EXIT_USAGE


class TestVerify:
    def test_small_suite_passes(self, capsys):
        assert main(["verify", "lemma1", "--trials", "50", "--seed", "1"]) == EXIT_OK
        assert "pass" in capsys.readouterr().out

    def test_unknown_suite(self, capsys):
        assert main(["verify", "nonsense"]) == EXIT_USAGE
