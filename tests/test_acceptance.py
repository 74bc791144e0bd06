"""Acceptance gate: one test per release criterion.

Each test prints a single `[acceptance] <name>: PASS|FAIL` line (bypassing
pytest capture) so the gate can be read off the test log directly.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from soclabel.kselect import KPolicy
from soclabel.cli import EXIT_OK, main
from soclabel.sim import (
    SimConfig,
    SyntheticDatasetSpec,
    cosine_lr,
    entropy_vs_k,
    final_score,
    generate_dataset,
    init_state,
    run,
    soc_step,
    warmup_iters,
)
from soclabel.verify import (
    suite_cluster,
    suite_ctt,
    suite_krange,
    suite_lemma1,
    suite_losses,
    suite_theorem1,
    suite_uniform_mass,
)

DATA = Path(__file__).parent / "data"
K_DEFAULT = 32


def report(capsys, name, ok, detail=""):
    with capsys.disabled():
        tail = f" ({detail})" if detail else ""
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{name}: {detail}"


def default_config(**kw):
    defaults = dict(k_policy=KPolicy.linear(5.0, K_DEFAULT))
    defaults.update(kw)
    return SimConfig(**defaults)


class TestEntropyReduction:
    def test_lemma1_suite(self, capsys):
        start = time.perf_counter()
        res = suite_lemma1(trials=10000, seed=0)
        elapsed = time.perf_counter() - start
        report(
            capsys,
            "lemma1 entropy reduction",
            res.ok and elapsed < 5.0,
            f"{res.passed}/{res.total} in {elapsed:.2f}s",
        )

    def test_uniform_selected_mass_suite(self, capsys):
        res = suite_uniform_mass(trials=1000, seed=0)
        report(
            capsys,
            "uniform selected mass",
            res.ok,
            f"{res.passed}/{res.total}",
        )

    def test_theorem1_nested_chains(self, capsys):
        res = suite_theorem1(trials=1000, seed=0)
        report(capsys, "nested-chain monotonicity", res.ok, f"{res.passed}/{res.total}")


class TestKSelection:
    def test_krange_grid_and_pinned_values(self, capsys):
        res = suite_krange(trials=1000, seed=0)
        report(capsys, "k-range grid", res.ok, f"{res.passed}/{res.total}")


class TestTransitionTracking:
    def test_ctt_recount_oracle(self, capsys):
        res = suite_ctt(trials=100, seed=0)
        report(capsys, "transition-window oracle", res.ok, f"{res.passed}/{res.total}")


class TestClustering:
    def test_cluster_invariants_and_block_recovery(self, capsys):
        res = suite_cluster(trials=500, seed=0)
        report(capsys, "clustering checks", res.ok, f"{res.passed}/{res.total}")


class TestGradients:
    def test_finite_difference_check(self, capsys):
        res = suite_losses(trials=200, seed=0)
        report(capsys, "gradient check", res.ok, f"{res.passed}/{res.total}")


def _loss_trace(config, dataset, iters):
    """Per-iteration total losses for a manual training loop."""
    state = init_state(config, dataset)
    w = warmup_iters(config, dataset)
    n_lab = dataset.x_labeled.shape[0]
    n_ulb = dataset.x_unlabeled.shape[0]
    totals = []
    for t in range(iters):
        li = state.rng_data.choice(n_lab, config.batch_size, replace=False)
        ui = state.rng_data.choice(n_ulb, config.mu * config.batch_size, replace=False)
        totals.append(soc_step(
            state,
            (dataset.x_labeled[li], dataset.y_labeled[li]),
            (ui, dataset.x_unlabeled[ui]),
            config,
            in_warmup=t < w,
            lr=cosine_lr(config, t),
        ))
    return np.array(totals)


class TestDegeneration:
    def test_fixed_k_equals_hard_pseudo_labels(self, capsys):
        dataset = generate_dataset(SyntheticDatasetSpec())
        iters = 500
        soc = _loss_trace(
            default_config(k_policy=KPolicy.fixed(K_DEFAULT, K_DEFAULT), iters=iters),
            dataset,
            iters,
        )
        hard = _loss_trace(
            default_config(baseline="fixmatch", tau=0.0, iters=iters), dataset, iters
        )
        diff = float(np.abs(soc - hard).max())
        report(
            capsys,
            "degeneration to one-hot",
            diff <= 1e-9,
            f"max per-iteration loss diff {diff:.2e} over {iters} iters",
        )


@pytest.fixture(scope="module")
def paired_runs():
    """Five paired simulator runs per arm on the default synthetic spec.

    Shared by the directional comparison and the entropy-vs-k sweep (which
    needs a converged ledger).
    """
    start = time.perf_counter()
    scores = {"soc": [], "fixmatch": [], "soft": []}
    keep_state = None
    for seed in range(5):
        dataset = generate_dataset(SyntheticDatasetSpec(seed=seed))
        for arm in scores:
            state = run(default_config(baseline=arm, seed=seed), dataset)
            scores[arm].append(final_score(state.history))
            if arm == "soc" and seed == 0:
                keep_state = state
    elapsed = time.perf_counter() - start
    dataset0 = generate_dataset(SyntheticDatasetSpec(seed=0))
    return scores, keep_state, dataset0, elapsed


@pytest.mark.slow
class TestDirectional:
    def test_soc_beats_baselines(self, capsys, paired_runs):
        scores, _, _, elapsed = paired_runs
        soc = float(np.mean(scores["soc"]))
        fixmatch = float(np.mean(scores["fixmatch"]))
        soft = float(np.mean(scores["soft"]))
        ok = soc >= fixmatch + 0.02 and soc >= soft and elapsed < 600.0
        paired = {
            arm: ", ".join(f"{a - b:+.4f}" for a, b in zip(scores["soc"], scores[arm]))
            for arm in ("soft", "fixmatch")
        }
        report(
            capsys,
            "directional comparison",
            ok,
            f"soc={soc:.4f} fixmatch={fixmatch:.4f} soft={soft:.4f} "
            f"(5 seeds, {elapsed:.0f}s); per seed soc-soft {paired['soft']}, "
            f"soc-fixmatch {paired['fixmatch']}",
        )

    def test_entropy_vs_k_sweep(self, capsys, paired_runs):
        _, state, dataset, _ = paired_runs
        means = entropy_vs_k(
            state.model, dataset.x_unlabeled, state.ledger, ks=(2, 4, 8, 16, 32), seed=0
        )
        ok = all(b <= a + 1e-9 for a, b in zip(means, means[1:]))
        report(
            capsys,
            "entropy vs fixed k",
            ok,
            "mean entropies " + ", ".join(f"{m:.4f}" for m in means),
        )


class TestCliRoundTrip:
    def test_select_reproduces_golden_bytes(self, capsys, tmp_path):
        out = tmp_path / "select.ndjson"
        code = main(
            [
                "select",
                str(DATA / "toy_log.ndjson"),
                "--seed",
                "0",
                "--out",
                str(out),
            ]
        )
        golden = (DATA / "golden_select.ndjson").read_bytes()
        ok = code == EXIT_OK and out.read_bytes() == golden
        report(capsys, "cli round-trip", ok, "byte-identical to committed golden")
