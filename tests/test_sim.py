import ctypes
import dataclasses
import hashlib
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from soclabel import cli, clustering
from soclabel.clustering import partitions, select_rows
from soclabel.errors import ConfigError
from soclabel.kselect import KPolicy
from soclabel.labels import entropy, obj1_score, obj2_score
from soclabel.losses import softmax
from soclabel.sim import (
    EVAL_BLOCK,
    Dataset,
    MetricsRow,
    SimConfig,
    SyntheticDatasetSpec,
    augment,
    build_targets,
    config_from_dict,
    entropy_vs_k,
    evaluate,
    final_score,
    generate_dataset,
    init_state,
    run,
    train_steps,
    write_metrics_csv,
)

SMALL_SPEC = SyntheticDatasetSpec(
    n_super=4,
    fine_per_super=2,
    dim=8,
    intra_spread=1.0,
    inter_spread=4.0,
    labels_per_class=8,
    unlabeled_per_class=30,
    test_per_class=20,
    seed=11,
)


def small_config(**kw):
    defaults = dict(
        k_policy=KPolicy.linear(5.0, SMALL_SPEC.n_classes),
        batch_size=8,
        mu=3,
        window=16,
        iters=120,
        eval_every=40,
        seed=5,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class TestDataset:
    def test_deterministic_in_seed(self):
        a = generate_dataset(SMALL_SPEC)
        b = generate_dataset(SMALL_SPEC)
        assert np.array_equal(a.x_labeled, b.x_labeled)
        assert np.array_equal(a.x_unlabeled, b.x_unlabeled)
        assert np.array_equal(a.y_test, b.y_test)

    def test_spread_ordering_enforced(self):
        with pytest.raises(ValueError):
            SyntheticDatasetSpec(intra_spread=5.0, inter_spread=1.0)

    @pytest.mark.parametrize("bad", [
        # Negative counts whose product is a valid class count.
        {"n_super": -2, "fine_per_super": -2},
        {"n_super": -1, "fine_per_super": -8},
        # A negative intra_spread is below inter_spread yet gives offsets
        # longer than it.
        {"intra_spread": -5.0},
        {"intra_spread": -0.1, "inter_spread": 3.0},
    ])
    def test_bad_counts_and_spreads_rejected(self, bad):
        with pytest.raises(ValueError):
            SyntheticDatasetSpec(**bad)

    @pytest.mark.parametrize("spec", [
        SyntheticDatasetSpec(),
        SMALL_SPEC,
        SyntheticDatasetSpec(n_super=40, fine_per_super=5, seed=7),
        SyntheticDatasetSpec(unlabeled_per_class=1, labels_per_class=1, seed=2),
    ], ids=["default", "small", "k200", "one-per-class"])
    def test_draw_matches_gathered_centers(self, spec):
        # The reference draws each split as centers[y] plus its noise, from
        # the same seed: generate_dataset must give the same bits.
        ds = generate_dataset(spec)
        rng = np.random.default_rng(spec.seed)
        K = spec.n_classes

        def unit_rows(n):
            v = rng.normal(size=(n, spec.dim))
            return v / np.linalg.norm(v, axis=1, keepdims=True)

        super_centers = unit_rows(spec.n_super) * spec.inter_spread
        offsets = unit_rows(K) * spec.intra_spread
        centers = np.repeat(super_centers, spec.fine_per_super, axis=0) + offsets
        for per_class, x, y in (
            (spec.labels_per_class, ds.x_labeled, ds.y_labeled),
            (spec.unlabeled_per_class, ds.x_unlabeled, ds.y_unlabeled),
            (spec.test_per_class, ds.x_test, ds.y_test),
        ):
            y_ref = np.repeat(np.arange(K), per_class)
            x_ref = centers[y_ref] + rng.normal(size=(y_ref.size, spec.dim))
            assert np.array_equal(y, y_ref)
            assert x.dtype == x_ref.dtype and x.tobytes() == x_ref.tobytes()

    def test_generate_dataset_peaks_at_its_arrays(self):
        # K=200 holds 40,000 unlabeled rows (5.1 MB). Each split's centers
        # are added in place, so the peak is the arrays themselves and the
        # small center tables: 0.12 MB above them. Gathering centers[y] for
        # each split put it 3.8 MB above them. numpy.random's first import
        # is kept out of the trace.
        np.random.default_rng(0)
        spec = SyntheticDatasetSpec(n_super=40, fine_per_super=5)
        tracemalloc.start()
        try:
            ds = generate_dataset(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in (ds.x_labeled, ds.y_labeled, ds.x_unlabeled,
                                      ds.y_unlabeled, ds.x_test, ds.y_test))
        assert peak - held < 500_000, (peak, held)

    def test_zero_intra_spread_collapses_fine_classes(self):
        spec = SyntheticDatasetSpec(
            n_super=2,
            fine_per_super=4,
            dim=8,
            intra_spread=0.0,
            inter_spread=8.0,
            labels_per_class=40,
            unlabeled_per_class=5,
            test_per_class=60,
            seed=3,
        )
        ds = generate_dataset(spec)
        cfg = SimConfig(
            k_policy=KPolicy.fixed(2, ds.n_classes),
            batch_size=16,
            mu=1,
            window=8,
            iters=400,
            eval_every=400,
            lambda_cos=0.0,
            seed=1,
        )
        state = run(cfg, ds)
        # Sub-classes are indistinguishable: fine accuracy is capped by
        # guessing within the right super-class.
        assert state.history[-1].test_top1 <= 1 / spec.fine_per_super + 0.1

    def test_super_vs_fine_gap(self):
        ds = generate_dataset(SMALL_SPEC)
        cfg = small_config(lambda_cos=0.0, iters=400, eval_every=400)
        state = run(cfg, ds)
        logits = state.model.logits(ds.x_test)
        pred = logits.argmax(axis=1)
        fine_acc = (pred == ds.y_test).mean()
        super_acc = (ds.super_of(pred) == ds.super_of(ds.y_test)).mean()
        assert super_acc > fine_acc


class TestAugment:
    def test_reproducible_with_seeded_rng(self):
        x = np.ones((3, 5))
        a = augment(x, "strong", np.random.default_rng(7))
        b = augment(x, "strong", np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_strong_moves_further_than_weak(self):
        rng = np.random.default_rng(1)
        x = np.zeros((1000, 8))
        dw = np.linalg.norm(augment(x, "weak", rng) - x, axis=1).mean()
        ds_ = np.linalg.norm(augment(x, "strong", rng) - x, axis=1).mean()
        assert ds_ > dw

    def test_unknown_strength(self):
        with pytest.raises(ValueError):
            augment(np.zeros((1, 2)), "medium", np.random.default_rng(0))


# The host the four pinned trajectory digests were made on. The
# simulator's float bits depend on it: np.exp and np.log give other bits
# without AVX-512, and the logits product others under another BLAS kernel.
# The digests hold on hosts with this fingerprint; elsewhere they can fail
# on correct code.
PINNED_ON = {
    "numpy": "2.4.6",
    "simd": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
    "blas": "scipy-openblas 0.3.31.188.0",
    "blas_core": "SkylakeX",
}


def blas_core() -> str:
    """The CPU core the bundled OpenBLAS picked its kernels for."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(handle, name):
                getter = getattr(handle, name)
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return "unknown"


def host_fingerprint() -> dict:
    """This host's values of the PINNED_ON fields: numpy's version and the
    SIMD extensions it uses at run time, and the BLAS build and core."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "simd": " ".join(config["SIMD Extensions"]["found"]),
        "blas": f"{blas['name']} {blas['version']}",
        "blas_core": blas_core(),
    }


def assert_pinned(digests, pinned):
    assert digests == pinned, (
        f"pinned on {PINNED_ON}, running on {host_fingerprint()}; "
        "the digests hold on hosts with the first fingerprint")


class TestTrainingLoop:
    def test_seed_reproducibility(self):
        ds = generate_dataset(SMALL_SPEC)
        a = run(small_config(), ds)
        b = run(small_config(), ds)
        assert [r.test_top1 for r in a.history] == [r.test_top1 for r in b.history]
        assert [r.mean_entropy_sel for r in a.history] == [
            r.mean_entropy_sel for r in b.history
        ]

    def test_lambda_zero_matches_supervised_only(self):
        # With no consistency weight the trajectory equals plain supervised
        # training on the labeled batches.
        ds = generate_dataset(SMALL_SPEC)
        a = run(small_config(lambda_cos=0.0), ds)
        b = run(small_config(lambda_cos=0.0, baseline="fixmatch", tau=0.95), ds)
        assert np.array_equal(a.model.weights, b.model.weights)

    def test_fixed_k_full_matches_hard_label_run(self):
        ds = generate_dataset(SMALL_SPEC)
        K = ds.n_classes
        a_cfg = small_config(k_policy=KPolicy.fixed(K, K))
        b_cfg = small_config(baseline="fixmatch", tau=0.0)
        reports = {name: list(train_steps(cfg, ds, init_state(cfg, ds)))
                   for name, cfg in (("soc", a_cfg), ("hard", b_cfg))}
        diffs = np.abs(np.array(reports["soc"]) - np.array(reports["hard"]))
        assert diffs.max() <= 1e-9

    def test_metric_sanity(self):
        ds = generate_dataset(SMALL_SPEC)
        state = run(small_config(), ds)
        for row in state.history:
            assert 0.0 <= row.pl_acc <= 1.0
            assert 1.0 <= row.mean_zobj2 <= ds.n_classes
            assert row.mean_entropy_sel <= row.mean_entropy_raw + 1e-9

    def test_divergence_detection(self):
        from soclabel.errors import DivergedAtIteration

        ds = generate_dataset(SMALL_SPEC)
        cfg = small_config(lr=1e100, iters=50)
        # The weights overflow on the way, which numpy reports.
        with pytest.warns(RuntimeWarning), pytest.raises(DivergedAtIteration):
            run(cfg, ds)

    def test_entropy_vs_k_non_increasing(self):
        ds = generate_dataset(SMALL_SPEC)
        state = run(small_config(iters=400, eval_every=100), ds)
        means = entropy_vs_k(
            state.model, ds.x_unlabeled[:100], state.ledger, ks=(2, 4, 8), seed=0
        )
        assert all(b <= a + 1e-9 for a, b in zip(means, means[1:]))

    @staticmethod
    def pinned_run_digests(baseline, tmp_path):
        """sha256 of the metrics CSV and of the final weights of a 60-step
        run on the default spec, window 8, no warmup, seed 3."""
        spec = SyntheticDatasetSpec()
        config = SimConfig(k_policy=KPolicy.linear(5.0, spec.n_classes), window=8,
                           iters=60, eval_every=10, warmup_epochs=0, seed=3,
                           baseline=baseline)
        state = run(config, generate_dataset(spec))
        csv = tmp_path / "metrics.csv"
        write_metrics_csv(state.history, csv)
        weights = state.model.weights.tobytes() + state.model.bias.tobytes()
        return (hashlib.sha256(csv.read_bytes()).hexdigest(),
                hashlib.sha256(weights).hexdigest())

    def test_pinned_soc_trajectory(self, tmp_path):
        # Without warmup, k-medoids sees partial windows of 3, 5, 6 and 7
        # batches before the window fills.
        # A change to either digest is a change of behaviour.
        assert_pinned(self.pinned_run_digests("soc", tmp_path), (
            "2a2bc751adb057c7edc647170e92e04f3fa62885a97eb94ab09e65f890c38ed6",
            "0d8462e2557ba21c00e062fc069eefb48be56b61287a45464d64e14138291b18"))

    def test_pinned_fixmatch_trajectory(self, tmp_path):
        # The baselines read no transitions; their runs must not move when
        # the soc arm's tracking or clustering does.
        assert_pinned(self.pinned_run_digests("fixmatch", tmp_path), (
            "709ec9c6ea068fda5c3ac9cea5c7602d7e35ef5f62d2a8b04e8b8929460749df",
            "e1e2f65a6ed16a9ad961c314e9d41da9d57df677008e335d6f23484a2ef00487"))

    def test_pinned_soft_trajectory(self, tmp_path):
        assert_pinned(self.pinned_run_digests("soft", tmp_path), (
            "25f81cdc27d42fbdf53f42b0be5b288b51b46399fc0e20cb6234f97190418ee5",
            "2e28ec90997e63dec9b334781c5bac6a68d41596ff55c28bf4ea725eba94622e"))

    def test_pinned_soc_trajectory_k200(self, tmp_path):
        # K=200 in 40 super-classes of 5, the class count of Semi-Aves and
        # Semi-Fungi. With lr 0.3 a cluster_labels call clusters 17
        # distinct ks on average (up to 28), on partial and full windows.
        spec = SyntheticDatasetSpec(n_super=40, fine_per_super=5,
                                    unlabeled_per_class=40, test_per_class=10)
        config = SimConfig(k_policy=KPolicy.linear(5.0, spec.n_classes), window=8,
                           iters=60, eval_every=10, warmup_epochs=0, lr=0.3, seed=0)
        state = run(config, generate_dataset(spec))
        csv = tmp_path / "metrics.csv"
        write_metrics_csv(state.history, csv)
        weights = state.model.weights.tobytes() + state.model.bias.tobytes()
        digests = (hashlib.sha256(csv.read_bytes()).hexdigest(),
                   hashlib.sha256(weights).hexdigest())
        assert_pinned(digests, (
            "086c436fa924015e60c87e72f0cec0f2224130a6a4d7b57936813818a6190501",
            "de4b0b60ce1496501fc7f818d0ab034a160247cbb59c1c262490a0e63dd2bdd4"))

    def test_entropy_vs_k_equals_one_k_at_a_time(self):
        # The single pass over every k gives each k's mean bit for bit as
        # a lone k's selection, repeated ks included.
        ds = generate_dataset(SMALL_SPEC)
        state = run(small_config(iters=200, eval_every=100), ds)
        ks = (8, 2, 3, 2, 5)
        means = entropy_vs_k(state.model, ds.x_unlabeled[:150], state.ledger, ks=ks, seed=4)
        probs = softmax(state.model.logits(ds.x_unlabeled[:150]))
        pnorm = probs / probs.sum(axis=1, keepdims=True)
        sim = state.ledger.similarity_matrix()
        for k, mean in zip(ks, means):
            targets, _ = select_rows(pnorm, *partitions(sim, np.full(150, k), seed=4))
            assert mean == float(np.mean(entropy(targets)))

    def test_final_score_is_tail_mean(self):
        ds = generate_dataset(SMALL_SPEC)
        state = run(small_config(), ds)
        tail = [r.test_top1 for r in state.history[-3:]]
        assert final_score(state.history) == pytest.approx(np.mean(tail))


def state_bits(state):
    """What later steps and evaluations of a SimState read, as comparable
    values: the iteration, the model and its velocities, the ledger and
    both RNG states."""
    ledger = state.ledger
    arrays = (state.model.weights, state.model.bias, state.vel_w, state.vel_b,
              ledger.running_sum, ledger.last_pred, *ledger.window)
    return (state.iteration, ledger.version, [a.tobytes() for a in arrays],
            state.rng_data.bit_generator.state, state.rng_aug.bit_generator.state)


class TestResume:
    """run on a stopped state continues as the unbroken run would. The
    small config warms up for 8 steps (64 labeled samples in batches of 8)
    and evaluates every 40 of its 120."""

    @pytest.mark.parametrize("stop", [1, 5, 53], ids=["first-step", "in-warmup", "past-warmup"])
    def test_stopped_state_continues_as_the_straight_run(self, stop):
        ds = generate_dataset(SMALL_SPEC)
        cfg = small_config()
        straight = run(cfg, ds)
        state = init_state(cfg, ds)
        assert len(list(itertools.islice(train_steps(cfg, ds, state), stop))) == stop
        assert state.iteration == stop and state.history == []
        resumed = run(cfg, ds, state)
        assert state_bits(resumed) == state_bits(straight)
        assert resumed.history == [row for row in straight.history if row.iter > stop]

    def test_finished_state_takes_no_step(self):
        ds = generate_dataset(SMALL_SPEC)
        cfg = small_config(iters=40)
        state = run(cfg, ds)
        before, rows = state_bits(state), list(state.history)
        assert list(train_steps(cfg, ds, state)) == []
        assert run(cfg, ds, state) is state
        assert state_bits(state) == before and state.history == rows

    @pytest.mark.parametrize("policy", [KPolicy.linear(2.0, 4), KPolicy.linear(5.0, 200)],
                             ids=["smaller-K", "larger-K"])
    def test_policy_for_another_k_rejected_before_any_step(self, policy):
        # On K=8, the first trained with k capped at 4; the second failed
        # mid-run once a batch chose k=9.
        ds = generate_dataset(SMALL_SPEC)
        cfg = small_config(k_policy=policy)
        state = init_state(cfg, ds)
        before = state_bits(state)
        message = f"k_policy is for K={policy.n_classes}, the dataset has K=8"
        for call in (lambda: run(cfg, ds, state), lambda: next(train_steps(cfg, ds, state))):
            with pytest.raises(ConfigError, match=message):
                call()
            assert state_bits(state) == before and state.history == []


def whole_array_evaluate(state, config, ds) -> MetricsRow:
    """evaluate as one pass over each whole set: the reference the blocked
    passes must match bit for bit."""
    model = state.model
    logits = lambda x: x @ model.weights.T + model.bias
    test_top1 = float((logits(ds.x_test).argmax(axis=1) == ds.y_test).mean())
    probs_all = softmax(logits(ds.x_unlabeled))
    pl_acc = float((probs_all.argmax(axis=1) == ds.y_unlabeled).mean())
    n_eval = min(config.eval_subset, ds.x_unlabeled.shape[0])
    probs = probs_all[:n_eval]
    targets, ks = build_targets(probs, config, state.ledger)
    return MetricsRow(
        iter=state.iteration,
        test_top1=test_top1,
        pl_acc=pl_acc,
        mean_entropy_sel=float(entropy(targets).mean()),
        mean_entropy_raw=float(entropy(probs).mean()),
        mean_zobj1=float(obj1_score(probs, targets, ds.y_unlabeled[:n_eval]).mean()),
        mean_zobj2=float(obj2_score(targets).mean()),
        k_mean=float(ks.mean()),
    )


class TestBlockedEvaluate:
    # 8 classes x 165 = 1320 unlabeled rows and 8 x 70 = 560 test rows:
    # neither is a multiple of the block, so each set ends in a short one.
    SPEC = dataclasses.replace(SMALL_SPEC, unlabeled_per_class=165, test_per_class=70)

    def test_every_field_equals_the_whole_array_pass(self):
        ds = generate_dataset(self.SPEC)
        n_ulb = ds.x_unlabeled.shape[0]
        assert n_ulb % EVAL_BLOCK and ds.x_test.shape[0] % EVAL_BLOCK
        subsets = (100, EVAL_BLOCK, EVAL_BLOCK + 188, n_ulb + 50)
        for baseline in ("soc", "fixmatch"):
            config = small_config(baseline=baseline, iters=150, eval_every=150)
            state = run(config, ds)
            # Only soc tracks transitions; fixmatch leaves the ledger cold.
            if baseline == "soc":
                assert state.ledger.version > 0
            else:
                assert state.ledger.version == 0
            for subset in subsets:
                cfg = dataclasses.replace(config, eval_subset=subset)
                got = evaluate(state, cfg, ds)
                assert dataclasses.asdict(got) == dataclasses.asdict(
                    whole_array_evaluate(state, cfg, ds)), (baseline, subset)

    @staticmethod
    def k200_peaks(measure, per_class):
        """tracemalloc peak of measure(state, config, ds) for each unlabeled
        count per class, at K=200 in 40 super-classes of 5, with random
        weights and a cold ledger."""
        peaks = []
        for n in per_class:
            spec = SyntheticDatasetSpec(n_super=40, fine_per_super=5,
                                        unlabeled_per_class=n, test_per_class=10)
            ds = generate_dataset(spec)
            config = SimConfig(k_policy=KPolicy.linear(5.0, spec.n_classes))
            state = init_state(config, ds)
            rng = np.random.default_rng(0)
            state.model.weights[:] = rng.normal(size=state.model.weights.shape)
            tracemalloc.start()
            try:
                measure(state, config, ds)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    def test_memory_does_not_grow_with_the_unlabeled_set(self):
        # A whole-set pass held several |unlabeled| x K arrays: 19 MB at 20
        # samples per class, 96 MB at 100.
        peaks = self.k200_peaks(evaluate, (20, 100))
        assert peaks[1] - peaks[0] < 2_000_000, peaks

    def test_memory_does_not_grow_with_eval_subset(self):
        # From 512 to 2048 evaluated rows, a target pass over all of them at
        # once grew the peak by 10.2 MB, and keeping their probabilities
        # (1536 x 200 float64s more) by 2.53 MB. Taken block by block from
        # the model, it grows by about 0.08 MB.
        def at(n_eval):
            return lambda state, config, ds: evaluate(
                state, dataclasses.replace(config, eval_subset=n_eval), ds)
        peaks = [self.k200_peaks(at(n_eval), (20,))[0] for n_eval in (512, 2048)]
        assert peaks[1] - peaks[0] < 500_000, peaks

    def test_one_clustering_per_evaluate(self, monkeypatch):
        # One cluster_labels call takes the distinct ks of every evaluated
        # row, however many blocks they span.
        ds = generate_dataset(self.SPEC)
        config = small_config(iters=150, eval_every=150)
        state = run(config, ds)
        calls = []
        real = clustering.cluster_labels

        def counted(sim, ks, *args, **kwargs):
            calls.append(list(ks))
            return real(sim, ks, *args, **kwargs)

        monkeypatch.setattr(clustering, "cluster_labels", counted)
        for subset in (100, EVAL_BLOCK + 188, ds.x_unlabeled.shape[0]):
            cfg = dataclasses.replace(config, eval_subset=subset)
            calls.clear()
            evaluate(state, cfg, ds)
            evaluated = list(calls)
            probs = softmax(ds.x_unlabeled[:subset] @ state.model.weights.T
                            + state.model.bias)
            _, ks = build_targets(probs, cfg, state.ledger)
            assert evaluated == [sorted(set(ks.tolist()))], subset

    def test_entropy_vs_k_equals_the_whole_array_pass(self):
        # Three blocks, the last one short, against one selection
        # on a copy of every row per k.
        ds = generate_dataset(self.SPEC)
        state = run(small_config(iters=150, eval_every=150), ds)
        ks = (8, 2, 3, 2, 5)
        pnorm = softmax(ds.x_unlabeled @ state.model.weights.T + state.model.bias)
        pnorm /= pnorm.sum(axis=1, keepdims=True)
        n = len(pnorm)
        targets, _ = select_rows(np.tile(pnorm, (len(ks), 1)), *partitions(
            state.ledger.similarity_matrix(), np.repeat(ks, n), seed=4))
        entropies = entropy(targets)
        assert entropy_vs_k(state.model, ds.x_unlabeled, state.ledger, ks=ks, seed=4) == [
            float(np.mean(entropies[r * n:(r + 1) * n])) for r in range(len(ks))]

    def test_entropy_vs_k_memory_does_not_grow_with_the_unlabeled_set(self):
        # Tiling the whole set once per k peaked at 114 MB at 20 samples per
        # class and 227 MB at 40.
        sweep = lambda state, config, ds: entropy_vs_k(
            state.model, ds.x_unlabeled, state.ledger, ks=(2, 4, 8, 16, 32))
        peaks = self.k200_peaks(sweep, (20, 40))
        assert peaks[1] - peaks[0] < 2_000_000, peaks

    def test_entropy_vs_k_memory_does_not_grow_with_the_number_of_ks(self):
        # One selection per block on a copy of the block per k
        # peaked at 20.7 MB for 5 ks and 74.2 MB for 20.
        peaks = [
            self.k200_peaks(lambda state, config, ds: entropy_vs_k(
                state.model, ds.x_unlabeled, state.ledger, ks=ks), (20,))[0]
            for ks in ((2, 4, 8, 16, 32), tuple(range(2, 22)))
        ]
        assert abs(peaks[1] - peaks[0]) < 2_000_000, peaks


class TestConfigParsing:
    def test_defaults(self):
        config, spec = config_from_dict({})
        assert spec.n_classes == 32
        assert config.k_policy.variant == "linear"
        # The policy the CLI builds when no policy flag is given.
        args = cli.build_parser().parse_args(["select", "LOG"])
        assert config.k_policy == cli._policy(cli._policy_config(args), spec.n_classes)

    def test_bad_policy(self):
        with pytest.raises(ConfigError):
            config_from_dict({"sim": {"k_policy": {"policy": "nope"}}})

    def test_bad_field_reported_with_path(self):
        with pytest.raises(ConfigError, match="sim"):
            config_from_dict({"sim": {"not_a_field": 3}})
        with pytest.raises(ConfigError, match="dataset"):
            config_from_dict({"dataset": {"dim": 16, "bogus": 1}})

    def test_baseline_validation(self):
        with pytest.raises(ConfigError):
            config_from_dict({"sim": {"baseline": "mystery"}})

    def test_root_and_sections_must_be_objects(self):
        # dict() would take a list of pairs, and fail on None with a TypeError.
        for raw in ({"sim": None}, {"sim": [["iters", 5]]}, {"dataset": [["seed", 1]]},
                    [["sim", {}]], None):
            with pytest.raises(ConfigError, match="must be objects"):
                config_from_dict(raw)

    def test_largest_split_bounded_by_numpy(self):
        # 32 classes of 200 unlabeled rows: the bound's dim makes an array
        # of at most the largest intp bytes, one more exceeds it. Only the
        # spec is built; no dataset is drawn.
        dim = np.iinfo(np.intp).max // (32 * 200 * 8)
        assert config_from_dict({"dataset": {"dim": dim}})[1].dim == dim
        for dataset in ({"dim": dim + 1}, {"unlabeled_per_class": 2**62},
                        {"n_super": 10**400}):
            with pytest.raises(ConfigError, match="dataset: the largest split"):
                config_from_dict({"dataset": dataset})

    def test_numbers_beyond_float_range_rejected(self):
        # math.isfinite raised OverflowError on these.
        big = 10**400
        for raw, message in (
            ({"sim": {"lr": big}}, "lr must be a finite number"),
            ({"sim": {"lambda_cos": -big}}, "lambda_cos must be a finite number"),
            ({"sim": {"iters": big}}, "iters must convert to a finite float"),
            ({"sim": {"k_policy": {"policy": "linear", "alpha": big}}},
             "sim.k_policy: alpha must be a finite number"),
            ({"dataset": {"inter_spread": big}}, "dataset: inter_spread must be a finite number"),
        ):
            with pytest.raises(ConfigError, match=message):
                config_from_dict(raw)

    def test_overrides_replace_sim_fields(self):
        raw = {"sim": {"iters": 5, "tau": 0.5, "k_policy": {"policy": "fixed", "k": 4}}}
        config, _ = config_from_dict(raw, {"iters": 7, "k_policy": {"policy": "fixed", "k": 3}})
        assert (config.iters, config.tau, config.k_policy.k) == (7, 0.5, 3)
        assert raw["sim"]["iters"] == 5
        with pytest.raises(ConfigError, match="iters"):
            config_from_dict({}, {"iters": 0})
