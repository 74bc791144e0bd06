import math

import numpy as np
import pytest

from soclabel.errors import EmptyBatch, ShapeMismatch
from soclabel.losses import (
    cross_entropy,
    cross_entropy_terms,
    fixmatch_weights,
    log_softmax,
    one_hot,
    softmax,
)
from soclabel.verify import suite_losses


def ce_grad(target, logits):
    """The gradient half of cross_entropy_terms."""
    return cross_entropy_terms(target, logits)[1]


def supervised_loss(logits, labels):
    """The training step's supervised term: cross-entropy on one-hot labels."""
    return cross_entropy(one_hot(labels, logits.shape[1]), logits)


def baseline_fixmatch_loss(probs_weak, strong_logits, tau):
    """The training step's consistency term on the FixMatch arm: hard
    pseudo-labels, thresholded, averaged over the full batch."""
    hard = one_hot(probs_weak.argmax(axis=1), probs_weak.shape[1])
    per_sample, _ = cross_entropy_terms(hard, strong_logits)
    return float((per_sample * fixmatch_weights(probs_weak, tau)).mean())


class TestCrossEntropy:
    def test_hand_value_saturated(self):
        # lse(10,0,0) - 10 = ln(1 + 2 e^-10)
        logits = np.array([10.0, 0.0, 0.0])
        expected = math.log(1 + 2 * math.exp(-10))
        assert cross_entropy(np.array([1.0, 0, 0]), logits) == pytest.approx(expected)
        assert expected == pytest.approx(9.1e-5, rel=0.01)

    def test_self_consistency_equals_entropy(self):
        logits = np.array([1.0, -0.5, 0.3, 2.0])
        p = softmax(logits)
        ent = float(-np.sum(p * np.log(p)))
        assert cross_entropy(p, logits) == pytest.approx(ent, abs=1e-12)

    def test_uniform_target_zero_logits(self):
        assert cross_entropy(np.full(4, 0.25), np.zeros(4)) == pytest.approx(
            math.log(4)
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            cross_entropy(np.full(3, 1 / 3), np.zeros(4))

    def test_stable_for_large_logits(self):
        logits = np.array([1000.0, 0.0, -1000.0])
        val = cross_entropy(np.array([1.0, 0.0, 0.0]), logits)
        assert np.isfinite(val) and val >= 0


class TestGradient:
    def test_softmax_minus_target(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=6)
        target = rng.dirichlet(np.ones(6))
        assert np.allclose(ce_grad(target, logits), softmax(logits) - target)

    def test_finite_differences(self):
        rng = np.random.default_rng(1)
        step = 1e-5
        for _ in range(20):
            K = int(rng.integers(3, 12))
            logits = rng.normal(scale=3, size=K)
            target = rng.dirichlet(np.ones(K))
            grad = ce_grad(target, logits)
            for c in range(K):
                up, down = logits.copy(), logits.copy()
                up[c] += step
                down[c] -= step
                fd = (cross_entropy(target, up) - cross_entropy(target, down)) / (
                    2 * step
                )
                assert grad[c] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestCrossEntropyTerms:
    def test_bits_equal_the_two_functions(self):
        # Against the loss and gradient formulas written out here, on soft,
        # one-hot and all-zero targets, saturated logits included.
        rng = np.random.default_rng(2)
        for scale in (0.1, 3.0, 300.0):
            logits = rng.normal(scale=scale, size=(40, 32))
            for target in (rng.dirichlet(np.ones(32), size=40),
                           one_hot(rng.integers(0, 32, size=40), 32),
                           np.zeros((40, 32))):
                per_sample, grad = cross_entropy_terms(target, logits)
                assert np.array_equal(
                    per_sample, -np.sum(target * log_softmax(logits), axis=-1))
                assert np.array_equal(grad, softmax(logits) - target)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            cross_entropy_terms(np.full((2, 3), 1 / 3), np.zeros((2, 4)))


class TestSupervisedLoss:
    def test_perfect_predictor_saturates(self):
        labels = np.array([0, 1, 2])
        logits = one_hot(labels, 3) * 50.0
        assert supervised_loss(logits, labels) < 1e-4

    def test_single_example_matches_cross_entropy(self):
        logits = np.array([0.2, -1.0, 0.7])
        per_sample, _ = cross_entropy_terms(one_hot([2], 3), logits[None, :])
        assert per_sample.shape == (1,)
        assert supervised_loss(logits[None, :], np.array([2])) == per_sample[0]
        assert per_sample[0] == pytest.approx(
            cross_entropy(np.array([0.0, 0.0, 1.0]), logits)
        )

    def test_concatenation_is_weighted_mean(self):
        rng = np.random.default_rng(2)
        a_logits, a_y = rng.normal(size=(3, 5)), rng.integers(0, 5, 3)
        b_logits, b_y = rng.normal(size=(7, 5)), rng.integers(0, 5, 7)
        combined = supervised_loss(
            np.vstack([a_logits, b_logits]), np.concatenate([a_y, b_y])
        )
        weighted = (3 * supervised_loss(a_logits, a_y) + 7 * supervised_loss(b_logits, b_y)) / 10
        assert combined == pytest.approx(weighted)

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            supervised_loss(np.zeros((0, 4)), np.zeros(0, dtype=int))


class TestConsistencyLoss:
    def test_matching_logits_give_entropy(self):
        rng = np.random.default_rng(3)
        targets = rng.dirichlet(np.ones(4), size=5)
        logits = np.log(targets) + 2.7  # constant shift cancels in softmax
        ents = [-np.sum(t * np.log(t)) for t in targets]
        assert cross_entropy(targets, logits) == pytest.approx(np.mean(ents))

    def test_one_hot_targets_match_hard_label_loss(self):
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(6), size=8)
        hard = one_hot(probs.argmax(axis=1), 6)
        strong = rng.normal(size=(8, 6))
        assert cross_entropy(hard, strong) == pytest.approx(
            baseline_fixmatch_loss(probs, strong, tau=0.0)
        )

    def test_two_sample_scalar_oracle(self):
        targets = np.array([[0.7, 0.3, 0.0], [0.2, 0.2, 0.6]])
        strong = np.array([[1.0, 0.0, -1.0], [0.5, 0.5, 0.5]])
        by_hand = np.mean(
            [-np.sum(t * log_softmax(s)) for t, s in zip(targets, strong)]
        )
        assert cross_entropy(targets, strong) == pytest.approx(by_hand)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        targets = rng.dirichlet(np.ones(5), size=10)
        strong = rng.normal(size=(10, 5))
        perm = rng.permutation(10)
        assert cross_entropy(targets, strong) == pytest.approx(
            cross_entropy(targets[perm], strong[perm]), abs=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            cross_entropy(np.full((2, 3), 1 / 3), np.zeros((3, 3)))


class TestBaselineLoss:
    def test_tau_zero_keeps_all(self):
        rng = np.random.default_rng(6)
        probs = rng.dirichlet(np.ones(4), size=6)
        strong = rng.normal(size=(6, 4))
        hard = one_hot(probs.argmax(axis=1), 4)
        per = [-np.sum(h * log_softmax(s)) for h, s in zip(hard, strong)]
        assert baseline_fixmatch_loss(probs, strong, 0.0) == pytest.approx(np.mean(per))

    def test_tau_one_keeps_only_saturated(self):
        probs = np.array([[1.0, 0.0], [0.6, 0.4]])
        strong = np.array([[0.3, -0.2], [0.1, 0.9]])
        expected = -log_softmax(strong[0])[0] / 2
        assert baseline_fixmatch_loss(probs, strong, 1.0) == pytest.approx(expected)

    def test_mixed_batch_filter_oracle(self):
        rng = np.random.default_rng(7)
        probs = rng.dirichlet(np.full(5, 0.3), size=20)
        strong = rng.normal(size=(20, 5))
        tau = 0.5
        total = 0.0
        for p, s in zip(probs, strong):
            if p.max() >= tau:
                total += -log_softmax(s)[p.argmax()]
        assert baseline_fixmatch_loss(probs, strong, tau) == pytest.approx(total / 20)


class TestGradientCheckSuite:
    """verify.suite_losses: a normwise finite-difference check that passes
    the analytic gradient on every seed and fails a wrong one."""

    def test_correct_gradient_passes_seeds_0_to_39(self):
        # A per-component relative error fails seed 7 and eight others.
        for seed in range(40):
            res = suite_losses(seed=seed)
            assert res.ok, (seed, res.failures)

    def test_scaled_gradient_fails(self):
        res = suite_losses(trials=50, seed=0,
                           grad_fn=lambda t, z: ce_grad(t, z) * (1 + 1e-4))
        assert res.passed == 0
        assert min(res.failures) > 9e-5

    def test_one_flipped_component_fails(self):
        def flipped(target, logits):
            grad = ce_grad(target, logits)
            grad[0] = -grad[0]
            return grad

        assert suite_losses(trials=50, seed=0, grad_fn=flipped).passed == 0
