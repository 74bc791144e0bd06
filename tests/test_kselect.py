import math

import numpy as np
import pytest

from soclabel.errors import InvalidConfidence
from soclabel.kselect import KPolicy, parse_config, select_k


class TestLinear:
    def test_paper_default_top(self):
        assert select_k(KPolicy.linear(5.0, 200), 1.0) == 42

    def test_paper_default_bottom(self):
        assert select_k(KPolicy.linear(5.0, 200), 1 / 200) == 2

    def test_boundary_alpha_reaches_k(self):
        K = 50
        policy = KPolicy.linear(K / (K - 2), K)
        assert select_k(policy, 1.0) == K

    def test_alpha_constraint(self):
        with pytest.raises(ValueError):
            KPolicy.linear(1.0, 200)


class TestExponential:
    def test_boundary_beta_reaches_k(self):
        K = 40
        policy = KPolicy.exponential(math.log(2 - 2 / K), K)
        assert select_k(policy, 1.0) == K

    def test_low_confidence_floor(self):
        policy = KPolicy.exponential(math.log(1.2), 100)
        assert select_k(policy, 1 / 100) == 2

    def test_beta_constraint(self):
        with pytest.raises(ValueError):
            KPolicy.exponential(1.0, 10)  # above ln(2 - 2/10)
        with pytest.raises(ValueError):
            KPolicy.exponential(-0.1, 10)


class TestFixed:
    def test_constant(self):
        policy = KPolicy.fixed(50, 200)
        for conf in (0.01, 0.5, 1.0):
            assert select_k(policy, conf) == 50

    def test_bounds(self):
        with pytest.raises(Exception):
            KPolicy.fixed(1, 10)
        with pytest.raises(Exception):
            KPolicy.fixed(11, 10)


class TestRangeAndMonotonicity:
    @pytest.mark.parametrize("K", [10, 200])
    def test_grid(self, K):
        policies = [KPolicy.linear(a, K) for a in (K / (K - 2), 2, 5, 10)]
        policies += [
            KPolicy.exponential(b, K)
            for b in (math.log(1.2), math.log(1.4), math.log(2 - 2 / K))
        ]
        confidences = np.linspace(1 / K, 1.0, 500)
        for policy in policies:
            ks = [select_k(policy, float(c)) for c in confidences]
            assert all(2 <= k <= K for k in ks)
            assert all(a <= b for a, b in zip(ks, ks[1:]))

    def test_invalid_confidence(self):
        policy = KPolicy.linear(5.0, 10)
        for bad in (-0.01, 1.01):
            with pytest.raises(InvalidConfidence):
                select_k(policy, bad)


def scalar_k(policy, conf):
    """The per-sample formula in Python floats, as select_k computed it
    one confidence at a time."""
    K = policy.n_classes
    if policy.variant == "fixed":
        return policy.k
    if policy.variant == "linear":
        raw = (conf / policy.alpha + 2 / K) * K - 0.5
    else:
        raw = (math.exp(policy.beta * conf) - 1 + 2 / K) * K - 0.5
    return int(min(max(math.ceil(raw), 2), K))


def boundary_confidences(policy):
    """Confidences at which raw k is an integer, with their float
    neighbours: where a ceiling changes."""
    K = policy.n_classes
    m = np.arange(2, K + 1, dtype=float)
    if policy.variant == "linear":
        conf = policy.alpha * (m - 1.5) / K
    elif policy.variant == "exponential":
        conf = np.log((m + 0.5) / K + 1 - 2 / K) / policy.beta
    else:
        conf = np.array([])
    conf = np.concatenate([conf, np.nextafter(conf, 0), np.nextafter(conf, 2)])
    return conf[(conf >= 0) & (conf <= 1)]


def array_policies(K):
    return [
        KPolicy.linear(K / (K - 2), K), KPolicy.linear(5.0, K),
        KPolicy.exponential(math.log(1.2), K), KPolicy.exponential(math.log(2 - 2 / K), K),
        KPolicy.fixed(2, K), KPolicy.fixed(K, K),
    ]


class TestArraySelectK:
    @pytest.mark.parametrize("K", [3, 32, 200])
    def test_equals_scalar_formula(self, K):
        for policy in array_policies(K):
            conf = np.concatenate([np.linspace(0.0, 1.0, 2001), boundary_confidences(policy)])
            ks = select_k(policy, conf)
            assert ks.dtype.kind == "i" and ks.shape == conf.shape
            assert ks.tolist() == [scalar_k(policy, c) for c in conf.tolist()]

    def test_keeps_shape(self):
        policy = KPolicy.linear(5.0, 200)
        conf = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        assert select_k(policy, conf).shape == (2, 3)
        assert select_k(policy, 1.0).shape == ()
        assert int(select_k(policy, 1.0)) == 42

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1])
    def test_any_invalid_element_raises(self, bad):
        for policy in array_policies(32):
            for where in (0, 2, 4):
                conf = np.full(5, 0.5)
                conf[where] = bad
                with pytest.raises(InvalidConfidence):
                    select_k(policy, conf)


def test_mean_candidate_size_non_increasing_in_k():
    # Larger k means finer clusters, so the average candidate-set size
    # over a fixed similarity matrix shrinks (weakly).
    from soclabel.clustering import partitions, select_rows
    from soclabel.transitions import MAX_SIM

    raw = np.random.default_rng(5).integers(0, 10, size=(16, 16))
    sim = (raw + raw.T).astype(float)
    np.fill_diagonal(sim, MAX_SIM)
    # Row c puts its argmax on class c, so the rows query every class.
    probs = np.full((16, 16), 0.5 / 15)
    np.fill_diagonal(probs, 0.5)
    means = []
    for k in (2, 4, 8, 16):
        _, mask = select_rows(probs, *partitions(sim, np.full(16, k), seed=0))
        means.append(mask.sum(axis=1).mean())
    assert all(b <= a for a, b in zip(means, means[1:]))


def test_from_config():
    assert KPolicy.from_config({"policy": "linear", "alpha": 5.0}, 200).alpha == 5.0
    assert KPolicy.from_config({"policy": "exp", "beta": 0.3}, 200).beta == 0.3
    assert KPolicy.from_config({"policy": "fixed", "k": 7}, 200).k == 7
    with pytest.raises(ValueError):
        KPolicy.from_config({"policy": "nope"}, 200)
    # A key the policy does not read, and a NaN, infinite or overflowing
    # parameter, need no K.
    with pytest.raises(ValueError, match="policy linear reads alpha, not k"):
        parse_config({"policy": "linear", "alpha": 5.0, "k": 3})
    for cfg, message in (
        ({"policy": "exp", "beta": math.nan}, "beta must be a finite number, got nan"),
        ({"policy": "linear", "alpha": math.inf}, "alpha must be a finite number, got inf"),
        ({"policy": "exp", "beta": -math.inf}, "beta must be a finite number, got -inf"),
        # An int too large for a float, which math.isfinite cannot take.
        ({"policy": "linear", "alpha": 10**400}, "alpha must be a finite number, got 1000"),
    ):
        with pytest.raises(TypeError, match=message):
            parse_config(cfg)
