import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soclabel import clustering
from soclabel.clustering import _assign, cluster_labels, partitions, select_rows, select_targets
from soclabel.errors import EmptyBatch, InvalidK
from soclabel.transitions import MAX_SIM, TransitionLedger


def sim_with_blocks(blocks, n, strong=5, weak=1):
    sim = np.full((n, n), weak, dtype=float)
    for block in blocks:
        for a, b in itertools.permutations(block, 2):
            sim[a, b] = strong
    np.fill_diagonal(sim, MAX_SIM)
    return sim


def symmetric(raw):
    """raw + raw.T with a MAX_SIM diagonal, as a ledger builds C + C^T."""
    sim = (raw + raw.T).astype(float)
    np.fill_diagonal(sim, MAX_SIM)
    return sim


def clusters_of(row, k):
    """The k clusters of one cluster_labels row, as frozensets."""
    return tuple(frozenset(np.flatnonzero(row == j).tolist()) for j in range(k))


class TestKmedoids:
    """One-k partitions from cluster_labels."""

    def test_two_block_recovery_every_seed(self):
        blocks = ({0, 1}, {2, 3})
        sim = sim_with_blocks(blocks, 4)
        for seed in range(10):
            labels, _, converged = cluster_labels(sim, [2], seed=seed)
            assert set(clusters_of(labels[0], 2)) == {frozenset(b) for b in blocks}
            assert converged[0]

    def test_k_equals_n_gives_singletons(self):
        sim = sim_with_blocks(({0, 1, 2}, {3, 4}), 5)
        labels, medoids, _ = cluster_labels(sim, [5], seed=0)
        assert medoids[0].tolist() == list(range(5))
        assert sorted(labels[0].tolist()) == list(range(5))

    def test_zero_similarity_tie_break(self):
        sim = np.zeros((5, 5))
        np.fill_diagonal(sim, MAX_SIM)
        labels, medoids, _ = cluster_labels(sim, [2], seed=42)
        # All non-medoid classes fall to the lowest-indexed medoid.
        low, high = medoids[0].tolist()
        by_medoid = dict(zip((low, high), clusters_of(labels[0], 2)))
        assert by_medoid[high] == frozenset({high})
        assert by_medoid[low] == frozenset(range(5)) - {high}

    def test_invalid_k(self):
        sim = sim_with_blocks((), 4)
        for bad in (1, 5, 0):
            with pytest.raises(InvalidK):
                cluster_labels(sim, [bad], seed=0)

    def test_determinism(self):
        rng = np.random.default_rng(0)
        sim = symmetric(rng.integers(0, 10, size=(12, 12)))
        first, second = cluster_labels(sim, [3], seed=9), cluster_labels(sim, [3], seed=9)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_partition_and_fixed_point(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(4, 20))
            k = int(rng.integers(2, n + 1))
            sim = symmetric(rng.integers(0, 10, size=(n, n)))
            labels, medoids, _ = cluster_labels(sim, [k], seed=int(rng.integers(1000)))
            assert ((labels[0] >= 0) & (labels[0] < k)).all()
            assert np.array_equal(_assign(sim, medoids[0]), labels[0])

    def test_local_optimality_small_instances(self):
        # At convergence, within each cluster no member beats its medoid on
        # total similarity to the cluster (the medoid-update criterion).
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(5, 9))
            k = int(rng.integers(2, 4))
            sim = symmetric(rng.integers(0, 10, size=(n, n)))
            sim_zero = sim.copy()
            np.fill_diagonal(sim_zero, 0.0)

            labels, medoids, converged = cluster_labels(sim, [k], seed=int(rng.integers(1000)))
            if not converged[0]:
                continue
            for medoid, cluster in zip(medoids[0].tolist(), clusters_of(labels[0], k)):
                members = sorted(cluster)
                medoid_score = sim_zero[medoid, members].sum()
                for repl in members:
                    assert sim_zero[repl, members].sum() <= medoid_score


def reference_kmedoids(sim, k, seed, max_iter=100):
    """The per-cluster loop cluster_labels replaced: each cluster's sums in
    member order through np.ix_. Returns (medoids, clusters, converged)."""
    sim = np.asarray(sim, dtype=float)
    n = sim.shape[0]
    sim_zero_diag = sim.copy()
    np.fill_diagonal(sim_zero_diag, 0.0)
    medoids = sorted(np.random.default_rng(seed).permutation(n)[:k].tolist())
    assignment = np.argmax(sim[:, medoids], axis=1)
    converged = False
    for _ in range(max_iter):
        new_medoids = []
        for j in range(k):
            members = np.flatnonzero(assignment == j)
            sums = sim_zero_diag[np.ix_(members, members)].sum(axis=1)
            new_medoids.append(int(members[np.argmax(sums)]))
        new_medoids = sorted(new_medoids)
        if new_medoids == medoids:
            converged = True
            break
        medoids = new_medoids
        assignment = np.argmax(sim[:, medoids], axis=1)
    clusters = tuple(
        frozenset(int(c) for c in np.flatnonzero(assignment == j)) for j in range(k)
    )
    return tuple(medoids), clusters, converged


def ledger_similarity(rng, K, window, n_batches):
    """A ledger's similarity after n_batches random batches in which each
    id's prediction moves inside one group of 4 classes."""
    ledger = TransitionLedger(K, window, 2 * K)
    for _ in range(n_batches):
        ids = rng.integers(0, 2 * K, size=int(rng.integers(1, 9)))
        preds = (ids // 4 * 4 + rng.integers(0, 4, size=ids.size)) % K
        ledger.observe_batch(ids, preds)
    return ledger.similarity_matrix()


def tie_heavy_similarity(rng, kind, K):
    if kind == "small":
        # Entries in [0, 4]: many sums tie.
        return symmetric(rng.integers(0, 3, size=(K, K)))
    if kind == "duplicated":
        # Copies of one class have equal rows, so their sums tie exactly.
        base = rng.integers(0, 1000, size=(K, K))
        copies = rng.integers(0, max(2, K // 3), size=K)
        return symmetric(base[np.ix_(copies, copies)])
    # Negative entries.
    return symmetric(rng.integers(-2, 3, size=(K, K)))


class TestKmedoidsOracle:
    """A lone k equals the per-cluster loop bit for bit, on partial and
    full ledger windows and on tie-heavy matrices."""

    @given(
        K=st.sampled_from([4, 32, 200]),
        window=st.sampled_from([3, 300, 511, 512]),
        full=st.booleans(),
        data_seed=st.integers(0, 2**32 - 1),
        k_frac=st.floats(0, 1),
        seed=st.integers(0, 2**31 - 1),
        max_iter=st.sampled_from([1, 100]),
    )
    @settings(max_examples=60, deadline=None)
    def test_ledger_windows(self, K, window, full, data_seed, k_frac, seed, max_iter):
        rng = np.random.default_rng(data_seed)
        n_batches = window if full else int(rng.integers(1, window))
        sim = ledger_similarity(rng, K, window, n_batches)
        k = 2 + int(k_frac * (K - 2))
        TestClusterLabels.assert_rows_match_reference(sim, [k], seed, max_iter)

    @given(
        K=st.sampled_from([4, 32, 200]),
        kind=st.sampled_from(["small", "duplicated", "negative"]),
        data_seed=st.integers(0, 2**32 - 1),
        k_frac=st.floats(0, 1),
        seed=st.integers(0, 2**31 - 1),
        max_iter=st.sampled_from([1, 100]),
    )
    # Clusters of 4 and more members whose best sums tie exactly: 12 of them
    # over 3 passes (data_seed=7), and 3 in one pass (data_seed=0).
    @example(K=32, kind="duplicated", data_seed=7, k_frac=0.3, seed=0, max_iter=100)
    @example(K=32, kind="duplicated", data_seed=0, k_frac=0.3, seed=0, max_iter=1)
    @settings(max_examples=300, deadline=None)
    def test_tie_heavy(self, K, kind, data_seed, k_frac, seed, max_iter):
        sim = tie_heavy_similarity(np.random.default_rng(data_seed), kind, K)
        k = 2 + int(k_frac * (K - 2))
        TestClusterLabels.assert_rows_match_reference(sim, [k], seed, max_iter)

    def test_non_finite_off_diagonal_rejected(self):
        sim = sim_with_blocks(({0, 1}, {2, 3}), 4)
        sim[0, 1] = np.nan
        with pytest.raises(ValueError, match="integer off-diagonal"):
            cluster_labels(sim, [2], seed=0)


class TestClusterLabels:
    """One lockstep pass over a set of ks equals the per-cluster loop for
    every k alone."""

    @staticmethod
    def assert_rows_match_reference(sim, ks, seed, max_iter):
        labels, medoids, converged = cluster_labels(sim, ks, seed, max_iter)
        for r, k in enumerate(ks):
            ref_medoids, ref_clusters, ref_converged = reference_kmedoids(
                sim, k, seed, max_iter
            )
            assert tuple(medoids[r, :k].tolist()) == ref_medoids
            assert (medoids[r, k:] == sim.shape[0]).all()
            # Each medoid lies in its own cluster.
            assert (labels[r, medoids[r, :k]] == np.arange(k)).all()
            assert clusters_of(labels[r], k) == ref_clusters
            assert bool(converged[r]) == ref_converged

    @staticmethod
    def distinct_ks(rng, K):
        """A random set of distinct ks in [2, K], in random order, often with K."""
        ks = rng.choice(np.arange(2, K + 1), size=int(rng.integers(1, min(K - 1, 8) + 1)),
                        replace=False)
        if rng.random() < 0.3 and K not in ks:
            ks[0] = K
        return ks.tolist()

    @given(
        K=st.sampled_from([4, 32, 200]),
        window=st.sampled_from([3, 300, 512]),
        full=st.booleans(),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**31 - 1),
        max_iter=st.sampled_from([1, 2, 3, 100]),
    )
    @settings(max_examples=40, deadline=None)
    def test_ledger_windows(self, K, window, full, data_seed, seed, max_iter):
        rng = np.random.default_rng(data_seed)
        n_batches = window if full else int(rng.integers(1, window))
        sim = ledger_similarity(rng, K, window, n_batches)
        self.assert_rows_match_reference(sim, self.distinct_ks(rng, K), seed, max_iter)

    @given(
        K=st.sampled_from([4, 32, 200]),
        kind=st.sampled_from(["small", "duplicated", "negative"]),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**31 - 1),
        max_iter=st.sampled_from([1, 2, 3, 100]),
    )
    # The tied 4+-member clusters of TestKmedoidsOracle, among other ks.
    @example(K=32, kind="duplicated", data_seed=7, seed=0, max_iter=100)
    @example(K=32, kind="duplicated", data_seed=0, seed=0, max_iter=1)
    @settings(max_examples=150, deadline=None)
    def test_tie_heavy(self, K, kind, data_seed, seed, max_iter):
        rng = np.random.default_rng(data_seed)
        sim = tie_heavy_similarity(rng, kind, K)
        ks = self.distinct_ks(rng, K)
        if K == 32 and 11 not in ks:
            ks.append(11)  # k of the pinned tie examples
        self.assert_rows_match_reference(sim, ks, seed, max_iter)

    def test_fixed_rows_wait_for_moving_ones(self):
        # ks 4 and 11 are fixed after the first pass, while 5 and 6 still
        # move after the second: every row must keep its own stopping point.
        sim = symmetric(np.random.default_rng(0).integers(0, 10, size=(12, 12)))
        ks, seed = [5, 4, 11, 6], 3
        assert all(reference_kmedoids(sim, k, seed, max_iter=1)[2] for k in (4, 11))
        assert not any(reference_kmedoids(sim, k, seed, max_iter=2)[2] for k in (5, 6))
        for max_iter in (1, 2, 3, 100):
            self.assert_rows_match_reference(sim, ks, seed, max_iter)

    @given(
        window=st.sampled_from([8, 512]),
        full=st.booleans(),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**31 - 1),
        max_iter=st.sampled_from([1, 2, 3, 100]),
    )
    @settings(max_examples=12, deadline=None)
    def test_k200_training_ks(self, window, full, data_seed, seed, max_iter):
        # At K=200 a training call clusters about 17 distinct ks, the
        # largest near 26.
        rng = np.random.default_rng(data_seed)
        n_batches = window if full else int(rng.integers(1, window))
        sim = ledger_similarity(rng, 200, window, n_batches)
        ks = rng.choice(np.arange(2, 29), size=17, replace=False).tolist()
        self.assert_rows_match_reference(sim, ks, seed, max_iter)

    @given(
        K=st.sampled_from([4, 32, 200]),
        kind=st.sampled_from(["ledger", "small", "duplicated", "negative"]),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**31 - 1),
        per_frac=st.floats(0, 1, exclude_max=True),
        ascending=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_sliced_passes(self, K, kind, data_seed, seed, per_frac, ascending):
        # A budget of `per` rows of K elements, with per below the number
        # of real clusters, so below len(ks) * max(ks): every lockstep pass
        # and every medoid gather take several slices, and each row is
        # still its k's alone.
        rng = np.random.default_rng(data_seed)
        if kind == "ledger":
            sim = ledger_similarity(rng, K, 512, int(rng.integers(1, 513)))
        else:
            sim = tie_heavy_similarity(rng, kind, K)
        ks = self.distinct_ks(rng, K)
        if len(ks) == 1:
            ks.append(next(k for k in range(2, K + 1) if k != ks[0]))
        if ascending:  # as partitions passes them
            ks.sort()
        per = 1 + int(per_frac * (sum(ks) - 1))
        with mock.patch.object(clustering, "BLOCK_ELEMENTS", per * K):
            for max_iter in (1, 2, 3, 100):
                self.assert_rows_match_reference(sim, ks, seed, max_iter)

    def test_empty_cluster_raises(self):
        # Under a zero diagonal each class could leave its own medoid, and
        # none join medoid 2. Only a +inf diagonal keeps every cluster
        # non-empty, so the matrix is refused before the first pass.
        for strong in (5.0, 5.0 / 3):
            sim = np.array([[0.0, strong, 1.0], [strong, 0.0, 1.0], [1.0, 1.0, 0.0]])
            with pytest.raises(ValueError, match=r"\+inf diagonal"):
                cluster_labels(sim, [2, 3], seed=0)

    def test_overflowing_sums_can_empty_a_cluster(self):
        # Under a MAX_SIM diagonal, cluster {1, 2, 4}'s sums would all
        # overflow to -inf, and the next pass would leave one cluster empty.
        # The absolute off-diagonal total overflows too, so the matrix is
        # refused before the first pass.
        seed = next(s for s in range(1000) if sorted(
            np.random.default_rng(s).permutation(5)[:2].tolist()) == [1, 3])
        sim = np.full((5, 5), -1e308)
        sim[0, 3] = sim[3, 0] = -1.0
        np.fill_diagonal(sim, MAX_SIM)
        with pytest.raises(ValueError, match="below 2\\*\\*53"):
            cluster_labels(sim, [2], seed=seed)

    def test_rejects_matrices_without_exact_sums(self):
        # A +inf diagonal and integer entries whose absolute total is below
        # 2**53 make every sum exact; anything else is refused. The zero
        # diagonal, NaN and overflowing inputs have tests of their own.
        def blocks(entry=5.0):
            # Off-diagonal total: 2 * entry + 18.
            sim = sim_with_blocks(({0, 1}, {2, 3}), 4)
            sim[0, 1] = sim[1, 0] = entry
            return sim

        for sim in (
            blocks(5 / 3),
            blocks(np.inf),
            blocks(2.0**52 - 9),  # total 2**53
        ):
            with pytest.raises(ValueError, match="integer off-diagonal"):
                cluster_labels(sim, [2], seed=0)
        assert cluster_labels(blocks(2.0**52 - 10), [2], seed=0)[2].all()  # total 2**53 - 2

    def test_invalid_k_in_any_row(self):
        sim = sim_with_blocks(({0, 1}, {2, 3}), 4)
        for ks in ([2, 5], [1, 3], [3, 0]):
            with pytest.raises(InvalidK):
                cluster_labels(sim, ks, seed=0)


    def test_non_integer_k_rejected(self):
        # A cast would run k=2.5 as k=2.
        sim = sim_with_blocks(({0, 1}, {2, 3}), 4)
        for ks in ([2.5], [3, 2.5], np.array([2.0, 3.0]), [True, True]):
            with pytest.raises(InvalidK, match="is not an integer"):
                cluster_labels(sim, ks, seed=0)
            with pytest.raises(InvalidK, match="is not an integer"):
                partitions(sim, ks, seed=0)
            with pytest.raises(InvalidK, match="is not an integer"):
                select_targets(peaked([0] * len(ks), 4), sim, ks, seed=0)

    def test_empty_ks_rejected(self):
        sim = sim_with_blocks(({0, 1}, {2, 3}), 4)
        for call in (lambda: cluster_labels(sim, [], seed=0),
                     lambda: partitions(sim, np.array([], dtype=int), seed=0),
                     lambda: select_targets(np.empty((0, 4)), sim, [], seed=0)):
            with pytest.raises(EmptyBatch, match="ks is empty"):
                call()


def peaked(argmaxes, n):
    """One normalized row per argmax, with half the mass on it."""
    probs = np.full((len(argmaxes), n), 0.5 / (n - 1))
    probs[np.arange(len(argmaxes)), argmaxes] = 0.5
    return probs


class TestPickCandidates:
    """Candidate sets as select_targets builds them: the classes sharing a
    cluster with the row's argmax."""

    def test_membership(self):
        sim = sim_with_blocks(({0, 1}, {2, 3}), 4)
        targets, mask = select_targets(peaked([3, 0], 4), sim, [2, 2], seed=0)
        assert mask.tolist() == [[False, False, True, True], [True, True, False, False]]
        assert targets[0] == pytest.approx([0.0, 0.0, 0.25, 0.75])

    def test_singleton(self):
        sim = sim_with_blocks((), 8)
        targets, mask = select_targets(peaked([7], 8), sim, [8], seed=0)
        assert np.flatnonzero(mask[0]).tolist() == [7]
        assert targets[0].tolist() == [0.0] * 7 + [1.0]

    def test_invalid_k_names_the_smallest(self):
        sim = sim_with_blocks(({0, 1}, {2, 3}), 4)
        for ks, bad in (([2, 6, 5], 5), ([3, 0, -1, 9], -1), ([4, 1], 1)):
            with pytest.raises(InvalidK, match=f"k={bad} outside"):
                select_targets(peaked([0] * len(ks), 4), sim, ks, seed=0)

    def test_always_contains_query(self):
        sim = symmetric(np.random.default_rng(3).integers(0, 10, size=(10, 10)))
        # One row per (k, query class), mixed k within the batch.
        ks = np.repeat([2, 3, 5, 10], 10)
        queries = np.tile(np.arange(10), 4)
        probs = peaked(queries, 10)
        targets, mask = select_targets(probs, sim, ks, seed=1)
        assert mask[np.arange(40), queries].all()
        assert np.allclose(targets.sum(axis=1), 1.0)
        # The selection step over two uneven row slices gives the same bits.
        labels_by_k, which = partitions(sim, ks, 1)
        for rows in (slice(0, 13), slice(13, 40)):
            got_targets, got_mask = select_rows(probs[rows], labels_by_k, which[rows])
            assert np.array_equal(got_targets, targets[rows])
            assert np.array_equal(got_mask, mask[rows])
        for part, k in enumerate((2, 3, 5, 10)):
            # So does one k's rows with its partition as a scalar which.
            got_targets, got_mask = select_rows(probs[ks == k], labels_by_k, part)
            assert np.array_equal(got_targets, targets[ks == k])
            assert np.array_equal(got_mask, mask[ks == k])
            # The rows that share k cover exactly the clusters of k alone.
            blocks = {frozenset(np.flatnonzero(row).tolist()) for row in mask[ks == k]}
            assert blocks == set(clusters_of(cluster_labels(sim, [k], seed=1)[0][0], k))
