"""Similarity-driven k-medoids over the class space, and batched
cluster-restricted label selection.

Voronoi-style heuristic: assign every class to its most similar medoid,
then move each medoid to the member maximizing the within-cluster
similarity sum, until the medoid set is stable. All ties break to the
lowest class index so results are reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyBatch, InvalidK
from .labels import restrict


# The element budget of each group of `cluster_labels` (its medoid gather,
# and each temporary (clusters, K) array of its lockstep pass) and of
# `soclabel select`'s output blocks: 2**14 float64s, 128 KiB, glibc's
# default mmap threshold. Larger blocks are served from the heap and leave
# it grown: on a K=200 log, `select`'s resident memory crept from 41.3 to
# 42.7 MB across four 256-row output blocks, and stayed flat with 64-row
# ones. One partition larger than the budget is taken whole.
BLOCK_ELEMENTS = 2**14


def _assign(sim: np.ndarray, medoids) -> np.ndarray:
    """Each class's cluster under every row of medoids: (K,) for one row,
    (K, rows) for a 2-D medoids array."""
    # Each row ascending, so the first argmax hit is the lowest-indexed
    # medoid. The MAX_SIM diagonal pins each medoid to its own cluster.
    medoids = np.asarray(medoids)
    picked = sim.take(medoids.ravel(), axis=1)
    return picked.reshape(sim.shape[0], *medoids.shape).argmax(axis=-1)


def cluster_labels(
    sim: np.ndarray, ks, seed: int, max_iter: int = 100
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k-medoids partitions of the K classes for every k in ks, in one pass.

    Returns (labels, medoids, converged): labels[r, c] is the cluster of
    class c in the ks[r]-partition, medoids[r, :ks[r]] its sorted medoids
    (padded to max(ks) with the sentinel K), and converged[r] whether
    that partition reached its fixed point within max_iter iterations.
    When max_iter is hit first, row r holds the latest assignment.

    Seeding: row r starts from the first ks[r] entries of
    `default_rng(seed).permutation(K)`, sorted, so each row is
    deterministic for fixed (sim, ks[r], seed, max_iter), and the starts
    are nested across k.

    Ties: a class joins the lowest-indexed of its most similar medoids,
    and a cluster's new medoid is the lowest-indexed of the members with
    the largest within-cluster similarity sum (the diagonal excluded).

    Every k must be an integer in [2, K], else InvalidK; an empty ks
    raises EmptyBatch.

    Exact sums: the diagonal must be +inf (MAX_SIM) and every off-diagonal
    entry an integer, with an absolute total below 2**53; otherwise
    ValueError. Then every within-cluster sum is an exact integer in any
    order, and each medoid stays in its own cluster, so no cluster empties.

    Lockstep: the ks run in groups of max(1, BLOCK_ELEMENTS // (K *
    max(ks))) consecutive rows, one pass per group. The matrix is checked
    once, and every k is seeded from the same permutation. Each k's medoid
    row is padded to the largest k with a sentinel column of -inf
    similarity, which no argmax picks and which sorts after every class.
    Matrix products update the medoids of a group's ks; their one-hots
    span only its real clusters, since no class joins a padded one. So a
    group's gather and its product each span at most BLOCK_ELEMENTS
    values, or one partition's K x max(ks) when that is larger: a k above
    BLOCK_ELEMENTS // K (81 at K=200) takes its product whole. Every k of
    a group iterates until all of the group are fixed. A k at its fixed
    point maps to itself, so the passes after it leave its row as a pass
    over that k alone would have stopped it, and the rules above apply to
    each cluster on its own, with exact sums: row r is the same whichever
    other ks share the call or its group.
    """
    sim = np.asarray(sim, dtype=float)
    n = sim.shape[0]
    if sim.ndim != 2 or sim.shape[1] != n:
        raise ValueError("similarity matrix must be square")
    ks = np.asarray(ks).reshape(-1)
    if ks.size == 0:
        raise EmptyBatch("no k to cluster: ks is empty")
    if ks.dtype.kind not in "iu":
        # A cast would run k=2.5 as k=2.
        raise InvalidK(f"k={ks[0].item()!r} is not an integer (ks of dtype {ks.dtype})")
    for k in ks.tolist():  # before the cast, which wraps a uint64 2**63
        if not 2 <= k <= n:
            raise InvalidK(f"k={k} outside [2, {n}]")
    ks = ks.astype(np.intp, copy=False)
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    # Self-similarity is excluded from medoid-update sums: it contributes
    # the same sentinel amount to every candidate.
    sim_zero_diag = sim.copy()
    np.fill_diagonal(sim_zero_diag, 0.0)
    with np.errstate(over="ignore"):  # NaN fails the integer test; inf, the bound
        exact = (
            (sim.diagonal() == np.inf).all()
            and (np.rint(sim_zero_diag) == sim_zero_diag).all()
            and np.abs(sim_zero_diag).sum() < 2.0**53
        )
    if not exact:
        raise ValueError("similarity needs a +inf diagonal and integer off-diagonal "
                         "entries whose absolute total is below 2**53")
    # Column n is a -inf sentinel. Medoid rows are padded with it, so a
    # row never needs re-padding, and no argmax picks it: each class has
    # a finite similarity to some medoid other than itself.
    padded = np.empty((n, n + 1))
    padded[:, :n] = sim
    padded[:, n] = -np.inf

    kmax = int(ks.max())
    real = np.arange(kmax) < ks[:, None]
    # Row r: the first ks[r] entries of one permutation, sorted, then n.
    first = np.random.default_rng(seed).permutation(n)[:kmax]
    medoids = np.sort(np.where(real, first, n), axis=1)
    labels = np.empty((ks.size, n), dtype=np.intp)
    converged = np.empty(ks.size, dtype=bool)
    # Groups of `per` consecutive rows, each run to its own fixed point.
    per = max(1, BLOCK_ELEMENTS // (n * kmax))
    for lo in range(0, ks.size, per):
        group = slice(lo, lo + per)
        # (rows[q], cols[q]) is the q-th real cluster: cluster cols[q] of
        # the group's partition rows[q]. Padded clusters would stay empty,
        # so the member one-hot leaves them out.
        rows, cols = np.nonzero(real[group])
        current = medoids[group]
        # assignment[r, c] is class c's cluster in the group's partition r.
        assignment = _assign(padded, current).T
        for _ in range(max_iter):
            new = np.full_like(current, n)
            # member[q, c]: class c is in real cluster q. A member scores its
            # similarity sum over that cluster, any other class -inf; argmax
            # takes a row's first maximum, the lowest index. The scores are
            # not kept, so a pass never holds the last pass's.
            member = assignment[rows] == cols[:, None]
            new[rows, cols] = np.where(member, member @ sim_zero_diag.T, -np.inf).argmax(axis=1)
            new.sort(axis=1)
            fixed = (new == current).all(axis=1)
            if fixed.all():
                break
            current = new
            assignment = _assign(padded, current).T
        # At max_iter, the latest assignment, and a row is converged if its
        # last pass left it fixed.
        labels[group], medoids[group], converged[group] = assignment, current, fixed
    return labels, medoids, converged


def partitions(sim: np.ndarray, ks, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(labels_by_k, which): the cluster_labels partitions of the distinct
    ks, ascending, and which[i], the row of ks[i] among them. Rows may then
    be selected in any grouping, since each row's partition is its k's."""
    ks = np.asarray(ks).reshape(-1)
    # The distinct ks in ascending order, so cluster_labels names the
    # smallest bad one. For a training batch's 160 ks, this set and the
    # lookup table below take 4.9 us, np.unique with return_inverse
    # 11.5-12.8 us, and np.searchsorted 5.3-6.1 us (numpy 2.4.6 on a
    # 2-vCPU Xeon VM).
    distinct = sorted(set(ks.tolist()))
    labels_by_k, _, _ = cluster_labels(sim, distinct, seed)
    # The ks are all now in [2, K].
    row = np.zeros(distinct[-1] + 1, dtype=np.intp)
    row[distinct] = np.arange(len(distinct))
    return labels_by_k, row[ks]


def select_rows(
    pnorm: np.ndarray, labels_by_k: np.ndarray, which
) -> tuple[np.ndarray, np.ndarray]:
    """The selection step: row i keeps the classes that share a cluster with
    its argmax in partition labels_by_k[which[i]], then renormalizes. A
    scalar which is that partition for every row. Returns (targets, mask),
    both (n, K)."""
    top = pnorm.argmax(axis=1)
    mask = labels_by_k[which] == labels_by_k[which, top][:, None]
    return restrict(pnorm, mask), mask
