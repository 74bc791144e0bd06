"""Similarity-driven k-medoids over the class space, and batched
cluster-restricted label selection.

Voronoi-style heuristic: assign every class to its most similar medoid,
then move each medoid to the member maximizing the within-cluster
similarity sum, until the medoid set is stable. All ties break to the
lowest class index so results are reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidK
from .labels import restrict
from .transitions import SimilarityMatrix


@dataclass(frozen=True, eq=False)
class ClusterSet:
    """A partition of {0..K-1} into k clusters with one medoid each.

    labels[c] is the cluster index of class c; cluster j holds medoids[j].
    """

    labels: np.ndarray
    medoids: tuple
    k: int
    ledger_version: int
    converged: bool = True

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.intp)
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or len(self.medoids) != self.k:
            raise ValueError("need one label per class and one medoid per cluster")
        if labels.size and (labels.min() < 0 or labels.max() >= self.k):
            raise ValueError("cluster label outside [0, k)")
        if labels[list(self.medoids)].tolist() != list(range(self.k)):
            raise ValueError("medoid outside its cluster")

    @property
    def clusters(self) -> tuple:
        """clusters[j] is the frozenset of classes in cluster j."""
        return tuple(frozenset(members) for members in self._members())

    def _members(self) -> list:
        return [np.flatnonzero(self.labels == j).tolist() for j in range(self.k)]

    def _key(self) -> tuple:
        return (tuple(self.labels.tolist()), tuple(self.medoids), self.k,
                self.ledger_version, self.converged)

    def __eq__(self, other):
        if not isinstance(other, ClusterSet):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "medoids": list(self.medoids),
                "clusters": self._members(),
                "ledger_version": self.ledger_version,
                "converged": self.converged,
            }
        )


def _assign(sim: np.ndarray, medoids) -> np.ndarray:
    """Each class's cluster under every row of medoids: (K,) for one row,
    (K, rows) for a 2-D medoids array."""
    # Each row ascending, so the first argmax hit is the lowest-indexed
    # medoid, and a repeated padding medoid never comes first. The MAX_SIM
    # diagonal pins each medoid to its own cluster.
    medoids = np.asarray(medoids)
    picked = sim.take(medoids.ravel(), axis=1)
    return picked.reshape(sim.shape[0], *medoids.shape).argmax(axis=-1)


def _reference_medoid(sim_zero_diag: np.ndarray, members: np.ndarray) -> int:
    """The member with the largest within-cluster sum, summed in the
    reference order."""
    sums = sim_zero_diag[np.ix_(members, members)].sum(axis=1)
    return int(members[np.argmax(sums)])


def _sum_tolerance(sim_zero_diag: np.ndarray) -> float:
    """0.0 when every order of summing any subset of a row gives the same
    bits; otherwise a gap above which two candidates' sums rank the same
    in every order."""
    absolute = np.abs(sim_zero_diag)
    total = float(absolute.sum())
    if total == 0.0:
        return 0.0
    if math.isfinite(total):
        # total < 2**e. When every entry is a multiple of 2**(e-53), so is
        # every partial sum, and below 2**e it is exact in any order. The
        # computed total cannot fall below 2**e if the exact one is not.
        _, e = math.frexp(total)
        scaled = np.ldexp(sim_zero_diag, 53 - e)
        if np.array_equal(scaled, np.rint(scaled)):
            return 0.0
    # Any order of summing n terms is within gamma_n * sum|x| of the exact
    # sum (Higham, Accuracy and Stability of Numerical Algorithms, 4.2).
    # Two orders and two candidates give 4 * gamma_n; the factor 8 leaves
    # room for rounding in this bound itself.
    n = sim_zero_diag.shape[0]
    u = 2.0**-53  # unit roundoff of float64
    gamma = n * u / (1 - n * u)
    return 8 * gamma * float(absolute.sum(axis=1).max())


def _update_medoids(
    sim_zero_diag: np.ndarray, assignment: np.ndarray, ks: np.ndarray, tol: float
) -> np.ndarray:
    """Every cluster's member with the largest within-cluster similarity
    sum, ties to the lowest index, for every partition at once.

    assignment[c, r] is class c's cluster in partition r, which has ks[r]
    clusters. Returns one row per partition: its ks[r] medoids sorted,
    padded to max(ks) by repeating the last.
    """
    n, n_rows = assignment.shape
    kmax = int(ks.max())
    # Column r * kmax + j is cluster j of partition r; columns j >= ks[r]
    # are empty.
    member = (assignment[:, :, None] == np.arange(kmax)).reshape(n, n_rows * kmax)
    size = member.sum(axis=0)
    real = (np.arange(kmax) < ks[:, None]).ravel()
    if not size[real].all():
        raise ValueError("empty cluster: the diagonal must dominate its row")
    # within[c, col] is class c's similarity sum over cluster col if c is
    # in it, else -inf. argmax takes a column's first maximum: the lowest
    # index.
    within = np.where(member, sim_zero_diag @ member, -np.inf)
    best = within.argmax(axis=0)
    if tol > 0.0:
        # A cluster of at most 3 members sums at most two nonzero terms,
        # which is order-free. A larger one whose two best candidates are
        # within tol of each other (or whose gap is NaN after an overflow)
        # is summed again in the reference order.
        large = np.flatnonzero(size > 3)
        runner_up, top = np.partition(within[:, large], -2, axis=0)[-2:]
        for col in large[~(top - runner_up > tol)].tolist():
            best[col] = _reference_medoid(sim_zero_diag, np.flatnonzero(member[:, col]))
    best, real = best.reshape(n_rows, kmax), real.reshape(n_rows, kmax)
    # Empty columns take the row's largest medoid, which sorts last.
    last = np.where(real, best, -1).max(axis=1, keepdims=True)
    return np.sort(np.where(real, best, last), axis=1)


def _initial_medoids(n: int, ks: np.ndarray, seed: int, width: int) -> np.ndarray:
    """Row r: the sorted `default_rng(seed).choice(n, ks[r], replace=False)`,
    padded to width by repeating its last entry. One generator serves every
    k: its state is restored before each draw, so each k starts as a fresh
    one would."""
    rng = np.random.default_rng(seed)
    bit_generator = rng.bit_generator
    start = bit_generator.state
    medoids = np.empty((ks.size, width), dtype=np.intp)
    for r, k in enumerate(ks.tolist()):
        bit_generator.state = start
        chosen = rng.choice(n, size=k, replace=False)
        chosen.sort()
        medoids[r, :k] = chosen
        medoids[r, k:] = chosen[-1]
    return medoids


def cluster_labels(
    sim: np.ndarray, ks, seed: int, max_iter: int = 100
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k-medoids partitions of the K classes for every k in ks, in one pass.

    Returns (labels, medoids, converged): labels[r, c] is the cluster of
    class c in the ks[r]-partition, medoids[r, :ks[r]] its sorted medoids
    (padded to max(ks) by repeating the last), and converged[r] whether
    that partition reached its fixed point within max_iter iterations.
    Row r equals `kmedoids(sim, ks[r], seed, max_iter)` bit for bit; see
    kmedoids for the tie and sum-order contract.
    """
    sim = np.asarray(sim, dtype=float)
    n = sim.shape[0]
    if sim.ndim != 2 or sim.shape[1] != n:
        raise ValueError("similarity matrix must be square")
    ks = np.asarray(ks, dtype=np.intp).reshape(-1)
    for k in ks.tolist():
        if not 2 <= k <= n:
            raise InvalidK(f"k={k} outside [2, {n}]")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    # Self-similarity is excluded from medoid-update sums: it contributes
    # the same sentinel amount to every candidate.
    sim_zero_diag = sim.copy()
    np.fill_diagonal(sim_zero_diag, 0.0)
    if not np.isfinite(sim_zero_diag).all():
        raise ValueError("off-diagonal similarities must be finite")
    tol = _sum_tolerance(sim_zero_diag)

    medoids = _initial_medoids(n, ks, seed, int(ks.max()))

    labels = np.empty((ks.size, n), dtype=np.intp)
    converged = np.zeros(ks.size, dtype=bool)
    # Partitions still iterating. One at its fixed point stays there, so
    # dropping it stops it where its own loop would have stopped.
    active = np.arange(ks.size)
    assignment = _assign(sim, medoids)
    for _ in range(max_iter):
        new = _update_medoids(sim_zero_diag, assignment, ks[active], tol)
        width = new.shape[1]
        fixed = (new == medoids[active, :width]).all(axis=1)
        if fixed.any():
            converged[active[fixed]] = True
            labels[active[fixed]] = assignment[:, fixed].T
            active, new = active[~fixed], new[~fixed]
            if not active.size:
                break
        # Columns past width keep an older padding until the final re-pad.
        medoids[active, :width] = new
        assignment = _assign(sim, medoids[active, : int(ks[active].max())])
    else:
        # max_iter reached: the latest assignment, not converged.
        labels[active] = assignment.T
    padding = np.minimum(np.arange(medoids.shape[1]), ks[:, None] - 1)
    return labels, np.take_along_axis(medoids, padding, axis=1), converged


def kmedoids(
    sim: np.ndarray,
    k: int,
    seed: int,
    max_iter: int = 100,
    ledger_version: int = 0,
) -> ClusterSet:
    """Cluster the K classes given a symmetric similarity matrix.

    The one-k case of cluster_labels, as a ClusterSet. Deterministic for
    fixed (sim, k, seed, max_iter): the initial medoids are
    `default_rng(seed).choice(K, k, replace=False)`, sorted. When max_iter
    is hit before the medoid set stabilizes, the latest assignment is
    returned with converged=False.

    Ties: a class joins the lowest-indexed of its most similar medoids,
    and a cluster's new medoid is the lowest-indexed of the members with
    the largest within-cluster similarity sum (the diagonal excluded).

    Sum order: the result equals summing each cluster's rows in member
    order, `sim[members][:, members].sum(axis=1)`, bit for bit. The
    within-cluster sums come from one matrix product, whose order differs,
    so the update keeps the reference answer three ways: when every
    off-diagonal entry is a multiple of 2**-p and their absolute total
    is below 2**(53 - p), every order is exact; a cluster of at most 3
    members has order-free sums; and any other cluster whose two best
    candidates are within the summation error bound is summed again in
    the reference order. Off-diagonal entries must be finite.

    Lockstep: cluster_labels runs every k of one call together. It checks
    the matrix once, and restores the generator's state before each k's
    `choice`, so each k starts where a fresh `default_rng(seed)` would.
    Each k's medoid row is padded to the largest k by repeating its last
    medoid, which the first-hit argmax never picks. One matrix product
    updates the medoids of every k, and the three rules above apply to
    each cluster on its own. A k at its fixed point leaves the pass, as
    its own loop would have stopped there, so each k's labels, medoids
    and converged flag equal this function's for that k alone.
    """
    labels, medoids, converged = cluster_labels(sim, [k], seed, max_iter)
    return ClusterSet(labels[0], tuple(medoids[0].tolist()), k, ledger_version,
                      bool(converged[0]))


def select_targets(
    pnorm: np.ndarray,
    sim: SimilarityMatrix,
    ks: np.ndarray,
    seed: int,
    max_iter: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster-restricted soft labels for a batch of normalized predictions.

    Row i keeps the classes that share a cluster with its argmax under a
    k-medoids partition into ks[i] clusters, then renormalizes. Clusters
    every distinct k in one cluster_labels pass. Returns (targets, mask),
    both (n, K).
    """
    n = pnorm.shape[0]
    distinct, which = np.unique(np.asarray(ks, dtype=int), return_inverse=True)
    # labels_by_k[u, c] is the cluster of class c in the distinct[u]-partition.
    labels_by_k, _, _ = cluster_labels(sim.values, distinct, seed, max_iter)
    assignment = labels_by_k[which]
    p_hat = pnorm.argmax(axis=1)
    mask = assignment == assignment[np.arange(n), p_hat][:, None]
    return restrict(pnorm, mask), mask
