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


def _assign(sim: np.ndarray, medoids: list) -> np.ndarray:
    # Columns ordered by ascending medoid index, so the first argmax hit
    # is the lowest-indexed medoid. The MAX_SIM diagonal pins each medoid
    # to its own cluster.
    return sim.take(medoids, axis=1).argmax(axis=1)


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
    sim_zero_diag: np.ndarray, assignment: np.ndarray, k: int, tol: float
) -> list:
    """Every cluster's member with the largest within-cluster similarity
    sum, ties to the lowest index, as a sorted list."""
    member = assignment[:, None] == np.arange(k)
    size = np.bincount(assignment, minlength=k)
    if not size.all():
        raise ValueError("empty cluster: the diagonal must dominate its row")
    # within[c, j] is class c's similarity sum over cluster j if c is in j,
    # else -inf. argmax takes a column's first maximum: the lowest index.
    within = np.where(member, sim_zero_diag @ member, -np.inf)
    best = within.argmax(axis=0)
    if tol > 0.0:
        # A cluster of at most 3 members sums at most two nonzero terms,
        # which is order-free. A larger one whose two best candidates are
        # within tol of each other (or whose gap is NaN after an overflow)
        # is summed again in the reference order.
        runner_up, top = np.partition(within, -2, axis=0)[-2:]
        gaps = (top - runner_up).tolist()
        for j, (gap, n_members) in enumerate(zip(gaps, size.tolist())):
            if n_members > 3 and not gap > tol:
                best[j] = _reference_medoid(sim_zero_diag, np.flatnonzero(member[:, j]))
    return sorted(best.tolist())


def kmedoids(
    sim: np.ndarray,
    k: int,
    seed: int,
    max_iter: int = 100,
    ledger_version: int = 0,
) -> ClusterSet:
    """Cluster the K classes given a symmetric similarity matrix.

    Deterministic for fixed (sim, k, seed, max_iter). When max_iter is hit
    before the medoid set stabilizes, the latest assignment is returned
    with converged=False.

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
    """
    sim = np.asarray(sim, dtype=float)
    n = sim.shape[0]
    if sim.ndim != 2 or sim.shape[1] != n:
        raise ValueError("similarity matrix must be square")
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

    rng = np.random.default_rng(seed)
    medoids = sorted(int(c) for c in rng.choice(n, size=k, replace=False))

    assignment = _assign(sim, medoids)
    converged = False
    for _ in range(max_iter):
        new_medoids = _update_medoids(sim_zero_diag, assignment, k, tol)
        if new_medoids == medoids:
            converged = True
            break
        medoids = new_medoids
        assignment = _assign(sim, medoids)

    return ClusterSet(assignment, tuple(medoids), k, ledger_version, converged)


def select_targets(
    pnorm: np.ndarray,
    sim: SimilarityMatrix,
    ks: np.ndarray,
    seed: int,
    max_iter: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster-restricted soft labels for a batch of normalized predictions.

    Row i keeps the classes that share a cluster with its argmax under a
    k-medoids partition into ks[i] clusters, then renormalizes. Runs one
    clustering per distinct k. Returns (targets, mask), both (n, K).
    """
    n = pnorm.shape[0]
    distinct, which = np.unique(np.asarray(ks, dtype=int), return_inverse=True)
    # labels_by_k[u, c] is the cluster of class c in the distinct[u]-partition.
    labels_by_k = np.stack([
        kmedoids(sim.values, int(k), seed=seed, max_iter=max_iter,
                 ledger_version=sim.ledger_version).labels
        for k in distinct
    ])
    assignment = labels_by_k[which]
    p_hat = pnorm.argmax(axis=1)
    mask = assignment == assignment[np.arange(n), p_hat][:, None]
    return restrict(pnorm, mask), mask
