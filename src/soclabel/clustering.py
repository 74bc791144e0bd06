"""Similarity-driven k-medoids over the class space, and batched
cluster-restricted label selection.

Voronoi-style heuristic: assign every class to its most similar medoid,
then move each medoid to the member maximizing the within-cluster
similarity sum, until the medoid set is stable. All ties break to the
lowest class index so results are reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidK
from .labels import restrict
from .transitions import SimilarityMatrix


@dataclass(frozen=True)
class ClusterSet:
    """A partition of {0..K-1} into k clusters with one medoid each."""

    clusters: tuple  # tuple of frozensets
    medoids: tuple  # medoids[i] in clusters[i]
    k: int
    ledger_version: int
    converged: bool = True

    def __post_init__(self):
        covered = [c for s in self.clusters for c in s]
        if len(covered) != len(set(covered)):
            raise ValueError("clusters overlap")
        for medoid, members in zip(self.medoids, self.clusters):
            if medoid not in members:
                raise ValueError("medoid outside its cluster")

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "medoids": list(self.medoids),
                "clusters": [sorted(s) for s in self.clusters],
                "ledger_version": self.ledger_version,
                "converged": self.converged,
            }
        )


def _assign(sim: np.ndarray, medoids: list) -> np.ndarray:
    # Columns ordered by ascending medoid index, so the first argmax hit
    # is the lowest-indexed medoid. The MAX_SIM diagonal pins each medoid
    # to its own cluster.
    return np.argmax(sim[:, medoids], axis=1)


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

    rng = np.random.default_rng(seed)
    medoids = sorted(int(c) for c in rng.choice(n, size=k, replace=False))

    assignment = _assign(sim, medoids)
    converged = False
    for _ in range(max_iter):
        members_by_cluster = [np.flatnonzero(assignment == j) for j in range(k)]
        new_medoids = []
        for members in members_by_cluster:
            sums = sim_zero_diag[np.ix_(members, members)].sum(axis=1)
            new_medoids.append(int(members[np.argmax(sums)]))
        new_medoids = sorted(new_medoids)
        if new_medoids == medoids:
            converged = True
            break
        medoids = new_medoids
        assignment = _assign(sim, medoids)

    clusters = tuple(
        frozenset(int(c) for c in np.flatnonzero(assignment == j)) for j in range(k)
    )
    return ClusterSet(clusters, tuple(medoids), k, ledger_version, converged)


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
    n, K = pnorm.shape
    ks = np.asarray(ks, dtype=int)
    # cluster_of[k][c] is the cluster index of class c in the k-partition.
    cluster_of = {}
    for k in np.unique(ks):
        cs = kmedoids(
            sim.values,
            int(k),
            seed=seed,
            max_iter=max_iter,
            ledger_version=sim.ledger_version,
        )
        labels_of = np.empty(K, dtype=int)
        for j, members in enumerate(cs.clusters):
            labels_of[list(members)] = j
        cluster_of[int(k)] = labels_of

    assignment = np.stack([cluster_of[int(k)] for k in ks])
    p_hat = pnorm.argmax(axis=1)
    mask = assignment == assignment[np.arange(n), p_hat][:, None]
    return restrict(pnorm, mask), mask
