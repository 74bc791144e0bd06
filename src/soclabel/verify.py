"""Randomized invariant suites behind `soclabel verify` and the test suite.

Each suite runs a number of independent trials and reports how many
satisfied the invariant; tests assert passed == total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import labels as lb
from .clustering import _assign, cluster_labels
from .errors import UnknownSuite
from .kselect import KPolicy, select_k
from .losses import cross_entropy, cross_entropy_terms
from .transitions import TransitionLedger, rebuild_running_sum

ENTROPY_TOL = 1e-12


@dataclass
class SuiteResult:
    name: str
    passed: int
    total: int
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.passed == self.total

    def record(self, ok: bool, detail=None) -> None:
        self.total += 1
        if ok:
            self.passed += 1
        elif len(self.failures) < 10:
            self.failures.append(detail)


def _random_prob(rng: np.random.Generator, n_classes: int) -> np.ndarray:
    conc = rng.choice([0.05, 0.2, 1.0, 5.0])
    p = rng.dirichlet(np.full(n_classes, conc))
    return p / p.sum()


def _mask_with_argmax(
    rng: np.random.Generator, p: np.ndarray, pool, size: int
) -> np.ndarray:
    """Mask of p's argmax plus size - 1 other classes drawn from pool."""
    am = int(np.argmax(p))
    others = [c for c in pool if c != am]
    extra = rng.choice(others, size=size - 1, replace=False) if size > 1 else []
    mask = np.zeros(p.size, dtype=bool)
    mask[[am, *map(int, extra)]] = True
    return mask


def suite_lemma1(trials: int = 10000, seed: int = 0) -> SuiteResult:
    """Selection never raises entropy when argmax is kept and |C| <= 11."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("lemma1", 0, 0)
    for _ in range(trials):
        K = int(rng.integers(3, 201))
        p = _random_prob(rng, K)
        size = int(rng.integers(1, min(11, K) + 1))
        mask = _mask_with_argmax(rng, p, range(K), size)
        ok = lb.entropy(lb.restrict(p, mask)) <= lb.entropy(p) + ENTROPY_TOL
        res.record(ok, (K, size))
    return res


def suite_uniform_mass(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """Equal selected entries: the entropy inequality holds for any |C|."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("uniform_mass", 0, 0)
    for _ in range(trials):
        K = int(rng.integers(3, 201))
        size = int(rng.integers(1, K + 1))
        selected = rng.choice(K, size=size, replace=False)
        if size == K:
            p_arr = np.full(K, 1.0 / K)
        else:
            w = rng.dirichlet(np.ones(K - size))
            # Selected entries share a common value v, large enough that the
            # argmax stays selected: v >= (1 - size*v) * max(w).
            v_min = w.max() / (1 + size * w.max())
            v = v_min + rng.random() * (1.0 / size - v_min)
            p_arr = np.zeros(K)
            p_arr[selected] = v
            p_arr[np.setdiff1d(np.arange(K), selected)] = (1 - size * v) * w
        p = p_arr / p_arr.sum()
        mask = np.zeros(K, dtype=bool)
        mask[selected] = True
        ok = lb.entropy(lb.restrict(p, mask)) <= lb.entropy(p) + ENTROPY_TOL
        res.record(ok, (K, size))
    return res


def suite_theorem1(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """Iterated selection along nested chains keeps entropy non-increasing."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("theorem1", 0, 0)
    for _ in range(trials):
        K = int(rng.integers(12, 101))
        p = _random_prob(rng, K)
        length = int(rng.integers(3, 6))
        sizes = sorted(rng.choice(np.arange(1, 12), size=length, replace=False))[::-1]
        current = p
        mask = _mask_with_argmax(rng, current, range(K), int(sizes[0]))
        entropies = [lb.entropy(p)]
        for size in sizes:
            mask = _mask_with_argmax(rng, current, np.flatnonzero(mask), int(size))
            current = lb.restrict(current, mask)
            entropies.append(lb.entropy(current))
        ok = all(b <= a + ENTROPY_TOL for a, b in zip(entropies, entropies[1:]))
        res.record(ok, (K, list(sizes)))
    return res


def suite_krange(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """All policies stay in {2..K} and are monotone in confidence, over a
    grid of trials confidences."""
    res = SuiteResult("krange", 0, 0)
    for K in (10, 200):
        policies = [KPolicy.linear(a, K) for a in (K / (K - 2), 2, 5, 10)]
        policies += [
            KPolicy.exponential(b, K)
            for b in (math.log(1.2), math.log(1.4), math.log(1.8), math.log(2 - 2 / K))
        ]
        confidences = np.linspace(1 / K, 1.0, trials)
        for policy in policies:
            ks = select_k(policy, confidences)
            in_range = bool(np.all((ks >= 2) & (ks <= K)))
            monotone = bool(np.all(np.diff(ks) >= 0))
            res.record(in_range and monotone, (K, policy.variant, policy.alpha, policy.beta))
    # Pinned values for the default linear policy at K = 200.
    default = KPolicy.linear(5.0, 200)
    res.record(select_k(default, 1.0) == 42, "linear(5,200) at 1.0")
    res.record(select_k(default, 1 / 200) == 2, "linear(5,200) at 1/200")
    return res


def suite_ctt(trials: int = 100, seed: int = 0) -> SuiteResult:
    """Incremental windowed counts match a from-scratch recount exactly."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("ctt", 0, 0)
    for _ in range(trials):
        K = int(rng.integers(3, 17))
        window = int(rng.choice([4, 16]))
        n_batches = int(rng.integers(1, 51))
        n_ids = int(rng.integers(1, 33))
        ledger = TransitionLedger(K, window, n_ids)
        version_ok = True
        for _ in range(n_batches):
            size = int(rng.integers(1, 65))
            batch = [
                (int(rng.integers(0, n_ids)), int(rng.integers(0, K)))
                for _ in range(size)
            ]
            before = ledger.version
            ids, preds = np.array(batch).T
            ledger.observe_batch(ids, preds)
            version_ok &= ledger.version == before + 1
        exact = np.array_equal(ledger.running_sum, rebuild_running_sum(ledger))
        diag_zero = np.all(np.diag(ledger.running_sum) == 0)
        window_ok = len(ledger.window) <= window
        res.record(exact and diag_zero and window_ok and version_ok, (K, window))
    return res


def _random_similarity(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.integers(0, rng.choice([4, 1000]), size=(n, n))  # small counts tie often
    sim = (raw + raw.T).astype(float)
    np.fill_diagonal(sim, np.inf)
    return sim


def brute_force_two_medoids(sim: np.ndarray):
    """Enumerate all medoid pairs, score by total within-cluster similarity
    under the same assignment rule; ties to the lexicographically smallest
    pair."""
    n = sim.shape[0]
    sim_zero = sim.copy()
    np.fill_diagonal(sim_zero, 0.0)
    best, best_score = None, -np.inf
    for a in range(n):
        for b in range(a + 1, n):
            assignment = _assign(sim, [a, b])
            score = 0.0
            for j in range(2):
                members = np.flatnonzero(assignment == j)
                score += sim_zero[np.ix_(members, members)].sum()
            if score > best_score:
                best, best_score = (a, b), score
    return best, best_score


def suite_cluster(trials: int = 500, seed: int = 0) -> SuiteResult:
    """Partition/fixed-point/determinism invariants plus planted-block
    recovery against brute force."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("cluster", 0, 0)
    for _ in range(trials):
        n = int(rng.integers(4, 33))
        k = int(rng.integers(2, n + 1))
        sim = _random_similarity(rng, n)
        labels, medoids, converged = cluster_labels(sim, [k], seed=int(rng.integers(0, 2**31)))
        labels, medoids = labels[0], medoids[0]
        # k clusters, each holding its own medoid.
        partition = ((labels >= 0) & (labels < k)).all() and (
            labels[medoids] == np.arange(k)).all()
        fixed_point = np.array_equal(_assign(sim, medoids), labels)
        res.record(bool(partition and (fixed_point or not converged[0])), (n, k))

    # Planted two-block structure: high similarity inside {0..3} and {4..7}.
    blocks = ({0, 1, 2, 3}, {4, 5, 6, 7})
    sim = np.full((8, 8), 10.0)
    for block in blocks:
        for a in block:
            for b in block:
                if a != b:
                    sim[a, b] = 500 + a + b
    np.fill_diagonal(sim, np.inf)
    pair, _ = brute_force_two_medoids(sim)
    res.record(sum(pair[0] in b for b in blocks) + sum(pair[1] in b for b in blocks) == 2
               and not any(pair[0] in b and pair[1] in b for b in blocks),
               "brute-force medoids straddle the blocks")
    for s in range(20):
        labels = cluster_labels(sim, [2], seed=s)[0][0]
        found = {frozenset(np.flatnonzero(labels == j).tolist()) for j in range(2)}
        recovered = found == set(map(frozenset, blocks))
        res.record(recovered, f"seed {s}")

    # Determinism under a fixed seed.
    sim = _random_similarity(np.random.default_rng(seed + 1), 16)
    a = cluster_labels(sim, [4], seed=123)
    b = cluster_labels(sim, [4], seed=123)
    res.record(all(np.array_equal(x, y) for x, y in zip(a, b)), "determinism")
    return res


def suite_losses(
    trials: int = 200, seed: int = 0, step: float = 1e-5,
    grad_fn=lambda target, logits: cross_entropy_terms(target, logits)[1],
) -> SuiteResult:
    """Analytic cross-entropy gradient (grad_fn, by default the one training
    uses) vs central finite differences.

    Each trial's error is normwise, max|grad - fd| / max|fd|. A relative
    error per component is dominated by the differencing's rounding on
    components near zero, and failed correct gradients on some seeds.
    """
    rng = np.random.default_rng(seed)
    res = SuiteResult("losses", 0, 0)
    for _ in range(trials):
        K = int(rng.integers(3, 20))
        logits = rng.normal(scale=3.0, size=K)
        target = rng.dirichlet(np.ones(K))
        grad = grad_fn(target, logits)
        fd = np.zeros(K)
        for c in range(K):
            up, down = logits.copy(), logits.copy()
            up[c] += step
            down[c] -= step
            fd[c] = (cross_entropy(target, up) - cross_entropy(target, down)) / (2 * step)
        err = float(np.abs(grad - fd).max() / np.abs(fd).max())
        res.record(err < 1e-5, err)
    return res


SUITES = {
    "lemma1": suite_lemma1,
    "uniform_mass": suite_uniform_mass,
    "theorem1": suite_theorem1,
    "krange": suite_krange,
    "cluster": suite_cluster,
    "ctt": suite_ctt,
    "losses": suite_losses,
}


def run_suite(name: str, trials: int | None = None, seed: int = 0) -> list[SuiteResult]:
    """The results of suite `name`, or of every suite for "all", each run
    with its own trial count unless `trials` is given. Raises UnknownSuite
    for any other name and ValueError for trials below 1, before any suite
    runs: a run of no trials would pass."""
    if name != "all" and name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r} (choose from {', '.join([*SUITES, 'all'])})")
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    names = list(SUITES) if name == "all" else [name]
    kwargs = {"seed": seed} if trials is None else {"seed": seed, "trials": trials}
    return [SUITES[n](**kwargs) for n in names]
