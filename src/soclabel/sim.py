"""Desk-scale semi-supervised training harness.

A synthetic fine-grained dataset (tight sub-class clusters inside
well-separated super-classes), a linear softmax model trained with
SGD+momentum, feature-space weak/strong perturbations, and the full
selected-soft-label training loop plus its ablation/baseline arms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import labels as lb
from .clustering import candidate_mask, cluster_labels, select_targets
from .errors import ConfigError, DivergedAtIteration, EmptyBatch, InvalidK
from .kselect import KPolicy, select_k
from .losses import cross_entropy_terms, fixmatch_weights, one_hot, softmax
from .transitions import TransitionLedger


def _check_field_types(obj, error) -> None:
    """Raise error unless every int field of the dataclass obj holds a
    plain int (not a bool, not a float) and every float field a finite
    real. A float window, say, would never evict."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == "int" and type(value) is not int:
            raise error(f"{f.name} must be an integer, got {value!r}")
        real = isinstance(value, (int, float)) and not isinstance(value, bool)
        if f.type == "float" and not (real and math.isfinite(value)):
            raise error(f"{f.name} must be a finite number, got {value!r}")


# ---------------------------------------------------------------------------
# dataset


@dataclass(frozen=True)
class SyntheticDatasetSpec:
    n_super: int = 8
    fine_per_super: int = 4
    dim: int = 16
    intra_spread: float = 1.2
    inter_spread: float = 3.0
    labels_per_class: int = 10
    unlabeled_per_class: int = 200
    test_per_class: int = 50
    seed: int = 0

    def __post_init__(self):
        if type(self.seed) is not int or self.seed < 0:  # a bool is an int to Python
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        _check_field_types(self, ValueError)
        if self.n_super * self.fine_per_super < 4:
            raise ValueError("need at least 4 fine classes")
        if not self.intra_spread < self.inter_spread:
            raise ValueError("intra_spread must be < inter_spread")
        counts = (self.dim, self.labels_per_class, self.unlabeled_per_class,
                  self.test_per_class)
        if min(counts) < 1:
            raise ValueError("dim and the per-class sample counts must be positive")

    @property
    def n_classes(self) -> int:
        return self.n_super * self.fine_per_super


@dataclass
class Dataset:
    x_labeled: np.ndarray
    y_labeled: np.ndarray
    x_unlabeled: np.ndarray
    y_unlabeled: np.ndarray  # hidden ground truth, metrics only
    x_test: np.ndarray
    y_test: np.ndarray
    n_classes: int
    spec: SyntheticDatasetSpec

    def super_of(self, fine: np.ndarray) -> np.ndarray:
        return np.asarray(fine) // self.spec.fine_per_super


def _unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    v = rng.normal(size=(n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def generate_dataset(spec: SyntheticDatasetSpec) -> Dataset:
    """Sample a hierarchical Gaussian dataset, deterministically in seed."""
    rng = np.random.default_rng(spec.seed)
    K = spec.n_classes
    super_centers = _unit_rows(rng, spec.n_super, spec.dim) * spec.inter_spread
    offsets = _unit_rows(rng, K, spec.dim) * spec.intra_spread
    centers = np.repeat(super_centers, spec.fine_per_super, axis=0) + offsets

    def draw(per_class: int):
        y = np.repeat(np.arange(K), per_class)
        x = centers[y] + rng.normal(size=(y.size, spec.dim))
        return x, y

    x_lab, y_lab = draw(spec.labels_per_class)
    x_ulb, y_ulb = draw(spec.unlabeled_per_class)
    x_test, y_test = draw(spec.test_per_class)
    return Dataset(x_lab, y_lab, x_ulb, y_ulb, x_test, y_test, K, spec)


def augment(x: np.ndarray, strength: str, rng: np.random.Generator) -> np.ndarray:
    """Feature-space perturbation: Gaussian noise of scale 0.3 (weak), or of
    scale 1.0 with a quarter of the coordinates dropped (strong)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if strength == "weak":
        return x + 0.3 * rng.normal(size=x.shape)
    if strength == "strong":
        out = x + rng.normal(size=x.shape)
        keep = rng.random(size=x.shape) >= 0.25
        return out * keep
    raise ValueError(f"unknown augmentation strength {strength!r}")


# ---------------------------------------------------------------------------
# config and state


BASELINES = ("soc", "fixmatch", "soft")

# The SGD recipe of FixMatch (Sohn et al., 2020).
MOMENTUM = 0.9
WEIGHT_DECAY = 5e-4


@dataclass(frozen=True)
class SimConfig:
    k_policy: KPolicy
    batch_size: int = 32  # B
    mu: int = 5  # unlabeled batch = mu * B
    window: int = 512  # transition window N_b
    lambda_cos: float = 1.0
    iters: int = 5000
    lr: float = 0.05
    warmup_epochs: int = 1
    seed: int = 0
    baseline: str = "soc"
    tau: float = 0.95  # fixmatch baseline threshold
    eval_every: int = 100
    eval_subset: int = 512

    def __post_init__(self):
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        _check_field_types(self, ConfigError)
        if self.baseline not in BASELINES:
            raise ConfigError(f"baseline must be one of {BASELINES}")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError("tau must be in [0, 1]")
        if self.lr <= 0.0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.lambda_cos < 0.0:
            raise ConfigError(f"lambda_cos must be >= 0, got {self.lambda_cos}")
        if self.warmup_epochs < 0:
            raise ConfigError(f"warmup_epochs must be >= 0, got {self.warmup_epochs}")
        counts = (self.batch_size, self.mu, self.iters, self.window,
                  self.eval_every, self.eval_subset)
        if min(counts) < 1:
            raise ConfigError(
                "batch_size, mu, iters, window, eval_every and eval_subset "
                "must be positive"
            )


@dataclass
class LinearModel:
    weights: np.ndarray  # (K, dim)
    bias: np.ndarray  # (K,)

    @classmethod
    def zeros(cls, n_classes: int, dim: int) -> "LinearModel":
        return cls(np.zeros((n_classes, dim)), np.zeros(n_classes))

    def logits(self, x: np.ndarray) -> np.ndarray:
        out = np.atleast_2d(x) @ self.weights.T
        out += self.bias
        return out


@dataclass
class MetricsRow:
    iter: int
    test_top1: float
    pl_acc: float
    mean_entropy_sel: float
    mean_entropy_raw: float
    mean_zobj1: float
    mean_zobj2: float
    k_mean: float

    CSV_HEADER = "iter,test_top1,pl_acc,mean_entropy_sel,mean_entropy_raw,mean_zobj1,mean_zobj2,k_mean"

    def csv_row(self) -> str:
        return (
            f"{self.iter},{self.test_top1},{self.pl_acc},{self.mean_entropy_sel},"
            f"{self.mean_entropy_raw},{self.mean_zobj1},{self.mean_zobj2},{self.k_mean}"
        )


@dataclass
class SimState:
    model: LinearModel
    ledger: TransitionLedger
    vel_w: np.ndarray
    vel_b: np.ndarray
    rng_data: np.random.Generator
    rng_aug: np.random.Generator
    iteration: int = 0
    history: list = field(default_factory=list)


def init_state(config: SimConfig, dataset: Dataset) -> SimState:
    model = LinearModel.zeros(dataset.n_classes, dataset.spec.dim)
    return SimState(
        model=model,
        ledger=TransitionLedger(dataset.n_classes, config.window,
                                dataset.x_unlabeled.shape[0]),
        vel_w=np.zeros_like(model.weights),
        vel_b=np.zeros_like(model.bias),
        rng_data=np.random.default_rng([config.seed, 0]),
        rng_aug=np.random.default_rng([config.seed, 1]),
    )


def warmup_iters(config: SimConfig, dataset: Dataset) -> int:
    per_epoch = math.ceil(dataset.x_labeled.shape[0] / config.batch_size)
    return config.warmup_epochs * per_epoch


# ---------------------------------------------------------------------------
# target construction (shared by the training step and the eval metrics)


def build_targets(
    probs: np.ndarray,
    config: SimConfig,
    ledger: TransitionLedger,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample consistency targets and chosen k values for one batch.

    soc:      cluster-restricted renormalized soft labels
    soft:     the raw soft labels (all-ones indicator)
    fixmatch: one-hot argmax (threshold masking is applied by the caller)
    """
    n, K = probs.shape
    if config.baseline == "soft":
        return probs.copy(), np.full(n, K)
    if config.baseline == "fixmatch":
        return one_hot(probs.argmax(axis=1), K), np.full(n, K)

    pnorm = probs / probs.sum(axis=1, keepdims=True)
    ks = select_k(config.k_policy, pnorm.max(axis=1))
    targets, _ = select_targets(
        pnorm, ledger.similarity_matrix(), ks, seed=config.seed + ledger.version
    )
    return targets, ks


# ---------------------------------------------------------------------------
# training step and loop


def soc_step(
    state: SimState,
    labeled: tuple[np.ndarray, np.ndarray],
    unlabeled: tuple[np.ndarray, np.ndarray],
    config: SimConfig,
    in_warmup: bool,
    lr: float,
) -> float:
    """One training iteration: weak/strong forward passes, transition
    tracking (soc only), target selection, losses and an SGD-momentum
    update. Returns the total loss, sup + lambda_cos * cos."""
    x_lab, y_lab = labeled
    ulb_ids, x_ulb = unlabeled
    B = x_lab.shape[0]
    muB = x_ulb.shape[0]
    model = state.model

    xw_lab = augment(x_lab, "weak", state.rng_aug)
    logits_lab = model.logits(xw_lab)
    per_sample, grad_lab = cross_entropy_terms(one_hot(y_lab, model.bias.size), logits_lab)
    if per_sample.size == 0:
        raise EmptyBatch("cross-entropy of an empty batch")
    sup = float(per_sample.mean())
    grad_lab /= B

    # Weak/strong branches run (and consume augmentation randomness) in
    # every arm so trajectories stay comparable across baselines. Only soc
    # reads the transition ledger (build_targets clusters on it), so only
    # soc feeds it, warmup included; the other arms leave it at version 0.
    xw_ulb = augment(x_ulb, "weak", state.rng_aug)
    probs_weak = softmax(model.logits(xw_ulb))
    if config.baseline == "soc":
        state.ledger.observe_batch(ulb_ids, probs_weak.argmax(axis=1))
    xs_ulb = augment(x_ulb, "strong", state.rng_aug)
    strong_logits = model.logits(xs_ulb)

    consistency_active = not in_warmup and config.lambda_cos != 0.0
    if consistency_active:
        targets, _ = build_targets(probs_weak, config, state.ledger)
        weights = np.ones(muB)
        if config.baseline == "fixmatch":
            weights = fixmatch_weights(probs_weak, config.tau)
        per_sample, grad_strong = cross_entropy_terms(targets, strong_logits)
        cos = float((per_sample * weights).mean())
        grad_strong *= weights[:, None]
        grad_strong *= config.lambda_cos / muB
    else:
        cos = 0.0
        grad_strong = None

    total = sup + config.lambda_cos * cos
    if not math.isfinite(total):
        raise DivergedAtIteration(state.iteration)

    grad_w = grad_lab.T @ xw_lab
    grad_b = grad_lab.sum(axis=0)
    if grad_strong is not None:
        grad_w += grad_strong.T @ xs_ulb
        grad_b += grad_strong.sum(axis=0)
    grad_w += WEIGHT_DECAY * model.weights

    state.vel_w = MOMENTUM * state.vel_w + grad_w
    state.vel_b = MOMENTUM * state.vel_b + grad_b
    model.weights -= lr * state.vel_w
    model.bias -= lr * state.vel_b
    state.iteration += 1

    return total


# Whole-set passes (evaluation, the pairs file) take the logits and softmax
# of this many rows at a time, so their memory does not grow with the set.
# Each row's values are the same bits as in a whole-set pass: the softmax
# reduces each row of a C-contiguous block on its own, and the tests hold
# the logits product to a whole-array oracle.
EVAL_BLOCK = 512


def logit_blocks(model: LinearModel, x: np.ndarray):
    """(start, model.logits(x[start:start + EVAL_BLOCK])) for each block of x."""
    for start in range(0, x.shape[0], EVAL_BLOCK):
        yield start, model.logits(x[start:start + EVAL_BLOCK])


def evaluate(state: SimState, config: SimConfig, dataset: Dataset) -> MetricsRow:
    model = state.model
    test_pred = np.empty(dataset.y_test.size, dtype=np.intp)
    for start, logits in logit_blocks(model, dataset.x_test):
        test_pred[start:start + len(logits)] = logits.argmax(axis=1)
    test_top1 = float((test_pred == dataset.y_test).mean())

    # Every row's argmax, and the probabilities of the first n_eval rows.
    n_eval = min(config.eval_subset, dataset.x_unlabeled.shape[0])
    pred = np.empty(dataset.y_unlabeled.size, dtype=np.intp)
    probs = np.empty((n_eval, dataset.n_classes))
    for start, logits in logit_blocks(model, dataset.x_unlabeled):
        block = softmax(logits)
        pred[start:start + len(block)] = block.argmax(axis=1)
        if start < n_eval:
            probs[start:start + len(block)] = block[:n_eval - start]
    pl_acc = float((pred == dataset.y_unlabeled).mean())

    y_true = dataset.y_unlabeled[:n_eval]
    targets, ks = build_targets(probs, config, state.ledger)
    ent_sel = lb.entropy(targets)
    ent_raw = lb.entropy(probs)
    zobj1 = lb.obj1_score(probs, targets, y_true)
    zobj2 = lb.obj2_score(targets)

    return MetricsRow(
        iter=state.iteration,
        test_top1=test_top1,
        pl_acc=pl_acc,
        mean_entropy_sel=float(ent_sel.mean()),
        mean_entropy_raw=float(ent_raw.mean()),
        mean_zobj1=float(zobj1.mean()),
        mean_zobj2=float(zobj2.mean()),
        k_mean=float(ks.mean()),
    )


def cosine_lr(config: SimConfig, t: int) -> float:
    return config.lr * 0.5 * (1.0 + math.cos(math.pi * t / config.iters))


def run(config: SimConfig, dataset: Dataset, state: SimState | None = None) -> SimState:
    """Full training run with periodic evaluation; returns the final state
    with its metrics history."""
    if state is None:
        state = init_state(config, dataset)
    n_lab = dataset.x_labeled.shape[0]
    n_ulb = dataset.x_unlabeled.shape[0]
    warmup = warmup_iters(config, dataset)

    for t in range(config.iters):
        lab_idx = state.rng_data.choice(n_lab, size=config.batch_size, replace=False)
        ulb_idx = state.rng_data.choice(
            n_ulb, size=config.mu * config.batch_size, replace=False
        )
        soc_step(
            state,
            (dataset.x_labeled[lab_idx], dataset.y_labeled[lab_idx]),
            (ulb_idx, dataset.x_unlabeled[ulb_idx]),
            config,
            in_warmup=t < warmup,
            lr=cosine_lr(config, t),
        )
        if (t + 1) % config.eval_every == 0 or t + 1 == config.iters:
            state.history.append(evaluate(state, config, dataset))
    return state


def final_score(history: list) -> float:
    """Mean test top-1 of the last 3 evaluations."""
    tail = history[-3:]
    return float(np.mean([row.test_top1 for row in tail]))


def write_metrics_csv(history: list, path) -> None:
    with open(path, "w") as fh:
        fh.write(MetricsRow.CSV_HEADER + "\n")
        for row in history:
            fh.write(row.csv_row() + "\n")


def entropy_vs_k(
    model: LinearModel,
    dataset: Dataset,
    ledger: TransitionLedger,
    ks,
    seed: int = 0,
    subset: int | None = None,
) -> list[float]:
    """Mean selected-label entropy over the unlabeled set for each fixed k,
    against one frozen ledger. Every k is clustered once, in one
    cluster_labels call, whose row for k is a lone k's partition; the rows
    are then taken EVAL_BLOCK at a time and restricted per k, so memory
    does not grow with len(ks)."""
    x = dataset.x_unlabeled if subset is None else dataset.x_unlabeled[:subset]
    labels_by_k, _, _ = cluster_labels(ledger.similarity_matrix(), ks, seed)
    entropies = np.empty((len(ks), x.shape[0]))
    for start, logits in logit_blocks(model, x):
        probs = softmax(logits)
        pnorm = probs / probs.sum(axis=1, keepdims=True)
        top = pnorm.argmax(axis=1)
        for row in range(len(ks)):
            targets = lb.restrict(pnorm, candidate_mask(labels_by_k, row, top))
            entropies[row, start:start + len(pnorm)] = lb.entropy(targets)
    # Each k's mean over its own contiguous row, as a lone k's run takes it.
    return [float(np.mean(row)) for row in entropies]


# ---------------------------------------------------------------------------
# config file parsing (CLI)


def config_from_dict(raw: dict) -> tuple[SimConfig, SyntheticDatasetSpec]:
    """Build (SimConfig, SyntheticDatasetSpec) from a parsed JSON config.

    Raises ConfigError naming the offending field.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    try:
        ds_raw = dict(raw.get("dataset", {}))
        spec = SyntheticDatasetSpec(**ds_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"dataset: {exc}") from exc
    sim_raw = dict(raw.get("sim", {}))
    policy_raw = sim_raw.pop("k_policy", {"policy": "linear", "alpha": 5.0})
    try:
        policy = KPolicy.from_config(policy_raw, spec.n_classes)
    except (KeyError, TypeError, ValueError, InvalidK) as exc:
        raise ConfigError(f"sim.k_policy: {exc}") from exc
    try:
        config = SimConfig(k_policy=policy, **sim_raw)
    except TypeError as exc:
        raise ConfigError(f"sim: {exc}") from exc
    K = spec.n_classes
    if (K * spec.labels_per_class < config.batch_size
            or K * spec.unlabeled_per_class < config.mu * config.batch_size):
        raise ConfigError("dataset is smaller than one labeled or unlabeled batch")
    return config, spec
