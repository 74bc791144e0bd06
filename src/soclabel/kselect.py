"""Confidence-aware mapping from prediction confidence to cluster count k."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfidence, InvalidK


@dataclass(frozen=True)
class KPolicy:
    """One of the three k-selection families.

    linear:      k = ceil((conf/alpha + 2/K) * K - 1/2),  alpha >= K/(K-2)
    exponential: k = ceil((exp(beta*conf) - 1 + 2/K) * K - 1/2),
                 0 < beta <= ln(2 - 2/K)
    fixed:       k constant (ablation), 2 <= k <= K

    Outputs are clamped to [2, K] to guard ceiling boundaries.
    """

    variant: str
    n_classes: int
    alpha: float | None = None
    beta: float | None = None
    k: int | None = None

    def __post_init__(self):
        K = self.n_classes
        if K < 3:
            raise ValueError("need at least 3 classes")
        if self.variant == "linear":
            if self.alpha is None or not self.alpha >= K / (K - 2):  # NaN too
                raise ValueError(f"alpha must be >= K/(K-2) = {K / (K - 2)}")
        elif self.variant == "exponential":
            bound = math.log(2 - 2 / K)
            if self.beta is None or not 0 < self.beta <= bound:
                raise ValueError(f"beta must be in (0, ln(2-2/K) = {bound}]")
        elif self.variant == "fixed":
            if self.k is None or not 2 <= self.k <= K:
                raise InvalidK(f"fixed k must be in [2, {K}]")
        else:
            raise ValueError(f"unknown policy variant {self.variant!r}")

    @classmethod
    def linear(cls, alpha: float, n_classes: int) -> "KPolicy":
        return cls("linear", n_classes, alpha=alpha)

    @classmethod
    def exponential(cls, beta: float, n_classes: int) -> "KPolicy":
        return cls("exponential", n_classes, beta=beta)

    @classmethod
    def fixed(cls, k: int, n_classes: int) -> "KPolicy":
        return cls("fixed", n_classes, k=k)

    @classmethod
    def from_config(cls, cfg: dict, n_classes: int) -> "KPolicy":
        """The policy of a parsed config object, checked by parse_config
        and then against n_classes."""
        variant, value = parse_config(cfg)
        return cls(variant, n_classes, **{PARAMETER[variant]: value})


# Each variant's one parameter.
PARAMETER = {"linear": "alpha", "exponential": "beta", "fixed": "k"}
# Each CLI policy name's config object, its parameter at its default (fixed's
# k has none), and the policy of a run config or a CLI call that names none.
DEFAULT_CONFIG = {"linear": {"policy": "linear", "alpha": 5.0},
                  "exp": {"policy": "exp", "beta": 0.5},
                  "fixed": {"policy": "fixed", "k": None}}
DEFAULT_POLICY = "linear"


def parse_config(cfg: dict) -> tuple[str, float | int]:
    """The (variant, parameter) of a parsed config object such as
    {"policy": "linear", "alpha": 5}, with every check that needs no K:
    TypeError unless cfg is a dict whose parameter is a finite number (an
    integer for fixed), ValueError for an unknown policy or a key the
    policy does not read. The bounds need K and are KPolicy's."""
    if not isinstance(cfg, dict):
        raise TypeError(f"expected an object, got {cfg!r}")
    name = cfg.get("policy")
    variant = "exponential" if name == "exp" else name
    if not isinstance(name, str) or variant not in PARAMETER:
        raise ValueError(f"unknown policy {name!r}")
    key = PARAMETER[variant]
    stray = sorted(set(cfg) - {"policy", key})
    if stray:
        raise ValueError(f"policy {name} reads {key}, not {', '.join(stray)}")
    value = cfg.get(key)
    if variant == "fixed":
        if type(value) is not int:  # a bool is an int to Python
            raise TypeError(f"k must be an integer, got {value!r}")
        return variant, value
    if not finite_number(value):
        raise TypeError(f"{key} must be a finite number, got {value!r}")
    return variant, float(value)


def finite_number(value) -> bool:
    """Whether value is an int or a float, not a bool, that converts to a
    finite float: an int of 400 digits does not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def select_k(policy: KPolicy, confidence) -> np.ndarray:
    """Map softmax max-probabilities to cluster counts in {2..K}.

    Takes a confidence or an array of them and returns an int array of the
    same shape. Each element is computed with the same operations, in the
    same order, as the scalar formula in Python floats; the exponential
    variant calls math.exp per element, since np.exp can differ from it in
    the last bit.
    """
    conf = np.asarray(confidence, dtype=float)
    in_range = (conf >= 0.0) & (conf <= 1.0)
    if not in_range.all():
        bad = conf[~in_range].flat[0]
        raise InvalidConfidence(f"confidence {bad} outside [0, 1]")
    K = policy.n_classes
    if policy.variant == "fixed":
        return np.full(conf.shape, policy.k, dtype=int)
    if policy.variant == "linear":
        raw = (conf / policy.alpha + 2 / K) * K - 0.5
    else:
        grown = np.array([math.exp(policy.beta * c) for c in conf.ravel().tolist()])
        raw = (grown.reshape(conf.shape) - 1 + 2 / K) * K - 0.5
    return np.clip(np.ceil(raw), 2, K).astype(int)
