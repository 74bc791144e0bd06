"""Seeded generator of `soc-log-v1` prediction logs for the select workload.

The class space has K = groups * group_size classes. Every sample id has a
hidden true class; at each step the simulated model puts most of its mass on
the true class's group and its argmax on one group member, which changes
between steps. The transitions this produces are the confusions the ledger
and the clustering are meant to find.

Output depends only on the arguments: the same seed gives the same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

SCHEMA = "soc-log-v1"


@dataclass(frozen=True)
class GeneratedLog:
    text: str  # the NDJSON log
    final_probs: dict  # id -> np.ndarray of the last step's probs, as written
    truth: dict  # id -> true class
    n_classes: int
    n_records: int


def generate_log(
    seed: int,
    n_ids: int = 1000,
    n_steps: int = 10,
    groups: int = 40,
    group_size: int = 5,
) -> GeneratedLog:
    rng = np.random.default_rng([seed, 200])
    K = groups * group_size
    ids = [f"s{i:06d}" for i in range(n_ids)]
    truth_arr = rng.integers(0, K, size=n_ids)
    group_of = truth_arr // group_size
    members = group_of[:, None] * group_size + np.arange(group_size)[None, :]
    rows = np.arange(n_ids)

    lines = []
    final = None
    for step in range(n_steps):
        logits = 0.5 * rng.normal(size=(n_ids, K))
        logits[rows[:, None], members] += 3.0 + 0.3 * rng.normal(size=members.shape)
        # The favoured class is the true one half of the time, otherwise a
        # random member of the same group: argmax flips inside the group.
        favoured = np.where(
            rng.random(n_ids) < 0.5,
            truth_arr,
            members[rows, rng.integers(0, group_size, size=n_ids)],
        )
        logits[rows, favoured] += 1.5
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = np.round(probs / probs.sum(axis=1, keepdims=True), 6)
        for sample_id, row in zip(ids, probs.tolist()):
            lines.append(json.dumps(
                {"schema": SCHEMA, "id": sample_id, "step": step, "probs": row}
            ))
        final = probs

    return GeneratedLog(
        text="\n".join(lines) + "\n",
        final_probs={sid: final[i] for i, sid in enumerate(ids)},
        truth={sid: int(y) for sid, y in zip(ids, truth_arr)},
        n_classes=K,
        n_records=n_ids * n_steps,
    )
