"""Output checks. Every function returns a list of error strings; an empty
list means the output passed. A job with any error counts as failed."""

from __future__ import annotations

import json
import math

import numpy as np

TOL = 1e-9
MAX_ERRORS = 5


def check_select_output(text: str, final_probs: dict, n_classes: int) -> list[str]:
    """Check `soclabel select` output against the final step of its log.

    For every sample id of the final step there must be exactly one line
    whose candidate set holds the input argmax and whose `p_tilde` is zero
    outside the candidates, proportional to the input inside them, and
    sums to 1.
    """
    errors = []
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if len(errors) >= MAX_ERRORS:
            break
        try:
            rec = json.loads(line)
            sample_id = rec["id"]
            k = int(rec["k"])
            cands = [int(c) for c in rec["candidate_classes"]]
            p_tilde = np.asarray(rec["p_tilde"], dtype=float)
        except (ValueError, KeyError, TypeError) as exc:
            errors.append(f"line {lineno}: unreadable ({exc!r})")
            continue
        if sample_id not in final_probs or sample_id in seen:
            errors.append(f"line {lineno}: unexpected or repeated id {sample_id!r}")
            continue
        seen.add(sample_id)
        p = np.asarray(final_probs[sample_id], dtype=float)
        p = p / p.sum()
        if not 2 <= k <= n_classes:
            errors.append(f"line {lineno}: k={k} outside [2, {n_classes}]")
        elif p_tilde.shape != (n_classes,) or not cands or not all(
                0 <= c < n_classes for c in cands):
            errors.append(f"line {lineno}: bad shape or candidate classes")
        elif int(np.argmax(p)) not in cands:
            errors.append(f"line {lineno}: candidates miss the argmax {int(np.argmax(p))}")
        else:
            inside = np.zeros(n_classes, dtype=bool)
            inside[cands] = True
            expected = np.where(inside, p, 0.0) / p[inside].sum()
            if np.any(p_tilde[~inside] != 0.0):
                errors.append(f"line {lineno}: mass outside the candidates")
            elif np.max(np.abs(p_tilde - expected)) > TOL:
                errors.append(f"line {lineno}: p_tilde not proportional to the input")
            elif abs(float(p_tilde.sum()) - 1.0) > TOL:
                errors.append(f"line {lineno}: p_tilde sums to {p_tilde.sum()}")
    missing = len(final_probs) - len(seen)
    if missing and len(errors) < MAX_ERRORS:
        errors.append(f"{missing} final-step ids have no output line")
    return errors


def true_class_mass(text: str, truth: dict) -> float:
    """Mean selected-label probability on each sample's true class."""
    masses = [rec["p_tilde"][truth[rec["id"]]]
              for rec in map(json.loads, text.splitlines())]
    return float(np.mean(masses))


def check_metrics_csv(text: str, n_classes: int) -> list[str]:
    """The simulator's metrics history: at least one row, every value
    finite, and k_mean in [2, K]."""
    lines = text.splitlines()
    if len(lines) < 2:
        return ["metrics CSV has no rows"]
    header = lines[0].split(",")
    if "k_mean" not in header:
        return ["metrics CSV has no k_mean column"]
    errors = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            row = dict(zip(header, map(float, line.split(","))))
        except ValueError:
            errors.append(f"line {lineno}: non-numeric value")
            continue
        if not all(math.isfinite(v) for v in row.values()):
            errors.append(f"line {lineno}: non-finite value")
        elif not 2 <= row["k_mean"] <= n_classes:
            errors.append(f"line {lineno}: k_mean={row['k_mean']} outside [2, {n_classes}]")
    return errors[:MAX_ERRORS]


def check_digest(key, digest: str, reference: dict) -> list[str]:
    """Every job with the same inputs must give the same output bytes. The
    first digest seen for `key` becomes its reference."""
    expected = reference.setdefault(key, digest)
    if digest != expected:
        return [f"digest {digest[:12]} differs from {expected[:12]} for {key}"]
    return []
