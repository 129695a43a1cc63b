"""Seeded synthetic decision tables drawn from the independent model."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .independent import IndependentParams
from .model import LABEL_A, LABEL_B, SketchError, _is_int, _roster


def _bernoulli(rng: random.Random, prob: Fraction) -> bool:
    # exact: no float thresholds, so identical seeds give identical tables
    return rng.randrange(prob.denominator) < prob.numerator


def generate_decisions(
    classifier_ids: Sequence[str],
    params: IndependentParams,
    q: int,
    seed: int,
) -> tuple[dict[str, dict[str, str]], dict[str, str]]:
    """Draw a labeled decision table: (decisions, truth) keyed by item id.

    Each item's true label is a with probability ``p_a``; responses are
    then drawn independently per classifier with that label's accuracy.
    The draw order is fixed (items outer, roster order inner), so one
    seed always produces one table.  The ids are a list or tuple of
    distinct non-empty strings, one per parameter entry.
    """
    ids = _roster(classifier_ids)
    if len(ids) != params.size:
        raise SketchError(
            f"{len(ids)} classifier ids for {params.size} parameter entries"
        )
    if not _is_int(q) or q < 1:
        raise SketchError("q must be a positive integer")
    rng = random.Random(seed)
    width = len(str(q))
    decisions: dict[str, dict[str, str]] = {}
    truth: dict[str, str] = {}
    for k in range(1, q + 1):
        item = f"item-{k:0{width}d}"
        is_a = _bernoulli(rng, params.p_a)
        truth[item] = LABEL_A if is_a else LABEL_B
        row: dict[str, str] = {}
        for idx, cid in enumerate(ids):
            acc = params.accuracy_a[idx] if is_a else params.accuracy_b[idx]
            correct = _bernoulli(rng, acc)
            if is_a:
                row[cid] = LABEL_A if correct else LABEL_B
            else:
                row[cid] = LABEL_B if correct else LABEL_A
        decisions[item] = row
    return decisions, truth
