"""K-fold cross-validation (the paper's 10-fold protocol, Section 4.2.2)."""

from __future__ import annotations

import random
from collections import Counter
from typing import List, Optional, Sequence, Tuple


from repro.classify.features import Vocabulary, vectorize
from repro.classify.linear import OneVsRestL1Logistic


def kfold_indices(n: int, k: int, seed: int = 0) -> List[List[int]]:
    """Shuffled fold membership: k disjoint index lists covering range(n)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < k:
        raise ValueError(f"cannot split {n} items into {k} folds")
    indices = list(range(n))
    random.Random(seed).shuffle(indices)
    folds: List[List[int]] = [[] for _ in range(k)]
    for position, index in enumerate(indices):
        folds[position % k].append(index)
    return folds


def _fold_accuracy(
    feature_maps: Sequence[Counter],
    labels: List[str],
    held_out: List[int],
    lam: float,
    min_df: int,
) -> Optional[float]:
    """Held-out accuracy for one fold, or None if the training side is
    degenerate (fewer than two classes)."""
    held = set(held_out)
    train_idx = [i for i in range(len(labels)) if i not in held]
    train_labels = [labels[i] for i in train_idx]
    if len(set(train_labels)) < 2:
        return None
    vocabulary = Vocabulary(min_df=min_df).fit([feature_maps[i] for i in train_idx])
    X_train = vectorize([feature_maps[i] for i in train_idx], vocabulary)
    X_test = vectorize([feature_maps[i] for i in held_out], vocabulary)
    model = OneVsRestL1Logistic(lam=lam)
    model.fit(X_train, train_labels)
    predictions = model.predict(X_test)
    truth = [labels[i] for i in held_out]
    correct = sum(1 for p, t in zip(predictions, truth) if p == t)
    return correct / len(held_out)


def cross_validate_accuracy(
    feature_maps: Sequence[Counter],
    labels: Sequence[str],
    k: int = 10,
    lam: float = 1e-3,
    seed: int = 0,
    min_df: int = 2,
) -> Tuple[float, List[float]]:
    """Mean held-out accuracy over k folds, refitting the vocabulary per fold
    (no leakage from held-out pages into the feature space)."""
    if len(feature_maps) != len(labels):
        raise ValueError("feature_maps and labels length differ")
    labels = list(labels)
    folds = kfold_indices(len(labels), k, seed)
    per_fold = [
        _fold_accuracy(feature_maps, labels, held_out, lam, min_df)
        for held_out in folds
    ]
    accuracies = [a for a in per_fold if a is not None]
    if not accuracies:
        raise ValueError("no usable folds")
    return sum(accuracies) / len(accuracies), accuracies
