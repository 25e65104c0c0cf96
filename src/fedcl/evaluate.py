"""Downstream evaluation: frozen-feature linear probing and small-label
fine-tuning of the full encoder.

Both routines sort each ``datagen.Images`` split by the SHA-256 of every
image's pixel bytes and label text before any seeded shuffling, so results
depend on the data and the seed but not on the order the splits came in.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .datagen import Images
from .seeding import rng_for


# Optimizer settings of the probe (learning rate, batch size) and of the
# fine-tune (learning rate, batch size, SGD momentum, weight decay).
_PROBE_LR, _PROBE_BATCH = 0.1, 64
_FT_LR, _FT_BATCH, _FT_MOMENTUM, _FT_WEIGHT_DECAY = 0.01, 32, 0.9, 1e-4


@dataclass(frozen=True)
class ProbeConfig:
    epochs: int = 50


@dataclass(frozen=True)
class FineTuneConfig:
    epochs: int = 100


@dataclass
class ProbeResult:
    accuracy: float
    per_class_accuracy: dict[int, float]


@dataclass
class FineTuneResult:
    final_accuracy: float
    train_size: int


def _canonical_order(images: Images) -> np.ndarray:
    keys = [hashlib.sha256(row.tobytes() + str(label).encode("utf-8")).hexdigest()
            for row, label in zip(images.pixels, images.labels.tolist())]
    return np.array(sorted(range(len(images)), key=keys.__getitem__), dtype=np.intp)


def _labeled_classes(routine: str, train: Images, test: Images) -> list[int]:
    if not len(train) or not len(test):
        raise ValueError(f"{routine} needs non-empty labeled train and test splits")
    if (train.labels < 0).any() or (test.labels < 0).any():
        raise ValueError(f"{routine} needs labeled images, got an unlabeled (-1) one")
    return sorted(set(train.labels.tolist()) | set(test.labels.tolist()))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def linear_probe(encoder: nn.EncoderParams, train: Images, test: Images,
                 config: ProbeConfig, seed: int) -> ProbeResult:
    """Multinomial logistic regression on frozen features, plain SGD at a
    constant learning rate. The encoder itself is never modified.

    A class present in the test split but missing from the train split
    still gets a per-class accuracy; the probe runs.
    """
    classes = _labeled_classes("probe", train, test)
    train_order, test_order = _canonical_order(train), _canonical_order(test)

    z_train = nn.forward_batch(encoder, train.pixels[train_order])
    y_train = np.searchsorted(classes, train.labels[train_order])
    z_test = nn.forward_batch(encoder, test.pixels[test_order])
    y_test = np.searchsorted(classes, test.labels[test_order])

    n_classes, d = len(classes), encoder.feature_dim
    w = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    rng = rng_for(seed, "linear-probe")
    n = len(train)
    one_hot = np.eye(n_classes)[y_train]
    batches = [(lo, min(lo + _PROBE_BATCH, n)) for lo in range(0, n, _PROBE_BATCH)]
    for _ in range(config.epochs):
        order = rng.permutation(n)
        z_epoch, y_epoch = z_train[order], one_hot[order]
        for lo, hi in batches:
            zb = z_epoch[lo:hi]
            p = _softmax(zb @ w.T + b)
            p -= y_epoch[lo:hi]  # the true class's -1 of the cross-entropy gradient
            p /= hi - lo
            w -= _PROBE_LR * (p.T @ zb)
            b -= _PROBE_LR * p.sum(axis=0)

    pred = np.argmax(z_test @ w.T + b, axis=1)
    hit = pred == y_test
    per_class = {classes[j]: int(hit[y_test == j].sum()) / int((y_test == j).sum())
                 for j in np.unique(y_test).tolist()}
    return ProbeResult(float(np.mean(hit)), per_class)


def fine_tune(encoder: nn.EncoderParams, train_fraction: float, train: Images,
              test: Images, config: FineTuneConfig, seed: int) -> FineTuneResult:
    """Unfreeze the encoder, attach a linear head, and train both on a
    stratified ``train_fraction`` of the labeled split.

    The test split is scored once, after the last epoch, so no epoch is
    chosen by its test accuracy. The input encoder is left untouched.
    """
    if not 0.0 < train_fraction <= 1.0:
        raise ValueError("train_fraction must lie in (0, 1]")
    classes = _labeled_classes("fine-tuning", train, test)
    order = _canonical_order(train)
    labels = train.labels[order]
    test = test[_canonical_order(test)]
    rng = rng_for(seed, "fine-tune")

    chosen = []  # per class, canonical positions of the images it trains on
    for c in classes:
        members = np.flatnonzero(labels == c)
        if not members.size:
            continue
        k = int(math.floor(train_fraction * members.size))
        if k < 1:
            raise ValueError(
                f"train_fraction {train_fraction} leaves class {c} with no samples"
            )
        chosen.append(members[rng.permutation(members.size)[:k]])
    # in canonical position order, which is the canonical order of the subset
    chosen = train[order[np.sort(np.concatenate(chosen))]]

    x = chosen.pixels
    y = np.searchsorted(classes, chosen.labels)

    params = encoder.copy()
    n_classes, d = len(classes), encoder.feature_dim
    bound = 1.0 / np.sqrt(d)
    w = rng.uniform(-bound, bound, (n_classes, d))
    b = np.zeros(n_classes)
    buf_p = np.zeros_like(params.values)
    buf_w = np.zeros_like(w)
    buf_b = np.zeros_like(b)
    scratch_w = np.empty_like(w)

    def step_p(lo, hi, g):
        nn.sgd_step(params.values[lo:hi], g, buf_p[lo:hi], _FT_LR, _FT_MOMENTUM,
                    _FT_WEIGHT_DECAY, np.empty_like(g))

    n = len(chosen)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, _FT_BATCH):
            idx = order[start : start + _FT_BATCH]
            cache = nn.forward_cached(params, x[idx])
            z = cache.features
            p = _softmax(z @ w.T + b)
            p[np.arange(idx.size), y[idx]] -= 1.0
            p /= idx.size
            gw = p.T @ z
            gb = p.sum(axis=0)
            nn.backward_features(params, cache, p @ w, update=step_p)
            nn.sgd_step(w, gw, buf_w, _FT_LR, _FT_MOMENTUM, _FT_WEIGHT_DECAY, scratch_w)
            buf_b *= _FT_MOMENTUM
            buf_b += gb
            b -= _FT_LR * buf_b

    pred = np.argmax(nn.forward_batch(params, test.pixels) @ w.T + b, axis=1)
    hit = pred == np.searchsorted(classes, test.labels)
    return FineTuneResult(float(np.mean(hit)), n)
