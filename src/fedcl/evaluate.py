"""Downstream evaluation: frozen-feature linear probing and small-label
fine-tuning of the full encoder.

Both routines canonicalize sample order by content fingerprint before any
seeded shuffling, so results depend on the data and the seed but not on the
order the caller happened to build the lists in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .datagen import ImageSample, sample_fingerprint
from .seeding import rng_for


@dataclass(frozen=True)
class ProbeConfig:
    epochs: int = 50
    lr: float = 0.1
    batch_size: int = 64


@dataclass(frozen=True)
class FineTuneConfig:
    epochs: int = 100
    lr: float = 0.01
    batch_size: int = 32
    momentum: float = 0.9
    weight_decay: float = 1e-4


@dataclass
class ProbeResult:
    accuracy: float
    per_class_accuracy: dict[int, float]
    confusion: dict[int, dict[int, int]]
    missing_in_train: tuple[int, ...]


@dataclass
class FineTuneResult:
    final_accuracy: float
    best_accuracy: float
    best_epoch: int
    train_size: int


def _canonical(samples) -> list[ImageSample]:
    return sorted(samples, key=sample_fingerprint)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _stack(samples) -> np.ndarray:
    return np.stack([s.pixels for s in samples])


def linear_probe(encoder: nn.EncoderParams, train, test, config: ProbeConfig,
                 seed: int) -> ProbeResult:
    """Multinomial logistic regression on frozen features, plain SGD at a
    constant learning rate. The encoder itself is never modified.

    Classes present in the test split but missing from the train split are
    reported in ``missing_in_train``; the probe still runs.
    """
    if not train or not test:
        raise ValueError("probe needs non-empty labeled train and test splits")
    train = _canonical(train)
    test = _canonical(test)
    train_classes = {s.label for s in train}
    classes = sorted(train_classes | {s.label for s in test})
    missing = tuple(c for c in classes if c not in train_classes)
    index = {c: i for i, c in enumerate(classes)}

    z_train = nn.forward_batch(encoder, _stack(train))
    y_train = np.array([index[s.label] for s in train])
    z_test = nn.forward_batch(encoder, _stack(test))
    y_test = np.array([index[s.label] for s in test])

    n_classes, d = len(classes), encoder.feature_dim
    w = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    rng = rng_for(seed, "linear-probe")
    n = len(train)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            zb, yb = z_train[idx], y_train[idx]
            p = _softmax(zb @ w.T + b)
            p[np.arange(idx.size), yb] -= 1.0
            p /= idx.size
            w -= config.lr * (p.T @ zb)
            b -= config.lr * p.sum(axis=0)

    pred = np.argmax(z_test @ w.T + b, axis=1)
    accuracy = float(np.mean(pred == y_test))
    confusion = {c: {k: 0 for k in classes} for c in classes}
    for yi, pi in zip(y_test, pred):
        confusion[classes[yi]][classes[pi]] += 1
    per_class = {
        c: confusion[c][c] / total
        for c in classes
        if (total := sum(confusion[c].values())) > 0
    }
    return ProbeResult(accuracy, per_class, confusion, missing)


def _test_accuracy(params, w, b, x_test, y_test) -> float:
    z = nn.forward_batch(params, x_test)
    pred = np.argmax(z @ w.T + b, axis=1)
    return float(np.mean(pred == y_test))


def fine_tune(encoder: nn.EncoderParams, train_fraction: float, train, test,
              config: FineTuneConfig, seed: int) -> FineTuneResult:
    """Unfreeze the encoder, attach a linear head, and train both on a
    stratified ``train_fraction`` of the labeled split.

    Test accuracy is tracked every epoch; the result reports final-epoch and
    best-epoch accuracy separately. The input encoder is left untouched.
    """
    if not 0.0 < train_fraction <= 1.0:
        raise ValueError("train_fraction must lie in (0, 1]")
    if not train or not test:
        raise ValueError("fine-tuning needs non-empty labeled train and test splits")
    train = _canonical(train)
    test = _canonical(test)
    classes = sorted({s.label for s in train} | {s.label for s in test})
    index = {c: i for i, c in enumerate(classes)}
    rng = rng_for(seed, "fine-tune")

    chosen: list[ImageSample] = []
    for c in classes:
        members = [s for s in train if s.label == c]
        if not members:
            continue
        k = int(math.floor(train_fraction * len(members)))
        if k < 1:
            raise ValueError(
                f"train_fraction {train_fraction} leaves class {c} with no samples"
            )
        order = rng.permutation(len(members))
        chosen.extend(members[i] for i in order[:k])
    chosen = _canonical(chosen)

    x = _stack(chosen)
    y = np.array([index[s.label] for s in chosen])
    x_test = _stack(test)
    y_test = np.array([index[s.label] for s in test])

    params = encoder.copy()
    n_classes, d = len(classes), encoder.feature_dim
    bound = 1.0 / np.sqrt(d)
    w = rng.uniform(-bound, bound, (n_classes, d))
    b = np.zeros(n_classes)
    buf_p = np.zeros_like(params.values)
    buf_w = np.zeros_like(w)
    buf_b = np.zeros_like(b)
    grad_p = np.empty_like(params.values)
    scratch_p = np.empty(min(nn.BLOCK, grad_p.size))
    scratch_w = np.empty_like(w)

    def step_p(v, g, m):
        nn.sgd_step(v, g, m, config.lr, config.momentum, config.weight_decay,
                    scratch_p[: v.size])

    best, best_epoch, final = -1.0, 0, 0.0
    n = len(chosen)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            cache = nn.forward_cached(params, x[idx])
            z = cache.features
            p = _softmax(z @ w.T + b)
            p[np.arange(idx.size), y[idx]] -= 1.0
            p /= idx.size
            gw = p.T @ z
            gb = p.sum(axis=0)
            nn.backward_features(params, cache, p @ w, out=grad_p)
            nn.sgd_step(w, gw, buf_w, config.lr, config.momentum, config.weight_decay, scratch_w)
            buf_b *= config.momentum
            buf_b += gb
            b -= config.lr * buf_b
            nn.blockwise(step_p, params.values, grad_p, buf_p)
        acc = _test_accuracy(params, w, b, x_test, y_test)
        final = acc
        if acc > best:
            best, best_epoch = acc, epoch
    return FineTuneResult(final, best, best_epoch, n)
