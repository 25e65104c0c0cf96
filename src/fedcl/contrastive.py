"""Per-node contrastive training: stochastic two-view augmentation, the FIFO
key dictionary, the momentum key encoder, and one local pass over a shard."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .nn import EncoderParams, forward_batch, loss_and_grad
from .seeding import rng_for


class NegativeQueue:
    """FIFO store of key feature rows, evicting oldest beyond ``capacity``.

    The rows live in one read-only ``(m, d)`` array, oldest first; a push
    builds a new array, so a matrix handed out earlier never changes.
    """

    def __init__(self, capacity: int, entries=None):
        if capacity < 0:
            raise ValueError("queue capacity must be non-negative")
        self.capacity = int(capacity)
        self._rows = np.zeros((0, 0))
        if entries is not None:
            self.push(entries)

    def __len__(self) -> int:
        return self._rows.shape[0]

    def push(self, keys) -> None:
        keys = np.asarray(keys, dtype=np.float64)
        if not keys.size:
            return
        keys = keys.reshape(-1, keys.shape[-1])
        rows = np.concatenate([self._rows, keys]) if len(self) else keys.copy()
        self._rows = rows[max(0, len(rows) - self.capacity):]
        self._rows.flags.writeable = False

    def as_matrix(self, d: int) -> np.ndarray:
        if not len(self):
            return np.zeros((0, d))
        return self._rows

    def copy(self) -> "NegativeQueue":
        return NegativeQueue(self.capacity, self._rows)


def momentum_update(theta_d: EncoderParams, theta_q: EncoderParams, m: float) -> EncoderParams:
    """Key-encoder update ``m * theta_d + (1 - m) * theta_q``, element-wise."""
    if not 0.0 <= m < 1.0:
        raise ValueError(f"momentum coefficient must lie in [0, 1), got {m}")
    if theta_d.shapes != theta_q.shapes:
        raise ShapeError("momentum update needs matching layer manifests")
    values = m * theta_d.values + (1.0 - m) * theta_q.values
    return EncoderParams(values, theta_q.shapes, theta_q.feature_dim)


def augment(images, rng: np.random.Generator, views: int = 1) -> np.ndarray:
    """Stochastic views: maybe horizontal flip, small nearest-neighbour
    rotation, crop and resize back, then a monotone gamma remap. Output
    stays within [0, 1]; an all-zero image maps to itself.

    An ``(n, H, W)`` stack gives ``(n, views, H, W)``. A single ``(H, W)``
    image gives ``(H, W)`` for one view and ``(views, H, W)`` otherwise.

    Each view takes six scalar draws from ``rng`` (flip, angle, scale, top,
    left, gamma), image by image and view by view. The draws are not fixed
    in number: ``rng.integers(0, 1)`` consumes nothing when the crop spans
    the full side. So views of a stack are bit-equal to calling this once
    per image and view, in that order, with the same generator.
    """
    stack = np.asarray(images, dtype=np.float64)
    single = stack.ndim == 2
    if single:
        stack = stack[None]
    if stack.ndim != 3 or views < 1:
        raise ValueError(f"expected an (H, W) image or (n, H, W) stack and views >= 1, "
                         f"got shape {stack.shape} and views={views}")
    n, h, w = stack.shape
    if n == 0:
        return np.zeros((0, views, h, w))
    draws = []
    for _ in range(n * views):
        do_flip = rng.random() < 0.5
        angle = rng.uniform(-15.0, 15.0)
        scale = rng.uniform(0.7, 1.0)
        crop_h = min(h, max(1, int(round(scale * h))))
        crop_w = min(w, max(1, int(round(scale * w))))
        top = int(rng.integers(0, h - crop_h + 1))
        left = int(rng.integers(0, w - crop_w + 1))
        gamma = rng.uniform(0.7, 1.4)
        draws.append((do_flip, angle, crop_h, crop_w, top, left, gamma))
    do_flip, angle, crop_h, crop_w, top, left, gamma = (np.array(col) for col in zip(*draws))

    # Crop-resize: output pixel (i, j) of a view reads its rotated image at
    # (rows[i], cols[j]), nearest-neighbour within the crop window.
    rows = top[:, None] + np.minimum(
        ((np.arange(h) + 0.5) * crop_h[:, None] / h).astype(int), crop_h[:, None] - 1)
    cols = left[:, None] + np.minimum(
        ((np.arange(w) + 0.5) * crop_w[:, None] / w).astype(int), crop_w[:, None] - 1)
    cr, cc = (h - 1) / 2.0, (w - 1) / 2.0
    dr = (rows - cr)[:, :, None]
    dc = (cols - cc)[:, None, :]
    # Rotation about the centre: the rotated image at a pixel reads the
    # flipped one at (src_r, src_c), or is 0 where that falls outside.
    theta = np.deg2rad(angle)
    cos, sin = np.cos(theta)[:, None, None], np.sin(theta)[:, None, None]
    src_r = np.rint(cr + cos * dr + sin * dc).astype(int)
    src_c = np.rint(cc - sin * dr + cos * dc).astype(int)
    invalid = (src_r < 0) | (src_r >= h) | (src_c < 0) | (src_c >= w)
    np.subtract(w - 1, src_c, out=src_c, where=do_flip[:, None, None])
    # Index, gather and remap in place: with one fresh array per step, the
    # freed temporaries left the heap fragmented, and a run with a
    # 256-3072-128 encoder peaked 9.5 MB higher.
    flat = src_r
    flat += (np.arange(n * views) // views)[:, None, None] * h
    flat *= w
    flat += src_c
    flat[invalid] = 0
    out = stack.reshape(-1)[flat]
    out[invalid] = 0.0
    np.clip(out, 0.0, 1.0, out=out)
    np.power(out, gamma[:, None, None], out=out)
    np.clip(out, 0.0, 1.0, out=out)
    if single:
        return out[0] if views == 1 else out
    return out.reshape(n, views, h, w)


@dataclass(frozen=True)
class LocalHyperparams:
    batch_size: int
    lr: float
    sgd_momentum: float
    weight_decay: float
    momentum_coeff: float  # key-encoder momentum m
    temperature: float
    epochs: int = 1
    round_index: int = 1


@dataclass
class NodeTrainState:
    theta_q: EncoderParams
    theta_d: EncoderParams
    queue: NegativeQueue
    rng_seed: int
    momentum_buffer: np.ndarray | None = None


def local_update(state: NodeTrainState, dataset_shard, synthetic_negatives, hp: LocalHyperparams):
    """One local pass over the shard (``hp.epochs`` epochs of minibatches).

    Per batch: two views per image; queries run through theta_q, keys through
    theta_d (constants); the loss contrasts each query against its key, the
    current queue contents, and the given synthetic negatives; then an SGD
    step with momentum and weight decay updates theta_q, theta_d takes its
    momentum update from the new theta_q, and the fresh keys enter the queue.

    Returns ``(new_state, per_batch_losses)``. The input state is not
    mutated. An empty ``synthetic_negatives`` reduces the loss to the plain
    dictionary form.
    """
    images = np.asarray(dataset_shard, dtype=np.float64)
    if images.ndim != 3 or images.shape[0] == 0:
        raise ValueError("dataset shard must be a non-empty (n, H, W) stack")
    d = state.theta_q.feature_dim
    if synthetic_negatives is None:
        synth = np.zeros((0, d))
    else:
        synth = np.asarray(synthetic_negatives, dtype=np.float64).reshape(-1, d)

    theta_q = state.theta_q.copy()
    theta_d = state.theta_d.copy()
    queue = state.queue.copy()
    buf = np.zeros_like(theta_q.values) if state.momentum_buffer is None else state.momentum_buffer.copy()
    rng = rng_for(state.rng_seed, "local-update", hp.round_index)

    n = images.shape[0]
    losses: list[float] = []
    for _ in range(hp.epochs):
        order = rng.permutation(n)
        for start in range(0, n, hp.batch_size):
            idx = order[start : start + hp.batch_size]
            pairs = augment(images[idx], rng, views=2)
            keys = forward_batch(theta_d, pairs[:, 1])
            loss, grad = loss_and_grad(
                theta_q, pairs[:, 0], keys, queue.as_matrix(d), synth, hp.temperature
            )
            grad = grad + hp.weight_decay * theta_q.values
            buf = hp.sgd_momentum * buf + grad
            theta_q.values = theta_q.values - hp.lr * buf
            theta_d = momentum_update(theta_d, theta_q, hp.momentum_coeff)
            queue.push(keys)
            losses.append(loss)

    return NodeTrainState(theta_q, theta_d, queue, state.rng_seed, buf), losses
