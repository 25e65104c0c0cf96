"""Per-node contrastive training: stochastic two-view augmentation, the FIFO
key dictionary, the momentum key encoder, and one local pass over a shard."""

from __future__ import annotations

import numpy as np

from .config import ExperimentConfig
from .errors import ShapeError
from .nn import EncoderParams, forward_batch, loss_and_grad, sgd_step
from .seeding import rng_for


class NegativeQueue:
    """FIFO store of key feature rows, evicting oldest beyond ``capacity``.

    The rows live in one read-only ``(m, d)`` array, oldest first, in the
    dtype of the rows pushed; a push builds a new array, so a matrix handed
    out earlier never changes.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("queue capacity must be non-negative")
        self.capacity = int(capacity)
        self._rows = np.zeros((0, 0))

    def __len__(self) -> int:
        return self._rows.shape[0]

    def push(self, keys) -> None:
        keys = np.asarray(keys)
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


def _check_momentum(m: float) -> None:
    if not 0.0 <= m < 1.0:
        raise ValueError(f"momentum coefficient must lie in [0, 1), got {m}")


def _momentum_step(theta_d: np.ndarray, theta_q: np.ndarray, m: float,
                   scratch: np.ndarray) -> None:
    """``theta_d = m * theta_d + (1 - m) * theta_q`` in place, bit for bit;
    ``scratch`` is a spare array of the same shape."""
    np.multiply(theta_q, 1.0 - m, out=scratch)
    theta_d *= m
    theta_d += scratch


def momentum_update(theta_d: EncoderParams, theta_q: EncoderParams, m: float) -> EncoderParams:
    """Key-encoder update ``m * theta_d + (1 - m) * theta_q``, element-wise."""
    _check_momentum(m)
    if theta_d.shapes != theta_q.shapes:
        raise ShapeError("momentum update needs matching layer manifests")
    values = theta_d.values.copy()
    _momentum_step(values, theta_q.values, m, np.empty_like(values))
    return EncoderParams(values, theta_q.shapes)


def _view_draws(rng: np.random.Generator, count: int, h: int, w: int):
    """The parameters of ``count`` views of ``(h, w)`` images: flip, angle,
    crop height and width, top and left offset, and gamma. Each comes from
    one vectorized draw over all the views, in this order."""
    do_flip = rng.random(count) < 0.5
    angle = rng.uniform(-15.0, 15.0, count)
    scale = rng.uniform(0.7, 1.0, count)
    crop_h = np.clip(np.rint(scale * h), 1, h).astype(np.int64)
    crop_w = np.clip(np.rint(scale * w), 1, w).astype(np.int64)
    top = rng.integers(0, h - crop_h + 1)
    left = rng.integers(0, w - crop_w + 1)
    return do_flip, angle, crop_h, crop_w, top, left, rng.uniform(0.7, 1.4, count)


def augment(images, rng: np.random.Generator, views: int = 1) -> np.ndarray:
    """Stochastic views of an ``(n, H, W)`` stack, as ``(n, views, H, W)``:
    maybe a horizontal flip, a small nearest-neighbour rotation, a crop
    resized back, then a monotone gamma remap. Output stays within [0, 1];
    an all-zero image maps to itself.

    Views run image by image, then view by view (query, then key, for
    ``views=2``); ``_view_draws`` draws each parameter for all of them with
    one ``rng`` call, so any bit generator serves.
    """
    stack = np.asarray(images, dtype=np.float64)
    if stack.ndim != 3 or views < 1:
        raise ValueError(f"expected an (n, H, W) stack and views >= 1, "
                         f"got shape {stack.shape} and views={views}")
    n, h, w = stack.shape
    do_flip, angle, crop_h, crop_w, top, left, gamma = _view_draws(rng, n * views, h, w)

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
    return out.reshape(n, views, h, w)


def local_update(theta: EncoderParams, images, synthetic, config: ExperimentConfig,
                 round_index: int, rng_seed: int):
    """One local pass over a shard (``config.epochs_per_round`` epochs of
    minibatches, shuffled and augmented from ``rng_seed``), starting from the
    broadcast ``theta`` with an equal key encoder, an empty key queue and no
    momentum. The learning rate is ``config.lr_at(round_index)``.

    Per batch: two views per image; queries run through theta_q, keys through
    theta_d (constants); the loss contrasts each query against its key, the
    current queue contents, and the ``synthetic`` negatives; then an SGD
    step with momentum and weight decay updates theta_q, theta_d takes its
    momentum update from the new theta_q, and the fresh keys enter the queue.

    Returns ``(trained_theta, per_batch_losses)`` and leaves ``theta`` alone;
    a ``None`` or empty ``synthetic`` gives the plain dictionary loss.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3 or images.shape[0] == 0:
        raise ValueError("dataset shard must be a non-empty (n, H, W) stack")
    _check_momentum(config.momentum_coeff)
    lr = config.lr_at(round_index)
    d = theta.feature_dim
    theta_q = theta.copy()
    theta_d = theta.copy()
    queue = NegativeQueue(config.queue_capacity)
    buf = np.zeros_like(theta_q.values)
    rng = rng_for(rng_seed, "local-update", round_index)

    def step(lo, hi, g):
        # One gradient block, stepped as it is made: theta_d's update reads
        # this block of the new theta_q from cache.
        q, s = theta_q.values[lo:hi], np.empty_like(g)
        sgd_step(q, g, buf[lo:hi], lr, config.sgd_momentum, config.weight_decay, s)
        _momentum_step(theta_d.values[lo:hi], q, config.momentum_coeff, s)

    n = images.shape[0]
    losses: list[float] = []
    for _ in range(config.epochs_per_round):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            pairs = augment(images[idx], rng, views=2)
            keys = forward_batch(theta_d, pairs[:, 1])
            loss = loss_and_grad(theta_q, pairs[:, 0], keys, queue.as_matrix(d), synthetic,
                                 config.temperature, step)
            queue.push(keys)
            losses.append(loss)

    return theta_q, losses
