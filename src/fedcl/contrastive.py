"""Per-node contrastive training: stochastic two-view augmentation, the FIFO
key dictionary, the momentum key encoder, and one local pass over a shard."""

from __future__ import annotations

import numpy as np

from .config import ExperimentConfig
from .errors import ShapeError
from .nn import BLOCK, EncoderParams, blockwise, forward_batch, loss_and_grad, sgd_step
from .seeding import rng_for


class NegativeQueue:
    """FIFO store of key feature rows, evicting oldest beyond ``capacity``.

    The rows live in one read-only ``(m, d)`` array, oldest first; a push
    builds a new array, so a matrix handed out earlier never changes.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("queue capacity must be non-negative")
        self.capacity = int(capacity)
        self._rows = np.zeros((0, 0))

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
    return EncoderParams(values, theta_q.shapes, theta_q.feature_dim)


_LOW32 = 0xFFFFFFFF


def _walk_views(count, raws, k_hs, k_ws, state):
    """Walk ``count`` views over a block of raw outputs, given with the row
    and column offset ranges a view starting at each position would draw
    from. Returns each view's start and gamma position, its ``(top, left)``
    offsets, the number of outputs used, and the generator's spare half
    afterwards (``None`` if spent) and last stored spare. Raises
    ``IndexError`` if the block is too short.
    """
    spare = state["uinteger"] if state["has_uint32"] else None
    last = state["uinteger"]  # numpy keeps a spent spare in the state
    starts, gammas, offsets = [], [], []
    p = 0
    for _ in range(count):
        starts.append(p)
        p += 3
        for k in (k_hs[p - 1], k_ws[p - 1]):
            if k == 1:
                offsets.append(0)
                continue
            threshold = (1 << 32) % k
            while True:
                if spare is None:
                    x = raws[p] & _LOW32
                    spare = last = raws[p] >> 32
                    p += 1
                else:
                    x, spare = spare, None
                m = x * k
                if m & _LOW32 >= threshold:
                    break
            offsets.append(m >> 32)
        gammas.append(p)
        p += 1
    if p > len(raws):
        raise IndexError("gamma draw past the end of the block")
    return starts, gammas, offsets, p, spare, last


def _view_draws(rng: np.random.Generator, count: int, h: int, w: int):
    """The six draws of ``count`` views, bit-equal to calling, view by view,
    ``random() < 0.5``, ``uniform(-15, 15)``, ``uniform(0.7, 1)``,
    ``integers(0, h - crop_h + 1)``, ``integers(0, w - crop_w + 1)`` and
    ``uniform(0.7, 1.4)``, and leaving ``rng`` in the state those calls would.

    They are decoded from one block of raw PCG64 output with numpy's rules:
    a double is ``(raw >> 11) * 2**-53`` and ``uniform(a, b)`` is
    ``a + (b - a) * u``; ``integers(0, k)`` takes a 32-bit half (the low one
    of a fresh output, whose high one the generator keeps as a spare for its
    next 32-bit draw) and maps it by Lemire's multiply-shift, redrawing one
    whose low product word is below ``2**32 % k`` (arXiv 1805.10941). A range
    of one draws nothing, so each view's offset depends on the crops before
    it, and one walk over the views finds them.
    """
    bits = getattr(rng, "bit_generator", None)
    if type(bits) is not np.random.PCG64:
        raise TypeError(f"augment decodes PCG64 output, got {type(bits).__name__}")
    saved = bits.state
    raw = bits.random_raw(5 * count)
    while True:
        u = (raw >> 11) * 2.0**-53
        scale = 0.7 + (1.0 - 0.7) * u
        crop_h = np.clip(np.rint(scale * h), 1, h).astype(np.int64)
        crop_w = np.clip(np.rint(scale * w), 1, w).astype(np.int64)
        try:
            starts, gammas, offsets, p, spare, last = _walk_views(
                count, raw.tolist(), (h + 1 - crop_h).tolist(), (w + 1 - crop_w).tolist(),
                saved)
            break
        except IndexError:  # Lemire redraws ran past the block
            raw = np.concatenate([raw, bits.random_raw(count)])

    bits.state = saved
    bits.advance(p)
    state = bits.state
    state["has_uint32"], state["uinteger"] = int(spare is not None), last
    bits.state = state

    starts = np.array(starts)
    offsets = np.array(offsets, dtype=np.int64).reshape(count, 2)
    return (u[starts] < 0.5,
            -15.0 + (15.0 - -15.0) * u[starts + 1],
            crop_h[starts + 2],
            crop_w[starts + 2],
            offsets[:, 0],
            offsets[:, 1],
            0.7 + (1.4 - 0.7) * u[np.array(gammas)])


def augment(images, rng: np.random.Generator, views: int = 1) -> np.ndarray:
    """Stochastic views: maybe horizontal flip, small nearest-neighbour
    rotation, crop and resize back, then a monotone gamma remap. Output
    stays within [0, 1]; an all-zero image maps to itself.

    An ``(n, H, W)`` stack gives ``(n, views, H, W)``. A single ``(H, W)``
    image gives ``(H, W)`` for one view and ``(views, H, W)`` otherwise.

    Each view takes six draws from ``rng`` (flip, angle, scale, top, left,
    gamma), image by image and view by view, decoded from its raw PCG64
    stream exactly as the scalar ``Generator`` calls would make them (see
    ``_view_draws``); a generator over another bit generator raises
    ``TypeError``. The draws are not fixed in number: ``integers(0, 1)``
    consumes nothing when the crop spans the full side. So views of a stack
    are bit-equal to calling this once per image and view, in that order,
    with the same generator.
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
    if single:
        return out[0] if views == 1 else out
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
    grad = np.empty_like(theta_q.values)
    scratch = np.empty(min(BLOCK, grad.size))
    rng = rng_for(rng_seed, "local-update", round_index)

    def step(q, g, v, k):
        # theta_d's update reads this block of the new theta_q from cache.
        s = scratch[: q.size]
        sgd_step(q, g, v, lr, config.sgd_momentum, config.weight_decay, s)
        _momentum_step(k, q, config.momentum_coeff, s)

    n = images.shape[0]
    losses: list[float] = []
    for _ in range(config.epochs_per_round):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            pairs = augment(images[idx], rng, views=2)
            keys = forward_batch(theta_d, pairs[:, 1])
            loss, _ = loss_and_grad(theta_q, pairs[:, 0], keys, queue.as_matrix(d), synthetic,
                                    config.temperature, out=grad)
            blockwise(step, theta_q.values, grad, buf, theta_d.values)
            queue.push(keys)
            losses.append(loss)

    return theta_q, losses
