"""Dense encoder math: flat parameter vectors, batched forward passes, and
exact reverse-mode gradients for the contrastive training losses.

The encoder is a plain MLP over flattened pixels. ReLU follows every layer,
including the last, and the output head L2-normalizes, so features live in
the non-negative orthant with unit norm. An all-zero pre-normalization
activation maps to the all-zero feature vector by definition, and the
gradient through that point is taken to be zero.

The math follows the parameters' dtype: a float32 ``EncoderParams`` takes
its inputs, key rows and gradients in float32 and allocates its layer
buffers and gradient scratch in float32; a float64 one computes exactly as
if ``nn`` knew no other dtype.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShapeError
from .seeding import rng_for


@dataclass(frozen=True)
class LayerShape:
    """One dense layer: ``rows`` outputs, ``cols`` inputs and a bias per output."""

    rows: int
    cols: int

    @property
    def size(self) -> int:
        return self.rows * (self.cols + 1)


@dataclass
class EncoderParams:
    """Flat float32 or float64 parameter vector plus the layer manifest
    describing it. The encoder math computes in the vector's dtype."""

    values: np.ndarray
    shapes: tuple[LayerShape, ...]

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if values.dtype.type not in (np.float32, np.float64):
            raise ShapeError(f"parameter values must be float32 or float64, got {values.dtype}")
        self.values = np.asarray(values, dtype=values.dtype.type)  # native byte order
        self.shapes = tuple(self.shapes)
        expected = sum(s.size for s in self.shapes)
        if self.values.ndim != 1 or self.values.size != expected:
            raise ShapeError(
                f"parameter vector has {self.values.size} entries, "
                f"manifest implies {expected}"
            )

    @property
    def feature_dim(self) -> int:
        """Width of the feature rows: the last layer's output count."""
        return self.shapes[-1].rows

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.values.copy(), self.shapes)


def validate_shapes(shapes) -> tuple[LayerShape, ...]:
    shapes = tuple(shapes)
    if not shapes:
        raise ConfigError("encoder needs at least one layer")
    for i, s in enumerate(shapes):
        if s.rows < 1 or s.cols < 1:
            raise ConfigError(f"layer {i} has a zero-dimensional shape {s.rows}x{s.cols}")
        if i > 0 and s.cols != shapes[i - 1].rows:
            raise ConfigError(
                f"layer {i} expects {s.cols} inputs but layer {i - 1} "
                f"produces {shapes[i - 1].rows}"
            )
    return shapes


def mlp_shapes(input_dim: int, hidden_dims, feature_dim: int) -> tuple[LayerShape, ...]:
    """Layer manifest for flatten -> hidden layer(s) -> feature head."""
    dims = [int(input_dim), *(int(h) for h in hidden_dims), int(feature_dim)]
    return validate_shapes(
        LayerShape(dims[i + 1], dims[i]) for i in range(len(dims) - 1)
    )


def init_params(shapes, seed: int) -> EncoderParams:
    """Fresh parameters, each layer's weights and biases uniform in [-s, s]
    with s = 1/sqrt(fan_in), drawn in the flat vector's order."""
    shapes = validate_shapes(shapes)
    rng = rng_for(seed, "encoder-init")
    chunks = []
    for s in shapes:
        bound = 1.0 / np.sqrt(s.cols)
        chunks.append(rng.uniform(-bound, bound, s.size))
    return EncoderParams(np.concatenate(chunks), shapes)


def layer_views(params: EncoderParams):
    """(weight, bias) array views into the flat vector, layer by layer."""
    values = params.values
    out = []
    offset = 0
    for s in params.shapes:
        w = values[offset : offset + s.rows * s.cols].reshape(s.rows, s.cols)
        out.append((w, values[offset + s.rows * s.cols : offset + s.size]))
        offset += s.size
    return out


def normalize_rows(a: np.ndarray, in_place: bool = False) -> np.ndarray:
    """L2-normalize rows, in float32 if ``a`` is float32 and else in float64;
    all-zero rows stay exactly zero, and so does a row whose norm is NaN.
    ``in_place`` divides a float32 or float64 ``a`` itself, with no
    temporary of its shape; else ``a`` is left as it is."""
    a = np.asarray(a)
    a = a.astype(np.float32 if a.dtype == np.float32 else np.float64, copy=not in_place)
    norms = np.sqrt(np.einsum("ij,ij->i", a, a))
    nz = norms > 0.0
    np.divide(a, norms[:, None], out=a, where=nz[:, None])
    a[~nz] = 0.0
    return a


@dataclass
class ForwardCache:
    """Intermediate activations kept for the backward pass."""

    activations: list  # A_0 .. A_L (input, then post-ReLU per layer)
    features: np.ndarray  # (B, d) normalized output


def _flatten_batch(params: EncoderParams, images) -> np.ndarray:
    x = np.asarray(images, dtype=params.values.dtype)
    if x.ndim == 3:
        x = x.reshape(x.shape[0], -1)
    in_dim = params.shapes[0].cols
    if x.ndim != 2 or x.shape[1] != in_dim:
        raise ShapeError(f"expected inputs with {in_dim} values per sample, got {x.shape}")
    return x


def forward_cached(params: EncoderParams, images) -> ForwardCache:
    """The forward pass with every layer's activations kept, each built in
    place as in ``forward_batch``. No pre-activation is kept: the backward
    ReLU mask ``max(h, 0) > 0`` equals ``h > 0``, NaN included."""
    a = _flatten_batch(params, images)
    activations = [a]
    for w, b in layer_views(params):
        a = a @ w.T
        a += b
        np.maximum(a, 0.0, out=a)
        activations.append(a)
    return ForwardCache(activations, normalize_rows(a))


# Bytes of one layer's rows in flight in ``forward_batch``: inference holds
# at most this much of any layer, whatever its row count. 4 MiB blocks were
# the smallest size tried that did not slow the wide benchmark workload's
# fine-tune (256-3072-128 encoder; median of 4, one core, one BLAS thread):
# 4.61 s with 170-row blocks, 4.83 s unblocked, 5.01 s at 2 MiB, 5.49 s at
# 1 MiB, 9.33 s at 256 KiB.
FORWARD_BLOCK_BYTES = 4 << 20


def forward_batch(params: EncoderParams, images) -> np.ndarray:
    """(B, d) feature rows for a stack of images or flat input rows.

    Bit-equal to ``forward_cached(params, images).features``, but keeps no
    activations for a backward pass: the rows run through the layers in
    place, in the fewest near-equal blocks of at most ``FORWARD_BLOCK_BYTES``
    per layer, one after another through one set of layer buffers, each
    block into its own rows of the features. Only the (B, d) features are
    kept whole, and normalized in place.

    A row's sums do not depend on the other rows of its block while the
    product takes BLAS's general matrix path, so the bits do not depend on
    the partition. A product of one or a few rows can take a matrix-vector
    or small-matrix path whose sums differ in the last bits: hence
    near-equal blocks, not full blocks and a short last one.
    """
    x = _flatten_batch(params, images)
    n, dtype = x.shape[0], x.dtype
    widest = max(s.rows for s in params.shapes)
    blocks = max(1, -(-n // max(1, FORWARD_BLOCK_BYTES // (dtype.itemsize * widest))))
    layers = layer_views(params)
    features = np.empty((n, params.feature_dim), dtype)
    hidden = [np.empty((-(-n // blocks), s.rows), dtype) for s in params.shapes[:-1]]
    for i in range(blocks):
        lo, hi = n * i // blocks, n * (i + 1) // blocks
        _dense_relu_layers(x[lo:hi], layers, [h[: hi - lo] for h in hidden] + [features[lo:hi]])
    return normalize_rows(features, in_place=True)


def _dense_relu_layers(a, layers, outs) -> None:
    """Rows ``a`` through every (weight, bias) layer and its ReLU, layer i
    built in place in ``outs[i]``."""
    for (w, b), out in zip(layers, outs):
        a = np.matmul(a, w.T, out=out)
        a += b
        np.maximum(a, 0.0, out=a)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _openblas_thread_calls():
    """The thread-count getter and setter of the OpenBLAS that numpy's wheel
    bundles (``numpy.libs/libscipy_openblas64_-*.so``; loading it again by
    path returns the copy numpy already uses), or None where numpy links
    another BLAS."""
    for path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob(
            "libscipy_openblas64_-*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_threads, set_threads
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's bundled OpenBLAS at one thread over the block, then give
    it back its thread count; yields whether the hold took.

    On one thread every product sums in the same order whatever
    ``OPENBLAS_NUM_THREADS`` says, and two processes share two cores without
    each starting BLAS threads of its own."""
    calls = _openblas_thread_calls()
    if calls is None:
        yield False
        return
    get_threads, set_threads = calls
    before = get_threads()
    set_threads(1)
    try:
        yield True
    finally:
        set_threads(before)


# Values per gradient block that ``backward_features`` hands to an
# ``update``: one block of each vector a step touches (256 KB each) stays in
# a 2 MB per-core L2 cache between the step's passes. On 1.18M-value
# vectors, an SGD plus key-encoder step took 7.2-8.0 ms in blocks of this
# size, 10.7 ms on the whole vectors, and 8.5-11 ms at 1 << 12 or 1 << 18.
BLOCK = 1 << 15


def _layer_blocks(shape: LayerShape) -> list[tuple[int, int, bool]]:
    """The ``(r0, r1, bias)`` blocks ``backward_features`` makes one layer's
    gradient in: its weight rows r0..r1, then its bias if ``bias``."""
    if shape.size <= BLOCK:
        return [(0, shape.rows, True)]
    count = max(1, min(-(-shape.rows // max(2, BLOCK // shape.cols)), shape.rows // 2))
    return [(shape.rows * j // count, shape.rows * (j + 1) // count, False)
            for j in range(count)] + [(shape.rows, shape.rows, True)]


def backward_features(params: EncoderParams, cache: ForwardCache, d_features, update=None):
    """Gradient of a scalar loss w.r.t. the flat parameter vector, given the
    loss gradient w.r.t. the normalized output features.

    The gradient is made in blocks, layers last first, each layer once its
    error has gone back through its weights: a layer of at most ``BLOCK``
    values in one block, bias included; a larger one in near-equal row
    blocks of at most ``BLOCK`` values, then its bias. No block is one row
    of a larger layer, a product that can take BLAS's vector path. A row
    block may take another BLAS kernel than its whole layer, so the blocks
    are the same whatever the caller asks for.

    With no ``update``, each block is written into its view of a new vector
    as long as ``params.values``, which is returned. Given an ``update``,
    each is handed to ``update(lo, hi, g)`` as it is made, ``g`` being the
    gradient of ``params.values[lo:hi]``, which ``update`` may step in place;
    ``g`` is one block-sized buffer that the next block overwrites, and None
    is returned.

    Rows whose pre-normalization activation is exactly zero propagate no
    gradient, matching the zero-maps-to-zero head rule. ``d_features``, the
    gradient and its blocks take ``params.values``'s dtype.
    """
    out = np.empty_like(params.values) if update is None else None
    d_feats = np.asarray(d_features, dtype=params.values.dtype)
    a_last = cache.activations[-1]
    norms = np.sqrt(np.einsum("ij,ij->i", a_last, a_last))
    da = np.zeros_like(a_last)
    nz = norms > 0.0
    z = cache.features[nz]
    inner = np.einsum("ij,ij->i", d_feats[nz], z)
    da[nz] = (d_feats[nz] - inner[:, None] * z) / norms[nz, None]

    blocks = [_layer_blocks(s) for s in params.shapes]
    scratch = None if update is None else np.empty(max(
        (r1 - r0) * s.cols + s.rows * bias
        for s, layer in zip(params.shapes, blocks) for r0, r1, bias in layer),
        params.values.dtype)
    weights = layer_views(params)
    offset = params.values.size
    for i in range(len(weights) - 1, -1, -1):
        shape = params.shapes[i]
        offset -= shape.size
        dh = da * (cache.activations[i + 1] > 0.0)
        if i > 0:
            da = dh @ weights[i][0]
        for r0, r1, bias in blocks[i]:
            lo, n = offset + r0 * shape.cols, (r1 - r0) * shape.cols
            hi = lo + n + shape.rows * bias
            g = out[lo:hi] if update is None else scratch[: hi - lo]
            if n:
                np.matmul(dh[:, r0:r1].T, cache.activations[i], out=g[:n].reshape(r1 - r0, -1))
            if bias:
                np.sum(dh, axis=0, out=g[n:])
            if update is not None:
                update(lo, hi, g)
    return out


def sgd_step(values, grad, buf, lr, momentum, weight_decay, scratch) -> None:
    """One SGD step with momentum and weight decay, in place: bit-equal to
    ``grad = grad + weight_decay * values``, ``buf = momentum * buf + grad``,
    ``values = values - lr * buf``. Overwrites ``grad`` and ``scratch``, a
    spare array of the same shape, and updates ``values`` and ``buf``.
    """
    np.multiply(values, weight_decay, out=scratch)
    grad += scratch
    buf *= momentum
    buf += grad
    np.multiply(buf, lr, out=scratch)
    values -= scratch


def _as_key_rows(keys, d: int, name: str, dtype) -> np.ndarray:
    """Key features as (n, d) rows of ``dtype``; ``None`` or an empty array
    is no keys."""
    if keys is None or np.size(keys) == 0:
        return np.zeros((0, d), dtype)
    rows = np.asarray(keys, dtype=dtype)
    if rows.ndim != 2 or rows.shape[1] != d:
        raise ShapeError(f"{name}: expected key rows of width {d}, got shape {rows.shape}")
    return rows


def loss_and_grad(params_q, batch_views, positives, negatives, synthetic_negatives, temperature,
                  update=None):
    """Mean contrastive loss over the query batch and its exact gradient.

    ``positives``, ``negatives`` and ``synthetic_negatives`` are key-side
    feature rows of width ``feature_dim`` (any other width is a
    ``ShapeError``) and are treated as constants: gradients flow only through
    the query encoder. Either negative set may be empty; with both empty the
    softmax has a single term and the loss is exactly zero. Queries, keys
    and logits take ``params_q``'s dtype.

    Returns ``(loss, grad)`` with ``grad`` aligned with ``params_q.values``;
    ``update`` goes to ``backward_features``, which says what ``grad`` then
    is.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    dtype = params_q.values.dtype
    queries = np.asarray(batch_views, dtype=dtype)
    if queries.size == 0 or queries.shape[0] == 0:
        raise ValueError("empty query batch")
    d = params_q.feature_dim
    pos = _as_key_rows(positives, d, "positives", dtype)
    negs = np.vstack([_as_key_rows(negatives, d, "negatives", dtype),
                      _as_key_rows(synthetic_negatives, d, "synthetic negatives", dtype)])
    cache = forward_cached(params_q, queries)
    z_q = cache.features
    batch = z_q.shape[0]
    if pos.shape[0] != batch:
        raise ShapeError(f"{batch} queries but {pos.shape[0]} positive keys")

    tau = float(temperature)
    logits = np.empty((batch, 1 + negs.shape[0]), dtype)
    logits[:, 0] = np.einsum("ij,ij->i", z_q, pos) / tau
    logits[:, 1:] = (z_q @ negs.T) / tau

    peak = logits.max(axis=1, keepdims=True)
    expd = np.exp(logits - peak)
    total = expd.sum(axis=1)
    losses = peak[:, 0] + np.log(total) - logits[:, 0]
    loss = float(losses.mean())

    dlogits = expd / total[:, None]
    dlogits[:, 0] -= 1.0
    dlogits /= batch * tau
    d_z = dlogits[:, :1] * pos + dlogits[:, 1:] @ negs
    return loss, backward_features(params_q, cache, d_z, update)
