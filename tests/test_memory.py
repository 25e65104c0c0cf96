"""Peak memory of the training and inference paths, counted by tracemalloc.

numpy reports every array buffer it allocates to tracemalloc, so these
peaks are exact byte counts, not samples: a change that brings back a
parameter-sized copy per step, or a whole hidden layer per inference pass,
fails here on any machine.
"""

import tracemalloc

import numpy as np

from fedcl.config import from_dict
from fedcl.contrastive import local_update
from fedcl.datagen import Images, ScenarioSpec, generate_node_dataset
from fedcl.evaluate import FineTuneConfig, fine_tune
from fedcl.federation import build_nodes
from fedcl.nn import (FORWARD_BLOCK_BYTES, EncoderParams, backward_features, forward_batch,
                      forward_cached, init_params, loss_and_grad, mlp_shapes)
from fedcl.seeding import rng_for

THETA = init_params(mlp_shapes(256, [2048], 64), 0)
WIDE = init_params(mlp_shapes(256, [3072], 128), 0)


def peak_bytes(fn) -> int:
    """Peak bytes allocated during one call of ``fn``, after a warm-up call."""
    fn()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


def test_local_update_keeps_three_parameter_vectors():
    """The query and key encoders and the SGD momentum buffer, on the wide
    benchmark workload's 256-3072-128 encoder: each gradient block is
    stepped as ``backward_features`` makes it, so no parameter-sized
    gradient is kept. The rest is batch- and block-sized, 3.1 MiB here; with
    a whole gradient buffer this peaked one parameter vector higher."""
    images = rng_for(1, "memory").random((64, 16, 16))
    config = from_dict({"batch_size": 32, "lr": 0.03, "sgd_momentum": 0.9,
                        "weight_decay": 1e-4, "momentum_coeff": 0.99, "temperature": 0.2,
                        "queue_capacity": 128})
    peak = peak_bytes(lambda: local_update(WIDE, images, None, config, 1, 3))
    assert peak < 3 * WIDE.values.nbytes + FORWARD_BLOCK_BYTES, peak / WIDE.values.nbytes


def test_fine_tune_keeps_two_parameter_vectors():
    """The fine-tuned encoder and its SGD momentum buffer, on the same
    encoder, with no parameter-sized gradient beside them; the rest is
    3.2 MiB here. With a whole gradient buffer this peaked one parameter
    vector higher."""
    rng = rng_for(2, "memory")
    train, test = (Images(rng.random((n, 16, 16)), np.arange(n) % 2) for n in (128, 64))
    peak = peak_bytes(lambda: fine_tune(WIDE, 0.5, train, test, FineTuneConfig(epochs=1), 5))
    assert peak < 2 * WIDE.values.nbytes + FORWARD_BLOCK_BYTES, peak / WIDE.values.nbytes


def test_fine_tune_keeps_two_float32_parameter_vectors():
    """The fine-tune trains a float32 copy of the encoder with a float32
    momentum buffer: two float32 vectors, as many bytes as one float64 one.
    The rest is 1.9 MB here, so this peaked at 1.20 float64 vectors; in
    float64 it peaked at 2.35."""
    rng = rng_for(2, "memory")
    train, test = (Images(rng.random((n, 16, 16)), np.arange(n) % 2) for n in (128, 64))
    peak = peak_bytes(lambda: fine_tune(WIDE, 0.5, train, test, FineTuneConfig(epochs=1), 5))
    assert peak < WIDE.values.nbytes + FORWARD_BLOCK_BYTES, peak / WIDE.values.nbytes


def test_float32_encoder_math_makes_no_float64_layer():
    """A float32 θ on the 256-3072-128 encoder, 16 rows a call: every result
    is float32, and beside the float32 vectors a call keeps (the two
    encoders and the momentum buffer of a local update) its peak stays below
    one float64 copy of the smallest layer, 3.1 MB. So no layer, gradient or
    step is made in float64. Beside the kept vectors the calls peaked at
    0.08 (``forward_batch``) to 0.32 (``local_update``) such copies."""
    theta = EncoderParams(WIDE.values.astype(np.float32), WIDE.shapes)
    layer64 = min(s.size for s in WIDE.shapes) * 8
    rows = rng_for(3, "memory").random((16, 256))
    keys = forward_batch(WIDE, rng_for(4, "memory").random((16, 256)))  # float64 rows
    cache = forward_cached(theta, rows)
    d_features = rng_for(6, "memory").standard_normal((16, 128))
    images = rng_for(1, "memory").random((32, 16, 16))
    config = from_dict({"batch_size": 16, "lr": 0.03, "sgd_momentum": 0.9,
                        "weight_decay": 1e-4, "momentum_coeff": 0.99, "temperature": 0.2,
                        "queue_capacity": 32})
    blocks = []

    def update(lo, hi, g):
        blocks.append(g.dtype)

    calls = {
        "forward_batch": (lambda: forward_batch(theta, rows), 0),
        "forward_cached": (lambda: forward_cached(theta, rows).features, 0),
        "backward_features(update)": (
            lambda: backward_features(theta, cache, d_features, update) or blocks[-1], 0),
        "local_update": (lambda: local_update(theta, images, keys, config, 1, 3)[0].values, 3),
    }
    peaks = {}
    for name, (call, vectors) in calls.items():
        assert np.result_type(call()) == np.float32, name  # an array or a block's dtype
        peaks[name] = (peak_bytes(call) - vectors * theta.values.nbytes) / layer64
    assert set(blocks) == {np.dtype(np.float32)}
    assert max(peaks.values()) < 1.0, peaks


def test_forward_batch_keeps_one_hidden_layer():
    """Inference builds each layer in place, one block of rows at a time, and
    keeps no activations for a backward pass. This peaked at 0.37 hidden
    arrays, the whole-batch pass at 1.03, and ``forward_cached``, which keeps
    every layer, at 1.13."""
    rows = rng_for(2, "memory").random((600, 256))
    hidden = np.empty((600, 2048)).nbytes
    peak = peak_bytes(lambda: forward_batch(THETA, rows))
    assert peak < 1.5 * hidden, peak / hidden


def test_forward_batch_peak_does_not_grow_with_the_hidden_rows():
    """6,000 rows through the 2,048-wide layer hold one block of it, not the
    98 MB whole layer, beside the (n, d) feature rows. This peaked at
    2.4 feature arrays, with normalizing by copies at 4.1, and the
    whole-batch pass at 33."""
    rows = rng_for(6, "memory").random((6000, 256))
    features = np.empty((6000, THETA.feature_dim)).nbytes
    peak = peak_bytes(lambda: forward_batch(THETA, rows))
    assert peak < FORWARD_BLOCK_BYTES + 4 * features, peak / features


def test_forward_batch_normalizes_its_features_in_place():
    """20,000 rows hold one block of the 2,048-wide layer and the (n, d)
    feature rows, which are normalized where they are. Building the
    normalized rows beside them took 3.63 feature arrays more."""
    rows = rng_for(7, "memory").random((20000, 256))
    features = np.empty((20000, THETA.feature_dim)).nbytes
    peak = peak_bytes(lambda: forward_batch(THETA, rows))
    assert peak < FORWARD_BLOCK_BYTES + 2 * features, (peak - FORWARD_BLOCK_BYTES) / features


def test_loss_and_grad_keeps_no_pre_activations():
    """The training forward pass builds each layer in place, and the backward
    pass masks the ReLU by the kept activations; keeping each layer's
    pre-activation as well peaked at 4.5 hidden arrays here, 3.5 without.
    Each gradient block is copied into a vector allocated beforehand, so
    the gradient is not in the peak."""
    rows = rng_for(3, "memory").random((256, 256))
    keys = forward_batch(THETA, rng_for(4, "memory").random((256, 256)))
    queue = forward_batch(THETA, rng_for(5, "memory").random((128, 256)))
    grad = np.empty_like(THETA.values)
    hidden = np.empty((256, 2048)).nbytes

    def keep(lo, hi, g):
        grad[lo:hi] = g

    peak = peak_bytes(lambda: loss_and_grad(THETA, rows, keys, queue, None, 0.2, update=keep))
    assert peak < 4 * hidden, peak / hidden


def test_shard_rendering_keeps_one_copy_of_the_pixels():
    """The normals are drawn straight into the output array and each block
    of images is composed there in place; beside them, the vectorized draws
    keep only a few values per image. This peaked at 1.17 copies, and
    composing every image at once at 3.2."""
    spec = ScenarioSpec(base_size=2000)
    pixels = np.empty((2000, spec.image_size, spec.image_size)).nbytes
    peak = peak_bytes(lambda: generate_node_dataset(spec, 3, 0, 13))
    assert peak <= 1.5 * pixels, peak / pixels


def test_build_nodes_keeps_the_rendered_shards():
    """The desk benchmark workload's three 2,000-image shards (bench/run.py).
    Each node holds the array its shard was rendered into; stacking a list of
    per-image samples into a second copy peaked at 1.43 times the kept bytes."""
    config = from_dict({"nodes": 3, "seed": 411,
                        "data": {"base_size": 2000, "eval_noise": 0.55}})
    kept = sum(shard.nbytes for shard in build_nodes(config))
    peak = peak_bytes(lambda: build_nodes(config))
    assert peak < 1.2 * kept, peak / kept
