"""Peak memory of the training and inference paths, counted by tracemalloc.

numpy reports every array buffer it allocates to tracemalloc, so these
peaks are exact byte counts, not samples: a change that brings back a
parameter-sized copy per step, or a second hidden-layer array per forward
pass, fails here on any machine.
"""

import tracemalloc

import numpy as np

from fedcl.config import from_dict
from fedcl.contrastive import local_update
from fedcl.datagen import ScenarioSpec, generate_node_dataset
from fedcl.federation import build_nodes
from fedcl.nn import forward_batch, init_params, loss_and_grad, mlp_shapes
from fedcl.seeding import rng_for

THETA = init_params(mlp_shapes(256, [2048], 64), 0)


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


def test_local_update_keeps_four_parameter_vectors():
    """The query and key encoders, the SGD momentum buffer and the one
    gradient buffer; the step scratch is a single block, and the rest is
    batch-sized. With a fresh gradient and scratch per step it was 7.5."""
    images = rng_for(1, "memory").random((64, 16, 16))
    config = from_dict({"batch_size": 32, "lr": 0.03, "sgd_momentum": 0.9,
                        "weight_decay": 1e-4, "momentum_coeff": 0.99, "temperature": 0.2,
                        "queue_capacity": 128})
    peak = peak_bytes(lambda: local_update(THETA, images, None, config, 1, 3))
    assert peak < 5 * THETA.values.nbytes, peak / THETA.values.nbytes


def test_forward_batch_keeps_one_hidden_layer():
    """Inference builds each layer in place and keeps no pre-activations;
    through a ``forward_cached`` that kept them, the same pass peaked at 2.2
    hidden arrays."""
    rows = rng_for(2, "memory").random((600, 256))
    hidden = np.empty((600, 2048)).nbytes
    peak = peak_bytes(lambda: forward_batch(THETA, rows))
    assert peak < 1.5 * hidden, peak / hidden


def test_loss_and_grad_keeps_no_pre_activations():
    """The training forward pass builds each layer in place, and the backward
    pass masks the ReLU by the kept activations; keeping each layer's
    pre-activation as well peaked at 4.5 hidden arrays here, 3.5 without."""
    rows = rng_for(3, "memory").random((256, 256))
    keys = forward_batch(THETA, rng_for(4, "memory").random((256, 256)))
    queue = forward_batch(THETA, rng_for(5, "memory").random((128, 256)))
    grad = np.empty_like(THETA.values)
    hidden = np.empty((256, 2048)).nbytes
    peak = peak_bytes(lambda: loss_and_grad(THETA, rows, keys, queue, None, 0.2, out=grad))
    assert peak < 4 * hidden, peak / hidden


def test_shard_rendering_keeps_one_copy_of_the_pixels():
    """The noise is drawn into the output array and each block of images is
    composed there in place; the per-image renderer peaked at 1.11 copies,
    and composing every image at once at 3.2."""
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
