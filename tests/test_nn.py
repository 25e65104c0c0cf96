import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcl import nn
from fedcl.contrastive import _momentum_step
from fedcl.errors import ConfigError, ShapeError
from fedcl.nn import (BLOCK, FORWARD_BLOCK_BYTES, EncoderParams, LayerShape,
                      backward_features, forward_batch, forward_cached, init_params,
                      layer_views, loss_and_grad, mlp_shapes, normalize_rows,
                      sgd_step, validate_shapes)
from fedcl.seeding import rng_for


def tiny_params(values):
    """Two 2x2 layers with biases; 12 parameters total."""
    shapes = (LayerShape(2, 2), LayerShape(2, 2))
    return EncoderParams(np.asarray(values, dtype=np.float64), shapes)


def test_layer_shape_size():
    assert LayerShape(3, 4).size == 15  # 12 weights + 3 biases
    assert LayerShape(1, 1).size == 2


def test_params_manifest_mismatch():
    with pytest.raises(ShapeError):
        EncoderParams(np.zeros(11), (LayerShape(2, 2), LayerShape(2, 2)))
    # the feature width is read off the manifest, so it cannot disagree with it
    assert EncoderParams(np.zeros(9), (LayerShape(2, 2), LayerShape(1, 2))).feature_dim == 1


def test_mlp_shapes_chain():
    shapes = mlp_shapes(256, [64], 32)
    assert shapes == (LayerShape(64, 256), LayerShape(32, 64))
    with pytest.raises(ConfigError):
        validate_shapes((LayerShape(4, 3), LayerShape(2, 5)))
    with pytest.raises(ConfigError):
        validate_shapes(())


def test_init_bounds_and_determinism():
    shapes = mlp_shapes(9, [5], 4)
    p1 = init_params(shapes, 3)
    p2 = init_params(shapes, 3)
    p3 = init_params(shapes, 4)
    assert np.array_equal(p1.values, p2.values)
    assert not np.array_equal(p1.values, p3.values)
    for (w, b), s in zip(layer_views(p1), shapes):
        bound = 1.0 / np.sqrt(s.cols)
        assert np.all(np.abs(w) <= bound)
        assert np.all(np.abs(b) <= bound)


def test_forward_hand_arithmetic():
    """Trace one input through a fixed 2-2-2 net by hand.

    x = [1, 2]; layer 1 gives relu([1.5, -1.75]) = [1.5, 0];
    layer 2 gives relu([1.5, -1.5]) = [1.5, 0]; normalized -> [1, 0].
    """
    values = [1.0, 0.0, 0.0, -1.0, 0.5, 0.25,  # W1 rows, b1
              1.0, 1.0, -1.0, 1.0, 0.0, 0.0]   # W2 rows, b2
    p = tiny_params(values)
    z = forward_batch(p, np.array([[1.0, 2.0]]))[0]
    assert np.array_equal(z, np.array([1.0, 0.0]))


def test_forward_zero_activation_gives_zero_feature():
    values = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0,     # identity first layer
              -1.0, 0.0, 0.0, -1.0, 0.0, 0.0]   # negate second layer
    p = tiny_params(values)
    z = forward_batch(p, np.array([[1.0, 2.0]]))[0]
    assert np.array_equal(z, np.zeros(2))


def test_forward_batch_accepts_image_stacks():
    p = init_params(mlp_shapes(16, [6], 4), 0)
    imgs = rng_for(5, "imgs").random((3, 4, 4))
    flat = imgs.reshape(3, 16)
    assert np.array_equal(forward_batch(p, imgs), forward_batch(p, flat))
    with pytest.raises(ShapeError):
        forward_batch(p, np.zeros((2, 5)))


def test_features_are_unit_or_zero():
    p = init_params(mlp_shapes(16, [6], 4), 1)
    z = forward_batch(p, rng_for(6, "imgs").random((10, 16)))
    norms = np.linalg.norm(z, axis=1)
    assert np.all((np.abs(norms - 1.0) < 1e-12) | (norms == 0.0))


@st.composite
def nets(draw):
    """A random MLP, an input batch, and the output gradient of a loss.
    Half the rows are negated: with non-negative first-layer weights and
    non-positive biases, those rows reach the head as exact zeros."""
    dims = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    shapes = tuple(LayerShape(r, c) for c, r in zip(dims, dims[1:]))
    seed, batch = draw(st.integers(0, 2**16)), draw(st.integers(1, 6))
    rng = rng_for(seed, "net")
    p = init_params(shapes, seed)
    views = layer_views(p)
    views[0][0][...] = np.abs(views[0][0])
    for _, b in views:
        b[...] = -np.abs(b)
    x = rng.random((batch, dims[0]))
    x[::2] *= -1.0
    return p, x, rng.standard_normal((batch, dims[-1]))


@settings(max_examples=60, deadline=None)
@given(nets())
def test_forward_batch_is_bit_equal_to_the_cached_forward(net):
    p, x, _ = net
    got = forward_batch(p, x)
    cached = forward_cached(p, x)
    assert got.tobytes() == cached.features.tobytes()
    assert not np.any(got[::2])  # the negated rows are all zero


# Row counts at the block partition's edges: one block, the first two, the
# last two-block count, the first three-block one, and so on; 85, 86, 255
# and 256 fall inside a partition.
WIDE_ROWS = [1, 2, 85, 86, 170, 171, 255, 256, 340, 341, 510, 511, 600, 1000, 6000]
DEEP_ROWS = [1, 2, 128, 129, 256, 257, 512, 513, 600, 768, 769, 1000, 6000]


@pytest.mark.parametrize("dims, rows", [
    *[pytest.param((256, [3072], 128), n, id=str(n)) for n in WIDE_ROWS],
    *[pytest.param((64, [2048, 256], 32), n, id=f"64-2048-256-32-{n}") for n in DEEP_ROWS],
])
def test_blocked_forward_batch_is_bit_equal_to_the_cached_forward(monkeypatch, dims, rows):
    """The wide workload's 256-3072-128 encoder runs ``FORWARD_BLOCK_BYTES //
    (8 * 3072)`` = 170 rows per block (256 on the 2,048-wide one), one block
    after another: 600 rows are four blocks of 150, and 341 and 511 would
    leave a one-row last block after full ones, whose matrix-vector product
    sums differently. The partition does not read the CPU count."""
    def no_cpu_count():
        raise AssertionError("forward_batch read the CPU count")

    monkeypatch.setattr(nn, "_usable_cpus", no_cpu_count)
    p = init_params(mlp_shapes(*dims), 7)
    assert FORWARD_BLOCK_BYTES // (8 * 3072) == 170
    x = rng_for(8, "blocks").random((rows, dims[0]))
    assert forward_batch(p, x).tobytes() == forward_cached(p, x).features.tobytes()


@pytest.mark.parametrize("rows", [170, 171, 341, 511, 600, 1000])
def test_one_cpu_forward_batch_runs_its_blocks_here(monkeypatch, rows):
    """On one CPU a block holds the whole ``FORWARD_BLOCK_BYTES`` of a
    layer, 170 rows on the 256-3072-128 encoder, every block runs in the
    calling thread and no thread starts: the bits are the same."""
    monkeypatch.setattr(nn, "_usable_cpus", lambda: 1)
    p = init_params(mlp_shapes(256, [3072], 128), 7)
    x = rng_for(8, "blocks").random((rows, 256))
    before = threading.active_count()
    got = forward_batch(p, x)
    assert threading.active_count() == before
    assert got.tobytes() == forward_cached(p, x).features.tobytes()


@pytest.mark.parametrize("size", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_blockwise_steps_equal_whole_vector_steps(size):
    """An SGD step, then the key-encoder step, run span by span as gradient
    blocks are handed over (near-equal spans of at most ``BLOCK`` values,
    each with its own scratch), give the bytes of the two whole-vector
    calls."""
    rng = rng_for(size, "blockwise")
    values, grad, buf, key = (rng.standard_normal(size) for _ in range(4))
    want = [a.copy() for a in (values, grad, buf, key)]
    sgd_step(want[0], want[1], want[2], 0.03, 0.9, 1e-4, np.empty(size))
    _momentum_step(want[3], want[0], 0.99, np.empty(size))

    def step(lo, hi, g):
        q, s = values[lo:hi], np.empty_like(g)
        sgd_step(q, g, buf[lo:hi], 0.03, 0.9, 1e-4, s)
        _momentum_step(key[lo:hi], q, 0.99, s)

    cuts = np.linspace(0, size, -(-size // BLOCK) + 1).astype(int)
    for lo, hi in zip(cuts, cuts[1:]):
        assert 0 < hi - lo <= BLOCK
        step(lo, hi, grad[lo:hi])
    for got, expected in zip((values, grad, buf, key), want):
        assert got.tobytes() == expected.tobytes()


@st.composite
def block_nets(draw):
    """A random MLP with one layer of more than ``BLOCK`` values, an input
    batch of 2-40 rows, and the output gradient of a loss. The large layer
    is tall, with ``BLOCK // cols`` rows per full block plus a few rows that
    would make a short last block, or wide, with a row of a third of
    ``BLOCK`` values or more."""
    if draw(st.booleans()):
        cols = draw(st.integers(64, 400))
        rows = (BLOCK // cols) * draw(st.integers(1, 3)) + draw(st.integers(1, 3))
    else:
        cols, rows = draw(st.integers(BLOCK // 3, BLOCK)), draw(st.integers(1, 5))
    dims = [*draw(st.lists(st.integers(1, 8), max_size=1)), cols, rows,
            *draw(st.lists(st.integers(1, 8), max_size=2))]
    shapes = tuple(LayerShape(r, c) for c, r in zip(dims, dims[1:]))
    seed, batch = draw(st.integers(0, 2**16)), draw(st.integers(2, 40))
    rng = rng_for(seed, "block-net")
    return (init_params(shapes, seed), rng.random((batch, dims[0])),
            rng.standard_normal((batch, dims[-1])))


@settings(max_examples=40, deadline=None)
@given(block_nets())
def test_handed_over_gradient_blocks_are_the_whole_gradient(net):
    """The ``(lo, hi)`` spans an ``update`` gets tile the parameter vector
    once; a layer of at most ``BLOCK`` values comes whole, a larger one in
    blocks of at least two rows (the one row of a one-row layer aside), at
    most ``BLOCK`` values each unless three rows hold more; their bytes are
    those of the gradient returned without an ``update``. An update that
    steps the weights in place as its blocks come gives the bytes of the
    whole gradient's step."""
    p, x, g_out = net
    cache = forward_cached(p, x)
    whole = backward_features(p, cache, g_out)
    got = np.full_like(p.values, np.nan)
    spans = []

    def collect(lo, hi, g):
        spans.append((lo, hi))
        got[lo:hi] = g

    assert backward_features(p, cache, g_out, update=collect) is None
    cover = np.zeros(p.values.size, dtype=int)
    for lo, hi in spans:
        cover[lo:hi] += 1
    assert (cover == 1).all()
    assert got.tobytes() == whole.tobytes()
    offsets = np.cumsum([0, *(s.size for s in p.shapes)])
    for s, off in zip(p.shapes, offsets):
        inside = [(lo, hi) for lo, hi in spans if off <= lo < off + s.size]
        if s.size <= BLOCK:
            assert inside == [(off, off + s.size)]
            continue
        weights = [hi - lo for lo, hi in inside[:-1]]
        assert inside[-1] == (off + s.rows * s.cols, off + s.size)  # the bias, last
        assert all(n >= min(2, s.rows) * s.cols for n in weights)
        assert all(n <= max(BLOCK, 3 * s.cols) for n in weights)

    lr, momentum, weight_decay = 0.03, 0.9, 1e-4
    buf = rng_for(len(spans), "buf").standard_normal(p.values.size)
    want, want_buf = p.values.copy(), buf.copy()
    sgd_step(want, whole, want_buf, lr, momentum, weight_decay, np.empty_like(want))

    def step(lo, hi, g):
        sgd_step(p.values[lo:hi], g, buf[lo:hi], lr, momentum, weight_decay, np.empty_like(g))

    backward_features(p, cache, g_out, update=step)
    assert p.values.tobytes() == want.tobytes()
    assert buf.tobytes() == want_buf.tobytes()


def test_normalize_rows_zero_rule():
    out = normalize_rows(np.array([[3.0, 4.0], [0.0, 0.0]]))
    assert np.array_equal(out, np.array([[0.6, 0.8], [0.0, 0.0]]))


def normalize_rows_by_copies(a):
    """``normalize_rows`` as it was, through three temporaries of ``a``'s shape."""
    norms = np.sqrt(np.einsum("ij,ij->i", a, a))
    out = np.zeros_like(a)
    nz = norms > 0.0
    out[nz] = a[nz] / norms[nz, None]
    return out


ODD_VALUES = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-160,
                              1e-300, 1e154, 1e200, 1.0, -2.5])


def odd_rows(d):
    values = st.one_of(ODD_VALUES, st.floats(allow_nan=True, allow_infinity=True))
    return st.lists(st.lists(values, min_size=d, max_size=d), max_size=8).map(
        lambda rows: np.array(rows, dtype=np.float64).reshape(len(rows), d))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(odd_rows))
def test_normalize_rows_in_place_matches_the_copying_form(a):
    """Zero, NaN, ±inf, subnormal and overflowing rows: both forms give the
    old function's bytes, NaN rows included as zeros; only ``in_place``
    writes into its argument."""
    kept = a.copy()
    with np.errstate(all="ignore"):
        want = normalize_rows_by_copies(a).tobytes()
        assert normalize_rows(a).tobytes() == want
        assert a.tobytes() == kept.tobytes()
        assert normalize_rows(a, in_place=True) is a
    assert a.tobytes() == want


def test_backward_features_matches_finite_difference():
    rng = rng_for(11, "fd")
    p = init_params(mlp_shapes(6, [5], 4), 11)
    x = rng.random((3, 6)) + 0.1
    g_out = rng.standard_normal((3, 4))

    def scalar_loss(values):
        q = EncoderParams(values, p.shapes)
        return float(np.sum(forward_batch(q, x) * g_out))

    grad = backward_features(p, forward_cached(p, x), g_out)
    eps = 1e-6
    for i in rng.choice(p.values.size, size=25, replace=False):
        bumped = p.values.copy()
        bumped[i] += eps
        up = scalar_loss(bumped)
        bumped[i] -= 2 * eps
        down = scalar_loss(bumped)
        fd = (up - down) / (2 * eps)
        assert abs(fd - grad[i]) <= 1e-5 * max(1.0, abs(fd), abs(grad[i]))


def test_loss_value_hand_oracle():
    """Identity-feature net, hand-computed softmax loss.

    Row 0 has positive logit 2 and one negative logit 0; row 1 has both at
    2. Mean loss = (log(1 + e^-2) + log 2) / 2.
    """
    shapes = (LayerShape(2, 2),)
    p = EncoderParams(np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]), shapes)  # W = I, b = 0
    queries = np.array([[1.0, 0.0], [0.0, 1.0]])
    positives = queries.copy()
    negatives = np.array([[0.0, 1.0]])
    loss, grad = loss_and_grad(p, queries, positives, negatives, None, 0.5)
    expected = 0.5 * (np.log(1.0 + np.exp(-2.0)) + np.log(2.0))
    assert abs(loss - expected) < 1e-12
    assert grad.shape == p.values.shape


def test_loss_with_no_negatives_is_zero():
    p = init_params(mlp_shapes(4, [3], 2), 0)
    queries = rng_for(0, "q").random((2, 4)) + 0.1
    positives = forward_batch(p, queries)
    loss, grad = loss_and_grad(p, queries, positives, None, None, 0.2)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_loss_and_grad_validation():
    p = init_params(mlp_shapes(4, [3], 2), 0)
    q = np.ones((2, 4))
    pos = np.ones((2, 2))
    with pytest.raises(ValueError):
        loss_and_grad(p, q, pos, None, None, 0.0)
    with pytest.raises(ValueError):
        loss_and_grad(p, np.zeros((0, 4)), pos, None, None, 0.2)
    with pytest.raises(ShapeError):
        loss_and_grad(p, q, np.ones((3, 2)), None, None, 0.2)


@pytest.mark.parametrize("slot", ["positives", "negatives", "synthetic negatives"])
def test_loss_and_grad_rejects_key_rows_of_the_wrong_width(slot):
    """Keys whose width is not feature_dim are refused, not reread as more
    rows, and so is a 1-D row: keys are (n, d) rows only."""
    p = init_params(mlp_shapes(6, [5], 4), 0)
    q = np.ones((4, 6))
    # (2, 8) holds four 4-wide rows' worth of values, (4,) one row's
    for bad in (np.ones((2, 8)), np.ones(4)):
        keys = {"positives": np.ones((4, 4)), "negatives": None, "synthetic negatives": None}
        keys[slot] = bad
        with pytest.raises(ShapeError, match=f"{slot}: expected key rows of width 4"):
            loss_and_grad(p, q, keys["positives"], keys["negatives"],
                          keys["synthetic negatives"], 0.2)


def test_loss_grad_matches_finite_difference():
    rng = rng_for(21, "fd-loss")
    p = init_params(mlp_shapes(6, [5], 4), 21)
    queries = rng.random((3, 6)) + 0.1
    positives = normalize_rows(rng.standard_normal((3, 4)))
    negatives = normalize_rows(rng.standard_normal((7, 4)))
    synth = normalize_rows(rng.standard_normal((4, 4)))

    def loss_at(values):
        q = EncoderParams(values, p.shapes)
        return loss_and_grad(q, queries, positives, negatives, synth, 0.2)[0]

    _, grad = loss_and_grad(p, queries, positives, negatives, synth, 0.2)
    eps = 1e-6
    for i in rng.choice(p.values.size, size=25, replace=False):
        bumped = p.values.copy()
        bumped[i] += eps
        up = loss_at(bumped)
        bumped[i] -= 2 * eps
        down = loss_at(bumped)
        fd = (up - down) / (2 * eps)
        assert abs(fd - grad[i]) <= 1e-5 * max(1.0, abs(fd), abs(grad[i]))
