import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedcl.config import ExperimentConfig
from fedcl.contrastive import (NegativeQueue, _momentum_step, _view_draws, augment,
                               local_update, momentum_update)
from fedcl.errors import ShapeError
from fedcl.nn import (EncoderParams, LayerShape, forward_batch, init_params,
                      loss_and_grad, mlp_shapes, sgd_step)
from fedcl.seeding import rng_for


def flat_params(values):
    """One 1x1 layer: a weight, then a bias."""
    return EncoderParams(np.asarray(values, dtype=np.float64), (LayerShape(1, 1),))


# -- queue --------------------------------------------------------------------

def test_queue_fifo_eviction():
    q = NegativeQueue(3)
    q.push(np.array([[1.0, 0.0], [2.0, 0.0]]))
    q.push(np.array([[3.0, 0.0], [4.0, 0.0]]))
    assert len(q) == 3
    assert np.array_equal(q.as_matrix(2)[:, 0], np.array([2.0, 3.0, 4.0]))


def test_queue_matrix_is_a_read_only_snapshot():
    q = NegativeQueue(4)
    q.push(np.arange(6.0).reshape(3, 2))
    first = q.as_matrix(2)
    q.push(np.arange(6.0, 12.0).reshape(3, 2))
    assert np.array_equal(q.as_matrix(2), np.arange(4.0, 12.0).reshape(4, 2))
    assert np.array_equal(first, np.arange(6.0).reshape(3, 2))
    with pytest.raises(ValueError):
        first[0, 0] = 1.0


def test_queue_capacity_zero_stays_empty():
    q = NegativeQueue(0)
    q.push(np.ones(3))
    q.push(np.ones((2, 3)))
    assert len(q) == 0
    assert q.as_matrix(3).shape == (0, 3)


def test_queue_empty_matrix_shape():
    assert NegativeQueue(8).as_matrix(5).shape == (0, 5)


def test_queue_rejects_negative_capacity():
    with pytest.raises(ValueError):
        NegativeQueue(-1)


# -- momentum encoder ---------------------------------------------------------

def test_momentum_update_formula():
    d = flat_params([1.0, 2.0])
    q = flat_params([3.0, 4.0])
    out = momentum_update(d, q, 0.9)
    assert np.allclose(out.values, [0.9 * 1 + 0.1 * 3, 0.9 * 2 + 0.1 * 4])


def test_momentum_update_zero_copies_query_exactly():
    d = flat_params([1.0, 2.0])
    q = flat_params([0.1, 0.7])
    assert np.array_equal(momentum_update(d, q, 0.0).values, q.values)


def test_momentum_update_validation():
    d = flat_params([1.0, 2.0])
    with pytest.raises(ValueError):
        momentum_update(d, d, 1.0)
    other = EncoderParams(np.zeros(4), (LayerShape(2, 1),))
    with pytest.raises(ShapeError):
        momentum_update(d, other, 0.5)


@settings(max_examples=100, deadline=None)
@given(size=st.integers(2, 13), data=st.data())
def test_in_place_steps_match_out_of_place_formulas(size, data):
    vector = arrays(np.float64, size, elements=st.floats(-1e3, 1e3))
    unit = st.floats(0.0, 1.0)
    values, grad, buf, theta_q = (data.draw(vector) for _ in range(4))
    lr, momentum, weight_decay = (data.draw(unit) for _ in range(3))
    m = data.draw(st.floats(0.0, 1.0, exclude_max=True))

    want_grad = grad + weight_decay * values
    want_buf = momentum * buf + want_grad
    want_values = values - lr * want_buf
    got_values, got_buf = values.copy(), buf.copy()
    sgd_step(got_values, grad.copy(), got_buf, lr, momentum, weight_decay, np.empty(size))
    assert got_values.tobytes() == want_values.tobytes()
    assert got_buf.tobytes() == want_buf.tobytes()

    want_d = m * values + (1.0 - m) * theta_q
    got_d = values.copy()
    _momentum_step(got_d, theta_q, m, np.empty(size))
    assert got_d.tobytes() == want_d.tobytes()
    shapes = (LayerShape(1, size - 1),)  # size - 1 weights and a bias
    pure = momentum_update(EncoderParams(values, shapes), EncoderParams(theta_q, shapes), m)
    assert pure.values.tobytes() == want_d.tobytes()


# -- augmentation -------------------------------------------------------------

def test_augment_deterministic_and_bounded():
    stack = rng_for(3, "img").random((2, 12, 12))
    a = augment(stack, rng_for(7, "aug"))
    b = augment(stack, rng_for(7, "aug"))
    assert np.array_equal(a, b)
    assert a.shape == (2, 1, 12, 12)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_augment_zero_image_stays_zero():
    out = augment(np.zeros((2, 10, 10)), rng_for(1, "aug"), views=2)
    assert np.array_equal(out, np.zeros((2, 2, 10, 10)))


def test_augment_varies_with_stream():
    stack = rng_for(3, "img").random((1, 12, 12))
    rng = rng_for(9, "aug")
    views = [augment(stack, rng) for _ in range(4)]
    assert any(not np.array_equal(views[0], v) for v in views[1:])


def test_augment_output_shapes():
    rng = rng_for(4, "aug")
    stack = rng_for(3, "img").random((5, 6, 7))
    assert augment(stack, rng, views=2).shape == (5, 2, 6, 7)
    assert augment(stack, rng).shape == (5, 1, 6, 7)
    assert augment(stack[:0], rng, views=2).shape == (0, 2, 6, 7)
    with pytest.raises(ValueError):
        augment(stack, rng, views=0)
    with pytest.raises(ValueError):
        augment(stack[0], rng)


def reference_view(image, do_flip, angle, crop_h, crop_w, top, left, gamma):
    """One view the per-image way, given its parameters: flip, rotate the
    whole image about its centre (nearest neighbour, zero outside), crop,
    resize, gamma."""
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape
    img = img[:, ::-1] if do_flip else img
    theta = np.deg2rad(angle)
    c, s = np.cos(theta), np.sin(theta)
    cr, cc = (h - 1) / 2.0, (w - 1) / 2.0
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    src_r = np.rint(cr + c * (rows - cr) + s * (cols - cc)).astype(int)
    src_c = np.rint(cc - s * (rows - cr) + c * (cols - cc)).astype(int)
    valid = (src_r >= 0) & (src_r < h) & (src_c >= 0) & (src_c < w)
    rotated = np.zeros_like(img)
    rotated[valid] = img[src_r[valid], src_c[valid]]
    patch = rotated[top : top + crop_h, left : left + crop_w]
    r = np.minimum(((np.arange(h) + 0.5) * crop_h / h).astype(int), crop_h - 1)
    q = np.minimum(((np.arange(w) + 0.5) * crop_w / w).astype(int), crop_w - 1)
    return np.clip(np.power(np.clip(patch[np.ix_(r, q)], 0.0, 1.0), gamma), 0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), h=st.integers(1, 12), w=st.integers(1, 12),
       views=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), zero=st.booleans())
def test_augment_stack_matches_per_image_calls(n, h, w, views, seed, zero):
    """View v of image i is the per-image reference applied with parameter
    row ``i * views + v`` of ``_view_draws`` on a generator in the same
    state, and both generators end in the same state."""
    stack = np.zeros((n, h, w)) if zero else rng_for(seed, "img").uniform(-0.2, 1.2, (n, h, w))
    rng, draws_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    batched = augment(stack, rng, views=views)
    draws = _view_draws(draws_rng, n * views, h, w)
    for i in range(n):
        for v in range(views):
            params = [d[i * views + v] for d in draws]
            assert np.array_equal(batched[i, v], reference_view(stack[i], *params))
    assert rng.bit_generator.state == draws_rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), h=st.integers(1, 12), w=st.integers(1, 12),
       views=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       bits=st.sampled_from([np.random.PCG64, np.random.MT19937]))
def test_view_draws_stay_in_range(n, h, w, views, seed, bits):
    """Every crop window lies inside the image, the crop side is the scale
    in [0.7, 1] times the image side, and angle and gamma keep their ranges,
    whatever the bit generator."""
    count = n * views
    do_flip, angle, crop_h, crop_w, top, left, gamma = _view_draws(
        np.random.Generator(bits(seed)), count, h, w)
    for side, crop, offset in ((h, crop_h, top), (w, crop_w, left)):
        assert crop.shape == offset.shape == (count,)
        assert (max(1, round(0.7 * side)) <= crop).all() and (crop <= side).all()
        assert (offset >= 0).all() and (offset + crop <= side).all()
    assert do_flip.dtype == bool and do_flip.shape == (count,)
    assert ((-15.0 <= angle) & (angle <= 15.0)).all()
    assert ((0.7 <= gamma) & (gamma <= 1.4)).all()
    stack = rng_for(seed, "img").random((n, h, w))
    out = augment(stack, np.random.Generator(bits(seed)), views=views)
    assert out.shape == (n, views, h, w) and out.min() >= 0.0 and out.max() <= 1.0


# -- local update -------------------------------------------------------------

SHAPES = mlp_shapes(16, [6], 4)


def hyper(**kw):
    """A run config setting the fields ``local_update`` reads."""
    base = dict(batch_size=4, lr=0.1, lr_milestones=[], sgd_momentum=0.9, weight_decay=1e-4,
                momentum_coeff=0.9, temperature=0.2, queue_capacity=64)
    return ExperimentConfig(**{**base, **kw})


def small_shard(n=8, seed=2):
    return rng_for(seed, "shard").random((n, 4, 4))


def test_local_update_keys_track_momentum_encoder():
    """Replay a two-batch pass by hand from the broadcast: keys run through
    the key encoder as it stood before that batch's momentum update, and
    enter the queue only after the batch's loss.

    m = 0.7, not a power of two: with the key encoder starting equal to the
    query encoder, a momentum step moved before the key pass differs from
    the true order only by the rounding of m * x + (1 - m) * x, which is
    exact for m = 0.5."""
    theta = init_params(SHAPES, 0)
    images = small_shard(8)
    hp = hyper(momentum_coeff=0.7)
    trained, losses = local_update(theta, images, None, hp, 3, 5)

    rng = rng_for(5, "local-update", 3)
    order = rng.permutation(8)
    theta_q, theta_d = theta.values.copy(), theta.values.copy()
    buf, scratch = np.zeros_like(theta_q), np.empty_like(theta_q)
    queue = np.zeros((0, 4))
    want = []
    for idx in (order[:4], order[4:]):
        pairs = augment(images[idx], rng, views=2)
        keys = forward_batch(EncoderParams(theta_d, SHAPES), pairs[:, 1])
        loss, grad = loss_and_grad(EncoderParams(theta_q, SHAPES), pairs[:, 0],
                                   keys, queue, None, hp.temperature)
        sgd_step(theta_q, grad, buf, hp.lr, hp.sgd_momentum, hp.weight_decay, scratch)
        _momentum_step(theta_d, theta_q, hp.momentum_coeff, scratch)
        queue = np.vstack([queue, keys])
        want.append(loss)
    assert np.array(losses).tobytes() == np.array(want).tobytes()
    assert trained.values.tobytes() == theta_q.tobytes()


def test_local_update_leaves_input_state_alone():
    """theta is not mutated, and a second identical call returns the same
    bytes: no queue entry or momentum carries over between calls."""
    theta = init_params(SHAPES, 0)
    before = theta.values.copy()
    first, first_losses = local_update(theta, small_shard(6), None, hyper(), 1, 5)
    again, again_losses = local_update(theta, small_shard(6), None, hyper(), 1, 5)
    assert np.array_equal(theta.values, before)
    assert first is not theta
    assert not np.array_equal(first.values, before)
    assert first.values.tobytes() == again.values.tobytes()
    assert np.array(first_losses).tobytes() == np.array(again_losses).tobytes()


def test_local_update_loss_decreases_over_epochs():
    """Contrastive loss falls once the key queue is saturated (before that
    the growing negative count inflates it). Median over three inits to
    keep the check off a single lucky trajectory."""
    from fedcl.datagen import ScenarioSpec, generate_node_dataset

    spec = ScenarioSpec(base_size=64)
    images = generate_node_dataset(spec, 1, 0, 0).pixels
    shapes = mlp_shapes(256, [64], 32)
    hp = hyper(batch_size=32, lr=0.05, epochs_per_round=10)
    drops = []
    for seed in (0, 1, 2):
        _, losses = local_update(init_params(shapes, seed), images, None, hp, 1, 5)
        full = losses[2:]  # queue holds all 64 keys from the third batch on
        drops.append(np.mean(full[:2]) - np.mean(full[-2:]))
    assert np.median(drops) > 0.0


def test_local_update_synthetic_negatives_enter_loss():
    theta = init_params(SHAPES, 0)
    images = small_shard(4)
    hp = hyper(lr=0.0, sgd_momentum=0.0, weight_decay=0.0, momentum_coeff=0.0)
    synth = rng_for(8, "synth").random((6, 4))
    _, plain = local_update(theta, images, None, hp, 1, 5)
    _, empty = local_update(theta, images, np.zeros((0, 4)), hp, 1, 5)
    _, with_synth = local_update(theta, images, synth, hp, 1, 5)
    assert plain == empty
    assert with_synth[0] > plain[0]  # extra negatives add softmax mass


def test_local_update_rejects_synthetic_rows_of_the_wrong_width():
    """Three 8-wide rows for a 4-feature encoder are not six keys."""
    with pytest.raises(ShapeError, match="synthetic negatives.*width 4"):
        local_update(init_params(SHAPES, 0), small_shard(4), np.ones((3, 8)), hyper(), 1, 5)


def test_local_update_checks_key_encoder_momentum():
    with pytest.raises(ValueError):
        local_update(init_params(SHAPES, 0), small_shard(4), None, hyper(momentum_coeff=1.0),
                     1, 5)


def test_local_update_rejects_bad_shard():
    theta = init_params(SHAPES, 0)
    hp = hyper(batch_size=2, momentum_coeff=0.5)
    with pytest.raises(ValueError):
        local_update(theta, np.zeros((0, 4, 4)), None, hp, 1, 5)
    with pytest.raises(ValueError):
        local_update(theta, np.zeros((4, 16)), None, hp, 1, 5)
