import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedcl.contrastive import (LocalHyperparams, NegativeQueue,
                               _momentum_step, augment, local_update,
                               momentum_update)
from fedcl.errors import ShapeError
from fedcl.nn import (EncoderParams, LayerShape, forward_batch, init_params,
                      loss_and_grad, mlp_shapes, sgd_step)
from fedcl.seeding import rng_for


def flat_params(values):
    shapes = (LayerShape(1, 2, has_bias=False),)
    return EncoderParams(np.asarray(values, dtype=np.float64), shapes, 1)


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
    other = EncoderParams(np.zeros(2), (LayerShape(2, 1, has_bias=False),), 2)
    with pytest.raises(ShapeError):
        momentum_update(d, other, 0.5)


@settings(max_examples=100, deadline=None)
@given(size=st.integers(1, 12), data=st.data())
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
    shapes = (LayerShape(1, size, has_bias=False),)
    pure = momentum_update(EncoderParams(values, shapes, 1), EncoderParams(theta_q, shapes, 1), m)
    assert pure.values.tobytes() == want_d.tobytes()


# -- augmentation -------------------------------------------------------------

def test_augment_deterministic_and_bounded():
    img = rng_for(3, "img").random((12, 12))
    a = augment(img, rng_for(7, "aug"))
    b = augment(img, rng_for(7, "aug"))
    assert np.array_equal(a, b)
    assert a.shape == img.shape
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_augment_zero_image_stays_zero():
    out = augment(np.zeros((10, 10)), rng_for(1, "aug"))
    assert np.array_equal(out, np.zeros((10, 10)))


def test_augment_varies_with_stream():
    img = rng_for(3, "img").random((12, 12))
    rng = rng_for(9, "aug")
    views = [augment(img, rng) for _ in range(4)]
    assert any(not np.array_equal(views[0], v) for v in views[1:])


def test_augment_output_shapes():
    rng = rng_for(4, "aug")
    stack = rng_for(3, "img").random((5, 6, 7))
    assert augment(stack, rng, views=2).shape == (5, 2, 6, 7)
    assert augment(stack, rng).shape == (5, 1, 6, 7)
    assert augment(stack[0], rng).shape == (6, 7)
    assert augment(stack[0], rng, views=3).shape == (3, 6, 7)
    assert augment(stack[:0], rng, views=2).shape == (0, 2, 6, 7)
    with pytest.raises(ValueError):
        augment(stack, rng, views=0)


def reference_view(image, rng):
    """One view the per-image way: flip, rotate the whole image about its
    centre (nearest neighbour, zero outside), crop, resize, gamma."""
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape
    do_flip = rng.random() < 0.5
    angle = rng.uniform(-15.0, 15.0)
    scale = rng.uniform(0.7, 1.0)
    crop_h = min(h, max(1, int(round(scale * h))))
    crop_w = min(w, max(1, int(round(scale * w))))
    top = int(rng.integers(0, h - crop_h + 1))
    left = int(rng.integers(0, w - crop_w + 1))
    gamma = rng.uniform(0.7, 1.4)

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
       seed=st.integers(0, 2**32 - 1), zero=st.booleans(), spent=st.integers(0, 2))
def test_augment_stack_matches_per_image_calls(n, h, w, seed, zero, spent):
    """A stack's views equal query-then-key per-image calls drawn from the
    same stream, both through ``augment`` and through the per-image
    reference, and every stream ends in the same state. ``spent`` earlier
    32-bit draws may leave the generator holding a spare half on entry."""
    stack = np.zeros((n, h, w)) if zero else rng_for(seed, "img").uniform(-0.2, 1.2, (n, h, w))
    batched_rng, loop_rng, ref_rng = (np.random.default_rng(seed) for _ in range(3))
    for rng in (batched_rng, loop_rng, ref_rng):
        for _ in range(spent):
            rng.integers(0, 7)
    batched = augment(stack, batched_rng, views=2)
    for i in range(n):
        for view in (0, 1):  # query, then key
            assert np.array_equal(batched[i, view], augment(stack[i], loop_rng))
            assert np.array_equal(batched[i, view], reference_view(stack[i], ref_rng))
    assert batched_rng.bit_generator.state == loop_rng.bit_generator.state
    assert batched_rng.bit_generator.state == ref_rng.bit_generator.state


def _before_zero_low_half(j):
    """A PCG64 generator whose 4th raw output is ``j << 32``: XSL-RR maps a
    state with high word 0 and low word ``j << 32`` to exactly that."""
    rng = np.random.default_rng(0)
    inc = rng.bit_generator.state["state"]["inc"]
    rng.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": j << 32, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    rng.bit_generator.advance(2**128 - 4)
    return rng


@pytest.mark.parametrize("j", [2, 4])
def test_augment_redraws_a_rejected_crop_offset(j):
    """The top offset takes the zero low half of the 4th output, which
    ``integers(0, k)`` rejects for k in {3, 5, 6} (2**32 % k > 0) and redraws
    from the spare high half; the view then needs more than five outputs."""
    image = rng_for(j, "img").random((16, 16))
    probe = _before_zero_low_half(j)
    assert probe.bit_generator.random_raw(4)[3] == j << 32
    probe = _before_zero_low_half(j)
    probe.random(2)  # flip and angle
    crop = min(16, max(1, int(round(probe.uniform(0.7, 1.0) * 16))))
    assert 16 - crop + 1 in (3, 5, 6)
    rng, ref_rng = _before_zero_low_half(j), _before_zero_low_half(j)
    assert np.array_equal(augment(image, rng), reference_view(image, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_augment_rejects_other_bit_generators():
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError):
        augment(np.zeros((4, 4)), rng)


# -- local update -------------------------------------------------------------

SHAPES = mlp_shapes(16, [6], 4)


def hyper(**kw):
    base = dict(batch_size=4, lr=0.1, sgd_momentum=0.9, weight_decay=1e-4,
                momentum_coeff=0.9, temperature=0.2, queue_capacity=64)
    return LocalHyperparams(**{**base, **kw})


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
    hp = hyper(momentum_coeff=0.7, round_index=3)
    trained, losses = local_update(theta, images, None, hp, 5)

    rng = rng_for(5, "local-update", 3)
    order = rng.permutation(8)
    theta_q, theta_d = theta.values.copy(), theta.values.copy()
    buf, scratch = np.zeros_like(theta_q), np.empty_like(theta_q)
    queue = np.zeros((0, 4))
    want = []
    for idx in (order[:4], order[4:]):
        pairs = augment(images[idx], rng, views=2)
        keys = forward_batch(EncoderParams(theta_d, SHAPES, 4), pairs[:, 1])
        loss, grad = loss_and_grad(EncoderParams(theta_q, SHAPES, 4), pairs[:, 0],
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
    first, first_losses = local_update(theta, small_shard(6), None, hyper(), 5)
    again, again_losses = local_update(theta, small_shard(6), None, hyper(), 5)
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
    images = np.stack([s.pixels for s in generate_node_dataset(spec, 1, 0, 0)])
    shapes = mlp_shapes(256, [64], 32)
    hp = hyper(batch_size=32, lr=0.05, epochs=10)
    drops = []
    for seed in (0, 1, 2):
        _, losses = local_update(init_params(shapes, seed), images, None, hp, 5)
        full = losses[2:]  # queue holds all 64 keys from the third batch on
        drops.append(np.mean(full[:2]) - np.mean(full[-2:]))
    assert np.median(drops) > 0.0


def test_local_update_synthetic_negatives_enter_loss():
    theta = init_params(SHAPES, 0)
    images = small_shard(4)
    hp = hyper(lr=0.0, sgd_momentum=0.0, weight_decay=0.0, momentum_coeff=0.0)
    synth = rng_for(8, "synth").random((6, 4))
    _, plain = local_update(theta, images, None, hp, 5)
    _, empty = local_update(theta, images, np.zeros((0, 4)), hp, 5)
    _, with_synth = local_update(theta, images, synth, hp, 5)
    assert plain == empty
    assert with_synth[0] > plain[0]  # extra negatives add softmax mass


def test_local_update_rejects_synthetic_rows_of_the_wrong_width():
    """Three 8-wide rows for a 4-feature encoder are not six keys."""
    with pytest.raises(ShapeError, match="synthetic negatives.*width 4"):
        local_update(init_params(SHAPES, 0), small_shard(4), np.ones((3, 8)), hyper(), 5)


def test_local_update_checks_key_encoder_momentum():
    with pytest.raises(ValueError):
        local_update(init_params(SHAPES, 0), small_shard(4), None, hyper(momentum_coeff=1.0), 5)


def test_local_update_rejects_bad_shard():
    theta = init_params(SHAPES, 0)
    hp = hyper(batch_size=2, momentum_coeff=0.5)
    with pytest.raises(ValueError):
        local_update(theta, np.zeros((0, 4, 4)), None, hp, 5)
    with pytest.raises(ValueError):
        local_update(theta, np.zeros((4, 16)), None, hp, 5)
