import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcl import datagen
from fedcl.datagen import (DISEASE_CLASSES, EVAL_CLASSES, HEALTHY_CLASS,
                           PRETRAIN_CLASSES, Images, ScenarioSpec,
                           export_dataset, generate_node_dataset,
                           load_dataset, make_eval_split, node_knobs)
from fedcl.errors import ConfigError, ShapeError
from fedcl.seeding import rng_for


K = 3  # nodes in every scenario below


def spec(**kw):
    defaults = dict(scenario="equal", base_size=12, eval_per_class=9)
    defaults.update(kw)
    return ScenarioSpec(**defaults)


# -- a per-image renderer, the reference for the batched one ------------------

def reference_shape(cls: int, params, size: int) -> np.ndarray:
    """One image's shape canvas, given its ``_shape_params`` row."""
    canvas = np.zeros((size, size))
    yy, xx = np.ogrid[:size, :size]
    if cls in (0, 1):  # horizontal or vertical bars
        period, phase, thickness = params
        on = (np.arange(size) + phase) % period < thickness
        if cls == 0:
            canvas[on, :] = 1.0
        else:
            canvas[:, on] = 1.0
    elif cls == 2:  # filled blob
        dy, dx, ry, rx = params
        cy, cx = (size - 1) / 2.0 + dy, (size - 1) / 2.0 + dx
        canvas[((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0] = 1.0
    elif cls == 3:  # ring
        dy, dx, r_out, width = params
        cy, cx = (size - 1) / 2.0 + dy, (size - 1) / 2.0 + dx
        dist = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
        canvas[(dist <= r_out) & (dist >= r_out - width)] = 1.0
    elif cls == 4:  # cross
        dy, dx, half, arm = params
        cy, cx = size // 2 + dy, size // 2 + dx
        canvas[max(0, cy - half) : cy + half + 1, max(0, cx - arm) : cx + arm + 1] = 1.0
        canvas[max(0, cy - arm) : cy + arm + 1, max(0, cx - half) : cx + half + 1] = 1.0
    elif cls == 5:  # checkerboard
        cell, pr, pc = params
        canvas[(((yy + pr) // cell) + ((xx + pc) // cell)) % 2 == 0] = 1.0
    return canvas


def reference_compose(base, amp, phase, normals, offset, noise_sigma, texture_freq):
    size = base.shape[0]
    rr, cc = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    texture = 0.04 * np.sin(2.0 * np.pi * texture_freq * (rr + cc) / size + phase)
    return np.clip(amp * base + offset + texture + noise_sigma * normals, 0.0, 1.0)


def reference_images(rng, runs, size, knobs):
    """(label, pixels) of each image of ``runs``, (palette, count) pairs,
    composed one at a time from draws replayed in the documented order: each
    run's classes, each class's ``_shape_params`` (ascending id, over its
    images in order), the amplitudes, the texture phases, the normals."""
    labels = [int(palette[i]) for palette, count in runs
              for i in rng.integers(len(palette), size=count)]
    params = {}
    for cls in sorted(set(labels)):
        mine = [i for i, label in enumerate(labels) if label == cls]
        params.update(zip(mine, zip(*datagen._shape_params(cls, rng, len(mine)))))
    n = len(labels)
    amp, phase = rng.uniform(0.55, 0.85, n), rng.uniform(0.0, 2.0 * np.pi, n)
    normals = rng.standard_normal((n, size, size))
    return [(cls, reference_compose(reference_shape(cls, params[i], size), amp[i], phase[i],
                                    normals[i], *knobs))
            for i, cls in enumerate(labels)]


def as_images(pairs, size):
    return Images(np.array([img for _, img in pairs]).reshape(-1, size, size),
                  [label for label, _ in pairs])


def reference_node_dataset(sp, num_nodes, node_id, seed):
    rng = rng_for(seed, "node-data", node_id)
    runs = [(sp.node_classes(num_nodes, node_id), sp.node_sizes(num_nodes)[node_id])]
    return as_images(reference_images(rng, runs, sp.image_size, node_knobs(node_id)),
                     sp.image_size)


def reference_eval_split(sp, seed):
    rng = rng_for(seed, "eval-data")
    knobs = (datagen._EVAL_OFFSET, sp.eval_noise, datagen._EVAL_TEXTURE_FREQ)
    per_class = sp.eval_per_class
    images = reference_images(rng, [((cls,), per_class) for cls in EVAL_CLASSES],
                              sp.image_size, knobs)
    train, test = [], []
    for j in range(len(EVAL_CLASSES)):
        members = images[j * per_class:(j + 1) * per_class]
        order = rng.permutation(per_class)
        cut = (per_class + 1) // 2
        train.extend(members[i] for i in order[:cut])
        test.extend(members[i] for i in order[cut:])
    return as_images(train, sp.image_size), as_images(test, sp.image_size)


def assert_same_images(got, want):
    assert got.labels.tolist() == want.labels.tolist()
    assert got.pixels.shape == want.pixels.shape
    assert got.pixels.tobytes() == want.pixels.tobytes()


@st.composite
def render_jobs(draw):
    palettes = st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True).map(tuple)
    runs = draw(st.lists(st.tuples(palettes, st.integers(0, 6)), min_size=1, max_size=3))
    size = draw(st.integers(8, 33))
    knobs = draw(st.one_of(st.integers(0, 15).map(node_knobs),
                           st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 0.6),
                                     st.floats(0.5, 4.0))))
    return runs, size, knobs, draw(st.integers(0, 2**32))


@settings(max_examples=80, deadline=None)
@given(render_jobs())
def test_batched_render_matches_the_per_image_reference(job):
    """Byte-equal pixels and labels, and the generator left where the
    replayed draws leave it: every draw made, in the documented order."""
    runs, size, knobs, seed = job
    rng, ref_rng = rng_for(seed, "render"), rng_for(seed, "render")
    labels, pixels = datagen._render(rng, runs, size, *knobs)
    want = reference_images(ref_rng, runs, size, knobs)
    assert labels.tolist() == [label for label, _ in want]
    assert pixels.shape == (len(want), size, size)
    assert [p.tobytes() for p in pixels] == [img.tobytes() for _, img in want]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("scenario", ["equal", "size_skew", "label_skew"])
@pytest.mark.parametrize("seed", [0, 13])
def test_shards_and_eval_split_match_the_per_image_reference(scenario, seed):
    """Large enough for several compose blocks of 135 11x11 images in the
    full shards and the evaluation split."""
    sp = spec(scenario=scenario, base_size=300, gamma=20.0, image_size=11, eval_per_class=150)
    for k in range(K):
        assert_same_images(generate_node_dataset(sp, K, k, seed),
                           reference_node_dataset(sp, K, k, seed))
    for got, want in zip(make_eval_split(sp, seed), reference_eval_split(sp, seed)):
        assert_same_images(got, want)


# (low, high) of each shape parameter, both inclusive; a high given as a name
# is the first parameter (period or cell) less one
SHAPE_RANGES = {
    0: [(3, 5), (0, "period"), (1, 2)],
    1: [(3, 5), (0, "period"), (1, 2)],
    2: [(-2.0, 2.0), (-2.0, 2.0), (2.5, 4.5), (2.5, 4.5)],
    3: [(-1.0, 1.0), (-1.0, 1.0), (4.5, 6.5), (1.5, 2.5)],
    4: [(-2, 2), (-2, 2), (1, 2), (5, 7)],
    5: [(2, 4), (0, "cell"), (0, "cell")],
}


@settings(max_examples=60, deadline=None)
@given(cls=st.integers(0, 5), m=st.integers(0, 40), seed=st.integers(0, 2**32),
       bits=st.sampled_from([np.random.PCG64, np.random.MT19937]))
def test_shape_params_stay_in_range(cls, m, seed, bits):
    """Every parameter is one array of ``m`` values in its range, whatever
    the bit generator; a phase lies below its own image's period or cell."""
    params = datagen._shape_params(cls, np.random.Generator(bits(seed)), m)
    assert len(params) == len(SHAPE_RANGES[cls])
    for values, (low, high) in zip(params, SHAPE_RANGES[cls]):
        assert values.shape == (m,)
        if isinstance(low, float):
            assert values.dtype == np.float64
            assert ((low <= values) & (values <= high)).all(), values
        else:
            assert values.dtype == np.int64
            top = params[0] - 1 if isinstance(high, str) else high
            assert ((low <= values) & (values <= top)).all(), values


def test_generation_is_deterministic():
    a = generate_node_dataset(spec(), K, 1, seed=7)
    b = generate_node_dataset(spec(), K, 1, seed=7)
    assert np.array_equal(a.pixels, b.pixels)
    c = generate_node_dataset(spec(), K, 2, seed=7)
    assert not np.array_equal(a.pixels[0], c.pixels[0])


def test_images_shape_and_range():
    shard = generate_node_dataset(spec(), K, 0, seed=0)
    assert len(shard) == 12
    assert shard.pixels.shape == (12, 16, 16) and shard.labels.shape == (12,)
    assert shard.pixels.min() >= 0.0 and shard.pixels.max() <= 1.0
    assert set(shard.labels.tolist()) <= set(PRETRAIN_CLASSES)


def test_size_skew_shrinks_all_but_last_node():
    sizes = spec(scenario="size_skew", base_size=40, gamma=25.0).node_sizes(K)
    assert sizes == (10, 10, 40)
    sizes = spec(scenario="size_skew", base_size=12, gamma=10.0).node_sizes(K)
    assert sizes == (3, 3, 12)  # floor of 3 images per node


def test_label_skew_class_split():
    sk = spec(scenario="label_skew")
    assert sk.node_classes(K, 0) == (HEALTHY_CLASS,)
    assert sk.node_classes(K, 1) == (HEALTHY_CLASS,)
    assert sk.node_classes(K, 2) == DISEASE_CLASSES
    healthy = generate_node_dataset(sk, K, 0, seed=1)
    disease = generate_node_dataset(sk, K, 2, seed=1)
    assert set(healthy.labels.tolist()) == {HEALTHY_CLASS}
    assert set(disease.labels.tolist()) <= set(DISEASE_CLASSES)


def test_equal_scenario_uses_pretrain_palette():
    shard = generate_node_dataset(spec(base_size=60), K, 0, seed=3)
    assert set(shard.labels.tolist()) == set(PRETRAIN_CLASSES)


def test_eval_split_is_stratified_and_held_out():
    train, test = make_eval_split(spec(), seed=5)
    assert len(train) == 10 and len(test) == 8  # (9+1)//2 per class
    for part in (train, test):
        assert set(part.labels.tolist()) <= set(EVAL_CLASSES)
    assert train.labels.tolist().count(4) == 5
    assert test.labels.tolist().count(5) == 4
    assert set(EVAL_CLASSES).isdisjoint(PRETRAIN_CLASSES)
    rows = {row.tobytes() for part in (train, test) for row in part.pixels}
    assert len(rows) == 18


def test_eval_split_deterministic():
    a_train, a_test = make_eval_split(spec(), seed=5)
    b_train, b_test = make_eval_split(spec(), seed=5)
    assert np.array_equal(a_train.pixels, b_train.pixels)
    assert np.array_equal(a_test.pixels, b_test.pixels)


def test_export_load_roundtrip(tmp_path):
    images = generate_node_dataset(spec(), K, 0, seed=2)
    images.labels[3] = -1  # mixed labeled/unlabeled
    path = tmp_path / "shard.bin"
    export_dataset(images, path)
    back = load_dataset(path)
    assert back.pixels.tobytes() == images.pixels.tobytes()
    assert back.pixels.shape == images.pixels.shape
    assert back.labels.tolist() == images.labels.tolist()
    assert json.loads((tmp_path / "shard.bin.labels").read_text())[3] == -1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shard.bin", "shard.bin.labels"]


def test_images_refuse_pixels_not_3d_and_labels_of_wrong_length():
    """Images share one (H, W) by construction, so a file can only hold
    what its (count, H, W) header says."""
    with pytest.raises(ShapeError, match=r"got \(5,\) and \(1,\)"):
        Images(np.zeros(5), [0])
    with pytest.raises(ShapeError, match=r"got \(16, 16\) and \(16,\)"):
        Images(np.zeros((16, 16)), np.zeros(16))
    with pytest.raises(ShapeError, match=r"got \(4, 16, 16\) and \(3,\)"):
        Images(np.zeros((4, 16, 16)), [0, 1, 2])
    with pytest.raises(ShapeError, match=r"got \(4, 16, 16\) and \(4, 1\)"):
        Images(np.zeros((4, 16, 16)), np.zeros((4, 1)))
    with pytest.raises(ShapeError):  # one image is a 2-D array, not a batch
        Images(np.zeros((4, 16, 16)), np.arange(4))[2]


def test_images_select_by_index_array():
    images = Images(np.arange(5 * 4 * 4).reshape(5, 4, 4), [4, 5, -1, 4, 5])
    assert images.pixels.dtype == np.float64 and images.labels.dtype == np.int64
    subset = images[np.array([3, 0])]
    assert len(subset) == 2
    assert subset.labels.tolist() == [4, 4]
    assert np.array_equal(subset.pixels, images.pixels[[3, 0]])
    assert len(images[images.labels == 5]) == 2


def test_export_load_roundtrip_of_no_samples(tmp_path):
    path = tmp_path / "empty.bin"
    export_dataset(Images(np.zeros((0, 16, 16)), []), path)
    back = load_dataset(path)
    assert len(back) == 0 and back.pixels.shape == (0, 16, 16)


def test_load_names_the_file_when_it_is_empty(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    with pytest.raises(ShapeError, match=r"empty\.bin: 0 bytes, shorter than the 24-byte"):
        load_dataset(path)


def test_load_names_the_file_when_the_header_is_cut(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"0123456789")
    with pytest.raises(ShapeError, match=r"short\.bin: 10 bytes, shorter than the 24-byte"):
        load_dataset(path)


@pytest.mark.parametrize("header", [(-1, 4, 4), (2, -4, 4), (2, 4, -4)])
def test_load_names_the_file_when_the_header_is_negative(tmp_path, header):
    path = tmp_path / "negative.bin"
    path.write_bytes(np.array(header, dtype="<i8").tobytes())
    with pytest.raises(ShapeError, match=r"negative\.bin: header .* negative value"):
        load_dataset(path)


def test_load_rejects_truncated_file(tmp_path):
    images = generate_node_dataset(spec(), K, 0, seed=2)
    path = tmp_path / "shard.bin"
    export_dataset(images, path)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(ShapeError, match=r"shard\.bin: body holds 24560 bytes, header "
                                         r"implies 24576"):
        load_dataset(path)


@pytest.mark.parametrize("change", [-1, 1])
def test_load_rejects_sidecar_of_wrong_length(tmp_path, change):
    images = generate_node_dataset(spec(), K, 0, seed=2)
    path = tmp_path / "shard.bin"
    export_dataset(images, path)
    sidecar = tmp_path / "shard.bin.labels"
    labels = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps(labels[:-1] if change < 0 else labels + [0]))
    count = len(images)
    message = rf"shard\.bin\.labels.*{count + change} labels.*{count} images"
    with pytest.raises(ShapeError, match=message):
        load_dataset(path)


def _two_image_file(tmp_path):
    path = tmp_path / "pair.bin"
    export_dataset(Images(np.zeros((2, 4, 4)), [4, -1]), path)
    return path


@pytest.mark.parametrize("text", ["[4.9, -7]", "[true, 1]", "[4, -7]", "[4, 1", '["a", 1]',
                                  "[1e30, 0]", "[NaN, 0]", '{"labels": [4, 1]}',
                                  "[" * 100000 + "]" * 100000],
                         ids=["float", "bool", "below-minus-one", "not-json", "string",
                              "huge-float", "nan", "object", "nested-past-the-recursion-limit"])
def test_load_refuses_sidecar_that_is_not_a_list_of_labels(tmp_path, text):
    path = _two_image_file(tmp_path)
    (tmp_path / "pair.bin.labels").write_text(text)
    with pytest.raises(ShapeError, match=r"pair\.bin\.labels: not "):
        load_dataset(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_refuses_non_finite_pixels(tmp_path, value):
    path = _two_image_file(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[24 + 8 * 5:24 + 8 * 6] = np.array([value], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(ShapeError, match=r"pair\.bin: pixels hold a NaN or infinite value"):
        load_dataset(path)


def _one_byte_damage(raw: bytes):
    """Any single-byte change of ``raw``, or any cut of it."""
    change = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)).map(
        lambda pv: raw[:pv[0]] + bytes([pv[1]]) + raw[pv[0] + 1:])
    return st.one_of(change, st.integers(0, len(raw) - 1).map(lambda n: raw[:n]))


# Pixels at 0 and 1 as the renderer clips them: one byte turns 1.0 into inf.
_SMALL = Images(np.array([0.0, 1.0, 0.25, 0.5] * 6).reshape(3, 2, 4), [4, -1, 5])


@pytest.mark.parametrize("target", ["small.bin", "small.bin.labels"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_dataset_byte_damage_loads_well_formed_or_names_the_file(tmp_path_factory, target,
                                                                 data):
    path = tmp_path_factory.getbasetemp() / "small.bin"
    export_dataset(_SMALL, path)
    damaged = path.with_name(target)
    damaged.write_bytes(data.draw(_one_byte_damage(damaged.read_bytes())))
    try:
        images = load_dataset(path)
    except ShapeError as exc:
        assert str(damaged) in str(exc)
        return
    assert np.isfinite(images.pixels).all()
    assert (images.labels >= -1).all() and len(images.labels) == len(images)


def test_scenario_validation():
    assert spec().validate(K) == spec()
    for kw, nodes, needle in [
        ({"scenario": "mystery"}, K, "data.scenario"),
        ({"scenario": "size_skew", "gamma": 0.0}, K, "data.gamma"),
        ({"scenario": "label_skew"}, 1, "data.scenario"),
        ({"base_size": 2}, K, "data.base_size"),
        ({"image_size": 4}, K, "data.image_size"),
        ({"eval_per_class": 1}, K, "data.eval_per_class"),
        ({"eval_noise": -0.1}, K, "data.eval_noise"),
        ({"eval_noise": float("nan")}, K, "data.eval_noise"),
    ]:
        with pytest.raises(ConfigError, match=needle):
            spec(**kw).validate(nodes)
    with pytest.raises(ConfigError, match="node_id"):
        generate_node_dataset(spec(), K, K, seed=0)


def test_default_knobs_differ_per_node():
    knobs = [node_knobs(k) for k in range(K)]
    assert knobs[0] == (0.0, 0.05, 1.0)
    for column in zip(*knobs):
        assert len(set(column)) == K
