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


# -- the per-image renderer, kept as the reference for the batched one --------

def reference_shape(cls: int, rng: np.random.Generator, size: int) -> np.ndarray:
    canvas = np.zeros((size, size))
    if cls == 0:  # horizontal bars
        period = int(rng.integers(3, 6))
        phase = int(rng.integers(0, period))
        thickness = int(rng.integers(1, 3))
        canvas[(np.arange(size) + phase) % period < thickness, :] = 1.0
    elif cls == 1:  # vertical bars
        period = int(rng.integers(3, 6))
        phase = int(rng.integers(0, period))
        thickness = int(rng.integers(1, 3))
        canvas[:, (np.arange(size) + phase) % period < thickness] = 1.0
    elif cls == 2:  # filled blob
        cy = (size - 1) / 2.0 + rng.uniform(-2, 2)
        cx = (size - 1) / 2.0 + rng.uniform(-2, 2)
        ry = rng.uniform(2.5, 4.5)
        rx = rng.uniform(2.5, 4.5)
        yy, xx = np.ogrid[:size, :size]
        canvas[((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0] = 1.0
    elif cls == 3:  # ring
        cy = (size - 1) / 2.0 + rng.uniform(-1, 1)
        cx = (size - 1) / 2.0 + rng.uniform(-1, 1)
        r_out = rng.uniform(4.5, 6.5)
        width = rng.uniform(1.5, 2.5)
        yy, xx = np.ogrid[:size, :size]
        dist = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
        canvas[(dist <= r_out) & (dist >= r_out - width)] = 1.0
    elif cls == 4:  # cross
        cy = size // 2 + int(rng.integers(-2, 3))
        cx = size // 2 + int(rng.integers(-2, 3))
        half = int(rng.integers(1, 3))
        arm = int(rng.integers(5, 8))
        canvas[max(0, cy - half) : cy + half + 1, max(0, cx - arm) : cx + arm + 1] = 1.0
        canvas[max(0, cy - arm) : cy + arm + 1, max(0, cx - half) : cx + half + 1] = 1.0
    elif cls == 5:  # checkerboard
        cell = int(rng.integers(2, 5))
        pr = int(rng.integers(0, cell))
        pc = int(rng.integers(0, cell))
        yy, xx = np.ogrid[:size, :size]
        canvas[(((yy + pr) // cell) + ((xx + pc) // cell)) % 2 == 0] = 1.0
    return canvas


def reference_compose(base, rng, offset, noise_sigma, texture_freq):
    size = base.shape[0]
    amp = rng.uniform(0.55, 0.85)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    rr, cc = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    texture = 0.04 * np.sin(2.0 * np.pi * texture_freq * (rr + cc) / size + phase)
    img = amp * base + offset + texture + rng.normal(0.0, noise_sigma, base.shape)
    return np.clip(img, 0.0, 1.0)


def reference_images(rng, palette, count, size, knobs):
    """(label, pixels) of ``count`` images, each drawing its class from
    ``palette`` (a one-class palette draws nothing), its shape, then its
    composition."""
    out = []
    for _ in range(count):
        cls = int(palette[rng.integers(len(palette))])
        out.append((cls, reference_compose(reference_shape(cls, rng, size), rng, *knobs)))
    return out


def as_images(pairs, size):
    return Images(np.array([img for _, img in pairs]).reshape(-1, size, size),
                  [label for label, _ in pairs])


def reference_node_dataset(sp, num_nodes, node_id, seed):
    rng = rng_for(seed, "node-data", node_id)
    return as_images(reference_images(rng, sp.node_classes(num_nodes, node_id),
                                      sp.node_sizes(num_nodes)[node_id], sp.image_size,
                                      node_knobs(node_id)), sp.image_size)


def reference_eval_split(sp, seed):
    rng = rng_for(seed, "eval-data")
    knobs = (sp.eval_offset, sp.eval_noise, sp.eval_texture_freq)
    by_class = [reference_images(rng, (cls,), sp.eval_per_class, sp.image_size, knobs)
                for cls in EVAL_CLASSES]
    train, test = [], []
    for members in by_class:
        order = rng.permutation(len(members))
        cut = (len(members) + 1) // 2
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
    per-image renderer leaves it: every draw made, in the same order."""
    runs, size, knobs, seed = job
    rng, ref_rng = rng_for(seed, "render"), rng_for(seed, "render")
    labels, pixels = datagen._render(rng, runs, size, *knobs)
    want = [s for palette, count in runs
            for s in reference_images(ref_rng, palette, count, size, knobs)]
    assert labels.tolist() == [label for label, _ in want]
    assert pixels.shape == (len(want), size, size)
    assert [p.tobytes() for p in pixels] == [img.tobytes() for _, img in want]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("scenario", ["equal", "size_skew", "label_skew"])
@pytest.mark.parametrize("seed", [0, 13])
def test_shards_and_eval_split_match_the_per_image_reference(scenario, seed):
    sp = spec(scenario=scenario, base_size=40, gamma=20.0, image_size=11)
    for k in range(K):
        assert_same_images(generate_node_dataset(sp, K, k, seed),
                           reference_node_dataset(sp, K, k, seed))
    for got, want in zip(make_eval_split(sp, seed), reference_eval_split(sp, seed)):
        assert_same_images(got, want)


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
