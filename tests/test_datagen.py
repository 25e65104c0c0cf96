import json

import numpy as np
import pytest

from fedcl.datagen import (DISEASE_CLASSES, EVAL_CLASSES, HEALTHY_CLASS,
                           PRETRAIN_CLASSES, ImageSample, ScenarioSpec,
                           export_dataset, generate_node_dataset,
                           load_dataset, make_eval_split, node_knobs,
                           sample_fingerprint)
from fedcl.errors import ConfigError, ShapeError


K = 3  # nodes in every scenario below


def spec(**kw):
    defaults = dict(scenario="equal", base_size=12, eval_per_class=9)
    defaults.update(kw)
    return ScenarioSpec(**defaults)


def test_generation_is_deterministic():
    a = generate_node_dataset(spec(), K, 1, seed=7)
    b = generate_node_dataset(spec(), K, 1, seed=7)
    assert all(np.array_equal(x.pixels, y.pixels) for x, y in zip(a, b))
    c = generate_node_dataset(spec(), K, 2, seed=7)
    assert not np.array_equal(a[0].pixels, c[0].pixels)


def test_images_shape_and_range():
    shard = generate_node_dataset(spec(), K, 0, seed=0)
    assert len(shard) == 12
    for s in shard:
        assert s.pixels.shape == (16, 16)
        assert s.pixels.min() >= 0.0 and s.pixels.max() <= 1.0
        assert s.label is None


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
    healthy = generate_node_dataset(sk, K, 0, seed=1, keep_labels=True)
    disease = generate_node_dataset(sk, K, 2, seed=1, keep_labels=True)
    assert {s.label for s in healthy} == {HEALTHY_CLASS}
    assert {s.label for s in disease} <= set(DISEASE_CLASSES)


def test_equal_scenario_uses_pretrain_palette():
    shard = generate_node_dataset(spec(base_size=60), K, 0, seed=3, keep_labels=True)
    assert {s.label for s in shard} == set(PRETRAIN_CLASSES)


def test_eval_split_is_stratified_and_held_out():
    train, test = make_eval_split(spec(), seed=5)
    assert len(train) == 10 and len(test) == 8  # (9+1)//2 per class
    for part in (train, test):
        labels = [s.label for s in part]
        assert set(labels) <= set(EVAL_CLASSES)
    assert [s.label for s in train].count(4) == 5
    assert [s.label for s in test].count(5) == 4
    assert set(EVAL_CLASSES).isdisjoint(PRETRAIN_CLASSES)
    fingerprints = {sample_fingerprint(s) for s in train + test}
    assert len(fingerprints) == 18


def test_eval_split_deterministic():
    a_train, a_test = make_eval_split(spec(), seed=5)
    b_train, b_test = make_eval_split(spec(), seed=5)
    assert all(np.array_equal(x.pixels, y.pixels) for x, y in zip(a_train, b_train))
    assert all(np.array_equal(x.pixels, y.pixels) for x, y in zip(a_test, b_test))


def test_export_load_roundtrip(tmp_path):
    samples = generate_node_dataset(spec(), K, 0, seed=2, keep_labels=True)
    samples[3].label = None  # mixed labeled/unlabeled
    path = tmp_path / "shard.bin"
    export_dataset(samples, path)
    back = load_dataset(path)
    assert len(back) == len(samples)
    for orig, loaded in zip(samples, back):
        assert np.array_equal(orig.pixels, loaded.pixels)
        assert orig.label == loaded.label


def test_load_rejects_truncated_file(tmp_path):
    samples = generate_node_dataset(spec(), K, 0, seed=2)
    path = tmp_path / "shard.bin"
    export_dataset(samples, path)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(ValueError):
        load_dataset(path)


@pytest.mark.parametrize("change", [-1, 1])
def test_load_rejects_sidecar_of_wrong_length(tmp_path, change):
    samples = generate_node_dataset(spec(), K, 0, seed=2, keep_labels=True)
    path = tmp_path / "shard.bin"
    export_dataset(samples, path)
    sidecar = tmp_path / "shard.bin.labels"
    labels = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps(labels[:-1] if change < 0 else labels + [0]))
    count = len(samples)
    message = rf"shard\.bin\.labels.*{count + change} labels.*{count} images"
    with pytest.raises(ShapeError, match=message):
        load_dataset(path)


def test_fingerprint_tracks_content_and_label():
    s = ImageSample(np.zeros((4, 4)), label=1)
    base = sample_fingerprint(s)
    assert sample_fingerprint(ImageSample(np.zeros((4, 4)), label=2)) != base
    bumped = np.zeros((4, 4))
    bumped[0, 0] = 1e-9
    assert sample_fingerprint(ImageSample(bumped, label=1)) != base


def test_scenario_validation():
    assert spec().validate(K) == spec()
    for kw, nodes, needle in [
        ({"scenario": "mystery"}, K, "data.scenario"),
        ({"scenario": "size_skew", "gamma": 0.0}, K, "data.gamma"),
        ({"scenario": "label_skew"}, 1, "data.scenario"),
        ({"base_size": 2}, K, "data.base_size"),
        ({"image_size": 4}, K, "data.image_size"),
        ({"eval_per_class": 1}, K, "data.eval_per_class"),
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
