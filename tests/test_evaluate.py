import hashlib

import numpy as np
import pytest

from fedcl import evaluate, nn
from fedcl.datagen import Images
from fedcl.evaluate import (FineTuneConfig, ProbeConfig, fine_tune,
                            linear_probe)
from fedcl.nn import init_params, mlp_shapes
from fedcl.seeding import rng_for


def encoder(seed=1):
    return init_params(mlp_shapes(16, [6], 4), seed)


def two_cluster_samples(n_per_class, seed, noise=0.03):
    """Left-lit vs right-lit 4x4 patches: the two classes point in clearly
    different input directions, so they stay separable after the encoder's
    feature normalization and a working probe should hit 100%."""
    rng = rng_for(seed, "clusters")
    pixels, labels = [], []
    for label in (0, 1):
        base = np.full((4, 4), 0.1)
        if label == 0:
            base[:, :2] = 0.9
        else:
            base[:, 2:] = 0.9
        for _ in range(n_per_class):
            pixels.append(np.clip(base + noise * rng.standard_normal((4, 4)), 0.0, 1.0))
            labels.append(label)
    return Images(np.array(pixels), labels)


def test_probe_separates_clusters():
    train = two_cluster_samples(10, seed=0)
    test = two_cluster_samples(10, seed=1)
    result = linear_probe(encoder(), train, test, ProbeConfig(epochs=30), 0)
    assert result.accuracy == 1.0
    assert result.per_class_accuracy == {0: 1.0, 1: 1.0}


def test_probe_is_input_order_invariant():
    train = two_cluster_samples(8, seed=0)
    test = two_cluster_samples(8, seed=1)
    a = linear_probe(encoder(), train, test, ProbeConfig(epochs=10), 3)
    rng = rng_for(9, "shuffle")
    b = linear_probe(encoder(), train[rng.permutation(len(train))],
                     test[rng.permutation(len(test))], ProbeConfig(epochs=10), 3)
    assert a.accuracy == b.accuracy
    assert a.per_class_accuracy == b.per_class_accuracy


def test_probe_leaves_encoder_untouched():
    enc = encoder()
    before = enc.values.copy()
    linear_probe(enc, two_cluster_samples(6, 0), two_cluster_samples(6, 1),
                 ProbeConfig(epochs=5), 0)
    assert np.array_equal(enc.values, before)


def test_probe_reports_class_missing_from_train():
    train = two_cluster_samples(6, 0)
    train = train[train.labels == 0]
    test = two_cluster_samples(6, 1)
    result = linear_probe(encoder(), train, test, ProbeConfig(epochs=5), 0)
    assert sorted(result.per_class_accuracy) == [0, 1]
    assert result.per_class_accuracy[1] == 0.0  # nothing to learn it from


def test_probe_per_class_accuracy_counts_each_class_test_images():
    """Each class's accuracy is its right predictions over its 7 test
    images, so the two average to the overall accuracy."""
    train = two_cluster_samples(6, 0)
    test = two_cluster_samples(7, 1)
    for epochs in (0, 1, 5):
        result = linear_probe(encoder(), train, test, ProbeConfig(epochs=epochs), 0)
        hits = {c: acc * 7 for c, acc in result.per_class_accuracy.items()}
        assert sorted(hits) == [0, 1]
        assert all(h == round(h) for h in hits.values()), hits
        assert round(hits[0] + hits[1]) / 14 == result.accuracy


def test_probe_validation():
    with pytest.raises(ValueError):
        linear_probe(encoder(), two_cluster_samples(3, 0)[:0], two_cluster_samples(3, 0),
                     ProbeConfig(), 0)


def unlabeled_at(images, i):
    labels = images.labels.copy()
    labels[i] = -1
    return Images(images.pixels, labels)


@pytest.mark.parametrize("split", ["train", "test"])
def test_probe_and_fine_tune_refuse_unlabeled_images(split):
    """A -1 label marks an unlabeled image; as a class of its own it would
    silently skew the probe and the fine-tune."""
    splits = {"train": two_cluster_samples(6, 0), "test": two_cluster_samples(6, 1)}
    splits[split] = unlabeled_at(splits[split], 4)
    with pytest.raises(ValueError, match=r"probe needs labeled images, got an unlabeled"):
        linear_probe(encoder(), splits["train"], splits["test"], ProbeConfig(epochs=2), 0)
    with pytest.raises(ValueError, match=r"fine-tuning needs labeled images"):
        fine_tune(encoder(), 0.5, splits["train"], splits["test"],
                  FineTuneConfig(epochs=2), 0)


def test_canonical_order_is_the_sha256_of_pixel_bytes_and_label_text():
    """The order the probe and the fine-tune shuffle from; it pins their
    results, so it must not drift with the in-memory format."""
    images = two_cluster_samples(5, seed=4)
    images = Images(images.pixels, [3, 0, 1, 2, 0, 1, 2, 3, 10, 11])
    key = [hashlib.sha256(images.pixels[i].tobytes() + str(images.labels[i]).encode())
           .hexdigest() for i in range(len(images))]
    want = sorted(range(len(images)), key=key.__getitem__)
    reversed_images = images[np.arange(len(images))[::-1]]
    got = reversed_images[evaluate._canonical_order(reversed_images)]
    assert got.labels.tolist() == images.labels[want].tolist()
    assert got.pixels.tobytes() == images.pixels[want].tobytes()


def test_fine_tune_reports_best_and_final():
    train = two_cluster_samples(20, seed=0)
    test = two_cluster_samples(10, seed=1)
    result = fine_tune(encoder(), 0.5, train, test, FineTuneConfig(epochs=30), 0)
    assert result.train_size == 20  # floor(0.5 * 20) per class, both classes
    assert 1 <= result.best_epoch <= 30
    assert result.best_accuracy >= result.final_accuracy
    assert result.best_accuracy == 1.0


def test_fine_tune_is_input_order_invariant(monkeypatch):
    """The same minibatches, in the same order, whatever order the splits
    came in: the chosen subset keeps the canonical order."""
    batches = []
    real = nn.forward_cached

    def recording(params, x):
        batches.append(x.tobytes())
        return real(params, x)

    monkeypatch.setattr(nn, "forward_cached", recording)
    train = two_cluster_samples(12, seed=0)
    test = two_cluster_samples(6, seed=1)
    cfg = FineTuneConfig(epochs=4)
    a = fine_tune(encoder(), 0.5, train, test, cfg, 2)
    first, batches[:] = list(batches), []
    rng = rng_for(10, "shuffle")
    b = fine_tune(encoder(), 0.5, train[rng.permutation(len(train))],
                  test[rng.permutation(len(test))], cfg, 2)
    assert batches == first
    assert (a.final_accuracy, a.best_accuracy, a.best_epoch) == \
        (b.final_accuracy, b.best_accuracy, b.best_epoch)


def test_fine_tune_leaves_encoder_untouched():
    enc = encoder()
    before = enc.values.copy()
    fine_tune(enc, 0.5, two_cluster_samples(8, 0), two_cluster_samples(4, 1),
              FineTuneConfig(epochs=3), 0)
    assert np.array_equal(enc.values, before)


def test_fine_tune_fraction_validation():
    train = two_cluster_samples(10, seed=0)
    test = two_cluster_samples(4, seed=1)
    with pytest.raises(ValueError):
        fine_tune(encoder(), 0.0, train, test, FineTuneConfig(epochs=2), 0)
    with pytest.raises(ValueError):  # floor(0.05 * 10) = 0 samples for a class
        fine_tune(encoder(), 0.05, train, test, FineTuneConfig(epochs=2), 0)


def test_fine_tune_stratified_count():
    train = two_cluster_samples(10, seed=0)  # 10 per class
    test = two_cluster_samples(4, seed=1)
    result = fine_tune(encoder(), 0.3, train, test, FineTuneConfig(epochs=2), 0)
    assert result.train_size == 6  # floor(3) per class
