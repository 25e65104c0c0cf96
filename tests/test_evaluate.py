import numpy as np
import pytest

from fedcl.datagen import ImageSample
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
    out = []
    for label in (0, 1):
        base = np.full((4, 4), 0.1)
        if label == 0:
            base[:, :2] = 0.9
        else:
            base[:, 2:] = 0.9
        for _ in range(n_per_class):
            img = np.clip(base + noise * rng.standard_normal((4, 4)), 0.0, 1.0)
            out.append(ImageSample(img, label))
    return out


def test_probe_separates_clusters():
    train = two_cluster_samples(10, seed=0)
    test = two_cluster_samples(10, seed=1)
    result = linear_probe(encoder(), train, test, ProbeConfig(epochs=30), 0)
    assert result.accuracy == 1.0
    assert result.per_class_accuracy == {0: 1.0, 1: 1.0}
    assert result.missing_in_train == ()


def test_probe_is_input_order_invariant():
    train = two_cluster_samples(8, seed=0)
    test = two_cluster_samples(8, seed=1)
    a = linear_probe(encoder(), train, test, ProbeConfig(epochs=10), 3)
    rng = rng_for(9, "shuffle")
    b = linear_probe(encoder(), [train[i] for i in rng.permutation(len(train))],
                     [test[i] for i in rng.permutation(len(test))],
                     ProbeConfig(epochs=10), 3)
    assert a.accuracy == b.accuracy
    assert a.confusion == b.confusion


def test_probe_leaves_encoder_untouched():
    enc = encoder()
    before = enc.values.copy()
    linear_probe(enc, two_cluster_samples(6, 0), two_cluster_samples(6, 1),
                 ProbeConfig(epochs=5), 0)
    assert np.array_equal(enc.values, before)


def test_probe_reports_class_missing_from_train():
    train = [s for s in two_cluster_samples(6, 0) if s.label == 0]
    test = two_cluster_samples(6, 1)
    result = linear_probe(encoder(), train, test, ProbeConfig(epochs=5), 0)
    assert result.missing_in_train == (1,)
    assert result.per_class_accuracy[1] == 0.0  # nothing to learn it from


def test_probe_confusion_rows_sum_to_test_counts():
    train = two_cluster_samples(6, 0)
    test = two_cluster_samples(7, 1)
    result = linear_probe(encoder(), train, test, ProbeConfig(epochs=5), 0)
    for cls in (0, 1):
        assert sum(result.confusion[cls].values()) == 7


def test_probe_validation():
    with pytest.raises(ValueError):
        linear_probe(encoder(), [], two_cluster_samples(3, 0), ProbeConfig(), 0)


def test_fine_tune_reports_best_and_final():
    train = two_cluster_samples(20, seed=0)
    test = two_cluster_samples(10, seed=1)
    result = fine_tune(encoder(), 0.5, train, test,
                       FineTuneConfig(epochs=30, lr=0.05), 0)
    assert result.train_size == 20  # floor(0.5 * 20) per class, both classes
    assert 1 <= result.best_epoch <= 30
    assert result.best_accuracy >= result.final_accuracy
    assert result.best_accuracy == 1.0


def test_fine_tune_is_input_order_invariant():
    train = two_cluster_samples(12, seed=0)
    test = two_cluster_samples(6, seed=1)
    cfg = FineTuneConfig(epochs=4)
    a = fine_tune(encoder(), 0.5, train, test, cfg, 2)
    rng = rng_for(10, "shuffle")
    b = fine_tune(encoder(), 0.5, [train[i] for i in rng.permutation(len(train))],
                  [test[i] for i in rng.permutation(len(test))], cfg, 2)
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
