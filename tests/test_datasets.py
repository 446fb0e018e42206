"""Tests for repro.datasets — synthetic dataset substrate."""

import numpy as np
import pytest

from repro.datasets import (
    DATASET_PRESETS,
    SyntheticSpec,
    cifar100_like,
    generate_dataset,
    load_preset,
    mnist_like,
)
from repro.datasets.synthetic import make_class_templates


def _small_spec(**overrides):
    defaults = dict(
        name="test",
        num_classes=4,
        image_size=12,
        channels=1,
        train_size=64,
        test_size=32,
        seed=0,
    )
    defaults.update(overrides)
    return SyntheticSpec(**defaults)


def test_shapes_and_range():
    spec = _small_spec()
    x_train, y_train, x_test, y_test = generate_dataset(spec)
    assert x_train.shape == (64, 1, 12, 12)
    assert x_test.shape == (32, 1, 12, 12)
    assert y_train.shape == (64,)
    assert x_train.min() >= 0.0 and x_train.max() <= 1.0
    assert set(np.unique(y_train)) <= set(range(4))


def test_deterministic_generation():
    a = generate_dataset(_small_spec())
    b = generate_dataset(_small_spec())
    for left, right in zip(a, b):
        np.testing.assert_array_equal(left, right)


def test_different_seed_different_data():
    a = generate_dataset(_small_spec(seed=0))[0]
    b = generate_dataset(_small_spec(seed=1))[0]
    assert not np.allclose(a, b)


def test_train_test_disjoint_streams():
    x_train, _, x_test, _ = generate_dataset(_small_spec())
    assert not np.allclose(x_train[:32], x_test)


def test_templates_per_class():
    spec = _small_spec()
    templates = make_class_templates(spec)
    assert templates.shape == (4, 1, 12, 12)
    # Templates are distinct between classes.
    assert not np.allclose(templates[0], templates[1])


def test_superclass_structure_squeezes_margins():
    flat = _small_spec(num_classes=8, name="flat")
    coarse = _small_spec(
        num_classes=8, name="coarse", num_superclasses=2, superclass_spread=0.3
    )
    t_flat = make_class_templates(flat)
    t_coarse = make_class_templates(coarse)

    def mean_pairwise_distance(templates):
        distances = []
        for i in range(len(templates)):
            for j in range(i + 1, len(templates)):
                distances.append(np.linalg.norm(templates[i] - templates[j]))
        return np.mean(distances)

    assert mean_pairwise_distance(t_coarse) < mean_pairwise_distance(t_flat)


def test_classes_learnable_by_nearest_template():
    # Sanity: the generated classes must be separable in principle.
    spec = _small_spec(train_size=200, noise_sigma=0.05, clutter=0.0, jitter_px=0)
    templates = make_class_templates(spec)
    x, y, _, _ = generate_dataset(spec)
    centered = x - x.mean(axis=(1, 2, 3), keepdims=True)
    flat_templates = templates.reshape(4, -1)
    flat_x = centered.reshape(len(x), -1)
    scores = flat_x @ flat_templates.T
    predictions = scores.argmax(axis=1)
    assert (predictions == y).mean() > 0.9


def test_presets_exist_and_match_paper_shapes():
    assert set(DATASET_PRESETS) == {"mnist", "svhn", "cifar10", "cifar100"}
    mnist = mnist_like(scale=0.1, seed=0)
    assert mnist.input_shape == (1, 28, 28)
    assert mnist.num_classes == 10
    assert mnist.paper_model == "LeNet"
    cifar100 = cifar100_like(scale=0.05, seed=0)
    assert cifar100.input_shape == (3, 32, 32)
    assert cifar100.num_classes == 100
    assert cifar100.paper_model == "VGG16"


def test_load_preset_lookup():
    dataset = load_preset("SVHN", scale=0.1)
    assert dataset.paper_model == "ResNet18"
    with pytest.raises(ValueError, match="unknown dataset 'imagenet'"):
        load_preset("imagenet")


def test_spec_validation():
    with pytest.raises(ValueError):
        _small_spec(num_superclasses=10)  # more supers than classes
    with pytest.raises(ValueError):
        _small_spec(clutter=2.0)
