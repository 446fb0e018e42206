"""Dataset presets mirroring the paper's four evaluation datasets.

Difficulty knobs are tuned so the *ordering* of the paper's Table II holds:
MNIST-like is nearly saturated, SVHN-like and CIFAR-10-like sit in the
90s/80s, and CIFAR-100-like (100 fine classes over 20 superclasses) is the
hardest.  Sizes default to laptop-scale; pass ``scale`` to grow them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.synthetic import SyntheticSpec, generate_dataset
from repro.util.validation import check_positive, registry_key


@dataclass(frozen=True)
class Dataset:
    """A realised dataset plus the metadata the harness needs."""

    name: str
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    num_classes: int
    image_size: int
    channels: int
    paper_model: str

    @property
    def input_shape(self) -> tuple[int, int, int]:
        """(C, H, W) of one sample."""
        return (self.channels, self.image_size, self.image_size)


def _realise(spec: SyntheticSpec, paper_model: str) -> Dataset:
    x_train, y_train, x_test, y_test = generate_dataset(spec)
    return Dataset(
        name=spec.name,
        x_train=x_train,
        y_train=y_train,
        x_test=x_test,
        y_test=y_test,
        num_classes=spec.num_classes,
        image_size=spec.image_size,
        channels=spec.channels,
        paper_model=paper_model,
    )


def mnist_like(scale: float = 1.0, seed: int = 0) -> Dataset:
    """28x28 grayscale, 10 well-separated classes (paper: MNIST on LeNet)."""
    check_positive("scale", scale)
    spec = SyntheticSpec(
        name="mnist-like",
        num_classes=10,
        image_size=28,
        channels=1,
        train_size=int(2000 * scale),
        test_size=int(600 * scale),
        noise_sigma=0.05,
        jitter_px=2,
        clutter=0.05,
        smoothness=2.5,
        seed=seed,
    )
    return _realise(spec, paper_model="LeNet")


def svhn_like(scale: float = 1.0, seed: int = 0) -> Dataset:
    """32x32 RGB, 10 classes with moderate clutter (paper: SVHN on ResNet18)."""
    check_positive("scale", scale)
    spec = SyntheticSpec(
        name="svhn-like",
        num_classes=10,
        image_size=32,
        channels=3,
        train_size=int(2000 * scale),
        test_size=int(600 * scale),
        noise_sigma=0.08,
        jitter_px=2,
        clutter=0.14,
        smoothness=3.0,
        seed=seed,
    )
    return _realise(spec, paper_model="ResNet18")


def cifar10_like(scale: float = 1.0, seed: int = 0) -> Dataset:
    """32x32 RGB, 10 textured classes (paper: CIFAR-10 on ResNet18)."""
    check_positive("scale", scale)
    spec = SyntheticSpec(
        name="cifar10-like",
        num_classes=10,
        image_size=32,
        channels=3,
        train_size=int(2000 * scale),
        test_size=int(600 * scale),
        noise_sigma=0.10,
        jitter_px=2,
        clutter=0.22,
        smoothness=3.5,
        seed=seed,
    )
    return _realise(spec, paper_model="ResNet18")


def cifar100_like(scale: float = 1.0, seed: int = 0) -> Dataset:
    """32x32 RGB, 100 fine classes over 20 superclasses (paper: CIFAR-100 on VGG16)."""
    check_positive("scale", scale)
    spec = SyntheticSpec(
        name="cifar100-like",
        num_classes=100,
        image_size=32,
        channels=3,
        train_size=int(4000 * scale),
        test_size=int(1000 * scale),
        noise_sigma=0.06,
        jitter_px=1,
        clutter=0.08,
        smoothness=3.0,
        num_superclasses=20,
        superclass_spread=0.6,
        seed=seed,
    )
    return _realise(spec, paper_model="VGG16")


#: Registry keyed by the paper's dataset names.
DATASET_PRESETS = {
    "mnist": mnist_like,
    "svhn": svhn_like,
    "cifar10": cifar10_like,
    "cifar100": cifar100_like,
}


def load_preset(name: str, scale: float = 1.0, seed: int = 0) -> Dataset:
    """Load a preset by paper dataset name (``mnist``/``svhn``/``cifar10``/``cifar100``)."""
    key = registry_key("dataset", name, DATASET_PRESETS)
    return DATASET_PRESETS[key](scale=scale, seed=seed)
