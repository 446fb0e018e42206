"""Procedural class-structured image generator.

Each class is defined by a smooth random *template* field; samples are
jittered, rescaled, cluttered and noised copies of their class template.
Difficulty is controlled by four knobs:

* ``noise_sigma`` — additive Gaussian pixel noise;
* ``jitter_px`` — random circular shifts (translation invariance pressure);
* ``clutter`` — how strongly a random *other* class template is mixed in;
* ``superclass_spread`` — for coarse/fine hierarchies (CIFAR-100-like),
  classes are perturbations of shared superclass templates, which squeezes
  inter-class margins.

Templates are low-pass-filtered white noise, so they have natural-image-like
spatial correlation; all pixels land in [0, 1] like a normalised sensor
frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import derive_rng
from repro.util.validation import check_in_range, check_non_negative, check_positive


@dataclass(frozen=True)
class SyntheticSpec:
    """Full description of a synthetic dataset."""

    name: str
    num_classes: int
    image_size: int
    channels: int
    train_size: int
    test_size: int
    noise_sigma: float = 0.08
    jitter_px: int = 2
    clutter: float = 0.15
    smoothness: float = 3.0
    num_superclasses: int | None = None
    superclass_spread: float = 0.35
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("num_classes", self.num_classes)
        check_positive("image_size", self.image_size)
        check_positive("channels", self.channels)
        check_positive("train_size", self.train_size)
        check_positive("test_size", self.test_size)
        check_non_negative("noise_sigma", self.noise_sigma)
        check_non_negative("jitter_px", self.jitter_px)
        check_in_range("clutter", self.clutter, 0.0, 1.0)
        check_positive("smoothness", self.smoothness)
        if self.num_superclasses is not None:
            if not (0 < self.num_superclasses <= self.num_classes):
                raise ValueError(
                    "num_superclasses must be in (0, num_classes], got "
                    f"{self.num_superclasses}"
                )
            check_in_range("superclass_spread", self.superclass_spread, 0.0, 1.0)


def _smooth_field(
    rng: np.random.Generator, size: int, channels: int, smoothness: float
) -> np.ndarray:
    """Low-pass-filtered white noise normalised to zero mean, unit std."""
    # SciPy loads here, not with the package: only dataset generation
    # needs it, and it would add ~20 MB to every serving process.
    from scipy import ndimage

    field = rng.normal(size=(channels, size, size))
    field = ndimage.gaussian_filter(field, sigma=(0, smoothness, smoothness))
    field -= field.mean()
    std = field.std()
    if std > 0:
        field /= std
    return field


def make_class_templates(spec: SyntheticSpec) -> np.ndarray:
    """Per-class template fields, shape (num_classes, C, H, W).

    With ``num_superclasses`` set, fine classes share a superclass template
    plus a scaled private perturbation — mimicking CIFAR-100's coarse/fine
    hierarchy and making fine classes genuinely confusable.
    """
    rng = derive_rng(spec.seed, f"{spec.name}-templates")
    if spec.num_superclasses is None:
        return np.stack(
            [
                _smooth_field(rng, spec.image_size, spec.channels, spec.smoothness)
                for _ in range(spec.num_classes)
            ]
        )
    supers = np.stack(
        [
            _smooth_field(rng, spec.image_size, spec.channels, spec.smoothness)
            for _ in range(spec.num_superclasses)
        ]
    )
    templates = []
    for class_index in range(spec.num_classes):
        parent = supers[class_index % spec.num_superclasses]
        private = _smooth_field(rng, spec.image_size, spec.channels, spec.smoothness)
        blended = (
            (1.0 - spec.superclass_spread) * parent
            + spec.superclass_spread * private
        )
        templates.append(blended / max(blended.std(), 1e-9))
    return np.stack(templates)


def _render_split(
    spec: SyntheticSpec,
    templates: np.ndarray,
    count: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    labels = rng.integers(0, spec.num_classes, size=count)
    images = np.empty(
        (count, spec.channels, spec.image_size, spec.image_size), dtype=np.float64
    )
    other = rng.integers(0, spec.num_classes, size=count)
    amplitudes = rng.uniform(0.8, 1.2, size=count)
    shifts_y = rng.integers(-spec.jitter_px, spec.jitter_px + 1, size=count)
    shifts_x = rng.integers(-spec.jitter_px, spec.jitter_px + 1, size=count)
    for index in range(count):
        base = templates[labels[index]]
        if spec.clutter > 0.0 and other[index] != labels[index]:
            base = (1.0 - spec.clutter) * base + spec.clutter * templates[other[index]]
        sample = amplitudes[index] * np.roll(
            base, (shifts_y[index], shifts_x[index]), axis=(1, 2)
        )
        images[index] = sample
    if spec.noise_sigma > 0.0:
        images += rng.normal(0.0, spec.noise_sigma, size=images.shape)
    # Normalise the whole split into [0, 1] like a sensor frame.
    low = images.min()
    high = images.max()
    span = max(high - low, 1e-9)
    images = (images - low) / span
    return images, labels.astype(np.int64)


def generate_dataset(
    spec: SyntheticSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Generate ``(x_train, y_train, x_test, y_test)`` for ``spec``.

    Train and test splits share templates (same classes) but use
    independent sampling streams, so generalisation is measured across
    jitter/noise/clutter, not across classes.
    """
    templates = make_class_templates(spec)
    train_rng = derive_rng(spec.seed, f"{spec.name}-train")
    test_rng = derive_rng(spec.seed, f"{spec.name}-test")
    x_train, y_train = _render_split(spec, templates, spec.train_size, train_rng)
    x_test, y_test = _render_split(spec, templates, spec.test_size, test_rng)
    return x_train, y_train, x_test, y_test
