"""Synthetic toy dataset: class-colored shapes on a noisy gray background.

Each class is a (shape, color) pair drawn at a random position, so classes
are not pixel-wise linearly trivial, yet a per-class mean template still
separates them perfectly at zero noise. Generation is fully determined by the
spec's seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import ConfigError

CELL = 9  # shape masks live on a CELL x CELL stamp

# tetrahedral around the gray background: pairwise correlations of
# (color - background) are strictly negative, so template matching cannot
# prefer a wrong class
_COLORS = np.array(
    [
        [1.0, 1.0, 1.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ]
)


def _shape_masks() -> list[np.ndarray]:
    yy, xx = np.mgrid[0:CELL, 0:CELL]
    dy, dx = yy - CELL // 2, xx - CELL // 2
    square = (np.abs(dy) <= 3) & (np.abs(dx) <= 3)
    circle = dy * dy + dx * dx <= 3.8**2
    plus = (np.abs(dy) <= 1) | (np.abs(dx) <= 1)
    diamond = np.abs(dy) + np.abs(dx) <= 4
    return [square, circle, plus, diamond]


_MASKS = _shape_masks()
BACKGROUND = 0.5


@dataclass(frozen=True)
class ToyDatasetSpec:
    n_classes: int = 4
    samples_per_class: int = 100
    image_size: int = 32
    noise_std: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.samples_per_class < 1:
            raise ConfigError("samples_per_class must be positive")
        if not 2 <= self.n_classes <= len(_MASKS) * len(_COLORS):
            raise ConfigError(f"n_classes must lie in [2, {len(_MASKS) * len(_COLORS)}]")
        if self.image_size < CELL:
            raise ConfigError(f"image_size must be at least {CELL}")
        if not 0 <= self.noise_std < math.inf:
            raise ConfigError(f"noise_std must be finite and nonnegative, got {self.noise_std}")


@dataclass(frozen=True)
class ToyDataset:
    spec: ToyDatasetSpec
    train_images: np.ndarray  # (n, 3, H, W) float32
    train_labels: np.ndarray  # (n,) int64
    val_images: np.ndarray
    val_labels: np.ndarray

    @property
    def n_train(self) -> int:
        return self.train_labels.shape[0]

    @property
    def n_val(self) -> int:
        return self.val_labels.shape[0]


def class_pattern(label: int) -> tuple[np.ndarray, np.ndarray]:
    """(mask, color) stamp for a class; classes cycle shapes first, then colors."""
    mask = _MASKS[label % len(_MASKS)]
    color = _COLORS[(label + label // len(_MASKS)) % len(_COLORS)]
    return mask, color


def render_sample(label: int, image_size: int, noise_std: float, rng: np.random.Generator) -> np.ndarray:
    """One (3,H,W) image: noisy gray background, solid class stamp at a random spot.

    Background noise is heavy-tailed: gaussian of scale ``noise_std`` plus a
    ``noise_std/10`` fraction of impulse pixels drawn uniformly over the color
    cube, so raising the noise level injects genuine isolated outliers.
    """
    img = np.full((3, image_size, image_size), BACKGROUND, dtype=np.float64)
    if noise_std > 0:
        img += rng.normal(0.0, noise_std, img.shape)
        impulses = rng.random((image_size, image_size)) < noise_std / 10.0
        img[:, impulses] = rng.uniform(0.0, 1.0, (3, int(impulses.sum())))
    mask, color = class_pattern(label)
    top = int(rng.integers(0, image_size - CELL + 1))
    left = int(rng.integers(0, image_size - CELL + 1))
    region = img[:, top : top + CELL, left : left + CELL]
    region[:, mask] = color[:, None]
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def make_toy_dataset(spec: ToyDatasetSpec) -> ToyDataset:
    """Labeled tensors with a stratified, seed-stable 80/20 train/val split."""
    rng = np.random.default_rng(spec.seed)
    n_train_per_class = max(1, round(0.8 * spec.samples_per_class))
    train_x, train_y, val_x, val_y = [], [], [], []
    for label in range(spec.n_classes):
        for i in range(spec.samples_per_class):
            img = render_sample(label, spec.image_size, spec.noise_std, rng)
            if i < n_train_per_class:
                train_x.append(img)
                train_y.append(label)
            else:
                val_x.append(img)
                val_y.append(label)
    if not val_x:
        raise ConfigError("samples_per_class too small for a validation split")
    order = np.random.default_rng(spec.seed + 1).permutation(len(train_x))
    train_images = np.stack(train_x)[order]
    train_labels = np.asarray(train_y, dtype=np.int64)[order]
    return ToyDataset(
        spec=spec,
        train_images=train_images,
        train_labels=train_labels,
        val_images=np.stack(val_x),
        val_labels=np.asarray(val_y, dtype=np.int64),
    )
