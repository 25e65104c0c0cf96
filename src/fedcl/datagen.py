"""Synthetic grayscale shape images with per-node acquisition knobs, the
scenario partitioner, and the held-out labeled evaluation split.

Six shape families are rendered on a small square canvas. Four of them
(bars, blobs, rings) form the unlabeled pre-training pool; the remaining
two (crosses, checkers) are reserved for downstream evaluation and never
appear in any node's shard. Per-node intensity offset, noise level, and
background texture frequency emulate scanner differences between sites.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShapeError
from .seeding import rng_for

PRETRAIN_CLASSES = (0, 1, 2, 3)
EVAL_CLASSES = (4, 5)
HEALTHY_CLASS = 0  # the "no findings" proxy used by the label-skew scenario
DISEASE_CLASSES = (1, 2, 3)
CLASS_NAMES = ("h_bars", "v_bars", "blob", "ring", "cross", "checker")

_TEXTURE_AMP = 0.04


@dataclass
class ImageSample:
    pixels: np.ndarray
    label: int | None = None


def sample_fingerprint(sample: ImageSample) -> str:
    h = hashlib.sha256(np.ascontiguousarray(sample.pixels, dtype=np.float64).tobytes())
    h.update(str(sample.label).encode("utf-8"))
    return h.hexdigest()


@dataclass
class ScenarioSpec:
    """The config's ``data`` section: how images are laid out across nodes,
    plus rendering knobs. Node ``k`` renders with intensity offset
    ``0.08 k``, noise sigma ``0.05 + 0.02 k`` and texture frequency
    ``1 + k``, emulating a different scanner at each site.

    ``scenario`` is one of:
      equal      -- every node holds ``base_size`` images of all four
                    pre-training classes
      size_skew  -- all but the last node shrink to ``gamma`` percent of
                    ``base_size``
      label_skew -- all but the last node hold only the healthy-proxy class;
                    the last node holds only the disease-proxy classes
    """

    scenario: str = "equal"
    base_size: int = 10000
    gamma: float = 10.0
    image_size: int = 16
    eval_per_class: int = 600
    eval_offset: float = 0.08
    eval_noise: float = 0.15
    eval_texture_freq: float = 1.5

    def validate(self, num_nodes: int) -> "ScenarioSpec":
        checks = [
            (self.scenario in ("equal", "size_skew", "label_skew"),
             f"data.scenario: unknown scenario '{self.scenario}'"),
            (self.scenario != "label_skew" or num_nodes >= 2,
             "data.scenario: label_skew needs at least 2 nodes"),
            (self.base_size >= 3, "data.base_size: must be at least 3"),
            (self.scenario != "size_skew" or 0.0 < self.gamma <= 100.0,
             "data.gamma: must lie in (0, 100]"),
            (self.image_size >= 8, "data.image_size: must be at least 8"),
            (self.eval_per_class >= 2, "data.eval_per_class: must be at least 2"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        return self

    def node_sizes(self, num_nodes: int) -> tuple[int, ...]:
        if self.scenario == "size_skew":
            small = max(3, int(round(self.base_size * self.gamma / 100.0)))
            return tuple([small] * (num_nodes - 1) + [self.base_size])
        return tuple([self.base_size] * num_nodes)

    def node_classes(self, num_nodes: int, node_id: int) -> tuple[int, ...]:
        if self.scenario == "label_skew":
            return (HEALTHY_CLASS,) if node_id < num_nodes - 1 else DISEASE_CLASSES
        return PRETRAIN_CLASSES


def node_knobs(node_id: int) -> tuple[float, float, float]:
    """(intensity offset, noise sigma, texture frequency) of node ``node_id``."""
    return 0.08 * node_id, 0.05 + 0.02 * node_id, 1.0 + node_id


def _render_shape(cls: int, rng: np.random.Generator, size: int) -> np.ndarray:
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
    else:
        raise ConfigError(f"unknown class id {cls}")
    return canvas


@functools.lru_cache(maxsize=64)
def _texture_ramp(size: int, texture_freq: float) -> np.ndarray:
    """Read-only ``2*pi*f*(r + c)/size`` over the canvas; each image adds its
    own phase."""
    rr, cc = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    ramp = 2.0 * np.pi * texture_freq * (rr + cc) / size
    ramp.flags.writeable = False
    return ramp


def _compose(base: np.ndarray, rng: np.random.Generator, offset: float,
             noise_sigma: float, texture_freq: float) -> np.ndarray:
    size = base.shape[0]
    amp = rng.uniform(0.55, 0.85)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    texture = _TEXTURE_AMP * np.sin(_texture_ramp(size, texture_freq) + phase)
    img = amp * base + offset + texture + rng.normal(0.0, noise_sigma, base.shape)
    return np.clip(img, 0.0, 1.0)


def generate_node_dataset(spec: ScenarioSpec, num_nodes: int, node_id: int, seed: int,
                          keep_labels: bool = False) -> list[ImageSample]:
    """Render one node's shard. Labels are stripped unless ``keep_labels``
    (they exist only for debugging; pre-training is unlabeled)."""
    if not 0 <= node_id < num_nodes:
        raise ConfigError(f"node_id: {node_id} out of range for {num_nodes} nodes")
    n = spec.node_sizes(num_nodes)[node_id]
    classes = spec.node_classes(num_nodes, node_id)
    offset, sigma, freq = node_knobs(node_id)
    rng = rng_for(seed, "node-data", node_id)
    out = []
    for _ in range(n):
        cls = int(classes[rng.integers(len(classes))])
        base = _render_shape(cls, rng, spec.image_size)
        img = _compose(base, rng, offset, sigma, freq)
        out.append(ImageSample(img, cls if keep_labels else None))
    return out


def make_eval_split(spec: ScenarioSpec, seed: int) -> tuple[list[ImageSample], list[ImageSample]]:
    """Labeled 50/50 stratified train/test split over the two held-out
    classes, rendered with site-neutral knobs. Disjoint from all shards."""
    rng = rng_for(seed, "eval-data")
    by_class: dict[int, list[ImageSample]] = {c: [] for c in EVAL_CLASSES}
    for cls in EVAL_CLASSES:
        for _ in range(spec.eval_per_class):
            base = _render_shape(cls, rng, spec.image_size)
            img = _compose(base, rng, spec.eval_offset, spec.eval_noise, spec.eval_texture_freq)
            by_class[cls].append(ImageSample(img, cls))
    train, test = [], []
    for cls in EVAL_CLASSES:
        members = by_class[cls]
        order = rng.permutation(len(members))
        cut = (len(members) + 1) // 2
        train.extend(members[i] for i in order[:cut])
        test.extend(members[i] for i in order[cut:])
    return train, test


def export_dataset(samples: list[ImageSample], path) -> None:
    """Flat binary image file: int64 little-endian (count, H, W) header,
    float64 little-endian row-major pixels, labels in a JSON sidecar
    (``<path>.labels``, -1 for unlabeled)."""
    path = Path(path)
    count = len(samples)
    h, w = samples[0].pixels.shape if count else (0, 0)
    with open(path, "wb") as fh:
        fh.write(np.array([count, h, w], dtype="<i8").tobytes())
        for s in samples:
            fh.write(np.ascontiguousarray(s.pixels, dtype="<f8").tobytes())
    labels = [-1 if s.label is None else int(s.label) for s in samples]
    Path(str(path) + ".labels").write_text(json.dumps(labels))


def load_dataset(path) -> list[ImageSample]:
    path = Path(path)
    raw = path.read_bytes()
    count, h, w = (int(v) for v in np.frombuffer(raw[:24], dtype="<i8"))
    body = np.frombuffer(raw[24:], dtype="<f8")
    if body.size != count * h * w:
        raise ValueError(f"{path}: body holds {body.size} values, header implies {count * h * w}")
    sidecar = Path(str(path) + ".labels")
    labels = json.loads(sidecar.read_text())
    if len(labels) != count:
        raise ShapeError(f"{sidecar}: holds {len(labels)} labels, {path} holds {count} images")
    images = body.reshape(count, h, w) if count else np.zeros((0, h, w))
    return [
        ImageSample(images[i].copy(), None if labels[i] < 0 else int(labels[i]))
        for i in range(count)
    ]
