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


@dataclass(eq=False)
class Images:
    """float64 ``pixels`` (n, H, W) and int64 ``labels`` (n,), -1 where an
    image is unlabeled. An index array or a slice selects a subset."""

    pixels: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.pixels.ndim != 3 or self.labels.shape != self.pixels.shape[:1]:
            raise ShapeError(f"Images need (n, H, W) pixels and (n,) labels, got "
                             f"{self.pixels.shape} and {self.labels.shape}")

    def __len__(self) -> int:
        return self.pixels.shape[0]

    def __getitem__(self, index) -> "Images":
        return Images(self.pixels[index], self.labels[index])


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
            (self.eval_noise >= 0.0, "data.eval_noise: must be non-negative"),
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


# (low, high) of the uniforms a blob or ring draws for its shape, in draw order
_SHAPE_UNIFORMS = {
    2: ((-2, 2), (-2, 2), (2.5, 4.5), (2.5, 4.5)),  # blob: centre shifts, radii
    3: ((-1, 1), (-1, 1), (4.5, 6.5), (1.5, 2.5)),  # ring: centre shifts, r_out, width
}
# ... and of the amplitude and texture phase every image draws after them
_AMP_PHASE = ((0.55, 0.85), (0.0, 2.0 * np.pi))
_BLOCK_PIXELS = 1 << 14  # composed at once; bounds the scratch memory


def _decode(u: np.ndarray, bounds) -> np.ndarray:
    """``uniform(a, b)`` is ``a + (b - a) * random()``, column by column."""
    lows, highs = np.array(bounds, dtype=float).T
    return lows + (highs - lows) * u


def _draw(rng: np.random.Generator, runs, size: int):
    """Every draw of the images in ``runs``, (palette, count) pairs, in the
    order of rendering them one at a time: the class (none from a one-class
    palette, as ``integers(1)`` draws nothing), the shape's integers, its
    uniforms and the amplitude and phase as one ``random(k)``, then the
    image's standard normals, drawn straight into ``pixels``. Returns labels,
    integer shape parameters ``(n, 4)``, raw uniforms ``(n, 6)`` (a blob or
    ring fills all six, any other class the last two) and ``pixels``."""
    n = sum(count for _, count in runs)
    labels = np.empty(n, dtype=np.int64)
    ints = np.zeros((n, 4), dtype=np.int64)
    unis = np.zeros((n, 6))
    pixels = np.empty((n, size, size))
    integers, random, normals = rng.integers, rng.random, rng.standard_normal
    i = 0
    for palette, count in runs:
        for _ in range(count):
            cls = palette[integers(len(palette))] if len(palette) > 1 else palette[0]
            if cls < 2:  # bars: period, phase, thickness
                period = integers(3, 6)
                ints[i, :3] = period, integers(0, period), integers(1, 3)
            elif cls == 4:  # cross: centre shifts, half width, arm length
                ints[i] = integers(-2, 3), integers(-2, 3), integers(1, 3), integers(5, 8)
            elif cls == 5:  # checkerboard: cell, row and column phase
                cell = integers(2, 5)
                ints[i, :3] = cell, integers(0, cell), integers(0, cell)
            random(out=unis[i] if cls in _SHAPE_UNIFORMS else unis[i, 4:])
            normals(out=pixels[i])
            labels[i] = cls
            i += 1
    return labels, ints, unis, pixels


def _shape_masks(cls: int, size: int, ints: np.ndarray, unis: np.ndarray) -> np.ndarray:
    """Masks of ``m`` images of class ``cls``, broadcastable to ``(m, size, size)``."""
    r = np.arange(size)
    rows, cols = r[None, :, None], r[None, None, :]
    if cls in (0, 1):  # horizontal or vertical bars
        period, phase, thickness = (ints[:, j, None] for j in range(3))
        on = (r + phase) % period < thickness
        return on[:, :, None] if cls == 0 else on[:, None, :]
    if cls in (2, 3):
        dy, dx, a, b = (unis[:, j, None, None] for j in range(4))
        cy = (size - 1) / 2.0 + dy
        cx = (size - 1) / 2.0 + dx
        if cls == 2:  # filled blob, radii a and b
            return ((rows - cy) / a) ** 2 + ((cols - cx) / b) ** 2 <= 1.0
        dist = np.sqrt((rows - cy) ** 2 + (cols - cx) ** 2)  # ring, r_out a, width b
        return (dist <= a) & (dist >= a - b)
    if cls == 4:  # cross
        dy, dx, half, arm = (ints[:, j, None] for j in range(4))
        near_row = np.abs(r - (size // 2 + dy))
        near_col = np.abs(r - (size // 2 + dx))
        return (((near_row <= half)[:, :, None] & (near_col <= arm)[:, None, :])
                | ((near_row <= arm)[:, :, None] & (near_col <= half)[:, None, :]))
    if cls == 5:  # checkerboard
        cell, pr, pc = (ints[:, j, None] for j in range(3))
        return ((((r + pr) // cell)[:, :, None] + ((r + pc) // cell)[:, None, :]) % 2) == 0
    raise ConfigError(f"unknown class id {cls}")


@functools.lru_cache(maxsize=64)
def _texture_ramp(size: int, texture_freq: float) -> np.ndarray:
    """Read-only ``2*pi*f*(r + c)/size`` over the canvas; each image adds its
    own phase."""
    rr, cc = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    ramp = 2.0 * np.pi * texture_freq * (rr + cc) / size
    ramp.flags.writeable = False
    return ramp


def _render(rng: np.random.Generator, runs, size: int, offset: float, noise_sigma: float,
            texture_freq: float) -> tuple[np.ndarray, np.ndarray]:
    """Labels and ``(n, size, size)`` pixels of the images in ``runs``.

    Image by image, the pixels are ``clip(amp * shape + offset + texture +
    normal(0, noise_sigma), 0, 1)``, summed left to right. The normals are
    already in ``pixels``, so the sum ``((amp * shape + offset) + texture)``
    is added to them, which is bit-equal as addition commutes. Blocks of
    images keep the scratch arrays small."""
    labels, ints, unis, pixels = _draw(rng, runs, size)
    classes = sorted({cls for palette, _ in runs for cls in palette})
    for cls, bounds in _SHAPE_UNIFORMS.items():
        mine = labels == cls
        unis[mine, :4] = _decode(unis[mine, :4], bounds)
    amp, phase = _decode(unis[:, 4:], _AMP_PHASE).T
    lifted = amp + offset  # amp * 1.0 + offset; off the shape it is 0.0 + offset
    ramp = _texture_ramp(size, texture_freq)
    step = max(1, _BLOCK_PIXELS // (size * size))
    for start in range(0, len(labels), step):
        block = slice(start, start + step)
        noise = pixels[block]
        # normal(0, s) is 0.0 + s * z. Without the 0.0 a noise value may be
        # -0.0, which adds to ``image`` (never -0.0) as +0.0 does.
        noise *= noise_sigma
        in_block = labels[block]
        shape = np.zeros(noise.shape, dtype=bool)
        for cls in classes:
            mine = np.flatnonzero(in_block == cls)
            if mine.size:
                shape[mine] = _shape_masks(cls, size, ints[block][mine], unis[block][mine])
        texture = np.add(ramp, phase[block, None, None])
        np.sin(texture, out=texture)
        texture *= _TEXTURE_AMP
        image = np.where(shape, lifted[block, None, None], 0.0 + offset)
        image += texture
        noise += image
        np.clip(noise, 0.0, 1.0, out=noise)
    return labels, pixels


def generate_node_dataset(spec: ScenarioSpec, num_nodes: int, node_id: int,
                          seed: int) -> Images:
    """Render one node's shard with its class labels. Pre-training never
    reads the labels; they are kept for export and debugging."""
    if not 0 <= node_id < num_nodes:
        raise ConfigError(f"node_id: {node_id} out of range for {num_nodes} nodes")
    n = spec.node_sizes(num_nodes)[node_id]
    runs = [(spec.node_classes(num_nodes, node_id), n)]
    rng = rng_for(seed, "node-data", node_id)
    labels, pixels = _render(rng, runs, spec.image_size, *node_knobs(node_id))
    return Images(pixels, labels)


def make_eval_split(spec: ScenarioSpec, seed: int) -> tuple[Images, Images]:
    """Labeled 50/50 stratified train/test split over the two held-out
    classes, rendered with site-neutral knobs. Disjoint from all shards."""
    rng = rng_for(seed, "eval-data")
    per_class = spec.eval_per_class
    labels, pixels = _render(rng, [((cls,), per_class) for cls in EVAL_CLASSES], spec.image_size,
                             spec.eval_offset, spec.eval_noise, spec.eval_texture_freq)
    rendered = Images(pixels, labels)
    cut = (per_class + 1) // 2
    orders = [j * per_class + rng.permutation(per_class) for j in range(len(EVAL_CLASSES))]
    return (rendered[np.concatenate([order[:cut] for order in orders])],
            rendered[np.concatenate([order[cut:] for order in orders])])


def export_dataset(images: Images, path) -> None:
    """Flat binary image file: int64 little-endian (count, H, W) header,
    float64 little-endian row-major pixels, labels in a JSON sidecar
    (``<path>.labels``, -1 for unlabeled). Both files are written atomically."""
    from .federation import write_atomic  # federation imports this module
    path = Path(path)
    write_atomic(path, np.array(images.pixels.shape, dtype="<i8").tobytes(),
                 np.ascontiguousarray(images.pixels, dtype="<f8"))
    write_atomic(str(path) + ".labels", json.dumps(images.labels.tolist()))


def load_dataset(path) -> Images:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 24:
        raise ShapeError(f"{path}: {len(raw)} bytes, shorter than the 24-byte "
                         f"(count, H, W) header")
    count, h, w = (int(v) for v in np.frombuffer(raw, dtype="<i8", count=3))
    if min(count, h, w) < 0:
        raise ShapeError(f"{path}: header (count, H, W) = {(count, h, w)} holds a "
                         f"negative value")
    if len(raw) - 24 != 8 * count * h * w:
        raise ShapeError(f"{path}: body holds {len(raw) - 24} bytes, header implies "
                         f"{8 * count * h * w}")
    sidecar = Path(str(path) + ".labels")
    labels = json.loads(sidecar.read_text())
    if len(labels) != count:
        raise ShapeError(f"{sidecar}: holds {len(labels)} labels, {path} holds {count} images")
    pixels = np.frombuffer(raw[24:], dtype="<f8").reshape(count, h, w).copy()
    return Images(pixels, labels)
