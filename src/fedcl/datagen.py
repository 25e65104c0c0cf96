"""Synthetic grayscale shape images with per-node acquisition knobs, the
scenario partitioner, and the held-out labeled evaluation split.

Six shape families are rendered on a small square canvas. Four of them
(bars, blobs, rings) form the unlabeled pre-training pool; the remaining
two (crosses, checkers) are reserved for downstream evaluation and never
appear in any node's shard. Per-node intensity offset, noise level, and
background texture frequency emulate scanner differences between sites.
"""

from __future__ import annotations

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

_TEXTURE_AMP = 0.04
_EVAL_OFFSET = 0.08  # the evaluation split's site-neutral intensity offset
_EVAL_TEXTURE_FREQ = 1.5  # and background texture frequency


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
    eval_noise: float = 0.15

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


_BLOCK_PIXELS = 1 << 14  # composed at once; bounds the scratch memory


def _shape_params(cls: int, rng: np.random.Generator, m: int) -> tuple[np.ndarray, ...]:
    """The shape parameters of ``m`` images of class ``cls``, in the order
    commented, each one vectorized draw over all ``m`` images."""
    integers, uniform = rng.integers, rng.uniform
    if cls in (0, 1):  # bars: period, phase, thickness
        period = integers(3, 6, m)
        return period, integers(0, period), integers(1, 3, m)
    if cls == 2:  # blob: centre shifts dy and dx, radii ry and rx
        return uniform(-2, 2, m), uniform(-2, 2, m), uniform(2.5, 4.5, m), uniform(2.5, 4.5, m)
    if cls == 3:  # ring: dy, dx, outer radius, width
        return uniform(-1, 1, m), uniform(-1, 1, m), uniform(4.5, 6.5, m), uniform(1.5, 2.5, m)
    if cls == 4:  # cross: dy, dx, half width, arm length
        return integers(-2, 3, m), integers(-2, 3, m), integers(1, 3, m), integers(5, 8, m)
    if cls == 5:  # checkerboard: cell, row phase, column phase
        cell = integers(2, 5, m)
        return cell, integers(0, cell), integers(0, cell)
    raise ConfigError(f"unknown class id {cls}")


def _shape_masks(cls: int, size: int, params) -> np.ndarray:
    """Masks of ``m`` images of class ``cls`` from their ``_shape_params``,
    broadcastable to ``(m, size, size)``."""
    r = np.arange(size)
    rows, cols = r[None, :, None], r[None, None, :]
    if cls in (0, 1):  # horizontal or vertical bars
        period, phase, thickness = (p[:, None] for p in params)
        on = (r + phase) % period < thickness
        return on[:, :, None] if cls == 0 else on[:, None, :]
    if cls in (2, 3):
        dy, dx, a, b = (p[:, None, None] for p in params)
        cy = (size - 1) / 2.0 + dy
        cx = (size - 1) / 2.0 + dx
        if cls == 2:  # filled blob, radii a and b
            return ((rows - cy) / a) ** 2 + ((cols - cx) / b) ** 2 <= 1.0
        dist = np.sqrt((rows - cy) ** 2 + (cols - cx) ** 2)  # ring, r_out a, width b
        return (dist <= a) & (dist >= a - b)
    if cls == 4:  # cross
        dy, dx, half, arm = (p[:, None] for p in params)
        near_row = np.abs(r - (size // 2 + dy))
        near_col = np.abs(r - (size // 2 + dx))
        return (((near_row <= half)[:, :, None] & (near_col <= arm)[:, None, :])
                | ((near_row <= arm)[:, :, None] & (near_col <= half)[:, None, :]))
    cell, pr, pc = (p[:, None] for p in params)  # checkerboard
    return ((((r + pr) // cell)[:, :, None] + ((r + pc) // cell)[:, None, :]) % 2) == 0


def _render(rng: np.random.Generator, runs, size: int, offset: float, noise_sigma: float,
            texture_freq: float) -> tuple[np.ndarray, np.ndarray]:
    """Labels and ``(n, size, size)`` pixels of the images in ``runs``,
    (palette, count) pairs. Each draw is one vectorized ``rng`` call, in this
    order: each run's classes (none from a one-class palette), each class's
    ``_shape_params`` in ascending id, every amplitude, every texture phase,
    and the standard normals, straight into ``pixels``. An image is ``clip(amp
    * shape + offset + texture + noise_sigma * normal, 0, 1)`` summed left to
    right, composed in place block by block: adding ``((amp * shape + offset)
    + texture)`` to the scaled normals is bit-equal, as addition commutes."""
    labels = np.concatenate([np.asarray(palette, dtype=np.int64)[
        rng.integers(len(palette), size=count)] for palette, count in runs])
    members = {cls: np.flatnonzero(labels == cls) for cls in np.unique(labels).tolist()}
    params = {cls: _shape_params(cls, rng, where.size) for cls, where in members.items()}
    n = len(labels)
    amp = rng.uniform(0.55, 0.85, n)
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    pixels = rng.standard_normal(out=np.empty((n, size, size)))
    lifted = amp + offset  # amp * 1.0 + offset; off the shape it is 0.0 + offset
    r = np.arange(size)
    # the texture ramp 2π·f·(r + c)/size takes only 2·size - 1 values: each
    # image's sine is taken on those and gathered by r + c
    diagonals = 2.0 * np.pi * texture_freq * np.arange(2 * size - 1) / size
    diagonal_of = np.add.outer(r, r)
    step = max(1, _BLOCK_PIXELS // (size * size))
    for start in range(0, n, step):
        block = slice(start, start + step)
        noise = pixels[block]
        noise *= noise_sigma
        shape = np.zeros(noise.shape, dtype=bool)
        for cls, where in members.items():
            lo, hi = np.searchsorted(where, (start, start + step))
            shape[where[lo:hi] - start] = _shape_masks(cls, size, [p[lo:hi] for p in params[cls]])
        wave = np.add(diagonals, phase[block, None])
        np.sin(wave, out=wave)
        wave *= _TEXTURE_AMP
        image = np.where(shape, lifted[block, None, None], 0.0 + offset)
        image += wave[:, diagonal_of]
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
                             _EVAL_OFFSET, spec.eval_noise, _EVAL_TEXTURE_FREQ)
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
    """Read an ``export_dataset`` file and its sidecar. A malformed header or
    body, a non-finite pixel, or a sidecar that is not a JSON list of one
    int64 label (-1 or more) per image raises ``ShapeError`` naming the file."""
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
    pixels = np.frombuffer(raw[24:], dtype="<f8").reshape(count, h, w).copy()
    if not np.isfinite(pixels).all():
        raise ShapeError(f"{path}: pixels hold a NaN or infinite value")
    sidecar = Path(str(path) + ".labels")
    try:
        labels = json.loads(sidecar.read_bytes())
    except (ValueError, RecursionError) as exc:
        raise ShapeError(f"{sidecar}: not JSON ({exc})") from exc
    if not (isinstance(labels, list)
            and all(type(v) is int and -1 <= v < 2 ** 63 for v in labels)):
        raise ShapeError(f"{sidecar}: not a JSON list of int64 labels, each -1 or more")
    if len(labels) != count:
        raise ShapeError(f"{sidecar}: holds {len(labels)} labels, {path} holds {count} images")
    return Images(pixels, labels)
