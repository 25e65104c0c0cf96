"""Feature-distribution metadata: the element-wise power transform, per-node
Gaussian statistics, and synthetic negatives sampled from peer statistics.

Only the (mean, covariance) pair ever leaves a node; the samples drawn from
it are generated on the consuming side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn import normalize_rows


@dataclass
class NodeMetadata:
    """Mean and covariance of a node's power-transformed features."""

    mu: np.ndarray
    sigma: np.ndarray
    node_id: int = 0
    round_index: int = 0

    def __post_init__(self) -> None:
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)


def boxcox(x, lam: float) -> np.ndarray:
    """Power transform ``(x**lam - 1) / lam`` of non-negative ``x``, for
    ``lam > 0`` only: ReLU features hold exact zeros, which the log variant
    (lam == 0) cannot take and a negative power sends to infinity."""
    if lam <= 0:
        raise ValueError(f"power transform needs lam > 0, got {lam}")
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("power transform needs non-negative inputs")
    return (np.power(arr, lam) - 1.0) / lam


def inv_boxcox(y, lam: float) -> np.ndarray:
    """Inverse power transform for ``lam > 0``, total on the reals: the
    linear term is clamped at zero so every input maps into the
    non-negative domain."""
    arr = np.asarray(y, dtype=np.float64)
    return np.power(np.maximum(lam * arr + 1.0, 0.0), 1.0 / lam)


def compute_metadata(features, lam: float, jitter: float = 1e-8,
                     node_id: int = 0, round_index: int = 0) -> NodeMetadata:
    """Mean and unbiased covariance of the power-transformed feature rows.

    ``jitter * I`` is added to the covariance so it stays factorizable even
    when the sample covariance is singular. Needs at least two rows.
    """
    rows = np.asarray(features, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError(f"expected (n, d) feature rows, got shape {rows.shape}")
    n = rows.shape[0]
    if n < 2:
        raise ValueError("need at least two feature vectors to estimate a covariance")
    y = boxcox(rows, lam)
    mu = y.mean(axis=0)
    centered = y - mu
    sigma = centered.T @ centered / (n - 1)
    sigma = 0.5 * (sigma + sigma.T)
    if jitter:
        sigma = sigma + jitter * np.eye(sigma.shape[0])
    return NodeMetadata(mu, sigma, node_id, round_index)


def psd_factor(sigma: np.ndarray) -> np.ndarray:
    """A factor ``L`` with ``L @ L.T == sigma``: the Cholesky factor, or an
    eigen factor where ``sigma`` is singular."""
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        # zero or rank-deficient covariance: fall back to an eigen factor
        w, v = np.linalg.eigh(sigma)
        return v * np.sqrt(np.clip(w, 0.0, None))


def sample_gaussian(metadata: NodeMetadata, count: int, rng: np.random.Generator,
                    factor=None) -> np.ndarray:
    """``count`` draws from N(mu, sigma) in transform space, shape (count, d).
    ``factor`` is ``psd_factor(metadata.sigma)``, computed here when None."""
    if count < 0:
        raise ValueError("sample count must be non-negative")
    d = metadata.mu.shape[0]
    normals = rng.standard_normal((count, d))
    if factor is None:
        factor = psd_factor(metadata.sigma)
    return metadata.mu + normals @ factor.T


def sample_synthetic(metadata: NodeMetadata, count: int, rng: np.random.Generator,
                     lam: float, factor=None) -> np.ndarray:
    """Synthetic negative feature rows: Gaussian draws in transform space
    (see ``sample_gaussian``), mapped back through the inverse transform and
    re-normalized onto the unit sphere (all-zero rows stay zero)."""
    y = sample_gaussian(metadata, count, rng, factor)
    return normalize_rows(inv_boxcox(y, lam))


def synthetic_quota(capacity: int, eta: float, num_nodes: int) -> int:
    """Synthetic negatives one node draws per peer: floor(eta * capacity / (K - 1)).

    ``capacity`` is the negative-dictionary size, ``eta`` the interaction
    level, ``num_nodes`` the federation size K. A single node or eta == 0
    yields no synthetics.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be at least 1")
    if eta < 0:
        raise ValueError("eta must be non-negative")
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    if num_nodes == 1:
        return 0
    return int(math.floor(eta * capacity / (num_nodes - 1)))
