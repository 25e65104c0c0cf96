"""Representation-similarity scoring and server-side aggregation weights.

A node's score compares how its updated encoder ranks pairwise feature
dissimilarities on a small probe set against the pre-round encoder; nodes
whose ranking moved more receive more aggregation weight.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .nn import EncoderParams, forward_batch


def compute_rdm(features) -> np.ndarray:
    """Pairwise dissimilarity matrix ``1 - pearson`` over feature rows.

    Symmetric with an exactly zero diagonal, entries in [0, 2]. Any pair
    involving a constant row gets correlation 0 (dissimilarity 1).
    """
    rows = np.asarray(features, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError(f"expected (n, d) feature rows, got shape {rows.shape}")
    n, d = rows.shape
    if n < 3:
        raise ValueError("need at least 3 feature rows")
    if d < 2:
        raise ValueError("need at least 2 feature dimensions")
    centered = rows - rows.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.einsum("ij,ij->i", centered, centered))
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = (centered @ centered.T) / np.outer(norms, norms)
    rho[~np.isfinite(rho)] = 0.0
    np.clip(rho, -1.0, 1.0, out=rho)
    rho = 0.5 * (rho + rho.T)
    rdm = 1.0 - rho
    np.fill_diagonal(rdm, 0.0)
    return rdm


def lower_triangle(matrix) -> np.ndarray:
    """Strictly-lower-triangle entries in fixed row-major order."""
    m = np.asarray(matrix)
    i, j = np.tril_indices(m.shape[0], k=-1)
    return m[i, j]


def _average_ranks(x: np.ndarray) -> tuple[np.ndarray, bool]:
    """1-based ranks, tied entries sharing the mean of their positions, and
    whether ``x`` has no ties at all. Every entry of a tie group gets the
    same mean in any order the sort leaves the group, so an unstable sort
    gives the same ranks for finite ``x``."""
    n = x.size
    order = np.argsort(x)
    xs = x[order]
    ranks = np.empty(n, dtype=np.float64)
    change = xs[1:] != xs[:-1]
    if change.all():
        ranks[order] = np.arange(1.0, n + 1.0)
        return ranks, True
    starts = np.flatnonzero(np.concatenate(([True], change)))
    ends = np.append(starts[1:], n)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    return ranks, False


def spearman(u, v) -> float:
    """Rank correlation with average ranks for ties.

    Without ties this evaluates the closed form 1 - 6*sum(d^2)/(n(n^2-1));
    with ties it is the linear correlation of the rank vectors. A fully tied
    side carries no ordering information: two such sides agree (1.0), one
    such side scores 0.0. NaN or infinite entries are a ``ValueError``.
    """
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise ValueError("inputs must be 1-d vectors of equal length")
    n = a.size
    if n < 2:
        raise ValueError("need at least two entries")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("inputs must be finite")
    ra, untied_a = _average_ranks(a)
    rb, untied_b = _average_ranks(b)
    if untied_a and untied_b:
        d2 = float(np.sum((ra - rb) ** 2))
        return 1.0 - (6.0 * d2) / (n * (n * n - 1))
    ra = ra - ra.mean()
    rb = rb - rb.mean()
    sa = float(np.sqrt(np.sum(ra * ra)))
    sb = float(np.sqrt(np.sum(rb * rb)))
    if sa == 0.0 and sb == 0.0:
        return 1.0
    if sa == 0.0 or sb == 0.0:
        return 0.0
    r = float(np.sum(ra * rb) / (sa * sb))
    return min(1.0, max(-1.0, r))


def rsa_score(theta_prev: EncoderParams, theta_k: EncoderParams, probe) -> float:
    """Rank correlation between the probe images' dissimilarity structures
    under the pre-round and the locally updated encoder (3 images or more)."""
    rdm_prev = compute_rdm(forward_batch(theta_prev, probe))
    rdm_curr = compute_rdm(forward_batch(theta_k, probe))
    return spearman(lower_triangle(rdm_prev), lower_triangle(rdm_curr))


def self_adaptive_weights(scores) -> np.ndarray:
    """Normalized dissimilarity-change weights ``(1 - r_k) / sum(1 - r_j)``.

    Falls back to uniform weights when every score is exactly 1 (no node
    moved, so the gaps carry no information).
    """
    r = np.asarray(scores, dtype=np.float64)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("scores must be a non-empty 1-d vector")
    if np.any(r < -1.0) or np.any(r > 1.0):
        raise ValueError("scores must lie in [-1, 1]")
    gaps = 1.0 - r
    total = float(gaps.sum())
    if total == 0.0:
        return np.full(r.size, 1.0 / r.size)
    return gaps / total


def fedavg_weights(counts) -> np.ndarray:
    """Sample-count-proportional weights ``n_k / sum(n_j)``."""
    n = np.asarray(counts)
    if n.ndim != 1 or n.size == 0:
        raise ValueError("counts must be a non-empty 1-d vector")
    if not np.issubdtype(n.dtype, np.integer) or np.any(n <= 0):
        raise ValueError("sample counts must be positive integers")
    return n.astype(np.float64) / int(n.sum())


def aggregate(thetas, weights) -> EncoderParams:
    """Element-wise weighted sum of parameter vectors, accumulated in list
    order so the result does not depend on execution scheduling."""
    a = np.asarray(weights, dtype=np.float64)
    thetas = list(thetas)
    if not thetas or a.size != len(thetas):
        raise ValueError(f"{len(thetas)} parameter vectors but {a.size} weights")
    first = thetas[0]
    acc = np.zeros_like(first.values)
    for w, theta in zip(a, thetas):
        if theta.shapes != first.shapes:
            raise ShapeError("cannot aggregate parameters with different manifests")
        acc += w * theta.values
    return EncoderParams(acc, first.shapes)
