import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcl.metadata import (COV_JITTER, NodeMetadata, boxcox, compute_metadata,
                            inv_boxcox, sample_gaussian, sample_synthetic,
                            synthetic_quota)
from fedcl.seeding import rng_for


# -- power transform ----------------------------------------------------------

def test_boxcox_known_values():
    assert boxcox(4.0, 0.5) == pytest.approx(2.0, abs=1e-15)  # 2*(sqrt(4)-1)
    assert boxcox(1.0, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert boxcox(1.0, 2.0) == pytest.approx(0.0, abs=1e-15)
    assert np.array_equal(boxcox(np.array([[4.0, 0.0]]), 0.5), [[2.0, -2.0]])


def test_boxcox_domain_errors():
    with pytest.raises(ValueError, match="non-negative inputs"):
        boxcox(-0.001, 0.5)
    # lam <= 0 cannot take a ReLU feature's exact zero: refused for any input
    for lam in (0.0, -1.0):
        with pytest.raises(ValueError, match="needs lam > 0"):
            boxcox(np.array([1.0, 2.0]), lam)


def test_inv_boxcox_known_values():
    assert inv_boxcox(2.0, 0.5) == pytest.approx(4.0, abs=1e-12)
    assert inv_boxcox(1.0, 2.0) == pytest.approx(np.sqrt(3.0), rel=1e-15)
    # linear term clamped at zero: everything below -1/lam maps to 0
    assert inv_boxcox(-3.0, 0.5) == 0.0
    assert inv_boxcox(-2.0, 0.5) == 0.0


def test_roundtrip_on_grid():
    x = np.linspace(0.0, 10.0, 500)
    back = inv_boxcox(boxcox(x, 0.5), 0.5)
    assert np.max(np.abs(back - x)) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-6, max_value=50.0),
       st.sampled_from([0.5, 1.0, 2.0]))
def test_roundtrip_property(x, lam):
    # absolute tolerance: the forward transform flattens tiny x (cancellation
    # against the -1 term), so relative recovery there is not a float given
    assert inv_boxcox(boxcox(x, lam), lam) == pytest.approx(x, abs=1e-9, rel=1e-9)


# -- metadata extraction --------------------------------------------------------

def test_compute_metadata_hand_oracle():
    """lam=1 makes the transform x - 1, so the statistics are just a shift:
    mean and unbiased covariance, plus ``COV_JITTER`` on the diagonal,
    computed by hand for three 2-d rows."""
    rows = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    meta = compute_metadata(rows, lam=1.0)
    assert np.allclose(meta.mu, [-1.0 / 3.0, -1.0 / 3.0], atol=1e-15)
    expected = np.array([[1.0 / 3.0, -1.0 / 6.0], [-1.0 / 6.0, 1.0 / 3.0]])
    expected += COV_JITTER * np.eye(2)
    assert np.allclose(meta.sigma, expected, atol=1e-15)


def test_compute_metadata_jitter_on_diagonal():
    """The sample covariance plus ``COV_JITTER`` on the diagonal alone."""
    rows = rng_for(0, "feats").random((20, 4))
    bare = np.cov(boxcox(rows, 0.5), rowvar=False)
    sigma = compute_metadata(rows, 0.5).sigma
    assert np.allclose(sigma - bare, COV_JITTER * np.eye(4), atol=1e-20)


def test_compute_metadata_tags_carried():
    rows = rng_for(0, "feats").random((5, 3))
    meta = compute_metadata(rows, 0.5, node_id=2, round_index=7)
    assert (meta.node_id, meta.round_index) == (2, 7)


def test_compute_metadata_needs_two_rows():
    with pytest.raises(ValueError):
        compute_metadata(np.ones((1, 3)), 0.5)
    with pytest.raises(ValueError):
        compute_metadata(np.ones(3), 0.5)


# -- sampling -----------------------------------------------------------------

def test_sample_gaussian_moments():
    mu = np.array([1.0, -2.0])
    ell = np.array([[1.0, 0.0], [0.5, 0.8]])
    meta = NodeMetadata(mu, ell @ ell.T)
    draws = sample_gaussian(meta, 8000, rng_for(12, "mc"))
    assert draws.shape == (8000, 2)
    assert np.max(np.abs(draws.mean(axis=0) - mu)) < 0.05
    assert np.max(np.abs(np.cov(draws.T) - ell @ ell.T)) < 0.1


def test_sample_gaussian_degenerate_covariance():
    # all-zero covariance cannot be Cholesky-factored; every draw is mu
    meta = NodeMetadata(np.array([2.0, 3.0]), np.zeros((2, 2)))
    draws = sample_gaussian(meta, 5, rng_for(0, "mc"))
    assert np.allclose(draws, [2.0, 3.0], atol=1e-12)


def test_sample_gaussian_count_validation():
    meta = NodeMetadata(np.zeros(2), np.eye(2))
    assert sample_gaussian(meta, 0, rng_for(0, "mc")).shape == (0, 2)
    with pytest.raises(ValueError):
        sample_gaussian(meta, -1, rng_for(0, "mc"))


def test_sample_synthetic_rows_unit_or_zero():
    rows = np.abs(rng_for(3, "feats").random((30, 5))) + 0.05
    meta = compute_metadata(rows, 0.5)
    synth = sample_synthetic(meta, 50, rng_for(4, "synth"), 0.5)
    norms = np.linalg.norm(synth, axis=1)
    assert synth.shape == (50, 5)
    assert np.all((np.abs(norms - 1.0) < 1e-12) | (norms == 0.0))


def test_sample_synthetic_deterministic_per_stream():
    meta = NodeMetadata(np.full(3, 0.2), np.eye(3) * 0.01)
    a = sample_synthetic(meta, 4, rng_for(9, "synth"), 0.5)
    b = sample_synthetic(meta, 4, rng_for(9, "synth"), 0.5)
    assert np.array_equal(a, b)


# -- quota --------------------------------------------------------------------

def test_synthetic_quota_table():
    assert synthetic_quota(1024, 0.05, 5) == 12   # floor(51.2 / 4) per peer
    assert synthetic_quota(1024, 0.05, 2) == 51
    assert synthetic_quota(256, 0.05, 3) == 6
    assert synthetic_quota(1024, 0.05, 1) == 0
    assert synthetic_quota(1024, 0.0, 7) == 0


def test_synthetic_quota_validation():
    with pytest.raises(ValueError):
        synthetic_quota(1024, -0.1, 3)
    with pytest.raises(ValueError):
        synthetic_quota(-1, 0.05, 3)
    with pytest.raises(ValueError):
        synthetic_quota(1024, 0.05, 0)
