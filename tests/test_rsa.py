import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcl.errors import ShapeError
from fedcl.nn import EncoderParams, init_params, mlp_shapes
from fedcl.rsa import (_average_ranks, aggregate, compute_rdm,
                       fedavg_weights, lower_triangle, rsa_score,
                       self_adaptive_weights, spearman)
from fedcl.seeding import rng_for


def counting_ranks(x):
    """Average ranks computed by counting, independent of any sort."""
    x = np.asarray(x, dtype=np.float64)
    return np.array([
        np.sum(x < v) + 0.5 * (np.sum(x == v) + 1.0) for v in x
    ])


def pearson(u, v):
    uc = u - u.mean()
    vc = v - v.mean()
    return float(np.sum(uc * vc) / np.sqrt(np.sum(uc * uc) * np.sum(vc * vc)))


# -- RDM ----------------------------------------------------------------------

def test_rdm_matches_pairwise_loop():
    feats = rng_for(0, "rdm").random((6, 5))
    rdm = compute_rdm(feats)
    for i in range(6):
        for j in range(6):
            want = 0.0 if i == j else 1.0 - pearson(feats[i], feats[j])
            assert rdm[i, j] == pytest.approx(want, abs=1e-12)
    assert np.array_equal(rdm, rdm.T)
    assert np.all(np.diag(rdm) == 0.0)


def test_rdm_constant_row_dissimilarity_one():
    feats = np.array([[1.0, 1.0, 1.0], [0.2, 0.5, 0.9], [0.9, 0.1, 0.4]])
    rdm = compute_rdm(feats)
    assert rdm[0, 1] == 1.0 and rdm[0, 2] == 1.0


def test_rdm_entries_in_range():
    rdm = compute_rdm(rng_for(1, "rdm").random((10, 4)))
    assert rdm.min() >= 0.0 and rdm.max() <= 2.0


def test_rdm_validation():
    with pytest.raises(ValueError):
        compute_rdm(np.ones((2, 4)))
    with pytest.raises(ValueError):
        compute_rdm(np.ones((4, 1)))


def test_lower_triangle_order():
    m = np.array([[0, 9, 9], [3.0, 0, 9], [5.0, 7.0, 0]])
    assert np.array_equal(lower_triangle(m), [3.0, 5.0, 7.0])


# -- rank correlation ---------------------------------------------------------

def test_spearman_closed_form_on_permutations():
    for n in (3, 4, 5):
        for u in itertools.permutations(range(n)):
            v = tuple(range(n))
            d2 = sum((a - b) ** 2 for a, b in zip(u, v))
            want = 1.0 - (6.0 * d2) / (n * (n * n - 1))
            assert spearman(np.array(u, float), np.array(v, float)) == want


def test_spearman_reversal_is_minus_one():
    assert spearman([0.0, 1.0, 2.0], [2.0, 1.0, 0.0]) == -1.0


def test_spearman_ties_match_rank_pearson():
    rng = rng_for(2, "ties")
    for _ in range(50):
        n = int(rng.integers(3, 9))
        u = np.round(rng.random(n), 1)  # heavy ties
        v = np.round(rng.random(n), 1)
        got = spearman(u, v)
        ru, rv = counting_ranks(u), counting_ranks(v)
        if np.all(ru == ru[0]) and np.all(rv == rv[0]):
            assert got == 1.0
        elif np.all(ru == ru[0]) or np.all(rv == rv[0]):
            assert got == 0.0
        else:
            assert got == pytest.approx(pearson(ru, rv), abs=1e-12)


def test_spearman_constant_sides():
    assert spearman([1.0, 1.0, 1.0], [2.0, 2.0, 2.0]) == 1.0
    assert spearman([1.0, 1.0, 1.0], [0.0, 2.0, 1.0]) == 0.0
    assert spearman([0.0, 2.0, 1.0], [5.0, 5.0, 5.0]) == 0.0


def test_spearman_validation():
    with pytest.raises(ValueError):
        spearman([1.0], [2.0])
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])
    # NaN ties with nothing, so its rank would depend on the sort order
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            spearman([0.0, bad, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            spearman([1.0, 2.0, 3.0], [0.0, 1.0, bad])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=8),
       st.data())
def test_spearman_bounded(u, data):
    v = data.draw(st.lists(st.integers(min_value=0, max_value=9),
                           min_size=len(u), max_size=len(u)))
    r = spearman(np.array(u, float), np.array(v, float))
    assert -1.0 <= r <= 1.0


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=12))
def test_average_ranks_match_counting(values):
    x = np.array(values, float)
    ranks, untied = _average_ranks(x)
    assert np.array_equal(ranks, counting_ranks(x))
    assert untied == (len(set(values)) == len(values))


def stable_sort_ranks(x):
    """Average ranks by a stable sort, tie groups in input order."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    ends = np.append(starts[1:], x.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    return ranks


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0]), min_size=2, max_size=400))
def test_average_ranks_equal_a_stable_sort_on_heavy_ties(values):
    """The default sort may leave a tie group (-0.0 and 0.0 among them) in
    any order; the ranks, all ``spearman`` reads of its inputs besides their
    ties, are bit-equal all the same."""
    x = np.array(values)
    ranks, untied = _average_ranks(x)
    assert ranks.tobytes() == stable_sort_ranks(x).tobytes()
    assert untied == (np.unique(x).size == x.size)


# -- scores and weights -------------------------------------------------------

def test_rsa_score_identity_encoder():
    p = init_params(mlp_shapes(16, [6], 4), 0)
    probe = rng_for(3, "probe").random((8, 4, 4))
    assert rsa_score(p, p.copy(), probe) >= 1.0 - 1e-12


def test_rsa_score_needs_probe():
    p = init_params(mlp_shapes(16, [6], 4), 0)
    with pytest.raises(ValueError):
        rsa_score(p, p, np.zeros((2, 4, 4)))


def test_self_adaptive_weight_tables():
    w = self_adaptive_weights([0.0, 0.0, 0.0])
    assert np.array_equal(w, np.full(3, 1.0 / 3.0))
    w = self_adaptive_weights([1.0, 0.0, -1.0])
    assert np.array_equal(w, np.array([0.0, 1.0 / 3.0, 2.0 / 3.0]))
    w = self_adaptive_weights([1.0, 1.0])  # nothing moved: uniform fallback
    assert np.array_equal(w, np.array([0.5, 0.5]))


def test_self_adaptive_weight_validation():
    with pytest.raises(ValueError):
        self_adaptive_weights([])
    with pytest.raises(ValueError):
        self_adaptive_weights([0.5, 1.5])


def test_fedavg_weight_table():
    w = fedavg_weights([1, 1, 2])
    assert w.dtype == np.float64
    assert np.array_equal(w, [0.25, 0.25, 0.5])


def test_fedavg_weight_validation():
    with pytest.raises(ValueError):
        fedavg_weights([1, 0, 2])
    with pytest.raises(ValueError):
        fedavg_weights([1.5, 2.5])
    with pytest.raises(ValueError):
        fedavg_weights([])


def test_aggregate_weighted_sum():
    shapes = mlp_shapes(3, [], 2)
    a = EncoderParams(np.arange(8.0), shapes)
    b = EncoderParams(np.ones(8), shapes)
    out = aggregate([a, b], [0.25, 0.75])
    assert np.array_equal(out.values, 0.25 * np.arange(8.0) + 0.75)


def test_aggregate_validation():
    shapes = mlp_shapes(3, [], 2)
    a = EncoderParams(np.zeros(8), shapes)
    other = EncoderParams(np.zeros(9), mlp_shapes(2, [2], 1))
    with pytest.raises(ShapeError):
        aggregate([a, other], np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        aggregate([a], np.array([0.5, 0.5]))
