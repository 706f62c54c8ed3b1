import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wallfollow import stat_models as sm
from wallfollow.rng import XoshiroLanes


# ---------------------------------------------------------------------------
# LDA
# ---------------------------------------------------------------------------

def test_lda_hand_computed_two_class():
    # Two classes of three 2-D points each.  Worked with exact fractions:
    # means (1/3, 1/3) and (7/3, 4/3); pooled covariance
    # [[1/3, -1/6], [-1/6, 1/3]] whose inverse is [[4, 2], [2, 4]], so the
    # discriminant coefficients are (2, 2) and (12, 10), with intercepts
    # -2/3 + log(1/2) and -62/3 + log(1/2).
    features = np.array([
        [0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
        [2.0, 1.0], [3.0, 1.0], [2.0, 2.0],
    ])
    labels = np.array([0, 0, 0, 1, 1, 1])
    model = sm.fit_lda(features, labels, n_classes=2)
    assert model.coef[0] == pytest.approx([2.0, 2.0], abs=1e-6)
    assert model.coef[1] == pytest.approx([12.0, 10.0], abs=1e-6)
    assert model.intercept[0] == pytest.approx(-2.0 / 3.0 + math.log(0.5), abs=1e-6)
    assert model.intercept[1] == pytest.approx(-62.0 / 3.0 + math.log(0.5), abs=1e-6)


def test_lda_midpoint_scores_equal_under_symmetry():
    # spherical within-class scatter, means +/- mu, equal priors: the
    # midpoint must score identically for both classes
    mu = np.array([1.0, 0.5])
    offsets = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    features = np.vstack([mu + offsets, -mu + offsets])
    labels = np.array([0] * 4 + [1] * 4)
    model = sm.fit_lda(features, labels, n_classes=2)
    scores = sm.lda_decision_scores(model, np.zeros((1, 2)))
    assert scores[0, 0] == pytest.approx(scores[0, 1], abs=1e-9)
    far = sm.predict_lda(model, np.array([mu * 2.0, -mu * 2.0]))
    assert far.tolist() == [0, 1]


def test_lda_incremental_equals_direct(synth_full):
    model = sm.fit_lda(synth_full.features, synth_full.labels)
    batch = sm.lda_decision_scores(model, synth_full.features[:40])
    for i in range(40):
        row = synth_full.features[i]
        for k in range(4):
            direct = float(row @ model.coef[k] + model.intercept[k])
            assert abs(direct - batch[i, k]) <= 1e-9 * max(1.0, abs(direct))


def test_lda_requires_every_class():
    features = np.ones((8, 3))
    labels = np.array([0, 0, 1, 1, 2, 2, 0, 1])  # class 3 missing
    with pytest.raises(ValueError, match="class 3 absent"):
        sm.fit_lda(features, labels)


def test_lda_requires_two_rows_per_class():
    features = np.arange(14.0).reshape(7, 2)
    labels = np.array([0, 0, 1, 1, 2, 2, 3])
    with pytest.raises(ValueError, match="fewer than 2"):
        sm.fit_lda(features, labels)


# ---------------------------------------------------------------------------
# Gaussian naive Bayes
# ---------------------------------------------------------------------------

def test_gnb_hand_computed_1d():
    # class 0: {-1, -3} -> mean -2, var 1; class 1: {1, 3} -> mean 2, var 1;
    # smoothing 1e-9 * var({-1,-3,1,3}) = 5e-9 added to both variances
    features = np.array([[-1.0], [-3.0], [1.0], [3.0]])
    labels = np.array([0, 0, 1, 1])
    model = sm.fit_gnb(features, labels, n_classes=2)
    assert model.smoothing == pytest.approx(5e-9)
    var = 1.0 + 5e-9
    query = np.array([[0.5]])
    scores = sm.gnb_log_posteriors(model, query)
    for k, mean in ((0, -2.0), (1, 2.0)):
        expected = math.log(0.5) - 0.5 * (
            math.log(2 * math.pi * var) + (0.5 - mean) ** 2 / var
        )
        assert scores[0, k] == pytest.approx(expected, abs=1e-12)
    assert sm.predict_gnb(model, query)[0] == 1


def test_gnb_symmetric_boundary_at_zero():
    features = np.array([[-1.0], [-2.0], [1.0], [2.0]])
    labels = np.array([0, 0, 1, 1])
    model = sm.fit_gnb(features, labels, n_classes=2)
    scores = sm.gnb_log_posteriors(model, np.array([[0.0]]))
    assert scores[0, 0] == pytest.approx(scores[0, 1], abs=1e-12)
    assert sm.predict_gnb(model, np.array([[-0.3], [0.3]])).tolist() == [0, 1]


@pytest.mark.parametrize("fit", [sm.fit_lda, sm.fit_gnb, sm.fit_svm])
def test_fits_reject_a_label_outside_n_classes(fit):
    # a two-class fit must not count rows of class 2 as a third class
    # (GNB's priors) or as negatives (the SVM's one-vs-rest machines)
    features = np.arange(12.0).reshape(6, 2)
    labels = np.array([0, 0, 1, 1, 2, 2])
    with pytest.raises(ValueError, match=r"labels must lie in 0\.\.1"):
        fit(features, labels, n_classes=2)
    fit(features[:4], labels[:4], n_classes=2)


def test_gnb_argmax_invariant_to_constant_shift(synth_full):
    model = sm.fit_gnb(synth_full.features, synth_full.labels)
    scores = sm.gnb_log_posteriors(model, synth_full.features[:60])
    base = scores.argmax(axis=1)
    shifted = (scores + 123.456).argmax(axis=1)
    assert np.array_equal(base, shifted)


def test_gnb_requires_every_class():
    with pytest.raises(ValueError, match="absent"):
        sm.fit_gnb(np.ones((4, 2)), np.array([0, 1, 2, 0]))


# ---------------------------------------------------------------------------
# k-nearest neighbours
# ---------------------------------------------------------------------------

def _knn_oracle(train_x, train_y, query, k):
    """Independent brute force: full sort of (distance, row index) pairs."""
    dists = [(float(((query - row) ** 2).sum()), i) for i, row in enumerate(train_x)]
    dists.sort()
    votes = [0, 0, 0, 0]
    for _, i in dists[:k]:
        votes[train_y[i]] += 1
    return votes.index(max(votes))


def test_knn_query_equal_to_training_row(synth_d4):
    model = sm.fit_knn(synth_d4.features, synth_d4.labels, k=1)
    for i in (0, 5, 17):
        assert sm.predict_knn_batch(model, synth_d4.features[i][None, :])[0] == synth_d4.labels[i]


def test_knn_five_point_toy_matches_oracle():
    train = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [4.0, 4.0], [4.0, 5.0]])
    labels = np.array([0, 0, 1, 2, 2])
    model = sm.fit_knn(train, labels, k=3)
    for query in (np.array([0.2, 0.1]), np.array([4.0, 4.4]), np.array([2.0, 2.0])):
        assert sm.predict_knn_batch(model, query[None, :])[0] == _knn_oracle(train, labels, query, 3)


def test_knn_matches_oracle_on_random_queries():
    rng = XoshiroLanes(404)
    train = np.round(rng.uniform(0, 2, (40, 3)), 3)
    labels = (rng.doubles(40) * 4).astype(np.int64)
    queries = np.round(rng.uniform(0, 2, (50, 3)), 3)
    model = sm.fit_knn(train, labels, k=5)
    predicted = sm.predict_knn_batch(model, queries)
    expected = [_knn_oracle(train, labels, q, 5) for q in queries]
    assert predicted.tolist() == expected


def test_knn_distance_tie_prefers_lower_row_index():
    train = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    labels = np.array([2, 1, 3])
    model = sm.fit_knn(train, labels, k=1)
    # equidistant from rows 0 and 1; row 0 wins
    assert sm.predict_knn_batch(model, np.array([[0.0, 0.0]]))[0] == 2


def test_knn_full_k_predicts_global_majority(synth_d2):
    model = sm.fit_knn(synth_d2.features, synth_d2.labels, k=synth_d2.n)
    majority = int(np.bincount(synth_d2.labels, minlength=4).argmax())
    predicted = sm.predict_knn_batch(model, synth_d2.features[:25])
    assert (predicted == majority).all()


def test_knn_k_bounds():
    with pytest.raises(ValueError):
        sm.fit_knn(np.ones((3, 2)), np.zeros(3, dtype=np.int64), k=4)
    with pytest.raises(ValueError):
        sm.fit_knn(np.ones((3, 2)), np.zeros(3, dtype=np.int64), k=0)


# ---------------------------------------------------------------------------
# SMO / SVM
# ---------------------------------------------------------------------------

def test_smo_two_point_hand_solution():
    # dual of a 2-point problem: alpha1 = alpha2 = 1 / (1 - K12), bias 0
    features = np.array([[0.0, 0.0], [1.0, 0.0]])
    y = np.array([1.0, -1.0])
    gamma = 0.5
    kernel = sm.rbf_kernel_symmetric(features, gamma)
    result = sm.smo_solve(y, kernel, c=100.0, seed=1)
    expected = 1.0 / (1.0 - math.exp(-0.5))
    assert result.converged
    assert result.alpha == pytest.approx([expected, expected], abs=5e-3)
    assert result.bias == pytest.approx(0.0, abs=5e-3)
    decision = (result.alpha * y) @ kernel + result.bias
    assert decision[0] > 0 > decision[1]


def test_smo_label_flip_negates_decision():
    rng = XoshiroLanes(11)
    features = rng.uniform(-1, 1, (30, 4))
    y = np.where(features[:, 0] > 0, 1.0, -1.0)
    kernel = sm.rbf_kernel_symmetric(features, 0.7)
    a = sm.smo_solve(y, kernel, c=2.0, seed=9)
    b = sm.smo_solve(-y, kernel, c=2.0, seed=9)
    assert np.array_equal(a.alpha, b.alpha)
    assert a.bias == -b.bias


def _kkt_violations(alpha, y, kernel, bias, c):
    decision = (alpha * y) @ kernel + bias
    margin = y * decision
    v_zero = np.max(np.where(alpha <= 0, 1.0 - margin, -np.inf))
    v_c = np.max(np.where(alpha >= c, margin - 1.0, -np.inf))
    nb = (alpha > 0) & (alpha < c)
    v_nb = np.max(np.abs(margin[nb] - 1.0)) if nb.any() else -np.inf
    return max(v_zero, v_c, v_nb)


def test_smo_kkt_conditions_on_toy_problem():
    rng = XoshiroLanes(77)
    features = rng.uniform(-1, 1, (120, 5))
    y = np.where(features[:, 0] + 0.5 * features[:, 1] > 0, 1.0, -1.0)
    kernel = sm.rbf_kernel_symmetric(features, sm.scale_gamma(features))
    result = sm.smo_solve(y, kernel, c=1.0, tol=1e-3, seed=5)
    assert result.converged
    assert _kkt_violations(result.alpha, y, kernel, result.bias, 1.0) <= 1e-3
    assert abs((result.alpha * y).sum()) <= 1e-6
    assert result.alpha.min() >= 0.0
    assert result.alpha.max() <= 1.0


def test_smo_zero_alpha_margin_property():
    rng = XoshiroLanes(13)
    features = rng.uniform(-2, 2, (60, 3))
    y = np.where(features[:, 0] > 0.2, 1.0, -1.0)
    kernel = sm.rbf_kernel_symmetric(features, 1.0)
    result = sm.smo_solve(y, kernel, c=5.0, tol=1e-3, seed=2)
    decision = (result.alpha * y) @ kernel + result.bias
    zero = result.alpha <= 0
    assert (y[zero] * decision[zero] >= 1.0 - 1e-3).all()


def test_smo_pass_budget_flags_unconverged():
    rng = XoshiroLanes(20)
    features = rng.uniform(-1, 1, (40, 3))
    y = np.where(rng.doubles(40) > 0.5, 1.0, -1.0)  # noisy labels: needs work
    kernel = sm.rbf_kernel_symmetric(features, 1.0)
    result = sm.smo_solve(y, kernel, c=1.0, max_passes=1, seed=0)
    assert not result.converged
    assert result.passes == 1


def test_smo_requires_both_signs():
    with pytest.raises(ValueError, match="each sign"):
        sm.smo_solve(np.ones(5), np.eye(5), c=1.0)


def test_rbf_kernel_symmetric_unit_diagonal():
    rng = XoshiroLanes(31)
    features = rng.uniform(-3, 3, (25, 6))
    kernel = sm.rbf_kernel_symmetric(features, 0.4)
    assert np.array_equal(kernel, kernel.T)
    assert (np.diag(kernel) == 1.0).all()
    assert (kernel > 0).all() and (kernel <= 1.0).all()


def test_svm_separable_four_class(synth_d4):
    rows = np.arange(160)
    model = sm.fit_svm(synth_d4.features[rows], synth_d4.labels[rows], c=10.0, seed=3)
    predicted = sm.predict_svm(model, synth_d4.features[rows])
    assert (predicted == synth_d4.labels[rows]).mean() > 0.95
    assert all(m.converged for m in model.machines)
    assert all(m.support_vectors.shape[0] >= 1 for m in model.machines)


def test_svm_duplicate_training_point_keeps_its_class():
    # well-separated clusters with a hard-margin-style C
    rng = XoshiroLanes(8)
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0], [6.0, 6.0]])
    features = np.vstack([c + 0.3 * rng.uniform(-1, 1, (8, 2)) for c in centers])
    labels = np.repeat(np.arange(4), 8)
    model = sm.fit_svm(features, labels, c=1000.0, gamma=0.5, seed=1)
    predicted = sm.predict_svm(model, features)
    assert np.array_equal(predicted, labels)


def test_svm_small_gamma_still_separates_linear_toy():
    features = np.array([[0.0, 0.0], [0.0, 1.0], [4.0, 0.0], [4.0, 1.0]])
    labels = np.array([0, 0, 1, 1])
    model = sm.fit_svm(features, labels, c=100.0, gamma=1e-4, seed=0, n_classes=2)
    assert np.array_equal(sm.predict_svm(model, features), labels)


def test_scale_gamma_matches_definition(synth_full):
    gamma = sm.scale_gamma(synth_full.features)
    expected = 1.0 / (24 * synth_full.features.var(axis=0).mean())
    assert gamma == pytest.approx(expected, rel=1e-12)


def test_svm_determinism(synth_d4):
    rows = np.arange(120)
    a = sm.fit_svm(synth_d4.features[rows], synth_d4.labels[rows], seed=4)
    b = sm.fit_svm(synth_d4.features[rows], synth_d4.labels[rows], seed=4)
    queries = synth_d4.features[120:180]
    assert np.array_equal(
        sm.svm_decision_values(a, queries), sm.svm_decision_values(b, queries)
    )


# ---------------------------------------------------------------------------
# Blocked distance kernel against the broadcast reference
# ---------------------------------------------------------------------------

def _reference_sq_dists(a, b):
    """The broadcast formula the blocked kernel must reproduce bit for bit."""
    diff = a[:, None, :] - b[None, :, :]
    return (diff * diff).sum(axis=2)


def _reference_rbf_kernel(a, b, gamma):
    return np.exp(-gamma * _reference_sq_dists(a, b))


def _reference_rbf_kernel_symmetric(x, gamma):
    k = _reference_rbf_kernel(x, x, gamma)
    k = (k + k.T) / 2.0
    np.fill_diagonal(k, 1.0)
    return k


SUM_ORDER_WIDTHS = (1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 24, 127, 128, 129, 130, 257, 300)


@pytest.mark.parametrize("d", SUM_ORDER_WIDTHS)
def test_sq_dists_bitwise_equal_to_broadcast_reference(d):
    rng = XoshiroLanes(1000 + d)
    a = rng.uniform(-3, 3, (7, d))
    b = rng.uniform(-3, 3, (13, d))
    got = sm._sq_dists(a, np.ascontiguousarray(b.T))
    assert np.array_equal(got, _reference_sq_dists(a, b))


@pytest.mark.parametrize("d", (3, 24, 130))
def test_rbf_kernel_bitwise_equal_across_row_blocks(d):
    rng = XoshiroLanes(50 + d)
    b = rng.uniform(-2, 2, (37, d))
    step = sm._block_rows(b.shape[0])
    # one row, a non-multiple of the block rows, and more than one block
    for rows in (1, step - 3, 2 * step + 5):
        a = rng.uniform(-2, 2, (rows, d))
        got = sm.rbf_kernel(a, b, 0.3)
        assert got.shape == (rows, 37)
        assert np.array_equal(got, _reference_rbf_kernel(a, b, 0.3))


@pytest.mark.parametrize("d", (2, 24, 129))
def test_rbf_kernel_symmetric_bitwise_equal_to_rbf_kernel(d):
    rng = XoshiroLanes(90 + d)
    x = rng.uniform(-2, 2, (300, d))
    assert 300 % sm._block_rows(300) and 300 > sm._block_rows(300)
    kernel = sm.rbf_kernel_symmetric(x, 0.05)
    assert np.array_equal(kernel, sm.rbf_kernel(x, x, 0.05))
    assert np.array_equal(kernel, _reference_rbf_kernel_symmetric(x, 0.05))
    assert np.array_equal(kernel, kernel.T)
    assert (np.diag(kernel) == 1.0).all()


def test_fit_svm_bitwise_equal_with_reference_kernel(synth_full, monkeypatch):
    x, y = synth_full.features, synth_full.labels
    queries = x[::3] + 0.01
    blocked = sm.fit_svm(x, y, seed=6)
    blocked_values = sm.svm_decision_values(blocked, queries)
    monkeypatch.setattr(sm, "rbf_kernel", _reference_rbf_kernel)
    monkeypatch.setattr(sm, "rbf_kernel_symmetric", _reference_rbf_kernel_symmetric)
    reference = sm.fit_svm(x, y, seed=6)
    for got, want in zip(blocked.machines, reference.machines):
        assert np.array_equal(got.support_vectors, want.support_vectors)
        assert np.array_equal(got.dual_coef, want.dual_coef)
        assert got.bias == want.bias
        assert got.converged == want.converged
    assert np.array_equal(blocked_values, sm.svm_decision_values(reference, queries))


def test_predict_knn_batch_equal_with_reference_kernel(synth_full, monkeypatch):
    model = sm.fit_knn(synth_full.features[:300], synth_full.labels[:300], k=5)
    queries = synth_full.features[300:]
    blocked = sm.predict_knn_batch(model, queries)
    monkeypatch.setattr(sm, "_sq_dists", lambda a, b_t: _reference_sq_dists(a, b_t.T))
    assert np.array_equal(blocked, sm.predict_knn_batch(model, queries))
