import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wallfollow import stat_models as sm
from wallfollow.rng import Xoshiro256StarStar, XoshiroLanes


# ---------------------------------------------------------------------------
# LDA
# ---------------------------------------------------------------------------

def test_lda_hand_computed_two_class():
    # Two classes of three 2-D points each, and the same six points shifted
    # by (+10, 0) as classes 2 and 3.  Worked with exact fractions: means
    # (1/3, 1/3), (7/3, 4/3), (31/3, 1/3) and (37/3, 4/3).  The shift doubles
    # both the scatter and n - K, so the pooled covariance is
    # [[1/3, -1/6], [-1/6, 1/3]] whose inverse is [[4, 2], [2, 4]].  The
    # discriminant coefficients are (2, 2), (12, 10), (42, 22) and (52, 30),
    # with intercepts -2/3, -62/3, -662/3 and -1022/3, each plus log(1/4).
    pair = np.array([
        [0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
        [2.0, 1.0], [3.0, 1.0], [2.0, 2.0],
    ])
    features = np.vstack([pair, pair + [10.0, 0.0]])
    labels = np.repeat(np.arange(4), 3)
    model = sm.fit_lda(features, labels)
    assert model.coef[0] == pytest.approx([2.0, 2.0], abs=1e-6)
    assert model.coef[1] == pytest.approx([12.0, 10.0], abs=1e-6)
    assert model.intercept[0] == pytest.approx(-2.0 / 3.0 + math.log(0.25), abs=1e-6)
    assert model.intercept[1] == pytest.approx(-62.0 / 3.0 + math.log(0.25), abs=1e-6)
    # the ridge of trace(S) / d * 1e-8 moves these larger terms by up to ~1e-6
    assert model.coef[2] == pytest.approx([42.0, 22.0], rel=1e-7)
    assert model.coef[3] == pytest.approx([52.0, 30.0], rel=1e-7)
    assert model.intercept[2] == pytest.approx(-662.0 / 3.0 + math.log(0.25), rel=1e-7)
    assert model.intercept[3] == pytest.approx(-1022.0 / 3.0 + math.log(0.25), rel=1e-7)


def test_lda_midpoint_scores_equal_under_symmetry():
    # spherical within-class scatter, means +/- mu, equal priors: the
    # midpoint must score identically for both classes; classes 2 and 3 are
    # the same pair shifted far away by (+10, 0)
    mu = np.array([1.0, 0.5])
    shift = np.array([10.0, 0.0])
    offsets = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    pair = np.vstack([mu + offsets, -mu + offsets])
    features = np.vstack([pair, pair + shift])
    labels = np.repeat(np.arange(4), 4)
    model = sm.fit_lda(features, labels)
    scores = sm.lda_decision_scores(model, np.zeros((1, 2)))
    assert scores[0, 0] == pytest.approx(scores[0, 1], abs=1e-9)
    assert scores[0, :2].min() > scores[0, 2:].max()
    far = sm.predict_lda(model, np.array([mu * 2.0, -mu * 2.0,
                                          shift + mu * 2.0, shift - mu * 2.0]))
    assert far.tolist() == [0, 1, 2, 3]


def test_lda_incremental_equals_direct(synth_full):
    model = sm.fit_lda(synth_full.features, synth_full.labels)
    batch = sm.lda_decision_scores(model, synth_full.features[:40])
    for i in range(40):
        row = synth_full.features[i]
        for k in range(4):
            direct = float(row @ model.coef[k] + model.intercept[k])
            assert abs(direct - batch[i, k]) <= 1e-9 * max(1.0, abs(direct))


@pytest.mark.parametrize("fit", [sm.fit_lda, sm.fit_gnb, sm.fit_svm])
def test_fits_require_every_class(fit):
    features = np.arange(24.0).reshape(8, 3)
    labels = np.array([0, 0, 1, 1, 2, 2, 0, 1])  # class 3 missing
    with pytest.raises(ValueError, match="class 3 absent"):
        fit(features, labels)


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
    # classes 2 and 3 are the same points shifted by +10 (means 8 and 12).
    # The eight points have mean 5 and squared deviations summing to 240, so
    # smoothing 1e-9 * 240 / 8 = 3e-8 is added to every variance
    pair = np.array([[-1.0], [-3.0], [1.0], [3.0]])
    features = np.vstack([pair, pair + 10.0])
    labels = np.repeat(np.arange(4), 2)
    model = sm.fit_gnb(features, labels)
    assert model.smoothing == pytest.approx(3e-8)
    var = 1.0 + 3e-8
    query = np.array([[0.5]])
    scores = sm.gnb_log_posteriors(model, query)
    for k, mean in ((0, -2.0), (1, 2.0), (2, 8.0), (3, 12.0)):
        expected = math.log(0.25) - 0.5 * (
            math.log(2 * math.pi * var) + (0.5 - mean) ** 2 / var
        )
        assert scores[0, k] == pytest.approx(expected, abs=1e-12)
    assert sm.predict_gnb(model, query)[0] == 1


def test_gnb_symmetric_boundary_at_zero():
    # classes 2 and 3 are the same pair shifted by +10, with its boundary at 10
    pair = np.array([[-1.0], [-2.0], [1.0], [2.0]])
    features = np.vstack([pair, pair + 10.0])
    labels = np.repeat(np.arange(4), 2)
    model = sm.fit_gnb(features, labels)
    scores = sm.gnb_log_posteriors(model, np.array([[0.0], [10.0]]))
    assert scores[0, 0] == pytest.approx(scores[0, 1], abs=1e-12)
    assert scores[1, 2] == pytest.approx(scores[1, 3], abs=1e-12)
    queries = np.array([[-0.3], [0.3], [9.7], [10.3]])
    assert sm.predict_gnb(model, queries).tolist() == [0, 1, 2, 3]


def test_gnb_argmax_invariant_to_constant_shift(synth_full):
    model = sm.fit_gnb(synth_full.features, synth_full.labels)
    scores = sm.gnb_log_posteriors(model, synth_full.features[:60])
    base = scores.argmax(axis=1)
    shifted = (scores + 123.456).argmax(axis=1)
    assert np.array_equal(base, shifted)


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
    # a fractional k used to fit and then fail in predict on a slice index
    with pytest.raises(ValueError, match="^k must be an integer"):
        sm.fit_knn(np.ones((3, 2)), np.zeros(3, dtype=np.int64), k=2.5)
    assert sm.fit_knn(np.ones((3, 2)), np.zeros(3, dtype=np.int64), k=np.int64(2)).k == 2


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


# ---------------------------------------------------------------------------
# SMO against the plain per-candidate loop, bit for bit
# ---------------------------------------------------------------------------

# The solver before its fallback scans were block-tested, kept verbatim: the
# one under test must take the same steps, draw the same offsets and return
# the same bits.
def _reference_smo_solve(
    y: np.ndarray,
    kernel: np.ndarray,
    c: float = 1.0,
    tol: float = 1e-3,
    max_passes: int = 2000,
    seed: int = 0,
) -> sm.SMOResult:
    """Solve the binary SVM dual by SMO (Platt-style pair selection).

    ``y`` holds labels in {-1, +1} and ``kernel`` the full Gram matrix.
    The outer loop alternates sweeps over all examples and over non-bound
    examples until a full sweep changes nothing, i.e. every example meets
    the KKT conditions within ``tol``; the fallback second-choice scans are
    started at positions drawn from the given seed.
    """
    y = np.asarray(y, dtype=np.float64)
    if not ((y == 1).any() and (y == -1).any()):
        raise ValueError("need at least one example of each sign")
    n = y.shape[0]
    rng = Xoshiro256StarStar(seed)
    alpha = np.zeros(n)
    bias = 0.0
    errors = -y.copy()  # f(x) - y with f = 0 initially

    def take_step(i1: int, i2: int) -> bool:
        nonlocal bias
        if i1 == i2:
            return False
        a1_old, a2_old = alpha[i1], alpha[i2]
        y1, y2 = y[i1], y[i2]
        e1, e2 = errors[i1], errors[i2]
        s = y1 * y2
        if s > 0:
            low, high = max(0.0, a1_old + a2_old - c), min(c, a1_old + a2_old)
        else:
            low, high = max(0.0, a2_old - a1_old), min(c, c + a2_old - a1_old)
        if low == high:
            return False
        k11, k12, k22 = kernel[i1, i1], kernel[i1, i2], kernel[i2, i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > 0:
            a2 = a2_old + y2 * (e1 - e2) / eta
            a2 = min(max(a2, low), high)
        else:
            # degenerate curvature: evaluate the dual objective at both ends
            f1 = y1 * (e1 + bias) - a1_old * k11 - s * a2_old * k12
            f2 = y2 * (e2 + bias) - s * a1_old * k12 - a2_old * k22
            l1 = a1_old + s * (a2_old - low)
            h1 = a1_old + s * (a2_old - high)
            obj_low = (
                l1 * f1 + low * f2 + 0.5 * l1 * l1 * k11 + 0.5 * low * low * k22
                + s * low * l1 * k12
            )
            obj_high = (
                h1 * f1 + high * f2 + 0.5 * h1 * h1 * k11 + 0.5 * high * high * k22
                + s * high * h1 * k12
            )
            if obj_low < obj_high - 1e-12:
                a2 = low
            elif obj_low > obj_high + 1e-12:
                a2 = high
            else:
                return False
        if abs(a2 - a2_old) < 1e-12 * (a2 + a2_old + 1e-12):
            return False
        a1 = a1_old + s * (a2_old - a2)
        a1 = min(max(a1, 0.0), c)
        d1, d2 = y1 * (a1 - a1_old), y2 * (a2 - a2_old)
        b1 = bias - e1 - d1 * k11 - d2 * k12
        b2 = bias - e2 - d1 * k12 - d2 * k22
        if 0.0 < a1 < c:
            new_bias = b1
        elif 0.0 < a2 < c:
            new_bias = b2
        else:
            new_bias = (b1 + b2) / 2.0
        errors[:] += d1 * kernel[i1] + d2 * kernel[i2] + (new_bias - bias)
        alpha[i1], alpha[i2] = a1, a2
        bias = new_bias
        return True

    def examine(i2: int) -> bool:
        y2, a2, e2 = y[i2], alpha[i2], errors[i2]
        r2 = e2 * y2
        if not ((r2 < -tol and a2 < c) or (r2 > tol and a2 > 0)):
            return False
        non_bound = np.nonzero((alpha > 0) & (alpha < c))[0]
        if non_bound.size > 1:
            i1 = int(non_bound[np.argmax(np.abs(errors[non_bound] - e2))])
            if take_step(i1, i2):
                return True
        if non_bound.size:
            offset = rng.below(non_bound.size)
            for j in range(non_bound.size):
                if take_step(int(non_bound[(offset + j) % non_bound.size]), i2):
                    return True
        offset = rng.below(n)
        for j in range(n):
            if take_step((offset + j) % n, i2):
                return True
        return False

    converged = False
    examine_all = True
    passes = 0
    while passes < max_passes:
        changed = 0
        if examine_all:
            for i in range(n):
                changed += examine(i)
        else:
            for i in np.nonzero((alpha > 0) & (alpha < c))[0]:
                changed += examine(int(i))
        passes += 1
        if examine_all:
            if changed == 0:
                converged = True
                break
            examine_all = False
        elif changed == 0:
            examine_all = True
    return sm.SMOResult(alpha=alpha, bias=bias, converged=converged, passes=passes)


def _assert_smo_bitwise_equal(y, kernel, c, tol, max_passes, seed):
    got = sm.smo_solve(y, kernel, c, tol, max_passes, seed)
    want = _reference_smo_solve(y, kernel, c, tol, max_passes, seed)
    assert got.alpha.tobytes() == want.alpha.tobytes()
    assert got.bias == want.bias
    assert (got.passes, got.converged) == (want.passes, want.converged)


@pytest.mark.parametrize("fixture", ("synth_full", "synth_d4", "synth_d2"))
def test_smo_bitwise_equal_to_reference_one_vs_rest(fixture, request):
    ds = request.getfixturevalue(fixture)
    x, labels = ds.features[:200], ds.labels[:200]
    kernel = sm.rbf_kernel_symmetric(x, sm.scale_gamma(x))
    for k in range(4):
        _assert_smo_bitwise_equal(np.where(labels == k, 1.0, -1.0), kernel, 1.0, 1e-3, 2000, 7 + k)


@pytest.mark.parametrize("c, tol, max_passes", [
    (0.1, 1e-3, 2000), (1000.0, 1e-3, 2000), (1.0, 0.0, 2000), (1.0, 1e-2, 2000),
    (1.0, 1e-3, 1),
])
def test_smo_bitwise_equal_to_reference_hyperparameters(synth_d4, c, tol, max_passes):
    x, labels = synth_d4.features[:120], synth_d4.labels[:120]
    kernel = sm.rbf_kernel_symmetric(x, sm.scale_gamma(x))
    _assert_smo_bitwise_equal(np.where(labels == 1, 1.0, -1.0), kernel, c, tol, max_passes, 3)


def test_smo_bitwise_equal_to_reference_all_ones_gram():
    # every pair has eta == 0, so every step goes through the dual-objective branch
    y = np.where(XoshiroLanes(4).doubles(50) > 0.5, 1.0, -1.0)
    _assert_smo_bitwise_equal(y, np.ones((50, 50)), 1.0, 1e-3, 2000, 1)


@pytest.mark.parametrize("c", (1.0, 100.0))
def test_smo_bitwise_equal_to_reference_duplicate_rows(c):
    # 60 rows on a 3 x 3 grid, so duplicate rows give eta == 0 pairs.  At
    # c = 100 with seeds 1 and 2, some of those pairs move from inside the
    # block-tested part of a fallback scan.
    rng = XoshiroLanes(4)
    features = np.floor(3.0 * rng.doubles((60, 2)))
    y = np.where(rng.doubles(60) > 0.5, 1.0, -1.0)
    kernel = sm.rbf_kernel_symmetric(features, 0.1)
    for seed in range(3):
        _assert_smo_bitwise_equal(y, kernel, c, 1e-3, 2000, seed)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=5, max_value=120),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([0.01, 0.3, 1.0, 10.0, 1000.0]),
    st.sampled_from([0.0, 1e-3, 1e-2, 0.5]),
    st.sampled_from([1, 3, 40]),  # tol 0 can cycle through all 2000 passes
    st.integers(min_value=0, max_value=2**32),
)
def test_smo_bitwise_equal_to_reference_property(n, levels, d, c, tol, max_passes, seed):
    # integer grids with few levels repeat rows often, so eta == 0 pairs are common
    rng = XoshiroLanes(seed)
    features = np.floor(levels * rng.doubles((n, d)))
    y = np.where(rng.doubles(n) > 0.5, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    kernel = sm.rbf_kernel_symmetric(features, 0.1 + rng.doubles(1)[0])
    _assert_smo_bitwise_equal(y, kernel, c, tol, max_passes, seed)


@pytest.mark.parametrize("kwargs, name", [
    ({"c": 0.0}, "c"), ({"c": -1.0}, "c"), ({"c": math.nan}, "c"), ({"c": math.inf}, "c"),
    ({"tol": -1e-3}, "tol"), ({"tol": math.nan}, "tol"), ({"tol": math.inf}, "tol"),
    ({"max_passes": 0}, "max_passes"),
])
def test_smo_rejects_misused_hyperparameters(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        sm.smo_solve(np.array([1.0, -1.0]), np.eye(2), **kwargs)


@pytest.mark.parametrize("kwargs, name", [
    ({"c": 0.0}, "c"), ({"c": -1.0}, "c"), ({"c": math.nan}, "c"),
    ({"gamma": 0.0}, "gamma"), ({"gamma": -1.0}, "gamma"), ({"gamma": math.nan}, "gamma"),
    ({"gamma": math.inf}, "gamma"),
])
def test_fit_svm_rejects_misused_hyperparameters(synth_d4, kwargs, name):
    # unchecked, c <= 0 and gamma == 0 fit all-zero machines flagged converged,
    # and gamma < 0 fits biases of order 1e10
    with pytest.raises(ValueError, match=f"^{name} must"):
        sm.fit_svm(synth_d4.features[:160], synth_d4.labels[:160], **kwargs)


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
    # classes 2 and 3 are classes 0 and 1 shifted by (0, +10): every class
    # sits at a corner of a rectangle, so a line separates it from the rest
    pair = np.array([[0.0, 0.0], [0.0, 1.0], [4.0, 0.0], [4.0, 1.0]])
    features = np.vstack([pair, pair + [0.0, 10.0]])
    labels = np.repeat(np.arange(4), 2)
    model = sm.fit_svm(features, labels, c=100.0, gamma=1e-4, seed=0)
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
