import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DT_PARAMS, forest_bootstrap_rows
from wallfollow import serialize, tree_models as tm
from wallfollow.dataset import CLASS_NAMES, one_hot
from wallfollow.rng import XoshiroLanes, Xoshiro256StarStar, derive_seed


def tree_depth(node):
    if node.is_leaf:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


# ---------------------------------------------------------------------------
# gini
# ---------------------------------------------------------------------------

def _gini(counts) -> float:
    """Reference Gini impurity 1 - sum(p_i^2) of a nonzero class-count vector."""
    p = np.asarray(counts, dtype=np.float64) / sum(counts)
    return float(1.0 - (p * p).sum())


def _class_sorted_gains(counts) -> np.ndarray:
    """``_gini_gain`` of one node whose rows are sorted by class, holding ``counts``."""
    labels = np.repeat(np.arange(4), counts)
    return tm._gini_gain(one_hot(labels)[None])[0]


def test_gini_pure_node():
    assert _gini([17, 0, 0, 0]) == 0.0
    assert (_class_sorted_gains([0, 0, 17, 0]) == 0.0).all()


def test_gini_uniform_maximum():
    assert _gini([1, 1, 1, 1]) == 0.75
    # every cut of one row per class leaves children of weighted impurity 0.5
    assert _class_sorted_gains([1, 1, 1, 1]) == pytest.approx([0.25, 0.25, 0.25], abs=1e-15)


def test_gini_direct_evaluation():
    # 1 - ((2/4)^2 + (1/4)^2 + (1/4)^2) = 0.625
    assert _gini([2, 1, 1, 0]) == pytest.approx(0.625, abs=1e-15)
    # cutting [0, 0 | 1, 2] leaves a pure left child and a right child of
    # impurity 0.5: 0.625 - (2 * 0 + 2 * 0.5) / 4 = 0.375
    assert _class_sorted_gains([2, 1, 1, 0])[1] == pytest.approx(0.375, abs=1e-15)


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=4, max_size=4))
def test_gini_bounds(counts):
    if sum(counts) < 2:
        return
    parent = _gini(counts)
    assert 0.0 <= parent <= 0.75
    gains = _class_sorted_gains(counts)
    assert (gains >= -1e-12).all() and (gains <= parent + 1e-12).all()
    pure = sum(c > 0 for c in counts) == 1
    assert (gains.max() == 0.0) == pure
    # each class boundary, and the first and last cut, against the reference
    labels = np.repeat(np.arange(4), counts)
    m = labels.size
    for cut in {0, m - 2, *(np.cumsum(counts)[:-1] - 1)} - {-1, m - 1}:
        left = np.bincount(labels[:cut + 1], minlength=4)
        right = np.bincount(labels[cut + 1:], minlength=4)
        expected = parent - ((cut + 1) * _gini(left) + (m - cut - 1) * _gini(right)) / m
        assert gains[cut] == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# best_split
# ---------------------------------------------------------------------------

def _exact_split_gains(features, labels):
    """Independent oracle: the Gini decrease of every midpoint of every feature.

    Maps (feature, threshold), in feature-then-threshold order, to the
    decrease as an exact fraction, so that cuts of equal gain compare equal
    however their float scores round.
    """
    n = len(labels)

    def weighted_gini(side):  # rows * gini = rows - sum(count^2) / rows
        counts = np.bincount(side, minlength=4)
        return side.size - Fraction(int((counts * counts).sum()), side.size)

    parent = weighted_gini(labels) / n
    gains = {}
    for f in range(features.shape[1]):
        values = sorted(set(features[:, f]))
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            mask = features[:, f] <= threshold
            weighted = (weighted_gini(labels[mask]) + weighted_gini(labels[~mask])) / n
            gains[(f, threshold)] = parent - weighted
    return gains


def _exhaustive_best_split(features, labels):
    """The oracle's first (feature, threshold, decrease) of highest decrease."""
    gains = _exact_split_gains(features, labels)
    if not gains:
        return None
    best = max(gains.values())
    feature, threshold = next(cut for cut, gain in gains.items() if gain == best)
    return feature, threshold, float(best)


def _float_presort(features):
    """Each column's stable float argsort and its values in that order, both ``(d, n)``."""
    columns = np.ascontiguousarray(features.T)
    order = np.argsort(columns, axis=1, kind="stable")
    return order, np.take_along_axis(columns, order, axis=1)


def _gini_split(features, labels, candidates):
    return tm.best_split(*_float_presort(features), one_hot(labels), candidates, tm._gini_gain)


def test_best_split_four_point_line():
    features = np.array([[1.0], [2.0], [3.0], [4.0]])
    labels = np.array([0, 0, 1, 1])
    result = _gini_split(features, labels, [0])
    oracle = _exhaustive_best_split(features, labels)
    assert result == (0, 2.5, 0.5)
    assert oracle == (0, 2.5, 0.5)


def test_best_split_identical_columns_take_lower_index():
    col = np.array([1.0, 2.0, 3.0, 4.0])
    features = np.column_stack([col, col])
    labels = np.array([0, 0, 1, 1])
    feature, threshold, _ = _gini_split(features, labels, [0, 1])
    assert feature == 0
    assert threshold == 2.5


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_best_split_matches_exhaustive_oracle(seed):
    rng = XoshiroLanes(seed)
    features = np.round(rng.uniform(0, 4, (25, 3)), 1)
    labels = (rng.doubles(25) * 4).astype(np.int64)
    result = _gini_split(features, labels, range(3))
    gains = _exact_split_gains(features, labels)
    best = max(gains.values(), default=0)
    if best <= 1e-12:
        return  # plateau splits: oracle tie-breaking not comparable
    assert result is not None
    # Cuts of equal exact gain can score a rounding error apart, and then the
    # higher float wins over the lower feature: each of them is a best split.
    tied = [cut for cut, gain in gains.items() if gain == best]
    assert any(result[0] == f and result[1] == pytest.approx(t, abs=1e-12) for f, t in tied)
    assert result[2] == pytest.approx(float(best), abs=1e-12)


# ---------------------------------------------------------------------------
# decision tree
# ---------------------------------------------------------------------------

def test_single_class_training_gives_single_leaf():
    features = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    root = tm.fit_decision_tree(features, np.array([3, 3, 3]), DT_PARAMS)
    assert root.is_leaf
    assert tm.predict_tree(root, features).tolist() == [3, 3, 3]


def test_xor_layout_needs_zero_gain_splits():
    features = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    labels = np.array([0, 0, 1, 1])
    root = tm.fit_decision_tree(features, labels, DT_PARAMS)
    assert tree_depth(root) == 2
    assert (tm.predict_tree(root, features) == labels).all()


@pytest.mark.parametrize("a, b", [
    pytest.param(np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0),
                 id="adjacent-floats"),
    pytest.param(1e308, 1.7e308, id="overflowing-sum"),
])
def test_split_whose_midpoint_is_not_below_the_largest_value(a, b):
    # (a + b) / 2 rounds up to b, or overflows: a ``<=`` split there would
    # send every row left and never separate them.
    assert not (a + b) / 2.0 < b
    features = np.array([[a], [b], [a], [b]])
    labels = np.array([0, 1, 0, 1])
    root = tm.fit_decision_tree(features, labels, DT_PARAMS)
    assert root.threshold == a
    assert (tm.predict_tree(root, features) == labels).all()


def test_empty_training_set_rejected():
    with pytest.raises(ValueError, match="empty"):
        tm.fit_decision_tree(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), DT_PARAMS)


def test_tree_fit_names_float_labels():
    features = np.arange(8.0).reshape(8, 1)
    labels = np.array([0, 1, 2, 3, 0, 1, 2, 1.5])
    with pytest.raises(ValueError, match="^labels must be integers, got dtype float64$"):
        tm.fit_decision_tree(features, labels, DT_PARAMS)


def test_perfect_training_fit_on_consistent_data(synth_d2):
    root = tm.fit_decision_tree(synth_d2.features, synth_d2.labels, DT_PARAMS)
    predicted = tm.predict_tree(root, synth_d2.features)
    assert (predicted == synth_d2.labels).all()


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_full_depth_tree_memorizes_distinct_rows(seed):
    rng = XoshiroLanes(seed)
    features = rng.uniform(0, 1, (60, 3))  # continuous draws: rows distinct
    labels = (rng.doubles(60) * 4).astype(np.int64)
    root = tm.fit_decision_tree(features, labels, DT_PARAMS)
    assert (tm.predict_tree(root, features) == labels).all()


def test_paths_have_consistent_halfspaces(synth_full):
    root = tm.fit_decision_tree(synth_full.features, synth_full.labels, DT_PARAMS)

    def walk(node, lower, upper):
        if node.is_leaf:
            return
        f, t = node.feature, node.threshold
        assert lower.get(f, -np.inf) < t < upper.get(f, np.inf)
        walk(node.left, lower, {**upper, f: min(upper.get(f, np.inf), t)})
        walk(node.right, {**lower, f: max(lower.get(f, -np.inf), t)}, upper)

    walk(root, {}, {})


def test_tree_depth_cap_and_min_samples(synth_d4):
    params = tm.TreeParams(max_depth=2, min_samples_split=2)
    root = tm.fit_decision_tree(synth_d4.features, synth_d4.labels, params)
    assert tree_depth(root) <= 2
    with pytest.raises(ValueError):
        tm.TreeParams(max_depth=None, min_samples_split=1)


def test_tree_determinism(synth_d4):
    a = tm.fit_decision_tree(synth_d4.features, synth_d4.labels, DT_PARAMS)
    b = tm.fit_decision_tree(synth_d4.features, synth_d4.labels, DT_PARAMS)
    names = [f"X_{i}" for i in range(4)]
    assert tm.export_tree_text(a, names) == tm.export_tree_text(b, names)


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------

def test_degenerate_forest_equals_single_tree(synth_d2):
    # at d = 2 every split's ceil(sqrt(d)) candidates are all the features
    for seed in (0, 5, 9):
        forest = tm.fit_random_forest(synth_d2.features, synth_d2.labels, 1, DT_PARAMS, seed=seed)
        rows = forest_bootstrap_rows(synth_d2.features.shape[0], seed, 0)
        tree = tm.fit_decision_tree(synth_d2.features[rows], synth_d2.labels[rows], DT_PARAMS)
        assert _document(forest) == _document(tm.ForestModel(trees=[tree])), seed


def test_stub_tree_majority_vote():
    leaf = lambda k: tm.TreeNode(value=np.eye(4, dtype=np.int64)[k])
    model = tm.ForestModel(trees=[leaf(0), leaf(0), leaf(1)])
    assert tm.predict_forest(model, np.zeros((3, 2))).tolist() == [0, 0, 0]


def test_vote_tie_breaks_to_lowest_class():
    leaf = lambda k: tm.TreeNode(value=np.eye(4, dtype=np.int64)[k])
    model = tm.ForestModel(trees=[leaf(2), leaf(1)])
    assert tm.predict_forest(model, np.zeros((1, 2)))[0] == 1


def test_forest_determinism_and_params(synth_d4):
    a = tm.fit_random_forest(synth_d4.features, synth_d4.labels, 7, DT_PARAMS, seed=3)
    b = tm.fit_random_forest(synth_d4.features, synth_d4.labels, 7, DT_PARAMS, seed=3)
    queries = synth_d4.features[:50]
    assert np.array_equal(tm.predict_forest(a, queries), tm.predict_forest(b, queries))
    with pytest.raises(ValueError):
        tm.fit_random_forest(synth_d4.features, synth_d4.labels, 0, DT_PARAMS)


# ---------------------------------------------------------------------------
# gradient boosting
# ---------------------------------------------------------------------------

def _multinomial_deviance(model, features, labels):
    probs = tm.predict_boost_proba(model, features)
    return float(np.mean(-np.log(probs[np.arange(len(labels)), labels])))


def test_boost_zero_stages_predicts_majority(synth_d4):
    model = tm.fit_gradient_boost(synth_d4.features, synth_d4.labels, 0, 0.1, 3)
    majority = int(np.bincount(synth_d4.labels).argmax())
    assert (tm.predict_boost(model, synth_d4.features[:20]) == majority).all()


def test_boost_one_stage_reduces_training_deviance(synth_d4):
    base = tm.fit_gradient_boost(synth_d4.features, synth_d4.labels, 0, 0.1, 3)
    one = tm.fit_gradient_boost(synth_d4.features, synth_d4.labels, 1, 0.1, 3)
    d0 = _multinomial_deviance(base, synth_d4.features, synth_d4.labels)
    d1 = _multinomial_deviance(one, synth_d4.features, synth_d4.labels)
    assert d1 < d0


def test_boost_probabilities_normalized(synth_d4):
    model = tm.fit_gradient_boost(synth_d4.features, synth_d4.labels, 12, 0.1, 3)
    probs = tm.predict_boost_proba(model, synth_d4.features)
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9
    assert (probs > 0).all()


def test_boost_learns_the_synthetic_rule(synth_d4):
    model = tm.fit_gradient_boost(synth_d4.features, synth_d4.labels, 30, 0.1, 3)
    predicted = tm.predict_boost(model, synth_d4.features)
    assert (predicted == synth_d4.labels).mean() > 0.98


def test_boost_determinism(synth_d4):
    a = tm.fit_gradient_boost(synth_d4.features, synth_d4.labels, 5, 0.1, 3)
    b = tm.fit_gradient_boost(synth_d4.features, synth_d4.labels, 5, 0.1, 3)
    assert np.array_equal(
        tm.boost_raw_scores(a, synth_d4.features), tm.boost_raw_scores(b, synth_d4.features)
    )


def test_boost_sets_leaves_in_the_grower_without_routing(synth_d4, monkeypatch):
    expected = _document(tm.fit_gradient_boost(synth_d4.features, synth_d4.labels, 10, 0.1, 3))

    def no_route(*args):
        raise AssertionError("fitting routed rows through a finished tree")

    monkeypatch.setattr(tm, "_route", no_route)
    actual = tm.fit_gradient_boost(synth_d4.features, synth_d4.labels, 10, 0.1, 3)
    assert _document(actual) == expected


def test_boost_validates_arguments(synth_d4):
    # a NaN or infinite rate used to fit and then predict one class
    for rate in (0.0, -0.1, math.nan, math.inf, True, False, "1"):
        with pytest.raises(ValueError, match="^learning_rate must"):
            tm.fit_gradient_boost(synth_d4.features, synth_d4.labels, 100, rate, 3)
    with pytest.raises(ValueError):
        tm.fit_gradient_boost(synth_d4.features, synth_d4.labels, -1, 0.1, 3)


@pytest.mark.parametrize("fit, match", [
    pytest.param(lambda x, y: tm.fit_decision_tree(x, y, tm.TreeParams(-2, 2)),
                 "max_depth", id="dt-max_depth-negative"),
    pytest.param(lambda x, y: tm.fit_gradient_boost(x, y, 100, 0.1, -1),
                 "max_depth", id="gbc-max_depth-negative"),
    pytest.param(lambda x, y: tm.fit_decision_tree(x[:, :0], y, DT_PARAMS),
                 "no columns", id="dt-no-columns"),
    pytest.param(lambda x, y: tm.fit_gradient_boost(np.where(x > 2.0, np.nan, x), y, 100, 0.1, 3),
                 "finite", id="gbc-nan-feature"),
    pytest.param(lambda x, y: tm.fit_decision_tree(x, y[:-1], DT_PARAMS),
                 "labels has 39 rows", id="dt-row-mismatch"),
    pytest.param(lambda x, y: tm.fit_random_forest(x, y[:-1], 2, DT_PARAMS),
                 "labels has 39 rows", id="rfc-row-mismatch"),
    pytest.param(lambda x, y: tm.fit_gradient_boost(x[:-1], y, 2, 0.1, 3),
                 "labels has 40 rows but features has 39", id="gbc-row-mismatch"),
    # a fractional count used to raise a TypeError naming neither parameter
    # nor model, or to fit without error
    pytest.param(lambda x, y: tm.fit_gradient_boost(x, y, 2.5, 0.1, 3),
                 "^n_stages must be an integer", id="gbc-n_stages-fraction"),
    pytest.param(lambda x, y: tm.fit_gradient_boost(x, y, 2, 0.1, 2.5),
                 "^max_depth must be an integer", id="gbc-max_depth-fraction"),
    pytest.param(lambda x, y: tm.fit_random_forest(x, y, 2.5, DT_PARAMS),
                 "^n_trees must be an integer", id="rfc-n_trees-fraction"),
    pytest.param(lambda x, y: tm.fit_decision_tree(x, y, tm.TreeParams(2.5, 2)),
                 "^max_depth must be an integer", id="dt-max_depth-fraction"),
    pytest.param(lambda x, y: tm.fit_decision_tree(x, y, tm.TreeParams(None, 2.5)),
                 "^min_samples_split must be an integer", id="dt-min_samples_split-fraction"),
])
def test_tree_fits_reject_bad_arguments(synth_d4, fit, match):
    with pytest.raises(ValueError, match=match):
        fit(synth_d4.features[:40], synth_d4.labels[:40])


class _CountingNumpy:
    """numpy, counting the ``argsort`` calls made through it."""

    def __init__(self):
        self.argsorts = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def argsort(self, *args, **kwargs):
        self.argsorts += 1
        return np.argsort(*args, **kwargs)


@pytest.mark.parametrize("fit, sorts", [
    pytest.param(lambda x, y: tm.fit_decision_tree(x, y, DT_PARAMS), 1, id="dt"),
    pytest.param(lambda x, y: tm.fit_gradient_boost(x, y, 3, 0.1, 3), 1, id="gbc"),
    pytest.param(lambda x, y: tm.fit_random_forest(x, y, 5, DT_PARAMS, seed=2), 5, id="rfc"),
])
def test_each_fit_sorts_its_columns_once(synth_d4, monkeypatch, fit, sorts):
    counting = _CountingNumpy()
    monkeypatch.setattr(tm, "np", counting)
    fit(synth_d4.features, synth_d4.labels)
    assert counting.argsorts == sorts


# ---------------------------------------------------------------------------
# bitwise oracle: the separate classification and regression growers that
# the shared grower replaced, kept verbatim as references
# ---------------------------------------------------------------------------

def _reference_best_split(features, labels, candidate_features):
    n = labels.shape[0]
    if n < 2:
        return None
    totals = np.bincount(labels, minlength=tm.N_CLASSES).astype(np.float64)
    parent = 1.0 - ((totals / n) ** 2).sum()
    if parent == 0.0:
        return None
    onehot = one_hot(labels)
    best = None  # (decrease, feature, threshold)
    for f in sorted(candidate_features):
        col = features[:, f]
        order = np.argsort(col, kind="stable")
        sv = col[order]
        cuts = np.nonzero(sv[:-1] != sv[1:])[0]
        if cuts.size == 0:
            continue
        cum = np.cumsum(onehot[order], axis=0)
        left = cum[cuts]
        right = totals[None, :] - left
        n_left = (cuts + 1).astype(np.float64)
        n_right = n - n_left
        gini_left = 1.0 - ((left / n_left[:, None]) ** 2).sum(axis=1)
        gini_right = 1.0 - ((right / n_right[:, None]) ** 2).sum(axis=1)
        decrease = parent - (n_left * gini_left + n_right * gini_right) / n
        i = int(np.argmax(decrease))  # first max -> lowest threshold
        if best is None or decrease[i] > best[0]:
            threshold = (sv[cuts[i]] + sv[cuts[i] + 1]) / 2.0
            best = (float(decrease[i]), f, float(threshold))
    if best is None:
        return None
    return best[1], best[2], best[0]


def _reference_decision_tree(features, labels, params, seed=0,
                             features_per_split=None, allowed_features=None):
    if features.shape[0] == 0:
        raise ValueError("empty training set")
    d = features.shape[1]
    pool = list(range(d)) if allowed_features is None else sorted(allowed_features)
    rng = Xoshiro256StarStar(seed)

    def grow(rows, depth):
        y = labels[rows]
        counts = np.bincount(y, minlength=tm.N_CLASSES)
        if (
            (counts > 0).sum() == 1
            or rows.shape[0] < params.min_samples_split
            or (params.max_depth is not None and depth >= params.max_depth)
        ):
            return tm.TreeNode(value=counts)
        if features_per_split is not None and features_per_split < len(pool):
            picks = rng.sample_indices(len(pool), features_per_split)
            candidates = sorted(pool[i] for i in picks)
        else:
            candidates = pool
        found = _reference_best_split(features[rows], y, candidates)
        if found is None:
            return tm.TreeNode(value=counts)
        f, threshold, _ = found
        mask = features[rows, f] <= threshold
        return tm.TreeNode(
            feature=f,
            threshold=threshold,
            left=grow(rows[mask], depth + 1),
            right=grow(rows[~mask], depth + 1),
        )

    return grow(np.arange(features.shape[0]), 0)


def _reference_forest(features, labels, n_trees, params, seed):
    """Reference trees on each tree's bootstrap rows, ceil(sqrt(d)) candidates per split."""
    n, d = features.shape
    m = next(m for m in range(1, d + 1) if m * m >= d)
    trees = []
    for t in range(n_trees):
        rows = forest_bootstrap_rows(n, seed, t)
        trees.append(_reference_decision_tree(features[rows], labels[rows], params,
                                              seed=derive_seed(derive_seed(seed, t), 1),
                                              features_per_split=m))
    return tm.ForestModel(trees=trees)


def _reference_regression_tree(features, target, max_depth, min_samples_split=2):
    d = features.shape[1]

    def grow(rows, depth):
        t = target[rows]
        if (
            depth >= max_depth
            or rows.shape[0] < min_samples_split
            or np.ptp(t) == 0.0
        ):
            return tm.TreeNode()
        best = None  # (child_sse, feature, threshold)
        for f in range(d):
            col = features[rows, f]
            order = np.argsort(col, kind="stable")
            sv = col[order]
            cuts = np.nonzero(sv[:-1] != sv[1:])[0]
            if cuts.size == 0:
                continue
            ts = t[order]
            cum = np.cumsum(ts)
            cum2 = np.cumsum(ts * ts)
            n_left = (cuts + 1).astype(np.float64)
            n_right = rows.shape[0] - n_left
            sse_left = cum2[cuts] - cum[cuts] ** 2 / n_left
            sse_right = (cum2[-1] - cum2[cuts]) - (cum[-1] - cum[cuts]) ** 2 / n_right
            child = sse_left + sse_right
            i = int(np.argmin(child))  # first min -> lowest threshold
            if best is None or child[i] < best[0]:
                best = (float(child[i]), f, float((sv[cuts[i]] + sv[cuts[i] + 1]) / 2.0))
        if best is None:
            return tm.TreeNode()
        _, f, threshold = best
        mask = features[rows, f] <= threshold
        return tm.TreeNode(
            feature=f,
            threshold=threshold,
            left=grow(rows[mask], depth + 1),
            right=grow(rows[~mask], depth + 1),
        )

    return grow(np.arange(features.shape[0]), 0)


def _reference_gradient_boost(features, labels, n_stages, learning_rate, max_depth):
    n = features.shape[0]
    counts = np.bincount(labels, minlength=tm.N_CLASSES).astype(np.float64)
    priors = np.maximum(counts / n, 1e-12)
    init_scores = np.log(priors)
    onehot = one_hot(labels)
    scores = np.tile(init_scores, (n, 1))
    stages = []
    for _ in range(n_stages):
        probs = tm.softmax(scores)
        residual = onehot - probs
        stage = []
        for k in range(tm.N_CLASSES):
            tree = _reference_regression_tree(features, residual[:, k], max_depth)
            for leaf, rows in tm._route(tree, features):
                numerator = residual[rows, k].sum() * (tm.N_CLASSES - 1) / tm.N_CLASSES
                p = probs[rows, k]
                denominator = (p * (1.0 - p)).sum()
                value = 0.0 if abs(denominator) < 1e-150 else float(numerator / denominator)
                scores[rows, k] += learning_rate * value
                leaf.value = learning_rate * value
            stage.append(tree)
        stages.append(tuple(stage))
    return tm.BoostModel(init_scores=init_scores, stages=stages)


def _document(model):
    return json.dumps(serialize.encode_model(model))


def _tie_heavy(seed, n, d, decimals=1):
    """Features rounded to ``decimals`` decimals and labels partly set by a rule."""
    rng = XoshiroLanes(seed)
    features = np.round(rng.uniform(0, 2, (n, d)), decimals)
    noise = (rng.doubles(n) * 4).astype(np.int64)
    rule = (features[:, 0] > 1.0).astype(np.int64) + 2 * (features[:, -1] > 0.6)
    labels = np.where(rng.doubles(n) < 0.7, rule, noise)
    return features, labels


def _few_ties(seed, n, d):
    """Three decimals, as the sensor files have: nearly continuous, a few ties."""
    return _tie_heavy(seed, n, d, decimals=3)


def _signed_zeros(seed, n, d):
    """``_tie_heavy`` moved to [-1, 1], with every other zero stored as ``-0.0``."""
    features, labels = _tie_heavy(seed, n, d)
    features = np.round(features - 1.0, 1)
    zeros = np.flatnonzero(features == 0.0)
    features.flat[zeros[::2]] = -0.0
    assert np.signbit(features.flat[zeros]).any() and not np.signbit(features.flat[zeros]).all()
    return features, labels


def _repeated_rows(seed, n, d):
    """A bootstrap sample of ``_few_ties`` rows: whole rows repeat."""
    features, labels = _few_ties(seed, n, d)
    rng = Xoshiro256StarStar(seed)
    rows = [rng.below(n) for _ in range(n)]
    return features[rows], labels[rows]


@pytest.mark.parametrize("make, seed, n, d", [
    *(pytest.param(_tie_heavy, seed, 80, d, id=f"{seed}-{d}")
      for seed in (0, 1, 2) for d in (1, 2, 4, 7, 24)),
    *(pytest.param(_few_ties, 5, 300, d, id=f"few-ties-{d}") for d in (2, 4, 24)),
    pytest.param(_repeated_rows, 6, 200, 24, id="repeated-rows-24"),
])
def test_decision_tree_documents_equal_reference_grower(make, seed, n, d):
    features, labels = make(seed, n, d)
    for params in (DT_PARAMS, tm.TreeParams(1, 2), tm.TreeParams(3, 2), tm.TreeParams(None, 9),
                   tm.TreeParams(4, 5)):
        assert (_document(tm.fit_decision_tree(features, labels, params))
                == _document(_reference_decision_tree(features, labels, params))), params
        # a fit on chosen columns, as ``export-tree --restrict`` makes it, is the reference
        # tree restricted to them, its features renumbered from column positions
        for columns in (list(range(0, d, 2)), sorted({d - 1, 0})):
            actual = tm.tree_to_lists(tm.fit_decision_tree(features[:, columns], labels, params))
            actual["feature"] = [-1 if f == -1 else columns[f] for f in actual["feature"]]
            expected = _reference_decision_tree(features, labels, params,
                                                allowed_features=columns)
            assert actual == tm.tree_to_lists(expected), (params, columns)


@pytest.mark.parametrize("make, n, d, max_depth", [
    *(pytest.param(_tie_heavy, 60, d, 5, id=f"{d}") for d in (1, 2, 3, 5, 24)),
    *(pytest.param(_few_ties, 300, d, None, id=f"few-ties-{d}") for d in (2, 4, 24)),
    *(pytest.param(_signed_zeros, 120, d, None, id=f"signed-zeros-{d}") for d in (1, 4)),
])
def test_random_forest_documents_equal_reference_grower(make, n, d, max_depth):
    features, labels = make(d, n, d)
    params = tm.TreeParams(max_depth=max_depth, min_samples_split=2)
    expected = _reference_forest(features, labels, 4, params, seed=d)
    actual = tm.fit_random_forest(features, labels, 4, params, seed=d)
    assert _document(actual) == _document(expected)


@pytest.mark.parametrize("distinct, dtype", [(65_536, np.uint16), (65_537, np.int64)])
def test_rank_table_orders_rows_as_a_presort(distinct, dtype):
    # column 0 holds ``distinct`` values, shuffled, some of them twice; column 1
    # holds -0.0 and 0.0, which are equal and so share a rank
    n = distinct + 300
    values = np.arange(distinct) * 0.25 - 1000.0
    column = np.concatenate([values, values[:300]])[XoshiroLanes(7).permutation(n)]
    zeros = np.where(np.arange(n) % 3 == 0, -0.0, np.where(np.arange(n) % 3 == 1, 0.0, 2.5))
    features = np.stack([column, zeros], axis=1)
    ranks = tm._rank_table(features)
    assert ranks.dtype == dtype
    assert int(ranks[0].max()) == distinct - 1
    assert ranks[1].tolist()[:3] == [0, 0, 1]
    columns = np.ascontiguousarray(features.T)
    rows = forest_bootstrap_rows(n, 3, 0)
    # every row, as a tree or boosting fit sorts them, and a forest tree's bootstrap rows
    for presorted, expected in (
            (tm._presort(columns, ranks), _float_presort(features)),
            (tm._presort(columns.take(rows, axis=1), ranks.take(rows, axis=1)),
             _float_presort(features[rows]))):
        assert np.array_equal(presorted[0], expected[0])
        assert np.array_equal(presorted[1].view(np.uint64), expected[1].view(np.uint64))


@pytest.mark.parametrize("make, seed, n, d, max_depth", [
    *(pytest.param(_tie_heavy, 10 * d + max_depth, 70, d, max_depth, id=f"{max_depth}-{d}")
      for max_depth in (1, 2, 3) for d in (1, 3, 24)),
    *(pytest.param(_few_ties, d, 300, d, 3, id=f"few-ties-{d}") for d in (2, 4, 24)),
])
def test_gradient_boost_documents_equal_reference_grower(make, seed, n, d, max_depth):
    features, labels = make(seed, n, d)
    expected = _reference_gradient_boost(features, labels, 3, 0.1, max_depth)
    actual = tm.fit_gradient_boost(features, labels, 3, 0.1, max_depth)
    assert _document(actual) == _document(expected)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def test_export_single_leaf():
    root = tm.TreeNode(value=np.array([0, 5, 0, 0]))
    text = tm.export_tree_text(root, ["X_0"])
    assert text.startswith("digraph tree {")
    assert 'n0 [label="SlightRightTurn\\ncounts=[0, 5, 0, 0]"];' in text
    assert "->" not in text


def test_export_references_only_existing_features(synth_d2):
    root = tm.fit_decision_tree(synth_d2.features, synth_d2.labels, DT_PARAMS)
    text = tm.export_tree_text(root, ["X_0", "X_1"])
    assert "X_0" in text
    for line in text.splitlines():
        if "<=" in line:
            assert "X_0" in line or "X_1" in line


def _recursive_export(root, feature_names):
    """The recursive DOT writer that ``export_tree_text`` replaced, as a byte oracle."""
    lines = ["digraph tree {", "  node [shape=box];"]
    counter = 0

    def emit(node):
        nonlocal counter
        node_id = counter
        counter += 1
        if node.is_leaf:
            cls = CLASS_NAMES[int(np.argmax(node.value))]
            counts = ", ".join(str(int(c)) for c in node.value)
            lines.append(f'  n{node_id} [label="{cls}\\ncounts=[{counts}]"];')
        else:
            lines.append(
                f'  n{node_id} [label="{feature_names[node.feature]} <= {node.threshold!r}"];'
            )
            left_id = emit(node.left)
            lines.append(f"  n{node_id} -> n{left_id};")
            right_id = emit(node.right)
            lines.append(f"  n{node_id} -> n{right_id};")
        return node_id

    emit(root)
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("width", ["d2", "d4", "full"])
def test_export_bytes_equal_recursive_writer(width, request):
    ds = request.getfixturevalue(f"synth_{width}")
    names = [f"X_{i}" for i in range(ds.features.shape[1])]
    for root in (tm.fit_decision_tree(ds.features, ds.labels, DT_PARAMS),
                 tm.fit_decision_tree(ds.features, ds.labels, tm.TreeParams(3, 2)),
                 tm.TreeNode(value=np.array([0, 5, 0, 0]))):
        assert tm.export_tree_text(root, names) == _recursive_export(root, names)


def test_export_tree_deeper_than_the_recursion_limit():
    # labels alternate along a rising sensor: every split peels off one row,
    # so the tree is a chain about as deep as there are rows
    n = 1200
    features = np.column_stack([np.arange(n, dtype=np.float64), np.ones(n)])
    labels = np.arange(n) % 2
    root = tm.fit_decision_tree(features, labels, DT_PARAMS)
    with pytest.raises(RecursionError):
        _recursive_export(root, ["X_0", "X_1"])
    lines = tm.export_tree_text(root, ["X_0", "X_1"]).splitlines()
    assert sum("[label=" in line for line in lines) == 2 * n - 1
    assert sum("->" in line for line in lines) == 2 * n - 2
    assert lines[-1] == "}"


def test_export_node_ids_are_preorder():
    root = tm.fit_decision_tree(
        np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 0, 1, 2]), DT_PARAMS
    )
    text = tm.export_tree_text(root, ["X_0"])
    ids = [int(line.strip().split()[0][1:]) for line in text.splitlines()
           if line.strip().startswith("n") and "[label=" in line]
    assert ids == sorted(ids)
