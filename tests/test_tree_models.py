import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wallfollow import tree_models as tm
from wallfollow.rng import XoshiroLanes


def tree_depth(node):
    if node.is_leaf:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


# ---------------------------------------------------------------------------
# gini
# ---------------------------------------------------------------------------

def test_gini_pure_node():
    assert tm.gini_impurity([17, 0, 0, 0]) == 0.0


def test_gini_uniform_maximum():
    assert tm.gini_impurity([1, 1, 1, 1]) == 0.75


def test_gini_direct_evaluation():
    # 1 - ((2/4)^2 + (1/4)^2 + (1/4)^2) = 0.625
    assert tm.gini_impurity([2, 1, 1, 0]) == pytest.approx(0.625, abs=1e-15)


def test_gini_rejects_empty():
    with pytest.raises(ValueError):
        tm.gini_impurity([0, 0, 0, 0])


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=4, max_size=4))
def test_gini_bounds(counts):
    if sum(counts) == 0:
        return
    value = tm.gini_impurity(counts)
    assert 0.0 <= value <= 0.75
    pure = sum(c > 0 for c in counts) == 1
    assert (value == 0.0) == pure


# ---------------------------------------------------------------------------
# best_split
# ---------------------------------------------------------------------------

def _exhaustive_best_split(features, labels):
    """Independent oracle: enumerate every midpoint of every feature."""
    n = len(labels)
    parent = tm.gini_impurity(np.bincount(labels, minlength=4))
    best = None
    for f in range(features.shape[1]):
        values = sorted(set(features[:, f]))
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            mask = features[:, f] <= threshold
            left = np.bincount(labels[mask], minlength=4)
            right = np.bincount(labels[~mask], minlength=4)
            weighted = (
                mask.sum() * tm.gini_impurity(left)
                + (~mask).sum() * tm.gini_impurity(right)
            ) / n
            decrease = parent - weighted
            if best is None or decrease > best[2] + 1e-15:
                best = (f, threshold, decrease)
    return best


def test_best_split_four_point_line():
    features = np.array([[1.0], [2.0], [3.0], [4.0]])
    labels = np.array([0, 0, 1, 1])
    result = tm.best_split(features, labels, [0])
    oracle = _exhaustive_best_split(features, labels)
    assert result == (0, 2.5, 0.5)
    assert oracle == (0, 2.5, 0.5)


def test_best_split_pure_node_returns_none():
    features = np.array([[1.0], [2.0], [3.0]])
    assert tm.best_split(features, np.array([2, 2, 2]), [0]) is None


def test_best_split_identical_columns_take_lower_index():
    col = np.array([1.0, 2.0, 3.0, 4.0])
    features = np.column_stack([col, col])
    labels = np.array([0, 0, 1, 1])
    feature, threshold, _ = tm.best_split(features, labels, [0, 1])
    assert feature == 0
    assert threshold == 2.5


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_best_split_matches_exhaustive_oracle(seed):
    rng = XoshiroLanes(seed)
    features = np.round(rng.uniform(0, 4, (25, 3)), 1)
    labels = (rng.doubles(25) * 4).astype(np.int64)
    result = tm.best_split(features, labels, range(3))
    oracle = _exhaustive_best_split(features, labels)
    if oracle is None or oracle[2] <= 1e-12:
        return  # plateau splits: oracle tie-breaking not comparable
    assert result is not None
    assert result[0] == oracle[0]
    assert result[1] == pytest.approx(oracle[1], abs=1e-12)
    assert result[2] == pytest.approx(oracle[2], abs=1e-12)


# ---------------------------------------------------------------------------
# decision tree
# ---------------------------------------------------------------------------

def test_single_class_training_gives_single_leaf():
    features = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    root = tm.fit_decision_tree(features, np.array([3, 3, 3]))
    assert root.is_leaf
    assert tm.predict_tree(root, features).tolist() == [3, 3, 3]


def test_xor_layout_needs_zero_gain_splits():
    features = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    labels = np.array([0, 0, 1, 1])
    root = tm.fit_decision_tree(features, labels)
    assert tree_depth(root) == 2
    assert (tm.predict_tree(root, features) == labels).all()


def test_empty_training_set_rejected():
    with pytest.raises(ValueError, match="empty"):
        tm.fit_decision_tree(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))


def test_perfect_training_fit_on_consistent_data(synth_d2):
    root = tm.fit_decision_tree(synth_d2.features, synth_d2.labels)
    predicted = tm.predict_tree(root, synth_d2.features)
    assert (predicted == synth_d2.labels).all()


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_full_depth_tree_memorizes_distinct_rows(seed):
    rng = XoshiroLanes(seed)
    features = rng.uniform(0, 1, (60, 3))  # continuous draws: rows distinct
    labels = (rng.doubles(60) * 4).astype(np.int64)
    root = tm.fit_decision_tree(features, labels)
    assert (tm.predict_tree(root, features) == labels).all()


def test_paths_have_consistent_halfspaces(synth_full):
    root = tm.fit_decision_tree(synth_full.features, synth_full.labels)

    def walk(node, lower, upper):
        if node.is_leaf:
            return
        f, t = node.feature, node.threshold
        assert lower.get(f, -np.inf) < t < upper.get(f, np.inf)
        walk(node.left, lower, {**upper, f: min(upper.get(f, np.inf), t)})
        walk(node.right, {**lower, f: max(lower.get(f, -np.inf), t)}, upper)

    walk(root, {}, {})


def test_tree_depth_cap_and_min_samples(synth_d4):
    params = tm.TreeParams(max_depth=2)
    root = tm.fit_decision_tree(synth_d4.features, synth_d4.labels, params)
    assert tree_depth(root) <= 2
    with pytest.raises(ValueError):
        tm.TreeParams(min_samples_split=1)


def test_tree_determinism(synth_d4):
    a = tm.fit_decision_tree(synth_d4.features, synth_d4.labels)
    b = tm.fit_decision_tree(synth_d4.features, synth_d4.labels)
    names = [f"X_{i}" for i in range(4)]
    assert tm.export_tree_text(a, names) == tm.export_tree_text(b, names)


def test_allowed_features_restriction(synth_d4):
    root = tm.fit_decision_tree(synth_d4.features, synth_d4.labels,
                                allowed_features=[0, 1])

    def features_used(node):
        if node.is_leaf:
            return set()
        return {node.feature} | features_used(node.left) | features_used(node.right)

    assert features_used(root) <= {0, 1}


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------

def test_degenerate_forest_equals_single_tree(synth_d4):
    forest = tm.fit_random_forest(
        synth_d4.features, synth_d4.labels, n_trees=1, seed=5,
        bootstrap=False, features_per_split=4,
    )
    tree = tm.fit_decision_tree(synth_d4.features, synth_d4.labels)
    queries = synth_d4.features
    assert np.array_equal(tm.predict_forest(forest, queries), tm.predict_tree(tree, queries))


def test_stub_tree_majority_vote():
    leaf = lambda k: tm.TreeNode(value=np.eye(4, dtype=np.int64)[k])
    model = tm.ForestModel(trees=[leaf(0), leaf(0), leaf(1)], seed=0, features_per_split=1)
    assert tm.predict_forest(model, np.zeros((3, 2))).tolist() == [0, 0, 0]


def test_vote_tie_breaks_to_lowest_class():
    leaf = lambda k: tm.TreeNode(value=np.eye(4, dtype=np.int64)[k])
    model = tm.ForestModel(trees=[leaf(2), leaf(1)], seed=0, features_per_split=1)
    assert tm.predict_forest(model, np.zeros((1, 2)))[0] == 1


def test_forest_determinism_and_params(synth_d4):
    a = tm.fit_random_forest(synth_d4.features, synth_d4.labels, n_trees=7, seed=3)
    b = tm.fit_random_forest(synth_d4.features, synth_d4.labels, n_trees=7, seed=3)
    assert a.features_per_split == 2  # ceil(sqrt(4))
    queries = synth_d4.features[:50]
    assert np.array_equal(tm.predict_forest(a, queries), tm.predict_forest(b, queries))
    with pytest.raises(ValueError):
        tm.fit_random_forest(synth_d4.features, synth_d4.labels, n_trees=0)


def test_default_features_per_split():
    assert tm.default_features_per_split(24) == 5
    assert tm.default_features_per_split(4) == 2
    assert tm.default_features_per_split(2) == 2


# ---------------------------------------------------------------------------
# gradient boosting
# ---------------------------------------------------------------------------

def _multinomial_deviance(model, features, labels):
    probs = tm.predict_boost_proba(model, features)
    return float(np.mean(-np.log(probs[np.arange(len(labels)), labels])))


def test_boost_zero_stages_predicts_majority(synth_d4):
    model = tm.fit_gradient_boost(synth_d4.features, synth_d4.labels, n_stages=0)
    majority = int(np.bincount(synth_d4.labels).argmax())
    assert (tm.predict_boost(model, synth_d4.features[:20]) == majority).all()


def test_boost_one_stage_reduces_training_deviance(synth_d4):
    base = tm.fit_gradient_boost(synth_d4.features, synth_d4.labels, n_stages=0)
    one = tm.fit_gradient_boost(synth_d4.features, synth_d4.labels, n_stages=1)
    d0 = _multinomial_deviance(base, synth_d4.features, synth_d4.labels)
    d1 = _multinomial_deviance(one, synth_d4.features, synth_d4.labels)
    assert d1 < d0


def test_boost_probabilities_normalized(synth_d4):
    model = tm.fit_gradient_boost(synth_d4.features, synth_d4.labels, n_stages=12)
    probs = tm.predict_boost_proba(model, synth_d4.features)
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9
    assert (probs > 0).all()


def test_boost_learns_the_synthetic_rule(synth_d4):
    model = tm.fit_gradient_boost(synth_d4.features, synth_d4.labels, n_stages=30)
    predicted = tm.predict_boost(model, synth_d4.features)
    assert (predicted == synth_d4.labels).mean() > 0.98


def test_boost_determinism(synth_d4):
    a = tm.fit_gradient_boost(synth_d4.features, synth_d4.labels, n_stages=5)
    b = tm.fit_gradient_boost(synth_d4.features, synth_d4.labels, n_stages=5)
    assert np.array_equal(
        tm.boost_raw_scores(a, synth_d4.features), tm.boost_raw_scores(b, synth_d4.features)
    )


def test_boost_validates_arguments(synth_d4):
    with pytest.raises(ValueError):
        tm.fit_gradient_boost(synth_d4.features, synth_d4.labels, learning_rate=0.0)
    with pytest.raises(ValueError):
        tm.fit_gradient_boost(synth_d4.features, synth_d4.labels, n_stages=-1)


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
    root = tm.fit_decision_tree(synth_d2.features, synth_d2.labels)
    text = tm.export_tree_text(root, ["X_0", "X_1"])
    assert "X_0" in text
    for line in text.splitlines():
        if "<=" in line:
            assert "X_0" in line or "X_1" in line


def test_export_node_ids_are_preorder():
    root = tm.fit_decision_tree(
        np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 0, 1, 2])
    )
    text = tm.export_tree_text(root, ["X_0"])
    ids = [int(line.strip().split()[0][1:]) for line in text.splitlines()
           if line.strip().startswith("n") and "[label=" in line]
    assert ids == sorted(ids)
