"""CART decision trees plus the two tree ensembles (random forest, boosting).

All trees split on ``value <= threshold`` (left) vs ``> threshold`` (right),
with candidate thresholds at midpoints between consecutive distinct sorted
values (at the lower value where the rounded midpoint is not below the node's
largest value, so that both children get rows).  Ties are broken by lowest
feature index, then lowest threshold, so fits are fully deterministic.  An
impure node may take a zero-gain split: greedy Gini gain alone cannot separate
XOR-style layouts, and the trees are expected to drive training error to zero
whenever the data is consistent.

Classification and regression trees share one grower and one split search;
only the gain differs: the Gini decrease on one-hot labels, or minus the
children's squared error on boosting residuals.

Each fit sorts every column once (the presort of CART, Breiman et al. 1984);
a boosting fit shares that sort across all of its trees.  A child keeps its
parent's row orders filtered by the split.  Node rows keep their training
order, so a filtered stable order is exactly the node's own stable argsort,
bootstrap duplicates included: every node scores the same sorted targets as
a per-node sort would.  The cumulative sums run sequentially, each four-class
sum adds left to right, and class-count leaves are exact integer sums, so the
trees are bit-identical to ones grown with a sort at every node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import CLASS_NAMES, N_CLASSES, check_training_set, one_hot
from .neural import softmax
from .rng import Xoshiro256StarStar, derive_seed


@dataclass
class TreeNode:
    """Internal node (feature/threshold/children) or leaf (``feature is None``).

    A classification leaf's ``value`` is its class-count vector, a regression
    leaf's is its real-valued score.
    """

    feature: int | None = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: np.ndarray | float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class TreeParams:
    max_depth: int | None = None
    min_samples_split: int = 2

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be None or >= 0")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")


@dataclass
class ForestModel:
    trees: list[TreeNode]
    seed: int
    features_per_split: int


@dataclass
class BoostModel:
    init_scores: np.ndarray  # per-class log prior, length 4
    stages: list[tuple[TreeNode, ...]]  # one regression tree per class
    learning_rate: float


def _gini_gain(sorted_target: np.ndarray) -> np.ndarray:
    """Gini impurity decrease of the cut after each row, for every candidate.

    ``sorted_target`` is ``(c, m, k)``: the node's one-hot rows sorted by each
    of ``c`` candidate features.  Returns ``(c, m - 1)`` scores, where cut
    ``i`` puts sorted rows ``0..i`` on the left.
    """
    m = sorted_target.shape[1]
    cum = np.cumsum(sorted_target, axis=1)
    parent = 1.0 - ((cum[0, -1] / m) ** 2).sum()
    left = cum[:, :-1]
    right = cum[:, -1:] - left
    n_left = np.arange(1.0, m)
    n_right = m - n_left
    gini_left = 1.0 - _class_sum((left / n_left[:, None]) ** 2)
    gini_right = 1.0 - _class_sum((right / n_right[:, None]) ** 2)
    return parent - (n_left * gini_left + n_right * gini_right) / m


def _class_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1)`` for a last axis shorter than 8, several times faster.

    numpy adds fewer than 8 terms one by one, left to right (its pairwise
    summation starts at 8), so these adds round exactly as the sum does.
    """
    total = x[..., 0]
    for k in range(1, x.shape[-1]):
        total = total + x[..., k]
    return total


def _sse_gain(sorted_target: np.ndarray) -> np.ndarray:
    """Minus the children's summed squared error of the cut after each row.

    ``sorted_target`` is ``(c, m)``: the node's residuals sorted by each of
    ``c`` candidate features.  Returns ``(c, m - 1)`` scores.
    """
    m = sorted_target.shape[1]
    cum = np.cumsum(sorted_target, axis=1)
    cum2 = np.cumsum(sorted_target * sorted_target, axis=1)
    left, left2 = cum[:, :-1], cum2[:, :-1]
    n_left = np.arange(1.0, m)
    n_right = m - n_left
    sse_left = left2 - left ** 2 / n_left
    sse_right = (cum2[:, -1:] - left2) - (cum[:, -1:] - left) ** 2 / n_right
    return -(sse_left + sse_right)


def _presort(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, values)``, both ``(d, n)``: each column's stable argsort and sorted values."""
    columns = np.ascontiguousarray(features.T)
    order = np.argsort(columns, axis=1, kind="stable")
    return order, np.take_along_axis(columns, order, axis=1)


def best_split(order: np.ndarray, values: np.ndarray, target: np.ndarray,
               candidate_features, gain):
    """Best (feature, threshold, gain) of one node over the candidate features.

    ``order[j]`` lists the node's rows sorted by feature ``j`` and
    ``values[j]`` their values of it (see ``_presort``).  ``gain`` scores the
    node's targets sorted by every candidate at once (see ``_gini_gain``).
    Only cuts between distinct values count; the highest score wins, ties
    going to the lowest feature, then the lowest threshold.  Returns None
    when no candidate has two distinct values.  Zero-gain splits are
    returned (see module docstring).
    """
    candidates = np.array(sorted(candidate_features))
    sv = values[candidates]
    # ``take`` and ``flatnonzero`` rather than fancy and boolean indexing:
    # several times faster on these shapes, with the same result.
    scores = gain(target.take(order[candidates], axis=0)).ravel()
    cuts = np.flatnonzero(sv[:, :-1] != sv[:, 1:])  # row-major (candidate, cut) positions
    if cuts.size == 0:
        return None
    best = int(cuts[np.argmax(scores[cuts])])  # first max: lowest feature, then threshold
    row, cut = divmod(best, sv.shape[1] - 1)
    low, high = float(sv[row, cut]), float(sv[row, cut + 1])
    threshold = (low + high) / 2.0
    if not threshold < sv[row, -1]:
        # The midpoint of adjacent floats may round up to the larger one, and
        # one near the float limit may overflow; at or above the node's
        # largest value, ``<=`` would send every row left.
        threshold = low
    return int(candidates[row]), threshold, float(scores[best])


def _grow(order: np.ndarray, values: np.ndarray, target: np.ndarray, params: TreeParams,
          gain, leaf_value, candidates) -> TreeNode:
    """Grow a tree on ``target`` (one-hot rows or a vector of reals).

    A node's rows are those of its ``order`` (see ``best_split``).  Each
    child keeps its parent's arrays filtered by the split, a stable
    partition, so they stay sorted without another sort.  A node becomes a
    leaf with value ``leaf_value(node targets)`` when its targets are all
    equal, it has fewer than ``params.min_samples_split`` rows, it is at
    ``params.max_depth`` or no candidate feature separates its rows.
    ``candidates()`` is called only after the first three checks, so a node
    that stops draws nothing.  Nodes are grown in preorder from a stack of
    pending nodes, whose row sets are disjoint, so the sorted arrays alive at
    once stay within a few times the root's whatever the tree's depth.
    """
    root = TreeNode()
    stack = [(root, order, values, 0)]
    while stack:
        node, order, values, depth = stack.pop()
        node_target = target.take(order[0], axis=0)
        if (
            (node_target == node_target[0]).all()
            or node_target.shape[0] < params.min_samples_split
            or (params.max_depth is not None and depth >= params.max_depth)
        ):
            node.value = leaf_value(node_target)
            continue
        found = best_split(order, values, target, candidates(), gain)
        if found is None:
            node.value = leaf_value(node_target)
            continue
        f, threshold, _ = found
        goes_left = np.zeros(target.shape[0], dtype=bool)
        goes_left[order[f, :np.searchsorted(values[f], threshold, side="right")]] = True
        left = goes_left.take(order)
        node.feature, node.threshold = f, threshold
        node.left, node.right = TreeNode(), TreeNode()
        d = order.shape[0]
        # Right first, so the left subtree grows first: the forest's feature
        # draws follow preorder.
        for child, rows in ((node.right, ~left), (node.left, left)):
            at = np.flatnonzero(rows)
            stack.append((child, order.take(at).reshape(d, -1), values.take(at).reshape(d, -1),
                          depth + 1))
    return root


def fit_decision_tree(
    features: np.ndarray,
    labels: np.ndarray,
    params: TreeParams | None = None,
    seed: int = 0,
    features_per_split: int | None = None,
    allowed_features=None,
) -> TreeNode:
    """Grow a CART classification tree.

    ``features_per_split`` resamples that many candidate features at every
    split (random-forest mode, drawn from ``seed``); by default every feature
    is a candidate.  ``allowed_features`` restricts the candidate pool.
    """
    check_training_set(features, labels)
    d = features.shape[1]
    pool = list(range(d)) if allowed_features is None else sorted(allowed_features)
    if not pool:
        raise ValueError("allowed_features must name at least one feature")
    if not 0 <= pool[0] <= pool[-1] < d:
        raise ValueError(f"allowed_features must lie in 0..{d - 1}, got {pool}")
    if features_per_split is not None and features_per_split < 1:
        raise ValueError("features_per_split must be >= 1")
    rng = Xoshiro256StarStar(seed)
    if features_per_split is not None and features_per_split < len(pool):
        def candidates():
            return [pool[i] for i in rng.sample_indices(len(pool), features_per_split)]
    else:
        def candidates():
            return pool
    return _grow(*_presort(features), one_hot(labels), params or TreeParams(), _gini_gain,
                 lambda t: t.sum(axis=0).astype(np.int64), candidates)


def _route(root: TreeNode, features: np.ndarray):
    """Yield (leaf, row indices) for every leaf that rows of ``features`` reach.

    Rows keep their order, so the training rows recover each leaf's members.
    """
    stack = [(root, np.arange(features.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        if node.is_leaf:
            yield node, rows
            continue
        mask = features[rows, node.feature] <= node.threshold
        stack += [(node.right, rows[~mask]), (node.left, rows[mask])]


def predict_tree(root: TreeNode, features: np.ndarray) -> np.ndarray:
    """Route rows to leaves; argmax of leaf counts, lowest class on ties."""
    out = np.empty(features.shape[0], dtype=np.int64)
    for leaf, rows in _route(root, features):
        out[rows] = int(np.argmax(leaf.value))
    return out


def default_features_per_split(d: int) -> int:
    return int(np.ceil(np.sqrt(d)))


def fit_random_forest(
    features: np.ndarray,
    labels: np.ndarray,
    n_trees: int = 100,
    params: TreeParams | None = None,
    seed: int = 0,
    bootstrap: bool = True,
    features_per_split: int | None = None,
) -> ForestModel:
    """Bagged CART trees with per-split feature resampling (default ceil(sqrt(d)))."""
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    check_training_set(features, labels)
    n, d = features.shape
    m = default_features_per_split(d) if features_per_split is None else features_per_split
    if not 1 <= m <= d:
        raise ValueError("features_per_split must be in 1..d")
    trees = []
    for t in range(n_trees):
        tree_seed = derive_seed(seed, t)
        if bootstrap:
            rng = Xoshiro256StarStar(derive_seed(tree_seed, 0))
            rows = np.array([rng.below(n) for _ in range(n)], dtype=np.int64)
        else:
            rows = np.arange(n)
        trees.append(
            fit_decision_tree(
                features[rows],
                labels[rows],
                params,
                seed=derive_seed(tree_seed, 1),
                features_per_split=m if m < d else None,
            )
        )
    return ForestModel(trees=trees, seed=seed, features_per_split=m)


def predict_forest(model: ForestModel, features: np.ndarray) -> np.ndarray:
    """Majority vote over trees; lowest class index on ties."""
    votes = np.zeros((features.shape[0], N_CLASSES), dtype=np.int64)
    for tree in model.trees:
        pred = predict_tree(tree, features)
        votes[np.arange(features.shape[0]), pred] += 1
    return votes.argmax(axis=1)


def fit_gradient_boost(
    features: np.ndarray,
    labels: np.ndarray,
    n_stages: int = 100,
    learning_rate: float = 0.1,
    max_depth: int = 3,
    seed: int = 0,
) -> BoostModel:
    """Multiclass gradient boosting with softmax (multinomial deviance) loss.

    Stage m fits one depth-limited regression tree per class to the
    pseudo-residuals ``one_hot - softmax(F)`` evaluated at the scores before
    the stage, then sets each leaf by the one-step Newton estimate
    ``(K-1)/K * sum(r) / sum(p (1 - p))``.
    """
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError(f"learning_rate must be finite and > 0, got {learning_rate!r}")
    if n_stages < 0:
        raise ValueError("stage count must be >= 0")
    check_training_set(features, labels)
    n = features.shape[0]
    del seed  # no subsampling; fits are deterministic
    counts = np.bincount(labels, minlength=N_CLASSES).astype(np.float64)
    priors = np.maximum(counts / n, 1e-12)
    init_scores = np.log(priors)
    onehot = one_hot(labels)
    scores = np.tile(init_scores, (n, 1))
    params = TreeParams(max_depth)
    order, values = _presort(features)
    every_feature = range(features.shape[1])
    stages: list[tuple[TreeNode, ...]] = []
    for _ in range(n_stages):
        probs = softmax(scores)
        residual = onehot - probs
        stage = []
        for k in range(N_CLASSES):
            tree = _grow(order, values, residual[:, k], params, _sse_gain,
                         lambda t: 0.0, lambda: every_feature)
            for leaf, rows in _route(tree, features):
                numerator = residual[rows, k].sum() * (N_CLASSES - 1) / N_CLASSES
                p = probs[rows, k]
                denominator = (p * (1.0 - p)).sum()
                leaf.value = 0.0 if abs(denominator) < 1e-150 else float(numerator / denominator)
                scores[rows, k] += learning_rate * leaf.value
            stage.append(tree)
        stages.append(tuple(stage))
    return BoostModel(init_scores=init_scores, stages=stages, learning_rate=learning_rate)


def boost_raw_scores(model: BoostModel, features: np.ndarray) -> np.ndarray:
    scores = np.tile(model.init_scores, (features.shape[0], 1))
    for stage in model.stages:
        for k, tree in enumerate(stage):
            for leaf, rows in _route(tree, features):
                scores[rows, k] += model.learning_rate * leaf.value
    return scores


def predict_boost_proba(model: BoostModel, features: np.ndarray) -> np.ndarray:
    return softmax(boost_raw_scores(model, features))


def predict_boost(model: BoostModel, features: np.ndarray) -> np.ndarray:
    return predict_boost_proba(model, features).argmax(axis=1)


def export_tree_text(root: TreeNode, feature_names: list[str]) -> str:
    """DOT digraph of a classification tree of any depth; node ids follow preorder."""
    lines = ["digraph tree {", "  node [shape=box];"]
    # A pending entry is a node with its parent's id, or the edge line from
    # the parent, pushed under the node's children so it follows the subtree.
    stack = [(root, None)]
    node_id = -1
    while stack:
        node, parent_id = stack.pop()
        if isinstance(node, str):
            lines.append(node)
            continue
        node_id += 1
        if parent_id is not None:
            stack.append((f"  n{parent_id} -> n{node_id};", None))
        if node.is_leaf:
            cls = CLASS_NAMES[int(np.argmax(node.value))]
            counts = ", ".join(str(int(c)) for c in node.value)
            lines.append(f'  n{node_id} [label="{cls}\\ncounts=[{counts}]"];')
        else:
            lines.append(
                f'  n{node_id} [label="{feature_names[node.feature]} <= {node.threshold!r}"];'
            )
            stack += [(node.right, node_id), (node.left, node_id)]
    lines.append("}")
    return "\n".join(lines) + "\n"
