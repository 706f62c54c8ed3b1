"""CART decision trees plus the two tree ensembles (random forest, boosting).

All trees split on ``value <= threshold`` (left) vs ``> threshold`` (right),
with candidate thresholds at midpoints between consecutive distinct sorted
values.  Ties are broken by lowest feature index, then lowest threshold, so
fits are fully deterministic.  An impure node may take a zero-gain split:
greedy Gini gain alone cannot separate XOR-style layouts, and the trees are
expected to drive training error to zero whenever the data is consistent.

Classification and regression trees share one grower and one split search;
only the gain differs: the Gini decrease on one-hot labels, or minus the
children's squared error on boosting residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CLASS_NAMES, N_CLASSES, one_hot
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


def gini_impurity(counts) -> float:
    """1 - sum(p_i^2) for a class-count vector; 0 for pure, 0.75 for uniform."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise ValueError("gini_impurity needs at least one sample")
    p = counts / total
    return float(1.0 - (p * p).sum())


def _gini_gain(target: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Gini impurity decrease of each cut of one-hot rows sorted by a feature."""
    n = target.shape[0]
    cum = np.cumsum(target, axis=0)
    totals = cum[-1]
    parent = 1.0 - ((totals / n) ** 2).sum()
    left = cum[cuts]
    right = totals[None, :] - left
    n_left = (cuts + 1).astype(np.float64)
    n_right = n - n_left
    gini_left = 1.0 - ((left / n_left[:, None]) ** 2).sum(axis=1)
    gini_right = 1.0 - ((right / n_right[:, None]) ** 2).sum(axis=1)
    return parent - (n_left * gini_left + n_right * gini_right) / n


def _sse_gain(target: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Minus the children's summed squared error for each cut of sorted values."""
    cum = np.cumsum(target)
    cum2 = np.cumsum(target * target)
    n_left = (cuts + 1).astype(np.float64)
    n_right = target.shape[0] - n_left
    sse_left = cum2[cuts] - cum[cuts] ** 2 / n_left
    sse_right = (cum2[-1] - cum2[cuts]) - (cum[-1] - cum[cuts]) ** 2 / n_right
    return -(sse_left + sse_right)


def best_split(features: np.ndarray, target: np.ndarray, candidate_features, gain):
    """Best (feature, threshold, gain) over the candidate features.

    ``gain(sorted_target, cuts)`` scores every cut of the rows sorted by one
    feature, where cut ``i`` puts sorted rows ``0..i`` on the left.  Returns
    None when no candidate has two distinct values.  Zero-gain splits are
    returned (see module docstring).
    """
    best = None  # (gain, feature, threshold)
    for f in sorted(candidate_features):
        col = features[:, f]
        order = np.argsort(col, kind="stable")
        sv = col[order]
        cuts = np.nonzero(sv[:-1] != sv[1:])[0]
        if cuts.size == 0:
            continue
        scores = gain(target[order], cuts)
        i = int(np.argmax(scores))  # first max -> lowest threshold
        if best is None or scores[i] > best[0]:
            threshold = (sv[cuts[i]] + sv[cuts[i] + 1]) / 2.0
            best = (float(scores[i]), f, float(threshold))
    if best is None:
        return None
    return best[1], best[2], best[0]


def _grow(features: np.ndarray, target: np.ndarray, params: TreeParams, gain, leaf,
          candidates, depth: int = 0) -> TreeNode:
    """Grow a tree on ``target`` (one-hot rows or a vector of reals).

    A node becomes ``leaf(target)`` when its targets are all equal, it has
    fewer than ``params.min_samples_split`` rows, it is at ``params.max_depth``
    or no candidate feature separates its rows.  ``candidates()`` is called
    only after the first three checks, so a node that stops draws nothing.
    """
    if (
        (target == target[0]).all()
        or target.shape[0] < params.min_samples_split
        or (params.max_depth is not None and depth >= params.max_depth)
    ):
        return leaf(target)
    found = best_split(features, target, candidates(), gain)
    if found is None:
        return leaf(target)
    f, threshold, _ = found
    left = features[:, f] <= threshold
    right = ~left
    return TreeNode(
        feature=f,
        threshold=threshold,
        left=_grow(features[left], target[left], params, gain, leaf, candidates, depth + 1),
        right=_grow(features[right], target[right], params, gain, leaf, candidates, depth + 1),
    )


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
    if features.shape[0] == 0:
        raise ValueError("empty training set")
    d = features.shape[1]
    pool = list(range(d)) if allowed_features is None else sorted(allowed_features)
    rng = Xoshiro256StarStar(seed)
    if features_per_split is not None and features_per_split < len(pool):
        def candidates():
            return [pool[i] for i in rng.sample_indices(len(pool), features_per_split)]
    else:
        def candidates():
            return pool
    return _grow(features, one_hot(labels), params or TreeParams(), _gini_gain,
                 lambda t: TreeNode(value=t.sum(axis=0).astype(np.int64)), candidates)


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
    if features.shape[0] == 0:
        raise ValueError("empty training set")
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
    if learning_rate <= 0:
        raise ValueError("learning rate must be positive")
    if n_stages < 0:
        raise ValueError("stage count must be >= 0")
    n = features.shape[0]
    if n == 0:
        raise ValueError("empty training set")
    del seed  # no subsampling; fits are deterministic
    counts = np.bincount(labels, minlength=N_CLASSES).astype(np.float64)
    priors = np.maximum(counts / n, 1e-12)
    init_scores = np.log(priors)
    onehot = one_hot(labels)
    scores = np.tile(init_scores, (n, 1))
    params = TreeParams(max_depth)
    every_feature = range(features.shape[1])
    stages: list[tuple[TreeNode, ...]] = []
    for _ in range(n_stages):
        probs = softmax(scores)
        residual = onehot - probs
        stage = []
        for k in range(N_CLASSES):
            tree = _grow(features, residual[:, k], params, _sse_gain,
                         lambda t: TreeNode(), lambda: every_feature)
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
    """DOT digraph of a classification tree; node ids follow preorder."""
    lines = ["digraph tree {", "  node [shape=box];"]
    counter = 0

    def emit(node: TreeNode) -> int:
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
