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

Each fit sorts every column once (the presort of CART, Breiman et al. 1984),
by one rule (``_presort``): the rows are taken in the stable argsort of their
values' ranks (``_rank_table``).  Equal values share a rank, so this is the
order a stable float sort would give.  A boosting fit shares its sort across
all of its trees; a forest ranks the columns once and sorts each tree's
bootstrap rows by those ranks.  A child keeps its parent's row orders
filtered by the split.  Node rows keep their training order, so a filtered
stable order is exactly the node's own stable argsort, bootstrap duplicates
included: every node scores the same sorted targets as a per-node sort
would.  The cumulative sums run sequentially, each four-class sum adds left
to right, and class-count leaves are exact integer sums, so the trees are
bit-identical to ones grown with a sort at every node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .dataset import (CLASS_NAMES, N_CLASSES, check_count, check_finite, check_positive,
                      check_training_set, one_hot)
from .neural import softmax
from .parallel import fork_map
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


# a boosting tree, whose leaves hold scores where a classification tree's hold counts
RegressionTree = Annotated[TreeNode, "regression"]

# A tree's preorder form, as a model document stores it: one list per key, indexed by
# preorder node number.  A leaf has feature, left and right -1; an inner node's value
# is zero in its leaves' shape.
TREE_KEYS = ("feature", "threshold", "left", "right", "value")


def tree_to_lists(root: TreeNode) -> dict:
    """The ``TREE_KEYS`` lists of ``root``'s tree, in plain numbers."""
    nodes = []
    stack = [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not node.is_leaf:
            stack += [node.right, node.left]
    index = {id(node): i for i, node in enumerate(nodes)}
    zero = np.zeros_like(next(n for n in nodes if n.is_leaf).value).tolist()
    return {
        "feature": [-1 if n.is_leaf else n.feature for n in nodes],
        "threshold": [n.threshold for n in nodes],
        "left": [-1 if n.is_leaf else index[id(n.left)] for n in nodes],
        "right": [-1 if n.is_leaf else index[id(n.right)] for n in nodes],
        "value": [np.asarray(n.value).tolist() if n.is_leaf else zero for n in nodes],
    }


# read once: every forest fit rebuilds each leaf through ``_leaf_value``
_INT64_MAX = int(np.iinfo(np.int64).max)


def _leaf_value(i: int, leaf, regression: bool):
    """Leaf ``i``'s finite regression score, or its class counts (``N_CLASSES`` int64s >= 0)."""
    if regression:
        check_finite(f"tree node {i}'s value", leaf, ())
        return leaf
    if not isinstance(leaf, list) or len(leaf) != N_CLASSES:
        raise ValueError(f"tree node {i}'s class counts must be a list of {N_CLASSES} "
                         f"integers, got {leaf!r}")
    for count in leaf:
        check_count(f"tree node {i}'s class count", count, 0)
        if count > _INT64_MAX:
            raise ValueError(f"tree node {i}'s class count {count} is beyond the int64 range")
    return np.array(leaf, dtype=np.int64)


def tree_from_lists(lists: dict, regression: bool) -> TreeNode:
    """The tree of ``lists``, a dict of the ``TREE_KEYS`` lists as a document holds them;
    a ``ValueError`` names the first node at fault."""
    feature, threshold, left, right, value = columns = [lists[k] for k in TREE_KEYS]
    if not all(isinstance(c, list) and len(c) == len(feature) > 0 for c in columns):
        raise ValueError("a tree's lists must be non-empty and of one length")
    n = len(feature)
    nodes = [TreeNode() for _ in range(n)]
    for i, node in enumerate(nodes):
        check_finite(f"tree node {i}'s threshold", threshold[i], ())
        if feature[i] == -1:
            node.value = _leaf_value(i, value[i], regression)
            continue
        f = feature[i]
        if isinstance(f, bool) or not isinstance(f, int) or f < 0:
            raise ValueError(f"tree node {i} has feature {f!r}; an inner node's feature "
                             f"must be an integer >= 0")
        # children after their parent: every path ends, so routing cannot loop
        if not all(type(c) is int and i < c < n for c in (left[i], right[i])):
            raise ValueError(f"tree node {i} has children {left[i]!r} and {right[i]!r}; "
                             f"both must lie in {i + 1}..{n - 1}")
        node.feature, node.threshold = f, threshold[i]
        node.left, node.right = nodes[left[i]], nodes[right[i]]
    # a tree, which ``tree_to_lists`` and export read back: no node shared or left out
    children = [c for i, f in enumerate(feature) if f != -1 for c in (left[i], right[i])]
    if sorted(children) != list(range(1, n)):
        raise ValueError("every tree node but node 0 must be the child of exactly one node")
    return nodes[0]


@dataclass
class TreeParams:
    max_depth: int | None  # None grows until the other stopping rules hold
    min_samples_split: int

    def __post_init__(self):
        if self.max_depth is not None:
            check_count("max_depth", self.max_depth, 0)
        check_count("min_samples_split", self.min_samples_split, 2)


@dataclass
class ForestModel:
    trees: list[TreeNode]

    def __post_init__(self):
        check_count("n_trees", len(self.trees), 1)


@dataclass
class BoostModel:
    init_scores: np.ndarray  # per-class log prior, length 4
    stages: list[tuple[RegressionTree, ...]]  # one tree per class; leaves hold shrunk steps

    def __post_init__(self):
        check_finite("init_scores", self.init_scores, (N_CLASSES,))
        for m, stage in enumerate(self.stages):
            if len(stage) != N_CLASSES:
                raise ValueError(f"stage {m} must hold {N_CLASSES} trees, got {len(stage)}")


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
    ``c`` candidate features.  Returns ``(c, m - 1)`` scores: with prefix
    sums ``S`` and ``Q`` of the residuals and of their squares, and ``i`` rows
    on the left, ``-((Q_i - S_i**2 / i) + ((Q_m - Q_i) - (S_m - S_i)**2 / (m - i)))``,
    evaluated in place in that order.
    """
    m = sorted_target.shape[1]
    cum = np.cumsum(sorted_target, axis=1)
    cum2 = np.multiply(sorted_target, sorted_target)
    np.cumsum(cum2, axis=1, out=cum2)
    left, left2 = cum[:, :-1], cum2[:, :-1]
    n_left = np.arange(1.0, m)
    n_right = m - n_left
    score = np.multiply(left, left)
    score /= n_left
    np.subtract(left2, score, out=score)  # the left child's SSE
    np.subtract(cum[:, -1:], left, out=left)
    left *= left
    left /= n_right
    np.subtract(cum2[:, -1:], left2, out=left2)
    left2 -= left  # the right child's SSE
    score += left2
    return np.negative(score, out=score)


def _rank_table(features: np.ndarray) -> np.ndarray:
    """``(d, n)`` dense ranks of each column's values, equal values sharing a rank.

    The ranks are ``uint16``, whose stable sort numpy does by radix, when
    no column has more than 65,536 distinct values, and ``int64`` otherwise.
    """
    ranks = np.stack([np.unique(column, return_inverse=True)[1] for column in features.T])
    return ranks.astype(np.uint16) if ranks.max() <= np.iinfo(np.uint16).max else ranks


def _presort(columns: np.ndarray, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, values)``, both ``(d, n)``: the stable argsort of each row of ``ranks``
    (``_rank_table`` of ``columns``) and the row of ``columns`` taken in that order.
    """
    order = np.argsort(ranks, axis=1, kind="stable")
    return order, np.take_along_axis(columns, order, axis=1)


def best_split(order: np.ndarray, values: np.ndarray, target: np.ndarray,
               candidate_features, gain):
    """Best (feature, threshold, gain) of one node over the candidate features.

    ``order[j]`` lists the node's rows sorted by feature ``j`` and
    ``values[j]`` their values of it (see ``_presort``).  ``gain`` scores the
    node's targets sorted by every candidate at once (see ``_gini_gain``).
    Only cuts between distinct values count; the highest score wins, ties
    going to the lowest feature, then the lowest threshold.  Ties are of the
    float scores: two cuts of equal exact gain may score a rounding error
    apart, and then the higher of the two wins.  Returns None
    when no candidate has two distinct values.  Zero-gain splits are
    returned (see module docstring).
    """
    candidates = sorted(candidate_features)
    sv = values
    if candidates != list(range(order.shape[0])):
        order, sv = order[candidates], values[candidates]
    # ``take`` and ``flatnonzero`` rather than fancy and boolean indexing:
    # several times faster on these shapes, with the same result.
    scores = gain(target.take(order, axis=0)).ravel()
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
    leaf with value ``leaf_value(node targets, node rows)`` when its targets
    are all equal, it has fewer than ``params.min_samples_split`` rows, it is
    at ``params.max_depth`` or no candidate feature separates its rows.
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
        stop = ((node_target == node_target[0]).all()
                or node_target.shape[0] < params.min_samples_split
                or (params.max_depth is not None and depth >= params.max_depth))
        found = None if stop else best_split(order, values, target, candidates(), gain)
        if found is None:
            node.value = leaf_value(node_target, order[0])
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


def _class_counts(node_target: np.ndarray, _rows: np.ndarray) -> np.ndarray:
    """Leaf value of a classification tree: the class counts of its one-hot rows."""
    return node_target.sum(axis=0).astype(np.int64)


def fit_decision_tree(
    features: np.ndarray,
    labels: np.ndarray,
    params: TreeParams,
    seed: int = 0,
) -> TreeNode:
    """Grow a CART classification tree on every column of ``features``."""
    del seed  # the fit draws nothing
    check_training_set(features, labels)
    sorted_rows = _presort(np.ascontiguousarray(features.T), _rank_table(features))
    return _grow(*sorted_rows, one_hot(labels), params, _gini_gain, _class_counts,
                 lambda: range(features.shape[1]))


def _route(root: TreeNode, features: np.ndarray):
    """Yield (leaf, row indices) for every leaf that rows of ``features`` reach.

    Non-finite rows, or a node that splits on a feature the rows lack, raise ``ValueError``.
    """
    check_finite("features", features, (None, None))
    stack = [(root, np.arange(features.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        if node.is_leaf:
            yield node, rows
            continue
        if node.feature >= features.shape[1]:
            raise ValueError(f"a tree node splits on feature {node.feature}, but the input "
                             f"rows have {features.shape[1]} features")
        mask = features[rows, node.feature] <= node.threshold
        stack += [(node.right, rows[~mask]), (node.left, rows[mask])]


def predict_tree(root: TreeNode, features: np.ndarray) -> np.ndarray:
    """Route rows to leaves; argmax of leaf counts, lowest class on ties."""
    out = np.empty(features.shape[0], dtype=np.int64)
    for leaf, rows in _route(root, features):
        out[rows] = int(np.argmax(leaf.value))
    return out


def fit_random_forest(
    features: np.ndarray,
    labels: np.ndarray,
    n_trees: int,
    params: TreeParams,
    seed: int = 0,
) -> ForestModel:
    """Bagged CART trees, each split choosing among ceil(sqrt(d)) random features.

    Tree ``t`` draws only from seeds derived from ``(seed, t)``, so ``fork_map``
    grows the trees in forked workers.  A tree comes back as its
    ``tree_to_lists`` form, since pickle recurses once per tree level.
    """
    check_count("n_trees", n_trees, 1)
    check_training_set(features, labels)
    n, d = features.shape
    m = math.ceil(math.sqrt(d))
    columns = np.ascontiguousarray(features.T)
    ranks = _rank_table(features)

    def grow(t: int) -> dict:
        tree_seed = derive_seed(seed, t)
        rows = np.array(Xoshiro256StarStar(derive_seed(tree_seed, 0)).below_each([n] * n),
                        dtype=np.int64)
        draw = Xoshiro256StarStar(derive_seed(tree_seed, 1))

        def candidates():
            return draw.sample_indices(d, m) if m < d else range(d)

        sorted_rows = _presort(columns.take(rows, axis=1), ranks.take(rows, axis=1))
        return tree_to_lists(_grow(*sorted_rows, one_hot(labels[rows]), params, _gini_gain,
                                   _class_counts, candidates))

    return ForestModel(trees=[tree_from_lists(tree, regression=False)
                              for tree in fork_map(grow, range(n_trees))])


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
    n_stages: int,
    learning_rate: float,
    max_depth: int,
    seed: int = 0,
) -> BoostModel:
    """Multiclass gradient boosting with softmax (multinomial deviance) loss.

    Stage m fits one depth-limited regression tree per class to the
    pseudo-residuals ``one_hot - softmax(F)`` evaluated at the scores before
    the stage; the grower sets each leaf to the shrunk one-step Newton step
    ``learning_rate * (K-1)/K * sum(r) / sum(p (1 - p))`` over the leaf's rows.
    """
    check_positive("learning_rate", learning_rate)
    check_count("n_stages", n_stages, 0)
    check_training_set(features, labels)
    n = features.shape[0]
    del seed  # no subsampling; fits are deterministic
    counts = np.bincount(labels, minlength=N_CLASSES).astype(np.float64)
    init_scores = np.log(np.maximum(counts / n, 1e-12))  # log priors
    onehot = one_hot(labels)
    scores = np.tile(init_scores, (n, 1))
    params = TreeParams(max_depth, min_samples_split=2)
    order, values = _presort(np.ascontiguousarray(features.T), _rank_table(features))
    stages: list[tuple[TreeNode, ...]] = []
    for _ in range(n_stages):
        probs = softmax(scores)
        residual = onehot - probs
        stage = []
        for k in range(N_CLASSES):
            def newton_leaf(_, rows):
                rows = np.sort(rows)  # the sums below add in training order
                numerator = residual[rows, k].sum() * (N_CLASSES - 1) / N_CLASSES
                p = probs[rows, k]
                denominator = (p * (1.0 - p)).sum()
                value = learning_rate * (0.0 if abs(denominator) < 1e-150
                                         else float(numerator / denominator))
                scores[rows, k] += value
                return value
            stage.append(_grow(order, values, residual[:, k], params, _sse_gain,
                               newton_leaf, lambda: range(features.shape[1])))
        stages.append(tuple(stage))
    return BoostModel(init_scores=init_scores, stages=stages)


def boost_raw_scores(model: BoostModel, features: np.ndarray) -> np.ndarray:
    scores = np.tile(model.init_scores, (features.shape[0], 1))
    for stage in model.stages:
        for k, tree in enumerate(stage):
            for leaf, rows in _route(tree, features):
                scores[rows, k] += leaf.value
    return scores


def predict_boost_proba(model: BoostModel, features: np.ndarray) -> np.ndarray:
    return softmax(boost_raw_scores(model, features))


def predict_boost(model: BoostModel, features: np.ndarray) -> np.ndarray:
    return predict_boost_proba(model, features).argmax(axis=1)


def export_tree_text(root: TreeNode, feature_names: list[str]) -> str:
    """DOT digraph of a classification tree of any depth; node ids follow preorder."""
    tree = tree_to_lists(root)
    feature, left, right = tree["feature"], tree["left"], tree["right"]
    parent = {c: i for i, f in enumerate(feature) if f != -1 for c in (left[i], right[i])}
    lines = ["digraph tree {", "  node [shape=box];"]
    for i, (f, threshold, value) in enumerate(zip(feature, tree["threshold"], tree["value"])):
        if f != -1:
            lines.append(f'  n{i} [label="{feature_names[f]} <= {threshold!r}"];')
            continue
        cls = CLASS_NAMES[int(np.argmax(value))]
        counts = ", ".join(str(int(c)) for c in value)
        lines.append(f'  n{i} [label="{cls}\\ncounts=[{counts}]"];')
        # the edge into a subtree follows the subtree's last node, a leaf: this leaf ends
        # its own subtree and, up each right child, its parent's
        ends = [i]
        while ends[-1] and right[parent[ends[-1]]] == ends[-1]:
            ends.append(parent[ends[-1]])
        lines += [f"  n{parent[c]} -> n{c};" for c in ends if c]
    lines.append("}")
    return "\n".join(lines) + "\n"
