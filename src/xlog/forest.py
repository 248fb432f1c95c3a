"""CART decision trees and a bagged random forest with gini importance.

Split search maximizes gini gain over a fresh random feature subset at each
node. Candidate thresholds are midpoints of adjacent distinct sorted values;
ties break toward the lowest feature index, then the lowest threshold, so a
fitted tree is reproducible against an exhaustive search.

A tree is a set of parallel per-node arrays, the layout Louppe describes in
*Understanding Random Forests* (arXiv:1407.7502, ch. 5). Growing, predicting,
importance and checkpoints walk them with loops and stacks, never recursion,
so tree depth is bounded only by the number of rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import svgplot

#: feature and child id of a leaf
LEAF = -1

#: byte budget of the cumulative class counts a split search holds at once
SPLIT_BLOCK_BYTES = 256 * 1024


def gini(histogram):
    """Gini impurity 1 - sum(p_c^2) of a class-count histogram, or of each
    row of a stack of histograms."""
    counts = np.asarray(histogram, dtype=float)
    total = counts.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("empty histogram")
    p = counts / total
    return 1.0 - np.sum(p * p, axis=-1)


@dataclass
class Tree:
    """Parallel per-node arrays. Node 0 is the root and ids follow a
    pre-order walk (node, left subtree, right subtree); a leaf has ``LEAF``
    as its feature and both children. Rows with ``x[feature] <= threshold``
    go left."""
    feature: np.ndarray    # (nodes,) int64
    threshold: np.ndarray  # (nodes,) float64
    left: np.ndarray       # (nodes,) int64
    right: np.ndarray      # (nodes,) int64
    histogram: np.ndarray  # (nodes, classes) float64 class counts of the node's rows


def _best_split(XT, rows, y, n_classes, feature_subset, min_leaf):
    """Best (score, feature, threshold) over the subset for the node holding
    ``rows`` of the tree's feature-major matrix ``XT`` (labels ``y``); None
    when no valid candidate exists. Score is sum(count^2)/n per side, a
    monotone transform of negative weighted child impurity that is exact on
    integer class counts. Gini decrease is never negative, and zero-gain
    splits are taken (a consistent dataset is always memorized, XOR
    included).

    The subset is searched in blocks of features whose cumulative class
    counts fit ``SPLIT_BLOCK_BYTES``. A block gathers the node's values of
    its features, one contiguous row per feature, drops the features that
    are constant at the node and sorts the rest at once. Candidate (j, i)
    splits feature j after sorted position i. Only the positions where the
    sorted value changes and both sides keep ``min_leaf`` rows are scored:
    the class counts there do not depend on the order of tied values, so the
    sort need not be stable. ``np.nonzero`` lists the candidates
    feature-major, so the first maximum is at the lowest feature, then the
    lowest threshold. The threshold is the midpoint of the two values a < b
    around the split, or a where the midpoint rounds onto b (adjacent floats)
    or leaves [a, b) by overflow or infinities; every threshold then sends
    both sides' rows apart. ``min_leaf`` must be at least 1."""
    n = len(y)
    parent_counts = np.bincount(y, minlength=n_classes)
    lo, hi = min_leaf - 1, n - min_leaf  # valid i: lo <= i < hi
    classes = np.arange(n_classes)[:, None]
    width = max(1, SPLIT_BLOCK_BYTES // (8 * n * n_classes))
    best = None  # (score, feature, threshold)
    for start in range(0, len(feature_subset), width):
        block = feature_subset[start:start + width]
        cols = XT[block[:, None], rows]
        varies = (cols != cols[:, :1]).any(axis=1)
        if not varies.all():
            block, cols = block[varies], cols[varies]
            if not len(block):
                continue
        order = np.argsort(cols, axis=1)
        v = cols.ravel()[order + (np.arange(len(block)) * n)[:, None]]
        j, i = np.nonzero(v[:, lo:hi] != v[:, lo + 1:hi + 1])
        if not len(j):
            continue
        i += lo
        left = np.cumsum(y[order][:, None, :] == classes, axis=2)[j, :, i]
        right = parent_counts - left
        n_left = i + 1
        score = (np.einsum("kc,kc->k", left, left) / n_left
                 + np.einsum("kc,kc->k", right, right) / (n - n_left))
        k = int(np.argmax(score))
        if best is None or score[k] > best[0]:
            a, b = float(v[j[k], i[k]]), float(v[j[k], i[k] + 1])  # Python floats: no overflow warning
            thr = (a + b) / 2.0
            if not a <= thr < b:  # rounded onto b, or overflowed: would not split
                thr = a
            best = (float(score[k]), int(block[j[k]]), thr)
    return best


def fit_tree(X, Y, max_features: int, rng: np.random.Generator,
             min_leaf: int = 1, max_depth: int | None = None,
             n_classes: int | None = None) -> Tree:
    """Grow a CART classification tree.

    A fresh feature subset of size ``max_features`` is drawn from ``rng`` at
    each node; growth stops on purity, fewer than ``2 * min_leaf`` rows,
    ``max_depth``, or when no candidate split exists in the drawn subset.
    ``X`` may not hold NaN; infinities are split like other values.
    ``min_leaf`` below 1 acts as 1: every side of a split holds a row.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=np.int64)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("X must be a non-empty 2-D matrix")
    if max_features < 1:
        raise ValueError("max_features must be >= 1")
    if np.isnan(X).any():  # a NaN threshold would send every row right, forever
        raise ValueError("X holds NaN")
    min_leaf = max(min_leaf, 1)
    if n_classes is None:
        n_classes = int(Y.max()) + 1
    n_features = X.shape[1]
    m = min(max_features, n_features)
    XT = np.ascontiguousarray(X.T)  # a node's rows of one feature are one gather
    nodes, histogram = [], []  # nodes[i] = [feature, threshold, left, right]
    # The left child is pushed last, so it is popped next and gets id node+1;
    # nodes draw their subsets from rng in pre-order, left before right.
    stack = [(np.arange(len(Y)), 0, LEAF)]  # rows, depth, parent if a right child
    while stack:
        rows, depth, right_of = stack.pop()
        node = len(nodes)
        if right_of != LEAF:
            nodes[right_of][3] = node
        y = Y[rows]
        histogram.append(np.bincount(y, minlength=n_classes).astype(float))
        nodes.append([LEAF, 0.0, LEAF, LEAF])
        pure = np.count_nonzero(histogram[node]) <= 1
        if pure or len(rows) < 2 * min_leaf or (max_depth is not None and depth >= max_depth):
            continue
        subset = np.sort(rng.choice(n_features, size=m, replace=False))
        best = _best_split(XT, rows, y, n_classes, subset, min_leaf)
        if best is None:
            continue
        _, f, thr = best
        nodes[node][:3] = f, thr, node + 1
        go_left = XT[f, rows] <= thr
        stack.append((rows[~go_left], depth + 1, node))
        stack.append((rows[go_left], depth + 1, LEAF))
    feature, threshold, left, right = zip(*nodes)
    return Tree(np.asarray(feature, dtype=np.int64), np.asarray(threshold, dtype=float),
                np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64),
                np.asarray(histogram))


@dataclass
class ForestModel:
    trees: list[Tree]
    n_estimators: int
    max_features: int
    seed: int
    feature_names: list[str]
    label_names: list[str]
    min_leaf: int = 1

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def n_classes(self) -> int:
        return len(self.label_names)


def fit_forest(X, Y, n_estimators: int, max_features: int, seed: int,
               min_leaf: int = 1, feature_names: list[str] | None = None,
               label_names: list[str] | None = None) -> ForestModel:
    """Fit ``n_estimators`` trees on bootstrap samples; tree ``t`` draws its
    sample, then its feature subsets, from ``default_rng(seed + t)``."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=np.int64)
    if n_estimators < 1:
        raise ValueError("n_estimators must be >= 1")
    n, f = X.shape
    n_classes = int(Y.max()) + 1
    if feature_names is None:
        feature_names = [f"x{j}" for j in range(f)]
    if label_names is None:
        label_names = [str(c) for c in range(n_classes)]
    XT = np.ascontiguousarray(X.T)  # a tree's sample XT[:, sample].T is then feature-major
    trees = []
    for t in range(n_estimators):
        rng = np.random.default_rng(seed + t)
        sample = rng.integers(0, n, size=n)
        trees.append(fit_tree(XT[:, sample].T, Y[sample], min(max_features, f), rng,
                              min_leaf=min_leaf, n_classes=n_classes))
    return ForestModel(trees=trees, n_estimators=n_estimators,
                       max_features=min(max_features, f), seed=seed,
                       feature_names=feature_names, label_names=label_names,
                       min_leaf=min_leaf)


def tree_proba(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Class-frequency vector of the leaf each row of the float matrix ``X``
    reaches; all rows descend one level per step."""
    node = np.zeros(len(X), dtype=np.int64)
    rows = np.arange(len(X))
    while rows.size:
        at = node[rows]
        inner = tree.feature[at] != LEAF
        rows, at = rows[inner], at[inner]
        go_left = X[rows, tree.feature[at]] <= tree.threshold[at]
        node[rows] = np.where(go_left, tree.left[at], tree.right[at])
    h = tree.histogram[node]
    return h / h.sum(axis=1, keepdims=True)


def predict_proba(model: ForestModel, X) -> np.ndarray:
    """Mean of per-tree leaf class-frequency vectors; rows sum to 1."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(
            f"expected {model.n_features} columns, got {X.shape}"
        )
    acc = np.zeros((len(X), model.n_classes))
    for tree in model.trees:
        acc += tree_proba(tree, X)
    return acc / len(model.trees)


def predict(model: ForestModel, X) -> np.ndarray:
    return np.argmax(predict_proba(model, X), axis=1)


@dataclass
class ImportanceReport:
    feature_names: list[str]
    importances: np.ndarray
    all_leaves: bool = False

    def top(self, k: int) -> list[tuple[str, float]]:
        order = np.argsort(-self.importances, kind="stable")[:k]
        return [(self.feature_names[i], float(self.importances[i])) for i in order]

    def to_dict(self) -> dict:
        return {"importances": {n: float(v) for n, v in
                                zip(self.feature_names, self.importances)},
                "all_leaves": self.all_leaves}

    def to_svg(self, k: int = 5, meta: str = "") -> str:
        pairs = self.top(k)
        return svgplot.barh_chart([p[0] for p in pairs], [p[1] for p in pairs],
                                  title=f"top {k} gini importance", meta=meta)


def _postorder(tree: Tree) -> np.ndarray:
    """Ids of the split nodes, each after its left then its right subtree."""
    order, stack = [], [0]
    while stack:
        node = stack.pop()
        if tree.feature[node] != LEAF:
            order.append(node)
            stack += (tree.left[node], tree.right[node])
    return np.asarray(order[::-1], dtype=np.int64)


def gini_importance(model: ForestModel) -> ImportanceReport:
    """Mean decrease in impurity per feature, normalized to sum 1.

    All-leaf forests yield a zero report with ``all_leaves`` set. High
    cardinality columns are known to inflate this measure; no bias correction
    is applied.
    """
    total = np.zeros(model.n_features)
    for tree in model.trees:
        # each split adds (node fraction x gain) to its feature, in post-order
        split = _postorder(tree)
        h, hl, hr = (tree.histogram[ids] for ids in (split, tree.left[split], tree.right[split]))
        n, nl, nr = h.sum(axis=1), hl.sum(axis=1), hr.sum(axis=1)
        gain = gini(h) - (nl / n) * gini(hl) - (nr / n) * gini(hr)
        imp = np.zeros(model.n_features)
        np.add.at(imp, tree.feature[split], (n / tree.histogram[0].sum()) * gain)
        total += imp
    total /= len(model.trees)
    s = total.sum()
    if s <= 0:
        return ImportanceReport(model.feature_names, total, all_leaves=True)
    return ImportanceReport(model.feature_names, total / s)


def to_json(model: ForestModel, meta: dict | None = None) -> str:
    payload = {
        "kind": "forest",
        "n_estimators": model.n_estimators,
        "max_features": model.max_features,
        "seed": model.seed,
        "min_leaf": model.min_leaf,
        "feature_names": model.feature_names,
        "label_names": model.label_names,
        "trees": [{"feature": t.feature.tolist(), "threshold": t.threshold.tolist(),
                   "left": t.left.tolist(), "right": t.right.tolist(),
                   "histogram": t.histogram.astype(np.int64).ravel().tolist()}
                  for t in model.trees],
    }
    if meta:
        payload["meta"] = meta
    return json.dumps(payload)


def from_json(text: str) -> ForestModel:
    d = json.loads(text)
    if not isinstance(d, dict) or d.get("kind") != "forest":
        raise ValueError("not a forest checkpoint")
    n_classes = len(d["label_names"])
    trees = [Tree(np.asarray(t["feature"], dtype=np.int64),
                  np.asarray(t["threshold"], dtype=float),
                  np.asarray(t["left"], dtype=np.int64),
                  np.asarray(t["right"], dtype=np.int64),
                  np.asarray(t["histogram"], dtype=float).reshape(-1, n_classes))
             for t in d["trees"]]
    return ForestModel(
        trees=trees,
        n_estimators=d["n_estimators"], max_features=d["max_features"],
        seed=d["seed"], feature_names=d["feature_names"],
        label_names=d["label_names"], min_leaf=d["min_leaf"])
