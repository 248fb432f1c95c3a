"""CART decision trees and a bagged random forest with gini importance.

Split search maximizes gini gain over a fresh random feature subset at each
node. Candidate thresholds are midpoints of adjacent distinct values among
the node's rows; ties break toward the lowest feature index, then the lowest
threshold, so a fitted tree is reproducible against an exhaustive search.

A tree is a set of parallel per-node arrays, the layout Louppe describes in
*Understanding Random Forests* (arXiv:1407.7502, ch. 5). Growing, predicting,
importance and checkpoints walk them with loops and stacks, never recursion,
so tree depth is bounded only by the number of rows.

One grower serves ``fit_tree``, ``fit_forest`` and ``fit_forests``. It bins
each varying column once per call, replacing every value by its rank among
the column's distinct values, and grows all its trees in lockstep: each
round advances every tree to its next node that needs a split search, and
one exact search scores all those nodes at once. Like XGBoost's column
blocks (Chen & Guestrin, arXiv:1603.02754, sec. 4.1), the search gathers the
class counts of every open node with one ``bincount`` over (node, feature,
bin) keys and needs no sort. Prediction walks every (tree, row) pair level
by level over the trees' concatenated node arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import svgplot

#: feature and child id of a leaf
LEAF = -1

#: byte budget of what one step of growing or predicting holds at once: the
#: keys and class counts of a split search chunk, the row indices of the trees
#: growing together, the state of a prediction walk
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


def _bin(X):
    """Rank codes of the columns of ``X`` that vary.

    Returns ``(col, codes, values, start)``: ``col[f]`` is column f's row of
    ``codes``, or -1 when the column is constant; ``codes[col[f], i]`` is the
    rank of ``X[i, f]`` among the column's distinct values (-0.0 and 0.0 are
    one value); ``values[start[col[f]] + r]`` is the value of rank r. Columns
    are sorted in blocks that fit ``SPLIT_BLOCK_BYTES``."""
    n, n_features = X.shape
    varies = np.flatnonzero((X != X[:1]).any(axis=0))
    col = np.full(n_features, -1, dtype=np.int64)
    col[varies] = np.arange(len(varies))
    codes = np.empty((len(varies), n), dtype=np.int32)  # ranks below n
    values = [np.empty(0)]
    start = np.zeros(len(varies) + 1, dtype=np.int64)
    width = max(1, SPLIT_BLOCK_BYTES // (8 * n))
    for j in range(0, len(varies), width):
        V = X.T[varies[j:j + width]]
        order = np.argsort(V, axis=1)
        V.sort(axis=1)
        new = np.ones(V.shape, dtype=bool)
        np.not_equal(V[:, 1:], V[:, :-1], out=new[:, 1:])
        rank = np.cumsum(new, axis=1, dtype=np.int32)
        rank -= 1
        codes[j:j + width].ravel()[order + n * np.arange(len(V))[:, None]] = rank
        np.cumsum(rank[:, -1] + 1, out=start[j + 1:j + 1 + len(V)])
        start[j + 1:j + 1 + len(V)] += start[j]
        values.append(V[new])
    return col, codes, np.concatenate(values), start


def _split_nodes(binned, Y, rows, subsets, parents, min_leaf):
    """The best split of every node of a round.

    Node k holds ``rows[k]`` (indices into ``Y`` and the binned ``X``), its
    class counts ``parents[k]`` and its drawn features ``subsets[k]``.
    Returns ``(feature, threshold, left, left_rows, right_rows)``: per node
    the split feature, or ``LEAF`` when no candidate exists, the threshold
    and the class counts of the left side; then the rows of the nodes' left
    sides and of their right sides (all rows of an unsplit node), each
    concatenated in node order.

    A segment is one (node, drawn feature that varies in ``X``) pair, with
    one bin per distinct value of the feature. One ``bincount`` of the keys
    ``label * B + segment's first bin + code`` counts the classes in the
    ``B`` bins of a chunk of segments; a chunk's keys and counts fit
    ``SPLIT_BLOCK_BYTES``. Candidate splits follow each nonempty bin that has
    a later nonempty bin in its segment, so only values that occur at the
    node are split, and both sides must keep ``min_leaf`` rows. The score is
    sum(count^2)/n per side on exact integer counts, a monotone transform of
    negative weighted child impurity. Gini decrease is never negative, and
    zero-gain splits are taken (a consistent dataset is always memorized, XOR
    included). Segments run node-major, features ascending, bins ascending,
    and a later chunk replaces a node's best only when it scores strictly
    higher: the first maximum is at the lowest feature, then the lowest
    threshold. The threshold is the midpoint of the two values a < b around
    the split, or a where the midpoint rounds onto b (adjacent floats) or
    leaves [a, b) by overflow or infinities; every threshold then sends both
    sides' rows apart."""
    col, codes, values, start = binned
    K, C = parents.shape
    n = np.asarray([len(r) for r in rows])
    R = np.concatenate(rows)
    yR = Y[R]
    drawn = np.concatenate(subsets)
    seg_node = np.repeat(np.arange(K), [len(s) for s in subsets])
    seg_col = col[drawn]
    varies = seg_col >= 0
    seg_node, seg_col, seg_feature = seg_node[varies], seg_col[varies], drawn[varies]
    seg_rows, seg_bins = n[seg_node], (start[1:] - start[:-1])[seg_col]
    key_start = np.cumsum(seg_rows) - seg_rows
    seg_shift = (np.cumsum(n) - n)[seg_node] - key_start  # row position in R minus key index
    cost = np.cumsum(seg_rows + seg_bins * C)
    flat_codes = codes.ravel()
    seg_codes = seg_col * codes.shape[1]
    parents = parents.T
    best = np.full(K, -np.inf)
    feature = np.full(K, LEAF)
    split_col = np.zeros(K, dtype=np.int64)
    value_at = np.zeros((2, K), dtype=np.int64)  # the values a, b around the threshold
    left = np.zeros((C, K), dtype=np.int64)
    s1 = 0
    while s1 < len(cost):
        s0, spent = s1, cost[s1 - 1] if s1 else 0
        s1 = max(s0 + 1, int(np.searchsorted(cost, spent + SPLIT_BLOCK_BYTES // 8, "right")))
        k, sn, sb = seg_node[s0:s1], seg_rows[s0:s1], seg_bins[s0:s1]
        bin_start = np.cumsum(sb) - sb
        B = int(bin_start[-1] + sb[-1])
        at = np.arange(key_start[s0], key_start[s1 - 1] + sn[-1]) + np.repeat(seg_shift[s0:s1], sn)
        bins = flat_codes[np.repeat(seg_codes[s0:s1], sn) + R[at]] + np.repeat(bin_start, sn)
        hist = np.bincount(yR[at] * B + bins, minlength=C * B).reshape(C, B)
        full = np.flatnonzero(hist.sum(axis=0))
        seg = np.searchsorted(bin_start, full, "right") - 1
        cand = np.flatnonzero(seg[1:] == seg[:-1])  # nonempty bins with a later one in their segment
        if not len(cand):
            continue
        counts = np.cumsum(hist.take(full, axis=1), axis=1)
        before = parents.take(k, axis=1)
        before = np.cumsum(before, axis=1) - before  # a segment holds all its node's rows
        seg = seg[cand]
        L = counts.take(cand, axis=1) - before.take(seg, axis=1)
        node = k[seg]
        n_left = L.sum(axis=0)
        n_right = n[node] - n_left
        if min_leaf > 1:
            ok = (n_left >= min_leaf) & (n_right >= min_leaf)
            cand, seg, L, node, n_left, n_right = (
                cand[ok], seg[ok], L[:, ok], node[ok], n_left[ok], n_right[ok])
        Rc = parents.take(node, axis=1) - L
        score = (np.einsum("ck,ck->k", L, L) / n_left
                 + np.einsum("ck,ck->k", Rc, Rc) / n_right)
        top = np.full(K, -np.inf)
        np.maximum.at(top, node, score)
        i = np.flatnonzero((score == top[node]) & (score > best[node]))
        first = np.full(K, len(score))
        np.minimum.at(first, node[i], i)  # each node's first maximum, if it beats its best
        u = np.flatnonzero(first < len(score))
        i = first[u]
        best[u] = score[i]
        s = s0 + seg[i]
        feature[u] = seg_feature[s]
        split_col[u] = seg_col[s]
        value_at[:, u] = full[[cand[i], cand[i] + 1]] + (start[seg_col[s]] - bin_start[seg[i]])
        left[:, u] = L[:, i]
    threshold = np.zeros(K)
    go_left = np.zeros(len(R), dtype=bool)
    is_split = feature != LEAF
    if is_split.any():
        a, b = values[value_at[:, is_split]]
        with np.errstate(over="ignore", invalid="ignore"):
            mid = (a + b) / 2.0
        threshold[is_split] = np.where((a <= mid) & (mid < b), mid, a)  # else rounded onto b, or overflowed
        node = np.repeat(np.arange(K), n)
        cut = np.where(is_split, value_at[0] - start[split_col], -1)  # code of a
        go_left = codes[split_col[node], R] <= cut[node]
    return feature, threshold, left.T, R[go_left], R[~go_left]


@dataclass
class _Growing:
    """A tree in growth: its place in the output, its generator, subset size
    and class count, the length of its sample, the nodes still to visit
    (rows, depth, parent if a right child, class counts) and the nodes
    visited so far."""
    index: int
    rng: np.random.Generator
    max_features: int
    n_classes: int
    n_rows: int
    stack: list
    nodes: list = field(default_factory=list)  # nodes[i] = [feature, threshold, left, right]
    histogram: list = field(default_factory=list)


def _grow(X, Y, trees, min_leaf: int = 1, max_depth: int | None = None) -> list[Tree]:
    """Grow a CART classification tree for each ``(rows, rng, max_features,
    n_classes)`` that the iterable ``trees`` yields, on the rows ``rows`` of
    ``X`` (repeats allowed) and labels ``Y``; the trees come back in order.

    Each node draws a fresh feature subset of size ``max_features`` from its
    tree's ``rng``. Growth stops on purity, fewer than ``2 * min_leaf`` rows,
    ``max_depth``, or when no candidate split exists in the drawn subset.

    The trees grow in lockstep rounds. In a round each tree pops nodes off
    its stack, settling leaves at once, until it reaches a node that needs a
    split search; one ``_split_nodes`` call then scores the round's nodes and
    gives the children their rows and class counts. The left child is pushed
    last, so it is popped next and gets id node+1: each tree draws from its
    ``rng`` in pre-order, left before right, as it would alone. Trees start
    while their samples' row indices fit ``SPLIT_BLOCK_BYTES`` (one at
    least); a finished tree makes room for the next."""
    binned = _bin(X)
    n_features = X.shape[1]
    min_leaf = max(min_leaf, 1)
    queue = iter(trees)
    upcoming = next(queue, None)
    grown, growing, held = [], [], 0
    while growing or upcoming is not None:
        while upcoming is not None and (not growing or held + len(upcoming[0]) <= SPLIT_BLOCK_BYTES // 8):
            rows, rng, m, n_classes = upcoming
            root = (rows, 0, LEAF, np.bincount(Y[rows], minlength=n_classes))
            growing.append(_Growing(len(grown), rng, m, n_classes, len(rows), [root]))
            grown.append(None)
            held += len(rows)
            upcoming = next(queue, None)
        opened = []  # (tree, node, rows, depth, subset)
        for tree in growing:
            while tree.stack:
                rows, depth, right_of, counts = tree.stack.pop()
                node = len(tree.nodes)
                if right_of != LEAF:
                    tree.nodes[right_of][3] = node
                tree.nodes.append([LEAF, 0.0, LEAF, LEAF])
                tree.histogram.append(counts)
                if (np.count_nonzero(counts) <= 1 or len(rows) < 2 * min_leaf
                        or (max_depth is not None and depth >= max_depth)):
                    continue
                subset = np.sort(tree.rng.choice(n_features, size=tree.max_features, replace=False))
                opened.append((tree, node, rows, depth, subset))
                break
        if opened:
            parents = np.zeros((len(opened), max(o[0].n_classes for o in opened)), dtype=np.int64)
            for i, (tree, node, *_) in enumerate(opened):
                parents[i, :tree.n_classes] = tree.histogram[node]
            feature, threshold, left, left_rows, right_rows = _split_nodes(
                binned, Y, [o[2] for o in opened], [o[4] for o in opened], parents, min_leaf)
            lo = ro = 0
            for (tree, node, rows, depth, _), f, thr, counts, n_left in zip(
                    opened, feature.tolist(), threshold.tolist(), left, left.sum(axis=1).tolist()):
                if f == LEAF:
                    ro += len(rows)
                    continue
                tree.nodes[node][:3] = f, thr, node + 1
                counts = counts[:tree.n_classes]
                n_right = len(rows) - n_left
                tree.stack.append((right_rows[ro:ro + n_right].copy(), depth + 1, node,
                                   tree.histogram[node] - counts))
                tree.stack.append((left_rows[lo:lo + n_left].copy(), depth + 1, LEAF, counts))
                lo, ro = lo + n_left, ro + n_right
        for tree in growing:
            if not tree.stack:
                held -= tree.n_rows
                feature, threshold, left, right = zip(*tree.nodes)
                grown[tree.index] = Tree(
                    np.asarray(feature, dtype=np.int64), np.asarray(threshold, dtype=float),
                    np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64),
                    np.asarray(tree.histogram, dtype=float))
        growing = [t for t in growing if t.stack]
    return grown


def _checked(X, Y):
    """``X`` as floats and ``Y`` as int64 labels, checked for the grower."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=np.int64)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("X must be a non-empty 2-D matrix")
    if Y.shape != (len(X),) or Y.min() < 0:
        raise ValueError("Y must hold one label >= 0 per row of X")
    if np.isnan(X).any():  # a NaN threshold would send every row right, forever
        raise ValueError("X holds NaN")
    return X, Y


def fit_tree(X, Y, max_features: int, rng: np.random.Generator,
             min_leaf: int = 1, max_depth: int | None = None,
             n_classes: int | None = None) -> Tree:
    """Grow a CART classification tree on all rows of ``X``.

    A fresh feature subset of size ``max_features`` is drawn from ``rng`` at
    each node; growth stops on purity, fewer than ``2 * min_leaf`` rows,
    ``max_depth``, or when no candidate split exists in the drawn subset.
    ``X`` may not hold NaN; infinities are split like other values.
    ``min_leaf`` below 1 acts as 1: every side of a split holds a row.
    """
    X, Y = _checked(X, Y)
    if max_features < 1:
        raise ValueError("max_features must be >= 1")
    if n_classes is None:
        n_classes = int(Y.max()) + 1
    if Y.max() >= n_classes:
        raise ValueError(f"labels must be below n_classes={n_classes}")
    tree = (np.arange(len(Y)), rng, min(max_features, X.shape[1]), n_classes)
    return _grow(X, Y, [tree], min_leaf, max_depth)[0]


@dataclass
class ForestModel:
    trees: list[Tree]
    max_features: int
    seed: int
    feature_names: list[str]
    label_names: list[str]
    min_leaf: int = 1

    @property
    def n_estimators(self) -> int:
        return len(self.trees)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def fit_forests(X, Y, cells, seed: int, min_leaf: int = 1) -> list[ForestModel]:
    """One forest per ``(rows, n_estimators, max_features)`` of ``cells``,
    equal to ``fit_forest(X[rows], Y[rows], n_estimators, max_features,
    seed, min_leaf)``. All the forests grow in one lockstep call, which bins
    ``X`` once."""
    X, Y = _checked(X, Y)
    n_features = X.shape[1]
    forests = []
    for rows, n_estimators, max_features in cells:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if max_features < 1:
            raise ValueError("max_features must be >= 1")
        rows = np.asarray(rows, dtype=np.int64)
        forests.append((rows, n_estimators, min(max_features, n_features),
                        int(Y[rows].max()) + 1))

    def bootstrap():
        for rows, n_estimators, m, n_classes in forests:
            for t in range(n_estimators):
                rng = np.random.default_rng(seed + t)
                yield rows[rng.integers(0, len(rows), size=len(rows))], rng, m, n_classes

    trees = iter(_grow(X, Y, bootstrap(), min_leaf))
    return [ForestModel(trees=[next(trees) for _ in range(n_estimators)], max_features=m,
                        seed=seed, feature_names=[f"x{j}" for j in range(n_features)],
                        label_names=[str(c) for c in range(n_classes)], min_leaf=min_leaf)
            for _, n_estimators, m, n_classes in forests]


def fit_forest(X, Y, n_estimators: int, max_features: int, seed: int,
               min_leaf: int = 1, feature_names: list[str] | None = None,
               label_names: list[str] | None = None) -> ForestModel:
    """Fit ``n_estimators`` trees on bootstrap samples; tree ``t`` draws its
    sample, then its feature subsets, from ``default_rng(seed + t)``."""
    (model,) = fit_forests(X, Y, [(np.arange(len(X)), n_estimators, max_features)],
                           seed, min_leaf)
    if feature_names is not None:
        model.feature_names = feature_names
    if label_names is not None:
        model.label_names = label_names
    return model


def _walk(trees: list[Tree], X: np.ndarray) -> np.ndarray:
    """Sum over ``trees``, added in tree order, of the class frequencies of
    the leaf that each row of the float matrix ``X`` reaches.

    The trees' node arrays are concatenated, with child ids offset, and all
    (tree, row) pairs of a block descend one level per step. Blocks of rows
    and of trees keep the walk's state within ``SPLIT_BLOCK_BYTES``."""
    sizes = [len(t.feature) for t in trees]
    roots = np.cumsum(sizes) - sizes
    offset = np.repeat(roots, sizes)
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    left = np.concatenate([t.left for t in trees]) + offset
    right = np.concatenate([t.right for t in trees]) + offset
    frequency = np.concatenate([t.histogram for t in trees])
    frequency /= frequency.sum(axis=1, keepdims=True)
    n = len(X)
    acc = np.zeros((n, frequency.shape[1]))
    pairs = max(1, SPLIT_BLOCK_BYTES // 8)
    n_rows = max(1, min(n, pairs))
    n_trees = max(1, pairs // n_rows)
    for r0 in range(0, n, n_rows):
        rows = np.arange(r0, min(n, r0 + n_rows))
        for t0 in range(0, len(trees), n_trees):
            node = np.repeat(roots[t0:t0 + n_trees], len(rows))
            row = np.tile(rows, len(node) // len(rows))
            live = np.arange(len(node))
            while live.size:
                at = node[live]
                inner = feature[at] != LEAF
                live, at = live[inner], at[inner]
                go_left = X[row[live], feature[at]] <= threshold[at]
                node[live] = np.where(go_left, left[at], right[at])
            for leaves in node.reshape(-1, len(rows)):
                acc[r0:r0 + len(rows)] += frequency[leaves]
    return acc


def tree_proba(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Class-frequency vector of the leaf each row of the float matrix ``X``
    reaches."""
    return _walk([tree], X)


def predict_proba(model: ForestModel, X) -> np.ndarray:
    """Mean of per-tree leaf class-frequency vectors; rows sum to 1."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(
            f"expected {model.n_features} columns, got {X.shape}"
        )
    return _walk(model.trees, X) / len(model.trees)


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
    return ForestModel(trees=trees, max_features=d["max_features"], seed=d["seed"],
                       feature_names=d["feature_names"], label_names=d["label_names"],
                       min_leaf=d["min_leaf"])
