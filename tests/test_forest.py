import sys
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from xlog import forest
from xlog.forest import (
    LEAF, ForestModel, Tree, fit_forest, fit_forests, fit_tree, gini, gini_importance,
    predict, predict_proba, tree_proba,
)


def brute_force_best_split(X, Y, n_classes, min_leaf=1):
    """Independent exhaustive search over every (feature, midpoint threshold),
    maximizing sum(count^2)/n over the two sides; ties resolve to the lowest
    feature index then the lowest threshold."""
    n = len(Y)
    counts = np.bincount(Y, minlength=n_classes).astype(float)
    best = None
    for f in range(X.shape[1]):
        vals = np.unique(X[:, f])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = (a + b) / 2.0
            left = X[:, f] <= thr
            nl = int(left.sum())
            if nl < min_leaf or n - nl < min_leaf:
                continue
            cl = np.bincount(Y[left], minlength=n_classes).astype(float)
            cr = counts - cl
            score = float(np.sum(cl ** 2)) / nl + float(np.sum(cr ** 2)) / (n - nl)
            if best is None or score > best[0]:
                best = (score, f, thr)
    return best


def tree_equal(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k))
               for k in ("feature", "threshold", "left", "right", "histogram"))


def is_leaf(tree, node):
    return tree.feature[node] == LEAF


def leaf_tree(histogram):
    return Tree(np.asarray([LEAF]), np.asarray([0.0]), np.asarray([LEAF]),
                np.asarray([LEAF]), np.asarray([histogram], dtype=float))


def one_tree_forest(X, Y, max_features, seed):
    """A forest of the one tree ``fit_tree`` grows on all rows of ``X``."""
    tree = fit_tree(X, Y, max_features, np.random.default_rng(seed))
    return ForestModel(trees=[tree], max_features=max_features, seed=seed,
                       feature_names=[f"x{j}" for j in range(X.shape[1])],
                       label_names=[str(c) for c in range(int(Y.max()) + 1)])


# ---------------------------------------------------------------- oracle
# The recursive trees and per-feature split search that the array-backed
# trees replaced, kept verbatim as the reference they must equal exactly.

@dataclass
class OracleNode:
    class_histogram: np.ndarray | None = None
    feature_index: int = -1
    threshold: float = 0.0
    left: "OracleNode | None" = None
    right: "OracleNode | None" = None

    @property
    def is_leaf(self):
        return self.class_histogram is not None


def oracle_best_split(X, Y, n_classes, feature_subset, min_leaf):
    n = len(Y)
    parent_counts = np.bincount(Y, minlength=n_classes).astype(float)
    best = None
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), Y] = 1.0
    for f in feature_subset:
        order = np.argsort(X[:, f], kind="stable")
        v = X[order, f]
        distinct = np.flatnonzero(v[:-1] != v[1:])
        if distinct.size == 0:
            continue
        cum = np.cumsum(onehot[order], axis=0)
        n_left = distinct + 1
        n_right = n - n_left
        valid = (n_left >= min_leaf) & (n_right >= min_leaf)
        if not np.any(valid):
            continue
        pos = distinct[valid]
        left_counts = cum[pos]
        right_counts = parent_counts - left_counts
        score = (np.sum(left_counts**2, axis=1) / (pos + 1)
                 + np.sum(right_counts**2, axis=1) / (n - pos - 1))
        k = int(np.argmax(score))
        if best is None or score[k] > best[0]:
            thr = (v[pos[k]] + v[pos[k] + 1]) / 2.0
            best = (float(score[k]), int(f), float(thr))
    return best


def oracle_fit_tree(X, Y, max_features, rng, min_leaf=1, max_depth=None,
                    n_classes=None):
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=np.int64)
    if n_classes is None:
        n_classes = int(Y.max()) + 1
    n_features = X.shape[1]
    m = min(max_features, n_features)

    def grow(rows, depth):
        y = Y[rows]
        hist = np.bincount(y, minlength=n_classes).astype(float)
        pure = np.count_nonzero(hist) <= 1
        if pure or len(rows) < 2 * min_leaf or (max_depth is not None and depth >= max_depth):
            return OracleNode(class_histogram=hist)
        subset = np.sort(rng.choice(n_features, size=m, replace=False))
        best = oracle_best_split(X[rows], y, n_classes, subset, min_leaf)
        if best is None:
            return OracleNode(class_histogram=hist)
        _, f, thr = best
        go_left = X[rows, f] <= thr
        node = OracleNode(feature_index=f, threshold=thr)
        node.left = grow(rows[go_left], depth + 1)
        node.right = grow(rows[~go_left], depth + 1)
        return node

    return grow(np.arange(len(Y)), 0)


def oracle_fit_forest(X, Y, n_estimators, max_features, seed, min_leaf=1):
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=np.int64)
    n, f = X.shape
    n_classes = int(Y.max()) + 1
    trees = []
    for t in range(n_estimators):
        rng = np.random.default_rng(seed + t)
        sample = rng.integers(0, n, size=n)
        trees.append(oracle_fit_tree(X[sample], Y[sample], min(max_features, f), rng,
                                     min_leaf=min_leaf, n_classes=n_classes))
    return trees


def oracle_tree_proba(node, X, out, rows):
    if node.is_leaf:
        out[rows] = node.class_histogram / node.class_histogram.sum()
        return
    go_left = X[rows, node.feature_index] <= node.threshold
    oracle_tree_proba(node.left, X, out, rows[go_left])
    oracle_tree_proba(node.right, X, out, rows[~go_left])


def oracle_predict_proba(trees, n_classes, X):
    acc = np.zeros((len(X), n_classes))
    rows = np.arange(len(X))
    buf = np.empty_like(acc)
    for tree in trees:
        oracle_tree_proba(tree, X, buf, rows)
        acc += buf
    return acc / len(trees)


def oracle_gini(histogram):
    counts = np.asarray(histogram, dtype=float)
    p = counts / counts.sum()
    return float(1.0 - np.sum(p * p))


def oracle_accumulate(node, n_root, imp):
    if node.is_leaf:
        return node.class_histogram
    hl = oracle_accumulate(node.left, n_root, imp)
    hr = oracle_accumulate(node.right, n_root, imp)
    h = hl + hr
    n, nl, nr = h.sum(), hl.sum(), hr.sum()
    gain = oracle_gini(h) - (nl / n) * oracle_gini(hl) - (nr / n) * oracle_gini(hr)
    imp[node.feature_index] += (n / n_root) * gain
    return h


def oracle_histogram(node):
    if node.is_leaf:
        return node.class_histogram
    return oracle_histogram(node.left) + oracle_histogram(node.right)


def oracle_gini_importance(trees, n_features):
    total = np.zeros(n_features)
    for tree in trees:
        imp = np.zeros(n_features)
        if not tree.is_leaf:
            oracle_accumulate(tree, oracle_histogram(tree).sum(), imp)
        total += imp
    total /= len(trees)
    s = total.sum()
    return (total, True) if s <= 0 else (total / s, False)


def oracle_arrays(root):
    """The oracle tree as pre-order parallel arrays."""
    feature, threshold, left, right, histogram = [], [], [], [], []

    def walk(node):
        i = len(feature)
        feature.append(LEAF if node.is_leaf else node.feature_index)
        threshold.append(0.0 if node.is_leaf else node.threshold)
        left.append(LEAF)
        right.append(LEAF)
        histogram.append(oracle_histogram(node))
        if not node.is_leaf:
            left[i] = walk(node.left)
            right[i] = walk(node.right)
        return i

    walk(root)
    return Tree(np.asarray(feature), np.asarray(threshold), np.asarray(left),
                np.asarray(right), np.asarray(histogram))


def loop_tree_proba(tree, X):
    """One tree's leaf class frequencies, walked for that tree alone: the
    per-tree loop that the flat forest walk replaced."""
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


def random_case(r):
    """A small labelled matrix with many duplicate values and constant columns;
    one draw in four is wide and shaped like the flat encoding."""
    if r.random() < 0.25:
        return wide_case(r)
    n = int(r.integers(2, 90))
    F = int(r.integers(1, 9))
    C = int(r.integers(2, 5))
    X = r.integers(0, int(r.integers(2, 9)), size=(n, F)).astype(float) / 2.0
    if r.random() < 0.3:
        X[:, r.integers(0, F)] = 1.5  # a constant column
    if r.random() < 0.3:
        X[:, 0] = r.random(n)  # one continuous column
    Y = r.integers(0, C, size=n)
    return X, Y, C


def wide_case(r):
    """Like the 388-column flat encoding: most columns are constant or sparse
    0/1 indicators, a few take a handful of levels or are continuous. Rows
    repeat, so deep nodes hold rows on which the drawn features are all
    constant."""
    n = int(r.integers(2, 90))
    F = int(r.integers(12, 40))
    C = int(r.integers(2, 5))
    kind = r.choice(4, size=F, p=[0.3, 0.45, 0.1, 0.15])
    X = np.zeros((n, F))
    X[:, kind == 0] = r.integers(0, 2, size=np.count_nonzero(kind == 0))
    binary = kind == 1
    X[:, binary] = r.random((n, np.count_nonzero(binary))) < r.uniform(0.02, 0.5)
    X[:, kind == 2] = r.integers(0, 4, size=(n, np.count_nonzero(kind == 2)))
    X[:, kind == 3] = np.round(r.random((n, np.count_nonzero(kind == 3))) * 60.0)
    X[r.random((n, F)) < 0.1] *= -1.0  # -0.0 ties with 0.0
    X = X[r.integers(0, n, size=n)]  # duplicated rows
    Y = r.integers(0, C, size=n)
    return X, Y, C


@pytest.mark.parametrize("block_bytes", [forest.SPLIT_BLOCK_BYTES, 1, 2000])
def test_array_trees_equal_recursive_oracle(block_bytes, monkeypatch):
    monkeypatch.setattr(forest, "SPLIT_BLOCK_BYTES", block_bytes)
    searched = []  # per node searched: were all drawn features constant on rows that differ?
    search = forest._split_nodes
    X = None

    def spy(binned, Y, rows, subsets, parents, min_leaf):
        for node_rows, subset in zip(rows, subsets):
            cols = X[node_rows]
            constant = (cols == cols[:1]).all(axis=0)
            searched.append(bool(constant[subset].all() and not constant.all()))
        return search(binned, Y, rows, subsets, parents, min_leaf)

    monkeypatch.setattr(forest, "_split_nodes", spy)
    r = np.random.default_rng(4401)
    seen = set()
    for trial in range(150):
        X, Y, C = random_case(r)
        F = X.shape[1]
        max_features = F if trial % 2 else int(r.integers(1, F + 1))
        min_leaf = int(r.integers(1, 4))
        max_depth = None if r.random() < 0.5 else int(r.integers(0, 5))
        tree = fit_tree(X, Y, max_features, np.random.default_rng(trial),
                        min_leaf=min_leaf, max_depth=max_depth, n_classes=C)
        oracle = oracle_fit_tree(X, Y, max_features, np.random.default_rng(trial),
                                 min_leaf=min_leaf, max_depth=max_depth, n_classes=C)
        assert tree_equal(tree, oracle_arrays(oracle)), trial
        Xt = np.vstack([X, r.integers(-1, 9, size=(20, F)) / 2.0])
        assert np.array_equal(tree_proba(tree, Xt), oracle_predict_proba([oracle], C, Xt))
        seen.add((C, min_leaf, max_depth is None, len(tree.feature) > 3, F > 8))
    assert len({k[:4] for k in seen}) >= 20  # the draws cover the grid of settings
    assert len(seen) >= 24  # ... and reach much of it with both narrow and wide inputs
    assert any(searched)


@pytest.mark.parametrize("block_bytes", [forest.SPLIT_BLOCK_BYTES, 1])
def test_forest_predictions_and_importance_equal_oracle(block_bytes, monkeypatch):
    monkeypatch.setattr(forest, "SPLIT_BLOCK_BYTES", block_bytes)
    r = np.random.default_rng(77)
    for trial in range(40):
        X, Y, _ = random_case(r)
        F = X.shape[1]
        n_est = int(r.integers(1, 6))
        max_features = int(r.integers(1, F + 1))
        min_leaf = int(r.integers(1, 4))
        model = fit_forest(X, Y, n_est, max_features, seed=trial, min_leaf=min_leaf)
        oracle = oracle_fit_forest(X, Y, n_est, max_features, seed=trial, min_leaf=min_leaf)
        for tree, node in zip(model.trees, oracle):
            assert tree_equal(tree, oracle_arrays(node)), trial
        Xt = np.vstack([X, r.random((15, F)) * 4.0])
        expected = oracle_predict_proba(oracle, len(model.label_names), Xt)
        assert np.array_equal(predict_proba(model, Xt), expected)
        back = forest.from_json(forest.to_json(model))
        assert all(tree_equal(a, b) for a, b in zip(back.trees, model.trees))
        assert np.array_equal(predict_proba(back, Xt), expected)
        importances, all_leaves = oracle_gini_importance(oracle, F)
        report = gini_importance(model)
        assert np.array_equal(report.importances, importances)
        assert report.all_leaves == all_leaves


def depth_of(tree):
    depth, deepest, stack = {0: 0}, 0, [0]
    while stack:
        node = stack.pop()
        deepest = max(deepest, depth[node])
        if tree.feature[node] != LEAF:
            for child in (tree.left[node], tree.right[node]):
                depth[child] = depth[node] + 1
                stack.append(child)
    return deepest


@pytest.mark.parametrize("block_bytes", [forest.SPLIT_BLOCK_BYTES, 1, 3000])
def test_fit_forests_equal_separate_fit_forest_calls(block_bytes, monkeypatch):
    # a budget of 1 byte grows one tree at a time and scores one segment per chunk
    monkeypatch.setattr(forest, "SPLIT_BLOCK_BYTES", block_bytes)
    r = np.random.default_rng(2024)
    X, _, _ = wide_case(r)
    while len(X) < 40:
        X, _, _ = wide_case(r)
    n, F = X.shape
    Y = r.integers(0, 3, size=n)
    Y[:3] = 2
    halves = [np.arange(0, n, 2), np.arange(1, n, 2)]
    no_top = np.flatnonzero(Y != 2)  # a fold that lacks the top class
    cells = [(rows, n_est, mf) for rows in (*halves, no_top)
             for n_est, mf in ((4, 3), (1, F), (2, F + 5))]
    cells.append((np.arange(n), 3, 7))
    for min_leaf in (1, 3):
        models = fit_forests(X, Y, cells, seed=11, min_leaf=min_leaf)
        assert len(models) == len(cells)
        for (rows, n_est, mf), model in zip(cells, models):
            alone = fit_forest(X[rows], Y[rows], n_est, mf, seed=11, min_leaf=min_leaf)
            assert forest.to_json(model) == forest.to_json(alone)
            assert len(model.label_names) == (2 if rows is no_top else 3)
            oracle = oracle_fit_forest(X[rows], Y[rows], n_est, mf, seed=11, min_leaf=min_leaf)
            assert all(tree_equal(a, oracle_arrays(b)) for a, b in zip(model.trees, oracle))


def test_forest_of_shallow_and_deep_trees_equals_oracle():
    # feature 0 separates the classes; feature 1 orders alternating labels, so
    # a node that draws it peels rows. With one feature per node, some trees
    # stop after one split and others grow long chains, and the lockstep
    # rounds finish the trees at very different times.
    n = 64
    X = np.column_stack([np.arange(n) % 2, np.arange(n)]).astype(float)
    Y = np.arange(n) % 2
    model = fit_forest(X, Y, 12, 1, seed=3)
    depths = [depth_of(t) for t in model.trees]
    assert min(depths) == 1 and max(depths) >= 6, depths
    oracle = oracle_fit_forest(X, Y, 12, 1, seed=3)
    assert all(tree_equal(a, oracle_arrays(b)) for a, b in zip(model.trees, oracle))
    _, deep = fit_forests(X, Y, [(np.arange(n), 2, 2), (np.arange(n), 12, 1)], seed=3)
    assert all(tree_equal(a, b) for a, b in zip(deep.trees, model.trees))
    assert np.array_equal(predict_proba(model, X), oracle_predict_proba(oracle, 2, X))


def test_infinities_and_signed_zeros_split_like_large_finite_values():
    # the oracle halves a + inf to inf, so it runs on a copy with the
    # infinities replaced by +-1e6; the trees must match it node for node,
    # and -0.0 and 0.0 must stay one value. Each threshold follows the
    # midpoint rule on the true values a < b around it at its node: where
    # the midpoint is infinite or NaN it falls back to a.
    levels = np.asarray([-np.inf, -1.0, -0.0, 0.0, 0.5, 2.0, np.inf])
    r = np.random.default_rng(808)
    for trial in range(40):
        n, F = int(r.integers(4, 60)), int(r.integers(1, 5))
        X = levels[r.integers(0, len(levels), size=(n, F))]
        Y = r.integers(0, 3, size=n)
        finite = np.where(np.isinf(X), np.copysign(1e6, X), X)
        max_features = int(r.integers(1, F + 1))
        with np.errstate(all="raise"):
            tree = fit_tree(X, Y, max_features, np.random.default_rng(trial), n_classes=3)
        oracle = oracle_arrays(oracle_fit_tree(finite, Y, max_features,
                                               np.random.default_rng(trial), n_classes=3))
        for key in ("feature", "left", "right", "histogram"):
            assert np.array_equal(getattr(tree, key), getattr(oracle, key)), (trial, key)
        stack = [(0, np.arange(n))]
        while stack:
            node, rows = stack.pop()
            f = tree.feature[node]
            if f == LEAF:
                continue
            go_left = X[rows, f] <= tree.threshold[node]
            a, b = X[rows[go_left], f].max(), X[rows[~go_left], f].min()
            with np.errstate(invalid="ignore"):
                mid = (a + b) / 2.0
            assert tree.threshold[node] == (mid if a <= mid < b else a), (trial, node)
            stack += [(tree.left[node], rows[go_left]), (tree.right[node], rows[~go_left])]


def test_deep_chain_fits_predicts_and_round_trips():
    # alternating labels along one feature: every split peels a single row,
    # so the tree is a chain far deeper than the interpreter's recursion limit
    n = 5000
    X = np.arange(n, dtype=float)[:, None]
    Y = np.arange(n) % 2
    model = one_tree_forest(X, Y, max_features=1, seed=0)
    tree = model.trees[0]
    assert len(tree.feature) == 2 * n - 1
    depth, node = 0, 0
    while not is_leaf(tree, node):
        node = max(tree.left[node], tree.right[node], key=lambda c: tree.histogram[c].sum())
        depth += 1
    assert depth > sys.getrecursionlimit()
    assert np.array_equal(predict(model, X), Y)
    assert gini_importance(model).importances[0] == 1.0
    back = forest.from_json(forest.to_json(model))
    assert tree_equal(back.trees[0], tree)
    assert np.array_equal(predict_proba(back, X), predict_proba(model, X))


def test_full_width_split_search_memory_is_bounded():
    # the global surrogate's fit: all 388 columns drawn at every node
    r = np.random.default_rng(5)
    X = r.random((300, 388))
    Y = r.integers(0, 3, size=300)
    tracemalloc.start()
    try:
        tree = fit_tree(X, Y, max_features=388, rng=np.random.default_rng(0),
                        max_depth=3, n_classes=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tree.feature) > 7
    assert peak < 4 * 2**20, peak


def test_fit_forests_memory_is_bounded_at_a_wide_many_tree_shape():
    # 240 trees on 600 rows of the flat encoding's width: the lockstep grower
    # holds at most a budget's worth of row indices and of split-search keys,
    # never every tree's sample or a round's (node, feature, row) block at
    # once. Growing all 240 trees together peaks near 7.7 MB above the models.
    r = np.random.default_rng(12)
    n, F = 600, 388
    X = np.zeros((n, F))
    X[:, 100:300] = r.random((n, 200)) < 0.1  # sparse indicators
    X[:, 300:360] = r.integers(0, 4, size=(n, 60))
    X[:, 360:] = np.round(r.random((n, 28)) * 60.0)
    Y = r.integers(0, 3, size=n)
    cells = [(np.arange(0, n, 2), 60, 20), (np.arange(1, n, 2), 60, 20),
             (np.arange(0, n, 2), 60, 40), (np.arange(1, n, 2), 60, 40)]
    tracemalloc.start()
    try:
        models = fit_forests(X, Y, cells, seed=1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(m.trees) for m in models) == 240
    assert peak - held < 6 * 2**20, (peak, held)


def test_predict_proba_memory_is_bounded_for_many_trees_and_rows():
    # the walk holds a budget's worth of (tree, row) pairs, not 300 x 5000
    r = np.random.default_rng(13)
    X = r.random((400, 12))
    Y = (X[:, 0] + 0.3 * r.random(400) > 0.6).astype(np.int64) + (X[:, 1] > 0.5)
    model = fit_forest(X, Y, n_estimators=300, max_features=4, seed=2)
    Xt = r.random((5000, 12))
    tracemalloc.start()
    try:
        proba = predict_proba(model, Xt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nodes = sum(len(t.feature) for t in model.trees)
    flat = nodes * (4 * 8 + 8 * len(model.label_names))  # the concatenated node arrays
    assert peak < flat + 3 * 2**20, (peak, flat)
    expected = sum(loop_tree_proba(t, Xt) for t in model.trees) / len(model.trees)
    assert np.array_equal(proba, expected)


def test_nan_input_is_rejected():
    # a NaN threshold sends every row right, so the split repeats without end
    X = np.asarray([[np.nan], [np.nan], [np.nan], [1.0]])
    Y = np.asarray([0, 1, 0, 1])
    with pytest.raises(ValueError, match="NaN"):
        fit_tree(X, Y, max_features=1, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="NaN"):
        fit_forest(X, Y, n_estimators=2, max_features=1, seed=0)


def test_labels_must_fit_the_class_count_and_the_rows():
    # one bincount key space holds every class of a round, so a label at or
    # above n_classes would be counted in the next bin
    X = np.asarray([[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError, match="n_classes=2"):
        fit_tree(X, np.asarray([0, 1, 2]), max_features=1, rng=np.random.default_rng(0),
                 n_classes=2)
    with pytest.raises(ValueError, match="one label"):
        fit_forest(X, np.asarray([0, 1]), n_estimators=1, max_features=1, seed=0)
    with pytest.raises(ValueError, match="one label"):
        fit_forests(X, np.asarray([0, -1, 1]), [(np.arange(3), 1, 1)], seed=0)


@pytest.mark.parametrize("lower, upper", [
    (1.0, np.inf),                                              # midpoint inf
    (-np.inf, np.inf),                                          # midpoint nan
    (1e308, 1.7e308),                                           # sum overflows
    (-1.7e308, -1e308),
    (np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)),  # rounds onto upper
])
def test_split_separates_rows_where_the_midpoint_does_not(lower, upper):
    # a threshold outside [lower, upper) sends every row one way, so the
    # split repeats without end; the lower value splits them instead
    X = np.asarray([[lower], [upper], [lower], [upper]])
    Y = np.asarray([0, 1, 0, 1])
    with np.errstate(all="raise"):
        tree = fit_tree(X, Y, max_features=1, rng=np.random.default_rng(0))
    assert tree.feature.tolist() == [0, LEAF, LEAF]
    assert tree.threshold[0] == lower
    model = fit_forest(X, Y, n_estimators=3, max_features=1, seed=0)
    assert np.array_equal(predict(model, X), Y)


@pytest.mark.parametrize("min_leaf", [0, -2])
def test_min_leaf_below_one_grows_the_min_leaf_one_trees(min_leaf):
    r = np.random.default_rng(31)
    for trial in range(20):
        X, Y, C = random_case(r)
        F = X.shape[1]
        max_features = int(r.integers(1, F + 1))
        tree = fit_tree(X, Y, max_features, np.random.default_rng(trial),
                        min_leaf=min_leaf, n_classes=C)
        one = fit_tree(X, Y, max_features, np.random.default_rng(trial), n_classes=C)
        oracle = oracle_fit_tree(X, Y, max_features, np.random.default_rng(trial),
                                 min_leaf=min_leaf, n_classes=C)
        assert tree_equal(tree, one), trial
        assert tree_equal(tree, oracle_arrays(oracle)), trial
    model = fit_forest(X, Y, 3, F, seed=0, min_leaf=min_leaf)
    assert all(tree_equal(a, oracle_arrays(b)) for a, b in
               zip(model.trees, oracle_fit_forest(X, Y, 3, F, seed=0, min_leaf=min_leaf)))


def test_gini_examples():
    assert gini([4, 0]) == 0.0
    assert gini([2, 2]) == 0.5
    assert gini([1, 1, 1, 1]) == 0.75


def test_gini_empty_histogram_raises():
    with pytest.raises(ValueError):
        gini([0, 0])


def test_fit_tree_simple_threshold():
    X = np.asarray([[1.0], [2.0], [3.0], [4.0]])
    Y = np.asarray([0, 0, 1, 1])
    tree = fit_tree(X, Y, max_features=1, rng=np.random.default_rng(0))
    oracle = brute_force_best_split(X, Y, 2)
    assert tree.feature[0] == oracle[1] == 0
    assert tree.threshold[0] == oracle[2] == 2.5
    assert is_leaf(tree, tree.left[0]) and is_leaf(tree, tree.right[0])
    assert gini(tree.histogram[tree.left[0]]) == 0.0
    assert gini(tree.histogram[tree.right[0]]) == 0.0


def test_fit_tree_pure_input_is_single_leaf():
    X = np.asarray([[1.0], [5.0], [9.0]])
    tree = fit_tree(X, np.asarray([1, 1, 1]), max_features=1,
                    rng=np.random.default_rng(0), n_classes=2)
    assert len(tree.feature) == 1 and is_leaf(tree, 0)


def test_fit_tree_solves_xor_at_depth_two():
    X = np.asarray([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    Y = np.asarray([0, 1, 1, 0])
    tree = fit_tree(X, Y, max_features=2, rng=np.random.default_rng(3), min_leaf=1)
    assert np.array_equal(np.argmax(tree_proba(tree, X), axis=1), Y)
    assert not is_leaf(tree, 0)
    assert not (is_leaf(tree, tree.left[0]) and is_leaf(tree, tree.right[0]))  # depth 2 needed


def test_fit_tree_root_matches_brute_force_oracle():
    rng = np.random.default_rng(17)
    for trial in range(40):
        n = int(rng.integers(5, 120))
        F = int(rng.integers(1, 7))
        C = int(rng.integers(2, 5))
        X = rng.integers(0, 8, size=(n, F)).astype(float) / 2.0
        Y = rng.integers(0, C, size=n)
        tree = fit_tree(X, Y, max_features=F, rng=np.random.default_rng(trial),
                        n_classes=C)
        oracle = brute_force_best_split(X, Y, C)
        if oracle is None:
            assert is_leaf(tree, 0)
        else:
            assert not is_leaf(tree, 0)
            assert (tree.feature[0], tree.threshold[0]) == (oracle[1], oracle[2])


def test_fit_tree_full_features_memorizes_consistent_data(rng):
    X = rng.random((60, 4))
    Y = rng.integers(0, 3, size=60)
    tree = fit_tree(X, Y, max_features=4, rng=np.random.default_rng(5), min_leaf=1)
    assert np.mean(np.argmax(tree_proba(tree, X), axis=1) == Y) == 1.0


def test_fit_tree_row_permutation_invariant(rng):
    X = rng.integers(0, 6, size=(40, 3)).astype(float)
    Y = rng.integers(0, 2, size=40)
    a = fit_tree(X, Y, max_features=2, rng=np.random.default_rng(11), n_classes=2)
    perm = rng.permutation(40)
    b = fit_tree(X[perm], Y[perm], max_features=2, rng=np.random.default_rng(11),
                 n_classes=2)
    assert tree_equal(a, b)


def test_fit_tree_respects_max_depth():
    rng = np.random.default_rng(2)
    X = rng.random((50, 3))
    Y = rng.integers(0, 2, size=50)
    tree = fit_tree(X, Y, max_features=3, rng=np.random.default_rng(0), max_depth=1)
    assert not is_leaf(tree, 0)
    assert is_leaf(tree, tree.left[0]) and is_leaf(tree, tree.right[0])


def test_forest_same_seed_bit_identical(rng):
    X = rng.random((40, 5))
    Y = rng.integers(0, 2, size=40)
    m1 = fit_forest(X, Y, n_estimators=7, max_features=2, seed=9)
    m2 = fit_forest(X, Y, n_estimators=7, max_features=2, seed=9)
    for t1, t2 in zip(m1.trees, m2.trees):
        assert tree_equal(t1, t2)
    assert np.array_equal(predict_proba(m1, X), predict_proba(m2, X))


def test_forest_trees_equal_fit_tree_on_their_bootstrap_samples(rng):
    # tree t draws its sample, then its feature subsets, from default_rng(seed + t)
    X = rng.random((30, 3))
    Y = rng.integers(0, 2, size=30)
    model = fit_forest(X, Y, n_estimators=3, max_features=2, seed=4)
    for t, tree in enumerate(model.trees):
        tree_rng = np.random.default_rng(4 + t)
        sample = tree_rng.integers(0, 30, size=30)
        direct = fit_tree(X[sample], Y[sample], max_features=2, rng=tree_rng, n_classes=2)
        assert tree_equal(tree, direct)


def test_predict_proba_rows_sum_to_one(rng):
    X = rng.random((30, 4))
    Y = rng.integers(0, 3, size=30)
    model = fit_forest(X, Y, n_estimators=9, max_features=2, seed=2)
    proba = predict_proba(model, rng.random((15, 4)))
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-12)


def test_predict_proba_unanimous_and_averaging():
    leaf0 = leaf_tree([3.0, 0.0])
    leaf1 = leaf_tree([0.0, 5.0])
    agree = ForestModel(trees=[leaf0, leaf_tree([2.0, 0.0])], max_features=1, seed=0,
                        feature_names=["x0"], label_names=["a", "b"])
    assert np.array_equal(predict_proba(agree, np.zeros((1, 1))), [[1.0, 0.0]])
    split = ForestModel(trees=[leaf0, leaf1], max_features=1, seed=0,
                        feature_names=["x0"], label_names=["a", "b"])
    assert np.array_equal(predict_proba(split, np.zeros((1, 1))), [[0.5, 0.5]])


def test_predict_proba_shape_mismatch():
    model = fit_forest(np.random.default_rng(0).random((10, 3)),
                       np.asarray([0, 1] * 5), 2, 2, seed=0)
    with pytest.raises(ValueError):
        predict_proba(model, np.zeros((4, 5)))


def test_importance_single_split_is_one():
    X = np.asarray([[0.0], [1.0], [2.0], [3.0]])
    Y = np.asarray([0, 0, 1, 1])
    report = gini_importance(one_tree_forest(X, Y, max_features=1, seed=0))
    assert report.importances[0] == pytest.approx(1.0)


def test_importance_sums_to_one(rng):
    X = rng.random((60, 5))
    Y = rng.integers(0, 2, size=60)
    model = fit_forest(X, Y, n_estimators=10, max_features=3, seed=3)
    report = gini_importance(model)
    assert report.importances.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(report.importances >= 0)


def test_importance_planted_rule_wins():
    rng = np.random.default_rng(21)
    X = rng.random((200, 10))
    Y = (X[:, 0] > 0.5).astype(np.int64)
    model = fit_forest(X, Y, n_estimators=30, max_features=3, seed=11)
    report = gini_importance(model)
    assert int(np.argmax(report.importances)) == 0


def test_importance_noise_feature_stays_near_uniform_share():
    # with random labels no feature should stand out; check feature 3 stays
    # below twice the uniform share in >= 95% of seeded runs
    hits = 0
    runs = 100
    for seed in range(runs):
        r = np.random.default_rng(1000 + seed)
        X = r.random((80, 5))
        Y = r.integers(0, 2, size=80)
        model = fit_forest(X, Y, n_estimators=5, max_features=2, seed=seed)
        report = gini_importance(model)
        if report.importances[3] < 2.0 * (1.0 / 5.0):
            hits += 1
    assert hits >= 95


def test_importance_all_leaf_forest_flagged():
    X = np.zeros((6, 2))
    Y = np.asarray([0, 0, 0, 0, 0, 0])
    model = fit_forest(X, Y, n_estimators=3, max_features=2, seed=0)
    report = gini_importance(model)
    assert report.all_leaves
    assert np.all(report.importances == 0.0)


def test_forest_json_roundtrip(rng):
    X = rng.random((30, 3))
    Y = rng.integers(0, 2, size=30)
    model = fit_forest(X, Y, n_estimators=4, max_features=2, seed=6,
                       feature_names=["f1", "f2", "f3"], label_names=["u", "v"])
    back = forest.from_json(forest.to_json(model))
    assert back.feature_names == model.feature_names
    assert back.label_names == model.label_names
    assert len(back.trees) == len(model.trees)
    assert all(tree_equal(a, b) for a, b in zip(back.trees, model.trees))
    Xt = rng.random((10, 3))
    assert np.array_equal(predict_proba(back, Xt), predict_proba(model, Xt))


def test_importance_svg_and_json_emission(rng):
    X = rng.random((30, 3))
    Y = rng.integers(0, 2, size=30)
    model = fit_forest(X, Y, n_estimators=3, max_features=2, seed=0)
    report = gini_importance(model)
    svg = report.to_svg(k=2, meta="seed=0")
    assert svg.startswith("<svg") and "seed=0" in svg
    d = report.to_dict()
    assert d["importances"] == {f"x{j}": float(report.importances[j]) for j in range(3)}
    assert d["all_leaves"] is report.all_leaves
