"""Model-agnostic explanation toolbox.

Everything here talks to a black box only through the ``Predictor`` contract:
a pure callable mapping an (M, F) matrix to an (M, C) class-probability
matrix. Curves (PDP / ICE / ALE), global surrogates fit on black-box outputs,
local kernel-weighted linear surrogates, and a greedy coverage pick that
summarizes many local explanations globally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import forest as forest_mod
from . import svgplot


# ---------------------------------------------------------------- curves

@dataclass
class CurveSet:
    kind: str                 # PDP | ICE | ALE
    feature: str
    grid: np.ndarray
    values: np.ndarray        # (len(grid),) for PDP/ALE, (rows, len(grid)) for ICE
    target_class: int
    extrapolated: bool = False
    merged_intervals: int = 0

    def table(self) -> tuple[list[str], list]:
        """CSV header and rows: one row per grid point, with the curve's value
        (PDP/ALE) or one value per instance (ICE)."""
        if self.values.ndim == 1:
            return [self.feature, self.kind.lower()], list(zip(self.grid, self.values))
        header = [self.feature] + [f"instance_{i}" for i in range(len(self.values))]
        return header, [[g, *self.values[:, j]] for j, g in enumerate(self.grid)]

    def to_svg(self, meta: str = "") -> str:
        series = ({self.kind: list(self.values)} if self.values.ndim == 1 else
                  {f"i{k}": list(row) for k, row in enumerate(self.values[:40])})
        return svgplot.line_chart(list(self.grid), series,
                                  title=f"{self.kind} of {self.feature}", meta=meta)


def _resolve(feature, feature_names):
    if isinstance(feature, str):
        if feature_names is None or feature not in feature_names:
            raise ValueError(f"unknown feature {feature!r}")
        j = feature_names.index(feature)
        return j, feature
    j = int(feature)
    return j, (feature_names[j] if feature_names else f"x{j}")


def _sweep(predictor, X, j, values, class_index):
    """Class ``class_index`` probabilities (rows, m) of ``X`` with column
    ``j`` set to each column of the (m,) or (rows, m) ``values`` in turn: one
    predictor call per column, over one reused copy of ``X``."""
    values = np.broadcast_to(values, (len(X), values.shape[-1]))
    Xs = X.copy()
    out = np.empty(values.shape)
    for k in range(values.shape[1]):
        Xs[:, j] = values[:, k]
        out[:, k] = predictor(Xs)[:, class_index]
    return out


def ice(predictor, X, feature, grid=None, class_index: int = 0,
        feature_names=None) -> CurveSet:
    """One curve per background row: prediction as the feature sweeps the grid."""
    X = np.asarray(X, dtype=float)
    if len(X) == 0:
        raise ValueError("empty background")
    j, name = _resolve(feature, feature_names)
    if grid is None:
        grid = np.unique(np.quantile(X[:, j], np.linspace(0, 1, 11)))
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be non-empty and strictly increasing")
    extrapolated = bool(grid.min() < X[:, j].min() or grid.max() > X[:, j].max())
    values = _sweep(predictor, X, j, grid, class_index)
    return CurveSet(kind="ICE", feature=name, grid=grid, values=values,
                    target_class=class_index, extrapolated=extrapolated)


def pdp(predictor, X, feature, grid=None, class_index: int = 0,
        feature_names=None) -> CurveSet:
    """Monte-Carlo partial dependence over the full background: the mean of
    the ICE curves, taken over the same floating-point evaluations."""
    curves = ice(predictor, X, feature, grid, class_index, feature_names)
    return CurveSet(kind="PDP", feature=curves.feature, grid=curves.grid,
                    values=curves.values.mean(axis=0),
                    target_class=class_index, extrapolated=curves.extrapolated)


def ale(predictor, X, feature, n_intervals: int = 10, class_index: int = 0,
        feature_names=None) -> CurveSet:
    """Accumulated local effects over equal-frequency intervals.

    Per interval, the mean prediction difference between its upper and lower
    boundary over the rows whose value falls inside; differences accumulate
    and the curve is centered to mean zero. Intervals left empty after
    boundary deduplication merge into their left neighbor. Two predictor
    calls put every row at its own interval's bounds, so a row's prediction
    must not depend on the other rows of a call, as the forest's does not.
    """
    X = np.asarray(X, dtype=float)
    if n_intervals < 1:
        raise ValueError("n_intervals must be >= 1")
    j, name = _resolve(feature, feature_names)
    vals = X[:, j]
    if len(np.unique(vals)) < 2:
        raise ValueError(f"feature {name!r} has fewer than 2 distinct values")
    bounds = np.unique(np.quantile(vals, np.linspace(0, 1, n_intervals + 1)))
    k_eff = len(bounds) - 1
    merged = (n_intervals - k_eff)
    which = np.clip(np.searchsorted(bounds, vals, side="left"), 1, k_eff)
    lo_hi = _sweep(predictor, X, j, bounds[which[:, None] - [1, 0]], class_index)
    diff = lo_hi[:, 1] - lo_hi[:, 0]
    effects = np.zeros(k_eff)
    for k in range(1, k_eff + 1):
        inside = diff[which == k]
        if inside.size == 0:
            merged += 1
            continue
        effects[k - 1] = float(inside.mean())
    values = np.concatenate([[0.0], np.cumsum(effects)])
    values = values - values.mean()
    return CurveSet(kind="ALE", feature=name, grid=bounds, values=values,
                    target_class=class_index, merged_intervals=merged)


# ------------------------------------------------------- global surrogate

@dataclass
class SurrogateReport:
    kind: str
    r2_per_class: list[float]
    agreement: float
    degenerate: bool = False


@dataclass
class LinearSurrogate:
    coef: np.ndarray       # (F + 1, C), first row is the intercept

    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        return np.hstack([np.ones((len(X), 1)), X]) @ self.coef


@dataclass
class TreeSurrogate:
    tree: forest_mod.Tree

    def predict_proba(self, X):
        return forest_mod.tree_proba(self.tree, np.asarray(X, dtype=float))


def fit_global_surrogate(predictor, X, surrogate_kind: str = "tree",
                         depth: int | None = 3):
    """Fit an interpretable stand-in on the black box's own predictions.

    The black box is evaluated on ``X``; the surrogate is trained against
    those outputs and scored by per-class R^2 on the probabilities plus the
    label agreement rate. Fidelity is measured against the black box, never
    against ground truth.
    """
    X = np.asarray(X, dtype=float)
    if len(X) == 0:
        raise ValueError("empty background")
    probs = predictor(X)
    labels = np.argmax(probs, axis=1)
    n_classes = probs.shape[1]
    if surrogate_kind == "linear":
        A = np.hstack([np.ones((len(X), 1)), X])
        coef, *_ = np.linalg.lstsq(A, probs, rcond=None)
        model = LinearSurrogate(coef=coef)
    elif surrogate_kind == "tree":
        rng = np.random.default_rng(0)
        tree = forest_mod.fit_tree(X, labels, max_features=X.shape[1], rng=rng,
                                   min_leaf=1, max_depth=depth, n_classes=n_classes)
        model = TreeSurrogate(tree=tree)
    else:
        raise ValueError(f"unknown surrogate kind {surrogate_kind!r}")
    approx = model.predict_proba(X)
    r2, degenerate = [], False
    for c in range(n_classes):
        sst = float(np.sum((probs[:, c] - probs[:, c].mean()) ** 2))
        if sst <= 1e-12 * len(X):  # constant output up to rounding
            r2.append(float("nan"))
            degenerate = True
            continue
        sse = float(np.sum((probs[:, c] - approx[:, c]) ** 2))
        r2.append(1.0 - sse / sst)
    agreement = float(np.mean(np.argmax(approx, axis=1) == labels))
    return model, SurrogateReport(kind=surrogate_kind, r2_per_class=r2,
                                  agreement=agreement, degenerate=degenerate)


# ----------------------------------------------------------------- LIME

def perturb(instance, X, n_samples: int, seed: int, categorical):
    """Draw LIME-style perturbations around one instance.

    Categorical columns keep the instance value with probability 0.5, else
    take the value of a background row drawn uniformly; numeric columns get
    gaussian noise scaled by the background standard deviation. A column is
    dead when it is constant in the background and the instance holds that
    value; a numeric column that is constant in the background is always
    dead, as its scale is 0. Every sample holds the instance's value in a
    dead column, so dead columns take no draw and get no column of Z.

    Two draws over the live columns, each one column after another, in this
    order: one integer r per categorical cell, uniform on [1 - N, N] for N
    background rows, where r <= 0 keeps the instance and r > 0 takes
    background row r; then the numeric noise. Returns (samples, Z, live):
    ``live`` holds the indices of the live columns in ascending order, and
    Z (n_samples, len(live)) is the binary interpretable representation over
    them, 1 where a sample agrees with the instance (exactly for
    categoricals, within half a background standard deviation for numerics).
    Row 0 is always the unperturbed instance. Both matrices are built column
    by column, so they are Fortran-ordered.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"background must be a 2-D matrix, got shape {X.shape}")
    if len(X) == 0:
        raise ValueError("empty background")
    instance = np.asarray(instance, dtype=float)
    categorical = np.asarray(categorical, dtype=bool)
    if instance.shape != (X.shape[1],) or categorical.shape != (X.shape[1],):
        raise ValueError(f"instance {instance.shape} and categorical {categorical.shape} "
                         f"need one entry per column of X ({X.shape[1]})")
    low = X.min(axis=0)
    live = np.flatnonzero((low != X.max(axis=0)) | (categorical & (instance != low)))
    is_cat = categorical[live]
    lc, ln = live[is_cat], live[~is_cat]
    N, Lc = len(X), len(lc)
    rng = np.random.default_rng(seed)
    # one row per live categorical column: the instance's value, then the
    # background's; a cell reads position max(r, 0) of its column's row
    r = rng.integers(1 - N, N + 1, size=(Lc, n_samples))
    np.maximum(r, 0, out=r)
    r[:, 0] = 0
    r += np.arange(0, Lc * (N + 1), N + 1)[:, None]
    pool = np.empty((Lc, N + 1))
    pool[:, 0] = instance[lc]
    pool[:, 1:] = X[:, lc].T
    cat_values = pool.take(r)  # flat indices into the C-ordered pool
    del r, pool
    sd = X[:, ln].std(axis=0)[:, None]
    num_values = instance[ln, None] + sd * rng.standard_normal((len(ln), n_samples))
    num_values[:, 0] = instance[ln]
    agree = np.empty((len(live), n_samples), dtype=bool)  # categorical, then numeric
    np.equal(cat_values, instance[lc, None], out=agree[:Lc])
    np.less_equal(np.abs(num_values - instance[ln, None]), 0.5 * sd, out=agree[Lc:])
    samples = np.empty((X.shape[1], n_samples))  # transposed
    samples[:] = instance[:, None]  # the dead columns' values; the live ones follow
    samples[lc] = cat_values
    samples[ln] = num_values
    del cat_values, num_values
    # column k of Z is row rank[k] of ``agree``
    rank = np.where(is_cat, np.cumsum(is_cat) - 1, Lc + np.cumsum(~is_cat) - 1)
    return samples.T, agree[rank].T.astype(float, order="F"), live


def _check_sigma(sigma) -> None:
    if not 0 < sigma < np.inf:  # NaN fails both comparisons
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")


def kernel_weight(distance, sigma: float):
    """exp(-d^2 / sigma^2) similarity weight."""
    _check_sigma(sigma)
    d = np.asarray(distance, dtype=float)
    return np.exp(-(d ** 2) / sigma ** 2)


def _cosine_distance_to_ones(Z, n_dead: int):
    """Cosine distance from each row of ``[Z, 1, …, 1]``, binary Z with
    ``n_dead`` all-ones columns appended, to the all-ones vector. A row with
    s ones has norm sqrt(s), so its cosine is s / (sqrt(s) sqrt(width)); s is
    an exact integer, so this equals the sum over the full matrix bit for
    bit. An all-zero row is at distance 1."""
    s = Z.sum(axis=1) + n_dead
    norms = np.sqrt(s)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = s / (norms * np.sqrt(Z.shape[1] + n_dead))
    cos = np.where(norms == 0, 0.0, cos)
    return 1.0 - cos


def _wls(Z, y, w, ridge: float):
    """Weighted least squares with an unpenalized intercept; returns
    (intercept, coefs, weighted SSE)."""
    A = np.hstack([np.ones((len(Z), 1)), Z])
    Aw = A * w[:, None]
    G = A.T @ Aw
    reg = ridge * np.eye(A.shape[1]); reg[0, 0] = 0.0
    beta = np.linalg.solve(G + reg, Aw.T @ y)
    resid = y - A @ beta
    return float(beta[0]), beta[1:], float(np.sum(w * resid * resid))


#: relative width, in units of yᵀWy, of the band of near-best Gram scores that
#: ``_forward_select`` scores again from the rows; the Gram form's rounding
#: error is a few ulps of yᵀWy
TIE_TOL = 1e-9


def _forward_select(Z, y, w, K: int, ridge: float):
    """Greedy selection of K columns by weighted residual reduction.

    Works from the weighted Gram matrix ``G = AᵀWA`` over ``A = [1, Z]``, of
    which a step needs only the diagonal and the rows of the intercept and
    the selected columns: one matrix-vector product per selected column,
    never the whole (F + 1)² matrix. Each step solves every remaining
    candidate's ridge system (the selected columns plus the candidate,
    intercept unpenalized) in one batched solve and scores it by its weighted
    SSE, ``yᵀWy − 2βᵀc_S + βᵀG_Sβ`` with ``c = AᵀWy``. Candidates within
    ``TIE_TOL · yᵀWy`` of the best score are scored again by ``_wls`` from
    the rows, so ties (duplicate columns, exact fits) resolve as one fit per
    candidate resolves them: the first minimum wins.
    """
    rows = [np.concatenate([[w.sum()], w @ Z])]  # G rows: intercept, then each pick
    diag = np.einsum("ij,ij,i->j", Z, Z, w)
    c = np.concatenate([[w @ y], (w * y) @ Z])
    yy = float(y @ (w * y))
    selected: list[int] = []
    remaining = np.arange(Z.shape[1])
    for k in range(min(K, Z.shape[1])):
        if selected:
            j = selected[-1]
            rows.append(np.concatenate([[rows[0][j + 1]], (w * Z[:, j]) @ Z]))
        G_rows = np.asarray(rows)
        fixed = [0] + [j + 1 for j in selected]  # intercept and picks, as columns of A
        G_S = np.empty((len(remaining), k + 2, k + 2))
        G_S[:, :-1, :-1] = G_rows[:, fixed]
        G_S[:, :-1, -1] = G_S[:, -1, :-1] = G_rows[:, remaining + 1].T
        G_S[:, -1, -1] = diag[remaining]
        c_S = np.empty((len(remaining), k + 2))
        c_S[:, :-1] = c[fixed]
        c_S[:, -1] = c[remaining + 1]
        reg = ridge * np.eye(k + 2); reg[0, 0] = 0.0
        beta = np.linalg.solve(G_S + reg, c_S[:, :, None])[:, :, 0]
        sse = (yy - 2.0 * np.einsum("ri,ri->r", beta, c_S)
               + np.einsum("ri,rij,rj->r", beta, G_S, beta))
        best = int(np.argmin(sse))
        near = np.flatnonzero(sse <= sse[best] + TIE_TOL * yy)
        if len(near) > 1:
            exact = [_wls(Z[:, selected + [int(remaining[r])]], y, w, ridge)[2]
                     for r in near]
            best = int(near[np.argmin(exact)])
        selected.append(int(remaining[best]))
        remaining = np.delete(remaining, best)
    return sorted(selected)


@dataclass
class Explanation:
    instance_id: str
    target_class: str
    weights: dict[str, float]
    intercept: float
    fidelity: float
    kernel_width: float
    degenerate: bool = False

    def ranked_features(self) -> list[str]:
        return [k for k, _ in sorted(self.weights.items(),
                                     key=lambda kv: (-abs(kv[1]), kv[0]))]

    def to_dict(self) -> dict:
        return {"instance": self.instance_id, "class": self.target_class,
                "weights": self.weights, "intercept": self.intercept,
                "fidelity": self.fidelity, "kernel_width": self.kernel_width,
                "degenerate": self.degenerate}

    def to_svg(self, meta: str = "") -> str:
        names = self.ranked_features()
        return svgplot.barh_chart(names, [self.weights[k] for k in names],
                                  title=f"local weights for class {self.target_class}",
                                  meta=meta)


#: ridge penalty of LIME's local weighted least squares (intercept unpenalized)
LIME_RIDGE = 1e-3


def lime_explain(predictor, instance, X, class_index: int | None = None, *, K: int,
                 n_samples: int = 5000, sigma: float | None = None,
                 seed: int = 0, categorical=None, feature_names=None,
                 instance_id: str = "0", label_names=None) -> Explanation:
    """Local surrogate: perturb, weight by kernel similarity, select K
    features, then weighted least squares with ``LIME_RIDGE`` regularization.
    Only the live columns of ``perturb`` are candidates, so at most
    min(K, live) features are selected. Without ``class_index``, explain the
    class predicted for sample row 0, the instance, in the same predictor
    call."""
    if K < 1:
        raise ValueError("K must be >= 1")
    X = np.asarray(X, dtype=float)
    n_features = X.shape[1]
    if categorical is None:
        categorical = [True] * n_features
    if feature_names is None:
        feature_names = [f"x{j}" for j in range(n_features)]
    elif len(feature_names) != n_features:
        raise ValueError(f"{len(feature_names)} feature names for {n_features} columns")
    if sigma is None:
        sigma = 0.75 * np.sqrt(n_features)
    _check_sigma(sigma)
    samples, Z, live = perturb(instance, X, n_samples, seed, categorical)
    probs = predictor(samples)
    del samples
    if class_index is None:
        class_index = int(np.argmax(probs[0]))
    y = probs[:, class_index]
    w = kernel_weight(_cosine_distance_to_ones(Z, n_features - len(live)), sigma)
    label = str(class_index) if label_names is None else label_names[class_index]
    wmean = float(np.sum(w * y) / np.sum(w))
    sst = float(np.sum(w * (y - wmean) ** 2))
    if sst <= 1e-12 * float(np.sum(w)):  # predictor constant around the instance
        return Explanation(instance_id=instance_id, target_class=label,
                           weights={}, intercept=wmean, fidelity=float("nan"),
                           kernel_width=float(sigma), degenerate=True)
    cols = _forward_select(Z, y, w, K, LIME_RIDGE)
    intercept, coefs, sse = _wls(Z[:, cols], y, w, LIME_RIDGE)
    weights = {feature_names[live[j]]: float(c) for j, c in zip(cols, coefs)}
    return Explanation(instance_id=instance_id, target_class=label,
                       weights=weights, intercept=intercept,
                       fidelity=1.0 - sse / sst, kernel_width=float(sigma))


# ------------------------------------------------------- submodular pick

@dataclass
class GlobalSummary:
    picked: list[str]
    explanations: list[Explanation]
    coverage: float
    feature_importance: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"picked": self.picked, "coverage": self.coverage,
                "feature_importance": self.feature_importance,
                "explanations": [e.to_dict() for e in self.explanations]}


def submodular_pick(explanations: list[Explanation], budget: int) -> GlobalSummary:
    """Greedy pick of instances whose explanations maximize weighted feature
    coverage: feature importance is sqrt of the summed |weight| over
    candidates; a picked set covers the union of its nonzero features."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not explanations:
        raise ValueError("empty candidate set")
    importance: dict[str, float] = {}
    for e in explanations:
        for feat, wgt in e.weights.items():
            if wgt != 0.0:
                importance[feat] = importance.get(feat, 0.0) + abs(wgt)
    importance = {f: float(np.sqrt(v)) for f, v in importance.items()}

    def coverage(chosen) -> float:
        seen = set()
        for k in chosen:
            seen.update(f for f, wgt in explanations[k].weights.items() if wgt != 0.0)
        return sum(importance[f] for f in sorted(seen))  # not hash order

    picked: list[int] = []
    for _ in range(min(budget, len(explanations))):
        best = None
        for k in range(len(explanations)):
            if k in picked:
                continue
            gain = coverage(picked + [k]) - coverage(picked)
            key = (-gain, explanations[k].instance_id, k)
            if best is None or key < best:
                best = key
                choice = k
        picked.append(choice)
    return GlobalSummary(picked=[explanations[k].instance_id for k in picked],
                         explanations=[explanations[k] for k in picked],
                         coverage=coverage(picked),
                         feature_importance=dict(sorted(importance.items())))
