import itertools
import math

import numpy as np
import pytest

from xlog import explain, forest
from xlog.explain import (
    Explanation, ale, fit_global_surrogate, ice, kernel_weight, lime_explain,
    pdp, perturb, submodular_pick,
)


def two_class(p):
    return np.column_stack([1.0 - p, p])


def linear_predictor(beta, intercept=0.5):
    def predictor(X):
        return two_class(intercept + X @ beta)
    return predictor


# ---------------------------------------------------------------- curves

def test_pdp_constant_when_feature_ignored(rng):
    X = rng.random((30, 3))
    predictor = linear_predictor(np.asarray([0.0, 0.1, 0.05]))
    curve = pdp(predictor, X, 0, grid=np.asarray([0.0, 0.5, 1.0]), class_index=1)
    assert np.ptp(curve.values) == 0.0


def test_pdp_linear_probability_direct_values(rng):
    X = rng.random((20, 2)) * 3.0
    predictor = linear_predictor(np.asarray([0.1, 0.0]), intercept=0.0)
    curve = pdp(predictor, X, 0, grid=np.asarray([1.0, 2.0, 3.0]), class_index=1)
    assert np.allclose(curve.values, [0.1, 0.2, 0.3], atol=1e-12)


def test_pdp_additive_model_recovers_component_up_to_constant(rng):
    g1 = lambda x: 0.2 * np.sin(x)
    g2 = lambda x: 0.1 * x
    def predictor(X):
        return two_class(0.4 + g1(X[:, 0]) + g2(X[:, 1]))
    X = rng.random((50, 2)) * 2.0
    grid = np.linspace(0.0, 2.0, 9)
    curve = pdp(predictor, X, 0, grid=grid, class_index=1)
    # brute-force expectation over the finite background
    expect = np.asarray([np.mean(0.4 + g1(g) + g2(X[:, 1])) for g in grid])
    assert np.allclose(curve.values, expect, atol=1e-12)
    const = curve.values - g1(grid)
    assert np.ptp(const) < 1e-12


def test_pdp_flags_extrapolating_grid(rng):
    X = rng.random((10, 1))
    predictor = linear_predictor(np.asarray([0.1]))
    assert pdp(predictor, X, 0, grid=np.asarray([-5.0, 0.5]), class_index=1).extrapolated
    assert not pdp(predictor, X, 0, grid=np.asarray([0.5]), class_index=1).extrapolated


def test_ice_mean_equals_pdp_exactly(rng):
    X = rng.random((25, 3))
    def predictor(Z):
        return two_class(0.3 + 0.1 * Z[:, 0] * Z[:, 1] + 0.05 * Z[:, 2])
    grid = np.linspace(0, 1, 7)
    c_ice = ice(predictor, X, 1, grid=grid, class_index=1)
    c_pdp = pdp(predictor, X, 1, grid=grid, class_index=1)
    assert np.array_equal(c_ice.values.mean(axis=0), c_pdp.values)


def test_ice_single_row_equals_pdp(rng):
    X = rng.random((1, 2))
    predictor = linear_predictor(np.asarray([0.2, 0.0]))
    grid = np.asarray([0.1, 0.9])
    assert np.array_equal(ice(predictor, X, 0, grid, 1).values[0],
                          pdp(predictor, X, 0, grid, 1).values)


def test_ice_interaction_gives_row_dependent_slopes():
    X = np.asarray([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    def predictor(Z):
        return two_class(0.2 + 0.3 * Z[:, 0] * Z[:, 1])
    grid = np.asarray([0.0, 1.0])
    curves = ice(predictor, X, 0, grid=grid, class_index=1).values
    slopes = curves[:, 1] - curves[:, 0]
    assert slopes[0] == pytest.approx(0.0)   # x2 = 0 row: no effect
    assert slopes[1] == pytest.approx(0.3)   # x2 = 1 row: full effect
    flat = pdp(predictor, X, 0, grid=grid, class_index=1).values
    assert (flat[1] - flat[0]) == pytest.approx(0.15)


def test_ale_zero_for_ignored_feature(rng):
    X = rng.random((40, 2))
    predictor = linear_predictor(np.asarray([0.0, 0.1]))
    curve = ale(predictor, X, 0, n_intervals=4, class_index=1)
    assert np.allclose(curve.values, 0.0, atol=1e-15)


def test_ale_linear_slope_line():
    X = np.column_stack([np.linspace(0, 1, 21), np.zeros(21)])
    predictor = linear_predictor(np.asarray([0.1, 0.0]), intercept=0.2)
    curve = ale(predictor, X, 0, n_intervals=4, class_index=1)
    # hand-derived: accumulated effects are 0.1 * (z_k - z_0), centered
    raw = 0.1 * (curve.grid - curve.grid[0])
    assert np.allclose(curve.values, raw - raw.mean(), atol=1e-12)
    assert curve.values.mean() == pytest.approx(0.0, abs=1e-12)


def test_ale_matches_centered_pdp_on_additive_independent_background():
    xs = np.linspace(0.0, 1.0, 13)
    bg = np.asarray(list(itertools.product(xs, xs)))
    def predictor(Z):
        return two_class(0.4 + 0.08 * Z[:, 0] + 0.02 * Z[:, 0] ** 2 - 0.05 * Z[:, 1])
    curve_a = ale(predictor, bg, 0, n_intervals=4, class_index=1)
    curve_p = pdp(predictor, bg, 0, grid=curve_a.grid, class_index=1)
    centered = curve_p.values - curve_p.values.mean()
    assert np.abs(curve_a.values - centered).max() < 1e-6


def test_ale_requires_two_distinct_values():
    X = np.ones((5, 1))
    with pytest.raises(ValueError):
        ale(linear_predictor(np.asarray([0.1])), X, 0, 3, 1)


def test_ale_merges_duplicate_quantile_boundaries():
    X = np.asarray([[0.0], [0.0], [0.0], [0.0], [1.0]])
    curve = ale(linear_predictor(np.asarray([0.1])), X, 0, n_intervals=4,
                class_index=1)
    assert curve.merged_intervals > 0
    assert len(curve.values) == len(curve.grid)


def ice_matrix_oracle(predictor, X, j, grid, class_index):
    """ICE by one copy of the background per grid point."""
    rows = []
    for g in grid:
        Xg = X.copy()
        Xg[:, j] = g
        rows.append(predictor(Xg)[:, class_index])
    return np.stack(rows, axis=1)


def ale_oracle(predictor, X, j, n_intervals, class_index):
    """ALE by two predictor calls per non-empty interval, each over a copy of
    that interval's rows only; returns (grid, values, merged intervals)."""
    vals = X[:, j]
    bounds = np.unique(np.quantile(vals, np.linspace(0, 1, n_intervals + 1)))
    k_eff = len(bounds) - 1
    merged = n_intervals - k_eff
    which = np.clip(np.searchsorted(bounds, vals, side="left"), 1, k_eff)
    effects = np.zeros(k_eff)
    for k in range(1, k_eff + 1):
        rows = np.flatnonzero(which == k)
        if rows.size == 0:
            merged += 1
            continue
        hi = X[rows].copy(); hi[:, j] = bounds[k]
        lo = X[rows].copy(); lo[:, j] = bounds[k - 1]
        diff = predictor(hi)[:, class_index] - predictor(lo)[:, class_index]
        effects[k - 1] = float(diff.mean())
    values = np.concatenate([[0.0], np.cumsum(effects)])
    return bounds, values - values.mean(), merged


def curve_case(seed):
    """A seeded background and a forest fit on it. Column 0 is continuous,
    column 1 takes 4 integer values (duplicate quantile bounds), and column 2
    has two tight clumps far apart (intervals with no rows)."""
    rng = np.random.default_rng(seed)
    n = 40 + 10 * seed
    X = np.column_stack([rng.random(n), rng.integers(0, 4, n),
                         np.where(np.arange(n) < n // 2, 0.0, 10.0) + 1e-3 * rng.random(n)])
    Y = (X[:, 0] + 0.3 * X[:, 1] + 0.1 * X[:, 2] + 0.2 * rng.random(n) > 1.2).astype(int)
    model = forest.fit_forest(X, Y, n_estimators=6, max_features=2, seed=seed)
    return X, lambda Z: forest.predict_proba(model, Z)


def test_curves_equal_the_per_grid_point_and_per_interval_oracles():
    merges = set()
    for seed in range(4):
        X, predictor = curve_case(seed)
        before = X.copy()
        for j in range(X.shape[1]):
            grid = np.unique(np.quantile(X[:, j], np.linspace(0, 1, 7)))
            want = ice_matrix_oracle(predictor, X, j, grid, 1)
            assert np.array_equal(ice(predictor, X, j, grid, 1).values, want)
            assert np.array_equal(pdp(predictor, X, j, grid, 1).values, want.mean(axis=0))
            for n_intervals in (3, 7, 12):
                curve = ale(predictor, X, j, n_intervals=n_intervals, class_index=1)
                bounds, values, merged = ale_oracle(predictor, X, j, n_intervals, 1)
                assert np.array_equal(curve.grid, bounds)
                assert np.array_equal(curve.values, values), (seed, j, n_intervals)
                assert curve.merged_intervals == merged
                if merged > n_intervals - (len(bounds) - 1):
                    merges.add("empty interval")
                elif merged:
                    merges.add("duplicate bound")
        assert np.array_equal(X, before)  # the sweeps work on a copy
    assert merges == {"empty interval", "duplicate bound"}


def test_ice_calls_the_predictor_once_per_grid_point_and_ale_twice():
    X, predictor = curve_case(0)
    calls = []

    def counted(Z):
        calls.append(len(Z))
        return predictor(Z)

    grid = np.linspace(0.0, 1.0, 5)
    ice(counted, X, 0, grid, 1)
    assert calls == [len(X)] * len(grid)
    calls.clear()
    curve = ale(counted, X, 0, n_intervals=8, class_index=1)
    assert len(curve.grid) == 9 and calls == [len(X)] * 2


# ------------------------------------------------------------- surrogate

def test_surrogate_tree_recovers_representable_black_box(rng):
    # either candidate root (x0 or x1 at 0.5) leaves children solvable with a
    # single further split, so greedy gini recovers the black box exactly
    X = rng.random((200, 2))
    def black_box(Z):
        p = np.where(Z[:, 0] <= 0.5,
                     np.where(Z[:, 1] <= 0.5, 0.9, 0.1),
                     0.8)
        return two_class(p)
    model, report = fit_global_surrogate(black_box, X, "tree", depth=2)
    assert report.agreement == 1.0


def test_surrogate_linear_r2_against_lstsq_oracle(rng):
    X = rng.random((80, 3))
    beta = np.asarray([0.1, -0.05, 0.2])
    model, report = fit_global_surrogate(linear_predictor(beta), X, "linear")
    assert min(report.r2_per_class) >= 0.999
    A = np.hstack([np.ones((80, 1)), X])
    coef, *_ = np.linalg.lstsq(A, linear_predictor(beta)(X), rcond=None)
    assert np.allclose(model.coef, coef, atol=1e-8)


def test_surrogate_random_black_box_matches_majority_baseline(rng):
    X = rng.random((300, 2))
    labels = rng.integers(0, 2, size=300)
    probs = np.column_stack([1.0 - labels, labels]).astype(float)
    def black_box(Z):
        # pure noise: prediction unrelated to features
        return probs[: len(Z)]
    model, report = fit_global_surrogate(black_box, X, "tree", depth=1)
    majority = max(np.mean(labels == 0), np.mean(labels == 1))
    assert abs(report.agreement - majority) < 0.1


def test_surrogate_constant_black_box_flagged(rng):
    X = rng.random((20, 2))
    def black_box(Z):
        return np.tile([0.7, 0.3], (len(Z), 1))
    _, report = fit_global_surrogate(black_box, X, "linear")
    assert report.degenerate
    assert all(math.isnan(v) for v in report.r2_per_class)


def test_surrogate_fidelity_never_uses_ground_truth(rng):
    # same black box, different "true" labels cannot change the report
    X = rng.random((50, 2))
    predictor = linear_predictor(np.asarray([0.2, -0.1]))
    _, r1 = fit_global_surrogate(predictor, X, "linear")
    _, r2 = fit_global_surrogate(predictor, X, "linear")
    assert r1.r2_per_class == r2.r2_per_class


# ------------------------------------------------------------------ LIME

def test_perturb_sample_zero_is_instance(rng):
    X = rng.integers(0, 3, size=(50, 4)).astype(float)
    inst = X[7]
    samples, Z, _ = perturb(inst, X, 100, seed=3, categorical=[True] * 4)
    assert np.array_equal(samples[0], inst)
    assert np.all(Z[0] == 1.0)


def test_perturb_zero_variance_numeric_always_matches(rng):
    # a numeric column constant in the background is dead, whatever the
    # instance holds there: its scale is 0
    X = np.column_stack([np.full(30, 2.5), rng.random(30)])
    for inst in (X[0], np.asarray([7.0, 0.5])):
        samples, Z, live = perturb(inst, X, 200, seed=1, categorical=[False, False])
        assert np.all(samples[:, 0] == inst[0])
        assert list(live) == [1] and Z.shape == (200, 1)


def test_perturb_constant_numeric_column_has_no_noise():
    # the std of 30 copies of -0.6635 rounds to about 1e-16, not 0
    X = np.column_stack([np.full(30, -0.6635), np.arange(30.0)])
    assert X[:, 0].std() > 0
    samples, Z, live = perturb(X[3], X, 500, seed=2, categorical=[False, False])
    assert np.all(samples[:, 0] == -0.6635)
    assert list(live) == [1] and Z.shape == (500, 1)


def test_perturb_categorical_keep_rate_matches_analytic():
    # keep rate = 0.5 + 0.5 * p_bg(value); here p_bg = 0.5
    X = np.concatenate([np.zeros(500), np.ones(500)])[:, None]
    inst = np.asarray([1.0])
    _, Z, _ = perturb(inst, X, 10000, seed=5, categorical=[True])
    assert Z[:, 0].mean() == pytest.approx(0.75, abs=0.02)


def perturb_oracle(instance, X, n_samples, seed, categorical):
    """``perturb`` as first written: one column at a time, each categorical
    column drawing its keep mask and then ``rng.choice`` from its values.
    Every column is live: Z has one column per column of X."""
    X = np.asarray(X, dtype=float)
    instance = np.asarray(instance, dtype=float)
    n_features = X.shape[1]
    categorical = np.asarray(categorical, dtype=bool)
    rng = np.random.default_rng(seed)
    samples = np.tile(instance, (n_samples, 1))
    for j in range(n_features):
        col = X[:, j]
        if categorical[j]:
            keep = rng.random(n_samples) < 0.5
            draws = rng.choice(col, size=n_samples, replace=True)
            samples[~keep, j] = draws[~keep]
        else:
            sd = float(col.std())
            samples[:, j] = instance[j] + sd * rng.standard_normal(n_samples)
    samples[0] = instance
    return samples, z_of(samples, instance, X, categorical), np.arange(n_features)


def dead_columns(X, instance, categorical):
    """The dead-column rule, one column at a time: constant in the
    background, and held by the instance unless the column is numeric."""
    return np.asarray([np.ptp(X[:, j]) == 0 and (not categorical[j] or instance[j] == X[0, j])
                       for j in range(X.shape[1])], dtype=bool)


def z_of(samples, instance, X, categorical):
    """The interpretable representation by its definition, one column at a
    time: exact agreement for categoricals, within half a background standard
    deviation for numerics."""
    Z = np.empty(samples.shape)
    for j in range(samples.shape[1]):
        if categorical[j]:
            Z[:, j] = (samples[:, j] == instance[j]).astype(float)
        else:
            sd = float(X[:, j].std())
            Z[:, j] = (np.abs(samples[:, j] - instance[j]) <= 0.5 * sd).astype(float)
    return Z


def perturb_cases(count):
    """Seeded backgrounds mixing categorical, numeric, constant numeric and
    constant categorical columns, with the instance sometimes off the
    background. The constant columns are dead unless the instance leaves a
    constant categorical column's value."""
    gen = np.random.default_rng(21)
    for case in range(count):
        rows, F = int(gen.integers(1, 40)), int(gen.integers(1, 30))
        # categorical, numeric, zero-variance numeric, constant categorical
        kind = gen.integers(0, 4, size=F)
        categorical = (kind == 0) | (kind == 3)
        X = np.where(categorical, gen.integers(0, 4, size=(rows, F)),
                     gen.normal(50.0, 20.0, size=(rows, F)))
        X[:, kind == 2] = gen.normal(size=int(np.sum(kind == 2)))
        X[:, kind == 3] = gen.integers(0, 4, size=int(np.sum(kind == 3)))
        inst = X[int(gen.integers(rows))].copy()
        if case % 3 == 0:  # off-background: a numeric shift and an unseen category
            inst[kind == 1] += gen.normal(size=int(np.sum(kind == 1)))
            inst[categorical] = np.where(gen.random(int(np.sum(categorical))) < 0.3, 9.0,
                                         inst[categorical])
        yield case, X, inst, categorical


#: half-width of every sampling bound below, in standard errors. The
#: distribution test makes about 1600 such checks; at 5 a correct sampler fails
#: one of them with probability about 1e-3 (at 4, about 0.1)
SIGMAS = 5.0


def assert_perturb_distribution(samples, Z, live, X, inst, categorical):
    """Row 0 is the instance, the columns outside ``live`` equal the instance
    exactly, Z follows its definition exactly over ``live``, and every live
    column's draws follow the sampling scheme within ``SIGMAS`` standard
    errors: a categorical column takes value v at rate 0.5·[v = instance] +
    0.5·p_bg(v), so it keeps the instance at 0.5 + 0.5·p_bg(instance); a
    numeric column's noise has mean 0 and the background standard deviation."""
    n = len(samples) - 1  # row 0 is fixed, not drawn
    assert np.array_equal(samples[0], inst)
    dead = np.setdiff1d(np.arange(X.shape[1]), live)
    assert np.array_equal(samples[:, dead], np.broadcast_to(inst[dead], (n + 1, len(dead))))
    assert np.array_equal(Z, z_of(samples, inst, X, categorical)[:, live])
    for k, j in enumerate(live):
        col, drawn = X[:, j], samples[1:, j]
        if categorical[j]:
            values = np.union1d(col, inst[j])
            assert np.all(np.isin(drawn, values))
            for v in values:
                p = 0.5 * (v == inst[j]) + 0.5 * np.mean(col == v)
                rate = np.mean(drawn == v)
                assert abs(rate - p) <= SIGMAS * math.sqrt(p * (1 - p) / n), (j, v)
            p_keep = 0.5 + 0.5 * np.mean(col == inst[j])
            assert abs(Z[1:, k].mean() - p_keep) <= SIGMAS * math.sqrt(p_keep * (1 - p_keep) / n)
        else:
            sd, noise = float(col.std()), drawn - inst[j]
            if np.ptp(col) == 0.0:  # sd is 0 or the mean's rounding residue
                assert np.all(np.abs(noise) <= 8.0 * sd + np.spacing(abs(inst[j])))
                continue
            assert abs(noise.mean()) <= SIGMAS * sd / math.sqrt(n)
            # the sample standard deviation of n normals has relative error ~1/sqrt(2n)
            assert abs(noise.std() / sd - 1.0) <= SIGMAS / math.sqrt(2 * n)


def test_perturb_distribution_matches_column_oracle():
    # the bounds hold for the column-at-a-time oracle too, so they pin the
    # sampling scheme both share rather than either one's draws; perturb
    # draws over the live columns only, and keeps every dead column
    dead_seen = live_constant_seen = 0
    for case, X, inst, categorical in perturb_cases(24):
        dead = dead_columns(X, inst, categorical)
        for fn in (perturb, perturb_oracle):
            samples, Z, live = fn(inst, X, 3000, seed=case, categorical=categorical)
            assert samples.shape == (3000, X.shape[1]) and Z.shape == (3000, len(live))
            assert_perturb_distribution(samples, Z, live, X, inst, categorical)
            if fn is perturb:
                assert np.array_equal(live, np.flatnonzero(~dead))
        dead_seen += int(dead.sum())
        live_constant_seen += int(np.sum(~dead & (np.ptp(X, axis=0) == 0)))
    assert dead_seen > 50 and live_constant_seen > 3


def test_perturb_same_seed_same_output_and_seeds_differ():
    for case, X, inst, categorical in perturb_cases(10):
        a = perturb(inst, X, 50, seed=case, categorical=categorical)
        b = perturb(inst, X, 50, seed=case, categorical=categorical)
        assert all(np.array_equal(u, v) for u, v in zip(a, b))
    X = np.random.default_rng(0).normal(size=(20, 5))
    a, _, _ = perturb(X[0], X, 50, seed=1, categorical=[False] * 5)
    b, _, _ = perturb(X[0], X, 50, seed=2, categorical=[False] * 5)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("is_categorical", [False, True])
def test_perturb_one_kind_of_column(is_categorical):
    gen = np.random.default_rng(3)
    X = (gen.integers(0, 5, size=(60, 4)).astype(float) if is_categorical
         else gen.normal(10.0, 2.0, size=(60, 4)))
    samples, Z, live = perturb(X[4], X, 4000, seed=8, categorical=[is_categorical] * 4)
    assert list(live) == [0, 1, 2, 3]
    assert_perturb_distribution(samples, Z, live, X, X[4], [is_categorical] * 4)


def test_perturb_single_sample_is_the_instance():
    X = np.random.default_rng(5).integers(0, 3, size=(10, 3)).astype(float)
    inst = np.asarray([7.0, X[0, 1], 0.5])
    samples, Z, live = perturb(inst, X, 1, seed=0, categorical=[True, True, False])
    assert np.array_equal(samples, inst[None, :])
    assert np.array_equal(Z, np.ones((1, len(live))))


def test_perturb_single_background_row():
    # every column of one row is constant: only the categorical column the
    # instance leaves stays live
    X = np.asarray([[2.0, 1.0, 3.5]])
    inst = np.asarray([2.0, 0.0, 3.5])
    samples, Z, live = perturb(inst, X, 400, seed=6, categorical=[True, True, False])
    assert list(live) == [1]
    assert np.all(samples[:, 0] == 2.0)
    assert set(samples[:, 1]) == {0.0, 1.0}  # the instance's value or the one row's
    assert np.array_equal(Z[:, 0], (samples[:, 1] == 0.0).astype(float))
    assert np.all(samples[:, 2] == 3.5)  # sd 0


def test_perturb_rejects_empty_background_and_no_samples():
    with pytest.raises(ValueError, match="empty background"):
        perturb(np.zeros(2), np.zeros((0, 2)), 10, seed=0, categorical=[True, False])
    with pytest.raises(ValueError, match="n_samples"):
        perturb(np.zeros(2), np.zeros((3, 2)), 0, seed=0, categorical=[True, False])
    with pytest.raises(ValueError, match="2-D"):
        perturb(np.zeros(2), np.zeros(2), 10, seed=0, categorical=[True, False])


def test_perturb_and_lime_reject_lengths_that_miss_the_columns():
    # a short ``categorical`` used to leave uninitialized memory in the
    # samples it did not cover, and hand it to the predictor
    X = np.random.default_rng(4).normal(size=(20, 4))
    calls = []

    def predictor(A):
        calls.append(len(A))
        return two_class(np.full(len(A), 0.5))

    bad = [dict(categorical=[False, False]), dict(categorical=[False] * 5),
           dict(instance=X[0, :3]), dict(instance=np.append(X[0], 1.0))]
    for kw in bad:
        args = {"instance": X[0], "categorical": [False] * 4, **kw}
        with pytest.raises(ValueError, match="one entry per column"):
            perturb(args["instance"], X, 5, 0, args["categorical"])
        with pytest.raises(ValueError, match="one entry per column"):
            lime_explain(predictor, args["instance"], X, 1, K=2, n_samples=5,
                         categorical=args["categorical"])
    with pytest.raises(ValueError, match="3 feature names for 4 columns"):
        lime_explain(predictor, X[0], X, 1, K=2, n_samples=5,
                     feature_names=["a", "b", "c"])
    assert calls == []


def test_kernel_weight_reference_points():
    assert kernel_weight(0.0, 2.0) == 1.0
    assert float(kernel_weight(2.0, 2.0)) == pytest.approx(math.exp(-1.0))  # ~0.3679
    assert float(kernel_weight(4.0, 2.0)) == pytest.approx(math.exp(-4.0))  # ~0.0183
    for sigma in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma must be finite and > 0"):
            kernel_weight(1.0, sigma)


def test_lime_checks_sigma_before_perturbing_or_predicting(monkeypatch):
    X = np.random.default_rng(2).integers(0, 3, size=(30, 3)).astype(float)

    def refuse(*args, **kwargs):
        raise AssertionError("called before sigma was checked")

    monkeypatch.setattr(explain, "perturb", refuse)
    for sigma in (0.0, -2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma must be finite and > 0"):
            lime_explain(refuse, X[0], X, 1, K=2, n_samples=20, sigma=sigma)


def test_lime_selects_driving_binary_feature(rng):
    beta = np.asarray([2.0, 0.0, 0.0])
    def predictor(X):
        return two_class(1.0 / (1.0 + np.exp(-(2.0 * X[:, 0] - 1.0))))
    bg = rng.integers(0, 2, size=(200, 3)).astype(float)
    exp = lime_explain(predictor, np.ones(3), bg, class_index=1, K=1,
                       n_samples=2000, seed=0, categorical=[True] * 3)
    assert list(exp.weights) == ["x0"]
    assert exp.weights["x0"] > 0


def test_lime_recovers_global_linear_weights(rng):
    beta = rng.uniform(0.01, 0.04, size=10) * rng.choice([-1.0, 1.0], size=10)
    predictor = linear_predictor(beta)
    bg = rng.integers(0, 2, size=(300, 10)).astype(float)
    exp = lime_explain(predictor, np.ones(10), bg, class_index=1, K=10,
                       n_samples=5000, sigma=0.75 * math.sqrt(10), seed=4,
                       categorical=[True] * 10)
    got = np.asarray([exp.weights[f"x{j}"] for j in range(10)])
    assert np.all(np.abs(got - beta) / np.abs(beta) < 0.10)
    assert exp.fidelity > 0.999


def test_lime_sigma_infinity_matches_unweighted_least_squares(rng):
    beta = np.asarray([0.05, -0.03, 0.02])
    predictor = linear_predictor(beta)
    bg = rng.integers(0, 2, size=(100, 3)).astype(float)
    inst = np.ones(3)
    exp = lime_explain(predictor, inst, bg, class_index=1, K=3,
                       n_samples=1500, sigma=1e9, seed=2, categorical=[True] * 3)
    samples, Z, live = perturb(inst, bg, 1500, seed=2, categorical=[True] * 3)
    assert list(live) == [0, 1, 2]
    y = predictor(samples)[:, 1]
    A = np.hstack([np.ones((1500, 1)), Z])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    got = np.asarray([exp.weights[f"x{j}"] for j in range(3)])
    assert np.allclose(got, coef[1:], atol=1e-4)


def test_lime_deterministic_under_fixed_seed(rng):
    beta = np.asarray([0.1, -0.1])
    predictor = linear_predictor(beta)
    bg = rng.integers(0, 2, size=(60, 2)).astype(float)
    a = lime_explain(predictor, np.ones(2), bg, 1, K=2, n_samples=500, seed=9,
                     categorical=[True, True])
    b = lime_explain(predictor, np.ones(2), bg, 1, K=2, n_samples=500, seed=9,
                     categorical=[True, True])
    assert a.weights == b.weights and a.intercept == b.intercept
    assert a.fidelity == b.fidelity


def test_lime_without_target_explains_the_predicted_class_in_one_call(rng):
    # forest rows are predicted independently, so the instance's row in the
    # sample batch predicts what a one-row call does
    X = rng.integers(0, 4, size=(90, 5)).astype(float)
    Y = (X[:, 0] + X[:, 1] > 3).astype(int) + (X[:, 2] > 2)
    model = forest.fit_forest(X, Y, 10, 3, seed=1)
    calls = []

    def predictor(A):
        calls.append(len(A))
        return forest.predict_proba(model, A)

    names = ["low", "mid", "high"]
    targets = set()
    for i in range(12):
        predicted = int(np.argmax(forest.predict_proba(model, X[i:i + 1])[0]))
        targets.add(predicted)
        kw = dict(K=2, n_samples=300, seed=i, categorical=[True] * 5, label_names=names)
        calls.clear()
        omitted = lime_explain(predictor, X[i], X, **kw)
        assert calls == [300]
        assert omitted.to_dict() == lime_explain(predictor, X[i], X, predicted, **kw).to_dict()
        assert omitted.target_class == names[predicted]
    assert len(targets) > 1


def test_lime_constant_predictor_flagged(rng):
    bg = rng.integers(0, 2, size=(40, 3)).astype(float)
    def predictor(X):
        return np.tile([0.5, 0.5], (len(X), 1))
    exp = lime_explain(predictor, np.ones(3), bg, 1, K=2, n_samples=200, seed=0,
                       categorical=[True] * 3)
    assert exp.degenerate and exp.weights == {}


def forward_select_oracle(Z, y, w, K, ridge):
    """Greedy selection as first written: one ``_wls`` fit per candidate per
    step. Returns the columns in pick order."""
    selected = []
    remaining = list(range(Z.shape[1]))
    for _ in range(min(K, Z.shape[1])):
        best = None
        for j in remaining:
            _, _, sse = explain._wls(Z[:, selected + [j]], y, w, ridge)
            if best is None or sse < best[0]:
                best = (sse, j)
        selected.append(best[1])
        remaining.remove(best[1])
    return selected


def selection_case(case):
    gen = np.random.default_rng([31, case])
    n, F = int(gen.integers(2, 50)), int(gen.integers(1, 36))
    K = int(gen.integers(1, min(F, 12) + 4))  # K >= F in about one case in five
    Z = (gen.random((n, F)) < gen.uniform(0.2, 0.9)).astype(float)
    if F > 1:
        for _ in range(int(gen.integers(0, 3))):
            a, b = gen.choice(F, 2, replace=False)
            Z[:, b] = Z[:, a]
        Z[:, int(gen.integers(F))] = 1.0
        Z[:, int(gen.integers(F))] = 0.0
    w = np.exp(-gen.uniform(0, 3, n) ** 2)
    zero = gen.random(n) < 0.2
    zero[int(gen.integers(n))] = False
    w[zero] = 0.0
    y = Z @ gen.normal(size=F) + gen.normal() if case % 2 else gen.random(n)
    ridge = (1e-3, 1e-3, 1e-6, 1.0)[case // 2 % 4]
    return Z, y, w, K, ridge


def test_forward_select_equals_per_candidate_oracle():
    # duplicate, all-ones and all-zero columns, zero-weight rows, exact
    # linear fits and more columns than rows all make ties or near-ties
    # that the Gram scores alone cannot order the way the oracle does
    wide = full = 0
    for case in range(600):
        Z, y, w, K, ridge = selection_case(case)
        want = forward_select_oracle(Z, y, w, K, ridge)
        assert explain._forward_select(Z, y, w, K, ridge) == sorted(want), case
        wide += Z.shape[1] >= len(Z)
        full += K >= Z.shape[1]
    assert wide > 100 and full > 50


def cosine_distance_oracle(Z):
    """The kernel distance as first written, over the full Z: the cosine
    distance from each row to the all-ones vector, 1 for an all-zero row."""
    norms = np.sqrt((Z * Z).sum(axis=1))
    ref = np.sqrt(Z.shape[1])
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = Z.sum(axis=1) / (norms * ref)
    cos = np.where(norms == 0, 0.0, cos)
    return 1.0 - cos


def test_kernel_over_live_columns_is_bit_identical_to_the_full_z():
    gen = np.random.default_rng(12)
    for case in range(300):
        n, L, n_dead = (int(v) for v in gen.integers([1, 0, 0], [60, 40, 40]))
        Z = (gen.random((n, L)) < gen.uniform()).astype(float)
        full = np.hstack([Z, np.ones((n, n_dead))])[:, gen.permutation(L + n_dead)]
        got = explain._cosine_distance_to_ones(Z, n_dead)
        want = cosine_distance_oracle(full)
        assert np.array_equal(got, want), case
        sigma = 0.75 * math.sqrt(max(L + n_dead, 1))
        assert np.array_equal(kernel_weight(got, sigma), kernel_weight(want, sigma)), case
    # on perturb's own draws, against Z over every column by its definition
    for case, X, inst, categorical in perturb_cases(24):
        samples, Z, live = perturb(inst, X, 300, seed=case, categorical=categorical)
        full = z_of(samples, inst, X, categorical)
        assert np.all(np.delete(full, live, axis=1) == 1.0)
        assert np.array_equal(explain._cosine_distance_to_ones(Z, X.shape[1] - len(live)),
                              cosine_distance_oracle(full)), case


def test_selection_over_live_columns_equals_the_oracle_on_the_full_z():
    # a dead column is all ones, a copy of the intercept, so while K does not
    # exceed the informative live columns no greedy step picks one, and the
    # selection over the live columns alone is the oracle's on the full Z
    for case in range(200):
        gen = np.random.default_rng([41, case])
        n, L, n_dead = (int(v) for v in gen.integers([30, 1, 1], [120, 20, 30]))
        informative = int(gen.integers(1, L + 1))
        K = int(gen.integers(1, informative + 1))
        Z = (gen.random((n, L)) < gen.uniform(0.2, 0.9)).astype(float)
        Z[:2] = [[0.0], [1.0]]  # no live column is constant
        beta = np.zeros(L)
        beta[gen.choice(L, informative, replace=False)] = (
            gen.choice([-1.0, 1.0], informative) * gen.uniform(0.2, 1.0, informative))
        y = Z @ beta + 0.01 * gen.normal(size=n)
        w = np.exp(-gen.uniform(0, 2, n) ** 2)
        order = gen.permutation(L + n_dead)
        full = np.hstack([Z, np.ones((n, n_dead))])[:, order]
        live = np.flatnonzero(order < L)
        want = sorted(forward_select_oracle(full, y, w, K, explain.LIME_RIDGE))
        got = explain._forward_select(full[:, live], y, w, K, explain.LIME_RIDGE)
        assert list(live[got]) == want, case


def test_lime_selects_only_live_columns_when_k_exceeds_them():
    gen = np.random.default_rng(5)
    bg = gen.integers(0, 3, size=(80, 8)).astype(float)
    bg[:, [1, 4]] = 2.0  # constant categorical columns the instance holds
    bg[:, 6] = 0.25      # a constant numeric column
    bg[:, 7] = gen.normal(size=80)
    categorical = [True] * 6 + [False, False]

    def predictor(A):
        return two_class(0.5 + A @ np.asarray([0.05, 0.1, -0.04, 0.03, 0.1, 0.02, 0.1, 0.01]) / 4)

    names = [f"f{j}" for j in range(8)]
    for K in (5, 8):
        exp = lime_explain(predictor, bg[3], bg, 1, K=K, n_samples=600, seed=1,
                           categorical=categorical, feature_names=names)
        assert list(exp.weights) == ["f0", "f2", "f3", "f5", "f7"]


def test_lime_instance_with_every_column_dead_is_degenerate_after_one_call():
    bg = np.tile([1.0, 4.0, 0.5], (25, 1))
    calls = []

    def predictor(A):
        calls.append(A.copy())
        return two_class(0.2 + 0.1 * A[:, 0] + 0.05 * A[:, 2])

    for inst in (bg[0], np.asarray([1.0, 4.0, 9.0])):  # a constant numeric column is dead
        calls.clear()
        exp = lime_explain(predictor, inst, bg, None, K=2, n_samples=50, seed=0,
                           categorical=[True, True, False])
        assert exp.degenerate and exp.weights == {}
        assert len(calls) == 1 and np.array_equal(calls[0], np.tile(inst, (50, 1)))


def test_lime_peak_memory_on_a_wide_background():
    # the shape of a flat encoding of a 64-step window: 300 rows, 322
    # categorical columns of which 51 are constant, 66 numeric columns of
    # which 64 are constant; 500 samples. The sampler that drew every
    # column, as whole matrices, peaked at 5.0 MB here, and at 4.75 MB on
    # the flat encoding of a synthetic log of that shape
    import tracemalloc
    gen = np.random.default_rng(9)
    numeric = np.zeros(388, dtype=bool)
    numeric[5:384:6] = True
    numeric[-2:] = True
    X = gen.integers(0, 60, size=(300, 388)).astype(float)
    X[:, numeric] = gen.normal(size=(300, int(numeric.sum())))
    constant = np.r_[np.flatnonzero(~numeric)[::6][:51], np.flatnonzero(numeric)[:64]]
    X[:, constant] = X[0, constant]
    beta = gen.normal(scale=0.001, size=388)

    def predictor(A):
        return two_class(0.5 + A @ beta)

    kw = dict(K=5, n_samples=500, seed=3, categorical=list(~numeric))
    lime_explain(predictor, X[7], X, 1, **kw)  # first-call allocations
    tracemalloc.start()
    try:
        exp = lime_explain(predictor, X[7], X, 1, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(exp.weights) == 5
    assert peak <= 4.75e6, peak


def test_lime_age_rule_shows_age_with_positive_weight():
    # mirror of a planted age > 70 rule explained for the rule's class
    rng = np.random.default_rng(8)
    bg = np.column_stack([
        rng.integers(1, 6, size=300).astype(float),          # activity token
        rng.uniform(30, 90, size=300).round(),                # age
    ])
    def predictor(X):
        return two_class((X[:, 1] > 70).astype(float) * 0.8 + 0.1)
    inst = np.asarray([3.0, 76.0])
    exp = lime_explain(predictor, inst, bg, class_index=1, K=2, n_samples=4000,
                       seed=3, categorical=[True, False],
                       feature_names=["activity_0", "age"])
    assert exp.ranked_features()[0] == "age"
    assert exp.weights["age"] > 0


# -------------------------------------------------------- submodular pick

def mk_exp(iid, weights):
    return Explanation(instance_id=iid, target_class="c", weights=weights,
                       intercept=0.0, fidelity=1.0, kernel_width=1.0)


def test_pick_saturates_when_budget_covers_all_supports():
    exps = [mk_exp("a", {"f1": 1.0}), mk_exp("b", {"f2": 2.0}),
            mk_exp("c", {"f1": 0.5, "f2": 0.5})]
    total = sum(explain.submodular_pick(exps, 3).feature_importance.values())
    assert submodular_pick(exps, 3).coverage == pytest.approx(total)


def test_pick_duplicates_add_nothing():
    exps = [mk_exp("a", {"f1": 1.0}), mk_exp("b", {"f1": 1.0})]
    assert submodular_pick(exps, 1).coverage == submodular_pick(exps, 2).coverage


def test_pick_disjoint_supports_greedy_order():
    exps = [mk_exp("a", {"f1": 9.0}), mk_exp("b", {"f2": 4.0}),
            mk_exp("c", {"f3": 1.0})]
    picked = submodular_pick(exps, 2).picked
    assert picked == ["a", "b"]   # sqrt importances 3 > 2 > 1


def test_pick_ties_break_by_instance_id():
    exps = [mk_exp("zz", {"f1": 1.0}), mk_exp("aa", {"f2": 1.0})]
    assert submodular_pick(exps, 1).picked == ["aa"]


_PICK_SCRIPT = """
import numpy as np
from xlog.explain import Explanation, submodular_pick
rng = np.random.default_rng(31)
exps = [Explanation(instance_id=f"i{k}", target_class="c", intercept=0.0,
                    fidelity=1.0, kernel_width=1.0,
                    weights={f"feature_{int(j)}": float(rng.uniform(-1, 1))
                             for j in rng.choice(40, size=12, replace=False)})
        for k in range(8)]
print(repr(submodular_pick(exps, 8).coverage))
"""


def test_pick_coverage_independent_of_string_hash_seed():
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = []
    for hash_seed in ("0", "3", "17"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _PICK_SCRIPT], env=env,
                             capture_output=True, text=True, check=True, timeout=60)
        out.append(run.stdout.strip())
    assert out[0] and out.count(out[0]) == len(out), out


def test_pick_coverage_non_decreasing_in_budget(rng):
    exps = [mk_exp(f"i{k}", {f"f{int(j)}": float(rng.uniform(-1, 1))
                             for j in rng.choice(6, size=rng.integers(1, 4),
                                                 replace=False)})
            for k in range(9)]
    cover = [submodular_pick(exps, b).coverage for b in range(1, 7)]
    assert all(b >= a - 1e-12 for a, b in zip(cover, cover[1:]))


def test_pick_greedy_reaches_1_minus_1_over_e(rng):
    for trial in range(30):
        r = np.random.default_rng(trial)
        n, F, B = int(r.integers(3, 13)), int(r.integers(2, 6)), int(r.integers(1, 5))
        exps = []
        for i in range(n):
            cols = r.choice(F, size=int(r.integers(1, F + 1)), replace=False)
            exps.append(mk_exp(f"i{i:02d}",
                               {f"f{int(j)}": float(r.uniform(-1, 1)) for j in cols}))
        summary = submodular_pick(exps, B)
        imp = summary.feature_importance
        def cov(S):
            feats = set()
            for k in S:
                feats.update(f for f, w in exps[k].weights.items() if w != 0.0)
            return sum(imp[f] for f in feats)
        opt = max(cov(S) for S in itertools.combinations(range(n), min(B, n)))
        assert summary.coverage >= (1 - 1 / math.e) * opt - 1e-12


def test_pick_rejects_empty_or_bad_budget():
    with pytest.raises(ValueError):
        submodular_pick([], 2)
    with pytest.raises(ValueError):
        submodular_pick([mk_exp("a", {"f": 1.0})], 0)


def test_explanation_serialization_roundtrip():
    exp = mk_exp("p1", {"age": 0.3, "activity_0": -0.2})
    d = exp.to_dict()
    assert d["instance"] == "p1" and d["weights"]["age"] == 0.3
    svg = exp.to_svg(meta="m")
    assert svg.startswith("<svg") and "age" in svg


def test_curves_reject_non_increasing_grid(rng):
    X = rng.random((10, 2))
    predictor = linear_predictor(np.asarray([0.1, 0.0]))
    with pytest.raises(ValueError, match="increasing"):
        pdp(predictor, X, 0, grid=np.asarray([0.5, 0.5]), class_index=1)
    with pytest.raises(ValueError, match="increasing"):
        ice(predictor, X, 0, grid=np.asarray([0.9, 0.1]), class_index=1)
