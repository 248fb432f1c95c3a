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
    samples, Z = perturb(inst, X, 100, seed=3, categorical=[True] * 4)
    assert np.array_equal(samples[0], inst)
    assert np.all(Z[0] == 1.0)


def test_perturb_zero_variance_numeric_always_matches(rng):
    X = np.column_stack([np.full(30, 2.5), rng.random(30)])
    inst = X[0]
    samples, Z = perturb(inst, X, 200, seed=1, categorical=[False, False])
    assert np.all(samples[:, 0] == 2.5)
    assert np.all(Z[:, 0] == 1.0)


def test_perturb_constant_numeric_column_has_no_noise():
    # the std of 30 copies of -0.6635 rounds to about 1e-16, not 0
    X = np.column_stack([np.full(30, -0.6635), np.arange(30.0)])
    assert X[:, 0].std() > 0
    samples, Z = perturb(X[3], X, 500, seed=2, categorical=[False, False])
    assert np.all(samples[:, 0] == -0.6635)
    assert np.all(Z[:, 0] == 1.0)


def test_perturb_categorical_keep_rate_matches_analytic():
    # keep rate = 0.5 + 0.5 * p_bg(value); here p_bg = 0.5
    X = np.concatenate([np.zeros(500), np.ones(500)])[:, None]
    inst = np.asarray([1.0])
    _, Z = perturb(inst, X, 10000, seed=5, categorical=[True])
    assert Z[:, 0].mean() == pytest.approx(0.75, abs=0.02)


def perturb_oracle(instance, X, n_samples, seed, categorical):
    """``perturb`` as first written: one column at a time, each categorical
    column drawing its keep mask and then ``rng.choice`` from its values."""
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
    return samples, z_of(samples, instance, X, categorical)


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
    """Seeded backgrounds mixing categorical, numeric and constant numeric
    columns, with the instance sometimes off the background."""
    gen = np.random.default_rng(21)
    for case in range(count):
        rows, F = int(gen.integers(1, 40)), int(gen.integers(1, 30))
        kind = gen.integers(0, 3, size=F)  # categorical, numeric, zero-variance numeric
        X = np.where(kind == 0, gen.integers(0, 4, size=(rows, F)),
                     gen.normal(50.0, 20.0, size=(rows, F)))
        X[:, kind == 2] = gen.normal(size=int(np.sum(kind == 2)))
        inst = X[int(gen.integers(rows))].copy()
        if case % 3 == 0:  # off-background: a numeric shift and an unseen category
            inst[kind == 1] += gen.normal(size=int(np.sum(kind == 1)))
            inst[kind == 0] = np.where(gen.random(int(np.sum(kind == 0))) < 0.3, 9.0,
                                       inst[kind == 0])
        yield case, X, inst, kind == 0


#: half-width of every sampling bound below, in standard errors. The
#: distribution test makes about 1700 such checks; at 5 a correct sampler fails
#: one of them with probability about 1e-3 (at 4, about 0.1)
SIGMAS = 5.0


def assert_perturb_distribution(samples, Z, X, inst, categorical):
    """Row 0 is the instance, Z follows its definition exactly, and every
    column's draws follow the sampling scheme within ``SIGMAS`` standard
    errors: a categorical column takes value v at rate 0.5·[v = instance] +
    0.5·p_bg(v), so it keeps the instance at 0.5 + 0.5·p_bg(instance); a
    numeric column's noise has mean 0 and the background standard deviation."""
    n = len(samples) - 1  # row 0 is fixed, not drawn
    assert np.array_equal(samples[0], inst)
    assert np.array_equal(Z, z_of(samples, inst, X, categorical))
    for j in range(X.shape[1]):
        col, drawn = X[:, j], samples[1:, j]
        if categorical[j]:
            values = np.union1d(col, inst[j])
            assert np.all(np.isin(drawn, values))
            for v in values:
                p = 0.5 * (v == inst[j]) + 0.5 * np.mean(col == v)
                rate = np.mean(drawn == v)
                assert abs(rate - p) <= SIGMAS * math.sqrt(p * (1 - p) / n), (j, v)
            p_keep = 0.5 + 0.5 * np.mean(col == inst[j])
            assert abs(Z[1:, j].mean() - p_keep) <= SIGMAS * math.sqrt(p_keep * (1 - p_keep) / n)
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
    # sampling scheme both share rather than either one's draws
    for case, X, inst, categorical in perturb_cases(24):
        for fn in (perturb, perturb_oracle):
            samples, Z = fn(inst, X, 3000, seed=case, categorical=categorical)
            assert samples.shape == Z.shape == (3000, X.shape[1])
            assert_perturb_distribution(samples, Z, X, inst, categorical)


def test_perturb_same_seed_same_output_and_seeds_differ():
    for case, X, inst, categorical in perturb_cases(10):
        a = perturb(inst, X, 50, seed=case, categorical=categorical)
        b = perturb(inst, X, 50, seed=case, categorical=categorical)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    X = np.random.default_rng(0).normal(size=(20, 5))
    a, _ = perturb(X[0], X, 50, seed=1, categorical=[False] * 5)
    b, _ = perturb(X[0], X, 50, seed=2, categorical=[False] * 5)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("is_categorical", [False, True])
def test_perturb_one_kind_of_column(is_categorical):
    gen = np.random.default_rng(3)
    X = (gen.integers(0, 5, size=(60, 4)).astype(float) if is_categorical
         else gen.normal(10.0, 2.0, size=(60, 4)))
    samples, Z = perturb(X[4], X, 4000, seed=8, categorical=[is_categorical] * 4)
    assert_perturb_distribution(samples, Z, X, X[4], [is_categorical] * 4)


def test_perturb_single_sample_is_the_instance():
    X = np.random.default_rng(5).integers(0, 3, size=(10, 3)).astype(float)
    inst = np.asarray([7.0, X[0, 1], 0.5])
    samples, Z = perturb(inst, X, 1, seed=0, categorical=[True, True, False])
    assert np.array_equal(samples, inst[None, :])
    assert np.array_equal(Z, np.ones((1, 3)))


def test_perturb_single_background_row():
    X = np.asarray([[2.0, 1.0, 3.5]])
    inst = np.asarray([2.0, 0.0, 3.5])
    samples, Z = perturb(inst, X, 400, seed=6, categorical=[True, True, False])
    assert np.all(samples[:, 0] == 2.0) and np.all(Z[:, 0] == 1.0)
    assert set(samples[:, 1]) == {0.0, 1.0}  # the instance's value or the one row's
    assert np.array_equal(Z[:, 1], (samples[:, 1] == 0.0).astype(float))
    assert np.all(samples[:, 2] == 3.5) and np.all(Z[:, 2] == 1.0)  # sd 0


def test_perturb_rejects_empty_background_and_no_samples():
    with pytest.raises(ValueError, match="empty background"):
        perturb(np.zeros(2), np.zeros((0, 2)), 10, seed=0, categorical=[True, False])
    with pytest.raises(ValueError, match="n_samples"):
        perturb(np.zeros(2), np.zeros((3, 2)), 0, seed=0, categorical=[True, False])


def test_kernel_weight_reference_points():
    assert kernel_weight(0.0, 2.0) == 1.0
    assert float(kernel_weight(2.0, 2.0)) == pytest.approx(math.exp(-1.0))  # ~0.3679
    assert float(kernel_weight(4.0, 2.0)) == pytest.approx(math.exp(-4.0))  # ~0.0183
    with pytest.raises(ValueError):
        kernel_weight(1.0, 0.0)


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
    samples, Z = perturb(inst, bg, 1500, seed=2, categorical=[True] * 3)
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
