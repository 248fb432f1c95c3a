import json
import tracemalloc

import numpy as np
import pytest

from xlog import latent, seqnet
from xlog.latent import (
    ActivationMatrix, analyze_misclassifications, capture_activations,
    fit_autoencoder, grid_search_ae, kmeans, project, silhouette_score,
)

from test_seqnet import random_batch, toy_model


def make_blobs(rng, n_per=40, dim=20, k=3, spread=4.0):
    centers = rng.normal(size=(k, dim)) * spread
    X = np.vstack([centers[i] + rng.normal(size=(n_per, dim)) for i in range(k)])
    y = np.repeat(np.arange(k), n_per)
    return X, y


def blob_acts(rng, predicted=None, **kw):
    X, y = make_blobs(rng, **kw)
    return ActivationMatrix(values=X, true_labels=y,
                            predicted_labels=y.copy() if predicted is None else predicted,
                            label_names=[f"c{i}" for i in range(int(y.max()) + 1)],
                            case_ids=[f"p{i:03d}" for i in range(len(y))])


# ----------------------------------------------------------------- capture

def test_capture_width_matches_lstm_hidden():
    rng = np.random.default_rng(0)
    X, mask, Y = random_batch(rng, M=7)
    from xlog.encode import SequenceDataset
    ds = SequenceDataset(X=X, mask=mask, Y=Y,
                         label_names=["a", "b", "c"],
                         feature_names=[f"f{i}" for i in range(4)],
                         cat_sizes=[5, 4, 0, 0],
                         case_ids=[str(i) for i in range(7)])
    model = toy_model("lstm", nodes=20)
    acts = capture_activations(model, ds, layer=0)
    assert acts.values.shape == (7, 20)
    assert np.array_equal(acts.true_labels, Y)

    bi = toy_model("bilstm", nodes=20)
    acts2 = capture_activations(bi, ds, layer=0)
    assert acts2.values.shape == (7, 40)


def test_capture_bilstm_concatenates_both_directions():
    rng = np.random.default_rng(1)
    X, mask, Y = random_batch(rng, M=5)
    model = toy_model("bilstm", nodes=6)
    full = seqnet.hidden_summary(model, X, mask)
    # forward half equals an LSTM run with the forward cell alone
    fwd_only = toy_model("lstm", nodes=6)
    for k in ("emb_0", "emb_1"):
        fwd_only.params[k] = model.params[k].copy()
    fwd_only.params["lstm_W"] = model.params["lstm_W_fwd"].copy()
    fwd_only.params["lstm_b"] = model.params["lstm_b_fwd"].copy()
    assert np.array_equal(full[:, :6], seqnet.hidden_summary(fwd_only, X, mask))


def test_capture_identical_rows_identical_activations():
    rng = np.random.default_rng(2)
    X, mask, Y = random_batch(rng, M=4)
    X[2], mask[2] = X[1], mask[1]
    from xlog.encode import SequenceDataset
    ds = SequenceDataset(X=X, mask=mask, Y=Y,
                         label_names=["a", "b", "c"],
                         feature_names=[f"f{i}" for i in range(4)],
                         cat_sizes=[5, 4, 0, 0], case_ids=["a", "b", "c", "d"])
    acts = capture_activations(toy_model("lstm"), ds, layer=0)
    assert np.array_equal(acts.values[1], acts.values[2])


# ------------------------------------------------------------- autoencoder

def test_autoencoder_fits_planar_data_below_1e3(rng):
    Z = rng.uniform(-0.5, 0.5, size=(120, 2))
    A = rng.normal(size=(2, 12)) * 0.5
    acts = ActivationMatrix(values=Z @ A,
                            true_labels=np.zeros(120, dtype=int),
                            predicted_labels=np.zeros(120, dtype=int),
                            label_names=["only"], case_ids=[str(i) for i in range(120)])
    [ae] = fit_autoencoder(acts, [8], epochs=600, lr=0.1, seed=0)
    assert ae.final_mse < 1e-3


def test_autoencoder_zero_lr_keeps_error_constant(rng):
    acts = blob_acts(rng, n_per=15)
    [ae] = fit_autoencoder(acts, [4], epochs=5, lr=0.0, seed=1)
    assert len(set(ae.error_curve)) == 1


def test_autoencoder_descends(rng):
    acts = blob_acts(rng, n_per=20)
    [ae] = fit_autoencoder(acts, [8], epochs=200, lr=0.05, seed=2)
    assert ae.final_mse < ae.error_curve[0]
    assert not ae.diverged


def test_autoencoder_error_nonincreasing_within_transient(rng):
    acts = blob_acts(rng, n_per=25)
    [ae] = fit_autoencoder(acts, [8], epochs=300, lr=0.05, seed=3)
    curve = np.asarray(ae.error_curve)
    assert np.all(curve[1:] <= curve[:-1] * 1.05)


def test_autoencoder_requires_n1_at_least_two(rng):
    with pytest.raises(ValueError):
        fit_autoencoder(blob_acts(rng, n_per=5), [1])


@pytest.mark.parametrize("epochs", [0, -3])
def test_autoencoder_requires_at_least_one_epoch(rng, epochs):
    with pytest.raises(ValueError, match="epochs must be >= 1"):
        fit_autoencoder(blob_acts(rng, n_per=5), [4], epochs=epochs)


def test_autoencoder_rejects_an_empty_grid(rng):
    with pytest.raises(ValueError, match="empty width grid"):
        fit_autoencoder(blob_acts(rng, n_per=5), [])


def oracle_ae_forward(params, Z):
    h1 = np.tanh(Z @ params["enc1_W"] + params["enc1_b"])
    code = h1 @ params["enc2_W"] + params["enc2_b"]
    h2 = np.tanh(code @ params["dec1_W"] + params["dec1_b"])
    return h1, code, h2, h2 @ params["dec2_W"] + params["dec2_b"]


def oracle_fit_autoencoder(acts, n1, epochs, lr, seed):
    """One width fitted on its own by the per-width loop that the lockstep
    fit replaced, kept as the reference with its forward pass and its
    clip-and-step written out."""
    X = np.asarray(acts.values, dtype=float)
    mean = X.mean(axis=0)
    scale = float(np.sqrt(np.mean((X - mean) ** 2))) or 1.0
    Z = (X - mean) / scale
    D = X.shape[1]
    rng = np.random.default_rng(seed)
    uniform = seqnet.init_uniform
    params = {
        "enc1_W": uniform(rng, (D, n1), D), "enc1_b": np.zeros(n1),
        "enc2_W": uniform(rng, (n1, 2), n1), "enc2_b": np.zeros(2),
        "dec1_W": uniform(rng, (2, n1), 2), "dec1_b": np.zeros(n1),
        "dec2_W": uniform(rng, (n1, D), n1), "dec2_b": np.zeros(D),
    }
    ae = latent.Autoencoder(params=params, input_mean=mean, input_scale=scale)
    snapshot = {k: v.copy() for k, v in params.items()}
    for _ in range(epochs):
        h1, code, h2, recon = oracle_ae_forward(params, Z)
        err = recon - Z
        mse = float(np.mean(err * err))
        if not np.isfinite(mse):
            ae.params = snapshot
            ae.diverged = True
            break
        snapshot = {k: v.copy() for k, v in params.items()}
        ae.error_curve.append(mse * scale * scale)
        dr = 2.0 * err / err.size
        g = {}
        g["dec2_W"] = h2.T @ dr
        g["dec2_b"] = dr.sum(axis=0)
        dh2 = (dr @ params["dec2_W"].T) * (1.0 - h2 * h2)
        g["dec1_W"] = code.T @ dh2
        g["dec1_b"] = dh2.sum(axis=0)
        dcode = dh2 @ params["dec1_W"].T
        g["enc2_W"] = h1.T @ dcode
        g["enc2_b"] = dcode.sum(axis=0)
        dh1 = (dcode @ params["enc2_W"].T) * (1.0 - h1 * h1)
        g["enc1_W"] = Z.T @ dh1
        g["enc1_b"] = dh1.sum(axis=0)
        total = np.sqrt(sum(float(np.sum(v * v)) for v in g.values()))
        for k, v in g.items():
            if total > seqnet.CLIP_NORM:
                v *= seqnet.CLIP_NORM / total
            params[k] -= lr * v
    _, _, _, recon = oracle_ae_forward(ae.params, Z)
    ae.final_mse = float(np.mean((recon - Z) ** 2)) * scale * scale
    return ae


def assert_fits_match(fits, oracles, acts, rtol=0.0, atol=0.0):
    """Parameters, curve, final error, flag and codes of each fit against its
    oracle: equal bits when both tolerances are 0."""
    assert len(fits) == len(oracles)
    for fit, oracle in zip(fits, oracles):
        assert fit.params.keys() == oracle.params.keys()
        pairs = [(fit.params[k], oracle.params[k]) for k in oracle.params]
        pairs += [(np.asarray(fit.error_curve), np.asarray(oracle.error_curve)),
                  (np.asarray(fit.final_mse), np.asarray(oracle.final_mse)),
                  (project(fit, acts), project(oracle, acts))]
        assert fit.diverged == oracle.diverged
        for got, want in pairs:
            assert got.shape == want.shape
            if rtol == atol == 0.0:
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


def latent_like_acts(seed, cases=120, width=16):
    """Bounded, correlated activations shaped like an LSTM summary."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 3, size=cases)
    values = np.tanh(rng.normal(size=(3, width))[y] + 0.5 * rng.normal(size=(cases, width)))
    return ActivationMatrix(values=values, true_labels=y, predicted_labels=y.copy(),
                            label_names=["a", "b", "c"],
                            case_ids=[f"p{i:03d}" for i in range(cases)])


@pytest.mark.parametrize("n1", [2, 4, 8, 64])
@pytest.mark.parametrize("seed", [0, 7])
def test_one_width_equals_the_per_width_oracle_bit_for_bit(n1, seed):
    acts = latent_like_acts(seed)
    fits = fit_autoencoder(acts, [n1], epochs=200, lr=0.05, seed=seed)
    assert_fits_match(fits, [oracle_fit_autoencoder(acts, n1, 200, 0.05, seed)], acts)


def test_a_clipped_width_equals_the_oracle_bit_for_bit(rng):
    # lr 5 clips most steps, so the per-model norm must round as the dict's does
    acts = blob_acts(rng, n_per=20, dim=6)
    fits = fit_autoencoder(acts, [4], epochs=60, lr=5.0, seed=3)
    assert_fits_match(fits, [oracle_fit_autoencoder(acts, 4, 60, 5.0, 3)], acts)


#: how far a zero-padded width may move from its lone fit: 1e-9 relative,
#: with an absolute floor for entries near 0; the padded sums move them by
#: about 1e-15 after a few hundred steps
PADDED_RTOL, PADDED_ATOL = 1e-9, 1e-12


@pytest.mark.parametrize("grid", [[4, 8], [4, 4], [2, 64], [2, 4, 8, 16, 32], [8, 3, 5]],
                         ids=lambda g: ",".join(map(str, g)))
def test_grid_matches_the_per_width_oracle(grid):
    acts = latent_like_acts(len(grid), cases=150)
    fits = fit_autoencoder(acts, grid, epochs=300, lr=0.05, seed=11)
    oracles = [oracle_fit_autoencoder(acts, n1, 300, 0.05, 11 + i) for i, n1 in enumerate(grid)]
    assert_fits_match(fits, oracles, acts, rtol=PADDED_RTOL, atol=PADDED_ATOL)
    for group in latent._width_groups(grid, 150, 16):
        if len(group) == 1:  # a width alone in its group is not padded
            assert_fits_match([fits[group[0]]], [oracles[group[0]]], acts)


@pytest.mark.parametrize("grid, groups", [
    ([4, 8], [[0, 1]]), ([8, 4], [[1, 0]]), ([4, 4], [[0, 1]]), ([2, 64], [[0], [1]]),
    ([2, 4, 8, 16, 32], [[0, 1], [2, 3], [4]]), ([5, 3, 8, 6], [[1, 0, 3], [2]]),
])
def test_width_groups_pad_at_most_to_double(grid, groups):
    assert latent._width_groups(grid, 300, 16) == groups


def test_width_groups_fit_the_block_bytes():
    per_width = latent.AE_BLOCK_BYTES // 3  # three buffers of (cases, 16) fit, four do not
    cases = per_width // (16 * 8)
    assert latent._width_groups([4] * 7, cases, 16) == [[0, 1, 2], [3, 4, 5], [6]]
    # a width whose buffer alone exceeds the block still gets a group
    assert latent._width_groups([4, 4], 10 * cases, 16) == [[0], [1]]


# at lr 10**152.25 this data sends widths 8 and up to overflow in their third
# epoch while narrower widths stay finite through 12 epochs
DIVERGING_LR = 10 ** 152.25


@pytest.mark.parametrize("grid", [[4, 8], [16, 6, 8], [2, 3, 12]],
                         ids=lambda g: ",".join(map(str, g)))
def test_a_diverging_width_is_flagged_as_the_oracle_flags_it(grid):
    acts = ActivationMatrix(values=np.random.default_rng(0).normal(size=(40, 6)),
                            true_labels=np.zeros(40, dtype=int),
                            predicted_labels=np.zeros(40, dtype=int),
                            label_names=["only"], case_ids=[str(i) for i in range(40)])
    with np.errstate(all="ignore"):
        fits = fit_autoencoder(acts, grid, epochs=12, lr=DIVERGING_LR, seed=0)
        oracles = [oracle_fit_autoencoder(acts, n1, 12, DIVERGING_LR, i)
                   for i, n1 in enumerate(grid)]
        assert [f.diverged for f in fits] == [n1 >= 8 for n1 in grid]
        assert_fits_match(fits, oracles, acts, rtol=PADDED_RTOL, atol=PADDED_ATOL)
        first = next(n1 for n1, o in zip(grid, oracles) if o.diverged)
        with pytest.raises(FloatingPointError,
                           match=rf"^autoencoder of width {first} diverged; try a smaller --lr$"):
            grid_search_ae(acts, grid, epochs=12, lr=DIVERGING_LR, seed=0, k=1)


def test_autoencoder_grid_memory_is_bounded_by_its_block_bytes():
    # eight widths of 4 over 2048 x 16 inputs: one stack of all eight would
    # hold (8, 2048, 16) buffers of 2 MiB each, four times AE_BLOCK_BYTES
    cases, grid = 2048, [4] * 8
    assert len(grid) * cases * 16 * 8 >= 4 * latent.AE_BLOCK_BYTES
    acts = latent_like_acts(0, cases=cases)
    tracemalloc.start()
    try:
        fit_autoencoder(acts, grid, epochs=3, lr=0.05, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * latent.AE_BLOCK_BYTES


# ----------------------------------------------------------------- project

def test_project_shapes_and_purity_of_functional_output(rng):
    acts = blob_acts(rng, n_per=10)
    [ae] = fit_autoencoder(acts, [4], epochs=50, lr=0.05, seed=4)
    p1 = project(ae, acts)
    p2 = project(ae, acts)
    assert p1.shape == (30, 2)
    assert np.all(np.isfinite(p1))
    assert np.array_equal(p1, p2)  # bitwise pure


def test_project_duplicate_rows_duplicate_coordinates(rng):
    acts = blob_acts(rng, n_per=10)
    acts.values[3] = acts.values[4]
    [ae] = fit_autoencoder(acts, [4], epochs=50, lr=0.05, seed=5)
    coords = project(ae, acts)
    assert np.array_equal(coords[3], coords[4])


def test_project_rejects_width_mismatch(rng):
    acts = blob_acts(rng, n_per=10, dim=20)
    [ae] = fit_autoencoder(acts, [4], epochs=10, lr=0.05, seed=6)
    with pytest.raises(ValueError):
        project(ae, blob_acts(rng, n_per=5, dim=7))


def test_project_separates_blobs_with_good_silhouette(rng):
    acts = blob_acts(rng, n_per=50, spread=4.0)
    [ae] = fit_autoencoder(acts, [8], epochs=400, lr=0.05, seed=7)
    coords = project(ae, acts)
    labels, _, _ = kmeans(coords, 3, seed=0)
    assert silhouette_score(coords, labels) > 0.5


# ------------------------------------------------------------------ kmeans

def oracle_kmeans(X, k, seed, restarts=20, trace=None):
    """The per-restart k-means that the lockstep one replaced, kept as the
    reference it must equal bit for bit. ``trace``, if given, receives one
    (Lloyd steps, empty clusters refilled) pair per restart."""
    X = np.asarray(X, dtype=float)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(X):
        raise ValueError(f"k={k} exceeds {len(X)} points")
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        centers = X[rng.choice(len(X), size=k, replace=False)].copy()
        labels = np.zeros(len(X), dtype=np.int64)
        steps = empties = 0
        for _ in range(100):
            steps += 1
            d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = np.argmin(d2, axis=1)
            for c in range(k):
                members = X[new_labels == c]
                if len(members):
                    centers[c] = members.mean(axis=0)
                else:
                    empties += 1
                    far = int(np.argmax(d2[np.arange(len(X)), new_labels]))
                    centers[c] = X[far]
                    new_labels[far] = c
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        if trace is not None:
            trace.append((steps, empties))
        inertia = float(((X - centers[labels]) ** 2).sum())
        if best is None or inertia < best[2]:
            best = (labels.copy(), centers.copy(), inertia)
    return best


def assert_same_kmeans(got, want, case=None):
    assert got[0].dtype == want[0].dtype, case
    assert np.array_equal(got[0], want[0]), case
    assert np.array_equal(got[1], want[1]), case
    assert got[2] == want[2], case


def test_kmeans_equals_per_restart_oracle_bit_for_bit():
    # n is log-uniform over [3, 600]; every third input is rounded (ties) and
    # every third is a few distinct points repeated (empty clusters)
    gen = np.random.default_rng(2020)
    refills, staggered = 0, 0
    for case in range(120):
        n = int(np.exp(gen.uniform(np.log(3), np.log(601))))
        dims, restarts = 2 + (case // 6) % 2, 20 if case % 2 else 1
        k = int(gen.integers(1, min(6, n) + 1))
        X = gen.normal(size=(n, dims)) * gen.uniform(0.1, 10.0)
        if case % 3 == 1:
            X = np.round(X)
        elif case % 3 == 2:
            X = X[gen.integers(0, k + n // 10, size=n)]
        trace = []
        want = oracle_kmeans(X, k, seed=case, restarts=restarts, trace=trace)
        assert_same_kmeans(kmeans(X, k, seed=case, restarts=restarts), want, case)
        refills += sum(e for _, e in trace)
        staggered += len({s for s, _ in trace}) > 1
    assert refills > 0      # the empty-cluster replay ran
    assert staggered > 10   # restarts left their group at different steps


def test_kmeans_equals_oracle_when_fewer_distinct_points_than_clusters():
    # some cluster is empty at every step, so no restart settles in 100 steps
    rng = np.random.default_rng(5)
    X = rng.normal(size=(3, 2))[rng.integers(0, 3, size=40)]
    trace = []
    want = oracle_kmeans(X, 5, seed=1, restarts=5, trace=trace)
    assert_same_kmeans(kmeans(X, 5, seed=1, restarts=5), want)
    assert all(steps == 100 and empties >= 100 for steps, empties in trace)


def test_kmeans_equals_oracle_when_restarts_exceed_one_group(monkeypatch):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(200, 2)) + rng.integers(0, 4, size=200)[:, None] * 3.0
    monkeypatch.setattr(latent, "KMEANS_BLOCK_BYTES", 7 * 4 * 200 * 8)  # groups of 7
    assert_same_kmeans(kmeans(X, 4, seed=3), oracle_kmeans(X, 4, seed=3))


def test_kmeans_one_column_matches_oracle_within_rounding():
    # numpy's one-column mean sums pairwise, the lockstep sums in order
    for seed in range(4):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(300, 1)) + rng.integers(0, 3, size=300)[:, None] * 50.0
        got, want = kmeans(X, 3, seed=seed), oracle_kmeans(X, 3, seed=seed)
        assert np.array_equal(got[0], want[0])
        np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=0)
        assert got[2] == pytest.approx(want[2], rel=1e-12)


def test_kmeans_memory_is_bounded_by_the_group_budget():
    # 20 restarts of an (8, 8192) block would hold 10 MiB, 20x the budget; the
    # oracle's peak does not grow with its restarts, so one restart is its least
    n, k = 8192, 8
    assert 20 * k * n * 8 >= 10 * latent.KMEANS_BLOCK_BYTES
    rng = np.random.default_rng(0)
    angle = np.arange(k) * 2 * np.pi / k
    X = rng.normal(size=(n, 2)) + 100 * np.c_[np.cos(angle), np.sin(angle)][
        rng.integers(0, k, size=n)]
    peaks = []
    for run in (lambda: oracle_kmeans(X, k, seed=0, restarts=1),
                lambda: kmeans(X, k, seed=0, restarts=20)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]


def test_kmeans_best_of_restarts_beats_single_restart(rng):
    X, _ = make_blobs(rng, n_per=30, dim=2, k=3)
    _, _, best = kmeans(X, 3, seed=11, restarts=20)
    for r in range(20):
        _, _, single = kmeans(X, 3, seed=11 + r, restarts=1)
        assert best <= single + 1e-9


def test_kmeans_rejects_k_above_m(rng):
    with pytest.raises(ValueError):
        kmeans(rng.random((3, 2)), 4, seed=0)


@pytest.mark.parametrize("k", [0, -1])
def test_kmeans_rejects_k_below_one(rng, k):
    with pytest.raises(ValueError, match="k must be >= 1"):
        kmeans(rng.random((5, 2)), k, seed=0)


@pytest.mark.parametrize("X, kw, message", [
    ([[0.0, 1.0], [1.0, 1.0], [2.0, 2.0]], {"restarts": 0}, r"restarts must be >= 1, got 0"),
    ([[0.0, 1.0], [1.0, 1.0], [2.0, 2.0]], {"restarts": -2}, r"restarts must be >= 1, got -2"),
    ([0.0, 1.0, 2.0], {}, r"X must be a 2-D \(points, dimensions\) array, got 1-D"),
    ([[0.0, np.nan], [1.0, 1.0], [2.0, 2.0]], {}, r"X has a NaN or infinite coordinate"),
], ids=["no-restart", "negative-restarts", "one-d", "nan"])
def test_kmeans_rejects_what_it_cannot_cluster_before_any_draw(monkeypatch, X, kw, message):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a random start")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match=message):
        kmeans(np.asarray(X), 2, seed=0, **kw)


def oracle_silhouette_score(X, labels) -> float:
    """The silhouette over the full distance matrix that the blocked one
    replaced, kept verbatim as the reference it must equal exactly."""
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    if len(uniq) < 2:
        return 0.0
    d = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
    scores = np.zeros(len(X))
    for i in range(len(X)):
        same = labels == labels[i]
        n_same = same.sum()
        if n_same <= 1:
            continue
        a = d[i, same].sum() / (n_same - 1)
        b = min(d[i, labels == c].mean() for c in uniq if c != labels[i])
        scores[i] = (b - a) / max(a, b) if max(a, b) > 0 else 0.0
    return float(scores.mean())


@pytest.mark.parametrize("n, dim, k", [(7, 2, 3), (300, 2, 3), (2000, 2, 4), (600, 5, 2)])
def test_silhouette_equals_full_matrix_oracle(n, dim, k):
    rng = np.random.default_rng(n + dim)
    X = rng.normal(size=(n, dim)) + rng.integers(0, k, size=n)[:, None] * 1.5
    labels = rng.integers(0, k, size=n)
    labels[0] = k  # a single-member cluster scores 0
    assert silhouette_score(X, labels) == oracle_silhouette_score(X, labels)
    names = np.asarray([f"c{v}" for v in labels])
    assert silhouette_score(X, names) == oracle_silhouette_score(X, names)


def test_silhouette_equals_oracle_in_random_sweep():
    # the per-cluster sums must round exactly as the oracle's per-row sums do;
    # n is log-uniform over [2, 700] so that the oracle's row loop stays cheap
    gen = np.random.default_rng(300)
    for case in range(300):
        n = int(np.exp(gen.uniform(np.log(2), np.log(701))))
        k, dim = int(gen.integers(2, 7)), int(gen.integers(1, 6))
        X = gen.normal(size=(n, dim)) * gen.uniform(0.1, 10.0)
        labels = gen.integers(0, k, size=n)
        if case % 4 == 0:
            labels[0] = k  # a single-member cluster
        if case % 2:
            labels = np.asarray([f"c{v}" for v in labels])
        assert silhouette_score(X, labels) == oracle_silhouette_score(X, labels), case


def test_silhouette_memory_is_bounded_at_5000_points():
    # the full distance matrix alone is 200 MB here; blocks of 256 rows stay near 40 MB
    rng = np.random.default_rng(5000)
    X = rng.normal(size=(5000, 2))
    labels = rng.integers(0, 3, size=5000)
    tracemalloc.start()
    try:
        silhouette_score(X, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_silhouette_well_separated_near_one():
    X = np.vstack([np.zeros((10, 2)), np.full((10, 2), 100.0)])
    labels = np.repeat([0, 1], 10)
    assert silhouette_score(X, labels) > 0.95


# ------------------------------------------------------- misclassification

def test_analyze_pure_blobs_purity_one_no_suspects(rng):
    acts = blob_acts(rng, n_per=20, dim=2, spread=8.0)
    coords = project(fit_autoencoder(acts, [4], epochs=300, lr=0.05, seed=8)[0], acts)
    _, report = analyze_misclassifications(acts, coords, k=3, seed=1)
    assert report.purity == 1.0
    assert all(len(v) == 0 for v in report.misclassified.values())


def test_analyze_planted_outlier_is_listed(rng):
    X, y = make_blobs(rng, n_per=30, dim=20, k=3, spread=5.0)
    # move one class-0 instance into the middle of blob 2
    X[0] = X[y == 2].mean(axis=0)
    predicted = y.copy()
    acts = ActivationMatrix(values=X, true_labels=y,
                            predicted_labels=predicted,
                            label_names=["c0", "c1", "c2"],
                            case_ids=[f"p{i:03d}" for i in range(len(y))])
    [ae] = fit_autoencoder(acts, [8], epochs=400, lr=0.05, seed=9)
    _, report = analyze_misclassifications(acts, project(ae, acts), k=3, seed=2)
    assert any("p000" in ids for ids in report.misclassified.values())


def test_analyze_k1_purity_is_majority_fraction(rng):
    acts = blob_acts(rng, n_per=10, dim=2)
    acts.true_labels = np.asarray([0] * 18 + [1] * 12)
    coords = project(fit_autoencoder(acts, [4], epochs=30, lr=0.05, seed=0)[0], acts)
    _, report = analyze_misclassifications(acts, coords, k=1, seed=0)
    assert report.purity == pytest.approx(18 / 30)


def cluster_report_oracle(acts, labels, k) -> dict:
    """The cluster report of ``labels`` by a purity loop over the clusters and
    a majority and suspect loop over each cluster's members."""
    correct = 0
    for c in range(k):
        members = acts.true_labels[labels == c]
        if len(members):
            correct += int(np.bincount(members).max())
    majority, sizes, suspects = [], [], {}
    for c in range(k):
        members = np.flatnonzero(labels == c)
        sizes.append(len(members))
        if len(members) == 0:
            majority.append("")
            suspects[str(c)] = []
            continue
        maj = int(np.bincount(acts.true_labels[members]).argmax())
        majority.append(acts.label_names[maj])
        suspects[str(c)] = [acts.case_ids[i] for i in members if acts.predicted_labels[i] != maj]
    return {"k": k, "purity": correct / len(acts.true_labels), "majority_label": majority,
            "cluster_sizes": sizes, "misclassified": suspects}


def test_cluster_report_equals_the_per_member_oracle(monkeypatch):
    real = latent.kmeans
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(8, 60)), int(rng.integers(1, 6))
        names = [f"c{i}" for i in range(4)]
        used = rng.choice(4, size=int(rng.integers(1, 4)), replace=False)  # gaps, ties
        coords = rng.normal(size=(n, 2))
        acts = ActivationMatrix(
            values=coords, true_labels=rng.choice(used, size=n),
            predicted_labels=rng.integers(0, 4, size=n), label_names=names,
            case_ids=[f"p{i}" for i in range(n)])
        if seed % 3 == 0 and k > 1:  # cluster 1 left empty
            forced = rng.choice([c for c in range(k) if c != 1], size=n)
            monkeypatch.setattr(latent, "kmeans", lambda X, k, seed: (forced, None, None))
        clusters, report = analyze_misclassifications(acts, coords, k=k, seed=seed)
        monkeypatch.setattr(latent, "kmeans", real)
        want = cluster_report_oracle(acts, clusters, k)
        assert json.dumps(report.to_dict()) == json.dumps(want), seed
        if seed % 3 == 0 and k > 1:
            assert report.cluster_sizes[1] == 0 and report.majority_label[1] == ""


def test_analyze_rejects_bad_k(rng):
    acts = blob_acts(rng, n_per=4, dim=2)
    coords = project(fit_autoencoder(acts, [4], epochs=10, lr=0.05, seed=0)[0], acts)
    with pytest.raises(ValueError):
        analyze_misclassifications(acts, coords, k=0)
    with pytest.raises(ValueError):
        analyze_misclassifications(acts, coords, k=1000)


# -------------------------------------------------------------- grid search

def test_grid_search_ae_single_candidate(rng):
    acts = blob_acts(rng, n_per=15)
    rows, projections, reports = grid_search_ae(acts, [4], epochs=50, lr=0.05, seed=0)
    assert len(rows) == 1 and rows[0].best
    assert len(projections) == len(reports) == 1


def test_grid_search_ae_reports_the_clusters_that_ranked_each_candidate(rng):
    acts = blob_acts(rng, n_per=15)
    candidates = [2, 4, 8]
    rows, projections, reports = grid_search_ae(acts, candidates, epochs=60, lr=0.05,
                                                seed=3, k=3)
    for row, proj, report in zip(rows, projections, reports):
        i = candidates.index(row.n1)
        labels, _, _ = kmeans(proj.coordinates, 3, seed=3 + i)
        assert np.array_equal(proj.clusters, labels)
        assert row.silhouette == silhouette_score(proj.coordinates, proj.clusters)
        assert proj.acts is acts
        assert report.purity == cluster_report_oracle(acts, labels, 3)["purity"]
        assert report.cluster_sizes == np.bincount(labels, minlength=3).tolist()


def test_grid_search_ae_similar_mse_ranked_by_silhouette(rng):
    Z = rng.uniform(-0.5, 0.5, size=(90, 2))
    A = rng.normal(size=(2, 10)) * 0.5
    y = np.repeat(np.arange(3), 30)
    vals = Z @ A + y[:, None] * 2.0
    acts = ActivationMatrix(values=vals, true_labels=y,
                            predicted_labels=y.copy(), label_names=["a", "b", "c"],
                            case_ids=[str(i) for i in range(90)])
    rows, _, _ = grid_search_ae(acts, [4, 8, 16], epochs=250, lr=0.05, seed=1)
    assert rows[0].silhouette == max(r.silhouette for r in rows)
    assert sum(r.best for r in rows) == 1


def test_grid_search_ae_deterministic(rng):
    acts = blob_acts(rng, n_per=12)
    r1, _, _ = grid_search_ae(acts, [4, 8], epochs=40, lr=0.05, seed=5)
    r2, _, _ = grid_search_ae(acts, [4, 8], epochs=40, lr=0.05, seed=5)
    assert [(a.n1, a.mse, a.silhouette) for a in r1] == \
        [(a.n1, a.mse, a.silhouette) for a in r2]


def test_grid_search_ae_rejects_empty(rng):
    with pytest.raises(ValueError):
        grid_search_ae(blob_acts(rng, n_per=5), [], epochs=5)


def test_grid_search_ae_raises_naming_a_width_that_diverged(rng):
    with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"^autoencoder of width 4 diverged; try a smaller --lr$"):
        grid_search_ae(blob_acts(rng, n_per=10), [4, 8], epochs=20, lr=1e200)


def test_projection_csv_layout(rng):
    acts = blob_acts(rng, n_per=5, dim=2)
    coords = project(fit_autoencoder(acts, [4], epochs=10, lr=0.05, seed=0)[0], acts)
    clusters, _ = analyze_misclassifications(acts, coords, k=2, seed=0)
    header, rows = latent.LatentProjection(acts, coords, clusters).table()
    assert header == ["id", "x", "y", "true", "predicted", "cluster"]
    assert len(rows) == 15
    assert [r[0] for r in rows] == acts.case_ids
    assert [r[1:3] for r in rows] == coords.tolist()
    assert [r[3:5] for r in rows] == [[f"c{t}", f"c{p}"] for t, p in
                                      zip(acts.true_labels, acts.predicted_labels)]
    assert [r[5] for r in rows] == clusters.tolist()
