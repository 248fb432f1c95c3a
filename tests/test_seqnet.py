import numpy as np
import pytest

from xlog import seqnet
from xlog.encode import Split
from xlog.seqnet import (
    SeqNetModel, _lstm_step, _scan_weights, build_model, evaluate, forward, grad_check,
    grid_search, loss_and_grads, train,
)


def random_batch(rng, M=6, T=5, cat_sizes=(5, 4), n_num=2, n_classes=3):
    F = len(cat_sizes) + n_num
    X = np.zeros((M, T, F))
    for j, size in enumerate(cat_sizes):
        X[:, :, j] = rng.integers(1, size + 1, size=(M, T))
    X[:, :, len(cat_sizes):] = rng.random((M, T, n_num))
    lengths = rng.integers(1, T + 1, size=M)
    mask = np.arange(T)[None, :] < lengths[:, None]
    X[~mask] = 0.0
    Y = rng.integers(0, n_classes, size=M)
    return X, mask, Y


def toy_model(arch, rng_seed=3, nodes=7, cat_sizes=(5, 4), n_num=2, n_classes=3):
    F = len(cat_sizes) + n_num
    return build_model(arch, nodes, [f"f{i}" for i in range(F)],
                       list(cat_sizes) + [0] * n_num,
                       [f"c{i}" for i in range(n_classes)], seed=rng_seed)


# ------------------------------------------------------------- lstm cell

def lstm_cell(W, b, x_t, h, c):
    """One step of the scan's cell on (M, H) states, from a ``W`` (D + H, 4H)
    with rows input then hidden and columns the gates i, f, o, g; returns the
    new ``(c, h)``."""
    D = x_t.shape[1]
    Ws, bs = _scan_weights(W, b)
    z = x_t @ Ws[:D] + bs
    c_new, tc, h_new = np.empty_like(h), np.empty_like(h), np.empty_like(h)
    _lstm_step(z, Ws[D:], h, c, c_new, tc, h_new, np.empty_like(z))
    return c_new, h_new


def test_lstm_cell_zero_everything_gives_zero_state():
    c, h = lstm_cell(np.zeros((3, 8)), np.zeros(8), np.zeros((1, 1)),
                     np.zeros((1, 2)), np.zeros((1, 2)))
    assert np.all(c == 0.0) and np.all(h == 0.0)


def test_lstm_cell_saturated_gates_preserve_memory(rng):
    H = 3
    b = np.concatenate([np.full(H, -1e3), np.full(H, 1e3), np.zeros(H), np.zeros(H)])
    W = np.zeros((2 + H, 4 * H))
    C0 = np.asarray([[0.4, -1.2, 2.0]])
    c, h = C0.copy(), np.zeros((1, H))
    for _ in range(5):
        c, h = lstm_cell(W, b, rng.random((1, 2)), h, c)
    assert np.array_equal(c, C0)


def test_lstm_cell_matches_hand_computed_scalar_cell():
    # single scalar cell, gate order (i, f, o, g); values worked out by hand
    W = np.asarray([[0.5, -0.3, 0.8, 1.0],
                    [0.2, 0.6, -0.4, 0.1]])
    b = np.asarray([0.1, -0.2, 0.3, 0.0])
    c, h = lstm_cell(W, b, np.asarray([[0.7]]), np.asarray([[-0.5]]),
                     np.asarray([[0.25]]))
    assert c[0, 0] == pytest.approx(0.417751, abs=5e-7)
    assert h[0, 0] == pytest.approx(0.293388, abs=5e-7)


@pytest.mark.parametrize("arch", seqnet.ARCHS)
def test_forward_rejects_non_finite(arch, rng):
    X, mask, _ = random_batch(rng)
    X[2, 0, 3] = np.nan
    with pytest.raises(FloatingPointError):
        forward(toy_model(arch), X, mask)


# --------------------------------------------------------------- forward

@pytest.mark.parametrize("arch", seqnet.ARCHS)
def test_forward_rows_sum_to_one(arch, rng):
    X, mask, _ = random_batch(rng)
    model = toy_model(arch)
    probs = forward(model, X, mask)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.array_equal(probs, forward(model, X, mask))  # deterministic


@pytest.mark.parametrize("arch", seqnet.ARCHS)
def test_forward_pure_padding_never_changes_probabilities(arch, rng):
    X, mask, _ = random_batch(rng, M=8, T=6)
    model = toy_model(arch, nodes=9)
    p1 = forward(model, X, mask)
    X2 = np.concatenate([X, np.zeros((8, 6, X.shape[2]))], axis=1)
    mask2 = np.concatenate([mask, np.zeros((8, 6), dtype=bool)], axis=1)
    p2 = forward(model, X2, mask2)
    assert np.abs(p1 - p2).max() <= 1e-12


def test_bilstm_palindrome_with_tied_weights_has_equal_direction_states(rng):
    model = toy_model("bilstm", nodes=5, cat_sizes=(6,), n_num=1)
    model.params["lstm_W_bwd"] = model.params["lstm_W_fwd"].copy()
    model.params["lstm_b_bwd"] = model.params["lstm_b_fwd"].copy()
    seqpal = [3, 1, 4, 1, 3]
    X = np.zeros((1, 5, 2))
    X[0, :, 0] = seqpal
    X[0, :, 1] = [0.2, 0.7, 0.5, 0.7, 0.2]
    mask = np.ones((1, 5), dtype=bool)
    summary = seqnet.hidden_summary(model, X, mask, layer=0)
    H = model.nodes
    assert np.allclose(summary[0, :H], summary[0, H:], atol=1e-12)


def test_forward_rejects_wrong_feature_count(rng):
    model = toy_model("lstm")
    X, mask, _ = random_batch(rng)
    with pytest.raises(ValueError):
        forward(model, X[:, :, :2], mask)


@pytest.mark.parametrize("arch", seqnet.ARCHS)
def test_forward_rejects_mask_of_another_shape(arch, rng):
    X, mask, _ = random_batch(rng)
    longer = np.ones((X.shape[0], X.shape[1] + 2), dtype=bool)
    for bad in (longer, mask[:, :-1], mask[:-1]):
        with pytest.raises(ValueError):
            forward(toy_model(arch), X, bad)


@pytest.mark.parametrize("arch", seqnet.ARCHS)
def test_forward_rejects_a_mask_that_is_not_a_prefix(arch, rng):
    X, mask, _ = random_batch(rng)
    mask[0] = False
    mask[0, 1] = True  # one true event after a padded step
    with pytest.raises(ValueError, match="prefix"):
        forward(toy_model(arch), X, mask)


def test_hidden_summary_layer_ids(rng):
    X, mask, _ = random_batch(rng)
    model = toy_model("bilstm", nodes=4)
    assert seqnet.hidden_summary(model, X, mask, 0).shape[1] == 8
    assert seqnet.hidden_summary(model, X, mask, 1).shape[1] == 4
    with pytest.raises(ValueError):
        seqnet.hidden_summary(model, X, mask, 2)


# ----------------------------------------------------------------- train

def test_train_zero_learning_rate_is_a_no_op(rng):
    X, mask, Y = random_batch(rng)
    model = toy_model("lstm")
    before = {k: v.copy() for k, v in model.params.items()}
    train(model, X, mask, Y, epochs=3, lr=0.0, seed=1)
    for k in before:
        assert np.array_equal(model.params[k], before[k])
    assert len(set(model.curve.train_loss)) == 1


@pytest.mark.parametrize("arch", seqnet.ARCHS)
def test_train_solves_separable_toy_sequences(arch):
    # class follows the first token: 1 -> class 0, 2 -> class 1
    rng = np.random.default_rng(5)
    M, T = 40, 4
    X = np.zeros((M, T, 1))
    Y = rng.integers(0, 2, size=M)
    X[:, 0, 0] = Y + 1
    X[:, 1:, 0] = rng.integers(3, 5, size=(M, T - 1))
    mask = np.ones((M, T), dtype=bool)
    model = build_model(arch, 8, ["tok"], [4], ["c0", "c1"], seed=2)
    train(model, X, mask, Y, epochs=200, lr=0.5, seed=2)
    assert evaluate(model, X, mask, Y).accuracy == 1.0


def test_train_same_seed_bitwise_identical(rng):
    X, mask, Y = random_batch(rng, M=10)
    runs = []
    for _ in range(2):
        model = toy_model("lstm", rng_seed=4)
        train(model, X, mask, Y, epochs=5, lr=0.3, seed=9)
        runs.append(model)
    for k in runs[0].params:
        assert np.array_equal(runs[0].params[k], runs[1].params[k])
    assert runs[0].curve.train_loss == runs[1].curve.train_loss


def test_train_divergence_aborts_with_last_good_epoch(rng):
    # norm clipping caps the step, so overflow needs an absurd rate
    X, mask, Y = random_batch(rng, M=12)
    model = toy_model("dense")
    with np.errstate(all="ignore"):
        train(model, X, mask, Y, epochs=50, lr=1e200, seed=0)
    assert model.curve.diverged
    assert np.all(np.isfinite(model.params["dense_W"]))
    assert len(model.curve.epochs) < 50


def test_train_records_validation_curve(rng):
    X, mask, Y = random_batch(rng, M=12)
    model = toy_model("lstm")
    train(model, X, mask, Y, epochs=4, lr=0.1, seed=1, validation=(X, mask, Y))
    assert len(model.curve.val_loss) == len(model.curve.epochs) == 4


# ------------------------------------------------------------ grad check

@pytest.mark.parametrize("arch", seqnet.ARCHS)
def test_grad_check_every_layer_under_1e4(arch, rng):
    X, mask, Y = random_batch(rng)
    model = toy_model(arch)
    err = grad_check(model, X, mask, Y, epsilon=1e-5, n_coords=80, seed=1)
    assert err < 1e-4


def test_grad_check_catches_corrupted_forget_gate(rng):
    X, mask, Y = random_batch(rng)
    model = toy_model("lstm")
    loss, grads = loss_and_grads(model, X, mask, Y)

    class Corrupted(SeqNetModel):
        pass

    bad = Corrupted(**{f: getattr(model, f) for f in
                       ("arch", "nodes", "feature_names", "cat_sizes",
                        "label_names", "seed", "embed_dim", "params",
                        "hyper", "curve")})
    real = seqnet.loss_and_grads

    def corrupt(m, X_, mask_, Y_):
        loss_, grads_ = real(m, X_, mask_, Y_)
        H = m.nodes
        grads_["lstm_W"][:, H:2 * H] *= 1.5  # forget-gate block
        return loss_, grads_

    import xlog.seqnet as mod
    mod.loss_and_grads = corrupt
    try:
        err = grad_check(bad, X, mask, Y, epsilon=1e-5, n_coords=200, seed=1)
    finally:
        mod.loss_and_grads = real
    assert err > 1e-2


def test_grad_check_frozen_parameter_gradient_is_zero(rng):
    # tokens never hit embedding row 3 -> its gradient must be exactly zero
    X, mask, Y = random_batch(rng, cat_sizes=(2,), n_num=1)
    model = toy_model("lstm", cat_sizes=(5,), n_num=1)
    _, grads = loss_and_grads(model, X, mask, Y)
    assert np.all(grads["emb_0"][4] == 0.0)
    assert np.all(grads["emb_0"][5] == 0.0)


def test_grad_check_rejects_bad_epsilon(rng):
    X, mask, Y = random_batch(rng)
    with pytest.raises(ValueError):
        grad_check(toy_model("dense"), X, mask, Y, epsilon=0.5)


# ------------------------------------------------------------ grid search

def _order_dataset():
    from ingest_oracle import table_of
    from xlog import encode, eventlog, synth
    spec = synth.SyntheticSpec(
        classes=[synth.ClassSpec("uvw", ["tok_u", "tok_v", "tok_w"], 80),
                 synth.ClassSpec("wvu", ["tok_w", "tok_v", "tok_u"], 80)],
        noise_vocab=8, min_length=5, max_length=8)
    log = table_of(synth.generate_synthetic(spec, seed=11)[0])
    labels = np.asarray(log.diagnosis_code)
    split = encode.stratified_split(labels, 0.2, seed=13)
    vocab = encode.build_vocab(log, list(eventlog.DYNAMIC_CATEGORICAL)
                               + list(eventlog.STATIC_CATEGORICAL))
    return encode.encode_sequences(log, vocab, 8, split), split


def test_grid_search_single_point_equals_direct_run(rng):
    ds, split = _order_dataset()
    rows, models = grid_search([("dense", 6, 3)], ds, split, seed=5, lr=0.2)
    assert len(rows) == 1 and rows[0]["best"]
    direct = build_model("dense", 6, ds.feature_names, ds.cat_sizes,
                         ds.label_names, seed=5)
    tr = ds.take(split.train_indices)
    te = ds.take(split.test_indices)
    train(direct, tr.X, tr.mask, tr.Y, epochs=3, lr=0.2, seed=5,
          validation=(te.X, te.mask, te.Y))
    rep = evaluate(direct, te.X, te.mask, te.Y)
    assert rows[0]["accuracy"] == rep.accuracy
    assert rows[0]["loss"] == rep.loss


def test_grid_search_reads_the_last_validation_point(monkeypatch):
    # each configuration scans the test split once per epoch, never again
    ds, split = _order_dataset()
    real_evaluate, rows_seen = seqnet.evaluate, []
    monkeypatch.setattr(seqnet, "evaluate",
                        lambda m, X, *a: rows_seen.append(len(X)) or real_evaluate(m, X, *a))
    rows, models = grid_search([("lstm", 4, 2), ("dense", 3, 3)], ds, split, seed=5, lr=0.2)
    n_tr, n_te = len(split.train_indices), len(split.test_indices)
    assert sorted(rows_seen) == sorted([n_tr, n_te] * 5)
    for row, model in zip(rows, models):
        assert (row["accuracy"], row["loss"]) == (model.curve.val_acc[-1],
                                                  model.curve.val_loss[-1])
        te = ds.take(split.test_indices)
        rep = real_evaluate(model, te.X, te.mask, te.Y)
        assert (row["accuracy"], row["loss"]) == (rep.accuracy, rep.loss)


def test_grid_search_scores_a_model_that_diverged_in_epoch_one():
    ds, split = _order_dataset()
    with np.errstate(all="ignore"):
        rows, models = grid_search([("dense", 3, 2)], ds, split, seed=5, lr=1e200)
    assert models[0].curve.diverged and not models[0].curve.val_acc
    te = ds.take(split.test_indices)
    rep = evaluate(models[0], te.X, te.mask, te.Y)
    assert rows[0]["accuracy"] == rep.accuracy


def test_grid_search_ranking_contract():
    rows = [{"architecture": "a", "nodes": 1, "epochs": 1, "accuracy": acc,
             "loss": loss, "best": False}
            for acc, loss in [(0.5, 1.0), (0.9, 2.0), (0.9, 1.5)]]
    order = sorted(range(3), key=lambda k: (-rows[k]["accuracy"], rows[k]["loss"], k))
    assert [rows[k]["loss"] for k in order] == [1.5, 2.0, 1.0]


def test_grid_search_expresses_reference_configurations(rng):
    # dense(25, 30), lstm(20, 200), bilstm(20, 150) must all be legal points
    ds, split = _order_dataset()
    space = [("dense", 25, 1), ("lstm", 20, 1), ("bilstm", 20, 1)]
    rows, models = grid_search(space, ds, split, seed=1, lr=0.1)
    assert len(rows) == 3
    assert {r["architecture"] for r in rows} == {"dense", "lstm", "bilstm"}
    assert sum(r["best"] for r in rows) == 1
    for arch, nodes, epochs in [("dense", 25, 30), ("lstm", 20, 200),
                                ("bilstm", 20, 150)]:
        m = build_model(arch, nodes, ds.feature_names, ds.cat_sizes,
                        ds.label_names, seed=0)
        assert m.nodes == nodes


def test_evaluate_confusion_matrix_properties(rng):
    X, mask, Y = random_batch(rng, M=20)
    model = toy_model("dense")
    rep = evaluate(model, X, mask, Y)
    assert rep.confusion.sum() == 20
    per_class = np.bincount(Y, minlength=3)
    assert np.array_equal(rep.confusion.sum(axis=1), per_class)
    assert rep.accuracy == pytest.approx(np.trace(rep.confusion) / 20)
    assert rep.loss >= 0.0


def test_checkpoint_roundtrip(tmp_path, rng):
    X, mask, Y = random_batch(rng)
    model = toy_model("bilstm")
    train(model, X, mask, Y, epochs=2, lr=0.1, seed=3)
    seqnet.save_checkpoint(tmp_path / "net.xlg", model)
    back = seqnet.load_checkpoint(tmp_path / "net.xlg")
    assert back.arch == "bilstm" and back.nodes == model.nodes
    assert np.array_equal(forward(back, X, mask), forward(model, X, mask))
    assert back.curve.train_loss == model.curve.train_loss


# ------------------------------------------------ oracle: the caching code
# The batch-major implementation that stored six (M, T, H) caches per
# direction and scanned every padded step. The time-major scan sorts rows,
# hoists the input projection, computes its gates with one tanh and sums
# BPTT in another order, so it matches the oracle up to rounding: within
# ORACLE_TOL of each array's largest entry, on probabilities, both hidden
# layers, the loss and every gradient, with equal predicted labels wherever
# the oracle's top-two margin exceeds the tolerance.

ORACLE_TOL = 1e-11


def assert_close(got, want, what):
    """|got - want| <= ORACLE_TOL * (|want| + max |want|), elementwise; an
    all-zero ``want`` must be matched exactly."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    scale = np.abs(want).max(initial=0.0)
    assert np.allclose(got, want, rtol=ORACLE_TOL, atol=ORACLE_TOL * scale), what


def assert_same_labels(pred, probs0, what):
    """Predicted labels equal the oracle's wherever its top-two margin
    exceeds the tolerance."""
    top2 = np.sort(probs0, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > ORACLE_TOL
    assert np.array_equal(np.asarray(pred)[clear], np.argmax(probs0, axis=1)[clear]), what

def _oracle_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _oracle_embed(model, X):
    parts, idx_cache = [], []
    for k, col in enumerate(model.cat_columns):
        size = model.cat_sizes[col]
        idx = np.clip(X[:, :, col].astype(np.int64), 0, size)
        idx_cache.append(idx)
        parts.append(model.params[f"emb_{k}"][idx])
    if model.num_columns:
        parts.append(X[:, :, model.num_columns])
    return np.concatenate(parts, axis=2), idx_cache


def _oracle_reverse_within_mask(A, lengths):
    M, T = A.shape[0], A.shape[1]
    t = np.arange(T)[None, :]
    src = np.where(t < lengths[:, None], lengths[:, None] - 1 - t, t)
    return A[np.arange(M)[:, None], src]


def _oracle_lstm_scan(W, b, inputs):
    M, T, D = inputs.shape
    H = W.shape[1] // 4
    i_s = np.empty((M, T, H)); f_s = np.empty((M, T, H))
    o_s = np.empty((M, T, H)); g_s = np.empty((M, T, H))
    c_s = np.empty((M, T, H)); h_s = np.empty((M, T, H))
    h = np.zeros((M, H)); c = np.zeros((M, H))
    for t in range(T):
        z = np.concatenate([inputs[:, t, :], h], axis=1) @ W + b
        i = _oracle_sigmoid(z[:, :H]); f = _oracle_sigmoid(z[:, H:2 * H])
        o = _oracle_sigmoid(z[:, 2 * H:3 * H]); g = np.tanh(z[:, 3 * H:])
        c = f * c + i * g
        h = o * np.tanh(c)
        i_s[:, t] = i; f_s[:, t] = f; o_s[:, t] = o; g_s[:, t] = g
        c_s[:, t] = c; h_s[:, t] = h
    return {"i": i_s, "f": f_s, "o": o_s, "g": g_s, "c": c_s, "h": h_s,
            "inputs": inputs, "W": W}


def _oracle_lstm_backward(cache, dH_out):
    inputs, W = cache["inputs"], cache["W"]
    M, T, D = inputs.shape
    H = W.shape[1] // 4
    dW = np.zeros_like(W)
    db = np.zeros(4 * H)
    dX = np.zeros_like(inputs)
    dh = np.zeros((M, H)); dc = np.zeros((M, H))
    for t in range(T - 1, -1, -1):
        i = cache["i"][:, t]; f = cache["f"][:, t]
        o = cache["o"][:, t]; g = cache["g"][:, t]
        c = cache["c"][:, t]
        c_prev = cache["c"][:, t - 1] if t > 0 else np.zeros((M, H))
        h_prev = cache["h"][:, t - 1] if t > 0 else np.zeros((M, H))
        dh_t = dH_out[:, t] + dh
        tc = np.tanh(c)
        do = dh_t * tc
        dc_t = dc + dh_t * o * (1.0 - tc * tc)
        di = dc_t * g
        dg = dc_t * i
        df = dc_t * c_prev
        dc = dc_t * f
        dz = np.concatenate([di * i * (1 - i), df * f * (1 - f),
                             do * o * (1 - o), dg * (1 - g * g)], axis=1)
        inp = np.concatenate([inputs[:, t], h_prev], axis=1)
        dW += inp.T @ dz
        db += dz.sum(axis=0)
        dinp = dz @ W.T
        dX[:, t] = dinp[:, :D]
        dh = dinp[:, D:]
    return dX, dW, db


def _oracle_forward_core(model, X, mask):
    X = np.asarray(X, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    lengths = mask.sum(axis=1).astype(np.int64)
    inputs, idx_cache = _oracle_embed(model, X)
    cache = {"idx": idx_cache, "inputs": inputs, "lengths": lengths, "mask": mask}
    M = X.shape[0]
    rows = np.arange(M)
    if model.arch == "lstm":
        scan = _oracle_lstm_scan(model.params["lstm_W"], model.params["lstm_b"], inputs)
        summary = scan["h"][rows, lengths - 1]
        cache["scan"] = scan
    elif model.arch == "bilstm":
        rev = _oracle_reverse_within_mask(inputs, lengths)
        scan_f = _oracle_lstm_scan(model.params["lstm_W_fwd"], model.params["lstm_b_fwd"], inputs)
        scan_b = _oracle_lstm_scan(model.params["lstm_W_bwd"], model.params["lstm_b_bwd"], rev)
        summary = np.concatenate([scan_f["h"][rows, lengths - 1],
                                  scan_b["h"][rows, lengths - 1]], axis=1)
        cache["scan_f"], cache["scan_b"] = scan_f, scan_b
    else:
        summary = (inputs * mask[:, :, None]).sum(axis=1) / lengths[:, None]
    cache["summary"] = summary
    pre = summary @ model.params["dense_W"] + model.params["dense_b"]
    act = np.maximum(pre, 0.0)
    logits = act @ model.params["out_W"] + model.params["out_b"]
    cache["pre"], cache["act"], cache["logits"] = pre, act, logits
    shift = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(shift)
    return ez / ez.sum(axis=1, keepdims=True), cache


def _oracle_loss_and_grads(model, X, mask, Y):
    Y = np.asarray(Y, dtype=np.int64)
    probs, cache = _oracle_forward_core(model, X, mask)
    M = len(Y)
    shift = cache["logits"] - cache["logits"].max(axis=1, keepdims=True)
    loss = float(np.mean(np.log(np.exp(shift).sum(axis=1)) - shift[np.arange(M), Y]))
    dlogits = probs.copy()
    dlogits[np.arange(M), Y] -= 1.0
    dlogits /= M
    grads = {}
    grads["out_W"] = cache["act"].T @ dlogits
    grads["out_b"] = dlogits.sum(axis=0)
    dact = dlogits @ model.params["out_W"].T
    dpre = dact * (cache["pre"] > 0)
    grads["dense_W"] = cache["summary"].T @ dpre
    grads["dense_b"] = dpre.sum(axis=0)
    dsummary = dpre @ model.params["dense_W"].T
    lengths = cache["lengths"]
    rows = np.arange(M)
    if model.arch == "lstm":
        dH = np.zeros_like(cache["scan"]["h"])
        dH[rows, lengths - 1] = dsummary
        dInputs, dW, db = _oracle_lstm_backward(cache["scan"], dH)
        grads["lstm_W"], grads["lstm_b"] = dW, db
    elif model.arch == "bilstm":
        H = model.nodes
        dH_f = np.zeros_like(cache["scan_f"]["h"])
        dH_f[rows, lengths - 1] = dsummary[:, :H]
        dH_b = np.zeros_like(cache["scan_b"]["h"])
        dH_b[rows, lengths - 1] = dsummary[:, H:]
        dIn_f, dW_f, db_f = _oracle_lstm_backward(cache["scan_f"], dH_f)
        dIn_b_rev, dW_b, db_b = _oracle_lstm_backward(cache["scan_b"], dH_b)
        grads["lstm_W_fwd"], grads["lstm_b_fwd"] = dW_f, db_f
        grads["lstm_W_bwd"], grads["lstm_b_bwd"] = dW_b, db_b
        dInputs = dIn_f + _oracle_reverse_within_mask(dIn_b_rev, lengths)
    else:
        dInputs = (dsummary[:, None, :] * cache["mask"][:, :, None]
                   / lengths[:, None, None])
    col = 0
    for k, _ in enumerate(model.cat_columns):
        dE = np.zeros_like(model.params[f"emb_{k}"])
        np.add.at(dE, cache["idx"][k], dInputs[:, :, col:col + model.embed_dim])
        grads[f"emb_{k}"] = dE
        col += model.embed_dim
    return loss, grads, probs, cache


def _oracle_case(rng, trial):
    """A random model and batch; the lengths pattern cycles through rows of
    length 1, rows of the full window, and every row shorter than it."""
    arch = seqnet.ARCHS[trial % 3]
    pattern = (trial // 3) % 4
    M = 1 if trial % 7 == 0 else int(rng.integers(2, 40))
    T = int(rng.integers(1, 13))
    cat_sizes = [int(s) for s in rng.integers(2, 9, size=int(rng.integers(0, 3)))]
    n_num = int(rng.integers(0 if cat_sizes else 1, 3))
    if trial % 5 == 0:  # numeric features only: the input tensor is not C-ordered
        cat_sizes, n_num = [], 1 + trial % 2
    if pattern == 0:
        lengths = rng.integers(1, T + 1, size=M)
    elif pattern == 1:
        lengths = np.full(M, T)
    elif pattern == 2:
        lengths = np.ones(M, dtype=np.int64)
    else:
        lengths = rng.integers(1, max(T - 1, 1) + 1, size=M)
        lengths[lengths >= T] = max(T - 1, 1)
    mask = np.arange(T)[None, :] < lengths[:, None]
    F = len(cat_sizes) + n_num
    X = np.zeros((M, T, F))
    for j, size in enumerate(cat_sizes):
        X[:, :, j] = rng.integers(0, size + 2, size=(M, T))  # 0 and size+1 clip
    X[:, :, len(cat_sizes):] = rng.normal(0.0, 2.0, size=(M, T, n_num))
    if trial % 2:
        X[~mask] = 0.0  # else padding keeps its random values
    n_classes = int(rng.integers(2, 5))
    model = build_model(arch, int(rng.choice([1, 1, 2, 5, 9])), [f"f{i}" for i in range(F)],
                        cat_sizes + [0] * n_num, [f"c{i}" for i in range(n_classes)],
                        seed=trial)
    for k in model.params:  # wide weights reach saturated gates
        model.params[k] = model.params[k] * rng.choice([1.0, 4.0])
    Y = rng.integers(0, n_classes, size=M)
    return model, X, mask, Y


@pytest.mark.parametrize("block_bytes", [None, 1])
def test_rewrite_matches_caching_oracle_within_tolerance(block_bytes, monkeypatch):
    if block_bytes is not None:  # inference pools one row, or scans one step, per block
        monkeypatch.setattr(seqnet, "POOL_BYTES", block_bytes)
        monkeypatch.setattr(seqnet, "SCAN_BYTES", block_bytes)
    rng = np.random.default_rng(20)
    seen = set()
    for trial in range(96):
        model, X, mask, Y = _oracle_case(rng, trial)
        lengths = mask.sum(axis=1)
        seen.update({(model.arch, "one row") if len(Y) == 1 else (),
                     (model.arch, "a row of T") if lengths.max() == X.shape[1] else (),
                     (model.arch, "all rows < T") if lengths.max() < X.shape[1] else (),
                     (model.arch, "width 1") if model.input_dim == 1 else ()})
        loss0, grads0, probs0, cache0 = _oracle_loss_and_grads(model, X, mask, Y)
        loss1, grads1 = loss_and_grads(model, X, mask, Y)
        assert_close(loss1, loss0, trial)
        assert sorted(grads1) == sorted(grads0)
        for k in grads0:
            assert_close(grads1[k], grads0[k], (trial, k))
        probs = forward(model, X, mask)
        assert_close(probs, probs0, trial)
        assert_same_labels(np.argmax(probs, axis=1), probs0, trial)
        assert_close(seqnet.hidden_summary(model, X, mask, 0), cache0["summary"], trial)
        assert_close(seqnet.hidden_summary(model, X, mask, 1), cache0["act"], trial)
        assert_close(evaluate(model, X, mask, Y).loss, loss0, trial)
    for arch in seqnet.ARCHS:
        for tag in ("one row", "a row of T", "all rows < T", "width 1"):
            assert (arch, tag) in seen, (arch, tag)


def test_capture_activations_one_pass_matches_oracle_within_tolerance(monkeypatch):
    from xlog import latent
    from xlog.encode import SequenceDataset
    calls = []
    real_forward = seqnet._forward
    monkeypatch.setattr(seqnet, "_forward", lambda *a: calls.append(1) or real_forward(*a))
    rng = np.random.default_rng(22)
    for trial in range(12):
        model, X, mask, Y = _oracle_case(rng, trial)
        _, _, probs0, cache0 = _oracle_loss_and_grads(model, X, mask, Y)
        ds = SequenceDataset(X=X, mask=mask, Y=Y, T=X.shape[1],
                             label_names=model.label_names,
                             feature_names=model.feature_names, cat_sizes=model.cat_sizes)
        for layer, want in ((0, cache0["summary"]), (1, cache0["act"])):
            calls.clear()
            acts = latent.capture_activations(model, ds, layer=layer)
            assert len(calls) == 1
            assert_close(acts.values, want, (trial, layer))
            assert_same_labels(acts.predicted_labels, probs0, (trial, layer))
            assert np.array_equal(acts.predicted_labels,
                                  np.argmax(forward(model, X, mask), axis=1))
    with pytest.raises(ValueError):
        latent.capture_activations(model, ds, layer=2)


def test_numeric_only_dense_matches_oracle_layout():
    # without categorical columns the oracle's pooled summary is not
    # C-ordered; the head applied to hidden_summary must still give
    # forward's probabilities bit for bit, and both match the oracle
    rng = np.random.default_rng(21)
    for trial in range(60):
        M, T = int(rng.integers(2, 40)), int(rng.integers(1, 12))
        X = rng.normal(0.0, 2.0, size=(M, T, 2))
        mask = np.arange(T)[None, :] < rng.integers(1, T + 1, size=M)[:, None]
        Y = rng.integers(0, 2, size=M)
        model = build_model("dense", 1, ["a", "b"], [0, 0], ["y", "n"], seed=trial)
        _, _, probs0, cache0 = _oracle_loss_and_grads(model, X, mask, Y)
        _, acts, _, probs = seqnet.head(model, seqnet.hidden_summary(model, X, mask, 0))
        assert np.array_equal(probs, forward(model, X, mask)), trial
        assert_close(probs, probs0, trial)
        assert_close(acts, cache0["act"], trial)


def test_dense_pooling_is_exactly_padding_invariant():
    # width 1: numpy would sum a masked full window pairwise along time, so
    # extra padded steps would regroup the terms; the prefix sum does not
    rng = np.random.default_rng(23)
    model = build_model("dense", 3, ["x"], [0], ["y", "n"], seed=1)
    for trial in range(200):
        T = int(rng.integers(1, 40))
        X = rng.normal(0.0, 2.0, size=(5, T, 1))
        mask = np.arange(T)[None, :] < rng.integers(1, T + 1, size=5)[:, None]
        extra = int(rng.integers(1, 30))
        X2 = np.concatenate([X, rng.normal(0.0, 2.0, size=(5, extra, 1))], axis=1)
        mask2 = np.concatenate([mask, np.zeros((5, extra), dtype=bool)], axis=1)
        s1 = seqnet.hidden_summary(model, X, mask, 0)
        assert np.array_equal(s1, seqnet.hidden_summary(model, X2, mask2, 0)), trial
        assert np.array_equal(s1, seqnet._forward(model, X2, mask2, True)[0]), trial


def test_bilstm_training_memory_stays_under_the_caching_code():
    # one BiLSTM batch at the benchmark's shape: M = 32, T = 60, seven
    # categorical columns and three numeric ones, H = 12. The bound is the
    # peak of the per-step caching code on this batch (6.83 MB)
    import tracemalloc
    rng = np.random.default_rng(31)
    cat = (70, 12, 70, 40, 9, 6, 10)
    X, mask, Y = random_batch(rng, M=32, T=60, cat_sizes=cat, n_num=3)
    assert mask.sum(axis=1).max() == 60
    model = toy_model("bilstm", nodes=12, cat_sizes=cat, n_num=3)
    tracemalloc.start()
    try:
        loss_and_grads(model, X, mask, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.83 * 2**20, peak / 2**20


def test_inference_memory_stays_off_the_time_axis():
    # training caches would be six (M, T, H) arrays per direction (~590 MB)
    import tracemalloc
    rng = np.random.default_rng(8)
    M, T = 3000, 64
    X, mask, _ = random_batch(rng, M=M, T=T, cat_sizes=(30, 20, 12, 9, 6), n_num=5)
    model = toy_model("bilstm", nodes=32, cat_sizes=(30, 20, 12, 9, 6), n_num=5)
    tracemalloc.start()
    try:
        summary = seqnet.hidden_summary(model, X, mask, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.shape == (M, 64)
    assert peak < 64 * 2**20, peak / 2**20
