"""Trainable sequence classifiers: embedding -> (LSTM | BiLSTM | pooled dense)
-> dense ReLU -> softmax, with exact analytic gradients.

Recurrent summaries read the hidden state at each case's last real event, so
padded timesteps can never leak into predictions or gradients. The BiLSTM
runs a second cell over the sequence reversed within its mask and
concatenates both final states. Training keeps per-step caches for BPTT;
inference keeps only the running state, so its memory does not grow with
the number of timesteps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import container

ARCHS = ("dense", "lstm", "bilstm")
EMBED_DIM = 8
CLIP_NORM = 5.0


def sigmoid(x):
    """Logistic function without overflow: exp(-|x|) is exactly exp(-x) for
    x >= 0 and exp(x) below, so both branches are the textbook forms."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _lstm_cell(W, b, x_t, h, c):
    """One gated update of (M, H) states: C_t = f*C_{t-1} + i*g and
    h_t = o*tanh(C_t). ``W`` is (D + H, 4H), rows input then hidden, columns
    the gates i, f, o, g. Returns the sigmoid gates side by side as
    (M, 3H) ``ifo``, the candidate ``g`` and the new ``(c, h)``."""
    H = h.shape[1]
    z = np.concatenate([x_t, h], axis=1) @ W + b
    ifo = sigmoid(z[:, :3 * H])
    g = np.tanh(z[:, 3 * H:])
    c = ifo[:, H:2 * H] * c + ifo[:, :H] * g
    h = ifo[:, 2 * H:] * np.tanh(c)
    return ifo, g, c, h


@dataclass
class TrainingCurve:
    epochs: list[int] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    diverged: bool = False

    def rows(self):
        for k in range(len(self.epochs)):
            yield (self.epochs[k], self.train_loss[k], self.train_acc[k],
                   self.val_loss[k] if self.val_loss else "",
                   self.val_acc[k] if self.val_acc else "")


@dataclass
class SeqNetModel:
    arch: str
    nodes: int
    feature_names: list[str]
    cat_sizes: list[int]
    label_names: list[str]
    seed: int
    embed_dim: int = EMBED_DIM
    params: dict[str, np.ndarray] = field(default_factory=dict)
    hyper: dict = field(default_factory=dict)
    curve: TrainingCurve = field(default_factory=TrainingCurve)

    @property
    def n_classes(self) -> int:
        return len(self.label_names)

    @property
    def cat_columns(self) -> list[int]:
        return [j for j, s in enumerate(self.cat_sizes) if s > 0]

    @property
    def num_columns(self) -> list[int]:
        return [j for j, s in enumerate(self.cat_sizes) if s == 0]

    @property
    def input_dim(self) -> int:
        return self.embed_dim * len(self.cat_columns) + len(self.num_columns)

    def summary_width(self) -> int:
        if self.arch == "lstm":
            return self.nodes
        if self.arch == "bilstm":
            return 2 * self.nodes
        return self.input_dim


def build_model(arch: str, nodes: int, feature_names, cat_sizes, label_names,
                seed: int, embed_dim: int = EMBED_DIM) -> SeqNetModel:
    """Seeded uniform(-r, r) init with r = 1/sqrt(fan-in); biases zero."""
    if arch not in ARCHS:
        raise ValueError(f"unknown architecture {arch!r}")
    model = SeqNetModel(arch=arch, nodes=nodes, feature_names=list(feature_names),
                        cat_sizes=list(cat_sizes), label_names=list(label_names),
                        seed=seed, embed_dim=embed_dim)
    rng = np.random.default_rng(seed)
    p = model.params

    def uniform(shape, fan_in):
        r = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-r, r, size=shape)

    for k, col in enumerate(model.cat_columns):
        p[f"emb_{k}"] = uniform((model.cat_sizes[col] + 1, embed_dim), embed_dim)
    D, H = model.input_dim, nodes

    def lstm_bias():
        b = np.zeros(4 * H)
        b[H:2 * H] = 1.0  # forget gate opens toward remembering early events
        return b

    if arch == "lstm":
        p["lstm_W"] = uniform((D + H, 4 * H), D + H)
        p["lstm_b"] = lstm_bias()
    elif arch == "bilstm":
        p["lstm_W_fwd"] = uniform((D + H, 4 * H), D + H)
        p["lstm_b_fwd"] = lstm_bias()
        p["lstm_W_bwd"] = uniform((D + H, 4 * H), D + H)
        p["lstm_b_bwd"] = lstm_bias()
    R = model.summary_width()
    p["dense_W"] = uniform((R, nodes), R)
    p["dense_b"] = np.full(nodes, 0.01)  # start ReLU units alive
    p["out_W"] = uniform((nodes, model.n_classes), nodes)
    p["out_b"] = np.zeros(model.n_classes)
    return model


def _indices(model: SeqNetModel, X):
    """Clipped embedding row of every categorical column of (..., F) raw
    features, one (...) int64 array per column."""
    return [np.clip(X[..., col].astype(np.int64), 0, model.cat_sizes[col])
            for col in model.cat_columns]


def _embed(model: SeqNetModel, idx, X_num):
    """Input vectors (..., D): each column's embeddings of ``idx``, then the
    numeric features ``X_num``."""
    parts = [model.params[f"emb_{k}"][i] for k, i in enumerate(idx)]
    if X_num.shape[-1]:
        parts.append(X_num)
    return np.concatenate(parts, axis=-1)


def _reverse_within_mask(A, lengths):
    """Reverse each row's true prefix; padding positions are left in place."""
    M, T = A.shape[0], A.shape[1]
    t = np.arange(T)[None, :]
    src = np.where(t < lengths[:, None], lengths[:, None] - 1 - t, t)
    return A[np.arange(M)[:, None], src]


def _lstm_scan(W, b, inputs):
    """Run the cell over every timestep of (M, T, D) inputs, keeping the
    time-major (T, M, .) caches that BPTT reads."""
    M, T, _ = inputs.shape
    H = W.shape[1] // 4
    ifo_s = np.empty((T, M, 3 * H))
    g_s = np.empty((T, M, H)); c_s = np.empty((T, M, H)); h_s = np.empty((T, M, H))
    h = np.zeros((M, H)); c = np.zeros((M, H))
    for t in range(T):
        ifo_s[t], g_s[t], c, h = _lstm_cell(W, b, inputs[:, t], h, c)
        c_s[t] = c
        h_s[t] = h
    return {"ifo": ifo_s, "g": g_s, "c": c_s, "h": h_s, "inputs": inputs, "W": W}


def _lstm_backward(cache, dH_out):
    """Exact BPTT given time-major (T, M, H) gradients on h; returns
    dInputs (M, T, D), dW and db."""
    inputs, W = cache["inputs"], cache["W"]
    M, T, D = inputs.shape
    H = W.shape[1] // 4
    dW = np.zeros_like(W)
    db = np.zeros(4 * H)
    dX = np.zeros_like(inputs)
    dh = np.zeros((M, H)); dc = np.zeros((M, H))
    zero = np.zeros((M, H))
    for t in range(T - 1, -1, -1):
        ifo = cache["ifo"][t]
        i, f, o = ifo[:, :H], ifo[:, H:2 * H], ifo[:, 2 * H:]
        g = cache["g"][t]
        c_prev = cache["c"][t - 1] if t > 0 else zero
        h_prev = cache["h"][t - 1] if t > 0 else zero
        dh_t = dH_out[t] + dh
        tc = np.tanh(cache["c"][t])
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


def _prepare(model: SeqNetModel, X, mask):
    """Validate a batch and cut recurrent inputs at the longest sequence.

    Steps past every row's last event never reach a recurrent summary, and in
    BPTT they only add exact zeros, so the cut changes no result. Dense
    pooling keeps the full window: numpy sums a width-1 input pairwise along
    time, so dropping padded steps could move its last bit."""
    X = np.asarray(X, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if X.ndim != 3 or X.shape[2] != len(model.feature_names):
        raise ValueError(f"expected (M, T, {len(model.feature_names)}) input, got {X.shape}")
    if mask.shape != X.shape[:2]:
        raise ValueError(f"mask shape {mask.shape} does not match input {X.shape[:2]}")
    if not np.all(np.isfinite(X)):
        raise FloatingPointError("non-finite values in input tensor")
    lengths = mask.sum(axis=1).astype(np.int64)
    if np.any(lengths == 0):
        raise ValueError("every sequence needs at least one true-masked event")
    if model.arch != "dense":
        T = int(lengths.max(initial=0))
        X, mask = X[:, :T], mask[:, :T]
    return X, mask, lengths


def _mean_pool(inputs, mask, lengths):
    """Mean of embedded timesteps over each row's true events."""
    return (inputs * mask[:, :, None]).sum(axis=1) / lengths[:, None]


def head(model: SeqNetModel, summary):
    """Summary -> (dense pre-activation, ReLU activation, logits, softmax)."""
    pre = summary @ model.params["dense_W"] + model.params["dense_b"]
    act = np.maximum(pre, 0.0)
    logits = act @ model.params["out_W"] + model.params["out_b"]
    shift = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(shift)
    return pre, act, logits, ez / ez.sum(axis=1, keepdims=True)


def _forward_core(model: SeqNetModel, X, mask):
    """Training forward pass: probabilities plus every cache BPTT needs."""
    X, mask, lengths = _prepare(model, X, mask)
    idx = _indices(model, X)
    inputs = _embed(model, idx, X[..., model.num_columns])
    cache = {"idx": idx, "lengths": lengths, "mask": mask}
    last = (lengths - 1, np.arange(X.shape[0]))
    if model.arch == "lstm":
        scan = _lstm_scan(model.params["lstm_W"], model.params["lstm_b"], inputs)
        summary = scan["h"][last]
        cache["scan"] = scan
    elif model.arch == "bilstm":
        rev = _reverse_within_mask(inputs, lengths)
        scan_f = _lstm_scan(model.params["lstm_W_fwd"], model.params["lstm_b_fwd"], inputs)
        scan_b = _lstm_scan(model.params["lstm_W_bwd"], model.params["lstm_b_bwd"], rev)
        summary = np.concatenate([scan_f["h"][last], scan_b["h"][last]], axis=1)
        cache["scan_f"], cache["scan_b"] = scan_f, scan_b
    else:
        summary = _mean_pool(inputs, mask, lengths)
    cache["summary"] = summary
    cache["pre"], cache["act"], cache["logits"], probs = head(model, summary)
    return probs, cache


def _lstm_last(model: SeqNetModel, W, b, X, lengths):
    """Hidden state at each row's last event, keeping only the running
    (h, c) and embedding one timestep at a time."""
    M, T = X.shape[0], X.shape[1]
    H = W.shape[1] // 4
    idx, X_num = _indices(model, X), X[..., model.num_columns]
    h = np.zeros((M, H)); c = np.zeros((M, H))
    last = np.empty((M, H))
    for t in range(T):
        x_t = _embed(model, [i[:, t] for i in idx], X_num[:, t])
        _, _, c, h = _lstm_cell(W, b, x_t, h, c)
        ends = lengths == t + 1
        last[ends] = h[ends]
    return last


#: bytes of embedded input that dense inference pools at once
POOL_BYTES = 4 * 2**20


def _infer(model: SeqNetModel, X, mask):
    """Inference without training caches: (summary, dense activations,
    logits, probabilities). Memory is O(M * (D + H)) beyond input-sized
    temporaries, never O(M * T * H)."""
    X, mask, lengths = _prepare(model, X, mask)
    p = model.params
    if model.arch == "lstm":
        summary = _lstm_last(model, p["lstm_W"], p["lstm_b"], X, lengths)
    elif model.arch == "bilstm":
        rev = _reverse_within_mask(X, lengths)
        summary = np.concatenate(
            [_lstm_last(model, p["lstm_W_fwd"], p["lstm_b_fwd"], X, lengths),
             _lstm_last(model, p["lstm_W_bwd"], p["lstm_b_bwd"], rev, lengths)], axis=1)
    else:
        idx, X_num = _indices(model, X), X[..., model.num_columns]
        step = max(1, POOL_BYTES // (8 * model.input_dim * X.shape[1]))
        # at least one block, so an empty batch pools to an empty summary;
        # concatenating keeps the memory layout of the whole-batch form
        blocks = [slice(r, r + step) for r in range(0, max(X.shape[0], 1), step)]
        summary = np.concatenate(
            [_mean_pool(_embed(model, [i[s] for i in idx], X_num[s]), mask[s], lengths[s])
             for s in blocks], axis=0)
    _, act, logits, probs = head(model, summary)
    return summary, act, logits, probs


def forward(model: SeqNetModel, X, mask) -> np.ndarray:
    """Class probabilities, one row per sequence; padded steps have no effect."""
    return _infer(model, X, mask)[3]


def hidden_summary(model: SeqNetModel, X, mask, layer: int = 0) -> np.ndarray:
    """Layer 0: the recurrent (or pooled) summary vector; layer 1: the dense
    ReLU activations."""
    if layer not in (0, 1):
        raise ValueError(f"layer id {layer} out of range (0 or 1)")
    summary, act, _, _ = _infer(model, X, mask)
    return summary if layer == 0 else act


def _loss_from_logits(logits, Y):
    shift = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shift).sum(axis=1))
    return float(np.mean(lse - shift[np.arange(len(Y)), Y]))


def loss_and_grads(model: SeqNetModel, X, mask, Y):
    """Mean cross-entropy and exact gradients for every parameter."""
    Y = np.asarray(Y, dtype=np.int64)
    probs, cache = _forward_core(model, X, mask)
    M = len(Y)
    loss = _loss_from_logits(cache["logits"], Y)
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
    last = (lengths - 1, np.arange(M))
    if model.arch == "lstm":
        dH = np.zeros_like(cache["scan"]["h"])
        dH[last] = dsummary
        dInputs, dW, db = _lstm_backward(cache["scan"], dH)
        grads["lstm_W"], grads["lstm_b"] = dW, db
    elif model.arch == "bilstm":
        H = model.nodes
        dH_f = np.zeros_like(cache["scan_f"]["h"])
        dH_f[last] = dsummary[:, :H]
        dH_b = np.zeros_like(cache["scan_b"]["h"])
        dH_b[last] = dsummary[:, H:]
        dIn_f, dW_f, db_f = _lstm_backward(cache["scan_f"], dH_f)
        dIn_b_rev, dW_b, db_b = _lstm_backward(cache["scan_b"], dH_b)
        grads["lstm_W_fwd"], grads["lstm_b_fwd"] = dW_f, db_f
        grads["lstm_W_bwd"], grads["lstm_b_bwd"] = dW_b, db_b
        dInputs = dIn_f + _reverse_within_mask(dIn_b_rev, lengths)
    else:
        dInputs = (dsummary[:, None, :] * cache["mask"][:, :, None]
                   / lengths[:, None, None])
    col = 0
    for k, _ in enumerate(model.cat_columns):
        dE = np.zeros_like(model.params[f"emb_{k}"])
        np.add.at(dE, cache["idx"][k], dInputs[:, :, col:col + model.embed_dim])
        grads[f"emb_{k}"] = dE
        col += model.embed_dim
    return loss, grads


def clip_global(grads, max_norm):
    """Scale every gradient in place so their joint L2 norm is at most
    ``max_norm``; the norm sums the arrays in the dict's order."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return grads


def train(model: SeqNetModel, X, mask, Y, epochs: int, lr: float, seed: int,
          batch_size: int = 32, validation=None) -> SeqNetModel:
    """Mini-batch gradient descent on mean cross-entropy with global-norm
    clipping; deterministic under a fixed seed. Records the per-epoch curve.

    Divergence (non-finite loss) aborts, keeping the last finite epoch's
    parameters and flagging the curve.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    Y = np.asarray(Y, dtype=np.int64)
    rng = np.random.default_rng(seed)
    model.hyper.update({"epochs": epochs, "lr": lr, "train_seed": seed,
                        "batch_size": batch_size})
    n = len(Y)
    snapshot = {k: v.copy() for k, v in model.params.items()}
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            _, grads = loss_and_grads(model, X[idx], mask[idx], Y[idx])
            clip_global(grads, CLIP_NORM)
            for k, g in grads.items():
                model.params[k] -= lr * g
        report = evaluate(model, X, mask, Y)
        if not np.isfinite(report.loss):
            model.params = snapshot
            model.curve.diverged = True
            break
        snapshot = {k: v.copy() for k, v in model.params.items()}
        model.curve.epochs.append(epoch)
        model.curve.train_loss.append(report.loss)
        model.curve.train_acc.append(report.accuracy)
        if validation is not None:
            vX, vmask, vY = validation
            vrep = evaluate(model, vX, vmask, vY)
            model.curve.val_loss.append(vrep.loss)
            model.curve.val_acc.append(vrep.accuracy)
    return model


@dataclass
class EvalReport:
    accuracy: float
    loss: float
    confusion: np.ndarray

    def to_dict(self):
        return {"accuracy": self.accuracy, "loss": self.loss,
                "confusion": [[int(v) for v in row] for row in self.confusion]}


def evaluate(model: SeqNetModel, X, mask, Y) -> EvalReport:
    Y = np.asarray(Y, dtype=np.int64)
    _, _, logits, probs = _infer(model, X, mask)
    loss = _loss_from_logits(logits, Y)
    pred = np.argmax(probs, axis=1)
    C = model.n_classes
    confusion = np.zeros((C, C), dtype=np.int64)
    np.add.at(confusion, (Y, pred), 1)
    return EvalReport(accuracy=float(np.mean(pred == Y)), loss=loss,
                      confusion=confusion)


def grad_check(model: SeqNetModel, X, mask, Y, epsilon: float = 1e-5,
               n_coords: int = 60, seed: int = 0) -> float:
    """Max relative error between analytic gradients and central finite
    differences over a random coordinate subsample covering every array."""
    if not (0.0 < epsilon <= 1e-2):
        raise ValueError("epsilon must be in (0, 1e-2]")
    _, grads = loss_and_grads(model, X, mask, Y)
    rng = np.random.default_rng(seed)
    names = sorted(model.params)
    coords = []
    for name in names:
        size = model.params[name].size
        take = min(size, max(3, n_coords // len(names)))
        for flat in rng.choice(size, size=take, replace=False):
            coords.append((name, int(flat)))
    while len(coords) < n_coords:
        name = names[int(rng.integers(len(names)))]
        coords.append((name, int(rng.integers(model.params[name].size))))
    worst = 0.0
    for name, flat in coords:
        arr = model.params[name]
        old = arr.flat[flat]
        arr.flat[flat] = old + epsilon
        loss_up = _loss_only(model, X, mask, Y)
        arr.flat[flat] = old - epsilon
        loss_dn = _loss_only(model, X, mask, Y)
        arr.flat[flat] = old
        numeric = (loss_up - loss_dn) / (2 * epsilon)
        analytic = grads[name].flat[flat]
        denom = max(abs(analytic), abs(numeric), 1e-6)
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst


def _loss_only(model, X, mask, Y):
    return _loss_from_logits(_infer(model, X, mask)[2], np.asarray(Y, dtype=np.int64))


def grid_search(space, dataset, split, seed: int, lr: float = 0.5,
                batch_size: int = 32):
    """Train one model per (arch, nodes, epochs) configuration on the train
    split; rank held-out results by accuracy descending, then loss ascending.

    Returns (rows, models): rows are dicts shaped like the result table
    (architecture, nodes, epochs, accuracy, loss, best), models the trained
    networks in row order.
    """
    if not space:
        raise ValueError("empty search space")
    tr = dataset.take(split.train_indices)
    te = dataset.take(split.test_indices)
    rows, models = [], []
    for arch, nodes, epochs in space:
        model = build_model(arch, nodes, dataset.feature_names, dataset.cat_sizes,
                            dataset.label_names, seed=seed)
        train(model, tr.X, tr.mask, tr.Y, epochs=epochs, lr=lr, seed=seed,
              batch_size=batch_size,
              validation=(te.X, te.mask, te.Y))
        report = evaluate(model, te.X, te.mask, te.Y)
        rows.append({"architecture": arch, "nodes": nodes, "epochs": epochs,
                     "accuracy": report.accuracy, "loss": report.loss,
                     "best": False})
        models.append(model)
    order = sorted(range(len(rows)),
                   key=lambda k: (-rows[k]["accuracy"], rows[k]["loss"], k))
    rows = [rows[k] for k in order]
    models = [models[k] for k in order]
    rows[0]["best"] = True
    return rows, models


def save_checkpoint(path, model: SeqNetModel) -> None:
    """XLG1 parameter container plus a JSON hyperparameter manifest."""
    container.save_arrays(path, model.params)
    meta = {
        "kind": "seqnet", "arch": model.arch, "nodes": model.nodes,
        "feature_names": model.feature_names, "cat_sizes": model.cat_sizes,
        "label_names": model.label_names, "seed": model.seed,
        "embed_dim": model.embed_dim, "hyper": model.hyper,
        "curve": {
            "epochs": model.curve.epochs, "train_loss": model.curve.train_loss,
            "train_acc": model.curve.train_acc, "val_loss": model.curve.val_loss,
            "val_acc": model.curve.val_acc, "diverged": model.curve.diverged,
        },
    }
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)


def load_checkpoint(path) -> SeqNetModel:
    with open(str(path) + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    curve = TrainingCurve(**{k: v for k, v in meta["curve"].items()})
    model = SeqNetModel(arch=meta["arch"], nodes=meta["nodes"],
                        feature_names=meta["feature_names"],
                        cat_sizes=meta["cat_sizes"],
                        label_names=meta["label_names"], seed=meta["seed"],
                        embed_dim=meta["embed_dim"], hyper=meta["hyper"],
                        curve=curve)
    model.params = container.load_arrays(path)
    return model
