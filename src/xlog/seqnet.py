"""Trainable sequence classifiers: embedding -> (LSTM | BiLSTM | pooled dense)
-> dense ReLU -> softmax, with exact analytic gradients.

Recurrent summaries read the hidden state at each case's last real event, so
padded timesteps can never leak into predictions or gradients. The BiLSTM
runs a second cell over the sequence reversed within its mask and
concatenates both final states. Training and inference share one forward
pass and one LSTM scan: training embeds the batch once and keeps per-step
caches for BPTT; inference embeds one timestep at a time and keeps only the
running state, so its memory does not grow with the number of timesteps.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import container

ARCHS = ("dense", "lstm", "bilstm")
EMBED_DIM = 8
CLIP_NORM = 5.0
BATCH_SIZE = 32


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
        n = len(_directions(self.arch))
        return n * self.nodes if n else self.input_dim


def _directions(arch: str):
    """(weight, bias, reversed) parameter names of each recurrent direction,
    in summary order; the pooled dense architecture has none."""
    return {"lstm": [("lstm_W", "lstm_b", False)],
            "bilstm": [("lstm_W_fwd", "lstm_b_fwd", False),
                       ("lstm_W_bwd", "lstm_b_bwd", True)]}.get(arch, [])


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

    for w, b, _ in _directions(arch):
        p[w] = uniform((D + H, 4 * H), D + H)
        p[b] = lstm_bias()
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


def _lstm_scan(W, b, step, lengths, T, keep):
    """Run the cell over T timesteps, reading each step's (M, D) input from
    ``step(t)``. Returns the hidden state at each row's last event and, when
    ``keep`` is set, the time-major (T, M, .) caches that BPTT reads."""
    M, H = len(lengths), W.shape[1] // 4
    h = np.zeros((M, H)); c = np.zeros((M, H))
    if keep:
        cache = {k: np.empty((T, M, w * H))
                 for k, w in (("ifo", 3), ("g", 1), ("c", 1), ("h", 1))}
    else:
        last = np.empty((M, H))
        ends = lengths[:, None] == np.arange(1, T + 1)
    for t in range(T):
        ifo, g, c, h = _lstm_cell(W, b, step(t), h, c)
        if keep:
            cache["ifo"][t], cache["g"][t], cache["c"][t], cache["h"][t] = ifo, g, c, h
        else:
            np.copyto(last, h, where=ends[:, t, None])
    if keep:
        return cache["h"][lengths - 1, np.arange(M)], cache
    return last, None


def _lstm_backward(W, inputs, cache, dH_out):
    """Exact BPTT through the (M, T, D) ``inputs`` a scan with ``keep`` read,
    given time-major (T, M, H) gradients on h; returns dInputs (M, T, D), dW
    and db."""
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
    if _directions(model.arch):
        T = int(lengths.max(initial=0))
        X, mask = X[:, :T], mask[:, :T]
    return X, mask, lengths


def head(model: SeqNetModel, summary):
    """Summary -> (dense pre-activation, ReLU activation, logits, softmax)."""
    pre = summary @ model.params["dense_W"] + model.params["dense_b"]
    act = np.maximum(pre, 0.0)
    logits = act @ model.params["out_W"] + model.params["out_b"]
    shift = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(shift)
    return pre, act, logits, ez / ez.sum(axis=1, keepdims=True)


#: bytes of embedded input that dense inference pools at once
POOL_BYTES = 4 * 2**20


def _embed_steps(model: SeqNetModel, X):
    """``step(t)`` for inference: the inputs of timestep t of raw (M, T, F)
    ``X``, embedded only when the scan reaches it."""
    idx, X_num = _indices(model, X), X[..., model.num_columns]
    return lambda t: _embed(model, [i[:, t] for i in idx], X_num[:, t])


def _forward(model: SeqNetModel, X, mask, keep):
    """Summary, dense activations, logits, probabilities and a cache.

    With ``keep`` (training) the batch is embedded once and the cache holds
    everything ``loss_and_grads`` reads. Without it (inference) recurrent
    inputs are embedded one timestep at a time and dense inputs pooled in
    blocks of ``POOL_BYTES``, so memory is O(M * (D + H)) beyond input-sized
    temporaries, never O(M * T * H)."""
    X, mask, lengths = _prepare(model, X, mask)
    p, dirs = model.params, _directions(model.arch)
    cache = {"lengths": lengths, "mask": mask, "scans": []}
    if keep or not dirs:
        cache["idx"] = idx = _indices(model, X)
        X_num = X[..., model.num_columns]
    if not dirs:  # mean of embedded timesteps over each row's true events
        # training pools the whole batch: the summary's layout picks the BLAS
        # path of summary.T @ dpre, and one-row blocks would change it
        rows = max(len(X), 1) if keep else \
            max(1, POOL_BYTES // (8 * model.input_dim * X.shape[1]))
        # at least one block, so an empty batch pools to an empty summary;
        # concatenating keeps the memory layout of the whole-batch form
        blocks = [slice(r, r + rows) for r in range(0, max(len(X), 1), rows)]
        summary = np.concatenate(
            [(_embed(model, [i[s] for i in idx], X_num[s]) * mask[s, :, None]).sum(axis=1)
             / lengths[s, None] for s in blocks], axis=0)
    else:
        inputs = _embed(model, idx, X_num) if keep else None
        parts = []
        for w, b, backward in dirs:
            if keep:
                src = _reverse_within_mask(inputs, lengths) if backward else inputs
                step = lambda t, src=src: src[:, t]
            else:
                step = _embed_steps(model, _reverse_within_mask(X, lengths) if backward else X)
            h_last, scan = _lstm_scan(p[w], p[b], step, lengths, X.shape[1], keep)
            parts.append(h_last)
            if keep:
                cache["scans"].append((src, scan))
        summary = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]
    _, act, logits, probs = head(model, summary)
    return summary, act, logits, probs, cache


def forward(model: SeqNetModel, X, mask) -> np.ndarray:
    """Class probabilities, one row per sequence; padded steps have no effect."""
    return _forward(model, X, mask, False)[3]


def hidden_summary(model: SeqNetModel, X, mask, layer: int = 0) -> np.ndarray:
    """Layer 0: the recurrent (or pooled) summary vector; layer 1: the dense
    ReLU activations."""
    if layer not in (0, 1):
        raise ValueError(f"layer id {layer} out of range (0 or 1)")
    return _forward(model, X, mask, False)[layer]


def _loss_from_logits(logits, Y):
    shift = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shift).sum(axis=1))
    return float(np.mean(lse - shift[np.arange(len(Y)), Y]))


def loss_and_grads(model: SeqNetModel, X, mask, Y):
    """Mean cross-entropy and exact gradients for every parameter."""
    Y = np.asarray(Y, dtype=np.int64)
    summary, act, logits, probs, cache = _forward(model, X, mask, True)
    p, M = model.params, len(Y)
    loss = _loss_from_logits(logits, Y)
    dlogits = probs.copy()
    dlogits[np.arange(M), Y] -= 1.0
    dlogits /= M
    grads = {}
    grads["out_W"] = act.T @ dlogits
    grads["out_b"] = dlogits.sum(axis=0)
    dact = dlogits @ p["out_W"].T
    dpre = dact * (act > 0)  # act = max(pre, 0) is positive exactly where pre is
    grads["dense_W"] = summary.T @ dpre
    grads["dense_b"] = dpre.sum(axis=0)
    dsummary = dpre @ p["dense_W"].T

    lengths, H = cache["lengths"], model.nodes
    last = (lengths - 1, np.arange(M))
    dInputs = None
    for k, ((w, b, backward), (src, scan)) in enumerate(zip(_directions(model.arch),
                                                          cache["scans"])):
        dH = np.zeros_like(scan["h"])
        dH[last] = dsummary[:, k * H:(k + 1) * H]
        dIn, grads[w], grads[b] = _lstm_backward(p[w], src, scan, dH)
        if backward:
            dIn = _reverse_within_mask(dIn, lengths)
        dInputs = dIn if dInputs is None else dInputs + dIn
    if dInputs is None:  # pooled dense inputs
        dInputs = (dsummary[:, None, :] * cache["mask"][:, :, None]
                   / lengths[:, None, None])
    col = 0
    for k, _ in enumerate(model.cat_columns):
        dE = np.zeros_like(p[f"emb_{k}"])
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
          validation=None) -> SeqNetModel:
    """Gradient descent on mean cross-entropy over mini-batches of
    ``BATCH_SIZE`` with global-norm clipping; deterministic under a fixed
    seed. Records the per-epoch curve.

    Divergence (non-finite loss) aborts, keeping the last finite epoch's
    parameters and flagging the curve.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    Y = np.asarray(Y, dtype=np.int64)
    rng = np.random.default_rng(seed)
    model.hyper.update({"epochs": epochs, "lr": lr, "train_seed": seed,
                        "batch_size": BATCH_SIZE})
    n = len(Y)
    snapshot = {k: v.copy() for k, v in model.params.items()}
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, BATCH_SIZE):
            idx = order[start:start + BATCH_SIZE]
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
    _, _, logits, probs, _ = _forward(model, X, mask, False)
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
    return _loss_from_logits(_forward(model, X, mask, False)[2], np.asarray(Y, dtype=np.int64))


def grid_search(space, dataset, split, seed: int, lr: float = 0.5):
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


def save_checkpoint(path, model: SeqNetModel, meta: dict | None = None) -> None:
    """XLG1 parameter container plus a JSON hyperparameter manifest, stamped
    with the run's ``meta`` block when one is given."""
    container.save_arrays(path, model.params)
    manifest = {
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
    if meta:
        manifest["meta"] = meta
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)


def load_checkpoint(path) -> SeqNetModel:
    """Read a ``save_checkpoint`` pair; ``ValueError`` unless the manifest is
    a seqnet's."""
    try:
        with open(str(path) + ".json", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        if os.path.exists(path):  # some other file, such as forest.json
            raise ValueError(f"{path} is not a seqnet checkpoint") from None
        raise
    if not isinstance(manifest, dict) or manifest.get("kind") != "seqnet":
        raise ValueError(f"{path} is not a seqnet checkpoint")
    curve = TrainingCurve(**{k: v for k, v in manifest["curve"].items()})
    model = SeqNetModel(arch=manifest["arch"], nodes=manifest["nodes"],
                        feature_names=manifest["feature_names"],
                        cat_sizes=manifest["cat_sizes"],
                        label_names=manifest["label_names"], seed=manifest["seed"],
                        embed_dim=manifest["embed_dim"], hyper=manifest["hyper"],
                        curve=curve)
    model.params = container.load_arrays(path)
    return model
