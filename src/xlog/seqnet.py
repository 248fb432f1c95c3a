"""Trainable sequence classifiers: embedding -> (LSTM | BiLSTM | pooled dense)
-> dense ReLU -> softmax, with exact analytic gradients.

Recurrent summaries read the hidden state at each case's last real event, so
padded timesteps can never leak into predictions or gradients. The BiLSTM
runs a second cell over the sequence reversed within its mask, stacked with
the first in one loop, and concatenates both final states. Training and
inference share one forward pass and one LSTM scan over rows sorted longest
first, which steps at each timestep only the rows still inside their
sequence. Training embeds and projects the batch once and keeps per-step
caches for BPTT; inference embeds and projects blocks of steps and keeps
only the running state, so its memory does not grow with the number of
timesteps.
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


def _gate_columns(H):
    """The stored (i, f, o, g) columns in the scan's gate order (o, i, f, g):
    the sigmoid gates first and the three gates that BPTT scales by dc last,
    each a contiguous block."""
    return np.concatenate([np.arange(k * H, (k + 1) * H) for k in (2, 0, 1, 3)])


def _scan_weights(W, b):
    """``W`` (..., D + H, 4H) and ``b`` in the scan's gate order, with the
    sigmoid gates' columns halved: sigmoid(z) = (1 + tanh(z / 2)) / 2, so
    one tanh serves all four gates. Halving is exact in floating point."""
    H = W.shape[-1] // 4
    cols, half = _gate_columns(H), np.repeat([0.5, 0.5, 0.5, 1.0], H)
    return W[..., cols] * half, b[..., cols] * half


def _lstm_step(z, Wh, h_prev, c_prev, c, tc, h, scratch):
    """One gated update, in place, of the (..., n, .) rows that ``z`` holds:
    on entry their input projection with ``_scan_weights``, on exit the
    gates o, i, f, g. ``h_prev`` is None at the first step, where the state
    is zero. Writes C_t = f*C_{t-1} + i*g, tanh(C_t) and h_t = o*tanh(C_t)
    into ``c``, ``tc`` and ``h``; ``scratch`` is shaped like ``z``."""
    H = c.shape[-1]
    if h_prev is not None:
        np.matmul(h_prev, Wh, out=scratch)
        z += scratch
    np.tanh(z, out=z)
    sig = z[..., :3 * H]
    sig *= 0.5
    sig += 0.5
    np.multiply(z[..., 2 * H:3 * H], c_prev, out=c)
    ig = np.multiply(z[..., H:2 * H], z[..., 3 * H:], out=scratch[..., :H])
    c += ig
    np.tanh(c, out=tc)
    np.multiply(z[..., :H], tc, out=h)


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
    """Row of every categorical cell of raw (..., F) features in the stacked
    embedding table: the value clipped to its column's vocabulary, plus the
    first row of that column's table. Shape (..., C), int64."""
    sizes = np.asarray([model.cat_sizes[c] for c in model.cat_columns], dtype=np.int64)
    first = np.cumsum(sizes + 1) - (sizes + 1)
    return np.clip(X[..., model.cat_columns].astype(np.int64), 0, sizes) + first


def _table(model: SeqNetModel):
    """Every categorical column's embedding table, stacked in column order."""
    tables = [model.params[f"emb_{k}"] for k in range(len(model.cat_columns))]
    return np.concatenate(tables) if tables else np.zeros((0, model.embed_dim))


def _embed(table, idx, X_num):
    """C-ordered input vectors (..., D): the ``table`` rows of ``idx``, column
    by column, then the numeric features ``X_num``."""
    cat = table[idx].reshape(idx.shape[:-1] + (-1,))
    return np.concatenate([cat, X_num], axis=-1) if X_num.shape[-1] else cat


def _pool(table, idx, X_num, lengths):
    """Mean of each row's first ``lengths`` embedded steps, summed in time
    order, so that padding after them cannot change a bit. One call per
    block of rows, so each block's temporaries are freed before the next."""
    total = np.cumsum(_embed(table, idx, X_num), axis=1)
    return total[np.arange(len(lengths)), lengths - 1] / lengths[:, None]


def _embedding_grads(model: SeqNetModel, idx, dX, grads):
    """Add each embedding table's gradient to ``grads``, given the gradient
    ``dX`` (..., >= C*E) on input vectors whose categorical part was read at
    stacked-table rows ``idx`` (..., C): one bincount per embedding
    dimension covers every table."""
    E, C = model.embed_dim, idx.shape[-1]
    if not C:
        return
    sizes = [model.cat_sizes[c] + 1 for c in model.cat_columns]
    rows, w = idx.ravel(), dX[..., :C * E].reshape(-1, E)
    dT = np.stack([np.bincount(rows, weights=w[:, e], minlength=sum(sizes))
                   for e in range(E)], axis=1)
    for k, part in enumerate(np.split(dT, np.cumsum(sizes)[:-1])):
        grads[f"emb_{k}"] = part


def _lstm_scan(Wh, blocks, running, keep):
    """Run K stacked cells over the rows of a batch sorted longest first,
    stepping at step t only the first ``running[t]`` rows, those still
    inside their sequence; a row that has ended keeps its state.

    ``blocks`` yields ``(t0, G)``: the (K, B, n, 4H) input projections of
    steps t0 .. t0 + B - 1, made with ``_scan_weights``, for at least the
    rows running at t0. The cell leaves its gates in ``G``. Returns the
    buffers ``C`` and ``Hs`` of cell and hidden states, where slot ``s``
    holds the state after step ``s - 1`` (slot 0 is the zero start), and
    ``TC`` = tanh(C) by step. With ``keep`` (training) they hold every
    step for BPTT; without it, two slots in turn, and a row's final state
    stays in slot ``length % 2`` because no later step touches the row."""
    K, H, T, M = Wh.shape[0], Wh.shape[1], len(running) - 1, running[0]
    S = T + 1 if keep else 2
    C, Hs = np.zeros((K, S, M, H)), np.zeros((K, S, M, H))
    TC = np.zeros((K, T if keep else 1, M, H))
    scratch = np.empty((K, M, 4 * H))
    for t0, G in blocks:
        for j in range(G.shape[1]):
            t = t0 + j
            n, a, z = running[t], t % S, (t + 1) % S
            _lstm_step(G[:, j, :n], Wh, Hs[:, a, :n] if t else None, C[:, a, :n],
                       C[:, z, :n], TC[:, t if keep else 0, :n], Hs[:, z, :n],
                       scratch[:, :n])
        del G  # before the next block is projected
    return C, TC, Hs


def _lstm_backward(Wh, G, C, TC, running, dh):
    """Exact BPTT through a scan with ``keep``, given its buffers and the
    loss gradient ``dh`` (K, M, H) on each sorted row's final hidden state.
    ``Wh`` holds the recurrent weights in the scan's gate order, not
    halved. Returns the gradient on every step's gate pre-activations,
    (K, T, M, 4H), computed in place in ``G``; it is zero wherever a row is
    not running. Overwrites ``C``, ``TC`` and ``dh``.

    Every per-step coefficient is computed for all steps at once before the
    loop, in place in the gate cache, so each step only chains ``dc`` and
    ``dh`` through the running rows."""
    K, T, M, H = G.shape[0], G.shape[1], G.shape[2], Wh.shape[1]
    o, i, f, g = (G[..., k * H:(k + 1) * H] for k in range(4))
    F = C[:, :T]  # c_{t-1} of step t, then f
    u = np.subtract(1.0, o)
    u *= o
    v = np.multiply(TC, TC)
    np.subtract(1.0, v, out=v)
    v *= o
    np.multiply(u, TC, out=o)  # do/dh:  tanh(c) o (1 - o)
    TC[...] = v                # dc/dh:  o (1 - tanh(c)^2)
    np.subtract(1.0, i, out=u)
    np.multiply(g, g, out=v)
    np.subtract(1.0, v, out=v)
    v *= i
    i *= u
    i *= g                     # di/dc:  g i (1 - i)
    g[...] = v                 # dg/dc:  i (1 - g^2)
    np.subtract(1.0, f, out=u)
    u *= f
    u *= F
    F[...] = f
    f[...] = u                 # df/dc:  c_{t-1} f (1 - f)
    del u, v
    G4 = G.reshape(K, T, M, 4, H)
    WhT = np.ascontiguousarray(Wh.transpose(0, 2, 1))
    dc, tmp = np.zeros_like(dh), np.empty_like(dh)
    for t in range(T - 1, -1, -1):
        n = running[t]
        dh_t, dc_t, tmp_t = dh[:, :n], dc[:, :n], tmp[:, :n]
        np.multiply(dh_t, TC[:, t, :n], out=tmp_t)
        dc_t += tmp_t
        z = G4[:, t, :n]
        z[:, :, 1:] *= dc_t[:, :, None]
        z[:, :, 0] *= dh_t
        if t:
            dc_t *= F[:, t, :n]
            np.matmul(G[:, t, :n], WhT, out=dh_t)
    return G


def _sum_step_products(A, B, out):
    """``out`` = sum over steps t of A_t^T @ B_t, for (..., T, M, .) stacks:
    one small GEMM per step, for the BLAS reason given in ``_forward``, and
    eight steps at a time, so that the stack of products stays small."""
    out[...] = 0.0
    for t in range(0, A.shape[-3], 8):
        s = slice(t, t + 8)
        out += np.matmul(A[..., s, :, :].swapaxes(-1, -2), B[..., s, :, :]).sum(axis=-3)


def _prepare(model: SeqNetModel, X, mask):
    """Validate a batch and cut it at the longest sequence.

    Steps past every row's last event reach no summary: recurrent summaries
    are read at each row's last event, and dense pooling sums only each
    row's true prefix, so the cut changes no result."""
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
    if not np.array_equal(mask, np.arange(mask.shape[1]) < lengths[:, None]):
        raise ValueError("each row's mask must be a prefix: true events, then padding")
    T = int(lengths.max(initial=0))
    return X[:, :T], mask[:, :T], lengths


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
#: bytes of embedded and projected input that recurrent inference holds at once
SCAN_BYTES = 256 * 2**10


def _forward(model: SeqNetModel, X, mask, keep):
    """Summary, dense activations, logits, probabilities and a cache.

    Dense pooling sums each row's true prefix in time order, so extra
    padded steps leave it unchanged to the last bit. Recurrent rows are
    sorted longest first and read time-major; the input projection
    ``x @ W[:D] + b`` is one matmul call outside the time loop. With ``keep``
    (training) the batch is embedded and projected at once and the cache
    holds everything ``loss_and_grads`` reads. Without it (inference)
    recurrent inputs are embedded and projected in blocks of steps of
    ``SCAN_BYTES`` and dense inputs pooled in blocks of rows of
    ``POOL_BYTES``, so memory is O(M * (D + H)) beyond input-sized
    temporaries, never O(M * T * H)."""
    X, mask, lengths = _prepare(model, X, mask)
    p, dirs, table = model.params, _directions(model.arch), _table(model)
    M, T, D = X.shape[0], X.shape[1], model.input_dim
    idx, X_num = _indices(model, X), X[..., model.num_columns]
    cache = {"lengths": lengths, "mask": mask}
    if not dirs:  # mean of embedded timesteps over each row's true events
        cache["idx"] = idx
        rows = max(M, 1) if keep else max(1, POOL_BYTES // (8 * D * max(T, 1)))
        # at least one block, so an empty batch pools to an empty summary
        blocks = [slice(r, r + rows) for r in range(0, max(M, 1), rows)]
        summary = np.concatenate([_pool(table, idx[s], X_num[s], lengths[s]) for s in blocks])
    else:
        K, H = len(dirs), model.nodes
        order = np.argsort(-lengths, kind="stable")
        L = lengths[order]
        # running[t]: rows still inside their sequence at step t; running[T] = 0
        running = (M - np.cumsum(np.bincount(L, minlength=T + 1))).tolist()
        # each direction's source step of every (step, sorted row); the
        # backward cell reads each row's true prefix reversed
        t = np.arange(T)[:, None]
        src = [np.where(t < L, L - 1 - t, t) if backward else None for _, _, backward in dirs]
        W, b = _scan_weights(np.stack([p[w] for w, _, _ in dirs]),
                             np.stack([p[bb] for _, bb, _ in dirs]))
        if keep:
            # embed the batch once in time order and project it per
            # direction; a reversed direction gathers its projection. The
            # matmul over the (T, M, D) stack runs one small GEMM per step:
            # one GEMM over all T*M rows is split across BLAS threads, whose
            # buffers then stay resident (1.5 MB more peak RSS over 15
            # seqnet_latent passes)
            ix = idx[order, t]
            inputs = _embed(table, ix, X_num[order, t])
            flat = [None if s is None else (s * M + np.arange(M)).ravel() for s in src]
            G = np.empty((K, T, M, 4 * H))
            for k, f in enumerate(flat):
                if f is None:
                    np.matmul(inputs, W[k, :D], out=G[k])
                else:
                    np.take(np.matmul(inputs, W[k, :D]).reshape(-1, 4 * H), f, axis=0,
                            out=G[k].reshape(-1, 4 * H), mode="clip")
            G += b[:, None, None]
            G[:, np.arange(M) >= np.asarray(running[:T])[:, None]] = 0.0
            blocks = [(0, G)]
            cache.update(idx=ix, inputs=inputs, flat=flat, G=G, order=order,
                         running=running)
        else:
            pos = np.stack([np.broadcast_to(t, (T, M)) if s is None else s for s in src])

            def project(t0, t1):
                rows, at = order[:running[t0]], pos[:, t0:t1, :running[t0]]
                G = np.matmul(_embed(table, idx[rows, at], X_num[rows, at]).reshape(K, -1, D),
                              W[:, :D]).reshape(at.shape + (4 * H,))
                G += b[:, None, None]
                return t0, G

            steps = max(1, SCAN_BYTES // (8 * K * max(M, 1) * (D + 4 * H)))
            blocks = (project(t0, min(T, t0 + steps)) for t0 in range(0, T, steps))
        C, TC, Hs = _lstm_scan(W[:, D:], blocks, running, keep)
        if keep:
            cache.update(C=C, TC=TC, Hs=Hs)
        inv = np.empty_like(order)
        inv[order] = np.arange(M)
        summary = Hs[:, lengths % Hs.shape[1], inv].transpose(1, 0, 2).reshape(M, K * H)
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


def _cross_entropy(logits, Y):
    shift = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shift).sum(axis=1))
    return float(np.mean(lse - shift[np.arange(len(Y)), Y]))


def loss_and_grads(model: SeqNetModel, X, mask, Y):
    """Mean cross-entropy and exact gradients for every parameter."""
    Y = np.asarray(Y, dtype=np.int64)
    summary, act, logits, probs, cache = _forward(model, X, mask, True)
    p, M = model.params, len(Y)
    loss = _cross_entropy(logits, Y)
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

    # only the embedded input columns lead to parameters
    dirs, lengths = _directions(model.arch), cache["lengths"]
    E = model.embed_dim * len(model.cat_columns)
    if not dirs:  # pooled dense inputs
        dInputs = (dsummary[:, None, :E] * cache["mask"][:, :, None]
                   / lengths[:, None, None])
    else:
        K, H, D = len(dirs), model.nodes, model.input_dim
        cols = _gate_columns(H)
        W = np.stack([p[w] for w, _, _ in dirs])[..., cols]
        dh = np.ascontiguousarray(dsummary.reshape(M, K, H)[cache["order"]].transpose(1, 0, 2))
        # release each cache once read, so that dInputs does not add to the peak
        dZ = _lstm_backward(W[:, D:], cache.pop("G"), cache.pop("C"), cache.pop("TC"),
                            cache["running"], dh)
        T = dZ.shape[1]
        dW = np.empty_like(W)
        _sum_step_products(cache.pop("Hs")[:, :T], dZ, dW[:, D:])
        db = dZ.sum(axis=(1, 2))
        inputs = cache.pop("inputs")
        dInputs = None
        for k, f in enumerate(cache["flat"]):
            # the gather that reversed a direction's projection is its own inverse
            dP = dZ[k] if f is None else \
                np.take(dZ[k].reshape(-1, 4 * H), f, axis=0, mode="clip").reshape(T, M, 4 * H)
            _sum_step_products(inputs, dP, dW[k, :D])
            dIn = np.matmul(dP, W[k, :E].T)
            dInputs = dIn if dInputs is None else np.add(dInputs, dIn, out=dInputs)
        del inputs
        back = np.argsort(cols)
        for k, (w, b, _) in enumerate(dirs):
            grads[w], grads[b] = dW[k][:, back], db[k][back]
    _embedding_grads(model, cache["idx"], dInputs, grads)
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
    loss = _cross_entropy(logits, Y)
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
    return _cross_entropy(_forward(model, X, mask, False)[2], np.asarray(Y, dtype=np.int64))


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
        # the last validation point scored the final parameters on the test
        # split; only when epoch 1 diverged is the curve empty
        if model.curve.val_acc:
            accuracy, loss = model.curve.val_acc[-1], model.curve.val_loss[-1]
        else:
            report = evaluate(model, te.X, te.mask, te.Y)
            accuracy, loss = report.accuracy, report.loss
        rows.append({"architecture": arch, "nodes": nodes, "epochs": epochs,
                     "accuracy": accuracy, "loss": loss, "best": False})
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
