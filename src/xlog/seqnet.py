"""Trainable sequence classifiers: embedding -> (LSTM | BiLSTM | pooled dense)
-> dense ReLU -> softmax, with exact analytic gradients.

Recurrent summaries read the hidden state at each case's last real event, so
padded timesteps can never leak into predictions or gradients. The BiLSTM
runs a second cell over the sequence reversed within its mask, stacked with
the first in one loop, and concatenates both final states. Training and
inference share one forward pass and one LSTM scan over rows sorted longest
first, which steps at each timestep only the rows still inside their
sequence. One routine embeds each direction's source steps and projects
them: training calls it once for the whole batch and keeps per-step caches
for BPTT; inference calls it on blocks of steps and keeps only the running
state, so its memory does not grow with the number of timesteps.

Each ``train`` call makes one ``Workspace`` and passes it to every batch's
``loss_and_grads``. The batch's large BPTT arrays (embedded inputs and
their gradient, the gate cache, the scan state and the backward
coefficients) are cut from its buffers, so batches reuse the pages of the
batches before them instead of allocating megabytes afresh. The workspace
dies with the call; inference allocates each block's arrays afresh.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

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


class Workspace:
    """Flat float64 buffers that the batches of one ``train`` call share,
    one per named region. ``take`` returns a C-ordered prefix of a region,
    shaped and laid out as a fresh array would be, so every GEMM sees the
    same operands. A view is valid until its region is taken again. A
    region too small for a request is freed, then allocated at the
    requested size."""

    def __init__(self):
        self._flat = {}

    def take(self, region, shape, zero=False):
        size = math.prod(shape)
        if region not in self._flat or self._flat[region].size < size:
            self._flat[region] = None  # free the old buffer before allocating
            self._flat[region] = np.empty(size)
        view = self._flat[region][:size].reshape(shape)
        if zero:
            view.fill(0.0)
        return view


@dataclass
class TrainingCurve:
    epochs: list[int] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)
    clip_rate: list[float] = field(default_factory=list)
    diverged: bool = False

    def rows(self):
        return zip(self.epochs, self.train_loss, self.train_acc, self.val_loss,
                   self.val_acc, self.grad_norm, self.clip_rate)


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


def init_uniform(rng, shape, fan_in):
    """Draws from uniform(-r, r) with r = 1/sqrt(fan_in)."""
    r = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-r, r, size=shape)


def build_model(arch: str, nodes: int, feature_names, cat_sizes, label_names,
                seed: int, embed_dim: int = EMBED_DIM) -> SeqNetModel:
    """Seeded ``init_uniform`` weights; biases zero."""
    if arch not in ARCHS:
        raise ValueError(f"unknown architecture {arch!r}")
    model = SeqNetModel(arch=arch, nodes=nodes, feature_names=list(feature_names),
                        cat_sizes=list(cat_sizes), label_names=list(label_names),
                        seed=seed, embed_dim=embed_dim)
    rng = np.random.default_rng(seed)
    p = model.params
    for k, col in enumerate(model.cat_columns):
        p[f"emb_{k}"] = init_uniform(rng, (model.cat_sizes[col] + 1, embed_dim), embed_dim)
    D, H = model.input_dim, nodes

    def lstm_bias():
        b = np.zeros(4 * H)
        b[H:2 * H] = 1.0  # forget gate opens toward remembering early events
        return b

    for w, b, _ in _directions(arch):
        p[w] = init_uniform(rng, (D + H, 4 * H), D + H)
        p[b] = lstm_bias()
    R = model.summary_width()
    p["dense_W"] = init_uniform(rng, (R, nodes), R)
    p["dense_b"] = np.full(nodes, 0.01)  # start ReLU units alive
    p["out_W"] = init_uniform(rng, (nodes, model.n_classes), nodes)
    p["out_b"] = np.zeros(model.n_classes)
    return model


def _indices(model: SeqNetModel, X):
    """Row of every categorical cell of raw (..., F) features in the stacked
    embedding table: the value clipped to its column's vocabulary, plus the
    first row of that column's table. Shape (..., C), int64, C-ordered, so
    that ``np.take`` reads a block of its rows without copying them."""
    sizes = np.asarray([model.cat_sizes[c] for c in model.cat_columns], dtype=np.int64)
    first = np.cumsum(sizes + 1) - (sizes + 1)
    return np.add(np.clip(X[..., model.cat_columns].astype(np.int64), 0, sizes), first,
                  order="C")


def _table(model: SeqNetModel):
    """Every categorical column's embedding table, stacked in column order."""
    tables = [model.params[f"emb_{k}"] for k in range(len(model.cat_columns))]
    return np.concatenate(tables) if tables else np.zeros((0, model.embed_dim))


def _embed(table, idx, X_num, ws=None):
    """C-ordered input vectors (..., D): the ``table`` rows of ``idx``, column
    by column, then the numeric features ``X_num``, built in the ``inputs``
    region of the workspace ``ws`` (a throwaway one if None). The gathered
    rows pass through its ``gather`` region, which the caller may take
    again once this returns."""
    ws = ws or Workspace()
    CE = idx.shape[-1] * table.shape[1]
    out = ws.take("inputs", idx.shape[:-1] + (CE + X_num.shape[-1],))
    rows = ws.take("gather", idx.shape + table.shape[1:])
    np.take(table, idx, axis=0, out=rows, mode="clip")  # idx is in range already
    out[..., :CE].reshape(rows.shape)[...] = rows  # a view
    out[..., CE:] = X_num
    return out


def _pool(table, idx, X_num, lengths):
    """Mean of each row's first ``lengths`` embedded steps, summed in time
    order, so that padding after them cannot change a bit. One call per
    block of rows, so each block's temporaries are freed before the next."""
    total = np.cumsum(_embed(table, idx, X_num), axis=1)
    return total[np.arange(len(lengths)), lengths - 1] / lengths[:, None]


def _embedding_grads(model: SeqNetModel, idx, dX, grads):
    """Add each embedding table's gradient to ``grads``, given the gradient
    ``dX`` (..., C*E) on the categorical part of input vectors read at
    stacked-table rows ``idx`` (..., C): one bincount per embedding
    dimension covers every table."""
    E = model.embed_dim
    if not idx.shape[-1]:
        return
    sizes = [model.cat_sizes[c] + 1 for c in model.cat_columns]
    rows, w = idx.ravel(), dX.reshape(-1, E)
    dT = np.stack([np.bincount(rows, weights=w[:, e], minlength=sum(sizes))
                   for e in range(E)], axis=1)
    for k, part in enumerate(np.split(dT, np.cumsum(sizes)[:-1])):
        grads[f"emb_{k}"] = part


def _lstm_scan(Wh, blocks, running, ws):
    """Run K stacked cells over the rows of a batch sorted longest first,
    stepping at step t only the first ``running[t]`` rows, those still
    inside their sequence; a row that has ended keeps its state.

    ``blocks`` yields ``(t0, G)``: the (K, B, n, 4H) input projections of
    steps t0 .. t0 + B - 1, made with ``_scan_weights``, for at least the
    rows running at t0. The cell leaves its gates in ``G``. Returns the
    buffers ``C`` and ``Hs`` of cell and hidden states, where slot ``s``
    holds the state after step ``s - 1`` (slot 0 is the zero start), and
    ``TC`` = tanh(C) by step. In training, with the workspace ``ws``,
    they hold every step for BPTT and are cut from ``ws``; in inference
    (``ws`` None), two slots in turn, and a row's final state stays in slot
    ``length % 2`` because no later step touches the row."""
    K, H, T, M = Wh.shape[0], Wh.shape[1], len(running) - 1, running[0]
    keep = ws is not None
    S = T + 1 if keep else 2
    ws = ws or Workspace()
    C, Hs = ws.take("C", (K, S, M, H), zero=True), ws.take("Hs", (K, S, M, H), zero=True)
    TC = ws.take("TC", (K, T if keep else 1, M, H), zero=True)
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


def _lstm_backward(Wh, G, C, TC, running, dh, ws):
    """Exact BPTT through a training scan, given its buffers and the
    loss gradient ``dh`` (K, M, H) on each sorted row's final hidden state.
    ``Wh`` holds the recurrent weights in the scan's gate order, not
    halved. Returns the gradient on every step's gate pre-activations,
    (K, T, M, 4H), computed in place in ``G``; it is zero wherever a row is
    not running. Overwrites ``C``, ``TC`` and ``dh``.

    Every per-step coefficient is computed for all steps at once before the
    loop, in place in the gate cache and two scratch arrays from the
    workspace ``ws``, so each step only chains ``dc`` and ``dh`` through the
    running rows."""
    K, T, M, H = G.shape[0], G.shape[1], G.shape[2], Wh.shape[1]
    o, i, f, g = (G[..., k * H:(k + 1) * H] for k in range(4))
    F = C[:, :T]  # c_{t-1} of step t, then f
    u = np.subtract(1.0, o, out=ws.take("u", o.shape))
    u *= o
    v = np.multiply(TC, TC, out=ws.take("v", TC.shape))
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


def _forward(model: SeqNetModel, X, mask, ws):
    """Summary, dense activations, logits, probabilities and a cache.

    Dense pooling sums each row's true prefix in time order, so extra
    padded steps leave it unchanged to the last bit. Recurrent rows are
    sorted longest first and read time-major. One helper, ``project``,
    embeds each direction's source steps and makes their input projection
    ``x @ W[:D] + b`` outside the time loop, in one matmul call that runs
    one small GEMM per (direction, step): one GEMM over all T*M rows is
    split across BLAS threads, whose buffers then stay resident (1.5 MB
    more peak RSS over 15 seqnet_latent passes). In training, with the
    workspace ``ws``, it projects every step of the batch at once into
    ``ws``, and the cache holds everything ``loss_and_grads`` reads. In
    inference (``ws`` None) it projects blocks of steps of ``SCAN_BYTES``,
    each into fresh arrays, and dense inputs are pooled in blocks of rows
    of ``POOL_BYTES``, so memory is O(M * (D + H)) beyond input-sized
    temporaries, never O(M * T * H)."""
    X, mask, lengths = _prepare(model, X, mask)
    keep = ws is not None
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
        pos = np.stack([np.where(t < L, L - 1 - t, t) if backward else np.broadcast_to(t, (T, M))
                        for _, _, backward in dirs])
        W, b = _scan_weights(np.stack([p[w] for w, _, _ in dirs]),
                             np.stack([p[bb] for _, bb, _ in dirs]))

        def project(t0, t1):
            """Each direction's stacked-table rows, input vectors and input
            projections, (K, t1 - t0, n, .), at steps t0 .. t1 - 1 of the
            n rows running at t0. Training cuts the projections from the
            region of the gathered rows, which ``_embed`` is done with."""
            rows, at = order[:running[t0]], pos[:, t0:t1, :running[t0]]
            ix = idx[rows, at]
            inputs = _embed(table, ix, X_num[rows, at], ws)
            G = np.matmul(inputs, W[:, None, :D], out=None if ws is None else
                          ws.take("gather", inputs.shape[:-1] + (4 * H,)))
            G += b[:, None, None]
            return ix, inputs, G

        if keep:
            ix, inputs, G = project(0, T)
            G[:, np.arange(M) >= np.asarray(running[:T])[:, None]] = 0.0
            blocks = [(0, G)]
            cache.update(idx=ix, inputs=inputs, G=G, order=order, running=running)
        else:
            steps = max(1, SCAN_BYTES // (8 * K * max(M, 1) * (D + 4 * H)))
            blocks = ((t0, project(t0, min(T, t0 + steps))[2]) for t0 in range(0, T, steps))
        C, TC, Hs = _lstm_scan(W[:, D:], blocks, running, ws)
        if keep:
            cache.update(C=C, TC=TC, Hs=Hs)
        inv = np.empty_like(order)
        inv[order] = np.arange(M)
        summary = Hs[:, lengths % Hs.shape[1], inv].transpose(1, 0, 2).reshape(M, K * H)
    _, act, logits, probs = head(model, summary)
    return summary, act, logits, probs, cache


def forward(model: SeqNetModel, X, mask) -> np.ndarray:
    """Class probabilities, one row per sequence; padded steps have no effect."""
    return _forward(model, X, mask, None)[3]


def hidden_summary(model: SeqNetModel, X, mask) -> np.ndarray:
    """The recurrent (or pooled) summary vector of each sequence."""
    return _forward(model, X, mask, None)[0]


def _row_losses(logits, Y):
    """Each row's cross-entropy of class ``Y`` under softmax ``logits``."""
    shift = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shift).sum(axis=1))
    return lse - shift[np.arange(len(Y)), Y]


def loss_and_grads(model: SeqNetModel, X, mask, Y, ws=None):
    """Mean cross-entropy, exact gradients for every parameter, and the
    per-row ``(losses, hits)`` behind the mean: each row's cross-entropy and
    whether its most probable class is ``Y``.

    The BPTT arrays are cut from the ``Workspace`` ``ws``, a throwaway one
    when none is given; nothing returned shares its buffers."""
    Y = np.asarray(Y, dtype=np.int64)
    ws = ws or Workspace()
    summary, act, logits, probs, cache = _forward(model, X, mask, ws)
    p, M = model.params, len(Y)
    rows = _row_losses(logits, Y)
    loss = float(np.mean(rows))
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
        dZ = _lstm_backward(W[:, D:], cache["G"], cache["C"], cache["TC"],
                            cache["running"], dh, ws)
        T = dZ.shape[1]
        dW = np.empty_like(W)
        _sum_step_products(cache["Hs"][:, :T], dZ, dW[:, D:])
        _sum_step_products(cache["inputs"], dZ, dW[:, :D])
        db = dZ.sum(axis=(1, 2))
        # C-ordered weights: the per-step GEMMs ran slower on the transposed view;
        # the inputs, read for the last time above, leave their region to dInputs
        dInputs = np.matmul(dZ, np.ascontiguousarray(W[:, None, :E].swapaxes(-1, -2)),
                            out=ws.take("inputs", dZ.shape[:-1] + (E,)))
        back = np.argsort(cols)
        for k, (w, b, _) in enumerate(dirs):
            grads[w], grads[b] = dW[k][:, back], db[k][back]
    _embedding_grads(model, cache["idx"], dInputs, grads)
    return loss, grads, (rows, np.argmax(probs, axis=1) == Y)


def descend(params, grads, lr, blocks=None):
    """One gradient-descent step in place: scale every gradient so their joint
    L2 norm, summed in the dict's order, is at most ``CLIP_NORM``, then
    ``p -= lr * g`` for every parameter. Returns the norm before clipping.

    With ``blocks``, several models step in lockstep: ``params`` and
    ``grads`` are (models, size) buffers, each row one model's parameters or
    gradients laid end to end, and ``blocks`` holds each parameter's slice of
    a row, in order. A model's norm adds up its per-parameter sums as the
    dict's does, each model is clipped by its own norm, and the norms come
    back as a (models,) array."""
    if blocks is None:
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    else:
        square = grads * grads
        total = np.sqrt(sum(np.add.reduce(square[:, b], axis=1) for b in blocks))
    scale = CLIP_NORM / np.fmax(total, CLIP_NORM)  # exactly 1.0 unless clipped; NaN is not
    if blocks is None:
        for k, g in grads.items():
            g *= scale
            params[k] -= lr * g
        return float(total)
    grads *= scale[:, None]
    params -= lr * grads
    return total


def train(model: SeqNetModel, X, mask, Y, epochs: int, lr: float, seed: int,
          validation) -> SeqNetModel:
    """Gradient descent on mean cross-entropy over mini-batches of
    ``BATCH_SIZE`` with global-norm clipping; deterministic under a fixed
    seed. Records the per-epoch curve.

    An epoch's train loss and accuracy are the means over every training
    row, in row order, of the values its batch computed at the parameters
    before that batch's step, as Keras's ``fit`` reports them; the training
    set is not scored again. ``validation`` = (X, mask, Y) is scored with
    ``evaluate`` at the end of each epoch. ``grad_norm`` is the mean of the
    epoch's pre-clip gradient norms and ``clip_rate`` the share of its
    batches that were clipped.

    An epoch diverged when its train loss, its held-out loss or any
    parameter is not finite. Training then stops, keeping the parameters of
    the last epoch that did not diverge and flagging the curve.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    Y = np.asarray(Y, dtype=np.int64)
    rng = np.random.default_rng(seed)
    model.hyper.update({"epochs": epochs, "lr": lr, "train_seed": seed,
                        "batch_size": BATCH_SIZE})
    n, curve, ws = len(Y), model.curve, Workspace()
    row_loss, row_hit = np.empty(n), np.empty(n, dtype=bool)
    snapshot = {k: v.copy() for k, v in model.params.items()}
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        norms = []
        for start in range(0, n, BATCH_SIZE):
            idx = order[start:start + BATCH_SIZE]
            _, grads, (row_loss[idx], row_hit[idx]) = loss_and_grads(
                model, X[idx], mask[idx], Y[idx], ws)
            norms.append(descend(model.params, grads, lr))
        loss = float(np.mean(row_loss))
        held = evaluate(model, *validation)
        if not (np.isfinite(loss) and np.isfinite(held.loss)
                and all(np.all(np.isfinite(v)) for v in model.params.values())):
            model.params = snapshot
            curve.diverged = True
            break
        snapshot = {k: v.copy() for k, v in model.params.items()}
        curve.epochs.append(epoch)
        curve.train_loss.append(loss)
        curve.train_acc.append(float(np.mean(row_hit)))
        curve.val_loss.append(held.loss)
        curve.val_acc.append(held.accuracy)
        curve.grad_norm.append(float(np.mean(norms)))
        curve.clip_rate.append(float(np.mean(np.asarray(norms) > CLIP_NORM)))
    return model


@dataclass
class EvalReport:
    accuracy: float
    loss: float


def evaluate(model: SeqNetModel, X, mask, Y) -> EvalReport:
    Y = np.asarray(Y, dtype=np.int64)
    _, _, logits, probs, _ = _forward(model, X, mask, None)
    return EvalReport(accuracy=float(np.mean(np.argmax(probs, axis=1) == Y)),
                      loss=float(np.mean(_row_losses(logits, Y))))


def grid_search(space, dataset, split, seed: int, lr: float = 0.5):
    """Train one model per (arch, nodes, epochs) configuration on the train
    split; rank held-out results by accuracy descending, then loss ascending.
    A diverged model raises ``FloatingPointError`` naming entry and epoch.

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
        curve = model.curve
        if curve.diverged:
            raise FloatingPointError(f"grid entry {arch}:{nodes}:{epochs} diverged in epoch "
                                     f"{len(curve.epochs) + 1}; try a smaller --lr")
        # the last validation point scored the final parameters on the test split
        rows.append({"architecture": arch, "nodes": nodes, "epochs": epochs,
                     "accuracy": curve.val_acc[-1], "loss": curve.val_loss[-1], "best": False})
        models.append(model)
    order = sorted(range(len(rows)),
                   key=lambda k: (-rows[k]["accuracy"], rows[k]["loss"], k))
    rows = [rows[k] for k in order]
    models = [models[k] for k in order]
    rows[0]["best"] = True
    return rows, models


def save_checkpoint(path, model: SeqNetModel, meta: dict | None = None) -> None:
    """XLG1 parameter container plus a JSON manifest of every other model
    field, stamped with the run's ``meta`` block when one is given."""
    stored = {f.name: getattr(model, f.name) for f in fields(model)
              if f.name not in ("params", "curve")}
    container.save(path, model.params, {"kind": "seqnet", **stored, "curve": asdict(model.curve)},
                   meta)


def load_checkpoint(path) -> SeqNetModel:
    """Read a ``save_checkpoint`` pair; ``ValueError`` unless the manifest is
    a seqnet's."""
    params, manifest = container.load(path)
    if not isinstance(manifest, dict) or manifest.get("kind") != "seqnet":
        raise ValueError(f"{path} is not a seqnet checkpoint")
    stored = {f.name: manifest[f.name] for f in fields(SeqNetModel)
              if f.name not in ("params", "curve")}
    return SeqNetModel(**stored, params=params, curve=TrainingCurve(**manifest["curve"]))
