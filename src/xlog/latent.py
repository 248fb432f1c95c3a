"""Hidden-layer interception and 2-D latent projection via an autoencoder.

The recurrent summary of a trained sequence network is captured per instance,
compressed through a two-dense-layer autoencoder with a 2-D bottleneck, and
the resulting plane is clustered to make the eyeball-a-scatter-plot workflow
reproducible: k-means with restarts, purity, and per-cluster lists of
instances whose predicted label disagrees with their cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import seqnet
from .encode import SequenceDataset

#: rows whose distances to every point ``silhouette_score`` holds at once
SILHOUETTE_BLOCK_ROWS = 256
#: bytes of the (restarts, k, points) distance block one k-means group holds
KMEANS_BLOCK_BYTES = 2**19
#: bytes of the widest (widths, cases, columns) buffer one autoencoder group holds
AE_BLOCK_BYTES = 2**19


@dataclass
class ActivationMatrix:
    values: np.ndarray          # (M, width of intercepted layer)
    true_labels: np.ndarray     # (M,) int
    predicted_labels: np.ndarray
    label_names: list[str]
    case_ids: list[str]


def capture_activations(model: seqnet.SeqNetModel, data: SequenceDataset,
                        layer: int = 0) -> ActivationMatrix:
    """Record the last true-masked recurrent state (both directions
    concatenated for a BiLSTM) plus true and predicted labels, all from one
    pass over the data."""
    if layer not in (0, 1):
        raise ValueError(f"layer id {layer} out of range (0 or 1)")
    summary = seqnet.hidden_summary(model, data.X, data.mask)
    _, act, _, probs = seqnet.head(model, summary)
    return ActivationMatrix(values=summary if layer == 0 else act,
                            true_labels=np.asarray(data.Y, dtype=np.int64),
                            predicted_labels=np.argmax(probs, axis=1),
                            label_names=list(data.label_names),
                            case_ids=list(data.case_ids))


@dataclass
class Autoencoder:
    params: dict[str, np.ndarray]
    input_mean: np.ndarray
    input_scale: float
    error_curve: list[float] = field(default_factory=list)
    final_mse: float = float("nan")
    diverged: bool = False


def _encode(params, Z):
    """The encoder half: feeder activations and 2-D codes of inputs ``Z``."""
    h1 = Z @ params["enc1_W"]
    h1 += params["enc1_b"]
    np.tanh(h1, out=h1)
    code = h1 @ params["enc2_W"]
    code += params["enc2_b"]
    return h1, code


def _ae_forward(params, Z):
    h1, code = _encode(params, Z)
    h2 = code @ params["dec1_W"]
    h2 += params["dec1_b"]
    np.tanh(h2, out=h2)
    recon = h2 @ params["dec2_W"]
    recon += params["dec2_b"]
    return h1, code, h2, recon


#: (rows, columns) of each autoencoder parameter: "D" is the input width,
#: "W" the feeder width, and a bias is one row. Flat buffers hold them in
#: this order, the order back-propagation yields their gradients, so that
#: ``seqnet.descend`` adds a model's squared sums as the per-width fit's
#: gradient dict did; weights are drawn in forward order instead.
_AE_LAYOUT = {"dec2_W": ("W", "D"), "dec2_b": (1, "D"), "dec1_W": (2, "W"), "dec1_b": (1, "W"),
              "enc2_W": ("W", 2), "enc2_b": (1, 2), "enc1_W": ("D", "W"), "enc1_b": (1, "W")}


def _shapes(D, W):
    """Each parameter's (rows, columns) for input width ``D`` and feeder
    width ``W``, in ``_AE_LAYOUT`` order."""
    return {name: tuple({"D": D, "W": W}.get(d, d) for d in dims)
            for name, dims in _AE_LAYOUT.items()}


def _blocks(shapes):
    """Each parameter's slice of a flat buffer's row, in ``shapes`` order."""
    ends = np.cumsum([rows * cols for rows, cols in shapes.values()]).tolist()
    return [slice(start, end) for start, end in zip([0] + ends, ends)]


def _views(flat, shapes):
    """Each parameter's view of a (models, size) buffer laid out as
    ``shapes``, with the model on its leading axis."""
    return {name: flat[:, block].reshape(len(flat), *shape)
            for (name, shape), block in zip(shapes.items(), _blocks(shapes))}


def _cut(views, g, n1):
    """Views of model ``g``'s parameters cut from the padded width to
    ``n1``, biases 1-D: the arrays of a lone autoencoder of width ``n1``."""
    cut = {}
    for name, dims in _AE_LAYOUT.items():
        p = views[name][g][tuple(slice(n1) if d == "W" else slice(None) for d in dims)]
        cut[name] = p[0] if dims[0] == 1 else p
    return cut


def _width_groups(widths, cases, inputs):
    """Grid positions of ``widths`` in lockstep groups: runs of the widths in
    sorted order (ties in grid order) whose widest is at most twice their
    narrowest, and whose (group, cases, max(width, inputs)) float buffer
    fits ``AE_BLOCK_BYTES``. A width too wide to share a block is alone."""
    groups = []
    for i in sorted(range(len(widths)), key=lambda i: (widths[i], i)):
        group = groups[-1] if groups else []
        if (group and widths[i] <= 2 * widths[group[0]]
                and (len(group) + 1) * cases * max(widths[i], inputs) * 8 <= AE_BLOCK_BYTES):
            group.append(i)
        else:
            groups.append([i])
    return groups


def fit_autoencoder(acts: ActivationMatrix, widths, epochs: int = 400,
                    lr: float = 0.05, seed: int = 0) -> list[Autoencoder]:
    """One autoencoder per bottleneck-feeder width in ``widths``, returned in
    grid order, each minimizing mean squared reconstruction error by
    full-batch ``seqnet.descend`` steps. Inputs are centered and globally
    scaled internally (stored on each model); error curves are in original
    units.

    Width ``i`` draws its weights from ``default_rng(seed + i)``. The widths
    descend in lockstep, in the groups of ``_width_groups``: a group's
    widths are zero-padded to its widest and stacked on a leading model
    axis, so one set of numpy calls steps the whole group, and each model is
    clipped by its own gradient norm. Padded units stay exactly 0. A width
    alone in its group has the bits of a fit of that width by itself; a
    padded width also sums its zeros in the matrix products, which moves its
    parameters, curve and codes in the last digits (within 1e-9 relative on
    the test grids). A width whose error stops being finite keeps the
    parameters of its last finite epoch and is flagged ``diverged``; the
    others go on."""
    widths = [int(n1) for n1 in widths]
    if not widths:
        raise ValueError("empty width grid")
    if min(widths) < 2:
        raise ValueError(f"every width must be >= 2, got {min(widths)}")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    X = np.asarray(acts.values, dtype=float)
    mean = X.mean(axis=0)
    scale = float(np.sqrt(np.mean((X - mean) ** 2))) or 1.0
    Z = (X - mean) / scale
    fits = [None] * len(widths)
    for group in _width_groups(widths, *X.shape):
        for i, (params, curve, mse) in zip(group, _fit_group(
                Z, [widths[i] for i in group], [seed + i for i in group], epochs, lr)):
            fits[i] = Autoencoder(params=params, input_mean=mean, input_scale=scale,
                                  error_curve=(curve * scale * scale).tolist(),
                                  final_mse=float(mse) * scale * scale,
                                  diverged=len(curve) < epochs)
    return fits


def _fit_group(Z, widths, seeds, epochs, lr):
    """Fit one lockstep group on the scaled inputs ``Z``. Per width: its
    parameters, the errors of the epochs before it diverged (all of them if
    it did not) and the error of its final parameters, in scaled units."""
    (M, D), shapes = Z.shape, _shapes(Z.shape[1], max(widths))
    blocks = _blocks(shapes)
    theta = np.zeros((len(widths), blocks[-1].stop))
    for g, (n1, seed) in enumerate(zip(widths, seeds)):
        rng = np.random.default_rng(seed)
        cut = _cut(_views(theta, shapes), g, n1)
        for name in ("enc1_W", "enc2_W", "dec1_W", "dec2_W"):
            cut[name][...] = seqnet.init_uniform(rng, cut[name].shape, cut[name].shape[0])
    final, snapshot, gtheta = np.empty_like(theta), theta.copy(), np.empty_like(theta)
    params, grads = _views(theta, shapes), _views(gtheta, shapes)
    errors, stops = np.empty((epochs, len(widths))), np.full(len(widths), epochs)
    live, epoch = np.arange(len(widths)), 0
    while epoch < epochs:
        h1, code, h2, recon = _ae_forward(params, Z)
        err = recon
        err -= Z
        mse = np.add.reduce((err * err).reshape(len(live), -1), axis=1) / (M * D)
        if not np.isfinite(mse).all():  # restore the diverged, go on with the rest
            bad = ~np.isfinite(mse)
            final[live[bad]], stops[live[bad]] = snapshot[bad], epoch
            live, theta, snapshot = live[~bad], theta[~bad], snapshot[~bad]
            gtheta = np.empty_like(theta)
            params, grads = _views(theta, shapes), _views(gtheta, shapes)
            if not len(live):
                break
            continue
        np.copyto(snapshot, theta)
        errors[epoch, live] = mse
        dr = err
        dr *= 2.0
        dr /= M * D
        np.matmul(h2.mT, dr, out=grads["dec2_W"])
        np.sum(dr, axis=1, keepdims=True, out=grads["dec2_b"])
        dh2 = dr @ params["dec2_W"].mT
        dh2 *= np.subtract(1.0, np.square(h2, out=h2), out=h2)
        np.matmul(code.mT, dh2, out=grads["dec1_W"])
        np.sum(dh2, axis=1, keepdims=True, out=grads["dec1_b"])
        dcode = dh2 @ params["dec1_W"].mT
        np.matmul(h1.mT, dcode, out=grads["enc2_W"])
        np.sum(dcode, axis=1, keepdims=True, out=grads["enc2_b"])
        dh1 = dcode @ params["enc2_W"].mT
        dh1 *= np.subtract(1.0, np.square(h1, out=h1), out=h1)
        np.matmul(Z.T, dh1, out=grads["enc1_W"])
        np.sum(dh1, axis=1, keepdims=True, out=grads["enc1_b"])
        seqnet.descend(theta, gtheta, lr, blocks)
        epoch += 1
    final[live] = theta
    views = _views(final, shapes)
    _, _, _, recon = _ae_forward(views, Z)
    mse = np.mean((recon - Z) ** 2, axis=(1, 2))
    return [({k: v.copy() for k, v in _cut(views, g, n1).items()}, errors[:stops[g], g], mse[g])
            for g, n1 in enumerate(widths)]


@dataclass
class LatentProjection:
    acts: ActivationMatrix       # the cases, labels and activations projected
    coordinates: np.ndarray      # (M, 2)
    clusters: np.ndarray         # (M,) k-means cluster of each case

    def table(self) -> tuple[list[str], list]:
        """CSV header and one row per case."""
        acts, names = self.acts, self.acts.label_names
        rows = [[acts.case_ids[i], x, y, names[acts.true_labels[i]],
                 names[acts.predicted_labels[i]], self.clusters[i]]
                for i, (x, y) in enumerate(self.coordinates)]
        return ["id", "x", "y", "true", "predicted", "cluster"], rows


def project(ae: Autoencoder, acts: ActivationMatrix) -> np.ndarray:
    """The (M, 2) codes of the encoder forward pass; purely a function of
    (ae, acts)."""
    X = np.asarray(acts.values, dtype=float)
    if X.shape[1] != ae.input_mean.shape[0]:
        raise ValueError(f"activation width {X.shape[1]} does not match autoencoder "
                         f"input {ae.input_mean.shape[0]}")
    return _encode(ae.params, (X - ae.input_mean) / ae.input_scale)[1]


# ----------------------------------------------------------------- k-means

def _squared_distances(centers, XT, out, term):
    """``out`` filled with the squared distances of ``centers`` (..., dims) to
    the columns of ``XT`` (dims, points), summed dimension by dimension in
    order; ``term`` is scratch of ``out``'s shape."""
    np.square(np.subtract(centers[..., 0, None], XT[0], out=out), out=out)
    for j in range(1, len(XT)):
        out += np.square(np.subtract(centers[..., j, None], XT[j], out=term), out=term)
    return out


def kmeans(X, k: int, seed: int, restarts: int = 20):
    """At most 100 Lloyd iterations from each of ``restarts`` seeded random
    initializations; returns (labels, centers, inertia) of the best restart,
    the first with the least inertia.

    Restart ``r`` starts from ``default_rng(seed + r)``. The restarts advance
    in lockstep, in groups whose (restarts, k, points) distance block fits
    ``KMEANS_BLOCK_BYTES``; a restart leaves its group at the first step that
    keeps its labels. A step sums the squared per-dimension distances in
    column order, labels each point with its first nearest center, and takes
    each center as the in-order sum of its members over their count. That
    is what ``members.mean(axis=0)`` computes for 2 or more dimensions, so
    results match a per-restart loop bit for bit; for one dimension numpy's
    mean sums pairwise, and a center may differ in its last bit. A restart
    with an empty cluster in a step replays that step cluster by cluster:
    the empty cluster takes the point farthest from its own center."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be a 2-D (points, dimensions) array, got {X.ndim}-D")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(X):
        raise ValueError(f"k={k} exceeds {len(X)} points")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if not np.isfinite(X).all():
        raise ValueError("X has a NaN or infinite coordinate")
    n, dims = X.shape
    group = max(1, min(restarts, KMEANS_BLOCK_BYTES // (k * n * 8)))
    weights = np.tile(np.ascontiguousarray(X.T), group)  # (dims, group * n): columns per restart
    XT = weights[:, :n]
    d2_buf, term_buf = np.empty((group, k, n)), np.empty((group, k, n))
    best = None
    for first in range(0, restarts, group):
        rs = range(first, min(first + group, restarts))
        centers = np.stack([X[np.random.default_rng(seed + r).choice(n, size=k, replace=False)]
                            for r in rs])  # (restarts, k, dims)
        labels = np.zeros((len(rs), n), dtype=np.int64)
        active = np.arange(len(rs))
        for _ in range(100):
            A = len(active)
            d2 = _squared_distances(centers[active], XT, d2_buf[:A], term_buf[:A])
            new = np.zeros((A, n), dtype=np.int64)   # first nearest center, as argmin
            nearest = d2[:, 0].copy()
            for c in range(1, k):
                closer = d2[:, c] < nearest
                new += closer * (c - new)
                np.minimum(nearest, d2[:, c], out=nearest)
            keys = (np.arange(A)[:, None] * k + new).ravel()
            counts = np.bincount(keys, minlength=A * k).reshape(A, k)
            sums = np.stack([np.bincount(keys, weights[j, :A * n], A * k) for j in range(dims)],
                            axis=1).reshape(A, k, dims)
            with np.errstate(invalid="ignore"):
                C = sums / counts[:, :, None]
            for i in np.flatnonzero(counts.min(axis=1) == 0):
                _refill_empty(X, d2[i], new[i], C[i])
            centers[active] = C
            moved = ~(new == labels[active]).all(axis=1)
            labels[active[moved]] = new[moved]
            active = active[moved]
            if not len(active):
                break
        for i in range(len(rs)):
            inertia = float(((X - centers[i][labels[i]]) ** 2).sum())
            if best is None or inertia < best[2]:
                best = (labels[i].copy(), centers[i].copy(), inertia)
    return best


def _refill_empty(X, d2, labels, centers):
    """One restart's step, cluster by cluster, when a cluster came out empty:
    a member mean for each non-empty cluster, and for each empty one the
    point farthest from its own center (``d2`` is (k, points)), which leaves
    its cluster before the later clusters are averaged."""
    for c in range(len(centers)):
        members = X[labels == c]
        if len(members):
            centers[c] = members.mean(axis=0)
        else:
            far = int(np.argmax(d2[labels, np.arange(len(X))]))
            centers[c] = X[far]
            labels[far] = c


def silhouette_score(X, labels) -> float:
    """Mean silhouette over all points; single-member clusters score 0.
    Distances are computed ``SILHOUETTE_BLOCK_ROWS`` rows at a time into one
    (rows, points) buffer by ``_squared_distances``, which adds the squared
    differences one column at a time; below 8 columns that is the order numpy's
    ``sum(axis=2)`` over a difference cube adds them in, so the distances
    match it bit for bit. Each block then sums its distances to one cluster
    at once, over a C-ordered copy of that cluster's columns so every row
    sum rounds as a per-row sum does."""
    X = np.asarray(X, dtype=float)
    uniq, own, sizes = np.unique(np.asarray(labels), return_inverse=True,
                                 return_counts=True)
    if len(uniq) < 2:
        return 0.0
    members = [own == c for c in range(len(uniq))]
    scores = np.zeros(len(X))
    XT = np.ascontiguousarray(X.T)
    d_buf, term_buf = (np.empty((min(SILHOUETTE_BLOCK_ROWS, len(X)), len(X))) for _ in range(2))
    for start in range(0, len(X), SILHOUETTE_BLOCK_ROWS):
        block = X[start:start + SILHOUETTE_BLOCK_ROWS]
        d = _squared_distances(block, XT, d_buf[:len(block)], term_buf[:len(block)])
        np.sqrt(d, out=d)
        sums = np.stack([np.ascontiguousarray(d[:, m]).sum(axis=1) for m in members],
                        axis=1)  # (rows, clusters)
        rows, mine = np.arange(len(block)), own[start:start + len(block)]
        n_same = sizes[mine]
        with np.errstate(invalid="ignore", divide="ignore"):
            a = sums[rows, mine] / (n_same - 1)
            means = sums / sizes
            means[rows, mine] = np.inf
            b = means.min(axis=1)
            top = np.maximum(a, b)
            score = np.where(top > 0, (b - a) / top, 0.0)
        scores[start:start + len(block)] = np.where(n_same > 1, score, 0.0)
    return float(scores.mean())


@dataclass
class ClusterReport:
    k: int
    purity: float
    majority_label: list[str]
    cluster_sizes: list[int]
    misclassified: dict[int, list[str]]   # cluster -> case ids predicted off-majority

    def to_dict(self):
        return {"k": self.k, "purity": self.purity,
                "majority_label": self.majority_label,
                "cluster_sizes": self.cluster_sizes,
                "misclassified": {str(c): ids for c, ids in self.misclassified.items()}}


def analyze_misclassifications(acts: ActivationMatrix, coordinates, k: int,
                               seed: int = 0) -> tuple[np.ndarray, ClusterReport]:
    """Cluster the (M, 2) ``coordinates`` of ``acts``'s cases (k-means, 20
    seeded restarts, best inertia) and list, per cluster, the cases whose
    predicted label differs from the cluster's majority true label (its first
    most frequent, "" for an empty cluster). Purity is the share of cases
    whose true label is their cluster's majority. All of it is read from one
    table of counts per (cluster, true label). Returns the clusters and the
    report."""
    labels, _, _ = kmeans(coordinates, k, seed=seed)
    n_labels = int(acts.true_labels.max()) + 1
    counts = np.bincount(labels * n_labels + acts.true_labels,
                         minlength=k * n_labels).reshape(k, n_labels)
    sizes = counts.sum(axis=1)
    majority = counts.argmax(axis=1)
    off = np.flatnonzero(acts.predicted_labels != majority[labels])
    return labels, ClusterReport(
        k=k, purity=int(counts.max(axis=1).sum()) / len(labels),
        majority_label=[acts.label_names[m] if n else "" for m, n in zip(majority, sizes)],
        cluster_sizes=sizes.tolist(),
        misclassified={c: [acts.case_ids[i] for i in off[labels[off] == c]]
                       for c in range(k)})


@dataclass
class AEGridRow:
    n1: int
    mse: float
    silhouette: float
    best: bool = False


def grid_search_ae(acts: ActivationMatrix, candidates, epochs: int = 400,
                   lr: float = 0.05, seed: int = 0, k: int | None = None):
    """Fit one autoencoder per bottleneck-feeder width in a single
    ``fit_autoencoder`` call (candidate ``i`` with ``seed + i``; widths in
    lockstep groups, so a multi-width grid matches separate fits within
    1e-9 relative and a single width matches bit for bit), cluster each
    plane once (``analyze_misclassifications`` with ``seed + i``) and rank
    the candidates by the silhouette of those clusters (sparser wins).
    Returns the rows, projections and cluster reports, all in rank order. An
    empty grid raises ``ValueError``; a diverged fit raises
    ``FloatingPointError`` naming the first diverged width in grid order."""
    candidates = list(candidates)
    if k is None:
        k = len(set(acts.true_labels.tolist()))
    fits = fit_autoencoder(acts, candidates, epochs=epochs, lr=lr, seed=seed)
    for n1, ae in zip(candidates, fits):
        if ae.diverged:
            raise FloatingPointError(f"autoencoder of width {n1} diverged; try a smaller --lr")
    rows, projections, reports = [], [], []
    for i, (n1, ae) in enumerate(zip(candidates, fits)):
        coordinates = project(ae, acts)
        clusters, report = analyze_misclassifications(acts, coordinates, k, seed=seed + i)
        sil = silhouette_score(coordinates, clusters)
        rows.append(AEGridRow(n1=n1, mse=ae.final_mse, silhouette=sil))
        projections.append(LatentProjection(acts, coordinates, clusters))
        reports.append(report)
    order = sorted(range(len(rows)), key=lambda j: (-rows[j].silhouette, rows[j].mse, j))
    rows[order[0]].best = True
    return ([rows[j] for j in order], [projections[j] for j in order],
            [reports[j] for j in order])
