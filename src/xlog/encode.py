"""Machine-learning representations of a cleaned event log.

Two encodings: a padded sequence tensor (cases x window x features) for the
recurrent networks and a positionally flattened matrix (cases x
features*window + statics) for classical learners. Index 0 is reserved for
padding/unknown tokens in every categorical vocabulary.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import container
from .eventlog import (
    DYNAMIC_CATEGORICAL,
    DYNAMIC_NUMERIC,
    STATIC_CATEGORICAL,
    STATIC_NUMERIC,
    EventTable,
)

DYNAMIC_FEATURES = DYNAMIC_CATEGORICAL + DYNAMIC_NUMERIC
STATIC_FEATURES = STATIC_CATEGORICAL + STATIC_NUMERIC


@dataclass
class Vocabulary:
    """Per-feature token -> index maps; index 0 is never assigned to a token."""

    maps: dict[str, dict[str, int]] = field(default_factory=dict)
    unknown_tokens: int = 0  # tokens seen at encode time that were absent here

    def index(self, feature: str, token: str) -> int:
        return self.maps.get(feature, {}).get(token, 0)

    def size(self, feature: str) -> int:
        return len(self.maps.get(feature, {}))

    def to_dict(self) -> dict:
        """The maps, sorted by feature and then by token."""
        return {"maps": {feat: dict(sorted(m.items())) for feat, m in sorted(self.maps.items())}}


def build_vocab(log: EventTable, categorical_features: list[str]) -> Vocabulary:
    """Index tokens of each categorical feature by descending frequency, ties
    broken lexicographically; indices start at 1."""
    if not log.case_ids:
        raise ValueError("empty log")
    maps: dict[str, dict[str, int]] = {}
    for feat in categorical_features:
        if feat in STATIC_CATEGORICAL:
            freq = Counter(tok for tok in getattr(log, feat) if tok)
        else:
            counts = np.bincount(log.codes[feat], minlength=len(log.tokens[feat])).tolist()
            freq = {tok: n for tok, n in zip(log.tokens[feat], counts) if n and tok}
        order = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
        maps[feat] = {tok: i + 1 for i, (tok, _) in enumerate(order)}
    return Vocabulary(maps=maps)


@dataclass
class Split:
    train_indices: np.ndarray
    test_indices: np.ndarray


def stratified_split(Y, test_fraction: float, seed: int) -> Split:
    """Per-class shuffled split; deterministic for a fixed seed."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must be in (0, 1)")
    Y = np.asarray(Y)
    rng = np.random.default_rng(seed)
    train, test = [], []
    for label in np.unique(Y):
        idx = np.flatnonzero(Y == label)
        if len(idx) < 2:
            raise ValueError(f"class {label!r} has a single member; cannot split")
        idx = idx[rng.permutation(len(idx))]
        n_test = int(np.floor(len(idx) * test_fraction + 0.5))
        n_test = min(max(n_test, 0), len(idx) - 1)
        test.extend(idx[:n_test])
        train.extend(idx[n_test:])
    return Split(
        train_indices=np.sort(np.asarray(train, dtype=np.int64)),
        test_indices=np.sort(np.asarray(test, dtype=np.int64)),
    )


@dataclass
class SequenceDataset:
    X: np.ndarray            # (M, T, F) float64
    mask: np.ndarray         # (M, T) bool, true entries form a prefix
    Y: np.ndarray            # (M,) int64
    T: int
    label_names: list[str]
    feature_names: list[str]
    cat_sizes: list[int]     # vocabulary size per feature, 0 for numeric
    case_ids: list[str] = field(default_factory=list)

    @property
    def F(self) -> int:
        return self.X.shape[2]

    def take(self, indices) -> "SequenceDataset":
        idx = np.asarray(indices)
        return SequenceDataset(
            X=self.X[idx], mask=self.mask[idx], Y=self.Y[idx], T=self.T,
            label_names=self.label_names, feature_names=self.feature_names,
            cat_sizes=self.cat_sizes,
            case_ids=[self.case_ids[i] for i in idx] if self.case_ids else [],
        )

    def save(self, path, meta: dict | None = None) -> None:
        container.save_arrays(path, {"X": self.X, "mask": self.mask, "Y": self.Y})
        _write_manifest(path, self, meta)

    @classmethod
    def load(cls, path) -> "SequenceDataset":
        arrays = container.load_arrays(path)
        meta = _read_manifest(path)
        return cls(X=arrays["X"], mask=arrays["mask"], Y=arrays["Y"],
                   T=arrays["X"].shape[1], label_names=meta["label_names"],
                   feature_names=meta["feature_names"], cat_sizes=meta["cat_sizes"],
                   case_ids=meta.get("case_ids", []))


@dataclass
class FlatDataset:
    X: np.ndarray            # (M, F*L + statics) float64
    Y: np.ndarray
    feature_names: list[str]
    label_names: list[str]
    categorical: list[bool]  # per column
    case_ids: list[str] = field(default_factory=list)

    def take(self, indices) -> "FlatDataset":
        idx = np.asarray(indices)
        return FlatDataset(
            X=self.X[idx], Y=self.Y[idx], feature_names=self.feature_names,
            label_names=self.label_names, categorical=self.categorical,
            case_ids=[self.case_ids[i] for i in idx] if self.case_ids else [],
        )

    def save(self, path, meta: dict | None = None) -> None:
        container.save_arrays(path, {"X": self.X, "Y": self.Y})
        _write_manifest(path, self, meta)

    @classmethod
    def load(cls, path) -> "FlatDataset":
        arrays = container.load_arrays(path)
        meta = _read_manifest(path)
        return cls(X=arrays["X"], Y=arrays["Y"], feature_names=meta["feature_names"],
                   label_names=meta["label_names"], categorical=meta["categorical"],
                   case_ids=meta.get("case_ids", []))


def _write_manifest(path, ds, meta: dict | None = None) -> None:
    payload = {"label_names": ds.label_names, "feature_names": ds.feature_names,
               "case_ids": ds.case_ids}
    if isinstance(ds, SequenceDataset):
        payload["cat_sizes"] = ds.cat_sizes
        payload["T"] = ds.T
    else:
        payload["categorical"] = ds.categorical
    if meta:
        payload["meta"] = meta
    with open(str(path) + ".json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)


def _read_manifest(path) -> dict:
    with open(str(path) + ".json", encoding="utf-8") as fh:
        return json.load(fh)


def _label_space(t: EventTable) -> tuple[list[str], dict[str, int]]:
    names = sorted({lab for lab in t.diagnosis_code if lab is not None})
    return names, {lab: i for i, lab in enumerate(names)}


def _numeric_stats(t: EventTable, split: "Split | None"):
    """Min/max of each numeric feature over train cases (or all cases); counts
    over every event of those cases, not only the encoded window."""
    cases = np.arange(len(t.case_ids)) if split is None else np.asarray(split.train_indices)
    stats = {}
    execs = t.num_executions[t.case_events(cases)]
    stats["num_executions"] = (float(execs.min()), float(execs.max()))
    for feat in STATIC_NUMERIC:
        vals = np.array([float(v) for v in getattr(t, feat)])[cases]
        stats[feat] = (float(vals.min()), float(vals.max()))
    return stats


def _scale(values: np.ndarray, lo: float, hi: float, clamp_zero: bool) -> np.ndarray:
    """``(values - lo) / (hi - lo)`` elementwise in float64, 0 when hi == lo."""
    if hi == lo:
        return np.zeros(len(values))
    v = (values - lo) / (hi - lo)
    if clamp_zero:
        v = np.where(v < 0.0, 0.0, v)
    return v


def _lookup(vocab: Vocabulary, feat: str, tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Vocabulary index of each token, and whether it is a non-empty token the
    vocabulary lacks."""
    idx = np.array([vocab.index(feat, tok) for tok in tokens], dtype=np.int64)
    return idx, (idx == 0) & np.array([bool(tok) for tok in tokens], dtype=bool)


def encode_sequences(log: EventTable, vocab: Vocabulary, T: int,
                     split: "Split | None" = None) -> SequenceDataset:
    """Pad/truncate each case to ``T`` events (keep-first) and emit the
    (M, T, F) tensor with a prefix mask.

    Categorical features carry vocabulary indices (0 = padding/unknown);
    numeric features are min-max scaled to [0, 1] with statistics from the
    train split when one is given, else from the whole log. Static features
    are replicated across timesteps. Counts are clamped at 0 below the train
    minimum; other numerics may leave [0, 1] on unseen data.
    """
    if T < 1:
        raise ValueError("window length T must be >= 1")
    label_names, label_idx = _label_space(log)
    stats = _numeric_stats(log, split)
    feature_names = list(DYNAMIC_FEATURES) + list(STATIC_FEATURES)
    cat_sizes = [vocab.size(f) if f in DYNAMIC_CATEGORICAL + STATIC_CATEGORICAL else 0
                 for f in feature_names]
    M, F = len(log.case_ids), len(feature_names)
    cases = np.arange(M)
    n = np.minimum(np.diff(log.offsets), T)
    mask = np.arange(T) < n[:, None]
    Y = np.array([label_idx[lab] for lab in log.diagnosis_code], dtype=np.int64)
    # one entry per encoded event: its case, its timestep and its table row
    rows = log.case_events(cases, limit=T)
    case_of = np.repeat(cases, n)
    step = rows - np.repeat(log.offsets[:-1], n)

    unknown = 0
    statics = np.zeros((M, len(STATIC_FEATURES)))
    for col, feat in enumerate(STATIC_CATEGORICAL):
        idx, unseen = _lookup(vocab, feat, getattr(log, feat))
        statics[:, col] = idx
        unknown += int(unseen.sum())
    for col, feat in enumerate(STATIC_NUMERIC, start=len(STATIC_CATEGORICAL)):
        values = np.array([float(v) for v in getattr(log, feat)])
        statics[:, col] = _scale(values, *stats[feat], clamp_zero=False)
    events = np.empty((len(rows), F))
    for col, feat in enumerate(DYNAMIC_CATEGORICAL):
        idx, unseen = _lookup(vocab, feat, log.tokens[feat])
        codes = log.codes[feat][rows]
        events[:, col] = idx[codes]
        unknown += int(unseen[codes].sum())
    events[:, len(DYNAMIC_CATEGORICAL)] = _scale(
        log.num_executions[rows], *stats["num_executions"], clamp_zero=True)
    events[:, len(DYNAMIC_FEATURES):] = statics[case_of]
    # padded timesteps keep statics at zero; masked out downstream
    X = np.zeros((M, T, F))
    X[case_of, step] = events
    vocab.unknown_tokens = unknown
    return SequenceDataset(X=X, mask=mask, Y=Y, T=T, label_names=label_names,
                           feature_names=feature_names, cat_sizes=cat_sizes,
                           case_ids=list(log.case_ids))


def encode_flat(log: EventTable, vocab: Vocabulary, L: int,
                split: "Split | None" = None) -> FlatDataset:
    """Concatenate the first ``L`` events positionally, then append statics.

    The dynamic block is position-major (all features of event 0, then event
    1, ...), padded with index 0 beyond the case length. Column names follow
    ``<feature>_<sequence_number>``.
    """
    if L < 1:
        raise ValueError("window length L must be >= 1")
    return flatten_sequences(encode_sequences(log, vocab, L, split))


def flatten_sequences(seq: SequenceDataset) -> FlatDataset:
    """The flat encoding of an already encoded tensor (see ``encode_flat``);
    its window is ``seq.T``."""
    L, n_dyn = seq.T, len(DYNAMIC_FEATURES)
    names = [f"{feat}_{t}" for t in range(L) for feat in DYNAMIC_FEATURES]
    names += list(STATIC_FEATURES)
    dyn = seq.X[:, :, :n_dyn].reshape(len(seq.X), L * n_dyn)
    statics = seq.X[:, 0, n_dyn:]
    X = np.concatenate([dyn, statics], axis=1)
    cat_flags = [f in DYNAMIC_CATEGORICAL for f in DYNAMIC_FEATURES] * L
    cat_flags += [f in STATIC_CATEGORICAL for f in STATIC_FEATURES]
    return FlatDataset(X=X, Y=seq.Y, feature_names=names, label_names=seq.label_names,
                       categorical=cat_flags, case_ids=seq.case_ids)
