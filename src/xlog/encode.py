"""Machine-learning representations of a cleaned event log.

Two encodings: a padded sequence tensor (cases x window x features) for the
recurrent networks and a positionally flattened matrix (cases x
features*window + statics) for classical learners. Index 0 is reserved for
padding/unknown tokens in every categorical vocabulary.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields, replace

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


def class_shuffles(Y, seed: int) -> list[np.ndarray]:
    """Each class's row indices in a random order, classes in sorted label
    order, every permutation drawn from one generator seeded with ``seed``."""
    Y = np.asarray(Y)
    rng = np.random.default_rng(seed)
    classes = [np.flatnonzero(Y == label) for label in np.unique(Y)]
    return [idx[rng.permutation(len(idx))] for idx in classes]


def stratified_split(Y, test_fraction: float, seed: int) -> Split:
    """Per-class shuffled split: the first round(size * test_fraction) rows of
    each class's shuffle, kept between 0 and size - 1, are the test rows."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must be in (0, 1)")
    Y = np.asarray(Y)
    is_test = np.zeros(len(Y), dtype=bool)
    for idx in class_shuffles(Y, seed):
        if len(idx) < 2:
            raise ValueError(f"class {Y[idx[0]]!r} has a single member; cannot split")
        n_test = int(np.floor(len(idx) * test_fraction + 0.5))
        is_test[idx[:min(n_test, len(idx) - 1)]] = True
    return Split(train_indices=np.flatnonzero(~is_test),
                 test_indices=np.flatnonzero(is_test))


class _Record:
    """A dataset's fields named in ``_arrays`` go to an XLG1 container; its
    names, case ids and then ``_extra`` keys to the manifest beside it."""

    def take(self, indices):
        """The rows ``indices`` of every array field and of ``case_ids``."""
        idx = np.asarray(indices)
        return replace(self, **{name: getattr(self, name)[idx] for name in self._arrays},
                       case_ids=[self.case_ids[i] for i in idx])

    def save(self, path, meta: dict | None = None) -> None:
        keys = ("label_names", "feature_names", "case_ids", *self._extra)
        container.save(path, {name: getattr(self, name) for name in self._arrays},
                       {key: getattr(self, key) for key in keys}, meta)

    @classmethod
    def load(cls, path):
        arrays, manifest = container.load(path)
        return cls(**{f.name: arrays[f.name] if f.name in cls._arrays else manifest[f.name]
                      for f in fields(cls)})


@dataclass
class SequenceDataset(_Record):
    X: np.ndarray            # (M, T, F) float64
    mask: np.ndarray         # (M, T) bool, true entries form a prefix
    Y: np.ndarray            # (M,) int64
    label_names: list[str]
    feature_names: list[str]
    cat_sizes: list[int]     # vocabulary size per feature, 0 for numeric
    case_ids: list[str]
    _arrays = ("X", "mask", "Y")
    _extra = ("cat_sizes", "T")

    @property
    def T(self) -> int:
        """The window length: events kept per case."""
        return self.X.shape[1]


@dataclass
class FlatDataset(_Record):
    X: np.ndarray            # (M, F*L + statics) float64
    Y: np.ndarray
    feature_names: list[str]
    label_names: list[str]
    categorical: list[bool]  # per column
    case_ids: list[str]
    _arrays = ("X", "Y")
    _extra = ("categorical",)


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

    statics = np.zeros((M, len(STATIC_FEATURES)))
    for col, feat in enumerate(STATIC_CATEGORICAL):
        statics[:, col] = [vocab.index(feat, tok) for tok in getattr(log, feat)]
    for col, feat in enumerate(STATIC_NUMERIC, start=len(STATIC_CATEGORICAL)):
        values = np.array([float(v) for v in getattr(log, feat)])
        statics[:, col] = _scale(values, *stats[feat], clamp_zero=False)
    events = np.empty((len(rows), F))
    for col, feat in enumerate(DYNAMIC_CATEGORICAL):
        idx = np.array([vocab.index(feat, tok) for tok in log.tokens[feat]], dtype=np.int64)
        events[:, col] = idx[log.codes[feat][rows]]
    events[:, len(DYNAMIC_CATEGORICAL)] = _scale(
        log.num_executions[rows], *stats["num_executions"], clamp_zero=True)
    events[:, len(DYNAMIC_FEATURES):] = statics[case_of]
    # padded timesteps keep statics at zero; masked out downstream
    X = np.zeros((M, T, F))
    X[case_of, step] = events
    return SequenceDataset(X=X, mask=mask, Y=Y, label_names=label_names,
                           feature_names=feature_names, cat_sizes=cat_sizes,
                           case_ids=list(log.case_ids))


def encode_flat(seq: SequenceDataset) -> FlatDataset:
    """The flat encoding of an encoded tensor: the first ``seq.T`` events
    concatenated positionally, then the statics.

    The dynamic block is position-major (all features of event 0, then event
    1, ...), padded with index 0 beyond the case length. Column names follow
    ``<feature>_<sequence_number>``.
    """
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
