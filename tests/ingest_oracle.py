"""Object-walking reference implementations of the ingest stages.

Each function walks ``Case``/``Event`` objects one attribute at a time, as
xlog's ingest did before it became columnar. The tests compare the columnar
``parse_log``, ``clean_log``, ``build_vocab`` and ``encode_sequences`` with
them on the same inputs.
"""

import csv
import math
from collections import Counter
from dataclasses import replace

import numpy as np

from xlog import eventlog
from xlog.encode import (
    DYNAMIC_FEATURES, STATIC_FEATURES, SequenceDataset, Vocabulary,
)
from xlog.eventlog import (
    DYNAMIC_CATEGORICAL, STATIC_CATEGORICAL, STATIC_NUMERIC,
    Case, EmptyLogError, Event, EventLog, SchemaError, _columns, _parse_timestamp,
)


def _whole(raw, low):
    value = float(raw)
    return max(low, int(value)) if math.isfinite(value) else low


def parse_log(path, schema):
    """One ``DictReader`` pass, one frozen ``Event`` per row and statics
    collected per case; returns an ``EventLog``."""
    for key in ("case_id", "activity", "timestamp"):
        if key not in schema:
            raise SchemaError(f"schema is missing mandatory field {key!r}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    header = reader.fieldnames or []
    for key, spec in schema.items():
        for col in _columns(spec):
            if col not in header:
                raise SchemaError(f"column {col!r} (field {key!r}) not in CSV header")
    rows = list(reader)

    statics = ("age", "diagnosis_code", "treatment_code", "combination_id")
    event_fields = ("department", "activity_code", "producer_code", "section")
    case_col = _columns(schema["case_id"])[0]
    activity_col = _columns(schema["activity"])[0]
    timestamp_col = _columns(schema["timestamp"])[0]
    event_cols = {f: _columns(schema[f])[0] for f in event_fields if f in schema}
    exec_col = _columns(schema["num_executions"])[0] if "num_executions" in schema else None
    static_cols = {f: _columns(schema[f]) for f in statics if f in schema}
    cases = {}
    bad_rows = 0
    bad_timestamps = 0
    spread = {f for f, cols in static_cols.items() if len(cols) > 1}

    for row in rows:
        case_id = (row.get(case_col) or "").strip()
        activity = (row.get(activity_col) or "").strip()
        if not case_id or not activity:
            bad_rows += 1
            continue
        try:
            ts = _parse_timestamp(row.get(timestamp_col) or "")
        except (ValueError, OverflowError):
            bad_timestamps += 1
            continue
        slot = cases.setdefault(case_id, {"events": [], "static": {}})
        kwargs = {f: (row.get(col) or "").strip() for f, col in event_cols.items()}
        n_exec = 1
        if exec_col is not None:
            try:
                n_exec = _whole(row.get(exec_col), 1)
            except (ValueError, TypeError):
                n_exec = 1
        slot["events"].append(Event(activity=activity, timestamp=ts,
                                    num_executions=n_exec, **kwargs))
        for f, cols in static_cols.items():
            for col in cols:
                val = (row.get(col) or "").strip()
                if val:
                    prev = slot["static"].get(f)
                    if prev is not None and prev != val:
                        spread.add(f)
                    slot["static"][f] = val

    if not cases:
        raise EmptyLogError(f"{path}: no parseable event rows")

    out = []
    for case_id, slot in cases.items():
        st = slot["static"]
        age = 0
        if "age" in st:
            try:
                age = _whole(st["age"], 0)
            except ValueError:
                age = 0
        out.append(Case(case_id=case_id,
                        events=sorted(slot["events"], key=lambda e: e.timestamp),
                        age=age, diagnosis_code=st.get("diagnosis_code"),
                        treatment_code=st.get("treatment_code", ""),
                        combination_id=st.get("combination_id", "")))
    issues = {}
    if bad_rows:
        issues["unparseable_rows"] = bad_rows
    if bad_timestamps:
        issues["unparseable_timestamps"] = bad_timestamps
    return EventLog(cases=out, spread_features=sorted(spread), issues=issues)


def derive_years(case):
    span = case.events[-1].timestamp - case.events[0].timestamp
    return replace(case, years_in_treatment=span / eventlog.SECONDS_PER_YEAR)


class _neg_lex(str):
    """Orders lexicographically smaller strings as larger, for max() tie-breaks."""

    def __lt__(self, other):
        return str.__gt__(self, other)

    def __gt__(self, other):
        return str.__lt__(self, other)


def _jaccard(a: Counter, b: Counter) -> float:
    """Multiset Jaccard: sum of min counts over sum of max counts."""
    keys = set(a) | set(b)
    inter = sum(min(a[k], b[k]) for k in keys)
    union = sum(max(a[k], b[k]) for k in keys)
    return inter / union if union else 0.0


def oracle_impute(log):
    """Reference imputation: a Python loop over Counter signatures.

    Returns (case_id -> imputed label or None, tie kinds seen), where a tie
    kind records whether classes tied at the best similarity had equal or
    unequal sizes.
    """
    labeled = [c for c in log.cases if c.diagnosis_code is not None]
    label_counts = Counter(c.diagnosis_code for c in labeled)

    def signature(case):
        sig = Counter(e.activity for e in case.events)
        if case.treatment_code:
            sig[("treatment", case.treatment_code)] += 1
        return sig

    labeled_sigs = [(c, signature(c)) for c in labeled]
    labels, ties = {}, Counter()
    for case in log.cases:
        if case.diagnosis_code is not None:
            continue
        sig = signature(case)
        best = None  # (similarity, class size, label)
        tied = {}
        for other, other_sig in labeled_sigs:
            sim = _jaccard(sig, other_sig)
            if sim <= 0.0:
                continue
            key = (sim, label_counts[other.diagnosis_code], _neg_lex(other.diagnosis_code))
            if best is None or key > best[0]:
                best = (key, other.diagnosis_code)
            tied.setdefault(sim, set()).add(other.diagnosis_code)
        labels[case.case_id] = None if best is None else best[1]
        top = tied.get(best[0][0], set()) if best else set()
        if len(top) > 1:
            sizes = {label_counts[lab] for lab in top}
            ties["equal" if len(sizes) < len(top) else "unequal"] += 1
    return labels, ties


def oracle_clean_log(log, min_class_count):
    """``clean_log`` with its imputation done by ``oracle_impute``; also
    returns the tie kinds seen."""
    labels, ties = oracle_impute(log)
    report = eventlog.CleaningReport(collapsed_features=list(log.spread_features))
    cleaned = []
    for case in log.cases:
        if case.diagnosis_code is None:
            label = labels[case.case_id]
            if label is None:
                report.dropped_cases += 1
                continue
            report.imputed_labels += 1
            case = replace(case, diagnosis_code=label)
        cleaned.append(derive_years(case))
    counts = Counter(c.diagnosis_code for c in cleaned)
    report.kept_classes = {lab for lab, n in counts.items() if n >= min_class_count}
    report.dropped_classes = {lab: n for lab, n in sorted(counts.items())
                              if n < min_class_count}
    return [c for c in cleaned if c.diagnosis_code in report.kept_classes], report, ties


def build_vocab(log, categorical_features):
    maps = {}
    for feat in categorical_features:
        freq = Counter()
        if feat in STATIC_CATEGORICAL:
            for case in log.cases:
                tok = getattr(case, feat)
                if tok:
                    freq[tok] += 1
        else:
            for case in log.cases:
                for ev in case.events:
                    tok = getattr(ev, feat)
                    if tok:
                        freq[tok] += 1
        order = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
        maps[feat] = {tok: i + 1 for i, (tok, _) in enumerate(order)}
    return Vocabulary(maps=maps)


def _scale(value, lo, hi, clamp_zero):
    if hi == lo:
        return 0.0
    v = (value - lo) / (hi - lo)
    if clamp_zero and v < 0.0:
        v = 0.0
    return v


def _numeric_stats(log, split):
    cases = log.cases
    if split is not None:
        cases = [log.cases[i] for i in split.train_indices]
    stats = {}
    execs = [ev.num_executions for c in cases for ev in c.events]
    stats["num_executions"] = (float(min(execs)), float(max(execs)))
    for feat in STATIC_NUMERIC:
        vals = [float(getattr(c, feat)) for c in cases]
        stats[feat] = (float(min(vals)), float(max(vals)))
    return stats


def encode_sequences(log, vocab, T, split=None):
    """One Python pass per case and event; sets ``vocab.unknown_tokens``."""
    label_names = sorted({c.diagnosis_code for c in log.cases if c.diagnosis_code is not None})
    label_idx = {lab: i for i, lab in enumerate(label_names)}
    stats = _numeric_stats(log, split)
    feature_names = list(DYNAMIC_FEATURES) + list(STATIC_FEATURES)
    cat_sizes = [vocab.size(f) if f in DYNAMIC_CATEGORICAL + STATIC_CATEGORICAL else 0
                 for f in feature_names]
    M, F = len(log.cases), len(feature_names)
    X = np.zeros((M, T, F))
    mask = np.zeros((M, T), dtype=bool)
    Y = np.zeros(M, dtype=np.int64)
    unknown = 0
    for m, case in enumerate(log.cases):
        Y[m] = label_idx[case.diagnosis_code]
        n = min(len(case.events), T)
        mask[m, :n] = True
        statics = []
        for feat in STATIC_CATEGORICAL:
            idx = vocab.index(feat, getattr(case, feat))
            if idx == 0 and getattr(case, feat):
                unknown += 1
            statics.append(float(idx))
        statics.append(_scale(float(case.age), *stats["age"], clamp_zero=False))
        statics.append(_scale(case.years_in_treatment, *stats["years_in_treatment"],
                              clamp_zero=False))
        for t in range(n):
            ev = case.events[t]
            col = 0
            for feat in DYNAMIC_CATEGORICAL:
                idx = vocab.index(feat, getattr(ev, feat))
                if idx == 0 and getattr(ev, feat):
                    unknown += 1
                X[m, t, col] = float(idx)
                col += 1
            X[m, t, col] = _scale(float(ev.num_executions), *stats["num_executions"],
                                  clamp_zero=True)
            col += 1
            X[m, t, col:] = statics
    vocab.unknown_tokens = unknown
    return SequenceDataset(X=X, mask=mask, Y=Y, T=T, label_names=label_names,
                           feature_names=feature_names, cat_sizes=cat_sizes,
                           case_ids=[c.case_id for c in log.cases])
