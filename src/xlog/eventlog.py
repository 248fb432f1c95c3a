"""Case-centric event log ingestion, cleaning and summary statistics.

A log is a set of cases (one per patient / process instance); each case is an
ordered sequence of timestamped activity events plus static attributes. Input
is a flat CSV with one event per row and static attributes repeated per row.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

import numpy as np

SECONDS_PER_YEAR = 365.25 * 24 * 3600

#: dynamic (per-event) fields, in canonical encoding order
DYNAMIC_CATEGORICAL = ("activity", "department", "activity_code", "producer_code", "section")
DYNAMIC_NUMERIC = ("num_executions",)
#: static (per-case) fields
STATIC_CATEGORICAL = ("treatment_code", "combination_id")
STATIC_NUMERIC = ("age", "years_in_treatment")


class SchemaError(Exception):
    pass


class EmptyLogError(Exception):
    pass


class CannotImputeError(Exception):
    pass


@dataclass(frozen=True)
class Event:
    activity: str
    timestamp: float  # UTC epoch seconds
    department: str = ""
    num_executions: int = 1
    activity_code: str = ""
    producer_code: str = ""
    section: str = ""


@dataclass
class Case:
    case_id: str
    events: list[Event]
    age: int = 0
    diagnosis_code: str | None = None
    treatment_code: str = ""
    combination_id: str = ""
    years_in_treatment: float = 0.0


@dataclass
class EventLog:
    cases: list[Case]
    #: fields whose values were collapsed from spread/repeated columns at parse time
    spread_features: list[str] = field(default_factory=list)
    #: parse-time issue counts (unparseable rows/timestamps), never silently dropped
    issues: dict[str, int] = field(default_factory=dict)

    @property
    def class_counts(self) -> dict[str, int]:
        counts = Counter(c.diagnosis_code for c in self.cases if c.diagnosis_code is not None)
        return dict(sorted(counts.items()))

    def n_events(self) -> int:
        return sum(len(c.events) for c in self.cases)


@dataclass
class CleaningReport:
    imputed_labels: int = 0
    dropped_cases: int = 0
    collapsed_features: list[str] = field(default_factory=list)
    kept_classes: set[str] = field(default_factory=set)
    dropped_classes: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "imputed_labels": self.imputed_labels,
                "dropped_cases": self.dropped_cases,
                "collapsed_features": list(self.collapsed_features),
                "kept_classes": sorted(self.kept_classes),
                "dropped_classes": dict(sorted(self.dropped_classes.items())),
            },
            indent=2,
        )


def _parse_timestamp(raw: str) -> float:
    """ISO-8601 or ``YYYY-MM-DD HH:MM:SS`` to UTC epoch seconds."""
    raw = raw.strip()
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _columns(spec) -> list[str]:
    return [spec] if isinstance(spec, str) else list(spec)


def parse_log(path, schema: dict) -> EventLog:
    """Parse a one-event-per-row CSV into an EventLog.

    ``schema`` maps canonical field names (``case_id``, ``activity``,
    ``timestamp`` mandatory; ``department``, ``num_executions``,
    ``activity_code``, ``producer_code``, ``section``, ``age``,
    ``diagnosis_code``, ``treatment_code``, ``combination_id`` optional) to CSV
    column names. A static field may map to a list of columns (spread
    attributes); the last non-empty value wins and the field is recorded as
    collapsed. Events are sorted by timestamp within each case. Rows that
    cannot be parsed are counted in ``log.issues`` rather than silently lost.
    """
    for key in ("case_id", "activity", "timestamp"):
        if key not in schema:
            raise SchemaError(f"schema is missing mandatory field {key!r}")
    with open(path, newline="", encoding="utf-8") as fh:
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
    cases: dict[str, dict] = {}
    bad_rows = 0
    bad_timestamps = 0
    # a static field read from several columns is spread whenever any row parses
    spread: set[str] = {f for f, cols in static_cols.items() if len(cols) > 1}

    for row in rows:
        case_id = (row.get(case_col) or "").strip()
        activity = (row.get(activity_col) or "").strip()
        if not case_id or not activity:
            bad_rows += 1
            continue
        try:
            ts = _parse_timestamp(row[timestamp_col])
        except (ValueError, KeyError, TypeError):
            bad_timestamps += 1
            continue
        slot = cases.setdefault(case_id, {"events": [], "static": {}})
        kwargs = {f: (row.get(col) or "").strip() for f, col in event_cols.items()}
        n_exec = 1
        if exec_col is not None:
            try:
                n_exec = max(1, int(float(row[exec_col])))
            except (ValueError, TypeError, KeyError):
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
                age = max(0, int(float(st["age"])))
            except ValueError:
                age = 0
        out.append(
            Case(
                case_id=case_id,
                events=sorted(slot["events"], key=lambda e: e.timestamp),
                age=age,
                diagnosis_code=st.get("diagnosis_code"),
                treatment_code=st.get("treatment_code", ""),
                combination_id=st.get("combination_id", ""),
            )
        )
    issues = {}
    if bad_rows:
        issues["unparseable_rows"] = bad_rows
    if bad_timestamps:
        issues["unparseable_timestamps"] = bad_timestamps
    return EventLog(cases=out, spread_features=sorted(spread), issues=issues)


def _derive_years(case: Case) -> Case:
    span = case.events[-1].timestamp - case.events[0].timestamp
    return replace(case, years_in_treatment=span / SECONDS_PER_YEAR)


#: unlabelled cases scored together during label imputation; peak memory is a
#: few (IMPUTE_BLOCK x labelled cases) arrays
IMPUTE_BLOCK = 128


def _signature(case: Case) -> list:
    """Activities plus a ``("treatment", code)`` token; the tuple keeps an
    activity literally named "treatment" a separate token."""
    tokens: list = [e.activity for e in case.events]
    if case.treatment_code:
        tokens.append(("treatment", case.treatment_code))
    return tokens


def _count_matrix(signatures: list[list], columns: dict) -> np.ndarray:
    """int64 (signatures x columns) token counts; tokens without a column are
    left out."""
    rows, cols = [], []
    for i, sig in enumerate(signatures):
        for tok in sig:
            j = columns.get(tok)
            if j is not None:
                rows.append(i)
                cols.append(j)
    V = len(columns)
    flat = np.asarray(rows, dtype=np.int64) * V + np.asarray(cols, dtype=np.int64)
    counts = np.bincount(flat, minlength=len(signatures) * V)
    return counts.astype(np.int64, copy=False).reshape(len(signatures), V)


def _impute_labels(labeled: list[Case], unlabeled: list[Case]) -> list[str | None]:
    """Label of the most similar labelled case for each unlabelled case, or
    None when every similarity is 0 (see ``clean_log``)."""
    if not unlabeled:
        return []
    label_counts = Counter(c.diagnosis_code for c in labeled)
    classes = sorted(label_counts, key=lambda lab: (-label_counts[lab], lab))
    rank = {lab: k for k, lab in enumerate(classes)}
    # labelled cases grouped by class in tie-break order, so that each class
    # is one contiguous run of similarity columns
    labeled = sorted(labeled, key=lambda c: rank[c.diagnosis_code])
    starts = np.cumsum([0] + [label_counts[lab] for lab in classes[:-1]])
    a_sigs = [_signature(c) for c in labeled]
    columns: dict = {}
    for sig in a_sigs:
        for tok in sig:
            columns.setdefault(tok, len(columns))
    A = np.ascontiguousarray(_count_matrix(a_sigs, columns).T)  # (V, labelled)
    a_size = np.array([len(sig) for sig in a_sigs], dtype=np.int64)

    out: list[str | None] = []
    for lo in range(0, len(unlabeled), IMPUTE_BLOCK):
        b_sigs = [_signature(c) for c in unlabeled[lo:lo + IMPUTE_BLOCK]]
        B = _count_matrix(b_sigs, columns)
        b_size = np.array([len(sig) for sig in b_sigs], dtype=np.int64)
        inter = np.zeros((len(b_sigs), len(labeled)), dtype=np.int64)
        tmp = np.empty_like(inter)
        for v in np.flatnonzero(B.any(axis=0)):
            np.minimum(B[:, v, None], A[v], out=tmp)
            inter += tmp
        union = b_size[:, None] + a_size[None, :] - inter
        sim = np.zeros(inter.shape)
        np.divide(inter, union, out=sim, where=union > 0)
        class_max = np.maximum.reduceat(sim, starts, axis=1)
        row_max = class_max.max(axis=1)
        pick = np.argmax(class_max == row_max[:, None], axis=1)
        out += [classes[k] if m > 0.0 else None for k, m in zip(pick, row_max)]
    return out


def clean_log(log: EventLog, min_class_count: int) -> tuple[EventLog, CleaningReport]:
    """Impute missing labels, derive treatment years, filter rare classes.

    Unlabeled cases inherit the label of the most similar labeled case. A
    case's signature is the multiset of its activities plus one
    ``("treatment", code)`` token when it has a treatment code, and the
    similarity of two signatures a and b is their multiset Jaccard overlap
    ``inter / (|a| + |b| - inter)`` with ``inter = sum_v min(a_v, b_v)``
    (0 when both are empty). Counts and sums are exact int64, and the one
    int -> float64 division rounds exactly as Python's ``int / int``.
    Ties in the best similarity go to the class with more labeled cases,
    then to the lexicographically smaller label. Unlabeled cases with zero
    similarity to every labeled case are dropped. Classes with fewer than
    ``min_class_count`` cases are removed and recorded in the report.
    """
    if min_class_count < 1:
        raise ValueError("min_class_count must be >= 1")
    labeled = [c for c in log.cases if c.diagnosis_code is not None]
    if not labeled:
        raise CannotImputeError("every case is unlabeled; nothing to impute from")
    unlabeled = [c for c in log.cases if c.diagnosis_code is None]
    imputed = iter(_impute_labels(labeled, unlabeled))

    report = CleaningReport(collapsed_features=list(log.spread_features))
    cleaned: list[Case] = []
    for case in log.cases:
        if case.diagnosis_code is not None:
            cleaned.append(_derive_years(case))
            continue
        label = next(imputed)
        if label is None:
            report.dropped_cases += 1
            continue
        report.imputed_labels += 1
        cleaned.append(_derive_years(replace(case, diagnosis_code=label)))

    counts = Counter(c.diagnosis_code for c in cleaned)
    report.kept_classes = {lab for lab, n in counts.items() if n >= min_class_count}
    report.dropped_classes = {
        lab: n for lab, n in sorted(counts.items()) if n < min_class_count
    }
    kept = [c for c in cleaned if c.diagnosis_code in report.kept_classes]
    return EventLog(cases=kept, spread_features=[], issues=dict(log.issues)), report


@dataclass
class CorrelationResult:
    features: list[str]
    matrix: np.ndarray
    zero_variance: list[str]


def _feature_rows(log: EventLog, features: list[str]) -> np.ndarray:
    """One row per event; categoricals encoded by frequency rank (1 = most common)."""
    cat_fields = set(DYNAMIC_CATEGORICAL) | set(STATIC_CATEGORICAL) | {"diagnosis_code"}
    columns = []
    for feat in features:
        vals = []
        for case in log.cases:
            for ev in case.events:
                if feat in ("age", "years_in_treatment", "diagnosis_code",
                            "treatment_code", "combination_id"):
                    vals.append(getattr(case, feat))
                else:
                    vals.append(getattr(ev, feat))
        if feat in cat_fields:
            freq = Counter(v if v is not None else "" for v in vals)
            order = sorted(freq.items(), key=lambda kv: (-kv[1], str(kv[0])))
            rank = {tok: i + 1 for i, (tok, _) in enumerate(order)}
            columns.append([float(rank[v if v is not None else ""]) for v in vals])
        else:
            columns.append([float(v) for v in vals])
    return np.asarray(columns, dtype=float).T


def correlation_matrix(log: EventLog, features: list[str]) -> CorrelationResult:
    """Pearson correlation over event rows; unit diagonal, symmetric.

    Zero-variance features get zero off-diagonal entries and are flagged.
    """
    if len(log.cases) < 2:
        raise ValueError("need at least 2 cases")
    X = _feature_rows(log, features)
    n, f = X.shape
    X = X - X.mean(axis=0)
    sd = X.std(axis=0)
    flat = [features[j] for j in range(f) if sd[j] == 0.0]
    safe = np.where(sd == 0.0, 1.0, sd)
    Z = X / safe
    M = (Z.T @ Z) / n
    for j in range(f):
        if sd[j] == 0.0:
            M[j, :] = 0.0
            M[:, j] = 0.0
    M = (M + M.T) / 2.0
    np.fill_diagonal(M, 1.0)
    np.clip(M, -1.0, 1.0, out=M)
    return CorrelationResult(features=list(features), matrix=M, zero_variance=flat)
