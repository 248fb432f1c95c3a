"""Case-centric event log ingestion, cleaning and summary statistics.

A log is a set of cases (one per patient / process instance); each case is an
ordered sequence of timestamped activity events plus static attributes. Input
is a flat CSV with one event per row and static attributes repeated per row.

``parse_log`` reads the CSV into an ``EventTable``: per-event columns in case
order plus per-case attributes. Every stage takes such a table.

``EventLog``/``Case``/``Event`` are an object form that no stage reads. It
stays for the benchmark: ``synth.generate_synthetic`` returns an
``EventLog`` because ``perfbench/workloads.py`` blanks labels by assigning to
``log.cases[i]`` before ``log_to_csv`` writes it, and ``EventTable.cases`` is
a read-only view in that form because ``perfbench/tracing.py`` counts the
labelled cases of ``clean_log``'s input through it.
"""

from __future__ import annotations

import csv
import functools
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from itertools import chain
from operator import itemgetter

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


def _codes(values) -> tuple[np.ndarray, list]:
    """int64 code of each value into the distinct values in first-seen order."""
    tokens = list(dict.fromkeys(values))
    index = {tok: i for i, tok in enumerate(tokens)}
    return np.fromiter(map(index.__getitem__, values), np.int64, len(values)), tokens


@dataclass(eq=False)
class EventTable:
    """An event log as columns.

    Case ``i`` owns the event rows ``offsets[i]:offsets[i + 1]``. Each
    categorical event field is an int64 code per event into its ``tokens``
    list; per-case attributes are lists or arrays in case order. A table is
    not modified after it is built.
    """

    case_ids: list[str]
    offsets: np.ndarray            # int64 (cases + 1,)
    codes: dict[str, np.ndarray]   # DYNAMIC_CATEGORICAL field -> int64 per event
    tokens: dict[str, list[str]]   # DYNAMIC_CATEGORICAL field -> distinct values
    timestamp: np.ndarray          # float64 per event, UTC epoch seconds
    num_executions: np.ndarray     # float64 per event; whole numbers, so values past int64 stay exact
    age: list[int]
    diagnosis_code: list[str | None]
    treatment_code: list[str]
    combination_id: list[str]
    years_in_treatment: np.ndarray  # float64 per case
    spread_features: list[str] = field(default_factory=list)
    issues: dict[str, int] = field(default_factory=dict)

    @functools.cached_property
    def cases(self) -> tuple[Case, ...]:
        """The table as ``Case``/``Event`` objects, built on first access.
        Edits to them do not reach the table."""
        cols = [[self.tokens[f][c] for c in self.codes[f].tolist()] for f in DYNAMIC_CATEGORICAL]
        events = [Event(activity=act, timestamp=ts, department=dep, num_executions=int(n),
                        activity_code=code, producer_code=prod, section=sec)
                  for act, dep, code, prod, sec, ts, n in zip(
                      *cols, self.timestamp.tolist(), self.num_executions.tolist())]
        bounds = self.offsets.tolist()
        return tuple(
            Case(case_id=cid, events=events[lo:hi], age=age, diagnosis_code=diag,
                 treatment_code=treat, combination_id=comb, years_in_treatment=years)
            for cid, lo, hi, age, diag, treat, comb, years in zip(
                self.case_ids, bounds, bounds[1:], self.age, self.diagnosis_code,
                self.treatment_code, self.combination_id, self.years_in_treatment.tolist()))

    @property
    def class_counts(self) -> dict[str, int]:
        counts = Counter(lab for lab in self.diagnosis_code if lab is not None)
        return dict(sorted(counts.items()))

    def n_events(self) -> int:
        return int(self.offsets[-1])

    def case_events(self, cases: np.ndarray, limit: int | None = None) -> np.ndarray:
        """Event rows of ``cases`` in order, at most the first ``limit`` of each."""
        starts = self.offsets[cases]
        counts = self.offsets[cases + 1] - starts
        if limit is not None:
            counts = np.minimum(counts, limit)
        ends = np.cumsum(counts)
        return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)

    def take(self, cases) -> "EventTable":
        """The table of ``cases`` (case indices), in that order."""
        cases = np.asarray(cases, dtype=np.int64)
        rows = self.case_events(cases)
        lengths = self.offsets[cases + 1] - self.offsets[cases]
        pick = cases.tolist()
        return replace(
            self, case_ids=[self.case_ids[i] for i in pick],
            offsets=np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
            codes={f: c[rows] for f, c in self.codes.items()},
            timestamp=self.timestamp[rows], num_executions=self.num_executions[rows],
            age=[self.age[i] for i in pick],
            diagnosis_code=[self.diagnosis_code[i] for i in pick],
            treatment_code=[self.treatment_code[i] for i in pick],
            combination_id=[self.combination_id[i] for i in pick],
            years_in_treatment=self.years_in_treatment[cases])


@dataclass
class CleaningReport:
    imputed_labels: int = 0
    dropped_cases: int = 0
    collapsed_features: list[str] = field(default_factory=list)
    kept_classes: set[str] = field(default_factory=set)
    dropped_classes: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "imputed_labels": self.imputed_labels,
            "dropped_cases": self.dropped_cases,
            "collapsed_features": list(self.collapsed_features),
            "kept_classes": sorted(self.kept_classes),
            "dropped_classes": dict(sorted(self.dropped_classes.items())),
        }


def _parse_timestamp(raw: str) -> float:
    """ISO-8601 or ``YYYY-MM-DD HH:MM:SS`` to UTC epoch seconds."""
    raw = raw.strip()
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


#: positions of the digits in ``YYYY-MM-DD HH:MM:SS``
_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]


def _canonical_seconds(stripped: list[str]) -> np.ndarray | None:
    """Epoch seconds of ``YYYY-MM-DD[ T]HH:MM:SS`` strings parsed by numpy, or
    None unless every string has that shape and is a valid date-time.
    numpy accepts year 0000, which ``fromisoformat`` rejects, so it is left to
    ``_parse_timestamp``; whole seconds convert to float64 exactly as
    ``datetime.timestamp`` does."""
    text = np.array(stripped)
    if text.dtype.kind != "U" or text.dtype.itemsize != 19 * 4:
        return None
    cp = text.view(np.uint32).reshape(len(stripped), 19)
    digits = cp[:, _DIGITS]
    if not (((digits >= 48) & (digits <= 57)).all()
            and (cp[:, [4, 7]] == 45).all() and (cp[:, [13, 16]] == 58).all()
            and ((cp[:, 10] == 32) | (cp[:, 10] == 84)).all()
            and (cp[:, :4] != 48).any(axis=1).all()):
        return None
    try:
        seconds = text.astype("datetime64[s]")
    except ValueError:  # a day, hour, minute or second out of range
        return None
    return seconds.astype(np.int64).astype(np.float64)


def _timestamps(raw: list[str]) -> np.ndarray:
    """UTC epoch seconds of each string; NaN where ``_parse_timestamp`` fails."""
    stripped = list(map(str.strip, raw))
    fast = _canonical_seconds(stripped)
    if fast is not None:
        return fast
    out = np.empty(len(stripped))
    for i, text in enumerate(stripped):
        try:
            out[i] = _parse_timestamp(text)
        except (ValueError, OverflowError):
            out[i] = np.nan
    return out


def _whole(raw: str | None, low: int) -> int:
    """``max(low, int(float(raw)))``, or ``low`` unless ``raw`` is a finite number."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        return low
    return max(low, int(value)) if math.isfinite(value) else low


def _stripped_codes(values) -> tuple[np.ndarray, list[str]]:
    """``_codes`` of the stripped values; each distinct value is stripped once."""
    raw_codes, raw_tokens = _codes(values)
    remap, tokens = _codes([tok.strip() for tok in raw_tokens])
    return remap[raw_codes], tokens


def _filled(codes: np.ndarray, tokens: list[str]) -> np.ndarray:
    return codes != tokens.index("") if "" in tokens else np.ones(len(codes), dtype=bool)


def _collapse(codes: np.ndarray, tokens: list[str], owner: np.ndarray, n_cases: int):
    """Per case, the last non-empty token in row-major order of the (rows x
    columns) ``codes``, or None; and whether some case has two distinct
    non-empty tokens. ``owner`` is the case of each row."""
    owner = np.repeat(owner, codes.shape[1])
    codes = codes.ravel()
    filled = _filled(codes, tokens)
    codes, owner = codes[filled], owner[filled]
    seen, first = np.unique(owner[::-1], return_index=True)
    last = np.full(n_cases, -1, dtype=np.int64)
    last[seen] = codes[::-1][first]
    pairs = np.unique(owner * len(tokens) + codes)
    spread = bool((np.bincount(pairs // len(tokens)) > 1).any())
    return [tokens[c] if c >= 0 else None for c in last.tolist()], spread


def _columns(spec) -> list[str]:
    return [spec] if isinstance(spec, str) else list(spec)


def parse_log(path, schema: dict) -> EventTable:
    """Parse a one-event-per-row CSV into an EventTable.

    ``schema`` maps canonical field names (``case_id``, ``activity``,
    ``timestamp`` mandatory; ``department``, ``num_executions``,
    ``activity_code``, ``producer_code``, ``section``, ``age``,
    ``diagnosis_code``, ``treatment_code``, ``combination_id`` optional) to CSV
    column names. A static field may map to a list of columns (spread
    attributes); the last non-empty value wins and the field is recorded as
    collapsed. Events are sorted by timestamp within each case (ties keep file
    order) and cases keep the order they are first seen in. Lines starting
    with ``#`` and blank rows are skipped, a UTF-8 byte-order mark is
    accepted, a header name given twice means its last column, and a row
    shorter than the header reads its missing fields as empty. Rows without
    a case id or activity, and rows whose timestamp does not parse, are
    counted in ``log.issues`` rather than silently lost. A
    ``num_executions`` that is not a finite number reads as 1, an ``age``
    as 0.
    """
    for key in ("case_id", "activity", "timestamp"):
        if key not in schema:
            raise SchemaError(f"schema is missing mandatory field {key!r}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(ln for ln in fh if not ln.startswith("#"))
        header = next(reader, [])
        rows = [row for row in reader if row]
    index = {name: i for i, name in enumerate(header)}
    for key, spec in schema.items():
        for col in _columns(spec):
            if col not in index:
                raise SchemaError(f"column {col!r} (field {key!r}) not in CSV header")
    width = 1 + max(index[col] for spec in schema.values() for col in _columns(spec))
    if min(map(len, rows), default=width) < width:
        rows = [row + [""] * (width - len(row)) for row in rows]

    def raw(col):
        return list(map(itemgetter(index[col]), rows))

    def column(key):
        return _stripped_codes(raw(_columns(schema[key])[0]))

    case_codes, case_tokens = column("case_id")
    act_codes, act_tokens = column("activity")
    candidates = np.flatnonzero(_filled(case_codes, case_tokens) & _filled(act_codes, act_tokens))
    ts_raw = raw(_columns(schema["timestamp"])[0])
    ts = _timestamps([ts_raw[i] for i in candidates.tolist()])
    parsed = ~np.isnan(ts)
    keep, ts = candidates[parsed], ts[parsed]
    if not len(keep):
        raise EmptyLogError(f"{path}: no parseable event rows")

    # cases in first-seen order among the rows kept
    kept_cases = case_codes[keep]
    seen, first = np.unique(kept_cases, return_index=True)
    order_seen = seen[np.argsort(first)]
    case_of = np.empty(len(case_tokens), dtype=np.int64)
    case_of[order_seen] = np.arange(len(order_seen))
    owner = case_of[kept_cases]
    n_cases = len(order_seen)
    by_case = np.lexsort((ts, owner))
    events = keep[by_case]

    codes, tokens = {"activity": act_codes[events]}, {"activity": act_tokens}
    for f in DYNAMIC_CATEGORICAL[1:]:
        if f in schema:
            col_codes, tokens[f] = column(f)
            codes[f] = col_codes[events]
        else:
            codes[f], tokens[f] = np.zeros(len(events), dtype=np.int64), [""]
    n_exec = np.ones(len(events))
    if "num_executions" in schema:
        # float() ignores the whitespace that stripping removes
        exec_codes, exec_tokens = column("num_executions")
        n_exec = np.array([float(_whole(tok, 1)) for tok in exec_tokens])[exec_codes[events]]

    statics, spread = {}, set()
    for f in ("age", "diagnosis_code", "treatment_code", "combination_id"):
        if f not in schema:
            statics[f] = [None] * n_cases
            continue
        cols = _columns(schema[f])
        static_codes, static_tokens = _stripped_codes(
            list(chain.from_iterable(raw(col) for col in cols)))
        static_codes = static_codes.reshape(len(cols), len(rows)).T[keep]
        statics[f], mixed = _collapse(static_codes, static_tokens, owner, n_cases)
        if mixed or len(cols) > 1:
            spread.add(f)

    issues = {}
    if len(rows) - len(candidates):
        issues["unparseable_rows"] = len(rows) - len(candidates)
    if len(candidates) - len(keep):
        issues["unparseable_timestamps"] = len(candidates) - len(keep)
    return EventTable(
        case_ids=[case_tokens[c] for c in order_seen.tolist()],
        offsets=np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=n_cases)))),
        codes=codes, tokens=tokens, timestamp=ts[by_case],
        num_executions=n_exec, age=[_whole(a, 0) for a in statics["age"]],
        diagnosis_code=statics["diagnosis_code"],
        treatment_code=[v or "" for v in statics["treatment_code"]],
        combination_id=[v or "" for v in statics["combination_id"]],
        years_in_treatment=np.zeros(n_cases),
        spread_features=sorted(spread), issues=issues)


#: unlabelled cases scored together during label imputation; peak memory is a
#: few (IMPUTE_BLOCK x labelled cases) arrays
IMPUTE_BLOCK = 128


def _signatures(t: EventTable, cases: np.ndarray, treatment: np.ndarray):
    """Signature tokens of ``cases`` as (signature row, token) pairs, plus each
    signature's size. Tokens are activity codes, then ``n_activities + k`` for
    a case whose treatment has index ``k`` (-1: no treatment code), so an
    activity named like a treatment stays a separate token."""
    lengths = t.offsets[cases + 1] - t.offsets[cases]
    with_treatment = treatment[cases] >= 0
    rows = np.concatenate([np.repeat(np.arange(len(cases)), lengths),
                           np.flatnonzero(with_treatment)])
    tokens = np.concatenate([t.codes["activity"][t.case_events(cases)],
                             len(t.tokens["activity"]) + treatment[cases][with_treatment]])
    return rows, tokens, lengths + with_treatment


def _count_matrix(rows: np.ndarray, cols: np.ndarray, n_rows: int, V: int) -> np.ndarray:
    """int64 (n_rows x V) counts of the (row, column) pairs; pairs whose column
    is -1 are left out."""
    used = cols >= 0
    counts = np.bincount(rows[used] * V + cols[used], minlength=n_rows * V)
    return counts.astype(np.int64, copy=False).reshape(n_rows, V)


def _impute_labels(t: EventTable, labeled: list[int], unlabeled: list[int]) -> list[str | None]:
    """Label of the most similar labelled case for each unlabelled case, or
    None when every similarity is 0 (see ``clean_log``)."""
    if not unlabeled:
        return []
    labels = t.diagnosis_code
    label_counts = Counter(labels[i] for i in labeled)
    classes = sorted(label_counts, key=lambda lab: (-label_counts[lab], lab))
    rank = {lab: k for k, lab in enumerate(classes)}
    # labelled cases grouped by class in tie-break order, so that each class
    # is one contiguous run of similarity columns
    labeled = np.array(sorted(labeled, key=lambda i: rank[labels[i]]), dtype=np.int64)
    starts = np.cumsum([0] + [label_counts[lab] for lab in classes[:-1]])
    treatment_codes: dict[str, int] = {}
    treatment = np.array([treatment_codes.setdefault(tc, len(treatment_codes)) if tc else -1
                          for tc in t.treatment_code], dtype=np.int64)
    a_rows, a_tokens, a_size = _signatures(t, labeled, treatment)
    # only tokens of labelled signatures get a similarity column
    present = np.unique(a_tokens)
    column = np.full(len(t.tokens["activity"]) + len(treatment_codes), -1, dtype=np.int64)
    column[present] = np.arange(len(present))
    V = len(present)
    A = np.ascontiguousarray(_count_matrix(a_rows, column[a_tokens], len(labeled), V).T)

    unlabeled = np.asarray(unlabeled, dtype=np.int64)
    out: list[str | None] = []
    for lo in range(0, len(unlabeled), IMPUTE_BLOCK):
        block = unlabeled[lo:lo + IMPUTE_BLOCK]
        b_rows, b_tokens, b_size = _signatures(t, block, treatment)
        B = _count_matrix(b_rows, column[b_tokens], len(block), V)
        inter = np.zeros((len(block), len(labeled)), dtype=np.int64)
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


def clean_log(log: EventTable, min_class_count: int) -> tuple[EventTable, CleaningReport]:
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
    Treatment years are the span from a case's first to its last event.
    """
    if min_class_count < 1:
        raise ValueError("min_class_count must be >= 1")
    if (np.diff(log.offsets) == 0).any():
        raise ValueError("a case has no events, so it has no treatment span")
    labels = list(log.diagnosis_code)
    labeled = [i for i, lab in enumerate(labels) if lab is not None]
    if not labeled:
        raise CannotImputeError("every case is unlabeled; nothing to impute from")
    unlabeled = [i for i, lab in enumerate(labels) if lab is None]

    report = CleaningReport(collapsed_features=list(log.spread_features))
    for i, label in zip(unlabeled, _impute_labels(log, labeled, unlabeled)):
        labels[i] = label
        if label is None:
            report.dropped_cases += 1
        else:
            report.imputed_labels += 1

    counts = Counter(lab for lab in labels if lab is not None)
    report.kept_classes = {lab for lab, n in counts.items() if n >= min_class_count}
    report.dropped_classes = {
        lab: n for lab, n in sorted(counts.items()) if n < min_class_count
    }
    first, last = log.timestamp[log.offsets[:-1]], log.timestamp[log.offsets[1:] - 1]
    years = (last - first) / SECONDS_PER_YEAR
    cleaned = replace(log, diagnosis_code=labels, years_in_treatment=years,
                      spread_features=[], issues=dict(log.issues))
    return cleaned.take([i for i, lab in enumerate(labels) if lab in report.kept_classes]), report


@dataclass
class CorrelationResult:
    features: list[str]
    matrix: np.ndarray
    zero_variance: list[str]


#: per-case fields; each event row repeats its case's value
_CASE_FIELDS = ("age", "years_in_treatment", "diagnosis_code", "treatment_code", "combination_id")


def _feature_rows(t: EventTable, features: list[str]) -> np.ndarray:
    """One row per event; categoricals encoded by frequency rank (1 = most common)."""
    cat_fields = set(DYNAMIC_CATEGORICAL) | set(STATIC_CATEGORICAL) | {"diagnosis_code"}
    lengths = np.diff(t.offsets)
    columns = []
    for feat in features:
        if feat in DYNAMIC_CATEGORICAL:
            codes, tokens = t.codes[feat], t.tokens[feat]
        elif feat in cat_fields:
            case_codes, tokens = _codes([v if v is not None else "" for v in getattr(t, feat)])
            codes = np.repeat(case_codes, lengths)
        elif feat in _CASE_FIELDS:
            columns.append(np.repeat(np.array([float(v) for v in getattr(t, feat)]), lengths))
            continue
        else:
            columns.append(np.asarray(getattr(t, feat), dtype=float))
            continue
        counts = np.bincount(codes, minlength=len(tokens)).tolist()
        order = sorted((k for k in range(len(tokens)) if counts[k]),
                       key=lambda k: (-counts[k], str(tokens[k])))
        rank = np.zeros(len(tokens))
        rank[order] = np.arange(1, len(order) + 1)
        columns.append(rank[codes])
    return np.asarray(columns, dtype=float).T


def correlation_matrix(log: EventTable, features: list[str]) -> CorrelationResult:
    """Pearson correlation over event rows; unit diagonal, symmetric.

    Zero-variance features get zero off-diagonal entries and are flagged.
    """
    if len(log.case_ids) < 2:
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
