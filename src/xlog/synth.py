"""Synthetic event-log generator with planted, recoverable ground truth.

Each class carries an ordered activity motif at a fixed position inside noise
activities, optionally plus a static age rule (one class's membership is
equivalent to age exceeding a threshold). The generator returns the log and a
manifest of the planted truth so downstream checks can assert against it.

Both halves work by column. ``generate_synthetic`` draws a case's noise
tokens with one ``rng.integers`` call and its timestamps as one array
expression, in the stream order and arithmetic of one draw per token, so a
seed's log does not depend on how it is drawn. ``log_to_csv`` gathers the
per-event fields into columns, formats every timestamp in one numpy pass
(rounding as ``datetime.fromtimestamp`` does) and writes each case's static
cells once per case. ``SyntheticSpec.validate`` rejects a value of the wrong
type or range by key before anything is generated, including a spec whose
events could fall after 9999-12-31, the last date the writer prints.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import MISSING, dataclass, field, fields
from itertools import chain, repeat

import numpy as np

from .eventlog import Case, Event, EventLog

BASE_TS = 1577836800.0  # 2020-01-01T00:00:00Z
# 1000-01-01 00:00:00 and 9999-12-31 23:59:59 UTC, the span of four-digit years
_FIRST_SECOND, _LAST_SECOND = -30610224000, 253402300799


@dataclass
class ClassSpec:
    label: str
    motif: list[str]
    cases: int
    motif_position: int = 0
    motif_probability: float = 1.0


@dataclass
class AgeRule:
    label: str
    threshold: int = 70


@dataclass
class SyntheticSpec:
    classes: list[ClassSpec]
    noise_vocab: int = 12
    min_length: int = 6
    max_length: int = 12
    age_rule: AgeRule | None = None
    age_low: int = 30
    treatments: list[str] = field(default_factory=lambda: ["T1", "T2"])

    @classmethod
    def from_json(cls, text: str) -> "SyntheticSpec":
        """A spec from its JSON object; an omitted key takes the field's
        default, and an unknown or missing key is rejected by name."""
        d = _keywords(json.loads(text), cls, "spec")
        if isinstance(d["classes"], list):
            d["classes"] = [ClassSpec(**_keywords(c, ClassSpec, "class")) for c in d["classes"]]
        if d.get("age_rule") is not None:
            d["age_rule"] = AgeRule(**_keywords(d["age_rule"], AgeRule, "age_rule"))
        return cls(**d)

    def validate(self) -> None:
        """``ValueError`` naming the key of the first value that cannot be
        generated or written."""
        self._validate_types()
        if self.min_length < 1:
            raise ValueError(f"min_length must be >= 1, got {self.min_length}")
        if self.min_length > self.max_length:
            raise ValueError(f"min_length {self.min_length} exceeds max_length "
                             f"{self.max_length}")
        if self.noise_vocab < 1:
            raise ValueError(f"noise_vocab must be >= 1, got {self.noise_vocab}")
        if not self.treatments:
            raise ValueError("treatments must name at least one treatment")
        # ages from age_low up to this are drawn for every class outside the age rule
        age_high = self.age_rule.threshold if self.age_rule else 79
        outside = [c for c in self.classes if not self.age_rule or c.label != self.age_rule.label]
        if outside and self.age_low > age_high:
            raise ValueError(f"age_low {self.age_low} leaves no age to draw for class "
                             f"{outside[0].label!r}: the highest is {age_high}")
        labels = [c.label for c in self.classes]
        for label in labels:
            if labels.count(label) > 1:
                raise ValueError(f"classes: label {label!r} is given twice")
        # log_to_csv writes cells unquoted, so such a cell would shift its row
        cells = labels + [tok for c in self.classes for tok in c.motif]
        for value in cells + list(self.treatments):
            if any(ch in value for ch in ',"\r\n'):
                raise ValueError(f"{value!r}: a class label, motif token or treatment "
                                 "may not hold a comma, a quote or a line break")
        motifs = [tuple(c.motif) for c in self.classes]
        if len(set(motifs)) != len(motifs):
            raise ValueError("motifs must be pairwise distinct")
        for c in self.classes:
            if c.cases < 4:
                raise ValueError(f"class {c.label}: need >= 4 cases")
            if c.motif_position < 0:
                raise ValueError(f"class {c.label}: motif_position must be >= 0, "
                                 f"got {c.motif_position}")
            if c.motif_position + len(c.motif) > self.min_length:
                raise ValueError(
                    f"class {c.label}: motif does not fit inside the shortest window")
        if self.age_rule and self.age_rule.label not in {c.label for c in self.classes}:
            raise ValueError(f"age rule names unknown class {self.age_rule.label!r}")
        # case k starts k days after BASE_TS and its events are under 30 days apart
        cases = sum(c.cases for c in self.classes)
        if int(BASE_TS) + (cases + 30 * (self.max_length - 1)) * 86400 > _LAST_SECOND:
            raise ValueError(f"max_length {self.max_length} and {cases} cases could put an "
                             "event after 9999-12-31")

    def _validate_types(self) -> None:
        """``ValueError`` naming the key of the first value of the wrong type,
        or of a ``motif_probability`` outside [0, 1]."""
        if not isinstance(self.classes, (list, tuple)) or not self.classes:
            raise ValueError(f"classes must list at least one class, got {self.classes!r}")
        if self.age_rule is not None and not isinstance(self.age_rule.label, str):
            raise ValueError(f"age_rule: label must be a string, got {self.age_rule.label!r}")
        integers = [("noise_vocab", self.noise_vocab), ("min_length", self.min_length),
                    ("max_length", self.max_length), ("age_low", self.age_low)]
        if self.age_rule is not None:
            integers.append(("age_rule: threshold", self.age_rule.threshold))
        for c in self.classes:
            if not isinstance(c.label, str):
                raise ValueError(f"class label must be a string, got {c.label!r}")
            if not _strings(c.motif):
                raise ValueError(f"class {c.label}: motif must be a list of strings, "
                                 f"got {c.motif!r}")
            p = c.motif_probability
            if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0 <= p <= 1:
                raise ValueError(f"class {c.label}: motif_probability must be a number "
                                 f"from 0 to 1, got {p!r}")
            integers += [(f"class {c.label}: cases", c.cases),
                         (f"class {c.label}: motif_position", c.motif_position)]
        for key, value in integers:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if not _strings(self.treatments):
            raise ValueError(f"treatments must be a list of strings, got {self.treatments!r}")


def _keywords(d, cls, where: str) -> dict:
    """``d`` as the keyword arguments of the dataclass ``cls``; ``ValueError``
    naming ``where`` and the keys unless ``d`` is a JSON object with every
    required field of ``cls`` and no other key."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {d!r}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")
    missing = [f.name for f in fields(cls) if f.name not in d
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing {where} key(s): {', '.join(map(repr, missing))}")
    return d


def _strings(value) -> bool:
    return isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)


def generate_synthetic(spec: SyntheticSpec, seed: int) -> tuple[EventLog, dict]:
    """Build an EventLog where class identity is recoverable from the planted
    motif (and the age rule when configured). A seed gives the log that one
    scalar draw per token gives (``tests/synth_oracle.py``)."""
    spec.validate()
    rng = np.random.default_rng(seed)
    noise_tokens = [f"noise_{i:02d}" for i in range(spec.noise_vocab)]
    activity_code = {tok: f"ac_{tok}" for tok in noise_tokens}
    activity_code.update((tok, f"ac_{tok}") for c in spec.classes for tok in c.motif)
    cases = []
    counter = 0
    for cls in spec.classes:
        motif_end = cls.motif_position + len(cls.motif)
        for _ in range(cls.cases):
            counter += 1
            case_id = f"case_{counter:04d}"
            length = int(rng.integers(spec.min_length, spec.max_length + 1))
            draws = rng.integers(spec.noise_vocab, size=length).tolist()
            tokens = [noise_tokens[i] for i in draws]
            if rng.random() < cls.motif_probability:
                tokens[cls.motif_position:motif_end] = cls.motif
            if spec.age_rule is not None:
                if cls.label == spec.age_rule.label:
                    age = int(rng.integers(spec.age_rule.threshold + 1,
                                           spec.age_rule.threshold + 21))
                else:
                    age = int(rng.integers(spec.age_low, spec.age_rule.threshold + 1))
            else:
                age = int(rng.integers(spec.age_low, 80))
            gap_days = float(rng.uniform(1.0, 30.0))
            start = BASE_TS + counter * 86400.0
            stamps = (start + np.arange(length) * gap_days * 86400.0).tolist()
            events = list(map(Event, tokens, stamps, repeat("clinic"), repeat(1),
                              map(activity_code.__getitem__, tokens), repeat("prod"),
                              repeat("sec")))
            cases.append(Case(case_id=case_id, events=events, age=age,
                              diagnosis_code=cls.label,
                              treatment_code=spec.treatments[int(rng.integers(len(spec.treatments)))],
                              combination_id="C1"))
    manifest = {
        "seed": seed,
        "classes": [{"label": c.label, "motif": c.motif,
                     "motif_position": c.motif_position, "cases": c.cases,
                     "motif_probability": c.motif_probability}
                    for c in spec.classes],
        "noise_vocab": spec.noise_vocab,
        "age_rule": ({"label": spec.age_rule.label,
                      "threshold": spec.age_rule.threshold}
                     if spec.age_rule else None),
    }
    return EventLog(cases=cases), manifest


def _utc_stamps(timestamps: np.ndarray) -> list[str]:
    """``YYYY-MM-DD HH:MM:SS`` of each UTC epoch time, as
    ``datetime.fromtimestamp(t, timezone.utc).strftime`` prints it: the
    fraction rounds half to even at the microsecond, carrying into the next
    second, and is then dropped. ``ValueError`` for a time that is not
    finite or falls outside the four-digit years."""
    fraction, whole = np.modf(timestamps)
    micro = np.rint(fraction * 1e6)
    seconds = whole + (micro >= 1e6) - (micro < 0)
    outside = ~((seconds >= _FIRST_SECOND) & (seconds <= _LAST_SECOND))
    if outside.any():
        raise ValueError(f"timestamp {timestamps[outside][0]!r} is not a time in "
                         "the years 1000 to 9999")
    text = np.datetime_as_string(seconds.astype(np.int64).astype("datetime64[s]")).astype("U19")
    text.view(np.uint32).reshape(-1, 19)[:, 10] = ord(" ")
    return text.tolist()


def log_to_csv(log: EventLog) -> str:
    """Flat one-event-per-row CSV with statics repeated, matching the default
    ingest schema.

    The per-event fields are gathered into columns and the timestamps are
    formatted in one numpy pass; each case's id and static cells are
    formatted once and repeated over its rows."""
    header = ("case_id,activity,department,timestamp,num_executions,"
              "activity_code,producer_code,section,age,diagnosis_code,"
              "treatment_code,combination_id")
    cases = log.cases
    events = [ev for case in cases for ev in case.events]
    counts = [len(case.events) for case in cases]
    stamps = _utc_stamps(np.array([ev.timestamp for ev in events], dtype=np.float64))
    statics = [f"{c.age},{'' if c.diagnosis_code is None else c.diagnosis_code},"
               f"{c.treatment_code},{c.combination_id}" for c in cases]

    def per_row(per_case):
        return chain.from_iterable(map(repeat, per_case, counts))

    rows = map(",".join, zip(
        per_row([c.case_id for c in cases]), [ev.activity for ev in events],
        [ev.department for ev in events], stamps, [str(ev.num_executions) for ev in events],
        [ev.activity_code for ev in events], [ev.producer_code for ev in events],
        [ev.section for ev in events], per_row(statics)))
    return "\n".join([header, *rows]) + "\n"


DEFAULT_SCHEMA = {
    "case_id": "case_id", "activity": "activity", "timestamp": "timestamp",
    "department": "department", "num_executions": "num_executions",
    "activity_code": "activity_code", "producer_code": "producer_code",
    "section": "section", "age": "age", "diagnosis_code": "diagnosis_code",
    "treatment_code": "treatment_code", "combination_id": "combination_id",
}
