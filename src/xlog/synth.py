"""Synthetic event-log generator with planted, recoverable ground truth.

Each class carries an ordered activity motif at a fixed position inside noise
activities, optionally plus a static age rule (one class's membership is
equivalent to age exceeding a threshold). The generator returns the log and a
manifest of the planted truth so downstream checks can assert against it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .eventlog import Case, Event, EventLog

BASE_TS = 1577836800.0  # 2020-01-01T00:00:00Z


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
        d = json.loads(text)
        rule = AgeRule(**d["age_rule"]) if d.get("age_rule") else None
        return cls(classes=[ClassSpec(**c) for c in d["classes"]],
                   noise_vocab=d.get("noise_vocab", 12),
                   min_length=d.get("min_length", 6),
                   max_length=d.get("max_length", 12),
                   age_rule=rule, age_low=d.get("age_low", 30),
                   treatments=d.get("treatments", ["T1", "T2"]))

    def validate(self) -> None:
        # log_to_csv writes cells unquoted, so such a cell would shift its row
        cells = [c.label for c in self.classes] + [tok for c in self.classes for tok in c.motif]
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
            if c.motif_position + len(c.motif) > self.min_length:
                raise ValueError(
                    f"class {c.label}: motif does not fit inside the shortest window")
        if self.age_rule and self.age_rule.label not in {c.label for c in self.classes}:
            raise ValueError(f"age rule names unknown class {self.age_rule.label!r}")


def generate_synthetic(spec: SyntheticSpec, seed: int) -> tuple[EventLog, dict]:
    """Build an EventLog where class identity is recoverable from the planted
    motif (and the age rule when configured)."""
    spec.validate()
    rng = np.random.default_rng(seed)
    noise_tokens = [f"noise_{i:02d}" for i in range(spec.noise_vocab)]
    cases = []
    counter = 0
    for cls in spec.classes:
        for _ in range(cls.cases):
            counter += 1
            case_id = f"case_{counter:04d}"
            length = int(rng.integers(spec.min_length, spec.max_length + 1))
            tokens = [noise_tokens[int(rng.integers(spec.noise_vocab))]
                      for _ in range(length)]
            if rng.random() < cls.motif_probability:
                for off, tok in enumerate(cls.motif):
                    tokens[cls.motif_position + off] = tok
            if spec.age_rule is not None:
                if cls.label == spec.age_rule.label:
                    age = int(rng.integers(spec.age_rule.threshold + 1,
                                           spec.age_rule.threshold + 21))
                else:
                    age = int(rng.integers(spec.age_low, spec.age_rule.threshold + 1))
            else:
                age = int(rng.integers(spec.age_low, 80))
            gap_days = float(rng.uniform(1.0, 30.0))
            events = [
                Event(activity=tok, timestamp=BASE_TS + counter * 86400.0 + k * gap_days * 86400.0,
                      department="clinic", num_executions=1,
                      activity_code=f"ac_{tok}", producer_code="prod",
                      section="sec")
                for k, tok in enumerate(tokens)
            ]
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


def log_to_csv(log: EventLog) -> str:
    """Flat one-event-per-row CSV with statics repeated, matching the default
    ingest schema."""
    header = ("case_id,activity,department,timestamp,num_executions,"
              "activity_code,producer_code,section,age,diagnosis_code,"
              "treatment_code,combination_id")
    lines = [header]
    from datetime import datetime, timezone
    for case in log.cases:
        for ev in case.events:
            ts = datetime.fromtimestamp(ev.timestamp, tz=timezone.utc)
            stamp = ts.strftime("%Y-%m-%d %H:%M:%S")
            diag = case.diagnosis_code if case.diagnosis_code is not None else ""
            lines.append(
                f"{case.case_id},{ev.activity},{ev.department},{stamp},"
                f"{ev.num_executions},{ev.activity_code},{ev.producer_code},"
                f"{ev.section},{case.age},{diag},{case.treatment_code},"
                f"{case.combination_id}")
    return "\n".join(lines) + "\n"


DEFAULT_SCHEMA = {
    "case_id": "case_id", "activity": "activity", "timestamp": "timestamp",
    "department": "department", "num_executions": "num_executions",
    "activity_code": "activity_code", "producer_code": "producer_code",
    "section": "section", "age": "age", "diagnosis_code": "diagnosis_code",
    "treatment_code": "treatment_code", "combination_id": "combination_id",
}
