"""Per-token reference implementations of ``synth.generate_synthetic`` and
``synth.log_to_csv``.

The generator makes one scalar RNG call per token and the writer formats one
event at a time with ``datetime.fromtimestamp`` and ``strftime``, as xlog's
``synth`` did before it drew and wrote by column. The tests require the
columnar functions to produce the same CSV text.
"""

from datetime import datetime, timezone

import numpy as np

from xlog.eventlog import Case, Event, EventLog
from xlog.synth import BASE_TS, SyntheticSpec


def oracle_generate(spec: SyntheticSpec, seed: int) -> EventLog:
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
    return EventLog(cases=cases)


def oracle_csv(log: EventLog) -> str:
    header = ("case_id,activity,department,timestamp,num_executions,"
              "activity_code,producer_code,section,age,diagnosis_code,"
              "treatment_code,combination_id")
    lines = [header]
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
