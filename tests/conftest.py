import numpy as np
import pytest

from xlog.eventlog import Case, Event, EventLog

from ingest_oracle import table_of

BASE = 1577836800.0  # 2020-01-01 UTC


def make_case(case_id, activities, label="L1", age=50, treatment="T1",
              start=BASE, gap=86400.0, combination="C1"):
    events = [Event(activity=a, timestamp=start + k * gap, department="dep",
                    num_executions=1, activity_code=f"ac_{a}",
                    producer_code="p", section="s")
              for k, a in enumerate(activities)]
    return Case(case_id=case_id, events=events, age=age, diagnosis_code=label,
                treatment_code=treatment, combination_id=combination)


def make_log(spec):
    """The table of a hand-built log. spec: list of (case_id, activities,
    label) or full kwargs dicts."""
    cases = []
    for item in spec:
        if isinstance(item, dict):
            cases.append(make_case(**item))
        else:
            cid, acts, label = item
            cases.append(make_case(cid, acts, label))
    return table_of(EventLog(cases=cases))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
