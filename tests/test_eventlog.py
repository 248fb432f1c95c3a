import csv
import json
import os
import re
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from xlog import eventlog, synth
from xlog.eventlog import (
    CannotImputeError, EmptyLogError, SchemaError,
    clean_log, parse_log,
)

from conftest import make_log
from ingest_oracle import oracle_clean_log

SCHEMA = {"case_id": "case", "activity": "act", "timestamp": "ts",
          "age": "age", "diagnosis_code": "diag"}


def write_csv(tmp_path, rows, header="case,act,ts,age,diag"):
    path = os.path.join(tmp_path, "log.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")
    return path


def test_parse_single_case(tmp_path):
    path = write_csv(tmp_path, [
        "c1,blood test,2020-01-01 10:00:00,61,M11",
        "c1,x-ray,2020-01-02 10:00:00,61,M11",
        "c1,consult,2020-01-03 10:00:00,61,M11",
    ])
    log = parse_log(path, SCHEMA)
    assert len(log.cases) == 1
    assert len(log.cases[0].events) == 3
    assert log.cases[0].age == 61
    assert log.cases[0].diagnosis_code == "M11"


def test_parse_sorts_events_by_timestamp(tmp_path):
    path = write_csv(tmp_path, [
        "c1,late,2020-03-01 00:00:00,50,M11",
        "c1,early,2020-01-01 00:00:00,50,M11",
        "c1,mid,2020-02-01 00:00:00,50,M11",
    ])
    log = parse_log(path, SCHEMA)
    assert [e.activity for e in log.cases[0].events] == ["early", "mid", "late"]


def test_parse_iso8601_with_offset(tmp_path):
    path = write_csv(tmp_path, [
        "c1,a,2020-01-01T10:00:00Z,50,M11",
        "c1,b,2020-01-01T11:00:00+01:00,50,M11",
    ])
    log = parse_log(path, SCHEMA)
    ts = [e.timestamp for e in log.cases[0].events]
    assert ts[0] == ts[1]  # 11:00+01:00 == 10:00Z


def test_parse_missing_mandatory_column(tmp_path):
    path = write_csv(tmp_path, ["c1,a,2020-01-01 00:00:00,50,M11"])
    with pytest.raises(SchemaError):
        parse_log(path, {"case_id": "case", "activity": "act", "timestamp": "nope"})
    with pytest.raises(SchemaError):
        parse_log(path, {"case_id": "case", "activity": "act"})


def test_parse_rejects_a_schema_key_that_names_no_field(tmp_path):
    path = write_csv(tmp_path, ["c1,a,2020-01-01 00:00:00,50,M11"])
    with pytest.raises(SchemaError, match="schema key 'departement' names no field"):
        parse_log(path, dict(SCHEMA, departement="age"))


@pytest.mark.parametrize("key, column", [("case_id", "case"), ("activity", "act"),
                                         ("timestamp", "ts"), ("department", "act"),
                                         ("num_executions", "age")])
def test_parse_rejects_a_column_list_on_a_per_event_field(tmp_path, key, column):
    path = write_csv(tmp_path, ["c1,a,2020-01-01 00:00:00,50,M11"])
    with pytest.raises(SchemaError, match=f"schema field '{key}' is per-event and takes "
                                          "one column"):
        parse_log(path, dict(SCHEMA, **{key: [column, "diag"]}))
    assert parse_log(path, dict(SCHEMA, **{key: [column]})).n_events() == 1


@pytest.mark.parametrize("key, spec", [("age", 5), ("diagnosis_code", []),
                                       ("age", ["age", 3]), ("case_id", None)])
def test_parse_rejects_a_schema_value_that_names_no_columns(tmp_path, key, spec):
    # an empty list used to read every case as unlabelled, a number to crash
    path = write_csv(tmp_path, ["c1,a,2020-01-01 00:00:00,50,M11"])
    with pytest.raises(SchemaError, match=f"schema field '{key}' takes a column name or a "
                                          "non-empty list of column names"):
        parse_log(path, dict(SCHEMA, **{key: spec}))


def test_parse_counts_bad_rows_instead_of_silence(tmp_path):
    path = write_csv(tmp_path, [
        "c1,a,2020-01-01 00:00:00,50,M11",
        ",missing-case,2020-01-01 00:00:00,50,M11",
        "c1,b,not-a-time,50,M11",
    ])
    log = parse_log(path, SCHEMA)
    assert log.issues == {"unparseable_rows": 1, "unparseable_timestamps": 1}
    assert len(log.cases[0].events) == 1


def test_parse_counts_short_row_instead_of_crashing(tmp_path):
    path = write_csv(tmp_path, [
        "c1,a,2020-01-01 00:00:00,50,M11",
        "c1,b",
        "c2",
    ])
    log = parse_log(path, SCHEMA)
    assert log.issues == {"unparseable_rows": 1, "unparseable_timestamps": 1}
    assert [c.case_id for c in log.cases] == ["c1"]


@pytest.mark.parametrize("value", ["inf", "-inf", "Infinity"])
def test_parse_non_finite_numbers_take_defaults(tmp_path, value):
    path = write_csv(tmp_path, [
        f"c1,a,2020-01-01 00:00:00,{value},M11,{value}",
        "c1,b,2020-01-02 00:00:00,,M11,3.7",
    ], header="case,act,ts,age,diag,n")
    log = parse_log(path, dict(SCHEMA, num_executions="n"))
    assert log.cases[0].age == 0
    assert [e.num_executions for e in log.cases[0].events] == [1, 3]


def test_parse_accepts_utf8_byte_order_mark(tmp_path):
    path = os.path.join(tmp_path, "bom.csv")
    with open(path, "w", encoding="utf-8-sig") as fh:
        fh.write("case,act,ts,age,diag\nc1,a,2020-01-01 00:00:00,50,M11\n")
    log = parse_log(path, SCHEMA)
    assert [c.case_id for c in log.cases] == ["c1"]
    assert log.cases[0].diagnosis_code == "M11"


def test_parse_empty_log_error(tmp_path):
    path = write_csv(tmp_path, [",a,2020-01-01 00:00:00,50,M11"])
    with pytest.raises(EmptyLogError):
        parse_log(path, SCHEMA)


def test_parse_spread_columns_collapse_to_last(tmp_path):
    header = "case,act,ts,age,diag,diag1"
    path = write_csv(tmp_path, [
        "c1,a,2020-01-01 00:00:00,50,M11,",
        "c1,b,2020-01-02 00:00:00,50,,M13",
    ], header=header)
    schema = dict(SCHEMA, diagnosis_code=["diag", "diag1"])
    log = parse_log(path, schema)
    assert log.cases[0].diagnosis_code == "M13"
    assert "diagnosis_code" in log.spread_features


def test_parse_field_size_limit_counts_characters_on_both_readers(tmp_path):
    old = csv.field_size_limit(24)
    try:
        for act in ("a" * 25, '"' + "a" * 25 + '"'):  # the byte reader, then csv.reader
            path = write_csv(tmp_path, [f"c1,{act},2020-01-01 00:00:00,50,M11"])
            with pytest.raises(csv.Error, match=re.escape("field larger than field limit (24)")):
                parse_log(path, SCHEMA)
        # 26 bytes but 13 characters, after a comment longer than the limit
        path = write_csv(tmp_path, ["# " + "x" * 30, "c1," + "é" * 13 + ",2020-01-01 00:00:00,50,M11"])
        assert [e.activity for e in parse_log(path, SCHEMA).cases[0].events] == ["é" * 13]
    finally:
        csv.field_size_limit(old)


def test_parse_quote_free_log_in_bounded_memory(tmp_path):
    # 28,086 rows, 2.27 MB: the tracemalloc peak was 12.9x the file size when
    # csv.reader split every file and is 7.8x with the byte reader
    spec = {"classes": [{"label": f"c{k}", "motif": [f"m{k}"], "cases": 270} for k in range(3)],
            "noise_vocab": 60, "min_length": 10, "max_length": 60}
    log, _ = synth.generate_synthetic(synth.SyntheticSpec.from_json(json.dumps(spec)), seed=12)
    path = tmp_path / "events.csv"
    path.write_text(synth.log_to_csv(log), encoding="utf-8")
    tracemalloc.start()
    try:
        table = parse_log(path, dict(synth.DEFAULT_SCHEMA))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.n_events() == 28086
    assert peak < 10 * path.stat().st_size, peak / path.stat().st_size


TABLE1 = {"M11": 60, "M12": 13, "M13": 195, "M14": 95, "M15": 11,
          "M16": 128, "106": 113, "821": 29, "822": 22, "823": 8, "839": 14}


def table1_log():
    spec = []
    k = 0
    for label, count in TABLE1.items():
        for _ in range(count):
            k += 1
            spec.append((f"p{k:04d}", ["visit", "test"], label))
    return make_log(spec)


def test_clean_reproduces_table1_filtering():
    log = table1_log()
    cleaned, report = clean_log(log, min_class_count=30)
    assert report.kept_classes == {"M11", "M13", "M14", "M16", "106"}
    assert set(report.dropped_classes) == {"M12", "M15", "821", "822", "823", "839"}
    assert Counter(cleaned.diagnosis_code) == {k: v for k, v in TABLE1.items()
                                               if v >= 30}


def test_clean_conserves_case_count():
    log = table1_log()
    cleaned, report = clean_log(log, min_class_count=30)
    kept = len(cleaned.case_ids)
    dropped_cls = sum(report.dropped_classes.values())
    assert kept + dropped_cls + report.dropped_cases == len(log.cases)


def test_clean_no_missing_labels_is_idempotent():
    log = make_log([("c1", ["a", "b"], "L1"), ("c2", ["a"], "L1"),
                    ("c3", ["b", "c"], "L2"), ("c4", ["c"], "L2")])
    first, rep1 = clean_log(log, min_class_count=1)
    assert rep1.imputed_labels == 0
    second, rep2 = clean_log(first, min_class_count=1)
    assert rep2.imputed_labels == 0 and rep2.dropped_cases == 0
    assert [c.case_id for c in second.cases] == [c.case_id for c in first.cases]
    for a, b in zip(first.cases, second.cases):
        assert a.years_in_treatment == b.years_in_treatment
        assert a.diagnosis_code == b.diagnosis_code


def test_clean_imputes_unique_nearest_neighbor():
    log = make_log([
        ("c1", ["a", "b", "c"], "M11"),
        ("c2", ["x", "y"], "M13"),
        {"case_id": "c3", "activities": ["a", "b", "c"], "label": None},
    ])
    cleaned, report = clean_log(log, min_class_count=1)
    assert report.imputed_labels == 1
    by_id = {c.case_id: c for c in cleaned.cases}
    assert by_id["c3"].diagnosis_code == "M11"


def test_clean_tie_breaks_prefer_larger_class_then_lex():
    # c9 is equally similar to one M20 case and one M10 case -> larger class wins
    log = make_log([
        ("a1", ["s", "t"], "M20"), ("a2", ["q", "r"], "M20"),
        ("b1", ["s", "t"], "M10"),
        {"case_id": "c9", "activities": ["s", "t"], "label": None},
    ])
    cleaned, _ = clean_log(log, min_class_count=1)
    assert {c.case_id: c.diagnosis_code for c in cleaned.cases}["c9"] == "M20"
    # equal class sizes -> lexicographically smaller label
    log2 = make_log([
        ("a1", ["s", "t"], "M20"),
        ("b1", ["s", "t"], "M10"),
        {"case_id": "c9", "activities": ["s", "t"], "label": None},
    ])
    cleaned2, _ = clean_log(log2, min_class_count=1)
    assert {c.case_id: c.diagnosis_code for c in cleaned2.cases}["c9"] == "M10"


def test_clean_drops_zero_similarity_case():
    log = make_log([
        ("c1", ["a"], "M11"),
        {"case_id": "c2", "activities": ["zzz"], "label": None, "treatment": "T9"},
    ])
    cleaned, report = clean_log(log, min_class_count=1)
    assert report.dropped_cases == 1
    assert len(cleaned.cases) == 1


def test_clean_rejects_case_without_events():
    log = make_log([("c1", ["a"], "L"), ("c2", [], "L")])
    with pytest.raises(ValueError, match="no events"):
        clean_log(log, min_class_count=1)


def test_clean_all_unlabeled_raises():
    log = make_log([{"case_id": "c1", "activities": ["a"], "label": None}])
    with pytest.raises(CannotImputeError):
        clean_log(log, min_class_count=1)


def test_clean_derives_years():
    year_secs = eventlog.SECONDS_PER_YEAR
    log = make_log([{"case_id": "c1", "activities": ["a", "b"],
                     "label": "L", "gap": 2 * year_secs},
                    {"case_id": "c2", "activities": ["a"], "label": "L"}])
    cleaned, _ = clean_log(log, min_class_count=1)
    by_id = {c.case_id: c for c in cleaned.cases}
    assert by_id["c1"].years_in_treatment == pytest.approx(2.0)
    assert by_id["c2"].years_in_treatment == 0.0


def random_tie_log(rng, k):
    """A small log built for ties: few activities (one named "treatment"),
    few treatment codes, repeated activities, classes of equal and unequal
    size, and unlabelled cases whose only tokens no labelled case has."""
    acts = ["a", "b", "c", "treatment"]
    treatments = ["", "T1", "T2", "treatment"]
    labels = ["M10", "M2", "M20", "106"][: int(rng.integers(2, 5))]
    spec = []
    for i in range(int(rng.integers(3, 14))):
        label = labels[i] if i < len(labels) else str(rng.choice(labels))
        spec.append({"case_id": f"l{k}_{i}", "label": label,
                     "activities": list(rng.choice(acts, size=int(rng.integers(1, 5)))),
                     "treatment": str(rng.choice(treatments))})
    for i in range(int(rng.integers(1, 8))):
        if rng.random() < 0.2:
            activities, treatment = ["zz"] * int(rng.integers(1, 3)), ""
        else:
            activities = list(rng.choice(acts, size=int(rng.integers(1, 5))))
            treatment = str(rng.choice(treatments))
        spec.append({"case_id": f"u{k}_{i}", "label": None,
                     "activities": activities, "treatment": treatment})
    order = rng.permutation(len(spec))
    return make_log([spec[j] for j in order])


def test_clean_matches_counter_oracle_on_random_tie_logs(monkeypatch):
    monkeypatch.setattr(eventlog, "IMPUTE_BLOCK", 3)  # several blocks per log
    rng = np.random.default_rng(20240611)
    seen = Counter()
    for k in range(400):
        log = random_tie_log(rng, k)
        min_class = int(rng.integers(1, 4))
        got, rep = clean_log(log, min_class_count=min_class)
        want, want_rep, ties = oracle_clean_log(log, min_class_count=min_class)
        assert [(c.case_id, c.diagnosis_code, c.years_in_treatment) for c in got.cases] \
            == [(c.case_id, c.diagnosis_code, c.years_in_treatment) for c in want], k
        assert rep.to_dict() == want_rep.to_dict(), k
        seen.update(ties)
        seen["dropped"] += want_rep.dropped_cases
        seen["imputed"] += want_rep.imputed_labels
    # the generator reaches every tie-break rule and the zero-similarity drop
    assert min(seen["equal"], seen["unequal"], seen["dropped"], seen["imputed"]) > 0, seen


def test_clean_imputes_medium_scale_in_bounded_memory():
    # 600 unlabelled x 2400 labelled: the size that took about a minute with
    # the Counter oracle, which is therefore not run here
    rng = np.random.default_rng(7)
    vocab = [f"n{i}" for i in range(40)]
    motifs = {"M11": ["m_a", "m_b"], "M13": ["m_c", "m_d"], "M16": ["m_e", "m_f"]}
    spec = []
    for i in range(3000):
        label = list(motifs)[i % 3]
        acts = list(rng.choice(vocab, size=int(rng.integers(10, 61)))) + motifs[label]
        spec.append({"case_id": f"p{i}", "activities": acts,
                     "label": None if i % 5 == 0 else label,
                     "treatment": f"T{int(rng.integers(0, 4))}"})
    log = make_log(spec)
    tracemalloc.start()
    try:
        cleaned, report = clean_log(log, min_class_count=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.imputed_labels + report.dropped_cases == 600
    assert len(cleaned.cases) == 3000 - report.dropped_cases
    assert peak < 32 * 2**20, peak


BPI_PATH = os.environ.get("XLOG_BPI2011_CSV", "")


@pytest.mark.skipif(not (BPI_PATH and os.path.exists(BPI_PATH)),
                    reason="real hospital log not supplied")
def test_parse_real_bpi_shaped_log():
    schema = {"case_id": "Case ID", "activity": "Activity",
              "timestamp": "time:timestamp", "age": "Age",
              "diagnosis_code": [f"Diagnosis code:{i}" if i else "Diagnosis code"
                                 for i in range(16)]}
    log = parse_log(BPI_PATH, schema)
    assert len(log.cases) == 1142
    assert log.n_events() == 150291
