import json
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from xlog import cli, synth
from xlog.eventlog import Case, Event, EventLog, parse_log
from xlog.synth import AgeRule, ClassSpec, SyntheticSpec, generate_synthetic

from synth_oracle import oracle_csv, oracle_generate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def basic_spec(**kw):
    args = dict(
        classes=[ClassSpec("A", ["mot_a"], 10), ClassSpec("B", ["mot_m"], 10)],
        noise_vocab=6, min_length=4, max_length=7,
        age_rule=AgeRule(label="B", threshold=70))
    args.update(kw)
    return SyntheticSpec(**args)


def test_generate_counts_and_motifs():
    log, manifest = generate_synthetic(basic_spec(), seed=1)
    assert len(log.cases) == 20
    assert manifest["age_rule"]["label"] == "B"
    for case in log.cases:
        tok = case.events[0].activity
        if case.diagnosis_code == "A":
            assert tok == "mot_a"
        else:
            assert tok == "mot_m"


def test_generate_applies_age_rule_exactly():
    log, _ = generate_synthetic(basic_spec(), seed=2)
    for case in log.cases:
        assert (case.age > 70) == (case.diagnosis_code == "B")


def test_generate_deterministic_per_seed():
    a, _ = generate_synthetic(basic_spec(), seed=5)
    b, _ = generate_synthetic(basic_spec(), seed=5)
    assert synth.log_to_csv(a) == synth.log_to_csv(b)


def test_generate_motif_probability_controls_presence():
    spec = basic_spec(classes=[ClassSpec("A", ["mot_a"], 60, motif_probability=0.5),
                               ClassSpec("B", ["mot_m"], 10)])
    log, _ = generate_synthetic(spec, seed=3)
    hits = sum(1 for c in log.cases if c.diagnosis_code == "A"
               and c.events[0].activity == "mot_a")
    assert 15 <= hits <= 45


def test_generate_rejects_bad_specs():
    with pytest.raises(ValueError, match="distinct"):
        generate_synthetic(basic_spec(classes=[
            ClassSpec("A", ["m"], 10), ClassSpec("B", ["m"], 10)]), seed=0)
    with pytest.raises(ValueError, match="4 cases"):
        generate_synthetic(basic_spec(classes=[
            ClassSpec("A", ["m"], 2), ClassSpec("B", ["n"], 10)]), seed=0)
    with pytest.raises(ValueError, match="fit"):
        generate_synthetic(basic_spec(classes=[
            ClassSpec("A", ["m1", "m2", "m3", "m4", "m5"], 10),
            ClassSpec("B", ["n"], 10)]), seed=0)
    with pytest.raises(ValueError, match="unknown class"):
        generate_synthetic(basic_spec(age_rule=AgeRule(label="Z")), seed=0)


def test_generate_rejects_a_value_that_log_to_csv_cannot_write():
    # cells are written unquoted, so a comma would shift the later columns
    for bad in ("a,b", 'a"b', "a\nb", "a\rb"):
        for spec in (basic_spec(classes=[ClassSpec(bad, ["m"], 10), ClassSpec("B", ["n"], 10)]),
                     basic_spec(classes=[ClassSpec("A", [bad], 10), ClassSpec("B", ["n"], 10)]),
                     basic_spec(treatments=["T1", bad])):
            with pytest.raises(ValueError, match="comma") as err:
                generate_synthetic(spec, seed=0)
            assert repr(bad) in str(err.value)


def test_spec_json_roundtrip():
    text = json.dumps({
        "classes": [{"label": "A", "motif": ["x"], "cases": 5},
                    {"label": "B", "motif": ["y"], "cases": 5,
                     "motif_position": 1}],
        "noise_vocab": 4, "min_length": 3, "max_length": 5,
        "age_rule": {"label": "A", "threshold": 65}})
    spec = SyntheticSpec.from_json(text)
    assert spec.classes[1].motif_position == 1
    assert spec.age_rule.threshold == 65


def test_spec_json_takes_field_defaults_and_rejects_unknown_keys():
    classes = [{"label": "A", "motif": ["x"], "cases": 5}]
    assert SyntheticSpec.from_json(json.dumps({"classes": classes})) == SyntheticSpec(
        classes=[ClassSpec("A", ["x"], 5)])
    text = json.dumps({"classes": classes, "noise_vocabulary": 40, "max_len": 9})
    with pytest.raises(ValueError, match="'max_len', 'noise_vocabulary'"):
        SyntheticSpec.from_json(text)


def test_csv_roundtrip_through_parse(tmp_path):
    log, _ = generate_synthetic(basic_spec(), seed=7)
    log.cases[3] = replace(log.cases[3], diagnosis_code=None)
    path = tmp_path / "events.csv"
    path.write_text(synth.log_to_csv(log), encoding="utf-8")
    back = parse_log(path, synth.DEFAULT_SCHEMA)
    assert len(back.cases) == len(log.cases)
    assert back.n_events() == sum(len(c.events) for c in log.cases)
    orig = {c.case_id: c for c in log.cases}
    assert back.diagnosis_code.count(None) == 1
    statics = ("age", "diagnosis_code", "treatment_code", "combination_id")
    fields = ("activity", "department", "num_executions", "activity_code",
              "producer_code", "section")
    for case in back.cases:
        ref = orig[case.case_id]
        assert [getattr(case, f) for f in statics] == [getattr(ref, f) for f in statics]
        assert ([[getattr(e, f) for f in fields] for e in case.events]
                == [[getattr(e, f) for f in fields] for e in ref.events])
        # the writer prints whole seconds
        assert [e.timestamp for e in case.events] == [
            datetime.fromtimestamp(e.timestamp, tz=timezone.utc).replace(microsecond=0).timestamp()
            for e in ref.events]


def oracle_specs(monkeypatch):
    """The perfbench workload specs, the bench spec and a motif-probability
    spec without an age rule, as JSON objects."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    specs = [workloads.synth_spec(w) for w in workloads.WORKLOADS.values()]
    half = {"classes": [{"label": "A", "motif": ["mot_a", "mot_b"], "cases": 40,
                         "motif_position": 1, "motif_probability": 0.5},
                        {"label": "B", "motif": ["mot_m"], "cases": 30}],
            "noise_vocab": 9, "min_length": 3, "max_length": 11, "treatments": ["T1", "T2", "T3"]}
    return specs + [cli.BENCH_SPEC, half]


def test_columnar_generator_and_writer_match_the_per_token_oracle(monkeypatch):
    for i, obj in enumerate(oracle_specs(monkeypatch)):
        spec = SyntheticSpec.from_json(json.dumps(obj))
        for seed in (0, 1, 2 + 7919 * i):
            log, _ = generate_synthetic(spec, seed)
            ref = oracle_generate(spec, seed)
            assert log == ref
            assert synth.log_to_csv(log) == oracle_csv(ref)


def test_log_to_csv_matches_the_oracle_on_blanked_labels_and_empty_logs(monkeypatch):
    spec = SyntheticSpec.from_json(json.dumps(oracle_specs(monkeypatch)[0]))
    log, _ = generate_synthetic(spec, 5)
    blanked = np.random.default_rng(5).choice(len(log.cases), size=50, replace=False).tolist()
    for i in blanked:
        log.cases[i] = replace(log.cases[i], diagnosis_code=None)
    text = synth.log_to_csv(log)
    assert text == oracle_csv(log)
    assert text.count(",,") == sum(len(log.cases[i].events) for i in blanked)
    for empty in (EventLog(cases=[]), EventLog(cases=[Case("c0", [], age=40)])):
        assert synth.log_to_csv(empty) == oracle_csv(empty)


def one_case_log(timestamps):
    events = [Event(activity=f"a{k}", timestamp=t, department="d", num_executions=k,
                    activity_code="x", producer_code="p", section="s")
              for k, t in enumerate(timestamps)]
    return EventLog(cases=[Case("c0", events, age=61, diagnosis_code="L",
                                treatment_code="T", combination_id="C")])


def test_log_to_csv_rounds_timestamps_at_the_microsecond_as_the_oracle_does():
    base = synth.BASE_TS
    stamps = [
        base, base + 0.4, base + 0.9999994, base + 0.9999995, base + 0.9999996,
        base + 0.0078125,  # (t - int(t)) * 1e6 is exactly 7812.5
        0.9999985, 0.9999995,  # ties at 999998.5 and 999999.5 microseconds
        0.0, -0.0000004, -0.0000005, -0.0000015, -0.5, -1.0, 86400, -86401,
        -30610224000.0, 253402300799.0, 253402300799.9999,
    ]
    text = synth.log_to_csv(one_case_log(stamps))
    assert text == oracle_csv(one_case_log(stamps))
    assert "1970-01-01 00:00:01" in text and "1969-12-31 23:59:59" in text


@pytest.mark.parametrize("stamp", [float("nan"), float("inf"), float("-inf"),
                                   253402300800.0, 253402300799.9999996, -30610224001.0])
def test_log_to_csv_rejects_a_timestamp_outside_the_four_digit_years(stamp):
    with pytest.raises(ValueError, match="not a time in the years 1000 to 9999"):
        synth.log_to_csv(one_case_log([synth.BASE_TS, stamp]))
