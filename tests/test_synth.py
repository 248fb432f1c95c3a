import json

import numpy as np
import pytest

from xlog import synth
from xlog.eventlog import parse_log
from xlog.synth import AgeRule, ClassSpec, SyntheticSpec, generate_synthetic


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


def test_csv_roundtrip_through_parse(tmp_path):
    log, _ = generate_synthetic(basic_spec(), seed=7)
    path = tmp_path / "events.csv"
    path.write_text(synth.log_to_csv(log), encoding="utf-8")
    back = parse_log(path, synth.DEFAULT_SCHEMA)
    assert len(back.cases) == len(log.cases)
    assert back.n_events() == sum(len(c.events) for c in log.cases)
    orig = {c.case_id: c for c in log.cases}
    for case in back.cases:
        ref = orig[case.case_id]
        assert [e.activity for e in case.events] == [e.activity for e in ref.events]
        assert case.age == ref.age
        assert case.diagnosis_code == ref.diagnosis_code
