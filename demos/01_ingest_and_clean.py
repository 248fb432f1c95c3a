"""Walk through ingestion: synthesize a small hospital-style event log,
round-trip it through CSV, clean it, and look at feature correlations."""

import dataclasses

import numpy as np

from xlog import eventlog, synth

# a log with three patient groups; one group is driven by an age rule
spec = synth.SyntheticSpec(
    classes=[
        synth.ClassSpec("c_vulva", ["mot_a"], cases=30),
        synth.ClassSpec("c_mix106", ["mot_m"], cases=30),
        synth.ClassSpec("c_cervix", ["mot_z"], cases=30),
    ],
    noise_vocab=8, min_length=5, max_length=9,
    age_rule=synth.AgeRule(label="c_mix106", threshold=70),
)
log, manifest = synth.generate_synthetic(spec, seed=1)
print(f"generated {len(log.cases)} cases, {sum(len(c.events) for c in log.cases)} events")
print("planted truth:", manifest["age_rule"])

# drop one label so the cleaner has something to impute
log.cases[0] = dataclasses.replace(log.cases[0], diagnosis_code=None)

# write the flat one-event-per-row CSV and parse it back into a columnar table
with open("demo_events.csv", "w", encoding="utf-8") as fh:
    fh.write(synth.log_to_csv(log))
parsed = eventlog.parse_log("demo_events.csv", synth.DEFAULT_SCHEMA)
print("parsed issues:", parsed.issues or "none")
print(f"parsed {len(parsed.case_ids)} cases, {parsed.n_events()} events;",
      "first case starts with", parsed.cases[0].events[0])

clean, report = eventlog.clean_log(parsed, min_class_count=4)
print("imputed labels:", report.imputed_labels)
print("kept classes:", sorted(report.kept_classes))
print("class counts:", clean.class_counts)

# Pearson correlations over event rows (categoricals rank-encoded)
features = ["activity", "age", "years_in_treatment", "diagnosis_code"]
corr = eventlog.correlation_matrix(clean, features)
print("\ncorrelation matrix over", features)
with np.printoptions(precision=2, suppress=True):
    print(corr.matrix)
if corr.zero_variance:
    print("zero-variance features:", corr.zero_variance)
# the age rule shows up as correlation between age and the diagnosis code
