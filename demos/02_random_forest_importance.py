"""Train the bagged forest on the flattened window encoding and read off
which columns drive the prediction (gini importance, top-5 bar chart)."""

import numpy as np

from xlog import encode, eventlog, forest, synth

spec = synth.SyntheticSpec(
    classes=[
        synth.ClassSpec("c_vulva", ["mot_a"], cases=50),
        synth.ClassSpec("c_mix106", ["mot_m"], cases=50),
        synth.ClassSpec("c_cervix", ["mot_z"], cases=50),
    ],
    noise_vocab=8, min_length=5, max_length=9,
    age_rule=synth.AgeRule(label="c_mix106", threshold=70),
)
log, _ = synth.generate_synthetic(spec, seed=1)
# through the CSV, as `xlog synth` and `xlog ingest` do
with open("demo_events.csv", "w", encoding="utf-8") as fh:
    fh.write(synth.log_to_csv(log))
parsed = eventlog.parse_log("demo_events.csv", synth.DEFAULT_SCHEMA)
clean, _ = eventlog.clean_log(parsed, min_class_count=4)

labels = np.asarray(clean.diagnosis_code)
split = encode.stratified_split(labels, test_fraction=0.2, seed=3)
vocab = encode.build_vocab(clean, list(eventlog.DYNAMIC_CATEGORICAL)
                           + list(eventlog.STATIC_CATEGORICAL))

# one row per case: first L events concatenated positionally, statics appended
flat = encode.encode_flat(clean, vocab, L=9, split=split)
print("flat matrix:", flat.X.shape, "columns like", flat.feature_names[:3], "...")

tr, te = flat.take(split.train_indices), flat.take(split.test_indices)
model = forest.fit_forest(tr.X, tr.Y, n_estimators=300, max_features=8, seed=5,
                          feature_names=flat.feature_names,
                          label_names=flat.label_names)
acc = float(np.mean(forest.predict(model, te.X) == te.Y))
print(f"test accuracy: {acc:.3f}")

report = forest.gini_importance(model)
print("top-5 features by mean gini decrease:")
for name, value in report.top(5):
    print(f"  {name:<22} {value:.3f}")
# the motif column at position 0 and the patient age dominate, as planted

with open("demo_importance.svg", "w", encoding="utf-8") as fh:
    fh.write(report.to_svg(k=5))
print("wrote demo_importance.svg")
