"""Interrogate a trained forest as a black box: dependence curves, a global
surrogate, local kernel-weighted explanations, and a greedy global summary."""

import numpy as np

from xlog import encode, eventlog, explain, forest, synth

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
split = encode.stratified_split(labels, 0.2, seed=3)
vocab = encode.build_vocab(clean, list(eventlog.DYNAMIC_CATEGORICAL)
                           + list(eventlog.STATIC_CATEGORICAL))
flat = encode.encode_flat(encode.encode_sequences(clean, vocab, 9, split))
tr = flat.take(split.train_indices)
model = forest.fit_forest(tr.X, tr.Y, 300, 8, seed=5,
                          feature_names=flat.feature_names,
                          label_names=flat.label_names)
predictor = lambda X: forest.predict_proba(model, X)
age_class = flat.label_names.index("c_mix106")

# --- dependence curves for the age feature against the age-rule class
curve = explain.pdp(predictor, flat.X, "age", class_index=age_class,
                    feature_names=flat.feature_names)
print("PDP of age:", np.round(curve.values, 3))
ale_curve = explain.ale(predictor, flat.X, "age", n_intervals=6,
                        class_index=age_class, feature_names=flat.feature_names)
print("ALE of age:", np.round(ale_curve.values, 3))
# both jump where the planted rule flips (scaled age ~ threshold)

# --- Algorithm-1 style global surrogate, scored against the black box
surrogate, rep = explain.fit_global_surrogate(predictor, flat.X, "tree", depth=3)
print(f"tree surrogate: label agreement {rep.agreement:.3f}, "
      f"R^2 per class {[round(v, 2) for v in rep.r2_per_class]}")

# --- local explanation for one patient of the age-rule class
idx = int(np.flatnonzero(flat.Y == age_class)[0])
exp = explain.lime_explain(predictor, flat.X[idx], flat.X, class_index=age_class,
                           K=5, n_samples=2000, seed=11,
                           categorical=flat.categorical,
                           feature_names=flat.feature_names,
                           instance_id=flat.case_ids[idx])
print(f"\nlocal weights for {exp.instance_id} (fidelity {exp.fidelity:.2f}):")
for name in exp.ranked_features():
    print(f"  {name:<22} {exp.weights[name]:+.4f}")
with open("demo_local_explanation.svg", "w", encoding="utf-8") as fh:
    fh.write(exp.to_svg())

# --- global summary: explain several patients, pick a covering subset
members = [int(i) for i in np.flatnonzero(flat.Y == age_class)[:8]]
exps = [explain.lime_explain(predictor, flat.X[i], flat.X, class_index=age_class,
                             K=5, n_samples=1000, seed=11,
                             categorical=flat.categorical,
                             feature_names=flat.feature_names,
                             instance_id=flat.case_ids[i]) for i in members]
summary = explain.submodular_pick(exps, budget=3)
print("\nglobal summary picked:", summary.picked)
print("coverage:", round(summary.coverage, 3))
print("most important features:",
      sorted(summary.feature_importance, key=summary.feature_importance.get,
             reverse=True)[:4])
