"""Intercept the recurrent hidden layer of a trained network, compress it to
a 2-D plane with an autoencoder, and hunt for misclassification structure."""

import numpy as np

from xlog import encode, eventlog, latent, seqnet, svgplot, synth

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
seq = encode.encode_sequences(clean, vocab, T=9, split=split)
tr, te = seq.take(split.train_indices), seq.take(split.test_indices)

model = seqnet.build_model("lstm", 20, seq.feature_names, seq.cat_sizes,
                           seq.label_names, seed=7)
seqnet.train(model, tr.X, tr.mask, tr.Y, epochs=120, lr=0.5, seed=7,
             validation=(te.X, te.mask, te.Y))

# capture the last true-masked hidden state of every case
acts = latent.capture_activations(model, seq, layer=0)
print("captured activations:", acts.values.shape)

# grid-search the autoencoder feeder width; rank projections by the
# silhouette of their k-means clusters
rows, projections, reports = latent.grid_search_ae(acts, [2, 4, 8, 16, 32],
                                                   epochs=300, lr=0.05, seed=5)
print(f"{'n1':>4}{'mse':>12}{'silhouette':>12}")
for row in rows:
    star = " *" if row.best else ""
    print(f"{row.n1:>4}{row.mse:>12.4f}{row.silhouette:>12.3f}{star}")

proj, rep = projections[0], reports[0]
print(f"\nk-means purity: {rep.purity:.3f}")
for c, ids in rep.misclassified.items():
    label = rep.majority_label[c]
    print(f"cluster {c} (majority {label}, {rep.cluster_sizes[c]} cases): "
          f"{len(ids)} suspects {ids[:5]}")

names = acts.label_names
svg = svgplot.scatter_chart(proj.coordinates[:, 0], proj.coordinates[:, 1],
                            [names[i] for i in acts.true_labels],
                            [names[i] for i in acts.predicted_labels],
                            title="latent projection (x = prediction differs)")
with open("demo_projection.svg", "w", encoding="utf-8") as fh:
    fh.write(svg)
print("wrote demo_projection.svg")
