"""Grid-search the three network architectures on sequences whose classes
differ only in event ORDER; only the recurrent models can win this one."""

import numpy as np

from xlog import encode, eventlog, seqnet, synth

# same token multiset per class, opposite order
spec = synth.SyntheticSpec(
    classes=[
        synth.ClassSpec("ord_uvw", ["tok_u", "tok_v", "tok_w"], cases=150),
        synth.ClassSpec("ord_wvu", ["tok_w", "tok_v", "tok_u"], cases=150),
    ],
    noise_vocab=8, min_length=5, max_length=8,
)
log, _ = synth.generate_synthetic(spec, seed=11)
# through the CSV, as `xlog synth` and `xlog ingest` do
with open("demo_events.csv", "w", encoding="utf-8") as fh:
    fh.write(synth.log_to_csv(log))
parsed = eventlog.parse_log("demo_events.csv", synth.DEFAULT_SCHEMA)
labels = np.asarray(parsed.diagnosis_code)
split = encode.stratified_split(labels, 0.2, seed=13)
vocab = encode.build_vocab(parsed, list(eventlog.DYNAMIC_CATEGORICAL)
                           + list(eventlog.STATIC_CATEGORICAL))
seq = encode.encode_sequences(parsed, vocab, T=8, split=split)
print("sequence tensor:", seq.X.shape, "mask:", seq.mask.shape)

space = [("dense", 25, 60), ("lstm", 20, 60), ("bilstm", 20, 60)]
rows, models = seqnet.grid_search(space, seq, split, seed=7, lr=0.5)

print(f"\n{'architecture':<14}{'nodes':>6}{'epochs':>8}{'accuracy':>10}{'loss':>8}")
for row in rows:
    star = " *" if row["best"] else ""
    print(f"{row['architecture']:<14}{row['nodes']:>6}{row['epochs']:>8}"
          f"{row['accuracy']:>10.3f}{row['loss']:>8.3f}{star}")
# the mean-pooling baseline cannot see order, so it hovers near chance

best = models[0]
curve = best.curve
print(f"\nbest = {best.arch}; final train loss {curve.train_loss[-1]:.3f}, "
      f"validation accuracy {curve.val_acc[-1]:.3f}")
gap = curve.val_loss[-1] - curve.train_loss[-1]
print(f"train/validation loss gap (overfitting indicator): {gap:.3f}")
