"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary, or via ``xlog bench`` for the deterministic pipeline artifact run.
"""

import itertools
import math
import time

import numpy as np
import pytest

from xlog import cli, encode, eventlog, explain, forest, latent, seqnet, synth

from gradcheck import grad_check
from ingest_oracle import table_of
from test_forest import brute_force_best_split


def report(cid, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {cid} {name}: {status}{suffix}")
    assert ok, f"{cid} {name}{suffix}"


# ---------------------------------------------------------------------- 1

def test_c01_tree_root_split_matches_exhaustive_oracle():
    started = time.time()
    rng = np.random.default_rng(42)
    mismatches = 0
    for trial in range(100):
        n = int(rng.integers(5, 201))
        F = int(rng.integers(1, 7))
        C = int(rng.integers(2, 5))
        X = rng.integers(0, 10, size=(n, F)).astype(float) / 2.0
        Y = rng.integers(0, C, size=n)
        tree = forest.fit_tree(X, Y, max_features=F,
                               rng=np.random.default_rng(trial), n_classes=C)
        oracle = brute_force_best_split(X, Y, C)
        if oracle is None:
            ok = tree.feature[0] == forest.LEAF
        else:
            ok = (tree.feature[0] != forest.LEAF
                  and (tree.feature[0], tree.threshold[0]) == (oracle[1], oracle[2]))
        mismatches += 0 if ok else 1
    elapsed = time.time() - started
    report("c01", "tree-oracle",
           mismatches == 0 and elapsed < 30.0,
           f"{mismatches} mismatches over 100 datasets, {elapsed:.1f}s")


# ---------------------------------------------------------------------- 2

def test_c02_gradient_check_every_layer():
    started = time.time()
    rng = np.random.default_rng(7)
    worst = {}
    for arch in ("dense", "lstm", "bilstm"):
        X = np.zeros((6, 5, 4))
        X[:, :, 0] = rng.integers(1, 6, size=(6, 5))
        X[:, :, 1] = rng.integers(1, 5, size=(6, 5))
        X[:, :, 2:] = rng.random((6, 5, 2))
        lengths = rng.integers(1, 6, size=6)
        mask = np.arange(5)[None, :] < lengths[:, None]
        X[~mask] = 0.0
        Y = rng.integers(0, 3, size=6)
        model = seqnet.build_model(arch, 7, [f"f{i}" for i in range(4)],
                                   [5, 4, 0, 0], ["a", "b", "c"], seed=3)
        worst[arch] = grad_check(model, X, mask, Y, epsilon=1e-5, n_coords=120, seed=1)
    elapsed = time.time() - started
    report("c02", "gradient-check",
           max(worst.values()) < 1e-4 and elapsed < 60.0,
           ", ".join(f"{a}={v:.2e}" for a, v in worst.items()) + f", {elapsed:.1f}s")


# ---------------------------------------------------------------------- 3

def test_c03_masking_invariance_under_double_padding():
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(100):
        arch = ("dense", "lstm", "bilstm")[trial % 3]
        M, T = 5, int(rng.integers(2, 7))
        X = np.zeros((M, T, 3))
        X[:, :, 0] = rng.integers(1, 7, size=(M, T))
        X[:, :, 1:] = rng.random((M, T, 2))
        lengths = rng.integers(1, T + 1, size=M)
        mask = np.arange(T)[None, :] < lengths[:, None]
        X[~mask] = 0.0
        Y = rng.integers(0, 2, size=M)
        model = seqnet.build_model(arch, int(rng.integers(3, 10)),
                                   ["tok", "n1", "n2"], [6, 0, 0],
                                   ["y", "n"], seed=trial)
        p1 = seqnet.forward(model, X, mask)
        X2 = np.concatenate([X, np.zeros((M, T, 3))], axis=1)
        mask2 = np.concatenate([mask, np.zeros((M, T), dtype=bool)], axis=1)
        p2 = seqnet.forward(model, X2, mask2)
        worst = max(worst, float(np.abs(p1 - p2).max()))
    report("c03", "masking-invariance", worst <= 1e-12, f"max drift {worst:.2e}")


# ---------------------------------------------------------------------- 4

def test_c04_lime_recovers_linear_coefficients():
    hits, total = 0, 0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        beta = rng.uniform(0.01, 0.04, size=10) * rng.choice([-1.0, 1.0], size=10)

        def predictor(X, beta=beta):
            p = 0.5 + X @ beta
            return np.column_stack([1.0 - p, p])

        background = rng.integers(0, 2, size=(400, 10)).astype(float)
        exp = explain.lime_explain(predictor, np.ones(10), background,
                                   class_index=1, K=10, n_samples=5000,
                                   sigma=0.75 * math.sqrt(10), seed=seed,
                                   categorical=[True] * 10)
        got = np.asarray([exp.weights[f"x{j}"] for j in range(10)])
        rel = np.abs(got - beta) / np.abs(beta)
        hits += int(np.sum(rel < 0.10))
        total += 10
    report("c04", "lime-linear-recovery", hits >= 0.95 * total,
           f"{hits}/{total} coefficients within 10%")


# ---------------------------------------------------------------------- 5

def test_c05_ice_pdp_identity_and_ale_equivalence():
    rng = np.random.default_rng(5)
    X = rng.random((40, 3))

    def mixed(Z):
        p = 0.3 + 0.1 * Z[:, 0] * Z[:, 1] + 0.05 * Z[:, 2]
        return np.column_stack([1.0 - p, p])

    grid = np.linspace(0.0, 1.0, 9)
    c_ice = explain.ice(mixed, X, 0, grid=grid, class_index=1)
    c_pdp = explain.pdp(mixed, X, 0, grid=grid, class_index=1)
    identity = np.array_equal(c_ice.values.mean(axis=0), c_pdp.values)

    xs = np.linspace(0.0, 1.0, 13)
    background = np.asarray(list(itertools.product(xs, xs)))

    def additive(Z):
        p = 0.4 + 0.08 * Z[:, 0] + 0.02 * Z[:, 0] ** 2 - 0.05 * Z[:, 1]
        return np.column_stack([1.0 - p, p])

    c_ale = explain.ale(additive, background, 0, n_intervals=4, class_index=1)
    c_pdp2 = explain.pdp(additive, background, 0, grid=c_ale.grid, class_index=1)
    centered = c_pdp2.values - c_pdp2.values.mean()
    ale_gap = float(np.abs(c_ale.values - centered).max())
    report("c05", "ice-pdp-ale", identity and ale_gap < 1e-6,
           f"identity={identity}, ale gap {ale_gap:.2e}")


# ---------------------------------------------------------------------- 6

def test_c06_submodular_pick_within_greedy_bound():
    bound = 1.0 - 1.0 / math.e
    worst_ratio = 1.0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(3, 13))
        F = int(rng.integers(2, 7))
        B = int(rng.integers(1, 5))
        exps = []
        for i in range(n):
            cols = rng.choice(F, size=int(rng.integers(1, F + 1)), replace=False)
            weights = {f"f{int(j)}": float(rng.uniform(-1.0, 1.0)) for j in cols}
            exps.append(explain.Explanation(
                instance_id=f"i{i:02d}", target_class="c", weights=weights,
                intercept=0.0, fidelity=1.0, kernel_width=1.0))
        summary = explain.submodular_pick(exps, B)
        importance = summary.feature_importance

        def coverage(S):
            feats = set()
            for k in S:
                feats.update(f for f, w in exps[k].weights.items() if w != 0.0)
            return sum(importance[f] for f in feats)

        optimum = max(coverage(S)
                      for S in itertools.combinations(range(n), min(B, n)))
        if optimum > 0:
            worst_ratio = min(worst_ratio, summary.coverage / optimum)
    report("c06", "submodular-pick", worst_ratio >= bound - 1e-12,
           f"worst greedy/optimum ratio {worst_ratio:.4f}")


# ---------------------------------------------------------------------- 7

def test_c07_planted_signal_pipeline():
    started = time.time()
    spec = synth.SyntheticSpec(
        classes=[synth.ClassSpec("c_vulva", ["mot_a"], 50),
                 synth.ClassSpec("c_mix106", ["mot_m"], 50),
                 synth.ClassSpec("c_cervix", ["mot_z"], 50)],
        noise_vocab=8, min_length=5, max_length=9,
        age_rule=synth.AgeRule(label="c_mix106", threshold=70))
    log, _ = synth.generate_synthetic(spec, seed=1)
    clean, _ = eventlog.clean_log(table_of(log), min_class_count=4)
    labels = np.asarray([c.diagnosis_code for c in clean.cases])
    split = encode.stratified_split(labels, 0.2, seed=3)
    vocab = encode.build_vocab(clean, list(eventlog.DYNAMIC_CATEGORICAL)
                               + list(eventlog.STATIC_CATEGORICAL))
    seq = encode.encode_sequences(clean, vocab, 9, split)
    flat = encode.encode_flat(seq)

    ftr, fte = flat.take(split.train_indices), flat.take(split.test_indices)
    model = forest.fit_forest(ftr.X, ftr.Y, 300, 8, seed=5,
                              feature_names=flat.feature_names,
                              label_names=flat.label_names)
    forest_acc = float(np.mean(forest.predict(model, fte.X) == fte.Y))

    str_, ste = seq.take(split.train_indices), seq.take(split.test_indices)
    net = seqnet.build_model("lstm", 20, seq.feature_names, seq.cat_sizes,
                             seq.label_names, seed=7)
    seqnet.train(net, str_.X, str_.mask, str_.Y, epochs=120, lr=0.5, seed=7,
                 validation=(ste.X, ste.mask, ste.Y))
    lstm_acc = seqnet.evaluate(net, ste.X, ste.mask, ste.Y).accuracy

    predictor = lambda X: forest.predict_proba(model, X)
    age_class = flat.label_names.index("c_mix106")
    members = [int(i) for i in split.test_indices if flat.Y[i] == age_class]
    explanations = []
    age_in_top3 = 0
    for i in members:
        exp = explain.lime_explain(predictor, flat.X[i], flat.X,
                                   class_index=age_class, K=5, n_samples=2000,
                                   seed=11, categorical=flat.categorical,
                                   feature_names=flat.feature_names,
                                   instance_id=flat.case_ids[i])
        explanations.append(exp)
        if "age" in exp.ranked_features()[:3]:
            age_in_top3 += 1
    summary = explain.submodular_pick(explanations, 3)

    importance = forest.gini_importance(model)
    top_feature = importance.top(1)[0][0]
    motif_columns = {"activity_0", "activity_code_0"}  # position-0 motif carriers

    elapsed = time.time() - started
    ok = (forest_acc >= 0.9 and lstm_acc >= 0.9
          and age_in_top3 >= 0.8 * len(members)
          and top_feature in motif_columns
          and len(summary.picked) == 3
          and elapsed < 300.0)
    report("c07", "planted-signal-pipeline", ok,
           f"forest={forest_acc:.2f}, lstm={lstm_acc:.2f}, "
           f"age-top3={age_in_top3}/{len(members)}, top-importance={top_feature}, "
           f"{elapsed:.0f}s")


# ---------------------------------------------------------------------- 8

def test_c08_order_sensitivity_recurrent_beats_dense():
    spec = synth.SyntheticSpec(
        classes=[synth.ClassSpec("ord_uvw", ["tok_u", "tok_v", "tok_w"], 150),
                 synth.ClassSpec("ord_wvu", ["tok_w", "tok_v", "tok_u"], 150)],
        noise_vocab=8, min_length=5, max_length=8)
    log = table_of(synth.generate_synthetic(spec, seed=11)[0])
    labels = np.asarray(log.diagnosis_code)
    split = encode.stratified_split(labels, 0.2, seed=13)
    vocab = encode.build_vocab(log, list(eventlog.DYNAMIC_CATEGORICAL)
                               + list(eventlog.STATIC_CATEGORICAL))
    seq = encode.encode_sequences(log, vocab, 8, split)
    tr, te = seq.take(split.train_indices), seq.take(split.test_indices)

    accs = {}
    for arch, nodes, epochs in (("lstm", 20, 150), ("dense", 25, 150)):
        model = seqnet.build_model(arch, nodes, seq.feature_names, seq.cat_sizes,
                                   seq.label_names, seed=7)
        seqnet.train(model, tr.X, tr.mask, tr.Y, epochs=epochs, lr=0.5, seed=7,
                     validation=(te.X, te.mask, te.Y))
        accs[arch] = seqnet.evaluate(model, te.X, te.mask, te.Y).accuracy
    report("c08", "order-sensitivity",
           accs["lstm"] >= 0.9 and accs["dense"] <= 0.6,
           f"lstm={accs['lstm']:.2f}, dense={accs['dense']:.2f}")


# ---------------------------------------------------------------------- 9

def test_c09_latent_blob_purity_and_planted_outlier():
    purities = []
    outlier_found = True
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        centers = rng.normal(size=(3, 20)) * 4.0
        X = np.vstack([centers[i] + rng.normal(size=(50, 20)) for i in range(3)])
        y = np.repeat(np.arange(3), 50)
        X[0] = centers[2]  # class-0 instance planted inside blob 2
        acts = latent.ActivationMatrix(
            values=X, true_labels=y, predicted_labels=y.copy(),
            label_names=["c0", "c1", "c2"],
            case_ids=[f"p{i:03d}" for i in range(len(y))])
        [ae] = latent.fit_autoencoder(acts, [8], epochs=400, lr=0.05, seed=seed)
        coords = latent.project(ae, acts)
        _, rep = latent.analyze_misclassifications(acts, coords, k=3, seed=seed)
        purities.append(rep.purity)
        listed = any("p000" in ids for ids in rep.misclassified.values())
        outlier_found = outlier_found and listed
    report("c09", "latent-clusters",
           min(purities) >= 0.9 and outlier_found,
           f"min purity {min(purities):.3f}, outlier always listed={outlier_found}")


# --------------------------------------------------------------------- 10

def test_c10_table_one_class_filtering():
    from test_eventlog import table1_log
    _, rep = eventlog.clean_log(table1_log(), min_class_count=30)
    ok = rep.kept_classes == {"M11", "M13", "M14", "M16", "106"}
    report("c10", "class-filtering", ok, f"kept={sorted(rep.kept_classes)}")


# --------------------------------------------------------------------- 11

def test_c11_bench_determinism(tmp_path):
    a, b = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["bench", "--seed", "17", "--out", str(a)]) == 0
    assert cli.main(["bench", "--seed", "17", "--out", str(b)]) == 0
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    same_names = files_a == files_b
    diff = [str(rel) for rel in files_a
            if (a / rel).read_bytes() != (b / rel).read_bytes()] if same_names else ["<sets differ>"]
    report("c11", "bench-determinism", same_names and not diff,
           f"{len(files_a)} files compared" + (f", diffs={diff}" if diff else ""))
