"""Command-line orchestration: ingest, train, explain, project, synth, bench.

A run is configured by flags, optionally seeded from a key=value config file
(flags win). Every emitted artifact embeds the config hash, the seed and the
tool version, and two runs with equal config produce byte-identical output.
On failure, files already written by the failing subcommand are removed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__, encode, eventlog, explain, forest, latent, seqnet, svgplot, synth


def parse_config_file(path) -> dict:
    """Minimal key = value format: strings (optionally quoted), numbers,
    booleans; '#' starts a comment."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = (s.strip() for s in line.split("=", 1))
            if val.startswith(('"', "'")) and val.endswith(val[0]) and len(val) >= 2:
                out[key] = val[1:-1]
            elif val.lower() in ("true", "false"):
                out[key] = val.lower() == "true"
            else:
                try:
                    out[key] = int(val)
                except ValueError:
                    try:
                        out[key] = float(val)
                    except ValueError:
                        out[key] = val
    return out


#: config keys holding filesystem paths; excluded from the config hash so the
#: same logical run emits identical bytes regardless of where it writes
PATH_KEYS = {"config", "out", "csv", "schema", "data", "checkpoint", "spec"}

_ACTIVE_RUNS: list["Run"] = []


class Run:
    """Tracks effective config, output files, and metadata stamping."""

    def __init__(self, args, keys):
        cfg = {}
        if getattr(args, "config", None):
            cfg.update(parse_config_file(args.config))
        for key in keys:
            flag = getattr(args, key, None)
            if flag is not None:
                cfg[key] = flag
            cfg.setdefault(key, None)
        self.cfg = cfg
        self.seed = int(cfg.get("seed") or 0)
        hashed = {k: cfg[k] for k in sorted(cfg) if k not in PATH_KEYS}
        blob = json.dumps(hashed, sort_keys=True, default=str)
        self.config_hash = hashlib.sha256(blob.encode()).hexdigest()[:16]
        self.written: list[str] = []
        _ACTIVE_RUNS.append(self)

    @property
    def meta(self) -> dict:
        return {"config_hash": self.config_hash, "seed": self.seed,
                "version": __version__}

    @property
    def meta_line(self) -> str:
        return f"config={self.config_hash} seed={self.seed} version={__version__}"

    def path(self, out_dir, name) -> str:
        os.makedirs(out_dir, exist_ok=True)
        return os.path.join(out_dir, name)

    def write_text(self, path, text) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        self.written.append(path)

    def write_json(self, path, payload: dict) -> None:
        payload = dict(payload)
        payload["meta"] = self.meta
        self.write_text(path, json.dumps(payload, indent=2) + "\n")

    def write_csv(self, path, body: str) -> None:
        self.write_text(path, f"# {self.meta_line}\n{body}")

    def cleanup(self) -> None:
        for path in self.written:
            try:
                os.remove(path)
            except OSError:
                pass


def _require(cfg, *keys):
    for key in keys:
        if cfg.get(key) in (None, ""):
            raise SystemExit(f"missing required option --{key.replace('_', '-')}")


# ------------------------------------------------------------------ ingest

def cmd_ingest(args) -> int:
    run = Run(args, ["csv", "schema", "min_class", "window", "split", "seed", "out"])
    cfg = run.cfg
    _require(cfg, "csv", "schema", "out")
    min_class = int(cfg.get("min_class") or 30)
    window = int(cfg.get("window") or 64)
    fraction = float(cfg.get("split") or 0.2)
    with open(cfg["schema"], encoding="utf-8") as fh:
        schema = {k: v for k, v in json.load(fh).items() if k != "meta"}
    log = eventlog.parse_log(cfg["csv"], schema)
    clean, report = eventlog.clean_log(log, min_class_count=min_class)
    labels = [c.diagnosis_code for c in clean.cases]
    split = encode.stratified_split(np.asarray(labels), fraction, run.seed)
    vocab = encode.build_vocab(clean, list(eventlog.DYNAMIC_CATEGORICAL)
                               + list(eventlog.STATIC_CATEGORICAL))
    seq = encode.encode_sequences(clean, vocab, window, split)
    flat = encode.flatten_sequences(seq)
    out = cfg["out"]
    seq.save(run.path(out, "sequences.xlg"), meta=run.meta)
    run.written += [run.path(out, "sequences.xlg"), run.path(out, "sequences.xlg.json")]
    flat.save(run.path(out, "flat.xlg"), meta=run.meta)
    run.written += [run.path(out, "flat.xlg"), run.path(out, "flat.xlg.json")]
    run.write_text(run.path(out, "vocab.json"), vocab.to_json(meta=run.meta) + "\n")
    run.write_json(run.path(out, "cleaning_report.json"),
                   json.loads(report.to_json()) | {"issues": clean.issues})
    run.write_json(run.path(out, "split.json"),
                   {"train": [int(i) for i in split.train_indices],
                    "test": [int(i) for i in split.test_indices]})
    return 0


# ------------------------------------------------------------------- train

def _parse_forest_grid(spec: str):
    cells = []
    for part in spec.split(","):
        a, b = part.lower().split("x")
        cells.append((int(a), int(b)))
    return cells


def _parse_seqnet_grid(spec: str, default_arch: str):
    space = []
    for part in spec.split(","):
        bits = part.split(":")
        if len(bits) == 3:
            space.append((bits[0], int(bits[1]), int(bits[2])))
        else:
            a, b = part.lower().split("x")
            space.append((default_arch, int(a), int(b)))
    return space


def _kfold_indices(Y, k, seed):
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for label in np.unique(Y):
        idx = np.flatnonzero(Y == label)
        idx = idx[rng.permutation(len(idx))]
        for i, j in enumerate(idx):
            folds[i % k].append(int(j))
    return [np.asarray(sorted(f), dtype=np.int64) for f in folds]


def _train_forest(run, data_dir, out, grid_spec, cv_k, min_leaf):
    flat = encode.FlatDataset.load(os.path.join(data_dir, "flat.xlg"))
    with open(os.path.join(data_dir, "split.json"), encoding="utf-8") as fh:
        sp = json.load(fh)
    train_idx = np.asarray(sp["train"], dtype=np.int64)
    test_idx = np.asarray(sp["test"], dtype=np.int64)
    tr, te = flat.take(train_idx), flat.take(test_idx)
    folds = _kfold_indices(tr.Y, cv_k, run.seed)
    fits = [np.setdiff1d(np.arange(len(tr.Y)), va) for va in folds]
    rows = []
    for n_est, max_feat in _parse_forest_grid(grid_spec):
        accs = []
        for va, fit in zip(folds, fits):
            model = forest.fit_forest(tr.X[fit], tr.Y[fit], n_est, max_feat,
                                      seed=run.seed, min_leaf=min_leaf)
            accs.append(float(np.mean(forest.predict(model, tr.X[va]) == tr.Y[va])))
        rows.append({"estimators": n_est, "max_features": max_feat,
                     "cv_accuracy": float(np.mean(accs)), "best": False})
    rows.sort(key=lambda r: (-r["cv_accuracy"], r["estimators"]))
    rows[0]["best"] = True
    best = rows[0]
    model = forest.fit_forest(tr.X, tr.Y, best["estimators"], best["max_features"],
                              seed=run.seed, min_leaf=min_leaf,
                              feature_names=flat.feature_names,
                              label_names=flat.label_names)
    test_acc = float(np.mean(forest.predict(model, te.X) == te.Y))
    best["test_accuracy"] = test_acc
    run.write_json(run.path(out, "train_table.json"), {"model": "forest", "rows": rows})
    body = "estimators,max_features,cv_accuracy,best\n" + "\n".join(
        f"{r['estimators']},{r['max_features']},{r['cv_accuracy']!r},{int(r['best'])}"
        for r in rows) + "\n"
    run.write_csv(run.path(out, "train_table.csv"), body)
    run.write_json(run.path(out, "forest.json"), json.loads(forest.to_json(model)))
    imp = forest.gini_importance(model)
    run.write_json(run.path(out, "importance.json"), json.loads(imp.to_json()))
    run.write_text(run.path(out, "importance.svg"), imp.to_svg(k=5, meta=run.meta_line))
    return 0


def _train_seqnet(run, data_dir, out, grid_spec, default_arch, lr):
    seq = encode.SequenceDataset.load(os.path.join(data_dir, "sequences.xlg"))
    with open(os.path.join(data_dir, "split.json"), encoding="utf-8") as fh:
        sp = json.load(fh)
    split = encode.Split(np.asarray(sp["train"], dtype=np.int64),
                         np.asarray(sp["test"], dtype=np.int64))
    space = _parse_seqnet_grid(grid_spec, default_arch)
    rows, models = seqnet.grid_search(space, seq, split, seed=run.seed, lr=lr)
    run.write_json(run.path(out, "train_table.json"), {"model": "seqnet", "rows": rows})
    body = "architecture,nodes,epochs,accuracy,loss,best\n" + "\n".join(
        f"{r['architecture']},{r['nodes']},{r['epochs']},{r['accuracy']!r},"
        f"{r['loss']!r},{int(r['best'])}" for r in rows) + "\n"
    run.write_csv(run.path(out, "train_table.csv"), body)
    best = models[0]
    seqnet.save_checkpoint(run.path(out, "seqnet.xlg"), best)
    run.written += [run.path(out, "seqnet.xlg"), run.path(out, "seqnet.xlg.json")]
    curve = best.curve
    body = "epoch,train_loss,train_acc,val_loss,val_acc\n" + "\n".join(
        ",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
        for row in curve.rows()) + "\n"
    run.write_csv(run.path(out, "curve.csv"), body)
    series = {"train_loss": curve.train_loss, "train_acc": curve.train_acc}
    if curve.val_loss:
        series["val_loss"] = curve.val_loss
        series["val_acc"] = curve.val_acc
    run.write_text(run.path(out, "curve.svg"),
                   svgplot.line_chart(curve.epochs, series,
                                      title="loss/accuracy vs epoch",
                                      meta=run.meta_line))
    return 0


def cmd_train(args) -> int:
    run = Run(args, ["data", "model", "grid", "split", "seed", "out", "cv_k",
                     "min_leaf", "lr"])
    cfg = run.cfg
    _require(cfg, "data", "model", "grid", "out")
    model = cfg["model"]
    if model == "forest":
        return _train_forest(run, cfg["data"], cfg["out"], cfg["grid"],
                             int(cfg.get("cv_k") or 5), int(cfg.get("min_leaf") or 1))
    if model in ("dense", "lstm", "bilstm", "seqnet"):
        return _train_seqnet(run, cfg["data"], cfg["out"], cfg["grid"],
                             model if model != "seqnet" else "lstm",
                             float(cfg.get("lr") or 0.5))
    raise SystemExit(f"unknown model {model!r}")


# ----------------------------------------------------------------- explain

def _load_predictor(checkpoint):
    with open(checkpoint, encoding="utf-8") as fh:
        text = fh.read()
    try:
        model = forest.from_json(text)
    except ValueError as exc:
        raise SystemExit("explain needs a forest checkpoint; train --model forest") from exc
    return model, (lambda X: forest.predict_proba(model, X))


def cmd_explain(args) -> int:
    run = Run(args, ["data", "checkpoint", "method", "instance", "target",
                     "feature", "k_features", "n_samples", "sigma", "budget",
                     "grid_points", "seed", "out", "surrogate_kind", "max_candidates"])
    cfg = run.cfg
    _require(cfg, "data", "checkpoint", "method", "out")
    out = cfg["out"]
    flat = encode.FlatDataset.load(os.path.join(cfg["data"], "flat.xlg"))
    model, predictor = _load_predictor(cfg["checkpoint"])
    method = cfg["method"]
    k_features = int(cfg.get("k_features") or 5)
    n_samples = int(cfg.get("n_samples") or 5000)
    sigma = float(cfg["sigma"]) if cfg.get("sigma") else None

    def explain_one(i):
        target = int(cfg["target"]) if cfg.get("target") not in (None, "") \
            else int(np.argmax(predictor(flat.X[i:i + 1])[0]))
        return explain.lime_explain(
            predictor, flat.X[i], flat.X, class_index=target, K=k_features,
            n_samples=n_samples, sigma=sigma, seed=run.seed,
            categorical=flat.categorical, feature_names=flat.feature_names,
            instance_id=flat.case_ids[i] if flat.case_ids else str(i),
            class_label=flat.label_names[target])

    if method == "lime":
        _require(cfg, "instance")
        ids = [s for s in str(cfg["instance"]).split(",") if s]
        for raw in ids:
            i = flat.case_ids.index(raw) if raw in flat.case_ids else int(raw)
            exp = explain_one(i)
            stem = f"lime_{exp.instance_id}"
            run.write_json(run.path(out, stem + ".json"), exp.to_dict())
            run.write_text(run.path(out, stem + ".svg"), exp.to_svg(meta=run.meta_line))
    elif method == "pick":
        _require(cfg, "target")
        target = int(cfg["target"])
        members = [int(i) for i in np.flatnonzero(flat.Y == target)]
        members = members[: int(cfg.get("max_candidates") or 12)]
        exps = [explain_one(i) for i in members]
        summary = explain.submodular_pick(exps, int(cfg.get("budget") or 3))
        run.write_json(run.path(out, "global_summary.json"),
                       json.loads(summary.to_json()))
        for exp in summary.explanations:
            run.write_text(run.path(out, f"pick_{exp.instance_id}.svg"),
                           exp.to_svg(meta=run.meta_line))
    elif method in ("pdp", "ice", "ale"):
        _require(cfg, "feature")
        target = int(cfg.get("target") or 0)
        feat = cfg["feature"]
        if method == "pdp":
            curve = explain.pdp(predictor, flat.X, feat, class_index=target,
                                feature_names=flat.feature_names)
        elif method == "ice":
            curve = explain.ice(predictor, flat.X, feat, class_index=target,
                                feature_names=flat.feature_names)
        else:
            curve = explain.ale(predictor, flat.X, feat,
                                n_intervals=int(cfg.get("grid_points") or 10),
                                class_index=target, feature_names=flat.feature_names)
        stem = f"{method}_{feat}"
        run.write_text(run.path(out, stem + ".csv"), curve.to_csv(meta=run.meta_line))
        run.write_text(run.path(out, stem + ".svg"), curve.to_svg(meta=run.meta_line))
    elif method == "surrogate":
        kind = cfg.get("surrogate_kind") or "tree"
        _, report = explain.fit_global_surrogate(predictor, flat.X, kind)
        run.write_json(run.path(out, "surrogate_report.json"), {
            "kind": report.kind, "r2_per_class": report.r2_per_class,
            "agreement": report.agreement, "degenerate": report.degenerate})
    else:
        raise SystemExit(f"unknown explain method {method!r}")
    return 0


# ----------------------------------------------------------------- project

def cmd_project(args) -> int:
    run = Run(args, ["data", "checkpoint", "layer", "bottleneck", "bottleneck_grid",
                     "n1", "k", "epochs", "lr", "seed", "out"])
    cfg = run.cfg
    _require(cfg, "data", "checkpoint", "out")
    if cfg.get("bottleneck") not in (None, 2):
        raise SystemExit("the latent bottleneck is fixed at 2 (plotting plane)")
    out = cfg["out"]
    seq = encode.SequenceDataset.load(os.path.join(cfg["data"], "sequences.xlg"))
    model = seqnet.load_checkpoint(cfg["checkpoint"])
    acts = latent.capture_activations(model, seq, layer=int(cfg.get("layer") or 0))
    epochs = int(cfg.get("epochs") or 400)
    lr = float(cfg.get("lr") or 0.05)
    k = int(cfg.get("k") or len(seq.label_names))
    if cfg.get("bottleneck_grid"):
        candidates = [int(s) for s in str(cfg["bottleneck_grid"]).split(",")]
        rows, projections = latent.grid_search_ae(acts, candidates, epochs=epochs,
                                                  lr=lr, seed=run.seed, k=k)
        run.write_json(run.path(out, "ae_grid.json"),
                       {"rows": [{"n1": r.n1, "mse": r.mse,
                                  "silhouette": r.silhouette, "best": r.best}
                                 for r in rows]})
        proj = projections[0]
    else:
        ae = latent.fit_autoencoder(acts, n1=int(cfg.get("n1") or 8),
                                    epochs=epochs, lr=lr, seed=run.seed)
        proj = latent.project(ae, acts)
    report = latent.analyze_misclassifications(proj, k=k, seed=run.seed)
    run.write_csv(run.path(out, "projection.csv"), proj.to_csv())
    names = proj.label_names
    run.write_text(run.path(out, "projection.svg"), svgplot.scatter_chart(
        proj.coordinates[:, 0], proj.coordinates[:, 1],
        [names[i] for i in proj.true_labels],
        [names[i] for i in proj.predicted_labels],
        title=f"latent projection ({model.arch}, width {acts.values.shape[1]})",
        meta=run.meta_line))
    run.write_json(run.path(out, "cluster_report.json"),
                   report.to_dict() | {"layer_width": int(acts.values.shape[1])})
    return 0


# -------------------------------------------------------------------- synth

def cmd_synth(args) -> int:
    run = Run(args, ["spec", "seed", "out"])
    cfg = run.cfg
    _require(cfg, "spec", "out")
    with open(cfg["spec"], encoding="utf-8") as fh:
        spec = synth.SyntheticSpec.from_json(fh.read())
    log, manifest = synth.generate_synthetic(spec, seed=run.seed)
    out = cfg["out"]
    run.write_text(run.path(out, "events.csv"), synth.log_to_csv(log))
    run.write_json(run.path(out, "manifest.json"), manifest)
    run.write_json(run.path(out, "schema.json"), dict(synth.DEFAULT_SCHEMA))
    return 0


# -------------------------------------------------------------------- bench

BENCH_SPEC = {
    "classes": [
        {"label": "c_vulva", "motif": ["mot_a"], "cases": 30},
        {"label": "c_mix106", "motif": ["mot_m"], "cases": 30},
        {"label": "c_cervix", "motif": ["mot_z"], "cases": 30},
    ],
    "noise_vocab": 8,
    "min_length": 5,
    "max_length": 9,
    "age_rule": {"label": "c_mix106", "threshold": 70},
}


def cmd_bench(args) -> int:
    """Small deterministic end-to-end pipeline emitting every artifact kind."""
    run = Run(args, ["seed", "out"])
    _require(run.cfg, "out")
    out = run.cfg["out"]
    os.makedirs(out, exist_ok=True)
    spec_path = run.path(out, "bench_spec.json")
    run.write_text(spec_path, json.dumps(BENCH_SPEC, indent=2) + "\n")

    ns = argparse.Namespace(config=None, spec=spec_path, seed=run.seed,
                            out=os.path.join(out, "synth"))
    cmd_synth(ns)
    ns = argparse.Namespace(config=None, csv=os.path.join(out, "synth", "events.csv"),
                            schema=os.path.join(out, "synth", "schema.json"),
                            min_class=4, window=9, split=0.2, seed=run.seed,
                            out=os.path.join(out, "data"))
    cmd_ingest(ns)
    ns = argparse.Namespace(config=None, data=os.path.join(out, "data"),
                            model="forest", grid="60x8", split=None,
                            seed=run.seed, out=os.path.join(out, "forest"),
                            cv_k=3, min_leaf=1, lr=None)
    cmd_train(ns)
    ns = argparse.Namespace(config=None, data=os.path.join(out, "data"),
                            model="lstm", grid="12x40", split=None, seed=run.seed,
                            out=os.path.join(out, "lstm"), cv_k=None,
                            min_leaf=None, lr=0.5)
    cmd_train(ns)
    flat = encode.FlatDataset.load(os.path.join(out, "data", "flat.xlg"))
    age_class = flat.label_names.index("c_mix106")
    ns = argparse.Namespace(config=None, data=os.path.join(out, "data"),
                            checkpoint=os.path.join(out, "forest", "forest.json"),
                            method="pick", instance=None, target=age_class,
                            feature=None, k_features=4, n_samples=600,
                            sigma=None, budget=2, grid_points=None,
                            seed=run.seed, out=os.path.join(out, "explain"),
                            surrogate_kind=None, max_candidates=5)
    cmd_explain(ns)
    ns = argparse.Namespace(config=None, data=os.path.join(out, "data"),
                            checkpoint=os.path.join(out, "forest", "forest.json"),
                            method="pdp", instance=None, target=age_class,
                            feature="age", k_features=None, n_samples=None,
                            sigma=None, budget=None, grid_points=None,
                            seed=run.seed, out=os.path.join(out, "explain"),
                            surrogate_kind=None, max_candidates=None)
    cmd_explain(ns)
    ns = argparse.Namespace(config=None, data=os.path.join(out, "data"),
                            checkpoint=os.path.join(out, "lstm", "seqnet.xlg"),
                            layer=0, bottleneck_grid=None, n1=6, k=3,
                            epochs=150, lr=0.05, seed=run.seed,
                            out=os.path.join(out, "latent"))
    cmd_project(ns)
    with open(os.path.join(out, "forest", "train_table.json"), encoding="utf-8") as fh:
        forest_table = json.load(fh)
    with open(os.path.join(out, "lstm", "train_table.json"), encoding="utf-8") as fh:
        lstm_table = json.load(fh)
    run.write_json(run.path(out, "bench_summary.json"), {
        "forest_cv_accuracy": forest_table["rows"][0]["cv_accuracy"],
        "forest_test_accuracy": forest_table["rows"][0].get("test_accuracy"),
        "lstm_accuracy": lstm_table["rows"][0]["accuracy"],
    })
    return 0


# --------------------------------------------------------------------- main

def _add_common(p):
    p.add_argument("--config", help="key = value config file; flags override")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xlog",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, clean and encode a CSV event log")
    _add_common(p)
    p.add_argument("--csv")
    p.add_argument("--schema")
    p.add_argument("--min-class", dest="min_class", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--split", type=float)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="grid-search and train a classifier")
    _add_common(p)
    p.add_argument("--data")
    p.add_argument("--model", choices=["forest", "dense", "lstm", "bilstm", "seqnet"])
    p.add_argument("--grid")
    p.add_argument("--split", type=float)
    p.add_argument("--cv-k", dest="cv_k", type=int)
    p.add_argument("--min-leaf", dest="min_leaf", type=int)
    p.add_argument("--lr", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("explain", help="local/global explanations and curves")
    _add_common(p)
    p.add_argument("--data")
    p.add_argument("--checkpoint")
    p.add_argument("--method", choices=["lime", "surrogate", "pdp", "ice", "ale", "pick"])
    p.add_argument("--instance")
    p.add_argument("--target", type=int)
    p.add_argument("--feature")
    p.add_argument("--k-features", dest="k_features", type=int)
    p.add_argument("--n-samples", dest="n_samples", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--budget", type=int)
    p.add_argument("--grid-points", dest="grid_points", type=int)
    p.add_argument("--surrogate-kind", dest="surrogate_kind", choices=["linear", "tree"])
    p.add_argument("--max-candidates", dest="max_candidates", type=int)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("project", help="autoencoder latent projection of hidden layers")
    _add_common(p)
    p.add_argument("--data")
    p.add_argument("--checkpoint")
    p.add_argument("--layer", type=int)
    p.add_argument("--bottleneck", type=int)
    p.add_argument("--bottleneck-grid", dest="bottleneck_grid",
                   help="comma list of feeder widths n1 to grid-search")
    p.add_argument("--n1", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("synth", help="generate a synthetic event log with planted truth")
    _add_common(p)
    p.add_argument("--spec")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="deterministic end-to-end pipeline run")
    _add_common(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _ACTIVE_RUNS.clear()
    try:
        return args.func(args)
    except BaseException as exc:  # partial failure removes partial files
        for run in _ACTIVE_RUNS:
            run.cleanup()
        if isinstance(exc, (SystemExit, KeyboardInterrupt)):
            raise
        print(f"xlog: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
