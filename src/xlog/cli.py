"""Command-line orchestration: ingest, train, explain, project, synth, bench.

A run is configured by flags, optionally seeded from a key=value config file
(flags win). Every emitted artifact embeds the config hash, the seed and the
tool version, and two runs with equal config produce byte-identical output.
On failure, files already written by the failing subcommand are removed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import re
import sys
from collections import Counter
from urllib.parse import quote

import numpy as np

from . import (__version__, container, encode, eventlog, explain, forest, latent, seqnet,
               svgplot, synth)


def parse_config_file(path) -> dict:
    """``key = value`` lines, each value kept as text for its option to parse.
    Matching quotes around a value are dropped, and '#' starts a comment
    only outside them."""
    out = {}
    with open(path, encoding="utf-8-sig") as fh:
        for raw in fh:
            if not raw.split("#", 1)[0].strip():
                continue
            m = re.fullmatch(r"""([^=#]*?)\s*=\s*("[^"]*"|'[^']*'|[^#]*?)\s*(#.*)?""",
                             raw.strip())
            if m is None:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = m[1], m[2]
            if len(val) >= 2 and val[0] in "\"'" and val[-1] == val[0]:
                val = val[1:-1]
            out[key] = val
    return out


#: config keys holding filesystem paths; excluded from the config hash so the
#: same logical run emits identical bytes regardless of where it writes
PATH_KEYS = frozenset({"config", "out", "csv", "schema", "data", "checkpoint", "spec"})


def _bounded(kind, low, high=float("inf")):
    """An option type: ``kind`` parsed from text, then an int at least ``low``
    or a float strictly between ``low`` and ``high``, else ``ArgumentTypeError``.
    Named as ``kind``, so bad text still reads "invalid int value"."""
    def parse(text):
        value = kind(text)
        if kind is int and value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if kind is float and not low < value < high:
            raise argparse.ArgumentTypeError(f"must be in ({low}, {high}), got {value}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _config_value(key, text, action):
    """A config-file value parsed from its text and checked against the
    option's type and choices, as argparse parses and checks the same flag;
    a ``SystemExit`` naming the key otherwise."""
    try:
        parsed = (action.type or str)(text)
    except argparse.ArgumentTypeError as exc:
        raise SystemExit(f"config key {key!r}: {exc}") from None
    except ValueError:
        raise SystemExit(f"config key {key!r}: invalid {action.type.__name__} value "
                         f"{text}") from None
    if action.choices is not None and parsed not in action.choices:
        raise SystemExit(f"config key {key!r}: invalid choice {parsed!r} (choose from "
                         f"{', '.join(map(repr, action.choices))})")
    return parsed


class Run:
    """Tracks effective config, output files, and metadata stamping. A config
    value is parsed as its flag is, and flags win. The hash covers the options
    as given; omitted ones then take their declared default. Used as a context
    manager, it removes the files it wrote when its body raises, and lets the
    exception through."""

    def __init__(self, args):
        options = _options(args.command)
        cfg = parse_config_file(args.config) if args.config else {}
        for key, action in options.items():
            value = getattr(args, key)
            if value is None and key in cfg:
                value = _config_value(key, cfg[key], action)
            cfg[key] = value
        hashed = {k: cfg[k] for k in sorted(cfg) if k not in PATH_KEYS}
        blob = json.dumps(hashed, sort_keys=True)
        self.config_hash = hashlib.sha256(blob.encode()).hexdigest()[:16]
        for key, action in options.items():
            if cfg[key] is None:
                cfg[key] = action.default
        self.cfg = cfg
        self.seed = cfg["seed"]
        self.written: list[str] = []

    def __enter__(self) -> "Run":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            for path in self.written:
                with contextlib.suppress(OSError):
                    os.remove(path)

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
        self.written.append(path)  # before the write, so a partial file is cleaned up too
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)

    def write_json(self, path, payload: dict) -> None:
        self.write_text(path, json.dumps({**payload, "meta": self.meta}, indent=2) + "\n")

    def write_record(self, path, save) -> None:
        """``container.files(path)``, registered, then written by ``save(path, meta=...)``."""
        self.written += container.files(path)
        save(path, meta=self.meta)

    def write_csv(self, path, header, rows) -> None:
        """The meta line as a comment, then ``header`` and one line per row. A
        float cell is written as ``repr(float(v))``, any other with ``str``; a
        cell holding a comma, quote or newline is quoted."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                          for v in row] for row in rows)
        self.write_text(path, f"# {self.meta_line}\n{buf.getvalue()}")


def _require(cfg, *keys):
    for key in keys:
        if cfg.get(key) in (None, ""):
            raise SystemExit(f"missing required option --{key.replace('_', '-')}")


# ------------------------------------------------------------------ ingest

def cmd_ingest(run) -> int:
    cfg = run.cfg
    _require(cfg, "csv", "schema", "out")
    rule = "a schema is a JSON object that maps field names to columns"
    with open(cfg["schema"], encoding="utf-8") as fh:
        try:
            schema = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise eventlog.SchemaError(f"{cfg['schema']}: {exc}; {rule}") from None
    if not isinstance(schema, dict):
        raise eventlog.SchemaError(f"{cfg['schema']}: {rule}, got a {type(schema).__name__}")
    schema.pop("meta", None)
    log = eventlog.parse_log(cfg["csv"], schema)
    clean, report = eventlog.clean_log(log, min_class_count=cfg["min_class"])
    if not report.kept_classes:
        raise SystemExit(f"--min-class {cfg['min_class']} keeps no class; the largest has "
                         f"{max(report.dropped_classes.values(), default=0)} cases")
    labels = np.asarray(clean.diagnosis_code)
    split = encode.stratified_split(labels, cfg["split"], run.seed)
    sizes = Counter(clean.diagnosis_code)
    untested = sorted(set(sizes) - set(labels[split.test_indices].tolist()))
    if untested:
        raise SystemExit(f"--split {cfg['split']} leaves class {untested[0]!r} "
                         f"({sizes[untested[0]]} cases) with no test case; each class "
                         "needs split * cases >= 0.5")
    vocab = encode.build_vocab(clean, list(eventlog.DYNAMIC_CATEGORICAL)
                               + list(eventlog.STATIC_CATEGORICAL))
    seq = encode.encode_sequences(clean, vocab, cfg["window"], split)
    flat = encode.encode_flat(seq)
    out = cfg["out"]
    run.write_record(run.path(out, "sequences.xlg"), seq.save)
    run.write_record(run.path(out, "flat.xlg"), flat.save)
    run.write_json(run.path(out, "vocab.json"), vocab.to_dict())
    run.write_json(run.path(out, "cleaning_report.json"),
                   report.to_dict() | {"issues": clean.issues})
    run.write_json(run.path(out, "split.json"),
                   {"train": [int(i) for i in split.train_indices],
                    "test": [int(i) for i in split.test_indices]})
    return 0


# ------------------------------------------------------------------- train

def _grid_ints(part: str, bits, form: str):
    """The two integers, each at least 1, of a ``--grid`` entry split into
    ``bits``; a ``SystemExit`` naming the entry and the expected form
    otherwise."""
    try:
        a, b = (int(v) for v in bits)  # a wrong count raises ValueError too
        if min(a, b) < 1:
            raise ValueError
    except ValueError:
        raise SystemExit(f"grid entry {part!r} is not of the form {form}, "
                         "with integers >= 1") from None
    return a, b


def _parse_forest_grid(spec: str):
    """``ESTIMATORSxMAX_FEATURES`` entries."""
    return [_grid_ints(part, part.lower().split("x"), "ESTIMATORSxMAX_FEATURES, e.g. 40x8")
            for part in spec.split(",")]


def _parse_seqnet_grid(spec: str, model: str):
    """``arch:nodes:epochs`` or ``NODESxEPOCHS`` entries. Under ``--model
    seqnet`` an entry may name any architecture and ``NxE`` means lstm; under
    any other model an entry must name that model's architecture."""
    default_arch = "lstm" if model == "seqnet" else model
    form = "ARCH:NODES:EPOCHS or NODESxEPOCHS, e.g. lstm:16:2 or 16x2"
    space = []
    for part in spec.split(","):
        bits = part.split(":")
        if len(bits) == 3:
            if model != "seqnet" and bits[0] != model:
                raise SystemExit(f"grid entry {part!r} names architecture {bits[0]!r}, "
                                 f"but --model is {model!r}")
            space.append((bits[0], *_grid_ints(part, bits[1:], form)))
        else:
            space.append((default_arch, *_grid_ints(part, part.lower().split("x"), form)))
    return space


def _kfold_indices(Y, k, seed):
    """Each class's rows, shuffled, dealt round-robin from fold 0; so no fold
    is empty exactly when ``k`` is at most the largest class's row count."""
    shuffles = encode.class_shuffles(Y, seed)
    largest = max(len(idx) for idx in shuffles)
    if not 2 <= k <= largest:
        raise ValueError(f"--cv-k must be between 2 and {largest} (the largest class's "
                         f"training rows), got {k}")
    rows = np.concatenate(shuffles)
    fold = np.concatenate([np.arange(len(idx)) % k for idx in shuffles])
    return [np.sort(rows[fold == f]) for f in range(k)]


def _load_split(data_dir) -> encode.Split:
    with open(os.path.join(data_dir, "split.json"), encoding="utf-8") as fh:
        sp = json.load(fh)
    return encode.Split(np.asarray(sp["train"], dtype=np.int64),
                        np.asarray(sp["test"], dtype=np.int64))


def _write_train_table(run, model, rows, columns) -> None:
    """``train_table.json`` of the grid ``rows``, and ``train_table.csv`` of
    their ``columns`` and then ``best`` as 0 or 1."""
    out = run.cfg["out"]
    run.write_json(run.path(out, "train_table.json"), {"model": model, "rows": rows})
    run.write_csv(run.path(out, "train_table.csv"), [*columns, "best"],
                  [[r[c] for c in columns] + [int(r["best"])] for r in rows])


def _train_forest(run):
    cfg = run.cfg
    space = _parse_forest_grid(cfg["grid"])
    flat = encode.FlatDataset.load(os.path.join(cfg["data"], "flat.xlg"))
    split = _load_split(cfg["data"])
    tr, te = flat.take(split.train_indices), flat.take(split.test_indices)
    out = cfg["out"]
    folds = _kfold_indices(tr.Y, cfg["cv_k"], run.seed)
    fits = [np.setdiff1d(np.arange(len(tr.Y)), va) for va in folds]
    models = iter(forest.fit_forests(
        tr.X, tr.Y, [(fit, n_est, max_feat) for n_est, max_feat in space for fit in fits],
        seed=run.seed, min_leaf=cfg["min_leaf"]))
    rows = []
    for n_est, max_feat in space:
        accs = [float(np.mean(forest.predict(next(models), tr.X[va]) == tr.Y[va]))
                for va in folds]
        rows.append({"estimators": n_est, "max_features": max_feat,
                     "cv_accuracy": float(np.mean(accs)), "best": False})
    rows.sort(key=lambda r: (-r["cv_accuracy"], r["estimators"]))
    best = rows[0]
    best["best"] = True
    model = forest.fit_forest(tr.X, tr.Y, best["estimators"], best["max_features"],
                              seed=run.seed, min_leaf=cfg["min_leaf"],
                              feature_names=flat.feature_names,
                              label_names=flat.label_names)
    best["test_accuracy"] = float(np.mean(forest.predict(model, te.X) == te.Y))
    _write_train_table(run, "forest", rows, ["estimators", "max_features", "cv_accuracy"])
    run.write_text(run.path(out, "forest.json"), forest.to_json(model, meta=run.meta) + "\n")
    imp = forest.gini_importance(model)
    run.write_json(run.path(out, "importance.json"), imp.to_dict())
    run.write_text(run.path(out, "importance.svg"), imp.to_svg(k=5, meta=run.meta_line))
    return 0


def _train_seqnet(run):
    cfg = run.cfg
    space = _parse_seqnet_grid(cfg["grid"], cfg["model"])
    seq = encode.SequenceDataset.load(os.path.join(cfg["data"], "sequences.xlg"))
    rows, models = seqnet.grid_search(space, seq, _load_split(cfg["data"]),
                                      seed=run.seed, lr=cfg["lr"])
    out = cfg["out"]
    _write_train_table(run, "seqnet", rows,
                       ["architecture", "nodes", "epochs", "accuracy", "loss"])
    run.write_record(run.path(out, "seqnet.xlg"),
                     functools.partial(seqnet.save_checkpoint, model=models[0]))
    curve = models[0].curve
    run.write_csv(run.path(out, "curve.csv"),
                  ["epoch", "train_loss", "train_acc", "val_loss", "val_acc", "grad_norm",
                   "clip_rate"], curve.rows())
    series = {"train_loss": curve.train_loss, "train_acc": curve.train_acc,
              "val_loss": curve.val_loss, "val_acc": curve.val_acc}
    run.write_text(run.path(out, "curve.svg"),
                   svgplot.line_chart(curve.epochs, series,
                                      title="loss/accuracy vs epoch",
                                      meta=run.meta_line))
    return 0


def cmd_train(run) -> int:
    _require(run.cfg, "data", "model", "grid", "out")
    return (_train_forest if run.cfg["model"] == "forest" else _train_seqnet)(run)


# ----------------------------------------------------------------- explain

def _load_predictor(checkpoint):
    with open(checkpoint, encoding="utf-8") as fh:
        try:
            model = forest.from_json(fh.read())
        except ValueError as exc:
            raise SystemExit("explain needs a forest checkpoint; train --model forest") from exc
    return lambda X: forest.predict_proba(model, X)


def cmd_explain(run) -> int:
    cfg = run.cfg
    _require(cfg, "data", "checkpoint", "method", "out")
    out = cfg["out"]
    flat = encode.FlatDataset.load(os.path.join(cfg["data"], "flat.xlg"))
    n_classes = len(flat.label_names)
    if cfg["target"] is not None and not 0 <= cfg["target"] < n_classes:
        raise SystemExit(f"--target {cfg['target']} is not a class index in [0, {n_classes})")
    predictor = _load_predictor(cfg["checkpoint"])
    method = cfg["method"]

    def row_of(raw):
        if raw in flat.case_ids:
            return flat.case_ids.index(raw)
        if raw.isdecimal() and int(raw) < len(flat.Y):
            return int(raw)
        raise SystemExit(f"--instance {raw!r} is neither a case id nor a row index "
                         f"in [0, {len(flat.Y)})")

    def explain_one(i):
        return explain.lime_explain(
            predictor, flat.X[i], flat.X, cfg["target"], K=cfg["k_features"],
            n_samples=cfg["n_samples"], sigma=cfg["sigma"], seed=run.seed,
            categorical=flat.categorical, feature_names=flat.feature_names,
            instance_id=flat.case_ids[i],
            label_names=flat.label_names)

    if method == "lime":
        _require(cfg, "instance")
        rows = [row_of(raw) for raw in filter(None, cfg["instance"].split(","))]
        if not rows:
            raise SystemExit(f"--instance {cfg['instance']!r} names no case id or row index")
        for i in rows:
            exp = explain_one(i)
            stem = f"lime_{quote(exp.instance_id, safe='')}"
            run.write_json(run.path(out, stem + ".json"), exp.to_dict())
            run.write_text(run.path(out, stem + ".svg"), exp.to_svg(meta=run.meta_line))
    elif method == "pick":
        _require(cfg, "target")
        members = [int(i) for i in np.flatnonzero(flat.Y == cfg["target"])]
        exps = [explain_one(i) for i in members[: cfg["max_candidates"]]]
        summary = explain.submodular_pick(exps, cfg["budget"])
        run.write_json(run.path(out, "global_summary.json"), summary.to_dict())
        for exp in summary.explanations:
            run.write_text(run.path(out, f"pick_{quote(exp.instance_id, safe='')}.svg"),
                           exp.to_svg(meta=run.meta_line))
    elif method in ("pdp", "ice", "ale"):
        _require(cfg, "feature")
        feat = cfg["feature"]
        target = cfg["target"] if cfg["target"] is not None else 0
        extra = {"n_intervals": cfg["grid_points"]} if method == "ale" else {}
        curve = getattr(explain, method)(predictor, flat.X, feat, class_index=target,
                                         feature_names=flat.feature_names, **extra)
        stem = f"{method}_{feat}"
        run.write_csv(run.path(out, stem + ".csv"), *curve.table())
        run.write_text(run.path(out, stem + ".svg"), curve.to_svg(meta=run.meta_line))
    else:  # surrogate
        _, report = explain.fit_global_surrogate(predictor, flat.X, cfg["surrogate_kind"])
        run.write_json(run.path(out, "surrogate_report.json"), dataclasses.asdict(report))
    return 0


# ----------------------------------------------------------------- project

def _parse_bottleneck_grid(spec: str):
    """Comma-separated feeder widths; a ``SystemExit`` naming the first entry
    that is not an integer of at least 2, and the expected form."""
    for part in spec.split(","):
        if not part.strip().isdecimal() or int(part) < 2:
            raise SystemExit(f"--bottleneck-grid entry {part!r} is not an integer >= 2; "
                             "the form is WIDTH,WIDTH,..., e.g. 4,8")
    return [int(part) for part in spec.split(",")]


def cmd_project(run) -> int:
    cfg = run.cfg
    _require(cfg, "data", "checkpoint", "out")
    out = cfg["out"]
    candidates = _parse_bottleneck_grid(cfg["bottleneck_grid"])
    seq = encode.SequenceDataset.load(os.path.join(cfg["data"], "sequences.xlg"))
    k = cfg["k"] if cfg["k"] is not None else len(seq.label_names)
    if k > len(seq.Y):
        raise SystemExit(f"--k {k} exceeds the {len(seq.Y)} cases in sequences.xlg")
    try:
        model = seqnet.load_checkpoint(cfg["checkpoint"])
    except ValueError as exc:
        raise SystemExit(f"project needs a seqnet checkpoint ({exc}); train --model lstm") from exc
    acts = latent.capture_activations(model, seq, layer=cfg["layer"])
    rows, projections, reports = latent.grid_search_ae(
        acts, candidates, epochs=cfg["epochs"], lr=cfg["lr"], seed=run.seed, k=k)
    run.write_json(run.path(out, "ae_grid.json"),
                   {"rows": [dataclasses.asdict(r) for r in rows]})
    proj, report = projections[0], reports[0]
    run.write_csv(run.path(out, "projection.csv"), *proj.table())
    names = acts.label_names
    run.write_text(run.path(out, "projection.svg"), svgplot.scatter_chart(
        proj.coordinates[:, 0], proj.coordinates[:, 1],
        [names[i] for i in acts.true_labels],
        [names[i] for i in acts.predicted_labels],
        title=f"latent projection ({model.arch}, width {acts.values.shape[1]})",
        meta=run.meta_line))
    run.write_json(run.path(out, "cluster_report.json"),
                   report.to_dict() | {"layer_width": int(acts.values.shape[1])})
    return 0


# -------------------------------------------------------------------- synth

def cmd_synth(run) -> int:
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


def cmd_bench(run) -> int:
    """Small deterministic end-to-end pipeline emitting every artifact kind;
    each stage is parsed and run as its own command line."""
    _require(run.cfg, "out")
    out = run.cfg["out"]
    spec_path = run.path(out, "bench_spec.json")
    run.write_text(spec_path, json.dumps(BENCH_SPEC, indent=2) + "\n")
    synth_dir, data = os.path.join(out, "synth"), os.path.join(out, "data")
    # ingest keeps all three classes and numbers them in sorted label order
    age_class = sorted(c["label"] for c in BENCH_SPEC["classes"]).index("c_mix106")
    explain_args = ["explain", "--data", data, "--checkpoint",
                    os.path.join(out, "forest", "forest.json"), "--target", age_class,
                    "--out", os.path.join(out, "explain")]
    parser = _parser()
    for argv in (
            ["synth", "--spec", spec_path, "--out", synth_dir],
            ["ingest", "--csv", os.path.join(synth_dir, "events.csv"),
             "--schema", os.path.join(synth_dir, "schema.json"), "--min-class", 4,
             "--window", 9, "--split", 0.2, "--out", data],
            ["train", "--data", data, "--model", "forest", "--grid", "60x8", "--cv-k", 3,
             "--min-leaf", 1, "--out", os.path.join(out, "forest")],
            ["train", "--data", data, "--model", "lstm", "--grid", "12x40", "--lr", 0.5,
             "--out", os.path.join(out, "lstm")],
            [*explain_args, "--method", "pick", "--k-features", 4, "--n-samples", 600,
             "--budget", 2, "--max-candidates", 5],
            [*explain_args, "--method", "pdp", "--feature", "age"],
            ["project", "--data", data, "--checkpoint", os.path.join(out, "lstm", "seqnet.xlg"),
             "--layer", 0, "--bottleneck-grid", 6, "--k", 3, "--epochs", 150, "--lr", 0.05,
             "--out", os.path.join(out, "latent")]):
        stage = parser.parse_args([*map(str, argv), "--seed", str(run.seed)])
        with Run(stage) as stage_run:
            stage.func(stage_run)
        run.written += stage_run.written  # a later stage's failure removes them too
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

class _Parser(argparse.ArgumentParser):
    """Leaves an omitted option ``None`` in the namespace, so ``Run`` can hash
    the options as given before it fills in their declared defaults."""

    def options(self) -> dict:
        """Option dest -> its argparse action."""
        return {a.dest: a for a in self._actions if a.default != argparse.SUPPRESS}

    def parse_known_args(self, args=None, namespace=None):
        if namespace is None:
            namespace = argparse.Namespace(**dict.fromkeys(self.options()))
        return super().parse_known_args(args, namespace)


@functools.cache
def _parser() -> _Parser:
    """The parser ``main`` reuses: parsing leaves no state in it."""
    return build_parser()


@functools.cache
def _options(command) -> dict:
    """The options ``build_parser`` declares for ``command``."""
    return _parser().options()["command"].choices[command].options()


def build_parser() -> argparse.ArgumentParser:
    """Every subcommand option, each declared once with its type, range and default."""
    count, rate = _bounded(int, 1), _bounded(float, 0)
    parser = _Parser(prog="xlog", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--config", help="key = value config file; flags override")
        p.add_argument("--seed", type=_bounded(int, 0), default=0, help="random seed")
        p.add_argument("--out")
        p.set_defaults(func=func)
        return p

    p = command("ingest", cmd_ingest, "parse, clean and encode a CSV event log")
    p.add_argument("--csv")
    p.add_argument("--schema")
    p.add_argument("--min-class", type=count, default=30, help="fewest cases per kept class")
    p.add_argument("--window", type=count, default=64, help="events kept per case")
    p.add_argument("--split", type=_bounded(float, 0, 1), default=0.2, help="test share per class")

    p = command("train", cmd_train, "grid-search and train a classifier")
    p.add_argument("--data")
    p.add_argument("--model", choices=["forest", "dense", "lstm", "bilstm", "seqnet"])
    p.add_argument("--grid")
    p.add_argument("--cv-k", type=_bounded(int, 2), default=5, help="forest CV folds")
    p.add_argument("--min-leaf", type=count, default=1, help="fewest rows per forest leaf")
    p.add_argument("--lr", type=rate, default=0.5, help="network learning rate")

    p = command("explain", cmd_explain, "local/global explanations and curves")
    p.add_argument("--data")
    p.add_argument("--checkpoint")
    p.add_argument("--method", choices=["lime", "surrogate", "pdp", "ice", "ale", "pick"])
    p.add_argument("--instance", help="comma list of case ids or row indices (lime)")
    p.add_argument("--target", type=int,
                   help="class index; omitted: the predicted class (lime) or 0 (curves)")
    p.add_argument("--feature", help="feature name (pdp, ice, ale)")
    p.add_argument("--k-features", type=count, default=5, help="LIME features kept")
    p.add_argument("--n-samples", type=count, default=5000, help="LIME perturbations")
    p.add_argument("--sigma", type=rate, help="LIME kernel width; omitted: 0.75*sqrt(columns)")
    p.add_argument("--budget", type=count, default=3, help="explanations picked")
    p.add_argument("--grid-points", type=count, default=10, help="ALE intervals")
    p.add_argument("--surrogate-kind", choices=["linear", "tree"], default="tree",
                   help="global surrogate model")
    p.add_argument("--max-candidates", type=count, default=12, help="pick candidates")

    p = command("project", cmd_project, "autoencoder latent projection of hidden layers")
    p.add_argument("--data")
    p.add_argument("--checkpoint")
    p.add_argument("--layer", type=int, choices=[0, 1], default=0,
                   help="recurrent layer to capture")
    p.add_argument("--bottleneck-grid", default="8",
                   help="comma list of feeder widths n1 to grid-search")
    p.add_argument("--k", type=count, help="k-means clusters; omitted: the number of classes")
    p.add_argument("--epochs", type=count, default=400, help="autoencoder epochs")
    p.add_argument("--lr", type=rate, default=0.05, help="autoencoder learning rate")

    p = command("synth", cmd_synth, "generate a synthetic event log with planted truth")
    p.add_argument("--spec")

    command("bench", cmd_bench, "deterministic end-to-end pipeline run")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with Run(args) as run:  # partial failure removes partial files
            return args.func(run)
    except Exception as exc:
        print(f"xlog: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
