"""Output checks for each CLI call, run outside the timed region.

Each check raises ``CheckFailed`` with a reason; the runner counts the call
as failed. The checks read artifacts back through xlog's own loaders.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import json
import math
import os

import numpy as np


class CheckFailed(Exception):
    pass


def _require(cond, reason):
    if not cond:
        raise CheckFailed(reason)


def _json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_numbers(path):
    with open(path, encoding="utf-8") as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    values = []
    for row in rows[1:]:
        for cell in row:
            try:
                values.append(float(cell))
            except ValueError:
                pass
    return rows[1:], values


def check_ingest(data, n_blanked):
    from xlog import encode
    seq = encode.SequenceDataset.load(os.path.join(data, "sequences.xlg"))
    flat = encode.FlatDataset.load(os.path.join(data, "flat.xlg"))
    split = _json(os.path.join(data, "split.json"))
    m = len(seq.Y)
    _require(m > 0, "no cases after ingest")
    _require(seq.X.shape[0] == seq.mask.shape[0] == m == len(flat.Y) == flat.X.shape[0]
             == len(seq.case_ids), "dataset row counts disagree")
    _require(sorted(split["train"] + split["test"]) == list(range(m)), "split is not a partition")
    lengths = seq.mask.sum(axis=1)
    _require(np.array_equal(seq.mask, np.arange(seq.T)[None, :] < lengths[:, None]),
             "sequence mask is not a prefix")
    report = _json(os.path.join(data, "cleaning_report.json"))
    _require(report["imputed_labels"] + report["dropped_cases"] == n_blanked,
             "imputed + dropped differs from the number of blanked cases")


def check_forest(out):
    from xlog import forest
    table = _json(os.path.join(out, "train_table.json"))
    for row in table["rows"]:
        _require(0.0 <= row["cv_accuracy"] <= 1.0, "cv accuracy outside [0, 1]")
    _require(0.0 <= table["rows"][0]["test_accuracy"] <= 1.0, "test accuracy outside [0, 1]")
    with open(os.path.join(out, "forest.json"), encoding="utf-8") as fh:
        model = forest.from_json(fh.read())
    _require(len(model.trees) == table["rows"][0]["estimators"], "checkpoint tree count")


def check_seqnet(out):
    from xlog import seqnet
    table = _json(os.path.join(out, "train_table.json"))
    for row in table["rows"]:
        _require(0.0 <= row["accuracy"] <= 1.0, "accuracy outside [0, 1]")
    model = seqnet.load_checkpoint(os.path.join(out, "seqnet.xlg"))
    _require(not model.curve.diverged, "training curve diverged")
    _require(all(np.isfinite(v).all() for v in model.params.values()), "non-finite parameters")


def check_lime(out, case_id):
    exp = _json(os.path.join(out, f"lime_{case_id}.json"))
    if not exp["degenerate"]:
        _require(exp["weights"] and all(math.isfinite(v) for v in exp["weights"].values()),
                 "LIME weights missing or not finite")
        _require(math.isfinite(exp["fidelity"]), "LIME fidelity not finite")


def check_explain(out, method):
    if method == "pick":
        summary = _json(os.path.join(out, "global_summary.json"))
        _require(summary["picked"], "pick chose no explanation")
    elif method in ("pdp", "ale"):
        rows, values = _csv_numbers(os.path.join(out, f"{method}_age.csv"))
        _require(rows and all(math.isfinite(v) for v in values), f"{method} curve not finite")
    else:
        report = _json(os.path.join(out, "surrogate_report.json"))
        _require(0.0 <= report["agreement"] <= 1.0, "surrogate agreement outside [0, 1]")


def check_project(out, n_cases):
    rows, values = _csv_numbers(os.path.join(out, "projection.csv"))
    _require(len(rows) == n_cases, "projection row count differs from case count")
    _require(all(math.isfinite(v) for v in values), "projection not finite")
    report = _json(os.path.join(out, "cluster_report.json"))
    _require(0.0 < report["purity"] <= 1.0, "cluster purity outside (0, 1]")


def digest(root) -> dict:
    """File name -> sha256 of its bytes, to compare the artifacts of two passes."""
    out = {}
    for path in sorted(glob.glob(os.path.join(root, "**", "*"), recursive=True)):
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out
