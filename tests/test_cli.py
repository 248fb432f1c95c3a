import contextlib
import csv
import io
import json
import os
import re

import numpy as np
import pytest

from xlog import cli
from xlog.cli import main, parse_config_file

SPEC = {
    "classes": [
        {"label": "cls_a", "motif": ["mot_a"], "cases": 16},
        {"label": "cls_b", "motif": ["mot_m"], "cases": 16},
    ],
    "noise_vocab": 6, "min_length": 4, "max_length": 7,
    "age_rule": {"label": "cls_b", "threshold": 70},
}


def run(*argv):
    return main([str(a) for a in argv])


def rejection(*argv):
    """How ``main`` rejects ``argv``: exit 2 and argparse's usage and error
    lines for a bad flag, or exit 1 and the message for a failure after
    parsing, whether main reports it or a ``SystemExit`` carries it."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = run(*argv)
        except SystemExit as exc:
            code = exc.code
    return (1, code) if isinstance(code, str) else (code, err.getvalue())


@pytest.fixture
def pipeline(tmp_path):
    """synth -> ingest shared by the command tests."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
    assert run("synth", "--spec", spec_path, "--seed", 3,
               "--out", tmp_path / "synth") == 0
    assert run("ingest", "--csv", tmp_path / "synth" / "events.csv",
               "--schema", tmp_path / "synth" / "schema.json",
               "--min-class", 4, "--window", 7, "--split", "0.25",
               "--seed", 3, "--out", tmp_path / "data") == 0
    return tmp_path


def test_synth_writes_log_and_manifest(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
    assert run("synth", "--spec", spec_path, "--seed", 1,
               "--out", tmp_path / "out") == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["age_rule"]["threshold"] == 70
    assert "meta" in manifest
    lines = (tmp_path / "out" / "events.csv").read_text().splitlines()
    assert lines[0].startswith("case_id,")


def test_ingest_outputs(pipeline):
    data = pipeline / "data"
    report = json.loads((data / "cleaning_report.json").read_text())
    assert report["imputed_labels"] == 0
    assert sorted(report["kept_classes"]) == ["cls_a", "cls_b"]
    split = json.loads((data / "split.json").read_text())
    assert len(split["train"]) + len(split["test"]) == 32
    for name in ("sequences.xlg", "flat.xlg", "vocab.json"):
        assert (data / name).exists()


def test_ingest_encodes_sequences_once(tmp_path, monkeypatch):
    from xlog import encode
    calls = []
    real = encode.encode_sequences

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(encode, "encode_sequences", counted)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
    assert run("synth", "--spec", spec_path, "--seed", 3,
               "--out", tmp_path / "synth") == 0
    assert run("ingest", "--csv", tmp_path / "synth" / "events.csv",
               "--schema", tmp_path / "synth" / "schema.json",
               "--min-class", 4, "--window", 7, "--seed", 3,
               "--out", tmp_path / "data") == 0
    assert len(calls) == 1


def test_ingest_builds_no_case_or_event_objects(tmp_path, monkeypatch):
    from xlog import eventlog

    def boom(*args, **kwargs):
        raise AssertionError("ingest built a Case or Event object")

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
    assert run("synth", "--spec", spec_path, "--seed", 3,
               "--out", tmp_path / "synth") == 0
    monkeypatch.setattr(eventlog, "Event", boom)
    monkeypatch.setattr(eventlog, "Case", boom)
    assert run("ingest", "--csv", tmp_path / "synth" / "events.csv",
               "--schema", tmp_path / "synth" / "schema.json",
               "--min-class", 4, "--window", 7, "--seed", 3,
               "--out", tmp_path / "data") == 0


def test_ingest_manifest_failure_leaves_no_container(tmp_path, monkeypatch):
    from xlog import container
    real = container.save

    def save_then_fail(*args, **kwargs):
        real(*args, **kwargs)  # the container and its manifest are on disk
        raise OSError("disk full")

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
    assert run("synth", "--spec", spec_path, "--seed", 3,
               "--out", tmp_path / "synth") == 0
    monkeypatch.setattr(container, "save", save_then_fail)
    out = tmp_path / "data"
    assert run("ingest", "--csv", tmp_path / "synth" / "events.csv",
               "--schema", tmp_path / "synth" / "schema.json",
               "--min-class", 4, "--window", 7, "--seed", 3, "--out", out) == 1
    assert files_under(out) == []


def test_ingest_imputes_unlabeled_case(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
    run("synth", "--spec", spec_path, "--seed", 2, "--out", tmp_path / "synth")
    csv_path = tmp_path / "synth" / "events.csv"
    lines = csv_path.read_text().splitlines()
    # blank out the diagnosis of one case (column 9)
    target = lines[1].split(",")[0]
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if cells[0] == target:
            cells[9] = ""
            lines[i] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run("ingest", "--csv", csv_path,
               "--schema", tmp_path / "synth" / "schema.json",
               "--min-class", 4, "--window", 7, "--seed", 2,
               "--out", tmp_path / "data") == 0
    report = json.loads((tmp_path / "data" / "cleaning_report.json").read_text())
    assert report["imputed_labels"] == 1


def test_train_forest_grid_table(pipeline):
    out = pipeline / "forest"
    assert run("train", "--data", pipeline / "data", "--model", "forest",
               "--grid", "20x4,40x8", "--cv-k", 3, "--seed", 5,
               "--out", out) == 0
    table = json.loads((out / "train_table.json").read_text())
    assert len(table["rows"]) == 2
    assert sum(r["best"] for r in table["rows"]) == 1
    assert "test_accuracy" in table["rows"][0]
    checkpoint = (out / "forest.json").read_text()
    assert checkpoint.count("\n") == 1  # one compact line
    assert json.loads(checkpoint)["meta"]["config_hash"] == table["meta"]["config_hash"]
    assert (out / "importance.svg").read_text().startswith("<svg")
    csv_lines = (out / "train_table.csv").read_text().splitlines()
    assert csv_lines[0].startswith("# config=")


def test_train_seqnet_three_architectures(pipeline):
    out = pipeline / "nets"
    assert run("train", "--data", pipeline / "data", "--model", "seqnet",
               "--grid", "dense:6:2,lstm:6:2,bilstm:6:2", "--seed", 5,
               "--lr", "0.3", "--out", out) == 0
    table = json.loads((out / "train_table.json").read_text())
    assert [set(r) >= {"architecture", "nodes", "epochs", "accuracy", "loss"}
            for r in table["rows"]] == [True] * 3
    accs = [r["accuracy"] for r in table["rows"]]
    assert accs == sorted(accs, reverse=True)
    assert (out / "seqnet.xlg").exists()
    assert (out / "curve.csv").exists() and (out / "curve.svg").exists()


@pytest.mark.parametrize("model, grid, named", [
    ("dense", "lstm:6:2", "lstm"), ("lstm", "bilstm:4:1", "bilstm"),
    ("bilstm", "bilstm:4:1,dense:4:1", "dense"),
])
def test_train_seqnet_grid_entry_must_name_the_model(pipeline, model, grid, named):
    out = pipeline / "mismatch"
    with pytest.raises(SystemExit, match=f"names architecture '{named}', "
                                         f"but --model is '{model}'"):
        run("train", "--data", pipeline / "data", "--model", model, "--grid", grid,
            "--out", out)
    assert files_under(out) == []


@pytest.mark.parametrize("model, grid, form", [
    ("forest", "60x8x3", "ESTIMATORSxMAX_FEATURES"),
    ("forest", "lstm:6:2", "ESTIMATORSxMAX_FEATURES"),
    ("lstm", "lstm:6", "ARCH:NODES:EPOCHS or NODESxEPOCHS"),
    ("forest", "0x8", "ESTIMATORSxMAX_FEATURES"),
    ("forest", "8x0", "ESTIMATORSxMAX_FEATURES"),
    ("lstm", "lstm:0:2", "ARCH:NODES:EPOCHS or NODESxEPOCHS"),
    ("lstm", "lstm:-2:1", "ARCH:NODES:EPOCHS or NODESxEPOCHS"),
    ("lstm", "lstm:3:1,lstm:3:0", "ARCH:NODES:EPOCHS or NODESxEPOCHS"),
])
def test_train_malformed_grid_entry_names_entry_and_form(pipeline, model, grid, form):
    # the last entry is the bad one; every entry is checked before training
    out, entry = pipeline / "malformed", grid.split(",")[-1]
    with pytest.raises(SystemExit, match=f"grid entry '{entry}' is not of the form {form}"):
        run("train", "--data", pipeline / "data", "--model", model, "--grid", grid,
            "--out", out)
    assert files_under(out) == []


@pytest.mark.parametrize("grid, entry", [("4,x", "x"), ("4,,8", ""), ("x", "x"), ("4,1", "1")])
def test_project_malformed_bottleneck_grid_names_entry_and_form(pipeline, grid, entry):
    # every entry is checked before anything is loaded, so the checkpoint
    # need not exist and no width is fitted before a later one fails
    out = pipeline / "malformed"
    message = f"--bottleneck-grid entry '{entry}' is not an integer >= 2; " \
        "the form is WIDTH,WIDTH,..., e.g. 4,8"
    with pytest.raises(SystemExit, match=re.escape(message)):
        run("project", "--data", pipeline / "data", "--checkpoint", pipeline / "none.xlg",
            "--bottleneck-grid", grid, "--out", out)
    assert files_under(out) == []


def test_parse_seqnet_grid_accepts_the_model_architecture():
    assert cli._parse_seqnet_grid("lstm:16:2,8x3", "lstm") == [("lstm", 16, 2), ("lstm", 8, 3)]
    assert cli._parse_seqnet_grid("dense:4:2,bilstm:4:1,6X2", "seqnet") == [
        ("dense", 4, 2), ("bilstm", 4, 1), ("lstm", 6, 2)]


@pytest.mark.parametrize("cv_k, code, message", [
    (0, 2, "argument --cv-k: must be >= 2, got 0"),
    (1, 2, "argument --cv-k: must be >= 2, got 1"),
    (13, 1, "--cv-k must be between 2 and 12 (the largest class's training rows), got 13"),
    (40, 1, "--cv-k must be between 2 and 12 (the largest class's training rows), got 40"),
], ids=["0", "1", "13", "40"])
def test_train_rejects_cv_k_outside_usable_range(pipeline, cv_k, code, message):
    # the type rejects a k below 2; each class has 12 training rows, so folds
    # 2..12 are all non-empty, and above that only the data can tell
    out = pipeline / "cvk"
    got_code, text = rejection("train", "--data", pipeline / "data", "--model", "forest",
                               "--grid", "5x4", "--cv-k", cv_k, "--seed", 5, "--out", out)
    assert got_code == code and message in text
    assert files_under(out) == []


def test_train_rerun_identical_reports(pipeline):
    a, b = pipeline / "runA", pipeline / "runB"
    for out in (a, b):
        assert run("train", "--data", pipeline / "data", "--model", "forest",
                   "--grid", "15x4", "--cv-k", 2, "--seed", 9, "--out", out) == 0
    for name in ("train_table.json", "train_table.csv", "forest.json",
                 "importance.json", "importance.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.fixture
def trained(pipeline):
    run("train", "--data", pipeline / "data", "--model", "forest",
        "--grid", "25x6", "--cv-k", 2, "--seed", 5, "--out", pipeline / "forest")
    run("train", "--data", pipeline / "data", "--model", "lstm",
        "--grid", "8x25", "--seed", 5, "--lr", "0.5", "--out", pipeline / "lstm")
    return pipeline


def test_explain_lime_single_instance(trained):
    out = trained / "exp"
    assert run("explain", "--data", trained / "data",
               "--checkpoint", trained / "forest" / "forest.json",
               "--method", "lime", "--instance", "0", "--k-features", 3,
               "--n-samples", 300, "--seed", 4, "--out", out) == 0
    files = sorted(os.listdir(out))
    assert any(f.startswith("lime_") and f.endswith(".json") for f in files)
    assert any(f.endswith(".svg") for f in files)
    payload = json.loads((out / files[0]).read_text())
    assert len(payload["weights"]) <= 3


def test_explain_names_files_from_the_encoded_case_id(pipeline):
    # a case id may hold "/"; its file names must stay inside --out
    text = (pipeline / "synth" / "events.csv").read_text().replace("\ncase_", "\ncase/")
    (pipeline / "slash.csv").write_text(text, encoding="utf-8")
    data, out = pipeline / "slash_data", pipeline / "slash_exp"
    assert run("ingest", "--csv", pipeline / "slash.csv",
               "--schema", pipeline / "synth" / "schema.json",
               "--min-class", 4, "--window", 7, "--seed", 3, "--out", data) == 0
    assert run("train", "--data", data, "--model", "forest", "--grid", "5x6",
               "--cv-k", 2, "--seed", 5, "--out", pipeline / "slash_forest") == 0
    explain = ["explain", "--data", data, "--checkpoint",
               pipeline / "slash_forest" / "forest.json", "--n-samples", 100, "--out", out]
    assert run(*explain, "--method", "lime", "--instance", "0") == 0
    assert run(*explain, "--method", "pick", "--target", 1, "--max-candidates", 2,
               "--budget", 1) == 0
    case_id = json.loads((data / "flat.xlg.json").read_text())["case_ids"][0]
    assert "/" in case_id
    stem = "lime_" + case_id.replace("/", "%2F")
    assert json.loads((out / (stem + ".json")).read_text())["instance"] == case_id
    assert (out / (stem + ".svg")).is_file()
    assert any(p.name.startswith("pick_case%2F") for p in out.iterdir())
    assert all(p.is_file() for p in out.iterdir())


@pytest.mark.parametrize("flags, message", [
    (["--instance", "nope"], r"--instance 'nope' is neither a case id nor a row index in \[0, 32\)"),
    (["--instance", "-1", "--target", 0], r"--instance '-1' is neither"),
    (["--instance", "32"], r"--instance '32' is neither"),
    (["--instance", "0", "--target", 9], r"--target 9 is not a class index in \[0, 2\)"),
    (["--instance", "0", "--target", -1], r"--target -1 is not a class index"),
    (["--instance", ","], r"--instance ',' names no case id or row index"),
    (["--method", "pick", "--target", 1, "--max-candidates", -1],
     r"argument --max-candidates: must be >= 1, got -1"),
    (["--method", "pick", "--target", 1, "--budget", 0],
     r"argument --budget: must be >= 1, got 0"),
], ids=["case-id", "negative-row", "row-past-end", "target", "negative-target",
        "empty-list", "max-candidates", "budget"])
def test_explain_rejects_bad_instance_or_target(trained, monkeypatch, flags, message):
    from xlog import explain

    def no_explanation(*args, **kwargs):
        raise RuntimeError("explained an instance before rejecting the options")

    monkeypatch.setattr(explain, "lime_explain", no_explanation)
    out = trained / "bad_lime"
    _, text = rejection("explain", "--data", trained / "data",
                        "--checkpoint", trained / "forest" / "forest.json", "--method", "lime",
                        *flags, "--n-samples", 50, "--out", out)
    assert re.search(message, text)
    assert files_under(out) == []


def test_explain_rejects_a_sigma_that_is_not_finite_and_positive(monkeypatch, tmp_path):
    for sigma in ("nan", "inf", "-1", "0"):
        assert_rejected_before_loading(monkeypatch, tmp_path, "explain", "--sigma", sigma,
                                       f"in (0, inf), got {float(sigma)}", "flag")


def test_explain_submodular_pick(trained):
    out = trained / "pick"
    target = 1  # cls_b, the age-rule class
    assert run("explain", "--data", trained / "data",
               "--checkpoint", trained / "forest" / "forest.json",
               "--method", "pick", "--target", target, "--budget", 2,
               "--k-features", 3, "--n-samples", 300, "--max-candidates", 4,
               "--seed", 4, "--out", out) == 0
    summary = json.loads((out / "global_summary.json").read_text())
    assert len(summary["picked"]) <= 2
    assert summary["coverage"] > 0


def test_explain_curves(trained):
    for method in ("pdp", "ice", "ale"):
        out = trained / f"c_{method}"
        assert run("explain", "--data", trained / "data",
                   "--checkpoint", trained / "forest" / "forest.json",
                   "--method", method, "--feature", "age", "--target", 1,
                   "--grid-points", 4, "--seed", 1, "--out", out) == 0
        lines = (out / f"{method}_age.csv").read_text().splitlines()
        assert lines[0].startswith("# config=") and lines[1].startswith("age,")
        assert len(lines) > 2
        for line in lines[2:]:  # every cell a plain number
            assert np.isfinite([float(cell) for cell in line.split(",")]).all()
        assert (out / f"{method}_age.svg").exists()


def test_explain_surrogate_report(trained):
    out = trained / "sur"
    assert run("explain", "--data", trained / "data",
               "--checkpoint", trained / "forest" / "forest.json",
               "--method", "surrogate", "--surrogate-kind", "tree",
               "--seed", 1, "--out", out) == 0
    rep = json.loads((out / "surrogate_report.json").read_text())
    assert 0.0 <= rep["agreement"] <= 1.0


def test_explain_rejects_seqnet_checkpoint(trained):
    with pytest.raises(SystemExit, match="explain needs a forest checkpoint"):
        run("explain", "--data", trained / "data",
            "--checkpoint", trained / "lstm" / "seqnet.xlg.json",
            "--method", "lime", "--instance", "0",
            "--out", trained / "bad")


def test_project_rejects_non_seqnet_checkpoint(trained):
    with pytest.raises(SystemExit, match="project needs a seqnet checkpoint"):
        run("project", "--data", trained / "data",
            "--checkpoint", trained / "data" / "sequences.xlg",
            "--out", trained / "bad")


def test_project_rejects_forest_checkpoint(trained):
    # forest.json exists but has no forest.json.json manifest beside it
    with pytest.raises(SystemExit, match="project needs a seqnet checkpoint"):
        run("project", "--data", trained / "data",
            "--checkpoint", trained / "forest" / "forest.json",
            "--out", trained / "bad")


@pytest.mark.parametrize("cut_file, argv", [
    (("lstm", "seqnet.xlg"), ["project", "--checkpoint", ("lstm", "seqnet.xlg")]),
    (("data", "flat.xlg"), ["explain", "--checkpoint", ("forest", "forest.json"),
                            "--method", "surrogate"]),
])
def test_truncated_container_names_the_damage(trained, capsys, cut_file, argv):
    # the numpy error used to be a ValueError, so a cut checkpoint was blamed
    # for not being a seqnet checkpoint
    path = trained.joinpath(*cut_file)
    path.write_bytes(path.read_bytes()[:-3])
    argv = [trained.joinpath(*a) if isinstance(a, tuple) else a for a in argv]
    assert run(*argv, "--data", trained / "data", "--out", trained / "bad") == 1
    err = capsys.readouterr().err
    assert f"{path}: truncated in array " in err and ": 3 bytes missing" in err
    assert "needs a seqnet checkpoint" not in err
    assert not (trained / "bad").exists()


def test_seqnet_checkpoint_manifest_carries_run_meta(trained):
    manifest = json.loads((trained / "lstm" / "seqnet.xlg.json").read_text())
    table = json.loads((trained / "lstm" / "train_table.json").read_text())
    assert manifest["kind"] == "seqnet"
    assert manifest["meta"] == table["meta"]
    assert set(manifest["meta"]) == {"config_hash", "seed", "version"}


@pytest.mark.parametrize("payload", [{"kind": "seqnet", "trees": []}, {"trees": []}, []])
def test_load_predictor_rejects_non_forest_json(tmp_path, payload):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(SystemExit, match="explain needs a forest checkpoint"):
        cli._load_predictor(path)


def test_project_outputs(trained):
    out = trained / "proj"
    assert run("project", "--data", trained / "data",
               "--checkpoint", trained / "lstm" / "seqnet.xlg",
               "--layer", 0, "--k", 2, "--epochs", 60,
               "--seed", 2, "--out", out) == 0
    lines = (out / "projection.csv").read_text().splitlines()
    assert lines[1] == "id,x,y,true,predicted,cluster"
    assert len(lines) == 2 + 32
    for line in lines[2:]:  # x and y plain numbers
        _, x, y, *_ = line.split(",")
        assert np.isfinite([float(x), float(y)]).all()
    report = json.loads((out / "cluster_report.json").read_text())
    assert report["k"] == 2 and report["layer_width"] == 8
    assert (out / "projection.svg").read_text().startswith("<svg")
    grid = json.loads((out / "ae_grid.json").read_text())
    assert [(r["n1"], r["best"]) for r in grid["rows"]] == [(8, True)]  # the default grid


def test_project_grid_mode(trained, monkeypatch):
    from xlog import latent
    calls = []
    real = latent.kmeans

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(latent, "kmeans", counted)
    out = trained / "projgrid"
    assert run("project", "--data", trained / "data",
               "--checkpoint", trained / "lstm" / "seqnet.xlg",
               "--bottleneck-grid", "4,8", "--k", 2, "--epochs", 40,
               "--seed", 2, "--out", out) == 0
    grid = json.loads((out / "ae_grid.json").read_text())
    assert len(grid["rows"]) == 2
    assert sum(r["best"] for r in grid["rows"]) == 1
    assert len(calls) == 2  # one clustering per candidate, none repeated on the winner


def no_autoencoder(acts, widths, epochs, lr, seed):
    raise RuntimeError(f"fitted autoencoders of widths {widths} before rejecting --k")


def test_project_rejects_k_zero(monkeypatch, tmp_path):
    assert_rejected_before_loading(monkeypatch, tmp_path, "project", "--k", "0",
                                   ">= 1, got 0", "flag")


def test_project_rejects_k_above_the_case_count(trained, monkeypatch, capsys):
    from xlog import latent
    monkeypatch.setattr(latent, "fit_autoencoder", no_autoencoder)
    out = trained / "k33"
    with pytest.raises(SystemExit, match=r"--k 33 exceeds the 32 cases in sequences.xlg"):
        run("project", "--data", trained / "data",
            "--checkpoint", trained / "lstm" / "seqnet.xlg",
            "--k", 33, "--bottleneck-grid", 4, "--epochs", 5, "--out", out)
    assert files_under(out) == []
    assert run("project", "--data", trained / "data",
               "--checkpoint", trained / "lstm" / "seqnet.xlg",
               "--k", 32, "--bottleneck-grid", 4, "--epochs", 5, "--out", out) == 1
    assert files_under(out) == []  # k = 32 passes the check and stops at the autoencoder
    assert "fitted autoencoders of widths [4] before" in capsys.readouterr().err


def test_project_rejects_epochs_below_one(monkeypatch, tmp_path):
    for text, source in (("-3", "flag"), ("0", "flag"), ("0", "config")):
        assert_rejected_before_loading(monkeypatch, tmp_path, "project", "--epochs", text,
                                       f">= 1, got {text}", source)


def test_project_rejects_non_planar_bottleneck(trained):
    # --bottleneck is gone, and an option prefix is not taken for the full name
    base = ["--data", trained / "data", "--out", trained / "nope"]
    for argv in (["project", *base, "--checkpoint", trained / "lstm" / "seqnet.xlg",
                  "--bottleneck", 3],
                 ["project", *base, "--checkpoint", trained / "lstm" / "seqnet.xlg",
                  "--bottleneck", 2],
                 ["explain", *base, "--checkpoint", trained / "forest" / "forest.json",
                  "--method", "lime", "--instance", 0, "--k-feat", 3]):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
    assert files_under(trained / "nope") == []


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
# comment
seed = 7
window = 12  # a comment after a value
split = 0.25
model = "forest"
flag = true
instance = 'case#1'  # '#' inside quotes is text
feature = 1e3
empty =
""", encoding="utf-8")
    parsed = parse_config_file(cfg)
    assert parsed == {"seed": "7", "window": "12", "split": "0.25", "model": "forest",
                      "flag": "true", "instance": "case#1", "feature": "1e3", "empty": ""}


@pytest.mark.parametrize("line, key, text", [
    ("instance = 0012", "instance", "0012"),
    ("feature = 1e3", "feature", "1e3"),
    ("instance = true", "instance", "true"),
    ('instance = "case#1"', "instance", "case#1"),
], ids=["leading-zeros", "exponent", "boolean-word", "quoted-hash"])
def test_config_string_value_keeps_its_text_as_the_flag_does(tmp_path, line, key, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    parser = cli.build_parser()
    base = ["explain", "--data", "d", "--checkpoint", "c", "--method", "lime", "--out", "o"]
    configured = cli.Run(parser.parse_args([*base, "--config", str(cfg)]))
    flagged = cli.Run(parser.parse_args([*base, f"--{key}", text]))
    assert configured.cfg[key] == flagged.cfg[key] == text
    assert configured.config_hash == flagged.config_hash


def test_config_file_with_a_byte_order_mark_reads_its_first_key(tmp_path):
    text = "seed = 5\nwindow = 12\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert parse_config_file(marked) == parse_config_file(plain) == {"seed": "5", "window": "12"}
    runs = [cli.Run(cli.build_parser().parse_args(["ingest", "--config", str(cfg)]))
            for cfg in (plain, marked)]
    assert runs[0].seed == runs[1].seed == 5
    assert runs[0].config_hash == runs[1].config_hash


@pytest.mark.parametrize("change, message", [
    ({"min_length": 8, "max_length": 5}, "min_length 8 exceeds max_length 5"),
    ({"noise_vocab": 0}, "noise_vocab must be >= 1, got 0"),
    ({"treatments": []}, "treatments must name at least one treatment"),
    ({"classes": [SPEC["classes"][0], {**SPEC["classes"][1], "label": "cls_a"}],
      "age_rule": None}, "classes: label 'cls_a' is given twice"),
    ({"age_low": 71}, "age_low 71 leaves no age to draw for class 'cls_a': the highest is 70"),
    ({"age_low": 80, "age_rule": None},
     "age_low 80 leaves no age to draw for class 'cls_a': the highest is 79"),
    ({"classes": [{**SPEC["classes"][0], "motif_position": -3}, SPEC["classes"][1]]},
     "class cls_a: motif_position must be >= 0, got -3"),
], ids=["lengths", "noise-vocab", "treatments", "duplicate-label", "age-low-rule",
        "age-low-no-rule", "negative-motif-position"])
def test_synth_rejects_a_spec_it_cannot_generate_and_writes_nothing(tmp_path, change, message):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC | change), encoding="utf-8")
    assert rejection("synth", "--spec", spec_path, "--out", tmp_path / "synth") == (
        1, f"xlog: error: {message}\n")
    assert not (tmp_path / "synth").exists()


CLS_A, CLS_B = SPEC["classes"]


@pytest.mark.parametrize("spec, message", [
    ({k: v for k, v in SPEC.items() if k != "classes"}, "missing spec key(s): 'classes'"),
    (SPEC | {"classes": [], "age_rule": None}, "classes must list at least one class, got []"),
    (SPEC | {"classes": [CLS_A, "cls_b"]}, "class must be a JSON object, got 'cls_b'"),
    (SPEC | {"classes": [CLS_A | {"weight": 2}, CLS_B]}, "unknown class key(s): 'weight'"),
    *[(SPEC | {"classes": [CLS_A | {"motif_probability": p}, CLS_B]},
       f"class cls_a: motif_probability must be a number from 0 to 1, got {p!r}")
      for p in (1.5, -1, float("nan"), True)],
    (SPEC | {"classes": [CLS_A | {"motif": "xy"}, CLS_B]},
     "class cls_a: motif must be a list of strings, got 'xy'"),
    (SPEC | {"treatments": "T1"}, "treatments must be a list of strings, got 'T1'"),
    (SPEC | {"classes": [CLS_A | {"cases": 5.5}, CLS_B]},
     "class cls_a: cases must be an integer, got 5.5"),
    (SPEC | {"classes": [CLS_A | {"cases": True}, CLS_B]},
     "class cls_a: cases must be an integer, got True"),
    (SPEC | {"noise_vocab": 4.0}, "noise_vocab must be an integer, got 4.0"),
    (SPEC | {"max_length": "5"}, "max_length must be an integer, got '5'"),
    (SPEC | {"age_rule": {"label": "cls_b", "threshold": "70"}},
     "age_rule: threshold must be an integer, got '70'"),
    (SPEC | {"age_rule": {"threshold": 70}}, "missing age_rule key(s): 'label'"),
    (SPEC | {"classes": [CLS_A | {"label": 5}, CLS_B], "age_rule": None},
     "class label must be a string, got 5"),
    # a case with no events writes no row
    (SPEC | {"classes": [CLS_A | {"motif": []}], "age_rule": None, "min_length": 0},
     "min_length must be >= 1, got 0"),
    (SPEC | {"max_length": 100_000},
     "max_length 100000 and 32 cases could put an event after 9999-12-31"),
], ids=["no-classes", "no-class", "class-not-object", "unknown-class-key",
        "probability-above-1", "probability-below-0", "probability-nan", "probability-bool",
        "motif-string", "treatments-string", "cases-float", "cases-bool", "noise-vocab-float",
        "max-length-string", "threshold-string", "age-rule-without-label", "label-int",
        "min-length-0", "past-year-9999"])
def test_synth_rejects_a_mistyped_or_out_of_range_spec_value_by_key(tmp_path, spec, message):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert rejection("synth", "--spec", spec_path, "--out", tmp_path / "synth") == (
        1, f"xlog: error: {message}\n")
    assert not (tmp_path / "synth").exists()


def test_config_file_flags_override(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 999\nspec = \"{spec_path}\"\n", encoding="utf-8")
    assert run("synth", "--config", cfg, "--seed", 3,
               "--out", tmp_path / "o1") == 0
    assert run("synth", "--spec", spec_path, "--seed", 3,
               "--out", tmp_path / "o2") == 0
    a = (tmp_path / "o1" / "events.csv").read_bytes()
    b = (tmp_path / "o2" / "events.csv").read_bytes()
    assert a == b  # flag seed (3) overrode config seed (999)


def test_missing_required_flag_fails(tmp_path):
    with pytest.raises(SystemExit):
        run("synth", "--out", tmp_path / "x")


def test_main_reuses_its_parser_and_a_failed_parse_leaves_no_state(tmp_path, monkeypatch):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
    seen = []
    real_run = cli.Run

    def spy(args):
        seen.append(args)
        return real_run(args)

    monkeypatch.setattr(cli, "Run", spy)
    with pytest.raises(SystemExit):  # --seed parsed, then --spec lacks its value
        run("synth", "--seed", 5, "--spec")
    argv = ["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o")]
    assert run(*argv) == 0
    assert vars(seen[0]) == vars(cli.build_parser().parse_args(argv))
    assert seen[0].seed is None  # hashed as omitted, then defaulted by Run
    assert cli._parser() is cli._parser()


def test_failure_removes_partial_files(tmp_path, monkeypatch):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
    import xlog.synth as synth_mod
    real = synth_mod.log_to_csv

    def boom(log):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(synth_mod, "log_to_csv", boom)
    code = run("synth", "--spec", spec_path, "--seed", 1, "--out", tmp_path / "f")
    assert code == 1
    leftovers = [p for p in (tmp_path / "f").glob("*")] if (tmp_path / "f").exists() else []
    assert leftovers == []


def test_run_removes_its_files_when_its_body_exits(tmp_path):
    args = cli.build_parser().parse_args(["synth", "--out", str(tmp_path)])
    with pytest.raises(SystemExit, match="stop"):
        with cli.Run(args) as r:
            r.write_text(r.path(tmp_path, "partial.txt"), "x")
            raise SystemExit("stop")
    assert files_under(tmp_path) == []


def test_run_write_csv_cells_read_back_with_a_csv_reader(tmp_path):
    # a case id may hold a comma: ingest reads quoted fields
    r = cli.Run(cli.build_parser().parse_args(["synth", "--out", str(tmp_path)]))
    path = r.path(tmp_path, "t.csv")
    r.write_csv(path, ["id", "x", "n"], [["case,1", np.float64(0.1), np.int64(3)],
                                         ['say "hi"', 2.5, ""]])
    with open(path, encoding="utf-8", newline="") as fh:
        meta, *rows = fh.read().splitlines(keepends=True)
    assert meta == f"# {r.meta_line}\n"
    assert rows[1] == '"case,1",0.1,3\n'
    assert list(csv.reader(rows)) == [["id", "x", "n"], ["case,1", "0.1", "3"],
                                      ['say "hi"', "2.5", ""]]


def files_under(path):
    return sorted(p for p in path.rglob("*") if p.is_file()) if path.exists() else []


def kfold_oracle(Y, k, seed):
    """The folds by dealing each class's shuffled rows into lists one by one."""
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for label in np.unique(Y):
        idx = np.flatnonzero(Y == label)
        idx = idx[rng.permutation(len(idx))]
        for i, j in enumerate(idx):
            folds[i % k].append(int(j))
    return [np.asarray(sorted(f), dtype=np.int64) for f in folds]


def test_kfold_indices_equal_the_round_robin_oracle():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        Y = rng.integers(0, int(rng.integers(1, 5)), size=int(rng.integers(4, 60)))
        largest = int(np.bincount(Y).max())
        for k in sorted({2, min(3, largest), largest}):
            folds = cli._kfold_indices(Y, k, seed)
            want = kfold_oracle(Y, k, seed)
            assert len(folds) == k
            for got, expect in zip(folds, want):
                assert got.dtype == np.int64 and np.array_equal(got, expect), (seed, k)


def test_omitted_options_take_declared_defaults_after_hashing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text('window = "12"\nsplit = 0.25\n', encoding="utf-8")
    parser = cli.build_parser()
    base = ["ingest", "--csv", "e.csv", "--schema", "s.json", "--out", "o"]
    omitted = cli.Run(parser.parse_args(base))
    explicit = cli.Run(parser.parse_args([*base, "--window", "64", "--min-class", "30"]))
    configured = cli.Run(parser.parse_args([*base, "--config", str(cfg)]))
    assert omitted.cfg["window"] == explicit.cfg["window"] == 64
    assert omitted.cfg["min_class"] == 30 and omitted.cfg["split"] == 0.2
    assert omitted.seed == 0 and omitted.cfg["seed"] == 0
    assert omitted.config_hash != explicit.config_hash  # hashed as given
    assert configured.cfg["window"] == 12 and configured.cfg["split"] == 0.25
    flagged = cli.Run(parser.parse_args([*base, "--window", "12", "--split", "0.25"]))
    assert configured.config_hash == flagged.config_hash  # "12" parsed as --window 12 is


def test_train_has_no_split_flag_but_config_split_key_works(pipeline):
    with pytest.raises(SystemExit):
        run("train", "--data", pipeline / "data", "--model", "forest", "--grid", "10x4",
            "--split", "0.3", "--out", pipeline / "nosplit")
    cfg = pipeline / "shared.cfg"
    cfg.write_text("split = 0.3\ncv_k = 2\n", encoding="utf-8")
    assert run("train", "--config", cfg, "--data", pipeline / "data", "--model", "forest",
               "--grid", "10x4", "--seed", 1, "--out", pipeline / "cfgsplit") == 0


def test_bench_failure_in_late_stage_removes_every_file(tmp_path, monkeypatch):
    from xlog import latent

    def boom(acts, widths, epochs, lr, seed):
        raise RuntimeError("autoencoder failed")

    monkeypatch.setattr(latent, "fit_autoencoder", boom)
    out = tmp_path / "bench"
    assert run("bench", "--seed", 11, "--out", out) == 1
    assert files_under(out) == []


def test_bench_runs_and_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "b1", tmp_path / "b2"
    assert run("bench", "--seed", 11, "--out", a) == 0
    assert run("bench", "--seed", 11, "--out", b) == 0
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b and len(files_a) > 15
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_forest_grid_accepts_reference_table_cells():
    from xlog.cli import _parse_forest_grid
    assert _parse_forest_grid("1000x100,1500x200") == [(1000, 100), (1500, 200)]


def test_fit_forest_clamps_max_features_to_width(rng=np.random.default_rng(0)):
    from xlog import forest
    X = rng.random((20, 5))
    Y = rng.integers(0, 2, size=20)
    model = forest.fit_forest(X, Y, n_estimators=2, max_features=100, seed=0)
    assert model.max_features == 5


# ------------------------------------------------- config values and --lr

@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    assert run("bench", "--seed", 11, "--out", out) == 0
    return out


def no_fit(*args, **kwargs):
    raise RuntimeError("trained before rejecting an option")


def test_every_bench_stage_from_a_config_file_writes_its_flag_run_bytes(bench, tmp_path,
                                                                         monkeypatch):
    """Each stage's flags, written as ``key = value`` lines (paths moved to a
    new root), reproduce the flag run's artifacts byte for byte."""
    stages, real_run = [], cli.Run

    def spy(args):
        if args.command != "bench":
            stages.append(args)
        return real_run(args)

    monkeypatch.setattr(cli, "Run", spy)
    flags = tmp_path / "flags"
    assert run("bench", "--seed", 11, "--out", flags) == 0
    monkeypatch.setattr(cli, "Run", real_run)
    configs = tmp_path / "configs"
    configs.mkdir()
    (configs / "bench_spec.json").write_bytes((flags / "bench_spec.json").read_bytes())
    for i, args in enumerate(stages):
        given = {k: v for k, v in vars(args).items()
                 if v is not None and k not in ("command", "config", "func")}
        text = "".join(f"{k} = {str(v).replace(str(flags), str(configs))}\n"
                       for k, v in given.items())
        (tmp_path / f"{i}.cfg").write_text(text, encoding="utf-8")
        assert run(args.command, "--config", tmp_path / f"{i}.cfg") == 0, text
    assert [a.command for a in stages] == ["synth", "ingest", "train", "train", "explain",
                                           "explain", "project"]
    written = [p.relative_to(flags) for p in files_under(flags)
               if p.name != "bench_summary.json"]
    assert [p.relative_to(configs) for p in files_under(configs)] == written
    for rel in written:
        assert (configs / rel).read_bytes() == (flags / rel).read_bytes(), rel
    assert (configs / "latent" / "ae_grid.json").read_bytes() == \
        (bench / "latent" / "ae_grid.json").read_bytes()


def test_config_feature_is_a_name_as_the_flag_is(bench, tmp_path, capsys):
    base = ["explain", "--data", bench / "data", "--checkpoint",
            bench / "forest" / "forest.json", "--method", "pdp"]
    (tmp_path / "run.cfg").write_text("feature = 3\n", encoding="utf-8")
    for argv in ([*base, "--feature", 3], [*base, "--config", tmp_path / "run.cfg"]):
        assert run(*argv, "--out", tmp_path / "o") == 1
        assert "unknown feature '3'" in capsys.readouterr().err
    assert files_under(tmp_path / "o") == []


@pytest.mark.parametrize("line, message", [
    ("grid = 40", "grid entry '40' is not of the form ESTIMATORSxMAX_FEATURES"),
    ("model = foo", "config key 'model': invalid choice 'foo' (choose from 'forest', "),
    ("cv_k = 2.5", "config key 'cv_k': invalid int value 2.5"),
    ("seed = 1.9", "config key 'seed': invalid int value 1.9"),
], ids=["grid", "model", "cv_k", "seed"])
def test_config_train_values_are_checked_as_flags(bench, tmp_path, monkeypatch, line, message):
    from xlog import forest
    monkeypatch.setattr(forest, "fit_forests", no_fit)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model = forest\ngrid = 10x4\n{line}\n", encoding="utf-8")
    with pytest.raises(SystemExit, match=re.escape(message)):
        run("train", "--config", cfg, "--data", bench / "data", "--out", tmp_path / "o")
    assert files_under(tmp_path / "o") == []


def test_config_k_is_an_integer_as_the_flag_is(bench, tmp_path, monkeypatch):
    from xlog import latent
    monkeypatch.setattr(latent, "fit_autoencoder", no_autoencoder)
    (tmp_path / "run.cfg").write_text("k = 2.9\n", encoding="utf-8")
    with pytest.raises(SystemExit, match=re.escape("config key 'k': invalid int value 2.9")):
        run("project", "--config", tmp_path / "run.cfg", "--data", bench / "data",
            "--checkpoint", bench / "lstm" / "seqnet.xlg", "--out", tmp_path / "o")
    with pytest.raises(SystemExit):
        run("project", "--k", "2.9", "--data", bench / "data",
            "--checkpoint", bench / "lstm" / "seqnet.xlg", "--out", tmp_path / "o")
    assert files_under(tmp_path / "o") == []


def test_ingest_split_that_leaves_a_class_untested_names_it(bench, tmp_path):
    # 30 cases per class: round(30 * 0.01) is 0 test cases, round(30 * 0.017) is 1
    argv = ["ingest", "--csv", bench / "synth" / "events.csv",
            "--schema", bench / "synth" / "schema.json", "--min-class", 1]
    assert rejection(*argv, "--split", 0.01, "--out", tmp_path / "o") == (
        1, "--split 0.01 leaves class 'c_cervix' (30 cases) with no test case; "
           "each class needs split * cases >= 0.5")
    assert files_under(tmp_path / "o") == []
    assert run(*argv, "--split", 0.017, "--out", tmp_path / "ok") == 0
    split = json.loads((tmp_path / "ok" / "split.json").read_text())
    assert len(split["test"]) == 3  # one per class


def test_ingest_min_class_that_keeps_no_class_names_the_option(bench, tmp_path):
    with pytest.raises(SystemExit, match=re.escape(
            "--min-class 999 keeps no class; the largest has 30 cases")):
        run("ingest", "--csv", bench / "synth" / "events.csv",
            "--schema", bench / "synth" / "schema.json", "--min-class", 999,
            "--out", tmp_path / "o")
    assert files_under(tmp_path / "o") == []


def test_ingest_names_the_line_and_file_offset_of_a_byte_that_is_not_utf8(tmp_path):
    rows = [f"p{i // 5:02d},act_{i % 7},2020-01-01 10:{i % 60:02d}:00,M{i % 2}"
            for i in range(299)]
    head = "case,act,ts,diag\n" + "\n".join(rows) + "\np60,act_"
    # a banner comment of the width that puts the bad byte at file offset 14241
    banner = "#" + "-" * (14241 - len(head) - 2) + "\n"
    data = (banner + head).encode() + b"\xff,2020-01-02 10:00:00,M1\n"
    assert data.index(b"\xff") == 14241 and data[:14241].count(b"\n") + 1 == 302
    (tmp_path / "e.csv").write_bytes(data)
    (tmp_path / "s.json").write_text(json.dumps(
        {"case_id": "case", "activity": "act", "timestamp": "ts", "diagnosis_code": "diag"}))
    code, err = rejection("ingest", "--csv", tmp_path / "e.csv", "--schema", tmp_path / "s.json",
                          "--min-class", 1, "--out", tmp_path / "o")
    assert code == 1
    assert "e.csv" in err and "line 302" in err and "14241" in err and "0xff" in err, err
    assert files_under(tmp_path / "o") == []


@pytest.mark.parametrize("text, got", [('["case_id"]', "got a list"),
                                       ("case_id: case", "Expecting value")])
def test_ingest_rejects_a_schema_file_that_is_not_a_json_object(bench, tmp_path, text, got):
    (tmp_path / "bad.json").write_text(text, encoding="utf-8")
    code, err = rejection("ingest", "--csv", bench / "synth" / "events.csv",
                          "--schema", tmp_path / "bad.json", "--out", tmp_path / "o")
    assert code == 1
    assert "bad.json" in err and got in err, err
    assert "a JSON object that maps field names to columns" in err, err
    assert files_under(tmp_path / "o") == []


def no_load(*args, **kwargs):
    raise RuntimeError("loaded an input before rejecting an option")


def test_project_layer_is_checked_before_anything_loads(bench, tmp_path, monkeypatch, capsys):
    from xlog import seqnet
    monkeypatch.setattr(seqnet, "load_checkpoint", no_load)
    (tmp_path / "run.cfg").write_text("layer = 2\n", encoding="utf-8")
    base = ["project", "--data", bench / "data", "--checkpoint", bench / "lstm" / "seqnet.xlg",
            "--out", tmp_path / "o"]
    with pytest.raises(SystemExit) as exc:
        run(*base, "--layer", 2)
    assert exc.value.code == 2
    assert "argument --layer: invalid choice: 2 (choose from 0, 1)" in capsys.readouterr().err
    with pytest.raises(SystemExit, match=re.escape(
            "config key 'layer': invalid choice 2 (choose from 0, 1)")):
        run(*base, "--config", tmp_path / "run.cfg")
    assert files_under(tmp_path / "o") == []


# ------------------------------------------------------------ option ranges

COMMANDS = ["synth", "ingest", "train", "explain", "project", "bench"]
NOT_FINITE_AND_POSITIVE = ["nan", "inf", "-1", "0"]

#: (command, option, bad text, the rule and value it is rejected with); every
#: range that needs no data, on each command that declares the option
RANGE_CASES = [
    *[(command, "--seed", "-1", ">= 0, got -1") for command in COMMANDS],
    ("ingest", "--window", "0", ">= 1, got 0"),
    ("ingest", "--min-class", "0", ">= 1, got 0"),
    ("ingest", "--split", "0", "in (0, 1), got 0.0"),
    ("ingest", "--split", "1", "in (0, 1), got 1.0"),
    ("ingest", "--split", "1.5", "in (0, 1), got 1.5"),
    ("ingest", "--split", "nan", "in (0, 1), got nan"),
    ("train", "--cv-k", "0", ">= 2, got 0"),
    ("train", "--cv-k", "1", ">= 2, got 1"),
    ("train", "--min-leaf", "0", ">= 1, got 0"),
    ("train", "--min-leaf", "-5", ">= 1, got -5"),
    *[("train", "--lr", text, f"in (0, inf), got {float(text)}")
      for text in NOT_FINITE_AND_POSITIVE],
    ("explain", "--k-features", "0", ">= 1, got 0"),
    ("explain", "--n-samples", "0", ">= 1, got 0"),
    ("explain", "--budget", "0", ">= 1, got 0"),
    ("explain", "--grid-points", "0", ">= 1, got 0"),
    ("explain", "--max-candidates", "-1", ">= 1, got -1"),
    *[("explain", "--sigma", text, f"in (0, inf), got {float(text)}")
      for text in NOT_FINITE_AND_POSITIVE],
    ("project", "--k", "0", ">= 1, got 0"),
    ("project", "--epochs", "0", ">= 1, got 0"),
    ("project", "--epochs", "-3", ">= 1, got -3"),
    *[("project", "--lr", text, f"in (0, inf), got {float(text)}")
      for text in NOT_FINITE_AND_POSITIVE],
]


def assert_rejected_before_loading(monkeypatch, tmp_path, command, option, text, rule,
                                   source, *extra):
    """``command`` given ``option`` as ``text``, by flag or by config file
    (``extra`` flags after the required ones), exits before any input loads
    and writes nothing: a flag with exit 2 and argparse's ``argument
    --opt: must be <rule>``, a config value with ``config key 'opt': must
    be <rule>``."""
    from xlog import encode, eventlog, forest, seqnet, synth
    for owner, name in ((eventlog, "parse_log"), (encode.FlatDataset, "load"),
                        (encode.SequenceDataset, "load"), (seqnet, "load_checkpoint"),
                        (forest, "from_json"), (synth.SyntheticSpec, "from_json")):
        monkeypatch.setattr(owner, name, no_load)
    inputs, out = tmp_path / "inputs", tmp_path / "o"  # no input exists
    required = {
        "synth": ["--spec", inputs / "spec.json"],
        "ingest": ["--csv", inputs / "events.csv", "--schema", inputs / "schema.json"],
        "train": ["--data", inputs, "--model", "forest", "--grid", "5x4"],
        "explain": ["--data", inputs, "--checkpoint", inputs / "forest.json",
                    "--method", "lime", "--instance", "0"],
        "project": ["--data", inputs, "--checkpoint", inputs / "seqnet.xlg"],
        "bench": []}[command]
    if source == "flag":
        code, message = rejection(command, *required, *extra, option, text, "--out", out)
        assert code == 2
        assert message.endswith(f"xlog {command}: error: argument {option}: must be {rule}\n")
    else:
        key = option[2:].replace("-", "_")
        (tmp_path / "run.cfg").write_text(f"{key} = {text}\n", encoding="utf-8")
        assert rejection(command, *required, *extra, "--config", tmp_path / "run.cfg",
                         "--out", out) == (1, f"config key {key!r}: must be {rule}")
    assert files_under(out) == []


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, option, text, rule", RANGE_CASES,
                         ids=[f"{c}:{o[2:]}={t}" for c, o, t, _ in RANGE_CASES])
def test_range_option_is_rejected_before_anything_loads(monkeypatch, tmp_path, command,
                                                        option, text, rule, source):
    assert_rejected_before_loading(monkeypatch, tmp_path, command, option, text, rule, source)


@pytest.mark.parametrize("command", COMMANDS)
def test_negative_seed_is_rejected_naming_the_option(monkeypatch, tmp_path, command):
    assert_rejected_before_loading(monkeypatch, tmp_path, command, "--seed", "-1",
                                   ">= 0, got -1", "flag")


@pytest.mark.parametrize("lr", NOT_FINITE_AND_POSITIVE)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_network_lr_must_be_finite_and_positive(tmp_path, monkeypatch, lr, source):
    for command, extra in (("train", ["--model", "lstm", "--grid", "4x2"]),
                           ("project", ["--epochs", "5"])):
        assert_rejected_before_loading(monkeypatch, tmp_path, command, "--lr", lr,
                                       f"in (0, inf), got {float(lr)}", source, *extra)


@pytest.mark.parametrize("option, text, rule", [
    ("--window", "0", ">= 1, got 0"),
    ("--split", "0", "in (0, 1), got 0.0"),
    ("--split", "1.5", "in (0, 1), got 1.5"),
    ("--min-class", "0", ">= 1, got 0"),
], ids=["window", "split-0", "split-1.5", "min-class"])
def test_ingest_range_flags_are_checked_before_anything_loads(tmp_path, monkeypatch,
                                                              option, text, rule):
    assert_rejected_before_loading(monkeypatch, tmp_path, "ingest", option, text, rule, "flag")


@pytest.mark.parametrize("min_leaf", ["0", "-5"])
def test_train_min_leaf_is_checked_before_anything_loads(tmp_path, monkeypatch, min_leaf):
    assert_rejected_before_loading(monkeypatch, tmp_path, "train", "--min-leaf", min_leaf,
                                   f">= 1, got {min_leaf}", "flag")


#: numeric options whose range is not part of their type: --target's needs
#: the class count, and --layer's is its choices
UNBOUNDED = {"target", "layer"}


def test_every_numeric_option_has_a_bounded_type():
    for command in cli._parser().options()["command"].choices:
        for dest, action in cli._options(command).items():
            if getattr(action.type, "__name__", None) in ("int", "float"):
                bounded = action.type.__qualname__.startswith("_bounded.")
                assert bounded == (dest not in UNBOUNDED), (command, dest)


@pytest.mark.parametrize("command, argv, message", [
    ("train", ["--model", "dense", "--grid", "dense:3:2"],
     "grid entry dense:3:2 diverged in epoch 1; try a smaller --lr"),
    ("project", ["--checkpoint", ("lstm", "seqnet.xlg"), "--epochs", 20],
     "autoencoder of width 8 diverged; try a smaller --lr"),
], ids=["train", "project"])
def test_a_diverged_fit_fails_its_command(bench, tmp_path, command, argv, message):
    argv = [bench.joinpath(*a) if isinstance(a, tuple) else a for a in argv]
    with np.errstate(all="ignore"):
        assert rejection(command, *argv, "--lr", "1e200", "--data", bench / "data",
                         "--out", tmp_path / "o") == (1, f"xlog: error: {message}\n")
    assert files_under(tmp_path / "o") == []
