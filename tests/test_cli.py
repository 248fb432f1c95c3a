import csv
import json
import os

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
    from xlog import encode

    def boom(*args, **kwargs):
        raise OSError("disk full")

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
    assert run("synth", "--spec", spec_path, "--seed", 3,
               "--out", tmp_path / "synth") == 0
    monkeypatch.setattr(encode, "_write_manifest", boom)
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
])
def test_train_malformed_grid_entry_names_entry_and_form(pipeline, model, grid, form):
    out = pipeline / "malformed"
    with pytest.raises(SystemExit, match=f"grid entry '{grid}' is not of the form {form}"):
        run("train", "--data", pipeline / "data", "--model", model, "--grid", grid,
            "--out", out)
    assert files_under(out) == []


def test_parse_seqnet_grid_accepts_the_model_architecture():
    assert cli._parse_seqnet_grid("lstm:16:2,8x3", "lstm") == [("lstm", 16, 2), ("lstm", 8, 3)]
    assert cli._parse_seqnet_grid("dense:4:2,bilstm:4:1,6X2", "seqnet") == [
        ("dense", 4, 2), ("bilstm", 4, 1), ("lstm", 6, 2)]


@pytest.mark.parametrize("cv_k", [0, 1, 13, 40])
def test_train_rejects_cv_k_outside_usable_range(pipeline, capsys, cv_k):
    # each class has 12 training rows, so folds 2..12 are all non-empty
    out = pipeline / "cvk"
    assert run("train", "--data", pipeline / "data", "--model", "forest",
               "--grid", "5x4", "--cv-k", cv_k, "--seed", 5, "--out", out) == 1
    assert f"--cv-k must be between 2 and 12 (the largest class's training rows), " \
        f"got {cv_k}" in capsys.readouterr().err
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
], ids=["case-id", "negative-row", "row-past-end", "target", "negative-target",
        "empty-list"])
def test_explain_rejects_bad_instance_or_target(trained, flags, message):
    out = trained / "bad_lime"
    with pytest.raises(SystemExit, match=message):
        run("explain", "--data", trained / "data",
            "--checkpoint", trained / "forest" / "forest.json", "--method", "lime",
            *flags, "--n-samples", 50, "--out", out)
    assert files_under(out) == []


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


def test_project_rejects_k_zero(trained, capsys):
    out = trained / "k0"
    assert run("project", "--data", trained / "data",
               "--checkpoint", trained / "lstm" / "seqnet.xlg",
               "--k", 0, "--bottleneck-grid", 4, "--epochs", 5, "--out", out) == 1
    assert "k must be >= 1" in capsys.readouterr().err
    assert files_under(out) == []


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
window = 12
split = 0.25
model = "forest"
flag = true
""", encoding="utf-8")
    parsed = parse_config_file(cfg)
    assert parsed == {"seed": 7, "window": 12, "split": 0.25,
                      "model": "forest", "flag": True}


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


@pytest.mark.parametrize("command, flag", [
    ("ingest", ["--window", 0]),
    ("explain", ["--sigma", 0]),
    ("explain", ["--n-samples", 0]),
], ids=["window", "sigma", "n-samples"])
def test_explicit_zero_reaches_library_range_check(trained, command, flag):
    out = trained / "zero"
    if command == "ingest":
        argv = ["ingest", "--csv", trained / "synth" / "events.csv",
                "--schema", trained / "synth" / "schema.json", "--min-class", 4]
    else:
        argv = ["explain", "--data", trained / "data", "--method", "lime", "--instance", 0,
                "--checkpoint", trained / "forest" / "forest.json", "--n-samples", 50]
    assert run(*argv, *flag, "--seed", 1, "--out", out) == 1
    assert files_under(out) == []


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

    def boom(*args, **kwargs):
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
