"""Every function and method defined in ``src/xlog`` is entered by a short run
of each subcommand, bar an explicit allowlist. A def that no command reaches
is either dead or kept only for tests, and should go."""

import ast
import csv
import pathlib
import re
import sys

import xlog
from xlog import cli

SRC = pathlib.Path(xlog.__file__).resolve().parent
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

#: defs that no subcommand enters, each kept only because ``perfbench/`` uses it
ALLOWED = {
    # perfbench builds and counts its inputs through the object form
    "eventlog.EventTable.cases",
    "eventlog.EventTable.n_events",
    # perfbench traces it, and the tests compare the scan against it
    "seqnet.forward",
}


def defined() -> dict:
    """(file, first line) -> qualified name of every def in ``src/xlog``,
    nested ones under ``<locals>``. A decorated def starts at its first
    decorator, as its code object does."""
    defs = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[(str(path), first)] = name
                walk(child, path, name + ".<locals>")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}.{child.name}")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return defs


def run(*argv):
    assert cli.main([str(a) for a in argv]) == 0, argv


def commands(tmp):
    """One bench, then each explainer, a mixed seqnet grid, a config-file
    projection and an ingest that imputes a label and reads a ``Z`` stamp."""
    bench = tmp / "bench"
    run("bench", "--seed", 11, "--out", bench)
    data, forest = bench / "data", bench / "forest" / "forest.json"
    explain = ["explain", "--data", data, "--checkpoint", forest, "--out", tmp / "explain"]
    run(*explain, "--method", "lime", "--instance", 0, "--n-samples", 200)
    run(*explain, "--method", "ice", "--feature", "age")
    run(*explain, "--method", "ale", "--feature", "age", "--grid-points", 4)
    for kind in ("linear", "tree"):
        run(*explain, "--method", "surrogate", "--surrogate-kind", kind)
    run("train", "--data", data, "--model", "seqnet", "--grid", "dense:3:1,bilstm:3:1",
        "--out", tmp / "seqnet")
    (tmp / "project.cfg").write_text("layer = 1\nepochs = 5\n", encoding="utf-8")
    run("project", "--config", tmp / "project.cfg", "--data", data,
        "--checkpoint", tmp / "seqnet" / "seqnet.xlg", "--out", tmp / "latent")
    with open(bench / "synth" / "events.csv", encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    col = {name: i for i, name in enumerate(header)}
    for row in rows:
        if row[col["case_id"]] == rows[0][col["case_id"]]:
            row[col["diagnosis_code"]] = ""
    rows[1][col["timestamp"]] = rows[1][col["timestamp"]].replace(" ", "T") + "Z"
    rows[2][col["activity"]] = 'say "hi", then go'  # quoted, so csv.reader splits the file
    with open(tmp / "events.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    run("ingest", "--csv", tmp / "events.csv", "--schema", bench / "synth" / "schema.json",
        "--min-class", 4, "--window", 9, "--out", tmp / "ingest")


def test_every_allowed_def_is_named_in_perfbench():
    """An entry stays on the allowlist only while the benchmark uses it."""
    sources = "\n".join(p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py")))
    assert sorted(name for name in ALLOWED
                  if not re.search(rf"\b{name.rsplit('.', 1)[1]}\b", sources)) == []


def test_every_def_in_src_is_entered_by_a_command(tmp_path):
    defs = defined()
    assert ALLOWED <= set(defs.values())
    entered = set()

    def probe(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    cli._parser.cache_clear()  # so the cached parser builders run under the probe
    cli._options.cache_clear()
    sys.setprofile(probe)
    try:
        commands(tmp_path)
    finally:
        sys.setprofile(None)
    entered = {(str(pathlib.Path(f).resolve()), line) for f, line in entered}
    reached = {defs[key] for key in entered if key in defs}
    assert sorted(set(defs.values()) - reached - ALLOWED) == []
    assert sorted(ALLOWED & reached) == []  # a reached def leaves the allowlist
