"""The benchmark's tracer wraps xlog functions by name and binds their
arguments by parameter name, and its output checks read xlog's report files;
a rename or a format change must fail here, not at benchmark time."""

import json
import os
from pathlib import Path

from xlog import cli, eventlog, synth

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def files_under(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_traced_bench_writes_untraced_bytes_and_records_seqnet_spans(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import tracing

    assert cli.main(["bench", "--seed", "11", "--out", str(tmp_path / "plain")]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        assert cli.main(["bench", "--seed", "11", "--out", str(tmp_path / "traced")]) == 0
    finally:
        tracer.active = False
        tracer.uninstall()
    assert files_under(tmp_path / "traced") == files_under(tmp_path / "plain")
    names = {span[0] for span in tracer.spans}
    assert {"eventlog.parse_log", "eventlog.clean_log", "encode.build_vocab",
            "encode.encode_sequences"} <= names
    csv_lines = (tmp_path / "traced" / "synth" / "events.csv").read_text().splitlines()
    assert tracer.counts["eventlog.events"] == len(csv_lines) - 1
    assert tracer.counts["encode.cells"] > 0
    assert {"seqnet.loss_and_grads", "seqnet.evaluate", "seqnet.hidden_summary"} <= names
    assert tracer.counts["seqnet.steps_scanned"] > 0
    assert tracer.counts["seqnet.loss_and_grads.calls"] > 0
    # the benchmark's output checks parse every coordinate and curve value
    plain = tmp_path / "plain"
    split = json.loads((plain / "data" / "split.json").read_text())
    checks.check_project(str(plain / "latent"), len(split["train"]) + len(split["test"]))
    checks.check_explain(str(plain / "explain"), "pdp")
    for name, per_row in (("latent/projection.csv", 3), ("explain/pdp_age.csv", 2)):
        rows, values = checks._csv_numbers(str(plain / name))
        assert rows and len(values) == per_row * len(rows), name


def test_make_inputs_blanks_exactly_the_planted_cases(tmp_path, monkeypatch):
    # the benchmark blanks labels by assigning to synth's ``log.cases[i]``
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    w = workloads.tiny(workloads.WORKLOADS["ingest_impute"])
    planted = workloads.make_inputs(w, 11, str(tmp_path))
    table = eventlog.parse_log(tmp_path / "events.csv", synth.DEFAULT_SCHEMA)
    spec = synth.SyntheticSpec.from_json(json.dumps(workloads.synth_spec(w)))
    labels = {c.case_id: c.diagnosis_code
              for c in synth.generate_synthetic(spec, seed=11)[0].cases}
    assert planted and len(planted) < len(labels)
    assert dict(zip(table.case_ids, table.diagnosis_code)) == {
        cid: None if cid in planted else lab for cid, lab in labels.items()}
    assert all(planted[cid] == labels[cid] for cid in planted)


def test_every_traced_function_is_entered_by_a_tiny_pass_of_each_workload(tmp_path, monkeypatch):
    # a traced name that no pass enters reads 0 in every benchmark run, so
    # it measures nothing; seqnet.forward has no caller in the pipeline yet
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run as perfbench_run
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for w in map(workloads.tiny, workloads.WORKLOADS.values()):
            runner = perfbench_run.Runner(w, 5, str(tmp_path / w.name), tracer)
            inputs = os.path.join(runner.work, "inputs0")
            tracer.active = True
            try:
                planted = workloads.make_inputs(w, 5, inputs)
            finally:
                tracer.active = False
            runner.datasets.append({"inputs": inputs, "planted": planted})
            runner.run_pass(0, traced=True)
            assert runner.failed == 0 and not runner.errors, (w.name, runner.errors)
    finally:
        tracer.uninstall()
    entered = {span[0] for span in tracer.spans}
    traced = {f"{mod}.{fn}" for mod, fns in tracing.TRACED.items() for fn in fns}
    assert traced - entered <= {"seqnet.forward"}
