"""Closed-loop benchmark of the xlog command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One caller makes the workload's sequence of
in-process ``xlog.cli.main(argv)`` calls, waiting for each to finish, and
repeats the sequence (a "pass") until ``--seconds`` have elapsed. Inputs are
generated from ``--seed`` by ``xlog.synth``. Every call's artifacts are
checked after it returns, outside the timed region, and every pass must
write the same bytes as the first. Each call's wall time is scaled to a
reference host speed by the probe in ``speed.py``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, requires their artifacts to be byte-identical,
and reports per-layer metrics from the traced passes. The last line of
standard output is one JSON object; the lines before it give the run record
and every metric with its unit.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: repetitions of interpreter start-up and of input generation per run
STARTUPS = 7
#: datasets generated per run; each is one set-up
DATASETS = 6
WORK_DIR = ".perfbench_run"

END_TO_END = {
    "setup_s": "s", "pipeline_s": "s", "ingest_s": "s", "train_s": "s",
    "explain_s": "s", "project_s": "s", "lime_case_p50_s": "s",
    "lime_case_p75_s": "s", "peak_rss_mb": "MB", "forest_test_acc": "ratio",
}

#: result quality that depends on the seed's data more than the bounds allow;
#: reported per layer, where no bound applies
LAYER_QUALITY = {
    "eventlog.imputation_acc": "imputation_acc",
    "explain.lime_fidelity_median": "lime_fidelity_median",
    "seqnet.test_acc": "seqnet_test_acc",
    "latent.cluster_purity": "cluster_purity",
}

#: per-layer metric -> unit; ``*.self_s`` names are span self times
PER_LAYER = {
    "eventlog.clean_log.self_s": "s", "eventlog.impute_pairs": "count",
    "eventlog.imputed": "count", "eventlog.dropped": "count",
    "eventlog.parse_log.self_s": "s", "eventlog.events": "count",
    "encode.encode_sequences.self_s": "s", "encode.encode_sequences.calls": "count",
    "encode.encode_flat.self_s": "s", "encode.build_vocab.self_s": "s",
    "encode.cells": "count",
    "container.save_arrays.self_s": "s", "container.save_arrays.bytes": "bytes",
    "container.load_arrays.self_s": "s", "container.load_arrays.calls": "count",
    "container.load_arrays.bytes": "bytes",
    "forest.fit_tree.self_s": "s", "forest.fit_tree.calls": "count",
    "forest.fit_forest.self_s": "s", "forest.gini_importance.self_s": "s",
    "forest.predict_proba.self_s": "s", "forest.predict_proba.calls": "count",
    "forest.predict_proba.rows": "count",
    "forest.from_json.self_s": "s", "forest.to_json.self_s": "s",
    "forest.checkpoint_bytes": "bytes",
    "explain.lime_explain.self_s": "s", "explain.perturb.self_s": "s",
    "explain.perturb.rows": "count", "explain.predictor_calls": "count",
    "explain.predictor_rows": "count",
    "explain.ice.self_s": "s", "explain.ale.self_s": "s",
    "explain.fit_global_surrogate.self_s": "s", "explain.submodular_pick.self_s": "s",
    "seqnet.loss_and_grads.self_s": "s", "seqnet.loss_and_grads.calls": "count",
    "seqnet.train.self_s": "s", "seqnet.steps_scanned": "count",
    "seqnet.step_fill": "ratio",
    "seqnet.evaluate.self_s": "s", "seqnet.evaluate.rows": "count",
    "seqnet.evaluate.peak_mb": "MB",
    "seqnet.forward.self_s": "s", "seqnet.forward.peak_mb": "MB",
    "seqnet.hidden_summary.self_s": "s", "seqnet.hidden_summary.peak_mb": "MB",
    "latent.fit_autoencoder.self_s": "s", "latent.kmeans.self_s": "s",
    "latent.silhouette_score.self_s": "s", "latent.silhouette_score.peak_mb": "MB",
    "cli.self_s": "s", "svgplot.self_s": "s",
    "synth.generate_synthetic.self_s": "s", "synth.log_to_csv.self_s": "s",
    "trace.overhead_s": "s",
    **{name: "ratio" for name in LAYER_QUALITY},
}


def prepare(root: str) -> str:
    """Point imports at ``root/src`` and cap BLAS threads at the CPUs this
    process may use. Must run before numpy is imported."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "xlog", "cli.py")):
        raise FileNotFoundError(f"no xlog sources under {src}; run from the repository root")
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    if src not in sys.path:
        sys.path.insert(0, src)
    return src


class Runner:
    """One workload at one seed: set-up, passes, checks and metrics.

    The seed yields ``DATASETS`` event logs; passes cycle through them, so a
    run's figures average over several draws of the input.
    """

    def __init__(self, workload, seed: int, root: str, tracer=None):
        from xlog import cli
        import workloads

        self.cli, self.wl = cli, workloads
        self.w, self.seed, self.tracer = workload, seed, tracer
        self.work = os.path.join(root, WORK_DIR, f"{workload.name}-{os.getpid()}")
        self.out = os.path.join(self.work, "out")
        self.dirs = workloads.output_dirs(workload, self.out)
        self.datasets: list[dict] = []
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.first_digest: dict[int, dict] = {}

    # -------------------------------------------------------------- set-up

    def setup(self, src: str) -> tuple[float, list[float], list[float]]:
        """Median interpreter start-up with imports plus median generation of
        one dataset; returns (setup_s, start-ups, generations)."""
        import speed
        probe = f"import sys; sys.path.insert(0, {src!r}); import xlog.cli"
        startups = []
        for _ in range(STARTUPS):
            _, _, dt = speed.timed(functools.partial(
                subprocess.run, [sys.executable, "-c", probe], check=True, env=os.environ))
            startups.append(dt)
        gens = []
        for k in range(DATASETS):
            inputs = os.path.join(self.work, f"inputs{k}")
            planted, _, dt = speed.timed(functools.partial(
                self.wl.make_inputs, self.w, self.wl.dataset_seed(self.seed, k), inputs))
            gens.append(dt)
            self.datasets.append({"inputs": inputs, "planted": planted})
        return statistics.median(startups) + statistics.median(gens), startups, gens

    # -------------------------------------------------------------- passes

    def _main(self, argv, traced) -> int:
        tr = self.tracer
        if traced:
            tr.active = True
            idx = tr.open("cli")
        try:
            return self.cli.main(argv)
        except SystemExit as exc:
            return 0 if exc.code in (None, 0) else 1
        except Exception as exc:  # a crashing call is a failed operation
            print(f"perfbench: {argv[0]} raised {exc!r}", file=sys.stderr)
            return 1
        finally:
            if traced:
                tr.close(idx)
                tr.active = False

    def _call(self, argv, traced, check, timings, stage):
        import speed
        rc, wall, dt = speed.timed(functools.partial(self._main, argv, traced))
        timings.append((stage, dt, wall))
        self.attempted += 1
        reason = None if rc == 0 else f"exit code {rc}"
        if reason is None:
            try:
                check()
            except Exception as exc:  # any unreadable artifact fails the call
                reason = f"check failed: {exc}"
        if reason is not None:
            self.failed += 1
            self.errors.append(f"{' '.join(argv[:3])}: {reason}")

    def run_pass(self, k: int, traced: bool) -> dict:
        """One pass of the call sequence over dataset ``k``: per-stage
        timings, result quality and the digest of every artifact written,
        which must equal the first pass over the same dataset."""
        from checks import check_explain, check_forest, check_ingest, check_lime, \
            check_project, check_seqnet, digest

        w, d, ds, timings = self.w, self.dirs, self.datasets[k], []
        seed = self.wl.dataset_seed(self.seed, k)
        shutil.rmtree(self.out, ignore_errors=True)
        self._call(self.wl.ingest_argv(w, seed, ds["inputs"], d["data"]), traced,
                   functools.partial(check_ingest, d["data"], len(ds["planted"])), timings,
                   "ingest")
        lime_ids, target, n_cases = self._describe_data(ds)
        for stage, kind, argv in self.wl.analysis_calls(w, seed, d, lime_ids, target):
            out = argv[argv.index("--out") + 1]
            if kind == "lime":
                check = functools.partial(check_lime, out, argv[argv.index("--instance") + 1])
            elif kind == "forest":
                check = functools.partial(check_forest, out)
            elif kind == "seqnet":
                check = functools.partial(check_seqnet, out)
            elif kind == "project":
                check = functools.partial(check_project, out, n_cases)
            else:
                check = functools.partial(check_explain, out, kind)
            self._call(argv, traced, check, timings, stage)
        stage_s = defaultdict(float)
        for stage, dt, _ in timings:
            stage_s[stage] += dt
        result = {"dataset": k, "total": sum(dt for _, dt, _ in timings),
                  "wall": sum(wall for _, _, wall in timings), "stage": dict(stage_s),
                  "lime": [dt for stage, dt, _ in timings if stage == "lime"],
                  "digest": digest(self.out), "quality": self._quality(ds)}
        ckpt = os.path.join(d["forest"], "forest.json")
        result["forest_json_bytes"] = os.path.getsize(ckpt) if os.path.exists(ckpt) else 0
        first = self.first_digest.setdefault(k, result["digest"])
        if result["digest"] != first:
            self.errors.append(f"a pass over dataset {k} wrote different bytes than the "
                               f"first pass over it ({'traced' if traced else 'untraced'})")
        return result

    def _describe_data(self, ds):
        """Case ids for the single-case calls, the age-rule class index and
        the case count, read from the ingested data."""
        from xlog import encode
        try:
            flat = encode.FlatDataset.load(os.path.join(self.dirs["data"], "flat.xlg"))
            seq = encode.SequenceDataset.load(os.path.join(self.dirs["data"], "sequences.xlg"))
            with open(os.path.join(self.dirs["data"], "split.json"), encoding="utf-8") as fh:
                test = json.load(fh)["test"]
        except (OSError, ValueError, KeyError):
            return [], 0, 0
        ds["shape"] = {"cases": int(len(flat.Y)), "unlabelled": len(ds["planted"]),
                       "events": int(seq.mask.sum()), "flat_width": int(flat.X.shape[1]),
                       "mask_fill": float(seq.mask.mean())}
        ids = [flat.case_ids[i] for i in sorted(test)[: self.w.lime_cases]]
        target = flat.label_names.index(self.wl.AGE_CLASS) \
            if self.wl.AGE_CLASS in flat.label_names else 0
        return ids, target, len(flat.Y)

    def _quality(self, ds) -> dict:
        """Deterministic result quality of the pass just run; NaN where an
        artifact is missing (the failed call is already counted)."""
        from xlog import encode
        d = self.dirs

        def load(path):
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)

        try:
            flat = encode.FlatDataset.load(os.path.join(d["data"], "flat.xlg"))
            label_of = {cid: flat.label_names[y] for cid, y in zip(flat.case_ids, flat.Y)}
            planted = ds["planted"]
            fids = [exp["fidelity"] for exp in
                    (load(os.path.join(d["explain"], n)) for n in sorted(os.listdir(d["explain"]))
                     if n.startswith("lime_") and n.endswith(".json"))
                    if not exp["degenerate"]]
            nets = [load(os.path.join(d[f"net{i}"], "train_table.json"))["rows"][0]["accuracy"]
                    for i in range(len(self.w.nets))]
            return {
                "imputation_acc": sum(label_of.get(c) == lab for c, lab in planted.items())
                / len(planted),
                "forest_test_acc": load(os.path.join(d["forest"], "train_table.json"))
                ["rows"][0]["test_accuracy"],
                "lime_fidelity_median": statistics.median(fids),
                "seqnet_test_acc": min(nets),
                "cluster_purity": load(os.path.join(d["latent"], "cluster_report.json"))
                ["purity"],
            }
        except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError,
                statistics.StatisticsError):
            return defaultdict(lambda: float("nan"))


def _combined(digest: dict) -> str:
    """One hash over every artifact of a pass, to compare separate runs."""
    return hashlib.sha256(json.dumps(digest, sort_keys=True).encode()).hexdigest()


def _per_dataset(passes, value) -> float:
    """Mean over datasets of the mean of that dataset's pass values, so that
    each input draw weighs the same whatever its pass count."""
    groups = defaultdict(list)
    for p in passes:
        groups[p["dataset"]].append(value(p))
    return statistics.fmean(statistics.fmean(v) for v in groups.values())


def _lime_quantile(i):
    """Quartile ``i`` of one pass's single-case LIME latencies."""
    return lambda p: statistics.quantiles(p["lime"], n=4, method="inclusive")[i]


def _loop(seconds, step):
    """Call ``step(i)`` for i = 0, 1, ... until ``seconds`` have elapsed and
    every dataset has had at least one pass."""
    t_start, i = time.perf_counter(), 0
    while i < DATASETS or time.perf_counter() - t_start < seconds:
        step(i % DATASETS)
        i += 1


def end_to_end(runner: Runner, seconds: float, setup_s: float) -> tuple[dict, dict]:
    passes = []
    _loop(seconds, lambda k: passes.append(runner.run_pass(k, traced=False)))
    metrics = {
        "setup_s": setup_s,
        "pipeline_s": _per_dataset(passes, lambda p: p["total"]),
        **{f"{s}_s": _per_dataset(passes, lambda p, s=s: p["stage"].get(s, 0.0))
           for s in ("ingest", "train", "explain", "project")},
        "lime_case_p50_s": _per_dataset(passes, _lime_quantile(1)),
        "lime_case_p75_s": _per_dataset(passes, _lime_quantile(2)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "forest_test_acc": _per_dataset(passes, lambda p: p["quality"]["forest_test_acc"]),
    }
    info = {"passes": len(passes), "lime_calls": sum(len(p["lime"]) for p in passes),
            "pass_s": [p["total"] for p in passes],
            "pass_wall_s": [p["wall"] for p in passes],
            "pass_stage_s": [p["stage"] for p in passes],
            "artifacts_sha256": [_combined(runner.first_digest[k]) for k in range(DATASETS)]}
    return metrics, info


def per_layer(runner: Runner, seconds: float, setup_self_s: dict) -> tuple[dict, dict]:
    tr = runner.tracer
    plain, traced = [], []

    def step(k):
        plain.append(runner.run_pass(k, traced=False))
        mark = tr.mark()
        traced.append(runner.run_pass(k, traced=True))
        traced[-1]["self_s"], traced[-1]["counts"] = tr.since(mark)

    _loop(seconds, step)
    first_counts = {}
    for t in traced:
        if first_counts.setdefault(t["dataset"], t["counts"]) != t["counts"]:
            runner.errors.append(f"traced passes over dataset {t['dataset']} recorded "
                                 "different counts")
    counts = defaultdict(int)
    for c in first_counts.values():
        for name, v in c.items():
            counts[name] += v

    def self_time(*names):
        return _per_dataset(traced, lambda t: sum(t["self_s"].get(n, 0.0) for n in names))

    metrics = {}
    for name, unit in PER_LAYER.items():
        if name.endswith(".self_s") and not name.startswith(("synth.", "svgplot.")):
            metrics[name] = self_time(name[: -len(".self_s")])
        elif name.endswith(".peak_mb"):
            metrics[name] = tr.peaks.get(name[: -len(".peak_mb")], 0.0)
        elif unit in ("count", "bytes"):
            metrics[name] = counts.get(name, 0)
    metrics["svgplot.self_s"] = self_time("svgplot.barh_chart", "svgplot.line_chart",
                                          "svgplot.scatter_chart")
    for fn in ("generate_synthetic", "log_to_csv"):
        metrics[f"synth.{fn}.self_s"] = setup_self_s.get(f"synth.{fn}", 0.0)
    metrics["forest.checkpoint_bytes"] = sum(
        t["forest_json_bytes"] for t in traced[:DATASETS])
    scanned = counts.get("seqnet.steps_scanned", 0)
    metrics["seqnet.step_fill"] = counts.get("seqnet.steps_true", 0) / scanned if scanned else 0.0
    metrics["trace.overhead_s"] = (_per_dataset(traced, lambda p: p["total"])
                                   - _per_dataset(plain, lambda p: p["total"]))
    for name, key in LAYER_QUALITY.items():
        metrics[name] = _per_dataset(traced, lambda t, key=key: t["quality"][key])
    info = {"passes": len(traced), "untraced_passes": len(plain),
            "artifacts_sha256": [_combined(runner.first_digest[k]) for k in range(DATASETS)]}
    return {k: metrics[k] for k in PER_LAYER}, info


def environment(src: str) -> dict:
    import numpy as np
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no dict mode
        pass
    lines = 0
    for name in sorted(os.listdir(os.path.join(src, "xlog"))):
        if name.endswith(".py"):
            with open(os.path.join(src, "xlog", name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "src_xlog_lines": lines}


def run(workload, seed: int, seconds: float, trace: bool, root: str) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run record)."""
    src = prepare(root)
    import workloads
    from tracing import Tracer

    tracer = Tracer() if trace else None
    runner = Runner(workload, seed, root, tracer)
    try:
        if tracer is not None:
            tracer.install()
            tracer.active = True
            setup_mark = tracer.mark()
        setup_s, startups, gens = runner.setup(src)
        if tracer is not None:
            tracer.active = False
            self_s, _ = tracer.since(setup_mark)
            per_generation = {k: v / DATASETS for k, v in self_s.items()}
            metrics, info = per_layer(runner, seconds, per_generation)
        else:
            metrics, info = end_to_end(runner, seconds, setup_s)
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "datasets": [{"seed": workloads.dataset_seed(seed, k), **ds.get("shape", {})}
                     for k, ds in enumerate(runner.datasets)],
        "setup": {"startup_s": startups, "generate_s": gens},
        "run": info, "attempted": runner.attempted, "failed": runner.failed,
        "op_error_rate": runner.failed / max(runner.attempted, 1),
        "errors": runner.errors[:20], "environment": environment(src),
    }
    out_dir = os.path.join(root, WORK_DIR)
    shutil.rmtree(runner.work, ignore_errors=True)
    with open(os.path.join(out_dir, f"{workload.name}.record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        with open(os.path.join(out_dir, f"{workload.name}.trace.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": runner.failed == 0 and not runner.errors,
        "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    try:
        prepare(root)
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, record = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), root)
    print("record " + json.dumps(record, sort_keys=True))
    print(f"op_error_rate {record['op_error_rate']!r} ratio "
          f"({record['failed']} of {record['attempted']} calls failed)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
