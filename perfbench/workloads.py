"""Workload definitions: synthetic inputs and the CLI call sequence of one pass.

Every workload runs the same six stages (ingest, forest training, single-case
LIME, the global explainers, sequence-network training, latent projection) so
that every metric exists on every workload. Each workload makes one stage
heavy and keeps the others light; the heavy stage is the layer it loads.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

LABELS = ("c_alpha", "c_beta", "c_gamma")
AGE_CLASS = "c_beta"


@dataclass(frozen=True)
class Workload:
    name: str
    cases: int                  # per class
    lengths: tuple[int, int]    # min and max case length in events
    noise_vocab: int
    window: int
    blank: float                # share of case labels blanked before ingest
    forest_grid: str
    cv_k: int
    lime_cases: int             # single-case `explain --method lime` calls per pass
    lime_samples: int
    pick_candidates: int
    nets: tuple[str, ...]       # one `train` call per arch:nodes:epochs entry
    bottleneck_grid: str
    ae_epochs: int


WORKLOADS = {w.name: w for w in (
    # label imputation (54 unlabelled x 486 labelled cases) dominates the pass
    Workload(
        name="ingest_impute",
        cases=180, lengths=(10, 40), noise_vocab=60, window=40, blank=0.10,
        forest_grid="4x20", cv_k=2, lime_cases=4, lime_samples=200,
        pick_candidates=2, nets=("dense:8:1",), bottleneck_grid="4",
        ae_epochs=90),
    # forest fitting, then forest prediction behind 10 single-case LIME calls
    # and the global explainers. The two grid cells cost about the same, so
    # the data-dependent choice of the refit cell barely moves the fit time.
    Workload(
        name="forest_explain",
        cases=100, lengths=(10, 60), noise_vocab=60, window=64, blank=0.02,
        forest_grid="8x30,8x40", cv_k=2, lime_cases=10, lime_samples=500,
        pick_candidates=3, nets=("dense:8:1",), bottleneck_grid="4",
        ae_epochs=90),
    # LSTM and BiLSTM BPTT with per-epoch evaluation, then latent projection
    # (caching inference, autoencoder, k-means, O(n^2) silhouette)
    Workload(
        name="seqnet_latent",
        cases=100, lengths=(6, 60), noise_vocab=60, window=64, blank=0.02,
        forest_grid="4x20", cv_k=2, lime_cases=4, lime_samples=200,
        pick_candidates=2, nets=("lstm:16:2", "bilstm:12:2"),
        bottleneck_grid="4,8", ae_epochs=150),
)}


def synth_spec(w: Workload) -> dict:
    motifs = (["mot_a1", "mot_a2"], ["mot_b1", "mot_b2"], ["mot_c1", "mot_c2"])
    return {
        "classes": [{"label": lab, "motif": m, "cases": w.cases, "motif_position": 2}
                    for lab, m in zip(LABELS, motifs)],
        "noise_vocab": w.noise_vocab,
        "min_length": w.lengths[0],
        "max_length": w.lengths[1],
        "age_rule": {"label": AGE_CLASS, "threshold": 70},
    }


def dataset_seed(seed: int, k: int) -> int:
    """Seed of the ``k``-th dataset of a run made with ``seed``."""
    return int(np.random.SeedSequence([seed % 2**32, k]).generate_state(1)[0])


def make_inputs(w: Workload, seed: int, out_dir: str) -> dict:
    """Generate the workload's event log from ``seed``, blank a seeded share
    of its labels and write ``events.csv`` and ``schema.json``.

    Returns the planted label of every blanked case, keyed by case id.
    """
    from xlog import synth

    spec = synth.SyntheticSpec.from_json(json.dumps(synth_spec(w)))
    log, _ = synth.generate_synthetic(spec, seed=seed)
    rng = np.random.default_rng([seed, 1])
    n_blank = int(round(w.blank * len(log.cases)))
    blanked = set(rng.choice(len(log.cases), size=n_blank, replace=False).tolist())
    planted = {}
    for i in sorted(blanked):
        case = log.cases[i]
        planted[case.case_id] = case.diagnosis_code
        log.cases[i] = replace(case, diagnosis_code=None)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "events.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(synth.log_to_csv(log))
    with open(os.path.join(out_dir, "schema.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(synth.DEFAULT_SCHEMA), fh)
    return planted


def ingest_argv(w: Workload, seed: int, inputs: str, data: str) -> list[str]:
    return ["ingest", "--csv", os.path.join(inputs, "events.csv"),
            "--schema", os.path.join(inputs, "schema.json"),
            "--window", str(w.window), "--seed", str(seed), "--out", data]


def analysis_calls(w: Workload, seed: int, dirs: dict, lime_ids: list[str],
                   target: int) -> list[tuple[str, str, list[str]]]:
    """The (stage, kind, argv) calls that follow ingest in one pass. The
    stage names the end-to-end metric the call counts towards; the kind
    names the output check."""
    data, ckpt = dirs["data"], os.path.join(dirs["forest"], "forest.json")
    common = ["--data", data, "--seed", str(seed)]
    explain = ["explain", *common, "--checkpoint", ckpt, "--out", dirs["explain"]]
    calls = [("train", "forest", ["train", *common, "--model", "forest",
                                  "--grid", w.forest_grid, "--cv-k", str(w.cv_k),
                                  "--out", dirs["forest"]])]
    calls += [("lime", "lime", [*explain, "--method", "lime", "--instance", cid,
                                "--n-samples", str(w.lime_samples)]) for cid in lime_ids]
    calls += [
        ("explain", "pick", [*explain, "--method", "pick", "--target", str(target),
                             "--max-candidates", str(w.pick_candidates), "--budget", "2",
                             "--n-samples", str(w.lime_samples)]),
        ("explain", "pdp", [*explain, "--method", "pdp", "--feature", "age",
                            "--target", str(target)]),
        ("explain", "ale", [*explain, "--method", "ale", "--feature", "age",
                            "--target", str(target)]),
        ("explain", "surrogate", [*explain, "--method", "surrogate"]),
    ]
    for i, net in enumerate(w.nets):
        calls.append(("train", "seqnet", ["train", *common, "--model", net.split(":")[0],
                                          "--grid", net, "--out", dirs[f"net{i}"]]))
    calls.append(("project", "project", [
        "project", *common, "--checkpoint", os.path.join(dirs["net0"], "seqnet.xlg"),
        "--bottleneck-grid", w.bottleneck_grid, "--epochs", str(w.ae_epochs),
        "--k", str(len(LABELS)), "--out", dirs["latent"]]))
    return calls


def output_dirs(w: Workload, root: str) -> dict:
    names = ["data", "forest", "explain", "latent"] + [f"net{i}" for i in range(len(w.nets))]
    return {n: os.path.join(root, n) for n in names}


def tiny(w: Workload) -> Workload:
    """The same workload at a few dozen cases per class, for the self-test."""
    return replace(w, cases=40, lengths=(w.lengths[0], min(w.lengths[1], 20)),
                   window=20, forest_grid="5x10", cv_k=2, lime_cases=2,
                   lime_samples=200, pick_candidates=2,
                   nets=tuple(f"{n.split(':')[0]}:4:1" for n in w.nets),
                   ae_epochs=20)
