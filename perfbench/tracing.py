"""Spans and counts recorded from outside the program.

The tracer replaces public functions of the xlog modules with wrappers at
module-attribute level. Python resolves module globals at call time, so calls
made inside a module (``fit_forest`` -> ``fit_tree``) and across modules
(``latent`` -> ``seqnet.hidden_summary``) go through the wrappers too. Counts
come from call arguments and results only, never from model internals.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
import tracemalloc
from collections import Counter, defaultdict


def _count_scan(tr, a, result):
    """Every seqnet entry point scans all M x T steps of its batch."""
    X, mask = a["X"], a["mask"]
    tr.counts["seqnet.steps_scanned"] += int(X.shape[0] * X.shape[1])
    tr.counts["seqnet.steps_true"] += int(mask.sum())


def _count_clean(tr, a, result):
    cases = a["log"].cases
    labelled = sum(c.diagnosis_code is not None for c in cases)
    tr.counts["eventlog.impute_pairs"] += labelled * (len(cases) - labelled)
    tr.counts["eventlog.imputed"] += result[1].imputed_labels
    tr.counts["eventlog.dropped"] += result[1].dropped_cases


def _count_predict(tr, a, result):
    n = len(a["X"])
    tr.counts["forest.predict_proba.calls"] += 1
    tr.counts["forest.predict_proba.rows"] += n
    if any(tr.spans[i][0].startswith("explain.") for i in tr.stack):
        tr.counts["explain.predictor_calls"] += 1
        tr.counts["explain.predictor_rows"] += n


def _count_loss(tr, a, result):
    tr.counts["seqnet.loss_and_grads.calls"] += 1
    _count_scan(tr, a, result)


def _count_evaluate(tr, a, result):
    tr.counts["seqnet.evaluate.rows"] += len(a["Y"])
    _count_scan(tr, a, result)


def _count_file(prefix, calls):
    def count(tr, a, result):
        if calls:
            tr.counts[prefix + ".calls"] += 1
        tr.counts[prefix + ".bytes"] += os.path.getsize(a["path"])
    return count


#: module -> {function: (count hook or None, record tracemalloc peak)}
TRACED = {
    "eventlog": {
        "parse_log": (lambda tr, a, r: tr.counts.update({"eventlog.events": r.n_events()}), False),
        "clean_log": (_count_clean, False),
    },
    "encode": {
        "build_vocab": (None, False),
        "encode_sequences": (lambda tr, a, r: tr.counts.update(
            {"encode.encode_sequences.calls": 1, "encode.cells": r.X.size}), False),
        "encode_flat": (lambda tr, a, r: tr.counts.update({"encode.cells": r.X.size}), False),
    },
    "container": {
        "save_arrays": (_count_file("container.save_arrays", calls=False), False),
        "load_arrays": (_count_file("container.load_arrays", calls=True), False),
    },
    "forest": {
        "fit_tree": (lambda tr, a, r: tr.counts.update({"forest.fit_tree.calls": 1}), False),
        "fit_forest": (None, False),
        "predict_proba": (_count_predict, False),
        "gini_importance": (None, False),
        "to_json": (None, False),
        "from_json": (None, False),
    },
    "explain": {
        "lime_explain": (None, False),
        "perturb": (lambda tr, a, r: tr.counts.update({"explain.perturb.rows": len(r[0])}), False),
        "ice": (None, False),
        "ale": (None, False),
        "fit_global_surrogate": (None, False),
        "submodular_pick": (None, False),
    },
    "seqnet": {
        "train": (None, False),
        "loss_and_grads": (_count_loss, False),
        "evaluate": (_count_evaluate, True),
        "forward": (_count_scan, True),
        "hidden_summary": (_count_scan, True),
    },
    "latent": {
        "fit_autoencoder": (None, False),
        "kmeans": (None, False),
        "silhouette_score": (None, True),
    },
    "svgplot": {
        "barh_chart": (None, False),
        "line_chart": (None, False),
        "scatter_chart": (None, False),
    },
    "synth": {
        "generate_synthetic": (None, False),
        "log_to_csv": (None, False),
    },
}


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` and named counts.

    Wrappers pass straight through while ``active`` is false, so output
    checks and untraced passes record nothing.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = defaultdict(float)
        self.active = False
        self._installed: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, module, attr, count, peak):
        fn = getattr(module, attr)
        sig = inspect.signature(fn)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            own_peak = peak and not tracemalloc.is_tracing()
            if own_peak:
                tracemalloc.start()
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if own_peak:
                    mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    tracer.peaks[name] = max(tracer.peaks[name], mb)
            if count is not None:
                count(tracer, sig.bind(*args, **kwargs).arguments, result)
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, fn))

    def install(self) -> None:
        import importlib
        for mod_name, fns in TRACED.items():
            module = importlib.import_module(f"xlog.{mod_name}")
            for attr, (count, peak) in fns.items():
                self._wrap(module, attr, count, peak)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def mark(self) -> tuple[int, Counter]:
        """Snapshot taken before a traced pass; see ``since``."""
        return len(self.spans), Counter(self.counts)

    def since(self, mark) -> tuple[dict, dict]:
        """Self time per span name and counts recorded after ``mark``. A
        span's self time is its duration minus that of its child spans."""
        first, counts0 = mark
        self_s: dict[str, float] = defaultdict(float)
        for i in range(first, len(self.spans)):
            name, start, end, parent = self.spans[i]
            dur = end - start
            self_s[name] += dur
            if parent is not None and parent >= first:
                self_s[self.spans[parent][0]] -= dur
        counts = {k: v - counts0.get(k, 0) for k, v in self.counts.items()}
        return dict(self_s), counts

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "peaks_mb": dict(self.peaks)}
