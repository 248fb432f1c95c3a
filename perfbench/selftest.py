"""Self-test of the benchmark at a few dozen cases per class.

    python3 perfbench/selftest.py

Run from the repository root. For each workload, shrunk by
``workloads.tiny``, it makes one untraced and two traced runs of one pass
each and requires that:

- every call succeeds and every output check passes;
- every end-to-end and per-layer metric is reported, with its unit;
- traced passes write the same bytes as untraced ones, within a run and
  across runs of the same seed;
- the traced counts repeat exactly across the two traced runs.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

SEED = 5


def check_workload(w, root) -> list[str]:
    problems = []
    plain, plain_rec = run.run(w, SEED, 0, False, root)
    traced = [run.run(w, SEED, 0, True, root) for _ in range(2)]
    for (result, record), units in [((plain, plain_rec), run.END_TO_END)] + \
            [(t, run.PER_LAYER) for t in traced]:
        mode = "traced" if record["trace"] else "untraced"
        if not result["correct"] or result["failed"]:
            problems.append(f"{mode} run failed checks: {record['errors']}")
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        if got != units:
            problems.append(f"{mode} metrics differ from the declared names and units")
    for _, record in traced:
        if record["run"]["artifacts_sha256"] != plain_rec["run"]["artifacts_sha256"]:
            problems.append("traced run wrote different bytes than the untraced run")
    counts = [{k: m["value"] for k, m in result["metrics"].items()
               if m["unit"] in ("count", "bytes")} for result, _ in traced]
    if counts[0] != counts[1]:
        problems.append("traced counts differ between two runs of the same seed")
    return problems


def main() -> int:
    root = os.getcwd()
    try:
        run.prepare(root)
    except FileNotFoundError as exc:
        print(f"selftest: {exc}", file=sys.stderr)
        return 2
    import workloads

    failed = False
    for w in workloads.WORKLOADS.values():
        problems = check_workload(workloads.tiny(w), root)
        failed |= bool(problems)
        print(f"{w.name}: {'ok' if not problems else 'FAIL'}")
        for p in problems:
            print(f"  {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
