"""Compare two sets of benchmark runs, one row per workload x metric.

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json

Each file is what ``run.py --repeat K --label L`` wrote to
``out/results-L.json``.  For every workload and end-to-end metric the
table gives each side's median and quartiles and a verdict:

* ``regressed``  — the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json`` (or any operation
  failed: ``failed_share`` has an absolute bound of 0);
* ``unresolved`` — the parent's own inter-quartile spread exceeds the
  bound, so the runs cannot tell a regression from noise;
* ``improved``   — the change's median is better by more than the
  parent's inter-quartile distance;
* ``unchanged``  — none of the above.

Exits non-zero when any row regressed.  ``--quick`` results are for
smoke tests and are refused.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import declared  # noqa: E402 - needs the path above
from spans import quartiles  # noqa: E402


def load(path):
    document = json.loads(Path(path).read_text())
    if document.get("quick"):
        raise SystemExit(f"compare.py: {path} is a --quick run; "
                         f"quick runs measure nothing comparable")
    return document


def samples(document):
    """{workload: {metric: [value per run]}} plus failed shares."""
    table = {}
    for run in document["runs"]:
        for workload, entry in run["workloads"].items():
            row = table.setdefault(workload, {})
            row.setdefault("failed_share", []).append(
                entry["info"]["failed_share"])
            for name, spec in (entry["end_to_end"] or {}).items():
                row.setdefault(name, []).append(spec["value"])
    return table


def verdict(parent, change, better, bound):
    """The verdict for one row, from each side's per-run values."""
    p_q1, p_median, p_q3 = quartiles(parent)
    _, c_median, _ = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (c_median - p_median)         # > 0: change is worse
    if worse_by > bound * abs(p_median):
        return "regressed"
    if p_q3 - p_q1 > bound * abs(p_median):
        return "unresolved"
    if -worse_by > p_q3 - p_q1:
        return "improved"
    return "unchanged"


def compare(parent_document, change_document):
    """Rows ``(workload, metric, parent quartiles, change quartiles,
    verdict)`` for every workload both documents ran."""
    specs = declared()["end_to_end"]
    parent, change = samples(parent_document), samples(change_document)
    rows = []
    for workload in parent:
        if workload not in change:
            continue
        for name, spec in specs.items():
            if name not in parent[workload] or name not in change[workload]:
                # a killed run has no metrics; failed_share carries it
                continue
            rows.append((
                workload, name, quartiles(parent[workload][name]),
                quartiles(change[workload][name]),
                verdict(parent[workload][name], change[workload][name],
                        spec["better"], spec["bound"]),
            ))
        failed = change[workload]["failed_share"]
        rows.append((
            workload, "failed_share",
            quartiles(parent[workload]["failed_share"]), quartiles(failed),
            "regressed" if max(failed) > 0 else "unchanged",
        ))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="results file of the parent commit")
    parser.add_argument("change", help="results file of the change")
    args = parser.parse_args(argv)
    rows = compare(load(args.parent), load(args.change))
    print(f"{'workload':<20} {'metric':<13} "
          f"{'parent q1/median/q3':<34} {'change q1/median/q3':<34} verdict")
    for workload, name, parent, change, outcome in rows:
        print(f"{workload:<20} {name:<13} "
              f"{'/'.join(f'{v:.4g}' for v in parent):<34} "
              f"{'/'.join(f'{v:.4g}' for v in change):<34} {outcome}")
    regressed = [row for row in rows if row[4] == "regressed"]
    if regressed:
        print(f"{len(regressed)} row(s) regressed", file=sys.stderr)
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
