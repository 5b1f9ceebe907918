#!/usr/bin/env python3
"""Golden plans of the six benchmark workloads (seed 11, first 400 ops).

``--write`` dumps ``{workload|sql: [fingerprint, repr(predicted_cost),
mode, root]}`` for every distinct pool + op query to
``tests/data/plan_fingerprints.json``; ``--check`` re-plans and lists
the keys that differ (``tests/tools/test_plan_fingerprints.py`` is the
same check in tier-1).  A change that must keep plans bit-identical
writes the file on its parent commit and checks on its own.
``live_mutation``'s writes are applied as the stream issues them; a
query re-planned after ``n`` of them is keyed ``...|after n writes``.
Every ``cyclic_skew`` pool query is also planned under each of
``VARIANTS`` (the cyclic strategy and search paths the workload's own
knobs do not reach), keyed ``cyclic_skew|sql|knob=value``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "data" / "plan_fingerprints.json"
SEED, OPS = 11, 400
VARIANTS = (("cyclic_execution", "wcoj"), ("cyclic_execution", "tree_filter"),
            ("driver", "auto"))


def collect():
    """The golden mapping, planned with this checkout's ``repro``."""
    sys.path[:0] = [str(REPO / "src"), str(REPO / "benchmarks" / "e2e")]
    import gen  # read-only: the benchmark's own generator
    from child import apply_write
    from repro import Catalog, QuerySession

    golden = {}
    for name, generator in gen.GENERATORS.items():
        workload = generator(SEED, OPS)
        catalog = Catalog()
        for table, columns in workload.tables.items():
            catalog.add_table(
                table, {col: values.copy() for col, values in columns.items()})
        session = QuerySession(catalog, **workload.session)
        knobs = {knob: value for knob, value in workload.execute.items()
                 if knob != "collect_output"}

        def record(sql, suffix="", **variant):
            key = f"{name}|{sql}{suffix}"
            if key not in golden:
                plan = session.plan(sql, **knobs, **variant)
                golden[key] = [plan.fingerprint(), repr(plan.predicted_cost),
                               str(plan.mode), plan.query.root]

        for query in workload.pool:
            record(query.sql())
            for knob, value in VARIANTS if workload.cyclic else ():
                record(query.sql(), f"|{knob}={value}", **{knob: value})
        writes = 0
        for op in workload.ops:
            if op[0] != "read":
                apply_write(catalog, op)
                writes += 1
                continue
            record(op[1].sql(), f"|after {writes} writes" if writes else "")
        session.close()
    return golden


def main(argv):
    if argv == ["--write"]:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(collect(), indent=0, sort_keys=True) + "\n")
        return 0
    if argv != ["--check"]:
        print(__doc__)
        return 2
    golden, current = json.loads(GOLDEN.read_text()), collect()
    differing = [key for key in sorted(golden.keys() | current.keys())
                 if golden.get(key) != current.get(key)]
    for key in differing:
        print(f"{key}: golden {golden.get(key)} != {current.get(key)}")
    print(f"{len(differing)} of {len(golden)} plans differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
