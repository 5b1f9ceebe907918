"""Golden plans: the six benchmark workloads plan bit-identically.

``tests/data/plan_fingerprints.json`` was written by
``tools/plan_fingerprints.py --write`` at the commit whose plans are the
reference; this re-plans every distinct pool + op query (seed 11, first
400 ops) and diffs ``fingerprint()``, ``repr(predicted_cost)``, mode and
root.  A change that *means* to alter a plan regenerates the file and
says so; a planner speed-up must leave it alone.
"""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def test_benchmark_plans_match_the_golden_file(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "plan_fingerprints_under_test", REPO / "tools" / "plan_fingerprints.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # collect() extends sys.path; monkeypatch restores it afterwards
    monkeypatch.syspath_prepend(str(REPO / "src"))
    golden = json.loads(tool.GOLDEN.read_text())
    current = tool.collect()
    assert len(golden) > 500
    assert {key: (golden.get(key), current.get(key))
            for key in golden.keys() | current.keys()
            if golden.get(key) != current.get(key)} == {}
