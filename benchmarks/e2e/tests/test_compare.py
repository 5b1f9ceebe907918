"""compare.py verdicts on synthetic result sets."""

import json

import compare
import metrics
import pytest


def document(values_by_metric, failed_share=0.0, quick=False,
             workload="warm_serving"):
    runs = []
    count = len(next(iter(values_by_metric.values())))
    for i in range(count):
        runs.append({"repeat": i, "workloads": {workload: {
            "end_to_end": {name: {"value": values[i], "unit": "x"}
                           for name, values in values_by_metric.items()},
            "info": {"failed_share": failed_share},
        }}})
    return {"quick": quick, "runs": runs}


BASE = {"qps": [100.0, 101.0, 99.0], "p50_ms": [10.0, 10.1, 9.9],
        "p95_ms": [20.0, 20.2, 19.8], "setup_s": [1.0, 1.0, 1.01],
        "mem_mb": [50.0, 50.0, 50.1]}


def verdicts(parent, change):
    return {(row[0], row[1]): row[4] for row in compare.compare(parent, change)}


def test_same_numbers_are_unchanged():
    result = verdicts(document(BASE), document(BASE))
    assert set(result.values()) == {"unchanged"}
    assert ("warm_serving", "failed_share") in result


def test_regression_respects_direction_and_bound():
    bounds = {name: spec["bound"]
              for name, spec in metrics.declared()["end_to_end"].items()}
    beyond = 1.0 - bounds["qps"] - 0.05         # qps: lower is worse
    inside = 1.0 + bounds["p50_ms"] / 2         # p50: higher is worse
    slower = dict(BASE, qps=[v * beyond for v in BASE["qps"]],
                  p50_ms=[v * inside for v in BASE["p50_ms"]])
    result = verdicts(document(BASE), document(slower))
    assert result[("warm_serving", "qps")] == "regressed"
    assert result[("warm_serving", "p50_ms")] == "unchanged"


def test_improvement_needs_more_than_the_parents_spread():
    faster = dict(BASE, p50_ms=[8.0, 8.1, 7.9], qps=[100.5, 101.5, 99.5])
    result = verdicts(document(BASE), document(faster))
    assert result[("warm_serving", "p50_ms")] == "improved"
    assert result[("warm_serving", "qps")] == "unchanged"       # inside spread


def test_noisy_parent_is_unresolved_not_unchanged():
    noisy = dict(BASE, p95_ms=[12.0, 20.0, 29.0])
    result = verdicts(document(noisy), document(BASE))
    assert result[("warm_serving", "p95_ms")] == "unresolved"


def test_any_failed_operation_regresses():
    result = verdicts(document(BASE), document(BASE, failed_share=0.01))
    assert result[("warm_serving", "failed_share")] == "regressed"


def test_main_exit_code_and_quick_refusal(tmp_path, capsys):
    parent = tmp_path / "parent.json"
    change = tmp_path / "change.json"
    parent.write_text(json.dumps(document(BASE)))
    change.write_text(json.dumps(document(dict(BASE, mem_mb=[90.0] * 3))))
    assert compare.main([str(parent), str(parent)]) == 0
    assert compare.main([str(parent), str(change)]) == 1
    assert "regressed" in capsys.readouterr().out
    change.write_text(json.dumps(document(BASE, quick=True)))
    with pytest.raises(SystemExit, match="quick"):
        compare.main([str(parent), str(change)])
