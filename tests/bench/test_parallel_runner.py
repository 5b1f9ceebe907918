"""The figure-suite runner: smoke params, fan-out, error capture."""

import pytest

from repro.bench import FIGURES
from repro.bench.runner import FigureResult, SMOKE_PARAMS, run_figures


def test_smoke_params_cover_every_figure():
    assert set(SMOKE_PARAMS) == set(FIGURES)


def test_run_single_figure_smoke():
    results = run_figures(["13"], smoke=True)
    assert len(results) == 1
    result = results[0]
    assert result.ok
    assert result.figure == "13"
    assert "Figure 13" in result.output
    assert result.seconds > 0.0
    assert result.rows


def test_run_figures_parallel_two_jobs():
    results = run_figures(["6", "13"], jobs=2, smoke=True)
    assert [r.figure for r in results] == ["6", "13"]
    assert all(r.ok for r in results)
    assert all(r.output for r in results)


def test_streaming_callback_order():
    seen = []
    run_figures(["6", "13"], smoke=True, on_result=lambda r: seen.append(r.figure))
    assert seen == ["6", "13"]


def test_serial_stream_prints_live_and_still_captures(capsys):
    results = run_figures(["13"], smoke=True, stream=True)
    live = capsys.readouterr().out
    assert "Figure 13" in live            # mirrored to stdout as it ran
    assert results[0].output == live      # and captured in the result


def test_unknown_figure_rejected():
    with pytest.raises(ValueError, match="unknown figure"):
        run_figures(["99"])


def test_driver_failure_is_captured(monkeypatch):
    class Broken:
        @staticmethod
        def main(**kwargs):
            raise RuntimeError("driver exploded")

    monkeypatch.setitem(FIGURES, "13", Broken)
    result = run_figures(["13"], smoke=True)[0]
    assert isinstance(result, FigureResult)
    assert not result.ok
    assert "driver exploded" in result.error
