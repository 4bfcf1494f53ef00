"""Tests of how a run's rounds become end-to-end metrics.

    python3 -m pytest perfbench/test_run.py
"""

import pytest

import run


def fake_round(speed: float, analyze: float) -> list[dict]:
    """A round on a machine ``speed`` times slower than the reference."""
    recs = [{"tag": "gauge", "wall": run.GAUGE_REFERENCE_S * speed},
            {"tag": "analyze", "wall": analyze * speed, "rss": 50.0}]
    for kind in ("transform", "invert"):
        for i, v in enumerate(run.VARIANTS):
            recs.append({"tag": f"{kind}-{v}", "wall": 0.1 * speed, "rss": 20.0 + i})
    return recs


def test_times_are_in_gauge_seconds():
    # the machine slows by half in the second round and by a quarter in the
    # third: the scaled times do not move
    m = run.end_to_end([fake_round(1.0, 2.0), fake_round(1.5, 2.0), fake_round(1.25, 2.0)])
    assert m["analyze_s"] == pytest.approx(2.0)
    assert m["transform_s"] == pytest.approx(0.5)
    assert m["invert_s"] == pytest.approx(0.5)
    assert m["analyze_peak_rss_mb"] == 50.0
    assert m["transform_peak_rss_mb"] == m["invert_peak_rss_mb"] == 24.0


def test_a_slower_program_reads_slower():
    fast = run.end_to_end([fake_round(1.0, 2.0), fake_round(1.5, 2.0)])
    slow = run.end_to_end([fake_round(1.0, 2.6), fake_round(1.5, 2.6)])
    assert slow["analyze_s"] / fast["analyze_s"] == pytest.approx(1.3)
