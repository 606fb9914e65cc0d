import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# ten pairs per metric: (parent values, change values), bound 0.24
_JITTER = [0.00, 0.02, -0.01, 0.03, -0.02, 0.01, -0.03, 0.02, 0.00, -0.01]
_SPREAD = [9.0, 11.0, 9.2, 10.8, 9.4, 10.6, 9.1, 10.9, 9.3, 10.7]
_CASES = {
    "gain": ([10 + j for j in _JITTER], [8 + j for j in _JITTER]),
    # a large gap, but the change wins only 8 pairs in 10
    "eight_wins": ([10 + j for j in _JITTER],
                   [8 + j for j in _JITTER[:8]] + [11.0, 11.0]),
    # every pair won, but by less than the parent's quartile spread
    "small_gap": (_SPREAD, [x - 0.3 for x in _SPREAD]),
    "regression": ([10 + j for j in _JITTER], [13 + j for j in _JITTER]),
    "unresolved": ([5, 15, 6, 14, 7, 13, 5, 15, 6, 14],
                   [14, 6, 15, 5, 13, 7, 14, 6, 15, 5]),
    "unchanged": ([10 + j for j in _JITTER], [10 - j for j in _JITTER]),
}
_WANT = {"gain": "gain", "eight_wins": "unchanged",
         "small_gap": "unchanged", "regression": "regression",
         "unresolved": "unresolved", "unchanged": "unchanged"}


def _runs():
    runs = []
    for pair in range(10):
        for k, side in enumerate(bench_pairs.SIDES):
            metrics = {m: {"value": vals[k][pair], "unit": "s"}
                       for m, vals in _CASES.items()}
            runs.append({"pair": pair, "side": side, "result": {
                "correct": True, "attempted": 20, "failed": pair % 2,
                "metrics": metrics}})
    # an incomplete pair counts nowhere
    runs.append({"pair": 10, "side": "parent", "result": {
        "correct": False, "attempted": 1, "failed": 1,
        "metrics": {m: {"value": 1e9, "unit": "s"} for m in _CASES}}})
    return runs


def test_summarize_gives_each_verdict():
    out = bench_pairs.summarize(_runs(), {m: 0.24 for m in _CASES})
    assert {m: out[m]["verdict"] for m in _CASES} == _WANT
    assert out["gain"]["change_wins"] == 10
    assert out["eight_wins"]["change_wins"] == 8
    assert out["small_gap"]["change_wins"] == 10
    assert all(out[m]["pairs"] == 10 for m in _CASES)
    assert out["parent_failed"] == {"failed": 5, "attempted": 200,
                                    "all_correct": True}


@pytest.mark.parametrize("bound, want", [(0.24, "regression"),
                                         (0.35, "unchanged")])
def test_regression_is_judged_against_the_metric_bound(bound, want):
    out = bench_pairs.summarize(_runs(), {**{m: 0.24 for m in _CASES},
                                          "regression": bound})
    assert out["regression"]["verdict"] == want


def test_summarize_needs_two_complete_pairs():
    assert bench_pairs.summarize(_runs()[:3], {m: 0.24 for m in _CASES}) == {}
