"""tools/ab_pairs.py: parsing bench/run.py's result line and summarizing alternating pairs.

The benchmark is not run here: the pairs are canned result lines.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def result_line(p50, throughput, correct=True):
    metrics = {"op_p50_ms": (p50, "ms"), "throughput_ops_s": (throughput, "1/s"), "completed_share": (1.0, "share")}
    return json.dumps(
        {
            "correct": correct,
            "attempted": 100,
            "failed": 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


BETTER = {"op_p50_ms": "lower", "throughput_ops_s": "higher", "completed_share": "higher"}


def test_the_result_is_the_last_stdout_line():
    stdout = "some progress text\n" + result_line(3.5, 300.0) + "\n"
    assert ab_pairs.parse_result(stdout) == {"op_p50_ms": 3.5, "throughput_ops_s": 300.0, "completed_share": 1.0}


@pytest.mark.parametrize("stdout", ["", "\n", result_line(3.5, 300.0, correct=False)])
def test_a_missing_or_incorrect_result_is_refused(stdout):
    with pytest.raises(ValueError):
        ab_pairs.parse_result(stdout)


def test_the_end_to_end_metrics_and_their_direction_come_from_the_benchmark():
    better = ab_pairs.end_to_end_metrics()
    assert better["op_p90_ms"] == "lower" and better["throughput_ops_s"] == "higher"


def pairs_of(parent, change):
    return [
        {"parent": ab_pairs.parse_result(result_line(*p)), "change": ab_pairs.parse_result(result_line(*c))}
        for p, c in zip(parent, change)
    ]


def test_a_change_that_wins_every_pair_by_more_than_the_spread_holds_its_claim():
    parent = [(4.0 + 0.1 * k, 300.0 - k) for k in range(10)]
    change = [(3.0 + 0.1 * k, 330.0 - k) for k in range(10)]
    summary = ab_pairs.summarize(pairs_of(parent, change), BETTER)
    p50 = summary["op_p50_ms"]
    assert p50["parent"]["median"] == pytest.approx(4.45) and p50["change"]["median"] == pytest.approx(3.45)
    assert p50["parent"]["q1"] == pytest.approx(4.225) and p50["parent"]["q3"] == pytest.approx(4.675)
    assert p50["parent"]["runs"] == 10
    assert (p50["change_wins"], p50["ties"], p50["pairs"]) == (10, 0, 10)
    assert p50["median_delta"] == pytest.approx(-1.0) and p50["parent_iqr"] == pytest.approx(0.45)
    assert p50["claim_holds"]
    assert summary["throughput_ops_s"]["change_wins"] == 10 and summary["throughput_ops_s"]["claim_holds"]
    shares = summary["completed_share"]
    assert (shares["change_wins"], shares["ties"]) == (0, 10) and not shares["claim_holds"]


def test_eight_wins_in_ten_pairs_or_a_gain_within_the_spread_claims_nothing():
    parent = [(4.0 + 0.1 * k, 300.0) for k in range(10)]
    # lower p50 in 8 pairs, higher in 2: fewer than nine tenths
    change = [(3.0 + 0.1 * k if k < 8 else 9.0, 300.0) for k in range(10)]
    p50 = ab_pairs.summarize(pairs_of(parent, change), BETTER)["op_p50_ms"]
    assert p50["change_wins"] == 8 and not p50["claim_holds"]
    # every pair won, but by less than the parent's interquartile range
    change = [(3.99 + 0.1 * k, 300.0) for k in range(10)]
    p50 = ab_pairs.summarize(pairs_of(parent, change), BETTER)["op_p50_ms"]
    assert p50["change_wins"] == 10 and not p50["claim_holds"]


def test_one_pair_has_its_own_value_as_quartiles_and_the_lines_name_every_metric():
    summary = ab_pairs.summarize(pairs_of([(4.0, 300.0)], [(3.0, 310.0)]), BETTER)
    assert summary["op_p50_ms"]["parent"] == {"median": 4.0, "q1": 4.0, "q3": 4.0, "runs": 1}
    lines = ab_pairs.summary_lines(summary)
    assert [line.split(":")[0] for line in lines] == list(BETTER)
    assert "change won 1/1 (ties 0)" in lines[0] and lines[0].endswith("claim holds")
