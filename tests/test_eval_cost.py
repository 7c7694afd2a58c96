"""tools/eval_cost.py on this checkout: one JSON line with a plan build and each evaluator call per pool problem."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLS = {
    "analyze-harmonic": {"eval", "partials", "excess", "scalar_eval", "scalar_excess"},
    "solve-discrete": {"second_partials", "scalar_eval", "scalar_excess"},
    "eval-dense": {"eval", "scalar_eval", "scalar_excess"},
}
PLANS = {"analyze-harmonic": {"first", "f", "excess"}, "solve-discrete": {"second"}, "eval-dense": {"f"}}


def test_every_pool_problem_reports_its_build_and_calls():
    command = [sys.executable, str(ROOT / "tools" / "eval_cost.py"), str(ROOT), "--repeats", "1"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    result = json.loads(line)
    assert result["repeats"] == 1 and set(result["workloads"]) == set(CALLS)
    for workload, summary in result["workloads"].items():
        assert summary["problems"]
        for problem in summary["problems"]:
            assert problem["rows"] > 0 and problem["lagrangian"]
            assert set(problem["build_us"]) == PLANS[workload]
            assert set(problem["call_us"]) == CALLS[workload]
            assert all(v > 0.0 for v in problem["build_us"].values())
            assert all(v is None or v > 0.0 for v in problem["call_us"].values())
        assert set(summary["median"]["call_us"]) == CALLS[workload]


def test_one_workload_and_a_wrong_one():
    command = [sys.executable, str(ROOT / "tools" / "eval_cost.py"), str(ROOT), "--repeats", "1"]
    done = subprocess.run(command + ["--workload", "eval-dense"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert list(json.loads(done.stdout)["workloads"]) == ["eval-dense"]
    wrong = subprocess.run(command + ["--workload", "nope"], capture_output=True, text=True, timeout=300)
    assert wrong.returncode == 2 and "--workload must be one of" in wrong.stderr
