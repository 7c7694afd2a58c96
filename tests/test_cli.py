"""Command-line interface: problem files, commands, exit codes, reports."""

import json
import re
import time

import numpy as np
import pytest

from tsvar import ProblemFileError, make_harmonic, weierstrass
from tsvar.cli import main
from tsvar.problemfile import load_problem, serialize_report


def write_problem(tmp_path, name="problem.json", **overrides):
    doc = {
        "scale": {"kind": "harmonic", "n_max": 50},
        "t0": 0.0,
        "t1": 1.0,
        "lagrangian": "r^2 - r^4",
        "alpha": 0.0,
        "beta": 0.0,
        "trajectory": {"kind": "expr", "formula": "0"},
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def spike_samples(n_max=50, t_at=1 / 3, d=1.0):
    points = [0.0] + [1.0 / n for n in range(n_max, 0, -1)]
    values = [d if p == 0.5 else 0.0 for p in points]
    return {"kind": "samples", "points": points, "values": values}


class TestProblemFileLoading:
    def test_minimal_file(self, tmp_path):
        loaded = load_problem(write_problem(tmp_path))
        assert loaded.problem.t0 == 0.0 and loaded.problem.t1 == 1.0
        assert loaded.trajectory is not None

    def test_scale_union_list(self, tmp_path):
        path = write_problem(
            tmp_path,
            scale=[
                {"kind": "points", "values": [-1.0]},
                {"kind": "uniform", "start": 0, "end": 2, "step": 1},
            ],
            t0=-1.0,
            t1=2.0,
        )
        loaded = load_problem(path)
        assert len(loaded.problem.scale) == 4

    @pytest.mark.parametrize(
        "scale",
        [
            {"kind": "uniform", "start": 0, "end": 1e9, "step": 1},
            {"kind": "harmonic", "n_max": 10**9},
            [{"kind": "points", "values": [-1.0]}, {"kind": "dense", "lo": 0, "hi": 1, "resolution": 10**9}],
        ],
    )
    def test_oversized_scale_fails_at_once(self, tmp_path, capsys, scale):
        path = write_problem(tmp_path, scale=scale)
        start = time.perf_counter()
        assert main(["eval", path]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: scale") and "a segment has at most 10,000,000" in err

    def test_oversized_resolution_override_fails_at_once(self, tmp_path, capsys):
        path = write_problem(tmp_path, scale={"kind": "dense", "lo": 0, "hi": 1, "resolution": 10})
        start = time.perf_counter()
        assert main(["eval", path, "--resolution", str(10**9)]) == 1
        assert time.perf_counter() - start < 1.0
        assert "a segment has at most 10,000,000" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scan, argv, field",
        [
            ({"q_count": 10**12}, [], "scan.q_count"),
            ({"q_min": -1.0, "q_max": 1.0, "q_count": 10**12}, [], "scan.q_count"),
            (None, ["--q-count", str(10**12)], "--q-count"),
            (None, ["--q-min", "-1", "--q-max", "1", "--q-count", str(10**12)], "--q-count"),
        ],
    )
    def test_oversized_q_count_fails_at_once(self, tmp_path, capsys, scan, argv, field):
        path = write_problem(tmp_path, scan=scan)
        start = time.perf_counter()
        assert main(["analyze", path, *argv]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}") and "must be at most 1,000,000" in err

    def test_missing_field_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scale": {"kind": "harmonic"}}))
        with pytest.raises(ProblemFileError) as exc:
            load_problem(str(path))
        assert exc.value.field == "scale.n_max"

    def test_harmonic_scale_matches_make_harmonic(self, tmp_path):
        loaded = load_problem(write_problem(tmp_path, scale={"kind": "harmonic", "n_max": 7}))
        expected = make_harmonic(7)
        assert list(loaded.problem.scale.points) == list(expected.points)
        assert dict(loaded.problem.scale.metadata) == dict(expected.metadata)
        with pytest.raises(ProblemFileError) as exc:
            load_problem(write_problem(tmp_path, scale={"kind": "harmonic", "n_max": 1}))
        assert exc.value.field == "scale.n_max"

    @pytest.mark.parametrize("count", [0, -1])
    def test_scan_q_count_below_one_rejected(self, tmp_path, count, capsys):
        path = write_problem(tmp_path, scan={"q_min": -2.5, "q_max": 2.5, "q_count": count})
        with pytest.raises(ProblemFileError) as exc:
            load_problem(path)
        assert exc.value.field == "scan.q_count"
        assert main(["analyze", path]) == 1
        assert "scan.q_count" in capsys.readouterr().err

    def test_bad_kind(self, tmp_path):
        path = write_problem(tmp_path, scale={"kind": "cantor"})
        with pytest.raises(ProblemFileError, match="cantor"):
            load_problem(path)

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json }")
        with pytest.raises(ProblemFileError, match="line 1"):
            load_problem(str(path))

    def test_samples_must_cover_scale(self, tmp_path):
        path = write_problem(
            tmp_path,
            scale={"kind": "uniform", "start": 0, "end": 2, "step": 1},
            t1=2.0,
            trajectory={"kind": "samples", "points": [0.0, 1.0], "values": [0.0, 1.0]},
        )
        with pytest.raises(ProblemFileError, match="no sample for scale point"):
            load_problem(path)

    def test_trajectory_formula_cannot_use_slope_variables(self, tmp_path):
        path = write_problem(tmp_path, trajectory={"kind": "expr", "formula": "x + 1"})
        with pytest.raises(ProblemFileError, match="trajectory.formula"):
            load_problem(path)

    def test_resolution_override(self, tmp_path):
        path = write_problem(
            tmp_path,
            scale={"kind": "dense", "lo": 0.0, "hi": 1.0, "resolution": 10},
            trajectory=None,
        )
        assert len(load_problem(path).problem.scale) == 11
        assert len(load_problem(path, resolution=100).problem.scale) == 101


class TestInspect:
    def test_harmonic_table(self, tmp_path, capsys):
        path = write_problem(tmp_path, scale={"kind": "harmonic", "n_max": 4})
        assert main(["inspect", path]) == 0
        out = capsys.readouterr().out
        assert "0.08333333333" in out  # mu(1/4) = 1/12
        assert "0.1666666667" in out  # mu(1/3) = 1/6
        lines = [l for l in out.splitlines() if l.strip().startswith("0 ")]
        assert lines and lines[0].split()[3] == "-"  # cut artifact marked at t=0

    def test_integer_window_unit_graininess(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            scale={"kind": "uniform", "start": 0, "end": 4, "step": 1},
            t1=4.0,
        )
        main(["inspect", path])
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l.strip() and l.strip()[0].isdigit()]
        assert sum(row.split()[3] == "1" for row in rows) == 4

    def test_dense_interval_single_summary_row(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            scale={"kind": "dense", "lo": 0.0, "hi": 1.0, "resolution": 1000},
            trajectory=None,
        )
        main(["inspect", path])
        out = capsys.readouterr().out
        dense_rows = [l for l in out.splitlines() if "dense, mu=0" in l]
        assert len(dense_rows) == 1
        assert "1001 nodes" in dense_rows[0]

    def test_row_cap_with_elision(self, tmp_path, capsys):
        path = write_problem(tmp_path, scale={"kind": "harmonic", "n_max": 300})
        main(["inspect", path])
        out = capsys.readouterr().out
        assert "more rows elided" in out

    def test_full_table_in_report(self, tmp_path):
        report = tmp_path / "inspect.json"
        path = write_problem(tmp_path, scale={"kind": "harmonic", "n_max": 300})
        main(["inspect", path, "--report", str(report)])
        doc = json.loads(report.read_text())
        assert len(doc["points"]) == 301
        assert doc["points"][0] == {
            "t": 0.0,
            "sigma": 1 / 300,
            "rho": 0.0,
            "mu": 1 / 300,
            "right": "scattered",
            "left": "dense",
        }


class TestEval:
    def test_zero_trajectory(self, tmp_path, capsys):
        assert main(["eval", write_problem(tmp_path)]) == 0
        assert "functional value: 0.0" in capsys.readouterr().out

    def test_spike_file(self, tmp_path, capsys):
        path = write_problem(tmp_path, trajectory=spike_samples())
        report = tmp_path / "run.json"
        assert main(["eval", path, "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["functional_value"] == pytest.approx(-216.0, abs=1e-9)
        assert doc["norm_strong"] == 1.0
        assert doc["norm_weak"] == pytest.approx(7.0, abs=1e-12)

    def test_integer_window_quadratic(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            scale={"kind": "uniform", "start": 0, "end": 4, "step": 1},
            t1=4.0,
            lagrangian="r^2",
            beta=4.0,
            trajectory={"kind": "expr", "formula": "t"},
        )
        main(["eval", path])
        assert "functional value: 4.0" in capsys.readouterr().out

    def test_missing_trajectory(self, tmp_path, capsys):
        path = write_problem(tmp_path, trajectory=None)
        assert main(["eval", path]) == 1
        assert "trajectory" in capsys.readouterr().err

    def test_overflowing_trajectory_formula_is_an_input_error(self, tmp_path, capsys):
        path = write_problem(tmp_path, trajectory={"kind": "expr", "formula": "exp(1000)"})
        assert main(["eval", path]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "trajectory.formula" in err and "overflow" in err

    def test_overflowing_lagrangian_is_an_input_error(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            scale={"kind": "uniform", "start": 0, "end": 1, "step": 0.1},
            lagrangian="r^400",
            beta=10.0,
            trajectory={"kind": "expr", "formula": "10*t"},
        )
        assert main(["eval", path]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "overflow in '(r ^ 400.0)'" in err

    def test_overflowing_functional_is_an_input_error_and_writes_no_report(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            scale={"kind": "uniform", "start": 0, "end": 100, "step": 1},
            t1=100.0,
            lagrangian="exp(x)",
            alpha=709.0,
            beta=709.0,
            trajectory={"kind": "expr", "formula": "709"},
        )
        report = tmp_path / "run.json"
        assert main(["eval", path, "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert "error: overflow in the functional of 'exp(x)'" in err
        assert not report.exists()

    @pytest.mark.parametrize(
        "beta, shown, reasons",
        [
            (4.0, "yes", []),
            (0.0, "no; right boundary: x(t1)=4.0, expected beta=0.0",
             ["right boundary: x(t1)=4.0, expected beta=0.0"]),
        ],
    )
    def test_admissibility_is_reported(self, tmp_path, capsys, beta, shown, reasons):
        path = write_problem(
            tmp_path,
            scale={"kind": "uniform", "start": 0, "end": 4, "step": 1},
            t1=4.0,
            lagrangian="r^2",
            beta=beta,
            trajectory={"kind": "expr", "formula": "t"},
        )
        report = tmp_path / "run.json"
        assert main(["eval", path, "--report", str(report)]) == 0
        assert f"admissible:       {shown}\n" in capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert doc["admissibility"] == {"ok": not reasons, "reasons": reasons}


class TestSolve:
    def test_integer_window(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            scale={"kind": "uniform", "start": 0, "end": 4, "step": 1},
            t1=4.0,
            lagrangian="r^2",
            beta=4.0,
            trajectory=None,
        )
        report = tmp_path / "solve.json"
        assert main(["solve", path, "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert "second order:         strict-minimum" in out
        doc = json.loads(report.read_text())
        assert doc["trajectory"]["values"] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert doc["residual_max"] <= 1e-10
        assert doc["second_order"] == "strict-minimum"

    def test_report_history_round_trips_byte_identical(self, tmp_path):
        path = write_problem(
            tmp_path,
            scale={"kind": "uniform", "start": 0, "end": 6, "step": 1},
            t1=6.0,
            lagrangian="r^2 + exp(x)",
            beta=1.0,
            trajectory=None,
        )
        report = tmp_path / "solve.json"
        assert main(["solve", path, "--report", str(report)]) == 0
        text = report.read_text()
        doc = json.loads(text)
        assert len(doc["history"]) == doc["iterations"] > 1
        assert doc["history"][-1]["residual_max"] == doc["residual_max"]
        assert all(0.0 < entry["step"] <= 1.0 for entry in doc["history"])
        assert doc["history"][-1]["merit"] == doc["functional_value"]
        assert serialize_report(doc) == text

    def test_dense_scale_rejected(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            scale={"kind": "dense", "lo": 0.0, "hi": 1.0, "resolution": 10},
            trajectory=None,
            beta=1.0,
        )
        assert main(["solve", path]) == 1
        assert "discrete scales only" in capsys.readouterr().err

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            scale={"kind": "uniform", "start": 0, "end": 4, "step": 1},
            t1=4.0,
            lagrangian="r^2 + x^2",
            beta=1.0,
            trajectory=None,
        )
        assert main(["solve", path, "--max-iter", "0"]) == 2
        assert "did not converge" in capsys.readouterr().err


class TestAnalyze:
    def test_consistent_exit_zero(self, tmp_path):
        path = write_problem(
            tmp_path,
            scale={"kind": "uniform", "start": 0, "end": 4, "step": 1},
            t1=4.0,
            lagrangian="r^2",
            beta=4.0,
            trajectory={"kind": "expr", "formula": "t"},
        )
        assert main(["analyze", path, "--q-min", "-10", "--q-max", "10"]) == 0

    def test_hypothesis_not_met_exit_four(self, tmp_path, capsys):
        report = tmp_path / "analysis.json"
        path = write_problem(tmp_path, scan={"q_min": -2.5, "q_max": 2.5, "q_count": 11})
        assert main(["analyze", path, "--report", str(report)]) == 4
        doc = json.loads(report.read_text())
        assert doc["verdict"] == "hypothesis-not-met"
        assert doc["convexity_ok"] is False
        assert doc["convexity_counterexample"] is not None
        kinds = {v["slope_kind"] for v in doc["weierstrass_violations"]}
        assert kinds == {"two-sided"}
        es = {v["E"] for v in doc["weierstrass_violations"] if abs(v["q"]) == 2.5}
        assert all(abs(e - (2.5**2 - 2.5**4)) <= 1e-9 for e in es)

    def test_necessary_condition_violated_exit_three(self, tmp_path):
        path = write_problem(
            tmp_path,
            scale={"kind": "uniform", "start": 0, "end": 4, "step": 1},
            t1=4.0,
            lagrangian="r^2 - 0.001*r^4",
            trajectory={"kind": "expr", "formula": "0"},
        )
        assert main(["analyze", path, "--q-min", "-40", "--q-max", "40"]) == 3

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_q_count_flag_below_one_rejected(self, tmp_path, count, capsys):
        path = write_problem(tmp_path)
        argv = ["analyze", path, "--q-min", "-1", "--q-max", "1", "--q-count", count]
        assert main(argv) == 1
        assert "--q-count" in capsys.readouterr().err

    def test_flags_overlay_the_file_scan_settings(self, tmp_path):
        report = tmp_path / "analysis.json"
        path = write_problem(tmp_path, scan={"q_min": -2.5, "q_max": 2.5, "q_count": 11})
        assert main(["analyze", path, "--q-count", "3", "--report", str(report)]) == 4
        doc = json.loads(report.read_text())
        assert {v["q"] for v in doc["weierstrass_violations"]} == {-2.5, 2.5}

    @pytest.mark.parametrize(
        "scan, argv", [({"q_count": 3}, []), (None, ["--q-count", "3"])]
    )
    def test_q_count_sizes_the_default_grid(self, tmp_path, monkeypatch, scan, argv):
        grids = []
        original = weierstrass.weierstrass_scan

        def spy(problem, x, q_grid, tol=1e-9):
            grids.append(np.asarray(q_grid))
            return original(problem, x, q_grid, tol)

        monkeypatch.setattr(weierstrass, "weierstrass_scan", spy)
        path = write_problem(
            tmp_path,
            scale={"kind": "harmonic", "n_max": 10},
            trajectory={"kind": "expr", "formula": "t*(1 - t)"},
            scan=scan,
        )
        main(["analyze", path, *argv])
        loaded = load_problem(path)
        slopes = np.unique(weierstrass.observed_slopes(loaded.problem, loaded.trajectory))
        (grid,) = grids
        # 3 evenly spaced comparison slopes plus every observed slope
        assert grid.size == 3 + slopes.size
        assert set(slopes) <= set(grid)

    @pytest.mark.parametrize("report", [False, True])
    def test_overflowing_excess_is_an_error(self, tmp_path, capsys, report):
        # f = 1e308*sin(r) and f_r are finite, but (q - r) f_r overflows at q = -2.5
        path = write_problem(
            tmp_path,
            scale={"kind": "harmonic", "n_max": 5},
            lagrangian="1e308*sin(r)",
            scan={"q_min": -2.5, "q_max": 2.5, "q_count": 3},
        )
        out = tmp_path / "analysis.json"
        assert main(["analyze", path, *(["--report", str(out)] if report else [])]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: overflow in the excess of '1e308*sin(r)' at t=0.0, x=0.0, r=0.0, q=-2.5\n"
        )
        assert "violations" not in captured.out and not out.exists()

    def test_solves_when_no_trajectory(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            scale={"kind": "uniform", "start": 0, "end": 4, "step": 1},
            t1=4.0,
            lagrangian="r^2",
            beta=4.0,
            trajectory=None,
        )
        assert main(["analyze", path]) == 0
        assert "solved (0 iterations, strict-minimum)" in capsys.readouterr().out

    def test_nonextremal_residual_reported(self, tmp_path):
        report = tmp_path / "analysis.json"
        path = write_problem(
            tmp_path,
            scale={"kind": "uniform", "start": 0, "end": 4, "step": 1},
            t1=4.0,
            lagrangian="r^2",
            beta=16.0,
            trajectory={"kind": "expr", "formula": "t^2"},
        )
        assert main(["analyze", path, "--report", str(report)]) == 0
        assert json.loads(report.read_text())["el_max_residual"] > 0.0

    def test_report_round_trips_byte_identical(self, tmp_path):
        report = tmp_path / "analysis.json"
        path = write_problem(tmp_path, scan={"q_min": -2.0, "q_max": 2.0, "q_count": 5})
        main(["analyze", path, "--report", str(report)])
        text = report.read_text()
        assert serialize_report(json.loads(text)) == text

    def test_report_field_names(self, tmp_path):
        report = tmp_path / "analysis.json"
        path = write_problem(tmp_path)
        main(["analyze", path, "--report", str(report)])
        doc = json.loads(report.read_text())
        assert set(doc) == {
            "functional_value",
            "norm_strong",
            "norm_weak",
            "el_max_residual",
            "convexity_ok",
            "convexity_counterexample",
            "weierstrass_violations",
            "verdict",
            "provenance",
        }
        assert set(doc["provenance"]) == {"file", "timestamp", "tool_version"}
        if doc["weierstrass_violations"]:
            assert set(doc["weierstrass_violations"][0]) == {
                "t",
                "x_sigma",
                "r",
                "q",
                "E",
                "slope_kind",
            }


class TestRepro:
    @pytest.mark.parametrize("example_id", ["example-3.2", "discrete-z", "q-scale"])
    def test_each_reproduction_passes(self, example_id, capsys):
        assert main(["repro", example_id]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS" in out

    def test_each_scenario_is_timed(self, capsys):
        assert main(["repro", "all"]) == 0
        lines = capsys.readouterr().out.splitlines()
        titles = [i for i, line in enumerate(lines) if line.startswith("== ")]
        times = [i for i, line in enumerate(lines) if re.fullmatch(r"time: \d+\.\d{3} s", line)]
        assert len(titles) == len(times) == 3
        # each time closes its own scenario's checks
        assert titles[0] < times[0] < titles[1] < times[1] < titles[2] < times[2]
        assert times[2] == len(lines) - 2
        assert re.fullmatch(r"total time: \d+\.\d{2} s", lines[-1])

    def test_unknown_id(self, capsys):
        assert main(["repro", "example-9.9"]) == 1
        assert "unknown reproduction id" in capsys.readouterr().err
