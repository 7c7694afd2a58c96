"""Command-line interface: problem files, commands, exit codes, reports."""

import functools
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from tsvar import NonConvergence, ProblemFileError, cli, make_harmonic, variational, weierstrass
from tsvar.calculus import norm_strong, norm_weak
from tsvar.cli import main
from tsvar.expressions import Lagrangian
from tsvar.problemfile import ScanConfig, load_problem, scale_from_spec, serialize_report
from tsvar.timescale import POINT_TOLERANCE


BEYOND_FLOATS = 10**400  # an integer that no float holds


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

    def test_loaded_problems_compare_by_identity(self, tmp_path):
        # value equality reached the trajectory's array and raised numpy's "truth value ... is ambiguous"
        path = write_problem(tmp_path)
        a, b = load_problem(path), load_problem(path)
        assert a == a and a != b
        assert len({a, b}) == 2

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

    def test_two_dense_segments_over_the_scale_budget_fail_before_allocating(self, tmp_path, capsys):
        n = 10**7
        halves = [{"kind": "dense", "lo": lo, "hi": lo + 1, "resolution": n - 1} for lo in (0, 2)]
        path = write_problem(tmp_path, scale=halves)
        tracemalloc.start()
        try:
            code = main(["eval", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err == (
            "error: scale: the segments would have 20,000,000 points; a scale has at most 10,000,000\n"
        )
        assert peak < 8 * n / 100  # far below one float per node

    def test_the_scale_budget_covers_the_resolution_override(self, tmp_path, capsys):
        halves = [{"kind": "dense", "lo": lo, "hi": lo + 1, "resolution": 10} for lo in (0, 2)]
        path = write_problem(tmp_path, scale=halves)
        assert main(["eval", path, "--resolution", str(6 * 10**6)]) == 1
        assert capsys.readouterr().err.startswith("error: scale: the segments would have 12,000,002 points")

    def test_no_segment_is_built_past_the_scale_budget(self, tmp_path, capsys):
        # the third spec is never read: the first two are already over the budget
        halves = [{"kind": "dense", "lo": lo, "hi": lo + 1, "resolution": 6 * 10**6} for lo in (0, 2)]
        path = write_problem(tmp_path, scale=[*halves, {"kind": "bogus"}])
        assert main(["eval", path]) == 1
        assert "a scale has at most 10,000,000" in capsys.readouterr().err

    def test_oversized_resolution_override_fails_at_once(self, tmp_path, capsys):
        path = write_problem(tmp_path, scale={"kind": "dense", "lo": 0, "hi": 1, "resolution": 10})
        start = time.perf_counter()
        assert main(["eval", path, "--resolution", str(10**9)]) == 1
        assert time.perf_counter() - start < 1.0
        assert "a segment has at most 10,000,000" in capsys.readouterr().err

    @pytest.mark.parametrize("form", ["file", "flags"])
    @pytest.mark.parametrize(
        "settings, key, message",
        [
            ({"q_count": 10**12}, "q_count", "must be at most 1,000,000"),
            ({"q_min": -1, "q_max": 1, "q_count": 10**12}, "q_count", "must be at most 1,000,000"),
            ({"q_count": 0}, "q_count", "must be at least 1"),
            ({"q_min": math.nan, "q_max": 1.0}, "q_min", "must be finite"),
            ({"q_min": -math.inf, "q_max": 1.0}, "q_min", "must be finite"),
            ({"q_min": -1.0, "q_max": math.inf}, "q_max", "must be finite"),
            ({"tol": math.nan}, "tol", "must be finite"),
            ({"tol": math.inf}, "tol", "must be finite"),
            ({"tol": -1e-9}, "tol", "must be nonnegative"),
            ({"q_min": -1.0}, "q_min", "must be given together with {q_max}"),
            ({"q_max": 1.0, "q_count": 3}, "q_max", "must be given together with {q_min}"),
            ({"q_min": 1.0, "q_max": 1.0}, "q_min", "must be below {q_max}"),
            ({"q_min": 2.0, "q_max": -2.0}, "q_min", "must be below {q_max}"),
        ],
    )
    def test_a_bad_scan_setting_fails_at_once(self, tmp_path, capsys, form, settings, key, message):
        keys = ("q_min", "q_max", "q_count", "tol")
        if form == "file":
            path, argv = write_problem(tmp_path, scan=settings), []
            names = {k: f"scan.{k}" for k in keys}
        else:  # over a valid scan object; --flag=value, so that -inf is not read as a flag
            path = write_problem(tmp_path, scan={"q_min": -2.5, "q_max": 2.5, "q_count": 5})
            names = {k: "--" + k.replace("_", "-") for k in keys}
            argv = [f"{names[k]}={v!r}" for k, v in settings.items()]
        start = time.perf_counter()
        assert main(["analyze", path, *argv]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == f"error: {names[key]}: {message.format(**names)}\n"

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"t0": BEYOND_FLOATS}, "t0"),
            ({"alpha": -BEYOND_FLOATS}, "alpha"),
            ({"scale": {"kind": "uniform", "start": 0, "end": 1, "step": BEYOND_FLOATS}}, "scale.step"),
            ({"scale": {"kind": "points", "values": [0, 1, BEYOND_FLOATS]}}, "scale.values[2]"),
            ({"scale": {"kind": "harmonic", "n_max": BEYOND_FLOATS}}, "scale.n_max"),
            ({"scale": {"kind": "dense", "lo": 0, "hi": 1, "resolution": BEYOND_FLOATS}}, "scale.resolution"),
            ({"scan": {"q_min": BEYOND_FLOATS, "q_max": 10 * BEYOND_FLOATS}}, "scan.q_min"),
            ({"scan": {"q_count": BEYOND_FLOATS}}, "scan.q_count"),
            ({"scan": {"tol": BEYOND_FLOATS}}, "scan.tol"),
        ],
    )
    def test_an_integer_beyond_the_float_range_is_named(self, tmp_path, capsys, overrides, field):
        # these raised OverflowError out of main, all but n_max, resolution and q_count
        path = write_problem(tmp_path, **overrides)
        assert main(["analyze", path]) == 1
        assert capsys.readouterr().err == f"error: {field}: is beyond the float range\n"

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"t0": 1' + b"0" * 5000 + b"}", "error: file: Exceeds the limit (4300 digits)"),
            (b'\xff{"t0": 0}', "error: file: 'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["too-many-digits", "not-utf-8"],
    )
    def test_a_file_json_cannot_read_is_one_error_line(self, tmp_path, capsys, content, message):
        path = tmp_path / "problem.json"
        path.write_bytes(content)
        assert main(["eval", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("key", ["q_min", "q_count", "tol"])
    def test_a_null_scan_field_is_rejected(self, tmp_path, key):
        path = write_problem(tmp_path, scan={"q_min": -1.0, "q_max": 1.0, key: None})
        with pytest.raises(ProblemFileError, match="got None") as exc:
            load_problem(path)
        assert exc.value.field == f"scan.{key}"

    def test_missing_field_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scale": {"kind": "harmonic"}}))
        with pytest.raises(ProblemFileError) as exc:
            load_problem(str(path))
        assert exc.value.field == "scale.n_max"

    @pytest.mark.parametrize(
        "t0, t1, field, message",
        [
            (0.5, 1.0, "t0", "t=0.5 is not a representative point of the scale"),
            (0.0, 3.5, "t1", "t=3.5 is not a representative point of the scale"),
            (0.5, 3.5, "t0", "t=0.5 is not a representative point of the scale"),
            (1.0, 0.0, "t0", "problem requires t0 < t1, got [1.0, 0.0]"),
        ],
    )
    def test_the_endpoint_at_fault_is_named(self, tmp_path, capsys, t0, t1, field, message):
        scale = {"kind": "uniform", "start": 0, "end": 4, "step": 1}
        path = write_problem(tmp_path, scale=scale, t0=t0, t1=t1)
        with pytest.raises(ProblemFileError) as exc:
            load_problem(path)
        assert (exc.value.field, str(exc.value)) == (field, f"{field}: {message}")
        assert main(["eval", path]) == 1
        assert capsys.readouterr().err == f"error: {field}: {message}\n"

    def test_missing_lagrangian_is_named_once(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scale": {"kind": "harmonic", "n_max": 5}}))
        with pytest.raises(ProblemFileError) as exc:
            load_problem(str(path))
        assert str(exc.value) == "lagrangian: missing required field"

    @pytest.mark.parametrize(
        "fields, key, message",
        [
            ({"q_min": 1.0}, "q_min", "must be given together with q_max"),
            ({"q_max": 1.0}, "q_max", "must be given together with q_min"),
            ({"q_min": 1.0, "q_max": -1.0}, "q_min", "must be below q_max"),
            ({"q_count": 0}, "q_count", "must be at least 1"),
            ({"q_count": 10**7}, "q_count", "must be at most 1,000,000"),
            ({"tol": math.nan}, "tol", "must be finite"),
            ({"tol": -1.0}, "tol", "must be nonnegative"),
            ({"q_min": BEYOND_FLOATS, "q_max": 10 * BEYOND_FLOATS}, "q_min", "is beyond the float range"),
            ({"tol": BEYOND_FLOATS}, "tol", "is beyond the float range"),
        ],
    )
    def test_a_config_built_directly_checks_its_fields(self, fields, key, message):
        with pytest.raises(ProblemFileError) as exc:
            ScanConfig(**fields)
        assert (exc.value.field, str(exc.value)) == (key, f"{key}: {message}")

    def test_a_q_span_beyond_the_float_range_gives_a_finite_grid(self):
        grid = ScanConfig(q_min=-1e308, q_max=1e308, q_count=5).q_grid()
        assert grid.tolist() == [-1e308, -5e307, 0.0, 5e307, 1e308]

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

    def test_a_repeated_sample_point_is_rejected(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            scale={"kind": "uniform", "start": 0, "end": 2, "step": 1},
            t1=2.0,
            trajectory={"kind": "samples", "points": [0, 1, 1, 2], "values": [0, 5, 7, 0]},
        )
        with pytest.raises(ProblemFileError, match=r"^trajectory\.points\[2\]: repeats"):
            load_problem(path)
        assert main(["eval", path]) == 1
        assert capsys.readouterr().err.startswith("error: trajectory.points[2]: ")

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

    @pytest.mark.parametrize("reverse", [False, True])
    def test_a_point_at_the_start_of_a_dense_interval_joins_in_either_order(self, tmp_path, reverse):
        scale = [{"kind": "dense", "lo": 3, "hi": 4, "resolution": 4}, {"kind": "points", "values": [3]}]
        path = write_problem(tmp_path, scale=scale[::-1] if reverse else scale, t0=3.0, t1=4.0)
        assert load_problem(path).problem.scale.points.tolist() == [3.0, 3.25, 3.5, 3.75, 4.0]
        assert main(["eval", path]) == 0

    @pytest.mark.parametrize(
        "scale",
        [{"kind": "dense", "lo": 0.0, "hi": 1.0, "resolution": 10}, {"kind": "harmonic", "n_max": 10}],
        ids=["dense", "harmonic"],
    )
    @pytest.mark.parametrize("resolution", ["0", "-7"])
    def test_a_resolution_below_one_is_rejected(self, tmp_path, capsys, scale, resolution):
        path = write_problem(tmp_path, scale=scale)
        assert main(["eval", path, "--resolution", resolution]) == 1
        assert capsys.readouterr().err == "error: --resolution: must be at least 1\n"


def reference_samples(spec, scale):
    """Node-by-node reference for the loader's rule that matches samples to scale nodes.

    A node takes the sample within POINT_TOLERANCE at or above it, else the
    one below. The first node without a sample is named; then a sample count
    that differs from the node count is an error.
    """
    given = {float(p): float(v) for p, v in zip(spec["points"], spec["values"])}
    keys = sorted(given)
    values = np.empty(len(scale))
    for i, t in enumerate(scale.points):
        j = int(np.searchsorted(keys, t))
        hit = None
        for k in (j - 1, j):
            if 0 <= k < len(keys) and abs(keys[k] - t) <= POINT_TOLERANCE:
                hit = keys[k]
        if hit is None:
            raise ProblemFileError("trajectory.points", f"no sample for scale point t={float(t)!r}")
        values[i] = given[hit]
    if len(keys) != len(scale):
        raise ProblemFileError("trajectory.points", "sample points do not match the scale's representative points")
    return values


class TestSampledTrajectory:
    UNIFORM = {"kind": "uniform", "start": 0, "end": 2, "step": 1}
    MIXED = [
        {"kind": "points", "values": [-2.0, -1.5]},
        {"kind": "dense", "lo": -1.0, "hi": 0.0, "resolution": 16},
        {"kind": "uniform", "start": 0.0, "end": 2.0, "step": 0.25},
        {"kind": "geometric", "min": 4.0, "max": 64.0, "ratio": 2.0},
    ]

    def write(self, tmp_path, scale, points, values=None, name="problem.json"):
        ts = scale_from_spec(scale)
        values = [0.0] * len(points) if values is None else values
        trajectory = {"kind": "samples", "points": points, "values": values}
        return write_problem(tmp_path, name, scale=scale, t0=ts.min, t1=ts.max, trajectory=trajectory)

    def test_a_40001_point_file_loads_within_five_seconds(self, tmp_path):
        points = np.linspace(0.0, 2.0, 40001)
        scale = {"kind": "dense", "lo": 0.0, "hi": 2.0, "resolution": 40000}
        path = self.write(tmp_path, scale, points.tolist(), np.sin(points).tolist())
        start = time.perf_counter()
        loaded = load_problem(path)
        assert time.perf_counter() - start < 5.0
        assert loaded.trajectory.values.tobytes() == np.sin(points).tobytes()

    @pytest.mark.parametrize(
        "points, message",
        [
            ([], "no sample for scale point t=0.0"),
            ([0, 2], "no sample for scale point t=1.0"),
            ([0, 1, 2, 5], "sample points do not match the scale's representative points"),
            ([0, 1, 1 + 5e-13, 2], "sample points do not match the scale's representative points"),
            ([0, 2, 5], "no sample for scale point t=1.0"),  # a missing node is named first
        ],
        ids=["empty", "missing", "extra", "two-at-one-node", "missing-and-extra"],
    )
    def test_samples_that_do_not_cover_the_nodes_one_to_one_are_rejected(self, tmp_path, points, message):
        with pytest.raises(ProblemFileError, match=f"^trajectory.points: {re.escape(message)}$"):
            load_problem(self.write(tmp_path, self.UNIFORM, points))

    def test_loaded_values_match_the_node_by_node_reference(self, tmp_path, rng):
        offsets = [0.0, 0.0, 5e-13, -5e-13, 0.99 * POINT_TOLERANCE, -0.99 * POINT_TOLERANCE]
        for case in range(60):
            picked = rng.permutation(len(self.MIXED))[: rng.integers(1, len(self.MIXED) + 1)]
            scale = [self.MIXED[i] for i in picked]
            nodes = scale_from_spec(scale).points
            points = nodes + rng.choice(offsets, nodes.size)
            if case % 4 == 1:  # a node without a sample
                points = np.delete(points, rng.integers(points.size))
            if case % 6 == 2:  # one more sample, near a node or far from all
                extra = rng.choice(nodes) + rng.choice([0.3 * POINT_TOLERANCE, 2 * POINT_TOLERANCE, 100.0])
                points = np.append(points, extra)
            points = rng.permutation(points)
            spec = {"points": points.tolist(), "values": rng.normal(size=points.size).tolist()}
            path = self.write(tmp_path, scale, spec["points"], spec["values"], name=f"case{case}.json")
            try:
                want = reference_samples(spec, scale_from_spec(scale))
            except ProblemFileError as e:
                with pytest.raises(ProblemFileError, match=f"^{re.escape(str(e))}$"):
                    load_problem(path)
            else:
                assert load_problem(path).trajectory.values.tobytes() == want.tobytes()


class TestInspect:
    def test_harmonic_table(self, tmp_path, capsys):
        path = write_problem(tmp_path, scale={"kind": "harmonic", "n_max": 4})
        assert main(["inspect", path]) == 0
        out = capsys.readouterr().out
        assert "0.08333333333" in out  # mu(1/4) = 1/12
        assert "0.1666666667" in out  # mu(1/3) = 1/6
        lines = [l for l in out.splitlines() if l.strip().startswith("0 ")]
        assert lines and lines[0].split()[3] == "-"  # cut artifact marked at t=0

    @pytest.mark.parametrize("t0, marked", [(-1.0, ["0"]), (0.0, ["0"]), (0.25, [])])
    def test_the_cut_artifact_is_marked_at_the_cut_node_of_any_window(self, tmp_path, capsys, t0, marked):
        scale = [{"kind": "points", "values": [-1.0]}, {"kind": "harmonic", "n_max": 4}]
        assert main(["inspect", write_problem(tmp_path, scale=scale, t0=t0)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
        assert [row[0] for row in rows if row[3] == "-"] == marked

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

    @staticmethod
    def scalar_rows(ts, t0, t1):
        """The inspect rows from the scalar jump operators, node by node."""
        i0, i1 = ts.window_indices(t0, t1)
        rows = []
        for t in ts.points[i0 : i1 + 1].tolist():
            cls = ts.classify(t)
            rows.append(
                {
                    "t": t,
                    "sigma": ts.sigma(t),
                    "rho": ts.rho(t),
                    "mu": ts.mu(t),
                    "right": cls.right.value,
                    "left": cls.left.value,
                }
            )
        return rows

    @pytest.mark.parametrize(
        "spec, t0, t1",
        [
            ({"kind": "harmonic", "n_max": 200}, 0.0, 1.0),
            ({"kind": "geometric", "min": 0.5, "max": 512.0, "ratio": 2.0}, 0.5, 512.0),
            ({"kind": "uniform", "start": -1.0, "end": 2.0, "step": 0.125}, -1.0, 2.0),
            (
                [
                    {"kind": "dense", "lo": 0.0, "hi": 1.0, "resolution": 16},
                    {"kind": "points", "values": [1.0, 1.5, 1.75]},
                    {"kind": "uniform", "start": 2.0, "end": 4.0, "step": 0.5},
                ],
                0.0,
                4.0,
            ),
            (
                [
                    {"kind": "dense", "lo": 0.0, "hi": 1.0, "resolution": 8},
                    {"kind": "dense", "lo": 1.0, "hi": 3.0, "resolution": 5},
                ],
                0.0,
                3.0,
            ),
            (  # a window strictly inside the scale, from a dense node to a scattered one
                [
                    {"kind": "points", "values": [-2.0, -1.0]},
                    {"kind": "dense", "lo": 0.0, "hi": 1.0, "resolution": 8},
                    {"kind": "uniform", "start": 2.0, "end": 6.0, "step": 1.0},
                ],
                0.25,
                5.0,
            ),
        ],
    )
    def test_rows_match_the_scalar_jump_operators(self, tmp_path, spec, t0, t1):
        path = write_problem(tmp_path, scale=spec, t0=t0, t1=t1, trajectory=None)
        ts = load_problem(path).problem.scale
        rows = cli._point_rows(ts, t0, t1)
        want = self.scalar_rows(ts, t0, t1)
        assert rows == want
        # of the same Python types too: a numpy scalar would compare equal
        assert [{k: type(v) for k, v in row.items()} for row in rows] == [
            {k: type(v) for k, v in row.items()} for row in want
        ]

    @pytest.mark.parametrize(
        "spec, t1",
        [
            ({"kind": "harmonic", "n_max": 4}, 1.0),
            ({"kind": "uniform", "start": 0, "end": 4, "step": 1}, 4.0),
            ({"kind": "dense", "lo": 0.0, "hi": 1.0, "resolution": 1000}, 1.0),
            ({"kind": "harmonic", "n_max": 300}, 1.0),
        ],
    )
    def test_output_matches_the_scalar_rows(self, tmp_path, capsys, monkeypatch, spec, t1):
        path = write_problem(tmp_path, scale=spec, t1=t1, trajectory=None)
        outputs = []
        for name in ("array.json", "scalar.json"):
            report = tmp_path / name
            assert main(["inspect", path, "--report", str(report)]) == 0
            doc = json.loads(report.read_text())
            outputs.append((capsys.readouterr().out, doc["points"]))
            monkeypatch.setattr(cli, "_point_rows", self.scalar_rows)
        assert outputs[0] == outputs[1]


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

    def test_the_functional_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # over 10,000 rows a BLAS dot splits its sum between threads
        path = write_problem(
            tmp_path,
            scale=[
                {"kind": "harmonic", "n_max": 50},
                {"kind": "dense", "lo": 1.0, "hi": 2.2035, "resolution": 11978},
            ],
            t1=2.2035,
            lagrangian="sin(r) + cos(x) + 0.2206*t*x",
            alpha=0.9031,
            beta=2.717814352115569,
            trajectory={"kind": "expr", "formula": "0.9031*exp(t/2)"},
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        lines = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-m", "tsvar", "eval", path],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert run.returncode == 0, run.stderr
            lines.append([ln for ln in run.stdout.splitlines() if ln.startswith("functional value:")])
        assert len(lines[0]) == 1 and lines[0] == lines[1]

    def test_missing_trajectory(self, tmp_path, capsys):
        path = write_problem(tmp_path, trajectory=None)
        assert main(["eval", path]) == 1
        assert "trajectory" in capsys.readouterr().err

    def test_overflowing_trajectory_formula_is_an_input_error(self, tmp_path, capsys):
        path = write_problem(tmp_path, trajectory={"kind": "expr", "formula": "exp(1000)"})
        assert main(["eval", path]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "trajectory.formula" in err and "overflow" in err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {"lagrangian": "1e400*r"},
                "lagrangian: number '1e400' is outside the float range (at position 0)",
            ),
            (
                {"trajectory": {"kind": "expr", "formula": "1e400*t"}},
                "trajectory.formula: number '1e400' is outside the float range (at position 0)",
            ),
        ],
    )
    def test_a_literal_beyond_the_float_range_names_its_field(self, tmp_path, capsys, overrides, message):
        # it was inf: "overflow in the functional of '1e400*r'", or "grid values must all be finite"
        path = write_problem(tmp_path, **overrides)
        assert main(["eval", path]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

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

    @pytest.mark.parametrize(
        "lagrangian, step, formula",
        [
            ("exp(x)", 1, "709"),
            ("1e308*r", 2, "2 - abs(t - 2)"),  # terms +-2e308 sum to inf - inf
        ],
    )
    def test_overflowing_functional_is_an_input_error_and_writes_no_report(
        self, tmp_path, capsys, lagrangian, step, formula
    ):
        path = write_problem(
            tmp_path,
            scale={"kind": "uniform", "start": 0, "end": 100, "step": step},
            t1=100.0,
            lagrangian=lagrangian,
            alpha=709.0,
            beta=709.0,
            trajectory={"kind": "expr", "formula": formula},
        )
        report = tmp_path / "run.json"
        assert main(["eval", path, "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert f"error: overflow in the functional of '{lagrangian}'" in err
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

    def test_a_zero_pivot_of_the_hessian_is_shifted(self, tmp_path, capsys):
        # the starting Hessian of L has the pivot 0 in column 0, and H + lam*I continues
        points = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        path = write_problem(
            tmp_path,
            scale={"kind": "uniform", "start": 0, "end": 5, "step": 1},
            t1=5.0,
            lagrangian="r^2 + (x^2 - 1)^2",
            trajectory={"kind": "samples", "points": points, "values": [0, 0, 0.5, -0.5, 0.25, 0]},
        )
        assert main(["solve", path]) == 0
        out = capsys.readouterr().out
        assert "converged in 7 Newton iteration(s)" in out
        assert "second order:         strict-minimum" in out

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

    @pytest.mark.parametrize(
        "command, trajectory, builds",
        [("solve", None, 0), ("eval", {"kind": "expr", "formula": "t*(4 - t)"}, 1)],
    )
    def test_a_solve_reports_the_solvers_L_without_a_sample_table(
        self, tmp_path, monkeypatch, command, trajectory, builds
    ):
        # L comes from the solver's last _window_state; eval, which runs functional(), is the control
        rows, f_plans = [], []
        build = variational._build_rows
        monkeypatch.setattr(variational, "_build_rows", lambda P, x: rows.append(1) or build(P, x))
        f_plan = Lagrangian._f_plan.func
        spy = functools.cached_property(lambda lagr: f_plans.append(1) or f_plan(lagr))
        spy.__set_name__(Lagrangian, "_f_plan")
        monkeypatch.setattr(Lagrangian, "_f_plan", spy)
        path = write_problem(tmp_path, **dict(QUADRATIC, lagrangian="r^2 + exp(x)", trajectory=trajectory))
        report = tmp_path / "report.json"
        assert main([command, path, "--report", str(report)]) == 0
        assert json.loads(report.read_text())["functional_value"] > 0.0
        assert len(rows) == len(f_plans) == builds


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
            scale={"kind": "dense", "lo": 0, "hi": 1, "resolution": 50},
            lagrangian="r^2 - 0.001*r^4",
            trajectory={"kind": "expr", "formula": "0"},
        )
        assert main(["analyze", path, "--q-min", "-40", "--q-max", "40"]) == 3

    def test_a_violation_at_a_right_scattered_point_exits_four(self, tmp_path, capsys):
        # the sampled sweep passes; E < 0 at a right-scattered t refutes convexity in r there
        path = write_problem(
            tmp_path,
            scale={"kind": "uniform", "start": 0, "end": 4, "step": 1},
            t1=4.0,
            lagrangian="r^2 - 0.001*r^4",
            trajectory={"kind": "expr", "formula": "0"},
        )
        assert main(["analyze", path, "--q-min", "-40", "--q-max", "40"]) == 4
        out = capsys.readouterr().out
        assert "convexity hypothesis: FAILS, e.g. t=0, x=0, r1=0, r2=-40, gamma=0.5: f=240 > -480" in out
        assert "excess-scan violations: 40" in out and "verdict: hypothesis-not-met" in out

    def test_a_nan_tol_is_an_error_not_a_pass(self, tmp_path, capsys):
        # E < -nan holds nowhere: the candidate above was reported consistent, exit 0
        path = write_problem(
            tmp_path,
            scale={"kind": "uniform", "start": 0, "end": 4, "step": 1},
            t1=4.0,
            lagrangian="r^2 - 0.001*r^4",
        )
        assert main(["analyze", path, "--q-min", "-40", "--q-max", "40", "--tol", "nan"]) == 1
        assert capsys.readouterr().err == "error: --tol: must be finite\n"

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

    @pytest.mark.parametrize("lagrangian", ["r^2 - r^4", "r^2 + t*x^2"])
    def test_one_op_builds_the_sample_rows_once(self, tmp_path, monkeypatch, lagrangian):
        # the EL residual, the q grid, the excess scan and the functional share one table
        builds = []
        build = variational._build_rows
        monkeypatch.setattr(variational, "_build_rows", lambda P, x: builds.append(1) or build(P, x))
        trajectory = {"kind": "expr", "formula": "t*(1 - t)"}
        path = write_problem(tmp_path, lagrangian=lagrangian, trajectory=trajectory)
        main(["analyze", path, "--report", str(tmp_path / "analysis.json")])
        assert len(builds) == 1


MEASURED = {"functional_value", "norm_strong", "norm_weak"}
ANALYSIS = {"el_max_residual", "convexity_ok", "convexity_counterexample", "weierstrass_violations", "verdict"}
SOLVE = {"trajectory", "iterations", "residual_max", "second_order", "history"}
QUADRATIC = dict(
    scale={"kind": "uniform", "start": 0, "end": 4, "step": 1},
    t1=4.0,
    lagrangian="r^2",
    beta=4.0,
    trajectory=None,
)


class TestReports:
    @pytest.mark.parametrize(
        "command, problem, keys",
        [
            ("inspect", {}, {"points"}),
            ("eval", {}, MEASURED | ANALYSIS | {"admissibility"}),
            ("solve", QUADRATIC, MEASURED | ANALYSIS | SOLVE),
            ("analyze", {}, MEASURED | ANALYSIS),
        ],
    )
    def test_report_field_names(self, tmp_path, command, problem, keys):
        report = tmp_path / "report.json"
        path = write_problem(tmp_path, **problem)
        main([command, path, "--report", str(report)])
        doc = json.loads(report.read_text())
        assert set(doc) == keys | {"provenance"}
        assert set(doc["provenance"]) == {"file", "timestamp", "tool_version"}
        if command in ("eval", "solve"):
            assert all(doc[key] is None for key in ANALYSIS)
        if command == "analyze" and doc["weierstrass_violations"]:
            assert set(doc["weierstrass_violations"][0]) == {
                "t",
                "x_sigma",
                "r",
                "q",
                "E",
                "slope_kind",
            }

    @pytest.mark.parametrize("max_iter", [0, 1])
    def test_a_solve_that_does_not_converge_reports_its_best_iterate(self, tmp_path, max_iter):
        report = tmp_path / "solve.json"
        path = write_problem(tmp_path, **dict(QUADRATIC, lagrangian="r^2 + exp(x)"))
        assert main(["solve", path, "--max-iter", str(max_iter), "--report", str(report)]) == 2
        text = report.read_text()
        doc = json.loads(text)
        assert serialize_report(doc) == text
        assert set(doc) == MEASURED | ANALYSIS | SOLVE | {"provenance"}
        problem = load_problem(path).problem
        with pytest.raises(NonConvergence) as stopped:
            variational.solve_el_discrete(problem, max_iter=max_iter)
        best = stopped.value.best
        assert doc["trajectory"] == {"points": [0.0, 1.0, 2.0, 3.0, 4.0], "values": best.values.tolist()}
        assert doc["functional_value"] == variational.functional(problem, best)
        assert doc["norm_strong"] == norm_strong(best, 0.0, 4.0)
        assert doc["norm_weak"] == norm_weak(best, 0.0, 4.0)
        assert doc["iterations"] == max_iter == len(doc["history"])
        assert doc["residual_max"] == stopped.value.residual_max > 1e-10
        assert doc["second_order"] is None
        assert all(doc[key] is None for key in ANALYSIS)

    @pytest.mark.parametrize(
        "target, reason",
        [(lambda d: d / "missing" / "run.json", "No such file or directory"), (lambda d: d, "Is a directory")],
        ids=["missing-directory", "directory"],
    )
    def test_an_unwritable_report_path_is_an_input_error(self, tmp_path, capsys, target, reason):
        path = write_problem(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        report = target(out)
        assert main(["eval", path, "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write report {str(report)!r}: {reason}\n"
        assert [p.name for p in out.iterdir()] == []


class TestUsage:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["analyze"], 1),
            (["analyze", "problem.json", "--q-count", "abc"], 1),
            (["frobnicate"], 1),
            ([], 1),
            (["--help"], 0),
            (["analyze", "--help"], 0),
            (["--version"], 0),
            (["analyze", "problem.json", "--max-iter", "5"], 1),  # solve's flag only
        ],
    )
    def test_usage_errors_exit_one(self, capsys, argv, code):
        # argparse raises SystemExit(2), which is the non-convergence code
        assert main(argv) == code
        captured = capsys.readouterr()
        if code:
            assert "usage: tsvar" in captured.err and "error:" in captured.err
        else:
            assert captured.out and not captured.err


class TestParserReuse:
    def test_calls_in_one_process_match_calls_on_their_own(self, tmp_path, capsys):
        harmonic = write_problem(tmp_path)
        uniform = write_problem(
            tmp_path,
            "uniform.json",
            scale={"kind": "uniform", "start": 0, "end": 6, "step": 1},
            t1=6.0,
            lagrangian="r^2 + r^4/4 + x^2",
            beta=1.0,
        )
        calls = [
            ["analyze", harmonic, "--q-count", "3"],
            ["analyze", harmonic],
            ["solve", uniform, "--max-iter", "1"],
            ["solve", uniform],
            ["eval", harmonic, "--resolution", "7"],
            ["inspect", uniform],
        ]

        def run(k):
            report = tmp_path / f"report{k}.json"
            report.unlink(missing_ok=True)
            rc = main(calls[k] + ["--report", str(report)])
            out = capsys.readouterr()
            text = report.read_text() if report.exists() else None
            return rc, out.out, out.err, text and re.sub(r'"timestamp": "[^"]*"', "", text)

        assert cli._build_parser() is cli._build_parser()
        in_one_process = [run(k) for k in range(len(calls))]
        on_their_own = []
        for k in range(len(calls)):
            cli._build_parser.cache_clear()
            on_their_own.append(run(k))
        assert in_one_process == on_their_own
        # the flags of one call reach neither the next call nor its report
        assert in_one_process[0] != in_one_process[1]
        assert in_one_process[2][0] == 2 and in_one_process[3][0] == 0


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
