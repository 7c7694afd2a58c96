"""Random problem files through the CLI: a result or one error line, never a traceback.

Valid skeletons of every scale kind get mutated fields (wrong types, missing
keys, +-1e308, integers beyond the float range, zero and negative sizes) and
random expression strings, and each file runs through inspect, eval, solve
and analyze in-process with --report. Every run must exit 0-4, and an exit 1 must print exactly one
"error: " line to stderr. Scale sizes and q counts stay at most 10^3.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from tsvar.cli import main
from conftest import SMOOTH_TEMPLATES

COMMANDS = ("inspect", "eval", "solve", "analyze")
SIZE = 1000  # most points of a segment, and most q of a grid


def mostly(common, rare):
    """common three times in four, rare otherwise."""
    return st.sampled_from([True, True, True, False]).flatmap(lambda c: common if c else rare)


sizes = mostly(st.integers(2, 12), st.integers(2, SIZE))
BEYOND_FLOATS = 10**400  # a JSON integer that no float holds
numbers = mostly(st.floats(-4.0, 4.0), st.sampled_from([0.0, 1e308, -1e308, BEYOND_FLOATS, -BEYOND_FLOATS]))
# values that replace a field: other types, extreme numbers, zero and negative sizes
replacements = st.sampled_from(
    ["", "x", [], [1.0], {}, {"kind": "dense"}, None, True, 1e308, -1e308, 0, -1, -1000, 0.0, 2.5]
)

TOKENS = ["t", "x", "r", "+", "-", "*", "/", "^", "(", ")", "1", "2", "0", "0.5", "1e308",
          "sin", "cos", "exp", "log", "sqrt", "abs", "sign", "q", ","]
FORMULAS = ("0", "t", "t^2 - t", "sin(3*t)", "exp(t)", "1/t", "sqrt(t)", "log(t)", "1e308", "-1e308*t")
LAGRANGIANS = SMOOTH_TEMPLATES + ("1e308*r^2", "x^2", "abs(r)", "r^(1/2)", "log(r)")


def expressions(templates):
    """Mostly well-formed expressions, so that runs get past loading; some garbled."""
    garbled = st.lists(st.sampled_from(TOKENS), max_size=9).map(" ".join) | st.text(
        alphabet="trx+-*/^().0123456789e sinco", max_size=12
    )
    return mostly(st.sampled_from(templates), garbled)


@st.composite
def skeletons(draw):
    """A valid problem file: (scale spec, t0, t1) of one kind, and the other fields."""
    n = draw(sizes)
    kind = draw(st.sampled_from(["harmonic", "uniform", "geometric", "dense", "points", "union"]))
    if kind == "harmonic":
        scale, t0, t1 = {"kind": "harmonic", "n_max": n}, 0.0, 1.0
    elif kind == "uniform":
        scale, t0, t1 = {"kind": "uniform", "start": 0.0, "end": n * 0.5, "step": 0.5}, 0.0, n * 0.5
    elif kind == "geometric":
        k = min(n, 12)
        scale, t0, t1 = {"kind": "geometric", "min": 1.0, "max": 2.0**k, "ratio": 2.0}, 1.0, 2.0**k
    elif kind == "dense":
        scale, t0, t1 = {"kind": "dense", "lo": 0.0, "hi": 1.0, "resolution": n}, 0.0, 1.0
    elif kind == "points":
        values = sorted(draw(st.sets(st.integers(-50, 50), min_size=2, max_size=12)))
        scale, t0, t1 = {"kind": "points", "values": [float(v) for v in values]}, values[0], values[-1]
    else:
        scale = [
            {"kind": "points", "values": [-2.0, -1.0]},
            {"kind": "dense", "lo": 0.0, "hi": 1.0, "resolution": n},
            {"kind": "uniform", "start": 1.0, "end": 3.0, "step": 0.5},
        ]
        t0, t1 = draw(st.sampled_from([(-2.0, 3.0), (1.0, 3.0), (0.0, 1.0), (-2.0, 0.0)]))
    doc = {
        "scale": scale,
        "t0": t0,
        "t1": t1,
        "lagrangian": draw(expressions(LAGRANGIANS)),
        "alpha": draw(numbers),
        "beta": draw(numbers),
    }
    trajectory = draw(st.sampled_from(["none", "expr", "expr", "samples"]))
    if trajectory == "expr" or trajectory == "samples" and kind != "points":
        doc["trajectory"] = {"kind": "expr", "formula": draw(expressions(FORMULAS))}
    elif trajectory == "samples":
        points = scale["values"]
        values = draw(st.lists(numbers, min_size=len(points), max_size=len(points)))
        doc["trajectory"] = {"kind": "samples", "points": points, "values": values}
    if draw(st.booleans()):
        q_min = draw(numbers)
        doc["scan"] = {
            "q_min": q_min,
            "q_max": q_min + draw(st.integers(0, 8) if isinstance(q_min, int) else st.floats(0.0, 8.0)),
            "q_count": draw(mostly(st.integers(1, 40), st.integers(1, SIZE))),
            "tol": 1e-9,
        }
    return doc


def fields(value, path=()):
    """The path of every field below value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,)
        yield from fields(item, path + (key,))


@st.composite
def problem_files(draw):
    """A skeleton with up to three fields deleted, replaced or pushed to an extreme."""
    doc = draw(skeletons())
    for _ in range(draw(mostly(st.sampled_from([0, 0, 1]), st.integers(2, 3)))):
        paths = list(fields(doc))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        container = doc
        for parent in parents:
            container = container[parent]
        value = container[key]
        action = draw(st.sampled_from(["delete", "replace", "extreme"]))
        if action == "delete" and isinstance(container, dict):
            del container[key]
        elif action == "extreme" and isinstance(value, (int, float)) and not isinstance(value, bool):
            container[key] = draw(st.sampled_from([1e308, -1e308, 0, -value, -abs(value) - 1, BEYOND_FLOATS]))
        else:
            container[key] = copy.deepcopy(draw(replacements))
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("random-files")


@settings(max_examples=200)
@given(doc=problem_files())
def test_every_command_gives_a_result_or_one_error_line(workdir, doc):
    path, report = workdir / "problem.json", workdir / "report.json"
    path.write_text(json.dumps(doc))
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), "--report", str(report)])
        assert code in range(5), (command, code, err.getvalue())
        if code == 1:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (command, lines)
