"""Problem files and machine-readable run reports.

A problem file is a single UTF-8 JSON document:

    {
      "scale": {"kind": "harmonic", "n_max": 50},
      "t0": 0.0, "t1": 1.0,
      "lagrangian": "r^2 - r^4",
      "alpha": 0.0, "beta": 0.0,
      "trajectory": {"kind": "expr", "formula": "0"},
      "scan": {"q_min": -2.5, "q_max": 2.5, "q_count": 41, "tol": 1e-9}
    }

"scale" is a tagged segment spec or a list of them (their union). A
trajectory is either an expression in t, sampled onto the scale at load
time, or explicit samples covering every representative point. Validation
errors carry the offending field path.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional

import numpy as np

from .calculus import GridFunction
from .errors import PointNotInScale, ProblemFileError, TsvarError
from .expressions import evaluate, parse_lagrangian
from .timescale import (
    POINT_TOLERANCE,
    DenseInterval,
    DiscretePoints,
    Geometric,
    TimeScale,
    Uniform,
    evenly_spaced,
    make_harmonic,
)
from .variational import Trajectory, VariationalProblem
from .weierstrass import (
    _SLOPE_KINDS,
    DEFAULT_Q_COUNT,
    MAX_Q_COUNT,
    AnalysisReport,
    ExcessTable,
)


@dataclass(frozen=True)
class ScanConfig:
    """Scan settings, checked when built (see _checked_scan_settings); errors name the field."""

    q_min: Optional[float] = None
    q_max: Optional[float] = None
    q_count: int = DEFAULT_Q_COUNT
    tol: float = 1e-9

    def __post_init__(self):
        given = {k: v for k, v in vars(self).items() if v is not None}
        _checked_scan_settings(given, lambda key: key)

    def overlay(self, values: dict, name: Callable[[str], str]) -> "ScanConfig":
        """This config with the settings in values laid over it; other keys are ignored.

        Each setting is checked first (see _checked_scan_settings). An error
        names a setting as name(key), its file field or its flag.
        """
        return replace(self, **_checked_scan_settings(values, name))

    def q_grid(self) -> Optional[np.ndarray]:
        """The fixed comparison-slope grid, or None to derive one from the trajectory."""
        if self.q_min is None:
            return None
        return evenly_spaced(self.q_min, self.q_max, self.q_count)


@dataclass(frozen=True)
class LoadedProblem:
    problem: VariationalProblem
    trajectory: Optional[Trajectory]
    scan: ScanConfig
    path: str


def _checked_scan_settings(values: dict, name: Callable[[str], str]) -> dict:
    """The scan settings in values, parsed and checked; other keys are ignored.

    q_min < q_max are finite and given together, q_count is an integer from
    1 to MAX_Q_COUNT, and tol is finite and at least 0. An error names a
    setting as name(key).
    """
    parsers = {"q_min": _as_number, "q_max": _as_number, "q_count": _as_int, "tol": _as_number}
    new = {k: parse(values[k], name(k)) for k, parse in parsers.items() if k in values}
    if ("q_min" in new) != ("q_max" in new):
        given, other = ("q_min", "q_max") if "q_min" in new else ("q_max", "q_min")
        raise ProblemFileError(name(given), f"must be given together with {name(other)}")
    if "q_min" in new and new["q_min"] >= new["q_max"]:
        raise ProblemFileError(name("q_min"), f"must be below {name('q_max')}")
    if new.get("q_count", 1) < 1:
        raise ProblemFileError(name("q_count"), "must be at least 1")
    if new.get("q_count", 1) > MAX_Q_COUNT:
        raise ProblemFileError(name("q_count"), f"must be at most {MAX_Q_COUNT:,}")
    if new.get("tol", 0.0) < 0.0:
        raise ProblemFileError(name("tol"), "must be nonnegative")
    return new


def _need(obj: dict, key: str, field: str):
    if key not in obj:
        raise ProblemFileError(field, "missing required field")
    return obj[key]


def _as_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFileError(field, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ProblemFileError(field, "must be finite")
    return float(value)


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFileError(field, f"expected an integer, got {value!r}")
    return value


def _segment_from_spec(spec: dict, field: str, resolution: Optional[int]):
    if not isinstance(spec, dict):
        raise ProblemFileError(field, "segment spec must be an object with a 'kind'")
    kind = _need(spec, "kind", f"{field}.kind")

    def number(key: str) -> float:
        return _as_number(_need(spec, key, f"{field}.{key}"), f"{field}.{key}")

    try:
        if kind == "harmonic":
            n_max = _as_int(_need(spec, "n_max", f"{field}.n_max"), f"{field}.n_max")
            if n_max < 2:
                raise ProblemFileError(f"{field}.n_max", "must be >= 2")
            return make_harmonic(n_max)
        if kind == "uniform":
            return Uniform(number("start"), number("end"), number("step"))
        if kind == "geometric":
            return Geometric(number("min"), number("max"), number("ratio"))
        if kind == "dense":
            res = spec.get("resolution", 1000) if resolution is None else resolution
            return DenseInterval(number("lo"), number("hi"), _as_int(res, f"{field}.resolution"))
        if kind == "points":
            values = _need(spec, "values", f"{field}.values")
            if not isinstance(values, list) or not values:
                raise ProblemFileError(f"{field}.values", "expected a nonempty list of numbers")
            return DiscretePoints(
                tuple(_as_number(v, f"{field}.values[{i}]") for i, v in enumerate(values))
            )
    except ProblemFileError:
        raise
    except TsvarError as e:
        raise ProblemFileError(field, str(e)) from None
    raise ProblemFileError(f"{field}.kind", f"unknown scale kind {kind!r}")


def scale_from_spec(spec, field: str = "scale", resolution: Optional[int] = None) -> TimeScale:
    specs = spec if isinstance(spec, list) else [spec]
    if not specs:
        raise ProblemFileError(field, "scale spec list is empty")
    segments = []
    metadata = {}
    for i, s in enumerate(specs):
        sub = f"{field}[{i}]" if isinstance(spec, list) else field
        segment = _segment_from_spec(s, sub, resolution)
        if isinstance(segment, TimeScale):  # harmonic: points and metadata from make_harmonic
            segment, metadata = segment.segments[0], dict(segment.metadata)
        segments.append(segment)
    if len(specs) == 1 and isinstance(specs[0], dict) and not metadata:
        metadata = {"kind": specs[0].get("kind")}
    try:
        return TimeScale(segments, metadata=metadata)
    except TsvarError as e:
        raise ProblemFileError(field, str(e)) from None


def _trajectory_from_spec(spec: dict, scale: TimeScale, field: str) -> Trajectory:
    if not isinstance(spec, dict):
        raise ProblemFileError(field, "trajectory must be an object with a 'kind'")
    kind = _need(spec, "kind", f"{field}.kind")
    if kind == "expr":
        formula = _need(spec, "formula", f"{field}.formula")
        try:
            values = evaluate(parse_lagrangian(str(formula)).ast, {"t": scale.points})
        except TsvarError as e:
            raise ProblemFileError(f"{field}.formula", str(e)) from None
        return GridFunction(scale, values)
    if kind == "samples":
        pts = _need(spec, "points", f"{field}.points")
        vals = _need(spec, "values", f"{field}.values")
        if not isinstance(pts, list) or not isinstance(vals, list) or len(pts) != len(vals):
            raise ProblemFileError(field, "'points' and 'values' must be lists of equal length")
        given = {}
        for i, (p, v) in enumerate(zip(pts, vals)):
            point = _as_number(p, f"{field}.points[{i}]")
            if point in given:
                raise ProblemFileError(f"{field}.points[{i}]", f"repeats the sample point {point!r}")
            given[point] = _as_number(v, f"{field}.values[{i}]")
        keys = sorted(given)
        values = np.empty(len(scale))
        for i, t in enumerate(scale.points):
            j = int(np.searchsorted(keys, t))
            hit = None
            for k in (j - 1, j):
                if 0 <= k < len(keys) and abs(keys[k] - t) <= POINT_TOLERANCE:
                    hit = keys[k]
            if hit is None:
                raise ProblemFileError(
                    f"{field}.points", f"no sample for scale point t={float(t)!r}"
                )
            values[i] = given[hit]
        if len(keys) != len(scale):
            raise ProblemFileError(
                f"{field}.points", "sample points do not match the scale's representative points"
            )
        return GridFunction(scale, values)
    raise ProblemFileError(f"{field}.kind", f"unknown trajectory kind {kind!r}")


def load_problem(path: str, resolution: Optional[int] = None) -> LoadedProblem:
    """Load and validate a problem file; raises ProblemFileError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ProblemFileError("file", str(e)) from None
    except json.JSONDecodeError as e:
        raise ProblemFileError("file", f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ProblemFileError("file", "top level must be a JSON object")

    scale = scale_from_spec(_need(doc, "scale", "scale"), "scale", resolution)
    source = str(_need(doc, "lagrangian", "lagrangian"))
    try:
        lagr = parse_lagrangian(source)
    except TsvarError as e:
        raise ProblemFileError("lagrangian", str(e)) from None
    t0, t1, alpha, beta = (
        _as_number(_need(doc, key, key), key) for key in ("t0", "t1", "alpha", "beta")
    )
    try:
        problem = VariationalProblem(scale, t0, t1, lagr, alpha, beta)
    except PointNotInScale as e:  # t0 is looked up first
        raise ProblemFileError("t0" if scale.node_index(t0) is None else "t1", str(e)) from None
    except TsvarError as e:
        raise ProblemFileError("t0", str(e)) from None

    trajectory = None
    if doc.get("trajectory") is not None:
        trajectory = _trajectory_from_spec(doc["trajectory"], scale, "trajectory")

    scan = ScanConfig()
    if doc.get("scan") is not None:
        if not isinstance(doc["scan"], dict):
            raise ProblemFileError("scan", "must be an object")
        scan = scan.overlay(doc["scan"], lambda key: f"scan.{key}")
    return LoadedProblem(problem=problem, trajectory=trajectory, scan=scan, path=path)


# -- run reports ----------------------------------------------------------------


def analysis_to_document(analysis: AnalysisReport) -> dict:
    cx = analysis.convexity_counterexample
    return {
        "el_max_residual": analysis.el_max_residual,
        "convexity_ok": analysis.convexity_ok,
        "convexity_counterexample": None if cx is None else asdict(cx),
        "weierstrass_violations": analysis.weierstrass_violations,  # written column by column
        "verdict": analysis.verdict.value,
    }


def build_run_report(path: str, tool_version: str, fields: dict) -> dict:
    """fields with the provenance of the run: the problem file, the time and the tool version."""
    provenance = {
        "file": path,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tool_version": tool_version,
    }
    return {**fields, "provenance": provenance}


_ENCODER = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)


def serialize_report(doc: dict) -> str:
    """Canonical rendering; serialize -> parse -> serialize is byte-identical.

    The text is that of json.dumps(doc, indent=2, sort_keys=True,
    allow_nan=False) + "\n" for any document with string keys, a top-level
    ExcessTable value standing for the list of its samples as objects with
    the keys t, x_sigma, r, q, E and slope_kind. An ExcessTable is rendered
    column by column, each distinct float once (see _excess_table); every
    other value by json's encoder, and an ExcessTable anywhere else raises
    TypeError. A non-finite float raises TsvarError naming its field.
    """
    try:
        if not isinstance(doc, dict) or not doc:
            return _ENCODER.encode(doc) + "\n"
        out: list[str] = []
        separator = "{\n  "
        for key in sorted(doc):
            out.append(separator + encode_basestring_ascii(key) + ": ")
            separator = ",\n  "
            value = doc[key]
            if isinstance(value, ExcessTable):
                _excess_table(value, "\n  ", out)
            else:
                # json escapes a newline in a string, so each raw one starts an indented line
                out.append(_ENCODER.encode(value).replace("\n", "\n  "))
        out.append("\n}\n")
        return "".join(out)
    except ValueError:
        found = _first_non_finite(doc, None)
        if found is None:
            raise
        field, value = found
        where = "report" if field is None else f"report field {field}"
        raise TsvarError(f"{where}: {value!r} is not a finite number") from None


def _first_non_finite(value, field: Optional[str]) -> Optional[tuple]:
    """(field path, value) of the first NaN or infinity in value in json's order, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (field, value)
    if isinstance(value, ExcessTable):  # as the list of its rows, slope_kind by code
        keys = [key for key, _ in _EXCESS_KEYS]
        columns = (getattr(value, name).tolist() for _, name in _EXCESS_KEYS)
        value = [dict(zip(keys, row)) for row in zip(*columns)]
    if isinstance(value, dict):
        items = ((key if field is None else f"{field}.{key}", value[key]) for key in sorted(value))
    elif isinstance(value, (list, tuple)):
        items = ((f"{field or ''}[{i}]", item) for i, item in enumerate(value))
    else:
        return None
    for sub, item in items:
        found = _first_non_finite(item, sub)
        if found is not None:
            return found
    return None


def write_report(path: str, doc: dict) -> None:
    text = serialize_report(doc)  # before opening, so a failed render leaves no file
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise TsvarError(f"cannot write report {path!r}: {e.strerror}") from None


# (report key, ExcessTable column) in sorted-key order
_EXCESS_KEYS = (
    ("E", "E"), ("q", "q"), ("r", "r"), ("slope_kind", "kind"), ("t", "t"), ("x_sigma", "x_sigma")
)
# the JSON text of each slope-kind code
_KIND_TEXT = np.array([encode_basestring_ascii(_SLOPE_KINDS[k].value) for k in range(3)], dtype=object)


def _excess_table(table: ExcessTable, pad: str, out: list[str]) -> None:
    """Append the JSON text of the list of table's samples as objects, built from its columns."""
    n = len(table)
    if not n:
        out.append("[]")
        return
    columns = [(key, getattr(table, name)) for key, name in _EXCESS_KEYS]
    inner, field = pad + "  ", pad + "    "
    width = 2 * len(columns)
    pieces: list = [None] * (width * n)
    for k, (key, column) in enumerate(columns):
        prefix = ("," if k else "{") + field + encode_basestring_ascii(key) + ": "
        pieces[2 * k :: width] = [prefix] * n
        pieces[2 * k + 1 :: width] = (
            _KIND_TEXT[column].tolist() if key == "slope_kind" else _float_texts(column)
        )
    start = pieces[0]  # each row after the first also closes the one before it
    pieces[0::width] = [inner + "}," + inner + start] * n
    pieces[0] = "[" + inner + start
    pieces.append(inner + "}" + pad + "]")
    out.append("".join(pieces))


def _float_texts(column: np.ndarray) -> list[str]:
    """The JSON texts of a float64 column, each distinct value rendered once.

    A NaN or infinity raises ValueError.
    """
    # distinct by bit pattern, so 0.0 and -0.0 stay apart
    _, first, inverse = np.unique(column.view(np.int64), return_index=True, return_inverse=True)
    texts = json.dumps(column[first].tolist(), allow_nan=False)[1:-1].split(", ")
    return np.array(texts, dtype=object)[inverse].tolist()
