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
import os
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple, Optional

import numpy as np

from .calculus import GridFunction
from .errors import PointNotInScale, ProblemFileError, TsvarError
from .expressions import evaluate, parse_lagrangian
from .timescale import (
    MAX_SCALE_POINTS,
    POINT_TOLERANCE,
    DenseInterval,
    DiscretePoints,
    Geometric,
    TimeScale,
    Uniform,
    _Frozen,
    _is_finite_number,
    _is_whole,
    evenly_spaced,
    harmonic_segment,
)
from .variational import Trajectory, VariationalProblem
from .weierstrass import (
    _SLOPE_KINDS,
    DEFAULT_Q_COUNT,
    MAX_Q_COUNT,
    AnalysisReport,
    ExcessTable,
)


class ScanConfig(_Frozen):
    """Scan settings, checked when built (see _checked_scan_settings); errors name the field."""

    _fields = ("q_min", "q_max", "q_count", "tol")

    def __init__(
        self,
        q_min: Optional[float] = None,
        q_max: Optional[float] = None,
        q_count: int = DEFAULT_Q_COUNT,
        tol: float = 1e-9,
    ):
        settings = {"q_min": q_min, "q_max": q_max, "q_count": q_count, "tol": tol}
        _checked_scan_settings({k: v for k, v in settings.items() if v is not None}, lambda key: key)
        for name, value in settings.items():
            object.__setattr__(self, name, value)

    def overlay(self, values: dict, name: Callable[[str], str]) -> "ScanConfig":
        """This config with the settings in values laid over it; other keys are ignored.

        Each setting is checked first (see _checked_scan_settings). An error
        names a setting as name(key), its file field or its flag.
        """
        return ScanConfig(**{**vars(self), **_checked_scan_settings(values, name)})

    def q_grid(self) -> Optional[np.ndarray]:
        """The fixed comparison-slope grid, or None to derive one from the trajectory."""
        if self.q_min is None:
            return None
        return evenly_spaced(self.q_min, self.q_max, self.q_count)


class LoadedProblem(NamedTuple):
    problem: VariationalProblem
    trajectory: Optional[Trajectory]
    scan: ScanConfig
    path: str

    # compares by identity, as the GridFunction it holds does; != too, which tuple's would not
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def _checked_scan_settings(values: dict, name: Callable[[str], str]) -> dict:
    """The scan settings in values, parsed and checked; other keys are ignored.

    q_min < q_max are finite and given together, q_count is an integer from
    1 to MAX_Q_COUNT, and tol is finite and at least 0. An error names a
    setting as name(key).
    """
    def as_count(value, field: str) -> int:
        return _as_int(value, field, 1)

    parsers = {"q_min": _as_number, "q_max": _as_number, "q_count": as_count, "tol": _as_number}
    new = {k: parse(values[k], name(k)) for k, parse in parsers.items() if k in values}
    if ("q_min" in new) != ("q_max" in new):
        given, other = ("q_min", "q_max") if "q_min" in new else ("q_max", "q_min")
        raise ProblemFileError(name(given), f"must be given together with {name(other)}")
    if "q_min" in new and new["q_min"] >= new["q_max"]:
        raise ProblemFileError(name("q_min"), f"must be below {name('q_max')}")
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
    """value as a float if it is a JSON number that is a finite float (_is_finite_number)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFileError(field, f"expected a number, got {value!r}")
    if not _is_finite_number(value):
        raise ProblemFileError(field, "is beyond the float range" if isinstance(value, int) else "must be finite")
    return float(value)


def _as_int(value, field: str, least: int) -> int:
    """value if it is a JSON integer of at least least within the float range (_is_whole)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFileError(field, f"expected an integer, got {value!r}")
    if value < least:
        raise ProblemFileError(field, f"must be at least {least}")
    if not _is_whole(value, least):
        raise ProblemFileError(field, "is beyond the float range")
    return value


def _segment_from_spec(spec: dict, field: str, resolution: Optional[int]) -> tuple:
    """The segment of a spec and the scale metadata it brings ({} but for a harmonic spec)."""
    if not isinstance(spec, dict):
        raise ProblemFileError(field, "segment spec must be an object with a 'kind'")
    kind = _need(spec, "kind", f"{field}.kind")

    def number(key: str) -> float:
        return _as_number(_need(spec, key, f"{field}.{key}"), f"{field}.{key}")

    try:
        if kind == "harmonic":
            return harmonic_segment(_as_int(_need(spec, "n_max", f"{field}.n_max"), f"{field}.n_max", 2))
        if kind == "uniform":
            return Uniform(number("start"), number("end"), number("step")), {}
        if kind == "geometric":
            return Geometric(number("min"), number("max"), number("ratio")), {}
        if kind == "dense":
            res = spec.get("resolution", 1000) if resolution is None else resolution
            return DenseInterval(number("lo"), number("hi"), _as_int(res, f"{field}.resolution", 1)), {}
        if kind == "points":
            values = _need(spec, "values", f"{field}.values")
            if not isinstance(values, list) or not values:
                raise ProblemFileError(f"{field}.values", "expected a nonempty list of numbers")
            points = tuple(_as_number(v, f"{field}.values[{i}]") for i, v in enumerate(values))
            return DiscretePoints(points), {}
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
    total = 0
    for i, s in enumerate(specs):
        sub = f"{field}[{i}]" if isinstance(spec, list) else field
        segment, meta = _segment_from_spec(s, sub, resolution)
        segments.append(segment)
        metadata = meta or metadata
        total += segment._count
        if total > MAX_SCALE_POINTS:  # TimeScale rejects them; build no more
            break
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
        # a node takes the sample within tolerance at or above it, else below; ±inf ends match none
        keys = np.fromiter(given, float, len(given))
        order = np.argsort(keys)
        keys = np.concatenate(([-np.inf], keys[order], [np.inf]))
        t = scale.points
        j = np.searchsorted(keys, t)
        j = np.where(np.abs(keys[j] - t) <= POINT_TOLERANCE, j, j - 1)
        missing = np.abs(keys[j] - t) > POINT_TOLERANCE
        if missing.any():
            first = float(t[missing.argmax()])
            raise ProblemFileError(f"{field}.points", f"no sample for scale point t={first!r}")
        if len(given) != len(scale):
            raise ProblemFileError(
                f"{field}.points", "sample points do not match the scale's representative points"
            )
        return GridFunction(scale, np.fromiter(given.values(), float, len(given))[order[j - 1]])
    raise ProblemFileError(f"{field}.kind", f"unknown trajectory kind {kind!r}")


def load_problem(path: str, resolution: Optional[int] = None) -> LoadedProblem:
    """Load and validate a problem file; raises ProblemFileError.

    path is a str or an os.PathLike. Anything else is refused before open,
    which would take an int (or a bool) as a file descriptor to read and close.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise ProblemFileError("file", f"expected a path (str or os.PathLike), not {type(path).__name__}")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ProblemFileError("file", str(e)) from None
    except json.JSONDecodeError as e:
        raise ProblemFileError("file", f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except ValueError as e:  # bytes that are not UTF-8, or an integer of more digits than int() reads
        raise ProblemFileError("file", str(e)) from None
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
        "convexity_counterexample": None if cx is None else cx._asdict(),
        "weierstrass_violations": analysis.weierstrass_violations,  # serialize_report renders it
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


def serialize_report(doc: dict) -> str:
    """Canonical rendering: the join of _render_report's pieces.

    serialize -> parse -> serialize is byte-identical, and the text is what
    write_report writes.
    """
    return "".join(_render_report(doc))


def _render_report(doc: dict) -> list[str]:
    """The pieces of the report text of doc, every render error raised before they are returned.

    Their join is json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    + "\n" for any document with string keys, a top-level ExcessTable value
    standing for the list of its samples as objects with the keys t,
    x_sigma, r, q, E and slope_kind. An ExcessTable is rendered a sample at
    a time, from one text per run of equal row fields, one per distinct q
    and one per distinct E (see _excess_table); every other value by
    _render, and an ExcessTable anywhere else raises TypeError. A non-finite
    float raises TsvarError naming its field.
    """
    out: list[str] = []
    try:
        _render(doc, "\n", out, tables=True)
        out.append("\n")
        return out
    except ValueError:
        found = _first_non_finite(doc, None)
        if found is None:
            raise
        field, value = found
        where = "report" if field is None else f"report field {field}"
        raise TsvarError(f"{where}: {value!r} is not a finite number") from None


def _render(value, pad: str, out: list[str], tables: bool = False) -> None:
    """Append the text json.dumps(value, indent=2, sort_keys=True, allow_nan=False) gives.

    pad is the newline and indent of the line value starts on, which its
    closing bracket ends on. Every float goes through float.__repr__, json's
    own float text, and a list of plain floats is one piece. With tables, a
    dict value may be an ExcessTable (see _excess_table). A NaN or infinity
    raises ValueError and any other type TypeError, as json does.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("Out of range float values are not JSON compliant")
        out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not len(value):  # not truth: a record such as Admissibility is a tuple with its own __bool__
            out.append("[]")
            return
        inner = pad + "  "
        if {*map(type, value)} == {float}:  # a trajectory's points or values
            if not all(map(math.isfinite, value)):
                raise ValueError("Out of range float values are not JSON compliant")
            out.append("[" + inner + ("," + inner).join(map(float.__repr__, value)) + pad + "]")
            return
        separator = "[" + inner
        for item in value:
            out.append(separator)
            separator = "," + inner
            _render(item, inner, out)
        out.append(pad + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        separator = "{" + inner
        for key in sorted(value):
            out.append(separator + encode_basestring_ascii(key) + ": ")
            separator = "," + inner
            item = value[key]
            if tables and isinstance(item, ExcessTable):
                _excess_table(item, inner, out)
            else:
                _render(item, inner, out)
        out.append(pad + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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


# Pieces joined for one write. A table sample is three pieces, some 200
# bytes of text, so a chunk is about 140 KB: small beside a report of
# megabytes, whose whole text and encoded copy are never held, and large
# enough that the cost of a write call is spread over hundreds of samples.
WRITE_CHUNK_PIECES = 2048


def write_report(path: str, doc: dict) -> None:
    """Write serialize_report(doc) to path, WRITE_CHUNK_PIECES rendered pieces at a time.

    The pieces are all rendered before the file is opened, so a failed
    render leaves no file; neither the whole text nor its encoded copy is
    ever held.
    """
    pieces = _render_report(doc)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for start in range(0, len(pieces), WRITE_CHUNK_PIECES):
                fh.write("".join(pieces[start : start + WRITE_CHUNK_PIECES]))
    except OSError as e:
        raise TsvarError(f"cannot write report {path!r}: {e.strerror}") from None


# (report key, ExcessTable column) in sorted-key order
_EXCESS_KEYS = (
    ("E", "E"), ("q", "q"), ("r", "r"), ("slope_kind", "kind"), ("t", "t"), ("x_sigma", "x_sigma")
)
# the JSON text of each slope-kind code
_KIND_TEXT = np.array([encode_basestring_ascii(_SLOPE_KINDS[k].value) for k in range(3)], dtype=object)


def _excess_table(table: ExcessTable, pad: str, out: list[str]) -> None:
    """Append the JSON text of the list of table's samples as objects, three pieces a sample.

    Neighbouring samples whose t, x_sigma, r and slope kind are bit-equal, as
    the violations of one scan row are, form a run and share one tail: the
    r, slope_kind, t and x_sigma lines, the closing brace and the next
    sample's opening up to its E. A sample is then its E text, its q line,
    rendered once per distinct q, and its run's tail. Bit-equal values have
    one text, so the rendering holds for samples in any order.
    """
    n = len(table)
    if not n:
        out.append("[]")
        return
    inner, field = pad + "  ", pad + "    "
    # a run ends where a row field changes bits, so 0.0 and -0.0 stay apart
    ends = table.kind[1:] != table.kind[:-1]
    for column in (table.t, table.x_sigma, table.r):
        bits = column.view(np.int64)
        ends |= bits[1:] != bits[:-1]
    starts = np.flatnonzero(np.concatenate(([True], ends)))

    def line(key: str) -> str:  # the end of the line before, and the key
        return "," + field + encode_basestring_ascii(key) + ": "

    def texts(column: np.ndarray) -> np.ndarray:
        distinct, inverse = _float_texts(column)
        return distinct[inverse]

    tails = (
        line("r") + texts(table.r[starts])
        + line("slope_kind") + _KIND_TEXT[table.kind[starts]]
        + line("t") + texts(table.t[starts])
        + line("x_sigma") + texts(table.x_sigma[starts])
        + (inner + "}")
    )
    opener = "{" + field + encode_basestring_ascii("E") + ": "
    q_texts, q_index = _float_texts(table.q)
    pieces: list = [None] * (3 * n)
    pieces[0::3] = texts(table.E).tolist()
    pieces[1::3] = (line("q") + q_texts)[q_index].tolist()
    pieces[2::3] = np.repeat(tails + ("," + inner + opener), np.diff(starts, append=n)).tolist()
    pieces[-1] = tails[-1] + pad + "]"
    out.append("[" + inner + opener)
    out.extend(pieces)


def _float_texts(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The JSON text of each distinct value of a float64 column, and each entry's index into them.

    The texts are an object array, the values distinct by bit pattern, so
    0.0 and -0.0 stay apart. A text is float.__repr__ of its value, which
    is json's own float text. A NaN or infinity raises the ValueError json
    would raise.
    """
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    return np.array(list(map(float.__repr__, values.tolist())), dtype=object), inverse
