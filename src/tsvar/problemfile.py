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
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import compress, count
from json.encoder import encode_basestring_ascii
from operator import itemgetter, not_
from typing import Optional

import numpy as np

from .calculus import GridFunction
from .errors import ProblemFileError, TsvarError
from .expressions import evaluate, parse_lagrangian
from .timescale import (
    POINT_TOLERANCE,
    DenseInterval,
    DiscretePoints,
    Geometric,
    TimeScale,
    Uniform,
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
    q_min: Optional[float] = None
    q_max: Optional[float] = None
    q_count: int = DEFAULT_Q_COUNT
    tol: float = 1e-9

    def q_grid(self) -> Optional[np.ndarray]:
        """The fixed comparison-slope grid, or None to derive one from the trajectory."""
        if self.q_min is None or self.q_max is None:
            return None
        if self.q_min >= self.q_max:
            raise ProblemFileError("scan.q_min", "must be below scan.q_max")
        return np.linspace(self.q_min, self.q_max, self.q_count)


@dataclass(frozen=True)
class LoadedProblem:
    problem: VariationalProblem
    trajectory: Optional[Trajectory]
    scan: ScanConfig
    path: str


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
    try:
        if kind == "harmonic":
            n_max = _as_int(_need(spec, "n_max", f"{field}.n_max"), f"{field}.n_max")
            if n_max < 2:
                raise ProblemFileError(f"{field}.n_max", "must be >= 2")
            return make_harmonic(n_max)
        if kind == "uniform":
            return Uniform(
                _as_number(_need(spec, "start", f"{field}.start"), f"{field}.start"),
                _as_number(_need(spec, "end", f"{field}.end"), f"{field}.end"),
                _as_number(_need(spec, "step", f"{field}.step"), f"{field}.step"),
            )
        if kind == "geometric":
            return Geometric(
                _as_number(_need(spec, "min", f"{field}.min"), f"{field}.min"),
                _as_number(_need(spec, "max", f"{field}.max"), f"{field}.max"),
                _as_number(_need(spec, "ratio", f"{field}.ratio"), f"{field}.ratio"),
            )
        if kind == "dense":
            res = resolution
            if res is None:
                res = spec.get("resolution", 1000)
            return DenseInterval(
                _as_number(_need(spec, "lo", f"{field}.lo"), f"{field}.lo"),
                _as_number(_need(spec, "hi", f"{field}.hi"), f"{field}.hi"),
                _as_int(res, f"{field}.resolution"),
            )
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
        return GridFunction(scale, values, name=str(formula))
    if kind == "samples":
        pts = _need(spec, "points", f"{field}.points")
        vals = _need(spec, "values", f"{field}.values")
        if not isinstance(pts, list) or not isinstance(vals, list) or len(pts) != len(vals):
            raise ProblemFileError(field, "'points' and 'values' must be lists of equal length")
        given = {}
        for i, (p, v) in enumerate(zip(pts, vals)):
            given[_as_number(p, f"{field}.points[{i}]")] = _as_number(v, f"{field}.values[{i}]")
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
        return GridFunction(scale, values, name="samples")
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
    try:
        lagr = parse_lagrangian(str(_need(doc, "lagrangian", "lagrangian")))
    except TsvarError as e:
        raise ProblemFileError("lagrangian", str(e)) from None
    try:
        problem = VariationalProblem(
            scale,
            _as_number(_need(doc, "t0", "t0"), "t0"),
            _as_number(_need(doc, "t1", "t1"), "t1"),
            lagr,
            _as_number(_need(doc, "alpha", "alpha"), "alpha"),
            _as_number(_need(doc, "beta", "beta"), "beta"),
        )
    except ProblemFileError:
        raise
    except TsvarError as e:
        raise ProblemFileError("t0", str(e)) from None

    trajectory = None
    if doc.get("trajectory") is not None:
        trajectory = _trajectory_from_spec(doc["trajectory"], scale, "trajectory")

    scan = ScanConfig()
    if doc.get("scan") is not None:
        s = doc["scan"]
        if not isinstance(s, dict):
            raise ProblemFileError("scan", "must be an object")
        parsers = {"q_min": _as_number, "q_max": _as_number, "q_count": _as_int, "tol": _as_number}
        scan = ScanConfig(**{k: parse(s[k], f"scan.{k}") for k, parse in parsers.items() if k in s})
        if scan.q_count < 1:
            raise ProblemFileError("scan.q_count", "must be at least 1")
        if scan.q_count > MAX_Q_COUNT:
            raise ProblemFileError("scan.q_count", f"must be at most {MAX_Q_COUNT:,}")
    return LoadedProblem(problem=problem, trajectory=trajectory, scan=scan, path=path)


# -- run reports ----------------------------------------------------------------


def make_provenance(path: str, tool_version: str) -> dict:
    return {
        "file": path,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tool_version": tool_version,
    }


def analysis_to_document(analysis: Optional[AnalysisReport]) -> dict:
    if analysis is None:
        return {
            "el_max_residual": None,
            "convexity_ok": None,
            "convexity_counterexample": None,
            "weierstrass_violations": None,
            "verdict": None,
        }
    cx = analysis.convexity_counterexample
    return {
        "el_max_residual": analysis.el_max_residual,
        "convexity_ok": analysis.convexity_ok,
        "convexity_counterexample": None
        if cx is None
        else {
            "t": cx.t,
            "x": cx.x,
            "r1": cx.r1,
            "r2": cx.r2,
            "gamma": cx.gamma,
            "lhs": cx.lhs,
            "rhs": cx.rhs,
        },
        "weierstrass_violations": analysis.weierstrass_violations,  # written column by column
        "verdict": analysis.verdict.value,
    }


def build_run_report(
    provenance: dict,
    functional_value: Optional[float] = None,
    norm_strong: Optional[float] = None,
    norm_weak: Optional[float] = None,
    analysis: Optional[AnalysisReport] = None,
    extra: Optional[dict] = None,
) -> dict:
    doc = {
        "functional_value": functional_value,
        "norm_strong": norm_strong,
        "norm_weak": norm_weak,
        **analysis_to_document(analysis),
        "provenance": provenance,
    }
    if extra:
        doc.update(extra)
    return doc


def serialize_report(doc: dict) -> str:
    """Canonical rendering; serialize -> parse -> serialize is byte-identical.

    The text is that of json.dumps(doc, indent=2, sort_keys=True,
    allow_nan=False) + "\n" for any document with string keys, an
    ExcessTable standing for the list of its samples as objects with the
    keys t, x_sigma, r, q, E and slope_kind. An ExcessTable, and a list of
    flat objects sharing one key set, such as the Newton history, are
    rendered column by column, each distinct float once. A non-finite float
    raises TsvarError naming its field.
    """
    out: list[str] = []
    try:
        _write(doc, "\n", out)
    except _NotFinite as e:
        field = "".join(
            f"[{part}]" if isinstance(part, int) else f".{part}" if i else part
            for i, part in enumerate(reversed(e.path))
        )
        where = f"report field {field}" if e.path else "report"
        raise TsvarError(f"{where}: {e.value!r} is not a finite number") from None
    out.append("\n")
    return "".join(out)


def write_report(path: str, doc: dict) -> None:
    text = serialize_report(doc)  # before opening, so a failed render leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


class _NotFinite(Exception):
    """A NaN or infinity met by _write; the keys and indices above it join path."""

    def __init__(self, value: float):
        super().__init__(value)
        self.value = value
        self.path: list = []  # innermost first


def _write(value, pad: str, out: list[str]) -> None:
    """Append the JSON text of value, whose line starts with pad (a newline and the indentation)."""
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        rows = _table(value, inner)
        if rows is not None:
            out.append("[" + inner)
            out.append(("," + inner).join(rows))
        else:
            separator = "[" + inner
            for i, item in enumerate(value):
                out.append(separator)
                separator = "," + inner
                try:
                    _write(item, inner, out)
                except _NotFinite as e:
                    e.path.append(i)
                    raise
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
            try:
                _write(value[key], inner, out)
            except _NotFinite as e:
                e.path.append(key)
                raise
        out.append(pad + "}")
    elif isinstance(value, ExcessTable):
        _excess_table(value, pad, out)
    else:
        out.append(_scalar(value))


def _scalar(value) -> str:
    """A JSON scalar, checked in json's order, so bool and int subclasses render as json does."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        raise _NotFinite(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _table(rows, pad: str) -> Optional[list[str]]:
    """The items of a list of flat dicts sharing one key set, rendered column by column.

    None for any other list, and for a table holding a value that _write
    must report (a container, a non-finite float, a type json rejects).
    """
    first = rows[0]
    if set(map(type, rows)) != {dict} or not first or set(map(len, rows)) != {len(first)}:
        return None
    inner = pad + "  "
    try:
        keys = sorted(first)
        template = "{" + inner + ("," + inner).join(
            encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys
        ) + pad + "}"
        # a row without one of the first row's keys raises KeyError here
        columns = [_column(list(map(itemgetter(key), rows))) for key in keys]
    except (KeyError, TypeError, ValueError, _NotFinite):
        return None
    return list(map(template.__mod__, zip(*columns)))


def _column(values: list) -> list[str]:
    """JSON texts of one column; an all-float column renders each distinct value once."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return list(map(encode_basestring_ascii, values))
    # 1, 1.0 and True are one dict key, so only exact floats are deduplicated
    if kinds != {float}:
        return list(map(_scalar, values))
    distinct = list(dict.fromkeys(values))
    # json's C encoder renders a flat float list; allow_nan=False raises ValueError
    texts = json.dumps(distinct, allow_nan=False)[1:-1].split(", ")
    if len(distinct) == len(values):
        return texts
    rendered = list(map(dict(zip(distinct, texts)).__getitem__, values))
    if 0.0 in distinct:  # 0.0 and -0.0 are one dict key, so zeros are rendered one by one
        for i in compress(count(), map(not_, values)):
            rendered[i] = float.__repr__(values[i])
    return rendered


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
    floats = [(key, column) for key, column in columns if key != "slope_kind"]
    finite = np.isfinite(np.column_stack([column for _, column in floats]))
    if not finite.all():
        # the first bad cell in row order, then sorted-key order
        row, col = divmod(int(np.argmin(finite)), len(floats))
        key, column = floats[col]
        e = _NotFinite(float(column[row]))
        e.path += [key, row]
        raise e
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
    """The JSON texts of a finite float64 column, each distinct value rendered once."""
    # distinct by bit pattern, so 0.0 and -0.0 stay apart
    _, first, inverse = np.unique(column.view(np.int64), return_index=True, return_inverse=True)
    texts = json.dumps(column[first].tolist())[1:-1].split(", ")
    return np.array(texts, dtype=object)[inverse].tolist()
