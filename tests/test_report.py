"""The canonical report writer against json.dumps, its reference.

serialize_report renders a top-level ExcessTable value itself, a sample at
a time from texts shared by runs of equal row fields, and every other value
with json's encoder; its text must equal
json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\\n" for every
document, and a non-finite float must raise a TsvarError naming its field.
"""

import copy
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsvar import (
    DenseInterval,
    ExcessTable,
    GridFunction,
    SlopeKind,
    TimeScale,
    TsvarError,
    VariationalProblem,
    classify_candidate,
    parse_lagrangian,
)
from tsvar import problemfile
from tsvar.problemfile import serialize_report, write_report


def reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308
]
EDGE_STRINGS = [
    "", "%", "%s", "%%d", '"', "\\", "\n\t\b\f\r", "\x00\x1f", "é", " ", "\U0001F600", "a.b[0]"
]

floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
strings = st.text(max_size=6) | st.sampled_from(EDGE_STRINGS)
scalars = st.none() | st.booleans() | st.integers() | floats | strings
# columns that mix equal values of different types, or zeros of both signs
MIXED_POOLS = [[1, 1.0, True], [0.0, -0.0], [-0.0, 0.0, 1.5], [0, 0.0, False, -0.0]]


@st.composite
def tables(draw, children):
    """Lists of flat objects; mostly one key set with repeating column values."""
    keys = draw(st.lists(strings, min_size=1, max_size=4, unique=True))
    pools = {}
    for key in keys:
        pool = draw(st.sampled_from(MIXED_POOLS) | st.lists(scalars, min_size=1, max_size=3))
        pools[key] = st.sampled_from(pool)
    rows = draw(st.lists(st.fixed_dictionaries(pools), min_size=1, max_size=8))
    change = draw(st.sampled_from(["none", "none", "drop", "add", "nest"]))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    if change == "drop":
        del row[keys[0]]
    elif change == "add":
        row[draw(strings)] = draw(scalars)
    elif change == "nest":
        row[keys[0]] = draw(children)
    return rows


documents = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(strings, children, max_size=4)
    | tables(children),
    max_leaves=30,
)


def slots(value, path=None):
    """(container, key, field path) of every value below value, in document order."""
    if isinstance(value, dict):
        for key in sorted(value):
            sub = key if path is None else f"{path}.{key}"
            yield value, key, sub
            yield from slots(value[key], sub)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            sub = f"{path or ''}[{i}]"
            yield value, i, sub
            yield from slots(item, sub)


PROPERTY = settings(max_examples=200)


@PROPERTY
@given(doc=documents)
def test_random_documents_render_as_json_does(doc):
    text = serialize_report(doc)
    assert text == reference(doc)
    assert serialize_report(json.loads(text)) == text


@PROPERTY
@given(
    doc=st.dictionaries(strings, documents, min_size=1, max_size=2),
    where=st.integers(min_value=0),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_a_non_finite_float_names_its_field(doc, where, bad):
    doc = copy.deepcopy(doc)
    places = list(slots(doc))
    container, key, field = places[where % len(places)]
    container[key] = bad
    with pytest.raises(TsvarError) as exc:
        serialize_report(doc)
    assert str(exc.value) == f"report field {field}: {bad!r} is not a finite number"


def violations(n):
    return [
        {"E": -1.0 - i, "q": 2.0, "r": 0.0, "slope_kind": "two-sided", "t": i / 4, "x_sigma": 0.0}
        for i in range(n)
    ]


def test_violation_rows_take_the_column_path():
    doc = {"weierstrass_violations": violations(5), "verdict": "necessary-condition-violated"}
    assert serialize_report(doc) == reference(doc)


@pytest.mark.parametrize(
    "rows",
    [
        [{"a": 1.0}, {"b": 1.0}],  # equal sizes, other keys
        [{"a": 1.0}, {"a": 1.0, "b": 2.0}],
        [{"a": 1.0}, {"a": [1.0, 2.0]}],  # a container in a column
        [{"a": 1.0}, 2.0],
        [{}, {}],
    ],
)
def test_other_lists_take_the_recursive_path(rows):
    assert serialize_report({"rows": rows}) == reference({"rows": rows})


@pytest.mark.parametrize("zeros", [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [1.5, -0.0, 1.5, 0.0]])
def test_zeros_of_both_signs_keep_their_sign(zeros):
    rows = [{"v": z, "w": z} for z in zeros]
    text = serialize_report({"rows": rows})
    assert text == reference({"rows": rows})
    assert text.count("-0.0") == 2 * sum(math.copysign(1.0, z) < 0 for z in zeros)


def test_equal_values_of_other_types_keep_their_type():
    rows = [{"v": v} for v in (1, 1.0, True, 1.0, 1, True)]
    text = serialize_report({"rows": rows})
    assert text == reference({"rows": rows})
    assert [json.loads(text)["rows"][i]["v"] for i in range(3)] == [1, 1.0, True]
    assert "true" in text and '"v": 1,' not in text


def test_percent_signs_in_keys_and_values():
    rows = [{"%s": "%d", "%": 1.0, "%%": None}] * 3
    assert serialize_report({"rows": rows}) == reference({"rows": rows})


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"functional_value": math.inf}, "functional_value"),
        ({"a": {"b": [1.0, [2.0, math.nan]]}}, "a.b[1][1]"),
        ({"weierstrass_violations": violations(3) + [dict(violations(1)[0], E=-math.inf)]},
         "weierstrass_violations[3].E"),
    ],
)
def test_non_finite_float_error_names_the_path(doc, field):
    with pytest.raises(TsvarError, match=f"^report field {re.escape(field)}: "):
        serialize_report(doc)


def test_failed_render_writes_no_file(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(TsvarError):
        write_report(str(path), {"functional_value": math.nan})
    assert not path.exists()


# -- excess tables: written from their columns ----------------------------------

EXCESS_FLOATS = ("t", "x_sigma", "r", "q", "E")


@st.composite
def excess_tables(draw, min_size=0):
    """ExcessTables whose columns repeat values, zeros of both signs among them."""
    n = draw(st.integers(min_size, 8))
    columns = []
    for _ in EXCESS_FLOATS:
        pool = draw(st.sampled_from(MIXED_POOLS[1:3]) | st.lists(floats, min_size=1, max_size=3))
        columns.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    kinds = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return ExcessTable(*columns, kinds)


def as_rows(value):
    """value with each ExcessTable replaced by the list of its samples as dicts."""
    if isinstance(value, ExcessTable):
        columns = [getattr(value, key).tolist() for key in EXCESS_FLOATS]
        kinds = [list(SlopeKind)[code].value for code in value.kind.tolist()]
        return [dict(zip(EXCESS_FLOATS, row), slope_kind=kind) for *row, kind in zip(*columns, kinds)]
    if isinstance(value, dict):
        return {key: as_rows(item) for key, item in value.items()}
    if isinstance(value, list):
        return [as_rows(item) for item in value]
    return value


# a table is written only as the value of a top-level key
documents_with_tables = st.dictionaries(strings, excess_tables() | documents, max_size=4)


@PROPERTY
@given(doc=documents_with_tables)
def test_excess_tables_render_as_their_rows_do(doc):
    text = serialize_report(doc)
    assert text == reference(as_rows(doc))
    assert serialize_report(json.loads(text)) == text


@pytest.mark.parametrize(
    "nest",
    [lambda table: table, lambda table: {"a": [table]}, lambda table: {"a": {"b": table}}],
    ids=["document", "in-a-list", "in-a-dict"],
)
def test_a_nested_excess_table_raises_type_error(nest):
    table = ExcessTable([0.0], [0.0], [0.0], [1.0], [-1.0], [0])
    with pytest.raises(TypeError, match="ExcessTable is not JSON serializable"):
        serialize_report(nest(table))


def test_an_empty_excess_table_renders_as_an_empty_list():
    empty = ExcessTable([], [], [], [], [], [])
    assert serialize_report({"weierstrass_violations": empty}) == '{\n  "weierstrass_violations": []\n}\n'


@settings(max_examples=100)
@given(
    table=excess_tables(min_size=1),
    cells=st.lists(st.tuples(st.integers(0, 7), st.sampled_from(EXCESS_FLOATS)), min_size=1, max_size=3),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_a_non_finite_table_cell_names_the_first_in_row_then_key_order(table, cells, bad):
    columns = {name: getattr(table, name).copy() for name in EXCESS_FLOATS}
    cells = [(row % len(table), key) for row, key in cells]
    for row, key in cells:
        columns[key][row] = bad
    row, key = min(cells)  # the keys are in sorted order as strings: E, q, r, t, x_sigma
    table = ExcessTable(*columns.values(), table.kind)
    with pytest.raises(TsvarError) as exc:
        serialize_report({"verdict": "x", "weierstrass_violations": table})
    assert str(exc.value) == (
        f"report field weierstrass_violations[{row}].{key}: {bad!r} is not a finite number"
    )


# -- scan-shaped tables: runs of samples that share their row ------------------

ROW_FIELDS = ("t", "x_sigma", "r", "kind")


def scan_table(runs) -> ExcessTable:
    """The table of runs, each a (t, x_sigma, r, kind) row and its (q, E) samples."""
    columns = {name: [] for name in (*ROW_FIELDS, "q", "E")}
    for row, samples in runs:
        for q, e in samples:
            for name, value in zip((*ROW_FIELDS, "q", "E"), (*row, q, e)):
                columns[name].append(value)
    return ExcessTable(**columns)


def assert_renders_as_json(table: ExcessTable):
    doc = {"verdict": "x", "weierstrass_violations": table}
    text = serialize_report(doc)
    assert text == reference(as_rows(doc))
    assert serialize_report(json.loads(text)) == text


Q_GRID = [-2.0, -0.5, -0.0, 0.0, 0.75, 3.0]


@st.composite
def scan_runs(draw):
    """Runs of 1 to 6 samples, each run one row with some of its q in grid order."""
    rows = st.tuples(
        st.sampled_from([0.0, -0.0, 0.25, 1.5]),
        st.sampled_from([0.0, -0.0, 1e-300, 2.0]),
        st.sampled_from([0.0, -0.0, -1.25]) | floats,
        st.integers(0, 2),
    )
    runs = []
    for _ in range(draw(st.integers(1, 6))):
        qs = sorted(draw(st.sets(st.integers(0, len(Q_GRID) - 1), min_size=1)))
        es = draw(st.lists(st.sampled_from([-1.0, -2.5e-9]) | floats, min_size=len(qs), max_size=len(qs)))
        runs.append((draw(rows), [(Q_GRID[k], e) for k, e in zip(qs, es)]))
    return runs


@PROPERTY
@given(runs=scan_runs())
def test_scan_shaped_tables_render_as_their_rows_do(runs):
    assert_renders_as_json(scan_table(runs))


@settings(max_examples=50)
@given(runs=scan_runs(), seed=st.integers(0, 2**32 - 1))
def test_a_table_in_no_scan_order_renders_as_its_rows_do(runs, seed):
    table = scan_table(runs)
    order = np.random.default_rng(seed).permutation(len(table))
    columns = {name: getattr(table, name)[order] for name in (*ROW_FIELDS, "q", "E")}
    assert_renders_as_json(ExcessTable(**columns))


def test_a_left_row_then_the_two_sided_row_at_its_t():
    left, two_sided = list(SlopeKind).index(SlopeKind.LEFT), list(SlopeKind).index(SlopeKind.TWO_SIDED)
    runs = [
        ((0.5, 1.0, -1.0, left), [(-2.0, -3.0), (3.0, -0.5)]),
        ((0.5, 1.0, 2.0, two_sided), [(-2.0, -1.5), (0.75, -0.25), (3.0, -0.5)]),
        ((0.75, 1.25, 2.0, two_sided), [(-2.0, -1.5)]),
    ]
    assert_renders_as_json(scan_table(runs))


@pytest.mark.parametrize("field", range(4), ids=ROW_FIELDS)
def test_runs_split_by_the_sign_of_zero_or_by_kind_alone(field):
    first = [0.0, 0.0, 0.0, 0]
    second = list(first)
    second[field] = 1 if field == 3 else -0.0
    table = scan_table([(tuple(first), [(1.0, -1.0), (2.0, -2.0)]), (tuple(second), [(1.0, -1.0), (2.0, -2.0)])])
    assert_renders_as_json(table)
    rows = json.loads(serialize_report({"v": table}))["v"]
    key = "slope_kind" if field == 3 else ROW_FIELDS[field]
    assert [row[key] for row in rows] == [as_rows(table)[i][key] for i in range(4)]
    if field < 3:
        assert [math.copysign(1.0, row[key]) for row in rows] == [1.0, 1.0, -1.0, -1.0]


def test_runs_of_one_sample():
    runs = [((i / 8, -i / 3, 2.0**-i, i % 3), [(Q_GRID[i % 6], -1.0 - i)]) for i in range(9)]
    assert_renders_as_json(scan_table(runs))


def test_a_classify_candidate_table_with_a_registered_break():
    ts = TimeScale([DenseInterval(0.0, 1.0, 40)])
    x = GridFunction(ts, np.abs(ts.points - 0.5), break_points=(0.5,))
    problem = VariationalProblem(ts, 0.0, 1.0, parse_lagrangian("r^2 - r^4"), x(0.0), x(1.0))
    table = classify_candidate(problem, x, q_grid=np.linspace(-3.0, 3.0, 13)).weierstrass_violations
    kinds = set(table.kind.tolist())
    assert kinds == {0, 1, 2} and len(table) > 100
    assert_renders_as_json(table)


@pytest.mark.parametrize("key", ["t", "r"])
def test_a_non_finite_run_field_names_its_first_sample(key):
    runs = [((0.0, 0.0, 1.0, 0), [(1.0, -1.0)]), ((0.5, 0.0, 1.0, 0), [(1.0, -1.0), (2.0, -2.0), (3.0, -3.0)])]
    table = scan_table(runs)
    columns = {name: getattr(table, name).copy() for name in (*ROW_FIELDS, "q", "E")}
    columns[key][1:] = math.nan
    with pytest.raises(TsvarError, match=rf"^report field weierstrass_violations\[1\]\.{key}: nan "):
        serialize_report({"weierstrass_violations": ExcessTable(**columns)})


def test_a_sample_formats_only_its_e_and_q_beyond_its_run(monkeypatch):
    """The floats a table's text is made from: each distinct E and q once, and three a run."""
    formatted = []
    float_texts = problemfile._float_texts

    def counting(column):
        texts, inverse = float_texts(column)
        formatted.append(texts.size)
        return texts, inverse

    rng = np.random.default_rng(5)
    grid = np.linspace(-4.0, 4.0, 41)
    # 80 rows of 41 violations each; E repeats across rows, as for an f without t and x
    runs = [
        ((k / 80, float(rng.normal()), float(rng.normal()), k % 3), [(q, -1.0 - q * q - k % 2) for q in grid])
        for k in range(80)
    ]
    table = scan_table(runs)
    monkeypatch.setattr(problemfile, "_float_texts", counting)
    assert_renders_as_json(table)
    distinct = np.unique(table.E).size + np.unique(table.q).size + 3 * len(runs)
    assert sum(formatted) <= distinct < len(table) / 5  # formatting every cell would take 5 n


# -- the written file: the rendered pieces, a chunk at a time ------------------


def chunked_table() -> ExcessTable:
    """About 4,000 samples in runs of 1 to 41: all three kinds, zeros of both signs, repeated E."""
    rng = np.random.default_rng(11)
    runs = []
    for k in range(200):
        qs = Q_GRID if k % 4 == 0 else np.linspace(-4.0, 4.0, 1 + k % 41).tolist()
        es = rng.choice([-1.0, -2.5e-9], len(qs)) if k % 3 == 0 else -rng.random(len(qs)) - 1e-3
        row = (k / 200, -0.0 if k % 5 == 0 else float(rng.normal()), 0.0 if k % 7 == 0 else float(rng.normal()), k % 3)
        runs.append((row, list(zip(qs, es.tolist()))))
    return scan_table(runs)


PROVENANCE = {"file": "p.json", "timestamp": "2026-01-01T00:00:00+00:00", "tool_version": "0"}
MEASURED = {"functional_value": 0.25, "norm_strong": 1.0, "norm_weak": -0.0}
NO_ANALYSIS = dict.fromkeys(
    ["el_max_residual", "convexity_ok", "convexity_counterexample", "weierstrass_violations", "verdict"]
)
WRITTEN_DOCUMENTS = {
    "analyze": lambda: {
        **MEASURED, "el_max_residual": 0.0, "convexity_ok": False, "convexity_counterexample": None,
        "weierstrass_violations": chunked_table(), "verdict": "necessary-condition-violated",
        "provenance": PROVENANCE,
    },
    "eval": lambda: {**MEASURED, **NO_ANALYSIS, "admissibility": {"ok": True}, "provenance": PROVENANCE},
    "solve": lambda: {
        **MEASURED, **NO_ANALYSIS, "provenance": PROVENANCE,
        "trajectory": {"points": [0.0, 1.0, 2.0], "values": [0.0, -0.0, 1.5]},
        "iterations": 2, "residual_max": 1e-13, "second_order": {"ok": True},
        "history": [{"merit": 1.0, "residual_max": 0.5, "step": 1.0}] * 2,
    },
}


@pytest.mark.parametrize("chunk", [1, 5, 64, problemfile.WRITE_CHUNK_PIECES])
@pytest.mark.parametrize("command", WRITTEN_DOCUMENTS)
def test_the_written_file_is_the_serialized_report(tmp_path, monkeypatch, command, chunk):
    doc = WRITTEN_DOCUMENTS[command]()
    monkeypatch.setattr(problemfile, "WRITE_CHUNK_PIECES", chunk)
    path = tmp_path / "report.json"
    write_report(str(path), doc)
    assert path.read_bytes() == serialize_report(doc).encode()
    assert path.read_text() == reference(as_rows(doc))


def test_a_chunk_boundary_falls_inside_a_run():
    table = chunked_table()
    pieces = problemfile._render_report({"weierstrass_violations": table})
    first = 2  # the key and the table's opening bracket come before the samples
    chunk = problemfile.WRITE_CHUNK_PIECES
    assert len(pieces) > 3 * chunk
    samples = [(b - first) // 3 for b in range(chunk, len(pieces), chunk)]
    rows = list(zip(*(getattr(table, name).tolist() for name in ROW_FIELDS)))
    assert any(rows[i - 1] == rows[i] for i in samples)


@pytest.mark.parametrize("key", EXCESS_FLOATS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_cell_fails_the_write_and_leaves_no_file(tmp_path, key, bad):
    table = chunked_table()
    columns = {name: getattr(table, name).copy() for name in (*ROW_FIELDS, "q", "E")}
    row = len(table) - 5  # in the last chunk
    columns[key][row] = bad
    path = tmp_path / "report.json"
    with pytest.raises(TsvarError) as exc:
        write_report(str(path), {"verdict": "x", "weierstrass_violations": ExcessTable(**columns)})
    assert str(exc.value) == f"report field weierstrass_violations[{row}].{key}: {bad!r} is not a finite number"
    assert not path.exists()
