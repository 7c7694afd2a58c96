"""The canonical report writer against json.dumps, its reference.

serialize_report renders a top-level ExcessTable value itself, column by
column, and every other value with json's encoder; its text must equal
json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\\n" for every
document, and a non-finite float must raise a TsvarError naming its field.
"""

import copy
import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from tsvar import ExcessTable, TsvarError
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
        return [dict(v._asdict(), slope_kind=v.slope_kind.value) for v in value]
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
