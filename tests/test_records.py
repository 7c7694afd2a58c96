"""The contract of tsvar's 23 records: built as before, immutable, equal and shown as before, no dataclasses."""

import collections
import dataclasses
import importlib
import json
import inspect
import pkgutil

import numpy as np
import pytest

import tsvar
from tsvar.calculus import DerivativeKind, DerivativeValue, GridFunction
from tsvar.expressions import BinOp, Call, Guard, Lagrangian, Neg, Num, Var
from tsvar.problemfile import LoadedProblem, ScanConfig, serialize_report
from tsvar.timescale import DenseInterval, DiscretePoints, Geometric, PointClass, Side, TimeScale, Uniform
from tsvar.variational import Admissibility, SolveResult, SpikeWitness, VariationalProblem
from tsvar.weierstrass import AnalysisReport, ConvexityCounterexample, ConvexityReport, ExcessTable, Verdict

SCALE = TimeScale([Uniform(0.0, 1.0, 0.25)])
X = GridFunction(SCALE, [0.0, 1.0, 2.0, 3.0, 4.0])
AST = BinOp("^", Var("r"), Num(2.0))
PROBLEM = VariationalProblem(SCALE, 0.0, 1.0, Lagrangian(AST, "r^2"), 0.0, 0.0)
CX = ConvexityCounterexample(0.0, 0.0, -1.0, 1.0, 0.5, 1.0, 0.0)
NO_VIOLATIONS = ExcessTable([], [], [], [], [], [])

# each record's constructor arguments by name, in order
ARGUMENTS = {
    DerivativeValue: {"value": 1.0, "kind": DerivativeKind.EXACT_SCATTERED},
    GridFunction: {"scale": SCALE, "values": [0.0, 1.0, 2.0, 3.0, 4.0], "break_points": (0.5,)},
    Num: {"value": 1.0},
    Var: {"name": "x"},
    Neg: {"arg": Var("x")},
    Call: {"fn": "sin", "arg": Var("x"), "origin": Var("t")},
    BinOp: {"op": "+", "lhs": Num(1.0), "rhs": Var("x"), "origin": Num(2.0)},
    Guard: {"rule": "nonzero", "message": "m", "test": Var("x"), "arg": Num(1.0), "origin": Var("x")},
    Lagrangian: {"ast": AST, "source": "r^2"},
    ScanConfig: {"q_min": -1.0, "q_max": 1.0, "q_count": 5, "tol": 0.0},
    LoadedProblem: {"problem": PROBLEM, "trajectory": X, "scan": ScanConfig(), "path": "p.json"},
    DiscretePoints: {"points": [0.0, 1.0]},
    Uniform: {"start": 0.0, "end": 1.0, "step": 0.25},
    Geometric: {"minimum": 1.0, "maximum": 8.0, "ratio": 2.0},
    DenseInterval: {"lo": 0.0, "hi": 1.0, "resolution": 10},
    PointClass: {"right": Side.DENSE, "left": Side.SCATTERED},
    VariationalProblem: {
        "scale": SCALE, "t0": 0.0, "t1": 1.0, "lagrangian": PROBLEM.lagrangian, "alpha": 0.0, "beta": 1.0
    },
    Admissibility: {"ok": False, "reasons": ("left boundary",)},
    SolveResult: {
        "trajectory": X, "iterations": 2, "residual_max": 0.0, "functional": 1.0,
        "second_order": "strict-minimum", "converged": True, "history": ((1.0, 1.0, 2.0),),
    },
    SpikeWitness: {"t_at": 0.5, "d": 0.25, "functional_value": -1.0, "slope_ratio": 2.0},
    ConvexityCounterexample: {"t": 0.0, "x": 0.0, "r1": -1.0, "r2": 1.0, "gamma": 0.5, "lhs": 1.0, "rhs": 0.0},
    ConvexityReport: {"ok": False, "counterexample": CX, "checks": 3},
    AnalysisReport: {
        "el_max_residual": 0.0, "convexity_ok": True, "convexity_counterexample": None,
        "weierstrass_violations": NO_VIOLATIONS, "verdict": Verdict.CONSISTENT_WITH_STRONG_MIN,
    },
}
RECORDS = list(ARGUMENTS)
BY_IDENTITY = {GridFunction, DiscretePoints, SolveResult, LoadedProblem}
UNHASHABLE = {AnalysisReport}  # its ExcessTable is unhashable, as arrays are
NAMES = [cls.__name__ for cls in RECORDS]


def build(cls, by_keyword=False):
    arguments = ARGUMENTS[cls]
    return cls(**arguments) if by_keyword else cls(*arguments.values())


def same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a is b or a == b


def test_the_table_covers_every_record():
    assert len(RECORDS) == 23


def test_no_class_of_tsvar_is_a_dataclass():
    # importing tsvar generates no dataclass code
    names = [m.name for m in pkgutil.iter_modules(tsvar.__path__) if m.name != "__main__"]  # which runs the CLI
    modules = [importlib.import_module(f"tsvar.{name}") for name in names]
    classes = [
        value for module in modules for value in vars(module).values()
        if inspect.isclass(value) and value.__module__ == module.__name__
    ]
    assert set(RECORDS) <= set(classes)
    assert [cls.__name__ for cls in classes if dataclasses.is_dataclass(cls)] == []


@pytest.mark.parametrize("cls", RECORDS, ids=NAMES)
def test_positional_and_keyword_construction_agree(cls):
    a, b = build(cls), build(cls, by_keyword=True)
    for name in ARGUMENTS[cls]:
        assert same(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("cls", RECORDS, ids=NAMES)
def test_a_field_can_be_neither_set_nor_deleted(cls):
    record = build(cls)
    for name in ARGUMENTS[cls]:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before


@pytest.mark.parametrize("cls", sorted(set(RECORDS) - BY_IDENTITY, key=RECORDS.index), ids=lambda cls: cls.__name__)
def test_value_records_compare_by_value(cls):
    a, b = build(cls), build(cls, by_keyword=True)
    assert a == b and not a != b
    if cls not in UNHASHABLE:
        assert hash(a) == hash(b) and len({a, b}) == 1


@pytest.mark.parametrize("cls", sorted(BY_IDENTITY, key=RECORDS.index), ids=lambda cls: cls.__name__)
def test_identity_records_compare_by_identity(cls):
    a, b = build(cls), build(cls)
    assert a == a and a != b and not a == b
    assert len({a, b}) == 2


NAMED_TUPLES = [cls for cls in RECORDS if issubclass(cls, tuple)]
VALUE_TUPLES = [cls for cls in NAMED_TUPLES if cls not in BY_IDENTITY]


@pytest.mark.parametrize("cls", VALUE_TUPLES, ids=lambda cls: cls.__name__)
def test_a_value_record_equals_no_bare_tuple(cls):
    # a NamedTuple is a tuple, but == holds only with a record of its class, as the dataclasses had it
    record = build(cls)
    bare = tuple(record)
    assert not record == bare and not bare == record
    assert record != bare and bare != record
    # a named tuple of another class with the same fields: its own == is tuple's, but the record's is not
    other = collections.namedtuple(cls.__name__, cls._fields)(*record)
    assert not record == other and record != other
    assert record == cls(*bare) and not record != cls(*bare)
    if cls not in UNHASHABLE:
        assert len({record: 1, bare: 2}) == 2
        assert {record: 1}.get(bare) is None and {bare: 1}.get(record) is None
        assert {other: 1}.get(record) is None


def test_the_examples_of_tuples_that_records_equalled():
    assert PointClass(Side.DENSE, Side.DENSE) != ("dense", "dense")
    assert Admissibility(True) != (True, ()) and not Admissibility(True) == (True, ())
    assert ConvexityReport(True, None, 0) != (True, None, 0)
    assert len({PointClass(Side.DENSE, Side.DENSE): 1, ("dense", "dense"): 2}) == 2


@pytest.mark.parametrize("cls", NAMED_TUPLES, ids=lambda cls: cls.__name__)
def test_a_named_tuple_record_gives_its_fields_as_a_dict(cls):
    fields = build(cls)._asdict()
    assert list(fields) == list(ARGUMENTS[cls])
    assert all(same(fields[name], value) for name, value in ARGUMENTS[cls].items())


def test_defaults():
    assert DenseInterval(0.0, 1.0).resolution == 1000
    assert Admissibility(True).reasons == ()
    result = SolveResult(X, 0, 0.0, 0.0, "strict-minimum")
    assert result.converged is True and result.history == ()
    config = ScanConfig()
    assert (config.q_min, config.q_max, config.q_count, config.tol) == (None, None, 41, 1e-9)
    assert GridFunction(SCALE, np.zeros(5)).break_points == ()
    assert Call("sin", Var("x")).origin is None and BinOp("+", Var("x"), Num(1.0)).origin is None


@pytest.mark.parametrize("cls", [Call, BinOp], ids=lambda cls: cls.__name__)
def test_origin_is_outside_equality_hash_and_repr(cls):
    with_origin = build(cls)
    without = cls(**{**ARGUMENTS[cls], "origin": None})
    assert with_origin == without and hash(with_origin) == hash(without)
    assert repr(with_origin) == repr(without) and "origin" not in repr(with_origin)


def test_records_of_different_classes_are_not_equal():
    assert Num(1.0) != Var("x") and Uniform(0.0, 1.0, 0.5) != DenseInterval(0.0, 1.0, 2)
    assert Neg(Var("x")) != Call("neg", Var("x"))


REPRS = {
    DerivativeValue: "DerivativeValue(value=1.0, kind=<DerivativeKind.EXACT_SCATTERED: 'exact-scattered'>)",
    GridFunction: (
        "GridFunction(scale=TimeScale(timescale, 5 points on [0, 1]), "
        "values=array([0., 1., 2., 3., 4.]), break_points=(0.5,))"
    ),
    Num: "Num(value=1.0)",
    Var: "Var(name='x')",
    Neg: "Neg(arg=Var(name='x'))",
    Call: "Call(fn='sin', arg=Var(name='x'))",
    BinOp: "BinOp(op='+', lhs=Num(value=1.0), rhs=Var(name='x'))",
    Guard: "Guard(rule='nonzero', message='m', test=Var(name='x'), arg=Num(value=1.0), origin=Var(name='x'))",
    Lagrangian: "Lagrangian('r^2')",
    ScanConfig: "ScanConfig(q_min=-1.0, q_max=1.0, q_count=5, tol=0.0)",
    DiscretePoints: "DiscretePoints(points=array([0., 1.]))",
    Uniform: "Uniform(start=0.0, end=1.0, step=0.25)",
    Geometric: "Geometric(minimum=1.0, maximum=8.0, ratio=2.0)",
    DenseInterval: "DenseInterval(lo=0.0, hi=1.0, resolution=10)",
    PointClass: "PointClass(right=<Side.DENSE: 'dense'>, left=<Side.SCATTERED: 'scattered'>)",
    VariationalProblem: (
        "VariationalProblem(scale=TimeScale(timescale, 5 points on [0, 1]), t0=0.0, t1=1.0, "
        "lagrangian=Lagrangian('r^2'), alpha=0.0, beta=1.0)"
    ),
    Admissibility: "Admissibility(ok=False, reasons=('left boundary',))",
    SpikeWitness: "SpikeWitness(t_at=0.5, d=0.25, functional_value=-1.0, slope_ratio=2.0)",
    ConvexityCounterexample: "ConvexityCounterexample(t=0.0, x=0.0, r1=-1.0, r2=1.0, gamma=0.5, lhs=1.0, rhs=0.0)",
    ConvexityReport: (
        "ConvexityReport(ok=False, counterexample=ConvexityCounterexample(t=0.0, x=0.0, r1=-1.0, r2=1.0, "
        "gamma=0.5, lhs=1.0, rhs=0.0), checks=3)"
    ),
    AnalysisReport: (
        "AnalysisReport(el_max_residual=0.0, convexity_ok=True, convexity_counterexample=None, "
        "weierstrass_violations=ExcessTable(0 samples), "
        "verdict=<Verdict.CONSISTENT_WITH_STRONG_MIN: 'consistent-with-strong-min'>)"
    ),
}


@pytest.mark.parametrize("cls", list(REPRS), ids=lambda cls: cls.__name__)
def test_reprs_are_unchanged(cls):
    assert repr(build(cls)) == REPRS[cls]


def test_records_that_hold_records_show_them():
    # SolveResult and LoadedProblem show what they hold, as the records above
    assert repr(build(SolveResult)).startswith(f"SolveResult(trajectory={X!r}, iterations=2,")
    assert repr(build(LoadedProblem)).endswith(f"scan={ScanConfig()!r}, path='p.json')")


@pytest.mark.parametrize("record", [Admissibility(False, ("left boundary",)), ConvexityReport(False, None, 3)], ids=repr)
def test_a_record_that_is_false_renders_its_items(record):
    # a NamedTuple is a tuple: the renderer writes its items, as json.dumps does, though it is false
    text = serialize_report({"record": record})
    assert json.loads(text) == json.loads(json.dumps({"record": record}))
    assert len(json.loads(text)["record"]) == len(record)
