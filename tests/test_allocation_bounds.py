"""Peak memory of the dense path, in units of one float per node (8 n bytes).

A dense scale keeps its points, mu and two masks: about 2.25 units. L[x]
and the two norms keep the slopes and the five row columns (about 5.1) and
evaluate f over the rows. Each peak once stood a unit or more higher (6.4
and 9.6), from sigma/rho index arrays, gathers and np.insert copies; these
bounds keep such node-sized temporaries from coming back.

A report is written from its rendered pieces a chunk at a time, so its
writer holds neither the whole text nor its encoded copy: once it held
both, a peak of twice the report.
"""

import os
import tracemalloc

import numpy as np

from tsvar import DenseInterval, ExcessTable, GridFunction, TimeScale, VariationalProblem, functional, norm_strong, norm_weak, parse_lagrangian
from tsvar.problemfile import write_report

RESOLUTION = 200_000
UNIT = 8 * (RESOLUTION + 1)


def peak_units(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / UNIT
    finally:
        tracemalloc.stop()


def test_a_dense_scale_builds_its_arrays_once():
    segment = DenseInterval(0.0, 1.0, RESOLUTION)
    assert peak_units(lambda: TimeScale([segment])) <= 2.3


def test_the_functional_and_the_norms_build_each_row_column_once():
    ts = TimeScale([DenseInterval(0.0, 1.0, RESOLUTION)])
    x = GridFunction(ts, np.sin(3.0 * ts.points))
    problem = VariationalProblem(ts, 0.0, 1.0, parse_lagrangian("r^2 + x^2"), x(0.0), x(1.0))
    problem.lagrangian.eval(0.5, 0.5, 0.5)  # its evaluation plan, built once

    def measure():
        functional(problem, x)
        norm_strong(x, 0.0, 1.0)
        norm_weak(x, 0.0, 1.0)

    assert peak_units(measure) <= 8.3


def test_a_report_is_written_without_its_whole_text(tmp_path):
    # a scan-shaped table of about 1 MB: 130 rows of 41 violations, each E distinct
    rng = np.random.default_rng(1)
    rows, grid = 130, np.linspace(-4.0, 4.0, 41)
    repeat = lambda column: np.repeat(column, grid.size)
    table = ExcessTable(
        t=repeat(np.arange(rows) / rows),
        x_sigma=repeat(rng.normal(size=rows)),
        r=repeat(rng.normal(size=rows)),
        q=np.tile(grid, rows),
        E=-1.0 - rng.random(rows * grid.size),
        kind=repeat(np.arange(rows) % 3),
    )
    doc = {"verdict": "necessary-condition-violated", "weierstrass_violations": table}
    path = str(tmp_path / "report.json")
    write_report(path, doc)  # what a first write builds once is not counted
    tracemalloc.start()
    try:
        write_report(path, doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = os.path.getsize(path)
    assert size > 10**6
    assert peak < size
