#!/usr/bin/env python3
"""The cost of one evaluation plan build and of one evaluator call, per benchmark pool problem.

    python3 tools/eval_cost.py TREE [--workload W] [--seed N] [--repeats K]

tsvar is imported from TREE/src; the pool generator comes from this
checkout's bench/workloads.py, which is only read. Each problem file of the
pool (every workload's, or W's) is written to a temporary directory and
loaded with tsvar's own loader. Then, on the rows the op itself evaluates:

- solve-discrete: second_partials on the solve window at the starting
  trajectory, the (t, x^sigma, forward slope) rows of the solver's first
  evaluation;
- analyze-harmonic: partials on the EL residual's rows, eval on the
  functional's rows, and excess on the first block of the excess scan
  (its rows against the q grid);
- eval-dense: eval on the functional's (dense) rows;
- every workload: Lagrangian.eval and excess on floats, the first row.

Each figure is the best of K timings in µs, a timing being the mean of
enough back-to-back calls to take about 2 ms. "build_us" times building
each plan the op builds (the Lagrangian's derived ASTs already made), and
"call_us" each call. The output is one JSON line: per problem its
Lagrangian, its row count and both maps, and per workload the median of
each key over its problems.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# the plans each command builds, named by the ASTs they run (see plan_asts)
PLANS = {
    "solve": ("second",),
    "analyze": ("first", "f", "excess"),
    "eval": ("f",),
}


def import_tsvar(tree: Path):
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    import tsvar

    if not Path(tsvar.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"tsvar imported from {tsvar.__file__}, not from {src}")
    return tsvar


def best_us(fn, repeats: int) -> float:
    """The best of repeats timings of fn, each the mean of enough calls to take about 2 ms, in µs."""
    once = timeit.timeit(fn, number=1)
    number = max(1, min(10_000, int(2e-3 / max(once, 1e-9))))
    return round(1e6 * min(timeit.repeat(fn, number=number, repeat=repeats)) / number, 3)


def plan_asts(lagr, name: str) -> tuple:
    """The ASTs of the Lagrangian's plan of that name: f; f, f_x, f_r; the second partials; f and f_r."""
    first = lagr._first
    return {"f": (lagr.ast,), "first": first, "second": lagr._second, "excess": (lagr.ast, first[2])}[name]


def calls(loaded, command: str) -> tuple[int, dict]:
    """The row count and the evaluator calls of one op, by name, as zero-argument callables."""
    from tsvar import variational
    from tsvar.weierstrass import default_q_grid, excess

    problem = loaded.problem
    lagr = problem.lagrangian
    if command == "solve":
        i0, i1 = problem.window()
        pts = problem.scale.points[i0 : i1 + 1]
        mu = np.diff(pts)
        base = loaded.trajectory if loaded.trajectory is not None else problem.linear_trajectory()
        xw = base.values[i0 : i1 + 1].astype(float)
        xw[0], xw[-1] = problem.alpha, problem.beta
        t, xs, r = pts[:-1], xw[1:], np.diff(xw) / mu
        named = {"second_partials": lambda: lagr.second_partials(t, xs, r)}
    else:
        t, xs, r, kind, _ = variational._rows(problem, loaded.trajectory)
        named = {"eval": lambda: lagr.eval(t, xs, r)}
        if command == "analyze":
            node = (kind != variational._LEFT) | (t == problem.t1)
            tn, xn, rn = t[node], xs[node], r[node]
            q = loaded.scan.q_grid()
            q = default_q_grid(r, loaded.scan.q_count) if q is None else q
            block = slice(0, max(1, (1 << 15) // q.size))
            tb, xb, rb = t[block, None], xs[block, None], r[block, None]
            named["partials"] = lambda: lagr.partials(tn, xn, rn)
            named["excess"] = lambda: excess(lagr, tb, xb, rb, q)
    t0, x0, r0 = float(t[0]), float(xs[0]), float(r[0])
    named["scalar_eval"] = lambda: lagr.eval(t0, x0, r0)
    named["scalar_excess"] = lambda: excess(lagr, t0, x0, r0, r0 + 1.0)
    return t.size, named


def measure(tsvar, problem, directory: str, repeats: int) -> dict:
    from tsvar.expressions import _Plan
    from tsvar.problemfile import load_problem

    problem.write(directory)
    loaded = load_problem(problem.path)
    lagr = tsvar.parse_lagrangian(loaded.problem.lagrangian.source)
    build = {}
    for name in PLANS[problem.command]:
        asts = plan_asts(lagr, name)
        build[name] = best_us(lambda: _Plan(asts), repeats)
    rows, named = calls(loaded, problem.command)
    call = {}
    for name, fn in named.items():
        try:
            fn()
        except tsvar.TsvarError:  # a row where this call fails: nothing to time
            call[name] = None
            continue
        call[name] = best_us(fn, repeats)
    return {
        "name": problem.name,
        "lagrangian": loaded.problem.lagrangian.source,
        "rows": int(rows),
        "build_us": build,
        "call_us": call,
    }


def medians(results: list[dict]) -> dict:
    out = {}
    for part in ("build_us", "call_us"):
        keys = dict.fromkeys(k for r in results for k in r[part])
        out[part] = {
            k: round(statistics.median(v for r in results if (v := r[part].get(k)) is not None), 3) for k in keys
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="a checkout whose src/ holds tsvar")
    parser.add_argument("--workload", help="one workload of bench/workloads.py (default: every one)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=7, help="timings per figure, the best kept (default 7)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if not (args.tree / "src" / "tsvar" / "__init__.py").is_file():
        parser.error(f"no tsvar sources under {args.tree / 'src'}")
    tsvar = import_tsvar(args.tree)
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(sorted(WORKLOADS))}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    line = {"tree": str(args.tree), "seed": args.seed, "repeats": args.repeats, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            make, _ = WORKLOADS[name]
            pool = make(np.random.default_rng(args.seed))
            results = [measure(tsvar, p, tmp, args.repeats) for p in pool]
            line["workloads"][name] = {"median": medians(results), "problems": results}
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
