"""Command-line surface.

Commands:
    inspect  FILE   per-point table of sigma, rho, mu, and classification
    eval     FILE   functional value and strong/weak norms of the trajectory
    solve    FILE   discrete Euler-Lagrange solve (Newton)
    analyze  FILE   Euler-Lagrange + convexity + excess-function classification
    repro    ID     built-in reproductions (example-3.2 | discrete-z | q-scale | all)

Exit codes: 0 success / consistent-with-strong-min, 1 usage or input error,
2 solver non-convergence, 3 necessary-condition-violated, 4 hypothesis-not-met.

Each cmd_* prints its summary and returns its exit code with the fields of
its report, or None for no report; main adds the provenance and writes the
one report.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from .calculus import GridFunction, delta_derivative, delta_integral, norm_strong, norm_weak
from .errors import NonConvergence, ProblemFileError, TsvarError
from .expressions import parse_lagrangian
from .problemfile import (
    LoadedProblem,
    ScanConfig,
    analysis_to_document,
    build_run_report,
    load_problem,
    write_report,
)
from .timescale import POINT_TOLERANCE, Side, TimeScale, make_geometric, make_harmonic, make_uniform
from .variational import (
    VariationalProblem,
    find_spike_below,
    functional,
    is_admissible,
    random_bounded_slope_trajectory,
    solve_el_discrete,
    spike_perturbation,
)
from .weierstrass import (
    _SLOPE_KINDS,
    DEFAULT_Q_COUNT,
    AnalysisReport,
    Verdict,
    check_convexity_condition,
    classify_candidate,
    weierstrass_scan,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NONCONVERGENCE = 2
EXIT_VIOLATED = 3
EXIT_HYPOTHESIS_NOT_MET = 4

_VERDICT_EXIT = {
    Verdict.CONSISTENT_WITH_STRONG_MIN: EXIT_OK,
    Verdict.NECESSARY_CONDITION_VIOLATED: EXIT_VIOLATED,
    Verdict.HYPOTHESIS_NOT_MET: EXIT_HYPOTHESIS_NOT_MET,
}

INSPECT_ROW_CAP = 200

# the analysis fields of an eval or solve report, which analyze fills in
_NO_ANALYSIS = dict.fromkeys(field.name for field in dataclasses.fields(AnalysisReport))


def _fmt(v: float) -> str:
    return f"{v:.10g}"


# -- inspect -------------------------------------------------------------------


def _point_rows(ts: TimeScale, t0: float, t1: float) -> list[dict]:
    """sigma, rho, mu and the right/left classification of each node of [t0, t1]."""
    i0, i1 = ts.window_indices(t0, t1)
    index = np.arange(i0, i1 + 1)
    pts = ts.points
    t = pts[index]
    sigma = pts[ts.sigma_indices()[index]]
    # rho steps back one node, except at a left-dense node and at the first node
    rho = pts[np.where(ts.left_dense_mask[index] | (index == 0), index, index - 1)]
    columns = {
        "t": t.tolist(),
        "sigma": sigma.tolist(),
        "rho": rho.tolist(),
        "mu": ts.mu_values()[index].tolist(),
        "right": np.where(sigma > t, Side.SCATTERED.value, Side.DENSE.value).tolist(),
        "left": np.where(rho < t, Side.SCATTERED.value, Side.DENSE.value).tolist(),
    }
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def cmd_inspect(loaded: LoadedProblem) -> tuple[int, dict]:
    ts = loaded.problem.scale
    t0, t1 = loaded.problem.t0, loaded.problem.t1
    rows = _point_rows(ts, t0, t1)
    truncation = ts.metadata.get("truncation_point")

    display: list[str] = []
    header = f"{'t':>14} {'sigma(t)':>14} {'rho(t)':>14} {'mu(t)':>14}  classification"
    display.append(header)
    display.append("-" * len(header))
    i = 0
    while i < len(rows):
        row = rows[i]
        if row["right"] == "dense" and i + 1 < len(rows) and rows[i + 1]["left"] == "dense":
            j = i
            while j < len(rows) and rows[j]["right"] == "dense":
                j += 1
            display.append(
                f"{_fmt(row['t']):>14} {'':>14} {'':>14} {'0':>14}  "
                f"dense, mu=0 through t={_fmt(rows[j - 1]['t'])} ({j - i} nodes)"
            )
            i = j
            continue
        mu_text = _fmt(row["mu"])
        if truncation is not None and abs(row["t"] - truncation) <= POINT_TOLERANCE:
            mu_text = "-"  # graininess at the truncation point is a cut artifact
        display.append(
            f"{_fmt(row['t']):>14} {_fmt(row['sigma']):>14} {_fmt(row['rho']):>14} "
            f"{mu_text:>14}  right-{row['right']}, left-{row['left']}"
        )
        i += 1

    shown = display[: INSPECT_ROW_CAP + 2]
    for line in shown:
        print(line)
    if len(display) > len(shown):
        print(f"... ({len(display) - len(shown)} more rows elided; use --report for the full table)")
    return EXIT_OK, {"points": rows}


# -- eval / solve / analyze ------------------------------------------------------


def _require_trajectory(loaded: LoadedProblem):
    if loaded.trajectory is None:
        raise TsvarError("this command needs a 'trajectory' entry in the problem file")
    return loaded.trajectory


def _measured(problem: VariationalProblem, x) -> dict:
    """L[x] and the strong and weak norms of x on [t0, t1]."""
    return {
        "functional_value": functional(problem, x),
        "norm_strong": norm_strong(x, problem.t0, problem.t1),
        "norm_weak": norm_weak(x, problem.t0, problem.t1),
    }


def cmd_eval(loaded: LoadedProblem) -> tuple[int, dict]:
    problem = loaded.problem
    x = _require_trajectory(loaded)
    measured = _measured(problem, x)
    admissible = is_admissible(problem, x)
    print(f"functional value: {measured['functional_value']!r}")
    print(f"norm_strong:      {measured['norm_strong']!r}")
    print(f"norm_weak:        {measured['norm_weak']!r}")
    print("admissible:       " + ("yes" if admissible else "no; " + "; ".join(admissible.reasons)))
    admissibility = {"ok": admissible.ok, "reasons": list(admissible.reasons)}
    return EXIT_OK, {**measured, **_NO_ANALYSIS, "admissibility": admissibility}


def cmd_solve(loaded: LoadedProblem, max_iter: int) -> tuple[int, Optional[dict]]:
    problem = loaded.problem
    try:
        result = solve_el_discrete(problem, x_init=loaded.trajectory, max_iter=max_iter)
    except NonConvergence as e:
        print(f"solver did not converge: {e}", file=sys.stderr)
        print(
            f"iterations: {e.iterations}, best residual max-norm: {e.residual_max!r}",
            file=sys.stderr,
        )
        return EXIT_NONCONVERGENCE, None
    x = result.trajectory
    measured = _measured(problem, x)
    print(f"converged in {result.iterations} Newton iteration(s)")
    print(f"el residual max-norm: {result.residual_max!r}")
    print(f"functional value:     {measured['functional_value']!r}")
    print(f"second order:         {result.second_order}")
    i0, i1 = problem.window()
    return EXIT_OK, {
        **measured,
        **_NO_ANALYSIS,
        "trajectory": {
            "points": [float(t) for t in problem.scale.points[i0 : i1 + 1]],
            "values": [float(v) for v in x.values[i0 : i1 + 1]],
        },
        "iterations": result.iterations,
        "residual_max": result.residual_max,
        "second_order": result.second_order,
        "history": [
            {"residual_max": res, "step": lam, "merit": merit}
            for res, lam, merit in result.history
        ],
    }


def _scan_config(loaded: LoadedProblem, args) -> ScanConfig:
    """The problem file's scan settings with the command-line flags laid over them."""
    given = {key: getattr(args, key) for key in ("q_min", "q_max", "q_count", "tol")}
    flags = {key: value for key, value in given.items() if value is not None}
    return loaded.scan.overlay(flags, lambda key: "--" + key.replace("_", "-"))


def cmd_analyze(loaded: LoadedProblem, args) -> tuple[int, dict]:
    problem = loaded.problem
    if loaded.trajectory is not None:
        x = loaded.trajectory
        solved = None
    else:
        solved = solve_el_discrete(problem)
        x = solved.trajectory
        print(f"no trajectory in file; solved ({solved.iterations} iterations, {solved.second_order})")
    scan = _scan_config(loaded, args)
    report = classify_candidate(
        problem, x, q_grid=scan.q_grid(), scan_tol=scan.tol, q_count=scan.q_count
    )
    measured = _measured(problem, x)
    print(f"functional value:     {measured['functional_value']!r}")
    print(f"norms: strong={measured['norm_strong']!r} weak={measured['norm_weak']!r}")
    print(f"el residual max-norm: {report.el_max_residual!r}")
    if report.convexity_ok:
        print("convexity hypothesis: no violation found (sampled)")
    else:
        cx = report.convexity_counterexample
        print(
            "convexity hypothesis: FAILS, e.g. "
            f"t={_fmt(cx.t)}, x={_fmt(cx.x)}, r1={_fmt(cx.r1)}, r2={_fmt(cx.r2)}, "
            f"gamma={_fmt(cx.gamma)}: f={_fmt(cx.lhs)} > {_fmt(cx.rhs)}"
        )
    table = report.weierstrass_violations
    print(f"excess-scan violations: {len(table)}")
    head = (c[:5].tolist() for c in (table.t, table.x_sigma, table.r, table.q, table.E, table.kind))
    for t, xs, r, q, e, kind in zip(*head):
        print(
            f"  E(t={_fmt(t)}, x_sigma={_fmt(xs)}, r={_fmt(r)}, "
            f"q={_fmt(q)}) = {_fmt(e)} [{_SLOPE_KINDS[kind].value}]"
        )
    if len(table) > 5:
        print(f"  ... and {len(table) - 5} more")
    print(f"verdict: {report.verdict.value}")
    return _VERDICT_EXIT[report.verdict], {**measured, **analysis_to_document(report)}


# -- repro -----------------------------------------------------------------------


def _print_checks(title: str, checks: list[tuple[str, bool, str]]) -> bool:
    print(f"== {title}")
    ok_all = True
    for label, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"{status}  {label}{suffix}")
        ok_all &= ok
    return ok_all


def repro_example_32() -> bool:
    """Harmonic-scale counterexample: a weak local minimum that is not strong."""
    ts = make_harmonic(50)
    problem = VariationalProblem(ts, 0.0, 1.0, parse_lagrangian("r^2 - r^4"), 0.0, 0.0)
    zero = problem.zero_trajectory()
    checks: list[tuple[str, bool, str]] = []

    value0 = functional(problem, zero)
    checks.append(("zero trajectory has functional 0", abs(value0) <= 1e-14, f"L={value0!r}"))

    spike = spike_perturbation(problem, zero, 1.0 / 3.0, 1.0)
    value_spike = functional(problem, spike)
    mu0, mu1 = ts.mu(1.0 / 3.0), ts.mu(0.5)
    term1 = mu0 * ((1.0 / mu0) ** 2 - (1.0 / mu0) ** 4)
    term2 = mu1 * ((1.0 / mu1) ** 2 - (1.0 / mu1) ** 4)
    checks.append(
        (
            "spike at t=1/3 with d=1 has functional -216",
            abs(value_spike + 216.0) <= 1e-9,
            f"L={value_spike!r}",
        )
    )
    checks.append(
        (
            "spike value matches the two-term closed form (-210) + (-6)",
            abs(term1 + 210.0) <= 1e-9
            and abs(term2 + 6.0) <= 1e-9
            and abs(value_spike - (term1 + term2)) <= 1e-9,
            f"terms {term1!r} + {term2!r}",
        )
    )

    for delta in (0.5, 0.1, 0.01):
        witness = find_spike_below(problem, delta)
        ok = (
            witness is not None
            and abs(witness.d) < delta
            and witness.slope_ratio > 1.0
            and witness.functional_value < 0.0
        )
        detail = (
            f"t_at={witness.t_at!r}, d={witness.d!r}, L={witness.functional_value!r}"
            if witness
            else "no witness found"
        )
        checks.append((f"spike below delta={delta} with negative functional", ok, detail))

    rng = np.random.default_rng(1234)
    worst = min(
        functional(problem, random_bounded_slope_trajectory(problem, rng))
        for _ in range(1000)
    )
    checks.append(
        (
            "1000 random trajectories with |x^Delta| <= 1 have functional >= 0",
            worst >= -1e-12,
            f"min L={worst!r}",
        )
    )

    kappa = ts.kappa_points(0.0, 1.0)
    violations = weierstrass_scan(problem, zero, q_grid=[-2.0, 2.0])
    all_minus_12 = bool(np.all(np.abs(violations.E + 12.0) <= 1e-9))
    checks.append(
        (
            "excess scan at q=+-2 reports E=-12 at every right-scattered point",
            len(violations) == 2 * len(kappa) and all_minus_12,
            f"{len(violations)} samples over {len(kappa)} points",
        )
    )
    convexity = check_convexity_condition(problem, [0.0], [-2.0, 2.0], [0.5])
    cx = convexity.counterexample
    checks.append(
        (
            "convexity hypothesis fails (r1=-2, r2=2, gamma=1/2)",
            not convexity.ok and cx is not None and abs(cx.lhs) <= 1e-12 and abs(cx.rhs + 12.0) <= 1e-9,
            f"f(mid)={cx.lhs!r} vs {cx.rhs!r}" if cx else "no counterexample",
        )
    )
    return _print_checks("example-3.2 (harmonic-scale spike counterexample)", checks)


def repro_discrete_z() -> bool:
    """Integer-window quadratic problem: solve and scan the extremal."""
    problem = VariationalProblem(
        make_uniform(0, 4, 1), 0.0, 4.0, parse_lagrangian("r^2"), 0.0, 4.0
    )
    checks: list[tuple[str, bool, str]] = []
    result = solve_el_discrete(problem)
    x = result.trajectory
    expected = problem.scale.points
    err = float(np.max(np.abs(x.values - expected)))
    checks.append(("solver returns x(t) = t", err <= 1e-9, f"max deviation {err!r}"))
    checks.append(
        (
            "el residual max-norm <= 1e-10",
            result.residual_max <= 1e-10,
            f"residual {result.residual_max!r}",
        )
    )
    violations = weierstrass_scan(problem, x, q_grid=np.linspace(-10, 10, 41))
    checks.append(
        ("excess scan over q in [-10, 10] finds no violation", len(violations) == 0, "")
    )
    return _print_checks("discrete-z (integer window, quadratic integrand)", checks)


def repro_q_scale() -> bool:
    """Geometric scale with ratio 2: quantum-calculus derivative and integral."""
    ts = make_geometric(1.0, 16.0, 2.0)
    checks: list[tuple[str, bool, str]] = []
    x = GridFunction.from_callable(ts, lambda t: t * t)
    worst = 0.0
    formula_ok = True
    for t in [1.0, 2.0, 4.0, 8.0]:
        d = delta_derivative(x, t).value
        worst = max(worst, abs(d - 3.0 * t))
        quotient = (x.value_at(2.0 * t) - x.value_at(t)) / ((2.0 - 1.0) * t)
        formula_ok &= abs(d - quotient) <= 1e-12
    checks.append(
        ("delta derivative of t^2 equals (q+1)t = 3t at interior points", worst <= 1e-12, f"max err {worst!r}")
    )
    checks.append(("derivative matches (x(qt) - x(t)) / ((q-1)t)", formula_ok, ""))
    ones = GridFunction.from_callable(ts, lambda t: 1.0)
    total = delta_integral(ones, 1.0, 16.0)
    checks.append(
        (
            "mu-weighted functional of f=1 equals 1+2+4+8 = 15",
            abs(total - 15.0) <= 1e-12,
            f"integral {total!r}",
        )
    )
    problem = VariationalProblem(ts, 1.0, 16.0, parse_lagrangian("1"), 0.0, 0.0)
    value = functional(problem, problem.zero_trajectory())
    checks.append(
        ("variational functional agrees", abs(value - 15.0) <= 1e-12, f"L={value!r}")
    )
    return _print_checks("q-scale (geometric scale, ratio 2)", checks)


_REPROS = {
    "example-3.2": repro_example_32,
    "discrete-z": repro_discrete_z,
    "q-scale": repro_q_scale,
}


def cmd_repro(example_id: str) -> int:
    ids = list(_REPROS) if example_id == "all" else [example_id]
    unknown = [i for i in ids if i not in _REPROS]
    if unknown:
        print(
            f"unknown reproduction id {unknown[0]!r}; choose from "
            f"{', '.join(_REPROS)} or 'all'",
            file=sys.stderr,
        )
        return EXIT_ERROR
    start = time.perf_counter()
    ok = True
    for i in ids:
        scenario_start = time.perf_counter()
        ok &= _REPROS[i]()
        print(f"time: {time.perf_counter() - scenario_start:.3f} s")
    elapsed = time.perf_counter() - start
    print(f"total time: {elapsed:.2f} s")
    return EXIT_OK if ok else EXIT_ERROR


# -- argument parsing --------------------------------------------------------------


@functools.cache  # built once per process; parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsvar",
        description="Calculus of variations on time scales: inspect scales, "
        "evaluate functionals, solve discrete Euler-Lagrange equations, and "
        "run excess-function necessary-condition scans.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("file", help="problem file (JSON)")
        p.add_argument("--report", help="write a machine-readable report to this path")
        p.add_argument(
            "--resolution",
            type=int,
            help="override the quadrature resolution of dense segments",
        )

    p_inspect = sub.add_parser("inspect", help="per-point sigma/rho/mu table")
    add_common(p_inspect)

    p_eval = sub.add_parser("eval", help="functional value and norms")
    add_common(p_eval)

    p_solve = sub.add_parser("solve", help="solve the discrete Euler-Lagrange equations")
    add_common(p_solve)
    p_solve.add_argument("--max-iter", type=int, default=100, help="Newton iteration cap")

    p_an = sub.add_parser("analyze", help="full candidate classification")
    add_common(p_an)
    p_an.add_argument("--q-min", type=float, help="scan grid lower bound")
    p_an.add_argument("--q-max", type=float, help="scan grid upper bound")
    p_an.add_argument("--q-count", type=int, help=f"scan grid size (default {DEFAULT_Q_COUNT})")
    p_an.add_argument("--tol", type=float, help="violation reporting tolerance (default 1e-9)")

    p_repro = sub.add_parser("repro", help="run a built-in reproduction")
    p_repro.add_argument(
        "example_id",
        help="one of: " + ", ".join(_REPROS) + ", all",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 0 after --help or --version and 2 on a usage error
        return EXIT_OK if e.code == 0 else EXIT_ERROR
    try:
        if args.command == "repro":
            return cmd_repro(args.example_id)
        if args.resolution is not None and args.resolution < 1:
            raise ProblemFileError("--resolution", "must be at least 1")
        loaded = load_problem(args.file, resolution=args.resolution)
        if args.command == "inspect":
            code, fields = cmd_inspect(loaded)
        elif args.command == "eval":
            code, fields = cmd_eval(loaded)
        elif args.command == "solve":
            code, fields = cmd_solve(loaded, args.max_iter)
        else:
            code, fields = cmd_analyze(loaded, args)
        if args.report and fields is not None:
            write_report(args.report, build_run_report(loaded.path, __version__, fields))
        return code
    except TsvarError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
