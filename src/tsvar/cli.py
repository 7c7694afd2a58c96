"""Command-line surface.

Commands:
    inspect  FILE   per-point table of sigma, rho, mu, and classification
    eval     FILE   functional value and strong/weak norms of the trajectory
    solve    FILE   discrete Euler-Lagrange solve (Newton)
    analyze  FILE   Euler-Lagrange + convexity + excess-function classification
    repro    ID     built-in reproductions (example-3.2 | discrete-z | q-scale | all)

Exit codes: 0 success / consistent-with-strong-min, 1 usage or input error,
2 solver non-convergence, 3 necessary-condition-violated, 4 hypothesis-not-met.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from .calculus import GridFunction, delta_derivative, delta_integral, norm_strong, norm_weak
from .errors import NonConvergence, TsvarError
from .expressions import parse_lagrangian
from .problemfile import (
    LoadedProblem,
    ScanConfig,
    build_run_report,
    load_problem,
    make_provenance,
    write_report,
)
from .timescale import POINT_TOLERANCE, TimeScale, make_geometric, make_harmonic, make_uniform
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
    DEFAULT_Q_COUNT,
    MAX_Q_COUNT,
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


def _fmt(v: float) -> str:
    return f"{v:.10g}"


# -- inspect -------------------------------------------------------------------


def _point_rows(ts: TimeScale, t0: float, t1: float) -> list[dict]:
    i0, i1 = ts.window_indices(t0, t1)
    rows = []
    for i in range(i0, i1 + 1):
        t = float(ts.points[i])
        cls = ts.classify(t)
        rows.append(
            {
                "t": t,
                "sigma": ts.sigma(t),
                "rho": ts.rho(t),
                "mu": ts.mu(t),
                "right": cls.right.value,
                "left": cls.left.value,
            }
        )
    return rows


def cmd_inspect(loaded: LoadedProblem, report_path: Optional[str]) -> int:
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
        if row["right"] == "dense" and row["mu"] == 0.0 and (
            i + 1 < len(rows) and rows[i + 1]["left"] == "dense"
        ):
            j = i
            while j < len(rows) and rows[j]["right"] == "dense" and rows[j]["mu"] == 0.0:
                j += 1
            # absorb a dense window end into the summary row
            if j < len(rows) and rows[j]["left"] == "dense" and rows[j]["mu"] == 0.0:
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

    if report_path:
        doc = {
            "points": rows,
            "provenance": make_provenance(loaded.path, __version__),
        }
        write_report(report_path, doc)
    return EXIT_OK


# -- eval / solve / analyze ------------------------------------------------------


def _require_trajectory(loaded: LoadedProblem):
    if loaded.trajectory is None:
        raise TsvarError("this command needs a 'trajectory' entry in the problem file")
    return loaded.trajectory


def cmd_eval(loaded: LoadedProblem, report_path: Optional[str]) -> int:
    problem = loaded.problem
    x = _require_trajectory(loaded)
    value = functional(problem, x)
    ns = norm_strong(x, problem.t0, problem.t1)
    nw = norm_weak(x, problem.t0, problem.t1)
    admissible = is_admissible(problem, x)
    print(f"functional value: {value!r}")
    print(f"norm_strong:      {ns!r}")
    print(f"norm_weak:        {nw!r}")
    print("admissible:       " + ("yes" if admissible else "no; " + "; ".join(admissible.reasons)))
    if report_path:
        doc = build_run_report(
            make_provenance(loaded.path, __version__),
            functional_value=value,
            norm_strong=ns,
            norm_weak=nw,
            extra={"admissibility": {"ok": admissible.ok, "reasons": list(admissible.reasons)}},
        )
        write_report(report_path, doc)
    return EXIT_OK


def cmd_solve(loaded: LoadedProblem, report_path: Optional[str], max_iter: int) -> int:
    problem = loaded.problem
    try:
        result = solve_el_discrete(problem, x_init=loaded.trajectory, max_iter=max_iter)
    except NonConvergence as e:
        print(f"solver did not converge: {e}", file=sys.stderr)
        print(
            f"iterations: {e.iterations}, best residual max-norm: {e.residual_max!r}",
            file=sys.stderr,
        )
        return EXIT_NONCONVERGENCE
    x = result.trajectory
    value = functional(problem, x)
    ns = norm_strong(x, problem.t0, problem.t1)
    nw = norm_weak(x, problem.t0, problem.t1)
    print(f"converged in {result.iterations} Newton iteration(s)")
    print(f"el residual max-norm: {result.residual_max!r}")
    print(f"functional value:     {value!r}")
    print(f"second order:         {result.second_order}")
    if report_path:
        i0, i1 = problem.window()
        doc = build_run_report(
            make_provenance(loaded.path, __version__),
            functional_value=value,
            norm_strong=ns,
            norm_weak=nw,
            extra={
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
            },
        )
        write_report(report_path, doc)
    return EXIT_OK


def _scan_config(loaded: LoadedProblem, args) -> ScanConfig:
    """The problem file's scan settings with the command-line flags laid over them."""
    if (args.q_min is None) != (args.q_max is None):
        raise TsvarError("--q-min and --q-max must be given together")
    if args.q_min is not None and args.q_min >= args.q_max:
        raise TsvarError("--q-min must be below --q-max")
    if args.q_count is not None and args.q_count < 1:
        raise TsvarError("--q-count must be at least 1")
    if args.q_count is not None and args.q_count > MAX_Q_COUNT:
        raise TsvarError(f"--q-count must be at most {MAX_Q_COUNT:,}")
    flags = {"q_min": args.q_min, "q_max": args.q_max, "q_count": args.q_count, "tol": args.tol}
    return dataclasses.replace(loaded.scan, **{k: v for k, v in flags.items() if v is not None})


def cmd_analyze(loaded: LoadedProblem, args) -> int:
    problem = loaded.problem
    if loaded.trajectory is not None:
        x = loaded.trajectory
        solved = None
    else:
        solved = solve_el_discrete(problem, max_iter=args.max_iter)
        x = solved.trajectory
        print(f"no trajectory in file; solved ({solved.iterations} iterations, {solved.second_order})")
    scan = _scan_config(loaded, args)
    report = classify_candidate(
        problem, x, q_grid=scan.q_grid(), scan_tol=scan.tol, q_count=scan.q_count
    )
    value = functional(problem, x)
    ns = norm_strong(x, problem.t0, problem.t1)
    nw = norm_weak(x, problem.t0, problem.t1)
    print(f"functional value:     {value!r}")
    print(f"norms: strong={ns!r} weak={nw!r}")
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
    print(f"excess-scan violations: {len(report.weierstrass_violations)}")
    for v in report.weierstrass_violations[:5]:
        print(
            f"  E(t={_fmt(v.t)}, x_sigma={_fmt(v.x_sigma)}, r={_fmt(v.r)}, "
            f"q={_fmt(v.q)}) = {_fmt(v.E)} [{v.slope_kind.value}]"
        )
    if len(report.weierstrass_violations) > 5:
        print(f"  ... and {len(report.weierstrass_violations) - 5} more")
    print(f"verdict: {report.verdict.value}")
    if args.report:
        doc = build_run_report(
            make_provenance(loaded.path, __version__),
            functional_value=value,
            norm_strong=ns,
            norm_weak=nw,
            analysis=report,
        )
        write_report(args.report, doc)
    return _VERDICT_EXIT[report.verdict]


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
    all_minus_12 = all(abs(v.E + 12.0) <= 1e-9 for v in violations)
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
    p_an.add_argument("--max-iter", type=int, default=100, help="Newton iteration cap")

    p_repro = sub.add_parser("repro", help="run a built-in reproduction")
    p_repro.add_argument(
        "example_id",
        help="one of: " + ", ".join(_REPROS) + ", all",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "repro":
            return cmd_repro(args.example_id)
        loaded = load_problem(args.file, resolution=args.resolution)
        if args.command == "inspect":
            return cmd_inspect(loaded, args.report)
        if args.command == "eval":
            return cmd_eval(loaded, args.report)
        if args.command == "solve":
            return cmd_solve(loaded, args.report, args.max_iter)
        if args.command == "analyze":
            return cmd_analyze(loaded, args)
    except TsvarError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
