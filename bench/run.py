#!/usr/bin/env python3
"""tsvar benchmark: reference-checked CLI ops on seeded problem files.

    python3 bench/run.py --workload analyze-harmonic --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from the repository root; tsvar is imported from ./src, never from an
installed copy. Load is a closed loop with one client: one process, one
thread, the next op starts when the previous one has returned and its report
has been checked. An op is one in-process `tsvar.cli.main([cmd, FILE,
"--report", OUT])` call with stdout and stderr captured. Exit 0/3/4 from
analyze and 0 from solve/eval count as completed; any other exit code, an
exception, or a report that disagrees with the numpy reference in
workloads.py counts as failed. A reference mismatch also makes the run
incorrect and the exit code 1.

A run makes whole passes over the workload's generated pool until another
pass would overrun --seconds. With --trace 0 it prints the end-to-end
metrics; with --trace 1 it runs each op untraced and then traced, back to
back, and prints the per-layer metrics (see tracing.py).

Every untraced op is preceded by a garbage collection and one sample of the
fixed reference workload in calibrate.py, both outside the op's timing.
Reported timings are wall times scaled by the run's calibrate.speed_scale,
so they read in reference units and do not follow the shared machine's
speed drift; the unscaled end-to-end figures go to stderr.

--smoke runs every workload once at tiny sizes, traced and untraced, and
exits 1 on any reference mismatch or count that does not repeat.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Optional

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Problem  # noqa: E402

SETUP_REPEATS = 5
HD_GRID = 100_000  # integration points of hd_quantile's Beta weights
EXPR_REPEATS = 3
COMPLETED_EXITS = {"analyze": {0, 3, 4}, "solve": {0}, "eval": {0}}
# per-layer span metrics in ms per op; every span name of tracing.PATCHES
SPAN_METRICS = {
    "cli": "cli.self_ms",
    "problemfile.load": "problemfile.load_ms",
    "timescale.build": "timescale.build_ms",
    "variational.solve": "variational.solve_ms",
    "weierstrass.classify": "weierstrass.classify_self_ms",
    "variational.el_residual": "variational.el_residual_ms",
    "weierstrass.q_grid": "weierstrass.q_grid_ms",
    "weierstrass.convexity": "weierstrass.convexity_ms",
    "weierstrass.scan": "weierstrass.scan_ms",
    "variational.functional": "variational.functional_ms",
    "calculus.norm_strong": "calculus.norm_strong_ms",
    "calculus.norm_weak": "calculus.norm_weak_ms",
    "problemfile.report": "problemfile.report_ms",
}


class SetupError(Exception):
    """The benchmark cannot run here (for example, no tsvar sources)."""


def fresh_import():
    """Import tsvar.cli from ./src, dropping any copy imported before."""
    if not (SRC / "tsvar" / "__init__.py").is_file():
        raise SetupError(f"no tsvar sources under {SRC}")
    for name in [m for m in sys.modules if m == "tsvar" or m.startswith("tsvar.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("tsvar.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"tsvar imported from {cli.__file__}, not from {SRC}")
    return cli


@dataclass
class Outcome:
    problem: int  # index into the pool
    seconds: float
    rc: Optional[int]
    completed: bool
    mismatch: Optional[str] = None
    error: Optional[str] = None
    counts: Optional[dict] = None  # traced ops only


def run_op(cli, index: int, p: Problem, report: str, check, tracer: Optional[Tracer] = None) -> Outcome:
    if os.path.exists(report):
        os.remove(report)
    out = io.StringIO()
    argv = [p.command, p.path, "--report", report]
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        start = perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer.op_span():
                    rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # an op that raises is a failed op, not a crash
            error = f"{type(e).__name__}: {e}"
        seconds = perf_counter() - start
    completed = error is None and rc in COMPLETED_EXITS[p.command]
    outcome = Outcome(index, seconds, rc, completed)
    if completed:
        with open(report, encoding="utf-8") as fh:
            outcome.mismatch = check(p, rc, json.load(fh))
        outcome.completed = outcome.mismatch is None
    else:
        lines = [ln for ln in out.getvalue().splitlines() if ln.strip()]
        outcome.error = error or f"exit {rc}: {' | '.join(lines[-2:])}"
    return outcome


def time_expressions(lagr, rows: np.ndarray) -> tuple[float, float]:
    """Median ns per point of Lagrangian.eval and .partials on the op's samples."""
    pts = [tuple(r) for r in rows.tolist()]
    result = []
    for fn in (lagr.eval, lagr.partials):
        per_point = []
        for _ in range(EXPR_REPEATS):
            t0 = perf_counter_ns()
            for t, x, r in pts:
                fn(t, x, r)
            per_point.append((perf_counter_ns() - t0) / len(pts))
        result.append(statistics.median(per_point))
    return result[0], result[1]


def traced_counts(tracer: Tracer, op: int, spans_from: int) -> dict:
    counts: dict = {}
    for s in tracer.spans[spans_from:]:
        if s.op == op and s.counts:
            for k, v in s.counts.items():
                counts[k] = counts.get(k, 0) + v
    loaded = tracer.loaded
    if loaded is not None:
        prob = loaded.problem
        counts["kappa"] = len(prob.scale.kappa_points(prob.t0, prob.t1))
    counts["excess"] = counts.get("slopes", 0) * counts.get("q", 0)
    return counts


class Runner:
    def __init__(self, workload: str, seed: int, tiny: bool = False):
        self.make, self.check = WORKLOADS[workload]
        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.dir = WORK / f"{workload}-{seed}"
        self.report = str(self.dir / "report.json")
        self.cli = None
        self.pool: list[Problem] = []
        self.expr_ns: list[tuple[float, float]] = []
        self.calib: list[float] = []  # calibrate.sample() before each untraced op
        self.setup_calib: list[float] = []  # and before each warm-up op

    def setup(self) -> list[float]:
        """Import, generate and warm up SETUP_REPEATS times; seconds per repeat.

        The warm-up is one pass over the tiny pool, so every code path the
        workload takes has paid its first-call costs before timing starts.
        Each warm-up op is preceded by a calibration sample, kept in
        setup_calib and left out of the repeat's time.
        """
        times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            calib_s = 0.0
            start = perf_counter()
            self.cli = fresh_import()
            self.dir.mkdir(parents=True, exist_ok=True)
            self.pool = self.make(np.random.default_rng(self.seed), tiny=self.tiny)
            np.random.default_rng(self.seed + 1).shuffle(self.pool)
            # relative paths keep the reports' provenance, and so their size,
            # independent of where the checkout lives
            for p in self.pool:
                p.write(os.path.relpath(self.dir))
            for i, warm in enumerate(self.make(np.random.default_rng(self.seed), tiny=True)):
                warm.name = f"warm-up-{i}"
                warm.write(os.path.relpath(self.dir))
                self.setup_calib.append(calibrate.sample())
                calib_s += self.setup_calib[-1]
                outcome = run_op(self.cli, -1, warm, self.report, self.check)
                if outcome.mismatch:
                    raise SetupError(f"warm-up op: {outcome.mismatch}")
            times.append(perf_counter() - start - calib_s)
        return times

    def run_pass(self, tracer: Optional[Tracer] = None) -> tuple[list[Outcome], list[Outcome]]:
        """One untraced op per problem; with a tracer, each followed by a traced op."""
        plain: list[Outcome] = []
        traced: list[Outcome] = []
        for i, p in enumerate(self.pool):
            gc.collect()
            self.calib.append(calibrate.sample())
            plain.append(run_op(self.cli, i, p, self.report, self.check))
            if tracer is None:
                continue
            gc.collect()
            first = len(tracer.spans)
            with tracer.patched():
                o = run_op(self.cli, i, p, self.report, self.check, tracer)
            o.counts = traced_counts(tracer, tracer.op, first)
            traced.append(o)
            if tracer.loaded is not None:
                self.expr_ns.append(time_expressions(tracer.loaded.problem.lagrangian, p.samples))
        return plain, traced

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def consistency_errors(pool: list[Problem], passes: list[list[Outcome]]) -> list[str]:
    """Outcomes and work counts of one problem must repeat exactly across passes."""
    errors = []
    for i, p in enumerate(pool):
        seen = {(o.rc, o.completed) for run in passes for o in run if o.problem == i}
        if len(seen) > 1:
            errors.append(f"{p.name}: outcome differs between passes: {sorted(seen, key=str)}")
        counts = {
            json.dumps(o.counts, sort_keys=True)
            for run in passes
            for o in run
            if o.problem == i and o.counts is not None
        }
        if len(counts) > 1:
            errors.append(f"{p.name}: work counts differ between passes: {sorted(counts)}")
    return errors


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all order statistics.

    A run's latencies come in one cluster per problem, so a plain percentile
    jumps between clusters as the run's pass count or one op's noise moves a
    rank; this estimate moves smoothly.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    u = (np.arange(HD_GRID) + 0.5) / HD_GRID
    log_pdf = (a - 1) * np.log(u) + (b - 1) * np.log1p(-u)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    cdf /= cdf[-1]
    weights = np.diff(cdf[np.round(np.arange(n + 1) * HD_GRID / n).astype(int)])
    return float(weights @ x)


def end_to_end(
    passes: list[list[Outcome]], setup: list[float], scale: float, setup_scale: float, peak_rss_mib: float
) -> dict:
    """Timings are wall times times `scale`, set-up times times `setup_scale` (1 for unscaled)."""
    ops = [o for run in passes for o in run]
    latency = [o.seconds * scale for o in ops]
    return {
        "op_p50_ms": (hd_quantile(latency, 0.5) * 1e3, "ms"),
        "op_p90_ms": (hd_quantile(latency, 0.9) * 1e3, "ms"),
        "throughput_ops_s": (len(ops) / sum(latency), "1/s"),
        "completed_share": (sum(o.completed for o in ops) / len(ops), "share"),
        "setup_s": (statistics.median(setup) * setup_scale, "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


def per_layer(
    runner: Runner, tracer: Tracer, plain: list[list[Outcome]], traced: list[list[Outcome]], scale: float
) -> dict:
    """Timings are wall times times `scale`; counts and shares are not scaled."""
    n_ops = sum(len(run) for run in traced)
    own = tracer.self_times()
    span_ms = dict.fromkeys(SPAN_METRICS, 0.0)
    for s, sec in zip(tracer.spans, own):
        span_ms[s.name] = span_ms.get(s.name, 0.0) + sec * 1e3 * scale
    metrics = {SPAN_METRICS[name]: (span_ms[name] / n_ops, "ms") for name in SPAN_METRICS}

    first = traced[0]  # counts repeat exactly between passes (checked)
    def mean_count(key: str) -> float:
        return sum(o.counts.get(key, 0) for o in first) / len(first)

    solves = sum(o.counts.get("solves", 0) for o in first)
    excess_total = sum(o.counts.get("excess", 0) for run in traced for o in run)
    metrics.update(
        {
            "timescale.points": (mean_count("points"), "count"),
            "calculus.kappa_samples": (mean_count("kappa"), "count"),
            "weierstrass.convexity_checks": (mean_count("checks"), "count"),
            "weierstrass.q_grid_size": (mean_count("q"), "count"),
            "weierstrass.excess_evals": (mean_count("excess"), "count"),
            "weierstrass.violations": (mean_count("violations"), "count"),
            "weierstrass.scan_ns_per_excess": (
                span_ms["weierstrass.scan"] * 1e6 / excess_total if excess_total else 0.0,
                "ns",
            ),
            "problemfile.report_bytes": (mean_count("bytes"), "bytes"),
            "variational.newton_iterations": (mean_count("iterations"), "count"),
            "variational.solve_converged_share": (
                sum(o.counts.get("converged", 0) for o in first) / solves if solves else 0.0,
                "share",
            ),
            "expressions.eval_ns": (statistics.fmean(e for e, _ in runner.expr_ns) * scale if runner.expr_ns else 0.0, "ns"),
            "expressions.partials_ns": (
                statistics.fmean(p for _, p in runner.expr_ns) * scale if runner.expr_ns else 0.0,
                "ns",
            ),
        }
    )
    plain_ms = sum(statistics.median(o.seconds for run in plain for o in run if o.problem == i) for i in range(len(runner.pool)))
    traced_ms = sum(statistics.median(o.seconds for run in traced for o in run if o.problem == i) for i in range(len(runner.pool)))
    metrics["trace.overhead_share"] = (traced_ms / plain_ms - 1.0, "share")
    return metrics


def failure_lines(pool: list[Problem], passes: list[list[Outcome]]) -> list[str]:
    lines = {}
    for run in passes:
        for o in run:
            if not o.completed and o.problem not in lines:
                lines[o.problem] = f"failed: {pool[o.problem].name}: {o.mismatch or o.error}"
    return [lines[i] for i in sorted(lines)]


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[dict, list[list[Outcome]], list[str]]:
    setup = runner.setup()
    tracer = Tracer() if trace else None
    plain: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        untraced_ops, traced_ops = runner.run_pass(tracer)
        plain.append(untraced_ops)
        if tracer is not None:
            traced.append(traced_ops)
        elapsed = perf_counter() - start
        if elapsed + (perf_counter() - round_start) > seconds:
            break
    # read before the metrics are computed, so the peak is that of set-up and ops
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = consistency_errors(runner.pool, plain + traced)
    if tracer is not None and tracer.missing:
        errors.append("public functions not found for tracing: " + ", ".join(tracer.missing))
    scale = calibrate.speed_scale(runner.calib)
    if trace:
        metrics = per_layer(runner, tracer, plain, traced, scale)
    else:
        setup_scale = calibrate.speed_scale(runner.setup_calib)
        metrics = end_to_end(plain, setup, scale, setup_scale, peak_rss_mib)
        wall = {k: round(v, 6) for k, (v, _) in end_to_end(plain, setup, 1.0, 1.0, peak_rss_mib).items()}
        print(f"unscaled wall-time metrics: {json.dumps(wall)}", file=sys.stderr)
    passes = plain + traced
    print(
        f"{runner.workload} seed={runner.seed}: {len(runner.pool)} problems, {len(plain)} untraced"
        f" + {len(traced)} traced passes, {sum(len(r) for r in passes)} ops,"
        f" setup repeats {', '.join(f'{s:.3f}' for s in setup)} s (wall),"
        f" speed scale {scale:.4f} (set-up {calibrate.speed_scale(runner.setup_calib):.4f})",
        file=sys.stderr,
    )
    return metrics, passes, errors


def result_line(metrics: dict, passes: list[list[Outcome]], errors: list[str]) -> dict:
    ops = [o for run in passes for o in run]
    return {
        "correct": not errors and not any(o.mismatch for o in ops),
        "attempted": len(ops),
        "failed": sum(not o.completed for o in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke() -> int:
    ok = True
    for workload in WORKLOADS:
        runner = Runner(workload, seed=7, tiny=True)
        try:
            start = perf_counter()
            _, passes, errors = measure(runner, seconds=0.0, trace=True)
        finally:
            runner.cleanup()
        fails = failure_lines(runner.pool, passes)
        mismatches = [o for run in passes for o in run if o.mismatch]
        for line in errors + fails:
            print(f"  {line}")
        status = "FAIL" if errors or mismatches else "ok"
        ok &= status == "ok"
        print(f"{status}  {workload}: {len(runner.pool)} problems checked in {perf_counter() - start:.2f} s")
    return 0 if ok else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, checks only")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        runner = Runner(args.workload, args.seed)
        try:
            metrics, passes, errors = measure(runner, args.seconds, bool(args.trace))
        finally:
            runner.cleanup()
    except SetupError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    for line in errors + failure_lines(runner.pool, passes):
        print(line, file=sys.stderr)
    result = result_line(metrics, passes, errors)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
