#!/usr/bin/env python3
"""Self time and minor page faults per tsvar function, for each op of a benchmark pool.

    python3 tools/op_breakdown.py TREE --workload W [--seed N] [--tiny]

tsvar is imported from TREE/src; the pool generator and the reference
workload come from this checkout's bench/ modules, which are only read.
Each op runs as bench/run.py runs an untraced op: a garbage collection and
one calibrate.sample() before it, then one in-process
`tsvar.cli.main([command, FILE, "--report", REPORT])` call with stdout and
stderr captured. A warm-up pass over the tiny pool runs first, as the
benchmark's set-up does; --tiny measures that tiny pool itself.

While an op runs, a profile hook (sys.setprofile) charges the wall time and
the minor page faults (resource.getrusage's ru_minflt) since its last event
to the innermost tsvar function on the stack: its self share. Time and
faults in numpy or any other library count for the tsvar function that
called it. The hook slows every call, so compare self times between trees
rather than with the benchmark's op times; fault counts it barely moves.

For each op: a line with its wall time and minor faults, then every tsvar
function it ran (calls, self ms, faults), most self time first. Last, the
same list as a mean per op over the pool.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import os
import resource
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class SelfProfile:
    """A sys.setprofile hook that charges time and minor faults to the innermost function under src."""

    def __init__(self, src: Path):
        self.prefix = str(src.resolve()) + os.sep
        self.stack: list = []  # frames of the functions under src, innermost last
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.faults: Counter = Counter()
        self.mark = (perf_counter(), minor_faults())

    def name(self, frame) -> str:
        module = frame.f_code.co_filename[len(self.prefix) :].removesuffix(".py").replace(os.sep, ".")
        return f"{module.removeprefix('tsvar.')}.{frame.f_code.co_qualname}"

    def _charge(self) -> None:
        now, faults = perf_counter(), minor_faults()
        if self.stack:
            key = self.name(self.stack[-1])
            self.seconds[key] += now - self.mark[0]
            self.faults[key] += faults - self.mark[1]
        self.mark = (now, faults)

    def hook(self, frame, event: str, arg) -> None:
        if event == "call" and frame.f_code.co_filename.startswith(self.prefix):
            self._charge()
            self.stack.append(frame)
            self.calls[self.name(frame)] += 1
        elif event == "return" and self.stack and self.stack[-1] is frame:
            self._charge()
            self.stack.pop()

    @contextlib.contextmanager
    def running(self):
        self.mark = (perf_counter(), minor_faults())
        sys.setprofile(self.hook)
        try:
            yield
        finally:
            sys.setprofile(None)
            self._charge()
            self.stack.clear()


def import_cli(tree: Path):
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    import tsvar.cli

    if not Path(tsvar.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"tsvar imported from {tsvar.cli.__file__}, not from {src}")
    return tsvar.cli, src


def run_op(cli, p, report: str, profile: SelfProfile | None = None) -> tuple[object, float, int]:
    """The op's exit code (or exception name), wall seconds and minor faults, as bench/run.py runs it."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(report)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        hooked = profile.running() if profile else contextlib.nullcontext()
        faults, start = minor_faults(), perf_counter()
        try:
            with hooked:
                rc = cli.main([p.command, p.path, "--report", report])
        except Exception as e:  # a raising op is an outcome to report, not a crash
            rc = type(e).__name__
        return rc, perf_counter() - start, minor_faults() - faults


def table(profile: SelfProfile, per: int) -> list[str]:
    """Every function by self time, most first: calls, self ms and faults, each divided by per."""
    rows = sorted(profile.seconds, key=profile.seconds.__getitem__, reverse=True)
    return [
        f"  {key:<44} {profile.calls[key] / per:>9.1f} calls {1e3 * profile.seconds[key] / per:>9.3f} ms"
        f" {profile.faults[key] / per:>8.1f} faults"
        for key in rows
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tiny", action="store_true", help="measure the tiny warm-up pool")
    args = parser.parse_args(argv)
    cli, src = import_cli(args.tree)
    sys.path.insert(0, str(ROOT / "bench"))
    import calibrate
    from workloads import WORKLOADS

    make, _ = WORKLOADS[args.workload]
    pool = make(np.random.default_rng(args.seed), tiny=args.tiny)
    np.random.default_rng(args.seed + 1).shuffle(pool)  # the benchmark's pool order
    total = SelfProfile(src)
    op_seconds = op_faults = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.json")
        for i, warm in enumerate(make(np.random.default_rng(args.seed), tiny=True)):
            warm.name = f"warm-up-{i}"
            warm.write(tmp)
            calibrate.sample()
            run_op(cli, warm, report)
        for p in pool:
            p.write(tmp)
            gc.collect()
            calibrate.sample()
            profile = SelfProfile(src)
            rc, seconds, faults = run_op(cli, p, report, profile)
            op_seconds, op_faults = op_seconds + seconds, op_faults + faults
            total.calls.update(profile.calls)
            total.seconds.update(profile.seconds)
            total.faults.update(profile.faults)
            print(f"{p.name} ({p.command}, exit {rc}): {1e3 * seconds:.3f} ms, {faults} minor faults")
            print("\n".join(table(profile, 1)))
    n = len(pool)
    print(f"mean per op over {n} ops: {1e3 * op_seconds / n:.3f} ms, {op_faults / n:.1f} minor faults")
    print("\n".join(table(total, n)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
