#!/usr/bin/env python3
"""Where a fresh import of tsvar.cli spends its time: compiling, dataclass code generation, the rest.

    python3 tools/import_cost.py TREE [--repeats K]

tsvar.cli is imported from TREE/src K times, as bench/run.py's
fresh_import does: every tsvar module is dropped from sys.modules before
each import, and numpy, json, argparse, datetime, typing and dataclasses
are imported beforehand, as they are in the benchmark. No bytecode is
written (sys.dont_write_bytecode, as PYTHONDONTWRITEBYTECODE=1 sets).

Two modes run in turn. "source" imports TREE/src itself, so each import
compiles every module from its source, as each of the benchmark's set-up
repeats does (a tree whose src/ holds a __pycache__ is refused). "bytecode"
imports a temporary copy of TREE/src that compileall has compiled first, as
an installed tsvar runs.

Each import is timed whole, and two parts of it are timed inside it:
SourceLoader.source_to_code, the compile of each module's source, and
dataclasses._process_class, which generates the methods of each dataclass
(its calls are counted too). For each mode one JSON line gives the medians
over the K imports in ms, and the dataclasses generated per import.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import datetime  # noqa: F401  imported before tsvar, as in the benchmark
import gc
import importlib
import importlib._bootstrap_external as bootstrap_external
import json
import shutil
import statistics
import sys
import tempfile
import typing  # noqa: F401
from pathlib import Path
from time import perf_counter

import numpy  # noqa: F401


class PartTimer:
    """Wraps module.name so that its calls' wall time and count add up in this timer."""

    def __init__(self, owner, name: str):
        self.owner, self.name = owner, name
        self.original = getattr(owner, name)
        self.seconds, self.calls = 0.0, 0

    def __enter__(self) -> "PartTimer":
        original = self.original

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds += perf_counter() - start
                self.calls += 1

        setattr(self.owner, self.name, timed)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.owner, self.name, self.original)


def fresh_import(src: Path) -> dict:
    """One import of tsvar.cli from src, after dropping every tsvar module: total and parts in ms."""
    for name in [m for m in sys.modules if m == "tsvar" or m.startswith("tsvar.")]:
        del sys.modules[name]
    gc.collect()
    with PartTimer(bootstrap_external.SourceLoader, "source_to_code") as compile_, PartTimer(
        dataclasses, "_process_class"
    ) as generate:
        sys.path.insert(0, str(src))
        try:
            start = perf_counter()
            cli = importlib.import_module("tsvar.cli")
            total = perf_counter() - start
        finally:
            sys.path.remove(str(src))
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"tsvar imported from {cli.__file__}, not from {src}")
    return {
        "total_ms": 1e3 * total,
        "compile_ms": 1e3 * compile_.seconds,
        "dataclass_ms": 1e3 * generate.seconds,
        "dataclasses": generate.calls,
    }


def measure(mode: str, src: Path, repeats: int) -> dict:
    runs = [fresh_import(src) for _ in range(repeats)]
    summary = {"mode": mode, "repeats": repeats}
    for key in ("total_ms", "compile_ms", "dataclass_ms"):
        summary[key] = round(statistics.median(run[key] for run in runs), 3)
    summary["dataclasses"] = statistics.median(run["dataclasses"] for run in runs)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="a checkout whose src/ holds tsvar")
    parser.add_argument("--repeats", type=int, default=9, help="imports per mode (default 9)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    src = args.tree / "src"
    if not (src / "tsvar" / "__init__.py").is_file():
        parser.error(f"no tsvar sources under {src}")
    stale = next(src.rglob("__pycache__"), None)
    if stale is not None:
        parser.error(f"{stale}: compiled bytecode would stand in for a fresh compile; remove it")
    sys.dont_write_bytecode = True
    print(json.dumps({"tree": str(args.tree), **measure("source", src, args.repeats)}), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(src / "tsvar", copy / "tsvar")
        if not compileall.compile_dir(copy, quiet=1):
            raise SystemExit(f"compileall failed on {copy}")
        print(json.dumps({"tree": str(args.tree), **measure("bytecode", copy, args.repeats)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
