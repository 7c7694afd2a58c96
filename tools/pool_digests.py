#!/usr/bin/env python3
"""Digest every op of the seed 1-3 benchmark pools, to compare two source trees.

    python3 tools/pool_digests.py [TREE] > digests.txt

tsvar is imported from TREE/src (default: this checkout); the pool
generators come from this checkout's bench/workloads.py, which never imports
tsvar. Each problem file is written to a temporary directory and run there
as `tsvar <command> FILE --report REPORT` with relative paths, so the
report's provenance names the same file whatever the tree. One line per op:

    workload/seed/name exit sha256

The digest covers stdout, stderr and the report with its timestamp masked.
Two trees that print the same lines produced byte-identical results.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def import_cli(tree: Path):
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    import tsvar.cli

    if not Path(tsvar.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"tsvar imported from {tsvar.cli.__file__}, not from {src}")
    return tsvar.cli


def run(cli, command: str, path: str) -> tuple[object, bytes]:
    """The op's exit code (or exception) and its stdout, stderr and masked report."""
    report = "report.json"
    with contextlib.suppress(FileNotFoundError):
        os.remove(report)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([command, path, "--report", report])
        except Exception as e:  # a raising op is an outcome to compare, not a crash
            rc = type(e).__name__
            print(f"{rc}: {e}", file=sys.stderr)
    try:
        text = Path(report).read_text(encoding="utf-8")
    except FileNotFoundError:
        text = ""
    blob = "\0".join((out.getvalue(), err.getvalue(), TIMESTAMP.sub('"timestamp": "*"', text)))
    return rc, blob.encode()


def main(argv: list[str]) -> int:
    cli = import_cli(Path(argv[0]) if argv else ROOT)
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for workload, (make, _) in WORKLOADS.items():
            for seed in SEEDS:
                for p in make(np.random.default_rng(seed)):
                    p.write("")
                    rc, blob = run(cli, p.command, p.path)
                    print(f"{workload}/{seed}/{p.name} {rc} {hashlib.sha256(blob).hexdigest()}")
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
