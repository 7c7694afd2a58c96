"""tools/op_breakdown.py on the tiny eval-dense pool: every op runs, and its tsvar functions are listed."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OP = re.compile(r"^(\S+) \(eval, exit 0\): [\d.]+ ms, \d+ minor faults$")
ROW = re.compile(r"^  (\S+) +[\d.]+ calls +[\d.]+ ms +[\d.]+ faults$")


def test_each_op_of_the_tiny_pool_lists_its_functions():
    command = [sys.executable, "tools/op_breakdown.py", ".", "--workload", "eval-dense", "--tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    ops = [i for i, line in enumerate(lines) if OP.match(line)]
    assert len(ops) == 8  # the eval-dense pool
    mean = lines.index(next(line for line in lines if line.startswith("mean per op over 8 ops: ")))
    for start, end in zip(ops, ops[1:] + [mean]):
        names = [ROW.match(line).group(1) for line in lines[start + 1 : end]]
        assert {"cli.main", "variational._build_rows", "calculus.norm_strong"} <= set(names)
    assert all(ROW.match(line) for line in lines[mean + 1 :])
