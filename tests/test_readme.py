"""The README's quick start runs, and says what it prints.

Each top-level expression of its python block whose trailing comment is a
Python literal must evaluate to that literal, numbers to a relative 1e-12:
norm_weak of the spike is 6.999999999999999 and its L -215.99999999999991.
"""

import ast
import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def quick_start() -> str:
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), flags=re.S | re.M)
    assert len(blocks) == 1
    return blocks[0]


def claims(source: str) -> list:
    """(statement, literal or None) for each top-level statement, in order."""
    lines = source.splitlines()
    out = []
    for node in ast.parse(source).body:
        literal = None
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        if isinstance(node, ast.Expr) and comment:
            try:
                literal = (ast.literal_eval(comment),)
            except (ValueError, SyntaxError):
                pass
        out.append((node, literal))
    return out


def test_the_quick_start_prints_what_its_comments_say():
    namespace: dict = {}
    checked = 0
    for node, literal in claims(quick_start()):
        if literal is None:
            exec(compile(ast.Module([node], []), README, "exec"), namespace)
            continue
        got = eval(compile(ast.Expression(node.value), README, "eval"), namespace)
        assert got == pytest.approx(literal[0], rel=1e-12, abs=0.0), ast.unparse(node)
        checked += 1
    assert checked >= 8
