"""tools/import_cost.py on this checkout: one JSON line per mode, and no dataclass code generated."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_both_modes_report_their_split(tmp_path):
    # a copy of src/ without any __pycache__ a test run may have left, which the tool refuses
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable, str(ROOT / "tools" / "import_cost.py"), str(tmp_path), "--repeats", "2"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert [line["mode"] for line in lines] == ["source", "bytecode"]
    for line in lines:
        assert line["repeats"] == 2 and line["dataclasses"] == 0 and line["dataclass_ms"] == 0.0
        assert line["total_ms"] > 0.0 and 0.0 <= line["compile_ms"] <= line["total_ms"]
    assert lines[0]["compile_ms"] > 0.0 and lines[1]["compile_ms"] == 0.0
    assert not list((tmp_path / "src").rglob("__pycache__"))  # no bytecode written into the tree
