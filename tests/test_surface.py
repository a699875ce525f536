import ast
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _surface_module():
    spec = importlib.util.spec_from_file_location("surface", ROOT / "tools" / "surface.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_script_prints_line_count_and_settable_values():
    out = subprocess.run([sys.executable, "tools/surface.py"], cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert len(out) == 2
    lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    assert out[0] == f"src lines: {lines}"
    match = re.fullmatch(r"settable values: (\d+) \(defaulted parameters (\d+), dataclass fields "
                         r"(\d+), add_argument calls (\d+), environment reads (\d+)\)", out[1])
    assert match
    total, *parts = (int(v) for v in match.groups())
    assert total == sum(parts) and parts[2] > 0


def test_environment_reads_are_counted():
    code = '''
import os
a = os.environ.get("A")
b = os.getenv("B", "1")
c = os.environ["C"]
os.environ["D"] = "1"
'''
    assert _surface_module().settable_counts(ast.parse(code), is_cli=False) == (0, 0, 0, 3)
