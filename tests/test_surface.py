import ast
import importlib.util
import inspect
import pkgutil
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


def _script_output():
    return subprocess.run([sys.executable, "tools/surface.py"], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.splitlines()


def test_script_prints_line_count_and_settable_values():
    out = _script_output()
    assert len(out) == 3
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


def test_public_function_count_matches_the_imported_package():
    # the functions each cdam module defines and the plain functions of its
    # classes, found by importing the package rather than by parsing it
    import cdam

    functions = methods = 0
    for info in pkgutil.iter_modules(cdam.__path__):
        module = importlib.import_module(f"cdam.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                functions += 1
            elif inspect.isclass(obj):
                methods += sum(not attr.startswith("_") and inspect.isfunction(fn)
                               for attr, fn in vars(obj).items())
    match = re.fullmatch(r"public functions: (\d+) \(module functions (\d+), methods (\d+)\)",
                         _script_output()[2])
    assert match
    assert tuple(int(v) for v in match.groups()) == (functions + methods, functions, methods)
    assert functions > 0 and methods > 0


def test_public_callables_skip_private_names_and_properties():
    code = '''
from functools import cached_property
def f(): pass
def _g(): pass
def h():
    def nested(): pass
class A:
    def m(self): pass
    def _n(self): pass
    @property
    def p(self): pass
    @cached_property
    def q(self): pass
    @staticmethod
    def s(): pass
class _B:
    def m(self): pass
'''
    assert _surface_module().public_callables(ast.parse(code)) == (2, 1)
