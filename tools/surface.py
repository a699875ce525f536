"""Print three size measures of the package: the line count of `src/`, the
number of independently settable values in it, and the number of its
public functions and methods.

Settable values are counted from the syntax tree: every parameter with a
default value (functions, methods and nested functions), every field of a
`@dataclass` class, every `add_argument` call in `cli.py`, and every read
of an environment variable (`os.environ.get(...)`, `os.getenv(...)` or
`os.environ[...]`).

Public functions are the module-level functions and the methods of
module-level classes whose names do not start with an underscore;
properties, static and class methods are not counted.  These are the
callables that perfbench/tracing.py wraps, one span name each.

Run from the root of a checkout: python3 tools/surface.py
"""

from __future__ import annotations

import ast
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _is_environ(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "environ"


def _is_env_read(node: ast.AST) -> bool:
    if isinstance(node, ast.Subscript):
        return _is_environ(node.value) and isinstance(node.ctx, ast.Load)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return ((node.func.attr == "get" and _is_environ(node.func.value))
                or node.func.attr == "getenv")
    return False


def settable_counts(tree: ast.AST, is_cli: bool) -> tuple[int, int, int, int]:
    """(defaulted parameters, dataclass fields, add_argument calls,
    environment reads) of one module."""
    defaults = fields = arguments = env_reads = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults += len(node.args.defaults)
            defaults += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
        elif (is_cli and isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add_argument"):
            arguments += 1
        if _is_env_read(node):
            env_reads += 1
    return defaults, fields, arguments, env_reads


_NOT_FUNCTIONS = {"property", "cached_property", "staticmethod", "classmethod"}


def _decorator_names(node: ast.FunctionDef) -> set[str]:
    return {getattr(d, "attr", getattr(d, "id", None)) for d in node.decorator_list}


def public_callables(tree: ast.Module) -> tuple[int, int]:
    """(public module-level functions, public methods of public classes) of
    one module."""
    functions = methods = 0
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            functions += 1
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            methods += sum(isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
                           and not _decorator_names(stmt) & _NOT_FUNCTIONS for stmt in node.body)
    return functions, methods


def main() -> int:
    lines = 0
    totals = [0, 0, 0, 0]
    callables = [0, 0]
    for path in sorted(Path("src").rglob("*.py")):
        text = path.read_text()
        lines += len(text.splitlines())
        tree = ast.parse(text)
        counts = settable_counts(tree, path.name == "cli.py")
        totals = [t + c for t, c in zip(totals, counts)]
        callables = [t + c for t, c in zip(callables, public_callables(tree))]
    print(f"src lines: {lines}")
    print(f"settable values: {sum(totals)} "
          f"(defaulted parameters {totals[0]}, dataclass fields {totals[1]}, "
          f"add_argument calls {totals[2]}, environment reads {totals[3]})")
    print(f"public functions: {sum(callables)} "
          f"(module functions {callables[0]}, methods {callables[1]})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
