"""Print two size measures of the package: the line count of `src/` and the
number of independently settable values in it.

Settable values are counted from the syntax tree: every parameter with a
default value (functions, methods and nested functions), every field of a
`@dataclass` class, every `add_argument` call in `cli.py`, and every read
of an environment variable (`os.environ.get(...)`, `os.getenv(...)` or
`os.environ[...]`).

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


def main() -> int:
    lines = 0
    totals = [0, 0, 0, 0]
    for path in sorted(Path("src").rglob("*.py")):
        text = path.read_text()
        lines += len(text.splitlines())
        counts = settable_counts(ast.parse(text), path.name == "cli.py")
        totals = [t + c for t, c in zip(totals, counts)]
    print(f"src lines: {lines}")
    print(f"settable values: {sum(totals)} "
          f"(defaulted parameters {totals[0]}, dataclass fields {totals[1]}, "
          f"add_argument calls {totals[2]}, environment reads {totals[3]})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
