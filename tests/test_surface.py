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


def test_no_module_imports_a_private_name_of_another():
    # a helper another cdam module needs is public; a private one stays in its module
    found = []
    for path in sorted((ROOT / "src" / "cdam").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("cdam")):
                found += [f"{path.stem}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert found == []


_WRITE_CALLS = ("mkdir", "write_text", "write_bytes")


def _file_writes(tree: ast.Module) -> list[str]:
    """'function: call' for each call that makes a directory or writes a file,
    under the top-level function or class it sits in: mkdir, write_text,
    write_bytes, and an open whose mode is not a literal read-only one."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "open":  # open(path, mode) or path.open(mode)
                positional = node.args[1:] if isinstance(func, ast.Name) else node.args
                modes = positional[:1] + [k.value for k in node.keywords if k.arg == "mode"]
                mode = modes[0] if modes else ast.Constant("r")
                writes = not (isinstance(mode, ast.Constant) and set(mode.value).isdisjoint("wax+"))
            else:
                writes = name in _WRITE_CALLS
            if writes:
                found.append(f"{getattr(top, 'name', '<module>')}: {name}")
    return found


def test_file_writes_are_found_in_any_spelling():
    code = '''
def f(path, mode):
    open(path, "wb")
    open(path, mode=mode)
    path.open("a")
    open(path)
    open(path, "rb")
    path.read_text()
class C:
    def g(self, path):
        path.parent.mkdir(parents=True)
        path.write_bytes(b"")
'''
    assert _file_writes(ast.parse(code)) == ["f: open", "f: open", "f: open", "C: mkdir",
                                             "C: write_bytes"]


def test_only_reports_writes_files():
    # every artifact goes through cdam.reports, whose writers make their own
    # directories; the automaton transcript is the one file written elsewhere
    found = [f"{path.stem}.{write}" for path in sorted((ROOT / "src" / "cdam").glob("*.py"))
             if path.name != "reports.py" for write in _file_writes(ast.parse(path.read_text()))]
    assert found == ["cli.cmd_automaton: mkdir", "cli.cmd_automaton: write_text"]
    assert _file_writes(ast.parse((ROOT / "src" / "cdam" / "reports.py").read_text()))


def _reads_edges(node: ast.AST) -> bool:
    """Whether node reads an .edges attribute, as in graph.edges."""
    return isinstance(node, ast.Attribute) and node.attr == "edges"


def _calls_embed_label(node: ast.AST) -> bool:
    """Whether node calls embed_label, bare or as an attribute (ingest.embed_label)."""
    return isinstance(node, ast.Call) and "embed_label" in (getattr(node.func, "id", None),
                                                            getattr(node.func, "attr", None))


def _modules_where(found) -> list[str]:
    """The src/cdam modules with a node for which found(node) holds."""
    return [path.stem for path in sorted((ROOT / "src" / "cdam").glob("*.py"))
            if any(found(node) for node in ast.walk(ast.parse(path.read_text())))]


def test_edge_reads_and_label_embeddings_are_found_in_any_spelling():
    nodes = list(ast.walk(ast.parse('''
edges = g.edges
for src, dst, w in self.graph.edges: pass
v = embed_label("a", 5, 0)
w = ingest.embed_label("b", 5, 0)
f = embed_label
edges(x)
''')))
    assert sum(map(_reads_edges, nodes)) == 2
    assert sum(map(_calls_embed_label, nodes)) == 2


def test_only_graphs_reads_a_graphs_edge_list():
    # every other module reads a graph through adjacency() or normalize(), so the edge
    # format is known in one place
    assert _modules_where(_reads_edges) == ["graphs"]


def test_only_ingest_embeds_a_label():
    # an automaton's label embeddings are drawn once, into the patterns ingest composes;
    # every other reader takes them from those patterns
    assert _modules_where(_calls_embed_label) == ["ingest"]


def _max_min_comparisons(tree: ast.Module) -> list[str]:
    """The name of the function around each comparison of an array's .max(...)
    with its .min(...), in either order, the test of a constant column; the
    builtin max() and min() of a plain sequence are not array reductions."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                names = {getattr(side.func, "attr", None) for side in sides
                         if isinstance(side, ast.Call) and isinstance(side.func, ast.Attribute)}
                if {"max", "min"} <= names:
                    found.append(func.name)
    return found


def test_max_min_comparisons_are_found_in_any_spelling():
    code = '''
def f(v):
    return v.max(axis=0) == v.min(axis=0)
class C:
    def g(self, v):
        return np.any(v[:, 1].min() != v[:, 1].max())
def h(g):
    return min(g) == max(g) or v.max() > 0
'''
    assert _max_min_comparisons(ast.parse(code)) == ["f", "g"]


def test_one_function_decides_zero_variance():
    # patterns and states pass the same rule, so a constant column is
    # recognised in one place
    found = [f"{path.stem}.{name}" for path in sorted((ROOT / "src" / "cdam").glob("*.py"))
             for name in _max_min_comparisons(ast.parse(path.read_text()))]
    assert found == ["dynamics._refuse_flat"]


_VALUE_TYPES = ("PatternMatrix", "NormalizedAdjacency")


def _copies_into_value_types(tree: ast.Module) -> list[str]:
    """'Type: call' for each argument of a PatternMatrix(...) or
    NormalizedAdjacency(...) call that is itself a .copy() or an
    np.array(...)/numpy.array(...) call, a copy the value type already makes."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) in _VALUE_TYPES):
            continue
        for arg in node.args + [k.value for k in node.keywords]:
            func = arg.func if isinstance(arg, ast.Call) else None
            if isinstance(func, ast.Attribute) and (
                    func.attr == "copy" or func.attr == "array"
                    and getattr(func.value, "id", None) in ("np", "numpy")):
                found.append(f"{node.func.id}: {func.attr}")
    return found


def test_copies_into_value_types_are_found_in_any_spelling():
    code = '''
PatternMatrix(x.copy())
PatternMatrix(values=np.array(x))
NormalizedAdjacency(numpy.array(x, dtype=float))
NormalizedAdjacency(x[:, :3].copy())
PatternMatrix(np.asarray(x))
PatternMatrix(np.column_stack(cols))
PatternMatrix(x)
'''
    assert _copies_into_value_types(ast.parse(code)) == [
        "PatternMatrix: copy", "PatternMatrix: array", "NormalizedAdjacency: array",
        "NormalizedAdjacency: copy"]


def test_no_caller_copies_into_a_value_type():
    # PatternMatrix and NormalizedAdjacency freeze their own float copy of
    # what they are given, so a copy made for them is waste
    found = [f"{path.stem}: {call}" for path in sorted((ROOT / "src" / "cdam").glob("*.py"))
             for call in _copies_into_value_types(ast.parse(path.read_text()))]
    assert found == []


def test_every_module_parses_as_python_3_10():
    # the declared minimum in pyproject.toml; newer syntax would fail at import
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    paths = [path for folder in (ROOT / "src" / "cdam", ROOT / "tools", ROOT / "tests")
             for path in sorted(folder.glob("*.py"))]
    assert len(paths) > 25
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_every_runtime_import_is_stdlib_or_declared():
    # a third-party module that cdam imports must be named in [project] dependencies
    project = (ROOT / "pyproject.toml").read_text().split("[project]\n")[1].split("\n[")[0]
    listed = re.search(r"^dependencies = \[(.*?)\]", project, re.M | re.S)[1]
    declared = {name.lower().replace("-", "_") for name in re.findall(r'"([A-Za-z0-9_.-]+)', listed)}
    found = set()
    for path in sorted((ROOT / "src" / "cdam").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module.split(".")[0])
    undeclared = sorted(found - set(sys.stdlib_module_names) - {"cdam"} - declared)
    assert undeclared == []
    assert {"numpy", "orjson"} <= found
