"""Every imported name in the package and the tests is used, and every
definition in the package is read by the package or public.

No linter is part of the toolchain, so these scans are the check: they
parse each module and list the names an import binds that nothing reads,
and the functions, classes and methods of ``src/localic`` that nothing
there reads and that are not public.
"""

import ast
from pathlib import Path

import localic

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "localic").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))

# Read by no library code, but imported by the benchmark's gate
# (perfbench/gate.py), which checks query answers with them.
BENCHMARK_BOUND = {"nd_join_oracle", "serialize_sublocale"}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _string_names(node: ast.AST) -> set[str]:
    """The names read by the string annotations inside a type expression,
    such as ``-> "Sublocale"`` or ``Union["LocalicMap", ...]``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            out |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return out


def _used(tree: ast.Module) -> set[str]:
    """The names that the module reads, in code or in type expressions."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Subscript):
            used |= _string_names(node.slice)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _string_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns:
            used |= _string_names(node.returns)
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted(f"{name} (line {line})"
                  for name, line in _imported(tree).items()
                  if name not in used)


class _Reads(ast.NodeVisitor):
    """Each name read, as a name or an attribute, with the definitions
    (function, class) it is read inside."""

    def __init__(self):
        self.inside, self.reads = [], {}

    def _definition(self, node):
        self.inside.append(node)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def visit_Name(self, node):
        self.reads.setdefault(node.id, []).append(tuple(self.inside))

    def visit_Attribute(self, node):
        self.reads.setdefault(node.attr, []).append(tuple(self.inside))
        self.generic_visit(node)


def dead_definitions(sources: dict[str, str], public: set[str]) -> list[str]:
    """``module.name`` or ``module.Class.name`` of each module-level
    function or class, and each method, in ``sources`` (module name to
    code) that no code there reads outside its own body and that is not
    public: named in ``public`` or a method of a class named there.
    Dunder methods are called by the language, so they are kept."""
    definitions, reads = [], _Reads()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((f"{module}.{node.name}", node.name, node))
            if isinstance(node, ast.ClassDef) and node.name not in public:
                definitions += [
                    (f"{module}.{node.name}.{m.name}", m.name, m)
                    for m in node.body if isinstance(m, ast.FunctionDef)]
        reads.visit(tree)
    return sorted(
        where for where, name, node in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and name not in public
        and all(node in inside for inside in reads.reads.get(name, [])))


def test_no_unused_imports():
    found = {path.relative_to(ROOT).as_posix(): unused
             for path in SOURCES
             if (unused := unused_imports(path.read_text()))}
    assert found == {}


def test_scan_reads_code_and_string_annotations():
    source = (
        "from typing import TYPE_CHECKING, Optional, Union\n"
        "import os.path\n"
        "if TYPE_CHECKING:\n"
        "    from a import A, B, C\n"
        "X = Union['A', int]\n"
        "def f(x: 'B') -> 'Optional[C]':\n"
        "    return os.path.join(x)\n"
        "'D E'\n"
        "from b import D, E\n"
    )
    assert unused_imports(source) == ["D (line 9)", "E (line 9)"]


def test_every_definition_is_read_or_public():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert dead_definitions(
        sources, set(localic.__all__) | BENCHMARK_BOUND) == []


def test_dead_definition_scan():
    sources = {
        "a": (
            "def used(): pass\n"
            "def loops(): return loops()\n"
            "class Hidden:\n"
            "    def read(self): pass\n"
            "    def unread(self): pass\n"
            "    def __len__(self): return 0\n"
            "class Public:\n"
            "    def unread(self): pass\n"
        ),
        "b": "from a import used, Hidden\nused()\nHidden().read()\n",
    }
    assert dead_definitions(sources, {"Public"}) == [
        "a.Hidden.unread", "a.loops"]
