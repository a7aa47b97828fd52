"""Every imported name in the package and the tests is used.

No linter is part of the toolchain, so this scan is the check: it parses
each module and lists the names an import binds that nothing reads.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "localic").glob("*.py")) \
    + sorted((ROOT / "tests").glob("*.py"))


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
