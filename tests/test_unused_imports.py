"""Every module-level import of the package and of the tests is read.

A name a module imports at its top level and never reads as a name is
dead; the package's `__init__.py`, which imports to re-export, is left
out. A test function's parameter counts as a read, since a fixture is
asked for by naming it there.
"""
import ast
from pathlib import Path

from conftest import REPO


def _modules():
    yield from sorted(p for p in (REPO / "src" / "ekfservo").glob("*.py")
                      if p.name != "__init__.py")
    yield from sorted((REPO / "tests").glob("*.py"))


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of each module-level import."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree: ast.Module) -> set:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            read.update(a.arg for a in (*args.posonlyargs, *args.args,
                                        *args.kwonlyargs))
    return read


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = _read(tree)
    return [f"{path.relative_to(REPO)}:{line}: {name}"
            for name, line in _imported(tree).items() if name not in read]


def test_every_module_level_import_is_read():
    unused = [hit for path in _modules() for hit in unused_imports(path)]
    assert not unused, "imported but never read:\n" + "\n".join(unused)
