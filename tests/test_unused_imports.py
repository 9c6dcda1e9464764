"""Every module-level import of the package and of the tests is read, and
so is every module-level definition of the package.

A name a module imports at its top level and never reads as a name is
dead; the package's `__init__.py`, which imports to re-export, is left
out. A test function's parameter counts as a read, since a fixture is
asked for by naming it there. A function, class or assigned name defined
at the top level of a package module is dead when no package module reads
it as a name or imports it, `__init__.py`'s re-exports included.
"""
import ast
from pathlib import Path

from conftest import REPO


PACKAGE = REPO / "src" / "ekfservo"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _package_modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _modules():
    yield from _package_modules()
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
    tree = _parse(path)
    read = _read(tree)
    return [f"{path.relative_to(REPO)}:{line}: {name}"
            for name, line in _imported(tree).items() if name not in read]


def test_every_module_level_import_is_read():
    unused = [hit for path in _modules() for hit in unused_imports(path)]
    assert not unused, "imported but never read:\n" + "\n".join(unused)


def _defined(tree: ast.Module) -> dict:
    """Name -> line of each module-level function, class and assignment."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node.lineno
    return names


def test_every_package_definition_is_read():
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    dead = [f"{path.relative_to(REPO)}:{line}: {name}"
            for path in _package_modules()
            for name, line in _defined(_parse(path)).items()
            if name not in read]
    assert not dead, "defined but never read:\n" + "\n".join(dead)
