"""No module of the package imports a name it never reads, and no private
name is defined that the package never reads.

An import that nothing reads is dead code that still runs at import time
and hides which dependencies a module really has.  Each module under
``src/coordsim`` except ``__init__`` (whose imports are the public
re-exports) is parsed, and every name an ``import`` binds must be read
somewhere in the module.  ``from __future__`` imports are compiler
directives, not names, and are skipped.

A top-level ``_private`` function, class or constant is no public name, so
only the package can use it: some module of ``src/coordsim`` must read it,
as a loaded name, an attribute or a from-import, outside its own
definition.  Reads by tests do not count, so a helper kept alive only by
its tests is caught.
"""

import ast
from pathlib import Path

import pytest

import coordsim

PACKAGE = sorted(Path(coordsim.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in bound if name not in read)


def test_the_scan_finds_an_unused_name_and_skips_future_imports():
    source = "from __future__ import annotations\nimport os\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(source) == ["pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each top-level ``_private`` (not dunder) function, class or constant
    of a module, with the statement that defines it."""
    found = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found.update((name, stmt) for name in names if name.startswith("_") and not name.startswith("__"))
    return found


def names_read(node: ast.AST) -> set[str]:
    """The names ``node`` reads: loaded names, attributes and from-imports."""
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            read.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            read.update(a.name for a in sub.names)
    return read


def unread_private_names(sources: dict[str, str], module: str) -> list[str]:
    """The private names ``module`` defines that no module of ``sources``
    (name -> source) reads outside the name's own definition."""
    elsewhere = set().union(*(names_read(ast.parse(src)) for name, src in sources.items() if name != module))
    tree = ast.parse(sources[module])
    own = [(stmt, names_read(stmt)) for stmt in tree.body]
    return sorted(name for name, stmt in private_definitions(tree).items()
                  if name not in elsewhere and not any(name in read for s, read in own if s is not stmt))


def test_the_scan_finds_an_unread_private_name():
    sources = {
        "a": "_K = 2\n_UNUSED = 3\ndef _rec(n):\n    return _rec(n - 1)\ndef _f():\n    return _K\n",
        "b": "from a import _f\nimport a\nprint(a._g, _f)\n",
    }
    # _rec reads only itself; _g is read but not defined in a
    assert unread_private_names(sources, "a") == ["_UNUSED", "_rec"]
    assert unread_private_names(sources, "b") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_private_name_is_read_by_the_package(path):
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert unread_private_names(sources, path.stem) == []
