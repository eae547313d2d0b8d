"""No module of the package imports a name it never reads.

An import that nothing reads is dead code that still runs at import time
and hides which dependencies a module really has.  Each module under
``src/coordsim`` except ``__init__`` (whose imports are the public
re-exports) is parsed, and every name an ``import`` binds must be read
somewhere in the module.  ``from __future__`` imports are compiler
directives, not names, and are skipped.
"""

import ast
from pathlib import Path

import pytest

import coordsim

MODULES = sorted(p for p in Path(coordsim.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
