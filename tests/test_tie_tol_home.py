"""Only ``measures`` names the tie tolerance in code.

``measures.TIE_TOL`` decides which values form one tie group and which
threshold is read at a group (``tie_groups``, ``group_tail``,
``group_at``).  A second module that compared against it would be a second
tie policy to keep in step, so each module under ``src/coordsim`` other than
``measures`` is parsed, and no name, attribute or import in its code may be
``TIE_TOL``.  Docstrings and comments may mention it: they are not code.
"""

import ast
from pathlib import Path

import pytest

import coordsim

HOME = "measures"
MODULES = sorted(p for p in Path(coordsim.__file__).parent.glob("*.py") if p.stem != HOME)


def tie_tol_lines(source: str) -> list[int]:
    """The lines of ``source`` whose code names ``TIE_TOL``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            named = node.id == "TIE_TOL"
        elif isinstance(node, ast.Attribute):
            named = node.attr == "TIE_TOL"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            named = any("TIE_TOL" in (a.name, a.asname) for a in node.names)
        else:
            continue
        if named:
            lines.append(node.lineno)
    return sorted(set(lines))


def test_the_scan_finds_code_and_skips_docstrings():
    source = ('"""TIE_TOL in a docstring."""\n'
              "from .measures import TIE_TOL as tol\n"
              "import coordsim.measures as m\n"
              "x = m.TIE_TOL  # TIE_TOL in a comment\n"
              "y = TIE_TOL\n")
    assert tie_tol_lines(source) == [2, 4, 5]


def test_measures_is_the_home():
    assert tie_tol_lines((Path(coordsim.__file__).parent / f"{HOME}.py").read_text())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_other_module_names_tie_tol(path):
    assert tie_tol_lines(path.read_text()) == []
