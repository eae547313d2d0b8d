"""The CLI's import cost: ``import coordsim.cli`` may load only the standard
library, numpy and coordsim itself, and not the standard library's
``fractions``, ``decimal`` or ``statistics``.

A fresh interpreter pays for every module the CLI pulls in before it
parses a single argument (the benchmark's ``setup_s``), so a new
third-party import (scipy, say) or a heavy optional one shows up here
first.  Modules the interpreter loaded before the import (``site`` hooks
from installed ``.pth`` files) are not counted.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import coordsim.cli
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


@functools.cache
def loaded_by_cli_import() -> tuple:
    """Top-level names of the modules ``import coordsim.cli`` loads in a
    fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, check=True)
    return tuple(json.loads(out.stdout))


def test_cli_import_loads_only_stdlib_numpy_and_coordsim():
    loaded = loaded_by_cli_import()
    assert "coordsim" in loaded and "numpy" in loaded
    extra = [m for m in loaded if m not in sys.stdlib_module_names and m not in ("numpy", "coordsim")]
    assert extra == []


def test_cli_import_skips_lazy_stdlib_modules():
    # each costs milliseconds of every cold start; the one user,
    # nptest._type_transfer's exact cell ranking, imports Fraction when it runs
    assert not {"fractions", "decimal", "statistics"} & set(loaded_by_cli_import())
