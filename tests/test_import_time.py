"""The CLI's import cost: ``import coordsim.cli`` may load only the standard
library, numpy and coordsim itself.

A fresh interpreter pays for every module the CLI pulls in before it
parses a single argument (the benchmark's ``setup_s``), so a new
third-party import (scipy, say) or a heavy optional one shows up here
first.  Modules the interpreter loaded before the import (``site`` hooks
from installed ``.pth`` files) are not counted.
"""

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


def test_cli_import_loads_only_stdlib_numpy_and_coordsim():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, check=True)
    loaded = json.loads(out.stdout)
    assert "coordsim" in loaded and "numpy" in loaded
    extra = [m for m in loaded if m not in sys.stdlib_module_names and m not in ("numpy", "coordsim")]
    assert extra == []
