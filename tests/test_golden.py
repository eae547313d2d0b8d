"""Byte-for-byte CLI regression against committed golden outputs.

Each case runs ``coordsim.cli.main`` in-process on a small fixed input and
compares the file it writes with ``tests/golden/<subcommand>.<format>``.
Unlike the determinism tests, which only rerun the same code, these pin the
numbers themselves: a change that moves any output byte must regenerate the
files and say why.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py``; it prints
``changed`` or ``unchanged`` for each file it writes.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from coordsim.binning import _blas_thread_calls
from coordsim.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"

SKEWED = {
    "p_u": [0.55, 0.45],
    "w_given_u": [[0.5, 0.5, 0.0], [0.1, 0.2, 0.7]],
    "v_given_w": [[0.8, 0.2], [0.4, 0.6], [0.1, 0.9]],
}

# subcommand -> (input JSON document or None, extra flags)
CASES = {
    # eps 0.8 > y makes the outer log terms valid at large n and Q^-1(eps) < 0
    "region": (SKEWED, ["--n", "64,4096,1000000", "--eps", "0.8",
                        "--eps1", "0.1", "--eps2", "0.05"]),
    "simulate": ({"decomposition": SKEWED, "n": 2, "rate_r": 1.0, "rate_r0": 0.5,
                  "rate_rtilde": 0.5, "seed": 7, "trials": 5}, []),
    "np": ({"p": [0.3, 0.2, 0.2, 0.1, 0.1, 0.1], "q": [0.1, 0.1, 0.2, 0.2, 0.2, 0.2],
            "alpha": 0.45, "gamma_grid": [0.25, 0.5, 1.0, 2.0, 4.0]}, []),
    "clt": (SKEWED, ["--n", "1,2,3,5,8"]),
    "tradeoff": (None, ["--n", "1024", "--eps1", "0.01", "--eps2", "0.02"]),
    # two restarts: the random restart runs after the warm start
    "optimize": ({"target_uv": [[0.45, 0.05], [0.05, 0.45]], "w_size": 2,
                  "objective": "r_min", "restarts": 2},
                 ["--n", "1000", "--seed", "5"]),
}


def run_case(sub: str, fmt: str, workdir: Path) -> bytes:
    doc, flags = CASES[sub]
    argv = [sub, *flags, "--format", fmt]
    if doc is not None:
        path = workdir / f"{sub}.input.json"
        path.write_text(json.dumps(doc))
        argv += ["--input", str(path)]
    out = workdir / f"{sub}.{fmt}"
    assert main(argv + ["--output", str(out)]) == EXIT_OK, argv
    return out.read_bytes()


def blas_build() -> str:
    """The BLAS numpy loaded and its thread count.  Output bytes are
    reproducible per BLAS build: another build may order a product's sums
    differently."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    calls = _blas_thread_calls()
    threads = "unknown" if calls is None else calls[0]()
    config = blas.get("openblas configuration", "")
    return f"BLAS {blas.get('name')} {blas.get('version')} ({config}), {threads} threads"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("sub", sorted(CASES))
def test_cli_output_matches_golden(sub, fmt, tmp_path):
    got = run_case(sub, fmt, tmp_path)
    want = (GOLDEN / f"{sub}.{fmt}").read_bytes()
    assert got == want, f"{sub}.{fmt} differs under {blas_build()}"


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for sub in sorted(CASES):
            for fmt in ("csv", "json"):
                path = GOLDEN / f"{sub}.{fmt}"
                new = run_case(sub, fmt, Path(tmp))
                same = path.exists() and path.read_bytes() == new
                path.write_bytes(new)
                print(f"{'unchanged' if same else 'changed'} {path.name}", file=sys.stderr)
