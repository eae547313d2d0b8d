"""coordsim benchmark: three workloads through the public CLI and library.

Run from the repository root:

    python3 bench/run.py --workload simulate --seed 0 --seconds 20 --trace 0

Workloads (inputs are generated from --seed by ``inputs.py``):

* ``simulate`` -- ``coordsim simulate`` in JSON (n=8, 5 trials) and CSV
  (n=6, 40 trials) on a fixed |U|=2, |W|=3, |V|=2 chain;
* ``optimize`` -- one ``coordsim optimize`` search on DSBS(0.1) with
  |W|=3 and one restart (see ``inputs.OPT_RESTARTS``);
* ``exact`` -- the verifiers: ``clt``, ``np``, ``region``, ``tradeoff``,
  the copy-chain converse witnesses and a random-binning marginal.

With ``--trace 0`` the run measures the end-to-end metrics: ``setup_s``
(median cold start of a fresh interpreter up to ``coordsim.cli`` imported
and its parser built), ``wall_s`` (median seconds of one pass over the
workload's jobs, after a warm-up pass), ``peak_rss_mb`` and
``opt_r_inner_bits`` (``r_inner`` of the decomposition found; on the
workloads that search nothing, ``r_inner`` of their fixed chain at the
same n and eps).  With ``--trace 1`` it times untraced passes, then traced
passes that wrap the program's layers (``layers.py``), and reports the
per-layer metrics.

Every job output is checked: the warm-up output against an oracle
(``workloads.py``), every later output byte for byte against the warm-up.
Each job run is one operation; a failed one (exception, nonzero exit,
oracle or byte mismatch) counts in ``failed``/``attempted``, printed as
``fail_rate``, and makes the exit code 1.  The last line of stdout is the
result JSON.  Spans and a result file with provenance go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_STARTS = 7
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import coordsim.cli as c; c.build_parser()"
MIN_TIMED_PASSES = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("simulate", "optimize", "exact"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# =============================================================================
# provenance
# =============================================================================


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if unknown."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance() -> dict:
    import numpy as np
    from coordsim.probability import memory_cap

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "COORDSIM_MEM_CAP": os.environ.get("COORDSIM_MEM_CAP", f"default {memory_cap()}"),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


# =============================================================================
# measurement
# =============================================================================


def measure_setup() -> list:
    """Cold-start seconds of SETUP_STARTS fresh interpreters."""
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


class Runner:
    """Runs passes over a workload's jobs and keeps the operation tally."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.reference: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.n_passes = 0

    def fail(self, what: str, whys: list) -> None:
        """Count one failed operation, with every reason found for it."""
        self.failed += 1
        for why in whys:
            self.problems.append(f"{what}: {why}")
            print(f"FAILED {what}: {why}", file=sys.stderr)

    def run_pass(self, tracer=None) -> float:
        """One pass over every job; returns its wall seconds.  The first
        pass is the reference: its outputs go through the oracles."""
        outputs = []
        t0 = time.perf_counter()
        for job in self.jobs:
            try:
                if tracer is None:
                    out = job.run()
                else:
                    tracer.run_id = f"pass{self.n_passes}/{job.name}"
                    with tracer.span(f"job.{job.name}"):
                        out = job.run()
            except Exception:  # a job failure is a measured outcome, not a crash
                out = traceback.format_exc()
            outputs.append(out)
        seconds = time.perf_counter() - t0
        self.n_passes += 1
        for job, out in zip(self.jobs, outputs):
            self.attempted += 1
            if isinstance(out, str):
                self.fail(job.name, [out.strip().splitlines()[-1]])
            elif job.name not in self.reference:
                self.reference[job.name] = out
                try:
                    problems = job.check(out)
                except Exception:
                    problems = [traceback.format_exc().strip().splitlines()[-1]]
                if problems:
                    self.fail(job.name, ["oracle: " + why for why in problems])
            elif out != self.reference[job.name]:
                self.fail(job.name, ["rerun output differs from the warm-up output"])
        return seconds

    def passes(self, budget: float, min_passes: int, tracer=None) -> list:
        times = []
        t0 = time.perf_counter()
        while len(times) < min_passes or time.perf_counter() - t0 < budget:
            times.append(self.run_pass(tracer))
        return times


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coordsim" / "__init__.py").is_file():
        print(f"bench: no coordsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads
    from spans import Tracer

    tag = f"{args.workload}-seed{args.seed}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "provenance": provenance()}
    try:
        setup = measure_setup() if args.trace == 0 else []
        wl = workloads.build(args.workload, args.seed, work)
        runner = Runner(wl.jobs)
        runner.run_pass()  # warm-up and reference
        budget = args.seconds if args.trace == 0 else args.seconds / 2
        wall = runner.passes(budget, MIN_TIMED_PASSES if args.trace == 0 else 1)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer = Tracer()
            layers.install_layers(tracer)
            try:
                traced = runner.passes(args.seconds / 2, MIN_TIMED_PASSES, tracer)
            finally:
                tracer.uninstall()
            tracer.write_jsonl(OUT / f"trace-{tag}.jsonl")
            by_pass = defaultdict(list)
            for span in tracer.spans:
                by_pass[span["run"].split("/")[0]].append(span)
            per_pass = [layers.pass_metrics(spans) for spans in by_pass.values()]
            per_layer, count_problems = layers.layer_metrics(per_pass, traced, wall)
            runner.attempted += 1  # the repeat check on the traced passes' counts
            if count_problems:
                runner.fail("counts", count_problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, out in runner.reference.items():
        print(f"sha256 {name} {hashlib.sha256(out).hexdigest()}")
    if args.trace == 0:
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "wall_s": _metric(statistics.median(wall), "s"),
            "peak_rss_mb": _metric(peak_mb, "MB"),
            "opt_r_inner_bits": _metric(
                None if runner.failed else wl.quality(runner.reference), "bits"),
        }
        print(f"setup_s over {len(setup)} starts: {[round(t, 4) for t in setup]}")
        print(f"wall_s over {len(wall)} passes: {[round(t, 4) for t in wall]}")
    else:
        metrics = {name: _metric(value, "count" if name in layers.COUNT_METRICS.values() else "s")
                   for name, value in per_layer.items()}
        print(f"untraced wall_s over {len(wall)} passes: {[round(t, 4) for t in wall]}")
        print(f"traced wall_s over {len(traced)} passes: {[round(t, 4) for t in traced]}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    # not a result metric: it is 0 on a correct program, and the result
    # carries it as failed / attempted
    print(f"metric fail_rate {runner.failed / runner.attempted!r} ratio "
          f"({runner.failed} of {runner.attempted} operations failed)")
    report.update(facts=wl.facts, problems=runner.problems, metrics=metrics,
                  sha256={k: hashlib.sha256(v).hexdigest() for k, v in runner.reference.items()})
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"provenance {json.dumps(report['provenance'], sort_keys=True)}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
