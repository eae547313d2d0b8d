"""The benchmark's jobs and the oracles that check their outputs.

A job runs the public CLI in-process (``coordsim.cli.main`` writing to a
file) or a public library call, and returns the bytes it produced.  Its
oracle parses those bytes and checks them against a statement derived
independently of the code under test; it returns a list of problems.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import coordsim
import coordsim.cli as cli
from coordsim import (
    ConditionalPmf,
    Decomposition,
    Pmf,
    SchemeConfig,
    inner_bound,
    parse_gamma_rule,
    stats_wu,
)

import inputs as gen

SIM_JOBS = {  # job name -> (format, n, trials)
    "sim_json": ("json", 8, 5),
    "sim_csv": ("csv", 6, 40),
}
OPT_N, OPT_EPS = 10_000, 0.1
CLT_JOBS = {"clt_bsc": ("bsc", "1000,2000"), "clt_chain3": ("chain3", "12,14,16")}
REGION_NS = "8,16,32,64,128,256,512,1024"
TRADEOFF_N = "1024"
COPY_N, COPY_EPS, COPY_Y = 10, 0.9, 0.6
RB_N = 5

L1_COLUMNS = {"l1_uv", "l1_uv_given_f", "l1_uv_given_f_min", "l1_index_fc", "select_f_distance"}
RATE_COLUMNS = {"decoder_error", "abort_rate", "rate_r_eff", "rate_r0_eff", "rate_rtilde_eff"}

# every job name any workload uses, for the per-job root spans
ALL_JOBS = (
    *SIM_JOBS,
    "optimize",
    *CLT_JOBS, "np", "region", "tradeoff", "witness_copy", "rb_marginal",
)


class JobError(Exception):
    """A job that did not produce its output."""


@dataclass
class Job:
    name: str
    run: Callable[[], bytes]
    check: Callable[[bytes], list] = lambda out: []


@dataclass
class Workload:
    jobs: list
    quality: Callable[[dict], float]  # job outputs -> opt_r_inner_bits
    facts: dict = field(default_factory=dict)


# =============================================================================
# parsing and helpers
# =============================================================================


def parse_table(text: str) -> tuple[dict, list, list]:
    """(config, columns, rows) of a CLI output, CSV or JSON."""
    if text.startswith("{"):
        doc = json.loads(text)
        return doc["config"], doc["columns"], doc["rows"]
    lines = text.splitlines()
    head = "# config: "
    if not lines or not lines[0].startswith(head):
        raise ValueError("CSV output lacks its config line")
    columns = lines[1].split(",")
    rows = [[_csv_value(tok) for tok in line.split(",")] for line in lines[2:]]
    return json.loads(lines[0][len(head):]), columns, rows


def _csv_value(tok: str):
    if tok in ("true", "false"):
        return tok == "true"
    if tok == "":
        return None
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        return tok


def _decomposition(obj: dict) -> Decomposition:
    return Decomposition(
        p_u=Pmf(np.asarray(obj["p_u"], dtype=np.float64)),
        w_given_u=ConditionalPmf(np.asarray(obj["w_given_u"], dtype=np.float64)),
        v_given_w=ConditionalPmf(np.asarray(obj["v_given_w"], dtype=np.float64)),
    )


def _uv_law(obj: dict) -> np.ndarray:
    """Single-letter (U, V) law of a chain, by direct summation over W."""
    return np.einsum("u,uw,wv->uv", np.asarray(obj["p_u"]),
                     np.asarray(obj["w_given_u"]), np.asarray(obj["v_given_w"]))


def cli_job(name: str, argv: list, out: Path, check=None) -> Job:
    def run() -> bytes:
        # looked up on the module at call time, so a traced cli.main is seen
        rc = cli.main([*argv, "--output", str(out)])
        if rc != 0:
            raise JobError(f"coordsim {argv[0]} exited with code {rc}")
        return out.read_bytes()

    return Job(name, run, check or (lambda _: []))


def _column(columns: list, rows: list, name: str) -> list:
    i = columns.index(name)
    return [row[i] for row in rows]


# =============================================================================
# simulate
# =============================================================================


def _check_simulate(trials: int):
    def check(out: bytes) -> list:
        text = out.decode("utf-8")
        config, columns, rows = parse_table(text)
        problems = []
        want_rows = trials if config["format"] == "csv" else 1
        if len(rows) != want_rows:
            problems.append(f"{len(rows)} rows, expected {want_rows}")
        for row in rows:
            for col, val in zip(columns, row):
                if col in L1_COLUMNS and not 0.0 <= val <= 2.0:
                    problems.append(f"{col} = {val!r} outside [0, 2]")
                if col in RATE_COLUMNS and not 0.0 <= val <= 1.0:
                    problems.append(f"{col} = {val!r} outside [0, 1]")
        if cli.render_output(config) != text:
            problems.append("render_output on the embedded config differs from the file")
        return problems

    return check


def _simulate(files: dict, work: Path) -> Workload:
    jobs = [
        cli_job(name, ["simulate", "--input", files["scheme"], "--format", fmt,
                       "--n", str(n), "--trials", str(trials)],
                work / f"{name}.out", _check_simulate(trials))
        for name, (fmt, n, trials) in SIM_JOBS.items()
    ]
    return Workload(jobs, lambda outputs: chain3_r_inner(),
                    {"scheme_seed": files["scheme_seed"]})


def chain3_r_inner() -> float:
    """r_inner of the fixed chain at the optimize workload's (n, eps):
    the quality figure of the workloads that run no search."""
    g = parse_gamma_rule("logn", OPT_N)
    return inner_bound(_decomposition(gen.CHAIN3), OPT_EPS, OPT_EPS, OPT_N, g).r_min


# =============================================================================
# optimize
# =============================================================================


def matched_bsc_r_inner() -> float:
    """Inner bound of the hand-built decomposition: binary W between two
    matched BSC(delta) halves with 2 delta (1 - delta) = a."""
    delta = gen.matched_bsc_delta()
    bsc = [[1 - delta, delta], [delta, 1 - delta]]
    d = _decomposition({"p_u": [0.5, 0.5], "w_given_u": bsc, "v_given_w": bsc})
    g = parse_gamma_rule("logn", OPT_N)
    return inner_bound(d, OPT_EPS, OPT_EPS, OPT_N, g).r_min


def _check_optimize(oracle_value: float):
    target = np.asarray(gen.DSBS_TARGET)

    def check(out: bytes) -> list:
        doc = json.loads(out)
        problems = []
        gap = float(np.abs(_uv_law(doc["extra"]["decomposition"]) - target).sum())
        if not gap <= 1e-6:
            problems.append(f"(U,V) marginal gap {gap!r} > 1e-6")
        (r_inner,) = _column(doc["columns"], doc["rows"], "r_inner")
        if not r_inner <= oracle_value + 1e-6:
            problems.append(f"r_inner {r_inner!r} exceeds the matched-BSC bound {oracle_value!r}")
        return problems

    return check


def _optimize(files: dict, work: Path) -> Workload:
    job = cli_job("optimize", ["optimize", "--input", files["target"], "--format", "json",
                               "--n", str(OPT_N), "--eps", str(OPT_EPS),
                               "--seed", str(files["opt_seed"])],
                  work / "optimize.out", _check_optimize(matched_bsc_r_inner()))

    def quality(outputs: dict) -> float:
        doc = json.loads(outputs[job.name])
        (r_inner,) = _column(doc["columns"], doc["rows"], "r_inner")
        return r_inner

    return Workload([job], quality, {"opt_seed": files["opt_seed"]})


# =============================================================================
# exact
# =============================================================================


def _check_clt(chain: dict):
    b = stats_wu(_decomposition(chain)).b

    def check(out: bytes) -> list:
        _, columns, rows = parse_table(out.decode("utf-8"))
        problems = []
        for n, gap in zip(_column(columns, rows, "n"), _column(columns, rows, "gap")):
            if not 0.0 <= gap <= b / math.sqrt(n):
                problems.append(f"n={n}: gap {gap!r} outside [0, B/sqrt(n) = {b / math.sqrt(n)!r}]")
        return problems

    return check


def reference_beta(p: np.ndarray, q: np.ndarray, alpha: float) -> float:
    """Neyman-Pearson beta by sorting outcomes on p/q and accumulating
    p-mass until alpha, randomizing on the boundary outcome (no ties)."""
    order = np.argsort(np.log(q) - np.log(p), kind="stable")
    cp = np.cumsum(p[order])
    cq = np.cumsum(q[order])
    k = int(np.searchsorted(cp, alpha))
    before_p = cp[k - 1] if k else 0.0
    before_q = cq[k - 1] if k else 0.0
    j = order[k]
    return float(before_q + (alpha - before_p) / p[j] * q[j])


def _check_np(path: str):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    p, q = np.asarray(doc["p"]), np.asarray(doc["q"])
    want = reference_beta(p / p.sum(), q / q.sum(), doc["alpha"])

    def check(out: bytes) -> list:
        _, columns, rows = parse_table(out.decode("utf-8"))
        problems = []
        (beta,) = _column(columns, rows, "beta")
        if not abs(beta - want) <= 1e-9:
            problems.append(f"beta {beta!r} vs sort-and-cumsum {want!r}")
        if _column(columns, rows, "sandwich_ok") != [True]:
            problems.append("sandwich_ok does not hold")
        return problems

    return check


def _copy_chain() -> Decomposition:
    eye = [[1.0, 0.0], [0.0, 1.0]]
    return _decomposition({"p_u": [0.5, 0.5], "w_given_u": eye, "v_given_w": eye})


def _run_witnesses() -> bytes:
    reports = []
    for mode in ("case1", "case2", "coded"):
        r = coordsim.converse_witness(_copy_chain(), COPY_N, COPY_EPS, COPY_Y, mode)
        reports.append({"mode": mode, "rate": r.rate, "beta": r.beta, "upper_ok": r.upper_ok,
                        "lower_ok": r.lower_ok, "l1_to_iid": r.l1_to_iid})
    return json.dumps(reports).encode("utf-8")


def _check_witnesses(out: bytes) -> list:
    want = 1.0 + math.log2(COPY_EPS - COPY_Y) / COPY_N
    problems = []
    for rep in json.loads(out):
        if rep["mode"] == "coded":
            continue
        if not (rep["upper_ok"] and rep["lower_ok"]):
            problems.append(f"{rep['mode']}: witness chain does not hold")
        if not abs(rep["rate"] - want) <= 1e-10:
            problems.append(f"{rep['mode']}: rate {rep['rate']!r} vs {want!r}")
    return problems


def _rb_job(seed: int) -> Job:
    d = _decomposition(gen.CHAIN3)
    cfg = SchemeConfig(n=RB_N, rate_r=gen.CHAIN3_RATE, rate_r0=gen.CHAIN3_RATE,
                       rate_rtilde=gen.CHAIN3_RATE, seed=seed, decomposition=d)
    shape: list = []

    def run() -> bytes:
        b = coordsim.draw_binning(cfg, 0)
        table = coordsim.rb_joint(d, b, cfg).marginal(("u", "hw", "v")).probs
        shape[:] = table.shape
        return np.ascontiguousarray(table, dtype=np.float64).tobytes()

    def check(out: bytes) -> list:
        uv = np.frombuffer(out, dtype=np.float64).reshape(shape).sum(axis=1)
        target = np.ones((1, 1))
        for _ in range(RB_N):
            target = np.kron(target, _uv_law(gen.CHAIN3))
        err = float(np.abs(uv - target).max())
        return [] if err <= 1e-12 else [f"RB (u,v) marginal off the iid target by {err!r}"]

    return Job("rb_marginal", run, check)


def _exact(files: dict, work: Path) -> Workload:
    jobs = [
        cli_job(name, ["clt", "--input", files[chain], "--n", ns], work / f"{name}.out",
                _check_clt(gen.BSC_CHAIN if chain == "bsc" else gen.CHAIN3))
        for name, (chain, ns) in CLT_JOBS.items()
    ]
    jobs += [
        cli_job("np", ["np", "--input", files["np"]], work / "np.out", _check_np(files["np"])),
        cli_job("region", ["region", "--input", files["chain3"], "--n", REGION_NS],
                work / "region.out"),
        cli_job("tradeoff", ["tradeoff", "--n", TRADEOFF_N], work / "tradeoff.out"),
        Job("witness_copy", _run_witnesses, _check_witnesses),
        _rb_job(files["rb_seed"]),
    ]
    return Workload(jobs, lambda outputs: chain3_r_inner(), {"rb_seed": files["rb_seed"]})


def build(workload: str, seed: int, work: Path) -> Workload:
    files = gen.write_inputs(workload, seed, work)
    return {"simulate": _simulate, "optimize": _optimize, "exact": _exact}[workload](files, work)
