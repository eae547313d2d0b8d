"""The simulator's trial loop over worker processes.

``binning._trials`` forks one worker per usable core once a run of trials
is large enough, and every trial runs its products on one BLAS thread.
These tests pin what that must not change: the output bytes for any worker
count, the exception and exit code of a failing trial, no child process
left behind, and the caller's BLAS thread count.  The worker count is set
by monkeypatching ``os.sched_getaffinity``.
"""

import json
import os
import subprocess
import sys
import threading
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import coordsim.binning as binning
from coordsim.binning import SchemeConfig, _trials, draw_binning, trial_metrics
from coordsim.cli import EXIT_INVALID, EXIT_OK, EXIT_RESOURCE, main
from coordsim.errors import CoordsimError, DomainError, ResourceLimitError
from coordsim.probability import ConditionalPmf, Pmf
from coordsim.region import Decomposition

SRC = Path(__file__).resolve().parent.parent / "src"


def blas_threads():
    """The loaded OpenBLAS's thread count, or None if it cannot be read."""
    calls = binning._blas_thread_calls()
    return None if calls is None else calls[0]()


# the cores this process may use, read before any test patches the call,
# and its OpenBLAS thread count
AFFINITY = os.sched_getaffinity
CORES = AFFINITY(0)
BLAS_THREADS = blas_threads()

# the benchmark's 2-3-2 chain at rates 0.5, and the scheme seed its
# ``simulate`` workload derives from benchmark seed 7
CHAIN3 = {
    "p_u": [0.55, 0.45],
    "w_given_u": [[0.5, 0.3, 0.2], [0.1, 0.2, 0.7]],
    "v_given_w": [[0.8, 0.2], [0.4, 0.6], [0.1, 0.9]],
}
SEED = 3737738445
# trial 10's select_f_distance on one BLAS thread; OpenBLAS's two-thread
# dgemm ends in ...e57cp-2 (no field of trials 0-3 tells the two apart)
TRIAL10_SELECT_F_DISTANCE = "0x1.a73f8a328e57bp-2"


def chain3() -> Decomposition:
    return Decomposition(
        p_u=Pmf(np.array(CHAIN3["p_u"])),
        w_given_u=ConditionalPmf(np.array(CHAIN3["w_given_u"])),
        v_given_w=ConditionalPmf(np.array(CHAIN3["v_given_w"])),
    )


def scheme(n: int) -> SchemeConfig:
    return SchemeConfig(n=n, rate_r=0.5, rate_r0=0.5, rate_rtilde=0.5, seed=SEED,
                        decomposition=chain3())


def needs_workers():
    if not hasattr(os, "fork") or binning._blas_thread_calls() is None:
        pytest.skip("trials fork only where os.fork exists and OpenBLAS can be pinned")


@pytest.fixture
def cores(monkeypatch):
    """Set the usable core count the trial loop sees."""
    def set_cores(k: int):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
    return set_cores


@pytest.fixture
def forks(monkeypatch):
    """Count the calls to os.fork."""
    calls = []
    real_fork = os.fork

    def counted_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return calls


def nothing_left_behind():
    """No worker outlives the run, and this process has its cores and its
    OpenBLAS thread count back."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert AFFINITY(0) == CORES
    assert blas_threads() == BLAS_THREADS


def simulate(tmp_path: Path, fmt: str, n: int, trials: int) -> tuple[int, str]:
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps({"decomposition": CHAIN3, "rate_r": 0.5, "rate_r0": 0.5,
                                "rate_rtilde": 0.5, "seed": SEED}))
    out = tmp_path / f"out.{fmt}"
    code = main(["simulate", "--input", str(path), "--format", fmt, "--n", str(n),
                 "--trials", str(trials), "--output", str(out)])
    return code, out.read_text() if code == EXIT_OK else ""


# =============================================================================
# bytes that do not depend on the worker count
# =============================================================================


def test_simulate_bytes_do_not_depend_on_the_worker_count(tmp_path, cores, forks):
    needs_workers()
    outputs = {}
    for k in (1, 2, 3):
        cores(k)
        before = len(forks)
        outputs[k] = [simulate(tmp_path, fmt, 8, 11) for fmt in ("json", "csv")]
        # k workers fork k - 1 children per run, for each of the two runs
        assert len(forks) - before == 2 * (k - 1)
        nothing_left_behind()
    assert outputs[1] == outputs[2] == outputs[3]
    assert all(code == EXIT_OK for code, _ in outputs[1])
    csv_rows = outputs[1][1][1].splitlines()[2:]
    row10 = csv_rows[10].split(",")
    want = astuple(trial_metrics(chain3(), scheme(8), 10))
    assert [int(row10[0]), *map(float, row10[1:])] == [10, *want]
    assert want[3].hex() == TRIAL10_SELECT_F_DISTANCE


def test_trial_loop_yields_in_trial_order(cores):
    needs_workers()
    cores(3)
    d, cfg = chain3(), scheme(6)
    got = list(_trials(d, cfg, 12))
    assert got == [trial_metrics(d, cfg, t) for t in range(12)]
    nothing_left_behind()


# =============================================================================
# failing trials, child cleanup, the BLAS thread count
# =============================================================================


def failing_trials(monkeypatch, cfg: SchemeConfig, trials: int, bad: dict):
    """Make ``_trial_metrics`` raise ``bad[t]`` on trial t: a realization is
    told by its bin maps, which each process can compare after the fork."""
    first_bins = [draw_binning(cfg, t).phi_f.tobytes() for t in range(trials)]

    def fake(tab, b):
        t = first_bins.index(b.phi_f.tobytes())
        if t in bad:
            raise bad[t]
        return binning.TrialMetrics(0.0, 0.0, 0, 0.0, 0.0, 0.0, 0.0)

    monkeypatch.setattr(binning, "_trial_metrics", fake)


@pytest.mark.parametrize("error, code", [
    (DomainError("trial 1 has no law", index=(1, 2)), EXIT_INVALID),
    (ResourceLimitError("trial 1 needs a larger table", required=12345), EXIT_RESOURCE),
])
def test_a_failing_worker_fails_as_the_serial_loop(tmp_path, monkeypatch, capsys, cores, forks,
                                                   error, code):
    needs_workers()
    cfg = scheme(8)
    # trial 1 runs in the first child, trial 2 in the parent or a second
    # child: the first failure in trial order is the one raised
    failing_trials(monkeypatch, cfg, 4, {1: error, 2: DomainError("trial 2 fails later")})
    seen = {}
    for k in (1, 2, 3):
        cores(k)
        with pytest.raises(type(error)) as info:
            list(_trials(chain3(), cfg, 4))
        nothing_left_behind()
        assert str(info.value) == str(error)
        assert vars(info.value) == vars(error)
        seen[k] = (simulate(tmp_path, "csv", 8, 4)[0], capsys.readouterr().err)
        nothing_left_behind()
    assert seen[1] == seen[2] == seen[3]
    assert seen[1][0] == code and str(error) in seen[1][1]
    assert len(forks) == 2 * (1 + 2)


def test_a_worker_that_cannot_send_its_share_is_an_internal_error(monkeypatch, capfd, cores):
    needs_workers()
    cores(2)
    parent = os.getpid()
    real_share = binning._share

    def share(tab, cfg, trials):
        done, failure = real_share(tab, cfg, trials)
        if os.getpid() != parent:  # pickle cannot carry a lambda
            failure = (trials[0], DomainError("unsendable", index=lambda: None))
        return done, failure

    monkeypatch.setattr(binning, "_share", share)
    with pytest.raises(CoordsimError, match="ended without sending its trials"):
        list(_trials(chain3(), scheme(8), 2))
    nothing_left_behind()
    err = capfd.readouterr().err  # the child's traceback
    assert "in _worker" in err and "pickle" in err


def test_blas_thread_count_is_pinned_in_a_trial_and_restored_after(monkeypatch, cores):
    needs_workers()
    get, put = binning._blas_thread_calls()
    real_layout = binning._sorted_layout
    inside = []

    def spy(tab, b):
        inside.append(get())
        return real_layout(tab, b)

    monkeypatch.setattr(binning, "_sorted_layout", spy)
    before = get()
    put(2)
    try:
        for k in (1, 2):
            cores(k)
            list(_trials(chain3(), scheme(6), 16))
            assert get() == 2
            nothing_left_behind()
        trial_metrics(chain3(), scheme(6), 0)
        assert get() == 2
    finally:
        put(before)
    # the parent's own trials: all 16 serial ones, 8 of the forked run's, then one
    assert inside == [1] * (16 + 8 + 1)


def test_joint_marginals_do_not_depend_on_the_blas_thread_count():
    # the per-segment matmuls of _PathJoint.marginal differ in about a
    # third of their cells between one and two OpenBLAS threads unless
    # they run on one
    calls = binning._blas_thread_calls()
    if calls is None:
        pytest.skip("the OpenBLAS thread count cannot be set")
    get, put = calls
    d, cfg = chain3(), scheme(8)
    b = draw_binning(cfg, 0)
    before = get()
    tables = []
    try:
        for k in (1, 2):
            put(k)
            if get() != k:
                pytest.skip(f"OpenBLAS does not run {k} threads here")
            tables.append([binning.rc_joint(d, b, cfg).marginal(("u", "v")).probs,
                           binning.rb_joint(d, b, cfg).marginal(("u", "f", "v")).probs])
            assert get() == k
    finally:
        put(before)
    for one, two in zip(*tables):
        assert one.tobytes() == two.tobytes()


def test_a_run_below_the_work_threshold_never_forks(tmp_path, monkeypatch, cores):
    def refuse():
        raise AssertionError("os.fork called below the work threshold")

    monkeypatch.setattr(os, "fork", refuse)
    cores(2)
    # 5 trials at n = 2 and 2 trials at n = 6: 360 and 186,624 row cells
    assert simulate(tmp_path, "json", 2, 5)[0] == EXIT_OK
    assert simulate(tmp_path, "csv", 6, 2)[0] == EXIT_OK
    assert 2 * 3 ** 6 * (2 ** 6 + 2 ** 6) < binning._FORK_CELLS
    # one trial never forks, however large
    assert simulate(tmp_path, "csv", 8, 1)[0] == EXIT_OK


def test_a_process_with_another_thread_runs_trials_serially(tmp_path, monkeypatch, cores):
    def refuse():
        raise AssertionError("os.fork called while another thread runs")

    monkeypatch.setattr(os, "fork", refuse)
    cores(2)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert simulate(tmp_path, "csv", 6, 12)[0] == EXIT_OK
    finally:
        stop.set()
        other.join()


def test_simulate_under_deprecation_warnings_as_errors(tmp_path):
    # Python 3.12 and later warn when os.fork runs in a multi-threaded
    # process; the trial loop forks only when no other Python thread runs,
    # and OpenBLAS stops its own thread pool before a fork
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps({"decomposition": CHAIN3, "rate_r": 0.5, "rate_r0": 0.5,
                                "rate_rtilde": 0.5, "seed": SEED}))
    path_entries = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))
    out = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c",
         "import sys; from coordsim.cli import main; sys.exit(main(sys.argv[1:]))",
         "simulate", "--input", str(path), "--n", "8", "--trials", "2", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert json.loads(out.stdout)["config"]["trials"] == 2
