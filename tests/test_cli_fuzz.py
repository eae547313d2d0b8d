"""Seeded fuzz of the command line: no input makes it exit 1.

Exit 1 is an internal error, an exception the CLI did not map (see
``cli``).  Each example takes one golden case (``test_golden.CASES``), the
six subcommands' fixed inputs and flags, and mutates it: up to three
values of its input file, at any depth, become a value of the wrong type,
a huge, negative, NaN or infinite number, an empty container, or go
missing, and up to two flags get a bad value.  Half the ``np`` examples
instead draw a fresh valid law pair (``np_documents``), and half the
``simulate``, ``region`` and ``clt`` examples a fresh valid chain with zero
cells at n in 1-4 (``chain_documents``), each with at most one mutation
and no bad flag, so that runs reach the solvers and not only the input
checks.
The run must exit 0, 2, 3 or 4 within a 10 s alarm; 1,000 examples take
about 7 s.  The examples are drawn the same way on every
run (the suite's derandomized profile), so a failure reproduces from the
suite alone.  The memory cap is lowered so a mutated blocklength ends in
exit 4 instead of building a large table.
"""

import copy
import json
import signal
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chains import chain_tables
from coordsim.cli import EXIT_INVALID, EXIT_IO, EXIT_OK, EXIT_RESOURCE, main
from test_golden import CASES

ALLOWED = {EXIT_OK, EXIT_IO, EXIT_INVALID, EXIT_RESOURCE}
ALARM_S = 10
CAP = str(2 ** 18)  # table cells: 2 MB of float64
MISSING = object()  # the mutation that deletes a key or list entry
# a value's replacements: wrong types, huge (beyond a count, a float or
# Python's printable digits for the CLI's JSON reader), negative and
# non-finite numbers, and empty containers
VALUES = ["x", "", None, True, [], {}, [[]], -1, -0.5, 0, 0.5, 2, 2 ** 64, 10 ** 30,
          10 ** 400, 1e308, float("nan"), float("inf"), float("-inf"), MISSING]
# bad values for each flag a subcommand may take (argparse rejects a flag
# the subcommand does not have: exit 3)
FLAGS = {
    "--n": ["0", "-1", "1", "abc", "1,,2", ",", "", "1e3", "99999999999999999999999",
            "18446744073709551616", "12"],
    "--seed": ["-1", "18446744073709551616", "x"],
    "--trials": ["0", "-3", "2.5"],
    "--eps": ["nan", "inf", "0", "1", "-0.1", "2", "x"],
    "--eps1": ["nan", "1", "-1"],
    "--eps2": ["inf", "1.5"],
    "--y": ["0.5", "1", "nan"],
    "--gamma": ["a,b,c", "1,2", "nan,1,1", "-1,-1,-1", "1e400,1,1", ""],
    "--gamma-rule": ["bogus", "linear:-1", "linear:nan", "fixed:1,2", "logn", "linear:1e308"],
    "--format": ["xml", ""],
}
ONE_LETTER = {"decomposition": {"p_u": [1.0], "w_given_u": [[1.0]], "v_given_w": [[1.0]]},
              "rate_r": 0, "rate_r0": 0, "rate_rtilde": 0, "trials": 1}


def paths(doc, prefix=()):
    """Every key and list position of ``doc``, at every depth."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    out = []
    for key, value in items:
        out.append(prefix + (key,))
        out += paths(value, prefix + (key,))
    return out


def mutate(doc, path, value):
    """``doc`` with the entry at ``path`` replaced by ``value`` or deleted."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def np_documents(draw):
    """A valid ``np`` input: two laws over 1-40 outcomes from small integer
    weights (so ties, and zero cells in either law), an alpha inside
    (0, 1) and, half the time, a gamma grid."""
    k = draw(st.integers(1, 40))
    weights = st.lists(st.integers(0, 5), min_size=k, max_size=k).filter(any)
    p, q = draw(weights), draw(weights)
    doc = {"p": [w / sum(p) for w in p], "q": [w / sum(q) for w in q],
           "alpha": draw(st.floats(0.001, 0.999))}
    if draw(st.booleans()):
        doc["gamma_grid"] = draw(st.lists(st.floats(2.0 ** -8, 2.0 ** 8), min_size=1, max_size=6))
    return doc


@st.composite
def chain_documents(draw, sub):
    """A valid ``simulate``, ``region`` or ``clt`` input and flags: the
    golden case's, on a fresh chain with zero cells (``chain_tables``) at a
    blocklength n in 1-4, and for ``simulate`` rates in [0, 1.5].  At n = 1,
    where the default gamma rule log2 n gives no slack, ``simulate`` and
    ``region`` get fixed gammas."""
    doc, flags = CASES[sub]
    p_u, w_given_u, v_given_w = draw(chain_tables())
    chain = {"p_u": p_u, "w_given_u": w_given_u, "v_given_w": v_given_w}
    n = draw(st.integers(1, 4))
    flags = list(flags) + (["--gamma", "1,0.5,1"] if n == 1 and sub != "clt" else [])
    if sub == "simulate":
        rate = st.floats(0.0, 1.5)
        return {**doc, "decomposition": chain, "n": n, "rate_r": draw(rate),
                "rate_r0": draw(rate), "rate_rtilde": draw(rate)}, flags
    flags[flags.index("--n") + 1] = str(n)
    return chain, flags


@st.composite
def invocations(draw):
    """(argv without --input/--output, input document or None).  Half the
    ``np``, ``simulate``, ``region`` and ``clt`` cases draw a fresh valid
    document, mutated at most once and given no bad flag, so most of them
    reach the solver."""
    sub = draw(st.sampled_from(sorted(CASES)))
    doc, flags = CASES[sub]
    fresh = sub in ("np", "simulate", "region", "clt") and draw(st.booleans())
    if fresh and sub == "np":
        doc = draw(np_documents())
    elif fresh:
        doc, flags = draw(chain_documents(sub))
    if doc is not None:
        for _ in range(draw(st.integers(0, 1 if fresh else 3))):
            where = paths(doc)
            if where:
                doc = mutate(doc, draw(st.sampled_from(where)), draw(st.sampled_from(VALUES)))
    flags = list(flags)
    for _ in range(draw(st.integers(0, 0 if fresh else 2))):
        flag = draw(st.sampled_from(sorted(FLAGS)))
        flags += [flag, draw(st.sampled_from(FLAGS[flag]))]
    return [sub, *flags], doc


def run(argv, doc, workdir: Path) -> int:
    """``main`` on ``argv`` with ``doc`` as its input file, under the alarm."""
    if doc is not None:
        path = workdir / "in.json"
        path.write_text(json.dumps(doc))  # NaN and infinities as JSON's NaN / Infinity
        argv = [*argv, "--input", str(path)]

    def expire(signum, frame):
        raise TimeoutError(f"coordsim {' '.join(argv)} ran over {ALARM_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(ALARM_S)
    try:
        return main([*argv, "--output", str(workdir / "out")])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=1000, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(case=invocations())
def test_mutated_golden_inputs_never_exit_internal(case, monkeypatch):
    monkeypatch.setenv("COORDSIM_MEM_CAP", CAP)
    argv, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        assert run(argv, doc, Path(tmp)) in ALLOWED, argv


def test_one_letter_chain_at_a_huge_blocklength_exits_ok(monkeypatch):
    monkeypatch.setenv("COORDSIM_MEM_CAP", CAP)
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("csv", "json"):
            argv = ["simulate", "--n", "1000000000000", "--gamma", "1,1,1", "--format", fmt]
            assert run(argv, ONE_LETTER, Path(tmp)) == EXIT_OK
