"""Differential tests: the converse witnesses against the dense reference
in ``witness_oracle``.

The iid witnesses (case1, case2, rr0) read their chain from types over the
pair's single-letter support cells; the reference builds the dense
|A|^n x |B|^n tables, picks the transfer cells by scanning them and
assembles the same chain on the moved table.  Both reports must agree
within 1e-12 and in every flag and transfer cell.  On the dense tables
(the reference's, and the coded scheme's realized table) the chain is
checked once more against ``density_law`` and ``np_beta``, bit for bit for
beta.  The chains are small (n <= 3) and have structural zeros.  Half of
them are copy chains (W a permutation of U, U uniform on a random
support): their information density is constant, so B/sqrt(n) vanishes
and the chain actually runs (alpha inside (0, 1), live premises).  On the
other half the premises are vacuous at this n, but every tail is still
compared.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import witness_oracle
from coordsim import nptest
from coordsim.errors import DomainError
from coordsim.nptest import converse_witness, rr0_converse_witness
from coordsim.probability import ConditionalPmf, Pmf
from coordsim.region import Decomposition, outer_bound

TOL = 1e-12


@st.composite
def rows(draw, n_rows: int, n_cols: int, min_support: int = 1):
    """A stochastic matrix with random structural zeros and at least
    ``min_support`` positive entries per row."""
    weight = st.floats(0.05, 1.0)
    out = []
    for _ in range(n_rows):
        row = np.array(draw(st.lists(st.just(0.0) | weight, min_size=n_cols, max_size=n_cols)))
        keep = draw(st.lists(st.integers(0, n_cols - 1), min_size=min_support,
                             max_size=min_support, unique=True))
        row[keep] = draw(st.lists(weight, min_size=min_support, max_size=min_support))
        out.append(row / row.sum())
    return np.array(out)


@st.composite
def chains(draw) -> Decomposition:
    u = draw(st.integers(2, 3))
    v = draw(st.integers(2, 3))
    if draw(st.booleans()):
        support = draw(st.lists(st.integers(0, u - 1), min_size=2, max_size=u, unique=True))
        p_u = np.zeros(u)
        p_u[support] = 1.0 / len(support)
        w_given_u = np.eye(u)[draw(st.permutations(range(u)))]
        v_given_w = draw(rows(u, v))
    else:
        w = draw(st.integers(2, 3))
        p_u = draw(rows(1, u, min_support=2))[0]
        w_given_u = draw(rows(u, w))
        v_given_w = draw(rows(w, v))
    return Decomposition(
        p_u=Pmf(p_u),
        w_given_u=ConditionalPmf(w_given_u),
        v_given_w=ConditionalPmf(v_given_w),
    )


def chain(p_u, w_given_u, v_given_w) -> Decomposition:
    return Decomposition(
        p_u=Pmf(np.array(p_u)),
        w_given_u=ConditionalPmf(np.array(w_given_u)),
        v_given_w=ConditionalPmf(np.array(v_given_w)),
    )


# V rows that sum to 1 only within rounding make the six middle cells of
# this copy chain carry llrs {2.9999999999999996, 3.0}, one tie group with
# the threshold n*mu = 3.0 inside it
TIE_SPREAD = chain([0.5, 0.5, 0.0], [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                   [[0.0, 1.0], [0.6007613488994709, 0.39923865110052903],
                    [0.9134009692419062, 0.08659903075809378]])
# the coded table's leading group holds alpha = 0.5 up to the last bit, so
# any rescaling of the table moves the boundary group
ALPHA_ON_BOUNDARY = chain([0.5, 0.5, 0.0], [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
                          [[1.0, 0.0], [1.0, 0.0], [0.43366718040658814, 0.5663328195934118]])


def run_coded(d: Decomposition, n: int, eps: float, y: float):
    """The coded report with the (P2, Q) tables its chain was assembled on:
    the scheme's table and the product of the pair's n-fold marginals."""
    with mock.patch.object(nptest, "_iid_l1", wraps=nptest._iid_l1) as spy:
        rep = converse_witness(d, n, eps, y, "coded")
    P2, pair, n = spy.call_args.args
    return rep, P2, witness_oracle.iid_pair(pair, n)[1]


def run_types(kind: str, d: Decomposition, n: int, eps: float, y: float):
    if kind == "rr0":
        return rr0_converse_witness(d, n, eps, y)
    return converse_witness(d, n, eps, y, kind)


def close(a: float, b: float) -> bool:
    """Equal infinities and NaNs, otherwise within TOL."""
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= TOL


def assert_reports_agree(got, want):
    """The types report against the dense one."""
    for name in ("beta", "np_threshold", "np_randomization", "rate", "l1_to_iid",
                 "alpha", "log_arg", "mu", "v", "b_over_sqrt_n", "h_standin"):
        assert close(getattr(got, name), getattr(want, name)), name
    assert (got.valid_regime, got.upper_ok, got.lower_ok) == (
        want.valid_regime, want.upper_ok, want.lower_ok)
    for key in ("gainer", "loser", "same_row"):
        assert got.transfer[key] == want.transfer[key], key
    for key in ("delta", "corr_gain", "p_gainer", "p_loser"):
        assert close(got.transfer[key], want.transfer[key]), key
    assert got.corr_range["lose_cells_excluded"] == want.corr_range["lose_cells_excluded"]
    for key in ("delta", "gain_min", "gain_max"):
        assert close(got.corr_range[key], want.corr_range[key]), key
    # a lose correction log2(P / (P - delta)) has condition number
    # P / (P - delta) in P (1e5 where delta nearly empties the cell), so it
    # is compared as the fraction of the cell left, 2^-x = (P - delta) / P
    lose = [(got.transfer, want.transfer, "corr_lose")]
    lose += [(got.corr_range, want.corr_range, key) for key in ("lose_min", "lose_max")]
    for mine, theirs, key in lose:
        assert close(2.0 ** -mine[key], 2.0 ** -theirs[key]), key
    for mine, theirs in ((got.upper, want.upper), (got.lower, want.lower)):
        assert [c.name for c in mine] == [c.name for c in theirs]
        for c, w in zip(mine, theirs):
            assert close(c.tail, w.tail) and close(c.log_gamma, w.log_gamma), c.name
            assert (c.premise_ok, c.ok) == (w.premise_ok, w.ok), c.name


def assert_matches_reference(rep, P2, Q, note=event):
    """The chain ``rep`` against ``density_law`` and ``np_beta`` on the dense
    tables it was assembled on; ``note`` records hypothesis events."""
    res, upper, lower = witness_oracle.reference_checks(rep, P2, Q)

    if res is None:
        assert math.isnan(rep.beta)
        assert math.isnan(rep.np_threshold) and math.isnan(rep.np_randomization)
    else:
        note("beta computed")
        # np_beta uses its inputs as given, so on the witness's own tables
        # it must reproduce the witness's solution bit for bit
        assert (rep.beta, rep.np_threshold, rep.np_randomization) == (
            res.beta, res.threshold, res.randomization)

    for checks, want in ((rep.upper, upper), (rep.lower, lower)):
        assert len(checks) == len(want)
        for c, (tail, premise, ok) in zip(checks, want):
            assert abs(c.tail - tail) <= TOL, c.name
            assert c.premise_ok == premise, c.name
            assert c.ok == ok, c.name
            if ok is not None:
                note("live step")


@pytest.mark.parametrize("kind", ["case1", "case2", "coded", "rr0"])
@settings(max_examples=60)
@example(d=TIE_SPREAD, n=3, eps=0.39626849131049485, y=0.8666804616555557)
@example(d=ALPHA_ON_BOUNDARY, n=2, eps=0.5, y=0.75)
@given(
    d=chains(),
    n=st.integers(1, 3),
    eps=st.floats(0.05, 0.95),
    y=st.floats(0.55, 0.95),
)
def test_witness_matches_dense_reference(kind, d, n, eps, y):
    if kind == "coded":
        # the coded table aborts to a sequence with reference mass, so the
        # product law covers it: no table is rejected
        rep, P2, Q = run_coded(d, n, eps, y)
    else:
        try:
            got = run_types(kind, d, n, eps, y)
        except DomainError as exc:
            with pytest.raises(DomainError, match=str(exc)):
                witness_oracle.dense_witness(kind, d, n, eps, y)
            return
        rep, P2, Q = witness_oracle.dense_witness(kind, d, n, eps, y)
        assert_reports_agree(got, rep)
    assert_matches_reference(rep, P2, Q)


# a sum-rate point in the valid regime where subtracting the penalty before
# the log term, as outer_bound does, and after it give different last bits
PENALTY_ORDER = chain([0.5, 0.5], [[1, 0], [0, 1]], [[0.5, 0.5], [0.5, 0.5]])


@pytest.mark.parametrize("kind", ["case1", "case2", "rr0"])
@settings(max_examples=60)
@example(d=PENALTY_ORDER, n=3, eps=0.9202800056811427, y=0.55285958996929)
@given(
    d=chains(),
    n=st.integers(1, 3),
    eps=st.floats(0.05, 0.95),
    y=st.floats(0.55, 0.95),
)
def test_witness_reports_the_outer_bound_point(kind, d, n, eps, y):
    """A witness's rate, alpha, log argument and regime are those of the
    matching constraint of ``outer_bound``, bit for bit."""
    try:
        rep = run_types(kind, d, n, eps, y)
    except DomainError:
        return  # no transfer fits; the dense reference test covers the message
    outer = outer_bound(d, eps, n, y)
    if kind == "rr0":
        want = (outer.r_plus_r0_min, outer.notes["alpha_wuv"], outer.notes["log_arg_rr0"])
        assert rep.rate_penalty == 2.0 * outer.notes["g_eps"]
    else:
        want = (outer.r_min, outer.notes["alpha_wu"], outer.notes["log_arg_r"])
        assert rep.rate_penalty == 0.0
    assert [v.hex() for v in (rep.rate, rep.alpha, rep.log_arg)] == [v.hex() for v in want]
    assert rep.valid_regime == (want[2] > 0.0)


def assert_same_coded_law(d: Decomposition, n: int) -> None:
    """The library's coded pair law and ``witness_oracle.coded_law``: the
    same float bits in the L1 and in every group array."""
    law = nptest._coded_law(d, n)
    l1, heads, llr, p, q = witness_oracle.coded_law(d, n)
    assert law.l1_to_iid.hex() == l1.hex()
    groups = law.groups
    assert groups.idx is None and np.array_equal(groups.heads, heads)
    for got, want in ((groups.llr, llr), (groups.p, p), (groups.q, q)):
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


@settings(max_examples=60)
@given(d=chains(), n=st.integers(1, 3))
def test_coded_law_matches_the_dense_reference(d, n):
    assert_same_coded_law(d, n)


def copy_chain() -> Decomposition:
    eye = [[1.0, 0.0], [0.0, 1.0]]
    return chain([0.5, 0.5], eye, eye)


def test_copy_chain_coded_law_matches_the_dense_reference():
    """At the blocklength the benchmark runs: 786,514 support cells in
    five tie groups."""
    assert_same_coded_law(copy_chain(), 10)


@pytest.mark.parametrize("kind, n", [("case1", 10), ("case2", 10), ("rr0", 6)])
def test_copy_chain_witness_matches_dense_reference(kind, n):
    """The binary copy chain at the blocklength the benchmark runs (rr0's
    dense table, 4^n x 2^n, is kept at n = 6)."""
    got = run_types(kind, copy_chain(), n, 0.9, 0.6)
    rep, P2, Q = witness_oracle.dense_witness(kind, copy_chain(), n, 0.9, 0.6)
    assert_reports_agree(got, rep)
    assert_matches_reference(rep, P2, Q, note=lambda _: None)
    assert got.upper_ok and got.lower_ok
