"""Differential tests: the converse witnesses against the dense reference
in ``witness_oracle``.

The witnesses read beta and every tail premise from one set of
Neyman-Pearson tie groups; the reference pushes the same perturbed table
through ``density_law`` and ``np_beta``.  The chains are small (n <= 3)
and have structural zeros.  Half of them are copy chains (W a
permutation of U, U uniform on a random support): their information
density is constant, so B/sqrt(n) vanishes and the chain actually runs
(alpha inside (0, 1), live premises).  On the other half the premises
are vacuous at this n, but every tail is still compared.
"""

import inspect
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
from coordsim.region import Decomposition

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


def run_witness(kind: str, d: Decomposition, n: int, eps: float, y: float):
    """The report (or the ``DomainError`` raised instead), with the
    (P2, Q) tables the chain was assembled on."""
    with mock.patch.object(nptest, "_assemble", wraps=nptest._assemble) as spy:
        try:
            if kind == "rr0":
                rep = rr0_converse_witness(d, n, eps, y)
            else:
                rep = converse_witness(d, n, eps, y, kind)
        except DomainError as e:
            rep = e
    tables = inspect.signature(nptest._assemble).bind(*spy.call_args.args, **spy.call_args.kwargs)
    return rep, tables.arguments["P2"], tables.arguments["Q"]


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
    rep, P2, Q = run_witness(kind, d, n, eps, y)
    if isinstance(rep, DomainError):
        # a coded scheme can abort to a W sequence the iid law never
        # emits; the reference rejects that table too
        event("rejected table")
        with pytest.raises(DomainError, match="product law has none"):
            witness_oracle.pair_llr_law(P2, Q)
        return
    res, upper, lower = witness_oracle.reference_checks(rep, P2, Q)

    if res is None:
        assert math.isnan(rep.beta)
        assert math.isnan(rep.np_threshold) and math.isnan(rep.np_randomization)
    else:
        event("beta computed")
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
                event("live step")
