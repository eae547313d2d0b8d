"""Differential tests: ``measures._ordered_tie_groups`` and
``measures.tie_groups`` against their reference with numpy's stable merge
sort (``tie_oracle.tie_groups``).

``_ordered_tie_groups`` finds the stable ascending order from the ranks of
the distinct values, by one of two routes chosen from their count (all
distinct, or with duplicates).  The
``np.add.reduceat`` sums read through that order depend on where each
group sits, so nothing less than ``np.argsort(kind="stable")``'s order,
bit for bit, keeps them.  ``tie_groups`` gives the same groups without the
order; with at most ``_FEW_DISTINCT`` distinct values it never sorts the
values, and reads each group's sums off per-rank gathers.  The strategies
draw every route, with exact ties from small pools, near-ties within
``TIE_TOL``, -0.0 beside 0.0, infinities and NaN.  Nothing here depends on
how ``np.unique`` finds the distinct values (it hashes on recent numpy and
sorts on older ones).
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, event, given
from hypothesis import strategies as st

import coordsim.nptest as nptest
import tie_oracle
from coordsim.measures import (
    _FEW_DISTINCT,
    TIE_TOL,
    _ordered_tie_groups,
    _stable_order,
    tie_groups,
)
from test_tie_runs import same_bits

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan]
NEAR = [1.0, 1.0 + 0.4e-12, 1.0 + 0.8e-12, 1.0 + 1.6e-12]  # within and beyond TIE_TOL
finite = st.floats(-1e3, 1e3, allow_nan=False)


def spread(min_size: int, max_size: int):
    """Distinct finite values i / 7."""
    ints = st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=min_size, max_size=max_size, unique=True)
    return ints.map(lambda v: [i / 7.0 for i in v])


@st.composite
def tie_arrays(draw):
    """Values for each route of ``_stable_order``: all distinct (sizes from
    0), at most ``_FEW_DISTINCT`` (specials, near-ties and any floats) with
    repeats, or more than ``_FEW_DISTINCT`` with repeats."""
    route = draw(st.sampled_from(["few", "distinct", "many"]))
    event(f"route {route}")
    if route == "distinct":
        values = draw(spread(0, 60))
        if draw(st.booleans()):
            values += draw(st.sampled_from([[np.nan], [np.inf], [-np.inf, np.inf]]))
        return np.array(draw(st.permutations(values)), dtype=np.float64)
    if route == "few":
        pool = draw(st.lists(st.sampled_from(SPECIAL + NEAR) | finite, min_size=1,
                             max_size=_FEW_DISTINCT))
        values, least = [], len(pool) + 1  # more picks than values: some repeat
    else:  # every value of the pool, more than _FEW_DISTINCT distinct, and repeats
        pool = SPECIAL + NEAR + draw(spread(_FEW_DISTINCT, 40))
        values, least = pool, 1
    values = values + [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1),
                                                        min_size=least, max_size=120))]
    return np.array(draw(st.permutations(values)), dtype=np.float64)


def assert_same_groups(x: np.ndarray, masses: list) -> None:
    """Both ``_ordered_tie_groups`` and the order-free ``tie_groups`` give
    the reference's heads, values and sums, bit for bit, and the first
    its order too."""
    want = tie_oracle.tie_groups(x, *masses)
    ordered = _ordered_tie_groups(x, *masses)
    assert ordered[0].dtype == want[0].dtype and np.array_equal(ordered[0], want[0])
    for got in (ordered[1:], tie_groups(x, *masses)):
        assert len(got) == len(want) - 1
        assert got[0].dtype == want[1].dtype and np.array_equal(got[0], want[1])
        for a, b in zip(got[1:], want[2:]):
            assert same_bits(a, b)


@given(x=tie_arrays(), seed=st.integers(0, 2 ** 32 - 1))
def test_tie_groups_match_the_stable_argsort_reference(x, seed):
    distinct = np.unique(x).size
    event("all distinct" if distinct == x.size else
          f"at most {_FEW_DISTINCT} distinct" if distinct <= _FEW_DISTINCT else "many with ties")
    rng = np.random.default_rng(seed)
    assert_same_groups(x, [rng.uniform(1e-6, 1.0, x.size), rng.uniform(1e-6, 1.0, x.size)])


@st.composite
def few_value_arrays(draw):
    """At most ``_FEW_DISTINCT`` distinct values: specials (NaN, +-inf,
    -0.0 beside 0.0), chains of steps within ``TIE_TOL`` whose span
    exceeds it (groups over several values), and any floats, repeated."""
    start = draw(finite)
    steps = draw(st.lists(st.sampled_from([0.3, 0.6, 0.9, 2.0]), max_size=6))
    chain = [start + TIE_TOL * s for s in itertools.accumulate(steps, initial=0.0)]
    pool = draw(st.lists(st.sampled_from(SPECIAL + NEAR + chain) | finite, min_size=1,
                         max_size=_FEW_DISTINCT, unique_by=lambda v: v.hex()))
    pool = pool[:_FEW_DISTINCT]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=0, max_size=150))
    return np.array([pool[i] for i in picks], dtype=np.float64)


MASS = st.sampled_from([0.0, -0.0, 1e-300, 0.5, 1.0]) | st.floats(0.0, 1.0)


@given(x=few_value_arrays(), data=st.data())
def test_lean_tie_groups_match_the_reference(x, data):
    """The order-free route of ``tie_groups`` (at most ``_FEW_DISTINCT``
    distinct values) gives the reference's heads, values and sums, bit for
    bit, for any masses, -0.0 among them."""
    assume(np.unique(x).size <= _FEW_DISTINCT)
    masses = [np.array(data.draw(st.lists(MASS, min_size=x.size, max_size=x.size)))
              for _ in range(2)]
    heads, values, *sums = tie_groups(x, *masses)
    want = tie_oracle.tie_groups(x, *masses)
    if heads.size and heads.size < np.unique(x).size:
        event("a group over several values")
    assert heads.dtype == want[1].dtype and np.array_equal(heads, want[1])
    assert same_bits(values, want[2])
    for a, b in zip(sums, want[3:]):
        assert same_bits(a, b)


@pytest.mark.parametrize("distinct", [1, 2, 5, _FEW_DISTINCT, _FEW_DISTINCT + 1, 300, 4001])
def test_large_arrays_keep_the_stable_order(distinct):
    """Each route at a size where numpy's sorts run their large-array code,
    on either side of ``_FEW_DISTINCT``, with -0.0 beside 0.0 and NaNs
    among the values."""
    rng = np.random.default_rng(distinct)
    pool = np.concatenate(([0.0, np.nan], rng.normal(size=max(distinct - 2, 0))))[:distinct]
    x = pool[rng.integers(0, distinct, 50_000)]
    x[np.flatnonzero(x == 0.0)[::2]] = -0.0
    assert np.unique(x).size == distinct
    assert np.array_equal(_stable_order(x), np.argsort(x, kind="stable"))
    assert_same_groups(x, [rng.uniform(size=x.size)])


def test_large_arrays_with_one_tie_keep_the_stable_order():
    """All distinct, then one equal pair (an unstable argsort orders such a
    pair either way), and -0.0 beside 0.0."""
    rng = np.random.default_rng(1)
    x = rng.permutation(50_000) / 7.0
    assert np.array_equal(_stable_order(x), np.argsort(x, kind="stable"))
    for i, j in rng.choice(x.size, (8, 2), replace=False):
        y = x.copy()
        y[j] = y[i]
        assert np.array_equal(_stable_order(y), np.argsort(y, kind="stable"))
    y = x.copy()
    y[rng.integers(y.size)] = -0.0
    assert np.array_equal(_stable_order(y), np.argsort(y, kind="stable"))


def test_coded_witness_law_keeps_the_stable_order(monkeypatch):
    """The coded copy-chain witness at n = 10 sorts 786,514 log-ratios with
    5 distinct values: every tie group it reads equals the reference's."""
    from test_nptest import uniform_copy_chain

    sizes = []

    def checked(x, *masses):
        sizes.append((x.size, np.unique(x).size))
        assert_same_groups(x, list(masses))
        return tie_groups(x, *masses)

    monkeypatch.setattr(nptest, "tie_groups", checked)
    nptest.converse_witness(uniform_copy_chain(), n=10, eps=0.9, y=0.6, mode="coded")
    assert sizes == [(786_514, 5)]
