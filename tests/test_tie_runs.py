"""Differential tests: the vectorized tie groups against the per-element
references in ``tie_oracle``.

Atom merging, the convolution built on it, the likelihood-ratio tie groups
and the Neyman-Pearson solution must come out with the same float bits as
the references.  The strategies make the cases that decide a group
boundary: chains of steps below the tolerance whose span exceeds it (the
anchored re-scan), exact duplicates, all-distinct values, cells with
q = 0 (+inf ratios) and cells with p = 0.
"""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, given
from hypothesis import strategies as st

import tie_oracle
from coordsim.cltverify import AtomLaw, _atom_law, be_gap, convolve_n, law_stats
from coordsim.errors import CoordsimError, DomainError
from coordsim.measures import (
    TIE_TOL,
    _ordered_tie_groups,
    group_at,
    group_tail,
    tie_groups,
    tie_heads,
)
from coordsim.nptest import _llr_groups, _np_inputs, _np_solve, beta_sandwich, np_test


def same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def note_ties(x: np.ndarray) -> None:
    """Record which tie cases the ascending array ``x`` exercises; a
    re-scan is a run between steps > TIE_TOL whose span exceeds TIE_TOL,
    which ``tie_heads`` walks value by value."""
    if x.size < 2:
        return
    with np.errstate(invalid="ignore"):
        steps = np.diff(x)
        heads = np.concatenate(([0], np.flatnonzero(steps > TIE_TOL) + 1))
        tails = np.append(heads[1:], x.size) - 1
        if np.any(x[tails] - x[heads] > TIE_TOL):
            event("anchored re-scan")
    if np.all(steps > TIE_TOL):
        event("all distinct")
    if np.any(steps == 0.0):
        event("exact duplicates")


@st.composite
def tie_prone(draw, lo: float, hi: float, min_size: int, max_size: int):
    """Ascending values: each step repeats the last value, moves by
    0.3e-12 to 0.9e-12, or jumps (some draws use only one kind of step)."""
    n = draw(st.integers(min_size, max_size))
    x = draw(st.floats(lo, hi))
    palette = draw(st.sampled_from([("same", "near", "jump"), ("jump",), ("near",), ("near", "jump")]))
    kinds = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    out = []
    for kind in kinds:
        if kind == "near":
            x += draw(st.floats(0.3e-12, 0.9e-12))
        elif kind == "jump":
            x += draw(st.floats(1e-9, 3.0))
        out.append(x)
    return np.array(out)


masses = st.floats(1e-6, 1.0)


@pytest.mark.parametrize(
    "x, heads",
    [
        ([0.0, 1e-12], [0]),  # a step of exactly TIE_TOL joins
        ([0.0, 0.5e-12, 1e-12, 1.5e-12, 2e-12], [0, 3]),  # so does a span of exactly TIE_TOL
        ([-np.inf, -np.inf, 0.0, 1e-12], [0, 2]),  # infinities tie only with each other
        ([1.0, np.inf, np.inf], [0, 1]),
    ],
)
def test_tie_heads_hand_values(x, heads):
    assert tie_heads(np.array(x)).tolist() == heads


@given(data=st.data())
def test_merge_matches_oracle(data):
    values = data.draw(tie_prone(-40.0, 40.0, 0, 60))
    probs = np.array(data.draw(st.lists(masses, min_size=values.size, max_size=values.size)))
    note_ties(values)
    perm = np.array(data.draw(st.permutations(range(values.size))), dtype=np.intp)
    # ascending as drawn, and shuffled: tie_groups sorts its input itself
    for x, m in ((values, probs), (values[perm], probs[perm])):
        stable = sorted(range(x.size), key=x.__getitem__)  # Python's sort is stable
        order, heads, got_v, got_p = _ordered_tie_groups(x, m)
        assert order.tolist() == stable
        want_v, want_p = tie_oracle.merge_sorted(x[stable], m[stable])
        assert same_bits(got_v, want_v)
        assert same_bits(got_p, want_p)
        assert same_bits(x[order][heads], want_v)
        lean_heads, lean_v, lean_p = tie_groups(x, m)  # the same groups without the order
        assert np.array_equal(lean_heads, heads)
        assert same_bits(lean_v, want_v)
        assert same_bits(lean_p, want_p)


@given(data=st.data(), n=st.integers(1, 6))
def test_convolve_and_gap_match_oracle(data, n):
    values = data.draw(tie_prone(-3.0, 3.0, 1, 6))
    values = np.unique(values)  # an AtomLaw is strictly increasing
    w = np.array(data.draw(st.lists(masses, min_size=values.size, max_size=values.size)))
    law = AtomLaw(values, w / w.sum())
    got = convolve_n(law, n)
    want = tie_oracle.type_convolve_n(law, n)
    if n > 1:
        note_ties(np.sort(np.add.outer(values, values).ravel()))
    assert same_bits(got.values, want.values)
    assert same_bits(got.probs, want.probs)
    stats = law_stats(law)
    if not stats.degenerate:
        center, scale = n * stats.mu, np.sqrt(n * stats.v)
        assert same_bits(be_gap(law, n).gap, tie_oracle.be_gap_worst(want, center, scale))


@given(
    start=st.floats(-4.0, 0.0),
    steps=st.lists(st.floats(1e-6, 2.0), min_size=2, max_size=4),
    weights=st.lists(st.integers(1, 9), min_size=5, max_size=5),
    n=st.integers(1, 12),
)
def test_schedule_matches_squaring(start, steps, weights, n):
    """The n-fold law over types against both convolution schedules it
    replaced (squaring then single letters, and pure squaring): the same
    atoms, values within 1e-12, masses within 1e-15 and the gap within
    1e-12, on laws of 3 to 5 atoms at least 1e-6 apart whose distinct
    n-fold sums lie far apart."""
    values = [start]
    for step in steps:
        values.append(values[-1] + step)
    assume(all(b - a >= 1e-6 for a, b in zip(values, values[1:])))  # after rounding
    k = len(values)
    sums = sorted(
        {sum((Fraction(values[i]) for i in combo), Fraction(0))
         for combo in itertools.combinations_with_replacement(range(k), n)}
    )
    assume(all(b - a > 1e-9 for a, b in zip(sums, sums[1:])))
    w = np.array(weights[:k], dtype=np.float64)
    law = AtomLaw(np.array(values), w / w.sum())
    got = convolve_n(law, n)
    stats = law_stats(law)
    for want in (tie_oracle.convolve_n(law, n), tie_oracle.convolve_n_squaring(law, n)):
        if not (same_bits(got.values, want.values) and same_bits(got.probs, want.probs)):
            event("last bits differ from a schedule")
        assert got.n_atoms == want.n_atoms
        np.testing.assert_allclose(got.values, want.values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.probs, want.probs, rtol=0, atol=1e-15)
        if not stats.degenerate:
            # the gap moves by phi(t) / scale per unit of atom value, which
            # is 5e5 on atoms 1e-6 apart: the schedules' masses are checked
            # at the types' values, which were checked above
            center, scale = n * stats.mu, np.sqrt(n * stats.v)
            at_types = AtomLaw(got.values, want.probs)
            assert be_gap(law, n).gap == pytest.approx(tie_oracle.be_gap_worst(at_types, center, scale), abs=1e-12)


@st.composite
def law_pairs(draw, q_zero: bool = True):
    """(p, q, alpha) with near-tie ratio chains, p = 0 cells and (with
    ``q_zero``) q = 0 cells."""
    llr = draw(tie_prone(-20.0, 20.0, 1, 40))
    n = llr.size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = rng.uniform(0.01, 1.0, size=n)
    p = q * np.exp2(llr)
    cells = ["ratio", "ratio", "ratio", "q0", "p0"] if q_zero else ["ratio", "ratio", "p0"]
    kinds = draw(st.lists(st.sampled_from(cells), min_size=n, max_size=n))
    kinds = np.array(kinds)
    p[kinds == "p0"] = 0.0
    q[kinds == "q0"] = 0.0
    if p.sum() == 0.0 or q.sum() == 0.0:
        p[0], q[0] = 1.0, 1.0
        kinds[0] = "ratio"
    # the ratio chain is shuffled over the outcomes
    perm = rng.permutation(n)
    p, q, kinds = p[perm], q[perm], kinds[perm]
    if np.any(kinds == "q0"):
        event("q = 0 cell (+inf ratio)")
    if np.any(kinds == "p0"):
        event("p = 0 cell")
    alpha = draw(st.floats(0.001, 0.999))
    return _np_inputs(p / p.sum(), q / q.sum(), alpha)


def assert_groups_match(p, q):
    got = _llr_groups(p, q)
    want = tie_oracle.llr_groups(p, q)
    assert got.heads.size == len(want)
    assert same_bits(got.llr, [g[0] for g in want])
    assert same_bits(got.p, [g[1] for g in want])
    assert same_bits(got.q, [g[2] for g in want])
    assert np.array_equal(got.idx, np.concatenate([g[3] for g in want]))
    assert np.array_equal(got.heads, np.cumsum([0] + [g[3].size for g in want[:-1]]))
    return got, want


def assert_solutions_match(p, q, alpha):
    got, want = assert_groups_match(p, q)
    try:
        want_res, want_dec = tie_oracle.np_solve(want, p.size, alpha)
    except CoordsimError as exc:
        with pytest.raises(CoordsimError, match=re.escape(str(exc))):
            _np_solve(got, alpha)
        return got, want
    got_res, _ = _np_solve(got, alpha)
    assert same_bits(got_res.beta, want_res.beta)
    assert same_bits(got_res.threshold, want_res.threshold)
    assert same_bits(got_res.randomization, want_res.randomization)
    # np_test builds the decision vector; p and q already passed _np_inputs
    assert same_bits(np_test(p, q, alpha).decision, want_dec)
    return got, want


@given(law=law_pairs())
def test_llr_groups_and_np_solution_match_oracle(law):
    p, q, alpha = law
    with np.errstate(divide="ignore"):
        note_ties(np.sort(np.log2(p[p > 0] / q[p > 0])))
    _, want = assert_solutions_match(p, q, alpha)
    # alpha exactly at the p-mass of the top groups: the last of them is
    # the boundary group, accepted with probability 1
    for boundary in np.cumsum([g[1] for g in reversed(want)])[:3].tolist():
        if 0.0 < boundary < 1.0:
            assert_solutions_match(p, q, boundary)
    if max(g[3].size for g in want) >= 9:
        event("tie group of 9+ outcomes")
    # beta_sandwich normalizes its inputs once more, as every entry point does
    pn, qn, _ = _np_inputs(p, q, alpha)
    want_beta = tie_oracle.np_solve(tie_oracle.llr_groups(pn, qn), p.size, alpha)[0].beta
    assert same_bits(beta_sandwich(p, q, alpha, [0.5, 1.0, 2.0]).beta, want_beta)


def test_large_tie_groups_match_oracle():
    """Groups long enough for numpy's blocked pairwise summation (8
    accumulators, blocks of 128 terms) carry the bits of a sum over the
    group's own slice, wherever the group starts in the sorted array."""
    rng = np.random.default_rng(5)
    sizes = [1, 2, 7, 8, 9, 127, 128, 129, 300, 5000]
    llr = np.repeat(np.linspace(-3.0, 3.0, len(sizes)), sizes)
    q = rng.uniform(0.01, 1.0, size=llr.size)
    p = q * np.exp2(llr)
    perm = rng.permutation(llr.size)
    for alpha in (0.05, 0.5, 0.97):
        pa, qa, alpha = _np_inputs(p[perm] / p.sum(), q[perm] / q.sum(), alpha)
        assert_solutions_match(pa, qa, alpha)


@given(law=law_pairs(q_zero=False))
def test_llr_groups_are_the_atoms_of_the_llr_law(law):
    """Without q = 0 cells the Neyman-Pearson groups are the atoms of the
    law of log2(p/q) under p, bit for bit: one grouping, one anchor, one
    summation."""
    p, q, _ = law
    sup = p > 0
    llr = np.log2(p[sup] / q[sup])
    note_ties(np.sort(llr))
    g = _llr_groups(p, q)
    atoms = _atom_law(llr, p[sup])
    assert same_bits(g.llr, atoms.values)
    assert same_bits(g.p, atoms.probs)


def test_one_large_group_sums_accurately():
    """A single tie group of 200,000 masses sums within 1e-15 relative of
    the correctly rounded total, as an atom and as a Neyman-Pearson group
    (a sequential sum drifts by 1.7e-14 here)."""
    rng = np.random.default_rng(2)
    p = rng.uniform(0.0, 1.0, size=200_000)
    p /= p.sum()
    exact = math.fsum(p)
    atom = _atom_law(np.zeros(p.size), p)
    group = _llr_groups(p, p)
    assert atom.n_atoms == 1 and group.heads.size == 1
    for mass in (atom.probs[0], group.p[0]):
        assert abs(mass - exact) <= 1e-15 * exact


@given(law=law_pairs())
def test_group_tails_are_prefix_sums(law):
    """``group_tail`` on Neyman-Pearson groups counts a group by its
    smallest ratio and sums a suffix of the groups, with the bits of the
    masked sum."""
    p, q, _ = law
    g = _llr_groups(p, q)
    finite = g.llr[np.isfinite(g.llr)]
    xs = [*g.llr.tolist(), *((finite[1:] + finite[:-1]) / 2).tolist(), -np.inf, np.inf, 0.0]
    for x in xs:
        assert same_bits(group_tail(g.llr, g.p, x, strict=True), g.p[g.llr > x].sum())
        assert same_bits(group_tail(g.llr, g.p, x, strict=False), g.p[g.llr >= x].sum())


def test_group_tails_reject_nan_threshold():
    g = _llr_groups(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
    for strict in (True, False):
        with pytest.raises(DomainError, match="NaN"):
            group_tail(g.llr, g.p, float("nan"), strict=strict)


def test_group_at_snaps_to_the_nearest_group_within_tie_tol():
    """A threshold within ``TIE_TOL`` of a group value is read at the
    nearest such value; anything farther, NaN included, is returned as is."""
    values = np.array([-np.inf, 0.0, 1.5e-12, 1.0, np.inf])
    assert group_at(values, 0.7e-12) == 0.0
    assert group_at(values, 0.8e-12) == 1.5e-12
    assert group_at(values, -TIE_TOL) == 0.0
    assert group_at(values, 1.0 - 0.5e-12) == 1.0
    assert group_at(values, 0.5) == 0.5
    assert group_at(values, np.inf) == np.inf
    assert math.isnan(group_at(values, float("nan")))
