"""Tests for atom laws, exact convolution, and the measured CLT gap.

The brute-force oracle enumerates all k^n symbol tuples directly, so the
convolution and tail code are checked against an implementation that
shares nothing with them.
"""

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from coordsim.cltverify import (
    AtomLaw,
    be_gap,
    convolve_n,
    density_law,
    law_stats,
)
from coordsim.errors import DomainError, ResourceLimitError, ShapeError
from coordsim.measures import gaussian_q
from coordsim.probability import (
    ConditionalPmf,
    DensityTable,
    JointPmf,
    Pmf,
    entropy_density,
    info_density,
)


def bsc_joint(delta: float) -> JointPmf:
    return JointPmf(0.5 * np.array([[1 - delta, delta], [delta, 1 - delta]]))


def brute_force_sum_law(law: AtomLaw, n: int):
    """Oracle: enumerate every length-n tuple of atoms."""
    table = {}
    for combo in itertools.product(range(law.n_atoms), repeat=n):
        s = round(sum(law.values[i] for i in combo), 9)
        table[s] = table.get(s, 0.0) + math.prod(law.probs[i] for i in combo)
    return sorted(table.items())


# ---------------------------------------------------------------------------
# AtomLaw construction
# ---------------------------------------------------------------------------


def test_atom_law_requires_increasing_values():
    with pytest.raises(DomainError):
        AtomLaw(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        AtomLaw(np.array([1.0, -1.0]), np.array([0.5, 0.5]))


def test_atom_law_requires_normalization():
    with pytest.raises(DomainError):
        AtomLaw(np.array([0.0, 1.0]), np.array([0.5, 0.6]))


def test_tail_conventions():
    law = AtomLaw(np.array([-1.0, 2.0]), np.array([0.3, 0.7]))
    assert law.tail_gt(-1.0) == pytest.approx(0.7)
    assert law.tail_ge(-1.0) == pytest.approx(1.0)
    assert law.tail_gt(2.0) == 0.0
    assert law.tail_ge(2.0) == pytest.approx(0.7)
    assert law.tail_gt(0.0) == pytest.approx(0.7)


def test_tails_reject_nan_threshold():
    law = AtomLaw(np.array([-1.0, 2.0]), np.array([0.3, 0.7]))
    with pytest.raises(DomainError, match="NaN"):
        law.tail_gt(math.nan)
    with pytest.raises(DomainError, match="NaN"):
        law.tail_ge(math.nan)


@given(
    values=st.lists(
        st.one_of(st.integers(-3, 3).map(float), st.floats(-4.0, 4.0)),
        min_size=1, max_size=4, unique=True,
    ),
    weights=st.lists(st.integers(1, 9), min_size=4, max_size=4),
    n=st.integers(1, 4),
)
def test_tails_bracket_brute_force_sum(values, weights, n):
    """tail_gt / tail_ge of the n-fold law at thresholds exactly on its
    atoms, against the exact sum over all atom sequences: a sum within
    float noise of the threshold counts for tail_ge only."""
    values = sorted(values)
    assume(all(b - a > 1e-6 for a, b in zip(values, values[1:])))
    w = np.array(weights[: len(values)], dtype=np.float64)
    law = AtomLaw(np.array(values), w / w.sum())
    total = convolve_n(law, n)
    exact: dict = {}
    for combo in itertools.product(range(law.n_atoms), repeat=n):
        s = sum(Fraction(law.values[i]) for i in combo)
        exact[s] = exact.get(s, 0.0) + math.prod(law.probs[i] for i in combo)
    # exact sums either coincide up to float noise or lie far apart
    sums = sorted(exact)
    gaps = [b - a for a, b in zip(sums, sums[1:])]
    assume(all(g < 1e-13 or g > 1e-6 for g in gaps))
    delta = Fraction(1, 10**9)
    for x in total.values:
        fx = Fraction(x)
        above = sum(pr for s, pr in exact.items() if s > fx + delta)
        at_or_above = sum(pr for s, pr in exact.items() if s > fx - delta)
        gt, ge = total.tail_gt(x), total.tail_ge(x)
        assert above - 1e-12 <= gt <= ge <= at_or_above + 1e-12
        assert gt == pytest.approx(above, abs=1e-12)
        assert ge == pytest.approx(at_or_above, abs=1e-12)
    lo, hi = float(total.values[0]), float(total.values[-1])
    assert total.tail_ge(lo) == pytest.approx(1.0, abs=1e-12)
    assert total.tail_gt(hi) == 0.0
    assert total.tail_gt(lo - 1.0) == total.tail_ge(lo)


# ---------------------------------------------------------------------------
# density pushforward
# ---------------------------------------------------------------------------


def test_density_law_bsc_two_atoms():
    j = bsc_joint(0.11)
    law = density_law(info_density(j), j)
    assert law.n_atoms == 2
    assert law.values[0] == pytest.approx(math.log2(2 * 0.11), abs=1e-12)
    assert law.values[1] == pytest.approx(math.log2(2 * 0.89), abs=1e-12)
    assert law.probs[0] == pytest.approx(0.11, abs=1e-12)
    assert law.probs[1] == pytest.approx(0.89, abs=1e-12)


def test_density_law_merges_ties():
    # copy chain: h(w|u) is identically 0 on support -> single atom
    j = JointPmf(np.array([[0.5, 0.0], [0.0, 0.5]]))
    law = density_law(info_density(j), j)
    assert law.n_atoms == 1
    assert law.values[0] == pytest.approx(1.0)
    assert law.probs[0] == pytest.approx(1.0)


def test_density_law_without_weight_on_support_is_a_shape_error():
    # nothing left to push forward: the empty atom law is AtomLaw's ShapeError
    dens = DensityTable(np.array([0.5, 1.5]), np.array([True, True]))
    with pytest.raises(ShapeError, match="non-empty"):
        density_law(dens, SimpleNamespace(probs=np.zeros(2)))


def test_density_law_moments_match_be_stats():
    from coordsim.measures import be_stats

    rng = np.random.default_rng(31)
    for _ in range(20):
        a = rng.random((3, 3)) + 1e-3
        j = JointPmf(a / a.sum())
        dens = info_density(j)
        s_direct = be_stats(dens, j)
        s_law = law_stats(density_law(dens, j))
        assert s_law.mu == pytest.approx(s_direct.mu, abs=1e-12)
        assert s_law.v == pytest.approx(s_direct.v, abs=1e-12)
        assert s_law.t3 == pytest.approx(s_direct.t3, abs=1e-12)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def test_convolve_binomial_hand_values():
    p, q = 0.11, 0.89
    lo, hi = math.log2(2 * p), math.log2(2 * q)
    law = AtomLaw(np.array([lo, hi]), np.array([p, q]))
    out = convolve_n(law, 3)
    assert out.n_atoms == 4
    np.testing.assert_allclose(out.values, [3 * lo, 2 * lo + hi, lo + 2 * hi, 3 * hi], atol=1e-10)
    np.testing.assert_allclose(out.probs, [p ** 3, 3 * p * p * q, 3 * p * q * q, q ** 3], atol=1e-12)


def test_convolve_one_is_identity():
    law = AtomLaw(np.array([0.0, 1.0]), np.array([0.4, 0.6]))
    out = convolve_n(law, 1)
    np.testing.assert_allclose(out.values, law.values)
    np.testing.assert_allclose(out.probs, law.probs)


def test_convolve_matches_brute_force():
    rng = np.random.default_rng(32)
    for _ in range(5):
        vals = np.sort(rng.normal(size=3))
        while np.min(np.diff(vals)) < 1e-6:
            vals = np.sort(rng.normal(size=3))
        pr = rng.random(3) + 0.1
        law = AtomLaw(vals, pr / pr.sum())
        out = convolve_n(law, 4)
        oracle = brute_force_sum_law(law, 4)
        assert out.n_atoms == len(oracle)
        for (ov, op), mv, mp in zip(oracle, out.values, out.probs):
            assert mv == pytest.approx(ov, abs=1e-8)
            assert mp == pytest.approx(op, abs=1e-12)


def test_convolve_moment_additivity():
    rng = np.random.default_rng(33)
    for _ in range(10):
        vals = np.sort(rng.normal(size=4) * 3)
        if np.min(np.diff(vals)) < 1e-6:
            continue
        pr = rng.random(4) + 0.05
        law = AtomLaw(vals, pr / pr.sum())
        base = law_stats(law)
        for n in (2, 5):
            s = law_stats(convolve_n(law, n))
            assert s.mu == pytest.approx(n * base.mu, abs=1e-9)
            assert s.v == pytest.approx(n * base.v, abs=1e-9)


def type_law(law: AtomLaw, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed form of the n-fold law of a k-atom law, ascending: one point
    per type (atom counts c summing to n, C(n+k-1, k-1) of them) with value
    c . values and the multinomial mass exp(lgamma(n+1) - sum lgamma(c+1)
    + c . log probs)."""
    k = law.n_atoms
    rows = math.comb(n + k - 1, k - 1)
    bars = itertools.chain.from_iterable(itertools.combinations(range(n + k - 1), k - 1))
    bars = np.fromiter(bars, dtype=np.int64, count=rows * (k - 1)).reshape(rows, k - 1)
    counts = np.diff(np.column_stack([np.full(rows, -1), bars, np.full(rows, n + k - 1)]), axis=1) - 1
    lg = np.array([math.lgamma(c + 1) for c in range(n + 1)])
    masses = np.exp(lg[n] - lg[counts].sum(axis=1) + counts @ np.log(law.probs))
    values = counts @ law.values
    order = np.argsort(values)
    return values[order], masses[order]


def chain3_law() -> AtomLaw:
    """i(W;U) of the 2-3 chain p_u = (0.55, 0.45), six distinct atoms."""
    p_u = np.array([0.55, 0.45])
    j = JointPmf(p_u[:, None] * np.array([[0.5, 0.3, 0.2], [0.1, 0.2, 0.7]]))
    return density_law(info_density(j), j)


CLOSED_FORM_LAWS = {
    "bsc": lambda: density_law(info_density(bsc_joint(0.11)), bsc_joint(0.11)),
    "three": lambda: AtomLaw(np.log2([0.3, 0.9, 1.7]), np.array([0.2, 0.5, 0.3])),
    "chain3": chain3_law,
}


@pytest.mark.parametrize(
    "name, n",
    [("bsc", n) for n in (1, 2, 7, 100, 1000, 2000, 4000)]
    + [("three", n) for n in (1, 5, 50, 200, 2000)]
    + [("chain3", n) for n in (1, 3, 12, 16, 24, 32)],
)
def test_convolve_matches_multinomial_types(name, n):
    """One atom per type; each atom value within n eps * n max|v| of its
    type's value (the recursive-summation bound n eps sum|x_i|; Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2); and the
    tail at every midpoint between atoms equal to the suffix sum of the
    multinomial masses within 16 n eps: n rounded products or lgamma terms,
    5x above the worst error seen (2.8e-12 at BSC n = 4000; 8.2e-13 at
    n = 2000, as with the convolution this law replaced)."""
    law = CLOSED_FORM_LAWS[name]()
    total = convolve_n(law, n)
    values, masses = type_law(law, n)
    assert total.n_atoms == values.size == math.comb(n + law.n_atoms - 1, law.n_atoms - 1)
    eps = np.finfo(np.float64).eps
    np.testing.assert_allclose(total.values, values, rtol=0, atol=n * eps * n * np.max(np.abs(law.values)))
    mids = (total.values[1:] + total.values[:-1]) / 2
    want = np.cumsum(masses[::-1])[::-1][np.searchsorted(values, mids, side="right")]
    got = np.cumsum(total.probs[::-1])[::-1][1:]  # the suffix sums be_gap reads
    np.testing.assert_allclose(got, want, rtol=0, atol=16 * n * eps)


def test_convolve_reaches_chain3_at_32():
    # one atom per type: C(37, 5) of them, far below the 2^26 cap
    assert convolve_n(chain3_law(), 32).n_atoms == math.comb(37, 5) == 435_897


def test_convolve_bsc_matches_binomial_oracle():
    """BSC(0.11) at n = 10^4: one atom per count c of the larger atom, at
    c hi + (n - c) lo, with the binomial masses comb(n, c) p^c q^(n-c)
    (exact integer binomials, their logs by math.log of the integer) and
    the tails summed exactly and rounded once, as math.fsum would, within
    the 16 n eps of the multinomial test."""
    n = 10_000
    law = CLOSED_FORM_LAWS["bsc"]()
    total = convolve_n(law, n)
    assert total.n_atoms == n + 1
    (lo, hi), (p_lo, p_hi) = law.values.tolist(), law.probs.tolist()
    eps = np.finfo(np.float64).eps
    values = [c * hi + (n - c) * lo for c in range(n + 1)]  # ascending in c
    np.testing.assert_allclose(total.values, values, rtol=0, atol=n * eps * n * max(abs(lo), abs(hi)))
    masses, comb = [], 1  # comb = math.comb(n, c), one exact step at a time
    for c in range(n + 1):
        masses.append(math.exp(math.log(comb) + c * math.log(p_hi) + (n - c) * math.log(p_lo)))
        comb = comb * (n - c) // (c + 1)
    # exact suffix sums: each mass is an integer multiple of 2^-1074
    suffix, want = 0, []
    for m in reversed(masses[1:]):
        num, den = m.as_integer_ratio()
        suffix += num << (1074 - den.bit_length() + 1)
        want.append(suffix / (1 << 1074))
    want.reverse()  # want[c] = P(S > atom c), correctly rounded
    got = np.cumsum(total.probs[::-1])[::-1][1:]
    np.testing.assert_allclose(got, want, rtol=0, atol=16 * n * eps)


@pytest.mark.parametrize("bad", [0, 2.5, math.nan, math.inf, True])
def test_convolve_and_gap_reject_bad_blocklengths(bad):
    law = AtomLaw(np.array([0.0, 1.0]), np.array([0.4, 0.6]))
    with pytest.raises(DomainError, match="blocklength"):
        convolve_n(law, bad)
    with pytest.raises(DomainError, match="blocklength"):
        be_gap(law, bad)


def test_convolve_respects_memory_cap(monkeypatch):
    monkeypatch.setenv("COORDSIM_MEM_CAP", "1000")
    vals = np.arange(64) * math.pi / 7  # irrational spacing: no merging
    law = AtomLaw(vals, np.full(64, 1.0 / 64))
    with pytest.raises(ResourceLimitError):
        convolve_n(law, 2)


# ---------------------------------------------------------------------------
# CLT gap
# ---------------------------------------------------------------------------


def test_be_gap_degenerate_law():
    law = AtomLaw(np.array([1.0]), np.array([1.0]))
    r = be_gap(law, 8)
    assert r.degenerate
    assert r.gap == 0.0
    assert r.bound == 0.0


def test_be_gap_matches_brute_force_scan():
    # oracle: recompute the sup by scanning one-sided tails at every atom of
    # a brute-force convolution, plus a dense grid as a safety net
    p, q = 0.3, 0.7
    law = AtomLaw(np.array([-1.0, 2.0]), np.array([p, q]))
    n = 6
    stats = law_stats(law)
    atoms = brute_force_sum_law(law, n)
    center, scale = n * stats.mu, math.sqrt(n * stats.v)

    def tail_gt(x):
        return sum(pr for v, pr in atoms if v > x + 1e-9)

    def tail_ge(x):
        return sum(pr for v, pr in atoms if v >= x - 1e-9)

    worst = 0.0
    for v, _ in atoms:
        t = (v - center) / scale
        worst = max(worst, abs(tail_gt(v) - gaussian_q(t)), abs(tail_ge(v) - gaussian_q(t)))
    for t in np.linspace(-5, 5, 4001):
        worst = max(worst, abs(tail_gt(center + t * scale) - gaussian_q(t)))

    r = be_gap(law, n)
    assert r.gap == pytest.approx(worst, abs=1e-9)
    assert not r.degenerate


def test_be_gap_within_bound_bsc_blocklengths():
    j = bsc_joint(0.11)
    law = density_law(info_density(j), j)
    for n in (4, 16, 64):
        r = be_gap(law, n)
        assert r.gap <= r.bound
        assert r.bound == pytest.approx(law_stats(law).b / math.sqrt(n), rel=1e-12)


def test_be_gap_bound_shrinks_like_sqrt_n():
    j = bsc_joint(0.2)
    law = density_law(info_density(j), j)
    r4, r16 = be_gap(law, 4), be_gap(law, 16)
    assert r16.bound == pytest.approx(r4.bound / 2, rel=1e-12)
    assert r16.gap < r4.bound
