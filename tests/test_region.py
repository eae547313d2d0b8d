"""Tests for the finite-blocklength rate region bounds.

Closed-form expectations are frozen from hand evaluation of the bound
formulas; the brute-force oracles recompute mutual informations by direct
summation over all outcome triples.
"""

import math
from unittest import mock

import numpy as np
import pytest

from coordsim import region
from coordsim.errors import DomainError, ShapeError
from coordsim.probability import ConditionalPmf, JointPmf, Pmf
from coordsim.region import (
    Decomposition,
    GammaTriple,
    RegionPoint,
    asymptotic_region,
    closed_result_check,
    gamma_tradeoff,
    inner_bound,
    outer_bound,
    parse_gamma_rule,
    stats_wu,
    stats_wuv,
)


def bsc(delta: float) -> ConditionalPmf:
    return ConditionalPmf(np.array([[1 - delta, delta], [delta, 1 - delta]]))


def identity_channel(k: int) -> ConditionalPmf:
    return ConditionalPmf(np.eye(k))


def copy_decomposition() -> Decomposition:
    """W = U = V, uniform binary: both dispersions degenerate."""
    return Decomposition(Pmf.uniform(2), identity_channel(2), identity_channel(2))


def bsc_decomposition(delta: float = 0.1) -> Decomposition:
    """Uniform U, W through BSC(delta), V = W."""
    return Decomposition(Pmf.uniform(2), bsc(delta), identity_channel(2))


def h2(d: float) -> float:
    return -d * math.log2(d) - (1 - d) * math.log2(1 - d)


# ---------------------------------------------------------------------------
# Decomposition type
# ---------------------------------------------------------------------------


def test_decomposition_enforces_cardinality_bound():
    # |U|=|V|=2 allows |W| <= 5
    rows_wu = np.full((2, 6), 1.0 / 6)
    rows_vw = np.full((6, 2), 0.5)
    with pytest.raises(DomainError):
        Decomposition(Pmf.uniform(2), ConditionalPmf(rows_wu), ConditionalPmf(rows_vw))
    ok = Decomposition(
        Pmf.uniform(2),
        ConditionalPmf(np.full((2, 5), 0.2)),
        ConditionalPmf(np.full((5, 2), 0.5)),
    )
    assert ok.w_size == 5


def test_decomposition_size_mismatch():
    with pytest.raises(ShapeError, match="w_given_u expects 2 input letters, p_u has 3"):
        Decomposition(Pmf.uniform(3), bsc(0.1), bsc(0.1))


# ---------------------------------------------------------------------------
# asymptotic region
# ---------------------------------------------------------------------------


def test_asymptotic_region_independent_w():
    d = Decomposition(
        Pmf.uniform(2),
        ConditionalPmf(np.array([[0.3, 0.7], [0.3, 0.7]])),  # W independent of U
        ConditionalPmf(np.array([[0.5, 0.5], [0.5, 0.5]])),  # V independent of W
    )
    i_wu, i_wuv = asymptotic_region(d)
    assert abs(i_wu) <= 1e-12
    assert abs(i_wuv) <= 1e-12


def test_asymptotic_region_copies():
    assert asymptotic_region(copy_decomposition()) == pytest.approx((1.0, 1.0), abs=1e-12)


def test_asymptotic_region_bsc_brute_force():
    d = bsc_decomposition(0.1)
    joint = d.joint().probs  # (u, w, v)
    # oracle: direct summation over all 8 triples
    p_w = joint.sum(axis=(0, 2))
    p_u = joint.sum(axis=(1, 2))
    p_uw = joint.sum(axis=2)
    i_wu = sum(
        p_uw[u, w] * math.log2(p_uw[u, w] / (p_u[u] * p_w[w]))
        for u in range(2)
        for w in range(2)
        if p_uw[u, w] > 0
    )
    p_uv_w = joint  # (u, w, v) with v = w support only
    i_wuv = sum(
        p_uv_w[u, w, v] * math.log2(p_uv_w[u, w, v] / (joint.sum(axis=1)[u, v] * p_w[w]))
        for u in range(2)
        for w in range(2)
        for v in range(2)
        if p_uv_w[u, w, v] > 0
    )
    got = asymptotic_region(d)
    assert got[0] == pytest.approx(i_wu, abs=1e-12)
    assert got[1] == pytest.approx(i_wuv, abs=1e-12)
    assert got[0] == pytest.approx(1 - h2(0.1), abs=1e-12)


def test_i_wuv_dominates_i_wu_randomized():
    rng = np.random.default_rng(41)
    for _ in range(40):
        pu_raw = rng.random(2) + 0.05
        rows_wu = rng.random((2, 3)) + 0.05
        rows_vw = rng.random((3, 2)) + 0.05
        d = Decomposition(
            Pmf(pu_raw / pu_raw.sum()),
            ConditionalPmf(rows_wu / rows_wu.sum(axis=1, keepdims=True)),
            ConditionalPmf(rows_vw / rows_vw.sum(axis=1, keepdims=True)),
        )
        i_wu, i_wuv = asymptotic_region(d)
        assert i_wuv >= i_wu - 1e-9


# ---------------------------------------------------------------------------
# gamma rules
# ---------------------------------------------------------------------------


def test_gamma_rule_parsing():
    g = parse_gamma_rule("logn", 16)
    assert (g.g1, g.g2, g.g3) == (4.0, 2.0, 4.0)
    g = parse_gamma_rule("linear:0.5", 10)
    assert (g.g1, g.g2, g.g3) == (10.0, 5.0, 10.0)
    g = parse_gamma_rule("fixed:6,3,6", 999)
    assert (g.g1, g.g2, g.g3) == (6.0, 3.0, 6.0)
    with pytest.raises(DomainError):
        parse_gamma_rule("logn", 1)
    with pytest.raises(DomainError):
        parse_gamma_rule("cubic", 8)
    for bad in ("linear:abc", "linear:", "linear:1,2", "fixed:6,3", "fixed:6,x,6"):
        with pytest.raises(DomainError, match="gamma rule must be"):
            parse_gamma_rule(bad, 8)


@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, True])
def test_bounds_reject_bad_blocklengths(bad):
    # closed_result_check(d, 0.3, 2.5) used to return True, and NaN / inf
    # failed inside the gamma rule with a message about g1
    d = bsc_decomposition()
    calls = [
        lambda: inner_bound(d, 0.1, 0.1, bad, GammaTriple(2.0, 1.0, 2.0)),
        lambda: outer_bound(d, 0.3, bad),
        lambda: gamma_tradeoff([1.0], bad, 0.1, 0.1),
        lambda: closed_result_check(d, 0.3, bad),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="blocklength"):
            call()


def test_gamma_triple_positivity():
    with pytest.raises(DomainError):
        GammaTriple(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        GammaTriple(-1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# inner bound
# ---------------------------------------------------------------------------


def test_inner_bound_log_rule_tail_constant():
    # with (log n, log n / 2, log n) the tail term collapses to (10+2sqrt2)/sqrt(n)
    d = bsc_decomposition()
    for n in (4, 16, 256, 4096):
        g = parse_gamma_rule("logn", n)
        pt = inner_bound(d, 0.025, 0.025, n, g)
        assert pt.notes["gamma_tail"] == pytest.approx((10 + 2 * math.sqrt(2)) / math.sqrt(n), abs=1e-12)


def test_inner_bound_copy_hand_formula():
    # W=U copy: I=1, V=0, so rMin = 1 + (3/2) log2(n)/n under the log rule
    d = copy_decomposition()
    for n in (4, 64, 1024):
        pt = inner_bound(d, 0.1, 0.1, n, parse_gamma_rule("logn", n))
        assert pt.r_min == pytest.approx(1 + 1.5 * math.log2(n) / n, abs=1e-12)
        assert pt.valid


def test_inner_bound_median_eps_drops_gaussian_term():
    d = bsc_decomposition()
    g = GammaTriple(2.0, 1.0, 2.0)
    pt = inner_bound(d, 0.5, 0.5, 17, g)
    i_wu, i_wuv = asymptotic_region(d)
    assert pt.r_min == pytest.approx(i_wu + 3.0 / 17, abs=1e-12)
    assert pt.r_plus_r0_min == pytest.approx(i_wuv + 3.0 / 17, abs=1e-12)


def test_inner_bound_eps_star_uses_each_pairs_constant():
    # V noisy as well, so both information-density pairs are nondegenerate
    d = Decomposition(Pmf.uniform(2), bsc(0.1), bsc(0.2))
    n = 100
    pt = inner_bound(d, 0.2, 0.3, n, GammaTriple(2.0, 1.0, 2.0))
    assert pt.notes["eps1_star"] == pytest.approx(0.2 + stats_wuv(d).b / math.sqrt(n), abs=1e-12)
    assert pt.notes["eps2_star"] == pytest.approx(0.3 + stats_wu(d).b / math.sqrt(n), abs=1e-12)
    expected = 10 * (pt.notes["eps1_star"] + pt.notes["eps2_star"]) + pt.notes["gamma_tail"]
    assert pt.eps_tot_bound == pytest.approx(expected, abs=1e-12)


def test_inner_bound_monotone_in_eps2_and_n():
    d = bsc_decomposition()
    g = GammaTriple(2.0, 1.0, 2.0)
    values = [inner_bound(d, 0.1, e, 64, g).r_min for e in (0.05, 0.1, 0.2, 0.4)]
    assert all(a > b for a, b in zip(values, values[1:]))
    by_n = [inner_bound(d, 0.1, 0.1, n, g).r_min for n in (16, 64, 256, 1024)]
    assert all(a >= b - 1e-12 for a, b in zip(by_n, by_n[1:]))


def test_inner_bound_sum_rate_dominates_at_large_n():
    rng = np.random.default_rng(42)
    for _ in range(20):
        pu_raw = rng.random(2) + 0.05
        rows_wu = rng.random((2, 3)) + 0.05
        rows_vw = rng.random((3, 2)) + 0.05
        d = Decomposition(
            Pmf(pu_raw / pu_raw.sum()),
            ConditionalPmf(rows_wu / rows_wu.sum(axis=1, keepdims=True)),
            ConditionalPmf(rows_vw / rows_vw.sum(axis=1, keepdims=True)),
        )
        pt = inner_bound(d, 0.3, 0.3, 10 ** 6, parse_gamma_rule("logn", 10 ** 6))
        assert pt.r_plus_r0_min >= pt.r_min - 1e-9


# ---------------------------------------------------------------------------
# outer bound
# ---------------------------------------------------------------------------


def test_outer_bound_high_eps_copy_exact():
    # degenerate dispersion: argument is exactly eps - y
    d = copy_decomposition()
    n = 10 ** 6
    pt = outer_bound(d, eps=0.9, n=n, y=0.6)
    assert pt.valid
    assert pt.r_min == pytest.approx(1 + math.log2(0.3) / n, abs=1e-12)


def test_outer_bound_low_eps_invalid_but_finite():
    d = bsc_decomposition()
    pt = outer_bound(d, eps=0.1, n=100, y=0.75)
    assert not pt.valid
    assert math.isfinite(pt.r_min)
    assert pt.notes["log_arg_r"] < 0
    # log term omitted: what remains is exactly the Gaussian part
    s = stats_wu(d)
    i_wu, _ = asymptotic_region(d)
    from coordsim.measures import gaussian_q_inv

    assert pt.r_min == pytest.approx(i_wu + gaussian_q_inv(0.1) * math.sqrt(s.v / 100), abs=1e-12)


def test_outer_bound_g_term_hand_value():
    # binary U,V at eps = 0.25: the sum-rate correction is 4*0.25*(2+2) = 4 bits
    d = copy_decomposition()
    pt = outer_bound(d, eps=0.25, n=50, y=0.6)
    assert 2 * pt.notes["g_eps"] == pytest.approx(4.0, abs=1e-12)
    i_wuv = asymptotic_region(d)[1]
    # degenerate: rr0 = I - 4 (log term omitted since 0.25 < y)
    assert pt.r_plus_r0_min == pytest.approx(i_wuv - 4.0, abs=1e-12)
    assert not pt.valid


def test_outer_bound_validates_y():
    d = copy_decomposition()
    for bad in (0.5, 1.0, 0.2, 1.3, 1.2, True, "0.7"):
        with pytest.raises(DomainError, match="split parameter"):
            outer_bound(d, 0.9, 10, y=bad)


def test_outer_bound_berry_esseen_blocks_small_n():
    # nondegenerate binary laws have B >= 6, so eps - y - 2B/sqrt(n) < 0
    # until n is large: the converse regime needs big blocks
    # (here B for the (W;U) pair is about 16.4, so the threshold is n ~ 1.2e4)
    d = bsc_decomposition()
    assert not outer_bound(d, 0.9, 100, y=0.6).valid
    assert not outer_bound(d, 0.9, 10 ** 4, y=0.6).valid
    assert outer_bound(d, 0.9, 10 ** 5, y=0.6).valid


# ---------------------------------------------------------------------------
# gamma tradeoff
# ---------------------------------------------------------------------------


def test_gamma_tradeoff_endpoint_constant():
    [(penalty, bound)] = gamma_tradeoff([0.0], n=8, eps1=0.0, eps2=0.0)
    assert penalty == 0.0
    assert bound == pytest.approx(2 * (math.sqrt(2) + 5), abs=1e-12)


def test_gamma_tradeoff_large_x_limit():
    [(penalty, bound)] = gamma_tradeoff([60.0], n=10, eps1=0.05, eps2=0.1)
    assert bound == pytest.approx(10 * 0.15, abs=1e-12)
    assert penalty == pytest.approx(18.0, abs=1e-12)


def test_gamma_tradeoff_log_point():
    [(penalty, _)] = gamma_tradeoff([4.0], n=16, eps1=0.0, eps2=0.0)
    assert penalty == pytest.approx(3 * 4 / 16, abs=1e-15)


def test_gamma_tradeoff_x_one_halves_endpoint_constant():
    # (g1,g2,g3) = (2,1,2) is x = 1: budget = 10 eps + (sqrt2+5)*2*2^-1
    [(_, bound)] = gamma_tradeoff([1.0], n=4, eps1=0.0, eps2=0.0)
    assert bound == pytest.approx(math.sqrt(2) + 5, abs=1e-12)


def test_gamma_tradeoff_is_the_shared_budget_on_its_family():
    # the closed form 2(sqrt2+5) 2^-x is the total budget of the slacks at
    # gamma = (2x, x, 2x)
    pairs = gamma_tradeoff(range(13), n=8, eps1=0.0, eps2=0.0)
    for x, (_, bound) in enumerate(pairs):
        shared = region._eps_total(region._osrb_slack(2 * x), region._slc_slack(x), region._osrb_slack(2 * x))
        assert bound == pytest.approx(shared, abs=1e-12)


def test_gamma_tradeoff_rejects_negative_x():
    with pytest.raises(DomainError):
        gamma_tradeoff([-1.0], n=4, eps1=0.1, eps2=0.1)


# ---------------------------------------------------------------------------
# closed result check
# ---------------------------------------------------------------------------


def test_closed_result_check_small_and_large_n():
    d = bsc_decomposition()
    assert closed_result_check(d, 0.3, 2) is True
    assert closed_result_check(d, 0.3, 1024) is True
    assert closed_result_check(copy_decomposition(), 0.9, 1024) is True


def test_closed_result_check_rejects_n1():
    with pytest.raises(DomainError):
        closed_result_check(bsc_decomposition(), 0.3, 1)


def test_closed_result_check_nonvacuous_case():
    # degenerate copy chain at high eps and big n: outer valid and below inner
    d = copy_decomposition()
    assert outer_bound(d, 0.9, 4096).valid
    assert closed_result_check(d, 0.9, 4096) is True


# ---------------------------------------------------------------------------
# asymptotic consistency
# ---------------------------------------------------------------------------


def test_bounds_converge_to_asymptotic_region():
    d = bsc_decomposition(0.1)
    i_wu, _ = asymptotic_region(d)
    s = stats_wu(d)
    for n in (10 ** 2, 10 ** 4, 10 ** 6):
        inner = inner_bound(d, 0.1, 0.1, n, parse_gamma_rule("logn", n))
        gauss = 1.2815515655446004 * math.sqrt(s.v / n)  # Q^-1(0.1)
        assert abs(inner.r_min - i_wu - gauss) <= 1.5 * math.log2(n) / n + 1e-12
        outer = outer_bound(d, 0.1, n)
        assert abs(outer.r_min - i_wu) <= gauss + 2 * math.log2(n) / n


def test_region_point_is_plain_data():
    pt = RegionPoint(r_min=1.0, r_plus_r0_min=1.5, eps_tot_bound=None, valid=False)
    assert pt.notes == {}


def test_region_sweep_computes_each_statistic_once():
    # both bounds read stats_wu and stats_wuv at every n; a decomposition
    # computes each once, so a three-n sweep makes two be_stats calls
    d = bsc_decomposition(0.1)
    with mock.patch.object(region, "be_stats", wraps=region.be_stats) as spy:
        for n in (100, 200, 400):
            inner_bound(d, 0.1, 0.1, n, parse_gamma_rule("logn", n))
            outer_bound(d, 0.9, n)
    assert spy.call_count == 2
