"""Tests for the decomposition search.

The doubly-symmetric-binary oracle is the hand-built construction routing
both halves of the correlation through a binary W via matched symmetric
channels; the optimizer must do at least as well.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import optimize_oracle
from coordsim import optimize
from coordsim.errors import DomainError, SearchError
from coordsim.measures import backoff, gaussian_q_inv
from coordsim.optimize import (
    OBJECTIVES,
    _ZOOM_GRID,
    _best_corner,
    _descend,
    _Problem,
    _softmax_rows,
    _zoom_min,
    optimize_decomposition,
)
from coordsim.probability import ConditionalPmf, JointPmf, Pmf, l1_distance
from coordsim.region import (
    Decomposition,
    GammaTriple,
    asymptotic_region,
    inner_bound,
    parse_gamma_rule,
    stats_wu,
    stats_wuv,
)


def dsbs(a: float) -> JointPmf:
    """Uniform binary pair flipped with probability a."""
    return JointPmf(np.array([[(1 - a) / 2, a / 2], [a / 2, (1 - a) / 2]]))


def bsc(delta: float) -> ConditionalPmf:
    return ConditionalPmf(np.array([[1 - delta, delta], [delta, 1 - delta]]))


def test_perfectly_correlated_target_reaches_one_bit():
    target = JointPmf(np.array([[0.5, 0.0], [0.0, 0.5]]))
    d = optimize_decomposition(target, w_size=4, restarts=2, seed=3, eps=0.1, n=10 ** 4)
    assert l1_distance(d.uv_marginal(), target) <= 1e-6
    i_wu, _ = asymptotic_region(d)
    # no decomposition can beat I(U;V) = 1; the optimizer must get there
    assert i_wu == pytest.approx(1.0, abs=1e-3)


def test_independent_target_needs_no_rate():
    target = JointPmf(np.full((2, 2), 0.25))
    d = optimize_decomposition(target, w_size=1, restarts=1, seed=0, eps=0.1, n=10 ** 4)
    assert l1_distance(d.uv_marginal(), target) <= 1e-6
    i_wu, i_wuv = asymptotic_region(d)
    assert abs(i_wu) <= 1e-9
    assert abs(i_wuv) <= 1e-9


def test_dsbs_beats_hand_built_symmetric_construction():
    a = 0.1
    target = dsbs(a)
    # oracle: route through binary W with two matched BSC(delta) halves,
    # where 2 delta (1 - delta) = a
    delta = (1 - math.sqrt(1 - 2 * a)) / 2
    oracle = Decomposition(Pmf.uniform(2), bsc(delta), bsc(delta))
    assert l1_distance(oracle.uv_marginal(), target) <= 1e-12
    n, eps = 10 ** 4, 0.1
    g = parse_gamma_rule("logn", n)
    oracle_value = inner_bound(oracle, eps, eps, n, g).r_min

    d = optimize_decomposition(target, w_size=5, objective="r_min", restarts=4, seed=11, eps=eps, n=n)
    assert l1_distance(d.uv_marginal(), target) <= 1e-6
    value = inner_bound(d, eps, eps, n, g).r_min
    assert value <= oracle_value + 1e-6


def test_infeasible_marginal_raises_search_error():
    # a single-letter W forces U and V independent; a correlated target is
    # unreachable and the search must say so with diagnostics
    target = JointPmf(np.array([[0.5, 0.0], [0.0, 0.5]]))
    with pytest.raises(SearchError) as err:
        optimize_decomposition(target, w_size=1, restarts=2, seed=1, eps=0.1, n=100)
    diag = err.value.diagnostics
    assert diag["best_gap"] > 1e-6
    assert "best_objective" in diag and "restart" in diag


def test_determinism_across_runs():
    target = dsbs(0.2)
    kw = dict(w_size=3, restarts=3, seed=42, eps=0.2, n=1000)
    d1 = optimize_decomposition(target, **kw)
    d2 = optimize_decomposition(target, **kw)
    np.testing.assert_array_equal(d1.w_given_u.rows, d2.w_given_u.rows)
    np.testing.assert_array_equal(d1.v_given_w.rows, d2.v_given_w.rows)


def test_objective_validation():
    with pytest.raises(DomainError):
        optimize_decomposition(dsbs(0.1), w_size=2, objective="fastest")
    with pytest.raises(DomainError):
        optimize_decomposition(dsbs(0.1), w_size=9)


def test_max_slack_objective_prefers_low_dispersion():
    # the pure-slack objective ignores mutual information; a valid result
    # just needs the marginal matched and a finite slack
    target = dsbs(0.3)
    d = optimize_decomposition(target, w_size=4, objective="max_slack", restarts=2, seed=5, eps=0.2, n=500)
    assert l1_distance(d.uv_marginal(), target) <= 1e-6


def make_problem(target: np.ndarray, w_size: int, objective: str, eps: float, n: int, g: GammaTriple) -> _Problem:
    return _Problem(
        p_u=target.sum(axis=1),
        target=target,
        w_size=w_size,
        objective=objective,
        q_inv=gaussian_q_inv(eps),
        n=n,
        g_r=(g.g1 + g.g2) / n,
        g_rr0=(g.g2 + g.g3) / n,
    )


def decomposition_at(problem: _Problem, x: np.ndarray) -> Decomposition:
    logits_wu, logits_vw = problem.split(x)
    return Decomposition(
        p_u=Pmf(problem.p_u),
        w_given_u=ConditionalPmf(_softmax_rows(logits_wu)),
        v_given_w=ConditionalPmf(_softmax_rows(logits_vw)),
    )


def reference_objective(problem: _Problem, d: Decomposition, eps: float, n: int, g: GammaTriple) -> float:
    """The search objective recomputed through the validating value types:
    ``inner_bound`` for the two rates, and for max_slack the larger of
    backoff(V) + gamma term over the (W, U) and (W, UV) densities."""
    if problem.objective == "max_slack":
        q_inv = gaussian_q_inv(eps)
        return max(backoff(stats_wu(d).v, q_inv, n) + problem.g_r, backoff(stats_wuv(d).v, q_inv, n) + problem.g_rr0)
    point = inner_bound(d, eps, eps, n, g)
    return point.r_min if problem.objective == "r_min" else point.r_plus_r0_min


@settings(max_examples=60)
@given(
    u_size=st.integers(1, 3),
    v_size=st.integers(1, 3),
    data=st.data(),
    objective=st.sampled_from(OBJECTIVES),
    eps=st.floats(0.01, 0.99),
    n=st.integers(2, 10 ** 6),
    gammas=st.tuples(*[st.floats(0.01, 40.0)] * 3),
    scale=st.floats(0.0, 4.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_evaluate_matches_inner_bound(u_size, v_size, data, objective, eps, n, gammas, scale, seed):
    # the search minimizes exactly the quantity the CLI reports: the
    # plain-array objective equals inner_bound on the decomposition built
    # from the same parameter vector
    w_size = data.draw(st.integers(1, u_size * v_size + 1), label="w_size")
    rng = np.random.default_rng(seed)
    target = rng.dirichlet(np.ones(u_size * v_size)).reshape(u_size, v_size)
    g = GammaTriple(*gammas)
    problem = make_problem(target, w_size, objective, eps, n, g)
    x = rng.normal(scale=scale, size=problem.n_params())
    value, _ = problem.evaluate(x)
    assert abs(value - reference_objective(problem, decomposition_at(problem, x), eps, n, g)) <= 1e-12


@settings(max_examples=40)
@given(
    u_size=st.integers(1, 3),
    v_size=st.integers(1, 3),
    w_frac=st.floats(0.0, 1.0),
    objective=st.sampled_from(OBJECTIVES),
    zero_row=st.booleans(),
    saturate=st.sampled_from([0.0, 60.0, 800.0]),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(u_size=2, v_size=2, w_frac=0.0, objective="max_slack", zero_row=False, saturate=0.0, seed=1)  # w_size 1
@example(u_size=3, v_size=1, w_frac=0.5, objective="r_plus_r0_min", zero_row=False, saturate=0.0, seed=2)  # |V| = 1
@example(u_size=3, v_size=2, w_frac=0.6, objective="r_min", zero_row=True, saturate=0.0, seed=3)
@example(u_size=2, v_size=3, w_frac=0.7, objective="max_slack", zero_row=False, saturate=60.0, seed=4)
def test_evaluate_many_rows_match_inner_bound(u_size, v_size, w_frac, objective, zero_row, saturate, seed):
    # one batch, every row pinned to the validating path: the objective and
    # the marginal gap of each row equal inner_bound (or the max_slack
    # reference) and l1_distance on the decomposition built from that row.
    # Logits of +-60 make softmax entries negligible next to 1 (+-800: exactly 0).
    w_size = 1 + int(w_frac * u_size * v_size)
    rng = np.random.default_rng(seed)
    target = rng.dirichlet(np.ones(u_size * v_size)).reshape(u_size, v_size)
    if zero_row and u_size > 1:
        target[0] = 0.0
        target /= target.sum()
    eps, n, g = 0.1, 1000, GammaTriple(3.0, 1.5, 3.0)
    problem = make_problem(target, w_size, objective, eps, n, g)
    xs = rng.normal(scale=2.0, size=(8, problem.n_params()))
    if saturate:
        xs[4:] = saturate * rng.choice([-1.0, 1.0], size=xs[4:].shape)
    values, gaps = problem.evaluate_many(xs)
    assert values.shape == gaps.shape == (8,)
    for x, value, gap in zip(xs, values, gaps):
        d = decomposition_at(problem, x)
        assert abs(value - reference_objective(problem, d, eps, n, g)) <= 1e-12
        assert abs(gap - l1_distance(d.uv_marginal(), JointPmf(target))) <= 1e-12
        assert problem.evaluate(x) == (value, gap)  # the one-row case, bit for bit


@settings(max_examples=25)
@given(
    u_size=st.integers(1, 3),
    v_size=st.integers(1, 3),
    w_frac=st.floats(0.0, 1.0),
    zero_row=st.booleans(),
    saturate=st.sampled_from([0.0, 60.0, 800.0]),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(u_size=2, v_size=2, w_frac=0.0, zero_row=False, saturate=0.0, seed=1)  # w_size 1
@example(u_size=3, v_size=1, w_frac=0.5, zero_row=False, saturate=0.0, seed=2)  # |V| = 1
@example(u_size=3, v_size=2, w_frac=0.6, zero_row=True, saturate=0.0, seed=3)
@example(u_size=2, v_size=3, w_frac=0.7, zero_row=False, saturate=60.0, seed=4)
@example(u_size=3, v_size=2, w_frac=0.5, zero_row=False, saturate=800.0, seed=5)
@pytest.mark.parametrize("objective", OBJECTIVES)
def test_line_matches_evaluate_many_bit_for_bit(objective, u_size, v_size, w_frac, zero_row, saturate, seed):
    # along every coordinate of both blocks, the line evaluator scores the
    # 57 rows of a zoom round exactly as one evaluate_many call on those rows
    # does; saturated points sweep a grid of the same half-width
    w_size = 1 + int(w_frac * u_size * v_size)
    rng = np.random.default_rng(seed)
    target = rng.dirichlet(np.ones(u_size * v_size)).reshape(u_size, v_size)
    if zero_row and u_size > 1:
        target[0] = 0.0
        target /= target.sum()
    problem = make_problem(target, w_size, objective, 0.1, 1000, GammaTriple(3.0, 1.5, 3.0))
    x = rng.normal(scale=2.0, size=problem.n_params())
    if saturate:
        x = saturate * rng.choice([-1.0, 1.0], size=x.shape)
    for i in range(x.size):
        ts = x[i] + (saturate or 2.5) * _ZOOM_GRID
        xs = np.repeat(x[None, :], ts.size, axis=0)
        xs[:, i] = ts
        want_values, want_gaps = problem.evaluate_many(xs)
        values, gaps = problem.line(x, i)(ts)
        assert np.broadcast_to(values, want_values.shape).tobytes() == want_values.tobytes(), i
        assert gaps.tobytes() == want_gaps.tobytes(), i


def assert_matches_reference_descent(target: np.ndarray, w_size: int, objective: str, restarts: int, seed: int,
                                     eps: float, n: int) -> Decomposition:
    """The search through line evaluators returns the same P(w|u) and
    P(v|w) bytes as the search through ``optimize_oracle.descend``."""
    kw = dict(restarts=restarts, seed=seed, eps=eps, n=n)
    got = optimize_decomposition(JointPmf(target), w_size, objective, **kw)
    with mock.patch.object(optimize, "_descend", optimize_oracle.descend):
        want = optimize_decomposition(JointPmf(target), w_size, objective, **kw)
    assert got.w_given_u.rows.tobytes() == want.w_given_u.rows.tobytes()
    assert got.v_given_w.rows.tobytes() == want.v_given_w.rows.tobytes()
    return got


@settings(max_examples=10)
@given(
    u_size=st.integers(1, 3),
    v_size=st.integers(1, 2),
    data=st.data(),
    objective=st.sampled_from(OBJECTIVES),
    restarts=st.integers(1, 2),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_search_matches_reference_descent(u_size, v_size, data, objective, restarts, seed):
    # w_size from the smallest that holds a corner, so a restart always
    # matches the marginal; capped to keep the searches short
    lo = min(u_size, v_size)
    w_size = data.draw(st.integers(lo, max(lo, min(u_size * v_size + 1, 3))), label="w_size")
    target = np.random.default_rng(seed).dirichlet(np.ones(u_size * v_size)).reshape(u_size, v_size)
    assert_matches_reference_descent(target, w_size, objective, restarts, seed, 0.1, 1000)


def test_bench_search_matches_reference_descent():
    # the benchmark's search (DSBS(0.1), w_size 3, one restart, n = 1e4,
    # eps = 0.1), down to the r_inner it reports
    n, eps = 10 ** 4, 0.1
    d = assert_matches_reference_descent(dsbs(0.1).probs, 3, "r_min", 1, 0, eps, n)
    assert inner_bound(d, eps, eps, n, parse_gamma_rule("logn", n)).r_min == 0.5451848297772249


@pytest.mark.parametrize("restarts", [1, 2])
@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, "7"])
def test_seed_outside_unsigned_64_bits_is_a_domain_error(restarts, seed):
    # the simulator's seed rule, whether or not a restart draws from the seed
    with pytest.raises(DomainError, match="seed must be a 64-bit unsigned integer"):
        optimize_decomposition(dsbs(0.1), w_size=2, restarts=restarts, seed=seed, n=100)


def test_largest_seed_is_accepted():
    d = optimize_decomposition(dsbs(0.1), w_size=2, restarts=2, seed=2 ** 64 - 1, n=100)
    assert l1_distance(d.uv_marginal(), dsbs(0.1)) <= 1e-6


def golden_section(fn, lo: float, hi: float, iters: int = 36) -> tuple[float, float]:
    """Plain sequential golden-section search for min fn on [lo, hi]: exact
    on unimodal lines, and stuck in whichever basin its first two probes
    favour otherwise."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - ratio * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + ratio * (hi - lo)
            fd = fn(d)
    return (c, fc) if fc <= fd else (d, fd)


def two_basins(t):
    """A local basin at -1.8 (value 0.1) and the global one at 2.2 (value 0)."""
    return np.minimum((t + 1.8) ** 2 + 0.1, 3.0 * (t - 2.2) ** 2)


def test_zoom_finds_the_global_basin_where_golden_section_stops():
    t_gs, f_gs = golden_section(two_basins, -2.5, 2.5)
    assert abs(t_gs + 1.8) < 1e-6 and f_gs == pytest.approx(0.1)
    t, f = _zoom_min(two_basins, 0.0, float(two_basins(0.0)), 2.5)
    assert abs(t - 2.2) < 1e-6
    assert f < 1e-12


@settings(max_examples=80)
@given(
    coef=st.tuples(*[st.floats(-5.0, 5.0)] * 4),
    t0=st.floats(-10.0, 10.0),
    half=st.floats(0.1, 5.0),
)
def test_zoom_never_rises_and_is_deterministic(coef, t0, half):
    a, b, c, k = coef

    def fn(ts):  # multimodal, with a kink at the start point (its minimum when k >> |a b|)
        return a * np.sin(b * ts + c) + k * np.abs(ts - t0)

    f0 = float(fn(np.float64(t0)))
    t, f = _zoom_min(fn, t0, f0, half)
    assert f <= f0
    assert f == float(fn(np.float64(t)))  # the value reported is the value at the point reported
    assert t0 - half * (1 + 1e-12) <= t <= t0 + half * (1 + 1e-12)
    again = _zoom_min(fn, t0, f0, half)
    assert (again[0], again[1]) == (t, f)  # bit for bit


def test_random_start_reaches_the_golden_section_optimum():
    # away from the saddle the search does not hang on rounding: from the
    # seeded start of restart 1 of the benchmark's search, a sequential
    # golden-section line search ends at r_inner = 0.5520014957257801, and
    # the zoom must end there or below it, to within 1e-7
    target, n, eps = dsbs(0.1), 10 ** 4, 0.1
    problem = make_problem(target.probs, 3, "r_min", eps, n, parse_gamma_rule("logn", n))
    x0 = np.random.default_rng([7, 1]).normal(scale=2.0, size=problem.n_params())
    _, value, gap = _descend(problem, x0)
    assert gap <= 1e-6
    assert value <= 0.5520014957257801 + 1e-7


def test_bench_setup_reaches_golden_section_quality():
    # the benchmark's search: one restart, w_size 3, DSBS(0.1), n = 1e4,
    # eps = 0.1.  From the all-zero start (a saddle whose first moves were
    # decided by rounding) a sequential golden-section line search ended this
    # search at r_inner = 0.684199116158477 and the zoom 7.5e-7 below it.
    # Restart 0 now starts from the best closed-form corner, W = V, and ends
    # at r_inner = 0.5452, far below the bound.
    target, n, eps = dsbs(0.1), 10 ** 4, 0.1
    d = optimize_decomposition(target, w_size=3, objective="r_min", restarts=1, seed=7, eps=eps, n=n)
    assert l1_distance(d.uv_marginal(), target) <= 1e-6
    assert inner_bound(d, eps, eps, n, parse_gamma_rule("logn", n)).r_min <= 0.684199116158477


def corner_decompositions(target: np.ndarray, w_size: int) -> list[Decomposition]:
    """The exact corners W = V, W = U and W = (U, V) of ``target`` that fit
    in ``w_size`` letters, with unused letters of W never taken (their
    P(v|w) rows uniform)."""
    u_size, v_size = target.shape
    p_u = target.sum(axis=1)
    out = []
    for size, letter in ((v_size, lambda u, v: v), (u_size, lambda u, v: u),
                         (u_size * v_size, lambda u, v: u * v_size + v)):
        if size > w_size:
            continue
        w_given_u = np.zeros((u_size, w_size))
        joint_wv = np.zeros((w_size, v_size))
        for u in range(u_size):
            for v in range(v_size):
                w_given_u[u, letter(u, v)] += target[u, v] / p_u[u]
                joint_wv[letter(u, v), v] += target[u, v]
        mass = joint_wv.sum(axis=1, keepdims=True)
        v_given_w = np.where(mass > 0, joint_wv / np.where(mass > 0, mass, 1.0), 1.0 / v_size)
        d = Decomposition(Pmf(p_u), ConditionalPmf(w_given_u), ConditionalPmf(v_given_w))
        assert l1_distance(d.uv_marginal(), JointPmf(target)) <= 1e-12
        out.append(d)
    return out


def assert_not_above_corners(target: np.ndarray, w_size: int, objective: str, eps: float, n: int):
    """The search's best corner is one of the exact corners up to its 1e-9
    floor, and a one-restart search never ends above that corner."""
    g = parse_gamma_rule("logn", n)
    problem = make_problem(target, w_size, objective, eps, n, g)
    x, corner_value, _ = _best_corner(problem)
    rows = [_softmax_rows(logits) for logits in problem.split(x)]
    assert any(
        np.allclose(rows[0], d.w_given_u.rows, rtol=0, atol=1e-8)
        and np.allclose(rows[1], d.v_given_w.rows, rtol=0, atol=1e-8)
        for d in corner_decompositions(target, w_size)
    )
    d = optimize_decomposition(JointPmf(target), w_size, objective, restarts=1, seed=0, eps=eps, n=n)
    assert l1_distance(d.uv_marginal(), JointPmf(target)) <= 1e-6
    assert reference_objective(problem, d, eps, n, g) <= corner_value + 1e-12


@pytest.mark.parametrize("w_size", [2, 3])
@pytest.mark.parametrize("objective", OBJECTIVES)
def test_dsbs_search_never_ends_above_a_corner(w_size, objective):
    assert_not_above_corners(dsbs(0.1).probs, w_size, objective, 0.1, 10 ** 4)


@settings(max_examples=12, deadline=None)
@given(
    u_size=st.integers(1, 3),
    v_size=st.integers(1, 3),
    data=st.data(),
    objective=st.sampled_from(OBJECTIVES),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_search_never_ends_above_a_corner(u_size, v_size, data, objective, seed):
    # w_size from the smallest that holds a corner, capped to keep the searches short
    lo = min(u_size, v_size)
    w_size = data.draw(st.integers(lo, max(lo, min(u_size * v_size + 1, 4))), label="w_size")
    target = np.random.default_rng(seed).dirichlet(np.ones(u_size * v_size)).reshape(u_size, v_size)
    assert_not_above_corners(target, w_size, objective, 0.1, 1000)
