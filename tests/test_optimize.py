"""Tests for the decomposition search.

The doubly-symmetric-binary oracle is the hand-built construction routing
both halves of the correlation through a binary W via matched symmetric
channels; the optimizer must do at least as well.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordsim.errors import DomainError, SearchError
from coordsim.measures import gaussian_q_inv
from coordsim.optimize import _Problem, _softmax_rows, optimize_decomposition
from coordsim.probability import ConditionalPmf, JointPmf, Pmf, l1_distance
from coordsim.region import (
    Decomposition,
    GammaTriple,
    asymptotic_region,
    inner_bound,
    parse_gamma_rule,
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


@settings(max_examples=60)
@given(
    u_size=st.integers(1, 3),
    v_size=st.integers(1, 3),
    data=st.data(),
    objective=st.sampled_from(["r_min", "r_plus_r0_min"]),
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
    problem = _Problem(
        p_u=target.sum(axis=1),
        target=target,
        w_size=w_size,
        objective=objective,
        q_inv=gaussian_q_inv(eps),
        n=n,
        g_r=(g.g1 + g.g2) / n,
        g_rr0=(g.g2 + g.g3) / n,
    )
    x = rng.normal(scale=scale, size=problem.n_params())
    value, _ = problem.evaluate(x)

    logits_wu, logits_vw = problem.split(x)
    d = Decomposition(
        p_u=Pmf(problem.p_u),
        w_given_u=ConditionalPmf(_softmax_rows(logits_wu)),
        v_given_w=ConditionalPmf(_softmax_rows(logits_vw)),
    )
    point = inner_bound(d, eps, eps, n, g)
    reported = point.r_min if objective == "r_min" else point.r_plus_r0_min
    assert abs(value - reported) <= 1e-12
