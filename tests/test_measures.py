"""Tests for information measures, moments, and the Gaussian tail pair.

Frozen values come from closed-form hand computation (binary symmetric
examples); the inverse tail is cross-checked against an independent
implementation (scipy's ndtri) on a grid.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from coordsim.errors import DomainError, ShapeError
from coordsim.measures import (
    BEStats,
    be_stats,
    conditional_dispersion,
    dispersion_of_channel,
    gaussian_q,
    gaussian_q_inv,
    moments,
    mutual_information,
)
from coordsim.probability import (
    ConditionalPmf,
    JointPmf,
    Pmf,
    check_blocklength,
    entropy_density,
    info_density,
)


def bsc(delta: float) -> ConditionalPmf:
    return ConditionalPmf(np.array([[1 - delta, delta], [delta, 1 - delta]]))


def h2(d: float) -> float:
    return -d * math.log2(d) - (1 - d) * math.log2(1 - d)


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------


def test_mi_bsc_closed_form():
    joint = JointPmf(0.5 * bsc(0.11).rows)
    assert mutual_information(joint) == pytest.approx(1 - h2(0.11), abs=1e-12)


def test_mi_copy_channel_is_one_bit():
    joint = JointPmf(np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert mutual_information(joint) == pytest.approx(1.0, abs=1e-15)


def test_mi_independent_is_zero():
    joint = JointPmf(np.outer([0.3, 0.7], [0.6, 0.4]))
    assert abs(mutual_information(joint)) <= 1e-12


def test_mi_nonnegative_randomized():
    rng = np.random.default_rng(21)
    for _ in range(40):
        a = rng.random((3, 4)) + 1e-4
        assert mutual_information(JointPmf(a / a.sum())) >= -1e-12


# ---------------------------------------------------------------------------
# moments / Berry-Esseen stats
# ---------------------------------------------------------------------------


def test_be_stats_bsc_closed_form():
    # information density of uniform input through BSC(0.11) takes two
    # values: log2(2*0.89) w.p. 0.89 and log2(2*0.11) w.p. 0.11
    joint = JointPmf(0.5 * bsc(0.11).rows)
    s = be_stats(info_density(joint), joint)
    hi, lo = math.log2(2 * 0.89), math.log2(2 * 0.11)
    mu = 0.89 * hi + 0.11 * lo
    v = 0.89 * (hi - mu) ** 2 + 0.11 * (lo - mu) ** 2
    t3 = 0.89 * abs(hi - mu) ** 3 + 0.11 * abs(lo - mu) ** 3
    assert s.mu == pytest.approx(mu, abs=1e-13)
    assert s.v == pytest.approx(v, abs=1e-13)
    assert s.t3 == pytest.approx(t3, abs=1e-13)
    assert s.b == pytest.approx(6 * t3 / v ** 1.5, rel=1e-12)
    assert not s.degenerate


def test_be_stats_copy_chain_is_degenerate():
    joint = JointPmf(np.array([[0.5, 0.0], [0.0, 0.5]]))
    s = be_stats(info_density(joint), joint)
    assert s.degenerate
    assert s.v == 0.0
    assert math.isnan(s.b)
    assert s.b_over_sqrt_n(3) == 0.0


def test_be_stats_rejects_mass_off_support():
    dens = entropy_density(Pmf(np.array([1.0, 0.0])))
    with pytest.raises(DomainError) as err:
        be_stats(dens, Pmf(np.array([0.5, 0.5])))
    assert err.value.index == (1,)


def test_be_constant_at_least_six_randomized():
    # power-mean: T >= V^(3/2) for any centered law, so B = 6T/V^1.5 >= 6
    rng = np.random.default_rng(22)
    for _ in range(60):
        a = rng.random((2, 3)) + 1e-4
        joint = JointPmf(a / a.sum())
        s = be_stats(info_density(joint), joint)
        if not s.degenerate:
            assert s.b >= 6.0 - 1e-9


def test_bestats_validates_consistency():
    with pytest.raises(DomainError):
        BEStats(mu=0.0, v=1.0, t3=1.0, b=5.0)  # should be 6.0
    with pytest.raises(DomainError):
        BEStats(mu=0.0, v=0.0, t3=0.0, b=1.0)  # degenerate must carry NaN


def test_dispersion_of_channel_matches_joint_route():
    rng = np.random.default_rng(23)
    for _ in range(20):
        p_raw = rng.random(3) + 1e-3
        p = Pmf(p_raw / p_raw.sum())
        rows = rng.random((3, 4)) + 1e-3
        ch = ConditionalPmf(rows / rows.sum(axis=1, keepdims=True))
        s = dispersion_of_channel(p, ch)
        joint = JointPmf(p.probs[:, None] * ch.rows)
        ref = be_stats(info_density(joint), joint)
        assert s.mu == pytest.approx(ref.mu, abs=1e-14)
        assert s.v == pytest.approx(ref.v, abs=1e-14)


def test_conditional_vs_unconditional_dispersion():
    # symmetric channel + uniform input: the two forms agree; in general
    # they differ -- count but don't forbid mismatches
    p = Pmf.uniform(2)
    ch = bsc(0.11)
    assert conditional_dispersion(p, ch) == pytest.approx(dispersion_of_channel(p, ch).v, abs=1e-12)
    rng = np.random.default_rng(24)
    differ = 0
    for _ in range(30):
        p_raw = rng.random(3) + 1e-2
        p = Pmf(p_raw / p_raw.sum())
        rows = rng.random((3, 3)) + 1e-2
        ch = ConditionalPmf(rows / rows.sum(axis=1, keepdims=True))
        if abs(conditional_dispersion(p, ch) - dispersion_of_channel(p, ch).v) > 1e-9:
            differ += 1
    assert differ > 0  # the forms are genuinely different objects


def conditional_dispersion_loop(p_in: Pmf, ch: ConditionalPmf) -> float:
    """Reference: E_X[Var(i(X;Y) | X)] as one ``moments`` call per input
    letter sent, over that row's support, summed in input order."""
    dens = info_density(JointPmf(p_in.probs[:, None] * ch.rows))
    total = 0.0
    for x in range(p_in.size):
        px = p_in.probs[x]
        if px <= 0:
            continue
        row_mask = dens.support[x]
        total += px * moments(dens.values[x][row_mask], ch.rows[x][row_mask])[1]
    return total


@settings(max_examples=80)
@given(
    x_size=st.integers(1, 5),
    y_size=st.integers(1, 5),
    zero_inputs=st.integers(0, 4),
    zero_cells=st.floats(0.0, 0.6),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_conditional_dispersion_matches_per_input_loop(x_size, y_size, zero_inputs, zero_cells, seed):
    # inputs never sent and channel cells of probability 0 included
    rng = np.random.default_rng(seed)
    p_raw = rng.dirichlet(np.ones(x_size))
    p_raw[rng.permutation(x_size)[:min(zero_inputs, x_size - 1)]] = 0.0
    rows = rng.dirichlet(np.ones(y_size), size=x_size)
    rows[rng.random(rows.shape) < zero_cells] = 0.0
    rows[np.arange(x_size), rng.integers(y_size, size=x_size)] += 0.5  # every row keeps a cell
    p, ch = Pmf(p_raw / p_raw.sum()), ConditionalPmf(rows / rows.sum(axis=1, keepdims=True))
    assert abs(conditional_dispersion(p, ch) - conditional_dispersion_loop(p, ch)) <= 1e-12


# ---------------------------------------------------------------------------
# Gaussian tail
# ---------------------------------------------------------------------------


def test_gaussian_q_known_points():
    assert gaussian_q(0.0) == pytest.approx(0.5, abs=1e-15)
    assert gaussian_q(1.959963984540054) == pytest.approx(0.025, abs=1e-15)
    assert gaussian_q(-8.0) == pytest.approx(1.0, abs=1e-15)


def test_gaussian_q_inv_frozen_value():
    assert gaussian_q_inv(0.025) == pytest.approx(1.959963984540054, abs=1e-9)
    assert gaussian_q_inv(0.5) == pytest.approx(0.0, abs=1e-12)


def test_gaussian_q_inv_round_trip():
    for eps in [1e-10, 1e-6, 0.025, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1 - 1e-10]:
        t = gaussian_q_inv(eps)
        assert abs(gaussian_q(t) - eps) <= 1e-12


def test_gaussian_q_inv_matches_scipy():
    for eps in np.linspace(0.004, 0.996, 64):
        assert gaussian_q_inv(float(eps)) == pytest.approx(-ndtri(eps), abs=1e-9)


def test_gaussian_q_inv_domain():
    for bad in [0.0, 1.0, -0.1, 1.5, 2]:
        with pytest.raises(DomainError):
            gaussian_q_inv(bad)


@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, -math.inf, True, np.bool_(True), 0, -3, "4", None])
def test_check_blocklength_rejects(bad):
    with pytest.raises(DomainError, match="blocklength"):
        check_blocklength(bad)


def test_check_blocklength_accepts_whole_numbers():
    assert check_blocklength(1) == 1
    assert check_blocklength(np.int64(7)) == 7
    assert type(check_blocklength(8.0)) is int
    assert check_blocklength(2, least=2) == 2
    with pytest.raises(DomainError, match=">= 2"):
        check_blocklength(1, least=2)


def test_be_stats_shape_check():
    dens = entropy_density(Pmf(np.array([0.5, 0.5])))
    with pytest.raises(ShapeError):
        be_stats(dens, Pmf(np.array([0.25, 0.25, 0.5])))
