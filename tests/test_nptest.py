"""Tests for optimal binary tests and the converse-chain witnesses.

The randomized-test solver is checked against an independent linear
program on every instance family (the acceptance suite reruns the full
grid); the witness checks pin a fully hand-computed uniform-copy
instance, digit by digit.
"""

import math
import sys
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from scipy.optimize import linprog

from coordsim.errors import DomainError, ShapeError
from coordsim.nptest import (
    BinaryTest,
    NPResult,
    beta_sandwich,
    converse_witness,
    np_beta,
    np_test,
    rr0_converse_witness,
)
from coordsim.probability import ConditionalPmf, Pmf
from coordsim.region import Decomposition


# =============================================================================
# oracles and fixtures
# =============================================================================


def lp_beta(p, q, alpha):
    """Independent LP solution of min q.z s.t. p.z >= alpha, 0 <= z <= 1."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    res = linprog(
        c=q,
        A_ub=[-p],
        b_ub=[-alpha],
        bounds=[(0.0, 1.0)] * p.size,
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


def random_law(rng, size, zero_prob=0.3):
    """A random law with occasional structural zeros, never all-zero."""
    while True:
        v = rng.exponential(size=size)
        mask = rng.random(size) < zero_prob
        v[mask] = 0.0
        if v.sum() > 0:
            return v / v.sum()


def uniform_copy_chain() -> Decomposition:
    ident = np.eye(2)
    return Decomposition(
        p_u=Pmf.uniform(2),
        w_given_u=ConditionalPmf(ident),
        v_given_w=ConditionalPmf(ident),
    )


def skewed_chain() -> Decomposition:
    return Decomposition(
        p_u=Pmf(np.array([0.55, 0.45])),
        w_given_u=ConditionalPmf(np.array([[0.5, 0.5, 0.0], [0.1, 0.2, 0.7]])),
        v_given_w=ConditionalPmf(np.array([[0.8, 0.2], [0.4, 0.6], [0.1, 0.9]])),
    )


# =============================================================================
# np_beta: hand values
# =============================================================================


def test_identical_laws_give_beta_alpha():
    p = np.array([0.25, 0.25, 0.5])
    for alpha in (0.1, 0.3, 0.5, 0.9):
        res = np_beta(p, p, alpha)
        assert res.beta == pytest.approx(alpha, abs=1e-14)
        assert res.threshold == 0.0
        assert res.randomization == pytest.approx(alpha, abs=1e-14)


def test_disjoint_supports_give_beta_zero():
    p = np.array([0.5, 0.5, 0.0, 0.0])
    q = np.array([0.0, 0.0, 0.5, 0.5])
    res = np_beta(p, q, 0.7)
    assert res.beta == 0.0
    assert math.isinf(res.threshold)
    assert res.randomization == pytest.approx(0.7, abs=1e-14)


def test_two_point_hand_value():
    # llr = (log2 1.4, log2 0.6); only the first outcome is partly accepted:
    # theta = 0.3/0.7, beta = theta * 0.5 = 3/14
    res = np_beta([0.7, 0.3], [0.5, 0.5], 0.3)
    assert res.beta == pytest.approx(3.0 / 14.0, abs=1e-14)
    assert res.threshold == pytest.approx(math.log2(1.4), abs=1e-14)
    assert res.randomization == pytest.approx(3.0 / 7.0, abs=1e-14)
    assert res.beta == pytest.approx(lp_beta([0.7, 0.3], [0.5, 0.5], 0.3), abs=1e-9)


def test_tie_group_is_pooled():
    # three outcomes share ratio 2; they must be treated as one group
    p = np.array([0.2, 0.2, 0.1, 0.5])
    q = np.array([0.1, 0.1, 0.05, 0.75])
    res = np_beta(p, q, 0.3)
    assert res.threshold == 1.0
    assert res.randomization == pytest.approx(0.6, abs=1e-14)
    assert res.beta == pytest.approx(0.15, abs=1e-14)
    assert res.beta == pytest.approx(lp_beta(p, q, 0.3), abs=1e-9)


def test_semidisjoint_hand_value():
    # one outcome is free (q = 0); the tie pair supplies the remainder
    p = np.array([0.5, 0.25, 0.25])
    q = np.array([0.0, 0.5, 0.5])
    res = np_beta(p, q, 0.6)
    assert res.beta == pytest.approx(0.2, abs=1e-14)
    assert res.threshold == pytest.approx(-1.0, abs=1e-14)
    assert res.beta == pytest.approx(lp_beta(p, q, 0.6), abs=1e-9)


def test_np_beta_rejects_bad_inputs():
    with pytest.raises(DomainError):
        np_beta([0.5, 0.5], [0.5, 0.5], 0.0)
    with pytest.raises(DomainError):
        np_beta([0.5, 0.5], [0.5, 0.5], 1.0)
    with pytest.raises(DomainError):
        np_beta([0.5, 0.5], [0.5, 0.5], float("nan"))
    with pytest.raises(ShapeError):
        np_beta([0.5, 0.5], [0.25, 0.25, 0.5], 0.3)
    with pytest.raises(DomainError):
        np_beta([0.6, 0.6], [0.5, 0.5], 0.3)
    with pytest.raises(DomainError):
        np_beta([1.2, -0.2], [0.5, 0.5], 0.3)


def test_alpha_above_total_p_mass_is_a_domain_error():
    # a valid law (total within 1e-12 of 1) whose mass falls short of alpha:
    # the test cannot reach alpha, and the error names both numbers
    with pytest.raises(DomainError, match=r"alpha 0\.9999999999999999 exceeds the total p-mass 0\.99999"):
        np_beta([0.5, 0.5 - 5e-13], [0.5, 0.5], 0.9999999999999999)


def test_np_beta_accepts_pmf_and_joint_inputs():
    p = Pmf(np.array([0.7, 0.3]))
    res = np_beta(p, Pmf.uniform(2), 0.3)
    assert res.beta == pytest.approx(3.0 / 14.0, abs=1e-14)


# =============================================================================
# np_beta: randomized LP cross-check and invariants
# =============================================================================


def test_np_beta_matches_lp_on_random_instances():
    rng = np.random.default_rng(20260816)
    for trial in range(60):
        size = int(rng.integers(2, 9))
        p = random_law(rng, size)
        q = random_law(rng, size)
        for alpha in (0.1, 0.3, 0.5):
            got = np_beta(p, q, alpha).beta
            want = lp_beta(p, q, alpha)
            assert got == pytest.approx(want, abs=1e-9), (trial, alpha)


def test_np_test_achieves_alpha_exactly():
    rng = np.random.default_rng(7)
    for _ in range(25):
        size = int(rng.integers(2, 9))
        p = random_law(rng, size)
        q = random_law(rng, size)
        alpha = float(rng.uniform(0.05, 0.95))
        test = np_test(p, q, alpha)
        res = np_beta(p, q, alpha)
        assert test.accept_mass(p) == pytest.approx(alpha, abs=1e-12)
        assert test.accept_mass(q) == pytest.approx(res.beta, abs=1e-12)
        assert np.all(test.decision >= 0.0) and np.all(test.decision <= 1.0)


def test_beta_is_monotone_in_alpha():
    rng = np.random.default_rng(99)
    for _ in range(10):
        p = random_law(rng, 6)
        q = random_law(rng, 6)
        alphas = np.linspace(0.05, 0.95, 19)
        betas = [np_beta(p, q, float(a)).beta for a in alphas]
        assert all(b2 >= b1 - 1e-14 for b1, b2 in zip(betas, betas[1:]))
        assert all(0.0 <= b <= 1.0 for b in betas)


def test_binary_test_validation():
    with pytest.raises(DomainError):
        BinaryTest(np.array([0.5, 1.5]))
    with pytest.raises(ShapeError):
        BinaryTest(np.array([]))
    t = BinaryTest(np.array([0.25, 1.0]))
    with pytest.raises(ShapeError):
        t.accept_mass([0.2, 0.3, 0.5])


def test_np_result_validation():
    with pytest.raises(DomainError):
        NPResult(beta=1.5, threshold=0.0, randomization=0.5)
    with pytest.raises(DomainError):
        NPResult(beta=0.5, threshold=float("nan"), randomization=0.5)
    with pytest.raises(DomainError):
        NPResult(beta=0.5, threshold=0.0, randomization=-0.5)


# =============================================================================
# beta_sandwich
# =============================================================================


def test_sandwich_slacks_on_random_instances():
    rng = np.random.default_rng(4242)
    grid = np.logspace(-6, 6, 20, base=2.0)
    for _ in range(30):
        size = int(rng.integers(2, 9))
        p = random_law(rng, size)
        q = random_law(rng, size)
        alpha = float(rng.uniform(0.1, 0.9))
        rep = beta_sandwich(p, q, alpha, grid)
        assert rep.ok
        assert rep.worst_lower_slack >= -1e-10
        assert rep.worst_upper_slack >= -1e-10
        assert len(rep.lower_slacks) == 20
        assert rep.n_upper_applicable == sum(s is not None for s in rep.upper_slacks)


def test_sandwich_tiny_gamma_is_always_safe():
    # as gamma -> 0 the lower inequality degenerates to alpha <= 1
    rep = beta_sandwich([0.7, 0.3], [0.5, 0.5], 0.4, [1e-9, 1e-3, 1.0, 8.0])
    assert rep.ok
    assert rep.lower_slacks[0] == pytest.approx(1.0 - 0.4, abs=1e-6)


def test_sandwich_identical_laws():
    # every gamma < 1 has full tail, so the upper side caps beta by 1/gamma
    rep = beta_sandwich([0.5, 0.5], [0.5, 0.5], 0.25, [0.5, 1.0, 2.0])
    assert rep.beta == pytest.approx(0.25, abs=1e-14)
    assert rep.upper_slacks[0] == pytest.approx(2.0 - 0.25, abs=1e-12)
    assert rep.upper_slacks[1] is None  # tail at log 1 is empty (strict)
    assert rep.upper_slacks[2] is None
    assert rep.ok


def test_sandwich_rejects_bad_grid():
    with pytest.raises(DomainError):
        beta_sandwich([0.5, 0.5], [0.5, 0.5], 0.3, [])
    with pytest.raises(DomainError):
        beta_sandwich([0.5, 0.5], [0.5, 0.5], 0.3, [1.0, -2.0])
    with pytest.raises(DomainError):
        beta_sandwich([0.5, 0.5], [0.5, 0.5], 0.3, [float("inf")])


# =============================================================================
# message-rate converse witness: hand-computed uniform-copy instance
# =============================================================================

# Instance: W = U uniform binary, V = W, n = 3, eps = 0.9, y = 0.6.
# The single-letter information density is identically 1 bit, so the
# dispersion is zero, alpha = eps = 0.9 and log_arg = 0.3.  The iid pair
# law has eight diagonal support cells of mass 1/8 against product mass
# 1/64; the transfer moves delta = 0.9/8 = 0.1125 from cell (7,7) to
# cell (0,0), making the ratio atoms {log2 15.2, 3.0 (x6), log2 0.8}.


def _copy_witness(mode):
    return converse_witness(uniform_copy_chain(), n=3, eps=0.9, y=0.6, mode=mode)


def test_copy_witness_transfer_and_beta():
    rep = _copy_witness("case1")
    assert rep.alpha == pytest.approx(0.9, abs=1e-15)
    assert rep.log_arg == pytest.approx(0.3, abs=1e-15)
    assert rep.valid_regime
    assert rep.b_over_sqrt_n == 0.0
    assert rep.transfer["gainer"] == (0, 0)
    assert rep.transfer["loser"] == (7, 7)
    assert not rep.transfer["same_row"]
    assert rep.transfer["delta"] == pytest.approx(0.1125, abs=1e-15)
    assert rep.transfer["corr_gain"] == pytest.approx(math.log2(1.9), abs=1e-12)
    assert rep.transfer["corr_lose"] == pytest.approx(math.log2(10.0), abs=1e-12)
    assert rep.l1_to_iid == pytest.approx(0.225, abs=1e-12)
    # beta: accept the gainer whole, randomize over the six middle atoms
    assert rep.beta == pytest.approx(0.0984375, abs=1e-12)
    assert rep.log2_inv_beta == pytest.approx(-math.log2(0.0984375), abs=1e-12)
    assert rep.np_threshold == pytest.approx(3.0, abs=1e-12)
    assert rep.np_randomization == pytest.approx(53.0 / 60.0, abs=1e-12)


def test_copy_witness_case1_candidates():
    rep = _copy_witness("case1")
    by_name_up = {c.name: c for c in rep.upper}
    by_name_lo = {c.name: c for c in rep.lower}

    # corrected upper threshold overshoots: at most the gainer sits at or
    # above it (the atom and the threshold agree only up to rounding), so
    # the tail premise fails decisively either way
    cu = by_name_up["corrected"]
    assert cu.log_gamma == pytest.approx(3.0 + math.log2(1.9), abs=1e-12)
    assert cu.tail <= 0.2375 + 1e-12
    assert not cu.premise_ok and cu.ok is None

    zu = by_name_up["zero"]
    assert zu.log_gamma == pytest.approx(3.0, abs=1e-12)
    assert zu.tail == pytest.approx(0.9875, abs=1e-12)
    assert zu.premise_ok and zu.ok is True
    assert rep.upper_ok

    cl = by_name_lo["corrected"]
    assert cl.log_gamma == pytest.approx(3.0 + math.log2(1.9), abs=1e-12)
    assert cl.tail <= 0.2375 + 1e-12
    assert cl.premise_ok and cl.ok is True
    assert cl.bound_lhs == pytest.approx(3.0 + math.log2(1.9) - math.log2(0.3), abs=1e-12)

    zl = by_name_lo["zero"]
    assert zl.log_gamma == pytest.approx(3.0, abs=1e-12)
    assert zl.tail == pytest.approx(0.2375, abs=1e-12)
    assert zl.premise_ok and zl.ok is True
    assert rep.lower_ok


def test_copy_witness_case2_candidates():
    rep = _copy_witness("case2")
    # the loser funds the transfer here, but its mass equals the gainer's,
    # so delta and hence beta are unchanged
    assert rep.transfer["delta"] == pytest.approx(0.1125, abs=1e-15)
    assert rep.beta == pytest.approx(0.0984375, abs=1e-12)

    by_name_up = {c.name: c for c in rep.upper}
    by_name_lo = {c.name: c for c in rep.lower}

    cu = by_name_up["corrected"]
    assert cu.log_gamma == pytest.approx(3.0 - math.log2(10.0), abs=1e-12)
    assert cu.tail >= 0.9875 - 1e-12
    assert cu.premise_ok and cu.ok is True
    assert by_name_up["zero"].ok is True
    assert rep.upper_ok

    # the corrected lower threshold dips below nearly all atoms: its strict
    # tail is far above the y-budget, so the step is unlicensed
    cl = by_name_lo["corrected"]
    assert cl.log_gamma == pytest.approx(3.0 - math.log2(10.0), abs=1e-12)
    assert cl.tail >= 0.9875 - 1e-12
    assert not cl.premise_ok and cl.ok is None
    assert by_name_lo["zero"].ok is True
    assert rep.lower_ok


def test_copy_witness_final_rate_identity():
    want = 1.0 + math.log2(0.3) / 3.0
    r1 = _copy_witness("case1")
    r2 = _copy_witness("case2")
    assert r1.rate == pytest.approx(want, abs=1e-10)
    assert r2.rate == pytest.approx(want, abs=1e-10)
    assert r1.rate == pytest.approx(r2.rate, abs=1e-12)
    assert r1.rate_penalty == 0.0
    assert r1.h_standin == pytest.approx(3.0, abs=1e-15)


def test_copy_witness_correction_band_is_flat():
    # every support cell has the same mass, so the tracked-cell choice
    # cannot move either correction
    rep = _copy_witness("case1")
    band = rep.corr_range
    assert band["gain_min"] == pytest.approx(math.log2(1.9), abs=1e-12)
    assert band["gain_max"] == pytest.approx(math.log2(1.9), abs=1e-12)
    assert band["lose_min"] == pytest.approx(math.log2(10.0), abs=1e-12)
    assert band["lose_max"] == pytest.approx(math.log2(10.0), abs=1e-12)
    assert band["lose_cells_excluded"] == 0


def test_witness_rejects_bad_params():
    d = uniform_copy_chain()
    with pytest.raises(DomainError):
        converse_witness(d, 3, 0.9, 0.6, "case3")
    for bad_n in (0, 2.5, math.nan, math.inf, True):
        with pytest.raises(DomainError, match="blocklength"):
            converse_witness(d, bad_n, 0.9, 0.6, "case1")
        with pytest.raises(DomainError, match="blocklength"):
            rr0_converse_witness(d, bad_n, 0.9, 0.6)
    with pytest.raises(DomainError):
        converse_witness(d, 3, 1.0, 0.6, "case1")
    for bad_y in (0.5, 1.0, 1.2, True, "0.7"):
        with pytest.raises(DomainError, match="split parameter"):
            converse_witness(d, 3, 0.9, bad_y, "case1")
        with pytest.raises(DomainError, match="split parameter"):
            rr0_converse_witness(d, 3, 0.9, bad_y)


def test_witness_nondegenerate_pair_blocks_small_n():
    # a nondegenerate density law forces B/sqrt(n) >= 6/sqrt(n), so the
    # chain cannot run at n = 2: no beta, no licensed steps, flagged regime
    rep = converse_witness(skewed_chain(), n=2, eps=0.9, y=0.6, mode="case1")
    assert rep.b_over_sqrt_n > 1.0
    assert rep.alpha < 0.0
    assert not rep.valid_regime
    assert math.isnan(rep.beta)
    assert all(c.ok is None for c in rep.upper)
    assert all(c.ok is None for c in rep.lower)
    assert not rep.upper_ok and not rep.lower_ok
    # the sensitivity band is still a real diagnostic on this instance
    band = rep.corr_range
    assert band["gain_min"] < band["gain_max"]
    assert rep.transfer["delta"] > 0.0


def test_witness_at_the_last_blocklength_before_the_gainer_underflows():
    # the copy chain's gainer is one sequence of mass 2^-n: 2^-1074 is the
    # smallest subnormal double.  The loser's P and Q both underflow to 0.0,
    # and its 0/0 ratio, dropped with it, must not warn
    d = uniform_copy_chain()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reps = (converse_witness(d, 1074, 0.9, 0.75, "case1"),
                converse_witness(d, 1074, 0.9, 0.75, "case2"),
                rr0_converse_witness(d, 1074, 0.9, 0.75))
    for rep in reps:
        assert rep.transfer["p_gainer"] == 2.0 ** -1074
    assert converse_witness(d, 1074, 0.9, 0.75, "case1").rate == pytest.approx(0.99745, abs=1e-5)


def test_witness_rejects_an_underflowed_gainer():
    d = uniform_copy_chain()
    for witness in (lambda: converse_witness(d, 1075, 0.9, 0.75, "case1"),
                    lambda: converse_witness(d, 1075, 0.9, 0.75, "case2"),
                    lambda: rr0_converse_witness(d, 1075, 0.9, 0.75)):
        with pytest.raises(DomainError, match="underflows to 0.0 at n = 1075"):
            witness()


def test_witness_coded_mode_smoke():
    rep = converse_witness(uniform_copy_chain(), n=2, eps=0.9, y=0.6, mode="coded")
    assert rep.mode == "coded"
    assert rep.transfer is None and rep.corr_range is None
    assert len(rep.upper) == 1 and rep.upper[0].name == "zero"
    assert 0.0 <= rep.beta <= 1.0
    assert 0.0 <= rep.l1_to_iid <= 2.0
    assert rep.alpha == pytest.approx(0.9, abs=1e-15)


# every float field of the bench copy-chain coded witness at n = 10, eps
# 0.9, y 0.6 (float.hex), then (log_gamma, tail, bound_lhs, bound_rhs) of
# each upper and lower candidate, recorded before the coded table was held
# once: dropping copies must not move a bit
CODED_N10_BITS = {
    "eps": "0x1.ccccccccccccdp-1", "y": "0x1.3333333333333p-1",
    "mu": "0x1.0000000000000p+0", "v": "0x0.0p+0", "b_over_sqrt_n": "0x0.0p+0",
    "alpha": "0x1.ccccccccccccdp-1", "log_arg": "0x1.3333333333334p-2",
    "beta": "0x1.47d70cccccccdp-1", "log2_inv_beta": "0x1.494b2f9f7a92fp-1",
    "np_threshold": "-0x1.134e1b4890631p-3", "np_randomization": "0x1.cb7d9f636fd75p-2",
    "h_standin": "0x1.4000000000000p+3", "lower_gain": "0x0.0p+0",
    "rate_penalty": "0x0.0p+0", "rate": "0x1.a7113e9bc17b4p-1",
    "l1_to_iid": "0x1.8000000000000p+0",
}
CODED_N10_CANDIDATES = {
    "upper": [("zero", "0x1.4000000000000p+3", "0x0.0p+0", "0x1.494b2f9f7a92fp-1", "0x1.4000000000000p+3")],
    "lower": [("zero", "0x1.4000000000000p+3", "0x0.0p+0", "0x1.779538dea712fp+3", "0x1.494b2f9f7a92fp-1")],
}


def float_bits(obj) -> dict:
    return {f.name: v.hex() for f in fields(obj) if isinstance(v := getattr(obj, f.name), float)}


def test_witness_coded_bits_at_n10():
    rep = converse_witness(uniform_copy_chain(), n=10, eps=0.9, y=0.6, mode="coded")
    assert float_bits(rep) == CODED_N10_BITS
    for side, want in CODED_N10_CANDIDATES.items():
        got = [(c.name, *float_bits(c).values()) for c in getattr(rep, side)]
        assert got == want, side


@pytest.mark.skipif(sys.version_info < (3, 11), reason=(
    "the bound counts on a called frame taking over its arguments from the "
    "caller's stack (CPython 3.11+); on 3.10 the caller keeps the coded "
    "table and the unsorted ratios alive through the call"))
def test_witness_coded_holds_each_table_once():
    # the (u, w) table is held once: the scheme's path rows are dropped
    # before it is copied out C-ordered, the joint keeps that copy, and
    # _table_law frees it once read.  Copying it on construction and
    # reshaping it twice peaked at 5.6 (u, w) tables
    d = uniform_copy_chain()
    converse_witness(d, n=10, eps=0.9, y=0.6, mode="coded")  # warm caches
    table_bytes = 4 ** 10 * 8
    tracemalloc.start()
    try:
        converse_witness(d, n=10, eps=0.9, y=0.6, mode="coded")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * table_bytes, peak / table_bytes


# =============================================================================
# sum-rate converse witness
# =============================================================================


def test_rr0_witness_uniform_copy_live():
    # same uniform-copy geometry at n = 2 over the composite (U,V) symbol
    d = uniform_copy_chain()
    rep = rr0_converse_witness(d, n=2, eps=0.9, y=0.6)
    assert rep.kind == "sum-rate"
    assert rep.valid_regime
    g = 2.0 * 0.9 * (math.log2(4.0) + math.log2(1.0 / 0.9))
    assert rep.rate_penalty == pytest.approx(2.0 * g, abs=1e-12)
    assert rep.lower_gain == pytest.approx(4.0 * g, abs=1e-12)
    assert rep.h_standin == pytest.approx(2.0, abs=1e-15)
    # four diagonal cells of mass 1/4 against product mass 1/16; the
    # transfer moves 0.225 from the last support cell (15,3) to (0,0);
    # beta by hand = 1/16 + 0.85 * 2/16
    assert rep.transfer["gainer"] == (0, 0)
    assert rep.transfer["loser"] == (15, 3)
    assert rep.beta == pytest.approx(0.16875, abs=1e-12)
    # the untouched middle atoms sit exactly at the stand-in threshold, so
    # the strict lower tail is the gainer alone: 0.475 <= y licenses both
    # lower candidates, and the upper zero threshold is licensed by
    # tail_ge(2) = 0.975 >= alpha
    by_name_lo = {c.name: c for c in rep.lower}
    assert by_name_lo["zero"].tail == pytest.approx(0.475, abs=1e-12)
    assert rep.upper_ok and rep.lower_ok
    assert rep.rate == pytest.approx(1.0 + math.log2(0.3) / 2.0 - 2.0 * g, abs=1e-10)


def test_rr0_witness_g_term_hand_value():
    # |U x V| = 4 at eps = 1/4 gives g = 2 bits exactly; the regime is
    # invalid there (eps < y), so the log term must be omitted
    d = uniform_copy_chain()
    rep = rr0_converse_witness(d, n=2, eps=0.25, y=0.6)
    assert rep.rate_penalty == pytest.approx(4.0, abs=1e-15)
    assert not rep.valid_regime
    assert rep.rate == pytest.approx(1.0 - 4.0, abs=1e-12)
    assert all(c.ok is None for c in rep.lower)


def test_rr0_witness_nondegenerate_flags():
    rep = rr0_converse_witness(skewed_chain(), n=2, eps=0.9, y=0.6)
    assert math.isnan(rep.beta)
    assert not rep.valid_regime
    assert rep.corr_range["gain_min"] <= rep.corr_range["gain_max"]


def test_witness_coded_mode_aborts_to_a_sequence_with_mass():
    # p_W(0) = 0: the scheme's aborts go to the first W sequence with
    # reference mass, which the product law covers, so the coded table is
    # a valid witness input
    d = Decomposition(
        p_u=Pmf(np.array([0.0, 0.5, 0.5])),
        w_given_u=ConditionalPmf(np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])),
        v_given_w=ConditionalPmf(np.eye(2)),
    )
    rep = converse_witness(d, n=1, eps=0.9, y=0.6, mode="coded")
    assert rep.l1_to_iid == 0.0
    assert rep.beta == pytest.approx(0.9, abs=1e-15)
