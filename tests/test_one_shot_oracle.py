"""The one-shot binning lemmas against their exact means.

``one_shot_oracle`` averages the index-uniformity L1 and the decoder error
over every map of A into the bins (or, equally, over one bin's member
set).  The Monte Carlo of ``osrb_monte_carlo`` must land within 3 of its
95% half-widths of those means.  The uniformity bound is a total-variation
bound: it must be at least half the exact mean L1, and the pinned
instances show that it can be below the mean L1 itself.  The decoder
bound must be at least the exact mean error.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import one_shot_oracle
from coordsim.binning import osrb_monte_carlo, osrb_uniformity_bound, slc_error_bound
from coordsim.probability import ConditionalPmf, JointPmf
from test_acceptance import _one_shot_instances

GAMMAS = (1.0, 2.0, 4.0)


def random_joint(rng, n_a: int, n_b: int, zeros: bool = False) -> JointPmf:
    raw = rng.random((n_a, n_b)) + 0.05
    if zeros:
        raw[rng.random((n_a, n_b)) < 0.3] = 0.0
        raw[0, 0] = 1.0  # keep some mass
    return JointPmf(raw / raw.sum())


@pytest.mark.parametrize("seed", range(6))
def test_subset_form_is_the_average_over_every_map(seed):
    rng = np.random.default_rng(seed)
    for n_a in (1, 3):
        joint = random_joint(rng, n_a, 2, zeros=seed % 2 == 1)
        kernel = rng.random((2, n_a))
        ref = ConditionalPmf(kernel / kernel.sum(axis=1, keepdims=True))
        for n_bins in (1, 2, 3, 4):
            for r in (None, ref):
                want = one_shot_oracle.every_map(joint, n_bins, r)
                got = one_shot_oracle.by_subsets(joint, n_bins, r)
                assert got == pytest.approx(want, abs=1e-12)


def test_two_letters_exact_means():
    # A uniform on {0,1}, B constant, 2 bins: the letters share a bin with
    # chance 1/2, and then L1 = 1 and the decoder errs with 1/2
    joint = JointPmf(np.array([[0.5], [0.5]]))
    assert one_shot_oracle.every_map(joint, 2) == pytest.approx((0.5, 0.25), abs=1e-15)
    # 8 bins, 64 maps: a shared bin (chance 1/8) gives L1 = 7/4, else 3/2
    assert one_shot_oracle.every_map(joint, 8)[0] == 1.53125


@pytest.mark.parametrize("seed", range(3))
def test_monte_carlo_is_within_three_half_widths_of_the_exact_means(seed):
    rng = np.random.default_rng(100 + seed)
    joint = random_joint(rng, 4, 2)
    for n_bins in (2, 3, 4):
        rep = osrb_monte_carlo(joint, n_bins, trials=2000, seed=seed)
        l1, err = one_shot_oracle.every_map(joint, n_bins)
        assert abs(rep.mean_l1 - l1) <= 3.0 * rep.ci_l1
        assert abs(rep.mean_error - err) <= 3.0 * rep.ci_error


@pytest.mark.parametrize("n_a, kind, joint", _one_shot_instances())
def test_bounds_cover_the_exact_means_on_the_acceptance_instances(n_a, kind, joint):
    l1 = one_shot_oracle.by_subsets(joint, 2)[0]
    err = one_shot_oracle.by_subsets(joint, n_a * n_a)[1]
    for g in GAMMAS:
        assert osrb_uniformity_bound(joint, 2, g) >= l1
        assert slc_error_bound(joint, n_a * n_a, g) >= err


def test_uniformity_bound_is_a_total_variation_bound_with_many_bins():
    # A uniform on {0,1}, B constant, 8 bins, gamma = 5: every cell fails
    # to clear log2 8 + 5, so the bound is 1 + 2^-3 = 1.125.  The exact
    # mean L1 over the 64 maps is 1.53125: above the bound, so the lemma
    # does not bound the L1, but its half, the total variation, is below it
    joint = JointPmf(np.array([[0.5], [0.5]]))
    bound = osrb_uniformity_bound(joint, 8, 5.0)
    l1 = one_shot_oracle.every_map(joint, 8)[0]
    assert bound == 1.125 and l1 == 1.53125
    assert bound < l1
    assert bound >= l1 / 2


@pytest.mark.parametrize("n_bins", [2, 4, 8, 64])
def test_one_letter_mean_l1_is_twice_the_missed_bins(n_bins):
    # with one letter, every map puts all of P(b) in one bin: L1 = 2(1 - 1/K)
    # against a bound of 1 + 2^-(gamma+1)/2, below it from K = 4 at gamma = 4
    joint = JointPmf(np.array([[0.3, 0.7]]))
    l1 = one_shot_oracle.by_subsets(joint, n_bins)[0]
    assert l1 == pytest.approx(2.0 * (1.0 - 1.0 / n_bins), abs=1e-15)
    bound = osrb_uniformity_bound(joint, n_bins, 4.0)
    assert bound == 1.0 + 2.0 ** -2.5
    assert bound >= l1 / 2
    assert (bound < l1) == (n_bins >= 4)


@st.composite
def more_bins_than_letters(draw):
    """(joint, kernel, n_bins, gamma): a random |A| x |B| joint with some
    zero cells, a reference kernel b -> a and more bins than letters."""
    n_a, n_b = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    weight = st.just(0.0) | st.floats(0.01, 1.0)
    raw = np.array(draw(st.lists(weight, min_size=n_a * n_b, max_size=n_a * n_b))).reshape(n_a, n_b)
    raw[0, 0] += 0.05  # keep some mass
    kernel = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n_a * n_b, max_size=n_a * n_b)))
    kernel = kernel.reshape(n_b, n_a)
    return (JointPmf(raw / raw.sum()), ConditionalPmf(kernel / kernel.sum(axis=1, keepdims=True)),
            draw(st.integers(n_a + 1, 64)), draw(st.sampled_from((0.25, 1.0, 2.0, 4.0, 6.0))))


@given(more_bins_than_letters())
def test_bounds_cover_the_exact_means_when_bins_outnumber_letters(case):
    # the uniformity bound covers the total variation (half the mean L1),
    # and the decoder bound the mean error, with the joint's own conditional
    # and with a mismatched reference kernel
    joint, ref, n_bins, gamma = case
    l1, err = one_shot_oracle.by_subsets(joint, n_bins)
    assert osrb_uniformity_bound(joint, n_bins, gamma) >= l1 / 2
    assert slc_error_bound(joint, n_bins, gamma) >= err
    assert slc_error_bound(joint, n_bins, gamma, ref) >= one_shot_oracle.by_subsets(joint, n_bins, ref)[1]
