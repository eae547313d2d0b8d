"""Binning-scheme tests: brute-force full-chain enumeration oracles at tiny
blocklengths, hand-frozen corner values, and seeded invariants."""

import itertools
import math
import time
import tracemalloc
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import binning_oracle
from chains import chains_with_zero_cells
from coordsim import binning, probability
from coordsim.binning import (
    BinningRealization,
    SchemeConfig,
    draw_binning,
    entropy_diagnostics,
    epsilon_terms,
    monte_carlo,
    osrb_monte_carlo,
    osrb_uniformity_bound,
    rb_joint,
    rc_joint,
    select_f,
    slc_error_bound,
    slc_posterior,
    trial_metrics,
    _segment_sums,
    _tables,
    _trial_metrics,
)
from coordsim.errors import DomainError, ResourceLimitError, ShapeError
from coordsim.probability import (
    ConditionalPmf,
    JointPmf,
    Pmf,
    NORM_TOL,
    _IidRows,
    _iid_rows,
    _iid_table,
    iid_extension,
    marginalize,
    regroup_pair,
)
from coordsim.region import Decomposition, GammaTriple

# =============================================================================
# fixtures and independent helpers
# =============================================================================


def copy_chain() -> Decomposition:
    ident = np.eye(2)
    return Decomposition(
        p_u=Pmf.uniform(2),
        w_given_u=ConditionalPmf(ident),
        v_given_w=ConditionalPmf(ident),
    )


def skewed_chain() -> Decomposition:
    """|U|=2, |W|=3, |V|=2 with a structural zero to exercise sparse bins."""
    return Decomposition(
        p_u=Pmf(np.array([0.55, 0.45])),
        w_given_u=ConditionalPmf(np.array([[0.5, 0.5, 0.0], [0.1, 0.2, 0.7]])),
        v_given_w=ConditionalPmf(np.array([[0.8, 0.2], [0.4, 0.6], [0.1, 0.9]])),
    )


def dead_symbol_chain() -> Decomposition:
    """W has a symbol that is never emitted, so whole bins can carry no mass."""
    return Decomposition(
        p_u=Pmf(np.array([0.55, 0.45])),
        w_given_u=ConditionalPmf(np.array([[0.5, 0.5, 0.0], [0.3, 0.7, 0.0]])),
        v_given_w=ConditionalPmf(np.array([[0.8, 0.2], [0.4, 0.6], [0.1, 0.9]])),
    )


def seq_index(digits, base):
    idx = 0
    for d in digits:
        idx = idx * base + d
    return idx


def iid_vec(p, n):
    base = len(p)
    out = np.zeros(base ** n)
    for digits in itertools.product(range(base), repeat=n):
        out[seq_index(digits, base)] = math.prod(p[d] for d in digits)
    return out


def iid_kernel(rows, n):
    n_in, n_out = rows.shape
    out = np.zeros((n_in ** n, n_out ** n))
    for xd in itertools.product(range(n_in), repeat=n):
        for yd in itertools.product(range(n_out), repeat=n):
            out[seq_index(xd, n_in), seq_index(yd, n_out)] = math.prod(
                rows[x, y] for x, y in zip(xd, yd)
            )
    return out


def brute_tables(d: Decomposition, n: int):
    pu = iid_vec(d.p_u.probs, n)
    k_wu = iid_kernel(d.w_given_u.rows, n)
    k_vw = iid_kernel(d.v_given_w.rows, n)
    puw = pu[:, None] * k_wu
    pw = puw.sum(axis=0)
    return pu, puw, pw, k_vw


def brute_rb_full(d: Decomposition, b: BinningRealization, n: int):
    """Reverse joint, axes (u, w, f, c, m, hw, v), by direct enumeration."""
    pu, puw, pw, k_vw = brute_tables(d, n)
    n_u, n_w = puw.shape
    n_v = k_vw.shape[1]
    out = np.zeros((n_u, n_w, b.bins_f, b.bins_c, b.bins_m, n_w, n_v))
    for w in range(n_w):
        if pw[w] <= 0:
            continue
        f, c, m = int(b.phi_f[w]), int(b.phi_c[w]), int(b.phi_m[w])
        trip = [x for x in range(n_w)
                if b.phi_f[x] == f and b.phi_c[x] == c and b.phi_m[x] == m]
        tmass = sum(pw[x] for x in trip)
        post = {x: pw[x] / tmass for x in trip if pw[x] > 0}
        for u in range(n_u):
            if puw[u, w] <= 0:
                continue
            for hw, pd in post.items():
                for v in range(n_v):
                    out[u, w, f, c, m, hw, v] += puw[u, w] * pd * k_vw[w, v]
    return out


def brute_rc_full(d: Decomposition, b: BinningRealization, n: int):
    """Protocol joint, axes (u, f, c, w, m, hw, v), by direct enumeration,
    and the mass aborted through the w0 fallback (the first sequence with
    reference mass)."""
    pu, puw, pw, k_vw = brute_tables(d, n)
    n_u, n_w = puw.shape
    w0 = next(w for w in range(n_w) if pw[w] > 0)
    n_v = k_vw.shape[1]
    out = np.zeros((n_u, b.bins_f, b.bins_c, n_w, b.bins_m, n_w, n_v))
    abort = 0.0
    q = 1.0 / (b.bins_f * b.bins_c)
    for f in range(b.bins_f):
        for c in range(b.bins_c):
            bin_ws = [w for w in range(n_w)
                      if b.phi_f[w] == f and b.phi_c[w] == c]
            for u in range(n_u):
                base = pu[u] * q
                if base <= 0:
                    continue
                zs = sum(puw[u, w] for w in bin_ws)
                if bin_ws and zs > 0:
                    enc = {w: puw[u, w] / zs for w in bin_ws}
                else:
                    mass = sum(pw[w] for w in bin_ws)
                    if bin_ws and mass > 0:
                        enc = {w: pw[w] / mass for w in bin_ws}
                    else:
                        enc = {w0: 1.0}
                        abort += base
                for wt, pe in enc.items():
                    if pe <= 0:
                        continue
                    m = int(b.phi_m[wt])
                    trip = [w for w in bin_ws if b.phi_m[w] == m]
                    tmass = sum(pw[w] for w in trip)
                    if trip and tmass > 0:
                        post = {w: pw[w] / tmass for w in trip if pw[w] > 0}
                    else:
                        post = {w0: 1.0}
                    for hw, pd in post.items():
                        for v in range(n_v):
                            out[u, f, c, wt, m, hw, v] += base * pe * pd * k_vw[hw, v]
    return out, abort


def scheme(d, n=2, r=1.0, r0=1.0, rt=1.0, seed=7):
    return SchemeConfig(n=n, rate_r=r, rate_r0=r0, rate_rtilde=rt,
                        seed=seed, decomposition=d)


# =============================================================================
# configuration and drawing
# =============================================================================


def test_bin_counts_floor_and_snap():
    d = copy_chain()
    cfg = SchemeConfig(n=2, rate_r=0.75, rate_r0=0.0, rate_rtilde=1.0,
                       seed=0, decomposition=d)
    bf, bc, bm = cfg.bin_counts()
    assert (bf, bc, bm) == (4, 1, 2)  # 2^1.5 = 2.82 floors to 2
    assert cfg.effective_rates() == (0.5, 0.0, 1.0)
    # 10 * 0.3 = 3.0000000000000004 in floats; snapping keeps 8 bins
    cfg2 = SchemeConfig(n=10, rate_r=0.3, rate_r0=0.0, rate_rtilde=0.0,
                        seed=0, decomposition=d)
    assert cfg2.bin_counts()[2] == 8
    assert cfg2.effective_rates()[0] == pytest.approx(0.3, abs=1e-15)


def test_config_validation():
    d = copy_chain()
    for bad in (0, 2.5, math.nan, math.inf, True):
        with pytest.raises(DomainError, match="blocklength"):
            SchemeConfig(n=bad, rate_r=1, rate_r0=1, rate_rtilde=1, seed=0, decomposition=d)
    with pytest.raises(DomainError):
        SchemeConfig(n=2, rate_r=-0.1, rate_r0=1, rate_rtilde=1, seed=0, decomposition=d)
    with pytest.raises(DomainError):
        SchemeConfig(n=2, rate_r=1, rate_r0=1, rate_rtilde=1, seed=-1, decomposition=d)
    with pytest.raises(ResourceLimitError):
        SchemeConfig(n=10, rate_r=7.0, rate_r0=0, rate_rtilde=0, seed=0, decomposition=d)
    with pytest.raises(ResourceLimitError):
        # each map fits in 62 bits but the combined triple index does not
        SchemeConfig(n=1, rate_r=21, rate_r0=21, rate_rtilde=21, seed=0, decomposition=d)


def test_draw_is_deterministic_and_trials_differ():
    cfg = scheme(skewed_chain(), seed=123)
    a = draw_binning(cfg, trial=0)
    b = draw_binning(cfg, trial=0)
    assert np.array_equal(a.phi_f, b.phi_f)
    assert np.array_equal(a.phi_c, b.phi_c)
    assert np.array_equal(a.phi_m, b.phi_m)
    c = draw_binning(cfg, trial=1)
    assert not (
        np.array_equal(a.phi_f, c.phi_f)
        and np.array_equal(a.phi_c, c.phi_c)
        and np.array_equal(a.phi_m, c.phi_m)
    )
    with pytest.raises(DomainError):
        draw_binning(cfg, trial=-1)


def test_numpy_trial_index_is_its_python_int():
    # np.int64(t) << 64 is 0, so a numpy trial index used to key Philox as
    # trial 0; the index check hands back a Python int
    d = skewed_chain()
    cfg = scheme(d, seed=123)
    maps = lambda b: (b.phi_f.tobytes(), b.phi_c.tobytes(), b.phi_m.tobytes())
    assert maps(draw_binning(cfg, np.int64(5))) == maps(draw_binning(cfg, 5))
    assert maps(draw_binning(cfg, np.int64(5))) != maps(draw_binning(cfg, 0))
    hexes = lambda m: [float(x).hex() for x in astuple(m)]
    assert hexes(trial_metrics(d, cfg, np.uint8(5))) == hexes(trial_metrics(d, cfg, 5))
    assert hexes(trial_metrics(d, cfg, np.int64(5))) != hexes(trial_metrics(d, cfg, 0))
    for bad in (-1, 1.5, True, 2 ** 64):
        with pytest.raises(DomainError, match="trial index"):
            draw_binning(cfg, bad)
        with pytest.raises(DomainError, match="trial index"):
            trial_metrics(d, cfg, bad)


def test_bin_maps_are_roughly_balanced():
    # 4096 sequences into 4 bins: each bin near 1024 (5+ sigma slack)
    d = copy_chain()
    cfg = SchemeConfig(n=12, rate_r=2.0 / 12.0, rate_r0=0.0, rate_rtilde=0.0,
                       seed=31, decomposition=d)
    b = draw_binning(cfg)
    assert b.bins_m == 4
    counts = np.bincount(b.phi_m, minlength=4)
    assert counts.sum() == 4096
    assert np.all(np.abs(counts - 1024) < 300)


def test_realization_validation():
    d = copy_chain()
    cfg = scheme(d)
    b = draw_binning(cfg)
    with pytest.raises(DomainError):
        BinningRealization(
            phi_f=b.phi_f, phi_c=b.phi_c, phi_m=np.full_like(b.phi_m, 99),
            bins_f=b.bins_f, bins_c=b.bins_c, bins_m=b.bins_m, w_mass=b.w_mass,
        )
    # plain lists are converted before any shape check
    from_lists = BinningRealization(
        phi_f=b.phi_f.tolist(), phi_c=b.phi_c.tolist(), phi_m=b.phi_m.tolist(),
        bins_f=b.bins_f, bins_c=b.bins_c, bins_m=b.bins_m, w_mass=b.w_mass.tolist(),
    )
    assert np.array_equal(from_lists.phi_f, b.phi_f)
    assert np.array_equal(from_lists.phi_m, b.phi_m)
    assert np.array_equal(from_lists.w_mass, b.w_mass)
    with pytest.raises(ShapeError):
        BinningRealization(
            phi_f=b.phi_f.tolist(), phi_c=b.phi_c.tolist()[:-1], phi_m=b.phi_m.tolist(),
            bins_f=b.bins_f, bins_c=b.bins_c, bins_m=b.bins_m, w_mass=b.w_mass,
        )


# =============================================================================
# decoder posterior
# =============================================================================


def _manual_realization(d, n, phi_f, phi_c, phi_m, bins):
    pw = iid_vec(d.p_u.probs @ d.w_given_u.rows, n)
    return BinningRealization(
        phi_f=np.array(phi_f), phi_c=np.array(phi_c), phi_m=np.array(phi_m),
        bins_f=bins[0], bins_c=bins[1], bins_m=bins[2], w_mass=pw,
    )


def test_posterior_restricts_and_renormalizes():
    d = skewed_chain()  # pw over 9 sequences, nonuniform
    b = _manual_realization(
        d, 2,
        phi_f=[0] * 9, phi_c=[0] * 9,
        phi_m=[0, 0, 1, 1, 1, 1, 1, 1, 1], bins=(1, 1, 2),
    )
    pmf, aborted = slc_posterior(b, 0, 0, 0)
    assert not aborted
    pw = b.w_mass
    expect = np.zeros(9)
    expect[[0, 1]] = pw[[0, 1]] / pw[[0, 1]].sum()
    np.testing.assert_allclose(pmf.probs, expect, atol=1e-15)


def test_posterior_empty_and_zero_mass_abort():
    d = dead_symbol_chain()
    # sequence (2,2) = flat 8 has zero mass; isolate it in bin m=1
    b = _manual_realization(
        d, 2,
        phi_f=[0] * 9, phi_c=[0] * 9,
        phi_m=[0, 0, 0, 0, 0, 0, 0, 0, 1], bins=(1, 1, 4),
    )
    pmf, aborted = slc_posterior(b, 0, 0, 1)  # zero-mass bin
    assert aborted and pmf.probs[0] == 1.0
    pmf2, aborted2 = slc_posterior(b, 0, 0, 3)  # empty bin
    assert aborted2 and pmf2.probs[0] == 1.0
    with pytest.raises(DomainError):
        slc_posterior(b, 0, 0, 4)


# =============================================================================
# full-chain enumeration oracles
# =============================================================================


@pytest.mark.parametrize("maker,seed", [
    (skewed_chain, 0), (skewed_chain, 3), (dead_symbol_chain, 1),
])
def test_rb_joint_matches_brute_force(maker, seed):
    d = maker()
    cfg = scheme(d, n=2, r=1.0, r0=0.5, rt=1.0, seed=seed)
    b = draw_binning(cfg)
    oracle = brute_rb_full(d, b, 2)
    full = rb_joint(d, b, cfg).marginal(("u", "w", "f", "c", "m", "hw", "v"))
    np.testing.assert_allclose(full.probs, oracle, atol=1e-12)
    # a permuted subset marginal agrees with summing the oracle
    sub = rb_joint(d, b, cfg).marginal(("v", "u", "m"))
    np.testing.assert_allclose(
        sub.probs, oracle.sum(axis=(1, 2, 3, 5)).transpose(2, 0, 1), atol=1e-12
    )


def test_rb_uwv_marginal_is_iid_chain():
    d = skewed_chain()
    cfg = scheme(d, n=2, seed=5)
    b = draw_binning(cfg)
    got = rb_joint(d, b, cfg).marginal(("u", "w", "v"))
    pu, puw, pw, k_vw = brute_tables(d, 2)
    expect = puw[:, :, None] * k_vw[None, :, :]
    np.testing.assert_allclose(got.probs, expect, atol=1e-12)


@pytest.mark.parametrize("maker,seed", [
    (skewed_chain, 0), (skewed_chain, 7), (dead_symbol_chain, 2),
])
def test_rc_joint_matches_brute_force(maker, seed):
    d = maker()
    cfg = scheme(d, n=2, r=1.0, r0=0.5, rt=1.0, seed=seed)
    b = draw_binning(cfg)
    oracle, _ = brute_rc_full(d, b, 2)
    full = rc_joint(d, b, cfg).marginal(("u", "f", "c", "w", "m", "hw", "v"))
    np.testing.assert_allclose(full.probs, oracle, atol=1e-12)
    # coupled (hw, v) pair without the synthesized sequence axis
    pair = rc_joint(d, b, cfg).marginal(("hw", "v"))
    np.testing.assert_allclose(
        pair.probs, oracle.sum(axis=(0, 1, 2, 3, 4)), atol=1e-12
    )
    # permuted order transposes correctly
    swapped = rc_joint(d, b, cfg).marginal(("v", "hw"))
    np.testing.assert_allclose(swapped.probs, pair.probs.T, atol=1e-12)


def test_trial_metrics_match_brute_force():
    d = skewed_chain()
    for seed in range(4):
        cfg = scheme(d, n=2, r=1.0, r0=0.5, rt=1.0, seed=seed)
        b = draw_binning(cfg, trial=0)
        rep = monte_carlo(d, cfg, trials=1, gamma=GammaTriple(2.0, 1.0, 2.0))
        oracle, abort = brute_rc_full(d, b, 2)
        pu, puw, pw, k_vw = brute_tables(d, 2)
        target = puw @ k_vw  # iid (u, v) law
        rc_uv = oracle.sum(axis=(1, 2, 3, 4, 5))
        assert rep.l1_uv == pytest.approx(abs(rc_uv - target).sum(), abs=1e-12)
        assert rep.abort_rate == pytest.approx(abort, abs=1e-12)
        # index-uniformity surface
        rb = brute_rb_full(d, b, 2)
        rb_ufc = rb.sum(axis=(1, 4, 5, 6))
        ideal = pu[:, None, None] / (b.bins_f * b.bins_c)
        assert rep.l1_index_fc == pytest.approx(abs(rb_ufc - ideal).sum(), abs=1e-12)
        # triple-bin decoder error under the reverse joint
        w_hw = rb.sum(axis=(0, 2, 3, 4, 6))
        assert rep.decoder_error == pytest.approx(1.0 - np.trace(w_hw), abs=1e-12)


@settings(max_examples=300)
@given(d=chains_with_zero_cells(), n=st.integers(1, 3), data=st.data())
def test_segment_sum_metrics_match_per_key_oracle(d, n, data):
    # arbitrary bin maps over W^n: empty keys, bins whose members carry no
    # mass for some u (encoder falls back to the bin reference), bins with
    # no reference mass at all (w0 abort) and zero-mass triples all occur
    tab = _tables(d, n)
    bins = [data.draw(st.integers(1, 4), label=f"bins_{a}") for a in "fcm"]
    maps = [data.draw(st.lists(st.integers(0, k - 1), min_size=tab.n_w, max_size=tab.n_w),
                      label=f"phi_{a}") for a, k in zip("fcm", bins)]
    b = BinningRealization(phi_f=maps[0], phi_c=maps[1], phi_m=maps[2],
                           bins_f=bins[0], bins_c=bins[1], bins_m=bins[2], w_mass=tab.pw)
    got = _trial_metrics(tab, b)
    want = binning_oracle.trial_metrics(tab, b)
    for name in ("l1_uv", "select_f_distance", "l1_index_fc", "decoder_error", "abort_rate"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12, name
    scan = binning_oracle.seed_scan(tab, b, binning_oracle.key_paths(tab, b)[0])
    if got.select_f_index != want.select_f_index:
        # only a near-tie may pick a different seed, and then it is one of
        # the two best
        best = sorted(dist for dist, _ in scan.values())
        assert len(best) > 1 and best[1] - best[0] <= 1e-12
        assert abs(scan[got.select_f_index][0] - best[0]) <= 1e-12
    if got.select_f_index in scan:
        cond_rc = scan[got.select_f_index][1]
        expect_sel = float(np.abs(cond_rc - tab.target_uv).sum())
    else:  # no seed carries reverse mass: both fall back to f = 0
        expect_sel = want.l1_uv_given_f
    assert abs(got.l1_uv_given_f - expect_sel) <= 1e-12


SPECIAL_ENTRIES = [-0.0, 0.0, np.nan, np.inf, -np.inf]


@settings(max_examples=300)
@given(n_col=st.sampled_from([None, 1, 2, 3, 17, 64]), n_seg=st.integers(1, 40),
       rows=st.integers(0, 120), skew=st.integers(0, 3), sort=st.booleans(),
       cap=st.sampled_from([None, 1, 40]), seed=st.integers(0, 2 ** 32 - 1),
       specials=st.lists(st.tuples(st.integers(0, 10 ** 6), st.sampled_from(SPECIAL_ENTRIES)),
                         max_size=8))
# inf and -inf in one sum, padded and by passes: NaN, without the RuntimeWarning
# np.bincount never gives
@example(n_col=2, n_seg=1, rows=2, skew=0, sort=True, cap=None, seed=0,
         specials=[(0, np.inf), (2, -np.inf)])
@example(n_col=2, n_seg=1, rows=2, skew=0, sort=False, cap=1, seed=0,
         specials=[(0, np.inf), (2, -np.inf)])
def test_segment_sums_match_the_bincount_reference(n_col, n_seg, rows, skew, sort, cap, seed,
                                                   specials):
    """``_segment_sums`` against one bincount over flat (segment, column)
    cells, to the bit: 1-D and 2-D rows, sorted and unsorted ids, empty,
    singleton and long segments, -0.0, NaN and infinities among the
    entries, and a small gather block (``cap``), which sends wide segments
    through passes, blocks and long-run reduces."""
    rng = np.random.default_rng(seed)
    # skewed segment ids: a few long segments among many short ones
    ids = rng.integers(0, n_seg, (skew + 1, rows)).min(axis=0)
    if sort:
        ids = np.sort(ids)
    x = rng.standard_normal((rows,) if n_col is None else (rows, n_col))
    x *= 10.0 ** rng.integers(-12, 13, x.shape)  # so that the order of the additions shows
    flat = x.reshape(-1)
    for at, v in specials:
        if flat.size:
            flat[at % flat.size] = v
    with mock.patch.object(binning, "_GATHER_CELLS", cap or binning._GATHER_CELLS):
        got = _segment_sums(x, ids, n_seg)
    want = binning_oracle.segment_sums(x, ids, n_seg)
    if rows:
        event(f"longest segment {'>' if np.bincount(ids).max() > 8 else '<='} 8 rows")
    assert got.shape == want.shape
    # (an empty bincount is int64 zeros: compare values, as floats)
    hexes = [[float(v).hex() for v in a.ravel().tolist()] for a in (got, want)]
    assert hexes[0] == hexes[1]


BRUTE_AXES = {"rb": ("u", "w", "f", "c", "m", "hw", "v"),
              "rc": ("u", "f", "c", "w", "m", "hw", "v")}


@settings(max_examples=200)
@given(d=chains_with_zero_cells(), n=st.integers(1, 2),
       order=st.permutations(BRUTE_AXES["rb"]), n_axes=st.integers(1, 7), data=st.data())
def test_joint_marginals_match_brute_force(d, n, order, n_axes, data):
    # arbitrary bin maps, as in the segment-sum test: encoder fallbacks,
    # w0 aborts and zero-mass triples all occur; any axis subset, any order
    tab = _tables(d, n)
    bins = [data.draw(st.integers(1, 4), label=f"bins_{a}") for a in "fcm"]
    maps = [data.draw(st.lists(st.integers(0, k - 1), min_size=tab.n_w, max_size=tab.n_w),
                      label=f"phi_{a}") for a, k in zip("fcm", bins)]
    b = BinningRealization(phi_f=maps[0], phi_c=maps[1], phi_m=maps[2],
                           bins_f=bins[0], bins_c=bins[1], bins_m=bins[2], w_mass=tab.pw)
    cfg = scheme(d, n=n)
    axes = order[:n_axes]
    for name, joint, full in (("rb", rb_joint, brute_rb_full(d, b, n)),
                              ("rc", rc_joint, brute_rc_full(d, b, n)[0])):
        brute_axes = BRUTE_AXES[name]
        kept = [a for a in brute_axes if a in axes]
        expect = full.sum(axis=tuple(i for i, a in enumerate(brute_axes) if a not in axes))
        expect = expect.transpose([kept.index(a) for a in axes])
        got = joint(d, b, cfg).marginal(axes)
        assert got.probs.shape == expect.shape, name
        assert np.abs(got.probs - expect).max() <= 1e-12, (name, axes)


@pytest.mark.parametrize("rt", [1.0, 11.0])
def test_rc_uv_marginal_agrees_with_trial_l1(rt):
    # rt = 11 gives 2^22 seed bins at n = 2, far more (f, c) keys than W^n
    # has sequences: the unhit keys are lumped, never enumerated
    d = skewed_chain()
    cfg = scheme(d, n=2, r=1.0, r0=0.5, rt=rt, seed=4)
    b = draw_binning(cfg)
    tab = _tables(d, 2)
    uv = rc_joint(d, b, cfg).marginal(("u", "v")).probs
    l1 = float(np.abs(uv - tab.target_uv).sum())
    assert abs(l1 - _trial_metrics(tab, b).l1_uv) <= 1e-12


def chain3() -> Decomposition:
    """|U|=2, |W|=3, |V|=2 with no zero cell: the benchmark's simulate chain."""
    return Decomposition(
        p_u=Pmf(np.array([0.55, 0.45])),
        w_given_u=ConditionalPmf(np.array([[0.5, 0.3, 0.2], [0.1, 0.2, 0.7]])),
        v_given_w=ConditionalPmf(np.array([[0.8, 0.2], [0.4, 0.6], [0.1, 0.9]])),
    )


# every TrialMetrics field of chain3 at n = 6, rates 0.5, seed 123, trials
# 0-2 (floats as float.hex), with P(W^n) and P(U^n) the folds of the
# one-letter marginals: working per seed block must not move a bit
CHAIN3_N6_BITS = [
    ("0x1.81800c07e3970p-2", "0x1.c7f5b28b0f5e4p-2", 5, "0x1.a7ecbfdc82fdap-2",
     "0x1.14d15e6dad375p-1", "0x1.bb0ceec202730p-2", "0x0.0p+0"),
    ("0x1.8038f40d13ea2p-2", "0x1.95d90413cf59cp-2", 0, "0x1.835caccb7c822p-2",
     "0x1.0cca7afde2274p-1", "0x1.ba9ce95031e58p-2", "0x0.0p+0"),
    ("0x1.865f1e944882cp-2", "0x1.b0ff65c598af7p-2", 1, "0x1.95f44695364bdp-2",
     "0x1.09e05e869e02fp-1", "0x1.bc696bd45629cp-2", "0x0.0p+0"),
]


def test_trial_metrics_bits_at_n6():
    # at n = 6 the 729 sequences fall into 64 (f, c) keys and at most 512
    # triples, so segment sums add several rows per key and per triple,
    # unlike the n = 2 golden file
    d = chain3()
    cfg = scheme(d, n=6, r=0.5, r0=0.5, rt=0.5, seed=123)
    tab = _tables(d, 6)
    for t, want in enumerate(CHAIN3_N6_BITS):
        got = astuple(_trial_metrics(tab, draw_binning(cfg, trial=t)))
        assert tuple(v.hex() if isinstance(v, float) else v for v in got) == want, t


def test_trial_metrics_keep_their_bits_at_every_factor_depth():
    # factors held at every depth from 0 to 4, so every row is rebuilt by
    # 6 down to 2 fold steps, give the bits of the default factors (one
    # step at n = 6)
    d = chain3()
    cfg = scheme(d, n=6, r=0.5, r0=0.5, rt=0.5, seed=123)
    b = draw_binning(cfg, trial=0)
    want = astuple(_trial_metrics(_tables(d, 6), b))
    assert tuple(v.hex() if isinstance(v, float) else v for v in want) == CHAIN3_N6_BITS[0]
    for depth in range(5):
        with mock.patch.object(probability, "_BLOCK_CELLS", 6 ** depth):
            tab = _tables(d, 6)
            tab.pvn
        assert (tab.pwu.steps, tab.pvn.steps) == (6 - depth, 6 - depth)
        got = astuple(_trial_metrics(tab, b))
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want], depth


def test_trial_never_builds_a_full_row_table():
    # a trial gathers one seed block of rows at a time, so its peak stays
    # below one (n_w, n_u) float64 table; gathering all rows at once peaks
    # near 5.6 tables
    d = chain3()
    cfg = scheme(d, n=7, r=0.5, r0=0.5, rt=0.5, seed=123)
    tab = _tables(d, 7)
    tab.pv0, tab.target_uv  # build the kernel factor and the target before tracing
    b = draw_binning(cfg, trial=0)
    tracemalloc.start()
    try:
        _trial_metrics(tab, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tab.n_w * tab.n_u * 8, peak / (tab.n_w * tab.n_u * 8)


def test_tables_hold_factors_not_full_tables():
    # from building the tables through one trial, the peak stays below two
    # (n_w, n_u) float64 tables and what is still held afterwards below half
    # of one: only the (n-1)-fold factors of the joint and kernel are kept
    # (holding both full tables peaks near 2.9 and keeps 2.1)
    d = chain3()
    cfg = scheme(d, n=7, r=0.5, r0=0.5, rt=0.5, seed=123)
    b = draw_binning(cfg, trial=0)
    table_bytes = 3 ** 7 * 2 ** 7 * 8
    tracemalloc.start()
    try:
        tab = _tables(d, 7)
        _trial_metrics(tab, b)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * table_bytes, peak / table_bytes
    assert held < 0.5 * table_bytes, held / table_bytes
    for value in vars(tab).values():
        arrays = vars(value).values() if isinstance(value, _IidRows) else [value]
        for a in arrays:
            assert np.size(a) < tab.n_w * min(tab.n_u, tab.n_v), np.shape(a)


def test_table_build_never_holds_a_full_table():
    # the divisors of both n-fold tables are folds of one-letter totals,
    # and the tables are not checked again: building the tables and the
    # kernel traces about 0.07 of one (n_w, n_u) float64 table at n = 8
    # (the two held factors and the W^n and U^n laws); streaming the
    # divisors and marginals off row blocks traced 0.26, and building each
    # full table once 1.36
    d = chain3()
    table_bytes = 3 ** 8 * 2 ** 8 * 8
    tracemalloc.start()
    try:
        tab = _tables(d, 8)
        tab.pvn
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.15 * table_bytes, peak / table_bytes


def test_tables_hold_factors_of_at_most_a_block():
    # each factor is the raw product of the most letters that fit in
    # _BLOCK_CELLS entries (about 2 MB), at every n: at n = 9 the tables
    # and the kernel hold about 1.1 MB, where (n-1)-fold factors held 27 MB
    d = chain3()
    pair = regroup_pair(marginalize(d.joint(), ("w", "u")), "w", "u")
    for n in range(1, 11):
        for law, t in ((pair, pair.probs), (d.v_given_w, d.v_given_w.rows)):
            factor = _iid_rows(law, n)
            assert factor.pre.size <= probability._BLOCK_CELLS, (n, factor.pre.shape)
            assert factor.steps == 1 or factor.pre.size * t.size > probability._BLOCK_CELLS, n
    tracemalloc.start()
    try:
        tab = _tables(d, 9)
        tab.pvn
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (tab.pwu.steps, tab.pvn.steps) == (3, 3)
    assert held < 2 * 2 ** 20, held / 2 ** 20


def hex_list(a) -> list:
    return [float(x).hex() for x in np.ravel(a)]


def factor_budgets(n: int, *tables) -> list[int]:
    """Factor budgets (``probability._BLOCK_CELLS``) under which each
    n-fold table of ``tables`` is held at every depth from 0 to n - 1, so
    its rows are rebuilt by every number of fold steps from n down to 1."""
    return sorted({t.size ** depth for t in tables for depth in range(n)})


def inexact_chain(p_u, w_given_u, v_given_w) -> Decomposition:
    """A chain whose laws the constructors accept though they are not
    exact: float dust clamped, or totals a little off 1."""
    return Decomposition(p_u=Pmf(np.array(p_u)), w_given_u=ConditionalPmf(np.array(w_given_u)),
                         v_given_w=ConditionalPmf(np.array(v_given_w)))


@settings(max_examples=120, deadline=None)
@given(d=chains_with_zero_cells(), n=st.integers(1, 6))
# a -1e-16 entry clamped as dust in both kernels
@example(d=inexact_chain([0.5, 0.5], [[0.5, 0.5, -1e-16], [0.2, 0.3, 0.5]],
                         [[1.0, -1e-16], [0.4, 0.6], [0.25, 0.75]]), n=5)
# a joint total of 1 + 9e-13
@example(d=inexact_chain([0.3, 0.7 + 9e-13], [[0.5, 0.5], [0.1, 0.9]], [[0.2, 0.8], [0.6, 0.4]]), n=6)
# kernel rows that sum to 1 + 9e-13 and 1 - 9e-13
@example(d=inexact_chain([0.25, 0.75], [[0.5, 0.5], [0.1, 0.9]],
                         [[0.3, 0.7 + 9e-13], [0.6 - 9e-13, 0.4]]), n=6)
def test_streamed_divisors_are_the_folds_of_the_one_letter_totals(d, n):
    # both n-fold tables, in full and streamed from factors of every depth,
    # divide their raw product by the fold of the one-letter total (for a
    # kernel, of its row sums); a one-cell table folds at most twice.  The
    # streamed tables are not checked again, so the examples take laws at
    # the edge of what the constructors accept: the n-fold totals (per row
    # for a kernel) stay within NORM_TOL
    joint = regroup_pair(marginalize(d.joint(), ("w", "u")), "w", "u")
    for law, t in ((joint, joint.probs), (d.v_given_w, d.v_given_w.rows)):
        kernel = isinstance(law, ConditionalPmf)
        folds = min(n, 2) if t.size == 1 else n
        norm = _iid_table(t.sum(axis=1 if kernel else None, keepdims=True), folds)
        full = iid_extension(law, n).rows if kernel else iid_extension(law, n).probs
        assert hex_list(full) == hex_list(_iid_table(t, folds) / norm)
        totals = full.sum(axis=1) if kernel else full.sum()
        assert np.max(np.abs(totals - 1.0)) <= NORM_TOL
        for budget in factor_budgets(n, t):
            with mock.patch.object(probability, "_BLOCK_CELLS", budget):
                rows = _iid_rows(law, n)
            assert hex_list(rows.norm) == hex_list(norm)
            assert hex_list(rows.rows(np.arange(full.shape[0]))) == hex_list(full)


def test_tables_and_the_binning_share_one_w_law():
    # the decoders of a trial read _tables' P(W^n), slc_posterior reads
    # the realization's w_mass: one law, the same bits
    for d, n in itertools.product((chain3(), skewed_chain(), dead_symbol_chain()), (1, 2, 6)):
        tab = _tables(d, n)
        w_mass = draw_binning(scheme(d, n=n, r=0.5, r0=0.5, rt=0.5, seed=5), trial=1).w_mass
        assert tab.pw.tobytes() == w_mass.tobytes()
        np.testing.assert_allclose(tab.pu, iid_extension(d.p_u, n).probs, rtol=1e-13, atol=0)


@settings(max_examples=150)
@given(d=chains_with_zero_cells(), n=st.integers(1, 5), data=st.data())
def test_factor_rows_match_the_full_tables_bit_for_bit(d, n, data):
    # from factors of every depth, so each row is rebuilt by 1 to n fold steps
    pair = regroup_pair(marginalize(d.joint(), ("w", "u")), "w", "u")
    joint = iid_extension(pair, n).probs
    kernel = iid_extension(d.v_given_w, n).rows
    # unsorted, repeated and empty index arrays
    w = np.array(data.draw(st.lists(st.integers(0, joint.shape[0] - 1), max_size=12), label="w"),
                 dtype=np.int64)
    pad = data.draw(st.integers(0, 3), label="pad")
    steps = set()
    for budget in factor_budgets(n, pair.probs, d.v_given_w.rows):
        with mock.patch.object(probability, "_BLOCK_CELLS", budget):
            tab = _tables(d, n)
            tab.pvn
        for factor, full in ((tab.pwu, joint), (tab.pvn, kernel)):
            assert factor.pre.size <= budget
            steps.add((factor.t.size, factor.steps))
            want = full[w].view(np.int64)
            assert np.array_equal(factor.rows(w).view(np.int64), want)
            # written into a slice of a larger array
            big = np.full((w.size + 2 * pad, full.shape[1]), np.nan)
            got = factor.rows(w, out=big[pad:pad + w.size])
            assert got.size == 0 or np.shares_memory(got, big)
            assert np.array_equal(big[pad:pad + w.size].view(np.int64), want)
            assert np.isnan(big[:pad]).all() and np.isnan(big[pad + w.size:]).all()
        # P(W^n) and P(U^n) fold the one-letter marginals: the joint's row
        # and column sums to within rounding
        np.testing.assert_allclose(tab.pw, joint.sum(axis=1), rtol=1e-13, atol=0)
        np.testing.assert_allclose(tab.pu, joint.sum(axis=0), rtol=1e-13, atol=0)
        assert np.array_equal(tab.pv0, kernel[tab.w0])
    for t in (pair.probs, d.v_given_w.rows):
        if t.size > 1:
            assert {k for size, k in steps if size == t.size} >= set(range(1, n + 1))


def test_abort_rate_positive_with_dead_bins():
    d = dead_symbol_chain()
    found = False
    for seed in range(20):
        cfg = scheme(d, n=2, r=1.0, r0=1.0, rt=1.0, seed=seed)
        b = draw_binning(cfg)
        _, abort = brute_rc_full(d, b, 2)
        if abort > 0:
            found = True
            rep = monte_carlo(d, cfg, trials=1, gamma=GammaTriple(2.0, 1.0, 2.0))
            assert rep.abort_rate == pytest.approx(abort, abs=1e-12)
            break
    assert found, "no seed produced a zero-mass bin; weaken the construction"


def test_single_bin_scheme_gives_product_law():
    # one bin everywhere: decoder sees nothing, V is drawn from the
    # unconditional posterior, so (U, V) is exactly the product law
    d = skewed_chain()
    cfg = scheme(d, n=2, r=0.0, r0=0.0, rt=0.0, seed=9)
    b = draw_binning(cfg)
    uv = rc_joint(d, b, cfg).marginal(("u", "v"))
    pu, puw, pw, k_vw = brute_tables(d, 2)
    np.testing.assert_allclose(uv.probs, np.outer(pu, pw @ k_vw), atol=1e-12)


def test_injective_message_with_trivial_seed_bins_is_exact():
    # R-tilde = R0 = 0 and an injective message map: the decoder recovers
    # W^n with certainty and the protocol law equals the reverse law
    d = copy_chain()
    cfg = scheme(d, n=2, r=1.0, r0=0.0, rt=0.0, seed=0)
    b = _manual_realization(d, 2, phi_f=[0] * 4, phi_c=[0] * 4,
                            phi_m=[0, 1, 2, 3], bins=(1, 1, 4))
    rc = rc_joint(d, b, cfg)
    w_hw = rc.marginal(("w", "hw")).probs
    assert np.trace(w_hw) == pytest.approx(1.0, abs=1e-12)
    uv = rc.marginal(("u", "v")).probs
    pu, puw, pw, k_vw = brute_tables(d, 2)
    np.testing.assert_allclose(uv, puw @ k_vw, atol=1e-12)


# =============================================================================
# error terms
# =============================================================================


def test_epsilon_terms_match_brute_force_sets():
    d = skewed_chain()
    cfg = scheme(d, n=2, r=1.0, r0=0.5, rt=1.0, seed=0)
    bf, bc, bm = cfg.bin_counts()
    g = GammaTriple(2.25, 1.5, 2.25)
    pu, puw, pw, k_vw = brute_tables(d, 2)
    puwv = puw[:, :, None] * k_vw[None, :, :]
    puv = puwv.sum(axis=1)
    t1 = math.log2(bf * bc) + g.g1
    t2 = math.log2(bf * bc * bm) - g.g2
    t3 = math.log2(bf) + g.g3
    fail1 = fail2 = fail3 = 0.0
    for u in range(puw.shape[0]):
        for w in range(puw.shape[1]):
            if puw[u, w] > 0 and -math.log2(puw[u, w] / pu[u]) <= t1:
                fail1 += puw[u, w]
    for w in range(pw.shape[0]):
        if pw[w] > 0 and -math.log2(pw[w]) >= t2:
            fail2 += pw[w]
    for u, w, v in itertools.product(*map(range, puwv.shape)):
        if puwv[u, w, v] > 0 and -math.log2(puwv[u, w, v] / puv[u, v]) <= t3:
            fail3 += puwv[u, w, v]
    e_app, e_dec, e_app2, e_tot = epsilon_terms(d, cfg, g)
    assert e_app == pytest.approx(fail1 + 2 ** (-(g.g1 + 1) / 2), abs=1e-12)
    assert e_dec == pytest.approx(fail2 + 2 ** (-g.g2), abs=1e-12)
    assert e_app2 == pytest.approx(fail3 + 2 ** (-(g.g3 + 1) / 2), abs=1e-12)
    assert e_tot == pytest.approx(2 * (e_app2 + e_app + 5 * e_dec), abs=1e-12)


@pytest.mark.parametrize("rates", [(0, 0, 0), (1, 0, 1), (1, 1, 2), (2, 1, 0), (3, 2, 1)])
@pytest.mark.parametrize("g", [GammaTriple(0.3, 0.7, 1.6), GammaTriple(1.3, 0.45, 0.2)])
def test_epsilon_terms_at_one_letter_are_the_one_shot_bounds(rates, g):
    # at n = 1 each tail term is a one-shot lemma on a one-letter joint:
    # OSRB of W given U into bins_f bins_c, SLC of W alone into all the
    # bins, OSRB of W given (U, V) into bins_f; power-of-two counts keep
    # log2 of a product the sum of the logs
    d = skewed_chain()
    rt, r0, r = rates
    cfg = scheme(d, n=1, r=r, r0=r0, rt=rt, seed=0)
    bf, bc, bm = cfg.bin_counts()
    assert (bf, bc, bm) == (2 ** rt, 2 ** r0, 2 ** r)
    joint = d.joint()
    w_u = regroup_pair(marginalize(joint, ("u", "w")), "w", "u")
    w_alone = JointPmf(marginalize(joint, ("w",)).probs[:, None])
    w_uv = regroup_pair(joint, "w", ("u", "v"))
    e_app, e_dec, e_app2, e_tot = epsilon_terms(d, cfg, g)
    assert e_app == pytest.approx(osrb_uniformity_bound(w_u, bf * bc, g.g1), abs=1e-12)
    assert e_dec == pytest.approx(slc_error_bound(w_alone, bf * bc * bm, g.g2), abs=1e-12)
    assert e_app2 == pytest.approx(osrb_uniformity_bound(w_uv, bf, g.g3), abs=1e-12)
    assert e_tot == 2 * (e_app2 + e_app + 5 * e_dec)


def test_eps_dec_reduces_to_floor_term_when_tail_empty():
    # copy chain, uniform binary W, n=2: entropy density sums to exactly 2
    # bits; with 16 message bins and gamma2 = 1 the tail set is empty
    d = copy_chain()
    cfg = scheme(d, n=2, r=2.0, r0=0.0, rt=0.0, seed=0)
    _, e_dec, _, _ = epsilon_terms(d, cfg, GammaTriple(1.0, 1.0, 1.0))
    assert e_dec == pytest.approx(0.5, abs=1e-15)


def test_epsilon_terms_use_effective_rates():
    # nominal rates that floor to the same bin counts give identical terms;
    # rates that floor differently do not
    d = skewed_chain()
    g = GammaTriple(2.0, 1.0, 2.0)
    a = epsilon_terms(d, scheme(d, n=2, r=0.2, r0=0.5, rt=1.0, seed=0), g)
    # (2^0.8, 2^1.0, 2^2.1) floors to the same (1, 2, 4) counts
    same = epsilon_terms(d, scheme(d, n=2, r=0.4, r0=0.5, rt=1.05, seed=0), g)
    # one message bin versus two moves the decoder threshold across atoms
    # of the entropy-density law (its sums live in [2.9, 3.4] bits)
    other = epsilon_terms(d, scheme(d, n=2, r=0.5, r0=0.5, rt=1.0, seed=0), g)
    assert a == same
    assert a[1] != other[1]


# =============================================================================
# seed selection
# =============================================================================


def test_select_f_matches_exhaustive_scan():
    d = skewed_chain()
    for seed in range(5):
        cfg = scheme(d, n=2, r=1.0, r0=0.5, rt=1.0, seed=seed)
        b = draw_binning(cfg)
        rb = brute_rb_full(d, b, 2)
        rc, _ = brute_rc_full(d, b, 2)
        rb_fuv = rb.sum(axis=(1, 3, 4, 5)).transpose(1, 0, 2)  # (f, u, v)
        rc_fuv = rc.sum(axis=(2, 3, 4, 5)).transpose(1, 0, 2)
        best_f, best_d = -1, math.inf
        for f in range(b.bins_f):
            mass = rb_fuv[f].sum()
            if mass <= 0:
                continue
            dist = np.abs(rb_fuv[f] / mass - rc_fuv[f] * b.bins_f).sum()
            if dist < best_d - 1e-15:
                best_f, best_d = f, dist
        got_f, got_d = select_f(d, b, cfg)
        assert got_f == best_f
        assert got_d == pytest.approx(best_d, abs=1e-12)


def test_select_f_within_twice_joint_distance():
    # the selected seed's conditional gap never exceeds twice the
    # joint-with-F L1 between reverse and protocol laws
    for maker, seed in [(skewed_chain, 2), (dead_symbol_chain, 4), (copy_chain, 1)]:
        d = maker()
        cfg = scheme(d, n=2, r=1.0, r0=0.5, rt=1.0, seed=seed)
        b = draw_binning(cfg)
        rb = brute_rb_full(d, b, 2).sum(axis=(1, 3, 4, 5))   # (u, f, v)
        rc = brute_rc_full(d, b, 2)[0].sum(axis=(2, 3, 4, 5))  # (u, f, v)
        joint_l1 = np.abs(rb - rc).sum()
        _, got_d = select_f(d, b, cfg)
        assert got_d <= 2.0 * joint_l1 + 1e-12


# =============================================================================
# Monte Carlo aggregation
# =============================================================================


def test_monte_carlo_deterministic_and_fields():
    d = skewed_chain()
    cfg = scheme(d, n=2, seed=77)
    g = GammaTriple(2.0, 1.0, 2.0)
    a = monte_carlo(d, cfg, trials=8, gamma=g)
    b = monte_carlo(d, cfg, trials=8, gamma=g)
    assert a == b  # bit-identical, including the ci dictionary
    assert a.trials == 8 and a.seed == 77
    assert a.l1_uv_given_f_min <= a.l1_uv_given_f + 1e-15
    assert a.ci95 == a.ci95_by_metric["l1_uv_given_f"]
    assert a.effective_rates == cfg.effective_rates()
    assert 0 <= a.decoder_error <= 1 and 0 <= a.abort_rate <= 1


def test_monte_carlo_mean_is_plain_average():
    d = skewed_chain()
    cfg = scheme(d, n=2, seed=13)
    g = GammaTriple(2.0, 1.0, 2.0)
    singles = []
    for t in range(5):
        b = draw_binning(cfg, trial=t)
        oracle, _ = brute_rc_full(d, b, 2)
        pu, puw, pw, k_vw = brute_tables(d, 2)
        target = puw @ k_vw
        singles.append(abs(oracle.sum(axis=(1, 2, 3, 4, 5)) - target).sum())
    rep = monte_carlo(d, cfg, trials=5, gamma=g)
    assert rep.l1_uv == pytest.approx(np.mean(singles), abs=1e-12)


def test_monte_carlo_distinct_seeds_differ():
    # every (seed, trial) pair keys its own stream, so seeds 0-3 over four
    # trials do not draw the same four realizations in another order
    d = skewed_chain()
    g = GammaTriple(2.0, 1.0, 2.0)
    l1 = [monte_carlo(d, scheme(d, n=2, seed=s), trials=4, gamma=g).l1_uv for s in range(4)]
    assert len(set(l1)) == 4, l1


def test_decoder_error_drops_with_message_rate():
    d = copy_chain()
    g = GammaTriple(2.0, 1.0, 2.0)
    errs = []
    for r in (0.5, 1.0, 1.5):
        cfg = scheme(d, n=2, r=r, r0=0.0, rt=0.5, seed=42)
        errs.append(monte_carlo(d, cfg, trials=40, gamma=g).decoder_error)
    assert errs[0] > errs[1] > errs[2]


def test_monte_carlo_default_gamma_is_log_rule():
    d = copy_chain()
    cfg = scheme(d, n=4, seed=3)
    rep = monte_carlo(d, cfg, trials=2)
    explicit = monte_carlo(d, cfg, trials=2, gamma=GammaTriple(2.0, 1.0, 2.0))
    assert rep.eps_tot == explicit.eps_tot


# =============================================================================
# entropy diagnostics
# =============================================================================


def test_entropy_diagnostics_exact_equality_case():
    # copy chain with an injective message map: H(M) = 2 bits and the
    # per-position information sums to exactly the same value
    d = copy_chain()
    cfg = scheme(d, n=2, r=1.0, r0=0.0, rt=0.0, seed=0)
    b = _manual_realization(d, 2, phi_f=[0] * 4, phi_c=[0] * 4,
                            phi_m=[0, 1, 2, 3], bins=(1, 1, 4))
    ucm = rc_joint(d, b, cfg).marginal(("u", "c", "m"))
    rep = entropy_diagnostics(ucm, n=2, u_size=2)
    assert rep.ok
    assert rep.h_m == pytest.approx(2.0, abs=1e-12)
    assert rep.n_times_mi == pytest.approx(2.0, abs=1e-12)
    assert rep.slack == pytest.approx(0.0, abs=1e-12)


def test_entropy_diagnostics_random_realizations():
    d = skewed_chain()
    for seed in range(3):
        cfg = scheme(d, n=2, r=1.0, r0=0.5, rt=1.0, seed=seed)
        b = draw_binning(cfg)
        ucm = rc_joint(d, b, cfg).marginal(("u", "c", "m"))
        rep = entropy_diagnostics(ucm, n=2, u_size=2)
        assert rep.ok and rep.slack >= -1e-9


def test_entropy_diagnostics_one_letter_u_needs_no_reshape():
    # a (1, 2, 2) table at n = 70 would need a 71-axis reshape (numpy
    # allows 64); a one-letter U carries no information, so its terms are 0
    rep = entropy_diagnostics(JointPmf(np.full((1, 2, 2), 0.25)), n=70, u_size=1)
    assert rep.n_times_mi == 0.0
    assert rep.slack == rep.h_m == 1.0


def test_entropy_diagnostics_shape_is_decided_before_the_power():
    # 2^(10^6) is never formed: n log2(u_size) already exceeds the axis
    ucm = JointPmf(np.full((4, 2, 2), 1 / 16))
    start = time.perf_counter()
    with pytest.raises(ShapeError, match=r"is not 2\^1000000"):
        entropy_diagnostics(ucm, n=10 ** 6, u_size=2)
    assert time.perf_counter() - start < 0.005


# =============================================================================
# one-shot lemmas
# =============================================================================


def test_osrb_uniformity_bound_hand_values():
    # A uniform on {0,1} independent of a constant B: h(a|b) = 1 exactly
    joint = JointPmf(np.array([[0.5], [0.5]]))
    assert osrb_uniformity_bound(joint, 1, 0.5) == pytest.approx(2 ** -0.75)
    assert osrb_uniformity_bound(joint, 1, 2.0) == pytest.approx(1 + 2 ** -1.5)
    with pytest.raises(DomainError):
        osrb_uniformity_bound(joint, 0, 1.0)
    with pytest.raises(DomainError):
        osrb_uniformity_bound(joint, 2, 0.0)


def test_slc_error_bound_hand_values():
    # B reveals A (copy): h_T(a|b) = 0, so 4 bins clear any gamma < 2
    joint = JointPmf(np.eye(2) * 0.5)
    assert slc_error_bound(joint, 4, 1.0) == pytest.approx(0.5)
    # and with one bin the set is empty at gamma = 1: bound is 1 + 1/2
    assert slc_error_bound(joint, 1, 1.0) == pytest.approx(1.5)


def test_osrb_monte_carlo_within_bounds():
    rng = np.random.default_rng(5)
    for _ in range(3):
        raw = rng.random((4, 2)) + 0.05
        joint = JointPmf(raw / raw.sum())
        for n_bins, gamma in ((2, 1.0), (4, 2.0)):
            rep = osrb_monte_carlo(joint, n_bins, trials=400, seed=11)
            assert rep.mean_l1 <= osrb_uniformity_bound(joint, n_bins, gamma) + 3 * rep.ci_l1
            assert rep.mean_error <= slc_error_bound(joint, n_bins, gamma) + 3 * rep.ci_error


def test_osrb_monte_carlo_closed_form_means():
    # A uniform on {0,1}, B constant: with 2 bins the symbols share a bin
    # with probability 1/2.  Shared -> the uniform decoder errs with 1/2
    # and the index law collapses (L1 = 1); separated -> no error, L1 = 0.
    joint = JointPmf(np.array([[0.5], [0.5]]))
    rep = osrb_monte_carlo(joint, 2, trials=2000, seed=3)
    assert rep.mean_error == pytest.approx(0.25, abs=3 * rep.ci_error + 1e-12)
    assert rep.mean_l1 == pytest.approx(0.5, abs=3 * rep.ci_l1 + 1e-12)
    # side information that reveals A exactly: the decoder never errs
    copy = JointPmf(np.eye(2) * 0.5)
    rep_copy = osrb_monte_carlo(copy, 2, trials=200, seed=3)
    assert rep_copy.mean_error == pytest.approx(0.0, abs=1e-12)
    # explicit reference kernel matching the conditional changes nothing
    rep_ref = osrb_monte_carlo(joint, 2, trials=2000, seed=3,
                               ref=ConditionalPmf(np.array([[0.5, 0.5]])))
    assert rep_ref.mean_error == pytest.approx(rep.mean_error, abs=1e-12)


def test_per_lemma_sweep_on_chain3_reads_the_uniformity_term_in_total_variation():
    # chain3 with all three rates equal, 10 trials per point: at every point
    # half the (U^n, F, C) L1 (its total variation) stays within eps_app and
    # the decoder error within eps_dec, 3 half-widths below the mean.  The
    # L1 itself clears eps_app by more than 3 half-widths where the bins
    # outnumber what the conditional entropy fills (the first such rate is
    # 1.3, 1.0 and 0.9 at n = 2, 4 and 6), so eps_app is not an L1 bound
    d = chain3()
    l1_above = []
    for n, top in ((2, 16), (4, 16), (6, 10)):
        for rate in (k / 10 for k in range(1, top + 1)):
            rep = monte_carlo(d, scheme(d, n=n, r=rate, r0=rate, rt=rate, seed=3), trials=10)
            ci = rep.ci95_by_metric
            l1_low = rep.l1_index_fc - 3.0 * ci["l1_index_fc"]
            assert l1_low / 2 <= rep.eps_app, (n, rate)
            assert rep.decoder_error - 3.0 * ci["decoder_error"] <= rep.eps_dec, (n, rate)
            if l1_low > rep.eps_app:
                l1_above.append((n, rate))
    first = {n: min(r for m, r in l1_above if m == n) for n, _ in l1_above}
    assert first == {2: 1.3, 4: 1.0, 6: 0.9}


def test_one_shot_lemmas_ignore_an_empty_column():
    # a B letter without mass has no conditional; all three lemmas read the
    # same reference conditional, 0 there, so the column changes nothing
    joint = JointPmf(np.array([[0.3, 0.1], [0.2, 0.4]]))
    padded = JointPmf(np.array([[0.3, 0.0, 0.1], [0.2, 0.0, 0.4]]))
    for gamma in (0.25, 1.0):
        assert osrb_uniformity_bound(padded, 2, gamma) == osrb_uniformity_bound(joint, 2, gamma)
        assert slc_error_bound(padded, 2, gamma) == slc_error_bound(joint, 2, gamma)
    a, b = osrb_monte_carlo(padded, 2, trials=50, seed=9), osrb_monte_carlo(joint, 2, trials=50, seed=9)
    assert a.mean_l1 == pytest.approx(b.mean_l1, abs=1e-15)
    assert a.mean_error == pytest.approx(b.mean_error, abs=1e-15)


def test_osrb_monte_carlo_cap_counts_its_largest_table(monkeypatch):
    # a one-letter A beside 1,000 B letters and 1,000 bins: the decoder's
    # normalizers Z(b, k) are trials x |B| x bins = 10^6 entries, over a cap
    # of 10^5, though trials x |A| x max(bins, |B|) is only 10^3
    monkeypatch.setenv("COORDSIM_MEM_CAP", "100000")
    wide = JointPmf(np.full((1, 1000), 1e-3))
    with pytest.raises(ResourceLimitError) as err:
        osrb_monte_carlo(wide, 1000, trials=1, seed=0)
    assert err.value.required == 10 ** 6
    # exactly at the cap, whether (t, b, k) or (t, b, a) is the largest
    for joint, n_bins in ((JointPmf(np.full((1, 100), 1e-2)), 1000),
                          (JointPmf(np.full((200, 500), 1e-5)), 1)):
        rep = osrb_monte_carlo(joint, n_bins, trials=1, seed=0)
        assert rep.trials == 1 and math.isfinite(rep.mean_l1) and math.isfinite(rep.mean_error)


def test_osrb_monte_carlo_determinism():
    joint = JointPmf(np.array([[0.3, 0.1], [0.2, 0.4]]))
    a = osrb_monte_carlo(joint, 2, trials=50, seed=9)
    b = osrb_monte_carlo(joint, 2, trials=50, seed=9)
    assert a == b
