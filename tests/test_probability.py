"""Tests for the exact probability core.

Expected values are frozen from independent hand computation (binary
examples small enough to sum out longhand) before the implementation
was written; randomized checks use seeded generators so failures replay.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordsim.cltverify import AtomLaw
from coordsim.errors import DomainError, ResourceLimitError, ShapeError
from coordsim.nptest import np_beta
from coordsim.probability import (
    ConditionalPmf,
    JointPmf,
    Pmf,
    compose_chain,
    conditional,
    entropy_density,
    iid_extension,
    info_density,
    kl_divergence,
    l1_distance,
    marginalize,
    sequence_digits,
    sequence_index,
    _iid_rows,
    _iid_table,
)


def bsc(delta: float) -> ConditionalPmf:
    return ConditionalPmf(np.array([[1 - delta, delta], [delta, 1 - delta]]))


def random_joint(rng, shape) -> JointPmf:
    a = rng.random(shape) ** 2
    return JointPmf(a / a.sum())


# ---------------------------------------------------------------------------
# construction / validation
# ---------------------------------------------------------------------------


def test_pmf_rejects_bad_normalization():
    with pytest.raises(DomainError):
        Pmf(np.array([0.5, 0.4]))


def test_pmf_rejects_negative_entry_and_reports_index():
    with pytest.raises(DomainError) as err:
        Pmf(np.array([1.2, -0.2]))
    assert err.value.index == (1,)


def test_pmf_accepts_float_dust():
    p = Pmf(np.array([1.0 + 4e-16, -4e-16]))
    assert p.probs[1] == 0.0


def test_conditional_pmf_rejects_bad_row():
    with pytest.raises(DomainError) as err:
        ConditionalPmf(np.array([[0.5, 0.5], [0.7, 0.2]]))
    assert err.value.index == 1


# one special entry per case, and the total offset added to the largest
# entry: (entry, offset, accepted)
LAW_CASES = {
    "dust": (-1e-16, 0.0, True),
    "negative": (-1e-14, 0.0, False),
    "total-off-small": (0.0, 5e-13, True),
    "total-off-large": (0.0, 2e-12, False),
    "nan": (math.nan, 0.0, False),
    "inf": (math.inf, 0.0, False),
    "-inf": (-math.inf, 0.0, False),
}


@given(
    weights=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5),
    case=st.sampled_from(sorted(LAW_CASES)),
    at=st.integers(0, 5),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_one_law_check_everywhere(weights, case, at, sign):
    # every entry point accepts or rejects the same arrays, and keeps an
    # accepted law as given: dust clamped to 0, nothing renormalized
    entry, offset, accepted = LAW_CASES[case]
    base = np.array(weights) / math.fsum(weights)
    at %= base.size + 1
    x = np.insert(base, at, entry)
    x[int(np.argmax(np.nan_to_num(x, nan=-1.0, posinf=-1.0)))] += sign * offset
    q = np.full(x.size, 1.0 / x.size)
    forms = {
        "Pmf": lambda: Pmf(x).probs,
        "ConditionalPmf row": lambda: ConditionalPmf(x[None, :]).rows[0],
        "AtomLaw": lambda: AtomLaw(np.arange(float(x.size)), x).probs,
        "np_beta": lambda: np_beta(x, q, 0.5),
    }
    for name, form in forms.items():
        if not accepted:
            with pytest.raises(DomainError):
                form()
            continue
        kept = form()
        if name != "np_beta":
            assert np.array_equal(kept, np.maximum(x, 0.0)), name


def test_law_is_isolated_from_a_writable_caller_array():
    # a constructor copies any array the caller can still write to
    p = np.array([0.25, 0.75])
    rows = np.array([[0.5, 0.5], [0.1, 0.9]])
    joint = np.array([[0.125, 0.375], [0.25, 0.25]])
    laws = (Pmf(p).probs, ConditionalPmf(rows).rows, JointPmf(joint).probs)
    frozen = [a.copy() for a in laws]
    for a in (p, rows, joint):
        a[...] = 7.0
    for law, want in zip(laws, frozen):
        assert np.array_equal(law, want) and not law.flags.writeable


def test_frozen_owned_table_is_kept_and_dust_is_never_written_back():
    # a read-only float64 array that owns its data is kept as it is; one
    # with float dust to clamp is copied, and the caller's stays untouched
    a = np.array([0.25, 0.75])
    a.setflags(write=False)
    assert Pmf(a).probs is a
    dusty = np.array([1.0 + 4e-16, -4e-16])
    dusty.setflags(write=False)
    kept = Pmf(dusty).probs
    assert kept is not dusty and kept[1] == 0.0 and dusty[1] == -4e-16
    # views and other dtypes are copied even when read-only
    view = np.array([[0.25, 0.75]])[0]
    view.setflags(write=False)
    assert Pmf(view).probs is not view
    single = np.array([0.25, 0.75], dtype=np.float32)
    single.setflags(write=False)
    assert Pmf(single).probs.dtype == np.float64


def test_joint_axis_names_checked():
    with pytest.raises(ShapeError):
        JointPmf(np.full((2, 2), 0.25), axes=("u",))
    with pytest.raises(ShapeError):
        JointPmf(np.full((2, 2), 0.25), axes=("u", "u"))


def test_point_and_uniform_factories():
    assert Pmf.point(4, 2).probs[2] == 1.0
    assert np.allclose(Pmf.uniform(5).probs, 0.2)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_l1_distance_hand_value():
    # sum |0.7-0.5| + |0.3-0.5| = 0.4
    assert l1_distance(Pmf(np.array([0.7, 0.3])), Pmf(np.array([0.5, 0.5]))) == pytest.approx(0.4, abs=1e-15)


def test_l1_distance_range_and_shape_check():
    p = Pmf(np.array([1.0, 0.0]))
    q = Pmf(np.array([0.0, 1.0]))
    assert l1_distance(p, q) == pytest.approx(2.0)
    with pytest.raises(ShapeError):
        l1_distance(p, Pmf(np.array([1.0, 0.0, 0.0])))


def test_kl_divergence_hand_value_bits():
    # D((1,0) || (1/2,1/2)) = log2 2 = 1 bit
    assert kl_divergence(Pmf(np.array([1.0, 0.0])), Pmf(np.array([0.5, 0.5]))) == pytest.approx(1.0, abs=1e-15)


def test_kl_divergence_support_violation_carries_index():
    p = JointPmf(np.array([[0.5, 0.5], [0.0, 0.0]]))
    q = JointPmf(np.array([[0.5, 0.0], [0.25, 0.25]]))
    with pytest.raises(DomainError) as err:
        kl_divergence(p, q)
    assert err.value.index == (0, 1)


def test_kl_nonnegative_randomized():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = rng.random(6) + 1e-3
        q = rng.random(6) + 1e-3
        d = kl_divergence(Pmf(p / p.sum()), Pmf(q / q.sum()))
        assert d >= -1e-12


# ---------------------------------------------------------------------------
# chain composition / marginals / conditionals
# ---------------------------------------------------------------------------


def test_compose_chain_bsc_hand_value():
    # uniform U, two cascaded BSC(0.1): P(V=0|U=0) = 0.9^2 + 0.1^2 = 0.82,
    # so P(U=0, V=0) = 0.41.
    j = compose_chain(Pmf.uniform(2), bsc(0.1), bsc(0.1))
    uv = marginalize(j, ("u", "v"))
    assert uv.probs[0, 0] == pytest.approx(0.41, abs=1e-15)
    assert j.axes == ("u", "w", "v")


def test_marginalize_keeps_axis_names_and_order():
    rng = np.random.default_rng(1)
    j = JointPmf(random_joint(rng, (2, 3, 4)).probs, axes=("a", "b", "c"))
    m = marginalize(j, ("c", "a"))
    assert isinstance(m, JointPmf)
    assert m.axes == ("a", "c")
    assert m.shape == (2, 4)
    np.testing.assert_allclose(m.probs, j.probs.sum(axis=1))
    single = marginalize(j, "b")
    assert isinstance(single, Pmf)
    assert single.size == 3


def test_conditional_matches_bayes_rule():
    rng = np.random.default_rng(2)
    j = random_joint(rng, (3, 4))
    k = conditional(j, 0)
    pa = j.probs.sum(axis=1)
    np.testing.assert_allclose(k.rows, j.probs / pa[:, None], atol=1e-14)
    assert not k.fallback_rows.any()


def test_conditional_zero_row_falls_back_to_uniform():
    probs = np.array([[0.5, 0.5], [0.0, 0.0]])
    j = JointPmf(probs / probs.sum())
    k = conditional(j, 0)
    assert k.fallback_rows.tolist() == [False, True]
    np.testing.assert_allclose(k.rows[1], [0.5, 0.5])


def test_conditional_multi_axis_flattening():
    rng = np.random.default_rng(3)
    j = JointPmf(random_joint(rng, (2, 3, 2)).probs, axes=("x", "y", "z"))
    k = conditional(j, ("x", "z"))
    # row for (x=1, z=0) is flat index 1*2 + 0 = 2
    row = j.probs[1, :, 0]
    np.testing.assert_allclose(k.rows[2], row / row.sum(), atol=1e-14)


# ---------------------------------------------------------------------------
# iid extension
# ---------------------------------------------------------------------------


def test_iid_pmf_hand_value_and_digit_order():
    p = Pmf(np.array([0.9, 0.1]))
    p3 = iid_extension(p, 3)
    assert p3.size == 8
    assert p3.probs[7] == pytest.approx(0.001, abs=1e-16)  # sequence (1,1,1)
    assert p3.probs[4] == pytest.approx(0.1 * 0.9 * 0.9, abs=1e-16)  # (1,0,0)


def test_iid_joint_matches_elementwise_product():
    rng = np.random.default_rng(4)
    j = random_joint(rng, (2, 3))
    j2 = iid_extension(j, 2)
    assert j2.shape == (4, 9)
    for a in range(4):
        for b in range(9):
            da = sequence_digits(a, 2, 2)
            db = sequence_digits(b, 3, 2)
            expect = j.probs[da[0], db[0]] * j.probs[da[1], db[1]]
            assert j2.probs[a, b] == pytest.approx(expect, rel=1e-12)


def test_iid_kernel_rows_are_products():
    k = bsc(0.2)
    k2 = iid_extension(k, 2)
    assert k2.rows.shape == (4, 4)
    # row (0,1), column (1,1): 0.2 * 0.8
    assert k2.rows[1, 3] == pytest.approx(0.2 * 0.8, rel=1e-12)


def kron_fold(t: np.ndarray, n: int) -> np.ndarray:
    """Reference n-fold product: ``np.kron`` folded from the left."""
    out = t
    for _ in range(n - 1):
        out = np.kron(out, t)
    return out


@st.composite
def small_tables(draw):
    """A 1-D or 2-D table of sides 1..3 whose every row has positive mass;
    entries mix exact zeros with arbitrary floats in (0, 1]."""
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    cell = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    rows = [draw(st.lists(cell, min_size=shape[-1], max_size=shape[-1]).filter(any))
            for _ in range(math.prod(shape[:-1]))]
    return np.array(rows).reshape(shape)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200)
@given(t=small_tables(), n=st.integers(1, 4))
def test_iid_table_and_extensions_match_kron_fold_bit_for_bit(t, n):
    got = _iid_table(t, n)
    assert same_bits(got, kron_fold(t, n))
    assert got is not t and got.flags.writeable
    # each law type divides the product by its total (per row for kernels)
    if t.ndim == 1:
        p_n = kron_fold(t / t.sum(), n)
        assert same_bits(iid_extension(Pmf(t / t.sum()), n).probs, p_n / p_n.sum())
    else:
        j_n = kron_fold(t / t.sum(), n)
        assert same_bits(iid_extension(JointPmf(t / t.sum()), n).probs, j_n / j_n.sum())
        k = t / t.sum(axis=1, keepdims=True)
        k_n = kron_fold(k, n)
        assert same_bits(iid_extension(ConditionalPmf(k), n).rows, k_n / k_n.sum(axis=1, keepdims=True))


def test_iid_extension_holds_its_table_once():
    # the n-fold table is built in place and kept by the law without a
    # copy: chain3's V|W kernel at n = 8 peaks near 1.25 tables (the last
    # step's input and the row sums on top of the final table); a copy on
    # construction peaked at 2.25
    k = ConditionalPmf(np.array([[0.8, 0.2], [0.4, 0.6], [0.1, 0.9]]))
    table_bytes = 3 ** 8 * 2 ** 8 * 8
    tracemalloc.start()
    try:
        rows = iid_extension(k, 8).rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.flags.owndata and not rows.flags.writeable
    assert peak < 1.5 * table_bytes, peak / table_bytes


def test_law_check_of_a_kept_table_allocates_no_full_size_mask():
    # a frozen table is checked by reductions alone, so the check adds no
    # full-size temporary (two boolean masks added a quarter of its bytes)
    for law, cell in ((JointPmf, 1.0 / 512 ** 2), (ConditionalPmf, 1.0 / 512)):
        table = np.full((512, 512), cell)
        table.setflags(write=False)
        tracemalloc.start()
        try:
            law(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * table.nbytes, (law.__name__, peak / table.nbytes)


def test_iid_respects_memory_cap(monkeypatch):
    monkeypatch.setenv("COORDSIM_MEM_CAP", "100")
    with pytest.raises(ResourceLimitError) as err:
        iid_extension(Pmf.uniform(2), 20)
    assert err.value.required == 2 ** 20


def test_iid_cap_is_decided_before_the_power_is_formed():
    # 3^(10^7) has millions of digits: the cap is decided from n log2|A|,
    # and the count is neither formed nor printed
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"iid pmf needs 2\^15849625\.0 entries") as err:
        iid_extension(Pmf(np.array([0.2, 0.3, 0.5])), 10 ** 7)
    assert time.perf_counter() - start < 1.0
    assert err.value.required is None


def test_one_cell_tables_extend_at_once_with_the_bits_of_the_full_fold():
    # x^k / x^k = 1.0 at every k, so folding a one-cell table at most twice
    # gives the law and the rows of the full fold: [1.0], even for an entry
    # 1e-13 below 1, and n = 10^12 returns at once
    x = 1.0 - 1e-13
    laws = [Pmf(np.array([x])), JointPmf(np.array([[x]])), ConditionalPmf(np.array([[x]]))]
    start = time.perf_counter()
    for law in laws:
        for n in (1, 2, 3, 7, 10 ** 12):
            full = iid_extension(law, n)
            table = full.rows if isinstance(law, ConditionalPmf) else full.probs
            assert table.reshape(-1).tolist() == [1.0]
            if table.ndim == 2:
                rows, row_sums, col_sums = _iid_rows(law, n)
                assert rows.rows(np.array([0, 0])).tolist() == [[1.0], [1.0]]
                assert row_sums.tolist() == [1.0]
                assert col_sums is None if isinstance(law, ConditionalPmf) else col_sums.tolist() == [1.0]
    assert time.perf_counter() - start < 0.5


def test_sequence_digit_round_trip():
    for base, n in [(2, 5), (3, 4), (5, 3)]:
        for flat in range(base ** n):
            digits = sequence_digits(flat, base, n)
            assert sequence_index(digits, base) == flat


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


def test_info_density_bsc_hand_value():
    # uniform input through BSC(0.11): i(0;0) = log2(0.445 / 0.25) = log2(2*0.89)
    j = compose_chain(Pmf.uniform(2), bsc(0.11), bsc(0.0))
    uw = marginalize(j, ("u", "w"))
    t = info_density(uw)
    assert t.values[0, 0] == pytest.approx(math.log2(2 * 0.89), abs=1e-12)
    assert t.values[0, 1] == pytest.approx(math.log2(2 * 0.11), abs=1e-12)
    assert t.support.all()


def test_info_density_off_support_is_nan():
    j = JointPmf(np.array([[0.5, 0.0], [0.0, 0.5]]))
    t = info_density(j)
    assert np.isnan(t.values[0, 1])
    assert t.values[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_entropy_density_hand_value():
    t = entropy_density(Pmf(np.array([0.25, 0.75])))
    assert t.values[0] == pytest.approx(2.0, abs=1e-12)
    assert t.values[1] == pytest.approx(-math.log2(0.75), abs=1e-12)


def test_density_tables_match_definition_randomized():
    rng = np.random.default_rng(5)
    for _ in range(20):
        j = random_joint(rng, (3, 3))
        t = info_density(j)
        pa, pb = j.probs.sum(axis=1), j.probs.sum(axis=0)
        for a in range(3):
            for b in range(3):
                if j.probs[a, b] > 0:
                    ref = math.log2(j.probs[a, b] / (pa[a] * pb[b]))
                    assert abs(t.values[a, b] - ref) <= 1e-10


# ---------------------------------------------------------------------------
# distribution-approximation lemmas (randomized invariants)
# ---------------------------------------------------------------------------


def test_l1_monotone_under_marginalization():
    rng = np.random.default_rng(11)
    for _ in range(60):
        p = random_joint(rng, (3, 4))
        q = random_joint(rng, (3, 4))
        assert l1_distance(marginalize(p, 0), marginalize(q, 0)) <= l1_distance(p, q) + 1e-12


def test_l1_preserved_when_appending_same_kernel():
    rng = np.random.default_rng(12)
    for _ in range(40):
        raw_p, raw_q = rng.random(4) + 1e-3, rng.random(4) + 1e-3
        p, q = Pmf(raw_p / raw_p.sum()), Pmf(raw_q / raw_q.sum())
        raw_k = rng.random((4, 3)) + 1e-3
        k = ConditionalPmf(raw_k / raw_k.sum(axis=1, keepdims=True))
        jp = JointPmf(p.probs[:, None] * k.rows)
        jq = JointPmf(q.probs[:, None] * k.rows)
        assert l1_distance(jp, jq) == pytest.approx(l1_distance(p, q), abs=1e-12)


def test_some_conditional_slice_within_twice_joint_distance():
    # if the joints are eps apart in L1, some positive-mass conditioning
    # letter has conditional distance at most 2 eps
    rng = np.random.default_rng(13)
    for _ in range(60):
        p = random_joint(rng, (4, 5))
        q = random_joint(rng, (4, 5))
        eps = l1_distance(p, q)
        kp, kq = conditional(p, 0), conditional(q, 0)
        pb = p.probs.sum(axis=1)
        best = min(
            float(np.abs(kp.rows[b] - kq.rows[b]).sum())
            for b in range(4)
            if pb[b] > 0
        )
        assert best <= 2 * eps + 1e-9


def test_coupling_mismatch_bounds_marginal_distance():
    # two coupled copies on one alphabet: L1 of the marginals is at most
    # 4 * P(A != A')
    rng = np.random.default_rng(14)
    for _ in range(60):
        j = random_joint(rng, (5, 5))
        pa = marginalize(j, 0)
        pb = marginalize(j, 1)
        mismatch = float(j.probs.sum() - np.trace(j.probs))
        assert l1_distance(pa, pb) <= 4 * mismatch + 1e-12
