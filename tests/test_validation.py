"""One table of malformed parameters over the public entry points.

Every count, 64-bit index, in-alphabet index, positive real, eps and split
parameter the library takes goes through one check per kind
(``probability.check_blocklength``, ``check_seed``, ``check_index``,
``check_positive``, ``check_eps``, ``check_split``), so a malformed value is
a ``DomainError`` at every entry point -- never a ``TypeError``, a numpy
``ValueError`` or a returned value -- and a numpy integer means what the
Python int means.  A second table covers the structural checks of the
public entry points: each raises the error class its contract names.
"""

import io
import math

import numpy as np
import pytest

from coordsim.binning import (
    BinningRealization,
    SchemeConfig,
    draw_binning,
    entropy_diagnostics,
    monte_carlo,
    osrb_monte_carlo,
    osrb_uniformity_bound,
    rb_joint,
    slc_error_bound,
    trial_metrics,
)
from coordsim.cltverify import AtomLaw
from coordsim.errors import DomainError, ShapeError
from coordsim.measures import conditional_dispersion, dispersion_of_channel, mutual_information
from coordsim.optimize import optimize_decomposition
from coordsim.probability import (
    ConditionalPmf,
    DensityTable,
    JointPmf,
    Pmf,
    compose_chain,
    conditional,
    iid_extension,
    info_density,
    kl_divergence,
    marginalize,
    regroup_pair,
    check_blocklength,
    check_eps,
    check_index,
    check_positive,
    check_seed,
    check_split,
    sequence_digits,
    sequence_index,
)
from coordsim.nptest import converse_witness
from coordsim.region import (
    Decomposition,
    GammaTriple,
    gamma_tradeoff,
    inner_bound,
    outer_bound,
    parse_gamma_rule,
)
from coordsim.serialize import write_table

CHAIN = Decomposition(
    p_u=Pmf(np.array([0.55, 0.45])),
    w_given_u=ConditionalPmf(np.array([[0.5, 0.5, 0.0], [0.1, 0.2, 0.7]])),
    v_given_w=ConditionalPmf(np.array([[0.8, 0.2], [0.4, 0.6], [0.1, 0.9]])),
)
TARGET = JointPmf(np.array([[0.45, 0.05], [0.05, 0.45]]))
PAIR = JointPmf(np.array([[0.3, 0.1], [0.2, 0.4]]))


def config(**kw) -> SchemeConfig:
    args = dict(n=2, rate_r=1.0, rate_r0=0.5, rate_rtilde=0.5, seed=7, decomposition=CHAIN)
    return SchemeConfig(**{**args, **kw})


def optimize(**kw):
    return optimize_decomposition(TARGET, **{"w_size": 2, "restarts": 1, "n": 100, **kw})


# the malformed values of each kind; 2**64 is a valid real, but neither a
# count nor a 64-bit index
COUNT = INDEX = [2.5, True, -1, math.nan, math.inf, "3", 2 ** 64]
REAL = [True, -1, math.nan, math.inf, "3", np.float32(math.inf)]
EPS = INDEX
SPLIT = [0.5, 1, True, math.nan, math.inf, "0.75", np.float32(0.25)]
# the tradeoff's raw eps lies in [0, 1)
TRADEOFF_EPS = [False, True, "0.1", math.nan, math.inf, -0.1, 1.0]
# indices into an alphabet of 4: an integral float is not an index either
LETTER = [2.5, 1.0, True, -1, math.nan, math.inf, "3", 4, np.int64(4)]
GAMMA = GammaTriple(2.0, 1.0, 2.0)

ENTRY_POINTS = [
    ("optimize-n", COUNT, lambda x: optimize(n=x)),
    ("optimize-eps", EPS, lambda x: optimize(eps=x)),
    ("optimize-w_size", COUNT, lambda x: optimize(w_size=x)),
    ("optimize-restarts", COUNT, lambda x: optimize(restarts=x)),
    ("optimize-seed", INDEX, lambda x: optimize(seed=x)),
    ("draw_binning-trial", INDEX, lambda x: draw_binning(config(), x)),
    ("trial_metrics-trial", INDEX, lambda x: trial_metrics(CHAIN, config(), x)),
    ("monte_carlo-trials", COUNT, lambda x: monte_carlo(CHAIN, config(), x)),
    ("osrb_monte_carlo-trials", COUNT, lambda x: osrb_monte_carlo(PAIR, 2, x, 0)),
    ("osrb_monte_carlo-n_bins", COUNT, lambda x: osrb_monte_carlo(PAIR, x, 3, 0)),
    ("osrb_monte_carlo-seed", INDEX, lambda x: osrb_monte_carlo(PAIR, 2, 3, x)),
    ("osrb_uniformity_bound-n_bins", COUNT, lambda x: osrb_uniformity_bound(PAIR, x, 1.0)),
    ("osrb_uniformity_bound-gamma", REAL, lambda x: osrb_uniformity_bound(PAIR, 2, x)),
    ("slc_error_bound-n_bins", COUNT, lambda x: slc_error_bound(PAIR, x, 1.0)),
    ("slc_error_bound-gamma", REAL, lambda x: slc_error_bound(PAIR, 2, x)),
    ("iid_extension-n", COUNT, lambda x: iid_extension(Pmf.uniform(2), x)),
    ("sequence_digits-n", COUNT, lambda x: sequence_digits(0, 2, x)),
    ("sequence_digits-flat_index", LETTER, lambda x: sequence_digits(x, 2, 2)),
    ("sequence_digits-base", COUNT, lambda x: sequence_digits(0, x, 2)),
    ("sequence_index-base", COUNT, lambda x: sequence_index([0], x)),
    ("sequence_index-digit", LETTER, lambda x: sequence_index([0, x], 4)),
    ("Pmf.point-index", LETTER, lambda x: Pmf.point(4, x)),
    ("inner_bound-eps1", EPS, lambda x: inner_bound(CHAIN, x, 0.1, 100, GAMMA)),
    ("outer_bound-y", SPLIT, lambda x: outer_bound(CHAIN, 0.9, 100, x)),
    ("gamma_tradeoff-eps1", TRADEOFF_EPS, lambda x: gamma_tradeoff([1.0], 10, x, 0.0)),
    ("gamma_tradeoff-eps2", TRADEOFF_EPS, lambda x: gamma_tradeoff([1.0], 10, 0.0, x)),
    ("parse_gamma_rule-rule", [None, 3, b"logn"], lambda x: parse_gamma_rule(x, 8)),
    ("Pmf.uniform-size", COUNT, lambda x: Pmf.uniform(x)),
    ("GammaTriple-g2", REAL, lambda x: GammaTriple(1.0, x, 1.0)),
    ("parse_gamma_rule-n", COUNT, lambda x: parse_gamma_rule("logn", x)),
    ("parse_gamma_rule-linear-n", COUNT, lambda x: parse_gamma_rule("linear:0.5", x)),
    ("SchemeConfig-rate_r", REAL, lambda x: config(rate_r=x)),
    ("SchemeConfig-rate_r0", REAL, lambda x: config(rate_r0=x)),
    ("SchemeConfig-rate_rtilde", REAL, lambda x: config(rate_rtilde=x)),
    ("SchemeConfig-seed", INDEX, lambda x: config(seed=x)),
]


@pytest.mark.parametrize("call, bad", [
    pytest.param(call, bad, id=f"{name}-{bad!r}")
    for name, values, call in ENTRY_POINTS for bad in values
])
def test_malformed_parameter_is_a_domain_error(call, bad):
    # DomainError is a ValueError, so a bare numpy ValueError or a
    # TypeError would escape this exact-type check
    with pytest.raises(Exception) as caught:
        call(bad)
    assert type(caught.value) is DomainError, repr(caught.value)


# an int of more digits than Python prints (4,300 by default), as a
# library caller can pass it
HUGE = 10 ** 5000
TOO_LONG = [
    ("check_blocklength", lambda: check_blocklength(HUGE)),
    ("check_seed", lambda: check_seed(HUGE)),
    ("check_index", lambda: check_index(HUGE, 4, "index")),
    ("check_positive", lambda: check_positive(HUGE, "gamma")),
    ("check_eps", lambda: check_eps(HUGE, "eps must lie in (0, 1)")),
    ("check_split", lambda: check_split(HUGE)),
    ("parse_gamma_rule", lambda: parse_gamma_rule(HUGE, 8)),
    ("parse_gamma_rule-list", lambda: parse_gamma_rule([HUGE], 8)),
    ("optimize-objective", lambda: optimize(objective=HUGE)),
    ("converse_witness-mode", lambda: converse_witness(CHAIN, 4, 0.9, 0.75, HUGE)),
    ("write_table-format", lambda: write_table(io.StringIO(), {}, ["x"], [[1]], HUGE)),
    ("write_table-json-key", lambda: write_table(io.StringIO(), {}, ["x"], [[1]], "json", {HUGE: 1})),
]


@pytest.mark.parametrize("call", [pytest.param(call, id=name) for name, call in TOO_LONG])
def test_an_int_too_long_to_print_is_a_domain_error(call):
    # repr of such an int raises a bare ValueError; the message names its size
    with pytest.raises(Exception) as caught:
        call()
    assert type(caught.value) is DomainError, repr(caught.value)
    assert f"an int of {HUGE.bit_length()} bits" in str(caught.value) or "an unprintable value" in str(caught.value)


def test_linear_gamma_rule_constant_is_a_positive_real():
    for bad in ("linear:0", "linear:-1", "linear:nan", "linear:inf"):
        with pytest.raises(DomainError, match="linear:c"):
            parse_gamma_rule(bad, 8)


def test_numpy_integers_give_the_python_int_bytes():
    py = monte_carlo(CHAIN, config(seed=7), 2)
    npy = monte_carlo(CHAIN, config(seed=np.uint64(7), n=np.int64(2)), np.int32(2))
    assert npy == py
    assert type(npy.seed) is int and type(npy.trials) is int

    a = osrb_monte_carlo(PAIR, np.int64(2), np.int16(5), np.uint64(9))
    assert a == osrb_monte_carlo(PAIR, 2, 5, 9)
    assert type(a.seed) is int and type(a.trials) is int

    d_np = optimize_decomposition(TARGET, np.int64(2), restarts=np.int64(2), seed=np.uint64(3), n=np.int64(100))
    d_py = optimize_decomposition(TARGET, 2, restarts=2, seed=3, n=100)
    assert d_np.w_given_u.rows.tobytes() == d_py.w_given_u.rows.tobytes()
    assert d_np.v_given_w.rows.tobytes() == d_py.v_given_w.rows.tobytes()

    assert iid_extension(PAIR, np.int64(2)).probs.tobytes() == iid_extension(PAIR, 2).probs.tobytes()
    assert sequence_digits(5, 2, np.int64(3)) == sequence_digits(5, 2, 3) == (1, 0, 1)
    assert Pmf.uniform(np.int64(3)).probs.tobytes() == Pmf.uniform(3).probs.tobytes()


def test_numpy_reals_give_the_python_float_bytes():
    # a numpy float32 eps or y means the float it holds, and a numpy eps or
    # tradeoff parameter gives Python floats back
    eps, y = np.float32(0.1), np.float32(0.75)
    assert inner_bound(CHAIN, eps, 0.1, 100, GAMMA) == inner_bound(CHAIN, float(eps), 0.1, 100, GAMMA)
    assert outer_bound(CHAIN, 0.9, 100, y) == outer_bound(CHAIN, 0.9, 100, float(y))
    assert outer_bound(CHAIN, np.float32(0.875), 100) == outer_bound(CHAIN, 0.875, 100)
    assert gamma_tradeoff([1.0], 10, eps, 0.0) == gamma_tradeoff([1.0], 10, float(eps), 0.0)
    # numpy float32 slacks mean the floats they hold, so a bound computes in float64
    g32 = GammaTriple(*np.float32([2.3, 1.1, 2.3]))
    assert all(type(v) is float for v in (g32.g1, g32.g2, g32.g3))
    g64 = GammaTriple(*np.float32([2.3, 1.1, 2.3]).tolist())
    assert inner_bound(CHAIN, 0.1, 0.1, 100, g32) == inner_bound(CHAIN, 0.1, 0.1, 100, g64)
    pairs = gamma_tradeoff([np.float64(2.0)], 10, np.float64(0.1), np.float32(0.0))
    assert all(type(v) is float for pair in pairs for v in pair)


def test_numpy_integer_indices_mean_the_python_int():
    assert sequence_digits(np.int64(5), 2, 3) == (1, 0, 1)
    assert all(type(x) is int for x in sequence_digits(np.uint8(5), 2, 3))
    assert sequence_index([np.int64(1), 0, np.int16(1)], 2) == 5
    assert Pmf.point(4, np.int64(2)).probs.tobytes() == Pmf.point(4, 2).probs.tobytes()


CUBE = JointPmf(np.full((2, 2, 2), 0.125), axes=("a", "b", "c"))
BSC = ConditionalPmf(np.array([[0.9, 0.1], [0.1, 0.9]]))
HALF = Pmf(np.array([0.5, 0.5]))


def rb_marginal(axes):
    return rb_joint(CHAIN, draw_binning(config()), config()).marginal(axes)


# (entry point and case, the error class its contract names, the call)
STRUCTURE = [
    ("compose_chain-v_given_w", ShapeError, lambda: compose_chain(HALF, BSC, CHAIN.v_given_w)),
    ("JointPmf.axis_index-name", ShapeError, lambda: CUBE.axis_index("z")),
    ("JointPmf.axis_index-index", ShapeError, lambda: CUBE.axis_index(3)),
    ("DensityTable-shape", ShapeError, lambda: DensityTable(np.zeros(2), np.ones(3, dtype=bool))),
    ("DensityTable-non-finite", DomainError,
     lambda: DensityTable(np.array([0.0, math.inf]), np.ones(2, dtype=bool))),
    ("kl_divergence-shape", ShapeError, lambda: kl_divergence(HALF, Pmf.uniform(3))),
    ("marginalize-keep", ShapeError, lambda: marginalize(CUBE, ())),
    ("conditional-given", ShapeError, lambda: conditional(CUBE, ())),
    ("conditional-target", ShapeError, lambda: conditional(CUBE, ("a", "b", "c"))),
    ("iid_extension-type", ShapeError, lambda: iid_extension(np.array([0.5, 0.5]), 2)),
    ("regroup_pair-reused", ShapeError, lambda: regroup_pair(CUBE, ("a", "b"), ("b", "c"))),
    ("info_density-rank", ShapeError, lambda: info_density(CUBE)),
    ("mutual_information-rank", ShapeError, lambda: mutual_information(CUBE)),
    ("AtomLaw-non-finite", DomainError, lambda: AtomLaw([0.0, math.nan], [0.5, 0.5])),
    ("dispersion_of_channel-size", ShapeError, lambda: dispersion_of_channel(Pmf.uniform(3), BSC)),
    ("conditional_dispersion-size", ShapeError, lambda: conditional_dispersion(Pmf.uniform(3), BSC)),
    ("optimize_decomposition-rank", DomainError, lambda: optimize_decomposition(CUBE, 2)),
    ("BinningRealization-w_mass", ShapeError,
     lambda: BinningRealization([0, 1], [0, 0], [0, 0], 2, 1, 1, np.full(3, 1 / 3))),
    ("rb_joint.marginal-empty", ShapeError, lambda: rb_marginal(set())),
    ("rb_joint.marginal-duplicate", ShapeError, lambda: rb_marginal(("u", "u"))),
    ("rb_joint.marginal-unknown", ShapeError, lambda: rb_marginal(("z",))),
    ("entropy_diagnostics-rank", ShapeError, lambda: entropy_diagnostics(PAIR, 1, 2)),
    ("entropy_diagnostics-u_size", ShapeError, lambda: entropy_diagnostics(CUBE, 2, 2)),
    ("osrb_uniformity_bound-rank", ShapeError, lambda: osrb_uniformity_bound(CUBE, 2, 1.0)),
    ("slc_error_bound-rank", ShapeError, lambda: slc_error_bound(CUBE, 2, 1.0)),
    ("slc_error_bound-ref", ShapeError,
     lambda: slc_error_bound(JointPmf(np.full((2, 3), 1 / 6)), 2, 1.0, BSC)),
    ("write_table-json-key", DomainError,
     lambda: write_table(io.StringIO(), {}, ["x"], [[1]], "json", extra={1: 2})),
]


@pytest.mark.parametrize("error, call", [
    pytest.param(error, call, id=name) for name, error, call in STRUCTURE
])
def test_structural_check_raises_its_class(error, call):
    with pytest.raises(Exception) as caught:
        call()
    assert type(caught.value) is error, repr(caught.value)


def test_support_and_row_accessors():
    assert Pmf(np.array([0.5, 0.0, 0.5])).support.tolist() == [True, False, True]
    assert BSC.row(1).probs.tolist() == [0.1, 0.9]
