"""Finite-blocklength rate region: inner and outer bounds with dispersion.

A *decomposition* splits a target correlation on U x V through an auxiliary
W so that U - W - V is a Markov chain.  The asymptotic region needs rate
R >= I(W;U) on the message and sum rate R + R0 >= I(W;UV); at blocklength n
both constraints pick up a Gaussian dispersion backoff Q^,-1(eps)*sqrt(V/n)
plus lower-order terms:

* inner (achievability): additive gamma/n terms from the binning analysis,
  and an L1 budget (twice a total variation) priced by the
  Berry-Esseen-corrected eps* = eps + B/sqrt(n);
* outer (converse): a log(alpha - y - B/sqrt(n))/n correction whose argument
  is positive only in the high-eps regime, plus (on the sum rate) a
  -4 eps (log2|U x V| + log2(1/eps)) continuity term.

Every log is base 2; rates are bits/symbol.  Degenerate dispersions (V = 0,
deterministic-copy chains) drop their Q^-1 and B/sqrt(n) terms entirely --
the Gaussian approximation is exact there with zero width.

Outer-bound validity: the log argument is <= 0 whenever eps <= y, i.e. for
every eps < 1/2 given the y range (1/2, 1).  Such points carry valid=False
and *omit* the log term from the reported rate (left finite on purpose so
asymptotic sweeps can still plot the Gaussian part); `notes` records the
rejected argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .errors import DomainError
from .measures import BEStats, backoff, be_stats, continuity_term, gaussian_q_inv
from .probability import ConditionalPmf, JointPmf, Pmf, check_blocklength, check_eps, check_positive
from .probability import _shown, check_split, compose_chain, info_density, marginalize
from .probability import regroup_pair

# =============================================================================
# types
# =============================================================================


def check_w_size(w_size, u_size: int, v_size: int) -> int:
    """``w_size`` as an int, unless it is not a count within the cardinality
    bound |W| <= |U| * |V| + 1 -- the one auxiliary alphabet size check."""
    w_size = check_blocklength(w_size, "w_size")
    cap = u_size * v_size + 1
    if w_size > cap:
        raise DomainError(f"auxiliary alphabet size {w_size} exceeds |U|*|V|+1 = {cap}")
    return w_size


@dataclass(frozen=True)
class Decomposition:
    """Markov splitting U - W - V of a target (U,V) correlation.

    The auxiliary alphabet obeys the cardinality bound
    |W| <= |U| * |V| + 1, and the chain law is built and checked once, by
    ``compose_chain``, both at construction.
    """

    p_u: Pmf
    w_given_u: ConditionalPmf
    v_given_w: ConditionalPmf
    _joint: JointPmf = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_joint", compose_chain(self.p_u, self.w_given_u, self.v_given_w))
        check_w_size(self.w_size, self.u_size, self.v_size)

    @property
    def u_size(self) -> int:
        return self.p_u.size

    @property
    def w_size(self) -> int:
        return self.w_given_u.output_size

    @property
    def v_size(self) -> int:
        return self.v_given_w.output_size

    def joint(self) -> JointPmf:
        """Exact joint over axes ("u", "w", "v")."""
        return self._joint

    def uv_marginal(self) -> JointPmf:
        return marginalize(self.joint(), ("u", "v"))

    # the density statistics behind ``stats_wu`` / ``stats_wuv``, computed on
    # first read: a region sweep reads both bounds at every n
    @cached_property
    def _stats_wu(self) -> BEStats:
        pair = regroup_pair(marginalize(self.joint(), ("u", "w")), "w", "u")
        return be_stats(info_density(pair), pair)

    @cached_property
    def _stats_wuv(self) -> BEStats:
        pair = regroup_pair(self.joint(), "w", ("u", "v"))
        return be_stats(info_density(pair), pair)


@dataclass(frozen=True)
class GammaTriple:
    """The three slack parameters (bits) of the binning analysis."""

    g1: float
    g2: float
    g3: float

    def __post_init__(self):
        for name in ("g1", "g2", "g3"):
            object.__setattr__(self, name, check_positive(getattr(self, name), f"GammaTriple.{name}"))


@dataclass(frozen=True)
class RegionPoint:
    """One evaluated point of a rate region boundary.

    For inner points, eps_tot_bound is the L1 budget (twice a total
    variation) and valid is always True.  For outer points, eps_tot_bound
    is None and valid marks whether every log correction had a positive
    argument.
    """

    r_min: float
    r_plus_r0_min: float
    eps_tot_bound: float | None
    valid: bool
    notes: dict = field(default_factory=dict)


# =============================================================================
# per-decomposition density statistics
# =============================================================================


def stats_wu(d: Decomposition) -> BEStats:
    """Moments of the information density between W and U (computed once
    per decomposition)."""
    return d._stats_wu


def stats_wuv(d: Decomposition) -> BEStats:
    """Moments of the information density between W and the pair (U, V)
    (computed once per decomposition)."""
    return d._stats_wuv


def asymptotic_region(d: Decomposition) -> tuple[float, float]:
    """The two first-order rate thresholds (I(W;U), I(W;UV)) in bits/symbol."""
    return stats_wu(d).mu, stats_wuv(d).mu


# =============================================================================
# gamma rules
# =============================================================================


def parse_gamma_rule(rule: str, n: int) -> GammaTriple:
    """Materialize a named gamma rule at blocklength n.

    "logn"          -> (log2 n, log2(n)/2, log2 n)   (needs n >= 2)
    "linear:c"      -> (2cn, cn, 2cn)
    "fixed:a,b,c"   -> constants (a, b, c)
    """
    if not isinstance(rule, str):
        raise DomainError(f"gamma rule must be a string, got {_shown(rule)}")
    n = check_blocklength(n)
    if rule == "logn":
        if n < 2:  # log2 1 = 0 is no gamma
            raise DomainError("gamma rule 'logn' needs blocklength n >= 2, got 1; the rule "
                              "'fixed:a,b,c' (flag --gamma a,b,c) works at n = 1")
        L = math.log2(n)
        return GammaTriple(L, 0.5 * L, L)
    kind, _, arg = rule.partition(":")
    try:
        values = [float(tok) for tok in arg.split(",")]
    except ValueError:
        values = []
    if kind == "linear" and len(values) == 1:
        c = check_positive(values[0], "c of gamma rule 'linear:c'")
        return GammaTriple(2 * c * n, c * n, 2 * c * n)
    if kind == "fixed" and len(values) == 3:
        return GammaTriple(*values)
    raise DomainError(f"gamma rule must be logn, linear:c or fixed:a,b,c with numbers a, b, c; got {rule!r}")


# =============================================================================
# bounds, and the formulas binning, nptest and optimize read from here
# =============================================================================


def _osrb_slack(gamma: float) -> float:
    """Slack 2^-(gamma+1)/2 of the one-shot OSRB (index-uniformity) lemma,
    a bound on an expected total variation (half the L1)."""
    return 2.0 ** (-(gamma + 1.0) / 2.0)


def _slc_slack(gamma: float) -> float:
    """Slack 2^-gamma of the one-shot SLC (likelihood-decoder) lemma."""
    return 2.0 ** (-gamma)


def _eps_total(eps_app: float, eps_dec: float, eps_app2: float) -> float:
    """The total budget eps_tot = 2 (eps_app2 + eps_app + 5 eps_dec), summed in that order:
    twice a sum of total-variation bounds, so an L1 budget (twice a total variation)."""
    return 2.0 * (eps_app2 + eps_app + 5.0 * eps_dec)


def _gamma_split(g: GammaTriple, n: int) -> tuple[float, float]:
    """The gamma terms (g1 + g2)/n of the message rate and (g2 + g3)/n of the sum rate."""
    return (g.g1 + g.g2) / n, (g.g2 + g.g3) / n


class _ConversePoint(NamedTuple):
    """One converse constraint at (eps, n, y), from ``_converse_point``."""

    stats: BEStats
    b: float  # B/sqrt(n)
    alpha: float
    log_arg: float
    penalty: float
    rate: float


def _converse_params(eps, n, y) -> tuple[float, int, float]:
    """(eps, n, y) checked, as ``outer_bound`` and the converse witnesses take them."""
    return check_eps(eps, "eps must lie in (0, 1)"), check_blocklength(n), check_split(y)


def _converse_point(d: Decomposition, eps: float, n: int, y: float, sum_rate: bool) -> _ConversePoint:
    """The message-rate (W;U) or, with ``sum_rate``, sum-rate (W;UV) converse point at checked
    (eps, n, y): alpha = eps - b, log argument eps - y - 2b, penalty 2 g(eps) on the sum rate
    (else 0), rate mu + backoff - penalty, plus log2(log_arg)/n when log_arg > 0."""
    stats = stats_wuv(d) if sum_rate else stats_wu(d)
    penalty = 2.0 * continuity_term(eps, d.u_size * d.v_size) if sum_rate else 0.0
    b = stats.b_over_sqrt_n(n)
    log_arg = eps - y - 2.0 * b
    rate = stats.mu + backoff(stats.v, gaussian_q_inv(eps), n) - penalty
    if log_arg > 0.0:
        rate += math.log2(log_arg) / n
    return _ConversePoint(stats, b, eps - b, log_arg, penalty, rate)


def inner_bound(d: Decomposition, eps1: float, eps2: float, n: int, g: GammaTriple) -> RegionPoint:
    """Achievability point at blocklength n.

    eps2 prices the message-rate constraint (pair W;U), eps1 the sum-rate
    constraint (pair W;UV).  The returned eps_tot_bound is the full L1
    budget (twice a total variation) including tail terms and the
    Berry-Esseen corrections eps* = eps + B/sqrt(n).
    """
    eps1 = check_eps(eps1, "eps1 must lie in (0, 1)")
    eps2 = check_eps(eps2, "eps2 must lie in (0, 1)")
    n = check_blocklength(n)
    s_wu = stats_wu(d)
    s_wuv = stats_wuv(d)
    g_r, g_rr0 = _gamma_split(g, n)
    r_min = s_wu.mu + backoff(s_wu.v, gaussian_q_inv(eps2), n) + g_r
    rr0_min = s_wuv.mu + backoff(s_wuv.v, gaussian_q_inv(eps1), n) + g_rr0
    eps1_star = eps1 + s_wuv.b_over_sqrt_n(n)
    eps2_star = eps2 + s_wu.b_over_sqrt_n(n)
    tail = _eps_total(_osrb_slack(g.g1), _slc_slack(g.g2), _osrb_slack(g.g3))
    eps_tot = 10.0 * (eps1_star + eps2_star) + tail
    return RegionPoint(
        r_min=r_min,
        r_plus_r0_min=rr0_min,
        eps_tot_bound=eps_tot,
        valid=True,
        notes={"eps1_star": eps1_star, "eps2_star": eps2_star, "gamma_tail": tail, "i_wu": s_wu.mu, "i_wuv": s_wuv.mu},
    )


def outer_bound(d: Decomposition, eps: float, n: int, y: float = 0.75) -> RegionPoint:
    """Converse point at blocklength n.

    The split parameter y must lie in (1/2, 1).  Whenever a log argument
    alpha - y - B/sqrt(n) is nonpositive the point is flagged valid=False
    and that log term is omitted from the reported rate (see module notes);
    nothing is ever thrown for regime reasons.
    """
    eps, n, y = _converse_params(eps, n, y)
    r, rr0 = (_converse_point(d, eps, n, y, sum_rate) for sum_rate in (False, True))
    return RegionPoint(
        r_min=r.rate,
        r_plus_r0_min=rr0.rate,
        eps_tot_bound=None,
        valid=r.log_arg > 0.0 and rr0.log_arg > 0.0,
        notes={"alpha_wu": r.alpha, "alpha_wuv": rr0.alpha, "log_arg_r": r.log_arg, "log_arg_rr0": rr0.log_arg,
               "g_eps": rr0.penalty / 2.0, "i_wu": r.stats.mu, "i_wuv": rr0.stats.mu},
    )


def gamma_tradeoff(xs, n: int, eps1: float, eps2: float) -> list[tuple[float, float]]:
    """Rate-penalty / error-budget pairs for the one-parameter gamma family
    (2x, x, 2x): penalty 3x/n against budget 10(eps1+eps2) + 2(sqrt2+5) 2^-x,
    the closed form of ``_eps_total`` of the slacks there (equal to rounding).

    x = 0 is accepted (zero-penalty endpoint, budget 2(sqrt2+5) at zero eps);
    eps here enters raw, without Berry-Esseen stars -- this is the knob-
    isolating form of the tradeoff, not the full achievability budget.
    """
    n = check_blocklength(n)
    for name, e in (("eps1", eps1), ("eps2", eps2)):
        if check_positive(e, name, zero=True) >= 1.0:
            raise DomainError(f"{name} must lie in [0, 1), got {e!r}")
    budget = 10.0 * (float(eps1) + float(eps2))
    out = []
    scale = 2.0 * (math.sqrt(2.0) + 5.0)
    for x in xs:
        x = check_positive(x, "tradeoff parameter", zero=True)
        out.append((3.0 * x / n, budget + scale * 2.0 ** (-x)))
    return out


def closed_result_check(d: Decomposition, eps: float, n: int) -> bool:
    """Check that the converse point sits componentwise below the
    achievability point built at the same nominal eps.

    The two eps are not one error unit: the inner point's error is its L1
    budget ``eps_tot_bound``, about 20 eps (at eps = 0.1 on copy-BSC(0.1),
    2.13 at n = 10^4 and 2.01 at n = 10^6).  So True shows componentwise
    order only, not that the bounds agree to second order.

    Built with the same eps on both sides and on both inner constraints,
    the (log n, log n / 2, log n) gamma rule, default y.  When the outer
    point is invalid (its log corrections undefined at this eps) the
    comparison is vacuously true -- there is no converse point to beat.
    """
    n = check_blocklength(n, least=2)
    inner = inner_bound(d, eps, eps, n, parse_gamma_rule("logn", n))
    outer = outer_bound(d, eps, n)
    if not outer.valid:
        return True
    return (
        outer.r_min <= inner.r_min + 1e-12
        and outer.r_plus_r0_min <= inner.r_plus_r0_min + 1e-12
    )
