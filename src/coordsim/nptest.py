"""Optimal binary hypothesis tests and numerically checked converse chains.

The first half solves the classical randomized-test problem

    beta_alpha(p, q) = min { q(accept) : p(accept) >= alpha }

exactly for finite laws: outcomes are grouped by likelihood ratio, whole
tie groups are accepted in decreasing-ratio order, and the boundary group
is randomized so the p-acceptance hits alpha exactly.  ``beta_sandwich``
cross-checks the result against the two threshold-tail inequalities that
pin beta from both sides.

The second half builds concrete finite-blocklength witnesses for the
converse rate bounds.  A witness takes an iid pair law, moves a small
amount of mass between two support cells (the perturbation a coordination
code is allowed to introduce), and then walks the whole converse chain on
the exact perturbed law: candidate thresholds, the tail premises that
license them, the implied bounds on log(1/beta), and the final rate
expression.  Nothing is asymptotic; every tail and every inequality is
evaluated numerically, and steps whose premise fails are reported as
unlicensed rather than silently skipped.

The iid witnesses (``case1``, ``case2`` and the sum-rate chain) never
build the |A|^n x |B|^n tables: beta of an iid pair depends only on the
law of its log-likelihood ratio, so they read everything from types over
the pair's single-letter support cells (``cltverify._types``), with the
two moved sequences as two extra atoms.  The ``coded`` witness stays
dense, because its law is the realized scheme's table, and so does
``np_beta``, which is given its outcomes; ``measures`` reads every tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .binning import SchemeConfig, draw_binning, rc_joint
from .cltverify import _types
from .errors import CoordsimError, DomainError, ShapeError
from .measures import _ordered_tie_groups, gaussian_q_inv, group_at, group_tail, tie_groups
from .probability import (
    _GATHER_CELLS,
    JointPmf,
    _clean_probs,
    _iid_l1,
    _probs_of,
    _shown,
    check_eps,
    check_positive,
    iid_extension,
    marginalize,
    regroup_pair,
)
from .region import Decomposition, _converse_params, _converse_point, _ConversePoint

PREMISE_TOL = 1e-12  # slack granted to tail premises
BOUND_TOL = 1e-10  # slack granted to conclusions

__all__ = [
    "BinaryTest",
    "NPResult",
    "SandwichReport",
    "CandidateCheck",
    "WitnessReport",
    "np_beta",
    "np_test",
    "beta_sandwich",
    "converse_witness",
    "rr0_converse_witness",
]


# =============================================================================
# input handling
# =============================================================================


def _np_inputs(p, q, alpha: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Validated (p, q, alpha) for the tests below: two flattened laws with
    the same number of outcomes, alpha strictly inside (0, 1)."""
    alpha = check_eps(alpha, "alpha must lie strictly inside (0, 1)")
    pa = _clean_probs(_probs_of(p).reshape(-1), "p")
    qa = _clean_probs(_probs_of(q).reshape(-1), "q")
    if pa.shape != qa.shape:
        raise ShapeError(f"p has {pa.shape[0]} outcomes, q has {qa.shape[0]}")
    return pa, qa, alpha


# =============================================================================
# optimal randomized tests
# =============================================================================


@dataclass(frozen=True)
class BinaryTest:
    """Randomized decision rule: per-outcome probability of accepting the
    first law.  Probabilities are clipped to [0, 1] after validation."""

    decision: np.ndarray

    def __post_init__(self):
        d = np.array(self.decision, dtype=np.float64, copy=True).reshape(-1)
        if d.size == 0:
            raise ShapeError("BinaryTest needs at least one outcome")
        if np.any(~np.isfinite(d)) or np.any(d < -1e-12) or np.any(d > 1.0 + 1e-12):
            raise DomainError("decision probabilities must lie in [0, 1]")
        d = np.clip(d, 0.0, 1.0)
        d.setflags(write=False)
        object.__setattr__(self, "decision", d)

    def accept_mass(self, law) -> float:
        """Probability of acceptance when outcomes follow ``law``."""
        a = _clean_probs(_probs_of(law).reshape(-1), "law")
        if a.shape != self.decision.shape:
            raise ShapeError(
                f"law has {a.shape[0]} outcomes, test has {self.decision.shape[0]}"
            )
        return float(np.dot(self.decision, a))


@dataclass(frozen=True)
class NPResult:
    """Minimum type-II mass with the boundary that achieves it.

    ``threshold`` is the smallest log-likelihood ratio (bits) of the
    boundary tie group; the groups above it are accepted outright and the
    boundary group is accepted with probability ``randomization``, so the
    acceptance mass under the first law equals alpha exactly.
    """

    beta: float
    threshold: float
    randomization: float

    def __post_init__(self):
        if not (-1e-12 <= self.beta <= 1.0 + 1e-12):
            raise DomainError(f"beta must lie in [0, 1], got {self.beta!r}")
        if not (-1e-12 <= self.randomization <= 1.0 + 1e-12):
            raise DomainError(f"randomization must lie in [0, 1], got {self.randomization!r}")
        if math.isnan(self.threshold):
            raise DomainError("threshold must not be NaN")


class _TieGroups(NamedTuple):
    """Tie groups (``measures.tie_groups``) of log2(p/q) over the
    p-support, in increasing order, as the atoms of that ratio's law under
    p would be.

    ``idx`` lists the outcomes in that order and group g is
    ``idx[heads[g]:heads[g + 1]]`` (``idx`` is None for groups built from
    types, which have no outcome list); ``llr`` holds each group's smallest
    ratio (its head's), ``p`` and ``q`` its masses."""

    idx: np.ndarray | None
    heads: np.ndarray
    llr: np.ndarray
    p: np.ndarray
    q: np.ndarray


def _llr_groups(p: np.ndarray, q: np.ndarray) -> _TieGroups:
    """Tie groups of log2(p/q) over the p-support of two flat laws.

    Outcomes with q = 0 form the last group, at +inf; outcomes with p = 0
    never appear (accepting them costs q-mass and buys nothing).
    """
    sup = np.flatnonzero(p > 0)
    with np.errstate(divide="ignore"):
        llr = _log2_ratio(p[sup], q[sup])
    order, *groups = _ordered_tie_groups(llr, p[sup], q[sup])
    return _TieGroups(sup[order], *groups)


def _np_solve(groups: _TieGroups, alpha: float) -> tuple[NPResult, int]:
    """The Neyman-Pearson solution over tie groups and its boundary group.

    Whole groups are accepted from the top while their p-mass stays below
    what alpha still needs; the first group that covers the rest is
    randomized."""
    # running sums from 0.0, added from the top group down (cumsum is sequential)
    top_p = groups.p[::-1]
    cum_p = np.cumsum(np.concatenate(([0.0], top_p)))
    cum_q = np.cumsum(np.concatenate(([0.0], groups.q[::-1])))
    reach = np.flatnonzero(top_p >= alpha - cum_p[:-1])
    if reach.size == 0:
        raise DomainError(f"alpha {alpha!r} exceeds the total p-mass {float(cum_p[-1])!r}")
    j = int(reach[0])
    k = groups.llr.size - 1 - j  # the boundary group
    cum, gp = float(cum_p[j]), float(top_p[j])
    theta = (alpha - cum) / gp
    beta = float(cum_q[j]) + theta * float(groups.q[k])
    achieved = cum + theta * gp
    if abs(achieved - alpha) > PREMISE_TOL:
        raise CoordsimError(f"acceptance mass {achieved!r} missed alpha {alpha!r}")
    return NPResult(beta=beta, threshold=float(groups.llr[k]), randomization=theta), k


def np_beta(p, q, alpha: float) -> NPResult:
    """Exact minimum type-II mass over randomized tests with p-acceptance
    at least alpha.

    Accepts Pmf/JointPmf or plain arrays of matching total size; both are
    flattened C-style, must pass the one law check (total within 1e-12 of
    1) and are used as given, never renormalized, so a converse witness on
    the same tables gets the same bits.  alpha must lie strictly inside (0, 1).
    """
    return _np_report(p, q, alpha)[0]


def np_test(p, q, alpha: float) -> BinaryTest:
    """The optimal randomized decision rule behind ``np_beta``: the groups
    above the boundary group accepted outright, the boundary group with
    probability ``randomization``."""
    pa, qa, alpha = _np_inputs(p, q, alpha)
    groups = _llr_groups(pa, qa)
    result, k = _np_solve(groups, alpha)
    bounds = np.append(groups.heads, groups.idx.size)
    decision = np.zeros(pa.size)
    decision[groups.idx[bounds[k + 1] :]] = 1.0
    decision[groups.idx[bounds[k] : bounds[k + 1]]] = result.randomization
    return BinaryTest(decision)


# =============================================================================
# threshold-tail sandwich
# =============================================================================


@dataclass(frozen=True)
class SandwichReport:
    """Grid check of the two tail inequalities that sandwich beta.

    For every gamma in the grid, with P = P_p{log2(p/q) > log2 gamma}:

      * lower side:  alpha <= P + gamma * beta        (slack = rhs - alpha)
      * upper side:  beta <= 1/gamma whenever P >= alpha
                                                      (slack = 1/gamma - beta)

    Upper-side entries are None where the premise P >= alpha fails; the
    worst upper slack is +inf when no grid point qualifies.  ``ok`` means
    every evaluated slack is >= -1e-10.
    """

    alpha: float
    beta: float
    gammas: tuple
    lower_slacks: tuple
    upper_slacks: tuple
    worst_lower_slack: float
    worst_upper_slack: float
    n_upper_applicable: int
    ok: bool


def beta_sandwich(p, q, alpha: float, gamma_grid) -> SandwichReport:
    """Evaluate both threshold-tail inequalities on a grid of gammas."""
    return _np_report(p, q, alpha, gamma_grid)[1]


def _np_report(p, q, alpha: float, gamma_grid=None) -> tuple[NPResult, SandwichReport | None]:
    """``np_beta(p, q, alpha)`` and, given a gamma grid, ``beta_sandwich``
    on it, from one check of the laws and one tie-group pass: the laws and
    alpha are checked first, then the grid, as ``beta_sandwich`` does."""
    pa, qa, alpha = _np_inputs(p, q, alpha)
    if gamma_grid is not None:
        gammas = np.array([check_positive(g, "gamma grid entry") for g in gamma_grid])
        if gammas.size == 0:
            raise DomainError("gamma grid must be non-empty")
    groups = _llr_groups(pa, qa)
    result = _np_solve(groups, alpha)[0]
    if gamma_grid is None:
        return result, None

    beta = result.beta
    lower = []
    upper = []
    for gam in gammas:
        tail = group_tail(groups.llr, groups.p, math.log2(gam), strict=True)
        lower.append(tail + gam * beta - alpha)
        upper.append(1.0 / gam - beta if tail >= alpha else None)

    applicable = [s for s in upper if s is not None]
    worst_upper = min(applicable) if applicable else math.inf
    worst_lower = min(lower)
    ok = worst_lower >= -BOUND_TOL and worst_upper >= -BOUND_TOL
    return result, SandwichReport(
        alpha=alpha,
        beta=beta,
        gammas=tuple(float(g) for g in gammas),
        lower_slacks=tuple(lower),
        upper_slacks=tuple(upper),
        worst_lower_slack=float(worst_lower),
        worst_upper_slack=float(worst_upper),
        n_upper_applicable=len(applicable),
        ok=ok,
    )


# =============================================================================
# two-cell mass transfer over types
# =============================================================================


class _PairLaw(NamedTuple):
    """What a converse chain reads of its perturbed pair law P2 against the
    product law Q: the tie groups of log2(P2/Q), the L1 distance from P2
    to the iid law, and the transfer (the dict ``WitnessReport.transfer``
    publishes) with its correction band (None for a coded scheme's table)."""

    groups: _TieGroups
    l1_to_iid: float
    info: dict | None = None
    corr_range: dict | None = None


def _constant_type(n: int, k: int, i: int) -> int:
    """Position, in the order of ``cltverify._types``, of the type with all
    n draws on letter i: the types before it have c_0 = ... = c_{i-1} = 0
    and c_i < n."""
    return math.comb(n + k - i - 1, k - i - 1) - 1


def _sequence_count(log_mult: np.ndarray) -> int:
    """The number of sequences in the types with these log multinomials,
    rounded to an integer (exact while it stays well below 2^52)."""
    if log_mult.size == 0:
        return 0
    top = float(log_mult.max())
    log_total = top + math.log(math.fsum(np.exp(log_mult - top).tolist()))
    shift = max(0, math.floor(log_total / math.log(2.0)) - 52)  # beyond float range
    return round(math.exp(log_total - shift * math.log(2.0))) << shift


def _type_transfer(pair: np.ndarray, n: int, eps: float, perturb: str) -> _PairLaw:
    """The n-fold iid law of the table ``pair`` with one mass move, read
    from types over its support cells.

    Cell (a, b) carries its ratio l = log2(P(a, b) / (P(a) P(b))) and both
    masses; a type c over the k cells carries the value c . l, the P-mass
    mult prod P^c and the Q-mass mult prod Q^c (``cltverify._types``).

    A sequence's ratio is the product of its letters', so the largest is
    reached exactly by the sequences of largest-ratio cells (ranked by
    exact ratio), and the one of lowest flat index repeats the lowest-index
    such cell: that is the gainer.  The loser is the smallest-ratio
    sequence of highest flat index, taken from the gainer's row when that
    row holds another support cell, otherwise globally: again one cell
    repeated.  The moved mass is eps times the perturbed sequence's
    probability -- the gainer's for ``perturb="gain"``, the loser's for
    ``perturb="lose"`` -- capped so the loser never goes negative.  Each of
    the two is a type of one sequence, so the move replaces their two atoms
    and the tie groups are formed once.
    """
    rows, cols = pair.shape
    flat = pair.reshape(-1)
    cells = np.flatnonzero(flat > 0)
    k = cells.size
    if k < 2:
        raise DomainError("mass transfer needs at least two support cells")
    a, b = np.divmod(cells, cols)
    p, pa, pb = flat[cells], pair.sum(axis=1)[a], pair.sum(axis=0)[b]
    q = pa * pb
    log_mult, value, log_p, log_q = _types(n, np.log2(p / q), np.log(p), np.log(q))

    # cells are ranked by their exact ratio p / (p_a p_b) of the given
    # floats: rounded ratios would break exact ties by noise
    from fractions import Fraction  # here, not at import: it costs ~4 ms

    exact = [Fraction(x) / (Fraction(y) * Fraction(z))
             for x, y, z in zip(p.tolist(), pa.tolist(), pb.tolist())]
    gi = exact.index(max(exact))  # first of the largest: lowest flat index
    row = np.flatnonzero(a == a[gi]).tolist()
    same_row = len(row) >= 2
    cand = row if same_row else range(k)
    low = min(exact[i] for i in cand)
    li = max(i for i in cand if exact[i] == low)  # highest flat index
    ig, il = _constant_type(n, k, gi), _constant_type(n, k, li)

    P = np.exp(log_mult + log_p)
    Q = np.exp(log_mult + log_q)
    p_g, p_l = float(P[ig]), float(P[il])
    if p_g == 0.0:
        raise DomainError(f"the gainer's sequence mass underflows to 0.0 at n = {n}: "
                          "the mass transfer has no size")
    delta = min(eps * (p_g if perturb == "gain" else p_l), p_l)
    gained, left = p_g + delta, p_l - delta
    # each moved sequence is its whole type: its atom is replaced in place
    P[ig], P[il] = gained, left
    # an emptied loser is dropped below; its Q may have underflowed too (0/0)
    with np.errstate(divide="ignore", invalid="ignore"):
        value[[ig, il]] = np.log2(P[[ig, il]] / Q[[ig, il]])
    sup = P > 0
    groups = _TieGroups(None, *tie_groups(value[sup], P[sup], Q[sup]))

    def repeated(letter: int, size: int) -> int:
        """Flat index of the n-fold sequence of one letter of an alphabet."""
        return letter * ((size ** n - 1) // (size - 1)) if size > 1 else 0

    info = {
        "gainer": (repeated(int(a[gi]), rows), repeated(int(b[gi]), cols)),
        "loser": (repeated(int(a[li]), rows), repeated(int(b[li]), cols)),
        "delta": float(delta),
        "corr_gain": math.log2(1.0 + delta / p_g),
        "corr_lose": math.inf if left <= 0.0 else math.log2(p_l / left),
        "p_gainer": p_g,
        "p_loser": p_l,
        "same_row": same_row,
    }
    return _PairLaw(
        groups=groups,
        l1_to_iid=(gained - p_g) + (p_l - left),
        info=info,
        corr_range=_corr_range(np.exp(log_p), log_mult, delta),
    )


def _corr_range(seq_p: np.ndarray, log_mult: np.ndarray, delta: float) -> dict:
    """Spread of the two threshold corrections across all support
    sequences, from the sequence mass ``seq_p`` and log multinomial of
    each type.

    The correction formulas depend on which cell the chain tracks; this
    reports how much that choice can move them for a fixed transfer size.
    Cells a ``lose`` correction would empty are excluded from its range
    (their correction is unbounded) and counted instead.
    """
    sup = seq_p > 0
    sup_vals = seq_p[sup]
    gains = np.log2(1.0 + delta / sup_vals)
    keep = sup_vals > delta
    if np.any(keep):
        loses = np.log2(sup_vals[keep] / (sup_vals[keep] - delta))
        lose_min, lose_max = float(loses.min()), float(loses.max())
    else:
        lose_min = lose_max = math.inf
    return {
        "delta": float(delta),
        "gain_min": float(gains.min()),
        "gain_max": float(gains.max()),
        "lose_min": lose_min,
        "lose_max": lose_max,
        "lose_cells_excluded": _sequence_count(log_mult[sup][~keep]),
    }


# =============================================================================
# converse witnesses
# =============================================================================


@dataclass(frozen=True)
class CandidateCheck:
    """One candidate threshold in an assembled converse chain.

    ``premise_ok`` says whether the tail condition licensing the step
    holds; ``ok`` is the conclusion (None when the premise fails or beta
    is unavailable, since the step then asserts nothing).
    """

    name: str
    log_gamma: float
    tail: float
    premise_ok: bool
    bound_lhs: float
    bound_rhs: float
    ok: bool | None


@dataclass(frozen=True)
class WitnessReport:
    """Every intermediate quantity of one assembled converse chain.

    Upper-side candidates check  log2(1/beta) >= log_gamma  against the
    one-sided tail premise P{llr >= log_gamma} >= alpha.  Lower-side
    candidates check  log_gamma + gain - log2(log_arg) >= log2(1/beta)
    against the strict-tail premise P{llr > log_gamma} <= y + B/sqrt(n).
    ``alpha``, ``log_arg``, ``rate_penalty`` and ``rate`` are ``outer_bound``'s
    for the constraint; the rate omits the log term (and ``valid_regime`` is
    False) when log_arg = eps - y - 2B/sqrt(n) is nonpositive.
    """

    kind: str
    mode: str
    n: int
    eps: float
    y: float
    mu: float
    v: float
    b_over_sqrt_n: float
    alpha: float
    log_arg: float
    valid_regime: bool
    beta: float
    log2_inv_beta: float
    np_threshold: float
    np_randomization: float
    h_standin: float
    lower_gain: float
    rate_penalty: float
    rate: float
    upper: tuple
    lower: tuple
    upper_ok: bool
    lower_ok: bool
    l1_to_iid: float
    transfer: dict | None
    corr_range: dict | None


def _assemble(kind: str, mode: str, law: _PairLaw, n: int, eps: float, y: float,
              point: _ConversePoint) -> WitnessReport:
    """Walk the converse chain on a perturbed pair law for ``outer_bound``'s
    converse ``point`` at (eps, n, y); the lower side gains n times its
    penalty.  The Neyman-Pearson solution and every candidate's tail
    premise read the same tie groups of log2(P2/Q)."""
    stats, b, alpha, log_arg = point.stats, point.b, point.alpha, point.log_arg
    valid = log_arg > 0.0
    lower_gain = n * point.penalty
    h_standin = n * stats.mu
    groups, info = law.groups, law.info

    beta = log2_inv_beta = np_thr = np_rand = math.nan
    if 0.0 < alpha < 1.0:
        res = _np_solve(groups, alpha)[0]
        beta, np_thr, np_rand = res.beta, res.threshold, res.randomization
        log2_inv_beta = math.inf if beta <= 0.0 else -math.log2(beta)
    have_beta = not math.isnan(beta)

    shifts = []
    if info is not None:
        shifts.append(("corrected", info["corr_gain"] if mode == "case1" else -info["corr_lose"]))
    candidates = shifts + [("zero", 0.0)]
    zero_up = h_standin + (0.0 if stats.degenerate else gaussian_q_inv(eps) * math.sqrt(n * stats.v))

    def check(name: str, lgam: float, tail: float, premise: bool, licence: bool, lhs: float, rhs: float):
        """One candidate: its bound lhs >= rhs is checked only when its tail
        premise holds, its side is licensed and beta exists."""
        ok = (lhs >= rhs - BOUND_TOL) if (premise and licence and have_beta) else None
        return CandidateCheck(name, float(lgam), float(tail), bool(premise), float(lhs), float(rhs), ok)

    upper, lower = [], []
    for name, shift in candidates:
        lg0 = zero_up + shift  # upper side: the one-sided tail reaches alpha
        tail = group_tail(groups.llr, groups.p, group_at(groups.llr, lg0), strict=False)
        upper.append(check(name, lg0, tail, tail >= alpha - PREMISE_TOL, True, log2_inv_beta, lg0))
        lgam = h_standin + shift  # lower side: the strict tail stays within y + B/sqrt(n)
        tail = group_tail(groups.llr, groups.p, group_at(groups.llr, lgam), strict=True)
        lhs = lgam + lower_gain - math.log2(log_arg) if valid else math.nan
        lower.append(check(name, lgam, tail, tail <= y + b + PREMISE_TOL, valid, lhs, log2_inv_beta))

    return WitnessReport(
        kind=kind,
        mode=mode,
        n=n,
        eps=eps,
        y=y,
        mu=stats.mu,
        v=stats.v,
        b_over_sqrt_n=b,
        alpha=alpha,
        log_arg=log_arg,
        valid_regime=valid,
        beta=beta,
        log2_inv_beta=log2_inv_beta,
        np_threshold=np_thr,
        np_randomization=np_rand,
        h_standin=h_standin,
        lower_gain=lower_gain,
        rate_penalty=point.penalty,
        rate=point.rate,
        upper=tuple(upper),
        lower=tuple(lower),
        upper_ok=any(c.ok is True for c in upper),
        lower_ok=any(c.ok is True for c in lower),
        l1_to_iid=law.l1_to_iid,
        transfer=info,
        corr_range=law.corr_range,
    )


def _coded_law(d: Decomposition, n: int) -> _PairLaw:
    """The coded witness's pair law: the realized (U^n, W^n) table of the
    binning scheme drawn at seed 0 (message rate log2 |W|, common and
    extra seed rates 1/n) against the product of the n-fold marginals of
    the (U, W) pair (``_table_law``)."""
    cfg = SchemeConfig(
        n=n,
        rate_r=math.log2(d.w_size) if d.w_size > 1 else 1.0,
        rate_r0=1.0 / n,
        rate_rtilde=1.0 / n,
        seed=0,
        decomposition=d,
    )
    pair = marginalize(d.joint(), ("u", "w"))
    return _table_law(rc_joint(d, draw_binning(cfg, 0), cfg).marginal(("u", "w")).probs, pair, n)


def _table_law(P2: np.ndarray, pair: JointPmf, n: int) -> _PairLaw:
    """A pair law's table ``P2`` (C-ordered) against the product of the
    n-fold marginals of ``pair``, with its L1 distance from the iid table.
    Neither the iid table nor the product law is built as a table: the L1
    is summed from row blocks (``probability._iid_l1``), and the product
    law is read on the support of P2, a block of cells at a time.  P2 is
    dropped once its support masses are read, and the ratios once
    ``tie_groups`` has ranked them: from Python 3.11 on, a called frame
    takes over a temporary argument from its caller's stack, so a caller
    that keeps no reference frees them there."""
    l1 = _iid_l1(P2, pair, n)
    P2 = P2.reshape(-1)
    sup = np.flatnonzero(P2 > 0)
    p = P2[sup]
    del P2
    pa = iid_extension(marginalize(pair, 0), n).probs
    pb = iid_extension(marginalize(pair, 1), n).probs
    q = np.empty(sup.size)
    for c in range(0, sup.size, _GATHER_CELLS):
        a = sup[c:c + _GATHER_CELLS] // pb.size
        np.multiply(pa[a], pb[sup[c:c + _GATHER_CELLS] - a * pb.size], out=q[c:c + _GATHER_CELLS])
    del sup
    if np.any(q <= 0):
        raise DomainError("perturbed law puts mass where the product law has none")
    return _PairLaw(_TieGroups(None, *tie_groups(_log2_ratio(p, q), p, q)), l1)


def _log2_ratio(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """log2(p / q), taken in place in the quotient."""
    ratio = p / q
    return np.log2(ratio, out=ratio)


def converse_witness(d: Decomposition, n: int, eps: float, y: float, mode: str) -> WitnessReport:
    """Assemble and check the message-rate converse chain on one instance.

    The pair law is (U^n, W^n) under the iid target; the alternative is
    the product of its marginals, so the ratio statistic is the n-fold
    information density.  Modes:

      * ``case1``: the transferred mass is sized from the gaining cell and
        the candidate thresholds carry the +log2(1 + delta/P) correction;
      * ``case2``: sized from the losing cell, corrections enter with a
        minus sign as log2(P/(P - delta));
      * ``coded``: no hand perturbation -- the pair law is the exact output
        of a deterministic binning scheme, and only the uncorrected
        thresholds are checked.

    Both perturbed cases report the correction's spread across every
    admissible cell choice, as a sensitivity band for the chain.
    """
    if mode not in ("case1", "case2", "coded"):
        raise DomainError(f"mode must be one of case1/case2/coded, got {_shown(mode)}")
    eps, n, y = _converse_params(eps, n, y)

    if mode == "coded":
        law = _coded_law(d, n)
    else:
        law = _type_transfer(marginalize(d.joint(), ("u", "w")).probs, n, eps,
                             "gain" if mode == "case1" else "lose")
    return _assemble("rate", mode, law, n, eps, y, _converse_point(d, eps, n, y, sum_rate=False))


def rr0_converse_witness(d: Decomposition, n: int, eps: float, y: float) -> WitnessReport:
    """Assemble and check the sum-rate converse chain on one instance.

    The pair law is ((U, V)^n, W^n) and the alternative is the product of
    the iid pair marginal and the iid W marginal.  The lower-side
    thresholds sit at the entropy stand-in n*I (the first-order value of
    the code entropy the chain tracks); converting that entropy to a sum
    rate costs at most n times the sum-rate penalty 2 g(eps) of
    ``outer_bound``, which enters the lower inequality's left side.  The
    perturbation is sized from the gaining cell.
    """
    eps, n, y = _converse_params(eps, n, y)

    law = _type_transfer(regroup_pair(d.joint(), ("u", "v"), "w").probs, n, eps, "gain")
    return _assemble("sum-rate", "case1", law, n, eps, y, _converse_point(d, eps, n, y, sum_rate=True))
