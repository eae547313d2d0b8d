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
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .binning import SchemeConfig, draw_binning, rc_joint
from .errors import CoordsimError, DomainError, ShapeError
from .measures import (
    BEStats,
    backoff,
    check_blocklength,
    check_eps,
    continuity_term,
    gaussian_q_inv,
    group_tail,
    tie_groups,
)
from .probability import (
    JointPmf,
    _clean_probs,
    _probs_of,
    iid_extension,
    marginalize,
    regroup_pair,
)
from .region import Decomposition, stats_wu, stats_wuv

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
    check_eps(alpha, "alpha must lie strictly inside (0, 1)")
    pa = _clean_probs(_probs_of(p).reshape(-1), "p")
    qa = _clean_probs(_probs_of(q).reshape(-1), "q")
    if pa.shape != qa.shape:
        raise ShapeError(f"p has {pa.shape[0]} outcomes, q has {qa.shape[0]}")
    return pa, qa, float(alpha)


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
    ``idx[heads[g]:heads[g + 1]]``; ``llr`` holds each group's smallest
    ratio (its head's), ``p`` and ``q`` its masses."""

    idx: np.ndarray
    heads: np.ndarray
    llr: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def tail(self, x: float, strict: bool) -> float:
        """P_p{llr > x} (``strict``) or P_p{llr >= x}, counting each group
        by its smallest ratio (``measures.group_tail``)."""
        return group_tail(self.llr, self.p, x, strict)


def _llr_groups(p: np.ndarray, q: np.ndarray) -> _TieGroups:
    """Tie groups of log2(p/q) over the p-support, from one stable
    ascending sort.

    Outcomes with q = 0 form the last group, at +inf; outcomes with p = 0
    never appear (accepting them costs q-mass and buys nothing).
    """
    sup = np.flatnonzero(p > 0)
    with np.errstate(divide="ignore"):
        llr = np.log2(p[sup] / q[sup])
    order = np.argsort(llr, kind="stable")
    idx = sup[order]
    del sup
    llr = llr[order]
    del order
    heads, gp, gq = tie_groups(llr, p[idx], q[idx])
    return _TieGroups(idx, heads, llr[heads], gp, gq)


def _np_solve(groups: _TieGroups, n_outcomes: int, alpha: float):
    """Shared core over the ``_llr_groups`` of a law pair with
    ``n_outcomes`` outcomes: returns (NPResult, decision vector).

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
    k = groups.heads.size - 1 - j  # the boundary group
    cum, gp = float(cum_p[j]), float(top_p[j])
    theta = (alpha - cum) / gp
    beta = float(cum_q[j]) + theta * float(groups.q[k])
    achieved = cum + theta * gp
    if abs(achieved - alpha) > PREMISE_TOL:
        raise CoordsimError(f"acceptance mass {achieved!r} missed alpha {alpha!r}")
    bounds = np.append(groups.heads, groups.idx.size)
    decision = np.zeros(n_outcomes)
    decision[groups.idx[bounds[k + 1] :]] = 1.0
    decision[groups.idx[bounds[k] : bounds[k + 1]]] = theta
    return NPResult(beta=beta, threshold=float(groups.llr[k]), randomization=theta), decision


def np_beta(p, q, alpha: float) -> NPResult:
    """Exact minimum type-II mass over randomized tests with p-acceptance
    at least alpha.

    Accepts Pmf/JointPmf or plain arrays of matching total size; both are
    flattened C-style, must pass the one law check (total within 1e-12 of
    1) and are used as given, never renormalized, so a converse witness on
    the same tables gets the same bits.  alpha must lie strictly inside (0, 1).
    """
    pa, qa, alpha = _np_inputs(p, q, alpha)
    result, _ = _np_solve(_llr_groups(pa, qa), pa.size, alpha)
    return result


def np_test(p, q, alpha: float) -> BinaryTest:
    """The optimal randomized decision rule behind ``np_beta``."""
    pa, qa, alpha = _np_inputs(p, q, alpha)
    _, decision = _np_solve(_llr_groups(pa, qa), pa.size, alpha)
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
    pa, qa, alpha = _np_inputs(p, q, alpha)
    gammas = np.asarray(list(gamma_grid), dtype=np.float64)
    if gammas.size == 0:
        raise DomainError("gamma grid must be non-empty")
    if np.any(~np.isfinite(gammas)) or np.any(gammas <= 0):
        raise DomainError("gamma grid entries must be finite and positive")

    groups = _llr_groups(pa, qa)
    beta = _np_solve(groups, pa.size, alpha)[0].beta

    lower = []
    upper = []
    for gam in gammas:
        tail = groups.tail(math.log2(gam), strict=True)
        lower.append(tail + gam * beta - alpha)
        upper.append(1.0 / gam - beta if tail >= alpha else None)

    applicable = [s for s in upper if s is not None]
    worst_upper = min(applicable) if applicable else math.inf
    worst_lower = min(lower)
    ok = worst_lower >= -BOUND_TOL and worst_upper >= -BOUND_TOL
    return SandwichReport(
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
# two-cell mass transfer
# =============================================================================


@dataclass(frozen=True)
class _Transfer:
    """One mass move between two support cells of a pair law."""

    gainer: tuple
    loser: tuple
    delta: float
    corr_gain: float  # log2(1 + delta / P(gainer))
    corr_lose: float  # log2(P(loser) / (P(loser) - delta)); inf if emptied
    p_gainer: float
    p_loser: float
    same_row: bool


def _pick_transfer(P: np.ndarray, Q: np.ndarray, eps: float, perturb: str):
    """Choose the transfer cells and apply the move.

    The gainer is the support cell with the largest likelihood ratio
    (lowest flat index on ties); the loser is the smallest-ratio support
    cell taken from the gainer's row when that row holds another support
    cell, otherwise globally (highest flat index on ties).  The moved mass
    is eps times the perturbed cell's probability -- the gainer's for
    ``perturb="gain"``, the loser's for ``perturb="lose"`` -- capped so the
    loser never goes negative.
    """
    rows, cols = P.shape
    flat_p = P.reshape(-1)
    flat_q = Q.reshape(-1)
    sup = np.flatnonzero(flat_p > 0)
    if sup.size < 2:
        raise DomainError("mass transfer needs at least two support cells")
    vals = np.log2(flat_p[sup] / flat_q[sup])
    gi = int(sup[int(np.argmax(vals))])

    row_sup = sup[(sup // cols) == (gi // cols)]
    if row_sup.size >= 2:
        cand = row_sup[row_sup != gi]
        same_row = True
    else:
        cand = sup[sup != gi]
        same_row = False
    cvals = np.log2(flat_p[cand] / flat_q[cand])
    li = int(cand[cvals == cvals.min()].max())

    pert = gi if perturb == "gain" else li
    delta = min(eps * float(flat_p[pert]), float(flat_p[li]))

    out = flat_p.copy()
    out[gi] += delta
    out[li] -= delta
    if out[li] < 0.0:
        out[li] = 0.0

    p_g = float(flat_p[gi])
    p_l = float(flat_p[li])
    rem = p_l - delta
    info = _Transfer(
        gainer=tuple(int(x) for x in np.unravel_index(gi, P.shape)),
        loser=tuple(int(x) for x in np.unravel_index(li, P.shape)),
        delta=float(delta),
        corr_gain=math.log2(1.0 + delta / p_g),
        corr_lose=math.inf if rem <= 0.0 else math.log2(p_l / rem),
        p_gainer=p_g,
        p_loser=p_l,
        same_row=same_row,
    )
    return info, out.reshape(P.shape)


def _corr_range(P: np.ndarray, delta: float) -> dict:
    """Spread of the two threshold corrections across all support cells.

    The correction formulas depend on which cell the chain tracks; this
    reports how much that choice can move them for a fixed transfer size.
    Cells a ``lose`` correction would empty are excluded from its range
    (their correction is unbounded) and counted instead.
    """
    sup_vals = P[P > 0]
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
        "lose_cells_excluded": int(np.count_nonzero(~keep)),
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
    ``rate`` is the final per-symbol bound implied by the chain, with the
    log term omitted (and ``valid_regime`` False) when its argument
    eps - y - 2B/sqrt(n) is nonpositive.
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


def _iid_pair(pair: JointPmf, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-fold iid pair law P and the product Q of its two n-fold
    marginals, both as dense |A|^n x |B|^n tables."""
    P = iid_extension(pair, n).probs
    Q = np.outer(
        iid_extension(marginalize(pair, 0), n).probs,
        iid_extension(marginalize(pair, 1), n).probs,
    )
    return P, Q


def _assemble(
    kind: str,
    mode: str,
    P: np.ndarray,
    P2: np.ndarray,
    Q: np.ndarray,
    info: _Transfer | None,
    n: int,
    eps: float,
    y: float,
    stats: BEStats,
    lower_gain: float,
    rate_penalty: float,
) -> WitnessReport:
    """Walk the converse chain on the law P2 (P moved by the transfer
    ``info``, if any) against Q.  The Neyman-Pearson solution and every
    candidate's tail premise read the same tie groups of log2(P2/Q)."""
    b = stats.b_over_sqrt_n(n)
    alpha = eps - b
    log_arg = eps - y - 2.0 * b
    valid = log_arg > 0.0
    h_standin = n * stats.mu
    l1_to_iid = float(np.abs(P2 - P).sum())
    p = P2.reshape(-1)
    q = Q.reshape(-1)
    if np.any((p > 0) & (q <= 0)):
        raise DomainError("perturbed law puts mass where the product law has none")
    groups = _llr_groups(p, q)

    beta = log2_inv_beta = np_thr = np_rand = math.nan
    if 0.0 < alpha < 1.0:
        res = _np_solve(groups, p.size, alpha)[0]
        beta, np_thr, np_rand = res.beta, res.threshold, res.randomization
        log2_inv_beta = math.inf if beta <= 0.0 else -math.log2(beta)
    have_beta = not math.isnan(beta)

    shifts = []
    if info is not None:
        shifts.append(("corrected", info.corr_gain if mode == "case1" else -info.corr_lose))
    candidates = shifts + [("zero", 0.0)]
    gauss_n = 0.0 if stats.degenerate else gaussian_q_inv(eps) * math.sqrt(n * stats.v)
    zero_up = n * stats.mu + gauss_n

    upper = []
    for name, shift in candidates:
        lg0 = zero_up + shift
        tail = groups.tail(lg0, strict=False)
        premise = tail >= alpha - PREMISE_TOL
        ok = (log2_inv_beta >= lg0 - BOUND_TOL) if (premise and have_beta) else None
        upper.append(
            CandidateCheck(
                name=name,
                log_gamma=float(lg0),
                tail=float(tail),
                premise_ok=bool(premise),
                bound_lhs=float(log2_inv_beta),
                bound_rhs=float(lg0),
                ok=ok,
            )
        )

    budget = y + b
    lower = []
    for name, shift in candidates:
        lgam = h_standin + shift
        tail = groups.tail(lgam, strict=True)
        premise = tail <= budget + PREMISE_TOL
        lhs = lgam + lower_gain - math.log2(log_arg) if valid else math.nan
        ok = (lhs >= log2_inv_beta - BOUND_TOL) if (premise and valid and have_beta) else None
        lower.append(
            CandidateCheck(
                name=name,
                log_gamma=float(lgam),
                tail=float(tail),
                premise_ok=bool(premise),
                bound_lhs=float(lhs),
                bound_rhs=float(log2_inv_beta),
                ok=ok,
            )
        )

    rate = stats.mu + backoff(stats.v, gaussian_q_inv(eps), n)
    if valid:
        rate += math.log2(log_arg) / n
    rate -= rate_penalty

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
        rate_penalty=rate_penalty,
        rate=rate,
        upper=tuple(upper),
        lower=tuple(lower),
        upper_ok=any(c.ok is True for c in upper),
        lower_ok=any(c.ok is True for c in lower),
        l1_to_iid=l1_to_iid,
        transfer=None if info is None else asdict(info),
        corr_range=None if info is None else _corr_range(P, info.delta),
    )


def _check_witness_params(n: int, eps: float, y: float) -> int:
    n = check_blocklength(n)
    check_eps(eps, "eps must lie in (0, 1)")
    if not (isinstance(y, (int, float)) and 0.5 < y < 1.0):
        raise DomainError(f"split parameter y must lie in (0.5, 1), got {y!r}")
    return n


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
        raise DomainError(f"mode must be one of case1/case2/coded, got {mode!r}")
    n = _check_witness_params(n, eps, y)

    P, Q = _iid_pair(marginalize(d.joint(), ("u", "w")), n)
    if mode == "coded":
        cfg = SchemeConfig(
            n=n,
            rate_r=math.log2(d.w_size) if d.w_size > 1 else 1.0,
            rate_r0=1.0 / n,
            rate_rtilde=1.0 / n,
            seed=0,
            decomposition=d,
        )
        realization = draw_binning(cfg, 0)
        info, P2 = None, rc_joint(d, realization, cfg).marginal(("u", "w")).probs
    else:
        info, P2 = _pick_transfer(P, Q, eps, "gain" if mode == "case1" else "lose")
    return _assemble(
        "rate", mode, P, P2, Q, info, n, eps, y, stats_wu(d), lower_gain=0.0, rate_penalty=0.0
    )


def rr0_converse_witness(d: Decomposition, n: int, eps: float, y: float) -> WitnessReport:
    """Assemble and check the sum-rate converse chain on one instance.

    The pair law is ((U, V)^n, W^n) and the alternative is the product of
    the iid pair marginal and the iid W marginal.  The lower-side
    thresholds sit at the entropy stand-in n*I (the first-order value of
    the code entropy the chain tracks); converting that entropy to a sum
    rate costs at most 2 n g(eps) with
    g(eps) = 2 eps (log2|UxV| + log2(1/eps)), so that slack enters the
    lower inequality's left side and the final rate subtracts 2 g(eps)
    per symbol.  The perturbation is sized from the gaining cell.
    """
    n = _check_witness_params(n, eps, y)

    P, Q = _iid_pair(regroup_pair(d.joint(), ("u", "v"), "w"), n)
    info, P2 = _pick_transfer(P, Q, eps, "gain")
    g_eps = continuity_term(eps, d.u_size * d.v_size)
    return _assemble(
        "sum-rate", "case1", P, P2, Q, info, n, eps, y, stats_wuv(d),
        lower_gain=2.0 * n * g_eps, rate_penalty=2.0 * g_eps,
    )
