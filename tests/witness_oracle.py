"""Dense reference for the converse witnesses.

``dense_witness`` is the witness as it was built before types: the n-fold
iid pair law P and the product Q of its marginals as dense |A|^n x |B|^n
tables (``iid_pair``), the transfer cells picked by scanning every cell of
the table (``pick_transfer``), the correction band over every support cell
(``corr_range``), and the chain assembled on the moved table P2 against Q.
The library reads the same chain from types over the pair's single-letter
support cells; the differential tests compare the two reports.

``reference_checks`` is the straightforward form of what the chain reads
from one set of Neyman-Pearson tie groups: the law of log2(P2/Q) under P2,
pushed forward through ``density_law`` (a ``DensityTable`` and a
``JointPmf`` copy of the dense table, atoms ascending, each carrying its
group's smallest value), and ``np_beta`` on the flattened tables, which
re-validates both and uses them as given.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from coordsim import nptest
from coordsim.cltverify import AtomLaw, density_law
from coordsim.errors import DomainError
from coordsim.measures import continuity_term
from coordsim.nptest import BOUND_TOL, PREMISE_TOL, WitnessReport, np_beta
from coordsim.probability import (
    DensityTable,
    JointPmf,
    iid_extension,
    marginalize,
    regroup_pair,
    sequence_digits,
)
from coordsim.region import Decomposition, stats_wu, stats_wuv

TIE_TOL = 1e-12


def iid_pair(pair: JointPmf, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-fold iid pair law P and the product Q of its two n-fold
    marginals, both as dense |A|^n x |B|^n tables."""
    P = iid_extension(pair, n).probs
    Q = np.outer(
        iid_extension(marginalize(pair, 0), n).probs,
        iid_extension(marginalize(pair, 1), n).probs,
    )
    return P, Q


def exact_ratios(pair: np.ndarray, n: int, cells: np.ndarray) -> np.ndarray:
    """The exact likelihood ratio of each flat cell of the n-fold table: the
    product over its letters of P(a, b) / (P(a) P(b)), in Fractions of the
    single-letter floats."""
    rows, cols = pair.shape
    pa, pb = pair.sum(axis=1), pair.sum(axis=0)
    out = []
    for cell in cells.tolist():
        a_seq, b_seq = divmod(cell, cols ** n)
        ratio = Fraction(1)
        for a, b in zip(sequence_digits(a_seq, rows, n), sequence_digits(b_seq, cols, n)):
            ratio *= Fraction(float(pair[a, b])) / (Fraction(float(pa[a])) * Fraction(float(pb[b])))
        out.append(ratio)
    return np.array(out, dtype=object)


def pick_transfer(pair: np.ndarray, n: int, P: np.ndarray, eps: float, perturb: str):
    """Choose the transfer cells of the n-fold table P of ``pair`` and apply
    the move.

    The gainer is the support cell with the largest likelihood ratio
    (lowest flat index on ties); the loser is the smallest-ratio support
    cell taken from the gainer's row when that row holds another support
    cell, otherwise globally (highest flat index on ties).  Cells are
    ranked by their exact ratio (``exact_ratios``): the float products of
    the dense tables break exact ties by rounding.  The moved mass is eps
    times the perturbed cell's probability -- the gainer's for
    ``perturb="gain"``, the loser's for ``perturb="lose"`` -- capped so the
    loser never goes negative.
    """
    rows, cols = P.shape
    flat_p = P.reshape(-1)
    sup = np.flatnonzero(flat_p > 0)
    if sup.size < 2:
        raise DomainError("mass transfer needs at least two support cells")
    vals = exact_ratios(pair, n, sup)
    gi = int(sup[vals.tolist().index(max(vals))])

    in_row = (sup // cols) == (gi // cols)
    if np.count_nonzero(in_row) >= 2:
        keep = in_row & (sup != gi)
        same_row = True
    else:
        keep = sup != gi
        same_row = False
    cand, cvals = sup[keep], vals[keep]
    li = int(cand[cvals == min(cvals)].max())

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
    info = nptest._Transfer(
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


def corr_range(P: np.ndarray, delta: float) -> dict:
    """Spread of the two threshold corrections across all support cells of
    the dense table; cells a ``lose`` correction would empty are counted."""
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


def dense_witness(kind: str, d: Decomposition, n: int, eps: float, y: float):
    """(report, P2, Q): ``converse_witness(d, n, eps, y, kind)`` for kind
    case1 / case2, or ``rr0_converse_witness`` for kind rr0, assembled on
    the dense tables."""
    nptest._check_witness_params(n, eps, y)
    if kind == "rr0":
        pair = regroup_pair(d.joint(), ("u", "v"), "w")
        g_eps = continuity_term(eps, d.u_size * d.v_size)
        labels, stats, perturb = ("sum-rate", "case1"), stats_wuv(d), "gain"
        gains = {"lower_gain": 2.0 * n * g_eps, "rate_penalty": 2.0 * g_eps}
    else:
        pair = marginalize(d.joint(), ("u", "w"))
        labels, stats = ("rate", kind), stats_wu(d)
        perturb = "gain" if kind == "case1" else "lose"
        gains = {"lower_gain": 0.0, "rate_penalty": 0.0}
    P, Q = iid_pair(pair, n)
    info, P2 = pick_transfer(pair.probs, n, P, eps, perturb)
    law = nptest._table_law(P2, pair, n)._replace(info=info, corr_range=corr_range(P, info.delta))
    return nptest._assemble(*labels, law, n, eps, y, stats, **gains), P2, Q


def pair_llr_law(P2: np.ndarray, Q: np.ndarray) -> AtomLaw:
    """Exact law of log2(P2/Q) when cells are drawn from P2."""
    sup = P2 > 0
    if np.any(sup & (Q <= 0)):
        raise DomainError("perturbed law puts mass where the product law has none")
    vals = np.full(P2.shape, np.nan)
    vals[sup] = np.log2(P2[sup] / Q[sup])
    return density_law(DensityTable(vals, sup), JointPmf(P2))


def at_atom(law: AtomLaw, x: float) -> float:
    """The nearest atom value within TIE_TOL of ``x``, else ``x``."""
    near = [v for v in law.values.tolist() if abs(v - x) <= TIE_TOL]
    return min(near, key=lambda v: abs(v - x)) if near else x


def reference_checks(rep: WitnessReport, P2: np.ndarray, Q: np.ndarray):
    """(NPResult or None, upper, lower) for the chain ``rep`` reports on
    P2 against Q, where upper and lower hold (tail, premise_ok, ok) per
    candidate, in the report's order.  A candidate threshold within
    TIE_TOL of an atom is read at that atom."""
    law = pair_llr_law(P2, Q)
    res = np_beta(P2.reshape(-1), Q.reshape(-1), rep.alpha) if 0.0 < rep.alpha < 1.0 else None
    if res is None:
        log2_inv_beta = math.nan
    else:
        log2_inv_beta = math.inf if res.beta <= 0.0 else -math.log2(res.beta)

    upper = []
    for c in rep.upper:
        tail = law.tail_ge(at_atom(law, c.log_gamma))
        premise = tail >= rep.alpha - PREMISE_TOL
        ok = (log2_inv_beta >= c.log_gamma - BOUND_TOL) if (premise and res is not None) else None
        upper.append((tail, premise, ok))

    budget = rep.y + rep.b_over_sqrt_n
    lower = []
    for c in rep.lower:
        tail = law.tail_gt(at_atom(law, c.log_gamma))
        premise = tail <= budget + PREMISE_TOL
        live = premise and rep.valid_regime and res is not None
        ok = (c.bound_lhs >= log2_inv_beta - BOUND_TOL) if live else None
        lower.append((tail, premise, ok))
    return res, upper, lower
