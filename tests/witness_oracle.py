"""Dense reference for the converse witnesses' tails and beta.

This is the straightforward form of what ``nptest._assemble`` reads from
one set of Neyman-Pearson tie groups: the law of log2(P2/Q) under P2,
pushed forward through ``density_law`` (a ``DensityTable`` and a
``JointPmf`` copy of the dense table, atoms ascending, each carrying its
group's smallest value), and ``np_beta`` on the flattened tables, which
re-validates both and uses them as given.  ``reference_checks`` walks a
``WitnessReport``'s candidates again with these two.
"""

from __future__ import annotations

import math

import numpy as np

from coordsim.cltverify import AtomLaw, density_law
from coordsim.errors import DomainError
from coordsim.nptest import BOUND_TOL, PREMISE_TOL, WitnessReport, np_beta
from coordsim.probability import DensityTable, JointPmf


def pair_llr_law(P2: np.ndarray, Q: np.ndarray) -> AtomLaw:
    """Exact law of log2(P2/Q) when cells are drawn from P2."""
    sup = P2 > 0
    if np.any(sup & (Q <= 0)):
        raise DomainError("perturbed law puts mass where the product law has none")
    vals = np.full(P2.shape, np.nan)
    vals[sup] = np.log2(P2[sup] / Q[sup])
    return density_law(DensityTable(vals, sup), JointPmf(P2))


def reference_checks(rep: WitnessReport, P2: np.ndarray, Q: np.ndarray):
    """(NPResult or None, upper, lower) for the chain ``rep`` reports on
    P2 against Q, where upper and lower hold (tail, premise_ok, ok) per
    candidate, in the report's order."""
    law = pair_llr_law(P2, Q)
    res = np_beta(P2.reshape(-1), Q.reshape(-1), rep.alpha) if 0.0 < rep.alpha < 1.0 else None
    if res is None:
        log2_inv_beta = math.nan
    else:
        log2_inv_beta = math.inf if res.beta <= 0.0 else -math.log2(res.beta)

    upper = []
    for c in rep.upper:
        tail = law.tail_ge(c.log_gamma)
        premise = tail >= rep.alpha - PREMISE_TOL
        ok = (log2_inv_beta >= c.log_gamma - BOUND_TOL) if (premise and res is not None) else None
        upper.append((tail, premise, ok))

    budget = rep.y + rep.b_over_sqrt_n
    lower = []
    for c in rep.lower:
        tail = law.tail_gt(c.log_gamma)
        premise = tail <= budget + PREMISE_TOL
        live = premise and rep.valid_regime and res is not None
        ok = (c.bound_lhs >= log2_inv_beta - BOUND_TOL) if live else None
        lower.append((tail, premise, ok))
    return res, upper, lower
